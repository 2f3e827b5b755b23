"""The cyclic collector is paused while a trace is built in bulk.

`run_game` (its round loop) and the CSV reader (its row loop) run inside
`engine.gc_paused`, since those loops keep only acyclic records.
The pause is pinned by state, not by time: a probe Reality reads
`gc.isenabled()` in every round, and `gc.callbacks` counts collections.
Both are exact on a host too noisy to time the saving.
"""

import ast
import gc
import io
from contextlib import contextmanager
from pathlib import Path

import pytest
import yaml

from gtpsim import (
    GameKind,
    InvalidMoveError,
    Protocol,
    Reality,
    ScriptForecaster,
    ZeroSkeptic,
    run_game,
)
from gtpsim.engine import RoundRecord, gc_paused
from gtpsim.scenario import (
    _REALITIES,
    _SKEPTICS,
    ScenarioError,
    run_scenario,
)
from gtpsim.traceio import read_trace_csv, trace_from_csv_text, trace_to_csv_text

from _support import parse_text

SRC = Path(__file__).resolve().parent.parent / "src" / "gtpsim"
COIN = Protocol(GameKind.COIN_TOSSING)


@contextmanager
def collector(enabled: bool):
    """Run the block with automatic collection on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@contextmanager
def counted_collections():
    """Count the collections that start in the block: a one-item list."""
    count = [0]

    def callback(phase, info):
        if phase == "start":
            count[0] += 1

    gc.callbacks.append(callback)
    try:
        yield count
    finally:
        gc.callbacks.remove(callback)


class ProbeReality(Reality):
    """Plays tails and records `gc.isenabled()` in each outcome call.  With
    `inner_horizon`, each call first plays a nested game of that length."""

    def __init__(self, inner_horizon: int = 0, bad_round: int = 0):
        self.inner_horizon = inner_horizon
        self.bad_round = bad_round

    def reset(self, protocol):
        self.seen = []

    def outcome(self, n, forecast, bet, k_prev):
        if self.inner_horizon:
            _play(ProbeReality(), self.inner_horizon)
        self.seen.append(gc.isenabled())
        return 0.5 if n == self.bad_round else 0.0


def _play(reality: Reality, horizon: int):
    forecaster = ScriptForecaster(lambda n: 0.5)
    return run_game(COIN, forecaster, ZeroSkeptic(), reality, horizon)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_run_game_pauses_every_round_and_restores_the_collector(enabled):
    probe = ProbeReality()
    with collector(enabled):
        trace = _play(probe, 300)
        assert gc.isenabled() is enabled
    assert len(trace.rounds) == 300
    assert probe.seen == [False] * 300


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_trace_from_csv_text_restores_the_collector(enabled):
    text = trace_to_csv_text(_play(ProbeReality(), 50))
    with collector(enabled):
        trace = trace_from_csv_text(text, COIN)
        assert gc.isenabled() is enabled
    assert trace_to_csv_text(trace) == text


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_an_invalid_move_mid_run_restores_the_collector(enabled):
    probe = ProbeReality(bad_round=7)
    with collector(enabled):
        with pytest.raises(InvalidMoveError, match="round 7: reality"):
            _play(probe, 20)
        assert gc.isenabled() is enabled
    assert probe.seen == [False] * 7


def test_a_bad_csv_row_restores_the_collector():
    text = trace_to_csv_text(_play(ProbeReality(), 5)) + "6,0.5,,0,,x,1\n"
    with collector(True):
        with pytest.raises(ValueError):
            trace_from_csv_text(text, COIN)
        assert gc.isenabled()


def _read_bad_row_from_a_file(tmp_path, row: str):
    """Read five good rows and then `row` from a file: the read raises
    ValueError, closes the file and leaves the collector enabled."""
    path = tmp_path / "bad.csv"
    path.write_text(trace_to_csv_text(_play(ProbeReality(), 5)) + row, encoding="utf-8")
    with collector(True):
        with pytest.raises(ValueError) as raised:
            read_trace_csv(path, COIN)
        assert gc.isenabled()
    # The open file is a local of a frame the error passed through.
    files = [value for entry in raised.traceback for value in entry.frame.f_locals.values()
             if isinstance(value, io.IOBase)]
    assert files and all(f.closed for f in files)
    return raised.value


def test_a_bad_row_in_a_file_closes_it_and_restores_the_collector(tmp_path):
    _read_bad_row_from_a_file(tmp_path, "6,0.5,,0,,x,1\n")


def test_a_misnumbered_row_in_a_file_closes_it_and_restores_the_collector(tmp_path):
    err = _read_bad_row_from_a_file(tmp_path, "7,0.5,,0,,0,1\n")
    assert str(err) == "CSV line 7: n = 7, expected 6"


def test_a_nested_run_game_leaves_the_outer_pause_in_place():
    probe = ProbeReality(inner_horizon=5)
    with collector(True):
        _play(probe, 10)
        assert gc.isenabled()
    assert probe.seen == [False] * 10


def test_gc_paused_nests_and_restores_on_an_exception():
    with collector(True):
        with pytest.raises(KeyError):
            with gc_paused():
                with gc_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
                raise KeyError("x")
        assert gc.isenabled()


def test_reading_a_long_csv_collects_at_most_once():
    rounds = 20_000
    text = trace_to_csv_text(_play(ProbeReality(), rounds))
    gc.collect()
    with collector(True), counted_collections() as count:
        trace = trace_from_csv_text(text, COIN)
    assert len(trace.rounds) == rounds
    assert count[0] <= 1


def test_counted_collections_sees_an_unpaused_loop():
    # Self-check of the counter: the same records built outside a pause
    # start many collections.
    gc.collect()
    with collector(True), counted_collections() as count:
        records = [RoundRecord(0.5, 0.0, 0.0, 1.0)
                   for _ in range(20_000)]
    assert len(records) == 20_000
    assert count[0] >= 10


def _registry_scenarios(tmp_path):
    """One small scenario per (game, registered Skeptic or Reality) that
    parses: a strategy that cannot play a game is skipped."""
    for kind in GameKind:
        protocol = {"kind": kind.value, "initial_capital": 0.5}
        if kind is GameKind.GENERAL_HEDGE:
            protocol["hedge"] = "power:r=1.5"
        for role, registry in (("skeptic", _SKEPTICS), ("reality", _REALITIES)):
            for name in registry:
                doc = {
                    "protocol": protocol,
                    "horizon": 300,
                    "forecaster": {"name": "harmonic" if kind.uses_price else "mv"},
                    "skeptic": {"name": "bang_bang"},
                    "reality": {"name": "constant"},
                    "seed": 3,
                    role: {"name": name},
                }
                try:
                    scenario = parse_text(tmp_path, yaml.safe_dump(doc))
                except ScenarioError:
                    continue
                yield f"{kind.value}/{role}/{name}", scenario


def test_every_registered_strategy_leaves_no_cycle(tmp_path):
    played = set()
    for label, scenario in _registry_scenarios(tmp_path):
        gc.collect()
        trace = run_scenario(scenario)
        assert trace.rounds, label
        assert gc.collect() == 0, label
        played.add(label.split("/", 1)[1])
    assert played == ({f"skeptic/{name}" for name in _SKEPTICS}
                      | {f"reality/{name}" for name in _REALITIES})


def test_the_package_never_collects_or_retunes_the_collector():
    allowed = {"disable", "enable", "isenabled"}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "gc"):
                used.add(node.attr)
    assert used == allowed
