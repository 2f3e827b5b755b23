"""Trace CSV text: byte identity with a csv.writer reference, round trips,
and the objects that the writer and the reader share between rows."""

import csv
import gc
import hashlib
import io
import math
import tracemalloc
from array import array
from pathlib import Path

import pytest

from gtpsim import (
    ForecastMove,
    GameKind,
    Protocol,
    RoundRecord,
    SkepticBet,
    Trace,
    replay_verify,
    run_game,
)
from gtpsim.cli import main
from gtpsim.hedges import power_hedge
from gtpsim.scenario import run_scenario
from gtpsim.traceio import (
    CSV_HEADER,
    read_trace_csv,
    trace_from_csv_text,
    trace_to_csv_text,
    write_trace_csv,
)

from _support import ScriptBetSkeptic, ScriptReality, parse_text, price_forecaster, trace_of

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _reference_csv(trace: Trace) -> str:
    """The CSV text as csv.writer writes it, each float to 17 digits."""

    def fmt(value):
        return "" if value is None else format(value, ".17g")

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    price = trace.protocol.kind.uses_price
    for n, r in enumerate(trace.rounds, 1):
        f, s = r.forecast, r.bet
        writer.writerow([
            n, *((fmt(f), "") if price else (fmt(f.m), fmt(f.v))),
            *((fmt(s), "") if price else (fmt(s.M), fmt(s.V))),
            fmt(r.x), fmt(r.capital_after),
        ])
    return out.getvalue()


# One scenario per protocol whose Skeptic bets small enough to last the
# horizon; the mean-variance ones also set V.
PLAYED = {
    "coin": ("coin_tossing", "{name: harmonic, a: 1.5}",
             "{name: random_bounded, bound: 0.001}", "{name: bc_comply}"),
    "bounded": ("bounded_forecasting, initial_capital: 0.5",
                "{name: explicit, values: [0.0, 1.0, 0.37, 0.91]}",
                "{name: random_bounded, bound: 0.001}", "{name: avoid_match, q: 0.9}"),
    "unbounded": ("unbounded_forecasting", "{name: mv, m: {name: sin}}",
                  "{name: bang_bang, amplitude: 0.001, v_amplitude: 0.001}",
                  "{name: ufg_comply}"),
    "general_hedge": ("general_hedge, hedge: 'power:r=1.5', growth: identity",
                      "{name: mv, m: {name: sin}}",
                      "{name: random_bounded, bound: 0.001}", "{name: ufgh_comply}"),
}
HORIZON = 300


def _played(tmp_path, kind: str) -> Trace:
    protocol, forecaster, skeptic, reality = PLAYED[kind]
    trace = run_scenario(parse_text(tmp_path,
        f"name: {kind}\nprotocol: {{kind: {protocol}}}\nhorizon: {HORIZON}\n"
        f"forecaster: {forecaster}\nskeptic: {skeptic}\nreality: {reality}\nseed: 11\n"))
    assert len(trace.rounds) == HORIZON
    return trace


NAN_CAPITAL = """\
name: nan_capital
protocol: {kind: unbounded_forecasting}
horizon: 5
forecaster: {name: mv}
skeptic: {name: bang_bang, amplitude: 1.0e200}
reality: {name: constant, x: 1.0e200}
"""


COIN = Protocol(kind=GameKind.COIN_TOSSING)
BOUNDED = Protocol(kind=GameKind.BOUNDED_FORECASTING)

# Price-game traces whose packed doubles `==` cannot check: 0.0 == -0.0,
# and NaN equals nothing.  The NaN capital is hand-built, since no valid
# price-game move makes one; run_game would stop at its round.
PACKED = {
    "coin_negative_zero_price_and_bet": lambda: run_game(
        COIN, price_forecaster([-0.0, 0.5, 0.0]), ScriptBetSkeptic([-0.0, 0.0, 0.25]),
        ScriptReality([1.0, 0.0, 0.0, 1.0]), 12),
    "bounded_negative_zero_x": lambda: run_game(
        BOUNDED, price_forecaster([0.5, 0.25]), ScriptBetSkeptic([0.25, -0.0, 0.5]),
        ScriptReality([-0.0, 0.0, -0.0, 1.0, 0.75]), 12),
    "coin_subnormal_price": lambda: run_game(
        COIN, price_forecaster([5e-324, 0.5, 5e-324]), ScriptBetSkeptic([0.5, -0.25]),
        ScriptReality([0.0, 1.0, 1.0]), 12),
    "coin_nan_capital_at_a_fault_round": lambda: trace_of(COIN, [
        RoundRecord(0.5, 0.5, 1.0, 1.25), RoundRecord(0.5, 0.5, 1.0, 1.5),
        RoundRecord(0.25, 1e300, 0.0, math.nan)]),
}


@pytest.mark.parametrize("kind", sorted(PLAYED) + sorted(PACKED))
def test_csv_text_matches_csv_writer_and_round_trips(tmp_path, kind):
    trace = _played(tmp_path, kind) if kind in PLAYED else PACKED[kind]()
    text = trace_to_csv_text(trace)
    assert text == _reference_csv(trace)
    back = trace_from_csv_text(text, trace.protocol, trace.seed)
    if kind in PLAYED:
        assert back.rounds == trace.rounds
        assert replay_verify(back) is None
    else:
        # Bit for bit, which `==` on the records cannot tell.
        assert all(isinstance(column, array) for column in back.columns)
        assert [c.tobytes() for c in back.columns] == [c.tobytes() for c in trace.columns]
        assert replay_verify(back) == replay_verify(trace)
    assert trace_to_csv_text(back) == text


def test_packed_inputs_hold_what_they_test():
    traces = {kind: build() for kind, build in PACKED.items()}
    signs = {kind: {name: {math.copysign(1.0, v) for v in getattr(t, name) if v == 0.0}
                    for name in ("forecasts", "bets", "xs")} for kind, t in traces.items()}
    assert signs["coin_negative_zero_price_and_bet"]["forecasts"] == {1.0, -1.0}
    assert signs["coin_negative_zero_price_and_bet"]["bets"] == {1.0, -1.0}
    assert signs["bounded_negative_zero_x"]["xs"] == {1.0, -1.0}
    assert 5e-324 in traces["coin_subnormal_price"].forecasts
    capitals = traces["coin_nan_capital_at_a_fault_round"].capitals
    assert math.isnan(capitals[-1]) and replay_verify(
        traces["coin_nan_capital_at_a_fault_round"]) == 3
    assert all(len(t.rounds) == 12 for kind, t in traces.items() if "nan" not in kind)


def test_csv_text_writes_non_finite_values_as_csv_writer_does(tmp_path):
    # Round 1 gains 1e200 * 1e200 = inf; round 2 adds -inf + inf = NaN.
    trace = run_scenario(parse_text(tmp_path, NAN_CAPITAL))
    capitals = trace.capitals
    assert math.isinf(capitals[0]) and math.isnan(capitals[1])
    text = trace_to_csv_text(trace)
    assert text == _reference_csv(trace)
    assert text.splitlines()[1].endswith(",inf") and text.splitlines()[2].endswith(",nan")
    back = trace_from_csv_text(text, trace.protocol)
    assert trace_to_csv_text(back) == text


def test_csv_text_of_absent_fields_and_hand_built_values():
    coin = Protocol(kind=GameKind.COIN_TOSSING)
    hedge = Protocol(kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(1.5))
    rows = [
        # a coin-game bet is M alone: v and V are written empty
        (coin, RoundRecord(0.25, 0.5, 1.0, 1.375)),
        (coin, RoundRecord(0.5, 1e-300, 1.0, 5e-324)),
        (hedge, RoundRecord(ForecastMove(-math.inf, math.inf),
                            SkepticBet(math.nan, math.inf), -math.inf, math.nan)),
        (hedge, RoundRecord(ForecastMove(0.1, 0.2),
                            SkepticBet(1 / 3, 2 / 3), 0.1 + 0.2, 1e16)),
    ]
    for protocol, record in rows:
        trace = trace_of(protocol, [record])
        assert trace_to_csv_text(trace) == _reference_csv(trace)
    lines = [trace_to_csv_text(trace_of(p, [r])).splitlines()[1]
             for p, r in rows]
    # each trace holds one record, so n is its position 1
    assert lines[0] == "1,0.25,,0.5,,1,1.375"
    assert lines[2] == "1,-inf,inf,nan,inf,-inf,nan"
    assert lines[3] == "1,0.10000000000000001,0.20000000000000001,0.33333333333333331," \
        "0.66666666666666663,0.30000000000000004,10000000000000000"


def test_empty_trace_is_the_header_alone():
    trace = Trace(protocol=Protocol(kind=GameKind.COIN_TOSSING))
    assert trace_to_csv_text(trace) == "n,p_or_m,v,M,V,x,K\n" == _reference_csv(trace)


def test_empty_text_has_no_header():
    with pytest.raises(ValueError, match="unexpected CSV header None"):
        trace_from_csv_text("", Protocol(kind=GameKind.COIN_TOSSING))


def _coin_text(numbers) -> str:
    """A coin-game CSV whose rows carry the given n, one row each."""
    return "n,p_or_m,v,M,V,x,K\n" + "".join(f"{n},0.5,,0,,1,1\n" for n in numbers)


# A record keeps no round number, so the reader checks that each row's n is
# the position it loads at.
@pytest.mark.parametrize("numbers, line, n, position", [
    ((1, 2, 4), 4, 4, 3),
    ((0, 1, 2), 2, 0, 1),
], ids=["skips_3", "starts_at_0"])
def test_reader_rejects_an_n_other_than_the_row_position(numbers, line, n, position):
    with pytest.raises(ValueError, match=f"^CSV line {line}: n = {n}, expected {position}$"):
        trace_from_csv_text(_coin_text(numbers), Protocol(kind=GameKind.COIN_TOSSING))


def test_reader_numbers_the_records_past_a_blank_row():
    text = _coin_text((1, 2)) + "\n" + _coin_text((3,)).split("\n", 1)[1]
    coin = Protocol(kind=GameKind.COIN_TOSSING)
    assert len(trace_from_csv_text(text, coin).rounds) == 3
    with pytest.raises(ValueError, match="^CSV line 5: n = 4, expected 3$"):
        trace_from_csv_text(text.replace("\n3,", "\n4,"), coin)


# sha256 of each CSV that `gtpsim verify scenarios/examples_manifest.yaml
# --out DIR` writes, recorded before the writer reused the text of shared
# objects.
EXAMPLE_CSV_SHA256 = {
    "avoid_match.csv":
        "a4fa4f4f2d9e865dee72cad910be77426fb7f61f9fc98ef15f4e34b64363a263",
    "coin_broken_reality.csv":
        "8ee76337034ff40d6e5d6d7729c4826b5982568e0cd9547a640898e2daa8081d",
    "coin_harmonic_fictional.csv":
        "530272803464d373ccb4d2cf9ecc0abff95c7b6b0e6aed221d1c672baf62d50d",
    "first_round.csv":
        "55c6b850e5a895ef257273a75d44a62ca7760aae2981757ff2a465ce93836f63",
}


def test_example_manifest_csv_bytes_are_unchanged(tmp_path, capsys):
    assert main(["verify", str(SCENARIOS / "examples_manifest.yaml"),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.glob("*.csv")} == EXAMPLE_CSV_SHA256


# Adjacent values that compare equal but print apart (0.0 and -0.0), and
# values that print alike but never compare equal (NaN).  K runs three rows
# behind x, so the fields repeat in different rows.
SIGNED = [0.0, -0.0, -0.0, 0.0, math.nan, math.nan, 1.0, 1.0, -math.inf, 0.25, 0.25]
PROTOCOLS = {"coin": Protocol(kind=GameKind.COIN_TOSSING),
             "general_hedge": Protocol(kind=GameKind.GENERAL_HEDGE, hedge=power_hedge(1.5))}


def _signed_rounds(protocol: Protocol, shared: bool) -> list:
    """Records of SIGNED values.  Shared: a field holds the previous row's
    object wherever its value repeats bit for bit, as `run_game` shares a
    move or a capital.  Distinct: every field is a new object."""
    mv = not protocol.kind.uses_price
    rounds, prev = [], None

    def same(value, previous):
        if shared and previous is not None and previous.hex() == value.hex():
            return previous
        return float.fromhex(value.hex())

    for value, capital in zip(SIGNED, SIGNED[-3:] + SIGNED):
        x = same(value, prev.x if prev else None)
        k = same(capital, prev.capital_after if prev else None)
        if prev is not None and x is prev.x:
            forecast, bet = prev.forecast, prev.bet
        else:
            forecast = ForecastMove(x, x) if mv else x
            bet = SkepticBet(-x, x) if mv else -x
        prev = RoundRecord(forecast, bet, x, k)
        rounds.append(prev)
    return rounds


def _signed_trace(protocol: Protocol, shared: bool) -> Trace:
    return trace_of(protocol, _signed_rounds(protocol, shared))


@pytest.mark.parametrize("kind", sorted(PROTOCOLS))
def test_shared_and_distinct_objects_give_the_same_text(kind):
    # A coin trace packs the records' floats, so its two traces hold the
    # same bits; a general-hedge trace keeps the records' objects.
    shared_rounds = _signed_rounds(PROTOCOLS[kind], shared=True)
    distinct_rounds = _signed_rounds(PROTOCOLS[kind], shared=False)
    assert shared_rounds[2].x is shared_rounds[1].x
    assert shared_rounds[2].forecast is shared_rounds[1].forecast
    assert distinct_rounds[2].x is not distinct_rounds[1].x
    shared = trace_of(PROTOCOLS[kind], shared_rounds)
    distinct = trace_of(PROTOCOLS[kind], distinct_rounds)
    text = trace_to_csv_text(shared)
    assert text == trace_to_csv_text(distinct) == _reference_csv(shared)
    lines = text.splitlines()
    assert [line.split(",")[5] for line in lines[1:7]] == \
        ["0", "-0", "-0", "0", "nan", "nan"]
    assert [line.split(",")[6] for line in lines[4:10]] == \
        ["0", "-0", "-0", "0", "nan", "nan"]


def _field_columns(protocol: Protocol):
    """The CSV columns each object of a round is read from."""
    if protocol.kind.uses_price:
        return {"forecast": (1,), "bet": (3,), "x": (5,), "capital_after": (6,)}
    return {"forecast": (1, 2), "bet": (3, 4), "x": (5,), "capital_after": (6,)}


def _packed(trace: Trace) -> bool:
    return all(isinstance(column, array) for column in trace.columns)


@pytest.mark.parametrize("kind, shared", [(kind, None) for kind in sorted(PLAYED)] + [
    (kind, shared) for kind in sorted(PROTOCOLS) for shared in (True, False)])
def test_reader_shares_an_object_exactly_where_its_text_repeats(tmp_path, kind, shared):
    # shared is None for a played trace, else which SIGNED trace to write.
    trace = _played(tmp_path, kind) if shared is None else _signed_trace(PROTOCOLS[kind], shared)
    text = trace_to_csv_text(trace)
    back = trace_from_csv_text(text, trace.protocol)
    assert trace_to_csv_text(back) == text
    if _packed(trace):
        # A price-game trace keeps the doubles, and no object to share.  The
        # text of a NaN holds neither its sign nor its payload: hex neither.
        assert _packed(back)
        for column, written in zip(back.columns, trace.columns):
            assert list(map(float.hex, column)) == list(map(float.hex, written))
        return
    rows = list(csv.reader(io.StringIO(text)))[1:]
    for i in range(1, len(rows)):
        for name, columns in _field_columns(trace.protocol).items():
            repeats = all(rows[i][c] == rows[i - 1][c] for c in columns)
            is_same = getattr(back.rounds[i], name) is getattr(back.rounds[i - 1], name)
            assert is_same == repeats, (i, name)
    assert trace_to_csv_text(back) == text


def test_reading_a_long_file_holds_little_beyond_the_trace(tmp_path):
    rounds = 100_000
    trace = run_scenario(parse_text(tmp_path,
        f"protocol: {{kind: coin_tossing}}\nhorizon: {rounds}\n"
        "forecaster: {name: harmonic}\nskeptic: {name: bc_fictional}\n"
        "reality: {name: bc_comply}\n"))
    path = tmp_path / "long.csv"
    write_trace_csv(trace, path)
    protocol = trace.protocol
    del trace
    gc.collect()
    tracemalloc.start()
    try:
        back = read_trace_csv(path, protocol)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back.rounds) == rounds
    # The file alone is about 6.9 MB; the parse holds a few rows of it.
    assert path.stat().st_size > 6_000_000
    assert peak < retained + 2 ** 20, (retained, peak)


def test_writing_a_long_file_holds_little_beyond_the_trace(tmp_path):
    rounds = 100_000
    trace = run_scenario(parse_text(tmp_path,
        f"protocol: {{kind: coin_tossing}}\nhorizon: {rounds}\n"
        "forecaster: {name: harmonic}\nskeptic: {name: bc_fictional}\n"
        "reality: {name: bc_comply}\n"))
    path = tmp_path / "long.csv"
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_trace_csv(trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The file is about 6.9 MB; the writer holds a piece of it at a time.
    assert path.stat().st_size > 6_000_000
    assert peak < before + 2 ** 20, (before, peak)
    assert path.read_text(encoding="utf-8") == trace_to_csv_text(trace)
