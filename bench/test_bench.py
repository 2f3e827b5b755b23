"""Tests of the benchmark itself: its inputs are a function of the seed, its
checks are live, its traced counts repeat, and BENCHMARK.json matches what
it prints.

    python3 -m pytest bench -q
"""

import json
import random
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from gtpsim import analysis, cli  # noqa: E402
from hostspeed import REF_SLICE_S, SpeedProbe  # noqa: E402
from tracer import UNITS, Tracer  # noqa: E402
from workloads import WORKLOADS, Expectations  # noqa: E402

SHORT = 300  # horizon for the game workloads in these tests


def play(name, seed, workdir, horizon=SHORT):
    workload = WORKLOADS[name]
    state = workload.setup(seed, workdir, horizon)
    return workload, state, workload.run(state)


def checked(name, seed, workdir, horizon=SHORT):
    workload, state, result = play(name, seed, workdir, horizon)
    return workload.check(state, result, Expectations({}, seed, seed))


def flip_low_bit(value: float) -> float:
    (bits,) = struct.unpack(">Q", struct.pack(">d", value))
    return struct.unpack(">d", struct.pack(">Q", bits ^ 1))[0]


def test_same_seed_gives_identical_digests_and_counts(tmp_path):
    for name in ("coin_pool", "mv_pool", "replay_io"):
        a = checked(name, 5, tmp_path / "a")
        b = checked(name, 5, tmp_path / "b")
        assert a.failed == b.failed == 0, a.problems + b.problems
        assert a.digests == b.digests
        assert (a.rounds, a.requested, a.csv_bytes) == (b.rounds, b.requested, b.csv_bytes)


def test_other_seed_changes_exactly_the_random_bounded_traces(tmp_path):
    for name in ("coin_pool", "replay_io"):
        a = checked(name, 1, tmp_path / "a")
        b = checked(name, 2, tmp_path / "b")
        changed = {op for op in a.digests if a.digests[op] != b.digests[op]}
        if name == "coin_pool":
            assert changed == {op for op in a.digests if "random_bounded" in op}
        else:  # every replay_io scenario draws its parameters from the seed
            assert changed == set(a.digests)


def test_flipped_capital_counts_as_failed_operation(tmp_path):
    workload, state, (failures, lines, traces) = play("coin_pool", 7, tmp_path)
    expect = Expectations({}, 7, 7)
    assert workload.check(state, (failures, lines, traces), expect).failed == 0
    trace = traces[0]
    record = trace.rounds[100]
    trace.rounds[100] = replace(record, capital_after=-record.capital_after)
    check = workload.check(state, (failures, lines, traces), expect)
    assert check.failed == 1
    assert "replay_verify rejects round 101" in check.problems[0]


def test_one_bit_capital_change_fails_the_digest(tmp_path):
    workload, state, (failures, lines, traces) = play("coin_pool", 7, tmp_path)
    expect = Expectations({}, 7, 7)
    workload.check(state, (failures, lines, traces), expect)
    record = traces[3].rounds[-1]
    traces[3].rounds[-1] = replace(record, capital_after=flip_low_bit(record.capital_after))
    check = workload.check(state, (failures, lines, traces), expect)
    assert check.failed == 1
    assert "trace digest" in check.problems[0]   # within replay tolerance


def test_nudged_price_counts_as_failed_operation(tmp_path):
    workload, state, result = play("price", 7, tmp_path)
    expect = Expectations({}, 7, 7)
    assert workload.check(state, result, expect).failed == 0
    upper, lower = result[1]
    result[1] = (upper + 1e-9, lower)
    check = workload.check(state, result, expect)
    assert check.failed == 1
    assert "upper price" in check.problems[0]


def test_price_inputs_keep_the_endpoints():
    for doc in workloads.price_specs(3):
        assert 0.0 in doc["p_script"] and 1.0 in doc["p_script"]


def test_price_oracle_matches_leaf_enumeration():
    rng = random.Random(0)
    for seed in range(5):
        for doc in workloads.price_specs(seed):
            n = 10
            doc["p_script"] = [rng.random() for _ in range(n)]
            event = doc["event"]
            if event["type"] == "threshold":
                event["value"] = min(event["value"], n)
            elif event["type"] == "coordinate":
                event["index"] = min(event["index"], n)
            else:
                event["bitmasks"] = sorted({m % (1 << n) for m in event["bitmasks"]})
            predicate = cli._event_from_spec(event, n)
            expected = analysis.upper_probability_coin(doc["p_script"], predicate)
            assert abs(workloads.price_oracle(doc) - expected) <= 1e-12


def test_recorded_digests_hold_for_replay_io(tmp_path):
    recorded, recorded_seed = run.load_recorded("replay_io")
    workload, state, result = play("replay_io", recorded_seed, tmp_path,
                                   workloads.HORIZON)
    check = workload.check(state, result,
                           Expectations(recorded, recorded_seed, recorded_seed))
    assert check.failed == 0, check.problems
    assert set(check.digests) == set(recorded)


def test_traced_counts_repeat_and_see_every_caller(tmp_path):
    workload, state, _ = play("coin_pool", 7, tmp_path)
    tracer = Tracer()
    tracer.install()
    counts = []
    try:
        for _ in range(2):
            tracer.reset()
            tracer.enabled = True
            result = workload.run(state)
            tracer.enabled = False
            counts.append({label: st.calls for label, st in tracer.stats.items()})
    finally:
        tracer.enabled = False
    rounds = sum(len(t.rounds) for t in result[2])
    assert counts[0] == counts[1]
    assert counts[0]["engine.validate"] == 6 * rounds
    # bc_comply_step (reality) calls it every round, the counter Skeptics too
    assert counts[0]["skeptic.ceiling_index_update"] > rounds
    assert counts[0]["reality.outcome"] == rounds


def test_speed_probe_subtracts_its_slices_and_restores_the_handler():
    old = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is old
    assert len(probe.slices) > 5
    uncut = probe.elapsed * REF_SLICE_S / statistics.median(probe.slices)
    assert 0 < probe.corrected() < uncut


def test_benchmark_json_matches_the_benchmark():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == UNITS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "price", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
