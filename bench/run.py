#!/usr/bin/env python3
"""gtpsim benchmark: one workload per run, one process, one thread, a closed
loop with one caller.

    python3 bench/run.py --workload coin_pool --seed 7 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, wall_s, us_per_round,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones from a traced
run.  ``--record-digests`` rewrites bench/digests.json from the current
program.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import SpeedProbe

# The program uses numpy for element-wise arithmetic only.  OpenBLAS would
# still start a pool of worker threads on import, and how fast those start
# depends on what else the host runs, which made set-up times differ by half
# between runs of the same code.  Set before gtpsim is imported, here and in
# the set-up probes, which inherit the environment.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MAX_PROBLEMS = 20         # problems kept for the report; all are counted
WORKLOAD_NAMES = ("coin_pool", "mv_pool", "price", "replay_io")
END_TO_END_UNITS = {"wall_s": "s", "us_per_round": "us/round", "peak_rss_mb": "MB",
                    "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import and set-up once, print it, exit")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite bench/digests.json for the default seed")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


def workdir_for(workload: str) -> Path:
    return ROOT / ".bench_work" / f"{workload}-{os.getpid()}"


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()      # only once no other run is using it
    except OSError:
        pass


def setup_probe(workload: str, seed: int) -> int:
    """Runs in a fresh process: import gtpsim, build the inputs, print the
    host-speed-corrected time."""
    workdir = workdir_for(workload)
    try:
        with SpeedProbe() as probe:
            import workloads

            workloads.WORKLOADS[workload].setup(seed, workdir)
    finally:
        remove_workdir(workdir)
    print(json.dumps({"setup_s": probe.corrected()}))
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, after one unmeasured probe
    that leaves the bytecode caches warm."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        if i:
            times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def load_recorded(workload: str):
    doc = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return doc["workloads"].get(workload, {}).get("scenarios", {}), doc["seed"]


class Runner:
    """Timed passes of one workload, each followed by its untimed checks."""

    def __init__(self, workload, state, expect, tracer=None):
        self.workload = workload
        self.state = state
        self.expect = expect
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self):
        """Run and check one pass; return (host-speed-corrected seconds of
        the run, PassCheck), or None when the pass or its checks raised,
        which fails every operation of the pass.  Each pass starts from a
        collected heap.  With a tracer, spans are recorded during the run and
        not during the checks."""
        gc.collect()
        if self.tracer:
            self.tracer.reset()
            self.tracer.enabled = True
        try:
            with SpeedProbe() as probe:
                result = self.workload.run(self.state)
            if self.tracer:
                self.tracer.enabled = False
            check = self.workload.check(self.state, result, self.expect)
        except Exception as exc:  # a failing program is reported, not fatal
            n = self.workload.op_count(self.state)
            self.attempted += n
            self.failed += n
            self.report([f"pass raised {type(exc).__name__}: {exc}"])
            return None
        finally:
            if self.tracer:
                self.tracer.enabled = False
        self.attempted += check.attempted
        self.failed += check.failed
        self.report(check.problems)
        return probe.corrected(), check

    def report(self, problems):
        self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])

    def passes(self, seconds, each=None):
        """Checked passes until `seconds` have gone by (at least one run);
        `each` is called with the PassCheck of every pass."""
        out = []
        start = time.perf_counter()
        while True:
            done = self.one_pass()
            if done is not None:
                out.append(done)
                if each:
                    each(done[1])
            if time.perf_counter() - start >= seconds:
                return out


def wall_seconds(passes) -> float:
    """Median over the passes of their host-speed-corrected run time."""
    if not passes:
        return float("nan")
    return statistics.median(seconds for seconds, _ in passes)


def rounds_per_pass(passes) -> float:
    return statistics.median(check.rounds for _, check in passes) if passes else 0


def trace_bytes_per_round(workload, state) -> float:
    """Bytes a returned trace keeps alive per round, by tracemalloc, over the
    first scenario of each protocol kind (a full pass under tracemalloc is
    several times slower)."""
    import gc
    import tracemalloc

    from gtpsim import scenario

    samples = {}
    for s in workload.scenarios(state):
        samples.setdefault(s.protocol.kind, s)
    total_bytes = total_rounds = 0
    for s in samples.values():
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = scenario.run_scenario(s)
            total_bytes += tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        total_rounds += len(trace.rounds)
        del trace
    return total_bytes / total_rounds if total_rounds else 0.0


def metric(value, unit):
    """A metric for the result line; None when no pass completed."""
    return {"value": None if value != value else value, "unit": unit}


def end_to_end(runner, seconds, workload, seed):
    passes = runner.passes(seconds)
    wall = wall_seconds(passes)
    rounds = rounds_per_pass(passes)
    values = {
        "wall_s": wall,
        "us_per_round": wall * 1e6 / rounds if rounds else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": measure_setup(workload, seed),
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(runner, seconds):
    """Half the time untraced, half traced; medians of per-pass layer metrics."""
    from tracer import UNITS, Tracer, layer_metrics

    plain = runner.passes(seconds / 2)
    runner.tracer = tracer = Tracer()
    tracer.install()
    games = runner.workload.games
    per_pass = []

    def collect(check):
        per_pass.append(layer_metrics(
            tracer, check.rounds if games else 0, check.requested, check.csv_bytes))

    traced = runner.passes(seconds / 2, each=collect)
    runner.tracer = None
    values = ({name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
              if per_pass else {})
    values["engine.trace_bytes_per_round"] = (
        trace_bytes_per_round(runner.workload, runner.state) if games else 0.0)
    values["trace_overhead_share"] = wall_seconds(traced) / wall_seconds(plain) - 1.0
    return {name: metric(values.get(name, float("nan")), unit)
            for name, unit in UNITS.items()}


def record_digests() -> int:
    """Digests of every trace at the default seed; a scenario is marked
    seeded when its trace differs at the next seed."""
    import workloads

    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        if not workload.games:
            continue
        digests = []
        for seed in (workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + 1):
            workdir = workdir_for(name)
            try:
                state = workload.setup(seed, workdir)
                result, _ = workload.run(state)
                check = workload.check(state, result,
                                       workloads.Expectations({}, seed, seed))
            finally:
                remove_workdir(workdir)
            if check.failed:
                print("\n".join(check.problems), file=sys.stderr)
                return 1
            digests.append(check.digests)
        scenarios = {op: {"sha256": d, "seeded": digests[1].get(op) != d}
                     for op, d in digests[0].items()}
        combined = "".join(d for _, d in sorted(digests[0].items()))
        doc["workloads"][name] = {
            "sha256": hashlib.sha256(combined.encode("ascii")).hexdigest(),
            "scenarios": scenarios,
        }
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gtpsim" / "__init__.py").is_file():
        print(f"error: no gtpsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.record_digests:
        return record_digests()

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = workdir_for(args.workload)
    try:
        recorded, recorded_seed = load_recorded(args.workload)
        state = workload.setup(args.seed, workdir)
        runner = Runner(workload, state,
                        workloads.Expectations(recorded, recorded_seed, args.seed))
        if args.trace:
            metrics = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds, args.workload, args.seed)
    finally:
        remove_workdir(workdir)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
