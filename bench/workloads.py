"""The four benchmark workloads: inputs from a seed, one timed pass, and the
checks that decide whether each operation of a pass was correct.

An operation is one scenario (game workloads) or one `cmd_price` call
(`price`).  It fails on an exception, on a verdict that contradicts the
scenario's labels, on a trace that `replay_verify` rejects, on a trace digest
that differs from the recorded one, or on a price off its oracle by more
than 1e-12.

Importing this module imports gtpsim, so the benchmark's set-up probe times
the import together with input construction.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from gtpsim import cli, engine, scenario, traceio

HORIZON = 10_000
DEFAULT_SEED = 7          # the stock pools' own seed; digests are recorded for it
PRICE_TOL = 1e-12
SMALL_BET = 1e-4          # random_bounded bound that lets a losing Skeptic last the horizon
PRICE_EVENTS = (("threshold", 18), ("coordinate", 18), ("leaves", 18))
LEAF_MASKS = 256


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def trace_digest(csv_text: str) -> str:
    """SHA-256 of the (x, K) columns of a trace CSV as IEEE-754 doubles.

    The CSV prints 17 significant digits, so parsing the columns recovers the
    exact bits; hashing the bits rather than the text keeps the digest
    independent of number formatting.
    """
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    ix, ik = header.index("x"), header.index("K")
    h = hashlib.sha256()
    for line in lines[1:]:
        if line:
            cols = line.split(",")
            h.update(struct.pack(">dd", float(cols[ix]), float(cols[ik])))
    return h.hexdigest()


def check_trace(trace: engine.Trace, csv_text: str,
                expected: Optional[str]) -> tuple[List[str], str]:
    """Problems found in one trace, and its digest."""
    problems = []
    bad_round = engine.replay_verify(trace)
    if bad_round is not None:
        problems.append(f"replay_verify rejects round {bad_round}")
    digest = trace_digest(csv_text)
    if expected is not None and digest != expected:
        problems.append(f"trace digest {digest[:12]} != expected {expected[:12]}")
    return problems, digest


def check_price(upper: float, lower: float, oracle: float) -> List[str]:
    problems = []
    for label, value in (("upper", upper), ("lower", lower)):
        if not abs(value - oracle) <= PRICE_TOL:
            problems.append(f"{label} price {value!r} off oracle {oracle!r}")
    return problems


def label_ok(line: str, name: str) -> bool:
    """True when a `cmd_verify` report line says the scenario passed."""
    words = line.split()
    return len(words) >= 2 and words[0] == "pass" and words[1] == name


@dataclass
class PassCheck:
    """What the checks found in one pass."""

    attempted: int
    failed: int = 0
    rounds: int = 0           # rounds played (price: rounds of the priced scripts)
    requested: int = 0        # rounds requested by the scenarios' horizons
    csv_bytes: int = 0        # trace CSV bytes the workload wrote
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def fail(self, op: str, problems: List[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{op}: {p}" for p in problems)


class Expectations:
    """Digests each trace must reproduce: the recorded digest when it
    applies to this seed, and the first pass's digest on every later pass."""

    def __init__(self, recorded: Dict[str, Dict], recorded_seed: int, seed: int):
        self.recorded = recorded
        self.recorded_seed = recorded_seed
        self.seed = seed
        self.first_pass: Dict[str, str] = {}

    def digest_for(self, op: str) -> Optional[str]:
        if op in self.first_pass:
            return self.first_pass[op]
        entry = self.recorded.get(op)
        if entry is None:
            return None
        if self.seed == self.recorded_seed or not entry["seeded"]:
            return entry["sha256"]
        return None

    def remember(self, digests: Dict[str, str]) -> None:
        for op, digest in digests.items():
            self.first_pass.setdefault(op, digest)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    games = True

    def setup(self, seed: int, workdir: Path, horizon: int = HORIZON):
        """Build the program's inputs.  Timed, in a fresh process, as setup_s."""
        raise NotImplementedError

    def run(self, state):
        """One timed pass over every operation; returns its result."""
        raise NotImplementedError

    def check(self, state, result, expect: Expectations) -> PassCheck:
        raise NotImplementedError

    def scenarios(self, state) -> List[scenario.Scenario]:
        return []

    def op_count(self, state) -> int:
        return len(self.scenarios(state))


def _check_verified(scenarios, failures, lines, traces, csv_texts,
                    expect: Expectations, extra=None) -> PassCheck:
    """Shared checks for a `cmd_verify` pass: labels, replay and digests,
    plus any problems the workload found itself (`extra`, by scenario)."""
    out = PassCheck(attempted=len(scenarios))
    out.requested = sum(s.horizon for s in scenarios)
    if len(traces) != len(scenarios) or len(lines) != len(scenarios) + 1:
        out.problems.append(f"{len(traces)} traces and {len(lines)} report lines"
                            f" for {len(scenarios)} scenarios")
        out.failed = out.attempted
        return out
    if failures != sum(not label_ok(line, s.name) for s, line in zip(scenarios, lines)):
        out.problems.append(f"cmd_verify counted {failures} failures")
    for s, line, trace, text in zip(scenarios, lines, traces, csv_texts):
        out.rounds += len(trace.rounds)
        problems = [] if label_ok(line, s.name) else [f"verdict contradicts labels: {line}"]
        more, digest = check_trace(trace, text, expect.digest_for(s.name))
        problems += more + (extra or {}).get(s.name, [])
        out.digests[s.name] = digest
        if problems:
            out.fail(s.name, problems)
    expect.remember(out.digests)
    return out


def verify_keeping_traces(scenarios, out_dir=None):
    """`cli.cmd_verify`, which returns only report lines, with `cli.run_scenario`
    rebound for the call to keep each trace."""
    traces = []
    play = cli.run_scenario

    def keep(*args, **kwargs):
        trace = play(*args, **kwargs)
        traces.append(trace)
        return trace

    cli.run_scenario = keep
    try:
        failures, lines = cli.cmd_verify(scenarios, out_dir=out_dir)
    finally:
        cli.run_scenario = play
    return failures, lines, traces


class PoolWorkload(Workload):
    """Stock pools through `cli.cmd_verify`, with no output files."""

    def __init__(self, name: str, pools: tuple):
        self.name = name
        self.pools = pools

    def setup(self, seed, workdir, horizon=HORIZON):
        pool = []
        for key in self.pools:
            pool += scenario.STOCK_POOLS[key](horizon=horizon, seed=seed)
        return pool

    def scenarios(self, state):
        return state

    def run(self, state):
        return verify_keeping_traces(state)

    def check(self, state, result, expect):
        failures, lines, traces = result
        texts = (traceio.trace_to_csv_text(t) for t in traces)   # one at a time
        return _check_verified(state, failures, lines, traces, texts, expect)


# The four example scenario kinds of scenarios/examples_manifest.yaml, with
# parameters drawn from the seed.  The random_bounded Skeptics bet at most
# SMALL_BET so that every run lasts the horizon and the bounded protocol,
# trace output and replay carry weight.
_REPLAY_KINDS = {
    "coin_comply": """\
name: coin_comply
protocol: {{kind: coin_tossing}}
horizon: {horizon}
forecaster: {{name: harmonic, a: {a!r}}}
skeptic: {{name: bc_fictional}}
reality: {{name: bc_comply}}
labels: {{series_divergent: true, expected_event: strong_comply}}
""",
    "coin_broken_reality": """\
name: coin_broken_reality
protocol: {{kind: coin_tossing}}
horizon: {horizon}
forecaster: {{name: harmonic, a: {b!r}}}
skeptic: {{name: bc_fictional}}
reality: {{name: constant, x: 1.0}}
labels: {{series_divergent: true, expected_event: violation}}
""",
    "first_round": """\
name: first_round
protocol: {{kind: coin_tossing}}
horizon: {horizon}
forecaster: {{name: constant, value: {p!r}}}
skeptic: {{name: random_bounded, bound: {bound!r}}}
reality: {{name: first_round}}
seed: {seed}
labels: {{expected_event: first_round}}
""",
    "avoid_match": """\
name: avoid_match
protocol: {{kind: bounded_forecasting, initial_capital: 0.5}}
horizon: {horizon}
forecaster: {{name: explicit, values: {values!r}}}
skeptic: {{name: random_bounded, bound: {bound!r}}}
reality: {{name: avoid_match, q: 0.9}}
seed: {seed}
labels: {{expected_event: avoid_match}}
""",
}


def replay_scenario_texts(seed: int, horizon: int = HORIZON) -> Dict[str, str]:
    rng = random.Random(seed)
    values = [0.0, 1.0, rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)]
    rng.shuffle(values)
    params = dict(
        horizon=horizon, seed=seed, bound=SMALL_BET,
        a=rng.uniform(0.5, 2.0), b=rng.uniform(0.5, 2.0),
        p=rng.uniform(0.05, 0.95), values=values,
    )
    return {name: text.format(**params) for name, text in _REPLAY_KINDS.items()}


@dataclass
class ReplayState:
    manifest: Path
    out_dir: Path
    parsed: List[scenario.Scenario]


class ReplayWorkload(Workload):
    """`gtpsim verify manifest --out DIR`, then every CSV read back and replayed."""

    name = "replay_io"

    def setup(self, seed, workdir, horizon=HORIZON):
        src = workdir / "scenarios"
        src.mkdir(parents=True, exist_ok=True)
        texts = replay_scenario_texts(seed, horizon)
        for name, text in texts.items():
            (src / f"{name}.yaml").write_text(text, encoding="utf-8")
        manifest = src / "manifest.yaml"
        manifest.write_text(
            "scenarios:\n" + "".join(f"  - {name}.yaml\n" for name in texts),
            encoding="utf-8",
        )
        parsed = cli.load_manifest(manifest)
        return ReplayState(manifest=manifest, out_dir=workdir / "out", parsed=parsed)

    def scenarios(self, state):
        return state.parsed

    def run(self, state):
        scenarios = cli.load_manifest(state.manifest)
        failures, lines, _ = verify_keeping_traces(scenarios, state.out_dir)
        traces, replays = [], []
        for s in scenarios:
            trace = traceio.read_trace_csv(state.out_dir / f"{s.name}.csv",
                                           s.protocol, s.seed)
            traces.append(trace)
            replays.append(engine.replay_verify(trace))
        return scenarios, failures, lines, traces, replays

    def check(self, state, result, expect):
        scenarios, failures, lines, traces, replays = result
        texts, extra = [], {}
        for s, replay in zip(scenarios, replays):
            texts.append((state.out_dir / f"{s.name}.csv").read_text(encoding="utf-8"))
            problems = extra.setdefault(s.name, [])
            if replay is not None:
                problems.append(f"workload replay rejects round {replay}")
            summary = json.loads(
                (state.out_dir / f"{s.name}.json").read_text(encoding="utf-8"))
            if summary.get("scenario") != s.name:
                problems.append(f"summary names {summary.get('scenario')!r}")
        out = _check_verified(scenarios, failures, lines, traces, texts, expect, extra)
        out.csv_bytes = sum(len(t.encode("utf-8")) for t in texts)
        return out


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------

def price_specs(seed: int) -> List[Dict]:
    """One pricing document per event kind, each with a random price script
    that contains the endpoint prices 0 and 1."""
    rng = random.Random(seed)
    docs = []
    for kind, n in PRICE_EVENTS:
        script = [rng.random() for _ in range(n)]
        zero, one = rng.sample(range(n), 2)
        script[zero], script[one] = 0.0, 1.0
        if kind == "threshold":
            event = {"type": "threshold", "op": "ge",
                     "value": rng.randint(n // 4, 3 * n // 4)}
        elif kind == "coordinate":
            event = {"type": "coordinate", "index": rng.randint(1, n),
                     "value": rng.randint(0, 1)}
        else:
            event = {"type": "leaves",
                     "bitmasks": sorted(rng.sample(range(1 << n), LEAF_MASKS))}
        docs.append({"name": kind, "p_script": script, "event": event})
    return docs


def price_oracle(doc: Dict) -> float:
    """Price of the event under the price script, in floating point without
    tree enumeration.  In the two-point one-instrument market upper and
    lower prices both equal the product-measure probability."""
    p = doc["p_script"]
    event = doc["event"]
    if event["type"] == "threshold":
        dist = [1.0]                      # Poisson-binomial head-count law
        for q in p:
            nxt = [0.0] * (len(dist) + 1)
            for k, mass in enumerate(dist):
                nxt[k] += mass * (1.0 - q)
                nxt[k + 1] += mass * q
            dist = nxt
        return sum(dist[k] for k in range(len(dist)) if k >= event["value"])
    if event["type"] == "coordinate":
        q = p[event["index"] - 1]
        return q if event["value"] == 1 else 1.0 - q
    total = 0.0
    n = len(p)
    for mask in event["bitmasks"]:        # first round is the mask's top bit
        prob = 1.0
        for i, q in enumerate(p):
            prob *= q if (mask >> (n - 1 - i)) & 1 else 1.0 - q
        total += prob
    return total


@dataclass
class PriceState:
    paths: List[Path]
    docs: List[Dict]


class PriceWorkload(Workload):
    """`gtpsim price` on three pricing files; analysis only, no engine."""

    name = "price"
    games = False

    def setup(self, seed, workdir, horizon=HORIZON):
        workdir.mkdir(parents=True, exist_ok=True)
        docs = price_specs(seed)
        paths = []
        for doc in docs:
            path = workdir / f"price_{doc['name']}.yaml"
            path.write_text(json.dumps({k: doc[k] for k in ("p_script", "event")}),
                            encoding="utf-8")
            paths.append(path)
        return PriceState(paths=paths, docs=docs)

    def op_count(self, state):
        return len(state.docs)

    def run(self, state):
        return [cli.cmd_price(path) for path in state.paths]

    def check(self, state, result, expect):
        out = PassCheck(attempted=len(state.docs))
        for doc, (upper, lower) in zip(state.docs, result):
            out.rounds += 2 * len(doc["p_script"])
            problems = check_price(upper, lower, price_oracle(doc))
            if problems:
                out.fail(doc["name"], problems)
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        PoolWorkload("coin_pool", ("coin_comply",)),
        PoolWorkload("mv_pool", ("ufg", "ufgh")),
        PriceWorkload(),
        ReplayWorkload(),
    )
}
