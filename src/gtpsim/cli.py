"""Command-line front end: run a scenario, verify a pool against its labels,
or price a finite-horizon coin event.

    gtpsim run scenario.yaml [--horizon N] [--seed S] [--out DIR]
    gtpsim verify manifest.yaml [--horizon N] [--seed S] [--out DIR]
    gtpsim price pricing.yaml

`verify` exits nonzero iff any scenario's verdict contradicts its labels.
"""

from __future__ import annotations

import argparse
import math
import operator
import sys
from pathlib import Path
from typing import List, Optional, Set, Tuple

from .analysis import (
    EventPredicate,
    EventState,
    coin_price_bounds,
    strong_compliance_verdict,
)
from .engine import Trace
from .scenario import (
    STOCK_POOLS,
    Scenario,
    ScenarioError,
    as_integer,
    event_proxy_for,
    load_yaml,
    parse_scenario_file,
    run_scenario,
    scenario_passes,
)
from .traceio import summary_dict, write_summary_json, write_trace_csv


def _safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)


def _write_outputs(out_dir: Path, trace: Trace, summary: dict) -> None:
    """Write the trace CSV and the summary JSON, named after the scenario."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _safe_name(summary["scenario"])
    write_trace_csv(trace, out_dir / f"{stem}.csv")
    write_summary_json(summary, out_dir / f"{stem}.json")


def cmd_run(scenario: Scenario, horizon: Optional[int] = None,
            seed: Optional[int] = None, out_dir: Optional[Path] = None) -> dict:
    trace = run_scenario(scenario, horizon=horizon, seed=seed)
    verdict = strong_compliance_verdict(trace, event_proxy_for(scenario))
    summary = summary_dict(scenario.name, trace, verdict)
    if out_dir is not None:
        _write_outputs(out_dir, trace, summary)
    return summary


def load_manifest(path: Path, horizon: Optional[int] = None,
                  seed: Optional[int] = None) -> List[Scenario]:
    """A manifest is either a directory of scenario YAMLs, a YAML file with a
    `scenarios:` path list, or a YAML file naming a built-in `pool:`."""
    if path.is_dir():
        return [parse_scenario_file(p) for p in sorted(path.glob("*.yaml"))]
    doc = load_yaml(path) or {}
    if not isinstance(doc, dict):
        raise ScenarioError("manifest must be a mapping or a directory")
    if "pool" in doc:
        pool = doc["pool"]
        if pool not in STOCK_POOLS:
            raise ScenarioError(f"unknown pool {pool!r}")
        kwargs = {}
        if horizon is not None:
            kwargs["horizon"] = horizon
        elif "horizon" in doc:
            kwargs["horizon"] = as_integer(doc["horizon"], "manifest horizon")
        if seed is not None:
            kwargs["seed"] = seed
        elif "seed" in doc:
            kwargs["seed"] = as_integer(doc["seed"], "manifest seed")
        return STOCK_POOLS[pool](**kwargs)
    paths = doc.get("scenarios", [])
    return [parse_scenario_file(path.parent / p) for p in paths]


def cmd_verify(scenarios: List[Scenario], horizon: Optional[int] = None,
               seed: Optional[int] = None,
               out_dir: Optional[Path] = None) -> Tuple[int, List[str]]:
    """Run every scenario and cross-check its verdict against its labels.
    Returns (number of failures, report lines)."""
    lines = []
    failures = 0
    for scenario in scenarios:
        trace = run_scenario(scenario, horizon=horizon, seed=seed)
        verdict = strong_compliance_verdict(trace, event_proxy_for(scenario))
        ok = scenario_passes(scenario, verdict)
        if not ok:
            failures += 1
        status = "pass" if ok else "FAIL"
        duty = "" if verdict.skeptic_duty_ok else " [skeptic fault]"
        lines.append(
            f"{status}  {scenario.name}  sup={verdict.sup_capital:.6g}"
            f" bound={'ok' if verdict.strong_bound_ok else 'VIOLATED'}"
            f" proxy={verdict.event_proxy_ok}{duty}"
        )
        if out_dir is not None:
            _write_outputs(out_dir, trace, summary_dict(scenario.name, trace, verdict))
    lines.append(f"{len(scenarios) - failures}/{len(scenarios)} scenarios passed")
    return failures, lines


# ---------------------------------------------------------------------------
# Pricing
# ---------------------------------------------------------------------------

def _field(spec: dict, key: str, convert):
    """spec[key] through `convert`, or a ScenarioError naming the field."""
    kind = spec["type"]
    if key not in spec:
        raise ScenarioError(f"{kind} event needs {key}")
    try:
        return convert(spec[key])
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{kind} event {key} {spec[key]!r} is not valid") from None


def _integer(raw) -> int:
    return as_integer(raw, "pricing field")


def _as_list(raw) -> list:
    if not isinstance(raw, list):
        raise TypeError(f"{raw!r} is not a list")
    return raw


def _coordinate(spec: dict, n: int) -> Tuple[int, int]:
    """The 1-based index and the required bit of a coordinate event."""
    index = _field(spec, "index", _integer)
    value = _field(spec, "value", _integer) if "value" in spec else 1
    if not 1 <= index <= n:
        raise ScenarioError(f"coordinate index {index} outside 1..{n}")
    if value not in (0, 1):
        raise ScenarioError(f"coordinate value {value} is not 0 or 1")
    return index, value


def _leaf_masks(spec: dict, n: int) -> Set[int]:
    """The listed leaves, first round in the top bit of an N-bit mask."""
    masks = _field(spec, "bitmasks", lambda raw: {_integer(m) for m in _as_list(raw)})
    for mask in masks:
        if not 0 <= mask < 1 << n:
            raise ScenarioError(f"leaves bitmask {mask} outside [0, 2^{n})")
    return masks


def _event_from_spec(spec: dict, n: int) -> EventPredicate:
    """The predicate on N-bit tuples that a pricing file's `event` names."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"event must be a mapping with a type, got {spec!r}")
    kind = spec.get("type")
    if kind == "threshold":
        op = spec.get("op", "ge")
        if op not in ("ge", "le", "eq"):
            raise ScenarioError(f"unknown threshold op {op!r}")
        compare = getattr(operator, op)
        value = _field(spec, "value", float)
        if not math.isfinite(value):
            raise ScenarioError(f"threshold value {value} is not finite")
        return lambda bits: compare(sum(bits), value)
    if kind == "coordinate":
        index, value = _coordinate(spec, n)
        return lambda bits: bits[index - 1] == value
    if kind == "leaves":
        masks = _leaf_masks(spec, n)

        def event(bits):
            mask = 0
            for b in bits:
                mask = (mask << 1) | b
            return mask in masks
        return event
    if kind == "all":
        return lambda bits: True
    if kind == "empty":
        return lambda bits: False
    raise ScenarioError(f"unknown event type {kind!r}")


def _leaves_state(spec: dict, n: int) -> EventState:
    # The prefix with a leading 1 bit (so its length is part of it) while it
    # starts a listed leaf, else the dead state 0.
    leaves = [int(mask) | 1 << n for mask in spec["bitmasks"]]
    live = {leaf >> shift for shift in range(n) for leaf in leaves}

    def step(s, k, bit):
        t = (s << 1) | bit
        return t if t in live else 0
    return 1, step


def _coordinate_state(spec: dict, n: int) -> EventState:
    # None until the chosen round, then the bit played in it.
    at = int(spec["index"]) - 1
    return None, lambda s, k, bit: bit if k == at else s


def _constant_state(spec: dict, n: int) -> EventState:
    return None, lambda s, k, bit: None


# A sufficient state per event kind, for a spec `_event_from_spec` accepted
# (it reads the checked fields without checking them again): the head count,
# the chosen bit once played, the trie of listed leaves, or one constant
# state.
_EVENT_STATES = {
    "threshold": lambda spec, n: (0, lambda s, k, bit: s + bit),
    "coordinate": _coordinate_state,
    "leaves": _leaves_state,
    "all": _constant_state,
    "empty": _constant_state,
}


def cmd_price(path: Path) -> Tuple[float, float]:
    """Upper and lower price of a pricing file's event, from one
    (round, state) graph."""
    doc = load_yaml(path) or {}
    if not isinstance(doc, dict) or "p_script" not in doc or "event" not in doc:
        raise ScenarioError("pricing file needs p_script and event")
    try:
        p_script = [float(p) for p in _as_list(doc["p_script"])]
    except (TypeError, ValueError):
        raise ScenarioError(
            f"p_script must be a list of prices, got {doc['p_script']!r}") from None
    spec, n = doc["event"], len(p_script)
    event = _event_from_spec(spec, n)
    return coin_price_bounds(p_script, event, _EVENT_STATES[spec["type"]](spec, n))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtpsim",
        description="Betting-game strategy runner and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("file", type=Path)
    p_verify = sub.add_parser("verify", help="verify a manifest of scenarios")
    p_verify.add_argument("file", type=Path)
    for p in (p_run, p_verify):
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)

    p_price = sub.add_parser("price", help="price a finite-horizon coin event")
    p_price.add_argument("file", type=Path)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            scenario = parse_scenario_file(args.file)
            summary = cmd_run(scenario, horizon=args.horizon, seed=args.seed,
                              out_dir=args.out)
            for key, value in summary.items():
                print(f"{key}: {value}")
            return 0
        if args.command == "verify":
            scenarios = load_manifest(args.file, horizon=args.horizon,
                                      seed=args.seed)
            failures, lines = cmd_verify(scenarios, horizon=args.horizon,
                                         seed=args.seed, out_dir=args.out)
            print("\n".join(lines))
            return 1 if failures else 0
        if args.command == "price":
            upper, lower = cmd_price(args.file)
            print(f"upper: {upper:.12f}")
            print(f"lower: {lower:.12f}")
            return 0
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
