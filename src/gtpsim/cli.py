"""Command-line front end: run a scenario, verify a pool against its labels,
or price a finite-horizon coin event.

    gtpsim run scenario.yaml [--horizon N] [--seed S] [--out DIR]
    gtpsim verify manifest.yaml [--horizon N] [--seed S] [--out DIR]
    gtpsim price pricing.yaml

`verify` exits nonzero iff any scenario's verdict contradicts its labels.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

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
    _check_keys,
    as_float,
    as_integer,
    event_proxy_for,
    load_yaml,
    parse_scenario,
    run_scenario,
    scenario_passes,
)

if TYPE_CHECKING:
    import argparse


def _safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in name)


def _make_out_dir(out_dir: Path) -> None:
    """Create the output directory before any scenario is played, or raise
    a ScenarioError that starts with its path."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"{out_dir}: cannot create the output directory:"
                            f" {exc.strerror or exc}") from exc


def _write_outputs(out_dir: Path, trace: Trace, summary: dict) -> None:
    """Write the trace CSV and the summary JSON, named after the scenario,
    into the directory `_make_out_dir` made."""
    from .traceio import write_summary_json, write_trace_csv

    stem = _safe_name(summary["scenario"])
    write_trace_csv(trace, out_dir / f"{stem}.csv")
    write_summary_json(summary, out_dir / f"{stem}.json")


def cmd_run(scenario: Scenario,
            out_dir: Optional[Path] = None) -> Tuple[dict, List[str]]:
    """(The scenario's summary, its verdict's notes.)"""
    from .traceio import summary_dict

    if out_dir is not None:
        _make_out_dir(out_dir)
    trace = run_scenario(scenario)
    verdict = strong_compliance_verdict(trace, event_proxy_for(scenario))
    summary = summary_dict(scenario.name, trace, verdict)
    if out_dir is not None:
        _write_outputs(out_dir, trace, summary)
    return summary, verdict.notes


def load_manifest(path: Path) -> List[Scenario]:
    """A manifest is either a directory of scenario YAMLs, a YAML file with a
    `scenarios:` path list, or a YAML file naming a built-in `pool:` with an
    optional `horizon` and `seed`."""
    if path.is_dir():
        return [_parse_listed(p) for p in sorted(path.glob("*.yaml"))]
    doc = load_yaml(path) or {}
    if not isinstance(doc, dict):
        raise ScenarioError("manifest must be a mapping or a directory")
    if "pool" in doc:
        _check_keys(doc, ("pool", "horizon", "seed"), "pool manifest")
        pool = doc["pool"]
        if not isinstance(pool, str) or pool not in STOCK_POOLS:
            raise ScenarioError(f"unknown pool {pool!r}")
        return STOCK_POOLS[pool](**{key: as_integer(doc[key], f"manifest {key}")
                                    for key in ("horizon", "seed") if key in doc})
    _check_keys(doc, ("scenarios",), "scenario list manifest")
    paths = doc.get("scenarios", [])
    if not isinstance(paths, list) or not all(isinstance(p, str) for p in paths):
        raise ScenarioError(
            f"manifest scenarios must be a list of paths, got {paths!r}")
    return [_parse_listed(path.parent / p) for p in paths]


def _parse_listed(path: Path) -> Scenario:
    """`parse_scenario`, with an error that does not yet name the file
    raised again with its path in front."""
    try:
        return parse_scenario(path)
    except ValueError as exc:
        if str(exc).startswith(f"{path}: "):
            raise
        raise ScenarioError(f"{path}: {exc}") from exc


def cmd_verify(scenarios: List[Scenario],
               out_dir: Optional[Path] = None) -> Tuple[int, List[str]]:
    """Run every scenario and cross-check its verdict against its labels.
    Returns (number of failures, report lines).  With `out_dir`, two
    scenarios whose outputs would share a file name, or a directory that
    cannot be made, are a ScenarioError, raised before any is played."""
    from .traceio import summary_dict

    if out_dir is not None:
        stems: Dict[str, str] = {}
        for scenario in scenarios:
            stem = _safe_name(scenario.name)
            if stem in stems:
                raise ScenarioError(f"scenarios {stems[stem]!r} and {scenario.name!r}"
                                    f" would both write {out_dir / stem}.csv/.json")
            stems[stem] = scenario.name
        _make_out_dir(out_dir)
    lines = []
    failures = 0
    for scenario in scenarios:
        trace = run_scenario(scenario)
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
            + "".join(f"; {note}" for note in verdict.notes)
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


def _threshold(spec: dict, n: int) -> EventState:
    """The head count, compared with `value` by `op`."""
    op = spec.get("op", "ge")
    if op not in ("ge", "le", "eq"):
        raise ScenarioError(f"unknown threshold op {op!r}")
    compare = getattr(operator, op)
    value = _field(spec, "value", lambda raw: as_float(raw, "threshold value"))
    if not math.isfinite(value):
        raise ScenarioError(f"threshold value {value} is not finite")
    return 0, lambda s, k, bit: s + bit, lambda s: compare(s, value)


def _coordinate(spec: dict, n: int) -> EventState:
    """None until the chosen round, then the bit played in it."""
    index = _field(spec, "index", _integer)
    value = _field(spec, "value", _integer) if "value" in spec else 1
    if not 1 <= index <= n:
        raise ScenarioError(f"coordinate index {index} outside 1..{n}")
    if value not in (0, 1):
        raise ScenarioError(f"coordinate value {value} is not 0 or 1")
    at = index - 1
    return None, lambda s, k, bit: bit if k == at else s, lambda s: s == value


def _leaf_masks(spec: dict, n: int) -> Set[int]:
    """The listed leaves, first round in the top bit of an N-bit mask."""
    masks = _field(spec, "bitmasks", lambda raw: {_integer(m) for m in _as_list(raw)})
    for mask in masks:
        if not 0 <= mask < 1 << n:
            raise ScenarioError(f"leaves bitmask {mask} outside [0, 2^{n})")
    return masks


def _leaves(spec: dict, n: int) -> EventState:
    """The prefix with a leading 1 bit (so its length is part of it) while it
    starts a listed leaf, else the dead state 0."""
    leaves = {mask | 1 << n for mask in _leaf_masks(spec, n)}
    live = {leaf >> shift for shift in range(n) for leaf in leaves}

    def step(s, k, bit):
        t = (s << 1) | bit
        return t if t in live else 0
    return 1, step, leaves.__contains__


# Each event kind: the keys its spec may hold besides `type`, and a builder
# of its (start, step, accept) that checks them.
_EVENTS = {
    "threshold": (("op", "value"), _threshold),
    "coordinate": (("index", "value"), _coordinate),
    "leaves": (("bitmasks",), _leaves),
    "all": ((), lambda spec, n: (None, lambda s, k, bit: s, lambda s: True)),
    "empty": ((), lambda spec, n: (None, lambda s, k, bit: s, lambda s: False)),
}


def _event_state(spec, n: int) -> EventState:
    """The (start, step, accept) of the event a pricing file's `event` names."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"event must be a mapping with a type, got {spec!r}")
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _EVENTS:
        raise ScenarioError(f"unknown event type {kind!r}")
    keys, build = _EVENTS[kind]
    _check_keys(spec, ("type",) + keys, f"{kind} event")
    return build(spec, n)


def _event_from_spec(spec: dict, n: int) -> EventPredicate:
    """The predicate on N-bit tuples that a pricing file's `event` names:
    `accept` of the state that `step` reaches over the bits."""
    start, step, accept = _event_state(spec, n)

    def event(bits):
        s = start
        for k, bit in enumerate(bits):
            s = step(s, k, bit)
        return accept(s)
    return event


def cmd_price(path: Path) -> Tuple[float, float]:
    """Upper and lower price of a pricing file's event, from one
    (round, state) graph."""
    doc = load_yaml(path) or {}
    if not isinstance(doc, dict) or "p_script" not in doc or "event" not in doc:
        raise ScenarioError("pricing file needs p_script and event")
    _check_keys(doc, ("p_script", "event"), "pricing file")
    try:
        p_script = [as_float(p, "price") for p in _as_list(doc["p_script"])]
    except (TypeError, ScenarioError):
        raise ScenarioError(
            f"p_script must be a list of prices, got {doc['p_script']!r}") from None
    return coin_price_bounds(p_script, _event_state(doc["event"], len(p_script)))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    import argparse

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
        if args.command == "price":
            upper, lower = cmd_price(args.file)
            print(f"upper: {upper:.12f}")
            print(f"lower: {lower:.12f}")
            return 0
        loaded = (load_manifest(args.file) if args.command == "verify"
                  else [parse_scenario(args.file)])
        overrides = {key: getattr(args, key) for key in ("horizon", "seed")
                     if getattr(args, key) is not None}
        scenarios = [replace(scenario, **overrides) for scenario in loaded]
        if args.command == "run":
            summary, notes = cmd_run(scenarios[0], out_dir=args.out)
            for key, value in summary.items():
                print(f"{key}: {value}")
            for note in notes:
                print(f"note: {note}")
            return 0
        failures, lines = cmd_verify(scenarios, out_dir=args.out)
        print("\n".join(lines))
        return 1 if failures else 0
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
