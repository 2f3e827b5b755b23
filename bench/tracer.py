"""Layer timing for the traced run, installed from outside the package.

`Tracer.install()` wraps gtpsim's public functions and the policy methods
(`forecast`, `bet`, `outcome`, `observe`) of every concrete policy class.
Each wrapper records, under a layer label such as ``engine.validate``, the
number of calls, the total time of outermost calls and the self time (the
span minus the spans of wrapped calls made inside it).  Spans are aggregated
in memory, not stored one by one.

A function imported by name into several modules is rebound in every module
that holds it (``ceiling_index_update`` lives in `skeptic`, `reality` and
`scenario`; `run_game` reaches ``validate_*`` and ``capital_update`` as
`engine` globals), so no call path bypasses its wrapper.  Wrappers forward
without recording while ``enabled`` is false.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


# (module, function name, layer label)
FUNCTIONS = (
    ("engine", "run_game", "engine.run_game"),
    ("engine", "capital_update", "engine.capital_update"),
    ("engine", "replay_verify", "engine.replay_verify"),
    ("engine", "validate_forecast", "engine.validate"),
    ("engine", "validate_bet", "engine.validate"),
    ("engine", "validate_outcome", "engine.validate"),
    ("skeptic", "ceiling_index_update", "skeptic.ceiling_index_update"),
    ("hedges", "hedge_inverse", "hedges.hedge_inverse"),
    ("analysis", "strong_compliance_verdict", "analysis.strong_compliance_verdict"),
    ("analysis", "epsilon_sequence_step", "analysis.epsilon_sequence_step"),
    ("analysis", "upper_probability_coin", "analysis.upper_probability_coin"),
    ("scenario", "build_forecaster", "scenario.build"),
    ("scenario", "build_skeptic", "scenario.build"),
    ("scenario", "build_reality", "scenario.build"),
    ("scenario", "parse_scenario", "scenario.parse"),
    ("traceio", "trace_to_csv_text", "traceio.trace_to_csv_text"),
    ("traceio", "trace_from_csv_text", "traceio.trace_from_csv_text"),
    ("traceio", "summary_dict", "traceio.summary_dict"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
    ("cli", "cmd_price", "cli.cmd_price"),
)
POLICY_METHODS = ("forecast", "bet", "outcome", "observe")


def _package_modules() -> List:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gtpsim" or name.startswith("gtpsim."))]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats: Dict[str, SpanStats] = {}
        self.event_calls = 0          # price-event predicate evaluations
        self._open: List[List[float]] = []   # child time of each open span

    def reset(self) -> None:
        for st in self.stats.values():
            st.calls, st.total, st.self_time = 0, 0.0, 0.0
        self.event_calls = 0

    def get(self, label: str) -> SpanStats:
        return self.stats.setdefault(label, SpanStats())

    def wrap(self, label: str, fn: Callable) -> Callable:
        st = self.get(label)
        open_spans = self._open
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            children = [0.0]
            open_spans.append(children)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                open_spans.pop()
                st.depth -= 1
                st.calls += 1
                st.self_time += dt - children[0]
                if not st.depth:
                    st.total += dt
                if open_spans:
                    open_spans[-1][0] += dt

        wrapper.bench_original = fn
        return wrapper

    def patch_function(self, module, name: str, label: str) -> None:
        """Wrap module.name and rebind it wherever the package holds it."""
        fn = getattr(module, name, None)
        if fn is None or hasattr(fn, "bench_original"):
            return
        wrapper = self.wrap(label, fn)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def patch_policies(self) -> None:
        """Give every concrete policy class its own wrapper per method,
        labelled by the module that defines the class.  Forecasters are the
        scenario module's price scripts behind `engine.ScriptForecaster`, so
        `forecast` is labelled ``scenario.forecast``."""
        from gtpsim import engine

        bases = (engine.Policy, engine.Forecaster, engine.Skeptic, engine.Reality)
        classes = []
        for mod in _package_modules():
            for value in vars(mod).values():
                if (isinstance(value, type) and issubclass(value, engine.Policy)
                        and value not in bases and value.__module__ == mod.__name__):
                    classes.append(value)
        for cls in classes:
            layer = cls.__module__.rpartition(".")[2]
            for name in POLICY_METHODS:
                fn = getattr(cls, name, None)
                if fn is None:
                    continue
                fn = getattr(fn, "bench_original", fn)
                label = "scenario.forecast" if name == "forecast" else f"{layer}.{name}"
                setattr(cls, name, self.wrap(label, fn))

    def patch_events(self) -> None:
        """Count evaluations of the event predicates the CLI builds for pricing."""
        from gtpsim import cli

        make = cli._event_from_spec
        tracer = self

        def event_from_spec(spec, n):
            event = make(spec, n)

            def counted(bits):
                if tracer.enabled:
                    tracer.event_calls += 1
                return event(bits)

            return counted

        cli._event_from_spec = event_from_spec

    def install(self) -> None:
        import importlib

        from gtpsim import randomized

        for module, name, label in FUNCTIONS:
            self.patch_function(importlib.import_module(f"gtpsim.{module}"), name, label)
        scenario = importlib.import_module("gtpsim.scenario")
        for name in [n for n in vars(scenario) if n.startswith("proxy_")]:
            self.patch_function(scenario, name, "scenario.event_proxy")
        randomized.RandomStream.uniform = self.wrap(
            "randomized.uniform", randomized.RandomStream.uniform)
        self.patch_policies()
        self.patch_events()


US_ROUND, US_SCENARIO = "us/round", "us/scenario"
UNITS = {
    "engine.run_game.self_us_per_round": US_ROUND,
    "engine.validate.us_per_round": US_ROUND,
    "engine.validate.calls_per_round": "calls/round",
    "engine.capital_update.self_us_per_round": US_ROUND,
    "engine.replay_verify.us_per_round": US_ROUND,
    "engine.trace_bytes_per_round": "B/round",
    "engine.rounds": "count",
    "engine.early_stop_share": "share",
    "scenario.forecast_us_per_round": US_ROUND,
    "scenario.event_proxy.us_per_round": US_ROUND,
    "scenario.build.us_per_scenario": US_SCENARIO,
    "scenario.parse.us_per_scenario": US_SCENARIO,
    "skeptic.bet.self_us_per_round": US_ROUND,
    "skeptic.ceiling_index_update.calls": "count",
    "skeptic.ceiling_index_update.us_per_call": "us/call",
    "randomized.bet.us_per_round": US_ROUND,
    "randomized.uniform.calls": "count",
    "reality.outcome.self_us_per_round": US_ROUND,
    "reality.observe.us_per_round": US_ROUND,
    "hedges.hedge_inverse.calls": "count",
    "hedges.hedge_inverse.us_per_call": "us/call",
    "analysis.strong_compliance_verdict.us_per_round": US_ROUND,
    "analysis.epsilon_sequence_step.calls": "count",
    "analysis.upper_probability_coin.s_per_call": "s/call",
    "analysis.event.calls_per_price": "calls/price",
    "traceio.trace_to_csv_text.us_per_round": US_ROUND,
    "traceio.trace_from_csv_text.us_per_round": US_ROUND,
    "traceio.csv_bytes_per_round": "B/round",
    "traceio.summary_dict.us_per_scenario": US_SCENARIO,
    "cli.cmd_verify.self_s": "s/pass",
    "trace_overhead_share": "share",
}


def layer_metrics(tracer: Tracer, rounds: int, requested: int,
                  csv_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, except trace_bytes_per_round
    and trace_overhead_share, which the runner measures around the passes.
    Times per round divide by the rounds the workload played, so they add up
    towards its us_per_round; a layer the workload never calls reports 0."""

    def st(label):
        return tracer.get(label)

    def per(value, count, scale=1e6):
        return value * scale / count if count else 0.0

    scenarios_run = st("engine.run_game").calls
    prices = 2 * st("cli.cmd_price").calls
    return {
        "engine.run_game.self_us_per_round": per(st("engine.run_game").self_time, rounds),
        "engine.validate.us_per_round": per(st("engine.validate").total, rounds),
        "engine.validate.calls_per_round": per(st("engine.validate").calls, rounds, 1),
        "engine.capital_update.self_us_per_round":
            per(st("engine.capital_update").self_time, rounds),
        "engine.replay_verify.us_per_round": per(st("engine.replay_verify").total, rounds),
        "engine.rounds": rounds,
        "engine.early_stop_share": per(rounds, requested, 1),
        "scenario.forecast_us_per_round": per(st("scenario.forecast").total, rounds),
        "scenario.event_proxy.us_per_round": per(st("scenario.event_proxy").total, rounds),
        "scenario.build.us_per_scenario": per(st("scenario.build").total, scenarios_run),
        "scenario.parse.us_per_scenario":
            per(st("scenario.parse").total, st("scenario.parse").calls),
        "skeptic.bet.self_us_per_round": per(st("skeptic.bet").self_time, rounds),
        "skeptic.ceiling_index_update.calls": st("skeptic.ceiling_index_update").calls,
        "skeptic.ceiling_index_update.us_per_call":
            per(st("skeptic.ceiling_index_update").total,
                st("skeptic.ceiling_index_update").calls),
        "randomized.bet.us_per_round": per(st("randomized.bet").total, rounds),
        "randomized.uniform.calls": st("randomized.uniform").calls,
        "reality.outcome.self_us_per_round": per(st("reality.outcome").self_time, rounds),
        "reality.observe.us_per_round": per(st("reality.observe").total, rounds),
        "hedges.hedge_inverse.calls": st("hedges.hedge_inverse").calls,
        "hedges.hedge_inverse.us_per_call":
            per(st("hedges.hedge_inverse").total, st("hedges.hedge_inverse").calls),
        "analysis.strong_compliance_verdict.us_per_round":
            per(st("analysis.strong_compliance_verdict").total, rounds),
        "analysis.epsilon_sequence_step.calls": st("analysis.epsilon_sequence_step").calls,
        "analysis.upper_probability_coin.s_per_call":
            per(st("analysis.upper_probability_coin").total,
                st("analysis.upper_probability_coin").calls, 1),
        "analysis.event.calls_per_price": per(tracer.event_calls, prices, 1),
        "traceio.trace_to_csv_text.us_per_round":
            per(st("traceio.trace_to_csv_text").total, rounds),
        "traceio.trace_from_csv_text.us_per_round":
            per(st("traceio.trace_from_csv_text").total, rounds),
        "traceio.csv_bytes_per_round": per(csv_bytes, rounds, 1),
        "traceio.summary_dict.us_per_scenario":
            per(st("traceio.summary_dict").total, scenarios_run),
        "cli.cmd_verify.self_s": st("cli.cmd_verify").self_time,
    }
