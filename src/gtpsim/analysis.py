"""Verification utilities: damping weights, finite-horizon pricing of coin
events, capital-bound verdicts on traces, and a tail-term bound check."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .engine import Trace

MAX_PRICING_HORIZON = 25
BOUND_SLACK = 1e-9  # relative to the initial capital


def epsilon_sequence_step(running_sum: float, a: float) -> Tuple[float, float]:
    """Next damping weight for a positive series.

    Returns (epsilon, new_running_sum) with epsilon = 1 / (1 + sum of a's
    so far).  The weight depends only on the terms seen, epsilon * a <= 1
    always, a divergent series stays divergent after weighting while the
    weights vanish, and a convergent series gives weights converging to a
    positive limit.
    """
    if a <= 0.0:
        raise ValueError(f"series term must be positive, got {a}")
    new_sum = running_sum + a
    return 1.0 / (1.0 + new_sum), new_sum


EventPredicate = Callable[[Tuple[int, ...]], bool]


def upper_probability_coin(p_script: Sequence[float], event: EventPredicate) -> float:
    """Minimal initial capital superreplicating the event indicator in the
    coin game with the given price script, by backward induction.

    The one-round market on {0, 1} with one linear instrument is complete,
    so the node value is p * up + (1 - p) * down exactly.
    """
    n = len(p_script)
    if n > MAX_PRICING_HORIZON:
        raise ValueError(f"horizon {n} exceeds {MAX_PRICING_HORIZON}")
    for p in p_script:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"price {p} outside [0, 1]")

    def node(k: int, prefix: Tuple[int, ...]) -> float:
        if k == n:
            return 1.0 if event(prefix) else 0.0
        p = p_script[k]
        return p * node(k + 1, prefix + (1,)) + (1.0 - p) * node(k + 1, prefix + (0,))

    return node(0, ())


def lower_probability_coin(p_script: Sequence[float], event: EventPredicate) -> float:
    """1 - upper probability of the complement."""
    return 1.0 - upper_probability_coin(p_script, lambda bits: not event(bits))


@dataclass
class Verdict:
    """Outcome of checking the collateral duties and the strong-compliance
    bound on a trace."""

    skeptic_duty_ok: bool
    strong_bound_ok: bool
    sup_capital: float
    event_proxy_ok: Optional[bool] = None
    notes: List[str] = field(default_factory=list)


def _first_round(capitals: Sequence[float], bad: Callable[[float], bool]) -> Optional[int]:
    return next((n for n, k in enumerate(capitals, start=1) if bad(k)), None)


def strong_compliance_verdict(
    trace: Trace, event_proxy: Optional[Callable[[Trace], bool]] = None
) -> Verdict:
    """Evaluate Skeptic's duty (capital >= 0), the strong-compliance bound
    (capital <= initial), the capital supremum, and an optional finite-horizon
    event proxy.

    A NaN capital satisfies neither inequality, so it fails both checks, and
    the notes name the first non-finite round; the supremum is then NaN."""
    k0 = trace.protocol.initial_capital
    slack = BOUND_SLACK * k0
    capitals = trace.capitals
    sup_capital = max(capitals, default=k0)
    duty_ok = all(k >= -slack for k in capitals)
    bound_ok = all(k <= k0 + slack for k in capitals)
    notes = []
    if not all(map(math.isfinite, capitals)):
        first = _first_round(capitals, lambda k: not math.isfinite(k))
        notes.append(f"capital is not finite ({capitals[first - 1]}) at round {first}")
        if any(map(math.isnan, capitals)):
            sup_capital = math.nan
    if not duty_ok:
        first = _first_round(capitals, lambda k: k < -slack)
        if first is not None:
            notes.append(f"skeptic capital went negative at round {first}")
    if not bound_ok:
        first = _first_round(capitals, lambda k: k > k0 + slack)
        if first is not None:
            notes.append(f"capital exceeded the initial value at round {first}")
    proxy_ok = None if event_proxy is None else bool(event_proxy(trace))
    return Verdict(
        skeptic_duty_ok=duty_ok,
        strong_bound_ok=bound_ok,
        sup_capital=sup_capital,
        event_proxy_ok=proxy_ok,
        notes=notes,
    )


def term_bound_check(
    y: Sequence[float], g: Sequence[float], d: float, tail_start: int
) -> bool:
    """True iff |y_n / g_n| <= |d| + 1 for every n >= tail_start (1-based).

    g must be positive and nondecreasing; this is the checkable consequence
    of "partial sums over g converge to d"."""
    if len(y) != len(g):
        raise ValueError(f"length mismatch: {len(y)} vs {len(g)}")
    prev = 0.0
    for gn in g:
        if gn <= 0.0 or gn < prev:
            raise ValueError("g must be positive and nondecreasing")
        prev = gn
    bound = abs(d) + 1.0
    return all(
        abs(yn / gn) <= bound for n, (yn, gn) in enumerate(zip(y, g), start=1)
        if n >= tail_start
    )
