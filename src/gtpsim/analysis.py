"""Verification utilities: damping weights, finite-horizon pricing of coin
events, capital-bound verdicts on traces, and the mixture-capital
certificate."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .engine import BOUND_SLACK, RoundRecord, Skeptic, Trace, capital_update

MAX_PRICING_HORIZON = 25          # the 2^N tree
MAX_PRICING_STATES = 1 << 19      # (round, state) pairs of the induction


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
# An event by a sufficient state: a start state, step(state, k, bit), the
# state after `bit` is played in round k (0-based), and accept(state), the
# event's indicator at a final state.  Two prefixes of the same length that
# reach the same state must have the same indicator on every common
# extension, so one node per (round, state) stands for all of them.
EventState = Tuple[Hashable, Callable[[Hashable, int, int], Hashable],
                   Callable[[Hashable], bool]]


def _check_prices(p_script: Sequence[float]) -> None:
    for p in p_script:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"price {p} outside [0, 1]")


def upper_probability_coin(p_script: Sequence[float], event: EventPredicate) -> float:
    """Minimal initial capital superreplicating the event indicator in the
    coin game with the given price script, by backward induction over every
    prefix (2^N leaves, N <= 25).

    The one-round market on {0, 1} with one linear instrument is complete,
    so the node value is p * up + (1 - p) * down exactly.  This tree is the
    oracle of `coin_price_bounds`.
    """
    n = len(p_script)
    if n > MAX_PRICING_HORIZON:
        raise ValueError(f"horizon {n} exceeds {MAX_PRICING_HORIZON}")
    _check_prices(p_script)

    def node(k: int, prefix: Tuple[int, ...]) -> float:
        if k == n:
            return 1.0 if event(prefix) else 0.0
        p = p_script[k]
        return p * node(k + 1, prefix + (1,)) + (1.0 - p) * node(k + 1, prefix + (0,))

    return node(0, ())


def lower_probability_coin(p_script: Sequence[float], event: EventPredicate) -> float:
    """1 - upper probability of the complement."""
    return 1.0 - upper_probability_coin(p_script, lambda bits: not event(bits))


def coin_price_bounds(p_script: Sequence[float], event: EventState) -> Tuple[float, float]:
    """(upper, lower) probability of the event by backward induction over the
    reachable (round, state) pairs, at most MAX_PRICING_STATES of them, with
    one call of `accept` per final state: one backward sweep over the leaf
    values v, one over 1 - v for the complement.  Nodes with one state have
    one value, and v is 0.0 or 1.0, so 1 - v is exact and both prices are
    the same floats as `upper_probability_coin` and `lower_probability_coin`
    on the 2^N tree."""
    _check_prices(p_script)
    start, step, accept = event
    rows, finals = _state_graph(p_script, start, step)
    leaves = {s: 1.0 if accept(s) else 0.0 for s in finals}
    upper = _sweep(p_script, rows, leaves, start)
    complement = {s: 1.0 - v for s, v in leaves.items()}
    return upper, 1.0 - _sweep(p_script, rows, complement, start)


StateRows = List[List[Tuple[Hashable, Hashable, Hashable]]]


def _state_graph(p_script: Sequence[float], start: Hashable,
                 step: Callable[[Hashable, int, int], Hashable]
                 ) -> Tuple[StateRows, dict]:
    """Each round's states with their two successors, and the final states."""
    rows: StateRows = []
    frontier: dict = {start: None}
    pairs = 1
    for k in range(len(p_script)):
        row, reached = [], {}
        for s in frontier:
            up, down = step(s, k, 1), step(s, k, 0)
            reached[up] = reached[down] = None
            row.append((s, up, down))
        pairs += len(reached)
        if pairs > MAX_PRICING_STATES:
            raise ValueError(f"event needs more than {MAX_PRICING_STATES} "
                             f"(round, state) pairs by round {k + 1}")
        rows.append(row)
        frontier = reached
    return rows, frontier


def _sweep(p_script: Sequence[float], rows: StateRows,
           values: Dict[Hashable, float], start: Hashable) -> float:
    """Backward induction from the final states' values to the start's."""
    for p, row in zip(reversed(p_script), reversed(rows)):
        q = 1.0 - p
        values = {s: p * values[up] + q * values[down] for s, up, down in row}
    return values[start]


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
    # Capitals without NaN are totally ordered (+-inf included), so the
    # lowest and the highest decide both duties: one C-level pass each.  A
    # NaN breaks the order; it fails both duties, set below.
    sup_capital = max(capitals, default=k0)
    duty_ok = min(capitals, default=k0) >= -slack
    bound_ok = sup_capital <= k0 + slack
    notes = []
    if not all(map(math.isfinite, capitals)):
        first = _first_round(capitals, lambda k: not math.isfinite(k))
        notes.append(f"capital is not finite ({capitals[first - 1]}) at round {first}")
        if any(map(math.isnan, capitals)):
            sup_capital = math.nan
            duty_ok = bound_ok = False
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


def mixture_capitals(trace: Trace, fictional: Skeptic, weight: float,
                     n0: int = 0) -> List[float]:
    """K_n + weight * (F_n - F_{n0}) for n = n0, ..., N: the capital the
    compliance proof says never increases from round n0 on.

    K is the recorded capital.  F is the capital of the fictional Skeptic,
    replayed over the recorded rounds (reset, then bet and observe each
    round) from F_0 = K_0.  For `derandomized_fictional` the certificate is
    `FictionalBcSkeptic` with n0 = 0 and weight 1; for `bc_comply` it is the
    same Skeptic with the n0 and the weight -delta (`mix_coeff`) of the
    machine's Mixing phase."""
    protocol = trace.protocol
    fictional.reset(protocol)
    f = f_n0 = protocol.initial_capital
    mixture = [f] if n0 == 0 else []
    for n, (forecast, s, x, k) in enumerate(
            zip(trace.forecasts, trace.bets, trace.xs, trace.capitals), 1):
        bet = fictional.bet(n, forecast, f)
        f = capital_update(protocol, f, forecast, bet, x, n)
        fictional.observe(RoundRecord(forecast, s, x, k))
        if n == n0:
            f_n0 = f
        if n >= n0:
            mixture.append(k + weight * (f - f_n0))
    return mixture

