"""Hedge and growth functions for the general-hedge forecasting game.

A hedge h replaces the quadratic term of the capital update.  To be usable
it must be even and nonnegative, h(x)/x nondecreasing and h(x)/x^2
nonincreasing on x > 0, and vanish at 0.  Validation samples these
conditions on a dyadic grid rather than proving them symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

_GRID = [2.0 ** k for k in range(-10, 11)]
_REL_TOL = 1e-9


class HedgeValidationError(ValueError):
    """A hedge or growth function failed one of its sampled conditions."""


@dataclass(frozen=True)
class Hedge:
    """Even payoff function h and its inverse on [0, inf), which the
    derandomized Reality plays at."""

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    name: str


@dataclass(frozen=True)
class Growth:
    """Positive nondecreasing scale function g."""

    eval: Callable[[float], float]
    name: str


def power_hedge(r: float) -> Hedge:
    """h(x) = |x|^r.  Valid for 1 <= r <= 2.

    A value past the float range is +inf, as x * x gives for the square
    hedge, so a finite move never makes `capital_update` raise; float `**`
    would raise OverflowError instead."""

    def forward(x: float) -> float:
        try:
            return abs(x) ** r
        except OverflowError:
            return math.inf

    return Hedge(
        forward=forward,
        inverse=lambda y: y ** (1.0 / r),
        name=f"power:r={r:g}",
    )


# The unbounded game's x^2, inverted by math.sqrt so that h^-1(n * n) = n
# exactly (y ** 0.5 need not equal sqrt(y)).
SQUARE_HEDGE = Hedge(forward=lambda x: x * x, inverse=math.sqrt, name="square")


def identity_growth() -> Growth:
    return Growth(eval=lambda x: x, name="identity")


def power_growth(r: float) -> Growth:
    return Growth(eval=lambda x: x ** r, name=f"power:r={r:g}")


def _no_overflow(fn: Callable[[float], float], name: str,
                 label: str) -> Callable[[float], float]:
    """fn, with an OverflowError or ZeroDivisionError turned into a
    HedgeValidationError that names the function and x."""

    def checked(x: float) -> float:
        try:
            return fn(x)
        except OverflowError:
            raise HedgeValidationError(f"{name}: {label}({x!r}) overflows") from None
        except ZeroDivisionError:
            raise HedgeValidationError(f"{name}: {label}({x!r}) divides by zero") from None

    return checked


# The checks below are written so that a NaN value fails them: each raises
# unless its comparison holds.  A value that overflows fails them too.
def validate_hedge(hedge: Hedge) -> None:
    """Check the hedge conditions on the sampled grid; raise on failure."""
    h = _no_overflow(hedge.forward, hedge.name, "h")
    if not abs(h(0.0)) <= _REL_TOL:
        raise HedgeValidationError(f"{hedge.name}: h(0) = {h(0.0)!r}, expected 0")
    for x in _GRID:
        hx = h(x)
        if not 0.0 <= hx < math.inf:
            raise HedgeValidationError(
                f"{hedge.name}: h({x}) = {hx}, expected finite and >= 0")
        if not abs(hx - h(-x)) <= _REL_TOL * max(1.0, abs(hx)):
            raise HedgeValidationError(f"{hedge.name}: h not even at x = {x}")
    slack = _REL_TOL
    for lo, hi in zip(_GRID, _GRID[1:]):
        r_lo, r_hi = h(lo) / lo, h(hi) / hi
        if not r_hi >= r_lo * (1.0 - slack) - slack:
            raise HedgeValidationError(
                f"{hedge.name}: h(x)/x decreases between {lo} and {hi}"
            )
        q_lo, q_hi = h(lo) / lo ** 2, h(hi) / hi ** 2
        if not q_hi <= q_lo * (1.0 + slack) + slack:
            raise HedgeValidationError(
                f"{hedge.name}: h(x)/x^2 increases between {lo} and {hi}"
            )
    inverse = _no_overflow(hedge.inverse, hedge.name, "h^-1")
    for x in _GRID:
        y = h(x)
        back = h(inverse(y))
        if not abs(back - y) <= _REL_TOL * max(1.0, abs(y)):
            raise HedgeValidationError(
                f"{hedge.name}: inverse round-trip failed at x = {x}"
            )


def validate_growth(growth: Growth) -> None:
    """Check positivity and monotonicity on the sampled grid; raise on failure."""
    g = _no_overflow(growth.eval, growth.name, "g")
    values = [g(x) for x in _GRID]
    for x, gx in zip(_GRID, values):
        if not 0.0 < gx < math.inf:
            raise HedgeValidationError(
                f"{growth.name}: g({x}) = {gx}, expected finite and > 0")
    for (x, lo), hi in zip(zip(_GRID, values), values[1:]):
        if not hi >= lo * (1.0 - _REL_TOL):
            raise HedgeValidationError(f"{growth.name}: g decreases after x = {x}")


def hedge_inverse(hedge: Hedge, y: float) -> float:
    """Solve h(r) = y for r >= 0 with the hedge's inverse.  `validate_hedge`
    checks |h(r) - y| <= 1e-9 * max(1, y) on its grid."""
    if y < 0.0:
        raise ValueError(f"hedge_inverse: y = {y} < 0")
    if y == 0.0:
        return 0.0
    return hedge.inverse(y)
