"""Acceptance criteria: ten end-to-end checks with stated tolerances.

Each criterion records one pass/fail line that conftest prints at the end of
the pytest run, and also asserts, so a regression fails the suite.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from gtpsim import (
    ForecastMove,
    GameKind,
    HedgeValidationError,
    Protocol,
    CombinedSkeptic,
    RandomStream,
    epsilon_sequence_step,
    lower_probability_coin,
    mixture_capitals,
    run_game,
    uniform_block,
    upper_probability_coin,
    validate_hedge,
)
from gtpsim.engine import ScriptForecaster
from gtpsim.hedges import power_hedge
from gtpsim.randomized import KolmogorovReality, RandomBoundedSkeptic
from gtpsim.reality import (
    BoundedAvoidMatchReality,
    ConstantReality,
    FirstRoundComplyReality,
)
from gtpsim.scenario import (
    event_proxy_for,
    run_scenario,
    scenario_passes,
    coin_comply_pool,
    ufg_pool,
    ufgh_pool,
)
from gtpsim.analysis import strong_compliance_verdict
from gtpsim.skeptic import (
    BangBangSkeptic,
    ConvergentBcSkeptic,
    DivergentBcSkeptic,
    FictionalBcSkeptic,
)
from gtpsim.engine import ZeroSkeptic

import _acceptance_log
from _support import ScriptBetSkeptic, derandomizer, play_past_faults, price_forecaster

COIN = Protocol(kind=GameKind.COIN_TOSSING)
BOUND_SLACK = 1e-9


def _record(index, description, passed):
    _acceptance_log.record(index, description, passed)
    assert passed, f"criterion {index}: {description}"


# ---------------------------------------------------------------------------
# 1. Divergent-side bet: exact capital trajectory and non-negativity
# ---------------------------------------------------------------------------

def test_criterion_1_divergent_bet_trajectory():
    horizon = 10_000
    forecaster = ScriptForecaster(lambda n: 1.0 / n)
    trace = run_game(
        COIN, forecaster, DivergentBcSkeptic(), ConstantReality(0.0), horizon
    )
    harmonic = 0.0
    exact = True
    for n, k in enumerate(trace.capitals, start=1):
        harmonic += 1.0 / n
        if abs(k - (1.0 + 0.5 * harmonic)) > 1e-9:
            exact = False
            break
    final_ok = trace.capitals[-1] >= 5.8

    # Non-negativity against 1000 random outcome sequences (vectorized replay
    # of the same bet rule: M = -2^(-b-1) with b the running head count).
    n_rounds = 1_000
    p = 1.0 / np.arange(1, n_rounds + 1)
    nonneg = True
    for seed in range(1000):
        x = (uniform_block(seed, n_rounds) < 0.5).astype(np.float64)
        b_prev = np.concatenate(([0.0], np.cumsum(x)[:-1]))
        bets = -np.power(2.0, -b_prev - 1.0)
        capitals = 1.0 + np.cumsum(bets * (x - p))
        if capitals.min() < -BOUND_SLACK:
            nonneg = False
            break

    _record(
        1,
        "divergent-side bet: K_n = 1 + H_n/2 on all-tails harmonic prices, "
        "K_10000 >= 5.8, capital >= 0 on 1000 random sequences",
        exact and final_ok and nonneg,
    )


# ---------------------------------------------------------------------------
# 2. Convergent-side bet: exact trajectory on geometric prices, all heads
# ---------------------------------------------------------------------------

def test_criterion_2_convergent_bet_trajectory():
    horizon = 1_000
    forecaster = ScriptForecaster(lambda n: 2.0 ** -min(n, 1074))
    trace = run_game(
        COIN, forecaster, ConvergentBcSkeptic(), ConstantReality(1.0), horizon
    )
    # Partial price sums stay below 1, so c = 1 and M = 1/4 forever.
    bets_ok = all(r.bet == 0.25 for r in trace.rounds)
    expected = 1.0
    exact = True
    for n, k in enumerate(trace.capitals, start=1):
        expected += 0.25 * (1.0 - 2.0 ** -min(n, 1074))
        if abs(k - expected) > 1e-6:
            exact = False
            break
    final_ok = trace.capitals[-1] >= 200.0
    _record(
        2,
        "convergent-side bet: c_n = 1 and K_n = 1 + sum 1/4*(1 - 2^-k) on "
        "all-heads geometric prices, K_1000 >= 200",
        bets_ok and exact and final_ok,
    )


# ---------------------------------------------------------------------------
# 3. Coin-game compliance pool
# ---------------------------------------------------------------------------

def test_criterion_3_coin_compliance_pool():
    ok = True
    for scenario in coin_comply_pool(horizon=10_000, seed=7):
        trace = run_scenario(scenario)
        verdict = strong_compliance_verdict(trace, event_proxy_for(scenario))
        if not verdict.strong_bound_ok:
            ok = False
        if not scenario_passes(scenario, verdict):
            ok = False
        if scenario.expected_event == "no_late_heads":
            # Convergent scripts: no head after round 1000 of 10000.
            if any(r.x == 1.0 for r in trace.rounds[1000:]):
                ok = False
        if scenario.expected_event == "heads_at_c_increments":
            if verdict.event_proxy_ok is not True:
                ok = False
        if not ok:
            break
    _record(
        3,
        "coin compliance: 4 forecasters x 6 skeptics at horizon 10^4, "
        "K_n <= K_0 + 1e-9 with skeptic faults ending the run, event "
        "proxies hold",
        ok,
    )


# ---------------------------------------------------------------------------
# 4. Unbounded-game compliance pool
# ---------------------------------------------------------------------------

def test_criterion_4_unbounded_compliance_pool():
    ok = True
    for scenario in ufg_pool(horizon=10_000, seed=7):
        trace = run_scenario(scenario)
        verdict = strong_compliance_verdict(trace, event_proxy_for(scenario))
        if not verdict.strong_bound_ok or not scenario_passes(scenario, verdict):
            ok = False
        if scenario.expected_event == "slln_hold" and verdict.skeptic_duty_ok:
            total = sum(r.x - r.forecast.m for r in trace.rounds)
            if abs(total) / len(trace.rounds) > 0.01:
                ok = False
        if scenario.expected_event == "slln_fail":
            if verdict.event_proxy_ok is not True:
                ok = False
        if not ok:
            break
    _record(
        4,
        "unbounded compliance: v in {1, n} x m in {0, sin} pools at horizon "
        "10^4, K_n <= K_0 + 1e-9, |S_N|/N <= 0.01 (convergent) and "
        "|S_n|/n >= 0.5 at crossings (divergent, zero skeptic)",
        ok,
    )


# ---------------------------------------------------------------------------
# 5. General-hedge compliance pool and hedge validation
# ---------------------------------------------------------------------------

def test_criterion_5_general_hedge_compliance_pool():
    ok = True
    for scenario in ufgh_pool(horizon=10_000, seed=7):
        trace = run_scenario(scenario)
        verdict = strong_compliance_verdict(trace)
        if not verdict.strong_bound_ok:
            ok = False
            break
    for r in (1.0, 1.5, 2.0):
        try:
            validate_hedge(power_hedge(r))
        except HedgeValidationError:
            ok = False
    try:
        validate_hedge(power_hedge(4.0))
        ok = False
    except HedgeValidationError:
        pass
    _record(
        5,
        "general-hedge compliance: |x|^r for r in {1, 1.5, 2} with identity "
        "and quadratic growth at horizon 10^4, K_n <= K_0 + 1e-9; validation "
        "accepts those hedges and rejects x^4",
        ok,
    )


# ---------------------------------------------------------------------------
# 6. Randomized reference strategy Monte Carlo
# ---------------------------------------------------------------------------

def _load_script(name):
    """The module of scripts/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_6_randomized_strategy_monte_carlo():
    # The numbers scripts/kolmogorov_mc.py prints, at its default sizes.
    mc = _load_script("kolmogorov_mc")
    horizon = 1_000
    # Two-point branch (v = n^2): S_n/n leaves [-0.5, 0.5] in [500, 1000]
    # on at least 99% of 1000 seeded paths.
    fraction_ok = mc.escape_fraction(1000, horizon) >= 0.99

    # Consistency: the vectorized recomputation equals an engine run.
    reality = KolmogorovReality(seed=123)
    forecaster = ScriptForecaster(lambda n: ForecastMove(m=0.0, v=float(n * n)))
    trace = run_game(
        Protocol(kind=GameKind.UNBOUNDED_FORECASTING), forecaster, ZeroSkeptic(),
        reality, 100,
    )
    ns = np.arange(1, 101, dtype=np.float64)
    u = uniform_block(123, 100)
    expected = np.where(u < 0.5, ns, -ns)
    engine_matches = np.array_equal(
        np.array([r.x for r in trace.rounds]), expected
    )

    # Three-point branch (v = 1): mean nonzero-move count over 10^4 seeds.
    mean_ok = 1.58 <= mc.mean_nonzero_count(10_000, horizon) <= 1.71

    _record(
        6,
        "randomized strategy Monte Carlo: v=n^2 escape fraction >= 0.99 over "
        "1000 seeds, v=1 mean nonzero count in [1.58, 1.71] over 10^4 seeds",
        fraction_ok and engine_matches and mean_ok,
    )


# ---------------------------------------------------------------------------
# 7. Pricing oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_7_pricing_oracle_equivalence():
    rng = RandomStream(seed=2024)
    ok = True
    for _ in range(100):
        n = 1 + rng.next_u64() % 12
        p_script = [rng.uniform() for _ in range(n)]
        members = {leaf for leaf in range(2 ** n) if rng.uniform() < 0.5}

        def event(bits, members=members):
            leaf = 0
            for b in bits:
                leaf = (leaf << 1) | b
            return leaf in members

        expected = 0.0
        for leaf in members:
            prob = 1.0
            for i in range(n):
                bit = (leaf >> (n - 1 - i)) & 1
                prob *= p_script[i] if bit else 1.0 - p_script[i]
            expected += prob
        upper = upper_probability_coin(p_script, event)
        lower = lower_probability_coin(p_script, event)
        complement = upper_probability_coin(p_script, lambda b: not event(b))
        if abs(upper - expected) > 1e-12:
            ok = False
        if abs(upper + complement - 1.0) > 1e-12:
            ok = False
        if lower > upper + 1e-12:
            ok = False
        if not ok:
            break
    _record(
        7,
        "pricing: backward induction equals leaf enumeration (N <= 12, 100 "
        "random scripts/events) within 1e-12; additivity; lower <= upper",
        ok,
    )


# ---------------------------------------------------------------------------
# 8. Damping-sequence laws
# ---------------------------------------------------------------------------

def test_criterion_8_damping_sequence_laws():
    rng = RandomStream(seed=99)
    ok = True
    running = 0.0
    for _ in range(100_000):
        a = 1e-6 + 10.0 * rng.uniform()
        eps, running = epsilon_sequence_step(running, a)
        if not (eps == 1.0 / (1.0 + running) and eps * a <= 1.0):
            ok = False
            break

    total = 0.0
    weighted = 0.0
    eps_100 = None
    for k in range(1, 501):
        eps, total = epsilon_sequence_step(total, 1.0)
        weighted += eps
        if k == 100:
            eps_100 = eps
    if not (weighted >= 5.0 and eps_100 < 0.01):
        ok = False

    total = 0.0
    for k in range(1, 61):
        eps, total = epsilon_sequence_step(total, 2.0 ** -k)
    if not 0.499 <= eps <= 0.501:
        ok = False

    _record(
        8,
        "damping sequence: determinism and eps*a <= 1 over 10^5 draws; "
        "constant terms give weighted sum >= 5 by n=500 and eps_100 < 0.01; "
        "geometric terms give eps_60 in [0.499, 0.501]",
        ok,
    )


# ---------------------------------------------------------------------------
# 9. Derandomizer monotonicity and capital linearity
# ---------------------------------------------------------------------------

# Criteria 9 and 10 judge Reality's strategy on every round, so their runs
# play on past a Skeptic's fault, where run_game would end them.
def test_criterion_9_derandomizer_and_linearity():
    forecaster_ps = [min(1.0, 1.0 / n) for n in range(1, 61)]
    monotone = True
    for seed in range(1000):
        trace = play_past_faults(
            COIN, price_forecaster(forecaster_ps),
            RandomBoundedSkeptic(seed=seed), derandomizer(), 60,
        )
        caps = mixture_capitals(trace, FictionalBcSkeptic(), 1.0)
        if any(b > a + 1e-12 for a, b in zip(caps, caps[1:])):
            monotone = False
            break

    # Capital linearity: a half/half combination's capital equals the average
    # of the component capitals along the same path.
    def capitals(skeptic):
        return play_past_faults(
            COIN, price_forecaster(forecaster_ps), skeptic,
            ConstantReality(0.0), 60,
        ).capitals

    k1 = capitals(RandomBoundedSkeptic(seed=1))
    k2 = capitals(RandomBoundedSkeptic(seed=2))
    kc = capitals(CombinedSkeptic(
        [0.5, 0.5], [RandomBoundedSkeptic(seed=1), RandomBoundedSkeptic(seed=2)]
    ))
    linear = all(
        math.isclose(0.5 * (a + b), c, rel_tol=1e-12, abs_tol=1e-12)
        for a, b, c in zip(k1, k2, kc)
    )
    _record(
        9,
        "derandomizer: mixture capital non-increasing for 1000 random "
        "skeptics (slack 1e-12); half/half combination capital linearity "
        "within 1e-12",
        monotone and linear,
    )


# ---------------------------------------------------------------------------
# 10. Example strategies: first-round head, avoid-the-price
# ---------------------------------------------------------------------------

def test_criterion_10_example_strategies():
    pool = [
        lambda: ZeroSkeptic(),
        lambda: DivergentBcSkeptic(),
        lambda: ConvergentBcSkeptic(),
        lambda: FictionalBcSkeptic(),
        lambda: RandomBoundedSkeptic(seed=7),
        lambda: BangBangSkeptic(amplitude=1.0),
    ]
    horizon = 10_000
    ok = True

    forecaster_ps = [min(1.0, 1.0 / n) for n in range(1, horizon + 1)]
    for make in pool:
        trace = play_past_faults(
            COIN, price_forecaster(forecaster_ps), make(), FirstRoundComplyReality(),
            horizon,
        )
        if trace.rounds[0].x != 1.0:     # p_1 = 1 > 0 forces a head
            ok = False
        if max(trace.capitals) > trace.capitals[0] + BOUND_SLACK:
            ok = False

    bounded = Protocol(kind=GameKind.BOUNDED_FORECASTING, initial_capital=0.5)
    endpoint_ps = [0.0, 1.0, 0.5, 0.3]
    for make in pool:
        trace = play_past_faults(
            bounded, price_forecaster(endpoint_ps), make(),
            BoundedAvoidMatchReality(0.9), horizon,
        )
        if any(r.x == r.forecast for r in trace.rounds):
            ok = False
        if max(trace.capitals) > 0.9 + BOUND_SLACK:
            ok = False

    _record(
        10,
        "example strategies: first-round rule forces x_1 = 1 with sup K = "
        "K_1; avoid-the-price keeps x_n != p_n and sup K <= q = 0.9 at "
        "horizon 10^4",
        ok,
    )
