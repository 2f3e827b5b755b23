"""Game-theoretic probability engine: betting protocols, forcing Skeptic
strategies, deterministic complying Reality strategies, and verification."""

from .engine import (
    CombinedSkeptic,
    Forecaster,
    ForecastMove,
    GameKind,
    InvalidMoveError,
    Policy,
    Protocol,
    Reality,
    RoundRecord,
    ScriptForecaster,
    Skeptic,
    SkepticBet,
    Trace,
    ZeroSkeptic,
    capital_update,
    replay_verify,
    run_game,
)
from .hedges import (
    Growth,
    Hedge,
    HedgeValidationError,
    hedge_inverse,
    identity_growth,
    power_growth,
    power_hedge,
    validate_growth,
    validate_hedge,
)
from .skeptic import (
    BcCounters,
    ConvergentBcSkeptic,
    DivergentBcSkeptic,
    FictionalBcSkeptic,
    SingleBetSkeptic,
    bc_convergent_bet,
    bc_divergent_bet,
    bc_fictional_bet,
    ceiling_index_update,
)
from .reality import (
    BcComplyReality,
    BcComplyState,
    BoundedAvoidMatchReality,
    ComplyPhase,
    FirstRoundComplyReality,
    MvComplyReality,
    MvComplyState,
    bc_comply_step,
    mv_comply_step,
)
from .randomized import (
    RandomStream,
    bernoulli_reality,
    kolmogorov_sample,
    mix64,
    uniform_block,
)
from .analysis import (
    Verdict,
    coin_price_bounds,
    epsilon_sequence_step,
    lower_probability_coin,
    mixture_capitals,
    strong_compliance_verdict,
    upper_probability_coin,
)

__version__ = "0.1.0"
