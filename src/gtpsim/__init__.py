"""Game-theoretic probability engine: betting protocols, forcing Skeptic
strategies, deterministic complying Reality strategies, and verification.

Each public name below is read from its submodule at its first access
(PEP 562), so `import gtpsim` loads no submodule, and `gtpsim.run_game` or
`from gtpsim import run_game` loads only the module that defines it.
"""

from importlib import import_module

# Submodule -> the public names it gives the package.
_EXPORTS = {
    "engine": (
        "CombinedSkeptic", "Forecaster", "ForecastMove", "GameKind",
        "InvalidMoveError", "Policy", "Protocol", "Reality", "RoundRecord",
        "ScriptForecaster", "Skeptic", "SkepticBet", "Trace", "ZeroSkeptic",
        "capital_update", "replay_verify", "run_game",
    ),
    "hedges": (
        "Growth", "Hedge", "HedgeValidationError", "hedge_inverse",
        "identity_growth", "power_growth", "power_hedge", "validate_growth",
        "validate_hedge",
    ),
    "skeptic": (
        "BcCounters", "ConvergentBcSkeptic", "DivergentBcSkeptic",
        "FictionalBcSkeptic", "SingleBetSkeptic", "bc_convergent_bet",
        "bc_divergent_bet", "bc_fictional_bet", "ceiling_index_update",
    ),
    "reality": (
        "BcComplyReality", "BcComplyState", "BoundedAvoidMatchReality",
        "ComplyPhase", "FirstRoundComplyReality", "MvComplyReality",
        "MvComplyState", "bc_comply_step", "mv_comply_step",
    ),
    "randomized": (
        "RandomStream", "bernoulli_reality", "kolmogorov_sample", "mix64",
        "uniform_block",
    ),
    "analysis": (
        "Verdict", "coin_price_bounds", "epsilon_sequence_step",
        "lower_probability_coin", "mixture_capitals",
        "strong_compliance_verdict", "upper_probability_coin",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    """The public name from its submodule, kept as a package attribute so
    the next access is a plain lookup."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
