"""One home for a player's run state: `__init__` keeps only its arguments,
and `reset`, which every caller runs before the first move, builds the rest."""

import inspect

import pytest

import gtpsim.scenario  # noqa: F401  (imports every module that defines a player)
from gtpsim.engine import Forecaster, Policy, Reality, Skeptic, ZeroSkeptic

ROLES = (Policy, Forecaster, Skeptic, Reality)

# A value for each constructor parameter that has no default.
MINIMAL_ARGUMENTS = {
    "seed": 0,
    "script": lambda n: 0.5,
    "weights": [1.0],
    "policies": [ZeroSkeptic()],
}


def _concrete_players() -> list:
    """Every Policy subclass defined in the package, but the role bases and
    the private ones (a base such as `_CounterSkeptic` names no bet)."""
    found, todo = set(), [Policy]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if (cls.__module__.startswith("gtpsim.") and cls not in ROLES
                and not cls.__name__.startswith("_")):
            found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


PLAYERS = _concrete_players()


def test_the_walk_finds_the_players_of_every_module():
    names = {cls.__name__ for cls in PLAYERS}
    assert {"ScriptForecaster", "ZeroSkeptic", "CombinedSkeptic",
            "DivergentBcSkeptic", "ConvergentBcSkeptic", "FictionalBcSkeptic",
            "BangBangSkeptic", "SingleBetSkeptic", "RandomBoundedSkeptic",
            "BcComplyReality", "MvComplyReality", "BernoulliReality",
            "KolmogorovReality", "FirstRoundComplyReality",
            "BoundedAvoidMatchReality", "ConstantReality"} <= names


@pytest.mark.parametrize("cls", PLAYERS, ids=lambda cls: cls.__name__)
def test_init_keeps_only_its_arguments(cls):
    params = inspect.signature(cls).parameters
    player = cls(**{name: MINIMAL_ARGUMENTS[name] for name, param in params.items()
                    if param.default is param.empty})
    assert set(vars(player)) <= set(params)
