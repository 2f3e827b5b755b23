"""`gtpsim price` by backward induction over (round, state), checked bit for
bit against the 2^N tree and, past the tree's horizon, against an exact
head-count law."""

import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpsim import analysis, cli
from gtpsim.analysis import (
    coin_price_bounds,
    lower_probability_coin,
    upper_probability_coin,
)
from gtpsim.cli import _EVENT_STATES, _event_from_spec, cmd_price

PRICE = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def _tree_prices(doc):
    """Upper and lower price of the document's event by leaf enumeration."""
    event = _event_from_spec(doc["event"], len(doc["p_script"]))
    return (upper_probability_coin(doc["p_script"], event),
            lower_probability_coin(doc["p_script"], event))


def _price_file(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return cmd_price(path)


@st.composite
def pricing_docs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    p_script = draw(st.lists(PRICE, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["threshold", "coordinate", "leaves", "all", "empty"]))
    event = {"type": kind}
    if kind == "threshold":
        event["op"] = draw(st.sampled_from(["ge", "le", "eq"]))
        event["value"] = draw(st.one_of(st.integers(-1, n + 1), st.floats(-1.0, n + 1.0)))
    elif kind == "coordinate":
        event["index"] = draw(st.integers(1, n))
        event["value"] = draw(st.integers(0, 1))
    elif kind == "leaves":
        event["bitmasks"] = draw(st.lists(st.integers(0, 2 ** n - 1), max_size=40))
    return {"p_script": p_script, "event": event}


@settings(deadline=None, max_examples=200)
@given(pricing_docs())
def test_induction_prices_equal_the_tree_bit_for_bit(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "induction.yaml"
    assert _price_file(path, doc) == _tree_prices(doc)
    p_script, spec = doc["p_script"], doc["event"]
    event = _event_from_spec(spec, len(p_script))
    state = _EVENT_STATES[spec["type"]](spec, len(p_script))
    assert coin_price_bounds(p_script, event, state) == _tree_prices(doc)


FIXED_EVENTS = {
    "threshold": {"type": "threshold", "op": "ge", "value": 9},
    "coordinate": {"type": "coordinate", "index": 11, "value": 0},
    "leaves": {"type": "leaves",
               "bitmasks": sorted(random.Random(16).sample(range(1 << 16), 300))},
    "all": {"type": "all"},
    "empty": {"type": "empty"},
}


@pytest.mark.parametrize("kind", sorted(FIXED_EVENTS))
def test_induction_prices_equal_the_tree_at_sixteen_rounds(tmp_path, kind):
    rng = random.Random(kind)
    p_script = [rng.random() for _ in range(16)]
    p_script[3], p_script[12] = 0.0, 1.0
    doc = {"p_script": p_script, "event": FIXED_EVENTS[kind]}
    assert _price_file(tmp_path / "doc.yaml", doc) == _tree_prices(doc)


def test_threshold_event_prices_past_the_tree_horizon(tmp_path):
    rng = random.Random(200)
    p_script = [rng.random() for _ in range(200)]
    p_script[7], p_script[150] = 0.0, 1.0
    doc = {"p_script": p_script, "event": {"type": "threshold", "op": "ge", "value": 101}}
    start = time.perf_counter()
    upper, lower = _price_file(tmp_path / "doc.yaml", doc)
    assert time.perf_counter() - start < 2.0
    law = [1.0]                       # Poisson-binomial law of the head count
    for p in p_script:
        law = [a * (1.0 - p) + b * p for a, b in zip(law + [0.0], [0.0] + law)]
    expected = sum(law[101:])
    assert abs(upper - expected) <= 1e-12
    assert abs(lower - expected) <= 1e-12


def test_state_pricing_is_bounded_by_its_pair_count(monkeypatch):
    def event(bits):
        return sum(bits) >= 6

    head_count = (0, lambda s, k, bit: s + bit)
    assert coin_price_bounds([0.5] * 12, event, head_count) == (
        upper_probability_coin([0.5] * 12, event),
        lower_probability_coin([0.5] * 12, event))
    monkeypatch.setattr(analysis, "MAX_PRICING_STATES", 90)   # 91 pairs at N = 12
    with pytest.raises(ValueError, match="round 12"):
        coin_price_bounds([0.5] * 12, event, head_count)


def test_state_pricing_calls_the_event_once_per_final_state():
    calls = []

    def event(bits):
        calls.append(bits)
        return sum(bits) >= 20

    head_count = (0, lambda s, k, bit: s + bit)
    upper, lower = coin_price_bounds([0.5] * 40, event, head_count)
    assert len(calls) == 41 and sorted(map(sum, calls)) == list(range(41))
    assert math.isclose(upper, 0.5 + 0.5 * math.comb(40, 20) / 2 ** 40, rel_tol=1e-12)
    assert upper == lower


def test_cmd_price_checks_the_leaf_masks_once(tmp_path, monkeypatch):
    calls = []
    leaf_masks = cli._leaf_masks

    def counted(spec, n):
        calls.append(n)
        return leaf_masks(spec, n)

    monkeypatch.setattr(cli, "_leaf_masks", counted)
    doc = {"p_script": [0.3, 0.0, 1.0, 0.6],
           "event": {"type": "leaves", "bitmasks": [3, 9.0, 12, 9, 15]}}
    prices = _price_file(tmp_path / "leaves.yaml", doc)
    assert calls == [4]
    assert prices == _tree_prices(doc)
