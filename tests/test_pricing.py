"""`gtpsim price` by backward induction over (round, state), checked bit for
bit against the 2^N tree on a predicate written here apart from the CLI's
(start, step, accept) events and, past the tree's horizon, against an exact
head-count law."""

import hashlib
import json
import math
import operator
import random
import time

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpsim import analysis, cli, plain_yaml
from gtpsim.analysis import (
    coin_price_bounds,
    lower_probability_coin,
    upper_probability_coin,
)
from gtpsim.cli import _event_from_spec, _event_state, cmd_price
from gtpsim.scenario import MAX_NESTING

PRICE = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def _predicate(spec):
    """The event of a well-formed spec as a predicate on the whole path."""
    kind = spec["type"]
    if kind == "threshold":
        compare = getattr(operator, spec.get("op", "ge"))
        return lambda bits: compare(sum(bits), spec["value"])
    if kind == "coordinate":
        return lambda bits: bits[spec["index"] - 1] == spec.get("value", 1)
    if kind == "leaves":
        masks = set(spec["bitmasks"])
        return lambda bits: sum(b << i for i, b in enumerate(reversed(bits))) in masks
    return lambda bits: kind == "all"


def _tree_prices(doc, event=None):
    """Upper and lower price of the document's event by leaf enumeration."""
    event = event or _predicate(doc["event"])
    return (upper_probability_coin(doc["p_script"], event),
            lower_probability_coin(doc["p_script"], event))


def _price_file(path, doc, dump=json.dumps):
    """`cmd_price` on the document written by `dump`: JSON text is read by
    `json`, the plain YAML of `_plain_dump` by `plain_yaml`, and the block
    YAML of `yaml.safe_dump`, whose sequences are not indented under their
    keys, by PyYAML."""
    path.write_text(dump(doc), encoding="utf-8")
    return cmd_price(path)


def _plain_dump(doc):
    """Block mappings with every list on one line in flow style."""
    return yaml.safe_dump(doc, default_flow_style=None, width=math.inf)


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
    expected = _tree_prices(doc)
    for dump, plain in ((json.dumps, None), (_plain_dump, True), (yaml.safe_dump, False)):
        assert _price_file(path, doc, dump) == expected
        if plain is not None:
            assert (plain_yaml.read(dump(doc), MAX_NESTING) is not None) is plain
    p_script, spec = doc["p_script"], doc["event"]
    assert coin_price_bounds(p_script, _event_state(spec, len(p_script))) == expected
    assert _tree_prices(doc, _event_from_spec(spec, len(p_script))) == expected


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

    head_count = (0, lambda s, k, bit: s + bit, lambda s: s >= 6)
    assert coin_price_bounds([0.5] * 12, head_count) == (
        upper_probability_coin([0.5] * 12, event),
        lower_probability_coin([0.5] * 12, event))
    monkeypatch.setattr(analysis, "MAX_PRICING_STATES", 90)   # 91 pairs at N = 12
    with pytest.raises(ValueError, match="round 12"):
        coin_price_bounds([0.5] * 12, head_count)


def test_state_pricing_calls_the_event_once_per_final_state():
    calls = []

    def accept(heads):
        calls.append(heads)
        return heads >= 20

    upper, lower = coin_price_bounds([0.5] * 40, (0, lambda s, k, bit: s + bit, accept))
    assert len(calls) == 41 and sorted(calls) == list(range(41))
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


def _digest_docs():
    """A fixed, seeded set of pricing documents: every kind, every threshold
    op with integer and fractional values, N up to 18, and price scripts
    that hold both 0 and 1."""
    rng = random.Random(5513)
    docs = []
    for n in (2, 4, 7, 11, 15, 18):
        for variant in range(14):
            script = [rng.random() for _ in range(n)]
            zero, one = rng.sample(range(n), 2)
            script[zero], script[one] = 0.0, 1.0
            if variant < 6:
                value = (rng.randint(-1, n + 1) if variant % 2 == 0
                         else rng.uniform(-1.0, n + 1.0))
                event = {"type": "threshold", "op": ("ge", "le", "eq")[variant // 2],
                         "value": value}
            elif variant < 8:
                event = {"type": "coordinate", "index": rng.randint(1, n),
                         "value": variant - 6}
            elif variant < 12:
                event = {"type": "leaves", "bitmasks": rng.sample(
                    range(1 << n), min(1 << n, rng.randint(0, 40)))}
            else:
                event = {"type": ("all", "empty")[variant - 12]}
            docs.append({"p_script": script, "event": event})
    return docs


# SHA-256 of the hex upper and lower price of each `_digest_docs` document,
# recorded before events were described as (start, step, accept).
PRICE_DIGEST = (84, "9766fcee79b284be44b711e1eb3517a0009cedbf2e4ad9cc1fc5fa42d7a49107")


def test_prices_are_bit_identical(tmp_path):
    lines = []
    for doc in _digest_docs():
        upper, lower = _price_file(tmp_path / "digest.yaml", doc)
        lines.append(f"{upper.hex()} {lower.hex()}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == PRICE_DIGEST
