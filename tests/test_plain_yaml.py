"""`plain_yaml`, the reader of the plain YAML that scenario files are
written in, checked against PyYAML: wherever it gives a document, it is the
one PyYAML builds, type for type and float bit for float bit; everything
else it declines, and PyYAML reads it."""

import importlib.util
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gtpsim import plain_yaml
from gtpsim.scenario import MAX_NESTING, load_yaml

from _support import same_document

REPO = Path(__file__).resolve().parent.parent


def pyyaml(text):
    """PyYAML's document of `text`, or the YAMLError it raises."""
    try:
        return yaml.load(text, Loader=yaml.CSafeLoader)
    except yaml.YAMLError as exc:
        return exc


def read(text):
    return plain_yaml.read(text, MAX_NESTING)


@pytest.mark.parametrize("path", sorted((REPO / "scenarios").glob("*.yaml")),
                         ids=lambda path: path.name)
def test_every_stock_file_is_read_as_pyyaml_reads_it(path):
    text = path.read_text(encoding="utf-8")
    doc = read(text)
    assert doc is not None
    assert same_document(doc, pyyaml(text))


def _bench_workloads():
    """bench/workloads.py, which builds the benchmark's input files."""
    name = "bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, REPO / "bench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("bench_seed", [7, 31, 2901])
def test_the_benchmark_scenario_texts_are_read_as_pyyaml_reads_them(bench_seed):
    texts = _bench_workloads().replay_scenario_texts(bench_seed)
    manifest = "scenarios:\n" + "".join(f"  - {name}.yaml\n" for name in texts)
    for text in [*texts.values(), manifest]:
        doc = read(text)
        assert doc is not None, text
        assert same_document(doc, pyyaml(text)), text


@pytest.mark.parametrize("text", [
    "a: 'x'\n", 'a: "x"\n', "a:\tx\n", "\ufeffa: 1\n", "---\na: 1\n", "a: 1\n...\n",
    "a: &x 1\nb: *x\n", "a: !!str 1\n", "a: |\n  x\n", "a: >\n  x\n",
    "a: 1e5\n", "a: 0x1F\n", "a: 017\n", "a: 1_000\n", "a: 1:30\n", "a: .inf\n",
    "a: yes\n", "a: On\n", "a: TRUE\n", "a: Null\n", "a: y\n", "a: x y\n", "a: b:c\n",
    "1: a\n", "true: a\n", "a b: 1\n", "- a: 1\n", "- - 1\n", "-\n  - 1\n", "a:\n- 1\n",
    "a: 1\n  b: 2\n", "a:\n  b: 1\n c: 2\n", "  a: 1\nb: 2\n", "- 1\n  - 2\n",
    "a: [1,\n  2]\n", "a: [1, 2,]\n", "a: {b: }\n", "a: {b:1}\n", "a: [1] x\n",
    "a: 1#x\n", "a: 1\r\nb: 2\r\n", "5\n", "", "# only a comment\n", "[1]\n[2]\n",
    "k" * 129 + ": 1\n", "a: b\x85c\n",
], ids=repr)
def test_text_outside_the_plain_forms_is_declined_and_read_by_pyyaml(tmp_path, text):
    assert read(text) is None
    path = tmp_path / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    expected = pyyaml(text)
    if isinstance(expected, yaml.YAMLError):
        with pytest.raises(ValueError, match="not valid YAML"):
            load_yaml(path)
    else:
        assert same_document(load_yaml(path), expected)


@pytest.mark.parametrize("shape", ["block", "flow", "block-then-flow"])
def test_a_document_nested_past_the_limit_is_declined(shape):
    def nested(levels):
        if shape == "flow":
            return "{a: " * levels + "1" + "}" * levels
        if shape == "block":
            return "".join(" " * i + "a:\n" for i in range(levels - 1)) + \
                " " * (levels - 1) + "a: 1\n"
        half = levels // 2
        brackets = levels - half - 1
        return "".join(" " * i + "a:\n" for i in range(half)) + \
            " " * half + "a: " + "[" * brackets + "1" + "]" * brackets + "\n"
    assert same_document(read(nested(MAX_NESTING)), pyyaml(nested(MAX_NESTING)))
    assert read(nested(MAX_NESTING + 1)) is None
    if shape == "flow":
        assert read(nested(50_000)) is None


# ---------------------------------------------------------------------------
# Drawn documents
# ---------------------------------------------------------------------------

def _float_texts():
    return st.tuples(
        st.sampled_from(["", "-", "+"]), st.from_regex(r"[0-9]{1,4}", fullmatch=True),
        st.from_regex(r"[0-9]{0,17}", fullmatch=True),
        st.one_of(st.just(""), st.from_regex(r"[eE][-+][0-9]{1,3}", fullmatch=True)),
    ).map(lambda t: f"{t[0]}{t[1]}.{t[2]}{t[3]}")


WORD = st.from_regex(r"[A-Za-z][A-Za-z0-9_./-]{0,8}", fullmatch=True).filter(
    lambda word: word.lower() not in {"y", "n", "yes", "no", "true", "false", "on",
                                      "off", "null"})
CLEAN_SCALAR = st.one_of(
    st.integers(-10 ** 25, 10 ** 25).map(str),
    st.integers(0, 99).map(lambda n: f"+{n}"),
    _float_texts(),
    st.sampled_from(["true", "false", "null", "~", "-0", "-0.0", "0.", "1.e+5"]),
    WORD,
)
# Scalars and keys from the decline list, most of which PyYAML reads.
NEAR_MISS = st.sampled_from([
    "1e5", "1.5e5", "0x1F", "017", "0o17", "0b101", "1_000", "1:30", ".inf", "-.inf",
    ".nan", ".5", "+.5", "yes", "No", "On", "OFF", "True", "FALSE", "Null", "NULL", "y",
    "N", "'a'", '"a"', "&x a", "*x", "!!str a", "@a", "`a", "%a", "a b", "a:b", "-",
    "2001-01-01", "<<", "=", "?", "a,b", "~a",
])
NEAR_MISS_KEY = st.sampled_from(["1", "1.5", "true", "yes", "Null", "~", "a b", "'a'",
                                 "-a", ".a", "a,b", "[a]", "=", "<<"])


@st.composite
def documents(draw):
    """(YAML text of a drawn document in the plain forms, whether every
    scalar and key in it is one `plain_yaml` reads)."""
    clean = True

    def scalar(may_be_empty=False):
        nonlocal clean
        if draw(st.integers(0, 19)) == 0:
            clean = False
            return draw(NEAR_MISS)
        if may_be_empty and draw(st.integers(0, 9)) == 0:
            return ""                                   # an empty mapping value
        return draw(CLEAN_SCALAR)

    def key():
        nonlocal clean
        if draw(st.integers(0, 29)) == 0:
            clean = False
            return draw(NEAR_MISS_KEY)
        return draw(WORD)

    def comment():
        if draw(st.integers(0, 3)):
            return ""
        return draw(st.sampled_from([" ", "  ", "   "])) + "#" + draw(
            st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8))

    def flow(depth):
        if depth and (depth >= 3 or draw(st.integers(0, 2)) == 0):
            return scalar()
        sep = draw(st.sampled_from([", ", ",", " , ", ",  "]))
        pad = draw(st.sampled_from(["", " "]))
        if draw(st.booleans()):
            items = [flow(depth + 1) for _ in range(draw(st.integers(0, 3)))]
            return "[" + pad + sep.join(items) + pad + "]"
        pairs = [f"{key()}: {flow(depth + 1)}" for _ in range(draw(st.integers(0, 3)))]
        return "{" + pad + sep.join(pairs) + pad + "}"

    lines = []

    def extra_lines(indent):
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(st.sampled_from(["", " " * indent, " " * indent + "# note",
                                               "#", "  # x: [1"])))

    def block(indent, depth, is_map):
        for _ in range(draw(st.integers(1, 3))):
            extra_lines(indent)
            pad = " " * indent
            lead = f"{pad}{key()}:" if is_map else f"{pad}-"
            form = draw(st.integers(0, 3)) if depth < 3 else 0
            if form == 0:
                value = scalar(may_be_empty=is_map)
                lines.append(lead + (" " + value if value else "") + comment())
            elif form == 1 or not is_map:
                lines.append(lead + " " + flow(depth) + comment())
            else:
                lines.append(lead + comment())
                block(indent + draw(st.integers(1, 4)), depth + 1, form == 2)

    if draw(st.integers(0, 4)) == 0:
        lines.append(" " * draw(st.integers(0, 2)) + flow(0) + comment())
    else:
        block(draw(st.integers(0, 2)), 1, draw(st.booleans()))
    extra_lines(0)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"])), clean


@seed(3001)
@settings(deadline=None, max_examples=300)
@given(drawn=documents())
def test_a_drawn_document_is_read_as_pyyaml_reads_it(drawn):
    text, clean = drawn
    doc, expected = read(text), pyyaml(text)
    if clean:
        assert doc is not None, text
    if not clean or isinstance(expected, yaml.YAMLError):
        assert doc is None, text
    if doc is not None:
        assert same_document(doc, expected), (text, doc, expected)


@seed(3002)
@settings(deadline=None, max_examples=300)
@given(drawn=documents(), data=st.data())
def test_a_drawn_document_with_one_character_changed_is_read_as_pyyaml_reads_it(
        drawn, data):
    text = drawn[0]
    at = data.draw(st.integers(0, len(text)))
    if data.draw(st.booleans()) or at == len(text):
        text = text[:at] + data.draw(st.sampled_from(" \n-:#[]{},'\"&*!|>?.0a\t")) + text[at:]
    else:
        text = text[:at] + text[at + 1:]
    doc, expected = read(text), pyyaml(text)
    if isinstance(expected, yaml.YAMLError):
        assert doc is None, text
    if doc is not None:
        assert same_document(doc, expected), (text, doc, expected)
