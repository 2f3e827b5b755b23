"""Fuzzing of the input layer: arbitrary bytes and text, and stock scenario
files with one line changed or one character inserted, go through
`load_yaml` and `gtpsim run`.  Whatever the text, `load_yaml` gives a
document or a ScenarioError that starts with the path, and `gtpsim run`
exits 0, 1 or 2, with exactly one `error:` line when it exits 2."""

import contextlib
import io
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gtpsim.cli import main
from gtpsim.scenario import ScenarioError, load_yaml

STOCK = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))
STOCK_TEXTS = [path.read_text(encoding="utf-8") for path in STOCK]
STOCK_LINES = sorted({line for text in STOCK_TEXTS for line in text.split("\n")})
CHARACTERS = st.characters(blacklist_categories=("Cs",))


@st.composite
def changed_stock_files(draw):
    """A stock file with one line replaced (by drawn text or by a line of
    any stock file) or with one character inserted."""
    text = draw(st.sampled_from(STOCK_TEXTS))
    if draw(st.booleans()):
        lines = text.split("\n")
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.one_of(
            st.text(CHARACTERS, max_size=24), st.sampled_from(STOCK_LINES)))
        return "\n".join(lines)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(CHARACTERS) + text[at:]


INPUTS = st.one_of(
    st.binary(max_size=64),
    st.text(CHARACTERS, max_size=64).map(str.encode),
    changed_stock_files().map(str.encode),
)


def _write(tmp_path_factory, data: bytes) -> Path:
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_bytes(data)
    return path


@seed(3010)
@settings(deadline=None, max_examples=300)
@given(data=INPUTS)
def test_load_yaml_gives_a_document_or_an_error_that_names_the_file(tmp_path_factory,
                                                                    data):
    path = _write(tmp_path_factory, data)
    try:
        load_yaml(path)
    except ScenarioError as exc:
        assert str(exc).startswith(f"{path}: "), exc


@seed(3011)
@settings(deadline=None, max_examples=300)
@given(data=INPUTS)
def test_gtpsim_run_exits_0_1_or_2_with_one_error_line(tmp_path_factory, data):
    path = _write(tmp_path_factory, data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), "--horizon", "20"])
    assert code in (0, 1, 2)
    if code == 2:
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert err.getvalue().startswith("error: ") and len(errors) == 1, err.getvalue()
        assert out.getvalue() == ""
