"""Arbitrary text given to the three input parsers, directly and through the
CLI: a parser returns a valid object or raises ``ProfileFormatError``, and
the CLI exits 0 or 2 with at most one ``error:`` line."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from twostage.cli import main  # noqa: E402
from twostage.profiles import (  # noqa: E402
    GradeTable,
    MajorityRelation,
    Profile,
    ProfileFormatError,
    parse_grade_table,
    parse_majority_matrix,
    parse_profile,
)

# tokens each format is made of, plus near misses, so that some draws parse
TOKENS = st.sampled_from([
    "a", "b", "c", "a", "b", "-", "0", "1", "2", "-3", "#", "x#y", "1.5",
    "9223372036854775807", "-9223372036854775808", "99999999999999999999",
])
LINES = st.lists(st.lists(TOKENS, max_size=4).map(" ".join), max_size=5).map("\n".join)
# a line of m distinct labels, then rows of m tokens
SHAPED = st.integers(1, 3).flatmap(
    lambda m: st.lists(st.lists(TOKENS, min_size=m, max_size=m).map(" ".join), max_size=4).map(
        lambda rows: "\n".join([" ".join("abc"[:m]), *rows])
    )
)
TEXT = st.one_of(st.text(), LINES, SHAPED)

PARSERS = [
    (parse_profile, Profile),
    (parse_grade_table, GradeTable),
    (parse_majority_matrix, MajorityRelation),
]


@pytest.mark.parametrize("parse, kind", PARSERS, ids=lambda v: getattr(v, "__name__", ""))
@hypothesis.given(text=TEXT)
def test_a_parser_returns_its_kind_or_raises_a_format_error(parse, kind, text):
    try:
        parsed = parse(text)
    except ProfileFormatError:
        return
    assert isinstance(parsed, kind)


@pytest.mark.parametrize("flags", [
    ("--proc", "7", "--profile"),
    ("--proc", "22", "--grades"),
    ("--proc", "19", "--majority"),
], ids=lambda flags: flags[-1])
@hypothesis.given(text=TEXT)
def test_the_cli_exits_0_or_2_with_one_error_line(flags, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["choose", *flags, str(path)])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
