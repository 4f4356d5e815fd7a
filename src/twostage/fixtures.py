"""Replay of the worked-example corpus.

Each fixture is a YAML document bundling an input (a profile, a grade
table, or a majority matrix in the package's text formats), a choice rule,
and a list of checks: expected choices, expected intermediate objects
(score counts, majority edges, grade tables, threshold classes, minimal
stable sets), and expected axiom outcomes.  Replaying a fixture recomputes
everything from the raw input and compares.

Checks may transform the input first: ``improve`` moves one alternative up
in one criterion, ``perturb`` flips one majority edge, and ``realize``
replaces a majority relation with a profile that generates it (used when a
second stage needs ballot information the relation alone cannot supply).

A document is read whole against its declared shapes before any input is
parsed or any check runs: a field a shape does not declare, a missing field or
a field of the wrong type is a ValueError naming the fixture and the field.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Collection, Iterable

import yaml

from . import axioms as _axioms
from . import catalog as _catalog
from .procedures import (
    _kernel_input,
    make_procedure,
    minimal_dominant_sets,
    minimal_undominated_sets,
    k_stable_sets,
    q_pareto,
    threshold_order,
    weakly_stable_sets,
)
from .profiles import (
    INPUT_PARSERS,
    RankImprovement,
    _fmt_set,
    borda_counts,
    first_place_counts,
    improve,
    last_place_counts,
    perturb_majority,
)

__all__ = [
    "CheckResult",
    "FixtureReport",
    "run_fixture",
    "run_fixture_file",
    "run_corpus",
    "corpus_dir",
]


@dataclass(frozen=True)
class CheckResult:
    description: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class FixtureReport:
    name: str
    title: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        lines = [f"[{mark}] {self.name}: {self.title}"]
        for c in self.checks:
            lines.append(f"  {'ok ' if c.passed else 'XX '}{c.description}"
                         + (f" -- {c.detail}" if c.detail and not c.passed else ""))
        return "\n".join(lines)


def corpus_dir() -> Path:
    return Path(importlib.resources.files("twostage") / "data" / "fixtures")


_COUNTS = {
    "first_place": first_place_counts,
    "last_place": last_place_counts,
    "borda": borda_counts,
}

_AXIOM_EXPECT = {"holds": True, "violated": False}

# each minimal-set family from a relation and the reach bound k, which only
# k-stable sets read
_MINIMAL_SETS = {
    "weakly_stable": lambda mu, k: weakly_stable_sets(mu),
    "dominant": lambda mu, k: minimal_dominant_sets(mu),
    "undominated": lambda mu, k: minimal_undominated_sets(mu),
    "k_stable": k_stable_sets,
}


def _by_size(s: frozenset[str]):
    return len(s), sorted(s)


def _sets_repr(sets: Iterable[Iterable[str]]) -> str:
    return "[" + ", ".join(_fmt_set(s) for s in sets) + "]"


# ---------------------------------------------------------------------------
# Declared shapes.  A field type reads one value into the plain value a check
# uses, or raises a ValueError naming where the value sits.  A shape maps each
# field a mapping may hold to its type, or to (type, default) if it is optional.
# A field of type ``_MAPPING`` or ``_LIST`` holds parts read by their own
# shapes, and is named by its key rather than as a field.

def _kind(shape: str, ok: Callable[[Any], bool], convert: Callable[[Any], Any] = lambda v: v):
    """The field type of the values that are ``ok``, read through ``convert``."""
    def read(value, where: str):
        if not ok(value):
            raise ValueError(f"{where} must be {shape}, not {value!r}")
        return convert(value)
    return read


def _is_int(v) -> bool:
    # not ``isinstance``: YAML's true and false are bools, which Python counts as ints
    return type(v) is int


def _is_procedure(v) -> bool:
    return _is_int(v) or isinstance(v, str)


def _is_list_of(ok: Callable[[Any], bool], length: int | None = None) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, list) and all(map(ok, v)) and length in (None, len(v))


def _is_map_of(ok: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, dict) and all(isinstance(k, str) and ok(x) for k, x in v.items())


def _map_of(shape: str, ok: Callable[[Any], bool]):
    """A mapping, whose keys are labels and whose values are ``ok``."""
    entries = _kind(f"a mapping of labels to {shape}", _is_map_of(ok))
    return lambda value, where: entries(_MAPPING(value, where), where)


def _one_of(names: Collection[str]):
    """A string, which is one of ``names``."""
    member = _kind("one of " + ", ".join(names), names.__contains__)
    return lambda value, where: member(_TEXT(value, where), where)


_is_labels = _is_list_of(lambda v: isinstance(v, str))
_TEXT = _kind("a string", lambda v: isinstance(v, str))
_INT = _kind("an integer", _is_int)
_MAPPING = _kind("a mapping", lambda v: isinstance(v, dict))
_LIST = _kind("a list", lambda v: isinstance(v, list))
_LABELS = _kind("a list of labels", _is_labels, frozenset)
_LABEL_SETS = _kind("a list of label lists", _is_list_of(_is_labels), lambda v: [frozenset(s) for s in v])
_PAIRS = _kind("a list of pairs", _is_list_of(_is_list_of(lambda v: isinstance(v, str), 2)),
               lambda v: sorted(map(tuple, v)))

_DOCUMENT = {"name": _TEXT, "title": (_TEXT, ""), "inputs": (_MAPPING, {}), "rule": (_MAPPING, None),
             "checks": (_LIST, [])}
_INPUT = {"kind": _one_of(INPUT_PARSERS), "text": _TEXT}
_RULE = {"procedure": (_kind("a procedure index or name", _is_procedure), None),
         "two_stage": (_kind("a list of two procedures", _is_list_of(_is_procedure, 2)), None),
         "q": (_INT, None), "k": (_INT, None)}
_TRANSFORM = {"improve": (_MAPPING, None), "perturb": (_MAPPING, None),
              "realize": (_kind("true", lambda v: v is True), None)}
_IMPROVE = {"target": _TEXT, "criterion": _INT, "steps": _INT}
_PERTURB = {"winner": _TEXT, "loser": _TEXT}
# the fields of every check; ``_OPS`` declares the rest, op by op
_CHECK = {"op": _TEXT, "input": (_TEXT, "main"), "apply": (_LIST, [])}


def _field(mapping: dict, key: str, spec, where: str):
    kind, *default = spec if isinstance(spec, tuple) else (spec,)
    if key in mapping:
        return kind(mapping[key], f"{where}: {key}" if kind in (_MAPPING, _LIST) else f"{where}: field {key!r}")
    if not default:
        raise ValueError(f"{where} has no {key!r} field")
    return default[0]


def _read(shape: dict[str, Any], value, where: str) -> dict[str, Any]:
    """``value`` read as a mapping that holds only the fields ``shape`` declares."""
    for key in _MAPPING(value, where):
        if key not in shape:
            raise ValueError(f"{where} has an unknown field {key!r}")
    return {key: _field(value, key, spec, where) for key, spec in shape.items()}


def _document(doc, where: str) -> dict[str, Any]:
    """``doc`` read part by part, each rule built and each transform read as a function."""
    where = f"fixture {_field(_MAPPING(doc, where), 'name', _TEXT, where)}"
    doc = _read(_DOCUMENT, doc, where)
    doc["inputs"] = {key: _read(_INPUT, spec, f"{where}: input {key!r}")
                     for key, spec in doc["inputs"].items()}
    if doc["rule"] is not None:
        doc["rule"] = _rule(doc["rule"], f"{where}: rule")
    doc["checks"] = [_check(check, doc, f"{where}: check {number}")
                     for number, check in enumerate(doc["checks"], start=1)]
    return doc


def _rule(spec, where: str):
    spec = _read(_RULE, spec, where)
    if (spec["procedure"] is None) == (spec["two_stage"] is None):
        raise ValueError(f"{where} must name either a procedure or a two-stage pair")
    try:
        if spec["two_stage"] is not None:
            return _catalog.compose(*spec["two_stage"], q=spec["q"], k=spec["k"])
        return make_procedure(spec["procedure"], q=spec["q"], k=spec["k"])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _check(check, doc: dict[str, Any], where: str) -> dict[str, Any]:
    shape = _OPS[_field(_MAPPING(check, where), "op", _one_of(_OPS), where)][1]
    check = _read({**_CHECK, **shape}, check, where)
    if check["input"] not in doc["inputs"]:
        raise ValueError(f"{where}: no input named {check['input']!r}")
    check["apply"] = [_transform(step, f"{where}: transform {number}")
                      for number, step in enumerate(check["apply"], start=1)]
    if "rule" in shape:
        check["rule"] = doc["rule"] if check["rule"] is None else _rule(check["rule"], f"{where}: rule")
        if check["rule"] is None:
            raise ValueError(f"{where} needs a rule")
    if check.get("expect_stage1") is not None and not hasattr(check["rule"], "choose_detailed"):
        raise ValueError(f"{where}: expect_stage1 needs a two-stage rule")
    return check


def _transform(step, where: str) -> Callable[[Any], Any]:
    step = _read(_TRANSFORM, step, where)
    if sum(value is not None for value in step.values()) != 1:
        raise ValueError(f"{where} must hold exactly one of {', '.join(_TRANSFORM)}")
    if step["improve"] is not None:
        spec = _read(_IMPROVE, step["improve"], f"{where}: improve")
        change = RankImprovement(spec["target"], spec["criterion"] - 1, spec["steps"])
        return lambda obj: improve(obj, change)
    if step["perturb"] is not None:
        spec = _read(_PERTURB, step["perturb"], f"{where}: perturb")
        return lambda obj: perturb_majority(obj, spec["winner"], spec["loser"])
    return _axioms.realizing_profile


# ---------------------------------------------------------------------------
# Check handlers.  Each takes a read check, its transformed input and ``read``,
# which gives the input as a ``kind`` kernel reads it on ``subset``, and yields
# (description, got, want, how got is shown) for each comparison it makes.

def _choose(check, obj, read):
    rule, subset = check["rule"], check["subset"] or None
    on = f" on {_fmt_set(subset)}" if subset else ""
    if check["expect_stage1"] is None:
        final = rule.choose(obj, subset)
    else:
        stage1, final = rule.choose_detailed(obj, subset)
        yield f"first stage{on} -> {_fmt_set(check['expect_stage1'])}", stage1, check["expect_stage1"], _fmt_set
    yield f"choice{on} -> {_fmt_set(check['expect'])}", final, check["expect"], _fmt_set


def _counts(check, obj, read):
    which, want = check["counts"], check["expect"]
    yield f"{which} counts = {want}", _COUNTS[which](read("profile")), want, str


def _majority_edges(check, obj, read):
    yield f"majority edges = {check['expect']}", sorted(read("mu").edges()), check["expect"], str


def _support(check, obj, read):
    t, want = read("support"), check["expect"]
    yield "pairwise support matrix", {x: {y: t.support(x, y) for y in row} for x, row in want.items()}, want, str


def _grade_table(check, obj, read):
    g, want = read("grades"), check["expect"]
    yield "grade table", {label: list(g.column(label)) for label in want}, want, str


def _threshold_order(check, obj, read):
    got, want = [frozenset(c) for c in threshold_order(read("grades"))], check["expect"]
    yield f"threshold order = {_sets_repr(want)}", got, want, _sets_repr


def _minimal_sets(check, obj, read):
    subset, which, want = check["subset"] or None, check["solution"], check["expect"]
    got = _MINIMAL_SETS[which](read("mu", subset), check["k"])
    on = f" on {_fmt_set(subset)}" if subset else ""
    yield (f"minimal {which} sets{on} = {_sets_repr(want)}",
           sorted(got, key=_by_size), sorted(want, key=_by_size), _sets_repr)


def _qpareto(check, obj, read):
    q, want = check["q"], check["expect"]
    yield f"q-Pareto at q={q} -> {_fmt_set(want)}", q_pareto(read("grades"), q), want, _fmt_set


def _axiom(check, obj, read):
    verdict = _axioms.check_axiom(check["rule"], obj, check["axiom"], mon2_strict=check["mon2_strict"])
    holds = _AXIOM_EXPECT[check["expect"]]
    found = f"a violation: {verdict.witness.description}" if verdict.witness else "no violation"
    yield (f"axiom {check['axiom']} {'holds' if holds else 'is violated'}",
           verdict.holds, holds, lambda _: found)


# each check op's handler and the fields it reads besides ``_CHECK``'s
_OPS: dict[str, tuple[Callable, dict[str, Any]]] = {
    "choose": (_choose, {"rule": (_MAPPING, None), "subset": (_LABELS, None),
                         "expect_stage1": (_LABELS, None), "expect": _LABELS}),
    "counts": (_counts, {"counts": _one_of(_COUNTS), "expect": _map_of("integers", _is_int)}),
    "majority_edges": (_majority_edges, {"expect": _PAIRS}),
    "support": (_support, {"expect": _map_of("mappings of labels to integers", _is_map_of(_is_int))}),
    "grade_table": (_grade_table, {"expect": _map_of("lists of integers", _is_list_of(_is_int))}),
    "threshold_order": (_threshold_order, {"expect": _LABEL_SETS}),
    "minimal_sets": (_minimal_sets, {"subset": (_LABELS, None), "solution": _one_of(_MINIMAL_SETS),
                                     "k": (_INT, 2), "expect": _LABEL_SETS}),
    "qpareto": (_qpareto, {"q": _INT, "expect": _LABELS}),
    "axiom": (_axiom, {"rule": (_MAPPING, None), "axiom": _one_of(_axioms.AXIOMS),
                       "mon2_strict": (_kind("true or false", lambda v: isinstance(v, bool)), False),
                       "expect": _one_of(_AXIOM_EXPECT)}),
}


def _replay(doc, where: str) -> FixtureReport:
    doc = _document(doc, where)
    inputs = {key: INPUT_PARSERS[spec["kind"]](spec["text"]) for key, spec in doc["inputs"].items()}
    results = []
    for check in doc["checks"]:
        obj = inputs[check["input"]]
        for step in check["apply"]:
            obj = step(obj)
        where = f"fixture {doc['name']}: {check['op']}"
        read = lambda kind, subset=None: _kernel_input(kind, obj, subset, where)
        for description, got, want, shown in _OPS[check["op"]][0](check, obj, read):
            results.append(CheckResult(description, got == want, f"got {shown(got)}"))
    return FixtureReport(doc["name"], doc["title"], tuple(results))


def run_fixture(doc: dict[str, Any]) -> FixtureReport:
    return _replay(doc, "fixture document")


def run_fixture_file(path: str | Path) -> FixtureReport:
    try:
        doc = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return _replay(doc, f"{path}: fixture document")


def run_corpus(directory: str | Path | None = None) -> list[FixtureReport]:
    base = Path(directory) if directory is not None else corpus_dir()
    return [run_fixture_file(path) for path in sorted(base.glob("*.yaml"))]
