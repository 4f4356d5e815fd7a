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
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

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


# the default of a field a fixture must give
_REQUIRED = object()


class _Fields(dict):
    """A mapping of a fixture document, whose missing field, or field of the
    wrong type, is an input error that says where the mapping sits."""

    def __init__(self, value: dict[str, Any], where: str):
        super().__init__(value)
        self.where = where

    def __missing__(self, key):
        raise ValueError(f"{self.where} has no {key!r} field")

    def _read(self, key, default, ok: Callable[[Any], bool], shape: str):
        """Field ``key``, or ``default`` when it is absent and not
        ``_REQUIRED``; any other value must be ``ok``."""
        value = self[key] if default is _REQUIRED else self.get(key, default)
        if value is not default and not ok(value):
            raise ValueError(f"{self.where}: field {key!r} must be {shape}, not {value!r}")
        return value

    def text(self, key, default=_REQUIRED) -> str:
        return self._read(key, default, lambda v: isinstance(v, str), "a string")

    def integer(self, key, default=_REQUIRED) -> int:
        # not ``isinstance``: YAML's true and false are bools, which Python counts as ints
        return self._read(key, default, lambda v: type(v) is int, "an integer")

    def mapping(self, key) -> "_Fields":
        return _Fields(self._read(key, _REQUIRED, lambda v: isinstance(v, dict), "a mapping"),
                       f"{self.where}: field {key!r}")

    def pairs(self, key) -> list[tuple[str, str]]:
        """A list of two-item lists, each read as a pair of labels."""
        def ok(v):
            return isinstance(v, list) and all(isinstance(pair, list) and len(pair) == 2 for pair in v)

        return [(str(x), str(y)) for x, y in self._read(key, _REQUIRED, ok, "a list of pairs")]


class _FixtureRunner:
    def __init__(self, doc: dict[str, Any]):
        self.name = _Fields(doc, "fixture document")["name"]
        self.title = doc.get("title", "")
        raw = self._mapping(doc.get("inputs", {}), "inputs")
        self.inputs = {key: self._parse_input(key, spec) for key, spec in raw.items()}
        self.rule = self._rule(doc.get("rule"), "rule")
        self.checks = doc.get("checks", [])
        if not isinstance(self.checks, list):
            raise self._invalid("checks must be a list")
        self.results: list[CheckResult] = []

    def _invalid(self, message: str) -> ValueError:
        return ValueError(f"fixture {self.name}: {message}")

    def _mapping(self, value, what: str) -> _Fields:
        if not isinstance(value, dict):
            raise self._invalid(f"{what} must be a mapping")
        return _Fields(value, f"fixture {self.name}: {what}")

    def _lookup(self, table: dict[str, Any], key, what: str):
        if key not in table:
            raise self._invalid(f"unknown {what} {key!r}")
        return table[key]

    def _rule(self, spec, what: str):
        if spec is None:
            return None
        spec = self._mapping(spec, what)
        if "two_stage" in spec:
            pair = spec["two_stage"]
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise self._invalid(f"the two_stage of {what} must be a list of two procedures")
            return _catalog.compose(*pair, q=spec.integer("q", None), k=spec.integer("k", None))
        if "procedure" in spec:
            return make_procedure(spec["procedure"], q=spec.integer("q", None), k=spec.integer("k", None))
        raise self._invalid(f"{what} must name either a procedure or a two-stage pair")

    def _listed(self, value, what: str):
        """``value``, refused as a bare string, which would read as its characters."""
        if isinstance(value, str):
            raise self._invalid(f"write {what} as a list, not the string {value!r}")
        return value

    def _set(self, value) -> frozenset[str]:
        value = self._listed(value, "a set")
        return frozenset() if value is None else frozenset(str(v) for v in value)

    def _sets(self, value) -> list[frozenset[str]]:
        return [self._set(v) for v in self._listed(value, "a list of sets")]

    def _parse_input(self, key: str, spec) -> object:
        spec = self._mapping(spec, f"input {key!r}")
        parse = self._lookup(INPUT_PARSERS, spec.text("kind"), "input kind")
        if not isinstance(spec["text"], str):
            raise self._invalid(f"the text of input {key!r} must be a string")
        return parse(spec["text"])

    def _input(self, check: dict[str, Any]):
        name = check.text("input", "main")
        if name not in self.inputs:
            raise self._invalid(f"no input named {name!r}")
        obj = self.inputs[name]
        for step in check.get("apply") or ():
            step = self._mapping(step, "a transform")
            if "improve" in step:
                spec = self._mapping(step["improve"], "an improve transform")
                change = RankImprovement(
                    spec.text("target"), spec.integer("criterion") - 1, spec.integer("steps")
                )
                obj = improve(obj, change)
            elif "perturb" in step:
                spec = self._mapping(step["perturb"], "a perturb transform")
                obj = perturb_majority(obj, spec.text("winner"), spec.text("loser"))
            elif step.get("realize"):
                obj = _axioms.realizing_profile(obj)
            else:
                raise self._invalid(f"unknown transform {step!r}")
        return obj

    def _read(self, check: dict[str, Any], kind: str, subset: frozenset[str] | None = None):
        """The check's input as a ``kind`` kernel reads it."""
        where = f"fixture {self.name}: {check['op']}"
        return _kernel_input(kind, self._input(check), subset, where)

    def _subset(self, check: dict[str, Any]) -> frozenset[str] | None:
        subset = check.get("subset")
        return self._set(subset) if subset else None

    def _rule_for(self, check: dict[str, Any]):
        if "rule" in check:
            return self._rule(check["rule"], "a check's rule")
        if self.rule is None:
            raise self._invalid("check needs a rule")
        return self.rule

    def _record(self, description: str, got, want, shown: Callable[[Any], str]):
        """One check, passed when ``got == want``, with ``got`` as ``shown`` renders it."""
        self.results.append(CheckResult(description, got == want, f"got {shown(got)}"))

    # ------------------------------------------------------------------
    def run(self) -> FixtureReport:
        for number, check in enumerate(self.checks, start=1):
            check = self._mapping(check, f"check {number}")
            op = check.text("op")
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise self._invalid(f"unknown check op {op!r}")
            handler(check)
        return FixtureReport(self.name, self.title, tuple(self.results))

    # ------------------------------------------------------------------
    def _op_choose(self, check):
        rule = self._rule_for(check)
        obj = self._input(check)
        subset = self._subset(check)
        where = f" on {_fmt_set(subset)}" if subset else ""
        if "expect_stage1" in check:
            if not hasattr(rule, "choose_detailed"):
                raise self._invalid("expect_stage1 needs a two-stage rule")
            stage1, final = rule.choose_detailed(obj, subset)
            want = self._set(check["expect_stage1"])
            self._record(f"first stage{where} -> {_fmt_set(want)}", stage1, want, _fmt_set)
        else:
            final = rule.choose(obj, subset)
        want = self._set(check["expect"])
        self._record(f"choice{where} -> {_fmt_set(want)}", final, want, _fmt_set)

    def _op_counts(self, check):
        p = self._read(check, "profile")
        which = check.text("counts")
        got = self._lookup(_COUNTS, which, "counts")(p)
        expect = check.mapping("expect")
        want = {str(label): expect.integer(label) for label in expect}
        self._record(f"{which} counts = {want}", got, want, str)

    def _op_majority_edges(self, check):
        got = sorted(self._read(check, "mu").edges())
        want = sorted(check.pairs("expect"))
        self._record(f"majority edges = {want}", got, want, str)

    def _op_support(self, check):
        t = self._read(check, "support")
        expect = check.mapping("expect")
        rows = {x: expect.mapping(x) for x in expect}
        want = {str(x): {str(y): row.integer(y) for y in row} for x, row in rows.items()}
        got = {x: {y: t.support(x, y) for y in row} for x, row in want.items()}
        self._record("pairwise support matrix", got, want, str)

    def _op_grade_table(self, check):
        g = self._read(check, "grades")
        expect = check.mapping("expect")
        want = {str(label): [int(v) for v in column] for label, column in expect.items()}
        got = {label: list(g.column(label)) for label in want}
        self._record("grade table", got, want, str)

    def _op_threshold_order(self, check):
        got = [frozenset(c) for c in threshold_order(self._read(check, "grades"))]
        want = self._sets(check["expect"])
        self._record(f"threshold order = {_sets_repr(want)}", got, want, _sets_repr)

    def _op_minimal_sets(self, check):
        subset = self._subset(check)
        mu = self._read(check, "mu", subset)
        which = check.text("solution")
        got = self._lookup(_MINIMAL_SETS, which, "solution family")(mu, check.integer("k", 2))
        want = self._sets(check["expect"])
        where = f" on {_fmt_set(subset)}" if subset else ""
        self._record(
            f"minimal {which} sets{where} = {_sets_repr(want)}",
            sorted(got, key=_by_size),
            sorted(want, key=_by_size),
            _sets_repr,
        )

    def _op_qpareto(self, check):
        q = check.integer("q")
        got = q_pareto(self._read(check, "grades"), q)
        want = self._set(check["expect"])
        self._record(f"q-Pareto at q={q} -> {_fmt_set(want)}", got, want, _fmt_set)

    def _op_axiom(self, check):
        rule = self._rule_for(check)
        obj = self._input(check)
        axiom = _axioms.normalize_axiom(check.text("axiom"))
        strict = bool(check.get("mon2_strict", False))
        verdict = _axioms.check_axiom(rule, obj, axiom, mon2_strict=strict)
        want_holds = self._lookup(_AXIOM_EXPECT, check.text("expect"), "axiom expectation")
        found = f"a violation: {verdict.witness.description}" if verdict.witness else "no violation"
        self._record(
            f"axiom {axiom} {'holds' if want_holds else 'is violated'}",
            verdict.holds,
            want_holds,
            lambda holds: found,
        )


def run_fixture(doc: dict[str, Any]) -> FixtureReport:
    return _FixtureRunner(doc).run()


def run_fixture_file(path: str | Path) -> FixtureReport:
    try:
        doc = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a fixture document must be a mapping")
    return run_fixture(doc)


def run_corpus(directory: str | Path | None = None) -> list[FixtureReport]:
    base = Path(directory) if directory is not None else corpus_dir()
    return [run_fixture_file(path) for path in sorted(base.glob("*.yaml"))]
