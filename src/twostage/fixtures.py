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
from typing import Any, Iterable

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


def _parse_input(spec: dict[str, Any]):
    parse = INPUT_PARSERS.get(spec["kind"])
    if parse is None:
        raise ValueError(f"unknown input kind {spec['kind']!r}")
    return parse(spec["text"])


def _build_rule(spec: dict[str, Any] | None):
    if spec is None:
        return None
    if "two_stage" in spec:
        first, second = spec["two_stage"]
        return _catalog.compose(first, second, q=spec.get("q"), k=spec.get("k"))
    if "procedure" in spec:
        return make_procedure(spec["procedure"], q=spec.get("q"), k=spec.get("k"))
    raise ValueError("rule must name either a procedure or a two-stage pair")


def _apply_transforms(obj, steps: list[dict[str, Any]] | None):
    if not steps:
        return obj
    for step in steps:
        if "improve" in step:
            spec = step["improve"]
            change = RankImprovement(
                spec["target"], int(spec["criterion"]) - 1, int(spec["steps"])
            )
            obj = improve(obj, change)
        elif "perturb" in step:
            spec = step["perturb"]
            obj = perturb_majority(obj, spec["winner"], spec["loser"])
        elif step.get("realize"):
            obj = _axioms.realizing_profile(obj)
        else:
            raise ValueError(f"unknown transform {step!r}")
    return obj


def _expect_set(value) -> frozenset[str]:
    return frozenset() if value is None else frozenset(str(v) for v in value)


def _expect_sets(value) -> list[frozenset[str]]:
    return [_expect_set(v) for v in value]


def _sets_repr(sets: Iterable[Iterable[str]]) -> str:
    return "[" + ", ".join(_fmt_set(s) for s in sets) + "]"


class _FixtureRunner:
    def __init__(self, doc: dict[str, Any]):
        self.name = doc["name"]
        self.title = doc.get("title", "")
        raw = doc.get("inputs", {})
        self.inputs = {key: _parse_input(spec) for key, spec in raw.items()}
        self.rule = _build_rule(doc.get("rule"))
        self.checks = doc.get("checks", [])
        self.results: list[CheckResult] = []

    def _input(self, check: dict[str, Any]):
        name = check.get("input", "main")
        if name not in self.inputs:
            raise ValueError(f"fixture {self.name} has no input named {name!r}")
        return _apply_transforms(self.inputs[name], check.get("apply"))

    def _read(self, check: dict[str, Any], kind: str, subset: frozenset[str] | None = None):
        """The check's input as a ``kind`` kernel reads it."""
        where = f"fixture {self.name}: {check['op']}"
        return _kernel_input(kind, self._input(check), subset, where)

    def _rule_for(self, check: dict[str, Any]):
        if "rule" in check:
            return _build_rule(check["rule"])
        if self.rule is None:
            raise ValueError(f"fixture {self.name}: check needs a rule")
        return self.rule

    def _record(self, description: str, passed: bool, detail: str = ""):
        self.results.append(CheckResult(description, passed, detail))

    # ------------------------------------------------------------------
    def run(self) -> FixtureReport:
        for check in self.checks:
            op = check["op"]
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise ValueError(f"unknown check op {op!r}")
            handler(check)
        return FixtureReport(self.name, self.title, tuple(self.results))

    # ------------------------------------------------------------------
    def _op_choose(self, check):
        rule = self._rule_for(check)
        obj = self._input(check)
        subset = check.get("subset")
        subset_fs = frozenset(subset) if subset else None
        where = f" on {_fmt_set(subset)}" if subset else ""
        if "expect_stage1" in check:
            stage1, final = rule.choose_detailed(obj, subset_fs)
            want = _expect_set(check["expect_stage1"])
            self._record(
                f"first stage{where} -> {_fmt_set(want)}",
                stage1 == want,
                f"got {_fmt_set(stage1)}",
            )
        else:
            final = rule.choose(obj, subset_fs)
        want = _expect_set(check["expect"])
        self._record(
            f"choice{where} -> {_fmt_set(want)}",
            final == want,
            f"got {_fmt_set(final)}",
        )

    def _op_counts(self, check):
        p = self._read(check, "profile")
        which = check["counts"]
        fn = {
            "first_place": first_place_counts,
            "last_place": last_place_counts,
            "borda": borda_counts,
        }[which]
        got = fn(p)
        want = {str(k): int(v) for k, v in check["expect"].items()}
        self._record(f"{which} counts = {want}", got == want, f"got {got}")

    def _op_majority_edges(self, check):
        mu = self._read(check, "mu")
        got = sorted(mu.edges())
        want = sorted((str(x), str(y)) for x, y in check["expect"])
        self._record(
            f"majority edges = {want}",
            got == want,
            f"got {got}",
        )

    def _op_support(self, check):
        t = self._read(check, "support")
        ok = True
        detail = ""
        for x, row in check["expect"].items():
            for y, count in row.items():
                got = t.support(str(x), str(y))
                if got != int(count):
                    ok = False
                    detail = f"support({x}, {y}) = {got}, expected {count}"
                    break
            if not ok:
                break
        self._record("pairwise support matrix", ok, detail)

    def _op_grade_table(self, check):
        g = self._read(check, "grades")
        ok = True
        detail = ""
        for label, column in check["expect"].items():
            got = list(g.column(str(label)))
            want = [int(v) for v in column]
            if got != want:
                ok = False
                detail = f"grades of {label}: got {got}, expected {want}"
                break
        self._record("grade table", ok, detail)

    def _op_threshold_order(self, check):
        got = [frozenset(c) for c in threshold_order(self._read(check, "grades"))]
        want = _expect_sets(check["expect"])
        self._record(
            f"threshold order = {_sets_repr(want)}",
            got == want,
            f"got {_sets_repr(got)}",
        )

    def _op_minimal_sets(self, check):
        subset = check.get("subset")
        mu = self._read(check, "mu", frozenset(subset) if subset else None)
        which = check["solution"]
        if which == "weakly_stable":
            got = weakly_stable_sets(mu)
        elif which == "dominant":
            got = minimal_dominant_sets(mu)
        elif which == "undominated":
            got = minimal_undominated_sets(mu)
        elif which == "k_stable":
            got = k_stable_sets(mu, int(check.get("k", 2)))
        else:
            raise ValueError(f"unknown solution family {which!r}")
        got = list(got)
        want = _expect_sets(check["expect"])
        where = f" on {_fmt_set(subset)}" if subset else ""
        self._record(
            f"minimal {which} sets{where} = {_sets_repr(want)}",
            sorted(got, key=lambda s: (len(s), sorted(s)))
            == sorted(want, key=lambda s: (len(s), sorted(s))),
            f"got {_sets_repr(got)}",
        )

    def _op_qpareto(self, check):
        q = int(check["q"])
        got = q_pareto(self._read(check, "grades"), q)
        want = _expect_set(check["expect"])
        self._record(
            f"q-Pareto at q={q} -> {_fmt_set(want)}",
            got == want,
            f"got {_fmt_set(got)}",
        )

    def _op_axiom(self, check):
        rule = self._rule_for(check)
        obj = self._input(check)
        axiom = _axioms.normalize_axiom(check["axiom"])
        strict = bool(check.get("mon2_strict", False))
        verdict = _axioms.check_axiom(rule, obj, axiom, mon2_strict=strict)
        want_holds = {"holds": True, "violated": False}[check["expect"]]
        detail = ""
        if verdict.holds != want_holds:
            detail = (
                verdict.witness.description
                if verdict.witness
                else "no violation found"
            )
        self._record(
            f"axiom {axiom} {'holds' if want_holds else 'is violated'}",
            verdict.holds == want_holds,
            detail,
        )


def run_fixture(doc: dict[str, Any]) -> FixtureReport:
    return _FixtureRunner(doc).run()


def run_fixture_file(path: str | Path) -> FixtureReport:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a fixture document must be a mapping")
    return run_fixture(doc)


def run_corpus(directory: str | Path | None = None) -> list[FixtureReport]:
    base = Path(directory) if directory is not None else corpus_dir()
    reports = []
    for path in sorted(base.glob("*.yaml")):
        reports.append(run_fixture_file(path))
    return reports
