"""Command-line surface.

Subcommands: ``choose`` (one procedure), ``compose`` (two-stage rule),
``check`` (axiom verdict on one input), ``search`` (hunt for a violating
profile), ``verify`` (exhaustive confirmation at one size), ``fixtures``
(replay the bundled corpus), ``bench`` (scaling and group timings), and
``catalog`` (the 784-entry classification).

Exit status: 0 on success, 1 when a check/verify finds a violation, a
search comes back empty, or any fixture fails, 2 on usage or input errors.
All chosen sets print sorted and brace-delimited, e.g. ``{a, b}`` or ``{}``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import axioms as _axioms
from . import bench as _bench
from . import catalog as _catalog
from . import fixtures as _fixtures
from .procedures import PROCEDURE_NAMES, make_procedure
from .profiles import INPUT_PARSERS, ProfileFormatError, _fmt_set, format_profile

_BUDGET_ENV = "TWOSTAGE_BUDGET"


def _default_budget() -> int:
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return 200_000
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
        return value
    except ValueError:
        print(f"error: {_BUDGET_ENV} must be a positive integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(2) from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _load_input(args) -> object:
    chosen = [kind for kind in INPUT_PARSERS if getattr(args, kind, None)]
    if len(chosen) != 1:
        print("error: provide exactly one of --profile/--grades/--majority", file=sys.stderr)
        raise SystemExit(2)
    path = getattr(args, chosen[0])
    try:
        return INPUT_PARSERS[chosen[0]](_read_text(path))
    except ProfileFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _subset(args):
    if getattr(args, "subset", None):
        return frozenset(x.strip() for x in args.subset.split(",") if x.strip())
    return None


def _build_rule(args):
    """Rule from --proc, --two-stage, or --first/--second."""
    has_pair = args.first is not None or args.second is not None
    picked = sum([args.proc is not None, args.two_stage is not None, has_pair])
    if picked != 1:
        print(
            "error: pick a rule with --proc NAME, --two-stage ID, or --first I --second J",
            file=sys.stderr,
        )
        raise SystemExit(2)
    try:
        if args.proc is not None:
            kwargs = {}
            if args.q is not None:
                kwargs["q"] = args.q
            if args.k is not None:
                kwargs["k"] = args.k
            return make_procedure(args.proc, **kwargs)
        if args.two_stage is not None:
            return _catalog.two_stage_from_id(args.two_stage, q=args.q, k=args.k)
        if args.first is None or args.second is None:
            print("error: --first and --second go together", file=sys.stderr)
            raise SystemExit(2)
        return _catalog.compose(args.first, args.second, q=args.q, k=args.k)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _choose_with(choose, data, subset):
    """``choose(data, subset)``, with an input the rule cannot read (or a
    bad subset) reported as a usage error."""
    try:
        return choose(data, subset)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_choose(args) -> int:
    rule = _build_rule(args)
    data = _load_input(args)
    print(_fmt_set(_choose_with(rule.choose, data, _subset(args))))
    return 0


def _cmd_compose(args) -> int:
    if args.first is None or args.second is None:
        print("error: compose needs --first and --second", file=sys.stderr)
        return 2
    try:
        rule = _catalog.compose(args.first, args.second, q=args.q, k=args.k)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = _load_input(args)
    stage1, final = _choose_with(rule.choose_detailed, data, _subset(args))
    print(f"stage1 {_fmt_set(stage1)}")
    print(f"final {_fmt_set(final)}")
    return 0


def _cmd_check(args) -> int:
    rule = _build_rule(args)
    data = _load_input(args)
    try:
        axiom = _axioms.normalize_axiom(args.axiom)
        verdict = _axioms.check_axiom(rule, data, axiom, mon2_strict=args.mon2_strict)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if verdict.holds:
        note = f" ({verdict.detail})" if verdict.detail else ""
        print(f"{axiom} holds{note}")
        return 0
    print(f"{axiom} violated: {verdict.witness.description}")
    return 1


def _cmd_search(args) -> int:
    rule = _build_rule(args)
    try:
        axiom = _axioms.normalize_axiom(args.axiom)
        cfg = _axioms.SearchConfig(
            m_values=tuple(args.m or (3,)),
            n_values=tuple(args.n or (3,)),
            mode=args.mode,
            samples=args.samples,
            seed=args.seed,
            budget=args.budget,
            subset_strategy=args.subsets,
            mon2_strict=args.mon2_strict,
        )
        result = _axioms.search_counterexample(rule, axiom, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"status {result.status}")
    print(f"examined {result.examined}")
    if result.found:
        print(f"witness: {result.witness.description}")
        print(format_profile(result.profile), end="")
        return 0
    return 1


def _cmd_verify(args) -> int:
    rule = _build_rule(args)
    m = (args.m or (3,))[0]
    n = (args.n or (3,))[0]
    try:
        axiom = _axioms.normalize_axiom(args.axiom)
        outcome = _axioms.verify_bounded(
            rule, axiom, m, n, budget=args.budget, mon2_strict=args.mon2_strict
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"status {outcome.status}")
    print(f"checked {outcome.checked}")
    if outcome.status == "refuted":
        print(f"witness: {outcome.witness.description}")
    return 0 if outcome.status == "verified" else 1


def _cmd_fixtures(args) -> int:
    directory = args.dir
    try:
        reports = _fixtures.run_corpus(directory)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not reports:
        print("error: no fixtures found", file=sys.stderr)
        return 2
    failed = 0
    for report in reports:
        mark = "PASS" if report.passed else "FAIL"
        print(f"{mark}  {report.name}  ({len(report.checks)} checks)")
        if not report.passed:
            failed += 1
            for c in report.checks:
                if not c.passed:
                    print(f"      failed: {c.description} -- {c.detail}")
    print(f"total {len(reports)} fixtures, {len(reports) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def _cmd_bench(args) -> int:
    if args.suite in ("scaling", "all"):
        m_values = tuple(m for m in _bench.DEFAULT_M_GRID if m <= args.m_max)
        if not m_values:
            print(f"error: --m-max must be at least {_bench.DEFAULT_M_GRID[0]}", file=sys.stderr)
            return 2
        results = []
        for spec in (7, 27, 28, 23):
            results.append(
                _bench.run_scaling(
                    spec,
                    m_values=m_values,
                    n=10,
                    seed=args.seed,
                    budget_seconds=args.budget_seconds,
                )
            )
        print(_bench.scaling_report(results), end="")
    if args.suite in ("groups", "all"):
        report = _bench.run_groups(m=args.group_m, n=10, seed=args.seed)
        print("group\tfirst\tsecond\tseconds")
        for row in report.rows:
            print(f"{row.group}\t{row.first}\t{row.second}\t{row.seconds:.6g}")
        for g in ("low", "average", "high"):
            print(f"total_{g}\t{report.total(g):.6g}")
        print(f"ordered\t{'yes' if report.ordered else 'no'}")
    return 0


def _cmd_catalog(args) -> int:
    if args.names:
        for index in sorted(PROCEDURE_NAMES):
            print(f"{index}\t{PROCEDURE_NAMES[index]}")
        return 0
    if args.counts:
        for key, value in _catalog.catalog_counts().items():
            print(f"{key}\t{value}")
        return 0
    text = _catalog.export_catalog()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_rule_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--proc", help="procedure index (1..28), mnemonic name, or 'qpareto'")
    sub.add_argument("--two-stage", type=int, dest="two_stage",
                     help="two-stage id in 1..784")
    sub.add_argument("--first", type=int, help="first-stage index 1..28")
    sub.add_argument("--second", type=int, help="second-stage index 1..28")
    sub.add_argument("--q", type=int, help="pool size for top-q counting / dominator cap")
    sub.add_argument("--k", type=int, help="reach bound for k-stable sets (k > 1)")


def _add_input_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--profile", help="profile file (labels line, then one order per criterion)")
    sub.add_argument("--grades", help="grade-table file (labels line, then one grade row per criterion)")
    sub.add_argument("--majority", help="majority-matrix file (labels line, then 0/1 rows)")
    sub.add_argument("--subset", help="comma-separated alternatives to restrict to")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Multi-criteria choice procedures, two-stage compositions, "
        "normative-condition checks, and benchmarks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("choose", help="apply one procedure")
    _add_rule_flags(p)
    _add_input_flags(p)
    p.set_defaults(fn=_cmd_choose)

    p = subs.add_parser("compose", help="apply a two-stage rule")
    _add_rule_flags(p)
    _add_input_flags(p)
    p.set_defaults(fn=_cmd_compose)

    p = subs.add_parser("check", help="check one normative condition on one input")
    _add_rule_flags(p)
    _add_input_flags(p)
    p.add_argument("--axiom", required=True, help="H, C, O, ACA, Mon1, Mon2, SM, or NC")
    p.add_argument("--mon2-strict", action="store_true",
                   help="require both members of a chosen pair to survive removal")
    p.set_defaults(fn=_cmd_check)

    for name, helptext in (
        ("search", "hunt for a violating profile"),
        ("verify", "exhaustively confirm a condition at one size"),
    ):
        p = subs.add_parser(name, help=helptext)
        _add_rule_flags(p)
        p.add_argument("--axiom", required=True)
        p.add_argument("--m", type=int, action="append",
                       help="alternative count (repeatable for search)")
        p.add_argument("--n", type=int, action="append",
                       help="criterion count (repeatable for search)")
        p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=_default_budget(),
                       help=f"max profiles examined (default ${_BUDGET_ENV} or 200000)")
        p.add_argument("--subsets", choices=("all", "deletions"), default="all")
        p.add_argument("--mon2-strict", action="store_true")
        p.set_defaults(fn=_cmd_search if name == "search" else _cmd_verify)

    p = subs.add_parser("fixtures", help="replay the bundled worked-example corpus")
    p.add_argument("--dir", help="alternate fixture directory")
    p.set_defaults(fn=_cmd_fixtures)

    p = subs.add_parser("bench", help="run the complexity measurements")
    p.add_argument("--suite", choices=("scaling", "groups", "all"), default="all")
    p.add_argument("--seed", type=int, default=20260818)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--m-max", type=int, default=8000)
    p.add_argument("--group-m", type=int, default=2000)
    p.set_defaults(fn=_cmd_bench)

    p = subs.add_parser("catalog", help="print the two-stage classification")
    p.add_argument("--names", action="store_true", help="print the index-to-name table")
    p.add_argument("--counts", action="store_true", help="print status counts only")
    p.add_argument("--out", help="write the table to a file instead of stdout")
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
