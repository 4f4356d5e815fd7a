"""Command-line surface.

Subcommands: ``choose`` (one procedure), ``compose`` (two-stage rule),
``check`` (axiom verdict on one input), ``search`` (hunt for a violating
profile), ``verify`` (exhaustive confirmation at one size), ``fixtures``
(replay the bundled corpus), ``bench`` (scaling and group timings), and
``catalog`` (the 784-entry classification).

Exit status: 0 on success, 1 when a check/verify finds a violation, a
search comes back empty, or any fixture fails, 2 on usage or input errors.
A command raises on a usage or input error, and :func:`main` is the one
place that prints it, as a single ``error: <message>`` line on stderr.
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
    raw = os.environ.get(_BUDGET_ENV, "200000")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{_BUDGET_ENV} must be a positive integer, got {raw!r}")
    return value


def _load_input(args) -> object:
    chosen = [kind for kind in INPUT_PARSERS if getattr(args, kind)]
    if len(chosen) != 1:
        raise ValueError("provide exactly one of --profile/--grades/--majority")
    path = getattr(args, chosen[0])
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read {path}: {exc}") from None
    try:
        return INPUT_PARSERS[chosen[0]](text)
    except ProfileFormatError as exc:
        raise ProfileFormatError(f"{path}: {exc}") from None


def _subset(args):
    if args.subset:
        return frozenset(x.strip() for x in args.subset.split(",") if x.strip())
    return None


def _build_rule(args):
    """Rule from --proc (where the command takes it), --two-stage, or
    --first/--second."""
    proc = getattr(args, "proc", None)
    has_pair = args.first is not None or args.second is not None
    if sum([proc is not None, args.two_stage is not None, has_pair]) != 1:
        rules = "--proc NAME, --two-stage ID, or" if hasattr(args, "proc") else "--two-stage ID or"
        raise ValueError(f"pick a rule with {rules} --first I --second J")
    if proc is not None:
        return make_procedure(proc, q=args.q, k=args.k)
    if args.two_stage is not None:
        return _catalog.two_stage_from_id(args.two_stage, q=args.q, k=args.k)
    if args.first is None or args.second is None:
        raise ValueError("--first and --second go together")
    return _catalog.compose(args.first, args.second, q=args.q, k=args.k)


# ---------------------------------------------------------------------------
# subcommands: each raises on a usage or input error, and main reports it
# ---------------------------------------------------------------------------

def _cmd_choose(args) -> int:
    rule = _build_rule(args)
    print(_fmt_set(rule.choose(_load_input(args), _subset(args))))
    return 0


def _cmd_compose(args) -> int:
    rule = _build_rule(args)
    stage1, final = rule.choose_detailed(_load_input(args), _subset(args))
    print(f"stage1 {_fmt_set(stage1)}")
    print(f"final {_fmt_set(final)}")
    return 0


def _cmd_check(args) -> int:
    rule = _build_rule(args)
    data = _load_input(args)
    axiom = _axioms.normalize_axiom(args.axiom)
    verdict = _axioms.check_axiom(rule, data, axiom, mon2_strict=args.mon2_strict)
    if verdict.holds:
        note = f" ({verdict.detail})" if verdict.detail else ""
        print(f"{axiom} holds{note}")
        return 0
    print(f"{axiom} violated: {verdict.witness.description}")
    return 1


def _cmd_search(args) -> int:
    rule = _build_rule(args)
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
    print(f"status {result.status}")
    print(f"examined {result.examined}")
    if result.found:
        print(f"witness: {result.witness.description}")
        print(format_profile(result.profile), end="")
        return 0
    return 1


def _cmd_verify(args) -> int:
    rule = _build_rule(args)
    for flag, values in (("--m", args.m), ("--n", args.n)):
        if values and len(values) > 1:
            raise ValueError(f"verify checks one size; {flag} was given {len(values)} times")
    m = (args.m or (3,))[0]
    n = (args.n or (3,))[0]
    outcome = _axioms.verify_bounded(
        rule, args.axiom, m, n, budget=args.budget, mon2_strict=args.mon2_strict
    )
    print(f"status {outcome.status}")
    print(f"checked {outcome.checked}")
    if outcome.status == "refuted":
        print(f"witness: {outcome.witness.description}")
    return 0 if outcome.status == "verified" else 1


def _cmd_fixtures(args) -> int:
    reports = _fixtures.run_corpus(args.dir)
    if not reports:
        raise ValueError("no fixtures found")
    failed = sum(not report.passed for report in reports)
    for report in reports:
        print(report.summary())
    print(f"total {len(reports)} fixtures, {len(reports) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def _cmd_bench(args) -> int:
    if args.suite in ("scaling", "all"):
        m_values = tuple(m for m in _bench.DEFAULT_M_GRID if m <= args.m_max)
        if not m_values:
            raise ValueError(f"--m-max must be at least {_bench.DEFAULT_M_GRID[0]}")
        results = [
            _bench.run_scaling(
                spec, m_values=m_values, n=10, seed=args.seed, budget_seconds=args.budget_seconds
            )
            for spec in (7, 27, 28, 23)
        ]
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
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OSError(f"cannot write {args.out}: {exc}") from None
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_rule_flags(sub: argparse.ArgumentParser, proc: bool = True):
    if proc:
        sub.add_argument("--proc", help="procedure index (1..28), mnemonic name, or 'qpareto'")
    sub.add_argument("--two-stage", type=int, dest="two_stage",
                     help="two-stage id in 1..784")
    sub.add_argument("--first", type=int, help="first-stage index 1..28")
    sub.add_argument("--second", type=int, help="second-stage index 1..28")
    sub.add_argument("--q", type=int, help="pool size for top-q counting / dominator cap")
    sub.add_argument("--k", type=int, help="reach bound for k-stable sets (k > 1)")


def _add_input_flags(sub: argparse.ArgumentParser, subset: bool = True):
    sub.add_argument("--profile", help="profile file (labels line, then one order per criterion)")
    sub.add_argument("--grades", help="grade-table file (labels line, then one grade row per criterion)")
    sub.add_argument("--majority", help="majority-matrix file (labels line, then 0/1 rows)")
    if subset:
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
    _add_rule_flags(p, proc=False)
    _add_input_flags(p)
    p.set_defaults(fn=_cmd_compose)

    p = subs.add_parser("check", help="check one normative condition on one input")
    _add_rule_flags(p)
    _add_input_flags(p, subset=False)
    p.add_argument("--axiom", required=True, help="H, C, O, ACA, Mon1, Mon2, SM, or NC")
    p.add_argument("--mon2-strict", action="store_true",
                   help="require both members of a chosen pair to survive removal")
    p.set_defaults(fn=_cmd_check)

    def add_scan_flags(p: argparse.ArgumentParser, repeat: str):
        _add_rule_flags(p)
        p.add_argument("--axiom", required=True)
        p.add_argument("--m", type=int, action="append", help=f"alternative count{repeat}")
        p.add_argument("--n", type=int, action="append", help=f"criterion count{repeat}")
        p.add_argument("--budget", type=int, default=_default_budget(),
                       help=f"max profiles examined (default ${_BUDGET_ENV} or 200000)")
        p.add_argument("--mon2-strict", action="store_true")

    p = subs.add_parser("search", help="hunt for a violating profile")
    add_scan_flags(p, " (repeatable)")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subsets", choices=("all", "deletions"), default="all")
    p.set_defaults(fn=_cmd_search)

    p = subs.add_parser("verify", help="exhaustively confirm a condition at one size")
    add_scan_flags(p, " (one value)")
    p.set_defaults(fn=_cmd_verify)

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
    try:
        # building the parser reads $TWOSTAGE_BUDGET, which can be an input error
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
