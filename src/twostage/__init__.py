"""Multi-criteria choice procedures and their two-stage compositions.

The package models a decision setting where ``n`` criteria each rank ``m``
alternatives, and a choice procedure maps any presented subset to a chosen
subset (possibly empty).  It ships the 28 classic procedures plus the
q-Pareto rule, every pairwise two-stage composition with a degeneracy and
equivalence classification, checkers and bounded searches for eight
normative conditions, a replayable worked-example corpus, and a scaling
benchmark harness.

Quick start::

    from twostage import parse_profile, compose

    p = parse_profile(open("votes.prof").read())
    rule = compose(2, 1)              # plurality screen, majority finish
    stage1, final = rule.choose_detailed(p)
"""

from .profiles import (
    GradeTable,
    MajorityRelation,
    Profile,
    ProfileFormatError,
    RankImprovement,
    TournamentMatrix,
    borda_counts,
    contract,
    first_place_counts,
    format_grade_table,
    format_majority_matrix,
    format_profile,
    grade_table,
    improve,
    last_place_counts,
    majority_relation,
    parse_grade_table,
    parse_majority_matrix,
    parse_profile,
    perturb_majority,
    top_q_counts,
    tournament_matrix,
)
from .procedures import (
    NAME_TO_INDEX,
    PROCEDURE_NAMES,
    Procedure,
    QParetoRule,
    apply_procedure,
    make_procedure,
    q_pareto,
    threshold_order,
)
from .catalog import (
    AXIOM_KEYS,
    CatalogEntry,
    TwoStage,
    catalog_counts,
    classify,
    classify_group,
    compose,
    decode_two_stage,
    encode_two_stage,
    export_catalog,
    full_catalog,
    two_stage_from_id,
)
from .axioms import (
    AXIOMS,
    Counterexample,
    SearchConfig,
    SearchResult,
    VerificationOutcome,
    Verdict,
    all_profiles,
    check_axiom,
    enumerate_majority_relations,
    normalize_axiom,
    realizing_profile,
    search_counterexample,
    verify_bounded,
)
from .fixtures import FixtureReport, run_corpus, run_fixture, run_fixture_file
from .bench import (
    BenchResult,
    GroupReport,
    generate_profile,
    run_groups,
    run_scaling,
    scaling_report,
)

__version__ = "0.1.0"

__all__ = [
    "AXIOMS",
    "AXIOM_KEYS",
    "BenchResult",
    "CatalogEntry",
    "Counterexample",
    "FixtureReport",
    "GradeTable",
    "GroupReport",
    "MajorityRelation",
    "NAME_TO_INDEX",
    "PROCEDURE_NAMES",
    "Procedure",
    "Profile",
    "ProfileFormatError",
    "QParetoRule",
    "RankImprovement",
    "SearchConfig",
    "SearchResult",
    "TournamentMatrix",
    "TwoStage",
    "VerificationOutcome",
    "Verdict",
    "all_profiles",
    "apply_procedure",
    "borda_counts",
    "catalog_counts",
    "check_axiom",
    "classify",
    "classify_group",
    "compose",
    "contract",
    "decode_two_stage",
    "encode_two_stage",
    "enumerate_majority_relations",
    "export_catalog",
    "first_place_counts",
    "format_grade_table",
    "format_majority_matrix",
    "format_profile",
    "full_catalog",
    "generate_profile",
    "grade_table",
    "improve",
    "last_place_counts",
    "majority_relation",
    "make_procedure",
    "normalize_axiom",
    "parse_grade_table",
    "parse_majority_matrix",
    "parse_profile",
    "perturb_majority",
    "q_pareto",
    "realizing_profile",
    "run_corpus",
    "run_fixture",
    "run_fixture_file",
    "run_groups",
    "run_scaling",
    "scaling_report",
    "search_counterexample",
    "threshold_order",
    "top_q_counts",
    "tournament_matrix",
    "two_stage_from_id",
    "verify_bounded",
]
