"""Axiom checkers, bounded search, and verification.

Checker logic is exercised against tiny rules defined here with known
axiom status (a fixed-order maximizer, a table-driven choice function, a
deliberately perverse fewest-firsts rule), then against library procedures
whose violations are classical.  Every witness is replayed against the
rule that produced it.
"""

import itertools
import math
import sys
import threading
import time

import numpy as np
import pytest

from twostage import (
    Counterexample,
    MajorityRelation,
    Profile,
    QParetoRule,
    SearchConfig,
    Verdict,
    all_profiles,
    check_axiom,
    compose,
    contract,
    enumerate_majority_relations,
    first_place_counts,
    generate_profile,
    grade_table,
    improve,
    majority_relation,
    make_procedure,
    normalize_axiom,
    realizing_profile,
    search_counterexample,
    threshold_order,
    verify_bounded,
)
from twostage.axioms import AXIOMS, _Permutations, _permutations
from twostage.procedures import Procedure


class FixedOrderRule:
    """Chooses the earliest-alphabet alternative of the presented subset.

    A single fixed preference order satisfies heredity, concordance,
    outcast, and Arrow's choice axiom by construction.
    """

    def choose(self, p, subset=None):
        pool = sorted(subset) if subset is not None else sorted(p.labels)
        return frozenset(pool[:1])


class TableRule:
    """Choice function given extensionally, keyed by presented subset."""

    def __init__(self, universe, table):
        self.universe = frozenset(universe)
        self.table = {frozenset(k): frozenset(v) for k, v in table.items()}

    def choose(self, p, subset=None):
        key = self.universe if subset is None else frozenset(subset)
        return self.table.get(key, key)


class FewestFirstsRule:
    """Perverse on purpose: keeps the alternatives with the FEWEST first
    places, so improving a winner can immediately dethrone it."""

    def choose(self, p, subset=None):
        pc = contract(p, subset) if subset is not None else p
        counts = first_place_counts(pc)
        fewest = min(counts.values())
        return frozenset(x for x, c in counts.items() if c == fewest)


WIDE = Profile(
    [("b", "a", "c", "d"), ("a", "c", "b", "d"), ("d", "a", "b", "c")]
)
CYCLE = Profile([("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
# Plurality picks all three here, but the pair {a, b} flips to b alone.
SPLIT = Profile([("a", "b", "c"), ("c", "b", "a"), ("b", "c", "a")])


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------

def test_normalize_axiom_accepts_aliases():
    assert normalize_axiom("H") == "H"
    assert normalize_axiom("heredity") == "H"
    assert normalize_axiom("Heritage") == "H"
    assert normalize_axiom("concordance") == "C"
    assert normalize_axiom("Outcast") == "O"
    assert normalize_axiom("aca") == "ACA"
    assert normalize_axiom("Mon1") == "MON1"
    assert normalize_axiom("monotonicity2") == "MON2"
    assert normalize_axiom("strictmono") == "SM"
    assert normalize_axiom("strict_monotonicity") == "SM"
    assert normalize_axiom("non-compensatory") == "NC"
    assert normalize_axiom("noncomp") == "NC"
    with pytest.raises(ValueError):
        normalize_axiom("fairness")


def test_verdict_invariant():
    w = Counterexample(axiom="H", kind="subset")
    with pytest.raises(ValueError):
        Verdict("H", True, w)
    with pytest.raises(ValueError):
        Verdict("H", False, None)
    assert Verdict("H", True).holds
    with pytest.raises(KeyError):
        w.observation("missing")


# ---------------------------------------------------------------------------
# rational rules pass the subset axioms
# ---------------------------------------------------------------------------

def test_fixed_order_rule_satisfies_rationality_axioms():
    rule = FixedOrderRule()
    for p in (WIDE, CYCLE, SPLIT):
        for axiom in ("H", "C", "O", "ACA", "MON2"):
            verdict = check_axiom(rule, p, axiom)
            assert verdict.holds, (axiom, verdict.witness)
    # a single winner makes the removal condition vacuous
    verdict = check_axiom(rule, WIDE, "MON2")
    assert verdict.holds and "vacuous" in verdict.detail


def test_aca_implies_heredity_and_outcast():
    # Any table satisfying Arrow's choice axiom also passes H and O; probe
    # with a rule whose choice is the fixed-order maximum (ACA by design).
    rule = FixedOrderRule()
    for p in all_profiles(3, 1):
        if check_axiom(rule, p, "ACA").holds:
            assert check_axiom(rule, p, "H").holds
            assert check_axiom(rule, p, "O").holds


def test_constant_rules_pass_the_improvement_axioms():
    # A choice that ignores the profile can never react to an improvement.
    rule = TableRule("abcd", {})
    assert check_axiom(rule, WIDE, "MON1").holds
    assert check_axiom(rule, WIDE, "SM").holds


# ---------------------------------------------------------------------------
# table-driven violations, one axiom at a time
# ---------------------------------------------------------------------------

def test_heredity_violation_is_caught_and_replays():
    rule = make_procedure(2)  # plurality
    verdict = check_axiom(rule, SPLIT, "H")
    assert not verdict.holds
    w = verdict.witness
    assert w.kind == "subset"
    (sub,) = w.subsets
    kept = w.observation("choice_full") & sub
    assert kept and not kept <= w.observation("choice_subset")
    # replay: the recorded observations must be reproducible
    assert rule.choose(SPLIT) == w.observation("choice_full")
    assert rule.choose(SPLIT, sub) == w.observation("choice_subset")


def test_concordance_violation_is_caught():
    rule = TableRule(
        "abc",
        {
            "abc": {"a"},
            "ab": {"b"},
            "bc": {"b"},
            "ac": {"a"},
            "a": {"a"},
            "b": {"b"},
            "c": {"c"},
        },
    )
    verdict = check_axiom(rule, CYCLE, "C")
    assert not verdict.holds
    w = verdict.witness
    left, right = w.subsets
    assert left | right == frozenset("abc")
    common = rule.choose(CYCLE, left) & rule.choose(CYCLE, right)
    assert not common <= rule.choose(CYCLE)


def test_outcast_violation_is_caught():
    rule = TableRule(
        "abc",
        {"abc": {"a"}, "ab": {"b"}, "ac": {"a"}, "a": {"a"}},
    )
    verdict = check_axiom(rule, CYCLE, "O")
    assert not verdict.holds
    (sub,) = verdict.witness.subsets
    assert rule.choose(CYCLE) <= sub
    assert rule.choose(CYCLE, sub) != rule.choose(CYCLE)


def test_aca_violation_is_caught():
    rule = TableRule(
        "abc",
        {"abc": {"a", "b"}, "ab": {"a"}, "ac": {"a"}, "bc": {"b"}},
    )
    verdict = check_axiom(rule, CYCLE, "ACA")
    assert not verdict.holds
    (sub,) = verdict.witness.subsets
    kept = rule.choose(CYCLE) & sub
    assert kept and rule.choose(CYCLE, sub) != kept


def test_mon2_default_needs_one_survivor_strict_needs_both():
    rule = TableRule(
        "abc",
        {"abc": {"a", "b"}, "ab": {"a"}, "ac": {"a"}, "bc": {"c"}},
    )
    # dropping b keeps a; dropping a kills b -> one survivor suffices
    assert check_axiom(rule, CYCLE, "MON2").holds
    strict = check_axiom(rule, CYCLE, "MON2", mon2_strict=True)
    assert not strict.holds
    assert strict.witness.kind == "subset-pair"

    neither = TableRule(
        "abc",
        {"abc": {"a", "b"}, "ab": {"c"}, "ac": {"c"}, "bc": {"c"}},
    )
    assert not check_axiom(neither, CYCLE, "MON2").holds


def test_mon1_violation_is_caught_and_replays():
    rule = FewestFirstsRule()
    verdict = check_axiom(rule, WIDE, "MON1")
    assert not verdict.holds
    w = verdict.witness
    assert w.kind == "improvement"
    target = w.improvement.target
    assert target in w.observation("choice_before")
    improved = improve(WIDE, w.improvement)
    after = rule.choose(improved)
    assert after == w.observation("choice_after")
    assert target not in after


def test_sm_violation_is_caught_and_replays():
    rule = FewestFirstsRule()
    verdict = check_axiom(rule, WIDE, "SM")
    assert not verdict.holds
    w = verdict.witness
    before = w.observation("choice_before")
    after = rule.choose(improve(WIDE, w.improvement))
    assert after == w.observation("choice_after")
    c = w.improvement.target
    assert after not in (before, frozenset({c}), before | {c})


def test_nc_compares_against_the_threshold_order():
    # The threshold procedure *is* the best grade class: NC holds.
    assert check_axiom(make_procedure(22), WIDE, "NC").holds
    # Plurality keeps {a, b, d} here while the grade signature favors a.
    verdict = check_axiom(make_procedure(2), WIDE, "NC")
    assert not verdict.holds
    w = verdict.witness
    assert w.kind == "grade-order"
    assert w.observation("best_grade_class") == threshold_order(grade_table(WIDE))[0]
    assert w.observation("choice_full") == frozenset({"a", "b", "d"})


# ---------------------------------------------------------------------------
# majority-relation level
# ---------------------------------------------------------------------------

def test_mu_level_nc_is_not_applicable():
    mu = majority_relation(WIDE)
    verdict = check_axiom(Procedure(20), mu, "NC")
    assert verdict.holds
    assert "not-applicable" in verdict.detail


def test_mu_level_core_is_improvement_monotone():
    for mu in enumerate_majority_relations(3):
        assert check_axiom(Procedure(20), mu, "MON1").holds
        assert check_axiom(Procedure(24), mu, "MON1").holds


def test_mu_level_fishburn_heredity_violation_replays():
    found = False
    for mu in enumerate_majority_relations(4):
        verdict = check_axiom(Procedure(15), mu, "H")
        if verdict.holds:
            continue
        found = True
        w = verdict.witness
        (sub,) = w.subsets
        rule = Procedure(15)
        assert rule.choose(mu) == w.observation("choice_full")
        assert rule.choose(mu, sub) == w.observation("choice_subset")
        kept = w.observation("choice_full") & sub
        assert kept and not kept <= w.observation("choice_subset")
        break
    assert found


def test_mu_level_edge_flip_witness_replays():
    # The Condorcet rule can empty out when a rival gets strengthened,
    # which strict monotonicity forbids.
    found = False
    for mu in enumerate_majority_relations(3):
        verdict = check_axiom(Procedure(19), mu, "SM")
        if verdict.holds:
            continue
        found = True
        w = verdict.witness
        assert w.kind == "edge-flip"
        from twostage import perturb_majority

        after = Procedure(19).choose(perturb_majority(mu, *w.edge))
        assert after == w.observation("choice_after")
        break
    assert found


def test_realizing_profile_round_trips_every_relation():
    for m in range(1, 5):
        for mu in enumerate_majority_relations(m):
            p = realizing_profile(mu)
            assert majority_relation(p) == mu
            assert p.n == max(2, 2 * len(mu.edges()))
            assert p.n % 2 == 0


# ---------------------------------------------------------------------------
# bounded search
# ---------------------------------------------------------------------------

def test_search_finds_plurality_heredity_violation():
    cfg = SearchConfig(m_values=(3,), n_values=(3,))
    result = search_counterexample(make_procedure(2), "H", cfg)
    assert result.found and result.status == "found"
    assert result.profile is not None and result.witness is not None
    w = result.witness
    (sub,) = w.subsets
    rule = make_procedure(2)
    assert rule.choose(result.profile) == w.observation("choice_full")
    assert rule.choose(result.profile, sub) == w.observation("choice_subset")


def test_search_is_deterministic():
    cfg = SearchConfig(m_values=(3,), n_values=(3,))
    a = search_counterexample(make_procedure(2), "H", cfg)
    b = search_counterexample(make_procedure(2), "H", cfg)
    assert a.examined == b.examined
    assert a.witness == b.witness
    assert a.profile == b.profile


def test_search_exhausts_a_clean_space():
    result = search_counterexample(
        FixedOrderRule(), "H", SearchConfig(m_values=(2,), n_values=(2,))
    )
    assert result.status == "exhausted"
    assert result.examined == 4  # (2!)^2 profiles
    assert result.witness is None


def test_search_respects_its_budget():
    cfg = SearchConfig(m_values=(3,), n_values=(3,), budget=10)
    result = search_counterexample(make_procedure(7), "H", cfg)
    assert result.status in ("budget-exceeded", "found")
    assert result.examined <= 10
    random_cfg = SearchConfig(mode="random", samples=100, budget=10)
    result = search_counterexample(make_procedure(7), "H", random_cfg)
    assert (result.status, result.examined) == ("budget-exceeded", 10)


def test_a_search_cut_by_its_budget_builds_few_permutations():
    # 11! = 39,916,800 orders; a profile holding the k-th sits at position k
    # or later, so a scan cut at 50 profiles needs only the first 50 or so.
    # The deletions family keeps the checks cheap: 66 subsets a profile,
    # where every proper subset would be 2,046.
    cfg = SearchConfig(m_values=(11,), n_values=(2,), budget=50, subset_strategy="deletions")
    start = time.perf_counter()
    result = search_counterexample(compose(2, 1), "H", cfg)
    elapsed = time.perf_counter() - start
    assert (result.status, result.examined, result.evaluated) == ("budget-exceeded", 50, 50)
    assert len(_permutations(11).rows) <= 128
    assert elapsed < 2.0


def test_the_permutation_table_grows_consistently_across_threads():
    table = _Permutations(8)

    def grow():
        for k in range(0, 5000, 7):
            table.reach(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    orders = itertools.islice(itertools.permutations(range(8)), len(table.rows))
    assert table.rows.tolist() == [np.argsort(order).tolist() for order in orders]
    assert table.index == {row.tobytes(): k for k, row in enumerate(table.rows)}


def test_search_random_mode_is_seeded():
    cfg = SearchConfig(
        m_values=(3, 4), n_values=(3, 5), mode="random", samples=60, seed=11
    )
    a = search_counterexample(FewestFirstsRule(), "MON1", cfg)
    b = search_counterexample(FewestFirstsRule(), "MON1", cfg)
    assert a.status == b.status == "found"
    assert a.examined == b.examined
    assert a.profile == b.profile


def test_search_deletion_strategy_still_finds_subset_violations():
    cfg = SearchConfig(m_values=(3,), n_values=(3,), subset_strategy="deletions")
    result = search_counterexample(make_procedure(2), "H", cfg)
    assert result.found
    (sub,) = result.witness.subsets
    assert len(sub) >= result.profile.m - 2


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mode="clever")
    with pytest.raises(ValueError):
        SearchConfig(subset_strategy="columns")
    with pytest.raises(ValueError):
        SearchConfig(budget=0)
    with pytest.raises(ValueError, match="samples must be positive"):
        SearchConfig(mode="random", samples=0)
    with pytest.raises(ValueError):
        SearchConfig(m_values=())
    with pytest.raises(ValueError):
        SearchConfig(n_values=(0,))
    # a repeated size would scan its cell twice and count it twice
    with pytest.raises(ValueError, match="may be given once"):
        SearchConfig(m_values=(3, 3))
    with pytest.raises(ValueError, match="may be given once"):
        SearchConfig(n_values=(2, 3, 2))


# ---------------------------------------------------------------------------
# bounded verification
# ---------------------------------------------------------------------------

def test_verify_bounded_confirms_borda_improvement_monotonicity():
    outcome = verify_bounded(make_procedure(7), "MON1", 3, 2)
    assert outcome.status == "verified"
    assert outcome.checked == 36  # (3!)^2
    assert outcome.witness is None


def test_verify_bounded_refutes_with_a_profile():
    outcome = verify_bounded(make_procedure(2), "H", 3, 3)
    assert outcome.status == "refuted"
    assert outcome.profile is not None
    verdict = check_axiom(make_procedure(2), outcome.profile, "H")
    assert not verdict.holds


def test_verify_bounded_refuses_oversized_spaces():
    outcome = verify_bounded(make_procedure(7), "H", 4, 4, budget=1000)
    assert outcome.status == "budget-exceeded"
    assert outcome.checked == 0


def test_verify_bounded_refuses_a_huge_cell_at_once():
    # (5000!)^300 has nearly five million digits; counting stops at the budget
    start = time.perf_counter()
    outcome = verify_bounded(make_procedure(7), "H", 5000, 300)
    assert time.perf_counter() - start < 0.5
    assert (outcome.status, outcome.checked, outcome.evaluated) == ("budget-exceeded", 0, 0)


def test_verify_bounded_counts_a_cell_up_to_its_budget_exactly():
    # (3!)^2 = 36 profiles: a budget of 36 covers the cell, 35 does not
    assert verify_bounded(make_procedure(7), "H", 3, 2, budget=36).checked == 36
    assert verify_bounded(make_procedure(7), "H", 3, 2, budget=35).status == "budget-exceeded"
    assert verify_bounded(make_procedure(7), "H", 1, 50, budget=1).status == "verified"


def test_verify_bounded_rejects_a_budget_below_one():
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget must be positive"):
            verify_bounded(make_procedure(7), "H", 2, 1, budget=budget)


@pytest.mark.parametrize("m, n", [(-1, 3), (0, 3), (3, -2), (3, 0)])
def test_verify_bounded_rejects_a_size_below_one(m, n):
    with pytest.raises(ValueError, match="m and n must be positive"):
        verify_bounded(make_procedure(7), "H", m, n)


@pytest.mark.parametrize("m, n", [(0, 1), (1, 0)])
def test_all_profiles_rejects_a_size_below_one(m, n):
    with pytest.raises(ValueError, match="a profile needs at least one alternative and one criterion"):
        next(all_profiles(m, n))


def test_axiom_names_are_the_eight_documented_conditions():
    assert AXIOMS == ("H", "C", "O", "ACA", "MON1", "MON2", "SM", "NC")


# -- pinned tables ------------------------------------------------------------
#
# Recorded before the subset-quantified conditions shared one checker per
# condition; they pin the deletions scan order and the relation-level
# witnesses.  The m = 4 searches stop at a budget of 1000 profiles to keep
# the suite fast.

DELETION_SEARCHES = (
    (2, 3, 'H', 'found', 17, 'subset bc'),
    (2, 3, 'C', 'exhausted', 216, ''),
    (2, 3, 'O', 'exhausted', 216, ''),
    (2, 3, 'ACA', 'found', 17, 'subset bc'),
    (2, 4, 'H', 'found', 157, 'subset bcd'),
    (2, 4, 'C', 'found', 167, 'subset-pair abc cd'),
    (2, 4, 'O', 'budget-exceeded', 1000, ''),
    (2, 4, 'ACA', 'found', 157, 'subset bcd'),
    (7, 3, 'H', 'found', 4, 'subset ab'),
    (7, 3, 'C', 'exhausted', 216, ''),
    (7, 3, 'O', 'found', 4, 'subset ab'),
    (7, 3, 'ACA', 'found', 4, 'subset ab'),
    (7, 4, 'H', 'found', 9, 'subset abd'),
    (7, 4, 'C', 'found', 10, 'subset-pair acd abd'),
    (7, 4, 'O', 'found', 9, 'subset abd'),
    (7, 4, 'ACA', 'found', 9, 'subset abd'),
    (15, 3, 'H', 'found', 23, 'subset bc'),
    (15, 3, 'C', 'exhausted', 216, ''),
    (15, 3, 'O', 'exhausted', 216, ''),
    (15, 3, 'ACA', 'found', 23, 'subset bc'),
    (15, 4, 'H', 'found', 205, 'subset bcd'),
    (15, 4, 'C', 'budget-exceeded', 1000, ''),
    (15, 4, 'O', 'budget-exceeded', 1000, ''),
    (15, 4, 'ACA', 'found', 205, 'subset bcd'),
    ((2, 1), 3, 'H', 'exhausted', 216, ''),
    ((2, 1), 3, 'C', 'found', 17, 'subset-pair ac ab'),
    ((2, 1), 3, 'O', 'found', 17, 'subset bc'),
    ((2, 1), 3, 'ACA', 'exhausted', 216, ''),
    ((2, 1), 4, 'H', 'budget-exceeded', 1000, ''),
    ((2, 1), 4, 'C', 'found', 157, 'subset-pair acd abd'),
    ((2, 1), 4, 'O', 'found', 157, 'subset bcd'),
    ((2, 1), 4, 'ACA', 'budget-exceeded', 1000, ''),
    ((27, 28), 3, 'H', 'found', 23, 'subset bc'),
    ((27, 28), 3, 'C', 'exhausted', 216, ''),
    ((27, 28), 3, 'O', 'exhausted', 216, ''),
    ((27, 28), 3, 'ACA', 'found', 23, 'subset bc'),
    ((27, 28), 4, 'H', 'found', 205, 'subset bcd'),
    ((27, 28), 4, 'C', 'budget-exceeded', 1000, ''),
    ((27, 28), 4, 'O', 'budget-exceeded', 1000, ''),
    ((27, 28), 4, 'ACA', 'found', 205, 'subset bcd'),
)

# One token per relation of enumerate_majority_relations(3), in order: "."
# holds, "ab" a one-subset witness, "ab|ac" a subset pair, "a>b" an edge flip.
MU_VERDICTS = {
    (15, 'H'): '. . . . . . . . . . . . . . . . ab . . . . . . ab . . .',
    (15, 'C'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (15, 'O'): '. . . . . ab . ab . . ac . . . . bc . . . . ac bc . . . . .',
    (15, 'ACA'): '. ac ab bc . ab ab ab . bc ac . . . . bc ab . ac . ac bc . ab . . .',
    (15, 'MON1'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (15, 'MON2'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (15, 'SM'): 'a>b c>a b>a c>a c>a b>a a>b a>b . b>a c>a b>a . c>a b>a b>c . b>c a>b . a>c c>b c>b . a>b a>b a>c',
    (16, 'H'): '. . . . . bc . ac . . bc . . . . ab ab . . . ab ac . ab . . .',
    (16, 'C'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (16, 'O'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (16, 'ACA'): '. ac ab bc . bc ab ac . bc bc . . . . ab ab . ac . ab ac . ab . . .',
    (16, 'MON1'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (16, 'MON2'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (16, 'SM'): 'a>b a>b a>c b>a . b>a a>c a>b a>c b>a c>a . b>a c>a b>a b>c . b>c a>b a>b a>c c>b c>b . . a>b a>c',
    (19, 'H'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (19, 'C'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (19, 'O'): 'a a a a a a a a . a a a . . . a a . a . a a . a a . .',
    (19, 'ACA'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (19, 'MON1'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (19, 'MON2'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (19, 'SM'): '. . . . . . . . a>c . . . b>a c>a b>a . . b>c . a>b . . c>b . . a>b a>c',
    (20, 'H'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (20, 'C'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (20, 'O'): '. . . . . ab . ab . . ac . . . . bc a . . . ac bc . a . . .',
    (20, 'ACA'): '. ac ab bc . ab ab ab . bc ac . . . . bc . . ac . ac bc . . . . .',
    (20, 'MON1'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (20, 'MON2'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (20, 'SM'): 'a>b c>a b>a c>a c>a b>a a>b a>b . b>a c>a b>a . c>a b>a b>c . b>c a>b . a>c c>b c>b . a>b a>b a>c',
    (23, 'H'): '. . . . . . . . . . . . . . . . ab . . . . . . ab . . .',
    (23, 'C'): '. ab|ac ab|ac ab|bc . . ab|bc . . ac|bc . . . . . . . . ac|bc . . . . . . . .',
    (23, 'O'): '. ab ac ab . ab bc ab . ac ac . . . . bc . . bc . ac bc . . . . .',
    (23, 'ACA'): '. ab ac ab . ab bc ab . ac ac . . . . bc ab . bc . ac bc . ab . . .',
    (23, 'MON1'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (23, 'MON2'): '. . . . . . . . . . . . . . . . . . . . . . . . . . .',
    (23, 'SM'): '. . . . c>a b>a . a>b . . c>a b>a . c>a b>a b>c . b>c . . a>c c>b c>b . a>b a>b a>c',
}


def _rule(spec):
    return compose(*spec) if isinstance(spec, tuple) else make_procedure(spec)


@pytest.mark.parametrize("spec, m, axiom, status, examined, witness", DELETION_SEARCHES)
def test_deletion_strategy_search_is_pinned(spec, m, axiom, status, examined, witness):
    cfg = SearchConfig(m_values=(m,), n_values=(3,), subset_strategy="deletions", budget=1000)
    result = search_counterexample(_rule(spec), axiom, cfg)
    assert (result.status, result.examined) == (status, examined)
    got = ""
    if result.witness is not None:
        subsets = " ".join("".join(sorted(s)) for s in result.witness.subsets)
        got = f"{result.witness.kind} {subsets}"
        assert all(len(s) >= m - 2 for s in result.witness.subsets)
    assert got == witness


@pytest.mark.parametrize("index, axiom", sorted(MU_VERDICTS))
def test_mu_level_verdicts_are_pinned_on_every_three_alternative_relation(index, axiom):
    proc = make_procedure(index)
    tokens = []
    for mu in enumerate_majority_relations(3):
        verdict = check_axiom(proc, mu, axiom)
        w = verdict.witness
        if verdict.holds:
            tokens.append(".")
        elif w.edge is not None:
            assert w.kind == "edge-flip" and not w.subsets
            tokens.append(">".join(w.edge))
        else:
            tokens.append("|".join("".join(sorted(s)) for s in w.subsets))
    assert " ".join(tokens) == MU_VERDICTS[index, axiom]


# -- H, O and ACA against their definitions ----------------------------------

# Whether C(X') stands as each condition demands, given C(X), written out
# from the definitions.
DEFINITIONS = {
    "H": lambda full, sub, there: full & sub <= there,  # C(X) ∩ X' ⊆ C(X')
    # C(X) ⊆ X' implies C(X') = C(X)
    "O": lambda full, sub, there: not full <= sub or there == full,
    # C(X) ∩ X' ≠ ∅ implies C(X') = C(X) ∩ X'
    "ACA": lambda full, sub, there: not full & sub or there == full & sub,
}


@pytest.mark.parametrize("spec", [(2, 1), (7, 7), (20, 20), (16, 7)])
def test_single_subset_conditions_match_their_definitions(spec):
    rule = SharedChoices(compose(*spec), {}, declares=())
    for m, n in ((3, 3), (4, 2)):
        for p in all_profiles(m, n):
            full = rule.choose(p)
            subsets = [
                frozenset(combo)
                for size in range(1, m)
                for combo in itertools.combinations(p.labels, size)
            ]
            for axiom, holds in DEFINITIONS.items():
                first = next(
                    (sub for sub in subsets if not holds(full, sub, rule.choose(p, sub))), None
                )
                w = check_axiom(rule, p, axiom).witness
                if first is None:
                    assert w is None, (axiom, p.orders)
                    continue
                assert (w.kind, w.subsets) == ("subset", (first,)), (axiom, p.orders)
                assert w.observed == (("choice_full", full), ("choice_subset", rule.choose(p, first)))


# recorded before H, O and ACA shared one checker
VERIFIED_SENTENCES = [
    ((2, 1), "O", 17, 9, ("abc", "bac", "cab"),
     "{a} keeps every chosen alternative of {} yet chooses {a}"),
    ((7, 7), "H", 23, 10, ("abc", "bca", "cab"),
     "choice {a, b, c} meets {a, b} in {a, b}, but the subset's choice is {a}"),
    ((7, 7), "ACA", 23, 10, ("abc", "bca", "cab"),
     "{a, b} meets the choice {a, b, c} in {a, b} but chooses {a}"),
]


@pytest.mark.parametrize("spec, axiom, checked, evaluated, orders, sentence", VERIFIED_SENTENCES)
def test_single_subset_refutations_are_pinned(spec, axiom, checked, evaluated, orders, sentence):
    outcome = verify_bounded(compose(*spec), axiom, 3, 3)
    assert (outcome.status, outcome.checked, outcome.evaluated) == ("refuted", checked, evaluated)
    assert tuple("".join(order) for order in outcome.profile.orders) == orders
    assert outcome.witness.description == sentence


# recorded before MON1 and SM shared one checker
PROBED_SENTENCES = [
    ((9, 9), "MON1", 5, 138, 41, ("abc", "abc", "bca", "cab", "cba"),
     "a is chosen, but moving a up 1 step(s) in criterion 5 drops it: choice becomes {c}"),
    ((2, 1), "SM", 3, 3, 3, ("abc", "abc", "bac"),
     "moving c up 2 step(s) in criterion 1 turns the choice from {a} into {}, "
     "which is neither the old choice, {c}, nor their union"),
]


@pytest.mark.parametrize("spec, axiom, n, checked, evaluated, orders, sentence", PROBED_SENTENCES)
def test_probe_refutations_are_pinned(spec, axiom, n, checked, evaluated, orders, sentence):
    outcome = verify_bounded(compose(*spec), axiom, 3, n)
    assert (outcome.status, outcome.checked, outcome.evaluated) == ("refuted", checked, evaluated)
    assert tuple("".join(order) for order in outcome.profile.orders) == orders
    assert outcome.witness.kind == "improvement"
    assert outcome.witness.description == sentence


def test_probe_refutations_on_a_relation_are_pinned():
    for spec, axiom, sentence in (
        ((16, 20), "MON1", "c is chosen, but making c beat b drops it: choice becomes {a}"),
        ((19, 23), "SM", "making a beat d turns the choice from {d} into {}, "
                         "which is neither the old choice, {a}, nor their union"),
    ):
        rule = compose(*spec)
        witness = next(
            verdict.witness for mu in enumerate_majority_relations(4)
            if not (verdict := check_axiom(rule, mu, axiom)).holds
        )
        assert witness.kind == "edge-flip"
        assert witness.description == sentence


# ---------------------------------------------------------------------------
# one profile per anonymity (x neutrality) orbit
# ---------------------------------------------------------------------------

class SharedChoices:
    """A rule's choices behind one memo per rule, shared by the orbit scans
    and the full scan so that comparing them stays fast.  Only the symmetry
    properties named in ``declares`` are copied from the rule; without
    ``anonymous`` search and verify check every profile."""

    def __init__(self, rule, memo, *, declares):
        self._rule = rule
        self._memo = memo
        for name in declares:
            setattr(self, name, getattr(rule, name))

    def choose(self, data, subset=None):
        key = (data, None if subset is None else frozenset(subset))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._rule.choose(data, subset)
        return got


class PlainRule:
    """Exposes only ``choose``, so search and verify check every profile."""

    def __init__(self, rule):
        self._rule = rule

    def choose(self, data, subset=None):
        return self._rule.choose(data, subset)


class AnonymousOnly(PlainRule):
    """Declares ``anonymous`` but not ``neutral``: one profile per orbit
    under permuting the criteria only."""

    anonymous = True


class NeutralOnly(PlainRule):
    """Declares ``neutral`` but not ``anonymous``, which earns no smaller
    scan."""

    neutral = True


ORBIT_RULES = (
    [make_procedure(i) for i in range(1, 29)]
    + [QParetoRule(q) for q in range(3)]
    + [compose(a, b) for a, b in ((2, 1), (22, 1), (19, 7), (27, 28), (26, 23), (5, 11))]
)
ORBIT_CELLS = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3))
# m in (2, 3) and n in (1, 2, 3): the cells end at 2, 6, 14, 20, 56 and 272
# profiles covered, so these budgets cut inside a cell and on its end; the
# deletions scan shares the budget code and gets a few of them.  Budgets 1,
# 10, 40 and 100 cut a cell after its last orbit under relabelling (at 0, 7,
# 25 and 78 covered), which must still read as budget-exceeded.
ORBIT_BUDGETS = {
    "all": (1, 2, 6, 10, 14, 20, 40, 56, 100, 200_000),
    "deletions": (6, 40, 100, 200_000),
}


def _outcome(result):
    covered = result.examined if hasattr(result, "examined") else result.checked
    orders = None if result.profile is None else result.profile.orders
    return result.status, covered, result.witness, orders


@pytest.mark.parametrize("rule", ORBIT_RULES, ids=lambda rule: rule.label())
def test_orbit_scan_matches_the_full_scan(rule):
    assert rule.anonymous and rule.neutral
    memo = {}
    both = SharedChoices(rule, memo, declares=("anonymous", "neutral"))
    anonymous = SharedChoices(rule, memo, declares=("anonymous",))
    full = SharedChoices(rule, memo, declares=())

    def same(run):
        want = run(full)
        assert want.evaluated == (want.examined if hasattr(want, "examined") else want.checked)
        for side in (both, anonymous):
            assert _outcome(run(side)) == _outcome(want)

    for axiom in AXIOMS:
        for m, n in ORBIT_CELLS:
            same(lambda r: verify_bounded(r, axiom, m, n))
        for strategy, budgets in ORBIT_BUDGETS.items():
            for budget in budgets:
                cfg = SearchConfig(
                    m_values=(2, 3), n_values=(1, 2, 3), budget=budget, subset_strategy=strategy
                )
                same(lambda r: search_counterexample(r, axiom, cfg))
        cfg = SearchConfig(m_values=(2, 3), n_values=(1, 2, 3), mode="random", samples=60, seed=5)
        same(lambda r: search_counterexample(r, axiom, cfg))
    same(lambda r: verify_bounded(r, "MON2", 3, 3, mon2_strict=True))
    cfg = SearchConfig(m_values=(2, 3), n_values=(1, 2, 3), mon2_strict=True)
    same(lambda r: search_counterexample(r, "MON2", cfg))
    # the bare rule reaches the same outcome as the memoized one
    assert _outcome(verify_bounded(rule, "H", 3, 3)) == _outcome(verify_bounded(full, "H", 3, 3))


@pytest.mark.parametrize(
    "spec, axiom, m, n, evaluated",
    [((19, 7), "H", 3, 3, 56), ((2, 1), "MON2", 3, 5, 252), ((7, 7), "MON2", 4, 3, 2600)],
)
def test_verified_cells_evaluate_one_profile_per_orbit(spec, axiom, m, n, evaluated):
    outcome = verify_bounded(AnonymousOnly(compose(*spec)), axiom, m, n)
    assert (outcome.status, outcome.checked) == ("verified", math.factorial(m) ** n)
    assert outcome.evaluated == evaluated == math.comb(math.factorial(m) + n - 1, n)


def test_refuted_cells_count_the_witness_position():
    outcome = verify_bounded(AnonymousOnly(compose(2, 1)), "C", 3, 3)
    assert (outcome.status, outcome.checked, outcome.evaluated) == ("refuted", 17, 14)
    assert outcome.profile.orders == tuple(sorted(outcome.profile.orders))


@pytest.mark.parametrize(
    "spec, axiom, m, n, evaluated",
    [((19, 7), "H", 3, 3, 10), ((2, 1), "MON2", 3, 5, 42), ((7, 7), "MON2", 4, 3, 111)],
)
def test_verified_cells_evaluate_one_profile_per_neutral_orbit(spec, axiom, m, n, evaluated):
    outcome = verify_bounded(compose(*spec), axiom, m, n)
    assert (outcome.status, outcome.checked, outcome.evaluated) == (
        "verified", math.factorial(m) ** n, evaluated
    )
    assert evaluated == sum(1 for _ in all_profiles(m, n, orbits="criteria+alternatives"))


def test_refuted_cells_count_the_witness_position_among_neutral_orbits():
    outcome = verify_bounded(compose(2, 1), "C", 3, 3)
    assert (outcome.status, outcome.checked, outcome.evaluated) == ("refuted", 17, 9)
    assert _outcome(outcome) == _outcome(verify_bounded(PlainRule(compose(2, 1)), "C", 3, 3))


@pytest.mark.parametrize(
    "spec, axiom, status, covered, evaluated",
    [
        ((2, 1), "O", "refuted", 7, 6),
        ((7, 7), "H", "refuted", 17, 14),
        ((2, 1), "C", "verified", 576, 17),
    ],
)
def test_neutral_orbit_scan_at_m4_matches_the_full_scan(spec, axiom, status, covered, evaluated):
    outcome = verify_bounded(compose(*spec), axiom, 4, 2)
    assert (outcome.status, outcome.checked, outcome.evaluated) == (status, covered, evaluated)
    assert _outcome(outcome) == _outcome(verify_bounded(PlainRule(compose(*spec)), axiom, 4, 2))


def test_a_budget_past_the_last_orbit_is_still_exceeded():
    # (2, 4) has 16 profiles and its orbits under both groups start at 0, 1
    # and 3, so a budget of 5 ends the orbits but not the cell
    cfg = SearchConfig(m_values=(2,), n_values=(4,), budget=5)
    rule = compose(20, 20)
    result = search_counterexample(rule, "H", cfg)
    assert _outcome(result) == _outcome(search_counterexample(PlainRule(rule), "H", cfg))
    assert (result.status, result.examined, result.evaluated) == ("budget-exceeded", 5, 3)


def test_rules_that_do_not_declare_anonymity_check_every_profile():
    for rule in (PlainRule(compose(19, 7)), NeutralOnly(compose(19, 7))):
        for axiom in ("H", "O", "MON1"):
            outcome = verify_bounded(rule, axiom, 3, 3)
            assert outcome.evaluated == outcome.checked
            cfg = SearchConfig(m_values=(2, 3), n_values=(1, 2, 3))
            result = search_counterexample(rule, axiom, cfg)
            assert result.evaluated == result.examined


def test_random_search_skips_orbits_that_already_passed():
    cfg = SearchConfig(m_values=(3,), n_values=(3, 4), mode="random", samples=300, seed=601)
    result = search_counterexample(compose(20, 20), "H", cfg)
    plain = search_counterexample(PlainRule(compose(20, 20)), "H", cfg)
    assert _outcome(result) == _outcome(plain) == ("exhausted", 300, None, None)
    # 56 orbits at n = 3 and 126 at n = 4 under permuting the criteria, 10
    # and 24 when the alternatives are relabelled too
    assert result.evaluated <= 34
    anonymous = search_counterexample(AnonymousOnly(compose(20, 20)), "H", cfg)
    assert _outcome(anonymous) == _outcome(plain)
    assert result.evaluated < anonymous.evaluated <= 182 < plain.evaluated == 300


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_orbit_enumeration_is_the_sorted_part_of_the_product(m, n):
    every = [p.orders for p in all_profiles(m, n)]
    orbits = [p.orders for p in all_profiles(m, n, orbits=True)]
    assert orbits == [orders for orders in every if list(orders) == sorted(orders)]
    assert len(orbits) == math.comb(math.factorial(m) + n - 1, n)
    assert len(every) == math.factorial(m) ** n
    # each yielded profile is the one the validating constructor builds
    product = list(itertools.product(itertools.permutations("abcd"[:m]), repeat=n))
    assert every == product
    for orbit in (False, True):
        for p in all_profiles(m, n, orbits=orbit):
            assert p == Profile(p.orders) and p.ranks.dtype == np.int32


def _least_in_orbit(orders):
    """The least rearrangement of ``orders`` under permuting the criteria and
    relabelling the alternatives, by brute force."""
    labels = sorted(orders[0])
    return min(
        tuple(sorted(tuple(rename[x] for x in order) for order in orders))
        for rename in (dict(zip(labels, image)) for image in itertools.permutations(labels))
    )


@pytest.mark.parametrize("m, n", [(1, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (3, 4), (4, 3)])
def test_neutral_orbit_enumeration_keeps_the_least_of_each_orbit(m, n):
    every = [p.orders for p in all_profiles(m, n)]
    least = [p.orders for p in all_profiles(m, n, orbits="criteria+alternatives")]
    assert least == [orders for orders in every if _least_in_orbit(orders) == orders]
    assert least == sorted({_least_in_orbit(orders) for orders in every})
    for p in all_profiles(m, n, orbits="criteria+alternatives"):
        assert p == Profile(p.orders) and p.ranks.dtype == np.int32


def test_neutral_orbit_enumeration_is_lazy_and_bounded():
    # (6, 3) has 62,891,499 sorted order tuples; drawing the first few
    # orbits filters only the first chunks of them
    first = list(itertools.islice(all_profiles(6, 3, orbits="criteria+alternatives"), 5))
    assert [p.orders for p in first] == sorted({_least_in_orbit(p.orders) for p in first})
    with pytest.raises(ValueError, match="m <= 6"):
        next(all_profiles(7, 2, orbits="criteria+alternatives"))
    with pytest.raises(ValueError, match="unknown orbits"):
        next(all_profiles(3, 2, orbits="alternatives"))


class _ChooseOnly:
    """A rule that offers ``choose`` alone and declares no input kinds, as a
    wrapper that counts a rule's calls does."""

    def __init__(self, rule):
        self._rule = rule

    def choose(self, data, subset=None):
        return self._rule.choose(data, subset)


def test_a_rule_declaring_no_kinds_gets_the_same_verdicts():
    # the check's scope then holds what the rule's first whole-universe
    # read asks for, μ or S, and an S read after a held μ contracts and
    # derives; the verdicts and witnesses are those of the declaring rule.
    # An even number of criteria leaves majority ties, so each rule fails
    # some condition on some of these profiles.
    profiles = [generate_profile(m, n, seed=seed) for m, n in ((4, 4), (5, 6), (6, 4)) for seed in (0, 1)]
    for first, second in ((20, 20), (27, 28), (12, 27), (2, 1), (19, 7), (28, 20)):
        rule, violated = compose(first, second), 0
        for p in profiles:
            for axiom in ("H", "C", "O", "ACA", "MON2"):
                want = check_axiom(rule, p, axiom)
                assert check_axiom(_ChooseOnly(rule), p, axiom) == want, (first, second, axiom, p)
                violated += not want.holds
        assert violated, (first, second)
