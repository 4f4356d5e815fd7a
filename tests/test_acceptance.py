"""Acceptance gate: one test per delivery criterion.

``pytest -v tests/test_acceptance.py`` prints exactly one pass/fail line
per criterion.  Sizes, expected values, and time limits are frozen on
purpose — a red line here means the library is wrong or too slow, never
that this file should be loosened.
"""

import itertools
import random
import time

import numpy as np

from oracles import brute_condorcet, brute_undominated_sets
from property_suites import ALL_SUITES
from twostage import (
    MajorityRelation,
    Profile,
    QParetoRule,
    SearchConfig,
    catalog_counts,
    compose,
    generate_profile,
    grade_table,
    improve,
    majority_relation,
    parse_grade_table,
    run_corpus,
    run_groups,
    run_scaling,
    search_counterexample,
    threshold_order,
    two_stage_from_id,
    verify_bounded,
)
from twostage.axioms import all_profiles

# --------------------------------------------------------------------------
# 1. worked-example corpus
# --------------------------------------------------------------------------

MINIMUM_FIXTURES = frozenset({
    "id029_case1", "id029_case2", "id029_case5", "id029_case7", "id029_case8",
    "id040", "id057", "id169", "id197", "id365_case1", "id383_case2", "id404",
    "id412_case1", "id412_case2", "id534_case5", "id589", "id731",
})


def test_criterion_01_worked_example_corpus_replays_within_10s():
    start = time.perf_counter()
    reports = run_corpus()
    elapsed = time.perf_counter() - start
    assert MINIMUM_FIXTURES <= {r.name for r in reports}
    failures = [r.summary() for r in reports if not r.passed]
    assert failures == []
    assert elapsed < 10.0


# --------------------------------------------------------------------------
# 2. dominated-by-at-most-q ladder on the 11-alternative grade table
# --------------------------------------------------------------------------

ELEVEN_WAY_GRADES = (
    "a b c d e f g h k l m\n"
    "1 3 5 0 5 4 4 5 2 4 1\n"
    "5 3 0 4 1 2 5 4 4 4 3\n"
)

QPARETO_LADDER = (
    (0, "g h"),
    (1, "a e g h"),
    (2, "a c e g h l"),
    (3, "a b c e f g h k l"),
    (4, "a b c e f g h k l"),
    (5, "a b c d e f g h k l"),
    (6, "a b c d e f g h k l m"),
)


def test_criterion_02_qpareto_ladder_matches_within_1s():
    start = time.perf_counter()
    table = parse_grade_table(ELEVEN_WAY_GRADES)
    for q, expected in QPARETO_LADDER:
        got = QParetoRule(q).choose(table)
        assert got == frozenset(expected.split()), (q, sorted(got))
    assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------------------
# 3. winner-improvement stability, exhaustively at m=3, n=3
# --------------------------------------------------------------------------

def test_criterion_03_mon1_verified_exhaustively_within_60s_each():
    for first in (2, 22):  # count-firsts opener and worst-grade opener
        rule = compose(first, 1)
        start = time.perf_counter()
        outcome = verify_bounded(rule, "MON1", 3, 3)
        elapsed = time.perf_counter() - start
        assert outcome.status == "verified", (first, outcome.status)
        assert outcome.checked == 216
        assert elapsed < 60.0, (first, elapsed)


# --------------------------------------------------------------------------
# 4. rediscovery of the five failures of plurality-then-majority
# --------------------------------------------------------------------------

def _replay_witness(rule, profile, w):
    """Recompute every recorded observation and the violation itself,
    without trusting the checker that produced the witness."""

    def choose(sub=None):
        return rule.choose(profile, sub)

    universe = frozenset(profile.labels)
    if w.axiom == "H":
        (sub,) = w.subsets
        full, there = w.observation("choice_full"), w.observation("choice_subset")
        assert choose() == full and choose(sub) == there
        kept = full & sub
        assert kept and not kept <= there
    elif w.axiom == "C":
        left, right = w.subsets
        full = w.observation("choice_full")
        c_left, c_right = w.observation("choice_left"), w.observation("choice_right")
        assert left | right == universe
        assert choose() == full
        assert choose(left) == c_left and choose(right) == c_right
        assert not (c_left & c_right) <= full
    elif w.axiom == "O":
        (sub,) = w.subsets
        full, there = w.observation("choice_full"), w.observation("choice_subset")
        assert choose() == full and choose(sub) == there
        assert full <= sub < universe
        assert there != full
    elif w.axiom == "SM":
        before, after = w.observation("choice_before"), w.observation("choice_after")
        assert choose() == before
        assert rule.choose(improve(profile, w.improvement)) == after
        moved = w.improvement.target
        assert after not in (before, frozenset({moved}), before | {moved})
    elif w.axiom == "NC":
        full, best = w.observation("choice_full"), w.observation("best_grade_class")
        assert choose() == full
        assert threshold_order(grade_table(profile))[0] == best
        assert full != best
    else:
        raise AssertionError(f"unexpected axiom {w.axiom}")


def test_criterion_04_search_refutes_five_conditions_within_10min():
    rule = compose(2, 1)
    cfg = SearchConfig(
        m_values=(2, 3), n_values=(1, 2, 3, 4, 5), mode="exhaustive", budget=500_000
    )
    start = time.perf_counter()
    for axiom in ("H", "C", "O", "SM", "NC"):
        result = search_counterexample(rule, axiom, cfg)
        assert result.status == "found", (axiom, result.status)
        _replay_witness(rule, result.profile, result.witness)
    assert time.perf_counter() - start < 600.0


# --------------------------------------------------------------------------
# 5. catalog bookkeeping
# --------------------------------------------------------------------------

def test_criterion_05_catalog_counts_are_784_168_25():
    assert catalog_counts() == {
        "total": 784, "degenerate": 168, "equivalent": 25, "regular": 591,
    }


# --------------------------------------------------------------------------
# 6. three equivalences, exhaustively over m <= 4, n in {3, 5}
# --------------------------------------------------------------------------

LABELS4 = ("a", "b", "c", "d")
PAIRS4 = tuple(itertools.combinations(range(4), 2))
PERMS4 = tuple(itertools.permutations(range(4)))


def _orders_of(p: Profile):
    return [
        tuple(sorted(p.labels, key=lambda lab: p.rank_of(lab, i)))
        for i in range(p.n)
    ]


def _mu_edges(orders, labels):
    n = len(orders)
    return {
        (x, y)
        for x, y in itertools.permutations(labels, 2)
        if 2 * sum(1 for o in orders if o.index(x) < o.index(y)) > n
    }


def _relation_for(key: int) -> MajorityRelation:
    mat = np.zeros((4, 4), dtype=bool)
    for bit, (x, y) in enumerate(PAIRS4):
        if (key >> bit) & 1:
            mat[x, y] = True
        else:
            mat[y, x] = True
    return MajorityRelation(LABELS4, mat)


def _edges_for(key: int):
    return {
        ((LABELS4[x], LABELS4[y]) if (key >> bit) & 1 else (LABELS4[y], LABELS4[x]))
        for bit, (x, y) in enumerate(PAIRS4)
    }


def test_criterion_06_ids_309_321_551_match_their_targets_exhaustively():
    rule_309 = two_stage_from_id(309)  # dominant set, then simple majority
    rule_321 = two_stage_from_id(321)  # dominant set, then undominated set
    rule_551 = two_stage_from_id(551)  # core, then majority winner

    # Every cell except (4, 5) is small enough to walk profile by profile.
    for m, n in ((1, 3), (1, 5), (2, 3), (2, 5), (3, 3), (3, 5), (4, 3)):
        for p in all_profiles(m, n):
            edges = _mu_edges(_orders_of(p), p.labels)
            cw = brute_condorcet(p.labels, edges)
            undominated = frozenset().union(*brute_undominated_sets(p.labels, edges))
            assert rule_309.choose(p) == cw, (m, n)
            assert rule_321.choose(p) == undominated, (m, n)
            assert rule_551.choose(p) == cw, (m, n)

    # (4, 5): all 24**5 ordered profiles at once.  An odd criterion count
    # makes every pairwise contest decisive, so the majority relation of a
    # profile is one of the 64 orientations of the 6 pairs; we bin every
    # profile by that orientation.
    rank = [{x: perm.index(x) for x in range(4)} for perm in PERMS4]
    prefer = np.array(
        [[int(rank[pi][x] < rank[pi][y]) for pi in range(24)] for x, y in PAIRS4],
        dtype=np.int8,
    )
    total = 24 ** 5
    t = np.arange(total, dtype=np.int64)
    digits = [((t // 24 ** j) % 24).astype(np.int16) for j in range(5)]
    del t
    key = np.zeros(total, dtype=np.uint8)
    for bit in range(6):
        support = np.zeros(total, dtype=np.int8)
        for d in digits:
            support += prefer[bit][d]
        assert 0 <= int(support.min()) and int(support.max()) <= 5
        key |= (support >= 3).astype(np.uint8) << bit
    assert len(np.unique(key)) == 64  # every orientation occurs

    # Both stages of ids 321 and 551 read only the majority relation, so
    # checking the rule once per orientation settles every profile in the
    # bin; the bridge sample below ties the profile entry point to the
    # relation entry point.
    cw_index = np.full(64, -1, dtype=np.int8)
    stage1_309 = []
    for k in range(64):
        relation = _relation_for(k)
        edges = _edges_for(k)
        cw = brute_condorcet(LABELS4, edges)
        undominated = frozenset().union(*brute_undominated_sets(LABELS4, edges))
        if cw:
            cw_index[k] = LABELS4.index(next(iter(cw)))
        assert rule_321.choose(relation) == undominated, k
        assert rule_551.choose(relation) == cw, k
        stage1_309.append(rule_309.first.choose(relation))

    # id 309's second stage counts first places inside the stage-1 set, so
    # evaluate that count for all profiles at once.
    top_inside = np.zeros((24, 64), dtype=np.int8)
    for pi, perm in enumerate(PERMS4):
        for k in range(64):
            kept = {LABELS4.index(x) for x in stage1_309[k]}
            top_inside[pi, k] = next(x for x in perm if x in kept)
    flat = top_inside.ravel()
    counts = [np.zeros(total, dtype=np.int8) for _ in range(4)]
    for d in digits:
        tops = flat[d.astype(np.int32) * 64 + key]
        for x in range(4):
            counts[x] += tops == x
    winner = np.full(total, -1, dtype=np.int8)
    claimed = np.zeros(total, dtype=np.int8)
    for x in range(4):
        mask = counts[x] * 2 > 5
        claimed += mask
        winner[mask] = x
    assert int(claimed.max()) <= 1
    assert np.array_equal(winner, cw_index[key])

    # Bridge: direct profile-level evaluation on the first profile of every
    # orientation bin plus a seeded random sample.
    _, first_of_bin = np.unique(key, return_index=True)
    rng = np.random.default_rng(20260818)
    sample = np.concatenate([first_of_bin, rng.integers(0, total, 300)])
    for raw in sample:
        idx = int(raw)
        orders = [
            tuple(LABELS4[x] for x in PERMS4[(idx // 24 ** j) % 24])
            for j in range(5)
        ]
        p = Profile(orders)
        relation = majority_relation(p)
        assert np.array_equal(relation.matrix, _relation_for(int(key[idx])).matrix)
        expected_309 = (
            frozenset() if winner[idx] < 0 else frozenset({LABELS4[winner[idx]]})
        )
        assert rule_309.choose(p) == expected_309
        assert rule_321.choose(p) == rule_321.choose(relation)
        assert rule_551.choose(p) == rule_551.choose(relation)


# --------------------------------------------------------------------------
# 7. second stages that never change anything
# --------------------------------------------------------------------------

def test_criterion_07_degenerate_second_stages_are_noops_on_10k_profiles():
    ids = (320, 348, 349, 539, 540, 541, 542)
    rules = [two_stage_from_id(i) for i in ids]
    rng = random.Random(20260818)
    for i in range(10_000):
        p = generate_profile(
            rng.randint(2, 6), rng.choice((3, 5, 7)), seed=rng.randrange(2 ** 31)
        )
        for tsid, rule in zip(ids, rules):
            stage1, final = rule.choose_detailed(p)
            assert final == stage1, (tsid, i)


# --------------------------------------------------------------------------
# 8. stage order matters
# --------------------------------------------------------------------------

def test_criterion_08_stage_order_changes_the_choice_within_60s():
    count_then_score = compose(2, 7)
    score_then_count = compose(7, 2)
    start = time.perf_counter()
    witness = next(
        (
            p
            for p in all_profiles(3, 4)
            if count_then_score.choose(p) != score_then_count.choose(p)
        ),
        None,
    )
    elapsed = time.perf_counter() - start
    assert witness is not None
    assert count_then_score.choose(witness) != score_then_count.choose(witness)
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# 9. desk-scale running times
# --------------------------------------------------------------------------

def test_criterion_09_complexity_exponents_and_group_order_within_15min():
    start = time.perf_counter()
    windows = {7: (0.9, 1.4), 27: (1.7, 2.3), 28: (1.7, 2.3), 23: (1.7, 2.3)}
    for spec, (lo, hi) in windows.items():
        result = run_scaling(spec)
        assert not result.partial, (result.name, result.note)
        assert lo <= result.exponent <= hi, (result.name, result.exponent)
    groups = run_groups()
    assert groups.ordered
    assert groups.separation("average", "low") >= 2.0
    assert groups.separation("high", "average") >= 2.0
    assert time.perf_counter() - start < 900.0


# --------------------------------------------------------------------------
# 10. randomized invariants
# --------------------------------------------------------------------------

def test_criterion_10_randomized_invariant_suites_are_clean():
    for name, suite in ALL_SUITES:
        violations = suite()
        assert violations == [], f"{name}: {violations[0]}"
