"""Procedure semantics checked against independent brute-force oracles.

The relation-based rules are compared over every asymmetric relation up to
four alternatives and a random sample at five; the order-based rules over
seeded random profiles, with a few frozen hand-worked cases.
"""

import itertools

import numpy as np
import pytest

import oracles
from twostage import (
    GradeTable,
    MajorityRelation,
    Profile,
    all_profiles,
    apply_procedure,
    check_axiom,
    compose,
    contract,
    enumerate_majority_relations,
    generate_profile,
    grade_table,
    majority_relation,
    make_procedure,
    tournament_matrix,
)
from twostage import procedures
from twostage.procedures import (
    _REGISTRY,
    Procedure,
    QParetoRule,
    ScopedProfile,
    _degrees,
    _kernel_input,
    _row_masks,
    black,
    borda,
    condorcet_winner,
    coombs,
    copeland,
    core,
    fishburn,
    hare,
    inverse_borda,
    inverse_plurality,
    k_stable_sets,
    minimal_dominant_sets,
    minimal_undominated_sets,
    minimax,
    nanson,
    plurality,
    q_approval,
    q_pareto,
    richelson,
    run_off,
    simple_majority,
    simpson,
    super_threshold,
    threshold_order,
    threshold_rule,
    uncovered_1,
    uncovered_2,
    weakly_stable_sets,
)
from twostage.profiles import TournamentMatrix, default_labels


def orders_of(p: Profile):
    return [
        tuple(sorted(p.labels, key=lambda lab: p.rank_of(lab, i)))
        for i in range(p.n)
    ]


def random_relations(m, count, seed):
    rng = np.random.default_rng(seed)
    labels = tuple("abcdefgh"[:m])
    for _ in range(count):
        beats = np.zeros((m, m), dtype=bool)
        for i in range(m):
            for j in range(i + 1, m):
                state = rng.integers(0, 3)
                if state == 1:
                    beats[i, j] = True
                elif state == 2:
                    beats[j, i] = True
        yield MajorityRelation(labels, beats)


def random_profiles(cases, base_seed):
    for idx, (m, n) in enumerate(cases):
        yield generate_profile(m, n, base_seed + idx)


PROFILE_CASES = [
    (m, n) for m in (1, 2, 3, 4, 5) for n in (1, 2, 3, 4, 5, 6, 7) for _ in range(4)
]


# ---------------------------------------------------------------------------
# relation-based rules vs. subset-enumeration oracles
# ---------------------------------------------------------------------------

def assert_relation_rules_match(mu):
    labels = mu.labels
    edges = oracles.edge_set(mu)

    assert minimal_dominant_sets(mu) == oracles.brute_dominant_sets(labels, edges)
    assert minimal_undominated_sets(mu) == oracles.brute_undominated_sets(labels, edges)
    assert sorted(weakly_stable_sets(mu), key=sorted) == oracles.brute_weakly_stable_sets(labels, edges)
    for k in (2, 3):
        assert sorted(k_stable_sets(mu, k), key=sorted) == oracles.brute_k_stable_sets(labels, edges, k)
    assert fishburn(mu) == oracles.brute_fishburn(labels, edges)
    assert uncovered_1(mu) == oracles.brute_uncovered_1(labels, edges)
    assert uncovered_2(mu) == oracles.brute_uncovered_2(labels, edges)
    assert richelson(mu) == oracles.brute_richelson(labels, edges)
    assert condorcet_winner(mu) == oracles.brute_condorcet(labels, edges)
    assert core(mu) == oracles.brute_core(labels, edges)
    for variant in (1, 2, 3):
        assert copeland(mu, variant) == oracles.brute_copeland(labels, edges, variant)


def test_relation_rules_match_oracles_exhaustive_to_m4():
    count = 0
    for m in range(1, 5):
        for mu in enumerate_majority_relations(m):
            assert_relation_rules_match(mu)
            count += 1
    assert count == 1 + 3 + 27 + 729


def test_relation_rules_match_oracles_random_m5():
    for mu in random_relations(5, 250, seed=20260818):
        assert_relation_rules_match(mu)


# Each matrix random and all True, whose counts reach the top of every
# uint8 block and, over 70,000 columns, pass uint16; rows 254-257 and 511
# sit about one and two 255-row blocks.  (5, 5) takes the plain sum.
@pytest.mark.parametrize(
    "shape", [(5, 5), (254, 70), (255, 70), (256, 70), (257, 70), (511, 40), (2, 70_000)]
)
def test_degrees_match_a_wide_sum_on_both_axes(shape):
    drawn = np.random.default_rng(sum(shape)).random(shape) < 0.5
    for beats in (drawn, np.ones(shape, dtype=bool)):
        for view in (beats, beats.T):
            for axis in (0, 1):
                got = _degrees(view, axis)
                assert got.dtype == np.int32
                assert (got == view.sum(axis=axis, dtype=np.int64)).all()


def large_relation(m, kind):
    """A relation past one 255-row block of the narrow degree counts and
    past the covering rules' first block."""
    if kind == "tournament":  # nothing covered
        upper = np.triu(np.random.default_rng(m).random((m, m)) < 0.5, 1)
        return MajorityRelation(default_labels(m), upper | np.triu(~upper, 1).T)
    n = {"ties": 4, "order": 1, "odd": 5}[kind]  # one order has a Condorcet winner
    return majority_relation(generate_profile(m, n, seed=m))


@pytest.mark.parametrize(
    "m, kind", [(256, "ties"), (257, "tournament"), (300, "odd"), (400, "order"), (600, "ties")]
)
def test_degree_rules_match_oracles_on_large_relations(m, kind):
    mu = large_relation(m, kind)
    labels, edges = mu.labels, oracles.edge_set(mu)
    for variant in (1, 2, 3):
        assert copeland(mu, variant) == oracles.brute_copeland(labels, edges, variant)
    assert condorcet_winner(mu) == oracles.brute_condorcet(labels, edges)
    assert fishburn(mu) == oracles.brute_fishburn(labels, edges)
    assert uncovered_1(mu) == oracles.brute_uncovered_1(labels, edges)
    assert uncovered_2(mu) == oracles.brute_uncovered_2(labels, edges)
    assert richelson(mu) == oracles.brute_richelson(labels, edges)


def sparse_relations(m, count, seed):
    """Random relations with a tie share drawn per relation, so both dense
    and sparse ones (many small sink components) occur."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        tie = rng.uniform(0.2, 0.98)
        state = rng.random((m, m))
        forward = state < (1 - tie) / 2
        backward = (state >= (1 - tie) / 2) & (state < 1 - tie)
        beats = np.triu(forward, 1) | np.triu(backward, 1).T
        yield MajorityRelation(default_labels(m), beats)


def assert_sink_rules_match_scc(mu):
    edges = oracles.edge_set(mu)
    assert minimal_dominant_sets(mu) == oracles.scc_dominant_sets(mu.labels, edges)
    assert minimal_undominated_sets(mu) == oracles.scc_undominated_sets(mu.labels, edges)


def test_sink_component_rules_match_scc_oracle_random_m6_to_40():
    for m in (6, 7, 8, 9, 12, 20, 40, 63, 64, 65, 129):
        for mu in sparse_relations(m, 40, seed=4000 + m):
            assert_sink_rules_match_scc(mu)


def test_sink_component_rules_match_scc_oracle_structured_m200():
    m = 200
    labels = default_labels(m)
    path = np.eye(m, k=1, dtype=bool)
    cycle = np.zeros((m, m), dtype=bool)
    half = m // 2
    for i in range(half):
        cycle[i, (i + 1) % half] = True
    pendants_beaten = cycle.copy()
    pendants_beating = cycle.copy()
    for i in range(half):
        pendants_beaten[i, half + i] = True
        pendants_beating[half + i, i] = True
    edgeless = np.zeros((m, m), dtype=bool)
    transitive = np.triu(np.ones((m, m), dtype=bool), 1)
    for beats in (edgeless, path, path.T, transitive, pendants_beaten, pendants_beating):
        assert_sink_rules_match_scc(MajorityRelation(labels, beats))
    edgeless = MajorityRelation(labels, edgeless)
    assert minimal_dominant_sets(edgeless) == [frozenset(labels)]
    assert minimal_undominated_sets(edgeless) == [frozenset({x}) for x in labels]


def test_stable_set_rules_match_oracles_m8_m9():
    for m in (8, 9):
        for mu in sparse_relations(m, 12, seed=5000 + m):
            labels, edges = mu.labels, oracles.edge_set(mu)
            assert sorted(weakly_stable_sets(mu), key=sorted) == oracles.brute_weakly_stable_sets(labels, edges)
            for k in (2, 3):
                assert sorted(k_stable_sets(mu, k), key=sorted) == oracles.brute_k_stable_sets(labels, edges, k)


@pytest.mark.parametrize("m", [*range(1, 18), 63, 64, 65, 257])
def test_row_masks_match_one_bit_per_marked_column(m):
    """Up to eight columns every layout packs in one call; wider, a
    C-contiguous matrix and a strided slice pack their rows directly, and a
    transposed view, whose rows are its base's columns, packs eight base
    rows at a time after padding.  All give bit j for column j at every
    width."""
    rng = np.random.default_rng(m)
    matrix = rng.random((m, m)) < 0.5
    matrix[:, -1] = matrix[-1] = True  # the top bit and the last byte are set
    wide = rng.random((m + 1, 2 * m)) < 0.5
    wide[:, -2] = True  # the top bit of the strided slice below
    for view in (matrix, matrix.T, wide[1:, ::2]):
        assert view.shape == (m, m)
        brute = [sum(1 << int(j) for j in np.flatnonzero(row)) for row in view]
        assert _row_masks(view) == brute


def test_k_stable_power_loop_stops_once_nothing_new_is_reached():
    """k beyond m - 1 adds no vertex a path can reach, so a huge k gives the
    sets of k = m - 1 (at least 2) and costs no more."""
    def relations(m):
        yield from enumerate_majority_relations(m) if m <= 4 else sparse_relations(m, 40, seed=7000 + m)
        chain = np.eye(m, k=1, dtype=bool)  # a -> b -> ... : the longest shortest path
        yield MajorityRelation(default_labels(m), chain)

    for m in range(1, 7):
        k = max(2, m - 1)
        for mu in relations(m):
            want = oracles.brute_k_stable_sets(mu.labels, oracles.edge_set(mu), k)
            assert sorted(k_stable_sets(mu, 10**9), key=sorted) == want
            assert sorted(k_stable_sets(mu, k), key=sorted) == want


def test_minimal_dominant_set_is_unique_and_nested_rules_nonempty():
    for mu in enumerate_majority_relations(4):
        assert len(minimal_dominant_sets(mu)) == 1
        assert minimal_undominated_sets(mu)
        assert weakly_stable_sets(mu)
        assert fishburn(mu)


def test_condorcet_winner_pins_down_relation_rules():
    seen_winner = False
    for mu in enumerate_majority_relations(4):
        cw = condorcet_winner(mu)
        if not cw:
            continue
        seen_winner = True
        assert len(cw) == 1
        assert minimal_dominant_sets(mu) == [cw]
        assert cw <= core(mu)
        assert weakly_stable_sets(mu) == [cw]
    assert seen_winner


# ---------------------------------------------------------------------------
# support-matrix rules
# ---------------------------------------------------------------------------

def test_support_rules_match_oracles():
    for p in random_profiles(PROFILE_CASES, base_seed=100):
        if p.m == 1:
            continue
        t = tournament_matrix(p)
        support = {
            x: {y: t.support(x, y) for y in t.labels if y != x}
            for x in t.labels
        }
        assert minimax(t) == oracles.brute_minimax(t.labels, support)
        assert simpson(t) == oracles.brute_simpson(t.labels, support)
        assert simpson(t) == minimax(t)


def test_minimax_and_simpson_share_one_kernel():
    # they choose the same set on every input, so the two registry rows and
    # the two public names hold one function
    assert procedures._REGISTRY[27].kernel is procedures._REGISTRY[28].kernel
    assert minimax is simpson
    # a and b tie with a strongest rival of 1; the kernel reverses the
    # column maxima with bitwise NOT, so the tie must hold in every dtype
    # the counts come in: uint8, uint16 and int64 from profiles, int64 from
    # a given matrix
    counts = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [0, 1, 0, 1], [1, 0, 1, 0]])
    for dtype in (np.uint8, np.uint16, np.int64):
        t = TournamentMatrix._trusted(tuple("abcd"), counts.astype(dtype), 2)
        assert simpson(t) == frozenset("ab"), dtype
    t = TournamentMatrix("abcd", counts.astype(np.int32), 2)
    assert t.counts.dtype == np.int64 and simpson(t) == frozenset("ab")


def test_support_rules_single_alternative():
    p = generate_profile(1, 3, seed=7)
    t = tournament_matrix(p)
    assert minimax(t) == frozenset({"a"})
    assert simpson(t) == frozenset({"a"})


# ---------------------------------------------------------------------------
# order-based rules vs. plain-python oracles
# ---------------------------------------------------------------------------

def test_scoring_rules_match_oracles():
    for p in random_profiles(PROFILE_CASES, base_seed=300):
        orders = orders_of(p)
        assert simple_majority(p) == oracles.brute_simple_majority(orders)
        assert plurality(p) == oracles.brute_plurality(orders)
        assert inverse_plurality(p) == oracles.brute_inverse_plurality(orders)
        assert borda(p) == oracles.brute_borda_rule(orders)
        for q in range(1, p.m + 1):
            assert q_approval(p, q) == oracles.brute_q_approval(orders, q)


def test_elimination_rules_match_oracles():
    every_sorted = (
        p
        for m, n in [(3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3)]
        for p in all_profiles(m, n, orbits=True)
    )
    for p in [*random_profiles(PROFILE_CASES, base_seed=500), *every_sorted]:
        orders = orders_of(p)
        assert run_off(p) == oracles.brute_run_off(orders)
        assert hare(p) == oracles.brute_hare(orders)
        assert coombs(p) == oracles.brute_coombs(orders)
        assert inverse_borda(p) == oracles.brute_inverse_borda(orders)
        assert nanson(p) == oracles.brute_nanson(orders)


def test_black_is_condorcet_else_borda():
    # black reads S alone; n = 256 and 300 give uint16 counts, and an even n
    # leaves tied pairs, which beat neither way
    large = [(m, n) for m in (3, 4, 5, 6) for n in (256, 300) for _ in range(4)]
    branches = set()
    for p in random_profiles([*PROFILE_CASES, *large], base_seed=700):
        cw = condorcet_winner(majority_relation(p))
        want = cw if cw else borda(p)
        assert black(tournament_matrix(p)) == want
        assert Procedure(8).choose(p) == want
        if p.n >= 256:
            assert tournament_matrix(p).counts.dtype == np.uint16
            branches.add(bool(cw))
    assert branches == {True, False}


def test_cyclic_hand_case():
    # Three criteria rotating a > b > c: a perfect cycle, everything ties.
    p = Profile([("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
    mu = majority_relation(p)
    everyone = frozenset({"a", "b", "c"})

    assert set(mu.edges()) == {("a", "b"), ("b", "c"), ("c", "a")}
    assert simple_majority(p) == frozenset()
    assert plurality(p) == everyone
    assert borda(p) == everyone
    assert run_off(p) == frozenset()
    assert hare(p) == everyone
    assert coombs(p) == everyone
    assert nanson(p) == everyone
    assert inverse_borda(p) == everyone
    assert condorcet_winner(mu) == frozenset()
    assert core(mu) == frozenset()
    assert minimal_dominant_sets(mu) == [everyone]
    assert minimal_undominated_sets(mu) == [everyone]
    assert weakly_stable_sets(mu) == [
        frozenset({"a", "b"}),
        frozenset({"a", "c"}),
        frozenset({"b", "c"}),
    ]
    assert k_stable_sets(mu, 2) == [
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"c"}),
    ]
    assert fishburn(mu) == everyone
    assert uncovered_1(mu) == everyone
    for variant in (1, 2, 3):
        assert copeland(mu, variant) == everyone
    t = tournament_matrix(p)
    assert minimax(t) == everyone
    assert simpson(t) == everyone


def test_only_four_procedures_choose_nothing_on_a_majority_cycle():
    # the module docstring's list of rules that can return the empty set
    p = Profile([("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
    empty = [index for index in range(1, 29) if make_procedure(index).choose(p) == frozenset()]
    assert empty == [1, 5, 19, 20]


def test_transitive_hand_case():
    # Majority relation is the transitive tournament a > b > c > d, but the
    # first-place counts three-way tie between a, b and d.
    p = Profile([("b", "a", "c", "d"), ("a", "c", "b", "d"), ("d", "a", "b", "c")])
    mu = majority_relation(p)
    a = frozenset({"a"})

    assert plurality(p) == frozenset({"a", "b", "d"})
    assert inverse_plurality(p) == frozenset({"a", "b"})
    assert q_approval(p, 2) == a
    assert borda(p) == a
    assert simple_majority(p) == frozenset()
    assert run_off(p) == frozenset()
    assert hare(p) == frozenset({"a", "b", "d"})
    assert coombs(p) == a
    assert nanson(p) == a
    assert inverse_borda(p) == a
    assert black(tournament_matrix(p)) == a
    assert condorcet_winner(mu) == a
    assert core(mu) == a
    assert minimal_dominant_sets(mu) == [a]
    assert copeland(mu, 1) == a
    t = tournament_matrix(p)
    assert minimax(t) == a
    assert simpson(t) == a


def every_rule_row():
    """Each registry row, with q-approval at q = 1-3 and k-stable at
    k = 2-3, then q-Pareto at q = 0-2."""
    rules = []
    for index, row in _REGISTRY.items():
        if row.param == "q":
            rules += [Procedure(index, q=q) for q in (1, 2, 3)]
        elif row.param == "k":
            rules += [Procedure(index, k=k) for k in (2, 3)]
        else:
            rules.append(Procedure(index))
    return rules + [QParetoRule(q) for q in range(3)]


def test_single_alternative_profile():
    p = Profile([("a",), ("a",), ("a",)])
    assert run_off(p) == frozenset({"a"})
    assert hare(p) == frozenset({"a"})
    assert coombs(p) == frozenset({"a"})
    assert simple_majority(p) == frozenset({"a"})
    assert nanson(p) == frozenset({"a"})
    assert inverse_borda(p) == frozenset({"a"})
    # every rule chooses x from {x}, whatever it reads: the catalog's
    # single-winner degenerate ids rest on this.  Each input is a profile,
    # a fresh scope, a scope holding what a whole-universe choice derived,
    # the rule's own kind and, for grade rules, a table with repeated and
    # negative grades
    rng = np.random.default_rng(399)
    for n in range(1, 12):
        for m in (1, 3):
            p = generate_profile(m, n, seed=10 * n + m)
            loose = GradeTable(p.labels, rng.integers(-2, 3, size=(n, m)))
            for rule in every_rule_row():
                warm = ScopedProfile(p, "support" in rule.kinds)
                rule.choose(warm)
                inputs = [p, ScopedProfile(p, "support" in rule.kinds), warm, derived(rule.kind, p)]
                if rule.kind == "grades":
                    inputs.append(loose)
                for x in p.labels:
                    for data in inputs:
                        assert rule.choose(data, {x}) == {x}, (rule, n, m, x, data)
                if m == 1:
                    assert all(rule.choose(data) == set(p.labels) for data in inputs), (rule, n)


def test_single_winner_shapes():
    for p in random_profiles(PROFILE_CASES, base_seed=900):
        assert len(simple_majority(p)) <= 1
        assert len(run_off(p)) <= 1
        assert len(condorcet_winner(majority_relation(p))) <= 1
        assert hare(p)
        assert coombs(p)
        assert nanson(p)
        assert inverse_borda(p)


# ---------------------------------------------------------------------------
# grade-based rules
# ---------------------------------------------------------------------------

THRESHOLD_TABLE = GradeTable(
    ("a", "b", "c"), np.array([[3, 1, 2], [3, 1, 2], [1, 3, 2]])
)


def test_threshold_hand_case():
    assert threshold_order(THRESHOLD_TABLE) == [
        frozenset({"c"}),
        frozenset({"a"}),
        frozenset({"b"}),
    ]
    assert threshold_rule(THRESHOLD_TABLE) == frozenset({"c"})


def test_super_threshold_hand_case():
    # Grade sums a=7, b=5, c=6 against the mean cutoff 6.
    assert super_threshold(THRESHOLD_TABLE) == frozenset({"a", "c"})


def random_grade_tables(count, max_m, low, high, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, max_m + 1))
        n = int(rng.integers(1, 6))
        yield GradeTable(tuple("abcdefgh"[:m]), rng.integers(low, high, size=(n, m)))


def test_threshold_rules_match_oracles_random():
    # the second batch adds zero and negative grades and m up to 8
    for g in [
        *random_grade_tables(200, 5, 1, 5, seed=20260819),
        *random_grade_tables(400, 8, -3, 5, seed=20261018),
    ]:
        labels = g.labels
        columns = {lab: g.column(lab) for lab in labels}
        assert threshold_order(g) == oracles.brute_threshold_order(labels, columns)
        for q in range(0, g.m + 1):
            assert q_pareto(g, q) == oracles.brute_q_pareto(labels, columns, q)


def test_q_pareto_hand_case():
    g = GradeTable(("a", "b", "c"), np.array([[2, 2, 1], [1, 2, 2]]))
    assert q_pareto(g, 0) == frozenset({"b"})
    assert q_pareto(g, 1) == frozenset({"a", "b", "c"})


def test_q_pareto_past_the_short_buffer_size_matches_the_oracle():
    # from m = 500 the per-criterion compare runs with a short ufunc buffer
    g = grade_table(generate_profile(520, 2, seed=520))
    columns = {lab: g.column(lab) for lab in g.labels}
    old = np.setbufsize(4096)
    try:
        for q in (0, 3):
            assert q_pareto(g, q) == oracles.brute_q_pareto(g.labels, columns, q)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


def test_q_pareto_grows_with_q_and_accepts_profiles():
    for p in random_profiles([(4, 3), (5, 5), (3, 7)], base_seed=1100):
        g = grade_table(p)
        previous = frozenset()
        for q in range(0, p.m + 1):
            current = q_pareto(g, q)
            assert previous <= current
            previous = current
        assert q_pareto(g, p.m - 1) == frozenset(p.labels)
        assert QParetoRule(1).choose(p) == q_pareto(g, 1)
    with pytest.raises(ValueError):
        q_pareto(grade_table(generate_profile(3, 3, 1)), -1)


# ---------------------------------------------------------------------------
# the registry surface
# ---------------------------------------------------------------------------

def test_make_procedure_accepts_index_name_and_instance():
    by_index = make_procedure(7)
    by_name = make_procedure("borda")
    assert by_index == by_name == Procedure(7)
    assert make_procedure(by_index) is by_index

    qa = make_procedure(4, q=3)
    assert qa.label() == "q_approval(q=3)"
    ks = make_procedure("k_stable", k=2)
    assert ks.index == 21 and ks.label() == "k_stable(k=2)"

    qp = make_procedure("qpareto")
    assert isinstance(qp, QParetoRule) and qp.q == 2
    assert make_procedure("qpareto", q=0).q == 0
    assert make_procedure(qp) is qp


# label(), kind and single_winner of every index, recorded before the
# procedure table and its dispatch chains became one registry; black (8)
# has since moved to the support kind, as it reads S alone.
REGISTRY_SURFACE = {
    1: ('simple_majority', 'profile', True),
    2: ('plurality', 'profile', False),
    3: ('inverse_plurality', 'profile', False),
    4: ('q_approval(q=2)', 'profile', False),
    5: ('run_off', 'profile', True),
    6: ('hare', 'profile', True),
    7: ('borda', 'profile', False),
    8: ('black', 'support', False),
    9: ('inverse_borda', 'profile', False),
    10: ('nanson', 'profile', False),
    11: ('coombs', 'profile', True),
    12: ('minimal_dominant', 'mu', False),
    13: ('minimal_undominated', 'mu', False),
    14: ('minimal_weakly_stable', 'mu', False),
    15: ('fishburn', 'mu', False),
    16: ('uncovered_1', 'mu', False),
    17: ('uncovered_2', 'mu', False),
    18: ('richelson', 'mu', False),
    19: ('condorcet_winner', 'mu', True),
    20: ('core', 'mu', False),
    21: ('k_stable(k=2)', 'mu', False),
    22: ('threshold', 'grades', False),
    23: ('copeland_1', 'mu', False),
    24: ('copeland_2', 'mu', False),
    25: ('copeland_3', 'mu', False),
    26: ('super_threshold', 'grades', False),
    27: ('minimax', 'support', False),
    28: ('simpson', 'support', False),
}


def test_registry_surface_is_pinned_for_every_index():
    assert sorted(REGISTRY_SURFACE) == list(range(1, 29))
    for index, (label, kind, single_winner) in REGISTRY_SURFACE.items():
        proc = make_procedure(index)
        assert (proc.label(), proc.kind, proc.single_winner) == (label, kind, single_winner)
        assert proc.kinds == {kind}
        assert proc.param == {4: "q", 21: "k"}.get(index)
    for q in (0, 1, 2):
        rule = QParetoRule(q)
        assert (rule.label(), rule.kind, rule.param) == (f"qpareto(q={q})", "grades", "q")
        assert not rule.single_winner and rule.kinds == {"grades"}


def test_make_procedure_rejects_bad_requests():
    with pytest.raises(ValueError):
        make_procedure(0)
    with pytest.raises(ValueError):
        make_procedure(29)
    with pytest.raises(ValueError):
        make_procedure("waterfall")
    assert make_procedure(4).q == 2  # parameters default to 2 when omitted
    assert make_procedure(21).k == 2
    with pytest.raises(ValueError):
        Procedure(4)  # ... but the bare constructor insists on one
    with pytest.raises(ValueError):
        make_procedure(4, q=0)
    with pytest.raises(ValueError):
        make_procedure(21, k=1)
    with pytest.raises(ValueError):
        make_procedure(7, q=2)  # borda takes no parameter
    with pytest.raises(ValueError):
        make_procedure("qpareto", k=2)
    with pytest.raises(ValueError):
        make_procedure("qpareto", q=-1)
    with pytest.raises(ValueError, match="^borda takes no k parameter$"):
        Procedure(7, k=2)
    p = generate_profile(4, 3, seed=2)
    with pytest.raises(ValueError, match="^q-approval needs q >= 1$"):
        q_approval(p, 0)  # the kernel checks q as the rule does
    with pytest.raises(ValueError, match="^no Copeland variant 4$"):
        copeland(majority_relation(p), 4)


def test_apply_procedure_rejects_parameters_for_an_existing_rule():
    p = generate_profile(5, 7, seed=3)
    assert apply_procedure(4, p, q=3) == frozenset("bcd")
    assert apply_procedure(Procedure(4, q=1), p) == frozenset("ce")
    assert apply_procedure(Procedure(4, q=3), p) == apply_procedure(4, p, q=3)
    for rule, params in (
        (Procedure(4, q=1), {"q": 3}),
        (Procedure(21, k=2), {"k": 3}),
        (QParetoRule(1), {"k": 2}),
    ):
        with pytest.raises(ValueError, match="cannot re-parameterize"):
            apply_procedure(rule, p, **params)


# every parameterized rule at several parameters, and a seeded spread of
# compositions across the input kinds
DECLARING_RULES = (
    [make_procedure(i) for i in range(1, 29) if i not in (4, 21)]
    + [Procedure(4, q=q) for q in (1, 2, 3)]
    + [Procedure(21, k=k) for k in (2, 3)]
    + [QParetoRule(q) for q in (0, 1, 2)]
    + [compose(a, b) for a, b in ((2, 1), (22, 1), (19, 7), (27, 28), (26, 23), (5, 11), (6, 17))]
    + [compose(a, b) for a, b in np.random.default_rng(41).integers(1, 29, size=(12, 2)).tolist()]
)


@pytest.mark.parametrize("rule", DECLARING_RULES, ids=lambda rule: rule.label())
def test_declared_symmetries_hold_on_random_profiles_and_subsets(rule):
    """What search and verify rely on: a ``neutral`` rule's choice follows a
    relabelling of the alternatives, and an ``anonymous`` rule's choice
    ignores the order of the criteria, from every subset."""
    assert rule.anonymous and rule.neutral
    rng = np.random.default_rng(sum(map(ord, rule.label())))
    for trial in range(60):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        p = generate_profile(m, n, seed=int(rng.integers(2**31)))
        orders = p.orders
        subset = frozenset(x for x in p.labels if rng.random() < 0.7) or frozenset(p.labels[:1])
        rename = dict(zip(p.labels, rng.permutation(p.labels).tolist()))
        relabelled = Profile([[rename[x] for x in order] for order in orders])
        want = frozenset(rename[x] for x in rule.choose(p, subset))
        assert rule.choose(relabelled, {rename[x] for x in subset}) == want, (trial, orders)
        shuffled = Profile([orders[i] for i in rng.permutation(n)])
        assert rule.choose(shuffled, subset) == rule.choose(p, subset), (trial, orders)


def test_anonymity_is_declared_by_every_built_in_rule():
    for rule in [make_procedure(i) for i in range(1, 29)] + [QParetoRule(0), compose(27, 28)]:
        assert rule.anonymous and rule.neutral, rule.label()


def test_choose_contracts_to_subset():
    p = Profile([("b", "a", "c", "d"), ("a", "c", "b", "d"), ("d", "a", "b", "c")])
    assert Procedure(7).choose(p, {"b", "c", "d"}) == frozenset({"b"})
    assert Procedure(19).choose(p, {"b", "c", "d"}) == frozenset({"b"})
    assert QParetoRule(0).choose(p, {"c", "d"}) == q_pareto(
        grade_table(p).restrict({"c", "d"}), 0
    )


KIND_RULES = {
    "profile": [Procedure(7)],
    "mu": [Procedure(12)],
    "grades": [Procedure(22), QParetoRule(1)],
    "support": [Procedure(8), Procedure(27)],
}


def derived(kind, p):
    """The input a rule of ``kind`` reads, computed from profile ``p``."""
    builder = {"mu": majority_relation, "grades": grade_table, "support": tournament_matrix}
    return builder[kind](p) if kind in builder else p


def test_kind_mismatch_raises():
    p = generate_profile(3, 3, seed=5)
    for kind, rules in KIND_RULES.items():
        for rule in rules:
            for given in KIND_RULES:
                data = derived(given, p)
                if given in ("profile", kind):
                    assert rule.choose(data) == rule.choose(p)
                    continue
                for subset in (None, {"a", "b"}):
                    with pytest.raises(TypeError, match="full profile"):
                        rule.choose(data, subset)
    # the per-kind names left on Procedure are aliases of the one entry point
    assert Procedure(12).choose_mu(majority_relation(p)) == Procedure(12).choose(p)
    assert Procedure(22).choose_grades(grade_table(p)) == Procedure(22).choose(p)
    assert Procedure(27).choose_support(tournament_matrix(p)) == Procedure(27).choose(p)
    with pytest.raises(TypeError, match="full profile"):
        compose(12, 7).choose_detailed(majority_relation(p))


def test_kind_named_aliases_are_gone():
    import twostage
    from twostage import axioms
    from twostage.catalog import TwoStage

    assert not hasattr(axioms, "check_axiom_mu")
    assert not hasattr(twostage, "check_axiom_mu")
    assert "check_axiom_mu" not in twostage.__all__
    assert not hasattr(TwoStage, "choose_mu")
    assert not hasattr(TwoStage, "choose_mu_detailed")
    assert not hasattr(QParetoRule, "choose_grades")


def one_label_views(p):
    """``p`` plain, and scoped with ``held`` unset, set to μ and set to S."""
    unset, mu, support = ScopedProfile(p, True), ScopedProfile(p, False), ScopedProfile(p, True)
    mu.held, support.held = majority_relation(p), tournament_matrix(p)
    return p, unset, mu, support


def test_a_one_label_set_builds_the_input_contraction_gives():
    # a set of one label gets its input built directly; it equals the
    # contracted and converted input, and a scope's restricted held array,
    # in labels, values, dtype and voters.  n = 254 and 255 straddle the
    # switch of the support counts from uint8 to uint16
    for n in [*range(1, 13), 254, 255]:
        for m in range(1, 6):
            p = generate_profile(m, n, seed=10 * n + m)
            for data in one_label_views(p):
                held = getattr(data, "held", None)
                for kind in KIND_RULES:
                    for x in p.labels:
                        wants = [derived(kind, contract(p, [x]))]
                        if held is not None and kind in ("mu", held.kind):
                            kept = held.restrict([x])
                            wants.append(kept if kept.kind == kind else kept.majority())
                        for subset in ({x}, frozenset({x})):
                            got = _kernel_input(kind, data, subset, "test")
                            for want in wants:
                                assert type(got) is type(want) and got == want
                                assert got.labels == want.labels == (x,)
                                assert got._array().dtype == want._array().dtype
                                assert getattr(got, "voters", None) == getattr(want, "voters", None)
                        assert getattr(data, "held", None) is held


NOUNS = {
    "profile": "a full profile",
    "mu": "a majority relation",
    "support": "a support matrix",
    "grades": "a grade table",
}


def test_a_one_label_set_raises_as_contraction_does():
    p = generate_profile(3, 4, seed=2)
    for data in one_label_views(p):
        for kind in KIND_RULES:
            with pytest.raises(ValueError, match="^unknown alternative 'z'$"):
                _kernel_input(kind, data, {"z"}, "op")
            with pytest.raises(ValueError, match="^subset of alternatives must be non-empty$"):
                _kernel_input(kind, data, set(), "op")
    for given in ("mu", "support", "grades"):
        for kind in KIND_RULES:
            if kind == given:
                continue
            wanted = "a full profile" + ("" if kind == "profile" else f" or {NOUNS[kind]}")
            with pytest.raises(TypeError, match=f"^op needs {wanted}, not {NOUNS[given]}$"):
                _kernel_input(kind, derived(given, p), {"a"}, "op")


def test_a_scope_serves_every_read_whatever_it_was_told():
    # a scope told or not told that S will be read gives every rule the
    # plain profile's choice, in either order of a μ rule and an S rule.
    # The first whole-universe read of μ or S decides what it holds: S when
    # that read is S or the scope was told, otherwise μ; a held μ does not
    # serve S, so the S reads after it contract and derive.  Each rule comes
    # with the kind of its first read
    rules = [(make_procedure(i), "support") for i in (8, 27, 28)]
    rules += [(make_procedure(20), "mu"), (compose(12, 27), "mu")]
    for m, n in ((3, 4), (5, 3), (6, 6)):
        p = generate_profile(m, n, seed=7 * m + n)
        subsets = (None, frozenset(p.labels[1:]), {p.labels[0]})
        for (first, first_read), (then, _) in itertools.permutations(rules, 2):
            for support in (False, True):
                scope = ScopedProfile(p, support)
                for rule in (first, then):
                    for subset in subsets:
                        assert rule.choose(scope, subset) == rule.choose(p, subset), (rule.label(), support)
                kind = "support" if support else first_read
                assert scope.held.kind == kind and scope.held == derived(kind, p)


# Grade rules that read the grade values themselves, not only their order:
# contracting a profile re-ranks the grades within the subset, restricting a
# grade table keeps them, so the two paths agree on the full universe only.
CARDINAL_GRADE_RULES = (22, 26)
RELATION_INDICES = [i for i in range(1, 29) if make_procedure(i).kind == "mu"]


def seeded_cases(seed, m_max):
    """Three seeded profiles per size, m 1..m_max and n 1..7 (even n gives
    majority ties), each with a random non-empty subset."""
    rng = np.random.default_rng(seed)
    for m in range(1, m_max + 1):
        for n in range(1, 8):
            for _ in range(3):
                p = generate_profile(m, n, seed=int(rng.integers(1 << 30)))
                subset = frozenset(lab for lab in p.labels if rng.random() < 0.6)
                yield rng, p, subset or frozenset(p.labels[-1:])


def test_one_input_path_agrees_with_the_profile_path():
    rules = [make_procedure(i) for i in range(1, 29)] + [QParetoRule(q) for q in range(3)]
    for rng, p, subset in seeded_cases(4404, m_max=6):
        for rule in rules:
            data = derived(rule.kind, p)
            assert rule.choose(p) == rule.choose(data), (rule, p, subset)
            if getattr(rule, "index", None) in CARDINAL_GRADE_RULES:
                want = rule.choose(grade_table(contract(p, subset)))
            else:
                want = rule.choose(data, subset)
            assert rule.choose(p, subset) == want, (rule, p, subset)
        mu = majority_relation(p)
        for _ in range(4):
            first, second = rng.choice(RELATION_INDICES, size=2)
            rule = compose(int(first), int(second))
            for sub in (None, subset):
                assert rule.choose_detailed(p, sub) == rule.choose_detailed(mu, sub)


def test_check_axiom_agrees_on_a_profile_and_its_grade_table():
    ordinal = ("H", "C", "O", "ACA", "MON2", "NC")
    cases = [(QParetoRule(q), ordinal) for q in range(3)]
    cases += [(Procedure(i), ("NC",)) for i in CARDINAL_GRADE_RULES]
    for _, p, _ in seeded_cases(4405, m_max=6):
        g = grade_table(p)
        for rule, axioms in cases:
            for axiom in axioms:
                assert check_axiom(rule, p, axiom) == check_axiom(rule, g, axiom), (rule, axiom, p)
            for axiom in ("MON1", "SM"):
                with pytest.raises(ValueError, match="improvement move"):
                    check_axiom(rule, g, axiom)


def test_k_stable_counts_no_paths_past_a_byte():
    # x001 reaches x002 by exactly 256 two-step paths, through x003..x258
    m = 258
    beats = np.zeros((m, m), dtype=bool)
    beats[0, 2:] = True
    beats[2:, 1] = True
    beats[1, 0] = True
    mu = MajorityRelation(default_labels(m), beats)
    assert k_stable_sets(mu, 2) == [frozenset({"x001"}), frozenset({"x002"})]


def test_k_stable_rejects_k_of_one():
    mu = majority_relation(generate_profile(3, 3, seed=11))
    with pytest.raises(ValueError):
        k_stable_sets(mu, 1)


def test_plurality_is_one_approval():
    for p in random_profiles([(3, 3), (4, 5), (5, 7), (2, 2)], base_seed=1300):
        assert plurality(p) == q_approval(p, 1)
