"""Every procedure against the brute-force oracles in ``oracles.py`` on
drawn profiles and subsets with m <= 6, and every rule that reads a majority
relation or a support matrix: its choice from a profile equals its choice
from that profile's relation or matrix.  Every rule's declared anonymity and
neutrality hold on drawn criteria orders and relabellings.  Contraction keeps
each order filtered to the subset, for m up to 40.  A scoped profile's
relation and support matrix, restricted to a subset, equal those derived
from the contracted profile.  Restriction and contraction read a subset the
same way whether it comes as a frozenset, a list with repeats or a tuple in
any order.  The Gram-product containment behind the covering rules matches
set inclusion on drawn 0/1 matrices up to 70 x 70, and the covering rules
match their oracles on profiles with m = 60-80.  Past 128 alternatives the
covering rules run in two blocks: they match a dense reference at
m = 150-400 on profiles and on shaped relations, and each covering relation
of the oracles is transitive and lowers the key the blocks rank by."""

from itertools import combinations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import oracles  # noqa: E402
from twostage import procedures  # noqa: E402
from twostage.bench import generate_profile  # noqa: E402
from twostage.procedures import (  # noqa: E402
    PROCEDURE_NAMES,
    QParetoRule,
    ScopedProfile,
    _contained,
    _kernel_input,
    _overlaps,
    make_procedure,
)
from twostage.profiles import (  # noqa: E402
    MajorityRelation,
    Profile,
    contract,
    default_labels,
    grade_table,
    majority_relation,
    tournament_matrix,
)

# q-approval and k-stable take their catalog default, q = k = 2
RULES = {index: make_procedure(index) for index in PROCEDURE_NAMES}


def _union(sets):
    return frozenset().union(*sets)


# each procedure's oracle, on a case holding the orders over the chosen
# subset (best first), their sorted labels, majority edges, support and grades
ORACLES = {
    1: lambda c: oracles.brute_simple_majority(c.orders),
    2: lambda c: oracles.brute_plurality(c.orders),
    3: lambda c: oracles.brute_inverse_plurality(c.orders),
    4: lambda c: oracles.brute_q_approval(c.orders, 2),
    5: lambda c: oracles.brute_run_off(c.orders),
    6: lambda c: oracles.brute_hare(c.orders),
    7: lambda c: oracles.brute_borda_rule(c.orders),
    8: lambda c: oracles.brute_condorcet(c.labels, c.edges) or oracles.brute_borda_rule(c.orders),
    9: lambda c: oracles.brute_inverse_borda(c.orders),
    10: lambda c: oracles.brute_nanson(c.orders),
    11: lambda c: oracles.brute_coombs(c.orders),
    12: lambda c: _union(oracles.brute_dominant_sets(c.labels, c.edges)),
    13: lambda c: _union(oracles.brute_undominated_sets(c.labels, c.edges)),
    14: lambda c: _union(oracles.brute_weakly_stable_sets(c.labels, c.edges)),
    15: lambda c: oracles.brute_fishburn(c.labels, c.edges),
    16: lambda c: oracles.brute_uncovered_1(c.labels, c.edges),
    17: lambda c: oracles.brute_uncovered_2(c.labels, c.edges),
    18: lambda c: oracles.brute_richelson(c.labels, c.edges),
    19: lambda c: oracles.brute_condorcet(c.labels, c.edges),
    20: lambda c: oracles.brute_core(c.labels, c.edges),
    21: lambda c: _union(oracles.brute_k_stable_sets(c.labels, c.edges, 2)),
    22: lambda c: oracles.brute_threshold_order(c.labels, c.columns)[0],
    23: lambda c: oracles.brute_copeland(c.labels, c.edges, 1),
    24: lambda c: oracles.brute_copeland(c.labels, c.edges, 2),
    25: lambda c: oracles.brute_copeland(c.labels, c.edges, 3),
    26: lambda c: oracles.brute_super_threshold(c.labels, c.columns),
    27: lambda c: oracles.brute_minimax(c.labels, c.support),
    28: lambda c: oracles.brute_simpson(c.labels, c.support),
}


class _Case:
    def __init__(self, orders):
        self.orders = orders
        self.labels = sorted(orders[0])
        self.edges = oracles.brute_majority_edges(orders)
        self.support = oracles.brute_support(orders)
        self.columns = oracles.brute_grade_columns(orders)


@st.composite
def profiles_and_subsets(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    labels = default_labels(m)
    orders = [draw(st.permutations(labels)) for _ in range(n)]
    subset = draw(st.none() | st.sets(st.sampled_from(labels), min_size=1))
    return Profile(orders, labels), subset


# a single alternative and criterion, and even numbers of criteria with ties
EXAMPLES = [
    (Profile([("a",)]), None),
    (Profile([("a", "b"), ("b", "a")]), None),
    (Profile([("a", "b", "c"), ("c", "b", "a"), ("b", "a", "c"), ("b", "c", "a")]), {"a", "c"}),
]


def test_every_procedure_is_covered_by_an_oracle():
    assert set(ORACLES) == set(RULES)


def _examples(test):
    for example in EXAMPLES:
        test = hypothesis.example(case=example)(test)
    return test


@_examples
@hypothesis.settings(max_examples=200)
@hypothesis.given(case=profiles_and_subsets())
def test_every_procedure_matches_its_oracle(case):
    p, subset = case
    keep = p.labels if subset is None else subset
    oracle_case = _Case([tuple(x for x in order if x in keep) for order in p.orders])
    for index, oracle in ORACLES.items():
        assert RULES[index].choose(p, subset) == oracle(oracle_case), RULES[index].name


@_examples
@hypothesis.settings(max_examples=200)
@hypothesis.given(case=profiles_and_subsets())
def test_a_relation_or_support_rule_chooses_alike_from_a_profile_and_its_matrix(case):
    p, subset = case
    derived = {"mu": majority_relation(p), "support": tournament_matrix(p)}
    for rule in RULES.values():
        if rule.kind in derived:
            assert rule.choose(p, subset) == rule.choose(derived[rule.kind], subset), rule.name


@st.composite
def indicator_matrices(draw):
    """A 0/1 matrix of up to 70 rows and columns drawn at one of a few
    densities, with some rows and columns overwritten to be empty or full
    and some rows copied, so equal, empty and full sets all occur."""
    rows, cols = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.random((rows, cols)) < density
    for line, size in ((A, rows), (A.T, cols)):
        for j in draw(st.lists(st.integers(0, size - 1), max_size=4)):
            line[j] = draw(st.booleans())
    for src, dst in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1)), max_size=3)):
        A[dst] = A[src]
    return A


@hypothesis.example(A=np.zeros((3, 2), dtype=bool))
@hypothesis.example(A=np.ones((2, 3), dtype=bool))
@hypothesis.example(A=np.eye(4, dtype=bool))
@hypothesis.settings(max_examples=150)
@hypothesis.given(A=indicator_matrices())
def test_the_gram_containment_matches_set_inclusion(A):
    # the covering rules read row containment from A and column containment
    # from the view A.T: every pair of each against plain set inclusion;
    # and what a block of the sets shares with each of the others, given as
    # bool, against plain set intersection
    Af = A.astype(np.float32)
    for sets, given in ((A, Af), (A.T, Af.T)):
        members = [set(np.flatnonzero(row)) for row in sets]
        want = np.array([[x <= y for y in members] for x in members])
        got = _contained(given)
        assert got.dtype == bool and (got == want).all()
        k = len(members) // 3
        shared = np.array([[len(x & y) for y in members[k:]] for x in members[:k]])
        got = _overlaps(given[:k], sets[k:])
        assert got.shape == (k, len(members) - k) and (got == shared.reshape(got.shape)).all()


def test_the_overlaps_convert_the_sets_a_slab_at_a_time():
    # 4000 sets over 200 members take two slabs of float32 rows, and the
    # transposed view (200 sets over 4000 members) takes one per 131 sets
    rng = np.random.default_rng(9)
    sets = rng.random((4000, 200)) < 0.3
    A = sets[:50].astype(np.float32)
    assert (_overlaps(A, sets) == A @ sets.T.astype(np.float32)).all()
    A = sets.T[:20].astype(np.float32)
    assert (_overlaps(A, sets.T) == A @ sets.astype(np.float32)).all()


# m = 60-80, beyond the m <= 6 of the suite above, with even n for ties
@pytest.mark.parametrize("m, n, seed", [(60, 4, 1), (67, 3, 2), (73, 2, 3), (80, 6, 4), (80, 1, 5)])
def test_the_covering_rules_match_their_oracles_on_larger_profiles(m, n, seed):
    p = generate_profile(m, n, seed=seed)
    case = _Case(p.orders)
    for index in (15, 16, 17, 18):
        assert RULES[index].choose(p) == ORACLES[index](case), RULES[index].name


def _relation(kind: str, m: int, seed: int) -> np.ndarray:
    """A majority matrix over m alternatives, of one of the shapes the
    covering rules' blocks meet."""
    rng = np.random.default_rng(seed)
    if kind.startswith("n="):
        return majority_relation(generate_profile(m, int(kind[2:]), seed=seed)).matrix
    if kind == "tournament":
        upper = np.triu(rng.random((m, m)) < 0.5, 1)
        return upper | np.triu(~upper, 1).T
    if kind == "empty":
        return np.zeros((m, m), dtype=bool)
    if kind == "linear order":
        place = rng.permutation(m)
        return place[:, None] < place[None, :]
    if kind == "weak order":  # about m / 10 tie classes
        tier = rng.integers(0, m // 10, m)
        return tier[:, None] < tier[None, :]
    # "condorcet winner": a random relation with ties, and one alternative
    # that beats every other
    draw = rng.random((m, m))
    beats = np.triu(draw < 0.4, 1) | np.triu(draw > 0.7, 1).T
    winner = rng.integers(m)
    beats[winner], beats[:, winner] = True, False
    beats[winner, winner] = False
    return beats


def _dense_uncovered(beats: np.ndarray) -> dict[int, np.ndarray]:
    """Per covering rule, the alternatives nothing covers, from all-pairs
    contour containment in float64 (exact at these sizes)."""
    A = beats.astype(np.float64)
    indegree, outdegree = beats.sum(axis=0), beats.sum(axis=1)
    upper = A.T @ A >= indegree[:, None]  # |D(x) & D(y)| >= |D(x)|
    lower = A @ A.T >= outdegree[None, :]  # |L(x) & L(y)| >= |L(y)|
    covering = {
        15: upper & (indegree[:, None] < indegree[None, :]),
        16: beats & upper,
        17: beats & lower,
        18: beats & upper & lower,
    }
    return {index: ~pairs.any(axis=0) for index, pairs in covering.items()}


RELATION_KINDS = [
    "n=10", "n=11", "tournament", "empty", "linear order", "weak order", "condorcet winner"
]


# past _COVERERS = 128 alternatives the covering rules test the strongest
# first and then only the survivors (procedures._uncovered); profiles get
# four seeds each, since block 2 meets tens of survivors on some of them
# and none on others
@pytest.mark.parametrize("m", [150, 300, 400])
@pytest.mark.parametrize("kind", RELATION_KINDS)
def test_the_covering_blocks_match_a_dense_reference(kind, m, monkeypatch):
    squares, contained = [], procedures._contained

    def record(A):
        squares.append(len(A))
        return contained(A)

    monkeypatch.setattr(procedures, "_contained", record)
    for seed in range(4) if kind.startswith("n=") else [m]:
        beats = _relation(kind, m, seed)
        mu = MajorityRelation(default_labels(m), beats)
        for index, alive in _dense_uncovered(beats).items():
            want = frozenset(lab for lab, a in zip(mu.labels, alive) if a)
            assert RULES[index].choose(mu) == want, (kind, seed, RULES[index].name)
    if kind == "empty":  # every key ties, so block 2 computes nothing
        assert squares == []
    elif kind == "tournament" or (kind.startswith("n=") and m >= 300):
        assert squares and max(squares) < m  # block 2 ran over the survivors


def test_block_2_finds_a_survivor_covered_by_a_survivor():
    # 128 alternatives in a random tournament take block 1; x is beaten by
    # 100 of them and y by the same 100 and x, so x covers y under every
    # covering rule.  Both keys exceed every key in the tournament, so x and
    # y survive block 1 and meet in block 2, where x has the smallest key
    rng = np.random.default_rng(3)
    m = 130
    beats = np.zeros((m, m), dtype=bool)
    beats[:128, :128] = _relation("tournament", 128, seed=3)
    x, y = 128, 129
    above = rng.permutation(128) < 100
    for z in (x, y):
        beats[:128, z] = above
        beats[z, :128] = ~above
    beats[x, y] = True
    mu = MajorityRelation(default_labels(m), beats)
    x, y = mu.labels[x], mu.labels[y]
    for index, alive in _dense_uncovered(beats).items():
        chosen = RULES[index].choose(mu)
        assert x in chosen and y not in chosen, RULES[index].name
        assert chosen == frozenset(lab for lab, a in zip(mu.labels, alive) if a)


@st.composite
def relations(draw):
    """Labels and beat pairs of an asymmetric relation on at most 8
    alternatives: each pair beats one way, the other, or ties."""
    labels = default_labels(draw(st.integers(1, 8)))
    edges = set()
    for x, y in combinations(labels, 2):
        way = draw(st.sampled_from([(x, y), (y, x), None]))
        if way:
            edges.add(way)
    return labels, edges


@hypothesis.example(case=(("a", "b", "c"), {("a", "b"), ("b", "c"), ("c", "a")}))
@hypothesis.example(case=(("a", "b", "c", "d"), {("a", "b"), ("b", "c"), ("a", "c")}))
@hypothesis.settings(max_examples=300)
@hypothesis.given(case=relations())
def test_each_covering_relation_is_transitive_and_lowers_the_key(case):
    # what the two blocks of procedures._uncovered rely on: a coverer has a
    # strictly smaller key (its in-degree, or minus its out-degree for
    # uncovered_2), so each covering relation is acyclic too
    labels, edges = case
    indegree = {x: len(oracles.dominators(labels, edges, x)) for x in labels}
    outdegree = {x: -len(oracles.dominated(labels, edges, x)) for x in labels}
    for covering, key in (
        (oracles.fishburn_covering, indegree),
        (oracles.uncovered_1_covering, indegree),
        (oracles.uncovered_2_covering, outdegree),
        (oracles.richelson_covering, indegree),
    ):
        pairs, name = covering(labels, edges), covering.__name__
        assert all(key[x] < key[y] for x, y in pairs), name
        assert all((x, z) in pairs for x, y in pairs for w, z in pairs if w == y), name


# every indexed procedure at its catalog default, and the q-Pareto rule
DECLARING = list(RULES.values()) + [QParetoRule(2)]


@st.composite
def profiles_and_symmetries(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    labels = default_labels(m)
    orders = [draw(st.permutations(labels)) for _ in range(n)]
    criteria = draw(st.permutations(range(n)))
    rename = dict(zip(labels, draw(st.permutations(labels))))
    return Profile(orders, labels), criteria, rename


@hypothesis.example(case=(Profile([("a", "b")]), [0], {"a": "b", "b": "a"}))
@hypothesis.example(
    case=(Profile([("a", "b", "c"), ("c", "b", "a")]), [1, 0], {"a": "c", "b": "a", "c": "b"})
)
@hypothesis.settings(max_examples=150)
@hypothesis.given(case=profiles_and_symmetries())
def test_declared_anonymity_and_neutrality_hold(case):
    """What the orbit scans of search and verify rely on: an ``anonymous``
    rule ignores the order of the criteria, and a ``neutral`` rule's choice
    follows a relabelling of the alternatives."""
    p, criteria, rename = case
    permuted = Profile([p.orders[i] for i in criteria], p.labels)
    relabelled = Profile([[rename[x] for x in order] for order in p.orders], p.labels)
    for rule in DECLARING:
        assert rule.anonymous and rule.neutral, rule.label()
        chosen = rule.choose(p)
        assert rule.choose(permuted) == chosen, rule.label()
        assert rule.choose(relabelled) == frozenset(rename[x] for x in chosen), rule.label()


@st.composite
def profiles_and_kept(draw):
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 6))
    labels = default_labels(m)
    orders = [draw(st.permutations(labels)) for _ in range(n)]
    kept = draw(st.sets(st.sampled_from(labels), min_size=1))
    return Profile(orders, labels), kept


@hypothesis.example(case=(Profile([("a",)]), {"a"}))
@hypothesis.example(case=(Profile([("c", "a", "b"), ("b", "c", "a")]), {"b"}))
@hypothesis.settings(max_examples=200)
@hypothesis.given(case=profiles_and_kept())
def test_contraction_keeps_each_order_filtered_to_the_subset(case):
    p, kept = case
    filtered = tuple(tuple(x for x in order if x in kept) for order in p.orders)
    got = contract(p, kept)
    assert got.orders == filtered
    assert got == Profile(filtered) and got.ranks.dtype == np.int32


def _assert_restriction_matches_contraction(p):
    """A scope holds one array over its whole universe: S when a rule of
    its call reads S, otherwise μ.  Its input for every non-empty subset is
    the one the contracted profile derives: the same labels, values, dtype
    and ``voters``, μ included when it is read from the held S."""
    shared, mu_alone = ScopedProfile(p, support=True), ScopedProfile(p, support=False)
    for scope, kind, derive in (
        (shared, "mu", majority_relation),
        (shared, "support", tournament_matrix),
        (mu_alone, "mu", majority_relation),
    ):
        full = _kernel_input(kind, scope, None, "test")
        assert full == derive(p) and (full is scope.held) == (kind == scope.held.kind)
        for size in range(1, p.m + 1):
            for subset in combinations(p.labels, size):
                got = _kernel_input(kind, scope, subset, "test")
                want = derive(contract(p, subset))
                assert got == want and got.labels == want.labels
                assert got._array().dtype == want._array().dtype
                assert getattr(got, "voters", None) == getattr(want, "voters", None)
    assert shared.held == tournament_matrix(p) and mu_alone.held == majority_relation(p)


@st.composite
def small_profiles(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    labels = default_labels(m)
    return Profile([draw(st.permutations(labels)) for _ in range(n)], labels)


@hypothesis.example(p=Profile([("a",)]))
@hypothesis.example(p=Profile([("a", "b", "c"), ("c", "b", "a"), ("b", "a", "c"), ("b", "c", "a")]))
@hypothesis.settings(max_examples=100)
@hypothesis.given(p=small_profiles())
def test_a_scoped_profile_restricts_what_contraction_derives(p):
    _assert_restriction_matches_contraction(p)


@pytest.mark.parametrize("m, n", [(4, 256), (5, 300)])
def test_a_scoped_profile_restricts_uint16_counts(m, n):
    # n >= 255 sums the support in uint16, on both sides of the single-compare size
    p = generate_profile(m, n, seed=m + n)
    assert tournament_matrix(p).counts.dtype == np.uint16
    _assert_restriction_matches_contraction(p)


@st.composite
def profiles_and_spellings(draw):
    """A profile with m <= 9 and one non-empty subset of its labels spelt
    three ways: a frozenset, a list with repeats, a tuple in drawn order."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 4))
    labels = default_labels(m)
    p = Profile([draw(st.permutations(labels)) for _ in range(n)], labels)
    kept = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=m, unique=True))
    repeats = draw(st.lists(st.sampled_from(kept), max_size=4))
    spellings = (frozenset(kept), [*kept, *repeats], tuple(draw(st.permutations(kept))))
    return p, spellings


@hypothesis.settings(max_examples=150)
@hypothesis.given(case=profiles_and_spellings())
def test_every_spelling_of_a_subset_restricts_and_contracts_alike(case):
    p, spellings = case
    for value in (majority_relation(p), tournament_matrix(p), grade_table(p)):
        first, *rest = [value.restrict(subset) for subset in spellings]
        assert all(got == first and got.labels == first.labels for got in rest)
    first, *rest = [contract(p, subset) for subset in spellings]
    assert all(got == first and got.labels == first.labels for got in rest)
    assert first.labels == tuple(sorted(spellings[0]))
