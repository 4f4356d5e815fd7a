"""Data model: parsing, formatting, contraction, counts, perturbations."""

import itertools

import numpy as np
import pytest

import oracles
from twostage.axioms import enumerate_majority_relations
from twostage.bench import generate_profile
from twostage.procedures import minimax, simpson

from twostage.profiles import (
    GradeTable,
    MajorityRelation,
    Profile,
    ProfileFormatError,
    RankImprovement,
    ScopedProfile,
    TournamentMatrix,
    _Universe,
    _pairwise_support,
    borda_counts,
    contract,
    default_labels,
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

PROFILE_TEXT = """\
a b c
a c b
a c b
c b a
b a c
b a c
"""


def test_parse_profile_basic():
    p = parse_profile(PROFILE_TEXT)
    assert p.labels == ("a", "b", "c")
    assert p.m == 3 and p.n == 5
    assert p.orders[0] == ("a", "c", "b")
    assert p.rank_of("a", 0) == 0
    assert p.rank_of("b", 0) == 2


def test_profile_round_trip():
    p = parse_profile(PROFILE_TEXT)
    assert parse_profile(format_profile(p)) == p


def test_parse_profile_rejects_bad_input():
    with pytest.raises(ProfileFormatError):
        parse_profile("a b c\na b b\n")  # duplicate in an order
    with pytest.raises(ProfileFormatError):
        parse_profile("a b c\na b\n")  # missing alternative
    with pytest.raises(ProfileFormatError):
        parse_profile("a b c\n")  # no criteria at all
    with pytest.raises(ProfileFormatError):
        parse_profile("")
    with pytest.raises(ProfileFormatError, match="^line 2: duplicate alternative label 'b'$"):
        parse_profile("# universe\na b b\na b b\n")


def test_profile_labels_sorted_and_order_free():
    p = parse_profile("c a b\nb c a\na b c\n")
    assert p.labels == ("a", "b", "c")
    q = Profile([("b", "c", "a"), ("a", "b", "c")])
    assert q.labels == ("a", "b", "c")
    assert q.orders[0] == ("b", "c", "a")


def test_from_ranks_matches_orders():
    labels = ("a", "b", "c")
    ranks = np.array([[1, 2, 0], [0, 1, 2]])
    p = Profile.from_ranks(labels, ranks)
    assert p.orders == (("c", "a", "b"), ("a", "b", "c"))
    assert Profile(p.orders) == p


def test_default_labels_shape():
    assert default_labels(3) == ("a", "b", "c")
    labs = default_labels(30)
    assert len(labs) == len(set(labs)) == 30
    assert sorted(labs) == list(labs)


@pytest.mark.parametrize("m", [0, -3])
def test_a_generated_universe_needs_an_alternative(m):
    with pytest.raises(ValueError, match=f"needs at least one alternative, got m={m}"):
        default_labels(m)
    with pytest.raises(ValueError, match=f"needs at least one alternative, got m={m}"):
        next(enumerate_majority_relations(m))


def test_contract_preserves_relative_order():
    p = parse_profile(PROFILE_TEXT)
    pc = contract(p, {"a", "b"})
    assert pc.labels == ("a", "b")
    assert pc.orders == (("a", "b"), ("a", "b"), ("b", "a"), ("b", "a"), ("b", "a"))


def test_contract_rejects_unknown_and_empty():
    p = parse_profile(PROFILE_TEXT)
    with pytest.raises(ValueError):
        contract(p, {"a", "z"})
    with pytest.raises(ValueError):
        contract(p, set())


def test_place_counts():
    p = parse_profile(PROFILE_TEXT)
    assert first_place_counts(p) == {"a": 2, "b": 2, "c": 1}
    assert last_place_counts(p) == {"a": 1, "b": 2, "c": 2}
    assert top_q_counts(p, 1) == first_place_counts(p)
    assert top_q_counts(p, 2) == {"a": 4, "b": 3, "c": 3}
    assert top_q_counts(p, 3) == {"a": 5, "b": 5, "c": 5}


def test_borda_counts_identity():
    p = parse_profile(PROFILE_TEXT)
    counts = borda_counts(p)
    # each criterion hands out 0 + 1 + ... + (m-1) points in total
    assert sum(counts.values()) == p.n * p.m * (p.m - 1) // 2
    assert counts == {"a": 6, "b": 5, "c": 4}


def test_majority_relation_and_support():
    p = parse_profile(PROFILE_TEXT)
    t = tournament_matrix(p)
    assert t.support("a", "b") == 2 and t.support("b", "a") == 3
    assert t.support("a", "c") == 4 and t.support("b", "c") == 2
    off = ~np.eye(p.m, dtype=bool)
    assert ((t.counts + t.counts.T)[off] == p.n).all()
    mu = majority_relation(p)
    # the profile carries the classic cycle: b over a, a over c, c over b
    assert mu.edges() == (("a", "c"), ("b", "a"), ("c", "b"))
    assert mu.beats("b", "a") and not mu.beats("a", "b")


def test_majority_relation_tie_leaves_both_directions_false():
    p = parse_profile("a b\na b\nb a\n")
    mu = majority_relation(p)
    assert mu.edges() == ()


def test_grade_table_from_profile():
    p = parse_profile(PROFILE_TEXT)
    g = grade_table(p)
    # best place gets grade m, worst gets 1
    assert g.column("a") == (3, 3, 1, 2, 2)
    assert g.column("b") == (1, 1, 2, 3, 3)
    assert g.column("c") == (2, 2, 3, 1, 1)


def test_grade_table_round_trip():
    g = GradeTable(("a", "b"), np.array([[5, 1], [2, 2]]))
    assert parse_grade_table(format_grade_table(g)) == g


def test_parse_grade_table_rejects_bad_rows():
    with pytest.raises(ProfileFormatError):
        parse_grade_table("a b\n1 2 3\n")
    with pytest.raises(ProfileFormatError):
        parse_grade_table("a b\n1 x\n")
    with pytest.raises(ProfileFormatError):
        parse_grade_table("a b\n")
    with pytest.raises(ProfileFormatError, match="^line 2: duplicate alternative label 'a'$"):
        parse_grade_table("# universe\na b a\n1 2 3\n")
    for grade in ("99999999999999999999999", "-9223372036854775809"):
        with pytest.raises(ProfileFormatError, match="^line 3: grades must lie within signed 64-bit"):
            parse_grade_table(f"a b\n1 2\n{grade} 1\n")
    bounds = parse_grade_table("a b\n-9223372036854775808 9223372036854775807\n")
    assert bounds.column("b") == (9223372036854775807,)


def test_majority_matrix_round_trip():
    p = parse_profile(PROFILE_TEXT)
    mu = majority_relation(p)
    again = parse_majority_matrix(format_majority_matrix(mu))
    assert again == mu


def test_parse_majority_matrix_rejects_symmetric_pair():
    text = "a b\n- 1\n1 -\n"
    with pytest.raises(ProfileFormatError) as exc:
        parse_majority_matrix(text)
    assert exc.value.line == 3
    with pytest.raises(ProfileFormatError) as exc:
        parse_majority_matrix("a b\n1 1\n0 -\n")  # a beats itself
    assert exc.value.line == 2
    with pytest.raises(ProfileFormatError, match="^line 2: duplicate alternative label 'a'$"):
        parse_majority_matrix("# universe\na a\n- 0\n0 -\n")
    with pytest.raises(ProfileFormatError, match="^line 3: '-' allowed on the diagonal only$"):
        parse_majority_matrix("a b\n- 0\n- 0\n")


def test_restrict_matrix_and_grades():
    p = parse_profile(PROFILE_TEXT)
    mu = majority_relation(p).restrict({"a", "b"})
    assert mu.labels == ("a", "b")
    assert mu.edges() == (("b", "a"),)
    t = tournament_matrix(p).restrict({"b", "c"})
    assert t.support("c", "b") == 3
    g = grade_table(p).restrict({"c"})
    assert g.column("c") == (2, 2, 3, 1, 1)


def test_contracted_majority_is_restriction():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 8))
        ranks = np.stack([rng.permutation(m) for _ in range(n)])
        p = Profile.from_ranks(default_labels(m), ranks)
        subset = set(rng.choice(p.labels, size=int(rng.integers(1, m + 1)), replace=False))
        assert majority_relation(contract(p, subset)) == majority_relation(p).restrict(subset)


def test_improve_moves_target_up_only_in_one_criterion():
    p = parse_profile("a b c\nc b a\nb a c\n")
    q = improve(p, RankImprovement("a", 0, 2))
    assert q.orders[0] == ("a", "c", "b")
    assert q.orders[1] == p.orders[1]
    r = improve(p, RankImprovement("a", 0, 1))
    assert r.orders[0] == ("c", "a", "b")


def test_improve_rejects_impossible_steps():
    p = parse_profile("a b c\nc b a\nb a c\n")
    with pytest.raises(ValueError):
        improve(p, RankImprovement("c", 0, 1))  # already first
    with pytest.raises(ValueError):
        improve(p, RankImprovement("a", 0, 3))  # past the top
    with pytest.raises(ValueError):
        improve(p, RankImprovement("a", 5, 1))  # no such criterion


def test_improve_leaves_other_alternatives_in_relative_order():
    p = parse_profile("a b c d\nd c b a\nb a d c\n")
    q = improve(p, RankImprovement("a", 0, 2))
    reduced = tuple(x for x in q.orders[0] if x != "a")
    baseline = tuple(x for x in p.orders[0] if x != "a")
    assert reduced == baseline


def test_perturb_majority_flips_one_edge():
    p = parse_profile(PROFILE_TEXT)
    mu = majority_relation(p)
    flipped = perturb_majority(mu, "b", "a")
    assert flipped.beats("b", "a") and not flipped.beats("a", "b")
    assert flipped.beats("a", "c")  # untouched edges survive
    with pytest.raises(ValueError):
        perturb_majority(mu, "b", "b")


def test_trusted_paths_match_validated_constructors():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        ranks = np.stack([rng.permutation(m) for _ in range(n)])
        p = Profile.from_ranks(default_labels(m), ranks)
        naive = np.zeros((m, m), dtype=np.int64)
        for i in range(n):
            naive += ranks[i][:, None] < ranks[i][None, :]
        t = tournament_matrix(p)
        assert (t.counts == naive).all()
        assert t.counts.dtype == np.uint8  # the accumulator's dtype, not widened
        TournamentMatrix(p.labels, t.counts, n)  # validation accepts it
        mu = majority_relation(p)
        assert (mu.matrix == (naive > naive.T)).all()
        MajorityRelation(p.labels, mu.matrix)  # validation accepts it
    # at n >= 255 the counts no longer fit uint8; the boundary is n = 255
    for m, n, dtype in ((4, 254, np.uint8), (4, 255, np.uint16), (5, 300, np.uint16)):
        ranks = np.stack([rng.permutation(m) for _ in range(n)])
        p = Profile.from_ranks(default_labels(m), ranks)
        naive = (ranks[:, :, None] < ranks[:, None, :]).sum(axis=0)
        t = tournament_matrix(p)
        assert t.counts.dtype == dtype
        assert (t.counts == naive).all()
        validated = TournamentMatrix(p.labels, t.counts, n)
        assert validated.counts.dtype == np.int64  # a caller's counts are kept whole in int64
        assert minimax(t) == simpson(t) == minimax(validated) == simpson(validated)
        assert (t.restrict(p.labels[:3]).counts == naive[:3, :3]).all()


def test_derived_grades_and_relations_match_the_validating_constructors():
    # grade_table, perturb_majority and enumerate_majority_relations wrap
    # arrays that are valid by construction without validating them again
    def same(got, want):
        assert type(got) is type(want) and got == want and got.labels == want.labels
        assert got._array().dtype == want._array().dtype
        assert not got._array().flags.writeable

    for m in range(1, 6):
        for n in (1, 4, 7):
            p = generate_profile(m, n, seed=10 * m + n)
            same(grade_table(p), GradeTable(p.labels, p.m - p.ranks))
            mu = majority_relation(p)
            for i, j in itertools.permutations(range(m), 2):
                mat = mu.matrix.copy()
                mat[i, j], mat[j, i] = True, False
                flipped = perturb_majority(mu, mu.labels[i], mu.labels[j])
                same(flipped, MajorityRelation(mu.labels, mat))
    for m in (1, 2, 3):
        for mu in enumerate_majority_relations(m):
            same(mu, MajorityRelation(mu.labels, mu.matrix))
    mu = majority_relation(generate_profile(3, 3, seed=1))
    with pytest.raises(ValueError, match="unknown alternative 'zz'"):
        perturb_majority(mu, "a", "zz")
    with pytest.raises(ValueError, match="against itself"):
        perturb_majority(mu, "a", "a")


def test_validated_constructors_reject_inconsistent_input():
    with pytest.raises(ValueError):
        TournamentMatrix(("a", "b"), np.array([[0, 2], [2, 0]]), 3)
    with pytest.raises(ValueError):
        TournamentMatrix(("a", "b"), np.array([[1, 2], [1, 0]]), 3)
    with pytest.raises(ValueError):
        TournamentMatrix(("a", "b"), np.array([[0, -1], [4, 0]]), 3)
    with pytest.raises(ValueError):
        MajorityRelation(("a", "b"), np.array([[False, True], [True, False]]))
    with pytest.raises(ValueError):
        MajorityRelation(("a", "b"), np.array([[True, False], [False, False]]))


# -- the value type -------------------------------------------------------------

def _every_kind(p):
    """A profile and the three inputs computed from it."""
    return [p, majority_relation(p), grade_table(p), tournament_matrix(p)]


def _validated_copy(data):
    """The same input built again through its validating constructor."""
    if isinstance(data, Profile):
        return Profile(data.orders)
    if isinstance(data, MajorityRelation):
        return MajorityRelation(data.labels, data.matrix)
    if isinstance(data, GradeTable):
        return GradeTable(data.labels, data.grades)
    return TournamentMatrix(data.labels, data.counts, data.voters)


def test_equal_inputs_of_every_kind_hash_equal():
    rng = np.random.default_rng(31)
    for _ in range(40):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        ranks = np.stack([rng.permutation(m) for _ in range(n)])
        p = Profile.from_ranks(default_labels(m), ranks)
        for data in _every_kind(p):
            again = _validated_copy(data)
            assert again is not data and again == data and hash(again) == hash(data)
    # a computed support matrix keeps its uint8 sums; the validated copy is int64
    t = tournament_matrix(parse_profile(PROFILE_TEXT))
    validated = _validated_copy(t)
    assert (t.counts.dtype, validated.counts.dtype) == (np.uint8, np.int64)
    assert validated == t and hash(validated) == hash(t)
    assert len({t, validated}) == 1


def test_inputs_differ_by_values_labels_and_voters():
    p = parse_profile(PROFILE_TEXT)
    other = parse_profile("a b c\na c b\na c b\nc b a\nb a c\nc a b\n")
    for mine, theirs in zip(_every_kind(p), _every_kind(other)):
        assert mine != theirs
    g = grade_table(p)
    relabelled = GradeTable(("a", "b", "d"), g.grades)
    assert relabelled != g
    one = TournamentMatrix(("a", "b"), np.array([[0, 2], [2, 0]]), 4).restrict(("a",))
    assert one == TournamentMatrix(("a",), np.zeros((1, 1)), 4)
    assert one != TournamentMatrix(("a",), np.zeros((1, 1)), 5)  # only voters differ


def test_a_grade_table_is_a_set_member_and_a_dict_key():
    p = parse_profile(PROFILE_TEXT)
    g = grade_table(p)
    same = GradeTable(p.labels, p.m - p.ranks)
    raw = parse_grade_table("c a b\n1 3 2\n1 1 1\n")
    assert {g, same, raw} == {g, raw}
    seen = {g: "profile", raw: "raw"}
    assert seen[same] == "profile"
    assert seen[GradeTable(("a", "b", "c"), [[3, 2, 1], [1, 1, 1]])] == "raw"


def _assert_restrict_matches_the_constructor(p, picked):
    subset = [p.labels[j] for j in picked]
    square = np.ix_(picked, picked)
    mu, g, t = majority_relation(p), grade_table(p), tournament_matrix(p)
    cases = [
        (mu, "matrix", MajorityRelation(subset, mu.matrix[square])),
        (g, "grades", GradeTable(subset, g.grades[:, picked])),
        (t, "counts", TournamentMatrix(subset, t.counts[square], p.n)),
    ]
    for data, field, built in cases:
        restricted = data.restrict(subset)
        assert restricted == built and hash(restricted) == hash(built)
        assert restricted.labels == tuple(subset)
        # restriction keeps the dtype (uint8 or uint16 counts); validation widens counts
        assert getattr(restricted, field).dtype == getattr(data, field).dtype


def test_restrict_equals_the_validating_constructor_on_the_sub_array():
    rng = np.random.default_rng(37)
    for _ in range(40):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        ranks = np.stack([rng.permutation(m) for _ in range(n)])
        p = Profile.from_ranks(default_labels(m), ranks)
        picked = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
        _assert_restrict_matches_the_constructor(p, picked)
    with pytest.raises(TypeError, match="contracted, not restricted"):
        p.restrict(p.labels)


@pytest.mark.parametrize("m, n", [(5, 300), (40, 3), (40, 256)])
def test_a_partial_restriction_takes_rows_then_columns(m, n):
    # proper subsets only, at a larger m and with uint16 counts (n >= 255)
    p = generate_profile(m, n, seed=m * n)
    assert (tournament_matrix(p).counts.dtype == np.uint16) == (n >= 255)
    rng = np.random.default_rng(m + n)
    for size in (1, 2, m // 2, m - 1):
        _assert_restrict_matches_the_constructor(p, sorted(rng.choice(m, size=size, replace=False)))


def test_restricting_to_the_whole_universe_returns_the_value_itself():
    p = generate_profile(5, 300, seed=2)
    for value in (majority_relation(p), grade_table(p), tournament_matrix(p)):
        for spelling in (value.labels, frozenset(value.labels), [*reversed(value.labels), "a"]):
            assert value.restrict(spelling) is value


def test_inputs_of_different_kinds_never_compare_equal():
    for p in (parse_profile("a\na\n"), parse_profile(PROFILE_TEXT)):
        inputs = _every_kind(p)
        for i, x in enumerate(inputs):
            for j, y in enumerate(inputs):
                assert (x == y) == (i == j)
    # the same labels and array values, still different kinds
    p = parse_profile(PROFILE_TEXT)
    assert GradeTable(p.labels, p.ranks) != p
    empty = np.zeros((2, 2), dtype=np.int64)
    assert GradeTable(("a", "b"), empty) != MajorityRelation(("a", "b"), empty)
    assert MajorityRelation(("a",), [[False]]) != TournamentMatrix(("a",), [[0]], 1)


# (m, n) at each switch point of the support kernel: the rank dtype
# (int8 up to m = 128), a row panel narrower than m (at m = 1100 panels of
# 476 rows leave a last one of 148), the accumulator dtype (uint8 below
# n = 255, uint16 below 65535, int64 from there), n * panel width * m on either
# side of the 1 << 16 elements one compare may span (at m = 64 a compare
# holds 16 criteria, at m = 181 two, from m = 256 one), and n * m * m on
# either side of the 1 << 12 elements of the single int32 compare.
SUPPORT_KERNEL_SIZES = [
    *((m, 3) for m in (1, 2, 127, 128, 129, 1100)),
    (1100, 2),
    *((5, n) for n in (1, 2, 254, 255, 256)),
    (64, 15), (64, 16), (64, 17), (64, 33), (181, 2), (181, 3), (255, 2), (256, 2),
    (16, 16), (16, 17), (64, 1), (65, 1), (4, 256), (4, 257), (2, 65534), (2, 70000),
]


@pytest.mark.parametrize("m, n", SUPPORT_KERNEL_SIZES)
def test_support_kernel_matches_a_brute_count(m, n):
    p = generate_profile(m, n, seed=1000 * m + n)
    ranks = p.ranks.copy()
    support = oracles.brute_support(p.orders)
    want = np.array([[support[x].get(y, 0) for y in p.labels] for x in p.labels])
    got = _pairwise_support(p)
    assert (got == want).all() and got.dtype == (np.uint8 if n < 255 else np.uint16 if n < 65535 else np.int64)
    t = tournament_matrix(p)
    assert t.voters == n and (t.counts == want).all()
    assert (majority_relation(p).matrix == (2 * want > n)).all()
    assert p.ranks.dtype == np.int32 and (p.ranks == ranks).all()


@pytest.mark.parametrize(
    "subset, message",
    [
        (["a", "zz"], "unknown alternative 'zz'"),
        (frozenset({"a", "zz"}), "unknown alternative 'zz'"),
        ({"b", 7}, "unknown alternative 7"),
        (frozenset(), "subset of alternatives must be non-empty"),
        ((), "subset of alternatives must be non-empty"),
        (set(), "subset of alternatives must be non-empty"),
    ],
)
def test_a_bad_subset_raises_the_same_message_for_every_kind(subset, message):
    # a set is read in one pass over the labels, anything else label by
    # label; a miss in either names the unknown label
    p = generate_profile(4, 3, seed=5)
    for value in [ScopedProfile(p, support=True), *_every_kind(p)]:
        shrink = contract if value.kind == "profile" else type(value).restrict
        with pytest.raises(ValueError) as err:
            shrink(value, subset)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            value.index("zz")
        assert str(err.value) == "unknown alternative 'zz'"


def test_index_gives_each_label_its_position_for_every_kind():
    # a position is a binary search over the sorted labels: no value keeps a label map
    assert _Universe.__slots__ == ("labels",)
    p = generate_profile(5, 3, seed=6)
    derived = [majority_relation(p), tournament_matrix(p), grade_table(p), contract(p, frozenset("bcd"))]
    derived.append(derived[0].restrict(frozenset("abd")))
    unsorted = [
        MajorityRelation(["c", "a", "b"], [[0, 1, 0], [0, 0, 0], [1, 1, 0]]),
        TournamentMatrix(["c", "a", "b"], [[0, 2, 1], [1, 0, 3], [2, 0, 0]], 3),
        GradeTable(["c", "a", "b"], [[1, 2, 3]]),
    ]
    for value in [p, ScopedProfile(p, support=True), *derived, *unsorted]:
        assert [value.index(lab) for lab in value.labels] == list(range(value.m))
        assert not hasattr(value, "__dict__")
        for miss in ("", "A", "ab", "zz", None, 7):  # before, between and after the labels
            with pytest.raises(ValueError, match=f"^unknown alternative {miss!r}$"):
                value.index(miss)
    assert [value.labels for value in unsorted] == [("a", "b", "c")] * 3


def test_a_value_built_from_unsorted_labels_aligns_its_array():
    # each constructor sorts the labels and permutes the array's label axes with them
    p = generate_profile(4, 5, seed=9)
    backwards = p.labels[::-1]
    mu, t, g = majority_relation(p), tournament_matrix(p), grade_table(p)
    assert MajorityRelation(backwards, mu.matrix[::-1, ::-1]) == MajorityRelation(p.labels, mu.matrix)
    assert TournamentMatrix(backwards, t.counts[::-1, ::-1], p.n) == TournamentMatrix(p.labels, t.counts, p.n)
    assert GradeTable(backwards, g.grades[:, ::-1]) == GradeTable(p.labels, g.grades)
    assert Profile(p.orders, labels=backwards) == p
    assert MajorityRelation(["b", "a"], [[0, 1], [0, 0]]).beats("b", "a")
    assert GradeTable(["b", "a"], [[5, 1]]).column("b") == (5,)
    # the parsers pass the labels as written
    assert parse_grade_table("b a\n5 1\n") == GradeTable(["a", "b"], [[1, 5]])
    assert parse_majority_matrix("c a b\n- 1 0\n0 - 0\n1 1 -\n").edges() == (("b", "a"), ("b", "c"), ("c", "a"))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Profile([]), "profile needs at least one criterion", id="no-criterion"),
    pytest.param(lambda: Profile([("a", "b"), ("a", "c")]),
                 "criterion 2 is not a permutation of the universe", id="not-a-permutation"),
    pytest.param(lambda: Profile.from_ranks(("a", "b"), np.zeros((1, 3))),
                 "rank matrix does not match label count", id="rank-label-count"),
    pytest.param(lambda: MajorityRelation(("a", "b"), np.zeros((2, 3))),
                 "majority matrix shape does not match universe", id="majority-shape"),
    pytest.param(lambda: TournamentMatrix(("a", "b"), np.zeros((3, 3)), 1),
                 "support matrix shape does not match universe", id="support-shape"),
    pytest.param(lambda: GradeTable(("a", "b"), [1, 2]),
                 "grade matrix must be (criteria x alternatives)", id="grades-1d"),
    pytest.param(lambda: GradeTable(("a", "b"), np.zeros((0, 2))),
                 "grade table needs at least one criterion", id="no-grade-row"),
    pytest.param(lambda: MajorityRelation((), np.zeros((0, 0))),
                 "universe must contain at least one alternative", id="empty-universe"),
    pytest.param(lambda: Profile([("a b", "c")]), "bad alternative label 'a b'", id="space"),
    pytest.param(lambda: Profile([(1, 2), (2, 1)]), "bad alternative label 1", id="int-profile"),
    pytest.param(lambda: MajorityRelation([1, 2], [[0, 1], [0, 0]]), "bad alternative label 1",
                 id="int-relation"),
    pytest.param(lambda: GradeTable(["a", None], [[1, 2]]), "bad alternative label None", id="none"),
    pytest.param(lambda: improve(parse_profile(PROFILE_TEXT), RankImprovement("b", 0, 0)),
                 "steps must be positive (a zero-step move is not an improvement)", id="zero-steps"),
    pytest.param(lambda: top_q_counts(parse_profile(PROFILE_TEXT), 0), "q must be at least 1",
                 id="top-0"),
])
def test_a_malformed_value_is_rejected_with_its_message(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("grades", [[[1.5, 1.2]], [[1, float("nan")]], [[1, float("inf")]], [["1", "2"]]])
def test_a_grade_table_rejects_grades_that_are_not_integers(grades):
    # a cast would truncate them: [[1.5, 1.2]] became [[1, 1]]
    with pytest.raises(ValueError, match="grades must be integers"):
        GradeTable(["a", "b"], grades)
    assert GradeTable(["a", "b"], [[2.0, -1.0]]).grades.tolist() == [[2, -1]]


def test_a_support_matrix_keeps_counts_beyond_int32():
    # validated in int64 but stored in int32, these counts read 1 and 2
    big = 2**32 + 1
    t = TournamentMatrix(["a", "b"], [[0, big], [2, 0]], big + 2)
    assert t.counts.dtype == np.int64 and t.counts.tolist() == [[0, big], [2, 0]]
    assert t.support("a", "b") == big
    assert simpson(t) == frozenset("a")
    with pytest.raises(ValueError, match="support counts must be integers"):
        TournamentMatrix(["a", "b"], [[0, 1.5], [1.5, 0]], 3)
