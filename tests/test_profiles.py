"""Data model: parsing, formatting, contraction, counts, perturbations."""

import numpy as np
import pytest

from twostage.procedures import minimax, simpson

from twostage.profiles import (
    GradeTable,
    MajorityRelation,
    Profile,
    ProfileFormatError,
    RankImprovement,
    TournamentMatrix,
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
        assert validated.counts.dtype == np.int32
        assert minimax(t) == simpson(t) == minimax(validated) == simpson(validated)
        assert (t.restrict(p.labels[:3]).counts == naive[:3, :3]).all()


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
