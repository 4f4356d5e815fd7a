"""The two-stage catalog: addressing, classification, flags, and the
provable equivalences (checked over every tie-free relation up to m=5)."""

import hashlib
import itertools

import numpy as np
import pytest

from twostage import (
    AXIOMS,
    MajorityRelation,
    Procedure,
    Profile,
    TwoStage,
    catalog_counts,
    check_axiom,
    classify,
    classify_group,
    compose,
    decode_two_stage,
    encode_two_stage,
    export_catalog,
    full_catalog,
    generate_profile,
    majority_relation,
    make_procedure,
    tournament_matrix,
    two_stage_from_id,
)
from twostage import catalog, procedures
from twostage.catalog import _R_SINGLE, DEGENERATE_IDS, EQUIVALENT_TO
from twostage.fixtures import corpus_dir
from twostage.procedures import (
    QParetoRule,
    black,
    condorcet_winner,
    copeland,
    core,
    fishburn,
    minimal_undominated,
    minimal_weakly_stable,
    richelson,
    simpson,
    uncovered_1,
    uncovered_2,
)


def tournaments(m):
    """Every tie-free asymmetric relation over m alternatives."""
    labels = tuple("abcde"[:m])
    pairs = list(itertools.combinations(range(m), 2))
    for states in itertools.product((0, 1), repeat=len(pairs)):
        beats = np.zeros((m, m), dtype=bool)
        for (i, j), s in zip(pairs, states):
            if s:
                beats[i, j] = True
            else:
                beats[j, i] = True
        yield MajorityRelation(labels, beats)


# ---------------------------------------------------------------------------
# addressing
# ---------------------------------------------------------------------------

def test_id_round_trip():
    for first in range(1, 29):
        for second in range(1, 29):
            ts = encode_two_stage(first, second)
            assert decode_two_stage(ts) == (first, second)
    assert encode_two_stage(1, 1) == 1
    assert encode_two_stage(28, 28) == 784
    assert encode_two_stage(2, 1) == 29
    assert encode_two_stage(12, 13) == 321


def test_id_bounds_are_enforced():
    for bad in (0, 785, -3):
        with pytest.raises(ValueError):
            decode_two_stage(bad)
    for first, second in ((0, 5), (29, 5), (5, 0), (5, 29)):
        with pytest.raises(ValueError):
            encode_two_stage(first, second)


def test_compose_and_from_id_agree():
    rule = compose(2, 7)
    assert rule.two_stage_id == encode_two_stage(2, 7)
    assert rule == two_stage_from_id(rule.two_stage_id)
    assert rule.label() == "plurality -> borda"


def test_compose_parameterizes_the_right_stage():
    rule = compose(4, 21, q=3, k=4)
    assert rule.first.q == 3 and rule.second.k == 4
    # ready-made Procedure objects pass through untouched
    custom = compose(Procedure(4, q=5), Procedure(21, k=2))
    assert custom.first.q == 5 and custom.second.k == 2
    assert compose("plurality", "borda") == compose(2, 7)


def test_compose_rejects_a_parameter_no_built_stage_takes():
    # as make_procedure does, rather than dropping the value
    for first, second, params in (
        (7, 7, {"k": 3}),
        (4, 7, {"k": 3}),
        (21, 2, {"q": 3}),
        ("borda", "copeland_1", {"q": 2, "k": 2}),
        (Procedure(4, q=5), 7, {"q": 3}),  # a ready stage keeps its own q
    ):
        with pytest.raises(ValueError, match="takes a [qk] parameter"):
            compose(first, second, **params)
    with pytest.raises(ValueError, match="takes a q parameter"):
        two_stage_from_id(encode_two_stage(7, 21), q=2, k=3)
    assert two_stage_from_id(encode_two_stage(7, 21), k=3).second.k == 3


def test_compose_rejects_qpareto_stages():
    # q-Pareto has no index, so a rule using it would have no two-stage id
    for stage in ("qpareto", QParetoRule(1)):
        for first, second in ((stage, 2), (2, stage)):
            with pytest.raises(ValueError, match="not an indexed procedure"):
                compose(first, second)


# ---------------------------------------------------------------------------
# two-stage evaluation semantics
# ---------------------------------------------------------------------------

def test_empty_first_stage_short_circuits():
    # A perfect three-way cycle: no strict-majority first choice exists.
    from twostage import Profile

    p = Profile([("a", "b", "c"), ("b", "c", "a"), ("c", "a", "b")])
    rule = compose(1, 7)
    stage1, final = rule.choose_detailed(p)
    assert stage1 == frozenset() and final == frozenset()
    assert rule.choose(p) == frozenset()


def test_second_stage_sees_the_contraction():
    from twostage import Profile

    # Plurality keeps {a, b, d}; Borda on the contraction picks a alone.
    p = Profile([("b", "a", "c", "d"), ("a", "c", "b", "d"), ("d", "a", "b", "c")])
    rule = compose(2, 7)
    stage1, final = rule.choose_detailed(p)
    assert stage1 == frozenset({"a", "b", "d"})
    assert final == frozenset({"a"})


def test_choose_factors_through_majority_relation():
    ids = [321, 348, 355, 356, 433, 551, 324]
    for idx, ts in enumerate(ids):
        rule = two_stage_from_id(ts)
        assert rule.kinds == {"mu"}
        for j in range(20):
            p = generate_profile(4, 5, seed=2000 + 100 * idx + j)
            assert rule.choose(p) == rule.choose(majority_relation(p))


def test_mu_capability_requires_both_stages():
    assert compose(2, 12).kinds == compose(12, 2).kinds == {"profile", "mu"}
    assert compose(12, 13).kinds == {"mu"}
    with pytest.raises(TypeError):
        compose(2, 12).choose(majority_relation(generate_profile(3, 3, 1)))


# ---------------------------------------------------------------------------
# classification counts and shape
# ---------------------------------------------------------------------------

def test_catalog_counts():
    counts = catalog_counts()
    assert counts == {
        "total": 784,
        "degenerate": 168,
        "equivalent": 25,
        "regular": 591,
    }


def test_every_entry_is_classified_and_flagged():
    entries = full_catalog()
    assert len(entries) == 784
    for entry in entries:
        assert entry.two_stage_id == encode_two_stage(entry.first, entry.second)
        assert entry.status in ("regular", "degenerate", "equivalent")
        assert set(entry.flags) == set(AXIOMS)
        for axiom in AXIOMS:
            assert entry.flags[axiom][0] in ("satisfies", "violates", "unverified")
        if entry.status == "degenerate":
            assert entry.detail  # human-readable reason
        if entry.status == "equivalent":
            assert entry.detail in {
                "condorcet_winner",
                "minimal_undominated",
                "minimal_weakly_stable",
                "fishburn",
                "uncovered_1",
                "uncovered_2",
                "richelson",
                "core",
                "copeland_1",
                "copeland_2",
                "copeland_3",
                "core_when_singleton",
            }


def test_degenerate_families():
    # Single-winner first stages degenerate against every second stage, and
    # the registry's single_winner column is what names them.
    single = [i for i in range(1, 29) if make_procedure(i).single_winner]
    assert single == [1, 5, 6, 11, 19]
    assert {ts for ts, why in DEGENERATE_IDS.items() if why == _R_SINGLE} == {
        encode_two_stage(first, second) for first in single for second in range(1, 29)
    }
    for first in single:
        for second in range(1, 29):
            assert classify(encode_two_stage(first, second)).status == "degenerate"
    # Self-recomputing relation stages keep their output whole.
    for ts in (320, 348, 349):
        assert classify(ts).status == "degenerate"
    assert classify(309).status == "equivalent"
    assert classify(29).status == "regular"
    assert classify(731).status == "regular"


def test_curated_flags_spot_checks():
    e29 = classify(29)
    assert e29.flags["MON1"][0] == "satisfies"
    assert e29.flags["SM"][0] == "violates"
    assert e29.flags["H"][0] == "violates"
    assert classify(589).flags["NC"][0] == "violates"
    assert classify(534).flags["MON1"] == ("violates", "id534_case5")
    # Degenerate and equivalent ids are not studied as two-stage rules.
    assert all(classify(320).flags[a][0] == "unverified" for a in AXIOMS)
    assert all(classify(309).flags[a][0] == "unverified" for a in AXIOMS)


def test_flag_sources_name_their_evidence():
    # a settled flag names a corpus fixture or a tag; a misspelt fixture name
    # would otherwise pass unseen, since tests/test_fixtures.py skips a source
    # that names no fixture
    fixtures = {path.stem for path in corpus_dir().glob("*.yaml")}
    for entry in full_catalog():
        for axiom in AXIOMS:
            value, source = entry.flags[axiom]
            if value == "unverified":
                assert source in ("", "conflicting-evidence"), (entry.two_stage_id, axiom)
            else:
                assert source in fixtures or source.startswith(("block:", "family:", "vacuous:")), (
                    entry.two_stage_id, axiom, source
                )


@pytest.mark.parametrize(
    "pattern",
    ["- - - - + + -", "- - - - + + - - -", "- - - - + + - x", "-------+", ""],
)
def test_a_pattern_not_of_eight_symbols_from_plus_minus_query_is_rejected(pattern):
    row = ((2,), (7,), pattern, "family:test-row")
    with pytest.raises(ValueError, match="family:test-row"):
        list(catalog._expand([row]))


def test_no_two_claim_rows_settle_the_same_cell():
    # claim rows override the blocks and are applied in list order, so the
    # flags depend on that order only if two of them share a cell
    cells = [(ts, axiom) for ts, axiom, _, _ in catalog._expand(catalog._CLAIMS)]
    assert len(cells) == len(set(cells))


# ---------------------------------------------------------------------------
# runtime grouping
# ---------------------------------------------------------------------------

def test_classify_group_is_total_and_consistent():
    allowed = {"low", "average", "high", "depends"}
    for first in range(1, 29):
        for second in range(1, 29):
            assert classify_group(first, second) in allowed
    with pytest.raises(ValueError):
        classify_group(0, 5)
    with pytest.raises(ValueError):
        classify_group(5, 29)


def test_classify_group_spot_checks():
    # Set-enumeration first stages dominate whatever follows.
    assert classify_group(12, 27) == "high"
    assert classify_group(16, 7) == "high"
    assert classify_group(14, 1) == "high"
    # Cheap screens that keep the pool small stay cheap.
    assert classify_group(2, 16) == "low"
    assert classify_group(4, 12) == "low"
    assert classify_group(7, 2) == "low"
    # Whole-matrix rules over all alternatives sit in the middle.
    assert classify_group(27, 28) == "average"
    assert classify_group(23, 22) == "average"
    assert classify_group(25, 2) == "average"
    # A cheap screen feeding a heavy second stage depends on the filtering.
    assert classify_group(8, 27) == "depends"


# ---------------------------------------------------------------------------
# provable equivalences (relation-driven ids, tie-free relations)
# ---------------------------------------------------------------------------

_TARGET_FUNCS = {
    "condorcet_winner": condorcet_winner,
    "minimal_undominated": minimal_undominated,
    "minimal_weakly_stable": minimal_weakly_stable,
    "fishburn": fishburn,
    "uncovered_1": uncovered_1,
    "uncovered_2": uncovered_2,
    "richelson": richelson,
    "core": core,
    "copeland_1": lambda mu: copeland(mu, 1),
    "copeland_2": lambda mu: copeland(mu, 2),
    "copeland_3": lambda mu: copeland(mu, 3),
    "core_when_singleton": lambda mu: (
        core(mu) if len(core(mu)) == 1 else frozenset()
    ),
}


def test_equivalent_ids_match_their_targets_on_tournaments():
    rules = {
        ts: two_stage_from_id(ts)
        for ts in EQUIVALENT_TO
        if two_stage_from_id(ts).kinds == {"mu"}
    }
    assert len(rules) == 19
    for m in range(1, 6):
        for mu in tournaments(m):
            for ts, rule in rules.items():
                want = _TARGET_FUNCS[EQUIVALENT_TO[ts]](mu)
                assert rule.choose(mu) == want, (ts, mu.edges())


def test_majority_finish_ids_match_their_targets_on_profiles():
    # Ids whose second stage needs the profile itself (a simple-majority
    # finish); with an odd criterion count the relation is tie-free and the
    # claimed target is fully determined by it.
    profile_ids = sorted(ts for ts in EQUIVALENT_TO
                         if two_stage_from_id(ts).kinds != {"mu"})
    assert profile_ids == [309, 337, 393, 421, 449, 477]
    for idx, ts in enumerate(profile_ids):
        rule = two_stage_from_id(ts)
        target = _TARGET_FUNCS[EQUIVALENT_TO[ts]]
        for j in range(60):
            for m, n in ((3, 3), (4, 5), (5, 7)):
                p = generate_profile(m, n, seed=4000 + 997 * idx + 17 * j)
                assert rule.choose(p) == target(majority_relation(p)), (ts, p)


# ---------------------------------------------------------------------------
# degenerate no-op compositions
# ---------------------------------------------------------------------------

def test_self_recomputing_second_stages_are_no_ops():
    for ts in (320, 348, 349, 539, 540, 541, 542):
        rule = two_stage_from_id(ts)
        for j in range(40):
            p = generate_profile(5, 5, seed=6000 + 13 * j)
            stage1, final = rule.choose_detailed(p)
            assert final == stage1, (ts, p)


def test_multi_member_cores_collapse_under_majority_finish():
    rule = two_stage_from_id(533)  # core, then strict-majority finish
    for j in range(60):
        p = generate_profile(4, 4, seed=7000 + j)
        stage1, final = rule.choose_detailed(p)
        if len(stage1) >= 2:
            assert final == frozenset()
        elif len(stage1) == 1:
            assert final == stage1


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_catalog_shape():
    text = export_catalog()
    lines = text.splitlines()
    assert len(lines) == 785
    header = lines[0].split("\t")
    assert header[:7] == [
        "id", "first", "first_name", "second", "second_name", "status", "detail",
    ]
    assert header[7:] == list(AXIOMS)
    row309 = lines[309].split("\t")
    assert row309[0] == "309"
    assert row309[5] == "equivalent" and row309[6] == "condorcet_winner"
    assert all(len(line.split("\t")) == 15 for line in lines[1:])


# the sha256 of the whole exported table; a deliberate change to any id's
# status, detail or flags must update it
CATALOG_SHA256 = "4cd9e9092341a80e7fecf60552859c9d345ac4f469ca479b71be54e5a75caad5"


def test_export_catalog_is_pinned_whole():
    assert hashlib.sha256(export_catalog().encode()).hexdigest() == CATALOG_SHA256


def _record_m(monkeypatch, name):
    """Replace the converter ``procedures.<name>`` with one that records the
    size of each profile it converts."""
    seen, original = [], getattr(procedures, name)
    monkeypatch.setattr(procedures, name, lambda p: seen.append(p.m) or original(p))
    return seen


def test_a_second_stage_derives_the_relation_only_over_the_survivors(monkeypatch):
    # plurality reads the profile, so nothing is derived over all 200
    # alternatives: uncovered_1 derives the relation of the survivors alone
    seen = _record_m(monkeypatch, "majority_relation")
    survivors, _ = compose(2, 16).choose_detailed(generate_profile(200, 5, seed=1))
    assert len(survivors) > 1 and seen == [len(survivors)]


def test_a_two_stage_call_derives_the_support_once_and_keeps_nothing(monkeypatch):
    # minimax derives S over the whole profile and simpson restricts it to
    # the survivors; the next call on the same profile derives it again, as
    # nothing is cached on the profile itself
    seen = _record_m(monkeypatch, "tournament_matrix")
    rule, p = compose(27, 28), generate_profile(6, 5, seed=2)
    first = rule.choose(p)
    assert seen == [6]
    assert rule.choose(p) == first and seen == [6, 6]


def test_black_restricts_the_support_its_scope_derived(monkeypatch):
    # black reads S, as minimax and simpson do: within one two-stage call or
    # one check, S is derived once over the universe and restricted for
    # every subset, and nothing derives the majority relation
    p = generate_profile(6, 5, seed=1)
    t = tournament_matrix(p)
    support = _record_m(monkeypatch, "tournament_matrix")
    relation = _record_m(monkeypatch, "majority_relation")
    survivors, final = compose(27, 8).choose_detailed(p)
    assert 1 < len(survivors) < 6 and final == black(t.restrict(survivors))
    assert support == [6]
    support.clear()
    survivors, final = compose(8, 28).choose_detailed(p)
    assert 1 < len(survivors) < 6 and final == simpson(t.restrict(survivors))
    assert support == [6]
    support.clear()
    check_axiom(compose(27, 8), p, "H")
    assert support == [6] and relation == []


def test_a_profile_kernel_gets_a_plain_contraction_inside_a_check(monkeypatch):
    # a profile's state is its labels and its rank matrix: the contraction a
    # profile kernel reads inside a check carries nothing of the check's view
    assert Profile.__slots__ == ("ranks",)
    seen, row = [], procedures._REGISTRY[7]
    monkeypatch.setitem(
        procedures._REGISTRY, 7, row._replace(kernel=lambda p: seen.append(p) or row.kernel(p))
    )
    check_axiom(Procedure(7), generate_profile(5, 3, seed=4), "H")
    contracted = [p for p in seen if type(p) is Profile]
    assert contracted
    for p in contracted:
        held = {name for cls in Profile.__mro__ for name in getattr(cls, "__slots__", ()) if hasattr(p, name)}
        assert held <= {"labels", "ranks"} and not hasattr(p, "__dict__")


def test_a_support_two_stage_rule_takes_a_support_matrix():
    p = generate_profile(6, 5, seed=1)
    t, rule = tournament_matrix(p), compose(27, 8)
    for subset in (None, frozenset("abcf"), frozenset("de")):
        assert rule.choose(t, subset) == rule.choose(p, subset)
    assert compose(8, 28).choose_detailed(t) == compose(8, 28).choose_detailed(p)


def test_a_condition_check_derives_the_relation_once_per_profile(monkeypatch):
    # no stage of core -> uncovered_1 reads S, so a check's scope derives μ
    # alone, over its own counts, and never derives S
    support = _record_m(monkeypatch, "tournament_matrix")
    relation = _record_m(monkeypatch, "majority_relation")
    contracted = _record_m(monkeypatch, "contract")
    p = generate_profile(5, 4, seed=3)
    for axiom in ("H", "C", "O", "ACA", "MON2"):
        check_axiom(compose(20, 16), p, axiom)
    # one derivation per check, every subset restricted from it
    assert support == [] and relation == [5] * 5 and contracted == []


def test_a_relation_call_derives_the_relation_alone(monkeypatch):
    # neither stage of copeland_1 -> threshold or copeland_3 -> plurality
    # reads S, so the call derives μ with the in-place majority_relation
    support = _record_m(monkeypatch, "tournament_matrix")
    relation = _record_m(monkeypatch, "majority_relation")
    p = generate_profile(7, 4, seed=2)
    for first, second in ((23, 22), (25, 2)):
        assert compose(first, second).kinds == {"mu", "grades" if second == 22 else "profile"}
        survivors, final = compose(first, second).choose_detailed(p)
        want = make_procedure(first).choose(majority_relation(p))
        assert survivors == want and final == make_procedure(second).choose(p, want)
    assert support == [] and relation == [7, 7]


@pytest.mark.parametrize("first, second", [(20, 8), (12, 27), (27, 20)])
def test_a_relation_stage_and_a_support_stage_share_one_derivation(monkeypatch, first, second):
    # μ and S come from one support derivation over the whole universe,
    # whichever stage reads which; the other stage restricts what it keeps
    p = generate_profile(6, 4, seed=6)
    want = compose(first, second).choose_detailed(p)
    support = _record_m(monkeypatch, "tournament_matrix")
    relation = _record_m(monkeypatch, "majority_relation")
    contracted = _record_m(monkeypatch, "contract")
    got = compose(first, second).choose_detailed(p)
    assert got == want and 1 < len(got[0]) < 6
    assert support == [6] and relation == [] and contracted == []


def _choice_digest() -> str:
    """The sha256 of both stages' choices of every two-stage id and the
    choice of every procedure and of q-Pareto (q = 0, 1, 2) on 56 generated
    profiles (m = 1-7), each set written with its labels sorted."""
    rules = [(f"p{i}", make_procedure(i)) for i in range(1, 29)]
    rules += [(f"qp{q}", QParetoRule(q)) for q in (0, 1, 2)]
    two_stage = [(ts, two_stage_from_id(ts)) for ts in range(1, 785)]
    digest = hashlib.sha256()
    for m in range(1, 8):
        for n in (1, 2, 3, 4, 5, 6, 10, 11):
            p = generate_profile(m, n, 100 * m + n)
            lines = [f"{m} {n} {key} {','.join(sorted(rule.choose(p)))}" for key, rule in rules]
            for ts, rule in two_stage:
                stage1, final = rule.choose_detailed(p)
                lines.append(f"{m} {n} {ts} {','.join(sorted(stage1))} {','.join(sorted(final))}")
            digest.update(("\n".join(lines) + "\n").encode())
    return digest.hexdigest()


# the sha256 of _choice_digest's 45,640 choices; a deliberate change to any
# rule's choice on those profiles must update it
CHOICES_SHA256 = "f1049396677360a72fca0cd367f28a755af1e6a57cc0a6cf6e41788a79e76f74"


def test_every_choice_on_the_generated_profiles_is_pinned():
    assert _choice_digest() == CHOICES_SHA256
