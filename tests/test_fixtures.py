"""The worked-example corpus replays cleanly, and the fixture runner's ops,
transforms, and failure reporting behave."""

import pytest

from twostage import run_corpus, run_fixture
from twostage.fixtures import corpus_dir, run_fixture_file

EXPECTED_FIXTURES = {
    "id029_case1",
    "id029_case2",
    "id029_case5",
    "id029_case7",
    "id029_case8",
    "id040",
    "id050",
    "id057",
    "id068",
    "id076",
    "id078",
    "id169",
    "id197",
    "id365_case1",
    "id365_case5",
    "id383_case2",
    "id404",
    "id412_case1",
    "id412_case2",
    "id534_case5",
    "id589",
    "id731",
    "qpareto_table",
}


def test_corpus_replays_clean():
    reports = run_corpus()
    assert {r.name for r in reports} == EXPECTED_FIXTURES
    for report in reports:
        assert report.checks, report.name
        assert report.passed, report.summary()


def test_single_fixture_file_runs():
    report = run_fixture_file(corpus_dir() / "id197.yaml")
    assert report.passed
    assert report.name == "id197"


def test_inline_fixture_all_ops():
    doc = {
        "name": "inline",
        "title": "synthetic smoke fixture",
        "inputs": {
            "main": {
                "kind": "profile",
                "text": "a b c d\nb a c d\na c b d\nd a b c\n",
            },
            "table": {
                "kind": "grades",
                "text": "a b c\n3 1 2\n3 1 2\n1 3 2\n",
            },
            "relation": {
                "kind": "majority",
                "text": "a b c\n- 1 1\n0 - 1\n0 0 -\n",
            },
            "pareto": {
                "kind": "grades",
                "text": "a b c\n2 2 1\n1 2 2\n",
            },
        },
        "rule": {"procedure": 7},
        "checks": [
            {"op": "choose", "expect": ["a"]},
            {"op": "choose", "subset": ["b", "c", "d"], "expect": ["b"]},
            {
                "op": "choose",
                "rule": {"two_stage": [2, 7]},
                "expect_stage1": ["a", "b", "d"],
                "expect": ["a"],
            },
            {"op": "counts", "counts": "first_place",
             "expect": {"a": 1, "b": 1, "c": 0, "d": 1}},
            {"op": "counts", "counts": "borda",
             "expect": {"a": 7, "b": 5, "c": 3, "d": 3}},
            {"op": "majority_edges",
             "expect": [["a", "b"], ["a", "c"], ["a", "d"],
                        ["b", "c"], ["b", "d"], ["c", "d"]]},
            {"op": "support", "expect": {"a": {"b": 2, "c": 3, "d": 2}}},
            {"op": "grade_table", "input": "table",
             "expect": {"a": [3, 3, 1], "b": [1, 1, 3], "c": [2, 2, 2]}},
            {"op": "threshold_order", "input": "table",
             "expect": [["c"], ["a"], ["b"]]},
            {"op": "qpareto", "input": "pareto", "q": 0, "expect": ["b"]},
            {"op": "qpareto", "input": "table", "q": 0,
             "expect": ["a", "b", "c"]},
            {"op": "minimal_sets", "input": "relation", "solution": "dominant",
             "expect": [["a"]]},
            {"op": "minimal_sets", "solution": "undominated", "expect": [["a"]]},
            {"op": "axiom", "axiom": "MON1", "expect": "holds"},
            {"op": "axiom", "rule": {"procedure": 2}, "axiom": "NC",
             "expect": "violated"},
            # transforms: improving c two steps in the first criterion makes
            # it the top choice there, changing the first-place counts
            {"op": "counts", "counts": "first_place",
             "apply": [{"improve": {"target": "c", "criterion": 2, "steps": 1}}],
             "expect": {"a": 0, "b": 1, "c": 1, "d": 1}},
            {"op": "minimal_sets", "input": "relation", "solution": "dominant",
             "apply": [{"perturb": {"winner": "c", "loser": "a"}}],
             "expect": [["a", "b", "c"]]},
            {"op": "choose", "input": "relation", "rule": {"procedure": 2},
             "apply": [{"realize": True}], "expect": ["a"]},
        ],
    }
    report = run_fixture(doc)
    assert report.passed, report.summary()
    assert len(report.checks) == 19  # two-stage check records both stages


def test_inline_fixture_failure_reports_detail():
    doc = {
        "name": "failing",
        "inputs": {"main": {"kind": "profile", "text": "a b\na b\nb a\n"}},
        "rule": {"procedure": 2},
        "checks": [{"op": "choose", "expect": ["a"]}],
    }
    report = run_fixture(doc)
    assert not report.passed
    (check,) = report.checks
    assert not check.passed
    assert "got {a, b}" in check.detail
    assert "[FAIL]" in report.summary()
    assert "XX " in report.summary()


def test_fixture_runner_rejects_malformed_documents():
    base = {"name": "bad", "inputs": {"main": {"kind": "profile", "text": "a b\na b\n"}}}
    with pytest.raises(ValueError):
        run_fixture({**base, "rule": {"procedure": 2},
                     "checks": [{"op": "sing", "expect": []}]})
    with pytest.raises(ValueError):
        run_fixture({**base,
                     "checks": [{"op": "choose", "expect": []}]})  # no rule
    with pytest.raises(ValueError):
        run_fixture({**base, "rule": {"procedure": 2},
                     "checks": [{"op": "choose", "input": "ghost", "expect": []}]})
    with pytest.raises(ValueError):
        run_fixture({**base, "rule": {"procedure": 2},
                     "checks": [{"op": "choose", "apply": [{"warp": 1}],
                                 "expect": []}]})
    with pytest.raises(ValueError):
        run_fixture({"name": "bad", "inputs": {"main": {"kind": "sonnet", "text": ""}}})
    with pytest.raises(ValueError):
        run_fixture({**base, "rule": {"species": 2}, "checks": []})


@pytest.mark.parametrize("op, kind, fields", [
    ("counts", "grades", {"counts": "borda"}),
    ("counts", "majority", {"counts": "first_place"}),
    ("majority_edges", "grades", {}),
    ("support", "grades", {}),
    ("support", "majority", {}),
    ("grade_table", "majority", {}),
    ("threshold_order", "majority", {}),
    ("minimal_sets", "grades", {"solution": "dominant"}),
    ("qpareto", "majority", {"q": 0}),
])
def test_fixture_ops_reject_an_input_kind_they_cannot_read(op, kind, fields):
    text = {"grades": "a b\n1 2\n", "majority": "a b\n- 1\n0 -\n"}[kind]
    doc = {"name": "wrong", "inputs": {"main": {"kind": kind, "text": text}},
           "checks": [{"op": op, "expect": [], **fields}]}
    with pytest.raises(TypeError, match=f"^fixture wrong: {op} needs a full profile"):
        run_fixture(doc)


def test_corpus_covers_the_required_minimum():
    # the documented minimum replay set for the acceptance gate
    required = {
        "id029_case1", "id029_case2", "id029_case7", "id029_case8",
        "id040", "id057", "id169", "id197", "id365_case1", "id383_case2",
        "id404", "id412_case1", "id412_case2", "id534_case5", "id589",
        "id731", "qpareto_table",
    }
    assert required <= EXPECTED_FIXTURES
