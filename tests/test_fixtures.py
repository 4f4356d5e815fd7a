"""The worked-example corpus replays cleanly, and the fixture runner's ops,
transforms, and failure reporting behave."""

import pytest
import yaml

from twostage import decode_two_stage, full_catalog, run_corpus, run_fixture
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
    "id460",
    "id534_case5",
    "id589",
    "id712",
    "id713",
    "id731",
    "id740",
    "id741",
    "id768",
    "id769",
    "qpareto_table",
}


def test_corpus_replays_clean():
    reports = run_corpus()
    assert {r.name for r in reports} == EXPECTED_FIXTURES
    for report in reports:
        assert report.checks, report.name
        assert report.passed, report.summary()


def test_a_flag_citing_its_own_fixture_rests_on_an_axiom_check_there():
    # a flag whose source names a fixture for the same id is backed by an
    # axiom check of that condition in that fixture, on that id's rule, with
    # the flag's outcome; flags citing another id's fixture are not counted
    docs = {path.stem: yaml.safe_load(path.read_text(encoding="utf-8"))
            for path in corpus_dir().glob("*.yaml")}
    outcome = {"violates": "violated", "satisfies": "holds"}
    cited = 0
    for entry in full_catalog():
        for axiom, (value, source) in entry.flags.items():
            if source not in docs or source.split("_")[0] != f"id{entry.two_stage_id:03d}":
                continue
            cited += 1
            doc = docs[source]
            assert doc["rule"]["two_stage"] == list(decode_two_stage(entry.two_stage_id))
            expects = [check["expect"] for check in doc["checks"]
                       if check["op"] == "axiom" and check["axiom"] == axiom and "rule" not in check]
            assert expects == [outcome[value]], (entry.two_stage_id, axiom, source)
    assert cited == 37


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
    assert report.summary() == "FAIL  failing  (1 checks)\n      failed: choice -> {a} -- got {a, b}"


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
    ("counts", "grades", {"counts": "borda", "expect": {}}),
    ("counts", "majority", {"counts": "first_place", "expect": {}}),
    ("majority_edges", "grades", {}),
    ("support", "grades", {"expect": {}}),
    ("support", "majority", {"expect": {}}),
    ("grade_table", "majority", {"expect": {}}),
    ("threshold_order", "majority", {}),
    ("minimal_sets", "grades", {"solution": "dominant"}),
    ("qpareto", "majority", {"q": 0}),
])
def test_fixture_ops_reject_an_input_kind_they_cannot_read(op, kind, fields):
    text = {"grades": "a b\n1 2\n", "majority": "a b\n- 1\n0 -\n"}[kind]
    doc = {"name": "wrong", "inputs": {"main": {"kind": kind, "text": text}},
           "checks": [{"op": op, "expect": [], **fields}]}
    with pytest.raises(TypeError, match=f"^fixture wrong: check 1: {op} needs a full profile"):
        run_fixture(doc)


@pytest.mark.parametrize("rule, check", [
    pytest.param({"procedure": 7}, {"op": "choose", "expect": ["a"]}, id="choose"),
    pytest.param({"two_stage": [20, 7]}, {"op": "choose", "expect": ["a"]}, id="second-stage"),
    pytest.param({"procedure": 7}, {"op": "axiom", "axiom": "H", "expect": "holds"}, id="axiom"),
])
def test_a_rule_that_cannot_read_the_input_names_the_fixture_and_check(rule, check):
    # borda reads a full profile; this gave the rule's message alone
    doc = {"name": "wrong", "rule": rule, "inputs": {"main": MAJORITY}, "checks": [check]}
    with pytest.raises(TypeError) as exc:
        run_fixture(doc)
    assert str(exc.value) == "fixture wrong: check 1: borda needs a full profile, not a majority relation"


def _labels(field, value="ab", shape="a list of labels"):
    return f"check 1: field {field!r} must be {shape}, not {value!r}"


@pytest.mark.parametrize("body, message", [
    pytest.param("inputs: [1, 2]\n", "inputs must be a mapping, not [1, 2]", id="inputs"),
    pytest.param("inputs:\n  main: profile\n", "input 'main' must be a mapping, not 'profile'",
                 id="input"),
    pytest.param("inputs:\n  main: {kind: profile, text: 5}\n",
                 "input 'main': field 'text' must be a string, not 5", id="text"),
    pytest.param("rule: 5\n", "rule must be a mapping, not 5", id="rule"),
    pytest.param("rule: {two_stage: 5}\n",
                 "rule: field 'two_stage' must be a list of two procedures, not 5", id="two_stage"),
    pytest.param("rule: {name: borda}\n", "rule has an unknown field 'name'", id="rule-names-nothing"),
    pytest.param("checks: 5\n", "checks must be a list, not 5", id="checks"),
    pytest.param("checks: [choose]\n", "check 1 must be a mapping, not 'choose'", id="check"),
    pytest.param("checks:\n  - {op: choose, rule: 5, expect: [a]}\n",
                 "check 1: rule must be a mapping, not 5", id="check-rule"),
    pytest.param("checks:\n  - {op: choose, apply: [realize], expect: [a]}\n",
                 "check 1: transform 1 must be a mapping, not 'realize'", id="transform"),
    pytest.param("checks:\n  - {op: choose, expect: ab}\n", _labels("expect"), id="expect"),
    pytest.param("checks:\n  - {op: choose, subset: ab, expect: [a]}\n", _labels("subset"),
                 id="subset"),
    pytest.param("checks:\n  - {op: choose, rule: {two_stage: [2, 7]}, expect_stage1: ab, "
                 "expect: [a]}\n", _labels("expect_stage1"), id="expect_stage1"),
    pytest.param("checks:\n  - {op: choose, expect_stage1: [a], expect: [a]}\n",
                 "check 1: expect_stage1 needs a two-stage rule", id="expect_stage1-one-stage"),
    pytest.param("checks:\n  - {op: qpareto, q: 0, expect: ab}\n", _labels("expect"), id="qpareto"),
    pytest.param("checks:\n  - {op: threshold_order, expect: ab}\n",
                 _labels("expect", shape="a list of label lists"), id="set-list"),
    pytest.param("checks:\n  - {op: minimal_sets, solution: dominant, expect: [ab]}\n",
                 _labels("expect", ["ab"], "a list of label lists"), id="set-list-member"),
])
def test_fixture_documents_of_the_wrong_shape_name_the_fixture(tmp_path, body, message):
    head = "name: bad\n"
    if not body.startswith("rule"):
        head += "rule: {procedure: 7}\n"
    if not body.startswith("inputs"):
        head += "inputs:\n  main: {kind: profile, text: \"a b\\nb a\\na b\\n\"}\n"
    path = tmp_path / "bad.yaml"
    path.write_text(head + body, encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        run_fixture_file(path)
    assert str(exc.value) == f"fixture bad: {message}"


MAIN = {"kind": "profile", "text": "a b\nb a\na b\n"}
MAIN3 = {"kind": "profile", "text": "a b c\nb a c\nc a b\na b c\n"}


@pytest.mark.parametrize("doc, message", [
    pytest.param({"name": None}, "fixture document has no 'name' field", id="name"),
    pytest.param({"inputs": {"main": {"text": "a b\n"}}},
                 "fixture bad: input 'main' has no 'kind' field", id="kind"),
    pytest.param({"inputs": {"main": {"kind": "profile"}}},
                 "fixture bad: input 'main' has no 'text' field", id="text"),
    pytest.param({"checks": [{"expect": ["a"]}]}, "fixture bad: check 1 has no 'op' field",
                 id="op"),
    pytest.param({"checks": [{"op": "choose"}]}, "fixture bad: check 1 has no 'expect' field",
                 id="expect"),
    pytest.param({"checks": [{"op": "counts", "expect": {"a": 1}}]},
                 "fixture bad: check 1 has no 'counts' field", id="counts"),
    pytest.param({"checks": [{"op": "minimal_sets", "expect": []}]},
                 "fixture bad: check 1 has no 'solution' field", id="solution"),
    pytest.param({"checks": [{"op": "qpareto", "expect": []}]},
                 "fixture bad: check 1 has no 'q' field", id="q"),
    pytest.param({"checks": [{"op": "axiom", "expect": "holds"}]},
                 "fixture bad: check 1 has no 'axiom' field", id="axiom"),
    pytest.param({"checks": [{"op": "axiom", "axiom": "C", "expect": "maybe"}]},
                 "fixture bad: check 1: field 'expect' must be one of holds, violated, not 'maybe'",
                 id="axiom-expect"),
    *(pytest.param({"checks": [{"op": "choose", "apply": [{"improve": spec}], "expect": []}]},
                   f"fixture bad: check 1: transform 1: improve has no {field!r} field", id=field)
      for field, spec in (("target", {"criterion": 1, "steps": 1}),
                          ("criterion", {"target": "a", "steps": 1}),
                          ("steps", {"target": "a", "criterion": 1}))),
    *(pytest.param({"inputs": {"main": {"kind": "majority", "text": "a b\n- 1\n0 -\n"}},
                    "checks": [{"op": "choose", "apply": [{"perturb": spec}], "expect": []}]},
                   f"fixture bad: check 1: transform 1: perturb has no {field!r} field", id=field)
      for field, spec in (("winner", {"loser": "a"}), ("loser", {"winner": "b"}))),
])
def test_a_missing_field_names_the_fixture_and_the_field(doc, message):
    # a field given as None is left out of the document
    base = {"name": "bad", "rule": {"procedure": 7}, "inputs": {"main": MAIN}}
    with pytest.raises(ValueError) as exc:
        run_fixture({key: value for key, value in {**base, **doc}.items() if value is not None})
    assert str(exc.value) == message


def _check(**fields):
    return {"checks": [fields]}


def _must_be(where, field, shape, value):
    return f"fixture bad: {where}: field {field!r} must be {shape}, not {value!r}"


@pytest.mark.parametrize("doc, message", [
    pytest.param(_check(op="counts", counts="first_place", expect=["a"]),
                 _must_be("check 1", "expect", "a mapping", ["a"]), id="counts-expect"),
    pytest.param(_check(op="support", expect=["a"]),
                 _must_be("check 1", "expect", "a mapping", ["a"]), id="support-expect"),
    pytest.param(_check(op="grade_table", expect=3),
                 _must_be("check 1", "expect", "a mapping", 3), id="grade_table-expect"),
    pytest.param(_check(op="axiom", axiom=["H"], expect="holds"),
                 _must_be("check 1", "axiom", "a string", ["H"]), id="axiom"),
    pytest.param(_check(op="axiom", axiom="H", expect=["holds"]),
                 _must_be("check 1", "expect", "a string", ["holds"]), id="axiom-expect"),
    pytest.param(_check(op="choose", input=["main"], expect=["a"]),
                 _must_be("check 1", "input", "a string", ["main"]), id="input"),
    pytest.param(_check(op="counts", counts=["first_place"], expect={"a": 1}),
                 _must_be("check 1", "counts", "a string", ["first_place"]), id="counts"),
    pytest.param({"inputs": {"main": {**MAIN3, "kind": ["profile"]}}},
                 _must_be("input 'main'", "kind", "a string", ["profile"]), id="kind"),
    pytest.param(_check(op="qpareto", q="two", expect=["a"]),
                 _must_be("check 1", "q", "an integer", "two"), id="q"),
    pytest.param(_check(op="choose", expect=["a"],
                        apply=[{"improve": {"target": "b", "criterion": "first", "steps": 1}}]),
                 _must_be("check 1: transform 1: improve", "criterion", "an integer", "first"),
                 id="criterion"),
    pytest.param({"rule": {"procedure": 4, "q": "x"}},
                 _must_be("rule", "q", "an integer", "x"), id="rule-q"),
    pytest.param(_check(op="majority_edges", expect={"ab": 1}),
                 _must_be("check 1", "expect", "a list of pairs", {"ab": 1}), id="edges"),
])
def test_a_field_of_the_wrong_type_names_the_fixture_and_the_field(doc, message):
    # each of these crashed with a traceback, named neither the fixture nor
    # the field, or (the string "ab" as an edge) was silently misread
    base = {"name": "bad", "rule": {"procedure": 2}, "inputs": {"main": MAIN3}}
    with pytest.raises(ValueError) as exc:
        run_fixture({**base, **doc})
    assert str(exc.value) == message


GRADES = {"kind": "grades", "text": "a b c\n3 1 2\n1 3 2\n"}


@pytest.mark.parametrize("doc, message", [
    pytest.param(_check(op="choose", subest=["a", "b"], expect=["a"]),
                 "fixture bad: check 1 has an unknown field 'subest'", id="subest"),
    pytest.param(_check(op="choose", rule={"two_stage": [2, 7]}, expect_stage_1=["a"], expect=["a"]),
                 "fixture bad: check 1 has an unknown field 'expect_stage_1'", id="expect_stage_1"),
    *(pytest.param(_check(op="axiom", axiom="MON2", mon2_strict=text, expect="holds"),
                   _must_be("check 1", "mon2_strict", "true or false", text), id=f"mon2_strict-{text}")
      for text in ("no", "false")),
    pytest.param({"rule": {"procedure": [2]}},
                 _must_be("rule", "procedure", "a procedure index or name", [2]), id="procedure-list"),
    pytest.param({"rule": {"two_stage": [[2], 7]}},
                 _must_be("rule", "two_stage", "a list of two procedures", [[2], 7]), id="two_stage-list"),
    pytest.param({"rule": {"procedure": True}},
                 _must_be("rule", "procedure", "a procedure index or name", True), id="procedure-bool"),
    *(pytest.param({"inputs": {"main": GRADES}, "checks": [{"op": "grade_table", "expect": expect}]},
                   _must_be("check 1", "expect", "a mapping of labels to lists of integers", expect),
                   id=name)
      for name, expect in (("grade-column", {"a": 3}), ("grade-text", {"a": ["x"]}))),
    pytest.param(_check(op="choose", expect=[["a"]]),
                 _must_be("check 1", "expect", "a list of labels", [["a"]]), id="nested-set"),
    pytest.param(_check(op="choose", apply={"realize": True}, expect=["a"]),
                 "fixture bad: check 1: apply must be a list, not {'realize': True}", id="apply"),
    pytest.param({"title": ["x"]}, "fixture bad: field 'title' must be a string, not ['x']", id="title"),
    # one spelling per condition, the one the catalog's flags compare against
    pytest.param(_check(op="axiom", axiom="mon1", expect="holds"),
                 _must_be("check 1", "axiom", "one of H, C, O, ACA, MON1, MON2, SM, NC", "mon1"),
                 id="axiom-alias"),
    pytest.param({"rule": {"q": 2}}, "fixture bad: rule must name either a procedure or a two-stage pair",
                 id="rule-names-nothing"),
    pytest.param({"rule": {"procedure": 2, "two_stage": [2, 7]}},
                 "fixture bad: rule must name either a procedure or a two-stage pair", id="rule-names-both"),
])
def test_a_misread_document_is_refused_with_the_fixture_and_the_field(doc, message):
    # a misspelt field, a string for a bool, a list or a bool for a
    # procedure, a list for a label, a mapping for the list of transforms,
    # and a rule naming no procedure or two: each is refused before any
    # input is parsed
    base = {"name": "bad", "rule": {"procedure": 2}, "inputs": {"main": MAIN3}}
    with pytest.raises(ValueError) as exc:
        run_fixture({**base, **doc})
    assert str(exc.value) == message


MAJORITY = {"kind": "majority", "text": "a b\n- 1\n0 -\n"}


@pytest.mark.parametrize("kind, step, message", [
    pytest.param(MAJORITY, {"improve": {"target": "b", "criterion": 1, "steps": 1}},
                 "improve needs a full profile, not a majority relation", id="improve"),
    pytest.param(MAIN3, {"perturb": {"winner": "b", "loser": "a"}},
                 "perturb needs a majority relation, not a full profile", id="perturb"),
    pytest.param(MAIN3, {"realize": True}, "realize needs a majority relation, not a full profile",
                 id="realize"),
])
def test_a_transform_of_the_wrong_input_kind_names_the_fixture_check_and_transform(kind, step, message):
    # each of these crashed with an AttributeError
    doc = {"name": "bad", "rule": {"procedure": 20}, "inputs": {"main": kind},
           "checks": [{"op": "choose", "apply": [step], "expect": ["a"]}]}
    with pytest.raises(TypeError) as exc:
        run_fixture(doc)
    assert str(exc.value) == f"fixture bad: check 1: transform 1: {message}"


# an input text that does not parse, and checks naming a label or a criterion
# that the parsed input lacks
UNREADABLE = [
    pytest.param({"inputs": {"main": {"kind": "grades", "text": "a b\n1 x\n"}}},
                 "input 'main': line 2: grades must be integers", id="text"),
    pytest.param(_check(op="choose", subset=["a", "z"], expect=["a"]),
                 "check 1: unknown alternative 'z'", id="subset"),
    pytest.param(_check(op="choose", apply=[{"improve": {"target": "z", "criterion": 1, "steps": 1}}],
                        expect=["a"]),
                 "check 1: transform 1: unknown alternative 'z'", id="target"),
    pytest.param(_check(op="choose", apply=[{"improve": {"target": "b", "criterion": 9, "steps": 1}}],
                        expect=["a"]),
                 "check 1: transform 1: criterion 9 out of range: the profile has 3 criteria", id="criterion"),
    pytest.param(_check(op="choose", apply=[{"improve": {"target": "b", "criterion": 0, "steps": 1}}],
                        expect=["a"]),
                 "check 1: transform 1: criterion 0 out of range: the profile has 3 criteria",
                 id="criterion-zero"),
    pytest.param({"inputs": {"main": {"kind": "profile", "text": "a b\nb a\n"}},
                  **_check(op="choose", apply=[{"improve": {"target": "b", "criterion": 2, "steps": 1}}],
                           expect=["a"])},
                 "check 1: transform 1: criterion 2 out of range: the profile has 1 criterion",
                 id="criterion-one"),
    pytest.param(_check(op="choose", apply=[{}], expect=["a"]),
                 "check 1: transform 1 must hold exactly one of improve, perturb, realize",
                 id="transform-none"),
    pytest.param(_check(op="choose", apply=[{"improve": {"target": "b", "criterion": 1, "steps": 1},
                                             "realize": True}], expect=["a"]),
                 "check 1: transform 1 must hold exactly one of improve, perturb, realize",
                 id="transform-two"),
]


@pytest.mark.parametrize("doc, message", UNREADABLE)
def test_an_input_or_check_that_cannot_be_read_names_its_location(doc, message):
    # each of these gave the library's message alone
    base = {"name": "bad", "rule": {"procedure": 2}, "inputs": {"main": MAIN3}}
    with pytest.raises(ValueError) as exc:
        run_fixture({**base, **doc})
    assert str(exc.value) == f"fixture bad: {message}"


def test_corpus_covers_the_required_minimum():
    # the documented minimum replay set for the acceptance gate
    required = {
        "id029_case1", "id029_case2", "id029_case7", "id029_case8",
        "id040", "id057", "id169", "id197", "id365_case1", "id383_case2",
        "id404", "id412_case1", "id412_case2", "id534_case5", "id589",
        "id731", "qpareto_table",
    }
    assert required <= EXPECTED_FIXTURES
