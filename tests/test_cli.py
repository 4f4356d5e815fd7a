"""End-to-end runs of the command-line surface via ``main(argv)``."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from twostage.catalog import export_catalog
from twostage.cli import main

WIDE = "a b c d\nb a c d\na c b d\nd a b c\n"
SPLIT = "a b c\na b c\nc b a\nb c a\n"
CHAIN = "a b c\n- 1 1\n0 - 1\n0 0 -\n"
PARETO = "a b c\n2 2 1\n1 2 2\n"
SPREAD = "a b c\n3 1 2\n1 3 2\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("wide", WIDE), ("split", SPLIT), ("chain", CHAIN), ("pareto", PARETO),
        ("spread", SPREAD),
    ):
        p = tmp_path / f"{name}.txt"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- choose -----------------------------------------------------------------

def test_choose_by_index_and_name(capsys, files):
    code, out, _ = run(capsys, "choose", "--proc", "7", "--profile", files["wide"])
    assert (code, out) == (0, "{a}\n")
    code, out, _ = run(capsys, "choose", "--proc", "borda", "--profile", files["wide"])
    assert (code, out) == (0, "{a}\n")


def test_choose_prints_empty_braces(capsys, files):
    code, out, _ = run(capsys, "choose", "--proc", "1", "--profile", files["wide"])
    assert (code, out) == (0, "{}\n")


def test_choose_with_subset(capsys, files):
    code, out, _ = run(
        capsys, "choose", "--proc", "7", "--subset", "b,c,d", "--profile", files["wide"]
    )
    assert (code, out) == (0, "{b}\n")


def test_choose_k_stable_with_a_huge_k_answers_at_once(capsys, files):
    # paths longer than m - 1 reach nothing new, so k = 10**9 stops early
    _, want, _ = run(capsys, "choose", "--proc", "21", "--k", "2", "--profile", files["split"])
    start = time.perf_counter()
    code, out, _ = run(capsys, "choose", "--proc", "21", "--k", "1000000000", "--profile", files["split"])
    assert (code, out) == (0, want) and time.perf_counter() - start < 5


def test_choose_qpareto_on_grades(capsys, files):
    code, out, _ = run(
        capsys, "choose", "--proc", "qpareto", "--q", "0", "--grades", files["pareto"]
    )
    assert (code, out) == (0, "{b}\n")


def test_choose_on_majority_matrix(capsys, files):
    code, out, _ = run(capsys, "choose", "--proc", "19", "--majority", files["chain"])
    assert (code, out) == (0, "{a}\n")


def test_choose_two_stage_id(capsys, files):
    # id 29 = plurality then simple majority; the contraction has no majority winner
    code, out, _ = run(
        capsys, "choose", "--two-stage", "29", "--profile", files["wide"]
    )
    assert (code, out) == (0, "{}\n")


# -- compose ----------------------------------------------------------------

def test_compose_prints_both_stages(capsys, files):
    code, out, _ = run(
        capsys, "compose", "--first", "2", "--second", "7", "--profile", files["wide"]
    )
    assert code == 0
    assert out == "stage1 {a, b, d}\nfinal {a}\n"


def test_compose_requires_both_stages(capsys, files):
    code, _, err = run(capsys, "compose", "--first", "2", "--profile", files["wide"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "rule",
    [
        ("--first", "7", "--second", "7", "--k", "3"),
        ("--first", "4", "--second", "7", "--k", "3"),
        ("--first", "21", "--second", "7", "--q", "3"),
        ("--two-stage", "29", "--q", "2"),
    ],
)
def test_compose_rejects_a_parameter_no_stage_takes(capsys, files, rule):
    code, out, err = run(capsys, "compose", *rule, "--profile", files["wide"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "takes a" in err


def test_compose_takes_a_two_stage_id(capsys, files):
    code, out, err = run(capsys, "compose", "--two-stage", "29", "--profile", files["wide"])
    assert (code, out, err) == (0, "stage1 {a, b, d}\nfinal {}\n", "")


def test_compose_without_a_rule_names_its_rule_flags(capsys, files):
    code, out, err = run(capsys, "compose", "--profile", files["wide"])
    assert (code, out) == (2, "")
    assert err == "error: pick a rule with --two-stage ID or --first I --second J\n"


def test_compose_rejects_grade_table_input(capsys, files):
    code, _, err = run(
        capsys, "compose", "--first", "2", "--second", "7", "--grades", files["pareto"]
    )
    assert code == 2
    assert "full profile" in err


# -- check ------------------------------------------------------------------

def test_check_holds_exits_zero(capsys, files):
    code, out, _ = run(
        capsys, "check", "--proc", "7", "--axiom", "Mon1", "--profile", files["wide"]
    )
    assert code == 0
    assert out.startswith("MON1 holds")


def test_check_violation_exits_one(capsys, files):
    code, out, _ = run(
        capsys, "check", "--proc", "2", "--axiom", "H", "--profile", files["split"]
    )
    assert code == 1
    assert out.startswith("H violated: ")


def test_check_reports_vacuous_detail(capsys, files):
    code, out, _ = run(
        capsys, "check", "--proc", "7", "--axiom", "Mon2", "--profile", files["wide"]
    )
    assert code == 0
    assert "MON2 holds (" in out


def test_check_on_majority_input(capsys, files):
    code, out, _ = run(
        capsys, "check", "--proc", "19", "--axiom", "H", "--majority", files["chain"]
    )
    assert (code, out) == (0, "H holds\n")


@pytest.mark.parametrize(
    "rule, axiom, table, code, out",
    [
        (("--proc", "qpareto", "--q", "0"), "H", "pareto", 0, "H holds\n"),
        (("--proc", "22"), "C", "pareto", 0, "C holds\n"),
        (("--proc", "26"), "O", "spread", 0, "O holds\n"),
        (("--proc", "qpareto", "--q", "0"), "NC", "spread", 1,
         "NC violated: the choice is {a, b, c} but the worst-grade-count "
         "order puts {c} first\n"),
        (("--first", "22", "--second", "26"), "MON2", "spread", 0,
         "MON2 holds (vacuous: fewer than two alternatives chosen)\n"),
    ],
)
def test_check_on_grade_table_gives_verdicts_for_grade_rules(capsys, files, rule, axiom, table, code, out):
    got = run(capsys, "check", *rule, "--axiom", axiom, "--grades", files[table])
    assert got == (code, out, "")


@pytest.mark.parametrize("axiom", ["Mon1", "SM"])
def test_check_on_grade_table_rejects_improvement_conditions(capsys, files, axiom):
    code, out, err = run(
        capsys, "check", "--proc", "qpareto", "--axiom", axiom, "--grades", files["pareto"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "improvement move" in err


@pytest.mark.parametrize(
    "rule", [("--two-stage", "29"), ("--proc", "2"), ("--proc", "12"), ("--first", "22", "--second", "7")]
)
def test_check_on_grade_table_rejects_rules_that_need_a_profile(capsys, files, rule):
    code, out, err = run(capsys, "check", *rule, "--axiom", "H", "--grades", files["pareto"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "full profile" in err


def test_check_unknown_axiom(capsys, files):
    code, _, err = run(
        capsys, "check", "--proc", "7", "--axiom", "Z", "--profile", files["wide"]
    )
    assert code == 2
    assert "unknown axiom" in err


# -- search / verify ----------------------------------------------------------

def test_search_finds_heredity_violation(capsys):
    code, out, _ = run(
        capsys, "search", "--proc", "2", "--axiom", "H", "--m", "3", "--n", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status found"
    assert lines[1].startswith("examined ")
    assert lines[2].startswith("witness: ")
    assert lines[3] == "a b c"  # the offending profile follows, header first
    assert len(lines) == 3 + 1 + 3


def test_search_exhausts_without_witness(capsys):
    code, out, _ = run(
        capsys, "search", "--proc", "7", "--axiom", "Mon1", "--m", "2", "--n", "2"
    )
    assert code == 1
    assert out.splitlines()[0] == "status exhausted"


def test_verify_confirms_small_case(capsys):
    code, out, _ = run(
        capsys, "verify", "--proc", "7", "--axiom", "Mon1", "--m", "3", "--n", "2"
    )
    assert code == 0
    assert out == "status verified\nchecked 36\n"


@pytest.mark.parametrize("flag, values", [("--m", ("3", "4")), ("--n", ("2", "5"))])
def test_verify_rejects_a_repeated_size(capsys, flag, values):
    argv = ["verify", "--proc", "7", "--axiom", "Mon1", "--m", "3", "--n", "2"]
    for value in values[1:]:
        argv += [flag, value]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: verify checks one size; {flag} was given 2 times\n"


@pytest.mark.parametrize("command, flag", [
    ("verify", ("--mode", "random")),
    ("verify", ("--samples", "5")),
    ("verify", ("--seed", "3")),
    ("verify", ("--subsets", "deletions")),
    ("compose", ("--proc", "7")),
    ("check", ("--subset", "zz")),
])
def test_a_flag_the_command_does_not_take_is_a_usage_error(capsys, files, command, flag):
    argv = {
        "verify": ["verify", "--proc", "7", "--axiom", "Mon1", "--m", "3", "--n", "2"],
        "compose": ["compose", "--first", "2", "--second", "1", "--profile", files["wide"]],
        "check": ["check", "--proc", "7", "--axiom", "H", "--profile", files["wide"]],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(flag)}" in captured.err


@pytest.mark.parametrize("m, n", [("-1", "2"), ("3", "-1")])
def test_verify_size_below_one_is_a_usage_error(capsys, m, n):
    code, out, err = run(capsys, "verify", "--proc", "7", "--axiom", "Mon1", "--m", m, "--n", n)
    assert (code, out) == (2, "")
    assert err == "error: m and n must be positive\n"


@pytest.mark.parametrize("flag", ["--m", "--n"])
def test_search_rejects_a_repeated_size(capsys, flag):
    code, out, err = run(capsys, "search", "--proc", "7", "--axiom", "H", flag, "3", flag, "3")
    assert (code, out) == (2, "")
    assert err == f"error: each {flag[2:]} value may be given once, not [3, 3]\n"


def test_verify_budget_below_one_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "verify", "--proc", "7", "--axiom", "Mon1", "--m", "3", "--n", "2",
        "--budget", "0",
    )
    assert (code, out) == (2, "")
    assert err == "error: budget must be positive\n"


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_search_samples_below_one_is_a_usage_error(capsys, samples):
    code, out, err = run(
        capsys, "search", "--proc", "7", "--axiom", "H", "--mode", "random",
        "--samples", samples,
    )
    assert (code, out) == (2, "")
    assert err == "error: samples must be positive\n"


def test_verify_refutes_with_witness(capsys):
    code, out, _ = run(
        capsys, "verify", "--proc", "2", "--axiom", "H", "--m", "3", "--n", "3"
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "status refuted"
    assert lines[2].startswith("witness: ")


def test_verify_answers_a_huge_cell_at_once(capsys):
    # a budget-exceeded verification exits 1; the sizes stay usage errors
    # below 1 and a small cell still verifies
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--proc", "7", "--axiom", "H", "--m", "5000", "--n", "300")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "status budget-exceeded\nchecked 0\n")
    assert run(capsys, "verify", "--proc", "7", "--axiom", "H", "--m", "0", "--n", "300")[0] == 2
    assert run(capsys, "verify", "--proc", "7", "--axiom", "H", "--m", "3", "--n", "2")[0] == 0


def test_budget_env_var_feeds_verify(capsys, monkeypatch):
    monkeypatch.setenv("TWOSTAGE_BUDGET", "50")
    code, out, _ = run(
        capsys, "verify", "--proc", "7", "--axiom", "Mon1", "--m", "3", "--n", "3"
    )
    assert code == 1
    assert out == "status budget-exceeded\nchecked 0\n"


def test_budget_env_var_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("TWOSTAGE_BUDGET", "soon")
    assert main(["verify", "--proc", "7", "--axiom", "Mon1"]) == 2
    assert "TWOSTAGE_BUDGET must be a positive integer" in capsys.readouterr().err


def test_budget_env_var_garbage_is_a_usage_error_for_every_command(capsys, monkeypatch):
    monkeypatch.setenv("TWOSTAGE_BUDGET", "0")
    assert main(["catalog", "--counts"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "TWOSTAGE_BUDGET must be a positive integer, got '0'" in captured.err


# -- fixtures -----------------------------------------------------------------

def test_fixtures_replay_bundled_corpus(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_fixtures_empty_directory(capsys, tmp_path):
    code, _, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert code == 2
    assert "no fixtures" in err


def test_fixtures_reports_failures(capsys, tmp_path):
    (tmp_path / "bad.yaml").write_text(
        "name: bad\n"
        "title: wrong on purpose\n"
        "inputs:\n"
        "  main:\n"
        "    kind: profile\n"
        "    text: |\n"
        "      a b\n"
        "      a b\n"
        "rule:\n"
        "  procedure: 2\n"
        "checks:\n"
        "  - op: choose\n"
        "    expect: [b]\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert code == 1
    assert "FAIL  bad" in out
    assert "failed:" in out
    assert out.splitlines()[-1] == "total 1 fixtures, 0 passed, 1 failed"


@pytest.mark.parametrize("doc", ["- a list\n- of lines\n", "just text\n", "", "name: [open\n"])
def test_fixtures_rejects_a_document_that_is_not_a_fixture(capsys, tmp_path, doc):
    (tmp_path / "bad.yaml").write_text(doc, encoding="utf-8")
    code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "bad.yaml" in err


@pytest.mark.parametrize("op, fields, wanted", [
    ("support", "expect: {a: {b: 1}}", "a full profile or a support matrix"),
    ("counts", "counts: first_place\n    expect: {a: 1}", "a full profile"),
])
def test_fixtures_rejects_an_op_its_input_cannot_feed(capsys, tmp_path, op, fields, wanted):
    (tmp_path / "bad.yaml").write_text(
        "name: bad\n"
        "inputs:\n"
        "  main:\n"
        "    kind: majority\n"
        "    text: |\n"
        "      a b\n"
        "      - 1\n"
        "      0 -\n"
        "checks:\n"
        f"  - op: {op}\n"
        f"    {fields}\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: fixture bad: check 1: {op} needs {wanted}, not a majority relation\n"


def test_fixtures_names_the_check_whose_rule_cannot_read_the_input(capsys, tmp_path):
    (tmp_path / "bad.yaml").write_text(
        "name: bad\n"
        "inputs:\n"
        "  main: {kind: majority, text: \"a b\\n- 1\\n0 -\\n\"}\n"
        "rule: {procedure: 7}\n"
        "checks:\n"
        "  - {op: choose, expect: [a]}\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: fixture bad: check 1: borda needs a full profile, not a majority relation\n"


def test_fixtures_rejects_a_document_of_the_wrong_shape(capsys, tmp_path):
    (tmp_path / "bad.yaml").write_text("name: bad\ninputs: [1, 2]\n", encoding="utf-8")
    code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert (code, out, err) == (2, "", "error: fixture bad: inputs must be a mapping, not [1, 2]\n")


@pytest.mark.parametrize("field, message", [
    ("rule: 5", "rule must be a mapping"),
    ("checks: 5", "checks must be a list"),
])
def test_fixtures_names_a_rule_or_checks_of_the_wrong_shape(capsys, tmp_path, field, message):
    (tmp_path / "bad.yaml").write_text(f"name: bad\n{field}\n", encoding="utf-8")
    code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: fixture bad: {message}, not 5\n")


def test_fixtures_rejects_a_check_field_its_op_does_not_declare(capsys, tmp_path):
    (tmp_path / "bad.yaml").write_text(
        "name: bad\n"
        "inputs:\n"
        "  main: {kind: profile, text: \"a b\\nb a\\na b\\n\"}\n"
        "rule: {procedure: 2}\n"
        "checks:\n"
        "  - {op: choose, subest: [a], expect: [a]}\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert (code, out, err) == (2, "", "error: fixture bad: check 1 has an unknown field 'subest'\n")


@pytest.mark.parametrize("input_text, check, message", [
    pytest.param('{kind: majority, text: "a b\\n- 1\\n0 -\\n"}',
                 "{op: choose, apply: [{improve: {target: b, criterion: 1, steps: 1}}], expect: [a]}",
                 "check 1: transform 1: improve needs a full profile, not a majority relation",
                 id="transform-kind"),
    pytest.param('{kind: grades, text: "a b\\n1 x\\n"}', "{op: choose, expect: [a]}",
                 "input 'main': line 2: grades must be integers", id="text"),
    pytest.param('{kind: profile, text: "a b\\nb a\\na b\\n"}', "{op: choose, subset: [a, z], expect: [a]}",
                 "check 1: unknown alternative 'z'", id="subset"),
    pytest.param('{kind: profile, text: "a b\\nb a\\na b\\n"}',
                 "{op: choose, apply: [{improve: {target: z, criterion: 1, steps: 1}}], expect: [a]}",
                 "check 1: transform 1: unknown alternative 'z'", id="target"),
    pytest.param('{kind: profile, text: "a b\\nb a\\na b\\n"}',
                 "{op: choose, apply: [{improve: {target: b, criterion: 9, steps: 1}}], expect: [a]}",
                 "check 1: transform 1: criterion 9 out of range: the profile has 2 criteria", id="criterion"),
    pytest.param('{kind: profile, text: "a b\\nb a\\na b\\n"}', "{op: choose, apply: [{}], expect: [a]}",
                 "check 1: transform 1 must hold exactly one of improve, perturb, realize", id="transform-none"),
    pytest.param('{kind: majority, text: "a b\\n- 1\\n0 -\\n"}',
                 "{op: choose, apply: [{perturb: {winner: b, loser: a}, realize: true}], expect: [a]}",
                 "check 1: transform 1 must hold exactly one of improve, perturb, realize", id="transform-two"),
])
def test_fixtures_names_where_an_input_or_check_cannot_be_read(capsys, tmp_path, input_text, check, message):
    (tmp_path / "bad.yaml").write_text(
        f"name: bad\ninputs:\n  main: {input_text}\nrule: {{procedure: 20}}\nchecks:\n  - {check}\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: fixture bad: {message}\n")


def test_fixtures_names_the_file_of_a_nameless_document(capsys, tmp_path):
    path = tmp_path / "nameless.yaml"
    path.write_text("title: no name\n", encoding="utf-8")
    code, out, err = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {path}: fixture document has no 'name' field\n")


# -- bench --------------------------------------------------------------------

@pytest.mark.parametrize("suite", ["scaling", "groups"])
def test_bench_negative_seed_is_a_usage_error(capsys, suite):
    code, out, err = run(capsys, "bench", "--suite", suite, "--seed", "-1", "--m-max", "1000")
    assert (code, out, err) == (2, "", "error: expected non-negative integer\n")


def test_bench_groups_suite(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "groups", "--group-m", "40")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "group\tfirst\tsecond\tseconds"
    assert len(lines) == 1 + 9 + 3 + 1
    assert any(line.startswith("total_low\t") for line in lines)
    assert lines[-1] in ("ordered\tyes", "ordered\tno")


def test_bench_scaling_suite_small(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "scaling", "--m-max", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("name\tm\tn\tseconds")
    assert len(lines) == 1 + 4  # one grid point per procedure at this cap
    assert "too few" in out


def test_bench_scaling_with_no_timed_point_reports_every_procedure(capsys):
    code, out, err = run(
        capsys, "bench", "--suite", "scaling", "--budget-seconds", "0", "--m-max", "1000"
    )
    assert (code, err) == (0, "")
    note = "budget exceeded in round 1 of 3, after 0 of 1 grid points"
    assert out.splitlines()[1:] == [
        f"{name}\t\t\t\t\t\tyes\t{note}" for name in ("borda", "minimax", "simpson", "copeland_1")
    ]


def test_bench_negative_budget_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "bench", "--suite", "scaling", "--budget-seconds", "-1", "--m-max", "1000"
    )
    assert (code, out) == (2, "")
    assert "non-negative" in err


def test_bench_m_max_below_the_grid_is_a_usage_error(capsys):
    code, out, err = run(capsys, "bench", "--suite", "scaling", "--m-max", "500")
    assert (code, out) == (2, "")
    assert "--m-max must be at least 1000" in err


@pytest.mark.parametrize("group_m", ["0", "-3"])
def test_bench_group_m_below_one_is_a_usage_error(capsys, group_m):
    code, out, err = run(capsys, "bench", "--suite", "groups", "--group-m", group_m)
    assert (code, out) == (2, "")
    assert err == f"error: a profile needs m >= 1 and n >= 1, got m={group_m}, n=10\n"


# -- catalog ------------------------------------------------------------------

def test_catalog_names(capsys):
    code, out, _ = run(capsys, "catalog", "--names")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 28
    assert lines[0] == "1\tsimple_majority"
    assert lines[6] == "7\tborda"


def test_catalog_counts(capsys):
    code, out, _ = run(capsys, "catalog", "--counts")
    assert code == 0
    assert out == "total\t784\ndegenerate\t168\nequivalent\t25\nregular\t591\n"


def test_catalog_with_no_flag_prints_the_export(capsys):
    code, out, _ = run(capsys, "catalog")
    assert (code, out) == (0, export_catalog())


def test_catalog_export_to_file(capsys, tmp_path):
    target = tmp_path / "table.tsv"
    code, out, _ = run(capsys, "catalog", "--out", str(target))
    assert code == 0
    assert out == f"wrote {target}\n"
    lines = target.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 785
    assert lines[0].startswith("id\tfirst\t")


@pytest.mark.parametrize("lines", [0, 1])
def test_catalog_into_a_closed_pipe_exits_quietly(lines):
    # A reader gone before the first write makes that write raise
    # BrokenPipeError.  One that has read a line leaves the command inside
    # its one large write, which Python's buffered writer ends early
    # without raising.  Either way the exit is 0 with nothing on stderr.
    src = Path(__file__).resolve().parents[1] / "src"
    path = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.Popen([sys.executable, "-m", "twostage.cli", "catalog"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    read = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")
    assert all(line.startswith(b"id\tfirst\t") for line in read)


def test_catalog_export_to_a_missing_directory_is_an_error(capsys, tmp_path):
    target = tmp_path / "missing" / "table.tsv"
    code, out, err = run(capsys, "catalog", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


# -- usage errors --------------------------------------------------------------

def test_conflicting_rule_flags(capsys, files):
    code, _, err = run(
        capsys, "choose", "--proc", "2", "--first", "1", "--profile", files["wide"]
    )
    assert code == 2
    assert "error:" in err


def test_missing_input(capsys):
    code, _, err = run(capsys, "choose", "--proc", "2")
    assert code == 2
    assert "exactly one of" in err


def test_unknown_procedure_name(capsys, files):
    code, _, err = run(
        capsys, "choose", "--proc", "sonnet", "--profile", files["wide"]
    )
    assert code == 2
    assert "error:" in err


def test_unreadable_input_file(capsys):
    code, _, err = run(
        capsys, "choose", "--proc", "2", "--profile", "/nonexistent/p.txt"
    )
    assert code == 2
    assert "cannot read" in err


def test_an_input_file_that_is_not_utf8_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_bytes(b"a b\n\xff\n")
    code, out, err = run(capsys, "choose", "--proc", "2", "--profile", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("text, line", [
    ("a b c\n- 1 1\n1 - 0\n0 1 -\n", 3),  # a and b beat each other
    ("a b c\n1 1 1\n0 - 1\n0 0 -\n", 2),  # a beats itself
])
def test_impossible_majority_matrix_is_an_input_error(capsys, tmp_path, text, line):
    path = tmp_path / "mu.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "choose", "--proc", "core", "--majority", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: line {line}: ")


def test_a_grade_past_64_bits_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("a b\n99999999999999999999999 1\n", encoding="utf-8")
    code, out, err = run(capsys, "choose", "--proc", "22", "--grades", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: line 2: grades must lie within signed 64-bit range\n"


def test_malformed_profile_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b c\na b\n", encoding="utf-8")
    code, _, err = run(capsys, "choose", "--proc", "2", "--profile", str(bad))
    assert code == 2
    assert "error:" in err
