"""Benchmark harness mechanics (small, fast runs only — the full desk-scale
sweep lives in the acceptance suite)."""

import pytest

import twostage.bench as bench
from twostage import BenchResult, classify_group, generate_profile, run_groups, run_scaling
from twostage.bench import (
    GROUP_REPRESENTATIVES,
    SET_ENUMERATION_LIMIT,
    BenchPoint,
    GroupReport,
    GroupRow,
    measure_call,
    scaling_report,
)


def test_generate_profile_is_seeded_and_well_formed():
    a = generate_profile(6, 4, seed=42)
    b = generate_profile(6, 4, seed=42)
    c = generate_profile(6, 4, seed=43)
    assert a == b
    assert a != c
    assert a.m == 6 and a.n == 4
    # every criterion row is a permutation
    for i in range(a.n):
        assert sorted(int(a.ranks[i, j]) for j in range(a.m)) == list(range(a.m))


def test_generate_profile_rejects_an_empty_universe_or_no_criteria():
    for m, n in ((0, 4), (-3, 4), (4, 0)):
        with pytest.raises(ValueError, match="needs m >= 1 and n >= 1"):
            generate_profile(m, n, seed=1)


def test_measure_call_repeats_fast_calls():
    timed = measure_call(lambda: None, trials=3, min_time=0.001)
    assert timed > 0
    assert timed < 0.001  # a no-op is far below the repeat threshold


def test_bench_point_and_result_invariants():
    with pytest.raises(ValueError):
        BenchPoint(10, 3, 0.0)
    points = tuple(BenchPoint(m, 3, 0.001 * m) for m in (2, 4, 8, 16, 32))
    BenchResult("x", points, 1.0, 0.0)  # five usable points: fine
    with pytest.raises(ValueError):
        BenchResult("x", points[:4], 1.0, 0.0)
    with pytest.raises(ValueError):
        BenchResult("x", points, 1.0, None)
    BenchResult("x", points[:2], None, None, partial=True)


def test_run_scaling_fits_linear_growth():
    # Borda is near-linear in m; a tiny grid keeps this test quick.
    result = run_scaling(7, m_values=(64, 128, 256, 512, 1024), n=4, trials=1)
    assert len(result.points) == 5
    assert not result.partial
    assert result.exponent is not None and result.residual is not None
    assert 0.5 < result.exponent < 1.8
    ms = [p.m for p in result.points]
    assert ms == sorted(ms)


def test_run_scaling_caps_set_enumeration():
    result = run_scaling(14, m_values=(8, 16, SET_ENUMERATION_LIMIT + 10), n=3, trials=1)
    assert result.partial
    assert "capped" in result.note
    assert all(p.m <= SET_ENUMERATION_LIMIT for p in result.points)
    assert result.exponent is None


def test_run_scaling_budget_stops_early():
    result = run_scaling(
        27, m_values=(32, 64, 128, 256, 512, 1024), n=4,
        budget_seconds=0.0, trials=1,
    )
    assert result.partial
    assert "budget" in result.note or "too few" in result.note
    assert result.exponent is None


def test_run_scaling_too_few_points_is_partial():
    result = run_scaling(7, m_values=(64, 128), n=3, trials=1)
    assert result.partial and result.exponent is None
    assert "too few" in result.note


def test_group_representatives_match_their_groups():
    for group, pairs in GROUP_REPRESENTATIVES.items():
        assert len(pairs) == 3
        for first, second in pairs:
            assert classify_group(first, second) == group


def test_run_groups_small():
    report = run_groups(m=60, n=5, trials=1)
    assert report.m == 60 and report.n == 5
    assert len(report.rows) == 9
    assert {r.group for r in report.rows} == {"low", "average", "high"}
    for group in ("low", "average", "high"):
        assert report.total(group) > 0
    assert report.separation("high", "low") == (
        report.total("high") / report.total("low")
    )
    # the ordering property is only promised at desk scale, not at m=60;
    # just exercise the accessor
    assert report.ordered in (True, False)


def test_run_groups_times_the_rows_in_rounds(monkeypatch):
    # each round times every row once, each after a pause, and each row
    # keeps its minimum
    calls = []

    class Rule:
        def __init__(self, first, second):
            self.pair = (first, second)

        def choose(self, p):
            calls.append(self.pair)

    samples = iter([5.0, 4.0, 3.0, 2.0, 6.0, 1.0])

    def once(fn, *, trials):
        assert trials == 1
        fn()
        return next(samples)

    monkeypatch.setattr(bench, "compose", Rule)
    monkeypatch.setattr(bench, "measure_call", once)
    monkeypatch.setattr(bench.time, "sleep", lambda s: calls.append(s))
    reps = {"low": ((2, 16),), "average": ((27, 28),)}
    report = run_groups(m=5, n=3, trials=3, representatives=reps)
    pause = bench._BLAS_SPIN_SECONDS
    assert calls == [pause, (2, 16), pause, (27, 28)] * 3
    assert [(r.group, r.seconds) for r in report.rows] == [("low", 3.0), ("average", 1.0)]


def test_run_groups_rejects_misfiled_representatives():
    with pytest.raises(ValueError):
        run_groups(m=20, n=3, trials=1, representatives={"low": ((12, 27),)})


def test_group_report_separation_handles_zero():
    report = GroupReport(10, 3, (GroupRow("low", 2, 16, 0.5),))
    assert report.separation("low", "average") == float("inf")


def test_scaling_report_is_tab_separated():
    result = run_scaling(7, m_values=(32, 64), n=3, trials=1)
    text = scaling_report([result])
    lines = text.splitlines()
    assert lines[0].startswith("name\tm\tn\tseconds")
    assert len(lines) == 1 + len(result.points)
    for line in lines[1:]:
        assert len(line.split("\t")) == 8
