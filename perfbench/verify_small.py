"""verify-small: a fixed list of bounded verifications and searches.

This is the small-m regime, where per-call dispatch, profile enumeration,
the per-subset choice memo and per-subset contraction do the work; orbit
enumeration and computing S once per profile would show up here.  The rules
read every input kind (profile, majority relation, support matrix, grades)
and the conditions cover both the subset-quantified ones (H, C, O, ACA) and
the perturbation ones (MON1, MON2, SM).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from twostage import (
    SearchConfig,
    compose,
    grade_table,
    improve,
    search_counterexample,
    threshold_order,
    verify_bounded,
)

from tracing import CountingRule

# Which input kind each stage reads, for the rules below:
# (2, 1), (7, 7), (10, 3) profile/profile; (22, 1) grades/profile;
# (19, 7), (16, 7), (25, 7) relation/profile; (20, 20) relation/relation;
# (27, 28) support/support; (26, 23) grades/relation; (23, 22) and
# (24, 26) relation/grades; (28, 20) support/relation.
#
# Many short jobs rather than a few long ones: each job's time is scaled by
# calibration runs taken around it (calibrate.py), which tracks the
# machine's speed only between jobs, and a dense spread of job costs keeps
# the latency quantiles from jumping between two distant jobs.
#
# kind (verify / exhaustive search / random search), (first, second),
# condition, m values, n values, pinned status, pinned profiles covered
# (``checked`` or ``examined``)
JOBS = (
    ("verify", (2, 1), "H", (3,), (3,), "verified", 216),
    ("verify", (2, 1), "C", (3,), (3,), "refuted", 17),
    ("verify", (2, 1), "O", (3,), (3,), "refuted", 17),
    ("verify", (2, 1), "ACA", (3,), (3,), "verified", 216),
    ("verify", (2, 1), "MON1", (3,), (3,), "verified", 216),
    ("verify", (2, 1), "MON2", (3,), (3,), "verified", 216),
    ("verify", (2, 1), "SM", (3,), (3,), "refuted", 3),
    ("verify", (22, 1), "H", (3,), (3,), "refuted", 4),
    ("verify", (22, 1), "C", (3,), (3,), "refuted", 4),
    ("verify", (22, 1), "O", (3,), (3,), "refuted", 4),
    ("verify", (22, 1), "ACA", (3,), (3,), "refuted", 4),
    ("verify", (22, 1), "MON1", (3,), (3,), "verified", 216),
    ("verify", (22, 1), "MON2", (3,), (3,), "verified", 216),
    ("verify", (22, 1), "SM", (3,), (3,), "refuted", 3),
    ("verify", (19, 7), "H", (3,), (3,), "verified", 216),
    ("verify", (19, 7), "C", (3,), (3,), "verified", 216),
    ("verify", (19, 7), "O", (3,), (3,), "refuted", 23),
    ("verify", (19, 7), "ACA", (3,), (3,), "verified", 216),
    ("verify", (19, 7), "MON1", (3,), (3,), "verified", 216),
    ("verify", (19, 7), "MON2", (3,), (3,), "verified", 216),
    ("verify", (19, 7), "SM", (3,), (3,), "refuted", 4),
    ("verify", (20, 20), "H", (3,), (3,), "verified", 216),
    ("verify", (20, 20), "C", (3,), (3,), "verified", 216),
    ("verify", (20, 20), "O", (3,), (3,), "refuted", 23),
    ("verify", (20, 20), "ACA", (3,), (3,), "verified", 216),
    ("verify", (20, 20), "MON1", (3,), (3,), "verified", 216),
    ("verify", (20, 20), "MON2", (3,), (3,), "verified", 216),
    ("verify", (20, 20), "SM", (3,), (3,), "refuted", 4),
    ("verify", (27, 28), "H", (3,), (3,), "refuted", 23),
    ("verify", (27, 28), "C", (3,), (3,), "verified", 216),
    ("verify", (27, 28), "O", (3,), (3,), "verified", 216),
    ("verify", (27, 28), "ACA", (3,), (3,), "refuted", 23),
    ("verify", (27, 28), "MON1", (3,), (3,), "verified", 216),
    ("verify", (27, 28), "MON2", (3,), (3,), "verified", 216),
    ("verify", (27, 28), "SM", (3,), (3,), "refuted", 4),
    ("verify", (16, 7), "H", (3,), (3,), "refuted", 23),
    ("verify", (16, 7), "C", (3,), (3,), "verified", 216),
    ("verify", (16, 7), "O", (3,), (3,), "verified", 216),
    ("verify", (16, 7), "ACA", (3,), (3,), "refuted", 23),
    ("verify", (16, 7), "MON1", (3,), (3,), "verified", 216),
    ("verify", (16, 7), "MON2", (3,), (3,), "verified", 216),
    ("verify", (16, 7), "SM", (3,), (3,), "refuted", 4),
    ("verify", (7, 7), "H", (3,), (3,), "refuted", 23),
    ("verify", (7, 7), "C", (3,), (3,), "verified", 216),
    ("verify", (7, 7), "O", (3,), (3,), "verified", 216),
    ("verify", (7, 7), "ACA", (3,), (3,), "refuted", 23),
    ("verify", (7, 7), "MON1", (3,), (3,), "verified", 216),
    ("verify", (7, 7), "MON2", (3,), (3,), "verified", 216),
    ("verify", (7, 7), "SM", (3,), (3,), "refuted", 4),
    ("verify", (26, 23), "H", (3,), (3,), "refuted", 23),
    ("verify", (26, 23), "C", (3,), (3,), "verified", 216),
    ("verify", (26, 23), "O", (3,), (3,), "verified", 216),
    ("verify", (26, 23), "ACA", (3,), (3,), "refuted", 23),
    ("verify", (26, 23), "MON1", (3,), (3,), "verified", 216),
    ("verify", (26, 23), "MON2", (3,), (3,), "verified", 216),
    ("verify", (26, 23), "SM", (3,), (3,), "refuted", 4),
    ("verify", (23, 22), "H", (3,), (3,), "refuted", 23),
    ("verify", (23, 22), "C", (3,), (3,), "verified", 216),
    ("verify", (23, 22), "O", (3,), (3,), "verified", 216),
    ("verify", (23, 22), "ACA", (3,), (3,), "refuted", 23),
    ("verify", (23, 22), "MON1", (3,), (3,), "verified", 216),
    ("verify", (23, 22), "MON2", (3,), (3,), "verified", 216),
    ("verify", (23, 22), "SM", (3,), (3,), "refuted", 4),
    ("verify", (28, 20), "H", (3,), (3,), "verified", 216),
    ("verify", (28, 20), "C", (3,), (3,), "verified", 216),
    ("verify", (28, 20), "O", (3,), (3,), "refuted", 23),
    ("verify", (28, 20), "ACA", (3,), (3,), "verified", 216),
    ("verify", (28, 20), "MON1", (3,), (3,), "verified", 216),
    ("verify", (28, 20), "MON2", (3,), (3,), "verified", 216),
    ("verify", (28, 20), "SM", (3,), (3,), "refuted", 4),
    ("verify", (24, 26), "H", (3,), (3,), "refuted", 23),
    ("verify", (24, 26), "C", (3,), (3,), "verified", 216),
    ("verify", (24, 26), "O", (3,), (3,), "verified", 216),
    ("verify", (24, 26), "ACA", (3,), (3,), "refuted", 23),
    ("verify", (24, 26), "MON1", (3,), (3,), "verified", 216),
    ("verify", (24, 26), "MON2", (3,), (3,), "verified", 216),
    ("verify", (24, 26), "SM", (3,), (3,), "refuted", 4),
    ("verify", (10, 3), "H", (3,), (3,), "refuted", 23),
    ("verify", (10, 3), "C", (3,), (3,), "verified", 216),
    ("verify", (10, 3), "O", (3,), (3,), "verified", 216),
    ("verify", (10, 3), "ACA", (3,), (3,), "refuted", 23),
    ("verify", (10, 3), "MON1", (3,), (3,), "verified", 216),
    ("verify", (10, 3), "MON2", (3,), (3,), "verified", 216),
    ("verify", (10, 3), "SM", (3,), (3,), "refuted", 4),
    ("verify", (25, 7), "H", (3,), (3,), "refuted", 23),
    ("verify", (25, 7), "C", (3,), (3,), "verified", 216),
    ("verify", (25, 7), "O", (3,), (3,), "verified", 216),
    ("verify", (25, 7), "ACA", (3,), (3,), "refuted", 23),
    ("verify", (25, 7), "MON1", (3,), (3,), "verified", 216),
    ("verify", (25, 7), "MON2", (3,), (3,), "verified", 216),
    ("verify", (25, 7), "SM", (3,), (3,), "refuted", 4),
    ("verify", (19, 7), "MON2", (3,), (4,), "verified", 1296),
    ("verify", (22, 1), "MON2", (3,), (4,), "verified", 1296),
    ("verify", (2, 1), "MON1", (3,), (4,), "verified", 1296),
    ("verify", (2, 1), "MON2", (3,), (5,), "verified", 7776),
    ("verify", (7, 7), "MON2", (4,), (3,), "verified", 13824),
    ("verify", (19, 7), "MON2", (4,), (2,), "verified", 576),
    ("verify", (27, 28), "MON1", (4,), (2,), "verified", 576),
    ("verify", (7, 7), "MON1", (4,), (2,), "verified", 576),
    ("verify", (16, 7), "O", (4,), (2,), "verified", 576),
    ("search", (2, 1), "H", (2, 3), (1, 2, 3, 4, 5), "found", 338),
    ("search", (2, 1), "C", (2, 3), (1, 2, 3, 4, 5), "found", 121),
    ("search", (2, 1), "O", (2, 3), (1, 2, 3, 4, 5), "found", 4),
    ("search", (2, 1), "SM", (2, 3), (1, 2, 3, 4, 5), "found", 3),
    ("search", (2, 1), "NC", (2, 3), (1, 2, 3, 4, 5), "found", 4),
)

# Seeded random searches over conditions these rules satisfy on every
# profile, so the pinned outcome is the same for every seed: the Condorcet
# winner keeps winning when it moves up (MON1), and core-then-core is the
# core, which is hereditary (H).
SAMPLES = 300
RANDOM_JOBS = (
    ("random", (19, 7), "MON1", (3,), (3, 5, 7), "exhausted", SAMPLES),
    ("random", (20, 20), "H", (3,), (3, 4), "exhausted", SAMPLES),
)

SMOKE_JOBS = 6


class ReplayError(Exception):
    pass


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ReplayError(what)


def replay_witness(rule, profile, w) -> None:
    """Recompute every recorded observation and the violation itself,
    without trusting the checker that produced the witness."""

    def choose(sub=None):
        return rule.choose(profile, sub)

    universe = frozenset(profile.labels)
    seen = dict(w.observed)
    if w.axiom in ("H", "O", "ACA"):
        (sub,) = w.subsets
        full, there = seen["choice_full"], seen["choice_subset"]
        _require(choose() == full and choose(sub) == there, "observed choices replay")
        kept = full & sub
        if w.axiom == "H":
            _require(bool(kept) and not kept <= there, "a chosen alternative is lost")
        elif w.axiom == "O":
            _require(full <= sub < universe and there != full, "dropping outcasts changes the choice")
        else:
            _require(bool(kept) and there != kept, "the subset's choice is not the intersection")
    elif w.axiom == "C":
        left, right = w.subsets
        full = seen["choice_full"]
        _require(left | right == universe, "the two subsets cover the universe")
        _require(choose() == full, "full choice replays")
        _require(choose(left) == seen["choice_left"] and choose(right) == seen["choice_right"], "subset choices replay")
        _require(not (seen["choice_left"] & seen["choice_right"]) <= full, "a common choice is not chosen")
    elif w.axiom == "MON2":
        without_b, without_a = w.subsets
        (b,), (a,) = universe - without_b, universe - without_a
        full = seen["choice_full"]
        _require(choose() == full and {a, b} <= full, "both alternatives are chosen")
        _require(choose(without_b) == seen["choice_without_b"], "choice without b replays")
        _require(choose(without_a) == seen["choice_without_a"], "choice without a replays")
        _require(a not in seen["choice_without_b"] and b not in seen["choice_without_a"], "neither survives")
    elif w.axiom in ("MON1", "SM"):
        before, after = seen["choice_before"], seen["choice_after"]
        moved = w.improvement.target
        _require(choose() == before, "choice before replays")
        _require(rule.choose(improve(profile, w.improvement)) == after, "choice after replays")
        if w.axiom == "MON1":
            _require(moved in before and moved not in after, "the improved winner is dropped")
        else:
            _require(after not in (before, frozenset({moved}), before | {moved}), "the change is not allowed")
    elif w.axiom == "NC":
        full, best = seen["choice_full"], seen["best_grade_class"]
        _require(choose() == full, "full choice replays")
        _require(threshold_order(grade_table(profile))[0] == best, "best grade class replays")
        _require(full != best, "the choice differs from the best class")
    else:
        raise ReplayError(f"no replay for condition {w.axiom}")


@dataclass(frozen=True)
class Job:
    kind: str
    rule: tuple[int, int]
    axiom: str
    m_values: tuple[int, ...]
    n_values: tuple[int, ...]
    status: str
    covered: int


class Workload:
    name = "verify-small"
    calibration = "dispatch"

    def __init__(self, seed: int, smoke: bool, inject_fault: bool):
        rows = JOBS[:SMOKE_JOBS] if smoke else JOBS + RANDOM_JOBS
        self.jobs = [Job(*row) for row in rows]
        if inject_fault:
            self.jobs[0] = replace(self.jobs[0], covered=self.jobs[0].covered + 1)
        self.rules = {job.rule: compose(*job.rule) for job in self.jobs}
        self.seed = seed
        self.largest_m = max(max(job.m_values) for job in self.jobs)
        self.witnesses: dict[int, set] = {}
        self.observed: dict[int, int] = {}

    def environment(self, l3_bytes: int | None) -> list[str]:
        return [f"{len(self.jobs)} jobs per pass; random searches: {SAMPLES} samples, seed {self.seed}"]

    def _call(self, job: Job, counters):
        rule = self.rules[job.rule]
        if counters is not None:
            rule = CountingRule(rule, counters)
        if job.kind == "verify":
            return verify_bounded(rule, job.axiom, job.m_values[0], job.n_values[0])
        cfg = SearchConfig(
            m_values=job.m_values,
            n_values=job.n_values,
            mode="random" if job.kind == "random" else "exhaustive",
            samples=SAMPLES,
            seed=self.seed,
            budget=500_000,
        )
        return search_counterexample(rule, job.axiom, cfg)

    def advance(self) -> None:
        """Every pass runs the same job list."""

    def ops(self, counters=None):
        """The job list; with ``counters``, the rule handed to the checkers
        counts its calls."""
        for i, job in enumerate(self.jobs):
            yield i, (lambda job=job: self._call(job, counters)), max(job.m_values) == self.largest_m

    def observe(self, i, result) -> tuple[int, bool]:
        job = self.jobs[i]
        covered = result.checked if job.kind == "verify" else result.examined
        self.observed[i] = self.observed.get(i, 0) + 1
        if result.witness is not None:
            self.witnesses.setdefault(i, set()).add((result.profile, result.witness))
        return covered, (result.status, covered) == (job.status, job.covered)

    def check(self) -> tuple[int, list[str]]:
        """Replay every distinct witness; a witness that does not replay
        fails every call of its job."""
        failed, notes = 0, []
        for i, found in self.witnesses.items():
            job = self.jobs[i]
            for profile, witness in found:
                try:
                    _require(profile.m in job.m_values and profile.n in job.n_values, "profile lies in the cell")
                    replay_witness(self.rules[job.rule], profile, witness)
                except ReplayError as exc:
                    failed += self.observed[i]
                    notes.append(f"job {i} {job.rule} {job.axiom}: witness does not replay ({exc})")
                    break
        return failed, notes
