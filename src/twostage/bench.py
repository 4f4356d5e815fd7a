"""Desk-scale complexity measurements.

Two experiments:

* scaling — time a procedure across a grid of alternative counts at fixed
  criterion count and fit a power law; score rules should come out near
  linear in the alternative count, pairwise-matrix rules near quadratic.
* groups — time representative two-stage rules from each expected runtime
  group (:func:`twostage.catalog.classify_group`) on one large profile and
  compare the groups.

Measurements auto-repeat fast calls until they are long enough to time
reliably and keep the minimum of several trials.  Exceeding a time budget
stops the grid early and flags the result as partial rather than failing.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .catalog import classify_group, compose
from .procedures import make_procedure
from .profiles import Profile, default_labels

__all__ = [
    "generate_profile",
    "measure_call",
    "BenchPoint",
    "BenchResult",
    "run_scaling",
    "GroupRow",
    "GroupReport",
    "run_groups",
    "GROUP_REPRESENTATIVES",
    "SET_ENUMERATION_LIMIT",
    "scaling_report",
]

# Stable-set enumeration walks subsets; beyond this many alternatives a
# measurement would not finish at desk scale.
SET_ENUMERATION_LIMIT = 60
_SET_ENUMERATION_PROCS = frozenset({14, 21})

# Default size grid for scaling fits.  The floor sits at 1000 alternatives:
# below that, the fixed per-call dispatch cost (~10us) is a large fraction of
# a counting procedure's total time and flattens the fitted exponent.
DEFAULT_M_GRID = (1000, 2000, 3000, 4000, 6000, 8000)


def generate_profile(m: int, n: int, seed: int) -> Profile:
    """Uniform random profile: n independent random orders over m labels."""
    if m < 1 or n < 1:
        raise ValueError(f"a profile needs m >= 1 and n >= 1, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    labels = default_labels(m)
    ranks = np.stack([rng.permutation(m) for _ in range(n)])
    return Profile.from_ranks(labels, ranks)


def measure_call(fn: Callable[[], object], *, trials: int = 3, min_time: float = 0.01) -> float:
    """Best (minimum) wall time of ``fn`` over ``trials``, after one unmeasured
    warm-up call, auto-repeating calls that finish faster than ``min_time`` so
    the clock resolution cannot dominate.  The minimum is the right estimator
    here: scheduler and frequency-scaling noise only ever add time."""
    fn()
    best = math.inf
    repeat = 1
    for _ in range(trials):
        while True:
            start = time.perf_counter()
            for _ in range(repeat):
                fn()
            elapsed = time.perf_counter() - start
            if elapsed >= min_time or repeat >= 1 << 20:
                best = min(best, elapsed / repeat)
                break
            repeat *= 2
    return best


@dataclass(frozen=True)
class BenchPoint:
    m: int
    n: int
    seconds: float

    def __post_init__(self):
        if self.seconds <= 0:
            raise ValueError("measured times must be positive")


@dataclass(frozen=True)
class BenchResult:
    """A scaling run: measured grid points plus a power-law fit.

    ``exponent`` is the slope of the least-squares line through
    (log m, log t) over points with m > 1; ``residual`` is the root mean
    squared log-error of that line.  A fit requires at least five usable
    points — with fewer (for example after a budget stop) the result is
    ``partial`` and carries no exponent.
    """

    name: str
    points: tuple[BenchPoint, ...]
    exponent: float | None
    residual: float | None
    partial: bool = False
    note: str = ""

    def __post_init__(self):
        usable = [p for p in self.points if p.m > 1]
        if self.exponent is not None:
            if len(usable) < 5:
                raise ValueError("a fitted exponent needs at least five grid points")
            if self.residual is None:
                raise ValueError("a fitted exponent carries its residual")


def _fit_power_law(points: Sequence[BenchPoint]) -> tuple[float | None, float | None]:
    usable = [p for p in points if p.m > 1]
    if len(usable) < 5:
        return None, None
    x = np.log([p.m for p in usable])
    y = np.log([p.seconds for p in usable])
    a = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    predicted = a @ coef
    residual = float(np.sqrt(np.mean((y - predicted) ** 2)))
    return float(coef[0]), residual


def run_scaling(
    spec: int | str,
    *,
    m_values: Sequence[int] = DEFAULT_M_GRID,
    n: int = 10,
    seed: int = 20260818,
    budget_seconds: float | None = None,
    trials: int = 3,
) -> BenchResult:
    """Time one procedure across ``m_values`` and fit the power law.

    The grid is timed in ``trials`` rounds.  Each round times every grid
    point once with :func:`measure_call`, and each point keeps its minimum,
    so a burst of load on the machine slows one sample of every point
    rather than every sample of one point, which would bend the fit."""
    proc = make_procedure(spec)
    grid = sorted(m_values)
    note = ""
    if proc.index in _SET_ENUMERATION_PROCS and grid[-1] > SET_ENUMERATION_LIMIT:
        grid = [m for m in grid if m <= SET_ENUMERATION_LIMIT]
        note = (
            f"stable-set enumeration is capped at {SET_ENUMERATION_LIMIT} "
            f"alternatives; larger sizes skipped"
        )
    profiles = [generate_profile(m, n, seed + i) for i, m in enumerate(grid)]
    best = [math.inf] * len(grid)
    started = time.perf_counter()
    for r, (i, p) in itertools.product(range(trials), enumerate(profiles)):
        if budget_seconds is not None and time.perf_counter() - started > budget_seconds:
            note = f"budget exceeded in round {r + 1} of {trials}, after {i} of {len(grid)} grid points"
            break
        best[i] = min(best[i], measure_call(lambda: proc.choose(p), trials=1))
    points = [BenchPoint(m, n, seconds) for m, seconds in zip(grid, best) if seconds < math.inf]
    partial = bool(note)
    exponent, residual = _fit_power_law(points)
    if exponent is None and not partial:
        partial = len(points) < 5
        if partial:
            note = note or "too few grid points for a fit"
    return BenchResult(proc.label(), tuple(points), exponent, residual, partial, note)


# How long run_groups waits before each sample, for the BLAS worker threads
# of the previous one to stop spinning: they spun for 0.10-0.12 s after a
# product on a 2-vCPU VM.
_BLAS_SPIN_SECONDS = 0.2

GROUP_REPRESENTATIVES: dict[str, tuple[tuple[int, int], ...]] = {
    # Three pairs per group, chosen so the measured cost is carried by the
    # stage that puts the pair in its group: score screens that keep only a
    # handful of alternatives (low), pairwise-matrix rules over all M
    # alternatives (average), and covering/top-cycle solution concepts whose
    # second stage still faces nearly the whole profile (high).
    "low": ((2, 16), (7, 2), (4, 12)),
    "average": ((27, 28), (23, 22), (25, 2)),
    "high": ((16, 7), (18, 7), (12, 27)),
}


@dataclass(frozen=True)
class GroupRow:
    group: str
    first: int
    second: int
    seconds: float


@dataclass(frozen=True)
class GroupReport:
    m: int
    n: int
    rows: tuple[GroupRow, ...]

    def total(self, group: str) -> float:
        return sum(r.seconds for r in self.rows if r.group == group)

    def separation(self, slower: str, faster: str) -> float:
        quick = self.total(faster)
        return self.total(slower) / quick if quick > 0 else float("inf")

    @property
    def ordered(self) -> bool:
        return self.total("low") < self.total("average") < self.total("high")


def run_groups(
    *,
    m: int = 2000,
    n: int = 10,
    seed: int = 20260818,
    representatives: dict[str, tuple[tuple[int, int], ...]] | None = None,
    trials: int = 3,
) -> GroupReport:
    """Time each representative two-stage rule on one shared random profile.

    As in :func:`run_scaling`, the rows are timed in ``trials`` rounds.
    Each round times every row once with :func:`measure_call`, and each
    row keeps its minimum.  So a slow phase of the machine slows one
    sample of every row it covers, rather than every sample of one group's
    rows, which would move the ratio between the groups.

    Each sample starts after a pause of ``_BLAS_SPIN_SECONDS``.  After a
    product it spreads over threads, OpenBLAS keeps its worker threads
    spinning for about 0.1 s before they sleep, and work timed in that
    window shares the CPU with them: on a 2-vCPU VM, a support derivation
    (m = 2000, n = 10) took 1.6-1.8 times as long right after a call of
    (16, 7) as after a pause.  Without the pause, a row timed after a
    covering row would be charged for that row's spin."""
    reps = representatives or GROUP_REPRESENTATIVES
    p = generate_profile(m, n, seed)
    cells = []
    for group, pairs in reps.items():
        for first, second in pairs:
            expected = classify_group(first, second)
            if expected != group:
                raise ValueError(
                    f"procedure pair ({first}, {second}) belongs to group "
                    f"{expected!r}, not {group!r}"
                )
            cells.append((group, first, second, compose(first, second)))
    best = [math.inf] * len(cells)
    for _, (i, cell) in itertools.product(range(trials), enumerate(cells)):
        rule = cell[3]
        time.sleep(_BLAS_SPIN_SECONDS)
        best[i] = min(best[i], measure_call(lambda: rule.choose(p), trials=1))
    rows = (GroupRow(group, a, b, s) for (group, a, b, _), s in zip(cells, best))
    return GroupReport(m, n, tuple(rows))


def scaling_report(results: Iterable[BenchResult]) -> str:
    """Tab-separated summary of scaling runs."""
    lines = ["name\tm\tn\tseconds\texponent\tresidual\tpartial\tnote"]
    for r in results:
        for p in r.points:
            lines.append(
                f"{r.name}\t{p.m}\t{p.n}\t{p.seconds:.6g}\t"
                f"{'' if r.exponent is None else f'{r.exponent:.3f}'}\t"
                f"{'' if r.residual is None else f'{r.residual:.3f}'}\t"
                f"{'yes' if r.partial else 'no'}\t{r.note}"
            )
    return "\n".join(lines) + "\n"
