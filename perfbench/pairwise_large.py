"""pairwise-large: single rules and group representatives on big profiles.

Memory traffic on m x m arrays dominates here: at m=8000 the uint8 support
matrix is 64 MB and its int32 widening 256 MB, both against the last-level
cache.  Borda and the "low" group read only the rank matrix, so they bypass
the support layer and show whether a change leaks into the score rules.
"""

from __future__ import annotations

import numpy as np

from twostage import Profile, compose, make_procedure
from twostage.bench import GROUP_REPRESENTATIVES

import reference

N = 10
M_VALUES = (2000, 4000, 8000)
PAIRWISE = (23, 27, 28)  # copeland_1, minimax, simpson
BORDA = 7
REP_M = 2000
SMOKE_M_VALUES = (60, 120)
SMOKE_REP_M = 60


def labels(m: int) -> tuple[str, ...]:
    width = len(str(m))
    return tuple(f"a{j:0{width}d}" for j in range(m))


def random_ranks(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Each row a uniformly random permutation: the rank of every label."""
    return rng.permuted(np.tile(np.arange(m, dtype=np.int32), (n, 1)), axis=1)


class Workload:
    name = "pairwise-large"
    calibration = "stream"

    def __init__(self, seed: int, smoke: bool, inject_fault: bool):
        rng = np.random.default_rng(seed)
        self.m_values = SMOKE_M_VALUES if smoke else M_VALUES
        self.rep_m = SMOKE_REP_M if smoke else REP_M
        sizes = sorted(set(self.m_values) | {self.rep_m})
        self.ranks = {m: random_ranks(rng, m, N) for m in sizes}
        self.profiles = {m: Profile.from_ranks(labels(m), r) for m, r in self.ranks.items()}
        self.single = {i: make_procedure(i) for i in (*PAIRWISE, BORDA)}
        self.reps = [
            (first, second, compose(first, second))
            for pairs in GROUP_REPRESENTATIVES.values()
            for first, second in pairs
        ]
        self.largest_m = max(self.m_values)
        self.inject_fault = inject_fault
        self.outputs: dict[tuple, list] = {}

    def environment(self, l3_bytes: int | None) -> list[str]:
        lines = []
        for m in self.m_values:
            sizes = f"uint8 S {m * m / 2**20:.0f} MiB, int32 S {4 * m * m / 2**20:.0f} MiB"
            if l3_bytes:
                sizes += f" ({m * m / l3_bytes:.2f}x and {4 * m * m / l3_bytes:.2f}x L3)"
            lines.append(f"m={m} n={N}: {sizes}")
        return lines

    def advance(self) -> None:
        """Every round calls the same rules on the same profiles."""

    def ops(self, counters=None):
        """One interleaved round: every single rule at every m, then the nine
        group representatives at ``rep_m``.  Yields (key, call, top); ``top``
        marks the pairwise-rule calls at the largest m.

        The round has an odd number of distinct calls (21), so the median
        latency falls inside one cluster of similar calls rather than on the
        gap between two clusters."""
        for m in self.m_values:
            p = self.profiles[m]
            for i, proc in self.single.items():
                top = m == self.largest_m and i != BORDA
                yield ("single", i, m), (lambda proc=proc, p=p: proc.choose(p)), top
        p = self.profiles[self.rep_m]
        for first, second, rule in self.reps:
            yield ("rep", (first, second), self.rep_m), (
                lambda rule=rule, p=p: rule.choose_detailed(p)
            ), self.rep_m == self.largest_m

    def observe(self, key, result) -> tuple[int, bool]:
        self.outputs.setdefault(key, []).append(result)
        return 1, True

    def check(self) -> tuple[int, list[str]]:
        """Recompute every answer independently; count the calls that differ."""
        failed, notes = 0, []
        data = {}
        for n_key, (key, results) in enumerate(self.outputs.items()):
            kind, proc, m = key
            if m not in data:
                data[m] = reference.Pairwise(self.ranks[m])
            names = self.profiles[m].labels
            as_set = lambda idx: frozenset(names[j] for j in idx)
            if kind == "single":
                want = as_set(reference.choose(proc, data[m]))
            else:
                want = tuple(as_set(s) for s in reference.choose_two_stage(*proc, data[m]))
            if self.inject_fault and n_key == 0:
                want = None  # a deliberately wrong expected value
            bad = sum(1 for got in results if got != want)
            if bad:
                failed += bad
                notes.append(f"{kind} {proc} at m={m}: {bad} of {len(results)} calls differ from the reference")
        return failed, notes
