"""screen-random: seeded small profiles through the no-op second stages.

The same small-m kernels and stage-2 contraction as ``verify-small``, but no
enumeration, subset family or per-subset memo: this is the workload a
search-layer change should leave unchanged, and the one that catches
small-m regressions from large-m rewrites of the support layer.
"""

from __future__ import annotations

import numpy as np

from twostage import Profile, two_stage_from_id

# Ids whose second stage provably keeps the whole shortlist, so
# ``final == stage1`` on every profile.
IDS = (320, 348, 349, 539, 540, 541, 542)
M_RANGE = (2, 6)
N_VALUES = (3, 5, 7)
BATCH = 1000
SMOKE_BATCH = 20
LABELS = tuple("abcdef")


class Workload:
    name = "screen-random"
    calibration = "dispatch"

    def __init__(self, seed: int, smoke: bool, inject_fault: bool):
        self.rng = np.random.default_rng(seed)
        self.batch_size = SMOKE_BATCH if smoke else BATCH
        self.rules = [two_stage_from_id(i) for i in IDS]
        self.largest_m = M_RANGE[1]
        self.inject_fault = inject_fault
        self.seen = 0
        self.batch = self.new_batch()

    def new_batch(self) -> list[Profile]:
        out = []
        for _ in range(self.batch_size):
            m = int(self.rng.integers(M_RANGE[0], M_RANGE[1] + 1))
            n = int(self.rng.choice(N_VALUES))
            ranks = self.rng.permuted(np.tile(np.arange(m, dtype=np.int32), (n, 1)), axis=1)
            out.append(Profile.from_ranks(LABELS[:m], ranks))
        return out

    def environment(self, l3_bytes: int | None) -> list[str]:
        return [f"m {M_RANGE[0]}-{M_RANGE[1]}, n in {N_VALUES}, ids {IDS}"]

    def advance(self) -> None:
        self.batch = self.new_batch()

    def ops(self, counters=None):
        """One batch of profiles, each through every rule of the set."""
        for p in self.batch:
            call = lambda p=p: [rule.choose_detailed(p) for rule in self.rules]
            yield ("profile", p.m), call, p.m == self.largest_m

    def observe(self, key, result) -> tuple[int, bool]:
        ok = all(final == stage1 for stage1, final in result)
        if self.inject_fault and self.seen == 0:
            ok = all(final == stage1 | {"?"} for stage1, final in result)
        self.seen += 1
        return 1, ok

    def check(self) -> tuple[int, list[str]]:
        return 0, []
