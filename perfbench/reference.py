"""Independent recomputation of the ``pairwise-large`` answers.

Everything here works on the plain rank matrix (``ranks[i, j]`` = position of
alternative ``j`` under criterion ``i``, 0 = best) and shares no code with
``twostage``.  Support counts S(x, y) are accumulated over row panels, so
memory stays O(panel x m) however large m gets, and no identity between S(x,
y) and S(y, x) is assumed: wins come from rows, losses from columns.
"""

from __future__ import annotations

import numpy as np

PANEL = 256


def _argmax(scores: np.ndarray) -> np.ndarray:
    return np.flatnonzero(scores == scores.max())


def support_panels(ranks: np.ndarray):
    """Yield ``(r0, r1, S[r0:r1])`` with S as int16 counts over criteria."""
    n, m = ranks.shape
    for r0 in range(0, m, PANEL):
        r1 = min(m, r0 + PANEL)
        panel = np.zeros((r1 - r0, m), dtype=np.int16)
        for i in range(n):
            panel += ranks[i, r0:r1, None] < ranks[i, None, :]
        yield r0, r1, panel


def pairwise_stats(ranks: np.ndarray) -> dict[str, np.ndarray]:
    """Majority wins and losses, and the extreme supports per alternative."""
    n, m = ranks.shape
    wins = np.zeros(m, dtype=np.int64)
    losses = np.zeros(m, dtype=np.int64)
    row_min = np.empty(m, dtype=np.int64)
    col_max = np.full(m, -1, dtype=np.int64)
    for r0, r1, panel in support_panels(ranks):
        beats = 2 * panel.astype(np.int32) > n
        wins[r0:r1] = beats.sum(axis=1)
        losses += beats.sum(axis=0)
        diag = (np.arange(r1 - r0), np.arange(r0, r1))
        masked = panel.astype(np.int32)
        masked[diag] = n + 1
        row_min[r0:r1] = masked.min(axis=1)
        masked[diag] = -1
        col_max = np.maximum(col_max, masked.max(axis=0))
    return {"wins": wins, "losses": losses, "row_min": row_min, "col_max": col_max}


def borda(ranks: np.ndarray) -> np.ndarray:
    m = ranks.shape[1]
    return _argmax((m - 1 - ranks).sum(axis=0))


def plurality(ranks: np.ndarray) -> np.ndarray:
    return _argmax((ranks == 0).sum(axis=0))


def q_approval(ranks: np.ndarray, q: int) -> np.ndarray:
    return _argmax((ranks < q).sum(axis=0))


def copeland_1(stats) -> np.ndarray:
    return _argmax(stats["wins"] - stats["losses"])


def copeland_3(stats) -> np.ndarray:
    return _argmax(-stats["losses"])


def minimax(stats) -> np.ndarray:
    return _argmax(-stats["col_max"])


def simpson(stats) -> np.ndarray:
    return _argmax(stats["row_min"])


def contract(ranks: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Ranks of the kept alternatives among themselves."""
    return ranks[:, keep].argsort(axis=1).argsort(axis=1)


def majority(ranks: np.ndarray) -> np.ndarray:
    """Dense ``beats[x, y]``; only for moderate m."""
    n, m = ranks.shape
    beats = np.empty((m, m), dtype=bool)
    for r0, r1, panel in support_panels(ranks):
        beats[r0:r1] = 2 * panel.astype(np.int32) > n
    return beats


def _uncovered(beats: np.ndarray, lower_too: bool) -> np.ndarray:
    """y is covered by x when x beats y and everything beating x also beats
    y (and, with ``lower_too``, everything y beats x beats as well)."""
    upper = np.packbits(beats.T, axis=1)  # row x: who beats x
    lower = np.packbits(beats, axis=1)  # row x: whom x beats
    keep = []
    for y in range(beats.shape[0]):
        xs = np.flatnonzero(beats[:, y])
        if xs.size:
            cover = ~(upper[xs] & ~upper[y]).any(axis=1)
            if lower_too:
                cover &= ~(lower[y] & ~lower[xs]).any(axis=1)
            if cover.any():
                continue
        keep.append(y)
    return np.array(keep, dtype=np.int64)


def uncovered_1(beats: np.ndarray) -> np.ndarray:
    return _uncovered(beats, lower_too=False)


def richelson(beats: np.ndarray) -> np.ndarray:
    return _uncovered(beats, lower_too=True)


def _reach(adj: np.ndarray, start: int) -> np.ndarray:
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        nxt = adj[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = np.flatnonzero(nxt)
    return seen


def minimal_dominant(beats: np.ndarray) -> np.ndarray:
    """Union of the inclusion-minimal dominant sets: the strongly connected
    components of "does not beat" that no edge leaves, found by forward and
    backward reachability."""
    m = beats.shape[0]
    fails = ~beats
    np.fill_diagonal(fails, False)
    assigned = np.zeros(m, dtype=bool)
    chosen = np.zeros(m, dtype=bool)
    for v in range(m):
        if assigned[v]:
            continue
        forward = _reach(fails, v)
        backward = _reach(fails.T, v)
        component = forward & backward
        assigned |= component
        if not (forward & ~component).any():
            chosen |= component
    return np.flatnonzero(chosen)


def threshold(ranks: np.ndarray) -> np.ndarray:
    """Fewest worst grades first, ties broken upward, on positional grades."""
    n, m = ranks.shape
    grades = m - ranks
    signature = np.stack([(grades == g).sum(axis=0) for g in range(1, m + 1)], axis=1)
    best = min(map(tuple, signature))
    return np.flatnonzero([tuple(s) == best for s in signature])


class Pairwise:
    """One rank matrix with its pairwise data, computed on first use."""

    def __init__(self, ranks: np.ndarray):
        self.ranks = ranks
        self._stats = None
        self._beats = None

    @property
    def stats(self) -> dict[str, np.ndarray]:
        if self._stats is None:
            self._stats = pairwise_stats(self.ranks)
        return self._stats

    @property
    def beats(self) -> np.ndarray:
        if self._beats is None:
            self._beats = majority(self.ranks)
        return self._beats


def choose(proc: int, data: Pairwise) -> np.ndarray:
    """Indices chosen by procedure ``proc`` (the package's numbering)."""
    ranks = data.ranks
    if proc == 2:
        return plurality(ranks)
    if proc == 4:
        return q_approval(ranks, 2)
    if proc == 7:
        return borda(ranks)
    if proc == 12:
        return minimal_dominant(data.beats)
    if proc == 16:
        return uncovered_1(data.beats)
    if proc == 18:
        return richelson(data.beats)
    if proc == 22:
        return threshold(ranks)
    if proc == 23:
        return copeland_1(data.stats)
    if proc == 25:
        return copeland_3(data.stats)
    if proc == 27:
        return minimax(data.stats)
    if proc == 28:
        return simpson(data.stats)
    raise KeyError(proc)


def choose_two_stage(first: int, second: int, data: Pairwise) -> tuple[np.ndarray, np.ndarray]:
    """Shortlist, then the second procedure on the shortlist alone."""
    stage1 = choose(first, data)
    if not stage1.size:
        return stage1, stage1
    final = stage1[choose(second, Pairwise(contract(data.ranks, stage1)))]
    return stage1, final
