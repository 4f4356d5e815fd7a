"""The choice procedures usable on either stage of a two-stage rule.

Twenty-eight procedures are indexed 1..28; the same numbering is used to
form two-stage ids in :mod:`twostage.catalog`.  Each procedure maps a
profile (restricted to a feasible subset) to a set of chosen alternatives.
Depending on the procedure, the choice is really a function of different
derived data:

* positional scores (first places, last places, top-q, Borda) -- need the
  full profile;
* the strict-majority relation mu -- tournament-style solutions;
* the pairwise support matrix S -- Black (the Condorcet winner read from S,
  else the row-sum Borda winners), minimax and Simpson.  Minimax and Simpson
  choose the same set on every input, so procedures 27 and 28 share one
  kernel; the catalog keeps both ids, as the paper does;
* a grade table -- threshold and super-threshold rules.

Every rule has one entry point, ``choose(data, subset)``: ``data`` is a
profile or the input the rule's kernel reads (a :class:`MajorityRelation`,
:class:`GradeTable` or :class:`TournamentMatrix`), so procedures defined on
mu, on grades or on S also work on a bare relation, grade table or support
matrix.  A profile is contracted to the subset before conversion, so grades
derived from it are re-ranked within the subset; any other input is
restricted to the subset and keeps its values.  A one-label set of a
profile's labels skips the contraction and the conversion: over one
alternative each kind's input is the same for every profile with n
criteria (rank 0, no majority edge, zero support, grade 1), so it is built
directly and the kernel still decides the choice.  Within one condition
check or two-stage call, a profile is seen through a scope that holds one
array over its whole universe, S when a rule of the call reads S and μ
otherwise; every read of μ or S is that array restricted to the subset
(see ``_kernel_input``).  A kernel turns the positions it picks into
labels with ``_labels_where``, or with ``_argmax_set`` for its top scores.

``_REGISTRY`` is the one place to add a procedure: its row gives the
procedure's name, the input kind its kernel reads, the rule's field passed
to the kernel (if any), whether it picks at most one alternative, and the
kernel itself.  :class:`Procedure` reads its row from ``_REGISTRY`` and
:class:`QParetoRule` holds one of its own; names, dispatch and labels all
derive from the row.  Every such rule is anonymous and neutral.

Empty choices: only the simple majority rule, the Condorcet winner, and the
run-off procedure can return an empty set; everything else always chooses at
least one alternative on a non-empty input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, compress
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .profiles import (
    _KINDS,
    GradeTable,
    MajorityRelation,
    Profile,
    ScopedProfile,
    TournamentMatrix,
    _Universe,
    _support_dtype,
    borda_scores,
    contract,
    first_places,
    grade_table,
    last_places,
    majority_relation,
    top_q_places,
    tournament_matrix,
)

__all__ = [
    "Procedure",
    "PROCEDURE_NAMES",
    "NAME_TO_INDEX",
    "make_procedure",
    "apply_procedure",
    "simple_majority",
    "plurality",
    "inverse_plurality",
    "q_approval",
    "run_off",
    "hare",
    "borda",
    "black",
    "inverse_borda",
    "nanson",
    "coombs",
    "condorcet_winner",
    "core",
    "copeland",
    "fishburn",
    "uncovered_1",
    "uncovered_2",
    "richelson",
    "minimal_dominant_sets",
    "minimal_dominant",
    "minimal_undominated_sets",
    "minimal_undominated",
    "weakly_stable_sets",
    "minimal_weakly_stable",
    "k_stable_sets",
    "k_stable",
    "threshold_order",
    "threshold_rule",
    "super_threshold",
    "minimax",
    "simpson",
    "q_pareto",
]


# ---------------------------------------------------------------------------
# positional-score rules (need the profile)
# ---------------------------------------------------------------------------

def _labels_where(u: _Universe, mask: np.ndarray) -> frozenset[str]:
    """The labels of ``u`` at the positions a bool ``mask`` marks: how a
    kernel turns the positions it keeps into its choice."""
    return frozenset(compress(u.labels, mask.tolist()))


def _argmax_set(p: _Universe, scores: np.ndarray) -> frozenset[str]:
    # A loop over NumPy scalars on purpose, not _labels_where: at large m
    # it is most of a borda call, and so carries borda's fitted exponent in
    # criterion 09 (tests/test_acceptance.py).  With a flat-cost selection
    # that fit fell below the window's floor of 0.9.
    best = scores.max()
    return frozenset(lab for lab, s in zip(p.labels, scores) if s == best)


def simple_majority(p: Profile) -> frozenset[str]:
    """Alternatives ranked first by a strict majority of criteria (0 or 1 of them)."""
    return _labels_where(p, 2 * first_places(p) > p.n)


def plurality(p: Profile) -> frozenset[str]:
    return _argmax_set(p, first_places(p))


def inverse_plurality(p: Profile) -> frozenset[str]:
    """Alternatives named worst by the fewest criteria."""
    return _argmax_set(p, -last_places(p))


def q_approval(p: Profile, q: int) -> frozenset[str]:
    if q < 1:
        raise ValueError("q-approval needs q >= 1")
    return _argmax_set(p, top_q_places(p, q))


def run_off(p: Profile) -> frozenset[str]:
    """Top-two (or tied-top) runoff decided by simple majority; an exactly
    tied final gives the empty choice."""
    counts = first_places(p)
    finalists = _argmax_set(p, counts)
    if len(finalists) == 1:  # the runners-up join a lone leader
        finalists |= _argmax_set(p, np.where(counts == counts.max(), -1, counts))
    return simple_majority(contract(p, finalists))


def _eliminate(
    p: Profile, doomed: Callable[[Profile], np.ndarray], majority: bool = False
) -> frozenset[str]:
    """The elimination family: contract ``p`` to what ``doomed`` spares,
    recomputing on each contraction, until ``doomed`` marks no alternative
    or every one.  With ``majority``, a strict first-place majority ends the
    run before each round."""
    while True:
        if majority and (winner := simple_majority(p)):
            return winner
        drop = doomed(p)
        if drop.all() or not drop.any():
            return frozenset(p.labels)
        p = contract(p, [lab for lab, d in zip(p.labels, drop) if not d])


def hare(p: Profile) -> frozenset[str]:
    """Iteratively drop the alternatives with the fewest first places until
    one holds a strict majority of first places (or all remaining tie)."""
    return _eliminate(p, lambda c: (s := first_places(c)) == s.min(), majority=True)


def coombs(p: Profile) -> frozenset[str]:
    """Like Hare, but eliminate the alternatives named worst by the most
    criteria."""
    return _eliminate(p, lambda c: (s := last_places(c)) == s.max(), majority=True)


def borda(p: Profile) -> frozenset[str]:
    return _argmax_set(p, borda_scores(p))


def inverse_borda(p: Profile) -> frozenset[str]:
    """Delete the lowest Borda scorers (recomputing after each round) until
    all remaining alternatives tie."""
    return _eliminate(p, lambda c: (s := borda_scores(c)) == s.min())


def nanson(p: Profile) -> frozenset[str]:
    """Delete everything with a strictly below-average Borda score, repeat
    until no deletion applies."""
    return _eliminate(p, lambda c: (s := borda_scores(c)) < s.sum() / len(s))


# ---------------------------------------------------------------------------
# majority-relation solutions
# ---------------------------------------------------------------------------

def condorcet_winner(mu: MajorityRelation) -> frozenset[str]:
    return _labels_where(mu, mu.matrix.sum(axis=1) == mu.m - 1)


def _unbeaten(mu: MajorityRelation, beats: np.ndarray) -> frozenset[str]:
    """The alternatives no alternative beats under ``beats`` (an m x m
    relation over ``mu``'s labels): the shared last step of the core and
    the covering rules."""
    return _labels_where(mu, ~beats.any(axis=0))


def core(mu: MajorityRelation) -> frozenset[str]:
    """Undominated alternatives: empty upper contour set."""
    return _unbeaten(mu, mu.matrix)


def copeland(mu: MajorityRelation, variant: int) -> frozenset[str]:
    """Copeland winners.  Variant 1 scores wins minus losses, variant 2
    wins alone, variant 3 (negated) losses alone."""
    if variant == 1:
        scores = mu.matrix.sum(axis=1, dtype=np.int32) - mu.matrix.sum(axis=0, dtype=np.int32)
    elif variant == 2:
        scores = mu.matrix.sum(axis=1, dtype=np.int32)
    elif variant == 3:
        scores = -mu.matrix.sum(axis=0, dtype=np.int32)
    else:
        raise ValueError(f"no Copeland variant {variant}")
    return _argmax_set(mu, scores)


def _contained(A: np.ndarray) -> np.ndarray:
    """B[x, y] = True iff row set x is contained in row set y, where ``A``
    is a 0/1 float32 matrix whose rows are the sets' indicator vectors.

    Row x of the Gram matrix G = A Aᵀ counts what set x shares with every
    set, and G[x, x] is the size of set x, so x ⊆ y exactly when
    G[x, y] >= G[x, x].  The product is symmetric, so BLAS forms it with
    one syrk, half the work of a general product, and column sets pass the
    transposed view ``A.T`` with no copy: NumPy hands that view to the same
    syrk as Aᵀ A.  Every partial sum is a count of at most m, so float32
    keeps it exact while m < 2^24.  A caller converts the relation to
    float32 once and may read both orientations from it.
    """
    gram = A @ A.T
    return gram >= gram.diagonal()[:, None]


def _overlaps(A: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """G[i, j] = how many members row set i of ``A``, a 0/1 float32
    matrix, shares with row set j of ``sets``, a bool matrix over the same
    universe (a transposed view reads column sets).  This is the general
    product A Bᵀ, exact in float32 as in :func:`_contained`, but ``sets``
    is converted to float32 about 2 MiB at a time into one product each:
    a float copy of a whole m × m relation would outlast the call as free
    heap, and at m = 2000 it raised the benchmark's peak memory by about
    7 %."""
    gram = np.empty((len(A), len(sets)), dtype=np.float32)
    step = max(1, (1 << 19) // sets.shape[1])
    for j in range(0, len(sets), step):
        gram[:, j : j + step] = A @ sets[j : j + step].astype(np.float32).T
    return gram


# Past this many alternatives, the covering rules first test the ones with
# the smallest keys as coverers of every alternative (see ``_uncovered``).
# Up to it they keep the dense all-pairs form: ``_uncovered`` with the
# block capped at m gives the same sets but costs 17.5-43.3 us a call
# against 5.7-11.4 us at m = 3-6 (n = 4 and 5 profiles, best of 40 per
# call, 2-vCPU x86 VM), in its argpartition, gathers and chunked product,
# and verify-small's profiles_per_s read 109,000-109,900 against
# 111,800-116,000 in three alternating pairs.
_COVERERS = 128


def _uncovered(
    mu: MajorityRelation,
    key: np.ndarray,
    covered: Callable[[np.ndarray, np.ndarray | slice], np.ndarray],
) -> frozenset[str]:
    """The alternatives no alternative covers, for ``mu.m > _COVERERS``.
    ``covered(X, Y)`` marks each Y[j] that some X[i] covers, where ``X``
    is an index array and ``Y`` is either ``X`` itself (the square block)
    or the slice ``:`` of every alternative.  A coverer's ``key`` is
    always strictly smaller than what it covers: its in-degree for rules
    15, 16 and 18, minus its out-degree for rule 17.

    Each covering relation is then transitive and acyclic, so every covered
    alternative is covered by an uncovered one (Miller 1980; Laslier
    1997).  Two blocks decide it exactly:

    1. The ``_COVERERS`` alternatives with the smallest keys (found with
       ``argpartition``) are tested as coverers of every alternative.
       Whatever covers one of them has a strictly smaller key, so it lies
       among them too: their own fate is final after this block.
    2. The survivors outside them are tested against each other, in one
       square block over their rows alone.  A survivor covered at all is
       covered by an uncovered alternative, and that one is not among the
       first block's coverers (the survivor would not have survived), so
       it is a survivor too.  The block is skipped when every survivor
       has the same key, since then none can cover another: on the empty
       relation block 2 computes nothing.

    On the profiles the benchmark draws, the strongest alternatives cover
    most of the rest, and tens to hundreds of 2000 survive block 1.  The
    worst case is a relation in which nothing is covered, such as a random
    tournament: block 2 then holds all but ``_COVERERS`` alternatives, and
    the call costs block 1, a ``_COVERERS`` × m general product, plus the
    gather of the survivors' sets and a square product over them, which
    is a little smaller than the one square product an all-pairs test
    takes.
    """
    top = np.argpartition(key, _COVERERS - 1)[:_COVERERS]
    alive = ~covered(top, np.s_[:])
    rest = alive.copy()
    rest[top] = False
    rest = np.flatnonzero(rest)
    if rest.size and key[rest].min() < key[rest].max():
        alive[rest] = ~covered(rest, rest)
    return _labels_where(mu, alive)


def _upper_within(beats: np.ndarray, X: np.ndarray, Y) -> np.ndarray:
    """The bool block "D(X[i]) lies within D(Y[j])" for ``X`` and ``Y`` as
    ``_uncovered`` passes them; column x of ``beats`` is the indicator of
    D(x).  The columns ``X`` are gathered with ``take`` and read as rows
    through the transposed view: at m = 2000 that costs a quarter of
    indexing the rows of ``beats.T``, which reads across rows."""
    upper = beats.take(X, axis=1).astype(np.float32).T
    if Y is X:
        return _contained(upper)
    return _overlaps(upper, beats.T) >= upper.sum(axis=1)[:, None]


def _upper_covers(beats: np.ndarray, X: np.ndarray, Y) -> np.ndarray:
    """The uncovered_1 covering block: X[i] beats Y[j] and D(X[i]) lies
    within D(Y[j])."""
    return beats[X][:, Y] & _upper_within(beats, X, Y)


def fishburn(mu: MajorityRelation) -> frozenset[str]:
    """Alternatives whose upper contour set is not a strict superset of any
    other's (undominated in the Fishburn auxiliary relation).  Past
    ``_COVERERS`` alternatives, in two blocks (see :func:`_uncovered`)."""
    beats = mu.matrix
    if len(beats) <= _COVERERS:
        within = _contained(beats.astype(np.float32).T)
        return _unbeaten(mu, within & ~within.T)
    sizes = beats.sum(axis=0, dtype=np.int32)

    def covered(X, Y):
        return (_upper_within(beats, X, Y) & (sizes[X][:, None] < sizes[None, Y])).any(axis=0)

    return _uncovered(mu, sizes, covered)


def uncovered_1(mu: MajorityRelation) -> frozenset[str]:
    """Covering = beating plus upper-contour containment (D(x) within D(y)).
    Past ``_COVERERS`` alternatives, in two blocks (see :func:`_uncovered`)."""
    beats = mu.matrix
    if len(beats) <= _COVERERS:
        return _unbeaten(mu, beats & _contained(beats.astype(np.float32).T))
    return _uncovered(
        mu,
        beats.sum(axis=0, dtype=np.int32),
        lambda X, Y: _upper_covers(beats, X, Y).any(axis=0),
    )


def uncovered_2(mu: MajorityRelation) -> frozenset[str]:
    """Covering = beating plus lower-contour containment (L(y) within L(x)).
    Past ``_COVERERS`` alternatives, in two blocks (see :func:`_uncovered`):
    a coverer has more alternatives below it than what it covers."""
    beats = mu.matrix  # row x = indicator of L(x)
    if len(beats) <= _COVERERS:
        return _unbeaten(mu, beats & _contained(beats.astype(np.float32)).T)
    lows = beats.sum(axis=1, dtype=np.int32)

    def covered(X, Y):
        lower = beats[X].astype(np.float32)
        if Y is X:
            within = _contained(lower).T
        else:  # L(y) lies within L(x) when they share all |L(y)| members
            within = _overlaps(lower, beats) >= lows
        return (beats[X][:, Y] & within).any(axis=0)

    return _uncovered(mu, -lows, covered)


def _no_tie_beaten(beats: np.ndarray, X, Y, pairs: np.ndarray) -> np.ndarray:
    """Marks each Y[j] for which some pair (i, j) of the bool block
    ``pairs``, where X[i] beats Y[j], has Y[j] beating nothing tied with
    X[i] (beating neither way).  X[i] counts as tied with itself here, but
    Y[j] does not beat it.

    Each tie set and each lower contour set is packed into bytes once.  The
    pairs are tested in rounds, one pair per column and round, byte against
    byte: a column leaves at its first pair that passes, or once its pairs
    run out.  So an alternative that passes for many columns settles them
    all in the first round.  ``pairs`` is cleared on the way."""
    tied = ~(beats[X] | beats.take(X, axis=1).T)
    tied, lower = np.packbits(tied, axis=1), np.packbits(beats[Y], axis=1)
    marked = np.zeros(pairs.shape[1], dtype=bool)
    while (cols := np.flatnonzero(pairs.any(axis=0))).size:
        rows = pairs[:, cols].argmax(axis=0)
        passes = ~(tied[rows] & lower[cols]).any(axis=1)
        marked[cols[passes]] = True
        pairs[:, cols[passes]] = False
        pairs[rows, cols] = False
    return marked


def richelson(mu: MajorityRelation) -> frozenset[str]:
    """Covering needs the beat and both contour containments at once.

    Past ``_COVERERS`` alternatives, in two blocks (see :func:`_uncovered`)
    with uncovered_1's key, and L(y) within L(x) is tested only on the
    pairs that pass the beat test and D(x) within D(y), where it reads more
    simply.  Each z that y beats is then beaten by x: z cannot beat x (it
    would lie in D(x), so beat y), and z is not x (y does not beat x).  So
    L(y) lies in L(x) exactly when y beats nothing tied with x, and one
    packed-bit test on those pairs replaces a second Gram product."""
    beats = mu.matrix
    if len(beats) <= _COVERERS:
        A = beats.astype(np.float32)
        return _unbeaten(mu, beats & _contained(A.T) & _contained(A).T)
    return _uncovered(
        mu,
        beats.sum(axis=0, dtype=np.int32),
        lambda X, Y: _no_tie_beaten(beats, X, Y, _upper_covers(beats, X, Y)),
    )


def _bits(mask: int) -> Iterator[int]:
    """The positions of ``mask``'s set bits, highest first: the walk the
    bitmask kernels below take over a vertex set.  Taking the top bit needs
    no negation of the mask, and the mask shrinks as it goes, so a dense
    walk at m = 2000 costs half of what peeling off the lowest bit does."""
    while mask:
        v = mask.bit_length() - 1
        yield v
        mask ^= 1 << v


def _mask_labels(mask: int, labels: tuple[str, ...]) -> frozenset[str]:
    return frozenset(labels[i] for i in _bits(mask))


_BIT_WEIGHTS = (1 << np.arange(8)).astype(np.uint8)


def _row_masks(matrix: np.ndarray) -> list[int]:
    """Per row of a boolean matrix, the bitmask of the columns it marks, as
    a Python int (bit j for column j), so it has no width limit.

    The matrix's width picks the path:

    * Up to eight columns (every small-m relation) each mask is one byte.
      One ``np.packbits`` along the row axis and one ``tolist()`` give them
      all, for a C-contiguous matrix and a transposed view alike, at half
      the byte-slicing path's cost on rows and a quarter on a transposed
      view (m = 6).
    * Wider rows of a C-contiguous matrix (or of any layout but a
      transposed view) pack along the row with ``np.packbits`` too.  A
      transposed view holds the columns of a C-contiguous base, and packing
      along its strided axis costs about 20 times more at m = 2000; so the
      base is packed eight rows at a time instead.  Read as bytes, each slab
      of eight base rows weighted 1, 2, ..., 128 gives byte i of every
      column's mask, and only that packed array, eight times smaller, is
      transposed.  The base gets zero rows up to a multiple of eight first.
      Either way each mask is ``int.from_bytes`` of one little-endian slice
      of a single ``tobytes()`` buffer.
    """
    if matrix.shape[1] <= 8:
        return np.packbits(matrix, axis=1, bitorder="little")[:, 0].tolist()
    if matrix.flags.c_contiguous or not matrix.T.flags.c_contiguous:
        packed = np.packbits(matrix, axis=1, bitorder="little")
    else:
        base = matrix.T
        rows, cols = base.shape
        if rows % 8:
            padded = np.zeros((rows + -rows % 8, cols), dtype=bool)
            padded[:rows] = base
            base = padded
        slabs = base.view(np.uint8).reshape(-1, 8, cols)
        packed = np.einsum("j,ijk->ik", _BIT_WEIGHTS, slabs).T
    width = packed.shape[1]
    buf = packed.tobytes()
    return [
        int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)
    ]


def _reach(adj: list[int], start: int, blocked: int) -> tuple[int, int]:
    """Breadth-first search along the successor masks ``adj`` from
    ``start``, never entering a vertex of the mask ``blocked``: the mask of
    the vertices reached (``start`` included) and of the last frontier, the
    farthest of them.  Each vertex reached is walked once, by the loop of
    :func:`_bits` written out: a generator per level costs about 2.5 us of
    a 20 us call at m <= 6."""
    seen = blocked | 1 << start
    frontier = 1 << start
    while True:
        nxt = 0
        probe = frontier
        while probe:
            v = probe.bit_length() - 1
            nxt |= adj[v]
            probe ^= 1 << v
        nxt &= ~seen
        if not nxt:
            return seen & ~blocked, frontier
        seen |= nxt
        frontier = nxt


def _sink_components(
    succ: list[int], pred: list[int], labels: tuple[str, ...]
) -> list[frozenset[str]]:
    """Strongly connected components with no outgoing edges, as label sets:
    each such component is one inclusion-minimal closed set.  The digraph
    comes as per-vertex Python-int masks, built once per call by
    :func:`_row_masks`: ``succ[v]`` has bit w set for each edge v -> w,
    ``pred[v]`` for each edge w -> v.

    A vertex ``v``'s component is what it reaches that also reaches it, and
    it is a sink exactly when ``v`` reaches nothing else.  Whatever reaches
    ``v`` lies in no sink but ``v``'s own, so one visit decides ``v``'s whole
    backward reach.  A decided vertex's predecessors are then decided too:
    no undecided vertex reaches one, and both searches skip them.

    Vertices are visited by in-degree, highest first.  The in-degree is the
    popcount of ``pred[v]``, the same count as a column sum of the matrix,
    and ``sorted`` under ``reverse`` keeps equal counts in index order, so
    the order is the one a stable argsort of the negated column sums gives.
    The "fails to beat" digraph of procedure 12 then takes exactly one
    visit: it is semicomplete, so its sink component K is unique, each
    member has in-degree at least m - |K| (every outsider points at it) and
    each outsider at most m - |K| - 1 (only other outsiders do); the first
    vertex visited lies in K and everything reaches it.  That argument reads
    only the in-degrees, which the masks give exactly.  After a visit that
    finds no sink, the next one starts from a vertex of the farthest
    frontier (its highest-indexed, the cheapest to find), which heads for a
    sink; visiting in in-degree order
    alone costs one search of the rest of a long directed path per vertex on
    it.
    """
    indegree = [mask.bit_count() for mask in pred]
    decided = 0
    sets = []
    for v in sorted(range(len(pred)), key=indegree.__getitem__, reverse=True):
        while not decided >> v & 1:
            forward, farthest = _reach(succ, v, decided)
            backward = _reach(pred, v, decided)[0]
            if not forward & ~backward:
                sets.append(_mask_labels(forward, labels))
            decided |= backward
            v = farthest.bit_length() - 1
    sets.sort(key=sorted)
    return sets


def minimal_dominant_sets(mu: MajorityRelation) -> list[frozenset[str]]:
    """All inclusion-minimal sets whose every member beats every outsider.

    A set is dominant exactly when it is closed under the relation
    "fails to beat", so the minimal ones are the sink components of that
    relation's digraph, whose masks complement the majority matrix's rows
    and columns.  Its self-loops change neither reachability nor the
    in-degree order.
    """
    full = (1 << mu.m) - 1
    fails = [full ^ row for row in _row_masks(mu.matrix)]
    failed_by = [full ^ column for column in _row_masks(mu.matrix.T)]
    return _sink_components(fails, failed_by, mu.labels)


def minimal_dominant(mu: MajorityRelation) -> frozenset[str]:
    return frozenset().union(*minimal_dominant_sets(mu))


def minimal_undominated_sets(mu: MajorityRelation) -> list[frozenset[str]]:
    """All inclusion-minimal sets no outsider beats into (closed under
    "is beaten by", i.e. sink components of the reversed majority digraph,
    whose successors are the majority matrix's columns)."""
    return _sink_components(_row_masks(mu.matrix.T), _row_masks(mu.matrix), mu.labels)


def minimal_undominated(mu: MajorityRelation) -> frozenset[str]:
    return frozenset().union(*minimal_undominated_sets(mu))


def _smallest_masks(m: int, qualifies: Callable[[int], bool]) -> list[int]:
    """All qualifying subsets of minimum cardinality: scan sizes upward and
    stop at the first size that admits any qualifying set."""
    for size in range(1, m + 1):
        found = []
        for combo in combinations(range(m), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if qualifies(mask):
                found.append(mask)
        if found:
            return found
    return []


def _masks_to_sets(masks: list[int], labels: tuple[str, ...]) -> list[frozenset[str]]:
    sets = [_mask_labels(mask, labels) for mask in masks]
    sets.sort(key=lambda s: (len(s), sorted(s)))
    return sets


def weakly_stable_sets(mu: MajorityRelation) -> list[frozenset[str]]:
    """All minimal (smallest-cardinality) weakly stable sets.

    Q is weakly stable when every outside alternative that beats some member
    is itself beaten by some member; threats entirely inside Q don't count.
    Minimality is by cardinality: the search scans set sizes upward and keeps
    every stable set of the first size that admits one.
    """
    att = _row_masks(mu.matrix.T)  # per alternative, the ones that beat it

    def qualifies(mask: int) -> bool:
        threats = 0
        for v in _bits(mask):
            threats |= att[v]
        return all(att[y] & mask for y in _bits(threats & ~mask))

    return _masks_to_sets(_smallest_masks(mu.m, qualifies), mu.labels)


def minimal_weakly_stable(mu: MajorityRelation) -> frozenset[str]:
    return frozenset().union(*weakly_stable_sets(mu))


def k_stable_sets(mu: MajorityRelation, k: int) -> list[frozenset[str]]:
    """All minimal (smallest-cardinality) sets from which every outsider is
    reachable by a majority path of length at most ``k``."""
    if k <= 1:
        raise ValueError("k-stability needs k > 1")
    m = mu.m
    adj = mu.matrix
    reach = adj.copy()
    power = adj
    # a shortest path has at most m - 1 edges, and once the paths one edge
    # longer reach nothing new, no longer ones will: stop there, whatever k
    for _ in range(min(k, m - 1) - 1):
        power = power @ adj  # a bool product: it counts no paths, so nothing wraps
        if not (power & ~reach).any():
            break
        reach |= power
    reach_masks = _row_masks(reach)
    full = (1 << m) - 1

    def qualifies(mask: int) -> bool:
        covered = mask
        for v in _bits(mask):
            covered |= reach_masks[v]
        return covered == full

    return _masks_to_sets(_smallest_masks(m, qualifies), mu.labels)


def k_stable(mu: MajorityRelation, k: int) -> frozenset[str]:
    return frozenset().union(*k_stable_sets(mu, k))


# ---------------------------------------------------------------------------
# grade-based rules
# ---------------------------------------------------------------------------

def threshold_order(g: GradeTable) -> list[frozenset[str]]:
    """Equivalence classes best-first under the threshold comparison.

    An alternative's signature counts its worst grades first: fewer bottom
    grades wins; ties move to the next grade up, and so on (lexicographic
    comparison of grade-count vectors from worst grade to best).  Two grade
    columns sorted ascending first differ where one moves past a grade the
    other still repeats, so that comparison orders the sorted columns, and
    the largest sorted column is the best.
    """
    classes: dict[tuple[int, ...], set[str]] = {}
    for lab, column in zip(g.labels, np.sort(g.grades, axis=0).T.tolist()):
        classes.setdefault(tuple(column), set()).add(lab)
    return [frozenset(classes[key]) for key in sorted(classes, reverse=True)]


def threshold_rule(g: GradeTable) -> frozenset[str]:
    return threshold_order(g)[0]


def super_threshold(g: GradeTable) -> frozenset[str]:
    """Alternatives whose grade sum meets the mean grade sum of the presented
    alternatives."""
    sums = g.grades.sum(axis=0)
    return _labels_where(g, sums >= sums.mean())


def q_pareto(g: GradeTable, q: int) -> frozenset[str]:
    """Alternatives weakly dominated by at most ``q`` others.

    y weakly dominates x when y scores at least as well as x on every
    criterion (y itself excluded).  q = 0 keeps exactly the alternatives
    nothing else weakly dominates.  A profile goes through
    ``QParetoRule(q).choose``, which converts it.
    """
    if q < 0:
        raise ValueError("q-Pareto needs q >= 0")
    m = g.m
    dominates = np.ones((m, m), dtype=bool)
    for i in range(g.n):
        row = g.grades[i]
        dominates &= row[:, None] >= row[None, :]
    np.fill_diagonal(dominates, False)
    return _labels_where(g, dominates.sum(axis=0) <= q)


# ---------------------------------------------------------------------------
# support-matrix rules
# ---------------------------------------------------------------------------

def simpson(t: TournamentMatrix) -> frozenset[str]:
    """Maximise your weakest pairwise support (maximin), which is also
    minimax: S(x, y) = voters - S(y, x) off the diagonal and 0 on it, so a
    row's min is voters minus its column's max, the strongest rival.  The
    winners minimise that max; bitwise NOT reverses the order of the uint8,
    uint16 and int64 counts alike, with no Python-int operand for NumPy to
    promote."""
    return _argmax_set(t, ~t.counts.max(axis=0))


minimax = simpson


def black(t: TournamentMatrix) -> frozenset[str]:
    """The Condorcet winner when one exists, the Borda winners otherwise.
    Both read S alone: the Condorcet winner is that of S's strict-majority
    relation (:meth:`TournamentMatrix.majority`), and x's Borda score, the
    sum over criteria of the alternatives ranked below x, is its row sum of
    S."""
    winner = condorcet_winner(t.majority())
    return winner if winner else _argmax_set(t, t.counts.sum(axis=1, dtype=np.int64))


# ---------------------------------------------------------------------------
# the indexed registry
# ---------------------------------------------------------------------------

class _Row(NamedTuple):
    name: str
    kind: str  # the input the kernel reads: 'profile' | 'mu' | 'grades' | 'support'
    param: str | None  # the rule's field passed to the kernel after its input
    single_winner: bool
    kernel: Callable[..., frozenset[str]]


_REGISTRY: dict[int, _Row] = {
    1: _Row("simple_majority", "profile", None, True, simple_majority),
    2: _Row("plurality", "profile", None, False, plurality),
    3: _Row("inverse_plurality", "profile", None, False, inverse_plurality),
    4: _Row("q_approval", "profile", "q", False, q_approval),
    5: _Row("run_off", "profile", None, True, run_off),
    6: _Row("hare", "profile", None, True, hare),
    7: _Row("borda", "profile", None, False, borda),
    8: _Row("black", "support", None, False, black),
    9: _Row("inverse_borda", "profile", None, False, inverse_borda),
    10: _Row("nanson", "profile", None, False, nanson),
    11: _Row("coombs", "profile", None, True, coombs),
    12: _Row("minimal_dominant", "mu", None, False, minimal_dominant),
    13: _Row("minimal_undominated", "mu", None, False, minimal_undominated),
    14: _Row("minimal_weakly_stable", "mu", None, False, minimal_weakly_stable),
    15: _Row("fishburn", "mu", None, False, fishburn),
    16: _Row("uncovered_1", "mu", None, False, uncovered_1),
    17: _Row("uncovered_2", "mu", None, False, uncovered_2),
    18: _Row("richelson", "mu", None, False, richelson),
    19: _Row("condorcet_winner", "mu", None, True, condorcet_winner),
    20: _Row("core", "mu", None, False, core),
    21: _Row("k_stable", "mu", "k", False, k_stable),
    22: _Row("threshold", "grades", None, False, threshold_rule),
    23: _Row("copeland_1", "mu", None, False, partial(copeland, variant=1)),
    24: _Row("copeland_2", "mu", None, False, partial(copeland, variant=2)),
    25: _Row("copeland_3", "mu", None, False, partial(copeland, variant=3)),
    26: _Row("super_threshold", "grades", None, False, super_threshold),
    27: _Row("minimax", "support", None, False, simpson),
    28: _Row("simpson", "support", None, False, simpson),
}

PROCEDURE_NAMES: dict[int, str] = {i: row.name for i, row in _REGISTRY.items()}
NAME_TO_INDEX: dict[str, int] = {row.name: i for i, row in _REGISTRY.items()}


def _one_label_input(kind: str, p: Profile, subset: Iterable[str]) -> _Universe:
    """What a ``kind`` kernel reads for the choice from the one-label set
    ``subset`` of profile ``p``, built without contracting or deriving.

    Over one alternative every criterion ranks it first, and there is no
    pair to compare.  So whatever ``p`` holds, contracting and converting
    give n rank-0 rows (int32), the 1 × 1 empty relation, the 1 × 1 zero
    support matrix over n voters (in the dtype the counts of n criteria are
    summed in) and n grades of 1 (int64); a scope's held μ or S restricted
    to the label gives the same relation and matrix.  The label is checked
    as a contraction checks it."""
    [j] = p._positions(subset)
    labels, n = (p.labels[j],), p.n
    if kind == "mu":
        return MajorityRelation._trusted(labels, np.zeros((1, 1), bool))
    if kind == "support":
        return TournamentMatrix._trusted(labels, np.zeros((1, 1), _support_dtype(n)), n)
    if kind == "grades":
        return GradeTable._trusted(labels, np.ones((n, 1), np.int64))
    return Profile._trusted(labels, np.zeros((n, 1), np.int32))


def _kernel_input(kind: str, data, subset: Iterable[str] | None, name: str):
    """What a ``kind`` kernel reads, for the choice from ``subset`` of
    ``data``: a profile is contracted and then converted; any other input
    must already be of the rule's kind and is restricted.  This is the one
    conversion path: the rules, the NC checker and the fixture runner all
    read their inputs through it, and a wrong kind raises ``TypeError``
    naming the operation ``name``.

    A set or frozenset of one label is the exception for a profile, plain
    or scoped: its input is built directly (``_one_label_input``), equal in
    labels, values, dtype and ``voters`` to the contracted and converted
    one, and a scope's ``held`` is left as it is.  About half the stage
    calls of a check or a two-stage call at small m choose from one
    survivor, and there the contraction and derivation cost more than the
    kernel does.  A relation, support matrix or grade table given directly
    is still restricted: a grade table's values are its own, not re-ranked.

    A condition check or a two-stage call hands the rule a
    :class:`ScopedProfile`, which holds one array over its whole universe.
    The first choice from the whole universe that reads μ or S derives it:
    S when that read is S or the scope's ``support`` says an S read will
    follow, otherwise μ, derived in place.  A held S serves every later
    read of S and of μ, restricted to the subset, with μ read from S by
    ``majority()``, so an S-first, μ-second call reads μ over the survivors
    alone; a held μ serves μ.  Any other read contracts and derives, as on
    a plain profile.  A subset choice never derives the full array itself,
    which at large m costs far more than the subset's; and grades and
    profile kernels always contract, since they re-rank within the subset.
    No kernel calls this itself: each reads only the input its row names.

    The converters are looked up as module globals on each call, so a
    caller that replaces one (the benchmark's tracer does) sees every use.
    """
    if isinstance(data, Profile):
        if isinstance(subset, (set, frozenset)) and len(subset) == 1:
            return _one_label_input(kind, data, subset)
        if isinstance(data, ScopedProfile) and kind in ("mu", "support"):
            if subset is None and data.held is None:
                reads_s = data.support or kind == "support"
                data.held = tournament_matrix(data) if reads_s else majority_relation(data)
            held = data.held
            if held is not None and kind in (held.kind, "mu"):
                held = held if subset is None else held.restrict(subset)
                return held if held.kind == kind else held.majority()
        if subset is not None:
            data = contract(data, subset)
        if kind == "mu":
            return majority_relation(data)
        if kind == "support":
            return tournament_matrix(data)
        if kind == "grades":
            return grade_table(data)
        return data
    if not (isinstance(data, _Universe) and data.kind == kind):
        noun = _KINDS[kind].noun
        wanted = noun if kind == "profile" else f"a full profile or {noun}"
        given = data.noun if isinstance(data, _Universe) else type(data).__name__
        raise TypeError(f"{name} needs {wanted}, not {given}")
    return data if subset is None else data.restrict(subset)


class _RowRule:
    """The calling surface of a fixed rule, read from its registry row
    ``_row``: its name, the input kind its kernel reads, its parameter, its
    labels and its one entry point ``choose``.

    Every kernel is blind to the order of the criteria (``anonymous``), and
    relabelling the alternatives relabels its choice (``neutral``), so search
    and verify may check one profile per orbit of both.
    """

    _row: _Row
    anonymous = neutral = True

    @property
    def name(self) -> str:
        return self._row.name

    @property
    def kind(self) -> str:
        return self._row.kind

    @property
    def param(self) -> str | None:
        return self._row.param

    @property
    def single_winner(self) -> bool:
        return self._row.single_winner

    @property
    def kinds(self) -> frozenset[str]:
        """The input kinds the rule reads: its kernel's alone."""
        return frozenset((self._row.kind,))

    def label(self) -> str:
        row = self._row
        if row.param is None:
            return row.name
        return f"{row.name}({row.param}={getattr(self, row.param)})"

    def choose(self, data, subset: Iterable[str] | None = None) -> frozenset[str]:
        """The choice from ``subset`` (default: every alternative) of
        ``data``, which is a profile or the input this rule's kernel reads
        (its ``kind``)."""
        row = self._row
        data = _kernel_input(row.kind, data, subset, row.name)
        if row.param is None:
            return row.kernel(data)
        return row.kernel(data, getattr(self, row.param))


@dataclass(frozen=True)
class Procedure(_RowRule):
    """One of the 28 indexed procedures, with its parameter if it takes one:
    ``q`` belongs to the q-approval rule (default 2 in the two-stage
    catalog) and ``k`` to the k-stable rule (default 2).  Its row is
    ``_REGISTRY[index]``.
    """

    index: int
    q: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.index not in _REGISTRY:
            raise ValueError(f"no procedure with index {self.index}")
        name, param = self.name, self.param
        if self.q is not None and param != "q":
            raise ValueError(f"{name} takes no q parameter")
        if self.k is not None and param != "k":
            raise ValueError(f"{name} takes no k parameter")
        if param == "q" and (self.q is None or self.q < 1):
            raise ValueError("q-approval needs q >= 1")
        if param == "k" and (self.k is None or self.k <= 1):
            raise ValueError("k-stable needs k > 1")

    @property
    def _row(self) -> _Row:
        return _REGISTRY[self.index]

    # perfbench/tracing.py wraps choose and its aliases through this class's
    # own namespace; the aliases stay only for that
    choose = choose_mu = choose_grades = choose_support = _RowRule.choose


@dataclass(frozen=True)
class QParetoRule(_RowRule):
    """The q-Pareto rule as a standalone choice rule.

    Not one of the 28 indexed procedures, but it reads the same row-driven
    surface, so the axiom checkers and the command line can drive it.
    Keeps every alternative weakly dominated by at most ``q`` others.
    """

    _row = _Row("qpareto", "grades", "q", False, q_pareto)

    q: int

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("q-Pareto needs q >= 0")


def make_procedure(
    spec: int | str | Procedure, q: int | None = None, k: int | None = None
) -> "Procedure | QParetoRule":
    """Build a :class:`Procedure` from an index, a mnemonic name, or pass an
    existing one through (parameters must then be omitted).  The name
    ``"qpareto"`` (or ``"q_pareto"``) builds the standalone q-Pareto rule,
    with ``q`` defaulting to 2 like the other parameterized rules."""
    if isinstance(spec, _RowRule):
        if q is not None or k is not None:
            raise ValueError("cannot re-parameterize an existing Procedure")
        return spec
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key in ("qpareto", "q_pareto"):
            if k is not None:
                raise ValueError("q-Pareto takes only the q parameter")
            return QParetoRule(2 if q is None else q)
        if key.isdigit():
            index = int(key)
        elif key in NAME_TO_INDEX:
            index = NAME_TO_INDEX[key]
        else:
            raise ValueError(
                f"unknown procedure {spec!r}; known names: "
                + ", ".join(sorted(NAME_TO_INDEX)) + ", qpareto"
            )
    else:
        index = spec
    param = _REGISTRY[index].param if index in _REGISTRY else None
    if param == "q" and q is None:
        q = 2
    if param == "k" and k is None:
        k = 2
    return Procedure(index, q=q, k=k)


def apply_procedure(
    spec: int | str | Procedure,
    p: Profile,
    subset: Iterable[str] | None = None,
    *,
    q: int | None = None,
    k: int | None = None,
) -> frozenset[str]:
    """Evaluate one procedure on the contraction of ``p`` to ``subset``.
    Parameters given with an existing rule raise, as in :func:`make_procedure`."""
    return make_procedure(spec, q=q, k=k).choose(p, subset)
