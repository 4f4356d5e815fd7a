"""Normative-condition checkers and a bounded counterexample search.

Eight conditions are checked against a choice rule (a single procedure or a
two-stage composition — anything exposing ``choose(data, subset)``) on one
input: a profile, a majority relation or a grade table.

* ``H``    heredity: chosen alternatives stay chosen in any subset that
           contains them: C(X) ∩ X' ⊆ C(X').
* ``C``    concordance: anything chosen from two subsets covering X is
           chosen from X: X' ∪ X'' = X implies C(X') ∩ C(X'') ⊆ C(X).
* ``O``    outcast: dropping unchosen alternatives never changes the
           choice: C(X) ⊆ X' ⊆ X implies C(X') = C(X).
* ``ACA``  Arrow's choice axiom: whenever a subset meets the choice,
           the subset's choice is exactly that intersection.
* ``MON1`` monotonicity under improvement: a chosen alternative stays
           chosen after moving up in any single criterion.
* ``MON2`` monotonicity under removal: for chosen a ≠ b, a survives
           deleting b or b survives deleting a (the default asks for one
           of the two; a strict variant asks for both).
* ``SM``   strict monotonicity: improving any alternative c changes the
           choice at most to C, {c}, or C ∪ {c}.
* ``NC``   non-compensatory agreement: the choice equals the best class
           of the worst-grade-count (threshold) order of the full grade
           table.

The subset conditions (H, C, O, ACA) scan a family of proper subsets given
as a parameter: every one, by size, or (for search) the deletions of one or
two alternatives.  H, O and ACA test one subset at a time and share one
checker, which reads a row per condition; C tests pairs.  MON1 and SM take a
probe generator chosen by the input: rank improvements on a profile, edge
flips on a relation; a grade table has no improvement move, so they do not
apply to one.  ``NC`` reads the grade table (derived from a profile, or
given); on a relation it holds as not applicable.  Relations are certified
realizable by an explicit profile construction (:func:`realizing_profile`).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import threading
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .profiles import (
    GradeTable,
    MajorityRelation,
    Profile,
    RankImprovement,
    _fmt_set,
    default_labels,
    improve,
    majority_relation,
    perturb_majority,
)
from .procedures import _kernel_input, scoped, threshold_order

__all__ = [
    "AXIOMS",
    "normalize_axiom",
    "Verdict",
    "Counterexample",
    "check_axiom",
    "SearchConfig",
    "SearchResult",
    "search_counterexample",
    "VerificationOutcome",
    "verify_bounded",
    "realizing_profile",
    "enumerate_majority_relations",
    "all_profiles",
]

AXIOMS = ("H", "C", "O", "ACA", "MON1", "MON2", "SM", "NC")

_ALIASES = {
    "h": "H",
    "heredity": "H",
    "heritage": "H",
    "c": "C",
    "concordance": "C",
    "o": "O",
    "outcast": "O",
    "aca": "ACA",
    "mon1": "MON1",
    "monotonicity1": "MON1",
    "mon2": "MON2",
    "monotonicity2": "MON2",
    "sm": "SM",
    "strict": "SM",
    "strict_monotonicity": "SM",
    "strictmono": "SM",
    "nc": "NC",
    "noncomp": "NC",
    "non_compensatory": "NC",
    "noncompensatory": "NC",
}


def normalize_axiom(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    if key in _ALIASES:
        return _ALIASES[key]
    raise ValueError(f"unknown axiom {name!r}; expected one of {', '.join(AXIOMS)}")


class ChoiceRule(Protocol):
    def choose(self, data, subset: Iterable[str] | None = None) -> frozenset[str]: ...


@dataclass(frozen=True)
class Counterexample:
    """A reproducible violation.

    ``kind`` states which probe failed; the payload fields carry the probe
    (subsets, an improvement, or a flipped edge) plus the observed choices,
    so replaying the probe against the same rule must reproduce
    ``observed`` exactly.
    """

    axiom: str
    kind: str  # 'subset' | 'subset-pair' | 'improvement' | 'edge-flip' | 'grade-order'
    subsets: tuple[frozenset[str], ...] = ()
    improvement: RankImprovement | None = None
    edge: tuple[str, str] | None = None
    observed: tuple[tuple[str, frozenset[str]], ...] = ()
    description: str = ""

    def observation(self, key: str) -> frozenset[str]:
        for k, v in self.observed:
            if k == key:
                return v
        raise KeyError(key)


@dataclass(frozen=True)
class Verdict:
    axiom: str
    holds: bool
    witness: Counterexample | None = None
    detail: str = ""

    def __post_init__(self):
        if self.holds == (self.witness is not None):
            raise ValueError("a verdict fails exactly when it carries a witness")


# ---------------------------------------------------------------------------
# subset families, the choice memo, and probes
# ---------------------------------------------------------------------------

def _proper_subsets(labels: Sequence[str]) -> Iterator[frozenset[str]]:
    """Every non-empty proper subset, by size and then lexicographically."""
    for size in range(1, len(labels)):
        for combo in itertools.combinations(labels, size):
            yield frozenset(combo)


def _deletions(labels: Sequence[str]) -> Iterator[frozenset[str]]:
    """The non-empty subsets missing one alternative, then those missing two."""
    universe = frozenset(labels)
    for r in (1, 2):
        if r < len(labels):
            for drop in itertools.combinations(labels, r):
                yield universe.difference(drop)


_Family = Callable[[Sequence[str]], Iterable[frozenset[str]]]
# One rule's choice from a subset of one fixed universe, or from the whole
# universe when called with none; a check caches it per subset.
_Choose = Callable[..., frozenset[str]]


# A probe generator strengthens one target alternative in every admissible
# way, yielding per move the witness fields that record it, a phrase that
# describes it, and the rule's choice after it.
_Probes = Callable[[str], Iterator[tuple[dict, str, frozenset[str]]]]


def _rank_probes(rule: ChoiceRule, p: Profile) -> _Probes:
    """Every single-criterion upward move of the target: each criterion, each
    step count that keeps it on the ballot.

    For a rule that declares ``anonymous``, a criterion whose order repeats
    an earlier criterion's is skipped: its moves give the earlier one's
    improved profiles up to a permutation of the criteria, so the same
    choices, and the earlier criterion is probed first."""
    rows = p.ranks.tolist()
    criteria = range(p.n)
    if getattr(rule, "anonymous", False):
        criteria = [i for i in criteria if rows[i] not in rows[:i]]

    def probes(target: str):
        j = p.index(target)
        for i in criteria:
            for steps in range(1, rows[i][j] + 1):
                change = RankImprovement(target, i, steps)
                yield (
                    {"kind": "improvement", "improvement": change},
                    f"moving {target} up {steps} step(s) in criterion {i + 1}",
                    rule.choose(improve(p, change)),
                )

    return probes


def _edge_probes(rule: ChoiceRule, mu: MajorityRelation) -> _Probes:
    """Every edge flip that makes the target beat an alternative it did not
    beat."""

    def probes(target: str):
        for other in mu.labels:
            if other != target and not mu.beats(target, other):
                yield (
                    {"kind": "edge-flip", "edge": (target, other)},
                    f"making {target} beat {other}",
                    rule.choose(perturb_majority(mu, target, other)),
                )

    return probes


def _probes(rule: ChoiceRule, data, axiom: str) -> _Probes:
    if isinstance(data, Profile):
        return _rank_probes(rule, data)
    if isinstance(data, MajorityRelation):
        return _edge_probes(rule, data)
    raise ValueError(f"{axiom} needs an improvement move, which only a profile or a majority relation has")


# ---------------------------------------------------------------------------
# checkers: one for H, O and ACA, one for MON1 and SM, one each for C, MON2, NC
# ---------------------------------------------------------------------------

# The conditions that test one subset X' at a time against C(X).  Each row
# gives which subsets the condition constrains, from C(X) and the part of it
# kept in X'; whether C(X') then stands as it must; and the failure sentence.
_SINGLE_SUBSET = {
    # H: C(X) ∩ X' ⊆ C(X')
    "H": (lambda full, kept: bool(kept), lambda full, kept, there: kept <= there,
          "choice {full} meets {sub} in {kept}, but the subset's choice is {there}"),
    # O: C(X) ⊆ X' ⊆ X implies C(X') = C(X)
    "O": (lambda full, kept: kept == full, lambda full, kept, there: there == full,
          "{sub} keeps every chosen alternative of {full} yet chooses {there}"),
    # ACA: C(X) ∩ X' ≠ ∅ implies C(X') = C(X) ∩ X'
    "ACA": (lambda full, kept: bool(kept), lambda full, kept, there: there == kept,
            "{sub} meets the choice {full} in {kept} but chooses {there}"),
}


def _check_subsets(axiom: str, choose: _Choose, family: Iterable[frozenset[str]]) -> Counterexample | None:
    constrains, holds, sentence = _SINGLE_SUBSET[axiom]
    full = choose()
    for sub in family:
        kept = full & sub
        if not constrains(full, kept):
            continue
        there = choose(sub)
        if not holds(full, kept, there):
            return Counterexample(
                axiom=axiom,
                kind="subset",
                subsets=(sub,),
                observed=(("choice_full", full), ("choice_subset", there)),
                description=sentence.format(
                    full=_fmt_set(full), sub=_fmt_set(sub), kept=_fmt_set(kept), there=_fmt_set(there)
                ),
            )
    return None


# The conditions that strengthen one target alternative at a time.  Each row
# gives which targets the condition moves, from C(X) and the labels; whether
# the choice after a move then stands as it must; and the failure sentence.
_PROBED = {
    # MON1: strengthening a chosen alternative keeps it chosen
    "MON1": (lambda full, labels: sorted(full), lambda full, a, after: a in after,
             "{a} is chosen, but {move} drops it: choice becomes {after}"),
    # SM: strengthening a turns C(X) into C(X), {a} or C(X) ∪ {a}
    "SM": (lambda full, labels: labels, lambda full, a, after: after in (full, {a}, full | {a}),
           "{move} turns the choice from {full} into {after}, which is neither the old choice, "
           "{{{a}}}, nor their union"),
}


def _check_probes(axiom: str, choose: _Choose, labels: Sequence[str], probes: _Probes) -> Counterexample | None:
    targets, stands, sentence = _PROBED[axiom]
    full = choose()
    for a in targets(full, labels):
        for fields, move, after in probes(a):
            if not stands(full, a, after):
                return Counterexample(
                    axiom=axiom,
                    **fields,
                    observed=(("choice_before", full), ("choice_after", after)),
                    description=sentence.format(a=a, move=move, full=_fmt_set(full), after=_fmt_set(after)),
                )
    return None


def _check_c(choose: _Choose, universe: frozenset[str], family: Iterable[frozenset[str]]) -> Counterexample | None:
    """Pairs of the family that cover the universe, in family order.  Pairs
    that contain the universe itself can never violate C."""
    full = choose()
    for left, right in itertools.combinations(family, 2):
        if left | right != universe:
            continue
        common = choose(left) & choose(right)
        if not common <= full:
            return Counterexample(
                axiom="C",
                kind="subset-pair",
                subsets=(left, right),
                observed=(
                    ("choice_full", full),
                    ("choice_left", choose(left)),
                    ("choice_right", choose(right)),
                ),
                description=(
                    f"{_fmt_set(left)} and {_fmt_set(right)} cover the universe and both "
                    f"choose {_fmt_set(common)}, which is not inside {_fmt_set(full)}"
                ),
            )
    return None


def _check_mon2(choose: _Choose, universe: frozenset[str], *, strict: bool) -> Counterexample | None:
    full = choose()
    for a, b in itertools.combinations(sorted(full), 2):
        a_ok = a in choose(universe - {b})
        b_ok = b in choose(universe - {a})
        failed = not (a_ok and b_ok) if strict else not (a_ok or b_ok)
        if failed:
            want = "both" if strict else "neither"
            return Counterexample(
                axiom="MON2",
                kind="subset-pair",
                subsets=(universe - {b}, universe - {a}),
                observed=(
                    ("choice_full", full),
                    ("choice_without_b", choose(universe - {b})),
                    ("choice_without_a", choose(universe - {a})),
                ),
                description=(
                    f"{a} and {b} are both chosen, but {want} survives removing "
                    f"the other: C without {b} is {_fmt_set(choose(universe - {b}))}, "
                    f"C without {a} is {_fmt_set(choose(universe - {a}))}"
                ),
            )
    return None


def _check_nc(choose: _Choose, g: GradeTable) -> Counterexample | None:
    full = choose()
    best = threshold_order(g)[0]
    if full != best:
        return Counterexample(
            axiom="NC",
            kind="grade-order",
            observed=(("choice_full", full), ("best_grade_class", best)),
            description=(
                f"the choice is {_fmt_set(full)} but the worst-grade-count order "
                f"puts {_fmt_set(best)} first"
            ),
        )
    return None


def _check(
    rule: ChoiceRule, data, axiom: str, family: _Family, mon2_strict: bool
) -> Verdict:
    # one memo for the check: the rule's choice from each subset (keyed by
    # the subset, None for the whole universe), and a two-stage rule's
    # choice of each stage (keyed by the stage and the subset), each
    # computed once on first need.  μ or S is derived at most once and
    # restricted per subset.
    memo: dict = {}
    data = scoped(data, rule, memo)

    def choose(subset=None):
        choice = memo.get(subset)
        if choice is None:
            choice = memo[subset] = rule.choose(data, subset)
        return choice

    labels = data.labels
    if axiom in _SINGLE_SUBSET:
        witness = _check_subsets(axiom, choose, family(labels))
    elif axiom == "C":
        witness = _check_c(choose, frozenset(labels), family(labels))
    elif axiom in _PROBED:
        witness = _check_probes(axiom, choose, labels, _probes(rule, data, axiom))
    elif axiom == "MON2":
        witness = _check_mon2(choose, frozenset(labels), strict=mon2_strict)
    elif isinstance(data, (Profile, GradeTable)):
        witness = _check_nc(choose, _kernel_input("grades", data, None, axiom))
    else:
        return Verdict(axiom, True, None, "not-applicable: no grade information at the majority level")
    if witness is not None:
        return Verdict(axiom, False, witness)
    detail = ""
    if axiom == "MON2" and len(choose()) <= 1:
        detail = "vacuous: fewer than two alternatives chosen"
    return Verdict(axiom, True, None, detail)


def check_axiom(
    rule: ChoiceRule,
    data,
    axiom: str,
    *,
    mon2_strict: bool = False,
) -> Verdict:
    """Check one condition for ``rule`` on the universe of ``data``: a
    profile, a majority relation or a grade table.

    Returns the first violation in a deterministic scan order (subsets by
    size then lexicographically; improvements by alternative, criterion,
    step count; edge flips by alternative, then rival).  On a relation an
    improvement is an edge flip (strengthening a against x means making a
    beat x) and ``NC`` holds as not applicable; on a grade table ``MON1``
    and ``SM`` raise ``ValueError``.  ``mon2_strict=True`` demands that
    both members of a chosen pair survive the other's removal instead of
    at least one.
    """
    return _check(rule, data, normalize_axiom(axiom), _proper_subsets, mon2_strict)


# ---------------------------------------------------------------------------
# enumeration and realizability
# ---------------------------------------------------------------------------

# The groups ``all_profiles(orbits=...)`` can quotient by: permuting the
# criteria, or permuting the criteria and relabelling the alternatives.
_CRITERIA = "criteria"
_BOTH = "criteria+alternatives"
# the relabelling table has (m!)^2 entries: 518,400 at m = 6, 25 million at 7
_RELABEL_MAX_M = 6


def _group(orbits: bool | str) -> bool | str:
    if orbits is True:
        return _CRITERIA
    if orbits in (False, _CRITERIA, _BOTH):
        return orbits
    raise ValueError(
        f"unknown orbits {orbits!r}; expected False, True, {_CRITERIA!r} "
        f"or {_BOTH!r}"
    )


class _Table:
    """A sequence drawn from ``source`` and built only as far as it is read:
    ``reach(k)`` builds through item ``k`` if the source has it, drawing at
    least as many again as are built (64 at first), so a scan cut at a budget
    builds about as many items as it reads.  ``build(items, batch)`` returns
    ``items`` followed by the items made from a drawn batch.

    A table is cached and shared by every caller, so it grows under a lock
    and checks again under it what is built.  ``items`` is replaced whole,
    never changed in place, and only then is the table marked complete, so
    a reader that holds no lock and finds it complete sees every item."""

    def __init__(self, source: Iterator, build: Callable, items):
        self.items = items
        self._source = source  # advanced under the lock only
        self._build = build
        self._lock = threading.Lock()
        self._complete = False

    def reach(self, k: int):
        """The items built once item ``k`` is, or all of them if there are fewer."""
        if len(self.items) <= k and not self._complete:
            with self._lock:
                built = len(self.items)
                if built <= k and not self._complete:
                    want = max(k + 1, 2 * built, 64) - built
                    batch = list(itertools.islice(self._source, want))
                    if batch:
                        self.items = self._build(self.items, batch)
                    self._complete = len(batch) < want
        return self.items

    def __iter__(self) -> Iterator:
        items, k = self.items, 0
        while k < len(items) or k < len(items := self.reach(k)):
            yield items[k]
            k += 1


@functools.cache
def _permutations(m: int) -> tuple[_Table, dict[bytes, int]]:
    """The m! permutations of ``range(m)`` in lexicographic order as one
    read-only array of rank rows, ``items[k, j]`` being alternative ``j``'s
    place in permutation ``k``, and an index that maps the bytes of a built
    row back to ``k``.  A profile holding permutation ``k`` sits at position
    ``k`` or later, so a scan cut at a budget builds about as many rows as
    the budget, however large m! is.  The index is filled before the rows
    it covers are returned, and so before the table publishes them."""
    index: dict[bytes, int] = {}

    def build(rows: np.ndarray, batch: list) -> np.ndarray:
        new = np.argsort(batch, axis=1).astype(np.int32)
        index.update((row.tobytes(), k) for k, row in enumerate(new, len(rows)))
        rows = np.concatenate((rows, new))
        rows.setflags(write=False)
        return rows

    return _Table(itertools.permutations(range(m)), build, np.empty((0, m), np.int32)), index


@functools.cache
def _relabellings(m: int) -> np.ndarray:
    """``act[s, k]``: the index of permutation ``k`` once each alternative
    ``j`` is renamed ``orders[s][j]``.  Row 0 is the identity."""
    if m > _RELABEL_MAX_M:
        raise ValueError(f"orbits under relabelling need m <= {_RELABEL_MAX_M}, got {m}")
    table, _ = _permutations(m)
    orders = table.reach(math.factorial(m) - 1).argsort(axis=1)
    radix = m ** np.arange(m - 1, -1, -1, dtype=np.int32)
    codes = orders @ radix  # increasing, as the permutations are lexicographic
    return np.searchsorted(codes, orders[:, orders] @ radix).astype(np.int16)


def _least_in_orbit(tuples: np.ndarray, act: np.ndarray) -> np.ndarray:
    """Which rows of ``tuples`` (sorted index tuples, one per row) no
    relabelling maps, once re-sorted, to a lexicographically smaller tuple."""
    images = np.sort(act[:, tuples], axis=2)
    own = np.broadcast_to(tuples, images.shape)
    first = (images != own).argmax(axis=2)[..., None]  # first differing place
    below = np.take_along_axis(images, first, 2) < np.take_along_axis(own, first, 2)
    return ~below.any(axis=0)[:, 0]


def _least_tuples(act: np.ndarray, n: int) -> Iterator[tuple[int, ...]]:
    """The sorted n-tuples of permutation indices least in their orbit under
    the relabellings ``act``, in lexicographic order.  Relabelling by the
    inverse of a member's order maps that member to the identity,
    permutation 0, so only tuples that start with 0 can be least.  They are
    filtered in chunks whose relabelled images hold at most 2^16 entries."""
    rests = itertools.combinations_with_replacement(range(len(act)), n - 1)
    size = max(1, (1 << 16) // (len(act) * n))
    while chunk := [(0, *rest) for rest in itertools.islice(rests, size)]:
        rows = np.array(chunk, dtype=np.int16)
        yield from map(tuple, rows[_least_in_orbit(rows, act)].tolist())


@functools.cache
def _representatives(m: int, n: int) -> _Table:
    """The profiles of an (m, n) cell least in their orbit under permuting
    the criteria and relabelling the alternatives, in lexicographic order,
    each built once per process as a ``Profile``.  Only this group is kept:
    it needs m <= 6, and the benchmark's verify-small scans its (3, 3)
    cell, with 10 representatives, 91 times a pass."""
    labels = default_labels(m)
    ranks, _ = _permutations(m)

    def build(profiles: list[Profile], tuples: list[tuple[int, ...]]) -> list[Profile]:
        rows = ranks.reach(max(map(max, tuples)))
        return profiles + [Profile.from_ranks(labels, rows[list(tup)]) for tup in tuples]

    return _Table(_least_tuples(_relabellings(m), n), build, [])


def _index_tuples(count: int, n: int, *, sort: bool, low: int = 0) -> Iterator[tuple[int, ...]]:
    """The n-tuples over ``range(low, count)``, or only the sorted ones, in
    lexicographic order.  They are drawn lazily, where ``itertools`` would
    first copy the whole range, all m! entries of it, into a tuple."""
    if n == 1:
        return zip(range(low, count))
    return (
        (k, *rest)
        for k in range(low, count)
        for rest in _index_tuples(count, n - 1, sort=sort, low=k if sort else 0)
    )


def _least_form(ranks: np.ndarray, group: str) -> tuple:
    """A key shared by exactly the profiles in the orbit of the rank matrix
    ``ranks``: its rows' bytes sorted, or under relabelling the least index
    tuple of the orbit, each row keyed through the permutation index."""
    if group == _CRITERIA:
        return tuple(sorted(row.tobytes() for row in ranks))
    m = ranks.shape[1]
    act = _relabellings(m)  # builds all m! rows, so the index holds each
    _, index = _permutations(m)
    images = np.sort(act[:, [index[row.tobytes()] for row in ranks]], axis=1)
    return (m, min(map(tuple, images.tolist())))


def all_profiles(m: int, n: int, *, orbits: bool | str = False) -> Iterator[Profile]:
    """Every profile of n linear orders over ``default_labels(m)``,
    lexicographically by the tuple of orders.  There are (m!)^n of them —
    keep m and n small.

    ``orbits`` yields, in the same order, only the profiles least in their
    orbit under a group: ``True`` or ``"criteria"`` permutes the criteria
    (the sorted order tuples, C(m!+n-1, n) of them);
    ``"criteria+alternatives"`` also relabels the alternatives (m <= 6).
    Those profiles are built once per process, as far as a scan reads
    them, and every scan of the cell yields the same objects; the other
    groups build each profile as it is drawn, because a full scan of a
    large cell would otherwise keep up to its whole budget of them.
    """
    group = _group(orbits)
    if m < 1 or n < 1:
        raise ValueError("a profile needs at least one alternative and one criterion")
    if group == _BOTH:
        yield from _representatives(m, n)
        return
    labels = default_labels(m)
    ranks, _ = _permutations(m)
    for tup in _index_tuples(math.factorial(m), n, sort=bool(group)):
        yield Profile.from_ranks(labels, ranks.reach(max(tup))[list(tup)])


def enumerate_majority_relations(m: int) -> Iterator[MajorityRelation]:
    """Every asymmetric relation over ``default_labels(m)`` (each pair
    independently tied, won, or lost): 3^(m(m-1)/2) relations, deterministic
    order."""
    labels = default_labels(m)
    pairs = list(itertools.combinations(range(m), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        beats = np.zeros((m, m), dtype=bool)
        for (i, j), s in zip(pairs, states):
            if s == 1:
                beats[i, j] = True
            elif s == 2:
                beats[j, i] = True
        yield MajorityRelation._trusted(labels, beats)


def realizing_profile(mu: MajorityRelation) -> Profile:
    """A profile whose majority relation is exactly ``mu``.

    Classic pairwise construction: for each edge (x, y), two ballots —
    x, y followed by the rest, and the rest reversed followed by x, y —
    give x a net two-vote advantage over y and cancel everywhere else.
    An edgeless relation is realized by one ballot plus its reverse.
    """
    labels = mu.labels
    ballots: list[tuple[str, ...]] = []
    for x, y in mu.edges():
        rest = [z for z in labels if z not in (x, y)]
        ballots.append((x, y, *rest))
        ballots.append((*reversed(rest), x, y))
    if not ballots:
        ballots = [labels, tuple(reversed(labels))]
    p = Profile(ballots)
    built = majority_relation(p)
    if built != mu:  # pragma: no cover - construction is provably exact
        raise AssertionError("realization failed to reproduce the relation")
    return p


# ---------------------------------------------------------------------------
# bounded search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Search space for counterexample hunting.

    ``mode`` is ``"exhaustive"`` (every profile, lexicographic order) or
    ``"random"`` (``samples`` profiles drawn with ``seed``).  ``budget``
    caps the number of profiles examined; hitting it yields an explicit
    ``budget-exceeded`` outcome rather than a silent pass.  The subset
    strategy ``"deletions"`` restricts subset-quantified conditions to
    subsets missing at most two alternatives.
    """

    m_values: tuple[int, ...] = (3,)
    n_values: tuple[int, ...] = (3,)
    mode: str = "exhaustive"
    samples: int = 1000
    seed: int = 0
    budget: int = 200_000
    subset_strategy: str = "all"  # 'all' | 'deletions'
    mon2_strict: bool = False

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.subset_strategy not in ("all", "deletions"):
            raise ValueError(f"unknown subset strategy {self.subset_strategy!r}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if not self.m_values or not self.n_values:
            raise ValueError("m and n ranges must be non-empty")
        if any(m < 1 for m in self.m_values) or any(n < 1 for n in self.n_values):
            raise ValueError("m and n must be positive")
        for name, values in (("m", self.m_values), ("n", self.n_values)):
            if len(set(values)) < len(values):
                raise ValueError(f"each {name} value may be given once, not {list(values)}")


@dataclass(frozen=True)
class SearchResult:
    status: str  # 'found' | 'exhausted' | 'budget-exceeded'
    examined: int  # profiles covered
    witness: Counterexample | None = None
    profile: Profile | None = None
    evaluated: int = 0  # profiles actually checked

    @property
    def found(self) -> bool:
        return self.status == "found"


def _checker(
    rule: ChoiceRule, axiom: str, subset_strategy: str, mon2_strict: bool
) -> Callable[[Profile], Counterexample | None]:
    def check(p: Profile) -> Counterexample | None:
        # the 'all' scan is check_axiom itself; calling it by name keeps every
        # full check visible to the traced benchmark run, which wraps it
        if subset_strategy == "all":
            return check_axiom(rule, p, axiom, mon2_strict=mon2_strict).witness
        return _check(rule, p, axiom, _deletions, mon2_strict).witness

    return check


def _orbits(rule: ChoiceRule, m: int) -> bool | str:
    """The group whose orbits ``rule`` cannot tell apart at size m, as far as
    the rule declares: ``anonymous`` (blind to the order of the criteria),
    and with it ``neutral`` (relabelling the alternatives relabels the
    choice)."""
    if not getattr(rule, "anonymous", False):
        return False
    if getattr(rule, "neutral", False) and m <= _RELABEL_MAX_M:
        return _BOTH
    return _CRITERIA


def _cell_size(m: int, n: int, cap: int) -> int:
    """The (m!)^n profiles of an (m, n) cell, or, once the product passes
    ``cap``, the first partial product above it.  The exact count can be
    huge: at m = 5000, n = 300 it has nearly five million digits."""
    size = 1
    for factor in itertools.chain.from_iterable(itertools.repeat(range(2, m + 1), n)):
        size *= factor
        if size > cap:
            break
    return size


def _scan_cell(
    rule: ChoiceRule,
    m: int,
    n: int,
    check: Callable[[Profile], Counterexample | None],
    budget: int,
) -> SearchResult:
    """Check the (m, n) profiles in lexicographic order until one fails or
    ``budget`` of them are covered.

    Only the profiles least in their orbit under the rule's group
    (:func:`_orbits`) are checked.  Every condition is blind to the order of
    the criteria and to the names of the alternatives, so the failing
    profiles form a union of orbits and the first of them is the least
    member of its orbit: the witness is the one the full scan finds, and
    every skipped profile is covered by its orbit.  ``examined`` counts
    profiles covered (the failing profile's position plus one, or the whole
    cell, or ``budget`` when cut), as the full scan would; ``evaluated``
    counts profiles checked.
    """
    count = math.factorial(m)
    _, index = _permutations(m)  # filled in as far as all_profiles reads
    evaluated = 0
    # called by its module name, so a traced run sees the enumeration
    for p in all_profiles(m, n, orbits=_orbits(rule, m)):
        position = functools.reduce(lambda acc, row: acc * count + index[row.tobytes()], p.ranks, 0)
        if position >= budget:
            return SearchResult("budget-exceeded", budget, evaluated=evaluated)
        evaluated += 1
        witness = check(p)
        if witness is not None:
            return SearchResult("found", position + 1, witness, p, evaluated)
    # the last orbit can end below a budget that the cell exceeds
    size = _cell_size(m, n, budget)
    if size > budget:
        return SearchResult("budget-exceeded", budget, evaluated=evaluated)
    return SearchResult("exhausted", size, evaluated=evaluated)


def search_counterexample(
    rule: ChoiceRule, axiom: str, cfg: SearchConfig = SearchConfig()
) -> SearchResult:
    """Hunt for a profile on which ``rule`` violates ``axiom``.

    Exhaustive mode scans profiles in a fixed lexicographic order (m
    ascending, then n, then the order tuple), so results are reproducible;
    random mode derives every draw from the configured seed.  The first
    profile with a violation is returned along with the witness.

    For an ``anonymous`` rule the exhaustive scan checks one profile per
    orbit under permuting the criteria, and for one also ``neutral`` under
    relabelling the alternatives too (m <= 6); random mode skips a draw
    whose orbit already passed.  The outcome is the one a check of every
    profile gives.  The budget caps ``examined``, the profiles covered.
    """
    axiom = normalize_axiom(axiom)
    check = _checker(rule, axiom, cfg.subset_strategy, cfg.mon2_strict)
    examined = evaluated = 0
    if cfg.mode == "exhaustive":
        for m in sorted(cfg.m_values):
            for n in sorted(cfg.n_values):
                cell = _scan_cell(rule, m, n, check, cfg.budget - examined)
                examined += cell.examined
                evaluated += cell.evaluated
                if cell.status != "exhausted":
                    return replace(cell, examined=examined, evaluated=evaluated)
        return SearchResult("exhausted", examined, evaluated=evaluated)
    rng = random.Random(cfg.seed)
    passed: set[tuple] = set()  # least forms of passing draws
    for _ in range(cfg.samples):
        if examined >= cfg.budget:
            return SearchResult("budget-exceeded", examined, evaluated=evaluated)
        m = rng.choice(cfg.m_values)
        n = rng.choice(cfg.n_values)
        rows = []
        for _ in range(n):
            # shuffling the indices draws the order that shuffling the
            # labels would; its rank row is the inverse permutation
            ballot = list(range(m))
            rng.shuffle(ballot)
            rows.append(sorted(range(m), key=ballot.__getitem__))
        ranks = np.array(rows, dtype=np.int32)
        examined += 1
        group = _orbits(rule, m)
        if group:
            orbit = _least_form(ranks, group)
            if orbit in passed:
                continue
        p = Profile.from_ranks(default_labels(m), ranks)
        evaluated += 1
        witness = check(p)
        if witness is not None:
            return SearchResult("found", examined, witness, p, evaluated)
        if group:
            passed.add(orbit)
    return SearchResult("exhausted", examined, evaluated=evaluated)


@dataclass(frozen=True)
class VerificationOutcome:
    status: str  # 'verified' | 'refuted' | 'budget-exceeded'
    checked: int  # profiles covered
    witness: Counterexample | None = None
    profile: Profile | None = None
    evaluated: int = 0  # profiles actually checked


def verify_bounded(
    rule: ChoiceRule,
    axiom: str,
    m: int,
    n: int,
    *,
    budget: int = 200_000,
    mon2_strict: bool = False,
) -> VerificationOutcome:
    """Exhaustively confirm ``axiom`` for every profile at one (m, n) size.

    This is the only verification entry point: a 'verified' outcome means
    every one of the (m!)^n profiles was covered.  Sampling cannot verify,
    so there is deliberately no random mode here.  A cell within the budget
    is scanned by :func:`search_counterexample`, so an ``anonymous`` rule is
    checked on one profile per orbit under permuting the criteria, and one
    also ``neutral`` on one per orbit under relabelling the alternatives too.
    """
    axiom = normalize_axiom(axiom)
    cfg = SearchConfig((m,), (n,), budget=budget, mon2_strict=mon2_strict)
    if _cell_size(m, n, budget) > budget:
        return VerificationOutcome("budget-exceeded", 0)
    result = search_counterexample(rule, axiom, cfg)  # within the budget: found or exhausted
    status = "refuted" if result.found else "verified"
    return VerificationOutcome(status, result.examined, result.witness, result.profile, result.evaluated)
