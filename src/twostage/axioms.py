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

Each condition has one checker.  The subset conditions (H, C, O, ACA) scan
a family of proper subsets given as a parameter: every one, by size, or
(for search) the deletions of one or two alternatives.  MON1 and SM take a
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
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .profiles import (
    GradeTable,
    MajorityRelation,
    Profile,
    RankImprovement,
    _check_labels,
    _fmt_set,
    default_labels,
    improve,
    majority_relation,
    perturb_majority,
)
from .procedures import _kernel_input, threshold_order

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


class _Memo:
    """Memoizes one rule's choice per subset of one fixed universe.

    ``choose(subset)`` computes the choice from ``subset``, or from the whole
    universe when ``subset`` is None.
    """

    def __init__(
        self,
        choose: Callable[[frozenset[str] | None], frozenset[str]],
        labels: Sequence[str],
    ):
        self._choose = choose
        self.labels = tuple(labels)
        self.universe = frozenset(labels)
        self._cache: dict[frozenset[str], frozenset[str]] = {}

    def __call__(self, subset: frozenset[str] | None = None) -> frozenset[str]:
        key = self.universe if subset is None else subset
        got = self._cache.get(key)
        if got is None:
            got = self._choose(subset)
            self._cache[key] = got
        return got


# A probe generator strengthens one target alternative in every admissible
# way, yielding per move the witness fields that record it, a phrase that
# describes it, and the rule's choice after it.
_Probes = Callable[[str], Iterator[tuple[dict, str, frozenset[str]]]]


def _rank_probes(rule: ChoiceRule, p: Profile) -> _Probes:
    """Every single-criterion upward move of the target: each criterion, each
    step count that keeps it on the ballot."""

    def probes(target: str):
        j = p.index(target)
        for i in range(p.n):
            for steps in range(1, int(p.ranks[i, j]) + 1):
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
# one checker per condition
# ---------------------------------------------------------------------------

def _check_h(choose: _Memo, family: Iterable[frozenset[str]]) -> Counterexample | None:
    full = choose()
    for sub in family:
        kept = full & sub
        if not kept:
            continue
        there = choose(sub)
        if not kept <= there:
            return Counterexample(
                axiom="H",
                kind="subset",
                subsets=(sub,),
                observed=(("choice_full", full), ("choice_subset", there)),
                description=(
                    f"choice {_fmt_set(full)} meets {_fmt_set(sub)} in {_fmt_set(kept)}, "
                    f"but the subset's choice is {_fmt_set(there)}"
                ),
            )
    return None


def _check_c(choose: _Memo, family: Iterable[frozenset[str]]) -> Counterexample | None:
    """Pairs of the family that cover the universe, in family order.  Pairs
    that contain the universe itself can never violate C."""
    full = choose()
    for left, right in itertools.combinations(family, 2):
        if left | right != choose.universe:
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


def _check_o(choose: _Memo, family: Iterable[frozenset[str]]) -> Counterexample | None:
    full = choose()
    for sub in family:
        if not full <= sub:
            continue
        there = choose(sub)
        if there != full:
            return Counterexample(
                axiom="O",
                kind="subset",
                subsets=(sub,),
                observed=(("choice_full", full), ("choice_subset", there)),
                description=(
                    f"{_fmt_set(sub)} keeps every chosen alternative of {_fmt_set(full)} "
                    f"yet chooses {_fmt_set(there)}"
                ),
            )
    return None


def _check_aca(choose: _Memo, family: Iterable[frozenset[str]]) -> Counterexample | None:
    full = choose()
    for sub in family:
        kept = full & sub
        if not kept:
            continue
        there = choose(sub)
        if there != kept:
            return Counterexample(
                axiom="ACA",
                kind="subset",
                subsets=(sub,),
                observed=(("choice_full", full), ("choice_subset", there)),
                description=(
                    f"{_fmt_set(sub)} meets the choice {_fmt_set(full)} in {_fmt_set(kept)} "
                    f"but chooses {_fmt_set(there)}"
                ),
            )
    return None


def _check_mon1(choose: _Memo, probes: _Probes) -> Counterexample | None:
    full = choose()
    for a in sorted(full):
        for fields, move, after in probes(a):
            if a not in after:
                return Counterexample(
                    axiom="MON1",
                    **fields,
                    observed=(("choice_before", full), ("choice_after", after)),
                    description=(
                        f"{a} is chosen, but {move} drops it: choice "
                        f"becomes {_fmt_set(after)}"
                    ),
                )
    return None


def _check_mon2(choose: _Memo, *, strict: bool) -> Counterexample | None:
    full = choose()
    universe = choose.universe
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


def _check_sm(choose: _Memo, probes: _Probes) -> Counterexample | None:
    full = choose()
    for c in choose.labels:
        allowed = (full, frozenset({c}), full | {c})
        for fields, move, after in probes(c):
            if after not in allowed:
                return Counterexample(
                    axiom="SM",
                    **fields,
                    observed=(("choice_before", full), ("choice_after", after)),
                    description=(
                        f"{move} turns the choice from {_fmt_set(full)} "
                        f"into {_fmt_set(after)}, which is neither the old choice, "
                        f"{{{c}}}, nor their union"
                    ),
                )
    return None


def _check_nc(choose: _Memo, g: GradeTable) -> Counterexample | None:
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


_SUBSET_CHECKS = {"H": _check_h, "C": _check_c, "O": _check_o, "ACA": _check_aca}
_PROBE_CHECKS = {"MON1": _check_mon1, "SM": _check_sm}


def _check(
    rule: ChoiceRule, data, axiom: str, family: _Family, mon2_strict: bool
) -> Verdict:
    choose = _Memo(lambda subset: rule.choose(data, subset), data.labels)
    if axiom in _SUBSET_CHECKS:
        witness = _SUBSET_CHECKS[axiom](choose, family(choose.labels))
    elif axiom in _PROBE_CHECKS:
        witness = _PROBE_CHECKS[axiom](choose, _probes(rule, data, axiom))
    elif axiom == "MON2":
        witness = _check_mon2(choose, strict=mon2_strict)
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

def _order_tuples(count: int, n: int, orbits: bool) -> Iterator[tuple[int, ...]]:
    """Index tuples into the ``count`` permutations, lexicographically: all
    of them, or with ``orbits`` only the non-decreasing (sorted) ones."""
    if orbits:
        return itertools.combinations_with_replacement(range(count), n)
    return itertools.product(range(count), repeat=n)


def all_profiles(
    m: int, n: int, labels: Sequence[str] | None = None, *, orbits: bool = False
) -> Iterator[Profile]:
    """Every profile of n linear orders over m alternatives, lexicographically
    by the tuple of orders.  There are (m!)^n of them — keep m and n small.

    With ``orbits`` only the sorted order tuples are yielded, in the same
    order: one profile per orbit under permuting the criteria, C(m!+n-1, n)
    of them.
    """
    labels = _check_labels(default_labels(m) if labels is None else labels)
    if n < 1:
        raise ValueError("profile needs at least one criterion")
    # one rank row per permutation: rows[k, j] is labels[j]'s place in it
    rows = np.array(
        [np.argsort(perm) for perm in itertools.permutations(range(len(labels)))],
        dtype=np.int32,
    )
    for tup in _order_tuples(len(rows), n, orbits):
        yield Profile.from_ranks(labels, rows[list(tup)])


def enumerate_majority_relations(
    m: int, labels: Sequence[str] | None = None
) -> Iterator[MajorityRelation]:
    """Every asymmetric relation over m alternatives (each pair independently
    tied, won, or lost): 3^(m(m-1)/2) relations, deterministic order."""
    labels = tuple(sorted(default_labels(m) if labels is None else labels))
    pairs = list(itertools.combinations(range(m), 2))
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        beats = np.zeros((m, m), dtype=bool)
        for (i, j), s in zip(pairs, states):
            if s == 1:
                beats[i, j] = True
            elif s == 2:
                beats[j, i] = True
        yield MajorityRelation(labels, beats)


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
        if not self.m_values or not self.n_values:
            raise ValueError("m and n ranges must be non-empty")
        if any(m < 1 for m in self.m_values) or any(n < 1 for n in self.n_values):
            raise ValueError("m and n must be positive")


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


def _scan_cell(
    rule: ChoiceRule,
    m: int,
    n: int,
    check: Callable[[Profile], Counterexample | None],
    budget: int,
) -> SearchResult:
    """Check the (m, n) profiles in lexicographic order until one fails or
    ``budget`` of them are covered.

    For a rule that declares itself ``anonymous`` (blind to the order of the
    criteria) only the sorted order tuples are checked.  A profile fails
    exactly when its sorted rearrangement does, and that rearrangement comes
    no later, so the first failing profile is itself sorted: the witness is
    the one the full scan finds, and every skipped profile is covered by its
    orbit.  ``examined`` counts profiles covered (the failing profile's
    position plus one, or the whole cell, or ``budget`` when cut), as the
    full scan would; ``evaluated`` counts profiles checked.
    """
    count = math.factorial(m)
    orbits = getattr(rule, "anonymous", False)
    evaluated = 0
    for p, tup in zip(all_profiles(m, n, orbits=orbits), _order_tuples(count, n, orbits)):
        position = functools.reduce(lambda acc, i: acc * count + i, tup, 0)
        if position >= budget:
            return SearchResult("budget-exceeded", budget, evaluated=evaluated)
        evaluated += 1
        witness = check(p)
        if witness is not None:
            return SearchResult("found", position + 1, witness, p, evaluated)
    return SearchResult("exhausted", count**n, evaluated=evaluated)


def search_counterexample(
    rule: ChoiceRule, axiom: str, cfg: SearchConfig = SearchConfig()
) -> SearchResult:
    """Hunt for a profile on which ``rule`` violates ``axiom``.

    Exhaustive mode scans profiles in a fixed lexicographic order (m
    ascending, then n, then the order tuple), so results are reproducible;
    random mode derives every draw from the configured seed.  The first
    profile with a violation is returned along with the witness.

    For an ``anonymous`` rule the exhaustive scan checks one profile per
    orbit under permuting the criteria and random mode skips a draw whose
    orbit already passed, with the outcome a check of every profile gives.
    The budget caps ``examined``, the profiles covered.
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
    orbits = getattr(rule, "anonymous", False)
    passed: set[tuple[tuple[str, ...], ...]] = set()  # sorted orders of passing draws
    for _ in range(cfg.samples):
        if examined >= cfg.budget:
            return SearchResult("budget-exceeded", examined, evaluated=evaluated)
        m = rng.choice(cfg.m_values)
        n = rng.choice(cfg.n_values)
        labels = default_labels(m)
        orders = []
        for _ in range(n):
            ballot = list(labels)
            rng.shuffle(ballot)
            orders.append(tuple(ballot))
        examined += 1
        orbit = tuple(sorted(orders))
        if orbit in passed:
            continue
        p = Profile(orders)
        evaluated += 1
        witness = check(p)
        if witness is not None:
            return SearchResult("found", examined, witness, p, evaluated)
        if orbits:
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
    so there is deliberately no random mode here.  An ``anonymous`` rule is
    checked on one profile per orbit under permuting the criteria.
    """
    axiom = normalize_axiom(axiom)
    if budget < 1:
        raise ValueError("budget must be positive")
    total = math.factorial(m) ** n
    if total > budget:
        return VerificationOutcome("budget-exceeded", 0)
    cell = _scan_cell(rule, m, n, _checker(rule, axiom, "all", mon2_strict), total)
    status = "refuted" if cell.found else "verified"
    return VerificationOutcome(status, cell.examined, cell.witness, cell.profile, cell.evaluated)
