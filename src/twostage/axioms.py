"""Normative-condition checkers and a bounded counterexample search.

Eight conditions are checked against a choice rule (a single procedure or a
two-stage composition — anything exposing ``choose(profile, subset)``):

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
probe generator: rank improvements on a profile, edge flips on a relation.
Checks at the majority-relation level skip ``NC`` (no grade information
exists there).  Relations
are certified realizable by an explicit profile construction
(:func:`realizing_profile`).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, Sequence

from .profiles import (
    MajorityRelation,
    Profile,
    RankImprovement,
    _fmt_set,
    grade_table,
    improve,
    majority_relation,
    perturb_majority,
)
from .procedures import threshold_order

__all__ = [
    "AXIOMS",
    "normalize_axiom",
    "Verdict",
    "Counterexample",
    "check_axiom",
    "check_axiom_mu",
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
    def choose(self, p: Profile, subset: Iterable[str] | None = None) -> frozenset[str]: ...


class MuChoiceRule(Protocol):
    def choose_mu(
        self, mu: MajorityRelation, subset: Iterable[str] | None = None
    ) -> frozenset[str]: ...


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


def _edge_probes(rule: MuChoiceRule, mu: MajorityRelation) -> _Probes:
    """Every edge flip that makes the target beat an alternative it did not
    beat."""

    def probes(target: str):
        for other in mu.labels:
            if other != target and not mu.beats(target, other):
                yield (
                    {"kind": "edge-flip", "edge": (target, other)},
                    f"making {target} beat {other}",
                    rule.choose_mu(perturb_majority(mu, target, other)),
                )

    return probes


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


def _check_nc(choose: _Memo, p: Profile) -> Counterexample | None:
    full = choose()
    order = threshold_order(grade_table(p))
    best = order[0]
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


def _verdict(
    axiom: str,
    choose: _Memo,
    family: _Family,
    probes: _Probes,
    mon2_strict: bool,
    p: Profile | None = None,
) -> Verdict:
    if axiom in _SUBSET_CHECKS:
        witness = _SUBSET_CHECKS[axiom](choose, family(choose.labels))
    elif axiom in _PROBE_CHECKS:
        witness = _PROBE_CHECKS[axiom](choose, probes)
    elif axiom == "MON2":
        witness = _check_mon2(choose, strict=mon2_strict)
    else:
        witness = _check_nc(choose, p)
    if witness is not None:
        return Verdict(axiom, False, witness)
    detail = ""
    if axiom == "MON2" and len(choose()) <= 1:
        detail = "vacuous: fewer than two alternatives chosen"
    return Verdict(axiom, True, None, detail)


def _check_profile(
    rule: ChoiceRule, p: Profile, axiom: str, family: _Family, mon2_strict: bool
) -> Verdict:
    choose = _Memo(lambda subset: rule.choose(p, subset), p.labels)
    return _verdict(axiom, choose, family, _rank_probes(rule, p), mon2_strict, p)


def check_axiom(
    rule: ChoiceRule,
    p: Profile,
    axiom: str,
    *,
    mon2_strict: bool = False,
) -> Verdict:
    """Check one condition for ``rule`` on the universe of ``p``.

    Returns the first violation in a deterministic scan order (subsets by
    size then lexicographically; improvements by alternative, criterion,
    step count).  ``mon2_strict=True`` demands that both members of a chosen
    pair survive the other's removal instead of at least one.
    """
    return _check_profile(rule, p, normalize_axiom(axiom), _proper_subsets, mon2_strict)


def check_axiom_mu(
    rule: MuChoiceRule,
    mu: MajorityRelation,
    axiom: str,
    *,
    mon2_strict: bool = False,
) -> Verdict:
    """Check one condition at the majority-relation level.

    Improvements become edge flips: strengthening a against x means making
    a beat x.  ``NC`` needs grades, which a relation does not carry, so it
    comes back holding with a not-applicable note.
    """
    axiom = normalize_axiom(axiom)
    if axiom == "NC":
        return Verdict(axiom, True, None, "not-applicable: no grade information at the majority level")
    choose = _Memo(lambda subset: rule.choose_mu(mu, subset), mu.labels)
    return _verdict(axiom, choose, _proper_subsets, _edge_probes(rule, mu), mon2_strict)


# ---------------------------------------------------------------------------
# enumeration and realizability
# ---------------------------------------------------------------------------

def all_profiles(m: int, n: int, labels: Sequence[str] | None = None) -> Iterator[Profile]:
    """Every profile of n linear orders over m alternatives, lexicographically
    by the tuple of orders.  There are (m!)^n of them — keep m and n small."""
    if labels is None:
        from .profiles import default_labels

        labels = default_labels(m)
    perms = list(itertools.permutations(sorted(labels)))
    for orders in itertools.product(perms, repeat=n):
        yield Profile(orders)


def enumerate_majority_relations(
    m: int, labels: Sequence[str] | None = None
) -> Iterator[MajorityRelation]:
    """Every asymmetric relation over m alternatives (each pair independently
    tied, won, or lost): 3^(m(m-1)/2) relations, deterministic order."""
    import numpy as np

    if labels is None:
        from .profiles import default_labels

        labels = default_labels(m)
    labels = tuple(sorted(labels))
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
    examined: int
    witness: Counterexample | None = None
    profile: Profile | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"


def search_counterexample(
    rule: ChoiceRule, axiom: str, cfg: SearchConfig = SearchConfig()
) -> SearchResult:
    """Hunt for a profile on which ``rule`` violates ``axiom``.

    Exhaustive mode scans profiles in a fixed lexicographic order (m
    ascending, then n, then the order tuple), so results are reproducible;
    random mode derives every draw from the configured seed.  The first
    profile with a violation is returned along with the witness.
    """
    axiom = normalize_axiom(axiom)

    def check(p: Profile) -> Counterexample | None:
        # the 'all' scan is check_axiom itself; calling it by name keeps every
        # full check visible to the traced benchmark run, which wraps it
        if cfg.subset_strategy == "all":
            return check_axiom(rule, p, axiom, mon2_strict=cfg.mon2_strict).witness
        return _check_profile(rule, p, axiom, _deletions, cfg.mon2_strict).witness

    examined = 0
    if cfg.mode == "exhaustive":
        for m in sorted(cfg.m_values):
            for n in sorted(cfg.n_values):
                for p in all_profiles(m, n):
                    if examined >= cfg.budget:
                        return SearchResult("budget-exceeded", examined)
                    examined += 1
                    witness = check(p)
                    if witness is not None:
                        return SearchResult("found", examined, witness, p)
        return SearchResult("exhausted", examined)
    rng = random.Random(cfg.seed)
    from .profiles import default_labels

    for _ in range(cfg.samples):
        if examined >= cfg.budget:
            return SearchResult("budget-exceeded", examined)
        m = rng.choice(cfg.m_values)
        n = rng.choice(cfg.n_values)
        labels = default_labels(m)
        orders = []
        for _ in range(n):
            ballot = list(labels)
            rng.shuffle(ballot)
            orders.append(tuple(ballot))
        p = Profile(orders)
        examined += 1
        witness = check(p)
        if witness is not None:
            return SearchResult("found", examined, witness, p)
    return SearchResult("exhausted", examined)


@dataclass(frozen=True)
class VerificationOutcome:
    status: str  # 'verified' | 'refuted' | 'budget-exceeded'
    checked: int
    witness: Counterexample | None = None
    profile: Profile | None = None


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
    every one of the (m!)^n profiles was checked.  Sampling cannot verify,
    so there is deliberately no random mode here.
    """
    axiom = normalize_axiom(axiom)
    total = math.factorial(m) ** n
    if total > budget:
        return VerificationOutcome("budget-exceeded", 0)
    checked = 0
    for p in all_profiles(m, n):
        verdict = check_axiom(rule, p, axiom, mon2_strict=mon2_strict)
        checked += 1
        if not verdict.holds:
            return VerificationOutcome("refuted", checked, verdict.witness, p)
    return VerificationOutcome("verified", checked)
