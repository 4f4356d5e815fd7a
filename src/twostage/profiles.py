"""Preference profiles over a finite set of alternatives.

A profile is a list of strict linear orders ("criteria" or "voters"), each
ranking every alternative of a common universe exactly once, best first.
Everything else in the package is computed from profiles: positional score
vectors, the pairwise majority relation, tournament (support) matrices, and
grade tables for threshold-style rules.

Alternatives are plain string labels.  The universe is kept sorted so that
iteration order, printed output and generated structures are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "ProfileFormatError",
    "Profile",
    "MajorityRelation",
    "TournamentMatrix",
    "GradeTable",
    "RankImprovement",
    "parse_profile",
    "format_profile",
    "parse_grade_table",
    "format_grade_table",
    "parse_majority_matrix",
    "format_majority_matrix",
    "INPUT_PARSERS",
    "contract",
    "first_places",
    "last_places",
    "top_q_places",
    "borda_scores",
    "first_place_counts",
    "last_place_counts",
    "top_q_counts",
    "borda_counts",
    "majority_relation",
    "tournament_matrix",
    "grade_table",
    "upper_contour_sets",
    "lower_contour_sets",
    "improve",
    "perturb_majority",
    "default_labels",
]


class ProfileFormatError(ValueError):
    """Malformed profile / grade-table / majority-matrix text.

    Carries the 1-based line number of the offending input line when one can
    be identified.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def default_labels(m: int) -> tuple[str, ...]:
    """Deterministic label set for generated universes.

    Single letters ``a`` .. ``z`` while they last, zero-padded ``x0001``
    style beyond that (padding keeps lexicographic order equal to numeric
    order, which the rest of the package relies on).
    """
    if m <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:m])
    width = len(str(m))
    return tuple(f"x{i:0{width}d}" for i in range(1, m + 1))


def _check_labels(labels: Iterable[str]) -> tuple[str, ...]:
    out = tuple(labels)
    if not out:
        raise ValueError("universe must contain at least one alternative")
    seen = set()
    for lab in out:
        if not lab or any(ch.isspace() for ch in lab):
            raise ValueError(f"bad alternative label {lab!r}")
        if lab in seen:
            raise ValueError(f"duplicate alternative label {lab!r}")
        seen.add(lab)
    return tuple(sorted(out))


class _Universe:
    """What every input kind shares: the sorted alternative ``labels`` and
    each label's position in them."""

    __slots__ = ("labels", "_pos")

    def _set_labels(self, labels: tuple[str, ...]) -> None:
        self.labels = labels
        self._pos = {lab: j for j, lab in enumerate(labels)}

    @property
    def m(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise ValueError(f"unknown alternative {label!r}") from None

    def _positions(self, subset: Iterable[str]) -> list[int]:
        """The positions of a non-empty subset's labels, ascending."""
        idx = sorted({self.index(lab) for lab in subset})
        if not idx:
            raise ValueError("subset of alternatives must be non-empty")
        return idx


class Profile(_Universe):
    """``n`` strict linear orders over a common universe of ``m`` labels.

    The state is the sorted universe ``labels`` plus a rank matrix of shape
    ``(n, m)`` aligned with it: ``ranks[i, j]`` is the 0-based position of
    ``labels[j]`` under criterion ``i`` (0 = best, m-1 = worst).
    ``orders[i]``, criterion ``i``'s alternatives best first, is derived
    from the ranks on each access.
    """

    __slots__ = ("ranks",)

    def __init__(self, orders: Sequence[Sequence[str]], labels: Sequence[str] | None = None):
        orders = tuple(tuple(o) for o in orders)
        if not orders:
            raise ValueError("profile needs at least one criterion")
        if labels is None:
            labels = orders[0]
        labels = _check_labels(labels)
        self._set_labels(labels)
        m = len(labels)
        ranks = np.empty((len(orders), m), dtype=np.int32)
        for i, order in enumerate(orders):
            if len(order) != m or set(order) != set(labels):
                raise ValueError(
                    f"criterion {i + 1} is not a permutation of the universe"
                )
            for pos, lab in enumerate(order):
                ranks[i, self._pos[lab]] = pos
        ranks.setflags(write=False)
        self.ranks: np.ndarray = ranks

    @classmethod
    def from_ranks(cls, labels: Sequence[str], ranks: np.ndarray) -> "Profile":
        """Fast constructor from a ready rank matrix (bench-scale path).

        ``ranks[i, j]`` must be the position of ``labels[j]`` under criterion
        ``i``; every row must be a permutation of ``0..m-1``.  Labels must
        already be sorted.
        """
        self = object.__new__(cls)
        labels = tuple(labels)
        ranks = np.ascontiguousarray(ranks, dtype=np.int32)
        if ranks.ndim != 2 or len(labels) != ranks.shape[1]:
            raise ValueError("rank matrix does not match label count")
        ranks.setflags(write=False)
        self._set_labels(labels)
        self.ranks = ranks
        return self

    # -- basic container behaviour ------------------------------------

    @property
    def orders(self) -> tuple[tuple[str, ...], ...]:
        """Each criterion's alternatives, best first (derived from ``ranks``)."""
        labels = self.labels
        return tuple(
            tuple(labels[j] for j in row)
            for row in np.argsort(self.ranks, axis=1, kind="stable")
        )

    @property
    def n(self) -> int:
        return self.ranks.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return self.labels == other.labels and self.ranks.tobytes() == other.ranks.tobytes()

    def __hash__(self) -> int:
        return hash((self.labels, self.ranks.tobytes()))

    def __repr__(self) -> str:
        return f"Profile(m={self.m}, n={self.n}, labels={self.labels!r})"

    def rank_of(self, label: str, criterion: int) -> int:
        """0-based position of ``label`` under 0-based ``criterion``."""
        return int(self.ranks[criterion, self.index(label)])


@dataclass(frozen=True)
class RankImprovement:
    """Move ``target`` up by ``steps`` positions in one criterion.

    ``criterion`` is 0-based.  All pairwise comparisons not involving the
    target are left untouched, which is exactly what moving one alternative
    up a linear order does.
    """

    target: str
    criterion: int
    steps: int


class MajorityRelation(_Universe):
    """Asymmetric strict-majority relation over a sorted universe.

    ``matrix[x, y]`` is True when a strict majority of criteria rank ``x``
    above ``y``.  Ties (even splits) leave both directions False, so the
    relation may be incomplete even though it is always asymmetric.
    """

    __slots__ = ("matrix",)

    def __init__(self, labels: Sequence[str], matrix: np.ndarray):
        labels = _check_labels(labels)
        matrix = np.asarray(matrix, dtype=bool)
        m = len(labels)
        if matrix.shape != (m, m):
            raise ValueError("majority matrix shape does not match universe")
        if matrix.diagonal().any() or (matrix & matrix.T).any():
            raise ValueError("majority relation must be asymmetric and irreflexive")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self._set_labels(labels)
        self.matrix = matrix

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], matrix: np.ndarray) -> "MajorityRelation":
        """Wrap a freshly computed, provably asymmetric bool matrix without
        the validation passes (they stream the whole matrix, which dominates
        the cost for thousands of alternatives)."""
        self = object.__new__(cls)
        matrix.setflags(write=False)
        self._set_labels(labels)
        self.matrix = matrix
        return self

    def beats(self, x: str, y: str) -> bool:
        return bool(self.matrix[self.index(x), self.index(y)])

    def edges(self) -> tuple[tuple[str, str], ...]:
        xs, ys = np.nonzero(self.matrix)
        return tuple((self.labels[i], self.labels[j]) for i, j in zip(xs, ys))

    def restrict(self, subset: Iterable[str]) -> "MajorityRelation":
        idx = self._positions(subset)
        return MajorityRelation([self.labels[j] for j in idx], self.matrix[np.ix_(idx, idx)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MajorityRelation):
            return NotImplemented
        return self.labels == other.labels and bool(
            np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"MajorityRelation(m={self.m}, edges={len(self.edges())})"


class TournamentMatrix(_Universe):
    """Pairwise support counts: ``counts[x, y]`` criteria ranking x above y.

    For a profile of strict linear orders ``counts[x, y] + counts[y, x]``
    equals the number of criteria for every pair x != y.  Counts computed
    from a profile keep the dtype they were summed in (uint8 below 255
    criteria, uint16 below 65535, int64 beyond); counts a caller supplies,
    and ``restrict``, go through validation and are stored as int32.
    """

    __slots__ = ("counts", "voters")

    def __init__(self, labels: Sequence[str], counts: np.ndarray, voters: int):
        labels = _check_labels(labels)
        counts = np.asarray(counts)
        m = len(labels)
        if counts.shape != (m, m):
            raise ValueError("support matrix shape does not match universe")
        if (counts.diagonal() != 0).any():
            raise ValueError("support matrix diagonal must be zero")
        if (counts < 0).any():
            raise ValueError("support counts must be non-negative")
        check = counts.astype(np.int64) + counts.T
        np.fill_diagonal(check, voters)
        if voters <= 0 or (check != voters).any():
            raise ValueError("support counts of opposite pairs must sum to the criterion count")
        counts = counts.astype(np.int32)
        counts.setflags(write=False)
        self._set_labels(labels)
        self.counts = counts
        self.voters = int(voters)

    @classmethod
    def _trusted(
        cls, labels: tuple[str, ...], counts: np.ndarray, voters: int
    ) -> "TournamentMatrix":
        """Wrap freshly computed support counts without the validation pass."""
        self = object.__new__(cls)
        counts.setflags(write=False)
        self._set_labels(labels)
        self.counts = counts
        self.voters = int(voters)
        return self

    def support(self, x: str, y: str) -> int:
        return int(self.counts[self.index(x), self.index(y)])

    def majority(self) -> MajorityRelation:
        return MajorityRelation(self.labels, self.counts > self.counts.T)

    def restrict(self, subset: Iterable[str]) -> "TournamentMatrix":
        idx = self._positions(subset)
        return TournamentMatrix(
            [self.labels[j] for j in idx], self.counts[np.ix_(idx, idx)], self.voters
        )

    def __repr__(self) -> str:
        return f"TournamentMatrix(m={self.m}, voters={self.voters})"


class GradeTable(_Universe):
    """Integer grades per (criterion, alternative); larger is better.

    ``grades[i, j]`` is the grade criterion ``i`` assigns to ``labels[j]``.
    Tables derived from a profile are dense: each criterion uses each of the
    grades ``1..m`` exactly once (best = m).  Directly constructed tables may
    repeat grades; threshold-style rules then work over the sorted set of
    distinct values that actually occur.
    """

    __slots__ = ("grades",)

    def __init__(self, labels: Sequence[str], grades: np.ndarray):
        labels = _check_labels(labels)
        grades = np.asarray(grades, dtype=np.int64)
        if grades.ndim != 2 or grades.shape[1] != len(labels):
            raise ValueError("grade matrix must be (criteria x alternatives)")
        if grades.shape[0] == 0:
            raise ValueError("grade table needs at least one criterion")
        grades = grades.copy()
        grades.setflags(write=False)
        self._set_labels(labels)
        self.grades = grades

    @property
    def n(self) -> int:
        return int(self.grades.shape[0])

    def grade(self, label: str, criterion: int) -> int:
        return int(self.grades[criterion, self.index(label)])

    def column(self, label: str) -> tuple[int, ...]:
        return tuple(int(g) for g in self.grades[:, self.index(label)])

    def scale(self) -> tuple[int, ...]:
        """Sorted distinct grade values occurring in the table."""
        return tuple(int(v) for v in np.unique(self.grades))

    def restrict(self, subset: Iterable[str]) -> "GradeTable":
        idx = self._positions(subset)
        return GradeTable([self.labels[j] for j in idx], self.grades[:, idx])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradeTable):
            return NotImplemented
        return self.labels == other.labels and bool(
            np.array_equal(self.grades, other.grades)
        )

    def __repr__(self) -> str:
        return f"GradeTable(m={self.m}, n={self.n})"


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def _fmt_set(s: Iterable[str]) -> str:
    """A set of labels, sorted and brace-delimited: ``{a, b}`` or ``{}``."""
    return "{" + ", ".join(sorted(s)) + "}"


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped content) for non-empty,
    non-comment lines."""
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield no, stripped


def parse_profile(text: str) -> Profile:
    """Parse the plain-text profile format.

    Line 1 names the universe (labels separated by whitespace); every further
    non-comment line is one criterion's order, best alternative first.
    ``#`` starts a comment.  Raises :class:`ProfileFormatError` with a line
    number on duplicate labels, non-permutation rows, or an empty file.
    """
    lines = list(_data_lines(text))
    if not lines:
        raise ProfileFormatError("empty profile: no universe line")
    head_no, head = lines[0]
    labels = head.split()
    seen: set[str] = set()
    for lab in labels:
        if lab in seen:
            raise ProfileFormatError(f"duplicate alternative label {lab!r}", line=head_no)
        seen.add(lab)
    if len(lines) == 1:
        raise ProfileFormatError("profile has no criterion lines", line=head_no)
    universe = set(labels)
    orders = []
    for no, content in lines[1:]:
        row = tuple(content.split())
        if len(row) != len(labels) or set(row) != universe or len(set(row)) != len(row):
            raise ProfileFormatError(
                "criterion line is not a permutation of the universe", line=no
            )
        orders.append(row)
    return Profile(orders, labels=labels)


def format_profile(p: Profile) -> str:
    """Inverse of :func:`parse_profile` (universe line + one line per criterion)."""
    out = [" ".join(p.labels)]
    out.extend(" ".join(order) for order in p.orders)
    return "\n".join(out) + "\n"


def parse_grade_table(text: str) -> GradeTable:
    """Parse a grade table: universe line, then one integer row per criterion
    aligned with the universe line's label order."""
    lines = list(_data_lines(text))
    if not lines:
        raise ProfileFormatError("empty grade table: no universe line")
    head_no, head = lines[0]
    labels = head.split()
    if len(set(labels)) != len(labels):
        raise ProfileFormatError("duplicate alternative label", line=head_no)
    if len(lines) == 1:
        raise ProfileFormatError("grade table has no criterion lines", line=head_no)
    rows = []
    for no, content in lines[1:]:
        parts = content.split()
        if len(parts) != len(labels):
            raise ProfileFormatError(
                f"expected {len(labels)} grades, got {len(parts)}", line=no
            )
        try:
            rows.append([int(v) for v in parts])
        except ValueError:
            raise ProfileFormatError("grades must be integers", line=no) from None
    # columns follow the order labels were named on line 1; realign to sorted
    order = np.argsort(np.array(labels))
    grades = np.array(rows, dtype=np.int64)[:, order]
    return GradeTable(sorted(labels), grades)


def format_grade_table(g: GradeTable) -> str:
    out = [" ".join(g.labels)]
    for i in range(g.n):
        out.append(" ".join(str(int(v)) for v in g.grades[i]))
    return "\n".join(out) + "\n"


def parse_majority_matrix(text: str) -> MajorityRelation:
    """Parse a 0/1 majority matrix.

    Line 1 names the universe; row *i* then gives, in the same label order,
    one token per column: ``1`` if the row alternative beats the column
    alternative, ``0`` if not, and ``-`` allowed on the diagonal.  A ``1``
    on the diagonal or in both directions of a pair raises
    :class:`ProfileFormatError` with its line number.
    """
    lines = list(_data_lines(text))
    if not lines:
        raise ProfileFormatError("empty majority matrix: no universe line")
    head_no, head = lines[0]
    labels = head.split()
    if len(set(labels)) != len(labels):
        raise ProfileFormatError("duplicate alternative label", line=head_no)
    m = len(labels)
    if len(lines) != m + 1:
        raise ProfileFormatError(
            f"expected {m} matrix rows after the universe line, got {len(lines) - 1}"
        )
    mat = np.zeros((m, m), dtype=bool)
    for r, (no, content) in enumerate(lines[1:]):
        parts = content.split()
        if len(parts) != m:
            raise ProfileFormatError(f"expected {m} entries, got {len(parts)}", line=no)
        for c, tok in enumerate(parts):
            if tok == "-":
                if r != c:
                    raise ProfileFormatError("'-' allowed on the diagonal only", line=no)
                continue
            if tok not in ("0", "1"):
                raise ProfileFormatError(f"bad matrix entry {tok!r}", line=no)
            if tok == "1":
                if r == c:
                    raise ProfileFormatError(f"{labels[r]} cannot beat itself", line=no)
                if mat[c, r]:
                    raise ProfileFormatError(
                        f"{labels[r]} and {labels[c]} cannot beat each other", line=no
                    )
                mat[r, c] = True
    # realign rows/cols from the order labels were named in to sorted order
    order = np.argsort(np.array(labels))
    mat = mat[np.ix_(order, order)]
    return MajorityRelation(sorted(labels), mat)


def format_majority_matrix(mu: MajorityRelation) -> str:
    out = [" ".join(mu.labels)]
    for i in range(mu.m):
        row = [
            "-" if i == j else ("1" if mu.matrix[i, j] else "0")
            for j in range(mu.m)
        ]
        out.append(" ".join(row))
    return "\n".join(out) + "\n"


# the text parser of each input kind, keyed as the CLI flags and fixtures name it
INPUT_PARSERS: dict[str, Callable[[str], object]] = {
    "profile": parse_profile,
    "grades": parse_grade_table,
    "majority": parse_majority_matrix,
}


# ---------------------------------------------------------------------------
# derived structures
# ---------------------------------------------------------------------------

def contract(p: Profile, subset: Iterable[str]) -> Profile:
    """Restriction of every order to ``subset`` (relative order preserved)."""
    idx = p._positions(subset)
    if len(idx) == p.m:
        return p
    sub_ranks = p.ranks[:, idx]
    # re-rank each row: double argsort turns arbitrary scores into dense ranks
    order = np.argsort(sub_ranks, axis=1, kind="stable")
    new_ranks = np.empty_like(sub_ranks)
    n, m = sub_ranks.shape
    rows = np.arange(n)[:, None]
    new_ranks[rows, order] = np.arange(m)[None, :]
    return Profile.from_ranks([p.labels[j] for j in idx], new_ranks)


def first_places(p: Profile) -> np.ndarray:
    """Per alternative (aligned with ``p.labels``), the criteria ranking it first."""
    return (p.ranks == 0).sum(axis=0)


def last_places(p: Profile) -> np.ndarray:
    """Per alternative, the criteria ranking it last."""
    return (p.ranks == p.m - 1).sum(axis=0)


def top_q_places(p: Profile, q: int) -> np.ndarray:
    """Per alternative, the criteria placing it within their best ``q``."""
    return (p.ranks < q).sum(axis=0)


def borda_scores(p: Profile) -> np.ndarray:
    """Per alternative, the sum over criteria of (m - 1 - rank): m-1 points
    for a best place, 0 for a worst place."""
    return (p.m - 1 - p.ranks).sum(axis=0)


def _by_label(p: Profile, scores: np.ndarray) -> dict[str, int]:
    return {lab: int(s) for lab, s in zip(p.labels, scores)}


def first_place_counts(p: Profile) -> dict[str, int]:
    return _by_label(p, first_places(p))


def last_place_counts(p: Profile) -> dict[str, int]:
    return _by_label(p, last_places(p))


def top_q_counts(p: Profile, q: int) -> dict[str, int]:
    if q < 1:
        raise ValueError("q must be at least 1")
    return _by_label(p, top_q_places(p, q))


def borda_counts(p: Profile) -> dict[str, int]:
    return _by_label(p, borda_scores(p))


def _pairwise_support(p: Profile) -> np.ndarray:
    """(m, m) matrix of S(x, y) = how many criteria rank x above y.

    Accumulates column panels sized to stay cache-resident across the
    per-criterion passes; one streaming pass over the accumulator would
    otherwise dominate the cost for large alternative counts.
    """
    m, n = p.m, p.n
    if n < 255:
        acc_dtype = np.uint8
    elif n < 65535:
        acc_dtype = np.uint16
    else:
        acc_dtype = np.int64
    counts = np.empty((m, m), dtype=acc_dtype)
    width = max(8, min(m, (1 << 20) // (2 * m)))
    buf = np.empty((width, m), dtype=bool)
    panel = np.empty((width, m), dtype=acc_dtype)
    for r0 in range(0, m, width):
        r1 = min(m, r0 + width)
        w = r1 - r0
        panel[:w] = 0
        for i in range(n):
            row = p.ranks[i]
            np.less(row[r0:r1, None], row[None, :], out=buf[:w])
            panel[:w] += buf[:w]
        counts[r0:r1] = panel[:w]
    return counts


def tournament_matrix(p: Profile) -> TournamentMatrix:
    return TournamentMatrix._trusted(p.labels, _pairwise_support(p), p.n)


def majority_relation(p: Profile) -> MajorityRelation:
    # For linear orders S(x,y) + S(y,x) = n, so the strict-majority test
    # reduces to a scalar threshold: no transpose traversal needed.
    counts = _pairwise_support(p)
    return MajorityRelation._trusted(p.labels, counts > (p.n // 2))


def grade_table(p: Profile) -> GradeTable:
    """Positional grades: best place -> grade m, worst place -> grade 1."""
    return GradeTable(p.labels, p.m - p.ranks)


def upper_contour_sets(mu: MajorityRelation) -> dict[str, frozenset[str]]:
    """``D(x)``: the alternatives that majority-beat ``x``."""
    out = {}
    for j, lab in enumerate(mu.labels):
        dominators = np.nonzero(mu.matrix[:, j])[0]
        out[lab] = frozenset(mu.labels[i] for i in dominators)
    return out


def lower_contour_sets(mu: MajorityRelation) -> dict[str, frozenset[str]]:
    """``L(x)``: the alternatives that ``x`` majority-beats."""
    out = {}
    for i, lab in enumerate(mu.labels):
        beaten = np.nonzero(mu.matrix[i, :])[0]
        out[lab] = frozenset(mu.labels[j] for j in beaten)
    return out


def improve(p: Profile, change: RankImprovement) -> Profile:
    """Move one alternative up one criterion's order by a positive number of
    steps; every comparison not involving the target is unchanged."""
    if change.steps <= 0:
        raise ValueError("steps must be positive (a zero-step move is not an improvement)")
    if not (0 <= change.criterion < p.n):
        raise ValueError(f"criterion index {change.criterion} out of range")
    j = p.index(change.target)
    pos = int(p.ranks[change.criterion, j])
    if change.steps > pos:
        raise ValueError(
            f"cannot move {change.target!r} up {change.steps} steps "
            f"from position {pos}"
        )
    top = pos - change.steps
    ranks = p.ranks.copy()
    row = ranks[change.criterion]
    row[(row >= top) & (row < pos)] += 1
    row[j] = top
    return Profile.from_ranks(p.labels, ranks)


def perturb_majority(mu: MajorityRelation, winner: str, loser: str) -> MajorityRelation:
    """Reorient one pair: set ``winner`` over ``loser`` (clearing the reverse
    edge if present)."""
    i, j = mu.index(winner), mu.index(loser)
    if i == j:
        raise ValueError("cannot perturb an alternative against itself")
    mat = mu.matrix.copy()
    mat[i, j] = True
    mat[j, i] = False
    return MajorityRelation(mu.labels, mat)
