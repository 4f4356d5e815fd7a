"""Preference profiles over a finite set of alternatives.

A profile is a list of strict linear orders ("criteria" or "voters"), each
ranking every alternative of a common universe exactly once, best first.
Everything else in the package is computed from profiles: positional score
vectors, the pairwise majority relation, tournament (support) matrices, and
grade tables for threshold-style rules.

Alternatives are plain string labels.  The universe is kept sorted so that
iteration order, printed output and generated structures are deterministic;
a constructor takes labels in any order and aligns its array with them sorted.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
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
    if m < 1:
        raise ValueError(f"a universe needs at least one alternative, got m={m}")
    if m <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:m])
    width = len(str(m))
    return tuple(f"x{i:0{width}d}" for i in range(1, m + 1))


def _check_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """``labels`` in the order given, each a distinct non-empty string without whitespace."""
    out = tuple(labels)
    if not out:
        raise ValueError("universe must contain at least one alternative")
    seen = set()
    for lab in out:
        if not isinstance(lab, str) or not lab or any(ch.isspace() for ch in lab):
            raise ValueError(f"bad alternative label {lab!r}")
        if lab in seen:
            raise ValueError(f"duplicate alternative label {lab!r}")
        seen.add(lab)
    return out


def _int64(values, what: str) -> np.ndarray:
    """``values`` as a new int64 array.  A value that is not a whole number
    in int64's range raises rather than being truncated or wrapped."""
    array = np.asarray(values)
    if array.dtype.kind in "biuf":
        with np.errstate(invalid="ignore"):  # NaN, inf and overflow fail the test below
            ints = array.astype(np.int64)
        if (ints == array).all():
            return ints
    raise ValueError(f"{what} must be integers")


class _Universe:
    """One input value: the sorted alternative ``labels`` and one read-only
    array aligned with the labels, named by ``_field``.  Each subclass adds
    only a validating constructor and its accessors, and declares its
    ``kind`` (as the procedure registry names it) and the ``noun`` error
    messages use.

    Label order has one owner, :meth:`_aligned`: a validating constructor
    takes labels in any order, with its array aligned with them as given,
    and stores both sorted.  Because the labels are sorted, :meth:`index`
    is a binary search over them and the value keeps no label map."""

    __slots__ = ("labels",)

    kind: str
    noun: str
    _field: str
    # the label axes: the rows and the columns of a square (m, m) array, or
    # only the columns of a per-criterion (n, m) one
    _square = True
    # further state, compared by ``__eq__`` and kept by ``restrict``
    _extra: tuple[str, ...] = ()

    def _set(self, labels: Sequence[str], array: np.ndarray, *extra) -> None:
        array.setflags(write=False)
        self.labels = tuple(labels)
        setattr(self, self._field, array)
        if extra:  # skipping the loop keeps Profile.from_ranks, the hot path, cheap
            for name, value in zip(self._extra, extra):
                setattr(self, name, value)

    @classmethod
    def _trusted(cls, labels: Sequence[str], array: np.ndarray, *extra):
        """Wrap sorted labels and an array known to be valid, without the
        validation passes (they stream the whole array, which dominates the
        cost for thousands of alternatives)."""
        self = object.__new__(cls)
        self._set(labels, array, *extra)
        return self

    @classmethod
    def _aligned(cls, labels: tuple[str, ...], array: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        """``labels`` sorted, and a copy of ``array``, aligned with them as given,
        with its label axes (columns, and rows too if square) permuted to match."""
        order = sorted(range(len(labels)), key=labels.__getitem__)
        array = array[:, order]
        if cls._square:
            array = array[order]
        return tuple(labels[j] for j in order), array

    @property
    def m(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        """The position of ``label``, by binary search over the sorted labels."""
        try:
            j = bisect_left(self.labels, label)
            if self.labels[j] == label:
                return j
        except (TypeError, IndexError):  # not comparable with a string, or past the last label
            pass
        raise ValueError(f"unknown alternative {label!r}")

    def _positions(self, subset: Iterable[str]) -> list[int]:
        """The positions of a non-empty subset's labels, ascending.  A set
        or frozenset is read in one pass over ``labels``, which yields them
        in order with no lookup; when that pass finds fewer labels
        than the set holds, the label-by-label lookup below names the
        unknown one, as it does for any other iterable."""
        if isinstance(subset, (set, frozenset)):
            idx = [j for j, lab in enumerate(self.labels) if lab in subset]
            if len(idx) == len(subset) and idx:
                return idx
        idx = sorted({self.index(lab) for lab in subset})
        if not idx:
            raise ValueError("subset of alternatives must be non-empty")
        return idx

    def _array(self) -> np.ndarray:
        return getattr(self, self._field)

    def _state(self) -> tuple:
        """What ``__eq__`` compares besides the array's values."""
        return (self.kind, self.labels, *[getattr(self, name) for name in self._extra])

    def _values(self) -> bytes:
        """The array's values as bytes, whatever integer dtype holds them."""
        array = self._array()
        if array.dtype.kind in "iu":
            array = array.astype(np.int64, copy=False)
        return array.tobytes()

    def restrict(self, subset: Iterable[str]):
        """This input over the labels of ``subset``, with the values and
        dtype of the kept entries.  A principal submatrix of a valid
        relation or support matrix, or some columns of a grade table, are
        valid, so nothing is checked again.  A profile is contracted
        instead (its rows must stay permutations): see :func:`contract`.

        The whole universe returns this value itself, as :func:`contract`
        does: the array is read-only, so the two may share it.  Any other
        subset is taken with one ``take`` per kept axis (rows, then
        columns), which copies only what it keeps: at m = 2000 that costs
        less than half of a broadcast fancy index, and at m = 6 it skips
        the index arrays that one builds."""
        if self.kind == "profile":
            raise TypeError("a profile is contracted, not restricted: use contract()")
        idx = self._positions(subset)
        if len(idx) == self.m:
            return self
        array = self._array()
        if self._square:
            array = array.take(idx, 0)
        array = array.take(idx, 1)
        extra = (getattr(self, name) for name in self._extra)
        return self._trusted([self.labels[j] for j in idx], array, *extra)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Universe):
            return NotImplemented
        # with the type and labels equal, equal byte strings have equal shapes
        return self._state() == other._state() and self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self._state(), self._values()))

    def __repr__(self) -> str:
        extra = "".join(f", {name}={getattr(self, name)!r}" for name in self._extra)
        shape = self._array().shape
        return f"{type(self).__name__}(m={self.m}, {self._field}.shape={shape}{extra})"


class Profile(_Universe):
    """``n`` strict linear orders over a common universe of ``m`` labels.

    The state is the sorted universe ``labels`` plus a rank matrix of shape
    ``(n, m)`` aligned with it: ``ranks[i, j]`` is the 0-based position of
    ``labels[j]`` under criterion ``i`` (0 = best, m-1 = worst).
    ``orders[i]``, criterion ``i``'s alternatives best first, is derived
    from the ranks on each access.
    """

    __slots__ = ("ranks",)
    kind = "profile"
    noun = "a full profile"
    _field = "ranks"
    _square = False

    def __init__(self, orders: Sequence[Sequence[str]], labels: Sequence[str] | None = None):
        orders = tuple(tuple(o) for o in orders)
        if not orders:
            raise ValueError("profile needs at least one criterion")
        if labels is None:
            labels = orders[0]
        labels = _check_labels(labels)
        pos = {lab: j for j, lab in enumerate(labels)}
        m = len(labels)
        ranks = np.empty((len(orders), m), dtype=np.int32)
        for i, order in enumerate(orders):
            if len(order) != m or set(order) != set(labels):
                raise ValueError(f"criterion {i + 1} is not a permutation of the universe")
            for rank, lab in enumerate(order):
                ranks[i, pos[lab]] = rank
        self._set(*self._aligned(labels, ranks))

    @classmethod
    def from_ranks(cls, labels: Sequence[str], ranks: np.ndarray) -> "Profile":
        """Fast constructor from a ready rank matrix (bench-scale path).

        ``ranks[i, j]`` must be the position of ``labels[j]`` under criterion
        ``i``; every row must be a permutation of ``0..m-1``.  Labels must
        already be sorted: nothing here aligns them, and :meth:`index`
        searches them as sorted.
        """
        ranks = np.ascontiguousarray(ranks, dtype=np.int32)
        if ranks.ndim != 2 or len(labels) != ranks.shape[1]:
            raise ValueError("rank matrix does not match label count")
        return cls._trusted(labels, ranks)

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
    kind = "mu"
    noun = "a majority relation"
    _field = "matrix"

    def __init__(self, labels: Sequence[str], matrix: np.ndarray):
        labels = _check_labels(labels)
        matrix = np.asarray(matrix, dtype=bool)
        m = len(labels)
        if matrix.shape != (m, m):
            raise ValueError("majority matrix shape does not match universe")
        if matrix.diagonal().any() or (matrix & matrix.T).any():
            raise ValueError("majority relation must be asymmetric and irreflexive")
        self._set(*self._aligned(labels, matrix))

    def beats(self, x: str, y: str) -> bool:
        return bool(self.matrix[self.index(x), self.index(y)])

    def edges(self) -> tuple[tuple[str, str], ...]:
        xs, ys = np.nonzero(self.matrix)
        return tuple((self.labels[i], self.labels[j]) for i, j in zip(xs, ys))


class TournamentMatrix(_Universe):
    """Pairwise support counts: ``counts[x, y]`` criteria ranking x above y.

    For a profile of strict linear orders ``counts[x, y] + counts[y, x]``
    equals the number of criteria ``voters`` for every pair x != y.  Counts
    computed from a profile keep the dtype they were summed in (uint8 below
    255 criteria, uint16 below 65535, int64 beyond), and ``restrict`` keeps
    it; counts a caller supplies must be whole numbers, go through
    validation and are stored as int64.
    """

    __slots__ = ("counts", "voters")
    kind = "support"
    noun = "a support matrix"
    _field = "counts"
    _extra = ("voters",)

    def __init__(self, labels: Sequence[str], counts: np.ndarray, voters: int):
        labels = _check_labels(labels)
        counts = _int64(counts, "support counts")
        m = len(labels)
        if counts.shape != (m, m):
            raise ValueError("support matrix shape does not match universe")
        if (counts.diagonal() != 0).any():
            raise ValueError("support matrix diagonal must be zero")
        if (counts < 0).any():
            raise ValueError("support counts must be non-negative")
        check = counts + counts.T
        np.fill_diagonal(check, voters)
        if voters <= 0 or (check != voters).any():
            raise ValueError("support counts of opposite pairs must sum to the criterion count")
        self._set(*self._aligned(labels, counts), int(voters))

    def support(self, x: str, y: str) -> int:
        return int(self.counts[self.index(x), self.index(y)])

    def majority(self) -> MajorityRelation:
        """The strict-majority relation these counts give: x beats y when
        S(x, y) > voters // 2, as :func:`majority_relation` tests it.  The
        relation gets an array of its own, so the counts stay as they are."""
        return MajorityRelation._trusted(self.labels, self.counts > self.voters // 2)


class GradeTable(_Universe):
    """Integer grades per (criterion, alternative); larger is better.

    ``grades[i, j]`` is the grade criterion ``i`` assigns to ``labels[j]``.
    Tables derived from a profile are dense: each criterion uses each of the
    grades ``1..m`` exactly once (best = m).  Directly constructed tables may
    repeat grades; threshold-style rules then work over the sorted set of
    distinct values that actually occur.
    """

    __slots__ = ("grades",)
    kind = "grades"
    noun = "a grade table"
    _field = "grades"
    _square = False

    def __init__(self, labels: Sequence[str], grades: np.ndarray):
        labels = _check_labels(labels)
        grades = _int64(grades, "grades")
        if grades.ndim != 2 or grades.shape[1] != len(labels):
            raise ValueError("grade matrix must be (criteria x alternatives)")
        if grades.shape[0] == 0:
            raise ValueError("grade table needs at least one criterion")
        self._set(*self._aligned(labels, grades))

    @property
    def n(self) -> int:
        return int(self.grades.shape[0])

    def column(self, label: str) -> tuple[int, ...]:
        return tuple(int(g) for g in self.grades[:, self.index(label)])


# every input class by its kind
_KINDS: dict[str, type[_Universe]] = {cls.kind: cls for cls in _Universe.__subclasses__()}


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


def _read_universe(
    text: str, noun: str, rows: str = "criterion lines"
) -> tuple[list[str], list[tuple[int, str]]]:
    """The labels named on the universe line of ``text``, in the order
    named, and the data lines after it (1-based line number, content).
    Raises :class:`ProfileFormatError` on an empty input, a duplicate label
    (with its line number) or no lines after the universe line."""
    lines = list(_data_lines(text))
    if not lines:
        raise ProfileFormatError(f"empty {noun}: no universe line")
    head_no, head = lines[0]
    labels = head.split()
    try:
        _check_labels(labels)
    except ValueError as exc:
        raise ProfileFormatError(str(exc), line=head_no) from None
    if len(lines) == 1:
        raise ProfileFormatError(f"{noun} has no {rows}", line=head_no)
    return labels, lines[1:]


def parse_profile(text: str) -> Profile:
    """Parse the plain-text profile format.

    Line 1 names the universe (labels separated by whitespace); every further
    non-comment line is one criterion's order, best alternative first.
    ``#`` starts a comment.  Raises :class:`ProfileFormatError` with a line
    number on duplicate labels, non-permutation rows, or an empty file.
    """
    labels, body = _read_universe(text, "profile")
    universe = set(labels)
    orders = []
    for no, content in body:
        row = tuple(content.split())
        if len(row) != len(labels) or set(row) != universe or len(set(row)) != len(row):
            raise ProfileFormatError("criterion line is not a permutation of the universe", line=no)
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
    labels, body = _read_universe(text, "grade table")
    rows = []
    for no, content in body:
        parts = content.split()
        if len(parts) != len(labels):
            raise ProfileFormatError(f"expected {len(labels)} grades, got {len(parts)}", line=no)
        try:
            rows.append(np.array([int(v) for v in parts], dtype=np.int64))
        except ValueError:
            raise ProfileFormatError("grades must be integers", line=no) from None
        except OverflowError:
            raise ProfileFormatError("grades must lie within signed 64-bit range", line=no) from None
    return GradeTable(labels, np.array(rows))


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
    labels, body = _read_universe(text, "majority matrix", "matrix rows")
    m = len(labels)
    if len(body) != m:
        raise ProfileFormatError(f"expected {m} matrix rows after the universe line, got {len(body)}")
    mat = np.zeros((m, m), dtype=bool)
    for r, (no, content) in enumerate(body):
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
    return MajorityRelation(labels, mat)


def format_majority_matrix(mu: MajorityRelation) -> str:
    out = [" ".join(mu.labels)]
    for i in range(mu.m):
        row = ["-" if i == j else ("1" if mu.matrix[i, j] else "0") for j in range(mu.m)]
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
    # the kept ranks in a row are distinct, so a double argsort re-ranks them densely
    return Profile.from_ranks([p.labels[j] for j in idx], p.ranks[:, idx].argsort(axis=1).argsort(axis=1))


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


def _support_dtype(n: int) -> type:
    """The dtype support counts over ``n`` criteria are summed in: the
    narrowest unsigned type that holds ``n``, or int64."""
    if n < 255:
        return np.uint8
    if n < 65535:
        return np.uint16
    return np.int64


# From this many alternatives, a broadcast compare over rows of m elements
# runs with a ufunc buffer of ``_SHORT_BUFFER`` elements (see
# ``_short_buffer``).
_SHORT_BUFFER_FROM_M = 500
_SHORT_BUFFER = 1024


@contextmanager
def _short_buffer(m: int) -> Iterator[None]:
    """Runs its block with NumPy's ufunc buffer cut to ``_SHORT_BUFFER``
    elements when the rows it compares, of m elements each, are long
    enough for that to pay, and restores the caller's size on every exit.

    NumPy's iterator buffers a 2-D broadcast compare such as
    ``row[:, None] >= row[None, :]`` while its rows are shorter than a
    third of the buffer: it runs direct from 2731 elements at the default
    of 8192 (from 1366 at 4096, from 5462 at 16384).  The buffered loop
    costs 1.3-1.7 times as much per element as the direct one.  With 1024
    the threshold falls to 342, so from m = 500 the compare runs direct;
    below that the smaller buffer is the slower one (266 against 236 us
    for the support matrix at m = 200, n = 10, 2-vCPU x86 VM)."""
    if m < _SHORT_BUFFER_FROM_M:
        yield
        return
    old = np.setbufsize(_SHORT_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(old)


def _pairwise_support(p: Profile) -> np.ndarray:
    """(m, m) matrix of S(x, y) = how many criteria rank x above y.

    One loop at every size but the smallest, with a flat cost per element
    and criterion:

    * Rows come in panels sized to stay cache-resident across the passes
      over the criteria; one streaming pass over the whole accumulator per
      criterion would otherwise dominate for large alternative counts.
    * Ranks are compared in the narrowest signed type that holds them
      (int16 up to m = 32768), and from m = 500 with a short ufunc buffer
      (``_short_buffer``).  At NumPy's default buffer the broadcast
      compare is buffered while m is below 2731, whatever the dtype; with
      the short one it is not.  Per call at n = 10 (default -> short
      buffer, medians of interleaved calls on a 2-vCPU x86 VM):
      m = 1000 1.35 -> 1.12 ms, m = 2000 5.5 -> 4.1 ms, m = 2730
      11.0 -> 6.9 ms; at m = 2000 with n = 101, 54 -> 40 ms.  From
      m = 2731 up the two agree.
    * Each compare spans as many criteria as fit in ``1 << 16`` elements.
      A small profile takes one broadcast and one reduce, where a pass per
      criterion would pay NumPy's per-call dispatch n times.  A large
      profile gets one criterion per pass, and that slab is added as it
      is: a reduce over a length-1 axis would cost a second, buffered pass.
    * The compare's bool bytes are accumulated viewed as uint8, in the
      single-criterion and the multi-criterion panels alike.  Adding or
      summing a bool array into uint8 counts goes through a buffered cast
      loop; the same bytes read as uint8 need none (45 against 23 us per
      520 K-element panel at m = 8000).
    * A profile whose whole compare spans at most ``1 << 12`` elements, as
      every small profile's does, takes one int32 compare and returns its
      sum: at that size the narrowing cast, the zeroed accumulator and the
      panel buffer cost more than the compare, which is not yet slower in
      int32.  Above it the narrow compare wins (1.7x at m = 100, n = 6).

    A condition check or a two-stage call derives this matrix at most once
    over the whole universe, through a ``procedures.ScopedProfile``, and
    restricts it for each subset: as S, with the majority relation read
    from it, when a rule of the call reads S, else as the relation alone.
    """
    m, n = p.m, p.n
    acc_dtype = _support_dtype(n)
    if n * m * m <= 1 << 12:
        return np.less(p.ranks[:, :, None], p.ranks[:, None, :]).sum(0, dtype=acc_dtype)
    ranks = p.ranks.astype(np.min_scalar_type(-m))
    counts = np.zeros((m, m), dtype=acc_dtype)
    width = max(8, min(m, (1 << 20) // (2 * m)))
    step = min(n, max(1, (1 << 16) // (width * m)))
    buf = np.empty((step, width, m), dtype=bool)
    with _short_buffer(m):
        for r0 in range(0, m, width):
            r1 = min(m, r0 + width)
            for i0 in range(0, n, step):
                block = ranks[i0:i0 + step]
                less = buf[:len(block), :r1 - r0]
                np.less(block[:, r0:r1, None], block[:, None, :], out=less)
                less = less.view(np.uint8)
                counts[r0:r1] += less.sum(0, dtype=acc_dtype) if step > 1 else less[0]
    return counts


def tournament_matrix(p: Profile) -> TournamentMatrix:
    return TournamentMatrix._trusted(p.labels, _pairwise_support(p), p.n)


def majority_relation(p: Profile) -> MajorityRelation:
    # For linear orders S(x,y) + S(y,x) = n, so the strict-majority test
    # reduces to a scalar threshold: no transpose traversal needed.  Below
    # 255 criteria the test is written over the fresh uint8 counts it reads,
    # which spares a second m x m allocation.
    counts = _pairwise_support(p)
    out = counts.view(bool) if counts.dtype == np.uint8 else None
    return MajorityRelation._trusted(p.labels, np.greater(counts, p.n // 2, out=out))


def grade_table(p: Profile) -> GradeTable:
    """Positional grades: best place -> grade m, worst place -> grade 1."""
    return GradeTable._trusted(p.labels, np.subtract(p.m, p.ranks, dtype=np.int64))


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
        raise ValueError(f"cannot move {change.target!r} up {change.steps} steps from position {pos}")
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
    return MajorityRelation._trusted(mu.labels, mat)
