"""Two-stage superpositions of the 28 indexed procedures.

A two-stage rule applies one procedure to the full profile, contracts the
profile onto the survivors, and applies a second procedure to the
contraction.  With 28 procedures per stage there are 784 combinations,
addressed by ``id = 28 * (first - 1) + second``.

The catalog classifies every id:

* ``degenerate`` -- the construction cannot do more than one of its stages
  alone (single-winner first stages, second stages that provably keep the
  first stage's whole output, and so on);
* ``equivalent`` -- provably coincides with a simpler named procedure;
* ``regular`` -- a genuinely two-stage rule.

Exactly 168 ids are degenerate and 25 are equivalent, leaving 591 regular
rules.  Each entry also carries one flag per normative axiom: ``satisfies``
/ ``violates`` where curated evidence exists (the flag's source names a
fixture case or the family argument it rests on), ``unverified`` otherwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .axioms import AXIOMS
from .procedures import PROCEDURE_NAMES, Procedure, make_procedure
from .profiles import scoped

__all__ = [
    "TwoStage",
    "compose",
    "encode_two_stage",
    "decode_two_stage",
    "CatalogEntry",
    "classify",
    "classify_group",
    "full_catalog",
    "catalog_counts",
    "export_catalog",
    "two_stage_from_id",
    "DEGENERATE_IDS",
    "EQUIVALENT_TO",
]


def encode_two_stage(first: int, second: int) -> int:
    if not (1 <= first <= 28 and 1 <= second <= 28):
        raise ValueError("stage indices must lie in 1..28")
    return 28 * (first - 1) + second


def decode_two_stage(two_stage_id: int) -> tuple[int, int]:
    if not (1 <= two_stage_id <= 784):
        raise ValueError(f"two-stage id must lie in 1..784, got {two_stage_id}")
    first = (two_stage_id - 1) // 28 + 1
    second = two_stage_id - 28 * (first - 1)
    return first, second


@dataclass(frozen=True)
class TwoStage:
    """A first-stage procedure, then a second on the survivors.

    An empty first stage short-circuits to an empty final choice (there is
    nothing to contract onto).
    """

    first: Procedure
    second: Procedure

    @property
    def two_stage_id(self) -> int:
        return encode_two_stage(self.first.index, self.second.index)

    def label(self) -> str:
        return f"{self.first.label()} -> {self.second.label()}"

    def choose_detailed(
        self, data, subset: Iterable[str] | None = None
    ) -> tuple[frozenset[str], frozenset[str]]:
        """Both stages' choices from ``subset`` of ``data``: a profile, or an
        input both stages read (a majority relation when both are
        relation-driven).  A plain profile is seen through one
        :class:`ScopedProfile` for the call, so a second stage that reads
        the relation or the support matrix the first derived restricts it
        to the survivors instead of deriving its own; the scope derives S
        only when a stage reads it."""
        data = scoped(data, self)
        survivors = self.first.choose(data, subset)
        if not survivors:
            return survivors, frozenset()
        return survivors, self.second.choose(data, survivors)

    def choose(self, data, subset: Iterable[str] | None = None) -> frozenset[str]:
        return self.choose_detailed(data, subset)[1]

    @functools.cached_property
    def kinds(self) -> frozenset[str]:
        """The input kinds the two stages read."""
        return self.first.kinds | self.second.kinds

    @property
    def anonymous(self) -> bool:
        return self.first.anonymous and self.second.anonymous

    @property
    def neutral(self) -> bool:
        return self.first.neutral and self.second.neutral


def compose(
    first: int | str | Procedure,
    second: int | str | Procedure,
    *,
    q: int | None = None,
    k: int | None = None,
) -> TwoStage:
    """Build a two-stage rule.  ``q`` / ``k`` parameterize whichever stage
    accepts them (pass ready :class:`Procedure` objects to parameterize the
    two stages differently); a ``q`` or ``k`` that no stage built from an
    index or name takes raises, as in :func:`make_procedure`.  Each stage
    must be one of the 28 indexed procedures, since the two-stage id is
    built from their indices."""
    taken = set()

    def build(spec):
        proc = make_procedure(spec)
        if not isinstance(proc, Procedure):
            raise ValueError(f"{proc.label()} is not an indexed procedure and cannot be a stage")
        if isinstance(spec, Procedure):
            return proc
        taken.add(proc.param)
        value = {"q": q, "k": k}.get(proc.param)
        return proc if value is None else make_procedure(proc.index, **{proc.param: value})

    rule = TwoStage(build(first), build(second))
    for name, value in (("q", q), ("k", k)):
        if value is not None and name not in taken:
            raise ValueError(
                f"{rule.label()}: no stage built from an index or name takes a {name} parameter"
            )
    return rule


def two_stage_from_id(two_stage_id: int, *, q: int | None = None, k: int | None = None) -> TwoStage:
    first, second = decode_two_stage(two_stage_id)
    return compose(first, second, q=q, k=k)


# ---------------------------------------------------------------------------
# degeneracy
# ---------------------------------------------------------------------------

_R_SINGLE = (
    "first stage picks at most one alternative, leaving the second stage nothing to decide"
)
_R_BORDA_TIE = (
    "first stage always stops on a Borda-tied pool, which Borda-type second stages cannot split"
)
_R_SECOND_NOOP = (
    "second stage recomputes the same kind of solution on its own output and keeps it whole"
)
_R_CORE_TIED = (
    "the core's output is pairwise-tied, so relation- and score-driven second stages keep the whole pool"
)
_R_CORE_MAJORITY = (
    "a pairwise-tied pool never yields a strict majority: multi-member cores collapse to the empty choice"
)


def _degenerate_table() -> dict[int, str]:
    out: dict[int, str] = {}
    single_winner_firsts = [i for i in PROCEDURE_NAMES if make_procedure(i).single_winner]
    for first in single_winner_firsts:
        for second in range(1, 29):
            out[encode_two_stage(first, second)] = _R_SINGLE
    for first in (9, 10):  # Borda-elimination first stages
        for second in (7, 9, 10):
            out[encode_two_stage(first, second)] = _R_BORDA_TIE
    for ts in (320, 348, 349):  # dominant/undominated self-compositions
        out[ts] = _R_SECOND_NOOP
    out[533] = _R_CORE_MAJORITY
    for second in (7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 21, 23, 24, 25, 27, 28):
        out[encode_two_stage(20, second)] = _R_CORE_TIED
    out[encode_two_stage(20, 20)] = _R_SECOND_NOOP
    return out


DEGENERATE_IDS: dict[int, str] = _degenerate_table()

# sanity pin: the classification must cover exactly the documented 168 ids
assert len(DEGENERATE_IDS) == 168

EQUIVALENT_TO: dict[int, str] = {
    309: "condorcet_winner",
    321: "minimal_undominated",
    322: "minimal_weakly_stable",
    323: "fishburn",
    324: "uncovered_1",
    325: "uncovered_2",
    326: "richelson",
    327: "condorcet_winner",
    328: "core",
    331: "copeland_1",
    332: "copeland_2",
    333: "copeland_3",
    337: "core_when_singleton",
    350: "minimal_weakly_stable",
    355: "condorcet_winner",
    356: "core",
    393: "core_when_singleton",
    411: "core_when_singleton",
    421: "core_when_singleton",
    439: "core_when_singleton",
    449: "core_when_singleton",
    467: "core_when_singleton",
    477: "core_when_singleton",
    495: "core_when_singleton",
    551: "condorcet_winner",
}

assert len(EQUIVALENT_TO) == 25
assert not set(EQUIVALENT_TO) & set(DEGENERATE_IDS)


# ---------------------------------------------------------------------------
# per-axiom flags
# ---------------------------------------------------------------------------
#
# The paper's theorem table, as rows of one format: (first stages, second
# stages, one symbol per condition H C O ACA MON1 MON2 SM NC, source).  Each
# row speaks for the cross product of its stages; '+' is satisfies, '-'
# violates, and '?' leaves the condition to the other rows.  Two lists of rows
# are compiled in turn:
#   * block rows sweep families of stages; where two disagree on a cell
#     (the source material is partly illegible) it is demoted to unverified
#     rather than guessed;
#   * claim rows speak for single families or single ids, usually backed by
#     a fixture in the corpus that the source names; they override the blocks
#     and never settle the same cell twice.
# Inherited families then copy flags across, and every cell left unsettled
# reads unverified, as does every degenerate or equivalent id.

EVERY = tuple(range(1, 29))  # every second stage

_BLOCKS: list[tuple[tuple[int, ...], tuple[int, ...], str, str]] = [
    ((2, 3, 4, 12, 13, 15, 16, 17, 18, 20, 23, 24, 25, 26, 27, 28), (5, 6, 11),
     "- - - - - + - -", "block:elimination-second"),
    ((9, 10, 11, 14, 21), (1, 5, 6, 11, 19),
     "- - - - - + - -", "block:single-winner-second"),
    ((7, 8, 22), (1, 5, 6),
     "- - - - + + - -", "block:score-first-single-second"),
    ((2, 3, 4, 23, 24, 25, 26, 27, 28), (1, 19),
     "- - - - + + - -", "block:score-first-majority-second"),
    ((13, 20), (1,),
     "+ + - - + + - -", "block:closed-first-majority-second"),
    ((15, 16, 17, 18), (1, 19),
     "+ + - - + + - -", "block:covering-first-majority-second"),
    ((7, 8, 22, 23, 24, 25), (9, 10, 21),
     "- - - - + - - -", "block:score-first-elimination-second"),
    ((13,), (15, 17, 21, 23, 24, 25),
     "- - - - + - - -", "block:undominated-first"),
    ((15,), (12,),
     "- - - - + - - -", "block:covering-first-dominant-second"),
    ((16, 18, 26, 27, 28), (12, 13, 16, 18, 20),
     "- - - - + - - ?", "block:relation-second"),
    ((2, 3, 4), (21,),
     "- - - - + - - ?", "block:score-first-stable-second"),
    ((13,), (16,),
     "- - - - + - - ?", "block:undominated-first"),
    ((12, 13, 16, 17), (18, 20, 26, 27, 28),
     "- - - - + - - ?", "block:relation-first"),
    ((17,), (12,),
     "- + - - + - - ?", "block:uncovered-first-dominant-second"),
    ((9, 10, 14, 21), (12, 13, 16, 18, 20),
     "- - - - - - - ?", "block:elimination-first-relation-second"),
    ((15, 17), (13, 20),
     "- - - - - - - ?", "block:covering-first-closed-second"),
    ((9, 10, 14, 15, 16, 17, 18, 21, 26, 27, 28),
     (2, 4, 8, 14, 15, 17, 21, 22, 23, 24, 25, 26, 27, 28),
     "- - - - - - - ?", "block:all-minus"),
    # the self-composition diagonal carries its own row in the source table
    *[((i,), (i,), "- - - - + - - ?", "block:diagonal")
      for i in (2, 3, 4, 7, 8, 12, 13, 14, 15, 16, 17, 18, 20, 22, 23, 24, 25, 26, 27, 28)],
]

_CLAIMS: list[tuple[tuple[int, ...], tuple[int, ...], str, str]] = [
    # plurality-first (2)
    ((2,), (2, 3, 4, 7, 8, 12, 13, 14, 15, 16, 18, 21, 22, 23, 24, 25, 26, 27, 28),
     "? ? ? ? + ? ? ?", "family:plurality-first"),
    ((2,), (17,), "? - ? ? + ? ? ?", "family:plurality-first"),
    ((2,), (19,), "- - - ? + ? ? ?", "family:plurality-first"),
    ((2,), (20,), "- - ? ? + ? ? ?", "family:plurality-first"),
    ((2,), (1,), "- ? - - + ? ? ?", "id029_case1"),
    ((2,), (1,), "? - ? ? ? ? ? ?", "id029_case2"),
    ((2,), (1,), "? ? ? ? ? ? - ?", "id029_case7"),
    ((2,), (1,), "? ? ? ? ? ? ? -", "id029_case8"),
    ((2,), (12,), "? - - ? ? ? ? ?", "id040"),
    ((2,), (22,), "? ? ? ? ? ? ? -", "id050"),
    ((2,), (1,), "? ? ? ? ? + ? ?", "vacuous:single-winner"),
    # inverse-plurality-first (3)
    ((3,), (1, 2, 3, 4, 7, 8, 13, 14, 15, 16, 18, 21, 22, 23, 24, 25, 27, 28),
     "? ? ? ? + ? ? ?", "family:inverse-plurality-first"),
    ((3,), (12,), "? ? - ? + ? ? ?", "family:inverse-plurality-first"),
    ((3,), (17,), "? - ? ? + ? ? ?", "family:inverse-plurality-first"),
    ((3,), (19,), "- - - ? + ? ? ?", "family:inverse-plurality-first"),
    ((3,), (20,), "- - ? ? + ? ? ?", "family:inverse-plurality-first"),
    ((3,), (26,), "? ? ? ? + - ? ?", "family:inverse-plurality-first"),
    ((3,), (1,), "- ? - ? ? ? ? ?", "id057"),
    ((3,), (12,), "? - ? ? ? ? ? ?", "id068"),
    ((3,), (20,), "? ? ? ? ? - ? ?", "id076"),
    ((3,), (22,), "? ? ? ? ? ? ? -", "id078"),
    # Borda-first (7)
    ((7,), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 18, 21, 23, 24, 25, 27, 28),
     "? ? ? ? + ? ? ?", "family:borda-first"),
    ((7,), (12,), "? - - ? + ? ? ?", "family:borda-first"),
    ((7,), (17,), "? - ? ? + ? ? ?", "family:borda-first"),
    ((7,), (19,), "- - - ? + ? ? ?", "family:borda-first"),
    ((7,), (20,), "- - ? ? + - ? ?", "family:borda-first"),
    ((7,), (22,), "? ? ? ? + ? ? -", "family:borda-first"),
    ((7,), (26,), "? ? ? ? + - ? ?", "family:borda-first"),
    ((7,), (1,), "- ? - ? ? ? ? ?", "id169"),
    # Black-first (8)
    ((8,), (1, 5, 6, 19), "? - ? ? + ? - -", "family:black-first"),
    ((8,),
     (2, 3, 4, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28),
     "? - ? ? + - - -", "family:black-first"),
    ((8,), EVERY, "- ? - - ? ? ? ?", "id197"),
    ((8,), (1, 5, 6, 19), "? ? ? ? ? + ? ?", "vacuous:single-winner"),
    # minimal-dominant-first (12)
    ((12,), (2, 3, 4, 5, 8, 9, 10, 11, 22), "- - - - - - - -", "family:dominant-first"),
    ((12,), (6, 7), "- - - - - ? - -", "family:dominant-first"),
    ((12,), (26, 27, 28), "- - - - + - - -", "family:dominant-first"),
    # minimal-undominated-first (13)
    ((13,), (2, 3, 4, 5, 8, 9, 10, 11, 22), "- - - - - - - -", "family:undominated-first"),
    ((13,), (6, 7), "- - - - - ? - -", "family:undominated-first"),
    ((13,), (15, 16, 17, 18, 21, 23, 24, 25, 26, 27, 28),
     "- - - - + - - -", "family:undominated-first"),
    # minimal-weakly-stable-first (14)
    ((14,), (1,), "? ? ? ? ? - ? -", "family:weakly-stable-first"),
    ((14,), (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 18, 21, 22, 23, 24, 25, 26, 27, 28),
     "? ? ? ? - - ? -", "family:weakly-stable-first"),
    ((14,), (12,), "? - - ? - - ? -", "family:weakly-stable-first"),
    ((14,), (17,), "? - ? ? - - ? -", "family:weakly-stable-first"),
    ((14,), (19,), "- ? ? ? - - ? -", "family:weakly-stable-first"),
    ((14,), (20,), "- - ? ? - - ? -", "family:weakly-stable-first"),
    ((14,), (1,), "- ? - ? ? ? ? ?", "id365_case1"),
    ((14,), (1,), "? ? ? ? - ? ? ?", "id365_case5"),
    ((14,), (19,), "? - ? ? ? ? ? ?", "id383_case2"),
    # Fishburn-first (15)
    ((15,), (1, 16, 18, 19, 21), "? ? ? ? ? ? ? -", "family:fishburn-first"),
    ((15,), (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 20, 22, 23, 24, 25, 26, 27, 28),
     "? ? ? ? - ? ? -", "family:fishburn-first"),
    ((15,), (12,), "? - - ? ? ? ? -", "family:fishburn-first"),
    ((15,), (17,), "? - ? ? - ? ? -", "family:fishburn-first"),
    ((15,), (20,), "- ? ? ? ? - ? ?", "id412_case1"),
    ((15,), (20,), "? - ? ? ? ? ? ?", "id412_case2"),
    # uncovered-2-first (17): id460 refutes the C of its block row
    ((17,), (12,), "? - ? ? ? ? ? ?", "id460"),
    # core-first (20)
    ((20,), (2,), "- - - - ? - - -", "family:core-first"),
    ((20,), (3, 4, 5, 6, 11, 22, 26), "- - - - - - - -", "family:core-first"),
    ((20,), (2,), "? ? ? ? - ? ? ?", "id534_case5"),
    # threshold-first (22)
    ((22,), (1,), "- - - - + - - ?", "family:threshold-first"),
    ((22,), EVERY[1:], "- - - - + - - -", "family:threshold-first"),
    ((22,), (1,), "? ? ? ? ? ? ? -", "id589"),
    # Copeland-first (23, 24, 25)
    ((23, 24, 25),
     (1, 2, 3, 4, 7, 8, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
     "? ? ? ? + ? ? -", "family:copeland-first"),
    ((23, 24, 25), (5, 6, 9, 10, 11), "? ? ? ? - ? ? -", "family:copeland-first"),
    # super-threshold-first (26)
    ((26,), (1,), "- ? ? ? + ? ? -", "family:super-threshold-first"),
    ((26,), (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15, 16, 18, 21, 22, 23, 24, 25, 26, 27, 28),
     "? ? ? ? - ? ? -", "family:super-threshold-first"),
    ((26,), (12,), "? - - ? ? ? ? -", "family:super-threshold-first"),
    ((26,), (13,), "? ? ? ? ? ? ? -", "family:super-threshold-first"),
    ((26,), (17,), "? - - ? - ? ? -", "family:super-threshold-first"),
    ((26,), (19, 20), "- - ? ? + ? ? -", "family:super-threshold-first"),
    ((26,), (12,), "? ? ? ? - ? ? ?", "id712"),
    ((26,), (13,), "? ? ? ? - ? ? ?", "id713"),
    # minimax-first and Simpson-first (27, 28)
    ((27, 28), (1, 19, 20), "? ? ? ? + ? ? ?", "family:tournament-first"),
    ((27,), (2, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15, 16, 17, 18, 21, 22, 23, 24, 25, 26, 27, 28),
     "? ? ? ? - ? ? ?", "family:tournament-first"),
    ((27,), (3,), "? ? ? ? - ? ? ?", "id731"),
    ((27,), (12,), "? ? ? ? - ? ? ?", "id740"),
    ((27,), (13,), "? ? ? ? - ? ? ?", "id741"),
    ((28,), (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15, 16, 17, 18, 21, 22, 23, 24, 25, 26, 27, 28),
     "? ? ? ? - ? ? ?", "family:tournament-first"),
    ((28,), (12,), "? ? ? ? - ? ? ?", "id768"),
    ((28,), (13,), "? ? ? ? - ? ? ?", "id769"),
]

# families that repeat an earlier one's flags: (source first stage, target
# first stage, second stages, values kept, source tag).  q-approval-first
# takes plurality-first's flags, and k-stable-first takes weakly-stable-first's
# violations (same arguments, larger examples).
_INHERITED = [
    (2, 4, range(2, 19), ("satisfies", "violates"), "family:q-approval-first"),
    (14, 21, EVERY, ("violates",), "family:k-stable-first"),
]

_VALUE_OF = {"+": "satisfies", "-": "violates"}


def _expand(rows) -> Iterable[tuple[int, str, str, str]]:
    """Yield ``(id, condition, value, source)`` for every cell a row settles.

    A pattern must hold one symbol from ``+ - ?`` per condition; anything else
    raises :class:`ValueError` naming the row's source."""
    for firsts, seconds, pattern, source in rows:
        symbols = pattern.split()
        if len(symbols) != len(AXIOMS) or not set(symbols) <= {"+", "-", "?"}:
            raise ValueError(
                f"{source}: pattern {pattern!r} must be {len(AXIOMS)} symbols from + - ?"
            )
        for first in firsts:
            for second in seconds:
                ts = encode_two_stage(first, second)
                for axiom, symbol in zip(AXIOMS, symbols):
                    if symbol != "?":
                        yield ts, axiom, _VALUE_OF[symbol], source


def _compile_flags() -> dict[int, dict[str, tuple[str, str]]]:
    flags: dict[int, dict[str, tuple[str, str]]] = {ts: {} for ts in range(1, 785)}
    for ts, axiom, value, source in _expand(_BLOCKS):
        cell = flags[ts]
        if axiom in cell and cell[axiom][0] != value:
            value, source = "unverified", "conflicting-evidence"
        cell[axiom] = (value, source)
    for ts, axiom, value, source in _expand(_CLAIMS):
        flags[ts][axiom] = (value, source)
    for src_first, dst_first, seconds, kept, tag in _INHERITED:
        for second in seconds:
            src = flags[encode_two_stage(src_first, second)]
            dst = flags[encode_two_stage(dst_first, second)]
            for axiom, (value, _) in src.items():
                if value in kept:
                    dst[axiom] = (value, tag)
    # degenerate and equivalent ids are not studied as two-stage rules; what
    # the sweeping rows said about them is not evidence
    for ts in DEGENERATE_IDS.keys() | EQUIVALENT_TO.keys():
        flags[ts] = {}
    blank = dict.fromkeys(AXIOMS, ("unverified", ""))
    return {ts: blank | cell for ts, cell in flags.items()}


_FLAGS = _compile_flags()


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    two_stage_id: int
    first: int
    second: int
    status: str  # 'regular' | 'degenerate' | 'equivalent'
    detail: str  # degeneracy reason, or the equivalent procedure's name
    flags: dict[str, tuple[str, str]]

    @property
    def first_name(self) -> str:
        return PROCEDURE_NAMES[self.first]

    @property
    def second_name(self) -> str:
        return PROCEDURE_NAMES[self.second]


def classify(two_stage_id: int) -> CatalogEntry:
    """Catalog entry for one two-stage id (q-approval and k-stable stages at
    their catalog parameters q=2, k=2)."""
    first, second = decode_two_stage(two_stage_id)
    if two_stage_id in DEGENERATE_IDS:
        status, detail = "degenerate", DEGENERATE_IDS[two_stage_id]
    elif two_stage_id in EQUIVALENT_TO:
        status, detail = "equivalent", EQUIVALENT_TO[two_stage_id]
    else:
        status, detail = "regular", ""
    return CatalogEntry(
        two_stage_id, first, second, status, detail, dict(_FLAGS[two_stage_id])
    )


@functools.cache
def full_catalog() -> tuple[CatalogEntry, ...]:
    return tuple(classify(ts) for ts in range(1, 785))


def catalog_counts() -> dict[str, int]:
    counts = {"total": 0, "degenerate": 0, "equivalent": 0, "regular": 0}
    for entry in full_catalog():
        counts["total"] += 1
        counts[entry.status] += 1
    return counts


_GROUP_HIGH_SECOND = frozenset({12, 13, 14, 15, 16, 17, 18, 21})
_GROUP_LOW_ANY = frozenset({2, 4, 22})
_GROUP_CHEAP_FIRST = frozenset({3, 26, 7, 8})
_GROUP_CHEAP_LOW_SECOND = frozenset({1, 2, 3, 4, 5, 6, 7, 8, 19, 22, 26})
_GROUP_AVG_FIRST = frozenset({9, 10, 20, 23, 24, 25, 27, 28})


def classify_group(first: int, second: int) -> str:
    """Expected runtime group of a two-stage rule on large inputs:
    ``low``, ``average``, ``high``, or ``depends`` (cost rides on how much
    the first stage filters).  Solution-enumeration stages (minimal
    dominant/undominated/stable machinery) dominate everything they touch;
    cheap score screens keep compositions cheap."""
    if not (1 <= first <= 28 and 1 <= second <= 28):
        raise ValueError("stage indices must lie in 1..28")
    if first in _GROUP_HIGH_SECOND:  # solution enumeration up front
        return "high"
    if first in _GROUP_LOW_ANY:
        return "low"
    if first in (1, 5, 6, 19):  # single-winner screens leave nothing to do
        return "low"
    if first == 11:
        return "average"
    if first in _GROUP_CHEAP_FIRST:
        if second in _GROUP_HIGH_SECOND:
            return "high"
        if second in _GROUP_CHEAP_LOW_SECOND:
            return "low"
        return "depends"
    if first in _GROUP_AVG_FIRST:
        return "high" if second in _GROUP_HIGH_SECOND else "average"
    raise AssertionError((first, second))  # pragma: no cover


def export_catalog() -> str:
    """The catalog as tab-separated text.

    One row per id: id, stage indices and names, status, detail, then one
    column per axiom holding ``value(source)``.
    """
    header = ["id", "first", "first_name", "second", "second_name", "status", "detail", *AXIOMS]
    lines = ["\t".join(header)]
    for entry in full_catalog():
        row = [
            str(entry.two_stage_id),
            str(entry.first),
            entry.first_name,
            str(entry.second),
            entry.second_name,
            entry.status,
            entry.detail,
        ]
        for axiom in AXIOMS:
            value, source = entry.flags[axiom]
            row.append(f"{value}({source})" if source else value)
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
