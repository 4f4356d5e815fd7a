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
import io
from dataclasses import dataclass
from typing import Iterable, TextIO

from .axioms import AXIOMS as AXIOM_KEYS
from .procedures import PROCEDURE_NAMES, Procedure, make_procedure
from .profiles import Profile, ScopedProfile

__all__ = [
    "AXIOM_KEYS",
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
        if type(data) is Profile:
            data = ScopedProfile(data, "support" in self.kinds)
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
    two stages differently).  Each stage must be one of the 28 indexed
    procedures, since the two-stage id is built from their indices."""

    def build(spec):
        proc = make_procedure(spec)
        if not isinstance(proc, Procedure):
            raise ValueError(f"{proc.label()} is not an indexed procedure and cannot be a stage")
        if isinstance(spec, Procedure):
            return proc
        value = {"q": q, "k": k}.get(proc.param)
        return proc if value is None else make_procedure(proc.index, **{proc.param: value})

    return TwoStage(build(first), build(second))


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
# Curated from two kinds of evidence, compiled most-specific-last:
#   * block rules: one flag pattern covering a cross product of stages;
#   * id rules: claims about individual ids, usually backed by a fixture
#     case in the corpus (the source column names it).
# A '?' in a pattern leaves that axiom unverified.  Conflicting block
# evidence (the source material is partly illegible) demotes the cell to
# unverified rather than guessing.

_BLOCKS: list[tuple[tuple[int, ...], tuple[int, ...], str, str]] = [
    # stage-1 indices, stage-2 indices, H C O ACA MON1 MON2 SM NC, source tag
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

# families that repeat an earlier one's flags: (source first stage, target
# first stage, second stages, values kept, source tag).  q-approval-first
# takes plurality-first's flags, and k-stable-first takes weakly-stable-first's
# violations (same arguments, larger examples).
_INHERITED = [
    (2, 4, range(2, 19), ("satisfies", "violates"), "family:q-approval-first"),
    (14, 21, range(1, 29), ("violates",), "family:k-stable-first"),
]

# (ids, axiom, value, source); ranges inclusive
_IdRule = tuple[Iterable[int], str, str, str]


def _rng(a: int, b: int) -> range:
    return range(a, b + 1)


_ID_RULES: list[_IdRule] = [
    # --- plurality-first family -----------------------------------------
    ([29], "H", "-", "id029_case1"),
    ([29], "O", "-", "id029_case1"),
    ([29], "ACA", "-", "id029_case1"),
    ([29], "C", "-", "id029_case2"),
    ([29], "MON1", "+", "id029_case1"),
    ([29], "MON2", "+", "vacuous:single-winner"),
    ([29], "SM", "-", "id029_case7"),
    ([29], "NC", "-", "id029_case8"),
    (list(_rng(30, 32)) + list(_rng(35, 36)) + list(_rng(40, 56)), "MON1", "+", "family:plurality-first"),
    ([40], "C", "-", "id040"),
    ([45, 47, 48], "C", "-", "family:plurality-first"),
    ([40], "O", "-", "id040"),
    ([47], "O", "-", "family:plurality-first"),
    ([47, 48], "H", "-", "family:plurality-first"),
    ([50], "NC", "-", "id050"),
    # --- inverse-plurality-first family ---------------------------------
    ([57], "H", "-", "id057"),
    ([75, 76], "H", "-", "family:inverse-plurality-first"),
    ([57], "O", "-", "id057"),
    ([68, 75], "O", "-", "family:inverse-plurality-first"),
    ([68], "C", "-", "id068"),
    ([73, 75, 76], "C", "-", "family:inverse-plurality-first"),
    (list(_rng(57, 60)) + [63, 64] + list(_rng(68, 84)), "MON1", "+", "family:inverse-plurality-first"),
    ([76], "MON2", "-", "id076"),
    ([82], "MON2", "-", "family:inverse-plurality-first"),
    ([78], "NC", "-", "id078"),
    # --- q-approval family mirrors the plurality family -----------------
    # (ids 86..102 inherit the 30..46 flags; handled programmatically below)
    # --- Borda-first family ----------------------------------------------
    ([169], "H", "-", "id169"),
    ([187, 188], "H", "-", "family:borda-first"),
    ([169], "O", "-", "id169"),
    ([180, 187], "O", "-", "family:borda-first"),
    ([180, 185, 187, 188], "C", "-", "family:borda-first"),
    (list(_rng(169, 196)), "MON1", "+", "family:borda-first"),
    ([188, 194], "MON2", "-", "family:borda-first"),
    ([190], "NC", "-", "family:borda-first"),
    # --- Black-first family ----------------------------------------------
    (list(_rng(197, 224)), "H", "-", "id197"),
    (list(_rng(197, 224)), "O", "-", "id197"),
    (list(_rng(197, 224)), "C", "-", "family:black-first"),
    (list(_rng(197, 224)), "ACA", "-", "id197"),
    (list(_rng(197, 224)), "MON1", "+", "family:black-first"),
    (list(_rng(198, 200)) + list(_rng(203, 214)) + list(_rng(216, 224)), "MON2", "-", "family:black-first"),
    ([197, 201, 202, 215], "MON2", "+", "vacuous:single-winner"),
    (list(_rng(197, 224)), "SM", "-", "family:black-first"),
    (list(_rng(197, 224)), "NC", "-", "family:black-first"),
    # --- minimal-dominant-first family ----------------------------------
    (list(_rng(310, 319)) + [330] + list(_rng(334, 336)), "H", "-", "family:dominant-first"),
    (list(_rng(310, 319)) + [330] + list(_rng(334, 336)), "C", "-", "family:dominant-first"),
    (list(_rng(310, 319)) + [330] + list(_rng(334, 336)), "O", "-", "family:dominant-first"),
    (list(_rng(310, 319)) + [330] + list(_rng(334, 336)), "ACA", "-", "family:dominant-first"),
    (list(_rng(310, 319)) + [330], "MON1", "-", "family:dominant-first"),
    (list(_rng(334, 336)), "MON1", "+", "family:dominant-first"),
    (list(_rng(310, 313)) + list(_rng(316, 319)) + [330] + list(_rng(334, 336)), "MON2", "-", "family:dominant-first"),
    (list(_rng(310, 319)) + [330] + list(_rng(334, 336)), "SM", "-", "family:dominant-first"),
    (list(_rng(310, 319)) + [330] + list(_rng(334, 336)), "NC", "-", "family:dominant-first"),
    # --- minimal-undominated-first family (mirrors the dominant family) --
    (list(_rng(338, 347)) + [358] + list(_rng(362, 364)), "H", "-", "family:undominated-first"),
    (list(_rng(338, 347)) + [358] + list(_rng(362, 364)), "C", "-", "family:undominated-first"),
    (list(_rng(338, 347)) + [358] + list(_rng(362, 364)), "O", "-", "family:undominated-first"),
    (list(_rng(338, 347)) + [358] + list(_rng(362, 364)), "ACA", "-", "family:undominated-first"),
    (list(_rng(338, 347)) + [358], "MON1", "-", "family:undominated-first"),
    (list(_rng(362, 364)), "MON1", "+", "family:undominated-first"),
    (list(_rng(338, 341)) + list(_rng(344, 347)) + [358] + list(_rng(362, 364)), "MON2", "-", "family:undominated-first"),
    (list(_rng(338, 347)) + [358] + list(_rng(362, 364)), "SM", "-", "family:undominated-first"),
    (list(_rng(338, 347)) + [358] + list(_rng(362, 364)), "NC", "-", "family:undominated-first"),
    (list(_rng(351, 354)) + [357] + list(_rng(359, 361)), "H", "-", "family:undominated-first"),
    (list(_rng(351, 354)) + [357] + list(_rng(359, 361)), "C", "-", "family:undominated-first"),
    (list(_rng(351, 354)) + [357] + list(_rng(359, 361)), "O", "-", "family:undominated-first"),
    (list(_rng(351, 354)) + [357] + list(_rng(359, 361)), "ACA", "-", "family:undominated-first"),
    (list(_rng(351, 354)) + [357] + list(_rng(359, 361)), "MON1", "+", "family:undominated-first"),
    (list(_rng(351, 354)) + [357] + list(_rng(359, 361)), "MON2", "-", "family:undominated-first"),
    (list(_rng(351, 354)) + [357] + list(_rng(359, 361)), "SM", "-", "family:undominated-first"),
    (list(_rng(351, 354)) + [357] + list(_rng(359, 361)), "NC", "-", "family:undominated-first"),
    # --- weakly-stable-first family --------------------------------------
    ([365], "H", "-", "id365_case1"),
    ([383, 384], "H", "-", "family:weakly-stable-first"),
    ([365], "O", "-", "id365_case1"),
    ([376], "O", "-", "family:weakly-stable-first"),
    ([383], "C", "-", "id383_case2"),
    ([376, 381, 384], "C", "-", "family:weakly-stable-first"),
    ([365], "MON1", "-", "id365_case5"),
    ([x for x in _rng(366, 392)], "MON1", "-", "family:weakly-stable-first"),
    (list(_rng(365, 392)), "MON2", "-", "family:weakly-stable-first"),
    (list(_rng(365, 392)), "NC", "-", "family:weakly-stable-first"),
    # --- Fishburn-first family -------------------------------------------
    ([412], "H", "-", "id412_case1"),
    ([412], "C", "-", "id412_case2"),
    ([404, 409], "C", "-", "family:fishburn-first"),
    ([404], "O", "-", "family:fishburn-first"),
    (list(_rng(394, 403)) + list(_rng(405, 407)) + [409, 412] + list(_rng(414, 420)), "MON1", "-", "family:fishburn-first"),
    ([412], "MON2", "-", "id412_case1"),
    (list(_rng(393, 420)), "NC", "-", "family:fishburn-first"),
    # --- uncovered-2-first: id460 refutes the C of its block row -----------
    ([460], "C", "-", "id460"),
    # --- core-first live rows --------------------------------------------
    ([534, 535, 536, 537, 538, 543, 554, 558], "H", "-", "family:core-first"),
    ([534, 535, 536, 537, 538, 543, 554, 558], "C", "-", "family:core-first"),
    ([534, 535, 536, 537, 538, 543, 554, 558], "O", "-", "family:core-first"),
    ([534, 535, 536, 537, 538, 543, 554, 558], "ACA", "-", "family:core-first"),
    ([534], "MON1", "-", "id534_case5"),
    ([535, 536, 537, 538, 543, 554, 558], "MON1", "-", "family:core-first"),
    ([534, 535, 536, 537, 538, 543, 554, 558], "MON2", "-", "family:core-first"),
    ([534, 535, 536, 537, 538, 543, 554, 558], "SM", "-", "family:core-first"),
    ([534, 535, 536, 537, 538, 543, 554, 558], "NC", "-", "family:core-first"),
    # --- threshold-first family -------------------------------------------
    (list(_rng(589, 616)), "H", "-", "family:threshold-first"),
    (list(_rng(589, 616)), "C", "-", "family:threshold-first"),
    (list(_rng(589, 616)), "O", "-", "family:threshold-first"),
    (list(_rng(589, 616)), "ACA", "-", "family:threshold-first"),
    (list(_rng(589, 616)), "MON1", "+", "family:threshold-first"),
    (list(_rng(589, 616)), "MON2", "-", "family:threshold-first"),
    (list(_rng(589, 616)), "SM", "-", "family:threshold-first"),
    ([589], "NC", "-", "id589"),
    (list(_rng(590, 616)), "NC", "-", "family:threshold-first"),
    # --- Copeland-first families ------------------------------------------
    (list(_rng(617, 620)) + list(_rng(623, 624)) + list(_rng(628, 648))
     + list(_rng(651, 652)) + list(_rng(656, 676)) + list(_rng(679, 680))
     + list(_rng(684, 700)), "MON1", "+", "family:copeland-first"),
    (list(_rng(621, 622)) + list(_rng(625, 627)) + list(_rng(649, 650))
     + list(_rng(653, 655)) + list(_rng(677, 678)) + list(_rng(681, 683)),
     "MON1", "-", "family:copeland-first"),
    (list(_rng(617, 700)), "NC", "-", "family:copeland-first"),
    # --- super-threshold-first family ---------------------------------------
    ([701, 719, 720], "H", "-", "family:super-threshold-first"),
    ([712, 717, 719, 720], "C", "-", "family:super-threshold-first"),
    ([712, 717], "O", "-", "family:super-threshold-first"),
    ([701, 719, 720], "MON1", "+", "family:super-threshold-first"),
    *[([ts], "MON1", "-", f"id{ts}") for ts in (712, 713)],
    (list(_rng(702, 711)) + list(_rng(714, 718)) + list(_rng(721, 728)), "MON1", "-", "family:super-threshold-first"),
    (list(_rng(701, 728)), "NC", "-", "family:super-threshold-first"),
    # --- minimax / Simpson-first families -----------------------------------
    ([729, 747, 748, 757, 775, 776], "MON1", "+", "family:tournament-first"),
    *[([ts], "MON1", "-", f"id{ts}") for ts in (740, 741, 768, 769)],
    ([731], "MON1", "-", "id731"),
    (list(_rng(730, 730)) + list(_rng(732, 739)) + list(_rng(742, 746))
     + list(_rng(749, 756)) + list(_rng(758, 767)) + list(_rng(770, 774))
     + list(_rng(777, 784)),
     "MON1", "-", "family:tournament-first"),
]


def _compile_flags() -> dict[int, dict[str, tuple[str, str]]]:
    value_of = {"+": "satisfies", "-": "violates"}
    flags: dict[int, dict[str, tuple[str, str]]] = {ts: {} for ts in range(1, 785)}

    def put(ts: int, axiom: str, value: str, source: str):
        cell = flags[ts]
        if axiom in cell and cell[axiom][0] != value:
            cell[axiom] = ("unverified", "conflicting-evidence")
        else:
            cell[axiom] = (value, source)

    # pass 1: block rules, the diagonal last (conflicting blocks demote to unverified)
    for firsts, seconds, pattern, source in _BLOCKS:
        values = pattern.split()
        for fi in firsts:
            for se in seconds:
                ts = encode_two_stage(fi, se)
                for axiom, sym in zip(AXIOM_KEYS, values):
                    if sym != "?":
                        put(ts, axiom, value_of[sym], source)

    # pass 2: id rules override blocks (more specific evidence wins)
    for ids, axiom, sym, source in _ID_RULES:
        for ts in ids:
            flags[ts][axiom] = (value_of[sym], source)

    # pass 3: inherited families copy the flags they keep
    for src_first, dst_first, seconds, kept, tag in _INHERITED:
        for second in seconds:
            src = flags[encode_two_stage(src_first, second)]
            dst = flags[encode_two_stage(dst_first, second)]
            for axiom, (value, _) in src.items():
                if value in kept:
                    dst[axiom] = (value, tag)

    # pass 4: degenerate and equivalent ids are not studied as two-stage
    # rules; whatever the sweeping block rows said about them is not evidence
    for ts in list(DEGENERATE_IDS) + list(EQUIVALENT_TO):
        flags[ts] = {}

    # pass 5: fill the gaps
    for ts in range(1, 785):
        cell = flags[ts]
        for axiom in AXIOM_KEYS:
            cell.setdefault(axiom, ("unverified", ""))
    return flags


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

    def flag(self, axiom: str) -> str:
        return self.flags[axiom][0]

    def flag_source(self, axiom: str) -> str:
        return self.flags[axiom][1]


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


def export_catalog(stream: TextIO | None = None) -> str:
    """Write the catalog as tab-separated text and return it.

    One row per id: id, stage indices and names, status, detail, then one
    column per axiom holding ``value(source)``.
    """
    buf = io.StringIO()
    header = ["id", "first", "first_name", "second", "second_name", "status", "detail"]
    header += list(AXIOM_KEYS)
    buf.write("\t".join(header) + "\n")
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
        for axiom in AXIOM_KEYS:
            value, source = entry.flags[axiom]
            row.append(f"{value}({source})" if source else value)
        buf.write("\t".join(row) + "\n")
    text = buf.getvalue()
    if stream is not None:
        stream.write(text)
    return text
