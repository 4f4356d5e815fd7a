"""Spans around the calls into each layer of ``twostage``, for traced runs.

The wrappers are installed on the names where the package looks them up
(module globals of ``twostage.procedures`` and ``twostage.axioms``, and
methods of ``Profile``, ``Procedure`` and ``TwoStage``), so no file of the
package changes.  Each span keeps its name, start, end and parent in
compact arrays in memory; :meth:`Tracer.save` writes them out at the end of
a run and :meth:`Tracer.layer_totals` turns them into per-layer counts and
self times (a span's duration minus the part its child spans cover).
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ROOT = "bench.op"

# Layer names used in the report.  ``profiles.support`` is every call that
# computes the pairwise support matrix S: the majority relation and the
# tournament matrix both do.
SUPPORT = "profiles.support"
CONTRACT = "profiles.contract"
BUILD = "profiles.build"
GRADES = "profiles.grades"
KERNEL = "procedures.kernel"
COMPOSE = "catalog.compose"
ENUMERATE = "axioms.enumerate"
CHECK = "axioms.check"
IMPROVE = "axioms.improve"


class Tracer:
    """Records nested spans while installed; restores every name on removal."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def root_id(self) -> int:
        return self._name_id(ROOT)

    def wrap(self, fn, name: str, on_result=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, count: str):
        """One span per item drawn; consumer time between items is not
        counted, so the span measures producing the item only."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counters[count] += 1
                yield item

        return traced

    # -- installation -------------------------------------------------

    def install(self) -> None:
        from twostage import axioms, procedures
        from twostage.catalog import TwoStage
        from twostage.procedures import Procedure
        from twostage.profiles import Profile

        def support_bytes(result):
            arr = getattr(result, "matrix", None)
            if arr is None:
                arr = result.counts
            self.counters["support_bytes"] += arr.nbytes

        def shortlist(result):
            self.counters["compose_empty"] += not result[0]

        from_ranks = Profile.__dict__["from_ranks"].__func__
        plan = [
            (procedures, "majority_relation", self.wrap(procedures.majority_relation, SUPPORT, support_bytes)),
            (procedures, "tournament_matrix", self.wrap(procedures.tournament_matrix, SUPPORT, support_bytes)),
            (procedures, "contract", self.wrap(procedures.contract, CONTRACT)),
            (procedures, "grade_table", self.wrap(procedures.grade_table, GRADES)),
            (axioms, "all_profiles", self.wrap_generator(axioms.all_profiles, ENUMERATE, "enumerated")),
            (axioms, "check_axiom", self.wrap(axioms.check_axiom, CHECK)),
            (axioms, "improve", self.wrap(axioms.improve, IMPROVE)),
            (Profile, "__init__", self.wrap(Profile.__init__, BUILD)),
            (Profile, "from_ranks", classmethod(self.wrap(from_ranks, BUILD))),
            (TwoStage, "choose_detailed", self.wrap(TwoStage.choose_detailed, COMPOSE, shortlist)),
        ]
        for method in ("choose", "choose_mu", "choose_grades", "choose_support"):
            plan.append((Procedure, method, self.wrap(getattr(Procedure, method), KERNEL)))
        for owner, attr, replacement in plan:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        return name, parent, dur

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``{layer: (calls, self seconds)}``.  Nested spans of one layer
        (a rule's ``choose`` calling its own ``choose_mu``) count as one
        call; their self times add up."""
        name, parent, dur = self._arrays()
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        parent_name = np.full(len(name), -1, dtype=np.int64)
        parent_name[has_parent] = name[parent[has_parent]]
        out = {}
        for nid, layer in enumerate(self.names):
            mine = name == nid
            outer = mine & (parent_name != nid)
            out[layer] = (int(outer.sum()), float(self_time[mine].sum()))
        return out

    def save(self, path) -> None:
        name, parent, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class CountingRule:
    """Stands in for the rule handed to the checkers and counts its calls."""

    def __init__(self, rule, counters: Counter):
        self._rule = rule
        self._counters = counters

    def choose(self, p, subset=None):
        self._counters["rule_calls"] += 1
        return self._rule.choose(p, subset)
