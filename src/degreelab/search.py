"""Bounded witness enumeration and refutation for the reducibility orders.

Candidates are drawn from the oracle-free term enumeration in its fixed
size-lexicographic order; composite witnesses iterate forward candidates in
that order, then any auxiliary assignments lexicographically by point, then
backward candidates.  The first Holding witness in that order is returned and
re-verified before it is reported, so Found outcomes are sound by
construction.  A search never claims absolute non-reducibility: exhausting
the bound only reports the bound.

A repeated claim is answered from the structure's search memo: the same
order, families equal in value, the same witness size and fuel give the
outcome the first search of that claim reached, without checking a
candidate again (see `search_witness`).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator

from .completions import CompletionObject, CompletionWitness, comp_le
from .doctrines import (
    Bounded,
    CheckError,
    DialecticaPredicate,
    DialecticaWitness,
    ExtForwardBackward,
    ExtStrong,
    ExtendedPredicate,
    ForwardBackward,
    PerPoint,
    Uniform,
    check_le,
    find_inner_witness,
    positions,
)
from .pca import Pca, apply, enumerate_computable, iter_computable
from .spaces import ExtMorphism, FinMap, FinSet, carrier_product, ext_product, point_key

FOUND = "found"
EXHAUSTED = "exhausted"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchBudget:
    witness_size: int = 7
    fuel: int | None = None
    time_cap: float | None = None  # seconds, wall clock

    def __post_init__(self):
        if self.witness_size < 0:
            raise CheckError("witness size bound must be non-negative")


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    witness: object | None = None
    bound: int = 0
    failures: int = 0
    timeouts: int = 0
    clock_stopped: bool = False  # the time cap ended the search

    @property
    def found(self) -> bool:
        return self.status == FOUND

    @property
    def checked(self) -> int:
        return self.failures + self.timeouts


class _Clock:
    def __init__(self, cap: float | None):
        self.cap = cap
        self.start = time.monotonic()

    def expired(self) -> bool:
        return self.cap is not None and time.monotonic() - self.start > self.cap


def search_witness(pca: Pca, doc: str, lhs, rhs, budget: SearchBudget) -> SearchOutcome:
    """The least Holding witness within the budget, else the exhausted bound.

    The outcome is a pure function of the structure and ``(doc, lhs, rhs,
    witness size, fuel)``: candidate order, positions and verdict statuses
    depend on the families' values only, and an outcome carries no notes.
    So ``pca._searches`` keeps the outcome of every search that ran to its
    end and answers a repeated claim from it, with no ``check_le`` call.  A
    search the time cap stopped, or one that raised, stores nothing."""
    key = (doc, lhs, rhs, budget.witness_size, budget.fuel)
    outcome = pca._searches.get(key)
    if outcome is None:
        outcome = _search(pca, doc, lhs, rhs, budget)
        if not outcome.clock_stopped:
            pca._searches[key] = outcome
    return outcome


def _search(pca: Pca, doc: str, lhs, rhs, budget: SearchBudget) -> SearchOutcome:
    """search_witness without the memo: one check_le call per candidate."""
    gen = _candidates(pca, doc, lhs, rhs, budget)
    failures = timeouts = 0
    clock = _Clock(budget.time_cap)
    for cand in gen:
        if clock.expired():
            return SearchOutcome(UNKNOWN, None, budget.witness_size, failures, timeouts, True)
        try:
            verdict = check_le(pca, doc, lhs, rhs, cand, budget.fuel)
        except CheckError:
            failures += 1
            continue
        if verdict.holds:
            return SearchOutcome(FOUND, cand, budget.witness_size, failures, timeouts)
        if verdict.unknown:
            timeouts += 1
        else:
            failures += 1
    status = UNKNOWN if timeouts else EXHAUSTED
    return SearchOutcome(status, None, budget.witness_size, failures, timeouts)


def _candidates(pca, doc, lhs, rhs, budget):
    size = budget.witness_size
    if doc in ("T", "M", "dW", "dsW", "drW", "dextW"):
        return (Uniform(t) for t in iter_computable(size))
    if doc in ("Tw", "Mw"):
        return _per_point_candidates(pca, lhs, rhs, budget)
    if doc in ("classicalW", "classicalSW"):
        return _classical_candidates(pca, lhs, rhs, budget)
    if doc in ("W", "SW"):
        return _generalized_candidates(pca, lhs, rhs, budget)
    if doc in ("rW", "tW"):
        return _ext_candidates(pca, lhs, rhs, budget)
    if doc == "extsW":
        return _ext_strong_candidates(pca, lhs, rhs, budget)
    if doc == "D":
        return _dialectica_candidates(pca, lhs, rhs, budget)
    raise CheckError(f"unknown doctrine id {doc!r}")


def _per_point_candidates(pca, lhs, rhs, budget):
    """The least per-position table, the one candidate.  A position with no
    witness in the bound yields none, unless a candidate ran out of fuel
    there: then the Bounded witness, which check_le reports unknown."""
    table = {}
    for key, arg, allowed, _ in positions(lhs, rhs):
        found, timed_out = find_inner_witness(pca, arg, allowed, budget.witness_size, budget.fuel)
        if found is None:
            if timed_out:
                yield Bounded(budget.witness_size)
            return
        table[key] = found
    yield PerPoint(table)


def forward_map_candidates(pca, source: FinSet, target: FinSet, budget) -> Iterator[FinMap]:
    """Realized maps source -> target found by enumerating realizer terms.

    Yields one candidate per distinct graph, tagged by the least realizer
    producing it, in realizer enumeration order.
    """
    seen = set()
    points = set(target.points)
    for t in iter_computable(budget.witness_size):
        graph = {}
        for x in source:
            out = apply(pca, t, x, budget.fuel)
            if not out.is_defined or out.term not in points:
                break
            graph[x] = out.term
        else:
            key = tuple(sorted(((point_key(k), point_key(v)) for k, v in graph.items())))
            if key not in seen:
                seen.add(key)
                yield FinMap(source, target, graph, t)


def _classical_candidates(pca, lhs, rhs, budget):
    for k in forward_map_candidates(pca, lhs.base, rhs.base, budget):
        for h in iter_computable(budget.witness_size):
            yield ForwardBackward(k, h)


def _generalized_candidates(pca, lhs, rhs, budget):
    prod = carrier_product(pca, lhs.base, lhs.index)
    for k in forward_map_candidates(pca, prod.object, rhs.index, budget):
        for h in iter_computable(budget.witness_size):
            yield ForwardBackward(k, h)


def _ext_candidates(pca, lhs, rhs, budget):
    prod = ext_product(pca, lhs.base, lhs.index)
    names = prod.object.naming
    target = rhs.index
    target_names = {}
    for n, z in target.naming:
        target_names.setdefault(n, []).append(z)
    for t in iter_computable(budget.witness_size):
        images = {}
        ok = True
        for name, pt in names:
            out = apply(pca, t, name, budget.fuel)
            if not out.is_defined or out.term not in target_names:
                ok = False
                break
            images[(name, pt)] = out.term
        if not ok:
            continue
        slots = list(names)
        choices = [sorted(target_names[images[key]], key=point_key) for key in slots]
        for assignment in itertools.product(*choices):
            km = ExtMorphism(prod.object, target, t, dict(zip(slots, assignment)))
            for h in iter_computable(budget.witness_size):
                yield ExtForwardBackward(km, h)


def _ext_strong_candidates(pca, lhs: ExtendedPredicate, rhs: ExtendedPredicate, budget):
    for k in iter_computable(budget.witness_size):
        keys = []
        options = []
        ok = True
        for p in lhs.effective_dom:
            out = apply(pca, k, p, budget.fuel)
            if not out.is_defined or out.term not in rhs.dom or not rhs.table[out.term]:
                ok = False
                break
            offered = sorted(rhs.table[out.term], key=point_key)
            for a in sorted(lhs.table[p], key=point_key):
                keys.append((p, a))
                options.append(offered)
        if not ok:
            continue
        for assignment in itertools.product(*options):
            choice = dict(zip(keys, assignment))
            for h in iter_computable(budget.witness_size):
                yield ExtStrong(k, choice, h)


def _dialectica_candidates(pca, lhs: DialecticaPredicate, rhs: DialecticaPredicate, budget):
    keys = list(lhs.relation)
    options = []
    for (x, a) in keys:
        offered = sorted((b for (x2, b) in rhs.relation if x2 == x), key=point_key)
        if not offered:
            return
        options.append(offered)
    for assignment in itertools.product(*options):
        choice = dict(zip(keys, assignment))
        for h in iter_computable(budget.witness_size):
            yield DialecticaWitness(choice, h)


# ---------------------------------------------------------------------------
# Completion order search


def search_completion_witness(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                              budget: SearchBudget) -> SearchOutcome:
    """Least mediated witness for lhs <= rhs in a completion fiber."""
    failures = timeouts = 0
    clock = _Clock(budget.time_cap)
    bases = _base_candidates(pca, lhs.doc, budget)
    for med in _mediator_candidates(pca, lhs, rhs, budget):
        for base in bases:
            if clock.expired():
                return SearchOutcome(UNKNOWN, None, budget.witness_size, failures, timeouts, True)
            cand = CompletionWitness(med, base)
            try:
                verdict = comp_le(pca, lhs, rhs, cand, budget.fuel)
            except CheckError:
                failures += 1
                continue
            if verdict.holds:
                return SearchOutcome(FOUND, cand, budget.witness_size, failures, timeouts)
            if verdict.unknown:
                timeouts += 1
            else:
                failures += 1
    status = UNKNOWN if timeouts else EXHAUSTED
    return SearchOutcome(status, None, budget.witness_size, failures, timeouts)


def _mediator_candidates(pca, lhs, rhs, budget):
    if lhs.kind == "exists":
        src, tgt = lhs.leg.source, rhs.leg.source
    else:
        src, tgt = rhs.leg.source, lhs.leg.source
    if isinstance(lhs.leg, FinMap):
        if lhs.klass == "full":
            return all_graphs(src, tgt)
        return forward_map_candidates(pca, src, tgt, budget)
    raise CheckError("mediator search over assemblies is not implemented")


def all_graphs(src: FinSet, tgt: FinSet) -> list[FinMap]:
    """Every map src -> tgt as a bare graph, values varying fastest on the
    last source point, in point order."""
    points = list(src.points)
    return [FinMap(src, tgt, dict(zip(points, values)))
            for values in itertools.product(tgt.points, repeat=len(points))]


def _base_candidates(pca, doc, budget):
    if doc in ("T", "M", "dW", "dsW", "drW", "dextW"):
        return [Uniform(t) for t in enumerate_computable(budget.witness_size)]
    if doc in ("Tw", "Mw"):
        return [Bounded(budget.witness_size)]
    raise CheckError(f"no base witness enumeration for doctrine {doc!r}")
