"""Bounded witness enumeration and refutation for the reducibility orders.

Every search here, for a reducibility claim or for a completion-order claim,
is made of three pieces, each implemented once:

* `first_holding` is the one candidate loop.  It checks candidates in order,
  counts failures and timeouts, reads the time cap before each candidate and
  returns the first one that holds.
* `assignments` is the one enumerator of every assignment of options to
  keys: graphs, choice functions, point maps and palettes of families.  The
  options of the last key vary fastest.
* `images_of` is the one image walk: a realizer applied to each argument in
  turn, stopping at the first image that is undefined or not allowed.

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
    COMPUTABLE_BASED,
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
    return first_holding(_candidates(pca, doc, lhs, rhs, budget),
                         lambda cand: check_le(pca, doc, lhs, rhs, cand, budget.fuel), budget)


def first_holding(candidates, check, budget: SearchBudget) -> SearchOutcome:
    """The first candidate whose verdict ``check(candidate)`` holds.

    A candidate whose check raises CheckError counts as a failure, one whose
    verdict is unknown as a timeout.  The clock starts here and is read after
    each candidate is drawn, so the time cap covers building candidates."""
    failures = timeouts = 0
    clock = _Clock(budget.time_cap)
    for cand in candidates:
        if clock.expired():
            return SearchOutcome(UNKNOWN, None, budget.witness_size, failures, timeouts, True)
        try:
            verdict = check(cand)
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


def assignments(keys, options) -> Iterator[dict]:
    """Every dict giving ``keys[i]`` one of ``options[i]``, the options of
    the last key varying fastest."""
    return (dict(zip(keys, values)) for values in itertools.product(*options))


def images_of(pca: Pca, t, args, allowed, fuel: int | None) -> tuple | None:
    """The images of ``t`` applied to each argument in turn, or None at the
    first image that is undefined or not in ``allowed``."""
    images = []
    for a in args:
        out = apply(pca, t, a, fuel)
        if not out.is_defined or out.term not in allowed:
            return None
        images.append(out.term)
    return tuple(images)


def _candidates(pca, doc, lhs, rhs, budget):
    size = budget.witness_size
    if doc in ("T", "M", "dW", "dsW", "drW", "dextW"):
        return (Uniform(t) for t in iter_computable(size))
    if doc in ("Tw", "Mw"):
        return _per_point_candidates(pca, lhs, rhs, budget)
    if doc in ("classicalW", "classicalSW", "W", "SW"):
        return _forward_backward_candidates(pca, doc, lhs, rhs, budget)
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
    for t in iter_computable(budget.witness_size):
        images = images_of(pca, t, source.points, target, budget.fuel)
        if images is not None and images not in seen:
            seen.add(images)
            yield FinMap(source, target, dict(zip(source.points, images)), t)


def _forward_backward_candidates(pca, doc, lhs, rhs, budget):
    """Every forward map, each followed by every backward term.  The classical
    orders map base to base; W and SW map the product of lhs's base and index
    to rhs's index."""
    if doc in ("W", "SW"):
        source, target = carrier_product(pca, lhs.base, lhs.index).object, rhs.index
    else:
        source, target = lhs.base, rhs.base
    for k in forward_map_candidates(pca, source, target, budget):
        for h in iter_computable(budget.witness_size):
            yield ForwardBackward(k, h)


def _ext_candidates(pca, lhs, rhs, budget):
    prod = ext_product(pca, lhs.base, lhs.index)
    slots = prod.object.naming
    names = [name for name, _ in slots]
    target = rhs.index
    offered = {}  # the naming is sorted, so each name's points come in point order
    for n, z in target.naming:
        offered.setdefault(n, []).append(z)
    for t in iter_computable(budget.witness_size):
        images = images_of(pca, t, names, offered, budget.fuel)
        if images is None:
            continue
        for pointmap in assignments(slots, [offered[n] for n in images]):
            km = ExtMorphism(prod.object, target, t, pointmap)
            for h in iter_computable(budget.witness_size):
                yield ExtForwardBackward(km, h)


def _ext_strong_candidates(pca, lhs: ExtendedPredicate, rhs: ExtendedPredicate, budget):
    dom = lhs.effective_dom
    keys = [(p, a) for p in dom for a in sorted(lhs.table[p], key=point_key)]
    offered = {y: sorted(rhs.table[y], key=point_key) for y in rhs.dom if rhs.table[y]}
    for k in iter_computable(budget.witness_size):
        images = images_of(pca, k, dom, offered, budget.fuel)
        if images is None:
            continue
        image = dict(zip(dom, images))
        for choice in assignments(keys, [offered[image[p]] for p, _ in keys]):
            for h in iter_computable(budget.witness_size):
                yield ExtStrong(k, choice, h)


def _dialectica_candidates(pca, lhs: DialecticaPredicate, rhs: DialecticaPredicate, budget):
    keys = list(lhs.relation)
    options = [sorted((b for (x2, b) in rhs.relation if x2 == x), key=point_key) for x, _ in keys]
    for choice in assignments(keys, options):
        for h in iter_computable(budget.witness_size):
            yield DialecticaWitness(choice, h)


# ---------------------------------------------------------------------------
# Completion order search


def search_completion_witness(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                              budget: SearchBudget) -> SearchOutcome:
    """Least mediated witness for lhs <= rhs in a completion fiber."""
    return first_holding(_completion_candidates(pca, lhs, rhs, budget),
                         lambda cand: comp_le(pca, lhs, rhs, cand, budget.fuel), budget)


def _completion_candidates(pca, lhs, rhs, budget):
    """Each mediator with each base witness.  Both lists are built when the
    first candidate is drawn, after the search's clock has started."""
    bases = _base_candidates(pca, lhs.doc, budget)
    for med in _mediator_candidates(pca, lhs, rhs, budget):
        for base in bases:
            yield CompletionWitness(med, base)


def _mediator_candidates(pca, lhs, rhs, budget):
    if lhs.kind == "exists":
        src, tgt = lhs.leg.source, rhs.leg.source
    else:
        src, tgt = rhs.leg.source, lhs.leg.source
    if isinstance(lhs.leg, FinMap):
        # reindexing a payload over a computable base needs a realized map
        if lhs.klass == "full" and lhs.doc not in COMPUTABLE_BASED:
            return all_graphs(src, tgt)
        return forward_map_candidates(pca, src, tgt, budget)
    raise CheckError("mediator search over assemblies is not implemented")


def all_graphs(src: FinSet, tgt: FinSet) -> list[FinMap]:
    """Every map src -> tgt as a bare graph, values varying fastest on the
    last source point, in point order."""
    return [FinMap(src, tgt, graph) for graph in assignments(src.points, [tgt.points] * len(src))]


def _base_candidates(pca, doc, budget):
    if doc in ("T", "M", "dW", "dsW", "drW", "dextW"):
        return [Uniform(t) for t in enumerate_computable(budget.witness_size)]
    if doc in ("Tw", "Mw"):
        return [Bounded(budget.witness_size)]
    raise CheckError(f"no base witness enumeration for doctrine {doc!r}")
