"""Bounded witness enumeration and refutation for the reducibility orders.

Every search here, for a reducibility claim or for a completion-order claim,
is made of three pieces, each implemented once:

* `first_holding` is the one candidate loop.  It decides candidates in
  order, each by one ``check_le`` call or, for a uniform term whose action
  key already has a shared refutation, by that verdict; it counts failures,
  timeouts and malformed candidates, reads the time cap (if one is set)
  before each candidate and returns the first one that holds.
* `assignments` is the one enumerator of every assignment of options to
  keys: graphs, choice functions, point maps and palettes of families.  The
  options of the last key vary fastest.
* `images_of` is the one image walk: a realizer applied to each argument in
  turn by its action key, up to the first image undefined or not allowed.

A search compiles its claim first (`doctrines.compile_claim`), then walks
the candidates picked by the first witness class of its order's record
(`_WALKS`): uniform terms, one per-point table, forward maps (carrier maps
or assembly morphisms, between the compiled claim's endpoints) with
backward terms, or choices with backward terms.  Candidates are drawn from
the oracle-free term enumeration in its fixed size-lexicographic order;
composite witnesses iterate forward candidates in that order, then any
auxiliary assignments lexicographically by point, then backward
candidates.  Terms that share an action key (`pca.action_key`) act alike,
so a uniform term whose key's verdict at the compiled claim is a shared
refutation standing for it (`doctrines.shared_verdict`) is a failure with
no ``check_le`` call.  The first Holding witness in that order is returned
as it was checked: its own ``check_le`` verdict is the proof, so Found
outcomes are sound by construction.  A search never claims absolute
non-reducibility: exhausting the bound only reports the bound.

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

from .completions import CompletionObject, CompletionWitness, comp_le, mediator_ends
from .doctrines import (
    COMPUTABLE,
    ORDERS,
    Bounded,
    CheckError,
    DialecticaWitness,
    ExtStrong,
    ForwardBackward,
    PerPoint,
    Uniform,
    check_le,
    compile_claim,
    find_inner_witness,
    order_of,
    shared_verdict,
)
from .pca import DEFINED, Pca, act, action_key, iter_computable
from .spaces import Assembly, ExtMorphism, FinMap, FinSet
from .verdicts import HOLDS, REFUTED, Verdict

FOUND = "found"
EXHAUSTED = "exhausted"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SearchBudget:
    witness_size: int = 7
    fuel: int | None = None
    time_cap: float | None = None  # seconds, wall clock; 0 stops before the first candidate

    def __post_init__(self):
        if self.witness_size < 0:
            raise CheckError("witness size bound must be non-negative")
        if self.time_cap is not None and not self.time_cap >= 0:  # NaN compares false
            raise CheckError(f"time cap must be a non-negative number of seconds, not {self.time_cap}")


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    witness: object | None = None
    bound: int = 0
    failures: int = 0  # candidates refuted
    timeouts: int = 0  # candidates left unknown
    clock_stopped: bool = False  # the time cap ended the search
    malformed: int = 0  # candidates whose check raised CheckError

    @property
    def found(self) -> bool:
        return self.status == FOUND

    @property
    def checked(self) -> int:
        return self.failures + self.timeouts + self.malformed


class _Clock:
    def __init__(self, cap: float):
        self.cap = cap
        self.start = time.monotonic()

    def expired(self) -> bool:
        return time.monotonic() - self.start > self.cap


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
    """search_witness without the memo: the claim's family and base gates,
    which refuse an ill-formed claim, then each candidate decided by a
    check_le call or by its action key's shared refutation."""
    claim = compile_claim(pca, doc, lhs, rhs)
    return first_holding(_WALKS[claim.order.shapes[0]](pca, claim, budget),
                         lambda cand: check_le(pca, doc, lhs, rhs, cand, budget.fuel), budget)


def first_holding(candidates, check, budget: SearchBudget) -> SearchOutcome:
    """The first candidate whose verdict ``check(candidate)`` holds.

    A walk may yield, in place of a candidate, that candidate's verdict
    already decided (a uniform term's by its action key's shared
    refutation, `_uniform_candidates`): it is read, not checked.  A
    candidate whose check raises CheckError counts as malformed, one whose
    verdict is refuted as a failure and one whose verdict is unknown as a
    timeout.  A search that left some candidate unknown or malformed has
    not ruled that one out, so it is unknown, not exhausted.  The
    clock starts here, when a time cap is set, and is read after each
    candidate is drawn, so the time cap covers building candidates."""
    failures = timeouts = malformed = 0
    bound = budget.witness_size
    clock = None if budget.time_cap is None else _Clock(budget.time_cap)
    for cand in candidates:
        if clock is not None and clock.expired():
            return SearchOutcome(UNKNOWN, None, bound, failures, timeouts, True, malformed)
        if cand.__class__ is Verdict:
            status = cand.status
        else:
            try:
                status = check(cand).status
            except CheckError:
                malformed += 1
                continue
        if status == HOLDS:
            return SearchOutcome(FOUND, cand, bound, failures, timeouts, False, malformed)
        if status == REFUTED:
            failures += 1
        else:
            timeouts += 1
    status = UNKNOWN if timeouts or malformed else EXHAUSTED
    return SearchOutcome(status, None, bound, failures, timeouts, False, malformed)


def assignments(keys, options) -> Iterator[dict]:
    """Every dict giving ``keys[i]`` one of ``options[i]``, the options of
    the last key varying fastest."""
    return (dict(zip(keys, values)) for values in itertools.product(*options))


def images_of(pca: Pca, t, args, allowed, fuel: int | None) -> tuple | None:
    """The images of the computable ``t`` on each argument in turn, by its
    action key, or None at the first image undefined or not in ``allowed``.
    Each is the key's at the whole fuel, the p steps before the key acts
    charged after (`pca.act`)."""
    fuel = pca.default_fuel if fuel is None else fuel
    key, p = action_key(t, fuel)
    images = []
    for a in args:
        status, image, _, steps = act(pca, key, a, fuel)
        if status != DEFINED or steps + p > fuel or image not in allowed:
            return None
        images.append(image)
    return tuple(images)


def _uniform_candidates(pca, claim, budget):
    """Each term of the bound as a uniform witness, or in its place the
    refutation its action key shares at the compiled cells
    (`doctrines.shared_verdict`), the verdict check_le would return.  A
    shared holding verdict is checked, so a found witness has its own."""
    cells = claim.compiled
    fuel = pca.default_fuel if budget.fuel is None else budget.fuel
    for t in iter_computable(budget.witness_size):
        key, p = action_key(t, fuel)
        known = shared_verdict(cells, key, p, fuel)
        yield Uniform(t) if known is None or known[0] is None else known[0]


def _per_point_candidates(pca, claim, budget):
    """The least table over the compiled cells, the one candidate.  A
    position with no witness in the bound yields none, unless a candidate
    ran out of fuel there: then the Bounded witness, which check_le reports
    unknown.  A cell that refutes unevaluated (Mw's empty set) yields none."""
    table = {}
    for key, arg, allowed, _, _ in claim.compiled:
        if allowed is None:
            return
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


def _forward_backward_candidates(pca, claim, budget):
    """Every forward map from the compiled claim's source to its target,
    each followed by every backward term: carrier maps for W, SW and the
    classical orders, assembly morphisms for rW and tW."""
    forward = claim.compiled
    walk = _ext_morphism_candidates if isinstance(forward.source, Assembly) else forward_map_candidates
    for k in walk(pca, forward.source, forward.target, budget):
        for h in iter_computable(budget.witness_size):
            yield ForwardBackward(k, h)


def _ext_morphism_candidates(pca, source: Assembly, target: Assembly, budget) -> Iterator[ExtMorphism]:
    """Ext morphisms source -> target: each realizer whose images of the
    names of source are names of target, with every choice of points."""
    slots = source.naming
    names = [name for name, _ in slots]
    offered = {}  # the naming is sorted, so each name's points come in point order
    for n, z in target.naming:
        offered.setdefault(n, []).append(z)
    for t in iter_computable(budget.witness_size):
        images = images_of(pca, t, names, offered, budget.fuel)
        if images is not None:
            for pointmap in assignments(slots, [offered[n] for n in images]):
                yield ExtMorphism(source, target, t, pointmap)


def _ext_strong_candidates(pca, claim, budget):
    rows, offered = claim.compiled
    dom = [p for p, _ in rows]
    keys = [(p, a) for p, sets in rows for a in sets]
    for k in iter_computable(budget.witness_size):
        images = images_of(pca, k, dom, offered, budget.fuel)
        if images is None:
            continue
        image = dict(zip(dom, images))
        for choice in assignments(keys, [offered[image[p]] for p, _ in keys]):
            for h in iter_computable(budget.witness_size):
                yield ExtStrong(k, choice, h)


def _dialectica_candidates(pca, claim, budget):
    relation, answers = claim.compiled
    keys = [(x, a) for x, a, _ in relation]
    options = [[b for y, b in answers if y == x] for x, _ in keys]
    for choice in assignments(keys, options):
        for h in iter_computable(budget.witness_size):
            yield DialecticaWitness(choice, h)


# The candidate walk of each order, chosen by the first witness class it takes
_WALKS = {
    Uniform: _uniform_candidates,
    PerPoint: _per_point_candidates,
    ForwardBackward: _forward_backward_candidates,
    ExtStrong: _ext_strong_candidates,
    DialecticaWitness: _dialectica_candidates,
}


# ---------------------------------------------------------------------------
# Completion order search


def search_completion_witness(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                              budget: SearchBudget) -> SearchOutcome:
    """Least mediated witness for lhs <= rhs in a completion fiber whose
    payloads are base elements."""
    if isinstance(lhs.payload, CompletionObject) or isinstance(rhs.payload, CompletionObject):
        raise CheckError("completion search takes objects whose payloads are base elements")
    return first_holding(_completion_candidates(pca, lhs, rhs, budget),
                         lambda cand: comp_le(pca, lhs, rhs, cand, budget.fuel), budget)


def _completion_candidates(pca, lhs, rhs, budget):
    """Each mediator with each base witness, mediator-major.  The base
    witnesses are walked afresh for each mediator, so no list of them is
    built and the clock is read before each candidate."""
    bases = _base_candidates(lhs.doc, budget)
    for med in _mediator_candidates(pca, lhs, rhs, budget):
        for base in bases():
            yield CompletionWitness(med, base)


def _mediator_candidates(pca, lhs, rhs, budget):
    src, tgt = (obj.leg.source for obj in mediator_ends(lhs.kind, lhs, rhs))
    if isinstance(lhs.leg, FinMap):
        # reindexing a payload over a computable base needs a realized map
        if lhs.klass == "full" and ORDERS[lhs.doc].base != COMPUTABLE:
            return all_graphs(src, tgt)
        return forward_map_candidates(pca, src, tgt, budget)
    raise CheckError("mediator search over assemblies is not implemented")


def all_graphs(src: FinSet, tgt: FinSet) -> list[FinMap]:
    """Every map src -> tgt as a bare graph, values varying fastest on the
    last source point, in point order."""
    return [FinMap(src, tgt, graph) for graph in assignments(src.points, [tgt.points] * len(src))]


def _base_candidates(doc, budget):
    """A function giving a fresh walk of the base witnesses for doc: its
    uniform terms, or its bounded witness where it takes per-point ones."""
    shape = order_of(doc).shapes[0]
    if shape is Uniform:
        return lambda: map(Uniform, iter_computable(budget.witness_size))
    if shape is PerPoint:
        return lambda: [Bounded(budget.witness_size)]
    raise CheckError(f"no base witness enumeration for doctrine {doc!r}")
