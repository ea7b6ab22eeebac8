"""Reducibility orders as witness-checked relations on fibers.

Each order is identified by a short doctrine id and checked by exhausting the
finite base (and index) objects:

==============  ============================================================
id              condition verified for a claim ``lhs <= rhs``
==============  ============================================================
T               a.beta(x) = alpha(x) for every base point x (uniform a)
Tw              per-point a_x with a_x.beta(x) = alpha(x)
M               a.b in phi(x) for every x and b in psi(x) (uniform a)
Mw              per solution (x, b in psi(x)) some computable a.b in phi(x)
dW              h.<p,q> in f(p) for every p and q in g(p)
dsW             h.q in f(p)
drW             h.<p,q> in f(p,x) over naming pairs (nonempty fibers)
dextW           h.<p,q> in f(p,x) over naming pairs (empty fibers allowed)
W               h.<<x,y>,q> in F(x,y), q ranging over G(x, k.<x,y>)
SW              h.q in F(x,y), same range
rW              h.<<p,q>,t> in F((p,x),(q,y)), t over G at the (k,phi)-image
tW              same condition with empty solution sets allowed
classicalW      h.<p,q> in f(p), q over g(k.p)
classicalSW     h.q in f(p), q over g(k.p)
extsW           per p, A in f(p): a chosen B in g(k.p) with h.B inside A
D               per (x, A): a chosen (x, B) with h.G(x,B) inside F(x, A)
==============  ============================================================

Each order compiles to structural gates (family shapes, bases,
computability, forward maps, choices) plus an ordered stream of
obligations, one per quantified position: a realizer ``fn`` must send
``arg`` into a solution set.  One kernel discharges every stream.  Solution
sets contain normal-form terms, so membership after evaluation is
syntactic.  Verdicts are three-way: a definite counterexample refutes, a
timeout is only ever Unknown, and streams follow the canonical point order
so the first counterexample is reproducible.

Most orders compile a claim once.  The first check of a claim runs its
family and base gates and compiles its notes.  For T, Tw, M, Mw and the
elementary orders the positions do not depend on the witness, and they are
built (each solution set sorted once) as checks first read them.  For the
forward-backward orders W, SW, rW and tW the compiled claim holds the
product of base and index; the positions depend on the forward map, so
they are built the same way for the last forward map read and reused for
every backward realizer paired with it.  The compiled claim is kept in a
one-entry cache on the structure, keyed by the doctrine id and the
identity of both families, which is correct only because families are
immutable.  Compiling evaluates nothing, so a ``Bounded`` witness still
runs its inner searches lazily.  Verdicts keep their locations raw and
render them only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from . import verdicts
from .pca import (
    FST,
    ID,
    PAIR,
    Pca,
    SND,
    abstract_all,
    apply,
    compose,
    compose_first,
    fanout,
    is_computable,
    iter_computable,
    normalize,
)
from .spaces import (
    Assembly,
    ExtMorphism,
    FinMap,
    FinSet,
    SpaceTimeout,
    carrier_product,
    compose_maps,
    ext_check,
    ext_product,
    key_image,
    keys,
    map_like,
    pair_key,
    point_key,
    point_text,
    product,
    product_components,
    projection_path,
    split_key,
)
from .terms import App, K, S, Term, Var, ap, has_oracle, pair_term, split_pair, term_key, to_text
from .verdicts import Verdict

ALLOW_EMPTY = "allow-empty"
NONEMPTY = "nonempty"

class CheckError(ValueError):
    """Witness/doctrine mismatch, non-computable witness, or base mismatch."""


class UndecidedError(Exception):
    """A bounded construction could not be completed within its bound."""


def sorted_terms(terms) -> tuple[Term, ...]:
    if len(terms) < 2:  # nothing to order: skip rendering the sort key
        return tuple(terms)
    return tuple(sorted(terms, key=term_key))


# ---------------------------------------------------------------------------
# Fibers


@dataclass(frozen=True)
class TrackedFamily:
    """A term for every base point."""

    base: FinSet
    values: Mapping[object, Term]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))
        if set(self.values) != set(self.base.points):
            raise CheckError("tracked family must be total on its base")

    def __hash__(self):
        return hash((self.base, frozenset(self.values.items())))


@dataclass(frozen=True)
class MassFamily:
    """A finite solution set for every base point."""

    base: FinSet
    values: Mapping[object, frozenset]
    policy: str = ALLOW_EMPTY
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", {k: frozenset(v) for k, v in self.values.items()})
        if set(self.values) != set(self.base.points):
            raise CheckError("mass family must be total on its base")
        if self.policy == NONEMPTY and any(not v for v in self.values.values()):
            raise CheckError("nonempty policy violated")

    def __eq__(self, other):
        if not isinstance(other, MassFamily):
            return NotImplemented
        return self.base == other.base and self.values == other.values and self.policy == other.policy

    def __hash__(self):
        return hash((self.base, frozenset(self.values.items())))


@dataclass(frozen=True)
class AssemblyFamily:
    """A finite solution set for every naming pair of an assembly."""

    base: Assembly
    values: Mapping[tuple, frozenset]
    policy: str = NONEMPTY

    def __post_init__(self):
        object.__setattr__(self, "values", {k: frozenset(v) for k, v in self.values.items()})
        if set(self.values) != set(self.base.naming):
            raise CheckError("assembly family must be total on the naming relation")
        if self.policy == NONEMPTY and any(not v for v in self.values.values()):
            raise CheckError("nonempty policy violated")

    def __eq__(self, other):
        if not isinstance(other, AssemblyFamily):
            return NotImplemented
        return self.base == other.base and self.values == other.values and self.policy == other.policy

    def __hash__(self):
        return hash((self.base, frozenset(self.values.items())))


@dataclass(frozen=True)
class Predicate:
    """A doubly indexed family: a solution set for every (base, index) pair.

    Over carriers the keys are (x, y); over assemblies they are pairs of
    naming pairs ((p, x), (q, y)).
    """

    base: object  # FinSet | Assembly
    index: object
    table: Mapping[tuple, frozenset]
    policy: str = NONEMPTY

    def __post_init__(self):
        object.__setattr__(self, "table", {k: frozenset(v) for k, v in self.table.items()})
        need = {(b, i) for b in keys(self.base) for i in keys(self.index)}
        if set(self.table) != need:
            raise CheckError("predicate table must be total on base x index")
        if self.policy == NONEMPTY and any(not v for v in self.table.values()):
            raise CheckError("nonempty policy violated")

    def __eq__(self, other):
        if not isinstance(other, Predicate):
            return NotImplemented
        return (
            self.base == other.base
            and self.index == other.index
            and self.table == other.table
            and self.policy == other.policy
        )

    def __hash__(self):
        return hash((self.base, self.index, frozenset(self.table.items())))


@dataclass(frozen=True)
class ExtendedPredicate:
    """A set of candidate solution sets for every element of a carrier."""

    dom: FinSet
    table: Mapping[Term, frozenset]  # term -> frozenset of frozensets

    def __post_init__(self):
        object.__setattr__(
            self, "table", {k: frozenset(frozenset(a) for a in v) for k, v in self.table.items()}
        )
        if set(self.table) != set(self.dom.points):
            raise CheckError("extended predicate must be total on its domain")

    def __hash__(self):
        return hash((self.dom, frozenset(self.table.items())))

    @property
    def effective_dom(self) -> tuple[Term, ...]:
        return tuple(p for p in self.dom if self.table[p])

    @property
    def is_notnot_dense(self) -> bool:
        """No candidate solution set is empty."""
        return all(frozenset() not in v for v in self.table.values())


@dataclass(frozen=True)
class DialecticaPredicate:
    """A solution set for every pair (x, A) of a finite relation on the base."""

    base: FinSet
    table: Mapping[tuple, frozenset]  # (x, A: frozenset) -> frozenset

    def __post_init__(self):
        fixed = {}
        for (x, a), v in self.table.items():
            if x not in self.base:
                raise CheckError(f"relation point {point_text(x)} outside base")
            fixed[(x, frozenset(a))] = frozenset(v)
        object.__setattr__(self, "table", fixed)

    def __hash__(self):
        return hash((self.base, frozenset(self.table.items())))

    @property
    def relation(self) -> tuple:
        return tuple(sorted(self.table, key=lambda xa: (point_key(xa[0]), point_key(xa[1]))))

    def related(self, x, a: frozenset) -> bool:
        return (x, frozenset(a)) in self.table


# ---------------------------------------------------------------------------
# Witnesses


@dataclass(frozen=True)
class Uniform:
    term: Term


@dataclass(frozen=True)
class PerPoint:
    """One computable term per quantified position (point, or (point, solution))."""

    mapping: Mapping[object, Term]

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))


@dataclass(frozen=True)
class Bounded:
    """Discharge inner existentials by enumerating computable terms up to a
    size bound instead of consulting a table."""

    bound: int


@dataclass(frozen=True)
class ForwardBackward:
    forward: FinMap  # computable map translating instances
    backward: Term


@dataclass(frozen=True)
class ExtForwardBackward:
    forward: ExtMorphism
    backward: Term


@dataclass(frozen=True)
class DialecticaWitness:
    choice: Mapping[tuple, frozenset]  # (x, A) -> chosen B
    backward: Term

    def __post_init__(self):
        object.__setattr__(self, "choice", {(x, frozenset(a)): frozenset(b) for (x, a), b in self.choice.items()})


@dataclass(frozen=True)
class ExtStrong:
    forward: Term
    choice: Mapping[tuple, frozenset]  # (p, A) -> chosen B
    backward: Term

    def __post_init__(self):
        object.__setattr__(self, "choice", {(p, frozenset(a)): frozenset(b) for (p, a), b in self.choice.items()})


Witness = object


def _require_computable(t: Term, role: str) -> None:
    if not is_computable(t):
        raise CheckError(f"{role} {to_text(t)} is not computable")


def _family_notes(*elems) -> tuple[str, ...]:
    notes: tuple[str, ...] = ()
    for e in elems:
        notes += getattr(e, "notes", ())
    return notes


# ---------------------------------------------------------------------------
# check_le: structural gates, then one ordered stream of obligations
#
# An obligation (fn, arg, allowed, where) asks that fn.arg be defined and in
# allowed; `where` holds the raw points, terms and reason strings that locate
# it.  A position settled without evaluation carries a sentinel fn.  A
# refuting obligation ends its stream: `_discharge` never resumes it.
#
# `Pca._claim` holds the last `_Claim` compiled (see the module docstring),
# so the consecutive candidates of a search pay only for their shape, their
# computability, their forward map and their evaluations.  A gate that
# fails compiles nothing, so it raises on every call; a check interrupted
# by an exception (a forward map out of fuel included) drops the claim.

_REFUTES = object()
_UNDECIDED = object()


def _refute(*where) -> tuple:
    return _REFUTES, None, None, where


def _undecided(*where) -> tuple:
    return _UNDECIDED, None, None, where


class _Stream:
    """Positions in canonical order, each built once, when a check first
    reads that far: a check refuted early leaves the rest unbuilt."""

    __slots__ = ("pending", "known")

    def __init__(self, pending: Iterator):
        self.pending = pending  # the positions no check has read yet
        self.known: list = []  # the positions read so far

    def __iter__(self):
        known = self.known
        yield from known
        # `for`, not `yield from`: closing this reader must not close pending
        for position in self.pending:
            known.append(position)
            yield position


class _Forward:
    """A compiled forward-backward claim: the object a forward map must
    start at and the one it must land in; and the last forward map read,
    with its positions, kept for every backward realizer paired with it,
    and the fuel it was last verified at (its endpoints and its gate are
    checked once per map and fuel)."""

    __slots__ = ("source", "target", "build", "forward", "stream", "verified")

    def __init__(self, source, target, build):
        self.source = source
        self.target = target
        self.build = build  # (forward map, fuel) -> its positions (arg, allowed, where)
        self.forward = self.stream = self.verified = None

    def passed(self, k, fuel) -> bool:
        """Whether forward map k is the last one read, with its endpoints
        checked and verified at fuel."""
        return k is self.forward and fuel == self.verified

    def positions(self, k, fuel) -> _Stream:
        """The positions of forward map k, whose endpoints the caller has
        checked and which it has verified at fuel."""
        if k is not self.forward:
            self.forward, self.stream = k, _Stream(self.build(k, fuel))
        self.verified = fuel
        return self.stream


@dataclass(frozen=True)
class _Claim:
    doc: str
    lhs: object
    rhs: object
    notes: tuple[str, ...]
    compiled: _Stream | _Forward  # what the order's compile step built


def check_le(pca: Pca, doc: str, lhs, rhs, w: Witness, fuel: int | None = None) -> Verdict:
    """Verify the witnessed claim ``lhs <=_doc rhs`` exhaustively; unknown
    when a realizer the check needs runs out of fuel."""
    if doc not in _ORDERS:
        raise CheckError(f"unknown doctrine id {doc!r}")
    shapes, compile_claim, obligations = _ORDERS[doc]
    if not isinstance(w, shapes):
        names = "/".join(c.__name__ for c in shapes)
        raise CheckError(f"doctrine {doc} needs a {names} witness, got {type(w).__name__}")
    if compile_claim is None:
        stream, notes = obligations(pca, doc, lhs, rhs, w, fuel), _family_notes(lhs, rhs)
    else:
        claim = pca._claim
        if claim is None or claim.lhs is not lhs or claim.rhs is not rhs or claim.doc != doc:
            claim = _Claim(doc, lhs, rhs, _family_notes(lhs, rhs), compile_claim(pca, doc, lhs, rhs))
            pca._claim = claim
        stream, notes = obligations(pca, doc, claim.compiled, w, fuel), claim.notes
    try:
        return _discharge(pca, stream, w, fuel, notes)
    except BaseException as e:
        pca._claim = None  # else a position that failed to build is skipped next time
        if isinstance(e, SpaceTimeout):
            return verdicts.unknown((str(e),))
        raise


def _discharge(pca: Pca, obligations, w: Witness, fuel: int | None, notes: tuple[str, ...]) -> Verdict:
    """The first definite miss refutes; a timeout leaves its position
    unknown.  Locations stay raw: the verdict renders them when read."""
    timeouts = []
    for fn, arg, allowed, where in obligations:
        if fn is _UNDECIDED:
            timeouts.append(where)
            continue
        if fn is not _REFUTES:
            out = apply(pca, fn, arg, fuel)
            if out.status == "timeout":
                timeouts.append(where + ("timeout",))
                continue
            if out.is_defined and out.term in allowed:
                continue
        return verdicts.refuted(where, notes=notes)
    if timeouts:
        return verdicts.unknown(tuple(timeouts), notes=notes)
    return verdicts.holds(w, notes=notes)


def positions(lhs, rhs):
    """The quantified positions of a T, Tw, M or Mw claim in canonical
    order, as ``(key, arg, allowed, where)``: a realizer must send ``arg``
    into ``allowed``, and a per-point witness gives it at ``key``.  Tracked
    families have one position per base point x (arg beta(x), allowed
    {alpha(x)}); mass families one per x and b in psi(x) (arg b, allowed
    phi(x))."""
    if isinstance(lhs, TrackedFamily):
        for x in lhs.base:
            b = rhs.values[x]
            yield x, b, frozenset((lhs.values[x],)), (x, b)
        return
    for x in lhs.base:
        allowed = lhs.values[x]
        for b in sorted_terms(rhs.values[x]):
            key = (x, b)
            yield key, b, allowed, key


def _pointwise_positions(pca, doc, lhs, rhs) -> _Stream:
    tracked = doc in ("T", "Tw")
    family = TrackedFamily if tracked else MassFamily
    if not isinstance(lhs, family) or not isinstance(rhs, family):
        raise CheckError("tracked doctrine needs tracked families" if tracked
                         else "mass doctrine needs mass families")
    if lhs.base != rhs.base:
        raise CheckError("base mismatch")
    return _Stream(positions(lhs, rhs))


def _elementary_positions(pca, doc, lhs, rhs) -> _Stream:
    if not isinstance(lhs, MassFamily) or not isinstance(rhs, MassFamily):
        raise CheckError("elementary reducibility needs mass families over a carrier")
    if lhs.base != rhs.base:
        raise CheckError("base mismatch")
    if not lhs.base.is_carrier:
        raise CheckError("elementary reducibility needs a carrier base")
    return _Stream((key, arg if doc == "dsW" else pair_term(*key), allowed, where)
                   for key, arg, allowed, where in positions(lhs, rhs))


def _elementary_ext_positions(pca, doc, lhs, rhs) -> _Stream:
    if not isinstance(lhs, AssemblyFamily) or not isinstance(rhs, AssemblyFamily):
        raise CheckError("elementary assembly reducibility needs assembly families")
    if lhs.base != rhs.base:
        raise CheckError("base mismatch")
    return _Stream(((p, x, q), pair_term(p, q), lhs.values[(p, x)], (p, x, q))
                   for p, x in lhs.base.naming for q in sorted_terms(rhs.values[(p, x)]))


# Orders whose uniform witness term is checked for computability before the
# first position; the others check each realizer where it is first used.
_CHECKED_UP_FRONT = {"M", "dW", "dsW", "drW", "dextW"}


def _positional(pca, doc, positions, w, fuel):
    checked = None  # the last witness term found computable
    if doc in _CHECKED_UP_FRONT:
        _require_computable(w.term, "witness term")
        checked = w.term
    label = "point " if doc in ("T", "Tw") else ""
    for key, arg, allowed, where in positions:
        if doc == "Mw" and not allowed:
            yield _refute(*where, "empty solution set on the left")
        if isinstance(w, Bounded):
            a = find_inner_witness(pca, arg, allowed, w.bound, fuel)[0]
            if a is None:
                yield _undecided(*where, f"no witness up to size {w.bound}")
                continue
        else:
            a = _realizer_at(w, key, label)
            if a is not checked:
                _require_computable(a, "witness term")
                checked = a
        yield a, arg, allowed, where


def _realizer_at(w: Witness, key, label: str = "") -> Term:
    """The realizer a uniform or per-point witness gives at a position."""
    if isinstance(w, Uniform):
        return w.term
    if not isinstance(w, PerPoint):
        raise CheckError("need a uniform or per-point witness")
    a = w.mapping.get(key)
    if a is None:
        raise CheckError(f"per-point witness missing {label}{point_text(key)}")
    return a


class _ActionIndex:
    """What the terms of ``iter_computable(bound)`` do to one argument at
    one fuel, as far as the walk over them has got: for each normal form
    the least enumeration index reaching it and that term, and the index
    of the first candidate that timed out.  ``walk`` is None once every
    term of the bound has been evaluated."""

    __slots__ = ("first", "timeout_at", "walk", "walked")

    def __init__(self, bound: int):
        self.first: dict = {}  # normal form -> (least index, that term)
        self.timeout_at: int | None = None
        self.walk: Iterator[Term] | None = iter_computable(bound)
        self.walked = 0  # the terms evaluated so far, while walk is not None

    def extend(self, pca: Pca, b: Term, target: frozenset, fuel: int | None,
               until_timeout: bool = False):
        """Evaluate further terms on b, recording each new normal form and
        the first timeout, up to the first term landing in target; its
        ``(index, term)``, or None when the bound ends first or, with
        ``until_timeout``, at the first timeout."""
        first = self.first
        for i, cand in enumerate(self.walk, self.walked):
            out = apply(pca, cand, b, fuel)
            if out.is_defined:
                if out.term not in first:
                    hit = first[out.term] = (i, cand)
                    if out.term in target:
                        self.walked = i + 1
                        return hit
            elif self.timeout_at is None and out.status == "timeout":
                self.timeout_at = i
                if until_timeout:
                    self.walked = i + 1
                    return None
        self.walk = None
        return None


def find_inner_witness(pca: Pca, b: Term, target: frozenset, bound: int,
                       fuel: int | None = None) -> tuple[Term | None, bool]:
    """Least computable term of size <= bound sending b into target, and
    whether a candidate before it (or any candidate, when there is none)
    ran out of fuel on b, so that a miss is undecided, not exhausted.

    Scans repeat heavily across instances with the same argument and
    different targets, so the structure keeps one `_ActionIndex` per
    ``(b, bound, fuel)`` (outcomes are pure functions of it): a query
    takes the least index stored over the normal forms in target, and
    extends the walk only when there is none.

    S/K reduction adds no oracle atom, so when b holds none and every term
    of target holds one, no candidate lands in target: the answer is
    ``(None, True)`` from the first timeout on, and the walk stops there."""
    if not target:  # nothing lands in an empty set
        return None, False
    key = (b, bound, fuel)
    index = pca._actions.get(key)
    if index is None:
        index = pca._actions[key] = _ActionIndex(bound)
    first = index.first
    hit = min((first[t] for t in target if t in first), default=None)
    if hit is None and index.walk is not None:
        unreachable = not has_oracle(b) and all(map(has_oracle, target))
        if not unreachable or index.timeout_at is None:
            try:
                hit = index.extend(pca, b, target, fuel, unreachable)
            except BaseException:
                del pca._actions[key]  # the walk passed a term it did not record
                raise
    at = index.timeout_at
    if hit is None:
        return None, at is not None
    return hit[1], at is not None and at < hit[0]


def _verify_forward_map(pca, k: FinMap, fuel) -> None:
    if k.realizer is None:
        raise CheckError("forward map must be computable (no realizer given)")
    k.check_realizer(pca, fuel)


def _generalized_claim(pca, doc, lhs, rhs) -> _Forward:
    if not isinstance(lhs, Predicate) or not isinstance(rhs, Predicate):
        raise CheckError("generalized reducibility needs predicates")
    if lhs.base != rhs.base:
        raise CheckError("base mismatch")
    if not isinstance(lhs.base, FinSet) or not lhs.base.is_carrier:
        raise CheckError("generalized reducibility lives over a carrier base")
    prod = carrier_product(pca, lhs.base, lhs.index)
    cells = [(x, y, pair_term(x, y), lhs.table[(x, y)]) for x in lhs.base for y in lhs.index]

    def positions(k, fuel):
        for x, y, t, allowed in cells:
            for q in sorted_terms(rhs.table[(x, k.mapping[t])]):
                yield q if doc == "SW" else pair_term(t, q), allowed, (x, y, q)

    return _Forward(prod.object, set(rhs.index.points), positions)


def _generalized(pca, doc, claim: _Forward, w, fuel):
    k, h = w.forward, w.backward
    _require_computable(h, "backward witness")
    if not claim.passed(k, fuel):
        if k.source != claim.source:
            raise CheckError("forward map must start at the product of base and index")
        if set(k.target.points) != claim.target:
            raise CheckError("forward map must land in the right-hand index")
        _verify_forward_map(pca, k, fuel)
    for arg, allowed, where in claim.positions(k, fuel):
        yield h, arg, allowed, where


def _classical(pca, doc, lhs, rhs, w, fuel):
    if not isinstance(lhs, MassFamily) or not isinstance(rhs, MassFamily):
        raise CheckError("classical reducibility needs mass families")
    if not (lhs.base.is_carrier and rhs.base.is_carrier):
        raise CheckError("classical reducibility lives over carriers")
    k, h = w.forward, w.backward
    _require_computable(h, "backward witness")
    if k.source != lhs.base or set(k.target.points) != set(rhs.base.points):
        raise CheckError("forward map endpoints do not match the claim")
    _verify_forward_map(pca, k, fuel)
    for p in lhs.base:
        for q in sorted_terms(rhs.values[k.mapping[p]]):
            yield h, q if doc == "classicalSW" else pair_term(p, q), lhs.values[p], (p, q)


def _realizer_based_claim(pca, doc, lhs, rhs) -> _Forward:
    if not isinstance(lhs, Predicate) or not isinstance(rhs, Predicate):
        raise CheckError("assembly reducibility needs predicates")
    if lhs.base != rhs.base:
        raise CheckError("base mismatch")
    if not isinstance(lhs.base, Assembly):
        raise CheckError("assembly reducibility lives over an assembly base")
    prod = ext_product(pca, lhs.base, lhs.index)

    def positions(km, fuel):
        # read only after ext_check held at some fuel, so every induced
        # image is defined, and the same at any fuel where it is
        for name, pt in prod.object.naming:
            (x, y) = pt
            p, q = split_pair(name)
            image = km.induced(pca, name, pt, fuel)
            for t in sorted_terms(rhs.table[((p, x), image)]):
                yield pair_term(name, t), lhs.table[((p, x), (q, y))], (name, pt, t)

    return _Forward(prod.object, rhs.index, positions)


def _realizer_based(pca, doc, claim: _Forward, w, fuel):
    km, h = w.forward, w.backward
    _require_computable(h, "backward witness")
    if not claim.passed(km, fuel):
        if km.source != claim.source or km.target != claim.target:
            raise CheckError("forward morphism endpoints do not match the claim")
        gate = ext_check(pca, km, fuel)
        if gate.refuted:
            raise CheckError(f"forward morphism is not a morphism: {gate.counterexample}")
        if gate.unknown:  # not remembered: every check reports its locations
            yield from (_undecided(*where) for where in gate.unknowns)
            return
    for arg, allowed, where in claim.positions(km, fuel):
        yield h, arg, allowed, where


def _extended_strong(pca, doc, lhs, rhs, w, fuel):
    if not isinstance(lhs, ExtendedPredicate) or not isinstance(rhs, ExtendedPredicate):
        raise CheckError("extended strong reducibility needs extended predicates")
    k, h = w.forward, w.backward
    _require_computable(k, "forward witness")
    _require_computable(h, "backward witness")
    for p in lhs.effective_dom:
        out = apply(pca, k, p, fuel)
        if out.status == "timeout":
            yield _undecided(p, "timeout")
            continue
        if not out.is_defined:
            yield _refute(p, "forward witness undefined")
        kp = out.term
        if kp not in rhs.dom or not rhs.table[kp]:
            yield _refute(p, kp, "image has no candidate solution sets")
        for a in sorted(lhs.table[p], key=point_key):
            b = w.choice.get((p, a))
            if b is None:
                raise CheckError(f"choice map missing ({to_text(p)}, {point_text(a)})")
            if b not in rhs.table[kp]:
                yield _refute(p, a, "chosen set not offered at the image")
            for q in sorted_terms(b):
                yield h, q, a, (p, a, q)


def _dialectica(pca, doc, lhs, rhs, w, fuel):
    if not isinstance(lhs, DialecticaPredicate) or not isinstance(rhs, DialecticaPredicate):
        raise CheckError("pointwise choice reducibility needs relation predicates")
    if lhs.base != rhs.base:
        raise CheckError("base mismatch")
    h = w.backward
    _require_computable(h, "backward witness")
    for (x, a) in lhs.relation:
        b = w.choice.get((x, a))
        if b is None:
            raise CheckError(f"choice map missing ({point_text(x)}, {point_text(a)})")
        if not rhs.related(x, b):
            yield _refute(x, a, "choice leaves the relation")
        for q in sorted_terms(rhs.table[(x, b)]):
            yield h, q, lhs.table[(x, a)], (x, a, q)


# Per doctrine id: the witness shapes it takes, the compiler of its
# witness-independent gates and of its positions or its product (None for
# the orders checked from scratch on every call), and the generator of its
# obligations, which checks the remaining gates (computability, forward
# maps, choices) before its first obligation.
_ORDERS = {
    "T": ((Uniform,), _pointwise_positions, _positional),
    "Tw": ((PerPoint, Bounded, Uniform), _pointwise_positions, _positional),
    "M": ((Uniform,), _pointwise_positions, _positional),
    "Mw": ((PerPoint, Bounded, Uniform), _pointwise_positions, _positional),
    "dW": ((Uniform,), _elementary_positions, _positional),
    "dsW": ((Uniform,), _elementary_positions, _positional),
    "drW": ((Uniform,), _elementary_ext_positions, _positional),
    "dextW": ((Uniform,), _elementary_ext_positions, _positional),
    "W": ((ForwardBackward,), _generalized_claim, _generalized),
    "SW": ((ForwardBackward,), _generalized_claim, _generalized),
    "rW": ((ExtForwardBackward,), _realizer_based_claim, _realizer_based),
    "tW": ((ExtForwardBackward,), _realizer_based_claim, _realizer_based),
    "classicalW": ((ForwardBackward,), None, _classical),
    "classicalSW": ((ForwardBackward,), None, _classical),
    "extsW": ((ExtStrong,), None, _extended_strong),
    "D": ((DialecticaWitness,), None, _dialectica),
}

DOCTRINES = tuple(_ORDERS)


# ---------------------------------------------------------------------------
# Reindexing

SET_BASED = {"T", "Tw", "M", "Mw", "D"}
COMPUTABLE_BASED = {"dW", "dsW", "W", "SW", "classicalW", "classicalSW"}
ASSEMBLY_BASED = {"drW", "dextW", "rW", "tW"}


def reindex(pca: Pca, doc: str, m, elem, fuel: int | None = None):
    """Precompose a fiber element along a base morphism."""
    if doc in SET_BASED:
        if not isinstance(m, FinMap):
            raise CheckError("set-based reindexing needs a finite map")
        if doc in ("T", "Tw"):
            _expect_base(m.target, elem.base)
            return TrackedFamily(m.source, {w: elem.values[m.mapping[w]] for w in m.source})
        if doc in ("M", "Mw"):
            _expect_base(m.target, elem.base)
            return MassFamily(m.source, {w: elem.values[m.mapping[w]] for w in m.source}, elem.policy, elem.notes)
        # D
        _expect_base(m.target, elem.base)
        table = {}
        for w in m.source:
            for (x, a), v in elem.table.items():
                if x == m.mapping[w]:
                    table[(w, a)] = v
        return DialecticaPredicate(m.source, table)
    if doc in COMPUTABLE_BASED:
        if not isinstance(m, FinMap) or m.realizer is None:
            raise CheckError("computable-base reindexing needs a realized map")
        _expect_base(m.target, elem.base)
    elif doc in ASSEMBLY_BASED:
        if not isinstance(m, ExtMorphism):
            raise CheckError("assembly-base reindexing needs an ext morphism")
        if m.target != elem.base:
            raise CheckError("base mismatch")
    else:
        raise CheckError(f"unknown doctrine id {doc!r}")
    # the value (or the row, for W, SW, rW and tW) at each key is the one at its image
    images = {a: key_image(pca, m, a, fuel) for a in keys(m.source)}
    if doc in ("dW", "dsW", "classicalW", "classicalSW"):
        return MassFamily(m.source, {a: elem.values[images[a]] for a in images}, elem.policy, elem.notes)
    if doc in ("drW", "dextW"):
        return AssemblyFamily(m.source, {a: elem.values[images[a]] for a in images}, elem.policy)
    table = {(a, b): elem.table[(images[a], b)] for a in images for b in keys(elem.index)}
    return Predicate(m.source, elem.index, table, elem.policy)


def _expect_base(target, base) -> None:
    if target != base:
        raise CheckError("base mismatch: morphism target differs from element base")


def reindex_witness(pca: Pca, doc: str, m, w: Witness, fuel: int | None = None) -> Witness:
    """Transport a witness of lhs <= rhs to one of the reindexed claim."""
    if doc in ("T", "M", "dW", "dsW", "drW", "dextW"):
        return w
    if doc in ("Tw",):
        return PerPoint({p: w.mapping[m.mapping[p]] for p in m.source}) if isinstance(w, PerPoint) else w
    if doc in ("Mw",):
        return PerPoint(_pull_back(m, w.mapping)) if isinstance(w, PerPoint) else w
    if doc == "D":
        return DialecticaWitness(_pull_back(m, w.choice), w.backward)
    if doc in ("W", "SW", "rW", "tW"):
        return _reindex_fb(pca, doc, m, w, fuel)
    if doc in ("classicalW", "classicalSW"):
        new_k = compose_maps(w.forward, m)
        if doc == "classicalSW":
            return ForwardBackward(new_k, w.backward)
        return ForwardBackward(new_k, compose_first(w.backward, m.realizer))
    raise CheckError(f"unknown doctrine id {doc!r}")


def _pull_back(m: FinMap, table: Mapping) -> dict:
    """A table keyed by (base point, solution) moved along m: the entry at
    (x, b) goes to (p, b) for every p that m sends to x."""
    return {(p, b): t for (x, b), t in table.items() for p in m.source if m.mapping[p] == x}


def _reindex_fb(pca, doc, m, w, fuel):
    """A W, SW, rW or tW witness reindexed along m, one body for carrier maps
    and assembly morphisms: the forward map k . (m x id) and the backward
    term."""
    if m.realizer is None:
        raise CheckError("witness transport along a non-computable map")
    k = w.forward
    _, index = product_components(k.source)
    prod = product(pca, m.source, index)
    graph = {}
    for key in keys(prod.object):
        a, b = split_key(key)
        graph[key] = k(pair_key(key_image(pca, m, a, fuel), b))
    new_k = map_like(k, prod.object, k.target, graph, compose_first(k.realizer, m.realizer))
    return type(w)(new_k, w.backward if doc == "SW" else _backward_along(m, w.backward))


def _after_fanout_fst(f: Term, g: Term) -> Term:
    """λu. f <fst u, g u>: f after <fst, g>."""
    u = Var("u")
    return abstract_all(("u",), App(f, ap(PAIR, App(FST, u), App(g, u))))


def _backward_along(m, backward: Term) -> Term:
    """The backward term of a witness reindexed along m: it answers the
    instance <<m.x, y>, b> of the original claim."""
    u = Var("u")
    return abstract_all(
        ("u",),
        App(
            backward,
            ap(
                PAIR,
                ap(PAIR, App(m.realizer, App(FST, App(FST, u))), App(SND, App(FST, u))),
                App(SND, u),
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Quantifier adjoints on fibers


def forall_along(pca: Pca, doc: str, m, elem, fuel: int | None = None):
    """Right adjoint to reindexing: the direct-image union formula."""
    if doc in ("M", "Mw"):
        if not isinstance(m, FinMap):
            raise CheckError("mass quantifier needs a finite map")
        _expect_base(m.source, elem.base)
        values = {
            y: frozenset().union(*(elem.values[x] for x in m.fiber(y))) if m.fiber(y) else frozenset()
            for y in m.target
        }
        return MassFamily(m.target, values, elem.policy if all(values.values()) else ALLOW_EMPTY, elem.notes)
    if doc == "dW":
        side = _projection_index(m)
        _expect_base(m.source, elem.base)
        values = {z: set() for z in m.target}
        for t in m.source:
            parts = split_pair(t)
            for y in elem.values[t]:
                values[parts[side]].add(pair_term(parts[1 - side], y))
        return MassFamily(m.target, {z: frozenset(v) for z, v in values.items()}, elem.policy)
    if doc in ("drW", "dextW"):
        if not isinstance(m, ExtMorphism):
            raise CheckError("pure quantifier over assemblies needs an ext projection")
        side = _projection_index(m)
        if m.source != elem.base:
            raise CheckError("base mismatch")
        values = {key: set() for key in m.target.naming}
        for name, pt in m.source.naming:
            parts = split_pair(name)
            for q in elem.values[(name, pt)]:
                values[(parts[side], pt[side])].add(pair_term(parts[1 - side], q))
        return AssemblyFamily(m.target, {k: frozenset(v) for k, v in values.items()},
                              elem.policy if all(values.values()) else ALLOW_EMPTY)
    raise CheckError(f"no universal quantifier implemented for doctrine {doc!r}")


def _projection_index(m) -> int:
    """0 or 1: the component a single product projection keeps.  Out of an
    empty product every path fits vacuously, so projection_path reports
    ("fst",), or the empty one when the target is empty too, and either
    index gives the same (empty) result."""
    path = projection_path(m)
    if path == ("snd",):
        return 1
    if path == ("fst",) or not keys(m.source):
        return 0
    raise CheckError("pure quantifier needs a product projection")


def exists_along_medvedev(pca: Pca, m: FinMap, elem: MassFamily) -> MassFamily:
    """Left adjoint along a surjective map: fiberwise intersection."""
    if not isinstance(m, FinMap):
        raise CheckError("mass quantifier needs a finite map")
    if not m.is_surjective():
        raise CheckError("existential transport needs a surjective map")
    _expect_base(m.source, elem.base)
    values = {}
    for y in m.target:
        fiber = m.fiber(y)
        acc = frozenset(elem.values[fiber[0]])
        for x in fiber[1:]:
            acc &= elem.values[x]
        values[y] = acc
    return MassFamily(m.target, values, ALLOW_EMPTY, elem.notes)


# ---------------------------------------------------------------------------
# Lattice structure on mass fibers


LATTICE_TAG_LEFT = K  # the two fixed distinct computable tags used by the meet
LATTICE_TAG_RIGHT = S


def lattice_element(pca: Pca, op: str, doc: str, *args, universe: FinSet | None = None,
                    bound: int | None = None, base: FinSet | None = None,
                    fuel: int | None = None) -> MassFamily:
    """The co-Heyting (and, for the non-uniform order, Heyting) operations.

    `bottom` and `subtract` are computed relative to a declared finite
    universe; `implies` discharges its inner quantifier by bounded
    enumeration.  Results record that relativity in their notes.
    """
    if doc not in ("M", "Mw"):
        raise CheckError("lattice operations live on the mass fibers")
    if op == "bottom":
        if universe is None:
            raise CheckError("bottom needs a declared universe")
        if base is None:
            raise CheckError("bottom needs a base")
        vals = frozenset(universe.points)
        return MassFamily(base, {x: vals for x in base}, ALLOW_EMPTY,
                          (f"bottom relative to universe of {len(universe)} terms",))
    if op == "top":
        if base is None:
            raise CheckError("top needs a base")
        return MassFamily(base, {x: frozenset() for x in base}, ALLOW_EMPTY)
    if op == "meet":
        phi, psi = args
        _common_base(phi, psi)
        values = {
            x: frozenset(pair_term(LATTICE_TAG_LEFT, a) for a in phi.values[x])
            | frozenset(pair_term(LATTICE_TAG_RIGHT, b) for b in psi.values[x])
            for x in phi.base
        }
        return MassFamily(phi.base, values, ALLOW_EMPTY, phi.notes + psi.notes)
    if op == "join":
        phi, psi = args
        _common_base(phi, psi)
        values = {
            x: frozenset(pair_term(a, b) for a in phi.values[x] for b in psi.values[x])
            for x in phi.base
        }
        return MassFamily(phi.base, values, ALLOW_EMPTY, phi.notes + psi.notes)
    if op == "subtract":
        phi, psi = args
        _common_base(phi, psi)
        if universe is None:
            raise CheckError("subtract needs a declared universe")
        values = {}
        for x in phi.base:
            kept = []
            for c in universe:
                ok = True
                for b in sorted_terms(psi.values[x]):
                    out = apply(pca, c, b, fuel)
                    if not out.is_defined or out.term not in phi.values[x]:
                        ok = False
                        break
                if ok:
                    kept.append(c)
            values[x] = frozenset(kept)
        return MassFamily(phi.base, values, ALLOW_EMPTY,
                          (f"subtract relative to universe of {len(universe)} terms",))
    if op == "implies":
        if doc != "Mw":
            raise CheckError(
                "no implication on the uniform mass fibers: they form a co-Heyting algebra only"
            )
        phi, psi = args
        _common_base(phi, psi)
        if bound is None:
            raise CheckError("implies needs a search bound for its inner quantifier")
        values = {}
        for x in phi.base:
            kept = []
            for b in sorted_terms(psi.values[x]):
                if find_inner_witness(pca, b, phi.values[x], bound, fuel)[0] is None:
                    kept.append(b)
            values[x] = frozenset(kept)
        return MassFamily(phi.base, values, ALLOW_EMPTY,
                          (f"implies relative to computable bound {bound}",))
    raise CheckError(f"unknown lattice operation {op!r}")


def _common_base(phi: MassFamily, psi: MassFamily) -> None:
    if phi.base != psi.base:
        raise CheckError("lattice operands must share a base")


def _select_by_tag(left_branch: Term, right_branch: Term) -> Term:
    """A combinator returning left_branch on tag K and right_branch on tag S.

    Exploits the different arities of the two tags: applied to the argument
    row below, K selects the fourth entry while S funnels through the second.
    """
    p = Var("p")
    body = ap(p, App(K, K), App(K, App(K, right_branch)), K, left_branch, K)
    return abstract_all(("p",), body)


def lattice_law_witness(pca: Pca, law: str, *, w_left: Witness | None = None,
                        w_right: Witness | None = None, w: Witness | None = None,
                        fuel: int | None = None) -> Witness:
    """Synthesize the combinator certifying a lattice law.

    Laws consuming prerequisite reductions take their witnesses via w_left /
    w_right / w; all synthesis is by bracket abstraction.
    """
    a, b, d, u = Var("a"), Var("b"), Var("d"), Var("u")
    if law == "bottom_le":
        return Uniform(ID)
    if law == "le_top":
        return Uniform(K)
    if law == "meet_left":
        return Uniform(abstract_all(("a",), ap(PAIR, LATTICE_TAG_LEFT, a)))
    if law == "meet_right":
        return Uniform(abstract_all(("b",), ap(PAIR, LATTICE_TAG_RIGHT, b)))
    if law == "meet_intro":
        af, ag = _uniform_term(w_left, "meet_intro"), _uniform_term(w_right, "meet_intro")
        sel = _select_by_tag(af, ag)
        return Uniform(abstract_all(("u",), App(App(sel, App(FST, u)), App(SND, u))))
    if law == "join_left":
        return Uniform(FST)
    if law == "join_right":
        return Uniform(SND)
    if law == "join_intro":
        af, ag = _uniform_term(w_left, "join_intro"), _uniform_term(w_right, "join_intro")
        return Uniform(fanout(af, ag))
    if law == "subtract_elim":
        # from a witness of (phi \ psi) <= rho, one for phi <= psi v rho
        ab = _uniform_term(w, "subtract_elim")
        return Uniform(abstract_all(("u",), App(App(ab, App(SND, u)), App(FST, u))))
    if law == "subtract_intro":
        # from a witness of phi <= psi v rho, one for (phi \ psi) <= rho
        bb = _uniform_term(w, "subtract_intro")
        return Uniform(abstract_all(("d", "b"), App(bb, ap(PAIR, b, d))))
    raise CheckError(f"unknown lattice law {law!r}")


def _uniform_term(w: Witness | None, law: str) -> Term:
    if not isinstance(w, Uniform):
        raise CheckError(f"law {law} needs uniform prerequisite witnesses")
    return w.term


def implication_adjunction_witness(pca: Pca, direction: str, phi: MassFamily, psi: MassFamily,
                                   rho: MassFamily, w: Witness, bound: int,
                                   fuel: int | None = None) -> PerPoint:
    """Transport witnesses across the non-uniform implication adjunction
    rho <= (phi -> psi)  iff  (phi meet rho) <= psi.

    The inner existential quantifier is discharged by enumeration up to the
    bound; positions where the bound is exhausted raise UndecidedError.
    """
    if direction == "imp_to_meet":
        table = {}
        for x in psi.base:
            for b in sorted_terms(psi.values[x]):
                found = find_inner_witness(pca, b, phi.values[x], bound, fuel)[0]
                if found is not None:
                    table[(x, b)] = compose(App(PAIR, LATTICE_TAG_LEFT), found)
                else:
                    # within the bound, b lands in the implication fiber
                    ab = _realizer_at(w, (x, b))
                    table[(x, b)] = compose(App(PAIR, LATTICE_TAG_RIGHT), ab)
        return PerPoint(table)
    if direction == "meet_to_imp":
        imp = lattice_element(pca, "implies", "Mw", phi, psi, bound=bound, fuel=fuel)
        table = {}
        for x in imp.base:
            for b in sorted_terms(imp.values[x]):
                cb = _realizer_at(w, (x, b))
                out = apply(pca, cb, b, fuel)
                if not out.is_defined:
                    raise UndecidedError(f"witness undefined at ({point_text(x)}, {to_text(b)})")
                parts = split_pair(out.term)
                if parts is None:
                    raise UndecidedError("witness image is not a tagged pair")
                tag, payload = parts
                if tag == LATTICE_TAG_LEFT:
                    raise UndecidedError(
                        "bounded implication misclassified a solution: "
                        f"({point_text(x)}, {to_text(b)}) reaches the left fiber above the bound"
                    )
                table[(x, b)] = compose(SND, cb)
        return PerPoint(table)
    raise CheckError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# Witness composition (transitivity)


def compose_witnesses(pca: Pca, doc: str, w1: Witness, w2: Witness, fuel: int | None = None) -> Witness:
    """From witnesses of lhs <= mid and mid <= rhs, build one for lhs <= rhs."""
    if doc in ("T", "M", "dsW"):
        return Uniform(compose(w1.term, w2.term))
    if doc in ("dW", "drW", "dextW"):
        return Uniform(_after_fanout_fst(w1.term, w2.term))
    if doc in ("Tw",):
        if isinstance(w1, Uniform) and isinstance(w2, Uniform):
            return Uniform(compose(w1.term, w2.term))
        raise CheckError("non-uniform tracked composition needs the claim tables; compose per point")
    if doc == "Mw":
        return _compose_mw(pca, w1, w2, fuel)
    if doc in ("W", "SW", "rW", "tW"):
        return _compose_fb(pca, doc, w1, w2, fuel)
    if doc == "classicalW":
        k, k1 = compose_maps(w2.forward, w1.forward), w1.forward.realizer
        return ForwardBackward(k, _backward_composite(w1.backward, w2.backward, lambda p: App(k1, p)))
    if doc == "classicalSW":
        k = compose_maps(w2.forward, w1.forward)
        return ForwardBackward(k, compose(w1.backward, w2.backward))
    if doc == "D":
        choice = {}
        for (x, a), m in w1.choice.items():
            choice[(x, a)] = w2.choice[(x, m)]
        return DialecticaWitness(choice, compose(w1.backward, w2.backward))
    if doc == "extsW":
        k = compose(w2.forward, w1.forward)
        choice = {}
        for (p, a), m in w1.choice.items():
            out = normalize(pca, App(w1.forward, p), fuel)
            if not out.is_defined:
                raise CheckError("forward witness undefined during composition")
            choice[(p, a)] = w2.choice[(out.term, m)]
        return ExtStrong(k, choice, compose(w1.backward, w2.backward))
    raise CheckError(f"unknown doctrine id {doc!r}")


def compose_mw_with_tables(pca: Pca, w1: PerPoint, w2: PerPoint, fuel: int | None = None) -> PerPoint:
    """Per-solution composition when both inputs are per-point tables."""
    table = {}
    for (x, b), a2 in w2.mapping.items():
        out = apply(pca, a2, b, fuel)
        if not out.is_defined:
            raise CheckError("middle value undefined during composition")
        a1 = w1.mapping.get((x, out.term))
        if a1 is None:
            raise CheckError("left witness missing the composed middle solution")
        table[(x, b)] = compose(a1, a2)
    return PerPoint(table)


def _compose_mw(pca, w1, w2, fuel):
    if isinstance(w1, Uniform) and isinstance(w2, Uniform):
        return Uniform(compose(w1.term, w2.term))
    if isinstance(w1, PerPoint) and isinstance(w2, PerPoint):
        return compose_mw_with_tables(pca, w1, w2, fuel)
    if isinstance(w1, Uniform) and isinstance(w2, PerPoint):
        return PerPoint({key: compose(w1.term, a2) for key, a2 in w2.mapping.items()})
    if isinstance(w1, PerPoint) and isinstance(w2, Uniform):
        raise CheckError("compose Mw: enumerate the middle solutions and supply per-point tables")
    raise CheckError("Mw composition needs uniform or per-point witnesses")


def _compose_fb(pca, doc, w1, w2, fuel):
    """The composite of two W, SW, rW or tW witnesses, one body for carrier
    maps and assembly morphisms: the forward map k2 . <fst, k1> and the
    backward term."""
    k1, k2 = w1.forward, w2.forward
    graph = {key: k2(pair_key(split_key(key)[0], key_image(pca, k1, key, fuel))) for key in keys(k1.source)}
    k3 = map_like(k1, k1.source, k2.target, graph, _after_fanout_fst(k2.realizer, k1.realizer))
    if doc == "SW":
        return ForwardBackward(k3, compose(w1.backward, w2.backward))
    h3 = _backward_composite(w1.backward, w2.backward, lambda p: ap(PAIR, App(FST, p), App(k1.realizer, p)))
    return type(w1)(k3, h3)


def _backward_composite(h1: Term, h2: Term, image: Callable[[Term], Term]) -> Term:
    """λu. h1 <fst u, h2 <image(fst u), snd u>>: the backward term of a
    composite.  fst u is an instance of the left claim and image(fst u) the
    middle claim's instance it is sent to; h2 answers that one, and h1 turns
    the answer into one for fst u."""
    u = Var("u")
    p = App(FST, u)
    return abstract_all(("u",), App(h1, ap(PAIR, p, App(h2, ap(PAIR, image(p), App(SND, u))))))


# ---------------------------------------------------------------------------
# Witness transposition across the pure universal adjunction


def transpose_pure_forall(pca: Pca, w: Uniform) -> Uniform:
    """g <= forall(f) witness into reindexed-g <= f witness:
    the image acts as w on the re-associated pairing <<t,p>,s> -> <p,<t,s>>."""
    u = Var("u")
    body = App(
        w.term,
        ap(
            PAIR,
            App(SND, App(FST, u)),
            ap(PAIR, App(FST, App(FST, u)), App(SND, u)),
        ),
    )
    return Uniform(abstract_all(("u",), body))


def untranspose_pure_forall(pca: Pca, w: Uniform) -> Uniform:
    """Inverse transform: <p,<t,s>> -> <<t,p>,s>."""
    u = Var("u")
    body = App(
        w.term,
        ap(
            PAIR,
            ap(PAIR, App(FST, App(SND, u)), App(FST, u)),
            App(SND, App(SND, u)),
        ),
    )
    return Uniform(abstract_all(("u",), body))
