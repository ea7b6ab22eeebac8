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
computability, forward maps, choices) plus an ordered stream of cells, one
per quantified position: a realizer must send ``arg`` into a solution set.
One loop (`_check`) checks every stream, whatever the witness.  Solution
sets contain normal-form terms, so membership after evaluation is
syntactic.  Verdicts are three-way: a definite counterexample refutes, a
timeout is only ever Unknown, and streams follow the canonical point order
so the first counterexample is reproducible.

Each doctrine id has one record, an `Order` in `ORDERS` (`DOCTRINES` is
its key tuple), and every function here reads an order through it, not
through its id: witness classes, compile step and obligations, family
class, base kind (the maps it reindexes along), solution-set policy,
whether its realizer reads the bare argument (``strong``), and the bodies
of its witness composition, witness reindexing and universal quantifier.

A claim is compiled once (`compile_claim`), by its first check or before a
search's first candidate: its family and base gates, its notes and what
its checks read.  For T, Tw, M, Mw and the elementary orders (dW to dextW,
read over the keys of a carrier or an assembly by one body) these are its
positions, built whole when compiled, each solution set sorted once,
each cell holding the refutation a miss there gives, built at the first
miss; the claim keeps one verdict per action key of its uniform witnesses,
and a per-point or bounded one gives each cell its own realizer.  For W,
SW, rW, tW and the classical orders it is where forward maps start and
land, and the cells of the last forward map read, where `_check` checks
every backward realizer paired with it.  For extsW and D it is the left
positions and the right solution sets, sorted once, whose cells a
witness's choices pick for its backward term.  The structure keeps
one compiled claim per doctrine id, found again by the identity of both
families (correct only because families are immutable).  Compiling
evaluates nothing, so a ``Bounded`` witness still runs its inner searches
lazily.  Verdicts keep their locations raw and render them only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Mapping, NamedTuple

from . import verdicts
from .pca import (
    FST,
    ID,
    PAIR,
    Pca,
    SND,
    abstract_all,
    act,
    action_key,
    apply,
    compose,
    compose_first,
    fanout,
    is_computable,
    iter_computable,
    keeps,
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
SET, COMPUTABLE, ASSEMBLY = "set", "computable", "assembly"  # base kinds: what an order reindexes along

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
    """A finite solution set for every key of its base: every point of a
    carrier, or every naming pair of an assembly."""

    base: object  # FinSet | Assembly
    values: Mapping[object, frozenset]
    policy: str = ALLOW_EMPTY
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", {k: frozenset(v) for k, v in self.values.items()})
        if set(self.values) != set(keys(self.base)):
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


# ---------------------------------------------------------------------------
# Witnesses


class Uniform(NamedTuple):  # a tuple: a search builds one per candidate
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
    forward: object  # FinMap | ExtMorphism translating instances, computable
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
    return tuple(chain.from_iterable(getattr(e, "notes", ()) for e in elems))


# ---------------------------------------------------------------------------
# check_le: structural gates, then one ordered stream of cells
#
# A cell [realizer, arg, allowed, where, refuted] asks that realizer.arg be
# defined and in allowed; `where` holds the raw points, terms and reason
# strings that locate it, and `refuted` the verdict a miss there gives, once
# built.  A uniform witness's term, or a forward-backward witness's backward
# term, is checked at every cell and slot 0 is not read: `_check` reads the
# compiled cells of the claim directly, or those of the forward map once it
# passes its gates.  Any other witness's obligations give each cell its
# realizer in slot 0.  A position settled without evaluation is a cell with
# no ``allowed`` (`_refute`) or no ``arg`` (`_undecided`).  Obligations end
# at the first `_refute` cell they give, as what follows it need not be
# buildable (an undefined image, a set that is not offered).
#
# `Pca._claims` holds the last `_Claim` compiled for each doctrine id (see
# the module docstring), so the consecutive candidates of a search, and
# suites that alternate claims of two orders, pay only for their shape,
# their computability, their forward map and their evaluations.  A gate that
# fails compiles nothing, so it raises on every call.  Compiled state is only
# ever written whole: a claim's cells when it is compiled, a forward map's
# once they are built, and a key's verdict once its check has ended, so a
# check interrupted by an exception leaves its claim as it found it.

EMPTY_LEFT = "empty solution set on the left"  # why Mw refutes an empty solution set


def _refute(*where) -> list:
    """A cell that refutes at where with no evaluation."""
    return [None, None, None, where, None]


def _undecided(*where) -> list:
    """A cell that leaves where unknown with no evaluation."""
    return [None, None, (), where, None]


class _Cells(list):
    """Cells in canonical order, built whole, and ``shared``, the verdicts
    of action keys, which `_check` writes and `shared_verdict` reads."""

    __slots__ = ("shared",)

    def __init__(self, cells):
        super().__init__(cells)
        self.shared: dict = {}  # key -> (its refutation, or None when it holds; most steps past it)


class _Forward:
    """A compiled forward-backward claim: the object a forward map must
    start at and the one it must land in, with the gate messages of a map
    that does not (``ends``, for carrier maps); and the last forward map
    read, with its cells, kept for every backward realizer paired with it,
    and the fuel it was last verified at (its endpoints and its gate are
    checked once per map and fuel)."""

    __slots__ = ("source", "target", "build", "ends", "forward", "cells", "verified")

    def __init__(self, source, target, build, ends=None):
        self.source = source
        self.target = target
        self.build = build  # (forward map, fuel) -> its positions (arg, allowed, where)
        self.ends = ends  # the messages for a wrong source and a wrong target
        self.forward = self.cells = self.verified = None


class _Claim(NamedTuple):
    lhs: object
    rhs: object
    notes: tuple[str, ...]
    compiled: object  # what the order's compile step built
    order: Order


def order_of(doc: str) -> Order:
    """The record of doctrine id doc."""
    order = ORDERS.get(doc)
    if order is None:
        raise CheckError(f"unknown doctrine id {doc!r}")
    return order


def check_le(pca: Pca, doc: str, lhs, rhs, w: Witness, fuel: int | None = None) -> Verdict:
    """Verify the witnessed claim ``lhs <=_doc rhs`` exhaustively; unknown
    when a realizer the check needs runs out of fuel.

    Every witness ends in `_check`: a uniform one at the compiled cells, a
    forward-backward one's backward term at its forward map's, any other at
    the cells its order's obligations give with their realizers.  A uniform
    witness of a claim compiled last for ``doc`` goes straight there: its
    order takes uniform witnesses, as its compiled claim holds positions."""
    claim = pca._claims.get(doc) if w.__class__ is Uniform else None
    if claim is None or claim.lhs is not lhs or claim.rhs is not rhs or claim.compiled.__class__ is not _Cells:
        shapes = order_of(doc).shapes
        if not isinstance(w, shapes):
            names = "/".join(c.__name__ for c in shapes)
            raise CheckError(f"doctrine {doc} needs a {names} witness, got {type(w).__name__}")
        claim = compile_claim(pca, doc, lhs, rhs)
    try:
        if isinstance(w, Uniform):
            return _check(pca, claim.compiled, w.term, w, fuel, claim.notes, claim.order.up_front)
        order = claim.order
        cells = order.obligations(pca, order, claim.compiled, w, fuel)
        term = w.backward if cells.__class__ is _Cells else None  # a forward map's cells, for its backward term
        return _check(pca, cells, term, w, fuel, claim.notes)
    except SpaceTimeout as e:
        return verdicts.unknown((str(e),))


def compile_claim(pca: Pca, doc: str, lhs, rhs) -> _Claim:
    """The claim ``lhs <=_doc rhs`` compiled: the structure's cached one when
    it is this claim, else compiled now.  Compiling runs the order's family
    and base gates, which raise CheckError on an ill-formed claim."""
    claim = pca._claims.get(doc)
    if claim is None or claim.lhs is not lhs or claim.rhs is not rhs:
        order = order_of(doc)
        claim = _Claim(lhs, rhs, _family_notes(lhs, rhs), order.compile(pca, order, lhs, rhs), order)
        pca._claims[doc] = claim
    return claim


def _check(pca: Pca, cells, term: Term | None, w: Witness, fuel: int | None,
           notes: tuple[str, ...], up_front: bool = False) -> Verdict:
    """The one checking loop, one evaluation per cell.  Given a term (a
    uniform witness's, or a forward-backward witness's backward term at its
    forward map's cells), it is checked at every cell; given none, each
    cell's realizer is read from slot 0 (a per-point, bounded, extsW or D
    witness's).  The first definite miss returns that cell's refutation, a
    timeout leaves its position unknown, and a definite miss after a timeout
    still refutes; a cell with no ``allowed`` refutes, and one with no
    ``arg`` is unknown, unevaluated.  Obligations end at such a refuting
    cell of themselves: the loop stopping there is not what keeps them
    sound.  Over an empty base any term holds, unless checked ``up_front``.

    A computable realizer t acts on every argument as its action key
    (`pca.action_key`) does, p steps later, so `pca.act` answers its cells
    from the key at the whole fuel, in closed form for most keys, and p is
    charged after: s steps past the key are t's own when s + p fits in the
    fuel, else a timeout.  A run of cells with one realizer keys it once.  A
    kept enumeration term that a walk has reached reads its key from the
    process-wide ``pca._HEADS`` (at most 3,238 entries); any other term is
    contracted anew.

    Many terms share a key: a stream checked with a term keeps, for each key
    `pca.keeps` whose cells all ended definitely, its verdict and the most
    steps a cell took past the key.  `shared_verdict` reads it back for a
    later term of that key, which gets it unchecked (a holding one rebuilt
    with w).  Cells with their own realizers share no such table."""
    if fuel is None:
        fuel = pca.default_fuel
    key, p, unchecked, shared = None, 0, False, None
    if term is not None:
        unchecked = term._hash & 1  # terms.has_oracle: the term is not computable
        if unchecked and up_front:
            _require_computable(term, "witness term")
        key, p = (term, 0) if unchecked else action_key(term, fuel)
        known = shared_verdict(cells, key, p, fuel)
        if known is not None:
            return known[0] or verdicts.holds(w, notes=notes)
        shared = None if unchecked or not keeps(key) else cells.shared
    realizer, left, most, timeouts = term, fuel - p, 0, []
    for cell in cells:
        fn, arg, allowed, where, refuted = cell
        if allowed is not None:
            if arg is None:
                timeouts.append(where)
                continue
            if unchecked:
                _require_computable(term, "witness term")
            if term is None and fn is not realizer:
                realizer = fn
                key, p = action_key(fn, fuel)
                left = fuel - p
            status, value, _, steps = act(pca, key, arg, fuel)
            if steps > most:
                most = steps
            if steps > left:
                status = "timeout"
            elif value in allowed:  # an undefined or timed-out outcome has no term
                continue
            if status == "timeout":
                timeouts.append(where + ("timeout",))
                continue
        if refuted is None:
            refuted = cell[4] = verdicts.refuted(where, notes=notes)
        break
    else:
        if timeouts:
            return verdicts.unknown(tuple(timeouts), notes=notes)
        refuted = None
    if shared is not None and not timeouts:
        shared[key] = refuted, most
    return refuted or verdicts.holds(w, notes=notes)


def shared_verdict(cells: _Cells, key, p: int, fuel: int) -> tuple | None:
    """The entry ``(refutation or None, most steps past the key)`` of
    ``cells.shared`` that decides a term of action key ``key`` acting p
    steps later, or None.  A term with p = 0 is its own key and is checked;
    an entry stands for the term only when its most steps plus p fit in the
    fuel, as each cell then gives the term the key's outcome.  `_check` and
    the uniform search walk read it."""
    if p:  # `_check` keeps only keys `pca.keeps`, so no other key is found
        known = cells.shared.get(key)
        if known is not None and known[1] + p <= fuel:
            return known
    return None


def positions(lhs, rhs):
    """The quantified positions of a T, Tw, M, Mw or elementary claim in
    canonical order, as ``(key, arg, allowed, where)``: a realizer must send
    ``arg`` into ``allowed``, and a per-point witness gives it at ``key``.
    Tracked families have one position per base point x (arg beta(x),
    allowed {alpha(x)}); mass families one per key x of the base and b in
    psi(x) (arg b, allowed phi(x)), located at x and b, where a naming pair
    x of an assembly counts as its name and its point."""
    if isinstance(lhs, TrackedFamily):
        for x in lhs.base:
            b = rhs.values[x]
            yield x, b, frozenset((lhs.values[x],)), (x, b)
        return
    named = isinstance(lhs.base, Assembly)
    for x in keys(lhs.base):
        allowed = lhs.values[x]
        for b in sorted_terms(rhs.values[x]):
            key = (x, b)
            yield key, b, allowed, (*x, b) if named else key


def _over(family: type, base: type, lhs, rhs) -> bool:
    """Whether lhs and rhs are both of class family, over bases of class base."""
    return all(isinstance(e, family) and isinstance(e.base, base) for e in (lhs, rhs))


def _positions_claim(pca, order, lhs, rhs) -> _Cells:
    """The family and base gates of a T, Tw, M, Mw or elementary claim, and
    its positions as cells ``[key, arg, allowed, where, refuted]``.  A
    realizer that is not ``strong`` reads the argument paired with where[0],
    the base point or the name of the naming pair.  ``refuted`` is the
    verdict a miss there gives: None until the first miss builds it, then
    shared by every later one, as verdicts are immutable, so a check that
    holds builds none.  Under Mw an empty solution set refutes with no
    evaluation: its cell is `_refute`'s, located at where and `EMPTY_LEFT`."""
    over_assembly = order.base == ASSEMBLY
    if order.base == SET:
        if not _over(order.family, FinSet, lhs, rhs):
            raise CheckError("tracked doctrine needs tracked families" if order.family is TrackedFamily
                             else "mass doctrine needs mass families")
    elif not _over(MassFamily, Assembly if over_assembly else FinSet, lhs, rhs):
        raise CheckError("elementary assembly reducibility needs assembly families" if over_assembly
                         else "elementary reducibility needs mass families over a carrier")
    if lhs.base != rhs.base:
        raise CheckError("base mismatch")
    if order.base == COMPUTABLE and not lhs.base.is_carrier:
        raise CheckError("elementary reducibility needs a carrier base")
    return _Cells(_refute(*where, EMPTY_LEFT) if order.empty_refutes and not allowed
                  else [key, arg if order.strong else pair_term(where[0], arg), allowed, where, None]
                  for key, arg, allowed, where in positions(lhs, rhs))


def _positional(pca, order, cells, w, fuel):
    """The cells of a per-point or bounded Tw or Mw witness: each compiled
    cell with the realizer the witness gives or finds there, or a cell that
    refutes as compiled."""
    checked = None  # the last witness term found computable
    label = "point " if order.family is TrackedFamily else ""
    for cell in cells:
        key, arg, allowed, where, refuted = cell
        if allowed is None:
            yield cell
            return
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
        yield [a, arg, allowed, where, refuted]


def _realizer_at(w: Witness, key, label: str = "") -> Term:
    """The realizer a per-point witness gives at a position."""
    if not isinstance(w, PerPoint):
        raise CheckError("need a per-point witness")
    a = w.mapping.get(key)
    if a is None:
        raise CheckError(f"per-point witness missing {label}{point_text(key)}")
    return a


class _ActionIndex:
    """What the terms of ``iter_computable(bound)`` do to one argument at
    one fuel, as far as the walk over them has got: for each normal form
    the least enumeration index reaching it and that term, and the index
    of the first candidate that timed out.  ``walk`` is None once every
    term of the bound has been walked.

    A term t acts on b as its action key (`pca.action_key`) does, p steps
    later, so it is answered by `pca.act` from the key at the whole fuel,
    with p charged after (s steps past the key stand when s + p fits).  The
    walk is ``pca.iter_computable``'s, so a term of the kept levels reads
    its key from the process-wide ``pca._HEADS`` once any walk has reached
    it: each of those 3,238 terms is keyed once per process, whatever
    structure, argument or fuel the walk is for.  A term whose key an
    earlier term of the same call reached with a definite outcome in s
    steps past the key, where s + p fits in the fuel, has that outcome: it
    reaches no new normal form and cannot time out, so it is not answered
    again.  That table is local to the call, keeps what `pca.keeps`, and
    holds only outcomes that were the earlier term's own."""

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
        if fuel is None:
            fuel = pca.default_fuel
        first = self.first
        ended = {}  # action key -> the steps past it of a term's definite outcome on b
        for i, cand in enumerate(self.walk, self.walked):
            key, p = action_key(cand, fuel)
            steps = ended.get(key)
            if steps is not None and steps + p <= fuel:
                continue
            status, value, _, steps = act(pca, key, b, fuel)
            if status == "timeout" or steps + p > fuel:
                if self.timeout_at is None:
                    self.timeout_at = i
                    if until_timeout:
                        self.walked = i + 1
                        return None
                continue
            if keeps(key):
                ended[key] = steps
            if value is not None and value not in first:  # defined, and a new normal form
                hit = first[value] = (i, cand)
                if value in target:
                    self.walked = i + 1
                    return hit
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


def _generalized_claim(pca, order, lhs, rhs) -> _Forward:
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
                yield q if order.strong else pair_term(t, q), allowed, (x, y, q)

    return _Forward(prod.object, rhs.index, positions, ("forward map must start at the product of base and index",
                                                        "forward map must land in the right-hand index"))


def _classical_claim(pca, order, lhs, rhs) -> _Forward:
    if not _over(MassFamily, FinSet, lhs, rhs):
        raise CheckError("classical reducibility needs mass families")
    if not (lhs.base.is_carrier and rhs.base.is_carrier):
        raise CheckError("classical reducibility lives over carriers")

    def positions(k, fuel):
        for p in lhs.base:
            for q in sorted_terms(rhs.values[k.mapping[p]]):
                yield q if order.strong else pair_term(p, q), lhs.values[p], (p, q)

    return _Forward(lhs.base, rhs.base, positions, ("forward map endpoints do not match the claim",) * 2)


def _forward_backward(pca, order, claim: _Forward, w, fuel):
    """A forward-backward witness's gates (its forward map's once per map
    and fuel), then that map's cells, where `check_le` checks the backward
    term; an undecided cell per location where the gate ran out."""
    k = w.forward
    _require_computable(w.backward, "backward witness")
    if k is not claim.forward or fuel != claim.verified:
        if order.base == ASSEMBLY:
            if k.source != claim.source or k.target != claim.target:
                raise CheckError("forward morphism endpoints do not match the claim")
            gate = ext_check(pca, k, fuel)
            if gate.refuted:
                raise CheckError(f"forward morphism is not a morphism: {gate.counterexample}")
            if gate.unknown:  # not remembered: every check reports its locations
                return [_undecided(*where) for where in gate.unknowns]
        else:
            starts, lands = claim.ends
            if k.source != claim.source:
                raise CheckError(starts)
            if set(k.target.points) != set(claim.target.points):
                raise CheckError(lands)
            if k.realizer is None:
                raise CheckError("forward map must be computable (no realizer given)")
            k.check_realizer(pca, fuel)
        if k is not claim.forward:
            claim.cells = _Cells([None, *pos, None] for pos in claim.build(k, fuel))
            claim.forward = k
        claim.verified = fuel
    return claim.cells


def _realizer_based_claim(pca, order, lhs, rhs) -> _Forward:
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


def _extended_strong_claim(pca, order, lhs, rhs) -> tuple:
    """Per point of the effective domain its solution sets, and per image
    each offered solution set with its terms sorted, both in point order."""
    if not isinstance(lhs, ExtendedPredicate) or not isinstance(rhs, ExtendedPredicate):
        raise CheckError("extended strong reducibility needs extended predicates")
    rows = tuple((p, tuple(sorted(lhs.table[p], key=point_key))) for p in lhs.effective_dom)
    offered = {y: {b: sorted_terms(b) for b in sorted(sets, key=point_key)}
               for y, sets in rhs.table.items() if sets}
    return rows, offered


def _extended_strong(pca, order, claim: tuple, w, fuel):
    rows, offered = claim
    k, h = w.forward, w.backward
    _require_computable(k, "forward witness")
    _require_computable(h, "backward witness")
    for p, sets in rows:
        out = apply(pca, k, p, fuel)
        if out.status == "timeout":
            yield _undecided(p, "timeout")
            continue
        if not out.is_defined:
            yield _refute(p, "forward witness undefined")
            return
        kp = out.term
        offers = offered.get(kp)
        if offers is None:
            yield _refute(p, kp, "image has no candidate solution sets")
            return
        for a in sets:
            b = w.choice.get((p, a))
            if b is None:
                raise CheckError(f"choice map missing ({to_text(p)}, {point_text(a)})")
            terms = offers.get(b)
            if terms is None:
                yield _refute(p, a, "chosen set not offered at the image")
                return
            for q in terms:
                yield [h, q, a, (p, a, q), None]


def _dialectica_claim(pca, order, lhs, rhs) -> tuple:
    """The left relation with each pair's solution set, and each right
    pair's terms sorted, both in point order."""
    if not isinstance(lhs, DialecticaPredicate) or not isinstance(rhs, DialecticaPredicate):
        raise CheckError("pointwise choice reducibility needs relation predicates")
    if lhs.base != rhs.base:
        raise CheckError("base mismatch")
    return (tuple((x, a, lhs.table[(x, a)]) for x, a in lhs.relation),
            {xb: sorted_terms(rhs.table[xb]) for xb in rhs.relation})


def _dialectica(pca, order, claim: tuple, w, fuel):
    relation, answers = claim
    h = w.backward
    _require_computable(h, "backward witness")
    for x, a, allowed in relation:
        b = w.choice.get((x, a))
        if b is None:
            raise CheckError(f"choice map missing ({point_text(x)}, {point_text(a)})")
        terms = answers.get((x, b))
        if terms is None:
            yield _refute(x, a, "choice leaves the relation")
            return
        for q in terms:
            yield [h, q, allowed, (x, a, q), None]


# ---------------------------------------------------------------------------
# Reindexing

def reindex(pca: Pca, doc: str, m, elem, fuel: int | None = None):
    """Precompose a fiber element along a base morphism of the order's base
    kind: a finite map, a realized one, or an ext morphism."""
    order = order_of(doc)
    base = order.base
    if base is None:
        raise CheckError(f"doctrine {doc} has no reindexing")
    if base == ASSEMBLY:
        if not isinstance(m, ExtMorphism):
            raise CheckError("assembly-base reindexing needs an ext morphism")
        if m.target != elem.base:
            raise CheckError("base mismatch")
    else:
        if base == SET and not isinstance(m, FinMap):
            raise CheckError("set-based reindexing needs a finite map")
        if base == COMPUTABLE and (not isinstance(m, FinMap) or m.realizer is None):
            raise CheckError("computable-base reindexing needs a realized map")
        _expect_base(m, elem.base, "target")
    # the value (or the row, or the relation) at each key is the one at its image
    images = {a: key_image(pca, m, a, fuel) for a in keys(m.source)}
    family = order.family
    if family is DialecticaPredicate:
        return DialecticaPredicate(m.source, {(p, a): v for p in images
                                              for (x, a), v in elem.table.items() if x == images[p]})
    if family is Predicate:
        table = {(a, b): elem.table[(images[a], b)] for a in images for b in keys(elem.index)}
        return Predicate(m.source, elem.index, table, elem.policy)
    values = {a: elem.values[images[a]] for a in images}
    if family is TrackedFamily:
        return TrackedFamily(m.source, values)
    return MassFamily(m.source, values, elem.policy, elem.notes)


def _expect_base(m, base, end: str) -> None:
    """Raise unless the given end ("target" or "source") of map m is base."""
    if getattr(m, end) != base:
        raise CheckError(f"base mismatch: morphism {end} differs from element base")


def reindex_witness(pca: Pca, doc: str, m, w: Witness, fuel: int | None = None) -> Witness:
    """Transport a witness of lhs <= rhs to one of the reindexed claim."""
    order = order_of(doc)
    if order.reindex_witness is None:
        raise CheckError(f"doctrine {doc} has no reindexing")
    return order.reindex_witness(pca, order, m, w, fuel)


def _same_witness(pca, order, m, w, fuel):
    """A uniform witness of a claim is one of every reindexing of it."""
    return w


def _reindex_pointwise(pca, order, m, w, fuel):
    """A per-point Tw or Mw table pulled back along m; a uniform or bounded
    witness is its own reindexing."""
    if not isinstance(w, PerPoint):
        return w
    if order.family is TrackedFamily:
        return PerPoint({p: w.mapping[m.mapping[p]] for p in m.source})
    return PerPoint(_pull_back(m, w.mapping))


def _reindex_dialectica(pca, order, m, w, fuel):
    return DialecticaWitness(_pull_back(m, w.choice), w.backward)


def _pull_back(m: FinMap, table: Mapping) -> dict:
    """A table keyed by (base point, solution) moved along m: the entry at
    (x, b) goes to (p, b) for every p that m sends to x."""
    return {(p, b): t for (x, b), t in table.items() for p in m.source if m.mapping[p] == x}


def _reindex_fb(pca, order, m, w, fuel):
    """A forward-backward witness reindexed along m, one body for carrier
    maps and assembly morphisms: the forward map k . (m x id), or k . m for
    the classical orders, whose forward maps join the bases; and the
    backward term."""
    k = w.forward
    if order.family is MassFamily:
        h = w.backward if order.strong else compose_first(w.backward, m.realizer)
        return ForwardBackward(compose_maps(k, m), h)
    if m.realizer is None:
        raise CheckError("witness transport along a non-computable map")
    _, index = product_components(k.source)
    prod = product(pca, m.source, index)
    graph = {}
    for key in keys(prod.object):
        a, b = split_key(key)
        graph[key] = k(pair_key(key_image(pca, m, a, fuel), b))
    new_k = map_like(k, prod.object, k.target, graph, compose_first(k.realizer, m.realizer))
    return type(w)(new_k, w.backward if order.strong else _backward_along(m, w.backward))


def _after_fanout_fst(f: Term, g: Term) -> Term:
    """λu. f <fst u, g u>: f after <fst, g>."""
    u = Var("u")
    return abstract_all(("u",), App(f, ap(PAIR, App(FST, u), App(g, u))))


def _backward_along(m, backward: Term) -> Term:
    """The backward term of a witness reindexed along m: it answers the
    instance <<m.x, y>, b> of the original claim."""
    u = Var("u")
    instance = App(FST, u)
    answered = ap(PAIR, ap(PAIR, App(m.realizer, App(FST, instance)), App(SND, instance)), App(SND, u))
    return abstract_all(("u",), App(backward, answered))


# ---------------------------------------------------------------------------
# Quantifier adjoints on fibers


def forall_along(pca: Pca, doc: str, m, elem, fuel: int | None = None):
    """Right adjoint to reindexing: the direct-image union formula."""
    order = ORDERS.get(doc)
    if order is None or order.forall is None:
        raise CheckError(f"no universal quantifier implemented for doctrine {doc!r}")
    return order.forall(pca, order, m, elem, fuel)


def _forall_mass(pca, order, m, elem, fuel) -> MassFamily:
    """The M and Mw quantifier: the union of the solution sets over each fiber."""
    if not isinstance(m, FinMap):
        raise CheckError("mass quantifier needs a finite map")
    _expect_base(m, elem.base, "source")
    values = {y: frozenset().union(*(elem.values[x] for x in m.fiber(y))) for y in m.target}
    return MassFamily(m.target, values, elem.policy if all(values.values()) else ALLOW_EMPTY, elem.notes)


def _forall_pure(pca, order, m, elem, fuel) -> MassFamily:
    """The dW, drW and dextW quantifier along a product projection."""
    over_assembly = order.base == ASSEMBLY
    if isinstance(m, ExtMorphism) != over_assembly:
        raise CheckError("pure quantifier over assemblies needs an ext projection" if over_assembly
                         else "pure quantifier over carriers needs a carrier projection")
    side = _projection_index(m)
    if m.source != elem.base:
        raise CheckError("base mismatch" if over_assembly
                         else "base mismatch: morphism source differs from element base")
    # the key kept by the projection collects <name of the other key, q>
    values = {key: set() for key in keys(m.target)}
    for key in keys(m.source):
        parts = split_key(key)
        other = parts[1 - side][0] if over_assembly else parts[1 - side]
        for q in elem.values[key]:
            values[parts[side]].add(pair_term(other, q))
    return MassFamily(m.target, {k: frozenset(v) for k, v in values.items()},
                      elem.policy if all(values.values()) else ALLOW_EMPTY)


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
    _expect_base(m, elem.base, "source")
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
    order = ORDERS.get(doc)
    if order is None or order.family is not MassFamily or order.base != SET:
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
    if op == "implies" and PerPoint not in order.shapes:
        raise CheckError("no implication on the uniform mass fibers: they form a co-Heyting algebra only")
    if op in ("meet", "join", "subtract", "implies"):
        phi, psi = args
        _common_base(phi, psi)
    if op == "meet":
        values = {x: frozenset(pair_term(LATTICE_TAG_LEFT, a) for a in phi.values[x])
                  | frozenset(pair_term(LATTICE_TAG_RIGHT, b) for b in psi.values[x]) for x in phi.base}
        return MassFamily(phi.base, values, ALLOW_EMPTY, phi.notes + psi.notes)
    if op == "join":
        values = {x: frozenset(pair_term(a, b) for a in phi.values[x] for b in psi.values[x]) for x in phi.base}
        return MassFamily(phi.base, values, ALLOW_EMPTY, phi.notes + psi.notes)
    if op == "subtract":
        if universe is None:
            raise CheckError("subtract needs a declared universe")
        values = {}
        for x in phi.base:  # the terms sending every solution of psi(x), in order, into phi(x)
            args, allowed = sorted_terms(psi.values[x]), phi.values[x]
            values[x] = frozenset(c for c in universe if all(apply(pca, c, b, fuel).term in allowed for b in args))
        return MassFamily(phi.base, values, ALLOW_EMPTY,
                          (f"subtract relative to universe of {len(universe)} terms",))
    if op == "implies":
        if bound is None or bound < 0:
            raise CheckError(f"implies needs a non-negative search bound for its inner quantifier, not {bound}")
        values = {x: frozenset(b for b in sorted_terms(psi.values[x])
                               if find_inner_witness(pca, b, phi.values[x], bound, fuel)[0] is None)
                  for x in phi.base}
        return MassFamily(phi.base, values, ALLOW_EMPTY,
                          (f"implies relative to computable bound {bound}",))
    raise CheckError(f"unknown lattice operation {op!r}")


def _common_base(phi: MassFamily, psi: MassFamily) -> None:
    if not _over(MassFamily, FinSet, phi, psi):
        raise CheckError("lattice operations need mass families over a carrier")
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
    order = order_of(doc)
    return order.compose(pca, order, w1, w2, fuel)


def _compose_uniform(pca, order, w1, w2, fuel):
    """The composite term; a realizer that reads the pair with the point
    hands that point on: f after <fst, g>."""
    if order.strong:
        return Uniform(compose(w1.term, w2.term))
    return Uniform(_after_fanout_fst(w1.term, w2.term))


def _compose_pointwise(pca, order, w1, w2, fuel):
    if isinstance(w1, Uniform) and isinstance(w2, Uniform):
        return Uniform(compose(w1.term, w2.term))
    if order.family is TrackedFamily:
        raise CheckError("non-uniform tracked composition needs the claim tables; compose per point")
    if isinstance(w1, PerPoint) and isinstance(w2, PerPoint):  # per solution, through the middle one
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
    if isinstance(w1, Uniform) and isinstance(w2, PerPoint):
        return PerPoint({key: compose(w1.term, a2) for key, a2 in w2.mapping.items()})
    if isinstance(w1, PerPoint) and isinstance(w2, Uniform):
        raise CheckError("compose Mw: enumerate the middle solutions and supply per-point tables")
    raise CheckError("Mw composition needs uniform or per-point witnesses")


def _compose_fb(pca, order, w1, w2, fuel):
    """The composite of two forward-backward witnesses, one body for carrier
    maps and assembly morphisms: the forward map k2 . <fst, k1>, or k2 . k1
    for the classical orders; and the backward term."""
    k1, k2 = w1.forward, w2.forward
    if order.family is MassFamily:
        k3, image = compose_maps(k2, k1), lambda p: App(k1.realizer, p)
    else:
        graph = {key: k2(pair_key(split_key(key)[0], key_image(pca, k1, key, fuel))) for key in keys(k1.source)}
        k3 = map_like(k1, k1.source, k2.target, graph, _after_fanout_fst(k2.realizer, k1.realizer))
        image = lambda p: ap(PAIR, App(FST, p), App(k1.realizer, p))
    if order.strong:
        return ForwardBackward(k3, compose(w1.backward, w2.backward))
    return type(w1)(k3, _backward_composite(w1.backward, w2.backward, image))


def _compose_dialectica(pca, order, w1, w2, fuel):
    choice = {(x, a): w2.choice[(x, m)] for (x, a), m in w1.choice.items()}
    return DialecticaWitness(choice, compose(w1.backward, w2.backward))


def _compose_ext_strong(pca, order, w1, w2, fuel):
    k = compose(w2.forward, w1.forward)
    choice = {}
    for (p, a), m in w1.choice.items():
        out = normalize(pca, App(w1.forward, p), fuel)
        if not out.is_defined:
            raise CheckError("forward witness undefined during composition")
        choice[(p, a)] = w2.choice[(out.term, m)]
    return ExtStrong(k, choice, compose(w1.backward, w2.backward))


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


# ---------------------------------------------------------------------------
# The order registry


@dataclass(frozen=True)
class Order:
    """Everything a doctrine id decides, read wherever its order is.  The
    callables are bodies of the functions named after them (None: not
    implemented), each taking the record after the structure."""

    compile: Callable  # `compile_claim`: the family and base gates, and what checks read
    family: type  # the class of the families it orders
    base: str | None  # SET, COMPUTABLE or ASSEMBLY: the maps it reindexes along; None: no reindexing
    shapes: tuple[type, ...] = (Uniform,)  # the witness classes it takes; the first picks a search's walk
    obligations: Callable | None = None  # the gates and cells of a witness that is not `Uniform`
    compose: Callable = _compose_uniform
    reindex_witness: Callable | None = _same_witness
    policy: str = NONEMPTY  # the solution-set policy of the families it is meant for
    strong: bool = False  # its realizer reads the bare argument, not the pair with the point
    up_front: bool = False  # a uniform witness term is checked before the first position, not at it
    empty_refutes: bool = False  # an empty left solution set refutes before any evaluation
    forall: Callable | None = None

    @property
    def identity(self) -> Uniform | None:
        """The witness of every ``e <= e``, where it does not depend on e."""
        return Uniform(ID if self.strong else SND) if Uniform in self.shapes else None


# The witness class of the per-point and of the forward-backward orders
# decides their obligations, composition and witness reindexing
_POINTWISE = dict(shapes=(PerPoint, Bounded, Uniform), obligations=_positional, compose=_compose_pointwise,
                  reindex_witness=_reindex_pointwise)
_FB = dict(shapes=(ForwardBackward,), obligations=_forward_backward, compose=_compose_fb,
           reindex_witness=_reindex_fb)

ORDERS: dict[str, Order] = {
    "T": Order(_positions_claim, TrackedFamily, SET, strong=True),
    "Tw": Order(_positions_claim, TrackedFamily, SET, strong=True, **_POINTWISE),
    "M": Order(_positions_claim, MassFamily, SET, policy=ALLOW_EMPTY, strong=True, up_front=True,
               forall=_forall_mass),
    "Mw": Order(_positions_claim, MassFamily, SET, policy=ALLOW_EMPTY, strong=True, empty_refutes=True,
                forall=_forall_mass, **_POINTWISE),
    "dW": Order(_positions_claim, MassFamily, COMPUTABLE, up_front=True, forall=_forall_pure),
    "dsW": Order(_positions_claim, MassFamily, COMPUTABLE, strong=True, up_front=True),
    "drW": Order(_positions_claim, MassFamily, ASSEMBLY, up_front=True, forall=_forall_pure),
    "dextW": Order(_positions_claim, MassFamily, ASSEMBLY, policy=ALLOW_EMPTY, up_front=True,
                   forall=_forall_pure),
    "W": Order(_generalized_claim, Predicate, COMPUTABLE, **_FB),
    "SW": Order(_generalized_claim, Predicate, COMPUTABLE, strong=True, **_FB),
    "rW": Order(_realizer_based_claim, Predicate, ASSEMBLY, **_FB),
    "tW": Order(_realizer_based_claim, Predicate, ASSEMBLY, policy=ALLOW_EMPTY, **_FB),
    "classicalW": Order(_classical_claim, MassFamily, COMPUTABLE, **_FB),
    "classicalSW": Order(_classical_claim, MassFamily, COMPUTABLE, strong=True, **_FB),
    "extsW": Order(_extended_strong_claim, ExtendedPredicate, None, (ExtStrong,), _extended_strong,
                   _compose_ext_strong, None, strong=True),
    "D": Order(_dialectica_claim, DialecticaPredicate, SET, (DialecticaWitness,), _dialectica,
               _compose_dialectica, _reindex_dialectica, strong=True),
}

DOCTRINES = tuple(ORDERS)
