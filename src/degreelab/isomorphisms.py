"""Order isomorphisms between concrete fibers and completion fibers.

Each map comes in two directions (a completion object to a concrete fiber
element and a section going back) together with witness transports: a
Holding witness on one side is rebuilt into a Holding witness on the other.
All choice functions pick the least candidate in the canonical term/point
order, so transports are reproducible.  Fibers of stored graphs are always
computed from the graphs, never by inverting realizers.

`EQUIVALENCES` names the seven concrete-vs-completion equivalences, one row
each; every transport in it takes ``(pca, lhs, rhs, w, fuel)`` with lhs and
rhs completion objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .completions import (
    EXISTS,
    FORALL,
    FULL,
    PURE,
    CompletionObject,
    CompletionWitness,
    comp_reindex,
    comp_le,
)
from .doctrines import (
    ALLOW_EMPTY,
    NONEMPTY,
    Bounded,
    CheckError,
    DialecticaPredicate,
    DialecticaWitness,
    ExtForwardBackward,
    ExtendedPredicate,
    ForwardBackward,
    MassFamily,
    PerPoint,
    Predicate,
    TrackedFamily,
    Uniform,
    find_inner_witness,
    sorted_terms,
)
from .pca import FST, PAIR, Pca, SND, abstract_all, apply, is_computable, normalize
from .search import images_of
from .spaces import (
    Assembly,
    ExtMorphism,
    FinMap,
    FinSet,
    assembly_to_carrier,
    carrier_product,
    ext_product,
    ext_product_components,
    point_key,
    product_components,
)
from .terms import App, Term, Var, ap, pair_term, split_pair, to_text
from .verdicts import Verdict


# ---------------------------------------------------------------------------
# Mass fibers vs universal completions of tracked fibers


def medvedev_from_completion(pca: Pca, obj: CompletionObject) -> MassFamily:
    """(f, alpha) -> alpha . f^{-1}: the direct image over each fiber."""
    _expect(obj, FORALL, FULL, ("T", "Tw"))
    leg, alpha = obj.leg, obj.payload
    values = {x: frozenset(alpha.values[y] for y in leg.fiber(x)) for x in leg.target}
    return MassFamily(leg.target, values, ALLOW_EMPTY)


def medvedev_to_completion(pca: Pca, phi: MassFamily, doc: str = "T") -> CompletionObject:
    """The section: membership graph of phi, with its two projections."""
    pairs = {}
    for x in phi.base:
        if not isinstance(x, Term):
            raise CheckError("the section needs a carrier base to form pair terms")
        for a in sorted_terms(phi.values[x]):
            pairs[pair_term(x, a)] = (x, a)
    Y = FinSet(tuple(pairs))
    leg = FinMap(Y, phi.base, {t: xa[0] for t, xa in pairs.items()}, FST)
    payload = TrackedFamily(Y, {t: xa[1] for t, xa in pairs.items()})
    return CompletionObject(FORALL, FULL, doc, leg, payload)


def _expect(obj: CompletionObject, kind: str, klass: str, docs) -> None:
    if obj.kind != kind or obj.klass != klass or obj.doc not in docs:
        raise CheckError(
            f"expected a {kind}/{klass} completion object over {docs}, got {obj.kind}/{obj.klass}/{obj.doc}"
        )


def medvedev_transport_forward(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                               w: CompletionWitness, fuel: int | None = None) -> Uniform:
    """A mediated witness for the completion order is already a mass witness."""
    if not isinstance(w.base, Uniform):
        raise CheckError("uniform transport needs a uniform base witness")
    return w.base


def medvedev_transport_backward(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                                w: Uniform, fuel: int | None = None) -> CompletionWitness:
    """Rebuild the mediating choice function from a Holding mass witness."""
    _expect(lhs, FORALL, FULL, ("T",))
    _expect(rhs, FORALL, FULL, ("T",))
    f, alpha = lhs.leg, lhs.payload
    g, beta = rhs.leg, rhs.payload
    mapping = {}
    for z in g.source:
        x = g.mapping[z]
        out = apply(pca, w.term, beta.values[z], fuel)
        if not out.is_defined:
            raise CheckError(f"input witness undefined on {to_text(beta.values[z])}")
        candidates = [y for y in f.fiber(x) if alpha.values[y] == out.term]
        if not candidates:
            raise CheckError("input witness does not hold: image misses every fiber value")
        mapping[z] = candidates[0]
    return CompletionWitness(FinMap(g.source, f.source, mapping), w)


def muchnik_transport_forward(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                              w: CompletionWitness, fuel: int | None = None) -> PerPoint:
    """Per-point completion witness into a per-solution mass witness.  A
    bounded base stands for the least inner witness at each point."""
    _expect(lhs, FORALL, FULL, ("Tw",))
    g, beta = rhs.leg, rhs.payload
    if isinstance(w.base, Bounded):
        h = w.mediator
        inner = {z: find_inner_witness(pca, beta.values[z], frozenset([lhs.payload.values[h.mapping[z]]]),
                                       w.base.bound, fuel)[0] for z in g.source}
        if None in inner.values():
            raise CheckError("bounded base witness: no inner witness within its bound")
    elif isinstance(w.base, PerPoint):
        inner = w.base.mapping
    else:
        raise CheckError("per-point transport needs a per-point or bounded base witness")
    table = {}
    for x in g.target:
        for z in g.fiber(x):
            table.setdefault((x, beta.values[z]), inner[z])  # least z in canonical order wins
    return PerPoint(table)


def muchnik_transport_backward(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                               w: PerPoint, fuel: int | None = None) -> CompletionWitness:
    _expect(lhs, FORALL, FULL, ("Tw",))
    f, alpha = lhs.leg, lhs.payload
    g, beta = rhs.leg, rhs.payload
    mapping = {}
    base = {}
    for z in g.source:
        x = g.mapping[z]
        b = beta.values[z]
        a = w.mapping.get((x, b))
        if a is None:
            raise CheckError(f"witness table missing ({to_text(x) if isinstance(x, Term) else x}, {to_text(b)})")
        out = apply(pca, a, b, fuel)
        if not out.is_defined:
            raise CheckError("input witness undefined")
        candidates = [y for y in f.fiber(x) if alpha.values[y] == out.term]
        if not candidates:
            raise CheckError("input witness does not hold")
        mapping[z] = candidates[0]
        base[z] = a
    return CompletionWitness(FinMap(g.source, f.source, mapping), PerPoint(base))


# ---------------------------------------------------------------------------
# Generalized predicates vs pure existential completions


def weihrauch_from_completion(pca: Pca, obj: CompletionObject) -> Predicate:
    """(pi_X, f) -> F with F(x, y) = f(<x, y>): table transposition."""
    _expect(obj, EXISTS, PURE, ("dW", "dsW"))
    X = obj.leg.target
    _, Y = product_components(obj.leg.source)
    fam = obj.payload
    table = {(x, y): fam.values[pair_term(x, y)] for x in X for y in Y}
    return Predicate(X, Y, table, fam.policy)


def weihrauch_to_completion(pca: Pca, pred: Predicate, doc: str = "dW") -> CompletionObject:
    prod = carrier_product(pca, pred.base, pred.index)
    values = {}
    for t in prod.object:
        x, y = split_pair(t)
        values[t] = pred.table[(x, y)]
    fam = MassFamily(prod.object, values, pred.policy)
    return CompletionObject(EXISTS, PURE, doc, prod.fst, fam)


def weihrauch_transport_forward(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                                w: CompletionWitness, fuel: int | None = None) -> ForwardBackward:
    """Mediator <pi_X, k> into the forward map k, keeping the backward term."""
    h = w.mediator
    if not isinstance(h, FinMap) or h.realizer is None:
        raise CheckError("pure mediators are computable maps")
    _, Z = product_components(h.target)
    mapping = {t: split_pair(h.mapping[t])[1] for t in h.source}
    u = Var("u")
    realizer = abstract_all(("u",), App(SND, App(h.realizer, u)))
    k = FinMap(h.source, Z, mapping, realizer)
    if not isinstance(w.base, Uniform):
        raise CheckError("transport needs a uniform base witness")
    return ForwardBackward(k, w.base.term)


def weihrauch_transport_backward(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                                 w: ForwardBackward, fuel: int | None = None) -> CompletionWitness:
    """Forward map k into the mediator <pi_X, k> over the product."""
    k = w.forward
    if k.realizer is None:
        raise CheckError("forward maps of generalized reductions are computable")
    X, _Y = product_components(k.source)
    target_prod = carrier_product(pca, X, k.target)
    mapping = {t: pair_term(split_pair(t)[0], k.mapping[t]) for t in k.source}
    u = Var("u")
    realizer = abstract_all(("u",), ap(PAIR, App(FST, u), App(k.realizer, u)))
    h = FinMap(k.source, target_prod.object, mapping, realizer)
    return CompletionWitness(h, Uniform(w.backward))


def realizer_from_completion(pca: Pca, obj: CompletionObject) -> Predicate:
    """Assembly analogue of the transposition."""
    _expect(obj, EXISTS, PURE, ("drW", "dextW"))
    X, Y = ext_product_components(obj.leg.source)
    fam = obj.payload
    table = {}
    for kx in X.naming:
        for ky in Y.naming:
            table[(kx, ky)] = fam.values[(pair_term(kx[0], ky[0]), (kx[1], ky[1]))]
    return Predicate(X, Y, table, fam.policy)


def realizer_to_completion(pca: Pca, pred: Predicate, doc: str = "drW") -> CompletionObject:
    prod = ext_product(pca, pred.base, pred.index)
    values = {}
    for name, pt in prod.object.naming:
        p, q = split_pair(name)
        values[(name, pt)] = pred.table[((p, pt[0]), (q, pt[1]))]
    from .doctrines import AssemblyFamily

    fam = AssemblyFamily(prod.object, values, pred.policy)
    return CompletionObject(EXISTS, PURE, doc, prod.fst, fam)


def realizer_transport_forward(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                               w: CompletionWitness, fuel: int | None = None) -> ExtForwardBackward:
    hm = w.mediator
    if not isinstance(hm, ExtMorphism):
        raise CheckError("assembly transport needs an ext mediator")
    _, Z = ext_product_components(hm.target)
    u = Var("u")
    realizer = abstract_all(("u",), App(SND, App(hm.realizer, u)))
    pointmap = {key: hm.pointmap[key][1] for key in hm.pointmap}
    km = ExtMorphism(hm.source, Z, realizer, pointmap)
    if not isinstance(w.base, Uniform):
        raise CheckError("transport needs a uniform base witness")
    return ExtForwardBackward(km, w.base.term)


def realizer_transport_backward(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                                w: ExtForwardBackward, fuel: int | None = None) -> CompletionWitness:
    km = w.forward
    target_prod = ext_product(pca, lhs.leg.target, km.target)
    u = Var("u")
    realizer = abstract_all(("u",), ap(PAIR, App(FST, u), App(km.realizer, u)))
    pointmap = {(name, pt): (pt[0], km.pointmap[(name, pt)]) for name, pt in km.source.naming}
    hm = ExtMorphism(km.source, target_prod.object, realizer, pointmap)
    return CompletionWitness(hm, Uniform(w.backward))


# ---------------------------------------------------------------------------
# Classical reducibility at the terminal object


def classical_to_generalized(pca: Pca, fam: MassFamily, one: FinSet) -> Predicate:
    """A problem on a carrier as a predicate over the one-point carrier."""
    t1 = one.points[0]
    table = {(t1, y): fam.values[y] for y in fam.base}
    return Predicate(one, fam.base, table, fam.policy)


def classical_witness_to_generalized(pca: Pca, w: ForwardBackward, one: FinSet,
                                     strong: bool = False) -> ForwardBackward:
    t1 = one.points[0]
    k = w.forward
    prod = carrier_product(pca, one, k.source)
    mapping = {t: k.mapping[split_pair(t)[1]] for t in prod.object}
    u = Var("u")
    realizer = abstract_all(("u",), App(k.realizer, App(SND, u)))
    k2 = FinMap(prod.object, k.target, mapping, realizer)
    if strong:
        return ForwardBackward(k2, w.backward)
    h2 = abstract_all(
        ("u",), App(w.backward, ap(PAIR, App(SND, App(FST, u)), App(SND, u)))
    )
    return ForwardBackward(k2, h2)


def generalized_witness_to_classical(pca: Pca, w: ForwardBackward, one: FinSet,
                                     strong: bool = False) -> ForwardBackward:
    t1 = one.points[0]
    if not (isinstance(t1, Term) and is_computable(t1)):
        raise CheckError("the terminal element must be computable to invert the embedding")
    k = w.forward
    _, Y = product_components(k.source)
    mapping = {y: k.mapping[pair_term(t1, y)] for y in Y}
    u = Var("u")
    realizer = abstract_all(("u",), App(k.realizer, ap(PAIR, t1, u)))
    k2 = FinMap(Y, k.target, mapping, realizer)
    if strong:
        return ForwardBackward(k2, w.backward)
    h2 = abstract_all(
        ("u",), App(w.backward, ap(PAIR, ap(PAIR, t1, App(FST, u)), App(SND, u)))
    )
    return ForwardBackward(k2, h2)


# ---------------------------------------------------------------------------
# Modest restriction: assembly predicates vs carrier predicates


def modest_predicate_to_carrier(pca: Pca, pred: Predicate) -> Predicate:
    """Restrict an assembly-based predicate over partitioned modest assemblies
    to the underlying carriers of names."""
    X, Y = pred.base, pred.index
    Xc, Yc = assembly_to_carrier(X), assembly_to_carrier(Y)
    table = {}
    for (p, x) in X.naming:
        for (q, y) in Y.naming:
            table[(p, q)] = pred.table[((p, x), (q, y))]
    return Predicate(Xc, Yc, table, pred.policy)


def ext_fb_to_fb(pca: Pca, w: ExtForwardBackward, fuel: int | None = None) -> ForwardBackward:
    """On partitioned modest assemblies the realizer determines the map."""
    km = w.forward
    X, Y = ext_product_components(km.source)
    Xc, Yc = assembly_to_carrier(X), assembly_to_carrier(Y)
    Zc = assembly_to_carrier(km.target)
    prod = carrier_product(pca, Xc, Yc)
    images = images_of(pca, km.realizer, prod.object.points, Zc, fuel)
    if images is None:
        raise CheckError("forward realizer does not act on the name carrier")
    k = FinMap(prod.object, Zc, dict(zip(prod.object.points, images)), km.realizer)
    return ForwardBackward(k, w.backward)


def fb_to_ext_fb(pca: Pca, w: ForwardBackward, X: Assembly, Y: Assembly, Z: Assembly,
                 fuel: int | None = None) -> ExtForwardBackward:
    prod = ext_product(pca, X, Y)
    k = w.forward
    point_of = {n: z for n, z in Z.naming}
    pointmap = {}
    for name, pt in prod.object.naming:
        pointmap[(name, pt)] = point_of[k.mapping[name]]
    km = ExtMorphism(prod.object, Z, k.realizer, pointmap)
    return ExtForwardBackward(km, w.backward)


# ---------------------------------------------------------------------------
# Extended predicates: assemblies and relation predicates


def ext_pred_to_assembly(pca: Pca, f: ExtendedPredicate) -> tuple[Assembly, "AssemblyFamily"]:
    """Candidate solution sets become points named by the inputs offering
    them; the family returns each point itself."""
    from .doctrines import AssemblyFamily

    points = sorted({a for p in f.dom for a in f.table[p]}, key=point_key)
    naming = tuple((p, a) for p in f.dom for a in f.table[p])
    if not points:
        raise CheckError("empty extended predicate has no assembly")
    asm = Assembly(tuple(points), naming)
    fam = AssemblyFamily(
        asm,
        {(p, a): a for (p, a) in naming},
        NONEMPTY if f.is_notnot_dense else ALLOW_EMPTY,
    )
    return asm, fam


def extended_to_dialectica(f: ExtendedPredicate) -> DialecticaPredicate:
    """An extended predicate as a relation predicate: each offered set is
    related to its input and is its own solution set."""
    table = {(p, a): a for p in f.dom for a in f.table[p]}
    return DialecticaPredicate(f.dom, table)


def dialectica_shift(pca: Pca, G: DialecticaPredicate, k: Term, base: FinSet,
                     fuel: int | None = None) -> DialecticaPredicate:
    """The predicate (p, A) -> G(k.p, A), defined where k.p lands in G's base."""
    if not is_computable(k):
        raise CheckError("shift map must be computable")
    table = {}
    for p in base:
        out = normalize(pca, App(k, p), fuel)
        if not out.is_defined:
            continue
        for (x, a), v in G.table.items():
            if x == out.term:
                table[(p, a)] = v
    return DialecticaPredicate(base, table)


# ---------------------------------------------------------------------------
# Relation predicates vs full existential completions of mass fibers


def dialectica_from_completion(pca: Pca, obj: CompletionObject) -> DialecticaPredicate:
    """(f, alpha) -> F over R = {(x, A) : A = alpha(y) for some y in the
    fiber of x}, with F(x, A) = A."""
    _expect(obj, EXISTS, FULL, ("M",))
    leg, alpha = obj.leg, obj.payload
    table = {}
    for y in leg.source:
        table[(leg.mapping[y], frozenset(alpha.values[y]))] = frozenset(alpha.values[y])
    return DialecticaPredicate(leg.target, table)


def dialectica_to_completion(pca: Pca, F: DialecticaPredicate, doc: str = "M") -> CompletionObject:
    """The section (pi_X: R -> X, F)."""
    R = FinSet(tuple(F.relation))
    leg = FinMap(R, F.base, {(x, a): x for (x, a) in F.relation})
    payload = MassFamily(R, {key: F.table[key] for key in F.relation}, ALLOW_EMPTY)
    return CompletionObject(EXISTS, FULL, doc, leg, payload)


def dialectica_transport_forward(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                                 w: CompletionWitness, fuel: int | None = None) -> DialecticaWitness:
    """Mediated existential witness into a pointwise choice witness."""
    _expect(lhs, EXISTS, FULL, ("M",))
    f, alpha = lhs.leg, lhs.payload
    g, beta = rhs.leg, rhs.payload
    k = w.mediator
    if not isinstance(w.base, Uniform):
        raise CheckError("transport needs a uniform base witness")
    choice = {}
    for x in f.target:
        for y in f.fiber(x):
            a = frozenset(alpha.values[y])
            if (x, a) in choice:
                continue  # least y in canonical order wins
            choice[(x, a)] = frozenset(beta.values[k.mapping[y]])
    return DialecticaWitness(choice, w.base.term)


def dialectica_transport_backward(pca: Pca, lhs: CompletionObject, rhs: CompletionObject,
                                  w: DialecticaWitness, fuel: int | None = None) -> CompletionWitness:
    _expect(lhs, EXISTS, FULL, ("M",))
    f, alpha = lhs.leg, lhs.payload
    g, beta = rhs.leg, rhs.payload
    mapping = {}
    for y in f.source:
        want = w.choice.get((f.mapping[y], frozenset(alpha.values[y])))
        if want is None:
            raise CheckError("choice map missing a relation pair")
        candidates = [z for z in g.fiber(f.mapping[y]) if frozenset(beta.values[z]) == want]
        if not candidates:
            raise CheckError("input witness does not hold: chosen set not represented")
        mapping[y] = candidates[0]
    return CompletionWitness(FinMap(f.source, g.source, mapping), Uniform(w.backward))


# ---------------------------------------------------------------------------
# The seven equivalences


class Equivalence(NamedTuple):
    """A concrete order against its completion: the object maps both ways
    (``to_completion`` takes the completion doctrine too) and the witness
    transports, forward from the completion order and backward into it."""

    concrete: str  # the concrete order's doctrine
    completion: str  # the completion objects' doctrine
    from_completion: Callable
    to_completion: Callable
    forward: Callable
    backward: Callable


_TRANSPOSE = (weihrauch_from_completion, weihrauch_to_completion,
              weihrauch_transport_forward, weihrauch_transport_backward)
_EXT_TRANSPOSE = (realizer_from_completion, realizer_to_completion,
                  realizer_transport_forward, realizer_transport_backward)
EQUIVALENCES = {
    "medvedev": Equivalence("M", "T", medvedev_from_completion, medvedev_to_completion,
                            medvedev_transport_forward, medvedev_transport_backward),
    "muchnik": Equivalence("Mw", "Tw", medvedev_from_completion, medvedev_to_completion,
                           muchnik_transport_forward, muchnik_transport_backward),
    "weihrauch": Equivalence("W", "dW", *_TRANSPOSE),
    "strong": Equivalence("SW", "dsW", *_TRANSPOSE),
    "realizer": Equivalence("rW", "drW", *_EXT_TRANSPOSE),
    "extended": Equivalence("tW", "dextW", *_EXT_TRANSPOSE),
    "dialectica": Equivalence("D", "M", dialectica_from_completion, dialectica_to_completion,
                              dialectica_transport_forward, dialectica_transport_backward),
}


# ---------------------------------------------------------------------------
# The two-step (universal then existential) construction over tracked fibers


@dataclass(frozen=True)
class TwoStepObject:
    """An object of the existential completion whose payloads are universal
    completion objects: (leg: Y -> X, payload over Y)."""

    leg: FinMap
    payload: CompletionObject

    def __post_init__(self):
        if self.payload.kind != FORALL or self.payload.klass != FULL:
            raise CheckError("two-step payloads are full universal objects")
        if self.payload.target != self.leg.source:
            raise CheckError("payload must live over the source of the outer leg")


@dataclass(frozen=True)
class TwoStepWitness:
    mediator: FinMap
    inner: CompletionWitness


def two_step_le(pca: Pca, lhs: TwoStepObject, rhs: TwoStepObject, w: TwoStepWitness,
                fuel: int | None = None) -> Verdict:
    """The existential order between two-step objects: an outer mediator plus
    an inner universal-completion witness."""
    from . import verdicts

    h = w.mediator
    if h.source != lhs.leg.source or h.target != rhs.leg.source:
        raise CheckError("outer mediator endpoints do not match")
    for y in h.source:
        if rhs.leg.mapping[h.mapping[y]] != lhs.leg.mapping[y]:
            return verdicts.refuted((to_text(y) if isinstance(y, Term) else str(y),),
                                    notes=("outer triangle does not commute",))
    reindexed = comp_reindex(pca, h, rhs.payload, fuel)
    return comp_le(pca, lhs.payload, reindexed, w.inner, fuel)


def two_step_to_dialectica(pca: Pca, obj: TwoStepObject) -> DialecticaPredicate:
    """Collapse the inner universal object to a mass fiber, then read the
    whole thing as a relation predicate."""
    phi = medvedev_from_completion(pca, obj.payload)
    inner_as_exists = CompletionObject(EXISTS, FULL, "M", obj.leg, phi)
    return dialectica_from_completion(pca, inner_as_exists)


def two_step_transport_forward(pca: Pca, lhs: TwoStepObject, rhs: TwoStepObject,
                               w: TwoStepWitness, fuel: int | None = None) -> DialecticaWitness:
    """Transport through both collapses: universal first, existential second."""
    phi_l = medvedev_from_completion(pca, lhs.payload)
    phi_r = medvedev_from_completion(pca, rhs.payload)
    base_uniform = medvedev_transport_forward(pca, lhs.payload, rhs.payload, w.inner, fuel)
    outer_l = CompletionObject(EXISTS, FULL, "M", lhs.leg, phi_l)
    outer_r = CompletionObject(EXISTS, FULL, "M", rhs.leg, phi_r)
    return dialectica_transport_forward(
        pca, outer_l, outer_r, CompletionWitness(w.mediator, base_uniform), fuel
    )
