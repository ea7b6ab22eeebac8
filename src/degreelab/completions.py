"""Free quantifier completions over a base order.

An object of a completion fiber over A is a pair (leg, payload): a morphism
f: B -> A drawn from the completion's class of legs together with a base
element over B.  The full class admits every finite map; the pure class only
product projections, of carriers or of assemblies alike (composites of
projections and identities count, since the class must be closed under
composition and pullbacks; membership accepts composites up to depth 3).
Reindexing a pure object handles identity legs and single projections.

A payload may itself be a completion object over B, ordered by the same
doctrine: an existential object whose payloads are universal objects is an
object of the dialectica doctrine of the base order.  Such payloads are
reindexed with `comp_reindex` and compared with `comp_le`, and a witness
nests a `CompletionWitness` per level.

Order between objects is mediated: for existential completions a mediator
h with rhs_leg . h = lhs_leg and payload(lhs) <= reindex_h(payload(rhs));
for universal completions a mediator h with lhs_leg . h = rhs_leg and
reindex_h(payload(lhs)) <= payload(rhs).  One body serves both kinds: the
mediator runs from one object's leg source to the other's
(`mediator_ends`), and the payload of the object it runs into is reindexed.
Both halves are certified: the triangle on graphs and the payload
inequality through `doctrines.check_le` (or `comp_le` for nested payloads).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import verdicts
from .doctrines import (
    CheckError,
    Uniform,
    Witness,
    check_le,
    forall_along,
    order_of,
    reindex,
)
from .pca import FST, PAIR, Pca, SND, abstract_all
from .spaces import (
    Assembly,
    ExtMorphism,
    FinMap,
    FinSet,
    PullbackSquare,
    SpaceTimeout,
    compose_maps,
    ext_compose,
    ext_identity,
    identity_map,
    is_pullback,
    key_image,
    keys,
    map_like,
    pair_point,
    point_text,
    product,
    product_components,
    projection_path,
    pullback,
    split_key,
)
from .terms import App, Var, ap
from .verdicts import Verdict

EXISTS = "exists"
FORALL = "forall"
FULL = "full"
PURE = "pure"


@dataclass(frozen=True)
class CompletionObject:
    kind: str  # exists | forall
    klass: str  # full | pure
    doc: str  # base doctrine id ordering the payloads
    leg: object  # FinMap | ExtMorphism
    payload: object  # a base element, or a completion object over doc

    def __post_init__(self):
        if self.kind not in (EXISTS, FORALL):
            raise CheckError(f"bad completion kind {self.kind!r}")
        if self.klass not in (FULL, PURE):
            raise CheckError(f"bad completion class {self.klass!r}")
        order_of(self.doc)  # raises on an unknown doctrine id
        if isinstance(self.payload, CompletionObject) and self.payload.doc != self.doc:
            raise CheckError("a completion payload must be ordered by the object's doctrine")
        src = self.leg.source
        base = getattr(self.payload, "base", None)
        if base is None:
            base = getattr(self.payload, "dom", None)
        if base != src:
            raise CheckError("payload base must be the source of the leg")
        if self.klass == PURE and projection_path(self.leg) is None:
            raise CheckError("pure completions only admit product projections as legs")

    @property
    def base(self):
        """The object the completion element lives over: its leg's target."""
        return self.leg.target


@dataclass(frozen=True)
class CompletionWitness:
    mediator: object  # FinMap | ExtMorphism
    base: Witness


def comp_le(pca: Pca, lhs: CompletionObject, rhs: CompletionObject, w: CompletionWitness,
            fuel: int | None = None) -> Verdict:
    """Certify lhs <= rhs in the completion fiber over their common target;
    unknown when a realizer the check needs runs out of fuel."""
    if lhs.kind != rhs.kind or lhs.klass != rhs.klass or lhs.doc != rhs.doc:
        raise CheckError("completion kind/class/doctrine mismatch")
    if lhs.base != rhs.base:
        raise CheckError("completion objects live over different targets")
    if isinstance(lhs.payload, CompletionObject) != isinstance(rhs.payload, CompletionObject):
        raise CheckError("completion objects nest to different depths")
    if not isinstance(w, CompletionWitness):
        raise CheckError("completion claims need a mediated witness at every level")
    try:
        return _comp_le(pca, lhs, rhs, w, fuel)
    except SpaceTimeout as e:
        return verdicts.unknown((str(e),))


def mediator_ends(kind: str, lhs, rhs) -> tuple:
    """The pair the mediator of lhs <= rhs runs from and into: (lhs, rhs)
    in an existential completion, (rhs, lhs) in a universal one.  Applied to
    (payload of the first, reindexed payload of the second) it gives the
    payload claim back in lhs-to-rhs order."""
    return (lhs, rhs) if kind == EXISTS else (rhs, lhs)


def _comp_le(pca, lhs, rhs, w, fuel):
    h = w.mediator
    src, tgt = mediator_ends(lhs.kind, lhs, rhs)
    _expect_endpoints(h, src.leg.source, tgt.leg.source)
    if lhs.klass == PURE:
        _require_base_morphism(h)
    bad = _triangle_failure(pca, tgt.leg, h, src.leg, fuel)
    if bad is not None:
        return verdicts.refuted(bad, notes=("mediator triangle does not commute",))
    small, big = mediator_ends(lhs.kind, src.payload, _reindex_payload(pca, h, tgt, fuel))
    if isinstance(small, CompletionObject):
        inner = comp_le(pca, small, big, w.base, fuel)
    else:
        inner = check_le(pca, lhs.doc, small, big, w.base, fuel)
    if inner.holds:
        return verdicts.holds(w, notes=inner.notes)
    return inner


def _reindex_payload(pca, m, obj: CompletionObject, fuel):
    """obj's payload pulled back along m: `comp_reindex` for a completion
    payload, `doctrines.reindex` for a base element."""
    if isinstance(obj.payload, CompletionObject):
        return comp_reindex(pca, m, obj.payload, fuel)
    return reindex(pca, obj.doc, m, obj.payload, fuel)


def _expect_endpoints(h, source, target) -> None:
    if h.source != source or h.target != target:
        raise CheckError("mediator endpoints do not match the claim")


def _require_base_morphism(h) -> None:
    if isinstance(h, FinMap) and h.realizer is None:
        raise CheckError("pure-class mediators must be morphisms of the computable base")


def _triangle_failure(pca, outer, h, expected, fuel):
    """Check outer . h = expected on keys: on graphs, or on the induced maps
    on naming pairs."""
    for key in keys(h.source):
        if key_image(pca, outer, key_image(pca, h, key, fuel), fuel) != key_image(pca, expected, key, fuel):
            return tuple(map(point_text, key)) if isinstance(h, ExtMorphism) else (point_text(key),)
    return None


def identity_base_witness(doc: str) -> Uniform:
    """The witness of elem <= elem in a base order whose identity witness
    does not depend on elem (its record's ``identity``)."""
    w = order_of(doc).identity
    if w is None:
        raise CheckError(f"doctrine {doc} has no identity witness independent of the claim")
    return w


def identity_completion_witness(pca: Pca, obj: CompletionObject) -> CompletionWitness:
    """The witness of obj <= obj: the identity mediator at every level."""
    inner = obj.payload
    base = identity_completion_witness(pca, inner) if isinstance(inner, CompletionObject) else None
    return CompletionWitness(_identity_on(obj.leg.source), base or identity_base_witness(obj.doc))


def eta(pca: Pca, doc: str, kind: str, klass: str, elem) -> CompletionObject:
    """The canonical inclusion of a base element: payload over the identity leg."""
    return CompletionObject(kind, klass, doc, _identity_on(getattr(elem, "base", None)), elem)


def _identity_on(space):
    """The identity leg on a carrier (a finite map) or an assembly (an ext
    morphism)."""
    if isinstance(space, FinSet):
        return identity_map(space)
    if isinstance(space, Assembly):
        return ext_identity(space)
    raise CheckError("cannot include an element without a finite base")


# ---------------------------------------------------------------------------
# Reindexing of completion objects


def comp_reindex(pca: Pca, m, obj: CompletionObject, fuel: int | None = None) -> CompletionObject:
    """Pull a completion object back along a map into its target."""
    if obj.klass == FULL:
        if not isinstance(m, FinMap) or not isinstance(obj.leg, FinMap):
            raise CheckError("full-class reindexing works on finite maps")
        if m.target != obj.leg.target:
            raise CheckError("reindexing map must land in the object's target")
        square = pullback(obj.leg, m)
    else:
        # Pure class: the pullback of an identity is the identity on m's
        # source, and of a projection again a projection with the same index.
        if type(m) is not type(obj.leg):
            raise CheckError("pure-class reindexing needs a map of the leg's kind")
        if m.target != obj.leg.target:
            raise CheckError("reindexing map must land in the object's target")
        if projection_path(obj.leg) == ():
            payload = _reindex_payload(pca, m, obj, fuel)
            return CompletionObject(obj.kind, obj.klass, obj.doc, _identity_on(m.source), payload)
        square = pure_pullback_of_projection(pca, obj.leg, m)
    payload = _reindex_payload(pca, square.h_prime, obj, fuel)
    return CompletionObject(obj.kind, obj.klass, obj.doc, square.f_prime, payload)


def _times_identity(m, prod, target, left_side: bool):
    """m x id (left_side) or id x m out of the product prod, into target;
    a finite map or an ext morphism as m is."""
    if isinstance(m, FinMap) and m.realizer is None:
        raise CheckError("pure-class reindexing needs a computable map")
    u = Var("u")
    if left_side:
        realizer = abstract_all(("u",), ap(PAIR, App(m.realizer, App(FST, u)), App(SND, u)))
    else:
        realizer = abstract_all(("u",), ap(PAIR, App(FST, u), App(m.realizer, App(SND, u))))
    graph = {}
    for key in keys(prod.object):
        a, b = split_key(key)
        graph[key] = (pair_point(target, m(a), prod.snd(key)) if left_side
                      else pair_point(target, prod.fst(key), m(b)))
    return map_like(m, prod.object, target, graph, realizer)


# ---------------------------------------------------------------------------
# Quantifiers in the completion: leg composition


def comp_exists_along(pca: Pca, g, obj: CompletionObject) -> CompletionObject:
    """Existential transport along a leg-class morphism: compose the leg."""
    if obj.kind != EXISTS:
        raise CheckError("existential transport lives in existential completions")
    return _compose_leg(pca, g, obj)


def comp_forall_along(pca: Pca, g, obj: CompletionObject) -> CompletionObject:
    if obj.kind != FORALL:
        raise CheckError("universal transport lives in universal completions")
    return _compose_leg(pca, g, obj)


def _compose_leg(pca, g, obj):
    if isinstance(obj.leg, FinMap):
        if not isinstance(g, FinMap):
            raise CheckError("leg composition needs a finite map")
        new_leg = compose_maps(g, obj.leg)
    else:
        new_leg = ext_compose(pca, g, obj.leg)
    if obj.klass == PURE and projection_path(new_leg) is None:
        raise CheckError("composed leg leaves the projection class")
    return CompletionObject(obj.kind, obj.klass, obj.doc, new_leg, obj.payload)


# ---------------------------------------------------------------------------
# Beck-Chevalley


def beck_chevalley_check(pca: Pca, doc: str, kind: str, square: PullbackSquare, payload,
                         fuel: int | None = None) -> Verdict:
    """Both composites around a pullback square agree up to mutual order.

    For the universal mass quantifier the two sides are computed by the
    direct-image formula and compared with identity witnesses; for the pure
    existential case the two reindexed completion objects are compared with
    identity mediators.
    """
    if not is_pullback(square):
        raise CheckError("square is not a pullback of finite graphs")
    if kind == FORALL:
        lhs = forall_along(pca, doc, square.f_prime, reindex(pca, doc, square.h_prime, payload, fuel), fuel)
        rhs = reindex(pca, doc, square.h, forall_along(pca, doc, square.f, payload, fuel), fuel)
        w = identity_base_witness(doc)
        one = check_le(pca, doc, lhs, rhs, w, fuel)
        two = check_le(pca, doc, rhs, lhs, w, fuel)
        return _merge(one, two, w)
    # pure existential: compare P_h(exists_f payload) with exists_f'(P_h' payload)
    obj = CompletionObject(EXISTS, PURE, doc, square.f, payload)
    side_one = comp_reindex(pca, square.h, obj, fuel)
    side_two = CompletionObject(EXISTS, PURE, doc, square.f_prime,
                                reindex(pca, doc, square.h_prime, payload, fuel))
    w1 = identity_completion_witness(pca, side_one)
    one = comp_le(pca, side_one, side_two, w1, fuel)
    two = comp_le(pca, side_two, side_one, w1, fuel)
    return _merge(one, two, w1)


def _merge(one: Verdict, two: Verdict, w) -> Verdict:
    if one.holds and two.holds:
        return verdicts.holds(w)
    for v in (one, two):
        if v.refuted:
            return v
    return verdicts.unknown(one.timeouts + two.timeouts)


def pure_pullback_of_projection(pca: Pca, leg, m) -> PullbackSquare:
    """The pullback of a product projection along m, normalized so the apex is
    again a product and the pulled-back leg a projection.  leg and m are both
    carrier maps or both ext morphisms; h' lands exactly in leg.source."""
    path = projection_path(leg)
    if path not in (("fst",), ("snd",)):
        raise CheckError("need a single product projection")
    left, right = product_components(leg.source)
    if path == ("fst",):
        prod = product(pca, m.source, right)
        f_prime = prod.fst
    else:
        prod = product(pca, left, m.source)
        f_prime = prod.snd
    h_prime = _times_identity(m, prod, leg.source, left_side=path == ("fst",))
    return PullbackSquare(leg, m, prod.object, f_prime, h_prime)
