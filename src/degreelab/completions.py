"""Free quantifier completions over a base order.

An object of a completion fiber over A is a pair (leg, payload): a morphism
f: B -> A drawn from the completion's class of legs together with a base
element over B.  The full class admits every finite map; the pure class only
product projections, of carriers or of assemblies alike (composites of
projections and identities count, since the class must be closed under
composition and pullbacks; membership accepts composites up to depth 3).
Reindexing a pure object handles identity legs and single projections.

Order between objects is mediated: for existential completions a mediator
h with rhs_leg . h = lhs_leg and payload(lhs) <= reindex_h(payload(rhs));
for universal completions a mediator h with lhs_leg . h = rhs_leg and
reindex_h(payload(lhs)) <= payload(rhs).  Both halves are certified: the
triangle on graphs and the base inequality through `doctrines.check_le`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import verdicts
from .doctrines import (
    DOCTRINES,
    CheckError,
    Uniform,
    Witness,
    check_le,
    forall_along,
    reindex,
)
from .pca import FST, ID, PAIR, Pca, SND, abstract_all
from .spaces import (
    Assembly,
    ExtMorphism,
    FinMap,
    FinSet,
    PullbackSquare,
    SpaceTimeout,
    carrier_product,
    compose_maps,
    ext_compose,
    ext_identity,
    ext_product,
    identity_map,
    is_pullback,
    point_text,
    product_components,
    projection_path,
    pullback,
)
from .terms import App, Var, ap, pair_term, split_pair
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
    payload: object

    def __post_init__(self):
        if self.kind not in (EXISTS, FORALL):
            raise CheckError(f"bad completion kind {self.kind!r}")
        if self.klass not in (FULL, PURE):
            raise CheckError(f"bad completion class {self.klass!r}")
        if self.doc not in DOCTRINES:
            raise CheckError(f"unknown doctrine id {self.doc!r}")
        src = self.leg.source
        base = getattr(self.payload, "base", None)
        if base is None:
            base = getattr(self.payload, "dom", None)
        if base != src:
            raise CheckError("payload base must be the source of the leg")
        if self.klass == PURE and projection_path(self.leg) is None:
            raise CheckError("pure completions only admit product projections as legs")

    @property
    def target(self):
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
    if lhs.target != rhs.target:
        raise CheckError("completion objects live over different targets")
    try:
        return _comp_le(pca, lhs, rhs, w, fuel)
    except SpaceTimeout as e:
        return verdicts.unknown((str(e),))


def _comp_le(pca, lhs, rhs, w, fuel):
    h = w.mediator
    if lhs.kind == EXISTS:
        _expect_endpoints(h, lhs.leg.source, rhs.leg.source)
        if lhs.klass == PURE:
            _require_base_morphism(h)
        bad = _triangle_failure(pca, rhs.leg, h, lhs.leg, fuel)
        if bad is not None:
            return verdicts.refuted(bad, notes=("mediator triangle does not commute",))
        reindexed = reindex(pca, lhs.doc, h, rhs.payload, fuel)
        inner = check_le(pca, lhs.doc, lhs.payload, reindexed, w.base, fuel)
    else:
        _expect_endpoints(h, rhs.leg.source, lhs.leg.source)
        if lhs.klass == PURE:
            _require_base_morphism(h)
        bad = _triangle_failure(pca, lhs.leg, h, rhs.leg, fuel)
        if bad is not None:
            return verdicts.refuted(bad, notes=("mediator triangle does not commute",))
        reindexed = reindex(pca, lhs.doc, h, lhs.payload, fuel)
        inner = check_le(pca, lhs.doc, reindexed, rhs.payload, w.base, fuel)
    if inner.holds:
        return verdicts.holds(w, notes=inner.notes)
    return inner


def _expect_endpoints(h, source, target) -> None:
    if h.source != source or h.target != target:
        raise CheckError("mediator endpoints do not match the claim")


def _require_base_morphism(h) -> None:
    if isinstance(h, FinMap) and h.realizer is None:
        raise CheckError("pure-class mediators must be morphisms of the computable base")


def _triangle_failure(pca, outer, h, expected, fuel):
    """Check outer . h = expected on graphs (or induced naming maps)."""
    if isinstance(h, FinMap):
        for b in h.source:
            if outer.mapping[h.mapping[b]] != expected.mapping[b]:
                return (point_text(b),)
        return None
    # ext morphisms: compare the induced maps on naming pairs
    for name, pt in h.source.naming:
        mid = h.induced(pca, name, pt, fuel)
        got = outer.induced(pca, mid[0], mid[1], fuel)
        want = expected.induced(pca, name, pt, fuel)
        if got != want:
            return (point_text(name), point_text(pt))
    return None


def identity_base_witness(doc: str) -> Uniform:
    """The identity-shaped witness for elem <= elem in each base order."""
    if doc in ("dW", "drW", "dextW"):
        return Uniform(SND)
    return Uniform(ID)


def identity_completion_witness(pca: Pca, obj: CompletionObject) -> CompletionWitness:
    return CompletionWitness(_identity_on(obj.leg.source), identity_base_witness(obj.doc))


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
            payload = reindex(pca, obj.doc, m, obj.payload, fuel)
            return CompletionObject(obj.kind, obj.klass, obj.doc, _identity_on(m.source), payload)
        square = pure_pullback_of_projection(pca, obj.leg, m)
    payload = reindex(pca, obj.doc, square.h_prime, obj.payload, fuel)
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
    if isinstance(m, FinMap):
        mapping = {}
        for t in prod.object:
            a, b = split_pair(t)
            mapping[t] = pair_term(m.mapping[a], b) if left_side else pair_term(a, m.mapping[b])
        return FinMap(prod.object, target, mapping, realizer)
    pointmap = {}
    for name, (x, y) in prod.object.naming:
        p, q = split_pair(name)
        pointmap[(name, (x, y))] = (m.pointmap[(p, x)], y) if left_side else (x, m.pointmap[(q, y)])
    return ExtMorphism(prod.object, target, realizer, pointmap)


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
    product = carrier_product if isinstance(leg, FinMap) else ext_product
    if path == ("fst",):
        prod = product(pca, m.source, right)
        f_prime = prod.fst
    else:
        prod = product(pca, left, m.source)
        f_prime = prod.snd
    h_prime = _times_identity(m, prod, leg.source, left_side=path == ("fst",))
    return PullbackSquare(leg, m, prod.object, f_prime, h_prime)
