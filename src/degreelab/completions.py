"""Free quantifier completions over a base order.

An object of a completion fiber over A is a pair (leg, payload): a morphism
f: B -> A drawn from the completion's class of legs together with a base
element over B.  The full class admits every finite map; the pure class only
product projections (composites of projections and identities count, since
the class must be closed under composition and pullbacks).

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
    CheckError,
    Uniform,
    Witness,
    check_le,
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
    ext_product,
    ext_product_components,
    ext_projection_path,
    is_pullback,
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
        src = self.leg.source
        base = getattr(self.payload, "base", None)
        if base is None:
            base = getattr(self.payload, "dom", None)
        if base != src:
            raise CheckError("payload base must be the source of the leg")
        if self.klass == PURE and not _is_projection_leg(self.leg):
            raise CheckError("pure completions only admit product projections as legs")

    @property
    def target(self):
        return self.leg.target


def _is_projection_leg(leg) -> bool:
    if isinstance(leg, FinMap):
        return projection_path(leg) is not None
    if isinstance(leg, ExtMorphism):
        return ext_projection_path(leg) is not None
    return False


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
    if _targets_differ(lhs, rhs):
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


def _targets_differ(lhs: CompletionObject, rhs: CompletionObject) -> bool:
    return lhs.target != rhs.target


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
                from .spaces import point_text

                return (point_text(b),)
        return None
    # ext morphisms: compare the induced maps on naming pairs
    for name, pt in h.source.naming:
        mid = h.induced(pca, name, pt, fuel)
        got = outer.induced(pca, mid[0], mid[1], fuel)
        want = expected.induced(pca, name, pt, fuel)
        if got != want:
            from .spaces import point_text

            return (point_text(name), point_text(pt))
    return None


def identity_base_witness(doc: str) -> Uniform:
    """The identity-shaped witness for elem <= elem in each base order."""
    if doc in ("dW", "drW", "dextW"):
        return Uniform(SND)
    return Uniform(ID)


def identity_completion_witness(pca: Pca, obj: CompletionObject) -> CompletionWitness:
    from .spaces import ext_identity, identity_map

    if isinstance(obj.leg, FinMap):
        med = identity_map(obj.leg.source)
    else:
        med = ext_identity(obj.leg.source)
    return CompletionWitness(med, identity_base_witness(obj.doc))


def eta(pca: Pca, doc: str, kind: str, klass: str, elem) -> CompletionObject:
    """The canonical inclusion of a base element: payload over the identity leg."""
    from .spaces import ext_identity, identity_map

    base = getattr(elem, "base", None)
    if isinstance(base, FinSet):
        leg = identity_map(base)
    elif isinstance(base, Assembly):
        leg = ext_identity(base)
    else:
        raise CheckError("cannot include an element without a finite base")
    return CompletionObject(kind, klass, doc, leg, elem)


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
        payload = reindex(pca, obj.doc, square.h_prime, obj.payload, fuel)
        return CompletionObject(obj.kind, obj.klass, obj.doc, square.f_prime, payload)
    # Pure class: the pullback of a projection is again a projection with the
    # same index object.
    if isinstance(obj.leg, FinMap):
        if not isinstance(m, FinMap):
            raise CheckError("pure-class reindexing needs a finite map")
        if m.target != obj.leg.target:
            raise CheckError("reindexing map must land in the object's target")
        left, right = product_components(obj.leg.source) if len(obj.leg.source) else (obj.leg.target, FinSet(()))
        path = projection_path(obj.leg)
        if path == ():
            # identity leg: pullback is m itself with payload reindexed
            payload = reindex(pca, obj.doc, m, obj.payload, fuel)
            from .spaces import identity_map

            return CompletionObject(obj.kind, obj.klass, obj.doc, identity_map(m.source), payload)
        index = right if path == ("fst",) else left
        prod = carrier_product(pca, m.source, index) if path == ("fst",) else None
        if path == ("fst",):
            new_leg = prod.fst
            m_times_id = _map_times_identity(pca, m, index, prod, left_side=True)
        elif path == ("snd",):
            prod = carrier_product(pca, index, m.source)
            new_leg = prod.snd
            m_times_id = _map_times_identity(pca, m, index, prod, left_side=False)
        else:
            raise CheckError("pure-class reindexing handles single projections only")
        payload = reindex(pca, obj.doc, m_times_id, obj.payload, fuel)
        return CompletionObject(obj.kind, obj.klass, obj.doc, new_leg, payload)
    # ext case
    if not isinstance(m, ExtMorphism):
        raise CheckError("pure-class reindexing over assemblies needs an ext morphism")
    path = ext_projection_path(obj.leg)
    left, right = ext_product_components(obj.leg.source)
    if path == ("fst",):
        prod = ext_product(pca, m.source, right)
        new_leg = prod.fst
        m_times_id = _ext_times_identity(pca, m, right, prod, left_side=True, fuel=fuel)
    elif path == ("snd",):
        prod = ext_product(pca, left, m.source)
        new_leg = prod.snd
        m_times_id = _ext_times_identity(pca, m, left, prod, left_side=False, fuel=fuel)
    else:
        raise CheckError("pure-class reindexing handles single projections only")
    payload = reindex(pca, obj.doc, m_times_id, obj.payload, fuel)
    return CompletionObject(obj.kind, obj.klass, obj.doc, new_leg, payload)


def _map_times_identity(pca, m: FinMap, index: FinSet, prod, left_side: bool) -> FinMap:
    if m.realizer is None:
        raise CheckError("pure-class reindexing needs a computable map")
    u = Var("u")
    if left_side:
        target_prod = carrier_product(pca, m.target, index)
        mapping = {t: pair_term(m.mapping[split_pair(t)[0]], split_pair(t)[1]) for t in prod.object}
        realizer = abstract_all(("u",), ap(PAIR, App(m.realizer, App(FST, u)), App(SND, u)))
    else:
        target_prod = carrier_product(pca, index, m.target)
        mapping = {t: pair_term(split_pair(t)[0], m.mapping[split_pair(t)[1]]) for t in prod.object}
        realizer = abstract_all(("u",), ap(PAIR, App(FST, u), App(m.realizer, App(SND, u))))
    return FinMap(prod.object, target_prod.object, mapping, realizer)


def _ext_times_identity(pca, m: ExtMorphism, index: Assembly, prod, left_side: bool, fuel) -> ExtMorphism:
    u = Var("u")
    if left_side:
        target_prod = ext_product(pca, m.target, index)
        realizer = abstract_all(("u",), ap(PAIR, App(m.realizer, App(FST, u)), App(SND, u)))
    else:
        target_prod = ext_product(pca, index, m.target)
        realizer = abstract_all(("u",), ap(PAIR, App(FST, u), App(m.realizer, App(SND, u))))
    pointmap = {}
    for name, pt in prod.object.naming:
        p, q = split_pair(name)
        if left_side:
            img = m.pointmap[(p, pt[0])]
            pointmap[(name, pt)] = (img, pt[1])
        else:
            img = m.pointmap[(q, pt[1])]
            pointmap[(name, pt)] = (pt[0], img)
    return ExtMorphism(prod.object, target_prod.object, realizer, pointmap)


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
    if obj.klass == PURE and not _is_projection_leg(new_leg):
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
        from .doctrines import forall_along

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
    w1 = CompletionWitness(_identity_mediator(side_one), identity_base_witness(doc))
    one = comp_le(pca, side_one, side_two, w1, fuel)
    two = comp_le(pca, side_two, side_one, w1, fuel)
    return _merge(one, two, w1)


def _identity_mediator(obj: CompletionObject):
    from .spaces import ext_identity, identity_map

    if isinstance(obj.leg, FinMap):
        return identity_map(obj.leg.source)
    return ext_identity(obj.leg.source)


def _merge(one: Verdict, two: Verdict, w) -> Verdict:
    if one.holds and two.holds:
        return verdicts.holds(w)
    for v in (one, two):
        if v.refuted:
            return v
    return verdicts.unknown(one.unknowns + two.unknowns)


def pure_pullback_of_projection(pca: Pca, leg: FinMap, m: FinMap) -> PullbackSquare:
    """The pullback of a product projection along m, normalized so the apex is
    again a product carrier and the pulled-back leg a projection."""
    path = projection_path(leg)
    if path not in (("fst",), ("snd",)):
        raise CheckError("need a single product projection")
    left, right = product_components(leg.source)
    if path == ("fst",):
        index = right
        prod = carrier_product(pca, m.source, index)
        f_prime = prod.fst
        h_prime = _map_times_identity(pca, m, index, prod, left_side=True)
    else:
        index = left
        prod = carrier_product(pca, index, m.source)
        f_prime = prod.snd
        h_prime = _map_times_identity(pca, m, index, prod, left_side=False)
    # restate h_prime as landing exactly in leg.source
    h_prime = FinMap(prod.object, leg.source, dict(h_prime.mapping), h_prime.realizer)
    return PullbackSquare(leg, m, prod.object, f_prime, h_prime)
