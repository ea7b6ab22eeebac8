import pytest

from degreelab.completions import (
    EXISTS,
    FORALL,
    FULL,
    PURE,
    CompletionObject,
    CompletionWitness,
    beck_chevalley_check,
    comp_exists_along,
    comp_forall_along,
    comp_le,
    comp_reindex,
    eta,
    identity_base_witness,
    identity_completion_witness,
    pure_pullback_of_projection,
)
from degreelab.doctrines import (
    CheckError,
    MassFamily,
    NONEMPTY,
    TrackedFamily,
    Uniform,
    check_le,
    compose_witnesses,
    reindex,
)
from degreelab.pca import ID, SND
from degreelab.spaces import (
    ExtMorphism,
    FinMap,
    assembly,
    carrier,
    carrier_product,
    ext_check,
    ext_identity,
    ext_product,
    identity_map,
    pullback,
)
from degreelab.terms import App, K, S, pair_term


def forall_T_object(pure, leg, values):
    return CompletionObject(FORALL, FULL, "T", leg, TrackedFamily(leg.source, values))


class TestCompLe:
    def test_reflexive_identity_leg(self, pure):
        X = carrier(pure, [K])
        obj = forall_T_object(pure, identity_map(X), {K: K})
        w = identity_completion_witness(pure, obj)
        assert comp_le(pure, obj, obj, w).holds

    def test_universal_two_object_shape(self, pure):
        # a 2-to-1 leg against the identity leg, mediated by a section
        X = carrier(pure, [K])
        Y = carrier(pure, [K, S])
        f = FinMap(Y, X, {K: K, S: K})
        lhs = forall_T_object(pure, f, {K: K, S: K})
        rhs = forall_T_object(pure, identity_map(X), {K: K})
        # mediator h: X -> Y picking the K branch; payload reindexes to K
        w = CompletionWitness(FinMap(X, Y, {K: K}), Uniform(ID))
        assert comp_le(pure, lhs, rhs, w).holds

    def test_triangle_failure_refutes(self, pure):
        X = carrier(pure, [K, S])
        lhs = forall_T_object(pure, identity_map(X), {K: K, S: S})
        rhs = forall_T_object(pure, identity_map(X), {K: K, S: S})
        bad = CompletionWitness(FinMap(X, X, {K: S, S: K}), Uniform(ID))
        v = comp_le(pure, lhs, rhs, bad)
        assert v.refuted and "triangle" in v.notes[0]

    def test_kind_mismatch_raises(self, pure):
        X = carrier(pure, [K])
        a = forall_T_object(pure, identity_map(X), {K: K})
        fam = MassFamily(X, {K: frozenset([K])}, NONEMPTY)
        prod_leg = identity_map(X)
        b = CompletionObject(EXISTS, PURE, "dW", prod_leg, fam)
        with pytest.raises(CheckError):
            comp_le(pure, a, b, identity_completion_witness(pure, a))

    def test_pure_exists_order_display(self, pure):
        # (pi, f) <= (pi', g) iff some computable k with f <= g(x, k(x,y))
        X = carrier(pure, [K])
        Y = carrier(pure, [K, S])
        prod = carrier_product(pure, X, Y)
        f = MassFamily(prod.object, {t: frozenset([K]) for t in prod.object}, NONEMPTY)
        lhs = CompletionObject(EXISTS, PURE, "dW", prod.fst, f)
        # mediator <pi_X, k> with k = snd: maps <x,y> to <x, y>
        med = FinMap(prod.object, prod.object, {t: t for t in prod.object}, ID)
        w = CompletionWitness(med, Uniform(SND))
        assert comp_le(pure, lhs, lhs, w).holds

    def test_pure_mediator_needs_realizer(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K])
        prod = carrier_product(pure, X, Y)
        f = MassFamily(prod.object, {t: frozenset([K]) for t in prod.object}, NONEMPTY)
        obj = CompletionObject(EXISTS, PURE, "dW", prod.fst, f)
        bare = FinMap(prod.object, prod.object, {t: t for t in prod.object})
        with pytest.raises(CheckError):
            comp_le(pure, obj, obj, CompletionWitness(bare, Uniform(SND)))

    def test_eta_preserves_and_reflects(self, pure):
        X = carrier(pure, [K, S])
        for values1 in ({K: K, S: K}, {K: K, S: S}):
            for values2 in ({K: K, S: K}, {K: K, S: S}):
                a1 = TrackedFamily(X, values1)
                a2 = TrackedFamily(X, values2)
                base = check_le(pure, "T", a1, a2, Uniform(ID))
                o1 = eta(pure, "T", FORALL, FULL, a1)
                o2 = eta(pure, "T", FORALL, FULL, a2)
                w = CompletionWitness(identity_map(X), Uniform(ID))
                lifted = comp_le(pure, o1, o2, w)
                assert base.holds == lifted.holds

    def test_transitive_composition(self, pure):
        X = carrier(pure, [K])
        obj = forall_T_object(pure, identity_map(X), {K: K})
        w = identity_completion_witness(pure, obj)
        assert comp_le(pure, obj, obj, w).holds
        from degreelab.spaces import compose_maps

        med = compose_maps(w.mediator, w.mediator)
        base = compose_witnesses(pure, "T", w.base, w.base)
        assert comp_le(pure, obj, obj, CompletionWitness(med, base)).holds


class TestCompReindex:
    def test_identity_reindex(self, pure):
        X = carrier(pure, [K])
        obj = forall_T_object(pure, identity_map(X), {K: K})
        out = comp_reindex(pure, identity_map(X), obj)
        assert out.payload.values == {(K, K): K}

    def test_full_pullback_counts(self, pure):
        # pullback of a 2-to-1 leg along a 1-point map has 2 elements
        X = carrier(pure, [K])
        Y = carrier(pure, [K, S])
        Z = carrier(pure, [S])
        f = FinMap(Y, X, {K: K, S: K})
        obj = forall_T_object(pure, f, {K: K, S: S})
        m = FinMap(Z, X, {S: K})
        out = comp_reindex(pure, m, obj)
        assert len(out.leg.source) == 2

    def test_pure_reindex_is_projection_again(self, pure):
        X = carrier(pure, [K, S])
        Y = carrier(pure, [K])
        Xp = carrier(pure, [K])
        prod = carrier_product(pure, X, Y)
        fam = MassFamily(prod.object, {t: frozenset([K]) for t in prod.object}, NONEMPTY)
        obj = CompletionObject(EXISTS, PURE, "dW", prod.fst, fam)
        m = FinMap(Xp, X, {K: K}, ID)
        out = comp_reindex(pure, m, obj)
        assert out.klass == PURE
        assert out.leg.target == Xp
        # payload is f . (m x id)
        assert out.payload.values[pair_term(K, K)] == frozenset([K])

    def test_pure_inclusion_leg_is_rejected(self, pure):
        # an inclusion is neither the identity nor a projection
        W = carrier(pure, [K])
        inc = FinMap(W, carrier(pure, [K, S]), {K: K}, ID)
        with pytest.raises(CheckError, match="only admit product projections"):
            CompletionObject(EXISTS, PURE, "dW", inc, MassFamily(W, {K: frozenset([K])}, NONEMPTY))

    @pytest.mark.parametrize("into", ["identity", "constant"])
    def test_pure_identity_leg_reindexes_to_m(self, pure, into):
        X = carrier(pure, [K, S])
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        obj = eta(pure, "dW", EXISTS, PURE, phi)
        m = identity_map(X) if into == "identity" else FinMap(carrier(pure, [K]), X, {K: S}, App(K, S))
        out = comp_reindex(pure, m, obj)
        assert out.leg == identity_map(m.source)
        assert out.payload == reindex(pure, "dW", m, phi)

    @pytest.mark.parametrize("into", ["identity", "constant"])
    def test_pure_assembly_identity_leg_reindexes_to_m(self, pure, into):
        A = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        fam = MassFamily(A, {(K, "x"): frozenset([K]), (S, "y"): frozenset([S])}, NONEMPTY)
        obj = eta(pure, "drW", EXISTS, PURE, fam)
        C = assembly(pure, ["c"], [(S, "c")])
        m = ext_identity(A) if into == "identity" else ExtMorphism(C, A, App(K, K), {(S, "c"): "x"})
        out = comp_reindex(pure, m, obj)
        assert out.leg == ext_identity(m.source)
        assert out.payload == reindex(pure, "drW", m, fam)

    @pytest.mark.parametrize("side", ["fst", "snd"])
    def test_pure_assembly_reindex_is_projection_again(self, pure, side):
        A = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        B = assembly(pure, ["z"], [(K, "z")])
        C = assembly(pure, ["c"], [(S, "c")])
        m = ExtMorphism(C, A, App(K, K), {(S, "c"): "x"})
        assert ext_check(pure, m).holds
        prod = ext_product(pure, A, B) if side == "fst" else ext_product(pure, B, A)
        leg = prod.fst if side == "fst" else prod.snd
        values = {key: frozenset([K if key[1] in (("x", "z"), ("z", "x")) else S])
                  for key in prod.object.naming}
        obj = CompletionObject(EXISTS, PURE, "drW", leg, MassFamily(prod.object, values, NONEMPTY))
        out = comp_reindex(pure, m, obj)
        if side == "fst":
            expected = ext_product(pure, C, B).fst
            key = (pair_term(S, K), ("c", "z"))
        else:
            expected = ext_product(pure, B, C).snd
            key = (pair_term(K, S), ("z", "c"))
        assert out.leg == expected
        # the one naming pair over C is sent to the one over x, where K is the solution
        assert out.payload.values == {key: frozenset([K])}


class TestLegComposition:
    def test_exists_along_projection(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K])
        prod = carrier_product(pure, X, Y)
        fam = MassFamily(prod.object, {t: frozenset([K]) for t in prod.object}, NONEMPTY)
        obj = CompletionObject(EXISTS, PURE, "dW", identity_map(prod.object), fam)
        out = comp_exists_along(pure, prod.fst, obj)
        assert out.leg.target == X

    def test_forall_along(self, pure):
        X = carrier(pure, [K])
        obj = forall_T_object(pure, identity_map(X), {K: K})
        out = comp_forall_along(pure, identity_map(X), obj)
        assert out.leg.target == X

    def test_adjointness_on_desk_instance(self, pure):
        # exists_g is left adjoint to reindexing along g
        X = carrier(pure, [K])
        Y = carrier(pure, [K])
        prod = carrier_product(pure, X, Y)
        fam = MassFamily(prod.object, {t: frozenset([K]) for t in prod.object}, NONEMPTY)
        obj = CompletionObject(EXISTS, PURE, "dW", identity_map(prod.object), fam)
        lifted = comp_exists_along(pure, prod.fst, obj)
        other = CompletionObject(EXISTS, PURE, "dW", prod.fst, fam)
        w = CompletionWitness(identity_map(prod.object), Uniform(SND))
        assert comp_le(pure, lifted, other, w).holds
        assert comp_le(pure, other, lifted, w).holds


class TestBeckChevalley:
    def test_identity_square(self, pure):
        X = carrier(pure, [K, S])
        square = pullback(identity_map(X), identity_map(X))
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        assert beck_chevalley_check(pure, "M", FORALL, square, phi).holds

    def test_two_to_one_square(self, pure):
        Y = carrier(pure, [K, S])
        X = carrier(pure, [K])
        f = FinMap(Y, X, {K: K, S: K})
        h = FinMap(X, X, {K: K})
        square = pullback(f, h)
        phi = MassFamily(Y, {K: frozenset([K]), S: frozenset([S])})
        assert beck_chevalley_check(pure, "M", FORALL, square, phi).holds

    def test_pure_exists_square(self, pure):
        X = carrier(pure, [K, S])
        Y = carrier(pure, [K])
        Xp = carrier(pure, [K])
        prod = carrier_product(pure, X, Y)
        fam = MassFamily(prod.object, {t: frozenset([K]) for t in prod.object}, NONEMPTY)
        m = FinMap(Xp, X, {K: S}, App(K, S))
        square = pure_pullback_of_projection(pure, prod.fst, m)
        assert beck_chevalley_check(pure, "dW", EXISTS, square, fam).holds

    def test_non_pullback_rejected(self, pure):
        X = carrier(pure, [K, S])
        square = pullback(identity_map(X), identity_map(X))
        broken = type(square)(square.f, square.h, carrier(pure, []),
                              FinMap(carrier(pure, []), X, {}),
                              FinMap(carrier(pure, []), X, {}))
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        with pytest.raises(CheckError):
            beck_chevalley_check(pure, "M", FORALL, broken, phi)
