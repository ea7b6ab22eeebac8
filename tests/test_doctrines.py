import dataclasses
import itertools
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from degreelab import doctrines, search, spaces
from degreelab.doctrines import (
    ALLOW_EMPTY,
    DOCTRINES,
    NONEMPTY,
    Bounded,
    CheckError,
    DialecticaPredicate,
    DialecticaWitness,
    ExtStrong,
    ExtendedPredicate,
    ForwardBackward,
    MassFamily,
    PerPoint,
    Predicate,
    TrackedFamily,
    Uniform,
    check_le,
    compose_witnesses,
    exists_along_medvedev,
    find_inner_witness,
    forall_along,
    lattice_element,
    lattice_law_witness,
    reindex,
    reindex_witness,
    transpose_pure_forall,
    untranspose_pure_forall,
)
from degreelab.instance import InstanceError, parse_instance
from degreelab.laws import _pred_palette
from degreelab.pca import FST, ID, PAIR, SND, Pca, PcaError, act, apply, enumerate_computable, normalize
from degreelab.search import SearchBudget, search_witness
from degreelab.spaces import (
    ExtMorphism,
    FinMap,
    FinSet,
    assembly,
    carrier,
    carrier_product,
    constant_map,
    ext_identity,
    ext_product,
    identity_map,
)
from degreelab.terms import App, K, Oracle, S, ap, pair_term, to_text

O1 = Oracle("o1")


def mass(base, **values):
    # keys given positionally against the base order
    return values


class TestTuringOrder:
    def test_identity(self, pure):
        X = carrier(pure, [K, S])
        alpha = TrackedFamily(X, {K: K, S: S})
        assert check_le(pure, "T", alpha, alpha, Uniform(ID)).holds

    def test_constant_tracking(self, pure):
        X = carrier(pure, [K, S])
        alpha = TrackedFamily(X, {K: S, S: S})
        beta = TrackedFamily(X, {K: K, S: S})
        assert check_le(pure, "T", alpha, beta, Uniform(App(K, S))).holds

    def test_refuted_carries_point(self, pure):
        X = carrier(pure, [K, S])
        alpha = TrackedFamily(X, {K: K, S: S})
        beta = TrackedFamily(X, {K: S, S: K})
        v = check_le(pure, "T", alpha, beta, Uniform(ID))
        assert v.refuted and v.counterexample[0] == "K"

    def test_noncomputable_witness_rejected(self, pure):
        X = carrier(pure, [K])
        alpha = TrackedFamily(X, {K: K})
        with pytest.raises(CheckError):
            check_le(pure, "T", alpha, alpha, Uniform(O1))

    def test_nonuniform_per_point(self, pure):
        X = carrier(pure, [K, S])
        alpha = TrackedFamily(X, {K: S, S: K})
        beta = TrackedFamily(X, {K: K, S: K})
        w = PerPoint({K: App(K, S), S: App(K, K)})
        assert check_le(pure, "Tw", alpha, beta, w).holds
        assert check_le(pure, "Tw", alpha, beta, Bounded(2)).holds


class TestMassOrders:
    def test_identity_witness(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        assert check_le(pure, "M", phi, phi, Uniform(ID)).holds

    def test_vacuous_top(self, pure, pca):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        top = MassFamily(X, {K: frozenset()})
        assert check_le(pure, "M", phi, top, Uniform(K)).holds

    def test_join_projection(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        psi = MassFamily(X, {K: frozenset([S])})
        join = lattice_element(pure, "join", "M", phi, psi)
        assert check_le(pure, "M", phi, join, Uniform(FST)).holds

    def test_base_mismatch(self, pure):
        phi = MassFamily(carrier(pure, [K]), {K: frozenset([K])})
        psi = MassFamily(carrier(pure, [S]), {S: frozenset([S])})
        with pytest.raises(CheckError):
            check_le(pure, "M", phi, psi, Uniform(ID))

    def test_muchnik_empty_left_refuted(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset()})
        psi = MassFamily(X, {K: frozenset([K])})
        assert check_le(pure, "Mw", phi, psi, Bounded(3)).refuted

    def test_muchnik_bound_exhaustion_is_unknown(self, pca, o1):
        X = carrier(pca, [K])
        phi = MassFamily(X, {K: frozenset([o1])})
        psi = MassFamily(X, {K: frozenset([K])})
        v = check_le(pca, "Mw", phi, psi, Bounded(3))
        assert v.unknown

    def test_muchnik_per_point_table(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([S])})
        psi = MassFamily(X, {K: frozenset([K, S])})
        w = PerPoint({(K, K): App(K, S), (K, S): ID})
        assert check_le(pure, "Mw", phi, psi, w).holds


class TestElementaryWeihrauch:
    def test_snd_shaped_identity(self, pure):
        X = carrier(pure, [K, S])
        f = MassFamily(X, {K: frozenset([K]), S: frozenset([S])}, NONEMPTY)
        # derived: evaluate <p, q> |-> q on both points
        assert check_le(pure, "dW", f, f, Uniform(SND)).holds

    def test_strong_variant_ignores_instance(self, pure):
        X = carrier(pure, [K, S])
        f = MassFamily(X, {K: frozenset([K, S]), S: frozenset([K, S])}, NONEMPTY)
        assert check_le(pure, "dsW", f, f, Uniform(ID)).holds

    def test_assembly_variants(self, pure):
        A = assembly(pure, ["x"], [(K, "x"), (S, "x")])
        f = MassFamily(A, {(K, "x"): frozenset([K]), (S, "x"): frozenset([K])}, NONEMPTY)
        assert check_le(pure, "drW", f, f, Uniform(SND)).holds
        g = MassFamily(A, {(K, "x"): frozenset(), (S, "x"): frozenset([K])}, ALLOW_EMPTY)
        assert check_le(pure, "dextW", g, g, Uniform(SND)).holds

    def test_empty_solution_sets_are_vacuous(self, pure):
        A = assembly(pure, ["x"], [(K, "x")])
        f = MassFamily(A, {(K, "x"): frozenset([K])}, ALLOW_EMPTY)
        top = MassFamily(A, {(K, "x"): frozenset()}, ALLOW_EMPTY)
        assert check_le(pure, "dextW", f, top, Uniform(K)).holds


class TestGeneralizedWeihrauch:
    def _setup(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K, S])
        F = Predicate(X, Y, {(K, K): frozenset([K]), (K, S): frozenset([S])})
        return X, Y, F

    def test_reflexive_via_projection_forward(self, pure):
        X, Y, F = self._setup(pure)
        prod = carrier_product(pure, X, Y)
        w = ForwardBackward(prod.snd, SND)
        assert check_le(pure, "W", F, F, w).holds

    def test_strong_reflexive(self, pure):
        X, Y, F = self._setup(pure)
        prod = carrier_product(pure, X, Y)
        assert check_le(pure, "SW", F, F, ForwardBackward(prod.snd, ID)).holds

    def test_forward_map_must_be_computable(self, pure):
        X, Y, F = self._setup(pure)
        prod = carrier_product(pure, X, Y)
        bare = FinMap(prod.object, Y, dict(prod.snd.mapping))
        with pytest.raises(CheckError):
            check_le(pure, "W", F, F, ForwardBackward(bare, SND))

    def test_classical_round(self, pure):
        X = carrier(pure, [K, S])
        f = MassFamily(X, {K: frozenset([K]), S: frozenset([S])}, NONEMPTY)
        w = ForwardBackward(identity_map(X), SND)
        assert check_le(pure, "classicalW", f, f, w).holds
        assert check_le(pure, "classicalSW", f, f, ForwardBackward(identity_map(X), ID)).holds

    def test_forward_map_out_of_fuel_is_unknown(self, pure):
        X = carrier(pure, [K])
        f = MassFamily(X, {K: frozenset([K])}, NONEMPTY)
        loop = ap(S, ID, ID)
        diverging = FinMap(X, X, {K: K}, App(K, App(loop, loop)))
        v = check_le(pure, "classicalW", f, f, ForwardBackward(diverging, SND), fuel=50)
        assert v.unknown


class TestRealizerBased:
    def test_reflexive(self, pure):
        X = assembly(pure, ["u"], [(K, "u")])
        Y = assembly(pure, ["a", "b"], [(K, "a"), (S, "b")])
        keys = [((p, x), (q, y)) for p, x in X.naming for q, y in Y.naming]
        F = Predicate(X, Y, {k: frozenset([K]) for k in keys})
        prod = ext_product(pure, X, Y)
        w = ForwardBackward(prod.snd, SND)
        assert check_le(pure, "rW", F, F, w).holds

    def test_extended_allows_empty(self, pure):
        X = assembly(pure, ["u"], [(K, "u")])
        Y = assembly(pure, ["a"], [(K, "a")])
        F = Predicate(X, Y, {((K, "u"), (K, "a")): frozenset()}, ALLOW_EMPTY)
        prod = ext_product(pure, X, Y)
        assert check_le(pure, "tW", F, F, ForwardBackward(prod.snd, SND)).holds


class TestExtendedStrong:
    def test_top_degree_above_everything(self, pure):
        dom = carrier(pure, [K])
        g = ExtendedPredicate(dom, {K: frozenset([frozenset()])})
        f = ExtendedPredicate(dom, {K: frozenset([frozenset([K]), frozenset([S])])})
        w = ExtStrong(App(K, K), {(K, frozenset([K])): frozenset(),
                                  (K, frozenset([S])): frozenset()}, K)
        assert check_le(pure, "extsW", f, g, w).holds

    def test_choice_must_be_offered(self, pure):
        dom = carrier(pure, [K])
        f = ExtendedPredicate(dom, {K: frozenset([frozenset([K])])})
        g = ExtendedPredicate(dom, {K: frozenset([frozenset([K])])})
        w = ExtStrong(ID, {(K, frozenset([K])): frozenset([S])}, ID)
        assert check_le(pure, "extsW", f, g, w).refuted

    def test_identity_reduction(self, pure):
        dom = carrier(pure, [K])
        f = ExtendedPredicate(dom, {K: frozenset([frozenset([K])])})
        w = ExtStrong(ID, {(K, frozenset([K])): frozenset([K])}, ID)
        assert check_le(pure, "extsW", f, f, w).holds


class TestDialectica:
    def test_identity(self, pure):
        X = carrier(pure, [K])
        F = DialecticaPredicate(X, {(K, frozenset([K])): frozenset([K])})
        w = DialecticaWitness({(K, frozenset([K])): frozenset([K])}, ID)
        assert check_le(pure, "D", F, F, w).holds

    def test_choice_outside_relation_refuted(self, pure):
        X = carrier(pure, [K])
        F = DialecticaPredicate(X, {(K, frozenset([K])): frozenset([K])})
        G = DialecticaPredicate(X, {(K, frozenset([S])): frozenset([S])})
        w = DialecticaWitness({(K, frozenset([K])): frozenset([K])}, ID)
        assert check_le(pure, "D", F, G, w).refuted


class TestReindex:
    def test_identity_reindex(self, pure):
        X = carrier(pure, [K, S])
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        assert reindex(pure, "M", identity_map(X), phi) == phi

    def test_constant_reindex(self, pure):
        X = carrier(pure, [K, S])
        Y = carrier(pure, [K])
        phi = MassFamily(Y, {K: frozenset([S])})
        out = reindex(pure, "M", FinMap(X, Y, {K: K, S: K}), phi)
        assert out.values == {K: frozenset([S]), S: frozenset([S])}

    def test_witness_survives_reindexing(self, pure):
        # a Holding dW witness also holds for the reindexed pair
        X = carrier(pure, [K, S])
        W = carrier(pure, [K])
        f = MassFamily(X, {K: frozenset([K]), S: frozenset([S])}, NONEMPTY)
        inc = FinMap(W, X, {K: K}, ID)
        v = check_le(pure, "dW", f, f, Uniform(SND))
        assert v.holds
        rf = reindex(pure, "dW", inc, f)
        w2 = reindex_witness(pure, "dW", inc, Uniform(SND))
        assert check_le(pure, "dW", rf, rf, w2).holds

    def test_functoriality(self, pure):
        X = carrier(pure, [K, S])
        Y = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        f = FinMap(Y, X, {K: S})
        g = FinMap(X, Y, {K: K, S: K})
        one = reindex(pure, "M", g, reindex(pure, "M", f, phi))
        from degreelab.spaces import compose_maps

        two = reindex(pure, "M", compose_maps(f, g), phi)
        assert one == two

    def test_w_witness_reindexing(self, pure):
        X = carrier(pure, [K, S])
        W = carrier(pure, [K])
        Y = carrier(pure, [K])
        keys = [(x, y) for x in X for y in Y]
        F = Predicate(X, Y, {k: frozenset([K]) for k in keys})
        prod = carrier_product(pure, X, Y)
        w = ForwardBackward(prod.snd, App(K, K))
        assert check_le(pure, "W", F, F, w).holds
        inc = FinMap(W, X, {K: K}, ID)
        F2 = reindex(pure, "W", inc, F)
        w2 = reindex_witness(pure, "W", inc, w)
        assert check_le(pure, "W", F2, F2, w2).holds

    @pytest.mark.parametrize("doc", ["rW", "tW"])
    def test_assembly_witness_reindexing(self, pure, doc):
        X = assembly(pure, ["u", "v"], [(K, "u"), (S, "v")])
        Y = assembly(pure, ["a", "b"], [(K, "a"), (S, "b")])
        W = assembly(pure, ["w"], [(S, "w")])
        solutions = {("u", "a"): K, ("u", "b"): S, ("v", "a"): S, ("v", "b"): K}
        F = Predicate(X, Y, {(kx, ky): frozenset([solutions[(kx[1], ky[1])]])
                             for kx in X.naming for ky in Y.naming})
        w = ForwardBackward(ext_product(pure, X, Y).snd, SND)
        assert check_le(pure, doc, F, F, w).holds
        inc = ExtMorphism(W, X, App(K, K), {(S, "w"): "u"})
        F2 = reindex(pure, doc, inc, F)
        w2 = reindex_witness(pure, doc, inc, w)
        assert w2.forward.source == ext_product(pure, W, Y).object
        assert check_le(pure, doc, F2, F2, w2).holds


class TestQuantifiers:
    def test_forall_identity(self, pure):
        X = carrier(pure, [K, S])
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        assert forall_along(pure, "M", identity_map(X), phi) == phi

    def test_forall_constant_unions(self, pure):
        Y = carrier(pure, [K, S])
        X = carrier(pure, [K])
        phi = MassFamily(Y, {K: frozenset([K]), S: frozenset([S])})
        out = forall_along(pure, "M", FinMap(Y, X, {K: K, S: K}), phi)
        assert out.values[K] == frozenset([K, S])

    def test_exists_constant_intersects(self, pure):
        Y = carrier(pure, [K, S])
        X = carrier(pure, [K])
        phi = MassFamily(Y, {K: frozenset([K, S]), S: frozenset([S])})
        out = exists_along_medvedev(pure, FinMap(Y, X, {K: K, S: K}), phi)
        assert out.values[K] == frozenset([S])

    def test_exists_needs_surjective(self, pure):
        X = carrier(pure, [K, S])
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        f = FinMap(X, X, {K: K, S: K})
        with pytest.raises(CheckError):
            exists_along_medvedev(pure, f, phi)

    def test_forall_empty_fiber_is_empty(self, pure):
        Y = carrier(pure, [K])
        X = carrier(pure, [K, S])
        phi = MassFamily(Y, {K: frozenset([K])})
        out = forall_along(pure, "M", FinMap(Y, X, {K: K}), phi)
        assert out.values[S] == frozenset()

    def test_pure_forall_formula(self, pure):
        # the union formula over a one-by-one product
        X = carrier(pure, [K])
        Z = carrier(pure, [S])
        prod = carrier_product(pure, X, Z)
        f = MassFamily(prod.object, {prod.object.points[0]: frozenset([S])}, NONEMPTY)
        out = forall_along(pure, "dW", prod.snd, f)
        assert out.values[S] == frozenset([pair_term(K, S)])

    def test_pure_forall_out_of_empty_product(self, pure):
        # every fiber of a projection out of X x {} is empty, and so is its
        # union, whatever the policy of the family quantified
        X = carrier(pure, [K, S])
        prod = carrier_product(pure, X, carrier(pure, []))
        A = assembly(pure, ["x"], [(K, "x")])
        aprod = ext_product(pure, assembly(pure, [], []), A)
        for policy in (ALLOW_EMPTY, NONEMPTY):
            out = forall_along(pure, "dW", prod.fst, MassFamily(prod.object, {}, policy))
            assert (out.values, out.policy) == ({K: frozenset(), S: frozenset()}, ALLOW_EMPTY)
            out = forall_along(pure, "drW", aprod.snd, MassFamily(aprod.object, {}, policy))
            assert (out.values, out.policy) == ({(K, "x"): frozenset()}, ALLOW_EMPTY)

    def test_pure_forall_needs_a_projection_of_its_kind(self, pure):
        X = carrier(pure, [K])
        prod = carrier_product(pure, X, X)
        A = assembly(pure, ["x"], [(K, "x")])
        aprod = ext_product(pure, A, A)
        over_a = MassFamily(aprod.object, {key: ONE_K for key in aprod.object.naming})
        with pytest.raises(CheckError, match="pure quantifier over carriers needs a carrier projection"):
            forall_along(pure, "dW", aprod.fst, over_a)
        with pytest.raises(CheckError, match="pure quantifier over assemblies needs an ext projection"):
            forall_along(pure, "drW", prod.fst, MassFamily(prod.object, {t: ONE_K for t in prod.object}))

    def test_base_gate_names_the_end_of_the_map(self, pure):
        # reindexing reads the map's target; the quantifiers read its source
        Y = carrier(pure, [K, S])
        X = carrier(pure, [K])
        f = constant_map(Y, X, K)
        over_y = MassFamily(Y, {K: ONE_K, S: ONE_S})
        over_x = MassFamily(X, {K: ONE_K})
        prod = carrier_product(pure, X, X)
        target = "base mismatch: morphism target differs from element base"
        source = "base mismatch: morphism source differs from element base"
        for call, message in ((lambda: reindex(pure, "M", f, over_y), target),
                              (lambda: reindex(pure, "dW", f, over_y), target),
                              (lambda: forall_along(pure, "M", f, over_x), source),
                              (lambda: forall_along(pure, "Mw", f, over_x), source),
                              (lambda: forall_along(pure, "dW", prod.fst, over_x), source),
                              (lambda: exists_along_medvedev(pure, f, over_x), source)):
            with pytest.raises(CheckError) as raised:
                call()
            assert str(raised.value) == message

    def test_medvedev_adjunction_same_witness(self, pure):
        Y = carrier(pure, [K, S])
        X = carrier(pure, [K])
        f = FinMap(Y, X, {K: K, S: K})
        phi = MassFamily(Y, {K: frozenset([K]), S: frozenset([S])})
        psi = MassFamily(X, {K: frozenset([K, S])})
        fa = forall_along(pure, "M", f, phi)
        up = check_le(pure, "M", psi, fa, Uniform(ID))
        down = check_le(pure, "M", reindex(pure, "M", f, psi), phi, Uniform(ID))
        assert up.holds and down.holds

    def test_pure_forall_transposition(self, pure):
        X = carrier(pure, [K, S])
        Z = carrier(pure, [K])
        prod = carrier_product(pure, X, Z)
        fam = MassFamily(prod.object, {t: frozenset([K]) for t in prod.object}, NONEMPTY)
        fa = forall_along(pure, "dW", prod.snd, fam)
        up = Uniform(SND)
        assert check_le(pure, "dW", fa, fa, up).holds
        b = transpose_pure_forall(pure, up)
        assert check_le(pure, "dW", reindex(pure, "dW", prod.snd, fa), fam, b).holds
        d = untranspose_pure_forall(pure, b)
        assert check_le(pure, "dW", fa, fa, d).holds


class TestLattice:
    def test_meet_with_top_tags_left(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K, S])})
        top = lattice_element(pure, "top", "M", base=X)
        met = lattice_element(pure, "meet", "M", phi, top)
        assert met.values[K] == frozenset([pair_term(K, K), pair_term(K, S)])

    def test_join_with_top_is_empty(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K, S])})
        top = lattice_element(pure, "top", "M", base=X)
        assert lattice_element(pure, "join", "M", phi, top).values[K] == frozenset()

    def test_subtract_relative_to_universe(self, pure, pca, o1):
        X = carrier(pca, [K])
        U = carrier(pca, [K, S, o1])
        phi = MassFamily(X, {K: frozenset([K])})
        psi = MassFamily(X, {K: frozenset([K])})
        sub = lattice_element(pca, "subtract", "M", phi, psi, universe=U)
        # no universe element maps K into {K}: K.K=(K K), S.K=(S K), #o1.K undefined
        assert sub.values[K] == frozenset()
        assert any("universe" in n for n in sub.notes)

    def test_implies_bounded(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        psi = MassFamily(X, {K: frozenset([K])})
        imp = lattice_element(pure, "implies", "Mw", phi, psi, bound=3)
        # SKK maps K into phi(K), so K is excluded
        assert imp.values[K] == frozenset()

    def test_implies_denied_for_uniform_order(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        with pytest.raises(CheckError, match="co-Heyting"):
            lattice_element(pure, "implies", "M", phi, phi, bound=3)

    def test_law_witnesses(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        psi = MassFamily(X, {K: frozenset([S])})
        met = lattice_element(pure, "meet", "M", phi, psi)
        w = lattice_law_witness(pure, "meet_left")
        assert check_le(pure, "M", met, phi, w).holds
        join = lattice_element(pure, "join", "M", phi, psi)
        wj = lattice_law_witness(pure, "join_intro", w_left=Uniform(App(K, K)), w_right=Uniform(App(K, S)))
        rho = MassFamily(X, {K: frozenset([K, S])})
        # via constants: phi <= rho and psi <= rho hold by K S constants
        assert check_le(pure, "M", phi, rho, Uniform(App(K, K))).holds
        assert check_le(pure, "M", psi, rho, Uniform(App(K, S))).holds
        assert check_le(pure, "M", join, rho, wj).holds

    def test_subtraction_transports(self, pure):
        X = carrier(pure, [K])
        U = carrier(pure, [K, S])
        phi = MassFamily(X, {K: frozenset([K])})
        psi = MassFamily(X, {K: frozenset()})
        rho = MassFamily(X, {K: frozenset([K])})
        sub = lattice_element(pure, "subtract", "M", phi, psi, universe=U)
        # psi empty: subtraction keeps every universe element
        assert sub.values[K] == frozenset([K, S])
        found = search_witness(pure, "M", sub, rho, SearchBudget(3))
        assert found.found
        we = lattice_law_witness(pure, "subtract_elim", w=found.witness)
        join = lattice_element(pure, "join", "M", psi, rho)
        assert check_le(pure, "M", phi, join, we).status != "refuted"


class TestCompose:
    def test_uniform_chain(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        w = compose_witnesses(pure, "M", Uniform(ID), Uniform(ID))
        assert check_le(pure, "M", phi, phi, w).holds

    def test_dw_chain(self, pure):
        X = carrier(pure, [K])
        f = MassFamily(X, {K: frozenset([K])}, NONEMPTY)
        w = compose_witnesses(pure, "dW", Uniform(SND), Uniform(SND))
        assert check_le(pure, "dW", f, f, w).holds

    def test_three_link_mass_chain(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        chi = MassFamily(X, {K: frozenset([pair_term(K, K)])})
        # phi <= chi via fst; chi <= phi via pairing with K
        up = Uniform(FST)
        assert check_le(pure, "M", phi, chi, up).holds
        from degreelab.pca import abstract_all
        from degreelab.terms import Var

        down = Uniform(abstract_all(("z",), ap(PAIR, Var("z"), K)))
        assert check_le(pure, "M", chi, phi, down).holds
        loop = compose_witnesses(pure, "M", up, down)
        assert check_le(pure, "M", phi, phi, loop).holds

    def test_classical_chain(self, pure):
        X = carrier(pure, [K, S])
        f = MassFamily(X, {K: frozenset([K]), S: frozenset([S])}, NONEMPTY)
        w = ForwardBackward(identity_map(X), SND)
        out = compose_witnesses(pure, "classicalW", w, w)
        assert check_le(pure, "classicalW", f, f, out).holds

    def test_w_chain(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K, S])
        F = Predicate(X, Y, {(K, K): frozenset([K]), (K, S): frozenset([K])})
        prod = carrier_product(pure, X, Y)
        w = ForwardBackward(prod.snd, App(K, K))
        assert check_le(pure, "W", F, F, w).holds
        out = compose_witnesses(pure, "W", w, w)
        assert check_le(pure, "W", F, F, out).holds

    def test_dialectica_chain(self, pure):
        X = carrier(pure, [K])
        F = DialecticaPredicate(X, {(K, frozenset([K])): frozenset([K])})
        w = DialecticaWitness({(K, frozenset([K])): frozenset([K])}, ID)
        out = compose_witnesses(pure, "D", w, w)
        assert check_le(pure, "D", F, F, out).holds

    def test_per_point_chain(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        w = PerPoint({(K, K): ID})
        out = compose_witnesses(pure, "Mw", w, w)
        assert check_le(pure, "Mw", phi, phi, out).holds


class TestDeterminism:
    def test_counterexample_is_canonical_first(self, pure):
        X = carrier(pure, [K, S])
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        bad = MassFamily(X, {K: frozenset([S]), S: frozenset([K])})
        v1 = check_le(pure, "M", bad, phi, Uniform(ID))
        v2 = check_le(pure, "M", bad, phi, Uniform(ID))
        assert v1 == v2
        assert v1.counterexample == ("K", "K")


# ---------------------------------------------------------------------------
# One row per doctrine id: a holding claim, a refuted claim with its exact
# first counterexample, and a claim whose realizer never stops, checked with
# little fuel, with its exact unknown locations.

OMEGA = ap(S, ID, ID)
DIVERGES = App(K, App(OMEGA, OMEGA))  # on any argument: K (w w) a -> w w -> ...
STARVED_FUEL = 50
ONE_K, ONE_S = frozenset([K]), frozenset([S])


def _tracked_row(pca):
    X = carrier(pca, [K, S])
    alpha = TrackedFamily(X, {K: K, S: S})
    return X, alpha


def _mass_row(pca, policy=ALLOW_EMPTY):
    X = carrier(pca, [K, S])
    return MassFamily(X, {K: ONE_K, S: ONE_S}, policy)


def _assembly_row(pca, policy):
    A = assembly(pca, ["x"], [(K, "x"), (S, "x")])
    second = ONE_S if policy == NONEMPTY else frozenset()
    return MassFamily(A, {(K, "x"): ONE_K, (S, "x"): second}, policy)


def _predicate_row(pca):
    X, Y = carrier(pca, [K]), carrier(pca, [K, S])
    F = Predicate(X, Y, {(K, K): ONE_K, (K, S): ONE_S})
    return F, carrier_product(pca, X, Y)


def _assembly_predicate_row(pca, policy):
    X = assembly(pca, ["u"], [(K, "u")])
    Y = assembly(pca, ["a", "b"], [(K, "a"), (S, "b")])
    second = ONE_S if policy == NONEMPTY else frozenset()
    F = Predicate(X, Y, {((K, "u"), (K, "a")): ONE_K, ((K, "u"), (S, "b")): second}, policy)
    return F, ext_product(pca, X, Y)


def _doctrine_row(pca, doc):
    """(lhs, rhs, holding, refuted, counterexample, starved, unknowns)."""
    if doc in ("T", "Tw"):
        _, alpha = _tracked_row(pca)
        if doc == "T":
            return (alpha, alpha, Uniform(ID), Uniform(App(K, K)), ("S", "S"),
                    Uniform(DIVERGES), (("K", "K", "timeout"), ("S", "S", "timeout")))
        return (alpha, alpha, Bounded(2), PerPoint({K: ID, S: App(K, K)}), ("S", "S"),
                PerPoint({K: DIVERGES, S: ID}), (("K", "K", "timeout"),))
    if doc in ("M", "Mw"):
        phi = _mass_row(pca)
        holding = Uniform(ID) if doc == "M" else PerPoint({(K, K): ID, (S, S): App(K, S)})
        return (phi, phi, holding, Uniform(App(K, K)), ("S", "S"),
                Uniform(DIVERGES), (("K", "K", "timeout"), ("S", "S", "timeout")))
    if doc in ("dW", "dsW"):
        f = _mass_row(pca, NONEMPTY)
        return (f, f, Uniform(SND if doc == "dW" else ID), Uniform(App(K, K)), ("S", "S"),
                Uniform(DIVERGES), (("K", "K", "timeout"), ("S", "S", "timeout")))
    if doc in ("drW", "dextW"):
        f = _assembly_row(pca, NONEMPTY if doc == "drW" else ALLOW_EMPTY)
        if doc == "drW":
            return (f, f, Uniform(SND), Uniform(App(K, K)), ("S", "x", "S"),
                    Uniform(DIVERGES), (("K", "x", "K", "timeout"), ("S", "x", "S", "timeout")))
        return (f, f, Uniform(SND), Uniform(App(K, S)), ("K", "x", "K"),
                Uniform(DIVERGES), (("K", "x", "K", "timeout"),))
    if doc in ("W", "SW"):
        F, prod = _predicate_row(pca)
        h = SND if doc == "W" else ID
        return (F, F, ForwardBackward(prod.snd, h), ForwardBackward(prod.snd, App(K, K)),
                ("K", "S", "S"), ForwardBackward(prod.snd, DIVERGES),
                (("K", "K", "K", "timeout"), ("K", "S", "S", "timeout")))
    if doc in ("rW", "tW"):
        F, prod = _assembly_predicate_row(pca, NONEMPTY if doc == "rW" else ALLOW_EMPTY)
        ks, kk = pair_term(K, S), pair_term(K, K)
        if doc == "rW":
            return (F, F, ForwardBackward(prod.snd, SND), ForwardBackward(prod.snd, App(K, K)),
                    (to_text(ks), "(u, b)", "S"), ForwardBackward(prod.snd, DIVERGES),
                    ((to_text(kk), "(u, a)", "K", "timeout"), (to_text(ks), "(u, b)", "S", "timeout")))
        return (F, F, ForwardBackward(prod.snd, SND), ForwardBackward(prod.snd, App(K, S)),
                (to_text(kk), "(u, a)", "K"), ForwardBackward(prod.snd, DIVERGES),
                ((to_text(kk), "(u, a)", "K", "timeout"),))
    if doc in ("classicalW", "classicalSW"):
        f = _mass_row(pca, NONEMPTY)
        k = identity_map(f.base)
        h = SND if doc == "classicalW" else ID
        return (f, f, ForwardBackward(k, h), ForwardBackward(k, App(K, K)), ("S", "S"),
                ForwardBackward(k, DIVERGES), (("K", "K", "timeout"), ("S", "S", "timeout")))
    if doc == "extsW":
        dom = carrier(pca, [K])
        f = ExtendedPredicate(dom, {K: frozenset([ONE_K])})
        choice = {(K, ONE_K): ONE_K}
        return (f, f, ExtStrong(ID, choice, ID), ExtStrong(ID, choice, App(K, S)), ("K", "[K]", "K"),
                ExtStrong(ID, choice, DIVERGES), (("K", "[K]", "K", "timeout"),))
    assert doc == "D"
    F = DialecticaPredicate(carrier(pca, [K]), {(K, ONE_K): ONE_K})
    choice = {(K, ONE_K): ONE_K}
    return (F, F, DialecticaWitness(choice, ID), DialecticaWitness(choice, App(K, S)), ("K", "[K]", "K"),
            DialecticaWitness(choice, DIVERGES), (("K", "[K]", "K", "timeout"),))


def _unexpected_rendering(*args):
    raise AssertionError("a check renders no location; its verdict does, when read")


@pytest.mark.parametrize("doc", DOCTRINES)
def test_doctrine_table(pure, doc, monkeypatch):
    lhs, rhs, holding, refuted, counterexample, starved, unknowns = _doctrine_row(pure, doc)
    with monkeypatch.context() as patched:
        patched.setattr(doctrines, "point_text", _unexpected_rendering)
        patched.setattr(doctrines, "to_text", _unexpected_rendering)
        patched.setattr(spaces, "point_text", _unexpected_rendering)
        assert check_le(pure, doc, lhs, rhs, holding).holds
        refutation = check_le(pure, doc, lhs, rhs, refuted)
        starvation = check_le(pure, doc, lhs, rhs, starved, fuel=STARVED_FUEL)
    assert refutation.refuted and refutation.counterexample == counterexample
    assert starvation.unknown and starvation.unknowns == unknowns


def _cross_kind_claims(pca):
    """Per case: a claim given families, or a forward map, over the other
    kind of base object, as (doc, lhs, rhs, witness, gate message)."""
    mass, asm = _mass_row(pca, NONEMPTY), _assembly_row(pca, NONEMPTY)
    F, prod = _predicate_row(pca)
    G, aprod = _assembly_predicate_row(pca, NONEMPTY)
    return {
        "M-over-assembly": ("M", asm, asm, Uniform(ID), "mass doctrine needs mass families"),
        "Mw-over-assembly": ("Mw", asm, asm, PerPoint({}), "mass doctrine needs mass families"),
        "T-over-assembly": ("T", asm, asm, Uniform(ID), "tracked doctrine needs tracked families"),
        "dW-over-assembly": ("dW", asm, asm, Uniform(SND),
                             "elementary reducibility needs mass families over a carrier"),
        "dsW-over-assembly": ("dsW", asm, asm, Uniform(ID),
                              "elementary reducibility needs mass families over a carrier"),
        "drW-over-carrier": ("drW", mass, mass, Uniform(SND),
                             "elementary assembly reducibility needs assembly families"),
        "dextW-over-carrier": ("dextW", mass, mass, Uniform(SND),
                               "elementary assembly reducibility needs assembly families"),
        "classicalW-over-assembly": ("classicalW", asm, asm, ForwardBackward(identity_map(mass.base), SND),
                                     "classical reducibility needs mass families"),
        "classicalW-assembly-forward": ("classicalW", mass, mass, ForwardBackward(ext_identity(asm.base), SND),
                                        "forward map endpoints do not match the claim"),
        "W-over-assembly": ("W", G, G, ForwardBackward(prod.snd, SND),
                            "generalized reducibility lives over a carrier base"),
        "W-assembly-forward": ("W", F, F, ForwardBackward(aprod.snd, SND),
                               "forward map must start at the product of base and index"),
        "rW-over-carrier": ("rW", F, F, ForwardBackward(aprod.snd, SND),
                            "assembly reducibility lives over an assembly base"),
        "rW-carrier-forward": ("rW", G, G, ForwardBackward(prod.snd, SND),
                               "forward morphism endpoints do not match the claim"),
    }


@pytest.mark.parametrize("case", list(_cross_kind_claims(Pca())))
def test_cross_kind_claims_fail_their_gate(pure, case):
    doc, lhs, rhs, w, message = _cross_kind_claims(pure)[case]
    with pytest.raises(CheckError) as raised:
        check_le(pure, doc, lhs, rhs, w)
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# The order registry: one record per doctrine id.

FAMILIES = (TrackedFamily, MassFamily, Predicate, ExtendedPredicate, DialecticaPredicate)


class TestRegistry:
    @pytest.mark.parametrize("doc", DOCTRINES)
    def test_every_id_has_a_complete_record(self, doc):
        order = doctrines.ORDERS[doc]
        assert order.shapes and all(isinstance(c, type) for c in order.shapes)
        assert callable(order.compile) and callable(order.compose)
        # only the uniform-only orders leave every witness to `_check`
        assert (order.obligations is None) == (order.shapes == (Uniform,))
        assert order.family in FAMILIES
        assert order.base in (doctrines.SET, doctrines.COMPUTABLE, doctrines.ASSEMBLY, None)
        assert (order.reindex_witness is None) == (order.base is None)
        assert order.policy in (NONEMPTY, ALLOW_EMPTY)
        assert order.forall is None or callable(order.forall)
        assert (order.identity is None) == (Uniform not in order.shapes)

    def test_doctrines_is_the_key_tuple(self):
        assert DOCTRINES == tuple(doctrines.ORDERS)
        assert len(set(DOCTRINES)) == len(DOCTRINES) == 16

    @pytest.mark.parametrize("doc", [d for d in DOCTRINES if doctrines.ORDERS[d].identity is not None])
    def test_identity_witness_holds(self, pure, doc):
        lhs, *_ = _doctrine_row(pure, doc)
        assert check_le(pure, doc, lhs, lhs, doctrines.ORDERS[doc].identity).holds

    @pytest.mark.parametrize("doc", [*DOCTRINES, "comp"])
    def test_instance_grammar_accepts_every_key(self, doc):
        text = ("carrier X = [K]\nfamily phi over X { K -> [K] }\n"
                f"witness w = uniform K\nclaim c : phi <=_{doc} phi by w\n")
        assert parse_instance(text).claims[0].doc == doc

    @pytest.mark.parametrize("doc", ["Q", "dw", "classical", "t"])
    def test_instance_grammar_refuses_other_words(self, doc):
        text = ("carrier X = [K]\nfamily phi over X { K -> [K] }\n"
                f"witness w = uniform K\nclaim c : phi <=_{doc} phi by w\n")
        with pytest.raises(InstanceError, match=f"unknown doctrine id '{doc}'"):
            parse_instance(text)

    def test_unknown_id_is_refused_at_every_entry_point(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        entries = [
            lambda: check_le(pure, "Q", phi, phi, Uniform(ID)),
            lambda: check_le(pure, "Q", None, None, None),
            lambda: doctrines.compile_claim(pure, "Q", phi, phi),
            lambda: search_witness(pure, "Q", phi, phi, SearchBudget(1)),
            lambda: reindex(pure, "Q", identity_map(X), phi),
            lambda: reindex_witness(pure, "Q", identity_map(X), Uniform(ID)),
            lambda: compose_witnesses(pure, "Q", Uniform(ID), Uniform(ID)),
        ]
        for entry in entries:
            with pytest.raises(CheckError, match=r"^unknown doctrine id 'Q'$"):
                entry()

    def test_extended_strong_has_no_reindexing(self, pure):
        f = ExtendedPredicate(carrier(pure, [K]), {K: frozenset([frozenset([K])])})
        m = identity_map(carrier(pure, [K]))
        with pytest.raises(CheckError, match=r"^doctrine extsW has no reindexing$"):
            reindex(pure, "extsW", m, f)
        with pytest.raises(CheckError, match=r"^doctrine extsW has no reindexing$"):
            reindex_witness(pure, "extsW", m, ExtStrong(ID, {}, ID))


# ---------------------------------------------------------------------------
# Uniform witnesses: what their check must keep deciding as it did.


class TestUniformWitness:
    def test_tracked_over_an_empty_carrier_holds_for_any_term(self, pca):
        # T checks its term at the first position, and there is none
        empty = TrackedFamily(carrier(pca, []), {})
        assert check_le(pca, "T", empty, empty, Uniform(O1)).holds

    def test_mass_checks_its_term_up_front(self, pca):
        empty = MassFamily(carrier(pca, []), {})
        with pytest.raises(CheckError, match=r"^witness term #o1 is not computable$"):
            check_le(pca, "M", empty, empty, Uniform(O1))

    def test_empty_left_solution_set(self, pca):
        X = carrier(pca, [K])
        phi = MassFamily(X, {K: frozenset()})
        psi = MassFamily(X, {K: ONE_K})
        # Mw refutes an empty set before evaluating, or checking, the term
        for term in (ID, DIVERGES, O1):
            v = check_le(pca, "Mw", phi, psi, Uniform(term), fuel=STARVED_FUEL)
            assert _outcome(v) == ("refuted", ("K", "K", "empty solution set on the left"), ())
        assert _outcome(check_le(pca, "M", phi, psi, Uniform(ID))) == ("refuted", ("K", "K"), ())
        assert check_le(pca, "M", phi, psi, Uniform(DIVERGES), fuel=STARVED_FUEL).unknown

    def test_a_miss_after_a_timeout_refutes(self, pure):
        # SII runs out of fuel on SII and sends K to K K, which S's set lacks
        X = carrier(pure, [K, S])
        self_apply = ap(S, ID, ID)
        phi = MassFamily(X, {K: ONE_K, S: ONE_S})
        psi = MassFamily(X, {K: frozenset([self_apply]), S: ONE_K})
        for doc in ("M", "Mw"):
            v = check_le(pure, doc, phi, psi, Uniform(self_apply), fuel=STARVED_FUEL)
            assert _outcome(v) == ("refuted", ("S", "K"), ())

    def test_a_check_that_raises_mid_way_keeps_its_claim(self, pure, monkeypatch):
        X = carrier(pure, [K, S])
        phi = MassFamily(X, {K: ONE_K, S: ONE_S})
        compiled = _count_compiles(monkeypatch, "M")
        assert check_le(pure, "M", phi, phi, Uniform(ID)).holds

        class Interrupted(Exception):
            pass

        calls = []
        def act_once(*args, real=doctrines.act):
            calls.append(args)
            if len(calls) == 2:
                raise Interrupted
            return real(*args)
        with monkeypatch.context() as patched:
            patched.setattr(doctrines, "act", act_once)
            with pytest.raises(Interrupted):
                check_le(pure, "M", phi, phi, Uniform(ID))
        assert check_le(pure, "M", phi, phi, Uniform(ID)).holds
        assert compiled == ["M"]


    # (S K K) K takes 2 steps; K I K and K (K I K) K contract to I in 1 and
    # 2 steps, so at fuel 3 the first holds and the second runs out
    SHARING_I = (ap(K, ID, K), ap(K, ap(K, ID, K), K))
    # S I K sends (K K) to K in 4 steps and K to (K (K K)) in 3; at fuel 5,
    # K (S I K) K misses at the first position, K (K (S I K) K) K runs out
    # there and misses at the second
    SHARING_SIK = (ap(K, ap(S, ID, K), K), ap(K, ap(K, ap(S, ID, K), K), K))

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["fewer-steps-first", "more-steps-first"])
    @pytest.mark.parametrize("case", ["holds-then-unknown", "refuted-after-a-timeout"])
    def test_terms_sharing_a_head_normal_form_keep_their_own_fuel(self, case, order):
        shared = Pca()
        if case == "holds-then-unknown":
            phi = psi = MassFamily(carrier(shared, [K]), {K: ONE_K})
            terms, fuel, statuses = self.SHARING_I, 3, ["holds", "unknown"]
        else:
            X = carrier(shared, [K, S])
            phi, psi = MassFamily(X, {K: ONE_S, S: ONE_S}), MassFamily(X, {K: [App(K, K)], S: ONE_K})
            terms, fuel, statuses = self.SHARING_SIK, 5, ["refuted"] * 2
        alone = [_fresh_outcome("M", phi, psi, Uniform(t), fuel) for t in terms]
        assert [v[0] for v in alone] == statuses and alone[0] != alone[1]
        for i in order:
            assert _outcome(check_le(shared, "M", phi, psi, Uniform(terms[i]), fuel)) == alone[i]


def _count_compiles(monkeypatch, *docs) -> list:
    """The doctrine ids the orders' compilers are called with, from now on."""
    compiled = []
    for doc in docs:
        order = doctrines.ORDERS[doc]
        counted = (lambda pca, order, lhs, rhs, doc=doc, compile=order.compile:
                   compiled.append(doc) or compile(pca, order, lhs, rhs))
        monkeypatch.setitem(doctrines.ORDERS, doc, dataclasses.replace(order, compile=counted))
    return compiled


# ---------------------------------------------------------------------------
# The compiled-claim cache: check_le keeps the last claim it compiled on the
# structure; a check must give the verdict a fresh structure gives.


def _outcome(v):
    return v.status, v.counterexample, v.unknowns


def _fresh_outcome(doc, lhs, rhs, w, fuel=None):
    return _outcome(check_le(Pca(), doc, lhs, rhs, w, fuel))


FORWARD_BACKWARD = ["W", "SW", "rW", "tW"]


def _row_checks(pca, doc):
    """The holding, refuted and starved checks of a table row."""
    lhs, rhs, holding, refuted, _, starved, _ = _doctrine_row(pca, doc)
    return [(doc, lhs, rhs, holding, None), (doc, lhs, rhs, refuted, None),
            (doc, lhs, rhs, starved, STARVED_FUEL)]


class TestClaimCache:
    def test_interleaved_claims_match_a_fresh_structure(self):
        shared = Pca()
        checks = [c for doc in DOCTRINES for c in _row_checks(shared, doc)]
        for doc, lhs, rhs, w, fuel in checks + checks[::-1] + checks[::2]:
            assert _outcome(check_le(shared, doc, lhs, rhs, w, fuel)) == _fresh_outcome(doc, lhs, rhs, w, fuel)

    @pytest.mark.parametrize("doc", ["M", "Mw", "dW", "dsW"])
    def test_claims_a_b_a_on_one_structure(self, doc):
        shared = Pca()
        X = carrier(shared, [K, S])
        policy = NONEMPTY if doc in ("dW", "dsW") else ALLOW_EMPTY
        a = MassFamily(X, {K: ONE_K, S: ONE_S}, policy)
        b = MassFamily(X, {K: ONE_S, S: ONE_K}, policy)
        w = Uniform(SND if doc == "dW" else ID)
        first = _outcome(check_le(shared, doc, a, a, w))
        middle = _outcome(check_le(shared, doc, a, b, w))
        last = _outcome(check_le(shared, doc, a, a, w))
        assert first == last == _fresh_outcome(doc, a, a, w)
        assert middle == _fresh_outcome(doc, a, b, w)
        assert first[0] == "holds" and middle[0] == "refuted"

    @pytest.mark.parametrize("doc", DOCTRINES)
    def test_equal_but_distinct_families(self, doc):
        shared = Pca()
        lhs, rhs, holding, refuted, counterexample, starved, unknowns = _doctrine_row(shared, doc)
        lhs2, rhs2, *_ = _doctrine_row(shared, doc)
        assert lhs2 == lhs and lhs2 is not lhs
        for left, right in ((lhs, rhs), (lhs2, rhs), (lhs, rhs2), (lhs2, rhs2)):
            assert check_le(shared, doc, left, right, holding).holds
            assert _outcome(check_le(shared, doc, left, right, refuted)) == ("refuted", counterexample, ())
            v = check_le(shared, doc, left, right, starved, fuel=STARVED_FUEL)
            assert _outcome(v) == ("unknown", None, unknowns)

    def test_alternating_claims_of_two_orders_compile_once_each(self, monkeypatch):
        shared = Pca()
        compiled = _count_compiles(monkeypatch, "extsW", "D")
        rows = [(doc, *_doctrine_row(shared, doc)[:4]) for doc in ("extsW", "D")]
        for _ in range(3):
            for doc, lhs, rhs, holding, refuted in rows:
                assert check_le(shared, doc, lhs, rhs, holding).holds
                assert check_le(shared, doc, lhs, rhs, refuted).refuted
        assert compiled == ["extsW", "D"]

    def test_failing_gate_raises_on_every_call(self):
        shared = Pca()
        X = carrier(shared, [K, S])
        phi = MassFamily(X, {K: ONE_K, S: ONE_S})
        alpha = TrackedFamily(X, {K: K, S: S})
        other = MassFamily(carrier(shared, [K]), {K: ONE_K})
        for _ in range(3):
            with pytest.raises(CheckError, match="mass doctrine needs mass families"):
                check_le(shared, "M", alpha, alpha, Uniform(ID))
            with pytest.raises(CheckError, match="base mismatch"):
                check_le(shared, "M", phi, other, Uniform(ID))
            assert check_le(shared, "M", phi, phi, Uniform(ID)).holds

    @pytest.mark.parametrize("doc", ["M", "dsW"])
    def test_positions_left_unread_are_built_later(self, doc):
        # the first check stops at the first position; the next must still
        # reach the last one
        shared = Pca()
        X = carrier(shared, [K, S, ID])
        phi = MassFamily(X, {K: ONE_K, S: ONE_S, ID: ONE_K}, NONEMPTY)
        psi = MassFamily(X, {K: ONE_K, S: ONE_S, ID: ONE_S}, NONEMPTY)
        for w, where in ((Uniform(App(K, S)), ("K", "K")), (Uniform(ID), (to_text(ID), "S")),
                         (Uniform(App(K, K)), ("S", "S"))):
            outcome = _outcome(check_le(shared, doc, phi, psi, w))
            assert outcome == ("refuted", where, ()) == _fresh_outcome(doc, phi, psi, w)

    def test_position_that_fails_to_build_raises_on_every_call(self):
        # positions are built as checks read them; one that raised must not
        # leave a cached claim without it
        shared = Pca()
        X = carrier(shared, [K, S])
        phi = MassFamily(X, {K: ONE_K, S: ONE_S})
        malformed = MassFamily(X, {K: ONE_K, S: frozenset([S, "not a term"])})
        for _ in range(3):
            with pytest.raises(AttributeError):
                check_le(shared, "M", phi, malformed, Uniform(ID))

    @pytest.mark.parametrize("doc", ["T", "Tw", "M", "Mw", "dW", "dsW", "drW", "dextW"])
    def test_a_claim_is_compiled_with_every_position(self, pca, doc):
        lhs, rhs, *_ = _doctrine_row(pca, doc)
        claim = doctrines.compile_claim(pca, doc, lhs, rhs)
        n = len(list(doctrines.positions(lhs, rhs)))
        assert n and len(claim.compiled) == n

    @pytest.mark.parametrize("doc", ["T", "Tw", "M", "Mw", "dW", "dsW", "drW", "dextW"])
    def test_oracle_witness_on_a_cached_claim_is_rejected(self, pca, doc):
        lhs, rhs, holding, refuted, *_ = _doctrine_row(pca, doc)
        check_le(pca, doc, lhs, rhs, holding)
        check_le(pca, doc, lhs, rhs, refuted)
        for term in (O1, App(K, O1)):
            with pytest.raises(CheckError, match=r"witness term .* is not computable"):
                check_le(pca, doc, lhs, rhs, Uniform(term))
        assert check_le(pca, doc, lhs, rhs, holding).holds

    # Forward-backward claims compile their product once, and the positions
    # of the last forward map read once for every backward realizer.

    @staticmethod
    def _forward(holding, realizer, images):
        """A forward map on the holding map's source and target with the
        given realizer; ``images`` picks each value from the old one."""
        a = holding.forward
        if isinstance(a, FinMap):
            return FinMap(a.source, a.target, {t: images(v) for t, v in a.mapping.items()}, realizer)
        return ExtMorphism(a.source, a.target, realizer, {key: images(v) for key, v in a.pointmap.items()})

    @pytest.mark.parametrize("doc", FORWARD_BACKWARD)
    def test_forward_maps_a_b_a_on_one_claim(self, doc):
        shared = Pca()
        lhs, rhs, holding, refuted, *_ = _doctrine_row(shared, doc)
        a = holding.forward
        # the constant map onto K (onto point a over assemblies): it sends
        # no solution home
        b = self._forward(holding, App(K, K), lambda v: K if doc in ("W", "SW") else "a")
        outcomes = []
        for k in (a, b, a):
            for h in (refuted.backward, holding.backward, refuted.backward):
                w = type(holding)(k, h)
                outcome = _outcome(check_le(shared, doc, lhs, rhs, w))
                assert outcome == _fresh_outcome(doc, lhs, rhs, w)
                outcomes.append(outcome[0])
        assert outcomes == ["refuted", "holds", "refuted"] + ["refuted"] * 3 + ["refuted", "holds", "refuted"]

    @pytest.mark.parametrize("doc", ["W", "rW"])
    def test_a_backward_check_that_raises_mid_way_keeps_its_claim(self, doc, monkeypatch):
        shared = Pca()
        lhs, rhs, holding, refuted, *_ = _doctrine_row(shared, doc)
        other = self._forward(holding, App(K, K), lambda v: K if doc == "W" else "a")
        later = [(holding, None), (refuted, None), (type(holding)(other, holding.backward), None),
                 (holding, 1), (holding, None)]
        fresh = [_fresh_outcome(doc, lhs, rhs, w, fuel) for w, fuel in later]
        compiled = _count_compiles(monkeypatch, doc)

        class Interrupted(Exception):
            pass

        calls = []
        def act_once(*args, real=doctrines.act):
            calls.append(args)
            if len(calls) == 2:  # the backward term's second cell
                raise Interrupted
            return real(*args)
        with monkeypatch.context() as patched:
            patched.setattr(doctrines, "act", act_once)
            with pytest.raises(Interrupted):
                check_le(shared, doc, lhs, rhs, holding)
        assert [_outcome(check_le(shared, doc, lhs, rhs, w, fuel)) for w, fuel in later] == fresh
        assert [outcome[0] for outcome in fresh] == ["holds", "refuted", "refuted", "unknown", "holds"]
        assert compiled == [doc]

    @pytest.mark.parametrize("doc", FORWARD_BACKWARD)
    def test_forward_map_off_the_product_raises_on_every_call(self, doc):
        shared = Pca()
        lhs, rhs, holding, *_ = _doctrine_row(shared, doc)
        if doc in ("W", "SW"):
            off, message = identity_map(lhs.index), "forward map must start at the product"
        else:
            off, message = ext_identity(lhs.index), "forward morphism endpoints do not match"
        for _ in range(3):
            with pytest.raises(CheckError, match=message):
                check_le(shared, doc, lhs, rhs, type(holding)(off, holding.backward))
            assert check_le(shared, doc, lhs, rhs, holding).holds

    @pytest.mark.parametrize("doc", FORWARD_BACKWARD)
    def test_forward_map_out_of_fuel_is_unknown_on_every_call(self, doc):
        shared = Pca()
        lhs, rhs, holding, *_ = _doctrine_row(shared, doc)
        starved = type(holding)(self._forward(holding, DIVERGES, lambda v: v), holding.backward)
        assert check_le(shared, doc, lhs, rhs, holding).holds
        for _ in range(3):
            v = check_le(shared, doc, lhs, rhs, starved, fuel=STARVED_FUEL)
            assert v.unknown and _outcome(v) == _fresh_outcome(doc, lhs, rhs, starved, STARVED_FUEL)
            assert check_le(shared, doc, lhs, rhs, holding).holds
        # a map verified at one fuel is verified again at another
        at_one = _outcome(check_le(shared, doc, lhs, rhs, holding, fuel=1))
        assert at_one[0] == "unknown" and at_one == _fresh_outcome(doc, lhs, rhs, holding, 1)
        assert check_le(shared, doc, lhs, rhs, holding).holds

    @pytest.mark.parametrize("doc", FORWARD_BACKWARD)
    def test_failing_compile_gate_raises_on_every_call(self, doc):
        shared = Pca()
        lhs, rhs, holding, *_ = _doctrine_row(shared, doc)
        if doc in ("W", "SW"):
            Y = lhs.index
            other = Predicate(carrier(shared, [S]), Y, {(S, K): ONE_K, (S, S): ONE_S})
            named = FinSet(("p",))
            off_carrier = Predicate(named, Y, {("p", K): ONE_K, ("p", S): ONE_S})
            gates = ((lhs, other, "base mismatch"),
                     (off_carrier, off_carrier, "lives over a carrier base"))
        else:
            other = Predicate(assembly(shared, ["v"], [(S, "v")]), lhs.index,
                              {((S, "v"), iy): v for (_, iy), v in lhs.table.items()}, lhs.policy)
            carrier_row, _ = _predicate_row(shared)
            gates = ((lhs, other, "base mismatch"),
                     (carrier_row, carrier_row, "lives over an assembly base"))
        for _ in range(3):
            for left, right, message in gates:
                with pytest.raises(CheckError, match=message):
                    check_le(shared, doc, left, right, holding)
                assert check_le(shared, doc, lhs, rhs, holding).holds

    @pytest.mark.parametrize("doc", FORWARD_BACKWARD)
    def test_search_builds_the_product_once(self, doc, monkeypatch):
        shared = Pca()
        lhs, rhs, *_ = _doctrine_row(shared, doc)
        calls = []
        for name in ("carrier_product", "ext_product"):
            real = getattr(doctrines, name)
            monkeypatch.setattr(doctrines, name, lambda *a, real=real: calls.append(a) or real(*a))
        outcome = search_witness(shared, doc, lhs, rhs, SearchBudget(5))
        assert outcome.found and outcome.checked > 1000
        assert len(calls) == 1


    @pytest.mark.parametrize("doc", FORWARD_BACKWARD)
    def test_search_gates_each_forward_map_once(self, doc, monkeypatch):
        # a forward map's endpoints, and the morphism check of an rW/tW one,
        # run once per map and fuel, not once per backward realizer
        shared = Pca()
        lhs, rhs, *_ = _doctrine_row(shared, doc)
        source_checks, gated = [], []
        real_eq = type(lhs.base).__eq__
        def eq(a, b):
            source_checks.append((a, b))
            return real_eq(a, b)
        monkeypatch.setattr(type(lhs.base), "__eq__", eq)
        monkeypatch.setattr(doctrines, "ext_check",
                            lambda pca, km, fuel=None, real=doctrines.ext_check: gated.append(km) or real(pca, km, fuel))
        outcome = search_witness(shared, doc, lhs, rhs, SearchBudget(5))
        assert outcome.found and outcome.checked > 1000
        assert len(source_checks) < 100
        assert len(gated) == len({id(km) for km in gated})

SELF_APPLY = ap(S, ID, ID)  # at fuel 20, 7 of the 550 terms of size <= 4 time out on it, the first at 197
LOW_FUEL = 20


def _brute_inner_witness(oracles, b, target, bound, fuel):
    """find_inner_witness by a plain scan on a fresh structure."""
    fresh, timed_out = Pca(oracles=oracles), False
    if target:
        for cand in enumerate_computable(bound):
            out = apply(fresh, cand, b, fuel)
            if out.is_defined and out.term in target:
                return cand, timed_out
            timed_out = timed_out or out.status == "timeout"
    return None, timed_out


def _first_outcomes(oracles, b, bound, fuel):
    """{normal form: least index reaching it} over enumerate_computable(bound)."""
    fresh, first = Pca(oracles=oracles), {}
    for i, cand in enumerate(enumerate_computable(bound)):
        out = apply(fresh, cand, b, fuel)
        if out.is_defined:
            first.setdefault(out.term, i)
    return first


def _index_queries():
    """(oracles, b, target, bound, fuel) queries whose answers come early,
    late or never, before and after the first timeout, at bounds 2-4."""
    out = []
    for oracles, b, fuel in (({}, SELF_APPLY, LOW_FUEL), ({}, SELF_APPLY, None),
                             ({"o1": {}}, O1, LOW_FUEL), ({}, K, None)):
        for bound in (2, 3, 4):
            by_index = sorted(_first_outcomes(oracles, b, bound, fuel).items(), key=lambda kv: kv[1])
            early, middle, late = by_index[0][0], by_index[len(by_index) // 2][0], by_index[-1][0]
            for target in ([early], [middle], [late], [late, middle], [O1], []):
                out.append((oracles, b, frozenset(target), bound, fuel))
    return out


INDEX_QUERIES = _index_queries()
BRUTE_ANSWERS = [_brute_inner_witness(*q) for q in INDEX_QUERIES]


def _shared_answers(order):
    """Answers to INDEX_QUERIES in the given order, one structure per oracle set."""
    shared = {}
    answers = {}
    for i in order:
        oracles, b, target, bound, fuel = INDEX_QUERIES[i]
        pca = shared.setdefault(tuple(oracles), Pca(oracles=oracles))
        answers[i] = find_inner_witness(pca, b, target, bound, fuel)
    return answers


class TestActionIndex:
    def test_queries_cover_timeouts_before_and_after_the_answer(self):
        assert {timed_out for found, timed_out in BRUTE_ANSWERS if found is not None} == {False, True}
        assert {timed_out for found, timed_out in BRUTE_ANSWERS if found is None} == {False, True}
        assert _brute_inner_witness({}, SELF_APPLY, frozenset([O1]), 4, LOW_FUEL) == (None, True)

    @pytest.mark.parametrize("order", ["forward", "backward", "interleaved"])
    def test_query_orders_match_a_plain_scan(self, order):
        n = len(INDEX_QUERIES)
        picked = {"forward": list(range(n)), "backward": list(range(n))[::-1],
                  "interleaved": list(range(0, n, 2)) + list(range(1, n, 2)) + list(range(n))}[order]
        for i, answer in _shared_answers(picked).items():
            assert answer == BRUTE_ANSWERS[i], INDEX_QUERIES[i]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=len(INDEX_QUERIES) - 1), min_size=1, max_size=30))
    def test_random_query_orders_match_a_plain_scan(self, picked):
        for i, answer in _shared_answers(picked).items():
            assert answer == BRUTE_ANSWERS[i], INDEX_QUERIES[i]

    def test_an_unreachable_target_stops_the_walk_at_its_first_timeout(self, monkeypatch):
        # S/K reduction adds no oracle, so no term sends S to #o1; the first
        # timeout, ((((S (S S)) S) S) S) at index 773 (the size valve),
        # decides the query, and a second one walks nothing.  Terms sharing
        # an action key with an earlier term are walked unanswered, so
        # fewer than 774 keys are applied
        oracles, walked = {"o1": {}}, []
        shared = Pca(oracles=oracles)
        monkeypatch.setattr(doctrines, "act",
                            lambda pca, key, b, fuel: walked.append(key) or act(pca, key, b, fuel))
        unreachable = (S, frozenset([O1]), 5, None)
        assert find_inner_witness(shared, *unreachable) == _brute_inner_witness(oracles, *unreachable) == (None, True)
        index = shared._actions[(S, 5, None)]
        assert (index.timeout_at, index.walked) == (773, 774)
        applied = len(walked)
        assert 0 < applied < 774
        assert find_inner_witness(shared, *unreachable) == (None, True) and len(walked) == applied
        # a reachable target continues the kept walk past the timeout
        last = max(_first_outcomes(oracles, S, 5, None).items(), key=lambda kv: kv[1])[0]
        reachable = (S, frozenset([last]), 5, None)
        assert find_inner_witness(shared, *reachable) == _brute_inner_witness(oracles, *reachable)
        assert len(walked) > applied and index.walked > 774

    def test_a_term_sharing_an_earlier_head_normal_form_can_still_time_out(self):
        # on K at fuel 3, (S K K) is defined in 2 steps, K I K contracts to it
        # in 1 and is skipped, and K (K I K) K, in 2, leaves it 1 step: a timeout
        walk = [ID, *TestUniformWitness.SHARING_I]
        assert [apply(Pca(), t, K, 3).status for t in walk] == ["defined", "defined", "timeout"]
        index = doctrines._ActionIndex(0)
        index.walk = iter(walk)
        assert index.extend(Pca(), K, frozenset([O1]), 3, until_timeout=True) is None
        assert (index.timeout_at, index.walked, index.first) == (2, 3, {K: (0, ID)})

    @pytest.mark.parametrize("error", [PcaError, KeyboardInterrupt])
    def test_a_scan_interrupted_mid_walk_leaves_no_trace(self, monkeypatch, error):
        shared = Pca()
        queries = [(i, q) for i, q in enumerate(INDEX_QUERIES) if q[0] == {} and q[1] is SELF_APPLY
                   and q[3] == 4 and q[4] == LOW_FUEL]
        (i_early, early), (i_late, late) = queries[0], queries[2]
        assert find_inner_witness(shared, *early[1:]) == BRUTE_ANSWERS[i_early]
        calls = []

        def failing_act(pca, key, b, fuel):
            calls.append(key)
            if len(calls) == 150:  # of the 227 keys the late query applies
                raise error("interrupted")
            return act(pca, key, b, fuel)

        monkeypatch.setattr(doctrines, "act", failing_act)
        with pytest.raises(error):
            find_inner_witness(shared, *late[1:])
        for i, q in queries + queries[::-1]:
            assert find_inner_witness(shared, *q[1:]) == BRUTE_ANSWERS[i], q


# ---------------------------------------------------------------------------
# Backward terms of forward-backward witnesses: `check_le` reads each one at
# its forward map's cells from its action key, sharing one verdict per key
# and forward map; it must decide as reading every position with `apply`.

WEIHRAUCH_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "weihrauch_transposition.inst"


def _forward_backward_claims(pca):
    """``(structure, doc, lhs, rhs)``: the fixture's wclaim, every W and SW
    claim between the predicates of the weihrauch-isomorphism laws, and
    every rW and tW claim between those of the realizer-isomorphism laws."""
    inst = parse_instance(WEIHRAUCH_FIXTURE.read_text())
    wclaim = next(c for c in inst.claims if c.name == "wclaim")
    claims = [(inst.pca, "W", inst.element(wclaim.lhs), inst.element(wclaim.rhs))]
    X = carrier(pca, [K])
    opts = [frozenset([K]), frozenset([S]), frozenset([K, S])]
    preds = [F for Y in (carrier(pca, [K]), carrier(pca, [K, S]))
             for F in _pred_palette(X, Y, opts, NONEMPTY)[:: max(1, 3 ** len(Y) - 2)]]
    claims += [(pca, doc, F, G) for doc in ("W", "SW") for F in preds for G in preds]
    X, Y = assembly(pca, ["u"], [(K, "u")]), assembly(pca, ["a", "b"], [(K, "a"), (S, "b")])
    for doc in ("rW", "tW"):
        preds = _pred_palette(X, Y, opts[:2], doctrines.ORDERS[doc].policy)[::3]
        claims += [(pca, doc, F, G) for F in preds for G in preds]
    return claims


def _apply_reading(pca, positions, h, fuel):
    """(status, refuting location, unknown locations) of h read position by
    position with `apply`, and whether a timeout came before the miss."""
    timeouts = []
    for arg, allowed, where in positions:
        out = apply(pca, h, arg, fuel)
        if out.status == "timeout":
            timeouts.append(where + ("timeout",))
        elif not (out.is_defined and out.term in allowed):
            return ("refuted", where, ()), bool(timeouts)
    return ("unknown", None, tuple(timeouts)) if timeouts else ("holds", None, ()), False


class TestBackwardTermsByKey:
    @pytest.mark.parametrize("size, fuel, docs", [(3, None, FORWARD_BACKWARD), (3, 2, FORWARD_BACKWARD),
                                                  (4, 2, ["W", "SW"]), (4, 3, ["W", "SW"])])
    def test_every_forward_map_and_backward_term_reads_as_apply(self, size, fuel, docs):
        # each claim's candidates in search order on one structure, each
        # reading on a structure of its own.  At fuel 2, K (S K K) K shares
        # the key of S K K, which an earlier candidate decided in 2 steps, and
        # times out; at fuel 3, size-4 backward terms of SW time out on one
        # position and miss on a later one.  rW and tW are left out at size
        # 4, where some forward morphisms run out of fuel on a name.
        shared, statuses, timeout_then_miss = Pca(), Counter(), 0
        for pca, doc, lhs, rhs in _forward_backward_claims(shared):
            if doc not in docs:
                continue
            claim = doctrines.compile_claim(pca, doc, lhs, rhs)
            reader = Pca(oracles=pca.oracles)
            for w in search._WALKS[ForwardBackward](pca, claim, SearchBudget(size)):
                v = check_le(pca, doc, lhs, rhs, w, fuel)
                positions = list(claim.compiled.build(w.forward, fuel))
                want, late_miss = _apply_reading(reader, positions, w.backward, fuel)
                assert (v.status, v.where, v.timeouts) == want, (doc, to_text(w.backward), fuel)
                statuses[v.status] += 1
                timeout_then_miss += late_miss
        assert set(statuses) == ({"holds", "refuted"} if fuel is None else {"holds", "refuted", "unknown"})
        assert (timeout_then_miss > 0) == (fuel == 3)


# ---------------------------------------------------------------------------
# Witnesses with a realizer per cell: per-point and bounded Tw and Mw, extsW
# and D, each checked against their obligations read one by one with `apply`
# on a structure of its own.

REFUTE, UNDECIDED = "refute", "undecided"  # obligations settled with no evaluation
# K I K acts as I one step later, so a check must charge that step; DIVERGES
# runs out of fuel on anything, and K S sends anything to S in one step
PER_CELL_TERMS = (ID, App(K, K), App(K, S), ap(K, ID, K), DIVERGES)


def _read_by_apply(pca, obligations, fuel):
    """(status, refuting location, unknown locations) of the obligations
    ``(fn, arg, allowed, where)`` read in order with `apply`, and whether a
    timeout came before the refutation."""
    timeouts = []
    for fn, arg, allowed, where in obligations:
        if fn is UNDECIDED:
            timeouts.append(where)
            continue
        if fn is not REFUTE:
            out = apply(pca, fn, arg, fuel)
            if out.status == "timeout":
                timeouts.append(where + ("timeout",))
                continue
            if out.is_defined and out.term in allowed:
                continue
        return ("refuted", where, ()), bool(timeouts)
    return ("unknown", None, tuple(timeouts)) if timeouts else ("holds", None, ()), False


def _positional_obligations(pca, doc, lhs, rhs, w, fuel):
    for key, arg, allowed, where in doctrines.positions(lhs, rhs):
        if doc == "Mw" and not allowed:
            yield REFUTE, None, None, (*where, doctrines.EMPTY_LEFT)
        elif isinstance(w, Bounded):
            a = find_inner_witness(pca, arg, allowed, w.bound, fuel)[0]
            if a is None:
                yield UNDECIDED, None, None, (*where, f"no witness up to size {w.bound}")
            else:
                yield a, arg, allowed, where
        else:
            yield w.mapping[key], arg, allowed, where


def _extended_strong_obligations(pca, doc, lhs, rhs, w, fuel):
    for p in lhs.effective_dom:
        out = apply(pca, w.forward, p, fuel)
        if out.status == "timeout":
            yield UNDECIDED, None, None, (p, "timeout")
            continue
        if not out.is_defined:
            yield REFUTE, None, None, (p, "forward witness undefined")
        offered = rhs.table.get(out.term)
        if not offered:
            yield REFUTE, None, None, (p, out.term, "image has no candidate solution sets")
        for a in sorted(lhs.table[p], key=spaces.point_key):
            b = w.choice[(p, a)]
            if b not in offered:
                yield REFUTE, None, None, (p, a, "chosen set not offered at the image")
            for q in doctrines.sorted_terms(b):
                yield w.backward, q, a, (p, a, q)


def _dialectica_obligations(pca, doc, lhs, rhs, w, fuel):
    for x, a in lhs.relation:
        b = w.choice[(x, a)]
        if (x, b) not in rhs.table:
            yield REFUTE, None, None, (x, a, "choice leaves the relation")
        for q in doctrines.sorted_terms(rhs.table[(x, b)]):
            yield w.backward, q, lhs.table[(x, a)], (x, a, q)


def _choices(keys, options):
    return [dict(zip(keys, picked)) for picked in itertools.product(options, repeat=len(keys))]


def _per_cell_checks(pca):
    """``(doc, lhs, rhs, witness, obligations)``: per-point Tw and Mw tables
    over PER_CELL_TERMS, bounded witnesses of every size up to 2 (at size 0
    nothing sends K to S), an Mw claim with an empty left solution set, an
    oracle target no S/K term reaches, and extsW and D witnesses whose
    forward maps and choices go wrong in every way their orders name."""
    X = carrier(pca, [K, S])
    alpha = TrackedFamily(X, {K: K, S: S})
    beta = TrackedFamily(X, {K: K, S: App(K, K)})
    phi = MassFamily(X, {K: ONE_K, S: ONE_S})
    psi = MassFamily(X, {K: [K, S], S: ONE_K})
    hollow = MassFamily(X, {K: ONE_K, S: []})  # empty on the left at S
    oraclish = MassFamily(X, {K: [O1], S: ONE_S})
    claims = [("Tw", alpha, beta), ("Mw", phi, psi), ("Mw", hollow, phi), ("Mw", oraclish, phi)]
    for doc, lhs, rhs in claims:
        keys = [key for key, *_ in doctrines.positions(lhs, rhs)]
        for table in _choices(keys, PER_CELL_TERMS):
            yield doc, lhs, rhs, PerPoint(table), _positional_obligations
        for bound in range(3):
            yield doc, lhs, rhs, Bounded(bound), _positional_obligations
    dom = carrier(pca, [K, S, O1])
    sets = [frozenset([K]), frozenset([K, S]), frozenset([S])]
    f = ExtendedPredicate(dom, {K: sets[:2], S: [sets[1]], O1: [sets[0]]})
    g = ExtendedPredicate(dom, {K: sets[:2], S: [], O1: [sets[2]]})
    # S I (K K) sends the oracle atom to #o1 K, undefined; K S lands where
    # nothing is offered, and S I (K K) sends K to K K, outside the domain
    forwards = (ID, App(K, K), App(K, S), ap(S, ID, App(K, K)), DIVERGES)
    for k, choice, h in itertools.product(forwards, _choices([(p, a) for p in dom for a in f.table[p]], sets),
                                          PER_CELL_TERMS):
        yield "extsW", f, g, ExtStrong(k, choice, h), _extended_strong_obligations
    F = DialecticaPredicate(X, {(K, sets[0]): ONE_K, (K, sets[2]): [K, S, App(K, K)], (S, sets[0]): [K, S]})
    G = DialecticaPredicate(X, {(K, sets[0]): ONE_K, (K, sets[1]): [K, S], (S, sets[2]): ONE_S})
    for choice, h in itertools.product(_choices(F.relation, sets), PER_CELL_TERMS):
        yield "D", F, G, DialecticaWitness(choice, h), _dialectica_obligations


class TestRealizersPerCell:
    @pytest.mark.parametrize("fuel", [1, 2, 3, None])
    def test_every_witness_reads_as_its_obligations_applied(self, fuel):
        # every check on one structure, every reading on another
        pca = Pca(oracles={"o1": {}})
        reader = Pca(oracles=pca.oracles)
        statuses, reasons, timeout_then_miss = Counter(), set(), Counter()
        for doc, lhs, rhs, w, obligations in _per_cell_checks(pca):
            v = check_le(pca, doc, lhs, rhs, w, fuel)
            want, late_miss = _read_by_apply(reader, obligations(reader, doc, lhs, rhs, w, fuel), fuel)
            assert (v.status, v.where, v.timeouts) == want, (doc, w, fuel)
            statuses[doc, v.status] += 1
            reasons.update(where[-1] for where in (*v.timeouts, v.where or ("",)))
            timeout_then_miss[doc] += late_miss
        assert set(statuses) == {(doc, s) for doc in ("Tw", "Mw", "extsW", "D") for s in ("holds", "refuted", "unknown")}
        assert min(timeout_then_miss[doc] for doc in ("Tw", "Mw", "extsW", "D")) > 0
        named = {doctrines.EMPTY_LEFT, "no witness up to size 0", "timeout", "chosen set not offered at the image",
                 "image has no candidate solution sets", "choice leaves the relation"}
        assert named <= reasons
        assert ("forward witness undefined" in reasons) == (fuel is None)

    @staticmethod
    def _refuted_early(pca):
        """Per case: a claim whose witness refutes, with no evaluation,
        before its last position, as (doc, lhs, rhs, witness, location)."""
        X = carrier(pca, [K, S])
        hollow = MassFamily(X, {K: [], S: ONE_S})  # empty on the left at K
        phi = MassFamily(X, {K: ONE_K, S: ONE_S})
        f = ExtendedPredicate(X, {K: [ONE_K], S: [ONE_S]})
        g = ExtendedPredicate(X, {K: [], S: [ONE_S]})  # offers nothing at K
        choice = {(K, ONE_K): ONE_K, (S, ONE_S): ONE_S}
        F = DialecticaPredicate(X, {(K, ONE_K): ONE_K, (S, ONE_S): ONE_S})
        return {
            "Mw-per-point": ("Mw", hollow, phi, PerPoint({(K, K): ID, (S, S): ID}),
                             (K, K, doctrines.EMPTY_LEFT)),
            "Mw-bounded": ("Mw", hollow, phi, Bounded(2), (K, K, doctrines.EMPTY_LEFT)),
            "extsW-image": ("extsW", f, g, ExtStrong(ID, choice, ID), (K, K, "image has no candidate solution sets")),
            "extsW-chosen-set": ("extsW", f, f, ExtStrong(ID, {**choice, (K, ONE_K): ONE_S}, ID),
                                 (K, ONE_K, "chosen set not offered at the image")),
            "D-choice": ("D", F, F, DialecticaWitness({**choice, (K, ONE_K): ONE_S}, ID),
                         (K, ONE_K, "choice leaves the relation")),
        }

    @pytest.mark.parametrize("case", ["Mw-per-point", "Mw-bounded", "extsW-image", "extsW-chosen-set", "D-choice"])
    def test_an_obligation_stream_ends_at_its_refuting_cell(self, pca, case):
        # drained to the end, not stopped where the check stops
        doc, lhs, rhs, w, where = self._refuted_early(pca)[case]
        order = doctrines.ORDERS[doc]
        claim = doctrines.compile_claim(pca, doc, lhs, rhs)
        cells = list(order.obligations(pca, order, claim.compiled, w, None))
        assert cells[-1][2] is None and cells[-1][3] == where
        assert all(cell[2] is not None for cell in cells[:-1])
        v = check_le(pca, doc, lhs, rhs, w)
        assert v.refuted and v.where == where
