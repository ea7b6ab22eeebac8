import pytest

from degreelab.doctrines import (
    ALLOW_EMPTY,
    NONEMPTY,
    AssemblyFamily,
    Bounded,
    CheckError,
    DialecticaPredicate,
    DialecticaWitness,
    ExtForwardBackward,
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
    forall_along,
    lattice_element,
    lattice_law_witness,
    reindex,
    reindex_witness,
    transpose_pure_forall,
    untranspose_pure_forall,
)
from degreelab.pca import FST, ID, PAIR, SND, apply, normalize
from degreelab.search import SearchBudget, search_witness
from degreelab.spaces import FinMap, assembly, carrier, carrier_product, constant_map, ext_product, identity_map
from degreelab.terms import App, K, Oracle, S, ap, pair_term

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
        f = AssemblyFamily(A, {(K, "x"): frozenset([K]), (S, "x"): frozenset([K])}, NONEMPTY)
        assert check_le(pure, "drW", f, f, Uniform(SND)).holds
        g = AssemblyFamily(A, {(K, "x"): frozenset(), (S, "x"): frozenset([K])}, ALLOW_EMPTY)
        assert check_le(pure, "dextW", g, g, Uniform(SND)).holds

    def test_empty_solution_sets_are_vacuous(self, pure):
        A = assembly(pure, ["x"], [(K, "x")])
        f = AssemblyFamily(A, {(K, "x"): frozenset([K])}, ALLOW_EMPTY)
        top = AssemblyFamily(A, {(K, "x"): frozenset()}, ALLOW_EMPTY)
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
        w = ExtForwardBackward(prod.snd, SND)
        assert check_le(pure, "rW", F, F, w).holds

    def test_extended_allows_empty(self, pure):
        X = assembly(pure, ["u"], [(K, "u")])
        Y = assembly(pure, ["a"], [(K, "a")])
        F = Predicate(X, Y, {((K, "u"), (K, "a")): frozenset()}, ALLOW_EMPTY)
        prod = ext_product(pure, X, Y)
        assert check_le(pure, "tW", F, F, ExtForwardBackward(prod.snd, SND)).holds


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
