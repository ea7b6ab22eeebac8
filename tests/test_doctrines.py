import pytest
from hypothesis import given, settings, strategies as st

from degreelab import doctrines, spaces
from degreelab.doctrines import (
    ALLOW_EMPTY,
    DOCTRINES,
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
    find_inner_witness,
    forall_along,
    lattice_element,
    lattice_law_witness,
    reindex,
    reindex_witness,
    transpose_pure_forall,
    untranspose_pure_forall,
)
from degreelab.pca import FST, ID, PAIR, SND, Pca, PcaError, apply, enumerate_computable, normalize
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
    return AssemblyFamily(A, {(K, "x"): ONE_K, (S, "x"): second}, policy)


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
            return (F, F, ExtForwardBackward(prod.snd, SND), ExtForwardBackward(prod.snd, App(K, K)),
                    (to_text(ks), "(u, b)", "S"), ExtForwardBackward(prod.snd, DIVERGES),
                    ((to_text(kk), "(u, a)", "K", "timeout"), (to_text(ks), "(u, b)", "S", "timeout")))
        return (F, F, ExtForwardBackward(prod.snd, SND), ExtForwardBackward(prod.snd, App(K, S)),
                (to_text(kk), "(u, a)", "K"), ExtForwardBackward(prod.snd, DIVERGES),
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
        if isinstance(holding, ForwardBackward):
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
        # decides the query, and a second one walks nothing
        oracles, walked = {"o1": {}}, []
        shared = Pca(oracles=oracles)
        monkeypatch.setattr(doctrines, "apply",
                            lambda pca, a, b, fuel=None: walked.append(a) or apply(pca, a, b, fuel))
        unreachable = (S, frozenset([O1]), 5, None)
        assert find_inner_witness(shared, *unreachable) == _brute_inner_witness(oracles, *unreachable) == (None, True)
        assert len(walked) == 774 and to_text(walked[-1]) == "((((S (S S)) S) S) S)"
        assert find_inner_witness(shared, *unreachable) == (None, True) and len(walked) == 774
        # a reachable target continues the kept walk past the timeout
        last = max(_first_outcomes(oracles, S, 5, None).items(), key=lambda kv: kv[1])[0]
        reachable = (S, frozenset([last]), 5, None)
        assert find_inner_witness(shared, *reachable) == _brute_inner_witness(oracles, *reachable)
        assert len(walked) > 774

    @pytest.mark.parametrize("error", [PcaError, KeyboardInterrupt])
    def test_a_scan_interrupted_mid_walk_leaves_no_trace(self, monkeypatch, error):
        shared = Pca()
        queries = [(i, q) for i, q in enumerate(INDEX_QUERIES) if q[0] == {} and q[1] is SELF_APPLY
                   and q[3] == 4 and q[4] == LOW_FUEL]
        (i_early, early), (i_late, late) = queries[0], queries[2]
        assert find_inner_witness(shared, *early[1:]) == BRUTE_ANSWERS[i_early]
        calls = []

        def failing_apply(pca, a, b, fuel=None):
            calls.append(a)
            if len(calls) == 300:
                raise error("interrupted")
            return apply(pca, a, b, fuel)

        monkeypatch.setattr(doctrines, "apply", failing_apply)
        with pytest.raises(error):
            find_inner_witness(shared, *late[1:])
        for i, q in queries + queries[::-1]:
            assert find_inner_witness(shared, *q[1:]) == BRUTE_ANSWERS[i], q
