import pytest

from degreelab.pca import FST, ID, SND, apply, normalize
from degreelab.spaces import (
    Assembly,
    ExtMorphism,
    FinMap,
    FinSet,
    SpaceError,
    assembly,
    assembly_to_carrier,
    carrier,
    carrier_product,
    carrier_to_assembly,
    compose_maps,
    constant_map,
    ext_check,
    ext_compose,
    ext_equal,
    ext_identity,
    ext_product,
    identity_map,
    is_pullback,
    key_image,
    keys,
    map_like,
    pair_key,
    pair_point,
    pairing_map,
    point_key,
    product,
    product_components,
    projection_path,
    pullback,
    split_key,
    split_point,
    terminal_carrier,
)
from degreelab.terms import App, K, Oracle, S, ap, pair_term, to_text


class TestCarriers:
    def test_elements_must_be_normal(self, pure):
        with pytest.raises(SpaceError):
            carrier(pure, [ap(K, K, K)])

    def test_duplicates_rejected(self, pure):
        with pytest.raises(SpaceError):
            carrier(pure, [K, K])

    def test_terminal_is_the_identity_singleton(self, pure):
        one = terminal_carrier(pure)
        assert one.points == (ID,)

    def test_terminal_element_overridable(self, pure):
        assert terminal_carrier(pure, K).points == (K,)

    def test_points_canonically_ordered(self, pure):
        c = carrier(pure, [S, K, App(K, K)])
        assert [to_text(t) for t in c] == ["K", "S", "(K K)"]


class TestCarrierProduct:
    def test_singletons(self, pure):
        prod = carrier_product(pure, carrier(pure, [K]), carrier(pure, [S]))
        assert prod.object.points == (pair_term(K, S),)

    def test_projections_are_tracked(self, pure):
        X, Y = carrier(pure, [K, S]), carrier(pure, [K])
        prod = carrier_product(pure, X, Y)
        prod.fst.check_realizer(pure)
        prod.snd.check_realizer(pure)
        assert apply(pure, FST, pair_term(K, K)).term == K

    def test_cardinality(self, pca, o1):
        X = carrier(pca, [K, S, o1])
        Y = carrier(pca, [K, S])
        prod = carrier_product(pca, X, Y)
        assert len(prod.object) == len(X) * len(Y)

    def test_projection_detection(self, pure):
        X, Y = carrier(pure, [K, S]), carrier(pure, [K])
        prod = carrier_product(pure, X, Y)
        assert projection_path(prod.fst) == ("fst",)
        assert projection_path(prod.snd) == ("snd",)
        assert projection_path(prod.fst) == ("fst",)
        assert projection_path(identity_map(X)) == ()
        assert product_components(prod.object) == (X, Y)

    def test_empty_path_needs_source_equal_to_target(self, pure):
        X, empty = carrier(pure, [K, S]), carrier(pure, [])
        assert projection_path(FinMap(carrier(pure, [K]), X, {K: K}, ID)) is None
        assert projection_path(FinMap(empty, X, {})) == ("fst",)
        assert projection_path(identity_map(empty)) == ()

    def test_pairing_map_satisfies_triangles(self, pure):
        X, Y, Z = carrier(pure, [K, S]), carrier(pure, [K]), carrier(pure, [K, S])
        prod = carrier_product(pure, X, Y)
        f = FinMap(Z, X, {K: S, S: K})
        g = constant_map(Z, Y, K)
        med = pairing_map(pure, f, g, prod)
        assert compose_maps(prod.fst, med) == f
        assert compose_maps(prod.snd, med) == g


class TestFinMaps:
    def test_graph_total(self, pure):
        X = carrier(pure, [K, S])
        with pytest.raises(SpaceError):
            FinMap(X, X, {K: K})

    def test_values_in_target(self, pure):
        X = carrier(pure, [K])
        with pytest.raises(SpaceError):
            FinMap(X, X, {K: S})

    def test_realizer_must_be_computable(self, pure, o1):
        X = carrier(pure, [K])
        with pytest.raises(SpaceError):
            FinMap(X, X, {K: K}, realizer=o1)

    def test_realizer_tracking_verified(self, pure):
        X = carrier(pure, [K, S])
        bad = FinMap(X, X, {K: S, S: K}, realizer=ID)
        with pytest.raises(SpaceError):
            bad.check_realizer(pure)

    def test_fibers_from_graphs(self, pure):
        X, Y = carrier(pure, [K, S]), carrier(pure, [K])
        f = FinMap(X, Y, {K: K, S: K})
        assert f.fiber(K) == (K, S)
        assert f.is_surjective()


class TestAssemblies:
    def test_naming_must_be_total(self, pure):
        with pytest.raises(SpaceError):
            Assembly(("x", "y"), ((K, "x"),))

    def test_flags(self, pure):
        modest = assembly(pure, ["x", "y"], [(K, "x"), (S, "y"), (App(K, K), "y")])
        assert modest.is_modest and not modest.is_partitioned
        partitioned = assembly(pure, ["x", "y"], [(K, "x"), (K, "y")])
        assert partitioned.is_partitioned and not partitioned.is_modest

    def test_support(self, pure):
        a = assembly(pure, ["x"], [(K, "x"), (S, "x")])
        assert a.support == (K, S)

    def test_carrier_embedding_roundtrip(self, pure):
        X = carrier(pure, [K, S])
        asm = carrier_to_assembly(pure, X)
        assert asm.is_modest and asm.is_partitioned
        assert assembly_to_carrier(asm) == X

    def test_embedding_needs_partitioned_modest(self, pure):
        a = assembly(pure, ["x"], [(K, "x"), (S, "x")])
        with pytest.raises(SpaceError):
            assembly_to_carrier(a)


class TestExtMorphisms:
    def test_identity_checks(self, pure):
        a = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        assert ext_check(pure, ext_identity(a)).holds

    def test_non_computable_realizer_rejected(self, pure, o1):
        a = assembly(pure, ["x"], [(K, "x")])
        with pytest.raises(SpaceError):
            ExtMorphism(a, a, o1, {(K, "x"): "x"})

    def test_constant_morphism_checks(self, pure):
        a = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        m = ExtMorphism(a, a, App(K, K), {(K, "x"): "x", (S, "y"): "x"})
        assert ext_check(pure, m).holds

    def test_refuted_with_counterexample(self, pure):
        a = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        bad = ExtMorphism(a, a, ID, {(K, "x"): "y", (S, "y"): "y"})
        v = ext_check(pure, bad)
        assert v.refuted and v.counterexample[0] == "K"

    def test_identity_laws_up_to_behaviour(self, pure):
        a = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        m = ExtMorphism(a, a, App(K, K), {(K, "x"): "x", (S, "y"): "x"})
        assert ext_equal(pure, ext_compose(pure, ext_identity(a), m), m)
        assert ext_equal(pure, ext_compose(pure, m, ext_identity(a)), m)

    def test_composition_chains_constants(self, pure):
        a = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        to_x = ExtMorphism(a, a, App(K, K), {(K, "x"): "x", (S, "y"): "x"})
        to_y = ExtMorphism(a, a, App(K, S), {(K, "x"): "y", (S, "y"): "y"})
        both = ext_compose(pure, to_y, to_x)
        assert ext_check(pure, both).holds
        assert both.pointmap[(K, "x")] == "y"


class TestExtProducts:
    def test_one_point_product(self, pure):
        a = assembly(pure, ["x"], [(K, "x")])
        prod = ext_product(pure, a, a)
        assert prod.object.points == (("x", "x"),)
        assert len(prod.object.naming) == 1

    def test_projections_check(self, pure):
        a = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        prod = ext_product(pure, a, a)
        assert ext_check(pure, prod.fst).holds
        assert ext_check(pure, prod.snd).holds
        assert projection_path(prod.fst) == ("fst",)

    def test_mediating_morphism_on_two_by_two(self, pure):
        a = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        z = assembly(pure, ["z"], [(K, "z")])
        prod = ext_product(pure, a, a)
        f = ExtMorphism(z, a, App(K, K), {(K, "z"): "x"})
        g = ExtMorphism(z, a, App(K, S), {(K, "z"): "y"})
        med = pairing_map(pure, f, g, prod)
        assert ext_check(pure, med).holds
        assert ext_equal(pure, ext_compose(pure, prod.fst, med), f)
        assert ext_equal(pure, ext_compose(pure, prod.snd, med), g)

    def test_components_recovered(self, pure):
        a = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        b = assembly(pure, ["z"], [(K, "z")])
        prod = ext_product(pure, a, b)
        assert product_components(prod.object) == (a, b)

    def test_projection_side(self, pure):
        a = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
        b = assembly(pure, ["z"], [(K, "z")])
        for prod in (ext_product(pure, a, b), ext_product(pure, a, a)):
            assert projection_path(prod.fst) == ("fst",)
            assert projection_path(prod.snd) == ("snd",)
            assert projection_path(ext_identity(prod.object)) == ()
        assert projection_path(ext_identity(a)) == ()


KINDS = ["carrier", "assembly"]


class TestKeyView:
    """Keys read a carrier by its points and an assembly by its naming
    pairs, so products and maps out of them are built alike."""

    @staticmethod
    def _factors(pure, kind):
        if kind == "carrier":
            return carrier(pure, [K, S]), carrier(pure, [K])
        return (assembly(pure, ["x", "y"], [(K, "x"), (S, "y"), (pair_term(K, K), "y")]),
                assembly(pure, ["z"], [(K, "z"), (S, "z")]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_split_gives_back_the_factors(self, pure, kind):
        X, Y = self._factors(pure, kind)
        for a in keys(X):
            for b in keys(Y):
                assert split_key(pair_key(a, b)) == (a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_product_keys_are_the_paired_keys(self, pure, kind):
        X, Y = self._factors(pure, kind)
        paired = [pair_key(a, b) for a in keys(X) for b in keys(Y)]
        prod_keys = keys(product(pure, X, Y).object)
        assert len(prod_keys) == len(paired) and set(prod_keys) == set(paired)

    @pytest.mark.parametrize("kind", KINDS)
    def test_product_points_are_the_paired_points(self, pure, kind):
        """The projections read each product point as pair_point of its
        factor points, and split_point gives them back."""
        X, Y = self._factors(pure, kind)
        prod = product(pure, X, Y)
        for key in keys(prod.object):
            a, b = prod.fst(key), prod.snd(key)
            point = key if kind == "carrier" else key[1]
            assert pair_point(prod.object, a, b) == point
            assert split_point(prod.object, point) == (a, b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_map_like_keeps_the_kind(self, pure, kind):
        X, _ = self._factors(pure, kind)
        m = identity_map(X) if kind == "carrier" else ext_identity(X)
        graph = {key: m(key) for key in keys(X)}
        assert map_like(m, X, X, graph, ID) == m

    def test_key_image_of_a_carrier_map_is_its_graph(self, pure):
        X = carrier(pure, [K, S])
        m = FinMap(X, X, {K: S, S: S}, App(K, S))
        assert [key_image(pure, m, x) for x in keys(X)] == [m.mapping[x] for x in X] == [S, S]

    def test_key_image_of_an_assembly_morphism_is_induced(self, pure):
        A, B = self._factors(pure, "assembly")
        m = ExtMorphism(A, B, App(K, S), {key: "z" for key in A.naming})
        assert ext_check(pure, m).holds
        for key in keys(A):
            assert key_image(pure, m, key) == m.induced(pure, *key) == (S, m(key))


class TestPullbacks:
    def test_fiber_product_counts(self, pure):
        X = carrier(pure, [K, S])
        A = carrier(pure, [K])
        Z = carrier(pure, [S])
        f = FinMap(X, A, {K: K, S: K})
        h = FinMap(Z, A, {S: K})
        square = pullback(f, h)
        assert len(square.apex) == 2
        assert is_pullback(square)

    def test_commutes(self, pure):
        X = carrier(pure, [K, S])
        A = carrier(pure, [K, S])
        f = identity_map(X)
        h = FinMap(A, A, {K: S, S: S})
        square = pullback(f, h)
        for p in square.apex:
            assert f.mapping[square.h_prime.mapping[p]] == h.mapping[square.f_prime.mapping[p]]
