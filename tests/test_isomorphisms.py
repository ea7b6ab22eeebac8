import pytest

from degreelab.completions import (
    EXISTS,
    FORALL,
    FULL,
    PURE,
    CompletionObject,
    CompletionWitness,
    comp_le,
)
from degreelab.doctrines import (
    ALLOW_EMPTY,
    CheckError,
    DialecticaPredicate,
    DialecticaWitness,
    ExtStrong,
    ExtendedPredicate,
    ForwardBackward,
    MassFamily,
    NONEMPTY,
    PerPoint,
    Predicate,
    TrackedFamily,
    Uniform,
    check_le,
)
from degreelab.isomorphisms import (
    EQUIVALENCES,
    TwoStepObject,
    TwoStepWitness,
    classical_to_generalized,
    classical_witness_to_generalized,
    dialectica_from_completion,
    dialectica_shift,
    dialectica_to_completion,
    dialectica_transport_backward,
    dialectica_transport_forward,
    ext_fb_to_fb,
    ext_pred_to_assembly,
    extended_to_dialectica,
    fb_to_ext_fb,
    generalized_witness_to_classical,
    medvedev_from_completion,
    medvedev_to_completion,
    medvedev_transport_backward,
    medvedev_transport_forward,
    modest_predicate_to_carrier,
    muchnik_transport_backward,
    muchnik_transport_forward,
    two_step_le,
    two_step_to_dialectica,
    two_step_transport_forward,
    weihrauch_from_completion,
    weihrauch_to_completion,
    weihrauch_transport_backward,
    weihrauch_transport_forward,
)
from degreelab.pca import ID, SND, FST
from degreelab.spaces import (
    ExtMorphism,
    FinMap,
    assembly,
    carrier,
    carrier_to_assembly,
    ext_product,
    identity_map,
    keys,
    product,
    terminal_carrier,
)
from degreelab.terms import App, K, Oracle, S, pair_term

O1 = Oracle("o1")


class TestMedvedevMaps:
    def test_constant_leg_collects_fiber(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K, S])
        f = FinMap(Y, X, {K: K, S: K})
        alpha = TrackedFamily(Y, {K: K, S: S})
        obj = CompletionObject(FORALL, FULL, "T", f, alpha)
        phi = medvedev_from_completion(pure, obj)
        assert phi.values[K] == frozenset([K, S])

    def test_identity_leg_gives_singletons(self, pure):
        X = carrier(pure, [K, S])
        alpha = TrackedFamily(X, {K: K, S: S})
        obj = CompletionObject(FORALL, FULL, "T", identity_map(X), alpha)
        phi = medvedev_from_completion(pure, obj)
        assert phi.values == {K: frozenset([K]), S: frozenset([S])}

    def test_empty_fiber_is_empty_set(self, pure):
        X = carrier(pure, [K, S])
        Y = carrier(pure, [K])
        obj = CompletionObject(FORALL, FULL, "T", FinMap(Y, X, {K: K}), TrackedFamily(Y, {K: K}))
        phi = medvedev_from_completion(pure, obj)
        assert phi.values[S] == frozenset()

    def test_section_roundtrip(self, pure):
        X = carrier(pure, [K, S])
        phi = MassFamily(X, {K: frozenset([K, S]), S: frozenset()})
        obj = medvedev_to_completion(pure, phi)
        assert medvedev_from_completion(pure, obj) == phi

    def test_top_has_empty_graph(self, pure):
        X = carrier(pure, [K])
        top = MassFamily(X, {K: frozenset()})
        obj = medvedev_to_completion(pure, top)
        assert len(obj.leg.source) == 0

    def test_transport_forward_and_backward(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K, S])
        Z = carrier(pure, [K, S])
        f = FinMap(Y, X, {K: K, S: K})
        g = FinMap(Z, X, {K: K, S: K})
        alpha = TrackedFamily(Y, {K: K, S: S})
        beta = TrackedFamily(Z, {K: K, S: S})
        lhs = CompletionObject(FORALL, FULL, "T", f, alpha)
        rhs = CompletionObject(FORALL, FULL, "T", g, beta)
        w = CompletionWitness(FinMap(Z, Y, {K: K, S: S}), Uniform(ID))
        assert comp_le(pure, lhs, rhs, w).holds
        phi = medvedev_from_completion(pure, lhs)
        psi = medvedev_from_completion(pure, rhs)
        fwd = medvedev_transport_forward(pure, lhs, rhs, w)
        assert check_le(pure, "M", phi, psi, fwd).holds
        back = medvedev_transport_backward(pure, lhs, rhs, fwd)
        assert comp_le(pure, lhs, rhs, back).holds

    def test_backward_requires_holding_input(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K])
        lhs = CompletionObject(FORALL, FULL, "T", FinMap(Y, X, {K: K}), TrackedFamily(Y, {K: K}))
        rhs = CompletionObject(FORALL, FULL, "T", FinMap(Y, X, {K: K}), TrackedFamily(Y, {K: S}))
        with pytest.raises(CheckError):
            medvedev_transport_backward(pure, lhs, rhs, Uniform(ID))


class TestMuchnikMaps:
    def test_roundtrip(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K, S])})
        obj = medvedev_to_completion(pure, phi, "Tw")
        assert medvedev_from_completion(pure, obj) == phi

    def test_transports(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K, S])
        f = FinMap(Y, X, {K: K, S: K})
        alpha = TrackedFamily(Y, {K: K, S: S})
        lhs = CompletionObject(FORALL, FULL, "Tw", f, alpha)
        w = CompletionWitness(identity_map(Y), PerPoint({K: ID, S: ID}))
        assert comp_le(pure, lhs, lhs, w).holds
        phi = medvedev_from_completion(pure, lhs)
        fwd = muchnik_transport_forward(pure, lhs, lhs, w)
        assert check_le(pure, "Mw", phi, phi, fwd).holds
        back = muchnik_transport_backward(pure, lhs, lhs, fwd)
        assert comp_le(pure, lhs, lhs, back).holds


class TestTransposition:
    """The one transposition row behind W and SW over carriers (dW, dsW) and
    rW and tW over assemblies (drW, dextW)."""

    DOCS = ["dW", "dsW", "drW", "dextW"]

    @staticmethod
    def _predicate(pure, doc, index_size=2):
        """A predicate with alternating values over a one-point base and an
        index of index_size points, of the doctrine's kind of object."""
        if doc in ("dW", "dsW"):
            X, Y = carrier(pure, [K]), carrier(pure, [K, S][:index_size])
        else:
            X = assembly(pure, ["u"], [(K, "u")])
            Y = assembly(pure, ["a", "b"][:index_size], [(K, "a"), (S, "b")][:index_size])
        cells = [(a, b) for a in keys(X) for b in keys(Y)]
        table = {cell: frozenset([(K, S)[i % 2]]) for i, cell in enumerate(cells)}
        return Predicate(X, Y, table, ALLOW_EMPTY if doc == "dextW" else NONEMPTY)

    @staticmethod
    def _witness(doc, k):
        """k with the backward term that answers each instance by its own
        solution."""
        return ForwardBackward(k, ID if doc == "dsW" else SND)

    @pytest.mark.parametrize("doc", DOCS)
    def test_roundtrip(self, pure, doc):
        F = self._predicate(pure, doc)
        obj = weihrauch_to_completion(pure, F, doc)
        assert weihrauch_from_completion(pure, obj) == F

    @pytest.mark.parametrize("doc", DOCS)
    def test_witness_transports(self, pure, doc):
        row = next(row for row in EQUIVALENCES.values() if row.completion == doc)
        F = self._predicate(pure, doc)
        w = self._witness(doc, product(pure, F.base, F.index).snd)
        assert check_le(pure, row.concrete, F, F, w).holds
        obj = weihrauch_to_completion(pure, F, doc)
        cw = weihrauch_transport_backward(pure, obj, obj, w)
        assert comp_le(pure, obj, obj, cw).holds
        back = weihrauch_transport_forward(pure, obj, obj, cw)
        assert check_le(pure, row.concrete, F, F, back).holds

    @pytest.mark.parametrize("doc", DOCS)
    def test_empty_index_keeps_the_base(self, pure, doc):
        """Over an empty index the product is empty; the base comes from the
        leg's target, not from the product's factors."""
        F = self._predicate(pure, doc, index_size=0)
        obj = weihrauch_to_completion(pure, F, doc)
        assert weihrauch_from_completion(pure, obj) == F

    @pytest.mark.parametrize("doc", DOCS)
    def test_empty_index_witness_transports(self, pure, doc):
        """A reduction out of a predicate over an empty index holds
        vacuously; its mediator lands in the product of the base and the
        right-hand index, so the completion order accepts it."""
        row = next(row for row in EQUIVALENCES.values() if row.completion == doc)
        F, G = self._predicate(pure, doc, index_size=0), self._predicate(pure, doc)
        empty = product(pure, F.base, F.index).object
        k = FinMap(empty, G.index, {}, SND) if doc in ("dW", "dsW") else ExtMorphism(empty, G.index, SND, {})
        w = self._witness(doc, k)
        assert check_le(pure, row.concrete, F, G, w).holds
        lo, ro = weihrauch_to_completion(pure, F, doc), weihrauch_to_completion(pure, G, doc)
        cw = weihrauch_transport_backward(pure, lo, ro, w)
        assert comp_le(pure, lo, ro, cw).holds
        assert check_le(pure, row.concrete, F, G, weihrauch_transport_forward(pure, lo, ro, cw)).holds

    @pytest.mark.parametrize("doc", DOCS)
    def test_second_projection_leg_is_refused(self, pure, doc):
        """The transposition reads the leg as the first projection; a pure
        object over the second projection is refused, not misread."""
        F = self._predicate(pure, doc)
        prod = product(pure, F.base, F.index)
        values = {key: frozenset([K]) for key in keys(prod.object)}
        obj = CompletionObject(EXISTS, PURE, doc, prod.snd, MassFamily(prod.object, values))
        with pytest.raises(CheckError, match="first projection"):
            weihrauch_from_completion(pure, obj)


class TestWeihrauchMaps:
    def test_trivial_one_by_one(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K])
        F = Predicate(X, Y, {(K, K): frozenset([S])})
        obj = weihrauch_to_completion(pure, F, "dW")
        assert obj.payload.values[pair_term(K, K)] == frozenset([S])

    def test_classical_agreement_at_terminal(self, pure):
        one = terminal_carrier(pure)
        Y = carrier(pure, [K, S])
        f = MassFamily(Y, {K: frozenset([K]), S: frozenset([S])}, NONEMPTY)
        F = classical_to_generalized(pure, f, one)
        w = ForwardBackward(identity_map(Y), SND)
        assert check_le(pure, "classicalW", f, f, w).holds
        gw = classical_witness_to_generalized(pure, w, one)
        assert check_le(pure, "W", F, F, gw).holds
        back = generalized_witness_to_classical(pure, gw, one)
        assert check_le(pure, "classicalW", f, f, back).holds


class TestRealizerMaps:
    def test_extended_policy_with_empty_sets(self, pure):
        X = assembly(pure, ["u"], [(K, "u")])
        Y = assembly(pure, ["a"], [(K, "a")])
        F = Predicate(X, Y, {((K, "u"), (K, "a")): frozenset()}, ALLOW_EMPTY)
        obj = weihrauch_to_completion(pure, F, "dextW")
        assert weihrauch_from_completion(pure, obj) == F

    def test_modest_restriction_agrees(self, pure):
        X = carrier_to_assembly(pure, carrier(pure, [K]))
        Y = carrier_to_assembly(pure, carrier(pure, [K, S]))
        keys = [((p, x), (q, y)) for p, x in X.naming for q, y in Y.naming]
        F = Predicate(X, Y, {k: frozenset([K]) for k in keys})
        Fc = modest_predicate_to_carrier(pure, F)
        prod = ext_product(pure, X, Y)
        w = ForwardBackward(prod.snd, SND)
        assert check_le(pure, "rW", F, F, w).holds
        wc = ext_fb_to_fb(pure, w)
        assert check_le(pure, "W", Fc, Fc, wc).holds
        back = fb_to_ext_fb(pure, wc, X, Y, Y)
        assert check_le(pure, "rW", F, F, back).holds


class TestExtendedPredicates:
    def test_assembly_construction(self, pure):
        dom = carrier(pure, [K])
        f = ExtendedPredicate(dom, {K: frozenset([frozenset([S])])})
        asm, fam = ext_pred_to_assembly(pure, f)
        assert asm.points == (frozenset([S]),)
        assert fam.values[(K, frozenset([S]))] == frozenset([S])

    def test_top_representative(self, pure):
        dom = carrier(pure, [K])
        g = ExtendedPredicate(dom, {K: frozenset([frozenset()])})
        asm, fam = ext_pred_to_assembly(pure, g)
        assert asm.points == (frozenset(),)
        assert fam.values[(K, frozenset())] == frozenset()
        assert not g.is_notnot_dense

    def test_dense_flag(self, pure):
        dom = carrier(pure, [K])
        f = ExtendedPredicate(dom, {K: frozenset([frozenset([K])])})
        assert f.is_notnot_dense
        _, fam = ext_pred_to_assembly(pure, f)
        assert fam.policy == NONEMPTY


class TestExtswAgainstPointwise:
    def test_same_data_witnesses_both(self, pure):
        dom = carrier(pure, [K, S])
        f = ExtendedPredicate(dom, {K: frozenset([frozenset([K])]), S: frozenset()})
        g = ExtendedPredicate(dom, {K: frozenset([frozenset([K, S])]), S: frozenset()})
        k = ID
        choice = {(K, frozenset([K])): frozenset([K, S])}
        h = ID
        ws = ExtStrong(k, choice, h)
        a = check_le(pure, "extsW", f, g, ws)
        F = extended_to_dialectica(f)
        G = extended_to_dialectica(g)
        Gk = dialectica_shift(pure, G, k, F.base)
        b = check_le(pure, "D", F, Gk, DialecticaWitness(choice, h))
        assert a.status == b.status == "refuted"  # h=ID sends S outside {K}

        h2 = App(K, K)
        a2 = check_le(pure, "extsW", f, g, ExtStrong(k, choice, h2))
        b2 = check_le(pure, "D", F, Gk, DialecticaWitness(choice, h2))
        assert a2.holds and b2.holds


class TestDialecticaMaps:
    def test_identity_leg_relation(self, pure):
        X = carrier(pure, [K])
        alpha = MassFamily(X, {K: frozenset([K, S])})
        obj = CompletionObject(EXISTS, FULL, "M", identity_map(X), alpha)
        F = dialectica_from_completion(pure, obj)
        assert F.relation == ((K, frozenset([K, S])),)

    def test_section_roundtrip(self, pure):
        X = carrier(pure, [K])
        F = DialecticaPredicate(X, {(K, frozenset([K])): frozenset([K]),
                                    (K, frozenset([S])): frozenset([S])})
        obj = dialectica_to_completion(pure, F)
        assert dialectica_from_completion(pure, obj) == F

    def test_surjectivity_pair_mutally_reduces(self, pure):
        X = carrier(pure, [K])
        F = DialecticaPredicate(X, {(K, frozenset([K])): frozenset([K])})
        obj = dialectica_to_completion(pure, F)
        back = dialectica_from_completion(pure, obj)
        w = DialecticaWitness({(K, frozenset([K])): frozenset([K])}, ID)
        assert check_le(pure, "D", F, back, w).holds
        assert check_le(pure, "D", back, F, w).holds

    def test_transports(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K, S])
        f = FinMap(Y, X, {K: K, S: K})
        alpha = MassFamily(Y, {K: frozenset([K]), S: frozenset([S])})
        obj = CompletionObject(EXISTS, FULL, "M", f, alpha)
        w = CompletionWitness(identity_map(Y), Uniform(ID))
        assert comp_le(pure, obj, obj, w).holds
        F = dialectica_from_completion(pure, obj)
        fwd = dialectica_transport_forward(pure, obj, obj, w)
        assert check_le(pure, "D", F, F, fwd).holds
        back = dialectica_transport_backward(pure, obj, obj, fwd)
        assert comp_le(pure, obj, obj, back).holds


class TestTwoStep:
    def test_collapse_and_transport(self, pure):
        X = carrier(pure, [K])
        Y = carrier(pure, [K, S])
        inner_leg = FinMap(Y, X, {K: K, S: K})
        alpha = TrackedFamily(Y, {K: K, S: S})
        obj = TwoStepObject(identity_map(X), CompletionObject(FORALL, FULL, "T", inner_leg, alpha))
        D = two_step_to_dialectica(pure, obj)
        assert D.relation == ((K, frozenset([K, S])),)
        from degreelab.completions import comp_reindex

        reind = comp_reindex(pure, identity_map(X), obj.payload)
        med = FinMap(reind.leg.source, Y, {pt: pt[1] for pt in reind.leg.source})
        w = TwoStepWitness(identity_map(X), CompletionWitness(med, Uniform(ID)))
        assert two_step_le(pure, obj, obj, w).holds
        dwit = two_step_transport_forward(pure, obj, obj, w)
        assert check_le(pure, "D", D, D, dwit).holds
