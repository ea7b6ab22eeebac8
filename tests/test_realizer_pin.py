"""The exact terms of the composite and paired realizers.

Composition, pairing, reindexing and the comparison transports build their
realizers by bracket abstraction.  The other tests check that those
realizers track their graphs and that the witnesses hold; these pin which
terms they are, so a change in how a realizer is built shows here even when
the new term still works.  Each case is built from inputs the other tests
use, with distinct factors where an argument swap would otherwise go
unseen.  Witness tables are pinned as ``key -> value`` entries in their order.

``realizer_pin.txt`` holds one ``name<TAB>text`` line per case, in the order
``_realizers`` builds them.  It was recorded from hand-written abstractions
of each body, so it also checks that `pca.compose`, `fanout` and
`compose_first` give the same terms.
"""

from pathlib import Path

import pytest

from degreelab.doctrines import (
    DialecticaWitness,
    ExtForwardBackward,
    ExtStrong,
    ForwardBackward,
    MassFamily,
    PerPoint,
    Predicate,
    Uniform,
    compose_witnesses,
    implication_adjunction_witness,
    lattice_law_witness,
    reindex_witness,
)
from degreelab.isomorphisms import (
    classical_witness_to_generalized,
    generalized_witness_to_classical,
    weihrauch_to_completion,
    weihrauch_transport_backward,
    weihrauch_transport_forward,
)
from degreelab.pca import FST, ID, PAIR, SND, Pca
from degreelab.spaces import (
    ExtMorphism,
    FinMap,
    assembly,
    carrier,
    carrier_product,
    compose_maps,
    constant_map,
    ext_compose,
    ext_product,
    identity_map,
    pairing_map,
    point_text,
    terminal_carrier,
)
from degreelab.terms import App, K, S, to_text


def _table(mapping) -> str:
    return "; ".join(f"{point_text(k)} -> {point_text(v)}" for k, v in mapping.items())


def _fb(prefix, w) -> dict:
    return {f"{prefix} forward": w.forward.realizer, f"{prefix} backward": w.backward}


def _spaces(pure) -> dict:
    X, Y, Z = carrier(pure, [K, S]), carrier(pure, [K]), carrier(pure, [K, S])
    prod = carrier_product(pure, X, Y)
    med = pairing_map(pure, constant_map(Z, X, S), constant_map(Z, Y, K), prod)
    a = assembly(pure, ["x", "y"], [(K, "x"), (S, "y")])
    z = assembly(pure, ["z"], [(K, "z")])
    to_x = ExtMorphism(a, a, App(K, K), {(K, "x"): "x", (S, "y"): "x"})
    to_y = ExtMorphism(a, a, App(K, S), {(K, "x"): "y", (S, "y"): "y"})
    f = ExtMorphism(z, a, App(K, K), {(K, "z"): "x"})
    g = ExtMorphism(z, a, App(K, S), {(K, "z"): "y"})
    return {
        "pairing_map": med.realizer,
        "compose_maps": compose_maps(prod.fst, med).realizer,
        "ext_compose": ext_compose(pure, to_y, to_x).realizer,
        "ext_pairing_morphism": pairing_map(pure, f, g, ext_product(pure, a, a)).realizer,
    }


def _compositions(pure) -> dict:
    out = {}
    for doc in ("T", "M", "dsW", "dW", "drW", "dextW", "Tw", "Mw"):
        out[f"compose {doc}"] = compose_witnesses(pure, doc, Uniform(FST), Uniform(App(K, K))).term
    table = PerPoint({(K, K): ID})
    out["compose Mw tables"] = _table(
        compose_witnesses(pure, "Mw", PerPoint({(K, K): App(K, K)}), table).mapping)
    out["compose Mw uniform-table"] = _table(
        compose_witnesses(pure, "Mw", Uniform(FST), table).mapping)
    X, Y = carrier(pure, [K]), carrier(pure, [K, S])
    snd = carrier_product(pure, X, Y).snd
    for doc in ("W", "SW"):
        w = compose_witnesses(pure, doc, ForwardBackward(snd, App(K, K)), ForwardBackward(snd, SND))
        out.update(_fb(f"compose {doc}", w))
    A = assembly(pure, ["u", "v"], [(K, "u"), (S, "v")])
    B = assembly(pure, ["a", "b"], [(K, "a"), (S, "b")])
    esnd = ext_product(pure, A, B).snd
    for doc in ("rW", "tW"):
        w = compose_witnesses(pure, doc, ExtForwardBackward(esnd, SND),
                              ExtForwardBackward(esnd, App(K, K)))
        out.update(_fb(f"compose {doc}", w))
    C = carrier(pure, [K, S])
    for doc in ("classicalW", "classicalSW"):
        w = compose_witnesses(pure, doc, ForwardBackward(constant_map(C, C, K), SND),
                              ForwardBackward(identity_map(C), App(K, K)))
        out.update(_fb(f"compose {doc}", w))
    choice = {(K, frozenset([K])): frozenset([K])}
    w = compose_witnesses(pure, "D", DialecticaWitness(choice, ID), DialecticaWitness(choice, App(K, K)))
    out["compose D backward"] = w.backward
    w = compose_witnesses(pure, "extsW", ExtStrong(ID, choice, ID), ExtStrong(App(K, K), choice, K))
    out["compose extsW forward"] = w.forward
    out["compose extsW backward"] = w.backward
    return out


def _reindexings(pure) -> dict:
    out = {}
    X, W, Y = carrier(pure, [K, S]), carrier(pure, [K]), carrier(pure, [K])
    inc = FinMap(W, X, {K: K}, ID)
    w = ForwardBackward(carrier_product(pure, X, Y).snd, App(K, K))
    for doc in ("W", "SW"):
        out.update(_fb(f"reindex {doc}", reindex_witness(pure, doc, inc, w)))
    A = assembly(pure, ["u", "v"], [(K, "u"), (S, "v")])
    B = assembly(pure, ["a", "b"], [(K, "a"), (S, "b")])
    V = assembly(pure, ["w"], [(S, "w")])
    ext_inc = ExtMorphism(V, A, App(K, K), {(S, "w"): "u"})
    w = ExtForwardBackward(ext_product(pure, A, B).snd, SND)
    for doc in ("rW", "tW"):
        out.update(_fb(f"reindex {doc}", reindex_witness(pure, doc, ext_inc, w)))
    w = ForwardBackward(constant_map(X, X, S), SND)
    for doc in ("classicalW", "classicalSW"):
        out.update(_fb(f"reindex {doc}", reindex_witness(pure, doc, inc, w)))
    onto = FinMap(X, Y, {K: K, S: K})
    out["reindex Mw"] = _table(reindex_witness(pure, "Mw", onto, PerPoint({(K, K): ID})).mapping)
    choice = {(K, frozenset([K])): frozenset([K])}
    out["reindex D"] = _table(reindex_witness(pure, "D", onto, DialecticaWitness(choice, ID)).choice)
    return out


def _transports(pure) -> dict:
    out = {}
    X, Y = carrier(pure, [K]), carrier(pure, [K, S])
    F = Predicate(X, Y, {(K, K): frozenset([K]), (K, S): frozenset([S])})
    obj = weihrauch_to_completion(pure, F, "dW")
    cw = weihrauch_transport_backward(pure, obj, obj, ForwardBackward(carrier_product(pure, X, Y).snd, SND))
    out["weihrauch backward"] = cw.mediator.realizer
    out["weihrauch forward"] = weihrauch_transport_forward(pure, obj, obj, cw).forward.realizer
    A = assembly(pure, ["u"], [(K, "u")])
    B = assembly(pure, ["a", "b"], [(K, "a"), (S, "b")])
    keys = [((p, x), (q, y)) for p, x in A.naming for q, y in B.naming]
    G = Predicate(A, B, {k: frozenset([K]) for k in keys})
    obj = weihrauch_to_completion(pure, G, "drW")
    cw = weihrauch_transport_backward(pure, obj, obj, ExtForwardBackward(ext_product(pure, A, B).snd, SND))
    out["realizer backward"] = cw.mediator.realizer
    out["realizer forward"] = weihrauch_transport_forward(pure, obj, obj, cw).forward.realizer
    one = terminal_carrier(pure)
    gw = classical_witness_to_generalized(pure, ForwardBackward(identity_map(Y), SND), one)
    out.update(_fb("classical to generalized", gw))
    out.update(_fb("generalized to classical", generalized_witness_to_classical(pure, gw, one)))
    return out


def _lattice(pure) -> dict:
    join = lattice_law_witness(pure, "join_intro", w_left=Uniform(App(K, K)), w_right=Uniform(App(K, S)))
    X = carrier(pure, [K])
    empty = MassFamily(X, {K: frozenset()})
    psi = MassFamily(X, {K: frozenset([K])})
    # K lands in the right summand: (PAIR S) K is the tagged pair <S, K>
    tagged = PerPoint({(K, K): App(PAIR, S)})
    imp = implication_adjunction_witness(pure, "meet_to_imp", empty, psi, psi, tagged, 2)
    # at K some term sends K into phi (the left tag); at S none can
    Y = carrier(pure, [K, S])
    phi = MassFamily(Y, {K: frozenset([K]), S: frozenset()})
    both = MassFamily(Y, {K: frozenset([K]), S: frozenset([K])})
    meet = implication_adjunction_witness(pure, "imp_to_meet", phi, both, both,
                                          PerPoint({(S, K): App(K, S)}), 2)
    return {"join_intro": join.term, "meet_to_imp": _table(imp.mapping), "imp_to_meet": _table(meet.mapping)}


def _realizers() -> dict:
    pure = Pca()
    out = {}
    for part in (_spaces, _compositions, _reindexings, _transports, _lattice):
        out.update(part(pure))
    return {name: t if isinstance(t, str) else to_text(t) for name, t in out.items()}


PINNED = dict(
    line.split("\t")
    for line in (Path(__file__).resolve().parent / "realizer_pin.txt").read_text().splitlines()
)


@pytest.fixture(scope="module")
def realizers():
    return _realizers()


def test_every_case_is_pinned(realizers):
    assert list(realizers) == list(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_realizer_text(realizers, name):
    assert realizers[name] == PINNED[name]
