from pathlib import Path
from unittest import mock

import pytest

from degreelab import search as search_module
from degreelab.doctrines import (
    AssemblyFamily,
    DialecticaPredicate,
    ExtendedPredicate,
    MassFamily,
    NONEMPTY,
    PerPoint,
    Predicate,
    Uniform,
    check_le,
)
from degreelab.instance import parse_instance
from degreelab.pca import ID, Pca, enumerate_computable
from degreelab.search import (
    SearchBudget,
    forward_map_candidates,
    search_completion_witness,
    search_witness,
)
from degreelab.completions import CompletionObject, FORALL, FULL
from degreelab.doctrines import TrackedFamily
from degreelab.spaces import ExtMorphism, FinMap, assembly, carrier, identity_map
from degreelab.terms import App, K, Oracle, S, term_key, to_text

O1 = Oracle("o1")
FIXTURES = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.inst"))


class TestUniformSearch:
    def test_identity_instance_finds_least(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        out = search_witness(pure, "M", phi, phi, SearchBudget(3))
        assert out.found
        # the least holding candidate in enumeration order: K K maps K to K
        assert to_text(out.witness.term) == "(K K)"
        assert check_le(pure, "M", phi, phi, out.witness).holds

    def test_oracle_target_exhausts(self, pca, o1):
        X = carrier(pca, [K])
        phi = MassFamily(X, {K: frozenset([o1])})
        psi = MassFamily(X, {K: frozenset([K])})
        out = search_witness(pca, "M", phi, psi, SearchBudget(3))
        assert out.status == "exhausted"
        assert out.bound == 3
        assert out.failures > 0

    def test_exhausted_bound_is_not_a_refutation(self, pca, o1):
        X = carrier(pca, [K])
        phi = MassFamily(X, {K: frozenset([o1])})
        psi = MassFamily(X, {K: frozenset([K])})
        out = search_witness(pca, "M", phi, psi, SearchBudget(3))
        assert out.status == "exhausted" and out.witness is None

    def test_monotone_in_budget(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([App(K, K)])})
        psi = MassFamily(X, {K: frozenset([S])})
        small = search_witness(pure, "M", phi, psi, SearchBudget(0))
        big = search_witness(pure, "M", phi, psi, SearchBudget(2))
        assert not small.found and big.found

    def test_deterministic(self, pure):
        X = carrier(pure, [K, S])
        f = MassFamily(X, {K: frozenset([K]), S: frozenset([S])}, NONEMPTY)
        a = search_witness(pure, "dW", f, f, SearchBudget(7))
        b = search_witness(pure, "dW", f, f, SearchBudget(7))
        assert a == b and a.found

    def test_dw_snd_shape_found(self, pure):
        X = carrier(pure, [K, S])
        f = MassFamily(X, {K: frozenset([K]), S: frozenset([S])}, NONEMPTY)
        out = search_witness(pure, "dW", f, f, SearchBudget(7))
        assert out.found
        assert check_le(pure, "dW", f, f, out.witness).holds


class TestPerPointSearch:
    def test_builds_table(self, pure):
        X = carrier(pure, [K, S])
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        out = search_witness(pure, "Mw", phi, phi, SearchBudget(2))
        assert out.found and isinstance(out.witness, PerPoint)
        assert check_le(pure, "Mw", phi, phi, out.witness).holds


class TestForwardMapCandidates:
    def test_distinct_graphs_once(self, pure):
        X = carrier(pure, [K, S])
        cands = list(forward_map_candidates(pure, X, X, SearchBudget(2)))
        graphs = [tuple(sorted(m.mapping.items(), key=lambda kv: term_key(kv[0]))) for m in cands]
        assert len(graphs) == len(set(graphs))
        # identity and the two constants are realizable within size 2
        assert any(m.mapping == {K: K, S: S} for m in cands)
        assert any(m.mapping == {K: K, S: K} for m in cands)
        assert any(m.mapping == {K: S, S: S} for m in cands)

    def test_classical_search(self, pure):
        X = carrier(pure, [K, S])
        f = MassFamily(X, {K: frozenset([K]), S: frozenset([S])}, NONEMPTY)
        out = search_witness(pure, "classicalW", f, f, SearchBudget(5))
        assert out.found
        assert check_le(pure, "classicalW", f, f, out.witness).holds


class TestDialecticaSearch:
    def test_choice_enumeration(self, pure):
        X = carrier(pure, [K])
        F = DialecticaPredicate(X, {(K, frozenset([K])): frozenset([K])})
        out = search_witness(pure, "D", F, F, SearchBudget(2))
        assert out.found
        assert check_le(pure, "D", F, F, out.witness).holds


class TestCompletionSearch:
    def test_reflexive_object(self, pure):
        X = carrier(pure, [K])
        obj = CompletionObject(FORALL, FULL, "T", identity_map(X), TrackedFamily(X, {K: K}))
        out = search_completion_witness(pure, obj, obj, SearchBudget(2))
        assert out.found

    def test_time_cap_covers_building_the_candidates(self, pure, monkeypatch):
        """The clock starts before the base witnesses are enumerated: an
        enumeration that takes 10 s of a 1 s cap stops the search before
        its first candidate is checked."""
        now = [0.0]
        monkeypatch.setattr(search_module.time, "monotonic", lambda: now[0])
        enumerate_base = search_module.enumerate_computable

        def slow_enumeration(size):
            now[0] += 10.0
            return enumerate_base(size)

        monkeypatch.setattr(search_module, "enumerate_computable", slow_enumeration)
        X = carrier(pure, [K])
        obj = CompletionObject(FORALL, FULL, "T", identity_map(X), TrackedFamily(X, {K: K}))
        out = search_completion_witness(pure, obj, obj, SearchBudget(2, None, 1.0))
        assert out.status == "unknown" and out.clock_stopped
        assert out.checked == 0


class TestSoundness:
    def test_found_witnesses_reverify(self, pure):
        X = carrier(pure, [K, S])
        fams = [
            MassFamily(X, {K: frozenset([K]), S: frozenset([K])}),
            MassFamily(X, {K: frozenset([S]), S: frozenset([S])}),
            MassFamily(X, {K: frozenset([K, S]), S: frozenset([K])}),
        ]
        for lhs in fams:
            for rhs in fams:
                out = search_witness(pure, "M", lhs, rhs, SearchBudget(3))
                if out.found:
                    assert check_le(pure, "M", lhs, rhs, out.witness).holds


def _counted(pca, doc, lhs, rhs, budget):
    """A search's outcome and the check_le calls it made."""
    with mock.patch.object(search_module, "check_le", wraps=check_le) as spy:
        out = search_witness(pca, doc, lhs, rhs, budget)
    return out, spy.call_count


def _mass_claim(pca):
    """An M claim whose least witness, ((S K) K), comes after refuted candidates."""
    X = carrier(pca, [K, S])
    return (MassFamily(X, {K: frozenset([K]), S: frozenset([S])}),
            MassFamily(X, {K: frozenset([K]), S: frozenset([S])}))


def _hand_claims(pca):
    """(doc, lhs, rhs) for the families no fixture searches, built anew on
    every call, so two calls give equal but distinct objects."""
    X = carrier(pca, [K, S])
    A = assembly(pca, ["x", "y"], [(K, "x"), (S, "y")])
    tracked = TrackedFamily(X, {K: K, S: S})
    over_a = AssemblyFamily(A, {(K, "x"): frozenset([K]), (S, "y"): frozenset([S])})
    pred = Predicate(A, A, {(a, b): frozenset([K]) for a in A.naming for b in A.naming})
    dial = DialecticaPredicate(X, {(K, frozenset([K])): frozenset([K])})
    # a completion object over an extended morphism: every candidate is a
    # shape error for M, and the claim is still a memo key
    comp = CompletionObject(FORALL, FULL, "dextW", ExtMorphism(A, A, ID, {(K, "x"): "x", (S, "y"): "y"}), over_a)
    return [("T", tracked, tracked), ("Tw", tracked, tracked), ("dextW", over_a, over_a),
            ("rW", pred, pred), ("D", dial, dial), ("M", comp, comp)]


class TestSearchMemo:
    def test_repeated_claim_checks_no_candidate(self):
        pca = Pca()
        first, calls = _counted(pca, "M", *_mass_claim(pca), SearchBudget(3))
        assert first.found and calls == first.checked + 1 > 1
        again, calls = _counted(pca, "M", *_mass_claim(pca), SearchBudget(3))  # equal, not identical
        assert again == first and calls == 0
        assert len(pca._searches) == 1

    def test_witness_size_and_fuel_are_part_of_the_claim(self):
        pca = Pca()
        lhs, rhs = _mass_claim(pca)
        for budget in (SearchBudget(3), SearchBudget(2), SearchBudget(3, fuel=50)):
            assert _counted(pca, "M", lhs, rhs, budget)[1] > 0
        assert len(pca._searches) == 3

    def test_clock_stopped_search_is_not_stored(self):
        pca = Pca()
        lhs, rhs = _mass_claim(pca)
        with mock.patch.object(search_module._Clock, "expired", return_value=True):
            capped = search_witness(pca, "M", lhs, rhs, SearchBudget(3, time_cap=0.0))
        assert capped.clock_stopped and capped.status == "unknown"
        assert pca._searches == {}
        out, calls = _counted(pca, "M", lhs, rhs, SearchBudget(3))
        assert out.found and calls > 0

    def test_a_search_that_raises_stores_nothing(self):
        pca = Pca()
        lhs, rhs = _mass_claim(pca)
        with mock.patch.object(search_module, "check_le", side_effect=RuntimeError("boom")):
            with pytest.raises(RuntimeError):
                search_witness(pca, "M", lhs, rhs, SearchBudget(3))
        assert pca._searches == {}
        assert search_witness(pca, "M", lhs, rhs, SearchBudget(3)).found

    def test_structures_share_nothing(self):
        """The same claim over other oracle tables is searched afresh, and
        each structure's outcome is the one a fresh structure gives."""
        X = carrier(Pca(), [K, S])
        psi = MassFamily(X, {K: frozenset([Oracle("a")]), S: frozenset([Oracle("b")])})
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        tables = [{"a": {K: K}, "b": {K: S}}, {"a": {K: S}, "b": {K: K}}]  # b -> b K, then none
        budget = SearchBudget(5)
        first, second = Pca(oracles=tables[0]), Pca(oracles=tables[1])
        out1, _ = _counted(first, "M", phi, psi, budget)
        out2, calls = _counted(second, "M", phi, psi, budget)
        assert calls > 0 and out1 != out2
        assert out1 == search_witness(Pca(oracles=tables[0]), "M", phi, psi, budget)
        assert out2 == search_witness(Pca(oracles=tables[1]), "M", phi, psi, budget)

    @pytest.mark.parametrize("fixture", FIXTURES, ids=lambda f: f.stem)
    def test_fixture_claims_search_twice_alike(self, fixture):
        """Every doctrine id the fixtures use: the second search of a claim,
        over families parsed again, is answered from the memo."""
        first = parse_instance(fixture.read_text())
        second = parse_instance(fixture.read_text())
        for claim in first.claims:
            if claim.doc == "comp":
                continue
            budget = SearchBudget(2, first.fuel)
            a, _ = _counted(first.pca, claim.doc, first.element(claim.lhs), first.element(claim.rhs), budget)
            lhs, rhs = second.element(claim.lhs), second.element(claim.rhs)
            assert lhs is not first.element(claim.lhs)
            b, calls = _counted(first.pca, claim.doc, lhs, rhs, budget)
            assert (b, calls) == (a, 0), claim.name

    def test_other_families_search_twice_alike(self):
        pca = Pca()
        for (doc, lhs, rhs), (_, lhs2, rhs2) in zip(_hand_claims(pca), _hand_claims(pca)):
            assert hash(lhs) == hash(lhs2) and lhs == lhs2, doc
            a, _ = _counted(pca, doc, lhs, rhs, SearchBudget(2))
            b, calls = _counted(pca, doc, lhs2, rhs2, SearchBudget(2))
            assert (b, calls) == (a, 0), doc

    def test_mass_family_hash_ignores_order_and_notes(self):
        pca = Pca()
        X = carrier(pca, [K, S])
        one = MassFamily(X, {K: frozenset([K, S]), S: frozenset([S])}, notes=("first",))
        two = MassFamily(X, {S: [S], K: [S, K]}, notes=("second", "more"))
        assert one == two and hash(one) == hash(two)
        a, _ = _counted(pca, "M", one, one, SearchBudget(2))
        b, calls = _counted(pca, "M", two, two, SearchBudget(2))
        assert (b, calls) == (a, 0) and len(pca._searches) == 1
