import pytest

from degreelab.doctrines import (
    DialecticaPredicate,
    ExtendedPredicate,
    MassFamily,
    NONEMPTY,
    PerPoint,
    Predicate,
    Uniform,
    check_le,
)
from degreelab.pca import ID, enumerate_computable
from degreelab.search import (
    SearchBudget,
    forward_map_candidates,
    search_completion_witness,
    search_witness,
)
from degreelab.completions import CompletionObject, FORALL, FULL
from degreelab.doctrines import TrackedFamily
from degreelab.spaces import FinMap, carrier, identity_map
from degreelab.terms import App, K, Oracle, S, term_key, to_text

O1 = Oracle("o1")


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
