import itertools

import pytest
from hypothesis import given, settings, strategies as st

from degreelab import terms as terms_module
from degreelab.terms import (
    App,
    K,
    Oracle,
    S,
    TermSyntaxError,
    Var,
    ap,
    enumerate_over,
    enumerate_sk,
    iter_over,
    free_vars,
    is_closed,
    pair_term,
    parse_term,
    split_pair,
    subst,
    term_key,
    to_text,
)


def terms_strategy(max_leaves=8):
    atom = st.sampled_from([K, S, Oracle("o1"), Oracle("o2")])
    return st.recursive(atom, lambda sub: st.builds(App, sub, sub), max_leaves=max_leaves)


class TestSyntax:
    def test_atoms_print(self):
        assert to_text(K) == "K"
        assert to_text(S) == "S"
        assert to_text(Oracle("o1")) == "#o1"

    def test_application_prints_left_associated(self):
        assert to_text(ap(S, K, K)) == "((S K) K)"

    def test_parse_print_examples(self):
        for text in ("K", "S", "#o1", "(K S)", "((S K) (K #o1))"):
            assert to_text(parse_term(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(terms_strategy())
    def test_parse_print_roundtrip(self, t):
        assert parse_term(to_text(t)) == t

    def test_juxtaposition_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_term("K S")
        with pytest.raises(TermSyntaxError):
            parse_term("(K S K)")

    def test_unknown_atom_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_term("x")

    def test_whitespace_insignificant(self):
        assert parse_term("( K   S )") == App(K, S)

    def test_oracle_name_required(self):
        with pytest.raises(TermSyntaxError):
            parse_term("#")


class TestStructure:
    def test_size_counts_applications(self):
        assert K.size == 0
        assert App(K, S).size == 1
        assert ap(S, K, K).size == 2

    def test_free_vars_and_closedness(self):
        t = App(Var("x"), K)
        assert free_vars(t) == {"x"}
        assert not is_closed(t)
        assert is_closed(subst(t, "x", S))

    def test_subst_untouched_shares(self):
        t = App(K, S)
        assert subst(t, "x", K) is t

    def test_term_key_orders_by_size_then_text(self):
        ts = [ap(S, K), K, App(K, K), S]
        assert [to_text(t) for t in sorted(ts, key=term_key)] == ["K", "S", "(K K)", "(S K)"]


class TestPairShape:
    def test_split_pair_inverts_pair_term(self):
        t = pair_term(App(K, S), S)
        assert split_pair(t) == (App(K, S), S)

    def test_split_pair_rejects_other_shapes(self):
        assert split_pair(K) is None
        assert split_pair(App(K, S)) is None

    @settings(max_examples=100, deadline=None)
    @given(terms_strategy(4), terms_strategy(4))
    def test_split_pair_roundtrip(self, a, b):
        assert split_pair(pair_term(a, b)) == (a, b)


class TestEnumeration:
    def test_size_zero(self):
        assert [to_text(t) for t in enumerate_sk(0)] == ["K", "S"]

    def test_size_one(self):
        assert [to_text(t) for t in enumerate_sk(1)] == [
            "K", "S", "(K K)", "(K S)", "(S K)", "(S S)"]

    def test_size_two_count_against_brute_force(self):
        # independent oracle: generate all application trees recursively
        def trees(n):
            if n == 0:
                return {K, S}
            out = set()
            for i in range(n):
                for f in trees(i):
                    for a in trees(n - 1 - i):
                        out.add(App(f, a))
            return out

        brute = set().union(*(trees(n) for n in range(3)))
        enumerated = enumerate_sk(2)
        assert len(enumerated) == len(brute) == 22
        assert set(enumerated) == brute

    def test_deterministic_and_sorted(self):
        once = enumerate_sk(3)
        again = enumerate_sk(3)
        assert once == again
        assert once == sorted(once, key=term_key)

    def test_enumerate_over_other_atoms(self):
        xs = enumerate_over((Var("x"), K), 1)
        assert len(xs) == 2 + 4


class TestLevelCache:
    ATOM_SETS = {"KS": (K, S), "KS-oracle": (K, S, Oracle("o1")), "var-KS": (Var("x"), K, S)}

    @staticmethod
    def brute(atoms, bound):
        """Every application tree up to the bound, in size-then-text order."""
        levels = [set(atoms)]
        for n in range(1, bound + 1):
            levels.append({App(f, a) for i in range(n) for f in levels[i] for a in levels[n - 1 - i]})
        return sorted(set().union(*levels), key=term_key)

    @pytest.mark.parametrize("bound", range(5))
    @pytest.mark.parametrize("name", ATOM_SETS)
    def test_generator_and_list_agree_in_every_atom_order(self, name, bound):
        atoms = self.ATOM_SETS[name]
        expected = self.brute(atoms, bound)
        for order in itertools.permutations(atoms):
            assert enumerate_over(order, bound) == expected
            assert list(iter_over(order, bound)) == expected

    def test_returned_list_is_a_fresh_copy(self):
        first = enumerate_over((K, S), 2)
        first.reverse()
        first.append(K)
        second = enumerate_over((K, S), 2)
        assert len(second) == 22 and second[0] == K and second[-1] != K
        assert second is not enumerate_over((K, S), 2)

    def test_generator_builds_levels_only_when_reached(self):
        atoms = (Oracle("lazy_level_probe"), K)
        key = tuple(sorted(atoms, key=term_key))
        walk = iter_over(atoms, 6)
        assert key not in terms_module._LEVELS
        next(walk)
        assert len(terms_module._LEVELS[key]) == 1
        assert len(list(itertools.islice(walk, 5))) == 5
        assert len(terms_module._LEVELS[key]) == 2

