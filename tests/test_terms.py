import itertools
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from degreelab import search as search_module
from degreelab import terms as terms_module
from degreelab.cli import main
from degreelab.instance import InstanceError, parse_term
from degreelab.terms import (
    App,
    K,
    Oracle,
    S,
    Var,
    ap,
    enumerate_over,
    enumerate_sk,
    iter_over,
    free_vars,
    has_oracle,
    is_closed,
    pair_term,
    split_pair,
    subst,
    subterms,
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
        for text in ("K", "S", "#o1", "#1", "#\u00e9", "#'", "(K S)", "((S K) (K #o1))"):
            assert to_text(parse_term(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(terms_strategy())
    def test_parse_print_roundtrip(self, t):
        assert parse_term(to_text(t)) == t

    def test_juxtaposition_rejected(self):
        with pytest.raises(InstanceError):
            parse_term("K S")
        with pytest.raises(InstanceError):
            parse_term("(K S K)")

    def test_unknown_atom_rejected(self):
        with pytest.raises(InstanceError):
            parse_term("x")

    def test_whitespace_insignificant(self):
        assert parse_term("( K   S )") == App(K, S)

    def test_oracle_name_required(self):
        with pytest.raises(InstanceError):
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

    def test_has_oracle_agrees_with_a_walk(self):
        # the answer is the low bit of the cached hash, not a fifth App slot
        assert len(App.__slots__) == 4
        for t in enumerate_over((Var("x"), K, S, Oracle("o1")), 3):
            assert has_oracle(t) == any(isinstance(s, Oracle) for s in subterms(t))

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


def catalan_count(n):
    """Terms with n applications over two atoms: Catalan(n) * 2^(n+1)."""
    return comb(2 * n, n) // (n + 1) * 2 ** (n + 1)


class TestStructuralOrder:
    """Levels come out in term_key order without a sort, and only levels of
    at most CACHED_SIZE applications are kept."""

    def kept_sizes(self, atoms):
        key = tuple(sorted(atoms, key=term_key))
        return len(terms_module._LEVELS[key]) - 1, len(terms_module._PREFIXES[key]) - 1

    def test_agrees_with_term_key_to_size_6(self):
        expected = TestLevelCache.brute((K, S), 6)
        assert len(expected) == sum(catalan_count(n) for n in range(7)) == 20_134
        assert enumerate_over((K, S), 6) == expected
        assert list(iter_over((S, K), 6)) == expected
        assert terms_module.CACHED_SIZE == 5
        assert self.kept_sizes((K, S)) == (5, 5)

    def test_prefix_names_followed_by_a_later_character_agree(self):
        atoms = (Oracle("o1"), K, Oracle("o"))
        expected = TestLevelCache.brute(atoms, 3)
        assert enumerate_over(atoms, 3) == list(iter_over(atoms, 3)) == expected

    def test_prefix_names_followed_by_a_quote_are_rejected(self):
        # "(K #o')" sorts before "(K #o)", as ' sorts before ), though #o sorts before #o'
        atoms = (Oracle("o"), Oracle("o1"), Oracle("o'"))
        assert sorted([App(K, Oracle("o")), App(K, Oracle("o'"))], key=term_key)[0] == App(K, Oracle("o'"))
        with pytest.raises(ValueError):
            enumerate_over(atoms, 1)
        with pytest.raises(ValueError):
            next(iter_over(atoms, 1))

    def test_a_walk_to_size_8_keeps_no_level_above_5(self):
        shown = sum(catalan_count(n) for n in range(8))  # 129,958 terms up to size 7
        sizes = Counter(t.size for t in itertools.islice(iter_over((K, S), 8), shown + 1_000))
        assert sizes == {**{n: catalan_count(n) for n in range(8)}, 8: 1_000}
        assert self.kept_sizes((K, S)) == (5, 5)
        assert [len(level) for level in terms_module._LEVELS[(K, S)]] == [catalan_count(n) for n in range(6)]

    def test_larger_levels_share_the_kept_terms(self):
        level6 = enumerate_over((K, S), 6)[-catalan_count(6):]
        kept = {id(t) for level in terms_module._LEVELS[(K, S)] for t in level}
        assert all(id(t.fn) in kept and id(t.arg) in kept for t in level6)

    def test_a_capped_size_7_search_builds_no_level_above_5(self, monkeypatch, capsys):
        """The time cap is read between candidates; with no level build inside
        the walk, a search stopped in level 6 has kept levels 0-5 only."""
        class Ticks:  # each reading of the clock is one second later
            now = 0

            @classmethod
            def monotonic(cls):
                cls.now += 1
                return cls.now

        monkeypatch.setattr(search_module, "time", Ticks)
        monkeypatch.setattr(terms_module, "_LEVELS", {})
        monkeypatch.setattr(terms_module, "_PREFIXES", {})
        fixture = Path(__file__).resolve().parent.parent / "fixtures" / "refuted.inst"
        cap = sum(catalan_count(n) for n in range(6)) + 500  # stops 500 candidates into level 6
        code = main(["--witness-size", "7", "--time-cap", str(cap), "--format", "machine",
                     "search", str(fixture), "impossible"])
        assert code == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"// stopped by the time cap of {float(cap)}s after {cap} candidates checked")
        assert self.kept_sizes((K, S)) == (5, 5)
