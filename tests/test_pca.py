import importlib.util
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from degreelab import doctrines
from degreelab import pca as pca_module
from degreelab.cli import main
from degreelab.laws import machine_format, run_suites
from degreelab.pca import (
    DEFINED,
    EMPTY_PCA,
    FST,
    ID,
    PAIR,
    SND,
    TIMEOUT,
    AbstractionError,
    Pca,
    PcaError,
    abstract_all,
    apply,
    apply_many,
    bracket_abstract,
    derive_pairing,
    element_equal,
    enumerate_computable,
    head_normal,
    is_computable,
    iter_computable,
    is_normal,
    normalize,
)
from degreelab.instance import parse_term
from degreelab.spaces import FinMap, SpaceError, carrier
from degreelab.terms import (
    CACHED_SIZE,
    App,
    K,
    Oracle,
    S,
    Var,
    ap,
    enumerate_over,
    free_vars,
    is_closed,
    pair_term,
    subst,
    to_text,
)

OMEGA = App(ap(S, ID, ID), ap(S, ID, ID))
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


class TestApply:
    def test_k_law_on_atoms(self, pure):
        # kab ~ a
        a, b = App(K, S), S
        out = apply_many(pure, K, a, b)
        assert out.is_defined and out.term == a

    def test_s_law_on_atoms(self, pure):
        # sabc ~ ac(bc)
        out = apply_many(pure, S, K, K, S)
        assert out.is_defined and out.term == S

    def test_partial_k_is_normal(self, pure):
        out = apply(pure, K, S)
        assert out.is_defined and out.term == App(K, S)

    def test_partial_s_is_normal(self, pure):
        out = apply_many(pure, S, K, S)
        assert out.is_defined and out.term == ap(S, K, S)

    def test_oracle_miss_is_undefined(self, pca, o1):
        out = apply(pca, o1, K)
        assert out.status == "undefined"

    def test_oracle_hit(self):
        machine = Pca(oracles={"o1": {K: S}})
        out = apply(machine, Oracle("o1"), K)
        assert out.is_defined and out.term == S

    def test_oracle_miss_inside_argument_propagates(self, pca, o1):
        out = normalize(pca, App(K, App(o1, K)))
        assert out.status == "undefined"

    def test_open_term_rejected(self, pure):
        with pytest.raises(PcaError):
            normalize(pure, Var("x"))


class TestNormalize:
    def test_skk_applied(self, pure):
        # hand reduction: SKK.S -> KS(KS) -> S
        out = normalize(pure, App(ap(S, K, K), S))
        assert out.is_defined and out.term == S

    def test_atom_is_normal(self, pure):
        out = normalize(pure, K)
        assert out.is_defined and out.term == K

    def test_omega_times_out(self, pure):
        assert normalize(pure, OMEGA, 5000).status == "timeout"

    def test_more_fuel_never_flips_a_definite_outcome(self, pure):
        t = App(ap(S, K, K), S)
        small = normalize(pure, t, 3)
        big = normalize(pure, t, 10_000)
        assert small == big

    def test_fuel_exact_determinism(self):
        # the same (structure, term, fuel) triple always yields the same
        # outcome, with or without a warm cache
        cold = Pca()
        warm = Pca()
        normalize(warm, OMEGA, 5000)
        for fuel in (1, 10, 100, 5000):
            assert normalize(cold, OMEGA, fuel) == normalize(warm, OMEGA, fuel)

    def test_normal_forms_are_fixed_points(self, pure):
        for t in enumerate_computable(2):
            out = normalize(pure, t)
            if out.is_defined:
                again = normalize(pure, out.term)
                assert again.is_defined and again.term == out.term

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=300))
    def test_outcome_is_pure_function_of_fuel(self, fuel):
        fresh = Pca()
        primed = Pca()
        normalize(primed, OMEGA, 17)
        assert normalize(fresh, OMEGA, fuel) == normalize(primed, OMEGA, fuel)


class TestMemoBound:
    def test_each_evaluation_starts_within_the_bound(self, monkeypatch):
        arg = ap(S, ID, ID)
        expected = [apply(Pca(), t, arg, 50) for t in enumerate_computable(4)]
        eval_ = pca_module._eval
        sizes = []

        def watched(p, t, budget):
            sizes.append(len(p._memo))
            return eval_(p, t, budget)

        monkeypatch.setattr(pca_module, "MEMO_LIMIT", 100)
        monkeypatch.setattr(pca_module, "_eval", watched)
        shared = Pca()
        assert [apply(shared, t, arg, 50) for t in enumerate_computable(4)] == expected
        assert max(sizes) <= 100 and len(sizes) == len(expected)
        assert shared._old_memo  # the bound was reached and a generation dropped

    def test_eviction_changes_no_law_outcome(self, monkeypatch):
        # memo entries carry exact step counts: evicting after every
        # evaluation must give the same reports as the default bound
        names = ["pca-laws", "bracket-abstraction", "muchnik-heyting", "adjoint-suites"]
        default = machine_format(run_suites(names))
        monkeypatch.setattr(pca_module, "MEMO_LIMIT", 1)
        assert machine_format(run_suites(names)) == default


ORACLE_HITS_K = {"o1": {K: S}}  # #o1 is defined on K only
POOL = enumerate_over((K, S, Oracle("o1")), 3)
FUELS = (1, 5, 200, None)


def _facts(out):
    return out.status, out.term, out.detail, repr(out)


class TestMemoOutcomes:
    """A memo entry is the finished outcome: replaying it must give what a
    fresh structure computes, detail and repr included."""

    def test_undefined_keeps_its_detail_on_a_memo_hit(self):
        machine = Pca(oracles=ORACLE_HITS_K)
        stuck = App(Oracle("o1"), S)
        outcomes = [normalize(machine, stuck), normalize(machine, stuck), normalize(machine, App(K, stuck))]
        assert [repr(out) for out in outcomes] == ["Undefined(#o1 applied to S)"] * 3

    def test_realizer_error_does_not_depend_on_memo_state(self):
        machine = Pca(oracles=ORACLE_HITS_K)
        o1 = Oracle("o1")
        apply_to_s = abstract_all(("x",), App(Var("x"), S))  # x -> (x S)
        m = FinMap(carrier(machine, [o1]), carrier(machine, [K]), {o1: K}, apply_to_s)
        messages = []
        for _ in range(2):
            with pytest.raises(SpaceError) as caught:
                m.check_realizer(machine)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] and messages[0].endswith("got Undefined(#o1 applied to S)")

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, len(POOL) - 1), st.integers(0, len(POOL) - 1),
                                 st.permutations(FUELS)), min_size=1, max_size=12),
        limit=st.sampled_from([1, 100]),
    )
    def test_shared_structure_matches_a_fresh_one(self, pairs, limit):
        # each application at every fuel, in a random order, on one
        # structure whose memo is bounded at 1 or at 100 entries
        with mock.patch.object(pca_module, "MEMO_LIMIT", limit):
            shared = Pca(oracles=ORACLE_HITS_K)
            for i, j, fuels in pairs + pairs[::-1]:
                t = App(POOL[i], POOL[j])
                for fuel in fuels:
                    fresh = normalize(Pca(oracles=ORACLE_HITS_K), t, fuel)
                    assert _facts(normalize(shared, t, fuel)) == _facts(fresh)

    def test_steps_are_exact_and_left_out_of_equality(self, pure):
        out = normalize(Pca(), App(ID, S))  # S K K S -> K S (K S) -> S
        assert out.steps == 2 and normalize(pure, App(ID, S), 2).steps == 2
        assert normalize(pure, App(ID, S), 1) == pca_module.EvalOutcome("timeout")
        assert out == pca_module.EvalOutcome("defined", S) and not out != pca_module.EvalOutcome("defined", S)


class TestExistingTerms:
    """The machine runs on an explicit stack of suspended tasks, and a task
    that made no contraction, or whose K contractum is the whole remaining
    term, ends with that existing term."""

    def test_deep_arguments_need_no_interpreter_stack(self):
        deep = S
        for _ in range(10_000):
            deep = App(K, deep)  # normal: K takes two arguments
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)  # CPython's default
        try:
            for term, steps in ((deep, 0), (ap(K, deep, S), 1)):
                out = normalize(Pca(), term)
                # by identity: App.__eq__ recurses
                assert out.status == DEFINED and out.steps == steps and out.term is deep
        finally:
            sys.setrecursionlimit(limit)

    def test_a_normal_term_is_its_own_memo_entry(self):
        for t in enumerate_computable(5):
            if is_normal(EMPTY_PCA, t):
                machine = Pca()
                out = normalize(machine, t)
                assert out.term is t and out.steps == 0
                assert all(entry.term is key for key, entry in machine._memo.items())


class TestElementEqual:
    def test_reflexive(self, pure):
        assert element_equal(pure, K, K) is True

    def test_reduces_before_comparing(self, pure):
        assert element_equal(pure, App(ID, K), K) is True

    def test_distinct_atoms(self, pure):
        assert element_equal(pure, K, S) is False

    def test_timeout_is_unknown(self, pure):
        assert element_equal(pure, OMEGA, K, 50) is None

    def test_undefined_equals_undefined_only(self, pca, o1):
        stuck = App(o1, K)
        assert element_equal(pca, stuck, stuck) is True
        assert element_equal(pca, App(o1, S), stuck) is True  # both undefined
        assert element_equal(pca, stuck, K) is False


class TestComputableFragment:
    def test_sk_terms_are_computable(self):
        assert is_computable(App(S, K))
        assert is_computable(FST) and is_computable(SND) and is_computable(PAIR)

    def test_oracle_atoms_are_not(self, o1):
        assert not is_computable(o1)
        assert not is_computable(App(K, o1))

    def test_closed_under_application(self, pure):
        # if a, b computable and a.b defined then the value is computable
        for a in enumerate_computable(2):
            for b in enumerate_computable(1):
                out = apply(pure, a, b, 500)
                if out.is_defined:
                    assert is_computable(out.term)


class TestBracketAbstraction:
    def test_variable_rule(self):
        assert bracket_abstract("x", Var("x")) == ID

    def test_constant_rule(self):
        assert bracket_abstract("x", K) == App(K, K)

    def test_application_rule_by_evaluation(self, pure):
        t = bracket_abstract("x", App(Var("x"), Var("x")))
        out = apply(pure, t, K)
        assert out.is_defined and out.term == App(K, K)

    def test_foreign_free_variables_rejected(self):
        with pytest.raises(AbstractionError):
            bracket_abstract("x", Var("y"))

    # The one abstraction pass collects the variables it meets; the error
    # names the foreign ones, sorted, as the up-front walk did.
    @pytest.mark.parametrize("abstract, message", [
        (lambda body: bracket_abstract("x", body), "body has free variables besides x: ['w', 'y']"),
        (lambda body: abstract_all(("x", "y"), body), "result not closed: free ['w']"),
        (lambda body: abstract_all((), body), "result not closed: free ['w', 'x', 'y']"),
    ])
    def test_foreign_variables_are_named(self, abstract, message):
        with pytest.raises(AbstractionError) as err:
            abstract(ap(Var("y"), Var("x"), App(Var("w"), Var("x"))))
        assert str(err.value) == message

    def test_soundness_sample(self, pure):
        # (abstract x body) . b  ==  body[x := b], with substitution as oracle
        bodies = enumerate_over((Var("x"), K, S), 2)
        args = enumerate_computable(1)
        for body in bodies:
            t = bracket_abstract("x", body)
            for b in args:
                applied = normalize(pure, App(t, b), 2000)
                wanted = normalize(pure, subst(body, "x", b), 2000)
                if wanted.status != "timeout" and applied.status != "timeout":
                    assert applied == wanted

    @staticmethod
    def _reference(names, body):
        """Iterated abstraction as first defined: a free-variable walk at
        every node, then a closedness walk over the result."""

        def abstract(name, body):
            if isinstance(body, Var) and body.name == name:
                return ID
            if name not in free_vars(body):
                return App(K, body)
            return ap(S, abstract(name, body.fn), abstract(name, body.arg))

        t = body
        for n in reversed(names):
            t = abstract(n, t)
        if not is_closed(t):
            raise AbstractionError(f"result not closed: free {sorted(free_vars(t))}")
        return t

    def test_matches_the_reference_on_the_suite_bodies(self):
        x, y = Var("x"), Var("y")
        bodies = enumerate_over((x, K, S), 3)  # the bracket-abstraction suite's
        assert len(bodies) == 471
        for body in bodies:
            want = self._reference(("x",), body)
            assert bracket_abstract("x", body) == want
            assert abstract_all(("x",), body) == want
        for body in enumerate_over((x, y, K, S), 2):
            assert abstract_all(("x", "y"), body) == self._reference(("x", "y"), body)
            assert abstract_all(("y", "x"), body) == self._reference(("y", "x"), body)
        u = Var("u")  # the shape of the composite realizers synthesized elsewhere
        body = ap(PAIR, App(ID, App(FST, u)), App(SND, u))
        assert abstract_all(("u",), body) == self._reference(("u",), body)

    def test_open_body_error_matches_the_reference(self):
        body = ap(Var("x"), Var("z"), App(Var("y"), Var("z")))
        with pytest.raises(AbstractionError) as want:
            self._reference(("x",), body)
        with pytest.raises(AbstractionError) as got:
            abstract_all(("x",), body)
        assert str(got.value) == str(want.value) == "result not closed: free ['y', 'z']"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_soundness_random(self, pure, seed):
        import random

        rng = random.Random(seed)
        atoms = [Var("x"), K, S]

        def build(depth):
            if depth == 0 or rng.random() < 0.4:
                return rng.choice(atoms)
            return App(build(depth - 1), build(depth - 1))

        body = build(3)
        b = rng.choice([K, S, App(K, S)])
        t = bracket_abstract("x", body)
        applied = normalize(pure, App(t, b), 2000)
        wanted = normalize(pure, subst(body, "x", b), 2000)
        if applied.status != "timeout" and wanted.status != "timeout":
            assert applied == wanted


class TestPairing:
    def test_fst_of_pair(self, pure):
        made = normalize(pure, ap(PAIR, K, S)).term
        assert normalize(pure, App(FST, made)).term == K

    def test_snd_of_pair(self, pure):
        made = normalize(pure, ap(PAIR, K, S)).term
        assert normalize(pure, App(SND, made)).term == S

    def test_pair_always_defined_on_normal_arguments(self, pca, o1):
        pool = [t for t in enumerate_over((K, S, o1), 2) if is_normal(pca, t)]
        for a in pool[:12]:
            for b in pool[:12]:
                out = normalize(pca, ap(PAIR, a, b))
                assert out.is_defined
                assert out.term == pair_term(a, b)

    def test_derive_pairing_is_reproducible(self):
        assert derive_pairing() == (PAIR, FST, SND)

    def test_projection_terms_are_computable(self):
        assert is_computable(abstract_all(("p",), App(Var("p"), K)))


class TestAgainstReference:
    """The fuel contract pinned by a second implementation: the benchmark's
    reference reducer (``bench/reference.py``, naive leftmost-outermost
    reduction on tuples) shares no code with ``pca``.  Every S/K term of size
    at most 4 applied to two of ``K``, ``S``, ``(K K)`` and ``(S K)`` at fuel
    300 reaches the same normal form in exactly the same number of steps on
    both sides, or runs out of fuel on both."""

    FUEL = 300
    MAX_SIZE = 5_000  # the reference's own cap on the size of a term it reduces
    ARGS = ("K", "S", "(K K)", "(S K)")
    # The reference stops at MAX_SIZE while pca runs on until its MAX_WORK_SIZE
    # valve makes the evaluation a timeout, before the fuel runs out.
    SIZE_CAPPED = {"(((((S (S S)) S) S) S) S)": 83, "(((((S S) S) (S S)) S) S)": 82}

    @staticmethod
    def _reference():
        spec = importlib.util.spec_from_file_location("bench_reference", ROOT / "bench" / "reference.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_normal_forms_and_exact_steps_agree(self):
        ref, pca = self._reference(), Pca()
        args = [parse_term(a) for a in self.ARGS]
        agreed, out_of_fuel, capped = 0, 0, {}
        for t in enumerate_computable(4):
            for a, b in itertools.product(args, repeat=2):
                term = ap(t, a, b)
                text = to_text(term)
                nf, steps = ref.normalize(ref.parse(text), self.FUEL, max_size=self.MAX_SIZE)
                out = normalize(pca, term, self.FUEL)
                if nf is not None:
                    assert (out.status, to_text(out.term), out.steps) == (DEFINED, ref.show(nf), steps), text
                    agreed += 1
                elif steps == self.FUEL:
                    assert (out.status, out.steps) == (TIMEOUT, self.FUEL), text
                    out_of_fuel += 1
                else:
                    assert out.status == TIMEOUT and steps < out.steps < self.FUEL, text
                    capped[text] = steps
        assert (agreed, out_of_fuel) == (8_796, 2)
        assert capped == self.SIZE_CAPPED


class TestHeadNormal:
    """``head_normal`` pinned by the reference reducer alone: t* is t after
    k of the reference's own steps, and for every S/K term t of size at most
    5 with k >= 1, applied to two of the reference test's arguments at fuel
    f >= k, ``(t a b)`` at f and ``(t* a b)`` at f - k reach the same normal
    form, or run out on both sides, in the same number of steps counting
    those k."""

    FUELS = (1, 2, 3, 300)

    def test_contracting_the_head_first_keeps_outcomes_and_exact_steps(self):
        ref = TestAgainstReference._reference()
        args = [ref.parse(a) for a in TestAgainstReference.ARGS]
        contracted, cases, k_is_fuel = 0, Counter(), Counter()
        for t in enumerate_computable(5):
            star, k = head_normal(t)
            if not k:
                assert star is t
                continue
            contracted += 1
            whole = start = ref.parse(to_text(t))
            for _ in range(k):
                start = ref.step(start)
            assert ref.show(start) == to_text(star), to_text(t)
            for fuel in self.FUELS:
                if k > fuel:
                    continue
                for a, b in itertools.product(args, repeat=2):
                    nf, steps = ref.normalize(ref.app(whole, a, b), fuel, max_size=TestAgainstReference.MAX_SIZE)
                    nf_star, steps_star = ref.normalize(ref.app(start, a, b), fuel - k,
                                                        max_size=TestAgainstReference.MAX_SIZE)
                    assert (nf, steps) == (nf_star, steps_star + k), (to_text(t), fuel)
                    cases[fuel] += 1
                    k_is_fuel[fuel] += k == fuel
        assert contracted == 1_588
        assert all(k_is_fuel[f] for f in (1, 2, 3)), k_is_fuel
        assert cases[300] == 16 * contracted

    def test_it_gives_up_past_its_bounds(self):
        # an atom, K S and S K K have no head redex
        for t in (K, App(K, S), ID):
            assert head_normal(t) == (t, 0)
        assert head_normal(ap(K, S, K)) == (S, 1)
        # I I ... I with n copies takes 2 (n - 1) contractions to I
        assert head_normal(ap(ID, *[ID] * 8)) == (ID, 16)
        chain = ap(ID, *[ID] * 9)
        assert head_normal(chain) == (chain, 0)
        # its nine contractions grow this size-6 term to size 24
        grows = parse_term("(((((S (S S)) S) S) S) S)")
        assert head_normal(grows) == (grows, 0)
        # (S I I) (S I I) contracts to itself forever
        self_apply = ap(S, ID, ID)
        omega = App(self_apply, self_apply)
        assert head_normal(omega) == (omega, 0)


# Uniform witnesses read from a file: terms equal to kept ones, with and
# without a head redex, and one past the kept levels.
PARSED_UNIFORM = """carrier X = [K, S]
family phi over X policy nonempty { K -> [K], S -> [S] }
witness id = uniform ((S K) K)
witness kis = uniform ((K ((S K) K)) S)
witness big = uniform (((K ((S K) K)) S) ((S K) K))
claim plain : phi <=_M phi by id
claim contracted : phi <=_M phi by kis
claim large : phi <=_M phi by big
"""


class TestHeadTable:
    """``pca._HEADS``, the head normal forms of the kept enumeration levels:
    filled by walks alone, with the levels' own objects, once per process,
    and read by `head_normal` with the outcome of a direct contraction."""

    def test_the_table_answers_as_a_direct_contraction(self, monkeypatch):
        walked = list(iter_computable(6))
        assert len(walked) == 20_134 and len(pca_module._HEADS) == 3_238
        backed = [head_normal(t) for t in walked]
        monkeypatch.setattr(pca_module, "_HEADS", {})
        direct = [head_normal(t) for t in walked]
        assert pca_module._HEADS == {}  # head_normal stores nothing itself
        assert backed == direct
        for t, (star, k) in zip(walked, backed):
            if not k:
                assert star is t
        assert sum(k > 0 for _, k in backed[:3_238]) == 1_588

    def test_checks_leave_the_table_unchanged(self, capsys, monkeypatch, tmp_path):
        parsed = tmp_path / "parsed.inst"
        parsed.write_text(PARSED_UNIFORM)
        for _ in iter_computable(CACHED_SIZE):
            pass
        before = list(pca_module._HEADS.items())
        for path in [*sorted(FIXTURES.glob("*.inst")), parsed]:
            for fmt in ("human", "machine"):
                main(["--format", fmt, "check", str(path)])
        after = list(pca_module._HEADS.items())
        assert len(after) == len(before) == 3_238
        assert all(t is u and v is w for (t, v), (u, w) in zip(before, after))
        # nor does a parsed witness enter an empty table
        capsys.readouterr()
        monkeypatch.setattr(pca_module, "_HEADS", {})
        assert main(["--format", "machine", "check", str(parsed)]) == 0
        assert capsys.readouterr().out == "result plain holds\nresult contracted holds\nresult large holds\n"
        assert pca_module._HEADS == {}

    def test_a_size_seven_walk_keeps_the_kept_levels_own_terms_only(self, monkeypatch):
        monkeypatch.setattr(pca_module, "_HEADS", {})
        walked = 0
        for t in iter_computable(7):
            head_normal(t)
            walked += 1
        assert walked == 129_958
        heads = pca_module._HEADS
        assert len(heads) == 3_238
        kept = {id(t) for t in enumerate_over((K, S), CACHED_SIZE)}
        assert all(id(t) in kept for t in heads)

    def test_a_second_search_contracts_no_kept_term(self, capsys, monkeypatch):
        monkeypatch.setattr(pca_module, "_HEADS", {})
        contracted = []
        original = pca_module.head_normal

        def counting(t):  # the calls the table does not answer
            if t.size <= CACHED_SIZE and t not in pca_module._HEADS:
                contracted.append(t)
            return original(t)

        monkeypatch.setattr(pca_module, "head_normal", counting)  # action_key contracts through it
        argv = ["--witness-size", "5", "--format", "machine", "search", str(FIXTURES / "refuted.inst"), "impossible"]
        assert main(argv) == 1
        assert len(contracted) == len(set(map(id, contracted))) == 3_238
        assert main(argv) == 1
        assert len(contracted) == 3_238
        assert capsys.readouterr().out.count("// no witness up to size 5; 3238 candidates failed") == 2


class TestActionKey:
    """``pca.act`` on ``pca.action_key`` pinned by the reference reducer
    alone.  For every S/K term t of at most 5 applications (keys from the
    kept table) and a fixed-seed sample of the size-6 level (keys contracted
    anew), on normal arguments, the oracle atom ``#o1`` and a non-normal
    argument, at fuels p, p + 1, p + 2 and 200 (p the steps before t's key
    acts), the key's outcome p steps later is the reference's ``(t a)``:
    its normal form in exactly as many steps, a timeout when the reference
    runs out, or undefined where the reference applies ``#o1``."""

    ARGS = ("K", "S", "(K K)", "(S K)", "((S K) K)", "#o1", "((K K) S)")
    FUEL = 200

    @staticmethod
    def _expected(ref, t, a, fuel):
        """(status, normal form text) of the reference's (t a) at fuel, and
        its steps; the status is None where only a timeout or an undefined
        outcome is certain (the reference is stuck on no oracle)."""
        nf, steps = ref.normalize(ref.app(ref.parse(to_text(t)), ref.parse(a)), fuel,
                                  max_size=TestAgainstReference.MAX_SIZE)
        if nf is None:
            return (TIMEOUT if steps == fuel and "#o1" not in a else None), None, steps
        text = ref.show(nf)
        return ("undefined" if "(#o1 " in text else DEFINED), text, steps

    def _check(self, terms, monkeypatch):
        ref = TestAgainstReference._reference()
        calls = []
        normalize_ = pca_module.normalize
        monkeypatch.setattr(pca_module, "normalize", lambda *args: calls.append(args) or normalize_(*args))
        shared, shapes, closed, seen = Pca(), Counter(), 0, Counter()
        for t in terms:
            key, p = pca_module.action_key(t, 10**6)
            shapes[key[0].name if key.__class__ is tuple else "atom" if key.size == 0 else "other"] += 1
            for a in self.ARGS:
                want_status, want_text, want_steps = self._expected(ref, t, a, self.FUEL)
                arg = parse_term(a)
                for fuel in (p, p + 1, p + 2, self.FUEL):
                    if fuel < 1:
                        continue
                    key_f, p_f = pca_module.action_key(t, fuel)
                    assert (key_f, p_f) == ((key, p) if p < fuel else (t, 0))
                    before = len(calls)
                    out = pca_module.act(shared, key_f, arg, fuel - p_f)
                    closed += len(calls) == before
                    if key_f.__class__ is tuple and key_f[0] is K:
                        assert len(calls) == before  # no evaluation
                    status = want_status
                    if want_status in (DEFINED, "undefined") and want_steps > fuel:
                        status = TIMEOUT if want_status == DEFINED else None
                    seen[status] += 1
                    if status is None:
                        assert out.status in (TIMEOUT, "undefined"), (to_text(t), a, fuel)
                    elif status == DEFINED:
                        assert (out.status, to_text(out.term), out.steps + p_f) == (DEFINED, want_text, want_steps), \
                            (to_text(t), a, fuel)
                    else:
                        assert out.status == status, (to_text(t), a, fuel)
        return shapes, closed, seen

    def test_every_kept_term_and_a_size_six_sample(self, monkeypatch):
        kept = list(iter_computable(CACHED_SIZE))
        assert len(pca_module._HEADS) == len(kept) == 3_238
        shapes, closed, seen = self._check(kept, monkeypatch)
        assert shapes == {"K": 902, "S": 906, "atom": 466, "other": 964}
        # 43,635 of the 85,400 cases are answered in closed form, with no evaluation
        assert closed == 43_635 and seen == {DEFINED: 71_232, TIMEOUT: 13_547, "undefined": 209, None: 412}
        level6 = [t for t in iter_computable(6) if t.size == 6]
        shapes, _, seen = self._check(random.Random(6).sample(level6, 400), monkeypatch)
        assert shapes == {"atom": 56, "other": 344}  # keys contracted anew are t*
        assert seen == {DEFINED: 6_895, TIMEOUT: 2_944, "undefined": 30, None: 57}
        assert len(pca_module._HEADS) == 3_238

    def test_a_result_past_the_size_valve_times_out(self, monkeypatch):
        # a normal argument of 27 applications: (f a) is normal, but past
        # MAX_WORK_SIZE = 30 the machine's valve makes it a timeout, and so
        # does the closed form; (K, v) keys drop the argument unread
        kept = list(iter_computable(CACHED_SIZE))
        ref = TestAgainstReference._reference()
        deep = S
        for _ in range(27):
            deep = App(K, deep)
        monkeypatch.setattr(pca_module, "MAX_WORK_SIZE", 30)
        shared, seen = Pca(), Counter()
        normalize(shared, deep)  # now known normal
        for t in kept:
            key, p = pca_module.action_key(t, 10**6)
            if key.__class__ is not tuple and key.size:
                continue
            want_status, want_text, want_steps = self._expected(ref, t, to_text(deep), self.FUEL)
            out = pca_module.act(shared, key, deep, self.FUEL - p)
            if want_status == DEFINED and len(want_text.split("(")) - 1 > 30:
                assert out.status == TIMEOUT, to_text(t)
                seen["valve"] += 1
            else:
                assert (out.status, to_text(out.term), out.steps + p) == (want_status, want_text, want_steps)
                seen["defined"] += 1
        assert seen["valve"] and seen["defined"]

    def test_a_timed_out_key_cell_is_not_run_again(self, monkeypatch, capsys):
        # terms sharing a key with different p share its cell at the whole
        # fuel, so a search starts no evaluation on a term whose memo entry
        # is already a timeout (a cell run at fuel - p was run again)
        reruns, real = [], pca_module._eval

        def evaluate(pca, t, fuel):
            hit = pca._memo.get(t) or pca._old_memo.get(t)
            if hit is not None and hit.status == TIMEOUT:
                reruns.append((to_text(t), hit.steps, fuel))
            return real(pca, t, fuel)

        monkeypatch.setattr(pca_module, "_eval", evaluate)
        argv = ["--witness-size", "7", "--format", "machine", "search", str(FIXTURES / "holds.inst"), "elementary_self"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("witness elementary_self_found = uniform ((S ((S K) K)) (K K))\n")
        assert reruns == []

    def test_one_cell_serves_a_key_charged_p_p1_and_p2(self, monkeypatch):
        # K t K and K (K t K) K act as t's key, 1 and 2 steps later.  At the
        # fuel p + 4, which leaves the key 2, 3 and 4 steps after them, their
        # T claims, checked in that order on one structure, evaluate the key's
        # cell once, at the whole fuel, and each verdict is the reference's
        ref = TestAgainstReference._reference()
        kept = list(iter_computable(CACHED_SIZE))
        evaluations, real = [], pca_module._eval
        monkeypatch.setattr(pca_module, "_eval", lambda pca, t, fuel: evaluations.append(t) or real(pca, t, fuel))
        shared, seen = Pca(oracles={"o1": {}}), Counter()
        X = carrier(shared, [K])
        verdict = {DEFINED: "holds", TIMEOUT: "unknown", "undefined": "refuted"}
        for t in kept:
            key, p = pca_module.action_key(t, 10**6)
            if key.__class__ is tuple or not key.size:  # closed forms: no cell to share
                continue
            terms, fuel = [ap(K, ap(K, t, K), K), ap(K, t, K), t], p + 4
            if [pca_module.action_key(u, fuel) for u in terms] != [(key, p + 2), (key, p + 1), (key, p)]:
                seen["not shared"] += 1
                continue
            for a in self.ARGS:
                arg, before = parse_term(a), len(evaluations)
                for u in terms:
                    status, text, _ = self._expected(ref, u, a, fuel)
                    lhs = doctrines.TrackedFamily(X, {K: parse_term(text) if status == DEFINED else K})
                    rhs = doctrines.TrackedFamily(X, {K: arg})
                    v = doctrines.check_le(shared, "T", lhs, rhs, doctrines.Uniform(u), fuel)
                    assert v.status in ((verdict[status],) if status else ("unknown", "refuted")), (to_text(u), a)
                    seen[status] += 1
                assert len(evaluations) - before <= 1, (to_text(t), a)
                seen["evaluated"] += len(evaluations) - before
        assert seen == {DEFINED: 13_752, TIMEOUT: 5_557, "undefined": 245, None: 690, "evaluated": 4_260}

    def test_nothing_is_built_at_import(self):
        code = "import degreelab.pca as p; print(len(p._HEADS))"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "0\n"
