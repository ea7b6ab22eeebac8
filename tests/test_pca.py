import importlib.util
import itertools
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from degreelab import pca as pca_module
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
    is_computable,
    is_normal,
    normalize,
)
from degreelab.instance import parse_term
from degreelab.spaces import FinMap, SpaceError, carrier
from degreelab.terms import (
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
