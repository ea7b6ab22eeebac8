import random
from pathlib import Path
from unittest import mock

import pytest

from degreelab import search as search_module
from degreelab import terms as terms_module
from degreelab.doctrines import (
    CheckError,
    DialecticaPredicate,
    ExtendedPredicate,
    MassFamily,
    NONEMPTY,
    Bounded,
    PerPoint,
    Predicate,
    Uniform,
    check_le,
    compile_claim,
    positions,
    reindex,
)
from degreelab.instance import parse_instance
from degreelab.laws import _first_holding
from degreelab.pca import Pca, apply, enumerate_computable, normalize
from degreelab.search import (
    EXHAUSTED,
    UNKNOWN,
    SearchBudget,
    SearchOutcome,
    first_holding,
    forward_map_candidates,
    search_completion_witness,
    search_witness,
)
from degreelab.completions import CompletionObject, FORALL, FULL
from degreelab.doctrines import TrackedFamily
from degreelab.spaces import FinMap, assembly, carrier, identity_map
from degreelab.terms import App, K, Oracle, S, term_key, to_text
from degreelab.verdicts import Verdict

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

    @pytest.mark.parametrize("fuel", [2, 3, None])
    def test_each_graph_comes_with_its_least_realizer_as_apply_reads_it(self, pure, fuel):
        # images are read from the realizer's action key at the whole fuel,
        # and a key that acts p steps late is defined only if those p fit
        # too; the target holds the 18 normal terms of at most 2 applications
        reader, want = Pca(), {}
        X = carrier(pure, [K, S])
        Y = carrier(pure, [t for t in enumerate_computable(2) if normalize(reader, t).term == t])
        for t in enumerate_computable(4):
            outs = [apply(reader, t, x, fuel) for x in X.points]
            if all(o.is_defined and o.term in Y.points for o in outs):
                want.setdefault(tuple(o.term for o in outs), t)
        got = {tuple(m.mapping[x] for x in X.points): m.realizer
               for m in forward_map_candidates(pure, X, Y, SearchBudget(4, fuel))}
        assert list(got.items()) == list(want.items())

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
        enumerate_base = search_module.iter_computable

        def slow_enumeration(size):
            now[0] += 10.0
            return enumerate_base(size)

        monkeypatch.setattr(search_module, "iter_computable", slow_enumeration)
        X = carrier(pure, [K])
        obj = CompletionObject(FORALL, FULL, "T", identity_map(X), TrackedFamily(X, {K: K}))
        out = search_completion_witness(pure, obj, obj, SearchBudget(2, None, 1.0))
        assert out.status == "unknown" and out.clock_stopped
        assert out.checked == 0

    def test_base_witnesses_are_walked_not_listed(self, pure, monkeypatch):
        """A size-8 search whose witness comes early finds it without first
        listing every term up to size 8 (862,118 of them): the base
        witnesses are walked afresh for each mediator, and only the kept
        levels are ever asked for as a list."""
        enumerate_base = terms_module.enumerate_over

        def kept_levels_only(atoms, size_bound):
            assert size_bound <= terms_module.CACHED_SIZE, f"listed every term up to size {size_bound}"
            return enumerate_base(atoms, size_bound)

        monkeypatch.setattr(terms_module, "enumerate_over", kept_levels_only)
        X, Y = carrier(pure, [K]), carrier(pure, [K, S])
        lhs = CompletionObject(FORALL, FULL, "T", FinMap(Y, X, {K: K, S: K}), TrackedFamily(Y, {K: K, S: S}))
        rhs = CompletionObject(FORALL, FULL, "T", identity_map(X), TrackedFamily(X, {K: K}))
        out = search_completion_witness(pure, lhs, rhs, SearchBudget(8, None, 10.0))
        assert out.found and out.checked == 2

    def test_per_point_base_is_the_payload_claims_table(self, pure):
        """A Tw completion search walks the payload claim of each mediator
        by the Tw walk: the base of the witness it finds is the per-point
        table search_witness finds on that claim."""
        X, Y = carrier(pure, [K]), carrier(pure, [K, S])
        leg = FinMap(Y, X, {K: K, S: K})
        lhs = CompletionObject(FORALL, FULL, "Tw", leg, TrackedFamily(Y, {K: K, S: K}))
        rhs = CompletionObject(FORALL, FULL, "Tw", leg, TrackedFamily(Y, {K: S, S: S}))
        budget = SearchBudget(2)
        out = search_completion_witness(pure, lhs, rhs, budget)
        assert out.found
        payload = reindex(pure, "Tw", out.witness.mediator, lhs.payload)  # a universal mediator pulls lhs back
        table = search_witness(pure, "Tw", payload, rhs.payload, budget).witness
        assert isinstance(table, PerPoint) and out.witness.base == table


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

    def test_malformed_candidates_exhaust_nothing(self):
        # no candidate was well formed, so no bound was searched
        def malformed(cand):
            raise CheckError(f"{to_text(cand.term)} is malformed")

        out = search_module.first_holding([Uniform(K), Uniform(S)], malformed, SearchBudget(1))
        assert out.status != "exhausted"
        assert (out.status, out.failures, out.timeouts, out.malformed, out.checked) == ("unknown", 0, 0, 2, 2)

    def test_malformed_candidates_are_counted_apart_from_refuted_ones(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([S])})

        def check(cand):  # K is malformed, S is refuted
            if cand.term is K:
                raise CheckError("malformed")
            return check_le(pure, "M", phi, phi, cand)

        out = search_module.first_holding([Uniform(K), Uniform(S)], check, SearchBudget(1))
        assert (out.status, out.failures, out.timeouts, out.malformed, out.checked) == ("unknown", 1, 0, 1, 2)
        assert search_module.first_holding([], check, SearchBudget(1)).status == "exhausted"

    def test_malformed_candidates_among_refuted_ones_leave_the_search_unknown(self, pca, o1):
        # a malformed candidate was never ruled out, however many others were
        X = carrier(pca, [K, S])
        oraclish = MassFamily(X, {K: frozenset([o1]), S: frozenset([o1])})
        phi = MassFamily(X, {K: frozenset([K]), S: frozenset([S])})
        cands = [Uniform(t) for t in enumerate_computable(2)]

        def check(cand):  # every third candidate is malformed, the rest refuted
            if cands.index(cand) % 3 == 0:
                raise CheckError("malformed")
            return check_le(pca, "M", oraclish, phi, cand)

        out = first_holding(cands, check, SearchBudget(2))
        assert (out.status, out.failures, out.timeouts, out.malformed) == ("unknown", 14, 0, 8)
        refuted = first_holding(cands, lambda cand: check_le(pca, "M", oraclish, phi, cand), SearchBudget(2))
        assert (refuted.status, refuted.failures, refuted.malformed) == ("exhausted", 22, 0)

    def test_laws_read_an_all_malformed_search_as_undecided(self, pure):
        X = carrier(pure, [K])
        phi = MassFamily(X, {K: frozenset([K])})
        shapes = [PerPoint({}), PerPoint({})]  # M takes uniform witnesses only
        assert _first_holding(pure, "M", phi, phi, shapes, None) is None
        assert _first_holding(pure, "M", phi, phi, [Uniform(S)], None) is False


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
    over_a = MassFamily(A, {(K, "x"): frozenset([K]), (S, "y"): frozenset([S])}, NONEMPTY)
    pred = Predicate(A, A, {(a, b): frozenset([K]) for a in A.naming for b in A.naming})
    dial = DialecticaPredicate(X, {(K, frozenset([K])): frozenset([K])})
    return [("T", tracked, tracked), ("Tw", tracked, tracked), ("dextW", over_a, over_a),
            ("rW", pred, pred), ("D", dial, dial)]


class TestSearchBudget:
    @pytest.mark.parametrize("cap", [float("nan"), -1.0, -1e-9])
    def test_a_nan_or_negative_time_cap_is_refused(self, cap):
        with pytest.raises(CheckError, match="time cap must be a non-negative number of seconds"):
            SearchBudget(3, time_cap=cap)


class TestSearchMemo:
    def test_repeated_claim_checks_no_candidate(self):
        pca = Pca()
        first, calls = _counted(pca, "M", *_mass_claim(pca), SearchBudget(3))
        # 10 candidates refuted, 4 of them by their action key's shared verdict
        assert first.found and first.checked == 10 and calls == 6 + 1
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


# ---------------------------------------------------------------------------
# Shared head normal forms change no outcome

SEEDED_ORACLES = {"o1": {K: S}}
SEEDED_ARGS = (K, S, App(K, K), App(K, S), App(S, K), App(S, S), O1, App(App(S, K), K))
# normal forms that terms of size <= 4 reach late, or only through the oracle
SEEDED_VALUES = SEEDED_ARGS + tuple(App(f, a) for f, a in (
    (S, App(K, K)), (App(S, S), K), (S, App(S, K)), (K, App(S, K)), (App(S, K), S),
    (K, App(K, App(K, K))), (App(S, S), S)))


def _seeded_claim(seed: int):
    """Two mass families over a carrier of one or two points, drawn by seed:
    on the left {#o1}, which no S/K term reaches from an oracle-free
    argument, or one or two normal forms; on the right up to two arguments."""
    rng = random.Random(seed)
    X = carrier(Pca(oracles=SEEDED_ORACLES), rng.sample(SEEDED_ARGS[:6], rng.randint(1, 2)))
    lhs = MassFamily(X, {x: frozenset([O1]) if rng.random() < 0.3
                         else frozenset(rng.sample(SEEDED_VALUES, rng.randint(1, 2))) for x in X.points})
    rhs = MassFamily(X, {x: frozenset(rng.sample(SEEDED_ARGS, rng.randint(0, 2))) for x in X.points})
    return lhs, rhs


def _plain_least(pca, arg, allowed, size, fuel):
    """The least term of size <= size sending arg into allowed, and whether
    one before it timed out: every term applied in turn."""
    timed_out = False
    if allowed:
        for t in enumerate_computable(size):
            out = apply(pca, t, arg, fuel)
            if out.is_defined and out.term in allowed:
                return t, timed_out
            timed_out = timed_out or out.status == "timeout"
    return None, timed_out


def _plain_outcome(doc, lhs, rhs, size, fuel):
    """search_witness's outcome on a fresh structure, with no verdict or
    evaluation shared between candidates: under M each candidate is checked
    against a freshly compiled claim; under Mw each position's least term
    comes from a plain walk, and a Bounded candidate, which the walk yields
    when a position's walk timed out, is refuted by an empty solution set
    on the left and else unknown."""
    pca = Pca(oracles=SEEDED_ORACLES)
    budget = SearchBudget(size, fuel)

    def fresh_check(cand):
        pca._claims.clear()
        return check_le(pca, doc, lhs, rhs, cand, fuel)

    if doc == "M":
        return first_holding(map(Uniform, enumerate_computable(size)), fresh_check, budget)
    cells = list(positions(lhs, rhs))
    table = {}
    for key, arg, allowed, _ in cells:
        found, timed_out = _plain_least(pca, arg, allowed, size, fuel)
        if found is None:
            if not timed_out:
                return SearchOutcome(EXHAUSTED, None, size)
            if any(not allowed for _, _, allowed, _ in cells):
                return SearchOutcome(EXHAUSTED, None, size, failures=1)
            return SearchOutcome(UNKNOWN, None, size, timeouts=1)
        table[key] = found
    return first_holding([PerPoint(table)], fresh_check, budget)


class TestSharedHeadNormalForms:
    """A uniform candidate is decided from the verdict of an earlier one with
    the same head normal form, and a per-point walk skips such terms; seeded
    M and Mw searches still give the outcome of checking every candidate on
    its own."""

    @pytest.mark.parametrize("fuel", [3, 10, 200])
    @pytest.mark.parametrize("doc", ["M", "Mw"])
    def test_seeded_searches_match_candidates_checked_alone(self, doc, fuel):
        statuses = set()
        for seed in range(16):
            lhs, rhs = _seeded_claim(seed)
            out = search_witness(Pca(oracles=SEEDED_ORACLES), doc, lhs, rhs, SearchBudget(4, fuel))
            expected = _plain_outcome(doc, lhs, rhs, 4, fuel)
            assert ((out.status, out.witness, out.failures, out.timeouts, out.malformed)
                    == (expected.status, expected.witness, expected.failures, expected.timeouts,
                        expected.malformed)), seed
            statuses.add(out.status)
        assert "found" in statuses and statuses - {"found"}, statuses


def _key_decided(pca, doc, lhs, rhs, fresh, fresh_lhs, fresh_rhs, size, fuel):
    """How many terms the uniform walk of ``lhs <=_doc rhs`` decided by
    their action key's shared verdict.  The walk runs as a search runs it,
    every other candidate checked by check_le on ``pca``; each decided
    term's status and counterexample must be what check_le gives it on
    ``fresh``, whose compiled claims (and so shared verdicts) are dropped
    before each check."""
    claim = compile_claim(pca, doc, lhs, rhs)
    walk = search_module._WALKS[Uniform](pca, claim, SearchBudget(size, fuel))
    decided = 0
    for t, cand in zip(enumerate_computable(size), walk, strict=True):
        if cand.__class__ is Verdict:
            fresh._claims.clear()
            expected = check_le(fresh, doc, fresh_lhs, fresh_rhs, Uniform(t), fuel)
            assert (cand.status, cand.counterexample) == (expected.status, expected.counterexample), to_text(t)
            assert cand.refuted
            decided += 1
        else:
            assert cand == Uniform(t)
            check_le(pca, doc, lhs, rhs, cand, fuel)
    return decided


class TestKeyDecidedCandidates:
    """A uniform walk yields, for a term whose action key has a shared
    refutation that stands for it (its most steps plus the term's p fit in
    the fuel), that refutation in place of the term, and a search counts it
    as a failure with no check_le call.  It is the term's own verdict."""

    @pytest.mark.parametrize("fuel", [2, 3, 10, 200])
    @pytest.mark.parametrize("doc", ["M", "dW"])
    def test_seeded_claims_match_a_fresh_check(self, doc, fuel):
        decided = 0
        for seed in range(16):
            lhs, rhs = _seeded_claim(seed)
            decided += _key_decided(Pca(oracles=SEEDED_ORACLES), doc, lhs, rhs,
                                    Pca(oracles=SEEDED_ORACLES), lhs, rhs, 4, fuel)
        assert decided > 0

    @pytest.mark.parametrize("fuel", [None, 2])
    @pytest.mark.parametrize("fixture", ["refuted", "holds"])
    def test_fixture_claims_match_a_fresh_check(self, fixture, fuel):
        text = (FIXTURES[0].parent / f"{fixture}.inst").read_text()
        inst, fresh = parse_instance(text), parse_instance(text)
        decided = 0
        for claim in inst.claims:
            if claim.doc in ("T", "M", "dW", "dsW", "drW", "dextW"):
                decided += _key_decided(inst.pca, claim.doc, inst.element(claim.lhs), inst.element(claim.rhs),
                                        fresh.pca, fresh.element(claim.lhs), fresh.element(claim.rhs),
                                        4, inst.fuel if fuel is None else fuel)
        assert decided > 0
