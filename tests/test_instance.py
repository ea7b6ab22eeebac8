from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from degreelab.doctrines import MassFamily, NONEMPTY, Uniform
from degreelab.instance import InstanceError, format_result, parse_instance, print_instance
from degreelab.terms import App, K, Oracle, S, to_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SAMPLE = """
// exercises every declaration form
oracle #o1 { K -> S }
fuel 7000
universe U = [K, S, #o1]
carrier X = [K, S]
carrier P = product X X
assembly A { point x names [K] point y names [S, (K K)] }
morphism f : X -> X realizer ((S K) K) graph { K -> K, S -> S }
extmorphism m : A -> A realizer ((S K) K) pointmap { (K, x) -> x, (S, y) -> y, ((K K), y) -> y }
tracked t over X { K -> K, S -> S }
family phi over X policy nonempty { K -> [K], S -> [S] }
family apsi over A { (K, x) -> [K], (S, y) -> [], ((K K), y) -> [S] }
predicate F over X index X { (K; K) -> [S], (K; S) -> [S], (S; K) -> [S], (S; S) -> [S] }
extpredicate e over X { K -> [[K], []], S -> [] }
dialpredicate d over X { (K; [K, S]) -> [K] }
witness w1 = uniform ((S K) K)
witness w2 = perpoint { K -> K, (K, (S S)) -> (K K) }
witness w3 = fwback k = f, h = K
witness w4 = extfwback k = m, h = K
witness w5 = bounded 5
witness w6 = dial { (K; [K]) -> [S] } h = K
witness w7 = extstrong k = K, choice { (K; [K]) -> [S] }, h = K
witness w8 = mediate h = f, base = w1
compobject c1 = forall full T leg f payload t
claim c : phi <=_M phi by w1
result c holds
"""


class TestParsing:
    def test_every_declaration_form(self):
        inst = parse_instance(SAMPLE)
        assert inst.fuel == 7000
        assert set(inst.pca.oracles) == {"o1"}
        assert inst.families["phi"].policy == NONEMPTY
        assert len(inst.carriers["P"]) == 4
        assert "P_fst" in inst.morphisms
        assert inst.claims[0].doc == "M"
        assert inst.results[0].status == "holds"

    def test_round_trip_is_stable(self):
        inst = parse_instance(SAMPLE)
        once = print_instance(inst)
        twice = print_instance(parse_instance(once))
        assert once == twice

    def test_round_trip_preserves_structures(self):
        inst = parse_instance(SAMPLE)
        inst2 = parse_instance(print_instance(inst))
        assert inst2.families["phi"] == inst.families["phi"]
        assert inst2.families["apsi"] == inst.families["apsi"]
        assert inst2.predicates["F"] == inst.predicates["F"]
        assert inst2.tracked["t"].values == inst.tracked["t"].values
        assert inst2.morphisms["f"] == inst.morphisms["f"]
        assert inst2.claims == inst.claims

    def test_fixture_files_parse(self):
        for path in sorted(FIXTURES.glob("*.inst")):
            inst = parse_instance(path.read_text())
            assert inst.claims, path.name

    def test_line_numbers_in_errors(self):
        bad = "carrier X = [K]\ncarrier X = [S]\n"
        with pytest.raises(InstanceError, match="line 2"):
            parse_instance(bad)

    def test_forward_references_rejected(self):
        with pytest.raises(InstanceError):
            parse_instance("claim c : phi <=_M phi by w\n")

    def test_unknown_doctrine_rejected(self):
        with pytest.raises(InstanceError, match="doctrine"):
            parse_instance(
                "carrier X = [K]\nfamily phi over X { K -> [K] }\n"
                "witness w = uniform K\nclaim c : phi <=_XX phi by w\n"
            )

    def test_invalid_structures_rejected_on_load(self):
        with pytest.raises(InstanceError):
            parse_instance("carrier X = [((K K) K)]\n")  # not a normal form
        with pytest.raises(InstanceError):
            parse_instance("assembly A { point x names [] }\n")  # naming not total

    def test_duplicate_names_rejected(self):
        with pytest.raises(InstanceError, match="already declared"):
            parse_instance("carrier X = [K]\nfamily X over X { K -> [] }\n")

    def test_juxtaposition_in_terms_rejected(self):
        with pytest.raises(InstanceError):
            parse_instance("carrier X = [(K S K)]\n")


class TestWitnessForms:
    def test_perpoint_keys(self):
        inst = parse_instance(SAMPLE)
        w = inst.witnesses["w2"]
        assert w.mapping[K] == K
        from degreelab.terms import App

        assert w.mapping[(K, App(S, S))] == App(K, K)

    def test_mediate_references(self):
        inst = parse_instance(SAMPLE)
        w = inst.witnesses["w8"]
        assert isinstance(w.base, Uniform)
        assert w.mediator is inst.morphisms["f"]


# Counterexample items as checkers print them: terms, points of products
# (nested tuples), sets of terms, and phrases.
_TERMS = st.recursive(st.sampled_from([K, S, Oracle("o1")]), lambda sub: st.builds(App, sub, sub),
                      max_leaves=6).map(to_text)
_IDS = st.sampled_from(["x", "y", "p1", "x'"])
_POINTS = st.recursive(st.one_of(_IDS, _TERMS), lambda sub: st.tuples(sub, sub).map(lambda ab: f"({ab[0]}, {ab[1]})"),
                       max_leaves=4)
_SETS = st.lists(_TERMS, max_size=3).map(lambda ts: "[" + ", ".join(ts) + "]")
_PHRASES = st.lists(st.sampled_from(["empty", "solution", "set", "on", "the", "left", "realizer", "undefined"]),
                    min_size=1, max_size=5).map(" ".join)
_ITEMS = st.one_of(_TERMS, _POINTS, _SETS, _PHRASES)


class TestResultLines:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["holds", "refuted", "unknown"]), st.lists(_ITEMS, max_size=4),
           st.integers(0, 40))
    def test_print_parse_is_stable(self, status, items, unknowns):
        line = format_result("c", status, tuple(items), unknowns)
        inst = parse_instance(line + "\n")
        assert inst.results[0].counterexample == tuple(items)
        assert inst.results[0].unknowns == unknowns
        printed = print_instance(inst)
        assert printed.splitlines()[-1] == line
        assert print_instance(parse_instance(printed)) == printed

    def test_unterminated_counterexample_rejected(self):
        with pytest.raises(InstanceError):
            parse_instance("result c refuted counterexample (K, (K S)\n")
