import contextlib
import json
import string
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from degreelab import instance
from degreelab.doctrines import MassFamily, NONEMPTY, Uniform
from degreelab.instance import InstanceError, _Parser, _tokenize, format_result, parse_instance, print_instance
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

    def test_equal_applications_of_one_file_are_one_object(self):
        inst = parse_instance("carrier X = [(K K), (S (K K))]\ncarrier Y = [((S (K K)) K)]\n")
        kk, skk = sorted(inst.carriers["X"].points, key=lambda t: t.size)
        (skkk,) = inst.carriers["Y"].points
        assert skk.arg is kk and skkk.fn is skk

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

    KEYWORD_NAMES = ("oracle #o1 { K -> S }\nfuel 500\n"
                     "carrier fuel = [K, S]\ncarrier oracle = [K]\n"
                     "family fuel' over fuel { K -> [K], S -> [S] }\n"
                     "witness w = uniform ((S K) K)\n"
                     "claim c : fuel' <=_M fuel' by w\n")

    @pytest.mark.parametrize("source", [
        KEYWORD_NAMES,
        "carrier X = [K]\nfamily fuel over X { K -> [K] }\nwitness oracle = uniform K\n"
        "claim c : fuel <=_M fuel by oracle\n",
    ], ids=["carriers", "family-and-witness"])
    def test_declaration_keywords_are_names(self, source):
        inst = parse_instance(source)
        assert print_instance(parse_instance(print_instance(inst))) == print_instance(inst)
        assert inst.claims and {"fuel", "oracle"} & inst.declared

    def test_keyword_names_keep_the_declared_fuel_and_oracles(self):
        inst = parse_instance(self.KEYWORD_NAMES)
        assert (inst.fuel, inst.pca.oracles) == (500, {"o1": {K: S}})
        assert set(inst.carriers) == {"fuel", "oracle"}

    @pytest.mark.parametrize("source, message", [
        ("carrier X = [K]\nfuel x\n", "line 2: expected 'int', found 'x'"),
        ("carrier X = [K]\noracle foo {\n", "line 2: expected 'oracle', found 'foo'"),
        ("carrier X = [K]\nfuel", "line 2: unexpected end of file"),
        ("carrier X = [K]\noracle #o1 { K -> }\n", "line 2: expected a term, found '}'"),
        ("oracle #o1 { }\noracle #o1 { }\n", "line 2: duplicate oracle #o1"),
        ("carrier X = [K]\nfuel \u00b2\n", "line 2: invalid literal for int() with base 10: '\u00b2'"),
        ("carrier X = [K]\nfuel 0\n", "line 2: fuel must be positive"),
    ], ids=["fuel-not-int", "oracle-not-named", "fuel-at-eof", "oracle-bad-table", "oracle-twice",
            "fuel-digit-int-rejects", "fuel-zero"])
    def test_malformed_fuel_and_oracle_declarations(self, source, message):
        with pytest.raises(InstanceError) as err:
            parse_instance(source)
        assert str(err.value) == message

    PRODUCTS = {
        "carrier": ("carrier A = [K]\n", "morphism P_fst : A -> A graph { K -> K }\n",
                    "carrier P = product A A\n", "P_fst"),
        "assembly": ("assembly A { point a names [K] }\n",
                     "extmorphism P_snd : A -> A realizer ((S K) K) pointmap { (K, a) -> a }\n",
                     "assembly P = product A A\n", "P_snd"),
    }

    @pytest.mark.parametrize("product_first", [False, True], ids=["user-first", "product-first"])
    @pytest.mark.parametrize("kind", sorted(PRODUCTS))
    def test_product_projections_are_declared_names(self, kind, product_first):
        base, user, product, clash = self.PRODUCTS[kind]
        source = base + (product + user if product_first else user + product)
        with pytest.raises(InstanceError) as err:
            parse_instance(source)
        assert str(err.value) == f"line 3: name {clash!r} already declared"

    def test_juxtaposition_in_terms_rejected(self):
        with pytest.raises(InstanceError):
            parse_instance("carrier X = [(K S K)]\n")

    # Declarations the grammar reads but the structures reject, each on its
    # own line: a morphism is a map between carriers (an assembly takes an
    # extmorphism), and a completion object's payload doctrine is a doctrine.
    @pytest.mark.parametrize("decl, message", [
        ("morphism m : A -> A graph { a -> a }", "morphisms live between carriers"),
        ("morphism m : X -> A graph { K -> a }", "morphisms live between carriers"),
        ("morphism m : A -> X graph { a -> K }", "morphisms live between carriers"),
        ("compobject c = forall full Q leg f payload t", "unknown doctrine id 'Q'"),
    ], ids=["assembly-to-assembly", "carrier-to-assembly", "assembly-to-carrier", "compobject-doctrine"])
    def test_structure_errors_are_reported_on_their_line(self, decl, message):
        source = ("carrier X = [K]\nassembly A { point a names [K] }\nmorphism f : X -> X graph { K -> K }\n"
                  "tracked t over X { K -> K }\n\n" + decl + "\nwitness later = uniform K\n")
        with pytest.raises(InstanceError) as err:
            parse_instance(source)
        assert (str(err.value), err.value.line) == (f"line 6: {message}", 6)


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


# Declarations of every kind print_instance emits, with drawn contents.
# Carrier points and assembly names are normal forms; a product is taken of
# a carrier of atoms, whose pairings are normal.
_NF = ["K", "S", "(K K)", "(K S)", "(S K)", "(S S)", "((S K) K)", "(K (K S))"]
_ANY = _NF + ["#o1", "(#o1 K)"]


def _some(pool, min_size=1, max_size=3):
    return st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size, unique=True)


def _terms(ts) -> str:
    return "[" + ", ".join(ts) + "]"


@st.composite
def _instances(draw):
    term = lambda: draw(st.sampled_from(_ANY))  # noqa: E731
    X = draw(st.sampled_from(["X", "fuel", "oracle", "x'"]))
    xs = draw(_some(_NF))
    ys = draw(_some(_NF, max_size=2))
    atoms = draw(_some(["K", "S"]))
    oracle = draw(st.dictionaries(st.sampled_from(_NF), st.sampled_from(_NF), max_size=3))
    names = {pid: draw(_some(_NF, max_size=2)) for pid in ("x", "y")}
    naming = [(n, pid) for pid, ns in names.items() for n in ns]
    policy = lambda: draw(st.sampled_from(["", " policy nonempty", " policy allowempty"]))  # noqa: E731
    fam_policy = policy()
    sets = lambda: _terms(draw(_some(_ANY, 1 if "nonempty" in fam_policy else 0)))  # noqa: E731
    pred_policy = policy()
    pred_sets = lambda: _terms(draw(_some(_ANY, 0 if "allowempty" in pred_policy else 1)))  # noqa: E731
    relation = draw(st.lists(st.tuples(st.sampled_from(xs), _some(_NF, 0, 2)), max_size=3))
    choice = ", ".join(f"({x}; {_terms(a)}) -> {_terms(draw(_some(_ANY, 0)))}" for x, a in relation)
    # per-point keys: a term, a (term, term) pair, or a (term, point id) position
    keys = draw(st.lists(st.one_of(st.sampled_from(_ANY), st.tuples(st.sampled_from(_ANY), st.sampled_from(
        _ANY + ["x", "y"])).map(lambda ab: f"({ab[0]}, {ab[1]})")), unique=True, max_size=3))
    lines = [
        f"oracle #o1 {{ {', '.join(f'{k} -> {v}' for k, v in oracle.items())} }}",
        f"fuel {draw(st.integers(100, 20_000))}",
        f"universe U = {_terms(draw(_some(_NF + ['#o1'])))}",
        f"carrier {X} = {_terms(xs)}",
        f"carrier Y = {_terms(ys)}",
        f"carrier B = {_terms(atoms)}",
        "carrier P = product B B",
        "assembly A { " + " ".join(f"point {pid} names {_terms(ns)}" for pid, ns in names.items()) + " }",
        f"morphism f : {X} -> {X} realizer ((S K) K) graph {{ {', '.join(f'{x} -> {x}' for x in xs)} }}",
        f"morphism g : {X} -> Y graph {{ {', '.join(f'{x} -> {draw(st.sampled_from(ys))}' for x in xs)} }}",
        f"extmorphism m : A -> A realizer ((S K) K) pointmap {{ "
        + ", ".join(f"({n}, {pid}) -> {pid}" for n, pid in naming) + " }",
        f"tracked t over {X} {{ {', '.join(f'{x} -> {term()}' for x in xs)} }}",
        f"family phi over {X}{fam_policy} {{ {', '.join(f'{x} -> {sets()}' for x in xs)} }}",
        f"family apsi over A {{ {', '.join(f'({n}, {pid}) -> {_terms(draw(_some(_ANY)))}' for n, pid in naming)} }}",
        f"predicate F over {X} index Y{pred_policy} {{ "
        + ", ".join(f"({x}; {y}) -> {pred_sets()}" for x in xs for y in ys) + " }",
        f"extpredicate e over {X} {{ "
        + ", ".join(f"{x} -> [{', '.join(_terms(a) for a in draw(st.lists(_some(_ANY, 0), max_size=2)))}]"
                    for x in xs) + " }",
        f"dialpredicate d over {X} {{ {choice} }}",
        f"witness w1 = uniform {term()}",
        f"witness w2 = perpoint {{ {', '.join(f'{k} -> {term()}' for k in keys)} }}",
        f"witness w3 = fwback k = f, h = {term()}",
        f"witness w4 = extfwback k = m, h = {term()}",
        f"witness w5 = bounded {draw(st.integers(0, 9))}",
        f"witness w6 = dial {{ {choice} }} h = {term()}",
        f"witness w7 = extstrong k = {term()}, choice {{ {choice} }}, h = {term()}",
        "witness w8 = mediate h = f, base = w1",
        f"compobject c1 = {draw(st.sampled_from(['forall', 'exists']))} full "
        f"{draw(st.sampled_from(['T', 'M', 'dW']))} leg f payload t",
        f"claim c : phi <=_{draw(st.sampled_from(['M', 'Mw', 'T', 'dW', 'D']))} phi by w1",
        "claim cc : c1 <=_comp c1 by w8",
        format_result("c", draw(st.sampled_from(["holds", "refuted", "unknown"])),
                      tuple(draw(st.lists(_ITEMS, max_size=3))), draw(st.integers(0, 9))),
    ]
    return "\n".join(lines) + "\n"


class TestDeclarations:
    @settings(max_examples=150, deadline=None)
    @given(_instances())
    def test_print_parse_print_is_stable(self, source):
        inst = parse_instance(source)
        assert {kind for kind, _ in inst.decls} == {
            "universe", "carrier", "assembly", "morphism", "extmorphism", "tracked", "family", "predicate",
            "extpredicate", "dialpredicate", "witness", "compobject", "claim", "result"}
        printed = print_instance(inst)
        assert print_instance(parse_instance(printed)) == printed


# The lexical contract: each input gives exactly these (kind, text, line,
# start, end) tokens, or exactly this (error, line).  Identifiers start with
# a letter (``str.isalpha``) or ``_``, integers with a digit
# (``str.isdigit``), so the non-ASCII rows pin what a regular expression's
# ``\w``/``\d`` would change.
_LEXICAL = [
    ("carrier X = [K]\r\n\tfamily\tphi // note\r\n// end",
     [("ident", "carrier", 1, 0, 7), ("ident", "X", 1, 8, 9), ("punct", "=", 1, 10, 11),
      ("punct", "[", 1, 12, 13), ("ident", "K", 1, 13, 14), ("punct", "]", 1, 14, 15),
      ("ident", "family", 2, 18, 24), ("ident", "phi", 2, 25, 28)]),
    ("#", ("line 1: '#' must start an oracle name", 1)),
    ("#'", [("oracle", "'", 1, 0, 2)]),
    ("a#", ("line 1: '#' must start an oracle name", 1)),
    ("$", ("line 1: unexpected character '$'", 1)),
    ("1a", [("int", "1", 1, 0, 1), ("ident", "a", 1, 1, 2)]),
    ("<=_M", [("punct", "<=_", 1, 0, 3), ("ident", "M", 1, 3, 4)]),
    ("->", [("punct", "->", 1, 0, 2)]),
    ("é1", [("ident", "é1", 1, 0, 2)]),
    ("½", ("line 1: unexpected character '½'", 1)),
    ("²", [("int", "²", 1, 0, 1)]),
    ("1²", [("int", "1²", 1, 0, 2)]),
    ("a½ #é", [("ident", "a½", 1, 0, 2), ("oracle", "é", 1, 3, 5)]),
    ("é½ x", [("ident", "é½", 1, 0, 2), ("ident", "x", 1, 3, 4)]),
    ("1²5a ٣", [("int", "1²5", 1, 0, 3), ("ident", "a", 1, 3, 4), ("int", "٣", 1, 5, 6)]),
    ("fuel\r\n  #", ("line 2: '#' must start an oracle name", 2)),
    ("\xa0K\u2028S\x1c", [("ident", "K", 1, 1, 2), ("ident", "S", 1, 3, 4)]),
    ("K\n\n  <=", ("line 3: unexpected character '<'", 3)),
    ("x_1' (K, #o_2)\n{ };:", [
        ("ident", "x_1'", 1, 0, 4), ("punct", "(", 1, 5, 6), ("ident", "K", 1, 6, 7),
        ("punct", ",", 1, 7, 8), ("oracle", "o_2", 1, 9, 13), ("punct", ")", 1, 13, 14),
        ("punct", "{", 2, 15, 16), ("punct", "}", 2, 17, 18), ("punct", ";", 2, 18, 19),
        ("punct", ":", 2, 19, 20)]),
    ("", []),
]


class TestLexicalContract:
    @pytest.mark.parametrize("text, expected", _LEXICAL)
    def test_tokens_or_error(self, text, expected):
        if isinstance(expected, tuple):  # (message, line)
            with pytest.raises(InstanceError) as err:
                _tokenize(text)
            assert (str(err.value), err.value.line) == expected
        else:
            assert [(t.kind, t.text, t.line, t.start, t.end) for t in _tokenize(text)] == expected

    def test_end_of_file_mid_declaration(self):
        with pytest.raises(InstanceError) as err:
            parse_instance("carrier X = [K]\ncarrier Y = [K,")
        assert (str(err.value), err.value.line) == ("line 2: unexpected end of file", 2)

    # The reader's words against the scanner: on any text, the words are the
    # token texts (an oracle name with its "#") and then "", or both raise the
    # same error; valid ASCII text is read without running the scanner.
    _PIECES = list(string.punctuation + string.digits + string.ascii_letters) + [
        "\r", "\n", "\x1c", "\xa0", " ", "\u00e9", "\u00bd", "\u00b2", "\u0663", "//", "->", "<=_", "#o1"]
    # Pieces of which most texts are valid, so the fast path is exercised.
    _MOSTLY_VALID = [p for p in _PIECES if p not in instance._NOT_A_WORD] + ["'", "#", "/"]

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=24),
                     st.lists(st.sampled_from(_MOSTLY_VALID), max_size=24)).map("".join))
    def test_words_are_the_token_texts(self, text):
        def outcome(read):
            try:
                return read()
            except InstanceError as e:
                return str(e), e.line

        want = outcome(lambda: ["#" * (t.kind == "oracle") + t.text for t in _tokenize(text)] + [""])
        no_scanner = mock.patch.object(instance, "_tokenize", side_effect=AssertionError("scanner ran"))
        with no_scanner if text.isascii() and isinstance(want, list) else contextlib.nullcontext():
            assert outcome(lambda: _Parser(text).words) == want

    def test_valid_ascii_files_build_no_positioned_tokens(self, monkeypatch):
        def scanner(text):
            raise AssertionError("the positioned scanner ran on a valid ASCII file")

        monkeypatch.setattr(instance, "_tokenize", scanner)
        for source in [SAMPLE] + [path.read_text() for path in sorted(FIXTURES.glob("*.inst"))]:
            inst = parse_instance(source)
            assert print_instance(parse_instance(print_instance(inst))) == print_instance(inst)


# The parser's error contract: SAMPLE with each of its tokens deleted in turn
# gives exactly the recorded (line, message), or "ok" when it still parses.
# Each entry is [offset of the deleted token, its text, outcome].
SAMPLE_DELETIONS = Path(__file__).resolve().parent / "sample_deletions.json"


class TestErrorContract:
    def test_every_single_token_deletion_of_the_sample(self):
        got = []
        for tok in _tokenize(SAMPLE):
            try:
                parse_instance(SAMPLE[: tok.start] + SAMPLE[tok.end :])
                outcome = "ok"
            except InstanceError as e:
                outcome = [e.line, str(e)]
            got.append([tok.start, tok.text, outcome])
        assert got == json.loads(SAMPLE_DELETIONS.read_text(encoding="utf-8"))

    # A name that refers to no earlier declaration is reported on the line of
    # the name itself, not on the line of the token after it.
    HEAD = "carrier X = [K]\nassembly A { point a names [K] }\nmorphism f : X -> X graph { K -> K }\n" \
           "family phi over X { K -> [K] }\nwitness w = uniform K\n"

    @pytest.mark.parametrize("decl, message", [
        ("carrier P = product X Y", "unknown carrier 'Y'"),
        ("assembly P = product A B", "unknown assembly 'B'"),
        ("morphism g : X -> Y", "unknown carrier/assembly 'Y'"),
        ("extmorphism m : A -> B", "unknown assembly 'B'"),
        ("family psi over Y", "unknown carrier/assembly 'Y'"),
        ("predicate F over X index Y", "unknown carrier/assembly 'Y'"),
        ("family psi over X policy sometimes", "unknown policy 'sometimes'"),
        ("witness v = fwback k = g", "unknown morphism 'g'"),
        ("witness v = extfwback k = g", "unknown ext morphism 'g'"),
        ("witness v = mediate h = g", "unknown morphism 'g'"),
        ("witness v = mediate h = f, base = v0", "unknown witness 'v0'"),
        ("compobject c = forall full T leg g", "unknown morphism 'g'"),
        ("compobject c = forall full T leg f payload nope", "no family/predicate/object named 'nope'"),
        ("claim c : nope <=_M phi by w", "no family/predicate/object named 'nope'"),
        ("claim c : phi <=_M nope by w", "no family/predicate/object named 'nope'"),
        ("claim c : phi <=_M phi by\nv0", "unknown witness 'v0'"),
    ])
    def test_unknown_names_are_reported_on_their_own_line(self, decl, message):
        source = self.HEAD + decl + "\n\n\nwitness later = uniform K\n"
        line = self.HEAD.count("\n") + decl.count("\n") + 1
        with pytest.raises(InstanceError) as err:
            parse_instance(source)
        assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)
