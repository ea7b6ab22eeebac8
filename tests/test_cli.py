import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from degreelab.cli import main
from degreelab.laws import run_suites

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def _env(**extra):
    """The environment of a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


class TestCheck:
    def test_all_holds_exit_zero(self, capsys):
        code, out = run(["check", FIXTURES / "holds.inst"], capsys)
        assert code == 0
        assert out.count("HOLDS") == 3

    def test_refuted_exit_one_with_counterexample(self, capsys):
        code, out = run(["check", FIXTURES / "refuted.inst"], capsys)
        assert code == 1
        assert "counterexample" in out

    def test_unknown_exit_two(self, capsys):
        code, out = run(["check", FIXTURES / "unknown.inst"], capsys)
        assert code == 2

    def test_shape_mismatch_exit_three(self, capsys):
        code = main(["check", str(FIXTURES / "shape_error.inst")])
        assert code == 3

    def test_parse_error_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.inst"
        bad.write_text("carrier X = [K K]\n")
        assert main(["check", str(bad)]) == 3

    def test_fuel_digit_int_rejects_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.inst"
        bad.write_text("fuel \u00b2\n", encoding="utf-8")
        assert main(["check", str(bad)]) == 3
        assert capsys.readouterr().err == "error: line 1: invalid literal for int() with base 10: '\u00b2'\n"

    @pytest.mark.parametrize("decl, message", [
        ("morphism m : A -> A graph { a -> a }", "morphisms live between carriers"),
        ("compobject c = forall full Q leg f payload t", "unknown doctrine id 'Q'"),
    ], ids=["assembly-morphism", "compobject-doctrine"])
    def test_structure_errors_exit_three_on_their_line(self, tmp_path, capsys, decl, message):
        bad = tmp_path / "bad.inst"
        bad.write_text("carrier X = [K]\nassembly A { point a names [K] }\nmorphism f : X -> X graph { K -> K }\n"
                       "tracked t over X { K -> K }\nwitness w = uniform K\n" + decl + "\n"
                       "claim c : t <=_T t by w\n")
        assert main(["check", str(bad)]) == 3
        assert capsys.readouterr().err == f"error: line 6: {message}\n"

    def test_fuel_zero_exits_three_on_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.inst"
        bad.write_text("carrier X = [K]\nfuel 0\n")
        assert main(["check", str(bad)]) == 3
        assert capsys.readouterr().err == "error: line 2: fuel must be positive\n"

    def test_machine_format_reparses(self, capsys, tmp_path):
        code, out = run(["--format", "machine", "check", FIXTURES / "holds.inst"], capsys)
        assert code == 0
        from degreelab.instance import parse_instance

        inst = parse_instance(out)
        assert [r.status for r in inst.results] == ["holds"] * 3

    def test_machine_format_is_deterministic_across_hash_seeds(self):
        outs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "degreelab.cli", "--format", "machine",
                 "check", str(FIXTURES / "holds.inst")],
                capture_output=True, text=True, env=_env(PYTHONHASHSEED=seed), timeout=120,
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == "result refl holds\nresult vacuous_top holds\nresult elementary_self holds\n"

    def test_composite_counterexample_reparses(self, capsys, tmp_path):
        inst = tmp_path / "composite.inst"
        inst.write_text("oracle #o1 { }\ncarrier X = [K]\nfamily phi over X { K -> [S] }\n"
                        "family psi over X { K -> [(K S)] }\nwitness w = uniform K\n"
                        "claim c : phi <=_M psi by w\n")
        code, out = run(["--format", "machine", "check", inst], capsys)
        assert code == 1
        assert out == "result c refuted counterexample (K, (K S))\n"
        from degreelab.instance import parse_instance, print_instance

        reparsed = parse_instance(out)
        assert reparsed.results[0].counterexample == ("K", "(K S)")
        assert print_instance(reparsed).endswith(out)

    def test_claim_selection(self, capsys):
        code, out = run(["check", FIXTURES / "holds.inst", "refl"], capsys)
        assert code == 0
        assert "refl" in out and "vacuous_top" not in out


class TestFuel:
    LOW_FUEL = ("oracle #o1 { }\nfuel 1\ncarrier X = [K, S]\n"
                "family phi over X policy nonempty { K -> [K], S -> [S] }\n"
                "witness id = uniform ((S K) K)\nclaim refl : phi <=_M phi by id\n")

    def test_instance_fuel_is_honoured(self, capsys, tmp_path):
        path = tmp_path / "low_fuel.inst"
        path.write_text(self.LOW_FUEL)
        code, out = run(["--format", "machine", "check", path], capsys)
        assert code == 2
        assert out.startswith("result refl unknown")

    def test_fuel_flag_overrides_instance(self, capsys, tmp_path):
        path = tmp_path / "low_fuel.inst"
        path.write_text(self.LOW_FUEL)
        code, out = run(["--fuel", "10000", "--format", "machine", "check", path], capsys)
        assert code == 0
        assert out == "result refl holds\n"

    def test_laws_honour_fuel(self, capsys):
        code, default = run(["--format", "machine", "laws", "bracket-abstraction"], capsys)
        assert "unknowns 54\n" in default
        code, low = run(["--fuel", "5", "--format", "machine", "laws", "bracket-abstraction"], capsys)
        unknowns = int(low.splitlines()[-1].split()[-1])
        assert unknowns > 54

    def test_pairing_counts_low_fuel_as_unknown(self, capsys):
        code, out = run(["--fuel", "5", "--format", "machine", "laws", "pairing"], capsys)
        assert code == 0
        total = out.splitlines()[-1].split()
        assert total[:4] == ["total", "pairing", "violations", "0"] and int(total[-1]) > 0

    def test_extasm_category_counts_low_fuel_as_unknown(self):
        (report,) = run_suites(["extasm-category"], fuel=5)
        assert report.violations == 0 and report.unknowns > 0

    def test_laws_at_low_fuel_report_instead_of_failing(self, capsys):
        # a realizer that runs out of fuel is an unknown, not an error (exit 3)
        # nor a violation
        code, out = run(["--fuel", "5", "--format", "machine", "laws"], capsys)
        totals = [line.split() for line in out.splitlines() if line.startswith("total ")]
        assert len(totals) == 10
        assert [t[3] for t in totals] == ["0"] * 10
        assert code == 0


class TestSearch:
    def test_found_pipeline_re_checks(self, capsys, tmp_path):
        code, out = run(["--witness-size", "3", "--format", "machine",
                         "search", FIXTURES / "holds.inst", "refl"], capsys)
        assert code == 0
        combined = tmp_path / "combined.inst"
        combined.write_text((FIXTURES / "holds.inst").read_text() + out)
        code2, out2 = run(["check", combined, "refl_check"], capsys)
        assert code2 == 0 and "HOLDS" in out2

    def test_exhausted_prints_bound(self, capsys):
        code, out = run(["--witness-size", "3", "search",
                         FIXTURES / "refuted.inst", "impossible"], capsys)
        assert code == 1
        assert "exhausted" in out and "size 3" in out

    def test_time_cap_is_named_as_the_stop_reason(self, capsys):
        code, out = run(["--time-cap", "0.05", "--witness-size", "6", "--format", "machine",
                         "search", FIXTURES / "refuted.inst", "impossible"], capsys)
        assert code == 2
        result, comment = out.splitlines()
        assert result == "result impossible unknown"
        assert comment.startswith("// stopped by the time cap of 0.05s after ")
        assert comment.endswith(" candidates checked")

    def test_time_cap_binds_while_terms_are_generated(self, capsys):
        # building every term up to size 8 takes seconds; the cap is checked
        # between candidates as the enumeration reaches them
        start = time.monotonic()
        code, out = run(["--time-cap", "0.05", "--witness-size", "8", "--format", "machine",
                         "search", FIXTURES / "refuted.inst", "impossible"], capsys)
        elapsed = time.monotonic() - start
        assert code == 2
        result, comment = out.splitlines()
        assert result == "result impossible unknown"
        assert comment.startswith("// stopped by the time cap of 0.05s after ")
        assert elapsed < 3


    # a per-point search whose inner candidates run out of fuel has not
    # exhausted its bound
    STARVED_INNER = ("oracle #o1 { }\ncarrier X = [K]\nfamily phi over X { K -> [#o1] }\n"
                     "tracked alpha over X { K -> #o1 }\nwitness b = bounded 3\n"
                     "claim mw : phi <=_Mw phi by b\nclaim tw : alpha <=_Tw alpha by b\n")

    @pytest.mark.parametrize("claim", ["mw", "tw"])
    def test_inner_timeouts_make_per_point_search_unknown(self, capsys, tmp_path, claim):
        path = tmp_path / "starved_inner.inst"
        path.write_text(self.STARVED_INNER)
        code, out = run(["--fuel", "1", "--witness-size", "3", "--format", "machine", "search", path, claim],
                        capsys)
        assert (code, out.splitlines()[0]) == (2, f"result {claim} unknown")
        code, out = run(["--fuel", "100", "--witness-size", "3", "--format", "machine", "search", path, claim],
                        capsys)
        assert (code, out.splitlines()[-1]) == (0, f"result {claim} found")


class TestForwardBackwardSearch:
    """Full machine reports of generalized Weihrauch searches, pinned
    byte for byte: the least witness, or the exhausted bound and count."""

    PXY = ("PXY", "((S ((S ((S K) K)) (K K))) (K K))", "((S ((S ((S K) K)) (K K))) (K S))")

    def _found(self, claim, realizer, images, h, doc):
        pxy, a, b = self.PXY
        return (f"morphism {claim}_found_k : {pxy} -> Y realizer {realizer} graph "
                f"{{ {a} -> {images[0]}, {b} -> {images[1]} }}\n"
                f"witness {claim}_found = fwback k = {claim}_found_k, h = {h}\n"
                f"claim {claim}_check : FP <=_{doc} FP by {claim}_found\n"
                f"result {claim} found\n")

    def _search(self, capsys, tmp_path, size, extra, claim):
        path = tmp_path / "fb.inst"
        path.write_text((FIXTURES / "weihrauch_transposition.inst").read_text() + extra)
        return run(["--witness-size", size, "--format", "machine", "search", path, claim], capsys)

    def test_w_claim_found(self, capsys, tmp_path):
        assert self._search(capsys, tmp_path, 6, "", "wclaim") == (
            0, self._found("wclaim", "(K K)", ("K", "K"), "((S ((S S) S)) (K K))", "W"))

    def test_sw_claim_found(self, capsys, tmp_path):
        extra = "claim swclaim : FP <=_SW FP by wfb\n"
        assert self._search(capsys, tmp_path, 6, extra, "swclaim") == (
            0, self._found("swclaim", "(((S (S S)) (S S)) S)", ("K", "S"), "((S K) K)", "SW"))

    def test_w_claim_exhausted(self, capsys, tmp_path):
        extra = ("predicate FO over X index Y policy nonempty { (K; K) -> [#o1], (K; S) -> [#o1] }\n"
                 "claim c : FO <=_W FP by wfb\n")
        assert self._search(capsys, tmp_path, 4, extra, "c") == (
            1, "result c exhausted\n// no witness up to size 4; 1100 candidates failed\n")


class TestLattice:
    def test_join_prints_family(self, capsys):
        code, out = run(["lattice", FIXTURES / "coheyting_demo.inst",
                         "--op", "join", "--args", "psi", "rho"], capsys)
        assert code == 0
        assert out.startswith("family join_result over X")

    def test_law_synthesis_and_recheck(self, capsys):
        code, out = run(["lattice", FIXTURES / "coheyting_demo.inst",
                         "--op", "law", "--law", "subtract_intro",
                         "--args", "wfst", "--claim", "to_sub"], capsys)
        assert code == 0
        assert "result to_sub holds" in out

    def test_implication_denied_for_uniform_order(self, capsys):
        code = main(["lattice", str(FIXTURES / "coheyting_demo.inst"),
                     "--doc", "M", "--op", "implies", "--args", "phi", "psi"])
        assert code == 3

    def test_subtract_reports_universe(self, capsys):
        code, out = run(["lattice", FIXTURES / "coheyting_demo.inst",
                         "--op", "subtract", "--args", "phi", "psi",
                         "--universe", "U"], capsys)
        assert code == 0
        assert "relative to universe" in out


class TestIso:
    def test_medvedev_roundtrip_fixture(self, capsys):
        code, _ = run(["iso", FIXTURES / "medvedev_roundtrip.inst",
                       "--map", "medvedev", "--direction", "forward",
                       "--claim", "comp_claim"], capsys)
        assert code == 0
        code, _ = run(["iso", FIXTURES / "medvedev_roundtrip.inst",
                       "--map", "medvedev", "--direction", "backward",
                       "--claim", "mass_claim"], capsys)
        assert code == 0

    def test_weihrauch_transposition_fixture(self, capsys):
        code, _ = run(["iso", FIXTURES / "weihrauch_transposition.inst",
                       "--map", "weihrauch", "--direction", "forward",
                       "--claim", "ctrans"], capsys)
        assert code == 0
        code, _ = run(["iso", FIXTURES / "weihrauch_transposition.inst",
                       "--map", "weihrauch", "--direction", "backward",
                       "--claim", "wclaim"], capsys)
        assert code == 0

    def test_extsw_dialectica_fixture(self, capsys):
        code, out = run(["iso", FIXTURES / "extsw_dialectica.inst",
                         "--map", "extsw_d", "--claim", "ext_claim"], capsys)
        assert code == 0
        assert "agreement holds" in out


# One instance per equivalence of `iso`, each with a completion claim
# `cclaim` (for the forward direction) and a claim `dclaim` in the concrete
# order (for backward).  <I>, <SND>, <KK> and <KS> stand for the identity,
# the second projection and the pairs <K, K> and <K, S>.
ISO_TERMS = {
    "<I>": "((S K) K)",
    "<SND>": "((S ((S K) K)) (K (K ((S K) K))))",
    "<KK>": "((S ((S ((S K) K)) (K K))) (K K))",
    "<KS>": "((S ((S ((S K) K)) (K K))) (K S))",
}


def _expand(text: str) -> str:
    for short, term in ISO_TERMS.items():
        text = text.replace(short, term)
    return text


_UNIVERSAL = """
carrier X = [K]
carrier Y = [K, S]
morphism f : Y -> X graph { K -> K, S -> K }
morphism med : Y -> Y graph { K -> K, S -> S }
witness bid = uniform <I>
"""
_CARRIER_PRODUCT = """
carrier X = [K]
carrier Y = [K, S]
carrier PXY = product X Y
morphism med : PXY -> PXY realizer <I> graph { <KK> -> <KK>, <KS> -> <KS> }
"""
_ASSEMBLY_PRODUCT = """
assembly X { point u names [K] }
assembly Y { point a names [K] point b names [S] }
assembly PXY = product X Y
extmorphism med : PXY -> PXY realizer <I> pointmap { (<KK>, (u, a)) -> (u, a), (<KS>, (u, b)) -> (u, b) }
witness bw = uniform <SND>
witness cmed = mediate h = med, base = bw
witness wfb = extfwback k = PXY_snd, h = <SND>
"""
ISO_INSTANCES = {
    "medvedev": _UNIVERSAL + """
tracked alpha over Y { K -> K, S -> S }
compobject obj = forall full T leg f payload alpha
witness w = mediate h = med, base = bid
claim cclaim : obj <=_comp obj by w
family phi over X { K -> [K, S] }
family psi over X { K -> [K, S] }
claim dclaim : phi <=_M psi by bid
""",
    "muchnik": _UNIVERSAL + """
tracked alpha over Y { K -> K, S -> S }
compobject obj = forall full Tw leg f payload alpha
witness pp = perpoint { K -> <I>, S -> <I> }
witness w = mediate h = med, base = pp
claim cclaim : obj <=_comp obj by w
witness bd = bounded 2
witness wb = mediate h = med, base = bd
claim bclaim : obj <=_comp obj by wb
family phi over X { K -> [K, S] }
witness mw = perpoint { (K, K) -> <I>, (K, S) -> <I> }
claim dclaim : phi <=_Mw phi by mw
""",
    "weihrauch": _CARRIER_PRODUCT + """
family fam over PXY policy nonempty { <KK> -> [K], <KS> -> [S] }
compobject obj = exists pure dW leg PXY_fst payload fam
witness bw = uniform <SND>
witness cmed = mediate h = med, base = bw
claim cclaim : obj <=_comp obj by cmed
predicate FP over X index Y policy nonempty { (K; K) -> [K], (K; S) -> [S] }
witness wfb = fwback k = PXY_snd, h = <SND>
claim dclaim : FP <=_W FP by wfb
""",
    "strong": _CARRIER_PRODUCT + """
family fam over PXY policy nonempty { <KK> -> [K], <KS> -> [S] }
compobject obj = exists pure dsW leg PXY_fst payload fam
witness bid = uniform <I>
witness cmed = mediate h = med, base = bid
claim cclaim : obj <=_comp obj by cmed
predicate FP over X index Y policy nonempty { (K; K) -> [K], (K; S) -> [S] }
witness sfb = fwback k = PXY_snd, h = <I>
claim dclaim : FP <=_SW FP by sfb
""",
    "realizer": _ASSEMBLY_PRODUCT + """
family fam over PXY policy nonempty { (<KK>, (u, a)) -> [K], (<KS>, (u, b)) -> [S] }
compobject obj = exists pure drW leg PXY_fst payload fam
claim cclaim : obj <=_comp obj by cmed
predicate FP over X index Y { ((K, u); (K, a)) -> [K], ((K, u); (S, b)) -> [S] }
claim dclaim : FP <=_rW FP by wfb
""",
    "extended": _ASSEMBLY_PRODUCT + """
family fam over PXY policy allowempty { (<KK>, (u, a)) -> [K], (<KS>, (u, b)) -> [] }
compobject obj = exists pure dextW leg PXY_fst payload fam
claim cclaim : obj <=_comp obj by cmed
predicate FP over X index Y policy allowempty { ((K, u); (K, a)) -> [K], ((K, u); (S, b)) -> [] }
claim dclaim : FP <=_tW FP by wfb
""",
    "dialectica": _UNIVERSAL + """
family alpha over Y { K -> [K], S -> [S] }
compobject obj = exists full M leg f payload alpha
witness w = mediate h = med, base = bid
claim cclaim : obj <=_comp obj by w
dialpredicate d over X { (K; [K]) -> [K], (K; [S]) -> [S] }
witness dw = dial { (K; [K]) -> [K], (K; [S]) -> [S] } h = <I>
claim dclaim : d <=_D d by dw
""",
    "extsw": """
carrier DOM = [K, S]
extpredicate f over DOM { K -> [[K]], S -> [] }
extpredicate g over DOM { K -> [[K, S]], S -> [] }
witness wes = extstrong k = <I>, choice { (K; [K]) -> [K, S] }, h = (K K)
claim ext_claim : f <=_extsW g by wes
family phi over DOM { K -> [K], S -> [] }
claim fam_claim : phi <=_extsW phi by wes
""",
}
_BACKWARD = "// canonical completion objects built from {0} and {1}\nresult dclaim holds\n"
_FORWARD_FB = ("{0} cclaim_transported_k : PXY -> Y realizer ((S (K <SND>)) ((S (K <I>)) <I>)) {1}\n"
               "witness cclaim_transported = {2} k = cclaim_transported_k, h = {3}\nresult cclaim holds\n")
_EXT_POINTMAP = "pointmap { (<KK>, (u, a)) -> a, (<KS>, (u, b)) -> b }"
# stdout of `iso` on each instance above, one row per map and direction
ISO_PINS = [
    ("medvedev", "forward", "cclaim",
     "witness cclaim_transported = uniform <I>\nresult cclaim holds\n"),
    ("medvedev", "backward", "dclaim", _BACKWARD.format("phi", "psi")),
    ("muchnik", "forward", "cclaim",
     "witness cclaim_transported = perpoint { (K, K) -> <I>, (K, S) -> <I> }\nresult cclaim holds\n"),
    ("muchnik", "backward", "dclaim", _BACKWARD.format("phi", "phi")),
    ("weihrauch", "forward", "cclaim",
     _FORWARD_FB.format("morphism", "graph { <KK> -> K, <KS> -> S }", "fwback", "<SND>")),
    ("weihrauch", "backward", "dclaim", _BACKWARD.format("FP", "FP")),
    ("strong", "forward", "cclaim",
     _FORWARD_FB.format("morphism", "graph { <KK> -> K, <KS> -> S }", "fwback", "<I>")),
    ("strong", "backward", "dclaim", _BACKWARD.format("FP", "FP")),
    ("realizer", "forward", "cclaim",
     _FORWARD_FB.format("extmorphism", _EXT_POINTMAP, "extfwback", "<SND>")),
    ("realizer", "backward", "dclaim", _BACKWARD.format("FP", "FP")),
    ("extended", "forward", "cclaim",
     _FORWARD_FB.format("extmorphism", _EXT_POINTMAP, "extfwback", "<SND>")),
    ("extended", "backward", "dclaim", _BACKWARD.format("FP", "FP")),
    ("dialectica", "forward", "cclaim",
     "witness cclaim_transported = dial { (K; [K]) -> [K], (K; [S]) -> [S] } h = <I>\nresult cclaim holds\n"),
    ("dialectica", "backward", "dclaim", _BACKWARD.format("d", "d")),
]


def _iso(tmp_path, capsys, name, *args):
    """Run `iso` on ISO_INSTANCES[name]: (exit code, stdout, stderr)."""
    path = tmp_path / f"{name}.inst"
    path.write_text(_expand(ISO_INSTANCES[name]))
    code = main(["iso", str(path), *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIsoEquivalences:
    @pytest.mark.parametrize("name, direction, claim, out", ISO_PINS,
                             ids=[f"{n}-{d}" for n, d, _, _ in ISO_PINS])
    def test_output_pinned(self, tmp_path, capsys, name, direction, claim, out):
        got = _iso(tmp_path, capsys, name, "--map", name, "--direction", direction, "--claim", claim)
        assert got == (0, _expand(out), "")

    def test_extpred_pinned(self, tmp_path, capsys):
        assert _iso(tmp_path, capsys, "extsw", "--map", "extpred", "--object", "f") == (
            0, "assembly f_assembly { point [K] names [K] }\n"
               "family f_family over f_assembly { (K, [K]) -> [K] }\n", "")

    def test_extsw_d_pinned(self, tmp_path, capsys):
        assert _iso(tmp_path, capsys, "extsw", "--map", "extsw_d", "--claim", "ext_claim") == (
            0, "result ext_claim_extsw holds\nresult ext_claim_pointwise holds\n"
               "result ext_claim_agreement holds\n", "")

    WRONG_ORDER = [
        ("medvedev", "muchnik", "backward", "dclaim", "takes <=_Mw claims"),
        ("weihrauch", "strong", "backward", "dclaim", "takes <=_SW claims"),
        ("extsw", "dialectica", "backward", "ext_claim", "takes <=_D claims"),
        ("medvedev", "muchnik", "forward", "cclaim", "takes <=_comp claims over Tw"),
        ("realizer", "weihrauch", "forward", "cclaim", "takes <=_comp claims over dW"),
        ("dialectica", "medvedev", "forward", "dclaim", "takes <=_comp claims over T"),
    ]

    @pytest.mark.parametrize("name, mapname, direction, claim, message", WRONG_ORDER,
                             ids=[f"{m}-{d}-on-{n}" for n, m, d, _, _ in WRONG_ORDER])
    def test_claim_of_another_order_is_an_input_error(self, tmp_path, capsys, name, mapname,
                                                      direction, claim, message):
        got = _iso(tmp_path, capsys, name, "--map", mapname, "--direction", direction, "--claim", claim)
        assert got == (3, "", f"error: --map {mapname} --direction {direction} {message}\n")

    def test_extsw_d_on_families_is_an_input_error(self, tmp_path, capsys):
        assert _iso(tmp_path, capsys, "extsw", "--map", "extsw_d", "--claim", "fam_claim") == (
            3, "", "error: extended strong reducibility needs extended predicates\n")

    def test_muchnik_forward_reads_a_bounded_base_as_least_inner_witnesses(self, tmp_path, capsys):
        assert _iso(tmp_path, capsys, "muchnik", "--map", "muchnik", "--claim", "bclaim") == (
            0, "witness bclaim_transported = perpoint { (K, K) -> (K K), (K, S) -> (K S) }\n"
               "result bclaim holds\n", "")


class TestComplete:
    def test_small_fiber_with_hasse(self, capsys):
        code, out = run(["--witness-size", "2", "complete", FIXTURES / "holds.inst",
                         "--object", "X", "--doc", "T", "--kind", "forall",
                         "--klass", "full", "--index-bound", "2"], capsys)
        assert code == 0
        assert "16 objects" in out
        assert "hasse" in out

    DW_EDGES = {("exists", "full"): 40, ("forall", "full"): 68, ("exists", "pure"): 30, ("forall", "pure"): 30}

    @pytest.mark.parametrize("kind", ["exists", "forall"])
    @pytest.mark.parametrize("klass", ["full", "pure"])
    def test_dw_payloads_are_nonempty(self, kind, klass, capsys):
        """A dW payload takes the nonempty policy, so the empty value is no
        option: singleton values only, 4 legs x 4 payloads (full) or one leg
        over a 4-point source x 16 payloads (pure).  Reindexing over the
        computable base needs a realized map, so the full class draws its
        mediators from realized maps too and its fiber has edges."""
        code, out = run(["--witness-size", "2", "complete", FIXTURES / "holds.inst", "--object", "X",
                         "--doc", "dW", "--kind", kind, "--klass", klass, "--index-bound", "2"], capsys)
        assert code == 0
        assert out.startswith("// completion fiber over X: 16 objects\n")
        assert "[]" not in out
        assert out.count("\nhasse ") == self.DW_EDGES[kind, klass]

    LEG_VALUES = ["(K K)", "K", "S"]  # text order, where point order puts (K K) last

    def _fiber(self, doc, kind, tmp_path, capsys):
        inst = tmp_path / "fiber.inst"
        inst.write_text("carrier A = [K, (K K), S]\ncarrier Y = [S]\n")
        code, out = run(["--witness-size", "2", "complete", inst, "--object", "A", "--doc", doc,
                         "--kind", kind, "--klass", "full", "--index-bound", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        return lines[0], [ln for ln in lines if ln.startswith("// object")], [ln for ln in lines if ln.startswith("hasse")]

    @staticmethod
    def _blocks(size, sources):
        """The Hasse edges i <= j within each leg's block of payloads, from
        the payload offsets in sources to every other offset."""
        return [f"hasse {b + i} <= {b + j}" for b in range(0, 3 * size, size)
                for i in sources for j in range(size) if i != j]

    def test_tracked_fiber_numbers_legs_and_payloads_in_text_order(self, tmp_path, capsys):
        head, objects, hasse = self._fiber("T", "forall", tmp_path, capsys)
        assert head == "// completion fiber over A: 9 objects"
        assert objects == [f"// object {3 * i + j}: leg {{ S -> {leg} }} payload {{ S -> {value} }}"
                           for i, leg in enumerate(self.LEG_VALUES) for j, value in enumerate(self.LEG_VALUES)]
        assert hasse == self._blocks(3, range(3))

    def test_mass_fiber_numbers_payloads_in_point_order(self, tmp_path, capsys):
        head, objects, hasse = self._fiber("M", "exists", tmp_path, capsys)
        assert head == "// completion fiber over A: 12 objects"
        payloads = ["[]", "[K]", "[S]", "[(K K)]"]
        assert objects == [f"// object {4 * i + j}: leg {{ S -> {leg} }} payload {{ S -> {value} }}"
                           for i, leg in enumerate(self.LEG_VALUES) for j, value in enumerate(payloads)]
        assert hasse == self._blocks(4, range(1, 4))


class TestSharedParser:
    """Calls made one after another in one process print what each prints
    when it is the first call of a fresh interpreter."""

    HOLDS = str(FIXTURES / "holds.inst")
    DEMO = str(FIXTURES / "coheyting_demo.inst")

    @staticmethod
    def _fresh(argv):
        proc = subprocess.run([sys.executable, "-m", "degreelab.cli", *argv], capture_output=True, text=True,
                              env=_env(COLUMNS="80"), timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.mark.parametrize("calls", [
        [["--fuel", "5", "--format", "machine", "check", HOLDS], ["--format", "machine", "check", HOLDS]],
        [["lattice", DEMO, "--op", "join", "--args", "psi", "rho"], ["lattice", DEMO, "--op", "top", "--base", "X"]],
        [["--format", "xml", "check", HOLDS], ["lattice", DEMO, "--args", "psi"],
         ["--format", "machine", "check", HOLDS]],
    ], ids=["fuel-then-instance-fuel", "args-then-none", "usage-errors-then-success"])
    def test_each_call_prints_what_a_fresh_process_prints(self, calls, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
        outputs = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        assert outputs == [self._fresh(argv) for argv in calls]
        assert len(set(outputs)) == len(calls)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "degreelab.cli", "check", str(FIXTURES / "holds.inst")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
