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
        code, out = run(["--fuel", "5", "--format", "machine", "laws"], capsys)
        assert code != 3
        assert sum(line.startswith("total ") for line in out.splitlines()) == 10


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


class TestComplete:
    def test_small_fiber_with_hasse(self, capsys):
        code, out = run(["--witness-size", "2", "complete", FIXTURES / "holds.inst",
                         "--object", "X", "--doc", "T", "--kind", "forall",
                         "--klass", "full", "--index-bound", "2"], capsys)
        assert code == 0
        assert "16 objects" in out
        assert "hasse" in out


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "degreelab.cli", "check", str(FIXTURES / "holds.inst")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
