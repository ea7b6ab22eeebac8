"""The layer tracer of the benchmark (bench/spans.py) must still find and
count every layer it wraps.

The traced benchmark run fails when a wrapped function is missing or a
required layer reports no calls; this test makes such a change fail here
too.  Enumeration in particular must keep going through ``enumerate_over``
by name, even where terms are generated lazily, and every verdict through
``check_le`` with the doctrine id as its second argument.
"""

import importlib.util
from pathlib import Path

from degreelab import cli, search
from degreelab.instance import parse_instance

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = sorted((ROOT / "fixtures").glob("*.inst"))


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(*argvs):
    """Exit codes and per-layer metrics of CLI runs under the tracer."""
    tracer = _load_spans().Tracer()
    tracer.install()  # raises CoverageError when a wrapped function is gone
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        tracer.uninstall()
    return codes, tracer.metrics()


def test_traced_search_reaches_the_enumeration(capsys):
    (code,), metrics = _traced(["--format", "machine", "search", str(ROOT / "fixtures" / "holds.inst"), "refl"])
    assert code == 0
    assert capsys.readouterr().out.startswith("witness refl_found = uniform ((S K) K)\n")
    assert metrics["terms.enumerate_calls"] > 0
    assert metrics["terms.enumerated_terms"] > 0
    assert "search.forward_map_calls" in metrics


def test_traced_check_times_every_doctrine_the_fixtures_use(capsys):
    _, metrics = _traced(*(["--format", "machine", "check", str(f)] for f in FIXTURES))
    docs = {c.doc for f in FIXTURES for c in parse_instance(f.read_text()).claims} - {"comp"}
    assert len(docs) >= 5
    assert metrics["doctrines.check_le_calls"] > 0
    assert [d for d in sorted(docs) if not metrics[f"doctrines.check_le_us.{d}"] > 0] == []


def test_traced_search_checks_every_candidate_once(capsys):
    """The benchmark's traced search-exhaust run needs every candidate to be
    one ``check_le`` call: a search that decided candidates some other way
    would leave ``doctrines.check_le_calls`` at 0 and fail that run."""
    argv = ["--witness-size", "3", "--format", "machine", "search",
            str(ROOT / "fixtures" / "refuted.inst"), "impossible"]
    (code,), metrics = _traced(argv)
    assert code == 1
    assert capsys.readouterr().out.startswith("result impossible exhausted\n")
    assert metrics["search.candidates"] == metrics["search.candidates.refuted"] == 102
    assert metrics["doctrines.check_le_calls"] == 102


def test_traced_repeated_search_counts_the_candidates_checked(capsys):
    """``search.candidates`` counts candidates checked, not searches asked
    for: a claim searched twice on one structure is checked once, and the
    second search is answered from the structure's search memo."""
    inst = parse_instance((ROOT / "fixtures" / "refuted.inst").read_text())
    claim = next(c for c in inst.claims if c.name == "impossible")
    lhs, rhs = inst.element(claim.lhs), inst.element(claim.rhs)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        outcomes = [search.search_witness(inst.pca, claim.doc, lhs, rhs, search.SearchBudget(3, inst.fuel))
                    for _ in range(2)]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert outcomes[0] == outcomes[1] and outcomes[0].status == "exhausted"
    assert metrics["search.searches"] == 2
    assert metrics["search.candidates"] == metrics["doctrines.check_le_calls"] == 102


def test_traced_complete_counts_one_candidate_per_comp_le_call(capsys):
    """A ``complete`` run searches every ordered pair of its 16 objects
    (240 searches), and each candidate a completion search checks is one
    ``comp_le`` call made directly by that search."""
    argv = ["--witness-size", "2", "complete", str(ROOT / "fixtures" / "holds.inst"), "--object", "X",
            "--doc", "T", "--kind", "forall", "--klass", "full", "--index-bound", "2"]
    (code,), metrics = _traced(argv)
    assert code == 0
    assert capsys.readouterr().out.startswith("// completion fiber over X: 16 objects\n")
    assert metrics["search.searches"] == 240
    assert metrics["search.candidates"] == metrics["completions.comp_le_calls"] == 14266
