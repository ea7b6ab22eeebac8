"""Tests of the benchmark itself: the reference reducer, input generation,
the tracer, and a smoke run of every workload.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import reference as ref
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
I = ref.app("S", "K", "K")


def _occurs(var, t) -> bool:
    return t == var or isinstance(t, tuple) and (_occurs(var, t[0]) or _occurs(var, t[1]))


def _abstract(var, body):
    """Textbook bracket abstraction: [x]x = I, [x]t = K t (x not in t), [x](t u) = S [x]t [x]u."""
    if body == var:
        return I
    if not _occurs(var, body):
        return ("K", body)
    return ref.app("S", _abstract(var, body[0]), _abstract(var, body[1]))


def test_identity_combinator():
    assert ref.normalize(ref.app(I, "x"), 100) == ("x", 2)  # S K K x -> K x (K x) -> x


def test_k_projection():
    assert ref.normalize(ref.app("K", "a", "b"), 100) == ("a", 1)


def test_weak_reduction_stops_at_partial_applications():
    for t in ("K", ("K", "a"), ("S", "a"), ref.app("S", "a", "b")):
        assert ref.normalize(t, 100) == (t, 0)


def test_pairing_and_projections():
    pair = _abstract("a", _abstract("b", _abstract("z", ref.app("z", "a", "b"))))
    fst = _abstract("p", ref.app("p", "K"))
    snd = _abstract("p", ref.app("p", ("K", I)))
    packed, _ = ref.normalize(ref.app(pair, "a", "b"), 1000)
    assert packed == ref.parse("((S ((S ((S K) K)) (K a))) (K b))") == ref.pair("a", "b")
    assert ref.normalize(ref.app(fst, packed), 1000)[0] == "a"
    assert ref.normalize(ref.app(snd, packed), 1000)[0] == "b"


def test_fuel_runs_out_on_a_divergent_term():
    omega = ref.app("S", I, I)
    assert ref.normalize(ref.app(omega, omega), 500) == (None, 500)


def test_parse_and_show_round_trip():
    for t in ref.enumerate_sk(3):
        assert ref.parse(ref.show(t)) == t
    with pytest.raises(ValueError):
        ref.parse("(K K K)")


def test_enumeration_counts_and_order():
    terms = ref.enumerate_sk(5)
    assert len(terms) == 2 + 4 + 16 + 80 + 448 + 2688
    assert [ref.show(t) for t in terms[:4]] == ["K", "S", "(K K)", "(K S)"]


def test_safe_arguments_never_run_out_of_fuel():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(50_000)  # reduction passes through terms of a few thousand nodes
    try:
        for arg in map(ref.parse, workloads.SAFE_ARGS + [workloads.ORACLE_ARG]):
            for c in ref.enumerate_sk(workloads.EXHAUST_SIZE):
                nf, _ = ref.normalize(ref.app(c, arg), workloads.FUEL, max_size=20_000)
                assert nf is not None, (ref.show(c), ref.show(arg))
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    def build(d):
        d.mkdir()
        ops = workloads.build(name, 7, 20, str(d))
        files = {f.name: f.read_text() for f in sorted(d.iterdir())}
        return json.dumps(ops).replace(str(d), "WORKDIR"), files

    assert build(tmp_path / "a") == build(tmp_path / "b")


def test_smoke_run_of_every_workload():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(results) == len(workloads.WORKLOADS)
    for r in results:
        assert r["correct"] and r["attempted"] >= 1 and r["failed"] == 0
        assert r["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "check", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_every_namespace_and_restores_them(capsys):
    import degreelab.cli as cli
    import degreelab.doctrines as doctrines
    import degreelab.search as search

    original = doctrines.check_le
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert search.check_le is doctrines.check_le is not original
        assert cli.main(["check", os.path.join(ROOT, "fixtures", "holds.inst")]) == 0
        with pytest.raises(doctrines.CheckError):  # re-raised unchanged: search relies on it
            search.check_le(None, "no-such-doctrine", None, None, None)
    finally:
        tracer.uninstall()
    assert search.check_le is doctrines.check_le is original
    metrics = tracer.metrics()
    assert metrics["doctrines.check_le_calls"] == 4 and metrics["doctrines.verdicts.holds"] == 3
    assert metrics["doctrines.check_errors"] == 1 and metrics["instance.parse_calls"] == 1


def test_tracer_refuses_to_run_when_a_function_is_missing(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", [("degreelab.search", "no_such_function", "search")] + spans.TARGETS)
    with pytest.raises(spans.CoverageError):
        spans.Tracer().install()
