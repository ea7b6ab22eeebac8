"""The layer tracer of the benchmark (bench/spans.py) must still find and
count every layer it wraps.

The traced benchmark run fails when a wrapped function is missing or a
required layer reports no calls; this test makes such a change fail here
too.  Enumeration in particular must keep going through ``enumerate_over``
by name, even where terms are generated lazily.
"""

import importlib.util
from pathlib import Path

from degreelab import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_search_reaches_the_enumeration(capsys):
    tracer = _load_spans().Tracer()
    tracer.install()  # raises CoverageError when a wrapped function is gone
    try:
        code = cli.main(["--format", "machine", "search", str(ROOT / "fixtures" / "holds.inst"), "refl"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out.startswith("witness refl_found = uniform ((S K) K)\n")
    metrics = tracer.metrics()
    assert metrics["terms.enumerate_calls"] > 0
    assert metrics["terms.enumerated_terms"] > 0
    assert "search.forward_map_calls" in metrics
