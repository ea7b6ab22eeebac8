"""Acceptance gate: one test per criterion, each printing a visible
pass/fail line with its check counts and elapsed time.

All criteria are property-based at desk scale.  "Zero violations" means no
law instance was definitively refuted; bounded checks may stay unknown and
their rate is reported where the criterion asks for it.
"""

import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from degreelab import isomorphisms as iso
from degreelab.laws import SUITES
from degreelab.pca import Pca

BOUNDS = {
    "pca-laws": 10.0,
    "bracket-abstraction": 5.0,
    "pairing": 5.0,
    "medvedev-coheyting": 5.0,
    "muchnik-heyting": 5.0,
    "adjoint-suites": 5.0,
    "beck-chevalley": 5.0,
    "isomorphism-suites": 5.0,
    "extsw-dialectica": 5.0,
    "extasm-category": 5.0,
}


@pytest.fixture(scope="module")
def structure():
    return Pca(oracles={"o1": {}})


def _announce(number, name, report, elapsed, extra=""):
    line = (
        f"ACCEPTANCE {number} [{name}]: "
        f"{'PASS' if report.violations == 0 else 'FAIL'} "
        f"({report.checked} checks, {report.violations} violations, "
        f"{report.unknowns} unknown, {elapsed:.2f}s{extra})\n"
    )
    sys.__stdout__.write(line)
    sys.__stdout__.flush()


def _run(number, name, structure, extra_fn=None):
    start = time.monotonic()
    report = SUITES[name](structure, None)
    elapsed = time.monotonic() - start
    extra = extra_fn(report) if extra_fn else ""
    _announce(number, name, report, elapsed, extra)
    assert report.violations == 0, f"criterion {number}: {report.violations} violations"
    assert elapsed < BOUNDS[name], f"criterion {number}: {elapsed:.1f}s over {BOUNDS[name]}s"
    return report


def test_criterion_01_pca_laws(structure):
    report = _run(1, "pca-laws", structure)
    assert report.checked > 50_000  # the full pair space plus the S-law family


def test_criterion_02_bracket_abstraction(structure):
    report = _run(2, "bracket-abstraction", structure)
    assert report.checked == 471 * 22  # every body times every argument


def test_criterion_03_pairing(structure):
    report = _run(3, "pairing", structure)
    assert report.unknowns == 0  # pairing never times out on normal arguments


def test_criterion_04_medvedev_coheyting(structure):
    report = _run(4, "medvedev-coheyting", structure)
    assert report.unknowns == 0
    cases = {r.case for r in report.records}
    assert {"bottom-least", "top-greatest", "meet-below-left", "meet-below-right",
            "meet-greatest-lower", "join-above-left", "join-above-right",
            "join-least-upper", "subtract-to-join", "join-to-subtract"} <= cases


def test_criterion_05_muchnik_heyting(structure):
    def rate(report):
        agree = next(r for r in report.records if r.case == "adjunction-agreement")
        return f", unknown rate {agree.unknowns}/{agree.checked}"

    report = _run(5, "muchnik-heyting", structure, rate)
    agree = next(r for r in report.records if r.case == "adjunction-agreement")
    assert agree.checked == 7 ** 3  # all triples over the singleton instance family


def test_criterion_06_adjoint_suites(structure):
    report = _run(6, "adjoint-suites", structure)
    cases = {r.case for r in report.records}
    assert "forall-transpose" in cases and "exists-transpose" in cases
    assert "pure-forall-transpose" in cases
    assert "pure-forall-drW-transpose" in cases and "pure-forall-dextW-transpose" in cases


def test_criterion_07_beck_chevalley(structure):
    report = _run(7, "beck-chevalley", structure)
    cases = {r.case for r in report.records}
    assert cases == {"mass-forall", "pure-exists"}


def test_criterion_08_isomorphism_suites(structure):
    report = _run(8, "isomorphism-suites", structure)
    cases = {r.case for r in report.records}
    for stem in ("medvedev", "muchnik", "W", "SW", "rW", "tW", "dialectica"):
        assert any(c.startswith(stem) and c.endswith("roundtrip") for c in cases), stem
    assert report.unknowns == 0


@pytest.mark.xfail(strict=True, reason="search agreement compares found flags only, so an unknown "
                                       "completion search counts as decided (ROADMAP defect 4)")
def test_muchnik_search_agreement_counts_unknown_searches(structure):
    # 2 of the 16 completion searches run out of fuel, 4 candidates each
    report = SUITES["isomorphism-suites"](structure, None)
    agree = next(r for r in report.records if r.case == "muchnik-search-agreement")
    assert (agree.checked, agree.unknowns) == (16, 2)


def test_criterion_09_extsw_dialectica(structure):
    with mock.patch.object(iso, "dialectica_shift", wraps=iso.dialectica_shift) as shift:
        report = _run(9, "extsw-dialectica", structure)
    assert report.unknowns == 0  # every compared witness decided on both sides
    shifted = [c.args[1:3] for c in shift.call_args_list]  # (G, k)
    assert shifted and len(set(shifted)) == len(shifted)  # each shift built once


def test_criterion_10_extasm_category(structure):
    report = _run(10, "extasm-category", structure)
    cases = {r.case for r in report.records}
    assert {"identity-laws", "associativity", "mediator-checks",
            "triangle-left", "triangle-right", "mediator-unique"} <= cases


def _machine_laws_under_hash_seeds(seeds):
    """`degreelab --format machine laws` output, one fresh interpreter per
    PYTHONHASHSEED, all running at once."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    procs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        procs.append(subprocess.Popen([sys.executable, "-m", "degreelab.cli", "--format", "machine", "laws"],
                                      env=env, stdout=subprocess.PIPE, text=True))
    try:
        outs = [proc.communicate(timeout=600)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert all(proc.returncode == 0 for proc in procs)
    return outs


def test_criterion_11_determinism():
    start = time.monotonic()
    first, second = _machine_laws_under_hash_seeds((0, 1))
    elapsed = time.monotonic() - start
    ok = first == second and first.startswith("suite ")
    sys.__stdout__.write(
        f"ACCEPTANCE 11 [determinism]: {'PASS' if ok else 'FAIL'} "
        f"(byte-identical machine reports under PYTHONHASHSEED 0 and 1, {elapsed:.2f}s)\n"
    )
    sys.__stdout__.flush()
    assert ok
