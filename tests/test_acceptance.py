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
from degreelab import laws
from degreelab.doctrines import (
    Bounded,
    CheckError,
    MassFamily,
    PerPoint,
    check_le,
    implication_adjunction_witness,
    lattice_element,
)
from degreelab.laws import SUITES, _tracked_objects
from degreelab.pca import Pca
from degreelab.search import EXHAUSTED, SearchBudget, search_completion_witness, search_witness
from degreelab.spaces import carrier
from degreelab.terms import K, Oracle

BOUNDS = {
    "pca-laws": 5.0,
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


LAW_COUNTS = Path(__file__).resolve().parent.parent / "bench" / "laws_checked.txt"


# The cases whose checks end unknown at the default fuel, with how many do;
# every other case has none.
LAW_UNKNOWNS = {
    ("pca-laws", "s-law"): 661,
    ("bracket-abstraction", "substitution"): 54,
    ("muchnik-heyting", "adjunction-agreement"): 288,
}


def _law_counts(suite):
    """{case: checked} that the benchmark expects of a suite."""
    rows = (line.split() for line in LAW_COUNTS.read_text().splitlines()
            if line.strip() and not line.startswith("#"))
    return {case: int(checked) for s, case, checked in rows if s == suite}


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
    counts = {r.case: r.checked for r in report.records}
    assert counts == _law_counts(name), f"criterion {number}: law counts differ from {LAW_COUNTS.name}"
    unknowns = {r.case: r.unknowns for r in report.records}
    assert unknowns == {case: LAW_UNKNOWNS.get((name, case), 0) for case in counts}, \
        f"criterion {number}: unknown counts differ from LAW_UNKNOWNS"
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


def test_muchnik_search_agreement_claims_exhaust_on_both_sides():
    # the completion search walks each payload claim as the Mw search walks
    # its claim: where no per-point table lies within the bound, both exhaust
    pca = Pca(oracles={"o1": {}})
    row = iso.EQUIVALENCES["muchnik"]
    objects = _tracked_objects(pca, "Tw")[::4]
    budget = SearchBudget(witness_size=2)
    lhs = objects[3]  # #o1 over both points
    for rhs in objects[1:3]:  # K, then S, over both points
        cw = search_completion_witness(pca, lhs, rhs, budget)
        mw = search_witness(pca, "Mw", row.from_completion(pca, lhs), row.from_completion(pca, rhs), budget)
        assert (cw.status, mw.status) == (EXHAUSTED, EXHAUSTED)


def test_imp_to_meet_transport_reads_the_mw_search_table():
    # rho <= (phi -> psi) holds, and no solution of psi reaches phi: the
    # transport needs the table of the left claim, which a bounded witness
    # does not give
    pca = Pca(oracles={"o1": {}})
    base = carrier(pca, [K])
    phi, psi = MassFamily(base, {K: frozenset()}), MassFamily(base, {K: frozenset([Oracle("o1")])})
    rho = psi
    imp = lattice_element(pca, "implies", "Mw", phi, psi, bound=5)
    meet = lattice_element(pca, "meet", "Mw", phi, rho)
    with pytest.raises(CheckError, match="need a per-point witness"):
        implication_adjunction_witness(pca, "imp_to_meet", phi, psi, rho, Bounded(5), 5)
    table = search_witness(pca, "Mw", rho, imp, SearchBudget(5)).witness
    tw = implication_adjunction_witness(pca, "imp_to_meet", phi, psi, rho, table, 5)
    assert check_le(pca, "Mw", meet, psi, tw).holds
    # the suite hands the transport that table
    with mock.patch.object(laws, "implication_adjunction_witness",
                           wraps=implication_adjunction_witness) as transport:
        SUITES["muchnik-heyting"](Pca(oracles={"o1": {}}), None)
    assert transport.call_args_list
    assert all(isinstance(c.args[5], PerPoint) for c in transport.call_args_list)


def test_adjoint_agreement_counts_unknown_searches():
    # at fuel 2, 768 of the 1,936 pairs of searches end unknown on both sides
    report = SUITES["adjoint-suites"](Pca(oracles={"o1": {}}), 2)
    agree = next(r for r in report.records if r.case == "forall-both-or-neither")
    assert (agree.checked, agree.violations, agree.unknowns) == (1936, 0, 768)


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
