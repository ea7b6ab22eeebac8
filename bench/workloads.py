"""Seeded workloads and their expected answers.

Every workload is a list of operations; an operation is one ``degreelab``
command line (``argv``) plus what a correct answer looks like (``expect``).
Generated instance files are written under the run's work directory; the
program sees only those files and the command lines.  Expected verdicts come
from the independent reference reducer in ``reference.py``, never from the
program under test.

Sizes are set so that, on a 2-core machine at the commit that defined the
benchmark, a run of ``--seconds 20`` measures about 20 seconds of work over
its passes.  ``laws`` always runs all ten suites once, about 26 seconds.
"""

from __future__ import annotations

import os
import random

import reference as ref
from spans import SUITES

FUEL = 10_000  # the CLI default; generated files declare no fuel of their own
REF_FUEL = FUEL // 10  # generated claims must normalize within a tenth of it

# (fixture, claim names with their expected statuses, exit status), as the
# fixtures' comments state and the seed commit reports.
CHECK_FIXTURES = [
    ("coheyting_demo.inst", {"to_join": "holds", "to_sub": "holds"}, 0),
    ("extsw_dialectica.inst", {"ext_claim": "holds"}, 0),
    ("holds.inst", {"refl": "holds", "vacuous_top": "holds", "elementary_self": "holds"}, 0),
    ("medvedev_roundtrip.inst", {"comp_claim": "holds", "mass_claim": "holds"}, 0),
    ("refuted.inst", {"impossible": "refuted"}, 1),
    ("shape_error.inst", {}, 3),
    ("unknown.inst", {"undecided": "unknown"}, 2),
    ("weihrauch_transposition.inst", {"ctrans": "holds", "wclaim": "holds"}, 0),
]

# Fixture claims with a witness: (fixture, claim, witness size bound, the first
# line of the machine report at the seed commit, and for uniform witnesses
# the (argument, allowed normal forms) pairs the reference re-checks).
# refl, vacuous_top and elementary_self keep the default size 7, whose
# enumeration is rebuilt eagerly (1.2-1.6 s, although vacuous_top's least
# witness is K); the others search to size 6 (wclaim 1.3 s instead of 7.5 s)
# so that a run can afford four passes.  The least witnesses are the same at
# both bounds.
_PAIR_KK, _PAIR_SS = "((S ((S ((S K) K)) (K K))) (K K))", "((S ((S ((S K) K)) (K S))) (K S))"
FOUND_FIXTURES = [
    ("holds.inst", "refl", 7, "witness refl_found = uniform ((S K) K)", [["K", ["K"]], ["S", ["S"]]]),
    ("holds.inst", "vacuous_top", 7, "witness vacuous_top_found = uniform K", []),
    ("holds.inst", "elementary_self", 7, "witness elementary_self_found = uniform ((S ((S K) K)) (K K))",
     [[_PAIR_KK, ["K"]], [_PAIR_SS, ["S"]]]),
    ("coheyting_demo.inst", "to_join", 6, "witness to_join_found = uniform (K K)",
     [["((S ((S ((S K) K)) (K K))) (K K))", ["K"]]]),
    ("weihrauch_transposition.inst", "wclaim", 6,
     "morphism wclaim_found_k : PXY -> Y realizer (K K) graph "
     "{ ((S ((S ((S K) K)) (K K))) (K K)) -> K, ((S ((S ((S K) K)) (K K))) (K S)) -> K }", None),
    ("extsw_dialectica.inst", "ext_claim", 6,
     "witness ext_claim_found = extstrong k = (K K), choice { (K; [K]) -> [K, S] }, h = (K K)", None),
]

# At size 6 both still time out on some candidates (unknown) or exhaust the
# inner search (exhausted), as at size 7, in 1.1 s and 0.6 s instead of 9 s
# and 5 s.
EXHAUST_FIXTURES = [("refuted.inst", "impossible", 6), ("unknown.inst", "undecided", 6)]

# Arguments on which no S/K term of size <= EXHAUST_SIZE runs out of fuel, so
# the seeded exhaust claims, which draw every argument from them, are decided
# (exhausted) by search.  Points other than the target may also get the
# oracle atom, on which 185 of those terms are undefined.  test_bench.py
# re-derives this with the reference.
EXHAUST_SIZE = 5
SAFE_ARGS = ["K", "(K K)", "(K (K K))", "(K (K S))", "(K (S K))"]
ORACLE_ARG = "#o1"

FOUND_SIZE = 6
# Generated operations per second of --seconds; with --seconds 20 a pass
# takes about 4, 6 and 4 s on check, search-found and search-exhaust.  A
# seeded search costs more or less depending on where its planted witness
# falls in the enumeration (three of them moved the median operation 24 %
# between seeds), so search-found has one, at size 6, cheaper than the
# size-7 fixture searches that set its median and slowest operation.
CHECK_FILES_PER_S = 50
FOUND_SEEDED_PER_S = 0.05
EXHAUST_SEEDED_PER_S = 1.0

# Fresh children that each run all of a workload's operations; an
# operation's latency is its median over them.  laws runs once: one pass
# already takes ~26 s.
PASSES = {"check": 4, "search-found": 4, "search-exhaust": 4, "laws": 1}

SMOKE_SUITES = ["isomorphism-suites", "beck-chevalley"]

WORKLOADS = ("check", "search-found", "search-exhaust", "laws")


def build(name: str, seed: int, seconds: float, workdir: str, smoke: bool = False) -> list[dict]:
    """The operations of one run, deterministic in (name, seed, seconds, smoke)."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, seconds, workdir, smoke)


def _op(argv, kind, expect, reparse=None) -> dict:
    return {"argv": [str(a) for a in argv], "kind": kind, "expect": expect, "reparse": reparse}


def _fixture(name: str) -> str:
    return os.path.join("fixtures", name)


def _write(workdir: str, fname: str, lines: list[str]) -> str:
    path = os.path.join(workdir, fname)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Random S/K material

_SMALL = ref.enumerate_sk(2)
NORMAL_SMALL = [t for t in _SMALL if ref.step(t) is None]  # normal terms, size <= 2
COMPOSITE_SMALL = [t for t in NORMAL_SMALL if isinstance(t, tuple)]
WITNESSES = ref.enumerate_sk(5)


def _nf(t):
    """Normal form within REF_FUEL, else None."""
    return ref.normalize(t, REF_FUEL)[0]


def _points(rng, lo=1, hi=3) -> list:
    return sorted(rng.sample(NORMAL_SMALL, rng.randint(lo, hi)), key=ref.key)


def _terms(terms) -> str:
    return "[" + ", ".join(ref.show(t) for t in sorted(set(terms), key=ref.key)) + "]"


def _family(name: str, base: str, values: dict) -> str:
    body = ", ".join(f"{ref.show(x)} -> {_terms(v)}" for x, v in sorted(values.items(), key=lambda kv: ref.key(kv[0])))
    return f"family {name} over {base} {{ {body} }}"


# ---------------------------------------------------------------------------
# check: small instances with 1-4 uniform-witness claims, verdicts known


def _gen_check_claim(rng, i: int, points: list, want: str):
    """Declarations and expected machine line for one claim whose verdict is
    `want`: "holds", "atomic" (refuted, counterexample of atoms only) or
    "composite" (refuted, some counterexample term is an application).
    None when this draw does not match or the reference cannot settle every
    position within REF_FUEL."""
    doc = rng.choice(["M", "T", "dW"])
    a = rng.choice(WITNESSES)
    lines = [f"witness w{i} = uniform {ref.show(a)}"]
    if doc == "T":
        rhs = {x: [rng.choice(NORMAL_SMALL)] for x in points}
    else:
        rhs = {x: rng.sample(NORMAL_SMALL, rng.randint(1, 3)) for x in points}
    if want != "holds":
        # plant the first failing position (x, b) with the wanted shape
        if want == "atomic":
            x, b = rng.choice([p for p in points if not isinstance(p, tuple)]), rng.choice(["K", "S"])
        else:
            x = rng.choice(points)
            b = rng.choice(COMPOSITE_SMALL if not isinstance(x, tuple) else NORMAL_SMALL)
        rhs[x] = [b] if doc == "T" else list({*rhs[x], b})
    rhs = {x: sorted(v, key=ref.key) for x, v in rhs.items()}
    images = {}
    for p in points:
        for q in rhs[p]:
            images[p, q] = _nf(ref.app(a, ref.pair(p, q) if doc == "dW" else q))
            if images[p, q] is None:
                return None
    lhs = {p: {images[p, q] for q in rhs[p]} for p in points}
    if want != "holds":
        lhs[x] = (lhs[x] - {images[x, b]}) | {rng.choice([t for t in NORMAL_SMALL if t != images[x, b]])}
    failing = [(x, b) for x in points for b in rhs[x] if images[x, b] not in lhs[x]]
    if not failing:
        verdict, result = "holds", f"result c{i} holds"
    else:
        x, b = failing[0]
        verdict = "composite" if isinstance(x, tuple) or isinstance(b, tuple) else "atomic"
        result = f"result c{i} refuted counterexample ({ref.show(x)}, {ref.show(b)})"
    if verdict != want:
        return None
    if doc == "T":
        for nm, fam in (("alpha", {x: min(lhs[x], key=ref.key) for x in points}),
                        ("beta", {x: rhs[x][0] for x in points})):
            body = ", ".join(f"{ref.show(x)} -> {ref.show(fam[x])}" for x in points)
            lines.append(f"tracked {nm}{i} over X {{ {body} }}")
        lines.append(f"claim c{i} : alpha{i} <=_T beta{i} by w{i}")
    else:
        lines.append(_family(f"phi{i}", "X", lhs))
        lines.append(_family(f"psi{i}", "X", rhs))
        lines.append(f"claim c{i} : phi{i} <=_{doc} psi{i} by w{i}")
    return lines, result


def _check(rng, seconds, workdir, smoke):
    ops = []
    for fixture, statuses, code in CHECK_FIXTURES:
        ops.append(_op(["--format", "machine", "check", _fixture(fixture)], "check",
                       {"code": code, "statuses": statuses}, reparse="output"))
    n_files = 9 if smoke else max(3, round(CHECK_FILES_PER_S * seconds))
    for f in range(n_files):
        lines, results = _gen_check_file(rng, f)
        path = _write(workdir, f"check_{f}.inst", lines)
        code = 1 if any(" refuted " in r for r in results) else 0
        ops.append(_op(["--format", "machine", "check", path], "check",
                       {"code": code, "lines": results}, reparse="output"))
    return ops


def _gen_check_file(rng, f: int):
    """A file of 1-4 claims.  Files come in thirds: every claim holds; some
    claim refuted and every counterexample atomic; some counterexample
    composite.  Fixed shares keep decided_share and correct_share from
    varying between seeds."""
    kind = f % 3
    points = _points(rng)
    while kind == 1 and all(isinstance(x, tuple) for x in points):
        points = _points(rng)
    shapes = ["holds", "atomic", "composite"][: kind + 1]
    if all(isinstance(x, tuple) for x in points) and kind == 2:
        shapes.remove("atomic")
    n_claims = rng.randint(1, 4)
    wants = [rng.choice(shapes) for _ in range(n_claims)]
    wants[rng.randrange(n_claims)] = shapes[-1]
    lines = [f"// generated check instance {f}", "oracle #o1 { }", f"carrier X = {_terms(points)}"]
    results = []
    for want in wants:
        claim = None
        while claim is None:
            claim = _gen_check_claim(rng, len(results), points, want)
        lines.extend(claim[0])
        results.append(claim[1])
    return lines, results


# ---------------------------------------------------------------------------
# search-found: claims with a planted witness w* of size 2-4

# Size 2-4, so a seeded search checks at most the 562 candidates up to size 4:
# a size-5 witness cost one seed 1.5 s where the others took 0.2 s.
PLANTED = [t for t in ref.enumerate_sk(4) if ref.size(t) >= 2]


def _found(rng, seconds, workdir, smoke):
    ops = []
    fixtures = FOUND_FIXTURES[:1] if smoke else FOUND_FIXTURES
    for fixture, claim, size, first_line, cases in fixtures:
        expect = {"claim": claim, "first_line": first_line, "planted": None, "cases": cases}
        ops.append(_op(["--witness-size", size, "--format", "machine", "search", _fixture(fixture), claim],
                       "search-found", expect, reparse=_fixture(fixture)))
    n = 1 if smoke else max(1, round(FOUND_SEEDED_PER_S * seconds))
    for f in range(n):
        doc = rng.choice(["M", "dW"])
        while True:
            w = rng.choice(PLANTED)
            points = _points(rng)
            rhs = {x: rng.sample(NORMAL_SMALL, rng.randint(1, 3)) for x in points}
            args = {x: [b if doc == "M" else ref.pair(x, b) for b in rhs[x]] for x in points}
            images = {x: [_nf(ref.app(w, arg)) for arg in args[x]] for x in points}
            if all(nf is not None for v in images.values() for nf in v):
                break
        lhs = {x: set(images[x]) | {rng.choice(NORMAL_SMALL)} for x in points}
        lines = [f"// generated search instance {f}: planted witness {ref.show(w)}", "oracle #o1 { }",
                 f"carrier X = {_terms(points)}", _family("phi", "X", lhs), _family("psi", "X", rhs),
                 "witness w = uniform K", f"claim c : phi <=_{doc} psi by w"]
        path = _write(workdir, f"found_{f}.inst", lines)
        expect = {"claim": "c", "first_line": None, "planted": ref.show(w),
                  "cases": [[ref.show(arg), sorted(ref.show(t) for t in lhs[x])]
                            for x in points for arg in args[x]]}
        ops.append(_op(["--witness-size", FOUND_SIZE, "--format", "machine", "search", path, "c"],
                       "search-found", expect, reparse=path))
    return ops


# ---------------------------------------------------------------------------
# search-exhaust: claims no S/K witness satisfies


def _exhaust(rng, seconds, workdir, smoke):
    ops = []
    fixtures = [] if smoke else EXHAUST_FIXTURES
    for fixture, claim, size in fixtures:
        ops.append(_op(["--witness-size", size, "--format", "machine", "search", _fixture(fixture), claim],
                       "search-exhaust", {"claim": claim}, reparse=_fixture(fixture)))
    n = 3 if smoke else max(3, round(EXHAUST_SEEDED_PER_S * seconds))
    safe = [ref.parse(t) for t in SAFE_ARGS]
    args = safe + [ORACLE_ARG]
    for f in range(n):
        # Two M claims to one Mw claim, all arguments safe: every seeded claim
        # is decided, and their costs vary little between seeds.
        doc = "Mw" if f % 3 == 2 else "M"
        points = _points(rng, 2, 3)
        target = rng.randrange(len(points))
        lhs, rhs = {}, {}
        for j, x in enumerate(points):
            rhs[x] = rng.sample(safe if j == target else args, rng.randint(1, 2))
            if j == target:
                continue
            if j > target:
                lhs[x] = set(rng.sample(NORMAL_SMALL, 2))
                continue
            # earlier points accept whatever a seeded sample of candidates
            # yields, leaving out an applied oracle (undefined for the program)
            accepted = set()
            for c in rng.sample(WITNESSES, rng.randint(1, 4)):
                for b in rhs[x]:
                    nf = _nf(ref.app(c, b))
                    if nf is not None and f"({ORACLE_ARG} " not in ref.show(nf):
                        accepted.add(nf)
            lhs[x] = accepted or {rhs[x][0]}
        body = ", ".join(
            f"{ref.show(x)} -> " + ("[#o1]" if j == target else _terms(lhs[x])) for j, x in enumerate(points))
        lines = [f"// generated exhaust instance {f}", "oracle #o1 { }", f"carrier X = {_terms(points)}",
                 f"family phi over X {{ {body} }}", _family("psi", "X", rhs),
                 "witness w = uniform K", f"claim c : phi <=_{doc} psi by w"]
        path = _write(workdir, f"exhaust_{f}.inst", lines)
        ops.append(_op(["--witness-size", EXHAUST_SIZE, "--format", "machine", "search", path, "c"],
                       "search-exhaust", {"claim": "c"}, reparse=path))
    return ops


# ---------------------------------------------------------------------------
# laws: every suite once, in a seeded order


def load_law_counts() -> dict:
    """(suite, case) -> checked, from laws_checked.txt."""
    counts = {}
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "laws_checked.txt")) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                suite, case, checked = line.split()
                counts[(suite, case)] = int(checked)
    return counts


def _laws(rng, seconds, workdir, smoke):
    suites = list(SMOKE_SUITES if smoke else SUITES)
    rng.shuffle(suites)
    return [_op(["--format", "machine", "laws", s], "laws", {"suite": s}) for s in suites]


_BUILDERS = {"check": _check, "search-found": _found, "search-exhaust": _exhaust, "laws": _laws}
