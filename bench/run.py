"""degreelab benchmark: verdict latency and search time, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke          # every workload briefly, traced

Workloads (see ``workloads.py``): ``check``, ``search-found``,
``search-exhaust`` and ``laws``.  A run generates its inputs from the seed,
then starts fresh ``python3`` children, one at a time, that import
``degreelab`` from ``src/`` and call ``degreelab.cli.main(argv)`` once per
operation.  Each child is one pass over all the operations; an operation's
latency is its median over the passes (``workloads.PASSES``).  Every output
is checked against an expected answer from the independent reference
reducer (``reference.py``), the fixtures or ``laws_checked.txt``.

Times are scaled to the reference machine speed with the calibration loop
in ``calibrate.py``, timed inside the children; the raw pass times are in
the report line.  ``setup_s`` is the median time from starting a child to
its ``ready`` line over eight probe children and the passes, scaled by all
the passes' calibration samples: the probes run just before them, and
between two sets of runs raw start-up time moved with the machine speed
(28 % once), which the scaling takes out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one more child runs
the operations with the layer boundaries wrapped (``spans.py``), and the
metrics are the per-layer ones plus ``trace.overhead_ratio``.  The line
before it records the environment, the seed and each wrong answer.

An operation counts as an error (``error_rate`` in the report;
``correct_share`` is 1 - error_rate) when it raised, exited with the wrong
status, reported a wrong verdict, counterexample or witness, or printed a
machine report that does not re-parse.  ``failed`` and ``correct`` count
every error except re-parse failures: the commit that defined this
benchmark has a known defect (a counterexample with composite terms does
not re-parse), which shows in ``correct_share`` instead of failing the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

sys.setrecursionlimit(10_000)  # reference.normalize recurses on argument depth

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from calibrate import EVERY_S, REFERENCE_S  # noqa: E402

PROBES = 8  # extra children that only start and import, for setup_s
DEADLINE_S = 170.0  # a run must end within 180 s

# Per-layer metrics each workload must exercise; a zero here means a rename
# or a dead path, so the traced run fails instead of reporting 0.
REQUIRED = {
    "check": ["instance.parse_calls", "doctrines.check_le_calls", "completions.comp_le_calls",
              "pca.normalize_calls", "terms.to_text_calls", "cli.self_s"],
    "search-found": ["terms.enumerate_calls", "terms.enumerated_terms", "terms.to_text_calls",
                     "search.searches", "search.candidates", "search.forward_map_calls",
                     "doctrines.check_le_calls", "pca.normalize_calls", "instance.format_s",
                     "gc.collections"],
    "search-exhaust": ["search.searches", "search.candidates", "doctrines.check_le_calls",
                       "doctrines.find_inner_witness_calls", "pca.normalize_calls", "pca.timeouts",
                       "pca.undefined", "terms.enumerate_calls"],
    "laws": [f"laws.suite_s.{s}" for s in workloads.SUITES] + [
        "terms.to_text_calls", "terms.enumerate_calls", "pca.normalize_calls",
        "doctrines.check_le_calls", "completions.comp_le_calls", "search.searches",
        "search.candidates", "gc.collections"],
}
# Layers a smoke run is too short to reach.
SMOKE_EXEMPT = {"pca.timeouts", "pca.undefined", "search.forward_map_calls", "completions.comp_le_calls"} | {
    f"laws.suite_s.{s}" for s in workloads.SUITES if s not in workloads.SMOKE_SUITES}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


# ---------------------------------------------------------------------------
# Environment


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        path = os.path.join(git, name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, workload: str, seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Children


class Child:
    """One fresh interpreter running child.py; setup_s is start to its 'ready' line."""

    def __init__(self, root: str, args: list[str]):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *args],
                                     cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line != "ready\n":
            self.wait(10)
            raise BenchError(f"child did not start (exit {self.proc.returncode}); is src/degreelab intact?")

    def wait(self, timeout: float) -> None:
        try:
            self.proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError(f"child ran past the {DEADLINE_S:.0f} s deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"child exited with status {self.proc.returncode}")


def probe_setup(root: str, deadline: float) -> list[float]:
    samples = []
    for _ in range(PROBES):
        child = Child(root, ["--probe"])
        child.wait(deadline - time.monotonic())
        samples.append(child.setup_s)
    return samples


def speed(samples: list) -> float:
    """Factor turning seconds measured while these [time, seconds] calibration
    samples were taken into seconds at the reference speed."""
    return REFERENCE_S / statistics.median(s for _, s in samples)


def scaled_latencies(result: dict) -> list[float]:
    """Each operation's latency scaled by the calibration samples taken while
    it ran or within two sampling periods of it."""
    samples, window = result["calibration"], 2 * EVERY_S
    out = []
    for op in result["ops"]:
        near = [ts for ts in samples if op["start"] - window <= ts[0] <= op["end"] + window]
        out.append(op["seconds"] * speed(near or samples))
    return out


def run_ops(root: str, workdir: str, ops: list[dict], trace: bool, reparse: bool, deadline: float,
            tag: str) -> dict:
    """One child's pass over the operations; its result plus its setup time."""
    job_path = os.path.join(workdir, f"job_{tag}.json")
    result_path = os.path.join(workdir, f"result_{tag}.json")
    job_ops = [{"argv": op["argv"], "reparse": op["reparse"] if reparse else None} for op in ops]
    with open(job_path, "w") as fh:
        json.dump({"ops": job_ops, "trace": trace}, fh)
    child = Child(root, [job_path, result_path])
    child.wait(deadline - time.monotonic())
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = child.setup_s
    return result


# ---------------------------------------------------------------------------
# Expected answers


_RESULT = re.compile(r"^result (\S+) (\S+)")
_LAW = re.compile(r"^law (\S+) (\S+) checked (\d+) violations (\d+) unknowns (\d+) -> (holds|unknown|refuted)$")
_SUITE = re.compile(r"^suite (\S+)$")
_TOTAL = re.compile(r"^total (\S+) violations (\d+) unknowns (\d+)$")


def _statuses(text: str) -> dict:
    return {m.group(1): m.group(2) for m in map(_RESULT.match, text.splitlines()) if m}


def judge(op: dict, res: dict, law_counts: dict) -> tuple[list[str], tuple[int, int]]:
    """(errors, (decided, out of)) for one operation's result."""
    exp, out = op["expect"], res["out"]
    if res["exc"] is not None:
        return [f"raised {res['exc']}"], (0, 1)
    errors = []
    if res.get("reparse_error"):
        errors.append(f"reparse: {res['reparse_error']}")
    kind = op["kind"]
    if kind == "check":
        if res["code"] != exp["code"]:
            errors.append(f"exit {res['code']}, expected {exp['code']}")
        if "statuses" in exp and _statuses(out) != exp["statuses"]:
            errors.append(f"statuses {_statuses(out)}, expected {exp['statuses']}")
        if "lines" in exp and out.splitlines() != exp["lines"]:
            errors.append(f"output {out.splitlines()}, expected {exp['lines']}")
        return errors, (int(res["code"] in (0, 1)), 1)
    if kind in ("search-found", "search-exhaust"):
        status = _statuses(out).get(exp["claim"])
        if kind == "search-found":
            if status != "found" or res["code"] != 0:
                return errors + [f"status {status} exit {res['code']}, expected found exit 0"], (0, 1)
            errors.extend(_judge_witness(exp, out))
        elif status not in ("exhausted", "unknown") or res["code"] != (1 if status == "exhausted" else 2):
            errors.append(f"status {status} exit {res['code']}, expected exhausted (1) or unknown (2)")
        return errors, (int(status in ("found", "exhausted")), 1)
    law_errors, decided = _judge_laws(exp["suite"], res, law_counts)
    return errors + law_errors, decided


def _judge_witness(exp: dict, out: str) -> list[str]:
    """The found witness is the pinned one, or no later than the planted one;
    a uniform witness must also re-check under the reference reducer."""
    lines = out.splitlines()
    if exp["first_line"] is not None and lines[:1] != [exp["first_line"]]:
        return [f"witness {lines[:1]}, expected {exp['first_line']!r}"]
    if exp["cases"] is None:
        return []
    m = re.match(r"^witness \S+ = uniform (.+)$", lines[0]) if lines else None
    if m is None:
        return [f"no uniform witness in {lines[:1]}"]
    w = ref.parse(m.group(1))
    errors = []
    if exp["planted"] is not None and ref.key(w) > ref.key(ref.parse(exp["planted"])):
        errors.append(f"witness {m.group(1)} comes after the planted {exp['planted']}")
    for arg, allowed in exp["cases"]:
        nf, _ = ref.normalize(ref.app(w, ref.parse(arg)), workloads.FUEL, max_size=5_000)
        if nf is None or ref.show(nf) not in allowed:
            errors.append(f"reference: {m.group(1)} on {arg} gives {nf and ref.show(nf)}, not in {allowed}")
            break
    return errors


def _judge_laws(suite: str, res: dict, law_counts: dict) -> tuple[list[str], tuple[int, int]]:
    """Errors, and (law instances decided, instances checked) for one suite."""
    errors, decided, checked_total = [], 0, 0
    if res["code"] != 0:
        errors.append(f"exit {res['code']}, expected 0")
    seen = {}
    for line in res["out"].splitlines():
        m = _LAW.match(line)
        if m:
            s, case, checked, violations, unknowns, _ = m.groups()
            seen[(s, case)] = int(checked)
            decided += int(checked) - int(unknowns)
            checked_total += int(checked)
            if int(violations):
                errors.append(f"{case}: {violations} violations")
        elif not (_SUITE.match(line) or _TOTAL.match(line)):
            errors.append(f"reparse: unrecognised laws line {line!r}")
    expected = {k: v for k, v in law_counts.items() if k[0] == suite}
    if seen != expected:
        diff = sorted(set(seen.items()) ^ set(expected.items()))
        errors.append(f"case counts differ from laws_checked.txt: {diff[:4]}")
    return errors, (decided, max(checked_total, 1))


# ---------------------------------------------------------------------------
# One run


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run(root: str, workload: str, seed: int, seconds: float, trace: bool, units: dict,
        smoke: bool = False) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = environment(root, workload, seed)
    if not os.path.isfile(os.path.join(root, "src", "degreelab", "cli.py")) or \
            not os.path.isdir(os.path.join(root, "fixtures")):
        raise BenchError("no degreelab checkout here: src/degreelab/cli.py and fixtures/ are needed")
    workdir = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    passes = 1 if smoke else workloads.PASSES[workload]
    try:
        ops = workloads.build(workload, seed, seconds, workdir, smoke)
        setup = probe_setup(root, deadline)
        # only the first pass re-parses reports; the others just time
        plain = [run_ops(root, workdir, ops, False, k == 0, deadline, f"plain{k}") for k in range(passes)]
        traced = run_ops(root, workdir, ops, True, False, deadline, "traced") if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            os.rmdir(os.path.dirname(workdir))

    law_counts = workloads.load_law_counts()
    wrong, failed, decided, out_of = [], 0, 0, 0
    for i, op in enumerate(ops):
        errors, (d, n) = judge(op, plain[0]["ops"][i], law_counts)
        others = [(f"pass {k + 2}", p) for k, p in enumerate(plain[1:])] + [("traced", traced)] * trace
        for label, other in others:
            errors += [f"{label}: {e}" for e in judge(op, other["ops"][i], law_counts)[0]]
        decided, out_of = decided + d, out_of + n
        if errors:
            wrong.append({"argv": op["argv"], "errors": errors})
            failed += any(not e.startswith("reparse") for e in errors)
    scaled = [scaled_latencies(p) for p in plain]
    latencies = [statistics.median(column) for column in zip(*scaled)]
    wall = sum(latencies)
    setup += [p["setup_s"] for p in plain]
    report = {"env": env, "operations": len(ops), "passes": passes, "error_rate": len(wrong) / len(ops),
              "wrong": wrong[:20], "run_s": time.monotonic() - start,
              "speed_factors": [speed(p["calibration"]) for p in plain],
              "raw_wall_s": [sum(r["seconds"] for r in p["ops"]) for p in plain]}
    if trace:
        t_factor = speed(traced["calibration"])
        metrics = {k: v * t_factor if units[k] in ("s", "us") else v / t_factor if units[k] == "1/s" else v
                   for k, v in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = sum(scaled_latencies(traced)) / wall
        required = [m for m in REQUIRED[workload] if not (smoke and m in SMOKE_EXEMPT)]
        zero = [m for m in required if not metrics.get(m)]
        if zero:
            raise BenchError(f"traced {workload} run exercised none of {zero}; a layer was renamed or bypassed")
    else:
        metrics = {
            "setup_s": statistics.median(setup) * speed([ts for p in plain for ts in p["calibration"]]),
            "wall_s": wall,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p99_ms": 1e3 * _percentile(latencies, 0.99),
            "decided_share": decided / out_of,
            "correct_share": 1 - len(wrong) / len(ops),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain) / 1024,
        }
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return {"report": report, "result": result}


def _units() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _emit(outcome: dict, units: dict) -> None:
    print(json.dumps(outcome["report"], sort_keys=True))
    result = dict(outcome["result"])
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run every workload briefly, traced")
    args = p.parse_args(argv)
    root = os.getcwd()
    try:
        units = _units()
        if args.smoke:
            ok = True
            for name in workloads.WORKLOADS:
                outcome = run(root, name, args.seed, 1, True, units, smoke=True)
                _emit(outcome, units)
                ok &= outcome["result"]["correct"]
            return 0 if ok else 1
        if args.workload is None:
            p.error("--workload is required without --smoke")
        _emit(run(root, args.workload, args.seed, args.seconds, bool(args.trace), units), units)
        return 0
    except (BenchError, OSError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
