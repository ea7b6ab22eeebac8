"""One measured run: a fresh interpreter that drives ``degreelab.cli.main``.

Usage: python3 bench/child.py JOB.json RESULT.json

The program is imported first and ``ready`` is printed at once, so the
clock in ``run.py`` from process start to that line is interpreter start plus
``import degreelab.cli``.  With ``--probe`` in place of the job file the child
exits right after.  Otherwise it runs each operation of the job in order and
writes its output, exit status and latency to RESULT.json.

A timer signal runs the calibration loop (``calibrate.py``) every
``calibrate.EVERY_S``, also in the middle of an operation, so each operation can
be scaled by the machine speed while it ran.  The time the loop takes inside
an operation is subtracted from that operation's latency.
"""

import sys

import degreelab.cli

sys.stdout.write("ready\n")
sys.stdout.flush()


def _run(job: dict) -> dict:
    import contextlib
    import io
    import resource
    import signal
    import time

    from calibrate import EVERY_S, calibrate
    from degreelab.instance import parse_instance

    clock = time.perf_counter
    samples = []  # [time, seconds] per calibration

    def sample(*_):
        start = clock()
        samples.append([start, calibrate()])

    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    results = []
    sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
    try:
        for op in job["ops"]:
            out, err = io.StringIO(), io.StringIO()
            code = exc = None
            first = len(samples)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                try:
                    code = degreelab.cli.main(op["argv"])
                except (Exception, SystemExit) as e:  # recorded as a wrong answer; the run goes on
                    exc = f"{type(e).__name__}: {e}"
                end = clock()
            calibrating = sum(s for _, s in samples[first:])
            results.append({"code": code, "exc": exc, "out": out.getvalue(), "err": err.getvalue(),
                            "start": start, "end": end, "seconds": end - start - calibrating})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    sample()
    for op, res in zip(job["ops"], results):
        res["reparse_error"] = None
        if op["reparse"] and res["exc"] is None:
            source = res["out"]
            if op["reparse"] != "output":
                with open(op["reparse"]) as fh:
                    source = fh.read() + "\n" + source
            try:
                parse_instance(source)
            except Exception as e:
                res["reparse_error"] = f"{type(e).__name__}: {e}"
    report = {"ops": results, "calibration": samples,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.metrics()
    return report


def main(argv) -> int:
    if argv[1] == "--probe":
        return 0
    import json

    with open(argv[1]) as fh:
        job = json.load(fh)
    report = _run(job)
    with open(argv[2], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
