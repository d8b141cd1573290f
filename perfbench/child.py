"""Worker process of the benchmark.

Reads one job as JSON on stdin, imports `volentropy` (timing the import),
runs the job's operations one after another, and writes one JSON object on
stdout.  The import is timed as the CPU time (user and system) of the
calling thread, each operation both so and as wall time.  Next to each CPU
time the worker times `calibrate()`, a fixed loop that measures how fast the
CPU runs just then.
A job is

    {"workload": "entropy-large" | "table-wide" | "verify-cli" | "probe",
     "ops": [...], "trace": true | false}

`probe` only imports the package.  With "trace" false the worker refuses to
run if any trace wrapper is bound; with "trace" true it installs them first
and returns its spans.  Python-level writes to stdout and stderr during an
operation are captured per operation and returned with its result.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _run_op(volentropy, workload: str, op):
    if workload == "entropy-large":
        n, orientable = op
        r = volentropy.volume_entropy(volentropy.PresentationSpec(n, orientable))
        return {
            "lambda": r.lambda_,
            "entropy": r.entropy,
            "consistent": r.consistent,
            "bounds_hold": r.bounds_hold,
        }
    if workload == "table-wide":
        return [
            {
                "n": row.n,
                "lambda": row.lambda_,
                "entropy": row.entropy,
                "lower_bound": row.lower_bound,
                "upper_bound": row.upper_bound,
                "gap": row.gap,
            }
            for row in volentropy.entropy_table(op, op)
        ]
    if workload == "verify-cli":
        return {"code": volentropy.cli.main(list(op))}
    raise ValueError(f"unknown workload {workload!r}")


def calibrate(units: int = 1) -> float:
    """CPU seconds of the calling thread per unit of a fixed pure-Python loop.

    Exact `Fraction` arithmetic on growing integers, the kind of work the
    library's exact layers do.  Its time moves with the speed the host gives
    the CPU, and nothing in `volentropy` can change it.
    """
    from fractions import Fraction  # here, so it is not charged to the import

    c = time.thread_time()
    for _ in range(units):
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i * i + 1)
    return (time.thread_time() - c) / units


def main() -> int:
    job = json.load(sys.stdin)
    c0 = time.thread_time()
    import volentropy

    import_s = time.thread_time() - c0
    import_cal_s = calibrate(3)

    import spans
    import volentropy.cli

    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    else:
        bound = spans.installed_wrappers()
        if bound:
            raise RuntimeError(f"untraced run found trace wrappers: {bound}")

    results = []
    for op_id, op in enumerate(job["ops"]):
        if tracer is not None:
            tracer.op = op_id
        out, err = io.StringIO(), io.StringIO()
        rec = {"op": op, "cal_s": calibrate()}
        t, c = time.perf_counter(), time.thread_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rec["output"] = _run_op(volentropy, job["workload"], op)
        except Exception as exc:  # an operation that raises is a failed operation
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["cpu_s"] = time.thread_time() - c
        rec["latency_s"] = time.perf_counter() - t
        rec["stdout"] = out.getvalue()
        rec["stderr"] = err.getvalue()
        results.append(rec)

    report = {
        "import_s": import_s,
        "import_cal_s": import_cal_s,
        "results": results,
        "spans": tracer.spans if tracer is not None else [],
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
