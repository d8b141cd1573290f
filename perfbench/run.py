"""Benchmark of volentropy: three oracle-checked workloads and a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it puts `src` on PYTHONPATH for its
child processes, the same way the tier-1 tests do, so nothing needs to be
installed.  Workloads (see perfbench/README.md for why each was chosen):

  entropy-large  volume_entropy(PresentationSpec(n, orientable)) for every
                 valid pair with n = 12..24 (20 inputs); runs on request but
                 is not in BENCHMARK.json: on a shared host its times
                 move too much from run to run to be gated
  table-wide     entropy_table(n, n) for n = 3..150 (148 inputs)
  verify-cli     `volentropy verify --n-max 10 --format json`, one process
                 per operation

Each is a closed loop with one client: the next operation starts when the
previous one has returned.  One pass runs every input once, in an order
shuffled by --seed, inside one fresh child process; the run repeats passes,
each in a fresh child, until it has the workload's minimum sample count and
the next pass would end past --seconds.  Only one child runs at a time.

Operation and import times are CPU time (user + system): of the calling
thread for a library call, of the whole process for a `verify-cli` command,
rescaled to a reference CPU speed by a calibration loop timed next to each
of them (see REF_CAL_S).  Unscaled CPU times and wall-clock times are
printed on the note lines.

Every output is checked against the mpmath oracle in oracle.py, computed
before timing starts.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics, taken
from traced passes that alternate with untraced ones for --seconds.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import oracle
import spans as spanlib
from child import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run must end within 180 s; children are killed past this point.
DEADLINE_S = 165.0
# Child processes that only import the package, run between passes of the
# untraced phase: one per PROBE_EVERY_S of measured time, and at least
# MIN_PROBES.  Spreading them over the run keeps a few seconds of machine
# noise from setting setup_s.
PROBE_EVERY_S = 6.0
MIN_PROBES = 9

# Every CPU time t is reported as t * REF_CAL_S / cal, where cal is the CPU
# time of one unit of child.calibrate() measured next to it, and REF_CAL_S is
# that unit's median time on the machine the benchmark was defined on.  There,
# a 2-core virtual machine shared with other tenants, the CPU's speed moved by
# up to 50% between stretches of seconds to minutes; the loop's time moves
# with it, so the rescaled times hold still while the raw ones do not.
REF_CAL_S = 0.0025
# Calibration units timed before and after each verify-cli command, which
# runs in a process of its own for 2-3 s.
CLI_CAL_UNITS = 5

# Tolerances against the oracle.  lambda_n promises its root to within 1e-12;
# the table prints gap with four significant digits, so a gap is wrong when
# its relative error exceeds half a unit in the fourth digit.
LAMBDA_ATOL = 1e-12
ENTROPY_ATOL = 1e-12
GAP_RTOL = 5e-4
SMALLEST_FLOAT = mpmath.mpf(2) ** -1074

# Known defect at the time the benchmark was defined: the table's gap column
# is computed as log(2n-1) - log(lambda) in floats, which cancels once the
# gap nears the spacing of floats around log(2n-1).  Against the oracle its
# relative error is 3e-6 at n = 8, 2e-3 at n = 10 and 12x at n = 12, so it
# fails GAP_RTOL for n = 10..150.  Those wrong outputs are counted in
# wrong_frac; any other wrong output makes the run incorrect.
KNOWN_GAP_DEFECT = frozenset(range(10, 151))

VERIFY_ARGV = ("verify", "--n-max", "10", "--format", "json")
VERIFY_CHECKS = 74  # 9 checks at each rank 3..10, plus reference-rows at 3 and 4

WORKLOADS = {
    "entropy-large": {
        "inputs": [(n, o) for n in range(12, 25) for o in (False, True) if not (o and n % 2)],
        "min_ops": 40,
    },
    "table-wide": {"inputs": list(range(3, 151)), "min_ops": 296},
    "verify-cli": {"inputs": [VERIFY_ARGV], "min_ops": 21},
}

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# Per-layer metrics: name -> span names whose self time and calls it sums.
SPAN_GROUPS = {
    "markov.blocks": ("markov.build_markov_from_blocks",),
    "markov.images": ("markov.build_markov_from_images",),
    "core.intmatrix": ("core.intmatrix",),
    "core.intmatrix_mul": ("core.intmatrix_mul",),
    "core.is_nonnegative": ("core.is_nonnegative",),
    "core.poly_eval": ("core.poly_eval",),
    "spectral.power": ("spectral.power_iteration",),
    "spectral.charpoly": ("spectral.char_poly_exact",),
    "rome.charpoly": ("rome.rome_char_poly", "rome.rome_matrix", "rome.enumerate_simple_paths"),
    "rome.check": ("rome.rome_check",),
    "entropy.lambda_n": ("entropy.lambda_n", "entropy.lambda_n_bracket"),
    "entropy.volume_entropy": ("entropy.volume_entropy",),
    "cli.main": ("cli.main",),
}

COUNTED_CALLS = {"markov.blocks", "markov.images", "core.poly_eval", "spectral.power"}


class RunFailed(Exception):
    """The benchmark cannot produce a result (missing sources, broken oracle)."""


# =====================================================================
# Child processes
# =====================================================================

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _spawn(argv: list[str], stdin: str, deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv,
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_child_env(),
        timeout=max(1.0, deadline - time.perf_counter()),
    )


def _failed_ops(ops, why: str) -> list[dict]:
    return [{"op": op, "error": why, "cpu_s": math.nan, "cal_s": math.nan,
             "latency_s": math.nan, "stdout": "", "stderr": ""} for op in ops]


def _ref_s(cpu_s: float, cal_s: float) -> float:
    """A CPU time rescaled to the reference CPU speed (see REF_CAL_S)."""
    return cpu_s * REF_CAL_S / cal_s


def run_child(workload: str, ops: list, trace: bool, deadline: float) -> dict:
    """One worker process; returns its report, with every op failed if it died."""
    job = json.dumps({"workload": workload, "ops": ops, "trace": trace})
    try:
        proc = _spawn([sys.executable, str(HERE / "child.py")], job, deadline)
    except subprocess.TimeoutExpired:
        return {"import_s": None, "results": _failed_ops(ops, "timed out"), "spans": []}
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        report = None
    if report is None:
        why = f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return {"import_s": None, "results": _failed_ops(ops, why), "spans": []}
    if proc.stderr:
        for rec in report["results"]:
            rec["stderr"] += proc.stderr
    return report


def run_cli(argv, deadline: float) -> dict:
    """One `python -m volentropy` process: its CPU time (user + system, all
    threads), the calibration time around it, and wall time from spawn to exit."""
    cal = calibrate(CLI_CAL_UNITS)
    cpu, t = _children_cpu_s(), time.perf_counter()
    try:
        proc = _spawn([sys.executable, "-m", "volentropy", *argv], "", deadline)
    except subprocess.TimeoutExpired:
        return _failed_ops([argv], "timed out")[0]
    return {
        "op": list(argv),
        "cpu_s": _children_cpu_s() - cpu,
        "latency_s": time.perf_counter() - t,
        "cal_s": (cal + calibrate(CLI_CAL_UNITS)) / 2,
        "output": {"code": proc.returncode},
        "stdout": proc.stdout,
        "stderr": proc.stderr,
    }


# =====================================================================
# Measurement
# =====================================================================

def measure(workload: str, rng: random.Random, budget_s: float, min_ops: int,
            trace: bool, deadline: float, e2e: bool = False) -> dict:
    """Closed loop, one client: whole passes until the run has min_ops
    operations and another pass, as long as the mean one so far, would end
    past budget_s of measured wall time.

    With `e2e` (the end-to-end run), import-only children run between passes,
    outside the measured wall time, and their import times join those of the
    pass children; and a verify-cli operation is a `volentropy` command of its
    own.  Without it, verify-cli calls `volentropy.cli.main` inside the child,
    traced or not, so the two phases of a traced run time the same work.
    """
    inputs = WORKLOADS[workload]["inputs"]
    results: list[dict] = []
    import_s: list[float] = []
    probes: list[float] = []
    children: list[list] = []  # raw spans, one list per child process
    pass_rates: list[float] = []  # per pass: its operations per rescaled CPU second
    pass_walls: list[float] = []
    wall = 0.0
    while (len(results) < min_ops or not pass_walls
           or wall + wall / len(pass_walls) <= budget_s) and time.perf_counter() < deadline:
        if e2e:
            run_probes(probes, 1 + int(wall // PROBE_EVERY_S), deadline)
        ops = list(inputs)
        rng.shuffle(ops)
        t = time.perf_counter()
        if workload == "verify-cli" and e2e:
            recs = [run_cli(op, deadline) for op in ops]
        else:
            report = run_child(workload, ops, trace, deadline)
            recs = report["results"]
            if report["import_s"] is not None:
                import_s.append(_ref_s(report["import_s"], report["import_cal_s"]))
            children.append(report["spans"])
        pass_walls.append(time.perf_counter() - t)
        wall += pass_walls[-1]
        for r in recs:
            r["ref_s"] = _ref_s(r["cpu_s"], r["cal_s"])
        timed = [r["ref_s"] for r in recs if not math.isnan(r["ref_s"])]
        if timed:
            pass_rates.append(len(timed) / sum(timed))
        results.extend(recs)
    if e2e:
        run_probes(probes, max(MIN_PROBES, 1 + int(wall // PROBE_EVERY_S)), deadline)
    return {"results": results, "pass_rates": pass_rates,
            "wall_rates": [len(inputs) / w for w in pass_walls],
            "import_s": import_s + probes, "children": children}


def alternate(workload: str, rng: random.Random, budget_s: float,
              deadline: float) -> tuple[dict, dict]:
    """Untraced and traced passes in turn, each in a fresh child, until another
    pair would end past budget_s; the two phases so see the same stretches of
    machine speed, which trace.overhead_frac compares."""
    phases: tuple[dict, dict] = ({}, {})
    start, pairs = time.perf_counter(), 0
    while (not pairs or (time.perf_counter() - start) * (pairs + 1) / pairs <= budget_s) \
            and time.perf_counter() < deadline:
        for phase, trace in zip(phases, (False, True)):
            one_pass = measure(workload, rng, 0.0, 1, trace, deadline)
            for key, value in one_pass.items():
                phase.setdefault(key, []).extend(value)
        pairs += 1
    return phases


def run_probes(times: list[float], count: int, deadline: float) -> None:
    """Run import-only children until `times` holds `count` import times."""
    while len(times) < count:
        report = run_child("probe", [], False, deadline)
        if report["import_s"] is None:
            raise RunFailed(f"cannot import volentropy: {report['results']}")
        times.append(_ref_s(report["import_s"], report["import_cal_s"]))


# =====================================================================
# Checking outputs against the oracle
# =====================================================================

def _close(value, exact, atol: float) -> bool:
    return isinstance(value, float) and abs(mpmath.mpf(value) - exact) <= atol


def check_entropy(rec: dict, truths: dict) -> tuple[list[str], list[str]]:
    """(errors, wrong fields) of one volume_entropy operation."""
    out = rec["output"]
    n = rec["op"][0]
    t = truths[n]
    errors = [] if out["consistent"] else ["consistent=False"]
    if not out["bounds_hold"]:
        errors.append("bounds_hold=False")
    with mpmath.workdps(t.dps):
        wrong = [f for f, ok in (
            ("lambda", _close(out["lambda"], t.lam, LAMBDA_ATOL)),
            ("entropy", _close(out["entropy"], t.entropy, ENTROPY_ATOL)),
            ("bounds", out["bounds_hold"] is True),
        ) if not ok]
    return errors, wrong


def check_table(rec: dict, truths: dict) -> tuple[list[str], list[str]]:
    n = rec["op"]
    rows = rec["output"]
    if len(rows) != 1 or rows[0]["n"] != n:
        return [], ["rows"]
    row, t = rows[0], truths[n]
    lower = None if t.lower is None else float(t.lower)
    with mpmath.workdps(t.dps):
        gap_ok = isinstance(row["gap"], float) and (
            abs(mpmath.mpf(row["gap"]) - t.gap) <= GAP_RTOL * t.gap + SMALLEST_FLOAT
        )
        wrong = [f for f, ok in (
            ("lambda", _close(row["lambda"], t.lam, LAMBDA_ATOL)),
            ("entropy", _close(row["entropy"], t.entropy, ENTROPY_ATOL)),
            ("bounds", row["lower_bound"] == lower and row["upper_bound"] == float(t.upper)),
            ("gap", gap_ok),
        ) if not ok]
    return [], wrong


def check_verify(rec: dict, truths: dict) -> tuple[list[str], list[str]]:
    errors = []
    if rec["output"]["code"] != 0:
        errors.append(f"exit code {rec['output']['code']}")
    try:
        checks = json.loads(rec["stdout"])
    except json.JSONDecodeError:
        checks = None
    if not (isinstance(checks, list) and all(isinstance(c, dict) for c in checks)):
        return errors + ["stdout is not a JSON list of checks"], ["checks"]
    failing = [f"{c.get('n')}:{c.get('check')}" for c in checks if c.get("pass") is not True]
    if failing:
        errors.append(f"checks failed: {failing}")
    pairs = {(c.get("n"), c.get("check")) for c in checks}
    ranks = {c.get("n") for c in checks}
    sound = len(checks) == VERIFY_CHECKS == len(pairs) and ranks == set(range(3, 11))
    return errors, [] if sound else ["checks"]


CHECKERS = {"entropy-large": check_entropy, "table-wide": check_table, "verify-cli": check_verify}


def judge(workload: str, results: list[dict], truths: dict) -> dict:
    """Counts of failed and wrong operations, and the findings that make a run
    incorrect: every failure, and every wrong output that is not the known
    gap defect."""
    failed = wrong = 0
    unexpected: list[str] = []
    known_ranks: set[int] = set()
    for rec in results:
        errors = [rec["error"]] if "error" in rec else []
        if rec["stderr"]:
            errors.append(f"stderr: {rec['stderr'].strip()[-200:]}")
        fields: list[str] = []
        if "output" in rec:
            more, fields = CHECKERS[workload](rec, truths)
            errors += more
        failed += bool(errors)
        wrong += bool(fields)
        if errors:
            unexpected.append(f"{rec['op']}: {'; '.join(errors)}")
        elif fields == ["gap"] and workload == "table-wide" and rec["op"] in KNOWN_GAP_DEFECT:
            known_ranks.add(rec["op"])
        elif fields:
            unexpected.append(f"{rec['op']}: wrong {', '.join(fields)}")
    return {
        "attempted": len(results),
        "failed": failed,
        "wrong": wrong,
        "unexpected": unexpected,
        "known_ranks": sorted(known_ranks),
    }


# =====================================================================
# Metrics
# =====================================================================

def tail_percentile(min_ops: int) -> float:
    """Highest percentile of TAIL_LADDER that leaves at least ten samples
    beyond it (nearest rank) at the workload's minimum sample count.

    Fixing it per workload, rather than per run, keeps op_tail_s comparable
    between runs that measure different numbers of passes.
    """
    return max(p for p in TAIL_LADDER if min_ops - math.ceil(p / 100 * min_ops) >= 10)


def tail(latencies: list[float], p: float) -> tuple[float, int]:
    """(nearest-rank p-th percentile, samples beyond it)."""
    ordered = sorted(latencies)
    idx = max(0, math.ceil(p / 100 * len(ordered)) - 1)
    return ordered[idx], len(ordered) - 1 - idx


def end_to_end(phase: dict, verdict: dict, setup: list[float], peak_rss_kb: int,
               tail_p: float) -> tuple[dict, list[str]]:
    done = [r for r in phase["results"] if not math.isnan(r["ref_s"])]
    lat = [r["ref_s"] for r in done]
    if not lat:
        raise RunFailed("no operation completed")
    n = verdict["attempted"]
    tail_s, beyond = tail(lat, tail_p)
    error_frac = verdict["failed"] / n
    wrong_frac = verdict["wrong"] / n
    metrics = {
        "ops_per_s": (statistics.median(phase["pass_rates"]), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "success_frac": (1.0 - error_frac, "frac"),
        "agree_frac": (1.0 - wrong_frac, "frac"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    cpu_tail_s, _ = tail([r["cpu_s"] for r in done], tail_p)
    wall_tail_s, _ = tail([r["latency_s"] for r in done], tail_p)
    cal_s = statistics.median(r["cal_s"] for r in done)
    notes = [
        "operation times are CPU seconds (user + system) of the calling thread, or of"
        " the whole process for a verify-cli command, rescaled to the reference CPU"
        f" speed: x {REF_CAL_S:g} s / the calibration unit's time next to each",
        f"calibration unit: median {cal_s:.6g} s here, reference {REF_CAL_S:g} s",
        f"ops_per_s is the median over {len(phase['pass_rates'])} passes of operations"
        " per rescaled CPU second spent in them",
        f"op_tail_s is p{tail_p:g} of {len(lat)} samples ({beyond} beyond it)",
        f"CPU time, not rescaled: op_p50_s {statistics.median(r['cpu_s'] for r in done):.6g} s,"
        f" op_tail_s {cpu_tail_s:.6g} s",
        f"wall clock: ops_per_s {statistics.median(phase['wall_rates']):.6g} 1/s,"
        f" op_p50_s {statistics.median(r['latency_s'] for r in done):.6g} s,"
        f" op_tail_s {wall_tail_s:.6g} s",
        f"error_frac {error_frac:.6g} frac ({verdict['failed']}/{n}); success_frac = 1 - error_frac",
        f"wrong_frac {wrong_frac:.6g} frac ({verdict['wrong']}/{n}); agree_frac = 1 - wrong_frac",
        f"setup_s is the median rescaled CPU time of `import volentropy` in {len(setup)}"
        " child processes",
    ]
    return metrics, notes


def per_layer(traced: dict, untraced: dict) -> tuple[dict, list[str]]:
    ops = len(traced["results"])
    if not ops or not untraced["results"]:
        raise RunFailed("no operation completed")
    summaries = [spanlib.summarize(s) for s in traced["children"]]
    names: dict[str, list] = {}
    counts: dict[str, int] = {}
    for s in summaries:
        for name, (calls, self_s) in s["names"].items():
            entry = names.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for key, value in s.items():
            if key != "names":
                counts[key] = counts.get(key, 0) + value

    def group(*span_names):
        calls = sum(names.get(s, [0, 0.0])[0] for s in span_names)
        self_s = sum(names.get(s, [0, 0.0])[1] for s in span_names)
        return calls / ops, self_s / ops

    reductions = tuple(s for s in names if s.startswith("reductions."))
    metrics = {}
    for metric, span_names in SPAN_GROUPS.items():
        calls, self_s = group(*span_names)
        metrics[f"{metric}.self_s"] = (self_s, "s/op")
        if metric in COUNTED_CALLS:
            metrics[f"{metric}.calls"] = (calls, "calls/op")
    calls, self_s = group(*reductions)
    metrics["reductions.self_s"] = (self_s, "s/op")
    metrics["reductions.calls"] = (calls, "calls/op")
    blocks_calls = names.get("markov.build_markov_from_blocks", [0])[0]
    metrics.update({
        "markov.nnz_frac": (_ratio(counts["markov_nnz"], counts["markov_cells"]), "ratio"),
        "markov.blocks.distinct_frac": (_ratio(counts["blocks_distinct"], blocks_calls), "ratio"),
        "core.intmatrix.cells": (counts["intmatrix_cells"] / ops, "cells/op"),
        "spectral.power.iterations": (counts["power_iterations"] / ops, "iter/op"),
        "spectral.power.unconverged": (counts["power_unconverged"] / ops, "1/op"),
        "spectral.matvec_flops": (counts["matvec_flops"] / ops, "flop/op"),
        "rome.paths": (counts["paths"] / ops, "paths/op"),
        "entropy.evals_per_root": (_ratio(counts["root_evals"], counts["roots"]), "evals/root"),
    })
    op_s = sum(r["latency_s"] for r in traced["results"]) / ops
    metrics["trace.op_s"] = (op_s, "s/op")
    plain_rate = statistics.median(untraced["pass_rates"])
    traced_rate = statistics.median(traced["pass_rates"])
    metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1.0, "ratio")

    layer_self: dict[str, float] = {}
    for name, (_calls, self_s) in names.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s / ops
    shares = ", ".join(f"{k} {v / op_s:.3f}" for k, v in sorted(layer_self.items()))
    matrix = sum(layer_self.get(k, 0.0) for k in ("markov", "spectral", "core")) / op_s
    notes = [
        f"traced {ops} ops in {len(traced['children'])} processes; per-op values are means",
        "span times are wall clock; trace.overhead_frac compares ops per CPU second",
        f"self-time share of op time by layer: {shares}",
        f"markov + spectral + core self-time share: {matrix:.3f}",
        "markov.nnz_frac and spectral.matvec_flops are computed from array sizes"
        " (2 x stored cells x iterations), not read from hardware counters",
    ]
    return metrics, notes


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# =====================================================================
# Entry point
# =====================================================================

def environment() -> dict:
    env = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            env[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            env[pkg] = None
    env["nproc"] = len(os.sched_getaffinity(0))
    return env


def run(args) -> int:
    if not (SRC / "volentropy" / "__init__.py").is_file():
        raise RunFailed(f"no volentropy sources under {SRC}; run from a source checkout")
    spec = WORKLOADS[args.workload]
    deadline = time.perf_counter() + DEADLINE_S

    # Oracle values first, outside every timed region.
    oracle.check_against_readme()
    if args.workload == "entropy-large":
        ranks = {n for n, _orientable in spec["inputs"]}
    elif args.workload == "table-wide":
        ranks = set(spec["inputs"])
    else:
        ranks = set()  # verify-cli is checked against its own check count
    truths = {n: oracle.truth(n) for n in sorted(ranks)}

    rng = random.Random(args.seed)
    print(f"env: {json.dumps(environment())}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    if args.trace:
        plain, traced = alternate(args.workload, rng, args.seconds, deadline)
        phases = [plain, traced]
    else:
        plain = measure(args.workload, rng, args.seconds, spec["min_ops"], False, deadline,
                        e2e=True)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        phases = [plain]

    verdicts = [judge(args.workload, p["results"], truths) for p in phases]
    attempted = sum(v["attempted"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    unexpected = [u for v in verdicts for u in v["unexpected"]]
    known = sorted({n for v in verdicts for n in v["known_ranks"]})

    if args.trace:
        metrics, notes = per_layer(traced, plain)
    else:
        metrics, notes = end_to_end(plain, verdicts[0], plain["import_s"], peak_rss_kb,
                                    tail_percentile(spec["min_ops"]))
    if known:
        notes.append(
            f"known defect: gap column wrong at n={known[0]}..{known[-1]} ({len(known)} ranks);"
            " counted in wrong_frac"
        )
    for u in unexpected[:20]:
        notes.append(f"unexpected: {u}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    result = {
        "correct": not unexpected and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (RunFailed, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
