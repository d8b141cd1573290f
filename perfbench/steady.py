"""Steadiness mode: run workloads repeatedly and compare each metric's spread to its bound.

    python3 perfbench/steady.py [--runs 2] [--workload NAME ...]

Runs perfbench/run.py --trace 0 once per seed 1..runs for every workload named in
BENCHMARK.json (or those given), one run at a time, with the run length from
BENCHMARK.json.  For each end-to-end metric it prints the median over the
runs and the spread: the distance between the first and third quartile, as
`statistics.quantiles(values, n=4)` gives them, as a share of the median.
Next to it stand the metric's bound and a verdict: `steady` below a third of
the bound, `within` below the bound, `WIDE` otherwise.  Exits 1 if any run is
incorrect or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*cmd, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    cmd = [sys.executable if part == "python3" else part for part in bench["command"]]

    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(1, args.runs + 1):
            result = one_run(cmd, workload, seed, bench["run_seconds"])
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), flush=True)
        print(f"{workload}: {args.runs} runs, all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            verdict = "steady" if s < bound / 3 else "within" if s <= bound else "WIDE"
            ok = ok and s <= bound
            print(f"  {name:<14} {statistics.median(values):>12.6g} {s:>8.4f} {bound:>6.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
