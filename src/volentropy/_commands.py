"""The `build-matrix`, `entropy` and `table` commands of the command-line interface.

`cli.main` imports this module only when one of these commands runs, so
`verify` neither loads nor compiles them.
"""

from __future__ import annotations

import json
import sys

from .cli import _csv
from .core import format_blocks, matrix_to_csv
from .entropy import _lower_bound, entropy_table, volume_entropy
from .markov import PresentationSpec, build_markov_from_blocks
from .reductions import compacted_matrix, divided_compacted_matrix, super_compacted_matrix


# =====================================================================
# build-matrix
# =====================================================================

def _cmd_build_matrix(args) -> tuple[int, str]:
    if args.which == "markov":
        spec = PresentationSpec(args.n, args.orientable)
        matrix, block = build_markov_from_blocks(spec), spec.block_size
    else:  # a reduced matrix prints as one block
        build = {"compacted": compacted_matrix, "divided": divided_compacted_matrix,
                 "supercompacted": super_compacted_matrix}[args.which]
        matrix = build(args.n)
        block = matrix.size
    if args.format == "csv":
        return 0, matrix_to_csv(matrix).rstrip("\n")
    if args.format == "json":
        payload = {
            "n": args.n,
            "orientable": args.orientable,
            "which": args.which,
            "size": matrix.size,
            "rows": [[str(v) for v in row] for row in matrix.rows],
        }
        return 0, json.dumps(payload, indent=2)
    return 0, format_blocks(matrix, block)


# =====================================================================
# entropy
# =====================================================================

def _cmd_entropy(args) -> tuple[int, str]:
    spec = PresentationSpec(args.n, args.orientable)
    report = volume_entropy(spec)
    errors = [report.failure, "" if report.bounds_hold else "exact bound certification failed"]
    for error in filter(None, errors):
        print(f"error: {error}", file=sys.stderr)
    code = 1 if any(errors) else 0
    if code != 0 and args.format in ("csv", "json"):
        return code, ""

    n = report.n
    record = {"n": n, "orientable": report.orientable, "lambda": report.lambda_, "entropy": report.entropy}
    if args.format == "json":
        lower = _lower_bound(n)
        record["routes"] = report.routes
        record["bounds"] = {
            "hold": report.bounds_hold,
            "lower": None if lower is None else f"{lower[0]}/{lower[1]}",
            "upper": None if n < 3 else str(2 * n - 1),
        }
        return code, json.dumps(record, indent=2)
    if args.format == "csv":
        record.update(agreement=report.agreement, bounds_hold=report.bounds_hold)
        record.update((f"route:{name}", value) for name, value in report.routes.items())
        return code, _csv([record])
    lines = [
        f"rank:        {report.n}",
        f"orientable:  {report.orientable}",
        f"lambda:      {report.lambda_:.12f}",
        f"entropy:     {report.entropy:.12f}",
    ]
    if report.routes:
        lines.append("routes:")
        for name, value in report.routes.items():
            lines.append(f"  {name:<22} {value:.12f}")
        lines.append(f"agreement:   {report.agreement:.3e}")
    lines.append(f"bounds hold: {report.bounds_hold}")
    return code, "\n".join(lines)


# =====================================================================
# table
# =====================================================================

def _cmd_table(args) -> tuple[int, str]:
    rows = entropy_table(args.n_min, args.n_max)
    # The six columns, `lambda_` spelled `lambda`.
    columns = ("n", "lambda_", "entropy", "lower_bound", "upper_bound", "gap")
    records = [{k.rstrip("_"): getattr(row, k) for k in columns} for row in rows]
    if args.format == "json":
        return 0, json.dumps(records, indent=2)
    if args.format == "csv":
        return 0, _csv(records)
    header = f"{'n':>3}  {'lambda':>16}  {'entropy':>12}  {'lower bound':>16}  {'upper':>6}  {'gap':>12}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lb = "" if row.lower_bound is None else f"{row.lower_bound:.10f}"
        lines.append(
            f"{row.n:>3}  {row.lambda_:>16.10f}  {row.entropy:>12.8f}  {lb:>16}  {row.upper_bound:>6.0f}  {row.gap:>12.3e}"
        )
    return 0, "\n".join(lines)


HANDLERS = {"build-matrix": _cmd_build_matrix, "entropy": _cmd_entropy, "table": _cmd_table}
