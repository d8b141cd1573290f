"""Command-line interface.

Subcommands:

    build-matrix   construct one of the matrices and print it
    entropy        growth rate + volume entropy report for one presentation
    verify         run the full cross-check battery rank by rank
    table          entropies for a range of ranks

Every subcommand takes --format plain|csv|json (default plain).  Exit code 0
means success; precondition violations and failed consistency checks exit
nonzero with a message on stderr, and in csv/json mode nothing is written to
stdout on error.  A reader that closes stdout early (`| head`) ends the
command with exit code 1 and no traceback.  `verify` refuses to run under
`python -O`, which strips its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import partial

from .core import (
    IntMatrix,
    IntPolynomial,
    format_blocks,
    matrix_to_csv,
    poly_eval,
    poly_reciprocal_check,
)
from .entropy import EntropyReport, _bounds_hold, _lower_bound, volume_entropy, entropy_table
from .markov import (
    PresentationSpec,
    TransitionOperator,
    _block_masks,
    _check_matrix_rank,
    _image_masks,
    build_markov_from_blocks,
    build_markov_from_images,
    reference_rows,
)
from .reductions import (
    BlockView,
    compacted_matrix,
    divided_compacted_matrix,
    is_block_circulant_masks,
    is_disoriented_block_circulant_masks,
    check_J_commutation,
    sum_first_block_row_masks,
    super_compacted_matrix,
)
from .rome import RomeSpec, q_polynomial, rome_char_poly, rome_check
from .spectral import char_poly_exact, is_irreducible, power_iteration

__all__ = ["main"]

_FORMATS = ("plain", "csv", "json")


def _csv(records: list[dict]) -> str:
    """Records as csv under the first record's keys: cells are str(v),
    booleans lower-case, None empty, and commas in text become ';'."""

    def cell(v) -> str:
        if v is None:
            return ""
        return str(v).lower() if isinstance(v, bool) else str(v).replace(",", ";")

    header = list(records[0])
    return "\n".join([",".join(header)] + [",".join(cell(r[k]) for k in header) for r in records])


# =====================================================================
# build-matrix
# =====================================================================

def _build_requested_matrix(args) -> tuple[IntMatrix, int]:
    """Returns (matrix, block size for pretty printing; 0 = no blocks)."""
    n = args.n
    if args.which == "markov":
        spec = PresentationSpec(n, args.orientable)
        return build_markov_from_blocks(spec), spec.block_size
    build = {
        "compacted": compacted_matrix,
        "divided": divided_compacted_matrix,
        "supercompacted": super_compacted_matrix,
    }[args.which]
    return build(n), 0


def _cmd_build_matrix(args) -> tuple[int, str]:
    matrix, block = _build_requested_matrix(args)
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
    return 0, format_blocks(matrix, block) if block else str(matrix)


# =====================================================================
# entropy
# =====================================================================

def _bounds_payload(report: EntropyReport) -> dict:
    n = report.n
    if n < 3:
        return {"hold": report.bounds_hold, "lower": None, "upper": None}
    lower = _lower_bound(n)
    lower_text = None if lower is None else str(lower)
    return {"hold": report.bounds_hold, "lower": lower_text, "upper": str(2 * n - 1)}


def _cmd_entropy(args) -> tuple[int, str]:
    spec = PresentationSpec(args.n, args.orientable)
    report = volume_entropy(spec, tol=args.tol)
    code = 0
    if not report.consistent:
        print(
            f"error: routes disagree beyond tolerance (spread {report.agreement:.3e})",
            file=sys.stderr,
        )
        code = 1
    if not report.bounds_hold:
        print("error: exact bound certification failed", file=sys.stderr)
        code = 1
    if code != 0 and args.format in ("csv", "json"):
        return code, ""

    if args.format == "json":
        payload = {
            "n": report.n,
            "orientable": report.orientable,
            "lambda": report.lambda_,
            "entropy": report.entropy,
            "routes": report.routes,
            "bounds": _bounds_payload(report),
        }
        return code, json.dumps(payload, indent=2)
    if args.format == "csv":
        record = {
            "n": report.n,
            "orientable": report.orientable,
            "lambda": report.lambda_,
            "entropy": report.entropy,
            "agreement": report.agreement,
            "bounds_hold": report.bounds_hold,
        }
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
# verify
# =====================================================================

def _run_battery(n_max: int) -> list[dict]:
    """The cross-check battery, one result dict per (rank, check)."""
    results: list[dict] = []
    for n in range(3, n_max + 1):
        _check_rank(n, results)
    results.sort(key=lambda row: (row["n"], row["check"]))
    return results


@contextmanager
def _check(results: list[dict], n: int, name: str):
    """Time the block and append its result; an AssertionError is a FAIL with its message."""
    row = {"n": n, "check": name, "pass": True, "seconds": 0.0, "detail": ""}
    t0 = time.perf_counter()
    try:
        yield
    except AssertionError as exc:
        row["pass"], row["detail"] = False, str(exc)
    row["seconds"] = round(time.perf_counter() - t0, 4)
    results.append(row)


def _check_rank(n: int, results: list[dict]) -> None:
    """Every check of rank n, in run order, sharing the rank's matrices, masks and report."""
    check = partial(_check, results, n)
    plus, minus = PresentationSpec(n, True, formal=True), PresentationSpec(n, False)
    s = 2 * n - 1
    c, sc = compacted_matrix(n), super_compacted_matrix(n)

    with check("blocks-vs-images"):
        # markov-power's operator on the bit basis against the independent images route.
        masks = {sp: _block_masks(sp) for sp in (plus, minus)}
        for sp, want in masks.items():
            got = _image_masks(sp)
            assert got == want, _first_mask_difference(got, want)

    with check("circulant-collapse"):
        circulant = is_block_circulant_masks(masks[plus], s)
        assert circulant, "orientation-preserving form not circulant"
        got = sum_first_block_row_masks(masks[plus], s)
        assert got == c, _first_difference(got, c)

    with check("disoriented-collapse"):
        assert is_disoriented_block_circulant_masks(masks[minus], s), (
            "reversing form not disoriented block circulant"
        )
        # The parallelization is circulant, so it equals the orientable
        # matrix iff that is circulant too and the first block rows agree.
        assert circulant, "orientation-preserving form not circulant"
        got, want = masks[minus][:s], masks[plus][:s]
        assert got == want, _first_mask_difference(got, want)
        assert check_J_commutation(c), "compacted matrix not centrally symmetric"

    if n in (3, 4):
        with check("reference-rows"):
            for orientable in (True, False):
                try:
                    ref = reference_rows(n, orientable)
                except ValueError:
                    continue
                m = build_markov_from_images(PresentationSpec(n, orientable))
                got = [list(row) for row in m.rows[: len(ref)]]
                assert got == ref, "built rows differ from the frozen reference"

    report = None
    with check("route-consensus"):
        report = volume_entropy(minus)
        assert report.consistent and report.agreement <= 1e-7, f"routes spread {report.agreement:.3e}"

    with check("spectral-collapse"):
        # Perron-Frobenius: irreducible, so the growth rate is the spectral radius.
        assert is_irreducible(c), "compacted matrix is not irreducible"
        assert report is not None, "no entropy report: route-consensus failed"
        # The report iterated c and the non-orientable operator at the default tol.
        est = power_iteration(TransitionOperator(plus))
        assert est.converged, f"power iteration did not converge for {plus}"
        stuck = [name for name, ok in report.converged.items() if not ok]
        assert not stuck, f"power iteration did not converge for {minus}: {', '.join(stuck)}"
        assert report.consistent, f"routes disagree (spread {report.agreement:.3e})"
        target = report.routes["compacted-power"]
        for value in (est.value, report.routes["markov-power"]):
            assert abs(value - target) <= 1e-7, f"spectral radius gap {abs(value - target):.3e}"

    with check("spectrum-split"):
        dc = divided_compacted_matrix(n)
        lhs = char_poly_exact(dc)
        rhs = char_poly_exact(c) * IntPolynomial([-1, 1])
        assert lhs == rhs, "char(divided) != (x - 1) * char(compacted)"
        view = BlockView(dc, 2, n)
        folded = view.block(1, 1) + view.block(1, 2).reverse_columns()
        assert folded == sc, _first_difference(folded, sc)

    with check("rome-charpoly"):
        # Perron-Frobenius: irreducible, so q_n's root is the spectral radius of S_n.
        assert is_irreducible(sc), "supercompacted matrix is not irreducible"
        rome = RomeSpec((n - 1, n))
        assert rome_check(sc, rome), "proposed rome is not a rome"
        via_rome, exact, closed = rome_char_poly(sc, rome), char_poly_exact(sc), q_polynomial(n)
        assert via_rome == exact == closed, (
            f"polynomials differ: rome={via_rome} exact={exact} closed={closed}"
        )

    with check("polynomial-facts"):
        q = q_polynomial(n)
        assert poly_eval(q, 0) == 1, "q(0) != 1"
        assert poly_eval(q, 1) == -2 * n * (n - 2), "q(1) mismatch"
        assert poly_eval(q, 2 * n - 1) == 2 * n, "q(2n-1) mismatch"
        assert poly_reciprocal_check(q), "q not self-reciprocal"

    with check("root-bounds"):
        assert _bounds_hold(n), "bracket signs wrong at the exact bounds"


def _first_difference(a: IntMatrix, b: IntMatrix) -> str:
    if a.size != b.size:
        return f"sizes differ: {a.size} vs {b.size}"
    for i, (ra, rb) in enumerate(zip(a.rows, b.rows), 1):
        if ra != rb:
            j = next(j for j, (x, y) in enumerate(zip(ra, rb)) if x != y)
            return f"first difference at ({i},{j + 1}): {ra[j]} vs {rb[j]}"
    return ""


def _first_mask_difference(a: list[int], b: list[int]) -> str:
    """`_first_difference` of two 0/1 matrices given as row masks (bit j is column j+1)."""
    if len(a) != len(b):
        return f"sizes differ: {len(a)} vs {len(b)}"
    i, x, y = next((i, x, y) for i, (x, y) in enumerate(zip(a, b), 1) if x != y)
    j = ((x ^ y) & -(x ^ y)).bit_length()
    return f"first difference at ({i},{j}): {x >> (j - 1) & 1} vs {y >> (j - 1) & 1}"


def _cmd_verify(args) -> tuple[int, str]:
    if not __debug__:
        raise ValueError("verify's checks are assert statements, which python -O strips; run without -O")
    _check_matrix_rank(args.n_max)
    results = _run_battery(args.n_max)
    ok = all(row["pass"] for row in results)
    code = 0 if ok else 1
    if args.format == "json":
        return code, json.dumps(results, indent=2)
    if args.format == "csv":
        return code, _csv(results)
    width = max(len(row["check"]) for row in results)
    lines = []
    for row in results:
        status = "PASS" if row["pass"] else "FAIL"
        line = f"{status}  n={row['n']:<3d} {row['check']:<{width}}  {row['seconds']:.3f}s"
        if not row["pass"]:
            line += f"  {row['detail']}"
        lines.append(line)
    lines.append(f"{'all checks passed' if ok else 'CHECKS FAILED'} ({len(results)} run)")
    return code, "\n".join(lines)


# =====================================================================
# table
# =====================================================================

def _cmd_table(args) -> tuple[int, str]:
    rows = entropy_table(args.n_min, args.n_max)
    # The rows' fields, `lambda_` spelled `lambda`.
    records = [{k.rstrip("_"): getattr(row, k) for k in row.__slots__} for row in rows]
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


# =====================================================================
# entry point
# =====================================================================

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volentropy",
        description="Volume entropy of minimal symmetric surface-group presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build-matrix", help="construct and print a matrix")
    p_build.add_argument("--n", type=int, required=True, help="rank (>= 3 for matrices)")
    p_build.add_argument(
        "--orientable", action="store_true", help="orientable presentation (even rank)"
    )
    p_build.add_argument(
        "--which",
        choices=("markov", "compacted", "divided", "supercompacted"),
        default="markov",
    )
    p_build.add_argument("--format", choices=_FORMATS, default="plain")

    p_entropy = sub.add_parser("entropy", help="entropy report for one presentation")
    p_entropy.add_argument("--n", type=int, required=True, help="rank (>= 2)")
    p_entropy.add_argument("--orientable", action="store_true")
    p_entropy.add_argument("--tol", type=float, default=1e-10)
    p_entropy.add_argument("--format", choices=_FORMATS, default="plain")

    p_verify = sub.add_parser("verify", help="run the cross-check battery")
    p_verify.add_argument("--n-max", type=int, default=8, dest="n_max")
    p_verify.add_argument("--format", choices=_FORMATS, default="plain")

    p_table = sub.add_parser("table", help="entropy table over a range of ranks")
    p_table.add_argument("--from", type=int, required=True, dest="n_min")
    p_table.add_argument("--to", type=int, required=True, dest="n_max")
    p_table.add_argument("--format", choices=_FORMATS, default="plain")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build-matrix": _cmd_build_matrix,
        "entropy": _cmd_entropy,
        "verify": _cmd_verify,
        "table": _cmd_table,
    }
    try:
        code, text = handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if text:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe (`| head`).  Point stdout at devnull
            # so the flush at exit raises no second BrokenPipeError.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
