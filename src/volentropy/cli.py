"""Command-line interface.

Subcommands:

    build-matrix   construct one of the matrices and print it
    entropy        growth rate + volume entropy report for one presentation
    verify         run the full cross-check battery rank by rank
    table          entropies for a range of ranks

Every subcommand takes --format plain|csv|json (default plain).  Exit code 0
means success; precondition violations and failed consistency checks exit
nonzero with a message on stderr, and in csv/json mode nothing is written to
stdout on error.  The environment variable VOLENTROPY_WIDTH gives the plain
matrix printer a line-width hint; wider matrices drop their column padding.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .core import (
    IntMatrix,
    IntPolynomial,
    format_blocks,
    matrix_to_csv,
    poly_eval,
    poly_reciprocal_check,
)
from .entropy import EntropyReport, _lower_bound, bounds_check, volume_entropy, entropy_table
from .markov import (
    PresentationSpec,
    TransitionOperator,
    _MAX_MATRIX_RANK,
    _check_matrix_rank,
    build_markov_from_blocks,
    build_markov_from_images,
    reference_rows,
)
from .reductions import (
    BlockView,
    compacted_matrix,
    divided_compacted_matrix,
    is_block_circulant,
    is_disoriented_block_circulant,
    check_J_commutation,
    sum_first_block_row,
    super_compacted_matrix,
)
from .rome import RomeSpec, q_polynomial, rome_char_poly, rome_check
from .spectral import char_poly_exact, power_iteration

__all__ = ["main"]

_FORMATS = ("plain", "csv", "json")


def _width_hint() -> int:
    raw = os.environ.get("VOLENTROPY_WIDTH", "")
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


# =====================================================================
# build-matrix
# =====================================================================

def _build_requested_matrix(args) -> tuple[IntMatrix, int]:
    """Returns (matrix, block size for pretty printing; 0 = no blocks)."""
    n = args.n
    if args.which == "markov":
        spec = PresentationSpec(n, args.orientable)
        return build_markov_from_blocks(spec), spec.block_size
    # The reduced kinds are capped, before building, at the largest transition matrix.
    build, size = {
        "compacted": (compacted_matrix, 2 * n - 1),
        "divided": (divided_compacted_matrix, 2 * n),
        "supercompacted": (super_compacted_matrix, n),
    }[args.which]
    limit = 2 * _MAX_MATRIX_RANK * (2 * _MAX_MATRIX_RANK - 1)
    if size > limit:
        raise ValueError(f"the {args.which} matrix of rank {n} is {size}x{size}, over the {limit}x{limit} cap")
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
    if block:
        text = format_blocks(matrix, block)
        hint = _width_hint()
        if hint and len(text.splitlines()[0]) > hint:
            text = str(matrix)
        return 0, text
    return 0, str(matrix)


# =====================================================================
# entropy
# =====================================================================

def _bounds_payload(report: EntropyReport) -> dict:
    n = report.n
    if n < 3:
        return {"hold": report.bounds_hold, "lower": None, "upper": None}
    lower = str(_lower_bound(n)) if n >= 4 else None
    return {"hold": report.bounds_hold, "lower": lower, "upper": str(2 * n - 1)}


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
        cols = ["n", "orientable", "lambda", "entropy", "agreement", "bounds_hold"]
        vals = [
            str(report.n),
            str(report.orientable).lower(),
            repr(report.lambda_),
            repr(report.entropy),
            repr(report.agreement),
            str(report.bounds_hold).lower(),
        ]
        for name, value in report.routes.items():
            cols.append(f"route:{name}")
            vals.append(repr(value))
        return code, ",".join(cols) + "\n" + ",".join(vals)
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

    def run(n: int, check: str, fn) -> None:
        t0 = time.perf_counter()
        try:
            detail = fn() or ""
            ok = True
        except AssertionError as exc:
            ok, detail = False, str(exc)
        dt = time.perf_counter() - t0
        results.append(
            {"n": n, "check": check, "pass": ok, "seconds": round(dt, 4), "detail": detail}
        )

    for n in range(3, n_max + 1):
        specs = [
            PresentationSpec(n, True, formal=True),
            PresentationSpec(n, False),
        ]
        # The blocks-route matrices of this rank, built once and shared by
        # the checks below; the dict goes out of scope with the rank.
        built: dict[PresentationSpec, IntMatrix] = {}

        def blocks(spec: PresentationSpec, built=built) -> IntMatrix:
            if spec not in built:
                built[spec] = build_markov_from_blocks(spec)
            return built[spec]

        def blocks_vs_images(specs=specs):
            for sp in specs:
                a = build_markov_from_images(sp)
                b = blocks(sp)
                assert a == b, _first_difference(a, b)

        def circulant_collapse(n=n):
            m = blocks(PresentationSpec(n, True, formal=True))
            view = BlockView(m, 2 * n, 2 * n - 1)
            assert is_block_circulant(view), "orientation-preserving form not circulant"
            got, want = sum_first_block_row(view), compacted_matrix(n)
            assert got == want, _first_difference(got, want)

        def disoriented_collapse(n=n):
            m = blocks(PresentationSpec(n, False))
            view = BlockView(m, 2 * n, 2 * n - 1)
            ok, para = is_disoriented_block_circulant(view)
            assert ok, "reversing form not disoriented block circulant"
            plus = blocks(PresentationSpec(n, True, formal=True))
            assert para == plus, _first_difference(para, plus)
            assert check_J_commutation(compacted_matrix(n)), "compacted matrix not centrally symmetric"

        def frozen_reference(n=n):
            for orientable in (True, False):
                try:
                    ref = reference_rows(n, orientable)
                except ValueError:
                    continue
                m = build_markov_from_images(PresentationSpec(n, orientable))
                got = [list(row) for row in m.rows[: len(ref)]]
                assert got == ref, "built rows differ from the frozen reference"

        def spectral_collapse(n=n, specs=specs):
            target = power_iteration(compacted_matrix(n)).value
            for sp in specs:
                est = power_iteration(TransitionOperator(sp))
                assert est.converged, f"power iteration did not converge for {sp}"
                assert abs(est.value - target) <= 1e-7, (
                    f"spectral radius gap {abs(est.value - target):.3e}"
                )

        def spectrum_split(n=n):
            c, dc, sc = compacted_matrix(n), divided_compacted_matrix(n), super_compacted_matrix(n)
            lhs = char_poly_exact(dc)
            rhs = char_poly_exact(c) * IntPolynomial([-1, 1])
            assert lhs == rhs, "char(divided) != (x - 1) * char(compacted)"
            view = BlockView(dc, 2, n)
            folded = view.block(1, 1) + view.block(1, 2).reverse_columns()
            assert folded == sc, _first_difference(folded, sc)

        def rome_charpoly(n=n):
            sc = super_compacted_matrix(n)
            rome = RomeSpec((n - 1, n))
            assert rome_check(sc, rome), "proposed rome is not a rome"
            via_rome = rome_char_poly(sc, rome)
            exact = char_poly_exact(sc)
            closed = q_polynomial(n)
            assert via_rome == exact == closed, (
                f"polynomials differ: rome={via_rome} exact={exact} closed={closed}"
            )

        def polynomial_facts(n=n):
            q = q_polynomial(n)
            assert poly_eval(q, 0) == 1, "q(0) != 1"
            assert poly_eval(q, 1) == -2 * n * (n - 2), "q(1) mismatch"
            assert poly_eval(q, 2 * n - 1) == 2 * n, "q(2n-1) mismatch"
            assert poly_reciprocal_check(q), "q not self-reciprocal"

        def root_bounds(n=n):
            q = q_polynomial(n)
            assert poly_eval(q, Fraction(1)) < 0 < poly_eval(q, Fraction(2 * n - 1)), (
                "bracket signs wrong"
            )
            if n >= 4:
                assert bounds_check(n), "exact lower bound failed"

        def route_consensus(n=n):
            report = volume_entropy(PresentationSpec(n, False))
            assert report.consistent, f"routes spread {report.agreement:.3e}"
            assert report.agreement <= 1e-7, f"routes spread {report.agreement:.3e}"

        run(n, "blocks-vs-images", blocks_vs_images)
        run(n, "circulant-collapse", circulant_collapse)
        run(n, "disoriented-collapse", disoriented_collapse)
        if n in (3, 4):
            run(n, "reference-rows", frozen_reference)
        run(n, "spectral-collapse", spectral_collapse)
        run(n, "spectrum-split", spectrum_split)
        run(n, "rome-charpoly", rome_charpoly)
        run(n, "polynomial-facts", polynomial_facts)
        run(n, "root-bounds", root_bounds)
        run(n, "route-consensus", route_consensus)

    results.sort(key=lambda row: (row["n"], row["check"]))
    return results


def _first_difference(a: IntMatrix, b: IntMatrix) -> str:
    if a.size != b.size:
        return f"sizes differ: {a.size} vs {b.size}"
    for i, (ra, rb) in enumerate(zip(a.rows, b.rows), 1):
        if ra != rb:
            j = next(j for j, (x, y) in enumerate(zip(ra, rb)) if x != y)
            return f"first difference at ({i},{j + 1}): {ra[j]} vs {rb[j]}"
    return ""


def _cmd_verify(args) -> tuple[int, str]:
    _check_matrix_rank(args.n_max)
    results = _run_battery(args.n_max)
    ok = all(row["pass"] for row in results)
    code = 0 if ok else 1
    if args.format == "json":
        return code, json.dumps(results, indent=2)
    if args.format == "csv":
        lines = ["n,check,pass,seconds,detail"]
        for row in results:
            detail = str(row["detail"]).replace(",", ";")
            lines.append(
                f"{row['n']},{row['check']},{str(row['pass']).lower()},{row['seconds']},{detail}"
            )
        return code, "\n".join(lines)
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
    if args.format == "json":
        payload = [
            {
                "n": row.n,
                "lambda": row.lambda_,
                "entropy": row.entropy,
                "lower_bound": row.lower_bound,
                "upper_bound": row.upper_bound,
                "gap": row.gap,
            }
            for row in rows
        ]
        return 0, json.dumps(payload, indent=2)
    if args.format == "csv":
        lines = ["n,lambda,entropy,lower_bound,upper_bound,gap"]
        for row in rows:
            lb = "" if row.lower_bound is None else repr(row.lower_bound)
            lines.append(
                f"{row.n},{row.lambda_!r},{row.entropy!r},{lb},{row.upper_bound!r},{row.gap!r}"
            )
        return 0, "\n".join(lines)
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
        print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
