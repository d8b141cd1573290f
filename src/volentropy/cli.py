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
`python -O`, which strips its checks.  A command's code is imported when that
command runs: `verify` lives here, the other three in `_commands`.
`main()` with no argument, as `python -m volentropy` and the console script
call it, is the process's command and takes its start-up objects out of
garbage collection; `main([...])` leaves the collector alone (see `main`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import partial

from .core import poly_eval, poly_reciprocal_check
from .entropy import _bounds_hold, _power_route, volume_entropy
from .markov import (
    PresentationSpec,
    TransitionOperator,
    _block_masks,
    _check_matrix_rank,
    _image_masks,
    build_markov_from_images,
    reference_rows,
)
from .reductions import (
    BlockView,
    _block_row_pass,
    _first_mask_difference,
    _first_row_difference,
    _spectrum_split_failure,
    _sum_block_row,
    compacted_matrix,
    divided_compacted_matrix,
    check_J_commutation,
    super_compacted_matrix,
)
from .rome import RomeSpec, q_polynomial, rome_char_poly, rome_check
from .spectral import char_poly_exact, is_irreducible

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
    """Time the block and append its result; an AssertionError or ValueError is a FAIL with its message."""
    row = {"n": n, "check": name, "pass": True, "seconds": 0.0, "detail": ""}
    t0 = time.perf_counter()
    try:
        yield
    except (AssertionError, ValueError) as exc:
        row["pass"], row["detail"] = False, str(exc)
    row["seconds"] = round(time.perf_counter() - t0, 4)
    results.append(row)


def _check_rank(n: int, results: list[dict]) -> None:
    """Every check of rank n, in run order, sharing the rank's matrices, masks and report."""
    check = partial(_check, results, n)
    plus, minus = PresentationSpec(n, True, formal=True), PresentationSpec(n, False)
    c, sc = compacted_matrix(n), super_compacted_matrix(n)

    passes = None
    with check("blocks-vs-images"):
        # markov-power's operator on the bit basis against the independent images
        # route, in one pass that also reads circulance for the collapse checks.
        passes = {
            sp: _block_row_pass(_block_masks(sp), _image_masks(sp), sp.matrix_size) for sp in (plus, minus)
        }
        for difference, *_ in passes.values():
            assert not difference, difference

    with check("circulant-collapse"):
        assert passes is not None, "no masks: blocks-vs-images failed"
        _, first, circulant, _ = passes[plus]
        assert circulant, "orientation-preserving form not circulant"
        got = _sum_block_row(first, plus.matrix_size)
        assert got == c, _first_row_difference(got.rows, c.rows)

    with check("disoriented-collapse"):
        assert passes is not None, "no masks: blocks-vs-images failed"
        _, got, _, disoriented = passes[minus]
        assert disoriented, "reversing form not disoriented block circulant"
        # The parallelization is circulant, so it equals the orientable
        # matrix iff that is circulant too and the first block rows agree.
        _, want, circulant, _ = passes[plus]
        assert circulant, "orientation-preserving form not circulant"
        assert got == want, _first_mask_difference(got, want)
        assert check_J_commutation(c), "compacted matrix not centrally symmetric"

    if n in (3, 4):
        with check("reference-rows"):
            orientable = n == 4  # the frozen rows: rank 4 orientable, rank 3 not
            ref = reference_rows(n, orientable)
            m = build_markov_from_images(PresentationSpec(n, orientable))
            got = [list(row) for row in m.rows[: len(ref)]]
            assert got == ref, "built rows differ from the frozen reference"

    report = None
    with check("route-consensus"):
        report = volume_entropy(minus)
        assert report.consistent, f"routes spread {report.agreement:.3e}"

    with check("spectral-collapse"):
        # Perron-Frobenius: irreducible, so the growth rate is the spectral radius.
        assert is_irreducible(c), "compacted matrix is not irreducible"
        assert report is not None, "no entropy report: route-consensus failed"
        # The report certified c and the non-orientable operator; the formal
        # orientable one is certified against the same bracket.
        _, failure = _power_route(TransitionOperator(plus), n, report.lambda_)
        assert not failure, f"not certified for {plus}: markov-power ({failure})"
        stuck = [name for name, ok in report.converged.items() if not ok]
        assert not stuck, f"not certified for {minus}: {', '.join(stuck)}"
        gap = abs(report.routes["markov-power"] - report.routes["compacted-power"])
        assert gap == 0.0, f"spectral radius gap {gap:.3e}"

    with check("spectrum-split"):
        # char(divided) = (x - 1) * char(compacted), by the certificate.
        dc = divided_compacted_matrix(n)
        failure = _spectrum_split_failure(dc, c)
        assert not failure, failure
        view = BlockView(dc, 2, n)
        folded = view.block(1, 1) + view.block(1, 2).reverse_columns()
        assert folded == sc, _first_row_difference(folded.rows, sc.rows)

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

    p_entropy = sub.add_parser("entropy", help="entropy report for one presentation")
    p_entropy.add_argument("--n", type=int, required=True, help="rank (>= 2)")
    p_entropy.add_argument("--orientable", action="store_true")

    p_verify = sub.add_parser("verify", help="run the cross-check battery")
    p_verify.add_argument("--n-max", type=int, default=8, dest="n_max")

    p_table = sub.add_parser("table", help="entropy table over a range of ranks")
    p_table.add_argument("--from", type=int, required=True, dest="n_min")
    p_table.add_argument("--to", type=int, required=True, dest="n_max")

    for p in (p_build, p_entropy, p_verify, p_table):
        p.add_argument("--format", choices=_FORMATS, default="plain")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    With `argv` None the arguments come from `sys.argv` and `main` is the
    process's command: once the handler is loaded, `gc.freeze()` moves every
    object alive then (modules, functions, the parser) to the permanent
    generation, so neither the command's full collections nor those at exit
    walk them.  The collector stays enabled for the command's own garbage.
    Called with a list, `main` does not touch the collector.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        handler = _cmd_verify
    else:
        from ._commands import HANDLERS

        handler = HANDLERS[args.command]
    if argv is None:
        gc.freeze()
    try:
        code, text = handler(args)
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
