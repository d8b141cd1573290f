"""End-to-end drives of the command-line interface.

Every test calls main() in-process and inspects stdout/stderr through
capsys; one smoke test runs the installed module in a subprocess to cover
the ``python -m`` wiring.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

import volentropy
from volentropy import cli, entropy, markov, reductions
from volentropy.cli import _first_difference, main
from volentropy.core import IntMatrix, format_blocks
from volentropy.entropy import ROUTE_NAMES, EntropyReport, volume_entropy
from volentropy.markov import PresentationSpec, build_markov_from_blocks
from volentropy.reductions import (
    compacted_matrix,
    divided_compacted_matrix,
    super_compacted_matrix,
)


def parse_csv(text: str) -> IntMatrix:
    """The matrix printed by `build-matrix --format csv`: one row a line."""
    return IntMatrix([int(tok) for tok in line.split(",")] for line in text.splitlines() if line.strip())


# =====================================================================
# build-matrix
# =====================================================================

def test_build_matrix_csv_round_trips_every_kind(capsys):
    cases = {
        "compacted": compacted_matrix(3),
        "divided": divided_compacted_matrix(3),
        "supercompacted": super_compacted_matrix(3),
        "markov": build_markov_from_blocks(PresentationSpec(3, False)),
    }
    for which, expected in cases.items():
        code = main(["build-matrix", "--n", "3", "--which", which, "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert parse_csv(out) == expected


def test_build_matrix_orientable_markov_size(capsys):
    code = main(["build-matrix", "--n", "4", "--orientable", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_csv(out).size == 56


def test_build_matrix_plain_markov_uses_block_layout(capsys):
    code = main(["build-matrix", "--n", "3"])
    out = capsys.readouterr().out
    matrix = build_markov_from_blocks(PresentationSpec(3, False))
    assert code == 0
    assert out == format_blocks(matrix, 5) + "\n"


def test_build_matrix_plain_nonmarkov_has_no_block_ruling(capsys):
    code = main(["build-matrix", "--n", "3", "--which", "supercompacted"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == str(super_compacted_matrix(3)) + "\n"
    assert "+" not in out


def test_build_matrix_json_payload(capsys):
    code = main(["build-matrix", "--n", "3", "--which", "divided", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["orientable"] is False
    assert payload["which"] == "divided"
    assert payload["size"] == 6
    rebuilt = [[int(v) for v in row] for row in payload["rows"]]
    assert rebuilt == [list(row) for row in divided_compacted_matrix(3).rows]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "which, builder, n, size",
    [
        ("compacted", "compacted_matrix", 3161, 6321),
        ("divided", "divided_compacted_matrix", 3161, 6322),
        ("supercompacted", "super_compacted_matrix", 6321, 6321),
    ],
)
def test_build_matrix_past_the_size_cap_exits_1_before_building(
    which, builder, n, size, fmt, capsys
):
    # One rank past the cap: larger than the rank-40 transition matrix,
    # 6320x6320.  The real builder refuses before allocating, so the exit is
    # quick, and the CLI passes on the library's one message.
    t0 = time.perf_counter()
    code = main(["build-matrix", "--n", str(n), "--which", which, "--format", fmt])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert f"{size}x{size}" in captured.err
    assert "6320x6320" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0
    with pytest.raises(ValueError) as exc:
        getattr(reductions, builder)(n)
    assert captured.err == f"error: {exc.value}\n"


def test_size_cap_message_points_at_routes_that_reach_the_refused_rank(capsys):
    # Rank 3200 is past the reduced builders' cap and far past the table's:
    # the message offers lambda_n for any rank and the table only up to its cap.
    code = main(["build-matrix", "--n", "3200", "--which", "compacted"])
    err = capsys.readouterr().err
    assert code == 1
    assert "`lambda_n` gives the growth rate exactly without a matrix at any rank" in err
    assert f"`volentropy table` up to rank {entropy._MAX_TABLE_RANK}" in err


# =====================================================================
# entropy
# =====================================================================

def test_entropy_plain_report(capsys):
    code = main(["entropy", "--n", "4", "--orientable"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda:      6.979835779" in out
    assert "entropy:     1.943025389" in out
    assert "routes:" in out
    for name in ROUTE_NAMES:
        assert name in out
    assert "bounds hold: True" in out


def test_entropy_plain_rank2_is_exactly_zero(capsys):
    code = main(["entropy", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda:      1.000000000000" in out
    assert "entropy:     0.000000000000" in out
    assert "routes:" not in out


def test_entropy_json_payload(capsys):
    code = main(["entropy", "--n", "4", "--orientable", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["orientable"] is True
    assert abs(payload["lambda"] - 6.979835779215579) < 1e-9
    assert set(payload["routes"]) == set(ROUTE_NAMES)
    assert payload["bounds"] == {"hold": True, "lower": "342/49", "upper": "7"}


def test_entropy_json_rank_40_reports_the_correctly_rounded_root(capsys):
    # lambda_40 = 79 - 1.6e-74: the nearest float is 79.0 itself.
    code = main(["entropy", "--n", "40", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["lambda"] == 79.0
    assert payload["routes"]["rome-root"] == payload["routes"]["charpoly-root"] == 79.0


def test_entropy_json_rank2_bounds_are_null(capsys):
    code = main(["entropy", "--n", "2", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["routes"] == {}
    assert payload["bounds"] == {"hold": True, "lower": None, "upper": None}


def test_entropy_csv_payload(capsys):
    code = main(["entropy", "--n", "3", "--format", "csv"])
    out = capsys.readouterr().out.rstrip("\n")
    assert code == 0
    header, values = out.splitlines()
    cols = header.split(",")
    vals = values.split(",")
    assert cols[:6] == ["n", "orientable", "lambda", "entropy", "agreement", "bounds_hold"]
    assert cols[6:] == [f"route:{name}" for name in ROUTE_NAMES]
    assert vals[0] == "3"
    assert vals[1] == "false"
    assert abs(float(vals[2]) - 4.791287847477925) < 1e-9
    assert vals[5] == "true"


def test_entropy_inconsistent_routes_exit_silently_in_json(monkeypatch, capsys):
    from volentropy import cli as cli_module

    def fake(spec, tol=1e-10):
        return EntropyReport(
            n=spec.n,
            orientable=spec.orientable,
            lambda_=4.79,
            entropy=1.57,
            routes={"markov-power": 4.0, "rome-root": 4.79},
            agreement=0.79,
            consistent=False,
            bounds_hold=True,
        )

    monkeypatch.setattr(cli_module, "volume_entropy", fake)
    code = main(["entropy", "--n", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "routes disagree" in captured.err
    assert captured.out == ""


def test_entropy_inconsistent_routes_still_print_in_plain(monkeypatch, capsys):
    from volentropy import cli as cli_module

    def fake(spec, tol=1e-10):
        return EntropyReport(
            n=spec.n,
            orientable=spec.orientable,
            lambda_=4.79,
            entropy=1.57,
            routes={"markov-power": 4.0, "rome-root": 4.79},
            agreement=0.79,
            consistent=False,
            bounds_hold=False,
        )

    monkeypatch.setattr(cli_module, "volume_entropy", fake)
    code = main(["entropy", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "routes disagree" in captured.err
    assert "bound certification failed" in captured.err
    assert "lambda:" in captured.out  # plain mode still shows the report


# =====================================================================
# verify
# =====================================================================

EXPECTED_RANK3_CHECKS = {
    "blocks-vs-images",
    "circulant-collapse",
    "disoriented-collapse",
    "reference-rows",
    "spectral-collapse",
    "spectrum-split",
    "rome-charpoly",
    "polynomial-facts",
    "root-bounds",
    "route-consensus",
}


def test_verify_plain_passes(capsys):
    code = main(["verify", "--n-max", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == len(EXPECTED_RANK3_CHECKS) + 1
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("all checks passed")


def test_verify_json_schema(capsys):
    code = main(["verify", "--n-max", "3", "--format", "json"])
    results = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {row["check"] for row in results} == EXPECTED_RANK3_CHECKS
    assert all(row["pass"] for row in results)
    assert all(row["n"] == 3 for row in results)
    assert all(row["seconds"] >= 0 for row in results)


def test_verify_csv_schema(capsys):
    code = main(["verify", "--n-max", "3", "--format", "csv"])
    out = capsys.readouterr().out.rstrip("\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,check,pass,seconds,detail"
    assert len(lines) == len(EXPECTED_RANK3_CHECKS) + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "3"
        assert fields[2] == "true"


def _tamper_compacted(monkeypatch):
    # compacted_matrix with entry (1,1) raised by 5: every check that compares
    # against it now sees a wrong target.
    real = cli.compacted_matrix

    def tampered(n):
        rows = [list(row) for row in real(n).rows]
        rows[0][0] += 5
        return IntMatrix(rows)

    monkeypatch.setattr(cli, "compacted_matrix", tampered)


def test_failing_check_is_reported_with_its_first_difference(monkeypatch):
    _tamper_compacted(monkeypatch)
    results = {row["check"]: row for row in cli._run_battery(3)}
    assert set(results) == EXPECTED_RANK3_CHECKS
    row = results["circulant-collapse"]
    assert row["pass"] is False
    assert row["detail"] == "first difference at (1,1): 0 vs 5"


def test_spectral_collapse_needs_an_irreducible_compacted_matrix(monkeypatch):
    # The compacted matrix plus an isolated vertex keeps its spectral radius
    # but is reducible, so Perron-Frobenius no longer ties the growth rate to it.
    real = cli.compacted_matrix

    def reducible(n):
        rows = [[*row, 0] for row in real(n).rows]
        return IntMatrix([*rows, [0] * len(rows[0])])

    monkeypatch.setattr(cli, "compacted_matrix", reducible)
    row = {row["check"]: row for row in cli._run_battery(3)}["spectral-collapse"]
    assert row["pass"] is False
    assert row["detail"] == "compacted matrix is not irreducible"


def test_rome_charpoly_needs_an_irreducible_supercompacted_matrix(monkeypatch):
    # Irreducibility is the Perron-Frobenius hypothesis that makes q_n's root
    # the spectral radius of S_n; an isolated vertex breaks it first.
    real = cli.super_compacted_matrix

    def reducible(n):
        rows = [[*row, 0] for row in real(n).rows]
        return IntMatrix([*rows, [0] * len(rows[0])])

    monkeypatch.setattr(cli, "super_compacted_matrix", reducible)
    row = {row["check"]: row for row in cli._run_battery(3)}["rome-charpoly"]
    assert row["pass"] is False
    assert row["detail"] == "supercompacted matrix is not irreducible"


@pytest.mark.parametrize(
    "n, row, col, images, blocks",
    [(3, 1, 22, 0, 1), (3, 30, 1, 1, 0), (5, 13, 8, 0, 1), (5, 90, 90, 1, 0)],
)
def test_blocks_vs_images_catches_a_one_cell_route_disagreement(
    n, row, col, images, blocks, monkeypatch
):
    # The images route's masks with one bit flipped, through the name verify
    # calls: blocks-vs-images fails at that 1-based cell of the first spec
    # (the orientable form), and no other check's row changes.
    clean: list[dict] = []
    cli._check_rank(n, clean)
    real = cli._image_masks

    def flipped(spec):
        masks = real(spec)
        masks[row - 1] ^= 1 << (col - 1)
        return masks

    monkeypatch.setattr(cli, "_image_masks", flipped)
    tampered: list[dict] = []
    cli._check_rank(n, tampered)
    assert all(r["pass"] for r in clean)
    for before, after in zip(clean, tampered, strict=True):
        assert after["check"] == before["check"]
        if after["check"] == "blocks-vs-images":
            assert after["pass"] is False
            assert after["detail"] == f"first difference at ({row},{col}): {images} vs {blocks}"
        else:
            assert (after["pass"], after["detail"]) == (before["pass"], before["detail"])


def _tamper_masks(monkeypatch, orientable: bool, tamper) -> None:
    # Both routes' masks of the specs of one orientability, through the names
    # verify calls, tampered alike: blocks-vs-images still passes.
    for name in ("_block_masks", "_image_masks"):
        real = getattr(cli, name)

        def tampered(spec, real=real):
            masks = real(spec)
            if spec.orientable == orientable:
                tamper(spec, masks)
            return masks

        monkeypatch.setattr(cli, name, tampered)


@pytest.mark.parametrize("n, row, col", [(3, 6, 1), (3, 30, 30), (5, 40, 17)])
def test_circulant_collapse_catches_a_bit_flipped_past_the_first_block_row(
    n, row, col, monkeypatch
):
    # The orientable masks with one bit flipped at a 1-based cell outside the
    # first block row: the first block row still sums to the compacted matrix,
    # but the form is no longer circulant, so the non-orientable form's
    # parallelization cannot equal it either.  No other check's row changes.
    clean: list[dict] = []
    cli._check_rank(n, clean)

    def flip(spec, masks):
        masks[row - 1] ^= 1 << (col - 1)

    _tamper_masks(monkeypatch, True, flip)
    tampered: list[dict] = []
    cli._check_rank(n, tampered)
    failing = ("circulant-collapse", "disoriented-collapse")
    for before, after in zip(clean, tampered, strict=True):
        assert after["check"] == before["check"]
        if after["check"] in failing:
            assert after["pass"] is False
            assert after["detail"] == "orientation-preserving form not circulant"
        else:
            assert (after["pass"], after["detail"]) == (True, "")


@pytest.mark.parametrize("n, row, col", [(3, 1, 1), (4, 3, 20), (6, 11, 60)])
def test_disoriented_collapse_reports_where_the_first_block_rows_differ(
    n, row, col, monkeypatch
):
    # The orientable masks with one bit flipped at the same place in every
    # block row: still circulant, but with another first block row, so the
    # non-orientable form's parallelization differs from it at that cell.
    s, size = 2 * n - 1, 2 * n * (2 * n - 1)
    before = cli._block_masks(PresentationSpec(n, False))[row - 1] >> (col - 1) & 1

    def flip_every_block_row(spec, masks):
        for b in range(0, size, s):
            masks[b + row - 1] ^= 1 << (col - 1 + b) % size

    _tamper_masks(monkeypatch, True, flip_every_block_row)
    rows: list[dict] = []
    cli._check_rank(n, rows)
    failed = {r["check"]: r["detail"] for r in rows if not r["pass"]}
    assert set(failed) == {"circulant-collapse", "disoriented-collapse"}
    assert failed["circulant-collapse"].startswith(f"first difference at ({row},")
    assert failed["disoriented-collapse"] == (
        f"first difference at ({row},{col}): {before} vs {1 - before}"
    )


@pytest.mark.parametrize("n", [3, 4, 6])
def test_disoriented_collapse_catches_two_rows_swapped_in_a_reversed_block_row(
    n, monkeypatch
):
    # Block row n of the non-orientable form is reversed by J; with two of its
    # rows swapped it is neither the rotated first block row nor its reverse.
    s = 2 * n - 1
    a, b = (n - 1) * s, (n - 1) * s + 2
    masks = cli._block_masks(PresentationSpec(n, False))
    assert masks[a] != masks[b]

    def swap(spec, masks):
        masks[a], masks[b] = masks[b], masks[a]

    _tamper_masks(monkeypatch, False, swap)
    rows: list[dict] = []
    cli._check_rank(n, rows)
    results = {row["check"]: row for row in rows}
    assert results["blocks-vs-images"]["pass"] is True
    assert results["circulant-collapse"]["pass"] is True
    assert results["disoriented-collapse"]["pass"] is False
    assert results["disoriented-collapse"]["detail"] == (
        "reversing form not disoriented block circulant"
    )


def _replaced(report: EntropyReport, **changes) -> EntropyReport:
    """The report with the named fields changed and the rest as they were."""
    return EntropyReport(**{**{name: getattr(report, name) for name in report.__slots__}, **changes})


@pytest.mark.parametrize("route", ["markov-power", "compacted-power"])
def test_spectral_collapse_reads_the_power_routes_of_the_entropy_report(route, monkeypatch):
    # One power route of the report moved by 1e-5, the report still calling
    # itself consistent: route-consensus passes, spectral-collapse sees the gap.
    real = cli.volume_entropy

    def shifted(spec, tol=1e-10):
        report = real(spec, tol)
        return _replaced(report, routes={**report.routes, route: report.routes[route] + 1e-5})

    monkeypatch.setattr(cli, "volume_entropy", shifted)
    results = {row["check"]: row for row in cli._run_battery(3)}
    failed = {name: row["detail"] for name, row in results.items() if not row["pass"]}
    assert list(failed) == ["spectral-collapse"]
    assert failed["spectral-collapse"] == "spectral radius gap 1.000e-05"


@pytest.mark.parametrize("route", ROUTE_NAMES[:3])
def test_spectral_collapse_names_the_power_route_that_did_not_converge(route, monkeypatch):
    real = cli.volume_entropy

    def stuck(spec, tol=1e-10):
        report = real(spec, tol)
        return _replaced(
            report, converged={**report.converged, route: False}, consistent=False
        )

    monkeypatch.setattr(cli, "volume_entropy", stuck)
    results = {row["check"]: row for row in cli._run_battery(3)}
    assert results["spectral-collapse"]["detail"] == (
        f"power iteration did not converge for {PresentationSpec(3, False)}: {route}"
    )


def test_spectral_collapse_tells_disagreeing_routes_from_unconverged_ones(monkeypatch):
    real = cli.volume_entropy

    def disagreeing(spec, tol=1e-10):
        return _replaced(real(spec, tol), agreement=0.5, consistent=False)

    monkeypatch.setattr(cli, "volume_entropy", disagreeing)
    results = {row["check"]: row for row in cli._run_battery(3)}
    assert results["spectral-collapse"]["detail"] == "routes disagree (spread 5.000e-01)"


def test_an_assertion_inside_volume_entropy_fails_the_rows_that_read_it(monkeypatch, capsys):
    # route-consensus and spectral-collapse both read the one report; with no
    # report both FAIL, and verify prints its table instead of a traceback.
    def failing(spec, tol=1e-10):
        raise AssertionError("routes broke")

    monkeypatch.setattr(cli, "volume_entropy", failing)
    results = {row["check"]: row for row in cli._run_battery(3)}
    failed = {name: row["detail"] for name, row in results.items() if not row["pass"]}
    assert failed == {
        "route-consensus": "routes broke",
        "spectral-collapse": "no entropy report: route-consensus failed",
    }
    assert main(["verify", "--n-max", "3"]) == 1
    lines = capsys.readouterr().out.rstrip("\n").splitlines()
    assert lines[-1] == "CHECKS FAILED (10 run)"
    assert sum(line.startswith("FAIL") for line in lines) == 2


def test_verify_with_a_failing_check_exits_1(monkeypatch, capsys):
    _tamper_compacted(monkeypatch)
    code = main(["verify", "--n-max", "3"])
    lines = capsys.readouterr().out.rstrip("\n").splitlines()
    assert code == 1
    assert lines[-1].startswith("CHECKS FAILED")
    assert any(
        line.startswith("FAIL") and "circulant-collapse" in line for line in lines
    )
    code = main(["verify", "--n-max", "3", "--format", "json"])
    results = json.loads(capsys.readouterr().out)
    assert code == 1
    assert {row["check"] for row in results} == EXPECTED_RANK3_CHECKS
    assert not all(row["pass"] for row in results)


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_verify_past_the_matrix_rank_cap_exits_1_before_any_check(
    fmt, monkeypatch, capsys
):
    # Rank 41 is past the builders' cap; verify must say so up front instead
    # of running ranks 3..40 first.
    def no_battery(n_max):
        raise AssertionError("the battery ran")

    monkeypatch.setattr(cli, "_run_battery", no_battery)
    t0 = time.perf_counter()
    code = main(["verify", "--n-max", "41", "--format", fmt])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "rank 40" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


def test_first_difference_reports_1_based_position():
    a = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    b = IntMatrix([[1, 2, 3], [4, 5, 0], [7, 0, 9]])
    assert _first_difference(a, b) == "first difference at (2,3): 6 vs 0"
    assert _first_difference(a, a) == ""


@given(st.data())
def test_mask_difference_reads_like_the_matrix_difference(data):
    # Row i is the first unequal mask, column j the lowest set bit of the XOR.
    size = data.draw(st.integers(1, 12))
    masks = st.lists(st.integers(0, (1 << size) - 1), min_size=size, max_size=size)
    a, b = data.draw(masks), data.draw(masks)
    assume(a != b)
    got = cli._first_mask_difference(a, b)
    assert got == _first_difference(markov._from_masks(a, size), markov._from_masks(b, size))


def test_first_difference_reports_size_mismatch():
    assert _first_difference(IntMatrix.identity(2), IntMatrix.identity(3)) == (
        "sizes differ: 2 vs 3"
    )
    assert cli._first_mask_difference([1, 2], [1, 2, 4]) == "sizes differ: 2 vs 3"


# =====================================================================
# table
# =====================================================================

def test_table_csv_rows(capsys):
    code = main(["table", "--from", "3", "--to", "5", "--format", "csv"])
    out = capsys.readouterr().out.rstrip("\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,lambda,entropy,lower_bound,upper_bound,gap"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "3"
    assert first[3] == ""  # no closed-form lower bound at rank 3
    second = lines[2].split(",")
    assert abs(float(second[3]) - (7 - 1 / 49)) < 1e-12


def test_table_json_rows(capsys):
    code = main(["table", "--from", "3", "--to", "4", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [row["n"] for row in rows] == [3, 4]
    assert rows[0]["lower_bound"] is None
    assert rows[1]["upper_bound"] == 7.0
    assert all(row["gap"] > 0 for row in rows)


def test_table_plain_has_header_and_rows(capsys):
    code = main(["table", "--from", "3", "--to", "4"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert lines[0].lstrip().startswith("n")
    assert len(lines) == 4  # header, rule, two ranks


# =====================================================================
# error handling
# =====================================================================

@pytest.mark.parametrize(
    "argv",
    [
        ["build-matrix", "--n", "2"],
        ["build-matrix", "--n", "2", "--which", "compacted"],
        ["entropy", "--n", "1"],
        ["entropy", "--n", "5", "--orientable"],
        ["entropy", "--n", "3", "--tol", "0"],
        ["entropy", "--n", "3", "--tol=-1e-9"],
        ["table", "--from", "2", "--to", "5"],
        ["table", "--from", "5", "--to", "3"],
        ["verify", "--n-max", "2"],
    ],
)
def test_precondition_violations_exit_1_with_message(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_exits_1_and_names_the_value(tol, fmt, capsys):
    code = main(["entropy", "--n", "6", "--tol", tol, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert f"got {tol}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_oversized_tol_exits_1_and_names_the_range(fmt, capsys):
    # A tol this large would inflate the consistency bound until any spread
    # between the routes passed.
    code = main(["entropy", "--n", "6", "--tol", "0.5", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "(0, 1e-06]" in captured.err
    assert "got 0.5" in captured.err
    assert captured.out == ""


def _count_blocks_builds(monkeypatch) -> list:
    """Route every module's `build_markov_from_blocks` through a counter."""
    calls = []
    real = markov.build_markov_from_blocks

    def counting(spec):
        calls.append(spec)
        return real(spec)

    for mod in (volentropy, markov, cli, entropy):
        if hasattr(mod, "build_markov_from_blocks"):
            monkeypatch.setattr(mod, "build_markov_from_blocks", counting)
    return calls


def test_volume_entropy_builds_no_dense_matrix(monkeypatch):
    calls = _count_blocks_builds(monkeypatch)
    for n, orientable in ((3, False), (6, True), (10, False)):
        assert volume_entropy(PresentationSpec(n, orientable)).consistent
    assert calls == []


def test_verify_builds_no_blocks_matrix_and_each_blocks_mask_list_once(monkeypatch):
    # The collapse checks read the blocks route's row masks, built once per
    # spec in blocks-vs-images: 16 mask lists at --n-max 10 and, counted in
    # every module, route-consensus included, no blocks-route matrix.
    builds = _count_blocks_builds(monkeypatch)
    calls = []
    real = cli._block_masks

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(cli, "_block_masks", counting)
    results = cli._run_battery(10)
    assert all(row["pass"] for row in results)
    assert builds == []
    assert Counter(spec.n for spec in calls) == {n: 2 for n in range(3, 11)}
    assert len(set(calls)) == len(calls)


def test_verify_builds_each_closed_form_once_per_rank(monkeypatch):
    # Every check of a rank reads the one compacted and one supercompacted
    # matrix built at its top.
    calls = Counter()
    for name in ("compacted_matrix", "super_compacted_matrix"):
        real = getattr(cli, name)

        def counting(n, name=name, real=real):
            calls[name, n] += 1
            return real(n)

        monkeypatch.setattr(cli, name, counting)
    results = cli._run_battery(10)
    assert all(row["pass"] for row in results)
    assert calls == {
        (name, n): 1
        for name in ("compacted_matrix", "super_compacted_matrix")
        for n in range(3, 11)
    }


def test_verify_peak_memory_stays_below_half_a_transition_matrix():
    # Measured with tracemalloc at --n-max 12, in units of one rank-12
    # transition matrix (552x552, 2.46 MB traced): the battery peaks at 0.19.
    # It builds no transition matrix past rank 4; the collapse checks read
    # row masks, N bits a row.
    tracemalloc.start()
    try:
        one = build_markov_from_blocks(PresentationSpec(12, False))
        size = tracemalloc.get_traced_memory()[0]
        del one
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        results = cli._run_battery(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row["pass"] for row in results)
    assert peak < 0.5 * size, peak / size


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return str(value).replace(",", ";")


@pytest.mark.parametrize(
    "argv", [["table", "--from", "3", "--to", "8"], ["verify", "--n-max", "4"]]
)
def test_csv_and_json_carry_the_same_records(argv, monkeypatch, capsys):
    # One battery for both formats, so `seconds` agrees; with the compacted
    # matrix tampered, FAIL rows carry details with commas.
    _tamper_compacted(monkeypatch)
    results = cli._run_battery(4)
    monkeypatch.setattr(cli, "_run_battery", lambda n_max: results)
    main([*argv, "--format", "json"])
    records = json.loads(capsys.readouterr().out)
    main([*argv, "--format", "csv"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == len(records) > 0
    assert rows == [{k: _csv_cell(v) for k, v in record.items()} for record in records]
    if argv[0] == "verify":
        assert any("(1;1)" in row["detail"] for row in rows)


def test_error_output_stays_off_stdout_in_json(capsys):
    code = main(["entropy", "--n", "5", "--orientable", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error:" in captured.err


def test_unknown_choice_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build-matrix", "--n", "3", "--which", "bogus"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "volentropy", "entropy", "--n", "3", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert abs(payload["lambda"] - 4.791287847477925) < 1e-9


def test_a_stdout_pipe_closed_early_ends_without_a_traceback():
    # `table ... | head -1`: the reader is gone before the table is written.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "volentropy", "table", "--from", "3", "--to", "60"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_entropy_past_the_matrix_rank_cap_exits_1_before_building(fmt, capsys):
    # A dense transition matrix at n = 41 has 6642² cells; the builders
    # refuse it up front and point at the exact route that needs no matrix.
    code = main(["entropy", "--n", "41", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert "volentropy table" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize(
    "flags, env", [(["-O"], {}), ([], {"PYTHONOPTIMIZE": "1"})], ids=["-O", "PYTHONOPTIMIZE"]
)
def test_verify_refuses_to_run_with_its_asserts_stripped(flags, env, fmt):
    # Under python -O every assert is gone, so each check would read PASS.
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "volentropy", "verify", "--n-max", "3", "--format", fmt],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, **env},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "-O strips" in proc.stderr
    assert proc.stdout == ""


def test_routes_run_without_numpy():
    # Power iteration is pure Python: with numpy made unimportable, verify
    # and entropy still succeed.
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from volentropy import cli\n"
        "assert cli.main(['verify', '--n-max', '4']) == 0\n"
        "assert cli.main(['entropy', '--n', '5', '--format', 'json']) == 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
