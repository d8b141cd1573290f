"""End-to-end drives of the command-line interface.

Most tests call main() in-process and inspect stdout/stderr through capsys;
the ones that need a process of their own (the ``python -m`` wiring, the
command path of main(), exit behaviour) run one.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

import volentropy
from volentropy import _commands, cli, core, entropy, markov, reductions, rome, spectral
from volentropy.cli import main
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
    # the message offers lambda_n (a float) and lambda_n_bracket (exact).  It
    # promises neither at any rank (lambda_n(1000) takes seconds) and leaves
    # the table's cap to the table's own refusal, which states it.
    code = main(["build-matrix", "--n", "3200", "--which", "compacted"])
    err = capsys.readouterr().err
    assert code == 1
    assert (
        "`lambda_n` gives the growth rate as a float without a matrix, "
        "`lambda_n_bracket` an exact rational bracket of it" in err
    )
    assert "at any rank" not in err
    assert f"rank {entropy._MAX_TABLE_RANK}" not in err


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
    def fake(spec):
        return EntropyReport(
            n=spec.n,
            orientable=spec.orientable,
            lambda_=4.79,
            routes={"markov-power": 4.0, "rome-root": 4.79},
            converged={"markov-power": True},
            bounds_hold=True,
        )

    monkeypatch.setattr(_commands, "volume_entropy", fake)
    code = main(["entropy", "--n", "3", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "routes disagree" in captured.err
    assert captured.out == ""


def test_entropy_inconsistent_routes_still_print_in_plain(monkeypatch, capsys):
    def fake(spec):
        return EntropyReport(
            n=spec.n,
            orientable=spec.orientable,
            lambda_=4.79,
            routes={"markov-power": 4.0, "rome-root": 4.79},
            converged={"markov-power": True},
            bounds_hold=False,
        )

    monkeypatch.setattr(_commands, "volume_entropy", fake)
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


def test_verify_to_rank_10_runs_74_distinct_checks_all_passing(capsys):
    # Every check at every rank, once each: reference-rows at ranks 3 and 4
    # only.  A dropped or duplicated check changes the count.
    assert main(["verify", "--n-max", "10", "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)
    pairs = {(row["n"], row["check"]) for row in results}
    assert len(results) == len(pairs) == 74
    assert pairs == {
        (n, check)
        for n in range(3, 11)
        for check in EXPECTED_RANK3_CHECKS
        if check != "reference-rows" or n <= 4
    }
    assert all(row["pass"] is True for row in results)


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


def test_spectrum_split_compares_the_divided_matrix_with_the_compacted_one(monkeypatch):
    # The divided matrix is built independently of the tampered compacted
    # matrix, so its middle rows summed differ from it where it was changed.
    _tamper_compacted(monkeypatch)
    row = {row["check"]: row for row in cli._run_battery(3)}["spectrum-split"]
    assert row["pass"] is False
    assert row["detail"] == "first difference at (1,1): 0 vs 5"


def test_spectrum_split_catches_a_unit_moved_between_the_middle_rows(monkeypatch):
    # Entry (3,3) of the rank-3 divided matrix moved down to (4,3): rows 3 and
    # 4 still sum to the doubled middle row, but e_3 - e_4 is no longer fixed.
    # spectrum-split is the only check that reads the divided matrix.
    clean: list[dict] = []
    cli._check_rank(3, clean)
    real = cli.divided_compacted_matrix

    def moved(n):
        rows = [list(row) for row in real(n).rows]
        rows[n - 1][n - 1] -= 1
        rows[n][n - 1] += 1
        return IntMatrix(rows)

    monkeypatch.setattr(cli, "divided_compacted_matrix", moved)
    tampered: list[dict] = []
    cli._check_rank(3, tampered)
    assert all(r["pass"] for r in clean)
    for before, after in zip(clean, tampered, strict=True):
        assert after["check"] == before["check"]
        if after["check"] == "spectrum-split":
            assert after["pass"] is False
            assert after["detail"] == (
                "e_3 - e_4 is not an eigenvector for 1: column 3 minus column 4, "
                "first difference at (3,1): 0 vs 1"
            )
        else:
            assert (after["pass"], after["detail"]) == (before["pass"], before["detail"])


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


def _unit_moves(values: list[int], floor: float):
    """(index, moved value) for each value moved by +-1 and kept >= floor."""
    return [(k, v + d) for k, v in enumerate(values) for d in (-1, 1) if v + d >= floor]


def _matrix_mutants(real: IntMatrix):
    side = real.size
    for k, value in _unit_moves([x for row in real.rows for x in row], 0):
        rows = [list(row) for row in real.rows]
        rows[k // side][k % side] = value
        yield f"({k // side + 1},{k % side + 1}) -> {value}", IntMatrix(rows)


def _polynomial_mutants(real: core.IntPolynomial):
    for k, value in _unit_moves(list(real.coeffs), -math.inf):
        coeffs = list(real.coeffs)
        coeffs[k] = value
        yield f"coefficient {k} -> {value}", core.IntPolynomial(coeffs)


def _closed_form_patches(name: str, n: int):
    """(label, patches) for each unit move of the closed form `name` at rank
    n, patched through its name in every module that calls it."""
    modules = [mod for mod in (cli, entropy, reductions, rome) if hasattr(mod, name)]
    if name == "q_polynomial":
        real, mutants = rome.q_polynomial, _polynomial_mutants
    else:
        real, mutants = getattr(reductions, name), _matrix_mutants
    for label, mutant in mutants(real(n)):
        fake = lambda k, mutant=mutant: mutant if k == n else real(k)
        yield label, [(mod, name, fake) for mod in modules]


def _image_flip_patches(n: int):
    """(label, patches) for one images-route bit flip per block row b of each
    presentation: the first row of block row b, at its diagonal column."""
    real = cli._image_masks
    for orientable in (True, False):
        for b in range(2 * n):
            def flipped(spec, orientable=orientable, b=b):
                for c, row in enumerate(real(spec)):
                    if c == b and spec.orientable == orientable:
                        row = [row[0] ^ 1 << c * len(row), *row[1:]]
                    yield row

            yield f"orientable={orientable} block row {b + 1}", [(cli, "_image_masks", flipped)]


def _moved_entry(orientable: bool, i: int, j: int, d: int, s: int):
    """Patches that wrap `TransitionOperator._block_rows`, so that in the
    presentation `orientable` row i of M v gains d * v_j: entry (i, j) of M
    moved by d, s the block size.  The mask pass and the power product both
    read `_block_rows`, so they see the same mutant."""
    real = markov.TransitionOperator._block_rows

    def moved(self, block, sums):
        for c, row in enumerate(real(self, block, sums)):
            if c == i // s and self.spec.orientable == orientable:
                row[i % s] += d * block(j // s)[j % s]
            yield row

    return [(markov.TransitionOperator, "_block_rows", moved)]


def _block_entry_patches(n: int):
    """(label, patches) for one blocks-route entry per block row b of each
    presentation: the first row of block row b gains 1 at its diagonal
    column, where M is zero."""
    s = 2 * n - 1
    for orientable in (True, False):
        clean = [mask for row in markov._block_masks(PresentationSpec(n, orientable)) for mask in row]
        for b in range(2 * n):
            assert not clean[b * s] >> b * s & 1, (orientable, b)
            label = f"orientable={orientable} block row {b + 1}"
            yield label, _moved_entry(orientable, b * s, b * s, 1, s)


def _block_entry_sweep_patches(n: int):
    """(label, patches) for every entry (i, j) of the blocks route at rank n,
    in both presentations, moved by +1, and each nonzero one by -1."""
    s = 2 * n - 1
    for orientable in (True, False):
        spec = PresentationSpec(n, orientable, formal=True)
        support = [mask for row in markov._block_masks(spec) for mask in row]
        for i, mask in enumerate(support):
            for j in range(len(support)):
                for d in (1, -1) if mask >> j & 1 else (1,):
                    label = f"orientable={orientable} ({i + 1},{j + 1}) {d:+d}"
                    yield label, _moved_entry(orientable, i, j, d, s)


def _reference_flip_patches(n: int):
    """(label, patches) for one 0<->1 flip per frozen reference row r, at column r."""
    real = cli.reference_rows
    for r in range(len(real(n, n == 4))):  # the frozen rows: rank 4 orientable, rank 3 not
        def flipped(k, orientable, r=r):
            rows = real(k, orientable)
            rows[r][r] ^= 1
            return rows

        yield f"reference row {r + 1}", [(cli, "reference_rows", flipped)]


def _failures(n: int, mutants, monkeypatch) -> dict[str, set[str]]:
    """The rows of rank n that FAIL with each mutant's patches in place, by
    label.  An exception escaping _check_rank fails the test."""
    failures = {}
    for label, patches in mutants:
        with monkeypatch.context() as patch:
            for mod, name, value in patches:
                patch.setattr(mod, name, value)
            rows: list[dict] = []
            cli._check_rank(n, rows)
        failures[label] = {row["check"] for row in rows if not row["pass"]}
    assert failures
    escaped = [label for label, failed in failures.items() if not failed]
    assert not escaped, f"{len(escaped)} of {len(failures)} mutants pass every check: {escaped}"
    return failures


# Which rows catch which family at rank 4: the rows that FAIL for at least one
# mutant of each family.  Together they name every row of the rank.
CATCH_TABLE_4 = {
    "compacted_matrix": {
        "circulant-collapse", "disoriented-collapse", "route-consensus", "spectral-collapse", "spectrum-split",
    },
    "divided_compacted_matrix": {"spectrum-split"},
    "super_compacted_matrix": {"rome-charpoly", "route-consensus", "spectral-collapse", "spectrum-split"},
    "q_polynomial": {"polynomial-facts", "rome-charpoly", "root-bounds"},
    "images-route bit": {"blocks-vs-images"},
    "blocks-route entry": {
        "blocks-vs-images", "circulant-collapse", "disoriented-collapse", "route-consensus", "spectral-collapse",
    },
    "reference row": {"reference-rows"},
}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize(
    "name", ["compacted_matrix", "divided_compacted_matrix", "super_compacted_matrix", "q_polynomial"]
)
def test_every_unit_move_of_a_closed_form_fails_a_row_of_its_rank(name, n, monkeypatch):
    # Each entry (coefficient) moved by one, through the builder's name in
    # every module that calls it: some check of the rank FAILs.  At rank 4
    # the rows that catch the family are pinned.
    failures = _failures(n, _closed_form_patches(name, n), monkeypatch)
    if n == 4:
        assert set().union(*failures.values()) == CATCH_TABLE_4[name]


@pytest.mark.parametrize(
    "family, mutants",
    [
        ("images-route bit", _image_flip_patches),
        ("blocks-route entry", _block_entry_patches),
        ("reference row", _reference_flip_patches),
    ],
)
def test_every_route_bit_and_reference_flip_fails_a_row_of_rank_4(family, mutants, monkeypatch):
    # One images-route bit and one blocks-route entry per block row of both
    # presentations (16 mutants each), and one entry per frozen reference row
    # (21): each FAILs its pinned row.
    failures = _failures(4, mutants(4), monkeypatch)
    assert set().union(*failures.values()) == CATCH_TABLE_4[family]


def test_every_unit_move_of_a_blocks_route_entry_fails_a_row_of_rank_3(monkeypatch):
    # All 30 x 30 entries of both presentations moved by +1, and the 138
    # nonzero entries of each by -1: 2076 mutants, none passing every check.
    failures = _failures(3, _block_entry_sweep_patches(3), monkeypatch)
    assert len(failures) == 2 * 30 * 30 + 2 * 138
    assert set().union(*failures.values()) == {
        "blocks-vs-images", "circulant-collapse", "disoriented-collapse", "route-consensus", "spectral-collapse",
    }


def test_the_catch_table_at_rank_4_names_every_row():
    rows: list[dict] = []
    cli._check_rank(4, rows)
    assert set().union(*CATCH_TABLE_4.values()) == {row["check"] for row in rows}


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
        masks = _flat(real(spec))
        masks[row - 1] ^= 1 << (col - 1)
        return _in_block_rows(masks, spec)

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


def _flat(block_rows) -> list[int]:
    """A route's block rows of masks as one list, a mask a row."""
    return [mask for row in block_rows for mask in row]


def _in_block_rows(masks: list[int], spec):
    """Row masks yielded a block row at a time, as the routes yield them."""
    s = spec.block_size
    return (masks[b : b + s] for b in range(0, len(masks), s))


def _tamper_masks(monkeypatch, orientable: bool, tamper) -> None:
    # Both routes' masks of the specs of one orientability, through the names
    # verify calls, tampered alike as one list: blocks-vs-images still passes.
    for name in ("_block_masks", "_image_masks"):
        real = getattr(cli, name)

        def tampered(spec, real=real):
            masks = _flat(real(spec))
            if spec.orientable == orientable:
                tamper(spec, masks)
            return _in_block_rows(masks, spec)

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
    before = _flat(cli._block_masks(PresentationSpec(n, False)))[row - 1] >> (col - 1) & 1

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
    masks = _flat(cli._block_masks(PresentationSpec(n, False)))
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
    # One power route of the report moved by 1e-5: the report's own verdict
    # fails route-consensus, and spectral-collapse reads the gap itself.
    real = cli.volume_entropy

    def shifted(spec):
        report = real(spec)
        return _replaced(report, routes={**report.routes, route: report.routes[route] + 1e-5})

    monkeypatch.setattr(cli, "volume_entropy", shifted)
    results = {row["check"]: row for row in cli._run_battery(3)}
    failed = {name: row["detail"] for name, row in results.items() if not row["pass"]}
    assert failed == {
        "route-consensus": "routes spread 1.000e-05",
        "spectral-collapse": "spectral radius gap 1.000e-05",
    }


@pytest.mark.parametrize("route", ROUTE_NAMES[:3])
def test_spectral_collapse_names_the_power_route_that_did_not_converge(route, monkeypatch):
    real = cli.volume_entropy

    def stuck(spec):
        report = real(spec)
        return _replaced(report, converged={**report.converged, route: False})

    monkeypatch.setattr(cli, "volume_entropy", stuck)
    results = {row["check"]: row for row in cli._run_battery(3)}
    assert results["spectral-collapse"]["detail"] == (
        f"not certified for {PresentationSpec(3, False)}: {route}"
    )


def test_spectral_collapse_certifies_the_formal_orientable_operator(monkeypatch, raised_operator):
    # One entry of the formal orientable operator raised by 1 moves its
    # spectral radius above the bracket; the report's routes stay certified.
    plus = PresentationSpec(3, True, formal=True)
    real = markov.TransitionOperator
    monkeypatch.setattr(cli, "TransitionOperator", lambda spec: (raised_operator if spec == plus else real)(spec))
    rows = []
    cli._check_rank(3, rows)
    failed = {row["check"]: row["detail"] for row in rows if not row["pass"]}
    assert list(failed) == ["spectral-collapse"]
    hi = math.nextafter(volume_entropy(PresentationSpec(3, False)).lambda_, math.inf)
    assert failed["spectral-collapse"] == (
        f"not certified for {plus}: markov-power (row 1 above the upper end {hi!r})"
    )


def test_spectral_collapse_tells_disagreeing_routes_from_unconverged_ones(monkeypatch):
    # A root route 0.5 off with every power route certified: route-consensus
    # fails on the report's spread, spectral-collapse has nothing to report.
    real = cli.volume_entropy

    def disagreeing(spec):
        report = real(spec)
        return _replaced(report, routes={**report.routes, "charpoly-root": report.lambda_ + 0.5})

    monkeypatch.setattr(cli, "volume_entropy", disagreeing)
    results = {row["check"]: row for row in cli._run_battery(3)}
    failed = {name: row["detail"] for name, row in results.items() if not row["pass"]}
    assert failed == {"route-consensus": "routes spread 5.000e-01"}


def test_an_assertion_inside_volume_entropy_fails_the_rows_that_read_it(monkeypatch, capsys):
    # route-consensus and spectral-collapse both read the one report; with no
    # report both FAIL, and verify prints its table instead of a traceback.
    def failing(spec):
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


def test_a_root_search_that_raises_fails_its_rows_instead_of_aborting_verify(monkeypatch, capsys):
    # 1 + x has no root in (1, 5): the exact signs' ValueError is a FAIL of
    # route-consensus, and verify still prints every row and exits 1.
    monkeypatch.setattr(entropy, "char_poly_exact", lambda m: core.IntPolynomial([1, 1]))
    assert main(["verify", "--n-max", "3", "--format", "json"]) == 1
    results = json.loads(capsys.readouterr().out)
    assert {row["check"] for row in results} == EXPECTED_RANK3_CHECKS
    failed = {row["check"]: row["detail"] for row in results if not row["pass"]}
    assert failed == {
        "route-consensus": "no certified sign change between 1.0 and 5.0",
        "spectral-collapse": "no entropy report: route-consensus failed",
    }


def _raise_value_error(*args):
    raise ValueError("stubbed to fail")


@pytest.mark.parametrize(
    "name, failed",
    [
        ("_block_masks", {
            "blocks-vs-images": "stubbed to fail",
            "circulant-collapse": "no masks: blocks-vs-images failed",
            "disoriented-collapse": "no masks: blocks-vs-images failed",
        }),
        ("_block_row_pass", {
            "blocks-vs-images": "stubbed to fail",
            "circulant-collapse": "no masks: blocks-vs-images failed",
            "disoriented-collapse": "no masks: blocks-vs-images failed",
        }),
    ],
)
def test_a_mask_check_that_raises_fails_the_checks_that_need_it_instead_of_aborting_verify(
    name, failed, monkeypatch, capsys
):
    # The later mask checks read what the earlier ones bound; with nothing
    # bound they FAIL with a reason, and verify still prints every row and exits 1.
    monkeypatch.setattr(cli, name, _raise_value_error)
    assert main(["verify", "--n-max", "3", "--format", "json"]) == 1
    results = json.loads(capsys.readouterr().out)
    assert {row["check"] for row in results} == EXPECTED_RANK3_CHECKS
    assert {row["check"]: row["detail"] for row in results if not row["pass"]} == failed


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
    assert reductions._first_row_difference(a.rows, b.rows) == "first difference at (2,3): 6 vs 0"
    assert reductions._first_row_difference(a.rows, a.rows) == ""


@given(st.data())
def test_mask_difference_reads_like_the_matrix_difference(data):
    # Row i is the first unequal mask, column j the lowest set bit of the XOR;
    # rows numbered from start + 1 read as if start equal rows came first.
    size, start = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 3))
    masks = st.lists(st.integers(0, (1 << size) - 1), min_size=size, max_size=size)
    a, b = data.draw(masks), data.draw(masks)
    assume(a != b)
    got = reductions._first_mask_difference(a, b, start)
    want = (((0,) * size,) * start + markov._from_masks(m, size).rows for m in (a, b))
    assert got == reductions._first_row_difference(*want)


def test_first_difference_reports_size_mismatch():
    assert reductions._first_row_difference(
        IntMatrix.identity(2).rows, IntMatrix.identity(3).rows
    ) == "sizes differ: 2 vs 3"
    assert reductions._first_mask_difference([1, 2], [1, 2, 4]) == "sizes differ: 2 vs 3"


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
        ["entropy", "--n", "0"],
        ["build-matrix", "--n", "3", "--orientable"],
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


def test_entropy_takes_no_tolerance(capsys):
    # Each power route is proven to the floats either side of the root, so
    # there is no width to choose, on the command line or in the library.
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--n", "3", "--tol", "1e-10"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""
    with pytest.raises(TypeError):
        volume_entropy(PresentationSpec(3, False), tol=1e-10)


def _count_blocks_builds(monkeypatch) -> list:
    """Route every module's `build_markov_from_blocks` through a counter."""
    calls = []
    real = markov.build_markov_from_blocks

    def counting(spec):
        calls.append(spec)
        return real(spec)

    for mod in (volentropy, markov, cli, _commands, entropy):
        if hasattr(mod, "build_markov_from_blocks"):
            monkeypatch.setattr(mod, "build_markov_from_blocks", counting)
    return calls


def test_volume_entropy_builds_no_dense_matrix(monkeypatch):
    calls = _count_blocks_builds(monkeypatch)
    for n, orientable in ((3, False), (6, True), (10, False)):
        assert volume_entropy(PresentationSpec(n, orientable)).consistent
    assert calls == []


def test_verify_builds_no_blocks_matrix_and_each_blocks_mask_list_once(monkeypatch):
    # The collapse checks read the blocks route's row masks, yielded once per
    # spec in blocks-vs-images: 16 block-row streams at --n-max 10 and,
    # counted in every module, route-consensus included, no blocks-route matrix.
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


def test_verify_computes_each_characteristic_polynomial_once_per_rank():
    # route-consensus (inside volume_entropy) and rome-charpoly read the same
    # supercompacted matrix, so the second is answered by the cache: one miss
    # and one hit per function and rank.
    caches = (rome.rome_char_poly, spectral.char_poly_exact)
    for cache in caches:
        cache.cache_clear()
    for n in range(3, 11):
        before = [cache.cache_info() for cache in caches]
        results: list[dict] = []
        cli._check_rank(n, results)
        assert all(row["pass"] for row in results)
        for cache, old in zip(caches, before):
            new = cache.cache_info()
            assert (new.misses - old.misses, new.hits - old.hits) == (1, 1), (cache, n)


def test_rome_charpoly_is_not_answered_from_the_memo_for_a_changed_matrix(monkeypatch):
    # One weight of the heavy row raised: the support, so irreducibility and
    # the rome, stay, but the polynomials change.  route-consensus has put
    # the real matrix's polynomials in the cache by the time rome-charpoly asks.
    real = cli.super_compacted_matrix

    def heavier(n):
        rows = [list(row) for row in real(n).rows]
        rows[n - 2][0] += 1
        return IntMatrix(rows)

    monkeypatch.setattr(cli, "super_compacted_matrix", heavier)
    results = {row["check"]: row for row in cli._run_battery(3)}
    assert results["route-consensus"]["pass"] is True
    row = results["rome-charpoly"]
    assert row["pass"] is False
    assert row["detail"] == (
        "polynomials differ: rome=x^3 - 4*x^2 - 5*x exact=x^3 - 4*x^2 - 5*x "
        "closed=x^3 - 4*x^2 - 4*x + 1"
    )


def test_verify_peak_memory_stays_below_half_a_transition_matrix():
    # Measured with tracemalloc at --n-max 12, in units of one rank-12
    # transition matrix (552x552, 2.46 MB traced): the battery peaks at 0.19.
    # It builds no transition matrix past rank 4; the collapse checks read
    # the blocks route's row masks, N bits a row, a block row at a time.
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


def test_a_rank_of_verify_holds_the_routes_one_block_row_at_a_time(monkeypatch):
    # At rank 32 the transition matrix has N = 4032 rows, so one route's row
    # masks held whole take 2 MB and the rank peaked near 5 MB traced; streamed
    # a block row of 63 masks at a time, it peaks under 0.5 MB.  A rank whose
    # routes differ in block row 1 holds no more: the mismatch is read in the
    # block row where it occurs, not from copies of every row after it.
    real = cli._image_masks

    def flipped(spec):
        rows = real(spec)
        first = next(rows)
        yield [first[0] ^ 1, *first[1:]]
        yield from rows

    for images, failed in ((real, {}), (flipped, {"blocks-vs-images": "first difference at (1,1): 1 vs 0"})):
        monkeypatch.setattr(cli, "_image_masks", images)
        rows: list[dict] = []
        tracemalloc.start()
        try:
            cli._check_rank(32, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 9 and {row["check"]: row["detail"] for row in rows if not row["pass"]} == failed
        assert peak < 1.5e6, (images.__name__, peak)


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


_ONE_OF_EACH_COMMAND = [
    ["build-matrix", "--n", "3", "--format", "json"],
    ["entropy", "--n", "5", "--format", "json"],
    ["verify", "--n-max", "3", "--format", "json"],
    ["table", "--from", "3", "--to", "8", "--format", "csv"],
]


@pytest.mark.parametrize("argv", _ONE_OF_EACH_COMMAND, ids=lambda argv: argv[0])
def test_main_with_arguments_leaves_the_collector_as_it_found_it(argv, capsys):
    # Only the process's command, main() with no argument, freezes its
    # start-up objects; a caller that passes argv keeps its collector.
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(argv) == 0
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize(
    "argv", [_ONE_OF_EACH_COMMAND[1], _ONE_OF_EACH_COMMAND[3]], ids=lambda argv: argv[0]
)
def test_main_without_arguments_freezes_start_up_and_prints_the_same(argv, capsys):
    # The command path: arguments from sys.argv.  The objects alive when the
    # handler starts sit in the permanent generation, and the output is what
    # main(argv) prints in-process.
    code = (
        "import gc, sys\n"
        "from volentropy.cli import main\n"
        f"sys.argv = ['volentropy', *{argv!r}]\n"
        "code = main()\n"
        "print(gc.get_freeze_count(), gc.isenabled(), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert main(argv) == 0
    frozen, enabled = proc.stderr.split()
    assert proc.returncode == 0
    assert int(frozen) > 0 and enabled == "True"
    assert proc.stdout == capsys.readouterr().out


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
    # No route loads numpy: with numpy made unimportable, verify
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
