"""End-to-end drives of the command-line interface.

Every test calls main() in-process and inspects stdout/stderr through
capsys; one smoke test runs the installed module in a subprocess to cover
the ``python -m`` wiring.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter

import pytest

from volentropy import cli
from volentropy.cli import _first_difference, main
from volentropy.core import IntMatrix, format_blocks, matrix_from_csv
from volentropy.entropy import ROUTE_NAMES, EntropyReport
from volentropy.markov import PresentationSpec, build_markov_from_blocks
from volentropy.reductions import (
    compacted_matrix,
    divided_compacted_matrix,
    super_compacted_matrix,
)


@pytest.fixture(autouse=True)
def _no_width_hint(monkeypatch):
    monkeypatch.delenv("VOLENTROPY_WIDTH", raising=False)


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
        assert matrix_from_csv(out) == expected


def test_build_matrix_orientable_markov_size(capsys):
    code = main(["build-matrix", "--n", "4", "--orientable", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert matrix_from_csv(out).size == 56


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


def test_width_hint_drops_block_layout(monkeypatch, capsys):
    monkeypatch.setenv("VOLENTROPY_WIDTH", "10")
    code = main(["build-matrix", "--n", "3"])
    out = capsys.readouterr().out
    lines = out.rstrip("\n").splitlines()
    assert code == 0
    assert len(lines) == 30  # one line per row, no separator ruling
    assert "+" not in out


def test_width_hint_ignores_junk_value(monkeypatch, capsys):
    monkeypatch.setenv("VOLENTROPY_WIDTH", "not-a-number")
    code = main(["build-matrix", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == format_blocks(build_markov_from_blocks(PresentationSpec(3, False)), 5) + "\n"


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


def test_first_difference_reports_1_based_position():
    a = IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    b = IntMatrix([[1, 2, 3], [4, 5, 0], [7, 0, 9]])
    assert _first_difference(a, b) == "first difference at (2,3): 6 vs 0"
    assert _first_difference(a, a) == ""


def test_first_difference_reports_size_mismatch():
    assert _first_difference(IntMatrix.identity(2), IntMatrix.identity(3)) == (
        "sizes differ: 2 vs 3"
    )


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


def test_verify_builds_each_blocks_matrix_once_per_rank(monkeypatch):
    calls = []
    real = cli.build_markov_from_blocks

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(cli, "build_markov_from_blocks", counting)
    results = cli._run_battery(6)
    assert all(row["pass"] for row in results)
    assert Counter(spec.n for spec in calls) == {n: 2 for n in range(3, 7)}
    assert len(set(calls)) == len(calls)


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
