"""The package namespace: each layer's public names, re-exported once; the
value types' contract; and what `import volentropy` loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import volentropy
from volentropy import core, entropy, markov, reductions, rome, spectral
from volentropy import (
    BlockKind,
    BlockView,
    EntropyReport,
    EntropyTableRow,
    IntMatrix,
    IntPolynomial,
    LaurentPolynomial,
    PresentationSpec,
    RomeSpec,
    SpectralEstimate,
)

LAYERS = (core, markov, reductions, spectral, rome, entropy)


def test_package_names_are_the_layer_objects_each_listed_once():
    assert len(volentropy.__all__) == len(set(volentropy.__all__))
    owner = {name: layer for layer in LAYERS for name in layer.__all__}
    assert set(volentropy.__all__) == set(owner) | {"__version__"}
    for name, layer in owner.items():
        assert getattr(volentropy, name) is getattr(layer, name), name
    assert isinstance(volentropy.__version__, str)


# Each type: a builder of one value, a value of the same type that differs in
# one field, and whether the type serves as a dict key in the package.
@pytest.mark.parametrize(
    "make, other, key",
    [
        pytest.param(
            lambda: IntMatrix([[1, 2], [3, 4]]), IntMatrix([[1, 2], [3, 5]]), False, id="IntMatrix"
        ),
        pytest.param(lambda: IntPolynomial([1, 2]), IntPolynomial([1, 3]), True, id="IntPolynomial"),
        pytest.param(
            lambda: LaurentPolynomial(-1, [1, 2]), LaurentPolynomial(0, [1, 2]), True, id="LaurentPolynomial"
        ),
        pytest.param(lambda: PresentationSpec(3, False), PresentationSpec(4, False), True, id="PresentationSpec"),
        pytest.param(lambda: BlockKind.U(2), BlockKind.U(3), False, id="BlockKind"),
        pytest.param(
            lambda: BlockView(IntMatrix.identity(4), 2, 2),
            BlockView(IntMatrix.identity(4), 4, 1),
            False,
            id="BlockView",
        ),
        pytest.param(lambda: RomeSpec((2, 1)), RomeSpec((1, 3)), True, id="RomeSpec"),
        pytest.param(
            lambda: SpectralEstimate(2.0, 5, 0.0, True),
            SpectralEstimate(2.0, 5, 0.0, False),
            False,
            id="SpectralEstimate",
        ),
        pytest.param(
            lambda: EntropyReport(3, False, 4.0, {"rome-root": 4.0}, {"markov-power": True}),
            EntropyReport(3, False, 4.0, {"rome-root": 4.0}, {"markov-power": False}),
            False,
            id="EntropyReport",
        ),
        pytest.param(
            lambda: EntropyTableRow(3, 4.0),
            EntropyTableRow(3, 4.5),
            False,
            id="EntropyTableRow",
        ),
    ],
)
def test_value_types_compare_by_class_and_fields_and_are_immutable(make, other, key):
    value, twin = make(), make()
    fields = type(value).__slots__
    as_tuple = tuple(getattr(value, name) for name in fields)
    assert value == twin and value is not twin
    assert value != other
    assert value != as_tuple and as_tuple != value
    if key:
        assert hash(value) == hash(twin)
        assert {value: "found"}[twin] == "found"
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 5


def test_value_type_signatures_and_repr():
    # The repr is part of verify's failure detail.
    assert repr(PresentationSpec(3, False)) == "PresentationSpec(n=3, orientable=False, formal=False)"
    assert repr(IntMatrix([[1, 2], [3, 4]])) == "IntMatrix(size=2)"
    assert repr(LaurentPolynomial(-1, [1, 2])) == "LaurentPolynomial(min_exponent=-1, coeffs=[1, 2])"
    assert PresentationSpec(3, False) != (3, False, False)
    assert PresentationSpec(3, True, formal=True).formal is True
    with pytest.raises(TypeError):
        PresentationSpec(3, True, True)
    first, second = EntropyReport(3, False, 4.0), EntropyReport(3, False, 4.0)
    assert first.routes == {} and first.converged == {}
    assert first.routes is not second.routes and first.converged is not second.converged
    # perfbench/spans.py wraps these through vars(IntMatrix).
    assert {"__init__", "__mul__", "is_nonnegative"} <= set(vars(IntMatrix))


def test_importing_the_cli_loads_only_modules_the_package_computes_with():
    # -S: without `site`, no .pth file can preload a module the package does not.
    # `fractions` (with `decimal` and `numbers`) loads only in
    # `lambda_n_bracket`, which returns Fractions and is `lambda_n`'s exact
    # fallback from n = 129; verify and the float-range table rows sign on ints.  The
    # reference rows are read by the module's own loader, so neither they nor
    # verify load `importlib.resources` and the file machinery behind it.
    heavy = ("dataclasses", "inspect", "typing", "importlib.resources", "pathlib",
             "zipfile", "tempfile", "fractions", "decimal", "numbers")
    files = ("importlib.resources", "zipfile", "tempfile", "pathlib")
    # `import volentropy` adds nothing but its own modules to the standard
    # library ones the README names.
    code = (
        "import sys, __future__, collections, collections.abc, functools, itertools, math, operator\n"
        "before = set(sys.modules)\n"
        "import volentropy\n"
        "print(sorted(m for m in set(sys.modules) - before if m.partition('.')[0] != 'volentropy'))\n"
        "import contextlib, io, volentropy.cli\n"
        f"print(sorted(set({heavy!r}) & set(sys.modules)))\n"
        "rows = volentropy.reference_rows(4, True)\n"
        "print(len(rows), len(rows[0]), sum(map(sum, rows)))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = volentropy.cli.main(['verify', '--n-max', '10'])\n"
        f"print(sorted(set({files!r}) & set(sys.modules)))\n"
        "print(code, len(volentropy.entropy_table(3, 128)), 'fractions' in sys.modules)\n"
        "print(*(type(end).__name__ for end in volentropy.lambda_n_bracket(5)))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.splitlines() == ["[]", "[]", "21 56 141", "[]", "0 126 False", "Fraction Fraction"]


@pytest.mark.parametrize(
    "argv, loads_commands",
    [(["verify", "--n-max", "3"], False), (["table", "--from", "3", "--to", "4"], True)],
)
def test_only_the_report_commands_import_their_module(argv, loads_commands):
    # `-X importtime` names on stderr every module the command imports.
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "volentropy", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()}
    assert "volentropy.cli" in imported
    assert ("volentropy._commands" in imported) is loads_commands
