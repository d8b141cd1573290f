"""Make a bare `python -m pytest` work from a source checkout, and share the
images-route product and a tampered operator with the operator tests.

`pythonpath = ["src"]` in pyproject.toml reaches the pytest process only; the
tests that start `python -m volentropy` in a subprocess need `src` on
PYTHONPATH as well.
"""

import os
import re
from pathlib import Path

import pytest

from volentropy.markov import TransitionOperator, _image_masks

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in map(os.path.abspath, _paths):
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *_paths])


class ImageRows:
    """The images-route transition matrix as a product v -> M v, with no
    dense matrix built (6320² cells at n = 40).

    Row i sums v over the set bits of row i's mask from
    `markov._image_masks(spec)`, in ascending columns, the order in which power iteration's sparse-row pass
    sums a row of the 0/1 `IntMatrix`, so the two agree bit for bit.
    """

    def __init__(self, spec):
        self.size = spec.matrix_size
        self.masks = [mask for row in _image_masks(spec) for mask in row]
        self._columns = [[m.start() for m in re.finditer("1", bin(x)[:1:-1])] for x in self.masks]

    def apply(self, v: list) -> list:
        at = v.__getitem__
        return [sum(map(at, cols)) for cols in self._columns]


@pytest.fixture
def image_rows():
    """`ImageRows`, the images-route product of a presentation spec."""
    return ImageRows


class RaisedOperator(TransitionOperator):
    """The transition operator with its (1, 1) entry raised by 1."""

    def apply(self, v: list) -> list:
        out = super().apply(v)
        out[0] += v[0]
        return out


@pytest.fixture
def raised_operator():
    """`RaisedOperator`, built from a presentation spec."""
    return RaisedOperator
