"""Make a bare `python -m pytest` work from a source checkout.

`pythonpath = ["src"]` in pyproject.toml reaches the pytest process only; the
tests that start `python -m volentropy` in a subprocess need `src` on
PYTHONPATH as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in map(os.path.abspath, _paths):
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *_paths])
