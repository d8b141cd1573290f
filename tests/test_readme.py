"""The README's Python examples run against the current API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})
