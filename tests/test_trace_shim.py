"""The benchmark's trace shim still installs over the package.

`perfbench/spans.py` wraps each layer's public functions and a few
`IntMatrix` methods by name, so a deleted name it relies on breaks
`perfbench/run.py --trace 1`.  This runs the shim in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = f"""
import sys
sys.path.insert(0, {str(PERFBENCH)!r})
import spans
tracer = spans.Tracer()
tracer.install()
from volentropy import cli
code = cli.main(["verify", "--n-max", "3", "--format", "json"])
assert code == 0, code
assert tracer.spans, "no spans recorded"
"""


def test_trace_shim_records_spans_of_a_verify_run():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
