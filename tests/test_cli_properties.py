"""Property tests over the command-line argument space.

Whatever rank, format or flag is drawn, `main` exits 0 or 1 without a
traceback; exit 1 comes with an `error:` line on stderr and, in csv and json,
nothing on stdout.  Ranks run from -5 to 10^9.  Ranks that would build a
dense matrix or a long table stay small (transition matrices up to rank 8,
reduced ones and table tops up to rank 60), so every example, refused or not,
takes well under a second.
"""

from __future__ import annotations

import contextlib
import io
import time

from hypothesis import given, settings, strategies as st

from volentropy.cli import main
from volentropy.entropy import _MAX_TABLE_RANK

FORMATS = st.sampled_from(["plain", "csv", "json"])
HUGE = st.integers(10**6, 10**9)


def run(argv: list[str], fmt: str) -> int:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    elapsed = time.process_time() - t0
    assert code in (0, 1), (argv, code)
    if code == 1:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines()), argv
        if fmt != "plain":
            assert out.getvalue() == "", argv
    else:
        assert err.getvalue() == "" and out.getvalue(), argv
    assert elapsed < 1.0, (argv, elapsed)
    return code


# Past each kind's cap the rank is refused before anything is built.
BUILD_RANKS = {
    "markov": st.one_of(st.integers(-5, 8), st.integers(41, 6000), HUGE),
    "compacted": st.one_of(st.integers(-5, 60), st.integers(3161, 10**5), HUGE),
    "divided": st.one_of(st.integers(-5, 60), st.integers(3161, 10**5), HUGE),
    "supercompacted": st.one_of(st.integers(-5, 60), st.integers(6321, 10**5), HUGE),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BUILD_RANKS)).flatmap(
    lambda which: st.tuples(st.just(which), BUILD_RANKS[which], st.booleans(), FORMATS)
))
def test_build_matrix_exits_cleanly(case):
    which, n, orientable, fmt = case
    argv = ["build-matrix", f"--n={n}", "--which", which]
    run(argv + ["--orientable"] * orientable, fmt)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(-5, 40), st.integers(41, 10**5), HUGE),
    st.booleans(),
    FORMATS,
)
def test_entropy_exits_cleanly(n, orientable, fmt):
    run(["entropy", f"--n={n}"] + ["--orientable"] * orientable, fmt)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(-5, 8), st.integers(41, 10**5), HUGE), FORMATS)
def test_verify_exits_cleanly(n_max, fmt):
    run(["verify", f"--n-max={n_max}"], fmt)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-5, 60),
    st.one_of(st.integers(-5, 60), st.integers(_MAX_TABLE_RANK + 1, 10**9)),
    FORMATS,
)
def test_table_exits_cleanly(n_min, n_max, fmt):
    # Past the cap the range is refused before any row is computed.
    code = run(["table", f"--from={n_min}", f"--to={n_max}"], fmt)
    assert code == 1 or n_max <= _MAX_TABLE_RANK
