import os
import sys

import pytest

# One BLAS thread, set before anything imports numpy, as perfbench/run.py
# does: the training loop splits work between two processes only under this
# setting, and OpenBLAS's own threads slow the suite's small matmuls down.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok, elapsed in sorted(results):
        terminalreporter.write_line(
            f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
        )


@pytest.fixture(autouse=True)
def close_standing_helper():
    """A standing evaluation helper carries the monkeypatches in force at its
    fork; closing it after each test keeps them out of the next test."""
    yield
    training = sys.modules.get("pointpeft.training")
    if training is not None:
        training._close_standing()
