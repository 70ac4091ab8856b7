import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def traced_peak(call, *args, **kwargs):
    """(result, traced peak in bytes) of call(*args, **kwargs).

    The tile pool is created first, so the peak never includes its
    first-use imports and does not depend on which test ran before.
    """
    import tracemalloc

    from kinterp import kernels

    kernels._tile_pool()
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def tile_workers(monkeypatch):
    """Set the usable-CPU rule to a given count, with a fresh tile pool."""
    from kinterp import kernels

    def use(count):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: count)
        monkeypatch.setattr(kernels, "_pool", None)

    yield use
    if kernels._pool is not None:
        kernels._pool.shutdown()


# Per-criterion pass/fail lines collected by tests/test_acceptance.py and
# replayed at the end of the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
