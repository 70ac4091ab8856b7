import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# before any test module imports numpy: kinterp loads numpy's OpenBLAS with
# one thread, so the session's scan GEMMs run as the CLI's do
import kinterp  # noqa: E402,F401


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


def tile_worker_rule(monkeypatch):
    """The `tile_workers` fixture's generator: yields use(count), which sets
    the usable-CPU rule to count, with a fresh tile pool. At teardown it
    shuts down only a pool made after a use() call, never the process-wide
    one."""
    from kinterp import kernels

    used = False

    def use(count):
        nonlocal used
        used = True
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: count)
        monkeypatch.setattr(kernels, "_pool", None)

    yield use
    if used and kernels._pool is not None:
        kernels._pool.shutdown()


@pytest.fixture
def tile_workers(monkeypatch):
    """Set the usable-CPU rule to a given count, with a fresh tile pool."""
    yield from tile_worker_rule(monkeypatch)


# Per-criterion pass/fail lines collected by tests/test_acceptance.py and
# replayed at the end of the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
