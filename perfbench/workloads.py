"""Benchmark workloads: seeded experiment configs, set-up of their inputs and
the pinned environment of child processes.

Each workload is one shipped experiment shape. Seed 0 reproduces the shipped
config (with the 1-d level lists extended); other seeds change only inputs
that leave the amount of work unchanged, so timings stay comparable across
seeds:

* square_lebesgue      kernel.gamma and the candidate pool size
* interval_escape      the kink location of the cube-root target
* interval_norm_kink   the kink location of the |x - c| target

Seeds map onto N_VARIANTS variants (seed mod N_VARIANTS); every variant has a
reference CSV under references/, recorded with record_references.py.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

N_VARIANTS = 16

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "references"

# Environment variables read by OpenBLAS, MKL, BLIS, Accelerate, OpenMP,
# numexpr and kinterp's own entry point. They are all set, never defaulted,
# so a value inherited from the caller cannot take precedence.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "KINTERP_THREADS")

WORKLOADS = {
    "square_lebesgue": {
        "kind": "lebesgue_trace", "family": "matern32", "gamma": 10.0, "dim": 2,
        "lower": (0.0, 0.0), "upper": (1.0, 1.0),
        "scheme": "greedy_low_discrepancy", "candidates": 10000,
        "levels": (25, 50, 100, 200, 400), "points_per_axis": 513,
        "target": None,
    },
    "interval_escape": {
        "kind": "convergence", "family": "matern32", "gamma": 1.0, "dim": 1,
        "lower": (0.0,), "upper": (1.0,),
        "scheme": "equispaced_nested", "candidates": None,
        "levels": (16, 33, 67, 135, 271, 543, 1087, 2175), "points_per_axis": 4097,
        "target": {"name": "abs_power", "center": 0.5, "power": 0.3333333333333333},
    },
    "interval_norm_kink": {
        "kind": "norm_growth", "family": "matern52", "gamma": 1.0, "dim": 1,
        "lower": (0.0,), "upper": (1.0,),
        "scheme": "equispaced_nested", "candidates": None,
        "levels": (16, 33, 67, 135, 271, 543, 1087, 2175, 4351), "points_per_axis": 4097,
        "target": {"name": "abs_power", "center": 0.5, "power": 1.0},
    },
}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def params_for(workload: str, variant: int) -> dict:
    """Experiment parameters of one workload variant; variant 0 is the base."""
    p = dict(WORKLOADS[workload])
    if variant == 0:
        return p
    rng = random.Random(f"{workload}/{variant}")
    if workload == "square_lebesgue":
        p["gamma"] = round(rng.uniform(9.0, 11.0), 3)
        p["candidates"] = rng.randrange(9000, 11001, 100)
    else:
        p["target"] = dict(p["target"], center=round(rng.uniform(0.3, 0.7), 4))
    return p


def config_text(p: dict, prefix: str) -> str:
    """A kinterp config file for the parameters, writing to `prefix`."""
    def vec(values):
        return ", ".join(repr(float(v)) for v in values)

    lines = [
        "[experiment]", f"kind = {p['kind']}", "",
        "[kernel]", f"family = {p['family']}", f"gamma = {p['gamma']!r}", f"dim = {p['dim']}", "",
        "[domain]", f"lower = {vec(p['lower'])}", f"upper = {vec(p['upper'])}", "",
        "[design]", f"scheme = {p['scheme']}",
    ]
    if p["candidates"] is not None:
        lines.append(f"candidates = {p['candidates']}")
    lines += [f"levels = {', '.join(str(n) for n in p['levels'])}", "",
              "[grid]", f"points_per_axis = {p['points_per_axis']}", ""]
    if p["target"] is not None:
        lines.append("[target]")
        lines += [f"{key} = {value}" for key, value in p["target"].items()]
        lines.append("")
    lines += ["[output]", f"prefix = {prefix}", "svg = true", ""]
    return "\n".join(lines)


def build_inputs(kinterp, p: dict):
    """Build the design and evaluation grid of a workload through kinterp's
    public constructors, as `kinterp run` does before fitting anything."""
    import numpy as np

    domain = kinterp.Box(lower=tuple(p["lower"]), upper=tuple(p["upper"]))
    levels = tuple(p["levels"])
    if p["scheme"] == "greedy_low_discrepancy":
        cands = kinterp.generate_candidates(domain, p["candidates"], "low_discrepancy")
        center = 0.5 * (np.asarray(domain.lower) + np.asarray(domain.upper))
        seed_index = int(np.argmin(np.sum((cands.points - center) ** 2, axis=1)))
        design = kinterp.geometric_greedy(cands, max(levels), seed_index, levels)
    else:
        design = kinterp.nested_equispaced_design(
            domain.lower[0], domain.upper[0], levels[0], len(levels))
    grid = kinterp.EvalGrid.tensor(domain, p["points_per_axis"])
    return design, grid


def thread_count() -> int:
    """Cores this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def pinned_env() -> dict:
    """Environment for a kinterp process: every BLAS/OpenMP thread variable
    set to the core count, and kinterp imported from this checkout's src/."""
    env = dict(os.environ)
    threads = str(thread_count())
    for var in THREAD_VARS:
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def runtime_info() -> dict:
    """Versions and the effective BLAS thread counts of this process.

    Call after numpy and scipy are loaded: the thread counts are read from
    the OpenBLAS libraries mapped into the process.
    """
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    symbols = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
               for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads_sym, config_sym in symbols:
            if hasattr(lib, threads_sym) and hasattr(lib, config_sym):
                get_threads, get_config = getattr(lib, threads_sym), getattr(lib, config_sym)
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                libs[Path(path).name] = {"threads": get_threads(),
                                         "config": get_config().decode()}
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": libs,
        "blas_threads": min((v["threads"] for v in libs.values()), default=None),
        "nproc": thread_count(),
    }
