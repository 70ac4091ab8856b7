"""Kernel interpolation lab.

Scattered-data interpolation with Matern, Gaussian, and interval Sobolev
kernels, nested quasi-uniform designs, and the diagnostics that measure how
interpolation behaves on and beyond the native space: Lebesgue constants,
native-norm growth, Lagrange-function decay, and error convergence.

Importing the package first sets up the BLAS threads, ahead of the first
numpy import, since OpenBLAS reads its settings once, when it loads:

* KINTERP_THREADS, when set to a positive integer, replaces every
  inherited BLAS/OpenMP thread count, so it pins the BLAS threads of every
  entry point (`import kinterp`, `python -m kinterp.cli`, the `kinterp`
  script). In a process that loaded numpy before kinterp it has no effect.
  A value above the usable CPUs, where OpenBLAS takes fewer threads, is
  named on stderr, and so is any other value, which changes nothing.
* numpy is imported here with OPENBLAS_NUM_THREADS=1, and the variable is
  then restored exactly (an unset one stays unset; an exported or
  KINTERP_THREADS value comes back). So numpy's OpenBLAS, which serves
  `np.matmul` and with it the grid scan's GEMMs, runs one thread in each
  tile worker, while scipy's LAPACK (`potrf`, `trtrs`), a separate
  OpenBLAS copy loaded later, keeps the count above. This holds only when
  kinterp is imported before numpy: otherwise each tile worker's GEMM
  takes numpy's inherited thread count, about twice the scan time on 2
  cores; import kinterp first or export OPENBLAS_NUM_THREADS=1.
* OPENBLAS_THREAD_TIMEOUT defaults to 4, so idle OpenBLAS workers sleep
  right after each call instead of spinning on a core the tile pool needs;
  a value the caller exported wins.
"""

import os
import sys

_threads = os.environ.get("KINTERP_THREADS")
if _threads and not (_threads.isascii() and _threads.isdigit() and int(_threads) > 0):
    print(f"kinterp: KINTERP_THREADS={_threads} is not a positive integer; the inherited "
          "BLAS thread counts stay", file=sys.stderr)
elif _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = _threads
    _cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0
    if int(_threads) > _cpus > 0:
        print(f"kinterp: KINTERP_THREADS={_threads} exceeds the {_cpus} usable CPU(s); "
              "BLAS takes fewer threads, so output bytes may differ", file=sys.stderr)
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
_blas = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy  # noqa: E402,F401 - loads numpy's OpenBLAS with one thread
finally:
    if _blas is None:
        del os.environ["OPENBLAS_NUM_THREADS"]
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = _blas

from .geometry import (  # noqa: E402 - the BLAS settings must come first
    Box,
    NestedDesign,
    PointSet,
    fill_distance_grid,
    fill_distance_interval,
    generate_candidates,
    geometric_greedy,
    mesh_ratio,
    nested_equispaced_design,
    equispaced_interval,
    sampling_condition,
    separation_distance,
)
from .interpolation import (
    Factorization,
    FactorizationError,
    Interpolant,
    evaluate,
    factorize,
    fit,
    lagrange,
    lagrange_coefficients,
    native_norm,
)
from .kernels import (
    DomainError,
    DuplicateNodesError,
    GramMatrix,
    Kernel,
    assemble_gram,
    eval,
    gaussian,
    interval_sobolev,
    kernel_matrix,
    matern,
)
from .diagnostics import (
    DecayFit,
    DiagnosticsReport,
    EvalGrid,
    decay_profile,
    error_slopes,
    l2_error,
    lebesgue_constant,
    lebesgue_function,
    measure_levels,
    sup_error,
)
from .targets import make_target

__version__ = "0.1.0"
