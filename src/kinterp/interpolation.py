"""Minimal-norm kernel interpolation: factorization, fitting, evaluation,
cardinal (Lagrange) functions, and the native-space norm of the fit.

The solver is a symmetric Cholesky factorization with a jitter escalation
ladder: on failure the diagonal is perturbed by {1e-14, 1e-12, 1e-10, 1e-8}
times the largest diagonal entry, the first success is recorded on the
result, and exhausting the ladder raises. Jitter is never applied silently.

The squared native norm of the interpolant equals r^T alpha, the dot product
of the data with the solved coefficients (equivalently alpha^T K alpha).
"""

from __future__ import annotations

import csv
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import EvalGrid, PointSet
from .kernels import (
    GRAM_ROW_BLOCK,
    GramMatrix,
    GridLines,
    Kernel,
    ScratchGram,
    _fill,
    _run_tasks,
    _scratch_entries,
    _tiles,
    assemble_gram,
    line_table,
    mirror_upper,
)

JITTER_LADDER = (1e-14, 1e-12, 1e-10, 1e-8)

# Grid scans (evaluation, Lebesgue functions) run in blocks of whole grid
# lines whose kernel block takes at most SCAN_BYTES; a line longer than
# EVAL_CHUNK rows, or a line of a grid of 2+ axes whose block would take
# more than SCAN_BYTES, is cut into the fewest equal pieces within both.
SCAN_BYTES = 1024 * 1024
EVAL_CHUNK = 576


class FactorizationError(RuntimeError):
    pass


def _load_flapack():
    """scipy's LAPACK wrapper module, scipy.linalg._flapack, loaded without
    running the scipy or scipy.linalg package inits, which import numpy.f2py,
    numpy.testing, subprocess and scipy's array-API shims, none of them used.

    The module is registered in sys.modules under its own name, so a later
    `import scipy.linalg` reuses it, and `get_lapack_funcs` then returns the
    very routines called here.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        package = importlib.util.find_spec("scipy")  # found, not imported
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(p, "linalg") for p in package.submodule_search_locations])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


_flapack = _load_flapack()


@dataclass(frozen=True)
class Factorization:
    """Lower-triangular Cholesky factor of K + jitter * I, which keeps K.

    Only the lower triangle of `lower` is the factor; its strict upper
    triangle holds K's, and `gram_diagonal` K's diagonal. A fit reads K
    there and writes nothing, so one factorization serves any number of fits.
    """

    lower: np.ndarray
    jitter: float  # absolute diagonal shift that was applied, 0 if none
    jitter_step: float  # relative ladder step that succeeded, 0 if none
    gram_diagonal: np.ndarray  # K's diagonal, without the jitter

    @property
    def order(self) -> int:
        return self.lower.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(K + jitter * I)^-1 rhs by a forward and a transposed back
        substitution (two `trtrs` calls); rhs is left unchanged."""
        return self._substitute(rhs, overwrite=False)

    def inverse(self) -> np.ndarray:
        """(K + jitter * I)^-1, bit-identical to `solve(np.eye(n))`.

        Makes the same two `trtrs` calls as that solve, but both overwrite
        one fresh Fortran-order identity, so the call allocates one n x n
        array and copies none.
        """
        return self._substitute(np.eye(self.order, order="F"), overwrite=True)

    def _substitute(self, b: np.ndarray, overwrite: bool) -> np.ndarray:
        # trtrs directly: scipy.linalg.solve_triangular would first scan the
        # whole factor for non-finite entries, into an n x n bool array
        for trans in (0, 1):
            b, info = _flapack.dtrtrs(self.lower, b, lower=True, trans=trans,
                                      overwrite_b=overwrite)
            if info:
                raise np.linalg.LinAlgError(f"singular factor: zero pivot {info}")
            overwrite = True
        return b

    def _residual(self, Y: np.ndarray, R: np.ndarray | None = None) -> float:
        """max|K Y - R| against the kept, unjittered K, R the identity when
        None, with a warning when it exceeds 1e-8 * ||R||_inf or is nan: the one
        residual rule of `fit` and `lagrange_coefficients`. K is read, never
        written, one GRAM_ROW_BLOCK strip of rows at a time, as the sum of three
        products: the columns left of the strip's diagonal tile (read
        transposed), that tile made symmetric, and the columns right of it."""
        L, resid = self.lower, 0.0
        for i0 in range(0, self.order, GRAM_ROW_BLOCK):
            rows = slice(i0, i0 + GRAM_ROW_BLOCK)
            tile = L[rows, rows].copy()
            _restore_gram(tile, self.gram_diagonal[rows])
            strip = L[:i0, rows].T @ Y[:i0]
            strip += tile @ Y[rows]
            strip += L[rows, rows.stop:] @ Y[rows.stop:]
            strip -= np.eye(len(tile), self.order, i0) if R is None else R[rows]
            resid = float(np.maximum(resid, np.max(np.abs(strip, out=strip))))  # nan wins
            del tile, strip  # before the next strip's are formed
        name, rhs, scale = (("cardinal", "I", 1.0) if R is None else
                            ("interpolation", "r", float(np.max(np.abs(R)))))
        if not resid <= 1e-8 * max(scale, 1e-300):
            warnings.warn(f"{name} residual {resid:.3e} exceeds 1e-8 * ||{rhs}||_inf "
                          f"at n = {self.order} (jitter {self.jitter:.1e})", stacklevel=3)
        return resid


def factorize(K) -> Factorization:
    """Cholesky factorization with the jitter escalation ladder.

    Accepts a GramMatrix or a plain symmetric ndarray, which is never
    modified; only the lower triangle of a plain ndarray is read. The ladder
    runs in one Fortran-order work array that holds K: the transpose of a
    ScratchGram's own buffer (handed over: the same bits, so no n x n array
    is allocated), else one copy, of a GramMatrix's transpose or of a plain
    array's lower triangle mirrored up. Each rung adds its jitter to the
    diagonal and factors the array in place; potrf writes only the lower
    triangle, so the strict upper one keeps K's, and with K's diagonal
    (`gram_diagonal`) it resets a failed rung (`_restore_gram`).
    Raises FactorizationError naming the failing leading minor once the
    ladder is exhausted.
    """
    if isinstance(K, GramMatrix):  # K.entries.T: the same bits, in Fortran order
        work = K.entries.T if isinstance(K, ScratchGram) else K.entries.T.copy(order="F")
    else:
        work = np.array(K, float, order="F")
        mirror_upper(work.T)  # the strict lower triangle into the upper one
    n = work.shape[0]
    diagonal = work.diagonal().copy()
    scale = float(np.max(diagonal))
    last_info = 0
    for rung, step in enumerate((0.0,) + JITTER_LADDER):
        jitter = step * scale
        if rung:
            _restore_gram(work, diagonal)
        if jitter:
            work[np.diag_indices(n)] += jitter
        c, info = _flapack.dpotrf(work, lower=True, clean=False, overwrite_a=True)
        if info == 0:
            return Factorization(lower=c, jitter=jitter, jitter_step=step,
                                 gram_diagonal=diagonal)
        last_info = int(info)
    raise FactorizationError(
        f"matrix of order {n} is not positive definite after the jitter "
        f"ladder {JITTER_LADDER}: leading minor {last_info} failed last"
    )


def _restore_gram(A: np.ndarray, diagonal: np.ndarray) -> None:
    """Make a work array hold K again: mirror its strict upper triangle,
    which potrf leaves as K's, into the lower one, as `assemble_gram` does,
    and write K's diagonal, so A equals the assembled Gram to the last bit."""
    mirror_upper(A)
    A[np.diag_indices(A.shape[0])] = diagonal


@dataclass(frozen=True)
class Interpolant:
    """Kernel interpolant sum_i alpha_i k(x_i, .): immutable after fit."""

    kernel: Kernel
    nodes: PointSet
    coefficients: np.ndarray
    data: np.ndarray
    jitter: float = 0.0
    residual_inf: float = 0.0  # ||K alpha - r||_inf of the unjittered Gram

    def __len__(self) -> int:
        return len(self.coefficients)


def fit(kernel: Kernel, X: PointSet, values,
        factorization: Factorization | None = None) -> Interpolant:
    """Solve the Gram system for the minimal-norm interpolant of the data.

    Without a factorization, the Gram is assembled and handed over to
    `factorize`, so the fit holds one n x n array. A precomputed
    factorization of the Gram on the same node set can be shared across any
    number of fits: K is read from it, not assembled again. The post-solve
    residual against the unjittered Gram matrix is recorded, and a warning
    is emitted when it exceeds 1e-8 relative to the data; it is never
    silently discarded.
    """
    r = np.asarray(values, dtype=float)
    if r.shape != (len(X),):
        raise ValueError(f"data of shape {r.shape} for {len(X)} nodes: expected ({len(X)},)")
    if factorization is None:
        factorization = factorize(ScratchGram(assemble_gram(kernel, X).entries))
    alpha = factorization.solve(r)
    return Interpolant(kernel=kernel, nodes=X, coefficients=alpha, data=r,
                       jitter=factorization.jitter,
                       residual_inf=factorization._residual(alpha, r))


def _scan_plan(level_sets, points, cardinal: bool) -> tuple[list[list[int]], list[slice]]:
    """The passes of a scan of `points` (an (m, N) array, an `EvalGrid`, or
    None: no scan) over `level_sets`, decided from sizes before any level is
    fitted, and the row blocks every pass scans. A pass is a list of level
    indices; the passes come largest level first. The prefixes of the
    largest level share its pass (shared order), unless `cardinal` and the
    largest C outweighs a block's workspace, its cross block and product
    (the largest n exceeds twice the tallest block), or nothing is scanned:
    then every level has a pass of its own (level order). Any other level
    always has one. An EvalGrid is scanned in blocks of whole lines (the
    len(axes[-1]) rows that share all other coordinates), as many as keep
    rows x the largest n x 8 B within SCAN_BYTES and at least one, since a
    GEMM's row bits depend on the block height; an array counts as one
    line. A line longer than EVAL_CHUNK, or on a grid of 2 or more axes one
    whose block alone exceeds SCAN_BYTES, is cut into the fewest equal
    pieces within both, the first line % pieces of them one row longer, so
    no piece is a sliver: 4097 points scan in 513 rows and then seven
    pieces of 512, and a 513-point line at n = 400 in 257 and 256 rows.
    No block depends on the worker count."""
    base = max(level_sets, key=len).points
    blocks = []
    if points is not None:
        line = max(1, len(points.axes[-1]) if isinstance(points, EvalGrid) else len(points))
        rows = max(1, SCAN_BYTES // (8 * len(base)))  # within the budget
        pieces = -(-line // EVAL_CHUNK)
        if isinstance(points, EvalGrid) and len(points.axes) > 1:
            pieces = max(pieces, -(-line // rows))
        q, r = divmod(line, pieces)
        step = line * (max(1, rows // line) if pieces == 1 else 1)
        starts = [a + i * q + min(i, r) for a in range(0, len(points), step) for i in range(pieces)]
        blocks = [slice(a, b) for a, b in zip(starts, [*starts[1:], len(points)])]
    shared = blocks and not (cardinal and len(base) > 2 * max(b.stop - b.start for b in blocks))
    nested = [k for k, X in enumerate(level_sets)
              if shared and np.array_equal(X.points, base[:len(X)])]
    passes = [nested] * bool(nested) + [[k] for k in range(len(level_sets)) if k not in nested]
    return sorted(passes, key=lambda ks: -max(len(level_sets[k]) for k in ks)), blocks


def _scan_levels(kernel: Kernel, levels, points, functions=None, blocks=None) -> list[tuple]:
    """The one grid scan, of one pass. `levels` holds one (X, alpha, C)
    triple per level, its nodes, fit coefficients and cardinal coefficient
    matrix, alpha or C possibly None, each X a prefix of the largest.
    `points` is an (m, N) array or a `geometry.EvalGrid`, whose points are
    formed one block at a time; `blocks` defaults to `_scan_plan`'s. Returns
    one (max_x sum_i |l_i(x)|, values of the fit at `points`) pair per
    level, each None when its C or alpha is; a level's whole Lebesgue
    function is written only into a given functions[k].

    The blocks are the tasks of the tile pool (`kernels._run_tasks`), so
    the caller and one helper per other usable CPU each scan whole blocks.
    Before its first block a worker makes its workspace: a block buffer as
    wide as the largest level, a flat product buffer of a block's rows by
    the widest C, which takes every `cross @ C`, a block of Lebesgue sums,
    and its own Lebesgue maxima, merged after the join; a max ignores
    order, so no result depends on which worker took which block. A worker
    fills its block in its own row tiles (`kernels._fill`, with
    `kernel_matrix`'s checks), whose temporaries are views of the product
    buffer, sized to hold them too: the fill is done with them before the
    block's first product. It calls no public function, since the
    benchmark's tracer keeps one span stack and is not thread-safe; its
    GEMMs run numpy's OpenBLAS, loaded with one thread. Each level reads
    cross[:, :n], bit-identical to its own block, so no result depends on
    the other levels. On a grid of 2 or more axes every block is a
    `GridLines` filled from one table of squared last-axis differences of
    the nodes, formed before any workspace.

    The scan reads `levels` and writes nothing into it, so its workers share
    only the block queue; a C lives as long as the caller's list holds it.
    """
    nodes = max((X for X, _, _ in levels), key=len).points
    functions = functions or [None] * len(levels)
    blocks = _scan_plan([X for X, _, _ in levels], points, False)[1] if blocks is None else blocks
    if not all(np.array_equal(X.points, nodes[:len(X)]) for X, _, _ in levels):
        raise ValueError("the levels of one scan pass must be prefixes of its largest")
    tabled = isinstance(points, EvalGrid) and len(points.axes) > 1
    table = line_table(points.axes[-1], nodes) if tabled else None
    height = max((b.stop - b.start for b in blocks), default=0)
    widest = max((C.shape[1] for *_, C in levels if C is not None), default=0)
    product_size = max(height * widest, _scratch_entries(kernel, (height, len(nodes)), tabled))
    values = [None if alpha is None else np.empty(len(points)) for _, alpha, _ in levels]

    def workspace():
        lmax = [0.0] * len(levels)
        return np.empty((height, len(nodes))), np.empty(product_size), np.empty(height), lmax

    def scan(rows, space):
        buffer, product, sums, lmax = space
        chunk = GridLines(points.axes, rows, table) if tabled else points[rows]
        cross = _fill(kernel, chunk, nodes, buffer[:len(chunk)], pooled=False, scratch=product)
        for k, (X, alpha, C) in enumerate(levels):
            block = cross[:, :len(X)]
            if C is not None:
                out = sums[:len(block)] if functions[k] is None else functions[k][rows]
                lmax[k] = max(lmax[k], float(_cardinal_abs_sums(block, C, out, product).max()))
            if alpha is not None:
                _weighted_row_sums(block, alpha, values[k][rows])

    maxima = [space[3] for space in _run_tasks(scan, blocks, workspace)]
    lmax = [None if C is None else max((m[k] for m in maxima), default=0.0)
            for k, (*_, C) in enumerate(levels)]
    return list(zip(lmax, values))


def _cardinal_abs_sums(cross: np.ndarray, C: np.ndarray, out: np.ndarray,
                       product: np.ndarray) -> np.ndarray:
    """Row sums of |cross @ C| into `out`: the Lebesgue function on one
    block's points. The product is one GEMM, with the shape and so the bits
    of `cross @ C`, written into the leading entries of the scan's flat
    buffer `product`; the absolute values are taken in place and each row
    is summed on its own."""
    m, n = cross.shape[0], C.shape[1]
    p = np.matmul(cross, C, out=product[:m * n].reshape(m, n))
    return np.sum(np.abs(p, out=p), axis=1, out=out)


def _weighted_row_sums(block: np.ndarray, weights: np.ndarray, out: np.ndarray) -> None:
    """out[i] = sum_j block[i, j] * weights[j], in the row tiles of
    `kernels._tiles`, whose products stay in cache; every row is summed on
    its own, so the sums equal those of the whole block's product."""
    for rows in _tiles(block.shape[0], block[:1].nbytes):
        np.sum(block[rows] * weights, axis=1, out=out[rows])


def evaluate(s: Interpolant, points) -> np.ndarray:
    """Evaluate the interpolant at a batch of points.

    Each output value is a row-wise pairwise-summed dot product, so batch
    evaluation is bit-identical to evaluating points one at a time.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    (_, values), = _scan_levels(s.kernel, [(s.nodes, s.coefficients, None)], pts)
    return values


def lagrange(kernel: Kernel, X: PointSet, i: int) -> Interpolant:
    """The i-th cardinal function: the interpolant of the i-th unit vector."""
    if not 0 <= i < len(X):
        raise IndexError(f"node index {i} out of range for {len(X)} nodes")
    e = np.zeros(len(X))
    e[i] = 1.0
    return fit(kernel, X, e)


def lagrange_coefficients(kernel: Kernel, X: PointSet) -> tuple[np.ndarray, Factorization]:
    """Coefficient matrix of all cardinal functions at once.

    Solves K C = I through one shared factorization (n right-hand sides);
    column i holds the coefficients of the i-th cardinal function. The Gram
    is handed over to `factorize` (a ScratchGram), so its buffer becomes the
    factor, and that factorization, which keeps K, is returned: `solve`,
    `inverse` and `fit` can be called on it again. The cardinal residual
    max|K C - I| against the unjittered Gram matrix is formed from the kept
    K one GRAM_ROW_BLOCK strip at a time and checked under the same rule as
    `fit` (||I||_inf = 1); a warning is emitted when it exceeds 1e-8.
    """
    fact = factorize(ScratchGram(assemble_gram(kernel, X).entries))
    C = fact.inverse()
    fact._residual(C)
    return C, fact


def native_norm(s: Interpolant) -> float:
    """Native-space norm of the fit, sqrt(r^T alpha).

    Tiny negative values of r^T alpha (roundoff on a squared norm) are
    clamped to zero with a warning.
    """
    sq = float(np.dot(s.data, s.coefficients))
    if sq < 0.0:
        warnings.warn(f"clamping negative squared norm {sq:.3e} to 0", stacklevel=2)
        sq = 0.0
    return float(np.sqrt(sq))


def interpolant_to_csv(s: Interpolant, path) -> None:
    """Serialize node coordinates, data, and coefficients for cross-run
    comparison."""
    dim = s.nodes.domain.dim
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{j + 1}" for j in range(dim)] + ["data", "coefficient"])
        for p, d, a in zip(s.nodes.points, s.data, s.coefficients):
            w.writerow([repr(float(v)) for v in p] + [repr(float(d)), repr(float(a))])
