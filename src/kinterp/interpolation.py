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
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet
from .kernels import (
    GRAM_ROW_BLOCK,
    GramMatrix,
    Kernel,
    ScratchGram,
    _run_tiles,
    assemble_gram,
    kernel_matrix,
    mirror_upper,
)

JITTER_LADDER = (1e-14, 1e-12, 1e-10, 1e-8)

# Grid scans (evaluation, Lebesgue functions) run in chunks of this many
# evaluation points to bound the size of the cross-kernel block.
EVAL_CHUNK = 8192


class FactorizationError(RuntimeError):
    pass


def _load_flapack():
    """scipy's LAPACK wrapper module, scipy.linalg._flapack, loaded without
    running scipy.linalg's package init, which imports numpy.f2py,
    numpy.testing and scipy's array-API shims.

    The module is registered in sys.modules under its own name, so a later
    `import scipy.linalg` reuses it, and `get_lapack_funcs` then returns the
    very routines called here.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        package = importlib.util.find_spec("scipy.linalg")
        spec = importlib.machinery.PathFinder.find_spec(
            name, package.submodule_search_locations)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


_flapack = _load_flapack()


@dataclass(frozen=True)
class Factorization:
    """Lower-triangular Cholesky factor of K + jitter * I.

    Only the lower triangle of `lower` is the factor. It is zero above the
    diagonal, except for a factorization of a handed-over Gram (see
    `factorize`): there the strict upper triangle still holds K's, and
    `gram_diagonal` holds K's diagonal. A `fit` with such a factorization
    turns its buffer back into K, and the factorization is spent.
    """

    lower: np.ndarray
    jitter: float  # absolute diagonal shift that was applied, 0 if none
    jitter_step: float  # relative ladder step that succeeded, 0 if none
    gram_diagonal: np.ndarray | None = None  # set only for a handed-over Gram

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


def factorize(K) -> Factorization:
    """Cholesky factorization with the jitter escalation ladder.

    Accepts a GramMatrix or a plain symmetric ndarray, which is never
    modified; only the lower triangle of a plain ndarray is read. Every rung
    copies the input into one Fortran-order work array, adds the jitter to
    the diagonal in place and factors the copy in place, so a call holds one
    n x n array besides its input; on success that array is the returned
    factor. A GramMatrix equals its transpose to the last bit, and the
    transpose of its C-order entries is already in Fortran order, so its
    rungs copy the transpose contiguously.

    A ScratchGram is handed over instead: that transpose of its own buffer
    is the work array, so the call allocates no n x n array and the factor
    has the same bits. `potrf` writes only the lower triangle, so the strict
    upper triangle keeps K's, and K's diagonal is saved on the result as
    `gram_diagonal`; a failed rung is reset from the two (`_restore_gram`).
    Raises FactorizationError naming the failing leading minor once the
    ladder is exhausted.
    """
    handed_over = isinstance(K, ScratchGram)
    if isinstance(K, GramMatrix):
        A = K.entries.T  # the same bits, already in Fortran order
    else:
        A = np.asarray(K, float)
    n = A.shape[0]
    diagonal = A.diagonal().copy()
    scale = float(np.max(diagonal))
    work = A if handed_over else np.empty_like(A, order="F")
    last_info = 0
    for rung, step in enumerate((0.0,) + JITTER_LADDER):
        jitter = step * scale
        if not handed_over:
            np.copyto(work, A)
        elif rung:
            _restore_gram(work, diagonal)
        if jitter:
            work[np.diag_indices(n)] += jitter
        c, info = _flapack.dpotrf(work, lower=True, clean=not handed_over, overwrite_a=True)
        if info == 0:
            return Factorization(lower=c, jitter=jitter, jitter_step=step,
                                 gram_diagonal=diagonal if handed_over else None)
        last_info = int(info)
    raise FactorizationError(
        f"matrix of order {n} is not positive definite after the jitter "
        f"ladder {JITTER_LADDER}: leading minor {last_info} failed last"
    )


def _restore_gram(A: np.ndarray, diagonal: np.ndarray) -> None:
    """Make a handed-over buffer hold K again: mirror its strict upper
    triangle, which potrf leaves as K's, into the lower triangle, as
    `assemble_gram` does, and write K's diagonal, so A equals the assembled
    Gram to the last bit."""
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
    factorization can be shared across fits on the same node set, except
    one of a handed-over Gram: its buffer is turned back into K for the
    residual, so the fit spends it. With any other factorization K is
    assembled again for the residual, to the same bits. The post-solve
    residual against the unjittered Gram matrix is recorded, and a warning
    is emitted when it exceeds 1e-8 relative to the data; it is never
    silently discarded.
    """
    r = np.asarray(values, dtype=float)
    if r.shape != (len(X),):
        raise ValueError(f"got {r.shape[0] if r.ndim else 0} values for {len(X)} nodes")
    if factorization is None:
        factorization = factorize(ScratchGram(assemble_gram(kernel, X).entries))
    alpha = factorization.solve(r)
    if factorization.gram_diagonal is not None:
        _restore_gram(factorization.lower, factorization.gram_diagonal)
        K = factorization.lower.T
    else:
        K = assemble_gram(kernel, X).entries
    resid = float(np.max(np.abs(K @ alpha - r))) if len(r) else 0.0
    tol = 1e-8 * max(float(np.max(np.abs(r))), 1e-300)
    if resid > tol:
        warnings.warn(
            f"interpolation residual {resid:.3e} exceeds 1e-8 * ||r||_inf "
            f"(jitter {factorization.jitter:.1e})",
            stacklevel=2,
        )
    return Interpolant(kernel=kernel, nodes=X, coefficients=alpha, data=r,
                       jitter=factorization.jitter, residual_inf=resid)


def _scan_levels(kernel: Kernel, levels, points, functions=None) -> list[tuple]:
    """The one grid scan. `levels` holds one (X, alpha, C) triple per level:
    its nodes, fit coefficients and cardinal coefficient matrix, alpha or C
    possibly None. `points` is an (m, N) array or a `geometry.EvalGrid`,
    whose points are formed one block of rows at a time. Returns one
    (max_x sum_i |l_i(x)|, values of the fit at `points`) pair per level,
    each None when its C or alpha is; a level's whole Lebesgue function is
    written only into a given functions[k].

    The list is handed over: right after the last block a level reads, its
    entry is set to None, so a C the caller holds no other reference to is
    freed before the next level's product is formed. A caller that holds
    its own reference to C, as the one-level public calls do, keeps it:
    only the list entry is dropped.

    The scan's columns are the nodes of the largest level, plus the nodes of
    every level that is not a prefix of them; each level reads its own
    columns of the shared block, which are bit-identical to its own block,
    so no level's results depend on the others. The workspace is allocated
    once, here: one block buffer, which `kernel_matrix` fills with each
    EVAL_CHUNK rows of points in turn (the block height stays EVAL_CHUNK
    because the bits of a GEMM's rows depend on it), one flat product
    buffer of a block's rows by the widest C, which every `cross @ C` is
    written into, and one block of Lebesgue sums.
    """
    base = max((X for X, _, _ in levels), key=len).points
    parts, width, columns = [base], len(base), []
    for X, _, _ in levels:
        n = len(X)
        if np.array_equal(X.points, base[:n]):
            columns.append(slice(0, n))
        else:
            parts.append(X.points)
            columns.append(slice(width, width + n))
            width += n
    nodes = np.concatenate(parts) if len(parts) > 1 else base
    functions = functions or [None] * len(levels)
    height = min(EVAL_CHUNK, len(points))
    buffer = np.empty((height, len(nodes)))
    product = np.empty(height * max((C.shape[1] for *_, C in levels if C is not None),
                                    default=0))
    sums = np.empty(height)
    lmax = [None if C is None else 0.0 for _, _, C in levels]
    values = [None if alpha is None else np.empty(len(points)) for _, alpha, _ in levels]
    for start in range(0, len(points), EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        chunk = points[rows]
        cross = kernel_matrix(kernel, chunk, nodes, out=buffer[:len(chunk)])
        last = start + EVAL_CHUNK >= len(points)
        # indexed, not zipped: a zip's tuple would keep level k's C alive
        # through level k + 1
        for k in range(len(levels)):
            _, alpha, C = levels[k]
            if last:
                levels[k] = None
            block = cross[:, columns[k]]
            if C is not None:
                out = sums[:len(block)] if functions[k] is None else functions[k][rows]
                lmax[k] = max(lmax[k], float(_cardinal_abs_sums(block, C, out, product).max()))
            if alpha is not None:
                _weighted_row_sums(block, alpha, values[k][rows])
    return list(zip(lmax, values))


def _cardinal_abs_sums(cross: np.ndarray, C: np.ndarray, out: np.ndarray,
                       product: np.ndarray) -> np.ndarray:
    """Row sums of |cross @ C| into `out`: the Lebesgue function on one
    block's points. The product is one GEMM, with the shape and so the bits
    of `cross @ C`, written into the leading entries of the scan's flat
    buffer `product`; the absolute values and the row sums then run in
    place on its row tiles, each row summed on its own, so the tiles leave
    every sum's bits unchanged."""
    m, n = cross.shape[0], C.shape[1]
    p = np.matmul(cross, C, out=product[:m * n].reshape(m, n))

    def tile(rows):
        q = p[rows]
        np.sum(np.abs(q, out=q), axis=1, out=out[rows])

    _run_tiles(tile, m, p[:1].nbytes)
    return out


def _weighted_row_sums(block: np.ndarray, weights: np.ndarray, out: np.ndarray) -> None:
    """out[i] = sum_j block[i, j] * weights[j], in row tiles: each tile's
    products form one contiguous temporary and every row is summed on its
    own, so the sums equal those of the whole block's product."""
    def tile(rows):
        np.sum(block[rows] * weights, axis=1, out=out[rows])

    _run_tiles(tile, block.shape[0], block[:1].nbytes)


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
    factor, and the factorization returned is that handed-over one: `solve`
    and `inverse` can be called on it again, but a `fit` with it turns its
    buffer back into K and uses it up. The cardinal residual max|K C - I|
    against the unjittered Gram matrix is formed one GRAM_ROW_BLOCK strip of
    re-evaluated K rows at a time and checked under the same rule as `fit`
    (||I||_inf = 1); a warning is emitted when it exceeds 1e-8.
    """
    fact = factorize(ScratchGram(assemble_gram(kernel, X).entries))
    C = fact.inverse()
    resid = 0.0
    for i0 in range(0, len(X), GRAM_ROW_BLOCK):
        R = kernel_matrix(kernel, X.points[i0:i0 + GRAM_ROW_BLOCK], X.points) @ C
        R[np.arange(len(R)), np.arange(i0, i0 + len(R))] -= 1.0
        resid = max(resid, float(np.max(np.abs(R, out=R))))
    if resid > 1e-8:
        warnings.warn(
            f"cardinal residual {resid:.3e} exceeds 1e-8 * ||I||_inf "
            f"(jitter {fact.jitter:.1e})",
            stacklevel=2,
        )
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
