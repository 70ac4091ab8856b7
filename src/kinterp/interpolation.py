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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .geometry import PointSet
from .kernels import GramMatrix, Kernel, _run_tiles, assemble_gram, kernel_matrix

JITTER_LADDER = (1e-14, 1e-12, 1e-10, 1e-8)

# Grid scans (evaluation, Lebesgue functions) run in chunks of this many
# evaluation points to bound the size of the cross-kernel block.
EVAL_CHUNK = 8192


class FactorizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Factorization:
    """Lower-triangular Cholesky factor of K + jitter * I."""

    lower: np.ndarray
    jitter: float  # absolute diagonal shift that was applied, 0 if none
    jitter_step: float  # relative ladder step that succeeded, 0 if none

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
        (trtrs,) = get_lapack_funcs(("trtrs",), (self.lower,))
        for trans in (0, 1):
            b, info = trtrs(self.lower, b, lower=True, trans=trans, overwrite_b=overwrite)
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
    rungs copy the transpose contiguously. Raises FactorizationError naming
    the failing leading minor once the ladder is exhausted.
    """
    if isinstance(K, GramMatrix):
        A = K.entries
        source = A.T  # the same bits as A, already in Fortran order
    else:
        A = source = np.asarray(K, float)
    n = A.shape[0]
    (potrf,) = get_lapack_funcs(("potrf",), (A,))
    scale = float(np.max(np.diag(A)))
    work = np.empty_like(A, order="F")
    diagonal = np.diag_indices(n)
    last_info = 0
    for step in (0.0,) + JITTER_LADDER:
        jitter = step * scale
        np.copyto(work, source)
        if jitter:
            work[diagonal] += jitter
        c, info = potrf(work, lower=True, clean=True, overwrite_a=True)
        if info == 0:
            return Factorization(lower=c, jitter=jitter, jitter_step=step)
        last_info = int(info)
    raise FactorizationError(
        f"matrix of order {n} is not positive definite after the jitter "
        f"ladder {JITTER_LADDER}: leading minor {last_info} failed last"
    )


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


def fit(kernel: Kernel, X: PointSet, values, factorization: Factorization | None = None,
        gram: GramMatrix | None = None) -> Interpolant:
    """Solve the Gram system for the minimal-norm interpolant of the data.

    A precomputed factorization (and the Gram it came from) can be shared
    across fits on the same node set. The post-solve residual against the
    unjittered Gram matrix is recorded, and a warning is emitted when it
    exceeds 1e-8 relative to the data; it is never silently discarded.
    """
    r = np.asarray(values, dtype=float)
    if r.shape != (len(X),):
        raise ValueError(f"got {r.shape[0] if r.ndim else 0} values for {len(X)} nodes")
    if gram is None:
        gram = assemble_gram(kernel, X)
    if factorization is None:
        factorization = factorize(gram)
    alpha = factorization.solve(r)
    resid = float(np.max(np.abs(gram.entries @ alpha - r))) if len(r) else 0.0
    tol = 1e-8 * max(float(np.max(np.abs(r))), 1e-300)
    if resid > tol:
        warnings.warn(
            f"interpolation residual {resid:.3e} exceeds 1e-8 * ||r||_inf "
            f"(jitter {factorization.jitter:.1e})",
            stacklevel=2,
        )
    return Interpolant(kernel=kernel, nodes=X, coefficients=alpha, data=r,
                       jitter=factorization.jitter, residual_inf=resid)


def kernel_blocks(kernel: Kernel, points: np.ndarray, nodes: np.ndarray):
    """Yield (row slice, kernel_matrix(kernel, points[rows], nodes)) pairs
    that cover the points in EVAL_CHUNK steps, so a grid scan never holds
    more than one cross-kernel block."""
    for start in range(0, points.shape[0], EVAL_CHUNK):
        rows = slice(start, start + EVAL_CHUNK)
        yield rows, kernel_matrix(kernel, points[rows], nodes)


def evaluate(s: Interpolant, points) -> np.ndarray:
    """Evaluate the interpolant at a batch of points.

    Each output value is a row-wise pairwise-summed dot product, so batch
    evaluation is bit-identical to evaluating points one at a time.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(pts.shape[0])
    for rows, cross in kernel_blocks(s.kernel, pts, s.nodes.points):
        _weighted_row_sums(cross, s.coefficients, out[rows])
    return out


def _weighted_row_sums(block: np.ndarray, weights: np.ndarray, out: np.ndarray) -> None:
    """out[i] = sum_j block[i, j] * weights[j], in row tiles: each tile's
    products form one contiguous temporary and every row is summed on its
    own, so the sums equal those of the whole block's product."""
    def tile(rows):
        np.sum(block[rows] * weights, axis=1, out=out[rows])

    _run_tiles(tile, block.shape[0], block[:1].nbytes)


def lagrange(kernel: Kernel, X: PointSet, i: int,
             factorization: Factorization | None = None) -> Interpolant:
    """The i-th cardinal function: the interpolant of the i-th unit vector."""
    if not 0 <= i < len(X):
        raise IndexError(f"node index {i} out of range for {len(X)} nodes")
    e = np.zeros(len(X))
    e[i] = 1.0
    return fit(kernel, X, e, factorization=factorization)


def lagrange_coefficients(kernel: Kernel, X: PointSet) -> tuple[np.ndarray, Factorization]:
    """Coefficient matrix of all cardinal functions at once.

    Solves K C = I through one shared factorization (n right-hand sides);
    column i holds the coefficients of the i-th cardinal function. The
    cardinal residual max|K C - I| against the unjittered Gram matrix is
    checked under the same rule as `fit` (||I||_inf = 1), and a warning is
    emitted when it exceeds 1e-8.
    """
    gram = assemble_gram(kernel, X)
    fact = factorize(gram)
    n = len(X)
    C = fact.inverse()
    R = gram.entries @ C
    R[np.diag_indices(n)] -= 1.0
    resid = float(np.max(np.abs(R, out=R)))
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


def interpolant_from_csv(path, kernel: Kernel, domain) -> Interpolant:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    dim = len(rows[0]) - 2
    pts = np.array([[float(v) for v in r[:dim]] for r in body])
    data = np.array([float(r[dim]) for r in body])
    coef = np.array([float(r[dim + 1]) for r in body])
    X = PointSet(points=pts, domain=domain)
    return Interpolant(kernel=kernel, nodes=X, coefficients=coef, data=data)
