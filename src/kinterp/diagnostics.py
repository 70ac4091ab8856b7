"""Measurable quantities: Lebesgue functions and constants, error norms,
native-norm growth along nested designs, Lagrange decay fits, and per-level
convergence tables.

Supremum norms are discretized as maxima over a fixed tensor evaluation
grid (a lower bound of the true sup, converging under grid refinement);
L2 norms use tensorized composite-trapezoid quadrature. Grid scans run in
fixed-size chunks with deterministic reductions, so reports are reproducible
run to run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Box,
    NestedDesign,
    PointSet,
    fill_distance_grid,
    fill_distance_interval,
    sampling_condition,
    separation_distance,
)
from . import interpolation
from .interpolation import (
    FactorizationError,
    Interpolant,
    _weighted_row_sums,
    evaluate,
    fit,
    kernel_blocks,
    lagrange,
    lagrange_coefficients,
    native_norm,
)
from .kernels import Kernel, _run_tiles, assemble_gram, kernel_matrix  # noqa: F401 (re-exported)

BOUNDED_LIKE = "bounded-like"
DIVERGING_LIKE = "diverging-like"
INCONCLUSIVE = "inconclusive"

# Default probe density per axis for fill distances in dimension >= 2.
DEFAULT_FILL_PROBE = 1001


class DiagnosticsError(RuntimeError):
    pass


class DecayFitError(DiagnosticsError):
    pass


@dataclass(frozen=True)
class EvalGrid:
    """Tensor evaluation grid with composite-trapezoid quadrature weights.

    Points are ordered lexicographically; the weights sum to the box volume.
    """

    points: np.ndarray
    quad_weights: np.ndarray
    spacing: tuple[float, ...]
    domain: Box

    @classmethod
    def tensor(cls, domain: Box, points_per_axis: int) -> "EvalGrid":
        if points_per_axis < 2:
            raise DiagnosticsError("need at least 2 grid points per axis")
        axes, weights, spacing = [], [], []
        for a, b in zip(domain.lower, domain.upper):
            ax = np.linspace(a, b, points_per_axis)
            h = (b - a) / (points_per_axis - 1)
            w = np.full(points_per_axis, h)
            w[0] = w[-1] = 0.5 * h
            axes.append(ax)
            weights.append(w)
            spacing.append(h)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        wmesh = np.meshgrid(*weights, indexing="ij")
        qw = np.ones(pts.shape[0])
        for wm in wmesh:
            qw = qw * wm.reshape(-1)
        return cls(points=pts, quad_weights=qw, spacing=tuple(spacing), domain=domain)

    def __len__(self) -> int:
        return self.points.shape[0]


def lebesgue_max_from_coefficients(kernel: Kernel, X: PointSet, C: np.ndarray,
                                   grid: EvalGrid) -> float:
    """Chunked grid scan of max_x sum_i |l_i(x)| given the cardinal
    coefficient matrix."""
    lmax = 0.0
    for _, cross in kernel_blocks(kernel, grid.points, X.points):
        lmax = max(lmax, _lebesgue_block_max(cross, C))
    return lmax


def _lebesgue_block_max(cross: np.ndarray, C: np.ndarray) -> float:
    """Max over the rows of one cross-kernel block of sum_i |l_i(x)|."""
    return float(_cardinal_abs_sums(cross, C, np.empty(cross.shape[0])).max())


def _cardinal_abs_sums(cross: np.ndarray, C: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row sums of |cross @ C| into `out`: the Lebesgue function on one
    block's points.

    The product is one GEMM over the whole block; the absolute values and
    the row sums then run in place on its row tiles. Each row is summed on
    its own, so the tiles leave every sum's bits unchanged.
    """
    p = cross @ C

    def tile(rows):
        q = p[rows]
        np.sum(np.abs(q, out=q), axis=1, out=out[rows])

    _run_tiles(tile, p.shape[0], p[:1].nbytes)
    return out


def lebesgue_function(kernel: Kernel, X: PointSet, grid: EvalGrid) -> np.ndarray:
    """Pointwise sum of the absolute cardinal functions over the grid.

    All cardinal functions come from one multi-right-hand-side solve of the
    Gram system; a factorization failure propagates with the level size in
    the message.
    """
    try:
        C, _ = lagrange_coefficients(kernel, X)
    except FactorizationError as exc:
        raise FactorizationError(f"Lebesgue function at n={len(X)}: {exc}") from exc
    out = np.empty(len(grid))
    for rows, cross in kernel_blocks(kernel, grid.points, X.points):
        _cardinal_abs_sums(cross, C, out[rows])
    return out


def lebesgue_constant(kernel: Kernel, X: PointSet, grid: EvalGrid) -> float:
    """Max of the Lebesgue function over the grid: a lower bound of the true
    constant that converges under grid refinement."""
    return float(np.max(lebesgue_function(kernel, X, grid)))


def sup_error(target, s: Interpolant, grid: EvalGrid) -> float:
    return _sup_norm(target(grid.points) - evaluate(s, grid.points))


def l2_error(target, s: Interpolant, grid: EvalGrid) -> float:
    """Trapezoid-quadrature L2 error; the quadrature error is O(spacing^2)
    for twice-differentiable integrands and unquantified for rougher ones."""
    return _l2_norm(target(grid.points) - evaluate(s, grid.points), grid)


def _sup_norm(d: np.ndarray) -> float:
    return float(np.max(np.abs(d)))


def _l2_norm(d: np.ndarray, grid: EvalGrid) -> float:
    return float(np.sqrt(np.sum(grid.quad_weights * d * d)))


def _loglog_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    mask = (xs > 0) & (ys > 0)
    if mask.sum() < 2:
        return float("nan")
    A = np.vstack([np.log(xs[mask]), np.ones(int(mask.sum()))]).T
    coef, *_ = np.linalg.lstsq(A, np.log(ys[mask]), rcond=None)
    return float(coef[0])


@dataclass(frozen=True)
class NormGrowthResult:
    levels: tuple[int, ...]
    norms: tuple[float, ...]
    classification: str
    slope: float
    truncated_at: int | None = None  # level count at the first failed solve
    note: str = ""


def classify_norm_growth(levels, norms) -> tuple[str, float]:
    """Advisory boundedness heuristic for a norm sequence.

    "bounded-like" when the last-quartile norms vary by < 10% and the
    log-log slope of norm vs n is < 0.05; "diverging-like" when that slope
    exceeds 0.15; otherwise "inconclusive".
    """
    ns = np.asarray(levels, float)
    vs = np.asarray(norms, float)
    if len(vs) == 0:
        return INCONCLUSIVE, float("nan")
    if np.max(vs) <= 1e-14:
        return BOUNDED_LIKE, 0.0
    half = len(vs) // 2
    slope = _loglog_slope(ns[half:], vs[half:])
    q = max(2, -(-len(vs) // 4))
    tail = vs[-q:]
    variation = (tail.max() - tail.min()) / tail.min() if tail.min() > 0 else np.inf
    if variation < 0.10 and slope < 0.05:
        return BOUNDED_LIKE, slope
    if slope > 0.15:
        return DIVERGING_LIKE, slope
    return INCONCLUSIVE, slope


def norm_growth_sequence(target, kernel: Kernel, design: NestedDesign) -> NormGrowthResult:
    """Native norms of the fits along the nested levels, plus the advisory
    boundedness label. A failed level truncates the sequence and is noted."""
    levels, norms = [], []
    truncated, note = None, ""
    level_sets = map(design.level_points, range(len(design)))
    for row in measure_levels(kernel, level_sets, None, target):
        if row["jitter_flag"] == "failed":
            truncated, note = row["n"], row["error"]
            break
        levels.append(row["n"])
        norms.append(row["native_norm"])
    label, slope = classify_norm_growth(levels, norms)
    return NormGrowthResult(levels=tuple(levels), norms=tuple(norms),
                            classification=label, slope=slope,
                            truncated_at=truncated, note=note)


@dataclass(frozen=True)
class DecayFit:
    nu_hat: float  # decay rate per unit of |x - x_i| / h
    c_hat: float  # exp(intercept) of the least-squares line
    r_squared: float
    c_env: float  # max over the grid of |l(x)| * exp(+nu_hat |x - x_i| / h)
    n_points: int
    floor: float  # |l| values below this were excluded from the fit


def decay_profile(kernel: Kernel, X: PointSet, i: int, grid: EvalGrid,
                  h: float) -> DecayFit:
    """Least-squares exponential decay fit of the i-th cardinal function.

    Fits log|l_i(x)| against t = |x - x_i| / h over grid points outside the
    node's own cell (t >= 1) whose |l_i| exceeds the evaluation noise floor
    max(1e-12, 10 eps kmax ||alpha||_1); values below that floor are
    cancellation noise, not decay. 1-d Matern kernels only (integer native
    order). Fewer than 8 usable points raises.
    """
    from .kernels import MATERN

    if kernel.family != MATERN or kernel.dim != 1 or X.domain.dim != 1:
        raise DiagnosticsError("decay_profile needs a 1-d Matern kernel")
    if h <= 0:
        raise DiagnosticsError("decay_profile needs h > 0")
    li = lagrange(kernel, X, i)
    lv = evaluate(li, grid.points)
    floor = max(1e-12, 10.0 * np.finfo(float).eps * kernel.diagonal_value()
                * float(np.sum(np.abs(li.coefficients))))
    t = np.abs(grid.points[:, 0] - X.points[i, 0]) / h
    mask = (t >= 1.0) & (np.abs(lv) > floor)
    if int(mask.sum()) < 8:
        raise DecayFitError(
            f"only {int(mask.sum())} usable points for the decay fit at node {i}"
        )
    A = np.vstack([t[mask], np.ones(int(mask.sum()))]).T
    y = np.log(np.abs(lv[mask]))
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    nu_hat = -float(coef[0])
    c_env = float(np.max(np.abs(lv) * np.exp(np.minimum(nu_hat * t, 700.0))))
    return DecayFit(nu_hat=nu_hat, c_hat=float(np.exp(coef[1])), r_squared=r2,
                    c_env=c_env, n_points=int(mask.sum()), floor=floor)


REPORT_COLUMNS = ("n", "h", "q", "rho", "lebesgue_constant", "native_norm",
                  "sup_error", "l2_error", "jitter_flag", "sampling_condition")
# Decay reports: the level, the fitted node and the DecayFit fields.
DECAY_COLUMNS = ("n", "node_index", "nu_hat", "c_hat", "r_squared", "c_env",
                 "n_points", "floor")


@dataclass(frozen=True)
class DiagnosticsReport:
    """Per-level rows of the measured quantities plus run metadata.

    Rows are dicts keyed by `columns` (REPORT_COLUMNS, or DECAY_COLUMNS for
    decay fits); numeric gaps hold nan, counts are ints and the two flag
    columns are strings. Metadata round-trips through the CSV as leading
    '#'-prefixed lines.
    """

    rows: tuple[dict, ...]
    metadata: dict = field(default_factory=dict)
    columns: tuple[str, ...] = REPORT_COLUMNS

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            for key, value in self.metadata.items():
                fh.write(f"# {key} = {value}\n")
            w = csv.writer(fh)
            w.writerow(self.columns)
            for row in self.rows:
                out = []
                for col in self.columns:
                    v = row[col]
                    if col == "n" or isinstance(v, int):
                        out.append(str(int(v)))
                    elif isinstance(v, str):
                        out.append(v)
                    else:
                        out.append(repr(float(v)))
                w.writerow(out)


def read_report_csv(path) -> tuple[list[dict], dict]:
    """Counterpart of DiagnosticsReport.to_csv: (rows, metadata)."""
    meta, rows = {}, []
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        else:
            body.append(line)
    rdr = csv.reader(body)
    header = next(rdr)
    for rec in rdr:
        row = {}
        for col, val in zip(header, rec):
            if col in ("jitter_flag", "sampling_condition"):
                row[col] = val
            else:
                row[col] = float(val)
        rows.append(row)
    return rows, meta


def measure_levels(kernel: Kernel, level_sets, grid: EvalGrid | None, target=None,
                   lebesgue: bool = False, errors: bool = False):
    """Measure each level, yielding one REPORT_COLUMNS row per level in level
    order.

    A row always holds the level's geometry (h exact on intervals, probe-grid
    otherwise), its sampling condition and the jitter rung of its Gram
    factorization. A target adds the native norm of the fit, `errors` the sup
    and L2 errors over `grid`, and `lebesgue` the Lebesgue constant over
    `grid`; quantities not asked for stay nan. A level whose factorization
    fails yields a "failed" row carrying the error text under "error", and
    the next level is still measured.

    Without grid quantities each row is yielded as soon as its level is
    measured. With `errors` or `lebesgue`, every level is fitted first and
    then all of them are measured in one shared scan of the grid (see
    `_scan_levels`), so the rows are yielded after the last level.
    """
    errors = errors and target is not None
    fitted = _fit_levels(kernel, level_sets, target, lebesgue)
    if not (lebesgue or errors):
        for row, *_ in fitted:
            yield row
        return
    fitted = list(fitted)
    ok = [f for f in fitted if f[0]["jitter_flag"] != "failed"]
    if ok:
        _scan_levels(kernel, ok, grid, target if errors else None, lebesgue)
    for row, *_ in fitted:
        yield row


def _fit_levels(kernel: Kernel, level_sets, target, lebesgue: bool):
    """Yield (row, X, alpha, C) for each level: the row with every quantity
    but the grid ones, the fit coefficients (None without a target) and the
    cardinal coefficient matrix (None unless `lebesgue`). The Gram matrix is
    dropped before the cardinal matrix is formed, and the factor after it, so
    a level holds at most two n x n arrays."""
    tau = kernel.sobolev_order_tau
    fill_probe = None
    for X in level_sets:
        n, dom = len(X), X.domain
        if dom.dim == 1:
            h = fill_distance_interval(X, dom.lower[0], dom.upper[0])
        else:
            if fill_probe is None:
                fill_probe = EvalGrid.tensor(dom, DEFAULT_FILL_PROBE)
            h = fill_distance_grid(X, fill_probe)
        row = dict.fromkeys(REPORT_COLUMNS, float("nan"))
        row.update(n=n, h=h, jitter_flag="failed", sampling_condition="n/a")
        if n >= 2:
            q = separation_distance(X)
            row.update(q=q, rho=h / q)  # mesh_ratio(X, h) without a second distance search
        if dom.dim == 1 and np.isfinite(tau):
            row["sampling_condition"] = sampling_condition(h, tau, dom.lower[0], dom.upper[0])
        gram = assemble_gram(kernel, X)
        try:
            fact = interpolation.factorize(gram)
        except FactorizationError as exc:
            row["error"] = str(exc)
            yield row, X, None, None
            continue
        step = fact.jitter_step
        row["jitter_flag"] = "none" if step == 0.0 else f"{step:.0e}"
        alpha = C = None
        if target is not None:
            s = fit(kernel, X, target(X.points), factorization=fact, gram=gram)
            row["native_norm"] = native_norm(s)
            alpha = s.coefficients
        del gram
        if lebesgue:
            C = fact.inverse()
        del fact
        yield row, X, alpha, C


def _scan_levels(kernel: Kernel, fitted, grid: EvalGrid, target, lebesgue: bool) -> None:
    """Fill in the grid quantities of the fitted levels from one grid scan.

    The scan's columns are the nodes of the largest level, plus the nodes of
    every level that is not a prefix of them; each level reads its own
    columns of the shared cross-kernel block, which are bit-identical to its
    own block. Per block, the Lebesgue maxima use the arithmetic of
    `lebesgue_max_from_coefficients` and the fitted values the row-wise sum
    of `interpolation.evaluate`. The errors are reduced once over the whole
    grid, as `sup_error` and `l2_error` do, so the results equal theirs.
    """
    base = max((X for _, X, _, _ in fitted), key=len).points
    parts, width, columns = [base], len(base), []
    for _, X, _, _ in fitted:
        n = len(X)
        if np.array_equal(X.points, base[:n]):
            columns.append(slice(0, n))
        else:
            parts.append(X.points)
            columns.append(slice(width, width + n))
            width += n
    nodes = np.concatenate(parts) if len(parts) > 1 else base
    lmax = [0.0] * len(fitted)
    values = [np.empty(len(grid)) for _ in fitted] if target is not None else None
    for rows, cross in kernel_blocks(kernel, grid.points, nodes):
        for k, (cols, (_, _, alpha, C)) in enumerate(zip(columns, fitted)):
            block = cross[:, cols]
            if lebesgue:
                lmax[k] = max(lmax[k], _lebesgue_block_max(block, C))
            if values is not None:
                _weighted_row_sums(block, alpha, values[k][rows])
    exact = target(grid.points) if target is not None else None
    for k, (row, _, _, _) in enumerate(fitted):
        if lebesgue:
            row["lebesgue_constant"] = lmax[k]
        if exact is not None:
            d = exact - values[k]
            row["sup_error"] = _sup_norm(d)
            row["l2_error"] = _l2_norm(d, grid)


def error_slopes(rows) -> dict:
    """Log-log slopes of the sup and L2 errors against h, fitted over the
    last half of the successful rows; nan when undefined (for example for an
    exactly reproduced target)."""
    ok = [r for r in rows if r["jitter_flag"] != "failed"]
    half = ok[len(ok) // 2:]
    hs = np.array([r["h"] for r in half])
    return {
        "sup_slope": _loglog_slope(hs, np.array([r["sup_error"] for r in half])),
        "l2_slope": _loglog_slope(hs, np.array([r["l2_error"] for r in half])),
    }


def convergence_table(target, kernel: Kernel, design: NestedDesign, grid: EvalGrid,
                      with_lebesgue: bool = True) -> tuple[DiagnosticsReport, dict]:
    """Full per-level report (measure_levels with errors, and the Lebesgue
    constant unless `with_lebesgue` is off) plus the fitted log-log error
    slopes vs h (error_slopes). Failed levels are annotated and left out of
    the slopes.
    """
    level_sets = map(design.level_points, range(len(design)))
    rows = tuple(measure_levels(kernel, level_sets, grid, target,
                                lebesgue=with_lebesgue, errors=True))
    return DiagnosticsReport(rows=rows, metadata={}), error_slopes(rows)
