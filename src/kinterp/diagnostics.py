"""Measurable quantities: Lebesgue functions and constants, error norms,
the native-norm growth label, Lagrange decay fits, and the per-level
measurements of nested designs (`measure_levels`).

Supremum norms are discretized as maxima over a fixed tensor evaluation
grid, a `geometry.EvalGrid` (a lower bound of the true sup, converging under
grid refinement); L2 norms use its tensorized composite-trapezoid weights.
Grid scans run in blocks of whole grid lines with deterministic
reductions, so reports are reproducible run to run, and form the grid's
points one block at a time; the errors read the whole grid, `grid[:]`, once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DEFAULT_FILL_PROBE,
    EvalGrid,
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
    _scan_levels,
    evaluate,
    fit,
    lagrange,
    lagrange_coefficients,
    native_norm,
)
from .kernels import (  # noqa: F401 (kernel_matrix is re-exported)
    MATERN, Kernel, ScratchGram, assemble_gram, kernel_matrix)

BOUNDED_LIKE = "bounded-like"
DIVERGING_LIKE = "diverging-like"
INCONCLUSIVE = "inconclusive"


class DiagnosticsError(RuntimeError):
    pass


class DecayFitError(DiagnosticsError):
    pass


def lebesgue_max_from_coefficients(kernel: Kernel, X: PointSet, C: np.ndarray,
                                   grid: EvalGrid) -> float:
    """Chunked grid scan of max_x sum_i |l_i(x)| given the cardinal
    coefficient matrix."""
    return _scan_levels(kernel, [(X, None, C)], grid)[0][0]


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
    _scan_levels(kernel, [(X, None, C)], grid, [out])
    return out


def lebesgue_constant(kernel: Kernel, X: PointSet, grid: EvalGrid) -> float:
    """Max of the Lebesgue function over the grid: a lower bound of the true
    constant that converges under grid refinement."""
    return float(np.max(lebesgue_function(kernel, X, grid)))


def sup_error(target, s: Interpolant, grid: EvalGrid) -> float:
    return _sup_norm(target(grid[:]) - evaluate(s, grid[:]))


def l2_error(target, s: Interpolant, grid: EvalGrid) -> float:
    """Trapezoid-quadrature L2 error; the quadrature error is O(spacing^2)
    for twice-differentiable integrands and unquantified for rougher ones."""
    return _l2_norm(target(grid[:]) - evaluate(s, grid[:]), grid)


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


def classify_norm_growth(rows) -> tuple[str, float]:
    """Advisory boundedness heuristic for the native norms of the successful
    rows (failed rows are dropped, as in `error_slopes`).

    "bounded-like" when the last-quartile norms vary by < 10% and the
    log-log slope of norm vs n is < 0.05; "diverging-like" when that slope
    exceeds 0.15; otherwise "inconclusive".
    """
    ok = _successful(rows)
    ns = np.array([r["n"] for r in ok], float)
    vs = np.array([r["native_norm"] for r in ok], float)
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
    if kernel.family != MATERN or kernel.dim != 1 or X.domain.dim != 1:
        raise DiagnosticsError("decay_profile needs a 1-d Matern kernel")
    if h <= 0:
        raise DiagnosticsError("decay_profile needs h > 0")
    li = lagrange(kernel, X, i)
    pts = grid[:]
    lv = evaluate(li, pts)
    floor = max(1e-12, 10.0 * np.finfo(float).eps * kernel.diagonal_value()
                * float(np.sum(np.abs(li.coefficients))))
    t = np.abs(pts[:, 0] - X.points[i, 0]) / h
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
    """Counterpart of DiagnosticsReport.to_csv: (rows, metadata). A cell
    of a numeric column that is not a number raises ValueError."""
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
    header = next(rdr, ())  # a file of metadata lines alone has no rows
    for rec in rdr:
        rows.append({col: val if col in ("jitter_flag", "sampling_condition") else float(val)
                     for col, val in zip(header, rec)})
    return rows, meta


def measure_levels(kernel: Kernel, level_sets, grid: EvalGrid | None, target=None,
                   lebesgue: bool = False, errors: bool = False) -> list[dict]:
    """Measure each level: one REPORT_COLUMNS row per level, in level order.

    This is where a report row's geometry is measured (a decay row takes h
    from `fill_distance_interval` in `cli._decay_rows`). A row always
    holds the level's fill distance h (exact on intervals, otherwise a lower
    bound: the maximum over the DEFAULT_FILL_PROBE tensor probe, found by a
    bounded search and equal to the full probe query), its separation
    distance q, its mesh ratio rho = h / q, its sampling condition and the
    jitter rung of its Gram factorization. A target adds the native norm of
    the fit, `errors` the sup and L2 errors over `grid`, and `lebesgue` the
    Lebesgue constant over `grid`; quantities not asked for stay nan. A
    level whose factorization fails gives a "failed" row carrying the error
    text under "error", and the next level is still measured. Levels are
    fitted and scanned one pass at a time, largest level first, so a pass's
    cardinal matrices are freed before the next pass is fitted; the passes
    (`interpolation._scan_plan`) follow from sizes: one of nested levels, or
    one per level when the largest C outweighs a scan block or nothing is
    scanned. A pass's grid quantities come from one `_scan_levels` call, and
    the errors are reduced over the whole grid as `sup_error` and `l2_error`
    do, so every result equals theirs and each row a one-level call's.
    `lebesgue` or `errors` without a grid, and `errors` without a
    target, raise DiagnosticsError before any level is fitted. Unlike
    `lagrange_coefficients`, the Lebesgue path leaves the cardinal residual
    max|K C - I| unchecked (3.5e-4, unflagged, at the escape workload's
    n = 2175): checking it costs one more n x n by n product per level.
    """
    if (grid is None and (lebesgue or errors)) or (errors and target is None):
        raise DiagnosticsError("lebesgue and errors need a grid, and errors a target")
    if not level_sets:
        return []
    passes, blocks = interpolation._scan_plan(
        level_sets, grid if lebesgue or errors else None, lebesgue)
    rows, exact = [None] * len(level_sets), None
    for ks in passes:
        levels = []  # the scan entry of each fitted level: the only reference to its C
        for k in ks:
            rows[k] = _fit_level(kernel, level_sets[k], target, lebesgue, errors, levels)
        ok = _successful([rows[k] for k in ks])
        if ok and (lebesgue or errors):
            scanned = _scan_levels(kernel, levels, grid, blocks=blocks)
            exact = target(grid[:]) if errors and exact is None else exact
            for row, (lmax, values) in zip(ok, scanned):
                if lebesgue:
                    row["lebesgue_constant"] = lmax
                if errors:
                    d = exact - values
                    row["sup_error"] = _sup_norm(d)
                    row["l2_error"] = _l2_norm(d, grid)
    return rows


def _fit_level(kernel: Kernel, X, target, lebesgue: bool, errors: bool, levels: list) -> dict:
    """The level's row with every quantity but the grid ones; unless its
    factorization fails, its scan entry (X, alpha, C) is appended to
    `levels`, alpha None without `errors` and C None unless `lebesgue`. The
    Gram is handed over to `factorize` (a ScratchGram), so its one buffer
    becomes the factor, which keeps K for the fit's residual: a level holds
    one n x n array, two with `lebesgue`, and from its return on only C."""
    tau, n, dom = kernel.sobolev_order_tau, len(X), X.domain
    if dom.dim == 1:
        h = fill_distance_interval(X, dom.lower[0], dom.upper[0])
    else:
        h = fill_distance_grid(X, EvalGrid.tensor(dom, DEFAULT_FILL_PROBE))
    row = dict.fromkeys(REPORT_COLUMNS, float("nan"))
    row.update(n=n, h=h, jitter_flag="failed", sampling_condition="n/a")
    if n >= 2:
        q = separation_distance(X)
        row.update(q=q, rho=h / q)  # mesh_ratio(X, h) without a second distance search
    if dom.dim == 1 and np.isfinite(tau):
        row["sampling_condition"] = sampling_condition(h, tau, dom.lower[0], dom.upper[0])
    try:
        fact = interpolation.factorize(ScratchGram(assemble_gram(kernel, X).entries))
    except FactorizationError as exc:
        row["error"] = str(exc)
        return row
    step = fact.jitter_step
    row["jitter_flag"] = "none" if step == 0.0 else f"{step:.0e}"
    alpha, C = None, fact.inverse() if lebesgue else None
    if target is not None:
        s = fit(kernel, X, target(X.points), factorization=fact)
        row["native_norm"] = native_norm(s)
        alpha = s.coefficients if errors else None
    levels.append((X, alpha, C))
    return row


def error_slopes(rows) -> dict:
    """Log-log slopes of the sup and L2 errors against h, fitted over the
    last half of the successful rows; nan when undefined (for example for an
    exactly reproduced target)."""
    ok = _successful(rows)
    half = ok[len(ok) // 2:]
    hs = np.array([r["h"] for r in half])
    return {
        "sup_slope": _loglog_slope(hs, np.array([r["sup_error"] for r in half])),
        "l2_slope": _loglog_slope(hs, np.array([r["l2_error"] for r in half])),
    }


def _successful(rows) -> list:
    """The rows whose level was measured: the one failed-level rule, of
    `measure_levels`' scan and the slope rules."""
    return [row for row in rows if row["jitter_flag"] != "failed"]
