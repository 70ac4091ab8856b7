"""Acceptance suite: one test per criterion, each printing a pass/fail line
(replayed in the terminal summary).

Criterion 1 documents a genuine double-precision limit and is expected to
fail honestly rather than be loosened: it includes two cells (nu=5/2,
gamma=1, interval, n in {64, 200}) whose Gram condition numbers are 6.0e12
and 1.5e16. Even the exact inverse (60-digit mpmath, rounded to float64)
gives max|K C - I| = 4.65e-5 and 4.3e-2 under the float64 product
`kernel_matrix @ C`, so no solver can deliver 1e-6 cardinality there.
`lagrange_coefficients` warns on such cells (cardinal residual above 1e-8);
the module-wide filter below silences that expected warning.

Criterion 3 measures the native-space rate: the Matern 3/2 sup error for
x^1.6, a target in H^2 = H_k that is rough at the boundary, where the
one-sided bound C h^(tau - N/2) is sharp. Smoother targets converge faster
(kernel-translate combinations at a slope near 3, interior-smooth targets
near 2); the one-sided theory allows that, so such targets cannot test the
rate.
"""

import time

import numpy as np
import pytest

import conftest
from kinterp import cli
from kinterp.diagnostics import (
    BOUNDED_LIKE,
    DIVERGING_LIKE,
    EvalGrid,
    classify_norm_growth,
    decay_profile,
    measure_levels,
)
from kinterp.geometry import (
    Box,
    PointSet,
    equispaced_interval,
    fill_distance_grid,
    fill_distance_interval,
    generate_candidates,
    geometric_greedy,
    nested_equispaced_design,
    separation_distance,
)
from kinterp.interpolation import evaluate, fit, lagrange_coefficients, native_norm
from kinterp.kernels import assemble_gram, kernel_matrix, matern
from kinterp.targets import make_target

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

UNIT = Box.interval(0.0, 1.0)
SQUARE = Box.unit_cube(2)


def record(num, ok, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def greedy_design(domain, levels, pool=10 ** 4):
    cands = generate_candidates(domain, pool, "low_discrepancy")
    center = 0.5 * (np.asarray(domain.lower) + np.asarray(domain.upper))
    seed = int(np.argmin(np.sum((cands.points - center) ** 2, axis=1)))
    return geometric_greedy(cands, max(levels), seed, levels)


# ------------------------------------------------------------ criterion 1

def test_criterion_01_cardinality_suite():
    t0 = time.time()
    levels = (16, 64, 200)
    designs = {1: greedy_design(UNIT, levels), 2: greedy_design(SQUARE, levels)}
    failures = []
    worst = 0.0
    for dim in (1, 2):
        design = designs[dim]
        for nu in (0.5, 1.5, 2.5):
            for gamma in (1.0, 10.0):
                kernel = matern(nu, gamma=gamma, dim=dim)
                for i, n in enumerate(levels):
                    X = design.level_points(i)
                    C, _ = lagrange_coefficients(kernel, X)
                    vals = kernel_matrix(kernel, X.points, X.points) @ C
                    err = float(np.max(np.abs(vals - np.eye(n))))
                    worst = max(worst, err)
                    if err > 1e-6:
                        failures.append(f"nu={nu} gamma={gamma} dim={dim} n={n}: {err:.2e}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30
    record(1, ok,
           f"cardinality <= 1e-6 on 36 cells, worst {worst:.2e}, {elapsed:.1f}s"
           + (f"; failing cells: {'; '.join(failures)}" if failures else ""))
    assert elapsed < 30
    assert not failures, (
        "float64 cannot reach 1e-6 cardinality on these cells (Gram condition "
        "number near 1/eps; the jitter ladder only degrades cardinality): "
        + "; ".join(failures))


# ------------------------------------------------------------ criterion 2

def test_criterion_02_minimal_norm_algebra():
    t0 = time.time()
    kernel = matern(1.5)
    bad = []
    for trial in range(50):
        pool = generate_candidates(UNIT, 600, "uniform_random", seed=1000 + trial)
        design = geometric_greedy(pool, 64, seed_index=0, level_counts=(16, 64))
        Xn, Xm = design.level_points(0), design.level_points(1)
        rng = np.random.default_rng(trial)
        f_master = rng.standard_normal(64)
        sn = fit(kernel, Xn, f_master[:16])
        sm = fit(kernel, Xm, f_master)
        nn, nm = native_norm(sn), native_norm(sm)
        if not nn <= nm * (1 + 1e-6):
            bad.append(f"trial {trial}: monotonicity {nn} > {nm}")
        diff = evaluate(sm, Xm.points) - evaluate(sn, Xm.points)
        sdiff = fit(kernel, Xm, diff)
        lhs = nm ** 2 - nn ** 2
        rhs = native_norm(sdiff) ** 2
        scale = max(abs(lhs), abs(rhs), 1e-30)
        if abs(lhs - rhs) / scale > 1e-6:
            bad.append(f"trial {trial}: pythagoras rel err {abs(lhs - rhs) / scale:.2e}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 10
    record(2, ok, f"pythagoras + monotonicity on 50 nested pairs, {elapsed:.1f}s"
           + (f"; {'; '.join(bad[:3])}" if bad else ""))
    assert not bad and elapsed < 10


# ------------------------------------------------------------ criterion 3

def test_criterion_03_native_space_rate():
    t0 = time.time()
    kernel = matern(1.5)  # native space H^2 on the line: tau - N/2 = 1.5
    # f(x) = x^1.6 has f'' ~ x^-0.4 in L^2, so f lies in H^2 = H_k, but in no
    # H^s with s >= 2.1: a native-space target that is rough at the boundary,
    # where the sup-error bound C h^(tau - N/2) is sharp (predicted slope ~1.6)
    target = make_target("abs_power", {"center": 0.0, "power": 1.6}, kernel, UNIT)
    design = nested_equispaced_design(0.0, 1.0, 16, 6)  # 16 .. 543
    grid = EvalGrid.tensor(UNIT, 4097)
    hs, errs = [], []
    for i in range(len(design)):
        X = design.level_points(i)
        s = fit(kernel, X, target(X.points))
        hs.append(fill_distance_interval(X, 0.0, 1.0))
        errs.append(float(np.max(np.abs(target(grid.points) - evaluate(s, grid.points)))))
    half = len(hs) // 2
    slope = float(np.polyfit(np.log(hs[half:]), np.log(errs[half:]), 1)[0])
    elapsed = time.time() - t0
    ok = 1.1 <= slope <= 1.9 and elapsed < 30
    record(3, ok, f"x^1.6 (in H^2, boundary-rough) sup-error slope {slope:.2f} "
                  f"vs required [1.1, 1.9], {elapsed:.1f}s")
    assert elapsed < 30
    assert 1.1 <= slope <= 1.9, (
        f"slope {slope:.2f}: for the native-space target x^1.6 the sup error "
        "should decay like h^(tau - N/2) = h^1.5, up to the target's own "
        "boundary smoothness (about h^1.6)")


# --------------------------------------------------- criteria 4, 6, 7, 10

def _write_cfg(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def fig_runs(outdir):
    """Criterion 4 configs: Lebesgue traces on the unit square."""
    runs = {}
    for family in ("matern32", "gaussian"):
        cfg_path = _write_cfg(outdir / f"fig_{family}.cfg", f"""
[experiment]
kind = lebesgue_trace

[kernel]
family = {family}
gamma = 10.0
dim = 2

[domain]
lower = 0.0, 0.0
upper = 1.0, 1.0

[design]
scheme = greedy_low_discrepancy
candidates = 10000
levels = 25, 50, 100, 200, 400

[grid]
points_per_axis = 513

[output]
prefix = {outdir}/fig_{family}
svg = true
""")
        t0 = time.time()
        code = cli.main(["run", cfg_path])
        csv_path = outdir / f"fig_{family}.csv"
        runs[family] = {
            "cfg": cfg_path,
            "code": code,
            "csv": csv_path,
            "bytes": csv_path.read_bytes(),
            "elapsed": time.time() - t0,
        }
    return runs


@pytest.fixture(scope="module")
def escape_run(outdir):
    """Criterion 6 config: L2/sup escape for a rough continuous target."""
    cfg_path = _write_cfg(outdir / "escape.cfg", f"""
[experiment]
kind = convergence

[kernel]
family = matern32
gamma = 1.0
dim = 1

[domain]
lower = 0.0
upper = 1.0

[design]
scheme = equispaced_nested
levels = 16, 33, 67, 135, 271, 543, 1087

[grid]
points_per_axis = 4097

[target]
name = abs_power
center = 0.5
power = 0.3333333333333333

[output]
prefix = {outdir}/escape
svg = true
""")
    t0 = time.time()
    code = cli.main(["run", cfg_path])
    csv_path = outdir / "escape.csv"
    return {"cfg": cfg_path, "code": code, "csv": csv_path,
            "bytes": csv_path.read_bytes(), "elapsed": time.time() - t0}


def test_criterion_04_square_lebesgue_contrast(fig_runs):
    from kinterp.diagnostics import read_report_csv

    rows_m, _ = read_report_csv(fig_runs["matern32"]["csv"])
    lam = {int(r["n"]): r["lebesgue_constant"] for r in rows_m
           if r["jitter_flag"] != "failed"}
    tail = [lam[n] for n in (100, 200, 400) if n in lam]
    matern_ok = len(tail) == 3 and max(tail) / min(tail) <= 2.0

    rows_g, _ = read_report_csv(fig_runs["gaussian"]["csv"])
    lam_g = {int(r["n"]): r["lebesgue_constant"] for r in rows_g
             if r["jitter_flag"] != "failed"}
    failed_g = [int(r["n"]) for r in rows_g if r["jitter_flag"] == "failed"]
    if 100 in lam_g and 400 in lam_g:
        gauss_ratio = lam_g[400] / lam_g[100]
        gauss_ok = gauss_ratio >= 2.0
        gauss_detail = f"gaussian Lambda(400)/Lambda(100) = {gauss_ratio:.2f}"
    else:
        gauss_ok = bool(failed_g)
        gauss_detail = f"gaussian factorization failed at n={failed_g}"
    elapsed = fig_runs["matern32"]["elapsed"] + fig_runs["gaussian"]["elapsed"]
    ok = matern_ok and gauss_ok and elapsed < 300
    record(4, ok,
           f"matern trace max/min(n>=100) = {max(tail) / min(tail):.3f} <= 2; "
           f"{gauss_detail}; {elapsed:.0f}s")
    assert fig_runs["matern32"]["code"] == 0
    assert matern_ok and gauss_ok and elapsed < 300


def test_criterion_05_membership_dichotomy():
    t0 = time.time()
    design = nested_equispaced_design(0.0, 1.0, 16, 6)  # 16 .. 543
    m32 = matern(1.5)
    x_star = float(design.master.points[0, 0])
    translate = make_target("kernel_translate", {"center": x_star}, m32, UNIT)
    level_sets = [design.level_points(i) for i in range(len(design))]
    rows_a = measure_levels(m32, level_sets, None, translate)
    norms_a = [row["native_norm"] for row in rows_a]
    label_a, _ = classify_norm_growth(rows_a)
    bound = float(np.sqrt(kernel_matrix(m32, [[x_star]], [[x_star]])[0, 0]))
    part_a = label_a == BOUNDED_LIKE and all(v <= bound + 1e-6 for v in norms_a)

    m52 = matern(2.5)
    kink = make_target("abs_power", {"center": 0.5, "power": 1.0}, m52, UNIT)
    rows_b = measure_levels(m52, level_sets, None, kink)
    norms_b = [row["native_norm"] for row in rows_b]
    for X, norm in zip(level_sets, norms_b):
        if len(X) <= 67:
            # independent LU oracle; agreement tolerance tracks the Gram
            # conditioning (about 1e9 at n=16, 1e12 at n=67 for this kernel)
            r = kink(X.points)
            K = assemble_gram(m52, X).entries
            oracle = float(np.sqrt(r @ np.linalg.solve(K, r)))
            rel = 1e-6 if len(X) <= 16 else 1e-4
            assert norm == pytest.approx(oracle, rel=rel)
    label_b, _ = classify_norm_growth(rows_b)
    ratio = norms_b[-1] / norms_b[0]
    part_b = label_b == DIVERGING_LIKE and ratio > 5.0
    elapsed = time.time() - t0
    ok = part_a and part_b and elapsed < 60
    record(5, ok,
           f"translate -> {label_a} (norms <= {bound:.3f}); "
           f"|x-1/2| -> {label_b}, norm ratio {ratio:.0f} > 5; {elapsed:.1f}s")
    assert part_a and part_b and elapsed < 60


def test_criterion_06_l2_escape(escape_run):
    from kinterp.diagnostics import read_report_csv

    rows, _ = read_report_csv(escape_run["csv"])
    l2 = [r["l2_error"] for r in rows]
    nonincreasing = all(b <= a for a, b in zip(l2[-4:], l2[-3:]))
    ratio = l2[-1] / l2[0]
    ok = (escape_run["code"] == 0 and nonincreasing and ratio <= 0.2
          and escape_run["elapsed"] < 60)
    record(6, ok, f"L2 errors non-increasing over last 4 levels, "
                  f"final/initial = {ratio:.3f} <= 0.2, "
                  f"{escape_run['elapsed']:.0f}s")
    assert ok


def test_criterion_07_sup_escape_and_lebesgue_bound(escape_run):
    from kinterp.diagnostics import read_report_csv

    rows, _ = read_report_csv(escape_run["csv"])
    sup = [r["sup_error"] for r in rows]
    ratio = sup[-1] / sup[0]
    lam_tail = [r["lebesgue_constant"] for r in rows if r["n"] >= 64]
    lam_factor = max(lam_tail) / min(lam_tail)
    ok = ratio <= 0.5 and lam_factor <= 2.0
    record(7, ok, f"sup final/initial = {ratio:.3f} <= 0.5; Lebesgue factor "
                  f"over n>=64 = {lam_factor:.3f} <= 2")
    assert ok


# ------------------------------------------------------------ criterion 8

def test_criterion_08_exponential_decay():
    t0 = time.time()
    grid = EvalGrid.tensor(UNIT, 4097)
    bad = []
    for nu in (1.5, 2.5):
        kernel = matern(nu, gamma=10.0)
        rates = []
        for n in (33, 65, 129):
            X = equispaced_interval(0.0, 1.0, n)
            f = decay_profile(kernel, X, (n - 1) // 2, grid, 1.0 / (n + 1))
            rates.append(f.nu_hat)
            if not (f.nu_hat > 0 and f.r_squared >= 0.8):
                bad.append(f"nu={nu} n={n}: rate {f.nu_hat:.3f} r2 {f.r_squared:.2f}")
        if max(rates) / min(rates) >= 2.0:
            bad.append(f"nu={nu}: instability factor {max(rates) / min(rates):.2f}")
    elapsed = time.time() - t0
    ok = not bad and elapsed < 30
    record(8, ok, f"central-node decay fits positive, r2 >= 0.8, stable "
                  f"within factor 2, {elapsed:.1f}s"
           + (f"; {'; '.join(bad)}" if bad else ""))
    assert not bad and elapsed < 30


# ------------------------------------------------------------ criterion 9

def test_criterion_09_geometry_oracles():
    t0 = time.time()
    probe = np.linspace(0.0, 1.0, 10 ** 6 + 1)[:, None]
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 40))
        pts = np.sort(rng.uniform(0.0, 1.0, n))
        while n > 1 and np.diff(pts).min() < 1e-4:
            pts = np.sort(rng.uniform(0.0, 1.0, n))
        X = PointSet(points=pts[:, None], domain=UNIT)
        h_exact = fill_distance_interval(X, 0.0, 1.0)
        h_scan = fill_distance_grid(X, probe)
        worst = max(worst, abs(h_exact - h_scan))
        assert abs(h_exact - h_scan) <= 2e-6
        assert separation_distance(X) <= h_exact + 1e-15
    elapsed = time.time() - t0
    ok = elapsed < 20
    record(9, ok, f"closed form vs 1e6-point scan within 2e-6 "
                  f"(worst {worst:.2e}), q <= h on 100 sets, {elapsed:.1f}s")
    assert elapsed < 20


# ----------------------------------------------------------- criterion 10

def test_criterion_10_determinism(fig_runs, escape_run):
    reruns = []
    for family in ("matern32", "gaussian"):
        cli.main(["run", fig_runs[family]["cfg"]])
        reruns.append(fig_runs[family]["csv"].read_bytes() == fig_runs[family]["bytes"])
    cli.main(["run", escape_run["cfg"]])
    reruns.append(escape_run["csv"].read_bytes() == escape_run["bytes"])
    ok = all(reruns)
    record(10, ok, "rerunning the criterion 4 and 6 configs reproduced "
                   "byte-identical CSVs" if ok else f"mismatches: {reruns}")
    assert ok
