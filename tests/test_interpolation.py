import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinterp.geometry import (
    Box,
    PointSet,
    equispaced_interval,
    generate_candidates,
    nested_equispaced_design,
)
from kinterp.interpolation import (
    FactorizationError,
    Interpolant,
    evaluate,
    factorize,
    fit,
    interpolant_to_csv,
    lagrange,
    lagrange_coefficients,
    native_norm,
)
from kinterp.kernels import GramMatrix, ScratchGram, assemble_gram, interval_sobolev, matern

from conftest import traced_peak

UNIT = Box.interval(0.0, 1.0)


def two_nodes():
    return PointSet(points=[[0.0], [1.0]], domain=Box.interval(-0.5, 1.5))


def closed_form_two_node_solution():
    # K = [[1, e^-1], [e^-1, 1]], r = [1, 0], solved by the 2x2 inverse
    e1 = math.exp(-1.0)
    det = 1.0 - e1 * e1
    return np.array([1.0 / det, -e1 / det])


def test_factorize_identity_one_by_one():
    f = factorize(np.array([[1.0]]))
    assert f.lower[0, 0] == 1.0 and f.jitter == 0.0


def test_factorize_two_by_two_hand_cholesky():
    e1 = math.exp(-1.0)
    K = np.array([[1.0, e1], [e1, 1.0]])
    f = factorize(K)
    assert f.jitter == 0.0
    assert f.lower[0, 0] == pytest.approx(1.0)
    assert f.lower[1, 0] == pytest.approx(e1)
    assert f.lower[1, 1] == pytest.approx(math.sqrt(1.0 - e1 * e1), abs=1e-15)


def test_factorize_reconstruction_residual():
    rng = np.random.default_rng(2)
    X = PointSet(points=np.sort(rng.uniform(0, 1, 40))[:, None], domain=UNIT)
    K = assemble_gram(matern(1.5), X)
    f = factorize(K)
    L = np.tril(f.lower)
    recon = L @ L.T
    target = K.entries + f.jitter * np.eye(40)
    assert np.max(np.abs(recon - target)) <= 1e-10 * np.max(np.abs(K.entries))
    # the factorization keeps K above the factor
    assert np.array_equal(np.triu(f.lower, 1), np.triu(K.entries, 1))


def test_factorize_reports_jitter_or_fails_loudly():
    # 200 near-coincident nodes under a sharp Gaussian: either the ladder
    # records a positive jitter or factorization fails; never silence
    rng = np.random.default_rng(0)
    pts = 0.5 + 1e-6 * rng.uniform(size=(200, 1))
    K = np.exp(-(10.0 * (pts - pts.T)) ** 2)
    K = np.triu(K) + np.triu(K, 1).T
    try:
        f = factorize(K)
        assert f.jitter > 0.0
    except FactorizationError as exc:
        assert "leading minor" in str(exc)


def test_factorize_failure_names_pivot():
    K = np.array([[1.0, 0.0], [0.0, -1.0]])  # indefinite, ladder cannot save it
    with pytest.raises(FactorizationError, match="leading minor") as exc:
        factorize(K)
    assert str(exc.value) == (
        "matrix of order 2 is not positive definite after the jitter ladder "
        "(1e-14, 1e-12, 1e-10, 1e-08): leading minor 2 failed last")
    assert np.array_equal(K, [[1.0, 0.0], [0.0, -1.0]])


def _ladder_reference(A):
    """Reference: each rung factors a fresh A + jitter * I with potrf."""
    from scipy.linalg.lapack import get_lapack_funcs

    from kinterp.interpolation import JITTER_LADDER

    (potrf,) = get_lapack_funcs(("potrf",), (A,))
    scale = float(np.max(np.diag(A)))
    for step in (0.0,) + JITTER_LADDER:
        jitter = step * scale
        c, info = potrf(A + jitter * np.eye(A.shape[0]) if jitter else A,
                        lower=True, clean=True, overwrite_a=False)
        if info == 0:
            return c, step
    return None, None


def _shifted_spectrum(n, shift, seed):
    # symmetric with eigenvalues in [1, 2] and one at -shift: the ladder
    # needs a jitter above shift / max(diag) to factor it
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.linspace(1.0, 2.0, n)
    lam[0] = -shift
    return (Q * lam) @ Q.T


@pytest.mark.parametrize("shift, step", [(-0.5, 0.0), (5e-13, 1e-12),
                                         (3e-11, 1e-10), (3e-9, 1e-8),
                                         (1e-6, None)])
def test_factorize_equals_fresh_jittered_potrf_at_every_rung(shift, step):
    A = _shifted_spectrum(40, shift, seed=3)
    before = A.copy()
    ref, ref_step = _ladder_reference(A)
    assert ref_step == step
    if step is None:
        with pytest.raises(FactorizationError):
            factorize(A)
    else:
        f = factorize(A)
        assert f.jitter_step == step
        assert np.array_equal(np.tril(f.lower), ref)
        # K, read from A's lower triangle, is kept above the factor
        assert np.array_equal(np.triu(f.lower, 1), np.triu(A.T, 1))
    assert np.array_equal(A, before)


def test_factorize_nested_matern52_escalation_bit_equal():
    # n = 1087 nested equispaced Matern 5/2 fails at 0 and 1e-14 and
    # factors at 1e-12
    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    gram = assemble_gram(matern(2.5), X)
    before = gram.entries.copy()
    f = factorize(gram)
    ref, ref_step = _ladder_reference(gram.entries)
    assert f.jitter_step == ref_step == 1e-12
    assert f.jitter == 1e-12 * 3.0
    assert np.array_equal(np.tril(f.lower), ref)
    assert np.array_equal(np.triu(f.lower, 1), np.triu(gram.entries, 1))
    assert np.array_equal(gram.entries, before)


def test_gram_and_factor_hold_at_most_two_dense_arrays():
    # traced peaks at n = 1087: the Gram plus a few row tiles while it is
    # assembled, the Gram plus one work array while it is factored
    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    dense = 8 * len(X) ** 2
    gram, gram_peak = traced_peak(assemble_gram, matern(2.5), X)
    f, factor_peak = traced_peak(factorize, gram)
    factor_peak += gram.entries.nbytes  # the Gram is held throughout
    assert f.jitter_step == 1e-12
    # the messages give each peak in dense n x n arrays
    assert gram_peak <= 2.0 * dense, f"assembly peak {gram_peak / dense:.3f} > 2.0"
    assert factor_peak <= 2.1 * dense, f"factorization peak {factor_peak / dense:.3f} > 2.1"


def test_factorize_plain_array_reads_only_lower_triangle():
    # NaN above the diagonal of a plain array must not reach the factor, so
    # only GramMatrix input, symmetric to the last bit, may be read through
    # its transpose
    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    gram = assemble_gram(matern(2.5), X)
    A = gram.entries.copy()
    A[np.triu_indices(len(X), 1)] = np.nan
    f, ref = factorize(A), factorize(gram)
    assert f.jitter_step == ref.jitter_step == 1e-12
    assert np.array_equal(f.lower, ref.lower)
    for shift in (-0.5, 5e-13, 3e-11, 3e-9):
        S = _shifted_spectrum(40, shift, seed=3)
        A = S.copy()
        A[np.triu_indices(40, 1)] = np.nan
        f, ref = factorize(A), factorize(S)
        assert f.jitter_step == ref.jitter_step
        assert np.array_equal(f.lower, ref.lower)


def _fresh_interpreter(code: str) -> str:
    """Run code in a new interpreter that imports kinterp from this
    checkout, and return what it prints."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_lapack_loads_without_scipy_linalg():
    # scipy.linalg's package init would import numpy.f2py, numpy.testing and
    # the array-API shims: about 0.3 s and 24 MB of every run's start-up; the
    # scipy package's own init adds 10 scipy modules and subprocess
    out = _fresh_interpreter(
        "import sys\n"
        "import numpy as np\n"
        "import kinterp\n"
        "f = kinterp.factorize(np.array([[4.0, 2.0], [2.0, 5.0]]))\n"
        "print(*f.solve(np.array([8.0, 12.0])), 'scipy.linalg' in sys.modules,\n"
        "      'scipy.linalg._flapack' in sys.modules, 'scipy' in sys.modules,\n"
        "      'subprocess' in sys.modules)\n")
    assert out.split() == ["1.0", "2.0", "False", "True", "False", "False"]


def test_2d_levels_load_no_scipy_spatial():
    # duplicate checks and fill distances are numpy sweeps: scipy.spatial
    # would also load scipy.sparse and scipy.linalg, about 0.4 s and 32 MB
    out = _fresh_interpreter(
        "import sys\n"
        "import kinterp\n"
        "box = kinterp.Box(lower=(0.0, 0.0), upper=(1.0, 1.0))\n"
        "pool = kinterp.generate_candidates(box, 400, 'low_discrepancy')\n"
        "design = kinterp.geometric_greedy(pool, 20, 0, (10, 20))\n"
        "rows = kinterp.measure_levels(kinterp.matern(1.5, gamma=5.0, dim=2),\n"
        "                              [design.level_points(i) for i in range(2)],\n"
        "                              kinterp.EvalGrid.tensor(box, 33), lebesgue=True)\n"
        "print(all(r['h'] > 0 for r in rows),\n"
        "      *(m in sys.modules for m in ('scipy.spatial', 'scipy.sparse', 'scipy.linalg',\n"
        "                                   'scipy')))\n")
    assert out.split() == ["True", "False", "False", "False", "False"]


def test_lapack_routines_are_scipys_own():
    # a later import of scipy and scipy.linalg runs their inits then and
    # reuses the loaded module, so kinterp calls the very objects
    # get_lapack_funcs returns
    out = _fresh_interpreter(
        "import numpy as np\n"
        "from kinterp import interpolation\n"
        "import scipy\n"
        "import scipy.linalg\n"
        "from scipy.linalg import get_lapack_funcs\n"
        "potrf, trtrs = get_lapack_funcs(('potrf', 'trtrs'), (np.zeros((2, 2)),))\n"
        "print(potrf is interpolation._flapack.dpotrf, trtrs is interpolation._flapack.dtrtrs,\n"
        "      scipy.linalg.lapack._flapack is interpolation._flapack)\n")
    assert out.split() == ["True", "True", "True"]


def test_inverse_bit_equal_to_identity_solve():
    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    n = len(X)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the residual warning is not tested here
        C, fact = lagrange_coefficients(matern(1.5), X)
    assert np.array_equal(C, fact.solve(np.eye(n)))
    # a jittered factor: nested Matern 5/2 factors at the 1e-12 rung
    fact = factorize(assemble_gram(matern(2.5), X))
    assert fact.jitter_step == 1e-12
    assert np.array_equal(fact.inverse(), fact.solve(np.eye(n)))


def test_solve_bit_equal_to_triangular_pair_without_dense_temporaries():
    import scipy.linalg as sla

    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    n = len(X)
    fact = factorize(assemble_gram(matern(2.5), X))
    rng = np.random.default_rng(2)
    for rhs in (rng.normal(size=n), rng.normal(size=(n, 3))):
        before = rhs.copy()
        y = sla.solve_triangular(fact.lower, rhs, lower=True)
        ref = sla.solve_triangular(fact.lower.T, y, lower=False)
        x, peak = traced_peak(fact.solve, rhs)
        assert np.array_equal(x, ref) and x.shape == rhs.shape
        assert np.array_equal(rhs, before)
        # a few right-hand-side copies; no n x n array, not even a bool one
        assert peak <= 4 * rhs.nbytes + 4096


def test_lagrange_coefficients_peak_under_three_dense_arrays():
    # the handed-over Gram is factored in place; then the factor, C and the
    # residual K C - I, formed from the kept K a strip of rows at a time
    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    dense = 8 * len(X) ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the residual warning of this cell
        (C, fact), peak = traced_peak(lagrange_coefficients, matern(1.5), X)
    assert peak <= 2.9 * dense, f"lagrange_coefficients peak {peak / dense:.3f} > 2.9"
    assert np.array_equal(C, fact.solve(np.eye(len(X))))


def test_lebesgue_level_holds_at_most_the_factor_and_one_dense_array():
    # one Lebesgue level with a target at n = 1087: the handed-over Gram is
    # factored in place, then the factor, which keeps K for the fit's
    # residual, and the cardinal matrix
    from kinterp.diagnostics import _fit_level

    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    dense = 8 * len(X) ** 2
    levels = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the jittered fit's residual warning
        row, peak = traced_peak(_fit_level, matern(2.5), X,
                                lambda p: np.abs(p[:, 0] - 0.5), True, True, levels)
    ((_, _, C),) = levels
    assert row["jitter_flag"] == "1e-12"
    assert C.shape == (len(X), len(X))
    assert peak <= 2.2 * dense


def _symmetric_gram(A):
    # the lower triangle mirrored up: symmetric to the last bit, as every
    # GramMatrix is
    return GramMatrix(entries=np.tril(A) + np.tril(A, -1).T)


def _handed_over_cases():
    # (gram, rung) for nested Matern 5/2 (0 -> 1e-14 -> 1e-12), nested
    # Matern 3/2 (rung 0, five strips) and Gram-like matrices for the
    # 1e-12, 1e-10 and 1e-8 rungs
    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    yield assemble_gram(matern(2.5), X), 1e-12
    yield assemble_gram(matern(1.5), X), 0.0
    for shift, step in ((5e-13, 1e-12), (3e-11, 1e-10), (3e-9, 1e-8)):
        yield _symmetric_gram(_shifted_spectrum(40, shift, seed=3)), step


def test_handed_over_factor_equals_the_copied_factor():
    for gram, step in _handed_over_cases():
        n = gram.order
        ref = factorize(gram)
        buffer = gram.entries.copy()
        f = factorize(ScratchGram(entries=buffer))
        assert f.jitter_step == ref.jitter_step == step
        assert f.jitter == ref.jitter
        # both keep K's strict upper triangle above the factor and K's
        # diagonal; only the handed-over one in the buffer itself
        assert np.array_equal(f.lower, ref.lower)
        assert np.array_equal(f.gram_diagonal, ref.gram_diagonal)
        assert np.shares_memory(f.lower, buffer)
        assert not np.shares_memory(ref.lower, gram.entries)
        upper = np.triu_indices(n, 1)
        assert np.array_equal(f.lower[upper], gram.entries[upper])
        assert np.array_equal(f.gram_diagonal, np.diag(gram.entries))


def test_restore_after_a_failed_rung_gives_the_gram_back(tile_workers):
    # nested Matern 5/2 at n = 1087 fails its first rung; the mirror that
    # resets the buffer runs serially and on three tile workers
    from kinterp.interpolation import _flapack, _restore_gram

    K = assemble_gram(matern(2.5), nested_equispaced_design(0.0, 1.0, 16, 7).master).entries
    for count in (1, 3):
        tile_workers(count)
        buffer = K.copy()
        A = buffer.T  # the handed-over view that factorize works in
        diagonal = A.diagonal().copy()
        _, info = _flapack.dpotrf(A, lower=True, clean=False, overwrite_a=True)
        assert info > 0
        _restore_gram(A, diagonal)
        assert np.array_equal(buffer.view(np.uint64), K.view(np.uint64))


def test_handed_over_exhausted_ladder_gives_the_same_message():
    gram = _symmetric_gram(_shifted_spectrum(40, 1e-6, seed=3))
    with pytest.raises(FactorizationError) as ref:
        factorize(gram)
    with pytest.raises(FactorizationError) as exc:
        factorize(ScratchGram(entries=gram.entries.copy()))
    assert str(exc.value) == str(ref.value)
    assert "leading minor" in str(exc.value)


def test_handed_over_solve_and_inverse_bit_equal():
    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    gram = assemble_gram(matern(2.5), X)
    ref = factorize(gram)
    f = factorize(ScratchGram(entries=gram.entries.copy()))
    assert f.jitter_step == 1e-12
    rng = np.random.default_rng(5)
    for rhs in (rng.normal(size=len(X)), rng.normal(size=(len(X), 3))):
        assert np.array_equal(f.solve(rhs), ref.solve(rhs))
    assert np.array_equal(f.inverse(), ref.inverse())


def _gram_cases():
    # Matern in 1-d (jittered: two rung resets first) and 2-d, and w21,
    # whose diagonal is not constant
    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    yield matern(2.5), X
    yield matern(1.5, dim=2), generate_candidates(Box.unit_cube(2), 700, "low_discrepancy")
    yield interval_sobolev(0.0, 1.0), X


def test_fit_leaves_the_factorization_unchanged():
    # the residual reads the kept K and writes nothing; a handed-over and a
    # copied factorization hold the same bits, so their fits are bit-equal
    rng = np.random.default_rng(8)
    for kernel, X in _gram_cases():
        gram = assemble_gram(kernel, X)
        r = rng.normal(size=len(X))
        f = factorize(ScratchGram(entries=gram.entries.copy()))
        lower, diagonal = f.lower.copy(), f.gram_diagonal.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the jittered fit's residual warning
            s = fit(kernel, X, r, factorization=f)
            ref = fit(kernel, X, r, factorization=factorize(gram))
        assert np.array_equal(f.lower.view(np.uint64), lower.view(np.uint64))
        assert np.array_equal(f.gram_diagonal, diagonal)
        assert np.array_equal(s.coefficients, ref.coefficients)
        assert s.residual_inf == ref.residual_inf


def test_refits_and_inverse_after_a_fit_are_bit_equal():
    # Matern 3/2, gamma 5, n = 50: a second fit with the factorization that
    # lagrange_coefficients returns, or with a handed-over one, and the
    # inverse after it, give the bits of the first fit and of C
    kernel = matern(1.5, gamma=5.0)
    X = equispaced_interval(0, 1, 50)
    r = np.sin(7.0 * X.points[:, 0])
    C, from_cardinals = lagrange_coefficients(kernel, X)
    handed_over = factorize(ScratchGram(entries=assemble_gram(kernel, X).entries))
    for fact in (from_cardinals, handed_over):
        lower = fact.lower.copy()
        first = fit(kernel, X, r, factorization=fact)
        second = fit(kernel, X, r, factorization=fact)
        assert np.array_equal(second.coefficients, first.coefficients)
        assert second.residual_inf == first.residual_inf
        assert np.array_equal(fact.inverse(), C)
        assert np.array_equal(fact.lower.view(np.uint64), lower.view(np.uint64))


def test_fit_hands_its_own_gram_over(monkeypatch):
    import kinterp.interpolation as interpolation

    seen = []
    factorize_ = interpolation.factorize

    def spy(K):
        seen.append(type(K))
        return factorize_(K)

    monkeypatch.setattr(interpolation, "factorize", spy)
    rng = np.random.default_rng(9)
    for kernel, X in _gram_cases():
        gram = assemble_gram(kernel, X)
        r = rng.normal(size=len(X))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = fit(kernel, X, r)
            ref = fit(kernel, X, r, factorization=factorize_(gram))
        assert np.array_equal(s.coefficients, ref.coefficients)
        assert s.residual_inf == ref.residual_inf and s.jitter == ref.jitter
    assert seen == [ScratchGram] * 3


def test_norm_growth_level_holds_one_dense_array():
    # one norm-growth level at n = 1087 (no Lebesgue matrix): the Gram is
    # assembled in strips and factored in its own buffer, which keeps K for
    # the residual, with no second n x n array at any time
    from kinterp.diagnostics import _fit_level

    X = nested_equispaced_design(0.0, 1.0, 16, 7).master
    dense = 8 * len(X) ** 2
    levels = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the jittered fit's residual warning
        row, peak = traced_peak(_fit_level, matern(2.5), X,
                                lambda p: np.abs(p[:, 0] - 0.5), False, True, levels)
    ((_, alpha, C),) = levels
    assert row["jitter_flag"] == "1e-12" and C is None and alpha.shape == (len(X),)
    assert peak <= 1.8 * dense, f"norm-growth level peak {peak / dense:.3f} > 1.8"


def test_fit_single_node_constant():
    X = PointSet(points=[[0.0]], domain=UNIT)
    s = fit(matern(0.5), X, [2.0])
    assert s.coefficients[0] == pytest.approx(2.0)


def test_fit_two_nodes_closed_form():
    s = fit(matern(0.5), two_nodes(), [1.0, 0.0])
    assert np.allclose(s.coefficients, closed_form_two_node_solution(), rtol=1e-14)


def test_fit_gram_column_gives_basis_vector():
    rng = np.random.default_rng(4)
    X = PointSet(points=np.sort(rng.uniform(0, 1, 8))[:, None], domain=UNIT)
    K = assemble_gram(matern(1.5), X)
    for i in (0, 3, 7):
        s = fit(matern(1.5), X, K.entries[:, i])
        e = np.zeros(8)
        e[i] = 1.0
        assert np.allclose(s.coefficients, e, atol=1e-9)


def test_fit_residual_invariant():
    # quasi-uniform nodes keep the Gram conditioning moderate, where the
    # 1e-8 relative residual contract is meaningful
    rng = np.random.default_rng(10)
    X = equispaced_interval(0, 1, 50)
    r = rng.standard_normal(50)
    s = fit(matern(1.5), X, r)
    K = assemble_gram(matern(1.5), X).entries
    assert np.max(np.abs(K @ s.coefficients - r)) <= 1e-8 * np.max(np.abs(r))
    assert s.residual_inf <= 1e-8 * np.max(np.abs(r))


def test_non_finite_data_give_a_nan_residual_and_a_warning():
    # |x - 0.5|^-0.5 is infinite at the middle node: every coefficient is
    # nan, and so is the residual, which a strip-wise max must not drop
    X = equispaced_interval(0, 1, 9)
    with np.errstate(divide="ignore"):
        r = np.abs(X.points[:, 0] - 0.5) ** -0.5
    with pytest.warns(UserWarning, match="interpolation residual nan"):
        s = fit(matern(1.5), X, r)
    assert np.isnan(s.coefficients).all() and np.isnan(s.residual_inf)


def test_fit_wrong_length_rejected():
    with pytest.raises(ValueError):
        fit(matern(0.5), two_nodes(), [1.0])


def test_fit_names_the_given_and_the_expected_data_shape():
    # a column of 5 values for 5 nodes once read "got 5 values for 5 nodes"
    X = equispaced_interval(0, 1, 5)
    with pytest.raises(ValueError, match=r"^data of shape \(5, 1\) for 5 nodes: expected \(5,\)$"):
        fit(matern(1.5), X, np.ones((5, 1)))


def test_evaluate_at_nodes_reproduces_data():
    rng = np.random.default_rng(12)
    X = equispaced_interval(0, 1, 30)
    r = rng.standard_normal(30)
    s = fit(matern(1.5), X, r)
    vals = evaluate(s, X.points)
    assert np.max(np.abs(vals - r)) <= 1e-6 * (1 + np.max(np.abs(r)))


def test_evaluate_zero_coefficients():
    X = two_nodes()
    s = fit(matern(0.5), X, [0.0, 0.0])
    assert np.all(evaluate(s, [[0.3], [0.7]]) == 0.0)


def test_evaluate_midpoint_closed_form():
    s = fit(matern(0.5), two_nodes(), [1.0, 0.0])
    a = closed_form_two_node_solution()
    expect = (a[0] + a[1]) * math.exp(-0.5)
    assert evaluate(s, [[0.5]])[0] == pytest.approx(expect, rel=1e-12)


def test_evaluate_batch_bit_equal_to_pointwise():
    from kinterp.geometry import generate_candidates

    rng = np.random.default_rng(6)
    X = generate_candidates(Box.unit_cube(2), 37, "low_discrepancy")
    s = fit(matern(2.5, gamma=3.0, dim=2), X, rng.standard_normal(37))
    pts = rng.uniform(size=(101, 2))
    batch = evaluate(s, pts)
    single = np.array([evaluate(s, [p])[0] for p in pts])
    assert np.array_equal(batch, single)


def test_lagrange_cardinality():
    X = equispaced_interval(0, 1, 20)
    for i in (0, 9, 19):
        li = lagrange(matern(1.5), X, i)
        vals = evaluate(li, X.points)
        expect = np.zeros(20)
        expect[i] = 1.0
        assert np.max(np.abs(vals - expect)) <= 1e-6


def test_lagrange_single_node_is_normalized_kernel():
    X = PointSet(points=[[0.4]], domain=UNIT)
    li = lagrange(matern(2.5), X, 0)
    xs = np.linspace(0, 1, 11)[:, None]
    vals = evaluate(li, xs)
    direct = (3 + 3 * np.abs(xs[:, 0] - 0.4) + (xs[:, 0] - 0.4) ** 2) \
        * np.exp(-np.abs(xs[:, 0] - 0.4)) / 3.0
    assert np.allclose(vals, direct, rtol=1e-13)
    assert np.all(vals > 0)


def test_lagrange_form_matches_direct_fit():
    # sum_i f(x_i) l_i(x) equals the fitted interpolant pointwise
    rng = np.random.default_rng(3)
    X = equispaced_interval(0, 1, 25)
    fvals = np.sin(2 * np.pi * X.points[:, 0]) + 0.3 * X.points[:, 0]
    s = fit(matern(1.5), X, fvals)
    C, _ = lagrange_coefficients(matern(1.5), X)
    pts = rng.uniform(size=(100, 1))
    direct = evaluate(s, pts)
    from kinterp.kernels import kernel_matrix

    lagrange_vals = kernel_matrix(matern(1.5), pts, X.points) @ C  # l_i(x) columns
    combo = lagrange_vals @ fvals
    assert np.max(np.abs(combo - direct)) <= 1e-8 * (1 + np.max(np.abs(direct)))


def test_lagrange_matrix_matches_individual_fits():
    X = equispaced_interval(0, 1, 12)
    C, fact = lagrange_coefficients(matern(2.5), X)
    assert fact.jitter == 0.0
    for i in range(0, 12, 5):
        li = lagrange(matern(2.5), X, i)
        assert np.allclose(C[:, i], li.coefficients, atol=1e-9)


def test_lagrange_coefficients_warns_on_cardinal_residual():
    # Matern 5/2, gamma=1 on 200 equispaced nodes: kappa ~ 1e16, so
    # max|K C - I| is about 2e-2 and must not pass silently
    X = equispaced_interval(0, 1, 200)
    with pytest.warns(UserWarning, match="cardinal residual"):
        C, fact = lagrange_coefficients(matern(2.5), X)
    assert np.array_equal(C, fact.solve(np.eye(200)))

    # well-conditioned cell (residual about 6e-14): no warning, same C
    X = equispaced_interval(0, 1, 33)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C, fact = lagrange_coefficients(matern(1.5, gamma=10.0), X)
    assert np.array_equal(C, fact.solve(np.eye(33)))


def test_lagrange_index_out_of_range():
    with pytest.raises(IndexError):
        lagrange(matern(0.5), two_nodes(), 5)


def test_native_norm_single_node():
    X = PointSet(points=[[0.0]], domain=UNIT)
    s = fit(matern(0.5), X, [2.0])
    assert native_norm(s) == pytest.approx(2.0)


def test_native_norm_two_nodes_closed_form():
    s = fit(matern(0.5), two_nodes(), [1.0, 0.0])
    a = closed_form_two_node_solution()
    assert native_norm(s) == pytest.approx(math.sqrt(a[0]), rel=1e-12)
    assert native_norm(s) == pytest.approx(1.07542, abs=5e-6)


def test_native_norm_quadratic_form_identity():
    rng = np.random.default_rng(14)
    X = equispaced_interval(0, 1, 60)
    K = assemble_gram(matern(1.5), X).entries
    for _ in range(5):
        r = rng.standard_normal(60)
        s = fit(matern(1.5), X, r)
        viaK = float(s.coefficients @ K @ s.coefficients)
        viaR = float(s.data @ s.coefficients)
        assert viaK == pytest.approx(viaR, rel=1e-8)


def test_nested_norm_monotone():
    design = nested_equispaced_design(0, 1, 8, 5)
    f = lambda x: np.abs(x[:, 0] - 0.4) ** 0.7
    norms = []
    for i in range(len(design)):
        X = design.level_points(i)
        norms.append(native_norm(fit(matern(1.5), X, f(X.points))))
    for a, b in zip(norms, norms[1:]):
        assert b >= a * (1 - 1e-8)


def test_pythagoras_identity():
    # ||s_m||^2 - ||s_n||^2 = ||s_m - s_n||^2 for nested levels
    design = nested_equispaced_design(0, 1, 16, 2)
    f = lambda x: np.sin(3 * x[:, 0]) + x[:, 0] ** 2
    Xn, Xm = design.level_points(0), design.level_points(1)
    sn = fit(matern(1.5), Xn, f(Xn.points))
    sm = fit(matern(1.5), Xm, f(Xm.points))
    diff_data = evaluate(sm, Xm.points) - evaluate(sn, Xm.points)
    sdiff = fit(matern(1.5), Xm, diff_data)
    lhs = native_norm(sm) ** 2 - native_norm(sn) ** 2
    rhs = native_norm(sdiff) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_minimality_under_feasible_set_containment():
    design = nested_equispaced_design(0, 1, 8, 3)
    f = lambda x: np.cos(2 * x[:, 0])
    norms = [native_norm(fit(matern(2.5), design.level_points(i),
                             f(design.level_points(i).points)))
             for i in range(3)]
    assert norms[0] <= norms[1] * (1 + 1e-10) <= norms[2] * (1 + 2e-10)


def test_linearity_exact_power_of_two_scaling():
    X = equispaced_interval(0, 1, 17)
    gram = assemble_gram(matern(1.5), X)
    fact = factorize(gram)
    rng = np.random.default_rng(9)
    r = rng.standard_normal(17)
    s1 = fit(matern(1.5), X, r, factorization=fact)
    s2 = fit(matern(1.5), X, 4.0 * r, factorization=fact)
    # scaling by a power of two is exact in floating point
    assert np.array_equal(s2.coefficients, 4.0 * s1.coefficients)


def test_linearity_general_combination():
    X = equispaced_interval(0, 1, 17)
    gram = assemble_gram(matern(1.5), X)
    fact = factorize(gram)
    rng = np.random.default_rng(19)
    r1, r2 = rng.standard_normal(17), rng.standard_normal(17)
    a, b = 0.37, -1.2
    s1 = fit(matern(1.5), X, r1, factorization=fact)
    s2 = fit(matern(1.5), X, r2, factorization=fact)
    s3 = fit(matern(1.5), X, a * r1 + b * r2, factorization=fact)
    combo = a * s1.coefficients + b * s2.coefficients
    scale = np.max(np.abs(combo))
    assert np.max(np.abs(s3.coefficients - combo)) <= 1e-12 * scale


@given(st.integers(min_value=2, max_value=30))
@settings(max_examples=20, deadline=None)
def test_native_norm_nonnegative(n):
    rng = np.random.default_rng(n)
    X = equispaced_interval(0, 1, n)
    r = rng.standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = fit(matern(0.5), X, r)
        assert native_norm(s) >= 0.0


def _interpolant_from_csv(path, kernel, domain) -> Interpolant:
    # oracle of the round trip: reads what interpolant_to_csv writes
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    body = rows[1:]
    dim = len(rows[0]) - 2
    pts = np.array([[float(v) for v in r[:dim]] for r in body])
    data = np.array([float(r[dim]) for r in body])
    coef = np.array([float(r[dim + 1]) for r in body])
    X = PointSet(points=pts, domain=domain)
    return Interpolant(kernel=kernel, nodes=X, coefficients=coef, data=data)


def test_interpolant_csv_roundtrip(tmp_path):
    X = equispaced_interval(0, 1, 5)
    s = fit(matern(1.5), X, [1.0, -2.0, 0.5, 0.0, 3.25])
    path = tmp_path / "interp.csv"
    interpolant_to_csv(s, path)
    loaded = _interpolant_from_csv(path, matern(1.5), UNIT)
    assert np.array_equal(loaded.coefficients, s.coefficients)
    assert np.array_equal(loaded.data, s.data)
    assert np.array_equal(loaded.nodes.points, s.nodes.points)


# The modules whose public functions and methods the benchmark's span tracer
# (perfbench/tracer.py) wraps. Its span of a call closes when the call
# returns, so a generator's work would be charged to whoever iterates it.
_TRACED_MODULES = ("kernels", "geometry", "interpolation", "diagnostics", "svg", "cli")


def test_no_traced_public_function_is_a_generator():
    import importlib
    import inspect

    generators = []
    for short in _TRACED_MODULES:
        module = importlib.import_module(f"kinterp.{short}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                members = {attr: obj}
            elif inspect.isclass(obj):  # methods, static and class methods included
                members = {f"{attr}.{name}": getattr(raw, "__func__", raw)
                           for name, raw in vars(obj).items() if not name.startswith("_")}
            else:
                continue
            generators += [f"{short}.{name}" for name, fn in members.items()
                           if inspect.isgeneratorfunction(fn)]
    assert generators == []


def test_only_kernels_drives_the_tile_pool(monkeypatch, tile_workers):
    # The grid scan's blocks are the tasks of one pool round: each worker
    # fills its own blocks in its own tiles and forms their cardinal and
    # fitted-value sums, so the scan makes one round however many blocks
    # and levels it has.
    import importlib
    import pkgutil

    import kinterp
    from kinterp import interpolation, kernels
    from kinterp.geometry import EvalGrid, geometric_greedy

    binders = []
    for info in pkgutil.iter_modules(kinterp.__path__):
        module = importlib.import_module(f"kinterp.{info.name}")
        if info.name != "kernels":
            binders += [f"{info.name}.{attr}" for attr in ("_pool", "_tile_pool")
                        if attr in vars(module)]
    assert binders == []

    # 100 node columns: SCAN_BYTES holds 10 lines of 129, so 129^2 points
    # make 12 blocks of 10 lines and one of 9 lines (1161 rows); at n >= 60
    # every product, fitted-value block and fill spans 2+ tiles
    box = Box.unit_cube(2)
    kernel = matern(1.5, gamma=5.0, dim=2)
    design = geometric_greedy(generate_candidates(box, 400, "low_discrepancy"), 100, 0,
                              (60, 80, 100))
    sets = [design.level_points(k) for k in range(3)]
    levels = [(X, None, lagrange_coefficients(kernel, X)[0]) for X in sets]
    top = sets[-1]
    levels.append((top, fit(kernel, top, np.sin(3 * top.points[:, 0])).coefficients, None))
    grid = EvalGrid.tensor(box, 129)
    assert interpolation.SCAN_BYTES // (8 * 100 * 129) == 10
    assert 1161 * 60 * 8 > kernels.TILE_BYTES
    tile_workers(2)
    pool, rounds, fills = kernels._tile_pool, [], []
    fill = interpolation._fill
    monkeypatch.setattr(kernels, "_tile_pool", lambda: rounds.append(1) or pool())
    monkeypatch.setattr(interpolation, "_fill",
                        lambda *args, pooled, scratch=None:
                        fills.append(pooled) or fill(*args, pooled=pooled, scratch=scratch))
    interpolation._scan_levels(kernel, levels, grid)
    assert len(rounds) == 1
    assert fills == [False] * -(-len(grid) // (10 * 129)) == [False] * 13
