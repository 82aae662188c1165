"""The row fold, the spectral core through the catalog's eigenvalue
handles, certify's finite-difference stencils, and gamma."""

import functools
import math

import numpy as np
import pytest

from conecheck import catalog, checkers, numkernel as nk
from conecheck.cones import Point, Rng, full_space, psd_cone, sample_batch
from conecheck.diffops import FunctionHandle, _derivative
from conecheck.errors import DomainError


def _hessians(handle, pts):
    """Every entry of the central-difference Hessian at each point, from the
    certificates' ``hessian-nonneg[ij=i,j]`` forms."""
    n = pts.shape[1]
    rows = [[checkers._form(f"hessian-nonneg[ij={i},{j}]")(handle, {"p": pts})[0]
             for j in range(n)] for i in range(n)]
    return np.array(rows).transpose(2, 0, 1)


def _rand_sym(rng, n):
    a = rng.normal(size=(n, n))
    return a + a.T


def _handle(entry_id, **kw):
    return catalog.instantiate(entry_id, **kw)


def test_det_examples_and_cross_checks():
    det2, det3 = _handle("det", dim=2), _handle("det", dim=3)
    assert det2(Point.matrix(np.diag([2.0, 3.0]))) == pytest.approx(6.0)
    rng = np.random.default_rng(3)
    for n, det in ((2, det2), (3, det3)):
        logdet = _handle("logdet", dim=n)
        for _ in range(50):
            # det has no domain rule in batch: symmetric indefinite rows are fine
            a = _rand_sym(rng, n)
            if n == 2:
                cof = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            else:
                cof = (
                    a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
                    - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
                    + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
                )
            assert det.batch(a[None])[0] == pytest.approx(cof, rel=1e-9, abs=1e-9)
            pd = Point.matrix(a @ a.T + 0.1 * np.eye(n))
            assert det(pd) == pytest.approx(math.exp(logdet(pd)), rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_is_within_1e_12_of_lapack_on_positive_definite_rows(n):
    """On 2^14 sums of two PSD draws, the rows a strong-superadditivity
    trial evaluates at ``x + y``."""
    cone = psd_cone(n)
    rows = sample_batch(cone, Rng(61, n), 2 ** 14) + sample_batch(cone, Rng(62, n), 2 ** 14)
    want = np.linalg.det(rows)
    assert np.all(np.abs(nk.det(rows) - want) <= 1e-12 * want)


def test_det_is_as_accurate_as_lapack_on_ill_conditioned_draws():
    """Single draws of order 5 reach condition numbers near 1e11; elimination
    is backward stable there, so its error against the exact determinant
    stays within ``10 n cond(A) eps``."""
    from fractions import Fraction

    def exact(m):
        a = [[Fraction(v) for v in row] for row in m.tolist()]
        out = Fraction(1)
        for k in range(len(a)):
            out *= a[k][k]
            for i in range(k + 1, len(a)):
                r = a[i][k] / a[k][k]
                a[i] = [a[i][j] - r * a[k][j] for j in range(len(a))]
        return out

    rows = sample_batch(psd_cone(5), Rng(3, 5), 2 ** 12)
    got, cond = nk.det(rows), np.linalg.cond(rows)
    for t in np.argsort(cond)[-64:]:
        e = exact(rows[t])
        assert abs(Fraction(float(got[t])) - e) <= 10 * 5 * cond[t] * 2.0 ** -52 * e, t


def _redo_rows():
    """Rows whose elimination meets a pivot that is zero, negative or not
    finite: the zero matrix, rank one and rank two, indefinite, and NaN,
    +inf or -inf on and off the diagonal."""
    v, u = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0])
    rows = [np.zeros((3, 3)), np.outer(v, v), np.outer(v, v) + np.outer(u, u),
            np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), -np.eye(3)]
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (2, 2), (1, 0), (2, 1)):
            a = np.eye(3) + 0.25
            a[i, j] = a[j, i] = bad
            rows.append(a)
    return np.stack(rows)


def test_det_takes_lapack_bit_for_bit_on_redo_rows():
    rows = _redo_rows()
    with np.errstate(invalid="ignore"):
        want = np.linalg.det(rows)
        assert np.array_equal(nk.det(rows), want, equal_nan=True)
        for row, w in zip(rows, want):
            assert np.array_equal(nk.det(row[None]), [w], equal_nan=True)


def test_det_gives_a_row_the_same_bits_alone_and_in_a_block_at_order_5():
    """Draws, sums of draws and redo rows mixed in one block, through the
    catalog's ``det`` handle as a check evaluates them."""
    cone = psd_cone(5)
    x, y = sample_batch(cone, Rng(71, 0), 300), sample_batch(cone, Rng(72, 0), 300)
    redo = np.zeros((len(_redo_rows()), 5, 5))
    redo[:, :3, :3] = _redo_rows()
    rows = np.concatenate([x, x + y, redo])
    handle = _handle("det", dim=5)
    with np.errstate(invalid="ignore"):
        block = handle.batch(rows)
        one = np.array([handle.batch(r[None])[0] for r in rows])
    assert block.tobytes() == one.tobytes()


def test_log_det_and_entropy():
    logdet = _handle("logdet", dim=2)
    assert logdet(Point.matrix(np.diag([2.0, 3.0]))) == pytest.approx(math.log(6.0))
    with pytest.raises(DomainError):
        logdet(Point.matrix(np.diag([1.0, 0.0])))
    vn = _handle("vn-entropy", dim=2)
    assert vn(Point.matrix(np.diag([0.5, 0.5]))) == pytest.approx(math.log(2.0))
    assert vn(Point.matrix(np.diag([1.0, 0.0]))) == pytest.approx(0.0)
    with pytest.raises(DomainError):
        vn(Point.matrix(np.diag([1.0, -1e-6])))


def test_trace_pow():
    def trace_pow(a, p):
        return _handle("trace-pow", params={"p": p}, dim=2)(Point.matrix(a))

    assert trace_pow(np.diag([4.0, 9.0]), 0.5) == pytest.approx(5.0)
    assert trace_pow(np.diag([2.0, 3.0]), 1.0) == pytest.approx(5.0)
    # 0^p := 0, so p = 0 counts strictly positive eigenvalues
    assert trace_pow(np.diag([2.0, 0.0]), 0.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        trace_pow(np.diag([1.0, -0.5]), 0.5)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_eigenvalues(n):
    rng = np.random.default_rng(n)
    g = rng.normal(size=(500, n, n))
    rows = g @ np.swapaxes(g, 1, 2) + 0.1 * np.eye(n)
    w, ref = nk._closed_form_eigvals(rows), np.linalg.eigvalsh(rows)
    assert np.all(np.abs(w - ref) <= 1e-12 * ref[:, -1:])
    if n == 3:
        # near-repeated eigenvalues, c*I and 0 are left to eigvalsh
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        near = q @ np.diag([1.0, 2.0, 2.0 + 1e-9]) @ q.T
        rows = np.stack([0.5 * (near + near.T), 3.0 * np.eye(3), np.zeros((3, 3))])
        assert np.all(np.isnan(nk._closed_form_eigvals(rows)))


def test_non_finite_rows_give_domain_errors():
    nan_below = np.eye(3)
    nan_below[2, 0] = nan_below[0, 2] = np.nan
    for a in (nan_below, np.diag([np.nan, 1.0, 2.0])):
        with pytest.raises(DomainError):
            _handle("vn-entropy", dim=3)(Point.matrix(a))
    assert np.isnan(_handle("trace-pow", params={"p": 2.0}, dim=2).batch(
        np.diag([np.nan, 1.0])[None]))[0]


def test_fd_gradient_exact_for_linear():
    # the directional stencil along the unit vectors is the gradient
    a = np.array([2.0, -1.0, 0.5])
    h = FunctionHandle("linear", full_space(3), lambda rows: rows @ a)
    x = np.array([0.3, 0.7, 1.1])
    g = _derivative(h, np.tile(x, (3, 1)), np.eye(3))
    assert np.allclose(g, a, atol=1e-9)


def test_fd_hessian_quadratic_and_entropy():
    h = _handle("sq-norm", dim=3)
    hess = _hessians(h, np.array([[0.5, 1.0, 2.0]]))[0]
    assert np.allclose(hess, 2 * np.eye(3), atol=1e-6)
    sh = _handle("shannon-entropy", dim=2)
    hess = _hessians(sh, np.array([[1.0, 1.0]]))[0]
    assert np.allclose(hess, np.diag([-1.0, -1.0]), atol=1e-5)


def _lse_hessian(x):
    w = np.exp(x - x.max())
    w = w / w.sum()
    return np.diag(w) - np.outer(w, w)


# closed-form Hessians of the entries, at a point x
_ANALYTIC_HESSIANS = {
    "shannon-entropy": lambda x: np.diag(-1.0 / x),
    "sq-norm": lambda x: 2.0 * np.eye(x.size),
    "lse": _lse_hessian,
}


@pytest.mark.parametrize("entry_id", list(_ANALYTIC_HESSIANS))
def test_fd_hessian_matches_analytic(entry_id):
    handle = _handle(entry_id, dim=3)
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.25, 2.0, size=(100, 3))
    fd = _hessians(handle, pts)
    for x, h in zip(pts, fd):
        exact = _ANALYTIC_HESSIANS[entry_id](x)
        assert np.max(np.abs(h - exact)) <= 1e-5


def test_fd_directional_matrix_direction():
    h = _handle("det", dim=2)
    x = np.diag([2.0, 3.0])[None]
    w = np.eye(2)[None]
    # d/dt det(X + tI) = det(X) trace(X^-1) at t=0
    expected = 6.0 * (1 / 2 + 1 / 3)
    assert _derivative(h, x, w)[0] == pytest.approx(expected, rel=1e-6)


def test_fd_stencil_domain_error():
    # the 1e-4 step leaves the open half-line at 1e-7: the row comes back NaN
    h = _handle("reciprocal")
    hess = _hessians(h, np.array([[1e-7], [1.0]]))
    assert np.all(np.isnan(hess[0]))
    assert hess[1, 0, 0] == pytest.approx(2.0, rel=1e-6)


def test_gamma_values():
    assert nk.gamma(1.0) == pytest.approx(1.0, rel=1e-12)
    assert nk.gamma(5.0) == pytest.approx(24.0, rel=1e-12)
    assert nk.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    with pytest.raises(DomainError):
        nk.gamma(0.0)
    with pytest.raises(DomainError):
        nk.gamma(-1.5)


def test_gamma_recurrence_on_interval():
    xs = np.linspace(0.1, 29.0, 120)
    lhs = nk.gamma(xs + 1.0)
    rhs = xs * nk.gamma(xs)
    assert np.max(np.abs(lhs / rhs - 1.0)) <= 1e-12
    # half-integer closed form as an independent anchor
    for k in range(0, 10):
        exact = math.factorial(2 * k) / (4 ** k * math.factorial(k)) * math.sqrt(math.pi)
        assert nk.gamma(k + 0.5) == pytest.approx(exact, rel=1e-12)


def test_gamma_matches_math_gamma():
    xs = np.linspace(0.1, 30.0, 30001)
    exact = np.array([math.gamma(v) for v in xs])
    assert np.max(np.abs(nk.gamma(xs) / exact - 1.0)) <= 1e-12
    # so x-gamma-minus-1 is exactly 0 at the origin, where its sign is checked
    assert nk.gamma(1.0) == 1.0
    assert nk.gamma(np.ones((2, 3))).shape == (2, 3)


def _python_fold(ufunc, row):
    """The row folded left to right one value at a time, from the ufunc's
    reduction identity where it has one."""
    if ufunc.identity is None:
        return functools.reduce(ufunc, row[1:], row[0])
    return functools.reduce(ufunc, row, ufunc.identity)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("ufunc", [np.add, np.maximum, np.logical_and, np.logical_or],
                         ids=lambda u: u.__name__)
@pytest.mark.parametrize("t", [1, 7, 2 ** 14])
def test_rowwise_is_the_left_fold_of_each_row(ufunc, t):
    """Bit for bit, on values over 16 decades with signed zeros (a row of
    -0.0 sums to +0.0, as numpy's reduction does) and NaNs, in C and Fortran
    layout.  Rows of 8 or more values are summed pairwise, so there each
    row is compared with its own reduction alone; the other ufuncs do not
    depend on the order."""
    g = np.random.default_rng(t)
    checked = min(t, 64)
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 36):
        a = g.standard_normal((t, n)) * 10.0 ** g.integers(-8, 8, size=(t, n))
        a[g.random((t, n)) < 0.2] = 0.0
        a[g.random((t, n)) < 0.2] = -0.0
        a[g.random((t, n)) < 0.01] = np.nan
        a[0] = -0.0
        if ufunc in (np.logical_and, np.logical_or):
            a = a > 0.0
        if n < 8 or ufunc is not np.add:
            want = [_python_fold(ufunc, row) for row in a[:checked]]
        else:
            want = [ufunc.reduce(row[None], axis=1)[0] for row in a[:checked]]
        for arr in (a, np.asfortranarray(a)):
            got = nk.rowwise(ufunc, arr)
            assert _same_bits(got[:checked], np.array(want, dtype=got.dtype)), (n, t)
            if n < 8:  # numpy's own reduction of a C-contiguous array folds too
                assert _same_bits(got, ufunc.reduce(a, axis=1)), (n, t)
