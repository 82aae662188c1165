"""The row folds, the spectral and determinant cores, scalar rules and the
gamma function.

``rowwise`` reduces each row of a ``(T, n)`` array, such as the coordinates
of stacked points or their eigenvalues, with a binary ufunc: a left fold
over the columns for short rows, where it is several times faster than
``ufunc.reduce(..., axis=1)`` and gives the same bits.  ``linear`` folds
the linear form ``rows @ w`` over the columns, so a row gets the same bits
alone and in a block, which BLAS does not promise.

``spectral`` evaluates every eigenvalue-based functional of the catalog:
batched eigenvalues, one domain rule on the smallest eigenvalue, a clamp,
and a sum of per-eigenvalue terms.  Orders 2 and 3 take their eigenvalues in
closed form (mean and ``hypot``; the trigonometric method of Smith, CACM
1961) on the rows where that form is accurate, and ``eigvalsh`` on the
others: non-finite rows, rows whose smallest eigenvalue is not clearly above
both zero and the domain bound, and order-3 rows with near-repeated
eigenvalues.  So ``eigvalsh`` still decides every domain rule and clamp near
its boundary.  Other orders use ``eigvalsh`` for every row.

``det`` follows the same pattern: Gaussian elimination without pivoting
over the lower triangles, elementwise over the rows, on the rows where
every pivot is finite and positive (positive definite, where elimination is
backward stable), and ``np.linalg.det`` on the others.  Both give a row the
same bits alone and in a block.

``ScalarFunction`` carries the scalar rules that the majorization and
three-point checks compose with a handle, and ``gamma`` is the gamma
function on the positive half-line (a Lanczos approximation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Eigenvalues this far below zero (absolutely) are treated as rounding noise
# and clamped for entropy and fractional powers.
CLAMP_WINDOW = 1e-12


# Rows shorter than this are folded column by column; from 8 values on,
# numpy's add reduction sums a contiguous row pairwise, and is fast.
_FOLD_COLUMNS = 8


def rowwise(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` of a 2-d array, the same bits whatever
    its memory layout and row count.  Rows shorter than ``_FOLD_COLUMNS``
    fold left to right, one column at a time, as numpy's reduction of a
    C-contiguous array does; an add fold then adds the identity +0.0, as the
    reduction starts from it, so a row of -0.0 sums to +0.0.  Longer rows
    are made C-contiguous and reduced by ``ufunc.reduce``, which sums each
    row pairwise, so a row gets the same bits alone and in a block."""
    n = a.shape[1]
    if not 1 < n < _FOLD_COLUMNS:
        return ufunc.reduce(np.ascontiguousarray(a), axis=1)
    out = ufunc(a[:, 0], a[:, 1])
    for j in range(2, n):
        ufunc(out, a[:, j], out=out)
    if ufunc is np.add:
        out += 0.0
    return out


def linear(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``rows @ w`` of a 2-d array as a left fold over the columns, so a row
    gets the same bits alone and in a block."""
    out = rows[:, 0] * w[0]
    for j in range(1, len(w)):
        out += rows[:, j] * w[j]
    return out


# The closed form is kept on a row only when its smallest eigenvalue exceeds
# max(lo, _CLOSED_FLOOR) by more than _CLOSED_GAP times its largest.  Its
# absolute error stays below about 1e-13 of the largest eigenvalue, so the
# domain rule and the clamp are then clear of their boundaries.  The floor,
# far above the square root of the smallest normal double, keeps the squared
# entries of order 3 out of the subnormal range.  Order 3 also gives up rows
# whose arccos argument lies within _CLOSED_ACOS of +-1 (near-repeated
# eigenvalues, c*I and 0), where the arccos amplifies rounding.
_CLOSED_GAP = 1e-3
_CLOSED_FLOOR = 1e-100
_CLOSED_ACOS = 1e-6


def spectral(
    rows: np.ndarray, term, lo: float, open: bool = False, clamp: float = 0.0
) -> np.ndarray:
    """``sum(term(max(lambda_k, clamp)))`` over the eigenvalues of each
    symmetric matrix of ``rows`` ``(T, N, N)``; NaN where the smallest
    eigenvalue is below ``lo`` (at or below it when ``open``) and on rows
    with a non-finite entry.  ``term`` maps the ``(T, N)`` clamped
    eigenvalues to per-eigenvalue values.  Like ``eigvalsh``, reads the
    lower triangles."""
    if rows.shape[-1] in (2, 3):
        w = _closed_form_eigvals(rows)
        redo = ~(
            rowwise(np.logical_and, np.isfinite(w))
            & (w[:, 0] > max(lo, _CLOSED_FLOOR) + _CLOSED_GAP * w[:, -1])
        )
        if redo.any():
            w[redo] = _finite_eigvalsh(rows[redo])
    else:
        w = _finite_eigvalsh(rows)
    # written so that a NaN eigenvalue fails the domain rule
    inside = w[:, 0] > lo if open else w[:, 0] >= lo
    return np.where(inside, rowwise(np.add, term(np.maximum(w, clamp))), np.nan)


def det(rows: np.ndarray) -> np.ndarray:
    """The determinant of each symmetric matrix of ``rows`` ``(T, N, N)``.
    Gaussian elimination without pivoting runs over the lower triangles,
    each entry for all T rows at once, and the determinant is the left fold
    of the pivots' product.  A row keeps that value only when every pivot is
    finite and positive, so the matrix is positive definite (Sylvester's
    criterion) and elimination, which is then Cholesky's, is backward
    stable.  The other rows (singular, indefinite or non-finite) are
    ``redo`` rows and take ``np.linalg.det``.  Like ``spectral``, reads the
    lower triangles of the rows it keeps."""
    n = rows.shape[-1]
    # low[i][j] is entry (i, j), j <= i, of the trailing Schur complement
    low = [[rows[:, i, j].copy() for j in range(i + 1)] for i in range(n)]
    out = low[0][0].copy()
    ok = (out > 0.0) & (out < np.inf)
    with np.errstate(all="ignore"):
        for k in range(n - 1):
            for i in range(k + 1, n):
                ratio = low[i][k] / low[k][k]
                for j in range(k + 1, i + 1):
                    low[i][j] -= ratio * low[j][k]
            pivot = low[k + 1][k + 1]
            ok &= (pivot > 0.0) & (pivot < np.inf)
            out *= pivot
    redo = ~ok
    if redo.any():
        out[redo] = np.linalg.det(rows[redo])
    return out


def _finite_eigvalsh(rows: np.ndarray) -> np.ndarray:
    """``eigvalsh`` of the rows whose lower triangle is finite, NaN
    eigenvalues on the others (where ``eigvalsh`` would raise for the whole
    stack or return finite values)."""
    il, jl = np.tril_indices(rows.shape[-1])
    finite = rowwise(np.logical_and, np.isfinite(rows[:, il, jl]))
    if finite.all():
        return np.linalg.eigvalsh(rows)
    w = np.full(rows.shape[:2], np.nan)
    w[finite] = np.linalg.eigvalsh(rows[finite])
    return w


def _closed_form_eigvals(rows: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues ``(T, N)`` of a stack of symmetric 2x2 or 3x3
    matrices, from their lower triangles, in closed form; NaN on order-3 rows
    whose arccos argument lies within ``_CLOSED_ACOS`` of +-1."""
    with np.errstate(all="ignore"):
        if rows.shape[-1] == 2:
            a, b, d = rows[:, 0, 0], rows[:, 1, 0], rows[:, 1, 1]
            mean, rad = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
            return np.stack([mean - rad, mean + rad], axis=1)
        # A = q I + p B with trace(B) = 0 and |B|_F^2 = 6; the eigenvalues
        # of B are 2 cos(phi + 2 pi k / 3) with cos(3 phi) = det(B) / 2
        q = (rows[:, 0, 0] + rows[:, 1, 1] + rows[:, 2, 2]) / 3.0
        d0, d1, d2 = rows[:, 0, 0] - q, rows[:, 1, 1] - q, rows[:, 2, 2] - q
        e10, e20, e21 = rows[:, 1, 0], rows[:, 2, 0], rows[:, 2, 1]
        p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                     + 2.0 * (e10 * e10 + e20 * e20 + e21 * e21)) / 6.0)
        inv = 1.0 / p
        b0, b1, b2 = d0 * inv, d1 * inv, d2 * inv
        c10, c20, c21 = e10 * inv, e20 * inv, e21 * inv
        r = 0.5 * (b0 * (b1 * b2 - c21 * c21) - c10 * (c10 * b2 - c21 * c20)
                   + c20 * (c10 * c21 - b1 * c20))
        phi = np.arccos(np.where(np.abs(r) < 1.0 - _CLOSED_ACOS, r, np.nan)) / 3.0
        top = q + 2.0 * p * np.cos(phi)
        bottom = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        return np.stack([bottom, 3.0 * q - top - bottom, top], axis=1)


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar rule with a domain interval and optional shape flags (used by
    majorization and three-point inequality checks)."""

    label: str
    fn: object  # vectorized callable ndarray -> ndarray
    lo: float = -np.inf
    hi: float = np.inf
    nondecreasing: bool | None = None
    convex: bool | None = None

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        if np.any(arr < self.lo) or np.any(arr > self.hi):
            raise DomainError(f"{self.label} evaluated outside [{self.lo}, {self.hi}]")
        out = np.asarray(self.fn(arr), dtype=np.float64)
        return float(out) if out.ndim == 0 else out


identity_fn = ScalarFunction("identity", lambda t: t, nondecreasing=True, convex=True)
square_fn = ScalarFunction("square", lambda t: t * t)
exp_fn = ScalarFunction("exp", np.exp, nondecreasing=True, convex=True)
exp_neg_fn = ScalarFunction("exp-neg", lambda t: np.exp(-t), nondecreasing=False, convex=True)


def power_fn(p: float) -> ScalarFunction:
    """``t -> t**p`` on the nonnegative half-line; nondecreasing, convex for
    p >= 1."""
    return ScalarFunction(
        f"power[{p!r}]",
        lambda t, _p=float(p): np.maximum(t, 0.0) ** _p,
        lo=0.0,
        nondecreasing=True,
        convex=bool(p >= 1.0),
    )


# Lanczos approximation with g = 7 and nine coefficients: for z >= -1/2,
# gamma(z + 1) = sqrt(2 pi) t^(z + 1/2) e^(-t) (c_0 + sum_k c_k / (z + k))
# with t = z + g + 1/2.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7,
)


def _lanczos_gamma(x: np.ndarray) -> np.ndarray:
    """Gamma at ``x >= 1/2``, elementwise."""
    z = x - 1.0
    series = np.full_like(z, _LANCZOS_C[0])
    term = np.empty_like(z)
    for k in range(1, len(_LANCZOS_C)):
        np.add(z, float(k), out=term)
        np.divide(_LANCZOS_C[k], term, out=term)
        series += term
    # t^(z + 1/2) e^(-t) as one exp of (z + 1/2)(log t - 1) - g, which stays
    # finite until the result itself overflows and maps +inf to +inf
    expo = np.log(z + (_LANCZOS_G + 0.5))
    expo -= 1.0
    expo *= z + 0.5
    expo -= _LANCZOS_G
    with np.errstate(over="ignore"):
        np.exp(expo, out=expo)
    expo *= series
    expo *= math.sqrt(2.0 * math.pi)
    return expo


def gamma(x):
    """Gamma function on the positive half-line (vectorized), accurate to
    better than 1e-12 relative on [0.1, 30]; below 1/2 by the reflection
    formula ``gamma(x) = pi / (sin(pi x) gamma(1 - x))``."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise DomainError("gamma requires x > 0")
    flat = arr.reshape(-1)
    small = flat < 0.5
    out = _lanczos_gamma(np.where(small, 1.0 - flat, flat))
    out[small] = math.pi / (np.sin(math.pi * flat[small]) * out[small])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
