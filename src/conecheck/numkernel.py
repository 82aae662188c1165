"""The spectral core, scalar rules and the gamma function.

``spectral`` evaluates every eigenvalue-based functional of the catalog:
one batched ``eigvalsh``, one domain rule on the smallest eigenvalue, a
clamp, and a sum of per-eigenvalue terms.  ``ScalarFunction`` carries the
scalar rules that the majorization and three-point checks compose with a
handle, and ``gamma`` is the gamma function on the positive half-line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _scipy_gamma

from .errors import DomainError

# Eigenvalues this far below zero (absolutely) are treated as rounding noise
# and clamped for entropy and fractional powers.
CLAMP_WINDOW = 1e-12


def spectral(
    rows: np.ndarray, term, lo: float, open: bool = False, clamp: float = 0.0
) -> np.ndarray:
    """``sum(term(max(lambda_k, clamp)))`` over the eigenvalues of each
    symmetric matrix of ``rows`` ``(T, N, N)``; NaN where the smallest
    eigenvalue is below ``lo`` (at or below it when ``open``).  ``term`` maps
    the ``(T, N)`` clamped eigenvalues to per-eigenvalue values."""
    w = np.linalg.eigvalsh(rows)
    bad = w[:, 0] <= lo if open else w[:, 0] < lo
    return np.where(bad, np.nan, np.sum(term(np.maximum(w, clamp)), axis=1))


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar rule with a domain interval and optional derivative rules and
    shape flags (used by majorization and three-point inequality checks)."""

    label: str
    fn: object  # vectorized callable ndarray -> ndarray
    lo: float = -np.inf
    hi: float = np.inf
    d1: object = None
    d2: object = None
    nondecreasing: bool | None = None
    convex: bool | None = None

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        if np.any(arr < self.lo) or np.any(arr > self.hi):
            raise DomainError(f"{self.label} evaluated outside [{self.lo}, {self.hi}]")
        out = np.asarray(self.fn(arr), dtype=np.float64)
        return float(out) if out.ndim == 0 else out


identity_fn = ScalarFunction("identity", lambda t: t, nondecreasing=True, convex=True)
square_fn = ScalarFunction("square", lambda t: t * t, d1=lambda t: 2 * t, d2=lambda t: 2.0 + 0 * t)
sqrt_fn = ScalarFunction("sqrt", np.sqrt, lo=0.0)
exp_fn = ScalarFunction("exp", np.exp, nondecreasing=True, convex=True)
log_fn = ScalarFunction("log", np.log, lo=CLAMP_WINDOW)
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


def gamma(x):
    """Gamma function on the positive half-line (vectorized), accurate to
    better than 1e-12 relative on [0.1, 30]."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise DomainError("gamma requires x > 0")
    out = _scipy_gamma(arr)
    return float(out) if out.ndim == 0 else out
