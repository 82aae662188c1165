"""Numeric certificates for sufficient conditions.

Unlike the randomized checks, these verify a *sufficient* condition (Hessian
entry signs, cross partials only, monotonicity of the differential, or an
explicit finite Laplace representation) on sampled interior points.  A
``CERTIFIED_NUMERIC`` verdict is sampled evidence, never a proof; the
vocabulary deliberately has no stronger word.  A certificate's verdict is
derived from its refusal witness: ``REFUSED`` exactly when there is one.
The finite-difference Hessians and directional derivatives are the
difference forms of :mod:`.diffops`, and the origin sign condition is the
checks' ``origin-nonneg``/``origin-nonpos`` form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import cones
from .catalog import PropertyLabel, resolve_handle
from .checkers import (
    CheckConfig,
    CheckReport,
    Witness,
    _blocks,
    _component,
    _reduce_trials,
    evaluate_expression,
)
from .cones import MATRIX, VECTOR, ConeSpec, Point, Rng
from .diffops import FunctionHandle, _first_diff, _second_diff
from .errors import (
    CapabilityError,
    CertificateError,
    DomainError,
    NumericFailure,
)

CERTIFIED = "CERTIFIED_NUMERIC"
REFUSED = "REFUSED"

_RESAMPLE_BUDGET = 0.10
# sign tests on finite-difference Hessians tolerate this much noise,
# relative to the largest entry seen
_HESS_SIGN_TOL = 1e-6
_DIRECTIONAL_TOL = 1e-6
_DUAL_TOL = 1e-12

_STREAM_POINTS, _STREAM_V, _STREAM_W, _STREAM_MATS = 41, 42, 43, 44


@dataclass(frozen=True)
class Certificate:
    """Outcome of a sampled sufficient-condition verification."""

    method: str
    property: str
    points: int
    seed: int
    refusal_witness: dict | None = None

    @property
    def verdict(self) -> str:
        return CERTIFIED if self.refusal_witness is None else REFUSED

    @property
    def certified(self) -> bool:
        return self.refusal_witness is None

    def to_json(self) -> dict:
        rw = None
        if self.refusal_witness is not None:
            rw = {
                k: (v.to_json() if isinstance(v, Point) else v)
                for k, v in sorted(self.refusal_witness.items())
            }
        return {
            "method": self.method,
            "property": self.property,
            "verdict": self.verdict,
            "points": self.points,
            "seed": self.seed,
            "refusal_witness": rw,
        }

    def json_line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _interior_batch(cone: ConeSpec, rng: Rng, count: int, scale: float) -> np.ndarray:
    """Samples pushed away from the boundary so finite-difference stencils
    stay inside the cone."""
    out = cones.sample_batch(cone, rng, count, scale, boundary_prob=0.0)
    pad = 0.05 * scale
    if cone.family == cones.PSD_CONE:
        out = out + pad * np.eye(cone.dim)
    elif cone.family != cones.FULL_SPACE:
        out = out + pad
    return out


def _origin_refusal(handle: FunctionHandle, want_nonneg: bool, cfg: CheckConfig) -> dict | None:
    """The refusal for a value of the wrong sign at the origin, when the
    origin is in the cone and the handle is defined there; else None."""
    if not handle.domain.contains_origin:
        return None
    zero = handle.domain.zero()
    try:
        slack, scale = evaluate_expression(
            handle, "origin-nonneg" if want_nonneg else "origin-nonpos", {"zero": zero})
    except DomainError:
        return None
    if slack >= -cfg.tolerance(scale):
        return None
    # the origin forms' slack is f(0) or -f(0)
    value = slack if want_nonneg else -slack
    return {"point": zero, "index": None, "value": value, "reason": "origin sign condition"}


def _resampled(good: np.ndarray, count: int, failed: str, wanted: str) -> np.ndarray:
    """Indices of the first ``count`` good rows of a pool drawn twice as
    large; fails when more of the first ``count`` rows are bad than the
    resample budget allows, or when fewer than ``count`` rows are good."""
    failures = int((~good[:count]).sum())
    if failures > _RESAMPLE_BUDGET * count:
        raise NumericFailure(f"{failures}/{count} {failed}")
    keep = np.flatnonzero(good)[:count]
    if keep.size < count:
        raise NumericFailure(f"could not collect {count} {wanted}")
    return keep


def _batched_hessians(handle: FunctionHandle, pts: np.ndarray) -> np.ndarray:
    """Central-difference Hessians for a stack of interior points; rows with
    domain failures come back as NaN matrices.  Entry (i, j) is the second
    difference at ``p - h e_i - h e_j`` with steps ``2h e_i`` and ``2h e_j``,
    divided by ``4h^2``."""
    count, n = pts.shape
    hs = 1e-4 * np.maximum(1.0, np.abs(pts).max(axis=1))
    iu, ju = np.triu_indices(n)
    # (pair, point, coordinate): the steps h e_i and h e_j of every pair i <= j
    step_i = hs[:, None] * np.eye(n)[iu][:, None]
    step_j = hs[:, None] * np.eye(n)[ju][:, None]
    roles = {"x": 2.0 * step_i, "y": 2.0 * step_j, "z": pts - step_i - step_j}
    sd, _ = _second_diff(handle, {k: v.reshape(-1, n) for k, v in roles.items()})
    hij = (sd.reshape(iu.size, count) / (4.0 * hs * hs)).T
    hess = np.empty((count, n, n))
    hess[:, iu, ju] = hij
    hess[:, ju, iu] = hij
    return hess


def _sampled_hessians(handle: FunctionHandle, points: int, cfg: CheckConfig):
    """Interior points plus their FD Hessians, with the resample budget."""
    cone = handle.domain
    if cone.point_kind != VECTOR:
        raise CapabilityError(
            "entrywise Hessian certification is defined for vector domains; "
            "matrix domains use differential monotonicity instead"
        )
    pool = _interior_batch(cone, Rng(cfg.seed, _STREAM_POINTS), 2 * points, cfg.scale)
    hess = _batched_hessians(handle, pool)
    keep = _resampled(np.isfinite(hess).all(axis=(1, 2)), points,
                      f"Hessian stencils failed for {handle.label!r}",
                      f"interior Hessians for {handle.label!r}")
    return pool[keep], hess[keep]


def _hessian_sign_certificate(
    handle, points, cfg, *, off_diagonal_only: bool, nonneg: bool, method: str, prop: str,
    origin_nonneg: bool | None,
) -> Certificate:
    pts, hess = _sampled_hessians(handle, points, cfg)
    refusal = None if origin_nonneg is None else _origin_refusal(handle, origin_nonneg, cfg)
    if refusal is None:
        tol = _HESS_SIGN_TOL * np.maximum(1.0, np.abs(hess).reshape(len(hess), -1).max(axis=1))
        tol = tol[:, None, None]
        bad = (hess < -tol) if nonneg else (hess > tol)
        if off_diagonal_only:
            bad &= ~np.eye(hess.shape[1], dtype=bool)
        # argwhere walks (k, i, j) in row-major order: the first bad entry
        # of the first bad point
        hits = np.argwhere(bad)
        if hits.size:
            k, i, j = (int(v) for v in hits[0])
            refusal = {
                "point": Point(VECTOR, pts[k], _validated=True),
                "index": [i, j],
                "value": float(hess[k, i, j]),
                "reason": "second partial derivative of the wrong sign",
            }
    return Certificate(method=method, property=prop, points=points, seed=cfg.seed,
                       refusal_witness=refusal)


def certify_hessian_sign(
    target, sign: str, points: int = 200, cfg: CheckConfig | None = None,
    *, params=None, dim=None,
) -> Certificate:
    """All second partials share the requested sign at sampled interior
    points, plus the origin sign condition; certifies the strong
    subadditivity (nonpos) or superadditivity (nonneg) sufficient condition."""
    cfg = cfg or CheckConfig()
    handle = resolve_handle(target, params, dim)
    if sign not in ("nonpos", "nonneg"):
        raise CapabilityError(f"sign must be 'nonpos' or 'nonneg', got {sign!r}")
    nonneg = sign == "nonneg"
    prop = (PropertyLabel.STRONG_SUPERADD if nonneg else PropertyLabel.STRONG_SUBADD).value
    return _hessian_sign_certificate(
        handle, points, cfg,
        off_diagonal_only=False, nonneg=nonneg, method="HESSIAN_SIGN", prop=prop,
        origin_nonneg=not nonneg,
    )


def certify_topkis(
    target, mode: str, points: int = 200, cfg: CheckConfig | None = None,
    *, params=None, dim=None,
) -> Certificate:
    """Cross-partial-only form: off-diagonal second partials nonpositive
    certifies submodularity, nonnegative certifies supermodularity."""
    cfg = cfg or CheckConfig()
    handle = resolve_handle(target, params, dim)
    if mode not in ("submodular", "supermodular"):
        raise CapabilityError(f"mode must be 'submodular' or 'supermodular', got {mode!r}")
    nonneg = mode == "supermodular"
    return _hessian_sign_certificate(
        handle, points, cfg,
        off_diagonal_only=True, nonneg=nonneg, method="TOPKIS_CROSS", prop=mode,
        origin_nonneg=None,
    )


def _directional_derivatives(handle: FunctionHandle, pts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Central-difference derivatives at a stack of points along the matching
    directions of ``w``: the first difference from ``p - h w`` by the step
    ``2h w``, divided by ``2h``.  The step is 1e-5 times ``max(1,
    |point|_inf)``, and rows that leave the domain come back NaN."""
    count = pts.shape[0]
    h = 1e-5 * np.maximum(1.0, np.abs(pts.reshape(count, -1)).max(axis=1))
    step = h.reshape((count,) + (1,) * (pts.ndim - 1)) * w
    d, _ = _first_diff(handle, {"U": pts - step, "step": 2.0 * step})
    return d / (2.0 * h)


def certify_differential_monotone(
    target, direction: str, pairs: int = 200, cfg: CheckConfig | None = None,
    *, params=None, dim=None,
) -> Certificate:
    """Directional derivatives compared on ordered pairs u <= u + v along
    positive directions w: nonincreasing differentials certify strong
    subadditivity, nondecreasing ones strong superadditivity."""
    cfg = cfg or CheckConfig()
    handle = resolve_handle(target, params, dim)
    if direction not in ("nonincreasing", "nondecreasing"):
        raise CapabilityError(
            f"direction must be 'nonincreasing' or 'nondecreasing', got {direction!r}"
        )
    increasing = direction == "nondecreasing"
    prop = (PropertyLabel.STRONG_SUPERADD if increasing else PropertyLabel.STRONG_SUBADD).value
    cone = handle.domain

    count = 2 * pairs
    u = _interior_batch(cone, Rng(cfg.seed, _STREAM_POINTS), count, cfg.scale)
    v = cones.sample_batch(cone, Rng(cfg.seed, _STREAM_V), count, cfg.scale, 0.0)
    w = _interior_batch(cone, Rng(cfg.seed, _STREAM_W), count, cfg.scale)

    g1, g2 = _directional_derivatives(
        handle, np.concatenate([u, u + v]), np.concatenate([w, w])
    ).reshape(2, count)
    slack = (g2 - g1) if increasing else (g1 - g2)
    keep = _resampled(np.isfinite(slack), pairs, "directional stencils failed",
                      "directional comparisons")

    refusal = _origin_refusal(handle, not increasing, cfg)
    if refusal is None:
        tol = _DIRECTIONAL_TOL * np.maximum(1.0, np.maximum(np.abs(g1[keep]), np.abs(g2[keep])))
        bad = slack[keep] < -tol
        if bad.any():
            k = keep[int(np.flatnonzero(bad)[0])]
            kind = cone.point_kind
            refusal = {
                "point": Point(kind, u[k], _validated=True),
                "step": Point(kind, v[k], _validated=True),
                "direction": Point(kind, w[k], _validated=True),
                "index": None,
                "value": float(slack[k]),
                "reason": "directional derivative moved the wrong way along the order",
            }
    return Certificate(method="DIFFERENTIAL_MONOTONE", property=prop, points=pairs,
                       seed=cfg.seed, refusal_witness=refusal)


# ---------------------------------------------------------------------------
# Laplace-atom certificates of complete monotonicity
# ---------------------------------------------------------------------------


def dual_member(cone: ConeSpec, u: Point) -> bool:
    """Membership in the dual cone under the natural pairing, within 1e-12:
    the dual of either orthant is the nonnegative orthant, the PSD cone is
    self-dual (the tolerance scaled as in :func:`cones.member_batch`), and
    the dual of the full space is the origin."""
    if u.kind != cone.point_kind or u.dim != cone.dim:
        return False
    if cone.family == cones.FULL_SPACE:
        return bool(np.all(np.abs(u.data) <= _DUAL_TOL))
    # the other families are closed and self-dual; the open orthant's dual is
    # its closure
    if cone.family == cones.POSITIVE_ORTHANT:
        cone = cones.nonneg_orthant(cone.dim)
    return cones.member(cone, u, _DUAL_TOL)


@dataclass(frozen=True)
class LaplaceCertificate:
    """Finite atomic measure: nonnegative weights on dual-cone points.

    The induced function ``x -> sum_i w_i exp(-<x, u_i>)`` is completely
    monotone by construction, and its shift-and-center at any interior point
    is strongly superadditive.
    """

    atoms: tuple

    def __init__(self, atoms):
        packed = []
        for w, u in atoms:
            if not np.isfinite(w) or w < 0:
                raise CertificateError(f"atom weight must be nonnegative, got {w!r}")
            if not isinstance(u, Point):
                raise CertificateError("atom locations must be Points")
            packed.append((float(w), u))
        if not packed:
            raise CertificateError("a Laplace certificate needs at least one atom")
        object.__setattr__(self, "atoms", tuple(packed))

    def validate_for(self, cone: ConeSpec) -> None:
        for k, (_, u) in enumerate(self.atoms):
            if not dual_member(cone, u):
                raise CertificateError(
                    f"atom {k} is not in the dual cone of {cone.family}({cone.dim})"
                )

    def to_json(self):
        return [[w, u.to_json()] for w, u in self.atoms]


def laplace_as_handle(cert: LaplaceCertificate, cone: ConeSpec) -> FunctionHandle:
    """Function handle for the certified mixture; validates the atoms
    against the cone's dual first."""
    cert.validate_for(cone)
    weights = np.array([w for w, _ in cert.atoms])
    locs = np.stack([u.data for _, u in cert.atoms])

    if cone.point_kind == VECTOR:
        def batch(rows):
            return np.exp(-(rows @ locs.T)) @ weights
    else:
        def batch(rows):
            pair = np.einsum("tij,aij->ta", rows, locs)
            return np.exp(-pair) @ weights

    return FunctionHandle(f"laplace-mixture[{len(cert.atoms)} atoms]", cone, batch)


# ---------------------------------------------------------------------------
# quadrature validation of the beta = 1/2 determinant representation
# ---------------------------------------------------------------------------

_QMC_NODES = 10 ** 6
# nodes per block and matrices per product of the quadrature: together they
# bound its temporaries to a few MiB whatever the number of matrices
_QMC_BLOCK = 2 ** 15
_QMC_STACK = 16
# one Halton base per coordinate, so the quadrature's highest order is
# len(_PRIMES)
_PRIMES = (2, 3, 5, 7)


def _radical_inverse(b: int, start: int, out: np.ndarray) -> None:
    """Write the base-``b`` radical inverses of the indices ``start + 1``,
    ..., ``start + len(out)`` into ``out``, least significant digit first.
    The indices stay below 2**53, so the digits ``i - floor(i / b) * b``
    are exact in float64; the three work arrays are the size of ``out``."""
    i = np.arange(start + 1, start + 1 + len(out), dtype=np.float64)
    q = np.empty_like(i)
    r = np.empty_like(i)
    out[:] = 0.0
    f = 1.0
    # i is increasing, so its last entry has the most digits
    while i[-1] > 0:
        f /= b
        np.divide(i, b, out=q)
        np.floor(q, out=q)
        np.multiply(q, b, out=r)
        np.subtract(i, r, out=r)
        r *= f
        out += r
        i, q = q, i


def _halton(count: int, dims: int) -> np.ndarray:
    """Radical-inverse Halton sequence (bases 2,3,5,7), indices from 1, one
    row per coordinate: shape ``(dims, count)``.  Filled one ``_QMC_BLOCK``
    of indices at a time by the kernel of the quadrature's node table."""
    out = np.empty((dims, count))
    for d in range(dims):
        for s in range(0, count, _QMC_BLOCK):
            _radical_inverse(_PRIMES[d], s, out[d, s : s + _QMC_BLOCK])
    return out


# Wichura's AS241 (PPND16), Appl. Statist. 37 (1988): the normal quantile as
# rational functions, highest degree first, of r = 0.180625 - q^2 for
# |q| = |p - 1/2| <= 0.425, else of r - 1.6 (r <= 5) or r - 5 with
# r = sqrt(-log(min(p, 1 - p))); about 1e-16 relative.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
     4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
     1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
     2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
     4.2313330701600911252e1, 1.0),
)
_AS241_NEAR = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _rational(coefs: tuple, x: np.ndarray) -> np.ndarray:
    """``num(x) / den(x)`` by Horner's rule, in one fresh array."""
    num, den = np.full_like(x, coefs[0][0]), np.full_like(x, coefs[1][0])
    for a, b in zip(coefs[0][1:], coefs[1][1:]):
        num *= x
        num += a
        den *= x
        den += b
    num /= den
    return num


def _normal_quantile_over_sqrt2(u: np.ndarray) -> None:
    """Replace the probabilities ``u`` in ``(0, 1)`` in place by the
    standard normal quantiles divided by ``sqrt(2)``.  The central form runs
    on every entry, the tail forms only on the entries with ``|u - 1/2| >
    0.425``; temporaries are a few arrays the size of ``u``."""
    q = u - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    val = _rational(_AS241_CENTRAL, r)
    val *= q
    tail = np.abs(q) > 0.425
    if tail.any():
        p = u[tail]
        r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        far = r > 5.0
        t = _rational(_AS241_NEAR, r - 1.6)
        if far.any():
            t[far] = _rational(_AS241_FAR, r[far] - 5.0)
        val[tail] = np.copysign(t, q[tail])
    np.multiply(val, math.sqrt(0.5), out=u)


# the quadrature's nodes, one row per base of _PRIMES, allocated on first
# use; a row's pages are touched only when it is filled.  Rows are filled in
# order, so the filled rows are the first _gauss_rows.  Read-only outside
# the fill.
_GAUSS_NODES: np.ndarray | None = None
_gauss_rows = 0


def _gaussian_nodes(dims: int) -> np.ndarray:
    """Fixed low-discrepancy Gaussian nodes with density exp(-x^2)/sqrt(pi)
    per coordinate, shape ``(dims, _QMC_NODES)``; seed-independent by
    design.  A read-only view of the first ``dims`` rows of the node table,
    so every order shares the rows of the lower ones.  Each row is built
    once, one ``_QMC_BLOCK`` of indices at a time: the Halton nodes of its
    base, mapped in place to Gaussian nodes, so the fill makes only
    block-sized temporaries."""
    global _GAUSS_NODES, _gauss_rows
    if dims > len(_PRIMES):
        raise CapabilityError(
            f"the quadrature validation supports orders up to {len(_PRIMES)}"
        )
    if _GAUSS_NODES is None:
        _GAUSS_NODES = np.empty((len(_PRIMES), _QMC_NODES))
    if dims > _gauss_rows:
        _GAUSS_NODES.flags.writeable = True
        try:
            for d in range(_gauss_rows, dims):
                row = _GAUSS_NODES[d]
                for s in range(0, _QMC_NODES, _QMC_BLOCK):
                    block = row[s : s + _QMC_BLOCK]
                    _radical_inverse(_PRIMES[d], s, block)
                    _normal_quantile_over_sqrt2(block)
                _gauss_rows = d + 1
        finally:
            _GAUSS_NODES.flags.writeable = False
    return _GAUSS_NODES[:dims]


def gaussian_representation_margin(a: np.ndarray) -> tuple:
    """(estimate, exact, relative error) for the Gaussian-integral identity
    giving ``det(I + A) ** (-1/2)``: three floats for one ``(n, n)`` matrix,
    three arrays for a ``(m, n, n)`` stack.

    Each quadratic form ``z^T A z`` is a linear map on the monomials
    ``z_i z_j`` (``i <= j``), so one matrix product per block of nodes
    evaluates the forms of up to ``_QMC_STACK`` matrices.
    """
    mats = np.asarray(a, dtype=np.float64)
    single = mats.ndim == 2
    if single:
        mats = mats[None]
    n = mats.shape[-1]
    iu, ju = np.triu_indices(n)
    # a_ii on the diagonal, a_ij + a_ji off it
    coef = mats[:, iu, ju] + mats[:, ju, iu]
    coef[:, iu == ju] *= 0.5
    z = _gaussian_nodes(n)
    total = np.zeros(len(mats))
    # one pair of work buffers serves every block: fresh block-sized arrays
    # can be mapped and faulted in anew by the allocator on each block
    mono_buf = np.empty(len(iu) * _QMC_BLOCK)
    q_buf = np.empty(min(len(mats), _QMC_STACK) * _QMC_BLOCK)
    for s in range(0, _QMC_NODES, _QMC_BLOCK):
        zb = z[:, s : s + _QMC_BLOCK]
        w = zb.shape[1]
        monomials = mono_buf[: len(iu) * w].reshape(len(iu), w)
        for k, (i, j) in enumerate(zip(iu, ju)):
            np.multiply(zb[i], zb[j], out=monomials[k])
        for lo in range(0, len(mats), _QMC_STACK):
            c = coef[lo : lo + _QMC_STACK]
            q = q_buf[: len(c) * w].reshape(len(c), w)
            np.matmul(c, monomials, out=q)
            np.negative(q, out=q)
            np.exp(q, out=q)
            total[lo : lo + _QMC_STACK] += q.sum(axis=1)
    est = total / _QMC_NODES
    lam = np.linalg.eigvalsh(mats)
    exact = np.exp(-0.5 * np.sum(np.log1p(lam), axis=1))
    if not (np.isfinite(est).all() and np.isfinite(exact).all()) or (exact <= 0).any():
        raise NumericFailure("quadrature produced a non-finite value")
    relerr = np.abs(est - exact) / exact
    if single:
        return float(est[0]), float(exact[0]), float(relerr[0])
    return est, exact, relerr


def gaussian_detcert_check(n: int, cfg: CheckConfig | None = None) -> CheckReport:
    """Quasi-Monte-Carlo validation of the square-root reciprocal
    determinant representation on random PSD matrices with operator norm at
    most 2; relative tolerance 1e-3 with 10^6 fixed nodes.  The matrices are
    one PSD ``sample_batch``, each scaled to an operator norm drawn uniformly
    from [0.1, 2], then checked in one quadrature call."""
    cfg = cfg or CheckConfig()
    _gaussian_nodes(n)  # raises CapabilityError above the highest order
    rng = Rng(cfg.seed, _STREAM_MATS)
    tol = 1e-3
    mats = cones.sample_batch(cones.psd_cone(n), rng, cfg.trials)
    lam_max = np.linalg.eigvalsh(mats)[:, -1]
    mats *= (2.0 * rng.generator.uniform(0.05, 1.0, size=cfg.trials) / lam_max)[:, None, None]
    _, _, relerr = gaussian_representation_margin(mats)
    slack = tol - relerr
    k = int(np.argmin(slack))
    worst = float(slack[k])
    witness = None
    if worst < 0:
        witness = Witness(
            points={"A": Point(MATRIX, mats[k])},
            margin=worst,
            expression="gaussian-det-representation",
        )
    return CheckReport(
        property="gaussian-det-representation",
        trials_run=cfg.trials,
        worst_margin=worst,
        witness=witness,
        skipped=0,
        config=cfg,
    )


def check_det_trace_monotone(n: int, cfg: CheckConfig | None = None) -> CheckReport:
    """``det(U) trace(U^-1) <= det(V) trace(V^-1)`` on random ordered pairs
    U <= V = U + step of positive-definite matrices: the ``nondecreasing``
    form over the roles ``U`` and ``step``, so a shrunk witness keeps its
    order.  Drawn and folded one ``_BLOCK`` of trials at a time."""
    cfg = cfg or CheckConfig()
    cone = cones.psd_cone(n)

    def phi(mats):
        lam = np.linalg.eigvalsh(mats)
        return np.prod(lam, axis=1) * np.sum(1.0 / lam, axis=1)

    handle = FunctionHandle("det-trace-inverse", cone, phi)

    def blocks():
        for b, count in _blocks(cfg.trials):
            u = _interior_batch(cone, Rng(cfg.seed, _STREAM_POINTS, b), count, cfg.scale)
            step = cones.sample_batch(cone, Rng(cfg.seed, _STREAM_V, b), count, cfg.scale, 0.0)
            yield cfg.scale, [_component(handle, "nondecreasing", {"U": u, "step": step})]

    return _reduce_trials(handle, "det-trace-inverse-monotone", blocks(), cfg)
