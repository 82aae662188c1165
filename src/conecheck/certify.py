"""Numeric certificates for sufficient conditions.

Unlike the randomized checks, these verify a *sufficient* condition (Hessian
entry signs, cross partials only, monotonicity of the differential, or an
explicit finite Laplace representation) on sampled interior points.  A
``CERTIFIED_NUMERIC`` verdict is sampled evidence, never a proof; the
vocabulary deliberately has no stronger word.  A certificate's verdict is
derived from its refusal witness: ``REFUSED`` exactly when there is one.
The finite-difference Hessians and directional derivatives are the
difference forms of :mod:`.diffops`, and the origin sign condition is the
checks' ``origin-nonneg``/``origin-nonpos`` form.  The Gaussian-integral
representation of ``det(I + A)^(-1/2)`` is checked against a fixed
tensor-product Gauss-Hermite rule, summed one slice at a time with no state
kept between calls.
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
    ShapeError,
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

# Gauss-Hermite points per coordinate: the rule integrates polynomials of
# degree up to 2 * 24 - 1 in each coordinate exactly
_GH_POINTS = 24
# the highest order of the quadrature; a slice holds 24^(order - 1) nodes
_GH_MAX_ORDER = 4
# matrices per product of the quadrature, which bounds its temporaries to a
# few MiB whatever the number of matrices
_GH_STACK = 16


def _require_quadrature_order(n: int) -> None:
    if n > _GH_MAX_ORDER:
        raise CapabilityError(
            f"the quadrature validation supports orders up to {_GH_MAX_ORDER}"
        )


def _gauss_hermite(n: int) -> tuple:
    """The order-``n`` tensor-product Gauss-Hermite rule for the density
    ``exp(-|z|^2) / pi^(n/2)``, split into slices: the ``_GH_POINTS`` nodes
    and weights of the first coordinate, then the ``(n - 1, 24^(n-1))``
    nodes of the others and their product weights, shared by every slice."""
    _require_quadrature_order(n)
    x, w = np.polynomial.hermite.hermgauss(_GH_POINTS)
    w /= math.sqrt(math.pi)
    grid = np.indices((_GH_POINTS,) * (n - 1)).reshape(n - 1, _GH_POINTS ** (n - 1))
    return x, w, x[grid], np.prod(w[grid], axis=0)


def _square_stack(a) -> np.ndarray:
    """``a`` as a float stack ``(m, n, n)`` of symmetric matrices; a
    ``ShapeError`` unless it is one square matrix or a stack of them, each
    symmetric within the tolerance of a matrix :class:`Point`."""
    mats = np.asarray(a, dtype=np.float64)
    if mats.ndim == 2:
        mats = mats[None]
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] < 1:
        raise ShapeError(
            f"the quadrature needs a square matrix or a stack of them, got shape "
            f"{np.shape(a)}"
        )
    if not cones.symmetric_batch(mats).all():
        raise ShapeError("the quadrature needs symmetric matrices within tolerance")
    return mats


def gaussian_representation_margin(a: np.ndarray) -> tuple:
    """(estimate, exact, relative error) for the Gaussian-integral identity
    ``det(I + A) ** (-1/2) = pi^(-n/2) int exp(-z^T (I + A) z) dz``: three
    floats for one ``(n, n)`` matrix, three arrays for a ``(m, n, n)``
    stack.

    The estimate is the tensor-product Gauss-Hermite rule of ``_GH_POINTS``
    points per coordinate for the density ``exp(-|z|^2) / pi^(n/2)``, summed
    one slice at a time: a slice fixes the first coordinate at one node and
    runs over the ``24^(n-1)`` nodes of the others.  Each quadratic form
    ``z^T A z`` is a linear map on the monomials ``z_i z_j`` (``i <= j``), so
    one matrix product per slice evaluates the forms of up to ``_GH_STACK``
    matrices.  Input other than symmetric square matrices is a
    ``ShapeError``; an order above ``_GH_MAX_ORDER`` a ``CapabilityError``.
    """
    mats = _square_stack(a)
    n = mats.shape[-1]
    x, w, rest, rest_w = _gauss_hermite(n)
    iu, ju = np.triu_indices(n)
    # a_ii on the diagonal, a_ij + a_ji off it
    coef = mats[:, iu, ju] + mats[:, ju, iu]
    coef[:, iu == ju] *= 0.5
    # rows 0..n-1 are the monomials z_1 z_j, which change from slice to
    # slice; the others involve coordinates 2..n only
    monomials = np.empty((len(iu), rest.shape[1]))
    for k in range(n, len(iu)):
        np.multiply(rest[iu[k] - 1], rest[ju[k] - 1], out=monomials[k])
    total = np.zeros(len(mats))
    for x1, w1 in zip(x, w):
        monomials[0] = x1 * x1
        np.multiply(rest, x1, out=monomials[1:n])
        for lo in range(0, len(mats), _GH_STACK):
            q = coef[lo : lo + _GH_STACK] @ monomials
            np.negative(q, out=q)
            np.exp(q, out=q)
            total[lo : lo + _GH_STACK] += w1 * (q @ rest_w)
            del q  # freed before the next product is made
    lam = np.linalg.eigvalsh(mats)
    exact = np.exp(-0.5 * np.sum(np.log1p(lam), axis=1))
    if not (np.isfinite(total).all() and np.isfinite(exact).all()) or (exact <= 0).any():
        raise NumericFailure("quadrature produced a non-finite value")
    relerr = np.abs(total - exact) / exact
    if np.ndim(a) == 2:
        return float(total[0]), float(exact[0]), float(relerr[0])
    return total, exact, relerr


def gaussian_detcert_check(n: int, cfg: CheckConfig | None = None) -> CheckReport:
    """Quadrature validation of the square-root reciprocal determinant
    representation on random PSD matrices with operator norm at most 2;
    relative tolerance 1e-3 with the fixed tensor-product Gauss-Hermite rule
    of ``_GH_POINTS`` points per coordinate, for orders up to
    ``_GH_MAX_ORDER``.  The matrices are one PSD ``sample_batch``, each
    scaled to an operator norm drawn uniformly from [0.1, 2], then checked
    in one quadrature call."""
    cfg = cfg or CheckConfig()
    _require_quadrature_order(n)
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
