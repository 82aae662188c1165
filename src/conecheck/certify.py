"""Numeric certificates for sufficient conditions.

Unlike the randomized checks, these verify a *sufficient* condition (Hessian
entry signs, cross partials only, monotonicity of the differential, or an
explicit finite Laplace representation) on sampled interior points.  A
``CERTIFIED_NUMERIC`` verdict is sampled evidence, never a proof; the
vocabulary deliberately has no stronger word.

A sampled certificate is a check on the checks' one trial path,
``checkers._run_trials``, and gives its :class:`.checkers.CheckReport`, whose
``mode`` is the certificate's method: ``hessian-sign``, ``topkis`` or
``diff-monotone``, the keys of :data:`METHODS`.  The verdict of such a report
is derived from its witness as any report's is: ``REFUSED`` exactly when
there is one, ``CERTIFIED_NUMERIC`` otherwise.  Each pointwise test is a form
that :func:`.checkers.evaluate_expression` resolves: a Hessian entry
``hessian-nonpos[ij=i,j]`` or ``hessian-nonneg[ij=i,j]`` over the point
``p``, or a directional comparison ``differential-nondecreasing`` or
``differential-nonincreasing`` over ``U``, ``step`` and ``direction`` (the
stencil forms of :mod:`.diffops`); the origin sign condition of the
certified property is the checks' one-row ``origin-nonneg`` or
``origin-nonpos`` block.  A certificate samples ``cfg.trials`` points, 200
when no config is given, besides that block, so the report's ``trials``
counts the origin row too: 201 for a 200-point ``hessian-sign`` certificate
on a cone that holds the origin.  A Hessian form's row needs a vector cone,
which the trial path checks before it draws.  Each role is drawn from its
stream in the checks' role table, and the points are drawn, evaluated and
folded one block at a time, so memory does not grow with their count;
non-finite trials are skipped within the checks' 10% budget and counted in
the report's ``skipped``.  The witness is the fold's shrunk
:class:`.checkers.Witness`, which :func:`.checkers.reevaluate_witness`
replays exactly.  The Gaussian-integral representation of ``det(I +
A)^(-1/2)`` is the ``gaussian-det-representation`` expression, as in
``check("det-shift-recip", "gaussian-det-representation", dim=n)``: its role
``A`` holds PSD matrices scaled to operator norms in [0.1, 2], and a fixed
tensor-product Gauss-Hermite rule is summed one slice at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cones
from .catalog import resolve_handle
from .checkers import (  # CERTIFIED and REFUSED are re-exported beside the methods
    _LABELS,
    CERTIFIED,
    REFUSED,
    CheckConfig,
    CheckReport,
    _run_trials,
    _Target,
)
from .cones import ConeSpec, Point
from .diffops import FunctionHandle
from .errors import CapabilityError, CertificateError, NumericFailure, ParameterError, ShapeError
from .numkernel import linear, rowwise

_DUAL_TOL = 1e-12


def _claim(method: str, target, arg: str, params, dim) -> tuple:
    """The handle of ``target`` and the property that ``arg`` certifies by
    ``method``; a ``ParameterError`` unless ``arg`` is one of its choices."""
    handle = resolve_handle(target, params, dim)
    _, name, props = METHODS[method]
    if arg not in props:
        raise ParameterError(f"{name} must be {' or '.join(map(repr, props))}, got {arg!r}")
    return handle, props[arg]


def _certify(handle, method: str, prop: str, cfg, expressions) -> CheckReport:
    """The report of a certificate on the checks' trial path: the origin sign
    condition of ``prop`` when the cone holds the origin, then ``cfg.trials``
    trials of every expression, or 200 when ``cfg`` is None, all in one
    rung.  The witness is the fold's: the lowest violating slack,
    re-evaluated and shrunk."""
    cfg = cfg or CheckConfig(trials=200)
    rep = _run_trials([_Target(handle, prop, expressions, _LABELS[prop][0])], cfg,
                      lambda _: [(cfg, 0, cfg.trials)])[0]
    return replace(rep, mode=method)


def certify_hessian_sign(
    target, sign: str, cfg: CheckConfig | None = None, *, params=None, dim=None,
) -> CheckReport:
    """All second partials share the requested sign at sampled interior
    points of a vector cone, plus the origin sign condition; certifies the
    strong subadditivity (nonpos) or superadditivity (nonneg) sufficient
    condition.  Matrix domains use differential monotonicity instead."""
    handle, prop = _claim("hessian-sign", target, sign, params, dim)
    entries = zip(*np.triu_indices(handle.domain.dim))
    return _certify(handle, "hessian-sign", prop, cfg,
                    [f"hessian-{sign}[ij={i},{j}]" for i, j in entries])


def certify_topkis(
    target, mode: str, cfg: CheckConfig | None = None, *, params=None, dim=None,
) -> CheckReport:
    """Cross-partial-only form on a vector cone: off-diagonal second partials
    nonpositive certifies submodularity, nonnegative certifies
    supermodularity."""
    handle, prop = _claim("topkis", target, mode, params, dim)
    sign = "nonneg" if mode == "supermodular" else "nonpos"
    entries = list(zip(*np.triu_indices(handle.domain.dim, 1)))
    if not entries:
        # with no cross partial to sample, a certificate would rest on nothing
        raise CapabilityError("a Topkis certificate needs a domain of dimension 2 or more")
    return _certify(handle, "topkis", prop, cfg,
                    [f"hessian-{sign}[ij={i},{j}]" for i, j in entries])


def certify_differential_monotone(
    target, direction: str, cfg: CheckConfig | None = None, *, params=None, dim=None,
) -> CheckReport:
    """Directional derivatives compared on ordered pairs u <= u + v along
    positive directions w, plus the origin sign condition: nonincreasing
    differentials certify strong subadditivity, nondecreasing ones strong
    superadditivity."""
    handle, prop = _claim("diff-monotone", target, direction, params, dim)
    return _certify(handle, "diff-monotone", prop, cfg, [f"differential-{direction}"])


# each method, the mode of its reports: its function, the name of that
# function's argument, and the argument's choices with the property each certifies
METHODS = {
    "hessian-sign": (certify_hessian_sign, "sign",
                     {"nonpos": "strong-subadd", "nonneg": "strong-superadd"}),
    "topkis": (certify_topkis, "mode",
               {"submodular": "submodular", "supermodular": "supermodular"}),
    "diff-monotone": (certify_differential_monotone, "direction",
                      {"nonincreasing": "strong-subadd", "nondecreasing": "strong-superadd"}),
}


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
    # a matrix atom pairs by the trace, the dot product of the flattened entries
    locs = [u.data.ravel() for _, u in cert.atoms]

    def batch(rows):
        flat = rows.reshape(len(rows), -1)
        return linear(np.stack([np.exp(-linear(flat, u)) for u in locs], axis=1), weights)

    return FunctionHandle(f"laplace-mixture[{len(cert.atoms)} atoms]", cone, batch)


# ---------------------------------------------------------------------------
# quadrature validation of the beta = 1/2 determinant representation
# ---------------------------------------------------------------------------

# Gauss-Hermite points per coordinate: the rule integrates polynomials of
# degree up to 2 * 24 - 1 in each coordinate exactly
_GH_POINTS = 24
# the highest order of the quadrature; a slice holds 24^(order - 1) nodes
_GH_MAX_ORDER = 4
# matrix elements per stack of the quadrature, 4 matrices of 24^3 nodes:
# each stack holds ``_GH_PRODUCT // 24^(n-1)`` matrices, which bounds its
# three temporaries to about 0.4 MiB each whatever the number of matrices;
# larger stacks ran orders 3 and 4 slower
_GH_PRODUCT = 4 * _GH_POINTS ** 3


def _gauss_hermite(n: int) -> tuple:
    """The order-``n`` tensor-product Gauss-Hermite rule for the density
    ``exp(-|z|^2) / pi^(n/2)``, split into slices: the ``_GH_POINTS`` nodes
    and weights of the first coordinate, then the ``(n - 1, 24^(n-1))``
    nodes of the others and their product weights, shared by every slice."""
    if n > _GH_MAX_ORDER:
        raise CapabilityError(f"the quadrature validation supports orders up to {_GH_MAX_ORDER}")
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
    one pair of slices at a time: a slice fixes the first coordinate at one
    node and runs over the ``24^(n-1)`` nodes of the others, and the nodes
    +-z_1 share all but a ``cosh``.  Each quadratic form ``z^T A z`` is a
    linear map on the monomials ``z_i z_j`` (``i <= j``), folded over the
    monomials for up to ``_GH_PRODUCT // 24^(n-1)`` matrices at once; each
    matrix's weighted sum over the nodes is a reduction of its own row, so
    its estimate has the same bits alone and in any stack.
    Input other than symmetric square matrices is a ``ShapeError``; an order
    above ``_GH_MAX_ORDER`` a ``CapabilityError``.
    """
    mats = _square_stack(a)
    n = mats.shape[-1]
    x, w, rest, rest_w = _gauss_hermite(n)
    iu, ju = np.triu_indices(n)
    # -a_ii on the diagonal, -(a_ij + a_ji) off it; one row per monomial
    coef = -0.5 * (mats[:, iu, ju] + mats[:, ju, iu]).T
    coef[iu != ju] *= 2.0
    total = np.zeros(len(mats))
    stack = _GH_PRODUCT // rest.shape[1]
    parts = np.empty((2, min(stack, len(mats)), rest.shape[1]))
    q, mono = np.empty_like(parts[0]), np.empty_like(rest_w)
    for lo in range(0, len(mats), stack):
        hi = min(lo + stack, len(mats))
        # with z_1 fixed by a slice, -z^T A z = -a_11 z_1^2 + z_1 lin + quad,
        # where lin and quad fold over the monomials, each taken without its
        # z_1: z_j for k < n, a product of coordinates 2..n after that
        ps, qs = parts[:, : hi - lo], q[: hi - lo]
        ps.fill(0.0)
        for k in range(1, len(iu)):
            m_k = rest[k - 1] if k < n else np.multiply(rest[iu[k] - 1], rest[ju[k] - 1], out=mono)
            ps[int(k >= n)] += np.multiply(coef[k, lo:hi, None], m_k, out=qs)
        np.exp(ps[1], out=ps[1])
        ps[1] *= rest_w
        # the rule is symmetric, so the slices at +-z_1 add up to
        # 2 exp(-a_11 z_1^2) sum(cosh(z_1 lin) exp(quad) w); each row's
        # sum is its own reduction, so a matrix's estimate has the same
        # bits in any stack
        for x1, w1 in zip(x[_GH_POINTS // 2 :], w[_GH_POINTS // 2 :]):
            np.multiply(ps[0], x1, out=qs)
            np.cosh(qs, out=qs)
            qs *= ps[1]
            total[lo:hi] += 2.0 * w1 * np.exp(coef[0, lo:hi] * (x1 * x1)) * rowwise(np.add, qs)
    lam = np.linalg.eigvalsh(mats)
    exact = np.exp(-0.5 * rowwise(np.add, np.log1p(lam)))
    if not (np.isfinite(total).all() and np.isfinite(exact).all()) or (exact <= 0).any():
        raise NumericFailure("quadrature produced a non-finite value")
    relerr = np.abs(total - exact) / exact
    if np.ndim(a) == 2:
        return float(total[0]), float(exact[0]), float(relerr[0])
    return total, exact, relerr
