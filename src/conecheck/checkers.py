"""Randomized property checks with reproducible witnesses.

A check draws trial points from the target's domain cone, evaluates the
inequality components of the requested property on every trial, and reports
the worst slack seen.  A check's verdict is only ever ``NO_VIOLATION_FOUND``
or ``VIOLATION_FOUND``: sampling cannot prove a universally quantified
inequality.  The sampled certificates of :mod:`conecheck.certify` give the
same report, which reads ``CERTIFIED_NUMERIC`` or ``REFUSED``.  The verdict
is derived from the report's witness, so the two cannot disagree.

Slack convention: every inequality is normalized to ``slack >= 0``; a trial
is a violation iff ``slack < -cfg.tolerance(s)`` where ``s`` is the largest
absolute function value involved in that trial.

A :class:`Claim` names its mode, ``check``, ``refute`` or a certificate
method, which decides its sampled trials.  :func:`check_claims` runs every
claim, and every sampled claim and the quadrature check run on one trial
path, :func:`_run_trials`: an optional one-row origin block, then blocks of
sampled trials, each drawing the roles its expressions read and folded into
a :class:`_Fold`.  The same path serves several claims on one cone with
equal rungs at once: each block of a role is drawn once, and every claim's
components are evaluated on it and folded into that claim's own fold, so
each claim gets the report it would get alone.  Each inequality is one
vectorized form, evaluated on every trial, on one row to re-evaluate a
witness, and on every candidate of a shrinking sweep; stored witness
margins come from the one-row path, so they reproduce exactly.

Determinism: every role is drawn from its own Philox stream, keyed by
``(config.seed, its stream in _ROLES)``, so identical configurations produce
byte-identical reports.  Trials are drawn, evaluated and folded in blocks of
``_BLOCK``; block ``b`` of a stream starts at Philox counter ``[0, 0, 0, b]``,
so memory does not grow with the trial count and a check of at most
``_BLOCK`` trials draws exactly what one unblocked stream would.
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import cones
from .catalog import PropertyLabel, resolve_handle
from .cones import VECTOR, ConeSpec, Point, Rng
from .diffops import (
    MAX_DIFF_ORDER,
    FunctionHandle,
    _abs_max,
    _completely_monotone,
    _completely_monotone_orders,
    _derivative_change,
    _first_diff,
    _hessian_entry,
    _one_row,
    _second_diff,
    compose,
)
from .errors import (
    CapabilityError,
    DomainError,
    NumericFailure,
    ParameterError,
    PreconditionError,
    ShapeError,
)
from .numkernel import ScalarFunction, rowwise

NO_VIOLATION = "NO_VIOLATION_FOUND"
VIOLATION = "VIOLATION_FOUND"
# the verdicts of a report whose mode is a certificate method
CERTIFIED = "CERTIFIED_NUMERIC"
REFUSED = "REFUSED"

# the streams of the Popoviciu check's monotonicity spot check; those of the
# trials' roles are in ``_ROLES``
_STREAM_SPOT_U, _STREAM_SPOT_V = 20, 21

_SKIP_BUDGET = 0.10
# trials drawn, evaluated and folded at a time
_BLOCK = 2 ** 14
_SHRINK_CAP = 200

_TOL_ABS = 1e-9
_TOL_REL = 1e-12

# the sampling scales refute() runs, as multiples of CheckConfig.scale
SCALE_LADDER = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class CheckConfig:
    """Knobs shared by every randomized check."""

    trials: int = 10000
    scale: float = 1.0
    seed: int = 0
    order_cap: int = 5
    boundary_prob: float = 0.2

    def __post_init__(self):
        for name in ("trials", "seed", "order_cap", "scale", "boundary_prob"):
            value, whole = getattr(self, name), name not in ("scale", "boundary_prob")
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if whole else numbers.Real):
                raise ParameterError(
                    f"{name} must be {'an integer' if whole else 'a number'}, got {value!r}")
            try:
                # numpy numbers become ints and floats, which reports serialize
                object.__setattr__(self, name, int(value) if whole else float(value))
            except OverflowError:
                raise ParameterError(f"{name} is too large for a float") from None
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if not 0 < self.scale < np.inf:
            raise ParameterError(f"scale must be finite and positive, got {self.scale!r}")
        if not 1 <= self.order_cap <= MAX_DIFF_ORDER:
            raise ParameterError(f"order_cap must lie in 1..{MAX_DIFF_ORDER}")
        if not 0.0 <= self.boundary_prob < 1.0:
            raise ParameterError("boundary_prob must lie in [0, 1)")

    def tolerance(self, s):
        """The violation threshold at value scale ``s``, fixed at ``1e-9 +
        1e-12 s``: a slack below ``-tolerance(s)`` is a violation."""
        return _TOL_ABS + _TOL_REL * s

    def to_json(self) -> dict:
        """The fields plus the fixed tolerances and ``shrink``, always on."""
        return {
            "trials": self.trials,
            "scale": self.scale,
            "tol_abs": _TOL_ABS,
            "tol_rel": _TOL_REL,
            "seed": self.seed,
            "order_cap": self.order_cap,
            "shrink": True,
            "boundary_prob": self.boundary_prob,
        }


@dataclass(frozen=True)
class Witness:
    """A re-evaluable counterexample: named points, the violated inequality,
    and the slack it produces (negative)."""

    points: dict
    margin: float
    expression: str

    def to_json(self) -> dict:
        return {
            "points": {k: v.to_json() for k, v in sorted(self.points.items())},
            "margin": self.margin,
            "expression": self.expression,
        }


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a randomized check, refutation or sampled certificate.

    ``worst_margin`` is the most negative slack seen; when a violation is
    found it equals the witness margin (after shrinking).  ``trials_run``
    counts every folded trial, the origin row included, and ``skipped`` the
    non-finite ones among them.  ``mode`` is the mode of the claim that made
    the report: ``check``, ``refute`` or a certificate method of
    :data:`METHODS`.  The verdict
    is derived from the witness: ``VIOLATION_FOUND`` exactly when there is
    one, read ``REFUSED`` (and ``NO_VIOLATION_FOUND`` read
    ``CERTIFIED_NUMERIC``) when the mode is a certificate method.
    """

    property: str
    trials_run: int
    worst_margin: float
    witness: Witness | None
    skipped: int
    config: CheckConfig
    mode: str = "check"

    @property
    def verdict(self) -> str:
        held, broken = ((NO_VIOLATION, VIOLATION) if self.mode in ("check", "refute")
                        else (CERTIFIED, REFUSED))
        return held if self.witness is None else broken

    @property
    def found_violation(self) -> bool:
        return self.witness is not None

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "verdict": self.verdict,
            "trials": self.trials_run,
            "worst_margin": self.worst_margin,
            "witness": self.witness.to_json() if self.witness else None,
            "skipped": self.skipped,
            "config": self.config.to_json(),
            "mode": self.mode,
        }

    def json_line(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# inequality forms
#
# Each inequality is written once, as a form: a function of a handle and
# named role arrays of R rows (``zero`` and the roles of ``_ROLES``: ``x``,
# ``y``, ``z``, ``base``, ``x1..xk``, and the certificates' ``p``, ``U``,
# ``step``, ``direction`` and ``A``) that returns ``(slack, scale)``, two
# arrays of R values, with ``scale`` the largest absolute value the tolerance
# is relative to.  The trials call a form on every sampled row, witness
# re-evaluation on one row, and shrinking on every candidate of a sweep.
# Each expression name has one row of ``_FORMS``: its form, the sign of its
# slack, the form's argument or the parser of its bracketed one, the roles it
# reads, its point roles and the cone it needs.  The difference forms,
# ``_first_diff``, ``_second_diff`` and ``_completely_monotone``, and the
# certificates' stencil forms, ``_hessian_entry`` and ``_derivative_change``,
# live in :mod:`.diffops`.
# ---------------------------------------------------------------------------


def _comonotone(handle, r):
    """The second difference where ``(x, y)`` is comonotone, NaN elsewhere:
    the hypothesis is part of the form."""
    sd, scale = _second_diff(handle, r)
    return np.where(cones.comonotonic_batch(r["x"], r["y"]), sd, np.nan), scale


def _additivity(handle, r):
    vx, vy, vxy = handle.batch(r["x"]), handle.batch(r["y"]), handle.batch(r["x"] + r["y"])
    return vx + vy - vxy, _abs_max(vx, vy, vxy)


def _modular(handle, r):
    x, y = r["x"], r["y"]
    vx, vy = handle.batch(x), handle.batch(y)
    vhi, vlo = handle.batch(np.maximum(x, y)), handle.batch(np.minimum(x, y))
    return (vx + vy) - (vhi + vlo), _abs_max(vx, vy, vhi, vlo)


def _origin(handle, r):
    v = handle.batch(r["zero"])
    return v, np.abs(v)


def _alpha_strong(alpha: float, handle, r):
    sd, _ = _second_diff(handle, r)
    prod = alpha * r["x"][:, 0] * r["y"][:, 0]
    return sd - prod, _abs_max(sd, prod)


def _lipschitz_box(lip: float, handle, r):
    sd, _ = _second_diff(handle, r)
    prod = lip * r["x"][:, 0] * r["y"][:, 0]
    return prod - np.abs(sd), _abs_max(sd, prod)


def _symmetrized(handle, r):
    """The symmetrized three-point combination ``(f(x) + f(y) + f(z)) / 3 +
    f(x+y+z) - 2/3 (f(x+y) + f(y+z) + f(x+z))``."""
    x, y, z = r["x"], r["y"], r["z"]
    fx, fy, fz, fxyz = handle.batch(x), handle.batch(y), handle.batch(z), handle.batch(x + y + z)
    fxy, fyz, fxz = handle.batch(x + y), handle.batch(y + z), handle.batch(x + z)
    vals = (fx, fy, fz, fxyz, fxy, fyz, fxz)
    slack = (fx + fy + fz) / 3.0 + fxyz - (2.0 / 3.0) * (fxy + fyz + fxz)
    return slack, _abs_max(*vals)


def _gaussian_representation(tol: float, handle, r):
    """``tol`` minus the relative error of the Gauss-Hermite estimate of
    ``det(I + A)^(-1/2)``; the slack is relative already, so its scale is 0."""
    from .certify import gaussian_representation_margin  # certify imports this module

    _, _, relerr = gaussian_representation_margin(r["A"])
    return tol - relerr, np.zeros_like(relerr)


def _entry(arg: str) -> tuple:
    """The matrix entry ``(i, j)`` of the argument ``ij=i,j``."""
    ij = tuple(int(v) for v in arg.split(","))
    if len(ij) != 2:
        raise ValueError("an entry needs two indices")
    return ij


def _positive(arg: str) -> float:
    """The argument ``alpha`` or ``L``, finite and positive."""
    value = float(arg)
    if not 0 < value < np.inf:
        raise ValueError("it must be finite and positive")
    return value


def _order(arg: str) -> int:
    """The difference order ``k``, at most ``MAX_DIFF_ORDER``."""
    k = int(arg)
    if not 0 <= k <= MAX_DIFF_ORDER:
        raise ValueError(f"it must lie in 0..{MAX_DIFF_ORDER}")
    return k


# the cones a row may need: a vector cone has coordinatewise order, minimum
# and maximum; a one-dimensional one has scalar products of its points; the
# PSD cone has the matrices the quadrature integrates over, of an order its
# rule supports
_VECTOR_CONE, _SCALAR_CONE, _PSD_CONE = (
    "a vector cone", "a one-dimensional vector cone", "the PSD cone")


def _cone_need(need: str) -> tuple:
    """A row's cone requirement in words, and the largest dimension, or
    matrix order, of a cone that meets it."""
    if need == _PSD_CONE:
        from .certify import _GH_MAX_ORDER  # certify imports this module

        return f"{need} of order at most {_GH_MAX_ORDER}", _GH_MAX_ORDER
    return need, 1 if need == _SCALAR_CONE else np.inf


class _Row(NamedTuple):
    """One inequality.  ``form(handle, r)``, or ``form(arg, handle, r)`` when
    the row binds ``arg`` or parses it from the expression's brackets with
    ``parse``, gives the slack, which is negated when ``sign`` is -1.
    ``reads`` are the ``_ROLES`` keys it reads (a function of the argument for
    the completely-monotone form); ``points`` the roles it evaluates the
    handle at by themselves, not only as a step added to another point: a
    skipped trial whose non-finite value may come from the cone's apex is one
    with such a role there.  ``cone`` is the cone it needs, any when None."""

    form: object
    reads: object
    points: tuple
    sign: float = 1.0
    arg: object = None
    parse: object = None
    cone: str | None = None


_XY, _XYZ, _STEP = ("x", "y"), ("x", "y", "z"), ("U", "step")
# expression name -> its row
_FORMS = {
    "subadd": _Row(_additivity, _XY, _XY),
    "superadd": _Row(_additivity, _XY, _XY, sign=-1.0),
    "second-diff-nonpos": _Row(_second_diff, _XYZ, ("z",), sign=-1.0),
    "second-diff-nonneg": _Row(_second_diff, _XYZ, ("z",)),
    "comonotone-strong-superadd": _Row(_comonotone, (_XY, "z"), ("z",), cone=_VECTOR_CONE),
    "submodular": _Row(_modular, _XY, _XY, cone=_VECTOR_CONE),
    "supermodular": _Row(_modular, _XY, _XY, sign=-1.0, cone=_VECTOR_CONE),
    "origin-nonneg": _Row(_origin, ("zero",), ("zero",)),
    "origin-nonpos": _Row(_origin, ("zero",), ("zero",), sign=-1.0),
    "nondecreasing": _Row(_first_diff, _STEP, ("U",)),
    "symmetrized-nonneg": _Row(_symmetrized, _XYZ, _XYZ),
    "symmetrized-nonpos": _Row(_symmetrized, _XYZ, _XYZ, sign=-1.0),
    "differential-nondecreasing": _Row(_derivative_change, _STEP + ("direction",), ()),
    "differential-nonincreasing": _Row(_derivative_change, _STEP + ("direction",), (), sign=-1.0),
    "gaussian-det-representation": _Row(
        _gaussian_representation, ("A",), (), arg=1e-3, cone=_PSD_CONE),
    "completely-monotone": _Row(
        _completely_monotone, lambda k: ("base",) + tuple(f"x{i + 1}" for i in range(k)),
        ("base",), parse=_order),
    "alpha-strong": _Row(_alpha_strong, _XYZ, ("z",), parse=_positive, cone=_SCALAR_CONE),
    "lipschitz-box": _Row(_lipschitz_box, _XYZ, ("z",), parse=_positive, cone=_SCALAR_CONE),
    "hessian-nonpos": _Row(_hessian_entry, ("p",), (), sign=-1.0, parse=_entry, cone=_VECTOR_CONE),
    "hessian-nonneg": _Row(_hessian_entry, ("p",), (), parse=_entry, cone=_VECTOR_CONE),
}
# property label -> its origin sign condition (checked when the cone holds the
# origin), then its components' expressions; a completely-monotone check has
# one per order up to ``order_cap``
_LABELS = {
    "subadd": ("origin-nonneg", "subadd"),
    "superadd": ("origin-nonpos", "superadd"),
    "strong-subadd": ("origin-nonneg", "subadd", "second-diff-nonpos"),
    "strong-superadd": ("origin-nonpos", "superadd", "second-diff-nonneg"),
    "second-diff-nonpos": (None, "second-diff-nonpos"),
    "second-diff-nonneg": (None, "second-diff-nonneg"),
    "submodular": (None, "submodular"),
    "supermodular": (None, "supermodular"),
    "comonotone-strong-superadd": ("origin-nonpos", "comonotone-strong-superadd"),
    "completely-monotone": (None,),
}


def _hessian(sign: str, offset: int):
    """The Hessian entries on and above the diagonal (``offset`` 0) or above
    it (1) of a cone of dimension n, as expressions."""
    return lambda n: [f"hessian-{sign}[ij={i},{j}]" for i, j in zip(*np.triu_indices(n, offset))]


# certificate method, the mode of its claims -> the name of its argument, and
# for each choice the property it certifies and its components on a cone of
# dimension n; the method's rows are claims only through its mode
METHODS = {
    "hessian-sign": ("sign", {"nonpos": ("strong-subadd", _hessian("nonpos", 0)),
                              "nonneg": ("strong-superadd", _hessian("nonneg", 0))}),
    "topkis": ("mode", {"submodular": ("submodular", _hessian("nonpos", 1)),
                        "supermodular": ("supermodular", _hessian("nonneg", 1))}),
    "diff-monotone": ("direction", {
        "nonincreasing": ("strong-subadd", lambda n: ["differential-nonincreasing"]),
        "nondecreasing": ("strong-superadd", lambda n: ["differential-nondecreasing"])}),
}
_EXPR_PARAM = re.compile(r"^(?P<name>[a-z0-9-]+)(\[(?P<arg>[^\]=]*=[^\]]*)\])?$")


class _Form(NamedTuple):
    """A parsed expression: its row, with the argument bound."""

    expression: str
    row: _Row
    arg: object

    def __call__(self, handle, r):
        row = self.row
        slack, scale = row.form(handle, r) if self.arg is None else row.form(self.arg, handle, r)
        return (-slack if row.sign < 0 else slack), scale

    @property
    def keys(self) -> tuple:
        """The ``_ROLES`` keys it reads."""
        reads = self.row.reads
        return reads(self.arg) if callable(reads) else reads

    @property
    def names(self) -> tuple:
        """The roles it reads: a pair key names both its roles."""
        return tuple(n for key in self.keys for n in (key if isinstance(key, tuple) else (key,)))


def _form(expression: str, cone: ConeSpec | None = None) -> _Form:
    """The form of a witness expression, with its parameters bound; an
    argument its row's parser refuses, as out of range or malformed, raises
    :class:`ParameterError`.  Given a ``cone``, a row that needs a kind or
    size of cone that it is not, such as the quadrature on a PSD cone of an
    order its rule does not support, raises :class:`CapabilityError`, and a
    Hessian entry outside its coordinates :class:`ParameterError`."""
    m = _EXPR_PARAM.match(expression)
    if not m:
        raise ParameterError(f"malformed expression {expression!r}")
    row, arg = _FORMS.get(m.group("name")), m.group("arg")
    if row is None or (arg is None) != (row.parse is None):
        raise ParameterError(f"unknown expression {expression!r}")
    value = row.arg
    if arg is not None:
        try:
            value = row.parse(arg.split("=")[1])
        except ValueError as exc:
            raise ParameterError(
                f"malformed argument in the expression {expression!r}: {exc}") from None
    if cone is None:
        return _Form(expression, row, value)
    # the PSD cone is the one cone whose points are not vectors
    need = row.cone
    if need:
        words, largest = _cone_need(need)
        if (cone.point_kind == VECTOR) == (need == _PSD_CONE) or cone.dim > largest:
            raise CapabilityError(f"{expression!r} needs {words}, not {cone.family}({cone.dim})")
    if row.parse is _entry and not all(0 <= i < cone.dim for i in value):
        raise ParameterError(f"{expression!r} names an entry outside {cone.family}({cone.dim})")
    return _Form(expression, row, value)


def evaluate_expression(handle: FunctionHandle, expression: str, points: dict):
    """Evaluate a witness expression at named points: returns ``(slack, s)``
    and raises :class:`DomainError` on a non-finite value.  The expression
    must fit the handle's domain as on the trial path (see :func:`_form`).

    This is the one-row case of the expression's form and the authoritative
    witness path: check() re-evaluates every found violation through it, so
    stored witness margins reproduce exactly.
    """
    return _one_row(handle, _form(expression, handle.domain), points)


def reevaluate_witness(handle: FunctionHandle, witness: Witness) -> float:
    """Recompute the witness margin from its stored points.  A three-point
    witness re-evaluates on ``diffops.compose(f, handle)``."""
    slack, _ = evaluate_expression(handle, witness.expression, witness.points)
    return slack


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def _shrink_candidates(current: dict, names: list, floor: np.ndarray):
    """The candidates of one sweep, in order: for each role and each nonzero
    coordinate (upper-triangle pairs, set symmetrically, for matrices), the
    coordinate set to 0, then halved; none below ``floor``.  Returns the
    index into ``names`` of the role each candidate changes, and its
    changed point."""
    owners, changed = [], []
    for k, name in enumerate(names):
        data = current[name]
        idx = np.triu_indices(data.shape[0]) if data.ndim == 2 else (np.arange(data.shape[0]),)
        vals = data[idx]
        nz = np.flatnonzero(vals)
        new = np.column_stack([np.zeros(nz.size), 0.5 * vals[nz]]).ravel()
        coord = np.repeat(nz, 2)
        allowed = new >= floor[idx][coord]
        new, coord = new[allowed], coord[allowed]
        cand = np.repeat(data[None], new.size, axis=0)
        at = np.arange(new.size)
        cand[(at,) + tuple(i[coord] for i in idx)] = new
        cand[(at,) + tuple(i[coord] for i in reversed(idx))] = new
        owners.append(np.full(new.size, k))
        changed.append(cand)
    return np.concatenate(owners), np.concatenate(changed)


def _shrink(handle, expression: str, points: dict, margin: float, scale: float):
    """Greedy on-cone reduction of a witness, one batched form call per sweep.

    A sweep builds every candidate of :func:`_shrink_candidates`, drops those
    whose changed point leaves the cone, evaluates the rest with one form
    call, and accepts the first whose slack is finite and at most the
    ceiling; a form is NaN where its own hypothesis, such as a comonotone
    pair, fails.  The ceiling is the found margin plus a one-ulp-scale
    wobble, so flat directions still collapse toward the origin but
    shrinking never weakens the violation.
    No coordinate goes below the open orthant's sampling floor at ``scale``,
    so a violation that grows without bound near the boundary cannot spend
    the step budget on the float range.  Capped at 200 accepted steps.

    The shrunk witness is kept only when its one-row re-evaluation stays
    under the ceiling, so the returned margin is what
    :func:`reevaluate_witness` gives.
    """
    cone = handle.domain
    form = _form(expression, cone)
    floor = cones.coordinate_floor(cone, scale)
    ceiling = margin + 1e-12 * max(1.0, abs(margin))
    names = sorted(points)
    current = {name: points[name].data for name in names}
    steps = 0
    while steps < _SHRINK_CAP:
        owner, changed = _shrink_candidates(current, names, floor)
        if owner.size == 0:
            break
        roles = {}
        for k, name in enumerate(names):
            roles[name] = np.repeat(current[name][None], owner.size, axis=0)
            roles[name][owner == k] = changed[owner == k]
        rows = np.flatnonzero(cones.member_batch(cone, changed))
        if rows.size == 0:
            break
        slack, s = form(handle, {name: arr[rows] for name, arr in roles.items()})
        ok = np.isfinite(slack) & np.isfinite(s) & (slack <= ceiling)
        if not ok.any():
            break
        best = rows[np.argmax(ok)]
        current = {name: roles[name][best] for name in names}
        steps += 1
    if steps == 0:
        return points, margin
    shrunk = {name: Point(points[name].kind, current[name], _validated=True) for name in names}
    try:
        shrunk_margin, _ = evaluate_expression(handle, expression, shrunk)
    except DomainError:
        return points, margin
    if shrunk_margin <= ceiling:
        return shrunk, shrunk_margin
    return points, margin


# ---------------------------------------------------------------------------
# the trial path: the role table, blocks of trials and their fold
# ---------------------------------------------------------------------------


def _boundary(cone: ConeSpec, cfg: CheckConfig, rng: Rng, count: int) -> np.ndarray:
    """Cone members with coordinates zeroed at the config's boundary
    probability."""
    return cones.sample_batch(cone, rng, count, cfg.scale, cfg.boundary_prob)


def _no_boundary(cone: ConeSpec, cfg: CheckConfig, rng: Rng, count: int) -> np.ndarray:
    """Cone members with no coordinate zeroed on purpose."""
    return cones.sample_batch(cone, rng, count, cfg.scale, 0.0)


def _interior_batch(cone: ConeSpec, cfg: CheckConfig, rng: Rng, count: int) -> np.ndarray:
    """Samples pushed away from the boundary so finite-difference stencils
    stay inside the cone."""
    out = _no_boundary(cone, cfg, rng, count)
    pad = 0.05 * cfg.scale
    if cone.family == cones.PSD_CONE:
        out = out + pad * np.eye(cone.dim)
    elif cone.family != cones.FULL_SPACE:
        out = out + pad
    return out


def _comonotone_pair(cone: ConeSpec, cfg: CheckConfig, rng: Rng, count: int) -> tuple:
    """A comonotone pair ``(x, y)`` of each trial; raising both to the
    open orthant's floor keeps it comonotone."""
    floor = cones.coordinate_floor(cone, cfg.scale)
    return tuple(np.maximum(a, floor)
                 for a in cones.comonotone_pair_batch(cone.dim, rng, count, cfg.scale))


def _scaled_psd(cone: ConeSpec, cfg: CheckConfig, rng: Rng, count: int) -> np.ndarray:
    """One PSD ``sample_batch`` at scale 1, each matrix then scaled to an
    operator norm drawn uniformly from [0.1, 2] by the same stream."""
    mats = cones.sample_batch(cone, rng, count)
    lam_max = np.linalg.eigvalsh(mats)[:, -1]
    mats *= (2.0 * rng.generator.uniform(0.05, 1.0, size=count) / lam_max)[:, None, None]
    return mats


# role -> (its Philox stream, how it is drawn); the key ("x", "y") draws the
# comonotone pair into both roles.  A refutation offsets every stream per rung
_ROLES = {
    "x": (1, _boundary),
    "y": (2, _boundary),
    "z": (3, _boundary),
    "base": (4, _boundary),
    ("x", "y"): (5, _comonotone_pair),
    **{f"x{i + 1}": (8 + i, _boundary) for i in range(MAX_DIFF_ORDER)},
    "p": (41, _interior_batch),
    "U": (41, _interior_batch),
    "step": (42, _no_boundary),
    "direction": (43, _interior_batch),
    "A": (44, _scaled_psd),
}


@dataclass
class _Component:
    form: _Form
    slack: np.ndarray  # (T,)
    scale: np.ndarray  # (T,)
    roles: dict  # role name -> (T, ...) point data


def _components(handle, forms: list[_Form], roles: dict) -> list[_Component]:
    """Each form on the role arrays, with the roles it reads.  The
    completely-monotone orders share one pass over their subset points,
    which gives each order the bits of its own form."""
    orders = [f.arg for f in forms if f.row.form is _completely_monotone]
    if orders:
        cm = _completely_monotone_orders(max(orders), handle, roles)
    comps = []
    for form in forms:
        if form.row.form is _completely_monotone:
            slack, scale = cm[0][form.arg], cm[1][form.arg]
        else:
            slack, scale = form(handle, roles)
        comps.append(_Component(form, slack, scale, {n: roles[n] for n in form.names}))
    return comps


def _at_undefined_apex(handle: FunctionHandle, comps: list[_Component]) -> np.ndarray:
    """The trials where some component evaluates the handle at the cone's
    apex, the origin, as one of its point roles, when the handle is
    undefined there (all false otherwise).  A zero step puts no point at the
    apex."""
    at = np.zeros(comps[0].slack.shape, dtype=bool)
    if np.isfinite(handle.batch(handle.domain.zero().data[None]))[0]:
        return at
    for c in comps:
        for role in c.form.row.points:
            arr = c.roles[role]
            at |= ~rowwise(np.logical_or, arr.reshape(arr.shape[0], -1))
    return at


@dataclass
class _Fold:
    """One target's trials folded so far: the trial, skip and undefined-apex
    skip counts, the lowest finite slack, and the lowest violating candidate
    ``(slack, expression, points, sampling scale)``, which keeps its block's
    scale for the shrinking floor.  Blocks fold one at a time, so cutting
    the same trials into other blocks gives the same report."""

    handle: FunctionHandle
    total: int = 0
    skipped: int = 0
    at_apex: int = 0
    worst: float = np.inf
    best: tuple | None = None

    def add(self, comps: list[_Component], cfg: CheckConfig, scale: float) -> None:
        """Fold one block of components drawn at sampling scale ``scale``.  A
        trial is skipped when any component is non-finite on it; ties keep
        the earlier candidate."""
        handle = self.handle
        finite = np.ones(comps[0].slack.shape, dtype=bool)
        for c in comps:
            finite &= np.isfinite(c.slack) & np.isfinite(c.scale)
        skipped = int(finite.size - finite.sum())
        self.total += finite.size
        self.skipped += skipped
        if skipped:
            self.at_apex += int((~finite & _at_undefined_apex(handle, comps)).sum())
        for c in comps:
            sl = np.where(finite, c.slack, np.inf)
            self.worst = min(self.worst, float(sl.min()))
            viol = sl < -cfg.tolerance(c.scale)
            if viol.any():
                idx = int(np.argmin(np.where(viol, sl, np.inf)))
                if self.best is None or sl[idx] < self.best[0]:
                    pts = {role: Point(handle.domain.point_kind, arr[idx], _validated=True)
                           for role, arr in c.roles.items()}
                    self.best = (float(sl[idx]), c.form.expression, pts, scale)

    def finish(self, prop_name: str, cfg: CheckConfig, mode: str = "check") -> CheckReport:
        """The report: the best candidate re-evaluated and shrunk into the
        witness, or the skip budget enforced.  One skip budget covers all
        trials; skips with a role point at the cone's apex, where the handle
        is undefined, count in ``skipped`` but not against the budget."""
        handle, worst, witness = self.handle, self.worst, None
        if self.best is not None:
            # a re-evaluated witness is sound whatever the skip count
            _, expression, pts, scale = self.best
            margin, _ = evaluate_expression(handle, expression, pts)
            pts, margin = _shrink(handle, expression, pts, margin, scale)
            witness = Witness(points=pts, margin=margin, expression=expression)
            worst = margin
        elif self.skipped - self.at_apex > _SKIP_BUDGET * self.total:
            raise NumericFailure(
                f"{self.skipped - self.at_apex}/{self.total} trials skipped on domain errors for "
                f"{handle.label!r}; budget is {_SKIP_BUDGET:.0%}"
            )

        if not np.isfinite(worst):
            worst = float("inf") if self.skipped == 0 else float("nan")

        return CheckReport(
            property=prop_name,
            trials_run=self.total,
            worst_margin=float(worst),
            witness=witness,
            skipped=self.skipped,
            config=cfg,
            mode=mode,
        )


class _Target(NamedTuple):
    """One claim on the trial path: its handle, the property its report
    names, its components' expressions, its origin sign condition and its
    mode."""

    handle: FunctionHandle
    prop: str
    expressions: list
    origin: str | None = None
    mode: str = "check"


@np.errstate(all="ignore")
def _run_trials(targets: list[_Target], cfg: CheckConfig, rungs: tuple) -> list[CheckReport]:
    """The one trial path of every sampled check, refutation, certificate
    and quadrature check: the targets' reports, in order.  The targets share
    a cone and their sampled trials, the ``(config, stream base, count)``
    rungs ``rungs``.  No floating-point warning is raised: a non-finite
    value skips its trial.

    Each expression is parsed once on the cone, so one whose row needs a
    kind of cone that the domain is not raises :class:`CapabilityError`
    before anything is drawn.  When the cone holds the origin, a target's
    sign condition ``origin`` comes first as a one-row block at
    ``cfg.scale``.  Each rung is cut into blocks of at most
    ``_BLOCK`` trials: block ``b`` draws each role that some target reads
    once, from ``Rng(seed, stream base + its stream, b)`` as :data:`_ROLES`
    says, at the rung's config.  A role's draw depends on nothing else, so
    every target sees the draws its own check would make.  Each target's
    components are then evaluated and folded into its :class:`_Fold`, and
    freed before the next target's are evaluated.
    """
    cone = targets[0].handle.domain
    origins = [[_form(t.origin, cone)] if t.origin and cone.contains_origin else []
               for t in targets]
    forms = [[_form(e, cone) for e in t.expressions] for t in targets]
    reads = [dict.fromkeys(k for f in fs for k in f.keys) for fs in forms]
    keys = dict.fromkeys(k for r in reads for k in r)
    folds = [_Fold(t.handle) for t in targets]
    for t, origin, fold in zip(targets, origins, folds):
        if origin:
            comps = _components(t.handle, origin, {"zero": cone.zero().data[None]})
            fold.add(comps, cfg, cfg.scale)
    for sub, base, count in rungs:
        for b, start in enumerate(range(0, count, _BLOCK)):
            # rebinding frees the last block before this one is drawn
            n, drawn = min(_BLOCK, count - start), {}
            for key in keys:
                stream, draw = _ROLES[key]
                arrays = draw(cone, sub, Rng(sub.seed, base + stream, b), n)
                drawn[key] = tuple(zip(key, arrays)) if isinstance(key, tuple) else ((key, arrays),)
            for t, fs, r, fold in zip(targets, forms, reads, folds):
                comps = _components(t.handle, fs, {name: a for k in r for name, a in drawn[k]})
                fold.add(comps, cfg, sub.scale)
                del comps  # free this target's arrays before the next target's
    return [fold.finish(t.prop, cfg, t.mode) for t, fold in zip(targets, folds)]


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One row of :func:`check_claims`: ``check``, ``refute`` or a
    certificate ``mode`` of :data:`METHODS`, whose ``property`` is a label
    or an expression, or else the certificate's sign, mode or direction."""

    target: object
    property: PropertyLabel | str
    params: dict | None = None
    dim: int | None = None
    mode: str = "check"


def _claim_target(claim: Claim, cfg: CheckConfig) -> _Target:
    """A claim on its resolved handle.  A certificate's choice, or a check's
    property label, gives the property, its origin sign condition and its
    components; any other property is one expression of the form table,
    parsed on the handle's cone, with no origin block.  An origin condition
    cannot stand alone: it reads no sampled role."""
    handle = resolve_handle(claim.target, claim.params, claim.dim)
    mode, property = claim.mode, claim.property
    if mode in METHODS:
        name, choices = METHODS[mode]
        if property not in choices:
            raise ParameterError(
                f"{name} must be {' or '.join(map(repr, choices))}, got {property!r}")
        prop, components = choices[property]
        expressions = components(handle.domain.dim)
        if not expressions:
            # with no cross partial to sample, a certificate would rest on nothing
            raise CapabilityError("a Topkis certificate needs a domain of dimension 2 or more")
        return _Target(handle, prop, expressions, _LABELS[prop][0], mode)
    if mode not in ("check", "refute"):
        raise ParameterError(
            f"unknown mode {mode!r}; the modes are check, refute, {', '.join(METHODS)}")
    try:
        prop = PropertyLabel(property).value
    except ValueError:
        if not (isinstance(property, str) and property.split("[")[0] in _FORMS):
            raise ParameterError(
                f"unknown property {property!r}; the labels are "
                + ", ".join(label.value for label in PropertyLabel)
                + ", and any other property is an expression of the form table") from None
        if "zero" in _form(property, handle.domain).keys:
            raise ParameterError(f"{property!r} is an origin condition, not a claim")
        return _Target(handle, property, [property], mode=mode)
    origin, *expressions = _LABELS[prop]
    if prop == "completely-monotone":
        expressions = [f"completely-monotone[k={j}]" for j in range(cfg.order_cap + 1)]
    return _Target(handle, prop, expressions, origin, mode)


def _rungs(t: _Target, cfg: CheckConfig) -> tuple:
    """The ``(config, stream base, count)`` rungs of a claim's sampled
    trials, by its mode: a certificate's ``cfg.trials`` points besides its
    origin block, or a check's ``cfg.trials`` less that block, in one rung;
    a refutation's check trials in thirds over the scale ladder {0.1, 1,
    10}, each rung on its own streams with ``boundary_prob`` raised to 0.5
    (only orthant draws read it), under one origin evaluation, skip budget
    and shrink.  Every rung's scale must be finite and positive."""
    if t.mode in METHODS:
        return ((cfg, 0, cfg.trials),)
    count = cfg.trials - bool(t.origin and t.handle.domain.contains_origin)
    if t.mode == "check":
        return ((cfg, 0, count),)
    for mult in SCALE_LADDER:
        if not 0 < cfg.scale * mult < np.inf:
            raise ParameterError(f"scale {cfg.scale!r} leaves the float range on the "
                                 f"{mult!r}x rung of refute's ladder")
    biased, third = replace(cfg, boundary_prob=max(cfg.boundary_prob, 0.5)), count // 3
    counts = (third, third, count - 2 * third)
    return tuple((replace(biased, scale=cfg.scale * mult), 1000 * (rung + 1), n)
                 for rung, (mult, n) in enumerate(zip(SCALE_LADDER, counts)))


def check_claims(claims, cfg: CheckConfig | None = None) -> list[CheckReport]:
    """The one runner of checks, refutations and certificates: each claim's
    report at one config, in claim order, with the claim's mode, and
    byte-identical to the report of that claim alone.

    Claims on one cone whose modes give equal rungs (see :func:`_rungs`) run
    on the trial path together, so each block of a role is drawn once for
    all of them.  A claim whose entry, mode, property, certificate choice or
    refutation scale is refused raises before any trial runs, and a
    component that does not fit its cone before its group's trials.
    """
    cfg = cfg or CheckConfig()
    targets = [_claim_target(c, cfg) for c in claims]
    groups = {}
    for i, t in enumerate(targets):
        groups.setdefault((t.handle.domain, _rungs(t, cfg)), []).append(i)
    reports = [None] * len(targets)
    for (_, rungs), members in groups.items():
        for i, rep in zip(members, _run_trials([targets[i] for i in members], cfg, rungs)):
            reports[i] = rep
    return reports


def check(target, property: PropertyLabel | str, cfg: CheckConfig | None = None, *,
          params: dict | None = None, dim: int | None = None) -> CheckReport:
    """Randomized check of a property label, or of one form-table expression
    such as ``alpha-strong[alpha=2.0]``, against a catalog entry or handle."""
    return check_claims([Claim(target, property, params, dim)], cfg)[0]


def refute(target, property: PropertyLabel | str, cfg: CheckConfig | None = None, *,
           params: dict | None = None, dim: int | None = None) -> CheckReport:
    """Counterexample search: the check's trials split in thirds over the
    scale ladder {0.1, 1, 10} with boundary-biased sampling (see
    :func:`_rungs`); its report's mode is ``refute``."""
    return check_claims([Claim(target, property, params, dim, "refute")], cfg)[0]


def _one_trial(prop: str, vectors: dict, margin: float, s: float, cfg: CheckConfig) -> CheckReport:
    """Report of a single deterministic trial: a violation, with the named
    vectors as its witness, when ``margin`` is not at least
    ``-cfg.tolerance(s)`` (a NaN margin is one)."""
    witness = None
    if not margin >= -cfg.tolerance(s):
        points = {name: Point.vector(v) for name, v in vectors.items()}
        witness = Witness(points=points, margin=margin, expression=prop)
    return CheckReport(
        property=prop, trials_run=1, worst_margin=margin, witness=witness, skipped=0, config=cfg,
    )


def check_chebyshev(u, v, p) -> CheckReport:
    """Chebyshev's algebraic inequality ``<u,p><v,p> <= <uv,p>`` for
    comonotone u, v and a probability vector p."""
    ua = u.data if isinstance(u, Point) else np.asarray(u, dtype=np.float64)
    va = v.data if isinstance(v, Point) else np.asarray(v, dtype=np.float64)
    pa = p.data if isinstance(p, Point) else np.asarray(p, dtype=np.float64)
    if ua.shape != va.shape or ua.shape != pa.shape or ua.ndim != 1:
        raise ShapeError("u, v, p must be vectors of one shared length")
    if not cones.comonotonic(ua, va, _TOL_ABS):
        raise PreconditionError("u and v are not comonotone")
    if np.any(pa < -1e-12) or abs(float(pa.sum()) - 1.0) > 1e-12:
        raise PreconditionError("p must be a probability vector (nonnegative, summing to 1)")
    mean_uv = float((ua * va) @ pa)
    mean_u = float(ua @ pa)
    mean_v = float(va @ pa)
    return _one_trial(
        "chebyshev-product", {"u": ua, "v": va, "p": pa}, mean_uv - mean_u * mean_v,
        max(abs(mean_uv), abs(mean_u * mean_v)), CheckConfig(trials=1),
    )


@dataclass(frozen=True)
class MajorizationPair:
    """Two equal-length sequences with partial-sum domination
    ``sum_{k<=m} a_k <= sum_{k<=m} b_k`` for every m."""

    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b):
        object.__setattr__(self, "a", np.asarray(a, dtype=np.float64))
        object.__setattr__(self, "b", np.asarray(b, dtype=np.float64))
        if self.a.shape != self.b.shape or self.a.ndim != 1 or self.a.size < 1:
            raise ShapeError("majorization pair needs two equal-length vectors")

    def validate(self, direction: str) -> None:
        tol = 1e-12
        ca, cb = np.cumsum(self.a), np.cumsum(self.b)
        bad = np.flatnonzero(ca > cb + tol)
        if bad.size:
            raise PreconditionError(
                f"partial-sum domination fails at index {int(bad[0])}: "
                f"{ca[bad[0]]!r} > {cb[bad[0]]!r}"
            )
        if direction == "a-nonincreasing":
            steps = np.flatnonzero(self.a[:-1] < self.a[1:] - tol)
            if steps.size:
                raise PreconditionError(f"a is not nonincreasing at index {int(steps[0])}")
        elif direction == "b-nondecreasing":
            steps = np.flatnonzero(self.b[:-1] > self.b[1:] + tol)
            if steps.size:
                raise PreconditionError(f"b is not nondecreasing at index {int(steps[0])}")
        else:
            raise ParameterError(f"unknown direction {direction!r}")


def _spot_check_shape(f: ScalarFunction, lo: float, hi: float, *, nondecreasing: bool, convex: bool):
    """Finite-difference sanity check of the monotonicity/curvature the
    caller asserts for f on [lo, hi]."""
    lo = max(lo, f.lo)
    hi = min(hi, f.hi)
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    grid = np.linspace(lo + 0.02 * span, hi - 0.02 * span, 33)
    h1 = max(span * 1e-5, 1e-9)
    h2 = max(span * 1e-3, 1e-6)
    g1 = np.clip(grid, lo + h1, hi - h1)
    g2 = np.clip(grid, lo + h2, hi - h2)
    d1 = (f(g1 + h1) - f(g1 - h1)) / (2 * h1)
    d2 = (f(g2 + h2) - 2.0 * f(g2) + f(g2 - h2)) / (h2 * h2)
    tol1 = 1e-6 * max(1.0, float(np.max(np.abs(d1))))
    tol2 = 1e-5 * max(1.0, float(np.max(np.abs(d2))))
    if nondecreasing and np.any(d1 < -tol1):
        raise PreconditionError(f"{f.label} is not nondecreasing on [{lo}, {hi}]")
    if not nondecreasing and np.any(d1 > tol1):
        raise PreconditionError(f"{f.label} is not nonincreasing on [{lo}, {hi}]")
    if convex and np.any(d2 < -tol2):
        raise PreconditionError(f"{f.label} is not convex on [{lo}, {hi}]")
    if not convex and np.any(d2 > tol2):
        raise PreconditionError(f"{f.label} is not concave on [{lo}, {hi}]")


def tomic_weyl(pair: MajorizationPair, f: ScalarFunction, direction: str) -> CheckReport:
    """Weak-majorization comparison of ``sum f(a)`` and ``sum f(b)``.

    ``a-nonincreasing`` needs f nondecreasing convex and concludes
    ``sum f(a) <= sum f(b)``; ``b-nondecreasing`` needs f nonincreasing
    convex and concludes the reverse.
    """
    pair.validate(direction)
    lo = float(min(pair.a.min(), pair.b.min()))
    hi = float(max(pair.a.max(), pair.b.max()))
    forward = direction == "a-nonincreasing"
    _spot_check_shape(f, lo, hi, nondecreasing=forward, convex=True)
    fa = float(np.sum(f(pair.a)))
    fb = float(np.sum(f(pair.b)))
    margin = (fb - fa) if forward else (fa - fb)
    return _one_trial(f"tomic-weyl[{direction}]", {"a": pair.a, "b": pair.b}, margin,
                      max(abs(fa), abs(fb)), CheckConfig(trials=1))


def check_popoviciu(
    target, f: ScalarFunction, cfg: CheckConfig | None = None, *, params=None, dim=None
) -> CheckReport:
    """Three-point inequality for a monotone nonnegative strongly
    superadditive rule composed with a nondecreasing convex function, plus
    its symmetrized form: the ``second-diff-nonneg`` and
    ``symmetrized-nonneg`` forms of ``diffops.compose(f, handle)``, or their
    ``-nonpos`` forms when f is flagged nonincreasing concave."""
    from .catalog import CatalogEntry, SourceStatus, lookup

    cfg = cfg or CheckConfig()
    if isinstance(target, (str, CatalogEntry)):
        entry = lookup(target) if isinstance(target, str) else target
        status = entry.labels.get(PropertyLabel.STRONG_SUPERADD)
        if status not in (SourceStatus.ASSERTED, SourceStatus.CONSISTENT):
            raise PreconditionError(
                f"entry {entry.id!r} is not claimed strongly superadditive"
            )
    handle = resolve_handle(target, params, dim)
    cone = handle.domain

    concave = f.nondecreasing is False and f.convex is False

    # monotonicity and nonnegativity spot check on 100 ordered pairs, where a
    # non-finite value skips its pair quietly, as on the trial path
    spot = 100
    with np.errstate(all="ignore"):
        u = cones.sample_batch(cone, Rng(cfg.seed, _STREAM_SPOT_U), spot, cfg.scale, 0.0)
        v = cones.sample_batch(cone, Rng(cfg.seed, _STREAM_SPOT_V), spot, cfg.scale, 0.0)
        fu, fuv = handle.batch(u), handle.batch(u + v)
    ok = np.isfinite(fu) & np.isfinite(fuv)
    thr = cfg.tolerance(np.maximum(np.abs(fu), np.abs(fuv)))
    bad = ok & ((fu > fuv + thr) | (fu < -thr))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise PreconditionError(
            f"{handle.label!r} fails the monotone/nonnegative spot check at the pair "
            f"u={u[i].tolist()!r}, u+v={(u + v)[i].tolist()!r}"
        )
    lo_f, hi_f = float(np.nanmin(fu)), float(np.nanmax(fuv))
    _spot_check_shape(f, lo_f, hi_f, nondecreasing=not concave, convex=not concave)

    sign = "nonpos" if concave else "nonneg"
    target = _Target(compose(f, handle), f"popoviciu[{handle.label};f={f.label}]",
                     [f"{form}-{sign}" for form in ("second-diff", "symmetrized")])
    return _run_trials([target], cfg, ((cfg, 0, cfg.trials),))[0]
