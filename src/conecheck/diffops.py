"""Difference-operator calculus for functions on cones.

``delta`` is the first difference ``f(x + z) - f(z)``; ``second_diff`` is
the alternating four-term combination whose sign separates the strongly
subadditive functions from the strongly superadditive ones; ``kth_diff``
generalizes to order k via inclusion-exclusion.  They are the one-row cases
of the vectorized difference forms ``_first_diff``, ``_second_diff`` and
``_completely_monotone``, which the randomized checks evaluate on every
trial; the certificates' stencil forms, a Hessian entry and the change of a
directional derivative, are built on the first two.  Each
row gets the same bits in any batch whenever the handle's ``batch`` does,
as every catalog entry's does: they reduce through
:func:`.numkernel.rowwise` and fold their linear forms, where BLAS's ``@``
may round a row differently in a larger batch.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .cones import ConeSpec, Point, member_batch
from .errors import CapabilityError, DomainError, ShapeError
from .numkernel import rowwise

# Beyond this order the 2^k alternating sum drowns in cancellation at double
# precision, and the evaluation count explodes.
MAX_DIFF_ORDER = 12

# subset-point rows per ``batch`` call of the completely-monotone form
_SUBSET_ROWS = 2 ** 16


class FunctionHandle:
    """A real-valued function on a cone.

    ``batch`` maps a stacked array of raw point data ``(T, ...)`` to a
    ``(T,)`` value array and may return NaN where the function is undefined;
    calling the handle on a single :class:`Point` converts NaN into a
    :class:`DomainError`.
    """

    __slots__ = ("label", "domain", "batch")

    def __init__(self, label: str, domain: ConeSpec, batch):
        self.label = label
        self.domain = domain
        self.batch = self._wrap(batch)

    @staticmethod
    def _wrap(batch):
        def run(rows: np.ndarray) -> np.ndarray:
            with np.errstate(all="ignore"):
                out = np.asarray(batch(np.asarray(rows, dtype=np.float64)), dtype=np.float64)
            return out

        return run

    def _point_data(self, x: Point) -> np.ndarray:
        if x.kind != self.domain.point_kind or x.dim != self.domain.dim:
            raise ShapeError(
                f"point {x.kind}/{x.dim} incompatible with the domain of {self.label!r}"
            )
        return x.data

    def __call__(self, x: Point) -> float:
        val = float(self.batch(self._point_data(x)[None, ...])[0])
        if not np.isfinite(val):
            raise DomainError(f"{self.label!r} is undefined or non-finite at {x!r}")
        return val

    def __repr__(self) -> str:
        return f"FunctionHandle({self.label!r} on {self.domain.family}({self.domain.dim}))"


def _abs_max(*arrays: np.ndarray) -> np.ndarray:
    out = np.abs(arrays[0])
    for a in arrays[1:]:
        out = np.maximum(out, np.abs(a))
    return out


# The checker forms of the difference operators (see the form convention in
# :mod:`.checkers`); ``delta``, ``second_diff`` and ``kth_diff`` are their
# one-row cases.


def _first_diff(handle, r):
    """``f(U + step) - f(U)``, and the larger |f| of the two."""
    vu, vv = handle.batch(r["U"]), handle.batch(r["U"] + r["step"])
    return vv - vu, _abs_max(vu, vv)


def _second_diff(handle, r):
    """``f(x+y+z) + f(z) - f(x+z) - f(y+z)``, grouped as (positives) -
    (negatives), and the largest |f| of the four."""
    x, y, z = r["x"], r["y"], r["z"]
    # each sum is formed for its own call only, which bounds peak memory on
    # large trial batches
    vz, vxz, vyz = handle.batch(z), handle.batch(x + z), handle.batch(y + z)
    vxyz = handle.batch(x + y + z)
    return (vxyz + vz) - (vxz + vyz), _abs_max(vz, vxz, vyz, vxyz)


# The certificates' stencil forms.  Their central differences carry rounding
# and truncation error far above the checks' 1e-12 relative tolerance, so
# their scale is 1e6 times the larger of 1 and the largest derivative they
# compare: the checks' threshold ``1e-9 + 1e-12 s`` is then 1e-6 of it.  A
# stencil that leaves the cone gives NaN, so a shrunk witness keeps it inside.
# Each returns the stencil value itself; the checkers' row of a nonpositive or
# nonincreasing condition negates it.


def _hessian_entry(ij: tuple, handle, r):
    """Entry ``(i, j)`` of the central-difference Hessian at ``p``: the
    second difference at ``z = p - h e_i - h e_j`` with steps ``2h e_i`` and
    ``2h e_j``, divided by ``4h^2``, where ``h = 1e-4 max(1, |p|_inf)``.  On
    a vector cone ``z`` is the lowest stencil point."""
    p = r["p"]
    h = 1e-4 * np.maximum(1.0, rowwise(np.maximum, np.abs(p)))
    step_i, step_j = np.zeros_like(p), np.zeros_like(p)
    step_i[:, ij[0]] = h
    step_j[:, ij[1]] = h
    z = p - step_i - step_j
    sd, _ = _second_diff(handle, {"x": 2.0 * step_i, "y": 2.0 * step_j, "z": z})
    entry = sd / (4.0 * h * h)
    inside = member_batch(handle.domain, z)
    return np.where(inside, entry, np.nan), 1e6 * np.maximum(1.0, np.abs(entry))


def _derivative(handle, p, w):
    """The central-difference derivative at the points ``p`` along ``w``:
    the first difference from ``p - h w`` by the step ``2h w``, divided by
    ``2h``, where ``h = 1e-5 max(1, |p|_inf)``.  ``p - h w`` is the lower
    stencil point."""
    t = p.shape[0]
    h = 1e-5 * np.maximum(1.0, rowwise(np.maximum, np.abs(p.reshape(t, -1))))
    step = h.reshape((t,) + (1,) * (p.ndim - 1)) * w
    d, _ = _first_diff(handle, {"U": p - step, "step": 2.0 * step})
    return np.where(member_batch(handle.domain, p - step), d / (2.0 * h), np.nan)


def _derivative_change(handle, r):
    """``D f(U + step) - D f(U)``, the change of the :func:`_derivative`
    along ``direction``."""
    d_u = _derivative(handle, r["U"], r["direction"])
    d_v = _derivative(handle, r["U"] + r["step"], r["direction"])
    return d_v - d_u, 1e6 * np.maximum(1.0, _abs_max(d_u, d_v))


def _completely_monotone_orders(k: int, handle, r):
    """Every order 0..k of the completely-monotone form in one pass: two
    ``(k + 1, T)`` arrays whose row j is the order-j alternating difference
    at ``base`` with steps ``x1..xj``, signed so that complete monotonicity
    means ``slack >= 0``, and the largest |f| over its 2^j subset points.

    Subset ``s`` is ``base`` plus x(i+1) for each bit i of s, added from the
    highest index down, so order j's subsets are those below 2^j.  One walk
    in ascending ``s`` sums the even and the odd subsets from 0 and reads
    order j off at ``s = 2^j``.  It takes ``_SUBSET_ROWS / (k + 1)`` trials
    at a time, forms each point from a stack of k + 1 prefix sums and
    evaluates ``_SUBSET_ROWS`` rows per call, so memory does not grow with T.
    """
    base = r["base"]
    t = base.shape[0]
    popcount = [bin(s).count("1") for s in range(1 << k)]
    chunk = max(1, min(t, _SUBSET_ROWS // (k + 1)))
    group = min(1 << k, max(1, _SUBSET_ROWS // chunk))
    slack, scale = np.empty((k + 1, t)), np.empty((k + 1, t))
    for lo in range(0, t, chunk):
        rows = slice(lo, min(lo + chunk, t))
        # stack[d]: base plus the d highest steps of the current subset
        stack = np.empty((k + 1,) + base[rows].shape)
        stack[0] = base[rows]
        points = np.empty((group,) + stack.shape[1:])
        sums, top = np.zeros((2, len(stack[0]))), np.zeros(len(stack[0]))  # even, odd; max |f|
        for first in range(0, 1 << k, group):
            subsets = range(first, min(first + group, 1 << k))
            for j, s in enumerate(subsets):
                if s:
                    low = (s & -s).bit_length() - 1
                    np.add(stack[popcount[s] - 1], r[f"x{low + 1}"][rows], out=stack[popcount[s]])
                points[j] = stack[popcount[s]]
            vals = handle.batch(points[:len(subsets)].reshape((-1,) + base.shape[1:]))
            for s, v in zip(subsets, vals.reshape(len(subsets), -1)):
                sums[popcount[s] % 2] += v
                np.maximum(top, np.abs(v), out=top)
                if not s & (s + 1):  # s + 1 = 2^j: order j is complete
                    slack[s.bit_length(), rows], scale[s.bit_length(), rows] = sums[0] - sums[1], top
    return slack, scale


def _completely_monotone(k: int, handle, r):
    """The order-k form: the last order of :func:`_completely_monotone_orders`."""
    slack, scale = _completely_monotone_orders(k, handle, r)
    return slack[k], scale[k]


class _Roles(dict):
    """The role arrays a form reads; a role with no point is a ShapeError."""

    def __missing__(self, name):
        raise ShapeError(f"no point is given for the role {name!r}")


@np.errstate(all="ignore")
def _one_row(f: FunctionHandle, form, points: dict) -> tuple[float, float]:
    """``(slack, scale)`` of a form on the single row of the named points;
    a non-finite value raises :class:`DomainError`, a missing role
    :class:`ShapeError`."""
    slack, scale = form(f, _Roles((name, f._point_data(p)[None]) for name, p in points.items()))
    if not (np.isfinite(slack[0]) and np.isfinite(scale[0])):
        raise DomainError(f"{f.label!r} is undefined at one of {points!r}")
    return float(slack[0]), float(scale[0])


def delta(f: FunctionHandle, x: Point, z: Point) -> float:
    """First difference ``f(x + z) - f(z)``."""
    return _one_row(f, _first_diff, {"U": z, "step": x})[0]


def second_diff(f: FunctionHandle, x: Point, y: Point, z: Point) -> float:
    """``f(x+y+z) + f(z) - f(x+z) - f(y+z)``, grouped as (positives) -
    (negatives) to limit cancellation; exactly symmetric in x and y."""
    return _one_row(f, _second_diff, {"x": x, "y": y, "z": z})[0]


def kth_diff(f: FunctionHandle, xs: list[Point], base: Point) -> float:
    """Order-k alternating difference ``sum_S (-1)^(k-|S|) f(base + sum_S
    xs)``: ``(-1)^k`` times the completely-monotone form."""
    k = len(xs)
    if k < 1:
        raise ShapeError("kth_diff needs at least one increment")
    if k > MAX_DIFF_ORDER:
        raise CapabilityError(f"difference order {k} exceeds the cap {MAX_DIFF_ORDER}")
    points = {"base": base, **{f"x{i + 1}": x for i, x in enumerate(xs)}}
    slack, _ = _one_row(f, partial(_completely_monotone, k), points)
    return -slack if k % 2 else slack


def shift_and_center(f: FunctionHandle, t: Point) -> FunctionHandle:
    """``x -> f(x + t) - f(t)``; the value at the origin is exactly zero.

    Raises a domain error immediately if ``f`` is undefined at ``t``.
    """
    t_data = f._point_data(t)
    f_t = f.batch(t_data[None, ...])[0]
    if not np.isfinite(f_t):
        raise DomainError(f"{f.label!r} is undefined at the shift point {t!r}")

    def batch(rows: np.ndarray) -> np.ndarray:
        return f.batch(rows + t_data) - f_t

    return FunctionHandle(f"{f.label}|shifted-centered", f.domain, batch)


def compose(f, handle: FunctionHandle) -> FunctionHandle:
    """``x -> f(handle(x))`` for a :class:`~.numkernel.ScalarFunction` f: NaN
    where the handle's value leaves f's interval.  It keeps the handle's
    label and domain, so its errors name the handle."""

    def batch(rows: np.ndarray) -> np.ndarray:
        v = handle.batch(rows)
        inside = (v >= f.lo) & (v <= f.hi)
        return np.where(inside, f.fn(np.clip(v, f.lo, f.hi)), np.nan)

    return FunctionHandle(handle.label, handle.domain, batch)
