"""Convex cones and their elements.

A :class:`Point` is a dense real vector or a dense symmetric matrix; a
:class:`ConeSpec` describes one of the supported cone families.  The module
provides row-wise membership (its orthant tests fold each row with
:func:`.numkernel.rowwise`), comonotonicity and reproducible random sampling.

Randomness contract: every draw comes from a numpy ``Philox`` counter-based
bit generator keyed by ``(master_seed, stream_index)`` whose counter starts
at ``[0, 0, 0, block]``.  The raw Philox words are platform independent;
exponentials and normals come from them through numpy's ziggurats, whose
rare wedge and tail steps call ``exp`` and ``log1p``.  An orthant
draw shifts its exponentials by a boundary threshold on a 2^-32 grid, so
its bits depend only on the exponentials.  A PSD draw folds a Bartlett
factor over the lower triangle with elementwise arithmetic and no BLAS
call: normals from the block's generator, exponentials from its second
lane (:meth:`Rng.lane`) and IEEE ``sqrt``, so its bits depend only on
those, and it is exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, ParameterError, ShapeError
from .numkernel import rowwise

VECTOR = "vector"
MATRIX = "symmetric-matrix"

_SYM_TOL = 1e-12


def symmetric_batch(mats: np.ndarray) -> np.ndarray:
    """Whether each matrix of ``(..., n, n)`` is symmetric within ``_SYM_TOL``
    times the larger of 1 and its largest finite |entry|; non-finite entries
    must mirror exactly, NaN mirroring NaN."""
    mirror = np.swapaxes(mats, -1, -2)
    size = np.where(np.isfinite(mats), np.abs(mats), 0.0).max(axis=(-2, -1))
    exact = (mats == mirror) | (np.isnan(mats) & np.isnan(mirror))
    with np.errstate(invalid="ignore"):
        gap = np.where(exact, 0.0, np.abs(mats - mirror))
    return np.all(gap <= _SYM_TOL * np.maximum(1.0, size)[..., None, None], axis=(-2, -1))


# Floor added to every coordinate sampled from an open orthant, relative to
# the sampling scale; keeps 1/x-style evaluations finite.
_OPEN_ORTHANT_FLOOR = 1e-6


class Point:
    """An element of a cone, immutable: a vector or a symmetric matrix."""

    __slots__ = ("kind", "data", "dim")

    def __init__(self, kind: str, data: np.ndarray, *, _validated: bool = False):
        data = np.asarray(data, dtype=np.float64)
        if kind == VECTOR:
            if data.ndim != 1 or data.shape[0] < 1:
                raise ShapeError(f"vector point needs a 1-d array, got shape {data.shape}")
            dim = data.shape[0]
        elif kind == MATRIX:
            if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] < 1:
                raise ShapeError(f"matrix point needs a square array, got shape {data.shape}")
            dim = data.shape[0]
            if not _validated:
                if not symmetric_batch(data):
                    raise ShapeError("matrix point is not symmetric within tolerance")
                data = 0.5 * (data + data.T)
        else:
            raise ShapeError(f"unknown point kind {kind!r}")
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    @staticmethod
    def vector(values) -> "Point":
        return Point(VECTOR, np.asarray(values, dtype=np.float64))

    @staticmethod
    def matrix(values) -> "Point":
        return Point(MATRIX, np.asarray(values, dtype=np.float64))

    @staticmethod
    def zero(kind: str, dim: int) -> "Point":
        shape = (dim,) if kind == VECTOR else (dim, dim)
        return Point(kind, np.zeros(shape), _validated=True)

    def to_json(self):
        """Vectors serialize as arrays, matrices as arrays of row arrays."""
        return self.data.tolist()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Point)
            and self.kind == other.kind
            and self.dim == other.dim
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:
        return f"Point({self.kind}, {self.data.tolist()!r})"


def point_from_json(obj, kind: str | None = None) -> Point:
    arr = np.asarray(obj, dtype=np.float64)
    if kind is None:
        kind = MATRIX if arr.ndim == 2 else VECTOR
    return Point(kind, arr)


NONNEG_ORTHANT = "nonneg-orthant"
POSITIVE_ORTHANT = "positive-orthant"
FULL_SPACE = "full-space"
PSD_CONE = "psd-cone"


@dataclass(frozen=True)
class ConeSpec:
    """Descriptor of a supported convex cone.

    ``dim`` is the vector length, or the matrix order for the PSD cone.
    """

    family: str
    dim: int

    @property
    def point_kind(self) -> str:
        return MATRIX if self.family == PSD_CONE else VECTOR

    @property
    def contains_origin(self) -> bool:
        return self.family != POSITIVE_ORTHANT

    def zero(self) -> Point:
        return Point.zero(self.point_kind, self.dim)

    def to_json(self) -> dict:
        return {"family": self.family, "dim": self.dim}


def _check_dim(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"dimension must be a positive integer, got {n!r}")
    return int(n)


def nonneg_orthant(n: int) -> ConeSpec:
    return ConeSpec(NONNEG_ORTHANT, _check_dim(n))


def positive_orthant(n: int) -> ConeSpec:
    return ConeSpec(POSITIVE_ORTHANT, _check_dim(n))


def full_space(n: int) -> ConeSpec:
    return ConeSpec(FULL_SPACE, _check_dim(n))


def psd_cone(n: int) -> ConeSpec:
    return ConeSpec(PSD_CONE, _check_dim(n))


def _require_point(cone: ConeSpec, x: Point) -> None:
    if not isinstance(x, Point):
        raise ShapeError(f"expected a Point, got {type(x).__name__}")
    if x.kind != cone.point_kind or x.dim != cone.dim:
        raise ShapeError(
            f"point of kind {x.kind}/{x.dim} incompatible with cone "
            f"{cone.family}({cone.dim})"
        )


def member_batch(cone: ConeSpec, rows: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Row-wise membership of stacked point data ``(R, ...)`` in the (closed,
    or open for the positive orthant) cone within tolerance: R booleans.

    A PSD row is a member when its entries are finite and its smallest
    eigenvalue is at least ``-tol * max(1, |A|_F)``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[1:] != cone.zero().data.shape:
        raise ShapeError(
            f"rows of shape {rows.shape[1:]} incompatible with cone {cone.family}({cone.dim})"
        )
    fam = cone.family
    if fam == NONNEG_ORTHANT:
        return rowwise(np.logical_and, rows >= -tol)
    if fam == POSITIVE_ORTHANT:
        return rowwise(np.logical_and, rows > tol)
    if fam == FULL_SPACE:
        return np.ones(rows.shape[0], dtype=bool)
    if fam == PSD_CONE:
        finite = np.isfinite(rows).all(axis=(1, 2))
        fin = rows[finite]
        out = np.zeros(rows.shape[0], dtype=bool)
        out[finite] = np.linalg.eigvalsh(fin)[:, 0] >= -tol * np.maximum(
            1.0, np.linalg.norm(fin, axis=(1, 2)))
        return out
    raise CapabilityError(f"membership not implemented for {fam}")


def member(cone: ConeSpec, x: Point, tol: float = 0.0) -> bool:
    """Whether ``x`` lies in the cone within tolerance: the one-row case of
    :func:`member_batch`."""
    _require_point(cone, x)
    return bool(member_batch(cone, x.data[None], tol)[0])


def coordinate_floor(cone: ConeSpec, scale: float = 1.0) -> np.ndarray:
    """Per-coordinate lower bound, shaped like a point, that points derived
    from :func:`sample_batch` draws at ``scale`` must keep: the open
    orthant's sampling floor, and ``-inf`` where membership alone decides."""
    if cone.family == POSITIVE_ORTHANT:
        return np.full(cone.dim, _OPEN_ORTHANT_FLOOR * scale)
    return np.full(cone.zero().data.shape, -np.inf)


def comonotonic_batch(u: np.ndarray, v: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Row-wise comonotonicity of stacked vector pairs ``(R, n)``: R booleans,
    each true iff ``(u_i - u_j) * (v_i - v_j) >= -tol`` for every index pair
    of its row.  Memory is O(R n), one index i at a time."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 2:
        raise ShapeError("comonotonicity needs two vectors of equal length")
    out = np.ones(u.shape[0], dtype=bool)
    for i in range(u.shape[1]):
        out &= rowwise(np.logical_and, (u[:, i, None] - u) * (v[:, i, None] - v) >= -tol)
    return out


def comonotonic(u, v, tol: float = 0.0) -> bool:
    """Whether two vectors are comonotone within tolerance: the one-row case
    of :func:`comonotonic_batch`."""
    ua = u.data if isinstance(u, Point) else np.asarray(u, dtype=np.float64)
    va = v.data if isinstance(v, Point) else np.asarray(v, dtype=np.float64)
    return bool(comonotonic_batch(ua[None], va[None], tol)[0])


@dataclass(frozen=True)
class Rng:
    """Reproducible random stream: Philox keyed by ``(master_seed,
    stream_index)``, with its 256-bit counter starting at ``[0, 0, 0,
    block]``.

    Streams with distinct keys are statistically independent; identical
    values replay identical Philox words on every platform.  A check cuts its
    trials into fixed blocks and draws block ``b`` of a role stream from
    ``block=b``: the same key, with the top counter word set to the block
    index, so blocks never overlap (each would need 2^192 draws to reach
    the next) and block 0 is the stream from counter 0.  :attr:`generator`
    is lane 0 of the block; ``lane(1)``, from counter ``[0, 0, 1, block]``
    (what ``Philox.jumped()`` gives on a fresh block, 2^128 draws on), feeds
    the exponentials of a PSD draw, so they never overlap its normals.
    """

    master_seed: int
    stream_index: int = 0
    block: int = 0
    _gen: list = field(default_factory=list, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        return self.lane(0)

    def lane(self, index: int) -> np.random.Generator:
        """The generator of lane ``index``, made on first use and then
        consumed sequentially like the stream itself."""
        while len(self._gen) <= index:
            key = np.array(
                [self.master_seed & 0xFFFFFFFFFFFFFFFF, self.stream_index & 0xFFFFFFFFFFFFFFFF],
                dtype=np.uint64,
            )
            counter = np.array([0, 0, len(self._gen), self.block], dtype=np.uint64)
            self._gen.append(np.random.Generator(np.random.Philox(counter=counter, key=key)))
        return self._gen[index]


def sample_batch(
    cone: ConeSpec,
    rng: Rng,
    count: int,
    scale: float = 1.0,
    boundary_prob: float = 0.2,
) -> np.ndarray:
    """Draw ``count`` cone members as a stacked array.

    Orthant-like cones draw ``max(E - t, 0) * scale`` per coordinate, for
    ``E`` a standard exponential and ``t = -log1p(-boundary_prob)`` rounded
    to a multiple of 2^-32 (no shift when ``boundary_prob`` is 0).  By
    memorylessness each coordinate is then exactly 0 with probability
    ``1 - exp(-t)``, within 2^-32 of ``boundary_prob``, so checks exercise
    the boundary, and ``scale`` times a standard exponential otherwise: one
    Philox word per coordinate.  The open orthant then adds a small positive floor.  The
    PSD cone of order N draws ``L @ L.T * (scale / N)`` for a Bartlett factor
    ``L``, Wishart like ``G @ G.T`` for ``G`` of N^2 normals but from about
    half as many Philox words: normals from ``rng.generator`` and exponentials
    from ``rng.lane(1)``, folded over the lower triangle and mirrored, so the
    matrix is exactly symmetric (:func:`_bartlett_fold`).  PSD draws ignore
    ``boundary_prob``.  The full space draws plain Gaussians.  Consumes each
    lane of ``rng`` sequentially, so a fixed (seed, stream) replays the same
    batch, and the first rows of a larger draw are the smaller draw.
    """
    if not 0.0 < scale < np.inf:
        raise ParameterError(f"scale must be finite and positive, got {scale}")
    g = rng.generator
    n = cone.dim
    fam = cone.family
    if fam in (NONNEG_ORTHANT, POSITIVE_ORTHANT):
        out = g.standard_exponential(size=(count, n))
        if boundary_prob > 0.0:
            out -= round(-math.log1p(-boundary_prob) * 2 ** 32) / 2 ** 32
            np.maximum(out, 0.0, out=out)
        out *= scale
        if fam == POSITIVE_ORTHANT:
            out += _OPEN_ORTHANT_FLOOR * scale
        return out
    if fam == FULL_SPACE:
        return g.normal(0.0, scale, size=(count, n))
    if fam == PSD_CONE:
        return _bartlett_fold(rng, count, n, scale / n)
    raise CapabilityError(f"sampling not implemented for {fam}")


def _bartlett_fold(rng: Rng, count: int, n: int, factor: float) -> np.ndarray:
    """``L @ L.T * factor`` for ``count`` Bartlett factors ``L`` (Bartlett
    1933), Wishart ``W_n(I, n)`` like ``G @ G.T`` for ``G`` of n^2 normals.
    ``rng.generator`` gives each matrix ``L[i, j]`` (i > j) row by row, then
    a normal for each odd ``n - i``; ``L[i, i]^2 = c_i ~ chi^2(n - i)`` is
    twice the sum of the next ``(n - i) // 2`` exponentials of ``rng.lane(1)``,
    plus that normal squared.  Entry ``(i, j)``, ``j <= i``, is the left fold over
    ``k <= j`` of ``L[i, k] L[j, k]``, with ``c_i`` as the diagonal's last
    term (so only the pivots ``L[j, j]``, j < n - 1, take a ``sqrt``), times
    ``factor``, written to both halves of an ``(n, n, count)`` array
    returned as its F-contiguous ``(count, n, n)`` view."""
    low = n * (n - 1) // 2
    z = rng.generator.standard_normal(size=(count, low + (n + 1) // 2)).T.copy()
    exps = iter(rng.lane(1).standard_exponential(size=(count, n * n // 4)).T.copy())
    odd = iter(z[low:])
    out, term, pivots = np.empty((n, n, count)), np.empty(count), []
    for i in range(n):
        c = 2.0 * sum([next(exps) for _ in range((n - i) // 2)], np.zeros(count))
        if (n - i) % 2:
            c += np.square(next(odd), out=term)
        row = z[i * (i - 1) // 2:]
        for j in range(i + 1):
            acc, col = out[i, j], z[j * (j - 1) // 2:]
            last = c if i == j else np.multiply(row[j], pivots[j], out=out[j, i])
            if j:
                np.multiply(row[0], col[0], out=acc)
                for k in range(1, j):
                    acc += np.multiply(row[k], col[k], out=term)
                acc += last
            else:
                np.copyto(acc, last)
            acc *= factor
            out[j, i] = acc
        pivots.append(np.sqrt(c) if i < n - 1 else None)
    return out.transpose(2, 1, 0)


def comonotone_pair_batch(
    n: int, rng: Rng, count: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` pairs of nonnegative vectors, each pair ordered by one
    shared permutation, so it passes :func:`comonotonic` with zero
    tolerance."""
    orthant = nonneg_orthant(n)
    u = np.sort(sample_batch(orthant, rng, count, scale, 0.0), axis=1)
    v = np.sort(sample_batch(orthant, rng, count, scale, 0.0), axis=1)
    perm = np.argsort(rng.generator.random(size=(count, n)), axis=1)
    return np.take_along_axis(u, perm, axis=1), np.take_along_axis(v, perm, axis=1)
