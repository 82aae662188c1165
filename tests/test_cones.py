"""Cone membership, comonotonicity, and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecheck import cones
from conecheck.cones import Point, Rng
from conecheck.errors import ParameterError, ShapeError

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def test_origin_in_closed_orthant():
    cone = cones.nonneg_orthant(2)
    assert cones.member(cone, Point.vector([0.0, 0.0]), tol=0.0)


def test_indefinite_matrix_not_psd():
    # eigenvalues of [[1,2],[2,1]] are 3 and -1 by the 2x2 trace/det formula
    a = np.array([[1.0, 2.0], [2.0, 1.0]])
    tr, dt = 2.0, -3.0
    disc = np.sqrt(tr * tr - 4 * dt)
    lams = sorted([(tr + disc) / 2, (tr - disc) / 2])
    assert lams == [-1.0, 3.0]
    assert not cones.member(cones.psd_cone(2), Point.matrix(a), tol=1e-9)


def test_open_orthant_excludes_boundary():
    assert not cones.member(cones.positive_orthant(2), Point.vector([1.0, 0.0]))
    assert cones.member(cones.positive_orthant(2), Point.vector([1.0, 1e-8]))


def test_full_space_membership():
    assert cones.member(cones.full_space(3), Point.vector([-5.0, 0.0, 2.0]))


def test_member_shape_mismatch():
    with pytest.raises(ShapeError):
        cones.member(cones.nonneg_orthant(2), Point.vector([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        cones.member(cones.psd_cone(2), Point.vector([1.0, 2.0]))


def test_member_batch_is_member_row_by_row():
    psd = cones.psd_cone(2)
    mats = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]]])
    assert cones.member_batch(psd, mats).tolist() == [True, False, True, True]
    closed, open_ = cones.nonneg_orthant(3), cones.positive_orthant(3)
    vecs = np.array([[1.0, 0.0, 0.0], [1e-8, 1.0, 1.0], [1e-8, -1.0, 0.0]])
    assert cones.member_batch(closed, vecs).tolist() == [True, True, False]
    assert cones.member_batch(open_, vecs).tolist() == [False, True, False]
    for cone, rows in ((psd, mats), (closed, vecs), (open_, vecs)):
        expected = [cones.member(cone, Point(cone.point_kind, r)) for r in rows]
        assert cones.member_batch(cone, rows).tolist() == expected
    with pytest.raises(ShapeError):
        cones.member_batch(psd, vecs)


def test_psd_member_batch_is_false_on_non_finite_rows():
    psd = cones.psd_cone(3)
    rows = np.stack([np.eye(3), np.eye(3), -np.eye(3), np.eye(3), np.eye(3)])
    rows[1, 2, 0] = rows[1, 0, 2] = np.nan
    rows[3, 0, 0] = np.nan
    rows[4, 1, 0] = rows[4, 0, 1] = np.inf
    assert cones.member_batch(psd, rows).tolist() == [True, False, False, False, False]
    assert cones.member_batch(psd, rows, tol=1e-9).tolist() == [True, False, False, False, False]


def test_coordinate_floor_is_the_open_orthant_sampling_floor():
    open_ = cones.positive_orthant(2)
    floor = cones.coordinate_floor(open_, scale=10.0)
    assert floor.tolist() == pytest.approx([1e-5, 1e-5], rel=1e-15)
    draws = cones.sample_batch(open_, Rng(3, 0), 500, scale=10.0, boundary_prob=0.5)
    assert np.all(draws >= floor) and np.all(np.any(draws == floor, axis=0))
    assert np.all(cones.coordinate_floor(cones.nonneg_orthant(1), scale=10.0) == -np.inf)
    assert np.all(cones.coordinate_floor(cones.psd_cone(3)) == -np.inf)


def test_comonotonic_examples():
    pairs = [([1, 2, 3], [0, 0, 5]), ([1, 2], [2, 1]), ([4, 4, 4], [3, -1, 7])]
    assert [cones.comonotonic(u, v) for u, v in pairs] == [True, False, True]
    for u, v in pairs:
        assert cones.comonotonic_batch(np.array([u]), np.array([v])).tolist() == [
            cones.comonotonic(u, v)]
    with pytest.raises(ShapeError):
        cones.comonotonic([1, 2], [1, 2, 3])
    with pytest.raises(ShapeError):
        cones.comonotonic_batch(np.zeros((2, 3)), np.zeros((2, 4)))


@pytest.mark.parametrize("tol", [0.0, 0.5])
def test_comonotonic_batch_agrees_with_comonotonic_row_by_row(tol):
    """Shared-sort pairs, independent pairs, ties and a NaN row, at zero and
    positive tolerance; the reference is the all-pairs product matrix."""
    g = np.random.default_rng(3)
    u = np.round(g.normal(size=(200, 4)), 1)
    v = np.round(g.normal(size=(200, 4)), 1)
    perm = np.argsort(g.random(size=(100, 4)), axis=1)
    u[:100] = np.take_along_axis(np.sort(u[:100], axis=1), perm, axis=1)
    v[:100] = np.take_along_axis(np.sort(v[:100], axis=1), perm, axis=1)
    u[150, 2] = np.nan
    got = cones.comonotonic_batch(u, v, tol)
    assert got.shape == (200,) and got[:100].all() and not got[150]
    assert got.tolist() == [cones.comonotonic(a, b, tol) for a, b in zip(u, v)]
    assert got.tolist() == [
        bool(np.all((a[:, None] - a[None, :]) * (b[:, None] - b[None, :]) >= -tol))
        for a, b in zip(u, v)]
    assert 0 < got[100:].sum() < 100


@given(
    st.lists(finite_floats, min_size=2, max_size=10),
    st.lists(finite_floats, min_size=2, max_size=10),
)
@settings(max_examples=100, deadline=None)
def test_shared_sort_produces_comonotone_pairs(u, v):
    n = min(len(u), len(v))
    us, vs = np.sort(np.asarray(u[:n])), np.sort(np.asarray(v[:n]))
    perm = np.random.default_rng(0).permutation(n)
    assert cones.comonotonic(us[perm], vs[perm])
    assert cones.comonotonic_batch(us[perm][None], vs[perm][None]).tolist() == [True]


@pytest.mark.parametrize(
    "cone",
    [
        cones.nonneg_orthant(4),
        cones.positive_orthant(3),
        cones.full_space(5),
        cones.psd_cone(3),
    ],
)
def test_samples_are_members(cone):
    for row in cones.sample_batch(cone, Rng(123, 0), 50, scale=1.0):
        assert cones.member(cone, Point(cone.point_kind, row), tol=1e-10)


def test_psd_sample_eigenvalues_nonnegative():
    for row in cones.sample_batch(cones.psd_cone(3), Rng(5, 1), 20, scale=1.0):
        assert np.linalg.eigvalsh(row)[0] >= -1e-10


def test_sample_determinism_and_stream_independence():
    cone = cones.nonneg_orthant(3)
    a = cones.sample_batch(cone, Rng(77, 4), 1, scale=2.0)
    b = cones.sample_batch(cone, Rng(77, 4), 1, scale=2.0)
    c = cones.sample_batch(cone, Rng(77, 5), 1, scale=2.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_scale_must_be_positive():
    for scale in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match="finite and positive"):
            cones.sample_batch(cones.nonneg_orthant(1), Rng(0), 1, scale=scale)


def test_comonotone_pair_postconditions():
    for n in (1, 2, 5):
        u, v = cones.comonotone_pair_batch(n, Rng(9, n), 1, scale=1.0)
        assert cones.comonotonic(u[0], v[0], tol=0.0)
        assert np.all(u >= 0) and np.all(v >= 0)
    again = cones.comonotone_pair_batch(5, Rng(9, 5), 1, scale=1.0)
    assert all(np.array_equal(a, b) for a, b in
               zip(again, cones.comonotone_pair_batch(5, Rng(9, 5), 1, scale=1.0)))


def test_order_transitivity_on_random_triples():
    """x <= y <= z in the Loewner order: each difference is a PSD member."""
    cone = cones.psd_cone(3)
    rng = Rng(31, 0)
    tol = 1e-9
    x = cones.sample_batch(cone, rng, 1000)
    y = x + cones.sample_batch(cone, rng, 1000)
    z = y + cones.sample_batch(cone, rng, 1000)
    assert cones.member_batch(cone, y - x, tol).all() and cones.member_batch(cone, z - y, tol).all()
    assert cones.member_batch(cone, z - x, 2 * tol).all()


def test_open_orthant_samples_have_positive_floor():
    arr = cones.sample_batch(cones.positive_orthant(4), Rng(1, 0), 200, scale=1.0)
    assert arr.min() >= 1e-6


def test_point_kind_checks():
    with pytest.raises(ShapeError):
        Point.matrix([[0.0, 1.0], [0.0, 0.0]])  # not symmetric


@pytest.mark.parametrize("entries", [
    [[np.nan, 1.0], [2.0, 1.0]],
    [[np.inf, 1.0], [2.0, 1.0]],
    [[1.0, np.nan], [2.0, 1.0]],
    [[1.0, np.inf], [-np.inf, 1.0]],
])
def test_asymmetric_matrix_with_non_finite_entries_is_rejected(entries):
    with pytest.raises(ShapeError):
        Point.matrix(entries)


def test_mirrored_non_finite_entries_are_accepted():
    a = Point.matrix([[np.nan, np.inf], [np.inf, 1.0]])
    assert np.isnan(a.data[0, 0]) and a.data[0, 1] == a.data[1, 0] == np.inf
    b = Point.matrix([[1.0, np.nan], [np.nan, 1.0]])
    assert np.isnan(b.data[0, 1]) and np.isnan(b.data[1, 0])


def test_point_json_shapes():
    v = Point.vector([1.0, 2.0])
    m = Point.matrix(np.eye(2))
    assert v.to_json() == [1.0, 2.0]
    assert m.to_json() == [[1.0, 0.0], [0.0, 1.0]]
    assert cones.point_from_json(v.to_json()) == v
    assert cones.point_from_json(m.to_json()) == m


def test_contains_origin_flags():
    assert cones.nonneg_orthant(2).contains_origin
    assert not cones.positive_orthant(2).contains_origin
    assert cones.psd_cone(2).contains_origin
    assert cones.full_space(2).contains_origin


def test_boundary_probing_fraction():
    arr = cones.sample_batch(cones.nonneg_orthant(4), Rng(99, 0), 2000, scale=1.0)
    frac = float((arr == 0.0).mean())
    assert 0.15 <= frac <= 0.25  # boundary zeroing probability is 0.2 per coordinate
    interior = cones.sample_batch(cones.nonneg_orthant(4), Rng(99, 1), 500, 1.0, boundary_prob=0.0)
    assert np.all(interior > 0.0)


def _boundary_shift(p: float) -> float:
    """The orthant sampler's boundary threshold: ``-log1p(-p)`` on a 2^-32
    grid."""
    return round(-math.log1p(-p) * 2 ** 32) / 2 ** 32


@pytest.mark.parametrize("family", [cones.nonneg_orthant, cones.positive_orthant])
@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 3.7])
@pytest.mark.parametrize("p", [0.0, 0.2, 0.5])
def test_orthant_draws_are_shifted_exponentials(family, scale, p):
    """Every coordinate is ``max(E - t, 0) * scale`` for ``E`` from
    ``standard_exponential`` on the same stream, bit for bit, plus the open
    orthant's floor; exactly those with ``E <= t`` sit on the floor, and
    there are none when ``p`` is 0."""
    cone, count = family(3), 1000
    draws = cones.sample_batch(cone, Rng(41, 6), count, scale, p)
    exps = Rng(41, 6).generator.standard_exponential(size=(count, 3))
    t = _boundary_shift(p)
    floor = np.maximum(cones.coordinate_floor(cone, scale), 0.0)  # 0 on the closed orthant
    assert np.array_equal(draws, np.maximum(exps - t, 0.0) * scale + floor)
    zeroed = exps <= t
    assert np.all(draws[zeroed] == floor[0]) and np.all(draws[~zeroed] > floor[0])
    assert zeroed.any() == (p > 0)


@pytest.mark.parametrize("p", [0.2, 0.5])
def test_orthant_zero_fraction_is_the_shifted_probability(p):
    """The zero fraction of 2^18 coordinates is within 5 binomial standard
    deviations of ``1 - exp(-t)``, which is within 2^-32 of ``p``."""
    draws = cones.sample_batch(cones.nonneg_orthant(4), Rng(7, 3), 2 ** 16, 1.0, p)
    q = -math.expm1(-_boundary_shift(p))
    assert abs(q - p) <= 2 ** -32
    assert abs(float((draws == 0.0).mean()) - q) <= 5.0 * math.sqrt(q * (1.0 - q) / draws.size)


def test_orthant_draw_bits_are_pinned():
    """The orthant draw reads one Philox exponential per coordinate and
    shifts it by a threshold on a 2^-32 grid, so every platform zeroes the
    same coordinates and gives these bits."""
    draws = cones.sample_batch(cones.nonneg_orthant(4), Rng(2026, 7), 3, 1.0, 0.5)
    assert (draws != 0.0).astype(int).tolist() == [[0, 1, 0, 1], [0, 1, 0, 0], [1, 0, 1, 1]]
    assert [float(v).hex() for v in draws[draws != 0.0]] == [
        "0x1.2f658d559d8c0p-7", "0x1.8be29bbb2e138p-3", "0x1.4782f56999211p+0",
        "0x1.760a935405e36p-1", "0x1.5e605f7f6e5f0p+0", "0x1.df6eaeee0a090p-2",
    ]


def test_orthant_draws_extend_a_shorter_draw():
    """The first rows of a larger orthant draw are the smaller draw."""
    cone = cones.positive_orthant(3)
    assert np.array_equal(cones.sample_batch(cone, Rng(5, 3), 100, 2.0, 0.2)[:7],
                          cones.sample_batch(cone, Rng(5, 3), 7, 2.0, 0.2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_psd_draws_are_exactly_symmetric(n):
    draws = cones.sample_batch(cones.psd_cone(n), Rng(8, n), 500)
    assert all(np.array_equal(m, m.T) for m in draws)


def _bartlett_reference(rng_args, count, n, scale):
    """The PSD draw built in pure Python from the stream's lane-0 normals
    and lane-1 exponentials: ``L[i, j]`` (i > j) row by row, then one normal
    per odd ``n - i``; ``c_i = L[i, i]^2`` twice a sum of ``(n - i) // 2``
    exponentials plus that normal squared; each entry the left fold over
    ``k <= min(i, j)`` whose last diagonal term is ``c_i``, times ``scale / n``."""
    low = n * (n - 1) // 2
    normals = Rng(*rng_args).generator.standard_normal(size=(count, low + (n + 1) // 2))
    exps = Rng(*rng_args).lane(1).standard_exponential(size=(count, n * n // 4))
    out = np.empty((count, n, n))
    for t, (z, x) in enumerate(zip(normals.tolist(), exps.tolist())):
        factor = [[z[i * (i - 1) // 2 + j] for j in range(i)] for i in range(n)]
        chi, first, odd = [], 0, low
        for i in range(n):
            c = 0.0
            for k in range(first, first + (n - i) // 2):
                c += x[k]
            c *= 2.0
            if (n - i) % 2:
                c += z[odd] * z[odd]
                odd += 1
            chi.append(c)
            first += (n - i) // 2
            factor[i].append(math.sqrt(c))
        for i in range(n):
            for j in range(i + 1):
                terms = [factor[i][k] * factor[j][k] for k in range(j)]
                terms.append(chi[i] if i == j else factor[i][j] * factor[j][j])
                acc = terms[0]
                for term in terms[1:]:
                    acc += term
                out[t, i, j] = out[t, j, i] = acc * (scale / n)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
def test_psd_draws_fold_the_normals_left_to_right(n, scale):
    """Every entry is the left fold of the Bartlett factor ``L Lᵀ`` over the
    stream's lane-0 ``standard_normal`` and lane-1 ``standard_exponential``
    words, times ``scale / n``, bit for bit."""
    draws = cones.sample_batch(cones.psd_cone(n), Rng(23, n), 40, scale)
    assert np.array_equal(draws, _bartlett_reference((23, n), 40, n, scale))


def test_order_one_psd_draws_are_squared_normals():
    """At order 1 the factor is one chi-square with one degree of freedom,
    ``g * g``, so the draw reads only normals and keeps the bits of the
    ``G Gᵀ`` draw it replaced."""
    draws = cones.sample_batch(cones.psd_cone(1), Rng(2026, 7), 4, 2.5)
    g = Rng(2026, 7).generator.standard_normal(size=4)
    assert np.array_equal(draws.ravel(), g * g * 2.5)
    assert [float(v).hex() for v in draws.ravel()] == [
        "0x1.7f6fdfbf4175bp-1", "0x1.cce06eb8e03a0p+1", "0x1.7dfc6ef1d354cp+0",
        "0x1.2542e6c7a090ap-2",
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_psd_draws_have_the_wishart_moments(n):
    """Over 2^16 draws each entry's mean and variance match ``W_n(I, n) *
    scale / n``: mean ``scale * delta_ij`` and variance ``(1 + delta_ij) *
    scale^2 / n``, within 5 standard errors."""
    scale, count = 2.5, 2 ** 16
    draws = cones.sample_batch(cones.psd_cone(n), Rng(97, n), count, scale)
    eye = np.eye(n)
    mean, var = scale * eye, (1.0 + eye) * scale ** 2 / n
    dev = draws - draws.mean(axis=0)
    fourth = (dev ** 4).mean(axis=0)
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 5.0 * np.sqrt(var / count))
    assert np.all(np.abs(draws.var(axis=0) - var) <= 5.0 * np.sqrt((fourth - var ** 2) / count))


def test_lane_one_is_the_jumped_block():
    """Lane 1 of a block starts at counter ``[0, 0, 1, block]``, the words
    ``Philox.jumped()`` gives on the fresh block."""
    key = np.array([2026, 7], dtype=np.uint64)
    jumped = np.random.Philox(counter=[0, 0, 0, 3], key=key).jumped().random_raw(64)
    assert np.array_equal(Rng(2026, 7, 3).lane(1).bit_generator.random_raw(64), jumped)


def test_psd_draws_extend_a_shorter_draw():
    """The first rows of a larger draw are the smaller draw."""
    cone = cones.psd_cone(4)
    assert np.array_equal(cones.sample_batch(cone, Rng(5, 3), 100)[:7],
                          cones.sample_batch(cone, Rng(5, 3), 7))


def test_psd_draw_bits_are_pinned():
    """The PSD draw reads only the Philox normals and exponentials, IEEE
    ``sqrt`` and elementwise arithmetic, so every platform gives these bits."""
    draw = cones.sample_batch(cones.psd_cone(3), Rng(2026, 7), 1)
    assert [float(v).hex() for v in draw.ravel()] == [
        "0x1.911aa9c75c4dcp-1", "-0x1.1e66ba620d97dp-2", "-0x1.39fe45c21b052p-1",
        "-0x1.1e66ba620d97dp-2", "0x1.c8faa62bce3e5p-2", "0x1.ed070a981bc12p-2",
        "-0x1.39fe45c21b052p-1", "0x1.ed070a981bc12p-2", "0x1.1b65b0ba6b988p+0",
    ]
