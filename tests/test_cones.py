"""Cone membership, order, lattice, comonotonicity, and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecheck import cones
from conecheck.catalog import builtin_entries, instantiate
from conecheck.cones import Point, Rng
from conecheck.errors import CapabilityError, ParameterError, ShapeError

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


def test_leq_orthant_and_loewner():
    orth = cones.nonneg_orthant(2)
    assert cones.leq(orth, Point.vector([1, 2]), Point.vector([1, 3]))
    assert not cones.leq(orth, Point.vector([1, 3]), Point.vector([1, 2]))
    psd = cones.psd_cone(2)
    eye = Point.matrix(np.eye(2))
    assert cones.leq(psd, eye, 2.0 * eye)
    # diag(1,0) and diag(0,1) differ by a matrix with eigenvalues +-1
    a, b = Point.matrix(np.diag([1.0, 0.0])), Point.matrix(np.diag([0.0, 1.0]))
    assert not cones.leq(psd, a, b)
    assert not cones.leq(psd, b, a)


def test_meet_join_examples():
    orth = cones.nonneg_orthant(2)
    lo, hi = cones.meet_join(orth, Point.vector([1, 4]), Point.vector([3, 2]))
    assert lo == Point.vector([1, 2]) and hi == Point.vector([3, 4])
    x = Point.vector([2, 7])
    assert cones.meet_join(orth, x, x) == (x, x)
    lo, hi = cones.meet_join(orth, Point.vector([0, 5]), Point.vector([5, 0]))
    assert lo == Point.vector([0, 0]) and hi == Point.vector([5, 5])


def test_meet_join_needs_lattice():
    with pytest.raises(CapabilityError):
        cones.meet_join(cones.psd_cone(2), Point.matrix(np.eye(2)), Point.matrix(np.eye(2)))


@given(
    st.lists(finite_floats, min_size=1, max_size=8),
    st.lists(finite_floats, min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_lattice_identity_exact(xs, ys):
    n = min(len(xs), len(ys))
    x, y = Point.vector(xs[:n]), Point.vector(ys[:n])
    lo, hi = cones.meet_join(cones.full_space(n), x, y)
    # min/max are exact in floating point, so this identity is bitwise
    assert np.array_equal(lo.data + hi.data, x.data + y.data)


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
    rng = Rng(123, 0)
    for _ in range(50):
        pt = cones.sample(cone, rng, scale=1.0)
        assert cones.member(cone, pt, tol=1e-10)


def test_psd_sample_eigenvalues_nonnegative():
    rng = Rng(5, 1)
    for _ in range(20):
        pt = cones.sample(cones.psd_cone(3), rng, scale=1.0)
        assert np.linalg.eigvalsh(pt.data)[0] >= -1e-10


def test_sample_determinism_and_stream_independence():
    cone = cones.nonneg_orthant(3)
    a = cones.sample(cone, Rng(77, 4), scale=2.0)
    b = cones.sample(cone, Rng(77, 4), scale=2.0)
    c = cones.sample(cone, Rng(77, 5), scale=2.0)
    assert a == b
    assert a != c


def test_sample_scale_must_be_positive():
    with pytest.raises(ParameterError):
        cones.sample(cones.nonneg_orthant(1), Rng(0), scale=0.0)


def test_comonotone_pair_postconditions():
    for n in (1, 2, 5):
        u, v = cones.sample_comonotone_pair(n, Rng(9, n), scale=1.0)
        assert cones.comonotonic(u, v, tol=0.0)
        assert np.all(u.data >= 0) and np.all(v.data >= 0)
    again = cones.sample_comonotone_pair(5, Rng(9, 5), scale=1.0)
    assert again == cones.sample_comonotone_pair(5, Rng(9, 5), scale=1.0)


def test_order_transitivity_on_random_triples():
    cone = cones.psd_cone(3)
    rng = Rng(31, 0)
    tol = 1e-9
    for _ in range(1000):
        x = cones.sample(cone, rng)
        y = x + cones.sample(cone, rng)
        z = y + cones.sample(cone, rng)
        assert cones.leq(cone, x, y, tol) and cones.leq(cone, y, z, tol)
        assert cones.leq(cone, x, z, 2 * tol)


def test_open_orthant_samples_have_positive_floor():
    arr = cones.sample_batch(cones.positive_orthant(4), Rng(1, 0), 200, scale=1.0)
    assert arr.min() >= 1e-6


def test_point_arithmetic_and_kind_checks():
    x, y = Point.vector([1.0, 2.0]), Point.vector([0.5, 0.5])
    assert (x + y) == Point.vector([1.5, 2.5])
    assert (x - y) == Point.vector([0.5, 1.5])
    assert (2.0 * x) == Point.vector([2.0, 4.0])
    with pytest.raises(ShapeError):
        x + Point.matrix(np.eye(2))
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


def test_matrix_inner_is_trace_pairing():
    a = Point.matrix([[1.0, 2.0], [2.0, 5.0]])
    b = Point.matrix([[3.0, 0.0], [0.0, 4.0]])
    assert a.inner(b) == pytest.approx(np.trace(a.data @ b.data))


def test_point_json_shapes():
    v = Point.vector([1.0, 2.0])
    m = Point.matrix(np.eye(2))
    assert v.to_json() == [1.0, 2.0]
    assert m.to_json() == [[1.0, 0.0], [0.0, 1.0]]
    assert cones.point_from_json(v.to_json()) == v
    assert cones.point_from_json(m.to_json()) == m


def test_cone_json_round_trip():
    specs = [
        cones.nonneg_orthant(4),
        cones.positive_orthant(2),
        cones.full_space(3),
        cones.psd_cone(3),
    ] + [instantiate(entry).domain for entry in builtin_entries()]
    for spec in specs:
        assert cones.cone_from_json(spec.to_json()) == spec


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
    assert np.all(interior > 0.0) or np.all(interior >= 0.0)
