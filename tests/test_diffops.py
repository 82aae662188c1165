"""Difference operators: first, second, k-th order, and shift-and-center."""

import math
import tracemalloc

import numpy as np
import pytest

from conecheck import catalog, checkers, diffops
from conecheck.catalog import PropertyLabel
from conecheck.checkers import CheckConfig, evaluate_expression
from conecheck.cones import Point, Rng, nonneg_orthant, psd_cone, sample_batch
from conecheck.diffops import _completely_monotone
from conecheck.diffops import FunctionHandle, delta, kth_diff, second_diff, shift_and_center
from conecheck.errors import CapabilityError, DomainError, ShapeError


def _scalar(label, fn, cone=None):
    return FunctionHandle(label, cone or nonneg_orthant(1), lambda rows: fn(rows[:, 0]))


def p(*xs):
    return Point.vector(list(xs))


def test_delta_affine():
    f = _scalar("affine", lambda x: 3.0 * x + 1.0)
    assert delta(f, p(2.0), p(5.0)) == pytest.approx(6.0)


def test_delta_log1p_at_zero_base():
    f = _scalar("log1p", np.log1p)
    assert delta(f, p(1.0), p(0.0)) == pytest.approx(math.log(2.0))


def test_delta_zero_increment():
    f = _scalar("sqrt", np.sqrt)
    assert delta(f, p(0.0), p(3.0)) == 0.0


def test_second_diff_squared_norm_value():
    h = catalog.instantiate("sq-norm", dim=2)
    for z in (p(0.0, 0.0), p(1.0, 2.0), p(0.3, 0.1)):
        val = second_diff(h, p(1.0, 1.0), p(2.0, 3.0), z)
        assert abs(val - 10.0) <= 1e-9


def test_second_diff_geomean_printed_value():
    h = catalog.instantiate("geomean2")
    val = second_diff(h, p(1 / 3, 1 / 3), p(1 / 3, 2 / 3), p(0.0, 0.0))
    assert val == pytest.approx(0.0117587268, abs=1e-9)
    # exact closed form: sqrt(2/3) - 1/3 - sqrt(2)/3
    assert val == pytest.approx(math.sqrt(2 / 3) - 1 / 3 - math.sqrt(2.0) / 3, abs=1e-14)


def test_second_diff_symmetry_is_exact():
    h = catalog.instantiate("lse", dim=3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y, z = (Point.vector(rng.normal(size=3)) for _ in range(3))
        assert second_diff(h, x, y, z) == second_diff(h, y, x, z)


def test_second_diff_linearity():
    f = _scalar("sq", lambda x: x * x)
    g = _scalar("log1p", np.log1p)
    a, b = 2.5, -1.25
    comb = _scalar("comb", lambda x: a * x * x + b * np.log1p(x))
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y, z = (p(abs(rng.normal())) for _ in range(3))
        lhs = second_diff(comb, x, y, z)
        rhs = a * second_diff(f, x, y, z) + b * second_diff(g, x, y, z)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_second_diff_annihilates_affine():
    c = np.array([1.5, -0.5, 2.0])
    h = FunctionHandle("affine", nonneg_orthant(3), lambda rows: rows @ c + 4.0)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x, y, z = (Point.vector(np.abs(rng.normal(size=3))) for _ in range(3))
        scale = max(1.0, abs(h(x)), abs(h(y)), abs(h(z)))
        assert abs(second_diff(h, x, y, z)) <= 5e-12 * scale


def test_kth_diff_low_orders_reduce():
    f = _scalar("sig", lambda x: 1.0 / (1.0 + np.exp(-x)))
    x, y, z = p(0.4), p(0.9), p(0.2)
    assert kth_diff(f, [x], z) == pytest.approx(delta(f, x, z), abs=1e-15)
    assert kth_diff(f, [x, y], z) == pytest.approx(second_diff(f, x, y, z), abs=1e-15)


def test_kth_diff_sign_of_exponential():
    # k-th differences of exp(-2x) carry the sign (-1)^k
    f = _scalar("expneg", lambda x: np.exp(-2.0 * x))
    val = kth_diff(f, [p(0.3), p(0.7), p(0.1)], p(0.5))
    assert (-1.0) ** 3 * val >= 0.0


def test_kth_diff_matches_recursive_delta():
    f = _scalar("smooth", lambda x: np.log1p(x) + 0.1 * x * x)

    def recursive(fh, xs, base):
        if len(xs) == 1:
            return delta(fh, p(xs[0]), p(base))
        return recursive(fh, xs[:-1], xs[-1] + base) - recursive(fh, xs[:-1], base)

    rng = np.random.default_rng(3)
    for k in range(1, 7):
        xs = [abs(rng.normal()) for _ in range(k)]
        base = abs(rng.normal())
        a = kth_diff(f, [p(x) for x in xs], p(base))
        b = recursive(f, xs, base)
        assert a == pytest.approx(b, rel=1e-11, abs=1e-11)


def test_kth_diff_order_cap():
    f = _scalar("id", lambda x: x)
    with pytest.raises(CapabilityError):
        kth_diff(f, [p(0.1)] * 13, p(0.0))
    with pytest.raises(ShapeError):
        kth_diff(f, [], p(0.0))


@pytest.mark.parametrize("entry_id,dim", [("exp-neg-linear", 3), ("det-recip-pow", 2)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_library_operators_are_one_row_check_forms(entry_id, dim, k):
    """delta, second_diff and kth_diff are the one-row cases of the forms the
    checks evaluate, bit for bit."""
    h = catalog.instantiate(entry_id, dim=dim)
    rows = sample_batch(h.domain, Rng(21, k), k + 1, 1.0, boundary_prob=0.0)
    pts = [Point(h.domain.point_kind, r) for r in rows]
    xyz = {"x": pts[0], "y": pts[-1], "z": pts[1 % (k + 1)]}
    slack, _ = evaluate_expression(h, "nondecreasing", {"U": xyz["z"], "step": xyz["x"]})
    assert delta(h, xyz["x"], xyz["z"]) == slack
    slack, _ = evaluate_expression(h, "second-diff-nonneg", xyz)
    assert second_diff(h, xyz["x"], xyz["y"], xyz["z"]) == slack
    steps = {f"x{i + 1}": x for i, x in enumerate(pts[1:])}
    slack, _ = evaluate_expression(h, f"completely-monotone[k={k}]", {"base": pts[0], **steps})
    assert kth_diff(h, pts[1:], pts[0]) == (-1.0) ** k * slack


def test_library_operators_raise_off_the_domain():
    f = catalog.instantiate("reciprocal")
    with pytest.raises(DomainError):
        second_diff(f, p(1.0), p(1.0), p(0.0))
    with pytest.raises(DomainError):
        kth_diff(f, [p(1.0), p(1.0)], p(0.0))


def test_shift_and_center_exponential():
    f = _scalar("expneg", lambda x: np.exp(-x))
    g = shift_and_center(f, p(0.0))
    assert g(p(0.0)) == 0.0  # exactly zero by construction
    assert g(p(1.0)) == pytest.approx(math.exp(-1.0) - 1.0)
    assert g(p(2.0)) <= 0.0


def test_shift_and_center_logistic_power():
    a, beta = 1.0, 2.0
    f = catalog.instantiate("logistic-pow", params={"a": a, "beta": beta})
    g = shift_and_center(f, p(0.0))
    for x in (0.0, 0.5, 2.0):
        assert g(p(x)) == pytest.approx((1 + a * math.exp(-x)) ** beta - (1 + a) ** beta)


def test_shift_and_center_matches_shifted_det_entry():
    beta = 0.5
    base = FunctionHandle(
        "det-recip-of-shift",
        psd_cone(2),
        lambda rows: np.linalg.det(np.eye(2) + rows) ** (-beta),
    )
    g = shift_and_center(base, Point.matrix(np.zeros((2, 2))))
    entry = catalog.instantiate("det-shift-recip", params={"beta": beta}, dim=2)
    rng = np.random.default_rng(4)
    for _ in range(25):
        gm = rng.normal(size=(2, 2))
        a = Point.matrix(gm @ gm.T)
        assert g(a) == pytest.approx(entry(a), rel=1e-10, abs=1e-12)


def test_shift_and_center_undefined_shift_point():
    f = catalog.instantiate("reciprocal")
    with pytest.raises(DomainError):
        shift_and_center(f, p(0.0))


def test_handle_rejects_incompatible_points():
    f = catalog.instantiate("lse", dim=3)
    with pytest.raises(Exception):
        f(Point.vector([1.0, 2.0]))


def test_second_diff_lse_at_unit_box_triple():
    """At x=(1,0), y=(0,1), z=(1,1) the four log-sum-exp terms simplify to
    1 - 2 log((1+e)/2), which is negative (no violation at this triple)."""
    h = catalog.instantiate("lse", dim=2)
    val = second_diff(h, p(1.0, 0.0), p(0.0, 1.0), p(1.0, 1.0))
    assert val == pytest.approx(1.0 - 2.0 * math.log((1.0 + math.e) / 2.0), abs=1e-12)
    assert val < 0


# f is -0.0 or NaN on every row, so the sums start from +0.0 and any NaN
# must reach the scale
SIGNED_ZERO = FunctionHandle("signed-zero", nonneg_orthant(2),
                             lambda r: np.where(r[:, 0] > 2.5, np.nan, -0.0 * r[:, 1]))


def _cm_roles(handle, k, t, seed=0):
    rng = Rng(seed, k)
    roles = {"base": sample_batch(handle.domain, rng, t)}
    for i in range(k):
        roles[f"x{i + 1}"] = sample_batch(handle.domain, rng, t, 0.5)
    return roles


def _cm_bits(monkeypatch, rows, k, handle, roles):
    monkeypatch.setattr(diffops, "_SUBSET_ROWS", rows)
    slack, scale = _completely_monotone(k, handle, roles)
    return slack.tobytes() + scale.tobytes()


# built from + - * / alone, so each row's value has the same bits in any call
RECIP_1PX = FunctionHandle("recip-1px", nonneg_orthant(1), lambda r: 1.0 / (1.0 + r[:, 0]))
RECIP_DET2 = FunctionHandle("recip-det2", psd_cone(2),
                            lambda r: 1.0 / (r[:, 0, 0] * r[:, 1, 1] - r[:, 0, 1] * r[:, 1, 0]))


@pytest.mark.parametrize("handle", [RECIP_1PX, RECIP_DET2, SIGNED_ZERO], ids=lambda h: h.label)
def test_completely_monotone_bits_do_not_depend_on_the_row_budget(monkeypatch, handle):
    """At every k <= 8 the same trials give the same bits, signed zeros and
    NaN included, at the default budget of subset rows per call, at a budget
    of 8 rows and with all rows in one call."""
    default = diffops._SUBSET_ROWS
    for k in range(9):
        for t in (1, 2, 3, 7, 40, 9000, 20000):
            roles = _cm_roles(handle, k, t)
            bits = _cm_bits(monkeypatch, default, k, handle, roles)
            if t << k <= 2 ** 18:
                assert _cm_bits(monkeypatch, 2 ** 62, k, handle, roles) == bits, (k, t)
            if t <= 40:
                assert _cm_bits(monkeypatch, 8, k, handle, roles) == bits, (k, t)


@pytest.mark.parametrize("handle", [RECIP_1PX, RECIP_DET2], ids=lambda h: h.label)
def test_one_row_completely_monotone_is_the_block_row(handle):
    """At every k <= 8 each of 100 trials evaluated on its own, by the form
    and by ``kth_diff``, gives the bits it gets inside the block."""
    for k in range(9):
        roles = _cm_roles(handle, k, 100)
        slack, scale = _completely_monotone(k, handle, roles)
        for i in range(100):
            one = _completely_monotone(k, handle, {n: a[i:i + 1] for n, a in roles.items()})
            assert one[0].tobytes() + one[1].tobytes() == slack[i].tobytes() + scale[i].tobytes()
            if k and np.isfinite(slack[i]) and np.isfinite(scale[i]):
                pts = {n: Point(handle.domain.point_kind, a[i], _validated=True)
                       for n, a in roles.items()}
                value = kth_diff(handle, [pts[f"x{j + 1}"] for j in range(k)], pts["base"])
                assert np.float64(value).tobytes() == (-slack[i] if k % 2 else slack[i]).tobytes()


@pytest.mark.parametrize("handle", [RECIP_1PX, RECIP_DET2], ids=lambda h: h.label)
def test_every_order_of_a_block_is_its_own_form_on_shared_steps(monkeypatch, handle):
    """A completely-monotone block draws ``order_cap`` steps once; order j
    reads ``base, x1..xj`` of them and gets the bits of the order-j form."""
    blocks, components = [], checkers._components
    monkeypatch.setattr(checkers, "_components",
                        lambda *args: blocks.append(components(*args)) or blocks[-1])
    checkers.check(handle, PropertyLabel.COMPLETELY_MONOTONE,
                   CheckConfig(trials=300, order_cap=8, boundary_prob=0.5))
    comps, = blocks
    assert [c.form.expression for c in comps] == [f"completely-monotone[k={j}]" for j in range(9)]
    for j, c in enumerate(comps):
        assert list(c.roles) == ["base"] + [f"x{i + 1}" for i in range(j)]
        assert all(c.roles[n] is comps[-1].roles[n] for n in c.roles)
        slack, scale = _completely_monotone(j, handle, c.roles)
        assert slack.tobytes() + scale.tobytes() == c.slack.tobytes() + c.scale.tobytes()


def test_completely_monotone_memory_does_not_grow_with_the_order():
    """At 2^14 trials the form peaks within a small constant at k = 10 of its
    peak at k = 2; all 2^10 subset points at once would take 384 MiB."""
    handle = catalog.instantiate("exp-neg-linear")

    def peak(k):
        roles = _cm_roles(handle, k, 2 ** 14)
        tracemalloc.start()
        try:
            _completely_monotone(k, handle, roles)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10) < 2 * peak(2)
