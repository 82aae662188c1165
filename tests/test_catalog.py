"""Catalog integrity: required entries, label closure, curvature consistency,
parameter validation, and evaluation smoke tests."""

import numpy as np
import pytest

from conecheck import cones
from conecheck.catalog import (
    PropertyLabel as L,
    SourceStatus as S,
    builtin_entries,
    instantiate,
    lookup,
)
from conecheck.cones import Point, Rng
from conecheck.diffops import second_diff
from conecheck.errors import ParameterError, UnknownEntryError

REQUIRED_IDS = {
    "affine-power", "one-minus-sqrt1p", "neg-xlogx-shift", "log1p", "neg-log-cosh",
    "e-minus-1px-pow", "one-minus-exp-neg", "sigmoid",
    "half-sq-plus-log1p", "half-sq-minus-log1p", "half-sq-plus-sin", "half-sq-minus-sin",
    "half-sq-minus-cos", "half-sq-plus-cos", "x-gamma-minus-1", "reciprocal",
    "shannon-entropy", "sq-norm", "inner-product", "concave-of-linear", "geomean2",
    "pairwise-diff-convex", "jensen-gap", "nonneg-poly", "lse", "lp-power-norm",
    "det", "logdet-pencil", "trace-pow", "trace-hansen", "vn-entropy", "logdet",
    "det-recip-pow", "det-shift-recip", "exp-neg-linear", "inv-power-product",
    "logistic-pow", "elem-sym-4",
}

SCALAR_SUBADD = ["affine-power", "one-minus-sqrt1p", "neg-xlogx-shift", "log1p",
                 "neg-log-cosh", "e-minus-1px-pow", "one-minus-exp-neg", "sigmoid"]
SCALAR_SUPERADD = ["half-sq-plus-log1p", "half-sq-minus-log1p", "half-sq-plus-sin",
                   "half-sq-minus-sin", "half-sq-minus-cos", "x-gamma-minus-1"]


def test_required_entries_present_and_unique():
    entries = builtin_entries()
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 30
    assert REQUIRED_IDS <= set(ids)


def test_lookup():
    assert lookup("lse").id == "lse"
    with pytest.raises(UnknownEntryError) as err:
        lookup("nope")
    assert "log1p" in str(err.value)  # lists the valid ids


def test_label_implication_closure():
    active = (S.ASSERTED, S.CONSISTENT)
    for e in builtin_entries():
        if e.labels.get(L.STRONG_SUBADD) in active:
            assert e.labels.get(L.SUBADD) in active, e.id
            assert e.labels.get(L.SECOND_DIFF_NONPOS) in active, e.id
        if e.labels.get(L.STRONG_SUPERADD) in active:
            assert e.labels.get(L.SUPERADD) in active, e.id
            assert e.labels.get(L.SECOND_DIFF_NONNEG) in active, e.id


def test_refuted_candidates_marked():
    assert lookup("half-sq-plus-cos").labels[L.SUPERADD] is S.REFUTED_CANDIDATE
    assert lookup("reciprocal").labels[L.STRONG_SUBADD] is S.REFUTED_CANDIDATE
    assert lookup("geomean2").labels[L.STRONG_SUBADD] is S.REFUTED_CANDIDATE
    assert lookup("pairwise-diff-convex").labels[L.STRONG_SUBADD] is S.REFUTED_CANDIDATE
    assert lookup("jensen-gap").labels[L.STRONG_SUBADD] is S.REFUTED_CANDIDATE
    assert lookup("lse").labels[L.STRONG_SUBADD] is S.REFUTED_CANDIDATE


@pytest.mark.parametrize("entry_id", SCALAR_SUBADD + SCALAR_SUPERADD)
def test_scalar_strong_entries_have_matching_curvature(entry_id):
    """Strong subadditive scalars must be numerically concave with f(0) >= 0;
    strong superadditive ones convex with f(0) <= 0."""
    handle = instantiate(entry_id)
    concave = entry_id in SCALAR_SUBADD
    h = 1e-4
    xs = np.linspace(0.05, 8.0, 200)
    rows = np.concatenate([xs + h, xs, xs - h])[:, None]
    vals = handle.batch(rows).reshape(3, -1)
    d2 = (vals[0] - 2 * vals[1] + vals[2]) / (h * h)
    if concave:
        assert np.max(d2) <= 1e-6
        assert handle(Point.vector([0.0])) >= -1e-12
    else:
        assert np.min(d2) >= -1e-6
        assert handle(Point.vector([0.0])) <= 1e-12


def test_sq_norm_second_diff_equals_bilinear_form():
    handle = instantiate("sq-norm", dim=4)
    rng = Rng(11, 0)
    g = rng.generator
    for _ in range(1000):
        x, y, z = (Point.vector(np.abs(g.normal(size=4))) for _ in range(3))
        assert abs(second_diff(handle, x, y, z) - 2.0 * x.inner(y)) <= 1e-9


def test_trace_pow_linear_boundary_has_vanishing_second_diff():
    handle = instantiate("trace-pow", params={"p": 1.0}, dim=3)
    g = Rng(12, 0).generator
    for _ in range(200):
        mats = []
        for _ in range(3):
            gm = g.normal(size=(3, 3))
            mats.append(Point.matrix(gm @ gm.T))
        assert abs(second_diff(handle, *mats)) <= 1e-10


@pytest.mark.parametrize("entry", builtin_entries(), ids=lambda e: e.id)
def test_every_entry_finite_on_interior_samples(entry):
    handle = instantiate(entry)
    rows = cones.sample_batch(handle.domain, Rng(13, 0), 1000, 1.0, boundary_prob=0.0)
    vals = handle.batch(rows)
    assert np.all(np.isfinite(vals)), entry.id


def test_parameter_range_errors():
    with pytest.raises(ParameterError, match=r"alpha"):
        instantiate("affine-power", params={"alpha": 2.0})
    with pytest.raises(ParameterError):
        instantiate("trace-pow", params={"p": 3.0})
    with pytest.raises(ParameterError):
        instantiate("lp-power-norm", params={"p": 1.0})
    with pytest.raises(ParameterError):
        instantiate("logistic-pow", params={"a": -1.0})
    with pytest.raises(ParameterError, match="unknown parameters"):
        instantiate("log1p", params={"nope": 1.0})
    with pytest.raises(ParameterError, match="fixed"):
        instantiate("geomean2", dim=3)


def test_pencil_rejects_non_pd_matrices():
    bad = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ParameterError, match="positive definite"):
        instantiate("logdet-pencil", params={"order": 2, "matrices": bad}, dim=2)


def test_pencil_evaluates_with_custom_matrices():
    mats = np.stack([np.eye(2), 2.0 * np.eye(2)])
    handle = instantiate("logdet-pencil", params={"order": 2, "matrices": mats}, dim=2)
    val = handle(Point.vector([1.0, 1.0]))
    assert val == pytest.approx(np.log(9.0))


def test_domains_match_entry_families():
    assert instantiate("det", dim=4).domain == cones.psd_cone(4)
    assert instantiate("lse", dim=5).domain == cones.full_space(5)
    assert instantiate("reciprocal").domain == cones.positive_orthant(1)
    assert instantiate("inv-power-product", dim=2).domain == cones.positive_orthant(2)
    inner = instantiate("inner-product", dim=3).domain
    assert inner.family == cones.PRODUCT and inner.dim == 6
    grid = instantiate("lp-power-norm", dim=8).domain
    assert grid.family == cones.GRID_LP_POSITIVE and grid.dim == 8


def test_entry_json_shape():
    obj = lookup("det").to_json()
    assert set(obj) == {"id", "domain", "labels", "status", "source"}
    assert obj["status"]["strong-superadd"] == "asserted"


def test_concave_of_linear_requires_concave_inner():
    with pytest.raises(ParameterError):
        instantiate("concave-of-linear", params={"inner": "half-sq-minus-cos", "a": 1.0})


def test_logistic_pow_closed_form():
    handle = instantiate("logistic-pow", params={"a": 2.0, "beta": 3.0})
    x = 0.7
    assert handle(Point.vector([x])) == pytest.approx((1 + 2 * np.exp(-x)) ** 3)


def test_trace_hansen_closed_form_p_half():
    # with p = 1/2 the antiderivative of (1 + sqrt(s))^2 is t + (4/3) t^{3/2} + t^2/2
    handle = instantiate("trace-hansen", params={"p": 0.5}, dim=2)
    a = Point.matrix(np.diag([0.3, 4.0]))
    expected = sum(t + (4.0 / 3.0) * t ** 1.5 + t * t / 2.0 for t in (0.3, 4.0))
    assert handle(a) == pytest.approx(expected, rel=1e-12)


def test_trace_hansen_closed_form_p_one():
    # p = 1 integrand is 1 + s, so the antiderivative is t + t^2/2
    handle = instantiate("trace-hansen", params={"p": 1.0}, dim=2)
    a = Point.matrix(np.diag([0.5, 2.0]))
    expected = sum(t + t * t / 2.0 for t in (0.5, 2.0))
    assert handle(Point.matrix(np.diag([0.5, 2.0]))) == pytest.approx(expected, rel=1e-13)


# The spectral domain rules, pinned at their boundaries.  Eigenvalue-based
# PSD handles see the smallest eigenvalue of a diagonal matrix exactly.
SPECTRAL_LAMBDA_MIN = (2e-12, 1e-12, 0.0, -1e-13, -2e-12, -0.5, -0.51)
# logdet and det-recip-pow need lambda_min > 1e-12
_OPEN_WINDOW = {2e-12}
# the trace functionals clamp [-1e-12, 0) to 0; anything lower is off the domain
_CLAMP_WINDOW = {2e-12, 1e-12, 0.0, -1e-13}
SPECTRAL_HANDLES = [
    ("trace-pow", {"p": 0.0}, _CLAMP_WINDOW),
    ("trace-pow", {"p": 0.5}, _CLAMP_WINDOW),
    ("trace-pow", {"p": 1.5}, _CLAMP_WINDOW),
    ("trace-hansen", {"p": 0.5}, _CLAMP_WINDOW),
    ("trace-hansen", {"p": 1.0}, _CLAMP_WINDOW),
    ("vn-entropy", {}, _CLAMP_WINDOW),
    ("logdet", {}, _OPEN_WINDOW),
    ("det-recip-pow", {"beta": 0.5}, _OPEN_WINDOW),
    ("det-recip-pow", {"beta": 1.0}, _OPEN_WINDOW),
    # I + A must stay positive definite: lambda_min >= -0.5
    ("det-shift-recip", {"beta": 0.5}, set(SPECTRAL_LAMBDA_MIN) - {-0.51}),
    ("det-shift-recip", {"beta": 1.0}, set(SPECTRAL_LAMBDA_MIN) - {-0.51}),
]


@pytest.mark.parametrize(
    "entry_id,params,finite", SPECTRAL_HANDLES,
    ids=[f"{e}-{'-'.join(f'{k}={v}' for k, v in p.items())}" for e, p, _ in SPECTRAL_HANDLES],
)
def test_spectral_domain_rules(entry_id, params, finite):
    handle = instantiate(entry_id, params=params, dim=3)
    rows = np.stack([np.diag([lam, 1.0, 2.5]) for lam in SPECTRAL_LAMBDA_MIN])
    vals = handle.batch(rows)
    for lam, v in zip(SPECTRAL_LAMBDA_MIN, vals):
        assert np.isfinite(v) == (lam in finite), (lam, v)
    if finite is _CLAMP_WINDOW:
        # the clamp sends -1e-13 to exactly 0
        zero = SPECTRAL_LAMBDA_MIN.index(0.0)
        assert vals[SPECTRAL_LAMBDA_MIN.index(-1e-13)] == vals[zero]
    one_by_one = np.array([handle.batch(r[None])[0] for r in rows])
    np.testing.assert_array_equal(vals, one_by_one)
