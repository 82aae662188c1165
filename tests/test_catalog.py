"""Catalog integrity: required entries, label closure, curvature consistency,
parameter validation, and evaluation smoke tests."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conecheck import catalog, cones
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
        x, y, z = (np.abs(g.normal(size=4)) for _ in range(3))
        sd = second_diff(handle, Point.vector(x), Point.vector(y), Point.vector(z))
        assert abs(sd - 2.0 * float(x @ y)) <= 1e-9


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


# trace-hansen at p = 0.7 on rows drawn at scale 4, whose eigenvalues lie on
# both sides of its switch from the Gauss-Jacobi rule to the tail series
_HANSEN_BLOCK = ({"p": 0.7}, 4.0)


def _block_rows(handle, scale=1.0):
    rows = cones.sample_batch(handle.domain, Rng(17, 2), 300, scale, boundary_prob=0.5)
    rows[0] = 0.0
    return rows


def _block_cases():
    """Every entry at its default dimension, each entry whose dimension is
    free at 9, where ``lse`` and the sums of squares have rows of 8 or more
    values and ``pairwise-diff-convex`` 36 pair differences, and
    ``trace-hansen`` on both of its branches."""
    for entry in builtin_entries():
        yield pytest.param(entry, None, None, 1.0, id=entry.id)
        if not entry.fixed_dim:
            yield pytest.param(entry, 9, None, 1.0, id=f"{entry.id}-dim9")
    yield pytest.param("trace-hansen", None, *_HANSEN_BLOCK, id="trace-hansen-p0.7-both-branches")


@pytest.mark.parametrize("entry, dim, params, scale", _block_cases())
def test_batch_rows_equal_one_row_values_bit_for_bit(entry, dim, params, scale):
    """A trial's value in a block is its one-row value, so a stored witness
    margin, which comes from the one-row path, reproduces the block's bits.
    The rows include boundary zeros and the origin."""
    handle = instantiate(entry, params=params, dim=dim)
    rows = _block_rows(handle, scale)
    block = handle.batch(rows)
    one = np.array([handle.batch(row[None])[0] for row in rows])
    assert block.tobytes() == one.tobytes()


def test_trace_hansen_block_rows_reach_both_branches():
    """The bit-for-bit case of ``trace-hansen`` has rows whose eigenvalues
    are all on the rule's side of t = 4^(1/p) and rows with eigenvalues on
    both sides."""
    params, scale = _HANSEN_BLOCK
    rows = _block_rows(instantiate("trace-hansen", params=params), scale)
    far = np.linalg.eigvalsh(rows) > 4.0 ** (1.0 / params["p"])
    assert (~far.any(axis=1)).sum() >= 50 and (far.any(axis=1) & ~far.all(axis=1)).sum() >= 50


# one out-of-range case per parameter check: (entry, params, dim, message part)
_RANGE_ERRORS = [
    ("affine-power", {"alpha": 2.0}, None, "alpha must lie in [0, 1], got 2.0"),
    ("affine-power", {"n": -1.0}, None, "n must lie in [0, inf), got -1.0"),
    ("affine-power", {"p": -1.0}, None, "p must lie in [0, inf), got -1.0"),
    ("one-minus-sqrt1p", {"alpha": 0.0}, None, "alpha must lie in (0, inf), got 0.0"),
    ("neg-xlogx-shift", {"alpha": 1.5}, None, "alpha must lie in [0, 1], got 1.5"),
    ("concave-of-linear", {"inner": "sq-norm"}, None, "must be a scalar strong-subadd entry"),
    ("concave-of-linear", {"a": [1.0, -1.0]}, 2,
     "a must lie in [0, inf)^n, got [1.0, -1.0]"),
    ("concave-of-linear", {"a": [1.0, 1.0]}, 3, "parameter 'a' must have length 3"),
    ("pairwise-diff-convex", {"q": 1.5}, None, "q must lie in [2, inf), got 1.5"),
    ("jensen-gap", {"weights": -0.5}, None, "weights must lie in [0, inf)^n, got -0.5"),
    ("jensen-gap", {"inner": "log1p"}, None, "only neg-square"),
    ("nonneg-poly", {"monomials": [[1.0, 2.0]]}, 3, "each monomial needs 1 + 3 numbers"),
    ("nonneg-poly", {"monomials": [[-1.0, 2.0, 0.0]]}, 2, "coefficients must be nonnegative"),
    ("nonneg-poly", {"monomials": [[1.0, 0.0, 0.0]]}, 2, "constant term must be zero"),
    ("lp-power-norm", {"p": 1.0}, None, "p must lie in (1, inf), got 1.0"),
    ("lp-power-norm", {"h": 0.0}, None, "h must lie in (0, inf), got 0.0"),
    ("logdet-pencil", {"order": 2, "matrices": np.stack([np.eye(2)] * 2)}, 3,
     "need 3 matrices of order 2"),
    ("trace-pow", {"p": 3.0}, None, "p must lie in [0, 2], got 3.0"),
    ("trace-hansen", {"p": 0.0}, None, "p must lie in (0, 1], got 0.0"),
    ("det-recip-pow", {"beta": -0.5}, None, "beta must lie in [0, inf), got -0.5"),
    ("det-shift-recip", {"beta": -0.5}, None, "beta must lie in [0, inf), got -0.5"),
    ("exp-neg-linear", {"alpha": 0.0}, None, "alpha must lie in (0, inf)^n, got 0.0"),
    ("inv-power-product", {"alpha": [1.0, -1.0, 1.0]}, None,
     "alpha must lie in (0, inf)^n, got [1.0, -1.0, 1.0]"),
    ("logistic-pow", {"a": -1.0}, None, "a must lie in (0, inf), got -1.0"),
    ("logistic-pow", {"beta": -1.0}, None, "beta must lie in [0, inf), got -1.0"),
    ("elem-sym-4", {"beta": -1.0}, None, "beta must lie in [0, inf), got -1.0"),
    ("elem-sym-4-shifted", {"beta": -1.0}, None, "beta must lie in [0, inf), got -1.0"),
    ("log1p", {"nope": 1.0}, None, "unknown parameters"),
    ("sq-norm", None, 0, "dimension must be positive"),
    ("geomean2", None, 3, "dimension is fixed at 2"),
    ("trace-pow", {"p": "abc"}, None, "parameter of the wrong type"),
    ("concave-of-linear", {"a": "1,x"}, None, "parameter of the wrong type"),
]


def test_parameter_range_errors():
    for entry_id, params, dim, message in _RANGE_ERRORS:
        with pytest.raises(ParameterError) as info:
            instantiate(entry_id, params=params, dim=dim)
        text = str(info.value)
        assert text.startswith(f"{entry_id}: ") and message in text, (entry_id, params, text)
        # raised once, not re-wrapped: one entry prefix, and "wrong type" only where meant
        assert text.count(f"{entry_id}: ") == 1, text
        assert ("wrong type" in text) == (message == "parameter of the wrong type"), text


# every declared parameter and its interval; a trailing ^n checks each
# element of a vector
DOMAINS = {
    ("affine-power", "m"): "(-inf, inf)",
    ("affine-power", "n"): "[0, inf)",
    ("affine-power", "p"): "[0, inf)",
    ("affine-power", "alpha"): "[0, 1]",
    ("one-minus-sqrt1p", "alpha"): "(0, inf)",
    ("neg-xlogx-shift", "alpha"): "[0, 1]",
    ("concave-of-linear", "a"): "[0, inf)^n",
    ("pairwise-diff-convex", "q"): "[2, inf)",
    ("jensen-gap", "weights"): "[0, inf)^n",
    ("lp-power-norm", "p"): "(1, inf)",
    ("lp-power-norm", "h"): "(0, inf)",
    ("logdet-pencil", "order"): "[1, inf)",
    ("trace-pow", "p"): "[0, 2]",
    ("trace-hansen", "p"): "(0, 1]",
    ("det-recip-pow", "beta"): "[0, inf)",
    ("det-shift-recip", "beta"): "[0, inf)",
    ("exp-neg-linear", "alpha"): "(0, inf)^n",
    ("inv-power-product", "alpha"): "(0, inf)^n",
    ("logistic-pow", "a"): "(0, inf)",
    ("logistic-pow", "beta"): "[0, inf)",
    ("elem-sym-4", "beta"): "[0, inf)",
    ("elem-sym-4-shifted", "beta"): "[0, inf)",
}


def test_every_numeric_parameter_declares_its_interval():
    declared = {(e.id, name): dom[0] for e in builtin_entries() for name, dom in e.domains.items()}
    assert declared == DOMAINS


def _interval_ends(text):
    """(value, accepted) for each finite end of an interval."""
    core = text.removesuffix("^n")
    lo, hi = (float(v) for v in core[1:-1].split(", "))
    return [(v, closed) for v, closed in ((lo, core[0] == "["), (hi, core[-1] == "]"))
            if math.isfinite(v)]


@pytest.mark.parametrize("entry_id, name", sorted(DOMAINS), ids="-".join)
def test_non_finite_parameters_are_refused(entry_id, name):
    """NaN and both infinities are outside every interval, and so is a
    vector holding one of them."""
    text = DOMAINS[entry_id, name]
    values = [math.nan, math.inf, -math.inf]
    if text.endswith("^n"):
        values += [[1.0, v, 1.0] for v in values]
    for value in values:
        with pytest.raises(ParameterError) as info:
            instantiate(entry_id, params={name: value})
        assert str(info.value) == f"{entry_id}: {name} must lie in {text}, got {value}"


@pytest.mark.parametrize("entry_id, name", sorted(DOMAINS), ids="-".join)
def test_closed_interval_ends_are_accepted_and_open_ones_refused(entry_id, name):
    for value, closed in _interval_ends(DOMAINS[entry_id, name]):
        if closed:
            assert instantiate(entry_id, params={name: value}).domain is not None
        else:
            with pytest.raises(ParameterError, match=f"{name} must lie in"):
                instantiate(entry_id, params={name: value})


def test_pencil_rejects_non_pd_matrices():
    bad = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(ParameterError, match="positive definite"):
        instantiate("logdet-pencil", params={"order": 2, "matrices": bad}, dim=2)


def test_pencil_evaluates_with_custom_matrices():
    mats = np.stack([np.eye(2), 2.0 * np.eye(2)])
    handle = instantiate("logdet-pencil", params={"order": 2, "matrices": mats}, dim=2)
    val = handle(Point.vector([1.0, 1.0]))
    assert val == pytest.approx(np.log(9.0))


def test_default_pencil_is_pinned_without_the_sampler(monkeypatch):
    """The pencil matrices are a closed form, not draws: with the PSD sampler
    disabled, the default entry and every other shape give matrix
    k = 0.5 I + [1 / (i + j + k + 1)]_ij."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("the pencil must not be drawn")

    monkeypatch.setattr(cones, "sample_batch", no_sampling)
    for params, dim, order in ((None, None, 3), (None, 4, 3), ({"order": 2}, 3, 2)):
        handle = instantiate("logdet-pencil", params=params, dim=dim)
        dim = dim or 3
        for k in range(dim):
            want = np.array([[1.0 / (i + j + k + 1) + 0.5 * (i == j) for j in range(order)]
                             for i in range(order)])
            assert handle.batch(np.eye(dim)[k:k + 1])[0] == np.linalg.slogdet(want[None])[1][0]


def test_domains_match_entry_families():
    assert instantiate("det", dim=4).domain == cones.psd_cone(4)
    assert instantiate("lse", dim=5).domain == cones.full_space(5)
    assert instantiate("reciprocal").domain == cones.positive_orthant(1)
    assert instantiate("inv-power-product", dim=2).domain == cones.positive_orthant(2)
    assert instantiate("inner-product", dim=3).domain == cones.nonneg_orthant(6)
    assert instantiate("lp-power-norm", dim=8).domain == cones.nonneg_orthant(8)


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


def _hansen_reference(t: float, p: Decimal) -> Decimal:
    """F(t) = int_0^t (1 + s^p)^a ds, a = 1/p, to about 40 digits in decimal
    arithmetic.  With T = t^p, F(t) = t 2F1(-a, a; 1 + a; -T), which Pfaff's
    transformation turns into t (1 + T)^a 2F1(-a, 1; 1 + a; w), a series in
    w = T / (1 + T) <= 2/3 for T <= 2.  Beyond, (1 + s^p)^a = s (1 + s^-p)^a
    integrates term by term from t2 = 2^a: F(t) = F(t2) + sum_k binom(a, k)
    (t^(2-pk) - t2^(2-pk)) / (2 - pk), a series in 1/T < 1/2."""
    with localcontext() as ctx:
        ctx.prec = 50
        tiny = Decimal("1e-45")
        a, t = 1 / p, Decimal(t)

        def pfaff(t, big_t):
            w = big_t / (1 + big_t)
            term = total = Decimal(1)
            k = 0
            while abs(term) > tiny:
                term *= (k - a) / (k + 1 + a) * w
                total += term
                k += 1
            return t * (1 + big_t) ** a * total

        big_t = t ** p
        if big_t <= 2:
            return pfaff(t, big_t)
        t2 = 2 ** a
        total = pfaff(t2, Decimal(2))
        binom, at_t, at_t2 = Decimal(1), t * t, t2 * t2
        k = 0
        while abs(binom * at_t2) > tiny * total:
            e = 2 - p * k
            total += binom * ((at_t - at_t2) / e if e else (t / t2).ln())
            binom *= (a - k) / (k + 1)
            at_t, at_t2 = at_t / big_t, at_t2 / 2
            k += 1
        return total


@pytest.mark.parametrize("m", [1, 2, 3, 5, 10])
def test_hansen_reference_matches_the_closed_forms(m):
    """At p = 1/m, (1 + s^p)^m is a polynomial in s^p, so
    F(t) = sum_j binom(m, j) t^(1 + j/m) / (1 + j/m)."""
    with localcontext() as ctx:
        ctx.prec = 50
        for x in (1e-6, 0.3, 1.0, 7.0, 1.5 * 2 ** m, 1e3, 1e6):
            t = Decimal(x)
            want = sum(math.comb(m, j) * t ** (1 + Decimal(j) / m) / (1 + Decimal(j) / m)
                       for j in range(m + 1))
            got = _hansen_reference(x, 1 / Decimal(m))
            assert abs(got - want) <= Decimal("1e-35") * want, (m, t)


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 2 / 3, 0.7, 0.8, 0.9, 1.0])
def test_trace_hansen_within_1e13_of_the_reference(p):
    """The rule and the tail series are within 1e-13 relative of F for
    eigenvalues from 1e-8 to 1e4, and next to the switch t = 4^(1/p) on both
    sides; at p = 0.4 and 2/3 the series has its logarithmic term."""
    switch = 4.0 ** (1.0 / p)
    lam = np.concatenate([np.logspace(-8, 4, 49),
                          switch * np.array([0.99, 1 - 1e-12, 1.0, 1 + 1e-12, 1.01, 3.0])])
    handle = instantiate("trace-hansen", params={"p": p}, dim=1)
    got = handle.batch(lam[:, None, None])
    for t, v in zip(lam, got):
        want = _hansen_reference(float(t), Decimal(p))
        assert abs(Decimal(float(v)) - want) <= Decimal("1e-13") * want, (p, t)


def _eigvalsh_spectral(rows, term, lo, open=False, clamp=0.0):
    # reference spectral core: one eigvalsh for every order and every finite
    # row; rows with a non-finite entry give NaN
    finite = np.isfinite(rows).all(axis=(1, 2))
    w = np.full(rows.shape[:2], np.nan)
    w[finite] = np.linalg.eigvalsh(rows[finite])
    bad = ~(w[:, 0] > lo) if open else ~(w[:, 0] >= lo)
    return np.where(bad, np.nan, np.sum(term(np.maximum(w, clamp)), axis=1))


def _reference_batch(monkeypatch, handle, rows):
    """``handle.batch(rows)`` with the catalog's spectral core replaced by
    the eigvalsh reference."""
    with monkeypatch.context() as m:
        m.setattr(catalog, "spectral", _eigvalsh_spectral)
        return handle.batch(rows)


def _rotation(n, seed):
    return np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]


def _spectral_rows(q, eigenvalues):
    rows = q @ (np.asarray(eigenvalues)[..., None] * np.swapaxes(q, -1, -2))
    return 0.5 * (rows + np.swapaxes(rows, -1, -2))


# The spectral domain rules, pinned at their boundaries.  Eigenvalue-based
# PSD handles see the smallest eigenvalue of a diagonal matrix exactly.
SPECTRAL_LAMBDA_MIN = (2e-12, 1e-12, 0.0, -1e-13, -2e-12, -0.5, -0.51)
# logdet and det-recip-pow need lambda_min > 1e-12
_OPEN_WINDOW = {2e-12}
# the trace functionals clamp [-1e-12, 0) to 0; anything lower is off the domain
_CLAMP_WINDOW = {2e-12, 1e-12, 0.0, -1e-13}
# domain bounds in SPECTRAL_LAMBDA_MIN: a rotation rounds them to either side
_BOUNDS = {1e-12, -0.5}
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
SPECTRAL_IDS = [f"{e}-{'-'.join(f'{k}={v}' for k, v in p.items())}" for e, p, _ in SPECTRAL_HANDLES]


@pytest.mark.parametrize("entry_id,params,finite", SPECTRAL_HANDLES, ids=SPECTRAL_IDS)
def test_spectral_domain_rules(entry_id, params, finite, monkeypatch):
    # orders 2 and 3 have closed-form eigenvalues: diagonal and rotated rows
    # of both orders check that eigvalsh still decides near the boundaries
    for dim in (2, 3):
        handle = instantiate(entry_id, params=params, dim=dim)
        for rotated in (False, True):
            q = _rotation(dim, dim) if rotated else np.eye(dim)
            rows = _spectral_rows(q, [[lam, 1.0, 2.5][:dim] for lam in SPECTRAL_LAMBDA_MIN])
            vals = handle.batch(rows)
            np.testing.assert_array_equal(vals, _reference_batch(monkeypatch, handle, rows))
            for lam, v in zip(SPECTRAL_LAMBDA_MIN, vals):
                if not (rotated and lam in _BOUNDS):
                    assert np.isfinite(v) == (lam in finite), (dim, rotated, lam, v)
            if finite is _CLAMP_WINDOW and not rotated:
                # the clamp sends -1e-13 to exactly 0
                zero = SPECTRAL_LAMBDA_MIN.index(0.0)
                assert vals[SPECTRAL_LAMBDA_MIN.index(-1e-13)] == vals[zero]
            one_by_one = np.array([handle.batch(r[None])[0] for r in rows])
            np.testing.assert_array_equal(vals, one_by_one)


def _spectral_corpus(n, seed):
    """Symmetric n x n rows around every accuracy limit of the closed-form
    eigenvalues: Wishart samples, their sums and ill-conditioned sums,
    rotated spectra with near-repeated pairs and with lambda_min / lambda_max
    from 1e-14 to 1e-2 of both signs, scalings 1e-3 to 1e3, 0, c*I, and rows
    holding NaN or inf."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(60, n, n))
    x = g @ np.swapaxes(g, 1, 2) / n
    y = np.roll(x, 1, axis=0)
    parts = [x, x + y, 1e-4 * x + y]
    spectra = []
    for gap in (0.0, 1e-12, 1e-9, 1e-7):
        for lower in (0, n - 2):
            lam = np.sort(rng.uniform(0.1, 1.0, size=(20, n)), axis=1)
            lam[:, lower + 1] = lam[:, lower] * (1.0 + gap)
            spectra.append(lam)
    for ratio in 10.0 ** np.arange(-14.0, -1.9, 0.5):
        for sign in (1.0, -1.0):
            lam = np.sort(rng.uniform(0.1, 1.0, size=(20, n)), axis=1)
            lam[:, 0] = sign * ratio * lam[:, -1]
            spectra.append(lam)
    q = np.stack([_rotation(n, s) for s in rng.integers(1 << 30, size=20)])
    parts += [_spectral_rows(q, s) for s in spectra]
    rows = np.concatenate(parts)
    scales = 10.0 ** rng.uniform(-3, 3, size=(len(rows), 1, 1))
    special = np.stack([np.zeros((n, n)), 0.7 * np.eye(n), -0.2 * np.eye(n)]
                       + [np.eye(n)] * 7)
    special[3, 0, 0] = np.nan
    special[4, n - 1, n - 1] = np.nan
    special[5, 0, 0] = np.inf
    special[6, n - 1, n - 1] = -np.inf
    # off the diagonal, where eigvalsh raises for the whole stack
    special[7, n - 1, 0] = special[7, 0, n - 1] = np.nan
    special[8, 1, 0] = special[8, 0, 1] = np.inf
    special[9, n - 1, n - 2] = special[9, n - 2, n - 1] = -np.inf
    return np.concatenate([rows, rows * scales, special])


@pytest.mark.parametrize(
    "entry_id,params", [(e, p) for e, p, _ in SPECTRAL_HANDLES], ids=SPECTRAL_IDS
)
def test_spectral_closed_form_matches_eigvalsh(entry_id, params, monkeypatch):
    for n in (2, 3, 4):
        handle = instantiate(entry_id, params=params, dim=n)
        rows = _spectral_corpus(n, seed=n)
        vals = handle.batch(rows)
        ref = _reference_batch(monkeypatch, handle, rows)
        if n == 4:
            # orders other than 2 and 3 keep eigvalsh for every row
            np.testing.assert_array_equal(vals, ref)
            continue
        np.testing.assert_array_equal(np.isfinite(vals), np.isfinite(ref))
        ok = np.isfinite(ref)
        err = np.abs(vals[ok] - ref[ok]) / np.maximum(1.0, np.abs(ref[ok]))
        assert err.max() <= 1e-11, (n, err.max())
        one_by_one = np.array([handle.batch(r[None])[0] for r in rows])
        np.testing.assert_array_equal(vals, one_by_one)
