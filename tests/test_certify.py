"""Certificates: Hessian signs, Topkis cross-partials, differential
monotonicity, Laplace atoms, and the determinant quadrature identity."""

import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import conecheck
from conecheck import certify, checkers, cones
from conecheck.certify import (
    CERTIFIED,
    REFUSED,
    LaplaceCertificate,
    certify_differential_monotone,
    certify_hessian_sign,
    certify_topkis,
    dual_member,
    gaussian_representation_margin,
    laplace_as_handle,
)
from conecheck.catalog import resolve_handle
from conecheck.checkers import CheckConfig, Witness, check, evaluate_expression, reevaluate_witness
from conecheck.cones import Point, Rng, nonneg_orthant, psd_cone
from conecheck.diffops import FunctionHandle, delta, second_diff, shift_and_center
from conecheck.errors import (
    CapabilityError,
    CertificateError,
    DomainError,
    NumericFailure,
    ParameterError,
    ShapeError,
)


def _cfg(**kw):
    kw.setdefault("seed", 0)
    return CheckConfig(**kw)


def _entry(witness):
    """The Hessian entry ``(i, j)`` a refusal names."""
    i, j = re.fullmatch(r"hessian-non(?:pos|neg)\[ij=(\d+),(\d+)\]", witness.expression).groups()
    return int(i), int(j)


def test_hessian_sign_certificates():
    assert not certify_hessian_sign("shannon-entropy", "nonpos", _cfg(trials=200)).found_violation
    assert not certify_hessian_sign("sq-norm", "nonneg", _cfg(trials=200)).found_violation
    cert = certify_hessian_sign("lse", "nonpos", _cfg(trials=200))
    assert cert.verdict == REFUSED
    i, j = _entry(cert.witness)
    assert i == j  # softmax weights make every diagonal entry positive
    assert cert.witness.margin < 0


def test_hessian_sign_rejects_matrix_domain():
    with pytest.raises(CapabilityError):
        certify_hessian_sign("det", "nonneg", _cfg(trials=50), dim=2)


@pytest.mark.parametrize("certify_fn,arg", [
    (certify_hessian_sign, "nonpositive"),
    (certify_topkis, "modular"),
    (certify_differential_monotone, "increasing"),
])
def test_an_unknown_sign_mode_or_direction_is_a_parameter_error(certify_fn, arg):
    with pytest.raises(ParameterError, match=repr(arg)):
        certify_fn("sq-norm", arg, _cfg(trials=10))


@pytest.mark.parametrize("cfg,points", [(None, 200), (CheckConfig(trials=7), 7),
                                        (CheckConfig(trials=20000, seed=3), 20000)])
def test_a_certificate_samples_cfg_trials_points(monkeypatch, cfg, points):
    """A certificate draws ``cfg.trials`` points for its role ``p``, 200
    without a config, and reports that count; the origin block draws none."""
    drawn, sample_batch = [], cones.sample_batch

    def counted(cone, rng, count, *args):
        drawn.append(count)
        return sample_batch(cone, rng, count, *args)

    monkeypatch.setattr(cones, "sample_batch", counted)
    # the Hessian sign's origin row counts in the report's trials; Topkis has none
    for certify_fn, arg, origin in ((certify_hessian_sign, "nonneg", 1),
                                    (certify_topkis, "supermodular", 0)):
        drawn.clear()
        cert = certify_fn("sq-norm", arg, cfg)
        assert not cert.found_violation and sum(drawn) == cert.config.trials == points
        assert cert.trials_run == points + origin
    for trials in (0, -5, 2.5):
        with pytest.raises(ParameterError):
            certify_topkis("sq-norm", "supermodular", CheckConfig(trials=trials))


def test_a_certificate_reports_its_skips():
    """A certificate's report keeps what its fold counted: a handle that is
    NaN past x_0 = 4, on 4 of the 400 sampled points at seed 0, is certified
    with those 4 trials skipped, a finite worst margin and its point count."""
    cfg = _cfg(trials=400)
    holed = FunctionHandle("sq-norm-with-a-hole", nonneg_orthant(2),
                           lambda rows: np.where(rows[:, 0] > 4.0, np.nan, (rows * rows).sum(1)))
    pts = checkers._interior_batch(holed.domain, cfg, Rng(0, checkers._ROLES["p"][0]), 400)
    past = int((pts[:, 0] > 4.0).sum())
    assert 0 < past < 0.1 * cfg.trials
    for certify_fn, arg in ((certify_hessian_sign, "nonneg"), (certify_topkis, "supermodular")):
        rep = certify_fn(holed, arg, cfg)
        assert rep.verdict == CERTIFIED and rep.skipped == past
        assert np.isfinite(rep.worst_margin) and rep.config.trials == 400
        assert rep.to_json()["skipped"] == past


def test_a_certificate_report_has_the_keys_of_a_check_report():
    """Certificates and checks give one report type: the same JSON keys, the
    mode naming the certificate method."""
    keys = set(check("log1p", "subadd", _cfg(trials=50)).to_json())
    for certify_fn, arg, mode in ((certify_hessian_sign, "nonneg", "hessian-sign"),
                                  (certify_topkis, "supermodular", "topkis"),
                                  (certify_differential_monotone, "nondecreasing",
                                   "diff-monotone")):
        rep = certify_fn("sq-norm", arg, _cfg(trials=50))
        assert isinstance(rep, checkers.CheckReport)
        assert set(rep.to_json()) == keys and rep.to_json()["mode"] == mode
    assert not hasattr(certify, "Certificate") and "Certificate" not in conecheck.__all__


@pytest.mark.parametrize("target,dim", [("log1p", None), ("det", 1)])
def test_topkis_needs_a_cross_partial(target, dim):
    """A one-dimensional domain has no cross partial, so there is nothing to
    certify on."""
    with pytest.raises(CapabilityError, match="dimension 2 or more"):
        certify_topkis(target, "submodular", dim=dim)


def test_topkis_certificates():
    assert not certify_topkis("lse", "submodular", _cfg(trials=200)).found_violation
    assert not certify_topkis("sq-norm", "supermodular", _cfg(trials=200)).found_violation
    prod = FunctionHandle("coordinate-product", nonneg_orthant(2),
                          lambda rows: rows[:, 0] * rows[:, 1])
    cert = certify_topkis(prod, "submodular", _cfg(trials=100))
    assert cert.verdict == REFUSED
    assert _entry(cert.witness) == (0, 1)


def test_differential_monotone_certificates():
    cert = certify_differential_monotone(
        "lp-power-norm", "nondecreasing", _cfg(trials=200), params={"p": 2.0, "h": 0.125}, dim=8
    )
    assert not cert.found_violation
    assert not certify_differential_monotone("det", "nondecreasing", _cfg(trials=200),
                                             dim=3).found_violation
    cert = certify_differential_monotone("geomean2", "nonincreasing", _cfg(trials=200))
    assert cert.verdict == REFUSED
    # the refusal is a genuine ordered pair with a rising directional derivative
    rw = cert.witness
    assert rw.expression == "differential-nonincreasing"
    assert rw.margin < 0 and set(rw.points) == {"U", "step", "direction"}


def test_certificate_checker_coherence():
    cases = [
        (certify_hessian_sign("shannon-entropy", "nonpos", _cfg(trials=100)),
         ("shannon-entropy", "strong-subadd", {})),
        (certify_hessian_sign("sq-norm", "nonneg", _cfg(trials=100)),
         ("sq-norm", "strong-superadd", {})),
        (certify_topkis("lse", "submodular", _cfg(trials=100)), ("lse", "submodular", {})),
        (certify_differential_monotone("det", "nondecreasing", _cfg(trials=100), dim=3),
         ("det", "strong-superadd", {"dim": 3})),
    ]
    for cert, (eid, prop, kw) in cases:
        assert not cert.found_violation
        rep = check(eid, prop, _cfg(trials=500), **kw)
        assert not rep.found_violation, (eid, prop)


def test_hessian_nonpos_implies_topkis_submodular():
    """Off-diagonal sign checks are a subset of the full sign check."""
    for eid in ("shannon-entropy", "sq-norm"):
        full = certify_hessian_sign(eid, "nonpos", _cfg(trials=100))
        cross = certify_topkis(eid, "submodular", _cfg(trials=100))
        if not full.found_violation:
            assert not cross.found_violation


def test_dual_membership_rules():
    assert dual_member(nonneg_orthant(2), Point.vector([1.0, 0.0]))
    assert not dual_member(nonneg_orthant(2), Point.vector([1.0, -0.1]))
    # the dual of the open orthant is the closed one: its boundary belongs
    assert dual_member(cones.positive_orthant(2), Point.vector([1.0, 0.0]))
    assert dual_member(cones.positive_orthant(2), Point.vector([0.0, 0.0]))
    assert not dual_member(cones.positive_orthant(2), Point.vector([1.0, -0.1]))
    assert dual_member(psd_cone(2), Point.matrix(np.eye(2)))
    assert not dual_member(psd_cone(2), Point.matrix(np.diag([1.0, -1.0])))
    assert dual_member(cones.full_space(2), Point.vector([0.0, 0.0]))
    assert not dual_member(cones.full_space(2), Point.vector([0.5, 0.0]))


def test_laplace_single_atom_matches_exponential():
    cert = LaplaceCertificate([(1.0, Point.vector([2.0]))])
    handle = laplace_as_handle(cert, nonneg_orthant(1))
    for x in (0.0, 0.5, 3.0):
        assert handle(Point.vector([x])) == pytest.approx(math.exp(-2.0 * x), rel=1e-14)


def test_laplace_psd_atom_uses_trace_pairing():
    cert = LaplaceCertificate([(1.0, Point.matrix(np.eye(2)))])
    handle = laplace_as_handle(cert, psd_cone(2))
    a = Point.matrix(np.array([[0.7, 0.2], [0.2, 1.1]]))
    assert handle(a) == pytest.approx(math.exp(-np.trace(a.data)))


@pytest.mark.parametrize("cone,locs", [
    (nonneg_orthant(3), [Point.vector(u) for u in ([1.0, 2.0, 0.3], [0.2, 0.1, 3.0], [1.0, 1.0, 1.0])]),
    (psd_cone(3), [Point.matrix(u) for u in (np.eye(3), np.diag([1.0, 2.0, 3.0]), np.ones((3, 3)))]),
], ids=["vector", "psd"])
def test_laplace_handle_gives_a_row_the_same_bits_alone_and_in_a_block(cone, locs):
    """The pairings and the weighted sum fold over their terms, so a check's
    block values are the values its one-row witness re-evaluation gives."""
    handle = laplace_as_handle(LaplaceCertificate(zip((0.5, 1.5, 0.7), locs)), cone)
    rows = cones.sample_batch(cone, Rng(0, 1), 2000)
    alone = np.concatenate([handle.batch(rows[i:i + 1]) for i in range(len(rows))])
    assert handle.batch(rows).tobytes() == alone.tobytes()


def test_laplace_mixture_is_completely_monotone():
    cert = LaplaceCertificate([(0.5, Point.vector([1.0])), (0.5, Point.vector([3.0]))])
    handle = laplace_as_handle(cert, nonneg_orthant(1))
    rep = check(handle, "completely-monotone", _cfg(trials=500))
    assert not rep.found_violation


def test_laplace_shift_and_center_strongly_superadditive():
    cert = LaplaceCertificate([
        (0.4, Point.vector([1.0, 0.5])),
        (0.6, Point.vector([2.0, 1.5])),
    ])
    handle = laplace_as_handle(cert, nonneg_orthant(2))
    centered = shift_and_center(handle, Point.vector([0.5, 0.5]))
    rep = check(centered, "strong-superadd", _cfg(trials=1000))
    assert not rep.found_violation


def test_laplace_validation_errors():
    with pytest.raises(CertificateError):
        LaplaceCertificate([(-0.5, Point.vector([1.0]))])
    with pytest.raises(CertificateError):
        LaplaceCertificate([])
    cert = LaplaceCertificate([(1.0, Point.vector([-1.0]))])
    with pytest.raises(CertificateError):
        laplace_as_handle(cert, nonneg_orthant(1))
    cert = LaplaceCertificate([(1.0, Point.vector([1.0]))])
    with pytest.raises(CertificateError):
        laplace_as_handle(cert, cones.full_space(1))


def test_laplace_serialization():
    cert = LaplaceCertificate([(0.25, Point.vector([1.0, 2.0]))])
    assert cert.to_json() == [[0.25, [1.0, 2.0]]]


def test_gaussian_representation_exact_cases():
    est, exact, rel = gaussian_representation_margin(np.zeros((1, 1)))
    assert exact == 1.0 and rel <= 1e-12
    est, exact, rel = gaussian_representation_margin(np.array([[1.0]]))
    assert exact == pytest.approx(1.0 / math.sqrt(2.0))
    assert rel <= 1e-3


def _gaussian_check(n, cfg):
    """The quadrature check of order n: the gaussian-det-representation
    expression on a PSD-cone entry whose values it never reads."""
    return check("det-shift-recip", "gaussian-det-representation", cfg, dim=n)


def test_gaussian_detcert_check_passes():
    rep = _gaussian_check(2, _cfg(trials=5))
    assert not rep.found_violation
    assert rep.worst_margin > 0
    with pytest.raises(CapabilityError):
        _gaussian_check(5, _cfg(trials=1))
    # a slice of order 5 would hold 24^4 nodes
    with pytest.raises(CapabilityError):
        gaussian_representation_margin(np.eye(certify._GH_MAX_ORDER + 1))


def _random_psd(rng, n):
    g = rng.normal(size=(n, n))
    a = g @ g.T
    return a * (1.5 / np.linalg.eigvalsh(a)[-1])


def _full_grid(n):
    """The whole tensor grid of the order-n rule: nodes ``(n, 24^n)`` and
    weights, the first coordinate varying slowest."""
    x, w, rest, rest_w = certify._gauss_hermite(n)
    nodes = np.vstack([np.repeat(x, rest.shape[1]), np.tile(rest, len(x))])
    return nodes, np.outer(w, rest_w).ravel()


def test_gaussian_representation_stack_matches_single_calls():
    """The sliced monomial product agrees with one call per matrix and with
    the direct quadratic form summed over the full tensor grid, within 1e-13
    relative: only the order of the sums differs."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        mats = np.stack([_random_psd(rng, n) for _ in range(4)])
        est, exact, rel = gaussian_representation_margin(mats)
        assert est.shape == exact.shape == rel.shape == (4,)
        z, weights = _full_grid(n)
        assert z.shape == (n, 24 ** n)
        for k, a in enumerate(mats):
            one = gaussian_representation_margin(a)
            assert all(isinstance(v, float) for v in one)
            assert abs(est[k] - one[0]) <= 1e-13 * one[0]
            assert exact[k] == one[1]
            direct = float(weights @ np.exp(-np.einsum("it,ij,jt->t", z, a, z)))
            assert abs(est[k] - direct) <= 1e-13 * direct
    bad = np.stack([np.eye(2), -2.0 * np.eye(2)])
    with pytest.raises(NumericFailure), np.errstate(invalid="ignore"):
        gaussian_representation_margin(bad)


def test_gauss_hermite_rule_integrates_fourth_moments_exactly():
    """Under the density exp(-|z|^2) / pi^(n/2) each coordinate has
    E[z^2] = 1/2 and E[z^4] = 3/4, and distinct coordinates are independent."""
    for n in (1, 2, 3, 4):
        z, weights = _full_grid(n)
        assert abs(weights.sum() - 1.0) <= 1e-14
        for i in range(n):
            assert abs(weights @ z[i] ** 4 - 0.75) <= 1e-14, (n, i)
            for j in range(i + 1, n):
                assert abs(weights @ (z[i] ** 2 * z[j] ** 2) - 0.25) <= 1e-14, (n, i, j)


def test_gaussian_representation_is_accurate_at_operator_norm_two():
    """At the largest operator norm the check draws, the relative error
    stays at or below 1e-6 at every order, far inside its 1e-3 tolerance."""
    rng = np.random.default_rng(3)
    for n in range(1, certify._GH_MAX_ORDER + 1):
        mats = np.stack([_random_psd(rng, n) for _ in range(20)]) * (2.0 / 1.5)
        np.testing.assert_allclose(np.linalg.eigvalsh(mats)[:, -1], 2.0, rtol=1e-12)
        _, _, rel = gaussian_representation_margin(mats)
        assert rel.max() <= 1e-6, n


@pytest.mark.parametrize("bad", [
    np.array([1.0, 2.0]), np.ones((2, 3)), np.array(1.0), np.ones((2, 2, 3)),
    np.ones((2, 2, 2, 2)), np.zeros((0, 0)), np.array([[1.0, 1e-6], [0.0, 1.0]]),
    np.stack([np.eye(2), [[1.0, 2.0], [2.5, 1.0]]]),
], ids=["vector", "rectangle", "scalar", "rectangles", "4-d", "empty", "asymmetric",
        "asymmetric-in-stack"])
def test_gaussian_representation_needs_symmetric_square_matrices(bad):
    """The quadratic form reads both triangles and ``eigvalsh`` the lower
    one, so a non-symmetric matrix would compare two different integrals."""
    with pytest.raises(ShapeError):
        gaussian_representation_margin(bad)


def test_gaussian_representation_takes_symmetry_within_point_tolerance():
    """A matrix that a matrix Point accepts, the quadrature accepts."""
    a = np.array([[1.0, 0.5], [0.5 + 1e-13, 1.0]])
    Point(cones.MATRIX, a)
    assert gaussian_representation_margin(a)[2] <= 1e-6


def test_gaussian_representation_memory_is_bounded_for_large_stacks():
    """A stack larger than one product is evaluated in slices of
    ``_GH_PRODUCT`` matrix elements (4 matrices at order 4), so the
    per-slice temporaries do not grow with the stack; estimates equal
    one-at-a-time calls bit for bit."""
    rng = np.random.default_rng(11)
    for mats, bound in ((rng.uniform(0.1, 2.0, size=(64, 1, 1)), 2 ** 20),
                        (np.stack([_random_psd(rng, 4) for _ in range(64)]), 4 * 2 ** 20)):
        tracemalloc.start()
        try:
            est, _, _ = gaussian_representation_margin(mats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # order 4: about 1.8 MiB; one stack of all 64 matrices alone needs
        # 64 * 24^3 doubles, 6.75 MiB
        assert peak < bound, mats.shape
        for k in (0, 15, 16, 63):
            assert est[k] == gaussian_representation_margin(mats[k])[0]


def test_quadrature_estimate_does_not_depend_on_the_stack_size(monkeypatch):
    """A matrix's estimate is the same whether its stack holds 1, 2 or 4
    matrices of order 4, so a witness's one-row margin is its block's."""
    margins = []
    for budget in (1, 2, 4):
        monkeypatch.setattr(certify, "_GH_PRODUCT", budget * 24 ** 3)
        margins.append(_gaussian_check(4, CheckConfig(trials=2 ** 12)).worst_margin)
    assert [m.hex() for m in margins] == [margins[0].hex()] * 3


def test_gaussian_detcert_check_draws_documented_sequence():
    """The matrices are one PSD sample_batch, then one uniform per matrix
    from the same stream scales it to operator norm 2u, and the worst
    margin is the tolerance minus the largest relative error."""
    for n, seed in ((1, 0), (2, 3)):
        rep = _gaussian_check(n, _cfg(trials=6, seed=seed))
        rng = Rng(seed, checkers._ROLES["A"][0])
        mats = cones.sample_batch(psd_cone(n), rng, 6)
        lam_max = np.linalg.eigvalsh(mats)[:, -1]
        mats *= (2.0 * rng.generator.uniform(0.05, 1.0, size=6) / lam_max)[:, None, None]
        _, _, rel = gaussian_representation_margin(mats)
        assert rep.worst_margin == 1e-3 - rel.max()
        assert rep.trials_run == 6 and rep.witness is None


def test_import_keeps_scipy_stats_out():
    """conecheck needs no scipy: importing ``scipy.special`` alone took about
    as long as the rest of start-up, and ``scipy.stats`` 0.8 s and 43 MiB."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(conecheck.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, conecheck, conecheck.cli, conecheck.suite; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_det_trace_inverse_monotone():
    for n in (2, 3, 4):
        rep = check("det-trace-inverse", "nondecreasing", _cfg(trials=500), dim=n)
        assert not rep.found_violation, n


def test_certificate_json_shape():
    cert = certify_hessian_sign("sq-norm", "nonneg", _cfg(trials=50))
    obj = cert.to_json()
    assert set(obj) == {"mode", "property", "verdict", "trials", "worst_margin", "witness",
                        "skipped", "config"}
    assert obj["mode"] == "hessian-sign"
    assert obj["verdict"] == CERTIFIED


def test_certificate_verdict_is_derived_from_the_refusal_witness():
    certs = [
        certify_hessian_sign("shannon-entropy", "nonpos", _cfg(trials=200)),
        certify_hessian_sign("half-sq-plus-cos", "nonneg", _cfg(trials=200)),
        certify_differential_monotone("geomean2", "nonincreasing", _cfg(trials=200)),
    ]
    assert [not c.found_violation for c in certs] == [True, False, False]
    # half-sq-plus-cos is 1 at the origin, the wrong sign for superadditivity
    assert certs[1].witness == Witness(
        points={"zero": Point.vector([0.0])}, margin=-1.0, expression="origin-nonpos")
    for cert in certs:
        unrefused = cert.witness is None
        assert (not cert.found_violation) == unrefused
        assert cert.verdict == (CERTIFIED if unrefused else REFUSED)
        assert cert.to_json()["verdict"] == cert.verdict


def _plain_scan(handle, expressions, pts, cfg):
    """The lowest violating ``(slack, expression)`` over the points and
    expressions, by a plain loop of one-row evaluations; None when none
    violates."""
    worst = None
    for p in pts:
        for e in expressions:
            slack, s = evaluate_expression(handle, e, {"p": Point(cones.VECTOR, p)})
            if slack < -cfg.tolerance(s) and (worst is None or slack < worst[0]):
                worst = (slack, e)
    return worst


@pytest.mark.parametrize("entry_id,method,mode,index", [
    ("lse", "hessian", "nonpos", [2, 2]),
    ("lse", "topkis", "supermodular", [0, 2]),
    # certified although every diagonal entry is +2
    ("sq-norm", "topkis", "submodular", None),
])
def test_hessian_sign_scan_matches_the_plain_scan(entry_id, method, mode, index):
    """The refusal names the entry of the lowest violating slack among the
    sampled points, and shrinking only lowers it."""
    cfg = _cfg(trials=200)
    handle = conecheck.instantiate(entry_id)
    n = handle.domain.dim
    if method == "hessian":
        cert = certify_hessian_sign(entry_id, mode, cfg)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        cert = certify_topkis(entry_id, mode, cfg)
        mode = "nonneg" if mode == "supermodular" else "nonpos"
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pts = checkers._interior_batch(handle.domain, cfg, Rng(0, checkers._ROLES["p"][0]), 200)
    first = _plain_scan(handle, [f"hessian-{mode}[ij={i},{j}]" for i, j in pairs], pts, cfg)
    if index is None:
        assert first is None and not cert.found_violation
        diagonal = [f"hessian-nonpos[ij={i},{i}]" for i in range(n)]
        assert _plain_scan(handle, diagonal, pts, _cfg()) is not None
        for p in pts:
            for e in diagonal:
                assert evaluate_expression(handle, e, {"p": Point(cones.VECTOR, p)})[0] < -1.0
        return
    rw = cert.witness
    assert rw.expression == first[1] == f"hessian-{mode}[ij={index[0]},{index[1]}]"
    assert rw.margin <= first[0] + 1e-12 * abs(first[0])


def test_certificate_stencils_are_the_difference_forms():
    """A Hessian-entry trial is the one-row second difference divided by
    ``4h^2``, and a directional trial the change of one-row first
    differences divided by ``2h``, bit for bit."""
    h = conecheck.instantiate("lse", dim=3)
    pts, v, w = (checkers._interior_batch(h.domain, CheckConfig(), Rng(5, s), 4) for s in (1, 3, 2))
    vec = lambda a: Point(cones.VECTOR, a, _validated=True)  # noqa: E731

    def derivative(p, d):
        step = 1e-5 * max(1.0, np.abs(p).max())
        return delta(h, vec(2.0 * (step * d)), vec(p - step * d)) / (2.0 * step)

    change, _ = checkers._form("differential-nondecreasing")(
        h, {"U": pts, "step": v, "direction": w})
    falling, _ = checkers._form("differential-nonincreasing")(
        h, {"U": pts, "step": v, "direction": w})
    for i in range(3):
        for j in range(3):
            entry, _ = checkers._form(f"hessian-nonneg[ij={i},{j}]")(h, {"p": pts})
            negated, _ = checkers._form(f"hessian-nonpos[ij={i},{j}]")(h, {"p": pts})
            for k, p in enumerate(pts):
                step = 1e-4 * max(1.0, np.abs(p).max())
                ei, ej = step * np.eye(3)[i], step * np.eye(3)[j]
                sd = second_diff(h, vec(2.0 * ei), vec(2.0 * ej), vec(p - ei - ej))
                assert entry[k] == sd / (4.0 * step * step) == -negated[k]
    for k, p in enumerate(pts):
        assert change[k] == derivative(p + v[k], w[k]) - derivative(p, w[k]) == -falling[k]


def test_certificate_stencils_stay_in_the_cone():
    """A stencil that leaves the cone gives NaN even where the rule has a
    value there, so a shrunk refusal never reads the function off its cone."""
    sq = conecheck.instantiate("sq-norm", dim=2)
    entry, _ = checkers._form("hessian-nonneg[ij=0,0]")(sq, {"p": np.array([[1e-5, 1.0],
                                                                             [1.0, 1.0]])})
    assert np.isnan(entry[0]) and abs(entry[1] - 2.0) <= 1e-6
    with pytest.raises(DomainError):
        evaluate_expression(sq, "hessian-nonneg[ij=0,0]", {"p": Point.vector([1e-5, 1.0])})
    det = conecheck.instantiate("det", dim=2)
    eye = np.stack([np.eye(2)] * 2)
    u = np.stack([np.diag([1e-7, 1.0]), np.eye(2)])
    change, _ = checkers._form("differential-nondecreasing")(
        det, {"U": u, "step": eye, "direction": eye})
    assert np.isnan(change[0]) and np.isfinite(change[1])


_PRODUCT = FunctionHandle("coordinate-product", nonneg_orthant(2),
                          lambda rows: rows[:, 0] * rows[:, 1])


@pytest.mark.parametrize("certify_fn,target,arg,expression", [
    (certify_hessian_sign, "lse", "nonpos", r"hessian-nonpos\[ij=(\d),\1\]"),
    (certify_topkis, _PRODUCT, "submodular", r"hessian-nonpos\[ij=0,1\]"),
    (certify_differential_monotone, "geomean2", "nonincreasing", "differential-nonincreasing"),
    (certify_hessian_sign, "half-sq-plus-cos", "nonneg", "origin-nonpos"),
], ids=["lse-hessian-nonpos", "product-topkis", "geomean2-diff-monotone", "half-sq-plus-cos-origin"])
def test_certificate_refusals_are_real_witnesses(certify_fn, target, arg, expression):
    """Every refusal is a checks' witness: its points are cone members, it
    violates at its own scale, and it re-evaluates to its margin exactly."""
    cfg = _cfg(trials=200)
    cert = certify_fn(target, arg, cfg)
    handle = resolve_handle(target)
    w = cert.witness
    assert isinstance(w, Witness) and re.fullmatch(expression, w.expression)
    assert all(cones.member(handle.domain, p) for p in w.points.values())
    slack, s = evaluate_expression(handle, w.expression, w.points)
    assert reevaluate_witness(handle, w) == slack == w.margin < -cfg.tolerance(s)
    assert cert.to_json()["witness"] == w.to_json()


def test_gaussian_detcert_witness_reevaluates(monkeypatch):
    """A rule 10^6 times less accurate fails the 1e-3 tolerance; the report's
    witness is a PSD matrix whose one-row form gives the worst margin."""
    rule = certify.gaussian_representation_margin

    def coarse(a):
        est, exact, relerr = rule(a)
        return est, exact, 1e6 * relerr

    monkeypatch.setattr(certify, "gaussian_representation_margin", coarse)
    rep = _gaussian_check(2, _cfg(trials=50))
    assert rep.found_violation
    a = rep.witness.points["A"]
    assert cones.member(psd_cone(2), a)
    any_handle = FunctionHandle("zero", psd_cone(2), lambda rows: np.zeros(len(rows)))
    slack, _ = evaluate_expression(any_handle, "gaussian-det-representation", {"A": a})
    assert slack == rep.worst_margin == rep.witness.margin < 0
    assert slack == 1e-3 - coarse(a.data)[2]


def test_certificate_memory_does_not_grow_with_the_points():
    """Certificates and the quadrature check draw, evaluate and fold one
    ``_BLOCK`` of points at a time: four blocks peak like one."""
    def peak(run, count):
        tracemalloc.start()
        try:
            run(count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    runs = {
        "lse hessian nonneg": lambda n: certify_hessian_sign("lse", "nonneg", _cfg(trials=n), dim=6),
        "gaussian order 2": lambda n: _gaussian_check(2, _cfg(trials=n)),
    }
    for name, run in runs.items():
        one, four = peak(run, checkers._BLOCK), peak(run, 4 * checkers._BLOCK)
        assert four < 1.5 * one, (name, one, four)
