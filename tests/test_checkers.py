"""Randomized checks: verdicts, witnesses, determinism, special inequalities."""

import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conecheck import catalog, checkers, cones
from conecheck.catalog import PropertyLabel
from conecheck.certify import certify_hessian_sign, certify_topkis
from conecheck.checkers import (
    CheckConfig,
    MajorizationPair,
    Witness,
    check,
    check_chebyshev,
    check_popoviciu,
    refute,
    reevaluate_witness,
    tomic_weyl,
)
from conecheck.cones import Point, Rng, nonneg_orthant
from conecheck.diffops import FunctionHandle, compose, second_diff
from conecheck.errors import (
    CapabilityError,
    ConeCheckError,
    DomainError,
    NumericFailure,
    ParameterError,
    PreconditionError,
    ShapeError,
)
from conecheck.numkernel import (
    ScalarFunction,
    exp_fn,
    exp_neg_fn,
    identity_fn,
    power_fn,
    square_fn,
)


def _cfg(**kw):
    kw.setdefault("trials", 2000)
    kw.setdefault("seed", 0)
    return CheckConfig(**kw)


# monotone, nonnegative and strongly subadditive, so the three-point
# inequality for f composed with it fails
SQRT_SUM = FunctionHandle("sqrt-sum", nonneg_orthant(2), lambda r: np.sqrt(r.sum(axis=1)))
NEG_FN = ScalarFunction("neg", lambda t: -t, nondecreasing=False, convex=False)


def _assert_sound(target, report):
    assert report.witness is not None
    handle = catalog.resolve_handle(target)
    re = reevaluate_witness(handle, report.witness)
    assert abs(re - report.witness.margin) <= 1e-12 * max(1.0, abs(report.witness.margin))


def test_reports_are_deterministic():
    a = check("log1p", "strong-subadd", _cfg()).json_line()
    b = check("log1p", "strong-subadd", _cfg()).json_line()
    assert a == b
    c = refute("geomean2", "strong-subadd", _cfg(trials=600)).json_line()
    d = refute("geomean2", "strong-subadd", _cfg(trials=600)).json_line()
    assert c == d
    # a shrunk matrix witness replays byte for byte too
    f = refute("det", "strong-subadd", _cfg(trials=600), dim=3).json_line()
    g = refute("det", "strong-subadd", _cfg(trials=600), dim=3).json_line()
    assert f == g and '"verdict": "VIOLATION_FOUND"' in f
    e = check("log1p", "strong-subadd", _cfg(seed=1)).json_line()
    assert a != e


def test_log1p_strong_subadd_passes_defaults():
    rep = check("log1p", "strong-subadd", CheckConfig(seed=3))
    assert not rep.found_violation
    assert rep.trials_run == 10000


def test_randomly_parameterized_scalar_entries_pass():
    """Twenty random parameterizations of the concave scalar families."""
    g = Rng(17, 0).generator
    configs = []
    for k in range(20):
        kind = k % 3
        if kind == 0:
            configs.append(("affine-power", {
                "m": float(g.uniform(-2, 2)), "n": float(g.uniform(0, 3)),
                "p": float(g.uniform(0, 3)), "alpha": float(g.uniform(0, 1)),
            }))
        elif kind == 1:
            configs.append(("one-minus-sqrt1p", {"alpha": float(g.uniform(0.05, 4.0))}))
        else:
            configs.append(("neg-xlogx-shift", {"alpha": float(g.uniform(0, 1))}))
    for eid, params in configs:
        rep = check(eid, "strong-subadd", CheckConfig(seed=5), params=params)
        assert not rep.found_violation, (eid, params, rep.worst_margin)


def test_geomean_strong_subadd_violation_and_soundness():
    rep = check("geomean2", "strong-subadd", _cfg())
    assert rep.found_violation
    _assert_sound("geomean2", rep)
    # the second-difference sign itself is violated, not only two-point subadditivity
    rep2 = check("geomean2", "second-diff-nonpos", _cfg())
    assert rep2.found_violation
    assert rep2.witness.expression == "second-diff-nonpos"
    _assert_sound("geomean2", rep2)


def test_lse_checks():
    rep = check("lse", "strong-subadd", _cfg(), dim=2)
    assert rep.found_violation
    _assert_sound(catalog.instantiate("lse", dim=2), rep)
    assert not check("lse", "submodular", _cfg(), dim=3).found_violation
    for n in range(2, 7):
        rep = check("lse", "comonotone-strong-superadd", _cfg(trials=1000), dim=n)
        assert not rep.found_violation, n


def test_submodular_needs_lattice():
    with pytest.raises(CapabilityError):
        check("det", "submodular", _cfg(trials=10), dim=2)


def test_open_orthant_has_lattice_operations():
    # the positive orthant is closed under coordinatewise min and max, which
    # the submodular form evaluates
    sum_log = FunctionHandle("sum-log", cones.positive_orthant(3),
                             lambda rows: np.sum(np.log(rows), axis=1))
    assert check(sum_log, "submodular", _cfg()).verdict == "NO_VIOLATION_FOUND"


def _undrawable(*args, **kwargs):
    raise AssertionError("a point was drawn")


def _unevaluable(rows):
    raise AssertionError("the handle was evaluated")


_PSD2 = FunctionHandle("psd-2", cones.psd_cone(2), _unevaluable)
_ORTHANT2 = FunctionHandle("orthant-2", nonneg_orthant(2), _unevaluable)


@pytest.mark.parametrize("run", [
    pytest.param(partial(check, _PSD2, "submodular"), id="check-submodular-psd"),
    pytest.param(partial(check, _PSD2, "supermodular"), id="check-supermodular-psd"),
    pytest.param(partial(check, _PSD2, "comonotone-strong-superadd"), id="check-comonotone-psd"),
    pytest.param(partial(certify_hessian_sign, _PSD2, "nonneg"), id="hessian-sign-psd"),
    pytest.param(partial(certify_topkis, _PSD2, "submodular"), id="topkis-psd"),
    pytest.param(partial(check, _ORTHANT2, "alpha-strong[alpha=1.0]"), id="alpha-strong-orthant-2"),
    pytest.param(partial(check, _ORTHANT2, "lipschitz-box[L=1.0]"), id="lipschitz-box-orthant-2"),
])
def test_a_cone_requirement_is_checked_before_anything_is_drawn(monkeypatch, run):
    """A row's cone requirement raises CapabilityError on the trial path
    before it draws a point or evaluates the handle, even at the origin."""
    monkeypatch.setattr(cones, "sample_batch", _undrawable)
    monkeypatch.setattr(cones, "comonotone_pair_batch", _undrawable)
    with pytest.raises(CapabilityError, match=r"needs a (one-dimensional )?vector cone"):
        run(cfg=_cfg(trials=10))


def test_an_unsupported_quadrature_order_is_refused_before_anything_is_drawn(monkeypatch):
    """The quadrature row needs the PSD cone of an order its rule supports,
    so a larger order raises on the trial path before a matrix is drawn, and
    on the one-row path before the handle is evaluated."""
    from conecheck.certify import _GH_MAX_ORDER

    monkeypatch.setattr(cones, "sample_batch", _undrawable)
    n = _GH_MAX_ORDER + 1
    need = rf"needs the PSD cone of order at most {_GH_MAX_ORDER}, not psd-cone\({n}\)"
    with pytest.raises(CapabilityError, match=need):
        check("det-shift-recip", "gaussian-det-representation", CheckConfig(trials=5000), dim=n)
    psd = FunctionHandle("psd-n", cones.psd_cone(n), _unevaluable)
    with pytest.raises(CapabilityError, match=need):
        checkers.evaluate_expression(psd, "gaussian-det-representation",
                                     {"A": Point.matrix(np.eye(n))})


_MATRIX_PAIR = {"x": Point.matrix(np.eye(2)), "y": Point.matrix(np.array([[1.0, 2.0], [2.0, 5.0]]))}
_SCALARS = {name: Point.vector([1.0, 1.0]) for name in ("x", "y", "z")}


@pytest.mark.parametrize("run", [
    pytest.param(partial(checkers.evaluate_expression, _PSD2, "submodular", _MATRIX_PAIR),
                 id="evaluate-submodular-psd"),
    pytest.param(partial(reevaluate_witness, _PSD2, Witness(_MATRIX_PAIR, -1.0, "supermodular")),
                 id="reevaluate-supermodular-psd"),
    pytest.param(partial(checkers._shrink, _PSD2, "submodular", _MATRIX_PAIR, -1.0, 1.0),
                 id="shrink-submodular-psd"),
    pytest.param(partial(checkers.evaluate_expression, _ORTHANT2, "alpha-strong[alpha=1]",
                         _SCALARS), id="evaluate-alpha-strong-orthant-2"),
])
def test_a_witness_expression_off_its_cone_is_refused_before_evaluation(run):
    """Witness evaluation, re-evaluation and shrinking apply a row's cone
    requirement as the trial path does, before evaluating the handle."""
    with pytest.raises(CapabilityError, match=r"needs a (one-dimensional )?vector cone"):
        run()


def test_a_lattice_witness_on_det_is_a_capability_error():
    """The entrywise max and min of two matrices are no lattice operations
    on the PSD cone, so ``submodular`` has no value for ``det``."""
    with pytest.raises(CapabilityError, match="needs a vector cone, not psd-cone"):
        checkers.evaluate_expression(catalog.instantiate("det", dim=2), "submodular", _MATRIX_PAIR)


@pytest.mark.parametrize("expression", [
    "hessian-nonneg[ij=5,5]", "hessian-nonpos[ij=0,3]", "hessian-nonneg[ij=-1,0]",
    "hessian-nonneg[ij=1]", "hessian-nonneg[ij=0,1,2]",
])
def test_a_hessian_entry_outside_the_domain_is_a_parameter_error(expression):
    """An entry needs two indices, each a coordinate of the domain."""
    sq = catalog.instantiate("sq-norm", dim=3)
    with pytest.raises(ParameterError, match=r"entry outside|malformed argument"):
        checkers.evaluate_expression(sq, expression, {"p": Point.vector([1.0, 2.0, 3.0])})
    assert checkers.evaluate_expression(sq, "hessian-nonneg[ij=2,2]",
                                        {"p": Point.vector([1.0, 2.0, 3.0])})[0] == pytest.approx(2.0)


@pytest.mark.parametrize("expression", [
    "bogus", "Subadd", "subadd[k=1]", "completely-monotone", "completely-monotone[k=two]",
    "alpha-strong[alpha=]", "hessian-nonneg[ij=a,b]",
])
def test_an_unknown_or_malformed_expression_is_a_parameter_error(expression):
    with pytest.raises(ParameterError, match="expression"):
        checkers.evaluate_expression(catalog.instantiate("log1p"), expression, {})


@pytest.mark.parametrize("run", [check, refute])
def test_an_unknown_property_label_is_a_parameter_error(run):
    """The error names the label it was given and the valid ones."""
    with pytest.raises(ParameterError, match=r"'bogus'.*\bsubadd, superadd, strong-subadd"):
        run("log1p", "bogus", _cfg(trials=10))


_ORTHANT1 = FunctionHandle("orthant-1", nonneg_orthant(1), _unevaluable)
_TRIPLE = {name: Point.vector([1.0]) for name in ("x", "y", "z")}


@pytest.mark.parametrize("expression", [
    "alpha-strong[alpha=-1.0]", "alpha-strong[alpha=nan]", "lipschitz-box[L=inf]",
    "completely-monotone[k=-1]", "completely-monotone[k=13]",
])
@pytest.mark.parametrize("run", [
    pytest.param(lambda e: checkers.evaluate_expression(_ORTHANT1, e, _TRIPLE), id="evaluate"),
    pytest.param(lambda e: reevaluate_witness(_ORTHANT1, Witness(_TRIPLE, -1.0, e)),
                 id="reevaluate"),
    pytest.param(lambda e: check(_ORTHANT1, e, _cfg(trials=10)), id="check"),
])
def test_an_argument_out_of_its_range_is_refused_before_evaluation(monkeypatch, run, expression):
    """alpha and L must be finite and positive, and k must lie in
    0..MAX_DIFF_ORDER, on every path that parses an expression; the row's
    parser refuses the argument before a point is drawn or evaluated."""
    monkeypatch.setattr(cones, "sample_batch", _undrawable)
    with pytest.raises(ConeCheckError, match="malformed argument"):
        run(expression)


def test_det_strong_superadd_small_orders():
    for n in range(1, 6):
        rep = check("det", "strong-superadd", _cfg(trials=300), dim=n)
        assert not rep.found_violation, n


def test_logdet_sign_structure():
    assert not check("logdet", "second-diff-nonpos", _cfg(), dim=3).found_violation
    assert refute("logdet", "subadd", _cfg(trials=3000), dim=3).found_violation
    assert refute("logdet", "superadd", _cfg(trials=3000), dim=3).found_violation


def test_trace_pow_quadratic_second_diff_identity():
    handle = catalog.instantiate("trace-pow", params={"p": 2.0}, dim=3)
    from conecheck.diffops import second_diff

    g = Rng(23, 0).generator
    for _ in range(200):
        mats = []
        for _ in range(3):
            gm = g.normal(size=(3, 3))
            mats.append(Point.matrix(gm @ gm.T / 3))
        a, b, c = mats
        assert second_diff(handle, a, b, c) == pytest.approx(
            2.0 * np.trace(a.data @ b.data), rel=1e-8, abs=1e-8
        )


def test_origin_condition_triggers_for_shifted_cos():
    rep = check("half-sq-plus-cos", "superadd", _cfg())
    assert rep.found_violation
    # the value 1 at the origin is itself a violation of the origin sign rule
    assert rep.witness.expression in ("origin-nonpos", "superadd")
    assert rep.worst_margin <= -0.9


def test_alpha_strong():
    sq = FunctionHandle("square", nonneg_orthant(1), lambda rows: rows[:, 0] ** 2)
    assert not check(sq, "alpha-strong[alpha=2.0]", _cfg()).found_violation

    # double integral of a constant rate c gives c x^2 / 2, which is c-strongly convex
    c = 0.75
    f = FunctionHandle("double-integral", nonneg_orthant(1), lambda rows: c * rows[:, 0] ** 2 / 2)
    assert not check(f, f"alpha-strong[alpha={c!r}]", _cfg()).found_violation

    lin = FunctionHandle("linear", nonneg_orthant(1), lambda rows: rows[:, 0])
    rep = check(lin, "alpha-strong[alpha=1.0]", _cfg())
    assert rep.found_violation
    _assert_sound(lin, rep)


def test_alpha_strong_needs_scalar_domain():
    with pytest.raises(CapabilityError):
        check(catalog.instantiate("sq-norm", dim=2), "alpha-strong[alpha=1.0]", _cfg(trials=10))


def test_lipschitz_box():
    half_sq = FunctionHandle("half-square", nonneg_orthant(1), lambda rows: rows[:, 0] ** 2 / 2)
    assert not check(half_sq, "lipschitz-box[L=1.0]", _cfg()).found_violation
    sine = FunctionHandle("sine", nonneg_orthant(1), lambda rows: np.sin(rows[:, 0]))
    assert not check(sine, "lipschitz-box[L=1.0]", _cfg()).found_violation
    cube = FunctionHandle("cube", nonneg_orthant(1), lambda rows: rows[:, 0] ** 3)
    rep = check(cube, "lipschitz-box[L=1.0]", _cfg())
    assert rep.found_violation
    _assert_sound(cube, rep)


def test_double_inequality():
    # the log of the remark's middle term is the second difference of log1p,
    # so its two bounds are the Lipschitz box at L = 1: log1p' = 1 / (1 + t)
    # is 1-Lipschitz on t >= 0
    rep = check("log1p", "lipschitz-box[L=1.0]", _cfg(trials=3000))
    assert not rep.found_violation
    assert rep.property == "lipschitz-box[L=1.0]"
    # at x = y = 0 both bounds meet the ratio at 1
    for z in (0.0, 1.0, 1e6):
        ratio = (1 + z) * (1 + z) / ((1 + z) * (1 + z))
        assert ratio == 1.0
    # large z drives the ratio to 1, inside the bounds
    x, y, z = 0.7, 1.3, 1e6
    ratio = (1 + z) * (1 + x + y + z) / ((1 + x + z) * (1 + y + z))
    assert math.exp(-x * y) <= ratio <= math.exp(x * y)


def test_chebyshev_inequality():
    rep = check_chebyshev([0.0, 1.0], [0.0, 1.0], [0.5, 0.5])
    assert not rep.found_violation
    assert rep.worst_margin == pytest.approx(0.25)
    rep = check_chebyshev([3.0, 3.0], [1.0, 9.0], [0.25, 0.75])
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)
    g = Rng(29, 0)
    for k in range(1000):
        u, v = cones.comonotone_pair_batch(4, Rng(29, k), 1, 1.0)
        p = np.abs(g.generator.normal(size=4)) + 1e-3
        p /= p.sum()
        assert not check_chebyshev(u[0], v[0], p).found_violation
    with pytest.raises(PreconditionError):
        check_chebyshev([1.0, 2.0], [2.0, 1.0], [0.5, 0.5])
    with pytest.raises(PreconditionError):
        check_chebyshev([1.0, 2.0], [1.0, 2.0], [0.7, 0.7])


def test_tomic_weyl_forward():
    rep = tomic_weyl(MajorizationPair([3.0, 1.0], [3.0, 2.0]), square_fn, "a-nonincreasing")
    assert not rep.found_violation
    assert rep.worst_margin == pytest.approx(3.0)  # 13 - 10
    rep = tomic_weyl(MajorizationPair([2.0, 1.0], [2.0, 1.0]), square_fn, "a-nonincreasing")
    assert rep.worst_margin == pytest.approx(0.0)


def test_tomic_weyl_random_constructed_pairs():
    g = Rng(31, 0).generator
    for _ in range(300):
        n = int(g.integers(2, 7))
        a = np.sort(g.uniform(0, 3, size=n))[::-1]
        b = a + np.cumsum(g.uniform(0, 1, size=n))[::-1] * 0  # start from equality
        surplus = g.uniform(0, 1, size=n)
        b = a + surplus  # partial sums of b dominate those of a
        rep = tomic_weyl(MajorizationPair(a, b), exp_fn, "a-nonincreasing")
        assert not rep.found_violation


def test_tomic_weyl_reverse_direction():
    # b nondecreasing plus partial-sum domination with a nonincreasing convex f
    g = Rng(37, 0).generator
    for _ in range(300):
        n = int(g.integers(2, 7))
        b = np.sort(g.uniform(0, 3, size=n))
        a = b - np.minimum.accumulate(g.uniform(0, 0.5, size=n))
        rep = tomic_weyl(MajorizationPair(a, b), exp_neg_fn, "b-nondecreasing")
        assert not rep.found_violation


def test_tomic_weyl_precondition_errors():
    with pytest.raises(PreconditionError, match="index 1"):
        MajorizationPair([0.0, 5.0], [1.0, 2.0]).validate("a-nonincreasing")
    with pytest.raises(PreconditionError, match="nonincreasing"):
        tomic_weyl(MajorizationPair([1.0, 2.0], [2.0, 2.0]), square_fn, "a-nonincreasing")
    with pytest.raises(PreconditionError):
        # exp is nondecreasing, which is the wrong shape for the reverse form
        tomic_weyl(MajorizationPair([1.0, 1.0], [1.0, 2.0]), exp_fn, "b-nondecreasing")


def test_popoviciu_linear_functional_with_exp():
    a = np.array([0.5, 1.0, 0.25])
    handle = FunctionHandle("linear-form", nonneg_orthant(3), lambda rows: rows @ a)
    rep = check_popoviciu(handle, exp_fn, _cfg(trials=1000))
    assert not rep.found_violation


def test_popoviciu_identity_symmetrized_equality():
    handle = FunctionHandle("coordinate", nonneg_orthant(1), lambda rows: rows[:, 0])
    rep = check_popoviciu(handle, identity_fn, _cfg(trials=500))
    assert not rep.found_violation
    assert abs(rep.worst_margin) <= 1e-9


def test_popoviciu_det_powers():
    rep = check_popoviciu("det", power_fn(1.5), _cfg(trials=500), dim=3)
    assert not rep.found_violation


def test_popoviciu_label_consultation():
    with pytest.raises(PreconditionError):
        check_popoviciu("lse", exp_fn, _cfg(trials=10), dim=2)


def test_popoviciu_monotone_spot_check_fires():
    # strictly decreasing rule cannot satisfy the monotone hypothesis
    handle = FunctionHandle("anti", nonneg_orthant(2), lambda rows: -np.sum(rows, axis=1))
    with pytest.raises(PreconditionError, match="spot check"):
        check_popoviciu(handle, exp_fn, _cfg(trials=10))


def test_popoviciu_spot_check_overflow_is_quiet():
    """At scale 1e308 the spot check's PSD samples overflow; like the trial
    path it raises no floating-point warning, and the check fails its skip
    budget."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure):
            check_popoviciu("det", power_fn(1.5), CheckConfig(trials=30, scale=1e308), dim=2)


def test_refuter_finds_jensen_gap_with_large_margin():
    rep = refute("jensen-gap", "strong-subadd", _cfg(trials=10000))
    assert rep.found_violation
    assert abs(rep.witness.margin) >= 0.4
    _assert_sound("jensen-gap", rep)


def test_refuter_finds_pairwise_diff_witness():
    rep = refute("pairwise-diff-convex", "strong-subadd", _cfg(trials=10000))
    assert rep.found_violation
    _assert_sound("pairwise-diff-convex", rep)


def _recorded_blocks(monkeypatch) -> list:
    """The components of every block the trial path evaluates, in order."""
    blocks, components = [], checkers._components

    def recorded(*args):
        blocks.append(components(*args))
        return blocks[-1]

    monkeypatch.setattr(checkers, "_components", recorded)
    return blocks


def test_refute_evaluates_the_origin_once_and_shrinks_one_witness(monkeypatch):
    """Every rung of the ladder finds a violation here, and the one report
    still costs one origin evaluation and one shrink."""
    shrinks, shrink = [], checkers._shrink

    def counted_shrink(*args, **kwargs):
        shrinks.append(args[1])
        return shrink(*args, **kwargs)

    monkeypatch.setattr(checkers, "_shrink", counted_shrink)
    blocks = _recorded_blocks(monkeypatch)
    cfg = _cfg(trials=1000)
    rep = refute("geomean2", "strong-subadd", cfg)
    origins = [c.form.expression for comps in blocks for c in comps
               if c.form.expression.startswith("origin-")]
    rung_lows = [min(float(np.nanmin(c.slack)) for c in comps) for comps in blocks[1:]]
    assert len(rung_lows) == 3 and max(rung_lows) < -1e-3
    assert len(shrinks) == 1 and origins == ["origin-nonneg"]
    assert rep.found_violation and rep.mode == "refute"
    assert rep.trials_run == cfg.trials
    _assert_sound("geomean2", rep)


@pytest.mark.parametrize("run", [check, refute])
@pytest.mark.parametrize("target", ["log1p", "reciprocal"])
def test_trials_run_is_the_trial_count(run, target):
    """The origin block, on the closed orthant of log1p, is one of the
    trials, and the open orthant of reciprocal has none; even one trial
    runs as asked."""
    for trials in (1, 2, 3):
        assert run(target, "strong-subadd", _cfg(trials=trials)).trials_run == trials


class _ReadRecorder(dict):
    """Role arrays that record the names a form reads."""

    def __init__(self, arrays):
        super().__init__(arrays)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


# an argument for each parametrized form
_FORM_ARGS = {"completely-monotone": "k=3", "alpha-strong": "alpha=0.5", "lipschitz-box": "L=2.0",
              "hessian-nonpos": "ij=0,1", "hessian-nonneg": "ij=0,1"}


def test_every_form_reads_exactly_the_roles_of_its_row():
    """Each expression has a row of the form table: on one row its form reads
    exactly the roles the row lists, each drawn by ``_ROLES`` (the origin
    block alone gives ``zero``), and its point roles are among them."""
    handle = FunctionHandle("sum", nonneg_orthant(2), lambda r: r.reshape(len(r), -1).sum(axis=1))
    drawn = {n for key in checkers._ROLES for n in (key if isinstance(key, tuple) else (key,))}
    arrays = {n: np.ones((1, 2)) for n in drawn | {"zero"}}
    arrays["A"] = np.eye(2)[None]
    for name, row in checkers._FORMS.items():
        expression = name if row.parse is None else f"{name}[{_FORM_ARGS[name]}]"
        form = checkers._form(expression)
        assert form.row is row, expression
        roles = _ReadRecorder(arrays)
        form(handle, roles)
        assert roles.read == set(form.names), expression
        assert set(row.points) <= roles.read, expression
        assert set(form.keys) - {"zero"} <= set(checkers._ROLES), expression


def test_refute_holds_one_rung_of_trials_at_a_time():
    """Each rung's block is freed before the next is drawn, so a refute
    peaks like a check of one rung, not of the whole ladder."""
    def peak(run, trials):
        cfg = CheckConfig(trials=trials, seed=1, boundary_prob=0.5)
        run("det", "strong-subadd", replace(cfg, trials=30), dim=3)
        tracemalloc.start()
        try:
            run("det", "strong-subadd", cfg, dim=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # about 1.0x; holding the previous rung while drawing the next gives
    # about 1.6x, and holding all three about 2.1x
    assert peak(refute, 3000) < 1.3 * peak(check, 1000)


def test_jensen_gap_closed_form_oracle():
    """Second difference of the gap of -t^2 with equal weights is
    (x1-x2)(y1-y2)/2; at x = y = e1, z = 0 it equals 1/2."""
    handle = catalog.instantiate("jensen-gap", dim=2)
    from conecheck.diffops import second_diff

    e1 = Point.vector([1.0, 0.0])
    z0 = Point.vector([0.0, 0.0])
    assert second_diff(handle, e1, e1, z0) == pytest.approx(0.5, abs=1e-12)
    g = Rng(41, 0).generator
    for _ in range(200):
        x, y, z = (Point.vector(np.abs(g.normal(size=2))) for _ in range(3))
        expected = 0.5 * (x.data[0] - x.data[1]) * (y.data[0] - y.data[1])
        assert second_diff(handle, x, y, z) == pytest.approx(expected, abs=1e-9)


def test_skip_budget_enforced():
    def batch(rows):
        out = rows[:, 0].copy()
        out[out > 0.05] = np.nan  # undefined almost everywhere
        return out

    handle = FunctionHandle("mostly-undefined", nonneg_orthant(1), batch)
    with pytest.raises(NumericFailure, match="skipped"):
        check(handle, "subadd", _cfg(trials=500))


def test_report_json_contract():
    rep = check("geomean2", "strong-subadd", _cfg(trials=500))
    obj = rep.to_json()
    assert {"property", "verdict", "trials", "worst_margin", "witness", "config"} <= set(obj)
    assert (obj["verdict"] == "VIOLATION_FOUND") == (obj["witness"] is not None)
    if obj["witness"]:
        assert obj["witness"]["margin"] == rep.worst_margin


def test_shrink_zeroes_out_flat_directions():
    """Second-difference violations of the Jensen gap do not depend on z, so
    shrinking collapses z toward the origin without weakening the margin."""
    handle = catalog.instantiate("jensen-gap", dim=2)
    rep = check(handle, "second-diff-nonpos", _cfg(trials=2000))
    assert rep.found_violation
    assert rep.witness.expression == "second-diff-nonpos"
    assert float(np.abs(rep.witness.points["z"].data).max()) <= 1e-12


def test_completely_monotone_families():
    rep = check("exp-neg-linear", "completely-monotone", _cfg(trials=400))
    assert not rep.found_violation
    rep = check("inv-power-product", "completely-monotone", _cfg(trials=400))
    assert not rep.found_violation
    rep = refute("logistic-pow", "completely-monotone", _cfg(trials=6000),
                 params={"a": 1.0, "beta": 0.5})
    assert rep.found_violation
    k = int(rep.witness.expression.split("k=")[1].rstrip("]"))
    assert 1 <= k <= 5
    _assert_sound(catalog.instantiate("logistic-pow", {"a": 1.0, "beta": 0.5}), rep)


def test_integer_logistic_power_is_cm():
    rep = check("logistic-pow", "completely-monotone", _cfg(trials=500),
                params={"a": 1.0, "beta": 2.0})
    assert not rep.found_violation


def test_popoviciu_reversed_for_nonincreasing_concave():
    from conecheck.numkernel import ScalarFunction

    neg_sq = ScalarFunction(
        "neg-square", lambda t: -t * t, lo=0.0, nondecreasing=False, convex=False
    )
    rep = check_popoviciu("det", neg_sq, _cfg(trials=500), dim=2)
    assert not rep.found_violation
    assert rep.witness.expression.endswith("-nonpos") if rep.witness else True


@pytest.mark.parametrize("f,sign", [(identity_fn, "nonneg"), (power_fn(1.5), "nonneg"),
                                    (NEG_FN, "nonpos")])
def test_popoviciu_witness_reevaluates_on_the_composed_handle(f, sign):
    rep = check_popoviciu(SQRT_SUM, f, CheckConfig(trials=1000, seed=0))
    assert rep.verdict == "VIOLATION_FOUND"
    w = rep.witness
    assert w.expression in (f"second-diff-{sign}", f"symmetrized-{sign}")
    assert all(cones.member(SQRT_SUM.domain, pt) for pt in w.points.values())
    assert reevaluate_witness(compose(f, SQRT_SUM), w) == w.margin == rep.worst_margin


def test_compose_keeps_the_handle_label_and_leaves_the_interval_as_nan():
    sqrt_fn = ScalarFunction("sqrt", np.sqrt, lo=0.0)
    line = FunctionHandle("line", cones.full_space(1), lambda r: r[:, 0])
    g = compose(sqrt_fn, line)
    assert (g.label, g.domain) == ("line", line.domain)
    out = g.batch(np.array([[4.0], [-1.0]]))
    assert out[0] == 2.0 and np.isnan(out[1])


def test_config_validation():
    import pytest as _pytest
    from conecheck.errors import ParameterError

    for bad in (dict(trials=0), dict(scale=-1.0), dict(scale=math.inf), dict(scale=math.nan),
                dict(order_cap=0), dict(order_cap=13), dict(boundary_prob=1.0),
                # a bool or a non-number is no scale or probability
                dict(scale=True), dict(boundary_prob=False), dict(scale="2"),
                dict(boundary_prob="0.2"), dict(scale=None), dict(scale=10 ** 400)):
        with _pytest.raises(ParameterError):
            CheckConfig(**bad)
    # the real-valued fields are stored, and written, as floats
    cfg = CheckConfig(scale=2, boundary_prob=np.float32(0.25))
    assert type(cfg.scale) is float and type(cfg.boundary_prob) is float
    assert cfg == CheckConfig(scale=2.0, boundary_prob=0.25)
    assert '"scale": 2.0' in json.dumps(cfg.to_json())


def test_overflowing_trials_are_skipped_without_a_warning():
    """At scale 1e308 the sampler's product and the forms' role sums
    overflow; those trials are skipped, and the check fails its skip budget
    with no floating-point warning.  ``refute``'s 10x rung overflows as
    quietly, within the budget at 5e306 and past it at 1e307.  The one-row
    path is as quiet."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match="12/30 trials skipped"):
            check("log1p", "strong-subadd", CheckConfig(trials=30, scale=1e308))
        with pytest.raises(NumericFailure, match="4/30 trials skipped"):
            refute("log1p", "strong-subadd", CheckConfig(trials=30, scale=1e307))
        rep = refute("log1p", "strong-subadd", CheckConfig(trials=30, scale=5e306))
        assert (rep.verdict, rep.skipped) == ("NO_VIOLATION_FOUND", 1)
        huge = Point.vector([1e308])
        with pytest.raises(DomainError):
            second_diff(catalog.instantiate("log1p"), huge, huge, huge)


@pytest.mark.parametrize("bad", [
    dict(trials=True), dict(trials=2.5), dict(seed=1.5), dict(seed=False),
    dict(order_cap=2.0), dict(order_cap="3"),
])
def test_config_counts_must_be_integers(bad):
    """A bool or a float count used to run (``trials=True`` ran 2 trials) or
    to fail deep in sampling; numpy integers are taken as ints."""
    with pytest.raises(ParameterError):
        CheckConfig(**bad)
    cfg = CheckConfig(trials=np.int64(7), seed=np.uint32(3), order_cap=np.int8(2))
    assert cfg == CheckConfig(trials=7, seed=3, order_cap=2)
    assert all(type(v) is int for v in (cfg.trials, cfg.seed, cfg.order_cap))
    json.dumps(cfg.to_json())


def test_witness_without_a_role_point_is_a_shape_error():
    handle = catalog.instantiate("log1p")
    witness = Witness({"x": Point.vector([1.0])}, -1.0, "subadd")
    with pytest.raises(ShapeError, match="'y'"):
        reevaluate_witness(handle, witness)
    with pytest.raises(ShapeError, match="'base'"):
        checkers.evaluate_expression(handle, "completely-monotone[k=1]",
                                     {"x1": Point.vector([1.0])})


def test_supermodular_paths():
    assert not check("sq-norm", "supermodular", _cfg(trials=1000)).found_violation
    prod = FunctionHandle("coordinate-product", nonneg_orthant(2),
                          lambda rows: rows[:, 0] * rows[:, 1])
    assert not check(prod, "supermodular", _cfg(trials=1000)).found_violation
    rep = check(prod, "submodular", _cfg(trials=1000))
    assert rep.found_violation
    assert rep.witness.expression == "submodular"
    _assert_sound(prod, rep)


def test_comonotone_check_draws_from_the_handle_domain():
    """On the open orthant every role, the comonotone pair included, stays at
    or above the sampling floor, so no trial falls off the domain."""
    for seed in (0, 1, 2):
        rep = check("inv-power-product", "comonotone-strong-superadd", _cfg(seed=seed))
        assert not rep.found_violation and rep.skipped == 0, seed
    seen = []

    def batch(rows):
        seen.append(rows.min())
        return np.sum(np.log(rows), axis=1)

    handle = FunctionHandle("sum-log", cones.positive_orthant(3), batch)
    check(handle, "comonotone-strong-superadd", _cfg(trials=500, scale=2.0))
    assert min(seen) >= cones.coordinate_floor(handle.domain, 2.0)[0]


def test_comonotone_violation_is_sound():
    """The negated log-sum-exp flips the comonotone second-difference sign,
    so the check finds a witness that re-evaluates exactly."""
    neg_lse = FunctionHandle(
        "neg-lse", cones.full_space(3),
        lambda rows: -(np.max(rows, axis=1)
                       + np.log(np.mean(np.exp(rows - np.max(rows, axis=1)[:, None]), axis=1))),
    )
    rep = check(neg_lse, "comonotone-strong-superadd", _cfg(trials=2000))
    assert rep.found_violation
    assert rep.witness.expression in ("comonotone-strong-superadd", "origin-nonpos")
    _assert_sound(neg_lse, rep)


def test_comonotone_witness_outside_its_hypothesis_is_refused():
    """The comonotone form is NaN where (x, y) is not comonotone, so
    re-evaluating such a witness raises instead of giving a margin."""
    handle = catalog.instantiate("lse", dim=2)
    points = {"x": Point.vector([1.0, 0.0]), "y": Point.vector([0.0, 1.0]),
              "z": Point.vector([0.0, 0.0])}
    assert checkers.evaluate_expression(handle, "second-diff-nonneg", points)[0] < 0
    witness = Witness(points=points, margin=-1.0, expression="comonotone-strong-superadd")
    with pytest.raises(DomainError):
        reevaluate_witness(handle, witness)


@pytest.mark.parametrize("cone", [nonneg_orthant(2), cones.psd_cone(2)])
@pytest.mark.parametrize("run", [check, refute])
def test_origin_folds_first_and_wins_ties(run, cone):
    """f = 1 violates the origin sign condition and superadditivity by the
    same -1.0 on every trial; the origin block comes first, so its witness
    is the one reported."""
    handle = FunctionHandle("one", cone, lambda rows: np.ones(rows.shape[0]))
    rep = run(handle, "strong-superadd", _cfg(trials=300))
    assert rep.witness.expression == "origin-nonpos"
    assert list(rep.witness.points) == ["zero"]
    assert rep.witness.points["zero"] == cone.zero()
    assert rep.witness.margin == -1.0 == rep.worst_margin
    assert reevaluate_witness(handle, rep.witness) == -1.0


def test_report_biconditional_invariant():
    """VIOLATION_FOUND, witness presence, and a worst margin below the
    violation threshold are all equivalent, across a battery of reports."""
    # nondecreasing and convex on the shape spot check's grid, but not at
    # 3.5, the largest entry of b, so the one-trial report finds a violation
    dip = ScalarFunction("dip-at-3.5", lambda t: t - 100.0 * (t == 3.5),
                         nondecreasing=True, convex=True)
    majorized = MajorizationPair([3.0, 2.0, 1.0], [3.5, 2.0, 1.0])
    reports = [
        check("log1p", "strong-subadd", _cfg(trials=1000)),
        check("geomean2", "strong-subadd", _cfg(trials=1000)),
        check("det", "strong-superadd", _cfg(trials=300), dim=2),
        check("lse", "submodular", _cfg(trials=500), dim=3),
        check("reciprocal", "strong-subadd", _cfg(trials=1000)),
        refute("half-sq-plus-cos", "superadd", _cfg(trials=600)),
        check_popoviciu(SQRT_SUM, identity_fn, _cfg(trials=1000)),
        check("exp-neg-linear", "completely-monotone", _cfg(trials=200)),
        check_chebyshev([1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [0.2, 0.3, 0.5]),
        tomic_weyl(majorized, exp_fn, "a-nonincreasing"),
        tomic_weyl(majorized, dip, "a-nonincreasing"),
        check("det-trace-inverse", "nondecreasing", _cfg(trials=300), dim=3),
        check("det-shift-recip", "gaussian-det-representation", _cfg(trials=3), dim=2),
    ]
    assert [r.found_violation for r in reports[-5:]] == [False, False, True, False, False]
    for rep in reports:
        has_witness = rep.witness is not None
        assert rep.found_violation == has_witness
        assert rep.verdict == ("VIOLATION_FOUND" if has_witness else "NO_VIOLATION_FOUND")
        assert rep.to_json()["verdict"] == rep.verdict
        if has_witness:
            assert rep.worst_margin == rep.witness.margin
            assert rep.worst_margin < 0
        else:
            thr = rep.config.tolerance(0.0)  # minimal threshold; scale term only widens it
            assert rep.worst_margin >= -thr or rep.skipped > 0


def test_block_zero_is_the_stream_from_counter_zero():
    """Block ``b`` of a stream keeps the Philox key and starts at counter
    ``[0, 0, 0, b]``; raw Philox output is the same on every platform, so
    the digest of blocks 0-2 is pinned."""
    key = np.array([7, 3], dtype=np.uint64)
    unblocked = np.random.Philox(key=key).random_raw(1024)
    assert np.array_equal(Rng(7, 3).generator.bit_generator.random_raw(1024), unblocked)
    assert Rng(7, 3, 2).generator.bit_generator.state["state"]["counter"].tolist() == [0, 0, 0, 2]
    digest = hashlib.sha256()
    for block in range(3):
        digest.update(Rng(7, 3, block).generator.bit_generator.random_raw(1024).tobytes())
    assert digest.hexdigest() == "530ee6bb8547cfa476942703009012884b5ade0178caad115fbd550492d421e6"


class _UnblockedRng(cones.Rng):
    """Every stream from Philox counter 0 whatever its block, as drawn before
    trials were cut into blocks."""

    @property
    def generator(self):
        if not self._gen:
            key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
            self._gen.append(np.random.Generator(np.random.Philox(key=key)))
        return self._gen[0]


@pytest.mark.parametrize("run,target,prop,trials,dim", [
    (check, "log1p", "strong-subadd", 2 ** 14, None),
    (refute, "geomean2", "strong-subadd", 3000, None),
    (check, "trace-pow", "second-diff-nonpos", 2 ** 14, 2),
    (check, "lse", "comonotone-strong-superadd", 2 ** 14, 3),
    (check, "exp-neg-linear", "completely-monotone", 2 ** 14, None),
])
def test_reports_of_one_block_draw_the_unblocked_streams(monkeypatch, run, target, prop,
                                                         trials, dim):
    """A check of at most ``_BLOCK`` trials per rung gives the report bytes of
    one unblocked draw of every stream."""
    assert trials <= checkers._BLOCK
    blocked = run(target, prop, CheckConfig(trials=trials, seed=0), dim=dim).json_line()
    monkeypatch.setattr(checkers, "Rng", _UnblockedRng)
    monkeypatch.setattr(checkers, "_BLOCK", 2 ** 62)
    assert run(target, prop, CheckConfig(trials=trials, seed=0), dim=dim).json_line() == blocked


def _fold(handle, prop, blocks, cfg):
    """The report of the component blocks, folded in order at ``cfg.scale``."""
    fold = checkers._Fold(handle)
    for comps in blocks:
        fold.add(comps, cfg, cfg.scale)
    return fold.finish(prop, cfg)


def _slice_block(comps, rows):
    return [checkers._Component(c.form, c.slack[rows], c.scale[rows],
                                {r: a[rows] for r, a in c.roles.items()}) for c in comps]


@pytest.mark.parametrize("handle,prop", [
    (catalog.instantiate("geomean2"), PropertyLabel.STRONG_SUBADD),
    (FunctionHandle("one", nonneg_orthant(2), lambda rows: np.ones(rows.shape[0])),
     PropertyLabel.SUPERADD),
    (catalog.instantiate("logdet-pencil"), PropertyLabel.SECOND_DIFF_NONPOS),
])
def test_folding_the_same_trials_in_more_blocks_gives_the_same_report(monkeypatch, handle, prop):
    """Witness (ties keep the earlier trial), worst margin and skip counts do
    not depend on where the trials are cut."""
    cfg = _cfg(trials=900, boundary_prob=0.5)
    blocks = _recorded_blocks(monkeypatch)
    check(handle, prop, cfg)
    comps = blocks[-1]
    one = _fold(handle, prop.value, [comps], cfg)
    t = comps[0].slack.size
    cuts = (0, 1, 2, 300, 301, t - 1, t)
    several = _fold(handle, prop.value,
                    [_slice_block(comps, slice(a, b)) for a, b in zip(cuts, cuts[1:])], cfg)
    assert several.json_line() == one.json_line()


@pytest.mark.parametrize("run", [
    pytest.param(partial(check, "log1p", "strong-subadd"), id="log1p-strong-subadd-None"),
    pytest.param(partial(check, "det", "strong-superadd", dim=2), id="det-strong-superadd-2"),
    pytest.param(partial(check, "det-trace-inverse", "nondecreasing", dim=3),
                 id="det-trace-inverse-monotone-3"),
])
def test_check_memory_does_not_grow_with_the_trial_count(run):
    """Trials are drawn and folded one block at a time, so 8 blocks of trials
    peak like one."""
    def peak(trials):
        tracemalloc.start()
        try:
            run(_cfg(trials=trials))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run(_cfg(trials=30))
    assert peak(8 * checkers._BLOCK) < 1.5 * peak(checkers._BLOCK)


def test_completely_monotone_check_memory_grows_slowly_with_the_order_cap():
    """Every order shares one set of steps and one pass over the subset
    points, so a block's arrays grow linearly with ``order_cap``: at 2^13
    trials, cap 12 peaks under 4x cap 2 (measured about 3x)."""
    def peak(cap):
        cfg = CheckConfig(trials=2 ** 13, order_cap=cap)
        check("exp-neg-linear", "completely-monotone", replace(cfg, trials=30))
        tracemalloc.start()
        try:
            check("exp-neg-linear", "completely-monotone", cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(12) < 4 * peak(2)


def test_skips_at_an_undefined_apex_are_reported_but_not_charged(capsys):
    """Refuting the log det pencil zeroes all of z in an eighth of trials, where
    the pencil is singular; those trials stay in ``skipped`` but not in the
    skip budget, so the asserted claim is not refuted and exits 0."""
    from conecheck.cli import main

    for seed in range(5):
        rep = refute("logdet-pencil", "second-diff-nonpos", _cfg(trials=10000, seed=seed))
        assert not rep.found_violation and rep.skipped > checkers._SKIP_BUDGET * rep.trials_run
    assert main(["refute", "logdet-pencil", "--property", "second-diff-nonpos"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "NO_VIOLATION_FOUND"


# 1 on the open interval (0, 5), NaN elsewhere: every finite slack is 0
_OPEN_INTERVAL = FunctionHandle("open-interval", nonneg_orthant(1),
                                lambda r: np.where((r[:, 0] > 0) & (r[:, 0] < 5), 1.0, np.nan))


@pytest.mark.parametrize("expression,at_apex,zero_step", [
    ("second-diff-nonpos", {"z": 0.0}, {"x": 0.0, "y": 10.0}),
    ("completely-monotone[k=2]", {"base": 0.0}, {"x1": 0.0, "x2": 10.0}),
])
def test_only_points_at_an_undefined_apex_excuse_a_skip(expression, at_apex, zero_step):
    """150 of 1000 trials are skipped, over the 10% budget.  With a point at
    the apex they are not charged; with a zero step and the non-finite value
    at another point they are."""
    roles = {"z", "x", "y"} if expression == "second-diff-nonpos" else {"base", "x1", "x2"}

    def reduce(first_rows):
        arrays = {r: np.ones((1000, 1)) for r in roles}
        for r, v in first_rows.items():
            arrays[r][:150] = v
        comps = checkers._components(_OPEN_INTERVAL, [checkers._form(expression)], arrays)
        return _fold(_OPEN_INTERVAL, "p", [comps], _cfg(trials=1000))

    rep = reduce(at_apex)
    assert rep.skipped == 150 and not rep.found_violation
    with pytest.raises(NumericFailure, match="150/1000"):
        reduce(zero_step)


@pytest.mark.parametrize("target,dim", [("lse", 3), ("lse", 8), ("inv-power-product", 3)])
def test_comonotone_trials_hold_the_hypothesis_they_skip(monkeypatch, target, dim):
    """Every drawn pair, at every rung's scale and in later blocks, passes the
    zero-tolerance comonotone test, so the trials skip nothing and the form
    gives the plain second difference's slack and scale."""
    monkeypatch.setattr(checkers, "_BLOCK", 1500)
    blocks = _recorded_blocks(monkeypatch)
    rep = refute(target, "comonotone-strong-superadd", _cfg(trials=9001), dim=dim)
    assert rep.skipped == 0 and not rep.found_violation
    handle = catalog.resolve_handle(target, None, dim)
    sampled = [comp for comp, in blocks if comp.form.expression == "comonotone-strong-superadd"]
    # two blocks or more per rung
    assert len(sampled) >= 6 and sum(c.slack.size for c in sampled) >= 9000
    for comp in sampled:
        assert cones.comonotonic_batch(comp.roles["x"], comp.roles["y"]).all()
        slack, s = checkers._form("second-diff-nonneg")(handle, comp.roles)
        assert slack.tobytes() + s.tobytes() == comp.slack.tobytes() + comp.scale.tobytes()
