"""Witness soundness: shrunk witnesses stay on the cone and above the open
orthant's sampling floor, and their margins reproduce exactly."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecheck import catalog, cones
from conecheck.catalog import SourceStatus
from conecheck.checkers import CheckConfig, check, evaluate_expression, reevaluate_witness, refute
from conecheck.cones import Point, nonneg_orthant
from conecheck.diffops import FunctionHandle

REFUTED_CLAIMS = [
    (e.id, label.value, None)
    for e in catalog.builtin_entries()
    for label, status in sorted(e.labels.items(), key=lambda kv: kv[0].value)
    if status == SourceStatus.REFUTED_CANDIDATE
]
# logdet second-diff-nonneg is among the refuted claims, at its default order 3
CLAIMS = REFUTED_CLAIMS + [("det", "strong-subadd", 3)]


def _assert_sound_on_cone(handle, report):
    assert report.found_violation
    w = report.witness
    off_cone = [k for k, p in w.points.items() if not cones.member(handle.domain, p)]
    assert not off_cone, off_cone
    assert reevaluate_witness(handle, w) == w.margin
    assert report.worst_margin == w.margin < 0.0


@pytest.mark.parametrize("eid,prop,dim", CLAIMS, ids=[f"{e}-{p}" for e, p, _ in CLAIMS])
@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 2**32 - 1), refuting=st.booleans())
def test_witnesses_are_on_cone_and_replay_exactly(eid, prop, dim, seed, refuting):
    handle = catalog.instantiate(eid, dim=dim)
    run = refute if refuting else check
    _assert_sound_on_cone(handle, run(handle, prop, CheckConfig(trials=600, seed=seed)))


@pytest.mark.parametrize(
    "run,eid,prop,trials,seed",
    [
        (refute, "det", "strong-subadd", 300, 5),
        (check, "logdet", "second-diff-nonneg", 1000, 1),
        (check, "logdet", "second-diff-nonneg", 1000, 2),
        (check, "logdet", "second-diff-nonneg", 1000, 3),
    ],
)
def test_psd_witnesses_that_used_to_leave_the_cone(monkeypatch, run, eid, prop, trials, seed):
    """Halving single off-diagonal entries once made these witnesses
    indefinite; candidates now pass a membership test first, and that test
    still rejects off-cone candidates here."""
    member_batch, rejected = cones.member_batch, []

    def counting(*args, **kwargs):
        inside = member_batch(*args, **kwargs)
        rejected.append(int((~inside).sum()))
        return inside

    monkeypatch.setattr(cones, "member_batch", counting)
    handle = catalog.instantiate(eid, dim=3)
    report = run(handle, prop, CheckConfig(trials=trials, seed=seed))
    assert sum(rejected) > 0
    _assert_sound_on_cone(handle, report)


@pytest.mark.parametrize("seed", [0, 1])
def test_reciprocal_shrinks_no_lower_than_the_sampling_floor(seed):
    """1/z grows without bound as z -> 0, so shrinking could halve z down to
    the float range; it stops at the open orthant's floor instead."""
    rep = refute("reciprocal", "strong-subadd", CheckConfig(trials=3000, seed=seed))
    assert rep.found_violation
    assert np.isfinite(rep.witness.margin) and rep.witness.margin > -1e10
    coords = np.concatenate([p.data for p in rep.witness.points.values()])
    assert coords.min() >= 1e-7


@pytest.mark.parametrize("seed", range(5))
def test_logdet_pencil_refuted_despite_skipped_trials(seed):
    """The pencil is singular wherever enough weights vanish, so the
    boundary-biased refuter skips about a third of its trials; a found
    witness is sound whatever the skip count."""
    handle = catalog.instantiate("logdet-pencil")
    rep = refute(handle, "strong-subadd", CheckConfig(trials=3000, seed=seed))
    assert rep.skipped > 0.1 * rep.trials_run
    _assert_sound_on_cone(handle, rep)


def test_logdet_pencil_superadd_refuted_with_one_skip_budget():
    """The 0.1 rung skips about a quarter of its trials and finds no
    violation; the skip budget covers the whole ladder, so the witness the
    other rungs find is reported."""
    handle = catalog.instantiate("logdet-pencil")
    rep = refute(handle, "superadd", CheckConfig(seed=0))
    assert rep.trials_run == 10000
    _assert_sound_on_cone(handle, rep)


def test_completely_monotone_scale_covers_every_subset_point():
    """The tolerance scale of an order-3 difference is the largest |f| over
    all 8 subset points, not only the base and the full sum."""
    handle = FunctionHandle("sin-pi", nonneg_orthant(1), lambda rows: np.sin(np.pi * rows[:, 0]))
    pts = {"base": Point.vector([0.0])}
    pts.update({f"x{i}": Point.vector([0.25]) for i in (1, 2, 3)})
    _, scale = evaluate_expression(handle, "completely-monotone[k=3]", pts)
    subset_points = [
        0.25 * sum(bits) for bits in itertools.product((0, 1), repeat=3)
    ]
    expected = max(abs(np.sin(np.pi * t)) for t in subset_points)
    assert scale == expected == 1.0


@pytest.mark.parametrize("seed", range(10))
def test_det_recip_pow_is_refuted_on_the_psd_cone(seed):
    """Sampling power on the PSD cone: ``det(A)^-0.2`` at order 2 is not
    completely monotone, and ``refute`` at 3000 trials and order cap 5 finds
    it at every seed 0-9, with a witness on the cone that replays exactly."""
    handle = catalog.instantiate("det-recip-pow", {"beta": 0.2}, dim=2)
    _assert_sound_on_cone(handle, refute(handle, "completely-monotone",
                                         CheckConfig(trials=3000, seed=seed)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_det_recip_pow_controls_stay_clean(n, beta):
    """``det(A)^-beta`` is completely monotone on the PSD cone for every
    half-integer beta (Scott-Sokal, thm 1.3); no seed 0-9 refutes it."""
    handle = catalog.instantiate("det-recip-pow", {"beta": beta}, dim=n)
    for seed in range(10):
        rep = refute(handle, "completely-monotone", CheckConfig(trials=3000, seed=seed))
        assert rep.verdict == "NO_VIOLATION_FOUND", seed


# the orthant and full-space refuted candidates of the benchmark's refute jobs
POWER_CLAIMS = [
    ("lse", "strong-subadd", None), ("jensen-gap", "strong-subadd", None),
    ("pairwise-diff-convex", "strong-subadd", None), ("geomean2", "strong-subadd", None),
    ("reciprocal", "strong-subadd", None), ("half-sq-plus-cos", "superadd", None),
    ("logistic-pow", "completely-monotone", {"beta": 0.5}),
]


@pytest.mark.parametrize("eid,prop,params", POWER_CLAIMS,
                         ids=[f"{e}-{p}" for e, p, _ in POWER_CLAIMS])
def test_refuted_candidates_are_refuted_at_every_seed(eid, prop, params):
    """Sampling power: ``refute`` at 3000 trials finds each violation at
    every seed 0-9, with a witness on the cone that replays exactly."""
    handle = catalog.instantiate(eid, params)
    for seed in range(10):
        _assert_sound_on_cone(handle, refute(handle, prop, CheckConfig(trials=3000, seed=seed)))


@pytest.mark.parametrize("eid,params", [("exp-neg-linear", None), ("logistic-pow", {"beta": 2.0})])
def test_completely_monotone_controls_stay_clean_at_order_12(eid, params):
    handle = catalog.instantiate(eid, params)
    for seed in range(5):
        cfg = CheckConfig(trials=3000, seed=seed, order_cap=12)
        assert refute(handle, "completely-monotone", cfg).verdict == "NO_VIOLATION_FOUND", seed


@pytest.mark.xfail(strict=True, reason="rounding at order 12 passes the fixed tolerance: "
                   "ROADMAP 'A tolerance from a rounding bound, per form'")
@pytest.mark.parametrize("seed", [18, 22])
def test_inv_power_product_is_not_refuted_at_order_12(seed):
    """``x^-0.5 y^-1`` is completely monotone, but its order-12 differences
    cancel to rounding noise larger than the tolerance at these seeds."""
    cfg = CheckConfig(trials=3000, seed=seed, order_cap=12)
    rep = refute("inv-power-product", "completely-monotone", cfg, dim=2)
    assert rep.verdict == "NO_VIOLATION_FOUND"
