"""Claims checked together: ``check_claims`` draws each block of a role once
for every claim on one cone and gives each claim the report of its own
``check``."""

import math
import tracemalloc

import numpy as np
import pytest

from conecheck import checkers, cones, suite
from conecheck.catalog import PropertyLabel, SourceStatus, builtin_entries, instantiate
from conecheck.certify import certify_differential_monotone, certify_hessian_sign, certify_topkis
from conecheck.checkers import (
    SCALE_LADDER,
    CheckConfig,
    Claim,
    check,
    check_claims,
    check_popoviciu,
    reevaluate_witness,
    refute,
)
from conecheck.cones import nonneg_orthant
from conecheck.diffops import FunctionHandle
from conecheck.errors import CapabilityError, ParameterError, UnknownEntryError
from conecheck.numkernel import power_fn
from conecheck.suite import SubCheck

# 1 - exp(-t) on the nonnegative half-line, as a handle made by hand
_ONE_MINUS_EXP = FunctionHandle("one-minus-exp", nonneg_orthant(1),
                                lambda r: -np.expm1(-r[:, 0]))

# claims on seven cones, with and without an origin block; the lse rows with
# an origin block share their draws, and read x as the comonotone pair's and
# as a boundary draw; the expression claims share the draws of the labels
# with no origin block on their cones
MIXED = [
    Claim("log1p", "strong-subadd"),
    Claim("reciprocal", "strong-subadd"),  # refuted, and its witness is shrunk
    Claim("log1p", "second-diff-nonpos"),
    Claim("det", "strong-superadd", dim=3),
    Claim("lse", "comonotone-strong-superadd", dim=3),
    Claim("exp-neg-linear", "completely-monotone"),
    Claim("trace-pow", "strong-subadd", {"p": 0.5}, 3),
    Claim("lse", "submodular", dim=3),
    Claim("lse", "strong-subadd", dim=3),  # refuted
    Claim("logdet", "second-diff-nonneg", dim=3),  # refuted on the PSD cone
    Claim(_ONE_MINUS_EXP, "strong-subadd"),
    Claim("inv-power-product", "completely-monotone"),
    Claim("log1p", "strong-subadd"),  # repeated
    Claim("reciprocal", "subadd"),
    Claim("det", "strong-superadd", dim=2),
    Claim("log1p", "lipschitz-box[L=1.0]"),
    Claim("log1p", "alpha-strong[alpha=0.5]"),  # refuted: log1p is concave
    Claim(_ONE_MINUS_EXP, "lipschitz-box[L=1.0]"),
    Claim("exp-neg-linear", "completely-monotone[k=2]"),
    Claim("det-shift-recip", "gaussian-det-representation", dim=2),
]


def _one_at_a_time(claims, cfg):
    return [check(c.target, c.property, cfg, params=c.params, dim=c.dim).json_line()
            for c in claims]


@pytest.mark.parametrize("trials,block", [(1500, 2 ** 14), (1500, 400), (2 ** 14 + 3, 2 ** 14)])
def test_each_claim_gets_the_bytes_of_its_own_check(monkeypatch, trials, block):
    """Mixed cones, origin blocks, completely-monotone orders, labels and
    expressions, a shrunk witness, a hand-made handle and a repeated claim,
    over one block or several: every report is the one ``check`` writes."""
    monkeypatch.setattr(checkers, "_BLOCK", block)
    cfg = CheckConfig(trials=trials, seed=7)
    reports = check_claims(MIXED, cfg)
    assert [r.json_line() for r in reports] == _one_at_a_time(MIXED, cfg)
    refuted = {c.target for c, r in zip(MIXED, reports) if r.found_violation}
    assert refuted == {"reciprocal", "lse", "logdet", "log1p"}
    assert reports[-4].property == "alpha-strong[alpha=0.5]" and reports[-4].found_violation


def test_no_claims_give_no_reports():
    assert check_claims([], CheckConfig(trials=10)) == []


def test_claims_on_one_cone_draw_each_block_once(monkeypatch):
    """Eight claims on the nonnegative half-line read x, y and z: the call
    draws what one check of them draws."""
    calls, sample = [], cones.sample_batch
    monkeypatch.setattr(cones, "sample_batch",
                        lambda *a, **kw: calls.append(a[2]) or sample(*a, **kw))
    monkeypatch.setattr(checkers, "_BLOCK", 1000)
    cfg = CheckConfig(trials=2500, seed=3)
    claims = [Claim(e, "strong-subadd") for e in (
        "affine-power", "one-minus-sqrt1p", "neg-xlogx-shift", "log1p", "neg-log-cosh",
        "e-minus-1px-pow", "one-minus-exp-neg", "sigmoid")]
    check_claims(claims, cfg)
    together = list(calls)
    calls.clear()
    check("log1p", "strong-subadd", cfg)
    # three roles, each in blocks of 1000, 1000 and 499 trials after the origin
    assert together == calls == [1000] * 3 + [1000] * 3 + [499] * 3


def test_an_entry_or_label_check_refuses_raises_before_any_trial_runs(monkeypatch):
    drawn = []
    monkeypatch.setattr(cones, "sample_batch", lambda *a, **kw: drawn.append(a) or 1 / 0)
    for bad, error in ((Claim("log1p", "no-such-label"), ParameterError),
                       (Claim("no-such-entry", "subadd"), UnknownEntryError)):
        with pytest.raises(error):
            check_claims([Claim("log1p", "subadd"), bad], CheckConfig(trials=50))
    with pytest.raises(CapabilityError, match="needs a vector cone"):
        check_claims([Claim("det", "second-diff-nonneg", dim=2), Claim("det", "submodular", dim=2)],
                     CheckConfig(trials=50))
    assert drawn == []


def test_a_row_that_cannot_stand_alone_is_refused_before_any_trial_runs(monkeypatch):
    """An origin condition reads only the origin, and the quadrature needs
    matrices: neither is a claim on its own, by ``check`` or among others."""
    drawn = []
    monkeypatch.setattr(cones, "sample_batch", lambda *a, **kw: drawn.append(a) or 1 / 0)
    cfg = CheckConfig(trials=50)
    for prop in ("origin-nonneg", "origin-nonpos"):
        with pytest.raises(ParameterError, match="origin condition"):
            check("log1p", prop, cfg)
        with pytest.raises(ParameterError, match="origin condition"):
            check_claims([Claim("log1p", "subadd"), Claim("log1p", prop)], cfg)
    with pytest.raises(CapabilityError, match="needs the PSD cone"):
        check("sq-norm", "gaussian-det-representation", cfg)
    with pytest.raises(CapabilityError, match="needs the PSD cone"):
        check_claims([Claim("det", "subadd", dim=2),
                      Claim("sq-norm", "gaussian-det-representation")], cfg)
    assert drawn == []


def test_claims_on_one_cone_peak_like_one_check():
    """Each claim's components are freed before the next claim's are
    evaluated, so eight claims at one block of trials peak under 1.5x the
    largest peak of their own checks (the components of all eight at once
    took 2.5 times as much)."""
    cfg = CheckConfig(trials=2 ** 14, seed=0)
    claims = [Claim(e, "strong-superadd") for e in (
        "half-sq-plus-log1p", "half-sq-minus-log1p", "half-sq-plus-sin", "half-sq-minus-sin",
        "half-sq-minus-cos", "x-gamma-minus-1")] + [Claim("log1p", "strong-subadd"),
                                                     Claim("sigmoid", "strong-subadd")]

    def peak(run):
        run()  # instantiate and warm every handle first
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = max(peak(lambda c=c: check(c.target, c.property, cfg)) for c in claims)
    assert peak(lambda: check_claims(claims, cfg)) < 1.5 * one


# ---------------------------------------------------------------------------
# the suite's criteria against their one-check-at-a-time loops
# ---------------------------------------------------------------------------


def _criterion_4_by_check(seed):
    checks = []
    claims = [(e.id, label.value)
              for label in (PropertyLabel.STRONG_SUBADD, PropertyLabel.STRONG_SUPERADD)
              for e in builtin_entries()
              if e.default_dim == 1 and e.labels.get(label) == SourceStatus.ASSERTED]
    for eid, prop in claims:
        worst, violated = math.inf, None
        for scale in SCALE_LADDER:
            rep = check(eid, prop, CheckConfig(trials=10000, scale=scale, seed=seed))
            worst = min(worst, rep.worst_margin)
            if rep.found_violation:
                violated = rep
                break
        detail = violated.to_json() if violated is not None else dict(
            worst_margin=worst, scales=list(SCALE_LADDER), trials=10000)
        checks.append(SubCheck(f"{eid} {prop} on the scale ladder", violated is None, detail))
    rep = check("reciprocal", "subadd", CheckConfig(trials=10000, seed=seed))
    checks.append(SubCheck("reciprocal subadd holds", not rep.found_violation, rep.to_json()))
    rep = check("reciprocal", "strong-subadd", CheckConfig(trials=10000, seed=seed))
    checks.append(SubCheck("reciprocal strong-subadd refuted with a witness",
                           rep.found_violation, rep.to_json()))
    return checks


def _criterion_5_by_check(seed):
    cfg = CheckConfig(trials=1000, seed=seed)
    named = [(f"det strong-superadd, order {n}", check("det", "strong-superadd", cfg, dim=n))
             for n in range(1, 6)]
    named += [(f"trace-pow {prop}, p={p}", check("trace-pow", prop, cfg, params={"p": p}, dim=3))
              for prop, powers in (("strong-subadd", (0.3, 0.7, 1.0)),
                                   ("strong-superadd", (1.0, 1.5, 2.0)))
              for p in powers]
    named += [(f"vn-entropy strong-subadd, order {n}",
               check("vn-entropy", "strong-subadd", cfg, dim=n)) for n in (1, 2, 3, 4)]
    named.append(("logdet second-diff-nonneg (as stated)",
                  check("logdet", "second-diff-nonneg", cfg, dim=3)))
    checks = [SubCheck(name, not rep.found_violation, rep.to_json()) for name, rep in named]
    # the Weyl sub-check draws nothing through check()
    return checks + [suite.criterion_5(seed).checks[-1]]


def _criterion_6_by_check(seed):
    checks = []
    for n in (2, 3):
        for p in (1.0, 1.5, 2.0):
            rep = check_popoviciu("det", power_fn(p), CheckConfig(trials=1000, seed=seed), dim=n)
            checks.append(SubCheck(f"three-point forms for det^{p}, order {n}",
                                   not rep.found_violation, rep.to_json()))
    return checks


def _criterion_7_by_check(seed):
    checks = []
    for eid in ("exp-neg-linear", "inv-power-product"):
        rep = check(eid, "completely-monotone", CheckConfig(trials=500, seed=seed))
        checks.append(SubCheck(f"{eid} completely monotone (K=5)", not rep.found_violation,
                               rep.to_json()))
    rep = refute("logistic-pow", "completely-monotone", CheckConfig(trials=10000, seed=seed),
                 params={"a": 1.0, "beta": 0.5})
    order_ok = rep.found_violation and rep.witness.expression.startswith("completely-monotone[k=")
    checks.append(SubCheck("logistic-pow beta=0.5 refuted at some order <= 5", order_ok,
                           rep.to_json()))
    for beta in (1.0, 2.0):
        rep = check("elem-sym-4-shifted", "strong-superadd", CheckConfig(trials=1000, seed=seed),
                    params={"beta": beta})
        checks.append(SubCheck(f"elem-sym-4-shifted strong-superadd, beta={beta}",
                               not rep.found_violation, rep.to_json()))
    return checks


def _criterion_8_by_check(seed):
    cfg = CheckConfig(trials=200, seed=seed)
    certs = [
        ("shannon-entropy certified by Hessian sign", "CERTIFIED_NUMERIC",
         certify_hessian_sign("shannon-entropy", "nonpos", cfg)),
        ("sq-norm certified by Hessian sign", "CERTIFIED_NUMERIC",
         certify_hessian_sign("sq-norm", "nonneg", cfg)),
        ("lse refused for Hessian sign", "REFUSED", certify_hessian_sign("lse", "nonpos", cfg)),
        ("lse certified Topkis-submodular", "CERTIFIED_NUMERIC",
         certify_topkis("lse", "submodular", cfg)),
        ("lp-power-norm certified by differential monotonicity", "CERTIFIED_NUMERIC",
         certify_differential_monotone("lp-power-norm", "nondecreasing", cfg)),
        ("det certified by differential monotonicity", "CERTIFIED_NUMERIC",
         certify_differential_monotone("det", "nondecreasing", cfg, dim=3)),
    ]
    checks = [SubCheck(name, cert.verdict == want, cert.to_json()) for name, want, cert in certs]
    for eid, prop, kw in (("shannon-entropy", "strong-subadd", {}),
                          ("sq-norm", "strong-superadd", {}),
                          ("lse", "submodular", {}),
                          ("lp-power-norm", "strong-superadd", {}),
                          ("det", "strong-superadd", {"dim": 3})):
        rep = check(eid, prop, CheckConfig(trials=1000, seed=seed), **kw)
        checks.append(SubCheck(f"coherence: {eid} {prop}", not rep.found_violation,
                               rep.to_json()))
    return checks


def _criterion_9_by_check(seed):
    checks = []
    for n in (1, 2):
        rep = check("det-shift-recip", "gaussian-det-representation",
                    CheckConfig(trials=10, seed=seed), dim=n)
        checks.append(SubCheck(f"Gaussian determinant representation, order {n}",
                               not rep.found_violation, rep.to_json()))
    return checks


def _criterion_10_by_check(seed):
    checks = []
    for eid, prop in (("half-sq-plus-cos", "superadd"), ("pairwise-diff-convex", "strong-subadd"),
                      ("jensen-gap", "strong-subadd")):
        rep = refute(eid, prop, CheckConfig(trials=10000, seed=seed))
        sound, reeval = False, None
        if rep.found_violation:
            reeval = reevaluate_witness(instantiate(eid), rep.witness)
            sound = reeval == rep.witness.margin
        detail = rep.to_json()
        detail["reevaluated_margin"] = reeval
        checks.append(SubCheck(f"{eid} {prop} refuted with a sound witness", sound, detail))
        if eid == "jensen-gap":
            ok = rep.witness is not None and abs(rep.witness.margin) >= 0.4
            checks.append(SubCheck("jensen-gap witness magnitude at least 0.4", ok, dict(
                margin=rep.witness.margin if rep.witness else None, floor=0.4)))
    return checks


BY_CHECK = {4: _criterion_4_by_check, 5: _criterion_5_by_check, 6: _criterion_6_by_check,
            7: _criterion_7_by_check, 8: _criterion_8_by_check, 9: _criterion_9_by_check,
            10: _criterion_10_by_check}


@pytest.mark.parametrize("cid", list(BY_CHECK), ids=[f"criterion_{k}" for k in BY_CHECK])
@pytest.mark.parametrize("seed", [0, 1])
def test_criteria_on_shared_draws_equal_their_per_claim_loops(cid, seed):
    got, want = suite.CRITERIA[cid - 1](seed).checks, BY_CHECK[cid](seed)
    assert [c.name for c in got] == [c.name for c in want]
    for g, w in zip(got, want):
        assert g.to_json() == w.to_json(), g.name
        assert type(g.passed) is bool, g.name


def test_check_rows_of_one_trial_count_run_as_one_call(monkeypatch):
    """Criterion 8's five coherence rows share one ``check_claims`` call,
    criterion 9's two quadrature rows another, and criterion 7's rows one
    call per trial count."""
    calls = []
    monkeypatch.setattr(suite, "check_claims", lambda claims, cfg: calls.append(
        (len(claims), cfg.trials)) or check_claims(claims, cfg))
    suite.criterion_8(0)
    assert calls == [(5, 1000)]
    calls.clear()
    suite.criterion_9(0)
    assert calls == [(2, 10)]
    calls.clear()
    suite.criterion_7(0)
    assert calls == [(2, 500), (2, 1000)]


# every criterion's sub-checks, in order
SUITE_NAMES = [
    ["geomean2 second difference at the printed witness",
     "geomean2 strong-subadd refuted within 1000 trials"],
    ["lse witness value matches the closed form", "lse witness value exceeds 0.379"],
    [f"squared-norm second-difference identity, dim {n}" for n in range(2, 7)],
    [f"{eid} strong-subadd on the scale ladder" for eid in (
        "affine-power", "one-minus-sqrt1p", "neg-xlogx-shift", "log1p", "neg-log-cosh",
        "e-minus-1px-pow", "one-minus-exp-neg", "sigmoid")]
    + [f"{eid} strong-superadd on the scale ladder" for eid in (
        "half-sq-plus-log1p", "half-sq-minus-log1p", "half-sq-plus-sin", "half-sq-minus-sin",
        "half-sq-minus-cos", "x-gamma-minus-1")]
    + ["reciprocal subadd holds", "reciprocal strong-subadd refuted with a witness"],
    [f"det strong-superadd, order {n}" for n in range(1, 6)]
    + [f"trace-pow strong-subadd, p={p}" for p in (0.3, 0.7, 1.0)]
    + [f"trace-pow strong-superadd, p={p}" for p in (1.0, 1.5, 2.0)]
    + [f"vn-entropy strong-subadd, order {n}" for n in range(1, 5)]
    + ["logdet second-diff-nonneg (as stated)",
       "Weyl monotonicity on 1000 constructed ordered pairs"],
    [f"three-point forms for det^{p}, order {n}" for n in (2, 3) for p in (1.0, 1.5, 2.0)],
    ["exp-neg-linear completely monotone (K=5)", "inv-power-product completely monotone (K=5)",
     "logistic-pow beta=0.5 refuted at some order <= 5",
     "elem-sym-4-shifted strong-superadd, beta=1.0",
     "elem-sym-4-shifted strong-superadd, beta=2.0"],
    ["shannon-entropy certified by Hessian sign", "sq-norm certified by Hessian sign",
     "lse refused for Hessian sign", "lse certified Topkis-submodular",
     "lp-power-norm certified by differential monotonicity",
     "det certified by differential monotonicity"]
    + [f"coherence: {claim}" for claim in (
        "shannon-entropy strong-subadd", "sq-norm strong-superadd", "lse submodular",
        "lp-power-norm strong-superadd", "det strong-superadd")],
    [f"Gaussian determinant representation, order {n}" for n in (1, 2)],
    ["half-sq-plus-cos superadd refuted with a sound witness",
     "pairwise-diff-convex strong-subadd refuted with a sound witness",
     "jensen-gap strong-subadd refuted with a sound witness",
     "jensen-gap witness magnitude at least 0.4"],
    ["seeded replay reproduces the serialized report"],
]


def test_each_criterion_names_its_sub_checks_in_order():
    """The manifest's 71 sub-checks keep their names and order at seed 0."""
    results = suite.run_all(0)
    assert [r.cid for r in results] == list(range(1, 12))
    assert [[c.name for c in r.checks] for r in results] == SUITE_NAMES
    assert [len(names) for names in SUITE_NAMES] == [2, 2, 5, 16, 17, 6, 5, 11, 2, 4, 1]
