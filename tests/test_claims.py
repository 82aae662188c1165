"""Claims checked together: ``check_claims`` draws each block of a role once
for every claim on one cone and gives each claim the report of its own
``check``."""

import math
import tracemalloc

import numpy as np
import pytest

from conecheck import checkers, cones, suite
from conecheck.catalog import PropertyLabel, SourceStatus, builtin_entries
from conecheck.checkers import SCALE_LADDER, CheckConfig, Claim, check, check_claims, refute
from conecheck.cones import nonneg_orthant
from conecheck.diffops import FunctionHandle
from conecheck.errors import CapabilityError, ParameterError, UnknownEntryError
from conecheck.suite import SubCheck, _from_report

# 1 - exp(-t) on the nonnegative half-line, as a handle made by hand
_ONE_MINUS_EXP = FunctionHandle("one-minus-exp", nonneg_orthant(1),
                                lambda r: -np.expm1(-r[:, 0]))

# claims on seven cones, with and without an origin block; the lse rows with
# an origin block share their draws, and read x as the comonotone pair's and
# as a boundary draw
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
]


def _one_at_a_time(claims, cfg):
    return [check(c.target, c.property, cfg, params=c.params, dim=c.dim).json_line()
            for c in claims]


@pytest.mark.parametrize("trials,block", [(1500, 2 ** 14), (1500, 400), (2 ** 14 + 3, 2 ** 14)])
def test_each_claim_gets_the_bytes_of_its_own_check(monkeypatch, trials, block):
    """Mixed cones, origin blocks, completely-monotone orders, a shrunk
    witness, a hand-made handle and a repeated claim, over one block or
    several: every report is the one ``check`` writes."""
    monkeypatch.setattr(checkers, "_BLOCK", block)
    cfg = CheckConfig(trials=trials, seed=7)
    reports = check_claims(MIXED, cfg)
    assert [r.json_line() for r in reports] == _one_at_a_time(MIXED, cfg)
    refuted = {c.target for c, r in zip(MIXED, reports) if r.found_violation}
    assert refuted == {"reciprocal", "lse", "logdet"}


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
    checks.append(_from_report("reciprocal subadd holds", rep))
    rep = check("reciprocal", "strong-subadd", CheckConfig(trials=10000, seed=seed))
    checks.append(_from_report("reciprocal strong-subadd refuted with a witness", rep,
                               want_violation=True))
    return checks


def _criterion_5_by_check(seed):
    checks = []
    cfg = CheckConfig(trials=1000, seed=seed)
    for n in range(1, 6):
        checks.append(_from_report(f"det strong-superadd, order {n}",
                                   check("det", "strong-superadd", cfg, dim=n)))
    for prop, powers in (("strong-subadd", (0.3, 0.7, 1.0)), ("strong-superadd", (1.0, 1.5, 2.0))):
        for p in powers:
            checks.append(_from_report(f"trace-pow {prop}, p={p}",
                                       check("trace-pow", prop, cfg, params={"p": p}, dim=3)))
    for n in (1, 2, 3, 4):
        checks.append(_from_report(f"vn-entropy strong-subadd, order {n}",
                                   check("vn-entropy", "strong-subadd", cfg, dim=n)))
    checks.append(_from_report("logdet second-diff-nonneg (as stated)",
                               check("logdet", "second-diff-nonneg", cfg, dim=3)))
    # the Weyl sub-check draws nothing through check()
    return checks + [suite.criterion_5(seed).checks[-1]]


def _criterion_7_by_check(seed):
    cfg = CheckConfig(trials=1000, seed=seed)
    checks = [
        _from_report("exp-neg-linear completely monotone (K=5)",
                     check("exp-neg-linear", "completely-monotone",
                           CheckConfig(trials=500, seed=seed))),
        _from_report("inv-power-product completely monotone (K=5)",
                     check("inv-power-product", "completely-monotone",
                           CheckConfig(trials=500, seed=seed))),
    ]
    rep = refute("logistic-pow", "completely-monotone", CheckConfig(trials=10000, seed=seed),
                 params={"a": 1.0, "beta": 0.5})
    order_ok = rep.found_violation and rep.witness.expression.startswith("completely-monotone[k=")
    checks.append(SubCheck("logistic-pow beta=0.5 refuted at some order <= 5", order_ok,
                           rep.to_json()))
    for beta in (1.0, 2.0):
        rep = check("elem-sym-4-shifted", "strong-superadd", cfg, params={"beta": beta})
        checks.append(_from_report(f"elem-sym-4-shifted strong-superadd, beta={beta}", rep))
    return checks


@pytest.mark.parametrize("criterion,by_check", [
    (suite.criterion_4, _criterion_4_by_check),
    (suite.criterion_5, _criterion_5_by_check),
    (suite.criterion_7, _criterion_7_by_check),
], ids=["criterion_4", "criterion_5", "criterion_7"])
@pytest.mark.parametrize("seed", [0, 1])
def test_criteria_on_shared_draws_equal_their_per_claim_loops(criterion, by_check, seed):
    got, want = criterion(seed).checks, by_check(seed)
    assert [c.name for c in got] == [c.name for c in want]
    for g, w in zip(got, want):
        assert g.to_json() == w.to_json(), g.name
