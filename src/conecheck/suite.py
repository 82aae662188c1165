"""The acceptance suite: every exit criterion as an executable runner.

Each criterion returns a :class:`CriterionResult` with named sub-checks, so
the CLI's ``suite`` command and the test suite share one implementation.
Results are fully deterministic for a fixed seed; wall-clock measurements
are intentionally kept out of the result structures so replayed manifests
are byte-identical.

Criterion 5 contains one sub-check that is expected to fail: the claimed
nonnegative second differences of ``logdet``.  The claim is refuted by
A = B = C = I (log det is concave with an antitone differential, so its
second differences are nonpositive).  The sub-check is kept as stated, and
its failure is reported honestly rather than silently inverted; the
catalog carries the corrected sign as a separate label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__, cones
from .catalog import PropertyLabel, SourceStatus, builtin_entries, instantiate
from .certify import (
    Certificate,
    certify_differential_monotone,
    certify_hessian_sign,
    certify_topkis,
    gaussian_detcert_check,
)
from .checkers import (
    SCALE_LADDER,
    CheckConfig,
    CheckReport,
    Claim,
    check,
    check_claims,
    check_popoviciu,
    refute,
    reevaluate_witness,
)
from .cones import Point, Rng
from .diffops import _second_diff, second_diff
from .numkernel import power_fn, rowwise

GEOMEAN_SECOND_DIFF = 0.0117587268
LSE_WITNESS_VALUE_FLOOR = 0.379


@dataclass(frozen=True)
class SubCheck:
    name: str
    passed: bool
    detail: dict

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "criterion": self.cid,
            "title": self.title,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _from_report(name: str, rep: CheckReport, want_violation: bool = False) -> SubCheck:
    ok = rep.found_violation if want_violation else not rep.found_violation
    return SubCheck(name, ok, rep.to_json())


def _from_cert(name: str, cert: Certificate, want: str = "CERTIFIED_NUMERIC") -> SubCheck:
    return SubCheck(name, cert.verdict == want, cert.to_json())


def criterion_1(seed: int) -> CriterionResult:
    """Bivariate geometric mean: the printed second-difference value and a
    refutation of its strong subadditivity within 1000 trials."""
    handle = instantiate("geomean2")
    val = second_diff(
        handle,
        Point.vector([1.0 / 3.0, 1.0 / 3.0]),
        Point.vector([1.0 / 3.0, 2.0 / 3.0]),
        Point.vector([0.0, 0.0]),
    )
    c1 = SubCheck(
        "geomean2 second difference at the printed witness",
        abs(val - GEOMEAN_SECOND_DIFF) <= 1e-9,
        dict(value=val, expected=GEOMEAN_SECOND_DIFF, tol=1e-9),
    )
    rep = refute("geomean2", "strong-subadd", CheckConfig(trials=1000, seed=seed))
    c2 = _from_report("geomean2 strong-subadd refuted within 1000 trials", rep, want_violation=True)
    return CriterionResult(1, "geometric-mean counterexample", (c1, c2))


def criterion_2(seed: int) -> CriterionResult:
    """The four printed log-sum-exp evaluations combine to
    1 - log((1+e)/2), strictly above 0.379."""
    handle = instantiate("lse", dim=2)
    pts = [Point.vector(p) for p in ((2.0, 3.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0))]
    vals = [handle(p) for p in pts]
    combo = (vals[0] + vals[1]) - (vals[2] + vals[3])
    closed = 1.0 - math.log((1.0 + math.e) / 2.0)
    c1 = SubCheck(
        "lse witness value matches the closed form",
        abs(combo - closed) <= 1e-12,
        dict(value=combo, closed_form=closed, tol=1e-12),
    )
    c2 = SubCheck(
        "lse witness value exceeds 0.379",
        combo > LSE_WITNESS_VALUE_FLOOR,
        dict(value=combo, floor=LSE_WITNESS_VALUE_FLOOR),
    )
    return CriterionResult(2, "log-sum-exp counterexample value", (c1, c2))


def criterion_3(seed: int) -> CriterionResult:
    """Second differences of the squared norm equal 2<x,y> to 1e-9 over
    1000 random triples for each dimension 2..6."""
    checks = []
    for n in range(2, 7):
        handle = instantiate("sq-norm", dim=n)
        cone = handle.domain
        cfg = CheckConfig(trials=1000, seed=seed)
        x = cones.sample_batch(cone, Rng(seed, 100 + n), 1000, cfg.scale, cfg.boundary_prob)
        y = cones.sample_batch(cone, Rng(seed, 200 + n), 1000, cfg.scale, cfg.boundary_prob)
        z = cones.sample_batch(cone, Rng(seed, 300 + n), 1000, cfg.scale, cfg.boundary_prob)
        sd, _ = _second_diff(handle, {"x": x, "y": y, "z": z})
        dev = float(np.max(np.abs(sd - 2.0 * rowwise(np.add, x * y))))
        checks.append(
            SubCheck(
                f"squared-norm second-difference identity, dim {n}",
                dev <= 1e-9,
                dict(max_deviation=dev, tol=1e-9),
            )
        )
    return CriterionResult(3, "squared-norm bilinear identity", tuple(checks))


def criterion_4(seed: int) -> CriterionResult:
    """Every asserted scalar strong entry passes 10000-trial checks on the
    scale ladder; the reciprocal control passes subadd and fails the strong
    form with a witness."""
    checks = []
    claims = [Claim(e.id, label.value)
              for label in (PropertyLabel.STRONG_SUBADD, PropertyLabel.STRONG_SUPERADD)
              for e in builtin_entries()
              if e.default_dim == 1 and e.labels.get(label) == SourceStatus.ASSERTED]
    worst = [math.inf] * len(claims)
    violated = [None] * len(claims)
    for scale in SCALE_LADDER:
        live = [i for i, rep in enumerate(violated) if rep is None]
        cfg = CheckConfig(trials=10000, scale=scale, seed=seed)
        for i, rep in zip(live, check_claims([claims[i] for i in live], cfg)):
            worst[i] = min(worst[i], rep.worst_margin)
            if rep.found_violation:
                violated[i] = rep
    for claim, low, rep in zip(claims, worst, violated):
        detail = rep.to_json() if rep is not None else dict(
            worst_margin=low, scales=list(SCALE_LADDER), trials=10000)
        checks.append(SubCheck(f"{claim.target} {claim.property} on the scale ladder",
                               rep is None, detail))
    subadd, strong = check_claims([Claim("reciprocal", "subadd"),
                                   Claim("reciprocal", "strong-subadd")],
                                  CheckConfig(trials=10000, seed=seed))
    checks.append(_from_report("reciprocal subadd holds", subadd))
    checks.append(_from_report("reciprocal strong-subadd refuted with a witness", strong,
                               want_violation=True))
    return CriterionResult(4, "scalar catalog suite", tuple(checks))


def criterion_5(seed: int) -> CriterionResult:
    """Matrix suite: determinant, trace powers, entropy, logdet (as stated),
    and Weyl monotonicity on constructed ordered pairs."""
    named = [(f"det strong-superadd, order {n}", Claim("det", "strong-superadd", dim=n))
             for n in range(1, 6)]
    named += [(f"trace-pow {prop}, p={p}", Claim("trace-pow", prop, {"p": p}, 3))
              for prop, powers in (("strong-subadd", (0.3, 0.7, 1.0)),
                                   ("strong-superadd", (1.0, 1.5, 2.0)))
              for p in powers]
    named += [(f"vn-entropy strong-subadd, order {n}", Claim("vn-entropy", "strong-subadd", dim=n))
              for n in (1, 2, 3, 4)]
    # stated as nonnegative second differences; mathematically the sign is
    # the opposite, so this sub-check reports an honest failure
    named.append(("logdet second-diff-nonneg (as stated)",
                  Claim("logdet", "second-diff-nonneg", dim=3)))
    reports = check_claims([claim for _, claim in named], CheckConfig(trials=1000, seed=seed))
    checks = [_from_report(name, rep) for (name, _), rep in zip(named, reports)]

    cone = cones.psd_cone(4)
    a = cones.sample_batch(cone, Rng(seed, 400), 1000)
    b = a + cones.sample_batch(cone, Rng(seed, 401), 1000)
    ordered = np.linalg.eigvalsh(a) <= np.linalg.eigvalsh(b) + 1e-9
    bad = np.flatnonzero(~rowwise(np.logical_and, ordered))
    failing_pair = (a[bad[0]].tolist(), b[bad[0]].tolist()) if bad.size else None
    checks.append(
        SubCheck(
            "Weyl monotonicity on 1000 constructed ordered pairs",
            failing_pair is None,
            dict(pairs=1000, failing_pair=failing_pair),
        )
    )
    return CriterionResult(5, "matrix suite", tuple(checks))


def criterion_6(seed: int) -> CriterionResult:
    """Both three-point forms for det composed with t^p."""
    checks = []
    for n in (2, 3):
        for p in (1.0, 1.5, 2.0):
            rep = check_popoviciu(
                "det", power_fn(p), CheckConfig(trials=1000, seed=seed), dim=n
            )
            checks.append(_from_report(f"three-point forms for det^{p}, order {n}", rep))
    return CriterionResult(6, "three-point determinant inequality", tuple(checks))


def criterion_7(seed: int) -> CriterionResult:
    """Complete monotonicity: two passing families, the non-integer
    logistic power refuted at some order <= 5, and the shifted elementary
    symmetric rule strongly superadditive."""
    checks = []
    rep = check("exp-neg-linear", "completely-monotone", CheckConfig(trials=500, seed=seed))
    checks.append(_from_report("exp-neg-linear completely monotone (K=5)", rep))
    rep = check("inv-power-product", "completely-monotone", CheckConfig(trials=500, seed=seed))
    checks.append(_from_report("inv-power-product completely monotone (K=5)", rep))
    rep = refute(
        "logistic-pow", "completely-monotone", CheckConfig(trials=10000, seed=seed),
        params={"a": 1.0, "beta": 0.5},
    )
    order_ok = rep.found_violation and rep.witness.expression.startswith("completely-monotone[k=")
    checks.append(SubCheck("logistic-pow beta=0.5 refuted at some order <= 5", order_ok,
                           rep.to_json()))
    betas = (1.0, 2.0)
    reports = check_claims([Claim("elem-sym-4-shifted", "strong-superadd", {"beta": beta})
                            for beta in betas], CheckConfig(trials=1000, seed=seed))
    for beta, rep in zip(betas, reports):
        checks.append(_from_report(f"elem-sym-4-shifted strong-superadd, beta={beta}", rep))
    return CriterionResult(7, "complete monotonicity suite", tuple(checks))


def criterion_8(seed: int) -> CriterionResult:
    """Certificates plus certificate/checker coherence."""
    cfg = CheckConfig(trials=200, seed=seed)
    checks = [
        _from_cert("shannon-entropy certified by Hessian sign",
                   certify_hessian_sign("shannon-entropy", "nonpos", cfg)),
        _from_cert("sq-norm certified by Hessian sign",
                   certify_hessian_sign("sq-norm", "nonneg", cfg)),
        _from_cert("lse refused for Hessian sign",
                   certify_hessian_sign("lse", "nonpos", cfg), want="REFUSED"),
        _from_cert("lse certified Topkis-submodular",
                   certify_topkis("lse", "submodular", cfg)),
        _from_cert("lp-power-norm certified by differential monotonicity",
                   certify_differential_monotone("lp-power-norm", "nondecreasing", cfg)),
        _from_cert("det certified by differential monotonicity",
                   certify_differential_monotone("det", "nondecreasing", cfg, dim=3)),
    ]
    coherence = [
        ("shannon-entropy", "strong-subadd", {}),
        ("sq-norm", "strong-superadd", {}),
        ("lse", "submodular", {}),
        ("lp-power-norm", "strong-superadd", {}),
        ("det", "strong-superadd", {"dim": 3}),
    ]
    for eid, prop, kw in coherence:
        rep = check(eid, prop, CheckConfig(trials=1000, seed=seed), **kw)
        checks.append(_from_report(f"coherence: {eid} {prop}", rep))
    return CriterionResult(8, "certificates and coherence", tuple(checks))


def criterion_9(seed: int) -> CriterionResult:
    """Quadrature vs eigenvalue formula for the square-root reciprocal
    determinant representation, 20 matrices of order at most 2."""
    checks = []
    for n, trials in ((1, 10), (2, 10)):
        rep = gaussian_detcert_check(n, CheckConfig(trials=trials, seed=seed))
        checks.append(
            _from_report(f"Gaussian determinant representation, order {n}", rep)
        )
    return CriterionResult(9, "Gaussian determinant representation", tuple(checks))


def criterion_10(seed: int) -> CriterionResult:
    """The refuted-candidate claims all produce sound witnesses, whose
    re-evaluated margin equals the stored one exactly; the Jensen gap
    witness has magnitude at least 0.4."""
    checks = []
    targets = [
        ("half-sq-plus-cos", "superadd", None, None),
        ("pairwise-diff-convex", "strong-subadd", None, None),
        ("jensen-gap", "strong-subadd", None, None),
    ]
    for eid, prop, params, dim in targets:
        rep = refute(eid, prop, CheckConfig(trials=10000, seed=seed), params=params, dim=dim)
        sound = False
        reeval = None
        if rep.found_violation:
            handle = instantiate(eid, params, dim)
            reeval = reevaluate_witness(handle, rep.witness)
            sound = reeval == rep.witness.margin
        detail = rep.to_json()
        detail["reevaluated_margin"] = reeval
        checks.append(SubCheck(f"{eid} {prop} refuted with a sound witness", sound, detail))
        if eid == "jensen-gap":
            ok = rep.witness is not None and abs(rep.witness.margin) >= 0.4
            checks.append(
                SubCheck(
                    "jensen-gap witness magnitude at least 0.4",
                    ok,
                    dict(margin=rep.witness.margin if rep.witness else None, floor=0.4),
                )
            )
    return CriterionResult(10, "refuted-candidate witnesses", tuple(checks))


def criterion_11(seed: int) -> CriterionResult:
    """In-run replay probe: re-running a representative seeded check
    reproduces its serialized report byte for byte.  The full double-run
    comparison of two manifests lives in the acceptance tests."""
    first = refute("geomean2", "strong-subadd", CheckConfig(trials=500, seed=seed)).json_line()
    second = refute("geomean2", "strong-subadd", CheckConfig(trials=500, seed=seed)).json_line()
    return CriterionResult(
        11,
        "determinism replay probe",
        (
            SubCheck(
                "seeded replay reproduces the serialized report",
                first == second,
                dict(bytes=len(first.encode())),
            ),
        ),
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all(seed: int = 0) -> list[CriterionResult]:
    return [fn(seed) for fn in CRITERIA]


def build_manifest(seed: int = 0, command: str = "suite") -> dict:
    """Deterministic run manifest: command, seed, version, per-criterion
    results.  Wall time is deliberately excluded so equal-seed runs are
    byte-identical."""
    results = run_all(seed)
    return {
        "command": command,
        "seed": seed,
        "version": __version__,
        "criteria": [r.to_json() for r in results],
        "passed": all(r.passed for r in results),
    }


def manifest_bytes(manifest: dict) -> bytes:
    return (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode()
