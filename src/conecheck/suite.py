"""The acceptance suite: every exit criterion as an executable runner.

Each criterion returns a :class:`CriterionResult` with named sub-checks, so
the CLI's ``suite`` command and the test suite share one implementation.
Results are fully deterministic for a fixed seed; wall-clock measurements
are intentionally kept out of the result structures so replayed manifests
are byte-identical.

Criteria 1, 4, 5 and 7 to 10 hold tables of claims, one :class:`_Row` per
sub-check: its name, the mode of its claim (``check``, ``refute`` or a
certificate method) with its target, argument, trials, params and dim, and
the verdict it must give.  A ``check`` or ``refute`` row's argument is a
property label or a form-table expression, a certificate row's its sign,
mode or direction.  To add a claim, add a row to its criterion's table.
:func:`_run` gives each row its sub-check in order, the row's report as
detail; the rows that share a trial count run as one :func:`check_claims`.
Criterion 6 runs the three-point check, which is not a claim, and criteria
2, 3 and 11 and the Weyl pairs of criterion 5 check printed numbers or
build their own inputs.

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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import __version__, cones
from .catalog import PropertyLabel, SourceStatus, builtin_entries, instantiate
from .certify import (  # perfbench's traced worker wraps the certify_* functions here
    CERTIFIED,
    REFUSED,
    certify_differential_monotone,
    certify_hessian_sign,
    certify_topkis,
)
from .checkers import (
    NO_VIOLATION,
    SCALE_LADDER,
    VIOLATION,
    CheckConfig,
    Claim,
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


class _Row(NamedTuple):
    """Sub-check ``name`` passes when the report of ``Claim(target, arg,
    params, dim, mode)`` at ``trials`` trials reads the verdict ``want``."""

    name: str
    mode: str  # check, refute or a certificate method
    target: object
    arg: object  # a label or expression, or a certificate's sign, mode or direction
    trials: int
    params: dict | None = None
    dim: int | None = None
    want: str = NO_VIOLATION


def _reports(rows, cfg: CheckConfig) -> list:
    """Each row's report at ``cfg`` and the row's trials, in row order; the
    rows that share a trial count run as one :func:`check_claims`, so rows
    on one cone with equal rungs share their draws."""
    out, shared = [None] * len(rows), {}
    for i, row in enumerate(rows):
        shared.setdefault(row.trials, []).append(i)
    for trials, members in shared.items():
        claims = [Claim(rows[i].target, rows[i].arg, rows[i].params, rows[i].dim, rows[i].mode)
                  for i in members]
        for i, rep in zip(members, check_claims(claims, replace(cfg, trials=trials))):
            out[i] = rep
    return out


def _run(rows, seed: int) -> list[SubCheck]:
    """The rows' sub-checks at ``seed``, each with its report as detail."""
    return [SubCheck(row.name, rep.verdict == row.want, rep.to_json())
            for row, rep in zip(rows, _reports(rows, CheckConfig(seed=seed)))]


def criterion_1(seed: int) -> CriterionResult:
    """Bivariate geometric mean: the printed second-difference value and a
    refutation of its strong subadditivity within 1000 trials."""
    handle = instantiate("geomean2")
    val = second_diff(handle, Point.vector([1.0 / 3.0, 1.0 / 3.0]),
                      Point.vector([1.0 / 3.0, 2.0 / 3.0]), Point.vector([0.0, 0.0]))
    c1 = SubCheck("geomean2 second difference at the printed witness",
                  abs(val - GEOMEAN_SECOND_DIFF) <= 1e-9,
                  dict(value=val, expected=GEOMEAN_SECOND_DIFF, tol=1e-9))
    c2, = _run([_Row("geomean2 strong-subadd refuted within 1000 trials", "refute", "geomean2",
                     "strong-subadd", 1000, want=VIOLATION)], seed)
    return CriterionResult(1, "geometric-mean counterexample", (c1, c2))


def criterion_2(seed: int) -> CriterionResult:
    """The four printed log-sum-exp evaluations combine to
    1 - log((1+e)/2), strictly above 0.379."""
    handle = instantiate("lse", dim=2)
    pts = [Point.vector(p) for p in ((2.0, 3.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0))]
    vals = [handle(p) for p in pts]
    combo = (vals[0] + vals[1]) - (vals[2] + vals[3])
    closed = 1.0 - math.log((1.0 + math.e) / 2.0)
    c1 = SubCheck("lse witness value matches the closed form", abs(combo - closed) <= 1e-12,
                  dict(value=combo, closed_form=closed, tol=1e-12))
    c2 = SubCheck("lse witness value exceeds 0.379", combo > LSE_WITNESS_VALUE_FLOOR,
                  dict(value=combo, floor=LSE_WITNESS_VALUE_FLOOR))
    return CriterionResult(2, "log-sum-exp counterexample value", (c1, c2))


def criterion_3(seed: int) -> CriterionResult:
    """Second differences of the squared norm equal 2<x,y> to 1e-9 over
    1000 random triples for each dimension 2..6."""
    checks = []
    for n in range(2, 7):
        handle = instantiate("sq-norm", dim=n)
        # at the checks' default scale and boundary probability
        x, y, z = (cones.sample_batch(handle.domain, Rng(seed, stream + n), 1000)
                   for stream in (100, 200, 300))
        sd, _ = _second_diff(handle, {"x": x, "y": y, "z": z})
        dev = float(np.max(np.abs(sd - 2.0 * rowwise(np.add, x * y))))
        checks.append(SubCheck(f"squared-norm second-difference identity, dim {n}",
                               dev <= 1e-9, dict(max_deviation=dev, tol=1e-9)))
    return CriterionResult(3, "squared-norm bilinear identity", tuple(checks))


def criterion_4(seed: int) -> CriterionResult:
    """Every asserted scalar strong entry passes 10000-trial checks on the
    scale ladder; the reciprocal control passes subadd and fails the strong
    form with a witness."""
    ladder = [_Row(f"{e.id} {label.value} on the scale ladder", "check", e.id, label.value, 10000)
              for label in (PropertyLabel.STRONG_SUBADD, PropertyLabel.STRONG_SUPERADD)
              for e in builtin_entries()
              if e.default_dim == 1 and e.labels.get(label) == SourceStatus.ASSERTED]
    worst = [math.inf] * len(ladder)
    violated = [None] * len(ladder)
    for scale in SCALE_LADDER:
        live = [i for i, rep in enumerate(violated) if rep is None]
        cfg = CheckConfig(scale=scale, seed=seed)
        for i, rep in zip(live, _reports([ladder[i] for i in live], cfg)):
            worst[i] = min(worst[i], rep.worst_margin)
            if rep.found_violation:
                violated[i] = rep
    checks = [SubCheck(row.name, rep is None, rep.to_json() if rep is not None else dict(
                  worst_margin=low, scales=list(SCALE_LADDER), trials=row.trials))
              for row, low, rep in zip(ladder, worst, violated)]
    checks += _run([
        _Row("reciprocal subadd holds", "check", "reciprocal", "subadd", 10000),
        _Row("reciprocal strong-subadd refuted with a witness", "check", "reciprocal",
             "strong-subadd", 10000, want=VIOLATION),
    ], seed)
    return CriterionResult(4, "scalar catalog suite", tuple(checks))


def criterion_5(seed: int) -> CriterionResult:
    """Matrix suite: determinant, trace powers, entropy, logdet (as stated),
    and Weyl monotonicity on constructed ordered pairs."""
    rows = [_Row(f"det strong-superadd, order {n}", "check", "det", "strong-superadd", 1000, dim=n)
            for n in range(1, 6)]
    rows += [_Row(f"trace-pow {prop}, p={p}", "check", "trace-pow", prop, 1000, {"p": p}, 3)
             for prop, powers in (("strong-subadd", (0.3, 0.7, 1.0)),
                                  ("strong-superadd", (1.0, 1.5, 2.0)))
             for p in powers]
    rows += [_Row(f"vn-entropy strong-subadd, order {n}", "check", "vn-entropy", "strong-subadd",
                  1000, dim=n) for n in (1, 2, 3, 4)]
    # stated as nonnegative second differences; mathematically the sign is
    # the opposite, so this sub-check reports an honest failure
    rows.append(_Row("logdet second-diff-nonneg (as stated)", "check", "logdet",
                     "second-diff-nonneg", 1000, dim=3))
    checks = _run(rows, seed)

    cone = cones.psd_cone(4)
    a = cones.sample_batch(cone, Rng(seed, 400), 1000)
    b = a + cones.sample_batch(cone, Rng(seed, 401), 1000)
    ordered = np.linalg.eigvalsh(a) <= np.linalg.eigvalsh(b) + 1e-9
    bad = np.flatnonzero(~rowwise(np.logical_and, ordered))
    failing_pair = (a[bad[0]].tolist(), b[bad[0]].tolist()) if bad.size else None
    checks.append(SubCheck("Weyl monotonicity on 1000 constructed ordered pairs",
                           failing_pair is None, dict(pairs=1000, failing_pair=failing_pair)))
    return CriterionResult(5, "matrix suite", tuple(checks))


def criterion_6(seed: int) -> CriterionResult:
    """Both three-point forms for det composed with t^p: the one sub-check
    that is not a claim, so it calls :func:`check_popoviciu` itself."""
    checks = []
    for n in (2, 3):
        for p in (1.0, 1.5, 2.0):
            rep = check_popoviciu("det", power_fn(p), CheckConfig(trials=1000, seed=seed), dim=n)
            checks.append(SubCheck(f"three-point forms for det^{p}, order {n}",
                                   rep.verdict == NO_VIOLATION, rep.to_json()))
    return CriterionResult(6, "three-point determinant inequality", tuple(checks))


def criterion_7(seed: int) -> CriterionResult:
    """Complete monotonicity: two passing families, the non-integer
    logistic power refuted at some order <= 5, and the shifted elementary
    symmetric rule strongly superadditive."""
    rows = [
        _Row("exp-neg-linear completely monotone (K=5)", "check", "exp-neg-linear",
             "completely-monotone", 500),
        _Row("inv-power-product completely monotone (K=5)", "check", "inv-power-product",
             "completely-monotone", 500),
        _Row("logistic-pow beta=0.5 refuted at some order <= 5", "refute", "logistic-pow",
             "completely-monotone", 10000, {"a": 1.0, "beta": 0.5}, want=VIOLATION),
    ]
    rows += [_Row(f"elem-sym-4-shifted strong-superadd, beta={beta}", "check",
                  "elem-sym-4-shifted", "strong-superadd", 1000, {"beta": beta})
             for beta in (1.0, 2.0)]
    checks = _run(rows, seed)
    # the refutation, row 2, must come from an order of the form, not the origin
    order = checks[2]
    checks[2] = replace(order, passed=order.passed and order.detail["witness"][
        "expression"].startswith("completely-monotone[k="))
    return CriterionResult(7, "complete monotonicity suite", tuple(checks))


def criterion_8(seed: int) -> CriterionResult:
    """Certificates plus certificate/checker coherence."""
    rows = [
        _Row("shannon-entropy certified by Hessian sign", "hessian-sign",
             "shannon-entropy", "nonpos", 200, want=CERTIFIED),
        _Row("sq-norm certified by Hessian sign", "hessian-sign", "sq-norm", "nonneg", 200,
             want=CERTIFIED),
        _Row("lse refused for Hessian sign", "hessian-sign", "lse", "nonpos", 200,
             want=REFUSED),
        _Row("lse certified Topkis-submodular", "topkis", "lse", "submodular", 200,
             want=CERTIFIED),
        _Row("lp-power-norm certified by differential monotonicity",
             "diff-monotone", "lp-power-norm", "nondecreasing", 200, want=CERTIFIED),
        _Row("det certified by differential monotonicity", "diff-monotone", "det",
             "nondecreasing", 200, dim=3, want=CERTIFIED),
    ]
    rows += [_Row(f"coherence: {eid} {prop}", "check", eid, prop, 1000, dim=dim)
             for eid, prop, dim in (("shannon-entropy", "strong-subadd", None),
                                    ("sq-norm", "strong-superadd", None),
                                    ("lse", "submodular", None),
                                    ("lp-power-norm", "strong-superadd", None),
                                    ("det", "strong-superadd", 3))]
    return CriterionResult(8, "certificates and coherence", tuple(_run(rows, seed)))


def criterion_9(seed: int) -> CriterionResult:
    """Quadrature vs eigenvalue formula for the square-root reciprocal
    determinant representation, 20 matrices of order at most 2: the
    ``gaussian-det-representation`` expression, which reads no value of its
    handle, on the PSD cone of ``det-shift-recip`` at its default beta 1/2."""
    rows = [_Row(f"Gaussian determinant representation, order {n}", "check", "det-shift-recip",
                 "gaussian-det-representation", 10, dim=n) for n in (1, 2)]
    return CriterionResult(9, "Gaussian determinant representation", tuple(_run(rows, seed)))


def criterion_10(seed: int) -> CriterionResult:
    """The refuted-candidate claims all produce sound witnesses, whose
    re-evaluated margin equals the stored one exactly; the Jensen gap
    witness has magnitude at least 0.4."""
    rows = [_Row(f"{eid} {prop} refuted with a sound witness", "refute", eid, prop, 10000,
                 want=VIOLATION)
            for eid, prop in (("half-sq-plus-cos", "superadd"),
                              ("pairwise-diff-convex", "strong-subadd"),
                              ("jensen-gap", "strong-subadd"))]
    checks = []
    for row, rep in zip(rows, _reports(rows, CheckConfig(seed=seed))):
        handle = instantiate(row.target, row.params, row.dim)
        reeval = reevaluate_witness(handle, rep.witness) if rep.found_violation else None
        sound = rep.verdict == row.want and reeval == rep.witness.margin
        checks.append(SubCheck(row.name, sound, dict(rep.to_json(), reevaluated_margin=reeval)))
        if row.target == "jensen-gap":
            margin = rep.witness.margin if rep.witness else None
            checks.append(SubCheck("jensen-gap witness magnitude at least 0.4",
                                   margin is not None and abs(margin) >= 0.4,
                                   dict(margin=margin, floor=0.4)))
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
