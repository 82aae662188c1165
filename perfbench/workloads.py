"""The benchmark's workloads: job lists, seed lists, warm-up and judging.

A round is one pass over a workload's job list at one seed.  The seed lists
are fixed, so every run attempts the same operations and the known-fault
failures (off-cone witnesses after shrinking) recur at the same places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import judge
from conecheck import catalog, certify, checkers, cones, suite
from conecheck.checkers import CheckConfig
from conecheck.cones import Rng
from conecheck.errors import ConeCheckError

CHECK_SEEDS = (0, 1, 2)
REFUTE_SEEDS = tuple(range(10))
SUITE_SEEDS = (0, 1, 2, 3)
REFUTE_TRIALS = 3000
# the role streams check() draws x, y and z from
CHECK_STREAMS = (1, 2, 3)


@dataclass(frozen=True)
class Job:
    entry: str
    prop: str
    trials: int = REFUTE_TRIALS
    dim: int | None = None
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        args = [f"{k}={v}" for k, v in sorted(self.params.items())]
        if self.dim is not None:
            args.append(f"dim={self.dim}")
        inner = f"[{','.join(args)}]" if args else ""
        return f"{self.entry}{inner} {self.prop}"

    def merged_params(self) -> dict:
        return {**catalog.lookup(self.entry).default_params, **self.params}


SCALAR_SUBADD = ("affine-power", "one-minus-sqrt1p", "neg-xlogx-shift", "log1p",
                 "neg-log-cosh", "e-minus-1px-pow", "one-minus-exp-neg", "sigmoid")
SCALAR_SUPERADD = ("half-sq-plus-log1p", "half-sq-minus-log1p", "half-sq-plus-sin",
                   "half-sq-minus-sin", "half-sq-minus-cos", "x-gamma-minus-1")

JOBS = {
    "check-psd": (
        Job("vn-entropy", "strong-subadd", 20_000),
        Job("trace-pow", "strong-subadd", 20_000, params={"p": 0.5}),
        Job("trace-pow", "strong-superadd", 20_000, params={"p": 1.5}),
        Job("logdet", "second-diff-nonpos", 20_000),
        Job("det-shift-recip", "strong-superadd", 20_000),
        Job("trace-hansen", "strong-superadd", 5_000),
        Job("det-recip-pow", "completely-monotone", 2_000),
        Job("det", "strong-superadd", 50_000, dim=5),
    ),
    "check-vector": tuple(Job(e, "strong-subadd", 100_000) for e in SCALAR_SUBADD)
    + tuple(Job(e, "strong-superadd", 100_000) for e in SCALAR_SUPERADD)
    + (
        Job("shannon-entropy", "strong-subadd", 100_000),
        Job("lse", "submodular", 100_000),
        Job("elem-sym-4-shifted", "strong-superadd", 100_000),
        Job("nonneg-poly", "strong-superadd", 100_000),
        Job("exp-neg-linear", "completely-monotone", 50_000),
    ),
    "refute-shrink": (
        Job("lse", "strong-subadd"),
        Job("jensen-gap", "strong-subadd"),
        Job("pairwise-diff-convex", "strong-subadd"),
        Job("geomean2", "strong-subadd"),
        Job("reciprocal", "strong-subadd"),
        Job("half-sq-plus-cos", "superadd"),
        Job("logistic-pow", "completely-monotone", params={"beta": 0.5}),
        Job("det", "strong-subadd", dim=3),
        Job("logdet", "second-diff-nonneg", dim=3),
    ),
    "suite": (Job("suite", "build_manifest"),),
}
SEEDS = {"check-psd": CHECK_SEEDS, "check-vector": CHECK_SEEDS,
         "refute-shrink": REFUTE_SEEDS, "suite": SUITE_SEEDS}
KINDS = {"check-psd": "check", "check-vector": "check", "refute-shrink": "refute", "suite": "suite"}
NAMES = tuple(JOBS)

# the suite's criteria instantiate these besides entries of the other workloads
SUITE_ENTRIES = ("inv-power-product", "lp-power-norm", "sq-norm")
# every catalog entry some workload evaluates, for the per-layer metrics
ENTRIES = sorted({j.entry for name in ("check-psd", "check-vector", "refute-shrink")
                  for j in JOBS[name]} | set(SUITE_ENTRIES))


def _manifest_trials(manifest: dict) -> int:
    """Trials stated by the check reports inside a suite manifest."""
    total = 0
    for crit in manifest["criteria"]:
        for sc in crit["checks"]:
            d = sc["detail"]
            if "verdict" in d and isinstance(d.get("trials"), int):
                total += d["trials"]
    return total


class Workload:
    """One workload's handles and operations.

    Construction instantiates the handles and makes one small warm-up call
    of each kind, which is the set-up that ``setup_s`` times.
    """

    def __init__(self, name: str):
        self.jobs = JOBS[name]
        self.seeds = SEEDS[name]
        self.kind = KINDS[name]
        if self.kind == "suite":
            self.handles = []
            for n in (1, 2):  # fills the QMC node cache
                certify.gaussian_representation_margin(0.5 * np.eye(n))
            suite.criterion_2(0)
        else:
            self.handles = [catalog.instantiate(j.entry, j.params, j.dim) for j in self.jobs]
            for j, h in zip(self.jobs, self.handles):
                if self.kind == "check":
                    checkers.check(h, j.prop, CheckConfig(trials=8, seed=0))
                else:
                    checkers.refute(h, j.prop, CheckConfig(trials=30, seed=0))

    def run(self, i: int, seed: int):
        """Operation i of a round: its report, or the error it raised.  Calls
        go through the module attributes, so the traced run's wrappers see
        them."""
        j, h = self.jobs[i], (self.handles[i] if self.handles else None)
        cfg = CheckConfig(trials=j.trials, seed=seed)
        try:
            if self.kind == "suite":
                return suite.build_manifest(seed)
            if self.kind == "check":
                return checkers.check(h, j.prop, cfg)
            return checkers.refute(h, j.prop, cfg)
        except ConeCheckError as exc:
            return exc

    def trials(self, report) -> int:
        if isinstance(report, ConeCheckError):
            return 0
        return _manifest_trials(report) if self.kind == "suite" else report.trials_run

    def serialize(self, report) -> bytes:
        if isinstance(report, ConeCheckError):
            return repr(report).encode()
        if self.kind == "suite":
            return suite.manifest_bytes(report)
        return report.json_line().encode()

    def judge(self, i: int, report) -> list:
        if isinstance(report, ConeCheckError):
            return [(judge.WRONG, f"raised {type(report).__name__}: {report}")]
        if self.kind == "suite":
            return judge.judge_manifest(report)
        j, h = self.jobs[i], self.handles[i]
        if self.kind == "check":
            return judge.judge_check(report, j.trials)
        params = j.merged_params()
        f = lambda x: judge.POINTWISE[j.entry](x, params)
        reeval = checkers.reevaluate_witness(h, report.witness) if report.witness else math.nan
        return judge.judge_refute(report, h.domain.family, f, reeval, j.trials)

    def probe(self, rng: np.random.Generator) -> list:
        """Checks of the layers below the operations, on inputs built here:
        handle values against closed forms, and sampled points in the cone."""
        problems = []
        for j, h in zip(self.jobs, self.handles):
            problems += judge.probe_handle(j.entry, j.merged_params(), h, rng)
            if self.kind != "check":
                continue
            for seed in self.seeds:
                for stream in CHECK_STREAMS:
                    rows = cones.sample_batch(h.domain, Rng(seed, stream), 64)
                    if not all(judge.in_cone(h.domain.family, r) for r in rows):
                        problems.append((judge.WRONG, f"{j.label}: sample off the cone at seed {seed}"))
        return problems
