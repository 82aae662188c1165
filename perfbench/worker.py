"""One workload in one fresh process.

Prints ``ready`` once set-up is done (``run.py`` times interpreter start to
that line), then runs whole passes over the workload's seed list until the
requested time is spent, judges every report, and prints one JSON line of
results.  Each (job, seed) operation counts once in ``attempted`` and
``failed``; later passes time it again and must reproduce its report.  With
``--setup-only`` it exits after ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import judge  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from conecheck import catalog, certify, checkers, cones, suite  # noqa: E402

CERTIFY_PUBLIC = ("certify_hessian_sign", "certify_topkis", "certify_differential_monotone")


def _batch_rows(args, kwargs):
    return args[0]


def _traced_resolver(rec: spans.Recorder, fn):
    """``fn``, a catalog ``instantiate`` or ``resolve_handle``, with the
    ``batch`` of every handle it makes from an entry wrapped.  Handles passed
    in ready-made come back as they are."""
    def traced(target, *args, **kwargs):
        h = fn(target, *args, **kwargs)
        if isinstance(target, (str, catalog.CatalogEntry)):
            eid = target if isinstance(target, str) else target.id
            h.batch = rec.wrap(f"catalog.batch.{eid}", h.batch, rows=_batch_rows)
        return h

    return traced


def _targets(rec: spans.Recorder, wl: workloads.Workload) -> list:
    """Everything the traced run wraps, as (owner, attribute, wrapper)."""
    targets = [
        (cones, "sample_batch", rec.wrap("cones.sample_batch", cones.sample_batch,
                                         rows=lambda a, kw: a[2] if len(a) > 2 else kw["count"])),
        (checkers, "evaluate_expression",
         rec.wrap("checkers.evaluate_expression", checkers.evaluate_expression)),
        (certify, "gaussian_representation_margin",
         rec.wrap("certify.gaussian_representation_margin", certify.gaussian_representation_margin)),
        (suite, "build_manifest", rec.wrap("suite.build_manifest", suite.build_manifest)),
        (suite, "CRITERIA", tuple(rec.wrap(f"suite.criterion_{k}", fn)
                                  for k, fn in enumerate(suite.CRITERIA, 1))),
    ]
    # check and refute are the operations of the other workloads; inside the
    # suite their time stays in the criterion that calls them
    if wl.kind != "suite":
        for attr in ("check", "refute"):
            targets.append((checkers, attr, rec.wrap(f"checkers.{attr}", getattr(checkers, attr))))
    for owner in (certify, suite):
        for attr in CERTIFY_PUBLIC:
            targets.append((owner, attr, rec.wrap("certify.certificates", getattr(certify, attr))))
    # handles the program makes itself, as the suite's criteria do
    for owner in (checkers, certify):
        targets.append((owner, "resolve_handle", _traced_resolver(rec, owner.resolve_handle)))
    targets.append((suite, "instantiate", _traced_resolver(rec, suite.instantiate)))
    for j, h in zip(wl.jobs, wl.handles):
        targets.append((h, "batch", rec.wrap(f"catalog.batch.{j.entry}", h.batch,
                                             rows=_batch_rows)))
    return targets


def layer_metrics(rec: spans.Recorder, rounds: int, traced_round_s: list[float]) -> dict:
    """Per-round self times and counts from the recorded spans."""
    tot = rec.totals()

    def s(name):
        return tot.get(name, (0.0, 0))[0] / rounds

    def calls(name):
        return tot.get(name, (0.0, 0))[1] / rounds

    out = {
        "trace.round_s": statistics.median(traced_round_s),
        "trace.round_mean_s": statistics.fmean(traced_round_s),
        "bench.round.self_s": s("round"),
        "cones.sample_batch.s": s("cones.sample_batch"),
        "cones.sample_batch.calls": calls("cones.sample_batch"),
        "cones.sample_batch.rows": rec.rows.get("cones.sample_batch", 0) / rounds,
        "catalog.batch.calls": sum(calls(f"catalog.batch.{e}") for e in workloads.ENTRIES),
        "catalog.batch.max_mb": rec.max_bytes / 2 ** 20,
        "checkers.check.self_s": s("checkers.check") + s("checkers.refute"),
        "checkers.evaluate_expression.s": s("checkers.evaluate_expression"),
        "checkers.evaluate_expression.calls": calls("checkers.evaluate_expression"),
        "certify.gaussian_representation_margin.s": s("certify.gaussian_representation_margin"),
        "certify.gaussian_representation_margin.calls": calls("certify.gaussian_representation_margin"),
        "certify.certificates.s": s("certify.certificates"),
        "suite.build_manifest.self_s": s("suite.build_manifest"),
    }
    for e in workloads.ENTRIES:
        out[f"catalog.batch.{e}.s"] = s(f"catalog.batch.{e}")
        out[f"catalog.batch.{e}.rows"] = rec.rows.get(f"catalog.batch.{e}", 0) / rounds
    for k in range(1, len(suite.CRITERIA) + 1):
        out[f"suite.criterion_{k}.s"] = s(f"suite.criterion_{k}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.Workload(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rec = spans.Recorder() if args.trace else None
    targets = _targets(rec, wl) if rec else []
    order = list(wl.seeds)
    random.Random(args.seed).shuffle(order)

    round_s: list[float] = []
    round_rate: list[float] = []
    digests: dict[str, str] = {}
    problems: dict[str, list] = {}
    t_start = time.perf_counter()
    with spans.patched(targets):
        while True:
            for seed in order:
                with rec.round(len(round_s)) if rec else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    reports = [wl.run(i, seed) for i in range(len(wl.jobs))]
                    dt = time.perf_counter() - t0
                round_s.append(dt)
                round_rate.append(sum(wl.trials(r) for r in reports) / dt)
                for i, rep in enumerate(reports):
                    key = f"{wl.jobs[i].label} @ seed {seed}"
                    digest = hashlib.sha256(wl.serialize(rep)).hexdigest()
                    if key not in digests:
                        digests[key] = digest
                        problems[key] = wl.judge(i, rep)
                    elif digests[key] != digest:
                        problems[key] = problems[key] + [(judge.WRONG, "report differs on replay")]
            if time.perf_counter() - t_start >= args.seconds:
                break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_problems = wl.probe(np.random.default_rng(args.seed))
    wrong = [f"{k}: {text}" for k, ps in problems.items() for kind, text in ps
             if kind != judge.OFF_CONE]
    wrong += [text for _, text in probe_problems]
    for k, ps in sorted(problems.items()):
        for kind, text in ps:
            print(f"failed: {k}: {text}", file=sys.stderr)
    for text in wrong:
        print(f"wrong: {text}", file=sys.stderr)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".digests.json", "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    result = {
        "correct": not wrong,
        # each (job, seed) operation counts once, however many passes ran
        "attempted": len(digests),
        "failed": sum(bool(ps) for ps in problems.values()),
        "rounds": len(round_s),
        "round_s": statistics.median(round_s),
        "trials_per_s": statistics.median(round_rate),
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest(),
    }
    if rec:
        rec.write_jsonl(stem + ".spans.jsonl")
        result["layers"] = layer_metrics(rec, len(round_s), round_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
