"""Tests of the benchmark's own correctness checks.

    python3 -m pytest perfbench/test_judge.py
"""

import json
import math
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import judge  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from conecheck import CheckConfig, instantiate, refute, reevaluate_witness  # noqa: E402


def _logdet(m):
    return judge.POINTWISE["logdet"](m, {})


def _second_diff_witness():
    """An on-cone refutation of 'logdet has nonnegative second differences':
    A = B = C = I gives 3 log 3 - 6 log 2."""
    eye = np.eye(3)
    return {"x": eye, "y": eye, "z": eye}, 3 * math.log(3) - 6 * math.log(2)


def test_sound_witness_passes():
    pts, margin = _second_diff_witness()
    assert judge.judge_witness("psd-cone", _logdet, "second-diff-nonneg", pts, margin, margin) == []


def test_off_cone_point_is_rejected():
    pts, margin = _second_diff_witness()
    x = np.diag([1.0, 1.0, -0.25])
    pts = dict(pts, x=x)
    kinds = [kind for kind, _ in judge.judge_witness("psd-cone", _logdet, "second-diff-nonneg",
                                                     pts, margin)]
    assert judge.OFF_CONE in kinds


def test_perturbed_margin_is_rejected():
    pts, margin = _second_diff_witness()
    bumped = margin * (1 + 1e-7)
    problems = judge.judge_witness("psd-cone", _logdet, "second-diff-nonneg", pts, bumped, bumped)
    assert [kind for kind, _ in problems] == [judge.WRONG]
    problems = judge.judge_witness("psd-cone", _logdet, "second-diff-nonneg", pts, margin, bumped)
    assert [kind for kind, _ in problems] == [judge.WRONG]


def test_refute_report_is_judged_sound():
    h = instantiate("geomean2")
    rep = refute(h, "strong-subadd", CheckConfig(trials=300, seed=4))
    f = lambda x: judge.POINTWISE["geomean2"](x, {})
    assert judge.judge_refute(rep, "nonneg-orthant", f, reevaluate_witness(h, rep.witness), 300) == []


def test_probe_rejects_a_wrong_value():
    h = instantiate("trace-pow", {"p": 0.5})
    rng = np.random.default_rng(0)
    assert judge.probe_handle("trace-pow", {"p": 0.5}, h, rng) == []
    h.batch = lambda rows, inner=h.batch: inner(rows) * (1 + 1e-7)
    assert judge.probe_handle("trace-pow", {"p": 0.5}, h, rng)


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(worker.layer_metrics(spans.Recorder(), 1, [1.0]))
