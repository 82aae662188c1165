"""Independent correctness checks for the benchmark's operations.

Nothing here reuses conecheck's evaluation code.  Function values come from
closed forms written out below, cone membership from the benchmark's own
test, and witness margins from the benchmark's own expression evaluator.
Each judge returns a list of problems; an empty list means the operation's
output is right.  A problem is a ``(kind, text)`` pair, where ``kind`` is
``OFF_CONE`` for the known shrinking fault (a witness point that left its
cone) and ``WRONG`` for anything else.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

OFF_CONE = "off-cone"
WRONG = "wrong"

NO_VIOLATION = "NO_VIOLATION_FOUND"
VIOLATION = "VIOLATION_FOUND"

# relative tolerance for a handle value against its closed form, and for a
# witness margin against the benchmark's own evaluation of it (on top of the
# rounding bound of the expression, see witness_slack)
CLOSED_FORM_RTOL = 1e-9
MARGIN_RTOL = 1e-9
EPS = float(np.finfo(np.float64).eps)
# PSD membership: smallest eigenvalue >= -CONE_TOL * max(1, |A|_F)
CONE_TOL = 1e-12
# inputs per handle in a closed-form probe
PROBES = 8


# ---------------------------------------------------------------------------
# cone membership
# ---------------------------------------------------------------------------


def in_cone(family: str, data) -> bool:
    """Membership of one point (vector or symmetric matrix) in a cone family."""
    d = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        return False
    if family == "psd-cone":
        if d.ndim != 2 or np.abs(d - d.T).max(initial=0.0) > CONE_TOL * max(1.0, np.abs(d).max()):
            return False
        return bool(np.linalg.eigvalsh(d)[0] >= -CONE_TOL * max(1.0, float(np.linalg.norm(d))))
    if family in ("nonneg-orthant", "grid-lp-positive"):
        return bool(np.all(d >= 0.0))
    if family == "positive-orthant":
        return bool(np.all(d > 0.0))
    if family == "full-space":
        return True
    raise ValueError(f"no membership rule for {family!r}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def leibniz_det(m) -> float:
    """Determinant by the permutation expansion (orders up to 5 here)."""
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1.0 if inversions % 2 else 1.0
        for i, j in enumerate(perm):
            term *= m[i, j]
        total += term
    return total


def _hansen_antiderivative(t: float, p: float) -> float:
    from scipy.integrate import quad  # imported here to keep it out of setup_s

    val, _ = quad(lambda s: (1.0 + s ** p) ** (1.0 / p), 0.0, t, epsabs=1e-14, epsrel=1e-13)
    return val


# Spectral closed forms, as functions of the eigenvalues and the entry's
# parameters.
SPECTRAL = {
    "trace-pow": lambda lam, p: float(np.sum(lam ** p["p"])),
    "vn-entropy": lambda lam, p: float(-np.sum(lam * np.log(lam))),
    "logdet": lambda lam, p: float(np.sum(np.log(lam))),
    "det": lambda lam, p: float(np.prod(lam)),
    "det-shift-recip": lambda lam, p: float(np.prod((1.0 + lam) ** -p["beta"]) - 1.0),
    "det-recip-pow": lambda lam, p: float(np.prod(lam) ** -p["beta"]),
    "trace-hansen": lambda lam, p: sum(_hansen_antiderivative(float(t), p["p"]) for t in lam),
}


def _lse(x):
    m = float(np.max(x))
    return m + math.log(float(np.sum(np.exp(x - m)))) - math.log(len(x))


def _elem_sym_2(x):
    return sum(x[i] * x[j] for i in range(len(x)) for j in range(i + 1, len(x)))


# Pointwise closed forms: (point as an array, parameters) -> value.
POINTWISE = {
    "affine-power": lambda x, p: p["m"] * x[0] + p["n"] + p["p"] * x[0] ** p["alpha"],
    "one-minus-sqrt1p": lambda x, p: 1.0 - math.sqrt(1.0 + p["alpha"] * x[0] ** 2),
    "neg-xlogx-shift": lambda x, p: -(x[0] + p["alpha"]) * math.log(x[0] + p["alpha"]),
    "log1p": lambda x, p: math.log1p(x[0]),
    "neg-log-cosh": lambda x, p: -math.log(math.cosh(x[0])),
    "e-minus-1px-pow": lambda x, p: math.e - (1.0 + x[0]) ** (1.0 / x[0]) if x[0] > 0 else 0.0,
    "one-minus-exp-neg": lambda x, p: 1.0 - math.exp(-x[0]),
    "sigmoid": lambda x, p: 1.0 / (1.0 + math.exp(-x[0])),
    "half-sq-plus-log1p": lambda x, p: 0.5 * x[0] ** 2 + math.log1p(x[0]),
    "half-sq-minus-log1p": lambda x, p: 0.5 * x[0] ** 2 - math.log1p(x[0]),
    "half-sq-plus-sin": lambda x, p: 0.5 * x[0] ** 2 + math.sin(x[0]),
    "half-sq-minus-sin": lambda x, p: 0.5 * x[0] ** 2 - math.sin(x[0]),
    "half-sq-minus-cos": lambda x, p: 0.5 * x[0] ** 2 - math.cos(x[0]),
    "half-sq-plus-cos": lambda x, p: 0.5 * x[0] ** 2 + math.cos(x[0]),
    "x-gamma-minus-1": lambda x, p: math.gamma(x[0] + 1.0) - 1.0,
    "reciprocal": lambda x, p: 1.0 / x[0],
    "logistic-pow": lambda x, p: (1.0 + p["a"] * math.exp(-x[0])) ** p["beta"],
    "shannon-entropy": lambda x, p: -sum(v * math.log(v) for v in x if v > 0.0),
    "lse": lambda x, p: _lse(np.asarray(x)),
    "elem-sym-4-shifted": lambda x, p: _elem_sym_2(np.asarray(x) + 1.0) ** -p["beta"] - 6.0 ** -p["beta"],
    "nonneg-poly": lambda x, p: sum(v * v for v in x) + 0.5 * _elem_sym_2(x),
    "exp-neg-linear": lambda x, p: math.exp(-sum((0.5 + i / len(x)) * v for i, v in enumerate(x))),
    "geomean2": lambda x, p: math.sqrt(x[0] * x[1]),
    "jensen-gap": lambda x, p: -(0.5 * x[0] + 0.5 * x[1]) ** 2 + 0.5 * (x[0] ** 2 + x[1] ** 2),
    "pairwise-diff-convex": lambda x, p: sum(
        abs(x[i] - x[j]) ** p["q"] for i in range(len(x)) for j in range(i + 1, len(x))
    ),
    "det": lambda m, p: leibniz_det(m),
    # sum of log eigenvalues: a determinant by expansion loses the relative
    # accuracy that near-singular witness points need
    "logdet": lambda m, p: math.fsum(math.log(v) for v in np.linalg.eigvalsh(m)),
}


def close(value: float, expected: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rtol * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# the benchmark's own witness evaluator
# ---------------------------------------------------------------------------


def witness_terms(expression: str, pts: dict) -> list:
    """The expression's slack as ``sum(sign * f(point))`` over the returned
    ``(sign, point)`` terms, with ``slack >= 0`` where the claim holds:
    subadditivity ``f(x) + f(y) - f(x+y)``, second differences
    ``f(x+y+z) + f(z) - f(x+z) - f(y+z)`` with the sign of the claim, the
    value at the origin for the origin sign conditions, and for complete
    monotonicity of order k the sum over subsets S of the k steps of
    ``(-1)^|S| f(base + sum of S)``."""
    if expression in ("subadd", "superadd"):
        x, y = pts["x"], pts["y"]
        terms = [(1.0, x), (1.0, y), (-1.0, x + y)]
        sign = 1.0 if expression == "subadd" else -1.0
    elif expression in ("second-diff-nonpos", "second-diff-nonneg"):
        x, y, z = pts["x"], pts["y"], pts["z"]
        terms = [(1.0, x + y + z), (1.0, z), (-1.0, x + z), (-1.0, y + z)]
        sign = 1.0 if expression == "second-diff-nonneg" else -1.0
    elif expression in ("origin-nonneg", "origin-nonpos"):
        terms = [(1.0, pts["zero"])]
        sign = 1.0 if expression == "origin-nonneg" else -1.0
    elif expression.startswith("completely-monotone[k="):
        k = int(expression[len("completely-monotone[k=") : -1])
        steps = [pts[f"x{i + 1}"] for i in range(k)]
        terms = []
        for subset in itertools.product((0, 1), repeat=k):
            point = pts["base"] + sum((s for s, b in zip(steps, subset) if b),
                                      np.zeros_like(pts["base"]))
            terms.append(((-1.0) ** sum(subset), point))
        sign = 1.0
    else:
        raise ValueError(f"no rule for expression {expression!r}")
    return [(sign * c, p) for c, p in terms]


def witness_slack(f, expression: str, pts: dict) -> tuple[float, float]:
    """``(slack, rounding bound)`` of a witness expression under the
    pointwise rule f.  The bound, a few ulps of the sum of the absolute
    terms, is the part of the slack that evaluation order can change."""
    vals = [(c, f(p)) for c, p in witness_terms(expression, pts)]
    slack = sum(c * v for c, v in vals)
    return slack, 64 * EPS * sum(abs(v) for _, v in vals)


# ---------------------------------------------------------------------------
# judges, one per kind of operation
# ---------------------------------------------------------------------------


def judge_check(rep, trials: int) -> list:
    """A claim that holds: no violation, every trial run, a finite worst
    margin.  The verdict already says that no trial went past the
    tolerance at its own scale."""
    problems = []
    if rep.verdict != NO_VIOLATION:
        problems.append((WRONG, f"verdict {rep.verdict} on a claim that holds"))
    if rep.trials_run != trials:
        problems.append((WRONG, f"ran {rep.trials_run} trials, asked for {trials}"))
    if not math.isfinite(rep.worst_margin):
        problems.append((WRONG, f"worst margin {rep.worst_margin!r} is not finite"))
    return problems


def judge_witness(family: str, f, expression: str, points: dict, margin: float,
                  reevaluated: float | None = None) -> list:
    """A counterexample: on the cone, reproducible (when ``reevaluated`` is
    given), and of the right sign and size under the benchmark's own
    evaluation."""
    problems = []
    for name, data in sorted(points.items()):
        if not in_cone(family, data):
            problems.append((OFF_CONE, f"witness point {name} is off the {family}"))
    if not margin < 0.0:
        problems.append((WRONG, f"witness margin {margin!r} is not negative"))
    if reevaluated is not None and reevaluated != margin:
        problems.append((WRONG, f"re-evaluated margin {reevaluated!r} != stored {margin!r}"))
    try:
        own, rounding = witness_slack(f, expression, points)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        problems.append((WRONG, f"own evaluation failed: {exc}"))
        return problems
    if not (own < 0.0 and abs(own - margin) <= MARGIN_RTOL * abs(margin) + rounding):
        problems.append((WRONG, f"own margin {own!r} vs stored {margin!r}"))
    return problems


def judge_refute(rep, family: str, f, reevaluated: float, trials: int) -> list:
    """A refuted claim: a violation over every requested trial, with a sound
    witness."""
    problems = []
    if rep.verdict != VIOLATION or rep.witness is None:
        return [(WRONG, f"verdict {rep.verdict} on a refuted claim")]
    if rep.trials_run != trials:
        problems.append((WRONG, f"ran {rep.trials_run} trials, asked for {trials}"))
    w = rep.witness
    if rep.worst_margin != w.margin:
        problems.append((WRONG, "worst margin differs from the witness margin"))
    points = {k: np.array(p.data) for k, p in w.points.items()}
    return problems + judge_witness(family, f, w.expression, points, w.margin, reevaluated)


LOGDET_AS_STATED = "logdet second-diff-nonneg (as stated)"
# criterion 1 and 2 sub-checks whose value has a closed form
CLOSED_FORM_SUBCHECKS = {
    "geomean2 second difference at the printed witness":
        math.sqrt(2.0 / 3.0) - (1.0 + math.sqrt(2.0)) / 3.0,
    "lse witness value matches the closed form": 1.0 - math.log((1.0 + math.e) / 2.0),
}


def judge_manifest(manifest: dict) -> list:
    """Every sub-check passes except the stated logdet clause, which must
    carry an on-cone violation; the criterion 1 and 2 values match their
    closed forms."""
    problems = []
    seen_logdet = False
    for crit in manifest["criteria"]:
        for sc in crit["checks"]:
            name, detail = sc["name"], sc["detail"]
            if name == LOGDET_AS_STATED:
                seen_logdet = True
                problems += _judge_logdet_clause(detail)
            elif not sc["passed"]:
                problems.append((WRONG, f"criterion {crit['criterion']}: {name!r} failed"))
            if name in CLOSED_FORM_SUBCHECKS and not close(
                detail["value"], CLOSED_FORM_SUBCHECKS[name], 1e-12
            ):
                problems.append((WRONG, f"{name!r}: value {detail['value']!r}"))
    if not seen_logdet:
        problems.append((WRONG, "the stated logdet clause is missing"))
    if manifest["passed"]:
        problems.append((WRONG, "manifest passes although the stated logdet clause is false"))
    return problems


def _judge_logdet_clause(detail: dict) -> list:
    w = detail.get("witness")
    if detail.get("verdict") != VIOLATION or w is None:
        return [(WRONG, "the stated logdet clause is not refuted")]
    points = {k: np.array(v) for k, v in w["points"].items()}
    f = lambda m: POINTWISE["logdet"](m, {})
    return judge_witness("psd-cone", f, w["expression"], points, w["margin"])


# ---------------------------------------------------------------------------
# probe inputs built by the benchmark
# ---------------------------------------------------------------------------


def rotated(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """``Q diag(lam) Q^T`` for a random orthogonal Q, symmetrized."""
    n = lam.shape[0]
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


def probe_handle(entry: str, params: dict, handle, rng: np.random.Generator) -> list:
    """Compare ``handle.batch`` with the closed form on inputs built here."""
    dom = handle.domain
    problems = []
    if dom.family == "psd-cone":
        lams = rng.uniform(0.05, 3.0, size=(PROBES, dom.dim))
        rows = np.stack([rotated(rng, lam) for lam in lams])
        expected = [SPECTRAL[entry](lam, params) for lam in lams]
    else:
        rows = rng.uniform(0.05, 3.0, size=(PROBES, dom.dim))
        expected = [POINTWISE[entry](r, params) for r in rows]
    got = handle.batch(rows)
    for i, (g, e) in enumerate(zip(got, expected)):
        if not close(float(g), e, CLOSED_FORM_RTOL):
            problems.append((WRONG, f"{entry}: value {float(g)!r} at probe {i}, closed form {e!r}"))
    return problems
