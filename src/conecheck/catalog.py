"""Built-in catalog of functions on cones with their claimed properties.

Every entry carries a domain cone, default parameters with the interval of
each numeric one, a set of property labels with a status, and a short
source note.  Status semantics:

* ``asserted``      -- the cited source claims the property; these entries
                       form the must-pass randomized suite.
* ``consistent``    -- not claimed outright by the source but true and kept
                       in the must-pass suite.
* ``refuted-candidate`` -- the claim fails spot checks; the refuter is
                       expected to produce a witness, and the entry is
                       excluded from the must-pass suite.

Entries reduce a point's coordinates (and the spectral core its
eigenvalues) with :func:`.numkernel.rowwise` and fold their linear forms
with :func:`.numkernel.linear`, so a row gets the same bits alone and in a
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np

from . import cones
from .cones import ConeSpec
from .diffops import FunctionHandle
from .errors import ConeCheckError, ParameterError, UnknownEntryError
from .numkernel import CLAMP_WINDOW, det, gamma, linear, rowwise, spectral

__all__ = [
    "PropertyLabel",
    "SourceStatus",
    "CatalogEntry",
    "builtin_entries",
    "lookup",
    "instantiate",
    "resolve_handle",
]


class PropertyLabel(str, Enum):
    SUBADD = "subadd"
    SUPERADD = "superadd"
    STRONG_SUBADD = "strong-subadd"
    STRONG_SUPERADD = "strong-superadd"
    SECOND_DIFF_NONNEG = "second-diff-nonneg"
    SECOND_DIFF_NONPOS = "second-diff-nonpos"
    SUBMODULAR = "submodular"
    SUPERMODULAR = "supermodular"
    COMPLETELY_MONOTONE = "completely-monotone"
    COMONOTONE_STRONG_SUPERADD = "comonotone-strong-superadd"


class SourceStatus(str, Enum):
    ASSERTED = "asserted"
    CONSISTENT = "consistent"
    REFUTED_CANDIDATE = "refuted-candidate"


def _closure(labels: dict) -> dict:
    """Strong labels imply the plain additivity label and the matching
    second-difference sign; add the implied labels (same status) for
    asserted/consistent claims."""
    out = dict(labels)
    implied = {
        PropertyLabel.STRONG_SUBADD: (PropertyLabel.SUBADD, PropertyLabel.SECOND_DIFF_NONPOS),
        PropertyLabel.STRONG_SUPERADD: (PropertyLabel.SUPERADD, PropertyLabel.SECOND_DIFF_NONNEG),
    }
    for strong, extras in implied.items():
        status = out.get(strong)
        if status in (SourceStatus.ASSERTED, SourceStatus.CONSISTENT):
            for lab in extras:
                out.setdefault(lab, status)
    return out


@dataclass(frozen=True)
class CatalogEntry:
    """A named function with parameters, domain, labels and a source note.
    ``domains`` maps each numeric parameter to its interval, as written
    (``"[0, inf)"``; a trailing ``^n`` checks each element of a vector)."""

    id: str
    default_dim: int
    fixed_dim: bool
    default_params: MappingProxyType
    domains: MappingProxyType
    labels: MappingProxyType
    source: str
    notes: str = ""
    _factory: object = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        dom = instantiate(self, None, None).domain.to_json()
        return {
            "id": self.id,
            "domain": dom,
            "labels": sorted(lab.value for lab in self.labels),
            "status": {lab.value: st.value for lab, st in sorted(self.labels.items())},
            "source": self.source,
        }


def _entry(
    id: str,
    factory,
    labels: dict,
    source: str,
    default_dim: int = 1,
    fixed_dim: bool = True,
    params: dict | None = None,
    notes: str = "",
) -> CatalogEntry:
    """``params`` maps a numeric parameter to ``(default, interval)`` and
    any other parameter to its default."""
    defaults, domains = {}, {}
    for name, spec in (params or {}).items():
        if isinstance(spec, tuple):
            spec, domains[name] = spec[0], _interval(spec[1])
        defaults[name] = spec
    return CatalogEntry(
        id=id,
        default_dim=default_dim,
        fixed_dim=fixed_dim,
        default_params=MappingProxyType(defaults),
        domains=MappingProxyType(domains),
        labels=MappingProxyType(_closure(labels)),
        source=source,
        notes=notes,
        _factory=factory,
    )


def _interval(text: str) -> tuple:
    """``"[0, inf)"`` as (text, lo, hi, lo open, hi open, per element)."""
    core = text.removesuffix("^n")
    lo, hi = core[1:-1].split(", ")
    return text, float(lo), float(hi), core[0] == "(", core[-1] == ")", core != text


def _param_error(entry_id: str, message: str) -> ParameterError:
    return ParameterError(f"{entry_id}: {message}")


def _check_domains(entry: CatalogEntry, params: dict) -> None:
    """Every declared parameter finite and inside its interval, with plain
    float comparisons for a scalar; a None left at its None default is the
    factory's to fill."""
    for name, (text, lo, hi, lo_open, hi_open, each) in entry.domains.items():
        value = params[name]
        if value is None and entry.default_params[name] is None:
            continue
        for v in np.ravel(np.asarray(value, dtype=np.float64)) if each else (value,):
            if not (math.isfinite(v) and (lo < v if lo_open else lo <= v)
                    and (v < hi if hi_open else v <= hi)):
                raise _param_error(entry.id, f"{name} must lie in {text}, got {value}")


def _vec_param(value, n: int, entry_id: str, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise _param_error(entry_id, f"parameter {name!r} must have length {n}")
    return arr


# ---------------------------------------------------------------------------
# scalar entries on the closed half-line
# ---------------------------------------------------------------------------


def _scalar_handle(entry_id: str, fn, domain: ConeSpec | None = None) -> FunctionHandle:
    dom = domain if domain is not None else cones.nonneg_orthant(1)

    def batch(rows: np.ndarray) -> np.ndarray:
        return fn(rows[:, 0])

    return FunctionHandle(entry_id, dom, batch)


def _make_affine_power(p: dict, n: int) -> FunctionHandle:
    m, nn, pp, alpha = p["m"], p["n"], p["p"], p["alpha"]

    def fn(x):
        return m * x + nn + pp * np.where(x > 0, x, 0.0) ** alpha

    return _scalar_handle("affine-power", fn)


def _make_one_minus_sqrt1p(p: dict, n: int) -> FunctionHandle:
    alpha = p["alpha"]
    return _scalar_handle("one-minus-sqrt1p", lambda x: 1.0 - np.sqrt(1.0 + alpha * x * x))


def _make_neg_xlogx_shift(p: dict, n: int) -> FunctionHandle:
    alpha = p["alpha"]

    def fn(x):
        t = x + alpha
        return np.where(t > 0.0, -t * np.log(np.maximum(t, 1e-300)), 0.0)

    return _scalar_handle("neg-xlogx-shift", fn)


def _make_log1p(p: dict, n: int) -> FunctionHandle:
    return _scalar_handle("log1p", np.log1p)


def _make_neg_log_cosh(p: dict, n: int) -> FunctionHandle:
    # log(cosh x) = |x| + log1p(exp(-2|x|)) - log 2, stable for large x
    def fn(x):
        a = np.abs(x)
        return -(a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0))

    return _scalar_handle("neg-log-cosh", fn)


def _make_e_minus_1px_pow(p: dict, n: int) -> FunctionHandle:
    # value at 0 is the limit of e - (1+x)^(1/x), which is exactly 0
    def fn(x):
        core = np.exp(np.log1p(x) / np.where(x > 0.0, x, 1.0))
        return np.where(x > 0.0, np.e - core, 0.0)

    return _scalar_handle("e-minus-1px-pow", fn)


def _make_one_minus_exp_neg(p: dict, n: int) -> FunctionHandle:
    return _scalar_handle("one-minus-exp-neg", lambda x: -np.expm1(-x))


def _make_sigmoid(p: dict, n: int) -> FunctionHandle:
    return _scalar_handle("sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x)))


def _make_half_sq(term: str, sign: float):
    trig = {"log1p": np.log1p, "sin": np.sin, "cos": np.cos}[term]
    word = "plus" if sign > 0 else "minus"
    name = f"half-sq-{word}-{term}"

    def factory(p: dict, n: int) -> FunctionHandle:
        return _scalar_handle(name, lambda x: 0.5 * x * x + sign * trig(x))

    return name, factory


def _make_x_gamma_minus_1(p: dict, n: int) -> FunctionHandle:
    # x * Gamma(x) = Gamma(x + 1), continuous at 0 with value 1
    return _scalar_handle("x-gamma-minus-1", lambda x: gamma(x + 1.0) - 1.0)


def _make_reciprocal(p: dict, n: int) -> FunctionHandle:
    def fn(x):
        return np.where(x > 0.0, 1.0 / np.where(x > 0.0, x, 1.0), np.nan)

    return _scalar_handle("reciprocal", fn, cones.positive_orthant(1))


# ---------------------------------------------------------------------------
# multivariate entries on orthants / products
# ---------------------------------------------------------------------------


def _make_shannon(p: dict, n: int) -> FunctionHandle:
    def batch(rows):
        t = np.where(rows > 0.0, rows * np.log(np.maximum(rows, 1e-300)), 0.0)
        out = -rowwise(np.add, t)
        return np.where(rowwise(np.logical_or, rows < 0.0), np.nan, out)

    return FunctionHandle("shannon-entropy", cones.nonneg_orthant(n), batch)


def _make_sq_norm(p: dict, n: int) -> FunctionHandle:
    def batch(rows):
        return rowwise(np.add, rows * rows)

    return FunctionHandle("sq-norm", cones.nonneg_orthant(n), batch)


def _make_inner_product(p: dict, n: int) -> FunctionHandle:
    def batch(rows):
        return rowwise(np.add, rows[:, :n] * rows[:, n:])

    return FunctionHandle("inner-product", cones.nonneg_orthant(2 * n), batch)


def _make_concave_of_linear(p: dict, n: int) -> FunctionHandle:
    inner_id = p["inner"]
    inner = lookup(inner_id)
    if inner.default_dim != 1 or inner.labels.get(PropertyLabel.STRONG_SUBADD) not in (
        SourceStatus.ASSERTED,
        SourceStatus.CONSISTENT,
    ):
        raise _param_error(
            "concave-of-linear", f"inner entry {inner_id!r} must be a scalar strong-subadd entry"
        )
    a = _vec_param(p["a"], n, "concave-of-linear", "a")
    ih = instantiate(inner)

    def batch(rows):
        return ih.batch(linear(rows, a)[:, None])

    return FunctionHandle(f"concave-of-linear[{inner_id}]", cones.nonneg_orthant(n), batch)


def _make_geomean2(p: dict, n: int) -> FunctionHandle:
    def batch(rows):
        prod = rows[:, 0] * rows[:, 1]
        return np.where(prod >= 0.0, np.sqrt(np.maximum(prod, 0.0)), np.nan)

    return FunctionHandle("geomean2", cones.nonneg_orthant(2), batch)


def _make_pairwise_diff_convex(p: dict, n: int) -> FunctionHandle:
    q = p["q"]
    iu, ju = np.triu_indices(n, k=1)

    def batch(rows):
        d = rows[:, iu] - rows[:, ju]
        return rowwise(np.add, np.abs(d) ** q)

    return FunctionHandle("pairwise-diff-convex", cones.nonneg_orthant(n), batch)


def _make_jensen_gap(p: dict, n: int) -> FunctionHandle:
    lam = _vec_param(p["weights"], n, "jensen-gap", "weights")
    if p["inner"] != "neg-square":
        raise _param_error("jensen-gap", f"unsupported inner rule {p['inner']!r} (only neg-square)")

    def f(t):
        return -t * t

    def batch(rows):
        return f(linear(rows, lam)) - linear(f(rows), lam)

    return FunctionHandle("jensen-gap", cones.nonneg_orthant(n), batch)


def _make_nonneg_poly(p: dict, n: int) -> FunctionHandle:
    monomials = p.get("monomials")
    if monomials is None:
        monomials = [(1.0,) + tuple(2 if k == i else 0 for k in range(n)) for i in range(n)]
        monomials += [
            (0.5,) + tuple(1 if k in (i, j) else 0 for k in range(n))
            for i in range(n)
            for j in range(i + 1, n)
        ]
    rows_m = [np.asarray(m, dtype=np.float64) for m in monomials]
    for m in rows_m:
        if m.shape != (n + 1,):
            raise _param_error("nonneg-poly", f"each monomial needs 1 + {n} numbers")
        if m[0] < 0:
            raise _param_error("nonneg-poly", "coefficients must be nonnegative")
        if np.all(m[1:] == 0):
            raise _param_error("nonneg-poly", "constant term must be zero")

    coeffs = np.array([m[0] for m in rows_m])
    exps = np.array([m[1:] for m in rows_m])

    def batch(rows):
        out = np.zeros(rows.shape[0])
        for c, e in zip(coeffs, exps):
            term = np.ones(rows.shape[0])
            for k in range(n):
                if e[k]:
                    term = term * rows[:, k] ** e[k]
            out += c * term
        return out

    return FunctionHandle("nonneg-poly", cones.nonneg_orthant(n), batch)


def _make_lse(p: dict, n: int) -> FunctionHandle:
    def batch(rows):
        m = rowwise(np.maximum, rows)
        return m + np.log(rowwise(np.add, np.exp(rows - m[:, None])) / n)

    return FunctionHandle("lse", cones.full_space(n), batch)


def _make_lp_power_norm(p: dict, n: int) -> FunctionHandle:
    pw, h = p["p"], p["h"]

    def batch(rows):
        return h * rowwise(np.add, np.abs(rows) ** pw)

    return FunctionHandle("lp-power-norm", cones.nonneg_orthant(n), batch)


# ---------------------------------------------------------------------------
# matrix entries on the PSD cone
# ---------------------------------------------------------------------------


def _make_det(p: dict, n: int) -> FunctionHandle:
    return FunctionHandle("det", cones.psd_cone(n), det)


def _make_logdet_pencil(p: dict, n: int) -> FunctionHandle:
    order = int(p["order"])
    if order != p["order"]:
        raise _param_error("logdet-pencil", f"order must be an integer, got {p['order']}")
    mats = p.get("matrices")
    if mats is None:
        # matrix k is 0.5 I + [1 / (i + j + k + 1)]_ij, a shifted Hilbert-type
        # Gram matrix: positive definite, and the same bits on every platform
        k, i, j = np.ogrid[:n, :order, :order]
        mats = 1.0 / (i + j + k + 1) + 0.5 * np.eye(order)
    mats = np.asarray(mats, dtype=np.float64)
    if mats.shape != (n, order, order):
        raise _param_error("logdet-pencil", f"need {n} matrices of order {order}")
    for i, m in enumerate(mats):
        if np.abs(m - m.T).max() > 1e-10 or np.linalg.eigvalsh(m)[0] <= 0:
            raise _param_error("logdet-pencil", f"matrix {i} is not symmetric positive definite")

    def batch(rows):
        pencil = np.einsum("tk,kij->tij", rows, mats)
        sign, logabs = np.linalg.slogdet(pencil)
        return np.where(sign > 0, logabs, np.nan)

    return FunctionHandle("logdet-pencil", cones.nonneg_orthant(n), batch)


def _make_trace_pow(p: dict, n: int) -> FunctionHandle:
    pw = p["p"]

    def batch(rows):
        # 0 ** p := 0, so p = 0 counts the strictly positive eigenvalues
        return spectral(rows, lambda w: np.where(w > 0.0, w ** pw, 0.0), lo=-CLAMP_WINDOW)

    return FunctionHandle(f"trace-pow[p={pw!r}]", cones.psd_cone(n), batch)


# trace-hansen: the most nodes of its Gauss-Jacobi rule, the switch U0 of T = t^p
# between the rule and the tail series, and the series' length beyond a
_HANSEN_NODES = 16
_HANSEN_SWITCH = 4.0
_HANSEN_TAIL = 30


def _gauss_jacobi(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1] and weights, summing to 1, of the n-point Gauss rule
    for the weight y^b (b >= 0).  Golub-Welsch: the nodes are the
    eigenvalues of the Jacobi matrix of (1 + x)^b on [-1, 1], mapped to
    [0, 1], and the weights the squared first components of its
    eigenvectors."""
    k = np.arange(1.0, n)
    s = 2.0 * k + b
    diag = np.concatenate(([b / (b + 2.0)], b * b / (s * (s + 2.0))))
    off = 2.0 * k * (k + b) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    return 0.5 * (x + 1.0), vec[0] ** 2


def _make_trace_hansen(p: dict, n: int) -> FunctionHandle:
    pw = p["p"]
    # F(t) = int_0^t (1 + s^p)^a ds with a = 1/p.  With T = t^p and s = t y^a,
    # F(t) = (t/p) int_0^1 y^(a-1) (1 + T y)^a dy, so for T <= U0 a
    # Gauss-Jacobi rule in the weight y^(a-1) takes one power per node.  For
    # integer a the integrand is a polynomial, which a // 2 + 1 nodes
    # integrate exactly
    a = 1.0 / pw
    count = _HANSEN_NODES if a % 1.0 else min(_HANSEN_NODES, int(a) // 2 + 1)
    nodes, weights = _gauss_jacobi(count, a - 1.0)

    def near(t, big_t):
        pts = np.multiply.outer(nodes, big_t)
        pts += 1.0
        pts **= a
        return t * linear(pts.T, weights)

    tail = _hansen_tail(pw, near)

    def hansen(w):
        t = w.ravel()
        big_t = t ** pw
        far = big_t > _HANSEN_SWITCH
        if tail is None or not far.any():
            return near(t, big_t).reshape(w.shape)
        out = np.empty_like(t)
        out[~far] = near(t[~far], big_t[~far])
        out[far] = tail(t[far], big_t[far])
        return out.reshape(w.shape)

    def batch(rows):
        return spectral(rows, hansen, lo=-CLAMP_WINDOW)

    return FunctionHandle(f"trace-hansen[p={pw!r}]", cones.psd_cone(n), batch)


def _hansen_tail(pw: float, near):
    """``trace-hansen``'s F for T = t^p > U0, or None when F overflows
    there.  There (1 + s^p)^a = s (1 + s^-p)^a = sum_k binom(a, k) s^(1-pk)
    integrates term by term from t0 = U0^a:
    F(t) = C + sum_k binom(a, k) t^2 T^-k / (p (2a - k)) + binom(a, k*) g(t),
    with k* the integer nearest 2a, g(t) = (t^e - t0^e) / e for
    e = p (2a - k*) (ln(t / t0) at e = 0) and C set by the rule ``near`` at
    t0.  The terms shrink by about 1/T > 1/U0; for integer a the series
    ends at k = a."""
    a = 1.0 / pw
    if a * np.log(_HANSEN_SWITCH) > 345.0:
        # t0 > 1e150, and F(t) >= t^2 / 2 overflows past t0
        return None
    t0 = _HANSEN_SWITCH ** a
    binom = [1.0]
    for k in range(1, int(a) + _HANSEN_TAIL):
        binom.append(binom[-1] * (a - k + 1) / k)
    kstar = round(2.0 * a)
    bstar = binom[kstar] if kstar < len(binom) else 0.0
    estar = pw * (2.0 * a - kstar)
    coef = [0.0 if k == kstar else b / (pw * (2.0 * a - k)) for k, b in enumerate(binom)]
    while coef[-1] == 0.0:
        coef.pop()

    def series(t, big_t):
        x = 1.0 / big_t
        out = coef[-1]
        for c in coef[-2::-1]:
            out = out * x + c
        return t * t * out

    const = near(np.array([t0]), np.array([t0 ** pw]))[0] - series(t0, t0 ** pw)

    def tail(t, big_t):
        out = const + series(t, big_t)
        if bstar != 0.0:
            log_ratio = np.log(t / t0)
            out += bstar * (log_ratio if estar == 0.0
                            else t0 ** estar * np.expm1(estar * log_ratio) / estar)
        return out

    return tail


def _xlogx(w):
    # 0 log 0 := 0
    return np.where(w > 0.0, w * np.log(np.maximum(w, 1e-300)), 0.0)


def _make_vn_entropy(p: dict, n: int) -> FunctionHandle:
    def batch(rows):
        return -spectral(rows, _xlogx, lo=-CLAMP_WINDOW)

    return FunctionHandle("vn-entropy", cones.psd_cone(n), batch)


def _make_logdet(p: dict, n: int) -> FunctionHandle:
    def batch(rows):
        return spectral(rows, np.log, lo=CLAMP_WINDOW, open=True)

    return FunctionHandle("logdet", cones.psd_cone(n), batch)


def _make_det_recip_pow(p: dict, n: int) -> FunctionHandle:
    beta = p["beta"]

    def batch(rows):
        return np.exp(-beta * spectral(rows, np.log, lo=CLAMP_WINDOW, open=True))

    return FunctionHandle(f"det-recip-pow[beta={beta!r}]", cones.psd_cone(n), batch)


def _make_det_shift_recip(p: dict, n: int) -> FunctionHandle:
    beta = p["beta"]

    def batch(rows):
        # I + A must stay PD; PSD inputs are fine
        return np.expm1(-beta * spectral(rows, np.log1p, lo=-0.5, clamp=-0.5))

    return FunctionHandle(f"det-shift-recip[beta={beta!r}]", cones.psd_cone(n), batch)


def _make_det_trace_inverse(p: dict, n: int) -> FunctionHandle:
    def batch(rows):
        # e_{N-1} of the eigenvalues: for each, the product of the others,
        # summed; finite on singular A, where det(A) tr(A^-1) is 0 * inf
        lam = np.linalg.eigvalsh(rows)
        others = [rowwise(np.multiply, np.delete(lam, i, axis=1)) for i in range(lam.shape[1])]
        return rowwise(np.add, np.stack(others, axis=1))

    return FunctionHandle("det-trace-inverse", cones.psd_cone(n), batch)


# ---------------------------------------------------------------------------
# completely monotone families
# ---------------------------------------------------------------------------


def _make_exp_neg_linear(p: dict, n: int) -> FunctionHandle:
    alpha = p["alpha"] if p["alpha"] is not None else 0.5 + np.arange(n) / n
    alpha = _vec_param(alpha, n, "exp-neg-linear", "alpha")

    def batch(rows):
        return np.exp(-linear(rows, alpha))

    return FunctionHandle("exp-neg-linear", cones.nonneg_orthant(n), batch)


def _make_inv_power_product(p: dict, n: int) -> FunctionHandle:
    alpha = p["alpha"] if p["alpha"] is not None else 0.5 + 0.5 * np.arange(n)
    alpha = _vec_param(alpha, n, "inv-power-product", "alpha")

    def batch(rows):
        ok = rowwise(np.logical_and, rows > 0.0)
        logs = np.log(np.where(rows > 0.0, rows, 1.0))
        return np.where(ok, np.exp(-linear(logs, alpha)), np.nan)

    return FunctionHandle("inv-power-product", cones.positive_orthant(n), batch)


def _make_logistic_pow(p: dict, n: int) -> FunctionHandle:
    a, beta = p["a"], p["beta"]
    return _scalar_handle(f"logistic-pow[a={a!r},beta={beta!r}]",
                          lambda x: (1.0 + a * np.exp(-x)) ** beta)


def _elem_sym_2(rows: np.ndarray) -> np.ndarray:
    s1 = rowwise(np.add, rows)
    s2 = rowwise(np.add, rows * rows)
    return 0.5 * (s1 * s1 - s2)


def _make_elem_sym_4(p: dict, n: int) -> FunctionHandle:
    beta = p["beta"]

    def batch(rows):
        e2 = _elem_sym_2(rows)
        return np.where(e2 > 0.0, e2 ** (-beta), np.nan)

    return FunctionHandle(f"elem-sym-4[beta={beta!r}]", cones.positive_orthant(4), batch)


def _make_elem_sym_4_shifted(p: dict, n: int) -> FunctionHandle:
    beta = p["beta"]
    center = 6.0 ** (-beta)  # value of the unshifted rule at the all-ones point

    def batch(rows):
        e2 = _elem_sym_2(rows + 1.0)
        return np.where(e2 > 0.0, e2 ** (-beta) - center, np.nan)

    return FunctionHandle(f"elem-sym-4-shifted[beta={beta!r}]", cones.nonneg_orthant(4), batch)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

A, C, R = SourceStatus.ASSERTED, SourceStatus.CONSISTENT, SourceStatus.REFUTED_CANDIDATE
L = PropertyLabel


def _build_entries() -> tuple[CatalogEntry, ...]:
    entries: list[CatalogEntry] = []
    add = entries.append

    concave_src = "concave on the half-line with a nonnegative value at 0"
    convex_src = "convex on the half-line with a nonpositive value at 0"

    add(_entry("affine-power", _make_affine_power, {L.STRONG_SUBADD: A}, concave_src,
               params={"m": (1.0, "(-inf, inf)"), "n": (0.5, "[0, inf)"), "p": (2.0, "[0, inf)"),
                       "alpha": (0.5, "[0, 1]")},
               notes="m*x + n + p*x^alpha with alpha in [0,1], n, p >= 0"))
    add(_entry("one-minus-sqrt1p", _make_one_minus_sqrt1p, {L.STRONG_SUBADD: A}, concave_src,
               params={"alpha": (1.0, "(0, inf)")}, notes="1 - sqrt(1 + alpha x^2), alpha > 0"))
    add(_entry("neg-xlogx-shift", _make_neg_xlogx_shift, {L.STRONG_SUBADD: A}, concave_src,
               params={"alpha": (0.5, "[0, 1]")}, notes="-(x+alpha) log(x+alpha), alpha in [0,1]"))
    add(_entry("log1p", _make_log1p, {L.STRONG_SUBADD: A}, concave_src))
    add(_entry("neg-log-cosh", _make_neg_log_cosh, {L.STRONG_SUBADD: A}, concave_src))
    add(_entry("e-minus-1px-pow", _make_e_minus_1px_pow, {L.STRONG_SUBADD: A}, concave_src,
               notes="e - (1+x)^(1/x), equal to 0 at x = 0 by the limit"))
    add(_entry("one-minus-exp-neg", _make_one_minus_exp_neg, {L.STRONG_SUBADD: A}, concave_src))
    add(_entry("sigmoid", _make_sigmoid, {L.STRONG_SUBADD: A}, concave_src))

    for term, sign in (("log1p", 1.0), ("log1p", -1.0), ("sin", 1.0), ("sin", -1.0), ("cos", -1.0)):
        name, factory = _make_half_sq(term, sign)
        add(_entry(name, factory, {L.STRONG_SUPERADD: A}, convex_src))
    name, factory = _make_half_sq("cos", 1.0)
    add(_entry(name, factory, {L.SECOND_DIFF_NONNEG: A, L.SUPERADD: R},
               "convex, but its value 1 at the origin already breaks two-point superadditivity",
               notes="x^2/2 + cos x; superadditivity fails at x = y = 0"))
    add(_entry("x-gamma-minus-1", _make_x_gamma_minus_1, {L.STRONG_SUPERADD: A}, convex_src,
               notes="x*Gamma(x) - 1 = Gamma(x+1) - 1"))

    add(_entry("reciprocal", _make_reciprocal, {L.SUBADD: A, L.STRONG_SUBADD: R},
               "1/x on the open half-line: subadditive yet convex, so its second differences are positive",
               notes="negative control for the strong version of subadditivity"))

    add(_entry("shannon-entropy", _make_shannon, {L.STRONG_SUBADD: A},
               "coordinatewise sum of concave terms vanishing at 0",
               default_dim=3, fixed_dim=False))
    add(_entry("sq-norm", _make_sq_norm, {L.STRONG_SUPERADD: A},
               "squared Euclidean norm; second differences equal 2<x,y>",
               default_dim=3, fixed_dim=False))
    add(_entry("inner-product", _make_inner_product, {L.STRONG_SUPERADD: A},
               "bilinear pairing on the product of two nonnegative orthants",
               default_dim=3, fixed_dim=False,
               notes="dim parameter is the factor size; points concatenate the two factor vectors"))
    add(_entry("concave-of-linear", _make_concave_of_linear, {L.STRONG_SUBADD: A},
               "Hardy-Littlewood-Polya majorization: concave of a positive linear form",
               default_dim=3, fixed_dim=False,
               params={"inner": "log1p", "a": (1.0, "[0, inf)^n")},
               notes="f(<x, a>) for a scalar strong-subadd entry f and a >= 0"))
    add(_entry("geomean2", _make_geomean2, {L.SUPERADD: C, L.STRONG_SUBADD: R},
               "bivariate geometric mean: concave and 0 at the origin, yet its "
               "second differences change sign",
               default_dim=2))
    add(_entry("pairwise-diff-convex", _make_pairwise_diff_convex, {L.STRONG_SUBADD: R},
               "sum of convex functions of coordinate differences; off-diagonal "
               "curvature is nonpositive but the diagonal is positive",
               default_dim=3, fixed_dim=False, params={"q": (2.0, "[2, inf)")},
               notes="sum over i<j of |x_i - x_j|^q, q >= 2"))
    add(_entry("jensen-gap", _make_jensen_gap, {L.STRONG_SUBADD: R},
               "Jensen gap of a concave rule; the gap of -t^2 equals a positive "
               "semidefinite quadratic, so second differences can be positive",
               default_dim=2, fixed_dim=False,
               params={"inner": "neg-square", "weights": (0.5, "[0, inf)^n")},
               notes="f(sum lam_i x_i) - sum lam_i f(x_i) with f = -t^2"))
    add(_entry("nonneg-poly", _make_nonneg_poly, {L.STRONG_SUPERADD: A},
               "polynomial with nonnegative coefficients and zero constant term",
               default_dim=3, fixed_dim=False, params={"monomials": None},
               notes="monomials parameter rows are (coeff, e_1, ..., e_N)"))
    add(_entry("lse", _make_lse,
               {L.SUBMODULAR: A, L.COMONOTONE_STRONG_SUPERADD: A, L.STRONG_SUBADD: R},
               "log-sum-exp from convex optimization; submodular by Topkis' "
               "criterion, strongly subadditive only along comonotone directions",
               default_dim=3, fixed_dim=False))

    add(_entry("lp-power-norm", _make_lp_power_norm, {L.STRONG_SUPERADD: A},
               "p-th power of the grid L^p norm; its differential is monotone "
               "on the positive cone",
               default_dim=16, fixed_dim=False,
               params={"p": (2.0, "(1, inf)"), "h": (1.0 / 16.0, "(0, inf)")},
               notes="h * sum |f_i|^p on M grid points, p > 1; dim parameter is M"))

    add(_entry("det", _make_det, {L.STRONG_SUPERADD: A},
               "F. Zhang, Matrix Theory, sec. 7.2 ex. 36 (determinant on the PSD cone)",
               default_dim=3, fixed_dim=False))
    add(_entry("logdet-pencil", _make_logdet_pencil,
               {L.SECOND_DIFF_NONPOS: A, L.STRONG_SUBADD: R},
               "log det of a positive-definite pencil: concave with antitone "
               "differential, but two-point subadditivity fails near 0 "
               "(already for one matrix: log(x+y) vs log x + log y)",
               default_dim=3, fixed_dim=False, params={"order": (3, "[1, inf)"), "matrices": None},
               notes="x -> log det(sum x_i A_i) for PD A_i; dim parameter is the weight count"))
    add(_entry("trace-pow", _make_trace_pow, {L.STRONG_SUBADD: A, L.STRONG_SUPERADD: A},
               "Bouhtou-Gaubert-Sagnol, lemma 5.3 (trace of matrix powers)",
               default_dim=3, fixed_dim=False, params={"p": (0.5, "[0, 2]")},
               notes="strong-subadd needs p in [0,1]; strong-superadd needs p in [1,2]"))
    add(_entry("trace-hansen", _make_trace_hansen, {L.STRONG_SUPERADD: A},
               "F. Hansen: (1+t^p)^(1/p) is operator monotone for p in (0,1]",
               default_dim=3, fixed_dim=False, params={"p": (0.5, "(0, 1]")},
               notes="trace F(A) with F(t) the antiderivative of (1+s^p)^(1/p): a 16-node "
                     "Gauss-Jacobi rule (Golub-Welsch) in y^(1/p-1) after s = t y^(1/p) for "
                     "t^p <= 4, its binomial tail series beyond"))
    add(_entry("vn-entropy", _make_vn_entropy, {L.STRONG_SUBADD: A},
               "von Neumann entropy -trace(A log A); log is operator monotone",
               default_dim=3, fixed_dim=False))
    add(_entry("logdet", _make_logdet, {L.SECOND_DIFF_NONNEG: R, L.SECOND_DIFF_NONPOS: C},
               "log det on the PD cone: neither subadditive nor superadditive; "
               "concave with an antitone differential, so its second differences "
               "are nonpositive (A=B=C=I already refutes the nonnegative form)",
               default_dim=3, fixed_dim=False))
    add(_entry("det-recip-pow", _make_det_recip_pow, {L.COMPLETELY_MONOTONE: A},
               "Scott-Sokal, thm 1.3: (det A)^(-beta) is completely monotone "
               "iff beta is in {0, 1/2, 1, ...} or beta >= (N-1)/2",
               default_dim=2, fixed_dim=False, params={"beta": (0.5, "[0, inf)")}))
    add(_entry("det-shift-recip", _make_det_shift_recip, {L.STRONG_SUPERADD: A},
               "(det(I+A))^(-beta) - 1: shift-and-center of a completely "
               "monotone rule, for the same beta values",
               default_dim=2, fixed_dim=False, params={"beta": (0.5, "[0, inf)")},
               notes="must-pass values of beta match the completely monotone range"))
    add(_entry("det-trace-inverse", _make_det_trace_inverse, {},
               "det(A) trace(A^-1), the sum of the principal minors of order N-1, "
               "is nondecreasing in the Loewner order",
               default_dim=3, fixed_dim=False,
               notes="its claim is the nondecreasing expression, f(U + step) >= f(U)"))

    add(_entry("exp-neg-linear", _make_exp_neg_linear, {L.COMPLETELY_MONOTONE: A},
               "exponential of a negative linear form, the prototype Laplace atom",
               default_dim=3, fixed_dim=False, params={"alpha": (None, "(0, inf)^n")},
               notes="exp(-<alpha, x>) with alpha > 0 (default alpha varies by coordinate)"))
    add(_entry("inv-power-product", _make_inv_power_product, {L.COMPLETELY_MONOTONE: A},
               "product of negative coordinate powers on the open orthant",
               default_dim=3, fixed_dim=False, params={"alpha": (None, "(0, inf)^n")},
               notes="prod x_i^(-alpha_i) with alpha_i > 0"))
    add(_entry("logistic-pow", _make_logistic_pow, {L.COMPLETELY_MONOTONE: A},
               "Scott-Sokal, ex. 2.5: (1 + a e^{-x})^beta is completely monotone "
               "iff beta is a nonnegative integer",
               params={"a": (1.0, "(0, inf)"), "beta": (1.0, "[0, inf)")},
               notes="non-integer beta is the designated refutation target"))
    add(_entry("elem-sym-4", _make_elem_sym_4, {L.COMPLETELY_MONOTONE: A},
               "Scott-Sokal, cor. 1.6: negative powers of the second elementary "
               "symmetric polynomial in four variables, beta = 0 or beta >= 1",
               default_dim=4, params={"beta": (1.0, "[0, inf)")}))
    add(_entry("elem-sym-4-shifted", _make_elem_sym_4_shifted, {L.STRONG_SUPERADD: A},
               "shift-and-center of the four-variable elementary symmetric rule",
               default_dim=4, params={"beta": (1.0, "[0, inf)")},
               notes="Phi(x + 1) - Phi(1) for the same beta range"))

    return tuple(entries)


_ENTRIES = _build_entries()
_BY_ID = {e.id: e for e in _ENTRIES}
assert len(_BY_ID) == len(_ENTRIES), "catalog ids must be unique"


def builtin_entries() -> tuple[CatalogEntry, ...]:
    """All built-in entries, in a fixed order."""
    return _ENTRIES


def lookup(entry_id: str) -> CatalogEntry:
    """Entry by id; unknown ids raise with the list of valid ids."""
    try:
        return _BY_ID[entry_id]
    except KeyError:
        raise UnknownEntryError(
            f"unknown catalog id {entry_id!r}; valid ids: {', '.join(sorted(_BY_ID))}"
        ) from None


def instantiate(
    entry: CatalogEntry | str, params: dict | None = None, dim: int | None = None
) -> FunctionHandle:
    """Concrete handle on a concrete cone; every declared parameter is
    checked against its interval before the factory runs."""
    if isinstance(entry, str):
        entry = lookup(entry)
    merged = dict(entry.default_params)
    if params:
        unknown = sorted(set(params) - set(merged))
        if unknown:
            raise _param_error(entry.id, f"unknown parameters {unknown}")
        merged.update(params)
    n = entry.default_dim if dim is None else int(dim)
    if n < 1:
        raise _param_error(entry.id, f"dimension must be positive, got {dim}")
    if entry.fixed_dim and n != entry.default_dim:
        raise _param_error(entry.id, f"dimension is fixed at {entry.default_dim}")
    try:
        _check_domains(entry, merged)
        return entry._factory(merged, n)
    except ConeCheckError:
        raise
    except (TypeError, ValueError) as exc:
        # a value of the wrong type, such as a string from the command line
        raise _param_error(entry.id, f"parameter of the wrong type: {exc}") from exc


def resolve_handle(target, params: dict | None = None, dim: int | None = None) -> FunctionHandle:
    """Accept an entry id, a CatalogEntry, or a FunctionHandle."""
    if isinstance(target, FunctionHandle):
        return target
    if isinstance(target, (CatalogEntry, str)):
        return instantiate(target, params, dim)
    raise ParameterError(f"cannot resolve {target!r} to a function handle")
