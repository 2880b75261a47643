"""Closed-form counter distributions and decoding-failure-rate prediction.

For a uniformly random weight-u error on a (v, w)-regular code of length n,
the counter of a position behaves (under the usual independence heuristic)
as a Binomial(v, rho) variable, where rho is the probability that one
parity check containing the position is unsatisfied; rho differs between
error positions (rho1) and error-free positions (rho0). A single-flip
iteration picks a wrong position whenever the maximum counter over the
n - u error-free positions reaches the maximum over the u error positions,
which gives a per-iteration failure probability q_u. With the iteration
budget equal to the error weight t, decoding succeeds only if every
iteration flips an error position, so the failure rate is
1 - prod_{u=1..t} (1 - q_u). Ties between the two maxima are counted as
failures, making the prediction a slight overestimate by construction.

``predict_sweep`` builds, once for each u up to the largest t, the two rho
values (``rho``), the counter pmfs (``counter_pmfs``) and log q_u
(``log_iteration_failure``), and reads every t of the sweep off the prefix
q_1..q_t; ``predict_dfr`` is a sweep of one t.
Only log-domain quantities are kept: log pmfs from log-gamma binomials and
one log cdf per counter class, a list of floats over x = 0..v. Each entry
is chosen once, when the pmfs are built: log1p of minus the mass above x
where the cdf is near 1, else a running ``logaddexp`` from below.
``log_iteration_failure`` raises those entries to the class sizes n - u
and u by one multiplication each; the product over u is assembled via
expm1, one running prefix for the whole sweep. Predictions therefore
remain accurate far below the 2**-128 regime where direct evaluation
underflows. An arbitrary-precision cross-check mode evaluates the same
formulas naively under mpmath with a configurable number of digits.

Sums of exponentials go through ``_logsumexp``, a plain-numpy copy of the
arithmetic of ``scipy.special.logsumexp`` (scipy >= 1.15, the
Blanchard-Higham-Higham form: the maxima are split out of the sum). scipy's
own spends about 90 us per call on array-API dispatch for arrays of 1-14
floats, two thirds of a sweep's time; the local one takes about 6 us and
gives the same bits (both on a 2-core Xeon VM, numpy 2.4, scipy 1.17). So
``predict`` digits no longer depend on which log-sum-exp the installed scipy
has; only ``gammaln`` still comes from scipy. Log-gamma values that depend
only on n (for rho) or on v (for the binomial coefficients) are tabulated
once per shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import mpmath
import numpy as np
from scipy.special import gammaln

_NEG_INF = float("-inf")

# Below this log-probability the product over iterations is, to double
# precision, identical to the plain sum of the q_u, so the total is
# assembled by a log-sum-exp instead (stays finite long after linear underflow).
_LOG_TINY_SWITCH = math.log(1e-15)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a non-empty 1-D float64 array, bit for bit as
    ``scipy.special.logsumexp(a)`` computes it.

    With top = max(a) and m the number of entries equal to it, the other
    entries are summed as s = sum(exp(a - top)), with the maxima set to
    -inf so the summation order is scipy's, and the result is
    log1p(s / m) + log(m) + top. A non-finite result (top is not finite, or
    the sum overflows) falls back to log(sum(exp(a))), as scipy's does.
    """
    top = np.maximum.reduce(a)
    if math.isfinite(top):
        at_top = a == top
        m = np.float64(np.count_nonzero(at_top))
        shifted = a - top
        shifted[at_top] = _NEG_INF
        s = np.add.reduce(np.exp(shifted, out=shifted))
        if s != 0:
            s /= m
        out = np.log1p(s) + np.log(m) + top
        if math.isfinite(out):
            return float(out)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return float(np.log(np.add.reduce(np.exp(a))))


def rho(n: int, w: int, u: int, *, exact: bool = False):
    """Per-check unsatisfied probabilities (rho1, rho0) at residual weight u.

    rho1 applies to a position carrying an error, rho0 to one that does
    not. For u = 0 there are no error positions, so rho1 is None and
    rho0 = 0. With ``exact`` the values are returned as Fractions.
    """
    if not 1 <= w <= n:
        raise ValueError(f"row weight {w} out of range for length {n}")
    if not 0 <= u <= n:
        raise ValueError(f"residual weight {u} out of range for length {n}")

    if exact:
        denom = math.comb(n - 1, w - 1)
        rho1 = None
        if u >= 1:
            num1 = sum(
                math.comb(u - 1, l) * math.comb(n - u, w - 1 - l)
                for l in range(0, min(w - 1, u - 1) + 1, 2)
            )
            rho1 = Fraction(num1, denom)
        num0 = sum(
            math.comb(u, l) * math.comb(n - 1 - u, w - 1 - l)
            for l in range(1, min(w - 1, u) + 1, 2)
            if w - 1 - l <= n - 1 - u
        )
        return rho1, Fraction(num0, denom)

    lgamma, log_denom = _rho_tables(n, w)
    rho1 = _class_rho(u - 1, n - u, w, 0, lgamma, log_denom) if u >= 1 else None
    return rho1, _class_rho(u, n - 1 - u, w, 1, lgamma, log_denom)


@lru_cache(maxsize=16)
def _rho_tables(n: int, w: int) -> tuple[np.ndarray, np.float64]:
    """gammaln(x) for x in [0, n], which covers every argument ``rho``
    takes at length n, and log C(n-1, w-1) from it."""
    lgamma = gammaln(np.arange(n + 1))
    lgamma.setflags(write=False)
    return lgamma, lgamma[n] - lgamma[w] - lgamma[n - w + 1]


def _class_rho(a: int, b: int, w: int, first: int, lgamma: np.ndarray, log_denom: float) -> float:
    """sum of C(a, l) * C(b, w-1-l) / C(n-1, w-1) over l = first, first+2, ...

    Evaluated in the log domain, log-gamma values read from ``lgamma``;
    terms with w-1-l outside [0, b] are zero and left out.
    """
    lo = max(first, w - 1 - b)
    l = np.arange(lo + (lo - first) % 2, min(w - 1, a) + 1, 2)
    if not l.size:
        return 0.0
    k = w - 1 - l
    terms = (
        (lgamma[a + 1] - lgamma[l + 1] - lgamma[a - l + 1])
        + (lgamma[b + 1] - lgamma[k + 1] - lgamma[b - k + 1])
        - log_denom
    )
    return float(min(1.0, math.exp(_logsumexp(terms))))


@lru_cache(maxsize=16)
def _binom_coefficients(v: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, v - x, log C(v, x)) over x in [0, v], read-only."""
    x = np.arange(v + 1)
    parts = (x, v - x, gammaln(v + 1) - gammaln(x + 1) - gammaln(v - x + 1))
    for part in parts:
        part.setflags(write=False)
    return parts


def _log_binom_pmf(v: int, p: float) -> np.ndarray:
    """log Binomial(v, p) pmf over x in [0, v], endpoints special-cased."""
    out = np.full(v + 1, _NEG_INF)
    if p <= 0.0:
        out[0] = 0.0
    elif p >= 1.0:
        out[v] = 0.0
    else:
        x, rest, lc = _binom_coefficients(v)
        out = lc + x * math.log(p) + rest * math.log1p(-p)
    return out


@dataclass(frozen=True)
class CounterDistribution:
    """Counter laws of error (``*1``) and error-free (``*0``) positions at
    residual weight u.

    ``log_g*`` is the log pmf over x in [0, v] and ``log_cdf*`` the log cdf,
    a list of floats. The ``*1`` fields are None when there is no error
    position (u = 0).
    """

    log_g1: np.ndarray | None
    log_g0: np.ndarray
    log_cdf1: list[float] | None
    log_cdf0: list[float]


def _log_cdf(log_g: np.ndarray) -> list[float]:
    """log cdf of a log pmf: log1p of minus the mass strictly above x where
    that mass is below 1/2 (accurate where the cdf is near 1), else the
    running ``logaddexp`` from below (accurate where it is near 0)."""
    tail = np.cumsum(np.exp(log_g)[::-1])[::-1][1:].tolist() + [0.0]
    log_cum = np.logaddexp.accumulate(log_g).tolist()
    return [math.log1p(-t) if t < 0.5 else lc for t, lc in zip(tail, log_cum)]


def counter_pmfs(v: int, rho1: float | None, rho0: float) -> CounterDistribution:
    """Binomial counter pmfs over [0, v] for the two position classes."""
    for name, p in (("rho1", rho1), ("rho0", rho0)):
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    log_g0 = _log_binom_pmf(v, rho0)
    if rho1 is None:
        return CounterDistribution(None, log_g0, None, _log_cdf(log_g0))
    log_g1 = _log_binom_pmf(v, rho1)
    return CounterDistribution(log_g1, log_g0, _log_cdf(log_g1), _log_cdf(log_g0))


def log_iteration_failure(n: int, v: int, u: int, dist: CounterDistribution) -> float:
    """log q_u: probability that the error-free maximum reaches the error one.

    q_u = sum_x P(max of n-u error-free counters = x) * P(all u error
    counters <= x). The pmf of the maximum comes from consecutive cdf
    powers, differenced in the log domain to avoid cancellation.
    """
    if u < 1:
        raise ValueError("residual weight must be at least 1")
    if dist.log_cdf1 is None:
        raise ValueError("distribution built without rho1 (u = 0)")
    m = n - u
    a_prev = _NEG_INF  # log cdf0(x-1)^m
    terms = []
    for x in range(v + 1):
        c0 = dist.log_cdf0[x]
        a_cur = _NEG_INF if c0 == _NEG_INF else m * c0  # at m = 0, 0 * -inf is nan
        if a_cur != _NEG_INF:
            if a_prev == _NEG_INF:
                log_f0 = a_cur
            else:
                diff = a_prev - a_cur
                log_f0 = a_cur + math.log(-math.expm1(diff)) if diff < 0.0 else _NEG_INF
            if log_f0 != _NEG_INF:
                log_c1 = u * dist.log_cdf1[x]
                if log_c1 != _NEG_INF:
                    terms.append(log_f0 + log_c1)
        a_prev = a_cur
    if not terms:
        return _NEG_INF
    return float(min(0.0, _logsumexp(np.array(terms))))


@dataclass(frozen=True)
class DfrPrediction:
    """Predicted failure rate for weight-t errors with iteration budget t."""

    n: int
    r: int
    v: int
    w: int
    t: int
    per_iteration_failure: np.ndarray
    dfr_linear: float
    log_dfr: float
    mode: str

    @property
    def log2_dfr(self) -> float:
        return self.log_dfr / math.log(2.0)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "v": self.v,
            "w": self.w,
            "t": self.t,
            "q": [float(q) for q in self.per_iteration_failure],
            "dfr": self.dfr_linear,
            "log2_dfr": self.log2_dfr,
        }


def _check_regular_profile(n: int, r: int, v: int, w: int) -> None:
    if n < 1 or r < 1 or v < 1 or w < 1:
        raise ValueError("n, r, v, w must be positive")
    if w > n or v > r:
        raise ValueError("weights exceed dimensions")
    if n * v != r * w:
        raise ValueError(
            f"profile is not (v,w)-regular: n*v = {n * v} but r*w = {r * w}; "
            "the failure model requires constant column and row weights"
        )


def _assemble(log_qs: list[float], t_min: int) -> list[tuple[float, float]]:
    """(dfr, log_dfr) of every prefix log_qs[:t], t = t_min..len(log_qs).

    One pass over the q_u: the running maximum, the running sum of
    log1p(-q_u) and whether some q_u is 1 carry from each t to the next, so
    every t adds the same terms in the same order as summing its own
    prefix. While the maximum stays below the tiny switch (a prefix of the
    t, since the maximum only grows), each t takes a log-sum-exp of its own
    prefix: a running one would round differently.
    """
    out = [(0.0, _NEG_INF)] if t_min == 0 else []  # the empty prefix
    finite = []
    top = _NEG_INF
    acc = 0.0
    certain = False
    for t, lq in enumerate(log_qs, start=1):
        if lq != _NEG_INF:
            finite.append(lq)
            top = max(top, lq)
            certain = certain or lq >= 0.0
            if not certain:
                acc += math.log1p(-math.exp(lq))
        if t < t_min:
            continue
        if not finite:
            out.append((0.0, _NEG_INF))
        elif top < _LOG_TINY_SWITCH:
            log_dfr = _logsumexp(np.array(finite))
            out.append((math.exp(log_dfr), log_dfr))
        elif certain:
            out.append((1.0, 0.0))
        else:
            dfr = -math.expm1(acc)
            out.append((dfr, math.log(dfr) if dfr > 0.0 else _NEG_INF))
    return out


def predict_sweep(
    n: int, r: int, v: int, w: int, t_min: int, t_max: int, *, mode: str = "fast", dps: int = 60
) -> list[DfrPrediction]:
    """Failure rates of single-flip decoding for t = t_min..t_max, budget t.

    The product runs over residual weights u = 1..t; iteration number and
    residual weight are interchangeable because every successful iteration
    removes exactly one error. So q_u does not depend on t: it is computed
    once for u = 1..t_max and every t reads the prefix q_1..q_t. ``mode``
    selects the log-domain float path ("fast") or the mpmath cross-check
    ("exact") with ``dps`` digits.
    """
    _check_regular_profile(n, r, v, w)
    for t in (t_min, t_max):
        if not 0 <= t <= n:
            raise ValueError(f"error weight {t} out of range for length {n}")
    if t_max < t_min:
        raise ValueError(f"empty range: t_max {t_max} < t_min {t_min}")
    if dps < 1:
        raise ValueError(f"dps must be at least 1, got {dps}")
    if mode == "exact":
        return _predict_sweep_mp(n, r, v, w, t_min, t_max, dps)
    if mode != "fast":
        raise ValueError(f"unknown mode {mode!r}")

    log_qs = []
    for u in range(1, t_max + 1):
        r1, r0 = rho(n, w, u)
        dist = counter_pmfs(v, r1, r0)
        log_qs.append(log_iteration_failure(n, v, u, dist))
    qs = np.exp(np.array(log_qs, dtype=np.float64))
    return [
        DfrPrediction(n, r, v, w, t, qs[:t].copy(), dfr, log_dfr, "fast")
        for t, (dfr, log_dfr) in enumerate(_assemble(log_qs, t_min), start=t_min)
    ]


def predict_dfr(n: int, r: int, v: int, w: int, t: int, *, mode: str = "fast", dps: int = 60) -> DfrPrediction:
    """Failure rate at one error weight t: a sweep of one point."""
    return predict_sweep(n, r, v, w, t, t, mode=mode, dps=dps)[0]


def _predict_sweep_mp(n: int, r: int, v: int, w: int, t_min: int, t_max: int, dps: int) -> list[DfrPrediction]:
    """Same formulas evaluated naively under mpmath with ``dps`` digits.

    Exact-rational evaluation is out of reach (the cdf powers raise
    4000-bit rationals to exponents near n), so the oracle uses
    arbitrary-precision floating point with generous guard digits instead.
    """
    with mpmath.mp.workdps(dps):
        one = mpmath.mpf(1)
        qs = []
        success = one
        preds = []
        for t in range(t_max + 1):
            if t > 0:
                qs.append(_mp_iteration_failure(n, v, w, t))
                success *= one - qs[-1]
            if t >= t_min:
                dfr = one - success
                log_dfr = float(mpmath.log(dfr)) if dfr > 0 else _NEG_INF
                qs_f = np.array([float(q) for q in qs]) if qs else np.empty(0)
                preds.append(DfrPrediction(n, r, v, w, t, qs_f, float(dfr), log_dfr, "exact"))
        return preds


def _mp_iteration_failure(n: int, v: int, w: int, u: int):
    """q_u under the current mpmath precision, from the exact rho."""
    one = mpmath.mpf(1)
    r1_frac, r0_frac = rho(n, w, u, exact=True)
    r1 = mpmath.mpf(r1_frac.numerator) / r1_frac.denominator
    r0 = mpmath.mpf(r0_frac.numerator) / r0_frac.denominator
    g1 = [mpmath.binomial(v, x) * r1**x * (one - r1) ** (v - x) for x in range(v + 1)]
    g0 = [mpmath.binomial(v, x) * r0**x * (one - r0) ** (v - x) for x in range(v + 1)]
    m = n - u
    q = mpmath.mpf(0)
    prev = mpmath.mpf(0)
    for cum0, cum1 in zip(accumulate(g0), accumulate(g1)):
        cur = cum0**m
        f0 = cur - prev
        q += f0 * cum1**u
        prev = cur
    return q
