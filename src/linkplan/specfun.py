"""Special functions used by the analytical evaluators.

Everything an evaluator calls is numpy and `math` only, so no `linkplan`
command imports scipy:

- the regularized incomplete gamma functions P and Q (`gamma_pq`), by their
  series below s + 1 and Lentz's continued fraction above it;
- the CDF of a noncentral chi-square law with an even number of degrees of
  freedom (`ncx2_cdf`), the exact CDF of the RF sum gain, as the Skellam
  tail P(A - J >= n) of two Poisson counts;
- the binomial CDF over a run of counts (`binomial_cdf`);
- the generalized hypergeometric series pFq, summed until a term falls
  below `_SERIES_REL_TOL` of the total, at most `_SERIES_MAX_TERMS` terms;
- one table of ln of a product of unit-mean Gamma factors, by direct
  convolution: the FSO moments and the Gamma-Gamma product CDF read it;
- the CDF of a product of i.i.d. Gamma-Gamma gains, one P/Q sum.

Every mass or density computed outright (the P/Q prefix, the Poisson
table, the binomial mode) starts from an exponent that never cancels:
x ln(x/m) + m - x is summed as a series near x = m, and ln Gamma as
Stirling's series plus its correction.  `ncx2_cdf` needs none: its
Poisson masses are products of ratios, normalized by their own sum.

`bessel_k` (K_nu), `expint_ei` (Ei) and `laguerre` (1F1) are independent
checks of the closed forms that no command calls.  They take scipy.special
at the call from `import_scipy`, the one place the package imports scipy:
scipy is a test-only dependency, so a missing one raises an ImportError
that names the `test` extra.

All routines are real-valued double precision, pure and thread-safe.
"""
from __future__ import annotations

import importlib
import math
from functools import lru_cache

import numpy as np

_LOG2 = math.log(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# pFq summation stops once a term is below this fraction of the total, and
# raises after this many terms (the P/Q series and continued fraction too)
_SERIES_REL_TOL = 1e-12
_SERIES_MAX_TERMS = 10_000
# log-gain tables: largest node spacing (a shape-k factor's trapezoid error
# falls like e^{-pi^2/dy}), node cap (past it the left tail's mass goes to the
# edge node), and the smallest weight kept (CDFs above 1e-280 keep their
# relative precision, and no denormal reaches a convolution)
_TABLE_DY = 0.2
_TABLE_MAX_NODES = 1 << 14
_TABLE_FLOOR = 1e-300
# ncx2_cdf drops the terms below e^-_SUM_DEPTH of its result (2.9e-20:
# a thousand of them stay under a tenth of an ulp)
_SUM_DEPTH = 45.0
# ln(2^-54): a complement below this leaves 1 - it == 1.0; below
# _LOG_UNDERFLOW, e^x rounds to 0.0
_LOG_HALF_ULP_1 = -54.0 * _LOG2
_LOG_UNDERFLOW = -745.2
# ln Gamma(s) = (s - 1/2) ln s - s + ln(2 pi)/2 + _stirlerr(s), where the
# series takes over from lgamma (1e-14 absolute at s <= 15)
_STIRLING_MIN = 15.0
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
# ln(1 + u) - u = -u r + 2 r^3 sum_k r^(2k) / (2k + 3), r = u / (2 + u): for
# |u| <= 1/2, r^2 <= 1/9 and 17 terms reach 1e-17
_LOG1PMX_COEF = tuple(1.0 / (2 * k + 3) for k in range(16, -1, -1))


class ConvergenceError(ArithmeticError):
    """A series or continued fraction failed to converge within its term cap."""


def gen_hypergeometric(a_list, b_list, x):
    """Generalized hypergeometric pFq(a_list; b_list; x) by direct summation.

    Valid for p <= q (entire), or p == q+1 with |x| < 1.  Terminating series
    (some a is a non-positive integer) are summed exactly.
    """
    p, q = len(a_list), len(b_list)
    for b in b_list:
        if b <= 0 and float(b).is_integer():
            raise ValueError(f"pFq parameter b={b} is a non-positive integer")
    if p > q + 1 or (p == q + 1 and abs(x) >= 1.0):
        # terminating numerator parameter still makes the sum finite
        if not any(a <= 0 and float(a).is_integer() for a in a_list):
            raise ValueError(
                f"pFq({p},{q}) series diverges for |x|={abs(x)!r}; "
                "need p <= q, or p == q+1 with |x| < 1"
            )
    term = 1.0
    total = 1.0
    for j in range(_SERIES_MAX_TERMS):
        ratio = x / (j + 1.0)
        for a in a_list:
            ratio *= a + j
        for b in b_list:
            ratio /= b + j
        term *= ratio
        if term == 0.0:
            return total
        total += term
        if abs(term) < _SERIES_REL_TOL * max(abs(total), 1e-300):
            return total
    raise ConvergenceError(
        f"pFq series did not converge in {_SERIES_MAX_TERMS} terms (x={x})"
    )


# ---------------------------------------------------------------------------
# log-prefixes, P and Q
# ---------------------------------------------------------------------------

def _log1pmx(u):
    """ln(1 + u) - u, elementwise for u >= -3/4, to a few ulps: by the
    series in r = u / (2 + u) for |u| <= 1/2 (no cancellation), else
    directly (the terms cancel at most 3 to 1)."""
    r = u / (2.0 + u)
    r2 = r * r
    acc = 0.0
    for c in _LOG1PMX_COEF:
        acc = acc * r2 + c
    return np.where(np.abs(u) <= 0.5, 2.0 * r * r2 * acc - u * r, np.log1p(u) - u)


def _stirlerr(s):
    """ln Gamma(s + 1) - [(s + 1/2) ln s - s + ln(2 pi)/2] for s > 0."""
    if s <= _STIRLING_MIN:
        return math.lgamma(s + 1.0) - (s + 0.5) * math.log(s) + s - _HALF_LOG_2PI
    inv2 = 1.0 / (s * s)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * inv2 + c
    return acc / s


def _bd0(x, m):
    """x ln(x / m) + m - x >= 0, elementwise for x > 0, m >= 0: the exponent
    deficit of a Poisson(m) mass at x, or of a Gamma(x) density at m.  For
    m >= x/4 it is -x ln1pmx((m - x)/x), which does not cancel; below,
    x ln(x/m) outweighs m - x at least 1.8 to 1."""
    with np.errstate(divide="ignore", over="ignore"):
        far = x * np.log(x / m) + m - x
    near = -x * _log1pmx(np.maximum(m - x, -0.75 * x) / x)
    return np.where(m >= 0.25 * x, near, far)


def gamma_pq(s, z):
    """(P(s, z), Q(s, z)), the regularized lower and upper incomplete gamma
    functions, for a shape s > 0 and z >= 0 (a float or an array).

    Below z = s + 1 the series P = z^s e^-z / Gamma(s + 1) sum_k z^k /
    ((s + 1) ... (s + k)) gives P, and Q = 1 - P; above it Lentz's continued
    fraction gives Q, and P = 1 - Q, which is exactly 1.0 once Q < 2^-54.
    Both sides share the prefix z^s e^-z / Gamma(s).
    """
    if not s > 0:
        raise ValueError(f"shape s must be > 0, got {s}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be >= 0")
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    # z^s e^-z / Gamma(s) as e^-_bd0(s, z) sqrt(s / 2 pi) e^-_stirlerr(s), never
    # e^(s ln z - z - lgamma(s)), whose terms cancel for z near a large s
    with np.errstate(under="ignore"):
        front = np.exp(-_bd0(s, z)) * math.exp(
            0.5 * math.log(s) - _HALF_LOG_2PI - _stirlerr(s))
    p, q = np.empty_like(z), np.empty_like(z)
    low = z < s + 1.0
    zs = z[low]
    term, total, k = np.ones_like(zs), np.ones_like(zs), s
    for _ in range(_SERIES_MAX_TERMS):
        k += 1.0
        term *= zs / k
        total += term
        if np.all(term <= 1e-17 * total):
            break
    else:
        raise ConvergenceError(f"P({s}, z) series did not converge")
    p[low] = front[low] * total / s
    q[low] = 1.0 - p[low]
    zc = z[~low]
    tiny = 1e-300
    b = zc + 1.0 - s
    c = np.full_like(zc, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _SERIES_MAX_TERMS):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) <= 4e-16):  # 2 ulps: the last factor
            break
    else:
        raise ConvergenceError(f"Q({s}, z) continued fraction did not converge")
    q[~low] = front[~low] * h
    p[~low] = 1.0 - q[~low]
    if scalar:
        return float(p[0]), float(q[0])
    return p, q


# ---------------------------------------------------------------------------
# noncentral chi-square and binomial CDFs
# ---------------------------------------------------------------------------

def _poisson_span(mu: float, depth: float):
    """(lo, hi) outside which a Poisson(mu) mass is below about e^-depth
    times its peak: there its exponent deficit _bd0(mu (1 + u), mu) exceeds
    depth, as it is at least mu u^2 / (2 (1 + u/3)) for u > 0 and
    mu u^2 / 2 for u < 0 (Bernstein)."""
    return (mu - math.sqrt(2.0 * depth * mu),
            mu + depth / 3.0 + math.sqrt(depth * depth / 9.0 + 2.0 * depth * mu))


@lru_cache(maxsize=64)
def _poisson_tails(mu: float):
    """(j0, cdf, sf) for J ~ Poisson(mu): rows [P(J <= j), 1] and [P(J >= j),
    1] at j = j0, j0 + 1, ..., over every j whose mass reaches `_TABLE_FLOOR`,
    plus one column each side that holds the tails' limits (cdf 0 below, 1
    above; sf 1 below, 0 above), so that an index clipped to the table reads
    the right value.  Each tail is summed from its own end, so both keep
    their relative precision.  The arrays are read-only."""
    lo, hi = _poisson_span(mu, -math.log(_TABLE_FLOOR)) if mu else (0.0, 0.0)
    j0 = max(0, math.floor(lo)) - 1
    # P(J = j) = e^-_bd0(j, mu) e^-(ln(2 pi j)/2 + _stirlerr(j)), so that no
    # exponent near -700 takes a second rounding; P(J = 0) = e^-mu
    j = np.arange(max(j0, 0) + 1, math.ceil(hi) + 1)
    pmf = np.exp(-_bd0(j, mu)) * np.exp(-0.5 * np.log(2.0 * math.pi * j)
                                        - [_stirlerr(i) for i in j.tolist()])
    if j0 < 0:
        pmf = np.concatenate(([math.exp(-mu)], pmf))
    cdf = np.concatenate(([0.0], np.cumsum(pmf), [1.0]))
    sf = np.concatenate(([1.0], np.cumsum(pmf[::-1])[::-1], [0.0]))
    cdf[-2] = sf[1] = 1.0  # the mass beyond is below 1e-300
    ones = np.ones_like(cdf)
    cdf, sf = np.stack((cdf, ones)), np.stack((sf, ones))
    cdf.flags.writeable = sf.flags.writeable = False
    return j0, cdf, sf


def ncx2_cdf(x: float, n: int, nc: float) -> float:
    """P(X <= x) for X noncentral chi-square with 2n degrees of freedom (n a
    positive integer) and noncentrality nc >= 0.

    X is the Poisson(nc/2) mixture of central chi-squares with 2(n + J)
    degrees of freedom, and P(chi2_2m <= x) = P(A >= m) for A ~ Poisson(x/2),
    so P(X <= x) = P(A - J >= n), A and J independent.  The side of n away
    from the mean x/2 - nc/2 is summed, sum_a P(A = a) P(J <= a - n) or its
    complement sum_a P(A = a) P(J >= a - n + 1), with J's tails cached per
    nc (`_poisson_tails`).  A's masses are a cumulative product of ratios,
    normalized by their own sum over A's bulk.  The sum runs over the a
    whose term can reach e^-_SUM_DEPTH of the result, or of A's mass: with
    the exponential tilt t that centers A - J on the boundary, the tilted A
    lies within `_poisson_span` of x t / 2.  A side whose Chernoff bound
    rounds it away returns 0.0 or 1.0 at once.
    """
    if not (n >= 1 and nc >= 0):
        raise ValueError(f"need n >= 1 and nc >= 0, got n={n}, nc={nc}")
    if x <= 0:
        return 0.0
    if x == math.inf:
        return 1.0
    ma, mj = 0.5 * x, 0.5 * nc
    lower = ma - mj < n - 0.5  # the CDF itself is the small side
    m = n if lower else n - 1  # boundary: A - J >= n, or A - J <= n - 1
    # tilt t solves ma t - mj / t = m; the Chernoff bound on the side is
    # E[t^(A - J)] / t^m
    t = (m + math.sqrt(m * m + 4.0 * ma * mj)) / (2.0 * ma)
    log_bound = (ma * (t - 1.0) + (mj / t - mj if mj else 0.0)
                 - (m * math.log(t) if m else 0.0))
    if log_bound < (_LOG_UNDERFLOW if lower else _LOG_HALF_ULP_1):
        return 0.0 if lower else 1.0
    # A's bulk and the tilted A: t >= 1 on the lower side, t <= 1 above
    a_lo = max(0, math.floor(_poisson_span(min(ma, ma * t), _SUM_DEPTH)[0]))
    a_hi = math.ceil(_poisson_span(max(ma, ma * t), _SUM_DEPTH)[1])
    j0, cdf, sf = _poisson_tails(mj)
    tail = cdf if lower else sf
    # P(A = a) / P(A = a_lo) for a = a_lo .. a_hi, then [sum of ratio * tail
    # at a - m, sum of ratio]
    ratio = np.arange(a_lo + 1.0, a_hi + 1.0)
    np.multiply.accumulate(np.divide(ma, ratio, out=ratio), out=ratio)
    i = a_lo - m - j0
    if 0 <= i and i + len(ratio) < tail.shape[1]:
        total, mass = tail[:, i] + tail[:, i + 1:i + 1 + len(ratio)] @ ratio
    else:  # an index past the table reads its limit column
        total, mass = tail.take(np.arange(i, i + len(ratio) + 1), axis=1, mode="clip") \
            @ np.concatenate(([1.0], ratio))
    side = total / mass
    return side if lower else 1.0 - side


def binomial_cdf(k, n: int, p: float):
    """P(B <= k) for B ~ Binomial(n, p), 0 < p < 1, at each k of an ascending
    run of consecutive integers: a cumulative sum of masses, each a product
    of mass ratios from the exact log-mass at the mode.  The sum starts where
    Chernoff's bound on the mass below, e^-(np - j)^2 / 2np at j, falls under
    e^-_SUM_DEPTH of the first count's mass (or of 1, from the mean up)."""
    k = np.asarray(k)
    q = 1.0 - p
    k0 = int(k[0])
    mode = min(n, math.floor((n + 1) * p))
    mean = np.array([n * p, n * q])  # the deficits at j and n - j in one _bd0 call
    depth = _SUM_DEPTH
    if 0 < k0 < n * p:  # -ln P(B = k0), less its Stirling corrections
        bd = _bd0(np.array([k0, n - k0]), mean)
        depth += bd[0] + bd[1] + 0.5 * math.log(2.0 * math.pi * k0 * (n - k0) / n)
    lo = max(0, min(k0, math.floor(n * p - math.sqrt(2.0 * n * p * depth))))
    hi = max(int(k[-1]), lo)
    anchor = min(max(mode, lo), hi)
    if anchor == 0:
        log_anchor = n * math.log1p(-p)
    elif anchor == n:
        log_anchor = n * math.log(p)
    else:  # Loader's saddle-point form of the log-mass
        bd = _bd0(np.array([anchor, n - anchor]), mean)
        log_anchor = (_stirlerr(n) - _stirlerr(anchor) - _stirlerr(n - anchor) - bd[0] - bd[1]
                      + 0.5 * math.log(n / (2.0 * math.pi * anchor * (n - anchor))))
    up = np.arange(anchor, hi, dtype=float)      # P(i + 1) / P(i)
    down = np.arange(anchor, lo, -1, dtype=float)  # P(i - 1) / P(i)
    pmf = np.concatenate((np.cumprod(down / (n - down + 1.0) * (q / p))[::-1], [1.0],
                          np.cumprod((n - up) / (up + 1.0) * (p / q))))
    cdf = np.cumsum(pmf * math.exp(log_anchor))
    return cdf[k - lo]


# ---------------------------------------------------------------------------
# scipy-backed checks
# ---------------------------------------------------------------------------

def import_scipy(name: str):
    """scipy.<name>, imported at the call.  scipy is a test-only dependency
    (`pip install .` leaves it out), so a missing one raises an ImportError
    that names the extra that brings it."""
    try:
        return importlib.import_module(f"scipy.{name}")
    except ImportError as exc:
        raise ImportError(
            f"scipy.{name} is not installed; the reference functions that check "
            "the closed forms need it: pip install 'linkplan[test]'") from exc


def bessel_k(order, x):
    """Modified Bessel function of the second kind K_order(x), x > 0."""
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    return float(import_scipy("special").kv(order, x))


def laguerre(order, x):
    """Laguerre function L_order(x) = 1F1(-order; 1; x) (polynomial for
    integer order, entire function otherwise)."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return float(import_scipy("special").hyp1f1(-order, 1.0, x))


def expint_ei(x):
    """Exponential integral Ei(x) for x < 0, where Ei(x) = -E1(-x)."""
    if x >= 0:
        raise ValueError(f"expint_ei requires x < 0, got {x}")
    return float(import_scipy("special").expi(x))


# ---------------------------------------------------------------------------
# Gamma-Gamma gains
# ---------------------------------------------------------------------------

def _gamma_log_weights(k, dy):
    """(first node index j0, weights f(y_j) dy on the nodes y_j = j dy) of
    ln X, X a unit-mean Gamma(k) variate: f(y) = k^k e^{ky - k e^y}/Gamma(k).
    The left tail decays like e^{ky}, the right one like exp(-k e^y).  Where
    the node cap cuts the left tail, the first node also takes the cut
    nodes' mass: P(ln X < y) = P(k, k e^y) below its cell, y = y_0 - dy/2,
    times (x/2) / sinh(x/2), x = k dy, the ratio of the trapezoid sum of an
    e^{ky} tail to its integral.  A cap that would cut off the mode (of one
    factor past about 6.5e7, or of a wide factor at the spacing of a far
    narrower one) raises `ConvergenceError` naming the shape."""
    # ln(k^k e^-k / Gamma(k)), without the cancellation of k ln k - k - lgamma(k)
    c = 0.5 * math.log(k) - _HALF_LOG_2PI - _stirlerr(k)
    # f dy < _TABLE_FLOOR beyond both edges, where k (e^y - 1 - y) > depth
    depth = -math.log(_TABLE_FLOOR / dy) + abs(c)
    j_hi = math.ceil((math.log1p(2.0 * depth / k) + 1.0) / dy)
    j_lo = max(math.floor(-(depth / k + 1.0) / dy), j_hi - _TABLE_MAX_NODES + 1)
    if j_lo > 0:  # checked before numpy sees indices, which may pass int64
        raise ConvergenceError(
            f"log-gain table of Gamma factor {k:g}: the {_TABLE_MAX_NODES}-node cap "
            f"at spacing {dy:.3g} cuts off the mode")
    y = np.arange(j_lo, j_hi + 1) * dy
    w = np.exp(k * (y - np.expm1(y)) + c) * dy
    if j_lo == j_hi - _TABLE_MAX_NODES + 1:
        y_cut = y[0] - 0.5 * dy
        z = k * math.exp(y_cut)
        # once z underflows, P(k, z) is its series' first term z^k / Gamma(k + 1)
        tail = (gamma_pq(k, z)[0] if z > 0.0
                else math.exp(k * (math.log(k) + y_cut) - math.lgamma(k + 1.0)))
        x = 0.5 * k * dy  # sinh overflows past x = 710.47; the ratio's limit is 0
        w[0] += tail * x / math.sinh(x) if x < 710.0 else 0.0
    return _trim(j_lo, w)


def _trim(j0, w):
    """Drop the end nodes below `_TABLE_FLOOR`; past the node cap, fold the
    left-tail nodes' mass into the first node kept."""
    keep = np.flatnonzero(w >= _TABLE_FLOOR)
    lo = max(keep[0], keep[-1] + 1 - _TABLE_MAX_NODES)
    if lo > keep[0]:
        w[lo] += w[:lo].sum()
    return j0 + lo, w[lo:keep[-1] + 1]


@lru_cache(maxsize=64)
def gamma_log_table(shapes):
    """Nodes y and weights w of ln(X_1 ... X_m) for independent unit-mean
    Gamma(shapes[i]) factors X_i: E[h(ln prod X)] = sum w h(y) for smooth h.

    Each factor's log-density is analytic and decays exponentially at both
    ends, so its trapezoid weights are exact to round-off once the spacing
    resolves the narrowest factor: two nodes or more per standard deviation
    sqrt(psi'(k)) of its ln, as psi'(k) > 1/k + 1/(2 k^2) (from A&S 6.4.1,
    psi'(k) = int_0^inf t e^-kt / (1 - e^-t) dt, and t / (1 - e^-t) >= 1 + t/2).  Direct convolution keeps every weight's
    relative precision deep in the tails, where an FFT adds 1e-16 times the
    peak.  Past the node cap, a heavy left tail's mass moves onto the first
    node kept: the table keeps mass 1, and only the tail's shape below that
    node is lost.  A mass off 1 by more than 1e-10 (the spacing or the
    weight floor lost some) raises `ConvergenceError`, on every call.  The
    arrays are read-only.
    """
    k_max = max(shapes)
    dy = min(_TABLE_DY, 0.5 * math.sqrt(1.0 / k_max + 0.5 / (k_max * k_max)))
    j0, w = 0, np.ones(1)
    for k in sorted(shapes, reverse=True):  # narrow factors first: short operands
        j, f = _gamma_log_weights(k, dy)
        j0, w = _trim(j0 + j, np.convolve(w, f))
    mass = w.sum()
    if abs(mass - 1.0) > 1e-10:
        raise ConvergenceError(
            f"log-gain table of Gamma factors ({', '.join(f'{k:g}' for k in shapes)}) "
            f"holds mass {mass:.17g}")
    y = (j0 + np.arange(len(w))) * dy
    y.flags.writeable = w.flags.writeable = False
    return y, w


def gg_product_cdf(a, b, n, x):
    """CDF at x of the product of n i.i.d. Gamma-Gamma(a, b) gains.

    The product is one unit-mean Gamma(s) factor, s = min(a, b), times the
    other 2n - 1 factors Z, so F(x) = E[P(s, s x / Z)], P the regularized
    lower incomplete gamma function (`gamma_pq`): one sum over
    `gamma_log_table` of ln Z, taken on the target's tail side (1 - sum w Q
    above the median).
    """
    if n < 1 or n != int(n):
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > 6:
        raise ValueError(f"product order n={n} unsupported (max 6)")
    if a <= 0 or b <= 0:
        raise ValueError("shaping parameters must be positive")
    if x <= 0:
        return 0.0
    n = int(n)
    s = min(a, b)
    y, w = gamma_log_table((max(a, b),) * n + (s,) * (n - 1))
    # P(s, z) is 1 long before z = e^700 and Q(s, z) 0
    z = np.exp(np.minimum(math.log(s * x) - y, 700.0))
    p, q = gamma_pq(s, z)
    lower = float(w @ p)
    if lower <= 0.5:
        return lower
    return float(1.0 - w @ q)
