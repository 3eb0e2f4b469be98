"""Special functions used by the analytical evaluators.

The standard functions come from scipy.special: `bessel_k` (K_nu),
`expint_ei` (Ei) and `laguerre` (1F1) are named entry points over it that
check their domain.  This module adds what scipy lacks:

- the generalized hypergeometric series pFq, summed until a term falls
  below `_SERIES_REL_TOL` of the total, at most `_SERIES_MAX_TERMS` terms;
- the Gamma-Gamma log-gain density, on `kve` (`channel.fso_pdf` reads it);
- one table of ln of a product of unit-mean Gamma factors, by direct
  convolution: the FSO moments and the Gamma-Gamma product CDF read it;
- the CDF of a product of i.i.d. Gamma-Gamma gains, one `gammainc` sum.

All routines are real-valued double precision, pure and thread-safe.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import expi, gammainc, gammaincc, hyp1f1, kv, kve, polygamma

__all__ = [
    "ConvergenceError",
    "gen_hypergeometric",
    "bessel_k",
    "laguerre",
    "expint_ei",
    "gg_log_density",
    "gamma_log_table",
    "gg_product_cdf",
]

_LOG2 = math.log(2.0)
# pFq summation stops once a term is below this fraction of the total, and
# raises after this many terms
_SERIES_REL_TOL = 1e-12
_SERIES_MAX_TERMS = 10_000
# log-gain tables: largest node spacing (a shape-k factor's trapezoid error
# falls like e^{-pi^2/dy}), node cap (past it the left tail's mass goes to the
# edge node), and the smallest weight kept (CDFs above 1e-280 keep their
# relative precision, and no denormal reaches a convolution)
_TABLE_DY = 0.2
_TABLE_MAX_NODES = 1 << 14
_TABLE_FLOOR = 1e-300


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


def bessel_k(order, x):
    """Modified Bessel function of the second kind K_order(x), x > 0."""
    if x <= 0:
        raise ValueError(f"x must be > 0, got {x}")
    return float(kv(order, x))


def laguerre(order, x):
    """Laguerre function L_order(x) = 1F1(-order; 1; x) (polynomial for
    integer order, entire function otherwise)."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return float(hyp1f1(-order, 1.0, x))


def expint_ei(x):
    """Exponential integral Ei(x) for x < 0, where Ei(x) = -E1(-x)."""
    if x >= 0:
        raise ValueError(f"expint_ei requires x < 0, got {x}")
    return float(expi(x))


# ---------------------------------------------------------------------------
# Gamma-Gamma gains
# ---------------------------------------------------------------------------

def gg_log_density(y, a, b):
    """log f_Y(y) for Y = ln G, G ~ GammaGamma(a, b) with unit mean:
    f_Y(y) = f_G(e^y) e^y with f_G(x) = 2 (ab)^((a+b)/2) x^((a+b)/2-1)
    K_{a-b}(2 sqrt(ab x)) / (Gamma(a) Gamma(b)).

    Takes a float (returns a numpy scalar) or an array of floats.
    """
    y = np.asarray(y, dtype=float)
    return (
        _LOG2
        + 0.5 * (a + b) * (math.log(a * b) + y)
        - math.lgamma(a)
        - math.lgamma(b)
        + _log_kv(abs(a - b), 0.5 * (y + math.log(4.0 * a * b)))
    )[()]


def _log_kv(nu, log_z):
    """log K_nu(z) at z = e^log_z, elementwise over an array of any real log_z."""
    # kve is nan beyond z ~ 1e9; e^{-z} zeroes every density long before
    z = np.exp(np.minimum(log_z, 18.0))
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(kve(nu, z)) - z)
    # kve overflows at small z (below 1e-25 for nu = 12, and z = 0 once
    # e^{y/2} underflows); there the leading term of K is exact in doubles
    small = np.isinf(out)
    if small.any():
        lz = log_z[small]
        out[small] = (np.log(_LOG2 - np.euler_gamma - lz) if nu == 0.0
                      else math.lgamma(nu) + (nu - 1.0) * _LOG2 - nu * lz)
    out[log_z > 18.0] = -math.inf
    return out


def _gamma_log_weights(k, dy):
    """(first node index j0, weights f(y_j) dy on the nodes y_j = j dy) of
    ln X, X a unit-mean Gamma(k) variate: f(y) = k^k e^{ky - k e^y}/Gamma(k).
    The left tail decays like e^{ky}, the right one like exp(-k e^y).  Where
    the node cap cuts the left tail, the first node also takes the cut
    nodes' mass: P(ln X < y) = P(k, k e^y) below its cell, y = y_0 - dy/2,
    times (x/2) / sinh(x/2), x = k dy, the ratio of the trapezoid sum of an
    e^{ky} tail to its integral."""
    c = k * math.log(k) - k - math.lgamma(k)
    # f dy < _TABLE_FLOOR beyond both edges, where k (e^y - 1 - y) > depth
    depth = -math.log(_TABLE_FLOOR / dy) + abs(c)
    j_hi = math.ceil((math.log1p(2.0 * depth / k) + 1.0) / dy)
    j_lo = max(math.floor(-(depth / k + 1.0) / dy), j_hi - _TABLE_MAX_NODES + 1)
    y = np.arange(j_lo, j_hi + 1) * dy
    w = np.exp(k * (y - np.expm1(y)) + c) * dy
    if j_lo == j_hi - _TABLE_MAX_NODES + 1:
        y_cut = y[0] - 0.5 * dy
        z = k * math.exp(y_cut)
        # once z underflows, P(k, z) is its series' first term z^k / Gamma(k + 1)
        tail = (float(gammainc(k, z)) if z > 0.0
                else math.exp(k * (math.log(k) + y_cut) - math.lgamma(k + 1.0)))
        w[0] += tail * (0.5 * k * dy) / math.sinh(0.5 * k * dy)
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
    resolves the narrowest factor: two nodes per standard deviation
    sqrt(psi'(k)) of its ln.  Direct convolution keeps every weight's
    relative precision deep in the tails, where an FFT adds 1e-16 times the
    peak.  Past the node cap, a heavy left tail's mass moves onto the first
    node kept: the table keeps mass 1, and only the tail's shape below that
    node is lost.  A mass off 1 by more than 1e-10 (the spacing or the
    weight floor lost some) raises `ConvergenceError`, on every call.  The
    arrays are read-only.
    """
    dy = min(_TABLE_DY, 0.5 * math.sqrt(float(polygamma(1, max(shapes)))))
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
    lower incomplete gamma function: one sum over `gamma_log_table` of ln Z,
    taken on the target's tail side (1 - sum w Q above the median).
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
    lower = float(w @ gammainc(s, z))
    if lower <= 0.5:
        return lower
    return float(1.0 - w @ gammaincc(s, z))
