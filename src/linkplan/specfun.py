"""Special functions used by the analytical evaluators.

The standard functions come from scipy.special: `bessel_k` (K_nu),
`expint_ei` (Ei) and `laguerre` (1F1) are named entry points over it that
check their domain.  This module adds what scipy lacks:

- the generalized hypergeometric series pFq;
- the Gamma-Gamma log-gain density, on `kve`, for a float or an array;
- one uniform log-gain grid per Gamma-Gamma law, with edges taken from the
  density's tails (the moment tables and the product CDF both use it);
- the CDF of a product of i.i.d. Gamma-Gamma gains.

All routines are real-valued double precision, pure and thread-safe.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.integrate import quad
from scipy.special import expi, hyp1f1, kv, kve

__all__ = [
    "SeriesControl",
    "ConvergenceError",
    "DEFAULT_SERIES",
    "gen_hypergeometric",
    "bessel_k",
    "laguerre",
    "expint_ei",
    "gg_log_density",
    "gg_log_grid",
    "gg_product_cdf",
]

_LOG2 = math.log(2.0)
# node cap of one Gamma-Gamma log-gain grid; past it the left tail is cut and
# the caller's mass check decides whether the loss matters
_GG_MAX_NODES = 1 << 17
# product-CDF grid spacing in ln G: the CDF is a trapezoid cumulative, O(dy^2)
# accurate, so it needs a finer grid than the spectrally accurate moment tables
_GG_PRODUCT_DY = 24.0 / 4096.0


class ConvergenceError(ArithmeticError):
    """A series or continued fraction failed to converge within its term cap."""


@dataclass(frozen=True)
class SeriesControl:
    rel_tol: float = 1e-12   # relative size of the last summed term
    max_terms: int = 10_000  # hard cap on summed terms

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValueError(f"rel_tol must be in (0, 1e-6], got {self.rel_tol}")
        if self.max_terms < 100:
            raise ValueError(f"max_terms must be >= 100, got {self.max_terms}")


DEFAULT_SERIES = SeriesControl()


def gen_hypergeometric(a_list, b_list, x, ctl: SeriesControl = DEFAULT_SERIES):
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
    for j in range(ctl.max_terms):
        ratio = x / (j + 1.0)
        for a in a_list:
            ratio *= a + j
        for b in b_list:
            ratio /= b + j
        term *= ratio
        if term == 0.0:
            return total
        total += term
        if abs(term) < ctl.rel_tol * max(abs(total), 1e-300):
            return total
    raise ConvergenceError(
        f"pFq series did not converge in {ctl.max_terms} terms (x={x})"
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


def gg_log_grid(a, b, dy):
    """Nodes y_k = k*dy in y = ln G and the Gamma-Gamma density f_Y there.

    The nodes span every y where f_Y is above about e^-60: the left tail of
    ln G decays like e^{min(a,b) y}, the right one like
    exp(-2 sqrt(ab) e^{y/2}) times a power of e^y that grows with a + b.
    At most `_GG_MAX_NODES` nodes are returned; past the cap the left edge
    moves right, so callers must check the mass the grid holds.
    """
    lo = -60.0 / min(a, b) - 2.0
    hi = 2.0 * math.log((60.0 + 2.0 * (a + b)) / (2.0 * math.sqrt(a * b))) + 2.0
    k_hi = math.ceil(hi / dy)
    k_lo = max(math.floor(lo / dy), k_hi - _GG_MAX_NODES + 1)
    y = np.arange(k_lo, k_hi + 1) * dy
    return y, np.exp(gg_log_density(y, a, b))


@lru_cache(maxsize=64)
def _gg_sum_table(a, b, n):
    """(edges of the one-gain grid, density, trapezoid cumulative) of the sum
    of n i.i.d. Gamma-Gamma log-gains on the spacing-`_GG_PRODUCT_DY` grid,
    n >= 2: the n-fold self-convolution of the log-gain density by FFT.  It
    depends only on (a, b, n), so it is built once and returned read-only;
    the support of the sum starts at n times the left edge."""
    dy = _GG_PRODUCT_DY
    grid, pdf = gg_log_grid(a, b, dy)
    size = n * (len(pdf) - 1) + 1  # support of the n-fold sum: no wrap-around
    nfft = next_fast_len(size, real=True)
    dens = irfft(rfft(pdf, nfft) ** n, nfft)[:size] * dy ** (n - 1)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * dy)))
    dens.flags.writeable = cum.flags.writeable = False
    return (grid[0], grid[-1]), dens, cum


def gg_product_cdf(a, b, n, x):
    """CDF at x of the product of n i.i.d. Gamma-Gamma(a, b) gains.

    n = 1 integrates the log-gain density over one tail by quadrature; n in
    2..6 forms the n-fold self-convolution of the density on its log-gain
    grid by FFT (once per (a, b, n)) and integrates that sum density up to
    ln x.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"n must be a positive integer, got {n}")
    if n > 6:
        raise ValueError(f"product order n={n} unsupported (max 6)")
    if a <= 0 or b <= 0:
        raise ValueError("shaping parameters must be positive")
    if x <= 0:
        return 0.0
    target = math.log(x)
    n = int(n)
    if n == 1:
        def density(y):
            return math.exp(gg_log_density(y, a, b))

        # integrate the tail on the target's side of y = 0, where the bulk of
        # ln G sits (E[G] = 1), so values near 0 or 1 keep full precision
        if target <= 0.0:
            val = quad(density, -math.inf, target, limit=200)[0]
        else:
            val = 1.0 - quad(density, target, math.inf, limit=200)[0]
        return float(min(1.0, max(0.0, val)))

    edges, dens, cum = _gg_sum_table(a, b, n)
    dy = _GG_PRODUCT_DY
    # support of the n-fold convolution starts at n*lo with spacing dy
    start = n * edges[0]
    if target <= start:
        return 0.0
    idx = (target - start) / dy
    k = int(math.floor(idx))
    if k >= len(dens) - 1:
        return 1.0
    # trapezoid cumulative up to grid point k, then linear fraction of the cell
    frac = idx - k
    partial = dy * frac * (dens[k] + 0.5 * frac * (dens[k + 1] - dens[k]))
    val = cum[k] + partial
    total = cum[-1]
    if 1.0 - total > 1e-6:
        # the node cap cut the left tail of ln G (very small a or b)
        raise ConvergenceError(
            f"product-CDF grid [{edges[0]:g}, {edges[1]:g}] loses mass "
            f"{1.0 - total:.3g} for (a, b, n) = ({a:g}, {b:g}, {n})")
    # normalize out the residual discretization and truncation (<= 1e-6)
    return float(min(1.0, max(0.0, val / total)))
