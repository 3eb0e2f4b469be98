"""Channel-gain laws: each is the one interface to its gain.

RF hops: Rician MISO with N transmit antennas, sum gain G = sum_j |h_j|^2.
FSO hops: exponential or Gamma-Gamma scintillation, each the product of its
independent Gamma `factors` (shape, scale), with `log_mean` ln of its mean.

A law's `tiles` (one for both FSO laws) draws its unscaled gains X,
G = scale * X with the law's `scale`, TILE_TRIALS at a time: the only draw
the Monte Carlo engine makes.  The closed forms read a law through
`RicianFading.cdf`, the exact CDF of the N-antenna sum gain
scale * ncx2(2N, 2KN) by `specfun.ncx2_cdf`, and `_GammaProduct.log_table`,
the table in ln G of an FSO law's Gamma factors.  The one density here, of
the single-antenna Rician gain, is an exact formula kept as an independent
check that no command calls; it takes scipy's `ive` from
`specfun.import_scipy` at the call (scipy is a test-only dependency).  The
FSO densities live with the tests' oracles.
A Gaussian surrogate for the sum gain, moment-matched in closed form, feeds
the analytical outage evaluators; `_half_moment` gives the same moments
through Laguerre functions of the single-antenna gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun

# trials per tile of a draw, a multiple of 8 (a tile's mask packs into bytes):
# numpy Generator calls of sizes m1, m2, ... return the values of one call of
# size m1 + m2 + ..., so tiles have the bits of one whole draw
TILE_TRIALS = 1 << 14
# FSO log tables drop the weights below this: no moment moves beyond round-off
_MOMENT_FLOOR = 1e-20


def _check_positive(law, *names):
    """Each named field of `law` is finite and > 0."""
    for name in names:
        v = getattr(law, name)
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class RicianFading:
    K: float      # line-of-sight to scattered power ratio (dimensionless, >= 0)
    Omega: float  # mean per-antenna channel gain (dimensionless power, > 0)
    N: int = 1    # number of transmit antennas

    def __post_init__(self):
        if not 0 <= self.K < math.inf:
            raise ValueError(f"K must be finite and >= 0, got {self.K}")
        _check_positive(self, "Omega")
        if isinstance(self.N, bool) or not (isinstance(self.N, (int, np.integer))
                                            and self.N >= 1):
            raise ValueError(f"N must be a positive integer, got {self.N}")

    # Omega/(2(K+1)): the sum gain is G = scale * X, X as `tiles` draws it
    scale = property(lambda self: self.Omega / (2.0 * (self.K + 1.0)))

    def tiles(self, gen: np.random.Generator, n, out=None):
        """X ~ ncx2(df=2N, nonc=2KN), the law of the complex-Gaussian antenna
        sum over `scale` (numpy draws the central chi-square itself when
        nonc = 0), as (first trial, fresh tile) pairs: `out` goes unused."""
        df, nonc = 2.0 * self.N, 2.0 * self.K * self.N
        for lo in range(0, n, TILE_TRIALS):
            yield lo, gen.noncentral_chisquare(df, nonc, size=min(TILE_TRIALS, n - lo))

    def cdf(self, y: float) -> float:
        """P(G <= y), exact: X = G / scale ~ ncx2(2N, 2KN)."""
        return specfun.ncx2_cdf(y / self.scale, self.N, 2.0 * self.K * self.N)


class _GammaProduct:
    """An FSO gain law: the product of independent Gamma(shape, scale)
    `factors`, with `log_mean` = ln of the product's mean."""

    scale = 1.0  # the gain is the product itself

    def tiles(self, gen: np.random.Generator, n, out=None):
        """X, the product of the factors, as (first trial, tile) pairs, each
        factor drawn for all n trials before the next.  One factor yields
        fresh tiles.  Of more, the first is drawn whole into `out` (n float64
        cells the caller has free, or a new array), each further one
        multiplied in through a tile of scratch, and a tile yielded, for the
        caller to overwrite, once the last is in."""
        (k, s), *rest = self.factors
        if not rest:
            for lo in range(0, n, TILE_TRIALS):
                yield lo, gen.gamma(k, s, size=min(TILE_TRIALS, n - lo))
            return
        # the bits and stream use of gamma(k, s), which is s * standard_gamma(k)
        x = gen.standard_gamma(k, size=n, out=out)
        x *= s
        f = np.empty(min(TILE_TRIALS, n))
        for i, (k, s) in enumerate(rest, 1):
            for lo in range(0, n, TILE_TRIALS):
                t = x[lo:lo + TILE_TRIALS]
                g = gen.standard_gamma(k, out=f[:t.size])
                g *= s
                t *= g
                if i == len(rest):
                    yield lo, t

    @lru_cache(maxsize=64)
    def log_table(self):
        """Read-only nodes y = ln G and weights above `_MOMENT_FLOOR` (one run:
        the weights are unimodal), cached per law: the table of its Gamma
        factors' shapes at unit mean, moved by the law's `log_mean`."""
        y, w = specfun.gamma_log_table(tuple(k for k, _ in self.factors))
        y = y + self.log_mean
        keep = w > _MOMENT_FLOOR
        y, w = y[keep], w[keep]
        y.flags.writeable = w.flags.writeable = False
        return y, w


@dataclass(frozen=True)
class FsoExponential(_GammaProduct):
    lam: float  # rate parameter of the gain distribution (> 0), mean gain 1/lam

    def __post_init__(self):
        _check_positive(self, "lam")

    # one Gamma(1, 1/lam) factor: numpy draws the bits of exponential(1/lam)
    factors = property(lambda self: ((1.0, 1.0 / self.lam),))
    log_mean = property(lambda self: -math.log(self.lam))


@dataclass(frozen=True)
class FsoGammaGamma(_GammaProduct):
    a: float  # large-scale shaping parameter (> 0)
    b: float  # small-scale shaping parameter (> 0)

    def __post_init__(self):
        _check_positive(self, "a", "b")

    factors = property(lambda self: ((self.a, 1.0 / self.a), (self.b, 1.0 / self.b)))
    log_mean = 0.0  # unit-mean factors


@dataclass(frozen=True)
class GaussianApprox:
    """Moment-matched Gaussian surrogate (mean, variance)."""

    mean: float      # nats per channel use (or gain units, context-dependent)
    variance: float  # squared units of mean

    def __post_init__(self):
        if not self.variance >= 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def rician_gain_pdf(x, f: RicianFading):
    """Density of the single-antenna gain g = |h|^2 under Rician fading."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    K, Om = f.K, f.Omega
    if x == 0.0:
        return (K + 1.0) * math.exp(-K) / Om
    arg = 2.0 * math.sqrt(K * (K + 1.0) * x / Om)
    log_f = (
        math.log((K + 1.0) / Om)
        - K
        - (K + 1.0) * x / Om
        + math.log(specfun.import_scipy("special").ive(0.0, arg))
        + arg
    )
    return math.exp(log_f) if log_f > -700.0 else 0.0


# ---------------------------------------------------------------------------
# Gaussian surrogate of the sum gain
# ---------------------------------------------------------------------------

def _half_moment(n, K, Om):
    """S(n) = E[g^{n/2}] of the single-antenna gain: (Om/(K+1))^{n/2}
    Gamma(1+n/2) L_{n/2}(-K)."""
    return (
        (Om / (K + 1.0)) ** (0.5 * n)
        * math.gamma(1.0 + 0.5 * n)
        * specfun.laguerre(0.5 * n, -K)
    )


def clt_sum_gain_params(f: RicianFading) -> GaussianApprox:
    """Gaussian surrogate for the sum gain: mean N*Omega and variance
    N*Omega^2 (1+2K)/(K+1)^2, the closed forms of N*S(2) and
    N*(S(4) - S(2)^2)."""
    K, Om = f.K, f.Omega
    return GaussianApprox(mean=f.N * Om,
                          variance=f.N * Om * Om * (1.0 + 2.0 * K) / (K + 1.0) ** 2)
