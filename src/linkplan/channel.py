"""Channel-gain models and samplers.

RF hops: Rician MISO with N transmit antennas, sum gain G = sum_j |h_j|^2.
FSO hops: exponential or Gamma-Gamma scintillation, each the product of its
independent Gamma `factors` (shape, scale), with `log_mean` ln of its mean.

Densities are exact formulas: the single-antenna Rician gain on scipy's
`ive`, and the FSO gains (the Gamma-Gamma one through
`specfun.gg_log_density`).  The N-antenna sum gain is scale * ncx2(2N, 2KN),
so its exact CDF is scipy's `chndtr` (see `analysis`) and it needs no density
of its own here.  Each law's `sample` (one for both FSO laws) draws its
unscaled gains; `sample_gain`, the only draw the Monte Carlo engine makes,
calls it, and `sample_snr` scales it to one drive.  A Gaussian surrogate for
the sum gain, moment-matched in closed form, feeds the analytical outage
evaluators; `_half_moment` gives the same moments through Laguerre functions
of the single-antenna gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive

from . import specfun


@dataclass(frozen=True)
class RicianFading:
    K: float      # line-of-sight to scattered power ratio (dimensionless, >= 0)
    Omega: float  # mean per-antenna channel gain (dimensionless power, > 0)
    N: int = 1    # number of transmit antennas

    def __post_init__(self):
        if not self.K >= 0:
            raise ValueError(f"K must be >= 0, got {self.K}")
        if not self.Omega > 0:
            raise ValueError(f"Omega must be > 0, got {self.Omega}")
        if self.N < 1 or self.N != int(self.N):
            raise ValueError(f"N must be a positive integer, got {self.N}")

    def sample(self, gen: np.random.Generator, n):
        """(scale, X): scale = Omega/(2(K+1)) and X ~ ncx2(df=2N, nonc=2KN),
        the law of the complex-Gaussian antenna sum (numpy draws the central
        chi-square itself when nonc = 0)."""
        return self.Omega / (2.0 * (self.K + 1.0)), gen.noncentral_chisquare(
            2.0 * self.N, 2.0 * self.K * self.N, size=n)


class _GammaProduct:
    """An FSO gain law: the product of independent Gamma(shape, scale)
    `factors`, with `log_mean` = ln of the product's mean."""

    def sample(self, gen: np.random.Generator, n):
        """(1, X): X the product of the factors, drawn in order."""
        (k, s), *rest = self.factors
        x = gen.gamma(k, s, size=n)
        for k, s in rest:
            x *= gen.gamma(k, s, size=n)  # in place: one array less
        return 1.0, x


@dataclass(frozen=True)
class FsoExponential(_GammaProduct):
    lam: float  # rate parameter of the gain distribution (> 0), mean gain 1/lam

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")

    # one Gamma(1, 1/lam) factor: numpy draws the bits of exponential(1/lam)
    factors = property(lambda self: ((1.0, 1.0 / self.lam),))
    log_mean = property(lambda self: -math.log(self.lam))


@dataclass(frozen=True)
class FsoGammaGamma(_GammaProduct):
    a: float  # large-scale shaping parameter (> 0)
    b: float  # small-scale shaping parameter (> 0)

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"shaping parameters must be > 0, got a={self.a}, b={self.b}")

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
# densities
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
        + math.log(ive(0.0, arg))
        + arg
    )
    return math.exp(log_f) if log_f > -700.0 else 0.0


def fso_pdf(x, model):
    """Density of the FSO gain under either scintillation model."""
    if isinstance(model, FsoExponential):
        if x < 0:
            raise ValueError(f"x must be >= 0, got {x}")
        return model.lam * math.exp(-model.lam * x)
    if isinstance(model, FsoGammaGamma):
        if x <= 0:
            raise ValueError(f"x must be > 0 for the Gamma-Gamma model, got {x}")
        y = math.log(x)
        return math.exp(specfun.gg_log_density(y, model.a, model.b) - y)
    raise TypeError(f"unsupported FSO model {type(model).__name__}")


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------

def sample_gain(model, gen: np.random.Generator, size):
    """Draw `size` unscaled gains X of any gain law: (scale, X) with
    G = scale * X (see each law's `sample`).  The received SNR at drive p is
    (p * scale) * X, so one draw serves every drive."""
    sample = getattr(model, "sample", None)
    if sample is None:
        raise TypeError(f"unsupported gain model {type(model).__name__}")
    return sample(gen, size)


def sample_snr(model, power, gen: np.random.Generator, size):
    """Draw `size` received SNRs power * G from the gain model."""
    scale, x = sample_gain(model, gen, size)
    return (power * scale) * x


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
