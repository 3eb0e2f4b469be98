"""Channel-gain models and samplers.

RF hops: Rician MISO with N transmit antennas, sum gain G = sum_j |h_j|^2.
FSO hops: exponential or Gamma-Gamma scintillation with unit-mean gain.

Densities are exact formulas: the single-antenna Rician gain on scipy's
`ive`, and the FSO gains (the Gamma-Gamma one through
`specfun.gg_log_density`).  The N-antenna sum gain is scale * ncx2(2N, 2KN),
so its exact CDF is scipy's `chndtr` (see `analysis`) and it needs no density
of its own here.  One sampler, `sample_gain`, draws the unscaled gain of any
model and is the only draw the Monte Carlo engine makes; `sample_snr` scales
it to one drive.  A Gaussian surrogate for the sum gain, moment-matched in
closed form, feeds the analytical outage evaluators; `_half_moment` gives the
same moments through Laguerre functions of the single-antenna gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive

from . import specfun

__all__ = [
    "RicianFading",
    "FsoExponential",
    "FsoGammaGamma",
    "GaussianApprox",
    "rician_gain_pdf",
    "fso_pdf",
    "sample_gain",
    "sample_snr",
    "clt_sum_gain_params",
]


@dataclass(frozen=True)
class RicianFading:
    K: float      # line-of-sight to scattered power ratio (dimensionless, >= 0)
    Omega: float  # mean per-antenna channel gain (dimensionless power, > 0)
    N: int = 1    # number of transmit antennas

    def __post_init__(self):
        if self.K < 0:
            raise ValueError(f"K must be >= 0, got {self.K}")
        if self.Omega <= 0:
            raise ValueError(f"Omega must be > 0, got {self.Omega}")
        if self.N < 1 or self.N != int(self.N):
            raise ValueError(f"N must be a positive integer, got {self.N}")


@dataclass(frozen=True)
class FsoExponential:
    lam: float  # rate parameter of the gain distribution (> 0), mean gain 1/lam

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")


@dataclass(frozen=True)
class FsoGammaGamma:
    a: float  # large-scale shaping parameter (> 0)
    b: float  # small-scale shaping parameter (> 0)

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"shaping parameters must be > 0, got a={self.a}, b={self.b}")


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
    """Draw `size` unscaled gains X: (scale, X) with G = scale * X.

    Rician sum gain: scale = Omega/(2(K+1)) and X ~ ncx2(df=2N, nonc=2KN),
    the law of the complex-Gaussian antenna sum (numpy draws the central
    chi-square itself when nonc = 0).  Exponential FSO: scale = 1 and
    X ~ Exp(mean 1/lam).  Gamma-Gamma FSO: scale = 1 and X is the product of
    two unit-mean Gamma variates.  The received SNR at drive p is
    (p * scale) * X, so one draw serves every drive.
    """
    if isinstance(model, RicianFading):
        return model.Omega / (2.0 * (model.K + 1.0)), gen.noncentral_chisquare(
            2.0 * model.N, 2.0 * model.K * model.N, size=size)
    if isinstance(model, FsoExponential):
        return 1.0, gen.exponential(1.0 / model.lam, size=size)
    if isinstance(model, FsoGammaGamma):
        return 1.0, (gen.gamma(model.a, 1.0 / model.a, size=size)
                     * gen.gamma(model.b, 1.0 / model.b, size=size))
    raise TypeError(f"unsupported gain model {type(model).__name__}")


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
