"""Reference densities that only the tests use.

The FSO gain densities in closed form, independent of the Gamma-factor
tables that `analysis` and `specfun.gg_product_cdf` read: the exponential
density directly, and the Gamma-Gamma one through its K-Bessel form on
scipy's `kve`.  No command calls them, so they live here rather than in the
package, whose runtime install has no scipy.
"""

import math

import numpy as np
from scipy.special import kve

from linkplan.channel import FsoExponential, FsoGammaGamma

_LOG2 = math.log(2.0)


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
        return math.exp(gg_log_density(y, model.a, model.b) - y)
    raise TypeError(f"unsupported FSO model {type(model).__name__}")
