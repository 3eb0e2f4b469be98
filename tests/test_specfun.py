"""Special-function tests.

Every closed-form routine is checked against an independent numerical route
(quadrature, alternate series, mpmath, or MC) so that a regression in either
route shows up as a disagreement.  Frozen oracle values were computed with
mpmath at 30 significant digits; the generation scripts live outside the
package.
"""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import i0, ive

from linkplan import specfun
from linkplan.analysis import FsoHopParams, fso_moments
from linkplan.channel import FsoExponential
from linkplan.specfun import (
    ConvergenceError,
    bessel_k,
    expint_ei,
    gen_hypergeometric,
    gg_product_cdf,
    laguerre,
)

GG_A = 4.3939
GG_B = 2.5636


# ----------------------------------------------------------------------------
# generalized hypergeometric series
# ----------------------------------------------------------------------------

def test_hyp_0f0_is_exp():
    # pFq with empty parameter lists is exp(x)
    for x in np.linspace(-5.0, 5.0, 41):
        assert_allclose(gen_hypergeometric([], [], x), math.exp(x), rtol=1e-12)


def test_hyp_1f1_kummer_identity():
    # 1F1(a;a;x) = e^x for any a
    for a in (0.5, 1.0, 3.7):
        for x in (-2.0, 0.3, 4.0):
            assert_allclose(gen_hypergeometric([a], [a], x), math.exp(x), rtol=1e-12)


def test_hyp_3f3_frozen():
    # mpmath hyp3f3(1,1,1;2,2,2;-0.5), 30 digits
    val = gen_hypergeometric([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], -0.5)
    assert_allclose(val, 0.94182379686644050, rtol=1e-13)


def test_hyp_max_terms_enforced(monkeypatch):
    # exp(200) needs several hundred terms; a 100-term cap must fail loudly
    monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 100)
    with pytest.raises(ConvergenceError, match="100 terms"):
        gen_hypergeometric([], [], 200.0)


# ----------------------------------------------------------------------------
# modified Bessel functions
# ----------------------------------------------------------------------------

def bessel_i(order, x):
    """I_order(x) through scipy's exponentially scaled `ive`, log-scaled (the
    route the Rician gain density takes)."""
    return math.exp(math.log(ive(order, x)) + x)


def test_bessel_i_half_order():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x
    for x in (0.3, 1.0, 7.5):
        assert_allclose(bessel_i(0.5, x),
                        math.sqrt(2.0 / (math.pi * x)) * math.sinh(x),
                        rtol=1e-12)


def test_bessel_i0_frozen():
    # I_0(2) from the 50-term defining series (independent of the 0F1 path)
    assert_allclose(bessel_i(0.0, 2.0), 2.2795853023360673, rtol=1e-13)


def test_bessel_i_large_argument_no_overflow():
    # log-scaled path must survive x where e^x overflows: log I_0(800)
    lg = math.log(ive(0.0, 800.0)) + 800.0
    # asymptotic I_0(x) ~ e^x / sqrt(2 pi x)
    assert_allclose(lg, 800.0 - 0.5 * math.log(2.0 * math.pi * 800.0), rtol=1e-4)


def test_bessel_i_recurrence():
    # I_{v-1}(x) - I_{v+1}(x) = (2v/x) I_v(x)
    for nu in range(1, 11):
        for x in (0.5, 2.0, 10.0):
            lhs = bessel_i(nu - 1, x) - bessel_i(nu + 1, x)
            rhs = 2.0 * nu / x * bessel_i(nu, x)
            assert_allclose(lhs, rhs, rtol=1e-8)


def test_bessel_k_half_order():
    assert_allclose(bessel_k(0.5, 1.0), math.sqrt(math.pi / 2.0) * math.exp(-1.0),
                    rtol=1e-10)
    # K_{-v} = K_v
    assert_allclose(bessel_k(-0.5, 1.0), bessel_k(0.5, 1.0), rtol=1e-12)


def test_bessel_k_quadrature_oracle():
    # K_v(x) = int_0^inf e^{-x cosh t} cosh(v t) dt; frozen from mpmath quad
    assert_allclose(bessel_k(1.8303, 3.0), 0.056138457717026530, rtol=1e-9)


def test_bessel_k_mpmath_oracle():
    # orders up to the a-b of Gamma-Gamma hops such as (12, 1.2), over the
    # argument range their densities need
    xs = np.concatenate((np.geomspace(1e-2, 50.0, 60), [8.9, 9.5, 12.0]))
    with mpmath.workdps(30):
        for nu in (0.0, 0.5, 1.0, 1.83, 3.0, 5.0, 6.5, 8.0, 10.0, 12.0):
            for x in xs:
                ref = float(mpmath.besselk(nu, float(x)))
                assert_allclose(bessel_k(nu, float(x)), ref, rtol=1e-12,
                                err_msg=f"K_{nu}({x})")


# ----------------------------------------------------------------------------
# Laguerre polynomials (via 1F1)
# ----------------------------------------------------------------------------

def test_laguerre_closed_forms():
    for K in (0.0, 0.01, 2.0, 5.0):
        assert_allclose(laguerre(1.0, -K), 1.0 + K, rtol=1e-12)
    assert_allclose(laguerre(2.0, -2.0), 7.0, rtol=1e-12)  # (x^2-4x+2)/2 at -2
    assert_allclose(laguerre(0.0, 5.0), 1.0, rtol=1e-15)


def test_laguerre_half_order_quadrature():
    # L_{1/2}(-K) shows up in the gain-moment formulas; cross-check 1F1 series
    # against the integral representation via the 2nd raw moment of a Rician
    # envelope: E[|h|] with K=2, Omega=1 equals sqrt(Om/(K+1)) G(3/2) L_{1/2}(-K).
    K, Om = 2.0, 1.0
    nu2 = K * Om / (K + 1.0)
    s2 = Om / (2.0 * (K + 1.0))

    def envelope_pdf(r):
        return (r / s2) * math.exp(-(r * r + nu2) / (2.0 * s2)) * \
            i0(r * math.sqrt(nu2) / s2)

    mean_r, _ = quad(lambda r: r * envelope_pdf(r), 0.0, 60.0, limit=200)
    closed = math.sqrt(Om / (K + 1.0)) * math.gamma(1.5) * laguerre(0.5, -K)
    assert_allclose(closed, mean_r, rtol=1e-9)


# ----------------------------------------------------------------------------
# exponential integral / incomplete gamma
# ----------------------------------------------------------------------------

def test_expint_ei_frozen():
    # Ei(-1), Ei(-10) from mpmath (quadrature on E1)
    assert_allclose(expint_ei(-1.0), -0.21938393439552027, rtol=1e-12)
    assert_allclose(expint_ei(-10.0), -4.1569689296853243e-06, rtol=1e-10)
    assert abs(expint_ei(-500.0)) < 1e-210


def test_expint_ei_domain():
    with pytest.raises(ValueError):
        expint_ei(0.5)


def test_expint_e1_scaled_large():
    # the exponential-FSO mean is e^k E1(k), k = lam/p; at k = 1e3, where e^k
    # overflows, the scaled form ~ 1/k - 1/k^2 + 2/k^3 must stay finite
    g = fso_moments(FsoHopParams(model=FsoExponential(lam=1e3), p_tx=1.0))
    assert_allclose(g.mean, 1e-3 - 1e-6 + 2e-9, rtol=1e-8)


# ----------------------------------------------------------------------------
# Gamma-Gamma product CDF
# ----------------------------------------------------------------------------

def gg_pdf(x, a=GG_A, b=GG_B):
    """Reference Gamma-Gamma density via the K-Bessel closed form."""
    c = 2.0 * (a * b) ** ((a + b) / 2.0) / (math.gamma(a) * math.gamma(b))
    return c * x ** ((a + b) / 2.0 - 1.0) * bessel_k(a - b, 2.0 * math.sqrt(a * b * x))


def test_gg_log_density_mpmath_tails():
    # far left, K overflows double range (and its argument underflows to 0
    # below y ~ -1490); far right, the density is exactly 0
    def ref(y, a, b):
        z = 2.0 * mpmath.sqrt(a * b) * mpmath.exp(y / 2.0)
        return float(mpmath.log(2) + (a + b) / 2.0 * (mpmath.log(a * b) + y)
                     - mpmath.loggamma(a) - mpmath.loggamma(b)
                     + mpmath.log(mpmath.besselk(a - b, z)))

    with mpmath.workdps(40):
        for a, b in ((12.0, 0.1), (2.0, 2.0), (8.0, 1.0), (GG_A, GG_B)):
            for y in (-3000.0, -200.0, -20.0, 0.0, 3.0, 25.0):
                assert_allclose(specfun.gg_log_density(y, a, b), ref(y, a, b),
                                rtol=1e-10, err_msg=f"(a, b, y) = {a, b, y}")
            assert math.exp(specfun.gg_log_density(60.0, a, b)) == 0.0


def test_gg_cdf_limits():
    assert gg_product_cdf(GG_A, GG_B, 1, 1e-9) < 1e-6
    assert_allclose(gg_product_cdf(GG_A, GG_B, 1, 80.0), 1.0, atol=1e-6)
    assert gg_product_cdf(GG_A, GG_B, 1, 1e4) == 1.0


def test_gg_cdf_single_vs_quadrature():
    # n=1 CDF against adaptive quadrature of the K-Bessel density
    ref, _ = quad(gg_pdf, 0.0, 1.0, limit=300)
    got = gg_product_cdf(GG_A, GG_B, 1, 1.0)
    assert_allclose(got, ref, rtol=1e-6)
    assert_allclose(got, 0.626622105950305, rtol=1e-6)  # mpmath, 30 digits


def test_gg_cdf_monotone():
    xs = np.logspace(-2, 1.5, 25)
    for n in (1, 2, 3):
        vals = [gg_product_cdf(GG_A, GG_B, n, float(x)) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


def test_gg_product_cdf_mc_oracle():
    # product of two iid Gamma-Gamma draws, 1e7-sample MC frozen:
    # P[G1*G2 <= 0.25] = 0.259261 +/- 0.00042 (3 sigma)
    got = gg_product_cdf(GG_A, GG_B, 2, 0.25)
    assert abs(got - 0.259261) < 4.2e-4


def test_gg_product_cdf_grid_loss_is_loud(monkeypatch):
    # a node cap of 4096 cuts the grid to the old fixed span of 24 in ln G,
    # and b = 0.5 puts 3.4e-4 of ln G below its left edge: the n = 2
    # convolution must refuse rather than renormalize the loss away, on every
    # call, though the sum table is built once; the cache is cleared so that
    # tables built under the real cap neither hide nor outlive the patch
    specfun._gg_sum_table.cache_clear()
    monkeypatch.setattr(specfun, "_GG_MAX_NODES", 4096)
    try:
        for _ in range(2):
            with pytest.raises(ConvergenceError, match=r"\(2, 0.5, 2\)"):
                gg_product_cdf(2.0, 0.5, 2, 0.5)
        assert specfun._gg_sum_table.cache_info().misses == 1
    finally:
        specfun._gg_sum_table.cache_clear()


@pytest.mark.parametrize("a, b, x, ref, three_sigma", [
    (2.0, 0.5, 0.01, 0.2780647, 4.3e-4),
    (12.0, 0.1, 1e-4, 0.6320447, 4.6e-4),
])
def test_gg_product_cdf_small_shaping_mc_oracle(a, b, x, ref, three_sigma):
    # heavy left tails of ln G (mass far below y = -16) stay on the grid:
    # frozen 1e7-sample MC of the product of two Gamma-Gamma draws
    assert abs(gg_product_cdf(a, b, 2, x) - ref) < three_sigma


def _direct_product_cdf_at_nodes(a, b, n):
    """(x, CDF) at every node of the n-fold sum grid, by direct np.convolve
    of the log-gain density and a trapezoid cumulative."""
    dy = specfun._GG_PRODUCT_DY
    y, pdf = specfun.gg_log_grid(a, b, dy)
    dens = pdf
    for _ in range(n - 1):
        dens = np.convolve(dens, pdf) * dy
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * dy)))
    return np.exp(n * y[0] + dy * np.arange(len(dens))), cum / cum[-1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gg_product_cdf_fft_matches_direct_convolution(n):
    xs, ref = _direct_product_cdf_at_nodes(GG_A, GG_B, n)
    keep = (xs > 1e-40) & (xs < 1e10)
    idx = np.flatnonzero(keep)[::97]
    got = np.array([gg_product_cdf(GG_A, GG_B, n, float(x)) for x in xs[idx]])
    assert ref[idx].min() < 1e-10 and ref[idx].max() > 1.0 - 1e-10
    assert_allclose(got, ref[idx], rtol=1e-9, atol=1e-14)


def test_gg_product_order_cap():
    with pytest.raises(ValueError):
        gg_product_cdf(GG_A, GG_B, 7, 1.0)


def test_gg_product_sum_table_built_once_read_only():
    # the n-fold sum table depends on (a, b, n) alone: every x reads the same
    # read-only arrays
    specfun._gg_sum_table.cache_clear()
    values = [gg_product_cdf(GG_A, GG_B, 3, x) for x in (0.05, 0.5, 2.0)]
    info = specfun._gg_sum_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    _, dens, cum = specfun._gg_sum_table(GG_A, GG_B, 3)
    assert not dens.flags.writeable and not cum.flags.writeable
    assert 0.0 < values[0] < values[1] < values[2] < 1.0
