"""Closed-form outage evaluators, bounds, ergodic rates, antenna sizing.

Each approximation is checked against an independent route: direct quadrature
of the construction it encodes, the exact sum-gain CDF, or a seeded Monte
Carlo run.  The MC comparisons pin (seed, trials), so failures are
deterministic.
"""

import math
import pathlib
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import IntegrationWarning, quad
from scipy.stats import chi2, ncx2

from linkplan import analysis, specfun
from linkplan.analysis import (
    FSO_CLT,
    FSO_PRODUCT_BOUND,
    RF_JENSEN_LOWER,
    RF_JENSEN_UPPER,
    RF_LINEARIZED,
    RF_PIECEWISE,
    ApproximationInvalidError,
    FsoHopParams,
    InfeasibleError,
    OutageEstimate,
    RfHopParams,
    _sum_gain_cdf,
    fso_ergodic_rate,
    fso_moments,
    fso_outage_clt,
    fso_outage_product_bound,
    gaussian_outage,
    hop_ergodic_rate,
    hop_outage,
    log_moments_linearized,
    log_moments_piecewise,
    min_rf_antennas,
    rf_ergodic_rate,
    rf_moments_low_snr,
    rf_outage_bounds_short,
    rf_outage_linearized,
    rf_outage_low_snr,
    rf_outage_piecewise,
    rf_outage_single_shot,
)
from linkplan.channel import (
    FsoExponential,
    FsoGammaGamma,
    GaussianApprox,
    RicianFading,
    clt_sum_gain_params,
    sample_snr,
)
from linkplan.hardware import PaConfig
from linkplan.simulate import McConfig, simulate_fso_hop, simulate_rf_hop
from linkplan.specfun import ConvergenceError
from oracles import fso_pdf

GG = FsoGammaGamma(a=4.3939, b=2.5636)


def _sum_gain_pdf(x, f):
    """Sum-gain density from its law G = scale * X, X ~ ncx2(2N, 2KN),
    scale = Omega/(2(K+1))."""
    scale = f.Omega / (2.0 * (f.K + 1.0))
    return ncx2.pdf(x / scale, 2.0 * f.N, 2.0 * f.K * f.N) / scale


def _bisect_drive(outage_of_drive, target, lo=1e-4, hi=10.0):
    """Drive power at which a decreasing outage curve crosses target."""
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if outage_of_drive(mid) > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _horizontal_offset_db(outage_of_drive, drive, mc_value):
    """dB shift of the analytic curve needed to pass through the MC point."""
    matched = _bisect_drive(outage_of_drive, mc_value)
    return 10.0 * math.log10(matched / drive)


# ----------------------------------------------------------------------------
# Gaussian surrogate outage
# ----------------------------------------------------------------------------

def test_gaussian_outage_symmetric_point():
    g = GaussianApprox(mean=1.5, variance=0.3)
    assert_allclose(gaussian_outage(g, M=2, CC=7, R=3.0), 0.5, rtol=1e-12)


def test_gaussian_outage_vanishing_rate():
    g = GaussianApprox(mean=2.0, variance=0.5)
    assert gaussian_outage(g, 1, 10, 1e-9) < 1e-15


def test_gaussian_outage_scalar_example():
    # (mu=2, var=0.5), M=1, CC=10, R=1.5: 0.5*(1+erf(sqrt(10)*(-0.5)/1));
    # frozen against a 30-digit evaluation of that expression = 0.0126736593...
    g = GaussianApprox(mean=2.0, variance=0.5)
    assert_allclose(gaussian_outage(g, 1, 10, 1.5), 0.0126736593387341, rtol=1e-10)


def test_gaussian_outage_degenerate_variance():
    with pytest.raises(ApproximationInvalidError):
        gaussian_outage(GaussianApprox(mean=1.0, variance=0.0), 1, 1, 1.0)


@pytest.mark.parametrize("value, halfwidth, field", [
    (1.5, 0.0, "outage"), (math.nan, 0.0, "outage"),
    (0.5, -0.1, "ci_halfwidth"), (0.5, math.nan, "ci_halfwidth"),
], ids=["value_above_1", "value_nan", "halfwidth_negative", "halfwidth_nan"])
def test_outage_estimate_validated(value, halfwidth, field):
    # a NaN half-width passed a `< 0` check
    with pytest.raises(ValueError, match=f"^{field} must be"):
        OutageEstimate(value, "x", halfwidth)


# ----------------------------------------------------------------------------
# hop parameter validation
# ----------------------------------------------------------------------------

def test_hop_params_validated():
    fad = RicianFading(0.01, 1.0, 4)
    pa = PaConfig.ideal(1.0)
    with pytest.raises(ValueError):
        RfHopParams(fading=fad, pa=pa, M=0, C=1, R=1.0)
    with pytest.raises(ValueError):
        RfHopParams(fading=fad, pa=pa, M=1, C=0, R=1.0)
    with pytest.raises(ValueError):
        RfHopParams(fading=fad, pa=pa, M=1, C=1, R=0.0)
    with pytest.raises(ValueError):
        FsoHopParams(model=GG, p_tx=0.0, M=1, C_tilde=1, R=1.0)
    with pytest.raises(ValueError):
        FsoHopParams(model=GG, p_tx=1.0, M=1, C_tilde=0, R=1.0)
    with pytest.raises(TypeError, match="unsupported FSO model str"):
        FsoHopParams(model="gamma_gamma", p_tx=1.0)
    # a round count that is not an integer reached `range` in MC (True
    # counted as 1, as bool subclasses int), and an infinite drive made MC
    # score the hop a perfect link
    for field, build in (
            ("M", lambda: RfHopParams(fading=fad, pa=pa, M=2.0)),
            ("M", lambda: RfHopParams(fading=fad, pa=pa, M=True)),
            ("C", lambda: RfHopParams(fading=fad, pa=pa, C=True)),
            ("M", lambda: FsoHopParams(model=GG, p_tx=1.0, M=True)),
            ("C_tilde", lambda: FsoHopParams(model=GG, p_tx=1.0, C_tilde=False)),
            ("M", lambda: RfHopParams(fading=fad, pa=pa, M=math.inf)),
            ("C", lambda: RfHopParams(fading=fad, pa=pa, C=np.float64(3.0))),
            ("M", lambda: FsoHopParams(model=GG, p_tx=1.0, M=2.0)),
            ("C_tilde", lambda: FsoHopParams(model=GG, p_tx=1.0, C_tilde=math.inf)),
            ("drive power", lambda: FsoHopParams(model=GG, p_tx=math.inf)),
            ("drive power", lambda: RfHopParams(fading=fad, pa=PaConfig.ideal(math.inf)))):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            build()
    # Python and numpy integers both count
    assert RfHopParams(fading=fad, pa=pa, M=np.int64(2), C=np.int32(3)).rounds == 6


@pytest.mark.parametrize("build", [
    lambda: RicianFading(math.nan, 1.0, 4),
    lambda: RicianFading(0.01, math.nan, 4),
    lambda: FsoExponential(math.nan),
    lambda: FsoGammaGamma(math.nan, 2.0),
    lambda: FsoGammaGamma(2.0, math.nan),
    lambda: RfHopParams(RicianFading(0.01, 1.0, 4), PaConfig.ideal(1.0), 1, 1, math.nan),
    lambda: FsoHopParams(GG, math.nan, 1, 1, 1.0),
    lambda: FsoHopParams(GG, 1.0, 1, 1, math.nan),
    lambda: RfHopParams(RicianFading(0.01, 1.0, 4), PaConfig.ideal(1.0), math.nan),
    lambda: FsoHopParams(GG, 1.0, 1, math.nan),
], ids=["K", "Omega", "lam", "a", "b", "rf_R", "p_tx", "fso_R", "M", "C_tilde"])
def test_hop_fields_reject_nan(build):
    # each passed a `<=` check, and MC then scored the hop a perfect link
    with pytest.raises(ValueError, match="nan"):
        build()


def test_drive_power_uses_pa_curve():
    h = RfHopParams(fading=RicianFading(0.01, 1.0, 4),
                    pa=PaConfig(0.75, 0.5, 316.2278, 100.0), M=1, C=1, R=1.0)
    assert_allclose(h.drive_power, (75.0 / math.sqrt(316.2278)) ** 2, rtol=1e-12)


# ----------------------------------------------------------------------------
# sum-gain moments (low-SNR surrogate)
# ----------------------------------------------------------------------------

def test_low_snr_moments_erlang():
    g = rf_moments_low_snr(RicianFading(K=0.0, Omega=1.0, N=5))
    assert_allclose(g.mean, 5.0, rtol=1e-9)
    assert_allclose(g.variance, 5.0, rtol=1e-7)


def test_low_snr_moments_mean_identity():
    # the sum-gain mean is N*Omega for any K
    g = rf_moments_low_snr(RicianFading(K=0.01, Omega=1.0, N=20))
    assert_allclose(g.mean, 20.0, rtol=1e-6)


def test_low_snr_moments_variance_quadrature():
    f = RicianFading(K=2.0, Omega=1.0, N=4)
    second, _ = quad(lambda x: x * x * _sum_gain_pdf(x, f), 0.0, 60.0, limit=300)
    g = rf_moments_low_snr(f)
    assert_allclose(g.variance, second - 16.0, rtol=1e-6)
    # closed-form cross-check: N * Om^2 (1+2K)/(1+K)^2
    assert_allclose(g.variance, 4.0 * (1.0 + 4.0) / 9.0, rtol=1e-6)


def test_low_snr_outage_limits():
    h = RfHopParams(fading=RicianFading(0.01, 1.0, 20), pa=PaConfig.ideal(0.1),
                    M=1, C=10, R=1e-9)
    assert rf_outage_low_snr(h).value < 1e-15
    h2 = RfHopParams(fading=RicianFading(0.01, 1.0, 20), pa=PaConfig.ideal(1e-9),
                     M=1, C=10, R=1.0)
    assert rf_outage_low_snr(h2).value > 1.0 - 1e-12


def test_low_snr_outage_deep_low_snr_point():
    # N=20, M=1, C=10, R=1, drive -15 dB: the hop is in certain outage and the
    # surrogate must agree with MC (factor well below 1.3);
    # at -15 dB the MC outage sits outside [1e-3, 0.5], so the factor window
    # clause of the tightness claim is exercised at its boundary
    h = RfHopParams(fading=RicianFading(0.01, 1.0, 20),
                    pa=PaConfig.ideal(10.0 ** -1.5), M=1, C=10, R=1.0)
    v = rf_outage_low_snr(h).value
    mc = simulate_rf_hop(h, McConfig(trials=1_000_000, seed=12))
    assert mc.value > 0.999
    factor = max(v / mc.value, mc.value / v)
    assert factor < 1.3


# ----------------------------------------------------------------------------
# piecewise-linear log surrogate
# ----------------------------------------------------------------------------

def test_piecewise_matches_map_quadrature():
    # mu_hat must equal the quadrature of the same two-piece map against the
    # Gaussian sum-gain surrogate (N=20, P'=1, theta=1).  This is the identity
    # that separates the corrected antiderivative kernels from sign/prefactor
    # slips: the assembled closed form agrees to machine precision, while e.g.
    # quadrature of log(1+P'x) itself sits 156% away (the theta=1 tangent
    # overshoots the log by ~4.7 nats at x=20).
    g = clt_sum_gain_params(RicianFading(0.01, 1.0, 20))
    p, theta = 1.0, 1.0
    s = theta / (p * (1.0 - math.exp(-theta))) - 1.0 / p
    r = p * math.exp(-theta)
    c2 = theta - r * (math.exp(theta) - 1.0) / p

    def gauss(x):
        return math.exp(-((x - g.mean) ** 2) / (2.0 * g.variance)) / math.sqrt(
            2.0 * math.pi * g.variance)

    hi = g.mean + 12.0 * math.sqrt(g.variance)
    mu_ref = quad(lambda x: p * x * gauss(x), 0.0, s, limit=200)[0] + quad(
        lambda x: (r * x + c2) * gauss(x), s, hi, limit=200)[0]
    lm = log_moments_piecewise(p, g, theta)
    assert_allclose(lm.mean, mu_ref, rtol=1e-6)


def test_piecewise_second_moment_map_quadrature():
    g = clt_sum_gain_params(RicianFading(0.01, 1.0, 20))
    p, theta = 0.5, 2.0
    s = theta / (p * (1.0 - math.exp(-theta))) - 1.0 / p
    r = p * math.exp(-theta)
    c2 = theta - r * (math.exp(theta) - 1.0) / p

    def gauss(x):
        return math.exp(-((x - g.mean) ** 2) / (2.0 * g.variance)) / math.sqrt(
            2.0 * math.pi * g.variance)

    hi = g.mean + 12.0 * math.sqrt(g.variance)
    second_ref = quad(lambda x: (p * x) ** 2 * gauss(x), 0.0, s, limit=200)[0] + quad(
        lambda x: (r * x + c2) ** 2 * gauss(x), s, hi, limit=200)[0]
    lm = log_moments_piecewise(p, g, theta)
    assert_allclose(lm.variance + lm.mean ** 2, second_ref, rtol=1e-6)


def _piecewise_moments_mpmath(p, g, theta):
    """40-digit mean and centered variance of the two-piece map f (0 below
    the origin, p t up to the breakpoint s, r t + c2 beyond) against the
    Gaussian sum-gain surrogate, from the Gaussian's partial moments
    int z^k phi(z) dz, k <= 2, over each piece in z = (t - mean) / sd."""
    mp = mpmath.mp
    with mpmath.workdps(40):
        p, theta = mpmath.mpf(p), mpmath.mpf(theta)
        nz, sd = mpmath.mpf(g.mean), mpmath.sqrt(g.variance)
        s = theta / (p * (1 - mpmath.exp(-theta))) - 1 / p
        r = p * mpmath.exp(-theta)
        c2 = theta - r * (mpmath.exp(theta) - 1) / p
        z0, zs = -nz / sd, (s - nz) / sd
        pieces = []
        for lo, hi, a1, a2 in ((-mp.inf, z0, 0, 0), (z0, zs, p, 0), (zs, mp.inf, r, c2)):
            # a piece right of the mean takes its mass from the upper tail,
            # where it does not cancel
            if lo > 0:
                m0 = mpmath.ncdf(-lo) - mpmath.ncdf(-hi)
            else:
                m0 = mpmath.ncdf(hi) - mpmath.ncdf(lo)
            dlo = 0 if lo == -mp.inf else mpmath.npdf(lo)
            dhi = 0 if hi == mp.inf else mpmath.npdf(hi)
            m1 = dlo - dhi
            m2 = m0 + (0 if lo == -mp.inf else lo * dlo) - (0 if hi == mp.inf else hi * dhi)
            # f - shift = alpha + beta z on the piece
            pieces.append((a1 * nz + a2, a1 * sd, m0, m1, m2))
        mean = sum(alpha * m0 + beta * m1 for alpha, beta, m0, m1, _ in pieces)
        var = sum((alpha - mean) ** 2 * m0 + 2 * (alpha - mean) * beta * m1 + beta ** 2 * m2
                  for alpha, beta, m0, m1, m2 in pieces)
        return mean, var


@pytest.mark.parametrize("k, n", [(2.0, 40), (0.01, 20), (5.0, 16)])
def test_piecewise_moments_centered_mpmath(k, n):
    # from a PA output of 3.2e-13 (theta_pa 0.99, epsilon 0.75, 0 dB) up to
    # p = 100: E[f^2] - mu^2 cancels at tiny drives, where it went negative
    # (the surrogate raised though the outage is plainly 1) or was 120% off
    g = clt_sum_gain_params(RicianFading(k, 1.0, n))
    for p in (3.2e-13, 1e-9, 1e-6, 1e-3, 0.044, 0.36, 5.0, 100.0):
        for theta in (0.5, 1.0, 2.0):
            mean, var = _piecewise_moments_mpmath(p, g, theta)
            lm = log_moments_piecewise(p, g, theta)
            assert abs(lm.variance - var) <= 1e-12 * var, (p, theta, lm.variance, var)
            assert abs(lm.mean - mean) <= 1e-12 * mean, (p, theta, lm.mean, mean)


def test_piecewise_curve_offset_reference_scenario():
    # N=80, M=1, C=10, R=2, ideal PA, tangent anchored at the decode threshold
    # (theta = R/M): horizontal gap to MC stays below 0.25 dB
    def outage(p):
        h = RfHopParams(fading=RicianFading(0.01, 1.0, 80), pa=PaConfig.ideal(p),
                        M=1, C=10, R=2.0)
        return rf_outage_piecewise(h, theta=2.0).value

    for target, trials, seed in ((1e-2, 400_000, 6), (0.2, 400_000, 6)):
        p0 = _bisect_drive(outage, target)
        h = RfHopParams(fading=RicianFading(0.01, 1.0, 80), pa=PaConfig.ideal(p0),
                        M=1, C=10, R=2.0)
        mc = simulate_rf_hop(h, McConfig(trials=trials, seed=seed))
        off = _horizontal_offset_db(outage, p0, mc.value)
        assert abs(off) < 0.25, (target, off)


@pytest.mark.xfail(strict=True, reason=(
    "theta in {0.5, 1, 2} claimed to agree within 10% at outage 1e-2 "
    "(N=20, M=1, C=10, R=2 scenario); measured values differ by ten orders "
    "of magnitude ({~6e-17, 1.4e-9, 1e-2}) because the tangent anchor moves "
    "exponentially with theta — the broad-range-robustness claim does not "
    "survive its own construction"))
def test_piecewise_theta_robustness():
    def outage(p):
        h = RfHopParams(fading=RicianFading(0.01, 1.0, 20), pa=PaConfig.ideal(p),
                        M=1, C=10, R=2.0)
        return rf_outage_piecewise(h, theta=2.0).value

    p0 = _bisect_drive(outage, 1e-2)
    h = RfHopParams(fading=RicianFading(0.01, 1.0, 20), pa=PaConfig.ideal(p0),
                    M=1, C=10, R=2.0)
    vals = [rf_outage_piecewise(h, theta=th).value for th in (0.5, 1.0, 2.0)]
    assert max(vals) <= 1.1 * min(vals)


def test_piecewise_rejects_bad_theta():
    h = RfHopParams(fading=RicianFading(0.01, 1.0, 20), pa=PaConfig.ideal(0.1),
                    M=1, C=10, R=2.0)
    with pytest.raises(ValueError):
        rf_outage_piecewise(h, theta=0.0)


def test_piecewise_overflow_names_the_surrogate():
    # omega = 1e300 makes the sum-gain variance inf, and the kernels' float
    # ** then raises a bare OverflowError (34, 'Numerical result out of
    # range'); the error must name the surrogate, as the linearized one does
    h = RfHopParams(fading=RicianFading(2.0, 1e300, 40), pa=PaConfig.ideal(1.0),
                    M=2, C=5, R=2.0)
    with pytest.raises(ApproximationInvalidError,
                       match="piecewise log surrogate overflows .* variance inf"):
        rf_outage_piecewise(h)


@pytest.mark.parametrize("theta", [1e-17, 1e-320, 710.0])
def test_piecewise_theta_past_float_range_names_theta(theta):
    # below 2^-53, 1 - e^-theta is 0 and the breakpoint divided by it; above
    # 709.78, e^theta overflowed: a bare ZeroDivisionError or OverflowError
    h = RfHopParams(fading=RicianFading(2.0, 1.0, 40), pa=PaConfig.ideal(1.0),
                    M=2, C=5, R=2.0)
    with pytest.raises(ApproximationInvalidError,
                       match=rf"piecewise log surrogate overflows at theta {theta:g}, "):
        rf_outage_piecewise(h, theta)


# ----------------------------------------------------------------------------
# linearized-CDF surrogate
# ----------------------------------------------------------------------------

def test_linearized_mean_vs_log_quadrature():
    # N=40, P'=1: mu matches quadrature of log(1+P'x) against the Gaussian
    # surrogate within 1e-2 relative (measured 1.6e-3)
    g = clt_sum_gain_params(RicianFading(0.01, 1.0, 40))
    lm = log_moments_linearized(1.0, g)
    hi = g.mean + 12.0 * math.sqrt(g.variance)
    ref = quad(lambda x: math.log1p(x) * math.exp(
        -((x - g.mean) ** 2) / (2.0 * g.variance)) / math.sqrt(
        2.0 * math.pi * g.variance), 0.0, hi, limit=300)[0]
    assert abs(lm.mean - ref) / ref < 1e-2


def test_linearized_curve_offset_reference_scenario():
    # N=40, M=1, C=10, R=2, ideal PA: horizontal gap to MC below 0.25 dB
    # across outage targets spanning [1e-4, 0.5]
    def outage(p):
        h = RfHopParams(fading=RicianFading(0.01, 1.0, 40), pa=PaConfig.ideal(p),
                        M=1, C=10, R=2.0)
        return rf_outage_linearized(h).value

    for target, trials in ((0.2, 400_000), (1e-2, 400_000), (1e-3, 2_000_000),
                           (1e-4, 4_000_000)):
        p0 = _bisect_drive(outage, target)
        h = RfHopParams(fading=RicianFading(0.01, 1.0, 40), pa=PaConfig.ideal(p0),
                        M=1, C=10, R=2.0)
        mc = simulate_rf_hop(h, McConfig(trials=trials, seed=5))
        off = _horizontal_offset_db(outage, p0, mc.value)
        assert abs(off) < 0.25, (target, off)


def test_linearized_large_n_limit():
    # the ramp window shrinks relative to the mean: mu -> log(1+P'*N*Omega)
    g = clt_sum_gain_params(RicianFading(0.01, 1.0, 200))
    lm = log_moments_linearized(1.0, g)
    assert abs(lm.mean - math.log1p(200.0)) / math.log1p(200.0) < 0.02


# ----------------------------------------------------------------------------
# FSO surrogate moments
# ----------------------------------------------------------------------------

def test_fso_exp_mean_closed_form():
    h = FsoHopParams(model=FsoExponential(lam=1.0), p_tx=1.0, M=1, C_tilde=1, R=1.0)
    g = fso_moments(h)
    # -e*Ei(-1), frozen from a 30-digit evaluation
    assert_allclose(g.mean, 0.59634736232319407, rtol=1e-12)
    ref, _ = quad(lambda x: math.log1p(x) * math.exp(-x), 0.0, 200.0, limit=300)
    assert_allclose(g.mean, ref, rtol=1e-8)


def test_fso_exp_mean_vanishes_at_low_power():
    h = FsoHopParams(model=FsoExponential(lam=1.0), p_tx=1e-4, M=1, C_tilde=1, R=1.0)
    g = fso_moments(h)
    assert 0.0 < g.mean < 2e-4  # ~ p_tx * E[G]


def test_fso_exp_second_moment_closed_form():
    # log-gain table vs direct quadrature of log^2(1+P*x) e^{-x}, and vs
    # frozen 30-digit values
    frozen = {0.5: 0.21080734378220112, 5.0: 2.8338115491170395,
              50.0: 12.983055493108892}
    for p, ref_frozen in frozen.items():
        h = FsoHopParams(model=FsoExponential(lam=1.0), p_tx=p, M=1, C_tilde=1,
                         R=1.0)
        g = fso_moments(h)
        second = g.variance + g.mean ** 2
        ref, _ = quad(lambda x: math.log1p(p * x) ** 2 * math.exp(-x), 0.0, 400.0,
                      limit=400)
        assert_allclose(second, ref, rtol=1e-6)
        assert_allclose(second, ref_frozen, rtol=1e-6)


def test_fso_exp_second_moment_large_kappa_fallback():
    # both sides of lam/p = 10, where an antiderivative form once took over
    lam = 1.0
    for p in (0.099, 0.101):
        h = FsoHopParams(model=FsoExponential(lam=lam), p_tx=p, M=1, C_tilde=1,
                         R=1.0)
        g = fso_moments(h)
        ref, _ = quad(lambda x: math.log1p(p * x) ** 2 * math.exp(-x), 0.0, 400.0,
                      limit=400)
        assert_allclose(g.variance + g.mean ** 2, ref, rtol=1e-6)


_EXP_LAMS = [1e-4, 0.1, 1.0, 8.0, 10.0, 11.0, 100.0, 2e3, 5e3, 1e4, 1e6]
_EXP_LAM_P = [(lam, 1.0) for lam in _EXP_LAMS] + [
    (1e-4, 1e4), (1e-4, 1e-4), (1e6, 1e4), (1e6, 1e-4), (10.0, 0.099),
    (10.0, 0.101), (1.0, 25.1)]


@pytest.mark.parametrize(
    "lam, p", _EXP_LAM_P,
    ids=[f"{lam}" if p == 1.0 else f"{lam}-p{p}" for lam, p in _EXP_LAM_P])
def test_fso_exp_second_moment_large_kappa_mpmath(lam, p):
    # mean and variance of log1p(p G), G ~ Exp(lam), against 30-digit mpmath
    # in u = lam G ~ Exp(1), split where log1p(u/kappa) bends (kappa =
    # lam/p); from kappa = 1e-8, where the log is wide, to kappa = 1e10,
    # where the variance is ~1e-20
    kappa = mpmath.mpf(lam) / p
    with mpmath.workdps(30):
        pts = sorted({mpmath.mpf(0), kappa, 10 * kappa, mpmath.mpf(1),
                      mpmath.mpf(10), mpmath.mpf(50)})
        pts = [u for u in pts if u <= 50] + [mpmath.inf]
        mean = mpmath.quad(lambda u: mpmath.exp(-u) * mpmath.log1p(u / kappa), pts)
        second = mpmath.quad(
            lambda u: mpmath.exp(-u) * mpmath.log1p(u / kappa) ** 2, pts)
        var = float(second - mean * mean)
        mean = float(mean)
    g = fso_moments(FsoHopParams(model=FsoExponential(lam=lam), p_tx=p))
    assert_allclose(g.mean, mean, rtol=1e-12)
    assert_allclose(g.variance, var, rtol=1e-12)


# (a, b, p) -> (mean, variance) of log(1 + p G) for Gamma-Gamma G: 30-digit
# mpmath quadrature in y = ln G of 2 (ab)^((a+b)/2) e^{(a+b)y/2}
# K_{a-b}(2 sqrt(ab) e^{y/2}) / (Gamma(a) Gamma(b)), split into 40 panels
# from y = -60/min(a,b) - 10 to 2 ln(100/sqrt(ab)) + 2
GG_MOMENTS_MPMATH = {
    (4.3939, 2.5636, 0.01): (0.0099161125432758513, 6.8036189751492739e-5),
    (4.3939, 2.5636, 1.0): (0.62466123601005571, 0.1248902171040949),
    (4.3939, 2.5636, 40.0): (3.4127858200141267, 0.65110418162147017),
    (4.3939, 2.5636, 1e3): (6.5842436920348553, 0.72729673931573717),
    (4.3939, 2.5636, 1e5): (11.187320579193847, 0.73116681407834312),
    (8.0, 1.0, 0.01): (0.009890202932378873, 0.00011914509922470306),
    (8.0, 1.0, 1.0): (0.5835402547727528, 0.19261048904067124),
    (8.0, 1.0, 40.0): (3.1614817074068978, 1.3107327239131239),
    (8.0, 1.0, 1e3): (6.2748868150248032, 1.7185459537454309),
    (8.0, 1.0, 1e5): (10.872043783578868, 1.7764696422097933),
    (2.0, 0.5, 0.01): (0.0097883595911306342, 0.00031506818903604086),
    (2.0, 0.5, 1.0): (0.49104862888629715, 0.30389255371950217),
    (2.0, 0.5, 40.0): (2.6012558327722305, 2.4765134204255606),
    (2.0, 0.5, 1e3): (5.4644366406677673, 4.3770706152700028),
    (2.0, 0.5, 1e5): (9.9821144277340039, 5.3692632612788004),
    (12.0, 1.2, 0.01): (0.0099026894790203272, 9.4604432579845439e-5),
    (12.0, 1.2, 1.0): (0.60059307243280594, 0.16688142065334838),
    (12.0, 1.2, 40.0): (3.2599862409201266, 1.0707594363569912),
    (12.0, 1.2, 1e3): (6.3989965595857894, 1.3278952020158099),
    (12.0, 1.2, 1e5): (10.999377719953281, 1.353835514884408),
    (1.0, 0.3, 0.01): (0.009618378226836789, 0.0006264663400521415),
    (1.0, 0.3, 1.0): (0.4060830051261512, 0.36707395953099796),
    (1.0, 0.3, 40.0): (2.0651749813535165, 3.1715888815958805),
    (1.0, 0.3, 1e3): (4.5218274953415519, 7.0309830377578075),
    (1.0, 0.3, 1e5): (8.7608767227602202, 11.071359211643664),
    (12.0, 0.1, 0.01): (0.0094812142543256604, 0.00088127391703914995),
    (12.0, 0.1, 1.0): (0.3276409939945478, 0.42197331257569345),
    (12.0, 0.1, 40.0): (1.4210938103532939, 3.6637088905054706),
    (12.0, 0.1, 1e3): (3.0184219106212671, 10.021085175238178),
    (12.0, 0.1, 1e5): (6.0463222772142806, 23.203649758389592),
}


@pytest.mark.parametrize("a, b", [(4.3939, 2.5636), (8.0, 1.0), (2.0, 0.5),
                                  (12.0, 1.2), (1.0, 0.3), (12.0, 0.1)])
def test_fso_gg_moments_mpmath(a, b):
    # (12, 0.1) puts mass down to ln G ~ -600, which a grid with a fixed
    # node count resolves only to ~1e-3 in the variance
    for p in (0.01, 1.0, 40.0, 1e3, 1e5):
        mean, var = GG_MOMENTS_MPMATH[(a, b, p)]
        g = fso_moments(FsoHopParams(model=FsoGammaGamma(a, b), p_tx=p))
        assert_allclose(g.mean, mean, rtol=1e-12, err_msg=f"mean at p={p}")
        assert_allclose(g.variance, var, rtol=1e-10, err_msg=f"variance at p={p}")


def test_fso_gg_moments_narrow_log_gain():
    # a, b in the hundreds give ln G a standard deviation of ~0.1; the table
    # must narrow its spacing below that (at dy = 0.1 it holds mass
    # 1 - 2.3e-10 here); 30-digit mpmath values as in GG_MOMENTS_MPMATH
    g = fso_moments(FsoHopParams(model=FsoGammaGamma(200.0, 150.0), p_tx=10.0))
    assert_allclose(g.mean, 2.3930757412593819, rtol=1e-12)
    assert_allclose(g.variance, 0.0096470676487510509, rtol=1e-10)


def test_fso_gg_moments_table_mass_is_loud(monkeypatch):
    # a weight floor of 1e-8 drops both tails of ln G for (12, 0.1), 7e-7 of
    # its mass: the table must refuse rather than return moments of a lost
    # mass, on every call (a raise is not cached); the cache is cleared so
    # that a table built under the real floor cannot answer for the patched
    # one
    from linkplan.analysis import _log_gain_table
    _log_gain_table.cache_clear()
    specfun.gamma_log_table.cache_clear()
    monkeypatch.setattr(specfun, "_TABLE_FLOOR", 1e-8)
    try:
        for _ in range(2):
            with pytest.raises(ConvergenceError, match=r"\(12, 0.1\) holds mass"):
                fso_moments(FsoHopParams(model=FsoGammaGamma(12.0, 0.1), p_tx=1.0))
    finally:
        _log_gain_table.cache_clear()
        specfun.gamma_log_table.cache_clear()


def test_fso_gg_moments_node_cap_keeps_mass(monkeypatch):
    # a node cap of 1000 cuts ln G for (12, 0.1) near y = -136, 1.1e-6 of
    # its mass to the left: the first node kept takes that mass, where
    # log(1 + p G) is 0 to double precision, so the moments keep their
    # 30-digit values
    from linkplan.analysis import _log_gain_table
    _log_gain_table.cache_clear()
    specfun.gamma_log_table.cache_clear()
    monkeypatch.setattr(specfun, "_TABLE_MAX_NODES", 1000)
    try:
        for p in (1.0, 1e3):
            mean, var = GG_MOMENTS_MPMATH[(12.0, 0.1, p)]
            g = fso_moments(FsoHopParams(model=FsoGammaGamma(12.0, 0.1), p_tx=p))
            assert_allclose(g.mean, mean, rtol=1e-12, err_msg=f"mean at p={p}")
            assert_allclose(g.variance, var, rtol=1e-10, err_msg=f"variance at p={p}")
    finally:
        _log_gain_table.cache_clear()
        specfun.gamma_log_table.cache_clear()


# (b, p) -> (mean, variance) of log(1 + p G) for Gamma-Gamma(2, b): 30-digit
# mpmath quadrature of the density in GG_MOMENTS_MPMATH over y = ln G in
# [-60, 2 ln(200/sqrt(2b)) + 4], in 60 panels (97 panels agree to 1e-28);
# below y = -60, log(1 + p G) < 1e-24 adds nothing to either moment
GG_SMALL_B_MPMATH = {
    (0.005, 1.0): (0.062690209679657167371, 0.19939821239820836522),
    (0.005, 100.0): (0.21563634102581445737, 1.2887160419593966993),
    (0.003, 1.0): (0.044948222894006100728, 0.15767683090088173998),
    (0.003, 100.0): (0.144243509506468055, 0.91877133799437493597),
    (0.001, 1.0): (0.021093938709593241539, 0.088900637287095798228),
    (0.001, 100.0): (0.05944990704769060842, 0.42569405492786581364),
}


@pytest.mark.parametrize("b", [0.005, 0.003, 0.001])
def test_fso_gg_moments_small_b(b):
    # ln G's left tail decays like e^{by}: past the node cap it holds 8e-8
    # (b = 0.005) to 3.8% (b = 0.001) of the mass, which the table once
    # dropped and then refused
    for p in (1.0, 100.0):
        mean, var = GG_SMALL_B_MPMATH[(b, p)]
        g = fso_moments(FsoHopParams(model=FsoGammaGamma(2.0, b), p_tx=p))
        assert_allclose(g.mean, mean, rtol=1e-9, err_msg=f"mean at p={p}")
        assert_allclose(g.variance, var, rtol=1e-9, err_msg=f"variance at p={p}")


def test_fso_gg_moments_quadrature():
    h = FsoHopParams(model=GG, p_tx=2.0, M=1, C_tilde=1, R=1.0)
    g = fso_moments(h)
    mean_ref, _ = quad(lambda x: math.log1p(2.0 * x) * fso_pdf(x, GG), 0.0, 60.0,
                       limit=300)
    sec_ref, _ = quad(lambda x: math.log1p(2.0 * x) ** 2 * fso_pdf(x, GG), 0.0,
                      60.0, limit=300)
    assert_allclose(g.mean, mean_ref, rtol=1e-6)
    assert_allclose(g.variance + g.mean ** 2, sec_ref, rtol=1e-6)


@pytest.mark.parametrize("a, b", [(8.0, 1.0), (10.0, 1.5), (12.0, 1.2),
                                  (4.3939, 2.5636)])
def test_fso_gg_large_order_difference(a, b):
    # a - b up to ~11 puts K_{a-b} at large order: the density must stay
    # normalized and the ergodic log-rate must match MC of log1p(p G)
    model = FsoGammaGamma(a=a, b=b)
    total = sum(quad(lambda x: fso_pdf(x, model), lo, hi, limit=200)[0]
                for lo, hi in ((0.0, 1.0), (1.0, 5.0), (5.0, math.inf)))
    assert abs(total - 1.0) < 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        mean = fso_moments(FsoHopParams(model=model, p_tx=10.0)).mean
    gen = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=7, spawn_key=(0,))))
    rate = np.log1p(sample_snr(model, 10.0, gen, 2_000_000))
    se = rate.std() / math.sqrt(rate.size)
    assert abs(mean - rate.mean()) < 3.0 * se


def test_fso_clt_outage_gg_vs_mc():
    # Gamma-Gamma, M=2, C~=10, R=3, P~=10: within factor 1.3 of a 1e7-trial MC
    h = FsoHopParams(model=GG, p_tx=10.0, M=2, C_tilde=10, R=3.0)
    v = fso_outage_clt(h).value
    mc = simulate_fso_hop(h, McConfig(trials=10_000_000, seed=7))
    sigma = mc.ci_halfwidth / 1.96
    assert v <= 1.3 * (mc.value + 3.0 * sigma)
    assert v >= (mc.value - 3.0 * sigma) / 1.3


def test_fso_clt_outage_vanishing_rate():
    # as R -> 0 the outage drops to the Gaussian-surrogate floor
    # 0.5*erfc(sqrt(M*C)*mu/sqrt(2 var)), which itself decays with the
    # accumulation count: visible at C~=10 (~3.5e-6), negligible at C~=100
    floor10 = fso_outage_clt(FsoHopParams(
        model=FsoExponential(lam=1.0), p_tx=1.0, M=1, C_tilde=10, R=1e-9)).value
    floor100 = fso_outage_clt(FsoHopParams(
        model=FsoExponential(lam=1.0), p_tx=1.0, M=1, C_tilde=100, R=1e-9)).value
    assert floor10 < 1e-4
    assert floor100 < 1e-12


# ----------------------------------------------------------------------------
# FSO product bound (short codewords)
# ----------------------------------------------------------------------------

def test_product_bound_single_draw_exact():
    # M = C~ = 1: the bound collapses to the exact single-draw outage
    h = FsoHopParams(model=GG, p_tx=5.0, M=1, C_tilde=1, R=1.0)
    b = fso_outage_product_bound(h)
    thr = (math.e - 1.0) / 5.0
    exact, _ = quad(lambda x: fso_pdf(x, GG), 0.0, thr, limit=200)
    assert_allclose(b.value, exact, rtol=1e-6)


def test_product_bound_dominates_mc():
    # upper-bound property at M=2, C~=1, R=1 across transmit powers
    for p_tx, seed in ((2.0, 8), (5.0, 8), (10.0, 8)):
        h = FsoHopParams(model=GG, p_tx=p_tx, M=2, C_tilde=1, R=1.0)
        b = fso_outage_product_bound(h)
        mc = simulate_fso_hop(h, McConfig(trials=1_000_000, seed=seed))
        sigma = mc.ci_halfwidth / 1.96
        assert b.value >= mc.value - 3.0 * sigma, (p_tx, b.value, mc.value)


def test_product_bound_requires_gamma_gamma():
    h = FsoHopParams(model=FsoExponential(lam=1.0), p_tx=1.0, M=1, C_tilde=1,
                     R=1.0)
    with pytest.raises(TypeError):
        fso_outage_product_bound(h)


def test_product_bound_order_cap_propagates():
    h = FsoHopParams(model=GG, p_tx=1.0, M=4, C_tilde=2, R=1.0)
    with pytest.raises(ValueError):
        fso_outage_product_bound(h)


# ----------------------------------------------------------------------------
# RF short-codeword bounds
# ----------------------------------------------------------------------------

def _ncx2_cdf_mpmath(x, df, nc):
    """P[X <= x] for X ~ ncx2(df, nc) at 40 digits: the Poisson(nc/2) mixture
    of central chi-square CDFs P(df/2 + j, x/2), summed outward from the
    Poisson mode with P(s + 1, h) = P(s, h) - h^s e^{-h} / Gamma(s + 1)."""
    with mpmath.workdps(40):
        h, s0 = mpmath.mpf(x) / 2, mpmath.mpf(df) / 2
        if nc == 0:
            return mpmath.gammainc(s0, 0, h, regularized=True)
        lam = mpmath.mpf(nc) / 2

        def weight(j):
            return mpmath.exp(j * mpmath.log(lam) - lam - mpmath.loggamma(j + 1))

        def step(s):
            return mpmath.exp(s * mpmath.log(h) - h - mpmath.loggamma(s + 1))

        j0 = int(lam)
        p0 = mpmath.gammainc(s0 + j0, 0, h, regularized=True)
        total = weight(j0) * p0
        p, j = p0, j0
        while True:  # upward: both the weight and P fall
            p -= step(s0 + j)
            j += 1
            term = weight(j) * p
            total += term
            if term < 1e-32 * total:
                break
        p, j = p0, j0
        while j > 0:  # downward: the weight falls, P <= 1
            j -= 1
            p += step(s0 + j)
            total += weight(j) * p
            if weight(j) < 1e-32 * total:
                break
        return total


def _assert_ncx2_cdf_matches(got, x, df, nc):
    """`got` within 1e-13 of the 40-digit CDF at x; return that CDF."""
    ref = _ncx2_cdf_mpmath(x, df, nc)
    assert abs(got - ref) <= 1e-13 * ref, (x, df, nc, got, float(ref))
    return float(ref)


@pytest.mark.parametrize("N", [1, 4, 60, 1800])
@pytest.mark.parametrize("K", [0.0, 0.01, 2.0, 5.0])
def test_sum_gain_cdf_mpmath_oracle(N, K):
    # pooled N from 1 to 1800, from 1e-280 deep in the lower tail to 1 - 1e-9
    f = RicianFading(K, 1.3, N)
    scale = 1.3 / (2.0 * (K + 1.0))
    df, nc = 2.0 * N, 2.0 * K * N
    for q in (1e-280, 1e-200, 1e-100, 1e-40, 1e-14, 1e-9, 1e-5, 0.5, 1.0 - 1e-9):
        if q >= 1e-14:
            x = chi2.ppf(q, df) if nc == 0 else ncx2.ppf(q, df, nc)
        else:  # scipy's ppf stops short of these at large nc: bisect ln x
            lo, hi = math.log(1e-300), math.log(df + nc)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if specfun.ncx2_cdf(math.exp(mid), N, nc) < q else (lo, mid)
            x = math.exp(hi)
        # the oracle takes the argument the CDF sees: near 1e-200 at N = 1800
        # a 1-ulp change of x moves it by 1e-13
        y = scale * x
        ref = _assert_ncx2_cdf_matches(_sum_gain_cdf(y, f), y / scale, df, nc)
        assert 0.5 * q < ref < 2.0 * q, f"CDF {q:g}"


def test_ncx2_cdf_on_the_benchmark_arguments(tmp_path, monkeypatch):
    # every (x, n, nc) that the outage-sweep of the closed_form_grid
    # scenario and of the README hops on the 6.76-7.26 dB waterfall hand to
    # the Jensen bounds, deep tails and exact 1.0 included
    import yaml

    from linkplan import cli

    golden = pathlib.Path(__file__).parent / "golden"
    doc = yaml.safe_load((golden / "readme.yaml").read_text())
    doc["sweep"]["grid"] = [6.76, 6.86, 6.96, 7.06, 7.16, 7.26]
    doc["evaluators"] = [RF_JENSEN_LOWER, RF_JENSEN_UPPER]
    (tmp_path / "waterfall.yaml").write_text(yaml.safe_dump(doc))
    seen = set()
    exact = specfun.ncx2_cdf
    monkeypatch.setattr(specfun, "ncx2_cdf",
                        lambda x, n, nc: seen.add((x, n, nc)) or exact(x, n, nc))
    for cfg in (golden / "closed_form_grid.yaml", tmp_path / "waterfall.yaml"):
        cli.main(["outage-sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    assert len(seen) == 60
    for x, n, nc in sorted(seen):
        _assert_ncx2_cdf_matches(exact(x, n, nc), x, 2.0 * n, nc)


def test_ncx2_cdf_limits():
    # the complement side returns exactly 1.0 once it is below 2^-54, and
    # K = 0, N = 1 is the exponential law
    assert specfun.ncx2_cdf(1e7, 800, 1600.0) == 1.0
    assert specfun.ncx2_cdf(0.0, 3, 2.0) == 0.0
    assert specfun.ncx2_cdf(math.inf, 3, 2.0) == 1.0
    assert specfun.ncx2_cdf(1e-300, 800, 1600.0) == 0.0
    for x in (1e-300, 1e-8, 0.3, 2.0, 40.0):
        assert_allclose(specfun.ncx2_cdf(x, 1, 0.0), -math.expm1(-0.5 * x), rtol=1e-13)


def test_rf_bounds_collapse_at_single_shot():
    # M=C=1 with a class-exponent PA: lower = upper = exact CDF, and MC agrees
    h = RfHopParams(fading=RicianFading(0.01, 1.0, 60),
                    pa=PaConfig(0.75, 0.5, 316.2278, 3.81), M=1, C=1, R=1.0)
    lo, up = rf_outage_bounds_short(h)
    assert lo.method == RF_JENSEN_LOWER and up.method == RF_JENSEN_UPPER
    assert_allclose(lo.value, up.value, rtol=1e-12)
    mc = simulate_rf_hop(h, McConfig(trials=400_000, seed=9))
    sigma = mc.ci_halfwidth / 1.96
    assert abs(lo.value - mc.value) < 3.0 * sigma + 1e-6


def test_rf_bounds_sandwich_mc():
    h = RfHopParams(fading=RicianFading(0.01, 1.0, 4), pa=PaConfig.ideal(0.5),
                    M=2, C=1, R=1.0)
    lo, up = rf_outage_bounds_short(h)
    mc = simulate_rf_hop(h, McConfig(trials=1_000_000, seed=10))
    sigma = mc.ci_halfwidth / 1.96
    assert lo.value <= mc.value + 3.0 * sigma
    assert up.value >= mc.value - 3.0 * sigma
    assert lo.value < up.value


@pytest.mark.parametrize("M, C, R", [(2, 400, 2.0), (1, 1, 710.0), (3, 1, 2200.0)])
def test_threshold_past_every_float_reads_outage_one(M, C, R):
    # e^(R C) (upper bound) or e^(R / M) (lower bound, single shot) beyond
    # the largest float: the pooled CDF at an infinite threshold is 1
    h = RfHopParams(fading=RicianFading(2.0, 1.0, 40), pa=PaConfig.ideal(1.0),
                    M=M, C=C, R=R)
    lo, up = rf_outage_bounds_short(h)
    assert up.value == 1.0
    if R / M > 709.8:
        assert lo.value == 1.0
    if M == C == 1:
        assert rf_outage_single_shot(h).value == 1.0


@pytest.mark.parametrize("R", [200.0, 800.0])
def test_product_bound_threshold_past_every_float_reads_one(R):
    # R = 200: e^(R/M) is finite but its 6th power is not; R = 800: e^(R/M)
    # itself overflows
    h = FsoHopParams(model=FsoGammaGamma(4.3939, 2.5636), p_tx=40.0, M=1,
                     C_tilde=6, R=R)
    assert fso_outage_product_bound(h).value == 1.0


# ----------------------------------------------------------------------------
# single-shot approximation
# ----------------------------------------------------------------------------

def test_single_shot_zero_rate_limit():
    f = RicianFading(0.01, 1.0, 60)
    h = RfHopParams(fading=f, pa=PaConfig.ideal(0.02), M=1, C=1, R=1e-12)
    g = clt_sum_gain_params(f)
    expect = 0.5 * (1.0 + math.erf(-g.mean / math.sqrt(2.0 * g.variance)))
    assert_allclose(rf_outage_single_shot(h).value, expect, rtol=1e-6)


def test_single_shot_vs_exact_cdf():
    f = RicianFading(0.01, 1.0, 60)
    h = RfHopParams(fading=f, pa=PaConfig.ideal(0.02), M=1, C=1, R=1.0)
    exact = _sum_gain_cdf((math.e - 1.0) / 0.02, f)
    assert_allclose(rf_outage_single_shot(h).value, exact, rtol=5e-3)


def test_single_shot_overlay_vs_mc():
    # N=60, R=1: within factor 1.3 of MC across outage in [0.2, 0.9]
    for p in (0.0245, 0.0258, 0.0285, 0.0315):
        h = RfHopParams(fading=RicianFading(0.01, 1.0, 60), pa=PaConfig.ideal(p),
                        M=1, C=1, R=1.0)
        v = rf_outage_single_shot(h).value
        mc = simulate_rf_hop(h, McConfig(trials=400_000, seed=11))
        factor = max(v / mc.value, mc.value / v)
        assert factor < 1.3, (p, v, mc.value)


def test_single_shot_contract():
    h = RfHopParams(fading=RicianFading(0.01, 1.0, 4), pa=PaConfig.ideal(1.0),
                    M=2, C=1, R=1.0)
    with pytest.raises(ValueError):
        rf_outage_single_shot(h)


# ----------------------------------------------------------------------------
# ergodic rates
# ----------------------------------------------------------------------------

def test_rf_ergodic_rate_linear_regime():
    # P'*N*Omega = 0.01: rate ~ P'*N*Omega within 5%
    f = RicianFading(0.01, 1.0, 10)
    rate = rf_ergodic_rate(f, PaConfig.ideal(0.001))
    assert abs(rate - 0.01) / 0.01 < 0.05


def test_rf_ergodic_rate_vs_quadrature():
    # N=80: matches quadrature of E[log(1+P'G)] within 1% for SNR in [-5, 20] dB
    f = RicianFading(0.01, 1.0, 80)
    hi = 80.0 + 12.0 * math.sqrt(80.0)
    for snr_db in (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0):
        p = 10.0 ** (snr_db / 10.0)
        closed = rf_ergodic_rate(f, PaConfig.ideal(p))
        ref, _ = quad(lambda x: math.log1p(p * x) * _sum_gain_pdf(x, f), 0.0, hi,
                      limit=300)
        assert abs(closed - ref) / ref < 0.01, snr_db


def test_rf_ergodic_rate_reads_only_the_mean():
    # theta_pa = 0.99 at p_max = p_cons = 1 radiates about 3.2e-13: the
    # linearized variance rounds to -8.9e-16, which the rate never reads
    f, pa = RicianFading(2.0, 1.0, 40), PaConfig(0.75, 0.99, 1.0, 1.0)
    g = clt_sum_gain_params(f)
    p = analysis.output_power(pa)
    with pytest.raises(ApproximationInvalidError, match="variance .* is not > 0"):
        log_moments_linearized(p, g)
    # log(1 + x) ~ x: p times the mean gain (3e-5 of round-off at this drive)
    assert_allclose(rf_ergodic_rate(f, pa), p * g.mean, rtol=1e-4)
    assert_allclose(rf_ergodic_rate(f, PaConfig.ideal(1.0)),
                    log_moments_linearized(1.0, g).mean, rtol=0, atol=0)


def test_rf_ergodic_rate_large_n():
    f = RicianFading(0.01, 1.0, 200)
    rate = rf_ergodic_rate(f, PaConfig.ideal(1.0))
    assert abs(rate - math.log1p(200.0)) / math.log1p(200.0) < 0.02


def test_hop_ergodic_rate_dispatch():
    rf = RfHopParams(fading=RicianFading(0.01, 1.0, 40), pa=PaConfig.ideal(1.0),
                     M=1, C=10, R=2.0)
    assert_allclose(hop_ergodic_rate(rf), rf_ergodic_rate(rf.fading, rf.pa),
                    rtol=1e-12)
    fso = FsoHopParams(model=FsoExponential(lam=1.0), p_tx=1.0, M=1, C_tilde=20,
                       R=3.0)
    assert_allclose(hop_ergodic_rate(fso), fso_ergodic_rate(fso), rtol=1e-12)
    with pytest.raises(TypeError):
        hop_ergodic_rate("not a hop")


# ----------------------------------------------------------------------------
# antenna sizing
# ----------------------------------------------------------------------------

def test_min_antennas_trivial_target():
    pa = PaConfig.ideal(1.0)
    assert min_rf_antennas(0.01, 1.0, pa, 0.0) == 1
    assert min_rf_antennas(0.01, 1.0, pa, -1.0) == 1


def test_min_antennas_threshold_semantics():
    # returned N is the smallest whose rate meets the target
    pa = PaConfig.ideal(0.05)
    target = 1.2
    n = min_rf_antennas(0.01, 1.0, pa, target)
    assert rf_ergodic_rate(RicianFading(0.01, 1.0, n), pa) >= target - 1e-9
    if n > 1:
        assert rf_ergodic_rate(RicianFading(0.01, 1.0, n - 1), pa) < target


def test_min_antennas_monotone_in_target():
    pa = PaConfig.ideal(0.05)
    targets = [0.3, 0.6, 1.2, 2.4]
    counts = [min_rf_antennas(0.01, 1.0, pa, t) for t in targets]
    assert all(n2 >= n1 for n1, n2 in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]


def test_min_antennas_monotone_in_fso_target_power():
    # raising the FSO transmit power raises the rate target, never lowering N
    pa = PaConfig.ideal(0.05)
    prev = 0
    for p_tx in (1.0, 2.0, 4.0, 8.0):
        h = FsoHopParams(model=FsoExponential(lam=1.0), p_tx=p_tx, M=1,
                         C_tilde=1, R=1.0)
        n = min_rf_antennas(0.01, 1.0, pa, fso_ergodic_rate(h))
        assert n >= prev
        prev = n


def test_min_antennas_infeasible():
    # even the cap of 1e6 antennas misses the target
    with pytest.raises(InfeasibleError, match="up to 1000000"):
        min_rf_antennas(0.01, 1.0, PaConfig.ideal(1e-6), 5.0)


def test_min_antennas_underflowing_variance_names_the_surrogate():
    # at omega = 1e-170 the sum-gain variance N omega^2 (1 + 2K) / (K + 1)^2
    # underflows to 0, and the linearized mean divided by its square root
    pa = PaConfig(0.75, 0.5, 316.2278, 1.0)
    assert clt_sum_gain_params(RicianFading(2.0, 1e-170, 1)).variance == 0.0
    with pytest.raises(ApproximationInvalidError,
                       match="^linearized log surrogate: sum-gain variance 0.0 is not > 0$"):
        min_rf_antennas(2.0, 1e-170, pa, 1.5)


def _min_antennas_by_doubling(K, Omega, pa, target_rate):
    """Reference search: double N from 1 to a bracket, then bisect it."""
    def meets(n):
        return rf_ergodic_rate(RicianFading(K, Omega, n), pa) >= target_rate - 1e-9

    if target_rate <= 0 or meets(1):
        return 1
    lo, hi = 1, 2
    while not meets(hi):
        lo, hi = hi, 2 * hi
        if hi > analysis._MAX_ANTENNAS:
            raise InfeasibleError("past the cap")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("K", [0.0, 0.01, 2.0, 5.0])
@pytest.mark.parametrize("Omega", [1.0, 0.3])
def test_min_antennas_seeded_search_matches_doubling(K, Omega):
    # targets whose answers sit at 1, around 2,000 and around 5e5, the rate
    # at a count itself and midway between two counts, and infeasible ones
    def search(fn, pa, target):
        try:
            return fn(K, Omega, pa, target)
        except InfeasibleError:
            return "infeasible"

    for pa in (PaConfig.ideal(1e-6), PaConfig.ideal(0.05), PaConfig.ideal(10.0),
               PaConfig(0.75, 0.5, 316.2278, 1.0)):
        def rate(n):
            return rf_ergodic_rate(RicianFading(K, Omega, n), pa)

        targets = [1e-12, 0.1, 1.0, 3.0, 30.0]
        targets += [rate(n) for n in (1, 2, 1999, 2000, 2001, 500_000, 524_288)]
        targets += [0.5 * (rate(n) + rate(n + 1)) for n in (7, 2000, 524_287)]
        for target in targets:
            assert (search(min_rf_antennas, pa, target)
                    == search(_min_antennas_by_doubling, pa, target)), (pa, target)


def test_min_antennas_answer_past_the_last_doubling():
    # 0.58787 needs about 8e5 antennas: doubling overshot from 524,288 to
    # 1,048,576 > 1e6 and gave up, though 1e6 antennas meet the target
    pa = PaConfig.ideal(1e-6)
    n = min_rf_antennas(2.0, 1.0, pa, 0.58787)
    assert 524_288 < n <= analysis._MAX_ANTENNAS
    assert rf_ergodic_rate(RicianFading(2.0, 1.0, n), pa) >= 0.58787 - 1e-9
    assert rf_ergodic_rate(RicianFading(2.0, 1.0, n - 1), pa) < 0.58787 - 1e-9
    cap = rf_ergodic_rate(RicianFading(2.0, 1.0, analysis._MAX_ANTENNAS), pa)
    assert min_rf_antennas(2.0, 1.0, pa, cap) <= analysis._MAX_ANTENNAS
    with pytest.raises(InfeasibleError, match="up to 1000000"):
        min_rf_antennas(2.0, 1.0, pa, cap + 1e-6)


def test_min_antennas_nan_target_rejected():
    with pytest.raises(ValueError, match="target_rate"):
        min_rf_antennas(2.0, 1.0, PaConfig.ideal(1.0), math.nan)


# ----------------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------------

def test_hop_outage_dispatch_tags():
    rf = RfHopParams(fading=RicianFading(0.01, 1.0, 4), pa=PaConfig.ideal(0.5),
                     M=2, C=1, R=1.0)
    lo = hop_outage(rf, rf_method=RF_JENSEN_LOWER)
    up = hop_outage(rf, rf_method=RF_JENSEN_UPPER)
    assert lo.method == RF_JENSEN_LOWER
    assert up.method == RF_JENSEN_UPPER
    assert lo.value <= up.value
    assert hop_outage(rf, rf_method=RF_LINEARIZED).method == RF_LINEARIZED
    fso = FsoHopParams(model=GG, p_tx=5.0, M=1, C_tilde=1, R=1.0)
    assert hop_outage(fso, fso_method=FSO_PRODUCT_BOUND).method == FSO_PRODUCT_BOUND
    assert hop_outage(fso).method == FSO_CLT
    with pytest.raises(ValueError):
        hop_outage(rf, rf_method="nonsense")
    with pytest.raises(ValueError):
        hop_outage(fso, fso_method="nonsense")
    with pytest.raises(TypeError):
        hop_outage(42)


def test_tags_pairs_and_classes_come_from_the_table():
    an = analysis
    assert an.RF_TAGS + an.FSO_TAGS == tuple(an.EVALUATORS)
    assert an.DEFAULT_TAGS == (RF_LINEARIZED, FSO_CLT)
    assert an.method_pair(RF_JENSEN_LOWER) == (RF_JENSEN_LOWER, FSO_CLT)
    assert an.method_pair(FSO_PRODUCT_BOUND) == (RF_LINEARIZED, FSO_PRODUCT_BOUND)
    # validate knows three classes; every row names one of them
    classes = {t: row.bound for t, row in an.EVALUATORS.items()}
    assert set(classes.values()) == {an.ESTIMATE, an.LOWER_BOUND, an.UPPER_BOUND}
    assert {t: c for t, c in classes.items() if c != an.ESTIMATE} == {
        RF_JENSEN_LOWER: an.LOWER_BOUND, RF_JENSEN_UPPER: an.UPPER_BOUND,
        FSO_PRODUCT_BOUND: an.UPPER_BOUND}
    # a tag of the other link kind is unknown for this hop's kind
    rf = RfHopParams(fading=RicianFading(0.01, 1.0, 4), pa=PaConfig.ideal(0.5), R=1.0)
    with pytest.raises(ValueError, match=r"^unknown RF method 'fso_clt'$"):
        an.check_hop(rf, rf_method=FSO_CLT)


@pytest.mark.parametrize("hop, bound, field", [
    (RicianFading, analysis.ESTIMATE, "hop"),        # a law, not a hop class
    (RfHopParams(fading=RicianFading(0.01, 1.0, 4), pa=PaConfig.ideal(0.5), R=1.0),
     analysis.ESTIMATE, "hop"),                      # a hop, not its class
    ([RfHopParams], analysis.ESTIMATE, "hop"),       # unhashable
    (FsoHopParams, "upper", "bound"),
    (RfHopParams, None, "bound"),
])
def test_evaluator_row_checked_when_built(hop, bound, field):
    # a monkeypatched or future row with an unknown hop or validate class
    # fails where it is made, naming the field, before validate can read it
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        analysis.Evaluator(hop, lambda h, theta: None, bound)


def test_jensen_tags_compute_one_bound_each(monkeypatch):
    # each tag evaluates its own pooled CDF; rf_outage_bounds_short gives both
    calls = []
    exact = analysis._sum_gain_cdf
    monkeypatch.setattr(analysis, "_sum_gain_cdf",
                        lambda y, f: calls.append(y) or exact(y, f))
    rf = RfHopParams(fading=RicianFading(0.01, 1.0, 4), pa=PaConfig.ideal(0.5),
                     M=2, C=1, R=1.0)
    lo = hop_outage(rf, rf_method=RF_JENSEN_LOWER)
    up = hop_outage(rf, rf_method=RF_JENSEN_UPPER)
    assert len(calls) == 2
    assert (lo, up) == rf_outage_bounds_short(rf)


def test_hop_outage_piecewise_theta_passthrough():
    rf = RfHopParams(fading=RicianFading(0.01, 1.0, 20), pa=PaConfig.ideal(0.3),
                     M=1, C=10, R=2.0)
    via_dispatch = hop_outage(rf, rf_method=RF_PIECEWISE, theta=2.0)
    direct = rf_outage_piecewise(rf, theta=2.0)
    assert via_dispatch.value == direct.value


# ----------------------------------------------------------------------------
# global sanity: outage curves behave like probabilities
# ----------------------------------------------------------------------------

def test_outage_monotone_in_power_and_rate():
    evaluators = {
        "linearized": lambda h: rf_outage_linearized(h).value,
        "piecewise": lambda h: rf_outage_piecewise(h, theta=2.0).value,
        "low_snr": lambda h: rf_outage_low_snr(h).value,
    }
    drives = [0.02, 0.05, 0.08, 0.12, 0.2, 0.4]
    for name, ev in evaluators.items():
        vals = []
        for p in drives:
            h = RfHopParams(fading=RicianFading(0.01, 1.0, 40),
                            pa=PaConfig.ideal(p), M=1, C=10, R=2.0)
            v = ev(h)
            assert 0.0 <= v <= 1.0
            vals.append(v)
        assert all(v2 <= v1 + 1e-15 for v1, v2 in zip(vals, vals[1:])), name
    # nondecreasing in R
    rates = [0.5, 1.0, 2.0, 3.0]
    for name, ev in evaluators.items():
        vals = []
        for r in rates:
            h = RfHopParams(fading=RicianFading(0.01, 1.0, 40),
                            pa=PaConfig.ideal(0.08), M=1, C=10, R=r)
            vals.append(ev(h))
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:])), name


def test_fso_outage_monotone():
    for model in (FsoExponential(lam=1.0), GG):
        vals = []
        for p in (1.0, 2.0, 5.0, 12.0, 30.0):
            h = FsoHopParams(model=model, p_tx=p, M=1, C_tilde=20, R=3.0)
            v = fso_outage_clt(h).value
            assert 0.0 <= v <= 1.0
            vals.append(v)
        assert all(v2 <= v1 + 1e-15 for v1, v2 in zip(vals, vals[1:]))


def test_log_gain_tables_come_from_one_gamma_factor_builder():
    # Gamma-Gamma: the factors (a, b); exponential: one shape-1 factor moved
    # by -ln lam; a moment table keeps the builder's weights above the floor
    from linkplan.analysis import _MOMENT_FLOOR, _log_gain_table
    for model, shapes, shift in ((FsoGammaGamma(3.1, 1.7), (3.1, 1.7), 0.0),
                                 (FsoExponential(0.5), (1.0,), math.log(2.0)),
                                 (FsoExponential(4.0), (1.0,), -math.log(4.0))):
        y_all, w_all = specfun.gamma_log_table(shapes)
        keep = w_all > _MOMENT_FLOOR
        y, w = _log_gain_table(model)
        assert np.array_equal(w, w_all[keep])
        assert np.array_equal(y, y_all[keep] + shift)
        assert not y.flags.writeable and not w.flags.writeable


def test_log_gain_table_built_once_read_only():
    # the table depends on the gain model alone: every drive of a sweep reads
    # the same read-only arrays, and the moments equal a fresh build's
    from linkplan.analysis import _log_gain_table
    model = FsoGammaGamma(3.1, 1.7)
    _log_gain_table.cache_clear()
    moments = [fso_moments(FsoHopParams(model=model, p_tx=p)) for p in (0.5, 5.0, 50.0)]
    info = _log_gain_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    y, w = _log_gain_table(model)
    assert not y.flags.writeable and not w.flags.writeable
    fresh_y, fresh_w = _log_gain_table.__wrapped__(model)
    assert np.array_equal(y, fresh_y) and np.array_equal(w, fresh_w)
    lg = np.log1p(50.0 * np.exp(fresh_y))
    assert moments[2].mean == float(fresh_w @ lg)
