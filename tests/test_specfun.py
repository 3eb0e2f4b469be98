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
from linkplan.channel import FsoExponential, FsoGammaGamma
from linkplan.specfun import (
    ConvergenceError,
    bessel_k,
    expint_ei,
    gen_hypergeometric,
    gg_product_cdf,
    laguerre,
)
from oracles import gg_log_density

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
                assert_allclose(gg_log_density(y, a, b), ref(y, a, b),
                                rtol=1e-10, err_msg=f"(a, b, y) = {a, b, y}")
            assert math.exp(gg_log_density(60.0, a, b)) == 0.0


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
    # a weight floor of 1e-8 drops both tails of the n = 2 table of ln Z, Z
    # the product of the Gamma factors (2, 2, 0.5), which loses 2.4e-7 of
    # its mass: the product CDF must refuse rather than return a CDF of the
    # lost mass, on every call (a raise is not cached); the cache is cleared
    # so that tables built under the real floor neither hide nor outlive the
    # patch
    specfun.gamma_log_table.cache_clear()
    monkeypatch.setattr(specfun, "_TABLE_FLOOR", 1e-8)
    try:
        for _ in range(2):
            with pytest.raises(ConvergenceError, match=r"\(2, 2, 0.5\) holds mass"):
                gg_product_cdf(2.0, 0.5, 2, 0.5)
        assert specfun.gamma_log_table.cache_info().currsize == 0
    finally:
        specfun.gamma_log_table.cache_clear()


def test_gg_product_cdf_node_cap_keeps_mass(monkeypatch):
    # a node cap of 200 cuts the same table to a span of 40 in ln G, 7e-6 of
    # its mass to the left: that mass goes to the first node kept, so the
    # table still holds mass 1 and, as every cut node lies far left of the
    # CDF's argument, the product CDF is unchanged to the bit
    def table_and_cdfs():
        specfun.gamma_log_table.cache_clear()
        y, w = specfun.gamma_log_table((2.0, 2.0, 0.5))
        return y, w, [gg_product_cdf(2.0, 0.5, 2, x) for x in (0.01, 0.5, 5.0)]
    try:
        y, w, cdfs = table_and_cdfs()
        monkeypatch.setattr(specfun, "_TABLE_MAX_NODES", 200)
        y_cap, w_cap, cdfs_cap = table_and_cdfs()
    finally:
        specfun.gamma_log_table.cache_clear()
    assert len(w_cap) == 200 < len(w)
    assert w[y < y_cap[0]].sum() > 1e-6
    assert abs(w_cap.sum() - 1.0) <= 1e-14
    assert cdfs_cap == cdfs


def test_gamma_log_table_node_cap_folds_exact_tail():
    # a shape-0.001 factor's ln reaches down to y ~ -7e5; the cap keeps
    # 2^14 nodes and the first takes the 3.8% below them, P(k, k e^y) in
    # log form, so the mass stays 1 where it once fell to 0.9618
    y, w = specfun.gamma_log_table((2.0, 0.001))
    assert len(w) == specfun._TABLE_MAX_NODES
    assert abs(w.sum() - 1.0) <= 1e-14
    assert 0.03 < w[0] < 0.04


@pytest.mark.parametrize("k", [1e6, 3e7, 1e8])
def test_gamma_log_table_large_shape_matches_mpmath(k):
    # k ln k - k - lgamma(k) cancelled to a mass 1.4e-9 short at k = 1e6, and
    # at 3e7 the node cap's fold overflowed sinh; the ln-moments of a
    # product of two Gamma(k) factors are 2 (psi(k) - ln k) and 2 psi'(k)
    y, w = specfun.gamma_log_table((k, k))
    mean = float(w @ y)
    var = float(w @ (y - mean) ** 2)
    with mpmath.workdps(30):
        ref_mean = float(2 * (mpmath.psi(0, k) - mpmath.log(k)))
        ref_var = float(2 * mpmath.psi(1, k))
    assert abs(w.sum() - 1.0) <= 1e-12
    assert abs(mean - ref_mean) <= 1e-12
    assert var == pytest.approx(ref_var, rel=1e-6)
    assert math.isfinite(fso_moments(FsoHopParams(FsoGammaGamma(k, k), 10.0, 1, 1, 1.0)).mean)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: past the node cap the fold keeps a "
                   "wide factor's mass but moves its left tail, and with it the mean")
def test_gamma_log_table_mixed_widths_keep_their_mean():
    # E[ln G] of a narrow and a wide factor is sum (psi(k) - ln k); the
    # narrow factor sets the spacing, and the cap then cuts the wide one's
    # heavy left tail
    errors = []
    for shapes in ((2e5, 0.3), (1e5, 0.5)):
        y, w = specfun.gamma_log_table(shapes)
        with mpmath.workdps(30):
            ref = float(sum(mpmath.psi(0, k) - mpmath.log(k) for k in shapes))
        errors.append(abs(float(w @ y) - ref))
    assert max(errors) <= 1e-10, errors


@pytest.mark.parametrize("k", [float(k) for k in np.geomspace(1e12, 1e15, 25)] + [1e38])
def test_gamma_log_table_of_a_huge_shape_builds(k):
    # from k = 1e13, y - expm1(y) cancelled near y = 0 and the mass check
    # raised at most shapes; from its series there, the table keeps its
    # mass and the ln-variance 2 psi'(k) of two Gamma(k) factors.  At 1e38
    # it once raised a bare OverflowError (sinh in the node cap's fold) or
    # numpy's TypeError (node indices past int64)
    specfun.gamma_log_table.cache_clear()
    y, w = specfun.gamma_log_table((k, k))
    mean = float(w @ y)
    var = float(w @ (y - mean) ** 2)
    with mpmath.workdps(50):
        ref_var = float(2 * mpmath.psi(1, k))
    assert abs(w.sum() - 1.0) <= 1e-10
    assert var == pytest.approx(ref_var, rel=1e-10)
    assert math.isfinite(fso_moments(FsoHopParams(FsoGammaGamma(k, k), 10.0, 1, 1, 1.0)).mean)


@pytest.mark.parametrize("k", [float(k) for k in np.geomspace(0.05, 1e4, 25)] + [6.7, 6.8])
def test_gamma_log_table_spacing_resolves_the_narrowest_factor(k):
    # two nodes or more per standard deviation sqrt(psi'(k)) of the ln of
    # the narrowest factor, capped at 0.2, and at most 0.5% finer than that
    y, _ = specfun.gamma_log_table((k,))
    dy = (y[-1] - y[0]) / (len(y) - 1)
    with mpmath.workdps(30):
        ref = min(0.2, 0.5 * math.sqrt(mpmath.psi(1, k)))
    assert ref * (1.0 - 5e-3) <= dy <= ref * (1.0 + 1e-12), (k, dy, ref)


@pytest.mark.parametrize("shapes", [(1.0,), (GG_A, GG_B), (GG_A,) * 3 + (GG_B,) * 2])
def test_gamma_log_table_spacing_is_0_2_for_the_readme_laws(shapes):
    # the exponential and the README Gamma-Gamma factors: nodes at j * 0.2
    y, _ = specfun.gamma_log_table(shapes)
    j0 = round(y[0] / 0.2)
    assert np.array_equal(y, (j0 + np.arange(len(y))) * 0.2)


@pytest.mark.parametrize("a, b, x, ref, three_sigma", [
    (2.0, 0.5, 0.01, 0.2780647, 4.3e-4),
    (12.0, 0.1, 1e-4, 0.6320447, 4.6e-4),
])
def test_gg_product_cdf_small_shaping_mc_oracle(a, b, x, ref, three_sigma):
    # heavy left tails of ln G (mass far below y = -16) stay on the grid:
    # frozen 1e7-sample MC of the product of two Gamma-Gamma draws
    assert abs(gg_product_cdf(a, b, 2, x) - ref) < three_sigma


def test_gg_product_order_cap():
    with pytest.raises(ValueError):
        gg_product_cdf(GG_A, GG_B, 7, 1.0)


@pytest.mark.parametrize("call, match", [
    (lambda: specfun.gamma_pq(0.0, 1.0), "^shape s must be > 0, got 0.0$"),
    (lambda: specfun.gamma_pq(1.0, np.array([1.0, -1e-3])), "^z must be >= 0$"),
    (lambda: specfun.ncx2_cdf(1.0, 0, 0.0), r"^need n >= 1 and nc >= 0, got n=0, nc=0.0$"),
    (lambda: specfun.ncx2_cdf(1.0, 1, -0.5), r"^need n >= 1 and nc >= 0, got n=1, nc=-0.5$"),
    (lambda: bessel_k(0.5, 0.0), "^x must be > 0, got 0.0$"),
    (lambda: laguerre(-0.5, 1.0), "^order must be >= 0, got -0.5$"),
    (lambda: gg_product_cdf(GG_A, GG_B, 1.5, 1.0), "^n must be a positive integer, got 1.5$"),
    (lambda: gg_product_cdf(0.0, GG_B, 1, 1.0), f"^shaping parameters .* got a=0.0, b={GG_B}$"),
    (lambda: gg_product_cdf(GG_A, -1.0, 1, 1.0), "^shaping parameters .* b=-1.0$"),
    (lambda: gen_hypergeometric([1.0], [-2.0], 0.5), "^pFq parameter b=-2.0 is a non-positive"),
    (lambda: gen_hypergeometric([1.0, 2.0], [3.0], 1.5), r"^pFq\(2,1\) series diverges for \|x\|=1.5"),
], ids=["gamma_pq_s", "gamma_pq_z", "ncx2_n", "ncx2_nc", "bessel_k_x", "laguerre_order",
        "gg_n", "gg_a", "gg_b", "pfq_b", "pfq_diverges"])
def test_out_of_domain_arguments_are_named(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_gg_product_cdf_is_zero_at_and_below_zero():
    assert gg_product_cdf(GG_A, GG_B, 2, 0.0) == gg_product_cdf(GG_A, GG_B, 2, -1.0) == 0.0


def test_gg_product_sum_table_built_once_read_only():
    # the table of ln of the other 2n - 1 Gamma factors depends on (a, b, n)
    # alone: every x reads the same read-only arrays
    specfun.gamma_log_table.cache_clear()
    values = [gg_product_cdf(GG_A, GG_B, 3, x) for x in (0.05, 0.5, 2.0)]
    info = specfun.gamma_log_table.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    y, w = specfun.gamma_log_table((GG_A,) * 3 + (GG_B,) * 2)
    assert not y.flags.writeable and not w.flags.writeable
    assert 0.0 < values[0] < values[1] < values[2] < 1.0


def _meijer_g_cdf(a, b, n, x):
    """(F, 1 - F) of the product of n i.i.d. unit-mean Gamma-Gamma(a, b)
    gains at x, by 30-digit mpmath: with Z the product of the 2n
    unit-rate Gamma variates, F = G^{2n,1}_{1,2n+1}(z | 1; k, 0) and
    1 - F = G^{2n+1,0}_{1,2n+1}(z | 1; 0, k) over prod Gamma(k_i),
    z = x (ab)^n."""
    with mpmath.workdps(30):
        ks = [a] * n + [b] * n
        z = mpmath.mpf(x) * mpmath.mpf(a * b) ** n
        norm = mpmath.fprod(mpmath.gamma(k) for k in ks)
        return (float(mpmath.meijerg([[1], []], [ks, [0]], z) / norm),
                float(mpmath.meijerg([[], [1]], [[0] + ks, []], z) / norm))


# (F, 1 - F) at x = MEIJER_G_X, frozen from `_meijer_g_cdf`; the (50, 40)
# points at n = 5, 6 and x >= 1e-3, where mpmath's Meijer-G series does not
# converge, come from 90-digit Gil-Pelaez inversion of the exact
# characteristic function prod Gamma(k + it) k^{-it} / Gamma(k) of ln Z,
# which matches the Meijer-G values at n = 3, 4 to 20 digits
MEIJER_G_X = (1e-9, 1e-3, 1.0, 4.0)
MEIJER_G_CDF = {
    (4.3939, 2.5636, 1): [
        (1.101967616226652e-22, 1.0), (2.628239662625257e-07, 0.9999997371760337),
        (0.6266221059503052, 0.3733778940496948), (0.9893163660304415, 0.010683633969558508)],
    (4.3939, 2.5636, 2): [
        (5.785111867034692e-20, 1.0), (1.9381124929853283e-05, 0.9999806188750702),
        (0.693215731191744, 0.30678426880825604), (0.9647268332260633, 0.035273166773936694)],
    (4.3939, 2.5636, 3): [
        (1.0877862016423999e-17, 1.0), (0.00027342909768493767, 0.9997265709023151),
        (0.7384422927158655, 0.26155770728413447), (0.9533545138429828, 0.04664548615701725)],
    (4.3939, 2.5636, 4): [
        (9.521740319867031e-16, 0.999999999999999), (0.0015499057701230058, 0.998450094229877),
        (0.773073379101474, 0.226926620898526), (0.9493999146994069, 0.050600085300593116)],
    (4.3939, 2.5636, 5): [
        (4.3685899383028347e-14, 0.9999999999999564), (0.005197683763154412, 0.9948023162368456),
        (0.801021640125121, 0.19897835987487894), (0.949064929669216, 0.050935070330784)],
    (4.3939, 2.5636, 6): [
        (1.1519836011686038e-12, 0.999999999998848), (0.012616088764116176, 0.9873839112358839),
        (0.824256619237851, 0.17574338076214904), (0.9505358803049959, 0.04946411969500413)],
    (2.0, 0.5, 1): [
        (3.162277658060261e-05, 0.9999683772234194), (0.031602348943960905, 0.9683976510560391),
        (0.7293294335267746, 0.2706705664732254), (0.9450530833337975, 0.05494691666620254)],
    (2.0, 0.5, 2): [
        (0.00034218713227036283, 0.9996578128677296), (0.12384637626615815, 0.8761536237338419),
        (0.8331739523867344, 0.1668260476132656), (0.9451436462541238, 0.05485635374587612)],
    (2.0, 0.5, 3): [
        (0.0018064319619234645, 0.9981935680380766), (0.2559375760701263, 0.7440624239298738),
        (0.890381448147321, 0.10961855185267895), (0.9579728324577027, 0.04202716754229731)],
    (2.0, 0.5, 4): [
        (0.0063098827240031154, 0.9936901172759969), (0.3956926015236244, 0.6043073984763756),
        (0.9257607311839298, 0.07423926881607024), (0.9692305687673437, 0.030769431232656352)],
    (2.0, 0.5, 5): [
        (0.016655063653370543, 0.9833449363466295), (0.5234383594528527, 0.47656164054714734),
        (0.9488034180058782, 0.05119658199412181), (0.9777409846003864, 0.022259015399613585)],
    (2.0, 0.5, 6): [
        (0.03587030250688093, 0.964129697493119), (0.6314130462253241, 0.3685869537746759),
        (0.9642609880582445, 0.0357390119417556), (0.9839459631329018, 0.016054036867098196)],
    (12.0, 0.1, 1): [
        (0.10560470201502979, 0.8943952979849702), (0.420415683595936, 0.5795843164040639),
        (0.8307111246129404, 0.16928887538705958), (0.9293713491137516, 0.07062865088624841)],
    (12.0, 0.1, 2): [
        (0.30183172322984925, 0.6981682767701508), (0.7143848783379464, 0.2856151216620536),
        (0.9397809545751005, 0.06021904542489955), (0.9686126319689582, 0.031387368031041814)],
    (12.0, 0.1, 3): [
        (0.5138591484449202, 0.48614085155507974), (0.8670396714690429, 0.13296032853095707),
        (0.9765518099224392, 0.023448190077560868), (0.9869989716462737, 0.013001028353726253)],
    (12.0, 0.1, 4): [
        (0.6897987246704773, 0.31020127532952263), (0.9395330985360799, 0.06046690146392011),
        (0.9904777553265746, 0.009522244673425469), (0.9945624129291375, 0.005437587070862501)],
    (12.0, 0.1, 5): [
        (0.8146222403658531, 0.18537775963414688), (0.9727867585626895, 0.027213241437310534),
        (0.9960368984271232, 0.003963101572876843), (0.9976971720538534, 0.002302827946146579)],
    (12.0, 0.1, 6): [
        (0.8945692506858055, 0.10543074931419444), (0.9878107722016686, 0.012189227798331469),
        (0.9983236700638747, 0.0016763299361252741), (0.9990146239024544, 0.000985376097545609)],
    (8.0, 1.0, 1): [
        (1.1428571420952382e-09, 0.9999999988571429), (0.0011420956442413782, 0.9988579043557586),
        (0.6524529820295907, 0.34754701797040927), (0.974018297539449, 0.02598170246055101)],
    (8.0, 1.0, 2): [
        (2.6325577290362336e-08, 0.9999999736744227), (0.008289547950265706, 0.9917104520497343),
        (0.7401434517978724, 0.25985654820212756), (0.9478421265883122, 0.0521578734116878)],
    (8.0, 1.0, 3): [
        (2.848512397775117e-07, 0.9999997151487602), (0.027755557609197366, 0.9722444423908027),
        (0.7958308321324752, 0.20416916786752484), (0.9448642664557254, 0.05513573354427459)],
    (8.0, 1.0, 4): [
        (1.9537132590497424e-06, 0.9999980462867409), (0.06237994158318103, 0.937620058416819),
        (0.8357944452890425, 0.16420555471095752), (0.9485915799794585, 0.05140842002054149)],
    (8.0, 1.0, 5): [
        (9.674877804129576e-06, 0.9999903251221959), (0.11079471912277283, 0.8892052808772272),
        (0.8660688787152567, 0.1339311212847433), (0.9541120926743001, 0.04588790732569994)],
    (8.0, 1.0, 6): [
        (3.7338691849568894e-05, 0.9999626613081505), (0.16936080721129576, 0.8306391927887042),
        (0.8897166269054247, 0.11028337309457531), (0.9598199123237762, 0.040180087676223816)],
    (50.0, 40.0, 1): [
        (0.0, 1.0), (6.490673249670224e-94, 1.0),
        (0.5351273622167715, 0.4648726377832285), (0.9999999999999611, 3.882269316005576e-14)],
    (50.0, 40.0, 2): [
        (2.2997625756546156e-304, 1.0), (4.925426105525914e-70, 1.0),
        (0.554615378484205, 0.44538462151579505), (0.999999763910928, 2.360890719327706e-07)],
    (50.0, 40.0, 3): [
        (5.669183601675312e-276, 1.0), (1.0574076294532111e-54, 1.0),
        (0.5688173252806251, 0.4311826747193748), (0.999978697223954, 2.130277604600223e-05)],
    (50.0, 40.0, 4): [
        (1.9250734083959036e-249, 1.0), (1.0968454466842709e-44, 1.0),
        (0.5804984687357381, 0.41950153126426193), (0.9998169311972592, 0.00018306880274072897)],
    (50.0, 40.0, 5): [
        (9.451180717274017e-226, 1.0), (9.96499267779495e-38, 1.0),
        (0.5906249164612533, 0.40937508353874674), (0.9993512191026668, 0.0006487808973332569)],
    (50.0, 40.0, 6): [
        (3.1841114734581613e-205, 1.0), (1.2313867911472984e-32, 1.0),
        (0.5996678141463828, 0.40033218585361713), (0.9985045233628279, 0.001495476637172134)],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_gg_product_cdf_meijer_g_oracle(n):
    # relative to the smaller tail, min(F, 1 - F), give or take the double
    # rounding of F itself: right tails of 1e-14 and left tails down to
    # 1e-249 alike; below that the table's weight floor (1e-300) is the limit
    for (a, b, order), refs in MEIJER_G_CDF.items():
        if order != n:
            continue
        for x, (f, q) in zip(MEIJER_G_X, refs):
            got = gg_product_cdf(a, b, n, x)
            tol = 1e-12 * min(f, q) + math.ulp(f) + 1e-300
            assert abs(got - f) <= tol, (a, b, x, got, f)


@pytest.mark.parametrize("a, b, n, x, ref", [
    # the n = 2 left tail that an FFT convolution put 1.3e-4 off
    (GG_A, GG_B, 2, 1e-6, 1.5922542479e-12),
    # the n = 1 left tail that adaptive quadrature put 1.1e-5 off
    (8.0, 1.0, 1, 1e-9, 1.142857142095238e-9),
])
def test_gg_product_cdf_pinned_tail_points(a, b, n, x, ref):
    f, _ = _meijer_g_cdf(a, b, n, x)
    assert_allclose(f, ref, rtol=1e-10)
    assert_allclose(gg_product_cdf(a, b, n, x), f, rtol=1e-12)


# ----------------------------------------------------------------------------
# log-deficit kernels, incomplete gamma P/Q, binomial CDF
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.01, 0.03, 0.1, 0.3, 1.0, 2.5636, 4.3939, 10.0, 30.0, 100.0])
def test_gamma_pq_mpmath_oracle(s):
    # both tails from z = 1e-300 to 1e3, and densely across z = s: within
    # 1e-13 relative, or 4e-16 |ln v| for a value v below e^-250, where the
    # rounding of the exponent of e^-|ln v| alone is |ln v| 2^-53
    z = np.concatenate([np.geomspace(1e-300, 1e3, 40), s * np.linspace(0.5, 1.5, 21),
                        [s + 1.0 - 1e-9, s + 1.0, s + 1.0 + 1e-9]])
    p, q = specfun.gamma_pq(s, z)
    with mpmath.workdps(40):
        for zi, pi, qi in zip(z, p, q):
            for got, ref in ((pi, mpmath.gammainc(s, 0, zi, regularized=True)),
                             (qi, mpmath.gammainc(s, zi, mpmath.inf, regularized=True))):
                if ref < 1e-300:
                    assert got < 1e-290
                    continue
                rtol = max(1e-13, 4e-16 * abs(float(mpmath.log(ref))))
                assert abs(got - ref) <= rtol * ref, (s, zi, got, float(ref))
    assert specfun.gamma_pq(s, 0.0) == (0.0, 1.0)


def test_gamma_pq_upper_tail_is_exactly_one():
    # far into the upper tail P is 1.0 to the bit and Q keeps its relative
    # precision, so `1 - sum w Q` and `sum w P` agree past the median
    for s in (0.01, 2.5636, 100.0):
        z = np.array([s + 60.0 * math.sqrt(s) + 60.0, 1e3, math.exp(700.0)])
        p, q = specfun.gamma_pq(s, z)
        assert (p == 1.0).all() and q[-1] == 0.0
    p, q = specfun.gamma_pq(2.5636, 80.0)
    assert p == 1.0
    assert_allclose(q, float(mpmath.gammainc(2.5636, 80.0, mpmath.inf, regularized=True)),
                    rtol=1e-13)


_EPS = 1e-9


@pytest.mark.parametrize("u", [-0.75, -0.5 - _EPS, -0.5, -0.5 + _EPS, -0.3, -1e-3, -1e-8,
                               0.0, 1e-8, 1e-3, 0.3, 0.5 - _EPS, 0.5, 0.5 + _EPS, 2.0, 1e3])
def test_log1pmx_mpmath_oracle(u):
    # both sides of the series/direct branch at |u| = 1/2, to a few ulps; a
    # float and a one-element array give the same bits
    got = specfun._log1pmx(u)
    assert got == specfun._log1pmx(np.array([u]))[0]
    with mpmath.workdps(40):
        ref = mpmath.log1p(u) - u
        assert abs(got - ref) <= 1e-15 * abs(ref), (u, float(got), float(ref))


@pytest.mark.parametrize("x", [0.3, 1.0, 7.0, 150.0, 1e5])
def test_bd0_mpmath_oracle(x):
    # both sides of the branch at m = x/4, and across m = x, to a few ulps; a
    # float m and a one-element array give the same bits
    for f in (1e-6, 0.1, 0.25 - _EPS, 0.25, 0.25 + _EPS, 0.5, 0.9, 1.0, 1.0 + 1e-7,
              1.5, 1.5 + _EPS, 4.0, 1e3):
        m = f * x
        got = specfun._bd0(x, m)
        assert got == specfun._bd0(x, np.array([m]))[0]
        with mpmath.workdps(40):
            ref = x * mpmath.log(mpmath.mpf(x) / m) + m - x
            assert abs(got - ref) <= 1e-15 * abs(ref), (x, m, float(got), float(ref))
