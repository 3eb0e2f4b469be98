"""Channel model tests: densities vs independent oracles, the sum-gain law
scale * ncx2(2N, 2KN) vs the single-antenna density, the SNR sampler vs the
densities (moments + Kolmogorov-Smirnov), and the Gaussian surrogate moments
vs direct quadrature."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import kstest, ncx2

from linkplan.channel import (
    TILE_TRIALS,
    FsoExponential,
    FsoGammaGamma,
    GaussianApprox,
    RicianFading,
    clt_sum_gain_params,
    rician_gain_pdf,
    sample_gain,
    sample_snr,
    sample_tiles,
)
from oracles import fso_pdf

GG = FsoGammaGamma(a=4.3939, b=2.5636)


def _sum_law(f):
    """The sum-gain law G = scale * X, X ~ ncx2(2N, 2KN), as a frozen scipy
    distribution."""
    return ncx2(2.0 * f.N, 2.0 * f.K * f.N, scale=f.Omega / (2.0 * (f.K + 1.0)))


def _stream(seed, stream_id=0):
    """Reproducible generator: identical (seed, stream_id) pairs replay the
    identical draw sequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


# ----------------------------------------------------------------------------
# type validation
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("make, field", [
    (lambda: RicianFading(0.1, 1.0, 2.0), "N"),
    (lambda: RicianFading(0.1, 1.0, np.float64(3.0)), "N"),
    (lambda: RicianFading(0.1, 1.0, math.inf), "N"),
    (lambda: RicianFading(0.1, 1.0, math.nan), "N"),
    (lambda: RicianFading(0.1, 1.0, True), "N"),
    (lambda: RicianFading(math.inf, 1.0, 2), "K"),
    (lambda: RicianFading(math.nan, 1.0, 2), "K"),
    (lambda: RicianFading(0.1, math.inf, 2), "Omega"),
    (lambda: RicianFading(0.1, math.nan, 2), "Omega"),
    (lambda: FsoExponential(math.inf), "lam"),
    (lambda: FsoExponential(math.nan), "lam"),
    (lambda: FsoGammaGamma(math.inf, 2.0), "a"),
    (lambda: FsoGammaGamma(2.0, math.inf), "b"),
    (lambda: FsoGammaGamma(2.0, math.nan), "b"),
])
def test_law_parameters_rejected_by_name(make, field):
    # antenna counts are integers >= 1 and every law parameter is finite,
    # each refused with a ValueError that names its field
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        make()


def test_antenna_count_accepts_numpy_integers():
    assert RicianFading(0.1, 1.0, np.int64(4)).N == 4


def test_field_validation():
    with pytest.raises(ValueError):
        RicianFading(K=-0.1, Omega=1.0, N=1)
    with pytest.raises(ValueError):
        RicianFading(K=0.0, Omega=0.0, N=1)
    with pytest.raises(ValueError):
        RicianFading(K=0.0, Omega=1.0, N=0)
    with pytest.raises(ValueError):
        FsoExponential(lam=0.0)
    with pytest.raises(ValueError):
        FsoGammaGamma(a=1.0, b=-2.0)
    with pytest.raises(ValueError):
        GaussianApprox(mean=1.0, variance=-1e-9)


def test_rng_stream_reproducible():
    f = RicianFading(1.0, 1.0, 4)
    a = sample_snr(f, 1.0, _stream(7, 3), 100)
    b = sample_snr(f, 1.0, _stream(7, 3), 100)
    c = sample_snr(f, 1.0, _stream(7, 4), 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_central_chisquare_is_zero_noncentrality():
    # sample_snr draws K = 0 RF gains through noncentral_chisquare(df, 0);
    # numpy must route that to chisquare(df) draw for draw, stream state
    # included, or MC estimates for K = 0 hops would shift
    for df in (2.0, 8.0, 80.0):
        g1, g2 = _stream(5, 1), _stream(5, 1)
        a = g1.noncentral_chisquare(df, 0.0, size=1000)
        b = g2.chisquare(df, size=1000)
        assert np.array_equal(a, b), df
        assert np.array_equal(g1.standard_normal(5), g2.standard_normal(5)), df


# ----------------------------------------------------------------------------
# single-antenna gain density
# ----------------------------------------------------------------------------

def test_gain_pdf_exponential_limit():
    f = RicianFading(K=0.0, Omega=1.0, N=1)
    assert_allclose(rician_gain_pdf(0.5, f), math.exp(-0.5), rtol=1e-12)


def test_gain_pdf_normalization():
    for K, Om in ((0.0, 1.0), (0.01, 1.0), (2.0, 0.5), (5.0, 2.0)):
        f = RicianFading(K=K, Omega=Om, N=1)
        total, _ = quad(lambda x: rician_gain_pdf(x, f), 0.0, 80.0 * Om, limit=300)
        assert_allclose(total, 1.0, rtol=1e-8)


def test_gain_pdf_at_zero_is_its_right_limit():
    # x = 0 takes a branch of its own (the Bessel term is I_0(0) = 1)
    for K, Om in ((0.0, 1.0), (0.01, 1.0), (2.0, 0.5), (5.0, 2.0)):
        f = RicianFading(K=K, Omega=Om, N=1)
        assert_allclose(rician_gain_pdf(0.0, f), rician_gain_pdf(1e-12 * Om, f),
                        rtol=1e-10)


def test_gain_pdf_independent_bessel_route():
    # recompute the density with I_0 from its cosine integral representation,
    # independent of the series used inside the package
    K, Om, x = 0.01, 1.0, 1.0
    f = RicianFading(K=K, Omega=Om, N=1)
    z = 2.0 * math.sqrt(K * (K + 1.0) * x / Om)
    i0, _ = quad(lambda th: math.exp(z * math.cos(th)) / math.pi, 0.0, math.pi)
    ref = (K + 1.0) / Om * math.exp(-K - (K + 1.0) * x / Om) * i0
    assert_allclose(rician_gain_pdf(x, f), ref, rtol=1e-10)


# ----------------------------------------------------------------------------
# sum-gain law
# ----------------------------------------------------------------------------

def test_sum_pdf_single_antenna_identity():
    f = RicianFading(K=1.3, Omega=0.7, N=1)
    for x in np.linspace(1e-3, 8.0, 100):
        assert_allclose(_sum_law(f).pdf(float(x)),
                        rician_gain_pdf(float(x), f), rtol=1e-9)


def test_sum_pdf_erlang_limit():
    # K=0, N=3: Gamma(3, Omega) density x^2 e^{-x}/2 at x=2
    f = RicianFading(K=0.0, Omega=1.0, N=3)
    assert_allclose(_sum_law(f).pdf(2.0), 2.0 * math.exp(-2.0), rtol=1e-12)


def test_sum_pdf_convolution_oracle():
    # 20-fold midpoint-rule convolution of the single-antenna density via FFT.
    # Frozen at h=1e-3: f_sum(20) = 0.0888394110789; the ncx2 law lands
    # within the oracle's own O(h^2) discretization error (~7e-7 relative).
    f1 = RicianFading(K=0.01, Omega=1.0, N=1)
    h = 2e-3
    m = int(21.0 / h)
    t = (np.arange(m) + 0.5) * h
    p = np.array([rician_gain_pdf(float(x), f1) for x in t]) * h
    n = 20
    spec = np.fft.rfft(p, 1 << 19)
    dens = np.fft.irfft(spec ** n, 1 << 19)
    s = int(round(20.0 / h - n / 2))  # midpoint grids shift by n*h/2
    oracle = dens[s] / h
    impl = _sum_law(RicianFading(K=0.01, Omega=1.0, N=20)).pdf(20.0)
    assert_allclose(impl, oracle, rtol=1e-5)
    assert_allclose(impl, 0.0888394110789, rtol=1e-5)


# ----------------------------------------------------------------------------
# FSO densities
# ----------------------------------------------------------------------------

def test_fso_pdf_exponential():
    assert fso_pdf(0.0, FsoExponential(lam=1.0)) == 1.0
    assert_allclose(fso_pdf(2.0, FsoExponential(lam=0.5)), 0.5 * math.exp(-1.0),
                    rtol=1e-12)


def test_fso_pdf_gamma_gamma_moments():
    total, _ = quad(lambda x: fso_pdf(x, GG), 0.0, 60.0, limit=300)
    mean, _ = quad(lambda x: x * fso_pdf(x, GG), 0.0, 60.0, limit=300)
    assert_allclose(total, 1.0, rtol=1e-7)
    assert_allclose(mean, 1.0, rtol=1e-7)  # ab/(ab): unit mean by construction


def test_rician_gain_pdf_rejects_negative_gain():
    with pytest.raises(ValueError, match="^x must be >= 0, got -0.001$"):
        rician_gain_pdf(-1e-3, RicianFading(0.1, 1.0, 1))


def test_fso_pdf_rejects_bad_input():
    with pytest.raises(ValueError):
        fso_pdf(-1.0, FsoExponential(lam=1.0))
    with pytest.raises(TypeError):
        fso_pdf(1.0, object())


# ----------------------------------------------------------------------------
# SNR sampler (unit power: the draws are the gains)
# ----------------------------------------------------------------------------

def test_sample_gain_rejects_an_object_without_a_sampler():
    with pytest.raises(TypeError, match="^unsupported gain model object$"):
        sample_gain(object(), _stream(0), 4)


def test_sample_rician_sum_mean():
    f = RicianFading(K=0.01, Omega=1.0, N=20)
    draws = sample_snr(f, 1.0, _stream(11), 1_000_000)
    assert abs(draws.mean() - 20.0) < 0.1


def test_sample_rician_sum_exponential_variance():
    f = RicianFading(K=0.0, Omega=1.0, N=1)
    draws = sample_snr(f, 1.0, _stream(12), 1_000_000)
    assert abs(draws.var() - 1.0) < 0.02


def test_sample_fso_means():
    draws = sample_snr(FsoExponential(lam=2.0), 1.0, _stream(13), 1_000_000)
    assert abs(draws.mean() - 0.5) < 0.002
    draws = sample_snr(GG, 1.0, _stream(14), 1_000_000)
    assert abs(draws.mean() - 1.0) < 0.01
    # E[G^2] = (1+1/a)(1+1/b) for the unit-mean Gamma product
    m2 = (1.0 + 1.0 / GG.a) * (1.0 + 1.0 / GG.b)
    assert_allclose(m2, 1.70644, rtol=1e-4)
    assert abs((draws ** 2).mean() - m2) < 0.02


def _grid_cdf(pdf, hi, n=8001):
    xs = np.linspace(0.0, hi, n)
    vals = np.array([pdf(float(x)) for x in xs])
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(xs))))
    return lambda q: np.interp(q, xs, np.minimum(cum, 1.0))


def test_sampler_ks_rician_sum():
    f = RicianFading(K=0.01, Omega=1.0, N=4)
    draws = sample_snr(f, 1.0, _stream(15), 100_000)
    stat = kstest(draws, _sum_law(f).cdf)
    assert stat.pvalue > 0.01, stat


def test_sampler_ks_fso_exponential():
    draws = sample_snr(FsoExponential(lam=1.5), 1.0, _stream(16), 100_000)
    stat = kstest(draws, lambda q: 1.0 - np.exp(-1.5 * q))
    assert stat.pvalue > 0.01, stat


def test_sampler_ks_fso_gamma_gamma():
    draws = sample_snr(GG, 1.0, _stream(17), 100_000)
    cdf = _grid_cdf(lambda x: fso_pdf(x, GG) if x > 0 else 0.0, 30.0)
    stat = kstest(draws, cdf)
    assert stat.pvalue > 0.01, stat


def test_gg_sample_is_the_product_of_its_factor_draws():
    # the in-place product draws a's factor, then b's, as the plain product
    # did; an exponential law's one Gamma(1, 1/lam) factor draws the bits of
    # numpy's exponential(1/lam)
    cases = [(GG, lambda gen, n: gen.gamma(GG.a, 1.0 / GG.a, size=n)
              * gen.gamma(GG.b, 1.0 / GG.b, size=n))]
    cases += [(FsoExponential(lam), lambda gen, n, lam=lam: gen.exponential(1.0 / lam, size=n))
              for lam in (0.3, 1.0, 2.7)]
    for model, draw in cases:
        x = sample_gain(model, _stream(19), 100_000)
        assert model.scale == 1.0
        assert np.array_equal(x, draw(_stream(19), 100_000)), model


@pytest.mark.parametrize("model", [RicianFading(2.0, 1.0, 40), RicianFading(0.0, 1.0, 3),
                                   FsoExponential(lam=2.7), FsoGammaGamma(a=4.3939, b=0.6)],
                         ids=["rician_k2", "rician_k0", "exponential", "gg_b0.6"])
def test_sample_gain_into_scratch_draws_the_same_bits(model):
    # a law may draw a Gamma factor into the caller's free cells rather than
    # a new array: the gains, and the generator's state after them, are
    # those of a draw without them
    n = 10_001
    plain, scratched = _stream(23), _stream(23)
    x = np.concatenate([tile for _, tile in sample_tiles(model, plain, n)])
    scratch = np.full(n, np.nan)
    got = np.concatenate([tile for _, tile in sample_tiles(model, scratched, n, scratch)])
    assert np.array_equal(got, x)
    assert np.array_equal(scratched.random(8), plain.random(8))


TILE_LAWS = [RicianFading(2.0, 1.0, 40), RicianFading(0.0, 1.0, 40), FsoExponential(lam=1.0),
             GG, FsoGammaGamma(a=4.3939, b=0.6)]
TILE_LAW_IDS = ["readme_ncx2", "chi2_k0", "exponential", "gg", "gg_b0.6"]
TILE_SIZES = [1_000, TILE_TRIALS - 1, TILE_TRIALS, TILE_TRIALS + 1, 2 * TILE_TRIALS + 3]


def _whole_draw(model, gen, n):
    """X as one numpy call per factor over all n trials, as perfbench's
    reference simulator draws it."""
    if isinstance(model, RicianFading):
        return gen.noncentral_chisquare(2.0 * model.N, 2.0 * model.K * model.N, size=n)
    x = 1.0
    for k, s in model.factors:
        x = x * gen.gamma(k, s, size=n)
    return x


@pytest.mark.parametrize("n", TILE_SIZES)
@pytest.mark.parametrize("model", TILE_LAWS, ids=TILE_LAW_IDS)
def test_tiles_draw_the_bits_of_one_whole_draw(model, n):
    # numpy calls of sizes m1, m2, ... return the values of one call of size
    # m1 + m2 + ...: tiles in trial order, into the caller's cells or not,
    # are the bits of one whole draw, and leave the stream where it does
    whole_gen = _stream(29)
    whole = _whole_draw(model, whole_gen, n)
    after = whole_gen.random(8)
    for out in (None, np.full(n, np.nan)):
        gen = _stream(29)
        tiles = list(sample_tiles(model, gen, n, out))
        assert [lo for lo, _ in tiles] == list(range(0, n, TILE_TRIALS))
        assert [t.size for _, t in tiles] == [min(TILE_TRIALS, n - lo) for lo, _ in tiles]
        assert np.array_equal(np.concatenate([t for _, t in tiles]), whole)
        assert np.array_equal(gen.random(8), after)
    assert np.array_equal(sample_gain(model, _stream(29), n), whole)


def test_gg_sampler_log_rate_matches_quadrature():
    # E[log(1 + P*G)] by MC vs quadrature against the density, 3 sigma gate
    draws = sample_snr(GG, 1.0, _stream(18), 100_000)
    for p in (0.1, 1.0, 10.0):
        vals = np.log1p(p * draws)
        mc = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        ref, _ = quad(lambda x: math.log1p(p * x) * fso_pdf(x, GG), 0.0, 60.0,
                      limit=300)
        assert abs(mc - ref) < 3.0 * se, (p, mc, ref, se)


# ----------------------------------------------------------------------------
# Gaussian surrogate moments
# ----------------------------------------------------------------------------

def test_clt_params_k0():
    g = clt_sum_gain_params(RicianFading(K=0.0, Omega=1.0, N=1))
    assert_allclose(g.mean, 1.0, rtol=1e-12)
    assert_allclose(g.variance, 1.0, rtol=1e-12)


def test_clt_params_mean_exact():
    # per-antenna mean is Omega exactly, for any K
    for K in (0.0, 0.01, 1.0, 5.0, 20.0):
        for Om in (0.5, 1.0, 3.0):
            for N in (1, 7, 64):
                g = clt_sum_gain_params(RicianFading(K=K, Omega=Om, N=N))
                assert_allclose(g.mean, N * Om, rtol=1e-10)


def test_clt_params_variance_quadrature():
    # per-antenna variance from quadrature of the single-antenna density
    K, Om = 5.0, 2.0
    f1 = RicianFading(K=K, Omega=Om, N=1)
    m2, _ = quad(lambda x: x * x * rician_gain_pdf(x, f1), 0.0, 100.0, limit=300)
    var_ref = m2 - Om * Om
    g = clt_sum_gain_params(RicianFading(K=K, Omega=Om, N=6))
    assert_allclose(g.variance, 6.0 * var_ref, rtol=1e-8)
    # closed form Om^2 (1+2K)/(1+K)^2 as a second route
    assert_allclose(var_ref, Om * Om * (1.0 + 2.0 * K) / (1.0 + K) ** 2, rtol=1e-8)


def test_clt_params_exact_formula():
    # mean N*Om and variance N*Om^2 (1+2K)/(K+1)^2 to a few ulp over K <= 1e3:
    # the moments must not come from a cancelling S(4) - S(2)^2
    with mpmath.workdps(30):
        for K in (0.0, 0.01, 0.3, 1.0, 2.0, 7.5, 40.0, 250.0, 1e3):
            for Om in (0.3, 1.0, 2.5):
                for N in (1, 40):
                    g = clt_sum_gain_params(RicianFading(K=K, Omega=Om, N=N))
                    k, om = mpmath.mpf(K), mpmath.mpf(Om)
                    var = N * om * om * (1 + 2 * k) / (k + 1) ** 2
                    assert_allclose(g.mean, N * Om, rtol=1e-15)
                    assert_allclose(g.variance, float(var), rtol=1e-15, err_msg=f"K={K}")
