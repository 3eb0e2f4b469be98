"""Closed-form outage approximations and bounds, ergodic rates, antenna sizing.

Every evaluator reduces the accumulated per-round mutual information to a
Gaussian surrogate (or an exact CDF bound) and returns an OutageEstimate
carrying a method tag.  Monte Carlo lives in `simulate`; the two never share
code paths, so each validates the other.

A gain law is read only through its own methods: the Jensen bounds through
`RicianFading.cdf`, the exact CDF of the pooled sum gain, and the FSO
log-rate moments of both gain laws through `_GammaProduct.log_table`, one
sum over the law's table in ln G.

An RF and an FSO hop are one HARQ object: M rounds of C (or C_tilde) uses,
`rounds` in all, decoded against R/M, gains drawn from `law` at `drive_power`,
whose log rises by `slope` per dB of `shifted`.  Two tables tell them apart:
`EVALUATORS` has one row per method tag (the hop class it scores, its outage
of (hop, theta), its `validate` class and any check that refuses a hop), and
`_HOP_KINDS` one row per hop class (its link kind, default tag and ergodic
rate).  Every tag list, check and dispatch reads them, so a new tag is one row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import specfun
from .channel import (
    FsoExponential,
    FsoGammaGamma,
    GaussianApprox,
    RicianFading,
    clt_sum_gain_params,
)
from .hardware import PaConfig, output_power


def __getattr__(name):
    # `analysis.quad` stays resolvable for perfbench's tracer, which hooks it,
    # without importing scipy.integrate with the package: this module calls
    # no `quad`.  It goes when the benchmark drops that hook (ROADMAP item 1).
    if name == "quad":
        return specfun.import_scipy("integrate").quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# method tags carried by OutageEstimate
RF_LOW_SNR = "rf_low_snr_clt"
RF_PIECEWISE = "rf_piecewise_clt"
RF_LINEARIZED = "rf_linearized_clt"
RF_SINGLE_SHOT = "rf_single_shot"
RF_JENSEN_LOWER = "rf_jensen_lower"
RF_JENSEN_UPPER = "rf_jensen_upper"
FSO_CLT = "fso_clt"
FSO_PRODUCT_BOUND = "fso_product_bound"
MONTE_CARLO = "monte_carlo"

# `min_rf_antennas` gives up past this antenna count
_MAX_ANTENNAS = 1_000_000


class ApproximationInvalidError(ArithmeticError):
    """A surrogate produced a variance that is not > 0 (NaN included); the
    approximation does not apply to this configuration."""


class InfeasibleError(RuntimeError):
    """No feasible antenna count within the search cap."""


def _check_harq(hop, uses: str):
    """The checks every hop takes: M and its channel uses per round `uses`
    are integers >= 1, R > 0, and the drive is finite and > 0."""
    for name in ("M", uses):
        v = getattr(hop, name)
        if isinstance(v, bool) or not (isinstance(v, (int, np.integer)) and v >= 1):
            raise ValueError(f"{name} must be a positive integer, got {v}")
    if not hop.R > 0:
        raise ValueError(f"R must be > 0, got {hop.R}")
    if not 0.0 < hop.drive_power < math.inf:
        raise ValueError(f"drive power must be finite and > 0, got {hop.drive_power}")


def _shift_power(name: str, power: float, delta_db: float) -> float:
    """power * 10^(delta_db / 10); a ValueError names the `name` power and
    the shift where the product overflows, underflows to 0 or is NaN."""
    try:
        out = power * 10.0 ** (delta_db / 10.0)
    except OverflowError:  # 10^(delta_db / 10) itself
        out = math.inf
    if not 0.0 < out < math.inf:
        why = ("is not a number" if math.isnan(out) else
               "underflows to 0" if out == 0.0 else "overflows a float")
        raise ValueError(f"{name} {power:g} shifted by {delta_db:g} dB {why}")
    return out


@dataclass(frozen=True)
class RfHopParams:
    fading: RicianFading
    pa: PaConfig
    M: int = 1    # maximum HARQ rounds
    C: int = 1    # channel realizations per round
    R: float = 1.0  # initial code rate (nats per channel use)

    def __post_init__(self):
        if not isinstance(self.fading, RicianFading):
            raise TypeError(f"unsupported RF fading {type(self.fading).__name__}")
        _check_harq(self, "C")

    law = property(lambda self: self.fading)
    rounds = property(lambda self: self.M * self.C)

    @property
    def drive_power(self) -> float:
        """Radiated power per antenna (linear, noise-normalized)."""
        return output_power(self.pa)

    # d ln(drive_power) / d(dB of consumed power), below saturation
    slope = property(lambda self: math.log(10.0) / 10.0 / (1.0 - self.pa.theta_pa))

    def shifted(self, delta_db: float) -> "RfHopParams":
        """This hop with its consumed power moved by delta_db."""
        p_cons = _shift_power("p_cons", self.pa.p_cons, delta_db)
        return replace(self, pa=self.pa.with_drive(p_cons))


@dataclass(frozen=True)
class FsoHopParams:
    model: object  # FsoExponential | FsoGammaGamma
    p_tx: float    # transmit power / SNR (linear, noise-normalized, > 0)
    M: int = 1
    C_tilde: int = 1  # channel realizations per round
    R: float = 1.0    # initial code rate (nats per channel use)

    def __post_init__(self):
        if not isinstance(self.model, (FsoExponential, FsoGammaGamma)):
            raise TypeError(f"unsupported FSO model {type(self.model).__name__}")
        _check_harq(self, "C_tilde")

    law = property(lambda self: self.model)
    rounds = property(lambda self: self.M * self.C_tilde)
    drive_power = property(lambda self: self.p_tx)
    slope = math.log(10.0) / 10.0

    def shifted(self, delta_db: float) -> "FsoHopParams":
        """This hop with its transmit power moved by delta_db."""
        return replace(self, p_tx=_shift_power("p_tx", self.p_tx, delta_db))


@dataclass(frozen=True)
class OutageEstimate:
    value: float
    method: str
    ci_halfwidth: float = 0.0  # 95% half-width; 0 for closed forms

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"outage must be in [0,1], got {self.value}")
        if not self.ci_halfwidth >= 0:
            raise ValueError(f"ci_halfwidth must be >= 0, got {self.ci_halfwidth}")


# ---------------------------------------------------------------------------
# Gaussian-surrogate outage
# ---------------------------------------------------------------------------

def gaussian_outage(g: GaussianApprox, M: int, CC: int, R: float) -> float:
    """Outage of a hop whose per-realization rate has surrogate g, with M
    rounds of CC realizations and initial rate R (threshold R/M)."""
    if not g.variance > 0:
        raise ApproximationInvalidError(f"surrogate variance {g.variance} is not > 0")
    arg = math.sqrt(M * CC) * (R / M - g.mean) / math.sqrt(2.0 * g.variance)
    return 0.5 * (1.0 + math.erf(arg))


# ---------------------------------------------------------------------------
# low-SNR surrogate (sum-gain moments)
# ---------------------------------------------------------------------------

def rf_moments_low_snr(f: RicianFading) -> GaussianApprox:
    """Exact moments of the sum gain itself: mean N*Omega and variance
    N*Omega^2 (1+2K)/(K+1)^2, which are the Gaussian surrogate's moments."""
    return clt_sum_gain_params(f)


def rf_outage_low_snr(h: RfHopParams) -> OutageEstimate:
    """Outage from linearizing log(1+Px) ~ Px, i.e. comparing the mean sum
    gain against R/(M P').  Tight only when P'*G stays well below 1."""
    p = h.drive_power
    g = rf_moments_low_snr(h.fading)
    value = gaussian_outage(g, h.M, h.C, h.R / p)
    return OutageEstimate(value, RF_LOW_SNR)


# ---------------------------------------------------------------------------
# piecewise-linear log surrogate
# ---------------------------------------------------------------------------

def _kernel_q(a1, a2, a3, a4, x):
    """Antiderivative at x of (a1 t + a2) * Normal(t; a3, a4):
    -(a1 a3 + a2)/2 erf((a3-x)/sqrt(2 a4)) - a1 sqrt(a4/(2 pi)) exp(-(a3-x)^2/(2 a4))."""
    if x == math.inf:
        return 0.5 * (a1 * a3 + a2)
    c = a1 * a3 + a2
    return -0.5 * c * math.erf((a3 - x) / math.sqrt(2.0 * a4)) - a1 * math.sqrt(
        a4 / (2.0 * math.pi)
    ) * math.exp(-((a3 - x) ** 2) / (2.0 * a4))


def _kernel_t(a1, a2, a3, a4, x):
    """Antiderivative at x of (a1 t + a2)^2 * Normal(t; a3, a4)."""
    c = a1 * a3 + a2
    m = a1 * math.sqrt(a4)
    if x == math.inf:
        return c * c + m * m
    u = (x - a3) / math.sqrt(a4)
    big_phi = 0.5 * (1.0 + math.erf(u / math.sqrt(2.0)))
    small_phi = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return (c * c + m * m) * big_phi - (2.0 * c * m + m * m * u) * small_phi


def log_moments_piecewise(p: float, g: GaussianApprox, theta: float = 1.0):
    """Mean and variance of log(1+p*G) under the Gaussian sum-gain surrogate
    g, with the log replaced by a two-piece linear map (exact slope p below
    the breakpoint, tangent-matched slope beyond)."""
    if theta <= 0:
        raise ValueError(f"theta must be > 0, got {theta}")
    nz, nv = g.mean, g.variance
    try:
        s = theta / (p * (1.0 - math.exp(-theta))) - 1.0 / p
        r = p * math.exp(-theta)
        d = (math.exp(theta) - 1.0) / p
        c2 = theta - r * d
        # both moments piece by piece, each pair differenced before the
        # sum: at a tiny drive the pieces near the mean are O(p) (mean) and
        # O(p^2) (variance) while the raw antiderivatives are O(1), so a sum
        # in any other order, or E[f^2] - mu^2, loses them to rounding
        mu = ((_kernel_q(p, 0.0, nz, nv, s) - _kernel_q(p, 0.0, nz, nv, 0.0))
              + (_kernel_q(r, c2, nz, nv, math.inf) - _kernel_q(r, c2, nz, nv, s)))
        var = (
            _kernel_t(0.0, -mu, nz, nv, 0.0)
            + (_kernel_t(p, -mu, nz, nv, s) - _kernel_t(p, -mu, nz, nv, 0.0))
            + (_kernel_t(r, c2 - mu, nz, nv, math.inf)
               - _kernel_t(r, c2 - mu, nz, nv, s))
        )
    except (OverflowError, ZeroDivisionError) as exc:  # ** or e^theta overflow; theta < 2^-53
        raise ApproximationInvalidError(
            f"piecewise log surrogate overflows at theta {theta:g}, sum-gain mean {nz:g}, "
            f"variance {nv:g}") from exc
    if not var > 0:
        raise ApproximationInvalidError(
            f"piecewise log surrogate variance {var} is not > 0"
        )
    return GaussianApprox(mean=mu, variance=var)


def rf_outage_piecewise(h: RfHopParams, theta: float = 1.0) -> OutageEstimate:
    """Outage with the per-realization rate approximated by the piecewise-
    linear log surrogate integrated against the Gaussian sum-gain surrogate."""
    p = h.drive_power
    g = clt_sum_gain_params(h.fading)
    lm = log_moments_piecewise(p, g, theta)
    value = gaussian_outage(lm, h.M, h.C, h.R)
    return OutageEstimate(value, RF_PIECEWISE)


# ---------------------------------------------------------------------------
# linearized-CDF surrogate
# ---------------------------------------------------------------------------

def _linearized_mean(p: float, g: GaussianApprox):
    """(E[log(1+p*G)], (a2, a3, lo, x2)) with the Gaussian survival function of
    G replaced by a ramp a2 t + a3 from lo = max(mean - w/2, 0) to x2 = mean +
    w/2, w = sqrt(2 pi var): E[log] = p * integral of ramp/(1 + p x)."""
    nz, nv = g.mean, g.variance
    if not nv > 0:  # 0 once omega**2 underflows
        raise ApproximationInvalidError(
            f"linearized log surrogate: sum-gain variance {nv} is not > 0")
    w = math.sqrt(2.0 * math.pi * nv)
    x2, a2, a3 = nz + 0.5 * w, -1.0 / w, 0.5 + nz / w
    lo = max(nz - 0.5 * w, 0.0)
    c = a3 - a2 / p  # the ramp's antiderivative: a2 x + c log1p(p x)
    mu = math.log1p(p * lo) + (a2 * x2 + c * math.log1p(p * x2)) - (
        a2 * lo + c * math.log1p(p * lo))
    return mu, (a2, a3, lo, x2)


def log_moments_linearized(p: float, g: GaussianApprox):
    """Mean and variance of log(1+p*G) under `_linearized_mean`'s ramp."""
    mu, (a2, a3, lo, x2) = _linearized_mean(p, g)

    def b_kernel(x):  # antiderivative of 2 p (a2 t + a3) log(1 + p t)/(1 + p t)
        lg = math.log1p(p * x)
        return (p * a3 - a2) / p * lg * lg - 2.0 * a2 * x + (
            2.0 * p * a2 * x + 2.0 * a2
        ) / p * lg

    second = math.log1p(p * lo) ** 2 + b_kernel(x2) - b_kernel(lo)
    var = second - mu * mu
    if not var > 0:
        raise ApproximationInvalidError(
            f"linearized log surrogate variance {var} is not > 0"
        )
    return GaussianApprox(mean=mu, variance=var)


def rf_outage_linearized(h: RfHopParams) -> OutageEstimate:
    p = h.drive_power
    g = clt_sum_gain_params(h.fading)
    lm = log_moments_linearized(p, g)
    value = gaussian_outage(lm, h.M, h.C, h.R)
    return OutageEstimate(value, RF_LINEARIZED)


# ---------------------------------------------------------------------------
# FSO surrogate moments
# ---------------------------------------------------------------------------

def fso_moments(h: FsoHopParams) -> GaussianApprox:
    """Surrogate moments of log(1 + p_tx * G) for one FSO realization: one
    trapezoid sum over the gain law's table in y = ln G, for the exponential
    and the Gamma-Gamma model alike, with the variance centered."""
    y, w = h.model.log_table()
    lg = np.log1p(h.p_tx * np.exp(y))
    mu = float(w @ lg)
    var = float(w @ (lg - mu) ** 2)
    if not var > 0:
        raise ApproximationInvalidError(f"FSO surrogate variance {var} is not > 0")
    return GaussianApprox(mean=mu, variance=var)


def fso_outage_clt(h: FsoHopParams) -> OutageEstimate:
    value = gaussian_outage(fso_moments(h), h.M, h.C_tilde, h.R)
    return OutageEstimate(value, FSO_CLT)


def _product_bound_applies(h: FsoHopParams):
    if not isinstance(h.model, FsoGammaGamma):
        raise TypeError("product bound requires the Gamma-Gamma model")


def fso_outage_product_bound(h: FsoHopParams) -> OutageEstimate:
    """Upper bound on FSO outage for short codewords: the accumulated rate is
    lower-bounded through the product of gains (arithmetic-geometric step),
    turning outage into a product-of-variates CDF evaluation."""
    _product_bound_applies(h)
    n = h.M * h.C_tilde
    try:
        thr = (_snr_threshold(h.R / h.M) / h.p_tx) ** n
    except OverflowError:  # past every float, where the CDF reads 1
        thr = math.inf
    value = specfun.gg_product_cdf(h.model.a, h.model.b, n, thr)
    return OutageEstimate(value, FSO_PRODUCT_BOUND)


# ---------------------------------------------------------------------------
# RF short-codeword bounds and single-shot approximation
# ---------------------------------------------------------------------------

def _snr_threshold(rate: float) -> float:
    """e^rate - 1, the SNR one channel use needs to carry `rate` nats: +inf
    once e^rate overflows a float, where every gain CDF reads 1."""
    try:
        return math.exp(rate) - 1.0
    except OverflowError:
        return math.inf


def _pooled(h: RfHopParams) -> RicianFading:
    """The hop's M*C rounds of N antennas pooled into one sum gain."""
    return RicianFading(h.fading.K, h.fading.Omega, h.M * h.C * h.fading.N)


def _rf_jensen_lower(h: RfHopParams) -> OutageEstimate:
    arg = h.M * h.C * _snr_threshold(h.R / h.M) / h.drive_power
    return OutageEstimate(_pooled(h).cdf(arg), RF_JENSEN_LOWER)


def _rf_jensen_upper(h: RfHopParams) -> OutageEstimate:
    arg = _snr_threshold(h.R * h.C) / h.drive_power
    return OutageEstimate(_pooled(h).cdf(arg), RF_JENSEN_UPPER)


def rf_outage_bounds_short(h: RfHopParams):
    """(lower, upper) outage bounds from convexity of the rate in the gains:
    both evaluate the exact CDF of the pooled M*C*N-antenna sum gain."""
    return _rf_jensen_lower(h), _rf_jensen_upper(h)


def rf_outage_single_shot(h: RfHopParams) -> OutageEstimate:
    """Open-loop (M=C=1) outage from applying the Gaussian sum-gain surrogate
    directly to the decode threshold (e^R - 1)/P'."""
    if h.M != 1 or h.C != 1:
        raise ValueError(
            f"single-shot evaluator requires M=C=1, got M={h.M}, C={h.C}"
        )
    p = h.drive_power
    g = clt_sum_gain_params(h.fading)
    thr = _snr_threshold(h.R) / p
    return OutageEstimate(gaussian_outage(g, 1, 1, thr), RF_SINGLE_SHOT)


# ---------------------------------------------------------------------------
# ergodic rates and antenna sizing
# ---------------------------------------------------------------------------

def rf_ergodic_rate(f: RicianFading, pa: PaConfig) -> float:
    """Ergodic rate E[log(1+P'G)]: the linearized-CDF closed form's mean alone."""
    mu = _linearized_mean(output_power(pa), clt_sum_gain_params(f))[0]
    if not math.isfinite(mu):
        raise ApproximationInvalidError(f"linearized log surrogate mean {mu} is not finite")
    return mu


def fso_ergodic_rate(h: FsoHopParams) -> float:
    return fso_moments(h).mean


def min_rf_antennas(K: float, Omega: float, pa: PaConfig, target_rate: float) -> int:
    """Smallest antenna count N whose ergodic rate meets target_rate (1e-9
    absolute slack); `InfeasibleError` when N = `_MAX_ANTENNAS` misses it.
    Starts at N0 = ceil((e^target - 1)/(p Omega)), where Jensen's bound
    log(1 + p N Omega) on the rate at drive p meets the target, gallops from
    N0 in steps 1, 2, 4, ... to a bracket and bisects it: the rate rises with
    N, so any start gives the same N."""
    if math.isnan(target_rate):
        raise ValueError(f"target_rate must be a number, got {target_rate}")
    if target_rate <= 0:
        return 1

    # the clamp keeps e^target finite; it moves only the start, not the answer
    guess = math.expm1(min(target_rate, 700.0)) / output_power(pa) / Omega
    n = max(1, math.ceil(guess)) if guess < _MAX_ANTENNAS else _MAX_ANTENNAS
    lo, hi, step = 0, _MAX_ANTENNAS + 1, 1  # lo misses or is 0; hi meets or is past cap
    while hi - lo > 1:
        meets = rf_ergodic_rate(RicianFading(K, Omega, n), pa) >= target_rate - 1e-9
        lo, hi = (lo, n) if meets else (n, hi)
        if hi > _MAX_ANTENNAS:  # nothing meets yet: gallop up
            n = min(lo + step, _MAX_ANTENNAS)
        elif lo == 0:  # nothing misses yet: gallop down
            n = max(hi - step, 1)
        else:
            n = (lo + hi) // 2
        step *= 2
    if hi > _MAX_ANTENNAS:
        raise InfeasibleError(
            f"no antenna count up to {_MAX_ANTENNAS} reaches rate {target_rate}")
    return hi


# ---------------------------------------------------------------------------
# the evaluator table: per-hop dispatch used by network / CLI
# ---------------------------------------------------------------------------

# hop class -> (link kind, its default tag, ergodic rate), in the order in
# which an (rf_method, fso_method) pair gives one tag per kind
_HOP_KINDS = {
    RfHopParams: ("RF", RF_LINEARIZED, lambda h: rf_ergodic_rate(h.fading, h.pa)),
    FsoHopParams: ("FSO", FSO_CLT, lambda h: fso_ergodic_rate(h)),
}
DEFAULT_TAGS = tuple(default for _, default, _ in _HOP_KINDS.values())
_PAIR_PLACE = {cls: i for i, cls in enumerate(_HOP_KINDS)}


# `validate` classes: an estimate is held within a factor of MC, a bound
# to its own side of MC
ESTIMATE, LOWER_BOUND, UPPER_BOUND = "estimate", "lower_bound", "upper_bound"


@dataclass(frozen=True)
class Evaluator:
    """A method tag's hop class, outage of (hop, theta), `validate` class and
    check that raises, before any numerics, where the tag does not apply.
    A row whose hop or `validate` class is not one of those known raises
    when it is built, not when `validate` reads it."""
    hop: type
    outage: Callable
    bound: str
    check: Callable = lambda hop: None

    def __post_init__(self):
        if not any(self.hop is cls for cls in _HOP_KINDS):
            raise ValueError(f"hop must be one of {', '.join(c.__name__ for c in _HOP_KINDS)}, "
                             f"got {self.hop!r}")
        if self.bound not in (ESTIMATE, LOWER_BOUND, UPPER_BOUND):
            raise ValueError(f"bound must be {ESTIMATE!r}, {LOWER_BOUND!r} or "
                             f"{UPPER_BOUND!r}, got {self.bound!r}")


# method tag -> its row; every function is looked up when called, so a
# tracer's or a monkeypatch's rebinding of it takes effect
EVALUATORS = {
    RF_LOW_SNR: Evaluator(RfHopParams, lambda h, _: rf_outage_low_snr(h), ESTIMATE),
    RF_PIECEWISE: Evaluator(RfHopParams, lambda h, theta: rf_outage_piecewise(h, theta),
                            ESTIMATE),
    RF_LINEARIZED: Evaluator(RfHopParams, lambda h, _: rf_outage_linearized(h), ESTIMATE),
    RF_SINGLE_SHOT: Evaluator(RfHopParams, lambda h, _: rf_outage_single_shot(h), ESTIMATE),
    RF_JENSEN_LOWER: Evaluator(RfHopParams, lambda h, _: _rf_jensen_lower(h), LOWER_BOUND),
    RF_JENSEN_UPPER: Evaluator(RfHopParams, lambda h, _: _rf_jensen_upper(h), UPPER_BOUND),
    FSO_CLT: Evaluator(FsoHopParams, lambda h, _: fso_outage_clt(h), ESTIMATE),
    FSO_PRODUCT_BOUND: Evaluator(FsoHopParams, lambda h, _: fso_outage_product_bound(h),
                                 UPPER_BOUND, lambda h: _product_bound_applies(h)),
}
RF_TAGS = tuple(t for t, row in EVALUATORS.items() if row.hop is RfHopParams)
FSO_TAGS = tuple(t for t, row in EVALUATORS.items() if row.hop is FsoHopParams)


def _hop_kind(hop, rf_method: str = RF_LINEARIZED, fso_method: str = FSO_CLT):
    """(link kind, the tag of the pair it takes, ergodic rate) of a hop."""
    if type(hop) not in _HOP_KINDS:
        raise TypeError(f"unsupported hop type {type(hop).__name__}")
    kind, _, rate = _HOP_KINDS[type(hop)]
    return kind, (rf_method, fso_method)[_PAIR_PLACE[type(hop)]], rate


def method_pair(tag: str) -> tuple:
    """(rf_method, fso_method): `tag` on its link kind, the default on the other."""
    return tuple(tag if cls is EVALUATORS[tag].hop else default
                 for cls, (_, default, _) in _HOP_KINDS.items())


def _row(hop, rf_method: str, fso_method: str) -> Evaluator:
    """The row of the tag the hop takes; ValueError if none scores the hop's class."""
    kind, method, _ = _hop_kind(hop, rf_method, fso_method)
    row = EVALUATORS.get(method)
    if row is None or row.hop is not type(hop):
        raise ValueError(f"unknown {kind} method {method!r}")
    return row


def check_hop(hop, rf_method: str = RF_LINEARIZED, fso_method: str = FSO_CLT):
    """Raise, before any numerics, for an unknown tag or a row's check (a product
    bound on a hop that is not Gamma-Gamma); a mesh checks every hop first."""
    _row(hop, rf_method, fso_method).check(hop)


def hop_outage(hop, rf_method: str = RF_LINEARIZED, fso_method: str = FSO_CLT,
               theta: float = 1.0) -> OutageEstimate:
    """One hop's outage by its tag's row, whose evaluator also runs its check."""
    return _row(hop, rf_method, fso_method).outage(hop, theta)


def hop_ergodic_rate(hop) -> float:
    return _hop_kind(hop)[2](hop)
