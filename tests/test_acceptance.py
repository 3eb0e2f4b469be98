"""End-to-end acceptance gates for the release.

Each test measures one headline capability of the package against pinned
numeric targets and records a single ``CRITERION n: PASS/FAIL`` line with
the measured values (echoed after the run by the terminal-summary hook in
conftest.py, so a plain ``pytest`` run shows all of them).  Gates that
encode external reference targets which the faithful implementation does
not reproduce are allowed to FAIL — loudly and with full diagnostics —
rather than being weakened.
"""

import math

import numpy as np
import yaml
from scipy.integrate import quad

from linkplan import specfun
from linkplan.analysis import (
    FsoHopParams,
    RfHopParams,
    fso_moments,
    fso_outage_product_bound,
    hop_outage,
    log_moments_linearized,
    rf_moments_low_snr,
    rf_outage_bounds_short,
    rf_outage_linearized,
    rf_outage_piecewise,
    rf_outage_single_shot,
)
from linkplan.channel import (
    FsoExponential,
    FsoGammaGamma,
    RicianFading,
    _half_moment,
    clt_sum_gain_params,
    rician_gain_pdf,
)
from linkplan.cli import main
from linkplan.hardware import PaConfig
from linkplan.network import MeshNetwork, Route, mesh_outage, route_outage
from linkplan.simulate import (
    McConfig,
    required_snr,
    shift_scenario,
    simulate_fso_hop,
    simulate_mesh,
    simulate_rf_hop,
    simulate_route,
)

GG = FsoGammaGamma(a=4.3939, b=2.5636)
Z95 = 1.959963984540054  # two-sided 95% normal quantile used by the CIs

VERDICT_LINES = []  # echoed by conftest.pytest_terminal_summary


def _report(line):
    VERDICT_LINES.append(line)
    print(line)


def _bisect_drive(outage_of_drive, target, lo=1e-6, hi=50.0, iters=80):
    """Drive power where a decreasing outage curve crosses ``target``."""
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if outage_of_drive(mid) > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


# ---------------------------------------------------------------------------
# 1. energy gain from incremental-redundancy retransmissions
# ---------------------------------------------------------------------------

def test_criterion_1_harq_retransmission_gain():
    """Required SNR at outage 1e-4 should drop by 11.5-14.5 dB going from
    M=1 to M=2 rounds and by 15.5-18.5 dB going to M=3, on an ideal-PA RF +
    exponential-FSO route (N=60, C=10, C_tilde=20, R=3)."""

    def route(m):
        rf = RfHopParams(fading=RicianFading(0.01, 1.0, 60),
                         pa=PaConfig.ideal(1.0), M=m, C=10, R=3.0)
        fso = FsoHopParams(model=FsoExponential(1.0), p_tx=60.0,
                           M=m, C_tilde=20, R=3.0)
        return Route(hops=(rf, fso))

    snr = {m: required_snr(1e-4, route(m), evaluator="analytical",
                           bounds_db=(-30.0, 30.0)) for m in (1, 2, 3, 4)}
    g12 = snr[1] - snr[2]
    g13 = snr[1] - snr[3]
    g14 = snr[1] - snr[4]
    ok_gaps = 11.5 <= g12 <= 14.5 and 15.5 <= g13 <= 18.5

    spot = "skipped (gap clause failed)"
    ok_spot = True
    if ok_gaps:
        est = simulate_route(shift_scenario(route(1), snr[1]),
                             McConfig(trials=10**8, seed=41))
        sigma = est.ci_halfwidth / Z95
        ok_spot = abs(est.value - 1e-4) <= 3.0 * sigma
        spot = f"mc={est.value:.3e} (3sigma={3 * sigma:.1e})"

    ok = ok_gaps and ok_spot
    _report(
        f"CRITERION 1: {'PASS' if ok else 'FAIL'} — M1-M2 gap {g12:.2f} dB "
        f"(need 11.5-14.5), M1-M3 gap {g13:.2f} dB (need 15.5-18.5); "
        f"counting rounds instead of added retransmissions the M1-M3/M1-M4 "
        f"gaps are {g13:.2f}/{g14:.2f} dB, both inside the stated bands; "
        f"MC spot: {spot}"
    )
    assert ok, (
        f"retransmission gains {g12:.2f}/{g13:.2f} dB outside "
        f"[11.5,14.5]/[15.5,18.5] (M1-M4 gap {g14:.2f} dB)"
    )


# ---------------------------------------------------------------------------
# 2. minimum antenna counts for a rate target under a non-ideal PA
# ---------------------------------------------------------------------------

def test_criterion_2_min_antenna_counts(tmp_path):
    """cmd min-antennas at 3 dB consumed SNR, theta_pa=0.5, p_max=25 dB,
    Gamma-Gamma FSO target: counts should be 33+-3 / 49+-3 / 98+-5 for
    epsilon = 0.75 / 0.50 / 0.25."""
    doc = {
        "rf_hops": [
            {"K": 0.01, "omega": 1.0, "N": 2, "R": 3.0,
             "pa": {"epsilon": e, "theta_pa": 0.5,
                    "p_max_db": 25.0, "p_cons_db": 3.0}}
            for e in (0.75, 0.5, 0.25)
        ],
        "fso_hops": [{"model": "gamma_gamma", "a": 4.3939, "b": 2.5636,
                      "p_tx_db": 3.0, "M": 1, "C_tilde": 1, "R": 3.0}],
        "routes": [["rf:0", "rf:1", "rf:2", "fso:0"]],
        "sweep": {"variable": "snr_db", "grid": [3.0]},
        "evaluators": ["rf_linearized_clt"],
        "mc": {"trials": 20000, "seed": 1},
    }
    cfg = tmp_path / "minant.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    out = tmp_path / "minant.csv"
    rc = main(["min-antennas", "--config", str(cfg), "--out", str(out)])
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    counts = {float(r[2]): int(r[3]) for r in rows}

    bands = {0.75: (30, 36), 0.5: (46, 52), 0.25: (93, 103)}
    ok = rc == 0 and all(
        bands[e][0] <= counts.get(e, -1) <= bands[e][1] for e in bands
    )
    _report(
        f"CRITERION 2: {'PASS' if ok else 'FAIL'} — counts "
        f"eps=0.75: {counts.get(0.75)} (need 30-36), "
        f"eps=0.50: {counts.get(0.5)} (need 46-52), "
        f"eps=0.25: {counts.get(0.25)} (need 93-103); "
        f"measured counts scale as 1/eps^2, the signature of the quadratic "
        f"drive-vs-consumed power law at theta_pa=0.5"
    )
    assert ok, f"min-antenna counts {counts} outside bands {bands}"


# ---------------------------------------------------------------------------
# 3. tightness of the two closed-form RF outage surrogates against MC
# ---------------------------------------------------------------------------

def test_criterion_3_surrogate_tightness_vs_mc():
    """For N in {20,40,80}, M=1, C=10, R=2, ideal PA: both log-surrogate
    evaluators must stay within factor 1.5 of MC (1e6 trials) wherever MC
    outage is in [1e-3, 0.5], and cross outage 1e-2 within 0.3 dB of MC."""
    lines = []
    worst_factor = {"piecewise": 1.0, "linearized": 1.0}
    worst_offset = {"piecewise": 0.0, "linearized": 0.0}
    for N in (20, 40, 80):
        f = RicianFading(0.01, 1.0, N)

        def hop(p):
            return RfHopParams(fading=f, pa=PaConfig.ideal(p),
                               M=1, C=10, R=2.0)

        pw = lambda p: rf_outage_piecewise(hop(p), theta=2.0).value
        lin = lambda p: rf_outage_linearized(hop(p)).value

        for k, t in enumerate((0.3, 0.1, 0.02, 3e-3)):
            p_t = _bisect_drive(pw, t)
            est = simulate_rf_hop(
                hop(p_t), McConfig(trials=1_000_000, seed=3000 + 10 * N + k))
            mc = est.value
            if 1e-3 <= mc <= 0.5:
                worst_factor["piecewise"] = max(
                    worst_factor["piecewise"], pw(p_t) / mc, mc / pw(p_t))
                worst_factor["linearized"] = max(
                    worst_factor["linearized"], lin(p_t) / mc, mc / lin(p_t))

        # horizontal offset at outage 1e-2: bisect the (common-random-number,
        # hence deterministic and monotone) MC curve inside +-1.5 dB of the
        # analytic crossing
        p_pw = _bisect_drive(pw, 1e-2)
        p_lin = _bisect_drive(lin, 1e-2)
        seed = 4000 + N
        mc_at = lambda p: simulate_rf_hop(
            hop(p), McConfig(trials=1_000_000, seed=seed)).value
        lo, hi = p_pw * 10**-0.15, p_pw * 10**0.15
        assert mc_at(lo) > 1e-2 > mc_at(hi), "MC curve left the search window"
        for _ in range(16):
            mid = math.sqrt(lo * hi)
            if mc_at(mid) > 1e-2:
                lo = mid
            else:
                hi = mid
        p_mc = math.sqrt(lo * hi)
        off_pw = abs(10.0 * math.log10(p_mc / p_pw))
        off_lin = abs(10.0 * math.log10(p_mc / p_lin))
        worst_offset["piecewise"] = max(worst_offset["piecewise"], off_pw)
        worst_offset["linearized"] = max(worst_offset["linearized"], off_lin)
        lines.append(f"N={N}: offsets {off_pw:.2f}/{off_lin:.2f} dB")

    ok_factor = all(v <= 1.5 for v in worst_factor.values())
    ok_offset = all(v < 0.3 for v in worst_offset.values())
    ok = ok_factor and ok_offset
    _report(
        f"CRITERION 3: {'PASS' if ok else 'FAIL'} — worst vertical factor "
        f"piecewise {worst_factor['piecewise']:.2f}, linearized "
        f"{worst_factor['linearized']:.1f} (need <=1.5); worst 1e-2 offset "
        f"piecewise {worst_offset['piecewise']:.2f} dB, linearized "
        f"{worst_offset['linearized']:.2f} dB (need <0.3); "
        + "; ".join(lines)
        + "; the linearized surrogate understates the rate variance (ramp vs "
        f"Gaussian second moment), which inflates tail factors while leaving "
        f"the horizontal position nearly unchanged"
    )
    assert ok, (
        f"worst factors {worst_factor} (gate 1.5), "
        f"worst offsets {worst_offset} dB (gate 0.3)"
    )


# ---------------------------------------------------------------------------
# 4. SNR gain from adding parallel routes at deep target outage
# ---------------------------------------------------------------------------

def test_criterion_4_multi_route_diversity_gain():
    """Analytic required SNR at outage 1e-6 for a 2-route mesh should sit
    0.8-1.6 dB below the single route, and a third route a further
    0.2-0.8 dB below (non-ideal PA, Gamma-Gamma FSO, M=3, N=60,
    C=C_tilde=10, R=3)."""

    def mesh(x):
        rf = RfHopParams(fading=RicianFading(0.01, 1.0, 60),
                         pa=PaConfig(0.75, 0.5, 316.2278, 2.0),
                         M=3, C=10, R=3.0)
        fso = FsoHopParams(model=GG, p_tx=120.0, M=3, C_tilde=10, R=3.0)
        return MeshNetwork(routes=tuple(Route(hops=(rf, fso))
                                        for _ in range(x)))

    snr = {x: required_snr(1e-6, mesh(x), evaluator="analytical",
                           rf_method="rf_piecewise_clt", theta=1.0,
                           bounds_db=(-10.0, 20.0)) for x in (1, 2, 3)}
    gain2 = snr[1] - snr[2]
    gain3 = snr[2] - snr[3]
    ok = 0.8 <= gain2 <= 1.6 and 0.2 <= gain3 <= 0.8

    # steepness evidence: MC outage of the single route around the analytic
    # 1e-6 crossing
    cliff = []
    for s in (3.0, 3.1, 3.2):
        est = simulate_route(shift_scenario(mesh(1).routes[0], s),
                             McConfig(trials=200_000, seed=800))
        cliff.append(f"{est.value:.2e}@{s:.1f}dB")

    _report(
        f"CRITERION 4: {'PASS' if ok else 'FAIL'} — route gains "
        f"{gain2:.3f} dB (need 0.8-1.6) and {gain3:.3f} dB (need 0.2-0.8) at "
        f"outage 1e-6; MC single-route outage falls {', '.join(cliff)} "
        f"(~14 decades/dB), so with 60 antennas and 30 accumulated rounds "
        f"the outage curve is too steep for any evaluator matching MC to "
        f"space the route curves 1.2 dB apart at 1e-6"
    )
    assert ok, (
        f"route-diversity gains {gain2:.3f}/{gain3:.3f} dB outside "
        f"[0.8,1.6]/[0.2,0.8]"
    )


# ---------------------------------------------------------------------------
# 5. analytic bounds sandwich MC on random small configurations
# ---------------------------------------------------------------------------

def test_criterion_5_bound_sandwich_random_configs():
    """On 20 random configurations with at most 4 accumulated rounds the
    short-accumulation RF bounds must bracket MC (1e6 trials, 3 sigma slack
    for MC noise), the FSO product bound must dominate MC, and for
    M=C_tilde=1 the FSO bound must equal MC within 3 sigma."""
    rng = np.random.default_rng(20260825)
    pairs = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (2, 2), (4, 1)]
    violations = []
    equality_checks = 0
    for i in range(20):
        K = rng.uniform(0.0, 3.0)
        Om = rng.uniform(0.5, 2.0)
        N = int(rng.integers(1, 7))
        M, C = pairs[rng.integers(0, len(pairs))]
        R = rng.uniform(0.3, 1.5)
        # place the drive so the decode threshold lands near the bulk of the
        # pooled-gain distribution (outage neither 0 nor 1)
        p = (math.exp(R * C) - 1.0) / (M * C * N * Om) \
            * 10.0 ** rng.uniform(-0.5, 0.5)
        h = RfHopParams(fading=RicianFading(K, Om, N), pa=PaConfig.ideal(p),
                        M=M, C=C, R=R)
        lo_b, up_b = rf_outage_bounds_short(h)
        est = simulate_rf_hop(h, McConfig(trials=1_000_000, seed=5000 + i))
        sig = est.ci_halfwidth / Z95
        if not (lo_b.value <= est.value + 3 * sig
                and est.value <= up_b.value + 3 * sig):
            violations.append(
                f"rf i={i}: {lo_b.value:.3g} !<= {est.value:.3g} "
                f"!<= {up_b.value:.3g}")

        Mf, Ct = pairs[rng.integers(0, len(pairs))]
        Rf = rng.uniform(0.3, 1.5)
        if i % 4 == 0:
            Mf, Ct = 1, 1
        thr = 10.0 ** rng.uniform(-0.6, 0.6)
        hf = FsoHopParams(model=GG, p_tx=(math.exp(Rf / Mf) - 1.0) / thr,
                          M=Mf, C_tilde=Ct, R=Rf)
        bnd = fso_outage_product_bound(hf)
        estf = simulate_fso_hop(hf, McConfig(trials=1_000_000, seed=5100 + i))
        sigf = estf.ci_halfwidth / Z95
        if estf.value > bnd.value + 3 * sigf:
            violations.append(
                f"fso i={i}: mc {estf.value:.3g} > bound {bnd.value:.3g}")
        if Mf == 1 and Ct == 1:
            equality_checks += 1
            if abs(estf.value - bnd.value) > 3 * sigf:
                violations.append(
                    f"fso-eq i={i}: |{estf.value:.3g} - {bnd.value:.3g}| "
                    f"> {3 * sigf:.2g}")

    ok = not violations
    _report(
        f"CRITERION 5: {'PASS' if ok else 'FAIL'} — 20 random configurations "
        f"(each one RF sandwich + one FSO domination check, "
        f"{equality_checks} single-round equality cases), violations: "
        f"{violations if violations else 'none'}"
    )
    assert ok, f"bound violations: {violations}"


# ---------------------------------------------------------------------------
# 6. low-SNR equivalence of accumulation and one big open-loop antenna array
# ---------------------------------------------------------------------------

def test_criterion_6_low_snr_harq_open_loop_equivalence():
    """At per-antenna drive P'=0.01 the (N=2, M=2, C=2) accumulator should
    match the pooled open-loop array (N=8, M=1, C=1) run at the accumulated
    rate C*R, within 3 combined standard errors, for R in
    {0.01, 0.02, 0.05} (1e6 trials each)."""
    rows = []
    ok_all = True
    for j, r in enumerate((0.01, 0.02, 0.05)):
        a = RfHopParams(fading=RicianFading(0.01, 1.0, 2),
                        pa=PaConfig.ideal(0.01), M=2, C=2, R=r)
        # the open-loop twin decodes the same pooled gain against the same
        # low-SNR threshold when its rate equals the accumulated C*R
        b = RfHopParams(fading=RicianFading(0.01, 1.0, 8),
                        pa=PaConfig.ideal(0.01), M=1, C=1, R=2.0 * r)
        ea = simulate_rf_hop(a, McConfig(trials=1_000_000, seed=700 + j))
        eb = simulate_rf_hop(b, McConfig(trials=1_000_000, seed=710 + j))
        d = abs(ea.value - eb.value)
        lim = 3.0 * math.hypot(ea.ci_halfwidth / Z95, eb.ci_halfwidth / Z95)
        ok = d < lim
        ok_all = ok_all and ok
        rows.append(f"R={r}: |{ea.value:.4g}-{eb.value:.4g}|="
                    f"{d:.2g} vs 3se={lim:.2g} {'ok' if ok else 'FAIL'}")

    _report(
        f"CRITERION 6: {'PASS' if ok_all else 'FAIL'} — " + "; ".join(rows)
        + "; the identity is exact only as the per-round mutual information "
        f"becomes linear in the gain, and 1e6 trials resolve the residual "
        f"log curvature once the decode threshold P'*G reaches ~0.04"
    )
    assert ok_all, f"low-SNR equivalence: {rows}"


# ---------------------------------------------------------------------------
# 7. closed-form moments against independent quadrature oracles
# ---------------------------------------------------------------------------

def test_criterion_7_closed_form_moment_oracles():
    """Every closed-form moment (low-SNR sum-gain mean/variance, per-antenna
    half moments, linearized log-surrogate mean/variance, exponential FSO
    log moments) must match an independent quadrature oracle within 1%
    relative over a >=50-point parameter grid; special-function kernels must
    match their frozen series/quadrature oracles."""
    points = 0

    # low-SNR sum-gain moments vs quadrature of the single-antenna density.
    # The variance closed form used here is the quadrature-consistent one;
    # the expanded second-moment identity is unit-tested separately and the
    # quadrature value is authoritative.
    worst_l1 = 0.0
    for K in (0.0, 2.0, 5.0):
        for Om in (0.5, 2.0):
            f1 = RicianFading(K, Om, 1)
            m1, _ = quad(lambda x: x * rician_gain_pdf(x, f1),
                         0.0, np.inf, limit=300)
            m2, _ = quad(lambda x: x * x * rician_gain_pdf(x, f1),
                         0.0, np.inf, limit=300)
            for N in (1, 4):
                got = rf_moments_low_snr(RicianFading(K, Om, N))
                worst_l1 = max(
                    worst_l1,
                    abs(got.mean - N * m1) / (N * m1),
                    abs(got.variance - N * (m2 - m1 * m1))
                    / (N * (m2 - m1 * m1)),
                )
                points += 1

    # per-antenna half moments S(n) = E[g^{n/2}] vs quadrature
    worst_l2 = 0.0
    for K in (0.0, 0.5, 1.0, 2.0, 5.0):
        for Om in (0.5, 1.0, 2.0):
            f1 = RicianFading(K, Om, 1)
            for n in (1, 2, 3, 4):
                ref, _ = quad(
                    lambda x: x ** (0.5 * n) * rician_gain_pdf(x, f1),
                    0.0, np.inf, limit=300)
                got = _half_moment(n, K, Om)
                worst_l2 = max(worst_l2, abs(got - ref) / ref)
            g = clt_sum_gain_params(RicianFading(K, Om, 3))
            s2 = _half_moment(2, K, Om)
            s4 = _half_moment(4, K, Om)
            assert math.isclose(g.mean, 3 * s2, rel_tol=1e-12)
            assert math.isclose(g.variance, 3 * (s4 - s2 * s2), rel_tol=1e-12)
            points += 1

    # linearized log surrogate: mean vs quadrature of log(1+p*x) against the
    # Gaussian sum-gain density (accuracy oracle); variance vs quadrature of
    # the surrogate's own ramp construction (algebra oracle — the ramp's
    # second moment differs from the Gaussian-density one by design,
    # approaching a pi/6 ratio for wide surrogates, so the defining integral
    # is the meaningful reference for the closed form)
    worst_l4_mean = 0.0
    worst_l4_var = 0.0
    for N in (20, 40, 80, 200):
        for p in (0.1, 0.3, 1.0, 10.0):
            g = clt_sum_gain_params(RicianFading(0.01, 1.0, N))
            got = log_moments_linearized(p, g)
            sd = math.sqrt(g.variance)
            lo_g = max(0.0, g.mean - 10.0 * sd)
            ref_mean, _ = quad(
                lambda x: math.log1p(p * x)
                * math.exp(-0.5 * ((x - g.mean) / sd) ** 2)
                / (sd * math.sqrt(2.0 * math.pi)),
                lo_g, g.mean + 10.0 * sd, limit=200)
            worst_l4_mean = max(worst_l4_mean,
                                abs(got.mean - ref_mean) / ref_mean)

            w = math.sqrt(2.0 * math.pi * g.variance)
            x1, x2 = g.mean - 0.5 * w, g.mean + 0.5 * w
            lo = max(x1, 0.0)
            surv = lambda x: 0.5 + (g.mean - x) / w
            m_ramp = math.log1p(p * lo) * surv(lo) + quad(
                lambda x: p / (1.0 + p * x) * surv(x), lo, x2, limit=200)[0]
            s_ramp = math.log1p(p * lo) ** 2 * surv(lo) + quad(
                lambda x: 2.0 * math.log1p(p * x) * p / (1.0 + p * x)
                * surv(x), lo, x2, limit=200)[0]
            v_ramp = s_ramp - m_ramp * m_ramp
            worst_l4_var = max(worst_l4_var,
                               abs(got.variance - v_ramp) / v_ramp)
            points += 1

    # exponential FSO log moments vs quadrature
    worst_l5 = 0.0
    for lam in (0.5, 1.0, 2.0):
        for P in (0.5, 2.0, 5.0, 50.0):
            got = fso_moments(FsoHopParams(model=FsoExponential(lam),
                                           p_tx=P))
            m_ref, _ = quad(
                lambda x: math.log1p(P * x) * lam * math.exp(-lam * x),
                0.0, np.inf, limit=300)
            s_ref, _ = quad(
                lambda x: math.log1p(P * x) ** 2 * lam * math.exp(-lam * x),
                0.0, np.inf, limit=300)
            v_ref = s_ref - m_ref * m_ref
            worst_l5 = max(worst_l5, abs(got.mean - m_ref) / m_ref,
                           abs(got.variance - v_ref) / v_ref)
            points += 1

    # special-function kernels vs frozen series/quadrature oracle values
    assert math.isclose(specfun.bessel_k(1.8303, 3.0),
                        0.056138457717026530, rel_tol=1e-9)
    assert math.isclose(
        specfun.gen_hypergeometric([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], -0.5),
        0.94182379686644050, rel_tol=1e-13)
    assert math.isclose(specfun.gg_product_cdf(4.3939, 2.5636, 1, 1.0),
                        0.626622105950305, rel_tol=1e-6)
    assert math.isclose(specfun.expint_ei(-1.0),
                        -0.21938393439552027, rel_tol=1e-12)
    assert math.isclose(specfun.laguerre(2.0, -2.0), 7.0, rel_tol=1e-12)

    worsts = {"sum-gain": worst_l1, "half-moment": worst_l2,
              "ramp-mean": worst_l4_mean, "ramp-var": worst_l4_var,
              "fso-exp": worst_l5}
    ok = points >= 50 and all(v < 1e-2 for v in worsts.values())
    _report(
        f"CRITERION 7: {'PASS' if ok else 'FAIL'} — {points} parameter "
        f"points; worst relative errors: sum-gain {worst_l1:.2e}, "
        f"half-moments {worst_l2:.2e}, log-surrogate mean "
        f"{worst_l4_mean:.2e} / variance {worst_l4_var:.2e}, exponential "
        f"FSO {worst_l5:.2e} (gate 1e-2); special-function spot oracles ok"
    )
    assert ok, f"moment oracle errors {worsts} over {points} points"


# ---------------------------------------------------------------------------
# 8. structural invariants
# ---------------------------------------------------------------------------

def test_criterion_8_structural_invariants():
    """Hop-permutation invariance, monotone route/mesh composition, MC
    determinism under fixed seeds, and outage in [0,1] for every
    evaluator."""
    r1 = RfHopParams(fading=RicianFading(1.0, 1.0, 4),
                     pa=PaConfig.ideal(0.3), M=1, C=2, R=0.8)
    r2 = RfHopParams(fading=RicianFading(0.2, 1.5, 2),
                     pa=PaConfig.ideal(0.5), M=2, C=1, R=0.8)
    f1 = FsoHopParams(model=FsoExponential(1.0), p_tx=2.0,
                      M=1, C_tilde=2, R=0.8)

    # serial combination is order-free
    a = route_outage(Route(hops=(r1, f1, r2)))
    b = route_outage(Route(hops=(r2, r1, f1)))
    assert a.value == b.value

    # outage grows with hops, shrinks with routes
    o1 = route_outage(Route(hops=(r1,))).value
    o2 = route_outage(Route(hops=(r1, f1))).value
    o3 = route_outage(Route(hops=(r1, f1, r2))).value
    assert o1 <= o2 <= o3
    route = Route(hops=(r1, f1))
    m1 = mesh_outage(MeshNetwork(routes=(route,))).value
    m2 = mesh_outage(MeshNetwork(routes=(route, route))).value
    m3 = mesh_outage(MeshNetwork(routes=(route, route, route))).value
    assert m1 >= m2 >= m3

    # seeded simulation is reproducible
    mesh = MeshNetwork(routes=(route, Route(hops=(r2,))))
    e1 = simulate_mesh(mesh, McConfig(trials=50_000, seed=77))
    e2 = simulate_mesh(mesh, McConfig(trials=50_000, seed=77))
    assert e1.value == e2.value

    # every evaluator stays inside [0,1] across a wide drive sweep
    checks = 0
    for p in np.logspace(-3.0, 2.0, 8):
        hop = RfHopParams(fading=RicianFading(0.5, 1.0, 3),
                          pa=PaConfig.ideal(float(p)), M=2, C=2, R=1.0)
        single = RfHopParams(fading=RicianFading(0.5, 1.0, 3),
                             pa=PaConfig.ideal(float(p)), M=1, C=1, R=1.0)
        gg_hop = FsoHopParams(model=GG, p_tx=float(p), M=2, C_tilde=2, R=1.0)
        exp_hop = FsoHopParams(model=FsoExponential(1.0), p_tx=float(p),
                               M=1, C_tilde=3, R=1.0)
        vals = [
            hop_outage(hop, "rf_low_snr_clt").value,
            hop_outage(hop, "rf_piecewise_clt", theta=0.5).value,
            hop_outage(hop, "rf_linearized_clt").value,
            rf_outage_single_shot(single).value,
            hop_outage(gg_hop, fso_method="fso_clt").value,
            fso_outage_product_bound(gg_hop).value,
            hop_outage(exp_hop, fso_method="fso_clt").value,
        ]
        vals.extend(e.value for e in rf_outage_bounds_short(hop))
        assert all(0.0 <= v <= 1.0 for v in vals), (p, vals)
        checks += len(vals)

    _report(
        f"CRITERION 8: PASS — permutation invariance, route/mesh "
        f"monotonicity, seeded-MC determinism, and "
        f"{checks} in-range evaluator outputs"
    )
