"""Monte Carlo engine: determinism, closed-form anchors, interval behavior,
joint route/mesh semantics, and the power-search on top of it."""

import hashlib
import math
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkplan.analysis import (
    FsoHopParams,
    RfHopParams,
    rf_outage_piecewise,
)
from linkplan.channel import (
    TILE_TRIALS,
    FsoExponential,
    FsoGammaGamma,
    RicianFading,
    _GammaProduct,
)
from linkplan.hardware import PaConfig
from linkplan.network import MeshNetwork, Route
from linkplan.simulate import (
    BracketError,
    McConfig,
    McPrecisionError,
    required_snr,
    shift_scenario,
    simulate_fso_hop,
    simulate_mesh,
    simulate_rf_hop,
    simulate_route,
    simulate_sweep,
    wilson_halfwidth,
)
from oracles import law_draws

GG = FsoGammaGamma(a=4.3939, b=2.5636)
GG_TINY_B = FsoGammaGamma(a=2.0, b=0.01)

# single Rayleigh draw at P'=1, R=1: outage = 1 - exp(-(e-1))
RAYLEIGH_SINGLE_DRAW = 0.820625921265983


def _rf(p, n=4, m=1, c=1, r=1.0, k=0.01):
    return RfHopParams(fading=RicianFading(k, 1.0, n), pa=PaConfig.ideal(p),
                       M=m, C=c, R=r)


def _fso(p, m=1, c=1, r=1.0, model=None):
    return FsoHopParams(model=model or FsoExponential(lam=1.0), p_tx=p, M=m,
                        C_tilde=c, R=r)


def _sigma(est):
    return est.ci_halfwidth / 1.959963984540054


# ----------------------------------------------------------------------------
# config validation / determinism
# ----------------------------------------------------------------------------

def test_mcconfig_validation():
    with pytest.raises(ValueError):
        McConfig(trials=999)
    # frozen: an assignment would skip the >= 1000 and integer checks
    mc = McConfig(1000, 1)
    for field, value in (("trials", 10), ("trials", 2.5), ("seed", -1)):
        with pytest.raises(FrozenInstanceError):
            setattr(mc, field, value)
    assert (mc.trials, mc.seed) == (1000, 1)


@pytest.mark.parametrize("field, value", [
    ("trials", 2000.0), ("trials", math.nan), ("trials", True),
    ("seed", 1.5), ("seed", math.nan), ("seed", False)])
def test_mcconfig_names_a_non_integer_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
        McConfig(**{"trials": 2000, "seed": 0, field: value})


def test_mcconfig_takes_numpy_integers():
    # held as Python ints, so the estimate is the same, floats included
    mc = McConfig(np.int64(2000), np.uint64(3))
    assert (type(mc.trials), type(mc.seed)) == (int, int)
    hop = _rf(0.3, n=4, c=2, r=1.5)
    est = simulate_rf_hop(hop, mc)
    assert est == simulate_rf_hop(hop, McConfig(2000, 3))
    assert type(est.value) is float


def test_determinism_same_seed_bit_identical():
    hop = _rf(0.3, n=4, c=2, r=1.5)
    a = simulate_rf_hop(hop, McConfig(trials=200_000, seed=3))
    b = simulate_rf_hop(hop, McConfig(trials=200_000, seed=3))
    assert a.value == b.value
    assert a.ci_halfwidth == b.ci_halfwidth


def test_stream_layout_seed_block_hop(monkeypatch):
    # block b of the j-th hop (counted across routes) draws from
    # SeedSequence(entropy=seed, spawn_key=(b, j)); 3500 trials in blocks of
    # 1000 end on a partial block
    import linkplan.simulate as sim
    monkeypatch.setattr(sim, "BLOCK_TRIALS", 1000)
    rf = _rf(0.4, n=3, m=2, c=2, r=1.0, k=1.5)
    fso = _fso(0.9, c=3, r=0.6)
    gg = _fso(1.2, m=2, c=2, r=0.8, model=GG)
    mesh = MeshNetwork(routes=(Route(hops=(rf, fso)), Route(hops=(gg,))))
    seed, trials = 41, 3500

    def hop_fail(hop, gen, n):
        acc = np.zeros(n)
        if isinstance(hop, RfHopParams):
            f, rounds = hop.fading, hop.M * hop.C
            for _ in range(rounds):
                x = gen.noncentral_chisquare(2.0 * f.N, 2.0 * f.K * f.N, size=n)
                acc += np.log1p(hop.drive_power * (f.Omega / (2.0 * (f.K + 1.0))) * x)
        else:
            rounds = hop.M * hop.C_tilde
            for _ in range(rounds):
                if isinstance(hop.model, FsoExponential):
                    g = gen.exponential(1.0 / hop.model.lam, size=n)
                else:
                    a, b = hop.model.a, hop.model.b
                    g = gen.gamma(a, 1.0 / a, size=n) * gen.gamma(b, 1.0 / b, size=n)
                acc += np.log1p(hop.p_tx * g)
        return acc / rounds <= hop.R / hop.M

    failures = 0
    for block, start in enumerate(range(0, trials, 1000)):
        n = min(1000, trials - start)
        mesh_fail = np.ones(n, dtype=bool)
        flat = 0
        for route in mesh.routes:
            route_fail = np.zeros(n, dtype=bool)
            for hop in route.hops:
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(block, flat))
                route_fail |= hop_fail(hop, np.random.Generator(np.random.PCG64(ss)), n)
                flat += 1
            mesh_fail &= route_fail
        failures += int(np.count_nonzero(mesh_fail))
    est = simulate_mesh(mesh, McConfig(trials=trials, seed=seed))
    assert 0 < failures < trials
    assert est.value == failures / trials
    assert est.ci_halfwidth == wilson_halfwidth(failures, trials)


def test_different_seed_gives_different_counts():
    hop = _rf(0.3, n=4, c=2, r=1.5)
    a = simulate_rf_hop(hop, McConfig(trials=200_000, seed=3))
    b = simulate_rf_hop(hop, McConfig(trials=200_000, seed=4))
    assert a.value != b.value


# ----------------------------------------------------------------------------
# closed-form anchors
# ----------------------------------------------------------------------------

def test_rf_rayleigh_single_draw():
    # M=C=N=1, K=0: outage = 1 - exp(-(e^R - 1)/P')
    hop = _rf(1.0, n=1, k=0.0)
    est = simulate_rf_hop(hop, McConfig(trials=1_000_000, seed=21))
    assert abs(est.value - RAYLEIGH_SINGLE_DRAW) < 3.0 * _sigma(est)


def test_fso_exponential_single_draw():
    hop = _fso(1.0)
    est = simulate_fso_hop(hop, McConfig(trials=1_000_000, seed=22))
    assert abs(est.value - RAYLEIGH_SINGLE_DRAW) < 3.0 * _sigma(est)


def test_fso_gg_single_draw_matches_product_cdf():
    # M = C~ = 1: the product bound is the exact single-draw CDF, so MC
    # must agree within its own interval
    from linkplan.analysis import fso_outage_product_bound
    hop = _fso(5.0, model=GG)
    exact = fso_outage_product_bound(hop).value
    est = simulate_fso_hop(hop, McConfig(trials=1_000_000, seed=23))
    assert abs(est.value - exact) < 3.0 * _sigma(est)


def test_zero_rate_never_fails():
    rf = _rf(1.0, n=2, r=1e-12)
    assert simulate_rf_hop(rf, McConfig(trials=100_000, seed=24)).value == 0.0
    fso = _fso(1.0, r=1e-12)
    assert simulate_fso_hop(fso, McConfig(trials=100_000, seed=24)).value == 0.0


# ----------------------------------------------------------------------------
# Wilson interval
# ----------------------------------------------------------------------------

def test_wilson_halfwidth_hand_value():
    z = 1.959963984540054
    k, n = 50, 1000
    p = k / n
    denom = 1.0 + z * z / n
    expect = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    assert wilson_halfwidth(k, n) == pytest.approx(expect, rel=1e-15)
    # zero successes still produce a positive width
    assert wilson_halfwidth(0, 1000) > 0.0
    assert wilson_halfwidth(0, 0) == 1.0


def test_wilson_coverage_sanity():
    # 20 independent seeds at 20k trials: >= 18 of the intervals must cover
    # the exact Rayleigh single-draw outage
    hop = _rf(1.0, n=1, k=0.0)
    covered = 0
    for seed in range(100, 120):
        est = simulate_rf_hop(hop, McConfig(trials=20_000, seed=seed))
        if abs(est.value - RAYLEIGH_SINGLE_DRAW) <= est.ci_halfwidth:
            covered += 1
    assert covered >= 18, covered


# ----------------------------------------------------------------------------
# joint route / mesh simulation
# ----------------------------------------------------------------------------

def test_route_joint_vs_product_of_marginals():
    rf = _rf(0.2, n=4, c=10, r=0.5)
    fso = _fso(0.8, c=2, r=0.5)
    joint = simulate_route(Route(hops=(rf, fso)), McConfig(trials=400_000, seed=26))
    m_rf = simulate_rf_hop(rf, McConfig(trials=400_000, seed=27))
    m_fso = simulate_fso_hop(fso, McConfig(trials=400_000, seed=28))
    product = 1.0 - (1.0 - m_rf.value) * (1.0 - m_fso.value)
    sig = math.sqrt(_sigma(joint) ** 2 + _sigma(m_rf) ** 2 + _sigma(m_fso) ** 2)
    assert abs(joint.value - product) < 3.0 * sig


def test_mesh_joint_vs_product_of_route_marginals():
    r1 = Route(hops=(_rf(0.2, n=4, c=10, r=0.5),))
    r2 = Route(hops=(_fso(0.6, c=2, r=0.5),))
    mesh = MeshNetwork(routes=(r1, r2))
    joint = simulate_mesh(mesh, McConfig(trials=400_000, seed=29))
    m1 = simulate_route(r1, McConfig(trials=400_000, seed=30))
    m2 = simulate_route(r2, McConfig(trials=400_000, seed=31))
    product = m1.value * m2.value
    sig = math.sqrt(_sigma(joint) ** 2 + _sigma(m1) ** 2 + _sigma(m2) ** 2)
    assert abs(joint.value - product) < 3.0 * sig


def test_mesh_outage_below_best_route():
    r1 = Route(hops=(_rf(0.2, n=4, c=10, r=0.5),))
    r2 = Route(hops=(_fso(0.6, c=2, r=0.5),))
    mesh_est = simulate_mesh(MeshNetwork(routes=(r1, r2)),
                             McConfig(trials=200_000, seed=32))
    route_est = simulate_route(r1, McConfig(trials=200_000, seed=32))
    assert mesh_est.value <= route_est.value + 3.0 * (_sigma(mesh_est) +
                                                      _sigma(route_est))


def test_mc_monotone_in_drive_common_randomness():
    # identical seed and hop layout reuse the same gain draws, so the outage
    # indicator is deterministic-monotone in the drive power
    vals = []
    for p in (0.12, 0.16, 0.21, 0.28, 0.37):
        hop = _rf(p, n=20, c=10, r=2.0)
        vals.append(simulate_rf_hop(hop, McConfig(trials=100_000, seed=33)).value)
    assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:])), vals


def test_mc_within_factor_15_of_piecewise_in_window():
    # accumulation-heavy hops (C=10): tangent-anchored piecewise evaluator vs
    # MC within factor 1.5 wherever MC outage is in [1e-3, 0.5]
    for n_ant, targets in ((40, (0.3, 0.03)), (80, (0.2, 0.01))):
        def outage(p):
            return rf_outage_piecewise(_rf(p, n=n_ant, c=10, r=2.0), theta=2.0).value

        for target in targets:
            lo, hi = 1e-4, 10.0
            for _ in range(60):
                mid = math.sqrt(lo * hi)
                if outage(mid) > target:
                    lo = mid
                else:
                    hi = mid
            p0 = math.sqrt(lo * hi)
            est = simulate_rf_hop(_rf(p0, n=n_ant, c=10, r=2.0),
                                  McConfig(trials=200_000, seed=34))
            if 1e-3 <= est.value <= 0.5:
                a = outage(p0)
                factor = max(a / est.value, est.value / a)
                assert factor <= 1.5, (n_ant, target, factor)


# ----------------------------------------------------------------------------
# drive sweeps: one set of draws for every drive
# ----------------------------------------------------------------------------

# route A: K>0 RF + exponential FSO; route B: K=0 RF + Gamma-Gamma FSO
SWEEP_MESH = MeshNetwork(routes=(
    Route(hops=(_rf(0.4, n=3, m=2, c=2, r=1.0, k=1.5), _fso(0.9, c=3, r=0.6))),
    Route(hops=(_rf(0.5, n=2, c=2, r=1.0, k=0.0), _fso(1.2, m=2, c=2, r=0.8, model=GG))),
))
# MC outage at 3000 trials falls from 0.91 to below 0.05 across these offsets
SWEEP_OFFSETS_DB = (-2.0, 0.0, 2.0, 4.0, 6.0)


def _drive_grid(mesh=SWEEP_MESH, offsets=SWEEP_OFFSETS_DB):
    return [shift_scenario(mesh, d) for d in offsets]


def _assert_matches_loop(meshes, mc):
    swept = simulate_sweep(meshes, mc)
    alone = [simulate_mesh(m, mc) for m in meshes]
    assert [(e.value, e.ci_halfwidth) for e in swept] == \
        [(e.value, e.ci_halfwidth) for e in alone]
    return alone


def _count_generators(monkeypatch):
    import linkplan.simulate as sim
    calls = []
    real = sim._block_generator

    def counting(seed, block, hop_index):
        calls.append((block, hop_index))
        return real(seed, block, hop_index)

    monkeypatch.setattr(sim, "_block_generator", counting)
    return calls


def _count_passes(monkeypatch):
    """Points per kernel pass, one entry per pass."""
    import linkplan.simulate as sim
    passes = []
    real = sim._simulate
    monkeypatch.setattr(sim, "_simulate",
                        lambda points, mc: passes.append(len(points)) or real(points, mc))
    return passes


def test_sweep_matches_per_point_simulation():
    alone = _assert_matches_loop(_drive_grid(), McConfig(trials=3000, seed=7))
    assert len({e.value for e in alone}) == len(SWEEP_OFFSETS_DB)
    assert 0.0 < min(e.value for e in alone) < max(e.value for e in alone) < 1.0


@pytest.mark.parametrize("hop", [SWEEP_MESH.routes[0].hops[0], SWEEP_MESH.routes[1].hops[0],
                                 SWEEP_MESH.routes[0].hops[1], SWEEP_MESH.routes[1].hops[1]],
                         ids=["rf_k1.5", "rf_k0", "fso_exp", "fso_gg"])
def test_hop_accumulator_is_per_drive_arithmetic(hop):
    # each drive's log-rate sum equals the one-drive sum over the law's
    # draws scaled to that drive, bit for bit, on the same substream
    import linkplan.simulate as sim
    n, drives = 2000, [0.3, 1.7, 4.1]
    model, rounds = hop.law, hop.rounds
    acc = np.empty((len(drives), n))
    fail = np.zeros((len(drives), -(-n // 8)), dtype=np.uint8)
    sim._hop_failures(hop, np.array(drives), sim._block_generator(5, 0, 1), acc, fail)
    # some trial fails at some drive, so the hop never stopped drawing and
    # acc holds every round's sum, not a partial one
    assert fail.any()
    for row, p in zip(acc, drives):
        gen = sim._block_generator(5, 0, 1)
        expect = np.zeros(n)
        for _ in range(rounds):
            expect += np.log1p((p * model.scale) * law_draws(model, gen, n))
        assert np.array_equal(row, expect)


# the README mesh: K=2, N=40 RF hop and Gamma-Gamma FSO hop, M=2, C=C~=5
README_PA = PaConfig(epsilon=0.75, theta_pa=0.5, p_max=316.2278, p_cons=1.0)
README_RF = RfHopParams(fading=RicianFading(2.0, 1.0, 40), pa=README_PA, M=2, C=5, R=2.0)
README_GG = FsoHopParams(model=GG, p_tx=40.0, M=2, C_tilde=5, R=2.0)
README_MESH = MeshNetwork(routes=(Route(hops=(README_RF, README_GG)),))
# README_MESH plus a K=0 RF hop and an exponential FSO hop on a second route
TWO_ROUTE_MESH = MeshNetwork(routes=README_MESH.routes + (Route(hops=(
    replace(README_RF, fading=RicianFading(0.0, 1.0, 40)),
    FsoHopParams(model=FsoExponential(1.0), p_tx=40.0, M=2, C_tilde=5, R=2.0))),))
# MC outage of README_MESH falls from 0.98 to 4e-5 across these offsets
WATERFALL_DB = (6.76, 6.86, 6.96, 7.06, 7.16, 7.26)


def _wrap_tiles(monkeypatch, wrap):
    """Patch every gain law's `tiles` to wrap(its real `tiles`)."""
    for cls in (RicianFading, _GammaProduct):
        monkeypatch.setattr(cls, "tiles", wrap(cls.tiles))


def _count_draws(monkeypatch):
    """Rounds drawn per gain law (one law per hop in the meshes used)."""
    from collections import Counter
    draws = Counter()

    def counting(real):
        def tiles(law, gen, n, out=None):
            draws[law] += 1
            return real(law, gen, n, out)
        return tiles

    _wrap_tiles(monkeypatch, counting)
    return draws


def _all_rounds_failures(meshes, mc):
    """Failures of each mesh (one block of trials) with every hop drawing
    all its rounds, in the kernel's arithmetic."""
    import linkplan.simulate as sim
    _, n, routes = next(sim._substreams(meshes[0].routes, mc))
    assert n == mc.trials
    mesh_fail = np.ones((len(meshes), n), dtype=bool)
    for r, hops in enumerate(routes):
        route_fail = np.zeros_like(mesh_fail)
        for i, (_, hop, gen) in enumerate(hops):
            rounds = [law_draws(hop.law, gen, n) for _ in range(hop.rounds)]
            for fail, mesh in zip(route_fail, meshes):
                p, acc = mesh.routes[r].hops[i].drive_power, np.zeros(n)
                for x in rounds:
                    acc += np.log1p(x * (p * hop.law.scale))
                fail |= acc / hop.rounds <= hop.R / hop.M
        mesh_fail &= route_fail
    return np.count_nonzero(mesh_fail, axis=1).tolist()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_hop_stops_drawing_once_decided(monkeypatch, seed):
    # across the waterfall every trial decodes the Gamma-Gamma hop at every
    # drive by its 4th round of 10, and the failures equal a run that draws
    # every round
    mc = McConfig(trials=100_000, seed=seed)
    meshes = [shift_scenario(README_MESH, d) for d in WATERFALL_DB]
    draws = _count_draws(monkeypatch)
    ests = simulate_sweep(meshes, mc)
    assert draws == {README_RF.law: 10, GG: 4}
    monkeypatch.undo()
    assert [e.value for e in ests] == [f / mc.trials for f in _all_rounds_failures(meshes, mc)]


class _Crafted:
    """A gain law (scale 1) whose rounds draw fixed gains, one list per
    round, one tile each, and a hop that draws from it."""

    scale = 1.0

    def __init__(self, gains, R, **fields):
        self.gains, self.drawn = gains, 0
        self.hop = SimpleNamespace(law=self, rounds=len(gains), R=R, M=1, **fields)

    def tiles(self, gen, n, out=None):
        self.drawn += 1
        return [(0, np.array(self.gains[self.drawn - 1], dtype=float))]


def _crafted_failures(gains, R, drives=(1.0,)):
    """(rounds drawn, failure rows) of `_hop_failures` on crafted gains."""
    import linkplan.simulate as sim
    crafted = _Crafted(gains, R)
    n = len(gains[0])
    fail = np.zeros((len(drives), -(-n // 8)), dtype=np.uint8)
    sim._hop_failures(crafted.hop, np.array(drives), None, np.empty((len(drives), n)), fail)
    return crafted.drawn, np.unpackbits(fail, axis=1, count=n).astype(bool).tolist()


def test_sweep_stop_on_crafted_gains():
    e = math.e
    # R = 1 over 4 rounds: a trial decodes once its log-rate sum exceeds 4.
    # The last trial adds 1.1 a round: 3.3 after round 3, decoded only by
    # round 4, so every round is drawn
    late = [[e ** 5, e ** 1.1 - 1.0]] * 4
    assert _crafted_failures(late, 1.0) == (4, [[False, False]])
    # every trial past 4 after round 2: rounds 3 and 4 are never drawn
    early = [[e ** 2.5 - 1.0, e ** 5]] * 2 + [[0.0, 0.0]] * 2
    assert _crafted_failures(early, 1.0) == (2, [[False, False]])
    # a sum exactly on the threshold after round 2 has not decoded: rounds
    # 3 and 4 add 0, and the trial fails
    on = [[0.7, e ** 5], [2.9, e ** 5], [0.0, 0.0], [0.0, 0.0]]
    R = float((np.float64(0.0) + np.log1p(0.7) + np.log1p(2.9)) / 4)
    assert _crafted_failures(on, R) == (4, [[True, False]])
    # at drive 2 every trial decodes by round 2, at drive 1 the first never
    # does: the hop draws on and fails it at drive 1
    mixed = [[4.0, e ** 5]] * 2 + [[0.0, 0.0]] * 2
    assert _crafted_failures(mixed, 1.0, drives=(2.0, 1.0)) == \
        (4, [[False, False], [True, False]])


def test_sweep_matches_per_point_simulation_multiple_blocks(monkeypatch):
    import linkplan.simulate as sim
    monkeypatch.setattr(sim, "BLOCK_TRIALS", 1000)
    _assert_matches_loop(_drive_grid(), McConfig(trials=3500, seed=8))


def test_sweep_splits_mixed_layouts_into_groups(monkeypatch):
    wide = MeshNetwork(routes=(Route(hops=(_rf(0.4, n=5, m=2, c=2, r=1.0, k=1.5),
                                           _fso(0.9, c=3, r=0.6))),))
    narrow = MeshNetwork(routes=(Route(hops=(_rf(0.4, n=2, m=2, c=2, r=1.0, k=1.5),
                                             _fso(0.9, c=3, r=0.6))),))
    slower = MeshNetwork(routes=(Route(hops=(_rf(0.4, n=5, m=2, c=2, r=1.2, k=1.5),
                                            _fso(0.9, c=3, r=0.6))),))
    meshes = [shift_scenario(m, d) for d in (0.0, 3.0) for m in (wide, narrow, slower)]
    alone = [simulate_mesh(m, McConfig(trials=3000, seed=10)) for m in meshes]
    passes = _count_passes(monkeypatch)
    assert simulate_sweep(meshes, McConfig(trials=3000, seed=10)) == alone
    assert passes == [2, 2, 2]


def test_sweep_beyond_memory_bound_takes_more_passes(monkeypatch):
    import linkplan.simulate as sim
    mc = McConfig(trials=3000, seed=11)
    monkeypatch.setattr(sim, "PASS_FLOATS", 2 * mc.trials)
    calls = _count_generators(monkeypatch)
    alone = [simulate_mesh(m, mc) for m in _drive_grid()]
    calls.clear()
    assert simulate_sweep(_drive_grid(), mc) == alone
    # 5 points, 2 per pass: 3 passes of 1 block x 4 hops
    assert len(calls) == 3 * 4


def test_sweep_draws_once_per_block_and_hop(monkeypatch):
    import linkplan.simulate as sim
    monkeypatch.setattr(sim, "BLOCK_TRIALS", 1000)
    calls = _count_generators(monkeypatch)
    simulate_sweep(_drive_grid(), McConfig(trials=3500, seed=12))
    # 4 blocks x 4 hops, not 5 points x 4 blocks x 4 hops
    assert sorted(calls) == [(b, h) for b in range(4) for h in range(4)]


# what a pass may hold beyond its documented budget: Python objects and
# small arrays (about 8 KB measured), not another array of the trials
PASS_SLACK_BYTES = 64 * 1024


def _peak_bytes(run):
    """tracemalloc's peak over run(), numpy's buffers included, after one
    untraced call has done the set-up that later calls reuse."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mesh", [README_MESH, TWO_ROUTE_MESH], ids=["one_route", "two_routes"])
def test_sweep_pass_holds_its_documented_budget(mesh):
    # per trial: the K-drive accumulator, a Gamma product's first factor and
    # K bits of the mesh's mask, plus a route's mask once the mesh has two
    # routes; beside them two tiles, a round's draw or a factor's scratch
    # and the scoring scratch
    n, drives = 50_000, len(WATERFALL_DB)
    meshes = [shift_scenario(mesh, d) for d in WATERFALL_DB]
    masks = min(len(mesh.routes), 2)
    budget = n * (8 * drives + 8 + drives * masks / 8) + 2 * 8 * TILE_TRIALS
    peak = _peak_bytes(lambda: simulate_sweep(meshes, McConfig(trials=n, seed=11)))
    assert peak <= budget + PASS_SLACK_BYTES, (peak, budget)


@pytest.mark.parametrize("mesh, rank, n", [
    (README_MESH, None, 50_000), (TWO_ROUTE_MESH, 100, 50_000), (TWO_ROUTE_MESH, 100, 419_430)],
    ids=["readme", "two_routes_cut", "two_routes_cut_wide"])
def test_critical_pass_holds_its_documented_budget(monkeypatch, mesh, rank, n):
    # per trial: one hop's draws (rounds floats) and five more floats; beside
    # them, while drawing, a sixth float and two tiles, or while solving,
    # three (rounds x CRITICAL_CHUNK) Newton temporaries.  None of it sits in
    # a memory map, which tracemalloc would not see.  At 419,430 trials the
    # stop checks of a floored hop must take no bool array of the trials
    import mmap
    import linkplan.simulate as sim
    rounds = max(hop.rounds for route in mesh.routes for hop in route.hops)
    maps, real = [], mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda *args: maps.append(args[1]) or real(*args))
    budget = 8 * n * (rounds + 5) + max(8 * n + 2 * 8 * TILE_TRIALS,
                                        3 * 8 * rounds * sim.CRITICAL_CHUNK)
    peak = _peak_bytes(lambda: sim._critical_offsets(mesh, McConfig(trials=n, seed=1), rank))
    assert peak <= budget + PASS_SLACK_BYTES, (peak, budget)
    assert maps == []


def _tile_meshes():
    """One single-hop mesh per gain law, the README ncx2, a K = 0
    chi-square, the exponential and two Gamma-Gamma laws, and a two-route
    mesh over all five: each hop's outage falls across offsets -3 to 3 dB."""
    rf_k0 = replace(README_RF, fading=RicianFading(0.0, 1.0, 40))
    exp = FsoHopParams(model=FsoExponential(1.0), p_tx=2.5, M=2, C_tilde=5, R=2.0)
    gg = replace(README_GG, p_tx=2.5)
    gg_b06 = replace(gg, model=FsoGammaGamma(4.3939, 0.6))
    hops = {"readme_ncx2": README_RF, "chi2_k0": rf_k0, "exponential": exp, "gg": gg,
            "gg_b0.6": gg_b06}
    meshes = {name: MeshNetwork((Route((hop,)),)) for name, hop in hops.items()}
    meshes["two_routes"] = MeshNetwork((Route((README_RF, gg_b06)), Route((rf_k0, exp, gg))))
    # the RF hops' waterfall lies about 6.9 dB above their drive
    return {name: shift_scenario(mesh, 6.9) if "readme" in name or "chi2" in name
            or name == "two_routes" else mesh for name, mesh in meshes.items()}


TILE_SIZES = [1_000, TILE_TRIALS - 1, TILE_TRIALS, TILE_TRIALS + 1, 2 * TILE_TRIALS + 3]
TILE_MESHES = ["readme_ncx2", "chi2_k0", "exponential", "gg", "gg_b0.6", "two_routes"]


@pytest.mark.parametrize("trials", TILE_SIZES)
@pytest.mark.parametrize("name", TILE_MESHES)
def test_sweep_tiles_match_all_rounds_reference(name, trials):
    # rounds drawn and scored a tile at a time, up to and across tile
    # edges, fail the trials a whole draw of every round fails
    mesh = _tile_meshes()[name]
    mc = McConfig(trials=trials, seed=31)
    meshes = [shift_scenario(mesh, d) for d in (-3.0, -0.1, 0.0, 0.1, 3.0)]
    failures = _all_rounds_failures(meshes, mc)
    assert 0 < failures[2] < trials
    assert [e.value for e in simulate_sweep(meshes, mc)] == [f / trials for f in failures]


@pytest.mark.parametrize("trials", TILE_SIZES)
@pytest.mark.parametrize("name", TILE_MESHES)
def test_critical_offsets_tiles_count_per_point_failures(name, trials):
    # failures read off the critical offsets, #{c >= s}, equal the sweep
    # kernel's at offsets 1e-6 dB either side of trials' crossings, at every
    # size up to and across a tile edge
    import linkplan.simulate as sim
    mesh = _tile_meshes()[name]
    mc = McConfig(trials=trials, seed=31)
    c = sim._critical_offsets(mesh, mc)
    finite = np.sort(c[np.isfinite(c)])
    offsets = [s for q in (0.1, 0.5, 0.9) for crossing in [finite[int(q * (finite.size - 1))]]
               for s in (crossing - 1e-6, crossing + 1e-6)]
    ests = simulate_sweep([shift_scenario(mesh, s) for s in offsets], mc)
    assert [e.value for e in ests] == [np.count_nonzero(c >= s) / trials for s in offsets]


# ----------------------------------------------------------------------------
# one thread: the sweep and the critical pass run on the calling thread
# ----------------------------------------------------------------------------

def _waterfall_estimates(mesh, trials, seed=11):
    meshes = [shift_scenario(mesh, d) for d in WATERFALL_DB]
    return [(e.value, e.ci_halfwidth)
            for e in simulate_sweep(meshes, McConfig(trials=trials, seed=seed))]


def test_mc_passes_start_no_thread(monkeypatch):
    # a sweep over three tiles and an MC required_snr start no thread and
    # map no memory of their own
    import mmap
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self.name) or start(self))
    maps, real = [], mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda *args: maps.append(args) or real(*args))
    _waterfall_estimates(TWO_ROUTE_MESH, 2 * TILE_TRIALS + 3)
    required_snr(0.1, TWO_ROUTE_MESH, evaluator="mc", bounds_db=(5.0, 9.0),
                 mc=McConfig(trials=20_000, seed=1))
    assert started == []
    assert maps == []


def _failing_draws(tiles_first):
    """Wraps a law's `tiles` to yield its first `tiles_first` tiles, then raise."""
    def wrap(real):
        def tiles(law, gen, n, out=None):
            for _, tile in zip(range(tiles_first), real(law, gen, n, out)):
                yield tile
            raise MemoryError(f"draw failed after {tiles_first} tiles")
        return tiles
    return wrap


def test_sweep_draw_error_reaches_the_caller(monkeypatch):
    # a draw fails after a sweep's first tile, five sweeps in a row: each
    # raises the draw's own error, and the next sweep keeps its bits
    trials = 2 * TILE_TRIALS + 3
    reference = _waterfall_estimates(README_MESH, trials)
    with monkeypatch.context() as m:
        _wrap_tiles(m, _failing_draws(1))
        for _ in range(5):
            with pytest.raises(MemoryError) as err:
                _waterfall_estimates(README_MESH, trials)
            assert (type(err.value), str(err.value)) == (MemoryError, "draw failed after 1 tiles")
    assert _waterfall_estimates(README_MESH, trials) == reference


def test_concurrent_sweeps_keep_their_bits():
    # more calling threads than cores, switching every microsecond: each
    # sweep keeps the bits it has alone
    reference = _waterfall_estimates(TWO_ROUTE_MESH, TILE_TRIALS + 1)
    results = []

    def sweeps():
        results.extend(_waterfall_estimates(TWO_ROUTE_MESH, TILE_TRIALS + 1) for _ in range(3))

    callers = [threading.Thread(target=sweeps, daemon=True) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        deadline = time.monotonic() + 120
        for caller in callers:
            caller.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [reference] * 12


def _failing_laws(errors):
    """Wraps a law's `tiles` to raise kind(text), for errors[law] = (kind,
    text), after the law's first tile."""
    def wrap(real):
        def tiles(law, gen, n, out=None):
            draws = real(law, gen, n, out)
            if law not in errors:
                yield from draws
                return
            yield next(draws)
            kind, text = errors[law]
            raise kind(text)
        return tiles
    return wrap


def test_critical_pass_underflowing_draws_keep_their_errstate():
    # route 1 starts with the b = 0.01 Gamma-Gamma hop, some of whose gains
    # underflow to 0: their ln 0 stays silent (a RuntimeWarning is an error
    # in this suite), under a caller's divide="raise" too, and the offsets
    # keep their bits
    import linkplan.simulate as sim
    mesh = MeshNetwork(README_MESH.routes + _critical_meshes()["gg_b001"].routes)
    mc = McConfig(trials=3500, seed=43)
    gen = sim._block_generator(mc.seed, 0, len(README_MESH.routes[0].hops))
    zeros = law_draws(GG_TINY_B, gen, mc.trials) == 0.0
    assert zeros.any()
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        np.log(zeros.astype(float))
    offsets = sim._critical_offsets(mesh, mc)
    with np.errstate(divide="raise", invalid="raise"):
        assert np.array_equal(sim._critical_offsets(mesh, mc), offsets)


@pytest.mark.parametrize("rank", [None, 60])
def test_later_route_draw_error_reaches_the_caller(monkeypatch, rank):
    # route 1's first hop fails after its first tile: its error reaches the
    # caller with its own type and text
    import linkplan.simulate as sim
    later = TWO_ROUTE_MESH.routes[1].hops[0].law
    _wrap_tiles(monkeypatch, _failing_laws({later: (MemoryError, "route 1 draw failed")}))
    with pytest.raises(MemoryError) as err:
        sim._critical_offsets(TWO_ROUTE_MESH, McConfig(trials=2 * TILE_TRIALS + 3, seed=5), rank)
    assert (type(err.value), str(err.value)) == (MemoryError, "route 1 draw failed")


@pytest.mark.parametrize("failure", ["draw", "newton"])
def test_first_route_error_wins(monkeypatch, failure):
    # route 0 fails, in its first hop's draws or its Newton solve, and route
    # 1's first hop would fail in its draws: route 0's error is raised
    import linkplan.simulate as sim
    from linkplan.specfun import ConvergenceError
    route0, route1 = (route.hops for route in TWO_ROUTE_MESH.routes)
    errors = {route1[0].law: (MemoryError, "route 1 draw failed")}
    if failure == "draw":
        errors[route0[0].law] = (ValueError, "route 0 draw failed")
    else:
        monkeypatch.setattr(sim, "_NEWTON_MAX_ITER", 1)
    _wrap_tiles(monkeypatch, _failing_laws(errors))
    with pytest.raises((ValueError, ConvergenceError), match="^route 0"):
        sim._critical_offsets(TWO_ROUTE_MESH, McConfig(trials=3500, seed=5))


# ----------------------------------------------------------------------------
# scenario shifting / power search
# ----------------------------------------------------------------------------

def test_shift_scenario_moves_all_drives():
    route = Route(hops=(_rf(0.5, n=4), _fso(2.0)))
    shifted = shift_scenario(route, 10.0)
    assert shifted.hops[0].pa.p_cons == pytest.approx(5.0, rel=1e-12)
    assert shifted.hops[1].p_tx == pytest.approx(20.0, rel=1e-12)
    mesh = MeshNetwork(routes=(route,))
    shifted_mesh = shift_scenario(mesh, -10.0)
    assert shifted_mesh.routes[0].hops[0].pa.p_cons == pytest.approx(0.05, rel=1e-12)
    with pytest.raises(TypeError):
        shift_scenario("route", 1.0)


def test_shift_scenario_past_float_range_names_the_hop():
    # 10^(delta/10) overflowed into a bare OverflowError, a drive that
    # underflowed to 0 was reported by the PA without its hop, and a NaN
    # shift was reported as overflowing a float
    from linkplan.hardware import SaturationError
    cases = [
        (Route(hops=(_rf(1.0),)), math.nan, ValueError,
         "hop 0: p_cons 1 shifted by nan dB is not a number"),
        (MeshNetwork(routes=(Route(hops=(_fso(2.0), _rf(1.0))),)), math.nan, ValueError,
         "route 0: hop 0: p_tx 2 shifted by nan dB is not a number"),
        (Route(hops=(_fso(2.0), _rf(0.5))), 4000.0, ValueError,
         "hop 0: p_tx 2 shifted by 4000 dB overflows a float"),
        (Route(hops=(_rf(0.5), _fso(2.0))), -4000.0, ValueError,
         "hop 0: p_cons 0.5 shifted by -4000 dB underflows to 0"),
        (MeshNetwork(routes=(Route(hops=(_fso(2.0),)), Route(hops=(_fso(1.0), _rf(1e10))))),
         3000.0, ValueError, "route 1: hop 1: p_cons 1e+10 shifted by 3000 dB overflows a float"),
        (README_MESH, 60.0, SaturationError, "route 0: hop 0: drive p_cons=1000000.0 would "
         "require output 1.77878e+09 beyond p_max=316.228"),
    ]
    for scenario, delta_db, kind, message in cases:
        with pytest.raises(kind) as err:
            shift_scenario(scenario, delta_db)
        assert (type(err.value), str(err.value)) == (kind, message)


@pytest.mark.parametrize("evaluator", ["analytical", "mc"])
@pytest.mark.parametrize("bounds_db, message", [
    ((-5.0, 4000.0), "p_cons 1 shifted by 4000 dB overflows a float"),
    ((-4000.0, 5.0), "p_cons 1 shifted by -4000 dB underflows to 0"),
], ids=["overflow", "underflow"])
def test_required_snr_bracket_past_float_range_names_the_hop(evaluator, bounds_db, message):
    with pytest.raises(ValueError) as err:
        required_snr(0.1, README_MESH, evaluator=evaluator, bounds_db=bounds_db,
                     mc=McConfig(trials=1000, seed=3))
    assert (type(err.value), str(err.value)) == (ValueError, f"route 0: hop 0: {message}")


def test_required_snr_median_crossing():
    # target 0.5 lands where the surrogate mean equals the decode threshold
    from linkplan.channel import clt_sum_gain_params
    from linkplan.analysis import log_moments_linearized
    route = Route(hops=(_rf(0.1, n=20, c=10, r=2.0),))
    s = required_snr(0.5, route, evaluator="analytical")
    p_star = 0.1 * 10.0 ** (s / 10.0)
    lm = log_moments_linearized(p_star, clt_sum_gain_params(RicianFading(0.01, 1.0, 20)))
    assert abs(lm.mean - 2.0) < 5e-3


def test_required_snr_analytic_vs_mc_close():
    route = Route(hops=(_rf(0.1, n=20, c=10, r=2.0),))
    s_an = required_snr(0.1, route, evaluator="analytical")
    s_mc = required_snr(0.1, route, evaluator="mc",
                        mc=McConfig(trials=400_000, seed=35))
    assert abs(s_an - s_mc) < 0.3


def test_required_snr_mc_bisection_on_per_point_simulation(monkeypatch):
    # the MC solve is the exact crossing of per-point simulation, inside the
    # interval a bisection on per-point simulation narrows down to, from one
    # draw of each (block, hop) substream and no kernel pass
    import linkplan.simulate as sim
    monkeypatch.setattr(sim, "BLOCK_TRIALS", 4096)
    route = Route(hops=(_rf(0.1, n=20, c=10, r=2.0),))
    mesh = MeshNetwork(routes=(route,))
    mc = McConfig(trials=20_000, seed=37)
    target, lo, hi, tol = 0.1, 4.5, 7.5, 0.05
    expect_lo, expect_hi = lo, hi
    while expect_hi - expect_lo > tol:
        mid = 0.5 * (expect_lo + expect_hi)
        if simulate_mesh(shift_scenario(mesh, mid), mc).value >= target:
            expect_lo = mid
        else:
            expect_hi = mid
    passes = _count_passes(monkeypatch)
    calls = _count_generators(monkeypatch)
    s = required_snr(target, route, evaluator="mc", bounds_db=(lo, hi), mc=mc,
                     tol_db=tol)
    assert sorted(calls) == [(b, 0) for b in range(5)]
    assert passes == []
    assert simulate_mesh(shift_scenario(mesh, s), mc).value >= target
    assert simulate_mesh(shift_scenario(mesh, s + 1e-6), mc).value < target
    assert abs(s - 0.5 * (expect_lo + expect_hi)) <= tol / 2
    # the k-th largest critical offset sits exactly on its trial's decode
    # boundary: at each target the simulator must still count it as failed
    for target in (0.03, 0.05, 0.2, 0.3, 0.5, 0.7):
        s = required_snr(target, route, evaluator="mc", bounds_db=(lo, hi), mc=mc)
        assert simulate_mesh(shift_scenario(mesh, s), mc).value >= target
        assert simulate_mesh(shift_scenario(mesh, s + 1e-6), mc).value < target


def _critical_meshes():
    """Meshes whose critical offsets are checked against simulate_mesh."""
    pa = PaConfig(epsilon=0.75, theta_pa=0.5, p_max=1e6, p_cons=1.0)
    rf_k = RfHopParams(fading=RicianFading(1.5, 1.0, 8), pa=pa, M=2, C=3, R=1.5)
    rf_0 = _rf(0.3, n=6, m=2, c=2, r=1.2, k=0.0)
    exp = _fso(2.0, m=2, c=2, r=1.0)
    gg = _fso(3.0, m=2, c=3, r=1.0, model=GG)
    # b = 0.01: some unit-mean Gamma(0.01) factors underflow to exactly 0; a
    # one-round hop then never decodes (c = +inf), a longer one has fewer
    # live rounds
    return {
        "rf_k_theta_exp": MeshNetwork(routes=(Route(hops=(rf_k, exp)),)),
        "rf_k0_gg": MeshNetwork(routes=(Route(hops=(rf_0, gg)),)),
        "two_routes": MeshNetwork(routes=(Route(hops=(rf_k, gg)),
                                          Route(hops=(rf_0, exp)))),
        "gg_b001": MeshNetwork(routes=(Route(hops=(
            _fso(1e4, model=GG_TINY_B),
            _fso(1e4, m=2, c=3, r=1.0, model=GG_TINY_B))),)),
    }


# every mesh once, and one across blocks of 1000 trials
CRITICAL_CASES = [("rf_k_theta_exp", None), ("rf_k0_gg", None), ("two_routes", None),
                  ("two_routes", 1000), ("gg_b001", None)]


@pytest.mark.parametrize("name, block_trials", CRITICAL_CASES)
def test_critical_offsets_count_per_point_failures(monkeypatch, name, block_trials):
    # failures read off the critical offsets, #{c >= s}, equal simulate_mesh
    # at offsets 1e-6 dB either side of trials' crossings across the waterfall
    import linkplan.simulate as sim
    if block_trials:
        monkeypatch.setattr(sim, "BLOCK_TRIALS", block_trials)
    mesh = _critical_meshes()[name]
    mc = McConfig(trials=3500, seed=43)
    c = sim._critical_offsets(mesh, mc)
    finite = np.sort(c[np.isfinite(c)])
    assert finite.size > 100
    for q in (0.1, 0.5, 0.9):
        crossing = finite[int(q * (finite.size - 1))]
        for s in (crossing - 1e-6, crossing + 1e-6):
            est = simulate_mesh(shift_scenario(mesh, s), mc)
            assert est.value == np.count_nonzero(c >= s) / mc.trials, (q, s)
    if name == "gg_b001":
        # the draws underflow, and the all-zero trials fail at every drive
        gen = sim._block_generator(mc.seed, 0, 0)
        assert np.count_nonzero(law_draws(GG_TINY_B, gen, mc.trials) == 0.0) > 0
        dead = np.isinf(c)
        assert dead.any()
        beyond = shift_scenario(mesh, finite[-1] + 1.0)
        assert simulate_mesh(beyond, mc).value == np.count_nonzero(dead) / mc.trials


def _critical_offsets_all_solved(sim, mesh, mc):
    """`_critical_offsets` composed with Newton run on every hop and trial."""
    out = np.empty(mc.trials)
    for start, n, routes in sim._substreams(mesh.routes, mc):
        no_floor = np.full(n, -math.inf)
        route_cs = [np.max([sim._hop_critical_offsets(hop, gen, n, "all solved", no_floor)
                            for _, hop, gen in hops], axis=0)
                    for hops in routes]
        out[start:start + n] = np.min(route_cs, axis=0)
    return out


def _count_newton_columns(monkeypatch):
    """(route/hop label, trials Newton solves) per `_critical_log_drive` call."""
    import linkplan.simulate as sim
    calls = []
    real = sim._critical_log_drive

    def counting(lnx, total, u, todo, where, *first):
        calls.append((where, todo.size))
        return real(lnx, total, u, todo, where, *first)

    monkeypatch.setattr(sim, "_critical_log_drive", counting)
    return calls


@pytest.mark.parametrize("name, block_trials", CRITICAL_CASES)
def test_critical_offsets_skipping_is_exact(monkeypatch, name, block_trials):
    # a later hop solves only the trials whose start could raise its route's
    # max; the composed offsets equal, bit for bit, those with every hop solved
    import linkplan.simulate as sim
    if block_trials:
        monkeypatch.setattr(sim, "BLOCK_TRIALS", block_trials)
    mesh = _critical_meshes()[name]
    mc = McConfig(trials=3500, seed=43)
    expect = _critical_offsets_all_solved(sim, mesh, mc)
    calls = _count_newton_columns(monkeypatch)
    c = sim._critical_offsets(mesh, mc)
    assert np.array_equal(c, expect)
    later = [size for where, size in calls if not where.endswith("hop 0")]
    assert sum(later) < mc.trials * len(mesh.routes)


def test_critical_offsets_readme_mesh_solves_no_fso_trial(monkeypatch):
    # the README route lists its RF hop first, and at seed 1 no FSO trial's
    # start rises above the RF hop's offset: Newton runs on the RF hop alone
    import linkplan.simulate as sim
    pa = PaConfig(epsilon=0.75, theta_pa=0.5, p_max=316.2278, p_cons=1.0)
    rf = RfHopParams(fading=RicianFading(2.0, 1.0, 40), pa=pa, M=2, C=5, R=2.0)
    fso = FsoHopParams(model=GG, p_tx=40.0, M=2, C_tilde=5, R=2.0)
    calls = _count_newton_columns(monkeypatch)
    sim._critical_offsets(MeshNetwork(routes=(Route(hops=(rf, fso)),)),
                          McConfig(trials=20_000, seed=1))
    assert calls == [("route 0: hop 0", 20_000), ("route 0: hop 1", 0)]


@pytest.mark.parametrize("mesh, rounds", [
    (README_MESH, {README_RF.law: 10, GG: 4}),
    (TWO_ROUTE_MESH, {README_RF.law: 10, GG: 4, TWO_ROUTE_MESH.routes[1].hops[0].law: 10,
                      TWO_ROUTE_MESH.routes[1].hops[1].law: 6}),
], ids=["readme", "two_routes"])
def test_critical_offsets_later_hop_stops_drawing(monkeypatch, mesh, rounds):
    # at seed 1 no trial's partial start on the FSO hops could raise its
    # route's max after round 4 (Gamma-Gamma) or 6 (exponential); the
    # offsets equal, bit for bit, those with every round drawn and solved
    import linkplan.simulate as sim
    mc = McConfig(trials=20_000, seed=1)
    draws = _count_draws(monkeypatch)
    c = sim._critical_offsets(mesh, mc)
    assert draws == rounds
    monkeypatch.undo()
    assert np.array_equal(c, _critical_offsets_all_solved(sim, mesh, mc))


@pytest.mark.parametrize("seed, block_trials", [(1, None), (2, None), (3, None),
                                                (1, 1000), (2, 1000)])
def test_critical_offsets_stop_is_exact(monkeypatch, seed, block_trials):
    import linkplan.simulate as sim
    if block_trials:
        monkeypatch.setattr(sim, "BLOCK_TRIALS", block_trials)
    mc = McConfig(trials=20_000, seed=seed)
    assert np.array_equal(sim._critical_offsets(TWO_ROUTE_MESH, mc),
                          _critical_offsets_all_solved(sim, TWO_ROUTE_MESH, mc))


def _solve_rank(n, target):
    """The rank r the MC required_snr passes to `_critical_offsets`."""
    import linkplan.simulate as sim
    k, _, u = sim._crossing_ranks(n, target)
    return min(n, max(k + 1, u))


@pytest.mark.parametrize("name, block_trials", CRITICAL_CASES)
@pytest.mark.parametrize("target", [1e-3, 0.01, 0.1, 0.5, 0.9])
def test_critical_offsets_rank_cut_keeps_the_largest_exact(monkeypatch, name, block_trials,
                                                           target):
    # with a rank r, the r largest offsets equal the uncut ones bit for bit;
    # a value that differs lies, with its trial's own offset, at or below
    # the r-th largest, so it changes no order statistic up to r
    import linkplan.simulate as sim
    if block_trials:
        monkeypatch.setattr(sim, "BLOCK_TRIALS", block_trials)
    mesh = _critical_meshes()[name]
    mc = McConfig(trials=3500, seed=43)
    r = _solve_rank(mc.trials, target)
    full = sim._critical_offsets(mesh, mc)
    cut = sim._critical_offsets(mesh, mc, r)
    assert np.array_equal(np.sort(sim._largest(cut, r)), np.sort(sim._largest(full, r)))
    rth = np.sort(full)[-r]
    moved = cut != full
    assert np.all(cut[moved] <= rth) and np.all(full[moved] <= rth)


def _uncut(monkeypatch):
    """Make `required_snr` read every offset without the rank cut."""
    import linkplan.simulate as sim
    real = sim._critical_offsets
    monkeypatch.setattr(sim, "_critical_offsets", lambda mesh, mc, rank=None: real(mesh, mc))


def _solve_or_error(mesh, target, bounds_db, mc):
    try:
        return repr(required_snr(target, mesh, evaluator="mc", bounds_db=bounds_db, mc=mc))
    except (BracketError, McPrecisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("block_trials", [None, 1000])
def test_required_snr_mc_cut_matches_uncut(monkeypatch, block_trials):
    # every crossing, BracketError and McPrecisionError of the cut solve is
    # the uncut one's, to the bit and to the character
    import linkplan.simulate as sim
    if block_trials:
        monkeypatch.setattr(sim, "BLOCK_TRIALS", block_trials)
    mc = McConfig(trials=3500, seed=43)
    cases = [(mesh, target) for mesh in _critical_meshes().values()
             for target in (1e-3, 0.01, 0.1, 0.5, 0.9)]
    cut = [_solve_or_error(mesh, target, (-40.0, 40.0), mc) for mesh, target in cases]
    _uncut(monkeypatch)
    assert cut == [_solve_or_error(mesh, target, (-40.0, 40.0), mc) for mesh, target in cases]
    assert sum("Error" not in v for v in cut) >= 10


@pytest.mark.parametrize("bounds_db, end", [((7.05, 8.0), "lo"), ((6.8, 6.95), "hi")])
def test_required_snr_mc_bracket_error_outages_are_exact(monkeypatch, bounds_db, end):
    # the bracket fails at one end; both outages in the message are those of
    # the uncut offsets, although below the cut the other end's count is not
    import linkplan.simulate as sim
    mc = McConfig(trials=20_000, seed=1)
    with pytest.raises(BracketError) as err:
        required_snr(0.1, README_MESH, evaluator="mc", bounds_db=bounds_db, mc=mc)
    full = sim._critical_offsets(README_MESH, mc)
    p_lo, p_hi = (np.count_nonzero(full >= b) / mc.trials for b in bounds_db)
    assert (p_lo < 0.1) == (end == "lo") and (p_hi > 0.1) == (end == "hi")
    if end == "hi":
        cut = sim._critical_offsets(README_MESH, mc, _solve_rank(mc.trials, 0.1))
        assert np.count_nonzero(cut >= bounds_db[0]) != np.count_nonzero(full >= bounds_db[0])
    _uncut(monkeypatch)
    with pytest.raises(BracketError) as uncut:
        required_snr(0.1, README_MESH, evaluator="mc", bounds_db=bounds_db, mc=mc)
    assert str(err.value) == str(uncut.value)
    assert f"outage({bounds_db[0]:g} dB)={p_lo:g}" in str(err.value)


def test_required_snr_mc_precision_error_ranks_are_exact(monkeypatch):
    # 1e-3 of 1000 trials: the CI's upper end needs order statistic 0; the
    # crossing and the CI's lower end are read at ranks k and u <= r
    route = Route(hops=(_rf(0.1, n=20, c=10, r=2.0),))
    mc = McConfig(trials=1000, seed=36)
    with pytest.raises(McPrecisionError) as err:
        required_snr(1e-3, route, evaluator="mc", bounds_db=(-30.0, 30.0), mc=mc)
    assert _solve_rank(mc.trials, 1e-3) < mc.trials
    _uncut(monkeypatch)
    with pytest.raises(McPrecisionError) as uncut:
        required_snr(1e-3, route, evaluator="mc", bounds_db=(-30.0, 30.0), mc=mc)
    assert str(err.value) == str(uncut.value)
    assert re.search(r"95% CI \[[-\d.]+ dB, \+inf\] needs order statistics 0 and \d+ of 1000",
                     str(err.value))


@pytest.mark.parametrize("target, r", [(0.1, 2085), (0.01, 229)])
def test_required_snr_mc_newton_solves_at_most_twice_the_rank(monkeypatch, target, r):
    # Newton solves the r trials that seed the cut and those whose start
    # reaches it, not all 20,000
    assert _solve_rank(20_000, target) == r
    calls = _count_newton_columns(monkeypatch)
    required_snr(target, README_MESH, evaluator="mc", bounds_db=(5.0, 9.0),
                 mc=McConfig(trials=20_000, seed=1))
    assert sum(size for _, size in calls) <= 2 * r


def _start(lnx, total):
    """`_PartialStart.bound` with every round (row) of lnx taken in."""
    import linkplan.simulate as sim
    start = sim._PartialStart(lnx.shape[1])
    for row in lnx:
        start.add(row)
    return start.bound(total)


def test_critical_offsets_stop_keeps_a_margin_below_the_floor():
    # a later hop whose partial start after round 1 maps 0.5e-9 dB below
    # every trial's floor draws on; at 2e-9 dB below it stops there
    import linkplan.simulate as sim
    gains = [[0.5, 3.0, 40.0], [0.2, 1.5, 9.0], [0.1, 0.7, 2.0]]
    fields = dict(drive_power=2.0, slope=0.1 * math.log(10.0))
    total = 3 * 2.0
    lnx = np.log(np.array(gains))
    shift = math.log(fields["drive_power"])
    first = (_start(lnx[:1], total) - shift) / fields["slope"]
    drawn = []
    for below in (0.5e-9, 2e-9):
        crafted = _Crafted(gains, 2.0, **fields)
        c = sim._hop_critical_offsets(crafted.hop, None, 3, "margin", first + below)
        assert np.all(c <= first + below)
        drawn.append(crafted.drawn)
    assert drawn[0] > 1 and drawn[1] == 1


def test_one_round_hop_behind_another_builds_no_stop_bar():
    # a one-round hop has no round to spare, so behind the README RF hop (a
    # finite floor) it holds no more than as a route's first hop does: no
    # stop bar, one float a trial, beside its draw and start
    import linkplan.simulate as sim
    n = 100_000
    one_round = replace(README_GG, M=1, C_tilde=1)
    assert one_round.rounds == 1
    floor = sim._hop_critical_offsets(README_RF, sim._block_generator(1, 0, 0), n,
                                      "route 0: hop 0", -math.inf)
    assert np.isfinite(floor).all()

    def peak(floor):
        return _peak_bytes(lambda: sim._hop_critical_offsets(
            one_round, sim._block_generator(1, 0, 1), n, "route 0: hop 1", floor))

    assert peak(floor) <= peak(-math.inf) + PASS_SLACK_BYTES


def _digest_meshes():
    """Two meshes over all three gain laws: exponential at lam = 2.7 and 0.3,
    a PA with theta_pa > 0, M*C > 1, and in mesh "a" both routes limited
    by their second hop."""
    pa = PaConfig(epsilon=0.75, theta_pa=0.5, p_max=316.2278, p_cons=12.0)
    a = MeshNetwork(routes=(
        Route(hops=(_fso(12.0, m=2, model=FsoExponential(2.7)),
                    RfHopParams(fading=RicianFading(1.5, 1.0, 2), pa=pa, M=2, C=2, R=1.0))),
        Route(hops=(_fso(6.0, c=3, model=GG), _rf(0.2, n=3, m=3, r=1.2, k=0.0))),
    ))
    b = MeshNetwork(routes=(
        Route(hops=(RfHopParams(fading=RicianFading(0.5, 2.0, 1), pa=PaConfig.ideal(1.5),
                                R=0.8),
                    _fso(1.0, m=2, c=2, model=FsoExponential(0.3)))),
        Route(hops=(_fso(4.0, m=2, r=1.5, model=FsoGammaGamma(2.0, 1.5)),)),
    ))
    return a, b


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("which, digest", [
    (0, "1fecf08c9b4cca155b0253f0dd4cec90b9c6e566a93167c3ba933ab7011ff1d8"),
    (1, "901f2297321c48b7eedea14c1888a664190ff47daac3d2a799449a626b4d063f"),
], ids=["a", "b"])
def test_critical_offsets_bits_pinned(which, digest):
    # the MC required_snr path, which no CLI golden file exercises: every
    # trial's critical offset keeps its bits from release to release
    import linkplan.simulate as sim
    c = sim._critical_offsets(_digest_meshes()[which], McConfig(trials=20_000, seed=11))
    assert _sha256(c) == digest


@pytest.mark.parametrize("block_trials, digest", [
    (None, "837fd81e2d5d2a76af4da2eadcb1c1c46bce7b8aa99f6ff01a98c385233e4103"),
    (1000, "83f85dd8d27470341ad30d37a6b3c432987f450647541e6e26f238d51355c166"),
], ids=["one_block", "blocks_of_1000"])
def test_required_snr_mc_bits_pinned(monkeypatch, block_trials, digest):
    # every crossing, BracketError and McPrecisionError of the MC solve,
    # cut path included, keeps its bits and its text from release to release
    import linkplan.simulate as sim
    if block_trials:
        monkeypatch.setattr(sim, "BLOCK_TRIALS", block_trials)
    mc = McConfig(trials=3500, seed=43)
    got = [_solve_or_error(mesh, target, (-40.0, 40.0), mc)
           for mesh in _critical_meshes().values() for target in (1e-3, 0.01, 0.1, 0.5, 0.9)]
    assert hashlib.sha256("\n".join(got).encode()).hexdigest() == digest


def test_simulate_sweep_bits_pinned():
    a, b = _digest_meshes()
    ests = simulate_sweep([shift_scenario(a, d) for d in (-2.0, 0.0, 2.0)] + [b],
                          McConfig(trials=20_000, seed=11))
    assert [e.value for e in ests] == [0.87105, 0.32765, 0.0026, 0.0532]
    assert _sha256(np.array([(e.value, e.ci_halfwidth) for e in ests])) == (
        "208ca239c4f9344667024ff95b975f823b5683b4b8b5871a673a9321ad117785")


def _softplus_sum(u, lnx_col):
    return math.fsum(max(z, 0.0) + math.log1p(math.exp(-abs(z)))
                     for z in (u + l for l in lnx_col if l > -math.inf))


_LOG_GAIN = st.one_of(st.just(-math.inf), st.floats(-60.0, 8.0))


@settings(max_examples=200, deadline=None)
@given(rounds=st.integers(1, 12), data=st.data(),
       total=st.floats(1e-3, 60.0))
def test_newton_start_bounds_the_root(rounds, data, total):
    # the start is at or right of the root of sum_r softplus(u + ln X_r) =
    # total, +inf exactly when every round underflowed, and otherwise the
    # Jensen bound over the rounds that did not
    import linkplan.simulate as sim
    n = data.draw(st.integers(1, 6))
    lnx = np.array(data.draw(st.lists(st.lists(_LOG_GAIN, min_size=n, max_size=n),
                                      min_size=rounds, max_size=rounds)))
    start = _start(lnx, total)
    dead = np.all(lnx == -math.inf, axis=0)
    assert np.array_equal(start == math.inf, dead)
    live = np.flatnonzero(~dead)
    u = start.copy()
    sim._critical_log_drive(lnx, total, u, live, "property")
    for i in live:
        col = lnx[:, i]
        assert _softplus_sum(start[i], col) >= total * (1.0 - 1e-12)
        # the smaller of the Jensen bound over the live rounds and
        # total - max ln X_r, in exact sums
        live_col = col[col > -math.inf]
        y = total / live_col.size
        want = min(y + math.log(-math.expm1(-y)) - math.fsum(live_col) / live_col.size,
                   total - col.max())
        assert start[i] == pytest.approx(want, rel=1e-12, abs=1e-11)
        # the root by bisection, between a point where the largest term alone
        # exceeds total and one where every term is below total / rounds
        hi = total - col.max() + 1.0
        lo = math.log(math.expm1(total / rounds)) - col.max() - 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if _softplus_sum(mid, col) >= total else (mid, hi)
        assert start[i] >= hi - 1e-9 * max(1.0, abs(hi))
        assert u[i] <= start[i]
        assert u[i] == pytest.approx(hi, rel=1e-9, abs=1e-9)


def test_lone_trial_offset_matches_its_column_in_a_wider_block():
    # a block of one trial: numpy would sum its lone column of ln X pairwise,
    # not round by round as it sums wider blocks, and move the offset's last
    # bits; beside a copy of itself the same column must give the same bits
    import linkplan.simulate as sim
    col = [0.52, 0.173, 13.586, 0.475, 1.638, 0.679, 10.753, 7.247, 2.586, 0.037]
    fields = dict(drive_power=2.0, slope=0.1 * math.log(10.0))
    got = []
    for width in (1, 2):
        crafted = _Crafted([[g] * width for g in col], 2.0, **fields)
        got.append(sim._hop_critical_offsets(crafted.hop, None, width, "lone",
                                             np.full(width, -math.inf)))
    assert got[1][0] == got[1][1]
    assert got[0][0] == got[1][0]


def test_critical_log_drive_result_depends_on_its_column_alone(monkeypatch):
    # whichever trials are solved together, and in chunks of whatever width
    # (one column included, which numpy would sum pairwise), each trial's
    # solved value is the same to the bit
    import linkplan.simulate as sim
    monkeypatch.setattr(sim, "CRITICAL_CHUNK", 8)
    rng = np.random.default_rng(5)
    # columns of unlike spread take unlike numbers of Newton steps
    lnx = rng.normal(0.0, 1.0, size=(40, 50)) * rng.uniform(0.1, 6.0, size=50)
    lnx[rng.random(lnx.shape) < 0.2] = -math.inf
    total = 25.0
    start = _start(lnx, total)
    every = start.copy()
    sim._critical_log_drive(lnx, total, every, np.arange(50), "all")
    for todo in ([7], [0, 49], list(range(3, 40, 4)), list(range(17))):
        u = start.copy()
        sim._critical_log_drive(lnx, total, u, np.array(todo), "subset")
        assert np.array_equal(u[todo], every[todo])
        rest = np.setdiff1d(np.arange(50), todo)
        assert np.array_equal(u[rest], start[rest])


def test_critical_offsets_newton_failure_names_route_and_hop(monkeypatch):
    import linkplan.simulate as sim
    from linkplan.specfun import ConvergenceError
    monkeypatch.setattr(sim, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match=r"^route 0: hop 0: .*trial \d+"):
        sim._critical_offsets(_critical_meshes()["two_routes"],
                              McConfig(trials=1000, seed=1))
    # with a floor, Newton runs on the trials whose start lies above it, and
    # the error names one of those by its index in the block
    hop = _critical_meshes()["two_routes"].routes[0].hops[0]
    picked = [5, 371, 642, 998]
    floor = np.full(1000, math.inf)
    floor[picked] = -math.inf
    with pytest.raises(ConvergenceError, match=r"^route 0: hop 1: ") as err:
        sim._hop_critical_offsets(hop, sim._block_generator(1, 0, 0), 1000,
                                  "route 0: hop 1", floor)
    assert int(re.search(r"trial (\d+)", str(err.value)).group(1)) in picked
    # past the first block the error names the trial by its index in the
    # whole sample: blocks 0 and 1 skipped, the failure lies in 2000..2499
    monkeypatch.setattr(sim, "BLOCK_TRIALS", 1000)
    blocks = sim._substreams
    monkeypatch.setattr(sim, "_substreams", lambda routes, mc: islice(blocks(routes, mc), 2, None))
    with pytest.raises(ConvergenceError, match=r"^route 0: hop 0: ") as err:
        sim._critical_offsets(_critical_meshes()["two_routes"], McConfig(trials=2500, seed=1))
    assert 2000 <= int(re.search(r"trial (\d+)", str(err.value)).group(1)) < 2500


@pytest.mark.parametrize("evaluator", ["analytical", "mc"])
def test_required_snr_saturating_bracket_end(evaluator):
    # the README PA (p_max 25 dB, theta_pa 0.5) saturates at +26.25 dB: a
    # bracket reaching past that raises as a per-point run would
    from linkplan.hardware import SaturationError
    pa = PaConfig(epsilon=0.75, theta_pa=0.5, p_max=316.2278, p_cons=1.0)
    rf = RfHopParams(fading=RicianFading(2.0, 1.0, 40), pa=pa, M=2, C=5, R=2.0)
    with pytest.raises(SaturationError):
        required_snr(0.1, Route(hops=(rf,)), evaluator=evaluator,
                     bounds_db=(0.0, 30.0), mc=McConfig(trials=1000, seed=3))


@pytest.mark.parametrize("n, target", [(1000, 1e-3), (1000, 0.1), (20_000, 0.01),
                                       (20_000, 0.1), (1000, 0.999)])
def test_order_statistic_ci_ranks(n, target):
    # B ~ Binomial(n, target): the ranks (l, u) give P(l <= B < u) >= 0.95
    # and neither end can move inward; an end outside 1..n means the sample
    # cannot hold it
    from scipy.stats import binom
    import linkplan.simulate as sim
    _, l, u = sim._crossing_ranks(n, target)
    assert binom.cdf(l - 1, n, target) <= 0.025 < binom.cdf(l, n, target)
    assert binom.cdf(u - 2, n, target) < 0.975 <= binom.cdf(u - 1, n, target)
    inside = (n, target) in ((1000, 0.1), (20_000, 0.01), (20_000, 0.1))
    assert (1 <= l and u <= n) == inside


def test_order_statistic_ci_ranks_match_scipy_bdtr():
    # the CI ranks off the windowed mass ratios are the ones scipy's bdtr
    # gives, up to the longest products of ratios the solve meets
    from scipy.special import bdtr

    import linkplan.simulate as sim

    def scipy_ranks(n, target):
        sd = math.sqrt(n * target * (1.0 - target))
        ks = np.arange(max(0, math.floor(n * target - 10.0 * sd - 10.0)),
                       min(n, math.ceil(n * target + 10.0 * sd + 10.0)) + 1)
        cdf = bdtr(ks, n, target)
        low = ks[cdf <= 0.025]
        return (int(low[-1]) + 1 if low.size else 0), int(ks[np.argmax(cdf >= 0.975)]) + 1

    for n in (1, 7, 40, 100, 1000, 5000, 20_000, 100_000, 1_000_000, 2**20 + 1,
              2_000_000, 10_000_000):
        for target in (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 0.999):
            assert sim._crossing_ranks(n, target)[1:] == scipy_ranks(n, target), (n, target)


def _crossing_rank(n, target):
    """The rank of the critical offset the MC solve returns as its crossing."""
    import linkplan.simulate as sim
    return sim._crossing_ranks(n, target)[0]


def test_mc_crossing_rank_steps_down_past_rounding():
    # 0.07 * 20000 rounds to 1400.0000000000002, whose ceil 1401 must step
    # down to 1400, since 1400 / 20000 >= 0.07 already
    assert math.ceil(0.07 * 20_000) == 1401
    assert _crossing_rank(20_000, 0.07) == 1400


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1000, 20_000), share=st.floats(0.02, 0.98),
       nudge=st.sampled_from([-1, 0, 1]))
def test_mc_crossing_rank_is_least_reaching_target(n, share, nudge):
    # the least k with k / n >= target, as the simulator compares its
    # outage; targets on and one float either side of a k / n
    target = round(share * n) / n
    target = np.nextafter(target, nudge * math.inf) if nudge else target
    ks = np.arange(1, n + 1)
    assert _crossing_rank(n, float(target)) == ks[ks / n >= target][0]


def test_required_snr_mc_precision_error_reports_ci():
    # 0.999 of 1000 trials: the CI's lower end needs the 1001st largest of
    # 1000 critical offsets
    route = Route(hops=(_rf(0.1, n=20, c=10, r=2.0),))
    with pytest.raises(McPrecisionError, match=r"95% CI \[-inf, [-\d.]+ dB\] needs "
                                               r"order statistics \d+ and 1001 of 1000"):
        required_snr(0.999, route, evaluator="mc", bounds_db=(-30.0, 30.0),
                     mc=McConfig(trials=1000, seed=36))


def test_required_snr_bracket_error():
    route = Route(hops=(_rf(0.1, n=20, c=10, r=2.0),))
    with pytest.raises(BracketError):
        required_snr(1e-6, route, evaluator="analytical", bounds_db=(-1.0, 1.0))


def test_required_snr_mc_precision_error():
    # 1000-trial MC cannot resolve a 1e-3 target: B ~ Binomial(1000, 1e-3)
    # is 0 with probability 0.37, so no order statistic of the critical
    # offsets bounds the crossing's 95% CI from above
    route = Route(hops=(_rf(0.1, n=20, c=10, r=2.0),))
    s_an = required_snr(1.5e-3, route, evaluator="analytical")
    with pytest.raises(McPrecisionError):
        required_snr(1e-3, route, evaluator="mc",
                     bounds_db=(s_an, s_an + 10.0),
                     mc=McConfig(trials=1000, seed=36))


def test_required_snr_validation():
    route = Route(hops=(_rf(0.1, n=20, c=10, r=2.0),))
    with pytest.raises(ValueError):
        required_snr(0.0, route)
    with pytest.raises(ValueError):
        required_snr(1.0, route)
    with pytest.raises(ValueError):
        required_snr(0.1, route, evaluator="nonsense")
    with pytest.raises(ValueError):
        required_snr(0.1, route, evaluator="mc")  # missing McConfig
    with pytest.raises(ValueError):
        required_snr(0.1, route, bounds_db=(5.0, -5.0))
    # a NaN end fails `lo < hi`; `lo >= hi` let it through to a PA error
    mc = McConfig(trials=1000, seed=1)
    for bounds_db in ((math.nan, 5.0), (-5.0, math.nan)):
        for evaluator in ("analytical", "mc"):
            with pytest.raises(ValueError, match="bounds_db"):
                required_snr(0.1, route, evaluator=evaluator, bounds_db=bounds_db, mc=mc)
    # 0 or below bisected forever once lo and hi were adjacent floats; NaN
    # returned the bracket midpoint without a search
    for tol_db in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol_db"):
            required_snr(0.1, route, tol_db=tol_db)


def _harq_route(m):
    # mixed RF+FSO relay: N=60, C=10, C~=20, R=3, ideal PA, FSO power coupled
    # to N * P_cons at the 0 dB baseline
    rf = _rf(1.0, n=60, m=m, c=10, r=3.0)
    fso = _fso(60.0, m=m, c=20, r=3.0)
    return Route(hops=(rf, fso))


@pytest.mark.xfail(strict=True, reason=(
    "claimed ~13 dB (+-1.5) power saving from allowing a second transmission "
    "round at outage 1e-4; measured gap is 9.8 dB — the 13 dB figure "
    "reproduces only as the gap between one and THREE total rounds, i.e. the "
    "source counts retransmissions-after-the-first"))
def test_required_snr_two_round_gain_example():
    s1 = required_snr(1e-4, _harq_route(1), evaluator="analytical")
    s2 = required_snr(1e-4, _harq_route(2), evaluator="analytical")
    assert abs((s1 - s2) - 13.0) <= 1.5


@pytest.mark.xfail(strict=True, reason=(
    "claimed ~17 dB (+-1.5) saving for three rounds at outage 1e-4; measured "
    "gap is 13.9 dB — matches the claimed 13 dB two-round figure instead, "
    "consistent with the rounds-vs-retransmissions miscount"))
def test_required_snr_three_round_gain_example():
    s1 = required_snr(1e-4, _harq_route(1), evaluator="analytical")
    s3 = required_snr(1e-4, _harq_route(3), evaluator="analytical")
    assert abs((s1 - s3) - 17.0) <= 1.5
