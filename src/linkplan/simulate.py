"""Monte Carlo ground truth for hop / route / mesh outage.

Every entry point runs one kernel over a list of parallel routes: a trial
fails when every route has a failed hop.  Trials are partitioned into
fixed-size blocks; block b of hop j (hops numbered across routes) draws from
an independent substream keyed by (seed, block=b, hop=j), so the estimate
is bit-reproducible for a given seed.

No draw depends on drive power, so `simulate_sweep` scores a whole drive
sweep (meshes equal but for their drives) from one set of draws, each point
bit-identical to simulating it alone.  The extra memory is a float64
accumulator of about 8 * points * min(trials, BLOCK_TRIALS) bytes, capped at
8 * PASS_FLOATS bytes per pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    FSO_CLT,
    MONTE_CARLO,
    RF_LINEARIZED,
    FsoHopParams,
    OutageEstimate,
    RfHopParams,
)
from .channel import sample_gain
from .network import MeshNetwork, Route, mesh_outage, shift_scenario

BLOCK_TRIALS = 1 << 20
# most float64 accumulator cells one kernel pass holds (64 MiB); a longer
# drive sweep takes further passes over the same substreams
PASS_FLOATS = 8 * BLOCK_TRIALS

# two-sided 95% normal quantile used by the Wilson interval
_Z95 = 1.959963984540054


class BracketError(ValueError):
    """required_snr: target outage not enclosed by the supplied dB bracket."""


class McPrecisionError(RuntimeError):
    """required_snr: MC noise too large to resolve the target crossing."""


@dataclass
class McConfig:
    trials: int          # total trials (>= 1e3)
    seed: int = 0        # base seed, 64-bit
    target_ci: float | None = None  # optional relative half-width early stop

    def __post_init__(self):
        if self.trials < 1_000:
            raise ValueError(f"trials must be >= 1000, got {self.trials}")
        if self.target_ci is not None and not 0.0 < self.target_ci < 1.0:
            raise ValueError(f"target_ci must be in (0,1), got {self.target_ci}")


def wilson_halfwidth(k: int, n: int, z: float = _Z95) -> float:
    """Half-width of the Wilson score interval for k successes in n trials."""
    if n == 0:
        return 1.0
    p = k / n
    denom = 1.0 + z * z / n
    return (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))


def _block_generator(seed: int, block: int, hop_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block, hop_index))
    return np.random.Generator(np.random.PCG64(ss))


def _model_rounds(hop):
    """(gain model, hop-round draws per trial) of one hop."""
    if isinstance(hop, RfHopParams):
        return hop.fading, hop.M * hop.C
    return hop.model, hop.M * hop.C_tilde


def _drive(hop) -> float:
    return hop.drive_power if isinstance(hop, RfHopParams) else hop.p_tx


def _layout(routes) -> tuple:
    """What a mesh's draws and decode rule depend on: everything but the
    drive powers.  Meshes with equal layouts can share one set of draws."""
    return tuple(tuple((*_model_rounds(hop), hop.M, hop.R) for hop in route.hops)
                 for route in routes)


def _hop_failures(hop, drives, gen: np.random.Generator, acc: np.ndarray,
                  buf: np.ndarray, out: np.ndarray) -> None:
    """OR the hop's outage indicator at drive drives[i] into out[i].

    Each round's unscaled gain X is drawn once and scored at every drive:
    acc[i] += log1p((drives[i] * scale) * X), the arithmetic of a one-drive
    run, so every row is bit-identical to simulating its drive alone.
    """
    model, rounds = _model_rounds(hop)
    acc.fill(0.0)
    for _ in range(rounds):
        scale, x = sample_gain(model, gen, buf.size)
        for row, p in zip(acc, drives):
            np.multiply(x, p * scale, out=buf)
            row += np.log1p(buf, out=buf)
    threshold = hop.R / hop.M
    for row, fail in zip(acc, out):
        fail |= np.divide(row, rounds, out=buf) <= threshold


def _simulate(points, mc: McConfig) -> list:
    """Blocked MC over points (each a tuple of parallel routes) that share
    one layout and differ only in drive powers; a trial fails at a point when
    every route has a failed hop.

    With `mc.target_ci` set, each point stops at the first block where its
    own Wilson criterion holds; later blocks score only the points still
    running.
    """
    routes = points[0]
    drives = np.array([[_drive(hop) for route in pt for hop in route.hops]
                       for pt in points])
    width = min(BLOCK_TRIALS, mc.trials)
    acc = np.empty((len(points), width))
    buf = np.empty(width)
    all_fail = np.empty((len(points), width), dtype=bool)
    route_fail = np.empty_like(all_fail) if len(routes) > 1 else None
    failures = [0] * len(points)
    used = [0] * len(points)
    running = list(range(len(points)))
    total = 0
    block = 0
    while running and total < mc.trials:
        n = min(BLOCK_TRIALS, mc.trials - total)
        k = len(running)
        mesh_fail = all_fail[:k, :n]
        flat = 0
        for r, route in enumerate(routes):
            # the first route's failures are the mesh's until a second route
            # clears some of them
            fail = mesh_fail if r == 0 else route_fail[:k, :n]
            fail.fill(False)
            for hop in route.hops:
                _hop_failures(hop, drives[running, flat],
                              _block_generator(mc.seed, block, flat),
                              acc[:k, :n], buf[:n], fail)
                flat += 1
            if r:
                mesh_fail &= fail
        total += n
        block += 1
        still = []
        for i, count in zip(running, np.count_nonzero(mesh_fail, axis=1)):
            failures[i] += int(count)
            used[i] = total
            if mc.target_ci is not None and failures[i] > 0:
                p = failures[i] / total
                if wilson_halfwidth(failures[i], total) <= mc.target_ci * p:
                    continue
            still.append(i)
        running = still
    return [OutageEstimate(f / n, MONTE_CARLO, wilson_halfwidth(f, n))
            for f, n in zip(failures, used)]


def simulate_sweep(meshes, mc: McConfig) -> list:
    """MC outage of every mesh, in order, each bit-identical to
    `simulate_mesh`.

    Meshes that differ only in drive power (an `snr_db` sweep) share one set
    of draws: each hop-round gain is drawn once and scored at every drive.
    Other meshes fall back to a pass of their own.  A pass holds
    8 * points * min(trials, BLOCK_TRIALS) bytes of accumulator; points
    beyond PASS_FLOATS go into further passes over the same substreams.
    """
    groups = {}
    for i, mesh in enumerate(meshes):
        groups.setdefault(_layout(mesh.routes), []).append(i)
    per_pass = max(1, PASS_FLOATS // min(BLOCK_TRIALS, mc.trials))
    out = [None] * len(meshes)
    for members in groups.values():
        for start in range(0, len(members), per_pass):
            chunk = members[start:start + per_pass]
            ests = _simulate([meshes[i].routes for i in chunk], mc)
            for i, est in zip(chunk, ests):
                out[i] = est
    return out


def simulate_rf_hop(hop: RfHopParams, mc: McConfig) -> OutageEstimate:
    return _simulate([(Route((hop,)),)], mc)[0]


def simulate_fso_hop(hop: FsoHopParams, mc: McConfig) -> OutageEstimate:
    return _simulate([(Route((hop,)),)], mc)[0]


def simulate_route(route: Route, mc: McConfig) -> OutageEstimate:
    """Joint per-trial simulation: the route fails if any hop fails."""
    return _simulate([(route,)], mc)[0]


def simulate_mesh(mesh: MeshNetwork, mc: McConfig) -> OutageEstimate:
    """Joint per-trial simulation: the mesh fails if every route fails."""
    return _simulate([mesh.routes], mc)[0]


def required_snr(target_outage: float, scenario, evaluator: str = "analytical",
                 bounds_db=(-30.0, 30.0), mc: McConfig | None = None,
                 rf_method: str = RF_LINEARIZED, fso_method: str = FSO_CLT,
                 theta: float = 1.0, tol_db: float = 0.01) -> float:
    """dB offset (applied to every hop's drive) at which outage == target.

    Outage decreases with power, so the bracket must satisfy
    outage(lo) >= target >= outage(hi).  `evaluator` is "analytical"
    (closed forms, method tags as in route_outage) or "mc"
    (joint simulation; needs `mc` and raises McPrecisionError when the
    Wilson half-width swallows the distance to the target).
    """
    if not 0.0 < target_outage < 1.0:
        raise ValueError(f"target_outage must be in (0,1), got {target_outage}")
    if evaluator not in ("analytical", "mc"):
        raise ValueError(f"evaluator must be 'analytical' or 'mc', got {evaluator!r}")
    if evaluator == "mc" and mc is None:
        raise ValueError("evaluator 'mc' requires an McConfig")

    mesh = MeshNetwork((scenario,)) if isinstance(scenario, Route) else scenario

    def outage_at(*offsets_db) -> list:
        """(outage, MC half-width) at each offset; MC offsets share one pass."""
        if evaluator == "analytical":
            return [(mesh_outage(shift_scenario(mesh, s), rf_method, fso_method,
                                 theta).value, 0.0) for s in offsets_db]
        ests = simulate_sweep([shift_scenario(mesh, s) for s in offsets_db], mc)
        return [(est.value, est.ci_halfwidth) for est in ests]

    lo, hi = float(bounds_db[0]), float(bounds_db[1])
    if lo >= hi:
        raise ValueError(f"bounds_db must satisfy lo < hi, got {bounds_db}")
    (p_lo, hw_lo), (p_hi, hw_hi) = outage_at(lo, hi)
    if not (p_lo >= target_outage >= p_hi):
        raise BracketError(
            f"target {target_outage:g} not bracketed: outage({lo:g} dB)={p_lo:g}, "
            f"outage({hi:g} dB)={p_hi:g}")
    if evaluator == "mc":
        for p, hw, s in ((p_lo, hw_lo, lo), (p_hi, hw_hi, hi)):
            if abs(p - target_outage) <= hw:
                raise McPrecisionError(
                    f"MC half-width {hw:g} at {s:g} dB exceeds distance to target "
                    f"{abs(p - target_outage):g}; increase trials")
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        (p, hw), = outage_at(mid)
        if evaluator == "mc" and abs(p - target_outage) <= hw and hi - lo > 4 * tol_db:
            raise McPrecisionError(
                f"MC half-width {hw:g} at {mid:g} dB exceeds distance to target "
                f"{abs(p - target_outage):g}; increase trials")
        if p >= target_outage:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
