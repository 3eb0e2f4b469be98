"""Monte Carlo ground truth for hop / route / mesh outage.

Every entry point runs one kernel over a list of parallel routes: a trial
fails when every route has a failed hop.  Trials are partitioned into
fixed-size blocks; block b of hop j (hops numbered across routes) draws from
an independent substream keyed by (seed, block=b, hop=j), so the estimate
is bit-reproducible for a given seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import MONTE_CARLO, FsoHopParams, OutageEstimate, RfHopParams
from .channel import sample_snr
from .network import MeshNetwork, Route, mesh_outage

BLOCK_TRIALS = 1 << 20

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


def _hop_failures(hop, gen: np.random.Generator, n: int) -> np.ndarray:
    """Boolean outage indicator per trial for one hop."""
    if isinstance(hop, RfHopParams):
        model, power, rounds = hop.fading, hop.drive_power, hop.M * hop.C
    else:
        model, power, rounds = hop.model, hop.p_tx, hop.M * hop.C_tilde
    acc = np.zeros(n)
    for _ in range(rounds):
        acc += np.log1p(sample_snr(model, power, gen, n))
    return acc / rounds <= hop.R / hop.M


def _simulate(routes, mc: McConfig) -> OutageEstimate:
    """Blocked MC over parallel routes; a trial fails when every route has a
    failed hop."""
    total = 0
    failures = 0
    block = 0
    while total < mc.trials:
        n = min(BLOCK_TRIALS, mc.trials - total)
        all_fail = np.ones(n, dtype=bool)
        flat = 0
        for route in routes:
            route_fail = np.zeros(n, dtype=bool)
            for hop in route.hops:
                route_fail |= _hop_failures(hop, _block_generator(mc.seed, block, flat), n)
                flat += 1
            all_fail &= route_fail
        failures += int(np.count_nonzero(all_fail))
        total += n
        block += 1
        if mc.target_ci is not None and failures > 0:
            p = failures / total
            if wilson_halfwidth(failures, total) <= mc.target_ci * p:
                break
    return OutageEstimate(failures / total, MONTE_CARLO,
                          wilson_halfwidth(failures, total))


def simulate_rf_hop(hop: RfHopParams, mc: McConfig) -> OutageEstimate:
    return _simulate([Route((hop,))], mc)


def simulate_fso_hop(hop: FsoHopParams, mc: McConfig) -> OutageEstimate:
    return _simulate([Route((hop,))], mc)


def simulate_route(route: Route, mc: McConfig) -> OutageEstimate:
    """Joint per-trial simulation: the route fails if any hop fails."""
    return _simulate([route], mc)


def simulate_mesh(mesh: MeshNetwork, mc: McConfig) -> OutageEstimate:
    """Joint per-trial simulation: the mesh fails if every route fails."""
    return _simulate(mesh.routes, mc)


def _shift_hop(hop, delta_db: float):
    """Return a copy of the hop with its drive power moved by delta_db."""
    factor = 10.0 ** (delta_db / 10.0)
    if isinstance(hop, RfHopParams):
        return replace(hop, pa=hop.pa.with_drive(hop.pa.p_cons * factor))
    if isinstance(hop, FsoHopParams):
        return replace(hop, p_tx=hop.p_tx * factor)
    raise TypeError(f"unsupported hop type {type(hop).__name__}")


def shift_scenario(scenario, delta_db: float):
    """Move every hop's drive power by a common dB offset."""
    if isinstance(scenario, Route):
        return Route(tuple(_shift_hop(h, delta_db) for h in scenario.hops))
    if isinstance(scenario, MeshNetwork):
        return MeshNetwork(tuple(shift_scenario(r, delta_db) for r in scenario.routes))
    raise TypeError(f"unsupported scenario type {type(scenario).__name__}")


def required_snr(target_outage: float, scenario, evaluator: str = "analytical",
                 bounds_db=(-30.0, 30.0), mc: McConfig | None = None,
                 rf_method: str = "rf_linearized_clt", fso_method: str = "fso_clt",
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

    def outage_at(s_db: float) -> tuple:
        shifted = shift_scenario(mesh, s_db)
        if evaluator == "analytical":
            return mesh_outage(shifted, rf_method, fso_method, theta).value, 0.0
        est = simulate_mesh(shifted, mc)
        return est.value, est.ci_halfwidth

    lo, hi = float(bounds_db[0]), float(bounds_db[1])
    if lo >= hi:
        raise ValueError(f"bounds_db must satisfy lo < hi, got {bounds_db}")
    p_lo, hw_lo = outage_at(lo)
    p_hi, hw_hi = outage_at(hi)
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
        p, hw = outage_at(mid)
        if evaluator == "mc" and abs(p - target_outage) <= hw and hi - lo > 4 * tol_db:
            raise McPrecisionError(
                f"MC half-width {hw:g} at {mid:g} dB exceeds distance to target "
                f"{abs(p - target_outage):g}; increase trials")
        if p >= target_outage:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
