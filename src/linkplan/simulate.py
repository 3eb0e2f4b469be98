"""Monte Carlo ground truth for hop / route / mesh outage.

Trials are partitioned into fixed-size blocks; block b of hop j (hops
numbered across routes) draws from substream (seed, b, j).  Every estimate
spends exactly `mc.trials` trials, so it is a bit-reproducible function of
the mesh, `mc.trials` and `mc.seed` alone.  Both passes below walk the
substreams with `_substreams`, draw a hop's rounds with `_draw_rounds`, and
fold hop -> route -> mesh alike: a route fails when any hop fails, the mesh
when every route does.  A hop is read only through the fields both kinds
share (`law`, `rounds`, `drive_power`, `slope`), never by its class.

No draw depends on drive power, so `simulate_sweep` scores a whole drive
sweep (meshes equal but for their drives) from one set of draws, each point
bit-identical to simulating it alone.  The extra memory is a float64
accumulator of about 8 * points * min(trials, BLOCK_TRIALS) bytes, capped at
8 * PASS_FLOATS bytes per pass.

The MC `required_snr` makes one pass over the same draws and gives every
trial its critical dB offset c, the largest common drive offset at which
the mesh fails, so the MC outage at any offset s is #{c >= s} / trials and
the solve returns the exact crossing.  Each hop and trial starts from a
cheap upper bound on its own offset; Newton refines it only where that
bound could raise the max over the route's earlier hops, so a hop that
never limits its route costs its draws and the bound.  That pass holds the
hop's draws, 8 * rounds * min(trials, BLOCK_TRIALS) bytes, and three
(rounds x CRITICAL_CHUNK) temporaries.

Both passes stop drawing a hop's rounds once no later round can change a
result: the sweep kernel once every trial has decoded at every drive, the
critical pass once no trial's bound can reach above its route's floor.
Later rounds only add terms >= 0 to a trial's log-rate sum, and nothing
else draws from the hop's substream, so every result is the same to the
bit as with every round drawn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .analysis import FSO_CLT, MONTE_CARLO, RF_LINEARIZED, OutageEstimate
from .channel import sample_gain
from .network import MeshNetwork, Route, mesh_outage, shift_scenario
from .specfun import ConvergenceError, binomial_cdf

BLOCK_TRIALS = 1 << 20
# most float64 accumulator cells one kernel pass holds (64 MiB); a longer
# drive sweep takes further passes over the same substreams
PASS_FLOATS = 8 * BLOCK_TRIALS

# two-sided 95% normal quantile: the Wilson interval's z, and the factor
# `validate` divides an MC half-width by to get its sigma
_Z95 = 1.959963984540054

# trials per Newton chunk of the MC required_snr pass: bounds its temporaries
CRITICAL_CHUNK = 4096
# Newton steps allowed per trial, and the step in u = ln(drive * scale) at
# which a trial counts as converged: from the right of a root of a convex
# sum whose f'' <= f', a step d leaves an error of at most d^2 / 2, here
# 5e-15, so the root is then good to float precision
_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-7
# the MC crossing is returned this far below the k-th largest critical
# offset: critical offsets and the simulator's own arithmetic disagree by
# ~1e-13 dB, so the simulator is sure to count that trial as failed there
_CROSSING_MARGIN_DB = 1e-9


class BracketError(ValueError):
    """required_snr: target outage not enclosed by the supplied dB bracket."""


class McPrecisionError(RuntimeError):
    """required_snr: too few MC trials to hold the 95% CI of the crossing."""


@dataclass(frozen=True)
class McConfig:
    trials: int          # total trials (>= 1e3)
    seed: int = 0        # base seed, 64-bit (>= 0)

    def __post_init__(self):
        for name in ("trials", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))  # a numpy one would make estimates numpy floats
        if self.trials < 1_000:
            raise ValueError(f"trials must be >= 1000, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def wilson_halfwidth(k: int, n: int) -> float:
    """Half-width of the Wilson 95% score interval for k successes in n trials."""
    if n == 0:
        return 1.0
    p = k / n
    denom = 1.0 + _Z95 * _Z95 / n
    return (_Z95 / denom) * math.sqrt(p * (1.0 - p) / n + _Z95 * _Z95 / (4.0 * n * n))


def _block_generator(seed: int, block: int, hop_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block, hop_index))
    return np.random.Generator(np.random.PCG64(ss))


def _layout(routes) -> tuple:
    """What a mesh's draws and decode rule depend on: everything but the
    drive powers.  Meshes with equal layouts can share one set of draws."""
    return tuple(tuple((hop.law, hop.rounds, hop.M, hop.R) for hop in route.hops)
                 for route in routes)


def _substreams(routes, mc: McConfig):
    """Per block of trials: (first trial, trials, hops by route), each hop as
    (flat index j, hop, generator of substream (seed, block, j))."""
    firsts = list(accumulate((len(route.hops) for route in routes), initial=0))
    for block, start in enumerate(range(0, mc.trials, BLOCK_TRIALS)):
        yield start, min(BLOCK_TRIALS, mc.trials - start), [
            [(j, hop, _block_generator(mc.seed, block, j))
             for j, hop in enumerate(route.hops, first)]
            for route, first in zip(routes, firsts)]


def _draw_rounds(hop, gen: np.random.Generator, n: int):
    """Each round's (scale, unscaled gains X) of n trials, in draw order."""
    for _ in range(hop.rounds):
        yield sample_gain(hop.law, gen, n)


def _hop_failures(hop, drives, gen: np.random.Generator, acc: np.ndarray,
                  buf: np.ndarray, out: np.ndarray) -> None:
    """OR the hop's outage indicator at drive drives[i] into out[i].

    Each round's unscaled gain X is drawn once and scored at every drive:
    acc[i] += log1p((drives[i] * scale) * X), the arithmetic of a one-drive
    run, so every row is bit-identical to simulating its drive alone.

    The hop stops drawing once every trial has decoded at every drive, each
    row's min / rounds > R / M, and ORs in nothing: a later round adds a
    log1p term >= 0, which never lowers a float sum, and the division is
    monotone, so no trial could fail after all.  Nothing else draws from
    the hop's substream, so the draws it skips change no other result.
    """
    acc.fill(0.0)
    rounds, threshold = hop.rounds, hop.R / hop.M
    for scale, x in _draw_rounds(hop, gen, buf.size):
        for row, p in zip(acc, drives):
            np.multiply(x, p * scale, out=buf)
            row += np.log1p(buf, out=buf)
        if all(row.min() / rounds > threshold for row in acc):
            return
    for row, fail in zip(acc, out):
        fail |= np.divide(row, rounds, out=buf) <= threshold


def _simulate(points, mc: McConfig) -> list:
    """Blocked MC over points (each a tuple of parallel routes) that share
    one layout and differ only in drive powers; a trial fails at a point when
    every route has a failed hop.  Every point counts all `mc.trials`.
    """
    drives = np.array([[hop.drive_power for route in pt for hop in route.hops]
                       for pt in points])
    width = min(BLOCK_TRIALS, mc.trials)
    acc = np.empty((len(points), width))
    buf = np.empty(width)
    mesh_buf = np.empty((len(points), width), dtype=bool)
    route_buf = np.empty_like(mesh_buf)
    failures = np.zeros(len(points), dtype=np.int64)
    for _, n, routes in _substreams(points[0], mc):
        # the mesh starts with every route failed, a route with no hop failed
        mesh_fail, route_fail = mesh_buf[:, :n], route_buf[:, :n]
        mesh_fail.fill(True)
        for hops in routes:
            route_fail.fill(False)
            for j, hop, gen in hops:
                _hop_failures(hop, drives[:, j], gen, acc[:, :n], buf[:n], route_fail)
            mesh_fail &= route_fail
        failures += np.count_nonzero(mesh_fail, axis=1)
    return [OutageEstimate(f / mc.trials, MONTE_CARLO, wilson_halfwidth(f, mc.trials))
            for f in failures.tolist()]


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


def simulate_rf_hop(hop, mc: McConfig) -> OutageEstimate:
    """MC outage of one hop, RF or FSO alike: `simulate_fso_hop` is this function."""
    return _simulate([(Route((hop,)),)], mc)[0]


simulate_fso_hop = simulate_rf_hop


def simulate_route(route: Route, mc: McConfig) -> OutageEstimate:
    """Joint per-trial simulation: the route fails if any hop fails."""
    return _simulate([(route,)], mc)[0]


def simulate_mesh(mesh: MeshNetwork, mc: McConfig) -> OutageEstimate:
    """Joint per-trial simulation: the mesh fails if every route fails."""
    return _simulate([mesh.routes], mc)[0]


class _PartialStart:
    """Per trial, the running sum, count and max of its live ln X_r over the
    rounds drawn so far, kept in O(n) per round, and from them `bound`."""

    def __init__(self, n: int):
        self.sum = np.zeros(n)
        self.max = np.full(n, -math.inf)
        self.live = 0                      # one int until a gain underflows

    def add(self, row: np.ndarray) -> None:
        """Take in one round's ln X, trial by trial, whatever the block's width."""
        np.maximum(self.max, row, out=self.max)
        if row.min() > -math.inf:
            self.sum += row
            self.live += 1
        else:
            live = row > -math.inf
            np.add(self.sum, row, out=self.sum, where=live)
            self.live = self.live + live

    def bound(self, total: float) -> np.ndarray:
        """Per trial, an upper bound on the u solving sum_r log1p(e^u X_r) =
        total over the rounds taken in: +inf when every X_r is 0.

        Each term is softplus(u + ln X_r), convex and increasing in u, so two
        bounds put the root at or left of a point, and the smaller is taken.
        Jensen over the m rounds with X_r > 0 gives a sum of at least
        m * softplus(u + mean ln X_r), which reaches total at
        softplus^-1(total / m) - mean ln X_r; and at total - max ln X_r the
        largest term alone exceeds total.
        """
        m = self.live
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.divide(self.sum, -m)       # -mean ln X_r: NaN where m = 0
            y = total / m
            # softplus^-1(y) = ln(e^y - 1), written so that no e^y overflows
            out += y + np.log(-np.expm1(-y))
        # fmin passes over the NaN: a trial with no X_r > 0 gets total + inf
        return np.fmin(out, total - self.max, out=out)


def _critical_log_drive(lnx: np.ndarray, total: float, u: np.ndarray,
                        todo: np.ndarray, where: str) -> None:
    """Move u[i], for each trial i in todo, from its start
    (`_PartialStart.bound`) onto the root of sum_r log1p(e^u X_r) = total,
    X_r = e^lnx[r, i].

    The sum f is convex and increasing in u, so Newton started right of the
    root falls monotonically onto it, and from a start at or left of
    total - max ln X_r no z = u + ln X_r exceeds total.  A trial stops at
    its own first step below _NEWTON_TOL, and ends no higher than its
    start, which bounds the root, whatever rounding did to its last step:
    a trial's result then depends on its column alone, and a trial left at
    its start compares with any floor as its solved value would.  The
    columns in todo are gathered CRITICAL_CHUNK at a time, which bounds the
    temporaries to three (rounds x chunk) arrays.
    """
    if not todo.size:
        return
    rounds = lnx.shape[0]
    chunks = np.array_split(todo, -(-todo.size // CRITICAL_CHUNK))
    width = max(2, chunks[0].size)
    z, sp = np.empty((rounds, width)), np.empty((rounds, width))
    for idx in chunks:
        if idx.size == 1:
            # numpy sums a lone column pairwise, not row by row as it sums
            # wider ones: solve it twice over so that its bits stay its own
            idx = np.repeat(idx, 2)
        cols = lnx[:, idx]
        k = idx.size
        zk, spk = z[:, :k], sp[:, :k]
        uk = u[idx]
        active = np.ones(k, dtype=bool)
        for _ in range(_NEWTON_MAX_ITER):
            # softplus(z) = max(log1p(e^min(z, 700)), z) and its derivative
            # expit(z) = e^(z - softplus(z)): exact in doubles and free of
            # overflow whatever total is
            np.add(cols, uk, out=zk)
            np.minimum(zk, 700.0, out=spk)
            np.exp(spk, out=spk)
            np.log1p(spk, out=spk)
            np.maximum(spk, zk, out=spk)
            step = spk.sum(axis=0)
            step -= total
            np.subtract(zk, spk, out=zk)
            step /= np.exp(zk, out=zk).sum(axis=0)
            step[~active] = 0.0
            uk -= step
            active &= np.abs(step) > _NEWTON_TOL
            if not active.any():
                break
        else:
            j = int(np.argmax(np.abs(step)))
            raise ConvergenceError(
                f"{where}: critical drive of trial {idx[j]} did not converge in "
                f"{_NEWTON_MAX_ITER} Newton steps (last step {step[j]:g} in ln drive)")
        u[idx] = np.minimum(uk, u[idx])


def _hop_critical_offsets(hop, gen: np.random.Generator, n: int, where: str,
                          floor: np.ndarray) -> np.ndarray:
    """Per trial, the dB drive offset c at or below which the hop fails.

    The rounds are drawn as `_hop_failures` draws them.  The hop fails at
    offset s iff sum_r log1p(p(s) * scale * X_r) <= rounds * R / M, and
    ln(p(s) * scale) rises linearly in s with the hop's `slope`.

    `floor` is the max of c over the route's earlier hops (-inf before its
    first): a trial whose Newton start maps to an offset at or below
    floor[i] keeps that offset, which bounds the solved c from above, so
    neither can raise the route's max.

    Every hop keeps its start's running sums (`_PartialStart`) round by
    round.  Below a finite floor the hop stops drawing once the start of
    the rounds drawn so far maps every trial at least
    _CROSSING_MARGIN_DB below its floor.  Later rounds add terms >= 0, so
    the partial sum's root lies at or right of the full sum's; the margin
    dwarfs the float error of Newton's root, so with every round drawn
    each trial's c would still map at or below its floor.  Those trials
    keep their partial start and Newton solves none, so the route's max is
    the same to the bit, and no other hop draws from this substream.
    """
    lnx = np.empty((hop.rounds, n))
    total = hop.rounds * hop.R / hop.M
    slope = hop.slope
    start = _PartialStart(n)
    later = floor.min() > -math.inf      # only a hop with a floor can stop early
    with np.errstate(divide="ignore"):   # a gain that underflows to 0
        for k, (row, (scale, x)) in enumerate(zip(lnx, _draw_rounds(hop, gen, n)), 1):
            np.log(x, out=row)
            start.add(row)
            if k == 1:
                shift = math.log(hop.drive_power * scale)
                if later:
                    # a start below bar maps below floor - _CROSSING_MARGIN_DB
                    bar = (floor - _CROSSING_MARGIN_DB) * slope + shift
            if later and k < hop.rounds:
                u = start.bound(total)
                if (u < bar).all():
                    lnx = lnx[:k]
                    break
        else:
            u = start.bound(total)
    # a start of +inf (every gain 0) is the root already
    solve = np.isfinite(u) & ((u - shift) / slope > floor)
    _critical_log_drive(lnx, total, u, np.flatnonzero(solve), where)
    u -= shift
    u /= slope
    return u


def _critical_offsets(mesh: MeshNetwork, mc: McConfig) -> np.ndarray:
    """Per trial, the largest dB offset of every drive at which the mesh
    fails: a hop fails iff the offset is <= its own critical offset, a
    route iff it is <= the max over the route's hops (-inf: no hop failed),
    and the mesh iff it is <= the min over its routes (+inf: every route
    failed).  The draws are those of `simulate_mesh`.  Each hop solves only
    the trials it could raise its route's max on.
    """
    out = np.full(mc.trials, math.inf)
    for start, n, routes in _substreams(mesh.routes, mc):
        mesh_c = out[start:start + n]
        for r, hops in enumerate(routes):
            route_c = np.full(n, -math.inf)
            for j, (_, hop, gen) in enumerate(hops):
                c = _hop_critical_offsets(hop, gen, n, f"route {r}: hop {j}", route_c)
                np.maximum(route_c, c, out=route_c)
            np.minimum(mesh_c, route_c, out=mesh_c)
    return out


def _order_statistic_ci(n: int, target: float) -> tuple:
    """1-based ranks (l, u), counted from the largest, of the descending
    order statistics that bound the upper-`target` quantile with at least
    95% confidence whatever the distribution (David & Nagaraja 2003,
    section 7.1): B = #{c >= quantile} ~ Binomial(n, target), and
    P(l <= B < u) >= 0.95.  l = 0 or u = n + 1 when the sample is too small
    for that end.
    """
    sd = math.sqrt(n * target * (1.0 - target))
    ks = np.arange(max(0, math.floor(n * target - 10.0 * sd - 10.0)),
                   min(n, math.ceil(n * target + 10.0 * sd + 10.0)) + 1)
    cdf = binomial_cdf(ks, n, target)  # P(B <= k)
    low = ks[cdf <= 0.025]
    l = int(low[-1]) + 1 if low.size else 0
    u = int(ks[np.argmax(cdf >= 0.975)]) + 1
    return l, u


def _mc_crossing(desc: np.ndarray, target: float, lo: float, hi: float) -> float:
    """The solve's crossing from the critical offsets sorted descending."""
    n = desc.size
    # least k with k / n >= target, as the simulator's outage compares
    k = max(1, math.ceil(target * n))
    if (k - 1) / n >= target:
        k -= 1
    elif k / n < target:
        k += 1
    l, u = _order_statistic_ci(n, target)
    if l < 1 or u > n:
        ci_lo = f"{desc[u - 1]:.6g} dB" if u <= n else "-inf"
        ci_hi = f"{desc[l - 1]:.6g} dB" if l >= 1 else "+inf"
        raise McPrecisionError(
            f"MC crossing {desc[k - 1]:.6g} dB at target {target:g}: its 95% CI "
            f"[{ci_lo}, {ci_hi}] needs order statistics {l} and {u} of {n} "
            "trials, outside the sample; increase trials")
    return min(hi, max(lo, float(desc[k - 1]) - _CROSSING_MARGIN_DB))


def required_snr(target_outage: float, scenario, evaluator: str = "analytical",
                 bounds_db=(-30.0, 30.0), mc: McConfig | None = None,
                 rf_method: str = RF_LINEARIZED, fso_method: str = FSO_CLT,
                 theta: float = 1.0, tol_db: float = 0.01) -> float:
    """dB offset (applied to every hop's drive) at which outage == target.

    Outage decreases with power, so the bracket must satisfy
    outage(lo) >= target >= outage(hi), else `BracketError`; a bracket end
    that saturates a PA raises `SaturationError`.

    `evaluator="analytical"` bisects the closed forms (method tags as in
    `route_outage`) down to `tol_db`, which must be > 0.  `evaluator="mc"`
    needs `mc` and returns the exact empirical crossing of its `mc.trials`
    trials (`tol_db` does not apply): every trial's critical offset
    c comes from one pass over the draws of `simulate_mesh`, the MC outage
    at offset s is #{c >= s} / n, and the crossing is the k-th largest c
    with k the least count whose share reaches the target.  It is returned
    1e-9 dB low, a margin far above the float disagreement between c and
    the simulator's own arithmetic, so `simulate_mesh` at the result gives
    outage >= target and at the result + 1e-6 dB outage < target.  When the
    sample cannot hold both ends of the crossing's distribution-free 95%
    CI (a pair of order statistics of c), `McPrecisionError` says so with
    the CI.
    """
    if not 0.0 < target_outage < 1.0:
        raise ValueError(f"target_outage must be in (0,1), got {target_outage}")
    if evaluator not in ("analytical", "mc"):
        raise ValueError(f"evaluator must be 'analytical' or 'mc', got {evaluator!r}")
    if evaluator == "mc" and mc is None:
        raise ValueError("evaluator 'mc' requires an McConfig")
    if not tol_db > 0.0:
        # to 0 dB the bisection never ends, and to NaN it never starts
        raise ValueError(f"tol_db must be > 0, got {tol_db}")

    mesh = MeshNetwork((scenario,)) if isinstance(scenario, Route) else scenario
    lo, hi = float(bounds_db[0]), float(bounds_db[1])
    if not lo < hi:  # NaN fails this too
        raise ValueError(f"bounds_db must satisfy lo < hi, got {bounds_db}")

    def outage_at(offset_db) -> float:
        return mesh_outage(shift_scenario(mesh, offset_db), rf_method, fso_method,
                           theta).value

    if evaluator == "mc":
        # a bracket end past PA saturation raises as a per-point run would
        shift_scenario(mesh, lo)
        shift_scenario(mesh, hi)
        c = _critical_offsets(mesh, mc)
        n = c.size
        p_lo, p_hi = np.count_nonzero(c >= lo) / n, np.count_nonzero(c >= hi) / n
    else:
        p_lo, p_hi = outage_at(lo), outage_at(hi)
    if not (p_lo >= target_outage >= p_hi):
        raise BracketError(
            f"target {target_outage:g} not bracketed: outage({lo:g} dB)={p_lo:g}, "
            f"outage({hi:g} dB)={p_hi:g}")
    if evaluator == "mc":
        c.sort()
        return _mc_crossing(c[::-1], target_outage, lo, hi)
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if outage_at(mid) >= target_outage:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

