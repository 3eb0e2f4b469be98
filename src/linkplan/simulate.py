"""Monte Carlo ground truth for hop / route / mesh outage.

Trials are partitioned into fixed-size blocks; block b of hop j (hops
numbered across routes) draws from substream (seed, b, j).  Every estimate
spends exactly `mc.trials` trials, so it is a bit-reproducible function of
the mesh, `mc.trials` and `mc.seed` alone.  Both passes below walk the
substreams with `_substreams`, draw and use each round TILE_TRIALS trials
at a time (the law's `tiles`), and fold hop -> route -> mesh alike: a route
fails when any hop fails, the mesh when every route does.  A hop is read
only through the fields both kinds share (`law`, `rounds`, `drive_power`,
`slope`), never by its class, and its law only through `scale` and `tiles`.

No draw depends on drive power, so `simulate_sweep` scores a whole drive
sweep (meshes equal but for their drives) from one set of draws, each point
bit-identical to simulating it alone.  Over n = min(trials, BLOCK_TRIALS)
trials and K points a pass holds a float64 accumulator of 8 * K * n bytes
(at most 8 * PASS_FLOATS), a Gamma product's first factor of 8 * n bytes,
K * n / 8 bytes of mesh failure mask (twice that with two routes) and a few
tiles.

The MC `required_snr` makes one pass over the same draws and gives every
trial its critical dB offset c, the largest common drive offset at which
the mesh fails, so the MC outage at any offset s is #{c >= s} / trials and
the solve returns the exact crossing.  Each hop and trial starts from a
cheap upper bound on its own offset; Newton refines it only where that
bound could raise the max over the route's earlier hops, so a hop that
never limits its route costs its draws and the bound.  The solve reads
only the r largest offsets, r from the crossing's rank and its CI's, so in
each block the first hop of the mesh's last route takes as its floor a cut
read off that block alone, at most the block's r-th largest offset and so
the whole sample's: a trial whose bound stays at or below the cut gets a
value at or below it, and every value above it is exact.  That pass holds
one hop's draws, rounds floats a trial, six more float arrays of the
trials (the mesh's and the route's offsets, the hop's running sum, max,
stop bar and start), which also cover the cut's key and index, and a few
tiles while it draws or three (rounds x CRITICAL_CHUNK) Newton temporaries.
A hop drawn ahead (below) adds its draws, rounds floats a trial in a memory
map of their own, and a tile.

Each pass opens one `_Helper`: a second thread, started at its first task
where the process may run on two CPUs or more, that runs one task at a
time under the caller's errstate while the caller goes on (numpy releases
the GIL in the draws and the arithmetic).  The sweep, when a block spans more than one
tile, hands it the scoring of each tile at every drive while it draws the
next.  The critical pass, on a mesh of two or more routes, hands it the
draws of route r + 1's first hop, a hop with no floor whose rounds are all
drawn, while it solves route r, as long as both hops' draws fit in
PASS_FLOATS.  No draw, order or sum changes, so no result depends on the
helper.

Both passes stop drawing a hop's rounds once no later round can change a
result: the sweep kernel once every trial has decoded at every drive, the
critical pass once no trial's bound can reach above its route's floor.
Later rounds only add terms >= 0 to a trial's log-rate sum, and nothing
else draws from the hop's substream, so every result is the same to the
bit as with every round drawn.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .analysis import FSO_CLT, MONTE_CARLO, RF_LINEARIZED, OutageEstimate
from .channel import TILE_TRIALS
from .network import MeshNetwork, Route, mesh_outage, shift_scenario
from .specfun import ConvergenceError

BLOCK_TRIALS = 1 << 20
# most float64 accumulator cells one kernel pass holds (64 MiB), beside a
# Gamma product's first factor, the packed failure masks and a few tiles; a
# longer drive sweep takes further passes over the same substreams.  Also
# the most draws (ln X floats) the critical pass holds at once: it draws the
# next route's first hop ahead only while that hop's draws and those of each
# hop of the route it solves fit together in this many
PASS_FLOATS = 8 * BLOCK_TRIALS

# two-sided 95% normal quantile: the Wilson interval's z, and the factor
# `validate` divides an MC half-width by to get its sigma
_Z95 = 1.959963984540054

# trials per Newton chunk of the MC required_snr pass: bounds its three
# (rounds x chunk) temporaries, 480 KB at 10 rounds, small enough for a
# core's L2 cache and for the pass's peak memory at 2e4 trials
CRITICAL_CHUNK = 2048
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


def _cpus() -> int:
    """The CPUs this process may run on, or the machine's where the OS
    cannot say (`os.sched_getaffinity` is Linux-only)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _serve(todo, done, slot) -> None:
    """The helper thread: each time `todo` is released, run the (fn, args,
    errstate) task in slot[0] under the caller's errstate, put (its result,
    None) or (None, what it raised) in slot[1] and release `done`; end on a
    release with no task."""
    while True:
        todo.acquire()
        if slot[0] is None:
            return
        fn, args, err = slot[0]
        slot[0] = None
        try:
            with np.errstate(**err):
                slot[1] = fn(*args), None
        except BaseException as e:  # raised again in the caller
            slot[1] = None, e
        del fn, args  # no task's arrays outlive its completion
        done.release()


class _Helper:
    """A pass's second thread, one task at a time: `submit(fn, *args)`
    collects the task in flight, then hands fn(*args) over to run under the
    caller's `np.errstate`; `collect()` waits for it and returns its result
    or raises again what it raised (None with no task in flight).

    Made with `wanted` on a process that may run on two CPUs or more, it
    starts one daemon thread at the first hand-off, and raw locks hand the
    tasks over (a `queue` import would cost more memory than the thread).
    Otherwise `threaded` is False and submit runs fn in the caller.  A
    clean exit or an ordinary exception lets the task in flight finish,
    drops its error, so that the caller's own error wins, and joins the
    thread.  An interrupt with a task in flight leaves the thread to finish
    it and wait, idle, on locks no later pass shares.
    """

    def __init__(self, wanted: bool):
        self.threaded = wanted and _cpus() >= 2
        self.thread = None
        self.pending = False  # a task handed over and not yet collected

    def __enter__(self) -> _Helper:
        return self

    def submit(self, fn, *args) -> None:
        if not self.threaded:
            fn(*args)
            return
        if self.thread is None:
            import threading
            self.todo, self.done, self.slot = threading.Lock(), threading.Lock(), [None, None]
            self.todo.acquire()
            self.done.acquire()
            thread = threading.Thread(target=_serve, args=(self.todo, self.done, self.slot),
                                      daemon=True, name="linkplan-helper")
            thread.start()
            self.thread = thread  # joined on exit once started
        self.collect()
        self.pending = True
        self.slot[0] = fn, args, np.geterr()
        self.todo.release()

    def collect(self):
        if not self.pending:
            return None
        self.done.acquire()
        self.pending = False
        (result, error), self.slot[1] = self.slot[1], None
        if error is not None:
            raise error
        return result

    def __exit__(self, kind, *_) -> None:
        if self.pending and issubclass(kind or Exception, Exception):
            self.done.acquire()  # the task in flight ends; its error is dropped
            self.pending, self.slot[1] = False, None
        if self.thread is not None and not self.pending:
            self.todo.release()  # with no task: stop
            self.thread.join()


def _hop_failures(hop, drives, gen: np.random.Generator, acc: np.ndarray,
                  out: np.ndarray, helper: _Helper) -> None:
    """OR the hop's outage indicator at drive drives[i] into out[i], a mask
    packed 8 trials to a byte in `np.packbits` order.

    Each round's unscaled gain X is drawn once, a tile at a time, and each
    tile is scored at every drive (on the `helper`, while the next is drawn),
    the last round's with its failures: acc[i] += log1p((drives[i] * scale)
    * X), the arithmetic of a one-drive run, so every row is bit-identical
    to its drive alone.

    The hop stops drawing once every trial has decoded at every drive, each
    row's min / rounds > R / M, and ORs in nothing: a later round adds a
    log1p term >= 0, which never lowers a float sum, and the division is
    monotone, so no trial could fail after all.
    """
    acc.fill(0.0)
    rounds, threshold, scale = hop.rounds, hop.R / hop.M, hop.law.scale
    n = acc.shape[1]
    tmp = np.empty(min(TILE_TRIALS, n))  # a tile's SNRs, then log-rates

    def score(lo, x):
        t = tmp[:x.size]
        for row, p, fail in zip(acc[:, lo:lo + x.size], drives, out[:, lo // 8:]):
            row += np.log1p(np.multiply(x, p * scale, out=t), out=t)
            if r == rounds:
                np.divide(row, rounds, out=t)
                fail[:-(-x.size // 8)] |= np.packbits(t <= threshold)

    for r in range(1, rounds + 1):
        for tile in hop.law.tiles(gen, n):
            helper.submit(score, *tile)
        del tile  # no tile outlives its round
        helper.collect()
        if all(row.min() / rounds > threshold for row in acc):
            return


def _simulate(points, mc: McConfig) -> list:
    """Blocked MC over points (each a tuple of parallel routes) that share
    one layout and differ only in drive powers; a trial fails at a point when
    every route has a failed hop.  Every point counts all `mc.trials`.
    """
    drives = np.array([[hop.drive_power for route in pt for hop in route.hops]
                       for pt in points])
    width = min(BLOCK_TRIALS, mc.trials)
    acc = np.empty((len(points), width))
    # failure masks, 8 trials to a byte; packbits leaves a short tail's bits 0
    mesh_buf = np.empty((len(points), -(-width // 8)), dtype=np.uint8)
    route_buf = np.empty_like(mesh_buf) if len(points[0]) > 1 else None
    failures = np.zeros(len(points), dtype=np.int64)
    with _Helper(width > TILE_TRIALS) as helper:
        for _, n, routes in _substreams(points[0], mc):
            mesh_fail = mesh_buf[:, :-(-n // 8)]
            for r, hops in enumerate(routes):
                # a route starts with no hop failed; the first route's
                # failures are the mesh's until a later route ANDs its own in
                route_fail = route_buf[:, :mesh_fail.shape[1]] if r else mesh_fail
                route_fail.fill(0)
                for j, hop, gen in hops:
                    _hop_failures(hop, drives[:, j], gen, acc[:, :n], route_fail, helper)
                if r:
                    mesh_fail &= route_fail
            failures += [np.count_nonzero(np.unpackbits(row)) for row in mesh_fail]
    return [OutageEstimate(f / mc.trials, MONTE_CARLO, wilson_halfwidth(f, mc.trials))
            for f in failures.tolist()]


def simulate_sweep(meshes, mc: McConfig) -> list:
    """MC outage of every mesh, in order, each bit-identical to
    `simulate_mesh`.

    Meshes that differ only in drive power (an `snr_db` sweep) share one set
    of draws: each hop-round gain is drawn once and scored at every drive.
    Other meshes fall back to a pass of their own.  A pass holds what the
    module docstring lists; points beyond PASS_FLOATS go into further passes.
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
        for lo in range(0, out.size, TILE_TRIALS):  # no total - max of all trials
            tile = out[lo:lo + TILE_TRIALS]
            np.fmin(tile, total - self.max[lo:lo + TILE_TRIALS], out=tile)
        return out


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


def _largest(x: np.ndarray, k: int) -> np.ndarray:
    """The k largest values of x, in no order (all of x when it has fewer)."""
    return np.partition(x, x.size - k)[x.size - k:] if x.size > k else x


def _log_rows(hop, gen: np.random.Generator, lnx: np.ndarray):
    """Each row of lnx in turn, once it holds ln X of its round, the rounds
    drawn as `_hop_failures` draws them: a product's first factor is drawn
    into the row that takes ln X."""
    for row in lnx:
        for lo, x in hop.law.tiles(gen, lnx.shape[1], row):
            with np.errstate(divide="ignore"):  # a gain that underflows to 0
                np.log(x, out=row[lo:lo + x.size])
        del x  # no tile outlives its round
        yield row


def _draw_ahead(hop, gen: np.random.Generator, n: int) -> np.ndarray:
    """Every round's ln X of the hop's n trials, drawn as `_log_rows` draws
    them, in an anonymous memory map of their own: it goes back to the OS
    once the rows are dropped, where from malloc they stayed resident or
    made later passes fault their pages in again."""
    import mmap
    lnx = np.frombuffer(mmap.mmap(-1, 8 * hop.rounds * n)).reshape(hop.rounds, n)
    for _ in _log_rows(hop, gen, lnx):
        pass
    return lnx


def _hop_critical_offsets(hop, gen: np.random.Generator, n: int, where: str,
                          floor, cut: tuple | None = None,
                          lnx: np.ndarray | None = None) -> np.ndarray:
    """Per trial, max(floor, c), c the dB drive offset at or below which the
    hop fails: the route's running max when `floor` is the max of c over
    the route's earlier hops (the scalar -inf before its first), or higher.

    The rounds are drawn as `_hop_failures` draws them.  The hop fails at
    offset s iff sum_r log1p(p(s) * scale * X_r) <= rounds * R / M, and
    u = ln(p(s) * scale) rises linearly in s with the hop's `slope` from
    shift, the u of offset 0 dB, so a trial's offset is (u - shift) / slope
    at its root u.  Each trial starts from `_PartialStart.bound`, which
    bounds the root from above, and a trial whose start maps to an offset at
    or below its floor keeps it: neither it nor the solved c can raise the
    max above the floor.  Newton solves only the others.

    A hop with a finite floor and more than one round stops drawing once the
    start of the rounds drawn so far maps every trial at least
    _CROSSING_MARGIN_DB below its floor.  Later rounds add terms >= 0, so
    the partial sum's root lies at or right of the full sum's; the margin
    dwarfs the float error of Newton's root, so with every round drawn each
    trial's offset would still map at or below its floor.

    With cut = (prior, rank), the hop is the first of a mesh's last route
    and raises its floor to a cut t: prior is the min of the block's
    earlier routes' offsets (+inf for none).  Newton first solves the
    `rank` trials whose key, min(prior, start), is highest.  A route's
    offset is at least its first hop's, so each of them has a mesh offset
    >= min(prior, c), and t, the `rank`-th largest of those, is at most the
    block's `rank`-th largest offset, and so at most the whole sample's.
    Every other trial is solved only where its key exceeds t: the rest keep
    their start, which is at or below t, or lies behind a prior at or below
    t that caps their mesh offset.  A block of fewer than `rank` trials
    takes no cut.

    `lnx`, if given, holds every round's ln X, drawn ahead from `gen` as
    here (`_draw_ahead`), and the rounds are taken in from it in turn.
    """
    drawn = lnx is not None
    if not drawn:
        lnx = np.empty((hop.rounds, n))
    total = hop.rounds * hop.R / hop.M
    shift = math.log(hop.drive_power * hop.law.scale)
    start = _PartialStart(n)
    bar = None
    if hop.rounds > 1 and np.min(floor) > -math.inf:
        # a start below bar maps below floor - _CROSSING_MARGIN_DB
        bar = (floor - _CROSSING_MARGIN_DB) * hop.slope + shift
    for k, row in enumerate(lnx if drawn else _log_rows(hop, gen, lnx), 1):
        start.add(row)
        if bar is not None and k < hop.rounds:
            u = start.bound(total)
            # tile by tile: no bool array of the trials
            if all((u[lo:lo + TILE_TRIALS] < bar[lo:lo + TILE_TRIALS]).all()
                   for lo in range(0, n, TILE_TRIALS)):
                lnx = lnx[:k]
                break
            del u  # the next round's start takes its place
    else:
        u = start.bound(total)
    del start, bar  # the draw phase's arrays, out of Newton's peak
    key = (u - shift) / hop.slope  # the offset each start maps to
    if cut is not None:
        prior, rank = cut
        np.minimum(prior, key, out=key)
        below = n - min(rank, n)
        first = np.sort(np.argpartition(key, below)[below:])
        _critical_log_drive(lnx, total, u, first[np.isfinite(u[first])], where)
        reached = np.minimum(prior[first], (u[first] - shift) / hop.slope)
        floor = reached.min() if reached.size == rank else -math.inf
        key[first] = -math.inf  # solved already
    solve = key > floor
    del key  # out of Newton's peak
    solve &= np.isfinite(u)  # a start of +inf (every gain 0) is the root already
    _critical_log_drive(lnx, total, u, np.flatnonzero(solve), where)
    u -= shift
    u /= hop.slope
    return np.maximum(u, floor, out=u)


def _critical_offsets(mesh: MeshNetwork, mc: McConfig, rank: int | None = None) -> np.ndarray:
    """Per trial, the largest dB offset of every drive at which the mesh
    fails: a hop fails iff the offset is <= its own critical offset, a
    route iff it is <= the max over the route's hops (-inf: no hop failed),
    and the mesh iff it is <= the min over its routes (+inf: every route
    failed).  The draws are those of `simulate_mesh`.  Each hop solves only
    the trials it could raise its route's max on.

    With a `rank` r, the last route's first hop of each block takes as its
    floor a cut t read off that block alone (`_hop_critical_offsets`), and
    so do its later hops through the route's max.  A trial with an offset
    above t gets it exactly; any other gets a value at or below t, where
    its own offset lies too.  So the r largest values, and every value
    above t, equal the uncut ones bit for bit, while a value at or below t
    may stand above its trial's offset.  The memory held is that without
    a rank (module docstring).

    On a mesh of two or more routes, while route r of a block is solved,
    the `_Helper` draws the first hop of route r + 1 (`_draw_ahead`), as
    long as its draws and those of each hop of route r fit in PASS_FLOATS.
    The draws and sums are the serial pass's, so every offset is too.  A
    draw error there is raised where route r + 1 begins, as the serial pass
    raises it; an error in route r wins.
    """
    out = np.full(mc.trials, math.inf)
    with _Helper(len(mesh.routes) > 1) as helper:
        for start, n, routes in _substreams(mesh.routes, mc):
            mesh_c = out[start:start + n]
            for r, hops in enumerate(routes):
                # the ln X of the route's first hop if drawn ahead: any
                # error of those draws is raised here, where route r draws
                drawn = helper.collect()
                if helper.threaded and r + 1 < len(routes):
                    _, first, gen = routes[r + 1][0]
                    if (first.rounds + max(hop.rounds for _, hop, _ in hops)) * n <= PASS_FLOATS:
                        helper.submit(_draw_ahead, first, gen, n)
                route_c = -math.inf
                for j, (_, hop, gen) in enumerate(hops):
                    cut_hop = rank is not None and (r, j) == (len(routes) - 1, 0)
                    cut = (mesh_c, rank) if cut_hop else None
                    route_c = _hop_critical_offsets(hop, gen, n, f"route {r}: hop {j}",
                                                    route_c, cut, drawn)
                    drawn = None
                np.minimum(mesh_c, route_c, out=mesh_c)
    return out


def _crossing_ranks(n: int, target: float) -> tuple:
    """(k, l, u), counted from the largest offset: the crossing's rank k,
    the least k with k / n >= target as the simulator compares its outage,
    and the ranks l and u of the descending order statistics that bound the
    upper-`target` quantile with at least 95% confidence whatever the
    distribution (David & Nagaraja 2003, section 7.1): B = #{c >= quantile}
    ~ Binomial(n, target), and P(l <= B < u) >= 0.95.  l = 0 or u = n + 1
    when the sample is too small for that end.

    B's CDF is read over n * target +- (10 sd + 10), from mass ratios at
    the mode normalized by their own sum: the mass outside the window is
    far below the float error of the 2.5% tails.
    """
    k = max(1, math.ceil(target * n))
    if (k - 1) / n >= target:
        k -= 1
    elif k / n < target:
        k += 1
    q = 1.0 - target
    sd = math.sqrt(n * target * q)
    ks = np.arange(max(0, math.floor(n * target - 10.0 * sd - 10.0)),
                   min(n, math.ceil(n * target + 10.0 * sd + 10.0)) + 1)
    mode = math.floor((n + 1) * target)  # inside the window
    up = np.arange(mode, ks[-1], dtype=float)      # P(i + 1) / P(i)
    down = np.arange(mode, ks[0], -1, dtype=float)  # P(i - 1) / P(i)
    mass = np.concatenate((np.cumprod(down / (n - down + 1.0) * (q / target))[::-1], [1.0],
                           np.cumprod((n - up) / (up + 1.0) * (target / q))))
    cdf = np.cumsum(mass)
    cdf /= cdf[-1]  # P(B <= k) at each k of ks
    low = ks[cdf <= 0.025]
    l = int(low[-1]) + 1 if low.size else 0
    u = int(ks[np.argmax(cdf >= 0.975)]) + 1
    return k, l, u


def _bracket_error(target: float, lo: float, hi: float, p_lo: float,
                   p_hi: float) -> BracketError:
    """The error of a bracket whose ends' outages p_lo and p_hi miss the target."""
    return BracketError(f"target {target:g} not bracketed: outage({lo:g} dB)={p_lo:g}, "
                        f"outage({hi:g} dB)={p_hi:g}")


def _required_snr_mc(mesh: MeshNetwork, mc: McConfig, target: float, lo: float,
                     hi: float) -> float:
    """The MC `required_snr`: the exact crossing of the `mc.trials` critical
    offsets c, the k-th largest, k = `_crossing_ranks(n, target)`[0].

    The pass solves only what the r = min(n, max(k + 1, u)) largest c need
    (`_critical_offsets` with a rank), so the bracket is tested on order
    statistics: outage(lo) >= target iff the k-th largest c reaches lo, and
    outage(hi) <= target iff the one past the most failures whose share
    stays <= target falls below hi.  The crossing and the CI are ranks <= r,
    so every value returned or printed is the uncut one; a `BracketError`
    counts its two outages on offsets computed again without the cut.
    """
    # a bracket end past PA saturation raises as a per-point run would
    shift_scenario(mesh, lo)
    shift_scenario(mesh, hi)
    n = mc.trials
    k, l, u = _crossing_ranks(n, target)
    rank = min(n, max(k + 1, u))
    desc = np.sort(_largest(_critical_offsets(mesh, mc, rank), rank))[::-1]
    fewer = k if k / n <= target else k - 1
    if not (desc[k - 1] >= lo and desc[fewer] < hi):
        # an end's count below the cut is not exact: count uncut offsets
        c = _critical_offsets(mesh, mc)
        raise _bracket_error(target, lo, hi, np.count_nonzero(c >= lo) / n,
                             np.count_nonzero(c >= hi) / n)
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
    CI (a pair of order statistics of c, ranks l <= u), `McPrecisionError`
    says so with the CI.  How the pass spares work is told in
    `_required_snr_mc`.
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
    if evaluator == "mc":
        return _required_snr_mc(mesh, mc, target_outage, lo, hi)

    def outage_at(offset_db) -> float:
        return mesh_outage(shift_scenario(mesh, offset_db), rf_method, fso_method,
                           theta).value

    p_lo, p_hi = outage_at(lo), outage_at(hi)
    if not p_lo >= target_outage >= p_hi:
        raise _bracket_error(target_outage, lo, hi, p_lo, p_hi)
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if outage_at(mid) >= target_outage:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
