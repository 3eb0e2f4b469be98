"""Command-line tool: scenario configs in, CSV sweep tables / reports out.

Subcommands:
  outage-sweep   outage vs sweep variable for every configured evaluator
  rate-sweep     ergodic achievable rate vs sweep variable
  min-antennas   smallest RF antenna count meeting the route's rate target
  validate       analytic evaluators vs Monte Carlo on the configured grid

Each command is a generator of (line, status) rows over one sweep of the
grid: every point is built, the built meshes share one Monte Carlo pass, and
what a build, the MC pass or an evaluator raised becomes the message of each
row it reaches, with status ERROR.  The exit code is read off the statuses:
0 ok; 1 a validate FAIL row; 2 config or flags rejected, or --out not
writable; 3 an ERROR row (an evaluator error: NaN plus an error message);
4 a validate run with no PASS or FAIL row (it compared nothing).  Where
several apply, the first of 3, 1, 4 wins.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import __version__
from .analysis import (
    EVALUATORS,
    LOWER_BOUND,
    MONTE_CARLO,
    UPPER_BOUND,
    fso_ergodic_rate,
    method_pair,
    min_rf_antennas,
)
from .config import ConfigError, ScenarioConfig, load_config, mc_config
from .network import _caught, _each, _fastest_route, mesh_outages
from .simulate import _Z95, McConfig, simulate_sweep

OK, ERROR, PASS, FAIL, SKIP = "OK", "ERROR", "PASS", "FAIL", "SKIP"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sanitize(msg: str) -> str:
    return str(msg).replace(",", ";").replace("\n", " ")


def _report(cfg: ScenarioConfig, mc: McConfig, rows, *head):
    """(provenance, `head` and row lines; a Counter of the row statuses)."""
    rows = list(rows)
    lines = [f"# linkplan {__version__}", f"# config_sha256: {cfg.sha256}",
             f"# seed: {mc.seed}", *head]
    return lines + [line for line, _ in rows], Counter(status for _, status in rows)


def _csv(cfg: ScenarioConfig, mc: McConfig, header: str, rows):
    """The CSV of `rows` under `header`, and exit 3 if any row is an ERROR."""
    lines, statuses = _report(cfg, mc, rows, header)
    return lines, (3 if statuses[ERROR] else 0)


def _grid_points(cfg: ScenarioConfig, mc: McConfig, with_mc: bool = True):
    """(grid value as printed, (rf, fso, mesh), MC estimate) per sweep point,
    in grid order, each of the last two being the exception it raised if so.

    Every point is built first (`ScenarioConfig.point`); the built meshes
    then go through one `simulate_sweep` call, so a drive sweep shares one
    set of draws.  A point that fails to build carries its exception as its
    estimate too; if the MC pass raises, every built point carries that
    exception.  Without MC the estimate of a built point is None.
    """
    points = [_caught(cfg.point, g) for g in cfg.sweep_grid]
    built = [p[2] for p in points if not isinstance(p, Exception)]
    ests = _caught(simulate_sweep, built, mc) if with_mc else [None] * len(built)
    ests = iter([ests] * len(built) if isinstance(ests, Exception) else ests)
    for g, p in zip(cfg.sweep_grid, points):
        yield _fmt(g), p, p if isinstance(p, Exception) else next(ests)


def _outages(cfg: ScenarioConfig, mc: McConfig, with_mc: bool):
    """(grid value, {tag: outage estimate or the exception raised}) per sweep
    point: MONTE_CARLO's from the MC pass, and every analytic tag's, with its
    (rf_method, fso_method) pair (built once per run), from one
    `mesh_outages` call."""
    pairs = {t: method_pair(t) for t in cfg.evaluators if t in EVALUATORS}
    for g, point, ref in _grid_points(cfg, mc, with_mc):
        ests = (dict.fromkeys(pairs, point) if isinstance(point, Exception) else
                dict(zip(pairs, mesh_outages(point[2], list(pairs.values()), cfg.theta))))
        yield g, {MONTE_CARLO: ref, **ests}


def cmd_outage_sweep(cfg: ScenarioConfig, mc: McConfig):
    """Rows: sweep_var,method,outage,ci_halfwidth,error."""
    def rows():
        for g, ests in _outages(cfg, mc, MONTE_CARLO in cfg.evaluators):
            for tag in cfg.evaluators:
                est = ests[tag]
                if isinstance(est, Exception):
                    yield f"{g},{tag},nan,nan,{_sanitize(est)}", ERROR
                else:
                    yield f"{g},{tag},{_fmt(est.value)},{_fmt(est.ci_halfwidth)},", OK
    return _csv(cfg, mc, "sweep_var,method,outage,ci_halfwidth,error", rows())


def cmd_rate_sweep(cfg: ScenarioConfig, mc: McConfig):
    """Rows: sweep_var,rate_npcu,limiting_hop, the hop that limits the
    mesh's fastest route."""
    def rows():
        for g, point, _ in _grid_points(cfg, mc, with_mc=False):
            best = point if isinstance(point, Exception) else _caught(_fastest_route, point[2])
            if isinstance(best, Exception):
                yield f"{g},nan,error:{_sanitize(best)}", ERROR
            else:
                rate, route, hop = best
                kind, idx = cfg.routes[route][hop]
                yield f"{g},{_fmt(rate)},{kind}:{idx}", OK
    return _csv(cfg, mc, "sweep_var,rate_npcu,limiting_hop", rows())


def cmd_min_antennas(cfg: ScenarioConfig, mc: McConfig):
    """Rows: sweep_var,hop,epsilon,n_antennas,error.

    The rate target for each RF hop is the slowest FSO hop's ergodic rate
    (the antenna count at which the RF hop stops limiting the route); with no
    FSO hops the hop's own code rate R is the target.  A failing FSO rate
    names its hop, `fso:j: `.  FSO transmit powers must be explicit here: the
    default N-coupled power would depend on the antenna count being solved for.
    """
    if cfg.sweep_variable != "snr_db":
        raise ConfigError("sweep.variable: min-antennas requires 'snr_db'")
    for i, partner in enumerate(cfg.fso_coupling):
        if partner is not None:
            raise ConfigError(f"fso_hops[{i}].p_tx_db: min-antennas requires an "
                              "explicit transmit power")

    def rows():
        for g, point, _ in _grid_points(cfg, mc, with_mc=False):
            # None when there is no FSO hop: each RF hop then targets its own R
            target = point if isinstance(point, Exception) else _caught(
                lambda: min(_each("fso:", point[1], fso_ergodic_rate), default=None))
            for i, spec in enumerate(cfg.rf_hops):
                n = target if isinstance(target, Exception) else _caught(
                    min_rf_antennas, spec.fading.K, spec.fading.Omega, point[0][i].pa,
                    spec.R if target is None else target)
                if isinstance(n, Exception):
                    yield f"{g},rf:{i},{_fmt(spec.pa.epsilon)},nan,{_sanitize(n)}", ERROR
                else:
                    yield f"{g},rf:{i},{_fmt(spec.pa.epsilon)},{n},", OK
    return _csv(cfg, mc, "sweep_var,hop,epsilon,n_antennas,error", rows())


def cmd_validate(cfg: ScenarioConfig, mc: McConfig):
    """Analytic evaluators vs MC at every grid point, per the `validate`
    class of each tag's `EVALUATORS` row:

    estimates: within factor 1.5 of MC wherever MC is in [1e-3, 0.5]
    (SKIP outside); lower/upper bounds: correct side of MC within 3 sigma.
    A run in which no row passed or failed says so on stderr and, unless an
    evaluator raised, exits 4.
    """
    def rows():
        for g, ests in _outages(cfg, mc, with_mc=True):
            ref = ests[MONTE_CARLO]
            if isinstance(ref, Exception):
                yield f"point={g} status=ERROR detail={_sanitize(ref)}", ERROR
                continue
            sigma3 = 3.0 * ref.ci_halfwidth / _Z95
            for tag in cfg.evaluators:
                if tag == MONTE_CARLO:
                    continue
                est = ests[tag]
                if isinstance(est, Exception):
                    yield (f"point={g} method={tag} status=ERROR "
                           f"detail={_sanitize(est)}"), ERROR
                    continue
                head = (f"point={g} method={tag} mc={_fmt(ref.value)} "
                        f"mc_ci={_fmt(ref.ci_halfwidth)} value={_fmt(est.value)}")
                bound = EVALUATORS[tag].bound
                if bound == LOWER_BOUND:
                    ok, verdict_class = est.value <= ref.value + sigma3, bound
                elif bound == UPPER_BOUND:
                    ok, verdict_class = ref.value <= est.value + sigma3, bound
                elif not 1e-3 <= ref.value <= 0.5:
                    yield (f"{head} status=SKIP class=clt_factor_1.5 "
                           f"detail=mc_outside_[1e-3,0.5]"), SKIP
                    continue
                else:
                    factor = max(est.value / ref.value, ref.value / max(est.value, 1e-300))
                    ok, verdict_class = factor <= 1.5, f"clt_factor_1.5 factor={_fmt(factor)}"
                status = PASS if ok else FAIL
                yield f"{head} status={status} class={verdict_class}", status

    lines, count = _report(cfg, mc, rows())
    checked = count[PASS] + count[FAIL] + count[SKIP]
    lines.append(f"summary: checked={checked} passed={count[PASS]} "
                 f"failed={count[FAIL]} skipped={count[SKIP]}")
    if not count[PASS] + count[FAIL]:
        print(f"validate: no analytic value was compared with MC ({checked} checked, "
              f"{count[SKIP]} skipped)", file=sys.stderr)
    return lines, (3 if count[ERROR] else 1 if count[FAIL] else 4 if not count[PASS] else 0)


def _build_mc(cfg: ScenarioConfig, args) -> McConfig:
    return mc_config(cfg.mc_trials if args.trials is None else args.trials,
                     cfg.mc_seed if args.seed is None else args.seed)


_COMMANDS = {
    "outage-sweep": cmd_outage_sweep,
    "rate-sweep": cmd_rate_sweep,
    "min-antennas": cmd_min_antennas,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="linkplan",
        description="Outage / rate analysis of HARQ-assisted RF-FSO networks.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="scenario YAML path")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed")
    parser.add_argument("--trials", type=int, default=None, help="override mc.trials")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        mc = _build_mc(cfg, args)
        lines, code = _COMMANDS[args.command](cfg, mc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
