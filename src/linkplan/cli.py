"""Command-line tool: scenario configs in, CSV sweep tables / reports out.

Subcommands:
  outage-sweep   outage vs sweep variable for every configured evaluator
  rate-sweep     ergodic achievable rate vs sweep variable
  min-antennas   smallest RF antenna count meeting the route's rate target
  validate       analytic evaluators vs Monte Carlo on the configured grid

Exit codes: 0 ok; 1 validate-tolerance failures; 2 config or flags rejected,
or --out not writable; 3 evaluator errors (rows carry NaN plus an error
message); 4 a validate run that compared nothing (every check skipped).
Where several apply, the first of 3, 1, 4 wins.
"""
from __future__ import annotations

import argparse
import math
import sys

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
from .network import _fastest_route, mesh_outages
from .simulate import _Z95, McConfig, simulate_sweep


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _sanitize(msg: str) -> str:
    return str(msg).replace(",", ";").replace("\n", " ")


def _provenance(cfg: ScenarioConfig, seed: int):
    return [
        f"# linkplan {__version__}",
        f"# config_sha256: {cfg.sha256}",
        f"# seed: {seed}",
    ]


def _method_pairs(cfg: ScenarioConfig) -> dict:
    """{analytic tag: (rf_method, fso_method), the tag on the link kind it
    scores and the default tag on the other (`method_pair`)}, in evaluator
    order; a command builds it once for all its sweep points."""
    return {t: method_pair(t) for t in cfg.evaluators if t in EVALUATORS}


def _analytic_outages(point, pairs: dict, theta: float) -> dict:
    """{tag: mesh outage with the pair `pairs[tag]`, or the exception raised},
    from one `mesh_outages` call; an unbuilt point gives its exception to all."""
    if isinstance(point, Exception):
        return dict.fromkeys(pairs, point)
    return dict(zip(pairs, mesh_outages(point[2], list(pairs.values()), theta)))


def _apply(fn, point):
    """fn(point), or the exception that building the point or fn raised."""
    if isinstance(point, Exception):
        return point
    try:
        return fn(point)
    except Exception as exc:
        return exc


def _grid_points(cfg: ScenarioConfig, mc: McConfig, with_mc: bool = True):
    """(grid value, (rf, fso, mesh), MC estimate) per sweep point, in grid order.

    Every point is built first (`ScenarioConfig.point`); the built meshes
    then go through one `simulate_sweep` call, so a drive sweep shares one
    set of draws.  A point that fails to build carries its exception as both
    point and estimate; if the MC pass raises, every built point carries that
    exception.  Without MC the estimate of a built point is None.
    """
    points = [_apply(cfg.point, g) for g in cfg.sweep_grid]
    built = [p[2] for p in points if not isinstance(p, Exception)]
    ests = [None] * len(built)
    if with_mc:
        try:
            ests = simulate_sweep(built, mc)
        except Exception as exc:
            ests = [exc] * len(built)
    ests = iter(ests)
    return [(g, p, p if isinstance(p, Exception) else next(ests))
            for g, p in zip(cfg.sweep_grid, points)]


def cmd_outage_sweep(cfg: ScenarioConfig, mc: McConfig):
    """Rows: sweep_var,method,outage,ci_halfwidth,error."""
    lines = _provenance(cfg, mc.seed)
    lines.append("sweep_var,method,outage,ci_halfwidth,error")
    had_error = False
    pairs = _method_pairs(cfg)
    for g, point, ref in _grid_points(cfg, mc, MONTE_CARLO in cfg.evaluators):
        ests = _analytic_outages(point, pairs, cfg.theta)
        for tag in cfg.evaluators:
            est = ref if tag == MONTE_CARLO else ests[tag]
            if isinstance(est, Exception):
                lines.append(f"{_fmt(g)},{tag},nan,nan,{_sanitize(est)}")
                had_error = True
            else:
                lines.append(f"{_fmt(g)},{tag},{_fmt(est.value)},"
                             f"{_fmt(est.ci_halfwidth)},")
    return lines, (3 if had_error else 0)


def _limiting_hop(cfg: ScenarioConfig, mesh):
    """(rate, limiting hop reference) of the mesh's fastest route."""
    rate, route, hop = _fastest_route(mesh)
    kind, idx = cfg.routes[route][hop]
    return rate, f"{kind}:{idx}"


def cmd_rate_sweep(cfg: ScenarioConfig, mc: McConfig):
    """Rows: sweep_var,rate_npcu,limiting_hop."""
    lines = _provenance(cfg, mc.seed)
    lines.append("sweep_var,rate_npcu,limiting_hop")
    had_error = False
    for g, point, _ in _grid_points(cfg, mc, with_mc=False):
        best = _apply(lambda p: _limiting_hop(cfg, p[2]), point)
        if isinstance(best, Exception):
            lines.append(f"{_fmt(g)},nan,error:{_sanitize(best)}")
            had_error = True
        else:
            lines.append(f"{_fmt(g)},{_fmt(best[0])},{best[1]}")
    return lines, (3 if had_error else 0)


def cmd_min_antennas(cfg: ScenarioConfig, mc: McConfig):
    """Rows: sweep_var,hop,epsilon,n_antennas,error.

    The rate target for each RF hop is the slowest FSO hop's ergodic rate
    (the antenna count at which the RF hop stops limiting the route); with no
    FSO hops the hop's own code rate R is the target.  FSO transmit powers
    must be explicit here: the default N-coupled power would depend on the
    antenna count being solved for.
    """
    if cfg.sweep_variable != "snr_db":
        raise ConfigError("sweep.variable: min-antennas requires 'snr_db'")
    for i, partner in enumerate(cfg.fso_coupling):
        if partner is not None:
            raise ConfigError(f"fso_hops[{i}].p_tx_db: min-antennas requires an "
                              "explicit transmit power")
    lines = _provenance(cfg, mc.seed)
    lines.append("sweep_var,hop,epsilon,n_antennas,error")
    had_error = False
    for g, point, _ in _grid_points(cfg, mc, with_mc=False):
        # None when there is no FSO hop: each RF hop then targets its own R
        target = _apply(lambda p: min((fso_ergodic_rate(h) for h in p[1]), default=None),
                        point)
        for i, spec in enumerate(cfg.rf_hops):
            n = _apply(lambda t: min_rf_antennas(spec.fading.K, spec.fading.Omega,
                                                 point[0][i].pa,
                                                 spec.R if t is None else t), target)
            if isinstance(n, Exception):
                lines.append(f"{_fmt(g)},rf:{i},{_fmt(spec.pa.epsilon)},nan,"
                             f"{_sanitize(n)}")
                had_error = True
            else:
                lines.append(f"{_fmt(g)},rf:{i},{_fmt(spec.pa.epsilon)},{n},")
    return lines, (3 if had_error else 0)


def cmd_validate(cfg: ScenarioConfig, mc: McConfig):
    """Analytic evaluators vs MC at every grid point, per the `validate`
    class of each tag's `EVALUATORS` row:

    estimates: within factor 1.5 of MC wherever MC is in [1e-3, 0.5]
    (SKIP outside); lower/upper bounds: correct side of MC within 3 sigma.
    A run in which no row passed or failed says so on stderr and, unless an
    evaluator raised, exits 4.
    """
    lines = _provenance(cfg, mc.seed)
    checked = passed = failed = skipped = 0
    had_error = False
    pairs = _method_pairs(cfg)
    analytic = [t for t in cfg.evaluators if t in pairs]
    for g, point, ref in _grid_points(cfg, mc):
        if isinstance(ref, Exception):
            lines.append(f"point={_fmt(g)} status=ERROR detail={_sanitize(ref)}")
            had_error = True
            continue
        sigma3 = 3.0 * ref.ci_halfwidth / _Z95
        ests = _analytic_outages(point, pairs, cfg.theta)
        for tag in analytic:
            est = ests[tag]
            if isinstance(est, Exception):
                lines.append(f"point={_fmt(g)} method={tag} status=ERROR "
                             f"detail={_sanitize(est)}")
                had_error = True
                continue
            checked += 1
            head = (f"point={_fmt(g)} method={tag} mc={_fmt(ref.value)} "
                    f"mc_ci={_fmt(ref.ci_halfwidth)} value={_fmt(est.value)}")
            bound = EVALUATORS[tag].bound
            if bound == LOWER_BOUND:
                ok, verdict_class = est.value <= ref.value + sigma3, bound
            elif bound == UPPER_BOUND:
                ok, verdict_class = ref.value <= est.value + sigma3, bound
            elif not 1e-3 <= ref.value <= 0.5:
                lines.append(f"{head} status=SKIP class=clt_factor_1.5 "
                             f"detail=mc_outside_[1e-3,0.5]")
                skipped += 1
                continue
            else:
                factor = max(est.value / ref.value, ref.value / max(est.value, 1e-300))
                ok, verdict_class = factor <= 1.5, f"clt_factor_1.5 factor={_fmt(factor)}"
            lines.append(f"{head} status={'PASS' if ok else 'FAIL'} class={verdict_class}")
            passed += ok
            failed += not ok
    lines.append(f"summary: checked={checked} passed={passed} failed={failed} "
                 f"skipped={skipped}")
    if not passed + failed:
        print(f"validate: no analytic value was compared with MC ({checked} checked, "
              f"{skipped} skipped)", file=sys.stderr)
    if had_error:
        return lines, 3
    return lines, (1 if failed else 4 if not passed else 0)


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
