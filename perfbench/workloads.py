"""Benchmark workloads: scenario YAML generated from the seed, and job lists.

The seed reaches the program only through the generated inputs: it is the
`mc.seed` of every scenario and the seed of every `McConfig` the solves
build.  Grids, meshes and trial counts are fixed, so every seed does the
same amount of work and closed-form outputs do not depend on the seed.

A job is one call into a public entry point: `linkplan.cli.main` for a CLI
command, `linkplan.simulate.required_snr` for a solve.  Entry points are
looked up on their modules at call time, so the traced run's wrappers see
every call.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

ANALYTIC_TAGS = [
    "rf_low_snr_clt", "rf_piecewise_clt", "rf_linearized_clt", "rf_single_shot",
    "rf_jensen_lower", "rf_jensen_upper", "fso_clt", "fso_product_bound",
]

# the README scenario's hops
README_RF = ("{K: 2.0, omega: 1.0, N: 40, M: 2, C: 5, R: 2.0,\n"
             "     pa: {epsilon: 0.75, theta_pa: 0.5, p_max_db: 25.0, p_cons_db: 0.0}}")
README_GG = "{model: gamma_gamma, a: 4.3939, b: 2.5636, M: 2, C_tilde: 5, R: 2.0}"


def _scenario(rf_hops, fso_hops, routes, grid, evaluators, trials, seed):
    def items(xs):
        return "".join(f"  - {x}\n" for x in xs)

    route_lines = "".join(
        "  - [" + ", ".join(f'"{r}"' for r in route) + "]\n" for route in routes)
    return (
        f"rf_hops:\n{items(rf_hops)}"
        f"fso_hops:\n{items(fso_hops)}"
        f"routes:\n{route_lines}"
        f"sweep: {{variable: snr_db, grid: [{', '.join(repr(g) for g in grid)}]}}\n"
        f"evaluators: [{', '.join(evaluators)}]\n"
        f"mc: {{trials: {trials}, seed: {seed}}}\n"
        "analysis: {theta: 1.0}\n"
    )


@dataclass(frozen=True)
class Job:
    label: str          # the CLI subcommand, or a unique name for a solve
    command: str        # per-command timing key
    config: str         # scenario file name ("" for the README library call)
    solve: dict = field(default_factory=dict)  # required_snr arguments


@dataclass
class Workload:
    name: str
    files: dict         # scenario file name -> YAML text
    jobs: list


# MC outage at the README grid falls from 0.98 to 4e-5 across 6.76-7.26 dB.
WATERFALL_GRID = [6.76, 6.86, 6.96, 7.06, 7.16, 7.26]
WATERFALL_TRIALS = 100_000

CLOSED_FORM_GRID = [6.0, 6.2, 6.4, 6.6, 6.8, 7.0, 7.2, 7.4, 7.6, 7.8, 8.0, 8.2]

SOLVE_TRIALS = 20_000
SOLVE_TARGETS = (1e-1, 1e-2)
# tol_db per evaluator: required_snr's default for the closed forms; for MC a
# wider one, as required_snr tests MC precision while hi - lo > 4 * tol_db
SOLVE_TOL_DB = {"analytical": 0.01, "mc": 0.05}
# Seed-averaged MC crossing (dB offset) per scenario and target.  Each solve
# brackets it as (c - 1, c + 2): the crossing sits at a third of the bracket,
# so every bisection midpoint at which required_snr tests MC precision lies
# at least 0.06 dB from it, ten times the crossing's spread over seeds, and
# McPrecisionError cannot fire on any seed.
SOLVE_CROSSINGS = {
    "readme_mesh.yaml": {1e-1: 7.029, 1e-2: 7.116},
    "two_route_mesh.yaml": {1e-1: 6.972, 1e-2: 7.046},
}
# required_snr(1e-3, mesh, evaluator="analytical") exactly as the README's
# library example writes it, default bracket included.
README_LIBRARY_CALL = "readme_library_default_bracket"


def waterfall_sweep(seed: int) -> Workload:
    files = {"waterfall.yaml": _scenario(
        [README_RF], [README_GG], [["rf:0", "fso:0"]], WATERFALL_GRID,
        ANALYTIC_TAGS + ["monte_carlo"], WATERFALL_TRIALS, seed)}
    jobs = [Job("outage-sweep", "outage_sweep", "waterfall.yaml"),
            Job("validate", "validate", "waterfall.yaml")]
    return Workload("waterfall_sweep", files, jobs)


def closed_form_grid(seed: int) -> Workload:
    rf = [README_RF,
          "{K: 5.0, omega: 1.0, N: 16, M: 2, C: 3, R: 1.5,\n"
          "     pa: {epsilon: 0.75, theta_pa: 0.5, p_max_db: 25.0, p_cons_db: 0.0}}"]
    # M * C_tilde = 6 keeps route A's Gamma-Gamma hop inside the product
    # bound's supported order; explicit p_tx_db lets min-antennas run.
    fso = ["{model: gamma_gamma, a: 4.3939, b: 2.5636, M: 2, C_tilde: 3, R: 2.0, "
           "p_tx_db: 14.0}",
           "{model: exponential, lambda: 1.0, M: 2, C_tilde: 3, R: 1.5, p_tx_db: 14.0}"]
    files = {"closed_form_grid.yaml": _scenario(
        rf, fso, [["rf:0", "fso:0"], ["rf:1", "fso:1"]], CLOSED_FORM_GRID,
        ANALYTIC_TAGS, WATERFALL_TRIALS, seed)}
    jobs = [Job("outage-sweep", "outage_sweep", "closed_form_grid.yaml"),
            Job("rate-sweep", "rate_sweep", "closed_form_grid.yaml"),
            Job("min-antennas", "min_antennas", "closed_form_grid.yaml")]
    return Workload("closed_form_grid", files, jobs)


def snr_solve(seed: int) -> Workload:
    k0_rf = ("{K: 0.0, omega: 1.0, N: 40, M: 2, C: 5, R: 2.0,\n"
             "     pa: {epsilon: 0.75, theta_pa: 0.5, p_max_db: 25.0, p_cons_db: 0.0}}")
    exp_fso = "{model: exponential, lambda: 1.0, M: 2, C_tilde: 5, R: 2.0}"
    files = {
        "readme_mesh.yaml": _scenario(
            [README_RF], [README_GG], [["rf:0", "fso:0"]], [0.0],
            ["rf_linearized_clt", "fso_clt"], SOLVE_TRIALS, seed),
        "two_route_mesh.yaml": _scenario(
            [README_RF, k0_rf], [README_GG, exp_fso],
            [["rf:0", "fso:0"], ["rf:1", "fso:1"]], [0.0],
            ["rf_linearized_clt", "fso_clt"], SOLVE_TRIALS, seed),
    }
    jobs = []
    for cfg_name, crossings in SOLVE_CROSSINGS.items():
        for target in SOLVE_TARGETS:
            c = crossings[target]
            bounds = (round(c - 1.0, 6), round(c + 2.0, 6))
            for evaluator in ("analytical", "mc"):
                solve = {"target": target, "evaluator": evaluator, "bounds_db": bounds,
                         "tol_db": SOLVE_TOL_DB[evaluator]}
                label = f"required_snr:{cfg_name[:-5]}:{evaluator}:{target:g}"
                jobs.append(Job(label, "required_snr", cfg_name, solve))
    jobs.append(Job(f"required_snr:{README_LIBRARY_CALL}", "required_snr", "",
                    {"target": 1e-3, "evaluator": "analytical"}))
    return Workload("snr_solve", files, jobs)


WORKLOADS = {f.__name__: f for f in (waterfall_sweep, closed_form_grid, snr_solve)}


def write_inputs(workload: Workload, directory: str) -> dict:
    """Write the scenario files; return file name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, text in workload.files.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return paths


def readme_library_mesh():
    """The README's library-example mesh, built exactly as the README does."""
    from linkplan.analysis import FsoHopParams, RfHopParams
    from linkplan.channel import FsoGammaGamma, RicianFading
    from linkplan.hardware import PaConfig
    from linkplan.network import MeshNetwork, Route

    rf = RfHopParams(fading=RicianFading(K=2.0, Omega=1.0, N=40),
                     pa=PaConfig(0.75, 0.5, 316.2278, 1.0), M=2, C=5, R=2.0)
    fso = FsoHopParams(model=FsoGammaGamma(a=4.3939, b=2.5636), p_tx=40.0,
                       M=2, C_tilde=5, R=2.0)
    return MeshNetwork(routes=(Route(hops=(rf, fso)),))


def run_job(job: Job, paths: dict, out_path: str):
    """Run one job; return (output text, exit code).

    A solve's output is the repr of its result, or the exception it raised.
    """
    from linkplan import cli, config, simulate

    if not job.solve:
        code = cli.main([job.label, "--config", paths[job.config], "--out", out_path])
        with open(out_path, encoding="utf-8") as fh:
            return fh.read(), code
    s = job.solve
    try:
        if job.config:
            cfg = config.load_config(paths[job.config])
            _, _, mesh = cfg.materialize()
            mc = simulate.McConfig(cfg.mc_trials, cfg.mc_seed) if s["evaluator"] == "mc" \
                else None
            value = simulate.required_snr(s["target"], mesh, evaluator=s["evaluator"],
                                          bounds_db=s["bounds_db"], mc=mc,
                                          tol_db=s["tol_db"])
        else:
            value = simulate.required_snr(s["target"], readme_library_mesh(),
                                          evaluator=s["evaluator"])
    except Exception as exc:  # a failed solve is an output, checked like any other
        return f"error {type(exc).__name__}: {exc}", 1
    return repr(value), 0
