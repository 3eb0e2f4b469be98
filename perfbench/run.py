#!/usr/bin/env python3
"""linkplan benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload waterfall_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the package is imported from `src/`.  One
process, one caller: each job starts when the previous one has finished
(a closed loop).  The job list runs once to warm up and to produce the
outputs that are checked, then repeats until `--seconds` have passed.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
alternates untraced passes with traced ones (see tracing.py) and reports
the per-layer metrics; traced outputs must equal untraced ones byte for
byte.  The last line of standard output is one JSON object; a results file
with a machine note goes to perfbench/out/results/.  Exit status: 0 when
every check holds, 1 when one does not, 2 when the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
# Typical reference_kernel() time on the host where the benchmark was defined.
# wall_s and setup_s are measured times rescaled to this kernel speed.
REFERENCE_KERNEL_S = 0.05
# the benchmark's own children run single-threaded
CHILD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
COMMANDS = ("outage_sweep", "validate", "rate_sweep", "min_antennas", "required_snr")


def _child_env():
    return {**os.environ, **CHILD_ENV}


def machine_note() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "linkplan")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "loadavg_at_start": list(os.getloadavg()),
        "child_env": CHILD_ENV,
    }


def stats(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return {"median": xs[0], "q1": xs[0], "q3": xs[0], "n": len(xs)}
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(xs)}


def tail(xs):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, by nearest rank; None below 11 samples."""
    n = len(xs)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(xs)[math.ceil(pct * n / 100) - 1]


def reference_kernel() -> float:
    """Seconds for a fixed job that uses no linkplan code: a scalar Python
    loop and numpy random draws, the two kinds of work the job lists do.
    Timed before and after every pass and set-up probe, it gauges how fast
    the shared machine runs just then."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 150_000):
        acc += math.log(i) * math.exp(-1e-6 * i)
    gen = np.random.Generator(np.random.PCG64(12345))
    np.log1p(gen.noncentral_chisquare(80.0, 160.0, size=200_000)).sum()
    return time.perf_counter() - t0


def at_reference_speed(seconds, ref_before, ref_after) -> float:
    """A measured time rescaled to the speed at which reference_kernel()
    takes REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S / (0.5 * (ref_before + ref_after))


def measure_setup(paths):
    """(measured seconds, seconds at reference speed) per probe."""
    measured, scaled = [], []
    ref = reference_kernel()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls in steps of up to 50 ms,
        # which quantizes the measurement
        subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), ROOT,
                        *paths], env=_child_env(), check=True)
        measured.append(time.perf_counter() - t0)
        ref_after = reference_kernel()
        scaled.append(at_reference_speed(measured[-1], ref, ref_after))
        ref = ref_after
    return measured, scaled


class Runner:
    """Runs one workload's job list, one job after another."""

    def __init__(self, workload, paths, workdir):
        self.workload = workload
        self.paths = paths
        self.workdir = workdir
        self.op_id = 0

    def run_pass(self, tracer=None):
        """[(job, text, code, seconds)], pass wall time."""
        from workloads import run_job

        results = []
        t_pass = time.perf_counter()
        for i, job in enumerate(self.workload.jobs):
            self.op_id += 1
            if tracer is not None:
                tracer.op_id = self.op_id
            out_path = os.path.join(self.workdir, f"job{i}.out")
            t0 = time.perf_counter()
            text, code = run_job(job, self.paths, out_path)
            results.append((job, text, code, time.perf_counter() - t0))
        return results, time.perf_counter() - t_pass


def command_times(passes):
    by_cmd = {c: [] for c in COMMANDS}
    for results in passes:
        for job, _, _, dt in results:
            by_cmd[job.command].append(dt)
    return by_cmd


def compare_outputs(reference, results, what):
    """Byte-for-byte comparison of a pass with the checked pass:
    [(job index, problem)]."""
    return [(i, f"{job.label}: {what} output differs from the checked pass")
            for i, ((job, text, code, _), (_, want, want_code, _))
            in enumerate(zip(results, reference)) if text != want or code != want_code]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, write_inputs

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "linkplan")):
        print(f"no linkplan package under {SRC}; run from a linkplan checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    note = machine_note()
    workload = WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    paths = write_inputs(workload, workdir)
    try:
        setup, setup_scaled = measure_setup(list(paths.values())) if not args.trace \
            else (None, None)
        sys.path.insert(0, SRC)
        import checks

        runner = Runner(workload, paths, workdir)
        checked, first_wall = runner.run_pass()
        result = (run_traced if args.trace else run_untraced)(runner, checked, args.seconds)
        checker = checks.Checker(workload, args.seed, paths)
        job_checks = [checker.check(job, text, code) for job, text, code, _ in checked]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for _, p in result["problems"]] + [p for c in job_checks for p in c.mismatches]
    passes = result["passes"]
    attempted = sum(c.ops for c in job_checks) * passes
    # a failed check on the checked pass fails that op in every identical
    # pass; a pass whose output differs from the checked one fails the job
    failed = min(attempted, sum(len(c.mismatches) for c in job_checks) * passes
                 + sum(job_checks[i].ops for i, _ in result["problems"]))
    ops = sum(c.ops for c in job_checks)
    failed_frac = sum(c.failed for c in job_checks) / ops
    cli_checks = [c for (job, *_), c in zip(checked, job_checks) if not job.solve]
    layer = {
        "cli.rows": sum(c.rows for c in cli_checks),
        "cli.error_rows": sum(c.error_rows for c in cli_checks),
        "cli.validate_compared": sum(c.validate_compared for c in cli_checks),
        "ops.failed_frac": failed_frac,
    }
    by_cmd = command_times(result["timed"])
    details = {c: stats(v) for c, v in by_cmd.items() if v}
    solves = by_cmd["required_snr"]
    if tail(solves):
        details["required_snr"]["tail"] = dict(zip(("percentile", "value"), tail(solves)))

    if args.trace:
        layer.update(result["layer"])
        layer["cmd.job_list_s"] = statistics.median(result["walls"])
        for c in COMMANDS:
            layer[f"cmd.{c}_s"] = details[c]["median"] if c in details else 0.0
        t = tail(solves)
        layer["cmd.required_snr_tail_s"] = t[1] if t else 0.0
        layer["cmd.required_snr_n"] = len(solves)
        wanted = spec["per_layer"]
        values = layer
    else:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "wall_s": statistics.median(result["scaled"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not problems

    lines = [f"{workload.name} seed={args.seed} trace={args.trace} "
             f"passes={passes} (first pass {first_wall:.3f} s)"]
    if not args.trace:
        lines.append(f"  setup_s = {values['setup_s']:.4f} s at reference speed "
                     f"(median of {len(setup)}; measured {statistics.median(setup):.4f} s)")
        lines.append(f"  wall_s = {values['wall_s']:.4f} s at reference speed (median of "
                     f"{len(result['walls'])}; measured {statistics.median(result['walls']):.4f} s)")
        for c in COMMANDS:
            if c in details:
                d = details[c]
                extra = ""
                if "tail" in d:
                    extra = f", p{d['tail']['percentile']} {d['tail']['value']:.4f} s"
                lines.append(f"  {c}_s = {d['median']:.4f} s (median{extra}, n={d['n']})")
        lines.append(f"  peak_rss_mb = {values['peak_rss_mb']:.2f} MB")
        lines.append(f"  failed_frac = {failed_frac:.4f} (errored, NaN or mismatched "
                     f"operations / {ops} per pass)")
    else:
        for name, v in metrics.items():
            lines.append(f"  {name} = {v['value']:.6g} {v['unit']}")
    for p in problems[:20]:
        lines.append(f"  CHECK FAILED: {p}")
    print("\n".join(lines))

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": note, "metrics": metrics, "correct": correct,
        "attempted": attempted, "failed": failed, "ops_per_pass": ops,
        "failed_frac": failed_frac, "commands": details, "layer": layer,
        "setup_samples": setup, "setup_samples_at_reference_speed": setup_scaled,
        "pass_walls": result["walls"], "pass_walls_at_reference_speed": result.get("scaled"),
        "problems": problems,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    with open(os.path.join(OUT, "results", name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace and result.get("tracer") is not None:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        result["tracer"].write(os.path.join(OUT, "traces", name + ".spans.csv.gz"))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_untraced(runner, checked, seconds):
    passes, walls, scaled, problems = [], [], [], []
    ref = reference_kernel()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(walls) < 3:
        results, wall = runner.run_pass()
        ref_after = reference_kernel()
        problems += compare_outputs(checked, results, "repeated")
        passes.append(results)
        walls.append(wall)
        scaled.append(at_reference_speed(wall, ref, ref_after))
        ref = ref_after
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"timed": passes, "walls": walls, "scaled": scaled, "problems": problems,
            "passes": len(walls) + 1, "peak_rss_mb": peak}


def run_traced(runner, checked, seconds):
    from tracing import Tracer

    untraced, walls, traced_walls, layers, problems = [], [], [], [], []
    first = None
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or not walls:
        results, wall = runner.run_pass()
        problems += compare_outputs(checked, results, "untraced")
        untraced.append(results)
        walls.append(wall)
        tracer = Tracer()
        tracer.install()
        try:
            results, wall = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        problems += compare_outputs(checked, results, "traced")
        traced_walls.append(wall)
        layers.append(tracer.layer_metrics())
        first = first or tracer
    layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    layer["trace.wall_s"] = statistics.median(traced_walls)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(walls)
    return {"timed": untraced, "walls": walls, "problems": problems,
            "passes": 2 * len(walls) + 1, "layer": layer, "tracer": first}


def run_all(args, workloads) -> int:
    """Every workload in its own process, one after the other."""
    summary, status = {}, 0
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=_child_env(), capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = max(status, proc.returncode)
    print(json.dumps({"workloads": summary}))
    return status


if __name__ == "__main__":
    sys.exit(main())
