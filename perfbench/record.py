#!/usr/bin/env python3
"""Record the reference outputs that run.py checks against.

    python3 perfbench/record.py [workload ...]

Runs each workload's job list once for the default and the held-out seed
and writes perfbench/references/<workload>.json.  Before writing, the new
record must pass the same checks run.py applies, so its Monte Carlo fields
agree with the oracle in checks.py.  Re-record only for a change meant to
alter outputs, and say why in the change.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def record(name: str) -> dict:
    seeds = {}
    for seed in checks.RECORDED_SEEDS:
        workload = WORKLOADS[name](seed)
        workdir = os.path.join(run.OUT, f"record-{name}-{seed}-{os.getpid()}")
        try:
            paths = write_inputs(workload, workdir)
            results, _ = run.Runner(workload, paths, workdir).run_pass()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        seeds[str(seed)] = {job.label: {"code": code, "text": text}
                            for job, text, code, _ in results}
    return {"machine": run.machine_note(), "seeds": seeds}


def main(names) -> int:
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for name in names or list(WORKLOADS):
        ref = record(name)
        path = os.path.join(checks.REFERENCE_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        problems = []
        for seed in checks.RECORDED_SEEDS:
            workload = WORKLOADS[name](seed)
            workdir = os.path.join(run.OUT, f"recheck-{name}-{seed}-{os.getpid()}")
            try:
                paths = write_inputs(workload, workdir)
                checker = checks.Checker(workload, seed, paths)
                for job in workload.jobs:
                    out = ref["seeds"][str(seed)][job.label]
                    problems += checker.check(job, out["text"], out["code"]).mismatches
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        if problems:
            os.remove(path)
            print(f"{name}: record rejected:\n  " + "\n  ".join(problems), file=sys.stderr)
            return 1
        print(f"{name}: recorded seeds {checks.RECORDED_SEEDS} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
