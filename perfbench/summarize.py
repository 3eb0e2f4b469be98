#!/usr/bin/env python3
"""Summarise results files written by run.py: median and quartiles of every
metric per workload, and each end-to-end metric's spread against its bound.

    python3 perfbench/summarize.py perfbench/out/results/*.json
    python3 perfbench/summarize.py --out perfbench/BENCH_baseline.json perfbench/out/results/*.json

Spread is (q3 - q1) / median over runs, with the quartiles that
`statistics.quantiles(values, n=4)` gives.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(records, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for rec in records:
        key = rec["workload"]
        entry = out.setdefault(key, {"runs": {}, "seeds": {}, "metrics": {}})
        mode = "traced" if rec["trace"] else "untraced"
        entry["runs"][mode] = entry["runs"].get(mode, 0) + 1
        entry["seeds"].setdefault(mode, []).append(rec["seed"])
        for name, m in rec["metrics"].items():
            entry["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
            entry["metrics"][name]["values"].append(m["value"])
        if not rec["correct"]:
            entry.setdefault("incorrect_runs", []).append(rec["seed"])
    for entry in out.values():
        for name, m in entry["metrics"].items():
            vals = m.pop("values")
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else (vals[0],) * 3)
            m.update(median=med, q1=q1, q3=q3, n=len(vals))
            if name in bounds:
                m["spread"] = (q3 - q1) / med if med else None
                m["bound"] = bounds[name]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    records = []
    for path in args.results:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    summary = summarize(records, spec)
    for workload, entry in summary.items():
        print(f"{workload}: runs {entry['runs']}"
              + (f", INCORRECT on seeds {entry['incorrect_runs']}"
                 if "incorrect_runs" in entry else ""))
        for name, m in entry["metrics"].items():
            line = (f"  {name:36s} {m['median']:.6g} {m['unit']} "
                    f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}] n={m['n']}")
            if "spread" in m:
                ok = "ok" if m["spread"] is not None and m["spread"] < m["bound"] / 3 else "WIDE"
                line += f" spread {m['spread']:.4f} vs bound/3 {m['bound'] / 3:.4f} {ok}"
            print(line)
    if args.out:
        machines = {json.dumps({k: v for k, v in r["machine"].items()
                                if k != "loadavg_at_start"}, sort_keys=True)
                    for r in records}
        doc = {
            "what": "median and quartiles over runs of perfbench/run.py, one run per seed",
            "machine": [json.loads(m) for m in sorted(machines)],
            "loadavg_at_start": [r["machine"]["loadavg_at_start"] for r in records],
            "run_seconds": records[0]["seconds"],
            "workloads": summary,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
