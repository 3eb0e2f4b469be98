"""Output checks: recorded references for closed forms and exit codes, and an
independent Monte Carlo oracle for every seed.

Closed-form values do not depend on the seed, so every seed is checked
against the default seed's record within a fixed tolerance.  Monte Carlo
estimates must be bit-identical to `mc_failures`, a reference copy of the
simulator's decode rule and random-stream layout (seed, block, hop) as they
stand when the references were recorded.  For the recorded seeds the MC
fields must also equal the record.  A known failure (an error row, a raised
solve) matches its reference when the same kind of error comes back.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
RECORDED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
RTOL = 1e-5       # closed forms: relative tolerance
ATOL = 1e-12      # closed forms: absolute floor for outages near 0
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")

BLOCK_TRIALS = 1 << 20
_Z95 = 1.959963984540054


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

def _hop_fail(hop, gen, n):
    from linkplan.analysis import RfHopParams
    from linkplan.channel import FsoExponential

    acc = np.zeros(n)
    if isinstance(hop, RfHopParams):
        f = hop.fading
        p = hop.drive_power
        scale = f.Omega / (2.0 * (f.K + 1.0))
        df, nonc = 2.0 * f.N, 2.0 * f.K * f.N
        rounds = hop.M * hop.C
        for _ in range(rounds):
            x = gen.chisquare(df, size=n) if nonc == 0.0 else \
                gen.noncentral_chisquare(df, nonc, size=n)
            acc += np.log1p(p * scale * x)
    else:
        rounds = hop.M * hop.C_tilde
        for _ in range(rounds):
            if isinstance(hop.model, FsoExponential):
                g = gen.exponential(1.0 / hop.model.lam, size=n)
            else:
                a, b = hop.model.a, hop.model.b
                g = gen.gamma(a, 1.0 / a, size=n) * gen.gamma(b, 1.0 / b, size=n)
            acc += np.log1p(hop.p_tx * g)
    return acc / rounds <= hop.R / hop.M


def mc_failures(mesh, trials: int, seed: int) -> int:
    """Trials in which every route of the mesh has a failed hop."""
    failures, done, block = 0, 0, 0
    while done < trials:
        n = min(BLOCK_TRIALS, trials - done)
        all_fail = np.ones(n, dtype=bool)
        flat = 0
        for route in mesh.routes:
            fail = np.zeros(n, dtype=bool)
            for hop in route.hops:
                ss = np.random.SeedSequence(entropy=seed, spawn_key=(block, flat))
                fail |= _hop_fail(hop, np.random.Generator(np.random.PCG64(ss)), n)
                flat += 1
            all_fail &= fail
        failures += int(np.count_nonzero(all_fail))
        done += n
        block += 1
    return failures


def wilson(k: int, n: int) -> float:
    p = k / n
    denom = 1.0 + _Z95 * _Z95 / n
    return (_Z95 / denom) * math.sqrt(p * (1.0 - p) / n + _Z95 * _Z95 / (4.0 * n * n))


def shifted(mesh, delta_db: float):
    """The mesh with every hop's drive moved by delta_db."""
    from linkplan.analysis import RfHopParams
    from linkplan.hardware import PaConfig
    from linkplan.network import MeshNetwork, Route

    factor = 10.0 ** (delta_db / 10.0)

    def hop(h):
        if isinstance(h, RfHopParams):
            pa = h.pa
            return replace(h, pa=PaConfig(pa.epsilon, pa.theta_pa, pa.p_max,
                                          pa.p_cons * factor))
        return replace(h, p_tx=h.p_tx * factor)

    return MeshNetwork(tuple(Route(tuple(hop(h) for h in r.hops)) for r in mesh.routes))


def fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

def parse_csv(text: str):
    """(provenance dict, column names, data rows as lists of fields)."""
    prov, data = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            prov[key] = value
        elif line:
            data.append(line.split(","))
    return prov, data[0] if data else [], data[1:]


def parse_validate(text: str):
    """(provenance dict, point lines as dicts, summary dict)."""
    prov, points, summary = {}, [], {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            prov[key] = value
        elif line.startswith("point="):
            head, sep, detail = line.partition(" detail=")
            fields = dict(kv.split("=", 1) for kv in head.split())
            if sep:
                fields["detail"] = detail
            points.append(fields)
        elif line.startswith("summary:"):
            summary = {k: int(v) for k, v in
                       (kv.split("=") for kv in line.split()[1:])}
    return prov, points, summary


def _close(actual: str, expected: str) -> bool:
    a, e = float(actual), float(expected)
    if math.isnan(e):
        return math.isnan(a)
    return abs(a - e) <= ATOL + RTOL * abs(e)


def _field_match(column: str, actual: str, expected: str) -> bool:
    """Numbers within tolerance; error messages may be reworded, but an error
    must come back exactly where the reference has one."""
    if column == "error":
        return bool(actual) == bool(expected)
    if expected.startswith("error:"):
        return actual.startswith("error:")
    try:
        return _close(actual, expected)
    except ValueError:
        return actual == expected


def validate_verdict(method: str, mc: float, mc_ci: float, value: float) -> str:
    """The tolerance class rule `validate` documents, applied to given numbers."""
    sigma3 = 3.0 * mc_ci / _Z95
    if method == "rf_jensen_lower":
        return "PASS" if value <= mc + sigma3 else "FAIL"
    if method in ("rf_jensen_upper", "fso_product_bound"):
        return "PASS" if mc <= value + sigma3 else "FAIL"
    if not 1e-3 <= mc <= 0.5:
        return "SKIP"
    factor = max(value / mc, mc / max(value, 1e-300))
    return "PASS" if factor <= 1.5 else "FAIL"


# ---------------------------------------------------------------------------
# checking one job's output
# ---------------------------------------------------------------------------

class JobCheck:
    """Operations, error operations and mismatches found in one job output."""

    def __init__(self):
        self.ops = 0
        self.failed = 0           # ops that errored, returned NaN or mismatched
        self.mismatches = []      # every check that did not hold
        self.rows = 0
        self.error_rows = 0
        self.validate_compared = 0

    def op(self, is_error: bool, problem: str | None = None):
        self.ops += 1
        self.failed += bool(is_error or problem)
        if problem:
            self.mismatches.append(problem)

    def fail(self, problem: str):
        """A check on the job as a whole (exit code, header, shape)."""
        self.failed += 1
        self.mismatches.append(problem)


class Checker:
    """Checks job outputs of one workload and seed."""

    def __init__(self, workload, seed: int, paths: dict):
        with open(os.path.join(REFERENCE_DIR, workload.name + ".json"),
                  encoding="utf-8") as fh:
            self.refs = json.load(fh)["seeds"]
        self.base = self.refs[str(DEFAULT_SEED)]
        self.same_seed = self.refs.get(str(seed))
        self.seed = seed
        self.paths = paths
        self._cfg = {}
        self._mc = {}

    def _config(self, name):
        if name not in self._cfg:
            from linkplan.config import load_config
            self._cfg[name] = load_config(self.paths[name])
        return self._cfg[name]

    def _mc_point(self, cfg_name, snr_db):
        """Oracle failure count and trials at one sweep point."""
        key = (cfg_name, snr_db)
        if key not in self._mc:
            cfg = self._config(cfg_name)
            _, _, mesh = cfg.materialize(snr_db=snr_db)
            self._mc[key] = (mc_failures(mesh, cfg.mc_trials, cfg.mc_seed), cfg.mc_trials)
        return self._mc[key]

    def check(self, job, text: str, code: int) -> JobCheck:
        out = JobCheck()
        ref = self.base.get(job.label)
        if ref is None:
            out.fail(f"{job.label}: no reference recorded")
            return out
        if job.solve:
            self._check_solve(job, text, code, ref, out)
            return out
        with open(self.paths[job.config], "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        if job.label == "validate":
            prov = self._check_validate(job, text, code, ref, out)
        else:
            prov = self._check_table(job, text, code, ref, out)
        if prov.get("config_sha256") != sha or prov.get("seed") != str(self.seed):
            out.fail(f"{job.label}: provenance header {prov} does not "
                     f"name config {sha} and seed {self.seed}")
        return out

    def _check_table(self, job, text, code, ref, out):
        prov, columns, rows = parse_csv(text)
        _, ref_columns, ref_rows = parse_csv(ref["text"])
        if columns != ref_columns or len(rows) != len(ref_rows):
            out.fail(f"{job.label}: table shape differs from reference")
            return prov
        same_rows = parse_csv(self.same_seed[job.label]["text"])[2] if self.same_seed else None
        for i, (row, want) in enumerate(zip(rows, ref_rows)):
            where = f"{job.label} row {i + 1} ({','.join(row[:2])})"
            is_error = "nan" in row
            if len(row) != len(want):
                problem = f"{where}: {row} vs reference {want}"
            elif columns[1] == "method" and want[1] == "monte_carlo" and not is_error:
                problem = self._check_mc_row(job, row, where,
                                             same_rows[i] if same_rows else None)
            else:
                bad = [c for c, a, e in zip(columns, row, want) if not _field_match(c, a, e)]
                problem = f"{where}: {row} vs reference {want}" if bad else None
            out.rows += 1
            out.error_rows += is_error
            out.op(is_error, problem)
        if code != ref["code"]:
            out.fail(f"{job.label}: exit code {code}, reference {ref['code']}")
        return prov

    def _check_mc_row(self, job, row, where, same_seed_row):
        value, ci = row[2], row[3]
        k, n = self._mc_point(job.config, float(row[0]))
        if value != fmt(k / n) or not _close(ci, fmt(wilson(k, n))) or row[4]:
            return f"{where}: MC {value}±{ci}, oracle {fmt(k / n)}±{fmt(wilson(k, n))}"
        if same_seed_row is not None and row != same_seed_row:
            return f"{where}: MC {row} differs from seed {self.seed}'s record"
        return None

    def _check_validate(self, job, text, code, ref, out):
        prov, points, summary = parse_validate(text)
        _, ref_points, _ = parse_validate(ref["text"])
        same = parse_validate(self.same_seed[job.label]["text"])[1] if self.same_seed else None
        if len(points) != len(ref_points):
            out.fail(f"{job.label}: {len(points)} lines, reference {len(ref_points)}")
            return prov
        counts = {"checked": 0, "passed": 0, "failed": 0, "skipped": 0}
        had_error = False
        for i, (p, want) in enumerate(zip(points, ref_points)):
            out.rows += 1
            where = f"validate line {i + 1} (point={p.get('point')} method={p.get('method')})"
            if (p.get("point"), p.get("method")) != (want["point"], want["method"]):
                out.op(False, f"{where}: reference has point={want['point']} "
                              f"method={want['method']}")
                continue
            is_error = p.get("status") == "ERROR"
            out.error_rows += is_error
            if want["status"] == "ERROR" or is_error:
                had_error |= is_error
                out.op(is_error, None if is_error == (want["status"] == "ERROR") else
                       f"{where}: status {p.get('status')}, reference {want['status']}")
                continue
            k, n = self._mc_point(job.config, float(p["point"]))
            problem = None
            if p["mc"] != fmt(k / n) or not _close(p["mc_ci"], fmt(wilson(k, n))):
                problem = f"{where}: MC {p['mc']}, oracle {fmt(k / n)}"
            elif same is not None and (p["mc"], p["status"]) != (same[i]["mc"], same[i]["status"]):
                problem = f"{where}: differs from seed {self.seed}'s record"
            elif not _close(p["value"], want["value"]):
                problem = f"{where}: value {p['value']}, reference {want['value']}"
            else:
                verdict = validate_verdict(p["method"], k / n, wilson(k, n),
                                           float(p["value"]))
                if p["status"] != verdict:
                    problem = f"{where}: status {p['status']}, rule gives {verdict}"
            counts["checked"] += 1
            counts[{"PASS": "passed", "FAIL": "failed", "SKIP": "skipped"}
                   .get(p["status"], "failed")] += 1
            out.op(False, problem)
        out.validate_compared = summary.get("checked", 0) - summary.get("skipped", 0)
        if summary != counts:
            out.fail(f"validate summary {summary}, lines give {counts}")
        want_code = 3 if had_error else (1 if counts["failed"] else 0)
        if code != want_code:
            out.fail(f"validate: exit code {code}, lines give {want_code}")
        return prov

    def _check_solve(self, job, text, code, ref, out):
        where = job.label
        want = ref["text"]
        if want.startswith("error "):
            kind = want.split(":", 1)[0]
            out.op(True, None if text.split(":", 1)[0] == kind and code == 1 else
                   f"{where}: got {text!r}, reference {kind}")
            return
        if text.startswith("error "):
            out.op(True, f"{where}: {text}, reference {want}")
            return
        value = float(text)
        s = job.solve
        tol = s["tol_db"]
        if s["evaluator"] == "analytical":
            problem = None if abs(value - float(want)) <= tol else \
                f"{where}: {value}, reference {want} (tol {tol} dB)"
            out.op(False, problem)
            return
        # MC: outage at value -/+ tol must straddle the target on this seed
        cfg = self._config(job.config)
        _, _, mesh = cfg.materialize()
        n = cfg.mc_trials
        below = mc_failures(shifted(mesh, value - tol), n, cfg.mc_seed) / n
        above = mc_failures(shifted(mesh, value + tol), n, cfg.mc_seed) / n
        problem = None
        if not (below >= s["target"] > above):
            problem = (f"{where}: {value} dB does not bracket target {s['target']} "
                       f"(oracle outage {below} at -tol, {above} at +tol)")
        elif self.same_seed and abs(value - float(self.same_seed[job.label]["text"])) > tol:
            problem = f"{where}: {value}, seed {self.seed}'s record " \
                      f"{self.same_seed[job.label]['text']}"
        out.op(False, problem)
