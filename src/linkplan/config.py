"""Scenario configuration: YAML document -> validated hop parameters.

The config holds the scenario's `RfHopParams` and `FsoHopParams` at their
configured drives; `point` builds one sweep point from them.  All dB <-> linear
conversions of the config happen here.  Unless a `p_tx_db` is given, an FSO
hop's transmit power is coupled to its same-index RF hop as P_tx = N * P_cons,
so `snr_db` and `N` sweeps move both link types coherently.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import yaml

from .analysis import (
    FSO_CLT,
    FSO_TAGS,
    MONTE_CARLO,
    RF_LINEARIZED,
    RF_TAGS,
    FsoHopParams,
    RfHopParams,
)
from .channel import FsoExponential, FsoGammaGamma, RicianFading
from .hardware import PaConfig
from .network import MeshNetwork, Route, _shift_hop
from .simulate import McConfig

KNOWN_TAGS = RF_TAGS + FSO_TAGS + (MONTE_CARLO,)

# libyaml's parser (about 8x faster on a scenario file); PyYAML built without
# libyaml has only the pure-Python one, which reads the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# sweep variable -> the `materialize` keyword its grid values set
SWEEP_VARIABLES = {"snr_db": "snr_db", "N": "n_override", "M": "m_override",
                   "routes": "n_routes"}


class ConfigError(ValueError):
    """Configuration rejected; message carries the offending field path."""


def _db_to_linear(x_db: float, path: str) -> float:
    try:
        x = 10.0 ** (x_db / 10.0)
    except OverflowError:
        x = math.inf
    _require(0.0 < x < math.inf, path, f"{x_db:g} dB is beyond the range of a float")
    return x


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _reject_unknown(d: dict, known, path: str):
    for key in d:
        _require(key in known, f"{path}.{key}",
                 f"unknown key (known: {', '.join(known)})")


def _number(v, path: str) -> float:
    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
             path, f"expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    _require(math.isfinite(v), path, "must be finite")
    return v


def _get_number(d: dict, key: str, path: str, default=None, required=False):
    if key not in d:
        _require(not required, f"{path}.{key}", "required field missing")
        return default
    return _number(d[key], f"{path}.{key}")


def _get_int(d: dict, key: str, path: str, default=None, required=False):
    if key not in d:
        _require(not required, f"{path}.{key}", "required field missing")
        return default
    v = d[key]
    _require(isinstance(v, int) and not isinstance(v, bool),
             f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


@dataclass
class ScenarioConfig:
    rf_hops: list         # RfHopParams at the configured drives
    fso_hops: list        # FsoHopParams at the configured (or coupled) powers
    fso_coupling: list    # per FSO hop: RF hop index supplying N*P_cons, or None
    routes: list          # list of list of ("rf"|"fso", index)
    sweep_variable: str
    sweep_grid: list
    evaluators: list
    mc_trials: int
    mc_seed: int
    theta: float          # tangent anchor for the piecewise RF evaluator
    sha256: str = ""

    def anchor_db(self) -> float:
        """Reference drive (dB) that an snr_db grid value replaces."""
        if self.rf_hops:
            return 10.0 * math.log10(self.rf_hops[0].pa.p_cons)
        return 10.0 * math.log10(self.fso_hops[0].p_tx)

    def materialize(self, snr_db: float | None = None, n_override: int | None = None,
                    m_override: int | None = None, n_routes: int | None = None):
        """Build (rf_hop_params, fso_hop_params, mesh) for one sweep point.

        snr_db values are absolute for the anchor hop; every other hop keeps
        its configured dB offset (a single global shift).  A coupled FSO hop
        follows N * P_cons of its RF hop at the point.
        """
        rf_hops, fso_hops = self.rf_hops, self.fso_hops
        if n_override is not None:
            rf_hops = [replace(h, fading=replace(h.fading, N=n_override)) for h in rf_hops]
        if m_override is not None:
            rf_hops = [replace(h, M=m_override) for h in rf_hops]
            fso_hops = [replace(h, M=m_override) for h in fso_hops]
        delta = 0.0 if snr_db is None else snr_db - self.anchor_db()
        rf = [_shift_hop(h, delta) for h in rf_hops]
        fso = [_shift_hop(h, delta) if partner is None
               else replace(h, p_tx=_coupled_p_tx(rf[partner]))
               for h, partner in zip(fso_hops, self.fso_coupling)]
        hops = {"rf": rf, "fso": fso}
        mesh = MeshNetwork(tuple(Route(tuple(hops[kind][i] for kind, i in refs))
                                 for refs in self.routes[:n_routes]))
        return rf, fso, mesh

    def point(self, value):
        """`materialize` at one grid value of the sweep variable."""
        return self.materialize(**{SWEEP_VARIABLES[self.sweep_variable]: value})


def _coupled_p_tx(rf_hop: RfHopParams) -> float:
    """Transmit power of an FSO hop coupled to `rf_hop`: N * P_cons."""
    return rf_hop.fading.N * rf_hop.pa.p_cons


def _parse_rf_hop(d, path) -> RfHopParams:
    _require(isinstance(d, dict), path, "expected a mapping")
    _reject_unknown(d, ("K", "omega", "N", "M", "C", "R", "pa"), path)
    K = _get_number(d, "K", path, required=True)
    _require(K >= 0.0, f"{path}.K", "must be >= 0")
    omega = _get_number(d, "omega", path, default=1.0)
    _require(omega > 0.0, f"{path}.omega", "must be > 0")
    N = _get_int(d, "N", path, required=True)
    _require(N >= 1, f"{path}.N", "must be >= 1")
    M = _get_int(d, "M", path, default=1)
    _require(M >= 1, f"{path}.M", "must be >= 1")
    C = _get_int(d, "C", path, default=1)
    _require(C >= 1, f"{path}.C", "must be >= 1")
    R = _get_number(d, "R", path, required=True)
    _require(R > 0.0, f"{path}.R", "must be > 0")
    pa = d.get("pa")
    _require(isinstance(pa, dict), f"{path}.pa", "required mapping missing")
    _reject_unknown(pa, ("epsilon", "theta_pa", "p_cons_db", "p_max_db"), f"{path}.pa")
    eps = _get_number(pa, "epsilon", f"{path}.pa", default=1.0)
    _require(0.0 <= eps <= 1.0, f"{path}.pa.epsilon", "must be in [0,1]")
    _require(eps > 0.0, f"{path}.pa.epsilon", "must be > 0 (the PA would radiate nothing)")
    th = _get_number(pa, "theta_pa", f"{path}.pa", default=0.0)
    _require(0.0 <= th < 1.0, f"{path}.pa.theta_pa", "must be in [0,1)")
    p_cons = _db_to_linear(_get_number(pa, "p_cons_db", f"{path}.pa", required=True),
                           f"{path}.pa.p_cons_db")
    if "p_max_db" in pa:
        p_max = _db_to_linear(_get_number(pa, "p_max_db", f"{path}.pa"),
                              f"{path}.pa.p_max_db")
    else:
        _require(th == 0.0, f"{path}.pa.p_max_db",
                 "required when theta_pa > 0 (the PA would radiate nothing)")
        p_max = math.inf
    try:
        pa_config = PaConfig(eps, th, p_max, p_cons)
    except (ValueError, ArithmeticError) as exc:  # saturation, overflow
        raise ConfigError(f"{path}.pa: {exc}") from exc
    return RfHopParams(RicianFading(K, omega, N), pa_config, M, C, R)


def _parse_fso_hop(d, path, idx, rf):
    """(FsoHopParams, index of the coupled RF hop or None if p_tx_db is given)."""
    _require(isinstance(d, dict), path, "expected a mapping")
    model = d.get("model")
    _require(model in ("exponential", "gamma_gamma"),
             f"{path}.model", "must be 'exponential' or 'gamma_gamma'")
    shape = ("lambda",) if model == "exponential" else ("a", "b")
    _reject_unknown(d, ("model", *shape, "M", "C_tilde", "R", "p_tx_db"), path)
    if model == "exponential":
        lam = _get_number(d, "lambda", path, required=True)
        _require(lam > 0.0, f"{path}.lambda", "must be > 0")
        gain = FsoExponential(lam)
    else:
        a = _get_number(d, "a", path, required=True)
        _require(a > 0.0, f"{path}.a", "must be > 0")
        b = _get_number(d, "b", path, required=True)
        _require(b > 0.0, f"{path}.b", "must be > 0")
        gain = FsoGammaGamma(a, b)
    M = _get_int(d, "M", path, default=1)
    _require(M >= 1, f"{path}.M", "must be >= 1")
    Ct = _get_int(d, "C_tilde", path, default=1)
    _require(Ct >= 1, f"{path}.C_tilde", "must be >= 1")
    R = _get_number(d, "R", path, required=True)
    _require(R > 0.0, f"{path}.R", "must be > 0")
    if "p_tx_db" in d:
        p_tx = _db_to_linear(_get_number(d, "p_tx_db", path), f"{path}.p_tx_db")
        return FsoHopParams(gain, p_tx, M, Ct, R), None
    _require(len(rf) > 0, f"{path}.p_tx_db",
             "required when there is no RF hop to couple to")
    partner = min(idx, len(rf) - 1)
    return FsoHopParams(gain, _coupled_p_tx(rf[partner]), M, Ct, R), partner


def _parse_route_ref(ref, path, n_rf, n_fso):
    _require(isinstance(ref, str), path, f"expected 'rf:<i>' or 'fso:<i>', got {ref!r}")
    kind, _, idx_s = ref.partition(":")
    _require(kind in ("rf", "fso") and idx_s.isdigit(), path,
             f"expected 'rf:<i>' or 'fso:<i>', got {ref!r}")
    idx = int(idx_s)
    limit = n_rf if kind == "rf" else n_fso
    _require(idx < limit, path, f"hop {ref!r} does not exist")
    return kind, idx


def mc_config(trials: int, seed: int) -> McConfig:
    """`McConfig`, whose range errors become `mc: ...` config errors."""
    try:
        return McConfig(trials, seed)
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc


def parse_config(doc: dict, sha256: str = "") -> ScenarioConfig:
    _require(isinstance(doc, dict), "<root>", "config must be a mapping")
    known = {"rf_hops", "fso_hops", "routes", "sweep", "evaluators", "mc", "analysis"}
    for key in doc:
        _require(key in known, str(key), "unknown section")

    rf_raw = doc.get("rf_hops", [])
    fso_raw = doc.get("fso_hops", [])
    _require(isinstance(rf_raw, list), "rf_hops", "expected a list")
    _require(isinstance(fso_raw, list), "fso_hops", "expected a list")
    rf = [_parse_rf_hop(h, f"rf_hops[{i}]") for i, h in enumerate(rf_raw)]
    fso_parsed = [_parse_fso_hop(h, f"fso_hops[{i}]", i, rf)
                  for i, h in enumerate(fso_raw)]
    fso = [hop for hop, _ in fso_parsed]
    _require(len(rf) + len(fso) > 0, "rf_hops", "at least one hop required")

    routes_raw = doc.get("routes")
    if routes_raw is None:
        # default: one route spanning all hops, RF first
        routes = [[("rf", i) for i in range(len(rf))]
                  + [("fso", i) for i in range(len(fso))]]
    else:
        _require(isinstance(routes_raw, list) and routes_raw,
                 "routes", "expected a nonempty list")
        # routes are independent (closed forms and MC alike), so no hop may
        # sit on two of them, nor twice on one
        routes, seen = [], {}
        for i, r in enumerate(routes_raw):
            _require(isinstance(r, list) and r,
                     f"routes[{i}]", "expected a nonempty list of hop references")
            route = []
            for j, ref in enumerate(r):
                path = f"routes[{i}][{j}]"
                hop = _parse_route_ref(ref, path, len(rf), len(fso))
                _require(hop not in seen, path, f"hop {ref!r} is already on {seen.get(hop)}")
                seen[hop] = path
                route.append(hop)
            routes.append(route)

    sweep = doc.get("sweep")
    _require(isinstance(sweep, dict), "sweep", "required mapping missing")
    _reject_unknown(sweep, ("variable", "grid"), "sweep")
    variable = sweep.get("variable")
    _require(variable in SWEEP_VARIABLES,
             "sweep.variable", f"must be one of {', '.join(SWEEP_VARIABLES)}")
    grid = sweep.get("grid")
    _require(isinstance(grid, list) and grid, "sweep.grid", "must be a nonempty list")
    for i, g in enumerate(grid):
        _number(g, f"sweep.grid[{i}]")
    _require(all(grid[i] < grid[i + 1] for i in range(len(grid) - 1)),
             "sweep.grid", "must be strictly increasing")
    if variable in ("N", "M", "routes"):
        for i, g in enumerate(grid):
            _require(isinstance(g, int) and g >= 1,
                     f"sweep.grid[{i}]", "must be a positive integer")
        if variable == "routes":
            _require(grid[-1] <= len(routes), "sweep.grid",
                     f"grid exceeds the {len(routes)} configured routes")

    evaluators = doc.get("evaluators", [RF_LINEARIZED, FSO_CLT])
    _require(isinstance(evaluators, list) and evaluators,
             "evaluators", "expected a nonempty list")
    for i, tag in enumerate(evaluators):
        _require(tag in KNOWN_TAGS, f"evaluators[{i}]",
                 f"unknown method tag {tag!r} (known: {', '.join(KNOWN_TAGS)})")

    mc_doc = doc.get("mc", {})
    _require(isinstance(mc_doc, dict), "mc", "expected a mapping")
    _reject_unknown(mc_doc, ("trials", "seed"), "mc")
    mc = mc_config(_get_int(mc_doc, "trials", "mc", default=1_000_000),
                   _get_int(mc_doc, "seed", "mc", default=0))

    analysis = doc.get("analysis", {})
    _require(isinstance(analysis, dict), "analysis", "expected a mapping")
    _reject_unknown(analysis, ("theta",), "analysis")
    theta = _get_number(analysis, "theta", "analysis", default=1.0)
    _require(theta > 0.0, "analysis.theta", "must be > 0")

    return ScenarioConfig(rf, fso, [c for _, c in fso_parsed], routes, variable,
                          list(grid), list(evaluators), mc.trials, mc.seed, theta,
                          sha256=sha256)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"<file>: cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = yaml.load(raw, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"<file>: not parseable YAML: {exc}") from exc
    return parse_config(doc, sha256=digest)
