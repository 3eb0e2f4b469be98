"""Scenario configuration: YAML document -> validated hop parameters.

The grammar is one key table per mapping, from `_ROOT` down, naming each key
once with its type, default and range; one reader, `_read`, applies them all.
The config holds the scenario's `RfHopParams` and `FsoHopParams` at their
configured drives; `point` builds one sweep point from them.  All dB <-> linear
conversions of the config happen here.  Unless a `p_tx_db` is given, an FSO
hop's transmit power is coupled to its same-index RF hop as P_tx = N * P_cons,
so `snr_db` and `N` sweeps move both link types coherently.
"""
from __future__ import annotations

import hashlib
import math
from collections import namedtuple
from dataclasses import dataclass, replace

import yaml

from .analysis import DEFAULT_TAGS, EVALUATORS, MONTE_CARLO, FsoHopParams, RfHopParams
from .channel import FsoExponential, FsoGammaGamma, RicianFading
from .hardware import PaConfig
from .network import MeshNetwork, Route, _each
from .simulate import McConfig

# libyaml's parser (about 8x faster on a scenario file); PyYAML built without
# libyaml has only the pure-Python one, which reads the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# sweep variable -> the `materialize` keyword its grid values set
SWEEP_VARIABLES = {"snr_db": "snr_db", "N": "n_override", "M": "m_override",
                   "routes": "n_routes"}


class ConfigError(ValueError):
    """Configuration rejected; message carries the offending field path."""


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


_REQUIRED = object()  # the default of a key that the document must give
_RANGES = {  # a key's range, as printed after "must be"
    ">= 0": lambda v: v >= 0.0,
    "> 0": lambda v: v > 0.0,
    ">= 1": lambda v: v >= 1,
    "in [0,1)": lambda v: 0.0 <= v < 1.0,
    "in (0,1] (at 0 the PA would radiate nothing)": lambda v: 0.0 < v <= 1.0,
}
# a key's reader(value, path, done: the keys of its mapping read so far), its
# default (`_REQUIRED`; None: stays None if missing) and range (a `_RANGES` key)
_Key = namedtuple("_Key", "read default range", defaults=(_REQUIRED, ""))


def _read(d, path: str, keys: dict) -> dict:
    """{key: value} of the mapping `d` at `path`, by its key table `keys`; an entry
    {value: table} adds the keys of the table its value names (an FSO model's shape)."""
    _require(isinstance(d, dict), path or "<root>", "expected a mapping")
    pre, table = f"{path}." if path else "", {}
    for key, spec in keys.items():
        if isinstance(spec, dict):
            table[key] = _Key(_choice(spec))
            table.update(spec[table[key].read(d.get(key), pre + key)])
        else:
            table[key] = spec
    for key in d:
        _require(key in table, f"{pre}{key}", f"unknown key (known: {', '.join(table)})")
    done = {}
    for key, spec in table.items():
        v = d.get(key, spec.default)
        _require(v is not _REQUIRED, pre + key, "required field missing")
        done[key] = v = None if key not in d and v is None else spec.read(v, pre + key, done)
        _require(not spec.range or _RANGES[spec.range](v), pre + key, f"must be {spec.range}")
    return done


def _number(v, path: str, done=None) -> float:
    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
             path, f"expected a number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    _require(math.isfinite(v), path, "must be finite")
    return v


def _integer(v, path: str, done=None) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool),
             path, f"expected an integer, got {v!r}")
    return v


def _db(v, path: str, done=None) -> float:
    """A dB number, read as its linear power."""
    x_db = _number(v, path)
    try:
        x = 10.0 ** (x_db / 10.0)
    except OverflowError:
        x = math.inf
    _require(0.0 < x < math.inf, path, f"{x_db:g} dB is beyond the range of a float")
    return x


def _choice(*options):
    """Reader of one string of the `options`, each iterated at each call (a
    list compares by ==, so an unhashable value is no `TypeError`)."""
    def read(v, path, done=None):
        known = [k for o in options for k in o]
        _require(v in known, path, f"must be one of {', '.join(known)}, got {v!r}")
        return v
    return read


def _list(item, nonempty: bool = False):
    """Reader of a list whose entry i `item` reads at `path[i]`."""
    def read(v, path, done=None):
        _require(isinstance(v, list) and (v or not nonempty), path,
                 f"expected a {'nonempty ' * nonempty}list")
        return [item(x, f"{path}[{i}]", done) for i, x in enumerate(v)]
    return read


def _pa(v, path: str, done=None) -> PaConfig:
    pa = _read(v, path, _PA)
    _require(pa["theta_pa"] == 0.0 or pa["p_max_db"], f"{path}.p_max_db",
             "required when theta_pa > 0 (the PA would radiate nothing)")
    try:
        return PaConfig(pa["epsilon"], pa["theta_pa"], pa["p_max_db"] or math.inf,
                        pa["p_cons_db"])
    except (ValueError, ArithmeticError) as exc:  # saturation, overflow
        raise ConfigError(f"{path}: {exc}") from exc


_PA = {  # a dB key reads as its linear power
    "epsilon": _Key(_number, 1.0, "in (0,1] (at 0 the PA would radiate nothing)"),
    "theta_pa": _Key(_number, 0.0, "in [0,1)"),
    "p_cons_db": _Key(_db),
    "p_max_db": _Key(_db, None),  # None: no saturation, so theta_pa must be 0
}

_RF_HOP = {
    "K": _Key(_number, _REQUIRED, ">= 0"),
    "omega": _Key(_number, 1.0, "> 0"),
    "N": _Key(_integer, _REQUIRED, ">= 1"),
    "M": _Key(_integer, 1, ">= 1"),
    "C": _Key(_integer, 1, ">= 1"),
    "R": _Key(_number, _REQUIRED, "> 0"),
    "pa": _Key(_pa),
}

_FSO_HOP = {
    "model": {"exponential": {"lambda": _Key(_number, _REQUIRED, "> 0")},
              "gamma_gamma": {"a": _Key(_number, _REQUIRED, "> 0"),
                              "b": _Key(_number, _REQUIRED, "> 0")}},
    "M": _Key(_integer, 1, ">= 1"),
    "C_tilde": _Key(_integer, 1, ">= 1"),
    "R": _Key(_number, _REQUIRED, "> 0"),
    "p_tx_db": _Key(_db, None),  # None: N * P_cons of an RF hop
}


def _rf_hop(v, path: str, done=None) -> RfHopParams:
    h = _read(v, path, _RF_HOP)
    return RfHopParams(RicianFading(h["K"], h["omega"], h["N"]), h["pa"],
                       h["M"], h["C"], h["R"])


def _coupled_p_tx(rf_hop: RfHopParams) -> float:
    """Transmit power of an FSO hop coupled to `rf_hop`: N * P_cons."""
    return rf_hop.fading.N * rf_hop.pa.p_cons


def _fso_hops(v, path: str, done: dict) -> list:
    """(FsoHopParams, None or the RF hop it couples to, min(i, last)) per FSO hop i."""
    _require(isinstance(v, list), path, "expected a list")
    rf, hops = done["rf_hops"], []
    for i, d in enumerate(v):
        h, p = _read(d, f"{path}[{i}]", _FSO_HOP), f"{path}[{i}].p_tx_db"
        law = (FsoExponential(h["lambda"]) if h["model"] == "exponential"
               else FsoGammaGamma(h["a"], h["b"]))
        partner = None if h["p_tx_db"] else min(i, len(rf) - 1)
        _require(partner is None or rf, p, "required when there is no RF hop to couple to")
        try:
            p_tx = h["p_tx_db"] or _coupled_p_tx(rf[partner])
            hops.append((FsoHopParams(law, p_tx, h["M"], h["C_tilde"], h["R"]), partner))
        except (ValueError, OverflowError) as exc:  # N * P_cons past the float range
            raise ConfigError(f"{p}: N * P_cons is beyond the range of a float") from exc
    _require(rf or hops, "rf_hops", "at least one hop required")
    return hops


def _routes(v, path: str, done: dict):
    """Hop references per route, or None: one route over every hop, RF first.  Routes
    are independent (closed forms and MC alike): no hop sits on two, nor twice on one."""
    seen = {}
    def ref(x, p, _):
        kind, _, i = x.partition(":") if isinstance(x, str) else ("", "", "")
        _require(kind in ("rf", "fso") and i.isdecimal(), p,
                 f"expected 'rf:<i>' or 'fso:<i>', got {x!r}")
        hop = (kind, int(i))
        _require(hop[1] < len(done[f"{kind}_hops"]), p, f"hop {x!r} does not exist")
        _require(hop not in seen, p, f"hop {x!r} is already on {seen.get(hop)}")
        seen[hop] = p
        return hop
    return None if v is None else _list(_list(ref, nonempty=True), nonempty=True)(v, path)


def _grid(v, path: str, done: dict) -> list:
    """The grid as given (integers stay integers), strictly increasing."""
    _list(_number, nonempty=True)(v, path)
    _require(all(a < b for a, b in zip(v, v[1:])), path, "must be strictly increasing")
    if done["variable"] != "snr_db":  # N, M and routes count
        for i, g in enumerate(v):
            _require(isinstance(g, int) and g >= 1, f"{path}[{i}]",
                     "must be a positive integer")
    return list(v)


def mc_config(trials: int, seed: int) -> McConfig:
    """`McConfig`, whose range errors become `mc: ...` config errors."""
    try:
        return McConfig(trials, seed)
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc


_SWEEP = {"variable": _Key(_choice(SWEEP_VARIABLES)), "grid": _Key(_grid)}
# `McConfig` holds the ranges of mc's keys, for the file and the --trials/--seed flags
_MC = {"trials": _Key(_integer, 1_000_000), "seed": _Key(_integer, 0)}
_ANALYSIS = {"theta": _Key(_number, 1.0, "> 0")}  # tangent anchor of rf_piecewise_clt
_ROOT = {
    "rf_hops": _Key(_list(_rf_hop), []),
    "fso_hops": _Key(_fso_hops, []),
    "routes": _Key(_routes, None),
    "sweep": _Key(lambda v, path, done: _read(v, path, _SWEEP)),
    # tags read at each parse, so that a row added to the table later counts
    "evaluators": _Key(_list(_choice(EVALUATORS, [MONTE_CARLO]), nonempty=True),
                       list(DEFAULT_TAGS)),
    "mc": _Key(lambda v, path, done: mc_config(**_read(v, path, _MC)), {}),
    "analysis": _Key(lambda v, path, done: _read(v, path, _ANALYSIS), {}),
}


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
        follows N * P_cons of its RF hop at the point.  A hop's build error
        gets `rf:i: ` or `fso:i: `.
        """
        rf_hops, fso_hops = self.rf_hops, self.fso_hops
        if n_override is not None:
            rf_hops = [replace(h, fading=replace(h.fading, N=n_override)) for h in rf_hops]
        if m_override is not None:
            rf_hops = [replace(h, M=m_override) for h in rf_hops]
            fso_hops = [replace(h, M=m_override) for h in fso_hops]
        delta = 0.0 if snr_db is None else snr_db - self.anchor_db()
        rf = _each("rf:", rf_hops, lambda h: h.shifted(delta))

        def fso_hop(coupled):
            h, partner = coupled
            return (h.shifted(delta) if partner is None
                    else replace(h, p_tx=_coupled_p_tx(rf[partner])))
        fso = _each("fso:", zip(fso_hops, self.fso_coupling), fso_hop)
        hops = {"rf": rf, "fso": fso}
        mesh = MeshNetwork(tuple(Route(tuple(hops[kind][i] for kind, i in refs))
                                 for refs in self.routes[:n_routes]))
        return rf, fso, mesh

    def point(self, value):
        """`materialize` at one grid value of the sweep variable."""
        return self.materialize(**{SWEEP_VARIABLES[self.sweep_variable]: value})


def parse_config(doc: dict, sha256: str = "") -> ScenarioConfig:
    v = _read(doc, "", _ROOT)
    rf, fso, mc = v["rf_hops"], v["fso_hops"], v["mc"]
    routes = v["routes"] or [[("rf", i) for i in range(len(rf))]
                             + [("fso", i) for i in range(len(fso))]]
    sweep = v["sweep"]
    _require(sweep["variable"] != "routes" or sweep["grid"][-1] <= len(routes), "sweep.grid",
             f"grid exceeds the {len(routes)} configured routes")
    return ScenarioConfig(rf, [h for h, _ in fso], [c for _, c in fso], routes,
                          sweep["variable"], sweep["grid"], v["evaluators"],
                          mc.trials, mc.seed, v["analysis"]["theta"], sha256=sha256)


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
