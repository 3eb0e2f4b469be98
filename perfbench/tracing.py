"""Spans around the calls into each linkplan module, recorded from outside.

`Tracer.install` wraps every public function of the package modules and
rebinds it wherever the package holds a reference to it: module attributes
(including names imported with `from ... import`), module-level dispatch
tables, `ScenarioConfig.materialize`, and `analysis.quad` for the calls into
scipy.  `uninstall` restores the originals.

A call opens a span only when it crosses into another layer; calls inside a
layer only bump counters.  Spans live in flat arrays until the run ends.  A
layer's self time is the time its spans cover minus the time their child
spans cover.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("specfun", "channel", "hardware", "analysis", "network", "simulate",
          "config", "cli", "scipy")
PACKAGE_MODULES = ("specfun", "channel", "hardware", "analysis", "network",
                   "simulate", "config", "cli")
SIM_FUNCTIONS = ("simulate_mesh", "simulate_route", "simulate_rf_hop", "simulate_fso_hop")
PDF_FUNCTIONS = ("rician_gain_pdf", "rician_sum_pdf", "rician_sum_pdf_bessel", "fso_pdf")


def _hops(scenario):
    routes = getattr(scenario, "routes", None)
    if routes is not None:
        return [h for r in routes for h in r.hops]
    return list(getattr(scenario, "hops", None) or [scenario])


def _rounds(hop):
    return hop.M * (hop.C if hasattr(hop, "C") else hop.C_tilde)


class Tracer:
    def __init__(self):
        self.names = []        # span name per name id
        self.layer_of = []     # layer index per name id
        self.calls = []        # calls per name id, nested ones included
        self.errors = []       # exceptions leaving a layer, per name id
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.stack_layer = [-1]
        self.op_id = 0
        self.draws = 0
        self.fso_hops = set()
        self._undo = []

    # ---- wrapping -------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str, hook=None):
        nid = self._register(name, layer)
        lid = LAYERS.index(layer)
        calls, errors = self.calls, self.errors
        stack, stack_layer = self.stack, self.stack_layer
        name_ids, parents, ops, starts, ends = (
            self.name_id, self.parent, self.op, self.start, self.end)

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if hook is not None:
                hook(args)
            if stack_layer[-1] == lid:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            ends.append(0)
            stack.append(idx)
            stack_layer.append(lid)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
                stack_layer.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_draws(self, args):
        scenario, mc = args[0], args[1]
        self.draws += mc.trials * sum(_rounds(h) for h in _hops(scenario))

    def _count_fso_hop(self, args):
        self.fso_hops.add(args[0])

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        modules = {m: importlib.import_module(f"linkplan.{m}") for m in PACKAGE_MODULES}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    hook = None
                    if layer == "simulate" and attr in SIM_FUNCTIONS:
                        hook = self._count_draws
                    elif layer == "analysis" and attr == "fso_moments":
                        hook = self._count_fso_hop
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}", layer, hook)
        analysis = modules["analysis"]
        wrappers[id(analysis.quad)] = self._wrap(analysis.quad, "scipy.quad", "scipy")
        sc = modules["config"].ScenarioConfig
        self._set(sc, "materialize",
                  self._wrap(sc.materialize, "config.materialize", "config"))
        for mod in [importlib.import_module("linkplan"), *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            self._set(value, key, wrappers[id(entry)])

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # ---- derived numbers --------------------------------------------------

    def _count(self, prefix, names=None):
        return sum(c for n, c in zip(self.names, self.calls)
                   if n.startswith(prefix + ".")
                   and (names is None or n.split(".", 1)[1] in names))

    def layer_metrics(self) -> dict:
        """Per-layer counts and times (seconds) of everything traced so far."""
        n = len(self.start)
        dur = (np.frombuffer(self.end, dtype=np.int64)[:n]
               - np.frombuffer(self.start, dtype=np.int64)[:n]).astype(np.float64) * 1e-9
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child[:n]
        layer = np.asarray(self.layer_of, dtype=np.int64)[name_id]
        self_s = np.bincount(layer, weights=own, minlength=len(LAYERS))
        incl = np.bincount(name_id, weights=dur, minlength=len(self.names))
        by_name = dict(zip(self.names, incl))
        errors = {lay: sum(e for nm, e in zip(self.names, self.errors)
                           if nm.startswith(lay + ".")) for lay in LAYERS}
        m = {f"{lay}.self_s": float(self_s[i]) for i, lay in enumerate(LAYERS)}
        fso_calls = self.calls[self.names.index("analysis.fso_moments")]
        m.update({
            "specfun.calls": self._count("specfun"),
            "channel.pdf_calls": self._count("channel", PDF_FUNCTIONS),
            "hardware.calls": self._count("hardware"),
            "analysis.hop_evals": self._count("analysis", ("hop_outage", "hop_ergodic_rate")),
            "analysis.quad_calls": self._count("scipy"),
            "analysis.errors": errors["analysis"],
            "analysis.fso_moments_calls": fso_calls,
            "analysis.fso_moments_unique_ratio":
                len(self.fso_hops) / fso_calls if fso_calls else 0.0,
            "network.evals": self._count("network"),
            "simulate.sim_calls": self._count("simulate", SIM_FUNCTIONS),
            "simulate.draws": self.draws,
            "simulate.draws_per_s":
                self.draws / m["simulate.self_s"] if m["simulate.self_s"] else 0.0,
            "simulate.errors": errors["simulate"],
            "config.load_s": float(by_name["config.load_config"]),
            "config.materialize_calls": self.calls[self.names.index("config.materialize")],
            "config.materialize_s": float(by_name["config.materialize"]),
            "trace.spans": n,
        })
        return m

    def write(self, path: str):
        """Spans as gzip CSV: id,name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,op\n")
            names = self.names
            for i, (nid, s, e, p, o) in enumerate(zip(self.name_id, self.start, self.end,
                                                      self.parent, self.op)):
                fh.write(f"{i},{names[nid]},{s},{e},{p},{o}\n")
