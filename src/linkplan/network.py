"""Route / mesh composition of per-hop outage and ergodic rate.

A route is an ordered chain of decode-and-forward hops: the message gets
through only if every hop decodes, so the route outage is
1 - prod_i (1 - phi_i) and hop order is irrelevant.  A mesh is a set of
non-overlapping routes from source to destination; it is in outage only
when all routes fail, so the mesh outage is the product of route outages
and the mesh rate is the rate of the best route.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import (
    FSO_CLT,
    RF_LINEARIZED,
    FsoHopParams,
    OutageEstimate,
    RfHopParams,
    _hop_kind,
    check_hop,
    hop_ergodic_rate,
    hop_outage,
)


@dataclass(frozen=True)
class Route:
    """Ordered decode-and-forward chain of RF and/or FSO hops."""

    hops: tuple  # tuple of RfHopParams | FsoHopParams

    def __post_init__(self):
        object.__setattr__(self, "hops", tuple(self.hops))
        if len(self.hops) == 0:
            raise ValueError("route must contain at least one hop")
        for j, hop in enumerate(self.hops):
            if not isinstance(hop, (RfHopParams, FsoHopParams)):
                raise ValueError(f"hop {j}: unsupported hop type {type(hop).__name__}")


@dataclass(frozen=True)
class MeshNetwork:
    """Parallel non-overlapping routes; delivery succeeds if any route does."""

    routes: tuple  # tuple of Route

    def __post_init__(self):
        object.__setattr__(self, "routes", tuple(self.routes))
        if len(self.routes) == 0:
            raise ValueError("mesh must contain at least one route")
        for j, r in enumerate(self.routes):
            if not isinstance(r, Route):
                raise ValueError(f"route {j}: expected Route, got {type(r).__name__}")


def _combine_serial(estimates):
    """1 - prod(1-phi_i): the chain fails unless every hop decodes.  The
    factors are multiplied in sorted order, so not even the last bit of the
    result depends on hop order."""
    return 1.0 - math.prod(sorted(1.0 - e.value for e in estimates))


def _method_label(estimates):
    tags = []
    for e in estimates:
        if e.method not in tags:
            tags.append(e.method)
    return tags[0] if len(tags) == 1 else "+".join(tags)


def _each(label, items, fn):
    """[fn(item) for item in items]; what fn(items[j]) raises gets `{label}{j}: `."""
    out = []
    for j, item in enumerate(items):
        try:
            out.append(fn(item))
        except Exception as exc:
            raise type(exc)(f"{label}{j}: {exc}") from exc
    return out


def route_outage(route: Route, rf_method: str = RF_LINEARIZED,
                 fso_method: str = FSO_CLT, theta: float = 1.0) -> OutageEstimate:
    """Analytic route outage: check every hop, evaluate each, compose serially."""
    _each("hop ", route.hops, lambda h: check_hop(h, rf_method, fso_method))
    return _serial(route, lambda h: hop_outage(h, rf_method, fso_method, theta))


def _serial(route: Route, evaluate) -> OutageEstimate:
    ests = _each("hop ", route.hops, evaluate)
    return OutageEstimate(_combine_serial(ests), _method_label(ests))


def mesh_outage(mesh: MeshNetwork, rf_method: str = RF_LINEARIZED,
                fso_method: str = FSO_CLT, theta: float = 1.0) -> OutageEstimate:
    """Mesh (all-routes-fail) outage: product over route outages, once every
    hop of every route has passed `check_hop`; `mesh_outages` for one pair."""
    ests = mesh_outages(mesh, [(rf_method, fso_method)], theta)
    if isinstance(ests[0], Exception):
        raise ests.pop()  # held by no local, so it leaves no reference cycle
    return ests[0]


def mesh_outages(mesh: MeshNetwork, pairs, theta: float = 1.0) -> list:
    """`mesh_outage` for each (rf_method, fso_method) pair: its estimate, or
    the exception it raised (`route i: hop j: ...`).  The pairs share one
    `check_hop` and one `hop_outage` call per hop and method that hop takes."""
    done = {}  # (fn, hop identity, method) -> result; the mesh keeps every hop alive

    def once(fn, hop, rf_method, fso_method, *args):
        key = (fn, id(hop), _hop_kind(hop, rf_method, fso_method)[1])
        if key not in done:
            done[key] = _caught(fn, hop, rf_method, fso_method, *args)
        if isinstance(done[key], Exception):
            raise done[key]
        return done[key]

    def outage(rf, fso):
        _each("route ", mesh.routes,
              lambda r: _each("hop ", r.hops, lambda h: once(check_hop, h, rf, fso)))
        ests = _each("route ", mesh.routes,
                     lambda r: _serial(r, lambda h: once(hop_outage, h, rf, fso, theta)))
        return OutageEstimate(math.prod(sorted(e.value for e in ests)), _method_label(ests))

    try:
        return [_caught(outage, rf, fso) for rf, fso in pairs]
    finally:
        done.clear()  # each error's traceback leads back here: leave no cycle


def _caught(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _slowest_hop(route: Route):
    """(ergodic rate, index) of the route's first slowest hop: a
    decode-and-forward chain runs at its slowest hop.  An error gets `hop j: `."""
    rates = _each("hop ", route.hops, hop_ergodic_rate)
    j = min(range(len(rates)), key=rates.__getitem__)
    return rates[j], j


def _fastest_route(mesh: MeshNetwork):
    """(ergodic rate, route index, hop index) of the mesh's first fastest
    route and its first slowest hop: the mesh delivers at its best route's
    rate.  Each hop's rate is computed once; an error gets `route i: hop j: `."""
    slowest = _each("route ", mesh.routes, _slowest_hop)
    i = max(range(len(slowest)), key=lambda i: slowest[i][0])
    return slowest[i][0], i, slowest[i][1]


def route_ergodic_rate(route: Route) -> float:
    """A decode-and-forward chain runs at its slowest hop."""
    return _slowest_hop(route)[0]


def route_limiting_hop(route: Route) -> int:
    """Index of the hop whose ergodic rate limits the route."""
    return _slowest_hop(route)[1]


def mesh_ergodic_rate(mesh: MeshNetwork) -> float:
    """The mesh delivers at the rate of its best route."""
    return _fastest_route(mesh)[0]


def shift_scenario(scenario, delta_db: float):
    """Move every hop's drive power by a common dB offset."""
    if isinstance(scenario, Route):
        return Route(tuple(h.shifted(delta_db) for h in scenario.hops))
    if isinstance(scenario, MeshNetwork):
        return MeshNetwork(tuple(shift_scenario(r, delta_db) for r in scenario.routes))
    raise TypeError(f"unsupported scenario type {type(scenario).__name__}")
