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
from dataclasses import dataclass, replace

from .analysis import (
    FSO_CLT,
    RF_LINEARIZED,
    FsoHopParams,
    OutageEstimate,
    RfHopParams,
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
    """[fn(item) for item in items]; what fn(items[j]) raises gets `label j: `."""
    out = []
    for j, item in enumerate(items):
        try:
            out.append(fn(item))
        except Exception as exc:
            raise type(exc)(f"{label} {j}: {exc}") from exc
    return out


def _check_route(route: Route, rf_method: str, fso_method: str):
    _each("hop", route.hops, lambda h: check_hop(h, rf_method, fso_method))


def route_outage(route: Route, rf_method: str = RF_LINEARIZED,
                 fso_method: str = FSO_CLT, theta: float = 1.0) -> OutageEstimate:
    """Analytic route outage: check every hop, evaluate each, compose serially."""
    _check_route(route, rf_method, fso_method)
    ests = _each("hop", route.hops,
                 lambda h: hop_outage(h, rf_method, fso_method, theta))
    return OutageEstimate(_combine_serial(ests), _method_label(ests))


def mesh_outage(mesh: MeshNetwork, rf_method: str = RF_LINEARIZED,
                fso_method: str = FSO_CLT, theta: float = 1.0) -> OutageEstimate:
    """Mesh (all-routes-fail) outage: product over route outages, once every
    hop of every route has passed `check_hop`."""
    _each("route", mesh.routes, lambda r: _check_route(r, rf_method, fso_method))
    ests = _each("route", mesh.routes,
                 lambda r: route_outage(r, rf_method, fso_method, theta))
    value = math.prod(sorted(e.value for e in ests))
    return OutageEstimate(value, _method_label(ests))


def route_ergodic_rate(route: Route) -> float:
    """A decode-and-forward chain runs at its slowest hop."""
    return min(hop_ergodic_rate(h) for h in route.hops)


def route_limiting_hop(route: Route) -> int:
    """Index of the hop whose ergodic rate limits the route."""
    rates = [hop_ergodic_rate(h) for h in route.hops]
    return min(range(len(rates)), key=rates.__getitem__)


def mesh_ergodic_rate(mesh: MeshNetwork) -> float:
    """The mesh delivers at the rate of its best route."""
    return max(route_ergodic_rate(r) for r in mesh.routes)


def _shift_hop(hop, delta_db: float):
    """Copy of an RF or FSO hop with its drive power moved by delta_db."""
    factor = 10.0 ** (delta_db / 10.0)
    if isinstance(hop, RfHopParams):
        return replace(hop, pa=hop.pa.with_drive(hop.pa.p_cons * factor))
    return replace(hop, p_tx=hop.p_tx * factor)


def shift_scenario(scenario, delta_db: float):
    """Move every hop's drive power by a common dB offset."""
    if isinstance(scenario, Route):
        return Route(tuple(_shift_hop(h, delta_db) for h in scenario.hops))
    if isinstance(scenario, MeshNetwork):
        return MeshNetwork(tuple(shift_scenario(r, delta_db) for r in scenario.routes))
    raise TypeError(f"unsupported scenario type {type(scenario).__name__}")
