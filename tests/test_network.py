"""Route/mesh composition: serial and parallel outage algebra, rate bottlenecks."""

import itertools

import pytest
from numpy.testing import assert_allclose

from linkplan.analysis import (
    FSO_CLT,
    RF_LINEARIZED,
    RF_SINGLE_SHOT,
    FsoHopParams,
    OutageEstimate,
    RfHopParams,
    hop_ergodic_rate,
    hop_outage,
)
from linkplan.channel import FsoExponential, FsoGammaGamma, RicianFading
from linkplan.hardware import PaConfig
from linkplan.network import (
    MeshNetwork,
    Route,
    _combine_serial,
    mesh_ergodic_rate,
    mesh_outage,
    route_ergodic_rate,
    route_limiting_hop,
    route_outage,
)

GG = FsoGammaGamma(a=4.3939, b=2.5636)


def _rf(p, n=4, m=1, c=1, r=1.0):
    return RfHopParams(fading=RicianFading(0.01, 1.0, n), pa=PaConfig.ideal(p),
                       M=m, C=c, R=r)


def _fso(p, m=1, c=1, r=1.0, model=None):
    return FsoHopParams(model=model or FsoExponential(lam=1.0), p_tx=p, M=m,
                        C_tilde=c, R=r)


# ----------------------------------------------------------------------------
# serial / parallel combinators
# ----------------------------------------------------------------------------

def test_serial_two_hops_hand_value():
    ests = [OutageEstimate(0.1, "x"), OutageEstimate(0.1, "x")]
    assert_allclose(_combine_serial(ests), 0.19, rtol=1e-15)


def test_serial_order_free_to_the_bit():
    # multiplied in hop order, these survival factors give two results one
    # ulp apart depending on the order
    phis = (0.259, 0.511, 0.405)
    got = {_combine_serial([OutageEstimate(v, "x") for v in order])
           for order in itertools.permutations(phis)}
    assert len(got) == 1
    assert_allclose(got.pop(), 0.784402345, rtol=1e-15)


def test_mesh_two_routes_hand_value():
    hop = _rf(0.1, n=2, r=2.0)
    phi = hop_outage(hop).value
    mesh = MeshNetwork(routes=(Route(hops=(hop,)), Route(hops=(hop,))))
    assert_allclose(mesh_outage(mesh).value, phi * phi, rtol=1e-14)


def test_route_outage_matches_hop_product():
    hops = (_rf(0.1, r=2.0), _fso(1.0, r=2.0))
    phis = [hop_outage(h).value for h in hops]
    expect = 1.0 - (1.0 - phis[0]) * (1.0 - phis[1])
    got = route_outage(Route(hops=hops))
    assert_allclose(got.value, expect, rtol=1e-14)
    assert got.method == f"{RF_LINEARIZED}+{FSO_CLT}"


def test_route_outage_order_invariant_bitwise():
    a, b, c = _rf(0.1, r=2.0), _fso(1.0, r=2.0), _rf(0.2, n=2, r=1.5)
    v1 = route_outage(Route(hops=(a, b, c))).value
    v2 = route_outage(Route(hops=(c, b, a))).value
    assert v1 == v2


def test_route_outage_monotone_in_hop_count():
    hops = [_rf(0.1, r=2.0), _fso(1.0, r=2.0), _rf(0.2, n=2, r=1.5)]
    prev = 0.0
    for k in range(1, len(hops) + 1):
        v = route_outage(Route(hops=tuple(hops[:k]))).value
        assert v >= prev - 1e-15
        prev = v


def test_mesh_outage_monotone_in_route_count():
    routes = [Route(hops=(_rf(0.1, r=2.0),)), Route(hops=(_fso(1.0, r=2.0),)),
              Route(hops=(_rf(0.15, n=2, r=1.5),))]
    prev = 1.0
    for k in range(1, len(routes) + 1):
        v = mesh_outage(MeshNetwork(routes=tuple(routes[:k]))).value
        assert v <= prev + 1e-15
        prev = v


def test_single_route_mesh_equals_route():
    r = Route(hops=(_rf(0.1, r=2.0), _fso(1.0, r=2.0)))
    assert mesh_outage(MeshNetwork(routes=(r,))).value == route_outage(r).value


# ----------------------------------------------------------------------------
# rates
# ----------------------------------------------------------------------------

def test_route_rate_is_min_and_limiting_hop():
    hops = (_rf(1.0, n=8), _fso(0.5))
    rates = [hop_ergodic_rate(h) for h in hops]
    r = Route(hops=hops)
    assert route_ergodic_rate(r) == min(rates)
    assert route_limiting_hop(r) == rates.index(min(rates))


def test_mesh_rate_is_max_over_routes():
    r1 = Route(hops=(_rf(1.0, n=8), _fso(0.5)))
    r2 = Route(hops=(_rf(2.0, n=8), _fso(5.0)))
    mesh = MeshNetwork(routes=(r1, r2))
    assert mesh_ergodic_rate(mesh) == max(route_ergodic_rate(r1),
                                          route_ergodic_rate(r2))


def test_bottleneck_switches_with_rf_drive():
    # fixed FSO terminal, RF drive swept: the route bottleneck moves from the
    # RF hop (low drive) to the FSO hop (high drive)
    fso = _fso(2.0)
    low = Route(hops=(_rf(0.01, n=4), fso))
    high = Route(hops=(_rf(20.0, n=4), fso))
    assert route_limiting_hop(low) == 0
    assert route_limiting_hop(high) == 1


# ----------------------------------------------------------------------------
# construction and error context
# ----------------------------------------------------------------------------

def test_route_validation():
    with pytest.raises(ValueError):
        Route(hops=())
    with pytest.raises(ValueError, match="hop 1"):
        Route(hops=(_rf(0.1), "not a hop"))


def test_mesh_validation():
    with pytest.raises(ValueError):
        MeshNetwork(routes=())
    with pytest.raises(ValueError, match="route 0"):
        MeshNetwork(routes=(_rf(0.1),))  # bare hop, not a Route


def test_hop_error_is_prefixed_with_index():
    # single-shot evaluator rejects M=2; the route must say which hop
    bad = _rf(0.1, m=2)
    r = Route(hops=(_rf(0.1), bad))
    with pytest.raises(ValueError, match="hop 1: single-shot"):
        route_outage(r, rf_method=RF_SINGLE_SHOT)


def test_route_error_is_prefixed_with_index():
    bad = Route(hops=(_rf(0.1, m=2),))
    mesh = MeshNetwork(routes=(Route(hops=(_rf(0.1),)), bad))
    with pytest.raises(ValueError, match=r"route 1: hop 0: single-shot"):
        mesh_outage(mesh, rf_method=RF_SINGLE_SHOT)


def test_routes_tuple_frozen():
    r = Route(hops=[_rf(0.1)])  # list input is coerced
    assert isinstance(r.hops, tuple)
    mesh = MeshNetwork(routes=[r])
    assert isinstance(mesh.routes, tuple)


# ----------------------------------------------------------------------------
# qualitative: outage-vs-rate trade when adding a relay
# ----------------------------------------------------------------------------

def test_relay_helps_outage_at_low_snr_but_caps_rate():
    # splitting one long weak hop into a 2-hop relay chain with stronger links:
    # outage improves, but the rate becomes the min over two hops
    weak = Route(hops=(_rf(0.02, n=4, c=10, r=0.5),))
    relay = Route(hops=(_rf(0.2, n=4, c=10, r=0.5), _rf(0.2, n=4, c=10, r=0.5)))
    assert route_outage(relay).value < route_outage(weak).value
    strong_single = Route(hops=(_rf(0.2, n=4, c=10, r=0.5),))
    assert route_ergodic_rate(relay) <= route_ergodic_rate(strong_single)
