"""Route/mesh composition: serial and parallel outage algebra, rate bottlenecks."""

import gc
import itertools

import pytest
from numpy.testing import assert_allclose

from linkplan.analysis import (
    FSO_CLT,
    FSO_PRODUCT_BOUND,
    RF_JENSEN_UPPER,
    RF_LINEARIZED,
    RF_PIECEWISE,
    RF_SINGLE_SHOT,
    FsoHopParams,
    OutageEstimate,
    RfHopParams,
    hop_ergodic_rate,
    hop_outage,
)
from linkplan.channel import FsoExponential, FsoGammaGamma, RicianFading
from linkplan.hardware import PaConfig
from linkplan import network
from linkplan.network import (
    MeshNetwork,
    Route,
    _combine_serial,
    mesh_ergodic_rate,
    mesh_outage,
    mesh_outages,
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


def test_product_bound_rejected_before_any_hop_is_evaluated(monkeypatch):
    # route 0 can take the product bound, route 1's exponential hop cannot:
    # the mesh must refuse before it computes route 0's product CDF, and a
    # route before it computes the CDF of its Gamma-Gamma hop
    from linkplan import specfun
    calls = []
    real = specfun.gg_product_cdf
    monkeypatch.setattr(specfun, "gg_product_cdf",
                        lambda *args: calls.append(args) or real(*args))
    gg_hop = _fso(2.0, m=2, c=3, model=GG)
    gg_route = Route(hops=(_rf(0.1), gg_hop))
    mesh = MeshNetwork(routes=(gg_route, Route(hops=(_rf(0.1), _fso(2.0)))))
    with pytest.raises(TypeError, match=r"^route 1: hop 1: product bound "
                                        r"requires the Gamma-Gamma model$"):
        mesh_outage(mesh, fso_method=FSO_PRODUCT_BOUND)
    with pytest.raises(TypeError, match=r"^hop 1: product bound"):
        route_outage(Route(hops=(gg_hop, _fso(2.0))), fso_method=FSO_PRODUCT_BOUND)
    assert calls == []
    mesh_outage(MeshNetwork(routes=(gg_route,)), fso_method=FSO_PRODUCT_BOUND)
    assert len(calls) == 1


def test_unknown_method_rejected_before_any_hop_is_evaluated(monkeypatch):
    # an RF tag given to the FSO slot fails on route 1 before route 0 runs
    import linkplan.analysis as an
    monkeypatch.setitem(an.EVALUATORS, RF_LINEARIZED, an.Evaluator(
        RfHopParams, lambda h, theta: pytest.fail("route 0 was evaluated"), an.ESTIMATE))
    mesh = MeshNetwork(routes=(Route(hops=(_rf(0.1),)), Route(hops=(_fso(2.0),))))
    with pytest.raises(ValueError, match=r"^route 1: hop 0: unknown FSO method"):
        mesh_outage(mesh, fso_method=RF_LINEARIZED)


def _counting(monkeypatch, name):
    """Count the calls the composition makes to `network.<name>`, per hop and
    the method that hop takes."""
    calls = {}
    real = getattr(network, name)

    def count(hop, rf_method=RF_LINEARIZED, fso_method=FSO_CLT, *rest):
        key = (id(hop), rf_method if isinstance(hop, RfHopParams) else fso_method)
        calls[key] = calls.get(key, 0) + 1
        return real(hop, rf_method, fso_method, *rest)

    monkeypatch.setattr(network, name, count)
    return calls


# route 0 takes every method; route 1's M=2 RF hop fails single-shot and its
# exponential hop fails the product bound
_PAIRS_MESH = MeshNetwork(routes=(
    Route(hops=(_rf(0.1), _fso(2.0, m=2, c=3, model=GG))),
    Route(hops=(_rf(0.1, m=2), _fso(2.0)))))
_PAIRS = [(RF_LINEARIZED, FSO_CLT), (RF_PIECEWISE, FSO_CLT), (RF_SINGLE_SHOT, FSO_CLT),
          (RF_JENSEN_UPPER, FSO_CLT), (RF_LINEARIZED, FSO_PRODUCT_BOUND),
          (RF_PIECEWISE, FSO_CLT)]


def test_mesh_outages_equal_mesh_outage_per_pair():
    got = mesh_outages(_PAIRS_MESH, _PAIRS, theta=0.5)
    assert len(got) == len(_PAIRS)
    for (rf_method, fso_method), est in zip(_PAIRS, got):
        try:
            want = mesh_outage(_PAIRS_MESH, rf_method, fso_method, theta=0.5)
        except Exception as exc:
            assert type(est) is type(exc) and str(est) == str(exc)
        else:
            assert est == want
    assert str(got[2]) == "route 1: hop 0: single-shot evaluator requires M=C=1, got M=2, C=1"
    assert str(got[4]) == "route 1: hop 1: product bound requires the Gamma-Gamma model"


def test_mesh_outages_evaluate_each_hop_once_per_method(monkeypatch):
    evals = _counting(monkeypatch, "hop_outage")
    checks = _counting(monkeypatch, "check_hop")
    mesh_outages(_PAIRS_MESH, _PAIRS)
    assert set(evals.values()) == {1}
    assert set(checks.values()) == {1}
    rf0, gg, rf1, exp = (h for r in _PAIRS_MESH.routes for h in r.hops)
    # the product-bound pair is refused by its check before any numerics,
    # and single-shot stops at route 1's RF hop, before its FSO hop
    assert sorted(k[1] for k in evals if k[0] == id(gg)) == [FSO_CLT]
    assert (id(rf1), RF_SINGLE_SHOT) in evals
    assert len(evals) == 2 * 4 + 2
    assert len(checks) == 2 * 4 + 2 * 2


def test_mesh_outage_checks_and_evaluates_each_hop_once(monkeypatch):
    evals = _counting(monkeypatch, "hop_outage")
    checks = _counting(monkeypatch, "check_hop")
    route = Route(hops=(_rf(0.1), _fso(2.0), _rf(0.2)))
    mesh = MeshNetwork(routes=(route, Route(hops=(_fso(3.0),))))
    mesh_outage(mesh, rf_method=RF_PIECEWISE)
    assert list(evals.values()) == list(checks.values()) == [1] * 4


def test_composition_errors_leave_no_reference_cycles():
    # every error's traceback leads back into the composition's frames: an
    # error kept there made each failing sweep point garbage that only the
    # cycle collector frees, which raised the benchmark's peak memory
    mesh_outages(_PAIRS_MESH, _PAIRS)
    gc.collect()
    gc.disable()
    try:
        assert isinstance(mesh_outages(_PAIRS_MESH, _PAIRS)[2], ValueError)
        try:
            mesh_outage(_PAIRS_MESH, rf_method=RF_SINGLE_SHOT)
        except ValueError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


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
