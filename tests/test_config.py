"""Scenario config tests: `ScenarioConfig.point` builds, for one grid value of
each sweep variable, the hops a hand-built scenario would hold."""

import copy
import dataclasses

import pytest

from linkplan.analysis import FsoHopParams, RfHopParams
from linkplan.channel import FsoExponential, FsoGammaGamma, RicianFading
from linkplan.config import parse_config
from linkplan.hardware import PaConfig

DOC = {
    "rf_hops": [
        {"K": 0.01, "omega": 1.0, "N": 20, "M": 1, "C": 10, "R": 2.0,
         "pa": {"epsilon": 0.75, "theta_pa": 0.5, "p_max_db": 10.0, "p_cons_db": -7.0}},
        {"K": 2.0, "omega": 0.5, "N": 8, "M": 2, "C": 3, "R": 1.0,
         "pa": {"epsilon": 1.0, "theta_pa": 0.0, "p_cons_db": -5.0}},
    ],
    "fso_hops": [
        # p_tx coupled to N * P_cons of rf:0
        {"model": "exponential", "lambda": 1.0, "M": 1, "C_tilde": 20, "R": 2.0},
        {"model": "gamma_gamma", "a": 4.3939, "b": 2.5636, "M": 2, "C_tilde": 3,
         "R": 1.0, "p_tx_db": 10.0},
    ],
    "routes": [["rf:0", "fso:0"], ["rf:1", "fso:1"]],
    "sweep": {"variable": "snr_db", "grid": [-4.0]},
}


def _rf(N0=20, N1=8, M=None, shift_db=0.0):
    p = 10.0 ** (shift_db / 10.0)
    return [RfHopParams(RicianFading(0.01, 1.0, N0),
                        PaConfig(0.75, 0.5, 10.0, 10.0 ** -0.7 * p), M or 1, 10, 2.0),
            RfHopParams(RicianFading(2.0, 0.5, N1),
                        PaConfig(1.0, 0.0, float("inf"), 10.0 ** -0.5 * p), M or 2, 3, 1.0)]


def _fso(rf0, M=None, shift_db=0.0):
    coupled = rf0.fading.N * rf0.pa.p_cons
    return [FsoHopParams(FsoExponential(1.0), coupled, M or 1, 20, 2.0),
            FsoHopParams(FsoGammaGamma(4.3939, 2.5636), 10.0 ** ((10.0 + shift_db) / 10.0),
                         M or 2, 3, 1.0)]


def _flat(x):
    """A hop as type names and numbers, in field order."""
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [v for f in dataclasses.fields(x)
                                     for v in _flat(getattr(x, f.name))]
    return [x]


def _point(variable, value):
    doc = copy.deepcopy(DOC)
    doc["sweep"] = {"variable": variable, "grid": [value]}
    return parse_config(doc).point(value)


def _assert_point(point, rf, fso, routes):
    got_rf, got_fso, mesh = point
    assert [_flat(h) for h in got_rf] == [pytest.approx(_flat(h), rel=1e-12) for h in rf]
    assert [_flat(h) for h in got_fso] == [pytest.approx(_flat(h), rel=1e-12) for h in fso]
    assert [r.hops for r in mesh.routes] == [(got_rf[i], got_fso[i]) for i in range(routes)]


def test_point_snr_db_shifts_every_drive():
    # -4 dB on an anchor at -7 dB: every RF drive and the explicit p_tx move
    # by +3 dB; the coupled p_tx follows N * P_cons of rf:0 at the point
    rf = _rf(shift_db=3.0)
    _assert_point(_point("snr_db", -4.0), rf, _fso(rf[0], shift_db=3.0), 2)


def test_point_n_recouples_fso_power():
    rf = _rf(N0=30, N1=30)
    fso = _fso(rf[0])
    assert fso[0].p_tx == pytest.approx(30 * 10.0 ** -0.7, rel=1e-12)
    _assert_point(_point("N", 30), rf, fso, 2)


def test_point_m_overrides_both_link_types():
    rf = _rf(M=3)
    _assert_point(_point("M", 3), rf, _fso(rf[0], M=3), 2)


def test_point_routes_truncates_route_list():
    rf = _rf()
    _assert_point(_point("routes", 1), rf, _fso(rf[0]), 1)
