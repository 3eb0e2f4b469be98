"""Scenario config tests: `ScenarioConfig.point` builds, for one grid value of
each sweep variable, the hops a hand-built scenario would hold; `load_config`
parses with libyaml and reports YAML it cannot parse as a config error; and a
wrong value, unknown key or missing key in any mapping is a config error that
names the key."""

import copy
import dataclasses
import math
import pathlib
import re

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkplan import config
from linkplan.analysis import FsoHopParams, RfHopParams
from linkplan.channel import FsoExponential, FsoGammaGamma, RicianFading
from linkplan.cli import main
from linkplan.config import ConfigError, load_config, parse_config
from linkplan.hardware import PaConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

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


def test_point_snr_db_anchors_fso_only_scenario_at_first_fso_hop():
    # with no RF hop the first FSO hop's p_tx_db is the anchor: 16 dB on an
    # anchor at 10 dB moves both transmit powers by +6 dB
    doc = {"fso_hops": [dict(DOC["fso_hops"][1]),
                        dict(DOC["fso_hops"][0], p_tx_db=13.0)],
           "routes": [["fso:0"], ["fso:1"]],
           "sweep": {"variable": "snr_db", "grid": [16.0]}}
    cfg = parse_config(doc)
    assert cfg.anchor_db() == pytest.approx(10.0, rel=1e-12)
    rf, fso, mesh = cfg.point(16.0)
    assert rf == []
    expect = [FsoHopParams(FsoGammaGamma(4.3939, 2.5636), 10.0 ** 1.6, 2, 3, 1.0),
              FsoHopParams(FsoExponential(1.0), 10.0 ** 1.9, 1, 20, 2.0)]
    assert [_flat(h) for h in fso] == [pytest.approx(_flat(h), rel=1e-12) for h in expect]
    assert [r.hops for r in mesh.routes] == [(fso[0],), (fso[1],)]


@pytest.mark.parametrize("snr_db, message", [
    (4000.0, "fso:0: p_tx 10 shifted by 3990 dB overflows a float"),
    (-4000.0, "fso:0: p_tx 10 shifted by -4010 dB underflows to 0"),
])
def test_point_past_float_range_names_the_fso_hop(snr_db, message):
    # the FSO-only scenario above, anchored at 10 dB, shifted out of range
    doc = {"fso_hops": [dict(DOC["fso_hops"][1]), dict(DOC["fso_hops"][0], p_tx_db=13.0)],
           "routes": [["fso:0"], ["fso:1"]],
           "sweep": {"variable": "snr_db", "grid": [16.0]}}
    with pytest.raises(ValueError) as err:
        parse_config(doc).point(snr_db)
    assert (type(err.value), str(err.value)) == (ValueError, message)


# ----------------------------------------------------------------------------
# YAML parsing
# ----------------------------------------------------------------------------

def test_malformed_yaml_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("rf_hops: [{K: 2.0, omega: 1.0\nroutes: [[rf:0]]\n")
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    assert str(info.value).startswith("<file>: not parseable YAML")
    assert main(["outage-sweep", "--config", str(path)]) == 2
    assert "config error: <file>: not parseable YAML" in capsys.readouterr().err


# YAML 1.1 readings the scenario parser sees: `1e5` (no dot) is a string, so
# `trials: 1e5` is rejected as not an integer; yes/on are booleans; a
# duplicate key keeps its last value; flow mappings and sequences nest
QUIRKS = """\
trials: 1e5
drive: 1.0e+5
flags: [yes, on, off]
M: 1
M: 3
hop: {K: 2.0, N: 40, pa: {p_max_db: 25.0}}
"""


def _readme_scenario():
    return re.search(r"```yaml\n(# scenario\.yaml\n.*?)```", README.read_text(),
                     re.S).group(1)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_reads_what_the_pure_python_parser_reads():
    assert config._YAML_LOADER is yaml.CSafeLoader
    readme = _readme_scenario()
    for text in (readme, QUIRKS):
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    assert yaml.load(QUIRKS, Loader=yaml.CSafeLoader) == {
        "trials": "1e5", "drive": 1e5, "flags": [True, True, False], "M": 3,
        "hop": {"K": 2.0, "N": 40, "pa": {"p_max_db": 25.0}}}
    parse_config(yaml.load(readme, Loader=yaml.CSafeLoader))  # a valid scenario


def test_yaml_1e5_trials_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(DOC) + "mc: {trials: 1e5}\n")
    with pytest.raises(ConfigError, match=r"mc\.trials: expected an integer, got '1e5'"):
        load_config(str(path))


# ----------------------------------------------------------------------------
# number fields
# ----------------------------------------------------------------------------

# every numeric field of DOC, as the path into the document: both RF hops
# (one PA without p_max_db), both FSO laws (one hop coupled, without
# p_tx_db), mc, analysis and the sweep grid; a missing field is added
NUMBER_FIELDS = (
    [("rf_hops", i, key) for i in (0, 1) for key in ("K", "omega", "R")]
    + [("rf_hops", i, "pa", key) for i in (0, 1)
       for key in ("epsilon", "theta_pa", "p_cons_db", "p_max_db")]
    + [("fso_hops", 0, key) for key in ("lambda", "R", "p_tx_db")]
    + [("fso_hops", 1, key) for key in ("a", "b", "R", "p_tx_db")]
    + [("analysis", "theta"), ("sweep", "grid", 0)])


def _field_name(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(NUMBER_FIELDS),
       value=st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -(10**400)]))
def test_non_finite_number_names_its_field(path, value):
    doc = copy.deepcopy(DOC)
    mapping = doc
    for p in path[:-1]:
        mapping = mapping.setdefault(p, {}) if isinstance(p, str) else mapping[p]
    mapping[path[-1]] = value
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == f"{_field_name(path)}: must be finite"


# ----------------------------------------------------------------------------
# the whole grammar: one edit of the README scenario
# ----------------------------------------------------------------------------

README_DOC = yaml.safe_load(_readme_scenario())
MAPPINGS = [(), ("rf_hops", 0), ("rf_hops", 0, "pa"), ("fso_hops", 0), ("sweep",), ("mc",),
            ("analysis",)]
# the keys the README scenario must give (p_max_db, since its theta_pa > 0)
REQUIRED = {(): ("sweep",), ("rf_hops", 0): ("K", "N", "R", "pa"),
            ("rf_hops", 0, "pa"): ("p_cons_db", "p_max_db"),
            ("fso_hops", 0): ("model", "a", "b", "R"), ("sweep",): ("variable", "grid")}
# values of the wrong kind for every key, and numbers out of range for some
# keys (none that another key's rule could reject: at 4000 dB every power is
# past a float)
VALUES = [["x"], {"a": 1}, None, True, "x", -1, 0, -0.5, 1.5, 4000.0, -4000.0, math.inf,
          math.nan]


def _mapping(doc, where):
    for p in where:
        doc = doc[p]
    return doc


EDITS = st.one_of(
    st.tuples(st.just("set"),
              st.sampled_from([(m, k) for m in MAPPINGS for k in _mapping(README_DOC, m)]),
              st.sampled_from(VALUES)),
    st.tuples(st.just("add"), st.sampled_from([(m, "zz") for m in MAPPINGS]), st.just(1.0)),
    st.tuples(st.just("remove"),
              st.sampled_from([(m, k) for m, keys in REQUIRED.items() for k in keys]),
              st.none()))


@settings(max_examples=300, deadline=None)
@given(edit=EDITS)
@example(edit=("set", (("sweep",), "variable"), ["snr_db"]))
@example(edit=("set", (("sweep",), "variable"), {"a": 1}))
def test_one_edit_parses_or_names_its_key(edit):
    # a YAML list once reached a dict-membership test (`TypeError:
    # unhashable type`) before anything checked its type
    op, (where, key), value = edit
    doc = copy.deepcopy(README_DOC)
    mapping = _mapping(doc, where)
    if op == "remove":
        del mapping[key]
    else:
        mapping[key] = value
    # every edit is rejected but a number, which may be in range, and
    # `routes: null`, which reads as if absent
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    rejected = not (op == "set" and (number or (where, key, value) == ((), "routes", None)))
    try:
        cfg = parse_config(doc)
    except ConfigError as exc:
        # `McConfig` states mc's ranges, for the file and the --trials/--seed flags
        if where != ("mc",) or not str(exc).startswith(f"mc: {key} "):
            assert re.match(rf"{re.escape(_field_name((*where, key)))}(: |\.|\[)", str(exc))
    else:
        assert not rejected and isinstance(cfg, config.ScenarioConfig)


@pytest.mark.parametrize("value", [["snr_db"], {"a": 1}])
def test_unhashable_sweep_variable_exits_2(tmp_path, capsys, value):
    doc = copy.deepcopy(README_DOC)
    doc["sweep"]["variable"] = value
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["outage-sweep", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: sweep.variable: must be one of ")


@pytest.mark.parametrize("edit, message", [
    # str.isdigit() holds for '²', which int() then refused with a ValueError
    (lambda d: d.update(routes=[["rf:²", "fso:0"]]),
     "routes[0][0]: expected 'rf:<i>' or 'fso:<i>', got 'rf:²'"),
    # N * P_cons of the coupled FSO hop: an OverflowError, or an infinite
    # transmit power that `FsoHopParams` refused with a ValueError
    (lambda d: d["rf_hops"][0].update(N=10**400),
     "fso_hops[0].p_tx_db: N * P_cons is beyond the range of a float"),
    (lambda d: d["rf_hops"][0].update(N=10**10, pa={"p_cons_db": 3000.0}),
     "fso_hops[0].p_tx_db: N * P_cons is beyond the range of a float"),
], ids=["route_ref_digit", "coupled_n_past_float", "coupled_power_past_float"])
def test_parser_crash_is_a_config_error(edit, message):
    doc = copy.deepcopy(README_DOC)
    edit(doc)
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == message
