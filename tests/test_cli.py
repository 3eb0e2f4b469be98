"""End-to-end CLI tests: YAML config in, CSV / report out, exit codes.

Everything runs in-process through linkplan.cli.main so exit codes and
stdout/stderr behavior are exercised exactly as a shell user would see them.
"""

import copy
import math
import pathlib

import pytest
import yaml

from linkplan.channel import RicianFading
from linkplan.hardware import PaConfig
from linkplan.analysis import rf_ergodic_rate
from linkplan import analysis, cli, network
from linkplan.cli import main
from linkplan.config import load_config
from linkplan.simulate import simulate_mesh

BASE = {
    "rf_hops": [{"K": 0.01, "omega": 1.0, "N": 20, "M": 1, "C": 10, "R": 2.0,
                 "pa": {"epsilon": 1.0, "theta_pa": 0.0, "p_cons_db": -7.0}}],
    "fso_hops": [{"model": "exponential", "lambda": 1.0, "M": 1,
                  "C_tilde": 20, "R": 2.0}],
    "routes": [["rf:0", "fso:0"]],
    "sweep": {"variable": "snr_db", "grid": [-3.5, -3.0, -2.5]},
    "evaluators": ["rf_piecewise_clt", "fso_clt", "monte_carlo"],
    "mc": {"trials": 20000, "seed": 5},
    "analysis": {"theta": 2.0},
}


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def run_to_file(tmp_path, command, cfg_path, extra=(), name="out.csv"):
    out = tmp_path / name
    code = main([command, "--config", cfg_path, "--out", str(out), *extra])
    text = out.read_text() if out.exists() else ""
    return code, text


def data_rows(text):
    """CSV body rows (skip provenance comments and the header row)."""
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


# ----------------------------------------------------------------------------
# determinism / provenance
# ----------------------------------------------------------------------------

def test_outage_sweep_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE)
    code1, text1 = run_to_file(tmp_path, "outage-sweep", cfg, name="a.csv")
    code2, text2 = run_to_file(tmp_path, "outage-sweep", cfg, name="b.csv")
    assert code1 == code2 == 0
    assert text1 == text2
    assert text1  # not empty


def test_outage_sweep_stdout_equals_file(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    _, from_file = run_to_file(tmp_path, "outage-sweep", cfg)
    capsys.readouterr()
    code = main(["outage-sweep", "--config", cfg])
    assert code == 0
    assert capsys.readouterr().out == from_file


def test_provenance_header(tmp_path):
    cfg = write_config(tmp_path, BASE)
    _, text = run_to_file(tmp_path, "outage-sweep", cfg)
    lines = text.splitlines()
    assert lines[0].startswith("# linkplan ")
    assert lines[1].startswith("# config_sha256: ")
    digest = lines[1].split(": ")[1]
    assert len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)
    assert lines[2] == "# seed: 5"
    assert lines[3] == "sweep_var,method,outage,ci_halfwidth,error"


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, BASE)
    _, base_text = run_to_file(tmp_path, "outage-sweep", cfg)
    _, seeded = run_to_file(tmp_path, "outage-sweep", cfg, extra=("--seed", "9"))
    assert "# seed: 9" in seeded
    mc_base = [r for r in data_rows(base_text) if r[1] == "monte_carlo"]
    mc_new = [r for r in data_rows(seeded) if r[1] == "monte_carlo"]
    assert any(a[2] != b[2] for a, b in zip(mc_base, mc_new))


def test_outage_csv_schema(tmp_path):
    cfg = write_config(tmp_path, BASE)
    code, text = run_to_file(tmp_path, "outage-sweep", cfg)
    assert code == 0
    rows = data_rows(text)
    # grid-major ordering, one row per evaluator
    assert len(rows) == 3 * 3
    grid = [-3.5, -3.0, -2.5]
    for gi, g in enumerate(grid):
        chunk = rows[3 * gi:3 * gi + 3]
        assert [r[1] for r in chunk] == BASE["evaluators"]
        for r in chunk:
            assert float(r[0]) == g
            outage = float(r[2])
            assert 0.0 <= outage <= 1.0
            assert r[4] == ""  # no evaluator errors
        # closed forms carry no interval; MC does
        assert float(chunk[0][3]) == 0.0
        assert float(chunk[2][3]) > 0.0


# ----------------------------------------------------------------------------
# Monte Carlo over the grid: one pass per layout, per-point output
# ----------------------------------------------------------------------------

def _saturating_doc():
    # the PA saturates above p_cons = p_max: grid point -2.5 dB fails to build
    doc = copy.deepcopy(BASE)
    doc["rf_hops"][0]["pa"]["p_max_db"] = -2.8
    doc["evaluators"] = ["rf_linearized_clt", "monte_carlo", "fso_clt"]
    return doc


def _run_per_point_and_swept(tmp_path, monkeypatch, command, doc):
    """(reference output with every MC point simulated alone, batched output,
    kernel pass sizes of the batched run)."""
    import linkplan.cli as cli
    import linkplan.simulate as sim
    cfg = write_config(tmp_path, doc)
    with monkeypatch.context() as m:
        m.setattr(cli, "simulate_sweep",
                  lambda meshes, mc: [simulate_mesh(x, mc) for x in meshes])
        ref = run_to_file(tmp_path, command, cfg, name="ref.out")
    passes = []
    real = sim._simulate
    with monkeypatch.context() as m:
        m.setattr(sim, "_simulate",
                  lambda points, mc: passes.append(len(points)) or real(points, mc))
        got = run_to_file(tmp_path, command, cfg, name="got.out")
    return ref, got, passes


def test_outage_sweep_mc_grid_equals_per_point(tmp_path, monkeypatch):
    ref, got, passes = _run_per_point_and_swept(tmp_path, monkeypatch, "outage-sweep",
                                                _saturating_doc())
    assert got == ref
    code, text = got
    assert code == 3
    rows = data_rows(text)
    assert len(rows) == 3 * 3
    for r in rows[:6]:
        assert r[4] == "" and 0.0 < float(r[2]) < 1.0
    for r in rows[6:]:
        assert r[0] == "-2.5" and r[2] == "nan" and "p_max" in r[4]
    assert passes == [2]  # the two built points share one pass


def test_validate_mc_grid_equals_per_point(tmp_path, monkeypatch):
    ref, got, passes = _run_per_point_and_swept(tmp_path, monkeypatch, "validate",
                                                _saturating_doc())
    assert got == ref
    code, text = got
    assert code == 3
    assert text.count(" mc=") == 4
    assert "point=-2.5 status=ERROR detail=" in text
    assert passes == [2]


@pytest.mark.parametrize("command", ["outage-sweep", "validate"])
def test_mc_pass_error_fills_every_mc_row(tmp_path, monkeypatch, command):
    import linkplan.cli as cli

    def fail(meshes, mc):
        raise RuntimeError("MC pass failed, on purpose")

    monkeypatch.setattr(cli, "simulate_sweep", fail)
    code, text = run_to_file(tmp_path, command, write_config(tmp_path, BASE))
    assert code == 3
    if command == "validate":  # nothing to compare with: one ERROR line per point
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines == [f"point={g} status=ERROR detail=MC pass failed; on purpose"
                         for g in ("-3.5", "-3", "-2.5")] + [
                            "summary: checked=0 passed=0 failed=0 skipped=0"]
        return
    rows = data_rows(text)
    assert len(rows) == 3 * 3
    for r in rows:
        if r[1] == "monte_carlo":
            assert r[2:] == ["nan", "nan", "MC pass failed; on purpose"], r
        else:
            assert r[4] == "" and 0.0 < float(r[2]) < 1.0, r


def test_outage_sweep_n_grid_falls_back_per_layout(tmp_path, monkeypatch):
    doc = copy.deepcopy(BASE)
    doc["sweep"] = {"variable": "N", "grid": [16, 20, 24]}
    ref, got, passes = _run_per_point_and_swept(tmp_path, monkeypatch, "outage-sweep",
                                                doc)
    assert got == ref
    assert got[0] == 0
    assert passes == [1, 1, 1]  # each antenna count draws its own gains


# ----------------------------------------------------------------------------
# rate sweeps
# ----------------------------------------------------------------------------

def test_rate_sweep_nondecreasing_in_snr(tmp_path):
    cfg = write_config(tmp_path, BASE)
    code, text = run_to_file(tmp_path, "rate-sweep", cfg)
    assert code == 0
    rows = data_rows(text)
    rates = [float(r[1]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))
    assert all(r[2] in ("rf:0", "fso:0") for r in rows)


def test_rate_sweep_n_grid_single_antenna_point(tmp_path):
    doc = copy.deepcopy(BASE)
    doc.pop("fso_hops")
    doc["routes"] = [["rf:0"]]
    doc["sweep"] = {"variable": "N", "grid": [1, 4, 16]}
    cfg = write_config(tmp_path, doc)
    code, text = run_to_file(tmp_path, "rate-sweep", cfg)
    assert code == 0
    rows = data_rows(text)
    expect = rf_ergodic_rate(RicianFading(0.01, 1.0, 1),
                             PaConfig.ideal(10.0 ** -0.7))
    assert float(rows[0][1]) == pytest.approx(expect, rel=1e-9)
    rates = [float(r[1]) for r in rows]
    assert rates == sorted(rates)


def test_m_sweep_outage_nonincreasing(tmp_path):
    doc = copy.deepcopy(BASE)
    doc["sweep"] = {"variable": "M", "grid": [1, 2, 3]}
    doc["evaluators"] = ["rf_linearized_clt"]
    cfg = write_config(tmp_path, doc)
    code, text = run_to_file(tmp_path, "outage-sweep", cfg)
    assert code == 0
    vals = [float(r[2]) for r in data_rows(text)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[0] > vals[-1]


# ----------------------------------------------------------------------------
# config rejection (exit 2, field-path messages)
# ----------------------------------------------------------------------------

def _expect_config_error(tmp_path, capsys, doc, fragment, command="outage-sweep"):
    cfg = write_config(tmp_path, doc)
    code = main([command, "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert fragment in err, err


def test_negative_omega_rejected(tmp_path, capsys):
    doc = copy.deepcopy(BASE)
    doc["rf_hops"][0]["omega"] = -1.0
    _expect_config_error(tmp_path, capsys, doc, "rf_hops[0].omega")


def test_empty_grid_rejected(tmp_path, capsys):
    doc = copy.deepcopy(BASE)
    doc["sweep"]["grid"] = []
    _expect_config_error(tmp_path, capsys, doc, "sweep.grid")


def test_unsorted_grid_rejected(tmp_path, capsys):
    doc = copy.deepcopy(BASE)
    doc["sweep"]["grid"] = [0.0, -1.0]
    _expect_config_error(tmp_path, capsys, doc, "sweep.grid")


def test_unknown_evaluator_rejected(tmp_path, capsys):
    doc = copy.deepcopy(BASE)
    doc["evaluators"] = ["does_not_exist"]
    _expect_config_error(tmp_path, capsys, doc, "evaluators[0]")


def test_unknown_section_rejected(tmp_path, capsys):
    doc = copy.deepcopy(BASE)
    doc["plotting"] = {"style": "dark"}
    _expect_config_error(tmp_path, capsys, doc, "plotting")


@pytest.mark.parametrize("path, key", [
    ("rf_hops[0]", "Omega"),        # would leave omega at its default 1.0
    ("rf_hops[0].pa", "epsilon_"),
    ("fso_hops[0]", "a"),           # a Gamma-Gamma shape on an exponential hop
    ("sweep", "step"),
    ("mc", "workers"),
    ("mc", "target_ci"),            # no MC early stop: every estimate uses all trials
    ("analysis", "theta_pa"),
])
def test_unknown_nested_key_rejected(tmp_path, capsys, path, key):
    doc = copy.deepcopy(BASE)
    mapping = {"rf_hops[0]": doc["rf_hops"][0], "rf_hops[0].pa": doc["rf_hops"][0]["pa"],
               "fso_hops[0]": doc["fso_hops"][0]}.get(path) or doc[path]
    mapping[key] = 5.0
    _expect_config_error(tmp_path, capsys, doc, f"{path}.{key}: unknown key")


@pytest.mark.parametrize("pa, fragment", [
    ({"epsilon": 0.0}, "rf_hops[0].pa.epsilon"),
    ({"theta_pa": 0.5}, "rf_hops[0].pa.p_max_db"),  # theta > 0 with no p_max
])
def test_pa_radiating_nothing_rejected(tmp_path, capsys, pa, fragment):
    # either PA radiates 0, which left every closed-form row a division by zero
    doc = copy.deepcopy(BASE)
    doc["rf_hops"][0]["pa"].update(pa)
    _expect_config_error(tmp_path, capsys, doc, fragment)


@pytest.mark.parametrize("command", ["outage-sweep", "rate-sweep", "min-antennas"])
def test_pa_output_underflow_rejected(tmp_path, capsys, command):
    # theta_pa = 0.99 at -40 dB: the output underflows to 0, which printed
    # `float division by zero` on every analytic row and an MC outage of 1
    doc = copy.deepcopy(BASE)
    doc["rf_hops"][0]["pa"] = {"epsilon": 0.75, "theta_pa": 0.99, "p_max_db": 0.0,
                               "p_cons_db": -40.0}
    _expect_config_error(tmp_path, capsys, doc, "rf_hops[0].pa: ", command)
    _expect_config_error(tmp_path, capsys, doc, "the PA would radiate nothing", command)


def test_pa_output_underflow_at_sweep_point_keeps_error_rows(tmp_path):
    # the configured drive radiates, the -40 dB point does not: its rows,
    # the MC row too, carry the PA's message
    doc = copy.deepcopy(BASE)
    doc["rf_hops"][0]["pa"] = {"epsilon": 1.0, "theta_pa": 0.99, "p_max_db": 0.0,
                               "p_cons_db": 0.0}
    doc["sweep"]["grid"] = [-40.0, 0.0]
    code, text = run_to_file(tmp_path, "outage-sweep", write_config(tmp_path, doc))
    assert code == 3
    rows = data_rows(text)
    assert len(rows) == 2 * 3
    for r in rows[:3]:
        assert r[0] == "-40" and r[2] == "nan" and "the PA would radiate nothing" in r[4]
    for r in rows[3:]:
        assert r[0] == "0" and r[2] != "nan" and r[4] == ""


def test_missing_p_cons_rejected(tmp_path, capsys):
    doc = copy.deepcopy(BASE)
    del doc["rf_hops"][0]["pa"]["p_cons_db"]
    _expect_config_error(tmp_path, capsys, doc, "rf_hops[0].pa.p_cons_db")


def test_dangling_route_ref_rejected(tmp_path, capsys):
    doc = copy.deepcopy(BASE)
    doc["routes"] = [["rf:0", "fso:3"]]
    _expect_config_error(tmp_path, capsys, doc, "routes[0][1]")


@pytest.mark.parametrize("routes, message", [
    ([["rf:0", "fso:0"], ["rf:0", "fso:1"]],
     "routes[1][0]: hop 'rf:0' is already on routes[0][0]"),
    ([["rf:0", "fso:1", "fso:1"]], "routes[0][2]: hop 'fso:1' is already on routes[0][1]"),
])
def test_shared_hop_rejected(tmp_path, capsys, routes, message):
    # closed forms and MC both take routes as independent, so a hop on two
    # routes was accepted and its mesh outage reported wrong
    doc = copy.deepcopy(BASE)
    doc["fso_hops"] = 2 * doc["fso_hops"]
    doc["routes"] = routes
    _expect_config_error(tmp_path, capsys, doc, message)


def test_fso_only_config_requires_p_tx(tmp_path, capsys):
    doc = copy.deepcopy(BASE)
    doc.pop("rf_hops")
    doc["routes"] = [["fso:0"]]
    _expect_config_error(tmp_path, capsys, doc, "fso_hops[0].p_tx_db")


def test_missing_config_file(capsys):
    code = main(["outage-sweep", "--config", "/nonexistent/cfg.yaml"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_trials_flag_below_minimum_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    code = main(["outage-sweep", "--config", cfg, "--trials", "10"])
    assert code == 2
    assert "mc:" in capsys.readouterr().err


def test_non_finite_number_rejected(tmp_path, capsys):
    # an infinite K once gave rate-sweep a nan row and exit 0
    doc = copy.deepcopy(BASE)
    doc["rf_hops"][0]["K"] = math.inf
    _expect_config_error(tmp_path, capsys, doc, "rf_hops[0].K: must be finite",
                         command="rate-sweep")


@pytest.mark.parametrize("command", ["outage-sweep", "rate-sweep", "validate"])
@pytest.mark.parametrize("key, value, message", [
    ("seed", -1, "seed must be >= 0, got -1"),  # once numpy's error on MC rows only
    ("trials", 10, "trials must be >= 1000, got 10"),
], ids=["seed", "trials"])
def test_mc_flag_and_file_fail_alike(tmp_path, capsys, command, key, value, message):
    # the flags and the file go through one range check
    cfg = write_config(tmp_path, BASE)
    assert main([command, "--config", cfg, f"--{key}", str(value)]) == 2
    from_flag = capsys.readouterr().err
    doc = copy.deepcopy(BASE)
    doc["mc"][key] = value
    assert main([command, "--config", write_config(tmp_path, doc, "file.yaml")]) == 2
    assert capsys.readouterr().err == from_flag == f"config error: mc: {message}\n"


@pytest.mark.parametrize("hop, key, value, fragment", [
    ("rf", "p_max_db", 3100.0, "rf_hops[0].pa.p_max_db: 3100 dB"),
    ("rf", "p_cons_db", 3100.0, "rf_hops[0].pa.p_cons_db: 3100 dB"),
    ("rf", "p_cons_db", -4000.0, "rf_hops[0].pa.p_cons_db: -4000 dB"),  # 0 linear
    ("fso", "p_tx_db", 3100.0, "fso_hops[0].p_tx_db: 3100 dB"),
], ids=["p_max_db", "p_cons_db", "p_cons_db_underflow", "p_tx_db"])
def test_out_of_range_power_is_config_error(tmp_path, capsys, hop, key, value, fragment):
    # each of these once ended in an OverflowError or ValueError traceback
    doc = copy.deepcopy(BASE)
    if hop == "rf":
        doc["rf_hops"][0]["pa"][key] = value
    else:
        doc["fso_hops"][0][key] = value
    _expect_config_error(tmp_path, capsys, doc, fragment)


def test_pa_overflow_is_config_error(tmp_path, capsys):
    # the PA output (eps P_cons / P_max^theta)^(1/(1-theta)) is 1e10^100
    with pytest.raises(OverflowError):
        PaConfig(1.0, 0.99, 1.0, 1e10)
    doc = copy.deepcopy(BASE)
    doc["rf_hops"][0]["pa"].update({"theta_pa": 0.99, "p_max_db": 0.0, "p_cons_db": 100.0})
    _expect_config_error(tmp_path, capsys, doc, "rf_hops[0].pa: ")


def test_unwritable_out_is_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "missing" / "x.csv"
    assert main(["rate-sweep", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot write {out}: ")
    assert captured.out == ""


# ----------------------------------------------------------------------------
# min-antennas
# ----------------------------------------------------------------------------

MINANT = {
    "rf_hops": [
        {"K": 0.01, "omega": 1.0, "N": 2, "R": 1.0,
         "pa": {"epsilon": 0.75, "theta_pa": 0.0, "p_cons_db": 0.0}},
        {"K": 0.01, "omega": 1.0, "N": 2, "R": 1.0,
         "pa": {"epsilon": 0.5, "theta_pa": 0.0, "p_cons_db": 0.0}},
        {"K": 0.01, "omega": 1.0, "N": 2, "R": 1.0,
         "pa": {"epsilon": 0.25, "theta_pa": 0.0, "p_cons_db": 0.0}},
    ],
    "fso_hops": [{"model": "exponential", "lambda": 1.0, "p_tx_db": 17.0,
                  "C_tilde": 1, "R": 1.0}],
    "routes": [["rf:0", "fso:0"]],
    "sweep": {"variable": "snr_db", "grid": [0.0]},
    "evaluators": ["rf_linearized_clt"],
    "mc": {"trials": 20000, "seed": 5},
}


def test_min_antennas_counts_scale_with_efficiency(tmp_path):
    cfg = write_config(tmp_path, MINANT)
    code, text = run_to_file(tmp_path, "min-antennas", cfg)
    assert code == 0
    rows = data_rows(text)
    assert [r[1] for r in rows] == ["rf:0", "rf:1", "rf:2"]
    counts = {float(r[2]): int(r[3]) for r in rows}
    # halving the PA efficiency halves P', roughly doubling the antenna count
    assert counts == {0.75: 40, 0.5: 60, 0.25: 120}


def test_min_antennas_requires_explicit_fso_power(tmp_path, capsys):
    doc = copy.deepcopy(MINANT)
    del doc["fso_hops"][0]["p_tx_db"]
    _expect_config_error(tmp_path, capsys, doc, "fso_hops[0].p_tx_db",
                         command="min-antennas")


def test_min_antennas_requires_snr_sweep(tmp_path, capsys):
    doc = copy.deepcopy(MINANT)
    doc["sweep"] = {"variable": "N", "grid": [2, 4]}
    _expect_config_error(tmp_path, capsys, doc, "sweep.variable",
                         command="min-antennas")


def test_min_antennas_rf_only_uses_own_rate_target(tmp_path):
    doc = copy.deepcopy(MINANT)
    doc.pop("fso_hops")
    doc["rf_hops"] = [{"K": 0.01, "omega": 1.0, "N": 2, "R": 0.1,
                       "pa": {"epsilon": 1.0, "theta_pa": 0.0, "p_cons_db": 10.0}}]
    doc["routes"] = [["rf:0"]]
    cfg = write_config(tmp_path, doc)
    code, text = run_to_file(tmp_path, "min-antennas", cfg)
    assert code == 0
    assert int(data_rows(text)[0][3]) == 1  # R=0.1 at 10 dB: one antenna is enough


def test_min_antennas_builds_each_point_once(tmp_path, monkeypatch):
    from linkplan.config import ScenarioConfig
    calls = []
    real = ScenarioConfig.materialize
    monkeypatch.setattr(ScenarioConfig, "materialize",
                        lambda self, **kw: calls.append(kw) or real(self, **kw))
    doc = copy.deepcopy(MINANT)
    doc["sweep"]["grid"] = [-1.0, 0.0]
    code, text = run_to_file(tmp_path, "min-antennas", write_config(tmp_path, doc))
    assert code == 0
    assert len(data_rows(text)) == 2 * 3
    assert calls == [{"snr_db": -1.0}, {"snr_db": 0.0}]


@pytest.mark.parametrize("command, rows_per_point", [("rate-sweep", 1),
                                                     ("min-antennas", 3)])
def test_unbuildable_point_keeps_error_rows(tmp_path, command, rows_per_point):
    # rf:0 saturates above 0 dB: grid point 5 dB fails to build
    doc = copy.deepcopy(MINANT)
    doc["rf_hops"][0]["pa"]["p_max_db"] = 0.0
    doc["sweep"]["grid"] = [0.0, 5.0]
    code, text = run_to_file(tmp_path, command, write_config(tmp_path, doc))
    assert code == 3
    rows = data_rows(text)
    assert len(rows) == 2 * rows_per_point
    for r in rows[:rows_per_point]:
        assert r[0] == "0" and "nan" not in r
    for r in rows[rows_per_point:]:
        assert r[0] == "5" and "nan" in r and "p_max" in r[-1]


# ----------------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------------

def _validate_doc(n_ant, p_cons_db, evaluators, theta=2.0, trials=200_000):
    return {
        "rf_hops": [{"K": 0.01, "omega": 1.0, "N": n_ant, "M": 1, "C": 10,
                     "R": 2.0,
                     "pa": {"epsilon": 1.0, "theta_pa": 0.0,
                            "p_cons_db": p_cons_db}}],
        "routes": [["rf:0"]],
        "sweep": {"variable": "snr_db", "grid": [p_cons_db]},
        "evaluators": evaluators,
        "mc": {"trials": trials, "seed": 6},
        "analysis": {"theta": theta},
    }


def test_validate_pass_exit0(tmp_path):
    # tangent-anchored piecewise evaluator at N=80 sits within factor 1.5
    doc = _validate_doc(80, -10.6038, ["rf_piecewise_clt", "monte_carlo"])
    cfg = write_config(tmp_path, doc)
    code, text = run_to_file(tmp_path, "validate", cfg, name="report.txt")
    assert code == 0, text
    assert "status=PASS" in text
    assert "status=FAIL" not in text
    assert "summary: checked=1 passed=1 failed=0 skipped=0" in text


def test_validate_fail_exit1(tmp_path):
    # ramp-CDF evaluator carries a variance deficit: factor ~5.7 at this point
    doc = _validate_doc(40, -7.5707, ["rf_linearized_clt"])
    cfg = write_config(tmp_path, doc)
    code, text = run_to_file(tmp_path, "validate", cfg, name="report.txt")
    assert code == 1, text
    assert "status=FAIL" in text
    assert "class=clt_factor_1.5" in text


def test_validate_skip_outside_window(tmp_path):
    # drive well past the outage knee: MC sees no failures, window test
    # skipped; with nothing else checked, the run compared nothing (exit 4)
    doc = _validate_doc(80, -9.2, ["rf_piecewise_clt"], trials=20_000)
    cfg = write_config(tmp_path, doc)
    code, text = run_to_file(tmp_path, "validate", cfg, name="report.txt")
    assert code == 4, text
    assert "status=SKIP" in text
    assert "mc_outside_[1e-3,0.5]" in text


def test_validate_that_compared_nothing_exits_4(tmp_path, capsys):
    # the README scenario at 5 and 9 dB sits off the outage waterfall (MC 1
    # and 0): every row is skipped, which once exited 0; the summary line
    # keeps its shape and stderr says why
    doc = {
        "rf_hops": [{"K": 2.0, "omega": 1.0, "N": 40, "M": 2, "C": 5, "R": 2.0,
                     "pa": {"epsilon": 0.75, "theta_pa": 0.5, "p_max_db": 25.0,
                            "p_cons_db": 0.0}}],
        "fso_hops": [{"model": "gamma_gamma", "a": 4.3939, "b": 2.5636, "M": 2,
                      "C_tilde": 5, "R": 2.0}],
        "routes": [["rf:0", "fso:0"]],
        "sweep": {"variable": "snr_db", "grid": [5.0, 9.0]},
        "evaluators": ["rf_piecewise_clt", "fso_clt", "monte_carlo"],
        "mc": {"trials": 20_000, "seed": 7},
        "analysis": {"theta": 1.0},
    }
    code, text = run_to_file(tmp_path, "validate", write_config(tmp_path, doc),
                             name="report.txt")
    assert code == 4, text
    assert text.splitlines()[-1] == "summary: checked=4 passed=0 failed=0 skipped=4"
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no analytic value was compared" in err, err


def test_validate_evaluator_error_line_exit3(tmp_path, capsys):
    # the single-shot CDF refuses an M = 2 hop: its line names the point,
    # the method and the cause, and an error outranks a run that compared
    # nothing (exit 3, not 4)
    doc = copy.deepcopy(BASE)
    doc["rf_hops"][0]["M"] = 2
    doc["evaluators"] = ["rf_single_shot", "monte_carlo"]
    doc["sweep"]["grid"] = [-7.0]
    code, text = run_to_file(tmp_path, "validate", write_config(tmp_path, doc),
                             name="report.txt")
    assert code == 3, text
    line = [l for l in text.splitlines() if "status=ERROR" in l]
    assert len(line) == 1
    assert line[0].startswith("point=-7 method=rf_single_shot status=ERROR detail=")
    assert "single-shot" in line[0]
    assert text.splitlines()[-1] == "summary: checked=0 passed=0 failed=0 skipped=0"


def test_validate_bound_classes(tmp_path):
    doc = {
        "rf_hops": [{"K": 0.01, "omega": 1.0, "N": 4, "M": 2, "C": 1, "R": 1.0,
                     "pa": {"epsilon": 1.0, "theta_pa": 0.0, "p_cons_db": -3.0}}],
        "routes": [["rf:0"]],
        "sweep": {"variable": "snr_db", "grid": [-3.0]},
        "evaluators": ["rf_jensen_lower", "rf_jensen_upper"],
        "mc": {"trials": 200_000, "seed": 7},
    }
    cfg = write_config(tmp_path, doc)
    code, text = run_to_file(tmp_path, "validate", cfg, name="report.txt")
    assert code == 0, text
    assert "class=lower_bound" in text
    assert "class=upper_bound" in text
    assert "status=FAIL" not in text


_CLASSES_DOC = {
    "rf_hops": [{"K": 0.01, "omega": 1.0, "N": 4, "M": 2, "C": 1, "R": 1.0,
                 "pa": {"epsilon": 1.0, "theta_pa": 0.0, "p_cons_db": -3.0}}],
    "fso_hops": [{"model": "gamma_gamma", "a": 4.3939, "b": 2.5636, "M": 1,
                  "C_tilde": 2, "R": 1.0, "p_tx_db": 3.0}],
    "sweep": {"variable": "snr_db", "grid": [-3.0, -1.0]},
    "evaluators": ["rf_jensen_lower", "rf_jensen_upper", "fso_product_bound", "fso_clt",
                   "monte_carlo"],
    "mc": {"trials": 20_000, "seed": 7},
}


def test_validate_lines_of_every_class(tmp_path):
    # each tag's validate class comes from its EVALUATORS row: both Jensen
    # bounds, the product bound and a CLT estimate keep their lines, PASS,
    # FAIL and SKIP alike, byte for byte
    code, text = run_to_file(tmp_path, "validate", write_config(tmp_path, _CLASSES_DOC),
                             name="report.txt")
    assert code == 1, text
    mc3 = "mc=0.55835 mc_ci=0.00688151946186"
    mc1 = "mc=0.2603 mc_ci=0.00608091209937"
    assert text.splitlines()[3:] == [
        f"point=-3 method=rf_jensen_lower {mc3} value=0.531781271848 status=PASS "
        "class=lower_bound",
        f"point=-3 method=rf_jensen_upper {mc3} value=0.540664153453 status=FAIL "
        "class=upper_bound",
        f"point=-3 method=fso_product_bound {mc3} value=0.596972684113 status=PASS "
        "class=upper_bound",
        f"point=-3 method=fso_clt {mc3} value=0.529664103306 status=SKIP "
        "class=clt_factor_1.5 detail=mc_outside_[1e-3,0.5]",
        f"point=-1 method=rf_jensen_lower {mc1} value=0.249895769239 status=PASS "
        "class=lower_bound",
        f"point=-1 method=rf_jensen_upper {mc1} value=0.25100993259 status=PASS "
        "class=upper_bound",
        f"point=-1 method=fso_product_bound {mc1} value=0.303274950642 status=PASS "
        "class=upper_bound",
        f"point=-1 method=fso_clt {mc1} value=0.249678009005 status=PASS "
        "class=clt_factor_1.5 factor=1.04254275752",
        "summary: checked=8 passed=6 failed=1 skipped=1",
    ]


@pytest.mark.parametrize("bound, value, verdict", [
    (analysis.LOWER_BOUND, 0.0, "status=PASS class=lower_bound"),
    (analysis.UPPER_BOUND, 0.0, "status=FAIL class=upper_bound"),
    (analysis.ESTIMATE, 0.01, "status=PASS class=clt_factor_1.5 factor="),
])
def test_new_tag_is_one_table_row(tmp_path, monkeypatch, bound, value, verdict):
    # a tag added by one EVALUATORS row, and nothing else, is accepted by the
    # config, scored by outage-sweep on the link kind the row names (the FSO
    # hop takes its default tag) and judged by validate in the row's class
    monkeypatch.setitem(analysis.EVALUATORS, "rf_test_tag", analysis.Evaluator(
        analysis.RfHopParams,
        lambda h, theta: analysis.OutageEstimate(value, "rf_test_tag"), bound))
    doc = copy.deepcopy(_CLASSES_DOC)
    doc["evaluators"] = ["rf_test_tag", "monte_carlo"]
    doc["sweep"]["grid"] = [-1.0]
    cfg = write_config(tmp_path, doc)
    code, text = run_to_file(tmp_path, "outage-sweep", cfg)
    assert code == 0, text
    fso = analysis.hop_outage(load_config(cfg).point(-1.0)[1][0]).value
    want = 1.0 - (1.0 - value) * (1.0 - fso)
    assert data_rows(text)[0][:2] == ["-1", "rf_test_tag"]
    assert float(data_rows(text)[0][2]) == pytest.approx(want, rel=1e-11)
    code, text = run_to_file(tmp_path, "validate", cfg, name="report.txt")
    line = text.splitlines()[3]
    assert line.startswith("point=-1 method=rf_test_tag mc=0.2603 ")
    assert verdict in line
    assert code == (0 if "PASS" in verdict else 1)


# ----------------------------------------------------------------------------
# evaluator errors / default routes
# ----------------------------------------------------------------------------

def test_evaluator_error_rows_exit3(tmp_path):
    doc = copy.deepcopy(BASE)
    doc["rf_hops"][0]["M"] = 2
    doc["evaluators"] = ["rf_single_shot"]
    doc["sweep"]["grid"] = [-7.0]
    cfg = write_config(tmp_path, doc)
    code, text = run_to_file(tmp_path, "outage-sweep", cfg)
    assert code == 3
    row = data_rows(text)[0]
    assert row[2] == "nan"
    assert "single-shot" in row[4]


def test_jensen_bounds_past_float_range_read_one(tmp_path):
    # the README hop with C = 400: e^(R C) overflows a float, and the upper
    # bound is the pooled CDF at an infinite threshold, 1, not an error row
    doc = yaml.safe_load((GOLDEN / "readme.yaml").read_text())
    doc["rf_hops"][0]["C"] = 400
    doc["evaluators"] = ["rf_jensen_upper", "rf_jensen_lower"]
    code, text = run_to_file(tmp_path, "outage-sweep", write_config(tmp_path, doc))
    assert code == 0, text
    rows = data_rows(text)
    assert len(rows) == 12
    for row in rows:
        assert row[4] == "", row
        if row[1] == "rf_jensen_upper":
            assert row[2] == "1", row


@pytest.mark.parametrize("theta", [1e-17, 1e-320, 710.0])
def test_piecewise_theta_past_float_range_is_a_named_row(tmp_path, theta):
    # 1e-17 printed `route 0: hop 0: float division by zero`, and 710 ended
    # in a bare `OverflowError: math range error`
    doc = yaml.safe_load((GOLDEN / "readme.yaml").read_text())
    doc.update(fso_hops=[], routes=[["rf:0"]], evaluators=["rf_piecewise_clt"],
               analysis={"theta": theta})
    doc["sweep"]["grid"] = [7.0]
    code, text = run_to_file(tmp_path, "outage-sweep", write_config(tmp_path, doc))
    assert code == 3
    assert data_rows(text) == [["7", "rf_piecewise_clt", "nan", "nan",
                                "route 0: hop 0: piecewise log surrogate overflows at "
                                f"theta {theta:g}; sum-gain mean 40; variance 22.2222"]]


@pytest.mark.parametrize("command", ["rate-sweep", "min-antennas"])
def test_rate_reads_no_surrogate_variance(tmp_path, command):
    # theta_pa = 0.99 at p_max = p_cons = 0 dB radiates about 3.2e-13, where
    # the linearized variance rounds to -8.9e-16; both commands printed that
    # variance as an error row, though the rate reads only the mean
    doc = {"rf_hops": [dict(BASE["rf_hops"][0], R=1e-7, pa={
               "epsilon": 0.75, "theta_pa": 0.99, "p_max_db": 0.0, "p_cons_db": 0.0})],
           "sweep": {"variable": "snr_db", "grid": [0.0]}}
    code, text = run_to_file(tmp_path, command, write_config(tmp_path, doc))
    assert code == 0, text
    (row,) = data_rows(text)
    pa = PaConfig(0.75, 0.99, 1.0, 1.0)
    if command == "rate-sweep":
        assert row == ["0", f"{rf_ergodic_rate(RicianFading(0.01, 1.0, 20), pa):.12g}", "rf:0"]
    else:
        n = int(row[3])
        assert rf_ergodic_rate(RicianFading(0.01, 1.0, n), pa) >= 1e-7 - 1e-9
        assert rf_ergodic_rate(RicianFading(0.01, 1.0, n - 1), pa) < 1e-7 - 1e-9


def test_rate_error_names_the_hop(tmp_path):
    # an exponential FSO hop at -3000 dB: outage rows carried `route 0: hop
    # 1: `, the rate row did not
    doc = copy.deepcopy(BASE)
    doc["fso_hops"][0]["p_tx_db"] = -3000.0
    doc["evaluators"] = ["fso_clt"]
    doc["sweep"]["grid"] = [-3.0]
    cfg = write_config(tmp_path, doc)
    message = "route 0: hop 1: FSO surrogate variance 0.0 is not > 0"
    code, text = run_to_file(tmp_path, "outage-sweep", cfg)
    assert (code, data_rows(text)[0][4]) == (3, message)
    code, text = run_to_file(tmp_path, "rate-sweep", cfg)
    assert (code, data_rows(text)) == (3, [["-3", "nan", f"error:{message}"]])


def test_min_antennas_error_names_the_fso_hop(tmp_path):
    # each RF hop's rate target is the slowest FSO hop's rate; when fso:1's
    # rate raises, every row named only the RF hop it sizes
    doc = copy.deepcopy(BASE)
    doc["rf_hops"] *= 2
    doc["fso_hops"] = [dict(BASE["fso_hops"][0], p_tx_db=p) for p in (17.0, -3000.0)]
    doc["routes"] = [["rf:0", "fso:0"], ["rf:1", "fso:1"]]
    doc["sweep"]["grid"] = [-3.0]
    code, text = run_to_file(tmp_path, "min-antennas", write_config(tmp_path, doc))
    message = "fso:1: FSO surrogate variance 0.0 is not > 0"
    assert (code, data_rows(text)) == (3, [["-3", f"rf:{i}", "1", "nan", message]
                                           for i in (0, 1)])


@pytest.mark.parametrize("command, column", [("rate-sweep", 2), ("outage-sweep", 4)])
def test_nan_variance_rows_name_the_surrogate(tmp_path, command, column):
    # omega = 1e300 overflows the sum-gain variance; the linearized log
    # surrogate's variance is then nan, which a `<= 0` check let through, and
    # so is its mean, the only moment the rate reads
    message = ("linearized log surrogate mean nan is not finite" if command == "rate-sweep"
               else "linearized log surrogate variance nan is not > 0")
    doc = copy.deepcopy(BASE)
    doc["rf_hops"][0]["omega"] = 1e300
    doc["evaluators"] = ["rf_linearized_clt", "fso_clt"]
    code, text = run_to_file(tmp_path, command, write_config(tmp_path, doc))
    assert code == 3
    rows = data_rows(text)
    assert len(rows) == (3 if command == "rate-sweep" else 6)
    for row in rows:
        assert message in row[column], row


def test_default_route_spans_all_hops(tmp_path):
    doc = copy.deepcopy(BASE)
    doc.pop("routes")
    cfg = write_config(tmp_path, doc)
    code, text = run_to_file(tmp_path, "rate-sweep", cfg)
    assert code == 0
    assert all(r[2] in ("rf:0", "fso:0") for r in data_rows(text))


# ----------------------------------------------------------------------------
# goldens: every command's bytes on the README and closed_form_grid scenarios
# ----------------------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"
# `closed_form_grid.yaml` is the benchmark scenario of that name (seed 3).
# The CSVs were recorded before the sweep commands shared their hop checks and
# evaluations across evaluators and the antenna search was seeded, so they pin
# that none of this moved a byte; --trials keeps the MC rows quick.
GOLDEN_TRIALS = {"readme": "20000", "closed_form_grid": "2000"}
GOLDEN_EXIT = {
    ("readme", "outage-sweep"): 0, ("readme", "rate-sweep"): 0,
    ("readme", "min-antennas"): 2, ("readme", "validate"): 1,
    ("closed_form_grid", "outage-sweep"): 3, ("closed_form_grid", "rate-sweep"): 0,
    ("closed_form_grid", "min-antennas"): 0, ("closed_form_grid", "validate"): 3,
}


@pytest.mark.parametrize("scenario, command", sorted(GOLDEN_EXIT))
def test_command_output_matches_golden(tmp_path, capsys, scenario, command):
    code, text = run_to_file(tmp_path, command, str(GOLDEN / f"{scenario}.yaml"),
                             extra=("--trials", GOLDEN_TRIALS[scenario]))
    assert code == GOLDEN_EXIT[scenario, command]
    golden = GOLDEN / f"{scenario}.{command}.csv"
    if code == 2:  # the README's coupled FSO power cannot be sized
        assert text == "" and not golden.exists()
        assert "min-antennas requires an explicit transmit power" in capsys.readouterr().err
    else:
        assert text == golden.read_text()


def _count_by_hop(monkeypatch, module, name):
    """Count calls to `module.<name>` per (hop, method tags after the hop)."""
    calls = {}
    real = getattr(module, name)

    def count(hop, *args):
        calls[(hop, *args)] = calls.get((hop, *args), 0) + 1
        return real(hop, *args)

    monkeypatch.setattr(module, name, count)
    return calls


@pytest.mark.parametrize("command", ["outage-sweep", "validate"])
def test_sweep_evaluates_each_hop_once_per_method(tmp_path, monkeypatch, command):
    # 12 points, 8 analytic tags: one composition call per point, and one
    # hop_outage per hop and method it takes
    composed = []
    real = cli.mesh_outages
    monkeypatch.setattr(cli, "mesh_outages",
                        lambda mesh, pairs, theta: composed.append(len(pairs))
                        or real(mesh, pairs, theta))
    calls = _count_by_hop(monkeypatch, network, "hop_outage")
    run_to_file(tmp_path, command, str(GOLDEN / "closed_form_grid.yaml"),
                extra=("--trials", "2000"))
    assert composed == [8] * 12
    by_method = {}
    for (hop, rf_method, fso_method, _), n in calls.items():
        key = (hop, rf_method if hasattr(hop, "pa") else fso_method)
        by_method[key] = by_method.get(key, 0) + n
    assert set(by_method.values()) == {1}
    # 6 RF methods on rf:0 (single-shot raises there, so rf:1 never reaches
    # it) and 5 on rf:1, fso_clt on both FSO hops, the product bound refused
    # by its check before numerics
    assert len(by_method) == 12 * (6 + 5 + 2)


@pytest.mark.parametrize("command", ["outage-sweep", "validate"])
def test_sweep_builds_each_method_pair_once(tmp_path, monkeypatch, command):
    # the (rf_method, fso_method) pairs depend on the evaluator list alone:
    # one per analytic tag for the whole run, not one per tag and point
    built = []
    real = cli.method_pair
    monkeypatch.setattr(cli, "method_pair", lambda tag: built.append(tag) or real(tag))
    cfg = str(GOLDEN / "closed_form_grid.yaml")
    run_to_file(tmp_path, command, cfg, extra=("--trials", "2000"))
    analytic = [t for t in load_config(cfg).evaluators if t in analysis.EVALUATORS]
    assert len(analytic) == 8
    assert built == analytic


def test_rate_sweep_evaluates_each_hop_once(tmp_path, monkeypatch):
    calls = _count_by_hop(monkeypatch, network, "hop_ergodic_rate")
    code, _ = run_to_file(tmp_path, "rate-sweep", str(GOLDEN / "closed_form_grid.yaml"))
    assert code == 0
    assert list(calls.values()) == [1] * (12 * 4)


def test_min_antennas_search_takes_few_rate_evaluations(tmp_path, monkeypatch):
    # seeded at the Jensen inverse, each search needs a handful of rates where
    # doubling from N = 1 to answers near 2,000 took 22
    evals, per_search = [], []
    real_rate, real_search = analysis.rf_ergodic_rate, cli.min_rf_antennas
    monkeypatch.setattr(analysis, "rf_ergodic_rate",
                        lambda f, pa: evals.append(f.N) or real_rate(f, pa))

    def search(*args):
        evals.clear()
        n = real_search(*args)
        per_search.append((n, len(evals)))
        return n

    monkeypatch.setattr(cli, "min_rf_antennas", search)
    code, _ = run_to_file(tmp_path, "min-antennas", str(GOLDEN / "closed_form_grid.yaml"))
    assert code == 0
    assert len(per_search) == 12 * 2
    assert min(n for n, _ in per_search) > 1000
    assert max(k for _, k in per_search) <= 6
