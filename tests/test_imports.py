"""Import-graph guards: every linkplan command and `required_snr` imports
numpy and PyYAML only, never scipy, which only the `test` extra installs.
scipy.special loads only inside the checks that no command calls
(`specfun.bessel_k`, `laguerre`, `expint_ei` and `channel.rician_gain_pdf`),
through `specfun.import_scipy`, whose ImportError names that extra when
scipy is missing.  The FSO densities are test oracles (`tests/oracles.py`).
With scipy blocked, every command still gives its golden bytes.

Each check runs in a fresh interpreter, since this test session has long
since imported everything.  scipy.special alone costs about 0.25 s and 25 MB
on every linkplan process (it loads numpy.f2py, numpy.testing and numpy.ma),
and scipy.integrate pulls in optimize, sparse, linalg and spatial on top.
"""

import json
import os
import pathlib
import subprocess
import sys

from test_cli import GOLDEN, GOLDEN_EXIT, GOLDEN_TRIALS

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
         "scipy.spatial", "scipy.fft")


def _fresh(code):
    """Run `code` in a new interpreter with src/ and tests/ on the path;
    return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, TESTS, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def test_cli_import_leaves_heavy_scipy_out():
    loaded = _fresh(
        "import json, sys\n"
        "import linkplan.cli\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n")
    assert loaded == []


def test_analysis_quad_resolves_lazily_for_the_tracer():
    # perfbench's tracer hooks `analysis.quad`; the name must still resolve
    # to scipy's quad, but only once something asks for it
    got = _fresh(
        "import json, sys\n"
        "import linkplan, linkplan.analysis as an\n"
        "before = 'scipy.integrate' in sys.modules\n"
        "import scipy.integrate\n"
        "print(json.dumps([before, an.quad is scipy.integrate.quad,\n"
        "                  hasattr(an, 'no_such_name')]))\n")
    assert got == [False, True, False]


def test_evaluators_compute_without_integrate_or_fft():
    # every analytic evaluator on the README hops, and the product CDF at
    # n = 1 and 2, run without loading scipy.integrate, scipy.fft or
    # numpy.fft, and no linkplan module holds a name from any of them
    got = _fresh(
        "import json, sys\n"
        "from linkplan import analysis as an, specfun\n"
        "from linkplan.channel import FsoGammaGamma, RicianFading\n"
        "from linkplan.hardware import PaConfig\n"
        "rf = an.RfHopParams(fading=RicianFading(2.0, 1.0, 40),\n"
        "                    pa=PaConfig(0.75, 0.5, 316.2278, 1.0), M=2, C=5, R=2.0)\n"
        "fso = an.FsoHopParams(model=FsoGammaGamma(4.3939, 2.5636), p_tx=40.0,\n"
        "                      M=2, C_tilde=5, R=2.0)\n"
        "rejected = {}\n"
        "for tag in an.RF_TAGS + an.FSO_TAGS:\n"
        "    try:\n"
        "        an.hop_outage(rf if tag in an.RF_TAGS else fso, rf_method=tag, fso_method=tag)\n"
        "    except ValueError as exc:\n"
        "        rejected[tag] = str(exc)\n"
        "an.hop_ergodic_rate(rf), an.hop_ergodic_rate(fso)\n"
        "specfun.gg_product_cdf(4.3939, 2.5636, 1, 0.5), specfun.gg_product_cdf(4.3939, 2.5636, 2, 0.5)\n"
        "heavy = ('scipy.integrate', 'scipy.fft', 'numpy.fft')\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "held = sorted(\n"
        "    f'{name}.{key}' for name, mod in list(sys.modules.items())\n"
        "    if name.startswith('linkplan') for key, v in vars(mod).items()\n"
        "    if str(getattr(v, '__module__', None) or getattr(v, '__name__', '')).startswith(heavy))\n"
        "print(json.dumps([loaded, held, sorted(rejected)]))\n")
    # the README hops have M = 2 (no single shot) and n = 10 > 6 product gains
    assert got == [[], [], ["fso_product_bound", "rf_single_shot"]]


README = os.path.join(TESTS, "golden", "readme.yaml")


def test_commands_and_required_snr_load_no_scipy(tmp_path):
    # all four commands on the README scenario, then required_snr on its
    # mesh by both evaluators, across the 0.1 crossing near 7.03 dB
    got = _fresh(
        "import json, sys\n"
        "from linkplan import cli, config, simulate\n"
        "codes = [cli.main([cmd, '--config', %r, '--trials', '2000',\n"
        "                   '--out', %r])\n"
        "         for cmd in ('outage-sweep', 'rate-sweep', 'validate', 'min-antennas')]\n"
        "_, _, mesh = config.load_config(%r).materialize()\n"
        "snr = [simulate.required_snr(0.1, mesh, evaluator=ev, bounds_db=(6.029, 9.029),\n"
        "                             mc=simulate.McConfig(20000, 3), tol_db=0.05)\n"
        "       for ev in ('analytical', 'mc')]\n"
        "print(json.dumps([codes, [round(v, 1) for v in snr],\n"
        "                  sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
        % (README, str(tmp_path / "out.csv"), README))
    # min-antennas cannot size the README's coupled FSO power (exit 2)
    assert got == [[0, 0, 1, 2], [7.0, 7.0], []]


def test_check_only_names_keep_their_values():
    # the densities and special functions that only check the closed forms
    # still give their values (recorded with scipy.special imported at module
    # level), and only calling them loads scipy.special
    got = _fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from linkplan import channel, specfun\n"
        "before = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "checks = [specfun.bessel_k(1.3, 0.7), specfun.laguerre(0.5, -2.0),\n"
        "          specfun.expint_ei(-1.5)]\n"
        "loaded = 'scipy.special' in sys.modules\n"
        "import oracles\n"
        "gg = channel.FsoGammaGamma(4.3939, 2.5636)\n"
        "vals = checks + [\n"
        "    float(oracles.gg_log_density(-0.3, 4.3939, 2.5636)),\n"
        "    oracles.gg_log_density(np.array([-40.0, 0.0, 2.0]), 2.0, 0.5).tolist(),\n"
        "    oracles.fso_pdf(0.8, gg), oracles.fso_pdf(0.8, channel.FsoExponential(1.3)),\n"
        "    channel.rician_gain_pdf(0.6, channel.RicianFading(2.0, 1.0, 1))]\n"
        "print(json.dumps([before, loaded, vals]))\n")
    assert got == [[], True, [
        1.4232613423144334, 1.8130996534803376, -0.10001958240663265, -0.7460706738279175,
        [-20.69314718055994, -1.5945348918918358, -3.2677160334197852],
        0.600665648301394, 0.45949108654641424, 0.6358298690289391]]


# `sys.modules["scipy"] = None` makes every scipy import fail, as it does on
# a runtime install (`pip install .`, no `test` extra)
NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


def test_commands_without_scipy_give_golden_bytes(tmp_path):
    runs = sorted(GOLDEN_EXIT)
    outs = [str(tmp_path / f"{scenario}.{command}.csv") for scenario, command in runs]
    codes = _fresh(
        NO_SCIPY + "import json\n"
        "from linkplan import cli\n"
        "print(json.dumps([cli.main([command, '--config', config, '--trials', trials,\n"
        "                            '--out', out])\n"
        "                  for command, config, trials, out in %r]))\n"
        % [(command, str(GOLDEN / f"{scenario}.yaml"), GOLDEN_TRIALS[scenario], out)
           for (scenario, command), out in zip(runs, outs)])
    assert codes == [GOLDEN_EXIT[run] for run in runs]
    for (scenario, command), out in zip(runs, outs):
        golden = GOLDEN / f"{scenario}.{command}.csv"
        if golden.exists():
            assert pathlib.Path(out).read_bytes() == golden.read_bytes(), (scenario, command)
        else:  # the README's min-antennas is a config error: nothing written
            assert not os.path.exists(out)


# the README's library call, printing its value or the exception it raises
README_CALL = (
    "import json\n"
    "from linkplan.analysis import FsoHopParams, RfHopParams\n"
    "from linkplan.channel import FsoGammaGamma, RicianFading\n"
    "from linkplan.hardware import PaConfig\n"
    "from linkplan.network import MeshNetwork, Route\n"
    "from linkplan.simulate import required_snr\n"
    "rf = RfHopParams(fading=RicianFading(K=2.0, Omega=1.0, N=40),\n"
    "                 pa=PaConfig(0.75, 0.5, 316.2278, 1.0), M=2, C=5, R=2.0)\n"
    "fso = FsoHopParams(model=FsoGammaGamma(a=4.3939, b=2.5636), p_tx=40.0,\n"
    "                   M=2, C_tilde=5, R=2.0)\n"
    "mesh = MeshNetwork(routes=(Route(hops=(rf, fso)),))\n"
    "try:\n"
    "    got = ['value', repr(required_snr(1e-3, mesh, evaluator='analytical'))]\n"
    "except Exception as exc:\n"
    "    got = ['raised', type(exc).__name__, str(exc)]\n"
    "print(json.dumps(got))\n")


def test_required_snr_without_scipy_matches_with_scipy():
    assert _fresh(NO_SCIPY + README_CALL) == _fresh(README_CALL)


def test_scipy_backed_checks_name_the_test_extra():
    got = _fresh(
        NO_SCIPY + "import json\n"
        "from linkplan import analysis, channel, specfun\n"
        "calls = [lambda: specfun.bessel_k(0.5, 1.0), lambda: specfun.laguerre(0.5, -2.0),\n"
        "         lambda: specfun.expint_ei(-1.5),\n"
        "         lambda: channel.rician_gain_pdf(0.6, channel.RicianFading(2.0, 1.0, 1)),\n"
        "         lambda: analysis.quad]\n"
        "out = []\n"
        "for call in calls:\n"
        "    try:\n"
        "        out.append(['value', repr(call())])\n"
        "    except Exception as exc:\n"
        "        out.append([type(exc).__name__, str(exc)])\n"
        "print(json.dumps(out))\n")
    assert [kind for kind, _ in got] == ["ImportError"] * 5
    assert all("pip install 'linkplan[test]'" in msg for _, msg in got), got
