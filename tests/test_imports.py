"""Import-graph guards: the package imports numpy, scipy.special and PyYAML,
and nothing of scipy it does not compute with.

Each check runs in a fresh interpreter, since this test session has long
since imported everything.  scipy.integrate alone pulls in optimize, sparse,
linalg and spatial: about 0.3 s on every linkplan process.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
         "scipy.spatial", "scipy.fft")


def _fresh(code):
    """Run `code` in a new interpreter with src/ on the path; return the
    JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
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
    # n = 1 and 2, run without loading scipy.integrate or scipy.fft, and no
    # linkplan module holds a name from them or from numpy.fft (scipy.special
    # loads numpy.fft itself, so sys.modules cannot tell for that one)
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
        "loaded = [m for m in heavy[:2] if m in sys.modules]\n"
        "held = sorted(\n"
        "    f'{name}.{key}' for name, mod in list(sys.modules.items())\n"
        "    if name.startswith('linkplan') for key, v in vars(mod).items()\n"
        "    if str(getattr(v, '__module__', None) or getattr(v, '__name__', '')).startswith(heavy))\n"
        "print(json.dumps([loaded, held, sorted(rejected)]))\n")
    # the README hops have M = 2 (no single shot) and n = 10 > 6 product gains
    assert got == [[], [], ["fso_product_bound", "rf_single_shot"]]
