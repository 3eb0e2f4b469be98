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
