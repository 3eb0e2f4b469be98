"""Docs-drift guard: every package name the README, docstrings and comments
quote in backticks still exists, and the README's library example runs."""

import ast
import importlib
import io
import pathlib
import re
import tokenize

import pytest

from linkplan.analysis import ApproximationInvalidError

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "linkplan"
MODULES = {p.stem: importlib.import_module(f"linkplan.{p.stem}")
           for p in PACKAGE.glob("*.py") if p.stem != "__init__"}


def _prose(path):
    """The docstrings and comments of a Python source file, as one text."""
    code = path.read_text()
    parts = [ast.get_docstring(node, clean=False) or ""
             for node in ast.walk(ast.parse(code))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    parts += [tok.string for tok in tokenize.generate_tokens(io.StringIO(code).readline)
              if tok.type == tokenize.COMMENT]
    return "\n".join(parts)


def _resolves(name):
    """Whether a dotted name reads, dot by dot, as a package module and its
    attributes; a name that starts with no module may be an attribute of
    any module, or of any class in one."""
    head, *rest = name.split(".")
    if head in MODULES:
        owners = [MODULES[head]]
    else:
        owners = list(MODULES.values()) + [c for m in MODULES.values()
                                           for c in vars(m).values() if isinstance(c, type)]
        rest = [head] + rest
    for attr in rest:
        owners = [getattr(o, attr) for o in owners if hasattr(o, attr)]
    return bool(owners)


def test_backticked_package_names_resolve():
    texts = {"README.md": (ROOT / "README.md").read_text()}
    texts.update((p.name, _prose(p)) for p in sorted(PACKAGE.glob("*.py")))
    quoted = {(where, name) for where, text in texts.items()
              for name in re.findall(r"`([A-Za-z_][\w.]*)`", text)
              if name.startswith("_") or name.split(".")[0] in MODULES}
    assert len(quoted) > 30
    assert [(where, name) for where, name in sorted(quoted) if not _resolves(name)] == []


@pytest.mark.xfail(raises=ApproximationInvalidError, strict=True, reason=(
    "ROADMAP item 1, linearized variance: the example's last line, "
    "required_snr(1e-3, mesh, evaluator='analytical'), reaches a drive where "
    "log_moments_linearized's uncentered variance cancels to <= 0"))
def test_readme_library_example_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                          re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
