"""Import cost: scipy loads with the first quantile, not with the package.

Each check runs in a fresh interpreter, because the test process itself
has scipy loaded already.
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
import scipy.stats

import ellipstat
from ellipstat import cli

PACKAGE = pathlib.Path(ellipstat.__file__).parent

# Runs `cli.main(argv)` (or only the import, for argv None) and prints the
# JSON payload, then the scipy modules loaded, on the last line.
_PROBE = """
import contextlib, io, json, sys
import ellipstat
argv = json.loads(sys.argv[1])
out = io.StringIO()
if argv is not None:
    with contextlib.redirect_stdout(out):
        code = ellipstat.cli.main(argv)
    assert code == 0, code
print(out.getvalue())
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy")))
"""


def _fresh_run(argv):
    """(stdout payload, scipy modules) of argv in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          check=True)
    payload, _, loaded = proc.stdout.rstrip("\n").rpartition("\n")
    return payload.strip(), json.loads(loaded)


@pytest.mark.parametrize("argv", [
    None,
    ["gell", "--matrix", "6,2;2,3"],
    ["fixtures"],
    ["kiss"],
], ids=["import", "gell", "fixtures", "kiss"])
def test_no_scipy_without_a_quantile(argv):
    _, loaded = _fresh_run(argv)
    assert loaded == []


def test_first_quantile_loads_scipy_special():
    argv = ["data-ellipse", "--data", "galton"]
    payload, loaded = _fresh_run(argv)
    assert "scipy.special" in loaded
    out = io.StringIO()
    with contextlib.redirect_stdout(out):       # scipy already loaded here
        assert cli.main(argv) == 0
    assert payload == out.getvalue().strip()
    assert json.loads(payload)["c_squared"] == pytest.approx(
        scipy.stats.chi2.ppf(0.40, 2), rel=1e-11)   # 12 printed digits


def _import_time_nodes(tree):
    """Nodes that run when the module is imported (not function bodies)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_top_level_scipy_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in _import_time_nodes(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(n.split(".")[0] == "scipy" for n in names), \
            f"{path.name}:{node.lineno} imports scipy at import time"


def _package_imports(path):
    """Names of the ellipstat modules that the module at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:         # absolute: only ellipstat counts
                if module.split(".")[0] != "ellipstat":
                    continue
                module = module.partition(".")[2]
            found.update([module.split(".")[0]] if module
                         else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("ellipstat."))
    return found


def test_render_imports_only_gellipsoid():
    # scene builders draw the results they are given: no fits, quantiles
    # or data ellipsoids inside render
    assert _package_imports(PACKAGE / "render.py") == {"gellipsoid"}


def test_only_cli_and_init_import_render():
    importers = {path.name for path in PACKAGE.glob("*.py")
                 if "render" in _package_imports(path)}
    assert importers == {"cli.py", "__init__.py"}


def _raised_names(path):
    """Names of the exceptions that the module at path raises."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            yield ast.unparse(exc).rpartition(".")[2]


def test_only_numkernel_raises_not_positive_definite():
    # one PD check: every other module calls numkernel.require_pd
    raisers = {path.name for path in PACKAGE.glob("*.py")
               if "NotPositiveDefiniteError" in set(_raised_names(path))}
    assert raisers == {"numkernel.py"}
