"""Import cost and dependencies: no subcommand loads scipy.

The run-time checks use a fresh interpreter, because the test process
itself has scipy loaded already (it is the tests' oracle).
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tomllib

import pytest

import ellipstat
from ellipstat import cli, datasets

PACKAGE = pathlib.Path(ellipstat.__file__).parent

# Runs cli.main on each argv of a JSON list in one interpreter, then prints
# the payloads and the scipy modules loaded as one JSON line.
_PROBE = """
import contextlib, io, json, sys
import ellipstat
payloads = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ellipstat.cli.main(argv) == 0, argv
    payloads.append(out.getvalue())
print(json.dumps([payloads, sorted(m for m in sys.modules
                                   if m.split(".")[0] == "scipy")]))
"""


def _fresh_run(argvs):
    """(stdout payloads, scipy modules) of argvs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", [
    None,
    ["gell", "--matrix", "6,2;2,3"],
    ["fixtures"],
    ["kiss"],
], ids=["import", "gell", "fixtures", "kiss"])
def test_no_scipy_without_a_quantile(argv):
    _, loaded = _fresh_run([argv] if argv else [])
    assert loaded == []


# One run of each of the 16 subcommands on the bundled fixtures; lda needs
# two groups, so it reads a two-species subset written by the test.
SUBCOMMANDS = [
    ["data-ellipse", "--data", "galton", "--level", "0.68"],
    ["decompose", "--data", "iris", "--group", "Species"],
    ["betaspace", "--data", "synthetic-coffee", "--response", "Heart",
     "--coords", "Coffee,Stress"],
    ["avp", "--data", "synthetic-coffee", "--response", "Heart",
     "--k", "Coffee"],
    ["measure-error", "--data", "galton", "--response", "child",
     "--x", "parent", "--reps", "20"],
    ["heplot", "--data", "iris", "--group", "Species"],
    ["contrasts", "--data", "iris", "--group", "Species",
     "--contrast=-2,1,1", "--contrast=0,1,-1"],
    ["canonical", "--data", "iris", "--group", "Species"],
    ["kiss"],
    ["lda", "--data", "{two_species}", "--group", "Species"],
    ["ridge-trace", "--data", "longley", "--response", "Employed"],
    ["bayes", "--data", "longley", "--response", "Employed",
     "--precision", "0.02"],
    ["blup", "--data", "hsb-sample", "--group", "school", "--x", "cses",
     "--response", "mathach", "--g-diag", "6.25,0.64"],
    ["meta", "--data", "berkey", "--model", "random"],
    ["gell", "--matrix", "6,2,1;2,3,0;1,0,2", "--project",
     "1,0,0;0,1,0;0,0,0", "--conjugate", "cholesky"],
    ["fixtures"],
]


def test_no_subcommand_loads_scipy(tmp_path):
    # every subcommand, the six that compute a quantile included, runs
    # without loading any scipy module, and prints what it prints here
    text = datasets.fixture_csv_text("iris")
    lines = text.splitlines()
    subset = tmp_path / "two_species.csv"
    subset.write_text("\n".join([lines[0]] + [r for r in lines[1:]
                                              if "setosa" not in r]) + "\n")
    argvs = [[a.format(two_species=subset) for a in argv]
             for argv in SUBCOMMANDS]
    assert len({argv[0] for argv in argvs}) == 16
    payloads, loaded = _fresh_run(argvs)
    assert loaded == []
    for argv, fresh in zip(argvs, payloads):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):   # scipy is loaded here
            assert cli.main(argv) == 0
        assert fresh == out.getvalue(), argv[0]


def test_runtime_dependency_is_numpy_alone():
    meta = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml")
                         .read_text(encoding="utf-8"))["project"]
    assert [d.split(">")[0] for d in meta["dependencies"]] == ["numpy"]
    extras = {name: [d.split(">")[0] for d in deps]
              for name, deps in meta["optional-dependencies"].items()}
    assert [name for name, deps in extras.items() if "scipy" in deps] \
        == ["test"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_top_level_scipy_import(path):
    # nor anywhere else in the module: function bodies are banned too
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(n.split(".")[0] == "scipy" for n in names), \
            f"{path.name}:{node.lineno} imports scipy"


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



# The numpy calls the command line may make: building arrays from its
# input and checking them. The CSV reader is datasets'. Every statistic is
# the library's.
CLI_NUMPY_CALLS = {"array", "column_stack", "stack", "concatenate", "split",
                   "cumsum", "zeros", "ones", "eye", "diag", "isfinite",
                   "all", "flatnonzero"}


def _numpy_chains(path):
    """(line, name, called) of each outermost np.<...> attribute chain in
    the module at path; called says whether a call applies it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    inner = {id(n.value) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id == "np":
            yield node.lineno, ast.unparse(node), id(node) in called


def test_cli_computes_nothing():
    # cli.py parses, calls the library and emits: it names no np.linalg
    # function (it catches LinAlgError) and calls numpy only to build and
    # check arrays
    for line, name, called in _numpy_chains(PACKAGE / "cli.py"):
        if name.startswith("np.linalg."):
            assert name == "np.linalg.LinAlgError", f"cli.py:{line}: {name}"
        assert not called or name[3:] in CLI_NUMPY_CALLS, \
            f"cli.py:{line} calls {name}"


@pytest.mark.parametrize("path", sorted((PACKAGE.parent.parent / "demos")
                                        .glob("*.py")), ids=lambda p: p.name)
def test_demos_compute_no_statistics_by_hand(path):
    for line, name, _ in _numpy_chains(path):
        assert name.split(".")[1] not in ("linalg", "cov", "var"), \
            f"{path.name}:{line} uses {name}"
