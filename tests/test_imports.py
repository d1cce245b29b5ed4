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


def _fresh_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _fresh_run(argvs):
    """(stdout payloads, scipy modules) of argvs in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=_fresh_env(),
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


# Runs `ellip` as `python -m ellipstat` does, and at exit prints the
# ellipstat modules it loaded on one line, and whether dataclasses was
# loaded on the next.
_COLD_ELLIP = """
import atexit, runpy, sys


def loaded():
    print(" ".join(sorted(m.partition(".")[2] for m in sys.modules
                          if m.startswith("ellipstat."))))
    print("dataclasses" in sys.modules)


atexit.register(loaded)
sys.argv = ["ellip"] + sys.argv[1:]
runpy.run_module("ellipstat", run_name="__main__", alter_sys=True)
"""

_BARE_IMPORT = """
import json, sys
import ellipstat
loaded = sorted(m for m in sys.modules
                if m.startswith("ellipstat.") or m.split(".")[0] == "numpy")
listed = dir(ellipstat)
resolved = {name: type(getattr(ellipstat, name)).__name__
            for name in ellipstat.__all__}
print(json.dumps([loaded, listed, resolved]))
"""


def test_bare_import_loads_nothing():
    # the package resolves its modules and re-exported names on first use
    proc = subprocess.run([sys.executable, "-c", _BARE_IMPORT],
                          capture_output=True, text=True, env=_fresh_env(),
                          check=True)
    loaded, listed, resolved = json.loads(proc.stdout)
    assert loaded == []
    assert set(ellipstat.__all__) <= set(listed)
    assert list(resolved) == ellipstat.__all__
    assert {resolved[name] for name in ellipstat.__all__[:10]} == {"module"}
    assert ellipstat.GEllipsoid is ellipstat.gellipsoid.GEllipsoid
    assert ellipstat.coverage_radius is ellipstat.statellipse.coverage_radius
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        ellipstat.nosuch


# The ellipstat modules a cold `ellip <subcommand>` loads besides cli and
# numkernel: those the subcommand runs and those they import. None of
# these runs writes an SVG, so none builds a scene or loads render.
_STATS = {"distributions", "gellipsoid", "statellipse"}
LOADED = {
    "data-ellipse": {"datasets"} | _STATS,
    "decompose": {"datasets"} | _STATS,
    "betaspace": {"datasets", "distributions", "gellipsoid", "linmod"},
    "avp": {"datasets", "linmod"} | _STATS,
    "measure-error": {"datasets", "distributions", "gellipsoid", "linmod"},
    "heplot": {"datasets", "mlm"} | _STATS,
    "contrasts": {"datasets", "mlm"} | _STATS,
    "canonical": {"datasets", "mlm"} | _STATS,
    "kiss": {"kissing"} | _STATS,
    "lda": {"datasets", "kissing"} | _STATS,
    "ridge-trace": {"datasets", "kissing"} | _STATS,
    "bayes": {"datasets", "kissing"} | _STATS,
    "blup": {"datasets", "kissing"} | _STATS,
    "meta": {"datasets", "kissing"} | _STATS,
    "gell": {"gellipsoid"},
    "fixtures": {"datasets"},
}


@pytest.fixture(scope="module")
def two_species(tmp_path_factory):
    lines = datasets.fixture_csv_text("iris").splitlines()
    path = tmp_path_factory.mktemp("data") / "two_species.csv"
    path.write_text("\n".join([lines[0]] + [r for r in lines[1:]
                                             if "setosa" not in r]) + "\n")
    return path


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: a[0])
def test_subcommand_loads_only_what_it_runs(argv, two_species, tmp_path):
    # a cold process, as the `ellip` command runs it; the module list is
    # printed when the interpreter exits
    argv = [a.format(two_species=two_species) for a in argv]
    proc = subprocess.run([sys.executable, "-c", _COLD_ELLIP, *argv],
                          capture_output=True, text=True, env=_fresh_env(),
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    *_, modules, dataclasses = proc.stdout.splitlines()
    assert set(modules.split()) - {"__main__"} \
        == {"cli", "numkernel"} | LOADED[argv[0]]
    # its classes are written out, so no code is generated for them
    assert dataclasses == "False"


def test_cli_imports_only_numkernel_at_module_level():
    # every other module is imported by the command that runs it
    assert _package_imports(PACKAGE / "cli.py", top_level=True) \
        == {"numkernel"}


def test_runtime_dependency_is_numpy_alone():
    meta = tomllib.loads((PACKAGE.parent.parent / "pyproject.toml")
                         .read_text(encoding="utf-8"))["project"]
    assert [d.split(">")[0] for d in meta["dependencies"]] == ["numpy"]
    extras = {name: [d.split(">")[0] for d in deps]
              for name, deps in meta["optional-dependencies"].items()}
    assert [name for name, deps in extras.items() if "scipy" in deps] \
        == ["test"]


def _imported_roots(path):
    """(line, top-level package) of each module the module at path imports,
    anywhere in it."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        yield from ((node.lineno, n.split(".")[0]) for n in names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_top_level_scipy_import(path):
    # nor anywhere else in the module: function bodies are banned too
    for line, root in _imported_roots(path):
        assert root != "scipy", f"{path.name}:{line} imports scipy"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    # a dataclass generates and compiles its methods when its module is
    # imported, a cost every cold `ellip` process would pay
    for line, root in _imported_roots(path):
        assert root != "dataclasses", f"{path.name}:{line} imports dataclasses"


def _package_imports(path, top_level=False):
    """Names of the ellipstat modules that the module at path imports,
    anywhere in it or at its top level only."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in tree.body if top_level else ast.walk(tree):
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


def test_only_cli_imports_render():
    importers = {path.name for path in PACKAGE.glob("*.py")
                 if "render" in _package_imports(path)}
    assert importers == {"cli.py"}


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


# Definitions kept without a caller in the program, each for its reason.
UNCALLED = {
    "mlm.protrusion_ratio": "acceptance criterion 5 reads the protrusion "
                            "ratio of the iris HE plot from it",
    "kissing.QuadFamily.level_ellipse": "the one-level reference that "
                                        "level_ellipses matches bit for bit",
}


def _definitions(tree, module):
    """(qualified name, node) of every function, class and method in a
    module, dunder methods aside: Python calls those itself."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if not child.name.startswith("__"):
                    yield f"{prefix}.{child.name}", child
                yield from visit(child, f"{prefix}.{child.name}")
            else:
                yield from visit(child, prefix)
    return visit(tree, module)


def _references(tree):
    """(name, ids of the definitions enclosing it) of every name and
    attribute a module reads."""
    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            yield node.id, enclosing
        elif isinstance(node, ast.Attribute):
            yield node.attr, enclosing
        for child in ast.iter_child_nodes(node):
            yield from visit(child, enclosing)
    return visit(tree, frozenset())


def test_every_definition_has_a_caller():
    # a function, class or method that nothing in the program names
    # outside its own body is dead code, or an option nothing sets
    root = PACKAGE.parent.parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*sorted(PACKAGE.glob("*.py")),
                          *(root / "demos").glob("*.py"),
                          *(root / "bench").glob("*.py")]}
    refs = {}
    for tree in trees.values():
        for name, enclosing in _references(tree):
            refs.setdefault(name, []).append(enclosing)
    uncalled = [
        qual for path, tree in trees.items() if path.parent == PACKAGE
        for qual, node in _definitions(tree, path.stem)
        if all(id(node) in enclosing for enclosing in refs.get(node.name, ()))]
    assert sorted(uncalled) == sorted(UNCALLED)


# Options kept with no setter in the program, each for its reason.
UNSET = {
    "datasets.hsb_sample.n_schools": "the fixture generator's size: the "
                                     "bundled table is its default",
    "datasets.hsb_sample.seed": "the fixture generator's seed: the bundled "
                                "table is its default",
    "datasets.synthetic_coffee.n": "the fixture generator's size: the "
                                   "bundled table is its default",
    "datasets.synthetic_coffee.seed": "the fixture generator's seed: the "
                                      "bundled table is its default",
    "statellipse.grouped_slopes_demo.n_groups": "the demo generator's size",
    "statellipse.grouped_slopes_demo.n_per_group": "the demo generator's "
                                                   "size",
    "statellipse.grouped_slopes_demo.seed": "the demo generator's seed",
    "gellipsoid.contains.tol": "the boundary band a caller may widen; the "
                               "default is the package's named rule",
    "mlm.protrusion_ratio.alpha": "acceptance criterion 5 reads the "
                                  "protrusion ratio at the default level",
}


def _callee(call):
    func = call.func
    return (func.id if isinstance(func, ast.Name) else
            func.attr if isinstance(func, ast.Attribute) else None)


def _options(tree, module):
    """(qualified name, callee, parameter, positional index or None) of
    every parameter with a default of a function, method or class in a
    module, and of every field with a default of a NamedTuple there. A
    class is called by its name; a method's index does not count self, and
    a keyword-only parameter has none."""
    def params(fn, qual, callee, skip):
        args = fn.args
        pos = [*args.posonlyargs, *args.args][skip:]
        first = len(pos) - len(args.defaults)
        for i, arg in enumerate(pos[first:], first):
            yield f"{qual}.{arg.arg}", callee, arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{qual}.{arg.arg}", callee, arg.arg, None

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            qual = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, ast.ClassDef):
                if any(ast.unparse(b).endswith("NamedTuple")
                       for b in child.bases):
                    fields = [s for s in child.body
                              if isinstance(s, ast.AnnAssign)]
                    for i, field in enumerate(fields):
                        if field.value is not None:
                            yield (f"{qual}.{field.target.id}", child.name,
                                   field.target.id, i)
                yield from visit(child, qual, child)
            elif isinstance(child, ast.FunctionDef):
                if cls is not None and child.name == "__init__":
                    yield from params(child, prefix, cls.name, 1)
                else:
                    static = any(ast.unparse(d) == "staticmethod"
                                 for d in child.decorator_list)
                    yield from params(child, qual, child.name,
                                      int(cls is not None and not static))
                yield from visit(child, qual, None)
    return visit(tree, module, None)


def _calls(tree):
    """(callee, call) of every call in a module; super().__init__(...)
    inside a class calls each of its bases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield _callee(node), node
        if isinstance(node, ast.ClassDef):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and _callee(call) == "__init__" \
                        and isinstance(call.func.value, ast.Call) \
                        and _callee(call.func.value) == "super":
                    for base in node.bases:
                        yield ast.unparse(base).rpartition(".")[2], call


def _sets(call, name, index):
    # by keyword, by position, or through *args or **kwargs
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or index is not None and len(call.args) > index)


def test_every_option_has_a_setter():
    # a parameter or field with a default that no call in the program
    # gives a value is an option only tests set: a constant, or gone
    root = PACKAGE.parent.parent
    calls = {}
    for path in [*sorted(PACKAGE.glob("*.py")), *(root / "demos").glob("*.py"),
                 *(root / "bench").glob("*.py")]:
        for callee, call in _calls(ast.parse(path.read_text(
                encoding="utf-8"))):
            calls.setdefault(callee, []).append(call)
    unset = [
        qual for path in sorted(PACKAGE.glob("*.py"))
        for qual, callee, name, index in _options(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if not any(_sets(call, name, index) for call in calls.get(callee, ()))]
    assert sorted(unset) == sorted(UNSET)
