"""The benchmark's tracer still hooks the library it measures.

bench/spans.py wraps module functions and MixedSpec.error_variance by
name, so a renamed or removed function breaks traced benchmark runs only.
The tracer patches the package for good, so it runs in a fresh
interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import ellipstat

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Installs the tracer, runs one blup as one traced operation and prints
# the names the tracer reads that it did not wrap, the wrapped names that
# do not resolve to a wrapper from the package, and the operation's calls.
_PROBE = """
import contextlib, functools, io, json, sys
import ellipstat, spans
tracer = spans.Tracer()
tracer.install(ellipstat)
close = tracer.operation("blup")
with contextlib.redirect_stdout(io.StringIO()):
    code = ellipstat.cli.main(json.loads(sys.argv[1]))
close()
read = (spans.COUNTED + spans.QUANTILES + spans.CDFS
        + tuple(sorted(spans._OWN_KEYS)))
unresolved = [n for n in tracer.names if not n.startswith("op:") and not
              hasattr(functools.reduce(getattr, n.split("."), ellipstat),
                      "__wrapped__")]
print(json.dumps({"code": code,
                  "unwrapped": [n for n in read if n not in tracer.names],
                  "unresolved": unresolved,
                  "calls": tracer.per_op_calls()[0]}))
"""


def test_tracer_wraps_every_name_and_counts_one_error_variance():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(ellipstat.__file__).parents[1]), str(ROOT / "bench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    argv = ["blup", "--data", "hsb-sample", "--group", "school", "--x",
            "cses", "--response", "mathach"]
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          check=True)
    got = json.loads(proc.stdout)
    assert got["code"] == 0
    assert got["unwrapped"] == []
    assert got["unresolved"] == []
    assert got["calls"]["kissing.MixedSpec.error_variance"] == 1
