"""ellipstat benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Runs from the root of a source checkout (the directory holding src/ and
bench/). It writes the seeded inputs under .bench_work/, runs whole
passes over the workload's operations until S seconds have elapsed, and
checks every operation's output. The last line of standard output is a
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. End-to-end times are scaled to a reference host speed measured
by a calibration probe (see calibrate). A traced run measures half its
time untraced and half traced, and writes every span to
.bench_work/<workload>/spans.tsv. `--workload all` runs every workload
untraced and traced and prints every metric. See bench/README.md for
the workloads and metrics.
"""

import os

# One BLAS thread, before numpy loads here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ELLIP_FIXTURES", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "ellipstat" / "fixtures"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 5
IMPORT_PROBES = 3
# Seconds the calibration probe takes at the reference speed; end-to-end
# times are reported at that speed (see speed_factor).
C_REF = 0.006
SETUP_PROBE = ("import time\nimport ellipstat\nellipstat.cli.build_parser()\n"
               "print(time.monotonic())")

UNITS = {"ops_per_s": "1/s", "p50_ms": "ms", "p90_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "ok_frac": "frac"}


def layer_unit(name):
    for suffix, unit in (("ms", "ms"), ("bytes", "B"), ("frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


# ------------------------------------------------------------ host speed

def calibrate():
    """Seconds for a fixed mix of interpreter loops, small numpy solves and
    number formatting, none of it ellipstat code.

    On a shared host the same operation can take anywhere from 1x to 2x
    its best time, in regimes lasting seconds to minutes; this probe slows
    down with it. The driver runs it before every operation and setup
    probe and reports times at the reference speed (see speed_factor).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    a = np.eye(4) + 0.1
    for _ in range(300):
        np.linalg.solve(a, np.ones(4))
    ",".join(f"{x:.4f}" for x in range(3000))
    return time.perf_counter() - t0


def speed_factor(calibs):
    """Scale from measured times to times at the reference speed: C_REF
    over the median calibration of the run (or of one half of a traced
    run). One factor per run follows the slow regimes; per-operation
    factors would add the probe's own noise to every operation."""
    return C_REF / statistics.median(calibs)


# ------------------------------------------------------------------ setup

def setup_seconds(env):
    """Fresh interpreter until `import ellipstat` and build_parser() end."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1]) - t0


def import_breakdown(env):
    """`-X importtime` of ellipstat (ms): the whole import, and the
    cumulative time of the scipy and numpy imports it triggers, each
    module counted under the outermost package import it ran inside."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import ellipstat"], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    pending = {}        # depth -> [(name, cumulative us, children)]
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        node = (name.strip(), int(cumulative), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    totals = {"ellipstat": 0, "scipy": 0, "numpy": 0}

    def walk(nodes, outer):
        for name, cumulative, children in nodes:
            top = name.split(".")[0]
            if top == "ellipstat" and name == top:
                totals[top] += cumulative
            elif top in ("scipy", "numpy") and outer is None:
                totals[top] += cumulative
                walk(children, top)
                continue
            walk(children, outer)
    walk([n for depth in sorted(pending) for n in pending[depth]], None)
    return {"import.ms": totals["ellipstat"] / 1e3,
            "import.scipy_ms": totals["scipy"] / 1e3,
            "import.numpy_ms": totals["numpy"] / 1e3}


def blas_threads():
    """Threads of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np_version, scipy_version):
    return {"python": platform.python_version(), "numpy": np_version,
            "scipy": scipy_version, "nproc": os.cpu_count(),
            "blas_threads": blas_threads(),
            "thread_env": {v: os.environ[v] for v in
                           ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")},
            "machine": platform.machine()}


# ------------------------------------------------------------- operations

@dataclass
class Result:
    op: object
    code: int
    seconds: float
    problems: list
    rss_mb: float = 0.0
    calib: float = 0.0

    @property
    def ok(self):
        return not self.problems


class Runner:
    """Runs operations in this process or as cold `python -m ellipstat`."""

    def __init__(self, cold, workdir, checker):
        self.cold = cold
        self.dir = workdir
        self.check = checker
        self.tracer = None
        self.out_json = workdir / "out.json"
        self.out_svg = workdir / "out.svg"
        self.env = child_env()
        if not cold:
            import ellipstat
            if Path(ellipstat.__file__).resolve().parent != \
                    (SRC / "ellipstat").resolve():
                raise SystemExit(f"imported {ellipstat.__file__}, "
                                 f"not the checkout's")
            self.package = ellipstat

    def argv(self, op):
        return [str(self.dir / "in" / a[1:]) if a.startswith("@") else a
                for a in op.argv] + ["--json", str(self.out_json),
                                     "--svg", str(self.out_svg)]

    def execute(self, op):
        for path in (self.out_json, self.out_svg):
            path.unlink(missing_ok=True)
        argv = self.argv(op)
        calib = calibrate()
        if self.cold:
            code, seconds, rss = self._cold(op, argv)
        else:
            (code, seconds), rss = self._in_process(op, argv), 0.0
        json_text = read_output(self.out_json)
        svg_text = read_output(self.out_svg)
        if isinstance(code, str):
            problems = [code]
        elif code == 0 and json_text is None:
            problems = ["JSON missing"]
        else:
            problems = self.check(op, code, json_text, svg_text)
        return Result(op, code, seconds, problems, rss, calib)

    def _in_process(self, op, argv):
        done = self.tracer.operation(op.key) if self.tracer else None
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = self.package.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:   # reported as this operation's failure
                    code = traceback.format_exc(limit=-1).strip()
                seconds = time.perf_counter() - t0
        finally:
            if done:
                done()
        return code, seconds

    def _cold(self, op, argv):
        spans = self.dir / "child-spans.json"
        if self.tracer:
            cmd = [sys.executable, str(BENCH / "child.py"), str(spans),
                   op.key, *argv]
        else:
            cmd = [sys.executable, "-m", "ellipstat", *argv]
        with open(self.dir / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if self.tracer:
            with open(spans, encoding="utf-8") as f:
                self.tracer.merge(json.load(f))
        return proc.returncode, seconds, usage.ru_maxrss / 1024.0

    def passes(self, ops, budget):
        """Whole passes over ops until budget seconds have elapsed."""
        results = []
        t0 = time.perf_counter()
        while True:
            results.extend(self.execute(op) for op in ops)
            if time.perf_counter() - t0 >= budget:
                return results


def read_output(path):
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def input_text(op, inputs):
    """CSV text of an operation's --data: a generated input or a fixture."""
    name = op.argv[op.argv.index("--data") + 1]
    if name.startswith("@"):
        return inputs[name[1:]]
    from ellipstat import datasets
    return datasets.fixture_csv_text(name)


def make_checker(ops, inputs, check):
    refs = {}
    for group in {op.group for op in ops if op.check == "ref"}:
        refs.update(check.load_refs(group))
    expected = {op.key: check.INDEPENDENT[op.check][0](input_text(op, inputs))
                for op in ops if op.check != "ref"}

    def checker(op, code, json_text, svg_text):
        if op.check == "ref":
            return check.check_ref(refs[op.key], code, json_text, svg_text,
                                   ROOT)
        return check.INDEPENDENT[op.check][1](expected[op.key], code,
                                              json_text, svg_text)
    return checker


# ---------------------------------------------------------------- metrics

def end_to_end(results, probes, peak_rss):
    """The end-to-end metrics; probes are (calibration, setup) pairs."""
    factor = speed_factor([r.calib for r in results] +
                          [c for c, _ in probes])
    times = [r.seconds * factor for r in results]
    setup = statistics.median(t for _, t in probes) * factor
    ok = sum(r.ok for r in results)
    return {
        "ops_per_s": ok / sum(times),
        "p50_ms": 1e3 * statistics.median(times),
        "p90_ms": 1e3 * statistics.quantiles(times, n=10,
                                             method="inclusive")[8],
        "setup_s": setup,
        "peak_rss_mb": peak_rss,
        "ok_frac": ok / len(results),
    }


def report(results, title):
    """Human-readable lines: counts, host speed, per-subcommand times (raw
    and at the reference speed), failures."""
    calib = statistics.median(r.calib for r in results)
    raw = [r.seconds for r in results]
    ref = [t * C_REF / calib for t in raw]
    failed = [r for r in results if not r.ok]
    p90 = statistics.quantiles(ref, n=10, method="inclusive")[8]
    beyond = sum(t > p90 for t in ref)
    print(f"{title}: {len(results)} operations, {len(failed)} failed "
          f"(fail_frac {len(failed) / len(results):.4f}); p90 from "
          f"{len(ref)} samples, {beyond} beyond it")
    print(f"  host speed: median calibration {1e3 * calib:.2f} ms, "
          f"reference {1e3 * C_REF:g} ms")
    by_sub = {}
    for r, t_raw, t_ref in zip(results, raw, ref):
        by_sub.setdefault(r.op.sub, []).append((t_raw, t_ref))
    for sub, ts in sorted(by_sub.items()):
        print(f"  {sub:14s} n={len(ts):4d}  median "
              f"{1e3 * statistics.median(t for t, _ in ts):9.2f} ms raw, "
              f"{1e3 * statistics.median(t for _, t in ts):9.2f} ms at "
              f"reference speed")
    seen = set()
    for r in failed:
        if r.op.key in seen:
            continue
        seen.add(r.op.key)
        n = sum(1 for x in failed if x.op.key == r.op.key)
        tag = "known defect" if r.op.known_defect else "UNEXPECTED"
        print(f"  {tag}: {r.op.key} failed {n}x: {r.problems[0]}")


def count_invariants(tracer, ops):
    """Calls per operation of the counted functions, by subcommand and
    input size (kiss marks, blup clusters)."""
    meta = {op.key: op.meta for op in ops}
    seen = set()
    for label, calls in zip(tracer.op_labels, tracer.per_op_calls()):
        row = ", ".join(f"{name.split('.')[-1]} {n}"
                        for name, n in calls.items() if n)
        if row:
            size = "".join(f" ({k} {v})" for k, v in meta[label].items())
            seen.add(f"  calls per {label.split()[0]} op{size}: {row}")
    for line in sorted(seen):
        print(line)


# ------------------------------------------------------------------- main

def run_all(args, names):
    """Every workload, untraced then traced, each in its own process;
    prints every metric with its unit, then all results as one JSON line."""
    results = {}
    for name in names:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace",
                 str(trace)], capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
    for run, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{run:20s} {metric:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ellipstat" / "__init__.py").is_file():
        print(f"bench: no ellipstat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    # One CPU for the driver and its children, so that the calibration
    # probe runs where the operations run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import scipy
    import check

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "in").mkdir(parents=True)
    plan = workloads.plan(args.workload, args.seed,
                          (FIXTURES / "iris.csv").read_text(encoding="utf-8"))
    for name, text in plan.inputs.items():
        (workdir / "in" / name).write_text(text, encoding="utf-8")
    checker = make_checker(plan.ops, plan.inputs, check)

    env = child_env()
    setup_seconds(env)                    # compiles bytecode; not timed
    env_record = environment(np.__version__, scipy.__version__)
    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    print("environment: " + json.dumps(env_record))

    cold = args.workload == "cold_cli"
    if args.trace:
        imports = [import_breakdown(env) for _ in range(IMPORT_PROBES)]
        imports = {k: statistics.median(d[k] for d in imports)
                   for k in imports[0]}
        print("import breakdown (ms, median of "
              f"{IMPORT_PROBES}): " + json.dumps(imports))
    else:
        probes = [(calibrate(), setup_seconds(env))
                  for _ in range(SETUP_PROBES)]

    runner = Runner(cold, workdir, checker)
    if args.trace:
        from spans import Tracer
        half = args.seconds / 2
        untraced = runner.passes(plan.ops, half)
        runner.tracer = Tracer()
        if not cold:
            runner.tracer.install(runner.package)
        traced = runner.passes(plan.ops, half)
        results = untraced + traced
        report(untraced, "untraced")
        report(traced, "traced")
        count_invariants(runner.tracer, plan.ops)
        metrics = runner.tracer.layer_metrics()
        metrics.update(imports)
        per_op = [statistics.fmean(r.seconds for r in rs) *
                  speed_factor([r.calib for r in rs])
                  for rs in (untraced, traced)]
        metrics["trace.overhead_frac"] = per_op[1] / per_op[0] - 1.0
        runner.tracer.write(workdir / "spans.tsv",
                            workdir / "trace-summary.json",
                            {"workload": args.workload, "seed": args.seed,
                             "environment": env_record,
                             "layers": metrics})
        units = {k: layer_unit(k) for k in metrics}
    else:
        results = runner.passes(plan.ops, args.seconds)
        report(results, "measured")
        peak = (max(r.rss_mb for r in results) if cold else
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = end_to_end(results, probes, peak)
        units = UNITS

    with open(workdir / "results.tsv", "w", encoding="utf-8") as f:
        f.write("op\tseconds\tcalibration_s\tok\tproblem\n")
        for r in results:
            problem = r.problems[0].splitlines()[-1] if r.problems else ""
            f.write(f"{r.op.key}\t{r.seconds:.6f}\t{r.calib:.6f}\t"
                    f"{int(r.ok)}\t{problem}\n")
    failed = [r for r in results if not r.ok]
    correct = not any(not r.op.known_defect for r in failed)
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
