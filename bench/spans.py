"""Spans around the public functions of every ellipstat module.

The wrappers replace module attributes (and MixedSpec.error_variance on
its class). Modules call each other, and themselves, through module
globals, so the wrappers also see internal calls, such as the cdf
evaluations inside distributions' bisection lambdas and the traces that
render.build_kiss_locus starts. Nothing inside ellipstat changes.

Spans live in flat arrays in memory: name, start, end, parent span and
operation id; `write` saves them when the run ends. A span's self time is
its duration minus that of its child spans, and it is booked under a
metric key: its own key if it has one, otherwise the key of its nearest
ancestor in the same module, otherwise the module's name. So load_csv
inside resolve_data counts as CSV parsing, and cross_field inside
trace_locus as locus tracing.
"""

import functools
import inspect
import json
import time
from array import array

MODULES = ("cli", "datasets", "distributions", "numkernel", "gellipsoid",
           "statellipse", "linmod", "mlm", "kissing", "render")

# Functions whose self time is a metric of its own.
_OWN_KEYS = {"cli.build_parser", "cli.resolve_data", "cli.dump_json",
             "datasets.fixture_csv_text", "kissing.trace_locus",
             "render.render_scene"}

QUANTILES = ("distributions.chi2_quantile", "distributions.f_quantile",
             "distributions.t_quantile")
CDFS = ("distributions.chi2_cdf", "distributions.f_cdf",
        "distributions.t_cdf")
COUNTED = ("kissing.trace_locus", "kissing.osculation_point",
           "mlm.canonical", "kissing.MixedSpec.error_variance")


def _own_key(name):
    module, _, func = name.partition(".")
    if module == "render" and func.startswith("build_"):
        return "render.build"
    return name if name in _OWN_KEYS else None


def _encoded_size(args, kwargs, result):
    return len(result.encode())


def _hook(name, fn):
    """The (counter, extractor) read off each call of `name`, if any."""
    if name == "kissing.trace_locus":
        sig = inspect.signature(fn)

        def grid_cells(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return (bound.arguments["resolution"] + 1) ** 2
        return "kissing.grid_cells", grid_cells
    return {"cli.resolve_data": ("cli.rows_parsed", lambda a, k, r: r.n),
            "cli.dump_json": ("cli.json_bytes", _encoded_size),
            "render.render_scene": ("render.svg_bytes", _encoded_size),
            }.get(name)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters = {}            # (op, counter) -> total
        self.op_labels = []
        self._stack = [-1]

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(len(self.op_labels) - 1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(i)
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _count(self, counter, value):
        key = (len(self.op_labels) - 1, counter)
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn):
        nid = self._intern(name)
        hook = _hook(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook:
                self._count(hook[0], hook[1](args, kwargs, result))
            return result
        return traced

    def install(self, package):
        """Wrap every public function of the package's modules."""
        for short in MODULES:
            mod = getattr(package, short)
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and not attr.startswith("_") \
                        and obj.__module__ == mod.__name__:
                    setattr(mod, attr, self.wrap(f"{short}.{attr}", obj))
        spec = package.kissing.MixedSpec
        spec.error_variance = self.wrap("kissing.MixedSpec.error_variance",
                                        spec.error_variance)

    def operation(self, label):
        """Open the root span of a new operation; returns its closer."""
        self.op_labels.append(label)
        i = self._open(self._intern(f"op:{label.split()[0]}"))
        return lambda: self._close(i)

    # ------------------------------------------------------------ output

    def to_dict(self):
        return {"names": self.names, "name_id": list(self.name_id),
                "start": list(self.start), "end": list(self.end),
                "parent": list(self.parent), "op": list(self.op),
                "op_labels": self.op_labels,
                "counters": [[o, c, v] for (o, c), v in
                             self.counters.items()]}

    def merge(self, data):
        """Append the spans of another tracer (a traced child process)."""
        base = len(self.start)
        op_base = len(self.op_labels)
        for k in range(len(data["start"])):
            self.name_id.append(self._intern(
                data["names"][data["name_id"][k]]))
            p = data["parent"][k]
            self.parent.append(p + base if p >= 0 else -1)
            self.op.append(data["op"][k] + op_base)
            self.start.append(data["start"][k])
            self.end.append(data["end"][k])
        self.op_labels.extend(data["op_labels"])
        for o, c, v in data["counters"]:
            self.counters[(o + op_base, c)] = v

    def _self_times(self):
        """Self time (s) per metric key, and call counts per name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        modules = [""] * n
        keys = [None] * n
        calls = {}
        for i in range(n):       # a parent precedes its children
            name = self.names[self.name_id[i]]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            calls[name] = calls.get(name, 0) + 1
            modules[i] = module = name.partition(".")[0]
            key = _own_key(name)
            j = p
            while key is None and j >= 0:
                if modules[j] == module:
                    key = keys[j]
                j = self.parent[j]
            keys[i] = key or module
        self_s = {}
        for i in range(n):
            if not modules[i].startswith("op:"):
                self_s[keys[i]] = self_s.get(keys[i], 0.0) + dur[i] - child[i]
        return self_s, calls

    def per_op_calls(self, names=COUNTED):
        """calls[op][name] for the named functions."""
        wanted = {self._ids[n]: n for n in names if n in self._ids}
        out = [dict.fromkeys(names, 0) for _ in self.op_labels]
        for i in range(len(self.start)):
            name = wanted.get(self.name_id[i])
            if name is not None:
                out[self.op[i]][name] += 1
        return out

    def layer_metrics(self):
        """Per-operation self times (ms) and counts, by metric name."""
        n_ops = max(len(self.op_labels), 1)
        self_s, calls = self._self_times()

        def ms(*keys):
            return 1e3 * sum(self_s.get(k, 0.0) for k in keys) / n_ops

        def per_op(*names):
            return sum(calls.get(k, 0) for k in names) / n_ops

        def counter(name):
            return sum(v for (_, c), v in self.counters.items()
                       if c == name) / n_ops

        def module_calls(module):
            return sum(v for k, v in calls.items()
                       if k.startswith(module + ".")) / n_ops

        quantiles = sum(calls.get(k, 0) for k in QUANTILES)
        cdfs = sum(calls.get(k, 0) for k in CDFS)
        return {
            "cli.build_parser.ms": ms("cli.build_parser"),
            "cli.resolve_data.ms": ms("cli.resolve_data"),
            "cli.rows_parsed": counter("cli.rows_parsed"),
            "cli.dump_json.ms": ms("cli.dump_json"),
            "cli.json_bytes": counter("cli.json_bytes"),
            "datasets.fixture_csv_text.ms": ms("datasets.fixture_csv_text"),
            "distributions.ms": ms("distributions"),
            "distributions.quantile.calls": per_op(*QUANTILES),
            "distributions.cdf.calls": per_op(*CDFS),
            "distributions.cdf_per_quantile":
                cdfs / quantiles if quantiles else 0.0,
            "numkernel.ms": ms("numkernel"),
            "numkernel.calls": module_calls("numkernel"),
            "gellipsoid.ms": ms("gellipsoid"),
            "gellipsoid.calls": module_calls("gellipsoid"),
            "statellipse.ms": ms("statellipse"),
            "linmod.ms": ms("linmod"),
            "mlm.ms": ms("mlm"),
            "mlm.canonical.calls": per_op("mlm.canonical"),
            "kissing.trace_locus.ms": ms("kissing.trace_locus"),
            "kissing.trace_locus.calls": per_op("kissing.trace_locus"),
            "kissing.grid_cells": counter("kissing.grid_cells"),
            "kissing.osculation_point.calls":
                per_op("kissing.osculation_point"),
            "kissing.error_variance.calls":
                per_op("kissing.MixedSpec.error_variance"),
            "kissing.ms": ms("kissing", "kissing.trace_locus"),
            "render.build.ms": ms("render.build"),
            "render.render_scene.ms": ms("render.render_scene"),
            "render.svg_bytes": counter("render.svg_bytes"),
        }

    def write(self, spans_path, summary_path, extra):
        """Save every span (TSV) and the self-time and count summary."""
        with open(spans_path, "w", encoding="utf-8") as f:
            f.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                        f"{self.names[self.name_id[i]]}\t"
                        f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
        self_s, calls = self._self_times()
        summary = dict(extra)
        summary["self_ms_total"] = {k: 1e3 * v for k, v in
                                    sorted(self_s.items())}
        summary["calls_total"] = dict(sorted(calls.items()))
        summary["per_op"] = [
            {"op": label, "calls": c,
             "counters": {name: v for (o, name), v in self.counters.items()
                          if o == k}}
            for k, (label, c) in enumerate(zip(self.op_labels,
                                               self.per_op_calls()))]
        with open(summary_path, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
