"""The CLI contract as a property, for `meta`, `blup`, `measure-error` and
the grouped subcommands `heplot`, `contrasts`, `canonical`, `lda` and
`decompose`: every generated table exits 0, 2 or 3 within a bound and
without a traceback, a call that does not exit 0 writes no file, an exit-0
JSON has no bare NaN or Infinity token, and on exit 0 a subcommand with a
figure writes its SVG while one without says on stderr that it wrote none.

The tables have 1 to 30 studies or clusters, magnitudes from 1e-150 to
1e150, repeated and numeric labels and, now and then, a covariance that is
not positive definite or a cluster of one row; the grouped tables have
the group column in any position, text or numeric labels, one group or
more, and now and then a constant column. The `measure-error` tables have
2 to 300 rows, one unit per column from 1e-150 to 1e150 and, now and then,
a constant column.
"""

import contextlib
import io
import json
import signal

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from ellipstat import cli

SECONDS = 20        # the bound on one call
LABELS = hs.sampled_from(["t1", "t2", "t3", "1", "2.5", "x y", ""])
_scales = hs.sampled_from([1.0, 1e-150, 1e-20, 1e20, 1e150])


def _cells(values):
    return [repr(float(v)) for v in values]


@hs.composite
def meta_tables(draw):
    k = draw(hs.integers(1, 30))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    s = draw(_scales)
    var = rng.uniform(0.001, 0.01, (k, 2)) * s * s
    # a correlation beyond +-1 now and then: a covariance not PD
    rho = rng.uniform(-1.0, 1.0, k) * draw(hs.sampled_from([0.9, 0.9, 1.5]))
    cov = rho * np.sqrt(var[:, 0]) * np.sqrt(var[:, 1])
    effects = (rng.normal(0.0, 0.1, (k, 2)) + [0.3, -0.4]) * s
    if draw(hs.booleans()):             # one study repeated
        effects[-1], var[-1], cov[-1] = effects[0], var[0], cov[0]
    header = ["effect_PD", "effect_AL", "var_PD", "cov_PD_AL", "var_AL"]
    rows = [_cells([e[0], e[1], v[0], c, v[1]])
            for e, v, c in zip(effects, var, cov)]
    if draw(hs.booleans()):
        header.insert(0, "trial")
        labels = draw(hs.lists(LABELS, min_size=k, max_size=k))
        rows = [[label, *row] for label, row in zip(labels, rows)]
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


@hs.composite
def blup_tables(draw):
    k = draw(hs.integers(1, 30))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    sx, sy = draw(_scales), draw(_scales)
    labels = draw(hs.lists(LABELS, min_size=k, max_size=k))
    rows = []
    for label in labels:                # a repeated label joins clusters
        n = draw(hs.integers(1, 8))
        x = rng.normal(0.0, 1.0, n)
        y = 12.0 + rng.normal(0.0, 2.0) + 2.5 * x + rng.normal(0.0, 1.0, n)
        if draw(hs.sampled_from([False] * 5 + [True])):
            x[:] = x[0]                 # a cluster with constant x
        rows += [[label, *_cells([a * sx, b * sy])] for a, b in zip(x, y)]
    rng.shuffle(rows)
    return "\n".join(",".join(r) for r in [["school", "cses", "mathach"],
                                           *rows]) + "\n"


@hs.composite
def grouped_tables(draw):
    """A table of 1 to 4 responses and a group column in any position, and
    its number of groups."""
    p = draw(hs.integers(1, 4))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    names = draw(hs.lists(LABELS, min_size=1, max_size=5, unique=True))
    sizes = draw(hs.lists(hs.sampled_from([1] + [*range(2, 13)] * 3),
                          min_size=len(names), max_size=len(names)))
    groups = rng.permutation(np.repeat(np.arange(len(names)), sizes))
    # one unit for all columns, or now and then one unit per column
    scales = np.array(draw(hs.one_of(
        _scales.map(lambda s: [s] * p), _scales.map(lambda s: [s] * p),
        hs.lists(_scales, min_size=p, max_size=p))))
    shift = rng.normal(0.0, 1.0, (len(names), p))
    y = (shift[groups] + rng.normal(0.0, 1.0, (groups.size, p))) * scales
    for j in range(p):
        if draw(hs.sampled_from([False] * 5 + [True])):
            y[:, j] = y[0, j]           # a constant column
    at = draw(hs.integers(0, p))        # the group column's position
    header = [f"y{j + 1}" for j in range(p)]
    header.insert(at, "grp")
    rows = []
    for k, row in zip(groups, y):
        cells = _cells(row)
        cells.insert(at, names[k])
        rows.append(cells)
    text = "\n".join(",".join(r) for r in [header, *rows]) + "\n"
    return text, len(names)


@hs.composite
def measure_error_tables(draw):
    n = draw(hs.integers(2, 300))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    sx, sy = (10.0 ** draw(hs.floats(-150.0, 150.0)) for _ in range(2))
    x = rng.normal(0.0, 1.0, n)
    y = 1.0 + rng.normal() * x + rng.normal(0.0, 1.0, n)
    for col in (x, y):
        if draw(hs.sampled_from([False] * 5 + [True])):
            col[:] = col[0]             # a constant column
    rows = [_cells([a * sx, b * sy]) for a, b in zip(x, y)]
    return "\n".join(",".join(r) for r in [["u", "v"], *rows]) + "\n"


def _refuse(token):
    raise ValueError(f"bare {token} in the JSON")


def _alarm(signum, frame):
    raise TimeoutError(f"a call took more than {SECONDS} s")


def _check_contract(tmp_path, argv, table, figure=True):
    data = tmp_path / "in.csv"
    data.write_text(table, encoding="utf-8")
    out_json, out_svg = tmp_path / "out.json", tmp_path / "out.svg"
    for path in (out_json, out_svg):
        path.unlink(missing_ok=True)
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(SECONDS)
    try:
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main([*argv, "--data", str(data), "--json",
                                 str(out_json), "--svg", str(out_svg)])
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert not out_json.exists() and not out_svg.exists()
        return None
    text = out_json.read_text(encoding="utf-8")
    json.loads(text, parse_constant=_refuse)
    if figure:
        assert out_svg.read_text(encoding="utf-8").rstrip().endswith(
            "</svg>")
    else:
        assert not out_svg.exists()
        assert err.getvalue() == (f"ellip: {argv[0]} draws no figure; "
                                  f"--svg {out_svg} not written\n")
    return text


_SETTINGS = settings(max_examples=200, deadline=None, database=None,
                     suppress_health_check=[
                         HealthCheck.too_slow,
                         HealthCheck.function_scoped_fixture])


@_SETTINGS
@given(meta_tables(), hs.sampled_from(["random", "fixed"]))
def test_meta_keeps_the_cli_contract(tmp_path, table, model):
    _check_contract(tmp_path, ["meta", "--model", model], table)


@_SETTINGS
@given(blup_tables(), hs.sampled_from([[], ["--g-diag", "6.25,0.64"],
                                       ["--g-diag", "0,0"]]))
def test_blup_keeps_the_cli_contract(tmp_path, table, g_diag):
    _check_contract(tmp_path, ["blup", "--group", "school", "--x", "cses",
                               "--response", "mathach", *g_diag], table,
                    figure=False)


@_SETTINGS
@given(grouped_tables(), hs.sampled_from(["heplot", "canonical", "contrasts",
                                          "lda", "decompose"]))
def test_grouped_subcommands_keep_the_cli_contract(tmp_path, case, command):
    table, g = case
    argv = [command, "--group", "grp"]
    if command == "contrasts":          # one weight per group
        argv.append("--contrast=" + ",".join(["1", "-1", "0", "0", "0"][:g]))
    _check_contract(tmp_path, argv, table,
                    figure=command in ("heplot", "canonical"))


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(measure_error_tables(),
       hs.lists(hs.one_of(hs.sampled_from([0.0, 1e3]), hs.floats(0.0, 1e3)),
                min_size=1, max_size=4),
       hs.integers(1, 50), hs.integers(0, 2 ** 32 - 1))
def test_measure_error_keeps_the_cli_contract(tmp_path, table, deltas, reps,
                                              seed):
    text = _check_contract(tmp_path, [
        "measure-error", "--x", "u", "--response", "v",
        "--deltas=" + ",".join(map(repr, deltas)), "--reps", str(reps),
        "--seed", str(seed)], table, figure=False)
    assert text is None or '"nan"' not in text
