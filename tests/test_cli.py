import argparse
import csv
import io
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ellipstat import cli, datasets, kissing, linmod, mlm, render
from ellipstat import distributions as dist
from ellipstat import gellipsoid as ge
from ellipstat import numkernel as nk
from ellipstat import statellipse as st


def run_cli(argv):
    return cli.main(argv)


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def test_load_csv_types(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,c\n1,x,2.5\n2,y,3.50\n")
    table = cli.load_csv(str(p))
    assert table.n == 2
    assert table.numeric_names() == ["a", "c"]
    assert table.categorical("b") == ["x", "y"]
    # numbers as labels: shortest form, whole numbers without ".0"
    assert table.categorical("a") == ["1", "2"]
    assert table.categorical("c") == ["2.5", "3.5"]


def test_load_csv_keeps_a_quoted_crlf(tmp_path):
    # the file is opened with newline="", as csv.reader needs: a quoted
    # CR LF stays in its cell, and LF, CR LF and lone CR line ends read
    # alike, in a plain table and in a quoted one
    p = tmp_path / "q.csv"
    p.write_bytes(b'a,b\n1,"x\r\ny"\n2,z\n')
    assert cli.load_csv(str(p)).categorical("b") == ["x\r\ny", "z"]
    for lf in ("a,b\n1,x\n2,y\n", 'a,b\n1,"x,y"\n2,z\n'):
        want = _outcome(datasets._parse_table, lf)
        for eol in ("\n", "\r\n", "\r"):
            p.write_bytes(lf.replace("\n", eol).encode())
            assert _outcome(lambda text, source: cli.load_csv(str(p)),
                            None) == want


def test_load_csv_ragged_row_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(cli.InputError, match="line 3"):
        cli.load_csv(str(p))


def test_load_csv_rejects_non_finite(tmp_path):
    p = tmp_path / "inf.csv"
    p.write_text("a\n1\ninf\n")
    with pytest.raises(cli.InputError, match="non-finite"):
        cli.load_csv(str(p))


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(cli.InputError, match="empty"):
        cli.load_csv(str(p))


def test_load_csv_not_utf8_is_input_error(tmp_path, capsys):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"a,b\n1,2\n3,\xff4\n")
    with pytest.raises(cli.InputError, match="latin.csv"):
        cli.load_csv(str(p))
    assert run_cli(["data-ellipse", "--data", str(p)]) == 2
    err = capsys.readouterr().err
    assert "input error: cannot read" in err and "utf-8" in err


def test_oversized_field_is_input_error(tmp_path, capsys):
    p = tmp_path / "big.csv"
    p.write_text("a,b\n1,2\n3,"
                 + "4" * (csv.field_size_limit() + 1) + "\n5,6\n")
    with pytest.raises(cli.InputError, match="line 3: field larger"):
        cli.load_csv(str(p))
    assert run_cli(["data-ellipse", "--data", str(p)]) == 2
    assert "input error" in capsys.readouterr().err


def _reader_table(text, source):
    """The table as csv.reader reads it, row by row: the oracle of the
    bulk split (a csv.Error becomes an InputError at the reader's line)."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise cli.InputError(f"{source}: line {reader.line_num}: {exc}")
    if not rows or not rows[0]:
        raise cli.InputError(f"{source}: empty file")
    header, data = rows[0], rows[1:]
    if not data:
        raise cli.InputError(f"{source}: no data rows")
    for lineno, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise cli.InputError(f"{source}: line {lineno} has {len(row)} "
                                 f"fields, expected {len(header)}")
    columns = {}
    for j, name in enumerate(header):
        raw = [row[j] for row in data]
        try:
            vals = np.array([float(v) for v in raw])
        except ValueError:
            columns[name] = raw
            continue
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0]) + 2
            raise cli.InputError(f"{source}: column {name!r} has a "
                                 f"non-finite value at line {bad}")
        columns[name] = vals
    return datasets.DataTable(header=header, columns=columns, n=len(data))


def _outcome(parse, text):
    try:
        table = parse(text, "t.csv")
    except cli.InputError as exc:
        return str(exc)
    return (table.header, table.n,
            [(name, col.dtype.str, col.tobytes())
             if isinstance(col, np.ndarray) else (name, col)
             for name, col in table.columns.items()])


# 20-digit mantissas, with and without a point, and an exponent
_LONG = hs.tuples(hs.integers(10 ** 19, 10 ** 20 - 1).map(str),
                  hs.sampled_from(["", "."]), hs.integers(-30, 30)).map(
    lambda t: f"{t[0][:1]}{t[1]}{t[0][1:]}e{t[2]}")
NUMBERS = hs.one_of(
    hs.floats(allow_nan=False, allow_infinity=False).map(repr),
    hs.floats(-1e6, 1e6).map("%.6f".__mod__),
    hs.integers(-10 ** 6, 10 ** 6).map(str), _LONG,
    hs.sampled_from(["1_000", "٣", "١.٥", " 4 ", "\t5", "1e3", "-0", ".5",
                     "1E5", "+1", "-.5", "5.", "1e400", "e", "-", "."]))
NON_FINITE = hs.sampled_from(["nan", "inf", "-Infinity", "1e400", " NaN"])
PLAIN = hs.one_of(
    hs.sampled_from(["x", "a b", "é", "", "\x00", "0x1", "2"]),
    hs.text(hs.characters(blacklist_characters='",\r\n'), max_size=4))
QUOTED = hs.one_of(
    hs.sampled_from(['"', '"q"', 'a"b']),
    hs.text(max_size=3).map(lambda s: '"' + s.replace('"', '""') + '"'))
BROKEN = hs.one_of(hs.sampled_from(["1,5", "2\r3", "4\n", "\r\n", "x\r"]),
                   hs.text(max_size=4))
RARELY = hs.sampled_from([False, False, True])


@hs.composite
def csv_texts(draw):
    """CSV text with number and text columns, LF or CRLF line ends, a
    header only now and then, and, each in some files only: quotes, cells
    holding a comma or a line break, a lone CR or a blank row as a line
    end, ragged rows and non-finite cells; with a lowered field size limit
    to read it under, or None for the default."""
    def now_and_then(usual, *odd):
        return hs.one_of(usual, usual, usual,
                         *(s for s in odd if draw(RARELY)))

    width = draw(hs.integers(1, 4))
    text = now_and_then(PLAIN, QUOTED, BROKEN)
    number = now_and_then(NUMBERS, NON_FINITE)
    cells = {"number": number, "text": text, "any": hs.one_of(number, text)}
    kinds = draw(hs.lists(hs.sampled_from(sorted(cells)),
                          min_size=width + 1, max_size=width + 1))
    eol = draw(hs.sampled_from(["\n", "\r\n"]))
    ends = now_and_then(hs.just(eol), hs.just("\r"), hs.just(eol + eol))
    sizes = now_and_then(hs.just(width),
                         hs.sampled_from([width - 1, width + 1]))
    header = draw(hs.lists(hs.one_of(hs.sampled_from(["a", "b", "a"]), text),
                           min_size=width, max_size=width))
    lines = [",".join(header) + draw(ends)]
    n_rows = draw(hs.integers(1, 6))
    for _ in range(0 if draw(hs.sampled_from([False] * 9 + [True]))
                   else n_rows):
        row = [draw(cells[kinds[j]]) for j in range(draw(sizes))]
        lines.append(",".join(row) + draw(ends))
    lines[-1] = lines[-1].rstrip("\r\n") + draw(
        hs.sampled_from(["", eol, eol, eol + eol]))
    limit = draw(hs.one_of(hs.none(), hs.none(), hs.integers(1, 24)))
    return "".join(lines), limit


@given(csv_texts())
@settings(max_examples=400, deadline=None, database=None)
def test_bulk_split_reads_as_csv_reader(case):
    text, limit = case
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        assert _outcome(datasets._parse_table, text) == \
            _outcome(_reader_table, text)
    finally:
        csv.field_size_limit(old)


@pytest.mark.parametrize("text", [
    'a,b\n1,"2"\n', "a,b\n1,2\r3,4\n", "a,b\r\n1,2\r", "\na\n1\n",
    "a,b\n", "a\n1\n\n2\n", "a,b\n1,2\n\n", "a,b\n1,2,3\n", "a,b\n1\n"])
def test_bulk_split_falls_back(text):
    assert datasets._split_plain(text) is None


@pytest.mark.parametrize("text, calls", [
    ("a,b\n1.5,2\n-3e2,+4\n5.,-.5\n", 1),
    ("a\n12345678901234567890\n1E5\n", 1),
    ("a,b\n1,2\n1e400,3\n", 1),           # the non-finite message
    ("a,b\n1,e\n2,-\n", 1),               # a text column
    ("g,a,b\nx,1.5,2\ny,-3e2,+4\n", 1),   # the text column first,
    ("a,g,b\n1.5,x,2\n-3e2,y,+4\n", 1),   # in the middle
    ("a,b,g\n1.5,2,x\n-3e2,+4,y\n", 1),   # and last
    ("a,g\n1.5,1\n-3e2,2\n4,1\n", 1),     # numeric group labels
    ("a,b\n1,2\n3,4,5\n", 1),             # a ragged row: the error
    ("a,b\n1,2\n3,x\n", 1),               # text after the first row
    ("a,b\n1_000,2\n3,4\n", 1),           # float() reads, numpy does not
    ("a,b\n\u0663,2\n3,4\n", 1),
    ("a,b\n 4 ,2\n3,\t5\n", 1),           # both strip the blanks
    ("a,b\n1,2\n3,\x1c4\n", 0)])          # numpy alone strips \x1c
def test_every_plain_table_is_read_by_one_loadtxt(monkeypatch, text, calls):
    # a plain table is read in one typed np.loadtxt pass, float columns
    # contiguous; on an error it is split and read with float(), and the
    # outcome is csv.reader's either way
    seen = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        seen.append(args)
        return loadtxt(*args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", spy)
    outcome = _outcome(datasets._parse_table, text)
    assert outcome == _outcome(_reader_table, text)
    assert len(seen) == calls
    if not isinstance(outcome, str):
        table = datasets._parse_table(text, "t.csv")
        assert all(col.flags.c_contiguous for col in table.columns.values()
                   if isinstance(col, np.ndarray))


@pytest.mark.parametrize("name", datasets.list_fixtures())
def test_bulk_split_reads_every_fixture(name):
    # LF and CRLF fixtures alike take the bulk split
    text = datasets.fixture_csv_text(name)
    assert datasets._split_plain(text) is not None
    assert _outcome(datasets._parse_table, text) == \
        _outcome(_reader_table, text)


def test_fixture_table_shapes():
    iris = cli.resolve_data("iris.csv")
    assert iris.n == 150
    assert len(iris.numeric_names()) == 4
    assert len(set(iris.categorical("Species"))) == 3
    berkey = cli.resolve_data("berkey")
    assert berkey.n == 5
    longley = cli.resolve_data("longley")
    assert longley.n == 16


def test_missing_data_is_exit_2(tmp_path, capsys):
    code = run_cli(["data-ellipse", "--data",
                    str(tmp_path / "nothing.csv")])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_numerical_failure_is_exit_3(tmp_path, capsys):
    code = run_cli(["gell", "--matrix", "1,0;0,-1", "--form", "moment",
                    "--json", str(tmp_path / "out.json")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_canonical_of_a_response_constant_within_groups_is_exit_3(
        tmp_path, capsys):
    # E is exactly zero: this used to exit 0 with lambdas near 2e30
    data = tmp_path / "steps.csv"
    data.write_text("y1,grp\n1,a\n1,a\n2,b\n2,b\n", encoding="utf-8")
    out = tmp_path / "out.json"
    code = run_cli(["canonical", "--data", str(data), "--group", "grp",
                    "--json", str(out)])
    assert code == 3 and not out.exists()
    assert "not positive definite" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e160, 1e-160])
def test_measure_error_is_free_of_the_units_of_x(tmp_path, scale):
    # the ratios are unit-free; x in units of 1e160 used to give nan
    # ratios, and in units of 1e-160 ratios wrong in the 5th digit
    rng = np.random.default_rng(0)
    x = rng.normal(size=50)
    y = 2 * x + rng.normal(size=50)
    data, out = tmp_path / "units.csv", tmp_path / "out.json"
    ratios = []
    for s in (1.0, scale):
        data.write_text("u,v\n" + "".join(
            f"{float(a * s)!r},{float(b)!r}\n" for a, b in zip(x, y)),
            encoding="utf-8")
        assert run_cli(["measure-error", "--data", str(data), "--x", "u",
                        "--response", "v", "--json", str(out)]) == 0
        ratios.append(json.loads(out.read_text(encoding="utf-8"))[
            "mean_ratio"])
    assert ratios[1] == ratios[0]


BLUP_HSB = ["blup", "--data", "hsb-sample", "--group", "school", "--x",
            "cses", "--response", "mathach"]


@pytest.mark.parametrize("argv", [
    ["data-ellipse", "--data", "galton", "--level", "1.5"],
    ["kiss", "--resolution", "10"],
    ["measure-error", "--data", "galton", "--response", "child",
     "--x", "parent", "--reps", "0"],
    ["ridge-trace", "--data", "longley", "--response", "Employed",
     "--ks=-1"],
    ["gell", "--matrix", "1,2;3,4"],
    ["ridge-trace", "--data", "longley", "--response", "Employed",
     "--coords", "GNP,nosuch"],
    ["heplot", "--data", "iris", "--group", "Species",
     "--coords", "SepalLength"],
    ["bayes", "--data", "longley", "--response", "Employed",
     "--precision-matrix", "1,0;0,1"],
    ["meta", "--data", "berkey", "--model", "random",
     "--delta", "1,0,0;0,1,0;0,0,1"],
    BLUP_HSB + ["--g-diag=-1,1"],
    ["gell", "--matrix", "nan,0;0,1"],
    BLUP_HSB + ["--g-diag=inf,1"],
    ["bayes", "--data", "longley", "--response", "Employed",
     "--precision=-5"],
    ["measure-error", "--data", "galton", "--response", "child",
     "--x", "parent", "--deltas=-0.5,0.5"],
    # its square overflowed: exit 1 with a traceback
    ["measure-error", "--data", "galton", "--response", "child",
     "--x", "parent", "--deltas=0,1e160"],
    ["kiss", "--mark=-1"],
    # a bbox without area, with and without a figure to draw
    ["kiss", "--bbox=1,0,0,1"],
    ["kiss", "--bbox=1,0,0,1", "--svg", "{svg}"],
    ["kiss", "--bbox=0,1,0,0"],
    ["kiss", "--bbox=0,1,0,0", "--svg", "{svg}"],
    ["kiss", "--bbox=4,-4,-4,8"],
    ["kiss", "--bbox=4,-4,-4,8", "--svg", "{svg}"],
], ids=["level", "resolution", "reps", "ridge-k", "asymmetric", "coords",
        "one-coord", "precision-shape", "delta-shape", "negative-g",
        "nan-matrix", "inf-floats", "negative-precision", "negative-delta",
        "huge-delta", "negative-mark", "reversed-bbox", "reversed-bbox-svg", "flat-bbox",
        "flat-bbox-svg", "mirrored-bbox", "mirrored-bbox-svg"])
def test_bad_argument_is_exit_2(tmp_path, capsys, argv):
    argv = [a.format(svg=tmp_path / "out.svg") for a in argv]
    try:
        code = run_cli(argv + ["--json", str(tmp_path / "out.json")])
    except SystemExit as exc:
        # a non-finite number is rejected while the flags are parsed
        assert "non-finite number" in capsys.readouterr().err
        assert exc.code == 2
        return
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--data", "iris", "--group", "Species",
      "--columns", "SepalLength"],
     "need 2 numeric columns other than --group 'Species', "
     "got ['SepalLength']"),
    (["decompose", "--data", "galton", "--group", "parent"],
     "need 2 numeric columns other than --group 'parent', got ['child']"),
    (["heplot", "--data", "iris", "--group", "Species",
      "--columns", "SepalLength"],
     "the panel needs two columns of ['SepalLength']"),
    (["data-ellipse", "--data", "galton", "--x", "parent,child,parent"],
     "need 2 numeric columns (--x X --y Y, or --x X,Y), "
     "got ['parent', 'child', 'parent']"),
], ids=["decompose-columns", "decompose-group", "heplot", "data-ellipse"])
def test_wrong_column_count_is_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert run_cli(argv + ["--json", str(out)]) == 2
    assert capsys.readouterr().err == f"ellip: input error: {message}\n"
    assert not out.exists()


def test_singular_cholesky_is_exit_3(tmp_path, capsys):
    code = run_cli(["gell", "--matrix", "1,0;0,0", "--conjugate",
                    "cholesky", "--json", str(tmp_path / "out.json")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_indefinite_precision_matrix_is_exit_3(tmp_path, capsys):
    # a data-dependent failure: the matrix is well formed, but no prior
    # has a negative precision
    a_mat = ";".join(",".join("-1" if i == j == 5 else str(int(i == j))
                              for j in range(6)) for i in range(6))
    code = run_cli(["bayes", "--data", "longley", "--response", "Employed",
                    "--precision-matrix", a_mat,
                    "--json", str(tmp_path / "out.json")])
    assert code == 3
    assert "materially indefinite" in capsys.readouterr().err


def test_non_numeric_contrast_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["contrasts", "--data", "iris", "--group", "Species",
                 "--contrast", "a,b,c"])
    assert exc.value.code == 2


def test_json_float_formatting():
    text = cli.dump_json({"a": 1 / 3, "b": [np.inf, -np.inf],
                          "c": True, "d": np.arange(3)})
    assert '"a": 0.333333333333' in text
    assert '"b": ["inf", "-inf"]' in text
    assert '"c": true' in text
    assert json.loads(text) is not None


def test_data_ellipse_galton(tmp_path):
    out = tmp_path / "g.json"
    svg = tmp_path / "g.svg"
    code = run_cli(["data-ellipse", "--data", "galton.csv",
                    "--level", "0.40", "--json", str(out),
                    "--svg", str(svg)])
    assert code == 0
    d = read_json(out)
    assert d["r"] == pytest.approx(0.46, abs=0.005)
    assert d["c_squared"] == pytest.approx(1.0, abs=0.05)
    assert d["n"] == 928
    assert svg.read_text().startswith("<?xml")


def test_data_ellipse_of_a_constant_column(tmp_path, capsys):
    # x has no variance: r is nan, the regression of y on x is undefined
    # and not drawn, and the figure of the flat ellipse is still written
    data = tmp_path / "c.csv"
    data.write_text("a,b\n1,2\n1,3\n1,5\n1,4\n")
    svg = tmp_path / "c.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["data-ellipse", "--data", str(data), "--svg",
                        str(svg)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["r"] == "nan" and d["area"] == 0
    assert svg.read_text().count("<polyline") == 1


@pytest.mark.parametrize("log_s", [-100.0, 100.0])
def test_data_ellipse_r_in_any_units(tmp_path, log_s):
    # galton in units 1e-100 and 1e100: the product of the two variances
    # under- and overflows, the product of their roots does not
    rows = list(csv.reader(io.StringIO(datasets.fixture_csv_text("galton"))))
    data = tmp_path / "g.csv"
    data.write_text("\n".join([",".join(rows[0])] + [
        ",".join(repr(float(v) * 10.0 ** log_s) for v in r)
        for r in rows[1:]]) + "\n")
    out, base = tmp_path / "g.json", tmp_path / "base.json"
    assert run_cli(["data-ellipse", "--data", "galton", "--json",
                    str(base)]) == 0
    assert run_cli(["data-ellipse", "--data", str(data), "--json",
                    str(out)]) == 0
    assert read_json(out)["r"] == pytest.approx(read_json(base)["r"],
                                                rel=1e-11)


@pytest.mark.parametrize("to_file", [True, False], ids=["json", "stdout"])
def test_failed_render_writes_nothing(tmp_path, capsys, monkeypatch,
                                      to_file):
    def failing(scene):
        raise ValueError("viewport has no area")
    monkeypatch.setattr(render, "render_scene", failing)
    out, svg = tmp_path / "g.json", tmp_path / "g.svg"
    argv = ["data-ellipse", "--data", "galton", "--svg", str(svg)]
    assert run_cli(argv + (["--json", str(out)] if to_file else [])) == 3
    assert capsys.readouterr().out == ""
    assert not out.exists() and not svg.exists()


def test_json_schema_stable_and_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["data-ellipse", "--data", "galton", "--level", "0.68",
            "--json"]
    assert run_cli(argv + [str(a)]) == 0
    assert run_cli(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert list(read_json(a)) == ["columns", "n", "level", "c_squared",
                                  "mean", "cov", "r", "radii",
                                  "shadow_x", "shadow_y", "area"]


def test_documented_key_sets(tmp_path):
    out = tmp_path / "o.json"
    assert run_cli(["heplot", "--data", "iris", "--group", "Species",
                    "--json", str(out)]) == 0
    assert list(read_json(out)) == [
        "columns", "group", "df_h", "df_e", "lambdas", "wilks", "pillai",
        "hotelling_lawley", "roy", "f_tests", "partial_eta2",
        "roy_critical", "protrusion_ratio", "mtest_geometry"]
    assert run_cli(["meta", "--data", "berkey", "--model", "random",
                    "--json", str(out)]) == 0
    assert list(read_json(out)) == [
        "n_studies", "model", "beta_fixed", "cov_fixed", "delta",
        "delta_corr", "beta", "cov", "blups"]


def test_seeded_subcommand_bit_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["measure-error", "--data", "galton", "--response", "child",
            "--x", "parent", "--deltas", "0,0.5", "--reps", "3",
            "--seed", "42", "--json"]
    assert run_cli(argv + [str(a)]) == 0
    assert run_cli(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_only_on_measure_error():
    parser = cli.build_parser()
    for argv in (["fixtures", "--seed", "1"],
                 ["gell", "--matrix", "1,0;0,1", "--seed", "1"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
    args = parser.parse_args(["measure-error", "--data", "galton",
                              "--response", "child", "--x", "parent"])
    assert args.seed == 0


def test_main_builds_parser_once(monkeypatch, capsys):
    calls = []
    build = cli.build_parser

    def counting_build():
        calls.append(1)
        return build()
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    for _ in range(4):
        assert run_cli(["fixtures"]) == 0
    assert len(calls) == 1


def _immutable(value):
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_parser_defaults_immutable():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        for action in p._actions:
            assert _immutable(action.default), (name, action.dest)
        for dest, value in p._defaults.items():
            assert _immutable(value), (name, dest)


def _cold_ellip(argv):
    """`python -m ellipstat argv` in a fresh process that imports the
    package these tests import, whatever PYTHONPATH the run was given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "ellipstat", *argv],
                          capture_output=True, text=True, env=env)


def test_kiss_defaults_after_custom_kiss(tmp_path):
    # a reused parser hands its defaults to every call: a custom kiss must
    # leave the defaults of the next call as a fresh process sees them
    base = ["kiss", "--resolution", "48", "--json"]
    fresh = tmp_path / "fresh.json"
    proc = _cold_ellip(base + [str(fresh)])
    assert proc.returncode == 0, proc.stderr
    custom, after = tmp_path / "custom.json", tmp_path / "after.json"
    assert run_cli(["kiss", "--resolution", "48", "--m1=-1,1",
                    "--a1", "2,0.3;0.3,1", "--mark", "1.5,2.5,3",
                    "--json", str(custom)]) == 0
    assert run_cli(base + [str(after)]) == 0
    assert after.read_bytes() == fresh.read_bytes()
    assert custom.read_bytes() != fresh.read_bytes()


def test_blup_moment_g_after_given_g(tmp_path):
    argv = ["blup", "--data", "hsb-sample", "--group", "school",
            "--x", "cses", "--response", "mathach", "--json"]
    first, given, after = (tmp_path / f"{k}.json" for k in "abc")
    assert run_cli(argv + [str(first)]) == 0
    assert run_cli(argv + [str(given), "--g-diag", "6,0.05"]) == 0
    assert run_cli(argv + [str(after)]) == 0
    assert after.read_bytes() == first.read_bytes()
    assert read_json(given)["g_matrix"] == [[6.0, 0.0], [0.0, 0.05]]


def test_canonical_iris(tmp_path):
    out = tmp_path / "c.json"
    code = run_cli(["canonical", "--data", "iris", "--group", "Species",
                    "--json", str(out)])
    assert code == 0
    d = read_json(out)
    assert d["percent"][0] == pytest.approx(99.1, abs=0.1)
    assert d["structure"]["SepalWidth"][0] < 0


def test_meta_fixed_and_random(tmp_path):
    out = tmp_path / "m.json"
    assert run_cli(["meta", "--data", "berkey", "--model", "fixed",
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert d["beta"][0] == pytest.approx(0.307, abs=0.005)
    assert d["beta"][1] == pytest.approx(-0.394, abs=0.005)

    assert run_cli(["meta", "--data", "berkey", "--model", "random",
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert 0.4 <= d["delta_corr"] <= 0.8
    assert len(d["blups"]) == 5
    # supplying Delta = 0 reproduces the fixed-effect estimate
    assert run_cli(["meta", "--data", "berkey", "--model", "random",
                    "--delta", "0,0;0,0", "--json", str(out)]) == 0
    d0 = read_json(out)
    assert d0["beta"] == pytest.approx(d0["beta_fixed"], abs=1e-12)


def _meta_table(path, n):
    """A Berkey-style table of n studies with seeded effects and S_i."""
    rng = np.random.default_rng(n)
    rows = ["trial,effect_PD,effect_AL,var_PD,cov_PD_AL,var_AL"]
    for i in range(n):
        a = rng.standard_normal((2, 2))
        s = 0.01 * (a @ a.T + np.eye(2))
        y = rng.standard_normal(2) * 0.3 + [0.3, -0.4]
        values = [y[0], y[1], s[0, 0], s[0, 1], s[1, 1]]
        rows.append(",".join([f"t{i}"] + [repr(float(v)) for v in values]))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_meta_geometry_runs_once_per_stack(tmp_path, monkeypatch):
    # every S_i, BLUP covariance and ellipse path of a study is computed in
    # a stack, so the number of eigen-decompositions and path matmuls does
    # not grow with the number of studies, and each ellipse is traced once
    # per vertex count: 32 to bound the scene, 64 to draw it. The S_i are
    # checked once, in one require_pd call on their stack; the other six
    # eigh calls are Delta's clip and check and the four ellipse stacks
    # of the scene (studies, pool, Delta, BLUPs). The study ellipses and
    # their labels are one layer each, so the scene has 2k + 7 layers:
    # the axes, the studies' ellipses, points and labels, the pool's
    # ellipse and point, Delta's ellipse and an arrow and an ellipse per
    # BLUP, in that order
    eighs = _count_calls(monkeypatch, np.linalg, "eigh")
    checked = []
    require_pd = nk.require_pd

    def recording_require_pd(w):
        checked.append(np.shape(w))
        return require_pd(w)
    monkeypatch.setattr(nk, "require_pd", recording_require_pd)
    traced = []
    trace = render._ellipse_paths

    def counting_trace(centers, frames, radii, n):
        traced.append((n, len(centers)))
        return trace(centers, frames, radii, n)
    monkeypatch.setattr(render, "_ellipse_paths", counting_trace)
    scenes = []
    render_scene = render.render_scene

    def recording_render(scene):
        scenes.append(scene)
        return render_scene(scene)
    monkeypatch.setattr(render, "render_scene", recording_render)
    counts = {}
    for n in (20, 200):
        eighs.clear()
        traced.clear()
        checked.clear()
        scenes.clear()
        svg = tmp_path / f"m{n}.svg"
        assert run_cli(["meta", "--data", _meta_table(tmp_path / f"m{n}.csv",
                                                      n),
                        "--model", "random", "--svg", str(svg),
                        "--json", str(tmp_path / f"m{n}.json")]) == 0
        n_ellipses = sum(line.startswith("<polygon") and 'fill="none"' in line
                         for line in svg.read_text().splitlines())
        assert n_ellipses == 2 * n + 2      # studies, BLUPs, pool, Delta
        assert sorted(traced) == [(32, n_ellipses), (64, n_ellipses)]
        assert checked == [(n, 2, 2)]
        [scene] = scenes
        # the n arrows and BLUP ellipses are one Interleave of two layers
        # of n elements, after the 7 entries of the studies and the pool
        assert len(scene.layers) == 8
        [arrows, shrunk] = scene.layers[7].members
        assert [type(arrows).__name__, type(shrunk).__name__] == \
            ["ArrowLayer", "EllipseLayer"]
        assert np.shape(arrows.tail) == (n, 2) and len(shrunk.centers) == n
        counts[n] = len(eighs)
    assert counts == {20: 7, 200: 7}


def test_meta_names_a_study_whose_s_is_not_pd(tmp_path, capsys):
    # t2's S_i = 0.01 [[1, 1], [1, 1]] is singular: exit 3, naming t2
    path = tmp_path / "t.csv"
    path.write_text("trial,effect_PD,effect_AL,var_PD,cov_PD_AL,var_AL\n"
                    "t1,0.3,-0.4,0.02,0.005,0.03\n"
                    "t2,0.2,-0.3,0.01,0.01,0.01\n"
                    "t3,0.4,-0.5,0.03,0.004,0.02\n")
    for model in ("fixed", "random"):
        assert run_cli(["meta", "--data", str(path), "--model", model,
                        "--json", str(tmp_path / "m.json")]) == 3
        assert "S_i of study t2 is not positive definite: eigenvalue 1" \
            in capsys.readouterr().err


def test_heplot_iris(tmp_path):
    out = tmp_path / "h.json"
    svg = tmp_path / "h.svg"
    assert run_cli(["heplot", "--data", "iris", "--group", "Species",
                    "--coords", "SepalLength,PetalLength",
                    "--json", str(out), "--svg", str(svg)]) == 0
    d = read_json(out)
    assert d["protrusion_ratio"] > 1
    assert d["wilks"] == pytest.approx(0.0234, abs=0.0005)
    assert svg.exists()


def test_contrasts_iris(tmp_path):
    out = tmp_path / "ct.json"
    assert run_cli(["contrasts", "--data", "iris", "--group", "Species",
                    "--contrast=-2,1,1", "--contrast=0,1,-1",
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert d["orthogonal"] is True
    assert d["additivity_relative"] < 1e-8


def test_ridge_trace_longley(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["ridge-trace", "--data", "longley",
                    "--response", "Employed",
                    "--coords", "GNP,Unemployed",
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert d["ks"] == [0.0, 0.005, 0.01, 0.02, 0.04, 0.08]
    assert d["norm_monotone_nonincreasing"] is True
    assert d["genvar_strictly_decreasing"] is True


def test_bayes_matches_ridge(tmp_path):
    rj = tmp_path / "r.json"
    bj = tmp_path / "b.json"
    assert run_cli(["ridge-trace", "--data", "longley",
                    "--response", "Employed", "--ks", "0.02",
                    "--json", str(rj)]) == 0
    assert run_cli(["bayes", "--data", "longley",
                    "--response", "Employed", "--precision", "0.02",
                    "--json", str(bj)]) == 0
    ridge_beta = read_json(rj)["beta_path"][0]
    bayes_beta = read_json(bj)["beta_posterior"]
    assert bayes_beta == pytest.approx(ridge_beta, abs=1e-10)


def test_kiss_subcommand(tmp_path):
    out = tmp_path / "k.json"
    assert run_cli(["kiss", "--json", str(out)]) == 0
    d = read_json(out)
    assert d["max_abs_g"] <= 1e-6 * d["scale"]
    cell = (d["bbox"][1] - d["bbox"][0]) / d["resolution"] * np.sqrt(2)
    assert d["dist_to_m1"] < cell
    assert d["dist_to_m2"] < cell


def test_gell_subcommand(tmp_path):
    out = tmp_path / "ge.json"
    assert run_cli(["gell", "--matrix", "6,2,0;2,3,0;0,0,0",
                    "--form", "moment",
                    "--project", "1,0,0;0,1,0;0,0,0",
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert d["signature"] == [2, 1, 0]
    assert d["dual_signature"] == [2, 0, 1]
    assert d["projected_signature"] == [2, 1, 0]


def test_decompose_synthetic(tmp_path):
    src = tmp_path / "groups.csv"
    from ellipstat import statellipse as st
    gs = st.grouped_slopes_demo()
    rows = ["x,y,group"]
    for lab, s in zip(gs.labels, gs.split()):
        rows.extend(f"{a},{b},{lab}" for a, b in s)
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "d.json"
    assert run_cli(["decompose", "--data", str(src), "--group", "group",
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert d["r_within"] == pytest.approx(0.87, abs=0.02)
    assert min(d["beta_within"], d["beta_between"]) - 1e-9 <= \
        d["beta_marginal"] <= max(d["beta_within"],
                                  d["beta_between"]) + 1e-9


@pytest.mark.parametrize("sub", ["heplot", "decompose"])
def test_a_group_of_one_row_is_named(tmp_path, capsys, sub):
    path = tmp_path / "g.csv"
    path.write_text("grp,u,v\na,1,2\na,2,1\na,3,5\nlone,4,4\n"
                    "c,0,1\nc,2,2\nc,1,0\n")
    assert run_cli([sub, "--data", str(path), "--group", "grp",
                    "--json", str(tmp_path / "o.json")]) == 2
    assert "group 'lone' has 1 row" in capsys.readouterr().err


def test_lda_two_groups(tmp_path):
    src = tmp_path / "two.csv"
    rng = np.random.default_rng(5)
    rows = ["u,v,grp"]
    for lab, shift in (("a", 0.0), ("b", 3.0)):
        for _ in range(25):
            u, v = rng.standard_normal(2) + shift
            rows.append(f"{u},{v},{lab}")
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "l.json"
    assert run_cli(["lda", "--data", str(src), "--group", "grp",
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert len(d["coef"]) == 2


def test_blup_subcommand(tmp_path):
    out = tmp_path / "b.json"
    assert run_cli(["blup", "--data", "hsb-sample", "--group", "school",
                    "--x", "cses", "--response", "mathach",
                    "--g-diag", "6,0.05", "--json", str(out)]) == 0
    d = read_json(out)
    assert d["n_clusters"] == 20
    assert d["relative_shrinkage_slope"] > \
        d["relative_shrinkage_intercept"]


@pytest.mark.parametrize("g_diag,intercept,slope", [
    ([], 0.105226441775, 0.831039332129),
    (["--g-diag", "6,0.05"], 0.101652087952, 0.797651595072)])
def test_blup_relative_shrinkage_hsb(tmp_path, g_diag, intercept, slope):
    out = tmp_path / "b.json"
    assert run_cli(["blup", "--data", "hsb-sample", "--group", "school",
                    "--x", "cses", "--response", "mathach", *g_diag,
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert d["relative_shrinkage_intercept"] == intercept
    assert d["relative_shrinkage_slope"] == slope


def test_blup_relative_shrinkage_nan_without_spread(tmp_path):
    # residuals (c, -c, -c, c) at x = (-a, -b, b, a) are orthogonal to
    # each cluster's design, so every BLUE slope is the common slope 2.25
    # (to rounding) while the intercepts vary
    rng = np.random.default_rng(23)
    lines = ["cluster,x,y"]
    for i in range(8):
        b0 = int(rng.integers(120, 260)) / 16
        for _ in range(3):
            a, b = np.sort(rng.integers(1, 24, 2)) / 16
            c = int(rng.integers(-96, 97)) / 16
            for x, e in ((-a, c), (-b, -c), (b, -c), (a, c)):
                x, y = float(x), float(b0 + 2.25 * x + e)
                lines.append(f"c{i},{x!r},{y!r}")
    src = tmp_path / "orthogonal.csv"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "b.json"
    assert run_cli(["blup", "--data", str(src), "--group", "cluster",
                    "--x", "x", "--response", "y", "--json", str(out)]) == 0
    d = read_json(out)
    assert all(c["blue"][1] == pytest.approx(2.25, rel=1e-12)
               for c in d["clusters"])
    assert d["relative_shrinkage_slope"] == "nan"
    assert 0.0 <= d["relative_shrinkage_intercept"] < 1.0


def test_blup_on_one_cluster_has_no_shrinkage(tmp_path):
    # one cluster's BLUE has no spread: both ratios are nan, with no numpy
    # warning (a given G, as the moment G needs two clusters)
    src = tmp_path / "one.csv"
    src.write_text("school,cses,mathach\nt1,0.13,12.69\nt1,1.30,16.45\n"
                   "t1,0.10,11.55\n")
    out = tmp_path / "b.json"
    assert run_cli(["blup", "--data", str(src), "--group", "school", "--x",
                    "cses", "--response", "mathach", "--g-diag", "6.25,0.64",
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert d["n_clusters"] == 1
    assert d["relative_shrinkage_intercept"] == "nan"
    assert d["relative_shrinkage_slope"] == "nan"


@pytest.mark.parametrize("g_diag", [[], ["--g-diag", "6.25,0.64"]])
def test_blup_refuses_blue_variances_beyond_the_double_range(tmp_path,
                                                             capsys, g_diag):
    # x near 1e-150 and y near 1e21: a slope variance near 1e342 is exit 2
    # with one message, where numpy used to warn of an overflow
    src = tmp_path / "far.csv"
    src.write_text("school,cses,mathach\n"
                   "t1,1.257302210933933e-151,1.2690538476594164e+21\n"
                   "t1,1.3040000451301373e-150,1.6450426803276834e+21\n"
                   "t1,1.0490011715303971e-151,1.1552506601469862e+21\n")
    out = tmp_path / "b.json"
    assert run_cli(["blup", "--data", str(src), "--group", "school", "--x",
                    "cses", "--response", "mathach", *g_diag, "--json",
                    str(out)]) == 2
    assert "the variances of the cluster BLUEs overflow" in \
        capsys.readouterr().err
    assert not out.exists()


def test_blup_moment_g_matches_formula(tmp_path):
    # the moment G of hsb-sample has an exact zero eigenvalue; each BLUP
    # is b_gls + G (S + G)^{-1} (b - b_gls) with S = sigma^2 (X'X)^{-1}
    out = tmp_path / "b.json"
    assert run_cli(["blup", "--data", "hsb-sample", "--group", "school",
                    "--x", "cses", "--response", "mathach",
                    "--json", str(out)]) == 0
    d = read_json(out)
    g_mat = np.array(d["g_matrix"])
    gls = np.array(d["gls_beta"])
    rows = list(csv.reader(io.StringIO(datasets.hsb_sample())))[1:]
    for c in d["clusters"]:
        x = np.array([float(r[1]) for r in rows if r[0] == c["label"]])
        design = np.column_stack([np.ones(len(x)), x])
        s_mat = d["sigma2"] * np.linalg.inv(design.T @ design)
        blue = np.array(c["blue"])
        want = gls + g_mat @ np.linalg.solve(s_mat + g_mat, blue - gls)
        assert np.abs(np.array(c["blup"]) - want).max() <= \
            1e-8 * np.abs(want).max()


def test_avp_synthetic_coffee(tmp_path):
    out = tmp_path / "a.json"
    assert run_cli(["avp", "--data", "synthetic-coffee",
                    "--response", "Heart", "--k", "Coffee",
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert d["slope"] < 0                       # conditionally protective
    assert d["residual_match"] < 1e-10
    assert d["slope_matches_full_model"] < 1e-10


def test_canonical_draws_three_score_columns(tmp_path):
    # 5 groups of 3 responses give (5, 3) group means, 15 numbers that do
    # not pair up: the plot draws, and its viewport bounds, their first two
    # columns
    rng = np.random.default_rng(0)
    data = rng.standard_normal((50, 3)) + np.arange(50)[:, None] % 5
    p = tmp_path / "five.csv"
    p.write_text("g,a,b,c\n" + "".join(
        f"g{i % 5},{a!r},{b!r},{c!r}\n"
        for i, (a, b, c) in enumerate(data.tolist())), encoding="utf-8")
    svg = tmp_path / "can.svg"
    out = tmp_path / "o.json"
    assert run_cli(["canonical", "--data", str(p), "--group", "g",
                    "--svg", str(svg), "--json", str(out)]) == 0
    assert len(read_json(out)["percent"]) == 3
    assert svg.read_text(encoding="utf-8").count('r="2.5000"') == 5


@pytest.mark.parametrize("argv", [["heplot"], ["contrasts", "--contrast=1"]])
def test_one_group_is_exit_2(tmp_path, capsys, argv):
    # the overall hypothesis of one group has no contrast row: its SVD
    # used to raise IndexError (exit 1); now nothing is written
    p = tmp_path / "one.csv"
    p.write_text("a,b,g\n1,2,x\n2,3,x\n4,1,x\n", encoding="utf-8")
    svg, out = tmp_path / "h.svg", tmp_path / "h.json"
    files = ["--json", str(out)] + ["--svg", str(svg)] * (argv[0] == "heplot")
    assert run_cli(argv + ["--data", str(p), "--group", "g"] + files) == 2
    assert capsys.readouterr().err == (
        "ellip: input error: the overall hypothesis needs two groups or "
        "more\n")
    assert not svg.exists() and not out.exists()


def _two_species(tmp_path):
    """The path of the iris rows other than setosa's."""
    rows = datasets.fixture_csv_text("iris").splitlines()
    p = tmp_path / "two.csv"
    p.write_text("\n".join([rows[0]] + [r for r in rows[1:]
                                        if not r.endswith("setosa")]) + "\n",
                 encoding="utf-8")
    return str(p)


def test_canonical_figure_of_two_groups_is_exit_2(tmp_path, capsys):
    # two groups give one canonical dimension: the JSON is still there
    # without --svg, but a figure cannot be drawn and nothing is written
    svg, out = tmp_path / "c.svg", tmp_path / "c.json"
    argv = ["canonical", "--data", _two_species(tmp_path), "--group",
            "Species", "--json", str(out)]
    assert run_cli(argv + ["--svg", str(svg)]) == 2
    assert capsys.readouterr().err == (
        "ellip: input error: the canonical HE plot needs two canonical "
        "dimensions, found 1 (2 groups)\n")
    assert not svg.exists() and not out.exists()
    assert run_cli(argv) == 0
    assert len(read_json(out)["lambdas"]) == 1


@pytest.mark.parametrize("argv", [
    ["decompose", "--data", "iris", "--group", "Species"],
    ["measure-error", "--data", "galton", "--response", "child", "--x",
     "parent", "--reps", "2"],
    ["contrasts", "--data", "iris", "--group", "Species",
     "--contrast=1,-1,0"],
    ["lda", "--group", "Species"],
    ["bayes", "--data", "galton", "--response", "child"],
    ["blup", "--data", "hsb-sample", "--group", "school", "--x", "cses",
     "--response", "mathach", "--g-diag", "6.25,0.64"],
    ["gell", "--matrix", "2,1;1,2"],
    ["fixtures"]], ids=lambda argv: argv[0])
def test_svg_without_a_figure_is_noted(tmp_path, capsys, argv):
    # the eight subcommands that draw no figure keep --svg, exit 0 and
    # write the JSON, and say on stderr that they wrote no SVG
    if argv[0] == "lda":
        argv = [*argv, "--data", _two_species(tmp_path)]
    svg, out = tmp_path / "f.svg", tmp_path / "f.json"
    assert run_cli([*argv, "--json", str(out), "--svg", str(svg)]) == 0
    assert capsys.readouterr().err == (
        f"ellip: {argv[0]} draws no figure; --svg {svg} not written\n")
    assert out.exists() and not svg.exists()


def test_kiss_figure_with_ticks_finer_than_an_ulp(tmp_path):
    # the x axis spans one ulp of 1e17: its tick step no longer moves a
    # tick, and drawing the figure used to loop for ever
    svg = tmp_path / "k.svg"
    assert run_cli(["kiss", "--bbox=1e17,1.0000000000000002e17,0,1",
                    "--svg", str(svg),
                    "--json", str(tmp_path / "k.json")]) == 0
    assert svg.read_text(encoding="utf-8").count(">1e+17</text>") == 1


@pytest.mark.parametrize("flag, name", [
    ("--m1=1e200,0", "m1"),
    ("--a1=1e200,0;0,1e200", "a1"),
    ("--bbox=-1e300,1e300,-1e300,1e300", "bbox"),
    ("--bbox=-1e308,1e308,0,1", "bbox"),
])
def test_kiss_out_of_double_range_is_an_input_error(flag, name, tmp_path,
                                                    capsys):
    # a bbox or cross field beyond the double range exits 2 with one
    # message naming the flag, no numpy warning and no file
    out, svg = tmp_path / "k.json", tmp_path / "k.svg"
    assert run_cli(["kiss", flag, "--json", str(out),
                    "--svg", str(svg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ellip: input error: ") and err.count("\n") == 1
    assert f" {name} " in err
    assert not out.exists() and not svg.exists()


def test_svg_of_a_label_with_a_control_character_parses(tmp_path):
    # XML 1.0 forbids NUL: the label is drawn with U+FFFD in its place
    path = tmp_path / "t.csv"
    path.write_text("trial,effect_PD,effect_AL,var_PD,cov_PD_AL,var_AL\n"
                    "t\0x,0.3,-0.4,0.02,0.005,0.03\n"
                    "t2,0.2,-0.3,0.01,0.002,0.015\n"
                    "t3,0.4,-0.5,0.03,0.004,0.02\n")
    svg = tmp_path / "m.svg"
    assert run_cli(["meta", "--data", str(path), "--svg", str(svg),
                    "--json", str(tmp_path / "m.json")]) == 0
    texts = [t.text for t in ET.parse(svg).iter("{http://www.w3.org/2000/svg}"
                                                "text")]
    assert " t\ufffdx" in texts


@pytest.mark.parametrize("unit", [1e-6, 1.0, 1e6])
def test_contrast_orthogonality_is_free_of_units(unit, tmp_path):
    # the test is relative to |L_i| |L_j|, so the products of these rows,
    # 1e-12 in units of 1e-6, give the verdict they give in any units
    def contrasts(*rows):
        out = tmp_path / "ct.json"
        argv = ["contrasts", "--data", "iris", "--group", "Species",
                "--json", str(out)]
        argv += [f"--contrast={','.join(f'{unit * v:g}' for v in row)}"
                 for row in rows]
        assert run_cli(argv) == 0
        return read_json(out)["orthogonal"]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert contrasts((-2, 1, 1), (0, 1, -1)) is True
    with pytest.warns(UserWarning, match="not pairwise orthogonal"):
        assert contrasts((1, -1, 0), (1, 0, -1)) is False


def test_canonical_computed_once(tmp_path, monkeypatch):
    calls = []
    canonical = mlm.canonical

    def counting_canonical(gs):
        calls.append(1)
        return canonical(gs)
    monkeypatch.setattr(mlm, "canonical", counting_canonical)
    assert run_cli(["canonical", "--data", "iris", "--group", "Species",
                    "--json", str(tmp_path / "c.json"),
                    "--svg", str(tmp_path / "c.svg")]) == 0
    assert len(calls) == 1
    assert (tmp_path / "c.svg").read_text().startswith("<?xml")


def test_avp_fitted_once(tmp_path, monkeypatch):
    calls = []
    avp = linmod.avp

    def counting_avp(x, y, k):
        calls.append(1)
        return avp(x, y, k)
    monkeypatch.setattr(linmod, "avp", counting_avp)
    assert run_cli(["avp", "--data", "synthetic-coffee", "--response",
                    "Heart", "--k", "Coffee", "--json",
                    str(tmp_path / "a.json"), "--svg",
                    str(tmp_path / "a.svg")]) == 0
    assert len(calls) == 1
    assert (tmp_path / "a.svg").read_text().count("<line") > 20


def _count_calls(monkeypatch, owner, name):
    """Calls of owner.name from here on, in a list that grows per call."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("extra", [[], ["--g-diag", "6.25,0.64"]],
                         ids=["moment-g", "given-g"])
def test_blup_fits_clusters_once(tmp_path, monkeypatch, extra):
    sigma2 = _count_calls(monkeypatch, kissing.MixedSpec, "error_variance")
    blues = _count_calls(monkeypatch, kissing, "cluster_blues")
    out = tmp_path / "b.json"
    assert run_cli(["blup", "--data", "hsb-sample", "--group", "school",
                    "--x", "cses", "--response", "mathach", "--json",
                    str(out)] + extra) == 0
    assert (len(sigma2), len(blues)) == (1, 1)
    assert read_json(out)["n_clusters"] == 20


@pytest.mark.parametrize("extra", [[], ["--g-diag", "6.25,0.64"]],
                         ids=["moment-g", "given-g"])
def test_blup_factors_each_cluster_once(tmp_path, monkeypatch, extra):
    # one thin QR per cluster, in stacks of equal-sized clusters
    stacks = []
    qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        stacks.append(np.shape(a))
        return qr(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    assert run_cli(BLUP_HSB + ["--json", str(tmp_path / "b.json")]
                   + extra) == 0
    stacked = [s for s in stacks if len(s) == 3]
    assert sum(s[0] for s in stacked) == 20
    assert sum(s[0] * s[1] for s in stacked) == \
        cli.resolve_data("hsb-sample").n
    assert len({s[1] for s in stacked}) == len(stacked)


@pytest.mark.parametrize("argv", [
    ["betaspace", "--data", "synthetic-coffee", "--response", "Heart"],
    ["avp", "--data", "synthetic-coffee", "--response", "Heart", "--k",
     "Coffee"],
    ["ridge-trace", "--data", "longley", "--response", "Employed"],
    ["bayes", "--data", "longley", "--response", "Employed"],
    BLUP_HSB,
    ["meta", "--data", "berkey", "--model", "random"],
], ids=["betaspace", "avp", "ridge-trace", "bayes", "blup", "meta"])
def test_fits_do_not_call_lstsq(tmp_path, monkeypatch, argv):
    # numkernel.qr_lstsq is the one least-squares kernel; only mlm_fit
    # still calls lstsq
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert run_cli(argv + ["--json", str(tmp_path / "o.json")]) == 0


def test_avp_regresses_three_times(tmp_path, monkeypatch):
    # x_k and y on the other predictors, then the full model; the VIF
    # reuses the residualized x_k
    fits = _count_calls(monkeypatch, linmod, "ols_fit")
    out = tmp_path / "a.json"
    assert run_cli(["avp", "--data", "synthetic-coffee", "--response",
                    "Heart", "--k", "Coffee", "--json", str(out)]) == 0
    assert len(fits) == 3
    x = np.column_stack([cli.resolve_data("synthetic-coffee").numeric(c)
                         for c in ("Coffee", "Stress")])
    assert read_json(out)["vif_algebraic"] == pytest.approx(
        linmod.vif(x, 0)["algebraic"], rel=1e-12)


def test_figure_statistics_computed_once(tmp_path, monkeypatch):
    # the scene reuses the payload's moments and ellipsoid instead of
    # refitting them
    moments = _count_calls(monkeypatch, st, "mean_cov")
    ells = _count_calls(monkeypatch, ge, "from_moment")
    assert run_cli(["data-ellipse", "--data", "galton", "--level", "0.95",
                    "--json", str(tmp_path / "d.json"),
                    "--svg", str(tmp_path / "d.svg")]) == 0
    assert len(moments) == 1
    assert len(ells) == 3               # one per drawn level
    conf = _count_calls(monkeypatch, linmod, "confidence_ellipsoid")
    assert run_cli(["betaspace", "--data", "synthetic-coffee", "--response",
                    "Heart", "--json", str(tmp_path / "b.json"),
                    "--svg", str(tmp_path / "b.svg")]) == 0
    assert len(conf) == 2               # the joint and the CI ellipse


@pytest.mark.parametrize("argv, counts", [
    (["data-ellipse", "--data", "galton"], {"chi2_quantile": 2}),
    (["avp", "--data", "synthetic-coffee", "--response", "Heart", "--k",
      "Coffee"], {"chi2_quantile": 1}),
    (["betaspace", "--data", "synthetic-coffee", "--response", "Heart"],
     {"f_quantile": 1, "t_quantile": 1}),
    (["heplot", "--data", "iris", "--group", "Species"],
     {"f_quantile": 2, "f_sf": 4}),
], ids=["data-ellipse", "avp", "betaspace", "heplot"])
def test_each_quantile_once_per_operation(tmp_path, monkeypatch, argv,
                                          counts):
    # the caller computes each (level, df) once and hands the value down:
    # the 0.68 and 0.40 data ellipses, one 50% radius for both avp
    # ellipses, one F and one t for betaspace's ellipses and intervals,
    # and Roy's critical value and the E radius for heplot next to the
    # four test statistics' tails
    calls = {}
    for name in ("chi2_quantile", "f_quantile", "t_quantile", "f_sf"):
        def recording(*args, _fn=getattr(dist, name),
                      _calls=calls.setdefault(name, [])):
            _calls.append(args)
            return _fn(*args)
        monkeypatch.setattr(dist, name, recording)
    assert run_cli(argv + ["--json", str(tmp_path / "o.json"),
                           "--svg", str(tmp_path / "o.svg")]) == 0
    assert {name: len(c) for name, c in calls.items() if c} == counts
    quantiles = [(name, args) for name, c in calls.items()
                 if name != "f_sf" for args in c]
    assert len(set(quantiles)) == len(quantiles)


@pytest.mark.parametrize("matrix, project, signature", [
    ("0,0;0,0", "1,0;0,0", [0, 1, 1]),
    ("0,0,0;0,0,0;0,0,1", "1,0,0;0,0,0;0,0,0", [0, 2, 1]),
], ids=["all-unbounded", "hidden-unbounded-axis"])
def test_gell_projects_unbounded_ellipsoids(tmp_path, matrix, project,
                                            signature):
    # every radius infinite; then the slab |z| <= 1, whose shadow on the
    # x axis is the whole axis: no error, no warning, and the signature
    # (positive, zero, infinite) of that shadow
    out = tmp_path / "g.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["gell", "--matrix", matrix, "--form", "precision",
                        "--project", project, "--json", str(out)]) == 0
    assert read_json(out)["projected_signature"] == signature


def test_grouped_matches_row_by_row_grouping(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    labels = [f"g{k}" for k in rng.integers(0, 4, 60)] + ["b", "a", "b", "a"]
    vals = rng.standard_normal((len(labels), 3))
    text = "grp,u,v,w\n" + "".join(
        f"{lab},{a!r},{b!r},{c!r}\n"
        for lab, (a, b, c) in zip(labels, vals.tolist()))
    table = datasets._parse_table(text, "test")
    gs = cli._grouped(table, argparse.Namespace(group="grp", columns="w,u"))
    # reference: one list of rows per label, labels sorted
    mat = np.column_stack([table.numeric("w"), table.numeric("u")])
    by = {}
    for lab, row in zip(labels, mat):
        by.setdefault(lab, []).append(row)
    assert list(gs.labels) == sorted(by)
    assert gs.names == ("w", "u")
    for lab, got in zip(gs.labels, gs.split()):
        assert np.array_equal(got, np.array(by[lab]))
    # blup's clusters, design (1, u) and response w, in the same grouping
    specs = []
    mixed_spec = kissing.MixedSpec

    def recording_spec(*args):
        specs.append(mixed_spec(*args))
        return specs[-1]
    monkeypatch.setattr(kissing, "MixedSpec", recording_spec)
    path = tmp_path / "g.csv"
    path.write_text(text)
    out = tmp_path / "b.json"
    assert run_cli(["blup", "--data", str(path), "--group", "grp", "--x",
                    "u", "--response", "w", "--g-diag", "1,1",
                    "--json", str(out)]) == 0
    [spec] = specs
    assert list(spec.labels) == sorted(by)
    assert [c["label"] for c in read_json(out)["clusters"]] == sorted(by)
    for a, b, lab in zip(spec.ends - spec.counts, spec.ends, sorted(by)):
        rows = np.array(by[lab])
        assert np.array_equal(spec.y[a:b], rows[:, 0])
        assert np.array_equal(spec.x[a:b], np.column_stack(
            [np.ones(len(rows)), rows[:, 1]]))


def _numbered_groups(tmp_path):
    """A CSV of 11 groups coded 1 to 11, rows interleaved, with columns u
    and v whose means move with the group; its path and the rows of each
    code."""
    rng = np.random.default_rng(11)
    codes = rng.permutation(np.repeat(np.arange(1, 12), 5))
    vals = codes[:, None] * [1.0, -0.5] + rng.standard_normal((55, 2))
    path = tmp_path / "t.csv"
    path.write_text("grp,u,v\n" + "".join(
        f"{c},{a!r},{b!r}\n" for c, (a, b) in zip(codes, vals.tolist())))
    return path, {c: vals[codes == c] for c in range(1, 12)}


@pytest.mark.parametrize("sub", ["decompose", "canonical", "heplot"])
def test_default_columns_leave_out_a_numeric_group(tmp_path, sub):
    # the group codes are not a response: without --columns the analysis
    # takes u and v alone, and the groups come in numeric order
    path, _ = _numbered_groups(tmp_path)
    out = tmp_path / "o.json"
    assert run_cli([sub, "--data", str(path), "--group", "grp",
                    "--json", str(out)]) == 0
    got = read_json(out)
    assert got["columns"] == ["u", "v"]
    if sub == "canonical":
        assert got["groups"] == [str(c) for c in range(1, 12)]


def test_contrast_weights_follow_numeric_group_order(tmp_path):
    # groups 1..11 as written, sorted by value: weights +1 and -1 in
    # places 2 and 10 contrast groups 2 and 10, whose H is d d' over
    # (1/n_2 + 1/n_10) for the difference d of their means
    path, rows = _numbered_groups(tmp_path)
    weights = ",".join(["0", "1"] + ["0"] * 7 + ["-1", "0"])
    out = tmp_path / "c.json"
    assert run_cli(["contrasts", "--data", str(path), "--group", "grp",
                    f"--contrast={weights}", "--json", str(out)]) == 0
    got = read_json(out)
    assert got["groups"] == [str(c) for c in range(1, 12)]
    d = rows[2].mean(axis=0) - rows[10].mean(axis=0)
    want = np.outer(d, d) / (1 / len(rows[2]) + 1 / len(rows[10]))
    assert np.array(got["h_parts"][0]) == pytest.approx(want, rel=1e-9)


def test_betaspace_synthetic_coffee(tmp_path):
    out = tmp_path / "bs.json"
    assert run_cli(["betaspace", "--data", "synthetic-coffee",
                    "--response", "Heart", "--coords", "Coffee,Stress",
                    "--json", str(out)]) == 0
    d = read_json(out)
    assert d["coef"]["Coffee"] < 0 < d["coef"]["Stress"]
    lo, hi = d["ci_intervals"]["Coffee"]
    assert lo < 0 < hi                          # coffee not significant


def _exact_ols(x_rows, y):
    """Coefficients, diag((X'X)^-1) and s2 in exact rational arithmetic."""
    q = len(x_rows[0])
    aug = [[sum(r[i] * r[j] for r in x_rows) for j in range(q)]
           + [Fraction(int(i == j)) for j in range(q)]
           + [sum(r[i] * v for r, v in zip(x_rows, y))] for i in range(q)]
    for c in range(q):                          # Gauss-Jordan elimination
        p = next(r for r in range(c, q) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(q):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    coef = [row[2 * q] for row in aug]
    resid = [v - sum(b * xi for b, xi in zip(coef, r))
             for r, v in zip(x_rows, y)]
    s2 = sum(e * e for e in resid) / (len(y) - q)
    return coef, [aug[i][q + i] for i in range(q)], s2


def test_betaspace_longley_matches_exact_ols(tmp_path):
    # cond(X'X) is about 5.7e14; the fit must stay accurate and its
    # (X'X)^-1 symmetric enough for the confidence ellipse.
    rows = list(csv.reader(io.StringIO(datasets.fixture_csv_text("longley"))))
    x = [[Fraction(1)] + [Fraction(v) for v in r[:6]] for r in rows[1:]]
    y = [Fraction(r[6]) for r in rows[1:]]
    coef, inv_diag, s2 = _exact_ols(x, y)
    out = tmp_path / "longley.json"
    assert run_cli(["betaspace", "--data", "longley", "--response",
                    "Employed", "--json", str(out)]) == 0
    d = read_json(out)
    names = ["intercept"] + rows[0][:6]
    assert list(d["coef"]) == names
    for name, c, v in zip(names, coef, inv_diag):
        assert d["coef"][name] == pytest.approx(float(c), rel=1e-8)
        assert d["se"][name] == pytest.approx(
            float(s2 * v) ** 0.5, rel=1e-8)
    assert d["s2"] == pytest.approx(float(s2), rel=1e-8)


def test_fixtures_listing(capsys):
    assert run_cli(["fixtures"]) == 0
    d = json.loads(capsys.readouterr().out)
    names = {f["name"] for f in d["fixtures"]}
    assert {"galton", "iris", "longley", "berkey", "hsb-sample",
            "synthetic-coffee"} <= names
    prov = {f["name"]: f["provenance"] for f in d["fixtures"]}
    assert "generated" in prov["synthetic-coffee"]
    assert "16" in prov["longley"]


def test_fixture_dir_override(tmp_path, monkeypatch):
    alt = tmp_path / "fixtures"
    alt.mkdir()
    (alt / "galton.csv").write_text("parent,child\n1,1\n2,2\n3,2\n4,5\n")
    monkeypatch.setenv("ELLIP_FIXTURES", str(alt))
    table = cli.resolve_data("galton")
    assert table.n == 4


def test_generated_fixtures_made_once(tmp_path, monkeypatch):
    for gen in (datasets.hsb_sample, datasets.synthetic_coffee):
        first = gen()
        assert gen() is first
        assert gen.__wrapped__() == first
    argv = ["blup", "--data", "hsb-sample", "--group", "school", "--x",
            "cses", "--response", "mathach", "--json"]
    assert run_cli(argv + [str(tmp_path / "cached.json")]) == 0
    datasets.hsb_sample.cache_clear()
    assert run_cli(argv + [str(tmp_path / "fresh.json")]) == 0
    assert ((tmp_path / "cached.json").read_text()
            == (tmp_path / "fresh.json").read_text())
    # files on disk are read on every call: ELLIP_FIXTURES may change
    alt = tmp_path / "fixtures"
    alt.mkdir()
    monkeypatch.setenv("ELLIP_FIXTURES", str(alt))
    (alt / "galton.csv").write_text("parent,child\n1,1\n2,2\n3,2\n")
    assert cli.resolve_data("galton").n == 3
    (alt / "galton.csv").write_text("parent,child\n1,1\n2,2\n3,2\n4,5\n")
    assert cli.resolve_data("galton").n == 4


def test_console_entrypoint_smoke(tmp_path):
    out = tmp_path / "s.json"
    proc = _cold_ellip(["data-ellipse", "--data", "galton", "--json",
                        str(out)])
    assert proc.returncode == 0
    assert out.exists()
