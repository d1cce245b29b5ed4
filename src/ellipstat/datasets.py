# Bundled example data, seeded generators and the one CSV reader. CSV
# fixtures ship with the package; generated fixtures are deterministic in
# their seeds, made on first demand and kept (their text is immutable).
# The CSV files are read on every call, as ELLIP_FIXTURES may move them.
# _parse_table reads any CSV text, a fixture's or a --data file's, into a
# DataTable: a plain table in one typed np.loadtxt pass, else csv.reader.

import csv
import functools
import io
import os
from importlib import resources
from typing import NamedTuple

import numpy as np

from .numkernel import InputError

_FIXTURES = {
    "galton": "Galton 1886 parent/child heights, 928 pairs expanded from "
              "the published frequency table (Stigler 1986, Table 8.2 "
              "transcription)",
    "iris": "Anderson/Fisher iris measurements, 150 flowers in 3 species",
    "longley": "Longley 1967 US economic series, n=16, Employed as the "
               "response",
    "berkey": "Berkey et al. 1998 periodontal trials: 5 studies, outcomes "
              "PD/AL with within-study covariances",
    "hsb-sample": "generated: 20-school subsample generator in the style "
                  "of the High School & Beyond math-achievement data "
                  "(not the NCES data)",
    "synthetic-coffee": "generated: seeded coffee/stress/heart triple with "
                        "positive marginal slopes and a negative "
                        "conditional coffee slope (not paper data)",
}


# ------------------------------------------------------------- CSV tables

class DataTable(NamedTuple):
    header: list
    columns: dict      # name -> float ndarray or list[str]
    n: int

    def numeric(self, name):
        col = self._get(name)
        if not isinstance(col, np.ndarray):
            raise InputError(f"column {name!r} is not numeric")
        return col

    def categorical(self, name):
        """The column's entries as text; a column of numbers gives each in
        its shortest form, a whole number without a decimal point ("1",
        "2.5")."""
        col = self._get(name)
        if isinstance(col, np.ndarray):
            return [repr(v).removesuffix(".0") for v in col.tolist()]
        return col

    def _get(self, name):
        try:
            return self.columns[name]
        except KeyError:
            raise InputError(
                f"no column {name!r}; have {self.header}") from None

    def numeric_names(self):
        return [h for h in self.header
                if isinstance(self.columns[h], np.ndarray)]


def _float_or_object(cell):
    try:
        return type(float(cell))
    except ValueError:
        return object


def _split_plain(text):
    """(header, columns, n) of text read as plain comma-separated lines by
    one typed np.loadtxt pass, or None unless that provably reads the text
    as csv.reader does: None on a quote, a CR not followed by LF, an empty
    header, no data rows, a blank line, a line longer than
    csv.field_size_limit(), or any line np.loadtxt refuses. A column is
    read as floats where float() reads its first cell, as text otherwise."""
    if '"' in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    head, _, body = text.partition("\n")
    body = body.removesuffix("\n")
    limit = csv.field_size_limit()
    if not head or not body or len(head) > limit:
        return None
    header = head.split(",")
    # '\n' is a single byte in UTF-8 and occurs in no other character's
    # encoding, so the line lengths in bytes bound those in characters
    # from above
    raw = np.frombuffer(body.encode("utf-8", "surrogatepass"), np.uint8)
    ends = np.concatenate([np.flatnonzero(raw == 10), [raw.size]])
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() == 0 or lengths.max() > limit:
        return None
    # numpy reads a number as float() does (PyOS_string_to_double), but
    # also strips \x1c-\x1f; what only float() reads (1_000, ٣) raises
    first = body.partition("\n")[0].split(",")
    if len(first) != len(header) or any(c in body
                                        for c in "\x1c\x1d\x1e\x1f"):
        return None
    dtype = [(f"f{j}", _float_or_object(c)) for j, c in enumerate(first)]
    try:
        table = np.loadtxt(io.StringIO(body), dtype, delimiter=",",
                           comments=None, quotechar=None, ndmin=1)
    except ValueError:
        return None
    if table.shape != (ends.size,):
        return None
    return header, [table[f].copy() if k is float else table[f].tolist()
                    for f, k in dtype], ends.size


def _split_csv(text, source):
    """(header, columns, n) of text as csv.reader reads it."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise InputError(f"{source}: line {reader.line_num}: {exc}") from None
    if not rows or not rows[0]:
        raise InputError(f"{source}: empty file")
    header, data = rows[0], rows[1:]
    if not data:
        raise InputError(f"{source}: no data rows")
    width = len(header)
    if set(map(len, data)) != {width}:
        lineno, row = next((i, row) for i, row in enumerate(data, start=2)
                           if len(row) != width)
        raise InputError(f"{source}: line {lineno} has {len(row)} fields, "
                         f"expected {width}")
    return header, zip(*data), len(data)


def _parse_table(text, source):
    """The DataTable of CSV text: a column of numbers as floats, any other
    as text. csv.reader decides what the text means; lines it would read
    as plain comma-separated cells are read by np.loadtxt instead."""
    header, raws, n = _split_plain(text) or _split_csv(text, source)
    columns = {}
    for name, raw in zip(header, raws):
        try:
            vals = raw if isinstance(raw, np.ndarray) else \
                np.fromiter(map(float, raw), float, n)
        except ValueError:
            columns[name] = list(raw)
            continue
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise InputError(
                f"{source}: column {name!r} has a non-finite value "
                f"at line {bad[0] + 2}")
        columns[name] = vals
    return DataTable(header=header, columns=columns, n=n)


# ------------------------------------------------------------ fixtures

def list_fixtures():
    """Fixture names with one-line provenance strings."""
    return dict(_FIXTURES)


def fixture_dir():
    override = os.environ.get("ELLIP_FIXTURES")
    if override:
        return override
    return str(resources.files("ellipstat") / "fixtures")


def fixture_path(name):
    base = name[:-4] if name.endswith(".csv") else name
    if base not in _FIXTURES:
        raise KeyError(f"unknown fixture {name!r}")
    return os.path.join(fixture_dir(), base + ".csv")


def _csv_text(rows, header):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


@functools.cache
def synthetic_coffee(seed=3, n=20):
    """Contrived coffee/stress/heart sample.

    Coffee tracks stress closely; heart damage loads positively on stress
    and negatively on coffee once stress is controlled, so the marginal
    coffee slope is positive while the conditional one is negative.
    Returns CSV text with columns Coffee, Stress, Heart.
    """
    rng = np.random.default_rng(seed)
    stress = np.sort(rng.uniform(0.0, 10.0, n))
    coffee = 1.0 + 0.9 * stress + rng.normal(0.0, 1.0, n)
    heart = -0.4 * coffee + 1.2 * stress + rng.normal(0.0, 1.6, n) - 2.0
    rows = [[f"{c:.4f}", f"{s:.4f}", f"{h:.4f}"]
            for c, s, h in zip(coffee, stress, heart)]
    return _csv_text(rows, ["Coffee", "Stress", "Heart"])


@functools.cache
def hsb_sample(seed=31, n_schools=20):
    """School-clustered achievement sample in the HSB style.

    Intercepts vary a lot between schools while slopes vary little, the
    configuration in which shrinkage hits slopes much harder than
    intercepts. The predictor is centered within each school. Returns CSV
    text with columns school, cses, mathach.
    """
    rng = np.random.default_rng(seed)
    g00, g11 = 6.0, 0.05
    rows = []
    for i in range(1, n_schools + 1):
        n_i = int(rng.integers(25, 61))
        b0 = 12.0 + rng.normal(0.0, np.sqrt(g00))
        b1 = 2.5 + rng.normal(0.0, np.sqrt(g11))
        ses = rng.normal(0.0, 0.8, n_i)
        ses -= ses.mean()
        y = b0 + b1 * ses + rng.normal(0.0, 6.0, n_i)
        rows.extend([[f"s{i:02d}", f"{s:.4f}", f"{v:.4f}"]
                     for s, v in zip(ses, y)])
    return _csv_text(rows, ["school", "cses", "mathach"])


_GENERATORS = {
    "synthetic-coffee": synthetic_coffee,
    "hsb-sample": hsb_sample,
}


def fixture_csv_text(name):
    """CSV text of a fixture (reads the bundled file or runs a generator)."""
    base = name[:-4] if name.endswith(".csv") else name
    if base in _GENERATORS:
        return _GENERATORS[base]()
    path = fixture_path(base)
    with open(path, encoding="utf-8") as f:
        return f.read()


def load_iris_grouped():
    """The iris fixture as a GroupedSample of the species."""
    from . import statellipse as st
    table = _parse_table(fixture_csv_text("iris"), "fixture:iris")
    names = table.header[:4]
    return st.GroupedSample(np.column_stack([table.numeric(h) for h in names]),
                            table.categorical(table.header[4]), tuple(names))
