# Bundled example data and seeded generators. CSV fixtures ship with the
# package; the generated fixtures are deterministic functions of their
# seeds, materialized on first demand and kept for the process (their
# text is immutable). ELLIP_FIXTURES overrides the directory searched for
# the CSV files, so those are read afresh on every call.

import csv
import functools
import io
import os
from importlib import resources

import numpy as np

from . import statellipse as st

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
    hdr, *rows = csv.reader(io.StringIO(fixture_csv_text("iris")))
    return st.GroupedSample([[float(v) for v in r[:4]] for r in rows],
                            [r[4] for r in rows], tuple(hdr[:4]))
