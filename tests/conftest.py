import csv
import io

import numpy as np
import pytest

from ellipstat import datasets, kissing
from ellipstat import statellipse as st


@pytest.fixture(scope="session")
def galton_sample():
    rows = list(csv.reader(io.StringIO(datasets.fixture_csv_text("galton"))))
    arr = np.array([[float(v) for v in r] for r in rows[1:]])
    return st.Sample(arr, ("parent", "child"))


@pytest.fixture(scope="session")
def iris_grouped():
    return datasets.load_iris_grouped()


@pytest.fixture(scope="session")
def longley():
    rows = list(csv.reader(io.StringIO(datasets.fixture_csv_text("longley"))))
    hdr = rows[0]
    arr = np.array([[float(v) for v in r] for r in rows[1:]])
    return hdr, arr[:, :6], arr[:, 6]     # names, predictors, Employed


@pytest.fixture(scope="session")
def berkey_studies():
    rows = list(csv.reader(io.StringIO(datasets.fixture_csv_text("berkey"))))
    arr = np.array([[float(v) for v in r[3:8]] for r in rows[1:]])
    s_mats = arr[:, [2, 3, 3, 4]].reshape(-1, 2, 2)
    return kissing.StudyStack(arr[:, :2], s_mats,
                              labels=[r[0] for r in rows[1:]])


def grouped(arrays, names=()):
    """The GroupedSample of {label: (n_i, p) rows}."""
    return st.GroupedSample(np.vstack(list(arrays.values())),
                            [lab for lab, a in arrays.items()
                             for _ in range(len(a))], names)


def random_pd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T + p * np.eye(p))


def random_psd(rng, p, rank=None):
    rank = rank if rank is not None else p
    a = rng.standard_normal((p, rank))
    return a @ a.T
