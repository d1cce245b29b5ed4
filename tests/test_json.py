"""cli.dump_json against the encoder it replaced, one element at a time.

dump_json encodes a list of _COLUMNS_FROM or more records with the same
keys in the same order a column at a time (a column of str, or of finite
float64 arrays of one shape, in one pass). The oracle below is the
per-element encoder it replaced; the property draws payloads that take
each path and each way out of it, and asks for the same text.
"""

import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from ellipstat import cli


def oracle_fragment(obj):
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {oracle_fragment(v)}"
                          for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(oracle_fragment(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return oracle_fragment(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return f"{v:.12g}"
    return json.dumps(obj)


SPECIAL = [math.nan, math.inf, -math.inf]
_texts = hs.text(max_size=4)
_scalars = hs.one_of(
    _texts, _texts.map(np.str_), hs.booleans(), hs.booleans().map(np.bool_),
    hs.integers(-2 ** 70, 2 ** 70), hs.integers(-2 ** 63, 2 ** 63 - 1).map(
        np.int64),
    hs.floats(), hs.floats(width=32).map(np.float32), hs.floats().map(
        np.float64), hs.none())
_shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_arrays = hs.one_of(
    hnp.arrays(np.float64, _shapes, elements=hs.floats()),
    hnp.arrays(np.float32, _shapes, elements=hs.floats(width=32)),
    hnp.arrays(np.int64, _shapes), hnp.arrays(np.bool_, _shapes))


@hs.composite
def _float_column(draw, n):
    # n float64 arrays of one shape, all finite or with nan or +-inf in one
    # place, or one array of another shape (ragged)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                  max_side=3))
    finite = hs.floats(allow_nan=False, allow_infinity=False)
    column = [draw(hnp.arrays(np.float64, shape, elements=finite))
              for _ in range(n)]
    how = draw(hs.sampled_from(["finite", "special", "ragged"]))
    i = draw(hs.integers(0, n - 1))
    if how == "special" and column[i].size:
        column[i].flat[draw(hs.integers(0, column[i].size - 1))] = draw(
            hs.sampled_from(SPECIAL))
    elif how == "ragged":
        column[i] = draw(hnp.arrays(np.float64, _shapes, elements=finite))
    return column


@hs.composite
def _records(draw):
    # records with equal keys in one order, then maybe one record with its
    # keys reordered, one missing or one extra
    keys = draw(hs.lists(_texts, min_size=0, max_size=3, unique=True))
    n = draw(hs.integers(1, 5))
    columns = [draw(hs.one_of(
        _float_column(n),
        hs.lists(_texts, min_size=n, max_size=n),
        hs.lists(_texts.map(np.str_), min_size=n, max_size=n),
        hs.lists(_scalars, min_size=n, max_size=n),
        hs.lists(_arrays, min_size=n, max_size=n))) for _ in keys]
    records = [{k: col[i] for k, col in zip(keys, columns)}
               for i in range(n)]
    i = draw(hs.integers(0, n - 1))
    how = draw(hs.sampled_from(["equal", "reordered", "missing", "extra"]))
    if how == "reordered":
        records[i] = dict(reversed(records[i].items()))
    elif how == "missing" and keys:
        del records[i][keys[0]]
    elif how == "extra":
        records[i][draw(_texts)] = draw(_scalars)
    return draw(hs.sampled_from([records, tuple(records)]))


_payloads = hs.recursive(
    hs.one_of(_scalars, _arrays, _records()),
    lambda inner: hs.one_of(
        hs.lists(inner, max_size=4), hs.lists(inner, max_size=4).map(tuple),
        hs.dictionaries(_texts, inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_payloads, hs.sampled_from([1, 2, cli._COLUMNS_FROM]))
def test_dump_json_is_the_per_element_encoder(payload, columns_from):
    # records go by column from 1, 2 or the default count on
    default, cli._COLUMNS_FROM = cli._COLUMNS_FROM, columns_from
    try:
        assert cli.dump_json(payload) == oracle_fragment(payload) + "\n"
    finally:
        cli._COLUMNS_FROM = default


def test_same_keyed_records_are_encoded_by_column(monkeypatch):
    # meta's blups: a str column and two float64 array columns, each
    # encoded in one pass, and the text of the per-element encoder
    calls = []
    column = cli._json_column

    def recording(values):
        calls.append(len(values))
        return column(values)
    monkeypatch.setattr(cli, "_json_column", recording)
    rng = np.random.default_rng(7)
    blups = [{"label": f"t{i}", "beta": rng.normal(size=2),
              "cov": rng.normal(size=(2, 2))} for i in range(50)]
    blups[3]["cov"][1, 0] = math.nan
    payload = {"n": 50, "blups": blups}
    assert cli.dump_json(payload) == oracle_fragment(payload) + "\n"
    assert calls == [50, 50, 50]
    # fewer records go one by one
    calls.clear()
    payload["blups"] = blups[:cli._COLUMNS_FROM - 1]
    assert cli.dump_json(payload) == oracle_fragment(payload) + "\n"
    assert calls == []
