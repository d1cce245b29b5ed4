"""The package's record and value classes: each takes its fields in one
positional order or by keyword, with fixed defaults, keeps them as
attributes and refuses any later assignment."""

import numpy as np
import pytest

from ellipstat import datasets, gellipsoid as ge, kissing as ki, linmod, mlm
from ellipstat import numkernel as nk, render, statellipse as st

E2 = np.eye(2)
V2 = np.array([2.0, 1.0])
DATA = np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 5.0], [4.0, 4.0]])
STYLE = render.Style("#111111", 2.0, "#222222", "2,2")
ELLIPSE = ge.GEllipsoid(np.zeros(2), E2, V2)
ARROW = render.ArrowLayer((0.0, 0.0), (1.0, 1.0))

# (class, its fields in constructor order with the arguments of one
# instance, the defaults of the trailing fields, the attributes it derives
# from them). Every field is kept as its argument, so each argument is
# already in the form the class keeps.
CASES = [
    (nk.SpectralDecomp, dict(eigvals=V2, eigvecs=E2), {}, ()),
    (nk.SvdDecomp, dict(left=E2, singulars=V2, right=E2), {}, ()),
    (datasets.DataTable, dict(header=["a"], columns={"a": V2}, n=2), {}, ()),
    (ge.Signature, dict(n_pos=1, n_zero=0, n_inf=1), {}, ()),
    (ge.GEllipsoid, dict(center=np.ones(2), frame=E2, radii=V2), {}, ()),
    (ge.ConjugateAxes, dict(axes=E2, kind="given"), {}, ()),
    (st.Sample, dict(data=DATA, names=("a", "b")), dict(names=()), ()),
    (st.GroupedSample, dict(data=DATA, groups=("u", "u", "v", "v"),
                            names=("a", "b")), dict(names=()),
     ("labels", "ends")),
    (linmod.LinearFit, dict(coef=V2, xtx_inv=E2, s2=0.5, df=3, n=5,
                            names=("intercept", "x1"), residuals=DATA[:, 0],
                            fitted=DATA[:, 1]), {}, ()),
    (mlm.MlmFit, dict(coef=E2, e_mat=E2, df_e=4, xtx_inv=E2, n=6, p=2, q=2,
                      y_mean=V2, names=("y1", "y2")), {}, ()),
    (mlm.Hypothesis, dict(l_mat=np.array([[1.0, -1.0]]), label="h"),
     dict(label=""), ()),
    (mlm.TestResult, dict(lambdas=V2, rhos=V2, wilks=0.1, pillai=0.2,
                          hotelling_lawley=0.3, roy=0.4, f_stats={},
                          partial_eta2={}, s=2), {}, ()),
    (mlm.CanonicalResult, dict(scores=DATA, coeffs=E2, lambdas=V2,
                               percent=V2, structure=E2, group_means=E2,
                               group_labels=["u", "v"], df_e=2), {}, ()),
    (ki.QuadFamily, dict(m=np.ones(2), a_mat=E2), {}, ()),
    (ki.RidgeResult, dict(k=0.5, beta=V2, beta_original=V2, cov=E2,
                          beta_ols=V2, s2=0.25), {}, ()),
    (ki.MixedSpec, dict(x=np.column_stack([np.ones(6), np.arange(6.0)]),
                        y=np.array([1.0, 3.0, 2.0, 5.0, 4.0, 7.0]),
                        groups=("a",) * 3 + ("b",) * 3), {},
     ("labels", "ends", "r", "qty", "rss", "rank")),
    (ki.StudyStack, dict(y=np.ones((2, 2)), s_mat=np.stack([E2, E2]),
                         labels=("s1", "s2")),
     dict(labels=None), ()),
    (render.Style, dict(stroke="#111111", width=2.0, fill="#222222",
                        dash="2,2"),
     dict(stroke="#000000", width=1.0, fill="none", dash=""), ()),
    (render.EllipseLayer, dict(ellipses=(ELLIPSE,), style=STYLE),
     dict(style=render.Style()), ("centers", "frames", "radii")),
    (render.PointsLayer, dict(points=DATA, style=STYLE, marker="dot",
                              size=2.0),
     dict(style=render.Style(), marker="circle", size=3.0), ()),
    (render.PolylineLayer, dict(points=DATA, style=STYLE, closed=True),
     dict(style=render.Style(), closed=False), ()),
    (render.ArrowLayer, dict(tail=(0.0, 1.0), head=(2.0, 3.0), style=STYLE),
     dict(style=render.Style()), ()),
    (render.TextLayer, dict(pos=np.ones((1, 2)), texts=("t",), style=STYLE,
                            size=9.0, anchor="end"),
     dict(style=render.Style(stroke="none", fill="#000000"), size=11.0,
          anchor="start"), ()),
    (render.Interleave, dict(members=(ARROW,)), {}, ()),
    (render.AxisLayer, dict(ticks=3, label_x="x", label_y="y"),
     dict(ticks=5, label_x="", label_y=""), ()),
    (render.Scene, dict(layers=[ARROW], viewport=(0, 1, 0, 1),
                        size=(640, 400), title="t"),
     dict(viewport=None, size=(480, 480), title=""), ()),
    (render.Transform, dict(x0=1.0, y0=2.0, scale=3.0, height=5.0), {}, ()),
]


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a is b or a == b


@pytest.mark.parametrize("cls, fields, defaults, derived", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_record_constructor_and_immutability(cls, fields, defaults,
                                             derived):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    # a GroupedSample or MixedSpec sorts its rows by their groups and
    # keeps the labels
    kept = [n for n in fields if n != "groups"
            or cls not in (st.GroupedSample, ki.MixedSpec)]
    for obj in (by_position, by_keyword):
        for name in kept:
            assert _same(getattr(obj, name), fields[name]), name
        for name in derived:
            assert _same(getattr(obj, name), getattr(by_position, name))
    # the defaults are the ones named, in the trailing fields
    required = list(fields.values())[:len(fields) - len(defaults)]
    assert list(fields)[len(required):] == list(defaults)
    bare, spelled = cls(*required), cls(*required, **defaults)
    for name in [*kept, *derived]:
        assert _same(getattr(bare, name), getattr(spelled, name)), name
    for name in [*kept, *derived, "nosuch"]:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
    with pytest.raises(AttributeError):
        delattr(by_position, kept[0])


def test_frozen_values_compare_and_hash_by_identity():
    # a Frozen value may hold arrays, which have no truth value: it equals
    # only itself and hashes by identity, so comparing two values with
    # equal arrays returns False, and a value can go in a set
    a = ge.GEllipsoid(np.zeros(2), E2, V2)
    b = ge.GEllipsoid(np.zeros(2), E2, V2)
    assert a == a and a != b and not a == b
    assert {a, b, a} == {a, b} and len({a, b}) == 2
    layer = render.EllipseLayer([a])
    assert layer in {layer} and layer != render.EllipseLayer([a])


def test_signature_compares_by_value():
    a, b = ge.Signature(1, 0, 1), ge.Signature(n_pos=1, n_zero=0, n_inf=1)
    assert a == b and hash(a) == hash(b)
    assert a != ge.Signature(0, 1, 1)
    assert a.as_tuple() == (1, 0, 1)


def test_error_variance_can_be_wrapped_on_the_class(monkeypatch):
    # bench/spans.py times each call through a wrapper set on the class
    (cls, fields, _, _), = [c for c in CASES if c[0] is ki.MixedSpec]
    spec = cls(**fields)
    plain = spec.error_variance()
    calls = []
    original = cls.error_variance

    def wrapped(self):
        calls.append(self)
        return original(self)
    monkeypatch.setattr(cls, "error_variance", wrapped)
    assert spec.error_variance() == plain
    assert len(calls) == 1 and calls[0] is spec
