import os

import numpy as np
import pytest

from ellipstat import gellipsoid as ge
from ellipstat import kissing as ki
from ellipstat import mlm, render
from ellipstat import statellipse as st

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def iris_he_scene(iris_grouped):
    fit, labels = mlm.manova_fit(iris_grouped)
    hyp = mlm.overall_hypothesis(iris_grouped.g)
    h, e = mlm.hypothesis_matrices(fit, hyp)
    _, means, _ = st.group_means(iris_grouped)
    return render.figure(
        "he_plot", h, e, fit.df_e, iris_grouped.g - 1, fit.y_mean,
        coords=(0, 2), names=(iris_grouped.names[0], iris_grouped.names[2]),
        means=means, labels=labels, title="iris HE")


def test_ellipse_path_square_vertices():
    # vertex set {(1,0), (0,1), (-1,0), (0,-1)}; order depends on the
    # (deterministic) tie-breaking of the equal radii
    circle = ge.from_moment(np.eye(2))
    pts = render.ellipse_path(circle, 4)
    got = sorted((round(p[0], 12), round(p[1], 12)) for p in pts)
    assert got == [(-1.0, -0.0), (-0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    scaled = ge.from_moment(np.diag([4.0, 1.0]))
    pts = render.ellipse_path(scaled, 4)
    assert pts == pytest.approx(np.array([[2.0, 0.0], [0.0, 1.0],
                                          [-2.0, 0.0], [0.0, -1.0]]),
                                abs=1e-12)


def test_ellipse_path_vertices_on_boundary():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2))
    e = ge.from_moment(a @ a.T + np.eye(2), rng.standard_normal(2))
    for v in render.ellipse_path(e, 64):
        assert ge.contains(e, v, tol=1e-10) == "boundary"


def test_ellipse_path_rejects_unbounded():
    cyl = ge.from_precision(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        render.ellipse_path(cyl)


def test_render_empty_scene_axes_only():
    svg = render.render_scene(render.Scene(layers=[render.AxisLayer()]))
    assert svg.startswith('<?xml version="1.0"')
    assert "<svg" in svg and svg.rstrip().endswith("</svg>")


def test_render_deterministic(iris_grouped):
    scene = iris_he_scene(iris_grouped)
    assert render.render_scene(scene) == render.render_scene(scene)


def test_render_rejects_zero_area_viewport():
    scene = render.Scene(layers=[render.AxisLayer()],
                         viewport=(0.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        render.render_scene(scene)


def test_unit_circle_pixel_bounding_box():
    scene = render.Scene(
        layers=[render.EllipseLayer(ge.from_moment(np.eye(2)))],
        viewport=(-1.0, 1.0, -1.0, 1.0), size=(400, 400), aspect="equal")
    tr, viewport = render.scene_transform(scene)
    pts = tr.to_pixel(render.ellipse_path(ge.from_moment(np.eye(2)), 256))
    # data square maps into the margins-adjusted box
    assert pts[:, 0].min() == pytest.approx(
        tr.to_pixel([[-1.0, 0.0]])[0][0], abs=1e-9)
    assert pts[:, 0].max() == pytest.approx(
        tr.to_pixel([[1.0, 0.0]])[0][0], abs=1e-9)
    # equal aspect: one data unit spans the same pixels both ways
    assert tr.sx == pytest.approx(tr.sy)


def test_transform_roundtrip(iris_grouped):
    scene = iris_he_scene(iris_grouped)
    tr, _ = render.scene_transform(scene)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-10, 10, size=(200, 2))
    back = tr.to_data(tr.to_pixel(pts))
    assert np.abs(back - pts).max() < 1e-9


def test_nested_coverage_ellipses_nest(galton_sample):
    inner = st.data_ellipsoid(galton_sample, st.CoverageSpec.chisq(0.40))
    outer = st.data_ellipsoid(galton_sample, st.CoverageSpec.chisq(0.95))
    for v in render.ellipse_path(inner, 64):
        assert ge.contains(outer, v) == "inside"


def test_golden_iris_he(iris_grouped):
    golden = os.path.join(GOLDEN_DIR, "iris_he.svg")
    svg = render.render_scene(iris_he_scene(iris_grouped))
    with open(golden, encoding="utf-8") as f:
        assert f.read() == svg


def test_figure_dispatch_unknown_kind():
    with pytest.raises(ValueError, match="unknown figure kind"):
        render.figure("nope")


def test_figure_builders_produce_valid_scenes(iris_grouped, galton_sample,
                                              longley, berkey_studies):
    hdr, x, y = longley
    f1 = ki.QuadFamily([-2.0, 2.0], [[1.0, 0.5], [0.5, 1.5]])
    f2 = ki.QuadFamily([2.0, 6.0], [[1.5, -0.3], [-0.3, 1.0]])
    bbox = (-8.0, 8.0, -4.0, 12.0)
    locus = ki.trace_locus(f1, f2, bbox, 96)
    kisses = [ki.osculation_point(f1, f2, r, locus=locus) for r in (2, 3)]
    scenes = [
        render.figure("data_ellipse_panel", galton_sample),
        render.figure("scatterplot_matrix", iris_grouped),
        render.figure("canonical_he", iris_grouped,
                      mlm.canonical(iris_grouped)),
        render.figure("ridge_trace",
                      ki.ridge_trace(x, y, [0.0, 0.01, 0.08],
                                     coords=(1, 2)),
                      names=("GNP", "Unemployed")),
        render.figure("kiss_locus", f1, f2, bbox, locus=locus,
                      kisses=kisses),
        render.figure("meta_panel", berkey_studies,
                      ki.meta_fixed(berkey_studies)),
    ]
    rng = np.random.default_rng(3)
    x2 = rng.standard_normal((30, 2)) @ (np.eye(2) + 0.5 * np.ones((2, 2)))
    y2 = x2 @ np.array([1.0, -0.5]) + rng.standard_normal(30)
    from ellipstat import linmod
    scenes.append(render.figure("avp_panel", linmod.avp(x2, y2, 0)))
    scenes.append(render.figure("avp_marginal_overlay", x2, y2, 0))
    scenes.append(render.figure("beta_space_panel",
                                linmod.ols_fit(x2, y2), [1, 2]))
    for scene in scenes:
        svg = render.render_scene(scene)
        assert svg.count("<svg") == 1
        assert svg.rstrip().endswith("</svg>")
        assert "nan" not in svg


def test_style_table_and_escape():
    s = render.Style(stroke="#ff0000", width=2.0, dash="4,2", opacity=0.5)
    text = s.svg()
    assert 'stroke="#ff0000"' in text and 'stroke-dasharray="4,2"' in text
    scene = render.Scene(layers=[
        render.TextLayer((0.5, 0.5), "a < b & c",
                         render.Style(stroke="none", fill="#000000"))],
        viewport=(0.0, 1.0, 0.0, 1.0))
    svg = render.render_scene(scene)
    assert "a &lt; b &amp; c" in svg
