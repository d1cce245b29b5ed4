import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from ellipstat import cli
from ellipstat import gellipsoid as ge
from ellipstat import kissing as ki
from ellipstat import linmod, mlm, render
from ellipstat import statellipse as st

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def iris_he_scene(iris_grouped):
    fit, labels = mlm.manova_fit(iris_grouped)
    hyp = mlm.overall_hypothesis(iris_grouped.g)
    h, e = mlm.hypothesis_matrices(fit, hyp)
    ell_h, ell_e = mlm.he_ellipses(h, e, fit.df_e, coords=(0, 2),
                                   center=fit.y_mean,
                                   df_h=iris_grouped.g - 1)
    _, means, _ = st.group_means(iris_grouped)
    return render.build_he_plot(
        ell_h, ell_e, names=(iris_grouped.names[0], iris_grouped.names[2]),
        means=means[:, [0, 2]], labels=labels, title="iris HE")


def test_ellipse_path_square_vertices():
    # vertex set {(1,0), (0,1), (-1,0), (0,-1)}; order depends on the
    # (deterministic) tie-breaking of the equal radii
    circle = ge.from_moment(np.eye(2))
    pts = render._ellipse_paths([circle], 4)[0]
    got = sorted((round(p[0], 12), round(p[1], 12)) for p in pts)
    assert got == [(-1.0, -0.0), (-0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    scaled = ge.from_moment(np.diag([4.0, 1.0]))
    pts = render._ellipse_paths([scaled], 4)[0]
    assert pts == pytest.approx(np.array([[2.0, 0.0], [0.0, 1.0],
                                          [-2.0, 0.0], [0.0, -1.0]]),
                                abs=1e-12)


def test_ellipse_path_vertices_on_boundary():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2))
    e = ge.from_moment(a @ a.T + np.eye(2), rng.standard_normal(2))
    for v in render._ellipse_paths([e], 64)[0]:
        assert ge.contains(e, v, tol=1e-10) == "boundary"


def test_ellipse_path_rejects_unbounded():
    cyl = ge.from_precision(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        render._ellipse_paths([cyl], 64)


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


def _transform(scene):
    # the transform and viewport render_scene draws the scene with
    return render._scene_transform(scene,
                                   render._scene_parts(scene.layers))


def test_unit_circle_pixel_bounding_box():
    scene = render.Scene(
        layers=[render.EllipseLayer(ge.from_moment(np.eye(2)))],
        viewport=(-1.0, 1.0, -1.0, 1.0), size=(400, 400), aspect="equal")
    tr, viewport = _transform(scene)
    circle = ge.from_moment(np.eye(2))
    pts = tr.to_pixel(render._ellipse_paths([circle], 256)[0])
    # data square maps into the margins-adjusted box
    assert pts[:, 0].min() == pytest.approx(
        tr.to_pixel([[-1.0, 0.0]])[0][0], abs=1e-9)
    assert pts[:, 0].max() == pytest.approx(
        tr.to_pixel([[1.0, 0.0]])[0][0], abs=1e-9)
    # equal aspect: one data unit spans the same pixels both ways
    assert tr.sx == pytest.approx(tr.sy)


def test_nested_coverage_ellipses_nest(galton_sample):
    inner = st.data_ellipsoid(galton_sample, st.CoverageSpec.chisq(0.40))
    outer = st.data_ellipsoid(galton_sample, st.CoverageSpec.chisq(0.95))
    for v in render._ellipse_paths([inner], 64)[0]:
        assert ge.contains(outer, v) == "inside"


def test_golden_iris_he(iris_grouped):
    golden = os.path.join(GOLDEN_DIR, "iris_he.svg")
    svg = render.render_scene(iris_he_scene(iris_grouped))
    with open(golden, encoding="utf-8") as f:
        assert f.read() == svg


@pytest.mark.parametrize("argv, golden", [
    (["avp", "--data", "synthetic-coffee", "--response", "Heart",
      "--k", "Coffee"], "avp_coffee.svg"),
    (["meta", "--data", "berkey", "--model", "random"],
     "meta_berkey_random.svg"),
    (["meta", "--data", "berkey", "--model", "fixed"],
     "meta_berkey_fixed.svg"),
    (["data-ellipse", "--data", "galton"], "data_ellipse_galton.svg"),
    (["betaspace", "--data", "synthetic-coffee", "--response", "Heart"],
     "betaspace_coffee.svg"),
    (["heplot", "--data", "iris", "--group", "Species"], "heplot_iris.svg"),
    (["canonical", "--data", "iris", "--group", "Species"],
     "canonical_iris.svg"),
    (["kiss"], "kiss_default.svg"),
    (["ridge-trace", "--data", "longley", "--response", "Employed"],
     "ridge_trace_longley.svg"),
])
def test_golden_cli_svg(tmp_path, capsys, argv, golden):
    # every SVG-emitting subcommand; the goldens pin arrows, dots, open
    # circles, squares, text, dashed and solid polylines and polygons
    out = tmp_path / "out.svg"
    assert cli.main(argv + ["--svg", str(out)]) == 0
    capsys.readouterr()
    with open(os.path.join(GOLDEN_DIR, golden), encoding="utf-8") as f:
        assert f.read() == out.read_text(encoding="utf-8")


def test_figure_builders_produce_valid_scenes(iris_grouped, galton_sample,
                                              longley, berkey_studies):
    hdr, x, y = longley
    f1 = ki.QuadFamily([-2.0, 2.0], [[1.0, 0.5], [0.5, 1.5]])
    f2 = ki.QuadFamily([2.0, 6.0], [[1.5, -0.3], [-0.3, 1.0]])
    bbox = (-8.0, 8.0, -4.0, 12.0)
    locus = ki.trace_locus(f1, f2, bbox, 96)
    kisses = [ki.osculation_point(f1, f2, r, locus=locus) for r in (2, 3)]
    mean, cov = st.mean_cov(galton_sample)
    can = mlm.canonical(iris_grouped)
    ell_h, ell_e = mlm.canonical_he_ellipses(iris_grouped, can)
    scenes = [
        render.build_data_ellipse_panel(
            galton_sample, mean, st.regression_slopes(cov),
            [st.data_ellipsoid(galton_sample, st.CoverageSpec.chisq(lv))
             for lv in (0.40, 0.68, 0.95)]),
        render.build_scatterplot_matrix(
            iris_grouped, st.pairwise_data_ellipsoids(
                iris_grouped, st.CoverageSpec.chisq(0.68))),
        render.build_canonical_he(ell_h, ell_e, can, iris_grouped.names),
        render.build_ridge_trace(
            ki.ridge_trace(x, y, [0.0, 0.01, 0.08], coords=(1, 2)),
            names=("GNP", "Unemployed")),
        render.build_kiss_locus(f1, f2, bbox, locus=locus, kisses=kisses),
        render.build_meta_panel(berkey_studies, ki.meta_fixed(berkey_studies),
                                1.0),
    ]
    rng = np.random.default_rng(3)
    x2 = rng.standard_normal((30, 2)) @ (np.eye(2) + 0.5 * np.ones((2, 2)))
    y2 = x2 @ np.array([1.0, -0.5]) + rng.standard_normal(30)
    res = linmod.avp(x2, y2, 0)
    marg = np.column_stack([x2[:, 0] - x2[:, 0].mean(), y2 - y2.mean()])
    cond = np.column_stack([res["x_star"], res["y_star"]])
    half = st.CoverageSpec.chisq(0.50)
    scenes.append(render.build_avp_marginal_overlay(
        marg, cond, st.data_ellipsoid(st.Sample(marg), half),
        st.data_ellipsoid(st.Sample(cond), half), 1.0, res["slope"]))
    fit = linmod.ols_fit(x2, y2)
    ci = linmod.confidence_ellipsoid(fit, [1, 2], linmod.ConfidenceSpec("ci"))
    scenes.append(render.build_beta_space_panel(
        linmod.confidence_ellipsoid(fit, [1, 2]), ci,
        [st.univariate_shadow(ci, d) for d in np.eye(2)], ("b1", "b2")))
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


# ------------------------------------------- per-element reference renderer
# The renderer as it was when it formatted one element at a time: every
# number through render._fmt, one to_pixel per arrow, one bound per arrow,
# one path per ellipse and per bound. render_scene must reproduce its
# output byte for byte.

def _ref_ellipse_path(e, n):
    theta = 2.0 * np.pi * np.arange(n) / n
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    return e.center + (circle * e.radii) @ e.frame.T


def _ref_arrows(layer):
    """(tail, head) of each arrow of an ArrowLayer of one or k arrows."""
    return list(zip(np.reshape(layer.tail, (-1, 2)).tolist(),
                    np.reshape(layer.head, (-1, 2)).tolist()))


def _ref_layer_bounds(layer):
    if isinstance(layer, render.EllipseLayer):
        pts = _ref_ellipse_path(layer.ellipse, 32)
    elif isinstance(layer, (render.PointsLayer, render.PolylineLayer)):
        pts = np.asarray(layer.points, dtype=float)
    elif isinstance(layer, render.ArrowLayer):
        pts = np.array(_ref_arrows(layer), dtype=float).reshape(-1, 2)
    elif isinstance(layer, render.TextLayer):
        pts = np.array([layer.pos], dtype=float)
    else:
        return None
    if pts.size == 0:
        return None
    return (pts[:, 0].min(), pts[:, 0].max(), pts[:, 1].min(), pts[:, 1].max())


def _ref_auto_viewport(layers):
    bounds = [b for b in (_ref_layer_bounds(l) for l in layers)
              if b is not None]
    if not bounds:
        return (0.0, 1.0, 0.0, 1.0)
    xmin = min(b[0] for b in bounds)
    xmax = max(b[1] for b in bounds)
    ymin = min(b[2] for b in bounds)
    ymax = max(b[3] for b in bounds)
    dx = (xmax - xmin) or 1.0
    dy = (ymax - ymin) or 1.0
    pad = 0.05
    return (xmin - pad * dx, xmax + pad * dx, ymin - pad * dy,
            ymax + pad * dy)


def _ref_scene_transform(scene):
    margin = render.MARGIN
    viewport = scene.viewport or _ref_auto_viewport(scene.layers)
    xmin, xmax, ymin, ymax = (float(v) for v in viewport)
    w, h = scene.size
    avail_w = w - margin["left"] - margin["right"]
    avail_h = h - margin["top"] - margin["bottom"]
    if scene.aspect == "equal":
        s = min(avail_w / (xmax - xmin), avail_h / (ymax - ymin))
        extra_x = (avail_w / s - (xmax - xmin)) / 2.0
        extra_y = (avail_h / s - (ymax - ymin)) / 2.0
        xmin, xmax = xmin - extra_x, xmax + extra_x
        ymin, ymax = ymin - extra_y, ymax + extra_y
        sx = sy = s
    else:
        sx = avail_w / (xmax - xmin)
        sy = avail_h / (ymax - ymin)
    tr = render.Transform(x0=margin["left"] - sx * xmin,
                          y0=margin["bottom"] - sy * ymin,
                          sx=sx, sy=sy, height=float(h))
    return tr, (xmin, xmax, ymin, ymax)


def _ref_polyline_svg(pts_px, style, closed):
    fmt = render._fmt
    coords = " ".join(f"{fmt(p[0])},{fmt(p[1])}" for p in pts_px)
    tag = "polygon" if closed else "polyline"
    return f'<{tag} points="{coords}" {style.svg()}/>'


def _ref_render_points(layer, tr, out):
    fmt = render._fmt
    pts = tr.to_pixel(layer.points)
    r = layer.size
    for p in pts:
        if layer.marker == "square":
            out.append(f'<rect x="{fmt(p[0] - r)}" y="{fmt(p[1] - r)}" '
                       f'width="{fmt(2 * r)}" height="{fmt(2 * r)}" '
                       f'{layer.style.svg()}/>')
        elif layer.marker == "dot":
            st_ = render.Style(stroke="none", fill=layer.style.stroke,
                               opacity=layer.style.opacity)
            out.append(f'<circle cx="{fmt(p[0])}" cy="{fmt(p[1])}" '
                       f'r="{fmt(r)}" {st_.svg()}/>')
        else:
            out.append(f'<circle cx="{fmt(p[0])}" cy="{fmt(p[1])}" '
                       f'r="{fmt(r)}" {layer.style.svg()}/>')


def _ref_render_arrow(tail, head, style, tr, out):
    fmt = render._fmt
    tail, head = tr.to_pixel([tail, head])
    out.append(f'<line x1="{fmt(tail[0])}" y1="{fmt(tail[1])}" '
               f'x2="{fmt(head[0])}" y2="{fmt(head[1])}" '
               f'{style.svg()}/>')
    d = head - tail
    nrm = float(np.hypot(*d))
    if nrm > 1e-9:
        u = d / nrm
        left = head - 7.0 * u + 3.5 * np.array([-u[1], u[0]])
        right = head - 7.0 * u - 3.5 * np.array([-u[1], u[0]])
        tip = render.Style(stroke="none", fill=style.stroke,
                           opacity=style.opacity)
        pts = " ".join(f"{fmt(p[0])},{fmt(p[1])}"
                       for p in (head, left, right))
        out.append(f'<polygon points="{pts}" {tip.svg()}/>')


def reference_render_scene(scene):
    fmt = render._fmt
    tr, viewport = _ref_scene_transform(scene)
    w, h = scene.size
    out = ['<?xml version="1.0" encoding="UTF-8" standalone="no"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{fmt(w)}" height="{fmt(h)}" '
           f'viewBox="0 0 {fmt(w)} {fmt(h)}">',
           f'<rect x="0" y="0" width="{fmt(w)}" height="{fmt(h)}" '
           f'fill="#ffffff"/>']
    if scene.title:
        out.append(f'<text x="{fmt(w / 2)}" y="18" text-anchor="middle" '
                   f'font-family="monospace" font-size="13" fill="#000000">'
                   f'{render._escape(scene.title)}</text>')
    for layer in scene.layers:
        if isinstance(layer, render.AxisLayer):
            render._render_axis(layer, tr, viewport, out)
        elif isinstance(layer, render.EllipseLayer):
            pts = tr.to_pixel(_ref_ellipse_path(layer.ellipse, layer.n))
            out.append(_ref_polyline_svg(pts, layer.style, closed=True))
        elif isinstance(layer, render.PolylineLayer):
            pts = np.asarray(layer.points, dtype=float)
            if len(pts) >= 2:
                out.append(_ref_polyline_svg(tr.to_pixel(pts), layer.style,
                                             layer.closed))
        elif isinstance(layer, render.PointsLayer):
            _ref_render_points(layer, tr, out)
        elif isinstance(layer, render.ArrowLayer):
            for tail, head in _ref_arrows(layer):
                _ref_render_arrow(tail, head, layer.style, tr, out)
        elif isinstance(layer, render.TextLayer):
            p = tr.to_pixel([layer.pos])[0]
            out.append(f'<text x="{fmt(p[0])}" y="{fmt(p[1])}" '
                       f'text-anchor="{layer.anchor}" '
                       f'font-family="monospace" '
                       f'font-size="{fmt(layer.size)}" '
                       f'fill="{layer.style.fill}">'
                       f'{render._escape(layer.text)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# With this viewport, size and free aspect the transform is x + 54 and
# 436 - y exactly, so these coordinates land on -0.0000 or 0 pixels.
FREE_VIEWPORT = (0.0, 410.0, 0.0, 408.0)
NEAR_ZERO = [-54.00001, -54.00004, -54.0, 436.00002, 436.00004, 436.0]

_coord = hs.one_of(hs.floats(-80.0, 500.0, allow_nan=False),
                   hs.sampled_from(NEAR_ZERO))
_point = hs.tuples(_coord, _coord)
_styles = hs.builds(render.Style,
                    stroke=hs.sampled_from(["#000000", "#b2182b", "none"]),
                    width=hs.sampled_from([1.0, 0.7, 2.5, -0.0]),
                    fill=hs.sampled_from(["none", "#2166ac"]),
                    opacity=hs.sampled_from([1.0, 0.5, 0.25, 1e-6]),
                    dash=hs.sampled_from(["", "4,3", "2,3"]))
# one shared instance next to equal fresh ones, as the figure builders do
SHARED = render.Style(stroke="#888888", width=0.9)
_style = hs.one_of(_styles, hs.just(SHARED))


def _points(min_size, max_size):
    return hs.lists(_point, min_size=min_size, max_size=max_size).map(
        lambda pts: np.array(pts, dtype=float).reshape(-1, 2))


@hs.composite
def _ellipse_layer(draw):
    a = np.array(draw(hs.lists(hs.floats(-30.0, 30.0), min_size=4,
                               max_size=4))).reshape(2, 2)
    center = np.array(draw(_point))
    if draw(hs.booleans()):
        ell = ge.from_moment(a @ a.T + np.eye(2), center)
    else:                               # flat: radii (r, 0)
        ell = ge.from_moment(np.outer(a[0], a[0]), center)
    n = draw(hs.one_of(hs.integers(3, 40), hs.sampled_from([32, 64])))
    return render.EllipseLayer(ell, draw(_style), n=n)


@hs.composite
def _arrow_ends(draw):
    tail = draw(_point)
    kind = draw(hs.sampled_from(["any", "zero", "tiny"]))
    if kind == "zero":
        head = tail
    elif kind == "tiny":
        head = (tail[0] + 1e-12, tail[1])
    else:
        head = draw(_point)
    return tail, head


def _arrow():
    return hs.builds(lambda ends, style: render.ArrowLayer(*ends, style),
                     _arrow_ends(), _style)


@hs.composite
def _arrow_array(draw):
    # k arrows in one layer, as (k, 2) tail and head arrays
    ends = draw(hs.lists(_arrow_ends(), max_size=6))
    tails = np.array([t for t, _ in ends], dtype=float).reshape(-1, 2)
    heads = np.array([h for _, h in ends], dtype=float).reshape(-1, 2)
    return render.ArrowLayer(tails, heads, draw(_style))


_layer = hs.one_of(
    _ellipse_layer(),
    hs.builds(render.PointsLayer, _points(0, 6), _style,
              marker=hs.sampled_from(["circle", "dot", "square"]),
              size=hs.sampled_from([2.5, 3, 0.0, 1.2])),
    hs.builds(render.PolylineLayer, _points(0, 5), _style,
              closed=hs.booleans()),
    _arrow().map(lambda a: [a]),
    hs.lists(_arrow(), min_size=2, max_size=6),
    _arrow_array(),
    hs.lists(_ellipse_layer(), min_size=5, max_size=40),
    hs.builds(render.TextLayer, _point, hs.sampled_from(["a", "<b> & c"]),
              size=hs.sampled_from([9.0, 12])),
    hs.just(render.AxisLayer(label_x="x", label_y="y")),
)


@hs.composite
def _scenes(draw):
    layers = []
    for item in draw(hs.lists(_layer, max_size=12)):
        layers.extend(item if isinstance(item, list) else [item])
    if draw(hs.booleans()):
        return render.Scene(layers, viewport=FREE_VIEWPORT, aspect="free",
                            title=draw(hs.sampled_from(["", "t"])))
    return render.Scene(layers, size=draw(hs.sampled_from([(480, 480),
                                                            (640, 400)])),
                        aspect=draw(hs.sampled_from(["equal", "free"])))


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenes())
def test_render_scene_matches_per_element_renderer(scene):
    assert render.render_scene(scene) == reference_render_scene(scene)


def test_render_negative_zero_tokens():
    # tiny negative pixels print as 0.0000 in every emitter, as _fmt does
    x, y = NEAR_ZERO[0], NEAR_ZERO[3]
    shared = render.Style(stroke="#888888")
    scene = render.Scene([
        render.PointsLayer(np.array([[x, y]]), marker="circle"),
        render.PointsLayer(np.array([[x, y]]), marker="dot"),
        render.PolylineLayer(np.array([[x, y], [x, 0.0]])),
        render.ArrowLayer((x, y), (x, y), shared),
        render.ArrowLayer((x, y + 10.0), (x, y), shared),
        render.ArrowLayer((x, y), (x + 1e-12, y), render.Style(opacity=0.5)),
    ], viewport=FREE_VIEWPORT, aspect="free")
    svg = render.render_scene(scene)
    assert svg == reference_render_scene(scene)
    assert "-0.0000" not in svg
    assert svg.count('"0.0000"') >= 8
    # a tip only on the arrow longer than 1e-9 px
    assert svg.count("<line") == 3
    assert svg.count('<polygon points="0.0000,0.0000') == 1
