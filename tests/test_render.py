import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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


def _paths(ellipses, n):
    # the n-vertex polygons of ellipses, traced from an EllipseLayer's stacks
    layer = render.EllipseLayer(ellipses)
    return render._ellipse_paths(layer.centers, layer.frames, layer.radii, n)


def test_ellipse_path_square_vertices():
    # vertex set {(1,0), (0,1), (-1,0), (0,-1)}; order depends on the
    # (deterministic) tie-breaking of the equal radii
    circle = ge.from_moment(np.eye(2))
    pts = _paths([circle], 4)[0]
    got = sorted((round(p[0], 12), round(p[1], 12)) for p in pts)
    assert got == [(-1.0, -0.0), (-0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    scaled = ge.from_moment(np.diag([4.0, 1.0]))
    pts = _paths([scaled], 4)[0]
    assert pts == pytest.approx(np.array([[2.0, 0.0], [0.0, 1.0],
                                          [-2.0, 0.0], [0.0, -1.0]]),
                                abs=1e-12)


def test_ellipse_path_vertices_on_boundary():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2))
    e = ge.from_moment(a @ a.T + np.eye(2), rng.standard_normal(2))
    for v in _paths([e], 64)[0]:
        assert ge.contains(e, v, tol=1e-10) == "boundary"


def test_ellipse_path_rejects_unbounded():
    # an EllipseLayer refuses an unbounded ellipsoid, and a stack that
    # holds one of three dimensions
    cyl = ge.from_precision(np.diag([1.0, 0.0]))
    ball = ge.from_moment(np.eye(3))
    for ellipses in ([cyl], [ge.from_moment(np.eye(2)), ball]):
        with pytest.raises(ValueError):
            render.EllipseLayer(ellipses)


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
    layers = render._flat(scene.layers)
    return render._scene_transform(scene, layers,
                                   render._scene_parts(layers)[1])


def test_unit_circle_pixel_bounding_box():
    scene = render.Scene(
        layers=[render.EllipseLayer([ge.from_moment(np.eye(2))])],
        viewport=(-1.0, 1.0, -1.0, 1.0), size=(400, 400), aspect="equal")
    tr, viewport = _transform(scene)
    circle = ge.from_moment(np.eye(2))
    pts = tr.to_pixel(_paths([circle], 256)[0])
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
    for v in _paths([inner], 64)[0]:
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
        render.TextLayer((0.5, 0.5), ["a < b & c"],
                         render.Style(stroke="none", fill="#000000"))],
        viewport=(0.0, 1.0, 0.0, 1.0))
    svg = render.render_scene(scene)
    assert "a &lt; b &amp; c" in svg


# ------------------------------------------------------ bulk number format
# .4f rounds the exact v * 10^4 to even on a tie, so an odd multiple of
# 1/32 (an exact decimal tie at the fifth place) must print as Python
# prints it, as must the doubles on either side of each rounding boundary
# (m + 0.5) / 1e4, where fl(v * 1e4) can fall on the wrong side.
TIES = [0.03125, -2.96875, 54.03125]
BOUNDARIES = [(m + 0.5) / 1e4 for m in (0, 1, 2, 7, 12345, -3, -99999)]
NEIGHBOURS = [float(np.nextafter(b, side)) for b in BOUNDARIES
              for side in (-np.inf, np.inf)]
OUTSIDE = [-0.00004, 1e12, 2.0 ** 53, 1e300]


@hs.composite
def _near_boundary(draw):
    m = draw(hs.integers(-10 ** 13, 10 ** 13))
    x = (m + 0.5) / 1e4
    for _ in range(draw(hs.integers(0, 3))):
        x = np.nextafter(x, draw(hs.sampled_from([-np.inf, np.inf])))
    return float(x)


_numbers = hs.one_of(
    hs.floats(),                        # the whole line: nan, inf, subnormals
    hs.floats(-2e3, 2e3),
    hs.integers(-2 ** 40, 2 ** 40).map(lambda j: (2 * j + 1) / 32),
    _near_boundary(),
    hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2 ** 43 / 1e4,
                     -2 ** 43 / 1e4, np.nextafter(2 ** 43 / 1e4, 0)]))


@settings(max_examples=400, deadline=None, database=None)
@given(hs.lists(_numbers, max_size=40))
@example(TIES + NEIGHBOURS + OUTSIDE)
@example(TIES)
@example(NEIGHBOURS)
@example(OUTSIDE)
@example([-0.00004])
@example([])
def test_fmt_all_prints_what_fmt_prints(xs):
    assert _printed(render._fmt_all(np.array(xs, dtype=float))) == \
        [render._fmt(v) for v in xs] + [""]


def test_fmt_all_keeps_row_major_order():
    xs = np.array([[1.5, -2.0, 1e300], [np.nan, 0.03125, -0.00004]])
    assert _printed(render._fmt_all(xs)) == [
        "1.5000", "-2.0000", render._fmt(1e300), "nan", "0.0312", "0.0000",
        ""]


def _printed(table):
    # what each entry of a _fmt_all table prints: its bytes less the NULs
    return [e.replace(b"\0", b"").decode() for e in table.tolist()]


# ------------------------------------------- per-element reference renderer
# The renderer as it was when it formatted one element at a time: every
# number through render._fmt, one to_pixel per arrow and per axis tick,
# one bound per arrow, one path per ellipse and per bound. render_scene
# must reproduce its output byte for byte.

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
        pts = np.array([_ref_ellipse_path(e, 32)
                        for e in layer.ellipses]).reshape(-1, 2)
    elif isinstance(layer, (render.PointsLayer, render.PolylineLayer)):
        pts = np.asarray(layer.points, dtype=float)
    elif isinstance(layer, render.ArrowLayer):
        pts = np.array(_ref_arrows(layer), dtype=float).reshape(-1, 2)
    elif isinstance(layer, render.TextLayer):
        pts = np.array(layer.pos, dtype=float).reshape(-1, 2)
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


def _ref_layers(scene):
    """The scene's layers, each Interleave's members in its place."""
    return [m for entry in scene.layers
            for m in getattr(entry, "members", [entry])]


def _ref_scene_transform(scene):
    margin = render.MARGIN
    viewport = scene.viewport or _ref_auto_viewport(_ref_layers(scene))
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


def _ref_render_axis(layer, tr, viewport, out):
    fmt, escape, label = render._fmt, render._escape, render._tick_label
    xmin, xmax, ymin, ymax = viewport
    corners = tr.to_pixel([[xmin, ymin], [xmax, ymax]])
    (x0, y0), (x1, y1) = corners
    out.append(f'<rect x="{fmt(x0)}" y="{fmt(y1)}" '
               f'width="{fmt(x1 - x0)}" height="{fmt(y0 - y1)}" '
               f'{layer.style.svg()}/>')
    for t in render._nice_ticks(xmin, xmax, layer.ticks):
        px = tr.to_pixel([[t, ymin]])[0]
        out.append(f'<line x1="{fmt(px[0])}" y1="{fmt(px[1])}" '
                   f'x2="{fmt(px[0])}" y2="{fmt(px[1] + 5)}" '
                   f'{layer.style.svg()}/>')
        out.append(f'<text x="{fmt(px[0])}" y="{fmt(px[1] + 18)}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="10" fill="#333333">'
                   f'{escape(label(t))}</text>')
    for t in render._nice_ticks(ymin, ymax, layer.ticks):
        px = tr.to_pixel([[xmin, t]])[0]
        out.append(f'<line x1="{fmt(px[0])}" y1="{fmt(px[1])}" '
                   f'x2="{fmt(px[0] - 5)}" y2="{fmt(px[1])}" '
                   f'{layer.style.svg()}/>')
        out.append(f'<text x="{fmt(px[0] - 8)}" y="{fmt(px[1] + 3)}" '
                   f'text-anchor="end" font-family="monospace" '
                   f'font-size="10" fill="#333333">'
                   f'{escape(label(t))}</text>')
    if layer.label_x:
        cx = 0.5 * (x0 + x1)
        out.append(f'<text x="{fmt(cx)}" y="{fmt(y0 + 34)}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="12" fill="#000000">'
                   f'{escape(layer.label_x)}</text>')
    if layer.label_y:
        cy = 0.5 * (y0 + y1)
        out.append(f'<text x="{fmt(x0 - 38)}" y="{fmt(cy)}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="12" fill="#000000" '
                   f'transform="rotate(-90 {fmt(x0 - 38)} {fmt(cy)})">'
                   f'{escape(layer.label_y)}</text>')


def _ref_elements(layer, tr):
    """The lines of each element of an ellipse, arrow or text layer: one
    polygon per ellipse, a shaft and maybe a tip per arrow, one text per
    text."""
    fmt = render._fmt
    if isinstance(layer, render.EllipseLayer):
        return [[_ref_polyline_svg(tr.to_pixel(_ref_ellipse_path(e, layer.n)),
                                   layer.style, closed=True)]
                for e in layer.ellipses]
    if isinstance(layer, render.ArrowLayer):
        elements = []
        for tail, head in _ref_arrows(layer):
            elements.append([])
            _ref_render_arrow(tail, head, layer.style, tr, elements[-1])
        return elements
    elements = []
    for pos, text in zip(layer.pos, layer.texts):
        p = tr.to_pixel([pos])[0]
        elements.append([f'<text x="{fmt(p[0])}" y="{fmt(p[1])}" '
                         f'text-anchor="{layer.anchor}" '
                         f'font-family="monospace" '
                         f'font-size="{fmt(layer.size)}" '
                         f'fill="{layer.style.fill}">'
                         f'{render._escape(text)}</text>'])
    return elements


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
            _ref_render_axis(layer, tr, viewport, out)
        elif isinstance(layer, (render.EllipseLayer, render.ArrowLayer,
                                render.TextLayer)):
            for lines in _ref_elements(layer, tr):
                out.extend(lines)
        elif isinstance(layer, render.Interleave):
            # element 0 of each member, then element 1 of each, ...
            for turn in zip(*(_ref_elements(m, tr) for m in layer.members)):
                for lines in turn:
                    out.extend(lines)
        elif isinstance(layer, render.PolylineLayer):
            pts = np.asarray(layer.points, dtype=float)
            if len(pts) >= 2:
                out.append(_ref_polyline_svg(tr.to_pixel(pts), layer.style,
                                             layer.closed))
        elif isinstance(layer, render.PointsLayer):
            _ref_render_points(layer, tr, out)
    out.append("</svg>")
    return "\n".join(out) + "\n"


# With this viewport, size and free aspect the transform is x + 54 and
# 436 - y exactly, so these coordinates land on -0.0000 or 0 pixels.
FREE_VIEWPORT = (0.0, 410.0, 0.0, 408.0)
NEAR_ZERO = [-54.00001, -54.00004, -54.0, 436.00002, 436.00004, 436.0]

# Coordinates whose pixels, in the free viewport, are exact .4f ties
# (odd multiples of 1/32: x + 54 and 392 - y keep them so) or lie beyond
# the exact window of _fmt_all (|pixel| >= 2^43 / 1e4). FAR stays below
# 2^43, where an auto viewport's 5% pad of a lone point is still
# resolved.
PIXEL_TIES = [t - 54.0 for t in (0.03125, -2.96875, 54.03125, 100.46875)]
FAR = [1e9, -3e12, 5e12]

_coord = hs.one_of(hs.floats(-80.0, 500.0, allow_nan=False),
                   hs.sampled_from(NEAR_ZERO), hs.sampled_from(PIXEL_TIES),
                   hs.sampled_from(FAR))
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
def _wide_points(draw):
    # (n, 3) or (n, 4) points, as canonical's group means: only the first
    # two columns are drawn, and only they bound the viewport
    pts = draw(_points(0, 6))
    extra = draw(hs.lists(hs.floats(-1e4, 1e4), min_size=2 * len(pts),
                          max_size=2 * len(pts)))
    width = draw(hs.sampled_from([1, 2]))
    extra = np.array(extra).reshape(len(pts), 2)[:, :width]
    return np.column_stack([pts, extra])


@hs.composite
def _ellipse(draw):
    a = np.array(draw(hs.lists(hs.floats(-30.0, 30.0), min_size=4,
                               max_size=4))).reshape(2, 2)
    center = np.array(draw(_point))
    if draw(hs.booleans()):
        return ge.from_moment(a @ a.T + np.eye(2), center)
    return ge.from_moment(np.outer(a[0], a[0]), center)    # radii (r, 0)


@hs.composite
def _ellipse_layer(draw, max_size=1):
    # a stack of 0 to max_size ellipses in one layer
    ellipses = draw(hs.lists(_ellipse(), max_size=max_size))
    n = draw(hs.one_of(hs.integers(3, 40), hs.sampled_from([32, 64])))
    return render.EllipseLayer(ellipses, draw(_style), n=n)


@hs.composite
def _text_layer(draw):
    # a stack of 0 to 4 texts in one layer
    pos = draw(_points(0, 4))
    texts = draw(hs.lists(hs.sampled_from(["a", "<b> & c"]),
                          min_size=len(pos), max_size=len(pos)))
    return render.TextLayer(pos, texts, size=draw(hs.sampled_from([9.0, 12])),
                            anchor=draw(hs.sampled_from(["start", "middle"])))


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


@hs.composite
def _interleave(draw):
    # two or three layers of k elements each, drawn element by element:
    # arrows with ellipses, ellipses with texts, arrows with texts, or all
    k = draw(hs.integers(0, 8))
    arrows = draw(hs.lists(_arrow_ends(), min_size=k, max_size=k))
    pos = draw(_points(k, k))
    layers = {
        "arrow": render.ArrowLayer(
            np.array([t for t, _ in arrows], dtype=float).reshape(-1, 2),
            np.array([h for _, h in arrows], dtype=float).reshape(-1, 2),
            draw(_style)),
        "ellipse": render.EllipseLayer(
            draw(hs.lists(_ellipse(), min_size=k, max_size=k)), draw(_style),
            n=draw(hs.sampled_from([5, 32, 64]))),
        "text": render.TextLayer(pos, draw(hs.lists(
            hs.sampled_from(["a", "<b> & c"]), min_size=k, max_size=k)),
            size=draw(hs.sampled_from([9.0, 12])))}
    kinds = draw(hs.sampled_from([("arrow", "ellipse"), ("ellipse", "text"),
                                  ("arrow", "text"),
                                  ("arrow", "ellipse", "text")]))
    return render.Interleave(tuple(layers[kind]
                                   for kind in draw(hs.permutations(kinds))))


_layer = hs.one_of(
    _interleave(),
    _ellipse_layer(),
    _ellipse_layer(max_size=8),
    hs.builds(render.PointsLayer, hs.one_of(_points(0, 6), _wide_points()),
              _style, marker=hs.sampled_from(["circle", "dot", "square"]),
              size=hs.sampled_from([2.5, 3, 0.0, 1.2])),
    hs.builds(render.PolylineLayer, _points(0, 5), _style,
              closed=hs.booleans()),
    _arrow().map(lambda a: [a]),
    hs.lists(_arrow(), min_size=2, max_size=6),
    _arrow_array(),
    hs.lists(_ellipse_layer(), min_size=5, max_size=40),
    _text_layer(),
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


def test_render_scene_formats_once(monkeypatch):
    # every pixel coordinate of a scene goes through one _fmt_all call,
    # whatever its layers
    calls = []
    fmt_all = render._fmt_all

    def counted(values):
        calls.append(np.size(values))
        return fmt_all(values)

    monkeypatch.setattr(render, "_fmt_all", counted)
    e = ge.from_moment(np.array([[2.0, 0.3], [0.3, 1.0]]), [1.0, 2.0])
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    scene = render.Scene([
        render.AxisLayer(label_x="x", label_y="y"),
        render.EllipseLayer([e], n=16),
        render.EllipseLayer([e], n=32),
        render.PointsLayer(pts, marker="circle"),
        render.PointsLayer(pts, marker="dot"),
        render.PointsLayer(np.column_stack([pts, pts]), marker="square"),
        render.PolylineLayer(pts),
        render.ArrowLayer((0.0, 0.0), (1.0, 1.0)),
        render.ArrowLayer(pts, pts[::-1]),
        render.TextLayer((1.0, 1.0), ["t"]),
    ], title="all layers")
    svg = render.render_scene(scene)
    _, (xmin, xmax, ymin, ymax) = _transform(scene)
    nx = len(render._nice_ticks(xmin, xmax, 5))
    ny = len(render._nice_ticks(ymin, ymax, 5))
    # 48 ellipse vertices, 6 points, 2 polyline points, 1 text position,
    # 3 arrows' ends and 3 tips' barbs, two numbers each; then the axis:
    # its frame, 4 numbers per x tick, 5 per y tick, the labels' places
    assert calls == [2 * (48 + 6 + 2 + 1 + 6 + 6) + 4 + 4 * nx + 5 * ny + 4]
    assert svg == reference_render_scene(scene)


def _dense_coords(rng, n):
    # (n, 2) points over FREE_VIEWPORT and beyond, one coordinate in ten
    # swapped for a pixel tie or a pixel just below zero
    pts = rng.uniform(-80.0, 500.0, (n, 2))
    swap = rng.random((n, 2)) < 0.1
    pts[swap] = rng.choice(NEAR_ZERO + PIXEL_TIES, swap.sum())
    return pts


def _dense_layers(rng):
    shared = render.Style(stroke="#888888", width=0.6)
    arrow = render.Style(stroke="#1b7837", width=0.9, opacity=0.5)
    tails = _dense_coords(rng, 2000)
    heads = tails + rng.normal(0.0, 20.0, tails.shape)
    kind = rng.integers(0, 10, len(tails))
    heads[kind == 0] = tails[kind == 0]                 # no tip, and none
    heads[kind == 1] = tails[kind == 1] + [1e-12, 0.0]  # under 1e-9 px
    layers = [render.AxisLayer(label_x="x", label_y="y"),
              render.PointsLayer(_dense_coords(rng, 3000), shared),
              render.PointsLayer(_dense_coords(rng, 2500), shared,
                                 marker="dot", size=2.5),
              render.PointsLayer(_dense_coords(rng, 2500),
                                 render.Style(width=1.4), marker="square",
                                 size=3.5),
              render.ArrowLayer(tails, heads, arrow),
              render.PolylineLayer(_dense_coords(rng, 5000),
                                   render.Style(dash="4,3")),
              render.PolylineLayer(_dense_coords(rng, 1500), shared,
                                   closed=True),
              render.PolylineLayer(_dense_coords(rng, 1))]
    for center in _dense_coords(rng, 300):
        a = rng.normal(0.0, 10.0, (2, 2))
        ell = ge.from_moment(a @ a.T + np.eye(2), center)
        layers.append(render.EllipseLayer([ell], shared,
                                          n=int(rng.choice([64, 32, 7]))))
        if rng.random() < 0.2:
            tail = _dense_coords(rng, 1)[0]
            layers += [render.ArrowLayer(tail, center, arrow),
                       render.ArrowLayer(tail, tail, arrow),
                       render.TextLayer(center, ["e"])]
    # and stacks of many ellipses and texts in one layer each
    centers = _dense_coords(rng, 400)
    a = rng.normal(0.0, 10.0, (len(centers), 2, 2))
    layers += [render.EllipseLayer(ge.from_moments(
                   a @ a.swapaxes(1, 2) + np.eye(2), centers), shared, n=n)
               for n in (64, 5)]
    layers.append(render.TextLayer(centers, ["<e>"] * len(centers)))
    return layers


@pytest.mark.parametrize("seed", [0, 1])
def test_render_scene_matches_per_element_renderer_on_dense_scenes(seed):
    # thousands of elements per layer, across many _stamp blocks, with
    # pixel ties and pixels just below zero, and the same layers in an
    # auto viewport
    layers = _dense_layers(np.random.default_rng(seed))
    for scene in (render.Scene(layers, viewport=FREE_VIEWPORT,
                               aspect="free", title="dense"),
                  render.Scene(layers, size=(640, 400))):
        svg = render.render_scene(scene)
        want = reference_render_scene(scene)
        same = svg == want                  # no pytest diff of 2 MB texts
        assert same, next((a, b) for a, b in zip(svg.splitlines(),
                                                 want.splitlines()) if a != b)
    # and the background and the axis frame
    assert svg.count("<circle") == 5500 and svg.count("<rect") == 2 + 2500


def test_nice_ticks_end_when_a_step_no_longer_moves_them():
    # a tick step of 5 is below half an ulp (16) of 1e17: one tick, where
    # the loop used to append 1e17 for ever
    assert render._nice_ticks(1e17, 1.0000000000000002e17, 5) == [1e17]
    for lo, hi in [(1e17, 1e17 + 64), (-3.0, 7.0), (0.1, 0.3), (0.0, 1.0)]:
        ticks = render._nice_ticks(lo, hi, 5)
        assert ticks and all(a < b for a, b in zip(ticks, ticks[1:]))
        assert lo <= ticks[0] and ticks[-1] <= hi + 1e-9 * (hi - lo)
    assert render._nice_ticks(0.0, 1.0, 5) == [0.0, 0.2, 0.4,
                                                0.2 + 0.2 + 0.2, 0.8, 1.0]
