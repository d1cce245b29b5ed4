# Deterministic SVG emission. Scenes are ordered lists of data-space
# primitives (ellipses, points, polylines, arrows, text, axes) plus a
# viewport; rendering applies one affine data-to-pixel transform (y
# flipped) and writes plain SVG 1.1 text. Identical input produces
# byte-identical output. A scene's coordinates are transformed in bulk
# (its ellipses traced with one matmul per vertex count, all its arrows
# at once) with the same float operations as one element at a time, and
# formatted in one exact pass (_fmt_all) that prints what the per-number
# rule (_fmt) prints, so the output is unchanged. The scene builders draw
# the ellipsoids, intervals and quantiles they are given and compute no
# statistics; gellipsoid is the only package module imported here.

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gellipsoid as ge

# Default palette: hypothesis ellipses red, error ellipses blue (the HE
# convention used throughout), groups cycled blue/red/green/....
PALETTE = {
    "h": "#b2182b",
    "e": "#2166ac",
    "data": "#000000",
    "accent": "#1b7837",
    "muted": "#888888",
    "groups": ["#2166ac", "#b2182b", "#1b7837", "#e08214", "#7b3294",
               "#35978f"],
}


@dataclass(frozen=True)
class Style:
    stroke: str = "#000000"
    width: float = 1.0
    fill: str = "none"
    opacity: float = 1.0
    dash: str = ""

    def svg(self):
        parts = [f'stroke="{self.stroke}"',
                 f'stroke-width="{_fmt(self.width)}"',
                 f'fill="{self.fill}"']
        if self.opacity != 1.0:
            parts.append(f'opacity="{_fmt(self.opacity)}"')
        if self.dash:
            parts.append(f'stroke-dasharray="{self.dash}"')
        return " ".join(parts)


@dataclass(frozen=True)
class EllipseLayer:
    ellipse: ge.GEllipsoid
    style: Style = Style()
    n: int = 64


@dataclass(frozen=True)
class PointsLayer:
    points: np.ndarray
    style: Style = Style()
    marker: str = "circle"      # 'circle' | 'dot' | 'square'
    size: float = 3.0


@dataclass(frozen=True)
class PolylineLayer:
    points: np.ndarray
    style: Style = Style()
    closed: bool = False


@dataclass(frozen=True)
class ArrowLayer:
    """One arrow from tail to head, or k arrows from the rows of (k, 2)
    tail and head arrays, all in one style."""
    tail: tuple
    head: tuple
    style: Style = Style()


@dataclass(frozen=True)
class TextLayer:
    pos: tuple
    text: str
    style: Style = Style(stroke="none", fill="#000000")
    size: float = 11.0
    anchor: str = "start"


@dataclass(frozen=True)
class AxisLayer:
    style: Style = Style(stroke="#333333", width=1.0)
    ticks: int = 5
    label_x: str = ""
    label_y: str = ""


@dataclass(frozen=True)
class Scene:
    layers: list
    viewport: tuple = None      # (xmin, xmax, ymin, ymax); auto if None
    size: tuple = (480, 480)
    aspect: str = "equal"       # 'equal' | 'free'
    title: str = ""


def _fmt(v):
    s = f"{float(v):.4f}"
    return "0.0000" if s == "-0.0000" else s


# _DIGITS[:, m] is the four ASCII digits of m, "0000" to "9999", most
# significant first: the digit of place 10^p cycles through "0" to "9",
# each held for 10^p numbers (built in bytes, with no wide temporaries).
# _POW10 holds 10^1 to 10^9.
_DIGITS = np.array([np.repeat(np.tile(np.arange(48, 58, dtype=np.uint8),
                                      10 ** (3 - p)), 10 ** p)
                    for p in (3, 2, 1, 0)])
_POW10 = 10 ** np.arange(1, 10)


def _fmt_all(values):
    """_fmt of every element of a float array, in row-major order.

    f"{v:.4f}" is correctly rounded: it prints K / 10^4 for the integer K
    nearest the exact x = v 10^4, ties to even. 1e4 is a double, so
    y = fl(v * 1e4) is x rounded once. If |y| < 2^43 then |x| <= 2^43, and
    doubles below 2^43 are 2^-10 apart, so |y - x| <= 2^-11. Hence for
    k = rint(y) with |y - k| < 1/2 - 2^-10, |x - k| < 1/2: k is K, with no
    tie to break, and it is exact in int64. Such an element is written
    from k's digits: a sign only if k < 0 (a K of 0 prints 0.0000, _fmt's
    rule for -0.0000), k // 10^4, the point and the four digits of
    k % 10^4. Every other element (ties, |y| >= 2^43, nan, inf) is _fmt's.
    """
    v = np.ravel(values).astype(float, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        y = v * 1e4
        k = np.rint(y)
        exact = (np.abs(y - k) < 0.5 - 2.0 ** -10) & (np.abs(y) < 2.0 ** 43)
    odd = np.flatnonzero(~exact)
    k[odd] = 0.0
    a = k.astype(np.int64)
    neg = np.flatnonzero(a < 0)
    np.abs(a, out=a)
    q, r = np.divmod(a, 10000)
    # column j of chars is token j, right-aligned in nd + 7 chars: a space,
    # the sign's place, the nd digits of q, the point, the digits of r
    nd = int(np.searchsorted(_POW10, q.max(initial=0), "right")) + 1
    chars = np.empty((nd + 7, v.size), np.uint8)
    chars[:2] = 32
    chars[nd + 2] = 46
    np.take(_DIGITS, r, axis=1, out=chars[nd + 3:])
    rest, end = q, nd + 2
    while end > 6:                      # q's digits, four at a time
        np.take(_DIGITS, rest % 10000, axis=1, out=chars[end - 4:end])
        rest, end = rest // 10000, end - 4
    np.take(_DIGITS[6 - end:], rest, axis=1, out=chars[2:end])
    for p in range(1, nd):              # leading zeros become spaces
        np.copyto(chars[nd + 1 - p], 32, where=q < _POW10[p - 1])
    chars[nd - np.searchsorted(_POW10, q[neg], "right"), neg] = 45
    toks = chars.T.tobytes().decode("ascii").split()
    for i in odd.tolist():
        toks[i] = _fmt(v[i])
    return toks


def _escape(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _ellipse_paths(ellipses, n):
    """The n-vertex boundary polygons of bounded 2D ellipsoids, shape
    (k, n, 2), from one matmul."""
    if any(e.dim != 2 for e in ellipses):
        raise ValueError("ellipse paths are two-dimensional")
    radii = np.array([e.radii for e in ellipses]).reshape(-1, 1, 2)
    if np.isinf(radii).any():
        raise ValueError("cannot close the path of an unbounded ellipsoid")
    centers = np.array([e.center for e in ellipses]).reshape(-1, 1, 2)
    frames = np.array([e.frame for e in ellipses]).reshape(-1, 2, 2)
    theta = 2.0 * np.pi * np.arange(n) / n
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    return centers + (circle * radii) @ frames.swapaxes(1, 2)


def _scene_parts(layers):
    """What a scene draws all at once: its EllipseLayers and ArrowLayers,
    in order, the ends of the arrows as one array (tail, head, tail,
    head, ...) and the number of arrows in each ArrowLayer."""
    ellipses = [l for l in layers if isinstance(l, EllipseLayer)]
    arrows = [l for l in layers if isinstance(l, ArrowLayer)]
    if not arrows:
        return ellipses, arrows, np.empty((0, 2)), []
    tails = [np.reshape(a.tail, (-1, 2)) for a in arrows]
    heads = [np.reshape(a.head, (-1, 2)) for a in arrows]
    ends = np.concatenate([np.concatenate(tails, dtype=float),
                           np.concatenate(heads, dtype=float)], axis=1)
    return ellipses, arrows, ends.reshape(-1, 2), [len(t) for t in tails]


def _auto_viewport(layers, ellipses, arrow_ends):
    """The padded bounds of the points of every layer but the axes, an
    ellipse's being the vertices of its 32-vertex path."""
    pts = [_xy(l.points) for l in layers
           if isinstance(l, (PointsLayer, PolylineLayer))]
    pts += [np.array([l.pos], dtype=float) for l in layers
            if isinstance(l, TextLayer)]
    pts += [_ellipse_paths([l.ellipse for l in ellipses], 32).reshape(-1, 2),
            arrow_ends]
    pts = np.concatenate(pts)
    if pts.size == 0:
        return (0.0, 1.0, 0.0, 1.0)
    (xmin, ymin), (xmax, ymax) = pts.min(axis=0), pts.max(axis=0)
    dx = (xmax - xmin) or 1.0
    dy = (ymax - ymin) or 1.0
    pad = 0.05
    return (xmin - pad * dx, xmax + pad * dx, ymin - pad * dy,
            ymax + pad * dy)


@dataclass(frozen=True)
class Transform:
    """Affine data-to-pixel map with the y axis flipped."""
    x0: float
    y0: float
    sx: float
    sy: float
    height: float

    def to_pixel(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim < 2:
            pts = pts.reshape(1, -1)
        px = np.empty((len(pts), 2))
        px[:, 0] = self.x0 + self.sx * pts[:, 0]
        px[:, 1] = self.height - (self.y0 + self.sy * pts[:, 1])
        return px


MARGIN = {"left": 54.0, "right": 16.0, "top": 28.0, "bottom": 44.0}


def _scene_transform(scene, parts):
    ellipses, _, arrow_ends, _ = parts
    viewport = scene.viewport or _auto_viewport(scene.layers, ellipses,
                                                arrow_ends)
    xmin, xmax, ymin, ymax = (float(v) for v in viewport)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"viewport has no area: {viewport}")
    w, h = scene.size
    avail_w = w - MARGIN["left"] - MARGIN["right"]
    avail_h = h - MARGIN["top"] - MARGIN["bottom"]
    if scene.aspect == "equal":
        s = min(avail_w / (xmax - xmin), avail_h / (ymax - ymin))
        # widen the shorter viewport side so the drawing stays centered
        extra_x = (avail_w / s - (xmax - xmin)) / 2.0
        extra_y = (avail_h / s - (ymax - ymin)) / 2.0
        xmin, xmax = xmin - extra_x, xmax + extra_x
        ymin, ymax = ymin - extra_y, ymax + extra_y
        sx = sy = s
    else:
        sx = avail_w / (xmax - xmin)
        sy = avail_h / (ymax - ymin)
    tr = Transform(x0=MARGIN["left"] - sx * xmin,
                   y0=MARGIN["bottom"] - sy * ymin,
                   sx=sx, sy=sy, height=float(h))
    return tr, (xmin, xmax, ymin, ymax)


def _nice_ticks(lo, hi, n):
    span = hi - lo
    raw = span / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _tick_label(v):
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:g}"


def _render_axis(layer, tr, viewport, out):
    xmin, xmax, ymin, ymax = viewport
    corners = tr.to_pixel([[xmin, ymin], [xmax, ymax]])
    (x0, y0), (x1, y1) = corners
    out.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" '
               f'width="{_fmt(x1 - x0)}" height="{_fmt(y0 - y1)}" '
               f'{layer.style.svg()}/>')
    for t in _nice_ticks(xmin, xmax, layer.ticks):
        px = tr.to_pixel([[t, ymin]])[0]
        out.append(f'<line x1="{_fmt(px[0])}" y1="{_fmt(px[1])}" '
                   f'x2="{_fmt(px[0])}" y2="{_fmt(px[1] + 5)}" '
                   f'{layer.style.svg()}/>')
        out.append(f'<text x="{_fmt(px[0])}" y="{_fmt(px[1] + 18)}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="10" fill="#333333">'
                   f'{_escape(_tick_label(t))}</text>')
    for t in _nice_ticks(ymin, ymax, layer.ticks):
        px = tr.to_pixel([[xmin, t]])[0]
        out.append(f'<line x1="{_fmt(px[0])}" y1="{_fmt(px[1])}" '
                   f'x2="{_fmt(px[0] - 5)}" y2="{_fmt(px[1])}" '
                   f'{layer.style.svg()}/>')
        out.append(f'<text x="{_fmt(px[0] - 8)}" y="{_fmt(px[1] + 3)}" '
                   f'text-anchor="end" font-family="monospace" '
                   f'font-size="10" fill="#333333">'
                   f'{_escape(_tick_label(t))}</text>')
    if layer.label_x:
        cx = 0.5 * (x0 + x1)
        out.append(f'<text x="{_fmt(cx)}" y="{_fmt(y0 + 34)}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="12" fill="#000000">'
                   f'{_escape(layer.label_x)}</text>')
    if layer.label_y:
        cy = 0.5 * (y0 + y1)
        out.append(f'<text x="{_fmt(x0 - 38)}" y="{_fmt(cy)}" '
                   f'text-anchor="middle" font-family="monospace" '
                   f'font-size="12" fill="#000000" '
                   f'transform="rotate(-90 {_fmt(x0 - 38)} {_fmt(cy)})">'
                   f'{_escape(layer.label_y)}</text>')


def _polyline_svg(toks, style_svg, closed):
    it = iter(toks)
    coords = " ".join(map(",".join, zip(it, it)))
    tag = "polygon" if closed else "polyline"
    return f'<{tag} points="{coords}" {style_svg}/>'


def _filled(style):
    """The stroke colour as a fill: the style of dots and arrow tips."""
    return Style(stroke="none", fill=style.stroke, opacity=style.opacity)


def _style_svgs(layers):
    """Style.svg() of each distinct style instance of layers, by id."""
    styles = {id(layer.style): layer.style for layer in layers}
    return {key: style.svg() for key, style in styles.items()}


def _xy(points):
    """The two columns of a layer's points that are drawn, the first two."""
    pts = np.asarray(points, dtype=float)
    return (pts if pts.ndim == 2 else pts.reshape(1, -1))[:, :2]


def _layer_pixels(layers, ellipses, tr):
    """The pixel coordinates the layers print, but the arrows' and axes',
    in layer order as one array: the vertices of each ellipse (the
    ellipses of one vertex count traced with one matmul), the points of
    each polyline of two or more, each point layer's points (less the
    marker size for squares) and each text position. Also the number of
    rows each layer takes."""
    groups = {}
    for layer in ellipses:
        groups.setdefault(layer.n, []).append(layer.ellipse)
    paths = {n: iter(_ellipse_paths(group, n)) for n, group in groups.items()}
    blocks, squares = [], []
    for layer in layers:
        if isinstance(layer, EllipseLayer):
            pts = next(paths[layer.n])
        elif isinstance(layer, PolylineLayer):
            pts = _xy(layer.points)
            pts = pts if len(pts) >= 2 else pts[:0]
        elif isinstance(layer, PointsLayer):
            pts = _xy(layer.points)
            if layer.marker == "square":
                squares.append((len(blocks), layer.size))
        elif isinstance(layer, TextLayer):
            pts = _xy([layer.pos])
        else:
            pts = np.empty((0, 2))
        blocks.append(pts)
    rows = [len(pts) for pts in blocks]
    px = tr.to_pixel(np.concatenate(blocks) if blocks else np.empty((0, 2)))
    starts = list(itertools.accumulate(rows, initial=0))
    for i, r in squares:
        px[starts[i]:starts[i + 1]] -= r
    return px, rows


def _arrow_barbs(px):
    """The barbs of the arrows whose (tail, head, tail, head, ...) pixels
    are px, as (left, right) rows of the arrows longer than 1e-9 px, and
    which arrows those are. Elementwise the float operations of one arrow
    at a time."""
    tail, head = px[0::2], px[1::2]
    d = head - tail
    nrm = np.hypot(d[:, 0], d[:, 1])
    has_tip = nrm > 1e-9
    u = d[has_tip] / nrm[has_tip, None]
    normal = 3.5 * np.column_stack([-u[:, 1], u[:, 0]])
    back = head[has_tip] - 7.0 * u
    return np.column_stack([back + normal, back - normal]), has_tip


def render_scene(scene):
    """Render a scene to SVG 1.1 text (pure function of its input).

    Every pixel coordinate the layers print is formatted by one _fmt_all
    call: the layers' own, then the arrow ends, then the arrow barbs."""
    parts = _scene_parts(scene.layers)
    ellipses, arrows, ends, counts = parts
    tr, viewport = _scene_transform(scene, parts)
    px, rows = _layer_pixels(scene.layers, ellipses, tr)
    ends = tr.to_pixel(ends)
    barbs, has_tip = _arrow_barbs(ends)
    toks = _fmt_all(np.concatenate([px.ravel(), ends.ravel(),
                                    barbs.ravel()]))
    at = 2 * len(px)
    coords = iter(toks[at:at + 2 * len(ends)])
    it = iter(toks[at + 2 * len(ends):])
    barbs = zip(it, it, it, it)                    # left x, y, right x, y
    ends_tip = zip(coords, coords, coords, coords, has_tip.tolist())
    counts = iter(counts)
    styles = _style_svgs([l for l in scene.layers
                          if not isinstance(l, (AxisLayer, TextLayer))])
    tips = {key: _filled(style).svg()
            for key, style in {id(a.style): a.style for a in arrows}.items()}
    w, h = scene.size
    out = ['<?xml version="1.0" encoding="UTF-8" standalone="no"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{_fmt(w)}" height="{_fmt(h)}" '
           f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">',
           f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" '
           f'fill="#ffffff"/>']
    if scene.title:
        out.append(f'<text x="{_fmt(w / 2)}" y="18" text-anchor="middle" '
                   f'font-family="monospace" font-size="13" fill="#000000">'
                   f'{_escape(scene.title)}</text>')
    at = 0
    for layer, n in zip(scene.layers, rows):
        mine, at = toks[at:at + 2 * n], at + 2 * n
        if isinstance(layer, AxisLayer):
            _render_axis(layer, tr, viewport, out)
        elif isinstance(layer, EllipseLayer):
            out.append(_polyline_svg(mine, styles[id(layer.style)], True))
        elif isinstance(layer, PolylineLayer):
            if n:
                out.append(_polyline_svg(mine, styles[id(layer.style)],
                                         layer.closed))
        elif isinstance(layer, PointsLayer):
            r = layer.size
            if layer.marker == "square":
                rest = (f'" width="{_fmt(2 * r)}" height="{_fmt(2 * r)}" '
                        f'{styles[id(layer.style)]}/>')
                out.extend([f'<rect x="{x}" y="{y}{rest}'
                            for x, y in zip(mine[0::2], mine[1::2])])
                continue
            style_svg = (_filled(layer.style).svg() if layer.marker == "dot"
                         else styles[id(layer.style)])
            rest = f'" r="{_fmt(r)}" {style_svg}/>'
            out.extend([f'<circle cx="{x}" cy="{y}{rest}'
                        for x, y in zip(mine[0::2], mine[1::2])])
        elif isinstance(layer, ArrowLayer):
            shaft_svg, tip_svg = styles[id(layer.style)], tips[id(layer.style)]
            for x1, y1, x2, y2, tip in itertools.islice(ends_tip,
                                                        next(counts)):
                out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" '
                           f'y2="{y2}" {shaft_svg}/>')
                if tip:
                    lx, ly, rx, ry = next(barbs)
                    out.append(f'<polygon points="{x2},{y2} {lx},{ly} '
                               f'{rx},{ry}" {tip_svg}/>')
        elif isinstance(layer, TextLayer):
            x, y = mine
            out.append(f'<text x="{x}" y="{y}" '
                       f'text-anchor="{layer.anchor}" '
                       f'font-family="monospace" '
                       f'font-size="{_fmt(layer.size)}" '
                       f'fill="{layer.style.fill}">'
                       f'{_escape(layer.text)}</text>')
        else:
            raise ValueError(f"unknown layer type {type(layer).__name__}")
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ------------------------------------------------------------- builders

def _regression_segment(mean, slope, half_span_x):
    x0, x1 = mean[0] - half_span_x, mean[0] + half_span_x
    return np.array([[x0, mean[1] + slope * (x0 - mean[0])],
                     [x1, mean[1] + slope * (x1 - mean[0])]])


def build_data_ellipse_panel(sample, mean, slopes, ellipses, title=""):
    """Scatter with nested coverage ellipses and both regression lines.

    mean is the sample's mean, slopes its regression slopes of y on x and
    of x on y (statellipse.regression_slopes) and ellipses its data
    ellipses by increasing level; the regression segments span the major
    radius of the last one, and a nan slope draws no segment.
    """
    if sample.p != 2:
        raise ValueError("data ellipse panels are bivariate")
    layers = [AxisLayer(label_x=sample.names[0], label_y=sample.names[1])]
    layers.append(PointsLayer(sample.data,
                              Style(stroke=PALETTE["muted"], width=0.6),
                              marker="circle", size=2.0))
    for ell in ellipses:
        layers.append(EllipseLayer(ell, Style(stroke=PALETTE["e"],
                                              width=1.4)))
    span = ellipses[-1].radii[0]
    b_yx, b_xy = slopes              # x on y is drawn in the same panel
    if not np.isnan(b_yx):
        layers.append(PolylineLayer(_regression_segment(mean, b_yx, span),
                                    Style(stroke=PALETTE["data"], width=1.6)))
    if not np.isnan(b_xy):
        inv_seg = np.array([[mean[0] + b_xy * (-span), mean[1] - span],
                            [mean[0] + b_xy * span, mean[1] + span]])
        layers.append(PolylineLayer(inv_seg,
                                    Style(stroke=PALETTE["muted"], width=1.6)))
    layers.append(PointsLayer(np.array([mean]),
                              Style(stroke=PALETTE["data"]), marker="dot",
                              size=2.5))
    return Scene(layers=layers, title=title)


def _cell_map(data_bounds, cell_origin, cell_size):
    xmin, xmax, ymin, ymax = data_bounds
    sx = cell_size / (xmax - xmin)
    sy = cell_size / (ymax - ymin)
    mat = np.array([[sx, 0.0], [0.0, sy]])
    off = np.array([cell_origin[0] - sx * xmin, cell_origin[1] - sy * ymin])
    return mat, off


def build_scatterplot_matrix(gs, ellipses, show_points=True, title=""):
    """All pairwise panels with per-group coverage ellipses.

    ellipses[(j, i)] lists the groups' ellipses on columns j (x) and i
    (y), in group order (statellipse.pairwise_data_ellipsoids). Each cell
    maps its variable pair into a unit tile of a p x p grid; ellipses
    ride along through the same affine map.
    """
    p = gs.p
    pad = 0.08
    layers = [AxisLayer(ticks=0)]
    for i in range(p):          # row: y variable, drawn top to bottom
        for j in range(p):      # column: x variable
            origin = (j + pad, (p - 1 - i) + pad)
            size = 1.0 - 2 * pad
            frame = np.array([[origin[0], origin[1]],
                              [origin[0] + size, origin[1]],
                              [origin[0] + size, origin[1] + size],
                              [origin[0], origin[1] + size]])
            layers.append(PolylineLayer(frame, Style(stroke="#999999",
                                                     width=0.7),
                                        closed=True))
            if i == j:
                layers.append(TextLayer((origin[0] + size / 2,
                                         origin[1] + size / 2),
                                        gs.names[i],
                                        Style(stroke="none",
                                              fill="#000000"),
                                        size=12.0, anchor="middle"))
                continue
            cols = (j, i)
            lo = gs.data[:, cols].min(axis=0)
            hi = gs.data[:, cols].max(axis=0)
            span = np.where(hi > lo, hi - lo, 1.0)
            bounds = (lo[0] - 0.1 * span[0], hi[0] + 0.1 * span[0],
                      lo[1] - 0.1 * span[1], hi[1] + 0.1 * span[1])
            mat, off = _cell_map(bounds, origin, size)
            for gidx, (rows, ell) in enumerate(zip(gs.split(),
                                                   ellipses[cols])):
                color = PALETTE["groups"][gidx % len(PALETTE["groups"])]
                if show_points:
                    pts = rows[:, cols] @ mat.T + off
                    layers.append(PointsLayer(pts, Style(stroke=color,
                                                         width=0.5),
                                              marker="circle", size=1.2))
                moved = ge.linear_image(ell, mat)
                moved = ge.GEllipsoid(center=moved.center + off,
                                      frame=moved.frame, radii=moved.radii)
                layers.append(EllipseLayer(moved, Style(stroke=color,
                                                        width=1.1)))
    return Scene(layers=layers, viewport=(-0.05, p + 0.05, -0.05, p + 0.05),
                 size=(640, 640), title=title)


def build_he_plot(ell_h, ell_e, names=("y1", "y2"), means=None, labels=None,
                  title=""):
    """HE plot: the H ellipse over the E ellipse (mlm.he_ellipses), with
    the group means, given in the plot's two coordinates, as dots."""
    layers = [AxisLayer(label_x=names[0], label_y=names[1]),
              EllipseLayer(ell_e, Style(stroke=PALETTE["e"], width=1.6)),
              EllipseLayer(ell_h, Style(stroke=PALETTE["h"], width=1.6)),
              TextLayer(tuple(ell_e.center), "E",
                        Style(stroke="none", fill=PALETTE["e"]), size=12.0),
              TextLayer(tuple(ell_h.center + ell_h.radii[0] *
                              ell_h.frame[:, 0] * 0.7), "H",
                        Style(stroke="none", fill=PALETTE["h"]), size=12.0)]
    if means is not None:
        pts = np.asarray(means, dtype=float)
        layers.append(PointsLayer(pts, Style(stroke=PALETTE["data"]),
                                  marker="dot", size=2.5))
        if labels is not None:
            for lab, pt in zip(labels, pts):
                layers.append(TextLayer((pt[0], pt[1]), str(lab),
                                        Style(stroke="none",
                                              fill="#000000"), size=10.0))
    return Scene(layers=layers, title=title)


def build_canonical_he(ell_h, ell_e, can, names, vector_scale=None,
                       title=""):
    """HE plot in canonical score space plus structure-coefficient vectors.

    can is an mlm.canonical result, names its response names, and ell_h,
    ell_e its score-space H and E ellipses (mlm.canonical_he_ellipses).
    """
    if vector_scale is None:
        vector_scale = 0.9 * float(ell_h.radii[0])
    layers = [AxisLayer(label_x=f"canonical 1 ({can.percent[0]:.1f}%)",
                        label_y=f"canonical 2 ({can.percent[1]:.1f}%)"),
              EllipseLayer(ell_e, Style(stroke=PALETTE["e"], width=1.6)),
              EllipseLayer(ell_h, Style(stroke=PALETTE["h"], width=1.6))]
    layers.append(PointsLayer(can.group_means,
                              Style(stroke=PALETTE["data"]), marker="dot",
                              size=2.5))
    for lab, pt in zip(can.group_labels, can.group_means):
        layers.append(TextLayer((pt[0], pt[1]), str(lab),
                                Style(stroke="none", fill="#000000"),
                                size=10.0))
    for name, row in zip(names, can.structure):
        head = (vector_scale * row[0], vector_scale * row[1])
        layers.append(ArrowLayer((0.0, 0.0), head,
                                 Style(stroke=PALETTE["accent"],
                                       width=1.2)))
        layers.append(TextLayer(head, name,
                                Style(stroke="none",
                                      fill=PALETTE["accent"]), size=10.0))
    return Scene(layers=layers, title=title)


def build_ridge_trace(trace, names=("b1", "b2"), title=""):
    """Bivariate ridge path with a half-radius variance ellipse per k."""
    layers = [AxisLayer(label_x=names[0], label_y=names[1])]
    path = np.array([t["beta"] for t in trace])
    layers.append(PolylineLayer(path, Style(stroke=PALETTE["muted"],
                                            width=1.0, dash="4,3")))
    layers.append(PointsLayer(path, Style(stroke=PALETTE["data"]),
                              marker="dot", size=2.0))
    for t in trace:
        layers.append(EllipseLayer(t["ellipse"],
                                   Style(stroke=PALETTE["e"], width=1.2)))
        layers.append(TextLayer((t["beta"][0], t["beta"][1]),
                                f' k={t["k"]:g}',
                                Style(stroke="none", fill="#000000"),
                                size=9.0))
    return Scene(layers=layers, title=title)


def build_kiss_locus(f1, f2, bbox, locus, kisses=(), radii1=(1.0, 2.0, 3.0),
                     radii2=None, title=""):
    """Two concentric families, a traced locus, and marked kiss points.

    locus is a kissing.trace_locus result over bbox, the viewport; kisses
    are (point, f2 radius) pairs from kissing.osculation_point. The f2
    levels drawn default to 1 and the radii of the kisses.
    """
    layers = [AxisLayer()]
    layers.extend(EllipseLayer(e, Style(stroke=PALETTE["h"], width=1.1))
                  for e in f1.level_ellipses(radii1))
    if radii2 is None:
        radii2 = [1.0] + [float(r2) for _, r2 in kisses]
    layers.extend(EllipseLayer(e, Style(stroke=PALETTE["e"], width=1.1))
                  for e in f2.level_ellipses(radii2))
    for pl in locus["polylines"]:
        layers.append(PolylineLayer(pl, Style(stroke=PALETTE["data"],
                                              width=1.8)))
    if len(kisses):
        layers.append(PointsLayer(np.array([pt for pt, _ in kisses]),
                                  Style(stroke=PALETTE["data"], width=1.4),
                                  marker="square", size=3.5))
    layers.append(PointsLayer(np.array([f1.m, f2.m]),
                              Style(stroke=PALETTE["data"]), marker="dot",
                              size=2.5))
    return Scene(layers=layers, viewport=bbox, title=title)


def build_meta_panel(stack, pooled, c2, blups=None, delta=None,
                     names=("effect 1", "effect 2"), title=""):
    """Study estimates with covariance ellipses plus the pooled summary.

    stack is a kissing.StudyStack of two outcomes. Every ellipse is its
    covariance matrix scaled by c2, the squared radius (a chi-square_2
    quantile gives a coverage level). With blups/delta supplied (the
    stacked kissing.meta_blup result) it shows the random-effects view:
    BLUP points, their covariance ellipses, the between-study ellipse and
    arrows from each study estimate to its BLUP.
    """
    layers = [AxisLayer(label_x=names[0], label_y=names[1])]
    study = Style(stroke=PALETTE["h"], width=1.0, dash="5,3")
    layers.extend(EllipseLayer(e, study)
                  for e in ge.from_moments(c2 * stack.s_mat, stack.y))
    layers.append(PointsLayer(stack.y, Style(stroke=PALETTE["h"]),
                              marker="dot", size=2.5))
    for y, label in zip(stack.y, stack.labels):
        if label:
            layers.append(TextLayer((y[0], y[1]), " " + label,
                                    Style(stroke="none", fill="#000000"),
                                    size=9.0))
    beta = np.asarray(pooled["beta"], dtype=float)
    layers.append(EllipseLayer(ge.from_moment(c2 * pooled["cov"], beta),
                               Style(stroke=PALETTE["e"], width=1.8)))
    layers.append(PointsLayer(np.array([beta]),
                              Style(stroke=PALETTE["e"]), marker="dot",
                              size=3.0))
    if delta is not None:
        layers.append(EllipseLayer(ge.from_moment(c2 * delta, beta),
                                   Style(stroke=PALETTE["accent"],
                                         width=1.4, dash="2,3")))
    if blups is not None:
        arrow = Style(stroke=PALETTE["muted"], width=0.9)
        shrunk = Style(stroke=PALETTE["h"], width=1.0)
        betas = blups["beta"]
        for y, beta, e in zip(stack.y, betas,
                              ge.from_moments(c2 * blups["cov"], betas)):
            layers.append(ArrowLayer(y, beta, arrow))
            layers.append(EllipseLayer(e, shrunk))
    return Scene(layers=layers, title=title)


def build_avp_marginal_overlay(marg, cond, ell_m, ell_c, slope_m, slope_c,
                               names=("x", "y"), title=""):
    """Added-variable view with the mean-centered marginal view overlaid.

    marg holds the centered marginal (x_k, y) points, cond the residual
    points of linmod.avp, ell_m and ell_c their coverage ellipses and
    slope_m, slope_c their regression slopes. Open circles are the
    marginal points, filled dots the residual points, with arrows joining
    each pair.
    """
    layers = [AxisLayer(label_x=names[0] + " (centered | residual)",
                        label_y=names[1])]
    arrow = Style(stroke=PALETTE["muted"], width=0.7)
    layers.append(ArrowLayer(marg, cond, arrow))
    layers.append(PointsLayer(marg, Style(stroke=PALETTE["e"], width=0.8),
                              marker="circle", size=2.2))
    layers.append(PointsLayer(cond, Style(stroke=PALETTE["h"]),
                              marker="dot", size=2.2))
    layers.append(EllipseLayer(ell_m, Style(stroke=PALETTE["e"],
                                            width=1.5)))
    layers.append(EllipseLayer(ell_c, Style(stroke=PALETTE["h"],
                                            width=1.5)))
    span = float(ell_m.radii[0]) * 1.1
    layers.append(PolylineLayer(
        np.array([[-span, -span * slope_m], [span, span * slope_m]]),
        Style(stroke=PALETTE["e"], width=1.2, dash="5,3")))
    layers.append(PolylineLayer(
        np.array([[-span, -span * slope_c], [span, span * slope_c]]),
        Style(stroke=PALETTE["h"], width=1.2)))
    return Scene(layers=layers, title=title)


def build_beta_space_panel(joint, ci, shadows, names, title=""):
    """Joint confidence ellipse, CI-generating ellipse and axis shadows.

    joint and ci are linmod.confidence_ellipsoid results for one pair of
    coefficients; shadows are the two CI intervals, drawn as bars below
    and left of the joint ellipse.
    """
    layers = [AxisLayer(label_x=names[0], label_y=names[1]),
              EllipseLayer(joint, Style(stroke=PALETTE["accent"],
                                        width=1.6)),
              EllipseLayer(ci, Style(stroke=PALETTE["h"], width=1.6)),
              PointsLayer(np.array([joint.center]),
                          Style(stroke=PALETTE["data"]), marker="dot",
                          size=2.5),
              PointsLayer(np.array([[0.0, 0.0]]),
                          Style(stroke=PALETTE["data"], width=1.2),
                          marker="square", size=2.5)]
    (lo0, hi0), (lo1, hi1) = shadows
    base = joint.center - 1.25 * joint.radii[0]
    layers.append(PolylineLayer(np.array([[lo0, base[1]], [hi0, base[1]]]),
                                Style(stroke=PALETTE["h"], width=3.0)))
    layers.append(PolylineLayer(np.array([[base[0], lo1], [base[0], hi1]]),
                                Style(stroke=PALETTE["h"], width=3.0)))
    return Scene(layers=layers, title=title)
