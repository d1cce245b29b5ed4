# Deterministic SVG emission. Scenes are ordered lists of layers, each a
# stack of data-space primitives of one kind in one style (ellipses,
# points, polylines, arrows, text, axes), plus a viewport; rendering
# applies one affine data-to-pixel transform (y flipped) and writes plain
# SVG 1.1 text. Identical input produces byte-identical output. A scene's
# coordinates are transformed in bulk (its ellipses traced with one
# matmul, all its arrows at once) with the same float operations as one
# element at a time, and formatted in one exact pass (_fmt_all) that
# prints what the per-number rule (_fmt) prints, so the output is
# unchanged. _stamp then lays each kind's rows out as byte fields and
# literals and drops the padding (no Python step per point or arrow, one
# string per ellipse or polyline). The scene builders draw the
# ellipsoids, intervals and quantiles they are given and compute no
# statistics; gellipsoid is the only package module imported here.

import itertools
import math
import re
from typing import NamedTuple

import numpy as np

from . import gellipsoid as ge

# Drawing rules, relative to the axis span or in pixels: a tick may stand
# TICK_END past the span's end, a tick within TICK_ZERO of zero is drawn
# as 0, and an arrow shorter than ARROW_TIP_PX pixels gets no barbs.
TICK_END = 1e-9
TICK_ZERO = 1e-12
ARROW_TIP_PX = 1e-9
# the vertices of each drawn ellipse's polygon
ELLIPSE_VERTICES = 64

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


class Style(NamedTuple):
    stroke: str = "#000000"
    width: float = 1.0
    fill: str = "none"
    dash: str = ""

    def svg(self):
        parts = [f'stroke="{self.stroke}"',
                 f'stroke-width="{_fmt(self.width)}"',
                 f'fill="{self.fill}"']
        if self.dash:
            parts.append(f'stroke-dasharray="{self.dash}"')
        return " ".join(parts)


class EllipseLayer(ge.nk.Frozen):
    """k >= 0 bounded 2D ellipsoids in one style, each drawn as the
    polygon of ELLIPSE_VERTICES points on its boundary. Construction
    stacks their centres (k, 2), frames (k, 2, 2) and radii (k, 2),
    once."""

    def __init__(self, ellipses, style=Style()):
        for e in ellipses:
            if e.dim != 2:
                raise ValueError("ellipse paths are two-dimensional")
            if e.radii[0] == np.inf:    # radii descend, inf the largest
                raise ValueError("cannot close the path of an unbounded "
                                 "ellipsoid")
        self.__dict__.update(
            ellipses=ellipses, style=style,
            centers=np.array([e.center for e in ellipses]).reshape(-1, 2),
            frames=np.array([e.frame for e in ellipses]).reshape(-1, 2, 2),
            radii=np.array([e.radii for e in ellipses]).reshape(-1, 2))


class PointsLayer(ge.nk.Frozen):
    """points (k, 2) drawn as markers 'circle', 'dot' or 'square'."""

    def __init__(self, points, style=Style(), marker="circle", size=3.0):
        self.__dict__.update(points=points, style=style, marker=marker,
                             size=size)


class PolylineLayer(ge.nk.Frozen):
    def __init__(self, points, style=Style(), closed=False):
        self.__dict__.update(points=points, style=style, closed=closed)


class ArrowLayer(ge.nk.Frozen):
    """One arrow from tail to head, or k arrows from the rows of (k, 2)
    tail and head arrays, all in one style."""

    def __init__(self, tail, head, style=Style()):
        self.__dict__.update(tail=tail, head=head, style=style)


class TextLayer(ge.nk.Frozen):
    """k texts in one style, text i at row i of the (k, 2) positions pos
    (one (x, y) pair for one text)."""

    def __init__(self, pos, texts, style=Style(stroke="none", fill="#000000"),
                 size=11.0, anchor="start"):
        self.__dict__.update(
            pos=np.asarray(pos, dtype=float).reshape(len(texts), 2),
            texts=texts, style=style, size=size, anchor=anchor)


class Interleave(ge.nk.Frozen):
    """Arrow, ellipse and text layers of k elements each, drawn element by
    element: element 0 of each member in order, then element 1 of each,
    and so on. In all else the members are drawn as if one followed the
    other in the scene."""

    def __init__(self, members):
        if not all(isinstance(m, (ArrowLayer, EllipseLayer, TextLayer))
                   for m in members):
            raise ValueError("an Interleave holds arrow, ellipse and text "
                             "layers")
        self.__dict__.update(members=members)


class AxisLayer(ge.nk.Frozen):
    style = Style(stroke="#333333", width=1.0)

    def __init__(self, ticks=5, label_x="", label_y=""):
        self.__dict__.update(ticks=ticks, label_x=label_x, label_y=label_y)


class Scene(NamedTuple):
    layers: list                # layers and Interleaves, drawn in order
    viewport: tuple = None      # (xmin, xmax, ymin, ymax); auto if None
    size: tuple = (480, 480)    # drawn at one scale on both axes
    title: str = ""


def _fmt(v):
    s = f"{float(v):.4f}"
    return "0.0000" if s == "-0.0000" else s


# The digits of m = 0 to 9999 in four places: _DIGITS[k][m] is the last
# k of "0000" to "9999" (the digit of place 10^p cycles through "0" to
# "9", each held for 10^p numbers) and _LEAD[k][m] the same with m's
# leading zeros NUL (the places of 7 are "\0\0\0" "7", of 0 "\0\0\0" "0"),
# as bytes items.
_DIGITS = np.column_stack([np.repeat(np.tile(np.arange(48, 58,
                                                       dtype=np.uint8),
                                             10 ** (3 - p)), 10 ** p)
                           for p in (3, 2, 1, 0)])
_LEAD = _DIGITS.copy()
for _p in (1, 2, 3):
    _LEAD[:10 ** _p, 3 - _p] = 0
_DIGITS, _LEAD = ({k: np.ascontiguousarray(t[:, 4 - k:]).view(f"S{k}").ravel()
                   for k in (1, 2, 3, 4)} for t in (_DIGITS, _LEAD))
_BLOCK = 4096       # rows per _stamp block


def _fmt_all(values):
    """_fmt of every element of a float array, in row-major order, as a
    table (see _table): entry i prints element i once its NULs are
    dropped, and one more entry, all NULs, prints nothing.

    f"{v:.4f}" is correctly rounded: it prints K / 10^4 for the integer K
    nearest the exact x = v 10^4, ties to even. 1e4 is a double, so
    y = fl(v * 1e4) is x rounded once. If |y| < 2^43 then |x| <= 2^43, and
    doubles below 2^43 are 2^-10 apart, so |y - x| <= 2^-11. Hence for
    k = rint(y) with |y - k| < 1/2 - 2^-10, |x - k| < 1/2: k is K, with no
    tie to break. As |k| < 2^43, floor(|k| / 10^4) is |k| // 10^4 exactly
    (the quotient's rounding error is below 10^-4). Such an element is
    written from k's digits: a sign only if k < 0 (a K of 0 prints 0.0000,
    _fmt's rule for -0.0000), |k| // 10^4, the point and the four digits
    of |k| % 10^4. Every other element (ties, |y| >= 2^43, nan, inf) is
    _fmt's. An entry is a sign's place (if any element has a sign), the nd
    places of the longest |k| // 10^4 in groups of four (leading zeros
    NUL), the point and the four digits, widened by NULs to hold the
    longest of _fmt's strings.
    """
    v = np.ravel(values).astype(float, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        y = v * 1e4
        k = np.rint(y)
        exact = np.abs(y) < 2.0 ** 43
        y -= k
        exact &= np.abs(y, out=y) < 0.5 - 2.0 ** -10
    odd = np.flatnonzero(~exact)
    k[odd] = 0.0
    neg = k < 0
    np.abs(k, out=k)
    q = np.floor(k / 1e4)               # exact, as k is an integer < 2^43
    k -= q * 1e4
    q, r = q.astype(np.intp), k.astype(np.intp)
    nd = len(str(q.max(initial=0)))
    toks = [_fmt(x).encode() for x in v[odd].tolist()]
    groups = [(f"g{j}", min(4, nd - 4 * j)) for j in range((nd + 3) // 4)]
    width = nd + 5 + bool(neg.any())
    pad = max([width, *map(len, toks)]) - width
    table = np.zeros(v.size + 1, [("pad", f"S{pad}")] * bool(pad) +
                     [("sign", "S1")] * (width > nd + 5) +
                     [(g, f"S{n}") for g, n in groups[::-1]] +
                     [("point", "S1"), ("frac", "S4")])
    entries = table[:-1]
    if width > nd + 5:
        entries["sign"][neg] = b"-"
    rest = q
    for j, (g, n) in enumerate(groups):
        part = rest % 10000 if j + 1 < len(groups) else rest
        entries[g] = _LEAD[n][part]
        if j:                           # no digit above the first
            entries[g][q < 10 ** (4 * j)] = b""
        if j + 1 < len(groups):         # zeros below a higher digit
            high = q >= 10 ** (4 * j + 4)
            entries[g][high] = _DIGITS[n][part[high]]
            rest = rest // 10000
    entries["point"] = b"."
    entries["frac"] = _DIGITS[4][r]
    table = table.view(f"S{width + pad}")
    table[odd] = toks
    return table


def _table(texts):
    """Strings as a table: the UTF-8 of each, NUL-padded to one width, as
    the bytes items of an array."""
    raw = [t.encode() for t in texts]
    return np.array(raw, dtype=f"S{max(map(len, raw), default=0) or 1}")


def _stamp(parts, cuts):
    """The text of rows made of parts side by side, cut into pieces.

    A part is a literal (bytes), the same in every row, or (table, codes):
    row i takes entry codes[i] of the table. The NULs that pad table
    entries are dropped. Piece j is the text of rows cuts[j] to
    cuts[j + 1] - 1, as a list of strings: the rows are stamped _BLOCK at
    a time, so that the buffers of one block are small and reused."""
    rows = np.dtype([(f"f{j}", f"S{len(p)}" if isinstance(p, bytes)
                      else p[0].dtype) for j, p in enumerate(parts)])
    pieces = [[] for _ in cuts[1:]]
    first = 0
    for lo in range(0, cuts[-1], _BLOCK):
        hi = min(lo + _BLOCK, cuts[-1])
        block = np.empty(hi - lo, rows)
        for name, part in zip(rows.names, parts):
            block[name] = (part if isinstance(part, bytes)
                           else part[0][part[1][lo:hi]])
        text = block.tobytes()
        while cuts[first + 1] <= lo:
            first += 1
        for j in range(first, len(pieces)):
            if cuts[j] >= hi:
                break
            i, k = max(cuts[j], lo) - lo, min(cuts[j + 1], hi) - lo
            pieces[j].append(text[i * rows.itemsize:k * rows.itemsize]
                             .replace(b"\0", b"").decode())
    return pieces


def _tokens(fields, idx):
    """The strings of entries idx of a _fmt_all table."""
    return (b" ".join(fields[idx].tolist()).replace(b"\0", b"").decode()
            .split())


# Tables of byte literals: the two before a marker's x and y (circle,
# square), and the literals of an arrow's tip, blank (entry 0) for an
# arrow without one.
_HEADS = _table(['<circle cx="', '<rect x="']), _table(['" cy="', '" y="'])
_TIPPED = {text: _table(["", text]) for text in ('<polygon points="', ",",
                                                 " ")}


# the characters XML 1.0 forbids: the C0 controls but tab, LF and CR, the
# surrogates and U+FFFE, U+FFFF
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text):
    """text as SVG character data: &, < and > escaped, and each character
    XML forbids written as U+FFFD."""
    return _NOT_XML.sub("\ufffd", str(text).replace("&", "&amp;")
                        .replace("<", "&lt;").replace(">", "&gt;"))


def _ellipse_paths(centers, frames, radii, n):
    """The n-vertex boundary polygons, shape (k, n, 2), of the ellipses of
    centres (k, 2), frames (k, 2, 2) and radii (k, 2), from one matmul."""
    theta = 2.0 * np.pi * np.arange(n) / n
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    return centers[:, None] + (circle * radii[:, None]) @ frames.swapaxes(1, 2)


def _trace(layers, n):
    """The vertices of the n-vertex polygons of each EllipseLayer of a
    non-empty list, (k n, 2) per layer, from one _ellipse_paths of their
    stacks joined."""
    paths = _ellipse_paths(*(np.concatenate([getattr(l, name) for l in layers])
                             for name in ("centers", "frames", "radii")), n)
    return np.split(paths.reshape(-1, 2),
                    np.cumsum([n * len(l.centers) for l in layers])[:-1])


def _scene_parts(layers):
    """What a scene draws all at once: its ArrowLayers, in order, the ends
    of the arrows as one array (tail, head, tail, head, ...) and the number
    of arrows in each ArrowLayer."""
    arrows = [l for l in layers if isinstance(l, ArrowLayer)]
    if not arrows:
        return arrows, np.empty((0, 2)), []
    tails = [np.reshape(a.tail, (-1, 2)) for a in arrows]
    heads = [np.reshape(a.head, (-1, 2)) for a in arrows]
    ends = np.concatenate([np.concatenate(tails, dtype=float),
                           np.concatenate(heads, dtype=float)], axis=1)
    return arrows, ends.reshape(-1, 2), [len(t) for t in tails]


def _auto_viewport(layers, arrow_ends):
    """The padded bounds of the points of every layer but the axes, an
    ellipse's being the vertices of its 32-vertex path."""
    pts = [_xy(l.points) for l in layers
           if isinstance(l, (PointsLayer, PolylineLayer))]
    pts += [l.pos for l in layers if isinstance(l, TextLayer)] + [arrow_ends]
    ellipses = [l for l in layers if isinstance(l, EllipseLayer)]
    pts += _trace(ellipses, 32) if ellipses else []
    pts = np.concatenate(pts)
    if pts.size == 0:
        return (0.0, 1.0, 0.0, 1.0)
    xs, ys = pts[:, 0], pts[:, 1]       # a column at a time is ~10x faster
    xmin, xmax, ymin, ymax = xs.min(), xs.max(), ys.min(), ys.max()
    dx = (xmax - xmin) or 1.0
    dy = (ymax - ymin) or 1.0
    pad = 0.05
    return (xmin - pad * dx, xmax + pad * dx, ymin - pad * dy,
            ymax + pad * dy)


class Transform(NamedTuple):
    """Affine data-to-pixel map with the y axis flipped, one scale for
    both axes."""
    x0: float
    y0: float
    scale: float
    height: float

    def to_pixel(self, pts):
        pts = np.asarray(pts, dtype=float)
        if pts.ndim < 2:
            pts = pts.reshape(1, -1)
        px = np.empty((len(pts), 2))
        px[:, 0] = self.x0 + self.scale * pts[:, 0]
        px[:, 1] = self.height - (self.y0 + self.scale * pts[:, 1])
        return px


MARGIN = {"left": 54.0, "right": 16.0, "top": 28.0, "bottom": 44.0}


def _flat(entries):
    """The layers of a scene's entries, each Interleave's members in its
    place."""
    return [m for e in entries
            for m in (e.members if isinstance(e, Interleave) else (e,))]


def _scene_transform(scene, layers, arrow_ends):
    viewport = scene.viewport or _auto_viewport(layers, arrow_ends)
    xmin, xmax, ymin, ymax = (float(v) for v in viewport)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"viewport has no area: {viewport}")
    w, h = scene.size
    avail_w = w - MARGIN["left"] - MARGIN["right"]
    avail_h = h - MARGIN["top"] - MARGIN["bottom"]
    s = min(avail_w / (xmax - xmin), avail_h / (ymax - ymin))
    # widen the shorter viewport side so the drawing stays centered
    extra_x = (avail_w / s - (xmax - xmin)) / 2.0
    extra_y = (avail_h / s - (ymax - ymin)) / 2.0
    xmin, xmax = xmin - extra_x, xmax + extra_x
    ymin, ymax = ymin - extra_y, ymax + extra_y
    if not math.isfinite(s):
        raise ge.nk.InputError(f"viewport {viewport} is too small to draw: "
                               "its pixel scale overflows")
    tr = Transform(x0=MARGIN["left"] - s * xmin,
                   y0=MARGIN["bottom"] - s * ymin,
                   scale=s, height=float(h))
    return tr, (xmin, xmax, ymin, ymax)


def _nice_ticks(lo, hi, n):
    span = hi - lo
    raw = span / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks = []
    last, t = -math.inf, math.ceil(lo / step) * step
    # a step below half an ulp of t no longer moves it: stop there
    while last < t <= hi + TICK_END * span:
        ticks.append(0.0 if abs(t) < TICK_ZERO * span else t)
        last, t = t, t + step
    return ticks


def _tick_label(v):
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:g}"


def _axis_numbers(layer, tr, viewport):
    """The x and y ticks of an axis layer and the pixel numbers it prints:
    the frame's x, y, width and height, per x tick its x, y, y + 5 and
    y + 18, per y tick its x, y, x - 5, x - 8 and y + 3, then the x
    label's x and y and the y label's x and y."""
    xmin, xmax, ymin, ymax = viewport
    xt = _nice_ticks(xmin, xmax, layer.ticks)
    yt = _nice_ticks(ymin, ymax, layer.ticks)
    (x0, y0), (x1, y1), *px = tr.to_pixel(
        [[xmin, ymin], [xmax, ymax], *([t, ymin] for t in xt),
         *([xmin, t] for t in yt)]).tolist()
    nums = [x0, y1, x1 - x0, y0 - y1]
    for x, y in px[:len(xt)]:
        nums += [x, y, y + 5, y + 18]
    for x, y in px[len(xt):]:
        nums += [x, y, x - 5, x - 8, y + 3]
    return xt, yt, nums + [0.5 * (x0 + x1), y0 + 34, x0 - 38,
                           0.5 * (y0 + y1)]


def _axis_lines(layer, xt, yt, toks):
    """The elements of an axis layer, its numbers printed as toks (in
    _axis_numbers' order)."""
    style = layer.style.svg()
    x, y, w, h = toks[:4]
    out = [f'<rect x="{x}" y="{y}" width="{w}" height="{h}" {style}/>\n']
    at = 4
    for t in xt:
        x, y, y5, y18 = toks[at:at + 4]
        at += 4
        out.append(f'<line x1="{x}" y1="{y}" x2="{x}" y2="{y5}" {style}/>\n')
        out.append(f'<text x="{x}" y="{y18}" text-anchor="middle" '
                   f'font-family="monospace" font-size="10" fill="#333333">'
                   f'{_escape(_tick_label(t))}</text>\n')
    for t in yt:
        x, y, x5, x8, y3 = toks[at:at + 5]
        at += 5
        out.append(f'<line x1="{x}" y1="{y}" x2="{x5}" y2="{y}" {style}/>\n')
        out.append(f'<text x="{x8}" y="{y3}" text-anchor="end" '
                   f'font-family="monospace" font-size="10" fill="#333333">'
                   f'{_escape(_tick_label(t))}</text>\n')
    cx, y34, x38, cy = toks[at:]
    if layer.label_x:
        out.append(f'<text x="{cx}" y="{y34}" text-anchor="middle" '
                   f'font-family="monospace" font-size="12" fill="#000000">'
                   f'{_escape(layer.label_x)}</text>\n')
    if layer.label_y:
        out.append(f'<text x="{x38}" y="{cy}" text-anchor="middle" '
                   f'font-family="monospace" font-size="12" fill="#000000" '
                   f'transform="rotate(-90 {x38} {cy})">'
                   f'{_escape(layer.label_y)}</text>\n')
    return out


def _filled(style):
    """The stroke colour as a fill: the style of dots and arrow tips."""
    return Style(stroke="none", fill=style.stroke)


def _xy(points):
    """The two columns of a layer's points that are drawn, the first two."""
    pts = np.asarray(points, dtype=float)
    return (pts if pts.ndim == 2 else pts.reshape(1, -1))[:, :2]


def _layer_pixels(layers, tr):
    """The pixel coordinates the layers print, but the arrows' and axes',
    in layer order as one array: the vertices of each ellipse (all
    traced with one matmul), the points of each polyline of two or more,
    each point layer's points (less the marker size for squares) and each
    text position. Also where each layer's rows start, and where the last
    ends."""
    ellipses = [l for l in layers if isinstance(l, EllipseLayer)]
    paths = iter(_trace(ellipses, ELLIPSE_VERTICES) if ellipses else ())
    blocks, squares = [], []
    for layer in layers:
        if isinstance(layer, EllipseLayer):
            pts = next(paths)
        elif isinstance(layer, PolylineLayer):
            pts = _xy(layer.points)
            pts = pts if len(pts) >= 2 else pts[:0]
        elif isinstance(layer, PointsLayer):
            pts = _xy(layer.points)
            if layer.marker == "square":
                squares.append((len(blocks), layer.size))
        elif isinstance(layer, TextLayer):
            pts = layer.pos
        else:
            pts = np.empty((0, 2))
        blocks.append(pts)
    px = tr.to_pixel(np.concatenate(blocks) if blocks else np.empty((0, 2)))
    starts = list(itertools.accumulate(map(len, blocks), initial=0))
    for i, r in squares:
        px[starts[i]:starts[i + 1]] -= r
    return px, starts


def _arrow_barbs(px):
    """The barbs of the arrows whose (tail, head, tail, head, ...) pixels
    are px, as (left, right) rows of the arrows longer than ARROW_TIP_PX,
    and which arrows those are. Elementwise the float operations of one
    arrow at a time."""
    tail, head = px[0::2], px[1::2]
    d = head - tail
    nrm = np.hypot(d[:, 0], d[:, 1])
    has_tip = nrm > ARROW_TIP_PX
    u = d[has_tip] / nrm[has_tip, None]
    normal = 3.5 * np.column_stack([-u[:, 1], u[:, 0]])
    back = head[has_tip] - 7.0 * u
    return np.column_stack([back + normal, back - normal]), has_tip


def _rows_of(layers, starts, kind):
    """Which layers are of a kind, their pixel rows, in order, and the cuts
    between layers in that list of rows."""
    picked = [i for i, l in enumerate(layers) if isinstance(l, kind)]
    cuts = [0, *itertools.accumulate(starts[i + 1] - starts[i]
                                     for i in picked)]
    shift = np.array([starts[i] - c for i, c in zip(picked, cuts)], np.intp)
    return picked, np.arange(cuts[-1]) + np.repeat(shift, np.diff(cuts)), cuts


def _path_lines(layers, starts, styles, fields):
    """The elements of each EllipseLayer and PolylineLayer, one list per
    layer: a polygon per ellipse, and one element for a polyline of two or
    more points, its vertices' x and y joined by "," and " "."""
    picked, at, cuts = _rows_of(layers, starts, (EllipseLayer, PolylineLayer))
    drawn = [layers[i] for i in picked]
    sizes = [[ELLIPSE_VERTICES] * len(l.centers)
             if isinstance(l, EllipseLayer)
             else [rows] * bool(rows) for l, rows in zip(drawn, np.diff(cuts))]
    coords = iter(_stamp([(fields, 2 * at), b",", (fields, 2 * at + 1), b" "],
                         [0, *itertools.accumulate(itertools.chain(*sizes))]))
    tags = ["polyline" if isinstance(l, PolylineLayer) and not l.closed
            else "polygon" for l in drawn]
    return [[f'<{tag} points="{"".join(c)[:-1]}" {styles[id(l.style)]}/>\n'
             for c in itertools.islice(coords, len(size))]
            for l, tag, size in zip(drawn, tags, sizes)]


def _text_lines(layers, starts, fields):
    """The elements of each TextLayer, one list per layer."""
    picked, at, _ = _rows_of(layers, starts, TextLayer)
    pos = iter(_tokens(fields, np.column_stack([2 * at, 2 * at + 1]).ravel()))
    out = []
    for l in (layers[i] for i in picked):
        attrs = (f'text-anchor="{l.anchor}" font-family="monospace" '
                 f'font-size="{_fmt(l.size)}" fill="{l.style.fill}">')
        out.append([f'<text x="{next(pos)}" y="{next(pos)}" {attrs}'
                    f'{_escape(text)}</text>\n' for text in l.texts])
    return out


def _marker_lines(layers, starts, styles, fields):
    """The elements of each PointsLayer, one string per layer."""
    picked, at, cuts = _rows_of(layers, starts, PointsLayer)
    squares, tails = [], []
    for layer in (layers[i] for i in picked):
        r = layer.size
        squares.append(layer.marker == "square")
        if squares[-1]:
            tails.append(f'" width="{_fmt(2 * r)}" height="{_fmt(2 * r)}" '
                         f'{styles[id(layer.style)]}/>\n')
            continue
        style_svg = (_filled(layer.style).svg() if layer.marker == "dot"
                     else styles[id(layer.style)])
        tails.append(f'" r="{_fmt(r)}" {style_svg}/>\n')
    code = np.repeat(np.arange(len(picked)), np.diff(cuts))
    x, y = (head[np.array(squares, dtype=np.intp)] for head in _HEADS)
    return _stamp([(x, code), (fields, 2 * at), (y, code),
                   (fields, 2 * at + 1), (_table(tails), code)], cuts)


def _arrow_lines(arrows, counts, has_tip, styles, fields, at, apart):
    """The elements of each ArrowLayer, one list of strings per layer, one
    string per arrow for the layers whose ids are in apart: per arrow its
    shaft and its tip, a polygon blanked out of the arrows without one.
    Fields at, at + 1, ... are the arrows' ends (x1, y1, x2, y2 per arrow)
    and after them the tips' barbs (left x, y, right x, y)."""
    if not arrows:
        return []
    k = len(has_tip)
    blank = len(fields) - 1             # the entry that prints nothing
    end = at + np.arange(4 * k).reshape(k, 4)
    barb = np.full((k, 4), blank)
    barb[has_tip] = at + 4 * k + np.arange(4 * has_tip.sum()).reshape(-1, 4)
    head = np.where(has_tip[:, None], end[:, 2:], blank)
    tip = has_tip.astype(np.intp)
    kinds = {id(a.style): a.style for a in arrows}
    index = {key: i for i, key in enumerate(kinds)}
    code = np.repeat(np.array([index[id(a.style)] for a in arrows],
                              dtype=np.intp), counts)
    shafts = _table([f'" {styles[key]}/>\n' for key in kinds])
    tails = _table([*(f'" {_filled(style).svg()}/>\n'
                      for style in kinds.values()), ""])
    comma, space = (_TIPPED[","], tip), (_TIPPED[" "], tip)
    sizes = [[1] * c if id(a) in apart else [c]
             for a, c in zip(arrows, counts)]
    pieces = iter(_stamp([b'<line x1="', (fields, end[:, 0]), b'" y1="',
                   (fields, end[:, 1]), b'" x2="', (fields, end[:, 2]),
                   b'" y2="', (fields, end[:, 3]), (shafts, code),
                   (_TIPPED['<polygon points="'], tip), (fields, head[:, 0]),
                   comma, (fields, head[:, 1]), space, (fields, barb[:, 0]),
                   comma, (fields, barb[:, 1]), space, (fields, barb[:, 2]),
                   comma, (fields, barb[:, 3]),
                   (tails, np.where(has_tip, code, len(kinds)))],
                  [0, *itertools.accumulate(itertools.chain(*sizes))]))
    return [[*map("".join, itertools.islice(pieces, len(size)))]
            if id(a) in apart else next(pieces)
            for a, size in zip(arrows, sizes)]


def render_scene(scene):
    """Render a scene to SVG 1.1 text (pure function of its input).

    Every pixel number the layers print is formatted by one _fmt_all
    call: the layers' own, then the arrow ends, the arrow barbs and the
    axes' numbers. The ellipses and polylines, the points and the arrows
    are each stamped from those fields and byte literals in one _stamp.
    An Interleave's members take their elements' strings in turns."""
    layers = _flat(scene.layers)
    arrows, ends, counts = _scene_parts(layers)
    tr, viewport = _scene_transform(scene, layers, ends)
    px, starts = _layer_pixels(layers, tr)
    ends = tr.to_pixel(ends)
    barbs, has_tip = _arrow_barbs(ends)
    axes = [l for l in layers if isinstance(l, AxisLayer)]
    numbers = [_axis_numbers(l, tr, viewport) for l in axes]
    fields = _fmt_all(np.concatenate([px.ravel(), ends.ravel(),
                                      barbs.ravel(),
                                      *(nums for *_, nums in numbers)]))
    styles = {id(l.style): l.style for l in layers     # each one once
              if not isinstance(l, (AxisLayer, TextLayer))}
    styles = {key: style.svg() for key, style in styles.items()}
    toks = iter(_tokens(fields, np.arange(
        2 * len(px) + ends.size + barbs.size, len(fields) - 1)))
    paths = iter(_path_lines(layers, starts, styles, fields))
    lines = {AxisLayer: iter([_axis_lines(l, xt, yt, list(
                 itertools.islice(toks, len(nums))))
                 for l, (xt, yt, nums) in zip(axes, numbers)]),
             EllipseLayer: paths, PolylineLayer: paths,
             PointsLayer: iter(_marker_lines(layers, starts, styles, fields)),
             ArrowLayer: iter(_arrow_lines(
                 arrows, counts, has_tip, styles, fields, 2 * len(px),
                 {id(m) for e in scene.layers if isinstance(e, Interleave)
                  for m in e.members})),
             TextLayer: iter(_text_lines(layers, starts, fields))}
    w, h = scene.size
    out = ['<?xml version="1.0" encoding="UTF-8" standalone="no"?>\n',
           f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{_fmt(w)}" height="{_fmt(h)}" '
           f'viewBox="0 0 {_fmt(w)} {_fmt(h)}">\n',
           f'<rect x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}" '
           f'fill="#ffffff"/>\n']
    if scene.title:
        out.append(f'<text x="{_fmt(w / 2)}" y="18" text-anchor="middle" '
                   f'font-family="monospace" font-size="13" fill="#000000">'
                   f'{_escape(scene.title)}</text>\n')
    for entry in scene.layers:
        if isinstance(entry, Interleave):
            out.extend(itertools.chain(*zip(*(next(lines[type(m)])
                                              for m in entry.members),
                                            strict=True)))
        elif type(entry) in lines:
            out.extend(next(lines[type(entry)]))
        else:
            raise ValueError(f"unknown layer type {type(entry).__name__}")
    out.append("</svg>\n")
    return "".join(out)


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
    layers.append(EllipseLayer(ellipses, Style(stroke=PALETTE["e"],
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


def build_scatterplot_matrix(gs, ellipses, title=""):
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
                layers.append(TextLayer(np.add(origin, size / 2),
                                        [gs.names[i]], size=12.0,
                                        anchor="middle"))
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
                pts = rows[:, cols] @ mat.T + off
                layers.append(PointsLayer(pts, Style(stroke=color, width=0.5),
                                          marker="circle", size=1.2))
                moved = ge.linear_image(ell, mat)
                moved = ge.GEllipsoid(center=moved.center + off,
                                      frame=moved.frame, radii=moved.radii)
                layers.append(EllipseLayer([moved], Style(stroke=color,
                                                          width=1.1)))
    return Scene(layers=layers, viewport=(-0.05, p + 0.05, -0.05, p + 0.05),
                 size=(640, 640), title=title)


def build_he_plot(ell_h, ell_e, names=("y1", "y2"), means=None, labels=None,
                  title=""):
    """HE plot: the H ellipse over the E ellipse (mlm.he_ellipses), with
    the group means, given in the plot's two coordinates, as dots."""
    layers = [AxisLayer(label_x=names[0], label_y=names[1]),
              EllipseLayer([ell_e], Style(stroke=PALETTE["e"], width=1.6)),
              EllipseLayer([ell_h], Style(stroke=PALETTE["h"], width=1.6)),
              TextLayer(ell_e.center, ["E"],
                        Style(stroke="none", fill=PALETTE["e"]), size=12.0),
              TextLayer(ell_h.center + ell_h.radii[0] *
                        ell_h.frame[:, 0] * 0.7, ["H"],
                        Style(stroke="none", fill=PALETTE["h"]), size=12.0)]
    if means is not None:
        pts = np.asarray(means, dtype=float)
        layers.append(PointsLayer(pts, Style(stroke=PALETTE["data"]),
                                  marker="dot", size=2.5))
        if labels is not None:
            layers.append(TextLayer(pts[:, :2], [str(lab) for lab in labels],
                                    size=10.0))
    return Scene(layers=layers, title=title)


def build_canonical_he(ell_h, ell_e, can, names, title=""):
    """HE plot in canonical score space plus structure-coefficient vectors.

    can is an mlm.canonical result, names its response names, and ell_h,
    ell_e its score-space H and E ellipses (mlm.canonical_he_ellipses).
    The structure vectors reach 0.9 of the H ellipse's major radius.
    """
    layers = [AxisLayer(label_x=f"canonical 1 ({can.percent[0]:.1f}%)",
                        label_y=f"canonical 2 ({can.percent[1]:.1f}%)"),
              EllipseLayer([ell_e], Style(stroke=PALETTE["e"], width=1.6)),
              EllipseLayer([ell_h], Style(stroke=PALETTE["h"], width=1.6))]
    layers.append(PointsLayer(can.group_means,
                              Style(stroke=PALETTE["data"]), marker="dot",
                              size=2.5))
    layers.append(TextLayer(can.group_means[:, :2],
                            [str(lab) for lab in can.group_labels], size=10.0))
    heads = 0.9 * float(ell_h.radii[0]) * can.structure[:, :2]
    layers.append(Interleave((
        ArrowLayer(np.zeros_like(heads), heads,
                   Style(stroke=PALETTE["accent"], width=1.2)),
        TextLayer(heads, list(names),
                  Style(stroke="none", fill=PALETTE["accent"]), size=10.0))))
    return Scene(layers=layers, title=title)


def build_ridge_trace(trace, names=("b1", "b2"), title=""):
    """Bivariate ridge path with a half-radius variance ellipse per k."""
    layers = [AxisLayer(label_x=names[0], label_y=names[1])]
    path = np.array([t["beta"] for t in trace])
    layers.append(PolylineLayer(path, Style(stroke=PALETTE["muted"],
                                            width=1.0, dash="4,3")))
    layers.append(PointsLayer(path, Style(stroke=PALETTE["data"]),
                              marker="dot", size=2.0))
    layers.append(Interleave((
        EllipseLayer([t["ellipse"] for t in trace],
                     Style(stroke=PALETTE["e"], width=1.2)),
        TextLayer([t["beta"][:2] for t in trace],
                  [f' k={t["k"]:g}' for t in trace], size=9.0))))
    return Scene(layers=layers, title=title)


def build_kiss_locus(f1, f2, bbox, locus, kisses=(), title=""):
    """Two concentric families, a traced locus, and marked kiss points.

    locus is a kissing.trace_locus result over bbox, the viewport; kisses
    are (point, f2 radius) pairs from kissing.osculation_point. The f1
    levels drawn are 1, 2 and 3, the f2 levels 1 and the radii of the
    kisses.
    """
    layers = [AxisLayer()]
    layers.append(EllipseLayer(f1.level_ellipses((1.0, 2.0, 3.0)),
                               Style(stroke=PALETTE["h"], width=1.1)))
    radii2 = [1.0] + [float(r2) for _, r2 in kisses]
    layers.append(EllipseLayer(f2.level_ellipses(radii2),
                               Style(stroke=PALETTE["e"], width=1.1)))
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
    layers.append(EllipseLayer(ge.from_moments(c2 * stack.s_mat, stack.y),
                               study))
    layers.append(PointsLayer(stack.y, Style(stroke=PALETTE["h"]),
                              marker="dot", size=2.5))
    named = [i for i, label in enumerate(stack.labels) if label]
    layers.append(TextLayer(stack.y[named],
                            [" " + stack.labels[i] for i in named], size=9.0))
    beta = np.asarray(pooled["beta"], dtype=float)
    layers.append(EllipseLayer([ge.from_moment(c2 * pooled["cov"], beta)],
                               Style(stroke=PALETTE["e"], width=1.8)))
    layers.append(PointsLayer(np.array([beta]),
                              Style(stroke=PALETTE["e"]), marker="dot",
                              size=3.0))
    if delta is not None:
        layers.append(EllipseLayer([ge.from_moment(c2 * delta, beta)],
                                   Style(stroke=PALETTE["accent"],
                                         width=1.4, dash="2,3")))
    if blups is not None:
        arrow = Style(stroke=PALETTE["muted"], width=0.9)
        shrunk = Style(stroke=PALETTE["h"], width=1.0)
        betas = blups["beta"]
        layers.append(Interleave((
            ArrowLayer(stack.y, betas, arrow),
            EllipseLayer(ge.from_moments(c2 * blups["cov"], betas), shrunk))))
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
    layers.append(EllipseLayer([ell_m], Style(stroke=PALETTE["e"],
                                              width=1.5)))
    layers.append(EllipseLayer([ell_c], Style(stroke=PALETTE["h"],
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
              EllipseLayer([joint], Style(stroke=PALETTE["accent"],
                                          width=1.6)),
              EllipseLayer([ci], Style(stroke=PALETTE["h"], width=1.6)),
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
