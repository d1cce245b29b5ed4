import csv
import io

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as hs

from ellipstat import cli, datasets, kissing as ki
from ellipstat import numkernel as nk
from ellipstat import statellipse as st

import strategies
from conftest import random_pd

DEMO_F1 = ki.QuadFamily([-2.0, 2.0], [[1.0, 0.5], [0.5, 1.5]])
DEMO_F2 = ki.QuadFamily([2.0, 6.0], [[1.5, -0.3], [-0.3, 1.0]])
DEMO_BBOX = (-8.0, 8.0, -4.0, 12.0)


def test_cross_field_zero_at_centers():
    assert ki.cross_field(DEMO_F1, DEMO_F2, DEMO_F1.m) == 0.0
    assert ki.cross_field(DEMO_F1, DEMO_F2, DEMO_F2.m) == 0.0


def test_cross_field_sign_for_circles():
    f1 = ki.QuadFamily([0.0, 0.0], np.eye(2))
    f2 = ki.QuadFamily([2.0, 0.0], np.eye(2))
    above = ki.cross_field(f1, f2, [1.0, 0.5])
    below = ki.cross_field(f1, f2, [1.0, -0.5])
    on = ki.cross_field(f1, f2, [0.7, 0.0])
    assert above * below < 0
    assert on == pytest.approx(0.0, abs=1e-12)


def test_cross_field_zero_iff_gradients_parallel():
    rng = np.random.default_rng(1)
    locus = ki.trace_locus(DEMO_F1, DEMO_F2, DEMO_BBOX, 64)
    pts = np.vstack(locus["polylines"])
    for x in pts[:: max(1, len(pts) // 50)]:
        g1 = DEMO_F1.gradient(x)
        g2 = DEMO_F2.gradient(x)
        cross = g1[0] * g2[1] - g1[1] * g2[0]
        assert abs(cross) < 1e-6 * (np.linalg.norm(g1)
                                    * np.linalg.norm(g2) + 1e-12)
    # off-locus points have nonparallel gradients
    for _ in range(20):
        x = rng.uniform((-8, -4), (8, 12))
        if abs(ki.cross_field(DEMO_F1, DEMO_F2, x)) < 0.5:
            continue
        g1 = DEMO_F1.gradient(x)
        g2 = DEMO_F2.gradient(x)
        assert abs(g1[0] * g2[1] - g1[1] * g2[0]) > 1e-3


def test_trace_locus_demo_quality():
    locus = ki.trace_locus(DEMO_F1, DEMO_F2, DEMO_BBOX, 96)
    verts = np.vstack(locus["polylines"])
    resid = np.abs(ki.cross_field(DEMO_F1, DEMO_F2, verts)).max()
    assert resid <= 1e-6 * locus["scale"]
    cell = max(DEMO_BBOX[1] - DEMO_BBOX[0],
               DEMO_BBOX[3] - DEMO_BBOX[2]) / 96 * np.sqrt(2)
    assert np.linalg.norm(verts - DEMO_F1.m, axis=1).min() < cell
    assert np.linalg.norm(verts - DEMO_F2.m, axis=1).min() < cell


def test_trace_locus_equal_shapes_collapses_to_line():
    f2 = ki.QuadFamily([2.0, 6.0], DEMO_F1.a_mat)
    locus = ki.trace_locus(DEMO_F1, f2, DEMO_BBOX, 96)
    verts = np.vstack(locus["polylines"])
    d = (f2.m - DEMO_F1.m) / np.linalg.norm(f2.m - DEMO_F1.m)
    normal = np.array([-d[1], d[0]])
    assert np.abs((verts - DEMO_F1.m) @ normal).max() < 1e-6


def test_trace_locus_resolution_floor_and_empty():
    with pytest.raises(ValueError):
        ki.trace_locus(DEMO_F1, DEMO_F2, DEMO_BBOX, 16)
    far = (100.0, 101.0, 100.0, 101.0)
    locus = ki.trace_locus(DEMO_F1, DEMO_F2, far, 32)
    assert locus["polylines"] == []


# ---------------------------------------------------- tracer vs reference

def _reference_trace_locus(f1, f2, bbox, resolution, newton_steps=3):
    # The cell-by-cell tracer with quadratic, distance-tolerance chaining
    # and per-vertex Newton steps that trace_locus replaced: slow, kept as
    # the reference for polyline structure, order and direction.
    xmin, xmax, ymin, ymax = bbox
    xs = np.linspace(xmin, xmax, resolution + 1)
    ys = np.linspace(ymin, ymax, resolution + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.stack([gx, gy], axis=-1)
    vals = ki.cross_field(f1, f2, grid)
    if np.abs(vals).max() == 0.0:
        return []
    segments = []
    for i in range(resolution):
        for j in range(resolution):
            corners = [grid[i, j], grid[i + 1, j],
                       grid[i + 1, j + 1], grid[i, j + 1]]
            cv = [vals[i, j], vals[i + 1, j],
                  vals[i + 1, j + 1], vals[i, j + 1]]
            pts = []
            for k in range(4):
                a, b = k, (k + 1) % 4
                va, vb = cv[a], cv[b]
                if va == 0.0 and vb == 0.0:
                    continue
                if va == 0.0:
                    pts.append(np.array(corners[a]))
                elif (va < 0) != (vb < 0):
                    t = va / (va - vb)
                    pts.append(corners[a] + t * (corners[b] - corners[a]))
            if len(pts) == 2:
                segments.append((pts[0], pts[1]))
            elif len(pts) == 4:
                center = 0.25 * sum(np.asarray(c) for c in corners)
                if (ki.cross_field(f1, f2, center) < 0) == (cv[0] < 0):
                    segments += [(pts[0], pts[3]), (pts[1], pts[2])]
                else:
                    segments += [(pts[0], pts[1]), (pts[2], pts[3])]
    tol = 1e-9 * max(xmax - xmin, ymax - ymin)
    b_mat = f2.a_mat.T @ ki.SKEW @ f1.a_mat
    unused = list(segments)
    polylines = []
    while unused:
        a, b = unused.pop()
        chain = [a, b]
        grown = True
        while grown:
            grown = False
            for idx, (c, d) in enumerate(unused):
                if np.linalg.norm(chain[-1] - c) < tol:
                    chain.append(d)
                elif np.linalg.norm(chain[-1] - d) < tol:
                    chain.append(c)
                elif np.linalg.norm(chain[0] - c) < tol:
                    chain.insert(0, d)
                elif np.linalg.norm(chain[0] - d) < tol:
                    chain.insert(0, c)
                else:
                    continue
                unused.pop(idx)
                grown = True
                break
        refined = []
        for x in chain:
            for _ in range(newton_steps):
                grad = b_mat @ (x - f1.m) + b_mat.T @ (x - f2.m)
                nrm2 = float(grad @ grad)
                if nrm2 <= 0:
                    break
                x = x - ki.cross_field(f1, f2, x) * grad / nrm2
            refined.append(x)
        polylines.append(np.array(refined))
    polylines.sort(key=lambda pl: -len(pl))
    return polylines


def _assert_matches_reference(f1, f2, bbox, resolution):
    got = ki.trace_locus(f1, f2, bbox, resolution)["polylines"]
    want = _reference_trace_locus(f1, f2, bbox, resolution)
    assert [len(pl) for pl in got] == [len(pl) for pl in want]
    span = max(bbox[1] - bbox[0], bbox[3] - bbox[2])
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-9 * span
    return got


@hs.composite
def _pd_family(draw):
    coord = hs.floats(-4.0, 4.0, allow_nan=False)
    m = [draw(coord), draw(coord)]
    a, c = draw(hs.floats(0.3, 2.0)), draw(hs.floats(0.3, 2.0))
    b = draw(hs.floats(-1.5, 1.5))
    low = np.array([[a, 0.0], [b, c]])
    return ki.QuadFamily(m, low @ low.T)


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_pd_family(), _pd_family(), hs.integers(32, 48))
def test_trace_locus_matches_reference_tracer(f1, f2, resolution):
    bbox = (-8.0, 8.0, -6.0, 10.0)
    # distinct centres: with m1 = m2 and proportional shapes the field is
    # zero up to rounding and both tracers follow noise
    assume(np.linalg.norm(f1.m - f2.m) >= 1.0)
    # a node value below 1e-6 of the grid maximum, but not zero, puts
    # distinct crossings within the reference's 1e-9 * span merging
    # distance (see test_trace_locus_centre_near_grid_node)
    xs = np.linspace(bbox[0], bbox[1], resolution + 1)
    ys = np.linspace(bbox[2], bbox[3], resolution + 1)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    vals = np.abs(ki.cross_field(f1, f2, grid))
    assume(not ((vals > 0) & (vals < 1e-6 * vals.max())).any())
    _assert_matches_reference(f1, f2, bbox, resolution)


def test_trace_locus_centre_on_grid_node():
    # at resolution 64 both demo centres are grid nodes, where the field
    # is exactly zero: the zero-corner path keeps the node itself
    xs = np.linspace(DEMO_BBOX[0], DEMO_BBOX[1], 65)
    ys = np.linspace(DEMO_BBOX[2], DEMO_BBOX[3], 65)
    for m in (DEMO_F1.m, DEMO_F2.m):
        assert m[0] in xs and m[1] in ys
    got = _assert_matches_reference(DEMO_F1, DEMO_F2, DEMO_BBOX, 64)
    verts = np.vstack(got)
    assert np.linalg.norm(verts - DEMO_F1.m, axis=1).min() == 0.0
    assert np.linalg.norm(verts - DEMO_F2.m, axis=1).min() == 0.0


def test_trace_locus_centre_near_grid_node():
    # a centre 1e-12 off a node: the locus cuts that node's cell corner in
    # a segment far shorter than the reference's merging distance, which
    # chains past it and leaves it as a 2-vertex stub; edge keys keep it
    # inside one continuous polyline
    bbox = (-8.0, 8.0, -6.0, 10.0)
    node = np.array([np.linspace(-8.0, 8.0, 41)[10],
                     np.linspace(-6.0, 10.0, 41)[12]])
    f1 = ki.QuadFamily(node + [1e-12, -1e-12], [[1.0, 0.3], [0.3, 0.8]])
    f2 = ki.QuadFamily(node + [2.3, 1.7], [[0.6, -0.2], [-0.2, 1.4]])
    got = ki.trace_locus(f1, f2, bbox, 40)["polylines"]
    want = _reference_trace_locus(f1, f2, bbox, 40)
    assert min(len(pl) for pl in want) == 2
    assert len(got) == len(want) - 1
    assert min(len(pl) for pl in got) > 2
    cell = 16.0 / 40 * np.sqrt(2)
    for pl in got:
        assert np.linalg.norm(np.diff(pl, axis=0), axis=1).max() < cell


@pytest.mark.parametrize("m", [(0.1, 0.05), (0.2, 0.05)])
def test_trace_locus_saddle_cell(m):
    # concentric families whose locus is the two axes through m, crossing
    # inside the cell [0, 0.25]^2: its corners alternate in sign, and the
    # centre value joins them one way for each m
    f1 = ki.QuadFamily(m, np.eye(2))
    f2 = ki.QuadFamily(m, np.diag([2.0, 1.0]))
    bbox = (-4.0, 4.0, -4.0, 4.0)
    corners = np.array([[0.0, 0.0], [0.25, 0.0], [0.25, 0.25], [0.0, 0.25]])
    signs = np.sign(ki.cross_field(f1, f2, corners))
    assert list(signs) in ([1, -1, 1, -1], [-1, 1, -1, 1])
    got = _assert_matches_reference(f1, f2, bbox, 32)
    assert len(got) == 2
    d = np.vstack(got) - np.asarray(m)
    assert np.abs(d[:, 0] * d[:, 1]).max() < 1e-12


def test_trace_locus_resolution_384():
    locus = ki.trace_locus(DEMO_F1, DEMO_F2, DEMO_BBOX, 384)
    verts = np.vstack(locus["polylines"])
    assert np.abs(ki.cross_field(DEMO_F1, DEMO_F2, verts)).max() <= \
        1e-6 * locus["scale"]
    cell = (DEMO_BBOX[1] - DEMO_BBOX[0]) / 384 * np.sqrt(2)
    assert np.linalg.norm(verts - DEMO_F1.m, axis=1).min() < cell
    assert np.linalg.norm(verts - DEMO_F2.m, axis=1).min() < cell


# ------------------------------------------- exactness of the fast paths

@hs.composite
def _scaled_family(draw):
    # a PD family whose entries are scaled by 10^-30 .. 10^30
    a, _, _ = draw(strategies.pd_matrices(p=hs.just(2),
                                          log_cond=hs.floats(0.0, 6.0),
                                          log_scale=hs.floats(-30.0, 30.0)))
    coord = hs.floats(-10.0, 10.0)
    return ki.QuadFamily([draw(coord), draw(coord)], a)


@settings(max_examples=150, deadline=None, database=None)
@given(_scaled_family(), _scaled_family(), hs.floats(-10.0, 10.0),
       hs.floats(-10.0, 10.0), hs.floats(0.01, 30.0), hs.floats(0.01, 30.0),
       hs.integers(32, 300))
def test_grid_field_is_cross_field_on_the_stacked_grid(f1, f2, x0, y0, w, h,
                                                        resolution):
    # trace_locus's separable grid is the 3-operand einsum on the stacked
    # meshgrid to the bit, so every sign, crossing and scale is unchanged
    xs = np.linspace(x0, x0 + w, resolution + 1)
    ys = np.linspace(y0, y0 + h, resolution + 1)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
    assert np.array_equal(ki._grid_field(f1, f2, xs, ys),
                          ki.cross_field(f1, f2, grid))


def _reference_chain(keys):
    # the chaining that _chain replaced, step for step: the least unused
    # segment of the tail's and the head's touching lists joined
    touching = {}
    for s, ends in enumerate(keys):
        for k in ends:
            touching.setdefault(k, []).append(s)
    used = [False] * len(keys)
    chains = []
    for start in range(len(keys) - 1, -1, -1):
        if used[start]:
            continue
        used[start] = True
        head, tail = keys[start]
        front, back = [], []
        while True:
            s = min((s for s in touching[tail] + touching[head]
                     if not used[s]), default=None)
            if s is None:
                break
            used[s] = True
            c, d = keys[s]
            if c == tail:
                back.append(2 * s + 1)
                tail = d
            elif d == tail:
                back.append(2 * s)
                tail = c
            elif c == head:
                front.append(2 * s + 1)
                head = d
            else:
                front.append(2 * s)
                head = c
        chains.append(front[::-1] + [2 * start, 2 * start + 1] + back)
    return chains


@settings(max_examples=300, deadline=None, database=None)
@given(hs.integers(1, 12).flatmap(lambda n_keys: hs.lists(
    hs.lists(hs.integers(0, n_keys - 1), min_size=2, max_size=2),
    max_size=40)))
# a cycle, a loop on one key, and a zero node shared by four segments
@example([[0, 1], [1, 2], [2, 0]])
@example([[3, 3], [3, 4]])
@example([[0, 9], [1, 9], [9, 2], [9, 3], [3, 0]])
def test_chain_joins_as_the_reference(keys):
    # few distinct keys give cycles and keys shared by 3-4 segments, as
    # zero nodes are
    assert ki._chain(keys) == _reference_chain(keys)


@settings(max_examples=60, deadline=None, database=None)
@given(_scaled_family(), hs.lists(hs.floats(0.01, 50.0), max_size=6))
# on glibc, Python's 7.964 ** 2 (pow) is 63.425296, while numpy's array
# square of the same value (x * x) is 63.42529600000001
@example(DEMO_F1, [7.964])
def test_level_ellipses_are_each_level_ellipse(f, radii):
    radii = [1.0, 7.964] + radii
    for got, want in zip(f.level_ellipses(radii),
                         [f.level_ellipse(r) for r in radii], strict=True):
        for name in ("center", "frame", "radii"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    assert f.level_ellipses([]) == []


def test_degenerate_bbox_is_an_input_error():
    for bbox in [(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0),
                 (4.0, -4.0, -4.0, 8.0), (0.0, 1.0, np.nan, 1.0)]:
        with pytest.raises(nk.InputError, match=r"bbox \("):
            ki.trace_locus(DEMO_F1, DEMO_F2, bbox, 32)


def test_kiss_traces_once_and_solves_each_mark_once(monkeypatch, tmp_path):
    calls = {"trace_locus": 0, "osculation_point": 0}

    def counted(name):
        fn = getattr(ki, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ki, name, counted(name))
    assert cli.main(["kiss", "--mark", "1.5,2,3",
                     "--svg", str(tmp_path / "k.svg")]) == 0
    assert calls == {"trace_locus": 1, "osculation_point": 3}


def test_osculation_points_lie_on_locus_and_levels():
    locus = ki.trace_locus(DEMO_F1, DEMO_F2, DEMO_BBOX, 96)
    for r1 in (2.0, 3.0):
        pt, r2 = ki.osculation_point(DEMO_F1, DEMO_F2, r1, locus=locus)
        assert abs(ki.cross_field(DEMO_F1, DEMO_F2, pt)) < 1e-9 * \
            locus["scale"]
        assert DEMO_F1.value(pt) == pytest.approx(r1 ** 2, rel=1e-10)
        assert DEMO_F2.value(pt) == pytest.approx(r2 ** 2, rel=1e-10)


@pytest.mark.parametrize("r1", [10.0, 7.49])
def test_osculation_at_or_beyond_the_second_centre_is_an_input_error(r1):
    # f1(m2) = 56 for the demo families: an f1 level through or beyond m2
    # holds m2, so no f2 level touches it from outside
    locus = ki.trace_locus(DEMO_F1, DEMO_F2, DEMO_BBOX, 96)
    with pytest.raises(nk.InputError, match=r"sqrt\(f1\(m2\)\) = 7\.48331"):
        ki.osculation_point(DEMO_F1, DEMO_F2, r1, locus=locus)
    # just inside the reach the kiss is external
    x, _ = ki.osculation_point(DEMO_F1, DEMO_F2, 7.48, locus=locus)
    assert DEMO_F1.gradient(x) @ DEMO_F2.gradient(x) < 0


def test_negative_osculation_radius_is_an_input_error():
    # radius 0 kisses at m1; -r is no level, not the level of r
    locus = ki.trace_locus(DEMO_F1, DEMO_F2, DEMO_BBOX, 96)
    with pytest.raises(nk.InputError, match="mark radius -1 must be >= 0"):
        ki.osculation_point(DEMO_F1, DEMO_F2, -1.0, locus=locus)
    x, r2 = ki.osculation_point(DEMO_F1, DEMO_F2, 0.0, locus=locus)
    assert np.allclose(x, DEMO_F1.m, rtol=0.0, atol=1e-12)
    assert r2 == pytest.approx(np.sqrt(DEMO_F2.value(DEMO_F1.m)), rel=1e-12)


def test_kiss_mark_beyond_the_second_centre_is_exit_2(tmp_path, capsys):
    # radius 10 is beyond the reach sqrt(56): the locus offers it only the
    # internal kiss point (2.960, 7.626), where the gradients agree
    out = tmp_path / "out.json"
    assert cli.main(["kiss", "--mark", "5,10", "--json", str(out)]) == 2
    err = capsys.readouterr().err
    assert "input error: mark radius 10 has no external kiss point" in err
    assert "sqrt(f1(m2)) = 7.48331" in err
    assert not out.exists()


def test_kiss_mark_whose_square_overflows_is_exit_2(tmp_path, capsys):
    # the square of 1e155 is beyond the doubles, where it used to raise
    # OverflowError (exit 1); it is refused as any mark beyond the reach
    out, svg = tmp_path / "out.json", tmp_path / "out.svg"
    for mark in ("1e155", "1e300"):
        assert cli.main(["kiss", f"--mark={mark}", "--json", str(out),
                         "--svg", str(svg)]) == 2
        err = capsys.readouterr().err
        assert f"mark radius {float(mark):g} has no external kiss point" \
            in err and "sqrt(f1(m2)) = 7.48331" in err
        assert not out.exists() and not svg.exists()
    # about the reach sqrt(f1(m2)) = sqrt(56) the verdict is still that of
    # r^2 < f1(m2): the double below it is accepted, it and above refused
    reach = DEMO_F1.value(DEMO_F2.m)
    r = np.sqrt(reach)
    for mark, status in ((np.nextafter(r, 0.0), 0), (r, 2),
                         (np.nextafter(r, np.inf), 2)):
        assert (float(mark) ** 2 < reach) == (status == 0)
        assert cli.main(["kiss", f"--mark={float(mark)!r}",
                         "--json", str(out)]) == status
        capsys.readouterr()


@settings(max_examples=100, deadline=None, database=None)
@given(strategies.pd_matrices(p=hs.just(2), log_cond=hs.floats(0.0, 2.0),
                              log_scale=hs.floats(-50.0, 50.0)),
       strategies.pd_matrices(p=hs.just(2), log_cond=hs.floats(0.0, 2.0),
                              log_scale=hs.floats(-50.0, 50.0)),
       strategies.seeds, hs.floats(0.2, 0.8))
# pinned: a locus vertex at m1, and a coarse locus from whose nearest
# vertex Newton lands on the internal kiss point
@example(a1=(np.eye(2), 1.0, 1.0), a2=(np.eye(2), 1.0, 1.0), seed=92,
         t=0.203125)
@example(a1=(np.array([[0.05558849, -0.20749528],
                       [-0.20749528, 0.95441151]]), 100.0, 1.0),
         a2=(np.array([[0.57015553, 0.44954839],
                       [0.44954839, 0.52984447]]), 10.0, 1.0),
         seed=1554, t=0.5)
def test_cross_field_vanishes_at_each_kiss_point(a1, a2, seed, t):
    # the kiss point on the f1 level t^2 f1(m2) lies between the centres,
    # on the level and on the zero set of the cross field, to roundoff of
    # the product of the gradients; the grid is centred on m1, so a vertex
    # can sit there
    rng = np.random.default_rng(seed)
    m1 = rng.standard_normal(2)
    m2 = m1 + 10.0 ** rng.uniform(-1.0, 1.0) * \
        strategies.orthogonal(rng, 2)[0]
    f1, f2 = ki.QuadFamily(m1, a1[0]), ki.QuadFamily(m2, a2[0])
    # the branch between the centres stays within sqrt(cond(A1)) <= 10
    # centre distances of m1
    reach = 11.0 * np.linalg.norm(m2 - m1)
    bbox = (m1[0] - reach, m1[0] + reach, m1[1] - reach, m1[1] + reach)
    locus = ki.trace_locus(f1, f2, bbox, 96)
    r1 = t * np.sqrt(f1.value(m2))
    x, r2 = ki.osculation_point(f1, f2, r1, locus=locus)
    g1 = f1.a_mat @ (x - m1)
    g2 = f2.a_mat @ (x - m2)
    assert abs(ki.cross_field(f1, f2, x)) <= \
        1e-12 * np.linalg.norm(g1) * np.linalg.norm(g2)
    assert g1 @ g2 < 0
    assert f1.value(x) == pytest.approx(r1 ** 2, rel=1e-12)
    assert f2.value(x) == pytest.approx(r2 ** 2, rel=1e-12)


def test_osculation_recovers_published_drawing_radii():
    # under the moment drawing convention (x-m)^T A^{-1} (x-m) = r^2 the
    # trial-and-error radii pair as (2 -> 3.1) and (3 -> 1.74)
    g1 = ki.QuadFamily(DEMO_F1.m, np.linalg.inv(DEMO_F1.a_mat))
    g2 = ki.QuadFamily(DEMO_F2.m, np.linalg.inv(DEMO_F2.a_mat))
    locus = ki.trace_locus(g1, g2, DEMO_BBOX, 128)
    _, r2 = ki.osculation_point(g1, g2, 2.0, locus=locus)
    assert r2 == pytest.approx(3.1, abs=0.01)
    _, r2 = ki.osculation_point(g1, g2, 3.0, locus=locus)
    assert r2 == pytest.approx(1.74, abs=0.01)


def test_lda_axis_identity_and_scaling():
    m1 = np.array([1.0, 0.0])
    m2 = np.array([-1.0, 2.0])
    out = ki.lda_axis(m1, m2, np.eye(2))
    assert out["coef"] == pytest.approx(m1 - m2)
    scaled = ki.lda_axis(m1, m2, 4.0 * np.eye(2))
    assert scaled["coef"] == pytest.approx((m1 - m2) / 4.0)
    # classification side unchanged by covariance scaling
    x = np.array([3.0, -1.0])
    s1 = out["coef"] @ x - out["midpoint_cut"]
    s2 = scaled["coef"] @ x - scaled["midpoint_cut"]
    assert np.sign(s1) == np.sign(s2)
    with pytest.raises(Exception):
        ki.lda_axis(m1, m2, np.diag([1.0, 0.0]))


def test_lda_boundary_tangent_to_osculating_family():
    # equal shapes: on the locus the common gradient is normal to the
    # discriminant boundary family
    rng = np.random.default_rng(2)
    s_pooled = random_pd(rng, 2)
    m1 = np.array([-2.0, 2.0])
    m2 = np.array([2.0, 6.0])
    a_mat = np.linalg.inv(s_pooled)
    f1 = ki.QuadFamily(m1, a_mat)
    f2 = ki.QuadFamily(m2, a_mat)
    locus = ki.trace_locus(f1, f2, DEMO_BBOX, 96)
    out = ki.lda_axis(m1, m2, s_pooled)
    b = out["coef"]
    verts = np.vstack(locus["polylines"])
    inner = [v for v in verts
             if f1.gradient(v) @ f2.gradient(v) < -1e-9]
    assert inner
    for v in inner[:: max(1, len(inner) // 25)]:
        grad = f1.gradient(v)
        cosine = grad @ b / (np.linalg.norm(grad) * np.linalg.norm(b))
        assert abs(abs(cosine) - 1.0) < 1e-6


# ------------------------------------------------------------------ ridge

def _ridge_scale(x, y):
    """(xs, yc, lengths): the data on the ridge scale, centered with
    unit-length predictor columns, as kissing.ridge standardizes them."""
    x = np.asarray(x, dtype=float)
    xc = x - x.mean(axis=0)
    lengths = np.linalg.norm(xc, axis=0)
    return xc / lengths, y - y.mean(), lengths


def test_ridge_zero_equals_ols(longley):
    _, x, y = longley
    r = ki.ridge(x, y, 0.0)
    assert np.abs(r.beta - r.beta_ols).max() < 1e-10
    xs, yc, _ = _ridge_scale(x, y)
    direct = np.linalg.solve(xs.T @ xs, xs.T @ yc)
    assert r.beta == pytest.approx(direct, rel=1e-9)
    assert r.cov == pytest.approx(r.s2 * np.linalg.inv(xs.T @ xs),
                                  rel=1e-8)


def test_ridge_large_k_shrinks_to_zero(longley):
    _, x, y = longley
    r0 = ki.ridge(x, y, 0.0)
    big = ki.ridge(x, y, 1e6)
    assert np.linalg.norm(big.beta) < 1e-3 * np.linalg.norm(r0.beta)


def test_ridge_longley_grid_monotonicity(longley):
    _, x, y = longley
    ks = [0.0, 0.005, 0.01, 0.02, 0.04, 0.08]
    norms, dets = [], []
    for k in ks:
        r = ki.ridge(x, y, k)
        norms.append(np.linalg.norm(r.beta))
        dets.append(np.linalg.det(r.cov))
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert all(b < a for a, b in zip(dets, dets[1:]))


@settings(max_examples=60, deadline=None, database=None)
@given(log_s=hs.floats(-100.0, 100.0), k=hs.floats(1e-4, 0.1))
def test_ridge_norm_verdict_is_scale_free(longley, log_s, k):
    # the response times s scales every ridge coefficient by s, so the
    # verdict on the norms holds at any s, also over ks a rounding apart
    _, x, y = longley
    ks = [0.0] + [k * (1 + 4e-16 * i) for i in range(8)] + [2 * k]
    for s in (1.0, 10.0 ** log_s):
        with np.errstate(over="ignore", under="ignore"):
            out = ki.ridge_path_summary(ki.ridge_trace(x, s * y, ks))
        assert out["norm_monotone_nonincreasing"]


@pytest.mark.parametrize("s", [1e-100, 1e-30, 1e30, 1e100])
def test_ridge_genvar_verdict_is_scale_free(longley, s):
    # det cov(k) scales by s^12 and overflows or underflows at these
    # response scales; the verdict on the log-determinants is the same
    _, x, y = longley
    ks = [0.0, 0.005, 0.01, 0.02, 0.04, 0.08]
    unscaled = ki.ridge_path_summary(ki.ridge_trace(x, y, ks))
    with np.errstate(over="ignore", under="ignore"):
        scaled = ki.ridge_path_summary(ki.ridge_trace(x, s * y, ks))
    assert scaled["genvar_strictly_decreasing"] is \
        unscaled["genvar_strictly_decreasing"] is True


def test_ridge_negative_k_rejected(longley):
    _, x, y = longley
    with pytest.raises(ValueError):
        ki.ridge(x, y, -0.1)


def test_ridge_kiss_condition_two_predictors(longley):
    # gradient of the RSS contour at the ridge solution is antiparallel
    # to the gradient of the squared-norm constraint
    _, x, y = longley
    x2 = x[:, [1, 2]]                   # GNP, Unemployed
    xs, yc, _ = _ridge_scale(x2, y)
    for k in (0.005, 0.01, 0.02, 0.04, 0.08):
        r = ki.ridge(x2, y, k)
        grad_rss = 2.0 * (xs.T @ xs @ r.beta - xs.T @ yc)
        grad_pen = 2.0 * r.beta
        cross = grad_rss[0] * grad_pen[1] - grad_rss[1] * grad_pen[0]
        denom = np.linalg.norm(grad_rss) * np.linalg.norm(grad_pen)
        assert abs(cross) / denom < 1e-8
        assert grad_rss @ grad_pen < 0


def test_ridge_trace_entries(longley):
    _, x, y = longley
    ks = [0.0, 0.01, 0.08]
    trace = ki.ridge_trace(x, y, ks, coords=(1, 2))
    assert [t["k"] for t in trace] == ks
    # half the standard radius: moment matrix = 0.25 * cov block
    r = trace[0]["result"]
    back = (trace[0]["ellipse"].frame * trace[0]["ellipse"].radii ** 2) \
        @ trace[0]["ellipse"].frame.T
    assert back == pytest.approx(0.25 * r.cov[np.ix_([1, 2], [1, 2])],
                                 rel=1e-9)
    areas = [np.prod(t["ellipse"].radii) for t in trace]
    assert areas[0] > areas[1] > areas[2]


def test_ridge_equals_ols_on_supplemented_data(longley):
    # appending q fictitious orthogonal observations sqrt(k) I with zero
    # responses turns plain OLS into the ridge solution
    _, x, y = longley
    xs, yc, _ = _ridge_scale(x, y)
    for k in (0.01, 0.08):
        x_aug = np.vstack([xs, np.sqrt(k) * np.eye(6)])
        y_aug = np.concatenate([yc, np.zeros(6)])
        beta_aug = np.linalg.lstsq(x_aug, y_aug, rcond=None)[0]
        assert beta_aug == pytest.approx(ki.ridge(x, y, k).beta,
                                         rel=1e-10)


# ------------------------------------------------------------------ bayes

def test_bayes_reduces_to_ols_and_ridge(longley):
    _, x, y = longley
    out = ki.bayes_posterior(x, y, np.zeros(6), np.zeros((6, 6)))
    r0 = ki.ridge(x, y, 0.0)
    assert out["beta_post"] == pytest.approx(r0.beta, rel=1e-10)
    for k in (0.01, 0.08, 1.0):
        out = ki.bayes_posterior(x, y, np.zeros(6), k * np.eye(6))
        rk = ki.ridge(x, y, k)
        assert np.abs(out["beta_post"] - rk.beta).max() < 1e-12 * \
            max(1.0, np.abs(rk.beta).max())


def test_bayes_prior_dominant_limit(longley):
    _, x, y = longley
    prior = np.arange(1.0, 7.0)
    out = ki.bayes_posterior(x, y, prior, 1e9 * np.eye(6))
    assert out["beta_post"] == pytest.approx(prior, rel=1e-6)


def test_bayes_residual_identity(longley):
    # (X'X)(post - ols) + A(post - prior) = 0
    _, x, y = longley
    rng = np.random.default_rng(3)
    prior = rng.standard_normal(6)
    a_mat = random_pd(rng, 6, scale=0.1)
    out = ki.bayes_posterior(x, y, prior, a_mat)
    xs, yc, _ = _ridge_scale(x, y)
    resid = xs.T @ xs @ (out["beta_post"] - out["beta_ols"]) \
        + a_mat @ (out["beta_post"] - prior)
    assert np.abs(resid).max() < 1e-9


# ------------------------------------------- ridge and bayes on generated data

EPS = np.finfo(float).eps


def _regression(seed, n, q, log_cond, log_noise):
    """x with condition number 10**log_cond before its columns get units
    and origins spread over six decades; y in the span of x, plus noise
    10**log_noise times the fit."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, q)))
    v, _ = np.linalg.qr(rng.standard_normal((q, q)))
    x = (u * np.logspace(0.0, -log_cond, q)) @ v.T
    x = x * 10.0 ** rng.uniform(-3.0, 3.0, q) \
        + 10.0 ** rng.uniform(-3.0, 3.0, q) * rng.standard_normal(q)
    y = u @ rng.standard_normal(q) + 10.0 ** log_noise * rng.standard_normal(n)
    return rng, x, y


def _exact_posterior(xs, yc, a_mat, prior):
    """The posterior of standardized data, solved in 40 digits."""
    to_float = (lambda m: np.array(m.tolist(), dtype=float))
    with mp.workdps(40):
        n, q = xs.shape
        x, y = mp.matrix(xs.tolist()), mp.matrix(yc.tolist())
        a = mp.matrix(a_mat.tolist())
        xtx, xty = x.T * x, x.T * y
        beta_ols = mp.lu_solve(xtx, xty)
        s2 = sum(r ** 2 for r in y - x * beta_ols) / (n - q - 1)
        core = mp.inverse(xtx + a)
        return {"beta": to_float(core * (xty + a * mp.matrix(prior.tolist())))
                .ravel(),
                "beta_ols": to_float(beta_ols).ravel(), "s2": float(s2),
                "cov_unit": to_float(core),
                "sandwich": to_float(core * xtx * core)}


def _rel_err(got, want):
    # relative to the largest entry of the reference
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


def _tan(a, z, beta):
    fit = a @ beta
    return np.linalg.norm(z - fit) / np.linalg.norm(fit)


def _conditioning(xs, yc, root, a_mat, prior, exact):
    """Error bounds, in units of eps, that a backward-stable solution
    meets: cond(a) (1 + cond(a) tan theta) for least squares on a with
    residual angle theta; cond(a) for (a'a)^{-1}; and, for the rounding of
    A itself, ||A|| / lam_min(X'X + A). The normal equations, which work
    with cond(X'X) = cond(X)^2, meet them with cond(X)^2 for cond(a)."""
    aug = np.vstack([xs, root])
    sv = np.linalg.svd(aug, compute_uv=False)
    c_aug, c_x = sv[0] / sv[-1], np.linalg.cond(xs)
    t_aug = _tan(aug, np.concatenate([yc, root @ prior]), exact["beta"])
    t_x = _tan(xs, yc, exact["beta_ols"])
    k_a = np.linalg.norm(a_mat, 2) / sv[-1] ** 2
    shift = np.linalg.norm(prior - exact["beta"]) / np.linalg.norm(
        exact["beta"])
    # s2 from residuals of size |y| tan theta, rounded at eps |X| |beta|
    k_s2 = c_x + np.linalg.norm(xs, 2) * np.linalg.norm(
        exact["beta_ols"]) / np.sqrt(exact["s2"] * (xs.shape[0] - xs.shape[1]
                                                     - 1))
    return {"beta": c_aug * (1 + c_aug * t_aug) + k_a * shift,
            "cov": c_aug + k_a, "beta_ols": c_x * (1 + c_x * t_x),
            "s2": k_s2,
            "ne_beta": c_x ** 2 * (1 + t_aug) + k_a * shift,
            "ne_cov": c_x ** 2 + k_a, "ne_beta_ols": c_x ** 2 * (1 + t_x)}


def _verdict(xs, root):
    """'singular' or 'regular' for X'X + A, or None within a decade of the
    1e-12 threshold, where rounding may decide."""
    sv = np.linalg.svd(np.vstack([xs, root]), compute_uv=False)
    ratio = (sv[-1] / sv[0]) ** 2
    return "singular" if ratio < 1e-13 else \
        "regular" if ratio > 1e-11 else None


# Slow copies of the normal-equation ridge and bayes_posterior that the QR
# path replaced, on standardized data: a second reference, accurate to
# about cond(X'X) eps.

def _ridge_normal_equations(xs, yc, k):
    q = xs.shape[1]
    xtx, xty = xs.T @ xs, xs.T @ yc
    core = np.linalg.inv(xtx + k * np.eye(q))
    return {"beta": core @ xty, "sandwich": core @ xtx @ core,
            "beta_ols": np.linalg.solve(xtx, xty)}


def _bayes_normal_equations(xs, yc, prior, a_mat):
    xtx, xty = xs.T @ xs, xs.T @ yc
    beta_ols = np.linalg.solve(xtx, xty)
    total = xtx + a_mat
    beta = np.linalg.solve(total, xtx @ beta_ols + a_mat @ prior)
    return {"beta": beta, "cov_unit": np.linalg.inv(total),
            "beta_ols": beta_ols}


@settings(max_examples=60, deadline=None, database=None)
@given(seed=hs.integers(0, 2 ** 32 - 1), q=hs.integers(1, 6),
       extra=hs.integers(2, 30), log_cond=hs.floats(0.0, 6.0),
       log_noise=hs.floats(-6.0, 0.0),
       k=hs.one_of(hs.just(0.0),
                   hs.floats(-8.0, 3.0).map(lambda e: 10.0 ** e)))
def test_ridge_matches_exact_least_squares(seed, q, extra, log_cond,
                                           log_noise, k):
    _, x, y = _regression(seed, q + extra, q, log_cond, log_noise)
    xs, yc, lengths = _ridge_scale(x, y)
    root = np.sqrt(k) * np.eye(q)
    verdict = _verdict(xs, root)
    assume(verdict is not None)
    if verdict == "singular":
        with pytest.raises(ValueError, match="singular"):
            ki.ridge(x, y, k)
        return
    a_mat, prior = k * np.eye(q), np.zeros(q)
    exact = _exact_posterior(xs, yc, a_mat, prior)
    bound = _conditioning(xs, yc, root, a_mat, prior, exact)
    r = ki.ridge(x, y, k)
    assert np.array_equal(r.cov, r.cov.T)
    assert np.array_equal(r.beta_original, r.beta / lengths)
    for got, want, key in [(r.beta, exact["beta"], "beta"),
                           (r.cov / r.s2, exact["sandwich"], "cov"),
                           (r.beta_ols, exact["beta_ols"], "beta_ols")]:
        assert _rel_err(got, want) <= 100 * EPS * bound[key], key
    assert abs(r.s2 - exact["s2"]) <= 100 * EPS * bound["s2"] * exact["s2"]
    ref = _ridge_normal_equations(xs, yc, k)
    for got, key, ne in [(r.beta, "beta", "ne_beta"),
                         (r.cov / r.s2, "sandwich", "ne_cov"),
                         (r.beta_ols, "beta_ols", "ne_beta_ols")]:
        assert _rel_err(got, ref[key]) <= 100 * EPS * bound[ne], key


@settings(max_examples=60, deadline=None, database=None)
@given(seed=hs.integers(0, 2 ** 32 - 1), q=hs.integers(1, 6),
       extra=hs.integers(2, 30), log_cond=hs.floats(0.0, 6.0),
       log_noise=hs.floats(-6.0, 0.0), rank=hs.integers(0, 6),
       log_scale=hs.floats(-3.0, 3.0))
def test_bayes_posterior_matches_exact_solution(seed, q, extra, log_cond,
                                                log_noise, rank, log_scale):
    # A = L L' of rank min(rank, q): zero, singular or positive definite
    rng, x, y = _regression(seed, q + extra, q, log_cond, log_noise)
    factor = rng.standard_normal((q, min(rank, q)))
    a_mat = nk.check_symmetric(10.0 ** log_scale * (factor @ factor.T))
    prior = rng.standard_normal(q)
    xs, yc, _ = _ridge_scale(x, y)
    root, _ = nk.psd_sqrt(a_mat)
    verdict = _verdict(xs, root)
    assume(verdict is not None)
    if verdict == "singular":
        with pytest.raises(ValueError, match="singular"):
            ki.bayes_posterior(x, y, prior, a_mat)
        return
    exact = _exact_posterior(xs, yc, a_mat, prior)
    bound = _conditioning(xs, yc, root, a_mat, prior, exact)
    out = ki.bayes_posterior(x, y, prior, a_mat)
    assert np.array_equal(out["cov_unit"], out["cov_unit"].T)
    assert np.array_equal(out["cov"], out["s2"] * out["cov_unit"])
    for got, want, key in [(out["beta_post"], exact["beta"], "beta"),
                           (out["cov_unit"], exact["cov_unit"], "cov"),
                           (out["beta_ols"], exact["beta_ols"], "beta_ols")]:
        assert _rel_err(got, want) <= 100 * EPS * bound[key], key
    assert abs(out["s2"] - exact["s2"]) <= \
        100 * EPS * bound["s2"] * exact["s2"]
    ref = _bayes_normal_equations(xs, yc, prior, a_mat)
    for got, key, ne in [(out["beta_post"], "beta", "ne_beta"),
                         (out["cov_unit"], "cov_unit", "ne_cov"),
                         (out["beta_ols"], "beta_ols", "ne_beta_ols")]:
        assert _rel_err(got, ref[key]) <= 100 * EPS * bound[ne], key


@pytest.mark.parametrize("ratio", [0.9e-12, 1.1e-12])
def test_singular_verdict_threshold(ratio):
    # X'X + A is singular when lam_min <= 1e-12 lam_max: two centered unit
    # columns at cosine c = (1 - ratio) / (1 + ratio) have X'X
    # eigenvalues 1 + c and 1 - c
    rng = np.random.default_rng(5)
    z = rng.standard_normal((12, 2))
    u, _ = np.linalg.qr(z - z.mean(axis=0))
    x = np.column_stack([u[:, 0], ((1 - ratio) * u[:, 0]
                                   + 2 * np.sqrt(ratio) * u[:, 1])
                         / (1 + ratio)])
    y = rng.standard_normal(12)
    if ratio < 1e-12:
        with pytest.raises(ValueError, match="singular"):
            ki.ridge(x, y, 0.0)
        with pytest.raises(ValueError, match="singular"):
            ki.bayes_posterior(x, y, np.zeros(2), np.zeros((2, 2)))
    else:
        ki.ridge(x, y, 0.0)
        ki.bayes_posterior(x, y, np.zeros(2), np.zeros((2, 2)))


def test_singular_verdict_with_a_prior_along_the_wrong_axis():
    # X'X has eigenvalues 1 + c and 1 - c = 2e-14 / (1 + 1e-14) on
    # (1, 1) / sqrt(2) and (1, -1) / sqrt(2). A prior precision on the
    # first axis only leaves X'X + A singular by the 1e-12 rule, though the
    # pooled R is above the design rank threshold; one on the second axis
    # makes it regular, as does ridge's k I
    ratio = 1e-14
    rng = np.random.default_rng(6)
    z = rng.standard_normal((12, 2))
    u, _ = np.linalg.qr(z - z.mean(axis=0))
    x = np.column_stack([u[:, 0], ((1 - ratio) * u[:, 0]
                                   + 2 * np.sqrt(ratio) * u[:, 1])
                         / (1 + ratio)])
    y = rng.standard_normal(12)
    along, across = np.full((2, 2), 0.5), np.array([[0.5, -0.5],
                                                    [-0.5, 0.5]])
    with pytest.raises(ValueError, match=r"^X'X \+ A is singular$"):
        ki.bayes_posterior(x, y, np.zeros(2), along)
    with pytest.raises(ValueError, match=r"^X'X \+ A is singular$"):
        ki.ridge(x, y, 0.0)
    ki.bayes_posterior(x, y, np.zeros(2), across)
    ki.ridge(x, y, 1e-3)


# ------------------------------------------------------------------ mixed

def _toy_clusters(rng, m=8, beta=(1.0, 2.0), g_scale=0.5, n_range=(8, 15)):
    """(x, y, groups): m clusters of y = x (beta + u_i) + e, stacked in
    cluster order and labelled 0 to m - 1."""
    xs, ys, groups = [], [], []
    for i in range(m):
        n = int(rng.integers(*n_range))
        x = np.column_stack([np.ones(n), rng.standard_normal(n)])
        u = rng.standard_normal(2) * g_scale
        xs.append(x)
        ys.append(x @ (np.array(beta) + u) + rng.standard_normal(n))
        groups += [i] * n
    return np.vstack(xs), np.concatenate(ys), groups


def _blocks(spec):
    """(X_i, y_i) of each cluster of a MixedSpec, in label order."""
    return [(spec.x[a:b], spec.y[a:b])
            for a, b in zip(spec.ends - spec.counts, spec.ends)]


def _block_v(blocks, g_mat, sigma2):
    """The block-diagonal V of the stacked clusters."""
    v_all = sigma2 * np.eye(sum(len(y) for _, y in blocks))
    at = 0
    for x, y in blocks:
        v_all[at:at + len(y), at:at + len(y)] += x @ g_mat @ x.T
        at += len(y)
    return v_all


def test_gls_zero_g_equals_pooled_ols():
    rng = np.random.default_rng(4)
    x, y, groups = _toy_clusters(rng)
    out = ki.gls_fixed(ki.MixedSpec(x, y, groups), np.zeros((2, 2)), 1.0)
    pooled = np.linalg.lstsq(x, y, rcond=None)[0]
    assert out["beta"] == pytest.approx(pooled, rel=1e-9)


def test_gls_single_cluster():
    rng = np.random.default_rng(5)
    x, y, groups = _toy_clusters(rng, m=1)
    g_mat = np.diag([0.3, 0.2])
    out = ki.gls_fixed(ki.MixedSpec(x, y, groups), g_mat, 1.0)
    v = x @ g_mat @ x.T + np.eye(len(y))
    direct = np.linalg.solve(x.T @ np.linalg.solve(v, x),
                             x.T @ np.linalg.solve(v, y))
    assert out["beta"] == pytest.approx(direct, rel=1e-10)


def test_gls_blockwise_equals_stacked():
    rng = np.random.default_rng(6)
    spec = ki.MixedSpec(*_toy_clusters(rng, m=5))
    g_mat = random_pd(rng, 2, scale=0.2)
    out = ki.gls_fixed(spec, g_mat, 1.3)
    # stacked whole-matrix oracle
    vi_x = np.linalg.solve(_block_v(_blocks(spec), g_mat, 1.3), spec.x)
    beta = np.linalg.solve(spec.x.T @ vi_x, vi_x.T @ spec.y)
    assert out["beta"] == pytest.approx(beta, rel=1e-9)
    assert out["cov"] == pytest.approx(np.linalg.inv(spec.x.T @ vi_x),
                                       rel=1e-9)


def test_cluster_blues_match_per_group_oracle():
    rng = np.random.default_rng(7)
    spec = ki.MixedSpec(*_toy_clusters(rng, m=6))
    out = ki.cluster_blues(spec)
    assert not out["skipped"]
    for beta, (x, y) in zip(out["beta"], _blocks(spec)):
        direct = np.linalg.lstsq(x, y, rcond=None)[0]
        assert beta == pytest.approx(direct, rel=1e-9)


def test_cluster_blues_identical_clusters():
    rng = np.random.default_rng(8)
    x, y, _ = _toy_clusters(rng, m=1)
    spec = ki.MixedSpec(np.tile(x, (3, 1)), np.tile(y, 3),
                        np.repeat([0, 1, 2], len(y)))
    out = ki.cluster_blues(spec)
    betas = out["beta"]
    assert np.abs(betas - betas[0]).max() < 1e-12


def test_cluster_blues_flags_rank_deficient():
    rng = np.random.default_rng(9)
    x, y, groups = _toy_clusters(rng, m=2)
    # cluster 2 has collinear columns
    spec = ki.MixedSpec(np.vstack([x, np.ones((5, 2))]),
                        np.concatenate([y, np.arange(5.0)]),
                        groups + [2] * 5)
    out = ki.cluster_blues(spec)
    assert out["skipped"] == [2]
    assert out["index"] == [0, 1] and len(out["beta"]) == 2


def test_blup_limits_and_identity():
    rng = np.random.default_rng(10)
    s_mat = random_pd(rng, 2)
    blue = rng.standard_normal(2)
    gls = rng.standard_normal(2)
    g_mat = random_pd(rng, 2)
    out = ki.blup(blue, s_mat, gls, g_mat)
    resid = np.linalg.solve(s_mat, out["beta"] - blue) \
        + np.linalg.solve(g_mat, out["beta"] - gls)
    assert np.abs(resid).max() < 1e-9
    near_blue = ki.blup(blue, s_mat, gls, 1e9 * np.eye(2))["beta"]
    assert near_blue == pytest.approx(blue, abs=1e-6)
    near_gls = ki.blup(blue, s_mat, gls, 1e-9 * np.eye(2))["beta"]
    assert near_gls == pytest.approx(gls, abs=1e-6)


def test_blup_zero_g_is_gls():
    rng = np.random.default_rng(13)
    s_mat = random_pd(rng, 2)
    blue, gls = rng.standard_normal(2), rng.standard_normal(2)
    out = ki.blup(blue, s_mat, gls, np.zeros((2, 2)))
    assert np.array_equal(out["beta"], gls)
    assert np.array_equal(out["cov"], np.zeros((2, 2)))


def test_blup_singular_g_pools_slope_completely():
    rng = np.random.default_rng(14)
    s_mat = random_pd(rng, 2)
    blue, gls = rng.standard_normal(2), rng.standard_normal(2)
    out = ki.blup(blue, s_mat, gls, np.diag([3.0, 0.0]))
    assert out["beta"][1] == gls[1]
    assert out["cov"][1] == pytest.approx([0.0, 0.0], abs=1e-15)
    # the limit of nonsingular G = diag(3, eps)
    near = ki.blup(blue, s_mat, gls, np.diag([3.0, 1e-12]))
    assert out["beta"] == pytest.approx(near["beta"], abs=1e-9)
    assert out["cov"] == pytest.approx(near["cov"], abs=1e-9)


@pytest.mark.parametrize("k", [1, 2, 3, 20])
def test_blup_stack_matches_one_at_a_time(k):
    # k = p = 2 is the stack numpy 1.x's solve would read G as k vectors of
    rng = np.random.default_rng(16)
    s_mats = np.array([random_pd(rng, 2) for _ in range(k)])
    blues = rng.standard_normal((k, 2))
    gls, g_mat = rng.standard_normal(2), random_pd(rng, 2)
    out = ki.blup(blues, s_mats, gls, g_mat)
    for i in range(k):
        one = ki.blup(blues[i], s_mats[i], gls, g_mat)
        assert out["beta"][i] == pytest.approx(one["beta"], rel=1e-14)
        assert out["cov"][i] == pytest.approx(one["cov"], rel=1e-14)


def test_hsb_sample_slope_shrinks_more_than_intercept():
    school, cses, mathach = zip(
        *list(csv.reader(io.StringIO(datasets.hsb_sample())))[1:])
    spec = ki.MixedSpec(
        np.column_stack([np.ones(len(cses)), np.array(cses, dtype=float)]),
        np.array(mathach, dtype=float), school)
    g_mat = np.diag([6.0, 0.05])        # intercepts vary, slopes barely
    gls = ki.gls_fixed(spec, g_mat)
    blues = ki.cluster_blues(spec)
    bp = ki.blup(blues["beta"], blues["s_mat"], gls["beta"], g_mat)["beta"]
    rel = ki.relative_shrinkage(blues["beta"], bp)
    assert rel[1] > rel[0]


def test_gls_fixed_rejects_an_indefinite_g():
    rng = np.random.default_rng(15)
    spec = ki.MixedSpec(*_toy_clusters(rng, m=3))
    with pytest.raises(nk.IndefiniteError):
        ki.gls_fixed(spec, np.diag([-1.0, 1.0]))
    ki.gls_fixed(spec, np.diag([0.0, 1.0]))       # PSD is enough


@pytest.mark.parametrize("sizes,sigma2,singular", [
    ([1, 2, 2], 0.0, False), ([1, 2, 3], 0.0, True), ([1, 3, 5], 1.0, False)])
def test_gls_singular_v(sizes, sigma2, singular):
    # with sigma^2 = 0, V_i = X_i G X_i' is singular exactly when n_i > p;
    # a one-row cluster's V_i is a positive scalar
    rng = np.random.default_rng(16)
    x, y, groups = _mixed_clusters(rng, sizes, 0.0, 1.0, 0.5)
    g_mat = random_pd(rng, 2, scale=0.5)
    spec = ki.MixedSpec(x, y, groups)
    if singular:
        with pytest.raises(ValueError, match="cluster 2: V is singular"):
            ki.gls_fixed(spec, g_mat, sigma2)
        # the same clusters under text labels name the singular one, now
        # first in label order, by its label
        named = ki.MixedSpec(x, y, [("c", "b", "a")[k] for k in groups])
        with pytest.raises(ValueError, match="cluster a: V is singular"):
            ki.gls_fixed(named, g_mat, sigma2)
        return
    vi_x = np.linalg.solve(_block_v(_blocks(spec), g_mat, sigma2), x)
    want = np.linalg.solve(x.T @ vi_x, vi_x.T @ y)
    _close(ki.gls_fixed(spec, g_mat, sigma2)["beta"], want, 1e-10)


# Slow per-cluster copies of MixedSpec.error_variance, cluster_blues,
# gls_fixed and blup as they were before the stacked QR: the oracle for
# the stacked rewrite.

def _reference_mixed(blocks, g_mat=None):
    """The fits of the clusters given as a list of (X_i, y_i)."""
    rss, df = 0.0, 0
    for x, y in blocks:
        coef, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
        r = y - x @ coef
        rss += float(r @ r)
        sv = np.linalg.svd(x, compute_uv=False)
        df += len(y) - int(np.sum(sv > 1e-10 * sv[0]))
    if df <= 0:
        raise ValueError("no residual degrees of freedom for sigma^2")
    s2 = rss / df
    index, blues, s_mats = [], [], []
    for i, (x, y) in enumerate(blocks):
        sv = np.linalg.svd(x, compute_uv=False)
        if len(y) < x.shape[1] or sv[-1] <= 1e-10 * sv[0]:
            continue
        xtx_inv = np.linalg.inv(x.T @ x)
        index.append(i)
        blues.append(xtx_inv @ x.T @ y)
        s_mats.append(s2 * xtx_inv)
    if g_mat is None:
        betas = np.array(blues)
        if betas.shape[0] < 2:
            raise ValueError("need at least two full-rank clusters")
        dev = betas - betas.mean(axis=0)
        raw = dev.T @ dev / (betas.shape[0] - 1)
        raw -= sum(s_mats) / betas.shape[0]
        g_mat = nk.clip_psd(raw)
    a = None
    b = None
    for i, (x, y) in enumerate(blocks):
        v = x @ g_mat @ x.T + s2 * np.eye(len(y))
        sv = np.linalg.svd(v, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise ValueError(f"cluster {i}: V is singular")
        vi_x = np.linalg.solve(v, x)
        if a is None:
            a = np.zeros((x.shape[1], x.shape[1]))
            b = np.zeros(x.shape[1])
        a += x.T @ vi_x
        b += vi_x.T @ y
    cov = np.linalg.inv(a)
    gls = cov @ b
    blups = []
    for beta, s_mat in zip(blues, s_mats):
        gain = np.linalg.solve(s_mat + g_mat, g_mat).T
        blups.append(gls + gain @ (beta - gls))
    return {"sigma2": s2, "index": index,
            "blues": np.array(blues).reshape(-1, 2),
            "s_mats": np.array(s_mats).reshape(-1, 2, 2), "g_mat": g_mat,
            "gls": gls, "gls_cov": 0.5 * (cov + cov.T),
            "blups": np.array(blups).reshape(-1, 2)}


def _fit_mixed(spec, g_mat=None):
    """The blup subcommand's path through the library."""
    blues = ki.cluster_blues(spec)
    if g_mat is None:
        g_mat = ki.estimate_g_moments(blues)
    gls = ki.gls_fixed(spec, g_mat, blues["sigma2"])
    b, s_mats = blues["beta"], blues["s_mat"]
    return {"sigma2": blues["sigma2"], "index": blues["index"],
            "skipped": blues["skipped"], "blues": b, "s_mats": s_mats,
            "g_mat": g_mat, "gls": gls["beta"], "gls_cov": gls["cov"],
            "blups": ki.blup(b, s_mats, gls["beta"], g_mat)["beta"]}


def _close(got, want, rel, scale=0.0):
    """got == want within rel times the larger of scale and max|want|."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= \
        rel * np.abs(want).max(initial=scale)


def _mixed_clusters(rng, sizes, centre, spread, slope_sd, constant=()):
    """(x, y, groups): clusters of y = b_i0 + b_i1 x + e with the given
    sizes, stacked in cluster order and labelled 0, 1, ...; the clusters
    listed in constant have one x value repeated."""
    xs, ys, groups = [], [], []
    for i, n in enumerate(sizes):
        x = centre + spread * rng.standard_normal(n)
        if i in constant:
            x[:] = x[0]
        b = [10.0 + 2.0 * rng.standard_normal(),
             1.0 + slope_sd * rng.standard_normal()]
        ys.append(b[0] + b[1] * x + rng.standard_normal(n))
        xs.append(np.column_stack([np.ones(n), x]))
        groups += [i] * int(n)
    return np.vstack(xs), np.concatenate(ys), groups


@pytest.mark.parametrize("size, constant", [(1, False), (3, True)])
def test_error_variance_charges_each_cluster_its_rank(size, constant):
    # 9 rows in two full-rank clusters leave 9 - 2 - 2 = 5 degrees of
    # freedom. A one-row cluster has rank 1 and residual 0, so it leaves
    # sigma^2 as it was; a cluster with one x value has rank 1 and adds
    # n_k - 1 degrees of freedom and its residual about its mean
    rng = np.random.default_rng(7)
    x, y, groups = _mixed_clusters(rng, [4, 5], 1.0, 2.0, 0.5)
    base = ki.MixedSpec(x, y, groups).error_variance()
    rss = 5 * base
    x2, y2, _ = _mixed_clusters(rng, [size], 1.0, 2.0, 0.5,
                                constant=(0,) if constant else ())
    spec = ki.MixedSpec(np.vstack([x, x2]), np.concatenate([y, y2]),
                        groups + [2] * size)
    assert spec.rank.tolist() == [2, 2, 1]
    want = (rss + float(((y2 - y2.mean()) ** 2).sum())) / (5 + size - 1)
    assert spec.error_variance() == pytest.approx(want, rel=1e-12)
    if size == 1:
        assert spec.error_variance() == base


def _rank_ratio(x, scaled):
    if scaled:
        x = x / np.where(np.linalg.norm(x, axis=0) > 0,
                         np.linalg.norm(x, axis=0), 1.0)
    sv = np.linalg.svd(x, compute_uv=False)
    return sv[-1] / sv[0] if len(sv) == x.shape[1] else 0.0


@settings(max_examples=80, deadline=None, database=None)
@given(seed=hs.integers(0, 2 ** 32 - 1),
       sizes=hs.lists(hs.integers(1, 16), min_size=3, max_size=12),
       constant=hs.sets(hs.integers(0, 11), max_size=2),
       g_kind=hs.sampled_from(["moment", "zero", "singular", "given"]))
def test_mixed_fits_match_per_cluster_reference(seed, sizes, constant,
                                                g_kind):
    rng = np.random.default_rng(seed)
    spec = ki.MixedSpec(*_mixed_clusters(rng, sizes, rng.normal(0.0, 3.0),
                                         rng.uniform(0.3, 3.0), 0.5,
                                         constant))
    blocks = _blocks(spec)
    g_mat = {"moment": None, "zero": np.zeros((2, 2)),
             "singular": np.diag([rng.uniform(0.1, 5.0), 0.0]),
             "given": random_pd(rng, 2, scale=0.5)}[g_kind]
    # the two rank tests (unscaled before, column-scaled now) agree away
    # from their common 1e-10 threshold
    for x, _ in blocks:
        for scaled in (False, True):
            assume(not 1e-13 < _rank_ratio(x, scaled) < 1e-7)
    try:
        want = _reference_mixed(blocks, g_mat)
    except (ValueError, np.linalg.LinAlgError) as exc:
        with pytest.raises((ValueError, np.linalg.LinAlgError)):
            _fit_mixed(spec, g_mat)
        return
    got = _fit_mixed(spec, g_mat)
    assert got["index"] == want["index"]
    assert got["skipped"] == sorted(set(range(len(blocks)))
                                    - set(want["index"]))
    _close(got["sigma2"], want["sigma2"], 1e-12)
    # the reference inverts X_i'X_i, so its error grows as cond(X_i)^2
    kappa = max([np.linalg.cond(blocks[i][0]) ** 2 for i in want["index"]],
                default=1.0)
    for key in ("blues", "s_mats", "g_mat", "gls", "gls_cov", "blups"):
        _close(got[key], want[key], 1e-12 * max(kappa, 1e3))
    # S_i = sigma^2 W W' is symmetric by construction
    assert np.array_equal(got["s_mats"], got["s_mats"].swapaxes(1, 2))


def _moment_raw_g(spec):
    fit = _reference_mixed(_blocks(spec), np.zeros((2, 2)))
    dev = fit["blues"] - fit["blues"].mean(axis=0)
    return dev.T @ dev / (len(dev) - 1) - fit["s_mats"].mean(axis=0)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=hs.integers(0, 2 ** 32 - 1),
       log_s=hs.floats(-150.0, 150.0),
       moment=hs.booleans())
@example(seed=141337, log_s=-6.0, moment=False)
def test_mixed_fits_scale_with_x(seed, log_s, moment):
    # x -> s x scales each slope by 1/s and the G and GLS covariances by
    # D^-1 . D^-1 with D = diag(1, s); sigma^2 does not move
    rng = np.random.default_rng(seed)
    sizes = rng.integers(4, 16, size=10)
    x, y, groups = _mixed_clusters(rng, sizes, rng.normal(0.0, 1.0),
                                   rng.uniform(0.5, 2.0), 1.0)
    spec = ki.MixedSpec(x, y, groups)
    g_mat = random_pd(rng, 2, scale=0.5)
    if moment:
        # eigen-clipping an indefinite moment G is not equivariant
        lam = np.linalg.eigvalsh(_moment_raw_g(spec))
        assume(lam[0] > 1e-3 * lam[1])
        g_mat = None
    s = 10.0 ** log_s
    d = np.array([1.0, s])
    base = _fit_mixed(spec, g_mat)
    got = _fit_mixed(ki.MixedSpec(x * d, y, groups),
                     None if moment else g_mat / np.outer(d, d))
    _close(got["sigma2"], base["sigma2"], 2e-14)
    _close(got["blues"] * d, base["blues"], 2e-14)
    _close(got["g_mat"] * np.outer(d, d), base["g_mat"], 2e-14)
    _close(got["gls"] * d, base["gls"], 2e-14)
    _close(got["gls_cov"] * np.outer(d, d), base["gls_cov"], 2e-14)
    # S + G is equilibrated before its LU, so the pivots do not follow s;
    # without it the pinned example's BLUPs are 1.66e-11 apart
    _close(got["blups"] * d, base["blups"], 2e-14)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=hs.integers(0, 2 ** 32 - 1),
       shift=hs.floats(-1e3, 1e3),
       moment=hs.booleans())
@example(seed=600, shift=-950.9555356427719, moment=False)
@example(seed=7811467, shift=-999.0, moment=True)
def test_mixed_fits_shift_with_x(seed, shift, moment):
    # x -> x + c leaves every slope, sigma^2 and the slope variance of G
    # unchanged and moves each intercept to b0 - c b1. The two examples
    # put the GLS slope 4e-9 and 1e-9 off when it is solved from the
    # accumulated normal equations sum X_i'V_i^{-1}X_i (1e-12 as least
    # squares on the whitened blocks).
    rng = np.random.default_rng(seed)
    sizes = rng.integers(4, 16, size=10)
    sd = rng.uniform(0.5, 2.0)
    x, y, groups = _mixed_clusters(rng, sizes, rng.normal(0.0, 1.0), sd,
                                   1.0)
    spec = ki.MixedSpec(x, y, groups)
    g_mat = random_pd(rng, 2, scale=0.5)
    if moment:
        lam = np.linalg.eigvalsh(_moment_raw_g(spec))
        assume(lam[0] > 1e-3 * lam[1])
        g_mat = None
    c = shift * sd
    t_inv = np.array([[1.0, -c], [0.0, 1.0]])
    base = _fit_mixed(spec, g_mat)
    got = _fit_mixed(ki.MixedSpec(x + [0.0, c], y, groups),
                     None if moment else t_inv @ g_mat @ t_inv.T)
    _close(got["sigma2"], base["sigma2"], 1e-9)
    for key in ("blues", "gls", "blups"):
        _close(got[key][..., 1], base[key][..., 1], 1e-9)
        # the intercept at the old origin, x + c = c
        at_origin = got[key][..., 0] + c * got[key][..., 1]
        scale = np.abs(base[key][..., 0]) + np.abs(c * base[key][..., 1])
        assert np.all(np.abs(at_origin - base[key][..., 0])
                      <= 1e-9 * scale.max())
    _close(got["g_mat"][1, 1], base["g_mat"][1, 1], 1e-9)
    _close(got["gls_cov"][1, 1], base["gls_cov"][1, 1], 1e-9)


def _s_dist(s_mats, d):
    """sqrt(d_i' S_i^-1 d_i) per cluster: a scale-free length of d_i."""
    d = np.broadcast_to(d, s_mats.shape[:2])
    return np.sqrt(np.einsum("ki,ki->k", d,
                             np.linalg.solve(s_mats, d[..., None])[..., 0]))


def _blups_at(spec, blues, t):
    """The GLS pool and the full-rank clusters' BLUPs for G = t I."""
    g_mat = t * np.eye(2)
    gls = ki.gls_fixed(spec, g_mat, blues["sigma2"])["beta"]
    return gls, ki.blup(blues["beta"], blues["s_mat"], gls, g_mat)["beta"]


@settings(max_examples=80, deadline=None, database=None)
@given(data=strategies.clustered_data())
def test_blup_tends_to_the_blue_as_g_grows(data):
    # with G = t I, |BLUP - BLUE| <= lam_max / (lam_max + t) |GLS - BLUE|
    # in the metric of S_i, whose largest eigenvalue is lam_max. t is as
    # large as keeps V_i = t X_i X_i' + sigma^2 I nonsingular: 1e10 sigma^2
    # over the largest |X_i|^2
    spec = ki.MixedSpec(*data)
    blues = ki.cluster_blues(spec)
    s_mats, blue = blues["s_mat"], blues["beta"]
    t = 1e10 * blues["sigma2"] / (
        np.linalg.norm(spec.r, ord=2, axis=(1, 2)) ** 2).max()
    gls, bp = _blups_at(spec, blues, t)
    lam = np.linalg.eigvalsh(s_mats)[:, -1]
    assert np.all(_s_dist(s_mats, bp - blue)
                  <= (lam / (lam + t) + 1e-6) * _s_dist(s_mats, gls - blue)
                  + 1e-10 * _s_dist(s_mats, gls))


@settings(max_examples=80, deadline=None, database=None)
@given(data=strategies.clustered_data())
def test_blup_tends_to_the_gls_as_g_vanishes(data):
    # with G = t I, |BLUP - GLS| <= t / (lam_min + t) |BLUE - GLS| in the
    # metric of S_i, whose smallest eigenvalue is lam_min; t is 1e-8 times
    # the smallest lam_min
    spec = ki.MixedSpec(*data)
    blues = ki.cluster_blues(spec)
    s_mats, blue = blues["s_mat"], blues["beta"]
    lam = np.linalg.eigvalsh(s_mats)[:, 0]
    t = 1e-8 * lam.min()
    gls, bp = _blups_at(spec, blues, t)
    assert np.all(_s_dist(s_mats, bp - gls)
                  <= (t / (lam + t) + 1e-6) * _s_dist(s_mats, blue - gls)
                  + 1e-10 * _s_dist(s_mats, gls))


@settings(max_examples=60, deadline=None, database=None)
@given(data=strategies.clustered_data(), seed=strategies.seeds)
def test_interleaving_of_the_cluster_rows_changes_nothing(data, seed):
    # the clusters' rows dealt into another interleaving, each cluster's
    # rows in their own order, make the same stack: the BLUEs, sigma^2,
    # the moment G and the GLS pool are bit-identical
    spec = ki.MixedSpec(*data)
    codes = np.random.default_rng(seed).permutation(
        np.repeat(np.arange(len(spec.labels)), spec.counts))
    order = np.argsort(codes, kind="stable")
    x, y = np.empty_like(spec.x), np.empty_like(spec.y)
    x[order], y[order] = spec.x, spec.y
    other = ki.MixedSpec(x, y, [spec.labels[k] for k in codes])
    assert other.labels == spec.labels
    got, want = _fit_mixed(other), _fit_mixed(spec)
    assert got["index"] == want["index"]
    for key in ("sigma2", "blues", "s_mats", "g_mat", "gls", "gls_cov",
                "blups"):
        assert np.array_equal(got[key], want[key]), key


# ------------------------------------------------------------------- meta

def test_meta_fixed_single_study(berkey_studies):
    one = ki.meta_fixed(ki.StudyStack(berkey_studies.y[:1],
                                      berkey_studies.s_mat[:1]))
    assert one["beta"] == pytest.approx(berkey_studies.y[0])
    assert one["cov"] == pytest.approx(berkey_studies.s_mat[0])


def test_meta_fixed_equal_covariances():
    s_mat = np.array([[1.0, 0.3], [0.3, 2.0]])
    out = ki.meta_fixed(ki.StudyStack([[1.0, 0.0], [3.0, 4.0]],
                                      [s_mat, s_mat]))
    assert out["beta"] == pytest.approx([2.0, 2.0])


def test_meta_fixed_berkey(berkey_studies):
    out = ki.meta_fixed(berkey_studies)
    assert out["beta"][0] == pytest.approx(0.307, abs=0.005)
    assert out["beta"][1] == pytest.approx(-0.394, abs=0.005)


def test_meta_random_reductions(berkey_studies):
    fixed = ki.meta_fixed(berkey_studies)
    re0 = ki.meta_random(berkey_studies, np.zeros((2, 2)))
    assert re0["beta"] == pytest.approx(fixed["beta"], abs=1e-12)
    # continuity at Delta -> 0
    eps = ki.meta_random(berkey_studies, 1e-8 * np.eye(2))
    assert np.abs(eps["beta"] - fixed["beta"]).max() < 1e-5
    # equal-weight limit
    big = ki.meta_random(berkey_studies, 1e9 * np.eye(2))
    ybar = berkey_studies.y.mean(axis=0)
    assert big["beta"] == pytest.approx(ybar, abs=1e-6)


def test_meta_random_berkey_mom(berkey_studies):
    delta = ki.estimate_delta_mom(berkey_studies)
    corr = delta[0, 1] / np.sqrt(delta[0, 0] * delta[1, 1])
    assert 0.4 <= corr <= 0.8
    out = ki.meta_random(berkey_studies, delta)
    assert out["beta"][0] == pytest.approx(0.353, abs=0.05)
    assert out["beta"][1] == pytest.approx(-0.339, abs=0.05)


def test_meta_blup_properties(berkey_studies):
    delta = ki.estimate_delta_mom(berkey_studies)
    re = ki.meta_random(berkey_studies, delta)
    blups = ki.meta_blup(berkey_studies, re["beta"], re["cov"], delta)
    for y, s_mat, beta, cov in zip(berkey_studies.y, berkey_studies.s_mat,
                                   blups["beta"], blups["cov"]):
        # matrix-weighted average identity
        resid = np.linalg.solve(s_mat, beta - y) \
            + np.linalg.solve(delta, beta - re["beta"])
        assert np.abs(resid).max() < 1e-9
        # cov_i dominates V in the PSD order
        lam = np.linalg.eigvalsh(cov - re["cov"])
        assert lam.min() > -1e-12


def test_meta_blup_degenerate_cases(berkey_studies):
    re = ki.meta_fixed(berkey_studies)
    blups = ki.meta_blup(berkey_studies, re["beta"], re["cov"],
                         np.zeros((2, 2)))
    for beta, cov in zip(blups["beta"], blups["cov"]):
        assert beta == pytest.approx(re["beta"])
        assert cov == pytest.approx(re["cov"])
    # a perfectly measured study keeps its own estimate
    tiny = ki.StudyStack([[5.0, -1.0]], [1e-12 * np.eye(2)])
    delta = np.eye(2)
    out = ki.meta_blup(tiny, [0.0, 0.0], np.zeros((2, 2)), delta)
    assert out["beta"][0] == pytest.approx([5.0, -1.0], abs=1e-9)


def test_study_stack_names_a_bad_study():
    s_mats = np.array([np.eye(2), [[0.01, 0.01], [0.01, 0.01]], np.eye(2)])
    with pytest.raises(nk.NotPositiveDefiniteError,
                       match="^S_i of study t2 is not positive definite: "
                             "eigenvalue 1 ") as err:
        ki.StudyStack(np.zeros((3, 2)), s_mats, labels=["t1", "t2", "t3"])
    assert err.value.at == (1,)
    s_mats[1] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(nk.IndefiniteError, match="^S_i of study t2 is "):
        ki.StudyStack(np.zeros((3, 2)), s_mats, labels=["t1", "t2", "t3"])
    s_mats[1] = [[1.0, 0.5], [0.0, 1.0]]
    with pytest.raises(nk.NotSymmetricError, match="^S_i of study study2 "):
        ki.StudyStack(np.zeros((3, 2)), s_mats)


@pytest.mark.parametrize("kwargs, message", [
    ({"y": np.zeros(2), "s_mat": np.eye(2)[None]}, "y \\(k, p\\)"),
    ({"y": np.zeros((0, 2)), "s_mat": np.zeros((0, 2, 2))}, "k > 0"),
    ({"y": np.zeros((3, 2)), "s_mat": np.eye(2)[None]}, "S \\(k, p, p\\)"),
    ({"y": np.zeros((1, 2)), "s_mat": np.eye(2)[None],
      "x_mat": np.eye(3)[None]}, "design rows"),
    ({"y": np.zeros((1, 2)), "s_mat": np.eye(2)[None],
      "labels": ["a", "b"]}, "one label per study"),
])
def test_study_stack_rejects_misshapen_input(kwargs, message):
    with pytest.raises(nk.InputError, match=message):
        ki.StudyStack(**kwargs)


def test_meta_blup_maps_v_through_a_design_of_fewer_columns():
    # V is q x q and Delta p x p: the fixed part X_i beta_re of a BLUP has
    # covariance X_i V X_i', p x p; a V of any other shape is rejected
    stack = ki.StudyStack([[1.0, 2.0], [0.5, 1.0]], [np.eye(2), np.eye(2)],
                          x_mat=np.ones((2, 2, 1)))
    pool = ki.meta_random(stack, np.eye(2))
    out = ki.meta_blup(stack, pool["beta"], pool["cov"], 1e-12 * np.eye(2))
    assert out["cov"] == pytest.approx(
        np.broadcast_to(pool["cov"][0, 0], (2, 2, 2)), rel=1e-9)
    with pytest.raises(nk.InputError, match="V must be 1 x 1"):
        ki.meta_blup(stack, pool["beta"], np.eye(2), np.eye(2))


def test_meta_blup_covariance_of_a_square_design():
    # X_i = 2I, S_i = 0.2I and Delta ~ 0: each BLUP is 2 beta_re, with
    # covariance 4V
    rng = np.random.default_rng(29)
    stack = ki.StudyStack(rng.standard_normal((6, 2)),
                          np.broadcast_to(0.2 * np.eye(2), (6, 2, 2)),
                          x_mat=np.broadcast_to(2.0 * np.eye(2), (6, 2, 2)))
    delta = 1e-12 * np.eye(2)
    pool = ki.meta_random(stack, delta)
    out = ki.meta_blup(stack, pool["beta"], pool["cov"], delta)
    assert pool["cov"] == pytest.approx(0.2 / 24 * np.eye(2), rel=1e-9)
    for beta, cov in zip(out["beta"], out["cov"]):
        assert beta == pytest.approx(2.0 * pool["beta"], abs=1e-10)
        assert cov == pytest.approx(4.0 * pool["cov"], rel=1e-9)


def test_estimate_delta_mom_needs_identity_designs():
    # 40 studies y_i = X_i beta + 0.01 e_i with random designs and no
    # between-study spread: the spread of the y_i is that of X_i beta, not
    # Delta, so the moment estimate is refused
    rng = np.random.default_rng(31)
    x_mats = rng.standard_normal((40, 2, 2))
    ys = x_mats @ np.ones(2) + 0.01 * rng.standard_normal((40, 2))
    s_mats = np.broadcast_to(1e-4 * np.eye(2), (40, 2, 2))
    with pytest.raises(nk.InputError, match="identity designs"):
        ki.estimate_delta_mom(ki.StudyStack(ys, s_mats, x_mats))
    explicit = ki.StudyStack(ys, s_mats, np.broadcast_to(np.eye(2),
                                                         (40, 2, 2)))
    assert ki.estimate_delta_mom(explicit).tobytes() == \
        ki.estimate_delta_mom(ki.StudyStack(ys, s_mats)).tobytes()


# Slow per-study copies of the meta-analysis GLS and BLUPs as they were
# before the stacked solves: the oracle for the rewrite.

def _reference_meta_gls(stacks, extra=None):
    a = None
    b = None
    for stack in stacks:
        for y, s_mat, x_mat in zip(stack.y, stack.s_mat, stack.x_mat):
            sigma = s_mat if extra is None else s_mat + extra
            si_x = np.linalg.solve(sigma, x_mat)
            if a is None:
                k = x_mat.shape[1]
                a = np.zeros((k, k))
                b = np.zeros(k)
            a += x_mat.T @ si_x
            b += si_x.T @ y
    cov = np.linalg.inv(a)
    return {"beta": cov @ b, "cov": 0.5 * (cov + cov.T)}


def _reference_meta_blup(stack, beta_re, v_cov, delta):
    out = []
    for y, s_mat, x_mat in zip(stack.y, stack.s_mat, stack.x_mat):
        sigma = s_mat + delta
        mean_i = x_mat @ beta_re
        adj = delta @ np.linalg.solve(sigma, y - mean_i)
        cov_i = x_mat @ v_cov @ x_mat.T + delta \
            - delta @ np.linalg.solve(sigma, delta)
        out.append({"beta": mean_i + adj, "cov": 0.5 * (cov_i + cov_i.T)})
    return out


@settings(max_examples=60, deadline=None, database=None)
@given(seed=hs.integers(0, 2 ** 32 - 1), n=hs.integers(1, 10),
       p=hs.integers(1, 3), design=hs.booleans(),
       delta_kind=hs.sampled_from(["zero", "singular", "pd"]))
def test_meta_fits_match_per_study_reference(seed, n, p, design,
                                             delta_kind):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, p + 1)) if design else p
    ys, s_mats, x_mats = [], [], []
    for _ in range(n):
        ys.append(2.0 * rng.standard_normal(p))
        s_mats.append(random_pd(rng, p, scale=0.3))
        if design:
            x_mats.append(rng.standard_normal((p, k)))
    stack = ki.StudyStack(ys, s_mats, x_mats if design else None)
    assume(n * p >= k)
    root = rng.standard_normal((p, 1 if delta_kind == "singular" else p))
    delta = 0.0 if delta_kind == "zero" else 1.0
    delta = delta * root @ root.T
    # a pooled estimate near zero is the difference of larger effects
    size = np.abs(stack.y).max()
    for got, want in ((ki.meta_fixed(stack),
                       _reference_meta_gls([stack])),
                      (ki.meta_random(stack, delta),
                       _reference_meta_gls([stack], delta))):
        cond = np.linalg.cond(want["cov"])
        assume(cond < 1e8)
        _close(got["beta"], want["beta"], 1e-13 * cond, size)
        _close(got["cov"], want["cov"], 1e-13 * cond)
    got = ki.meta_blup(stack, want["beta"], want["cov"], delta)
    ref = _reference_meta_blup(stack, want["beta"], want["cov"], delta)
    assert got["beta"].shape == (n, p) and got["cov"].shape == (n, p, p)
    for i, w in enumerate(ref):
        _close(got["beta"][i], w["beta"], 1e-10, size)
        _close(got["cov"][i], w["cov"], 1e-10)


# The meta laws on generated stacks: S_i of set condition number and scale,
# with identity or random designs

EPS = np.finfo(float).eps
SQUARE_DESIGNS = hs.sampled_from(["identity", "square"])


def _between_study(data, stack, log_cond=hs.floats(0.0, 3.0)):
    """A positive-definite D for the stack, within 1e3 of the S_i's scale."""
    p = stack.y.shape[1]
    log_s = float(np.log10(np.abs(stack.s_mat).max()))
    d_mat, _, _ = data.draw(strategies.pd_matrices(
        p=hs.just(p), log_cond=log_cond,
        log_scale=hs.floats(log_s - 3.0, log_s + 3.0)))
    return d_mat


def _norms(a):
    return np.linalg.norm(a, axis=-1)


@settings(max_examples=60, deadline=None, database=None)
@given(strategies.study_stacks())
def test_meta_random_with_zero_delta_is_meta_fixed(stack):
    p = stack.y.shape[1]
    fixed = ki.meta_fixed(stack)
    re0 = ki.meta_random(stack, np.zeros((p, p)))
    for key in ("beta", "cov"):
        assert re0[key].tobytes() == fixed[key].tobytes()


@settings(max_examples=40, deadline=None, database=None)
@given(strategies.study_stacks(design=SQUARE_DESIGNS), hs.data())
def test_meta_blup_limits_in_the_scale_of_delta(stack, data):
    # with Delta = t D the BLUP moves from X_i beta_re (t -> 0) to y_i
    # (t -> infinity): |BLUP_i - X_i beta_re| <= t |D| |S_i^-1| |r_i| and
    # |BLUP_i - y_i| <= |S_i| |r_i| / (t lam_min(D)), r_i = y_i - X_i
    # beta_re, up to rounding in the solve with S_i + t D
    d_mat = _between_study(data, stack)
    re = ki.meta_random(stack, d_mat)
    mean = stack.x_mat @ re["beta"]
    r = _norms(stack.y - mean)
    lam_s = np.linalg.eigvalsh(stack.s_mat)
    lam_d = np.linalg.eigvalsh(d_mat)
    for t in (1e-12, 1e-8, 1e-4, 1e4, 1e8, 1e12):
        got = ki.meta_blup(stack, re["beta"], re["cov"], t * d_mat)["beta"]
        rounding = 8 * EPS * np.linalg.cond(stack.s_mat + t * d_mat) \
            * (r + _norms(mean) + _norms(stack.y))
        if t < 1:
            bound = t * lam_d[-1] / lam_s[:, 0] * r
            assert np.all(_norms(got - mean) <= bound + rounding)
        else:
            bound = lam_s[:, -1] / (t * lam_d[0]) * r
            assert np.all(_norms(got - stack.y) <= bound + rounding)


@settings(max_examples=40, deadline=None, database=None)
@given(strategies.study_stacks(design=SQUARE_DESIGNS), hs.data())
def test_meta_blup_covariance_dominates_v(stack, data):
    # cov_i - X_i V X_i' = Delta - Delta Sigma_i^-1 Delta is PSD, Sigma_i
    # = S_i + Delta, up to rounding in X_i V X_i' + Delta and in the solve
    # with Sigma_i
    d_mat = _between_study(data, stack, log_cond=hs.floats(0.0, 6.0))
    re = ki.meta_random(stack, d_mat)
    cov = ki.meta_blup(stack, re["beta"], re["cov"], d_mat)["cov"]
    xvx = stack.x_mat @ re["cov"] @ stack.x_mat.swapaxes(1, 2)
    lam = np.linalg.eigvalsh(cov - xvx)[:, 0]
    norm_d = np.linalg.norm(d_mat, 2)
    tol = 16 * EPS * (np.linalg.norm(xvx, 2, axis=(1, 2)) + norm_d
                      * np.linalg.cond(stack.s_mat + d_mat))
    assert np.all(lam >= -tol)


def test_meta_fixed_studies_of_different_lengths():
    # studies reporting one or two outcomes on a common two-column design:
    # one stack per outcome length
    rng = np.random.default_rng(17)
    draws = [(rng.standard_normal(2), random_pd(rng, 2)),
             rng.standard_normal(1),
             (rng.standard_normal(2), random_pd(rng, 2)),
             rng.standard_normal(1)]
    long_ = ki.StudyStack([draws[0][0], draws[2][0]],
                          [draws[0][1], draws[2][1]])
    short = ki.StudyStack([draws[1], draws[3]], [[[0.5]], [[0.7]]],
                          x_mat=[[[1.0, 0.0]], [[0.0, 1.0]]])
    got = ki.meta_fixed(long_, short)
    want = _reference_meta_gls([long_, short])
    _close(got["beta"], want["beta"], 1e-12)
    _close(got["cov"], want["cov"], 1e-12)


RANDOM_EFFECTS_FITS = {
    "meta_random": lambda stack, delta: ki.meta_random(stack, delta),
    "meta_blup": lambda stack, delta: ki.meta_blup(stack, np.zeros(2),
                                                   np.eye(2), delta),
    "cli": lambda stack, delta: cli.main([
        "meta", "--data", "berkey", "--model", "random", "--delta",
        ";".join(",".join(f"{v:g}" for v in row) for row in delta)]),
}


@pytest.mark.parametrize("larger", [False, True])
@pytest.mark.parametrize("fit", sorted(RANDOM_EFFECTS_FITS))
def test_random_effects_reject_studies_of_different_lengths(fit, larger):
    # a stack has one outcome length p, so random-effects pooling can only
    # meet a length mismatch in Delta: p - 1 or p + 1 square is an input
    # error, exit 2 on the command line
    rng = np.random.default_rng(23)
    stack = ki.StudyStack(rng.standard_normal((3, 2)),
                          [random_pd(rng, 2) for _ in range(3)])
    delta = 0.3 * np.eye(3 if larger else 1)
    if fit == "cli":
        assert RANDOM_EFFECTS_FITS[fit](stack, delta) == 2
        return
    with pytest.raises(nk.InputError, match="Delta must be 2 x 2"):
        RANDOM_EFFECTS_FITS[fit](stack, delta)


def test_estimate_delta_mom_cases():
    rng = np.random.default_rng(11)
    # duplicated studies with tiny S: MoM recovers the sample covariance
    ys = rng.standard_normal((6, 2)) * 2.0
    stack = ki.StudyStack(ys, np.broadcast_to(1e-8 * np.eye(2), (6, 2, 2)))
    delta = ki.estimate_delta_mom(stack)
    assert delta == pytest.approx(np.cov(ys.T, ddof=1), abs=1e-6)
    with pytest.raises(ValueError):
        ki.estimate_delta_mom(ki.StudyStack(ys[:1], stack.s_mat[:1]))


def test_estimate_delta_mom_null_truth():
    # with Delta = 0 truth the estimate collapses toward zero
    rng = np.random.default_rng(12)
    med = []
    for _ in range(100):
        s_mat = np.eye(2)
        ys = rng.multivariate_normal([0.0, 0.0], s_mat, size=8)
        delta = ki.estimate_delta_mom(
            ki.StudyStack(ys, np.broadcast_to(s_mat, (8, 2, 2))))
        med.append(np.linalg.eigvalsh(delta).max())
    assert np.median(med) < 0.6
