import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ellipstat import gellipsoid as ge
from ellipstat import numkernel as nk

import strategies
from conftest import random_pd

C1 = np.array([[6.0, 2.0, 1.0],
               [2.0, 3.0, 2.0],
               [1.0, 2.0, 2.0]])
C2 = np.array([[6.0, 2.0, 0.0],
               [2.0, 3.0, 0.0],
               [0.0, 0.0, 0.0]])
W_DEMO = np.array([[3.25, 3.5], [3.5, 5.0]])
A_DEMO = np.array([[1.0, 1.5], [2.0, 1.0]])


def test_from_moment_unit_sphere():
    e = ge.from_moment(np.eye(3))
    assert e.radii == pytest.approx([1.0, 1.0, 1.0])
    assert ge.signature(e).as_tuple() == (3, 0, 0)


def test_appendix_signatures():
    assert ge.signature(ge.from_moment(C1)).as_tuple() == (3, 0, 0)
    flat = ge.from_moment(C2)
    assert ge.signature(flat).as_tuple() == (2, 1, 0)
    assert ge.signature(ge.dual(flat)).as_tuple() == (2, 0, 1)
    assert ge.signature(ge.from_precision(C2)).as_tuple() == (2, 0, 1)


def test_from_precision_diagonal_radii():
    e = ge.from_precision(np.diag([4.0, 0.25]))
    assert e.radii == pytest.approx([2.0, 0.5])


def test_from_generator_matches_moment():
    e_gen = ge.from_generator(A_DEMO)
    e_mom = ge.from_moment(A_DEMO @ A_DEMO.T)
    assert e_gen.radii == pytest.approx(e_mom.radii, rel=1e-12)
    assert np.abs(np.abs(e_gen.frame) - np.abs(e_mom.frame)).max() < 1e-10


def test_from_generator_rank_one():
    a = np.outer([1.0, 2.0, 2.0], [0.5])      # p x 1 generator
    e = ge.from_generator(a)
    assert ge.signature(e).as_tuple() == (1, 2, 0)


def test_generator_representation_nonuniqueness():
    # B and C with B B^T = C C^T generate the same ellipsoid
    rng = np.random.default_rng(5)
    w = random_pd(rng, 3)
    b = nk.cholesky(w)
    _, c = nk.psd_sqrt(w)
    e_b = ge.from_generator(b)
    e_c = ge.from_generator(c)
    grid = rng.standard_normal((128, 3)) * np.sqrt(np.trace(w))
    for x in grid:
        assert ge.contains(e_b, x) == ge.contains(e_c, x)


def test_dual_involution():
    rng = np.random.default_rng(11)
    examples = [
        ge.from_moment(random_pd(rng, 4)),
        ge.from_moment(C2),
        ge.from_precision(C2),
        ge.GEllipsoid(np.zeros(3), np.eye(3),
                      np.array([np.inf, 1.0, 0.0])),
    ]
    for e in examples:
        back = ge.dual(ge.dual(e))
        assert np.array_equal(np.isinf(back.radii), np.isinf(e.radii))
        finite = np.isfinite(e.radii)
        assert back.radii[finite] == pytest.approx(
            e.radii[finite], abs=1e-12)


def test_signature_extremes():
    plane = ge.GEllipsoid(np.zeros(3), np.eye(3),
                          np.array([np.inf, np.inf, 0.0]))
    assert ge.signature(plane).as_tuple() == (0, 1, 2)


def test_linear_image_identity_and_scaling():
    e = ge.from_moment(C1)
    img = ge.linear_image(e, np.eye(3))
    assert img.radii == pytest.approx(e.radii, rel=1e-12)
    sphere = ge.from_moment(np.eye(3))
    assert ge.linear_image(sphere, 2 * np.eye(3)).radii == pytest.approx(
        [2.0, 2.0, 2.0])


def test_projection_shadow_flat():
    e = ge.from_moment(C1)
    p3 = np.diag([1.0, 1.0, 0.0])
    shadow = ge.project(e, p3)
    assert ge.signature(shadow).as_tuple() == (2, 1, 0)
    # shadow moment equals the leading 2x2 block of C1
    back = (shadow.frame * shadow.radii ** 2) @ shadow.frame.T
    assert back[:2, :2] == pytest.approx(C1[:2, :2], rel=1e-10)


def test_project_unit_circle_to_segment():
    # the printed P2 projects onto the x1 axis along (1, -1); its
    # transpose realizes the companion statement "onto the line x1 = x2".
    # Both give a segment of half-length sqrt(2).
    p2 = np.array([[1.0, 1.0], [0.0, 0.0]])
    circle = ge.from_moment(np.eye(2))
    seg = ge.project(circle, p2)
    assert ge.signature(seg).as_tuple() == (1, 1, 0)
    assert seg.radii[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert np.abs(seg.frame[:, 0]) == pytest.approx([1.0, 0.0])

    seg_t = ge.project(circle, p2.T)
    assert ge.signature(seg_t).as_tuple() == (1, 1, 0)
    assert seg_t.radii[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert np.abs(seg_t.frame[:, 0]) == pytest.approx(
        [1.0, 1.0] / np.sqrt(2.0))


def test_project_rejects_non_idempotent():
    with pytest.raises(ValueError):
        ge.project(ge.from_moment(np.eye(2)), np.array([[1.0, 0.2],
                                                        [0.0, 1.0]]))


def test_sphere_shadow_any_axis():
    sphere = ge.from_moment(4.0 * np.eye(3))
    for axis in range(3):
        p = np.zeros((3, 3))
        p[axis, axis] = 1.0
        shadow = ge.project(sphere, p)
        assert shadow.radii[0] == pytest.approx(2.0)


def test_image_law_on_boundary_points():
    rng = np.random.default_rng(23)
    for p in (2, 3):
        e = ge.from_moment(random_pd(rng, p), rng.standard_normal(p))
        l_mat = rng.standard_normal((p, p))
        img = ge.linear_image(e, l_mat)
        pts = ge.boundary_points(e, 256 if p == 2 else 1024)
        mapped = pts @ l_mat.T
        for x in mapped[::8]:
            assert ge.contains(img, x, tol=1e-8) == "boundary"


def test_signature_preserved_under_nonsingular_map():
    rng = np.random.default_rng(29)
    e = ge.GEllipsoid(np.zeros(3), np.eye(3), np.array([np.inf, 2.0, 0.0]))
    for _ in range(20):
        l_mat = rng.standard_normal((3, 3))
        if abs(np.linalg.det(l_mat)) < 0.1:
            continue
        img = ge.linear_image(e, l_mat)
        assert ge.signature(img).as_tuple() == ge.signature(e).as_tuple()


def test_unbounded_direction_annihilated_by_map():
    cyl = ge.GEllipsoid(np.zeros(3), np.eye(3), np.array([np.inf, 2.0, 1.0]))
    # map that kills the unbounded axis (frame column 0 = e1)
    l_mat = np.diag([0.0, 1.0, 1.0])
    img = ge.linear_image(cyl, l_mat)
    assert ge.signature(img).as_tuple() == (2, 1, 0)


def test_contains_classification():
    e = ge.from_moment(np.eye(2))
    assert ge.contains(e, [0.0, 0.0]) == "inside"
    assert ge.contains(e, [1.0, 0.0]) == "boundary"
    assert ge.contains(e, [1.5, 0.0]) == "outside"
    flat = ge.from_moment(np.diag([1.0, 0.0]))
    assert ge.contains(flat, [0.5, 0.0]) == "inside"
    assert ge.contains(flat, [0.5, 0.1]) == "outside"
    cyl = ge.from_precision(np.diag([1.0, 0.0]))
    assert ge.contains(cyl, [0.5, 100.0]) == "inside"


def test_size_measures():
    unit3 = ge.from_moment(np.eye(3))
    m = ge.size_measures(unit3)
    assert (m["generalized_variance"], m["avg_variance"],
            m["avg_precision"], m["max_variance"]) == \
        pytest.approx((1.0, 3.0, 1.0 / 3.0, 1.0))
    e = ge.GEllipsoid(np.zeros(2), np.eye(2), np.array([2.0, 1.0]))
    m = ge.size_measures(e)
    assert m["generalized_variance"] == pytest.approx(4.0)
    assert m["avg_variance"] == pytest.approx(5.0)
    assert m["avg_precision"] == pytest.approx(0.8)
    assert m["max_variance"] == pytest.approx(4.0)
    degenerate = ge.from_moment(np.diag([1.0, 0.0]))
    m = ge.size_measures(degenerate)
    assert m["generalized_variance"] == 0.0
    assert m["avg_precision"] == 0.0
    unbounded = ge.from_precision(np.diag([1.0, 0.0]))
    assert ge.size_measures(unbounded)["generalized_variance"] == np.inf


def test_volume_known_values():
    assert ge.volume(ge.from_moment(np.eye(2))) == pytest.approx(np.pi)
    assert ge.volume(ge.from_precision(np.diag([1.0, 4.0]))) == \
        pytest.approx(np.pi / 2.0)
    assert ge.volume(ge.from_moment(np.eye(3))) == \
        pytest.approx(4.0 * np.pi / 3.0)
    assert ge.volume(ge.from_moment(np.diag([1.0, 0.0]))) == 0.0
    assert ge.volume(ge.from_precision(np.diag([1.0, 0.0]))) == np.inf


def test_volume_vs_monte_carlo():
    rng = np.random.default_rng(101)
    for _ in range(3):
        w = random_pd(rng, 3)
        e = ge.from_moment(w)
        box = e.radii[0]
        pts = rng.uniform(-box, box, size=(10 ** 6, 3))
        z = (pts @ e.frame) / e.radii
        hits = (z ** 2).sum(axis=1) <= 1.0
        mc = hits.mean() * (2 * box) ** 3
        assert mc == pytest.approx(ge.volume(e), rel=0.02)


def test_conjugate_axes_identity():
    # coordinate unit vectors (in any order) for the unit circle
    for kind in ("cholesky", "principal"):
        axes = np.abs(ge.conjugate_axes(np.eye(2), kind).axes)
        assert sorted(tuple(col) for col in axes.T) == \
            [(0.0, 1.0), (1.0, 0.0)]


def test_conjugate_axes_demo_inner_products():
    w_inv = np.array([[1.25, -0.875], [-0.875, 0.8125]])
    assert np.abs(np.linalg.inv(W_DEMO) - w_inv).max() < 1e-12
    axes = ge.conjugate_axes(W_DEMO, "given", given=A_DEMO)
    gram = axes.axes.T @ w_inv @ axes.axes
    assert np.abs(gram - np.eye(2)).max() < 1e-9


def test_conjugate_axes_cholesky_alignment():
    axes = ge.conjugate_axes(W_DEMO, "cholesky")
    last = axes.axes[:, -1]
    assert last[0] == pytest.approx(0.0, abs=1e-14)
    assert last[1] == pytest.approx(np.sqrt(5 - 3.5 ** 2 / 3.25), rel=1e-12)


def test_conjugate_parallelogram_invariants():
    variants = [ge.conjugate_axes(W_DEMO, "given", given=A_DEMO),
                ge.conjugate_axes(W_DEMO, "cholesky"),
                ge.conjugate_axes(W_DEMO, "principal")]
    areas = [v.area() for v in variants]
    diag2 = [v.sum_sq_diameters() for v in variants]
    for a in areas[1:]:
        assert a == pytest.approx(areas[0], rel=1e-9)
    for d in diag2[1:]:
        assert d == pytest.approx(diag2[0], rel=1e-9)
    # closed forms: area 2^p sqrt(det W); sum of squared diameters
    # 2^{p+1} tr(W)
    assert areas[0] == pytest.approx(4 * np.sqrt(np.linalg.det(W_DEMO)),
                                     rel=1e-12)
    assert diag2[0] == pytest.approx(8 * np.trace(W_DEMO), rel=1e-12)


@settings(max_examples=150, deadline=None, database=None)
@given(strategies.pd_matrices(log_cond=hs.floats(0.0, 3.0)), strategies.seeds,
       hs.sampled_from(["given", "cholesky", "principal"]))
def test_conjugate_axes_laws(w_cond_scale, seed, kind):
    # any factor A of W = A A' has A' W^-1 A = I, sum |a_i|^2 = tr W (so
    # the 2^(p-1) diameters add up to 2^(p+1) tr W) and |det A| = prod r_i,
    # r_i the radii of the ellipsoid of W (the parallelepiped's volume is
    # 2^p of it), for W of condition up to 1e3 at scales 1e-100 to 1e100
    w, _, _ = w_cond_scale
    p = len(w)
    given = np.linalg.cholesky(w) @ strategies.orthogonal(
        np.random.default_rng(seed), p)
    axes = ge.conjugate_axes(w, kind, given=given)
    assert axes.gram_residual(w) <= 1e-12
    assert np.sum(axes.axes ** 2) == pytest.approx(np.trace(w), rel=1e-13)
    assert axes.sum_sq_diameters() == pytest.approx(
        2 ** (p + 1) * np.trace(w), rel=1e-13)
    assert axes.area() == pytest.approx(
        2 ** p * np.prod(ge.from_moment(w).radii), rel=1e-12)


def test_conjugate_axis_endpoints_on_ellipsoid():
    e = ge.from_moment(W_DEMO)
    axes = ge.conjugate_axes(W_DEMO, "given", given=A_DEMO)
    for j in range(2):
        assert ge.contains(e, axes.axes[:, j], tol=1e-9) == "boundary"


def test_tangent_plane_sphere_and_conjugate():
    sphere = ge.from_moment(np.eye(2))
    normal, offset = ge.tangent_plane(sphere, [1.0, 0.0])
    assert normal == pytest.approx([1.0, 0.0])
    assert offset == pytest.approx(1.0)

    # tangent at conjugate axis a_1 is parallel to span of a_2
    e = ge.from_moment(W_DEMO)
    axes = ge.conjugate_axes(W_DEMO, "given", given=A_DEMO)
    normal, _ = ge.tangent_plane(e, axes.axes[:, 0])
    assert abs(normal @ axes.axes[:, 1]) < 1e-9

    with pytest.raises(ValueError):
        ge.tangent_plane(sphere, [0.2, 0.0])


def test_tangent_plane_touches_once():
    e = ge.from_moment(W_DEMO)
    x = ge.boundary_points(e, 64)[5]
    normal, offset = ge.tangent_plane(e, x)
    values = ge.boundary_points(e, 512) @ normal - offset
    assert values.max() <= 1e-8
    assert (values > -1e-6).sum() <= 3   # only a neighborhood of x touches


def test_axis_endpoint_tangent_normal():
    e = ge.from_precision(np.diag([0.25, 1.0]))   # radii (2, 1)
    normal, _ = ge.tangent_plane(e, [2.0, 0.0])
    assert np.abs(normal) == pytest.approx([1.0, 0.0], abs=1e-12)


def _same_up_to_scale(e, e_s, s):
    # radii scale by s, to 1e-9 of the largest finite radius; the zero and
    # infinite radii stay where they are, and so does the signature
    assert ge.signature(e_s) == ge.signature(e)
    finite = np.isfinite(e.radii)
    assert np.array_equal(np.isfinite(e_s.radii), finite)
    assert np.array_equal(e_s.radii == 0, e.radii == 0)
    top = e.radii[finite].max(initial=0.0)
    assert np.abs(e_s.radii[finite] / s - e.radii[finite]).max(
        initial=0.0) <= 1e-9 * top


def _contains_is_scale_free(e, e_s, s):
    # on an axis of radius r: 0.5 r is inside, r on the boundary, 2 r
    # outside; off a zero-radius axis by 1e-3 of the largest finite radius
    # is outside; any distance along an infinite axis is inside
    top = e.radii[np.isfinite(e.radii)].max(initial=0.0)
    for j, r in enumerate(e.radii):
        if np.isinf(r):
            cases = [(1e6 * top, "inside")]
        elif r == 0:
            cases = [(1e-3 * top, "outside")]
        else:
            cases = [(0.5 * r, "inside"), (r, "boundary"),
                     (2.0 * r, "outside")]
        for t, want in cases:
            assert ge.contains(e, e.center + t * e.frame[:, j]) == want
            got = ge.contains(e_s, e_s.center + s * t * e.frame[:, j])
            assert got == want


@settings(max_examples=150, deadline=None, database=None)
@given(hs.integers(0, 2 ** 32 - 1), hs.integers(2, 4), hs.integers(1, 4),
       hs.integers(0, 3), hs.floats(-150.0, 150.0))
def test_zero_tolerances_are_scale_free(seed, p, n_pos, n_zero, log_s):
    # from_moment, from_precision, from_generator, signature and contains
    # decide zero against the ellipsoid's own scale: scaling every length
    # by s changes no decision, for s from 1e-150 to 1e150
    n_pos = min(n_pos, p)
    n_zero = min(n_zero, p - n_pos)
    s = 10.0 ** log_s
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.standard_normal((p, p)))
    # positive radii within three decades, away from the 1e-12 tolerances
    radii = np.zeros(p)
    radii[:n_pos] = 10.0 ** rng.uniform(-3.0, 0.0, n_pos)
    center = rng.standard_normal(p)

    moment = (frame * radii ** 2) @ frame.T
    e, e_s = ge.from_moment(moment, center), \
        ge.from_moment(s * s * moment, s * center)
    _same_up_to_scale(e, e_s, s)
    _contains_is_scale_free(e, e_s, s)

    inv = np.zeros(p)
    inv[:n_pos] = 1.0 / radii[:n_pos] ** 2
    precision = (frame * inv) @ frame.T
    e, e_s = ge.from_precision(precision, center), \
        ge.from_precision(precision / (s * s), s * center)
    _same_up_to_scale(e, e_s, s)
    _contains_is_scale_free(e, e_s, s)

    m = p + n_zero
    right, _ = np.linalg.qr(rng.standard_normal((m, m)))
    gen = (frame * radii) @ right[:p]
    e, e_s = ge.from_generator(gen, center), \
        ge.from_generator(s * gen, s * center)
    _same_up_to_scale(e, e_s, s)
    _contains_is_scale_free(e, e_s, s)


@pytest.mark.parametrize("radii", [[1e-12, 2e-12], [1.0, 2.0],
                                   [1.0, np.inf]])
def test_ascending_radii_are_rejected_at_any_scale(radii):
    # the tolerance is 1e-9 of the largest finite radius, with no floor;
    # an infinite radius is the largest of all
    with pytest.raises(nk.InputError, match="sorted descending"):
        ge.GEllipsoid(np.zeros(2), np.eye(2), radii)


@settings(max_examples=100, deadline=None, database=None)
@given(hs.lists(hs.floats(0.0, 1e3), min_size=1, max_size=4),
       hs.integers(0, 2), hs.floats(-150.0, 150.0))
def test_sorted_radii_are_accepted_at_any_scale(radii, n_inf, log_s):
    # descending finite radii, zeros included, behind any infinite ones,
    # are stored as given but for those at or below 1e-12 of the largest
    # finite radius, which are roundoff and stored as 0; reversed, a
    # spread of more than 1e-9 of the largest is rejected
    s = 10.0 ** log_s
    finite = s * np.sort(radii)[::-1]
    p = n_inf + finite.size
    radii = np.concatenate([np.full(n_inf, np.inf), finite])
    e = ge.GEllipsoid(np.zeros(p), np.eye(p), radii)
    assert np.array_equal(
        e.radii, np.where(radii <= 1e-12 * finite[0], 0.0, radii))
    if finite[0] - finite[-1] > 1e-9 * finite[0]:
        with pytest.raises(nk.InputError, match="sorted descending"):
            ge.GEllipsoid(np.zeros(p), np.eye(p), radii[::-1])


def test_a_zeroed_radius_may_sit_before_a_positive_one():
    # [1, 1e-13, 5e-10] is sorted to within the 1e-9 slack; 1e-13 is
    # roundoff and stored as 0, and 5e-10 stays a positive radius behind it
    e = ge.GEllipsoid(np.zeros(3), np.eye(3), [1.0, 1e-13, 5e-10])
    assert e.radii.tolist() == [1.0, 0.0, 5e-10]
    assert ge.signature(e).as_tuple() == (2, 1, 0)
    assert ge.contains(e, [0.0, 0.0, 2.5e-10]) == "inside"
    assert ge.contains(e, [0.0, 1e-6, 0.0]) == "outside"
    d = ge.dual(e)
    assert d.radii.tolist() == [np.inf, 1.0 / 5e-10, 1.0]
    assert np.array_equal(d.frame, np.eye(3)[:, [1, 2, 0]])
    assert ge.signature(d).as_tuple() == (2, 0, 1)


@pytest.mark.parametrize("radii, sig, dual_sig", [
    ([np.inf, 1.0, 1e-17], (1, 1, 1), (1, 1, 1)),
    ([1e17, 1.0], (1, 1, 0), (1, 0, 1)),
])
def test_roundoff_radii_keep_the_duality_law(radii, sig, dual_sig):
    # a radius below 1e-12 of the largest finite one is 0, so its dual is
    # unbounded, and the dual of the largest is then the only finite one
    e = ge.GEllipsoid(np.zeros(len(radii)), np.eye(len(radii)), radii)
    assert ge.signature(e).as_tuple() == sig
    assert ge.signature(ge.dual(e)).as_tuple() == dual_sig


# ------------------------------------------------- duality (Dempster 1969)

def _swapped(sig):
    return (sig.n_pos, sig.n_inf, sig.n_zero)


def _assert_valid(e):
    # the parts pass GEllipsoid's checks, sorting included, and its zero
    # rule leaves them as they are
    again = ge.GEllipsoid(e.center, e.frame, e.radii)
    assert np.array_equal(again.radii, e.radii)


@hs.composite
def _roundoff_ellipsoids(draw):
    """(e, sig): an ellipsoid hand-built from infinite, positive, roundoff
    and zero radii, the roundoff ones 1e-30 to 1e-12.5 of the largest
    finite radius, and the signature it should have, roundoff counted as
    zero."""
    n_inf, n_pos, n_tiny, n_zero = (draw(hs.integers(0, 2)),
                                    draw(hs.integers(1, 3)),
                                    draw(hs.integers(1, 2)),
                                    draw(hs.integers(0, 1)))
    p = n_inf + n_pos + n_tiny + n_zero
    rng = np.random.default_rng(draw(strategies.seeds))
    top = 10.0 ** draw(hs.floats(-100.0, 100.0))
    pos = top * np.concatenate([[1.0], 10.0 ** rng.uniform(-6, 0, n_pos - 1)])
    tiny = top * 10.0 ** rng.uniform(-30.0, -12.5, n_tiny)
    radii = np.concatenate([np.full(n_inf, np.inf), np.sort(pos)[::-1],
                            np.sort(tiny)[::-1], np.zeros(n_zero)])
    e = ge.GEllipsoid(rng.standard_normal(p), strategies.orthogonal(rng, p),
                      radii)
    return e, (n_pos, n_tiny + n_zero, n_inf)


@settings(max_examples=200, deadline=None, database=None)
@given(hs.one_of(strategies.ellipsoids().map(
    lambda e: (e, ge.signature(e).as_tuple())), _roundoff_ellipsoids()))
def test_dual_swaps_zero_and_infinite_radii(e_sig):
    e, sig = e_sig
    assert ge.signature(e).as_tuple() == sig
    d = ge.dual(e)
    _assert_valid(d)
    assert ge.signature(d).as_tuple() == _swapped(ge.signature(e))
    assert np.array_equal(d.center, e.center)


@settings(max_examples=200, deadline=None, database=None)
@given(hs.one_of(strategies.ellipsoids(), _roundoff_ellipsoids().map(
    lambda e_sig: e_sig[0])))
def test_dual_of_dual_is_the_identity(e):
    # the frame comes back exactly, ties in order, and each radius to
    # within the rounding of two reciprocals
    d = ge.dual(e)
    _assert_valid(d)
    back = ge.dual(d)
    assert np.array_equal(back.frame, e.frame)
    assert np.array_equal(back.center, e.center)
    assert np.array_equal(np.isinf(back.radii), np.isinf(e.radii))
    assert np.array_equal(back.radii == 0, e.radii == 0)
    pos = (e.radii > 0) & np.isfinite(e.radii)
    assert np.abs(back.radii[pos] / e.radii[pos] - 1.0).max(initial=0.0) \
        <= 4 * np.finfo(float).eps


@settings(max_examples=200, deadline=None, database=None)
@given(strategies.psd_matrices(), strategies.seeds)
def test_precision_ellipsoid_is_the_dual_of_the_moment_one(w_rank, seed):
    # a singular C bounds nothing along its null space: the null
    # eigenvalues, roundoff after the frame turn, are zero radii of the
    # moment ellipsoid and infinite radii of the precision one
    c, rank = w_rank
    center = np.random.default_rng(seed).standard_normal(len(c))
    moment, precision = ge.from_moment(c, center), \
        ge.from_precision(c, center)
    _assert_valid(precision)
    assert ge.signature(moment).as_tuple() == (rank, len(c) - rank, 0)
    assert ge.signature(precision).as_tuple() == \
        _swapped(ge.signature(moment))
    assert np.array_equal(precision.center, center)


# ------------------------------------- closure under linear maps (Dempster)

def _unbounded_basis(e):
    return e.frame[:, np.isinf(e.radii)]


def _same_ellipsoid(a, b):
    # the same signature, the same unbounded span, and the same centre and
    # finite moment matrix on the complement of that span
    assert ge.signature(a) == ge.signature(b)
    qa, qb = _unbounded_basis(a), _unbounded_basis(b)
    assert np.abs(qa @ qa.T - qb @ qb.T).max(initial=0.0) < 1e-8
    comp = np.eye(a.dim) - qa @ qa.T

    def finite_moment(e):
        fin = np.isfinite(e.radii)
        return (e.frame[:, fin] * e.radii[fin] ** 2) @ e.frame[:, fin].T

    wa, wb = comp @ finite_moment(a) @ comp, comp @ finite_moment(b) @ comp
    assert np.abs(wa - wb).max() <= 1e-8 * max(1.0, np.abs(wa).max())
    assert np.abs(comp @ (a.center - b.center)).max() <= \
        1e-8 * max(1.0, np.abs(a.center).max())


@settings(max_examples=300, deadline=None, database=None)
@given(hs.data())
def test_image_of_image_is_image_of_product(data):
    # L(M(E)) = (LM)(E) for every signature, including ellipsoids whose
    # radii are all infinite and maps that annihilate some of their axes
    e = data.draw(strategies.ellipsoids())
    m = data.draw(strategies.linear_maps(e.dim))
    l_map = data.draw(strategies.linear_maps(m.shape[0]))
    _same_ellipsoid(ge.linear_image(ge.linear_image(e, m), l_map),
                    ge.linear_image(e, l_map @ m))


@settings(max_examples=300, deadline=None, database=None)
@given(hs.data())
def test_projection_keeps_the_signature_sums(data):
    # the shadow P E spans P times the span of E's nonzero axes: its
    # n_pos + n_inf is that rank, and n_zero makes up the dimension
    e = data.draw(strategies.ellipsoids())
    p_mat = data.draw(strategies.projections(e.dim))
    sig = ge.signature(ge.project(e, p_mat))
    span = e.frame[:, e.radii > 0]
    rank = np.linalg.matrix_rank(p_mat @ span) if span.size else 0
    assert sig.n_pos + sig.n_inf == rank
    assert sig.n_pos + sig.n_zero + sig.n_inf == e.dim


@settings(max_examples=300, deadline=None, database=None)
@given(hs.data())
def test_projection_keeps_the_rank_of_the_unbounded_directions(data):
    # n_inf(P E) = rank(P U_inf): a coordinate frame puts exact zero
    # columns in P U_inf, which a rank count must see past
    e = data.draw(strategies.ellipsoids())
    p_mat = data.draw(strategies.projections(e.dim))
    shadow = ge.project(e, p_mat)
    u_inf = _unbounded_basis(e)
    rank = np.linalg.matrix_rank(p_mat @ u_inf) if u_inf.size else 0
    assert ge.signature(shadow).n_inf == rank
    assert ge.signature(shadow).as_tuple()[0] + \
        ge.signature(shadow).n_zero + rank == e.dim
