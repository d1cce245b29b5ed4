# The locus-of-osculation family: where concentric ellipse families kiss,
# and the estimators whose geometry that is — the two-group discriminant
# axis, ridge regression, Bayes posterior combination, mixed-model
# GLS/BLUE/BLUP, and multivariate meta-analysis.

import math
from functools import wraps
from typing import NamedTuple

import numpy as np

from . import gellipsoid as ge
from . import numkernel as nk
from . import statellipse as st

SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])
NEWTON_STOP = 1e-14     # a kiss point's Newton step below this, relative
# a locus vertex at or below this f1 level, relative to the mark's, is at
# m1 to roundoff
LOCUS_LEVEL_TOL = 1e-12
RIDGE_NORM_TOL = 1e-12  # a ridge norm may rise this much, relative
LOCUS_NEWTON_STEPS = 3  # Newton steps of each traced locus vertex


class QuadFamily(nk.Frozen):
    """Concentric elliptical level sets f(x) = (x - m)^T A (x - m)."""

    def __init__(self, m, a_mat):
        m = np.asarray(m, dtype=float).ravel()
        a = nk.check_symmetric(a_mat)
        if m.size != 2 or a.shape != (2, 2):
            raise nk.InputError("quad families are two-dimensional")
        nk.require_pd(a)
        self.__dict__.update(m=m, a_mat=a)

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.m
        return float(d @ self.a_mat @ d)

    def gradient(self, x):
        d = np.asarray(x, dtype=float) - self.m
        return 2.0 * self.a_mat @ d

    def level_ellipse(self, radius):
        """The level set f(x) = radius^2 as an ellipsoid."""
        return ge.from_precision(self.a_mat / radius ** 2, self.m)

    def level_ellipses(self, radii):
        """[level_ellipse(r) for r in radii], from one stacked
        eigen-decomposition; each matrix is level_ellipse's own scalar
        expression, so each level is the same to the bit."""
        mats = [self.a_mat / r ** 2 for r in radii]
        if not mats:
            return []
        return [ge.dual(e) for e in ge.from_moments(
            np.stack(mats), np.tile(self.m, (len(mats), 1)))]


def cross_field(f1, f2, x):
    """Cross product of the two gradients at x (zero iff they are parallel).

    Evaluates the bilinear form (x - m2)^T A2^T C A1 (x - m1) with the
    2 x 2 skew matrix C; its zero set is the locus of osculation and
    always contains both centers.
    """
    x = np.asarray(x, dtype=float)
    b = f2.a_mat.T @ SKEW @ f1.a_mat
    d1 = x - f1.m
    d2 = x - f2.m
    if x.ndim == 1:
        return float(d2 @ b @ d1)
    return np.einsum("...i,ij,...j->...", d2, b, d1)


def _grid_field(f1, f2, xs, ys):
    """cross_field at each node (xs[i], ys[j]) of a grid, bit for bit.

    The form factors by axis: with d2 = (a0_i, a1_j) and d1 = (c0_i, c1_j),
    einsum's terms (d2_k b_kl) d1_l depend on i, on j, or on both through
    an outer product. They are summed in einsum's own order, k-major and
    left to right, so each node gets the value cross_field gives it on the
    stacked grid, with no (n, n, 2) temporaries.
    """
    b = f2.a_mat.T @ SKEW @ f1.a_mat
    a0, a1 = xs - f2.m[0], ys - f2.m[1]
    c0, c1 = xs - f1.m[0], ys - f1.m[1]
    return ((((a0 * b[0, 0]) * c0)[:, None] + np.outer(a0 * b[0, 1], c1))
            + np.outer(c0, a1 * b[1, 0])) + ((a1 * b[1, 1]) * c1)[None, :]


def _cross_gradient(f1, f2, x):
    b = f2.a_mat.T @ SKEW @ f1.a_mat
    return (x - f1.m) @ b.T + (x - f2.m) @ b


# Corners of cell (i, j) in marching order, as offsets from node (i, j);
# edge k of a cell runs from corner k to corner _NEXT[k].
_CELL = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
_NEXT = [1, 2, 3, 0]


def _cell_segments(f1, f2, xs, ys, vals):
    """Marching-squares segments of the cells whose corners change sign or
    touch a zero, in row-major cell order.

    On each cell edge a zero start corner contributes itself and a sign
    change (< 0 against >= 0) its linear interpolant; an edge with two
    zero ends contributes nothing. A cell with two points gives one
    segment, a saddle cell with four gives two, joined by the sign of its
    centre value; any other count gives none. Returns the endpoints,
    shape (S, 2, 2), and their keys, shape (S, 2): a crossing's grid edge,
    or the node of a zero corner or of a crossing ending on one, so
    neighbouring cells' segments share a key where they share an endpoint.
    """
    n = len(ys)
    neg = vals < 0
    n_neg = (neg[:-1, :-1].astype(np.int8) + neg[1:, :-1] + neg[1:, 1:]
             + neg[:-1, 1:])
    zero = vals == 0
    any_zero = zero[:-1, :-1] | zero[1:, :-1] | zero[1:, 1:] | zero[:-1, 1:]
    ci, cj = np.nonzero(((n_neg > 0) & (n_neg < 4)) | any_zero)
    ii = ci[:, None] + _CELL[:, 0]
    jj = cj[:, None] + _CELL[:, 1]
    va = vals[ii, jj]
    vb = va[:, _NEXT]
    corner = (va == 0) & (vb != 0)
    crossing = (va != 0) & ((va < 0) != (vb < 0))
    t = np.divide(va, va - vb, out=np.zeros_like(va), where=crossing)
    corners = np.stack([xs[ii], ys[jj]], axis=-1)
    points = corners + t[..., None] * (corners[:, _NEXT] - corners)
    node_a = ii * n + jj
    node_b = node_a[:, _NEXT]
    # undirected edge id: its lower node, offset by the edge's axis
    edge = np.minimum(node_a, node_b) + n * n * np.array([1, 2, 1, 2])
    keys = np.where(corner, node_a, np.where(vb == 0, node_b, edge))

    has = corner | crossing
    count = has.sum(axis=1)
    saddle = count == 4
    joined = np.zeros(len(count), dtype=bool)
    if saddle.any():
        centre = 0.25 * corners[saddle].sum(axis=1)
        joined[saddle] = ((cross_field(f1, f2, centre) < 0)
                          == (va[saddle, 0] < 0))
    order = np.argsort(~has, axis=1, kind="stable")
    pairs = np.where(joined[:, None, None], [[0, 3], [1, 2]],
                     [[0, 1], [2, 3]])
    keep = np.stack([(count == 2) | saddle, saddle], axis=1)
    cell = np.nonzero(keep)[0][:, None]
    ends = order[cell, pairs[keep]]
    return points[cell, ends], keys[cell, ends]


def _chain(keys):
    """Join segments, given as pairs of endpoint keys, into polylines in
    the growth order trace_locus documents. Returns, per polyline, indices
    into the flattened endpoints (segment s has endpoints 2s and 2s + 1).
    """
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
            # each touching list ascends, so its first unused is its least
            s = -1
            for t in touching[tail]:
                if not used[t]:
                    s = t
                    break
            for t in touching[head]:
                if not used[t]:
                    if s < 0 or t < s:
                        s = t
                    break
            if s < 0:
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


def _newton_rows(f1, f2, x):
    # LOCUS_NEWTON_STEPS Newton steps of each row of x onto the zero set of
    # the cross field; a row stops for good where the field's gradient
    # vanishes.
    live = np.ones(len(x), dtype=bool)
    for _ in range(LOCUS_NEWTON_STEPS):
        g = cross_field(f1, f2, x)
        grad = _cross_gradient(f1, f2, x)
        nrm2 = np.einsum("ij,ij->i", grad, grad)
        live &= nrm2 > 0
        x[live] -= g[live, None] * grad[live] / nrm2[live, None]
    return x


def _in_range(message):
    """Decorate a function so that a numpy overflow, invalid value or
    division by zero in it raises InputError(message)."""
    def decorate(fn):
        @wraps(fn)
        def guarded(*args, **kwargs):
            try:
                with np.errstate(over="raise", invalid="raise",
                                 divide="raise"):
                    return fn(*args, **kwargs)
            except FloatingPointError:
                raise nk.InputError(message) from None
        return guarded
    return decorate


@_in_range("the cross field of a1 and a2 overflows on this bbox: a1, a2 or "
           "the bbox is too large")
def trace_locus(f1, f2, bbox, resolution=64):
    """Zero contour of the cross field by marching squares.

    bbox is (xmin, xmax, ymin, ymax), with xmin < xmax and ymin < ymax and
    a finite width and height. The grid values come from their 1-D factors
    (see _grid_field). Only cells whose corners change sign or touch a zero
    are visited (see _cell_segments), so beyond one vectorized pass over
    the grid the cost grows with the cells the locus crosses. Segments are
    chained through endpoint identity, not distance: a crossing is its
    grid edge, a zero corner its node. Each polyline starts from the last
    unused segment and grows by the lowest-numbered unused segment
    touching its tail or its head, the tail first. Every vertex then gets
    LOCUS_NEWTON_STEPS Newton steps onto the exact zero set, and the
    polylines are stably sorted longest first. Returns
    {'polylines': [...], 'vertices': ..., 'scale': ...}: the polylines,
    their vertices stacked in one (m, 2) array, and the max |g| over the
    grid (the reference for vertex residuals). A field or Newton step that
    overflows is an InputError.
    """
    if resolution < 32:
        raise nk.InputError("resolution must be >= 32")
    box = xmin, xmax, ymin, ymax = tuple(map(float, bbox))
    if not (xmin < xmax and ymin < ymax):
        raise nk.InputError(f"bbox {box} needs xmin < xmax and ymin < ymax")
    if not math.isfinite(xmax - xmin) or not math.isfinite(ymax - ymin):
        raise nk.InputError(f"bbox {box} needs a finite width and height")
    xs = np.linspace(xmin, xmax, resolution + 1)
    ys = np.linspace(ymin, ymax, resolution + 1)
    vals = _grid_field(f1, f2, xs, ys)
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        return {"polylines": [], "scale": 0.0, "vertices": np.empty((0, 2))}
    points, keys = _cell_segments(f1, f2, xs, ys, vals)
    flat = points.reshape(-1, 2)
    polylines = [_newton_rows(f1, f2, flat[chain])
                 for chain in _chain(keys.tolist())]
    polylines.sort(key=len, reverse=True)
    return {"polylines": polylines, "scale": scale,
            "vertices": np.vstack(polylines or [np.empty((0, 2))])}


@_in_range("m1 and m2 are too far apart for a finite default bbox")
def default_bbox(f1, f2):
    """(xmin, xmax, ymin, ymax): a square about the midpoint of the centres,
    reaching |m2 - m1| + 4 from it each way."""
    span = float(np.linalg.norm(f2.m - f1.m)) + 4.0
    cx, cy = 0.5 * (f1.m + f2.m)
    return (cx - span, cx + span, cy - span, cy + span)


def locus_summary(f1, f2, locus):
    """A traced locus's vertex count and grid scale, the max |g| of the
    cross field over its vertices (0 if none) and their least distances
    to m1 and to m2 (inf if none)."""
    verts = locus["vertices"]
    g = np.abs(cross_field(f1, f2, verts))
    d1 = np.linalg.norm(verts - f1.m, axis=1)
    d2 = np.linalg.norm(verts - f2.m, axis=1)
    return {"n_vertices": len(verts), "scale": locus["scale"],
            "max_abs_g": float(g.max(initial=0.0)),
            "dist_to_m1": float(d1.min(initial=np.inf)),
            "dist_to_m2": float(d2.min(initial=np.inf))}


@_in_range("the kiss point leaves the double range: a1 and a2, m1 and m2 "
           "or the mark is too large or too small")
def osculation_point(f1, f2, radius1, locus):
    """External kiss point of the level ellipse f1 = radius1^2 with the
    f2 family, from a trace_locus result.

    Candidate vertices are locus points where the two gradients are
    antiparallel (ellipses touching from outside, as on the branch
    running between the centers); the first one closest in f1-level, in
    polyline order, is polished with a 2 x 2 Newton iteration on
    (cross_field, f1 - radius1^2). Where a coarse locus offers no
    candidate, or the polish does not converge (NEWTON_STOP) or lands on
    an internal kiss point, the polish starts instead from the point of
    that level on the branch, found by bisection. Returns the point and
    the f2 radius at which the families touch there. A level at or beyond
    f1(m2) has no external kiss point, an InputError, and so is a negative
    radius1.
    """
    if radius1 < 0:
        raise nk.InputError(f"mark radius {radius1:g} must be >= 0")
    reach = f1.value(f2.m)
    # from 2^512 up a square overflows: such a mark is beyond any reach
    if not (radius1 < 2.0 ** 512 and radius1 ** 2 < reach):
        raise nk.InputError(
            f"mark radius {radius1:g} has no external kiss point: it must "
            f"be below sqrt(f1(m2)) = {np.sqrt(reach):g}")
    verts = locus["vertices"]
    d1 = verts - f1.m
    g1 = d1 @ f1.a_mat
    level = np.einsum("ij,ij->i", g1, d1)
    # a vertex at m1 to roundoff has no f1 gradient to follow: Newton from
    # level eps r1^2 overshoots and needs log2(1/eps) / 2 steps to return
    external = ((np.einsum("ij,ij->i", g1, (verts - f2.m) @ f2.a_mat) < 0)
                & (level > LOCUS_LEVEL_TOL * radius1 ** 2))
    done = False
    if external.any():
        err = np.where(external, np.abs(level - radius1 ** 2), np.inf)
        x, done = _polish(f1, f2, radius1, verts[np.argmin(err)].copy())
    if not done or f1.gradient(x) @ f2.gradient(x) >= 0:
        x, _ = _polish(f1, f2, radius1, _branch_point(f1, f2, radius1))
    return x, float(np.sqrt(f2.value(x)))


def _polish(f1, f2, radius1, x):
    """Newton's iterate from x on (cross_field, f1 - radius1^2), and
    whether its last step fell below NEWTON_STOP."""
    for _ in range(40):
        r = np.array([cross_field(f1, f2, x),
                      f1.value(x) - radius1 ** 2])
        jac = np.vstack([_cross_gradient(f1, f2, x), f1.gradient(x)])
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            break
        x = x - step
        if np.linalg.norm(step) < NEWTON_STOP * (1 + np.linalg.norm(x)):
            return x, True
    return x, False


def _branch_point(f1, f2, radius1):
    """The point of level radius1^2 < f1(m2) on the branch between the
    centres, x(t) = ((1-t) B1 + t B2)^-1 ((1-t) B1 m1 + t B2 m2) for t in
    [0, 1] and B_i = A_i / |A_i|, where f1 rises from 0 to f1(m2):
    bisection on t, to the last bit."""
    b1 = f1.a_mat / np.linalg.norm(f1.a_mat)
    b2 = f2.a_mat / np.linalg.norm(f2.a_mat)
    lo, hi = 0.0, 1.0
    while lo < 0.5 * (lo + hi) < hi:
        t = 0.5 * (lo + hi)
        x = np.linalg.solve((1 - t) * b1 + t * b2,
                            (1 - t) * b1 @ f1.m + t * b2 @ f2.m)
        if f1.value(x) < radius1 ** 2:
            lo = t
        else:
            hi = t
    return x


def lda_axis(m1, m2, s_pooled):
    """Two-group discriminant coefficients b = S_pooled^{-1} (m1 - m2).

    Classification boundaries {x: b^T x = d} over the cut point d are the
    tangent planes at points of osculation of the two data-ellipsoid
    families.
    """
    s_pooled = nk.check_symmetric(s_pooled)
    nk.require_pd(s_pooled)
    m1 = np.asarray(m1, dtype=float).ravel()
    m2 = np.asarray(m2, dtype=float).ravel()
    b = np.linalg.solve(s_pooled, m1 - m2)
    midpoint_cut = float(b @ (m1 + m2) / 2.0)
    return {"coef": b, "midpoint_cut": midpoint_cut}


def _standardized_ols(x, y):
    """The data on the ridge scale, centered with unit-length predictor
    columns, and their OLS fit: (r, lengths, beta_ols, s2), with r the
    block [R_x | R_xy] of the R factor of those data [xs | yc]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    xc = x - x.mean(axis=0)
    lengths = np.linalg.norm(xc, axis=0)
    if np.any(lengths <= 0):
        raise ValueError("constant predictor column")
    beta_ols, _, r, _ = nk.qr_lstsq(xc / lengths, y - y.mean())
    s2 = float(r[-1, -1] ** 2 / (y.size - r.shape[1]))
    return r[:-1], lengths, beta_ols, s2


def _shrink(r, root, prior_mean):
    """The data block r = [R_x | R_xy] pooled with the prior's rows
    [A^{1/2} | A^{1/2} beta_0]: (beta_post, W, B') with (X'X + A)^{-1} =
    W W' and B' = R_x W W', so (X'X + A)^{-1} X'X (X'X + A)^{-1} = B B'.
    X'X + A is singular when the smallest eigenvalue of R'R is negligible
    (numkernel.negligible_eig), read from the singular values of the
    pooled R that qr_lstsq's rank verdict takes.

    R_x W is the top block of the Q factor of the pooled block, whose R
    has the inverse W. It is read from that QR: the product R_x W would
    carry an error of about |R_x| |W| eps, which W' then multiplies."""
    p = root.shape[0]
    pooled = np.vstack([r, np.column_stack([root, root @ prior_mean])])
    beta, w, _, sv = nk.qr_lstsq(pooled[:, :p], pooled[:, p])
    if nk.negligible_eig(sv[-1] ** 2, sv[0] ** 2):
        raise ValueError("X'X + A is singular")
    # the QR of the block qr_lstsq factored, so its R is the one W inverts
    q = np.linalg.qr(pooled)[0]
    return beta, w, q[:p, :p] @ w.T


class RidgeResult(NamedTuple):
    k: float
    beta: np.ndarray          # standardized scale
    beta_original: np.ndarray  # original predictor units
    cov: np.ndarray           # sampling covariance on the standardized scale
    beta_ols: np.ndarray
    s2: float


def _ridge(data, k):
    if k < 0:
        raise nk.InputError("ridge constant must be nonnegative")
    r, lengths, beta_ols, s2 = data
    p = r.shape[0]
    beta, _, bt = _shrink(r, np.sqrt(k) * np.eye(p), np.zeros(p))
    return RidgeResult(k=float(k), beta=beta, beta_original=beta / lengths,
                       cov=s2 * (bt.T @ bt), beta_ols=beta_ols, s2=s2)


def ridge(x, y, k):
    """Ridge regression on the centered, unit-length predictor scale.

    beta(k) = (X'X + k I)^{-1} X'y, the conjugate-Bayes posterior mean
    with prior precision k I and prior mean 0: least squares on the data
    and the pseudo-observations sqrt(k) I of response 0. Sampling
    covariance s^2 (X'X + k I)^{-1} X'X (X'X + k I)^{-1}. k = 0
    reproduces OLS.
    """
    return _ridge(_standardized_ols(x, y), k)


def ridge_trace(x, y, ks, coords=(0, 1)):
    """Coefficient path with a variance ellipse per ridge constant.

    Each entry carries the coefficient pair and its covariance ellipse,
    drawn at half the standard radius. The OLS fit is shared by all ks.
    """
    coords = list(coords)
    data = _standardized_ols(x, y)
    out = []
    for k in ks:
        r = _ridge(data, k)
        sub = r.cov[np.ix_(coords, coords)]
        ell = ge.from_moment(0.25 * sub, r.beta[coords])
        out.append({"k": float(k), "beta": r.beta[coords], "ellipse": ell,
                    "result": r})
    return out


def ridge_path_summary(trace):
    """The coefficient norms |beta(k)| and generalized variances det cov(k)
    of a ridge_trace, and whether the norms never rise (to within
    RIDGE_NORM_TOL of the previous norm) and the generalized variances
    strictly fall. The second verdict is on log-determinants, so that it
    holds where det itself overflows or underflows."""
    norms = [float(np.linalg.norm(t["result"].beta)) for t in trace]
    covs = np.array([t["result"].cov for t in trace])
    signs, logdets = np.linalg.slogdet(covs)
    return {"coef_norms": norms,
            "cov_generalized_variance": np.linalg.det(covs).tolist(),
            "norm_monotone_nonincreasing":
                all(b <= a + RIDGE_NORM_TOL * a
                    for a, b in zip(norms, norms[1:])),
            "genvar_strictly_decreasing":
                bool((signs > 0).all() and (np.diff(logdets) < 0).all())}


def bayes_posterior(x, y, beta_prior, a_mat):
    """Posterior mean under a conjugate normal prior with precision A.

    beta_post = (X'X + A)^{-1} (X'y + A beta_prior), on the same centered
    unit-length scale as ridge, so A = k I and a zero prior is ridge(k).
    The covariance is reported both unscaled, (X'X + A)^{-1}, and
    multiplied by the residual variance. A must be PSD.
    """
    a_mat = nk.check_symmetric(a_mat)
    p = np.shape(x)[1]
    if a_mat.shape != (p, p):
        raise nk.InputError(f"prior precision must have shape {(p, p)}")
    root, _ = nk.psd_sqrt(a_mat)
    r, _, beta_ols, s2 = _standardized_ols(x, y)
    beta, w, _ = _shrink(r, root, np.ravel(beta_prior).astype(float))
    cov_unit = w @ w.T
    return {"beta_post": beta, "beta_ols": beta_ols,
            "cov_unit": cov_unit, "cov": s2 * cov_unit, "s2": s2}


# ----------------------------------------------------------------- mixed

FLAT_SPREAD_TOL = 1e-10     # relative sd of cluster BLUEs taken as zero


class MixedSpec(nk.Frozen):
    """Clustered regression y_i = X_i (beta + u_i) + e_i, held as one stack:
    the design x (n, p), the response y (n,) and one cluster label per row.

    Construction sorts the rows by label (statellipse.group_rows). labels
    are then the distinct labels in that order and ends[k] is where the
    rows of cluster labels[k] end. It then factors every cluster once,
    X_k = Q_k R_k, from the R of one stacked QR of [X_k | y_k] per distinct
    cluster size: r[k] is R_k and qty[k] is Q_k'y_k, its column p, both
    padded with zero rows to p rows when n_k < p; rss[k] is the residual
    sum of squares of y_k on the column space of X_k, and rank[k] the rank
    of X_k.
    """

    def __init__(self, x, y, groups):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if x.ndim != 2 or x.shape[0] != y.size:
            raise nk.InputError("design and response rows disagree")
        if len(groups) != y.size:
            raise nk.InputError("need one cluster label per row")
        if y.size == 0:
            raise nk.InputError("need at least one cluster")
        labels, rows, ends = st.group_rows(groups)
        x, y = x[rows], y[rows]
        counts = np.diff(ends, prepend=0)
        k, p = len(labels), x.shape[1]
        xy = np.column_stack([x, y])
        r = np.zeros((k, p, p))
        qty = np.zeros((k, p))
        rss = np.empty(k)
        for size in sorted(set(counts.tolist())):
            idx = np.flatnonzero(counts == size)
            at = (ends[idx] - size)[:, None] + np.arange(size)
            r_k = np.linalg.qr(xy[at], mode="r")
            m = min(size, p)
            r[idx, :m] = r_k[:, :m, :p]
            qty[idx, :m] = r_k[:, :m, p]
            rss[idx] = r_k[:, p, p] ** 2 if size > p else 0.0
        u, sv, _ = np.linalg.svd(nk.unit_columns(r))
        dropped = nk.rank_drops(sv)
        # Q_k spans more than the columns of a rank-deficient X_k: the part
        # of Q_k'y_k along the left singular vectors dropped from R_k is
        # residual too
        lost = np.einsum("kij,ki->kj", u, qty)
        rss += np.where(dropped, lost * lost, 0.0).sum(axis=1)
        self.__dict__.update(x=x, y=y, labels=tuple(labels),
                             ends=ends, r=r, qty=qty, rss=rss,
                             rank=p - dropped.sum(axis=1))

    @property
    def counts(self):
        return np.diff(self.ends, prepend=0)

    def error_variance(self):
        """sigma^2: the clusters' pooled residual sum of squares over
        n - sum_k rank(X_k) degrees of freedom, each cluster's residual
        having n_k - rank(X_k)."""
        df = self.y.size - int(self.rank.sum())
        if df <= 0:
            raise nk.InputError("no residual degrees of freedom for sigma^2")
        return float(self.rss.sum()) / df


def _gls(blocks):
    """GLS pool of a list of stacks (X_i, Sigma_i, y_i): beta and its cov.

    numkernel.qr_lstsq on the stack of whitened blocks L_i^{-1} [X_i, y_i],
    L_i L_i' = Sigma_i: cov = W W'. The normal equations sum X_i'
    Sigma_i^{-1} X_i would square the condition of the design.
    """
    white = np.concatenate([
        np.linalg.solve(np.linalg.cholesky(sigma),
                        np.concatenate([x, y[..., None]], axis=-1))
        .reshape(-1, x.shape[-1] + 1) for x, sigma, y in blocks])
    beta, w, _, _ = nk.qr_lstsq(white[:, :-1], white[:, -1])
    return {"beta": beta, "cov": w @ w.T}


def gls_fixed(spec, g_mat, sigma2=None):
    """Mixed-model GLS fixed effects with V_i = X_i G X_i' + sigma^2 I, for
    a PSD between-cluster covariance G of the random effects and the error
    variance sigma^2, spec.error_variance() when omitted.

    With X_i = Q_i R_i, X_i'V_i^{-1}X_i = R_i'M_i^{-1}R_i and X_i'V_i^{-1}y_i
    = R_i'M_i^{-1}Q_i'y_i with the p x p M_i = sigma^2 I + R_i G R_i', so
    the GLS pool of the p-row blocks (R_i, M_i, Q_i'y_i) is that of the
    clusters. V_i has the eigenvalues of M_i and, when n_i > p, sigma^2;
    it is singular when the smallest magnitude is negligible
    (numkernel.negligible_eig), and the error names the cluster's label.
    """
    g_mat = nk.check_symmetric(g_mat)
    nk.psd_eigvals(g_mat)       # rejects a materially indefinite G
    s2 = spec.error_variance() if sigma2 is None else float(sigma2)
    n = spec.counts
    p = spec.r.shape[2]
    m = s2 * np.eye(p) + spec.r @ g_mat @ spec.r.swapaxes(1, 2)
    # pad the diagonal of a cluster with n_i < p with M_i[0, 0]: a diagonal
    # entry lies within the spectrum of M_i's real block, so the singular
    # test is unchanged, and the zero rows of R_i keep it out of the GLS
    d = np.arange(p)
    m[:, d, d] = np.where(d >= n[:, None], m[:, :1, 0], m[:, d, d])
    lam = np.abs(np.linalg.eigvalsh(m))
    lam = np.column_stack([lam, np.where(n > p, abs(s2), lam[:, 0])])
    singular = np.flatnonzero(nk.negligible_eig(lam.min(axis=1),
                                                lam.max(axis=1)))
    if singular.size:
        raise ValueError(f"cluster {spec.labels[singular[0]]}: "
                         "V is singular")
    return _gls([(spec.r, m, spec.qty)])


@_in_range("the variances of the cluster BLUEs overflow: the units of x "
           "and the response are too far apart")
def cluster_blues(spec):
    """Per-cluster OLS estimates beta_i = R_i^{-1} Q_i'y_i with
    S_i = sigma^2 W_i W_i', W_i = R_i^{-1} (symmetric by construction),
    stacked: 'beta' (k, p) and 's_mat' (k, p, p) for the clusters listed
    in 'index' (positions in spec.labels).

    Rank-deficient clusters are skipped and reported rather than fitted.
    """
    s2 = spec.error_variance()
    full = spec.rank == spec.r.shape[2]
    idx = np.flatnonzero(full)
    w = np.linalg.inv(spec.r[idx])
    beta = np.einsum("kij,kj->ki", w, spec.qty[idx])
    s_mat = s2 * (w @ w.swapaxes(1, 2))
    return {"index": idx.tolist(), "beta": beta, "s_mat": s_mat,
            "skipped": np.flatnonzero(~full).tolist(), "sigma2": s2}


def blup(beta_blue, s_mat, beta_gls, g_mat):
    """Inverse-variance weighted combination of a BLUE with the GLS pool.

    beta_gls + G (S + G)^{-1} (beta_blue - beta_gls) with covariance
    G - G (S + G)^{-1} G: equal to (S^{-1} + G^{-1})^{-1} (S^{-1} beta_blue
    + G^{-1} beta_gls) for a nonsingular G, and defined without inverting
    G, so a singular G pools completely along its null space. Complete
    pooling as G -> 0, no pooling as G -> infinity. Stacks of BLUEs and
    S matrices, shapes (..., p) and (..., p, p), give stacked results.
    """
    s_mat = nk.check_symmetric(s_mat)
    g_mat = nk.check_symmetric(g_mat)
    beta_gls = np.asarray(beta_gls, dtype=float)
    total = s_mat + g_mat
    # solve with S + G and G each divided by d d', d = sqrt(diag(S + G)),
    # and scale back, so that the LU's pivots do not follow the units of
    # x; b is a stack of matrices, not of vectors, on numpy 1.x too
    d = np.sqrt(np.diagonal(total, axis1=-2, axis2=-1))
    d = np.where(d > 0, d, 1.0)[..., None]
    dd = d * d.swapaxes(-1, -2)
    gain = np.linalg.solve(total / dd, g_mat / dd) * d.swapaxes(-1, -2) / d
    gain = gain.swapaxes(-1, -2)
    beta = beta_gls + np.einsum("...ij,...j->...i", gain,
                                np.asarray(beta_blue, dtype=float) - beta_gls)
    w = g_mat - gain @ g_mat
    return {"beta": beta, "cov": 0.5 * (w + w.swapaxes(-1, -2))}


def relative_shrinkage(blues, blups):
    """Per coefficient, mean |BLUE - BLUP| over the sd of the BLUEs, for
    stacks (k, p) of cluster BLUEs and their BLUPs.

    nan where the BLUEs have no spread: one BLUE has none, and an sd below
    FLAT_SPREAD_TOL times the largest |BLUE| is rounding noise, and so
    would be the ratio.
    """
    spread = blues.std(axis=0, ddof=1) if len(blues) > 1 else \
        np.full(blues.shape[1], np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(blues - blups).mean(axis=0) / spread
    rel[spread <= FLAT_SPREAD_TOL * np.abs(blues).max(axis=0)] = np.nan
    return rel


def estimate_g_moments(blues):
    """Moment-matching G from a cluster_blues result: covariance of the
    BLUEs minus their average S_i, eigen-clipped to PSD."""
    betas = blues["beta"]
    if betas.shape[0] < 2:
        raise ValueError("need at least two full-rank clusters")
    dev = betas - betas.mean(axis=0)
    raw = dev.T @ dev / (betas.shape[0] - 1)
    raw -= blues["s_mat"].mean(axis=0)
    return nk.clip_psd(raw)


# ------------------------------------------------------------------ meta

class StudyStack(nk.Frozen):
    """k studies of p outcomes: effects y (k, p), within-study covariances
    S (k, p, p) and labels, study1 to studyk when omitted. Each study
    estimates the pooled effect itself (its design is the identity). Every
    S_i is symmetrised and checked positive definite here, once per stack;
    a bad S_i is named by its study's label."""

    def __init__(self, y, s_mat, labels=None):
        y = np.asarray(y, dtype=float)
        s = np.asarray(s_mat, dtype=float)
        if y.ndim != 2 or not y.size or s.shape != y.shape + y.shape[1:]:
            raise nk.InputError("need y (k, p), k > 0, and S (k, p, p)")
        k = len(y)
        labels = tuple(f"study{i + 1}" for i in range(k)) \
            if labels is None else tuple(labels)
        if len(labels) != k:
            raise nk.InputError("need one label per study")
        try:
            s = nk.check_symmetric(s)
            nk.require_pd(s)
        except nk.MatrixError as err:
            err.name = f"S_i of study {labels[err.at[0]]}"
            raise
        self.__dict__.update(y=y, s_mat=s, labels=labels)


def _pool(stack, sigma):
    """GLS pool of the studies' effects with covariances sigma (k, p, p)."""
    k, p = stack.y.shape
    return _gls([(np.broadcast_to(np.eye(p), (k, p, p)), sigma, stack.y)])


def meta_fixed(stack):
    """Fixed-effect GLS pool of a study stack: inverse-variance weighting
    by S_i alone."""
    return _pool(stack, stack.s_mat)


def _delta(stack, delta):
    delta = nk.check_symmetric(delta)
    if delta.shape != stack.s_mat.shape[1:]:
        raise nk.InputError("Delta must be {} x {}, as S_i is".format(
            *stack.s_mat.shape[1:]))
    return delta


def meta_random(stack, delta):
    """Random-effects pool with Sigma_i = S_i + Delta.

    Delta = 0 reduces exactly to the fixed-effect estimate; the returned
    covariance is the inverse of the accumulated precision.
    """
    delta = _delta(stack, delta)
    nk.psd_eigvals(delta)       # rejects a materially indefinite Delta
    return _pool(stack, stack.s_mat + delta)


def meta_blup(stack, beta_re, v_cov, delta):
    """Per-study BLUPs: blup of each y_i, with S_i, toward beta_re with
    G = Delta, so beta_re + Delta Sigma_i^{-1} (y_i - beta_re), stacked:
    beta (k, p) and cov (k, p, p), for the pool beta_re and its p x p
    covariance V.

    Each covariance is V plus blup's Delta - Delta Sigma_i^{-1} Delta,
    never smaller than V, the covariance of beta_re, in the PSD order.
    """
    delta = _delta(stack, delta)
    p = stack.y.shape[1]
    if np.shape(v_cov) != (p, p):
        raise nk.InputError(f"V must be {p} x {p}, as Delta is")
    fit = blup(stack.y, stack.s_mat, np.asarray(beta_re, dtype=float).ravel(),
               delta)
    cov = v_cov + fit["cov"]
    return {"beta": fit["beta"], "cov": 0.5 * (cov + cov.swapaxes(1, 2))}


def estimate_delta_mom(stack):
    """Method-of-moments between-study covariance, eigen-clipped to PSD.

    (g-1)^{-1} sum (y_i - ybar)(y_i - ybar)^T - g^{-1} sum S_i.
    """
    if len(stack.y) < 2:
        raise nk.InputError("need at least two studies")
    return estimate_g_moments({"beta": stack.y, "s_mat": stack.s_mat})
