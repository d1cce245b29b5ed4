# The locus-of-osculation family: where concentric ellipse families kiss,
# and the estimators whose geometry that is — the two-group discriminant
# axis, ridge regression, Bayes posterior combination, mixed-model
# GLS/BLUE/BLUP, and multivariate meta-analysis.

from dataclasses import dataclass

import numpy as np

from . import gellipsoid as ge
from . import numkernel as nk

SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class QuadFamily:
    """Concentric elliptical level sets f(x) = (x - m)^T A (x - m)."""
    m: np.ndarray
    a_mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float).ravel()
        a = nk.check_symmetric(self.a_mat)
        if m.size != 2 or a.shape != (2, 2):
            raise nk.InputError("quad families are two-dimensional")
        nk.require_pd(a)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "a_mat", a)

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.m
        return float(d @ self.a_mat @ d)

    def gradient(self, x):
        d = np.asarray(x, dtype=float) - self.m
        return 2.0 * self.a_mat @ d

    def level_ellipse(self, radius):
        """The level set f(x) = radius^2 as an ellipsoid."""
        return ge.from_precision(self.a_mat / radius ** 2, self.m)


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


def _newton_rows(f1, f2, x, steps):
    # Newton steps of each row of x onto the zero set of the cross field;
    # a row stops for good where the field's gradient vanishes.
    live = np.ones(len(x), dtype=bool)
    for _ in range(steps):
        g = cross_field(f1, f2, x)
        grad = _cross_gradient(f1, f2, x)
        nrm2 = np.einsum("ij,ij->i", grad, grad)
        live &= nrm2 > 0
        x[live] -= g[live, None] * grad[live] / nrm2[live, None]
    return x


def trace_locus(f1, f2, bbox, resolution=64, newton_steps=3):
    """Zero contour of the cross field by marching squares.

    bbox is (xmin, xmax, ymin, ymax). Only cells whose corners change sign
    or touch a zero are visited (see _cell_segments), so beyond one
    vectorized pass over the grid the cost grows with the cells the locus
    crosses. Segments are chained through endpoint identity, not
    distance: a crossing is its grid edge, a zero corner its node. Each
    polyline starts from the last unused segment and grows by the
    lowest-numbered unused segment touching its tail or its head, the tail
    first. Every vertex then gets newton_steps Newton steps onto the exact
    zero set, and the polylines are stably sorted longest first. Returns
    {'polylines': [...], 'scale': ...} where scale is the max |g| over the
    grid (the reference for vertex residuals).
    """
    if resolution < 32:
        raise nk.InputError("resolution must be >= 32")
    xmin, xmax, ymin, ymax = bbox
    xs = np.linspace(xmin, xmax, resolution + 1)
    ys = np.linspace(ymin, ymax, resolution + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vals = cross_field(f1, f2, np.stack([gx, gy], axis=-1))
    scale = float(np.abs(vals).max())
    if scale == 0.0:
        return {"polylines": [], "scale": 0.0}
    points, keys = _cell_segments(f1, f2, xs, ys, vals)
    flat = points.reshape(-1, 2)
    polylines = [_newton_rows(f1, f2, flat[chain], newton_steps)
                 for chain in _chain(keys.tolist())]
    polylines.sort(key=len, reverse=True)
    return {"polylines": polylines, "scale": scale}


def osculation_point(f1, f2, radius1, locus=None, bbox=None, resolution=96):
    """External kiss point of the level ellipse f1 = radius1^2 with the
    f2 family.

    Candidate vertices are locus points where the two gradients are
    antiparallel (ellipses touching from outside, as on the branch
    running between the centers); the first one closest in f1-level, in
    polyline order, is polished with a 2 x 2 Newton iteration on
    (cross_field, f1 - radius1^2). Returns the point and the f2 radius at
    which the families touch there.
    """
    if locus is None:
        if bbox is None:
            raise nk.InputError("need a traced locus or a bbox")
        locus = trace_locus(f1, f2, bbox, resolution)
    verts = (np.vstack(locus["polylines"]) if locus["polylines"]
             else np.empty((0, 2)))
    d1 = verts - f1.m
    g1 = d1 @ f1.a_mat
    external = np.einsum("ij,ij->i", g1, (verts - f2.m) @ f2.a_mat) < 0
    err = np.where(external,
                   np.abs(np.einsum("ij,ij->i", g1, d1) - radius1 ** 2),
                   np.inf)
    if not external.any():
        raise ValueError("no external osculation candidates on the locus")
    x = verts[np.argmin(err)].copy()
    for _ in range(40):
        r = np.array([cross_field(f1, f2, x),
                      f1.value(x) - radius1 ** 2])
        jac = np.vstack([_cross_gradient(f1, f2, x), f1.gradient(x)])
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError:
            break
        x = x - step
        if np.linalg.norm(step) < 1e-14 * (1 + np.linalg.norm(x)):
            break
    return x, float(np.sqrt(f2.value(x)))


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

    def boundary(cut):
        return {"normal": b, "offset": float(cut)}

    midpoint_cut = float(b @ (m1 + m2) / 2.0)
    return {"coef": b, "boundary": boundary, "midpoint_cut": midpoint_cut}


def _standardize_columns(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    x_center = x.mean(axis=0)
    xc = x - x_center
    lengths = np.linalg.norm(xc, axis=0)
    if np.any(lengths <= 0):
        raise ValueError("constant predictor column")
    xs = xc / lengths
    y_center = y.mean()
    return xs, y - y_center, lengths, x_center, y_center


@dataclass(frozen=True)
class RidgeResult:
    k: float
    beta: np.ndarray          # standardized scale
    beta_original: np.ndarray  # original predictor units
    cov: np.ndarray           # sampling covariance on the standardized scale
    gls_shrink: np.ndarray    # G with beta = G beta_ols
    beta_ols: np.ndarray
    s2: float


def ridge(x, y, k, penalty_matrix=None):
    """Ridge regression on the centered, unit-length predictor scale.

    beta(k) = (X'X + K)^{-1} X'y with K = k I (or a supplied PSD penalty
    matrix); sampling covariance s^2 (X'X + K)^{-1} X'X (X'X + K)^{-1}.
    k = 0 reproduces OLS.
    """
    if k < 0:
        raise nk.InputError("ridge constant must be nonnegative")
    xs, yc, lengths, _, _ = _standardize_columns(x, y)
    q = xs.shape[1]
    pen = k * np.eye(q) if penalty_matrix is None else \
        nk.check_symmetric(penalty_matrix)
    xtx = xs.T @ xs
    xty = xs.T @ yc
    beta_ols = np.linalg.solve(xtx, xty)
    core = np.linalg.inv(xtx + pen)
    beta = core @ xty
    n = xs.shape[0]
    df = n - q - 1
    resid = yc - xs @ beta_ols
    s2 = float(resid @ resid / df)
    cov = s2 * core @ xtx @ core
    shrink = core @ xtx
    return RidgeResult(k=float(k), beta=beta, beta_original=beta / lengths,
                       cov=0.5 * (cov + cov.T), gls_shrink=shrink,
                       beta_ols=beta_ols, s2=s2)


def ridge_trace(x, y, ks, coords=(0, 1), radius_factor=0.5):
    """Coefficient path with a variance ellipse per ridge constant.

    Each entry carries the coefficient pair and its covariance ellipse,
    drawn at radius_factor times the standard radius.
    """
    coords = list(coords)
    out = []
    for k in ks:
        r = ridge(x, y, k)
        sub = r.cov[np.ix_(coords, coords)]
        ell = ge.from_moment(radius_factor ** 2 * sub, r.beta[coords])
        out.append({"k": float(k), "beta": r.beta[coords], "ellipse": ell,
                    "result": r})
    return out


def bayes_posterior(x, y, beta_prior, a_mat, standardize=True):
    """Posterior mean under a conjugate normal prior with precision A.

    beta_post = (X'X + A)^{-1} (X'X beta_ols + A beta_prior); the
    covariance is reported both unscaled, (X'X + A)^{-1}, and multiplied
    by the residual variance. With standardize=True the computation runs
    on the same centered unit-length scale as ridge, so A = k I and a
    zero prior reproduce ridge exactly.
    """
    a_mat = nk.check_symmetric(a_mat)
    if standardize:
        xs, yc, _, _, _ = _standardize_columns(x, y)
    else:
        xs = np.asarray(x, dtype=float)
        yc = np.asarray(y, dtype=float).ravel()
    beta_prior = np.asarray(beta_prior, dtype=float).ravel()
    xtx = xs.T @ xs
    if a_mat.shape != xtx.shape:
        raise nk.InputError(f"prior precision must have shape {xtx.shape}")
    xty = xs.T @ yc
    beta_ols = np.linalg.solve(xtx, xty)
    total = xtx + a_mat
    sv = np.linalg.svd(total, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise ValueError("X'X + A is singular")
    beta_post = np.linalg.solve(total, xtx @ beta_ols + a_mat @ beta_prior)
    n, q = xs.shape
    resid = yc - xs @ beta_ols
    s2 = float(resid @ resid / (n - q - (1 if standardize else 0)))
    cov_unit = np.linalg.inv(total)
    return {"beta_post": beta_post, "beta_ols": beta_ols,
            "cov_unit": cov_unit, "cov": s2 * cov_unit, "s2": s2}


# ----------------------------------------------------------------- mixed

@dataclass(frozen=True)
class Cluster:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        z = x if self.z is None else np.asarray(self.z, dtype=float)
        if x.shape[0] != y.size or z.shape[0] != y.size:
            raise nk.InputError("cluster dimensions disagree")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def n(self):
        return self.y.size


@dataclass(frozen=True)
class MixedSpec:
    clusters: list
    g_mat: np.ndarray           # between-cluster covariance of random effects
    sigma2: float = None        # error variance; estimated if omitted
    r_mats: list = None         # per-cluster error covariance, default s2 I

    def __post_init__(self):
        if not self.clusters:
            raise nk.InputError("need at least one cluster")
        object.__setattr__(self, "g_mat",
                           nk.check_symmetric(self.g_mat))

    def error_variance(self):
        if self.sigma2 is not None:
            return float(self.sigma2)
        rss, df = 0.0, 0
        for c in self.clusters:
            coef, _, _, _ = np.linalg.lstsq(c.x, c.y, rcond=None)
            r = c.y - c.x @ coef
            rss += float(r @ r)
            df += c.n - c.x.shape[1]
        if df <= 0:
            raise nk.InputError("no residual degrees of freedom for sigma^2")
        return rss / df

    def r_mat(self, i, sigma2):
        """R_i: the given matrix, else sigma2 I."""
        if self.r_mats is not None:
            return np.asarray(self.r_mats[i], dtype=float)
        return sigma2 * np.eye(self.clusters[i].n)


def gls_fixed(spec):
    """Mixed-model GLS fixed effects with V_i = Z_i G Z_i' + R_i."""
    s2 = None
    if spec.r_mats is None:     # R_i = sigma^2 I, sigma^2 given or estimated
        s2 = (spec.error_variance() if spec.sigma2 is None
              else float(spec.sigma2))
    a = None
    b = None
    for i, c in enumerate(spec.clusters):
        v = c.z @ spec.g_mat @ c.z.T + spec.r_mat(i, s2)
        sv = np.linalg.svd(v, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise ValueError(f"cluster {i}: V is singular")
        vi_x = np.linalg.solve(v, c.x)
        if a is None:
            a = np.zeros((c.x.shape[1], c.x.shape[1]))
            b = np.zeros(c.x.shape[1])
        a += c.x.T @ vi_x
        b += vi_x.T @ c.y
    cov = np.linalg.inv(a)
    return {"beta": cov @ b, "cov": 0.5 * (cov + cov.T)}


def cluster_blues(spec):
    """Per-cluster OLS estimates with S_i = sigma^2 (X_i'X_i)^{-1}.

    Rank-deficient clusters are skipped and reported rather than fitted.
    """
    s2 = spec.error_variance()
    estimates, skipped = [], []
    for i, c in enumerate(spec.clusters):
        sv = np.linalg.svd(c.x, compute_uv=False)
        if c.n < c.x.shape[1] or sv[-1] <= 1e-10 * sv[0]:
            skipped.append(i)
            continue
        xtx_inv = np.linalg.inv(c.x.T @ c.x)
        beta = xtx_inv @ c.x.T @ c.y
        estimates.append({"index": i, "beta": beta, "s_mat": s2 * xtx_inv})
    return {"estimates": estimates, "skipped": skipped, "sigma2": s2}


def blup(beta_blue, s_mat, beta_gls, g_mat):
    """Inverse-variance weighted combination of a BLUE with the GLS pool.

    beta_gls + G (S + G)^{-1} (beta_blue - beta_gls) with covariance
    G - G (S + G)^{-1} G: equal to (S^{-1} + G^{-1})^{-1} (S^{-1} beta_blue
    + G^{-1} beta_gls) for a nonsingular G, and defined without inverting
    G, so a singular G pools completely along its null space. Complete
    pooling as G -> 0, no pooling as G -> infinity.
    """
    s_mat = nk.check_symmetric(s_mat)
    g_mat = nk.check_symmetric(g_mat)
    beta_gls = np.asarray(beta_gls, dtype=float)
    gain = np.linalg.solve(s_mat + g_mat, g_mat).T     # G (S + G)^{-1}
    beta = beta_gls + gain @ (np.asarray(beta_blue, dtype=float) - beta_gls)
    w = g_mat - gain @ g_mat
    return {"beta": beta, "cov": 0.5 * (w + w.T)}


def estimate_g_moments(blues):
    """Moment-matching G from a cluster_blues result: covariance of the
    BLUEs minus their average S_i, eigen-clipped to PSD."""
    betas = np.array([e["beta"] for e in blues["estimates"]])
    if betas.shape[0] < 2:
        raise ValueError("need at least two full-rank clusters")
    dev = betas - betas.mean(axis=0)
    raw = dev.T @ dev / (betas.shape[0] - 1)
    raw -= sum(e["s_mat"] for e in blues["estimates"]) / betas.shape[0]
    return nk.clip_psd(raw)


# ------------------------------------------------------------------ meta

@dataclass(frozen=True)
class MetaStudy:
    y: np.ndarray           # p outcome effects
    s_mat: np.ndarray       # p x p within-study covariance
    x_mat: np.ndarray = None  # study design; identity when omitted
    label: str = ""

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        s = nk.check_symmetric(self.s_mat)
        nk.require_pd(s)
        x = np.eye(y.size) if self.x_mat is None else \
            np.asarray(self.x_mat, dtype=float)
        if x.shape[0] != y.size:
            raise nk.InputError("design rows must match the outcome length")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s_mat", s)
        object.__setattr__(self, "x_mat", x)


def _meta_gls(studies, extra=None):
    a = None
    b = None
    for s in studies:
        sigma = s.s_mat if extra is None else s.s_mat + extra
        si_x = np.linalg.solve(sigma, s.x_mat)
        if a is None:
            k = s.x_mat.shape[1]
            a = np.zeros((k, k))
            b = np.zeros(k)
        a += s.x_mat.T @ si_x
        b += si_x.T @ s.y
    cov = np.linalg.inv(a)
    return {"beta": cov @ b, "cov": 0.5 * (cov + cov.T)}


def meta_fixed(studies):
    """Fixed-effect GLS pool: inverse-variance weighting by S_i alone."""
    if not studies:
        raise nk.InputError("need at least one study")
    return _meta_gls(studies)


def meta_random(studies, delta):
    """Random-effects pool with Sigma_i = S_i + Delta.

    Delta = 0 reduces exactly to the fixed-effect estimate; the returned
    covariance is the inverse of the accumulated precision.
    """
    delta = nk.check_symmetric(delta)
    if studies and delta.shape != studies[0].s_mat.shape:
        raise nk.InputError("Delta must match the within-study covariances")
    nk.psd_eigvals(delta)       # rejects a materially indefinite Delta
    return _meta_gls(studies, extra=delta)


def meta_blup(studies, beta_re, v_cov, delta):
    """Per-study BLUPs beta_re + Delta Sigma_i^{-1} (y_i - X_i beta_re).

    Each covariance is V + (Delta - Delta Sigma_i^{-1} Delta), never
    smaller than V in the PSD order.
    """
    delta = nk.check_symmetric(delta)
    beta_re = np.asarray(beta_re, dtype=float).ravel()
    out = []
    for s in studies:
        sigma = s.s_mat + delta
        mean_i = s.x_mat @ beta_re
        adj = delta @ np.linalg.solve(sigma, s.y - mean_i)
        cov_i = v_cov + delta - delta @ np.linalg.solve(sigma, delta)
        out.append({"label": s.label, "beta": mean_i + adj,
                    "cov": 0.5 * (cov_i + cov_i.T)})
    return out


def estimate_delta_mom(studies):
    """Method-of-moments between-study covariance, eigen-clipped to PSD.

    (g-1)^{-1} sum (y_i - ybar)(y_i - ybar)^T - g^{-1} sum S_i, for
    intercept-only designs.
    """
    if len(studies) < 2:
        raise nk.InputError("need at least two studies")
    ys = np.array([s.y for s in studies])
    g = len(studies)
    dev = ys - ys.mean(axis=0)
    raw = dev.T @ dev / (g - 1) - sum(s.s_mat for s in studies) / g
    return nk.clip_psd(raw)
