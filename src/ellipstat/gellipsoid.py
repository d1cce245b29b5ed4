# Generalized ellipsoids: center + orthogonal frame + radii in [0, inf].
# One object covers the proper ("fat"), degenerate ("flat") and unbounded
# (cylinder) cases, closed under duality, linear images and projections.

import math
from dataclasses import dataclass

import numpy as np

from . import numkernel as nk

ZERO_RADIUS_TOL = 1e-12
FRAME_TOL = 1e-10


@dataclass(frozen=True)
class Signature:
    """Counts of positive, zero and infinite radii; always sums to p."""
    n_pos: int
    n_zero: int
    n_inf: int

    def as_tuple(self):
        return (self.n_pos, self.n_zero, self.n_inf)


@dataclass(frozen=True)
class GEllipsoid:
    center: np.ndarray
    frame: np.ndarray   # orthogonal, columns are principal axes
    radii: np.ndarray   # descending, entries in [0, inf]

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).ravel()
        frame = np.asarray(self.frame, dtype=float)
        radii = np.array(self.radii, dtype=float).ravel()
        _check(center, frame, radii)
        # zero is decided here, once: a radius at or below ZERO_RADIUS_TOL
        # times the largest finite one is roundoff, and every other
        # function counts exact zeros
        top = radii[np.isfinite(radii)].max(initial=0.0)
        radii[radii <= ZERO_RADIUS_TOL * top] = 0.0
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "radii", radii)

    @property
    def dim(self):
        return self.center.size


def _check(centers, frames, radii):
    """Raise InputError unless each (center, frame, radii) of the stacks
    (..., p), (..., p, p) and (..., p) is a generalized ellipsoid: an
    orthogonal frame and radii in [0, inf], descending to within 1e-9 of
    its largest finite radius (inf counts as the largest)."""
    p = centers.shape[-1]
    if frames.shape != centers.shape + (p,):
        raise nk.InputError(
            f"frame shape {frames.shape} != {centers.shape + (p,)}")
    if radii.shape != centers.shape:
        raise nk.InputError("radii length does not match dimension")
    if not (radii >= 0).all():
        raise nk.InputError("radii must be nonnegative (inf allowed)")
    dev = np.abs(frames.swapaxes(-1, -2) @ frames - np.eye(p))
    dev = dev.max(initial=0.0)
    if dev > FRAME_TOL:
        raise nk.InputError(
            f"frame is not orthogonal (deviation {dev:.2e})")
    if (radii[..., 1:] > radii[..., :-1]).any():
        top = np.where(np.isfinite(radii), radii, 0.0).max(axis=-1,
                                                            keepdims=True)
        rise = np.diff(np.minimum(radii, np.finfo(float).max), axis=-1)
        if (rise > 1e-9 * top).any():
            raise nk.InputError("radii must be sorted descending")


def _checked(center, frame, radii):
    """A GEllipsoid of parts that _check has passed, as one of a stack."""
    e = object.__new__(GEllipsoid)
    e.__dict__.update(center=center, frame=frame, radii=radii)
    return e


def from_moments(ws, centers=None):
    """from_moment of each PSD matrix of a stack (k, p, p) about its center
    (k, p), the origin if omitted: a list of k ellipsoids from one
    eigen-decomposition and one check of the stack."""
    lam, vecs = nk.psd_eigvals(ws)
    radii = np.sqrt(lam)
    # lam is descending, so zeroing its small tail keeps the radii sorted
    radii[lam <= ZERO_RADIUS_TOL * lam[..., :1]] = 0.0
    centers = np.zeros_like(radii) if centers is None else \
        np.asarray(centers, dtype=float)
    if centers.size == radii.size:
        centers = centers.reshape(radii.shape)
    _check(centers, vecs, radii)
    p = radii.shape[-1]
    return [_checked(c, f, r) for c, f, r in
            zip(centers.reshape(-1, p), vecs.reshape(-1, p, p),
                radii.reshape(-1, p))]


def from_moment(w, center=None):
    """Ellipsoid of a PSD moment (covariance-like) matrix: radii sqrt(eig)."""
    [e] = from_moments(w, center)
    return e


def from_precision(c, center=None):
    """Ellipsoid {x: (x-mu)^T C (x-mu) <= 1}, the dual of C's moment
    ellipsoid: radii 1/sqrt(eig(C)).

    A zero eigenvalue of C leaves the ellipsoid unbounded along that
    eigenvector.
    """
    return dual(from_moment(c, center))


def from_generator(a, center=None):
    """Image of the unit sphere under an arbitrary (maybe rectangular) map.

    Equals from_moment(a @ a.T) whenever that product is finite.
    """
    a = nk.as_matrix(a)
    if a.ndim != 2:
        raise nk.InputError("generator must be a matrix")
    p = a.shape[0]
    if center is None:
        center = np.zeros(p)
    dec = nk.svd(a)
    radii = np.zeros(p)
    k = min(p, dec.singulars.size)
    radii[:k] = dec.singulars[:k]
    return GEllipsoid(center=center, frame=dec.left, radii=radii)


def dual(e):
    """Elementwise radius inversion (1/0 = inf, 1/inf = 0); an involution.

    The dual of a valid ellipsoid needs no check: its positive radii lie
    in (1e-12 r_max, r_max], so the dual's lie in [1/r_max, 1/r_min) with
    1/r_max above 1e-12 / r_min, and the zero rule holds for it too.
    """
    with np.errstate(divide="ignore"):
        radii = 1.0 / e.radii
    order = np.argsort(-radii, kind="stable")
    return _checked(e.center, e.frame[:, order], radii[order])


def signature(e):
    n_zero = int(np.count_nonzero(e.radii == 0))
    n_inf = int(np.count_nonzero(np.isinf(e.radii)))
    return Signature(n_pos=e.radii.size - n_inf - n_zero, n_zero=n_zero,
                     n_inf=n_inf)


def linear_image(e, l_mat):
    """Image L(E) of the ellipsoid under an m x p linear map.

    Finite part maps through the SVD of L U diag(radii); unbounded
    directions map to the span of their images (the image stays infinite
    unless L annihilates the direction). What the map can reach sets the
    roundoff scale: an unbounded axis whose image is within ZERO_RADIUS_TOL
    of |L| is annihilated, and so is a radius within ZERO_RADIUS_TOL of
    |L| times the largest finite radius.
    """
    l_mat = nk.as_matrix(l_mat)
    if l_mat.ndim != 2 or l_mat.shape[1] != e.dim:
        raise nk.InputError(
            f"map shape {l_mat.shape} does not act on R^{e.dim}")
    m = l_mat.shape[0]
    center = l_mat @ e.center
    inf_mask = np.isinf(e.radii)
    fin_gen = l_mat @ (e.frame[:, ~inf_mask] * e.radii[~inf_mask])
    reach = np.linalg.norm(l_mat)
    # Orthonormal basis of the image of the unbounded directions, from the
    # rank-revealing SVD (an unpivoted QR hides a column behind a zero one).
    dec = nk.svd(l_mat @ e.frame[:, inf_mask])
    k = int(np.sum(dec.singulars > ZERO_RADIUS_TOL * reach))
    if k == 0:
        image = from_generator(fin_gen, center)
        frame, radii = image.frame, image.radii
    else:
        # The cylinder swallows any finite extent along its axis
        # directions: project the finite generator onto the orthogonal
        # complement.
        q = dec.left[:, :k]
        rest = from_generator(fin_gen - q @ (q.T @ fin_gen), np.zeros(m))
        # Re-orthonormalize the complement part against q (kills roundoff
        # and any zero-radius axes of `rest` that leaked into span(q)).
        frame, _ = np.linalg.qr(np.column_stack([q, rest.frame[:, :m - k]]))
        radii = np.concatenate([np.full(k, np.inf), rest.radii[:m - k]])
    top = reach * e.radii[~inf_mask].max(initial=0.0)
    radii[radii <= ZERO_RADIUS_TOL * top] = 0.0
    return GEllipsoid(center=center, frame=frame, radii=radii)


def project(e, p_mat, tol=1e-10):
    """Image under an idempotent matrix (orthogonal shadow if symmetric)."""
    p_mat = nk.as_matrix(p_mat)
    dev = np.abs(p_mat @ p_mat - p_mat).max()
    if dev > tol * max(1.0, np.abs(p_mat).max()):
        raise nk.InputError(f"matrix is not idempotent: |P^2 - P| = {dev:.2e}")
    return linear_image(e, p_mat)


def scaled_sq_distance(e, x, tol=1e-9):
    """Sum of (z_i / r_i)^2 over the positive finite radii r_i, z the
    coordinates of x - center in the frame: at most 1 inside the ellipsoid.

    Infinite radii impose no constraint; a zero radius gives inf unless x
    lies in the flat within tol (scaled by the largest finite radius).
    """
    x = np.asarray(x, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise nk.InputError("point must be finite")
    z = e.frame.T @ (x - e.center)
    finite = np.isfinite(e.radii)
    flat = e.radii == 0
    if np.any(np.abs(z[flat]) > tol * e.radii[finite].max(initial=0.0)):
        return math.inf
    pos = finite & ~flat
    return float(np.sum((z[pos] / e.radii[pos]) ** 2))


def contains(e, x, tol=1e-9):
    """Classify a point as 'inside', 'boundary' or 'outside' by its
    scaled_sq_distance, to within tol."""
    norm = math.sqrt(scaled_sq_distance(e, x, tol))
    if abs(norm - 1.0) <= tol:
        return "boundary"
    return "inside" if norm < 1.0 else "outside"


def size_measures(e):
    """The four scalar 'size' summaries of the squared radii.

    generalized_variance = prod(radii^2)   (determinant / squared volume scale)
    avg_variance         = sum(radii^2)    (trace)
    avg_precision        = 1 / sum(radii^-2)   (harmonic)
    max_variance         = radii[0]^2      (largest axis)
    """
    lam = e.radii ** 2
    if np.any(np.isinf(lam)):
        gen_var = math.inf
        avg_var = math.inf
    else:
        gen_var = float(np.prod(lam))
        avg_var = float(np.sum(lam))
    if np.any(lam == 0):
        avg_prec = 0.0
    elif np.all(np.isinf(lam)):
        avg_prec = math.inf
    else:
        avg_prec = float(1.0 / np.sum(1.0 / lam))
    max_var = float(lam[0])
    return {
        "generalized_variance": gen_var,
        "avg_variance": avg_var,
        "avg_precision": avg_prec,
        "max_variance": max_var,
    }


def volume(e):
    """Hypervolume pi^{p/2} prod(radii) / Gamma(p/2 + 1); 0 if flat, inf if unbounded."""
    if np.any(np.isinf(e.radii)):
        return math.inf
    p = e.dim
    return float(np.pi ** (p / 2.0) * np.prod(e.radii)
                 / math.gamma(p / 2.0 + 1.0))


@dataclass(frozen=True)
class ConjugateAxes:
    axes: np.ndarray    # columns a_i with A A^T = W
    kind: str           # 'given' | 'cholesky' | 'principal'

    def parallelogram(self, center=None):
        """Vertices of the bounding tangent parallelepiped (2^p corners)."""
        p = self.axes.shape[0]
        if center is None:
            center = np.zeros(p)
        center = np.asarray(center, dtype=float)
        corners = []
        for mask in range(2 ** p):
            signs = np.array([1.0 if mask >> i & 1 else -1.0
                              for i in range(p)])
            corners.append(center + self.axes @ signs)
        return np.array(corners)

    def gram_residual(self, w):
        """max |A' W^-1 A - I| for the W that A factors: zero for conjugate
        axes, up to rounding."""
        gram = self.axes.T @ np.linalg.solve(w, self.axes)
        return float(np.abs(gram - np.eye(len(gram))).max())

    def area(self):
        """Volume of the bounding parallelepiped: 2^p |det A|."""
        p = self.axes.shape[0]
        return float(2 ** p * abs(np.linalg.det(self.axes)))

    def sum_sq_diameters(self):
        """Sum of squared diameter lengths, 4 * 2^{p-1} * tr(A A^T) / ... .

        A diameter joins opposite corners +/- A s over sign vectors s;
        there are 2^{p-1} of them with squared length 4 |A s|^2. Their sum
        equals 2^{p+1} tr(A A^T), an invariant of W alone.
        """
        p = self.axes.shape[0]
        total = 0.0
        for mask in range(2 ** (p - 1)):
            signs = np.array([1.0] + [1.0 if mask >> i & 1 else -1.0
                                      for i in range(p - 1)])
            d = 2.0 * self.axes @ signs
            total += float(d @ d)
        return total


def conjugate_axes(w, kind="principal", given=None):
    """A factor A of the PD matrix W (W = A A^T); columns are conjugate axes.

    kind='cholesky' gives the lower-triangular factor (last axis aligned
    with the last coordinate axis); kind='principal' gives the spectral
    factor (mutually orthogonal axes); kind='given' validates a
    user-supplied factor.
    """
    w = nk.check_symmetric(w)
    if kind == "given":
        if given is None:
            raise nk.InputError("kind='given' requires the factor")
        a = nk.as_matrix(given)
        resid = (np.abs(a @ a.T - w).max() if a.shape == w.shape
                 else np.inf)
        if resid > 1e-8 * max(np.abs(w).max(), 1e-300):
            raise nk.InputError(
                f"given factor does not reproduce W ({resid:.2e})")
    elif kind == "cholesky":
        a = nk.cholesky(w)
    elif kind == "principal":
        lam, vecs = nk.require_pd(w)
        a = vecs * np.sqrt(lam)
    else:
        raise nk.InputError(f"unknown kind {kind!r}")
    return ConjugateAxes(axes=a, kind=kind)


def tangent_plane(e, x_boundary, tol=1e-9):
    """Tangent hyperplane to a proper ellipsoid at a boundary point.

    Returns (normal, offset) with normal^T x = offset on the plane; the
    normal is proportional to C (x - mu) for the precision matrix C.
    """
    if signature(e).as_tuple() != (e.dim, 0, 0):
        raise nk.InputError("tangent plane requires a proper ellipsoid")
    status = contains(e, x_boundary, tol)
    if status != "boundary":
        raise nk.InputError(f"point is {status}, not on the boundary")
    x = np.asarray(x_boundary, dtype=float).ravel()
    c_mat = (e.frame / e.radii ** 2) @ e.frame.T
    normal = c_mat @ (x - e.center)
    normal = normal / np.linalg.norm(normal)
    return normal, float(normal @ x)
