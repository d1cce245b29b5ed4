# Dense decomposition kernels for the small symmetric / positive-definite
# matrices (p <= ~20) that the rest of the package consumes. numpy's LAPACK
# wrappers do the heavy lifting; this module adds the validation, ordering
# and sign conventions everything downstream relies on.

import math
from typing import NamedTuple

import numpy as np

# The matrix verdicts. Each bound is relative to the matrix's own scale,
# floored at TINY, so no verdict changes when the matrix is scaled.
SYM_TOL = 1e-12        # relative asymmetry accepted by check_symmetric
PSD_CLIP = 1e-10       # eigenvalues in [-PSD_CLIP*lam_max, 0] clip to zero
NEGLIGIBLE_EIG = 1e-12  # see negligible_eig
# A design has full column rank when, with its columns scaled to unit
# length, its smallest singular value exceeds RANK_TOL times its largest.
RANK_TOL = 1e-10
TINY = 1e-300


class InputError(ValueError):
    """A caller's argument is out of range, misshapen or of an unknown kind.

    A plain ValueError means the computation met degenerate data instead,
    such as a singular, indefinite or rank-deficient matrix.
    """


class MatrixError(ValueError):
    """A check failed on the matrix at index `at` of a stack (() for a lone
    matrix). `name` starts the message; a caller may rename the matrix."""

    def __init__(self, detail, at=()):
        super().__init__(detail)
        self.at = at
        self.name = "matrix" + "".join(f"[{i}]" for i in at)

    def __str__(self):
        return f"{self.name} {self.args[0]}"


class NotSymmetricError(InputError, MatrixError):
    def __init__(self, asymmetry, scale, at=()):
        self.asymmetry = asymmetry
        super().__init__(
            f"is not symmetric: max|M - M^T| = {asymmetry:.3e} "
            f"exceeds {SYM_TOL:.0e} * max|M| = {SYM_TOL * scale:.3e}", at)


class NotPositiveDefiniteError(MatrixError):
    def __init__(self, index, value, at=()):
        self.index = index
        self.value = value
        super().__init__(
            f"is not positive definite: eigenvalue {index} is {value:.3e}",
            at)


class IndefiniteError(MatrixError):
    def __init__(self, value, at=()):
        self.value = value
        super().__init__(
            f"is materially indefinite: eigenvalue {value:.3e}", at)


class Frozen:
    """Base of a value whose __init__ checks its arguments and sets its
    attributes once, through __dict__: assigning or deleting one afterwards
    raises AttributeError. A value equals only itself and hashes by
    identity, as a plain object does: its attributes may be arrays, which
    have no truth value to compare by."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}"
                             f".{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class SpectralDecomp(NamedTuple):
    eigvals: np.ndarray    # descending
    eigvecs: np.ndarray    # orthogonal, columns are eigenvectors


class SvdDecomp(NamedTuple):
    left: np.ndarray
    singulars: np.ndarray  # nonnegative, descending
    right: np.ndarray      # A = left @ diag(singulars) @ right.T


def as_matrix(m):
    a = np.asarray(m, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def cov_to_corr(s, undefined=np.nan):
    """The correlations s_ij / sqrt(s_ii s_jj) of a covariance matrix; an
    entry whose row or column variance is not positive is `undefined`."""
    s = as_matrix(s)
    d = np.diag(s)
    ok = d > 0
    out = np.full(s.shape, float(undefined))
    root = np.sqrt(np.where(ok, d, 0.0))
    # outer(root, root), not sqrt(outer(d, d)): the product of two
    # variances over- or underflows where their roots do not
    return np.divide(s, np.outer(root, root), out=out,
                     where=np.outer(ok, ok))


def _first(bad):
    """Index of the first True of a boolean stack that has one."""
    return np.unravel_index(np.argmax(bad), bad.shape)


def check_symmetric(m):
    """The symmetric part of a square matrix, or of each in a stack of them,
    after checking that its asymmetry is within SYM_TOL of its own scale."""
    a = as_matrix(m)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    at = a.swapaxes(-1, -2)
    scale = np.abs(a).max(axis=(-2, -1), initial=TINY)
    asym = np.abs(a - at).max(axis=(-2, -1))
    bad = asym > SYM_TOL * scale
    if bad.any():
        first = _first(bad)
        raise NotSymmetricError(asym[first], scale[first], first)
    return 0.5 * (a + at)


def fix_signs(vecs):
    """The deterministic sign convention: each column of a matrix, or of
    each matrix in a stack, times the sign (+1 for zero) of its
    largest-magnitude component. Returns (signed columns, signs)."""
    stack = vecs.reshape(math.prod(vecs.shape[:-2]), *vecs.shape[-2:])
    top = np.abs(stack).argmax(axis=1)
    signs = np.sign(stack[np.arange(len(stack))[:, None], top,
                          np.arange(stack.shape[2])])
    signs[signs == 0] = 1.0
    signs = signs.reshape(vecs.shape[:-2] + vecs.shape[-1:])
    return vecs * signs[..., None, :], signs


def sym_eig(m):
    """Spectral decomposition of a symmetric matrix, or of each in a stack
    (..., p, p), eigenvalues descending."""
    w, v = np.linalg.eigh(check_symmetric(m))
    v, _ = fix_signs(v[..., ::-1])          # eigh's order is ascending
    return SpectralDecomp(eigvals=w[..., ::-1].copy(), eigvecs=v)


def svd(a):
    """SVD with the same deterministic sign convention as sym_eig."""
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    k = s.size
    u_k, signs = fix_signs(u[:, :k])
    u = u.copy()
    u[:, :k] = u_k
    v = vt.T.copy()
    v[:, :k] = v[:, :k] * signs
    return SvdDecomp(left=u, singulars=s, right=v)


def cholesky(w):
    """Lower-triangular B with B @ B.T = w, from LAPACK, for a w that
    require_pd accepts."""
    a = check_symmetric(w)
    require_pd(a)
    return np.linalg.cholesky(a)


def psd_sqrt(w):
    """Symmetric principal square root and spectral factor of a PSD matrix.

    Returns (root, factor) with root = factor @ factor.T symmetric and
    factor = eigvecs @ diag(sqrt(eigvals)), eigenvalues clipped as in
    psd_eigvals.
    """
    lam, vecs = psd_eigvals(w)
    factor = vecs * np.sqrt(lam)
    root = factor @ vecs.T
    return 0.5 * (root + root.T), factor


def psd_eigvals(w):
    """Eigen-decomposition with PSD clipping applied; raises if indefinite.

    A stack (..., p, p) is decomposed at once; the first indefinite matrix
    raises the error a call on it alone would, with its index in `at`.
    """
    dec = sym_eig(w)
    lam = dec.eigvals
    bad = lam[..., -1] < -PSD_CLIP * np.maximum(lam[..., 0], TINY)
    if bad.any():
        at = _first(bad)
        raise IndefiniteError(lam[at][-1], at)
    return np.maximum(lam, 0.0), dec.eigvecs


def require_pd(w):
    """psd_eigvals(w) of a positive-definite w: (eigvals descending, eigvecs).

    Raises NotPositiveDefiniteError, naming the smallest eigenvalue, when
    it is negligible, for the first such matrix of a stack.
    """
    lam, vecs = psd_eigvals(w)
    bad = negligible_eig(lam[..., -1], lam[..., 0])
    if bad.any():
        at = _first(bad)
        raise NotPositiveDefiniteError(int(np.argmin(lam[at])), lam[at][-1],
                                       at)
    return lam, vecs


def negligible_eig(lam, lam_max):
    """Whether each eigenvalue lam (>= 0) of a PSD matrix whose largest is
    lam_max is zero to rounding: lam <= NEGLIGIBLE_EIG * max(lam_max,
    TINY). The one rule for a singular matrix, also applied to the squared
    singular values of R for R'R."""
    return lam <= NEGLIGIBLE_EIG * np.maximum(lam_max, TINY)


def pow2_scaled(x, axis=-2):
    """x with each slice along axis (by default each column) scaled by the
    power of two that brings its largest entry into [0.5, 1): that changes
    no bit of a product or ratio where the raw squares stay in the double
    range, and keeps them in it elsewhere. A zero slice stays as it is."""
    _, e = np.frexp(np.abs(x).max(axis=axis, keepdims=True, initial=0.0))
    return np.ldexp(x, -e)


def unit_columns(x):
    """x, or each matrix of a stack, with its nonzero columns scaled to
    unit length, after pow2_scaled."""
    x = pow2_scaled(x)
    norms = np.linalg.norm(x, axis=-2, keepdims=True)
    return x / np.where(norms > 0, norms, 1.0)


def rank_drops(sv):
    """Which singular values (descending, last axis) of a matrix with
    unit-length columns are at or below RANK_TOL times the largest: the
    one rank rule."""
    return sv <= RANK_TOL * sv[..., :1]


def require_full_rank(x):
    """The singular values of the design x, descending; raises ValueError
    unless x has full column rank (RANK_TOL)."""
    if x.shape[0] < x.shape[1]:
        raise ValueError("design is rank deficient: fewer rows than columns")
    sv = np.linalg.svd(x, compute_uv=False)
    # with unit-length columns the condition number is at most sqrt(q)
    # times this one (van der Sluis): only a design near the threshold
    # needs them
    if sv[-1] > np.sqrt(x.shape[1]) * RANK_TOL * sv[0]:
        return sv
    unit = np.linalg.svd(unit_columns(x), compute_uv=False)
    if rank_drops(unit)[-1]:
        raise ValueError("design is rank deficient: min singular value "
                         f"{unit[-1]:.3e} of its unit-length columns")
    return sv


def qr_lstsq(x, y):
    """The one least-squares kernel: y, a vector or each column of a
    matrix, on the columns of x, from the R = [[R_x, R_xy], [0, R_yy]] of
    one Householder QR of the raw [x | y], backward stable column by
    column, so a column's units change nothing beyond rounding. Returns
    (coef, W, R, sv): coef = W R_xy, W = R_x^{-1}, so (x'x)^{-1} = W W' is
    symmetric by construction; R_yy' R_yy is the residual cross-products.
    R_x has the singular values sv of x, descending, and is the rank
    verdict's input; W's are 1 / sv reversed."""
    q = x.shape[1]
    r = np.linalg.qr(np.concatenate([x, y.reshape(len(y), -1)], axis=1),
                     mode="r")
    sv = require_full_rank(r[:q, :q])
    w = np.linalg.inv(r[:q, :q])
    return (w @ r[:q, q:]).reshape((q,) + y.shape[1:]), w, r, sv


def clip_psd(w):
    """The symmetric part of w with its negative eigenvalues set to zero."""
    a = as_matrix(w)
    dec = sym_eig(0.5 * (a + a.T))
    lam = np.clip(dec.eigvals, 0.0, None)
    return (dec.eigvecs * lam) @ dec.eigvecs.T


def gen_eig(h, e):
    """Generalized symmetric-definite eigenproblem det(H - lam E) = 0.

    Solved through the symmetric reduction E^{-1/2} H E^{-1/2}. Returns
    (eigvals descending, V) with columns of V satisfying H v = lam E v and
    the normalization V.T @ E @ V = I.
    """
    h = check_symmetric(h)
    e_vals, e_vecs = require_pd(e)
    inv_root = e_vecs * (1.0 / np.sqrt(e_vals))          # E^{-1/2} factor
    h_star = inv_root.T @ h @ inv_root
    dec = sym_eig(0.5 * (h_star + h_star.T))
    v = inv_root @ dec.eigvecs
    v, _ = fix_signs(v)
    return dec.eigvals, v
