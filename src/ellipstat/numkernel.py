# Dense decomposition kernels for the small symmetric / positive-definite
# matrices (p <= ~20) that the rest of the package consumes. numpy's LAPACK
# wrappers do the heavy lifting; this module adds the validation, ordering
# and sign conventions everything downstream relies on.

from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-12        # relative asymmetry accepted by sym_eig
PSD_CLIP = 1e-10       # eigenvalues in [-PSD_CLIP*lam_max, 0] clip to zero


class NotSymmetricError(ValueError):
    def __init__(self, asymmetry, scale):
        self.asymmetry = asymmetry
        super().__init__(
            f"matrix is not symmetric: max|M - M^T| = {asymmetry:.3e} "
            f"exceeds {SYM_TOL:.0e} * max|M| = {SYM_TOL * scale:.3e}")


class NotPositiveDefiniteError(ValueError):
    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(
            f"matrix is not positive definite: pivot {index} is {value:.3e}")


class IndefiniteError(ValueError):
    def __init__(self, value):
        self.value = value
        super().__init__(
            f"matrix is materially indefinite: eigenvalue {value:.3e}")


@dataclass(frozen=True)
class SpectralDecomp:
    eigvals: np.ndarray    # descending
    eigvecs: np.ndarray    # orthogonal, columns are eigenvectors


@dataclass(frozen=True)
class SvdDecomp:
    left: np.ndarray
    singulars: np.ndarray  # nonnegative, descending
    right: np.ndarray      # A = left @ diag(singulars) @ right.T


def as_matrix(m):
    a = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def check_symmetric(m, tol=SYM_TOL):
    a = as_matrix(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1e-300)
    asym = np.abs(a - a.T).max()
    if asym > tol * scale:
        raise NotSymmetricError(asym, scale)
    return 0.5 * (a + a.T)


def _fix_signs(vecs):
    # Deterministic convention: largest-magnitude component positive.
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs, signs


def sym_eig(m, tol=SYM_TOL):
    """Spectral decomposition of a symmetric matrix, eigenvalues descending."""
    a = check_symmetric(m, tol)
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    v, _ = _fix_signs(v)
    return SpectralDecomp(eigvals=w, eigvecs=v)


def svd(a):
    """SVD with the same deterministic sign convention as sym_eig."""
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    k = s.size
    u_k, signs = _fix_signs(u[:, :k])
    u = u.copy()
    u[:, :k] = u_k
    v = vt.T.copy()
    v[:, :k] = v[:, :k] * signs
    return SvdDecomp(left=u, singulars=s, right=v)


def cholesky(w):
    """Lower-triangular B with B @ B.T = w.

    Hand-rolled so a failing pivot is reported by index; fine for the
    small matrices this package works with.
    """
    a = check_symmetric(w)
    p = a.shape[0]
    scale = max(np.abs(a).max(), 1e-300)
    b = np.zeros_like(a)
    for j in range(p):
        d = a[j, j] - b[j, :j] @ b[j, :j]
        if d <= 1e-14 * scale:
            raise NotPositiveDefiniteError(j, d)
        b[j, j] = np.sqrt(d)
        for i in range(j + 1, p):
            b[i, j] = (a[i, j] - b[i, :j] @ b[j, :j]) / b[j, j]
    return b


def psd_sqrt(w):
    """Symmetric principal square root and spectral factor of a PSD matrix.

    Returns (root, factor) with root = factor @ factor.T symmetric and
    factor = eigvecs @ diag(sqrt(eigvals)). Slightly negative eigenvalues
    within the PSD tolerance are clipped to zero; anything lower is an
    error.
    """
    dec = sym_eig(w)
    lam_max = max(dec.eigvals[0], 0.0)
    floor = -PSD_CLIP * max(lam_max, 1e-300)
    if dec.eigvals[-1] < floor:
        raise IndefiniteError(dec.eigvals[-1])
    lam = np.clip(dec.eigvals, 0.0, None)
    factor = dec.eigvecs * np.sqrt(lam)
    root = factor @ dec.eigvecs.T
    return 0.5 * (root + root.T), factor


def psd_eigvals(w):
    """Eigen-decomposition with PSD clipping applied; raises if indefinite."""
    dec = sym_eig(w)
    lam_max = max(dec.eigvals[0], 0.0)
    floor = -PSD_CLIP * max(lam_max, 1e-300)
    if dec.eigvals[-1] < floor:
        raise IndefiniteError(dec.eigvals[-1])
    return np.clip(dec.eigvals, 0.0, None), dec.eigvecs


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
    e_vals, e_vecs = psd_eigvals(e)
    if e_vals[-1] <= 1e-12 * max(e_vals[0], 1e-300):
        raise NotPositiveDefiniteError(int(np.argmin(e_vals)), e_vals[-1])
    inv_root = e_vecs * (1.0 / np.sqrt(e_vals))          # E^{-1/2} factor
    h_star = inv_root.T @ h @ inv_root
    dec = sym_eig(0.5 * (h_star + h_star.T))
    v = inv_root @ dec.eigvecs
    v, _ = _fix_signs(v)
    return dec.eigvals, v
