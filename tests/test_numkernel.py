import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ellipstat import gellipsoid as ge
from ellipstat import kissing as ki
from ellipstat import numkernel as nk
from ellipstat import statellipse as st

from conftest import random_pd

W_DEMO = np.array([[3.25, 3.5], [3.5, 5.0]])
# roots of the by-hand characteristic polynomial lam^2 - 8.25 lam + 4 = 0
W_EIGVALS = ((8.25 + np.sqrt(8.25 ** 2 - 16)) / 2,
             (8.25 - np.sqrt(8.25 ** 2 - 16)) / 2)


def test_sym_eig_identity():
    dec = nk.sym_eig(np.eye(2))
    assert dec.eigvals == pytest.approx([1.0, 1.0])


def test_sym_eig_diagonal():
    dec = nk.sym_eig(np.diag([4.0, 1.0]))
    assert dec.eigvals == pytest.approx([4.0, 1.0])
    assert np.abs(dec.eigvecs) == pytest.approx(np.eye(2))


def test_sym_eig_demo_matrix_vs_quadratic():
    dec = nk.sym_eig(W_DEMO)
    assert dec.eigvals == pytest.approx(W_EIGVALS, rel=1e-12)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(nk.NotSymmetricError) as err:
        nk.sym_eig(np.array([[1.0, 2.0], [0.5, 1.0]]))
    assert err.value.asymmetry == pytest.approx(1.5)


def test_sym_eig_sign_convention():
    dec = nk.sym_eig(W_DEMO)
    for j in range(2):
        col = dec.eigvecs[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_svd_identity_and_rank_one():
    assert nk.svd(np.eye(3)).singulars == pytest.approx([1.0, 1.0, 1.0])
    u = np.array([0.6, 0.8])
    dec = nk.svd(np.outer(u, u))
    assert dec.singulars == pytest.approx([1.0, 0.0], abs=1e-12)


def test_svd_vs_eig_of_aat():
    a = np.array([[1.0, 1.5], [2.0, 1.0]])
    dec = nk.svd(a)
    assert dec.singulars ** 2 == pytest.approx(W_EIGVALS, rel=1e-12)
    recon = dec.left @ np.diag(dec.singulars) @ dec.right.T
    assert np.abs(recon - a).max() < 1e-12


def test_cholesky_small_cases():
    assert np.abs(nk.cholesky(np.eye(3)) - np.eye(3)).max() == 0
    assert nk.cholesky(np.diag([4.0, 9.0])) == pytest.approx(
        np.diag([2.0, 3.0]))


def test_cholesky_demo_matrix_forward_substitution():
    b = nk.cholesky(W_DEMO)
    # forward substitution by hand: b11 = sqrt(3.25), b21 = 3.5/b11,
    # b22 = sqrt(5 - 3.5^2/3.25)
    assert b[0, 0] == pytest.approx(np.sqrt(3.25), rel=1e-14)
    assert b[1, 0] == pytest.approx(3.5 / np.sqrt(3.25), rel=1e-14)
    assert b[1, 1] == pytest.approx(np.sqrt(5 - 3.5 ** 2 / 3.25), rel=1e-14)
    assert np.abs(b @ b.T - W_DEMO).max() < 1e-10 * np.abs(W_DEMO).max()


def test_cholesky_reports_failing_pivot():
    bad = np.array([[1.0, 0.0, 0.0],
                    [0.0, -2.0, 0.0],
                    [0.0, 0.0, 3.0]])
    with pytest.raises(nk.NotPositiveDefiniteError) as err:
        nk.cholesky(bad)
    assert err.value.index == 1


def test_cholesky_rejects_a_small_pivot_lapack_accepts():
    # the second pivot is 1 + 1e-15 - 1, rounded: positive, so LAPACK
    # factors the matrix, but under 1e-14 * max|w|
    w = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    assert np.linalg.cholesky(w)[1, 1] > 0
    with pytest.raises(nk.NotPositiveDefiniteError) as err:
        nk.cholesky(w)
    assert err.value.index == 1
    assert 0 < err.value.value <= 1e-14


def test_psd_sqrt_boundary_and_identity():
    root, _ = nk.psd_sqrt(np.eye(4))
    assert np.abs(root - np.eye(4)).max() < 1e-12
    root, factor = nk.psd_sqrt(np.diag([4.0, 0.0]))
    assert root == pytest.approx(np.diag([2.0, 0.0]), abs=1e-12)
    assert np.abs(factor @ factor.T - np.diag([4.0, 0.0])).max() < 1e-12


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(nk.IndefiniteError):
        nk.psd_sqrt(np.diag([1.0, -0.5]))


def test_factorization_roundtrip_randomized():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = int(rng.integers(2, 9))
        w = random_pd(rng, p)
        scale = np.abs(w).max()
        b = nk.cholesky(w)
        assert np.abs(b @ b.T - w).max() <= 1e-10 * scale
        root, factor = nk.psd_sqrt(w)
        assert np.abs(root @ root - w).max() <= 1e-10 * scale
        assert np.abs(factor @ factor.T - w).max() <= 1e-10 * scale


def test_gen_eig_trivial_cases():
    e = random_pd(np.random.default_rng(1), 3)
    lam, _ = nk.gen_eig(e, e)
    assert lam == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)
    lam, _ = nk.gen_eig(np.zeros((3, 3)), e)
    assert lam == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_gen_eig_demo_pair_vs_quadratic():
    h = np.array([[9.0, 3.0], [3.0, 4.0]])
    e = np.array([[1.0, 0.5], [0.5, 2.0]])
    lam, v = nk.gen_eig(h, e)
    # det(H - lam E) = 0 expands to 1.75 lam^2 - 19 lam + 27 = 0
    roots = np.sort(np.roots([1.75, -19.0, 27.0]))[::-1]
    assert lam == pytest.approx(roots, rel=1e-12)
    assert lam[0] == pytest.approx(9.175, abs=1e-3)
    assert lam[1] == pytest.approx(1.682, abs=1e-3)
    for i in range(2):
        resid = h @ v[:, i] - lam[i] * (e @ v[:, i])
        assert np.abs(resid).max() < 1e-9
    assert np.abs(v.T @ e @ v - np.eye(2)).max() < 1e-10


def test_gen_eig_matches_symmetric_reduction():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = int(rng.integers(2, 6))
        h = random_pd(rng, p)
        e = random_pd(rng, p)
        lam, _ = nk.gen_eig(h, e)
        root, _ = nk.psd_sqrt(np.linalg.inv(e))
        lam_sym = nk.sym_eig(root @ h @ root).eigvals
        assert lam == pytest.approx(lam_sym, rel=1e-9, abs=1e-9)


def test_gen_eig_rejects_singular_e():
    with pytest.raises(nk.NotPositiveDefiniteError):
        nk.gen_eig(np.eye(2), np.diag([1.0, 0.0]))


def test_svd_singulars_equal_eigvals_for_psd():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = int(rng.integers(2, 7))
        m = random_pd(rng, p)
        assert nk.svd(m).singulars == pytest.approx(
            nk.sym_eig(m).eigvals, rel=1e-9)


def test_clip_psd():
    # PSD input comes back unchanged, up to rounding
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert nk.clip_psd(a) == pytest.approx(a, abs=1e-14)
    # an indefinite matrix loses its negative eigenvalue
    q = np.array([[0.6, -0.8], [0.8, 0.6]])
    w = q @ np.diag([3.0, -2.0]) @ q.T
    clipped = nk.clip_psd(w)
    assert clipped == pytest.approx(3.0 * np.outer(q[:, 0], q[:, 0]),
                                    abs=1e-14)
    assert np.linalg.eigvalsh(clipped).min() >= -1e-15
    # the symmetric part of a slightly asymmetric input, the same float
    # operations as the inline copies it replaced
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((3, 3))
    raw = raw @ raw.T - 1.5 * np.eye(3)
    raw[0, 1] += 1e-15
    dec = nk.sym_eig(0.5 * (raw + raw.T))
    lam = np.clip(dec.eigvals, 0.0, None)
    assert np.array_equal(nk.clip_psd(raw),
                          (dec.eigvecs * lam) @ dec.eigvecs.T)


def _with_spectrum(seed, lam):
    """Q diag(lam) Q^T for a random orthogonal Q drawn from seed."""
    p = len(lam)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))
    w = (q * lam) @ q.T
    return 0.5 * (w + w.T)


def _is_pd(w):
    try:
        nk.require_pd(w)
    except nk.NotPositiveDefiniteError:
        return False
    return True


@settings(max_examples=200, deadline=None, database=None)
@given(hs.integers(0, 2 ** 32 - 1), hs.integers(2, 5),
       hs.one_of(hs.floats(0.0, 10.0), hs.floats(14.0, 20.0)),
       hs.floats(-150.0, 150.0))
def test_require_pd_verdict_is_scale_free(seed, p, log_cond, log_s):
    # condition numbers kept two decades from the 1e12 threshold, so
    # rounding in the eigenvalues cannot decide the verdict
    w = _with_spectrum(seed, np.logspace(0.0, -log_cond, p))
    assert _is_pd(w) == _is_pd(10.0 ** log_s * w) == (log_cond < 12)


PD_SITES = {
    "QuadFamily": lambda w: ki.QuadFamily([0.0, 0.0], w),
    "lda_axis": lambda w: ki.lda_axis([1.0, 0.0], [0.0, 1.0], w),
    # every S_i of a stack is checked in one call, where it is built
    "StudyStack": lambda w: ki.StudyStack([[0.0, 0.0]], [w]),
    "mahalanobis": lambda w: st.mahalanobis([1.0, 0.0], [0.0, 0.0], w),
    "gen_eig": lambda w: nk.gen_eig(np.eye(2), w),
    "conjugate_axes": lambda w: ge.conjugate_axes(w, "principal"),
}


@pytest.mark.parametrize("site", sorted(PD_SITES))
@settings(max_examples=25, deadline=None, database=None)
@given(hs.integers(0, 2 ** 32 - 1), hs.floats(-150.0, 150.0))
def test_every_pd_site_has_the_same_threshold(site, seed, log_s):
    s = 10.0 ** log_s
    with pytest.raises(nk.NotPositiveDefiniteError):
        PD_SITES[site](s * _with_spectrum(seed, [1.0, 0.9e-12]))
    PD_SITES[site](s * _with_spectrum(seed, [1.0, 1.1e-12]))


# ------------------------------------------- stacks against one at a time
# sym_eig, psd_eigvals, require_pd and from_moments take a stack (k, p, p)
# and must give, bit for bit, what a loop of one-matrix calls gives; a
# stack with a bad matrix raises the error of the matrix a loop reports
# first among those failing the earliest check, with that matrix's index.

def _sym_eig_by_argsort(m):
    # sym_eig as it was for one matrix: eigh's order reversed by argsort
    w, v = np.linalg.eigh(nk.check_symmetric(m))
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return w, v * signs


def _bits(*arrays):
    return [(a.shape, np.ascontiguousarray(a).tobytes()) for a in arrays]


def _spectral(dec):
    return dec.eigvals, dec.eigvecs


def _parts(e):
    return e.center, e.frame, e.radii


# name: (the stack at once, one matrix), each as per-matrix arrays
KERNELS = {
    "sym_eig": (lambda ws, cs: zip(*_spectral(nk.sym_eig(ws))),
                lambda w, c: _spectral(nk.sym_eig(w))),
    "psd_eigvals": (lambda ws, cs: zip(*nk.psd_eigvals(ws)),
                    lambda w, c: nk.psd_eigvals(w)),
    "require_pd": (lambda ws, cs: zip(*nk.require_pd(ws)),
                   lambda w, c: nk.require_pd(w)),
    "from_moments": (lambda ws, cs: map(_parts, ge.from_moments(ws, cs)),
                     lambda w, c: _parts(ge.from_moment(w, c))),
}
CHECK_ORDER = [ValueError, nk.NotSymmetricError, nk.IndefiniteError,
               nk.NotPositiveDefiniteError]


def _outcome(fn):
    try:
        return fn(), None
    except ValueError as exc:
        return None, exc


@hs.composite
def _stack_with_one_bad(draw):
    k, p = draw(hs.integers(1, 50)), draw(hs.integers(1, 4))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    psd = draw(hs.booleans())
    mats = []
    for _ in range(k):
        lam = 10.0 ** rng.uniform(-4.0, 4.0, p)
        if psd:
            lam[rng.random(p) < 0.4] = 0.0      # zero radii
        mats.append(_with_spectrum(int(rng.integers(2 ** 32)), lam))
    stack = 10.0 ** draw(hs.floats(-150.0, 150.0)) * np.array(mats)
    at = draw(hs.integers(0, k - 1))
    bad = draw(hs.sampled_from(["none", "asymmetric", "indefinite",
                                "singular", "nan"]))
    if bad == "asymmetric" and p > 1:
        stack[at, 0, -1] += 1e-6 * np.abs(stack[at]).max()
    elif bad == "indefinite":
        stack[at] -= 0.5 * np.linalg.eigvalsh(stack[at])[-1] * np.eye(p)
    elif bad == "singular":
        lam = np.linalg.eigvalsh(stack[at])
        stack[at] -= lam[0] * np.eye(p)         # exact zero not promised
    elif bad == "nan":
        stack[at, -1, -1] = np.nan
    centers = rng.standard_normal((k, p))
    return stack, centers


def _same_error(got, want, at):
    # the stack's error is the lone matrix's, with the matrix's index
    assert type(got) is type(want)
    assert got.args == want.args
    if isinstance(want, nk.MatrixError):
        assert (want.at, want.name) == ((), "matrix")
        want = {**vars(want), "at": (at,), "name": f"matrix[{at}]"}
    else:
        want = vars(want)
    assert vars(got) == want


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@settings(max_examples=80, deadline=None, database=None)
@given(_stack_with_one_bad())
def test_stacked_kernels_match_one_matrix_at_a_time(kernel, case):
    stack, centers = case
    at_once, one = KERNELS[kernel]
    got, err = _outcome(lambda: [_bits(*r) for r in at_once(stack, centers)])
    loop = [_outcome(lambda: _bits(*one(w, c)))
            for w, c in zip(stack, centers)]
    errors = [(CHECK_ORDER.index(type(e)), i, e)
              for i, (_, e) in enumerate(loop) if e is not None]
    if errors:
        assert got is None
        _, at, want = min(errors, key=lambda t: t[:2])
        _same_error(err, want, at)
    else:
        assert err is None
        assert got == [want for want, _ in loop]
    if kernel == "sym_eig":
        # one matrix: the same floats as reversing eigh's order by argsort
        for (want, e), m in zip(loop, stack):
            if e is None:
                assert want == _bits(*_sym_eig_by_argsort(m))


@pytest.mark.parametrize("log_s", [-100.0, 0.0, 100.0])
def test_cov_to_corr_in_any_units(log_s):
    # the covariance of data in units 10^log_s: s_ii s_jj under- and
    # overflows at 1e-400 and 1e400, where sqrt(s_ii) sqrt(s_jj) does not
    cov = np.array([[4.0, 1.2, 0.0], [1.2, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        corr = nk.cov_to_corr(10.0 ** (2 * log_s) * cov, undefined=0.0)
    assert corr == pytest.approx(np.array(
        [[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 0.0]]), rel=1e-15)


def test_qr_lstsq_reads_everything_from_r():
    # coef, (X'X)^{-1} = W W' and the residual cross-products R_yy'R_yy of
    # two responses, against the normal equations of a well-conditioned x
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 3))
    y = x @ rng.standard_normal((3, 2)) + rng.standard_normal((30, 2))
    coef, w, r, sv = nk.qr_lstsq(x, y)
    assert coef.shape == (3, 2) and r.shape == (5, 5)
    assert sv == pytest.approx(np.linalg.svd(x, compute_uv=False),
                               rel=1e-12)
    assert coef == pytest.approx(np.linalg.solve(x.T @ x, x.T @ y),
                                 rel=1e-12)
    xtx_inv = w @ w.T
    assert np.array_equal(xtx_inv, xtx_inv.T)
    assert xtx_inv == pytest.approx(np.linalg.inv(x.T @ x), rel=1e-12)
    resid = y - x @ coef
    assert r[3:, 3:].T @ r[3:, 3:] == pytest.approx(resid.T @ resid,
                                                    rel=1e-12)
    vec, _, _, _ = nk.qr_lstsq(x, y[:, 0])
    assert vec.shape == (3,) and vec == pytest.approx(coef[:, 0], rel=1e-14)
    with pytest.raises(ValueError, match="rank deficient"):
        nk.qr_lstsq(x[:, [0, 1, 0]], y)
    with pytest.raises(ValueError, match="fewer rows than columns"):
        nk.qr_lstsq(x[:2], y[:2])
