# Multivariate linear models: hypothesis and error SSCP matrices, the four
# classical test criteria with F approximations, HE-plot scaling (effect
# and Roy-significance), additive contrast decomposition, and canonical
# discriminant projections.

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import distributions as dist
from . import gellipsoid as ge
from . import numkernel as nk
from . import statellipse as st

# two contrasts are orthogonal when max |L_i L_j'| is at most this times
# |L_i| |L_j| (Frobenius norms), so the verdict is free of their units
ORTHOGONAL_TOL = 1e-10


@dataclass(frozen=True)
class MlmFit:
    coef: np.ndarray        # q x p
    e_mat: np.ndarray       # p x p residual SSCP
    df_e: int
    xtx_inv: np.ndarray
    n: int
    p: int
    q: int
    y_mean: np.ndarray      # grand means of the responses
    names: tuple            # response names


@dataclass(frozen=True)
class Hypothesis:
    l_mat: np.ndarray       # h x q contrast matrix
    label: str = ""

    def __post_init__(self):
        l_mat = np.atleast_2d(np.asarray(self.l_mat, dtype=float))
        # the rows' rank, on the scale where each row has unit length
        if l_mat.shape[0] > l_mat.shape[1] or nk.rank_drops(np.linalg.svd(
                nk.unit_columns(l_mat.T), compute_uv=False))[-1]:
            raise nk.InputError("contrast rows are linearly dependent")
        object.__setattr__(self, "l_mat", l_mat)

    @property
    def df(self):
        return self.l_mat.shape[0]


@dataclass(frozen=True)
class TestResult:
    lambdas: np.ndarray
    rhos: np.ndarray
    wilks: float
    pillai: float
    hotelling_lawley: float
    roy: float
    f_stats: dict           # criterion -> (F, df1, df2, p_value)
    partial_eta2: dict
    s: int


def mlm_fit(x_design, y, names=None):
    """Fit Y = X B + U column by column; X is the full design matrix."""
    x = np.asarray(x_design, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    n, q = x.shape
    p = y.shape[1]
    if y.shape[0] != n:
        raise nk.InputError("X and Y row counts differ")
    nk.require_full_rank(x)
    coef, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ coef
    e_mat = resid.T @ resid
    if names is None:
        names = tuple(f"y{i + 1}" for i in range(p))
    return MlmFit(coef=coef, e_mat=0.5 * (e_mat + e_mat.T), df_e=n - q,
                  xtx_inv=np.linalg.inv(x.T @ x), n=n, p=p, q=q,
                  y_mean=y.mean(axis=0), names=tuple(names))


def manova_design(gs):
    """Cell-means one-way design of the rows of gs.data: one indicator
    column per group."""
    return np.repeat(np.eye(gs.g), gs.counts, axis=0)


def manova_fit(gs):
    """The one-way MANOVA fit of a grouped sample, and its group labels.

    A response constant within each group gets its exact fit, each
    group's value as its mean and no residual, which rounding in the solve
    would blur into an SSCP that looks positive definite.
    """
    fit = mlm_fit(manova_design(gs), gs.data, names=gs.names)
    first = gs.data[gs.ends - gs.counts]
    exact = (gs.data == np.repeat(first, gs.counts, axis=0)).all(axis=0)
    if exact.any():
        coef, e_mat = fit.coef.copy(), fit.e_mat.copy()
        coef[:, exact] = first[:, exact]
        e_mat[exact] = e_mat[:, exact] = 0.0
        fit = replace(fit, coef=coef, e_mat=e_mat)
    return fit, list(gs.labels)


def overall_hypothesis(n_groups):
    """Successive-difference contrasts spanning 'all group means equal'."""
    if n_groups < 2:
        raise nk.InputError("the overall hypothesis needs two groups or more")
    return Hypothesis(np.eye(n_groups - 1, n_groups)
                      - np.eye(n_groups - 1, n_groups, 1), label="overall")


def hypothesis_matrices(fit, hyp):
    """H = (L B)^T [L (X^T X)^{-1} L^T]^{-1} (L B), paired with E."""
    l_mat = hyp.l_mat
    if l_mat.shape[1] != fit.q:
        raise nk.InputError("contrast width does not match the design")
    lb = l_mat @ fit.coef
    core = l_mat @ fit.xtx_inv @ l_mat.T
    h = lb.T @ np.linalg.solve(core, lb)
    return 0.5 * (h + h.T), fit.e_mat


def test_stats(h, e, df_h, df_e):
    """The four multivariate criteria from the latent roots of (H, E).

    Wilks = prod 1/(1+lam); Pillai = sum lam/(1+lam); Hotelling-Lawley =
    sum lam; Roy = lam_1; each with its standard F approximation and
    partial eta^2.
    """
    lam_all, _ = nk.gen_eig(h, e)
    p = h.shape[0]
    s = min(p, df_h)
    lam = np.clip(lam_all[:s], 0.0, None)
    rho = lam / (1.0 + lam)

    wilks = float(np.prod(1.0 / (1.0 + np.clip(lam_all, 0.0, None))))
    pillai = float(np.sum(rho))
    hlt = float(np.sum(lam))
    roy = float(lam[0]) if s else 0.0

    m = (abs(p - df_h) - 1) / 2.0
    nn = (df_e - p - 1) / 2.0
    f_stats = {}

    # Wilks via Rao's transformation (exact for s <= 2)
    r = df_e - (p - df_h + 1) / 2.0
    denom = p * p + df_h * df_h - 5
    t = np.sqrt((p * p * df_h * df_h - 4) / denom) if denom > 0 else 1.0
    df1 = p * df_h
    df2 = r * t - (p * df_h - 2) / 2.0
    lam_t = wilks ** (1.0 / t)
    f_w = (1 - lam_t) / lam_t * df2 / df1 if wilks > 0 else np.inf
    f_stats["wilks"] = (float(f_w), float(df1), float(df2),
                        dist.f_sf(f_w, df1, df2))

    # Pillai
    df1 = s * (2 * m + s + 1)
    df2 = s * (2 * nn + s + 1)
    f_p = (df2 / df1) * pillai / (s - pillai) if s > pillai else np.inf
    f_stats["pillai"] = (float(f_p), float(df1), float(df2),
                         dist.f_sf(f_p, df1, df2))

    # Hotelling-Lawley
    df1 = s * (2 * m + s + 1)
    df2 = 2 * (s * nn + 1)
    f_h = df2 * hlt / (s * df1) if df1 > 0 else np.inf
    f_stats["hotelling_lawley"] = (float(f_h), float(df1), float(df2),
                                   dist.f_sf(f_h, df1, df2))

    # Roy upper bound
    df1 = max(p, df_h)
    df2 = df_e - df1 + df_h
    f_r = lam[0] * df2 / df1 if s else 0.0
    f_stats["roy"] = (float(f_r), float(df1), float(df2),
                      dist.f_sf(f_r, df1, df2))

    eta2 = {
        "wilks": float(1.0 - wilks ** (1.0 / s)) if s else 0.0,
        "pillai": float(pillai / s) if s else 0.0,
        "hotelling_lawley": float(hlt / (hlt + s)) if s else 0.0,
        "roy": float(rho[0]) if s else 0.0,
    }
    return TestResult(lambdas=lam, rhos=rho, wilks=wilks, pillai=pillai,
                      hotelling_lawley=hlt, roy=roy, f_stats=f_stats,
                      partial_eta2=eta2, s=s)


def roy_critical(df_h, df_e, p, alpha=0.05, strict_paper=False):
    """Critical value of Roy's largest root at level alpha.

    Default degrees of freedom df1 = max(p, df_h); strict_paper=True uses
    df1 = max(df_h, df_e) exactly as printed in the source formula.
    """
    if df_h < 1 or df_e < 1:
        raise nk.InputError("degrees of freedom must be positive")
    df1 = max(df_h, df_e) if strict_paper else max(p, df_h)
    df2 = df_e - df1 + df_h
    if df2 <= 0:
        raise nk.InputError(f"df2 = {df2} is not positive")
    return float(df1 / df2 * dist.f_quantile(1 - alpha, df1, df2))


def protrusion_ratio(h, e, df_h, df_e, alpha=0.05):
    """lam_1 / lam_alpha for significance-scaled HE ellipses.

    Exceeds 1 exactly when Roy's test rejects at level alpha, i.e. when
    the scaled H ellipsoid pokes outside the E ellipsoid somewhere.
    """
    lam, _ = nk.gen_eig(h, e)
    crit = roy_critical(df_h, df_e, h.shape[0], alpha)
    return float(lam[0] / crit)


def he_ellipses(h, e, df_e, coords=(0, 1), center=None, scaling="significance",
                alpha=0.05, df_h=None, level=0.68, crit=None):
    """H and E ellipses for one coordinate pair of an HE plot.

    E is drawn as the level-coverage ellipse of E/df_e at the response
    means. H uses the same radius on H/df_e (effect scaling) or
    H/(lam_alpha df_e) (significance scaling, so protrusion outside E is
    Roy's test). lam_alpha is roy_critical(df_h, df_e, p, alpha), or crit
    when the caller already holds it.
    """
    coords = list(coords)
    if len(coords) != 2:
        raise nk.InputError("HE plots are drawn for coordinate pairs")
    p = h.shape[0]
    if center is None:
        center = np.zeros(p)
    center = np.asarray(center, dtype=float)
    c = np.sqrt(2 * dist.f_quantile(level, 2, df_e))
    if scaling == "significance":
        if crit is None:
            if df_h is None:
                raise nk.InputError("significance scaling needs df_h")
            crit = roy_critical(df_h, df_e, p, alpha)
        h_scaled = h / (crit * df_e)
    elif scaling == "effect":
        h_scaled = h / df_e
    else:
        raise nk.InputError(f"unknown scaling {scaling!r}")
    e_scaled = e / df_e
    sub = np.ix_(coords, coords)
    ell_h = ge.from_moment(c * c * h_scaled[sub], center[coords])
    ell_e = ge.from_moment(c * c * e_scaled[sub], center[coords])
    return ell_h, ell_e


def contrast_decompose(fit, hyps, overall=None):
    """Per-contrast H matrices and their additivity against the overall H.

    Pairwise orthogonal rank-one contrasts in a balanced design decompose
    the overall hypothesis SSCP additively; otherwise only the residual
    norm is reported (with a warning). Orthogonality is relative to the
    contrasts' norms (ORTHOGONAL_TOL). 'residual' is max |sum H_i - H|,
    and 'relative' is that over max |H|.
    """
    h_list = [hypothesis_matrices(fit, hyp)[0] for hyp in hyps]
    norms = [np.linalg.norm(hyp.l_mat) for hyp in hyps]
    orthogonal = True
    for i in range(len(hyps)):
        for j in range(i + 1, len(hyps)):
            if np.abs(hyps[i].l_mat @ hyps[j].l_mat.T).max() \
                    > ORTHOGONAL_TOL * norms[i] * norms[j]:
                orthogonal = False
    if overall is None:
        overall = Hypothesis(np.vstack([hyp.l_mat for hyp in hyps]),
                             label="overall")
    h_all, _ = hypothesis_matrices(fit, overall)
    resid = float(np.abs(sum(h_list) - h_all).max())
    scale = float(np.abs(h_all).max())
    if not orthogonal:
        warnings.warn("contrasts are not pairwise orthogonal; "
                      "additivity is not guaranteed", stacklevel=2)
    # parts of a zero H add up to it only when they are zero themselves
    return {"h_parts": h_list, "h_overall": h_all, "residual": resid,
            "relative": resid / scale if scale else
            math.inf if resid else 0.0,
            "orthogonal": orthogonal}


@dataclass(frozen=True)
class CanonicalResult:
    scores: np.ndarray      # n x s, pooled within-group covariance = I
    coeffs: np.ndarray      # p x s projection applied to centered Y
    lambdas: np.ndarray
    percent: np.ndarray     # 100 * lambda_i / sum(lambda)
    structure: np.ndarray   # p x s correlations of responses with scores
    group_means: np.ndarray  # g x s means of scores by group
    group_labels: list
    df_e: int


def canonical(gs):
    """Canonical discriminant projection of a grouped sample.

    Scores are scaled so the pooled within-group covariance is the
    identity; columns are mutually uncorrelated and successively maximize
    the one-way F statistic. Axis signs are fixed so each column's
    largest-magnitude structure coefficient is positive.
    """
    if gs.g < 2:
        raise nk.InputError("canonical analysis needs at least two groups")
    fit, labels = manova_fit(gs)
    hyp = overall_hypothesis(gs.g)
    h, e = hypothesis_matrices(fit, hyp)
    lam_all, v = nk.gen_eig(h, e)            # V^T E V = I
    s = min(gs.p, gs.g - 1)
    lam = np.clip(lam_all[:s], 0.0, None)
    w = v[:, :s] * np.sqrt(fit.df_e)

    centered = gs.data - fit.y_mean
    scores = centered @ w

    # structure = correlations between responses and scores
    y_sd = centered.std(axis=0, ddof=1)
    z_sd = scores.std(axis=0, ddof=1)
    structure, signs = nk.fix_signs(np.array([
        [centered[:, j] @ scores[:, k] / (gs.total_n - 1)
         / (y_sd[j] * z_sd[k]) for k in range(s)] for j in range(gs.p)]))
    scores *= signs
    w *= signs

    means = np.array([z.mean(axis=0) for z in gs.split(scores)])
    total = lam.sum()
    percent = 100.0 * lam / total if total > 0 else np.zeros_like(lam)
    return CanonicalResult(scores=scores, coeffs=w, lambdas=lam,
                           percent=percent, structure=structure,
                           group_means=means, group_labels=labels,
                           df_e=fit.df_e)


def canonical_he_ellipses(gs, can, level=0.68):
    """Effect-scaled H and E ellipses of the first two canonical scores.

    can is the canonical result of gs; the scores are refitted on the
    one-way design of gs and the overall hypothesis tested on them.
    """
    if can.scores.shape[1] < 2:
        raise nk.InputError("need at least two canonical dimensions")
    fit_z = mlm_fit(manova_design(gs), can.scores, names=("can1", "can2"))
    hyp = overall_hypothesis(gs.g)
    h_z, e_z = hypothesis_matrices(fit_z, hyp)
    return he_ellipses(h_z, e_z, fit_z.df_e, coords=(0, 1),
                       center=fit_z.y_mean, scaling="effect", level=level)


def mtest_geometry(lam1, lam2):
    """Edge lengths of the canonical (H+E) ellipse and the Pillai identity.

    a, b are the ellipse semi-axes sqrt(lam_i + 1); c the diagonal of the
    framing right triangle; d the perpendicular from the origin to that
    diagonal. For two dimensions 2 - d^{-2} equals the Pillai trace.
    """
    if lam1 < lam2 or lam2 < 0:
        raise nk.InputError("need lam1 >= lam2 >= 0")
    a = np.sqrt(lam1 + 1.0)
    b = np.sqrt(lam2 + 1.0)
    c = np.sqrt(a * a + b * b)
    d = a * b / c
    return {"a": float(a), "b": float(b), "c": float(c), "d": float(d),
            "pillai_check": float(2.0 - 1.0 / (d * d))}
