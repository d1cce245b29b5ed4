# OLS fitting and its elliptical geometry in coefficient space:
# confidence ellipsoids and shadows, the visual slope interval,
# added-variable geometry, variance inflation, and measurement-error
# (attenuation) studies.

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from . import gellipsoid as ge
from . import numkernel as nk

# x_k lies in the span of the other predictors when its residual sum of
# squares is at most VIF_TOL times its total: the VIFs are infinite
VIF_TOL = 1e-14
# doubles in attenuation_curve's buffer of standard normal draws (512 KB)
_DRAW_BUDGET = 2 ** 16
# the largest noise scale: with x scaled into [0.5, 1) the noise's sum of
# squares, about n (delta SD_x)^2, stays finite for under 10^8 rows
DELTA_MAX = 1e150


@dataclass(frozen=True)
class LinearFit:
    coef: np.ndarray        # includes the intercept as coefficient 0
    xtx_inv: np.ndarray
    s2: float               # residual variance, RSS / df
    df: int                 # n - q
    n: int
    names: tuple            # coefficient names, names[0] == 'intercept'
    residuals: np.ndarray
    fitted: np.ndarray

    @property
    def q(self):
        return self.coef.size

    def se(self):
        return np.sqrt(self.s2 * np.diag(self.xtx_inv))


def design_matrix(x):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return np.column_stack([np.ones(x.shape[0]), x])


def ols_fit(x, y, names=None):
    """OLS with an intercept always included; x holds the predictors only.

    Rejects rank-deficient designs, reporting the offending singular
    value. The verdict is on the design's unit-length columns, so the
    units of a predictor change it no more than numkernel.qr_lstsq's fit.
    """
    xd = design_matrix(x)
    y = np.asarray(y, dtype=float).ravel()
    n, q = xd.shape
    if y.size != n:
        raise nk.InputError("x and y lengths differ")
    if n <= q:
        raise nk.InputError(f"need n > {q} observations")
    coef, w, _, _ = nk.qr_lstsq(xd, y)
    fitted = xd @ coef
    resid = y - fitted
    df = n - q
    # not R_yy^2: coef's error moves resid'resid only to second order
    s2 = float(resid @ resid / df)
    if names is None:
        names = ["intercept"] + [f"x{i}" for i in range(1, q)]
    return LinearFit(coef=coef, xtx_inv=w @ w.T,
                     s2=s2, df=df, n=n, names=tuple(names),
                     residuals=resid, fitted=fitted)


@dataclass(frozen=True)
class ConfidenceSpec:
    kind: str = "joint"     # 'joint' | 'ci' | 'scheffe' | 'bonferroni'
    alpha: float = 0.05
    d: int = 2              # simultaneous dimensions for joint/scheffe
    m: int = 1              # comparisons for bonferroni

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise nk.InputError("alpha must be in (0, 1)")
        if self.d < 1 or self.m < 1:
            raise nk.InputError("d and m must be >= 1")
        if self.kind not in ("joint", "ci", "scheffe", "bonferroni"):
            raise nk.InputError(f"unknown kind {self.kind!r}")

    def radius(self, df):
        if self.kind in ("joint", "scheffe"):
            return float(np.sqrt(
                self.d * dist.f_quantile(1 - self.alpha, self.d, df)))
        if self.kind == "ci":
            return float(dist.t_quantile(1 - self.alpha / 2, df))
        return float(dist.t_quantile(1 - self.alpha / (2 * self.m), df))


def confidence_ellipsoid(fit, coords, spec=None, radius=None):
    """Confidence ellipsoid for selected coefficients.

    Centered at the estimates, with moment matrix
    radius^2 * s^2 * (X^T X)^{-1}[coords, coords]; the radius follows the
    spec kind (joint F, per-coordinate t, or Bonferroni t). A caller that
    already holds spec.radius(fit.df) passes it as radius instead.
    """
    coords = list(coords)
    if any(c < 0 or c >= fit.q for c in coords):
        raise nk.InputError(f"coordinates out of range 0..{fit.q - 1}")
    if radius is None:
        spec = spec or ConfidenceSpec(kind="joint", d=len(coords))
        radius = spec.radius(fit.df)
    sub = fit.xtx_inv[np.ix_(coords, coords)]
    return ge.from_moment(radius * radius * fit.s2 * sub, fit.coef[coords])


def shadow_interval(fit, combo, spec=None, radius=None):
    """Confidence interval for a linear combination c^T beta.

    Equals the shadow of the matching confidence ellipsoid along c. A
    caller that already holds spec.radius(fit.df) passes it as radius.
    """
    c = np.asarray(combo, dtype=float).ravel()
    if c.size != fit.q or not np.any(c):
        raise nk.InputError("combination must be a nonzero q-vector")
    if radius is None:
        radius = (spec or ConfidenceSpec(kind="ci")).radius(fit.df)
    mid = float(c @ fit.coef)
    half = radius * float(np.sqrt(fit.s2 * c @ fit.xtx_inv @ c))
    return (mid - half, mid + half)


def visual_ci_slope(x, y, alpha=0.05):
    """Visual slope interval for simple regression.

    The tangent parallelogram of the standard data ellipse has diagonals
    with slopes b +/- s_e/s_x; shrinking toward the fitted line by 2/sqrt(n)
    approximates the 95% interval. The exact t interval is returned for
    comparison (alpha only affects the exact interval).
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = x.size
    if n < 3:
        raise nk.InputError("need n >= 3")
    sx = x.std(ddof=1)
    if sx <= 0:
        raise ValueError("x has zero variance")
    fit = ols_fit(x, y)
    b = float(fit.coef[1])
    se_resid = float(np.sqrt(fit.s2))
    spread = se_resid / sx
    shrink = 2.0 / np.sqrt(n)
    t_half = dist.t_quantile(1 - alpha / 2, fit.df) * fit.se()[1]
    return {
        "slope": b,
        "diagonal_slopes": (b - spread, b + spread),
        "approx_interval": (b - shrink * spread, b + shrink * spread),
        "exact_interval": (b - t_half, b + t_half),
        "shrink_factor": float(shrink),
    }


def _residualize(target, others):
    fit = ols_fit(others, target) if others.shape[1] else None
    if fit is None:
        return target - target.mean()
    return target - fit.fitted


def avp(x, y, k):
    """Added-variable construction for predictor k (0-based column of x).

    Both the response and x_k are residualized on the remaining
    predictors (plus intercept); the simple through-origin slope of the
    residual scatter equals the full-model coefficient of x_k, and its
    residuals equal the full-model residuals. The full model is fitted to
    report both laws: 'full_model_coef', and the gaps
    'slope_matches_full_model' and 'residual_match' (max abs). 'marginal'
    holds the centred (x_k, y) points and 'marginal_slope' their simple
    regression slope. 'vif' is vif(x, k), read off the same residualized
    x_k.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=float).ravel()
    if not 0 <= k < x.shape[1]:
        raise nk.InputError(
            f"k must index a predictor column 0..{x.shape[1] - 1}")
    others = np.delete(x, k, axis=1)
    x_star = _residualize(x[:, k], others)
    y_star = _residualize(y, others)
    sxx = float(x_star @ x_star)
    if sxx <= 0:
        raise ValueError("predictor k is collinear with the others")
    slope = float(x_star @ y_star / sxx)
    resid = y_star - slope * x_star
    denom = float(np.sqrt(sxx) * np.sqrt(y_star @ y_star))
    partial_corr = float(x_star @ y_star / denom) if denom > 0 else 0.0
    full = ols_fit(x, y)
    marg = np.column_stack([x[:, k] - x[:, k].mean(), y - y.mean()])
    return {
        "x_star": x_star,
        "y_star": y_star,
        "slope": slope,
        "residuals": resid,
        "partial_corr": partial_corr,
        "vif": _inflation(x[:, k], x_star),
        "full_model_coef": float(full.coef[k + 1]),
        "slope_matches_full_model": abs(slope - full.coef[k + 1]),
        "residual_match": float(np.abs(resid - full.residuals).max()),
        "marginal": marg,
        "marginal_slope": float(np.cov(marg.T, ddof=1)[0, 1]
                                / np.var(marg[:, 0], ddof=1)),
    }


def vif(x, k):
    """Variance inflation factor for predictor k, two ways.

    algebraic: 1 / (1 - R^2 of x_k on the others);
    geometric: squared ratio of the marginal to conditional spread of x_k.
    The two coincide identically; both are returned.
    """
    x = np.asarray(x, dtype=float)
    return _inflation(x[:, k], _residualize(x[:, k], np.delete(x, k, axis=1)))


def _inflation(xk, x_star):
    # vif from x_k and its residual x_star on the other predictors
    tss = float(((xk - xk.mean()) ** 2).sum())
    rss = float((x_star ** 2).sum())
    if tss <= 0:
        raise ValueError("x_k has zero variance")
    if rss <= VIF_TOL * tss:
        return {"algebraic": np.inf, "geometric": np.inf,
                "r_squared": 1.0}
    r2 = 1.0 - rss / tss
    return {
        "algebraic": 1.0 / (1.0 - r2),
        "geometric": tss / rss,
        "r_squared": r2,
    }


def attenuation_curve(x, y, deltas, reps=100, seed=0):
    """Mean slope ratio slope(delta)/slope(0) under predictor noise.

    Noise with standard deviation delta * SD_x drives the estimated slope
    toward zero; the population ratio is 1 / (1 + delta^2). A draw's slope
    is the simple-regression slope on the centred data. The centred x and
    y are first scaled by powers of two (numkernel.pow2_scaled), so the
    ratios are the same in any units of x and y.

    A draw is s z - e: z is a standard normal n-vector, s = delta * SD_x
    and e = s sum(z) / n its mean. Its slope's numerator and denominator
    then need only four sums of z, sum(z), z.xc, z.yc and z.z:
        num = sxy + (s z.yc - e sum(yc))
        den = sxx + 2 (s z.xc - e sum(xc)) + (s^2 z.z - s sum(z) e).
    The draws fill one reused buffer of _DRAW_BUDGET doubles (at least one
    row) a block of replicates at a time, in the random stream's order,
    so memory stays O(max(n, _DRAW_BUDGET)) whatever reps is.
    """
    if reps < 1:
        raise nk.InputError("reps must be >= 1")
    if any(d < 0 for d in deltas):
        raise nk.InputError("deltas are noise scales and must be >= 0")
    if any(d > DELTA_MAX for d in deltas):
        raise nk.InputError(f"deltas above {DELTA_MAX:g} take the noise "
                            "beyond the double range")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = x.size
    # a row of ones, then the centred x and y: one product with a block of
    # draws gives each draw's sum(z), z.xc and z.yc
    m = np.ones((3, n))
    m[1], m[2] = x - x.mean(), y - y.mean()
    m[1:] = nk.pow2_scaled(m[1:], axis=1)
    xc, yc = m[1], m[2]
    # the base slope from centred x and y, as every draw's: on the raw
    # data the fit loses digits as |mean| / sd grows
    base = float(ols_fit(xc, yc).coef[1])
    if base == 0:
        raise ValueError("the slope without noise is 0: no ratio to it "
                         "is defined")
    sxx, sxy = float(np.sum(xc * xc)), float(xc @ yc)
    sum_x, sum_y = float(xc.sum()), float(yc.sum())
    sd = math.sqrt(sxx / (n - 1))
    rng = np.random.default_rng(seed)
    buf = np.empty((max(1, min(reps, _DRAW_BUDGET // n)), n))
    out = []
    for delta in deltas:
        if delta == 0:
            out.append(1.0)
            continue
        s = delta * sd
        acc = 0.0
        for start in range(0, reps, len(buf)):
            z = buf[:reps - start]
            rng.standard_normal(out=z)
            # a replicate at a time, in Python floats: on a few rows that
            # is faster than numpy's per-call cost
            for zs, zx, zy, zz in zip(*(m @ z.T).tolist(),
                                      np.einsum("ij,ij->i", z, z).tolist()):
                e = s * zs / n
                num = sxy + (s * zy - e * sum_y)
                den = sxx + 2.0 * (s * zx - e * sum_x) \
                    + (s * s * zz - s * zs * e)
                acc += num / den / base
        out.append(acc / reps)
    return {"deltas": [float(d) for d in deltas], "mean_ratio": out,
            "expected_ratio": [1.0 / (1.0 + float(d) ** 2) for d in deltas]}
