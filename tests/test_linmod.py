import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from ellipstat import cli
from ellipstat import distributions as dist
from ellipstat import gellipsoid as ge
from ellipstat import linmod
from ellipstat import numkernel as nk
from ellipstat import statellipse as st

import strategies

EPS = np.finfo(float).eps


def _random_regression(rng, n=40, q=3):
    x = rng.standard_normal((n, q)) @ (np.eye(q)
                                       + 0.3 * rng.standard_normal((q, q)))
    beta = rng.standard_normal(q + 1)
    y = beta[0] + x @ beta[1:] + rng.standard_normal(n)
    return x, y


def test_exact_fit_zero_residuals():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 2))
    y = 1.0 + x @ np.array([2.0, -1.0])
    fit = linmod.ols_fit(x, y)
    assert fit.s2 == pytest.approx(0.0, abs=1e-20)
    assert fit.coef == pytest.approx([1.0, 2.0, -1.0])


def test_intercept_only_returns_mean():
    y = np.array([1.0, 2.0, 6.0])
    fit = linmod.ols_fit(np.empty((3, 0)), y)
    assert fit.coef == pytest.approx([3.0])


def test_rank_deficiency_rejected():
    x = np.ones((10, 2))
    x[:, 1] = 2.0       # both columns constant -> collinear with intercept
    with pytest.raises(ValueError, match="rank deficient"):
        linmod.ols_fit(x, np.arange(10.0))


@pytest.mark.parametrize("log_s", [-6.0, 0.0, 6.0])
def test_rank_verdict_ignores_the_units_of_the_predictors(log_s):
    # two unrelated predictors in units 10^s and 10^-s, where the design's
    # singular values span up to 1e12, are accepted, and the first again
    # plus a multiple of the second is rejected, at every s. (The solve on
    # the unscaled design loses digits as eps times that span.)
    rng = np.random.default_rng(3)
    units = np.array([10.0 ** log_s, 10.0 ** -log_s])
    x = rng.standard_normal((20, 2))
    y = rng.standard_normal(20)
    fit = linmod.ols_fit(x * units, y)
    assert fit.coef[1:] * units == pytest.approx(
        linmod.ols_fit(x, y).coef[1:], rel=1e-3)
    collinear = np.column_stack([x, x[:, 0] + 2.0 * x[:, 1]]) \
        * units[[0, 1, 0]]
    with pytest.raises(ValueError, match="rank deficient"):
        linmod.ols_fit(collinear, y)


def test_longley_against_extended_precision_normal_equations(longley):
    _, x, y = longley
    fit = linmod.ols_fit(x, y)
    # residual orthogonality
    xd = linmod.design_matrix(x)
    assert np.abs(xd.T @ fit.residuals).max() < 1e-8 * np.abs(
        xd.T @ y).max()
    # independent oracle: normal equations at long-double precision
    xl = xd.astype(np.longdouble)
    yl = y.astype(np.longdouble)
    beta_l = np.linalg.solve((xl.T @ xl).astype(float),
                             (xl.T @ yl).astype(float))
    assert fit.fitted == pytest.approx(xd @ beta_l, rel=1e-7)


def test_confidence_ellipsoid_ci_shadow_is_t_interval():
    rng = np.random.default_rng(2)
    x, y = _random_regression(rng)
    fit = linmod.ols_fit(x, y)
    ell = linmod.confidence_ellipsoid(fit, [1, 2],
                                      linmod.ci_radius(0.05, fit.df))
    lo, hi = st.univariate_shadow(ell, np.array([1.0, 0.0]))
    t_crit = dist.t_quantile(0.975, fit.df)
    half = t_crit * fit.se()[1]
    assert lo == pytest.approx(fit.coef[1] - half, rel=1e-10)
    assert hi == pytest.approx(fit.coef[1] + half, rel=1e-10)


def test_scheffe_wider_than_ci():
    rng = np.random.default_rng(3)
    x, y = _random_regression(rng)
    fit = linmod.ols_fit(x, y)
    r_joint = linmod.joint_radius(0.05, 2, fit.df)
    r_ci = linmod.ci_radius(0.05, fit.df)
    assert r_joint > r_ci
    # d = 1: sqrt(F(1, df)) is |t|, so the joint radius of one coefficient
    # is the t radius
    assert linmod.joint_radius(0.05, 1, fit.df) == pytest.approx(r_ci,
                                                                  rel=1e-12)
    joint = linmod.confidence_ellipsoid(fit, [1, 2], r_joint)
    ci = linmod.confidence_ellipsoid(fit, [1, 2], r_ci)
    for d in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        j_lo, j_hi = st.univariate_shadow(joint, d)
        c_lo, c_hi = st.univariate_shadow(ci, d)
        assert j_hi - j_lo > c_hi - c_lo


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_radii_refuse_alpha_outside_the_unit_interval(alpha):
    with pytest.raises(nk.InputError, match="alpha must be in"):
        linmod.joint_radius(alpha, 2, 10)
    with pytest.raises(nk.InputError, match="alpha must be in"):
        linmod.ci_radius(alpha, 10)


def test_zero_noise_limit_point_ellipse():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 2))
    y = 2.0 + x @ np.array([1.0, -3.0])
    fit = linmod.ols_fit(x, y)
    ell = linmod.confidence_ellipsoid(fit, [1, 2],
                                      linmod.joint_radius(0.05, 2, fit.df))
    assert ell.radii == pytest.approx([0.0, 0.0], abs=1e-8)


def test_shadow_interval_reductions():
    rng = np.random.default_rng(5)
    x, y = _random_regression(rng)
    fit = linmod.ols_fit(x, y)
    e1 = np.zeros(fit.q)
    e1[1] = 1.0
    lo, hi = linmod.shadow_interval(fit, e1, linmod.ci_radius(0.05, fit.df))
    t_crit = dist.t_quantile(0.975, fit.df)
    assert lo == pytest.approx(fit.coef[1] - t_crit * fit.se()[1])
    assert hi == pytest.approx(fit.coef[1] + t_crit * fit.se()[1])


def test_shadow_interval_duplicate_predictors_symmetry():
    rng = np.random.default_rng(6)
    base = rng.standard_normal(60)
    x = np.column_stack([base + 0.01 * rng.standard_normal(60),
                         base + 0.01 * rng.standard_normal(60)])
    y = x.sum(axis=1) + rng.standard_normal(60)
    fit = linmod.ols_fit(x, y)
    c = np.array([0.0, 1.0, -1.0])
    lo, hi = linmod.shadow_interval(fit, c, linmod.ci_radius(0.05, fit.df))
    # interval for the difference of exchangeable slopes straddles zero
    assert lo < 0 < hi


def test_shadow_excludes_zero_iff_t_exceeds_critical():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y = _random_regression(rng, n=25, q=2)
        fit = linmod.ols_fit(x, y)
        c = rng.standard_normal(3)
        lo, hi = linmod.shadow_interval(fit, c,
                                        linmod.ci_radius(0.05, fit.df))
        t_stat = (c @ fit.coef) / np.sqrt(fit.s2 * c @ fit.xtx_inv @ c)
        t_crit = dist.t_quantile(0.975, fit.df)
        assert (lo > 0 or hi < 0) == (abs(t_stat) > t_crit)


def test_visual_ci_shrink_factor():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(102)
    y = 1.0 + 0.5 * x + rng.standard_normal(102)
    out = linmod.visual_ci_slope(x, y)
    assert out["shrink_factor"] == pytest.approx(2 / np.sqrt(102))
    assert out["shrink_factor"] == pytest.approx(0.198, abs=0.001)
    lo, hi = out["diagonal_slopes"]
    assert lo < out["slope"] < hi


def test_visual_ci_perfect_line():
    x = np.arange(10.0)
    out = linmod.visual_ci_slope(x, 3.0 + 2.0 * x)
    a, b = out["approx_interval"]
    assert b - a == pytest.approx(0.0, abs=1e-12)


def test_visual_ci_approximates_exact_interval():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(400)
    y = 1.0 + 0.3 * x + rng.standard_normal(400)
    out = linmod.visual_ci_slope(x, y)
    w_approx = out["approx_interval"][1] - out["approx_interval"][0]
    w_exact = out["exact_interval"][1] - out["exact_interval"][0]
    assert w_approx == pytest.approx(w_exact, rel=0.05)


def test_avp_orthogonal_predictors():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(50)
    b = rng.standard_normal(50)
    a -= a.mean()
    b -= b.mean()
    b -= a * (a @ b) / (a @ a)          # exactly orthogonal, centered
    x = np.column_stack([a, b])
    y = a - 2 * b + rng.standard_normal(50)
    res = linmod.avp(x, y, 0)
    assert res["x_star"] == pytest.approx(a, abs=1e-10)


def test_avp_identities_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(12, 40))
        q = int(rng.integers(2, 5))
        x = rng.standard_normal((n, q))
        y = rng.standard_normal(n)
        k = int(rng.integers(0, q))
        res = linmod.avp(x, y, k)
        fit = linmod.ols_fit(x, y)
        assert abs(res["slope"] - fit.coef[k + 1]) < 1e-10
        assert np.abs(res["residuals"] - fit.residuals).max() < 1e-10


def test_avp_partial_correlation_vs_inverse_correlation_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(20, 60))
        x = rng.standard_normal((n, 3))
        y = x @ np.array([1.0, -0.5, 0.2]) + rng.standard_normal(n)
        k = int(rng.integers(0, 3))
        res = linmod.avp(x, y, k)
        # oracle: partial correlation from the inverse correlation matrix
        # of (y, x_k, others)
        full = np.column_stack([y, x[:, k], np.delete(x, k, axis=1)])
        r_inv = np.linalg.inv(np.corrcoef(full.T))
        oracle = -r_inv[0, 1] / np.sqrt(r_inv[0, 0] * r_inv[1, 1])
        assert res["partial_corr"] == pytest.approx(oracle, abs=1e-10)


def test_vif_orthogonal_and_collinear():
    rng = np.random.default_rng(13)
    a = rng.standard_normal(40)
    b = rng.standard_normal(40)
    a -= a.mean()
    b -= b.mean()
    b -= a * (a @ b) / (a @ a)      # centered and exactly orthogonal
    out = linmod.vif(np.column_stack([a, b]), 0)
    assert out["algebraic"] == pytest.approx(1.0, abs=1e-10)

    base = rng.standard_normal(40)
    x = np.column_stack([base, base + 1e-4 * rng.standard_normal(40)])
    out = linmod.vif(x, 1)
    assert out["algebraic"] > 100


def test_vif_algebraic_equals_geometric():
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = rng.standard_normal((30, 4)) @ (np.eye(4)
                                            + 0.5 * np.ones((4, 4)))
        k = int(rng.integers(0, 4))
        out = linmod.vif(x, k)
        assert out["algebraic"] == pytest.approx(out["geometric"],
                                                 rel=1e-9)


def test_attenuation_curve_delta_zero_and_monotone():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(10 ** 4)
    y = 1.0 + 2.0 * x + rng.standard_normal(10 ** 4) * 0.5
    out = linmod.attenuation_curve(x, y, [0.0, 0.2, 0.4, 0.8], reps=100,
                                   seed=5)
    ratios = out["mean_ratio"]
    assert ratios[0] == 1.0
    assert all(b <= a + 1e-3 for a, b in zip(ratios, ratios[1:]))
    for got, want in zip(ratios, out["expected_ratio"]):
        assert got == pytest.approx(want, abs=0.05)


def test_attenuation_half_at_unit_delta():
    rng = np.random.default_rng(18)
    x = rng.standard_normal(10 ** 5)
    y = 3.0 * x + rng.standard_normal(10 ** 5) * 0.3
    out = linmod.attenuation_curve(x, y, [1.0], reps=20, seed=6)
    assert out["mean_ratio"][0] == pytest.approx(0.5, abs=0.05)


def _exact_slope(x, y):
    """Simple-regression slope of the data, in exact arithmetic."""
    x = [Fraction(v) for v in x]
    y = [Fraction(v) for v in y]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return sum((a - mx) * (b - my) for a, b in zip(x, y)) \
        / sum((a - mx) ** 2 for a in x)


def _attenuation_ratios_exact(x, y, deltas, reps, seed):
    """Slow reference: attenuation_curve's mean ratios from the same random
    stream, with every slope, the base and each draw's, taken exactly on
    the centred x the draws are made around."""
    xc = x - x.mean()
    base = _exact_slope(xc, y)
    rng = np.random.default_rng(seed)
    sd = x.std(ddof=1)
    out = []
    for delta in deltas:
        if delta == 0:
            out.append(1.0)
            continue
        acc = Fraction(0)
        for _ in range(reps):
            noise = rng.normal(0.0, delta * sd, size=x.size)
            noise -= noise.mean()
            drawn = [Fraction(a) + Fraction(b) for a, b in zip(xc, noise)]
            acc += _exact_slope(drawn, y) / base
        out.append(float(acc / reps))
    return out


@settings(max_examples=60, deadline=None, database=None)
@given(hs.integers(0, 2 ** 32 - 1), hs.integers(5, 200),
       hs.floats(-100.0, 100.0), hs.floats(0.01, 100.0),
       hs.floats(0.5, 5.0), hs.floats(0.0, 1.0),
       hs.lists(hs.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]), min_size=1,
                max_size=4),
       hs.integers(1, 5), hs.integers(0, 2 ** 32 - 1))
# x 3000 sd from zero: an OLS refit per draw on uncentred x misses the
# exact mean ratio by 1.3e-12 here
@example(0, 5, 49.0, 0.015625, 1.0, 1.0, [0.5], 2, 137)
# a weak slope, x 700 sd from zero: with the base slope fit to uncentred
# x and y the mean ratio is 1.5e-11 off, fit to centred x and y 7e-15
@example(844136122, 5, 75.75406537938255, 0.11064062308295963,
         1.8724822842189734, 0.9431770493886503, [0.5], 2, 2057625882)
def test_attenuation_curve_matches_refit_per_draw(data_seed, n, x_mean,
                                                  x_sd, slope, noise_sd,
                                                  deltas, reps, seed):
    rng = np.random.default_rng(data_seed)
    x = x_mean + x_sd * rng.standard_normal(n)
    y = 1.0 + slope * x + noise_sd * x_sd * slope * rng.standard_normal(n)
    got = linmod.attenuation_curve(x, y, deltas, reps=reps, seed=seed)
    want = _attenuation_ratios_exact(x, y, deltas, reps, seed)
    assert got["mean_ratio"] == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None, database=None)
@given(strategies.seeds, hs.floats(-6.0, 6.0), hs.floats(-6.0, 6.0),
       hs.floats(0.5, 0.95), hs.booleans(),
       hs.lists(hs.floats(0.1, 2.0), min_size=1, max_size=3), strategies.seeds)
def test_attenuation_factor_is_the_reliability(data_seed, x_mean, log_sd,
                                               rho, negative, deltas, seed):
    # noise of sd delta * sd(x) leaves the reliability
    # var(x) / (var(x) + var(noise)) = 1 / (1 + delta^2), and the slope
    # shrinks by that factor, in any units of x. With q = 1 + delta^2, a
    # draw's ratio has a relative sd of at most
    # (delta / |r| + (2 delta + 1.5 delta^2) / q) / sqrt(n - 1) (the noise
    # against y, against x, and its own square) and a relative bias of
    # O(((4 delta^2 + 2 delta^4) / q^2 + 2 delta^2 / q) / n): the mean of
    # reps draws is held to six standard errors plus three such biases
    n, reps = 4000, 50
    # a stream apart from the noise's default_rng(seed): with one seed for
    # both, the first noise draw would be x's own z, not independent of x
    rng = np.random.default_rng([data_seed, 1])
    z = rng.standard_normal((2, n))
    x = x_mean * 10.0 ** log_sd + 10.0 ** log_sd * z[0]
    rho = -rho if negative else rho
    y = 3.0 + rho * z[0] + np.sqrt(1.0 - rho ** 2) * z[1]
    r = abs(np.corrcoef(x, y)[0, 1])
    sd = x.std(ddof=1)
    out = linmod.attenuation_curve(x, y, deltas, reps=reps, seed=seed)
    for d, got, expected in zip(deltas, out["mean_ratio"],
                                out["expected_ratio"], strict=True):
        reliability = sd ** 2 / (sd ** 2 + (d * sd) ** 2)
        assert expected == pytest.approx(reliability, rel=1e-14)
        q = 1.0 + d ** 2
        se = (d / r + (2 * d + 1.5 * d ** 2) / q) / np.sqrt((n - 1) * reps)
        bias = 3 * ((4 * d ** 2 + 2 * d ** 4) / q ** 2 + 2 * d ** 2 / q) \
            / (n - 1)
        assert abs(got / reliability - 1.0) <= 6 * se + bias


def test_attenuation_curve_rejects_a_negative_delta():
    rng = np.random.default_rng(25)
    x = rng.standard_normal(50)
    y = 2.0 * x + rng.standard_normal(50)
    with pytest.raises(nk.InputError, match="deltas .* must be >= 0"):
        linmod.attenuation_curve(x, y, [-0.5, 0.5], reps=5)


def test_attenuation_curve_fits_ols_once(monkeypatch):
    calls = []
    ols_fit = linmod.ols_fit

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return ols_fit(*args, **kwargs)
    monkeypatch.setattr(linmod, "ols_fit", counting_fit)
    rng = np.random.default_rng(24)
    x = rng.standard_normal(50)
    y = 2.0 * x + rng.standard_normal(50)
    for reps in (1, 7, 40):
        calls.clear()
        linmod.attenuation_curve(x, y, [0.0, 0.5, 1.0], reps=reps, seed=3)
        assert len(calls) == 1


@settings(max_examples=10, deadline=None, database=None)
@given(hs.integers(0, 2 ** 32 - 1), hs.integers(5, 3000),
       hs.floats(-100.0, 100.0), hs.integers(3, 7),
       hs.lists(hs.sampled_from([0.0, 0.5, 2.0]), min_size=1, max_size=2),
       hs.integers(0, 2 ** 32 - 1))
@example(1, 3000, 40.0, 3, [2.0], 2)
def test_attenuation_curve_is_free_of_its_block_shape(data_seed, n, x_mean,
                                                      reps, deltas, seed):
    # blocks of one row, of every replicate at once, and of two rows with
    # a short last block (reps odd) or three rows, draw the same stream
    rng = np.random.default_rng(data_seed)
    x = x_mean + rng.standard_normal(n)
    y = 1.0 + 2.0 * x + rng.standard_normal(n)
    got = []
    for budget in (1, n * reps, n * (2 if reps % 2 else 3)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linmod, "_DRAW_BUDGET", budget)
            got.append(linmod.attenuation_curve(x, y, deltas, reps=reps,
                                                seed=seed)["mean_ratio"])
    for other in got[1:]:
        assert other == pytest.approx(got[0], rel=1e-14)
    want = _attenuation_ratios_exact(x, y, deltas, reps, seed)
    assert got[0] == pytest.approx(want, rel=1e-12)


def test_attenuation_curve_memory_is_one_block_of_draws():
    # the draws of 100 replicates of 20000 rows would take 16 MB; one
    # reused block takes at most _DRAW_BUDGET doubles (512 KB)
    n = 20000
    rng = np.random.default_rng(26)
    x = rng.standard_normal(n)
    y = 2.0 * x + rng.standard_normal(n)
    tracemalloc.start()
    try:
        linmod.attenuation_curve(x, y, [0.0, 0.5, 1.0], reps=100, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * linmod._DRAW_BUDGET + 12 * 8 * n


def test_attenuation_curve_of_a_constant_response_is_refused():
    x = np.arange(10.0)
    with pytest.raises(ValueError, match="slope without noise is 0"):
        linmod.attenuation_curve(x, np.full(10, 3.0), [0.0, 0.5], reps=5)


def test_confidence_ellipse_dual_of_data_ellipse():
    # with standardized predictors the confidence ellipse is the data
    # ellipse rotated a quarter turn: same frame, inverted radii, swapped
    rng = np.random.default_rng(19)
    x = rng.standard_normal((60, 2)) @ np.array([[1.0, 0.7], [0.0, 0.7]])
    x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    y = x @ np.array([1.0, -1.0]) + rng.standard_normal(60)
    fit = linmod.ols_fit(x, y)
    conf = linmod.confidence_ellipsoid(fit, [1, 2],
                                       linmod.joint_radius(0.05, 2, fit.df))
    data_ell = st.data_ellipsoid(st.Sample(x), 1.0)
    # frames agree with columns reversed (up to sign)
    for i in range(2):
        dot = abs(conf.frame[:, i] @ data_ell.frame[:, 1 - i])
        assert dot == pytest.approx(1.0, abs=1e-8)
    prods = conf.radii * data_ell.radii[::-1]
    assert prods[0] == pytest.approx(prods[1], rel=1e-8)


def test_marginal_slope_is_oblique_projection_of_joint_center():
    rng = np.random.default_rng(20)
    for _ in range(50):
        x = rng.standard_normal((40, 2)) @ (np.eye(2)
                                            + 0.6 * np.ones((2, 2)))
        y = x @ rng.standard_normal(2) + rng.standard_normal(40)
        fit = linmod.ols_fit(x, y)
        m = fit.xtx_inv[1:, 1:]     # slope block, any scalar radius
        c = fit.coef[1:]
        # project the center along the horizontal-tangent direction
        # (column 2 of the shape matrix) onto the beta_2 = 0 axis
        coord = c[0] - c[1] * m[0, 1] / m[1, 1]
        marginal = linmod.ols_fit(x[:, 0], y).coef[1]
        assert coord == pytest.approx(marginal, rel=1e-8, abs=1e-8)


def test_avp_ellipse_contained_in_marginal_with_tangency():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(15, 50))
        x = rng.standard_normal((n, 2)) @ (np.eye(2)
                                           + 0.4 * np.ones((2, 2)))
        y = x @ rng.standard_normal(2) + rng.standard_normal(n)
        k = int(rng.integers(0, 2))
        res = linmod.avp(x, y, k)
        marg = np.column_stack([x[:, k] - x[:, k].mean(), y - y.mean()])
        cond = np.column_stack([res["x_star"], res["y_star"]])
        c = st.coverage_radius(0.50, 2)
        ell_m = st.data_ellipsoid(st.Sample(marg), c)
        ell_c = st.data_ellipsoid(st.Sample(cond), c)
        # sampled boundary points of the AVP ellipse stay inside-or-on
        m_mat = (ell_m.frame / ell_m.radii ** 2) @ ell_m.frame.T
        pts = strategies.boundary_points(ell_c, 256)
        norms = np.einsum("ij,jk,ik->i", pts, m_mat, pts)
        assert norms.max() <= 1.0 + 1e-8
        # rank-one moment difference: tangency at exactly two points
        c_mat = (ell_c.frame * ell_c.radii ** 2) @ ell_c.frame.T
        m_mom = (ell_m.frame * ell_m.radii ** 2) @ ell_m.frame.T
        from ellipstat import numkernel as nk
        lam, _ = nk.gen_eig(c_mat, m_mom)
        assert lam[0] == pytest.approx(1.0, abs=1e-6)
        assert lam[1] < 1.0 - 1e-6


def test_joint_ellipse_test_equals_f_test():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        n = int(rng.integers(10, 30))
        x = rng.standard_normal((n, 2))
        y = 0.3 * rng.standard_normal() * x[:, 0] + rng.standard_normal(n)
        fit = linmod.ols_fit(x, y)
        ell = linmod.confidence_ellipsoid(
            fit, [1, 2], linmod.joint_radius(0.05, 2, fit.df))
        z = ell.frame.T @ (np.zeros(2) - ell.center)
        outside = float(np.sum((z / ell.radii) ** 2)) > 1.0
        sub = np.linalg.inv(fit.xtx_inv[1:, 1:])
        f_stat = fit.coef[1:] @ sub @ fit.coef[1:] / (2 * fit.s2)
        f_crit = dist.f_quantile(0.95, 2, fit.df)
        assert outside == (f_stat > f_crit)


@settings(max_examples=60, deadline=None, database=None)
@given(strategies.regression_designs(), hs.data())
def test_confidence_ellipsoid_shadows_are_the_intervals(design, data):
    # the shadow of the joint ellipsoid of d coefficients on a unit
    # direction u is the Scheffe interval for u'beta, and the shadow of the
    # individual (t) ellipsoid is the t interval; their radii sqrt(d F)
    # and t are the quantiles of their levels
    fit = linmod.ols_fit(*design)
    d = data.draw(hs.integers(1, fit.q))
    coords = sorted(data.draw(hs.permutations(range(fit.q)))[:d])
    alpha = data.draw(hs.sampled_from([0.01, 0.05, 0.32]))
    u = np.random.default_rng(data.draw(strategies.seeds)).standard_normal(d)
    u /= np.linalg.norm(u)
    combo = np.zeros(fit.q)
    combo[coords] = u
    r_joint = linmod.joint_radius(alpha, d, fit.df)
    r_t = linmod.ci_radius(alpha, fit.df)
    for radius in (r_joint, r_t):
        ell = linmod.confidence_ellipsoid(fit, coords, radius)
        top = ell.radii.max()
        shadow = st.univariate_shadow(ell, u)
        interval = linmod.shadow_interval(fit, combo, radius)
        assert np.abs(np.subtract(shadow, interval)).max() <= \
            1e-9 * (top + abs(interval[0] + interval[1]))
    assert dist.f_cdf(r_joint ** 2 / d, d, fit.df, upper=True) == \
        pytest.approx(alpha, rel=1e-12)
    assert dist.t_cdf(r_t, fit.df, upper=True) == \
        pytest.approx(alpha / 2, rel=1e-12)


@settings(max_examples=100, deadline=None, database=None)
@given(strategies.regression_designs(), hs.data())
def test_added_variable_laws(design, data):
    # the added-variable slope is the full-model coefficient and its
    # residuals are the full-model residuals, to rounding in the fits
    # (eps cond(X)); the marginal slope is the simple-regression slope. A
    # design that ols_fit rejects is rejected by avp too.
    x, y = design
    k = data.draw(hs.integers(0, x.shape[1] - 1))
    try:
        full = linmod.ols_fit(x, y)
    except ValueError:
        with pytest.raises(ValueError):
            linmod.avp(x, y, k)
        return
    res = linmod.avp(x, y, k)
    coef = full.coef[k + 1]
    assert res["full_model_coef"] == coef
    assert res["slope_matches_full_model"] == abs(res["slope"] - coef)
    tol = 64 * EPS * np.linalg.cond(linmod.design_matrix(x))
    y_size = np.linalg.norm(y)
    assert res["slope_matches_full_model"] <= tol * (
        abs(coef) + y_size / np.linalg.norm(res["x_star"]))
    assert res["residual_match"] == np.abs(res["residuals"]
                                           - full.residuals).max()
    assert res["residual_match"] <= tol * y_size
    xc = x[:, k] - x[:, k].mean()
    assert np.array_equal(res["marginal"], np.column_stack([xc,
                                                            y - y.mean()]))
    simple = linmod.ols_fit(x[:, k], y).coef[1]
    assert abs(res["marginal_slope"] - simple) <= 1e-12 * (
        abs(simple) + y_size / np.linalg.norm(xc))


def _coffee():
    table = cli.resolve_data("synthetic-coffee")
    return (np.column_stack([table.numeric("Coffee"),
                             table.numeric("Stress")]),
            table.numeric("Heart"))


def _unit_cond(x):
    xd = linmod.design_matrix(x)
    return np.linalg.cond(xd / np.linalg.norm(xd, axis=0))


@pytest.mark.parametrize("log_s", [-30.0, -14.0, 14.0, 30.0])
def test_fits_keep_their_answers_in_any_units(log_s):
    # synthetic-coffee with every column, the response too, times s: the
    # slopes, their SEs, the avp slope and the partial correlation do not
    # move, and the intercept and its SE scale by s, to eps times the
    # condition number of the design with unit-length columns. (A solve
    # that truncates the raw design's small singular values gives the avp
    # slope -0.795 for -0.394 at s = 1e30.)
    x, y = _coffee()
    s = 10.0 ** log_s
    tol = 64 * EPS * _unit_cond(x)
    base, got = linmod.ols_fit(x, y), linmod.ols_fit(s * x, s * y)
    units = np.array([s, 1.0, 1.0])
    assert got.coef / units == pytest.approx(base.coef, rel=tol)
    assert got.se() / units == pytest.approx(base.se(), rel=tol)
    assert got.s2 / s ** 2 == pytest.approx(base.s2, rel=tol)
    want, res = linmod.avp(x, y, 0), linmod.avp(s * x, s * y, 0)
    for key in ("slope", "partial_corr", "full_model_coef"):
        assert res[key] == pytest.approx(want[key], rel=tol), key


@pytest.mark.parametrize("log_s", [-100.0, 100.0])
def test_partial_correlation_in_any_units(log_s):
    # sqrt(sxx) sqrt(y*'y*): the product sxx y*'y* under- and overflows at
    # s = 1e-100 and 1e100, where it would give a partial correlation of 0
    x, y = _coffee()
    s = 10.0 ** log_s
    want = linmod.avp(x, y, 0)["partial_corr"]
    assert linmod.avp(s * x, s * y, 0)["partial_corr"] == \
        pytest.approx(want, rel=1e-13)


@settings(max_examples=100, deadline=None, database=None)
@given(strategies.regression_designs(), hs.data())
def test_ols_fit_is_equivariant_under_column_units(design, data):
    # each predictor column in its own units, up to 1e60 apart, and the
    # response in units of its own: each coefficient and SE scales as its
    # column's units say, to eps cond^2 of the unit-column design (the
    # least-squares perturbation bound)
    x, y = design
    logs = data.draw(hs.lists(hs.floats(-30.0, 30.0), min_size=x.shape[1],
                              max_size=x.shape[1]))
    log_y = data.draw(hs.floats(-30.0, 30.0))
    units, s_y = 10.0 ** np.array(logs), 10.0 ** log_y
    base = linmod.ols_fit(x, y)
    got = linmod.ols_fit(x * units, y * s_y)
    norms = np.linalg.norm(linmod.design_matrix(x), axis=0)
    back = np.concatenate([[s_y], s_y / units])
    kappa = _unit_cond(x)
    tol = 64 * EPS * kappa * kappa * (np.linalg.norm(base.coef * norms)
                                      + np.linalg.norm(y))
    assert np.abs((got.coef / back - base.coef) * norms).max() <= tol
    assert np.abs((got.se() / back - base.se()) * norms).max() <= tol
