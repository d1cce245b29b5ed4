import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings, target
from hypothesis import strategies as hs

from ellipstat import linmod, mlm
from ellipstat import numkernel as nk
from ellipstat import statellipse as st

import strategies
from conftest import grouped, random_pd


@pytest.fixture(scope="module")
def iris_fit(iris_grouped):
    fit, labels = mlm.manova_fit(iris_grouped)
    hyp = mlm.overall_hypothesis(iris_grouped.g)
    h, e = mlm.hypothesis_matrices(fit, hyp)
    return fit, labels, h, e


def test_single_column_reduces_to_ols():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 2))
    y = x @ np.array([1.0, 2.0]) + rng.standard_normal(30)
    xd = linmod.design_matrix(x)
    fit_m = mlm.mlm_fit(xd, y)
    fit_u = linmod.ols_fit(x, y)
    assert fit_m.coef[:, 0] == pytest.approx(fit_u.coef)
    assert fit_m.e_mat[0, 0] == pytest.approx(fit_u.s2 * fit_u.df)


def test_exact_fit_zero_e():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((20, 2))
    b = rng.standard_normal((2, 3))
    fit = mlm.mlm_fit(x, x @ b)
    assert np.abs(fit.e_mat).max() < 1e-18


def test_e_matches_pooled_within(iris_grouped, iris_fit):
    fit, _, _, e = iris_fit
    pooled = st.pooled_within_cov(iris_grouped)
    assert e / fit.df_e == pytest.approx(pooled, rel=1e-10)


def test_overall_h_equals_weighted_mean_scatter(iris_grouped, iris_fit):
    _, _, h, _ = iris_fit
    _, means, ns = st.group_means(iris_grouped)
    grand = (ns[:, None] * means).sum(axis=0) / ns.sum()
    dev = means - grand
    h_direct = (ns[:, None] * dev).T @ dev
    assert h == pytest.approx(h_direct, rel=1e-10)


def test_null_effect_roy_p_values_roughly_uniform():
    rng = np.random.default_rng(3)
    pvals = []
    for _ in range(200):
        gs = grouped({f"g{i}": rng.standard_normal((10, 2))
                      for i in range(3)})
        fit, _ = mlm.manova_fit(gs)
        h, e = mlm.hypothesis_matrices(fit, mlm.overall_hypothesis(3))
        res = mlm.test_stats(h, e, 2, fit.df_e)
        pvals.append(res.f_stats["wilks"][3])
    # Wilks F is exact for s = 2: p-values uniform under the null
    assert np.median(pvals) == pytest.approx(0.5, abs=0.1)
    assert (np.array(pvals) < 0.05).mean() == pytest.approx(0.05, abs=0.04)


def test_mlm_rank_verdict_ignores_the_units_of_the_columns():
    # columns in units 1e12 apart are independent: accepted, as ols_fit
    # accepts them; a column that combines two others is still rejected
    rng = np.random.default_rng(8)
    x1, x2 = rng.standard_normal((2, 30))
    y = rng.standard_normal((30, 2))
    units = np.array([1.0, 1e6, 1e-6])
    fit = mlm.mlm_fit(np.column_stack([np.ones(30), x1, x2]) * units, y)
    for j in range(2):
        assert fit.coef[:, j] * units == pytest.approx(
            linmod.ols_fit(np.column_stack([x1, x2]), y[:, j]).coef,
            rel=1e-6)
    with pytest.raises(ValueError, match="rank deficient"):
        mlm.mlm_fit(np.column_stack([np.ones(30), x1, x2, x1 - 2 * x2])
                    * np.append(units, 1e3), y)


def test_hypothesis_rejects_dependent_rows():
    with pytest.raises(ValueError):
        mlm.Hypothesis([[1.0, -1.0, 0.0], [2.0, -2.0, 0.0]])
    # more rows than columns cannot be independent
    with pytest.raises(nk.InputError, match="linearly dependent"):
        mlm.Hypothesis([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_hypothesis_rank_is_free_of_row_units():
    # the rank is taken with each row scaled to unit length: two
    # independent rows in units 1e22 apart are independent, and a row
    # and its multiple are dependent in any units
    mlm.Hypothesis([[1.0, 0.0, 0.0], [1e-11, 1e-11, 0.0]])
    mlm.Hypothesis([[1e200, 0.0, 0.0], [0.0, 1e-200, 0.0]])
    for unit in (1e-150, 1.0, 1e150):
        with pytest.raises(nk.InputError):
            mlm.Hypothesis([[unit, -unit, 0.0], [2.0, -2.0, 0.0]])


def test_stats_trivial_values():
    e = np.eye(2) * 5.0
    res = mlm.test_stats(np.zeros((2, 2)), e, 2, 20)
    assert res.wilks == pytest.approx(1.0)
    assert res.pillai == pytest.approx(0.0)
    assert res.hotelling_lawley == pytest.approx(0.0)
    assert res.roy == pytest.approx(0.0)


def test_stats_unit_lambdas():
    # H = E gives lam = (1, 1): Wilks 1/4, Pillai 1, HLT 2, Roy 1
    e = random_pd(np.random.default_rng(4), 2)
    res = mlm.test_stats(e.copy(), e, 2, 20)
    assert res.lambdas == pytest.approx([1.0, 1.0], rel=1e-10)
    assert res.wilks == pytest.approx(0.25)
    assert res.pillai == pytest.approx(1.0)
    assert res.hotelling_lawley == pytest.approx(2.0)
    assert res.roy == pytest.approx(1.0)


def test_iris_canonical_share(iris_fit):
    _, _, h, e = iris_fit
    res = mlm.test_stats(h, e, 2, 147)
    share = res.lambdas[0] / res.lambdas.sum()
    assert share == pytest.approx(0.991, abs=0.001)


def test_wilks_determinant_identity(iris_fit):
    _, _, h, e = iris_fit
    res = mlm.test_stats(h, e, 2, 147)
    det_form = np.linalg.det(e) / np.linalg.det(h + e)
    assert res.wilks == pytest.approx(det_form, rel=1e-10)


def test_rho_roots_of_h_plus_e_pencil(iris_fit):
    _, _, h, e = iris_fit
    res = mlm.test_stats(h, e, 2, 147)
    rho, _ = nk.gen_eig(h, h + e)
    assert rho[:2] == pytest.approx(res.rhos, abs=1e-10)


def test_iris_f_approximations_match_scipy_reference(iris_fit):
    # classical published iris MANOVA: Wilks F approx 199.1 on (8, 288)
    _, _, h, e = iris_fit
    res = mlm.test_stats(h, e, 2, 147)
    f, d1, d2, p = res.f_stats["wilks"]
    assert (d1, d2) == (8.0, 288.0)
    assert f == pytest.approx(199.145, abs=0.01)
    assert p == pytest.approx(scipy.stats.f.sf(f, d1, d2), rel=1e-8)
    f, d1, d2, _ = res.f_stats["pillai"]
    assert (d1, d2) == (8.0, 290.0)
    f, d1, d2, _ = res.f_stats["roy"]
    assert (d1, d2) == (4.0, 145.0)


def test_roy_critical_modes_and_limits():
    assert mlm.roy_critical(2, 147, 4, alpha=0.9999) < 0.002
    # p = 1 reduces to the univariate F critical value over df2
    from ellipstat import distributions as dist
    lam = mlm.roy_critical(1, 20, 1, alpha=0.05)
    assert lam == pytest.approx(dist.f_quantile(0.95, 1, 20) / 20)
    with pytest.raises(ValueError):
        mlm.roy_critical(2, 3, 10)      # df2 = 3 - 10 + 2 <= 0


def test_iris_roy_critical_golden():
    # frozen after first computation against the F-quantile oracle
    crit = mlm.roy_critical(2, 147, 4, alpha=0.05)
    assert crit == pytest.approx(0.06714662443554799, rel=1e-12)
    oracle = (4 / 145) * scipy.stats.f.ppf(0.95, 4, 145)
    assert crit == pytest.approx(oracle, rel=1e-10)


def test_protrusion_equals_roy_ratio(iris_fit):
    _, _, h, e = iris_fit
    ratio = mlm.protrusion_ratio(h, e, 2, 147, alpha=0.05)
    lam, _ = nk.gen_eig(h, e)
    crit = mlm.roy_critical(2, 147, 4, 0.05)
    assert ratio == pytest.approx(lam[0] / crit, rel=1e-12)
    assert ratio > 1.0      # species effect protrudes at alpha = 0.05


def test_roy_visual_test_exactness(iris_fit):
    # max over directions of the scaled quadratic-form ratio equals
    # lam_1 / lam_alpha
    _, _, h, e = iris_fit
    crit = mlm.roy_critical(2, 147, 4, 0.05)
    h_scaled = h / (crit * 147)
    e_scaled = e / 147
    lam_scaled, _ = nk.gen_eig(h_scaled, e_scaled)
    assert lam_scaled[0] == pytest.approx(
        mlm.protrusion_ratio(h, e, 2, 147), rel=1e-9)


def test_he_ellipses_boundary_case():
    # at lam_1 = lam_alpha the scaled H touches E: equal max radius in the
    # E metric
    rng = np.random.default_rng(5)
    e = random_pd(rng, 2)
    df_h, df_e = 2, 40
    crit = mlm.roy_critical(df_h, df_e, 2, 0.05)
    h = crit * e                        # lam_1 = lam_alpha exactly
    lam, _ = nk.gen_eig(h / (crit * df_e), e / df_e)
    assert lam[0] == pytest.approx(1.0, rel=1e-10)


def test_he_ellipses_effect_scaling_is_fitted_data_ellipse(iris_grouped,
                                                           iris_fit):
    fit, _, h, e = iris_fit
    ell_h, ell_e = mlm.he_ellipses(h, e, fit.df_e, 1.0, coords=(0, 1),
                                   center=fit.y_mean)
    # moment of the H ellipse is c^2 H/df_e restricted to the pair
    from ellipstat import distributions as dist
    c2 = 2 * dist.f_quantile(0.68, 2, fit.df_e)
    back = (ell_h.frame * ell_h.radii ** 2) @ ell_h.frame.T
    assert back == pytest.approx(c2 * h[:2, :2] / fit.df_e, rel=1e-9)
    assert ell_h.center == pytest.approx(fit.y_mean[:2])


def test_contrast_additivity_iris(iris_grouped, iris_fit):
    fit, _, h, _ = iris_fit
    l1 = mlm.Hypothesis([[-2.0, 1.0, 1.0]], "S:VV")
    l2 = mlm.Hypothesis([[0.0, 1.0, -1.0]], "V:V")
    dec = mlm.contrast_decompose(fit, [l1, l2],
                                 overall=mlm.overall_hypothesis(3))
    assert dec["orthogonal"]
    assert dec["residual"] <= 1e-8 * np.abs(dec["h_overall"]).max()
    for part in dec["h_parts"]:
        lam = np.linalg.eigvalsh(part)
        assert (lam > 1e-8 * lam.max()).sum() == 1    # rank one


def test_single_contrast_identity(iris_fit):
    fit, _, _, _ = iris_fit
    hyp = mlm.Hypothesis([[1.0, -1.0, 0.0]])
    dec = mlm.contrast_decompose(fit, [hyp], overall=hyp)
    assert dec["residual"] == pytest.approx(0.0, abs=1e-10)


def test_constant_response_is_fitted_exactly():
    # rounding in the solve used to leave a constant response a residual
    # SSCP near 1e-32 that passed as positive definite, and group means
    # off by an ulp: the tests of H against E then read noise
    gs = grouped({"a": np.full((3, 2), [0.1, 7.0]),
                  "b": np.column_stack([np.full(4, 0.1), np.arange(4.0)])})
    fit, _ = mlm.manova_fit(gs)
    assert (fit.coef[:, 0] == 0.1).all()
    assert (fit.e_mat[0] == 0).all() and (fit.e_mat[:, 0] == 0).all()
    h, e = mlm.hypothesis_matrices(fit, mlm.overall_hypothesis(2))
    assert (h[0] == 0).all()
    with pytest.raises(nk.NotPositiveDefiniteError):
        mlm.test_stats(h, e, 1, fit.df_e)


def test_response_constant_within_groups_is_fitted_exactly():
    # a response constant within each group has no residual either: the
    # solve left it an SSCP near 1e-32, and an HE test of H against it
    # read lambdas near 1e30
    gs = grouped({"a": np.column_stack([np.full(3, 0.1), np.arange(3.0)]),
                  "b": np.column_stack([np.full(4, 0.7), np.arange(4.0)])})
    fit, _ = mlm.manova_fit(gs)
    assert fit.coef[:, 0].tolist() == [0.1, 0.7]
    assert (fit.e_mat[0] == 0).all() and (fit.e_mat[:, 0] == 0).all()
    assert fit.e_mat[1, 1] > 0
    h, e = mlm.hypothesis_matrices(fit, mlm.overall_hypothesis(2))
    with pytest.raises(nk.NotPositiveDefiniteError):
        mlm.test_stats(h, e, 1, fit.df_e)


def test_contrast_parts_of_a_zero_h():
    # every group mean equal: H is zero, so its parts add up to it only
    # when they are zero too (relative 0), else relative is inf; it used
    # to divide by max|H| = 0
    gs = grouped({"a": np.full((3, 1), 1e-150), "b": np.full((4, 1), 1e-150)})
    fit, _ = mlm.manova_fit(gs)
    zero = mlm.contrast_decompose(fit, [mlm.Hypothesis([[1.0, -1.0]])])
    assert (zero["h_overall"] == 0).all() and zero["relative"] == 0.0
    mean = mlm.contrast_decompose(fit, [mlm.Hypothesis([[1.0, 1.0]])],
                                  overall=mlm.overall_hypothesis(2))
    assert mean["residual"] > 0 and mean["relative"] == np.inf


def test_permuted_group_labels_same_overall_h(iris_grouped):
    relabeled = grouped(dict(zip(["z", "m", "a"], iris_grouped.split())))
    fit1, _ = mlm.manova_fit(iris_grouped)
    fit2, _ = mlm.manova_fit(relabeled)
    h1, _ = mlm.hypothesis_matrices(fit1, mlm.overall_hypothesis(3))
    h2, _ = mlm.hypothesis_matrices(fit2, mlm.overall_hypothesis(3))
    assert h1 == pytest.approx(h2, rel=1e-9)


@settings(max_examples=60, deadline=None, database=None)
@given(strategies.grouped_samples(balanced=True))
def test_helmert_contrasts_add_up_to_the_overall_h(gs):
    # in a balanced one-way design the g - 1 Helmert contrasts (each group
    # against the mean of those before it) split H into orthogonal parts
    g = gs.g
    helmert = [mlm.Hypothesis([[1.0] * k + [-float(k)] + [0.0] * (g - k - 1)])
               for k in range(1, g)]
    fit, _ = mlm.manova_fit(gs)
    dec = mlm.contrast_decompose(fit, helmert,
                                 overall=mlm.overall_hypothesis(g))
    assert dec["orthogonal"]
    assert dec["relative"] <= 1e-10


@settings(max_examples=100, deadline=None, database=None)
@given(strategies.grouped_samples(), hs.sampled_from([0.01, 0.05, 0.1, 0.5]))
def test_protrusion_beyond_one_is_roys_rejection(gs, alpha):
    # the significance-scaled H pokes outside E exactly when the Roy F
    # test rejects at level alpha
    df_h, df_e = gs.g - 1, gs.total_n - gs.g
    assume(df_e > gs.p)
    fit, _ = mlm.manova_fit(gs)
    h, e = mlm.hypothesis_matrices(fit, mlm.overall_hypothesis(gs.g))
    ratio = mlm.protrusion_ratio(h, e, df_h, df_e, alpha)
    assume(abs(ratio - 1.0) >= 1e-9)
    target(-abs(np.log(ratio)))     # seek cases near the boundary
    p_value = mlm.test_stats(h, e, df_h, df_e).f_stats["roy"][3]
    assert (ratio > 1.0) == (p_value < alpha)


def test_nonorthogonal_contrasts_warn(iris_fit):
    fit, _, _, _ = iris_fit
    with pytest.warns(UserWarning):
        mlm.contrast_decompose(fit, [mlm.Hypothesis([[1.0, -1.0, 0.0]]),
                                     mlm.Hypothesis([[1.0, 0.0, -1.0]])])


def test_canonical_two_groups_is_lda_axis():
    rng = np.random.default_rng(6)
    gs = grouped({
        "a": rng.standard_normal((30, 3)) + [0.0, 0.0, 0.0],
        "b": rng.standard_normal((30, 3)) + [2.0, 1.0, 0.0],
    })
    can = mlm.canonical(gs)
    assert can.scores.shape[1] == 1
    _, means, _ = st.group_means(gs)
    pooled = st.pooled_within_cov(gs)
    lda_dir = np.linalg.solve(pooled, means[0] - means[1])
    cosine = can.coeffs[:, 0] @ lda_dir / (
        np.linalg.norm(can.coeffs[:, 0]) * np.linalg.norm(lda_dir))
    assert abs(cosine) == pytest.approx(1.0, abs=1e-9)


def test_iris_canonical_percent_and_structure(iris_grouped):
    can = mlm.canonical(iris_grouped)
    assert can.percent[0] == pytest.approx(99.1, abs=0.1)
    assert can.percent[1] == pytest.approx(0.9, abs=0.1)
    names = iris_grouped.names
    sw = names.index("SepalWidth")
    assert can.structure[sw, 0] < 0
    others = [j for j in range(4) if j != sw]
    assert all(can.structure[j, 0] > 0 for j in others)


def test_canonical_scores_uncorrelated_unit_within(iris_grouped):
    can = mlm.canonical(iris_grouped)
    z = can.scores
    total_cov = np.cov(z.T, ddof=1)
    assert abs(total_cov[0, 1]) < 1e-8 * np.sqrt(total_cov[0, 0]
                                                 * total_cov[1, 1])
    pooled = np.zeros((2, 2))
    start = 0
    for n_i in iris_grouped.counts:
        zc = z[start:start + n_i] - z[start:start + n_i].mean(axis=0)
        pooled += zc.T @ zc
        start += n_i
    assert pooled / can.df_e == pytest.approx(np.eye(2), abs=1e-8)


def test_canonical_manova_equivalence(iris_grouped):
    # the four criteria agree between raw responses and canonical scores
    fit, _ = mlm.manova_fit(iris_grouped)
    h, e = mlm.hypothesis_matrices(fit, mlm.overall_hypothesis(3))
    res_y = mlm.test_stats(h, e, 2, fit.df_e)

    can = mlm.canonical(iris_grouped)
    fit_z = mlm.mlm_fit(mlm.manova_design(iris_grouped), can.scores)
    h_z, e_z = mlm.hypothesis_matrices(fit_z, mlm.overall_hypothesis(3))
    res_z = mlm.test_stats(h_z, e_z, 2, fit_z.df_e)
    assert res_z.wilks == pytest.approx(res_y.wilks, rel=1e-8)
    assert res_z.pillai == pytest.approx(res_y.pillai, rel=1e-8)
    assert res_z.hotelling_lawley == pytest.approx(res_y.hotelling_lawley,
                                                   rel=1e-8)
    assert res_z.roy == pytest.approx(res_y.roy, rel=1e-8)


def test_structure_coefficients_are_correlations(iris_grouped):
    # the plotted vector coordinates are the plain correlations between
    # each response and each score column (np.corrcoef as oracle), so a
    # vector's squared length is the sum of its squared correlations
    can = mlm.canonical(iris_grouped)
    y = iris_grouped.data
    for j in range(4):
        for k in range(2):
            oracle = np.corrcoef(y[:, j], can.scores[:, k])[0, 1]
            assert can.structure[j, k] == pytest.approx(oracle, abs=1e-10)
        length2 = float(can.structure[j] @ can.structure[j])
        oracle2 = sum(np.corrcoef(y[:, j], can.scores[:, k])[0, 1] ** 2
                      for k in range(2))
        assert length2 == pytest.approx(oracle2, abs=1e-10)
        assert length2 <= 1.0 + 1e-10


def test_mtest_geometry_cases():
    out = mlm.mtest_geometry(0.0, 0.0)
    assert (out["a"], out["b"]) == (1.0, 1.0)
    assert out["c"] == pytest.approx(np.sqrt(2.0))
    assert out["d"] == pytest.approx(1.0 / np.sqrt(2.0))
    assert out["pillai_check"] == pytest.approx(0.0, abs=1e-12)

    out = mlm.mtest_geometry(3.0, 1.0)
    assert out["pillai_check"] == pytest.approx(3 / 4 + 1 / 2, rel=1e-12)

    with pytest.raises(ValueError):
        mlm.mtest_geometry(1.0, 2.0)


def test_mtest_geometry_identity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(10 ** 4):
        lam = np.sort(rng.uniform(0.0, 50.0, 2))[::-1]
        out = mlm.mtest_geometry(lam[0], lam[1])
        pillai = lam[0] / (1 + lam[0]) + lam[1] / (1 + lam[1])
        assert abs(out["pillai_check"] - pillai) < 1e-12


def test_small_s_criteria_equivalent_p_values(iris_fit):
    # with s = min(p, df_h) = 2 the standard F transformations are exact;
    # observed (not asserted as an invariant): identical p-values
    _, _, h, e = iris_fit
    res = mlm.test_stats(h, e, 2, 147)
    ps = [res.f_stats[k][3] for k in ("wilks", "pillai",
                                      "hotelling_lawley")]
    assert max(ps) - min(ps) < 1e-12   # all effectively zero here
