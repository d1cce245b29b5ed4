# Acceptance criteria, one test each, every tolerance pinned. Each test
# prints a single [PASS]/[FAIL] line (visible with pytest -s or in the
# captured-output section of a failure report).

import functools
import json
import time

import numpy as np
import pytest

from ellipstat import cli, datasets, gellipsoid as ge, kissing as ki
from ellipstat import linmod, mlm
from ellipstat import numkernel as nk
from ellipstat import statellipse as st

import strategies
from conftest import grouped


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number:2d}: {description}")
                raise
            print(f"[PASS] criterion {number:2d}: {description}")
        return wrapper
    return deco


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = cli.main(argv + ["--json", str(out)])
    assert code == 0
    with open(out, encoding="utf-8") as f:
        return json.load(f)


@criterion(1, "galton data-ellipse r = 0.46 +/- 0.005")
def test_acceptance_01_galton_correlation(tmp_path):
    d = run_json(tmp_path, ["data-ellipse", "--data", "galton.csv",
                            "--level", "0.40"])
    assert abs(d["r"] - 0.46) <= 0.005


@criterion(2, "coverage constants c^2 = 5.99 / 2.28 (+/- 0.01)")
def test_acceptance_02_coverage_constants():
    c95 = st.coverage_radius(2, st.CoverageSpec.chisq(0.95))
    c68 = st.coverage_radius(2, st.CoverageSpec.chisq(0.68))
    assert abs(c95 ** 2 - 5.99) <= 0.01
    assert abs(c68 ** 2 - 2.28) <= 0.01


@criterion(3, "iris first canonical share 99.1% +/- 0.1%")
def test_acceptance_03_iris_canonical_share(tmp_path):
    d = run_json(tmp_path, ["canonical", "--data", "iris.csv",
                            "--group", "Species"])
    assert abs(d["percent"][0] - 99.1) <= 0.1
    assert abs(d["percent"][1] - 0.9) <= 0.1


@criterion(4, "iris H(L1) + H(L2) = H(species) to 1e-8 relative")
def test_acceptance_04_contrast_additivity(iris_grouped):
    fit, _ = mlm.manova_fit(iris_grouped)
    dec = mlm.contrast_decompose(
        fit,
        [mlm.Hypothesis([[-2.0, 1.0, 1.0]]),
         mlm.Hypothesis([[0.0, 1.0, -1.0]])],
        overall=mlm.overall_hypothesis(3))
    assert dec["residual"] <= 1e-8 * np.abs(dec["h_overall"]).max()


@criterion(5, "Roy visual test: protrusion ratio equals lam1/lam_alpha "
              "to 1e-9 and exceeds 1")
def test_acceptance_05_roy_visual_exactness(iris_grouped):
    fit, _ = mlm.manova_fit(iris_grouped)
    h, e = mlm.hypothesis_matrices(fit, mlm.overall_hypothesis(3))
    crit = mlm.roy_critical(2, fit.df_e, 4, alpha=0.05)
    ratio = mlm.protrusion_ratio(h, e, 2, fit.df_e, alpha=0.05)
    assert ratio > 1.0
    # max over directions of the significance-scaled quadratic ratio
    lam_scaled, _ = nk.gen_eig(h / (crit * fit.df_e), e / fit.df_e)
    assert abs(lam_scaled[0] - ratio) <= 1e-9 * ratio


@criterion(6, "berkey fixed effect beta = (0.307, -0.394) +/- 0.005")
def test_acceptance_06_meta_fixed(tmp_path):
    d = run_json(tmp_path, ["meta", "--data", "berkey.csv",
                            "--model", "fixed"])
    assert abs(d["beta"][0] - 0.307) <= 0.005
    assert abs(d["beta"][1] + 0.394) <= 0.005


@criterion(7, "berkey random effect: MoM beta within 0.05, corr in "
              "[0.4, 0.8]; exact Delta=0 reduction to 1e-12")
def test_acceptance_07_meta_random(berkey_studies, tmp_path):
    d = run_json(tmp_path, ["meta", "--data", "berkey.csv",
                            "--model", "random"])
    assert abs(d["beta"][0] - 0.353) <= 0.05
    assert abs(d["beta"][1] + 0.339) <= 0.05
    assert 0.4 <= d["delta_corr"] <= 0.8
    fixed = ki.meta_fixed(berkey_studies)
    re0 = ki.meta_random(berkey_studies, np.zeros((2, 2)))
    assert np.abs(re0["beta"] - fixed["beta"]).max() <= 1e-12


@criterion(8, "appendix signatures (3,0,0) / (2,1,0) / dual (2,0,1)")
def test_acceptance_08_signatures():
    c1 = np.array([[6.0, 2.0, 1.0], [2.0, 3.0, 2.0], [1.0, 2.0, 2.0]])
    c2 = np.array([[6.0, 2.0, 0.0], [2.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
    assert ge.signature(ge.from_moment(c1)).as_tuple() == (3, 0, 0)
    flat = ge.from_moment(c2)
    assert ge.signature(flat).as_tuple() == (2, 1, 0)
    assert ge.signature(ge.dual(flat)).as_tuple() == (2, 0, 1)


@criterion(9, "conjugate axes: A^T W^-1 A = I to 1e-9; equal "
              "parallelogram areas and diameter sums to 1e-9")
def test_acceptance_09_conjugate_axes():
    w = np.array([[3.25, 3.5], [3.5, 5.0]])
    given = np.array([[1.0, 1.5], [2.0, 1.0]])
    w_inv = np.linalg.inv(w)
    variants = [ge.conjugate_axes(w, "given", given=given),
                ge.conjugate_axes(w, "cholesky"),
                ge.conjugate_axes(w, "principal")]
    for v in variants:
        gram = v.axes.T @ w_inv @ v.axes
        assert np.abs(gram - np.eye(2)).max() <= 1e-9
    areas = [v.area() for v in variants]
    diams = [v.sum_sq_diameters() for v in variants]
    for a in areas[1:]:
        assert abs(a - areas[0]) <= 1e-9 * areas[0]
    for d in diams[1:]:
        assert abs(d - diams[0]) <= 1e-9 * diams[0]


@criterion(10, "kiss locus through both centers, |g| <= 1e-6 scale; "
               "equal shapes collapse to the segment")
def test_acceptance_10_kiss_locus():
    f1 = ki.QuadFamily([-2.0, 2.0], [[1.0, 0.5], [0.5, 1.5]])
    f2 = ki.QuadFamily([2.0, 6.0], [[1.5, -0.3], [-0.3, 1.0]])
    bbox = (-8.0, 8.0, -4.0, 12.0)
    res = 96
    locus = ki.trace_locus(f1, f2, bbox, res)
    verts = np.vstack(locus["polylines"])
    assert np.abs(ki.cross_field(f1, f2, verts)).max() <= \
        1e-6 * locus["scale"]
    cell = max(bbox[1] - bbox[0], bbox[3] - bbox[2]) / res * np.sqrt(2)
    assert np.linalg.norm(verts - f1.m, axis=1).min() < cell
    assert np.linalg.norm(verts - f2.m, axis=1).min() < cell

    same = ki.QuadFamily([2.0, 6.0], f1.a_mat)
    locus2 = ki.trace_locus(f1, same, bbox, res)
    verts2 = np.vstack(locus2["polylines"])
    d = (same.m - f1.m) / np.linalg.norm(same.m - f1.m)
    normal = np.array([-d[1], d[0]])
    assert np.abs((verts2 - f1.m) @ normal).max() < 1e-6


@criterion(11, "ridge: k=0 is OLS (1e-10); norms nonincreasing; "
               "generalized variance strictly decreasing; bayes = ridge "
               "to 1e-12")
def test_acceptance_11_ridge_suite(longley):
    _, x, y = longley
    ks = [0.0, 0.005, 0.01, 0.02, 0.04, 0.08]
    results = [ki.ridge(x, y, k) for k in ks]
    assert np.abs(results[0].beta - results[0].beta_ols).max() <= 1e-10
    norms = [np.linalg.norm(r.beta) for r in results]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    dets = [np.linalg.det(r.cov) for r in results]
    assert all(b < a for a, b in zip(dets, dets[1:]))
    for k, r in zip(ks, results):
        bayes = ki.bayes_posterior(x, y, np.zeros(6), k * np.eye(6))
        assert np.abs(bayes["beta_post"] - r.beta).max() <= 1e-12 * \
            max(1.0, np.abs(r.beta).max())


@criterion(12, "AVP identities to 1e-10 on 1000 random datasets; "
               "ellipse containment with two-point tangency")
def test_acceptance_12_avp_identities():
    rng = np.random.default_rng(9001)
    for _ in range(1000):
        n = int(rng.integers(12, 36))
        q = int(rng.integers(2, 5))
        x = rng.standard_normal((n, q))
        y = rng.standard_normal(n)
        k = int(rng.integers(0, q))
        res = linmod.avp(x, y, k)
        fit = linmod.ols_fit(x, y)
        assert abs(res["slope"] - fit.coef[k + 1]) <= 1e-10
        assert np.abs(res["residuals"] - fit.residuals).max() <= 1e-10
    # containment and tangency in the two-predictor case
    for _ in range(25):
        x = rng.standard_normal((30, 2)) @ (np.eye(2)
                                            + 0.5 * np.ones((2, 2)))
        y = x @ rng.standard_normal(2) + rng.standard_normal(30)
        k = int(rng.integers(0, 2))
        res = linmod.avp(x, y, k)
        marg = np.column_stack([x[:, k] - x[:, k].mean(), y - y.mean()])
        cond = np.column_stack([res["x_star"], res["y_star"]])
        spec = st.CoverageSpec.chisq(0.50)
        ell_m = st.data_ellipsoid(st.Sample(marg), spec)
        ell_c = st.data_ellipsoid(st.Sample(cond), spec)
        m_prec = (ell_m.frame / ell_m.radii ** 2) @ ell_m.frame.T
        pts = strategies.boundary_points(ell_c, 256)
        norms = np.einsum("ij,jk,ik->i", pts, m_prec, pts)
        assert norms.max() <= 1.0 + 1e-8
        c_mom = (ell_c.frame * ell_c.radii ** 2) @ ell_c.frame.T
        m_mom = (ell_m.frame * ell_m.radii ** 2) @ ell_m.frame.T
        lam, _ = nk.gen_eig(c_mom, m_mom)
        assert abs(lam[0] - 1.0) <= 1e-6 and lam[1] < 1.0 - 1e-6


@criterion(13, "attenuation ratio at delta = 1 is 0.5 +/- 0.05 "
               "(n = 1e5, < 30 s)")
def test_acceptance_13_attenuation():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    x = rng.standard_normal(10 ** 5)
    y = 2.0 * x + rng.standard_normal(10 ** 5) * 0.5
    out = linmod.attenuation_curve(x, y, [1.0], reps=20, seed=7)
    elapsed = time.monotonic() - start
    assert abs(out["mean_ratio"][0] - 0.5) <= 0.05
    assert elapsed < 30.0


@criterion(14, "beta_marginal in [beta_within, beta_between] on 1000 "
               "configurations; demo r_within = 0.87 +/- 0.02, "
               "r_between = 0.95 +/- 0.03")
def test_acceptance_14_marginal_interval():
    rng = np.random.default_rng(515)
    for _ in range(1000):
        g = int(rng.integers(2, 6))
        groups = {}
        for i in range(g):
            n_i = int(rng.integers(3, 10))
            center = rng.uniform(-4, 4, 2)
            data = center + rng.standard_normal((n_i, 2)) * \
                rng.uniform(0.5, 2.0, 2)
            groups[f"g{i}"] = data
        try:
            d = st.marginal_decomposition(grouped(groups))
        except ValueError:
            continue
        lo = min(d["beta_within"], d["beta_between"]) - 1e-9
        hi = max(d["beta_within"], d["beta_between"]) + 1e-9
        assert lo <= d["beta_marginal"] <= hi
    for sign in (+1, -1):
        d = st.marginal_decomposition(st.grouped_slopes_demo(sign))
        assert abs(d["r_within"] - sign * 0.87) <= 0.02
        assert abs(d["r_between"] - 0.95) <= 0.03


@criterion(15, "2 - d^-2 equals Pillai V to 1e-12 on 1e4 pairs; volume "
               "within 2% of Monte Carlo")
def test_acceptance_15_geometry_identity():
    rng = np.random.default_rng(321)
    lam1 = rng.uniform(0.0, 40.0, 10 ** 4)
    lam2 = rng.uniform(0.0, 1.0, 10 ** 4) * lam1
    for l1, l2 in zip(lam1, lam2):
        out = mlm.mtest_geometry(l1, l2)
        pillai = l1 / (1 + l1) + l2 / (1 + l2)
        assert abs(out["pillai_check"] - pillai) <= 1e-12
    for _ in range(3):
        a = rng.standard_normal((3, 3))
        e = ge.from_moment(a @ a.T + np.eye(3))
        box = e.radii[0]
        pts = rng.uniform(-box, box, size=(10 ** 6, 3))
        z = (pts @ e.frame) / e.radii
        mc = ((z ** 2).sum(axis=1) <= 1.0).mean() * (2 * box) ** 3
        assert abs(mc - ge.volume(e)) <= 0.02 * ge.volume(e)
