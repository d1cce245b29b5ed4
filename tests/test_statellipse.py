import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ellipstat import distributions as dist
from ellipstat import gellipsoid as ge
from ellipstat import mlm
from ellipstat import numkernel as nk
from ellipstat import statellipse as st

import strategies
from conftest import grouped


def test_mean_cov_two_points():
    s = st.Sample(np.array([[0.0, 0.0], [2.0, 2.0]]))
    mean, cov = st.mean_cov(s)
    assert mean == pytest.approx([1.0, 1.0])
    assert cov == pytest.approx(np.array([[2.0, 2.0], [2.0, 2.0]]))


def test_mean_cov_centered_sample():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((40, 3))
    data -= data.mean(axis=0)
    mean, _ = st.mean_cov(st.Sample(data))
    assert np.abs(mean).max() < 1e-14


def test_galton_correlation(galton_sample):
    r = nk.cov_to_corr(st.mean_cov(galton_sample)[1])[0, 1]
    assert r == pytest.approx(0.46, abs=0.005)


def test_coverage_radius_kinds():
    assert st.coverage_radius(0.95, 2) ** 2 == pytest.approx(5.99, abs=0.01)
    assert st.coverage_radius(0.68, 2) ** 2 == pytest.approx(2.28, abs=0.01)
    assert st.coverage_radius(0.40, 2) ** 2 == pytest.approx(1.0, abs=0.05)
    for level in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(nk.InputError, match="level must be in"):
            st.coverage_radius(level, 2)


def test_data_ellipsoid_shadows_are_standard_intervals(galton_sample):
    # the radius-1 (40%) ellipse projects to mean +/- 1 sd on each axis
    mean, cov = st.mean_cov(galton_sample)
    ell = st.data_ellipsoid(galton_sample, 1.0)
    lo, hi = st.univariate_shadow(ell, np.array([1.0, 0.0]))
    assert (hi - lo) / 2 == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-9)
    lo, hi = st.univariate_shadow(ell, np.array([0.0, 1.0]))
    assert (hi - lo) / 2 == pytest.approx(np.sqrt(cov[1, 1]), rel=1e-9)
    assert (hi + lo) / 2 == pytest.approx(mean[1], rel=1e-9)


def test_shadow_of_any_linear_combination(galton_sample):
    # half-width of the radius-1 shadow equals the sd of the combination
    _, cov = st.mean_cov(galton_sample)
    ell = st.data_ellipsoid(galton_sample, 1.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        lo, hi = st.univariate_shadow(ell, d)
        assert (hi - lo) / 2 == pytest.approx(np.sqrt(d @ cov @ d),
                                              rel=1e-9)


def test_shadow_diagonal_direction_closed_form():
    ell = ge.GEllipsoid(np.zeros(2), np.eye(2), np.array([3.0, 2.0]))
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    lo, hi = st.univariate_shadow(ell, d)
    assert (hi - lo) / 2 == pytest.approx(np.sqrt((9 + 4) / 2), rel=1e-12)


def test_galton_95_coverage(galton_sample):
    mean, cov = st.mean_cov(galton_sample)
    c2 = st.coverage_radius(0.95, 2) ** 2
    inv = np.linalg.inv(cov)
    dev = galton_sample.data - mean
    d2 = np.einsum("ij,jk,ik->i", dev, inv, dev)
    assert (d2 <= c2).mean() == pytest.approx(0.95, abs=0.02)


def test_unit_covariance_sample_shadow():
    rng = np.random.default_rng(77)
    data = rng.standard_normal((4000, 2))
    ell = st.data_ellipsoid(st.Sample(data), 1.0)
    lo, hi = st.univariate_shadow(ell, np.array([1.0, 0.0]))
    assert (hi - lo) / 2 == pytest.approx(1.0, abs=0.05)


def test_pooled_within_cov_basics():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((30, 2))
    single = grouped({"a": data})
    _, s = st.mean_cov(st.Sample(data))
    assert st.pooled_within_cov(single) == pytest.approx(s)

    shifted = grouped({"a": data, "b": data + np.array([5.0, -3.0])})
    assert st.pooled_within_cov(shifted) == pytest.approx(s)


def test_between_cov_cases():
    rng = np.random.default_rng(10)
    base = rng.standard_normal((20, 2))
    base -= base.mean(axis=0)
    other = rng.standard_normal((20, 2))
    other -= other.mean(axis=0)
    equal_means = grouped({"a": base + 1.0, "b": other + 1.0})
    b = st.between_cov(equal_means)
    assert np.abs(b).max() < 1e-12

    two = grouped({"a": base, "b": base + np.array([2.0, 2.0])})
    b = st.between_cov(two)
    lam, vecs = np.linalg.eigh(b)
    assert lam[0] == pytest.approx(0.0, abs=1e-12)
    top = vecs[:, -1]
    assert np.abs(top) == pytest.approx([1.0, 1.0] / np.sqrt(2.0))

    with pytest.raises(ValueError):
        st.between_cov(grouped({"a": base}))


def test_anova_identity():
    gs = st.grouped_slopes_demo()
    n_total, g = gs.total_n, gs.g
    _, s_total = st.mean_cov(st.Sample(gs.data))
    lhs = (n_total - g) * st.pooled_within_cov(gs) \
        + (g - 1) * st.between_cov(gs)
    assert np.abs(lhs - (n_total - 1) * s_total).max() < 1e-10 * \
        np.abs(s_total).max() * n_total


@settings(max_examples=80, deadline=None, database=None)
@given(strategies.grouped_samples())
def test_total_scatter_is_within_plus_between(gs):
    # (N - 1) S_total = (N - g) S_within + (g - 1) S_between for groups of
    # any sizes, spread and scale
    n, g = gs.total_n, gs.g
    _, s_total = st.mean_cov(st.Sample(gs.data))
    total = (n - 1) * s_total
    parts = (n - g) * st.pooled_within_cov(gs) + (g - 1) * st.between_cov(gs)
    assert np.abs(parts - total).max() <= 1e-12 * n * np.abs(total).max()


@settings(max_examples=60, deadline=None, database=None)
@given(strategies.grouped_samples(), strategies.seeds)
def test_interleaving_of_the_rows_changes_nothing(gs, seed):
    # the groups' rows dealt into another interleaving, each group's rows
    # in their own order, make the same stack: the group summaries and the
    # one-way fit are bit-identical
    codes = np.random.default_rng(seed).permutation(
        np.repeat(np.arange(gs.g), gs.counts))
    data = np.empty_like(gs.data)
    data[np.argsort(codes, kind="stable")] = gs.data
    other = st.GroupedSample(data, [gs.labels[k] for k in codes], gs.names)
    for a, b in zip(st.group_means(gs), st.group_means(other)):
        assert np.array_equal(a, b)
    assert np.array_equal(st.pooled_within_cov(gs),
                          st.pooled_within_cov(other))
    (fit_a, labels_a), (fit_b, labels_b) = map(mlm.manova_fit, (gs, other))
    assert labels_a == labels_b
    for field in ("coef", "e_mat", "xtx_inv", "y_mean"):
        assert np.array_equal(getattr(fit_a, field), getattr(fit_b, field))


def _group_rows_by_dict(labels):
    """The grouping rule row by row, one list of rows per label: the
    oracle of group_rows."""
    by = {}
    for i, lab in enumerate(labels):
        by.setdefault(lab, []).append(i)
    try:
        value = {lab: float(lab) for lab in by}
        numeric = all(map(math.isfinite, value.values()))
    except (TypeError, ValueError):
        numeric = False
    names = (sorted(by, key=lambda lab: (value[lab], lab)) if numeric
             else sorted(by))
    return (names, [i for lab in names for i in by[lab]],
            np.cumsum([len(by[lab]) for lab in names]).tolist())


LABELS = hs.one_of(
    hs.lists(hs.one_of(hs.sampled_from(["2", "10", "1.0", "1", "-3",
                                        "1e3", " 2", "nan", "inf"]),
                       hs.text(max_size=3)), max_size=60),
    hs.lists(hs.sampled_from(["2", "10", "1.0", "1", "-3", "1e3", " 2"]),
             max_size=60),
    hs.lists(hs.sampled_from(["2", "10", "-3", "nan", "-inf"]), max_size=60),
    hs.lists(hs.integers(-4, 12), max_size=60))


@settings(max_examples=200, deadline=None, database=None)
@given(LABELS)
def test_group_rows_is_the_dict_rule(labels):
    # strings sort as text, numeric strings ("2" before "10") and ints by
    # value; rows keep their order within a label
    names, rows, ends = st.group_rows(labels)
    assert (names, rows.tolist(), ends.tolist()) == \
        _group_rows_by_dict(labels)


def test_marginal_decomposition_demo():
    for sign in (+1, -1):
        gs = st.grouped_slopes_demo(sign)
        d = st.marginal_decomposition(gs)
        assert d["r_within"] == pytest.approx(sign * 0.87, abs=0.02)
        assert d["r_between"] == pytest.approx(0.95, abs=0.03)
        lo = min(d["beta_within"], d["beta_between"]) - 1e-9
        hi = max(d["beta_within"], d["beta_between"]) + 1e-9
        assert lo <= d["beta_marginal"] <= hi


def test_marginal_decomposition_limits():
    rng = np.random.default_rng(12)
    base = rng.standard_normal((30, 2))
    base -= base.mean(axis=0)
    cov = np.array([[2.0, 1.0], [1.0, 2.0]])
    shaped = st.exact_cov_sample(rng, 30, (0.0, 0.0), cov)
    equal_means = grouped({
        "a": shaped, "b": st.exact_cov_sample(rng, 30, (0.0, 0.0), cov)})
    d = st.marginal_decomposition(equal_means)
    assert d["beta_marginal"] == pytest.approx(d["beta_within"], abs=1e-9)


def test_marginal_between_within_interval_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        g = int(rng.integers(2, 6))
        groups = {}
        for i in range(g):
            n_i = int(rng.integers(3, 12))
            center = rng.uniform(-5, 5, 2)
            data = center + rng.standard_normal((n_i, 2)) * \
                rng.uniform(0.5, 2.0, 2)
            groups[f"g{i}"] = data
        gs = grouped(groups)
        try:
            d = st.marginal_decomposition(gs)
        except ValueError:
            continue
        lo = min(d["beta_within"], d["beta_between"]) - 1e-9
        hi = max(d["beta_within"], d["beta_between"]) + 1e-9
        assert lo <= d["beta_marginal"] <= hi


def test_data_ellipsoid_affine_equivariance():
    rng = np.random.default_rng(13)
    data = rng.standard_normal((50, 2)) @ np.array([[1.0, 0.4],
                                                    [0.0, 0.8]])
    a_mat = np.array([[2.0, 0.5], [-0.3, 1.2]])
    b_vec = np.array([3.0, -1.0])
    c = st.coverage_radius(0.68, 2)
    direct = st.data_ellipsoid(st.Sample(data @ a_mat.T + b_vec), c)
    mapped = ge.linear_image(st.data_ellipsoid(st.Sample(data), c), a_mat)
    assert direct.radii == pytest.approx(mapped.radii, rel=1e-9)
    assert direct.center == pytest.approx(mapped.center + b_vec, rel=1e-9)


def test_exact_cov_sample_moments():
    rng = np.random.default_rng(14)
    cov = np.array([[6.0, 3.0], [3.0, 2.0]])
    data = st.exact_cov_sample(rng, 10, (1.0, -2.0), cov)
    s = st.Sample(data)
    mean, got = st.mean_cov(s)
    assert mean == pytest.approx([1.0, -2.0], abs=1e-10)
    assert got == pytest.approx(cov, rel=1e-10)


@settings(max_examples=60, deadline=None, database=None)
@given(strategies.pd_matrices(), hs.integers(6, 60),
       hs.sampled_from([0.4, 0.68, 0.95, 0.99]), strategies.seeds)
def test_data_ellipse_shadows_are_mean_plus_minus_c_sd(pd, n, level, seed):
    # the coordinate shadows of the level data ellipsoid are mean +- c sd,
    # c^2 the chi-square quantile of the level, for covariances of any
    # scale and condition number up to 1e8
    w, _, _ = pd
    p = w.shape[0]
    rng = np.random.default_rng(seed)
    sample = st.Sample(rng.standard_normal((n, p)) @ np.linalg.cholesky(w).T
                       + rng.standard_normal(p) * np.sqrt(w.trace()))
    c = st.coverage_radius(level, p)
    assert dist.chi2_cdf(c * c, p) == pytest.approx(level, rel=1e-13)
    ell = st.data_ellipsoid(sample, c)
    mean, cov = st.mean_cov(sample)
    sd = np.sqrt(np.diag(cov))
    for j in range(p):
        lo, hi = st.univariate_shadow(ell, np.eye(p)[j])
        assert abs(lo - (mean[j] - c * sd[j])) <= 1e-9 * c * sd.max()
        assert abs(hi - (mean[j] + c * sd[j])) <= 1e-9 * c * sd.max()
