import numpy as np
import pytest
import scipy.stats

from ellipstat import distributions as dist


# scipy.stats quantiles and cdfs serve as an independent oracle for the
# quantiles and tail probabilities (the package itself only uses
# scipy.special incomplete functions and their inverses).

@pytest.mark.parametrize("level,df", [(0.95, 2), (0.68, 2), (0.40, 2),
                                      (0.99, 1), (0.5, 7), (0.975, 10)])
def test_chi2_quantile_matches_scipy(level, df):
    assert dist.chi2_quantile(level, df) == pytest.approx(
        scipy.stats.chi2.ppf(level, df), rel=1e-10)


@pytest.mark.parametrize("level,d1,d2", [(0.95, 2, 17), (0.95, 4, 145),
                                         (0.68, 2, 147), (0.9, 1, 5),
                                         (0.99, 6, 9)])
def test_f_quantile_matches_scipy(level, d1, d2):
    assert dist.f_quantile(level, d1, d2) == pytest.approx(
        scipy.stats.f.ppf(level, d1, d2), rel=1e-10)


@pytest.mark.parametrize("level,df", [(0.975, 18), (0.975, 100),
                                      (0.995, 5), (0.6, 12), (0.25, 9)])
def test_t_quantile_matches_scipy(level, df):
    assert dist.t_quantile(level, df) == pytest.approx(
        scipy.stats.t.ppf(level, df), rel=1e-10)


def test_published_chi2_constants():
    assert dist.chi2_quantile(0.95, 2) == pytest.approx(5.99, abs=0.01)
    assert dist.chi2_quantile(0.68, 2) == pytest.approx(2.28, abs=0.01)
    assert dist.chi2_quantile(0.40, 2) == pytest.approx(1.0, abs=0.05)


def test_f_sf_complements_cdf():
    for x in (0.5, 1.0, 2.7):
        assert dist.f_sf(x, 3, 11) == pytest.approx(
            1.0 - scipy.stats.f.cdf(x, 3, 11), abs=1e-12)


def test_t_cdf_symmetry():
    assert scipy.stats.t.cdf(1.3, 9) + scipy.stats.t.cdf(-1.3, 9) \
        == pytest.approx(1.0)
    assert dist.t_quantile(0.5, 9) == 0.0


def test_level_bounds_rejected():
    with pytest.raises(ValueError):
        dist.chi2_quantile(1.0, 2)
    with pytest.raises(ValueError):
        dist.f_quantile(0.0, 2, 3)


def test_bivariate_radius_coverages():
    # chi-square_2 coverage of radius c is 1 - exp(-c^2/2)
    for c, cov in ((1.0, 0.40), (1.5, 0.68), (2.45, 0.95)):
        assert 1.0 - np.exp(-c * c / 2.0) == pytest.approx(cov, abs=0.01)
