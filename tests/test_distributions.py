import mpmath
import numpy as np
import pytest
import scipy.stats
from scipy import special

from ellipstat import distributions as dist
from ellipstat.numkernel import InputError


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


def test_level_and_df_errors_keep_their_contract():
    for quantile, args in ((dist.chi2_quantile, (2,)), (dist.t_quantile, (9,)),
                           (dist.f_quantile, (2, 9))):
        for level in (0.0, 1.0, -0.5, 1.5, float("nan")):
            with pytest.raises(InputError, match="level must be in"):
                quantile(level, *args)
    for d1, d2 in ((0, 9), (2, 0), (-1, 9)):
        with pytest.raises(InputError, match="degrees of freedom"):
            dist.f_quantile(0.95, d1, d2)


def test_f_sf_edges():
    assert dist.f_sf(0.0, 3, 11) == dist.f_sf(-2.0, 3, 11) == 1.0
    assert dist.f_sf(float("inf"), 3, 11) == 0.0
    assert np.isnan(dist.f_sf(1.0, -3, 11))


@pytest.mark.parametrize("name, args", [("chi2", (3,)), ("f", (4, 17)),
                                        ("t", (9,))])
def test_inversions_evaluate_the_public_cdfs(monkeypatch, name, args):
    # every cdf evaluation of an inversion goes through the module's
    # public cdf, looked up at call time, so a tracer that wraps it counts
    # it; the quantile's cdf is its level at both ends
    calls = []
    cdf = getattr(dist, f"{name}_cdf")

    def counting(*a, **k):
        calls.append(a)
        return cdf(*a, **k)
    monkeypatch.setattr(dist, f"{name}_cdf", counting)
    for level in (0.3, 0.975):
        q = getattr(dist, f"{name}_quantile")(level, *args)
        assert cdf(q, *args) == pytest.approx(level, rel=1e-14)
        assert cdf(q, *args, upper=True) == pytest.approx(1.0 - level,
                                                          rel=1e-13)
    assert len(calls) >= 2


# ------------------------------------------------ 50-digit mpmath oracle
# The grid covers what the CLI reaches: chi-square with up to 20 degrees
# of freedom, F with the model and hypothesis dfs of small designs up to
# the 20k-row inputs and Rao's non-integer df2, and t alike. The gate at
# each point is the looser of 1e-14 and the error of the scipy.special
# function the package used before, so the module is nowhere less accurate
# than the code it replaced.

LEVELS = (0.4, 0.5, 0.68, 0.9, 0.95, 0.975, 0.99, 0.999)
F_D1 = (1, 2, 3, 4, 8, 16, 50)
F_D2 = (1, 2, 5, 9, 17, 100, 145, 1000, 19995, 79980, 1e5, 61077.2)
T_DF = (1, 2, 3, 5, 9, 17, 100, 1000, 19995, 1e5)
# Every (x, d1, d2) at which the benchmark's operations evaluate f_sf:
# tails of 1e-52 to 1e-172 and eight that underflow to 0.0; then two of
# scipy's misses.
F_SF_POINTS = [
    (53.46648878461341, 8, 290), (199.1453435400851, 8, 288),
    (580.5320993061074, 8, 286), (1166.9574334375789, 4, 145),
    (677.482773697791, 16, 79980), (791.9526425679435, 16, 79980),
    (834.0669733501013, 16, 61077.2064885297),
    (980.7953968628103, 16, 79962),
    (1072.6819029796718, 16, 61077.2064885297),
    (1369.746350012581, 16, 79962), (3626.708475346417, 4, 19995),
    (5319.092980075825, 4, 19995),
    (1.2, 8, 79980), (0.5, 16, 61077.2),
]


def _mp(v):
    return mpmath.mpf(v)


def _chi2_law(q, df):
    a, x = _mp(df) / 2, q / 2
    return (mpmath.gammainc(a, 0, x, regularized=True),
            x ** (a - 1) * mpmath.exp(-x) / mpmath.gamma(a) / 2)


def _beta_law(x, a, b):
    return (mpmath.betainc(a, b, 0, x, regularized=True),
            x ** a * (1 - x) ** b / mpmath.beta(a, b))


def _f_law(q, d1, d2):
    d1, d2 = _mp(d1), _mp(d2)
    cdf, dens = _beta_law(d1 * q / (d1 * q + d2), d1 / 2, d2 / 2)
    return cdf, dens / q


def _t_law(q, df):
    df = _mp(df)
    tail, dens = _beta_law(df / (df + q * q), df / 2, _mp(0.5))
    return (1 - tail / 2 if q > 0 else tail / 2), dens / abs(q)


def _rel(v, ref):
    return float(abs((_mp(v) - ref) / ref)) if ref else float(v != 0)


def _misses(law, level, points, ours, theirs):
    """(point, our error, gate) where our quantile misses its gate."""
    out = []
    with mpmath.workdps(50):
        for df in points:
            df = df if isinstance(df, tuple) else (df,)
            q = ours(level, *df)
            root = _mp(q)
            for _ in range(3):          # Newton from a 1e-14 start
                cdf, dens = law(root, *df)
                root -= (cdf - _mp(level)) / dens
            gate = max(1e-14, _rel(theirs(level, *df), root))
            if _rel(q, root) > gate:
                out.append((df, _rel(q, root), gate))
    return out


@pytest.mark.parametrize("level", LEVELS)
def test_chi2_quantile_matches_mpmath(level):
    assert _misses(_chi2_law, level, range(1, 21), dist.chi2_quantile,
                   lambda lv, df: 2 * special.gammaincinv(df / 2, lv)) == []


@pytest.mark.parametrize("level", LEVELS)
def test_f_quantile_matches_mpmath(level):
    grid = [(d1, d2) for d1 in F_D1 for d2 in F_D2]
    assert _misses(_f_law, level, grid, dist.f_quantile,
                   lambda lv, d1, d2: special.fdtri(d1, d2, lv)) == []


@pytest.mark.parametrize("level", [lv for lv in LEVELS if lv != 0.5])
def test_t_quantile_matches_mpmath(level):
    assert _misses(_t_law, level, T_DF, dist.t_quantile,
                   lambda lv, df: special.stdtrit(df, lv)) == []
    assert all(dist.t_quantile(0.5, df) == 0.0 for df in T_DF)


@pytest.mark.parametrize("x, d1, d2", F_SF_POINTS)
def test_f_sf_matches_mpmath(x, d1, d2):
    with mpmath.workdps(50):
        ref = mpmath.betainc(_mp(d2) / 2, _mp(d1) / 2, 0,
                             _mp(d2) / (_mp(d1) * _mp(x) + _mp(d2)),
                             regularized=True)
        ours = dist.f_sf(x, d1, d2)
        if float(ref) == 0.0:
            assert ours == 0.0
            return
        scipy_sf = special.betainc(d2 / 2, d1 / 2, d2 / (d1 * x + d2))
        assert _rel(ours, ref) <= max(1e-14, _rel(scipy_sf, ref))
