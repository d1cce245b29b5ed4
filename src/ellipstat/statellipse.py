# Data ellipsoids and group-structured covariance summaries: sample
# moments, Mahalanobis distance, coverage radii, pooled within/between
# decompositions and the within/between/marginal slope triad.

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import distributions as dist
from . import gellipsoid as ge
from . import numkernel as nk

UNIT_TOL = 1e-8     # absolute tolerance of np.isclose on a unit norm
# a frame component at or below this (of a unit direction) is no part of
# the direction along an infinite radius
INF_COMPONENT_TOL = 1e-12


@dataclass(frozen=True)
class Sample:
    data: np.ndarray            # n x p
    names: tuple = ()

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if not np.all(np.isfinite(data)):
            raise ValueError("sample has non-finite entries")
        if data.shape[0] < 2:
            raise nk.InputError("a sample needs at least two rows")
        names = tuple(self.names) if self.names else tuple(
            f"x{i + 1}" for i in range(data.shape[1]))
        if len(names) != data.shape[1]:
            raise nk.InputError("names length does not match columns")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "names", names)

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def p(self):
        return self.data.shape[1]


def group_rows(labels):
    """The grouping rule for one label per row: the distinct labels in
    sorted order, the row indices ordered by label (input order within a
    label), and where each label's rows end. Labels that are all finite
    numbers, or their text, sort by value, so "2" comes before "10"."""
    distinct = dict.fromkeys(labels)
    try:
        value = {lab: float(lab) for lab in distinct}
        numeric = all(map(math.isfinite, value.values()))
    except (TypeError, ValueError):
        numeric = False
    names = (sorted(distinct, key=lambda lab: (value[lab], lab)) if numeric
             else sorted(distinct))
    code = dict(zip(names, range(len(names))))
    codes = np.fromiter(map(code.__getitem__, labels), np.intp, len(labels))
    return (names, np.argsort(codes, kind="stable"),
            np.cumsum(np.bincount(codes, minlength=len(names))))


@dataclass(frozen=True)
class GroupedSample:
    """A sample whose rows carry group labels, held as one matrix.

    Construction sorts the rows of data by their labels in groups
    (group_rows), which are not kept. labels are then the distinct labels
    in that order and ends[k] is where the rows of group labels[k] end.
    Every group needs at least two rows.
    """
    data: np.ndarray            # n x p
    groups: InitVar[tuple]      # one label per row
    names: tuple = ()
    labels: tuple = field(init=False)
    ends: np.ndarray = field(init=False)

    def __post_init__(self, groups):
        if len(groups) != len(self.data):
            raise nk.InputError("need one group label per row")
        labels, rows, ends = group_rows(groups)
        counts = np.diff(ends, prepend=0).tolist()
        for lab, n_i in zip(labels, counts):
            if n_i < 2:
                raise nk.InputError(f"group {str(lab)!r} has 1 row; "
                                    "a group needs at least two")
        whole = Sample(self.data, self.names)
        for name, value in (("data", whole.data[rows]),
                            ("names", whole.names), ("labels", tuple(labels)),
                            ("ends", ends)):
            object.__setattr__(self, name, value)

    @property
    def g(self):
        return len(self.labels)

    @property
    def p(self):
        return self.data.shape[1]

    @property
    def total_n(self):
        return self.data.shape[0]

    @property
    def counts(self):
        return np.diff(self.ends, prepend=0)

    def split(self, rows=None):
        """The rows of data, or of an array row-aligned with it, cut into
        the groups: slices, in label order."""
        rows = self.data if rows is None else rows
        return [rows[a:b] for a, b in zip(self.ends - self.counts, self.ends)]


@dataclass(frozen=True)
class CoverageSpec:
    kind: str       # 'chisq' | 'stddev_multiple'
    value: float    # coverage level for 'chisq', else the multiple

    def __post_init__(self):
        if self.kind == "chisq":
            if not 0.0 < self.value < 1.0:
                raise nk.InputError("coverage level must be in (0, 1)")
        elif self.kind == "stddev_multiple":
            if self.value <= 0:
                raise nk.InputError("multiple must be positive")
        else:
            raise nk.InputError(f"unknown coverage kind {self.kind!r}")

    @classmethod
    def chisq(cls, level):
        return cls("chisq", level)

    @classmethod
    def stddev(cls, multiple=1.0):
        return cls("stddev_multiple", multiple)


def mean_cov(sample):
    """Column means and the n-1 divisor covariance matrix."""
    return _mean_cov(sample.data)


def _mean_cov(y):
    ybar = y.mean(axis=0)
    dev = y - ybar
    s = dev.T @ dev / (y.shape[0] - 1)
    return ybar, 0.5 * (s + s.T)


def correlation(sample):
    return nk.cov_to_corr(mean_cov(sample)[1])


def regression_slopes(s):
    """Slopes (y on x, x on y) of a 2 x 2 covariance of (x, y): s_xy / s_xx
    and s_xy / s_yy, nan where the regressor has no variance."""
    return (s[0, 1] / s[0, 0] if s[0, 0] > 0 else np.nan,
            s[0, 1] / s[1, 1] if s[1, 1] > 0 else np.nan)


def coverage_radius(p, spec):
    """Radius c of the coverage ellipsoid; c^2 is the reference quantile."""
    if spec.kind == "chisq":
        return float(np.sqrt(dist.chi2_quantile(spec.value, p)))
    return float(spec.value)


def data_ellipsoid(sample, spec=CoverageSpec.stddev(1.0)):
    """Data ellipsoid of radius c: the mean +/- c S^{1/2} contour."""
    ybar, s = mean_cov(sample)
    c = coverage_radius(sample.p, spec)
    return ge.from_moment(c * c * s, ybar)


def pairwise_data_ellipsoids(gs, spec):
    """{(j, i): the groups' data ellipses on columns j and i, in group
    order} for every ordered pair of distinct columns."""
    return {(j, i): [data_ellipsoid(Sample(y[:, (j, i)],
                                           (gs.names[j], gs.names[i])), spec)
                     for y in gs.split()]
            for i in range(gs.p) for j in range(gs.p) if i != j}


def univariate_shadow(e, direction):
    """Interval shadow of an ellipsoid on a unit direction.

    Half-width is the norm of diag(radii) U^T d; an unbounded component
    along the direction gives an infinite interval.
    """
    d = np.asarray(direction, dtype=float).ravel()
    nrm = np.linalg.norm(d)
    if not np.isclose(nrm, 1.0, atol=UNIT_TOL):
        raise nk.InputError("direction must be a unit vector")
    comps = e.frame.T @ d
    inf_mask = np.isinf(e.radii)
    if np.any(inf_mask & (np.abs(comps) > INF_COMPONENT_TOL)):
        return (-np.inf, np.inf)
    half = float(np.linalg.norm(e.radii[~inf_mask] * comps[~inf_mask]))
    mid = float(e.center @ d)
    return (mid - half, mid + half)


def pooled_within_cov(gs):
    """(N - g)^{-1} sum over groups of (n_i - 1) S_i."""
    acc = np.zeros((gs.p, gs.p))
    for y in gs.split():
        acc += (y.shape[0] - 1) * _mean_cov(y)[1]
    return acc / (gs.total_n - gs.g)


def group_means(gs):
    """The labels, the (g, p) group means and the group sizes."""
    return (list(gs.labels), np.array([y.mean(axis=0) for y in gs.split()]),
            gs.counts)


def between_cov(gs):
    """Covariance of the group means: sum n_i (m_i - grand)(m_i - grand)^T
    / (g - 1) with the n-weighted grand mean (the hypothesis SSCP of a
    one-way design over g - 1).
    """
    if gs.g < 2:
        raise nk.InputError("between-group covariance needs g >= 2")
    _, means, ns = group_means(gs)
    grand = (ns[:, None] * means).sum(axis=0) / ns.sum()
    dev = means - grand
    b = (ns[:, None] * dev).T @ dev / (gs.g - 1)
    return 0.5 * (b + b.T)


def _slope_corr(s, ix, iy):
    sxx, syy, sxy = s[ix, ix], s[iy, iy], s[ix, iy]
    if sxx <= 0 or syy <= 0:
        raise ValueError("slope undefined: zero variance")
    return sxy / sxx, nk.cov_to_corr(s)[ix, iy]


def marginal_decomposition(gs, x_index=0, y_index=1):
    """Within, between and marginal slopes/correlations for one (x, y) pair.

    The marginal slope always lies in the closed interval spanned by the
    within and between slopes (the total covariance is their weighted
    average).
    """
    if gs.g < 2:
        raise nk.InputError("decomposition needs g >= 2")
    s_w = pooled_within_cov(gs)
    s_b = between_cov(gs)
    _, s_t = _mean_cov(gs.data)
    b_w, r_w = _slope_corr(s_w, x_index, y_index)
    b_b, r_b = _slope_corr(s_b, x_index, y_index)
    b_m, r_m = _slope_corr(s_t, x_index, y_index)
    return {
        "beta_within": float(b_w), "beta_between": float(b_b),
        "beta_marginal": float(b_m),
        "r_within": float(r_w), "r_between": float(r_b),
        "r_marginal": float(r_m),
    }


def exact_cov_sample(rng, n, mean, cov):
    """Draw n points whose sample mean and n-1 covariance are exact.

    The draw is whitened empirically and recolored with the target
    covariance factor, so the realized second moments match the request.
    """
    p = len(mean)
    if n <= p:
        raise nk.InputError("need n > p for an exact-covariance draw")
    z = rng.standard_normal((n, p))
    z -= z.mean(axis=0)
    sz = z.T @ z / (n - 1)
    _, fz = nk.psd_sqrt(sz)
    white = z @ np.linalg.inv(fz).T
    _, f = nk.psd_sqrt(np.asarray(cov, dtype=float))
    return np.asarray(mean, dtype=float) + white @ f.T


def grouped_slopes_demo(cov_sign=+1, seed=13, n_per_group=10, n_groups=5):
    """Five-group demo with exact within-group moments.

    Group means follow x_i = 2 i + U(-0.4, 0.4), y_i = x_i + N(0, 0.5^2);
    every group has within-group covariance exactly
    [[6, +/-3], [+/-3, 2]] (within correlation +/-0.866). The default seed
    puts the between-means correlation near 0.95.
    """
    rng = np.random.default_rng(seed)
    cov = np.array([[6.0, 3.0 * cov_sign], [3.0 * cov_sign, 2.0]])
    data = np.empty((n_groups, n_per_group, 2))
    for i, block in enumerate(data, start=1):
        mx = 2.0 * i + rng.uniform(-0.4, 0.4)
        my = mx + rng.normal(0.0, 0.5)
        block[:] = exact_cov_sample(rng, n_per_group, (mx, my), cov)
    return GroupedSample(data.reshape(-1, 2),
                         [f"g{i}" for i in range(1, n_groups + 1)
                          for _ in range(n_per_group)], ("x", "y"))
