"""Hypothesis strategies shared by the property tests, and the boundary
sampler that tests of ellipsoid images and tangent planes check against.

Each strategy draws a seed and the sizes, then builds the arrays with a
seeded numpy generator, so a failing example shrinks to small sizes and
replays from its seed.
"""

import numpy as np
from hypothesis import strategies as hs

from ellipstat import gellipsoid as ge
from ellipstat import kissing as ki
from ellipstat import numkernel as nk
from ellipstat import statellipse as st

seeds = hs.integers(0, 2 ** 32 - 1)


def orthogonal(rng, p):
    """A Haar-random p x p orthogonal matrix."""
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


@hs.composite
def pd_matrices(draw, p=hs.integers(1, 4), log_cond=hs.floats(0.0, 8.0),
                log_scale=hs.floats(-100.0, 100.0)):
    """(w, cond, scale): a p x p positive-definite matrix in a random frame
    whose eigenvalues fall geometrically from scale to scale / cond."""
    p = draw(p)
    cond, scale = 10.0 ** draw(log_cond), 10.0 ** draw(log_scale)
    rng = np.random.default_rng(draw(seeds))
    frame = orthogonal(rng, p)
    lam = scale * np.logspace(0.0, -np.log10(cond), p)
    w = (frame * lam) @ frame.T
    return 0.5 * (w + w.T), cond, scale


@hs.composite
def psd_matrices(draw, p=hs.integers(1, 4), log_cond=hs.floats(0.0, 8.0),
                 log_scale=hs.floats(-100.0, 100.0)):
    """(w, rank): a p x p positive-semidefinite matrix of any rank 0..p in a
    random frame, whose nonzero eigenvalues fall geometrically from scale
    to scale / cond; the null eigenvalues are exact zeros before the frame
    turns them into roundoff."""
    p = draw(p)
    rank = draw(hs.integers(0, p))
    cond, scale = 10.0 ** draw(log_cond), 10.0 ** draw(log_scale)
    rng = np.random.default_rng(draw(seeds))
    frame = orthogonal(rng, p)
    lam = np.zeros(p)
    lam[:rank] = scale * np.logspace(0.0, -np.log10(cond), rank)
    w = (frame * lam) @ frame.T
    return 0.5 * (w + w.T), rank


@hs.composite
def ellipsoids(draw, p=hs.integers(1, 4)):
    """A generalized ellipsoid of any signature: infinite, positive and zero
    radii in a random orthonormal or coordinate-permutation frame."""
    p = draw(p)
    n_inf = draw(hs.integers(0, p))
    n_zero = draw(hs.integers(0, p - n_inf))
    rng = np.random.default_rng(draw(seeds))
    frame = (np.eye(p)[rng.permutation(p)] if draw(hs.booleans())
             else orthogonal(rng, p))
    radii = np.zeros(p)
    radii[:n_inf] = np.inf
    n_pos = p - n_inf - n_zero
    radii[n_inf:n_inf + n_pos] = np.sort(10.0 ** rng.uniform(-1, 1, n_pos))[::-1]
    return ge.GEllipsoid(rng.standard_normal(p), frame, radii)


@hs.composite
def linear_maps(draw, p, m=hs.integers(1, 4)):
    """An m x p map: dense, of deficient rank, or a coordinate selection."""
    m = draw(m)
    rng = np.random.default_rng(draw(seeds))
    kind = draw(hs.sampled_from(["dense", "low_rank", "select"]))
    if kind == "dense":
        return rng.standard_normal((m, p))
    if kind == "low_rank":
        r = draw(hs.integers(0, min(m, p)))
        return rng.standard_normal((m, r)) @ rng.standard_normal((r, p))
    return np.eye(p)[rng.integers(0, p, m)] * rng.integers(0, 2, (m, 1))


@hs.composite
def projections(draw, p):
    """A p x p symmetric idempotent: a coordinate projection, or the
    orthogonal projection onto a random subspace."""
    rng = np.random.default_rng(draw(seeds))
    if draw(hs.booleans()):
        return np.diag(rng.integers(0, 2, p).astype(float))
    q = orthogonal(rng, p)[:, :draw(hs.integers(0, p))]
    return q @ q.T


@hs.composite
def regression_designs(draw, n=hs.integers(6, 40), q=hs.integers(2, 4),
                       log_scale=hs.floats(-6.0, 6.0)):
    """(x, y): n rows of q - 1 predictors (the fit adds the intercept) on
    scales up to 1e6 apart, and a response with normal noise."""
    n, q, s = draw(n), draw(q), abs(draw(log_scale))
    rng = np.random.default_rng(draw(seeds))
    x = rng.standard_normal((n, q - 1)) * 10.0 ** rng.uniform(-s, s, q - 1)
    y = x @ rng.standard_normal(q - 1) + rng.standard_normal(n)
    return x, y


@hs.composite
def study_stacks(draw, k=hs.integers(1, 12), p=hs.integers(1, 3),
                 log_cond=hs.floats(0.0, 6.0),
                 log_scale=hs.floats(-100.0, 100.0),
                 design=hs.sampled_from(["identity", "square", "tall"])):
    """A kissing.StudyStack of k studies of p outcomes. Each S_i lies in
    its own random frame, with eigenvalues falling geometrically from
    scale to scale / cond; the effects are of the S_i's root scale. The
    designs are the identity, random square p x p, or random p x q with
    q <= p."""
    k, p = draw(k), draw(p)
    cond, scale = 10.0 ** draw(log_cond), 10.0 ** draw(log_scale)
    design = draw(design)
    rng = np.random.default_rng(draw(seeds))
    lam = scale * np.logspace(0.0, -np.log10(cond), p)
    s_mats = np.array([(f * lam) @ f.T for f in
                       (orthogonal(rng, p) for _ in range(k))])
    y = np.sqrt(scale) * rng.standard_normal((k, p))
    q = p if design == "square" else int(rng.integers(1, p + 1))
    x = None if design == "identity" else rng.standard_normal((k, p, q))
    return ki.StudyStack(y, 0.5 * (s_mats + s_mats.swapaxes(1, 2)), x,
                         [f"s{i}" for i in range(k)])


@hs.composite
def grouped_samples(draw, g=hs.integers(2, 5), p=hs.integers(1, 4),
                    log_scale=hs.floats(-100.0, 100.0),
                    log_effect=hs.floats(-2.0, 1.0), balanced=False):
    """A statellipse.GroupedSample of g groups of p columns, built from rows
    interleaved at random. The group sizes are at least 2, equal when
    balanced and drawn apart otherwise; the within-group spread is of scale
    10^log_scale in a random frame, and the group means lie about
    10^log_effect spreads apart."""
    g, p = draw(g), draw(p)
    scale, effect = 10.0 ** draw(log_scale), 10.0 ** draw(log_effect)
    rng = np.random.default_rng(draw(seeds))
    sizes = (np.full(g, rng.integers(2, 13)) if balanced
             else rng.integers(2, 13, g))
    groups = rng.permutation(np.repeat(np.arange(g), sizes))
    spread = orthogonal(rng, p) * 10.0 ** rng.uniform(-1.0, 1.0, p)
    means = effect * rng.standard_normal((g, p))
    data = scale * (rng.standard_normal((groups.size, p)) @ spread.T
                    + means[groups])
    labels = [f"g{k}" for k in rng.permutation(g)]
    return st.GroupedSample(data, [labels[k] for k in groups])


@hs.composite
def clustered_data(draw, k=hs.integers(2, 10),
                   log_scale=hs.floats(-100.0, 100.0)):
    """(x, y, groups): k clusters of rows (1, x) and responses
    10^log_scale (b_i0 + b_i1 x + e), each cluster with its own intercept
    and slope, the rows interleaved at random and labelled by text or by
    numbers written as text. Fewer than half of the clusters have one row
    and the others 3 to 12, so at least two have full-rank designs and
    n > 2k leaves residual degrees of freedom for sigma^2."""
    k = draw(k)
    n_single = draw(hs.integers(0, (k - 1) // 2))
    scale = 10.0 ** draw(log_scale)
    numbered = draw(hs.booleans())
    rng = np.random.default_rng(draw(seeds))
    sizes = rng.integers(3, 13, k)
    sizes[:n_single] = 1
    codes = rng.permutation(np.repeat(np.arange(k), sizes))
    x = rng.normal(0.0, 3.0) + rng.uniform(0.3, 3.0) * rng.standard_normal(
        codes.size)
    b = [10.0, 1.0] + rng.standard_normal((k, 2)) * [2.0, 1.0]
    y = scale * (b[codes, 0] + b[codes, 1] * x
                 + rng.standard_normal(codes.size))
    labels = [str(i + 1) if numbered else f"c{i}" for i in rng.permutation(k)]
    return (np.column_stack([np.ones(codes.size), x]), y,
            [labels[c] for c in codes])


def boundary_points(e, n=256, seed=0):
    """Deterministic boundary sample of a bounded ellipsoid, the sampler
    that the tests of the image law (boundary points map onto the image's
    boundary) and of tangent planes check against.

    2D uses equally spaced angles; higher dimensions use a Fibonacci-style
    lattice mapped through the frame.
    """
    if np.any(np.isinf(e.radii)):
        raise nk.InputError("boundary sampling requires a bounded ellipsoid")
    p = e.dim
    if p == 1:
        sphere = np.array([[1.0], [-1.0]])
    elif p == 2:
        theta = 2 * np.pi * np.arange(n) / n
        sphere = np.column_stack([np.cos(theta), np.sin(theta)])
    elif p == 3:
        i = np.arange(n) + 0.5
        phi = np.arccos(1 - 2 * i / n)
        golden = np.pi * (1 + 5 ** 0.5)
        theta = golden * i
        sphere = np.column_stack([np.cos(theta) * np.sin(phi),
                                  np.sin(theta) * np.sin(phi),
                                  np.cos(phi)])
    else:
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, p))
        sphere = z / np.linalg.norm(z, axis=1, keepdims=True)
    return e.center + sphere * e.radii @ e.frame.T
