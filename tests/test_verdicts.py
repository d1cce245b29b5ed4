"""Numerical verdicts: each is decided by one named rule.

Static checks pin where the bounds live: no small float constant sits
inline in the program, the negligible-eigenvalue and rank bounds are read
inside numkernel only, and two functions alone take a tolerance. A
property checks that each numkernel verdict keeps its answer when its
input changes units.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

import ellipstat
from ellipstat import numkernel as nk

PACKAGE = pathlib.Path(ellipstat.__file__).parent
# distributions keeps its series and root-finding constants where they
# are used: they are the accuracy of special functions, not verdicts
RULED = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "distributions")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _small_inline_floats(tree):
    """(line, value) of each float constant 0 < |v| <= 1e-6 in a module
    that is not the whole value of a module-level assignment."""
    named = {id(node.value) for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and 0 < abs(node.value) <= 1e-6 and id(node) not in named):
            yield node.lineno, node.value


@pytest.mark.parametrize("path", RULED, ids=lambda p: p.name)
def test_no_inline_tolerance(path):
    # a bound is a named module constant, read by the rule that applies it
    found = list(_small_inline_floats(_tree(path)))
    assert not found, f"{path.name}: inline constants {found}"


def _names_read(tree):
    """{name: enclosing function names} for every Name and Attribute read
    in a module ('' at module level)."""
    reads = {}

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            func = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.id, set()).add(func)
        elif isinstance(node, ast.Attribute):
            reads.setdefault(node.attr, set()).add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "")
    return reads


def test_eigenvalue_and_rank_bounds_are_read_by_their_rules():
    # one function per verdict: every site calls negligible_eig or
    # rank_drops, so no other module reads the bounds themselves
    for path in RULED:
        reads = _names_read(_tree(path))
        if path.stem == "numkernel":
            assert reads["NEGLIGIBLE_EIG"] == {"negligible_eig"}
            # require_full_rank's fast path skips the unit-column SVD
            # only where van der Sluis guarantees the verdict
            assert reads["RANK_TOL"] == {"rank_drops", "require_full_rank"}
        else:
            assert not {"NEGLIGIBLE_EIG", "RANK_TOL"} & set(reads), path.name


def test_only_the_point_tests_take_a_tolerance():
    takers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.FunctionDef):
                params = node.args.args + node.args.kwonlyargs
                if any("tol" in a.arg for a in params):
                    takers.add(f"{path.stem}.{node.name}")
    assert takers == {"gellipsoid.scaled_sq_distance", "gellipsoid.contains"}


# ------------------------------------------------ verdicts in any units
# Each case draws an input at a magnitude 10^L and the ratio that its
# verdict tests against the bound, half a decade to four decades to either
# side of it: within that half decade the rounding of a scaled input may
# decide. It returns the input, the verdict of the side it was drawn on,
# and the ratio. The input's verdict must be that one, and stay so when
# the input is scaled by each s that keeps its largest entry and that
# times the ratio in [TINY, 1 / TINY].

SCALES = (1e-100, 1e-30, 1e30, 1e100)
magnitudes = hs.floats(-280.0, 280.0)


def _off(bound, draw):
    """(ratio, below): a ratio drawn on one side of bound."""
    below = draw(hs.booleans())
    step = draw(hs.floats(0.5, 4.0))
    return bound * 10.0 ** (-step if below else step), below


def _spectrum_matrix(rng, lam):
    q, _ = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))
    w = (q * lam) @ q.T
    return 0.5 * (w + w.T)


def _raises(error, fn, *args):
    try:
        fn(*args)
    except error:
        return True
    return False


@hs.composite
def negligible_eig_case(draw):
    top = 10.0 ** draw(magnitudes)
    ratio, below = _off(nk.NEGLIGIBLE_EIG, draw)
    return (np.float64(ratio * top), np.float64(top)), below, ratio


@hs.composite
def rank_drops_case(draw):
    top = 10.0 ** draw(magnitudes)
    ratio, below = _off(nk.RANK_TOL, draw)
    sv = top * np.array([1.0, 0.5, ratio])
    return (sv,), (False, False, below), ratio


@hs.composite
def require_pd_case(draw):
    p = draw(hs.integers(2, 4))
    ratio, below = _off(nk.NEGLIGIBLE_EIG, draw)
    lam = np.append(np.logspace(0.0, -4.0, p - 1), ratio)
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    return (10.0 ** draw(magnitudes) * _spectrum_matrix(rng, lam),), \
        below, ratio


@hs.composite
def psd_eigvals_case(draw):
    p = draw(hs.integers(2, 4))
    ratio, below = _off(nk.PSD_CLIP, draw)
    lam = np.append(np.logspace(0.0, -4.0, p - 1), -ratio)
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    # indefinite when the negative eigenvalue is not within the clip
    return (10.0 ** draw(magnitudes) * _spectrum_matrix(rng, lam),), \
        not below, ratio


@hs.composite
def check_symmetric_case(draw):
    p = draw(hs.integers(2, 4))
    ratio, below = _off(nk.SYM_TOL, draw)
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    w = rng.standard_normal((p, p))
    w = w + w.T
    w[0, -1] += ratio * np.abs(w).max()
    return (10.0 ** draw(magnitudes) * w,), not below, ratio


@hs.composite
def require_full_rank_case(draw):
    # columns in units 10^-3 to 10^3 apart; the last is the first plus a
    # step t off its span, and the verdict is the unit-column ratio's
    n, q = draw(hs.integers(3, 8)), draw(hs.integers(2, 3))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((n, q))
    t, _ = _off(nk.RANK_TOL, draw)
    x[:, -1] = x[:, 0] + t * rng.standard_normal(n)
    unit = np.linalg.svd(x / np.linalg.norm(x, axis=0), compute_uv=False)
    ratio = unit[-1] / unit[0]
    assume(abs(np.log10(ratio / nk.RANK_TOL)) >= 0.5)
    x = x * 10.0 ** rng.uniform(-3.0, 3.0, q)
    return (10.0 ** draw(magnitudes) * x,), ratio < nk.RANK_TOL, ratio


VERDICTS = {
    "negligible_eig": (negligible_eig_case,
                       lambda lam, top: bool(nk.negligible_eig(lam, top))),
    "rank_drops": (rank_drops_case,
                   lambda sv: tuple(nk.rank_drops(sv).tolist())),
    "require_pd": (require_pd_case, lambda w: _raises(
        nk.NotPositiveDefiniteError, nk.require_pd, w)),
    "psd_eigvals": (psd_eigvals_case, lambda w: _raises(
        nk.IndefiniteError, nk.psd_eigvals, w)),
    "check_symmetric": (check_symmetric_case, lambda w: _raises(
        nk.NotSymmetricError, nk.check_symmetric, w)),
    "require_full_rank": (require_full_rank_case, lambda x: _raises(
        ValueError, nk.require_full_rank, x)),
}


def _in_range(args, ratio, s=1.0):
    top = s * max(float(np.abs(a).max()) for a in args)
    return nk.TINY <= ratio * top and top <= 1.0 / nk.TINY


@pytest.mark.parametrize("name", sorted(VERDICTS))
@settings(max_examples=40, deadline=None, database=None)
@given(data=hs.data())
def test_verdict_is_the_same_in_any_units(name, data):
    case, verdict = VERDICTS[name]
    args, expected, ratio = data.draw(case())
    assume(_in_range(args, ratio))
    assert verdict(*args) == expected
    for s in SCALES:
        if _in_range(args, ratio, s):
            assert verdict(*[s * a for a in args]) == expected, s
