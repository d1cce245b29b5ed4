# Quantiles and tail probabilities of chi-square, F and t from the
# regularized incomplete gamma/beta functions of scipy.special and their
# inverses. No quantile tables, no dependence on scipy.stats
# distribution objects.
#
# scipy.special is imported inside the functions that call it, so that
# `import ellipstat` does not load it: its import costs more than the
# rest of the package's, and most subcommands never compute a quantile.
# The first quantile or tail probability in a process pays it once.

from .numkernel import InputError


def chi2_quantile(level, df):
    """x with P(chi2_df <= x) = level."""
    from scipy import special
    if not 0.0 < level < 1.0:
        raise InputError("level must be in (0, 1)")
    return 2.0 * float(special.gammaincinv(df / 2.0, level))


def f_quantile(level, d1, d2):
    """x with P(F_{d1,d2} <= x) = level."""
    from scipy import special
    if not 0.0 < level < 1.0:
        raise InputError("level must be in (0, 1)")
    if d1 <= 0 or d2 <= 0:
        raise InputError("degrees of freedom must be positive")
    return float(special.fdtri(d1, d2, level))


def t_quantile(level, df):
    """x with P(t_df <= x) = level."""
    from scipy import special
    if not 0.0 < level < 1.0:
        raise InputError("level must be in (0, 1)")
    return float(special.stdtrit(df, level))


def f_sf(x, d1, d2):
    """Upper tail P(F_{d1,d2} > x)."""
    from scipy import special
    if x <= 0:
        return 1.0
    z = d2 / (d1 * x + d2)
    return float(special.betainc(d2 / 2.0, d1 / 2.0, z))

