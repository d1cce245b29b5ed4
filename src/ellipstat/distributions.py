# Quantiles and tail probabilities of chi-square, F and t in plain Python
# on the `math` module. Each quantile sizes an ellipse of the paper: c^2 =
# chi2_p(1 - alpha) for data ellipses, d F_{d,nu}(1 - alpha) or t_nu for
# confidence ellipses, Roy's F for HE plots.
#
# Three shared pieces carry all of it:
# - the regularized incomplete gamma as the pair (P, Q): the series below
#   x = a + 1 and Lentz's continued fraction above (Numerical Recipes,
#   3rd ed., section 6.2);
# - the regularized incomplete beta I_x(a, b) as the pair (I, 1 - I):
#   DiDonato & Morris's continued fraction BFRAC (ACM TOMS 18, 1992,
#   Algorithm 708) on whichever of x and 1 - x lies below its mean
#   (Numerical Recipes section 6.4);
# - one safeguarded Halley inverse that all three quantiles share. It
#   starts from Wilson & Hilferty's cube-root approximation, the start of
#   DiDonato & Morris (ACM TOMS 12, 1986), in its chi-square form, its
#   two-chi-square form for F (Paulson), and the Cornish-Fisher expansion
#   for t (Abramowitz & Stegun 26.7.5).
#
# Both incomplete functions take their argument and its complement as two
# separately computed inputs, so that 1 - x is never formed by
# subtraction: the F and t wrappers form x and 1 - x directly from the
# statistic. Their prefactors x^a y^b / B(a, b) and x^a e^-x / Gamma(a)
# are Stirling-corrected power terms, as in DiDonato & Morris, Temme
# (J. Comput. Appl. Math. 41, 1992) and Boost.Math's ibeta_power_terms,
# with the logarithms taken in double-double arithmetic: a tail of 1e-172
# has an exponent near -400, and a double logarithm would leave it some
# 1e-13 wrong.

import math

from .numkernel import InputError

# ln 2 = _LN2_HI + _LN2_LO to 1e-26; _LN2_HI has 32 trailing zero bits, so
# k * _LN2_HI is exact for any binary exponent k (fdlibm's split).
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SQRT_HALF = math.sqrt(0.5)
_TWO_PI = 2.0 * math.pi
_SPLIT = 134217729.0                                     # 2^27 + 1
_EPS = 3e-16               # convergence of the series and continued fractions
_TINY = 1e-300
_MAX_TERMS = 100000
# Stirling series of ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2) in
# powers of 1/z^2 (B_2k / (2k (2k - 1))); below _STIRLING_MIN the exact
# value comes from math.gamma instead.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156, -3617 / 122400)
_STIRLING_MIN = 10.0


# ---------------------------------------------------- double-double kernel
# A double-double is a pair (hi, lo) whose unevaluated sum carries about
# 32 digits (Dekker, Numer. Math. 18, 1971).

def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _div(nh, nl, dh, dl):
    """(nh + nl) / (dh + dl) as a double-double."""
    q = nh / dh
    p, e = _two_prod(q, dh)
    return q, ((nh - p) - e + nl - q * dl) / dh


def _log(h, l):
    """ln(h + l) for h > 0 and |l| <~ ulp(h), to about 1e-18 relative."""
    m, k = math.frexp(h)
    if m < _SQRT_HALF:
        m, k = m + m, k - 1      # h + l = (m + l') 2^k, 1/sqrt 2 <= m < sqrt 2
    l = math.ldexp(l, -k)
    # ln m = 2 atanh(u), u = (m - 1) / (m + 1), |u| < 0.172; m - 1 and
    # m - (fl(m + 1) - 1) are exact
    n = m - 1.0
    nh = n + l
    d = m + 1.0
    u, ul = _div(nh, (n - nh) + l, d, m - (d - 1.0) + l)
    u2 = u * u
    odd = (1 / 3 + u2 * (1 / 5 + u2 * (1 / 7 + u2 * (1 / 9 + u2 * (
        1 / 11 + u2 * (1 / 13 + u2 * (1 / 15 + u2 * (1 / 17 + u2 * (
            1 / 19 + u2 * (1 / 21 + u2 * (1 / 23 + u2 / 25)))))))))))
    u += u
    tail = u * u2 * odd
    v = u + tail                     # |tail| < |u| / 100
    kh = k * _LN2_HI
    hi = kh + v
    t = hi - kh
    return hi, ((kh - (hi - t)) + (v - t) + ((u - v) + tail) + 2.0 * ul
                + k * _LN2_LO)


def _log_ratio(x, c, a):
    """ln(x c / a) for double-doubles x and c and a double a."""
    p, e = _two_prod(x[0], c[0])
    return _log(*_div(p, e + x[0] * c[1] + x[1] * c[0], a, 0.0))


def _exp_sum(a, la, b, lb):
    """exp(a la + b lb) for doubles a, b and double-doubles la, lb."""
    p, e = _two_prod(a, la[0])
    q, f = _two_prod(b, lb[0])
    s = p + q
    t = s - p
    return math.exp(s) * (1.0 + (p - (s - t)) + (q - t) + e + f
                          + a * la[1] + b * lb[1])


def _stirling(z):
    """Gamma(z) / (sqrt(2 pi) z^(z - 1/2) e^-z): Stirling's correction."""
    if z < _STIRLING_MIN:
        return math.gamma(z) * math.exp(z) / (math.sqrt(_TWO_PI)
                                              * z ** (z - 0.5))
    w = 1.0 / (z * z)
    s = 0.0
    for c in reversed(_STIRLING):
        s = c + w * s
    return math.exp(s / z)


# ------------------------------------------------------ incomplete gamma

def _gamma_scale(a):
    """a^a e^-a / Gamma(a) = sqrt(a / 2 pi) / S(a)."""
    return math.sqrt(a / _TWO_PI) / _stirling(a)


def _gamma_power(a, x):
    """(x/a)^a e^(a - x), the prefix over _gamma_scale(a), in plain double:
    enough for the derivative in a Newton step, not for a probability."""
    return math.exp(a * math.log(x / a) + a - x) if x > 0.0 else 0.0


def _gamma_prefix(a, x):
    """x^a e^-x / Gamma(a) = exp(a ln(x/a) + (a - x)) a^a e^-a / Gamma(a)."""
    return (_exp_sum(a, _log_ratio((x, 0.0), (1.0, 0.0), a),
                     1.0, _two_sum(a, -x)) * _gamma_scale(a))


def _gamma(a, x):
    """(P(a, x), Q(a, x)), the regularized incomplete gamma pair."""
    if not 0.0 < a < math.inf or x != x:
        return math.nan, math.nan
    if x <= 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    prefix = _gamma_prefix(a, x)
    if x < a + 1.0:         # series: P = prefix / a sum x^n / (a+1)_n
        term = total = 1.0 / a
        ap = a
        for _ in range(_MAX_TERMS):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        p = prefix * total
        return p, 1.0 - p
    # Lentz's continued fraction for Q
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for n in range(1, _MAX_TERMS):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    q = prefix * h
    return 1.0 - q, q


# ------------------------------------------------------- incomplete beta

def _beta_scale(a, b):
    """(a + b)^(a+b) / (a^a b^b B(a, b)) = sqrt(ab / 2 pi c) S(c)/(S(a)S(b)),
    with c = a + b."""
    c = a + b
    return (math.sqrt(a * b / (_TWO_PI * c)) * _stirling(c)
            / (_stirling(a) * _stirling(b)))


def _beta_prefix(a, b, x, y):
    """x^a y^b / B(a, b) for double-double x and y = 1 - x.

    It is (xc/a)^a (yc/b)^b _beta_scale(a, b) with c = a + b. The
    exponent a ln(xc/a) + b ln(yc/b) is formed in double-double: it
    cancels to O(1) near the mode, and it is large in the far tail, where
    each unit of it would cost a relative 1e-16 in double.
    """
    c = _two_sum(a, b)
    return (_exp_sum(a, _log_ratio(x, c, a), b, _log_ratio(y, c, b))
            * _beta_scale(a, b))


def _beta_power(a, b, x, y):
    """(xc/a)^a (yc/b)^b, the prefix over _beta_scale(a, b), in plain
    double with x and y each rounded: enough for the derivative in a
    Newton step, not for a probability."""
    if x <= 0.0 or y <= 0.0:
        return 0.0
    c = a + b
    return math.exp(a * math.log(x * c / a) + b * math.log(y * c / b))


def _beta_cf(a, b, x, y):
    """Continued fraction F with I_x(a, b) = x^a y^b / (B(a, b) F).

    DiDonato & Morris's BFRAC (1992, section 2) as in Boost.Math's
    ibeta_fraction2, by the modified Lentz method. Its terms use
    a y - b x, formed from the two separate inputs; it is accurate and
    converges fast where a y >= b x, at or below the mean of x.
    """
    lam1 = a * y - b * x + 1.0
    f = a * lam1 / (a + 1.0)
    if f == 0.0:
        f = _TINY
    c, d = f, 0.0
    for m in range(1, _MAX_TERMS):
        k = a + 2 * m - 1.0
        an = (a + m - 1.0) * (a + b + m - 1.0) * m * (b - m) * (x / k) ** 2
        bn = (m + m * (b - m) * x / k
              + (a + m) * (lam1 + m * (2.0 - x)) / (k + 2.0))
        d = bn + an * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = bn + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return f


def _beta(a, b, x, y):
    """(I_x(a, b), 1 - I_x(a, b)) for double-double x and y = 1 - x.

    The continued fraction runs on x when x is at or below the mean
    a / (a + b), and on y for the complement otherwise.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf) or x[0] != x[0]:
        return math.nan, math.nan
    if x[0] <= 0.0:
        return 0.0, 1.0
    if y[0] <= 0.0:
        return 1.0, 0.0
    prefix = _beta_prefix(a, b, x, y)
    if a * y[0] >= b * x[0]:
        p = prefix / _beta_cf(a, b, x[0], y[0])
        return p, 1.0 - p
    q = prefix / _beta_cf(b, a, y[0], x[0])
    return 1.0 - q, q


# ------------------------------------------- chi-square, F and t as pairs

def _f_args(x, d1, d2):
    """(a, b, x', 1 - x') of the F statistic x, x' = d1 x / (d1 x + d2)."""
    n = _two_prod(d1, x)
    dh, dl = _two_sum(n[0], d2)
    dl += n[1]
    return 0.5 * d1, 0.5 * d2, _div(*n, dh, dl), _div(d2, 0.0, dh, dl)


def _t_args(x, df):
    """(a, b, x', 1 - x') of |t| = x, x' = df / (df + x^2): P(t > |x|) is
    I_x'(a, b) / 2."""
    tt = _two_prod(x, x)
    dh, dl = _two_sum(tt[0], df)
    dl += tt[1]
    return 0.5 * df, 0.5, _div(df, 0.0, dh, dl), _div(*tt, dh, dl)


def chi2_cdf(x, df, upper=False):
    """P(chi2_df <= x), or P(chi2_df > x) with upper=True."""
    return _gamma(0.5 * df, 0.5 * x)[upper]


def f_cdf(x, d1, d2, upper=False):
    """P(F_{d1,d2} <= x), or P(F_{d1,d2} > x) with upper=True."""
    if x <= 0.0:
        return float(upper)
    if x == math.inf:
        return float(not upper)
    return _beta(*_f_args(x, d1, d2))[upper]


def t_cdf(x, df, upper=False):
    """P(t_df <= x), or P(t_df > x) with upper=True."""
    if x == 0.0:
        return 0.5
    if abs(x) == math.inf:
        return float((x > 0) != upper)
    tail = 0.5 * _beta(*_t_args(x, df))[0]    # P(t > |x|)
    return tail if (x > 0) == upper else 1.0 - tail


def f_sf(x, d1, d2):
    """Upper tail P(F_{d1,d2} > x)."""
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    return _beta(*_f_args(x, d1, d2))[1]


# ------------------------------------------------------------- inversion

def _normal_deviate(level):
    """z with P(N(0, 1) <= z) = level, to about 1e-10: Abramowitz & Stegun
    26.2.23 (|error| < 4.5e-4), then one Halley step on math.erfc."""
    p = min(level, 1.0 - level)
    t = math.sqrt(-2.0 * math.log(p))
    z = t - ((2.515517 + t * (0.802853 + t * 0.010328))
             / (1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))))
    step = ((0.5 * math.erfc(z * _SQRT_HALF) - p)
            / math.exp(-0.5 * z * z) * math.sqrt(_TWO_PI))
    z += step / (1.0 - 0.5 * z * step)
    return z if level > 0.5 else -z


def _chi2_start(level, df):
    """Wilson & Hilferty's cube-root normal approximation, the start of
    DiDonato & Morris (1986); the leading term of the lower tail where
    the cube root goes negative."""
    h = 2.0 / (9.0 * df)
    base = 1.0 - h + _normal_deviate(level) * math.sqrt(h)
    if base > 0.0:
        return df * base ** 3
    a = 0.5 * df                    # P ~ (x/2)^a / Gamma(a + 1)
    return 2.0 * math.exp((math.log(level) + math.lgamma(a + 1.0)) / a)


def _f_start(level, d1, d2):
    """Paulson's approximation, Wilson-Hilferty for the ratio of the two
    chi-squares: ((1 - h2) u - (1 - h1)) / sqrt(h1 + h2 u^2) = z for
    u = F^(1/3). Where that has no root (d2 of 1 or 2, far tails), the
    leading terms of the beta's two tails (Numerical Recipes' invbetai)."""
    z = _normal_deviate(level)
    h1, h2 = 2.0 / (9.0 * d1), 2.0 / (9.0 * d2)
    a, b = 1.0 - h2, 1.0 - h1
    den = a * a - z * z * h2
    disc = a * a * h1 + b * b * h2 - z * z * h1 * h2
    if den > 0.0 and disc >= 0.0:
        u = (a * b + z * math.sqrt(disc)) / den
        if u > 0.0:
            return u ** 3
    a, b = 0.5 * d1, 0.5 * d2
    t = math.exp(a * math.log(a / (a + b))) / a
    w = t + math.exp(b * math.log(b / (a + b))) / b
    if level < t / w:
        x = (a * w * level) ** (1.0 / a)
        return d2 * x / (d1 * (1.0 - x))
    y = (b * w * (1.0 - level)) ** (1.0 / b)
    return d2 * (1.0 - y) / (d1 * y)


def _t_start(level, df):
    """The Cornish-Fisher expansion of t in the normal deviate
    (Abramowitz & Stegun 26.7.5), to 1/df^4."""
    z = _normal_deviate(level)
    z2 = z * z
    g = (((((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2
            - 945.0) / 92160.0 / df
           + (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0) / df
          + ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0) / df
         + (z2 + 1.0) / 4.0) / df
    return z * (1.0 + g)


def _invert(tail, target, upper, q, density, slope):
    """q > 0 with tail(q) = target by safeguarded Halley steps from q.

    tail(q) is P(X <= q), or P(X > q) when upper, computed directly;
    density(q) is the density of X and slope(q) the derivative of its
    logarithm. The steps solve ln tail(e^u) = ln target for u = ln q:
    tails are close to powers of q, so this is nearly linear and
    converges from a rough start. Each step also narrows a bracket of the
    root, and a step that leaves it bisects it (in u) instead.
    """
    lo, hi = 0.0, math.inf
    ln_target = math.log(target)
    if not 0.0 < q < math.inf:
        q = 1.0
    for _ in range(100):
        t = tail(q)
        if t == target:
            return q
        if (t > target) != upper:
            hi = q
        else:
            lo = q
        w = q * density(q) / t if t > 0.0 else 0.0   # |d ln tail / du|
        new = 0.0
        if w > 0.0:
            # d^2 ln tail / du^2 is w (1 + q slope - w) for P and
            # -w (1 + q slope + w) for Q
            step = (math.log(t) - ln_target) / w
            if upper:
                step = -step
            halley = 1.0 - 0.5 * step * (1.0 + q * slope(q)
                                         + (w if upper else -w))
            if halley > 0.5:
                step /= halley
            new = q * math.exp(-min(max(step, -30.0), 30.0))
            if abs(step) <= 1e-5:               # the error left is ~ step^3
                return new
        if not lo < new < hi:
            new = (math.sqrt(lo * hi) if 0.0 < lo and hi < math.inf
                   else 4.0 * q if hi == math.inf else 0.25 * q)
        q = new
    return q


def _check_level(level):
    if not 0.0 < level < 1.0:
        raise InputError("level must be in (0, 1)")


def chi2_quantile(level, df):
    """x with P(chi2_df <= x) = level."""
    _check_level(level)
    if not df > 0:
        return math.nan
    a = 0.5 * df
    scale = _gamma_scale(a)
    upper = level > 0.5
    return _invert(lambda q: chi2_cdf(q, df, upper),
                   1.0 - level if upper else level, upper,
                   _chi2_start(level, df),
                   lambda q: scale * _gamma_power(a, 0.5 * q) / q,
                   lambda q: (a - 1.0) / q - 0.5)


def f_quantile(level, d1, d2):
    """x with P(F_{d1,d2} <= x) = level."""
    _check_level(level)
    if d1 <= 0 or d2 <= 0:
        raise InputError("degrees of freedom must be positive")
    a, b = 0.5 * d1, 0.5 * d2
    scale = _beta_scale(a, b)
    upper = level > 0.5
    return _invert(lambda q: f_cdf(q, d1, d2, upper),
                   1.0 - level if upper else level, upper,
                   _f_start(level, d1, d2),
                   lambda q: scale * _beta_power(a, b, d1 * q / (d1 * q + d2),
                                                 d2 / (d1 * q + d2)) / q,
                   lambda q: (a - 1.0) / q - (a + b) * d1 / (d1 * q + d2))


def t_quantile(level, df):
    """x with P(t_df <= x) = level."""
    _check_level(level)
    if not df > 0:
        return math.nan
    if level == 0.5:
        return 0.0
    a = 0.5 * df
    scale = _beta_scale(a, 0.5)
    q = _invert(lambda q: t_cdf(q, df, True), min(level, 1.0 - level), True,
                abs(_t_start(level, df)),
                lambda q: scale * _beta_power(a, 0.5, df / (df + q * q),
                                              q * q / (df + q * q)) / q,
                lambda q: -(df + 1.0) * q / (df + q * q))
    return q if level > 0.5 else -q
