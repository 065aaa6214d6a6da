"""The two-parameter Beta function and the Psi/polygamma family.

Beta reduces to (1/k) B(x/k, y/k) and never sees p (it cancels in the
defining Gamma ratio); three independent integral representations are kept
for cross-checking.  The Psi family is normalized as the true logarithmic
derivative of the family Gamma,

    psi(x) = d/dx log G(x) = log(p)/k + digamma(x/k)/k,

and all series and polygamma forms below carry the same 1/k normalization
so that they are derivatives of one another.  The two psi-series forms sum
their first 32 terms in plain Python and add the rest exactly, as a
difference of digammas from the psi asymptotic series (core._digamma_step).
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import quadrature
from .core import (
    _EPS,
    _PSI_ASYMPTOTIC,
    _STIRLING_MIN,
    _TAIL_GAP,
    _TINY,
    _as_index,
    _digamma_array,
    _digamma_step,
    _from_log,
    _gamma_product,
    _ln_gamma_step,
    _lattice_terms,
    _linear_err,
    _ln_gamma,
    _note_overflow,
    _positive_real,
    _real,
    _require_params,
    _ValueType,
    EULER_GAMMA,
    DomainError,
    EvalReal,
    GammaEval,
    Method,
    PkParams,
    digamma_classical,
    ln_gamma_classical,
)

__all__ = [
    "BetaArgs",
    "beta_closed",
    "beta_integral",
    "psi",
    "psi_series",
    "ln_gamma_via_psi",
    "polygamma",
    "k_zeta",
    "BETA_FORMS",
    "PSI_SERIES_FORMS",
]

BETA_FORMS = ("unit", "symmetric", "semiaxis")
PSI_SERIES_FORMS = ("3.9", "3.10")
_ZETA_TERMS = 12  # terms k_zeta sums before its Euler-Maclaurin tail


class BetaArgs(_ValueType, namedtuple("BetaArgs", "x y params")):
    """Both arguments strictly positive; p rides along but cancels."""

    __slots__ = ()
    x: float
    y: float
    params: PkParams

    def __new__(cls, x: float, y: float, params: PkParams):
        return tuple.__new__(cls, (_positive_real("x", x), _positive_real("y", y), _require_params(params)))


def beta_closed(args: BetaArgs) -> EvalReal:
    """(1/k) B(x/k, y/k) through the classical log-gamma kernel.

    Where the larger argument hi is at least core._STIRLING_MIN,
    lnB = lnGamma(lo) - lo ln hi - [lnGamma(hi + lo) - lnGamma(hi) - lo ln hi],
    the bracket from core._ln_gamma_step, so lnGamma(hi) and lnGamma(hi + lo)
    never cancel.  Where lo is subnormal, so rounded absolutely, B(a, b)/k is (x + y)/(x y)
    times Gamma(1+a) Gamma(1+b)/Gamma(1+a+b), which is 1 to within lo (1 + ln(1 + hi)).
    Past the double range the value is inf, with an OverflowNote.
    """
    k = args.params.k
    a, b = _real("x/k", args.x / k), _real("y/k", args.y / k)
    lnk = (math.log(k), 1, 0.0, Method.CLOSED)  # the 1/k, an exact term subtracted last
    if min(a, b) < _TINY:
        near, far = sorted((args.x, args.y))
        ln_sum, ln_near = math.log1p(near / far), math.log(near)
        # log1p(u) >= u ln 2 for u <= 1, so u's rounding adds at most 2 eps |ln_sum|
        err = _EPS * (3.0 * abs(ln_sum) + 2.0 * abs(ln_near)) + _TINY * (1.0 + math.log1p(max(a, b)))
        g = GammaEval(ln_sum - ln_near, 1, err, Method.CLOSED)
    elif a < _STIRLING_MIN and b < _STIRLING_MIN:
        g = _gamma_product(0.0, (_ln_gamma(a), _ln_gamma(b)), (_ln_gamma(_real("z", a + b)), lnk))
    else:
        lo, hi = min(a, b), max(a, b)
        ln_lo = _ln_gamma(lo)
        # finite wherever lnGamma(lo) is, but for lo within 1 % of where lgamma overflows
        scale = _real("min(x, y)/k * ln(max(x, y)/k)", lo * math.log(hi))
        _real("(x + y)/k", hi + lo)  # an overflowed sum is a DomainError, as an overflowed quotient is
        step = _ln_gamma_step(hi, lo)
        # the rounding of log(hi), and of step's (hi + lo - 1/2) log1p(lo/hi) - lo, plus its series' gap
        parts = ((scale, 1, _EPS * abs(scale), Method.CLOSED),
                 (step, 1, 6.0 * _EPS * (abs(step) + lo + 1.0) + _TAIL_GAP, Method.CLOSED))
        g = _gamma_product(0.0, (ln_lo,), (*parts, lnk))
    value = _note_overflow(_from_log(g.ln_value, g.sign), "B_k({}, {}) overflows double precision", args.x, args.y)
    return EvalReal(value, _linear_err(g, value), Method.CLOSED)


def beta_integral(args: BetaArgs, form: str = "unit") -> EvalReal:
    """One of the three integral representations.

    unit:       (1/k) int_0^1 t^(x/k-1) (1-t)^(y/k-1) dt
    symmetric:  (1/k) int_0^1 (t^(x/k-1) + t^(y/k-1)) (1+t)^(-(x+y)/k) dt
    semiaxis:   int_0^inf t^(x-1) (1+t^k)^(-(x+y)/k) dt

    Each is a sum of quadrature power pieces int_0^h t^(alpha-1) g(t) dt: unit
    is quadrature._split_beta_kernel at z = 0, symmetric the pieces x/k and y/k,
    and semiaxis, split at t = 1 with s = 1/t on the right, the pieces x and y.
    """
    import numpy as np

    k = args.params.k
    a, b = _positive_real("x/k", args.x / k), _positive_real("y/k", args.y / k)
    if form == "semiaxis":
        def log_g(t, lt):
            return -(a + b) * np.log1p(np.exp(k * lt))

        return quadrature._power_integral(((args.x, 1.0, log_g), (args.y, 1.0, log_g)))
    if form == "unit":
        res = quadrature._split_beta_kernel(a, b, 0.0, 0.0)
    elif form == "symmetric":
        def log_g(t, lt):
            return -(a + b) * np.log1p(t)

        res = quadrature._power_integral(((a, 1.0, log_g), (b, 1.0, log_g)))
    else:
        raise DomainError(f"form must be one of {BETA_FORMS}, got {form!r}")
    return EvalReal(value=res.value / k, abs_err=res.abs_err / k, method=Method.INTEGRAL)


def psi(params: PkParams, x: float) -> EvalReal:
    """log(p)/k + digamma(x/k)/k, the logarithmic derivative of the family Gamma.

    Where z = x/k is subnormal, so rounded absolutely, the origin's 1/z comes from x:
    digamma(z)/k = digamma(1+z)/k - 1/x, and digamma(1+z) is -gamma to within 2|z|.
    Past the double range the value is a signed inf, with an OverflowNote.
    """
    k, x = _require_params(params).k, _real("x", x)
    z = x / k
    if x and abs(z) < _TINY:
        v = (math.log(params.p) - EULER_GAMMA) / k - 1.0 / x
        err = 1e-14 * (1.0 + abs(v))
    else:
        # raises PoleError on the pole lattice, and DomainError where x/k leaves the double range
        lp, dz = math.log(params.p), digamma_classical(z)
        v = lp / k + dz / k
        if v != v:  # nan: the two quotients overflow with opposite signs, so divide their sum once
            v = (lp + dz) / k
        err = 1e-14 * (1.0 + abs(v))
        if z < 0.0:
            # the rounding of z = x/k, eps |z| / 2, amplified near the poles by
            # psi'(z) + psi'(1-z) = s^2, s = pi / sin(pi z); |z| s stays near 1 at the origin
            s = math.pi / math.sin(math.pi * (z - round(z)))
            err += 4.0 * _EPS * (abs(z) * s) * s / k
    _note_overflow(v, "psi({}) overflows double precision", x)
    return EvalReal(value=v, abs_err=err, method=Method.CLOSED)


def psi_series(params: PkParams, x: float, form: str = "3.9") -> EvalReal:
    """Series route for psi, 1/k-normalized, with an exact tail.

    form "3.9":  log(p)/k - g/k - 1/x + (x/k) sum_{n>=1} 1/(n (x+nk))
    form "3.10": log(p)/k - g/k + ((x-k)/k) sum_{n>=0} 1/((n+1)(x+nk))

    The first N = 32 terms are summed directly, smallest first.  Past them
    the 3.9 series sums to psi(N+1+w) - psi(N+1) and the 3.10 series to
    psi(N+1+w) - psi(N+2), both over k with w = x/k: core._digamma_step adds
    them.  abs_err is eps times the magnitudes summed, the partial sums
    included, plus what the psi series leaves out.  Requires
    x/k < core._LATTICE_Z_MAX.  Past the double range the value is a signed
    inf, with an OverflowNote.
    """
    _require_params(params)
    x = _positive_real("x", x)
    if form not in PSI_SERIES_FORMS:
        raise DomainError(f"form must be one of {PSI_SERIES_FORMS}, got {form!r}")
    p, k = params.p, params.k
    w = x / k
    N = _lattice_terms(w)
    base = math.log(p) / k - EULER_GAMMA / k
    s = partials = 0.0
    if form == "3.9":
        for n in range(N, 0, -1):  # smallest first
            s += 1.0 / (n * (x + n * k))
            partials += s
        scale, head, tail = w, base - 1.0 / x, _digamma_step(N + 1.0, w) / k
    else:
        for n in range(N, -1, -1):
            s += 1.0 / ((n + 1) * (x + n * k))
            partials += s
        scale = (x - k) / k
        head, tail = base, _digamma_step(N + 2.0, scale) / k
    v = head + scale * s + tail
    parts = 2.0 * abs(math.log(p)) / k + EULER_GAMMA / k + abs(head) + abs(scale) * (3.0 * s + partials)
    err = _EPS * (parts + 2.0 * abs(tail) + abs(v)) + _TAIL_GAP * (1.0 + abs(scale)) / k
    _note_overflow(v, "psi_series({}) overflows double precision", x)
    return EvalReal(value=v, abs_err=err, method=Method.SERIES)


def ln_gamma_via_psi(params: PkParams, x: float) -> EvalReal:
    """log G(x) recovered as int_1^x psi(t) dt + log G(1).

    The integration constant log G(1) = log(p^(1/k) Gamma(1/k) / k) is
    required; the antiderivative alone is only defined up to it.
    """
    _require_params(params)
    x = _positive_real("x", x)
    p, k = params.p, params.k
    ln_at_one = math.log(p) / k - math.log(k) + ln_gamma_classical(1.0 / k).ln_value
    span = x - 1.0
    lnp_k = math.log(p) / k

    def integrand(u):
        t = 1.0 + span * u
        return span * (lnp_k + _digamma_array(t / k) / k)

    res = quadrature.integrate_unit(integrand)
    return EvalReal(value=ln_at_one + res.value, abs_err=res.abs_err + 1e-14, method=Method.INTEGRAL)


def k_zeta(x: float, r: int, k: float) -> EvalReal:
    """zeta_k(x, r) = sum_{n>=0} (x + nk)^-r for r >= 2, x > 0, k > 0.

    _ZETA_TERMS terms summed directly, plus the Euler-Maclaurin tail from a = x + 12 k
    (DLMF 2.10.1): a^(1-r)/((r-1)k) + a^-r/2 + sum_j=1..7 B_2j/(2j)! (r)_(2j-1) (k/a)^(2j-1) a^-r.
    abs_err is the first omitted term plus eps (r+2) value, the rounding of (x + nk)^-r,
    plus an absolute floor for the roundings that land below the normal range.
    Past the double range the value is inf, with an OverflowNote.
    """
    order = _as_index(r)
    if order is None or order < 2:
        raise DomainError(f"r must be an integer >= 2 for convergence, got {r!r}")
    x = _positive_real("x", x)
    z = _zeta_sum(x, order, _positive_real("k", k))
    _note_overflow(z.value, "zeta_k({}, {}) overflows double precision", x, order)
    return z


def _zeta_sum(x: float, r: int, k: float, e: int = 0) -> EvalReal:
    """2^e k_zeta(x, r, k 2^e) at checked arguments, e <= 0, without its OverflowNote.

    Each power is scaled by 2^e, and the tail's 1/((r-1) k 2^e) is 1/((r-1) k),
    so a sum near it stays in range; where the scaled powers are normal, this is exact.
    """
    step = math.ldexp(k, e)
    a = x + _ZETA_TERMS * step
    w = step / a
    # B_2j/(2j)! (r)_(2j-1) = _PSI_ASYMPTOTIC[j-1] C(r+2j-2, 2j-1), j = 1..7 (j-1 below)
    poly = sum(c * math.comb(r + 2 * j, 2 * j + 1) * w ** (2 * j) for j, c in enumerate(_PSI_ASYMPTOTIC))
    try:
        f0 = math.ldexp(a**-r, e)
        tail = a ** (1 - r) / ((r - 1) * k) + f0 * (0.5 + w * poly)
        value = sum((math.ldexp((x + n * step) ** -r, e) for n in reversed(range(_ZETA_TERMS))), tail)  # smallest first
    except OverflowError:
        value = math.inf
    if value == math.inf:
        return EvalReal(value=value, abs_err=value, method=Method.SERIES)
    # below the normal range a result is off by up to one spacing 2^-1074 absolute,
    # which eps (r+2) value does not cover: one for each power (x + nk)^-r and for
    # a^-r and a^(1-r), which the tail scales by 0.5 + w*poly and by 1/((r-1)k), and
    # half of one each for that product and that quotient; sums of subnormals are exact
    floor = (_ZETA_TERMS + abs(0.5 + w * poly) + 1.0 / ((r - 1) * k) + 1.0) * math.ulp(0.0)
    err = 3617 / 8160 * math.comb(r + 14, 15) * w**15 * f0 + _EPS * (r + 2) * value + floor  # |B_16|/16
    return EvalReal(value=value, abs_err=err, method=Method.SERIES)


def polygamma(params: PkParams, x: float, r: int) -> EvalReal:
    """r-th derivative of log G: (-1)^r (r-1)! zeta_k(x, r); independent of p.

    zeta_k(x, r) = x^-r zeta_q(1, r), q = k/x: the lattice sum is at least 1, near 1/((r-1) q)
    for small q, so below q = 1 it is summed times 2^e ~ q, and (r-1)! x^-r 2^-e is applied
    through binary exponents: the value underflows or overflows only as a whole.  Orders past
    171 are rejected: (r-1)! no longer fits in a double.  Past the double range the value is a
    signed inf, with an OverflowNote.
    """
    _require_params(params)
    order = _as_index(r)
    if order is None or not 2 <= order <= 171:
        raise DomainError(f"r must be an integer in [2, 171], got {r!r}")
    r, x = order, _positive_real("x", x)
    # 2^e ~ q below 1, and q 2^-e comes from k and x, so a subnormal or underflowed q costs no digits;
    # past q = 1e300 every term but the first is below 1e-600: the sum is 1.0 exactly
    e = min(0, math.frexp(params.k)[1] - math.frexp(x)[1])
    z = _zeta_sum(1.0, r, min(math.ldexp(params.k, -e) / x, 1e300), e)
    sign = (-1.0) ** r
    (fm, fe), (zm, ze), (xm, xe) = math.frexp(math.factorial(r - 1)), math.frexp(z.value), math.frexp(x)
    try:
        value = sign * math.ldexp(fm * zm * xm**-r, fe + ze - e - r * xe)
    except OverflowError:
        value = sign * math.inf
    if math.isinf(_note_overflow(value, "polygamma({}, {}) overflows double precision", x, r)):
        return EvalReal(value=value, abs_err=math.inf, method=Method.SERIES)
    # the sum's own claim, eps r/2 for the rounding of k/x, eps each for xm^-r and the two
    # products, and half a spacing where the value lands below the normal range
    err = abs(value) * (z.abs_err / z.value + _EPS * (r + 2)) + math.ulp(0.0)
    return EvalReal(value=value, abs_err=err, method=Method.SERIES)

