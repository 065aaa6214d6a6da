"""The two-parameter Gamma function with four independent evaluators.

Closed form:  G(x) = p**(x/k) * Gamma(x/k) / k.

The limit, integral, and infinite-product evaluators approach the same
value by entirely different routes, which is what makes the identity audit
meaningful.  The raw partial products converge like 1/N, far too slowly for
the accuracy targets at any affordable N, so each product route sums its
first N = 32 + ceil(max(0, -x/k)) factors directly and adds the rest
exactly: past n = N their logs sum to a difference of log-gammas, which
Stirling's series (core._ln_gamma_step) gives to double precision.  The
limit evaluator's sums of log(x/k + j) take the same step past their first
core._STIRLING_MIN terms, so its cost does not depend on its index.

All evaluators work in log space with an explicit sign channel.  Only the
integral evaluator uses numpy.
"""

from __future__ import annotations

import math

from . import quadrature
from .core import (
    _EPS,
    _STIRLING_MIN,
    _TAIL_GAP,
    _TINY,
    _as_index,
    _lattice_terms,
    _ln_gamma,
    _ln_gamma_step,
    _positive_real,
    _psi_tail,
    _real,
    _require_params,
    EULER_GAMMA,
    DomainError,
    GammaEval,
    Method,
    PkParams,
    PoleError,
)

__all__ = [
    "gamma_closed",
    "gamma_limit",
    "gamma_integral",
    "gamma_euler_product",
    "gamma_weierstrass_recip",
    "gamma_limit_product_recip",
]


def gamma_closed(params: PkParams, x: float) -> GammaEval:
    """Closed-form value via the classical kernel at z = x/k.

    Valid for any real x off the pole lattice, negative arguments included;
    the sign comes from the classical reflection behaviour.  Where z is subnormal, so rounded
    absolutely, the origin's 1/z comes from x: Gamma(z)/k = Gamma(1+z)/x, Gamma(1+z) ~ 1 - gamma z.
    """
    _require_params(params)
    x = _real("x", x)
    # DomainError where x/k leaves the double range, and PoleError on the pole lattice
    z = _real("z", x / params.k)
    lnp_z, lnk = z * math.log(params.p), math.log(params.k)
    if x and abs(z) < _TINY:  # ln|x| in place of ln k, and lnGamma(1+z) = 0 to within _TINY
        lg, sign, lg_err, lnk = 0.0, (1 if x > 0 else -1), _TINY, math.log(abs(x))
    else:
        lg, sign, lg_err, _ = _ln_gamma(z)
    ln = lnp_z - lnk + lg
    # the rounding of z enters z ln p once more on top of the rounding of the sum
    err = lg_err + _EPS * (1.0 + 2.0 * abs(lnp_z) + abs(lnk) + abs(lg))
    return GammaEval(ln, sign, err, Method.CLOSED)


def gamma_limit(
    params: PkParams,
    x: float,
    n: int,
    accelerate: bool = True,
    variant: str = "2.7",
) -> GammaEval:
    """Defining-limit evaluator at index n, optionally Richardson-accelerated.

    ``variant`` picks the printed form of the m-th term: "2.7" (the default)
    is  m! p^(m+1) (mp)^(x/k-1) / (k P(x; m)),  and "2.6" has one factor
    more,  m! p^(m+1) (mp)^(x/k) / (k P(x; m+1)).  In log space both read
    lgamma(m+1) + (z-1 or z) ln m + z ln p - sum log(z+j) - ln k,  z = x/k,
    with lgamma only at integers and the sum from _log_rising, at a cost
    that does not grow with n.
    The sequence converges like 1/n with leading coefficient z(z-1)/2
    (z(z+1)/2 for "2.6"), so two extrapolation levels over {n, 2n, 4n}
    leave an O(1/n^3) residual, which abs_err_ln covers.
    """
    _require_params(params)
    x, count = _positive_real("x", x), _as_index(n)
    # 4n + 1 stays an exact double
    if count is None or not 8 <= count <= 2**50:
        raise DomainError(f"n must be an integer from 8 to 2**50, got {n!r}")
    n = count
    if variant not in ("2.6", "2.7"):
        raise DomainError(f"variant must be '2.6' or '2.7', got {variant!r}")
    extra = 1 if variant == "2.6" else 0
    z = _positive_real("x/k", x / params.k)
    power = z if extra else z - 1.0
    lnk, lnp = math.log(params.k), math.log(params.p)
    indices = (n, 2 * n, 4 * n) if accelerate else (n,)
    sums = _log_rising(z, [m + extra for m in indices])
    # The m-th term is ln G + sum_j d_j / m^j with d_j = (-1)^(j+1) (B_j+1(1) -
    # B_j+1(zs)) / j(j+1) (DLMF 5.11.13): d_1 = -q/2, d_2 = q (zs - 1/2)/6, d_3 = -q^2/12.
    zs = z + extra
    q = zs * (zs - 1.0)

    def at(m: int, s: float, s_mag: float) -> tuple[float, float]:
        """The m-th term and the sum of the magnitudes it adds up."""
        head, tilt = math.lgamma(m + 1), power * math.log(m)
        # math.lgamma itself errs by eps (8 + 2 head), as core.ln_gamma_classical counts it
        mag = 8.0 + 3.0 * head + abs(tilt) + abs(z * lnp) + s_mag + abs(lnk)
        return head + tilt + z * lnp - s - lnk, mag

    # Each term cancels sums of size ~lgamma(m+1) down to O(1): its rounding is
    # eps times those magnitudes, and each sum's tail misses by _TAIL_GAP, both
    # carried through the Richardson weights c = (8 a4 - 6 a2 + a1) / 3 at their
    # absolute values.
    if not accelerate:
        ln, mag = at(n, *sums[0])
        err = abs(q) / (2.0 * n) + abs(q * (zs - 0.5)) / (6.0 * n**2) + _EPS * mag + _TAIL_GAP + 1e-14
        return GammaEval(ln, 1, err, Method.LIMIT)
    (a1, m1), (a2, m2), (a4, m4) = (at(m, *sums_m) for m, sums_m in zip(indices, sums))
    b1 = 2.0 * a2 - a1
    b2 = 2.0 * a4 - a2
    c = (4.0 * b2 - b1) / 3.0
    # |c - b2| estimates the d_2 order; the weights leave d_3 / 8n^3, which
    # outgrows that estimate once z is not small against n
    rounding = _EPS * (8.0 * m4 + 6.0 * m2 + m1) / 3.0 + 5.0 * _TAIL_GAP
    err = abs(c - b2) + q * q / (96.0 * n**3) + rounding + 1e-13
    return GammaEval(c, 1, err, Method.LIMIT)


def _log_rising(z: float, counts: list[int]) -> list[tuple[float, float]]:
    """(s, mag) for each M of the rising ``counts``: s = sum_{j < M} log(z + j), z > 0.

    The first S = core._STIRLING_MIN terms are summed directly and shared;
    the rest is _ln_gamma_step(a, M - S) + (M - S) ln a, a = z + S, whose
    arguments are then at least S.  eps * mag bounds the rounding: each head
    term and partial sum, plus eps for rounding z + j; the step and the parts
    it cancels, which |step| + M - S bounds; (M - S) ln a and the result.
    """
    sums, s, mag = [], 0.0, 0.0
    for j in range(min(counts[-1], _STIRLING_MIN)):
        t = math.log(z + j)
        s += t
        mag += 1.0 + abs(t) + abs(s)
        if j + 1 in counts:
            sums.append((s, mag))
    a = z + _STIRLING_MIN
    for w in (m - _STIRLING_MIN for m in counts if m > _STIRLING_MIN):
        step, w_ln_a = _ln_gamma_step(a, w), w * math.log(a)
        total = s + step + w_ln_a
        sums.append((total, mag + 6.0 * abs(step) + 4.0 * w + 2.0 * abs(w_ln_a) + abs(total) + 1.0))
    return sums


def gamma_integral(params: PkParams, x: float, a_scale: float = 1.0) -> GammaEval:
    """Integral-representation evaluator a^(x/k) * int_0^inf e^(-c t^k) t^(x-1) dt, c = a/p.

    The result is independent of the free scale a > 0 (a=1 is the plain
    representation).  Requires x > 0 for integrability at the origin.
    Split at T, where c T^k = m = max((x-1)/k, 1), with the log of the peak
    taken out, u = t/T on the left and r = (T/t)^k on the right, the integral is
    T^x e^-m (int_0^1 u^(x-1) e^(-m(u^k-1)) du + int_0^1 r^(-x/k-1) e^(-m(1/r-1)) dr / k);
    in r, unlike T/t, the right piece's edge at 0 stays soft for large k.
    """
    import numpy as np

    _require_params(params)
    x, a_scale = _positive_real("x", x), _positive_real("a_scale", a_scale)
    p, k = params.p, params.k
    z, c = _positive_real("x/k", x / k), _positive_real("a_scale/p", a_scale / p)
    m = max(z - 1.0 / k, 1.0)
    ln_k = math.log(k)
    res = quadrature._power_integral((
        (x, 1.0, lambda u, lu: -m * np.expm1(k * lu)),
        (1.0, 1.0, lambda r, lr: -(z + 1.0) * lr - m * np.expm1(-lr) - ln_k),
    ))
    ln_a, ln_m, ln_c, ln_res = math.log(a_scale), math.log(m), math.log(c), math.log(res.value)
    ln = z * ln_a + z * (ln_m - ln_c) - m + ln_res
    # the quadrature's error, plus 4 eps times the magnitudes of the logs summed
    err = res.abs_err / res.value + 4.0 * _EPS * (z * (abs(ln_a) + abs(ln_m) + abs(ln_c) + 1.0) + m + abs(ln_res))
    return GammaEval(ln, 1, err, Method.INTEGRAL)


def gamma_euler_product(params: PkParams, x: float) -> GammaEval:
    """Euler-product evaluator with the consistent prefactor p^(x/k)/x.

    The log of the n-th factor is z log1p(1/n) - log1p(z/n), z = x/k; the
    first N sum to ln Gamma(1+z) less _ln_gamma_step(N+1, z), which adds the
    rest.  Requires x > 0 and x/k < core._LATTICE_Z_MAX.
    """
    _require_params(params)
    x = _positive_real("x", x)
    z = x / params.k
    N = _lattice_terms(z)
    body = mag = 0.0
    for n in range(N, 0, -1):  # smallest first
        lr, lf = z * math.log1p(1.0 / n), math.log1p(z / n)
        body += lr - lf
        mag += lr + lf + abs(body)
    tail = _ln_gamma_step(N + 1.0, z)
    lnp_z, ln_x = z * math.log(params.p), math.log(x)
    ln = lnp_z - ln_x + body + tail
    # eps times the magnitudes summed: the factors and partial sums, the two
    # parts of the tail, and the rounding of z in z ln p
    err = _EPS * (2.0 * mag + abs(tail) + 2.0 * z + 2.0 * abs(lnp_z) + abs(ln_x) + abs(ln)) + _TAIL_GAP * (1.0 + z)
    return GammaEval(ln, 1, err, Method.EULER_PRODUCT)


def _reciprocal(params: PkParams, x: float, method: Method) -> GammaEval:
    """The reciprocal routes: 1/G(x) = x/p^(x/k) times the factors 1 + z/n, z = x/k.

    Method.WEIERSTRASS damps each factor by e^(-z/n) and the whole by
    e^(z gamma); Method.LIMIT takes the limit product's N^-z instead.  The
    logs of the first N = core._lattice_terms(z) factors are summed exactly
    rounded (math.fsum); past them the plain product is (N+1)^z
    exp(-_ln_gamma_step(N+1, z)), and the damped one exp(-_ln_gamma_step(a, z)
    + z (psi(a) - ln a)), a = N + 1.  The claim is eps times each log, the
    sum and the tail's parts, plus eps |z/n| / |1 + z/n| per factor, which
    dominates next to a pole.  On the pole lattice the reciprocal vanishes
    identically, so a zero eval (ln = -inf) is returned rather than raising;
    where x/k only rounds onto it, x != -n k, the route raises PoleError.
    """
    _require_params(params)
    x = _real("x", x)
    z = _real("x/k", x / params.k)
    if x == 0.0 or z == round(z) < 0:  # on the lattice, or rounded onto it
        (xn, xd), (kn, kd) = x.as_integer_ratio(), params.k.as_integer_ratio()
        if xn * kd != round(z) * kn * xd:
            raise PoleError(f"pole at index {-round(z)}")
        return GammaEval(-math.inf, 1, 0.0, method)
    damped = method is Method.WEIERSTRASS
    N = _lattice_terms(z)
    sign, logs, mag = (1 if x > 0 else -1), [], 0.0
    for n in range(N, 0, -1):  # off the pole lattice no factor is zero
        u = z / n
        f = 1.0 + u
        if f > 0.5:
            t = math.log1p(u)
        else:  # next to the pole at -n: (n + z)/n rounds once, 1 + z/n cancels the rounding of z/n
            f = (n + z) / n
            t, sign = math.log(abs(f)), (sign if f > 0.0 else -sign)
        if damped:
            t -= u
            mag += abs(u)
        logs.append(t)
        mag += abs(t) + abs(u / f)
    s = math.fsum(logs)
    a = N + 1.0
    tail = _ln_gamma_step(a, z)
    # z (gamma - ln a + psi(a)) for the damped form, -z ln a for the plain one
    shift = z * (EULER_GAMMA - 0.5 / a - _psi_tail(a)) if damped else -z * math.log(a)
    lnp_z, ln_x = z * math.log(params.p), math.log(abs(x))
    ln = ln_x - lnp_z + s + shift - tail
    parts = mag + abs(s) + abs(tail) + 2.0 * abs(z) + abs(shift) + 2.0 * abs(lnp_z) + abs(ln_x) + abs(ln)
    return GammaEval(ln, sign, _EPS * parts + _TAIL_GAP * (1.0 + abs(z)), method)


def gamma_weierstrass_recip(params: PkParams, x: float) -> GammaEval:
    """Reciprocal evaluator (x/p^(x/k)) e^(x gamma / k) prod (1+x/nk) e^(-x/nk).

    Valid for negative non-pole x as well: the product has no positivity
    restriction, and on the pole lattice the value is an exact zero.
    Requires |x/k| < core._LATTICE_Z_MAX.
    """
    return _reciprocal(params, x, Method.WEIERSTRASS)


def gamma_limit_product_recip(params: PkParams, x: float) -> GammaEval:
    """Reciprocal via the limit product (x/p^(x/k)) lim N^(-x/k) prod (1+x/nk).

    Equivalent to the Weierstrass form but free of the Euler constant: the
    partial product supplies z*(H_N - log N) itself.  Requires
    |x/k| < core._LATTICE_Z_MAX.
    """
    return _reciprocal(params, x, Method.LIMIT)
