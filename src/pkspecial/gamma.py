"""The two-parameter Gamma function with four independent evaluators.

Closed form:  G(x) = p**(x/k) * Gamma(x/k) / k.

The limit, integral, and infinite-product evaluators approach the same
value by entirely different routes, which is what makes the identity audit
meaningful.  The product forms carry analytically derived tail corrections:
their raw partial products converge like 1/N, far too slowly for the
accuracy targets at any affordable N.

All evaluators work in log space with an explicit sign channel.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .core import (
    _EPS,
    _MEMO_SIZE,
    _require_inside_tail,
    _tail_s2,
    _tail_s3,
    _tail_s4,
    EULER_GAMMA,
    DomainError,
    GammaEval,
    Method,
    PkParams,
    PoleError,
    ln_gamma_classical,
    pole_check,
)
from .quadrature import _power_integral

__all__ = [
    "gamma_closed",
    "gamma_limit",
    "gamma_integral",
    "gamma_euler_product",
    "gamma_weierstrass_recip",
]


def _require_params(params: PkParams) -> PkParams:
    if not isinstance(params, PkParams):
        raise DomainError("params must be a PkParams instance")
    return params


def gamma_closed(params: PkParams, x: float) -> GammaEval:
    """Closed-form value via the classical kernel at z = x/k.

    Valid for any real x off the pole lattice, negative arguments included;
    the sign comes from the classical reflection behaviour.
    """
    _require_params(params)
    if pole_check(params, x).is_pole:
        raise PoleError(f"gamma_closed: x={x} lies on the pole lattice of k={params.k}")
    z = x / params.k
    lg = ln_gamma_classical(z)
    lnp_z, lnk = z * math.log(params.p), math.log(params.k)
    ln = lnp_z - lnk + lg.ln_value
    # the rounding of z enters z ln p once more on top of the rounding of the sum
    err = lg.abs_err_ln + _EPS * (1.0 + 2.0 * abs(lnp_z) + abs(lnk) + abs(lg.ln_value))
    return GammaEval(ln_value=ln, sign=lg.sign, abs_err_ln=err, method=Method.CLOSED)


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
    lgamma(m+1) + (z-1 or z) ln m + z ln p - sum log(z+j) - ln k,  z = x/k.
    The sequence converges like 1/n with leading coefficient z(z-1)/2
    (z(z+1)/2 for "2.6"), so two extrapolation levels over {n, 2n, 4n}
    leave an O(1/n^3) residual, which abs_err_ln covers.
    """
    _require_params(params)
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"gamma_limit requires x > 0, got {x!r}")
    if not (isinstance(n, int) and n >= 8):
        raise DomainError(f"n must be an integer >= 8, got {n!r}")
    if variant not in ("2.6", "2.7"):
        raise DomainError(f"variant must be '2.6' or '2.7', got {variant!r}")
    extra = 1 if variant == "2.6" else 0
    z = x / params.k
    power = z if extra else z - 1.0
    lnk, lnp = math.log(params.k), math.log(params.p)
    sums = _limit_sums(z, n, accelerate, extra)
    # The m-th term is ln G + sum_j d_j / m^j with d_j = (-1)^(j+1) (B_j+1(1) -
    # B_j+1(zs)) / j(j+1) (DLMF 5.11.13): d_1 = -q/2, d_2 = q (zs - 1/2)/6, d_3 = -q^2/12.
    zs = z + extra
    q = zs * (zs - 1.0)

    def at(m: int, s: float) -> tuple[float, float]:
        """The m-th term and the sum of the magnitudes it adds up."""
        head, tilt = math.lgamma(m + 1), power * math.log(m)
        # math.lgamma itself errs by eps (8 + 2 head), as core.ln_gamma_classical counts it
        mag = 8.0 + 3.0 * head + abs(tilt) + abs(z * lnp) + abs(s) + abs(lnk)
        return head + tilt + z * lnp - s - lnk, mag

    # Each term cancels sums of size ~lgamma(m+1) down to O(1): its rounding is
    # eps times those magnitudes, carried through the Richardson weights
    # c = (8 a4 - 6 a2 + a1) / 3 at their absolute values.
    if not accelerate:
        ln, mag = at(n, *sums)
        err = abs(q) / (2.0 * n) + abs(q * (zs - 0.5)) / (6.0 * n**2) + _EPS * mag + 1e-14
        return GammaEval(ln_value=ln, sign=1, abs_err_ln=err, method=Method.LIMIT)
    (a1, m1), (a2, m2), (a4, m4) = (at(m, s) for m, s in zip((n, 2 * n, 4 * n), sums))
    b1 = 2.0 * a2 - a1
    b2 = 2.0 * a4 - a2
    c = (4.0 * b2 - b1) / 3.0
    # |c - b2| estimates the d_2 order; the weights leave d_3 / 8n^3, which
    # outgrows that estimate once z is not small against n
    err = abs(c - b2) + q * q / (96.0 * n**3) + _EPS * (8.0 * m4 + 6.0 * m2 + m1) / 3.0 + 1e-13
    return GammaEval(ln_value=c, sign=1, abs_err_ln=err, method=Method.LIMIT)


@lru_cache(maxsize=_MEMO_SIZE)
def _limit_sums(z: float, n: int, accelerate: bool, extra: int) -> tuple[float, ...]:
    """sum_{j < m + extra} log(z + j) at m = n, 2n, 4n (at m = n alone unless ``accelerate``)."""
    import numpy as np

    # One buffer of log(z + j), filled in place and shared by every index:
    # fresh arrays of this size cost more in page faults than the logs.
    logs = np.arange((4 * n if accelerate else n) + extra, dtype=float)
    logs += z
    np.log(logs, out=logs)
    return tuple(float(np.sum(logs[: m + extra])) for m in ((n, 2 * n, 4 * n) if accelerate else (n,)))


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
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"gamma_integral requires x > 0, got {x!r}")
    if not (math.isfinite(a_scale) and a_scale > 0):
        raise DomainError(f"a_scale must be a positive real, got {a_scale!r}")
    p, k = params.p, params.k
    z = x / k
    m = max(z - 1.0 / k, 1.0)
    ln_k = math.log(k)
    res = _power_integral((
        (x, 1.0, lambda u, lu: -m * np.expm1(k * lu)),
        (1.0, 1.0, lambda r, lr: -(z + 1.0) * lr - m * np.expm1(-lr) - ln_k),
    ))
    ln_a, ln_m, ln_c, ln_res = math.log(a_scale), math.log(m), math.log(a_scale / p), math.log(res.value)
    ln = z * ln_a + z * (ln_m - ln_c) - m + ln_res
    # the quadrature's error, plus 4 eps times the magnitudes of the logs summed
    err = res.abs_err / res.value + 4.0 * _EPS * (z * (abs(ln_a) + abs(ln_m) + abs(ln_c) + 1.0) + m + abs(ln_res))
    return GammaEval(ln_value=ln, sign=1, abs_err_ln=err, method=Method.INTEGRAL)


def gamma_euler_product(params: PkParams, x: float, terms: int = 100_000) -> GammaEval:
    """Euler-product evaluator with the consistent prefactor p^(x/k)/x.

    The log of the n-th factor is z log1p(1/n) - log1p(z/n), whose tail
    expands as (z^2-z)/2n^2 + (z-z^3)/3n^3 + (z^4-z)/4n^4 + O(n^-5); summing
    those orders analytically past N buys ~N^3 worth of extra terms.  That
    expansion needs x/k < terms.
    """
    _require_params(params)
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"gamma_euler_product requires x > 0, got {x!r}")
    if not (isinstance(terms, int) and terms >= 10):
        raise DomainError(f"terms must be an integer >= 10, got {terms!r}")
    z = x / params.k
    _require_inside_tail(z, terms)
    s = _euler_body(z, terms)
    N = float(terms)
    tail = (
        (z * z - z) / 2.0 * _tail_s2(N)
        + (z - z**3) / 3.0 * _tail_s3(N)
        + (z**4 - z) / 4.0 * _tail_s4(N)
    )
    ln = z * math.log(params.p) - math.log(x) + s + tail
    err = (abs(z) ** 5 + abs(z)) / (4.0 * N**4) + 1e-12
    return GammaEval(ln_value=ln, sign=1, abs_err_ln=err, method=Method.EULER_PRODUCT)


@lru_cache(maxsize=_MEMO_SIZE)
def _euler_body(z: float, terms: int) -> float:
    """sum_{n=1..terms} z log1p(1/n) - log1p(z/n), smallest terms first."""
    import numpy as np

    n = np.arange(1, terms + 1, dtype=float)
    body = z * np.log1p(1.0 / n) - np.log1p(z / n)
    return float(np.sum(body[::-1]))


@lru_cache(maxsize=_MEMO_SIZE)
def _reciprocal_sums(z: float, terms: int, damped: bool) -> tuple[float, int, float]:
    """The log of prod_{n=1..terms} (1 + z/n), each factor times e^(-z/n) when ``damped``.

    Returns the sum of log|factor| over the factors n = 1..m0 that are
    negative at z < 0 (log1p cannot take them), the sign of their product,
    and the sum over the rest, smallest terms first.  Off the pole lattice no
    factor is zero.
    """
    import numpy as np

    m0 = min(terms, max(0, math.ceil(-z) - 1)) if z < 0 else 0
    sign = 1
    head = 0.0
    for n in range(1, m0 + 1):
        f = 1.0 + z / n
        if f < 0.0:
            sign = -sign
        head += math.log(abs(f)) - z / n if damped else math.log(abs(f))
    r = z / np.arange(m0 + 1, terms + 1, dtype=float)
    body = np.log1p(r) - r if damped else np.log1p(r)
    return head, sign, float(np.sum(body[::-1]))


def _product_tail(z: float, N: float) -> float:
    """sum over n > N of log(1 + z/n) - z/n, to order z^4."""
    return -(z * z) / 2.0 * _tail_s2(N) + z**3 / 3.0 * _tail_s3(N) - z**4 / 4.0 * _tail_s4(N)


def gamma_weierstrass_recip(params: PkParams, x: float, terms: int = 100_000) -> GammaEval:
    """Reciprocal evaluator (x/p^(x/k)) e^(x gamma / k) prod (1+x/nk) e^(-x/nk).

    Valid for negative non-pole x as well: the product has no positivity
    restriction.  On the pole lattice the reciprocal vanishes identically,
    so a zero eval (ln = -inf) is returned rather than raising.  The tail
    correction needs |x/k| < terms.
    """
    _require_params(params)
    if not (isinstance(terms, int) and terms >= 10):
        raise DomainError(f"terms must be an integer >= 10, got {terms!r}")
    # pole_check also rejects a non-finite x with DomainError
    if pole_check(params, x).is_pole:
        return GammaEval(ln_value=-math.inf, sign=1, abs_err_ln=0.0, method=Method.WEIERSTRASS)
    z = x / params.k
    _require_inside_tail(z, terms)
    head, sign, body = _reciprocal_sums(z, terms, True)
    prod_ln = head + body + _product_tail(z, float(terms))
    ln = math.log(abs(x)) - z * math.log(params.p) + z * EULER_GAMMA + prod_ln
    sign = sign * (1 if x > 0 else -1)
    err = (abs(z) ** 5 + abs(z)) / (4.0 * float(terms) ** 4) + 1e-12
    return GammaEval(ln_value=ln, sign=sign, abs_err_ln=err, method=Method.WEIERSTRASS)


def gamma_limit_product_recip(params: PkParams, x: float, terms: int = 100_000) -> GammaEval:
    """Reciprocal via the limit product (x/p^(x/k)) lim N^(-x/k) prod (1+x/nk).

    Equivalent to the Weierstrass form but free of the Euler constant: the
    partial product supplies z*(H_N - log N) itself.  Corrected past N by
    the harmonic remainder z*(1/2N - 1/12N^2) and the usual product tail,
    which needs |x/k| < terms.
    """
    _require_params(params)
    if not (isinstance(terms, int) and terms >= 10):
        raise DomainError(f"terms must be an integer >= 10, got {terms!r}")
    # pole_check also rejects a non-finite x with DomainError
    if pole_check(params, x).is_pole:
        return GammaEval(ln_value=-math.inf, sign=1, abs_err_ln=0.0, method=Method.LIMIT)
    z = x / params.k
    _require_inside_tail(z, terms)
    N = float(terms)
    head, sign, body = _reciprocal_sums(z, terms, False)
    tail = _product_tail(z, N)
    harmonic_residual = z * (1.0 / (2.0 * N) - 1.0 / (12.0 * N**2))
    ln = (
        math.log(abs(x))
        - z * math.log(params.p)
        + head
        + body
        - z * math.log(N)
        + tail
        - harmonic_residual
    )
    sign = sign * (1 if x > 0 else -1)
    err = (abs(z) ** 5 + abs(z)) / (4.0 * N**4) + abs(z) / (6.0 * N**3) + 1e-12
    return GammaEval(ln_value=ln, sign=sign, abs_err_ln=err, method=Method.LIMIT)
