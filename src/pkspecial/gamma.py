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
from dataclasses import dataclass

import numpy as np

from .core import (
    _EPS,
    _LN_OVERFLOW,
    _tail_s2,
    _tail_s3,
    _tail_s4,
    EULER_GAMMA,
    DomainError,
    Method,
    PkParams,
    PoleError,
    ln_gamma_classical,
    pole_check,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_semiaxis

__all__ = [
    "GammaEval",
    "gamma_closed",
    "gamma_limit",
    "gamma_integral",
    "gamma_euler_product",
    "gamma_weierstrass_recip",
    "gamma_rescale",
]


@dataclass(frozen=True)
class GammaEval:
    """A family-Gamma value in log space: sign * exp(ln_value)."""

    ln_value: float
    sign: int
    abs_err_ln: float
    method: Method

    @property
    def value(self) -> float:
        """Materialize the linear value (inf past the double range)."""
        if self.ln_value > _LN_OVERFLOW:
            return self.sign * math.inf
        return self.sign * math.exp(self.ln_value)


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
    ln = lnp_z - lnk + lg.value
    # the rounding of z enters z ln p once more on top of the rounding of the sum
    err = lg.abs_err + _EPS * (1.0 + 2.0 * abs(lnp_z) + abs(lnk) + abs(lg.value))
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
    The sequence converges like 1/n with leading coefficient z(z-1)/2, so
    two extrapolation levels over {n, 2n, 4n} leave an O(1/n^3) residual.
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
    # One buffer of log(z + j), filled in place and shared by every index:
    # fresh arrays of this size cost more in page faults than the logs.
    logs = np.arange((4 * n if accelerate else n) + extra, dtype=float)
    logs += z
    np.log(logs, out=logs)

    def at(m: int) -> tuple[float, float]:
        """The m-th term and the sum of the magnitudes it adds up."""
        head, tilt = math.lgamma(m + 1), power * math.log(m)
        s = float(np.sum(logs[: m + extra]))
        return head + tilt + z * lnp - s - lnk, head + abs(tilt) + abs(z * lnp) + abs(s) + abs(lnk)

    # Each term cancels sums of size ~lgamma(m+1) down to O(1): its rounding is
    # eps times those magnitudes, carried through the Richardson weights
    # c = (8 a4 - 6 a2 + a1) / 3 at their absolute values.
    if not accelerate:
        ln, mag = at(n)
        err = abs(z * (z - 1.0)) / (2.0 * n) + _EPS * mag + 1e-14
        return GammaEval(ln_value=ln, sign=1, abs_err_ln=err, method=Method.LIMIT)
    (a1, m1), (a2, m2), (a4, m4) = at(n), at(2 * n), at(4 * n)
    b1 = 2.0 * a2 - a1
    b2 = 2.0 * a4 - a2
    c = (4.0 * b2 - b1) / 3.0
    err = abs(c - b2) + _EPS * (8.0 * m4 + 6.0 * m2 + m1) / 3.0 + 1e-13
    return GammaEval(ln_value=c, sign=1, abs_err_ln=err, method=Method.LIMIT)


def gamma_integral(
    params: PkParams,
    x: float,
    a_scale: float = 1.0,
    quad: QuadratureSpec = DEFAULT_SPEC,
) -> GammaEval:
    """Integral-representation evaluator a^(x/k) * int_0^inf e^(-a t^k / p) t^(x-1) dt.

    The result is independent of the free scale a > 0 (a=1 is the plain
    representation).  Requires x > 0 for integrability at the origin.
    """
    _require_params(params)
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"gamma_integral requires x > 0, got {x!r}")
    if not (math.isfinite(a_scale) and a_scale > 0):
        raise DomainError(f"a_scale must be a positive real, got {a_scale!r}")
    p, k = params.p, params.k
    xm1 = x - 1.0
    coeff = a_scale / p

    def integrand(t):
        # log-robust: t^k may overflow to inf, exp(-inf) flushes to 0
        return np.exp(xm1 * np.log(t) - coeff * np.exp(k * np.log(t)))

    res = integrate_semiaxis(integrand, quad)
    z = x / k
    ln = z * math.log(a_scale) + math.log(res.value)
    err = res.abs_err / res.value + 1e-15 * (1.0 + abs(ln))
    return GammaEval(ln_value=ln, sign=1, abs_err_ln=err, method=Method.INTEGRAL)


def gamma_euler_product(params: PkParams, x: float, terms: int = 100_000) -> GammaEval:
    """Euler-product evaluator with the consistent prefactor p^(x/k)/x.

    The log of the n-th factor is z log1p(1/n) - log1p(z/n), whose tail
    expands as (z^2-z)/2n^2 + (z-z^3)/3n^3 + (z^4-z)/4n^4 + O(n^-5); summing
    those orders analytically past N buys ~N^3 worth of extra terms.
    """
    _require_params(params)
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"gamma_euler_product requires x > 0, got {x!r}")
    if not (isinstance(terms, int) and terms >= 10):
        raise DomainError(f"terms must be an integer >= 10, got {terms!r}")
    z = x / params.k
    n = np.arange(1, terms + 1, dtype=float)
    body = z * np.log1p(1.0 / n) - np.log1p(z / n)
    s = float(np.sum(body[::-1]))
    N = float(terms)
    tail = (
        (z * z - z) / 2.0 * _tail_s2(N)
        + (z - z**3) / 3.0 * _tail_s3(N)
        + (z**4 - z) / 4.0 * _tail_s4(N)
    )
    ln = z * math.log(params.p) - math.log(x) + s + tail
    err = (abs(z) ** 5 + abs(z)) / (4.0 * N**4) + 1e-12
    return GammaEval(ln_value=ln, sign=1, abs_err_ln=err, method=Method.EULER_PRODUCT)


def _weierstrass_recip_ln(z: float, terms: int) -> tuple[float, int]:
    """log|prod (1+z/n) e^(-z/n)| with its sign, tail-corrected."""
    m0 = min(terms, max(0, math.ceil(-z) - 1)) if z < 0 else 0
    sign = 1
    head = 0.0
    for n in range(1, m0 + 1):
        f = 1.0 + z / n
        if f == 0.0:
            return -math.inf, 0
        if f < 0.0:
            sign = -sign
        head += math.log(abs(f)) - z / n
    n = np.arange(m0 + 1, terms + 1, dtype=float)
    r = z / n
    body = float(np.sum((np.log1p(r) - r)[::-1]))
    N = float(terms)
    tail = -(z * z) / 2.0 * _tail_s2(N) + z**3 / 3.0 * _tail_s3(N) - z**4 / 4.0 * _tail_s4(N)
    return head + body + tail, sign


def gamma_weierstrass_recip(params: PkParams, x: float, terms: int = 100_000) -> GammaEval:
    """Reciprocal evaluator (x/p^(x/k)) e^(x gamma / k) prod (1+x/nk) e^(-x/nk).

    Valid for negative non-pole x as well: the product has no positivity
    restriction.  On the pole lattice the reciprocal vanishes identically,
    so a zero eval (ln = -inf) is returned rather than raising.
    """
    _require_params(params)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if not (isinstance(terms, int) and terms >= 10):
        raise DomainError(f"terms must be an integer >= 10, got {terms!r}")
    if pole_check(params, x).is_pole:
        return GammaEval(ln_value=-math.inf, sign=1, abs_err_ln=0.0, method=Method.WEIERSTRASS)
    z = x / params.k
    prod_ln, prod_sign = _weierstrass_recip_ln(z, terms)
    ln = math.log(abs(x)) - z * math.log(params.p) + z * EULER_GAMMA + prod_ln
    sign = prod_sign * (1 if x > 0 else -1)
    err = (abs(z) ** 5 + abs(z)) / (4.0 * float(terms) ** 4) + 1e-12
    return GammaEval(ln_value=ln, sign=sign, abs_err_ln=err, method=Method.WEIERSTRASS)


def gamma_limit_product_recip(params: PkParams, x: float, terms: int = 100_000) -> GammaEval:
    """Reciprocal via the limit product (x/p^(x/k)) lim N^(-x/k) prod (1+x/nk).

    Equivalent to the Weierstrass form but free of the Euler constant: the
    partial product supplies z*(H_N - log N) itself.  Corrected past N by
    the harmonic remainder z*(1/2N - 1/12N^2) and the usual product tail.
    """
    _require_params(params)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if not (isinstance(terms, int) and terms >= 10):
        raise DomainError(f"terms must be an integer >= 10, got {terms!r}")
    if pole_check(params, x).is_pole:
        return GammaEval(ln_value=-math.inf, sign=1, abs_err_ln=0.0, method=Method.LIMIT)
    z = x / params.k
    N = float(terms)
    m0 = min(terms, max(0, math.ceil(-z) - 1)) if z < 0 else 0
    sign = 1
    head = 0.0
    for n in range(1, m0 + 1):
        f = 1.0 + z / n
        if f < 0.0:
            sign = -sign
        head += math.log(abs(f))
    n = np.arange(m0 + 1, terms + 1, dtype=float)
    body = float(np.sum(np.log1p(z / n)[::-1]))
    tail = -(z * z) / 2.0 * _tail_s2(N) + z**3 / 3.0 * _tail_s3(N) - z**4 / 4.0 * _tail_s4(N)
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


def gamma_rescale(src: PkParams, target_k: float, target_p: float, x: float) -> GammaEval:
    """Family value at (r, s) = src computed through the (p, k) = target family:

        G_{r,s}(x) = (k/s) (r/p)^(x/s) G_{p,k}(k x / s).

    Agrees with gamma_closed(src, x) whenever the transformed argument is
    off the target family's pole lattice.
    """
    _require_params(src)
    target = PkParams(target_p, target_k)
    r, s = src.p, src.k
    inner = gamma_closed(target, target_k * x / s)
    ln = math.log(target_k / s) + (x / s) * math.log(r / target_p) + inner.ln_value
    return GammaEval(
        ln_value=ln,
        sign=inner.sign,
        abs_err_ln=inner.abs_err_ln + 4.6e-16 * (1.0 + abs(ln)),
        method=Method.CLOSED,
    )
