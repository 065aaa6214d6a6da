"""The two-parameter Beta function and the Psi/polygamma family.

Beta reduces to (1/k) B(x/k, y/k) and never sees p (it cancels in the
defining Gamma ratio); three independent integral representations are kept
for cross-checking.  The Psi family is normalized as the true logarithmic
derivative of the family Gamma,

    psi(x) = d/dx log G(x) = log(p)/k + digamma(x/k)/k,

and all series and polygamma forms below carry the same 1/k normalization
so that they are derivatives of one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    _EPS,
    _digamma_array,
    _tail_s2,
    _tail_s3,
    _tail_s4,
    _tail_s5,
    EULER_GAMMA,
    DomainError,
    EvalReal,
    Method,
    PkParams,
    PoleError,
    digamma_classical,
    ln_gamma_classical,
    pole_check,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_semiaxis, integrate_unit

__all__ = [
    "BetaArgs",
    "beta_closed",
    "beta_integral",
    "psi",
    "psi_printed",
    "psi_series",
    "ln_gamma_via_psi",
    "polygamma",
    "polygamma_printed",
    "k_zeta",
    "BETA_FORMS",
    "PSI_SERIES_FORMS",
]

BETA_FORMS = ("unit", "symmetric", "semiaxis")
PSI_SERIES_FORMS = ("3.9", "3.10")


@dataclass(frozen=True)
class BetaArgs:
    """Both arguments strictly positive; p rides along but cancels."""

    x: float
    y: float
    params: PkParams

    def __post_init__(self) -> None:
        for name in ("x", "y"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be a positive real, got {v!r}")


def beta_closed(args: BetaArgs) -> EvalReal:
    """(1/k) B(x/k, y/k) through the classical log-gamma kernel."""
    k = args.params.k
    a, b = args.x / k, args.y / k
    terms = (ln_gamma_classical(a), ln_gamma_classical(b), ln_gamma_classical(a + b))
    lnk = math.log(k)
    ln = terms[0].ln_value + terms[1].ln_value - terms[2].ln_value - lnk
    # each log-gamma's own error, plus the rounding of the sum of the logs
    err_ln = sum(t.abs_err_ln + _EPS * abs(t.ln_value) for t in terms) + _EPS * abs(lnk)
    value = math.exp(ln)
    err = value * (1e-14 * (1 + abs(ln)) + err_ln)
    return EvalReal(value=value, abs_err=err, method=Method.CLOSED)


def beta_integral(args: BetaArgs, form: str = "unit", quad: QuadratureSpec = DEFAULT_SPEC) -> EvalReal:
    """One of the three integral representations.

    unit:       (1/k) int_0^1 t^(x/k-1) (1-t)^(y/k-1) dt
    symmetric:  (1/k) int_0^1 (t^(x/k-1) + t^(y/k-1)) (1+t)^(-(x+y)/k) dt
    semiaxis:   int_0^inf t^(x-1) (1+t^k)^(-(x+y)/k) dt

    The unit form is integrated as two halves with the upper half reflected
    onto (0, 1/2), so each piece is singular only at the origin where the
    quadrature grid is dense.
    """
    import numpy as np

    k = args.params.k
    a, b = args.x / k, args.y / k
    if form == "unit":
        def lower(u):
            t = 0.5 * u
            return 0.5 * np.exp((a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t))

        def upper(u):
            s = 0.5 * u  # distance below 1 in the original variable
            return 0.5 * np.exp((b - 1.0) * np.log(s) + (a - 1.0) * np.log1p(-s))

        lo = integrate_unit(lower, quad)
        hi = integrate_unit(upper, quad)
        value = (lo.value + hi.value) / k
        err = (lo.abs_err + hi.abs_err) / k
    elif form == "symmetric":
        def integrand(t):
            lt = np.log(t)
            damp = -(a + b) * np.log1p(t)
            return np.exp((a - 1.0) * lt + damp) + np.exp((b - 1.0) * lt + damp)

        res = integrate_unit(integrand, quad)
        value, err = res.value / k, res.abs_err / k
    elif form == "semiaxis":
        x, y = args.x, args.y

        def integrand(t):
            lt = np.log(t)
            return np.exp((x - 1.0) * lt - (x + y) / k * np.log1p(np.exp(k * lt)))

        res = integrate_semiaxis(integrand, quad)
        value, err = res.value, res.abs_err
    else:
        raise DomainError(f"form must be one of {BETA_FORMS}, got {form!r}")
    return EvalReal(value=value, abs_err=err, method=Method.INTEGRAL)


def psi(params: PkParams, x: float) -> EvalReal:
    """log(p)/k + digamma(x/k)/k, the logarithmic derivative of the family Gamma."""
    if pole_check(params, x).is_pole:
        raise PoleError(f"psi: x={x} lies on the pole lattice of k={params.k}")
    k = params.k
    z = x / k
    v = math.log(params.p) / k + digamma_classical(z) / k
    err = 1e-14 * (1.0 + abs(v))
    if z < 0.0:
        # the rounding of z = x/k, amplified near the poles by
        # psi'(z) + psi'(1-z) = (pi / sin(pi z))^2
        err += 4.0 * _EPS * (1.0 + abs(z)) * (math.pi / math.sin(math.pi * (z - round(z)))) ** 2 / k
    return EvalReal(value=v, abs_err=err, method=Method.CLOSED)


def psi_printed(params: PkParams, x: float) -> float:
    """The un-normalized variant log(p)/k + digamma(x/k), without 1/k.

    Internally consistent with the un-normalized series forms but not the
    derivative of log G; kept for the audit only.
    """
    if pole_check(params, x).is_pole:
        raise PoleError(f"psi_printed: x={x} lies on the pole lattice of k={params.k}")
    return math.log(params.p) / params.k + digamma_classical(x / params.k)


def psi_series(params: PkParams, x: float, form: str = "3.9", terms: int = 100_000) -> EvalReal:
    """Series route for psi, 1/k-normalized, with analytic tail corrections.

    form "3.9":  log(p)/k - g/k - 1/x + (x/k) sum_{n>=1} 1/(n (x+nk))
    form "3.10": log(p)/k - g/k + ((x-k)/k) sum_{n>=0} 1/((n+1)(x+nk))

    Raw truncation converges like 1/N; the corrections push the residual to
    O(1/N^4)-level so the default budget leaves nothing visible at 1e-9.
    """
    import numpy as np

    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"psi_series requires x > 0, got {x!r}")
    if not (isinstance(terms, int) and terms >= 10):
        raise DomainError(f"terms must be an integer >= 10, got {terms!r}")
    p, k = params.p, params.k
    N = float(terms)
    base = math.log(p) / k - EULER_GAMMA / k
    if form == "3.9":
        n = np.arange(1, terms + 1, dtype=float)
        s = float(np.sum((1.0 / (n * (x + n * k)))[::-1]))
        tail = (
            _tail_s2(N) / k
            - x / k**2 * _tail_s3(N)
            + x**2 / k**3 * _tail_s4(N)
            - x**3 / k**4 * _tail_s5(N)
        )
        v = base - 1.0 / x + (x / k) * (s + tail)
        err = (x / k) * (x**4 / k**5) / (4.0 * N**4) + 1e-13
    elif form == "3.10":
        n = np.arange(0, terms + 1, dtype=float)
        s = float(np.sum((1.0 / ((n + 1.0) * (x + n * k)))[::-1]))
        # terms expand as (1/k n^2)(1 - (1 + x/k)/n + (1 + x/k + (x/k)^2)/n^2 - ...)
        w = x / k
        tail = (
            _tail_s2(N) / k
            - (1.0 + w) / k * _tail_s3(N)
            + (1.0 + w + w * w) / k * _tail_s4(N)
            - (1.0 + w + w * w + w**3) / k * _tail_s5(N)
        )
        v = base + (x - k) / k * (s + tail)
        err = abs(x - k) / k * (1.0 + w**4) / (k * N**4) + 1e-13
    else:
        raise DomainError(f"form must be one of {PSI_SERIES_FORMS}, got {form!r}")
    return EvalReal(value=v, abs_err=err, method=Method.SERIES)


def ln_gamma_via_psi(params: PkParams, x: float, quad: QuadratureSpec = DEFAULT_SPEC) -> EvalReal:
    """log G(x) recovered as int_1^x psi(t) dt + log G(1).

    The integration constant log G(1) = log(p^(1/k) Gamma(1/k) / k) is
    required; the antiderivative alone is only defined up to it.
    """
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"ln_gamma_via_psi requires x > 0, got {x!r}")
    p, k = params.p, params.k
    ln_at_one = math.log(p) / k - math.log(k) + ln_gamma_classical(1.0 / k).ln_value
    span = x - 1.0
    if span == 0.0:
        return EvalReal(value=ln_at_one, abs_err=1e-14, method=Method.INTEGRAL)
    lnp_k = math.log(p) / k

    def integrand(u):
        t = 1.0 + span * u
        return span * (lnp_k + _digamma_array(t / k) / k)

    res = integrate_unit(integrand, quad)
    return EvalReal(value=ln_at_one + res.value, abs_err=res.abs_err + 1e-14, method=Method.INTEGRAL)


def k_zeta(x: float, r: int, k: float, terms: int = 10_000) -> EvalReal:
    """zeta_k(x, r) = sum_{n>=0} (x + nk)^-r for r >= 2, x > 0, k > 0.

    Partial sum of ``terms`` terms plus the Euler-Maclaurin continuation;
    the reported abs_err is the next correction's magnitude, far inside the
    coarse integral bound (x+Nk)^(1-r) / ((r-1) k).
    """
    import numpy as np

    if not (isinstance(r, int) and r >= 2):
        raise DomainError(f"r must be an integer >= 2 for convergence, got {r!r}")
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"x must be a positive real, got {x!r}")
    if not (math.isfinite(k) and k > 0):
        raise DomainError(f"k must be a positive real, got {k!r}")
    if not (isinstance(terms, int) and terms >= 2):
        raise DomainError(f"terms must be an integer >= 2, got {terms!r}")
    n = np.arange(0, terms, dtype=float)
    s = float(np.sum(((x + n * k) ** -float(r))[::-1]))
    # continuation from n = terms: integral + f/2 - f'/12 + f'''/720
    a = x + terms * k
    f0 = a ** -float(r)
    integral = a ** (1.0 - r) / ((r - 1.0) * k)
    fp = -r * a ** -(r + 1.0) * k
    fppp = -r * (r + 1.0) * (r + 2.0) * a ** -(r + 3.0) * k**3
    value = s + integral + 0.5 * f0 - fp / 12.0 + fppp / 720.0
    # each term (x + nk)^-r carries the rounding of x + nk raised to the r-th power
    err = abs(fppp) / 720.0 + _EPS * (r + 2) * value
    return EvalReal(value=value, abs_err=err, method=Method.SERIES)


def polygamma(params: PkParams, x: float, r: int) -> EvalReal:
    """r-th derivative of log G: (-1)^r (r-1)! zeta_k(x, r); independent of p.

    Orders past 171 are rejected: (r-1)! no longer fits in a double.
    """
    if not (isinstance(r, int) and 2 <= r <= 171):
        raise DomainError(f"r must be an integer in [2, 171], got {r!r}")
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"x must be a positive real, got {x!r}")
    z = k_zeta(x, r, params.k)
    coeff = (-1.0) ** r * math.factorial(r - 1)
    return EvalReal(value=coeff * z.value, abs_err=abs(coeff) * z.abs_err, method=Method.SERIES)


def polygamma_printed(params: PkParams, x: float, r: int) -> float:
    """The variant with a spurious extra factor k; audit material only."""
    return params.k * polygamma(params, x, r).value
