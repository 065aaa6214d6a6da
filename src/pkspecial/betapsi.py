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
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    _EPS,
    _MEMO_SIZE,
    _PSI_ASYMPTOTIC,
    _digamma_array,
    _require_inside_tail,
    _tail_s2,
    _tail_s3,
    _tail_s4,
    _tail_s5,
    _tail_gaps,
    EULER_GAMMA,
    DomainError,
    EvalReal,
    Method,
    OverflowNote,
    PkParams,
    PoleError,
    digamma_classical,
    ln_gamma_classical,
    pole_check,
)
from .quadrature import _power_integral, _split_beta_kernel, integrate_unit

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
    a, b = args.x / k, args.y / k
    if form == "semiaxis":
        def log_g(t, lt):
            return -(a + b) * np.log1p(np.exp(k * lt))

        return _power_integral(((args.x, 1.0, log_g), (args.y, 1.0, log_g)))
    if form == "unit":
        res = _split_beta_kernel(a, b, 0.0)
    elif form == "symmetric":
        def log_g(t, lt):
            return -(a + b) * np.log1p(t)

        res = _power_integral(((a, 1.0, log_g), (b, 1.0, log_g)))
    else:
        raise DomainError(f"form must be one of {BETA_FORMS}, got {form!r}")
    return EvalReal(value=res.value / k, abs_err=res.abs_err / k, method=Method.INTEGRAL)


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

    Raw truncation converges like 1/N; the Euler-Maclaurin tails of the
    expansion in x/(nk) for n > terms, which needs x/k < terms, leave
    O((x/k)^5/N^5).  abs_err bounds what they leave (the first term each tail
    sum drops and the n^-6 term of the expansion) plus the rounding,
    4 eps times the sum of the parts' magnitudes.
    """
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"psi_series requires x > 0, got {x!r}")
    if not (isinstance(terms, int) and terms >= 10):
        raise DomainError(f"terms must be an integer >= 10, got {terms!r}")
    if form not in PSI_SERIES_FORMS:
        raise DomainError(f"form must be one of {PSI_SERIES_FORMS}, got {form!r}")
    p, k = params.p, params.k
    _require_inside_tail(x / k, terms)
    N = float(terms)
    base = math.log(p) / k - EULER_GAMMA / k
    s = _psi_lattice_sum(x, k, terms, form)
    w = x / k
    g2, g3, g4, g5 = _tail_gaps(N)
    if form == "3.9":
        # terms expand as (1/k n^2)(1 - w/n + w^2/n^2 - ...)
        tail = (
            _tail_s2(N) / k
            - x / k**2 * _tail_s3(N)
            + x**2 / k**3 * _tail_s4(N)
            - x**3 / k**4 * _tail_s5(N)
        )
        scale, head = w, base - 1.0 / x
        # the expansion drops at most w^4 sum_{n>N} n^-6 < w^4 / (5 N^5)
        gap = g2 + w * g3 + w**2 * g4 + w**3 * g5 + w**4 / (5.0 * N**5)
    else:
        # terms expand as (1/k n^2)(1 - h1/n + h2/n^2 - ...), h_j = 1 + w + ... + w^j
        h1 = 1.0 + w
        h2 = 1.0 + w + w * w
        h3 = 1.0 + w + w * w + w**3
        tail = _tail_s2(N) / k - h1 / k * _tail_s3(N) + h2 / k * _tail_s4(N) - h3 / k * _tail_s5(N)
        scale, head = (x - k) / k, base
        # the expansion drops at most h4 sum_{n>N} n^-6 < h4 / (5 N^5)
        gap = g2 + h1 * g3 + h2 * g4 + h3 * g5 + (h3 + w**4) / (5.0 * N**5)
    v = head + scale * (s + tail)
    parts = (abs(math.log(p)) + EULER_GAMMA) / k + abs(head) + abs(scale * (s + tail))
    err = abs(scale) * gap / k + 4.0 * _EPS * parts
    return EvalReal(value=v, abs_err=err, method=Method.SERIES)


@lru_cache(maxsize=_MEMO_SIZE)
def _psi_lattice_sum(x: float, k: float, terms: int, form: str) -> float:
    """sum_{n=1..terms} 1/(n (x + nk)) ("3.9") or sum_{n=0..terms} 1/((n+1)(x + nk)) ("3.10")."""
    import numpy as np

    if form == "3.9":
        n = np.arange(1, terms + 1, dtype=float)
        return float(np.sum((1.0 / (n * (x + n * k)))[::-1]))
    n = np.arange(0, terms + 1, dtype=float)
    return float(np.sum((1.0 / ((n + 1.0) * (x + n * k)))[::-1]))


def ln_gamma_via_psi(params: PkParams, x: float) -> EvalReal:
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

    res = integrate_unit(integrand)
    return EvalReal(value=ln_at_one + res.value, abs_err=res.abs_err + 1e-14, method=Method.INTEGRAL)


def k_zeta(x: float, r: int, k: float, terms: int = 12) -> EvalReal:
    """zeta_k(x, r) = sum_{n>=0} (x + nk)^-r for r >= 2, x > 0, k > 0.

    ``terms`` terms summed directly, plus the Euler-Maclaurin tail from a = x + terms*k
    (DLMF 2.10.1): a^(1-r)/((r-1)k) + a^-r/2 + sum_j=1..7 B_2j/(2j)! (r)_(2j-1) (k/a)^(2j-1) a^-r.
    abs_err is the first omitted term plus eps (r+2) value, the rounding of (x + nk)^-r,
    plus an absolute floor for the roundings that land below the normal range.
    Past the double range the value is inf, with an OverflowNote.
    """
    if not (isinstance(r, int) and r >= 2):
        raise DomainError(f"r must be an integer >= 2 for convergence, got {r!r}")
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"x must be a positive real, got {x!r}")
    if not (math.isfinite(k) and k > 0):
        raise DomainError(f"k must be a positive real, got {k!r}")
    if not (isinstance(terms, int) and terms >= 2):
        raise DomainError(f"terms must be an integer >= 2, got {terms!r}")
    a = x + terms * k
    w = k / a
    # B_2j/(2j)! (r)_(2j-1) = _PSI_ASYMPTOTIC[j-1] C(r+2j-2, 2j-1), j = 1..7 (j-1 below)
    poly = sum(c * math.comb(r + 2 * j, 2 * j + 1) * w ** (2 * j) for j, c in enumerate(_PSI_ASYMPTOTIC))
    try:
        f0 = a**-r
        tail = a ** (1 - r) / ((r - 1) * k) + f0 * (0.5 + w * poly)
        value = sum(((x + n * k) ** -r for n in reversed(range(terms))), tail)  # smallest first
    except OverflowError:
        value = math.inf
    if value == math.inf:
        warnings.warn(f"zeta_k({x}, {r}) overflows double precision", OverflowNote, stacklevel=2)
        return EvalReal(value=value, abs_err=value, method=Method.SERIES)
    # below the normal range a result is off by up to one spacing 2^-1074 absolute,
    # which eps (r+2) value does not cover: one for each power (x + nk)^-r and for
    # a^-r and a^(1-r), which the tail scales by 0.5 + w*poly and by 1/((r-1)k), and
    # half of one each for that product and that quotient; sums of subnormals are exact
    floor = (terms + abs(0.5 + w * poly) + 1.0 / ((r - 1) * k) + 1.0) * math.ulp(0.0)
    err = 3617 / 8160 * math.comb(r + 14, 15) * w**15 * f0 + _EPS * (r + 2) * value + floor  # |B_16|/16
    return EvalReal(value=value, abs_err=err, method=Method.SERIES)


def polygamma(params: PkParams, x: float, r: int) -> EvalReal:
    """r-th derivative of log G: (-1)^r (r-1)! zeta_k(x, r); independent of p.

    Orders past 171 are rejected: (r-1)! no longer fits in a double.  Past
    the double range the value is a signed inf, with an OverflowNote.
    """
    if not (isinstance(r, int) and 2 <= r <= 171):
        raise DomainError(f"r must be an integer in [2, 171], got {r!r}")
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"x must be a positive real, got {x!r}")
    z = k_zeta(x, r, params.k)
    coeff = (-1.0) ** r * math.factorial(r - 1)
    value = coeff * z.value
    if math.isinf(value):
        if math.isfinite(z.value):
            warnings.warn(f"polygamma({x}, {r}) overflows double precision", OverflowNote, stacklevel=2)
        return EvalReal(value=value, abs_err=math.inf, method=Method.SERIES)
    return EvalReal(value=value, abs_err=abs(coeff) * z.abs_err, method=Method.SERIES)


def polygamma_printed(params: PkParams, x: float, r: int) -> float:
    """The variant with a spurious extra factor k; audit material only."""
    return params.k * polygamma(params, x, r).value
