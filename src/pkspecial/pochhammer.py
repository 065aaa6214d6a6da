"""The two-parameter Pochhammer symbol and its identities.

The symbol is the n-factor rising product starting at x*p/k with step p,

    (x*p/k) * (x*p/k + p) * ... * (x*p/k + (n-1)*p)  =  p**n * (x/k)_n,

with (z)_n the classical rising factorial.  Four independent evaluation
routes are provided (direct product, elementary-symmetric expansion,
classical reduction, Gamma ratio) plus parameter derivatives and
rescalings between step sizes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import (
    _LN_OVERFLOW,
    DomainError,
    OverflowNote,
    PkParams,
    PoleError,
    ln_gamma_classical,
    pole_check,
)

__all__ = [
    "PochSpec",
    "poch_direct",
    "poch_ln",
    "elementary_symmetric",
    "poch_symmetric",
    "poch_reduce",
    "poch_generalized",
    "poch_gamma_ratio",
    "poch_dp",
    "poch_dk",
    "poch_dk_product",
    "poch_dk_printed",
    "poch_rescale",
]

RESCALE_MODES = ("2.8", "2.9", "2.10")


@dataclass(frozen=True)
class PochSpec:
    """Argument x, factor count n, and the (p, k) pair."""

    x: float
    n: int
    params: PkParams

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 0):
            raise DomainError(f"n must be a non-negative integer, got {self.n!r}")
        if not math.isfinite(self.x):
            raise DomainError(f"x must be finite, got {self.x!r}")


def _factors(spec: PochSpec):
    base = spec.x * spec.params.p / spec.params.k
    step = spec.params.p
    return (base + j * step for j in range(spec.n))


def _noted(out: float) -> float:
    """Pass a route's value through, warning when it nears or leaves the double range."""
    if not math.isfinite(out) or abs(out) > 1e300:
        warnings.warn(
            "Pochhammer product magnitude exceeds ~1e300; use poch_ln",
            OverflowNote,
            stacklevel=3,
        )
    return out


def poch_direct(spec: PochSpec) -> float:
    """Direct product of the n factors; the empty product (n=0) is 1."""
    out = 1.0
    for f in _factors(spec):
        out *= f
    return _noted(out)


def poch_ln(spec: PochSpec) -> tuple[float, int]:
    """(log|value|, sign) companion for large n*|x|; sign 0 at an exact zero."""
    ln = 0.0
    sign = 1
    for f in _factors(spec):
        if f == 0.0:
            return -math.inf, 0
        if f < 0.0:
            sign = -sign
        ln += math.log(abs(f))
    return ln, sign


def elementary_symmetric(values, s: int) -> float:
    """e_s of the inputs via the degree-by-degree product recurrence.

    Expanding prod_j (lambda + v_j) one factor at a time updates the
    coefficient table in place; O(n*s), stable for non-negative inputs.
    """
    values = list(values)
    if not (isinstance(s, int) and s >= 0):
        raise DomainError(f"s must be a non-negative integer, got {s!r}")
    if s > len(values):
        raise IndexError(f"s={s} exceeds the number of variables {len(values)}")
    coeff = [1.0] + [0.0] * s
    for j, v in enumerate(values, start=1):
        top = min(j, s)
        for i in range(top, 0, -1):
            coeff[i] += v * coeff[i - 1]
    return coeff[s]


def poch_symmetric(spec: PochSpec) -> float:
    """Elementary-symmetric expansion: sum_s p^n e_s(1..n-1) (x/k)^(n-s)."""
    if spec.n < 1:
        raise DomainError("the symmetric expansion needs n >= 1")
    n = spec.n
    z = spec.x / spec.params.k
    pn = spec.params.p**n
    vars_ = list(range(1, n))
    total = 0.0
    for s in range(n):
        total += pn * elementary_symmetric(vars_, s) * z ** (n - s)
    return total


def poch_reduce(spec: PochSpec) -> float:
    """Classical reduction p^n (x/k)_n, the rising factorial computed directly."""
    z = spec.x / spec.params.k
    out = spec.params.p**spec.n
    for j in range(spec.n):
        out *= z + j
    return out


def poch_generalized(spec: PochSpec, q: int) -> float:
    """Block form of the n*q-factor symbol: (p q)^(nq) prod_r ((x/k+r-1)/q)_n.

    ``spec.n`` is the per-block count; the total index n*q is implicit.
    """
    if not (isinstance(q, int) and q >= 1):
        raise DomainError(f"q must be a positive integer, got {q!r}")
    n = spec.n
    z = spec.x / spec.params.k
    out = (spec.params.p * q) ** (n * q)
    for r in range(1, q + 1):
        base = (z + r - 1) / q
        for j in range(n):
            out *= base + j
    return out


def poch_gamma_ratio(spec: PochSpec) -> float:
    """Gamma-ratio route: the family Gamma at x+nk over the one at x.

    Both x and x+nk must be off the pole lattice.  Past the double range
    the value is a signed inf, with an OverflowNote as from poch_direct.
    """
    params = spec.params
    for arg in (spec.x, spec.x + spec.n * params.k):
        if pole_check(params, arg).is_pole:
            raise PoleError(f"poch_gamma_ratio: argument {arg} is a pole")
    z = spec.x / params.k
    num = ln_gamma_classical(z + spec.n)
    den = ln_gamma_classical(z)
    ln = spec.n * math.log(params.p) + num.value - den.value
    sign = num.sign * den.sign
    return _noted(sign * math.exp(ln) if ln <= _LN_OVERFLOW else sign * math.inf)


def poch_dp(spec: PochSpec) -> float:
    """d/dp of the symbol: (n/p) times the value (p enters as p^n)."""
    if spec.n == 0:
        return 0.0
    return spec.n / spec.params.p * poch_direct(spec)


def poch_dk(spec: PochSpec) -> float:
    """d/dk of the symbol, log-derivative form.

    From value = (p/k)^n prod_j (x + j k):
        d/dk = value * ( -n/k + sum_{s=1}^{n-1} s/(x + s k) ).
    """
    if spec.n == 0:
        return 0.0
    x, k = spec.x, spec.params.k
    acc = -spec.n / k
    for s in range(1, spec.n):
        den = x + s * k
        if den == 0.0:
            raise DomainError(f"poch_dk: factor x + {s}k vanishes")
        acc += s / den
    return poch_direct(spec) * acc


def poch_dk_product(spec: PochSpec) -> float:
    """d/dk via sub-products, the route without a quotient:

        (p/k) sum_{s=1}^{n-1} s * P(x, s) * P(x+(s+1)k, n-1-s)  -  (n/k) P(x, n)

    with P the symbol itself.  Algebraically identical to poch_dk.
    """
    if spec.n == 0:
        return 0.0
    params = spec.params
    total = 0.0
    for s in range(1, spec.n):
        left = poch_direct(PochSpec(spec.x, s, params))
        right = poch_direct(PochSpec(spec.x + (s + 1) * params.k, spec.n - 1 - s, params))
        total += s * left * right
    return params.p / params.k * total - spec.n / params.k * poch_direct(spec)


def poch_dk_printed(spec: PochSpec) -> float:
    """The uncorrected d/dk variant with the full symbol inside the sum.

    Kept only so the audit can document its disagreement with finite
    differences; see poch_dk for the consistent form.
    """
    if spec.n == 0:
        return 0.0
    params = spec.params
    total = 0.0
    full = poch_direct(spec)
    for s in range(1, spec.n):
        right = poch_direct(PochSpec(spec.x + (s + 1) * params.k, spec.n - 1 - s, params))
        total += s * full * right
    return params.p / params.k * total - spec.n / params.k * full


def poch_rescale(spec: PochSpec, s_new: float, mode: str) -> float:
    """Right-hand side of the selected step-rescaling identity.

    mode "2.8":  P_p(x; n, s_new)              = P_p(k x / s_new; n, k)
    mode "2.9":  P_p(x; n, s_new)              = (p/s_new)^n P_{s_new}(k x / s_new; n, k)
    mode "2.10": P_p(x; n, k)                  = (p/s_new)^n P_{s_new}(x; n, k)

    The left sides are what poch_direct produces on the matching spec; the
    return value is the right-side evaluation.
    """
    if not (math.isfinite(s_new) and s_new > 0):
        raise DomainError(f"s_new must be a positive real, got {s_new!r}")
    p, k = spec.params.p, spec.params.k
    if mode == "2.8":
        return poch_direct(PochSpec(k * spec.x / s_new, spec.n, PkParams(p, k)))
    if mode == "2.9":
        inner = poch_direct(PochSpec(k * spec.x / s_new, spec.n, PkParams(s_new, k)))
        return (p / s_new) ** spec.n * inner
    if mode == "2.10":
        inner = poch_direct(PochSpec(spec.x, spec.n, PkParams(s_new, k)))
        return (p / s_new) ** spec.n * inner
    raise DomainError(f"mode must be one of {RESCALE_MODES}, got {mode!r}")
