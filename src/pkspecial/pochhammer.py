"""The two-parameter Pochhammer symbol and its identities.

The symbol is the n-factor rising product starting at x*p/k with step p,

    (x*p/k) * (x*p/k + p) * ... * (x*p/k + (n-1)*p)  =  p**n * (x/k)_n,

with (z)_n the classical rising factorial.  Five independent evaluation
routes are provided (direct product, elementary-symmetric expansion,
classical reduction, block product, Gamma ratio) plus parameter derivatives
and rescalings between step sizes.  One range rule: where a route's plain
product, or its power p^n, is not a normal double, _carried multiplies the
same factors again with every binary exponent kept apart (_exponents, whose
pass poch_ln reads), rounding once; an inf is noted by core._note_overflow.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, repeat

from .core import (
    _EPS,
    _TINY,
    _ValueType,
    _as_index,
    _from_log,
    _gamma_product,
    _note_overflow,
    _positive_real,
    _real,
    _require_params,
    DomainError,
    PkParams,
    ln_gamma_classical,
)

__all__ = [
    "PochSpec",
    "poch_direct",
    "poch_ln",
    "poch_symmetric",
    "poch_reduce",
    "poch_generalized",
    "poch_gamma_ratio",
    "poch_dp",
    "poch_dk",
    "poch_rescale",
]

RESCALE_MODES = ("2.8", "2.9", "2.10")
_OVERFLOW = "the Pochhammer symbol overflows double precision; use poch_ln"


class PochSpec(_ValueType, namedtuple("PochSpec", "x n params")):
    """Argument x, factor count n, and the (p, k) pair."""

    __slots__ = ()
    x: float
    n: int
    params: PkParams

    def __new__(cls, x: float, n: int, params: PkParams):
        m = _as_index(n)
        if m is None or m < 0:
            raise DomainError(f"n must be a non-negative integer, got {n!r}")
        return tuple.__new__(cls, (_real("x", x), m, _require_params(params)))


def _base_step(spec: PochSpec, name: str = "x p/k") -> tuple[float, float]:
    """(x p/k, p): factor j of the symbol is x p/k + j p; x p/k is rounded once where x p is not normal."""
    x, (p, k) = spec.x, spec.params
    xp = x * p
    return _real(name, xp / k if _TINY <= abs(xp) < math.inf or not x else _carried((x, p), (k,))), p


def _power(base: float, e: int) -> float:
    """base ** e, or a signed inf where that leaves the double range."""
    try:
        return base**e
    except OverflowError:
        return math.copysign(math.inf, base) if e % 2 else math.inf


def _exponents(factors, divisors=()) -> tuple[float, int]:
    """(m, e), 0.5 <= |m| < 1, with m * 2**e the product of factors over that of divisors.

    Each factor, divisor and partial product keeps its binary exponent apart (math.frexp), so none
    leaves the range; m is a signed 0 at an exact zero factor, nan where another overflowed to inf.
    """
    m, e = 1.0, 0
    for f in factors:
        f, fe = math.frexp(f)
        m, me = math.frexp(m * f)
        e += fe + me
    for d in divisors:
        d, de = math.frexp(d)
        m, me = math.frexp(m / d)
        e += me - de
    return m, e


def _carried(factors, divisors=()) -> float:
    """The product of factors over that of divisors (_exponents), rounded into the double range once.

    It has the plain loop's bits wherever that loop stays normal, is within its n eps elsewhere, is a
    signed inf only past the range, and is a 0 signed as the loop's at an exact zero factor (0.0 where
    another factor itself overflowed).
    """
    m, e = _exponents(factors, divisors)
    if m != m:  # an exact zero factor times one that overflowed to inf: the product is 0
        return 0.0
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def poch_direct(spec: PochSpec) -> float:
    """Direct product of the n factors; the empty product (n=0) is 1."""
    base, step = _base_step(spec)
    out = 1.0
    for j in range(spec.n):
        out *= base + j * step
    if not _TINY <= abs(out) < math.inf:
        out = _note_overflow(_carried(map(base.__add__, map(step.__mul__, range(spec.n)))), _OVERFLOW)
    return out


def poch_ln(spec: PochSpec) -> tuple[float, int]:
    """(log|value|, sign): ln|m| + e ln 2 from the factors' _exponents (m, e); (-inf, 0) at an exact zero."""
    base, step = _base_step(spec)
    m, e = _exponents(map(base.__add__, map(step.__mul__, range(spec.n))))
    if not m or m != m:  # an exact zero factor, times another that overflowed where m is nan
        return -math.inf, 0
    return math.log(abs(m)) + e * math.log(2.0), 1 if m > 0.0 else -1


def _elementary_table(values, s: int) -> list[float]:
    """[e_0, ..., e_s] of the inputs via the degree-by-degree product recurrence.

    Expanding prod_j (lambda + v_j) one factor at a time updates the
    coefficient table in place; O(n*s), stable for non-negative inputs.
    Entry i sees the same float operations whatever s >= i is.
    """
    coeff = [1.0] + [0.0] * s
    for j, v in enumerate(values, start=1):
        top = min(j, s)
        for i in range(top, 0, -1):
            coeff[i] += v * coeff[i - 1]
    return coeff


def poch_symmetric(spec: PochSpec) -> float:
    """Elementary-symmetric expansion: p^n sum_s e_s(1..n-1) (x/k)^(n-s).

    Where the terms' rounding, n eps sum_s |term|, could pass 1e-15 (n+1) |total| (they
    alternate at x/k < 0) and the sum is not exact, a DomainError names the cancellation.
    """
    if spec.n < 1:
        raise DomainError("the symmetric expansion needs n >= 1")
    n = spec.n
    if n >= 172:
        # e_(n-1) = (n-1)! overflows, so the total is never finite: skip the O(n^2) table
        return _note_overflow(_symmetric_overflow(spec), _OVERFLOW)
    p = spec.params.p
    z = _real("x/k", spec.x / spec.params.k)
    power = _power(p, n)
    # where the classical terms leave the range, the symbol's own, e_s(p, ..., (n-1) p) (p z)^(n-s), may not
    for lead in (1.0, p):
        e, lz = _elementary_table(map(lead.__mul__, range(1, n)), n - 1), lead * z
        total = size = 0.0
        for s in range(n):
            term = e[s] * _power(lz, n - s)
            total += term
            size += abs(term)
        if math.isfinite(total) or not power < 1.0:
            break
    if not math.isfinite(total):
        return _note_overflow(_symmetric_overflow(spec), _OVERFLOW)
    # at z = a / 2^d every classical term and partial sum is a multiple of 2^(-d n): fewer than 2^53 of them round nowhere
    d = z.as_integer_ratio()[1].bit_length() - 1
    if n * _EPS * size > 1e-15 * (n + 1) * abs(total) and (lead != 1.0 or size >= math.ldexp(1.0, 53 - n * d)):
        raise DomainError(f"the symmetric expansion cancels at x/k = {z!r}, n = {n}; use poch_direct")
    if lead != 1.0:  # the terms carry p^n already
        return total
    out = total * power
    if not (_TINY <= abs(out) < math.inf and _TINY <= power):
        out = _note_overflow(_carried(chain((total,), repeat(p, n))), _OVERFLOW)
    return out


def _symmetric_overflow(spec: PochSpec) -> float:
    """The symbol's signed inf where the expansion's total is not finite, else DomainError.

    Terms leave the double range before the symbol does, and at x/k < 0
    overflowed terms of both signs sum to nan: only the symbol's own
    magnitude says whether a signed inf is the answer.
    """
    value = _from_log(*poch_ln(spec))
    if math.isfinite(value):
        raise DomainError(f"symmetric expansion terms leave the double range at n={spec.n}; use poch_direct")
    return value


def _blocks(z: float, p: float, n: int, q: int) -> float:
    """(p q)^(nq) prod_{r<q} ((z + r)/q)_n, the n*q-factor symbol at z = x/k, by blocks."""
    pq = p * q
    out = power = _power(pq, n * q)
    for r in range(q):
        base = (z + r) / q
        for j in range(n):
            out *= base + j
    if not (_TINY <= abs(out) < math.inf and _TINY <= power):
        out = _carried(chain(repeat(pq, n * q), ((z + r) / q + j for r in range(q) for j in range(n))))
    return out


def poch_reduce(spec: PochSpec) -> float:
    """Classical reduction p^n (x/k)_n, the rising factorial computed directly: the block form at q = 1."""
    z = _real("x/k", spec.x / spec.params.k)
    return _note_overflow(_blocks(z, spec.params.p, spec.n, 1), _OVERFLOW)


def poch_generalized(spec: PochSpec, q: int) -> float:
    """Block form of the n*q-factor symbol: (p q)^(nq) prod_{r<q} ((x/k + r)/q)_n.

    ``spec.n`` is the per-block count; the total index n*q is implicit.
    """
    blocks = _as_index(q)
    if blocks is None or blocks < 1:
        raise DomainError(f"q must be a positive integer, got {q!r}")
    z = _real("x/k", spec.x / spec.params.k)
    return _note_overflow(_blocks(z, spec.params.p, spec.n, blocks), _OVERFLOW)


def poch_gamma_ratio(spec: PochSpec) -> float:
    """Gamma-ratio route: the family Gamma at x+nk over the one at x.

    Both x and x+nk must be off the pole lattice.  Past the double range
    the value is a signed inf, with an OverflowNote as from poch_direct.
    """
    z = _real("x/k", spec.x / spec.params.k)
    # each log-gamma raises PoleError where its argument is on the pole lattice
    g = _gamma_product(spec.n * math.log(spec.params.p), (ln_gamma_classical(z + spec.n),), (ln_gamma_classical(z),))
    return _note_overflow(_from_log(g.ln_value, g.sign), _OVERFLOW)


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


def poch_rescale(spec: PochSpec, s_new: float, mode: str) -> float:
    """Right-hand side of the selected step-rescaling identity.

    mode "2.8":  P_p(x; n, s_new)              = P_p(k x / s_new; n, k)
    mode "2.9":  P_p(x; n, s_new)              = (p/s_new)^n P_{s_new}(k x / s_new; n, k)
    mode "2.10": P_p(x; n, k)                  = (p/s_new)^n P_{s_new}(x; n, k)

    The left sides are what poch_direct produces on the matching spec; the
    return value is the right-side evaluation, with p/s_new folded into each factor.
    """
    s_new = _positive_real("s_new", s_new)
    if mode not in RESCALE_MODES:
        raise DomainError(f"mode must be one of {RESCALE_MODES}, got {mode!r}")
    n, (p, k) = spec.n, spec.params
    x = spec.x if mode == "2.10" else _real("k x/s_new", k * spec.x / s_new)
    if mode == "2.8":
        return poch_direct(PochSpec(x, n, PkParams(p, k)))
    base, step = _base_step(PochSpec(x, n, PkParams(s_new, k)), "x s_new/k")
    ratio = p / s_new
    out = 1.0
    for j in range(n):
        out *= ratio * (base + j * step)
    if not (_TINY <= abs(out) < math.inf and _TINY <= ratio):
        # p and s_new enter apart, so p/s_new is never formed
        factors = chain(repeat(p, n), map(base.__add__, map(step.__mul__, range(n))))
        out = _note_overflow(_carried(factors, repeat(s_new, n)), _OVERFLOW)
    return out
