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
import sys
import warnings
from collections import namedtuple

from .core import (
    _ValueType,
    _as_index,
    _from_log,
    _gamma_product,
    _positive_real,
    _real,
    _require_params,
    DomainError,
    OverflowNote,
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


def _base_step(spec: PochSpec) -> tuple[float, float]:
    """(x p/k, p): factor j of the symbol is x p/k + j p."""
    return _real("x p/k", spec.x * spec.params.p / spec.params.k), spec.params.p


def _noted(out: float) -> float:
    """Pass a route's value through, warning when it nears or leaves the double range."""
    if not math.isfinite(out) or abs(out) > 1e300:
        warnings.warn(
            "Pochhammer product magnitude exceeds ~1e300; use poch_ln",
            OverflowNote,
            stacklevel=3,
        )
    return out


def _power(base: float, e: int) -> float:
    """base ** e, or a signed inf where that leaves the double range."""
    try:
        return base**e
    except OverflowError:
        return math.copysign(math.inf, base) if e % 2 else math.inf


def poch_direct(spec: PochSpec) -> float:
    """Direct product of the n factors; the empty product (n=0) is 1."""
    return _noted(_product(spec))


def _product(spec: PochSpec) -> float:
    """The product of the n factors, in their order, without poch_direct's note."""
    base, step = _base_step(spec)
    out = 1.0
    for j in range(spec.n):
        out *= base + j * step
    return _mend_nan(out, spec)


def _mend_nan(out: float, spec: PochSpec) -> float:
    """out, unless it is nan: an overflowed product met an exact zero factor, inf * 0; then the symbol from poch_ln."""
    return _from_log(*poch_ln(spec)) if math.isnan(out) else out


def poch_ln(spec: PochSpec) -> tuple[float, int]:
    """(log|value|, sign) companion for large n*|x|; sign 0 at an exact zero."""
    base, step = _base_step(spec)
    ln = 0.0
    sign = 1
    for j in range(spec.n):
        f = base + j * step
        if f == 0.0:
            return -math.inf, 0
        if f < 0.0:
            sign = -sign
        ln += math.log(abs(f))
    return ln, sign


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
    """Elementary-symmetric expansion: sum_s p^n e_s(1..n-1) (x/k)^(n-s)."""
    if spec.n < 1:
        raise DomainError("the symmetric expansion needs n >= 1")
    n = spec.n
    if n >= 172:
        # e_(n-1) = (n-1)! overflows, so the total is never finite: skip the O(n^2) table
        return _noted(_symmetric_overflow(spec))
    p = spec.params.p
    z = _real("x/k", spec.x / spec.params.k)
    pn = _power(p, n)
    # a subnormal p^n would carry its few digits into every term: sum the
    # classical terms instead and scale by p^n after, in two halves
    scaled = pn < sys.float_info.min
    lead = 1.0 if scaled else pn
    e = _elementary_table(range(1, n), n - 1)
    total = 0.0
    for s in range(n):
        total += lead * e[s] * _power(z, n - s)
    if scaled and total != 0.0:
        total = total * _power(p, n // 2) * _power(p, n - n // 2)
        if abs(total) < sys.float_info.min:
            raise DomainError(f"the symmetric expansion underflows at n={n}; use poch_ln")
    if not math.isfinite(total):
        total = _symmetric_overflow(spec)
    return _noted(total)


def _symmetric_overflow(spec: PochSpec) -> float:
    """The symbol's signed inf where the expansion's total is not finite, else DomainError.

    Terms leave the double range before the symbol does, and at x/k < 0
    overflowed terms of both signs sum to nan: only the symbol's own
    magnitude says whether a signed inf is the answer.
    """
    value = _from_log(*poch_ln(spec))
    if math.isfinite(value):
        raise DomainError(
            f"symmetric expansion terms leave the double range at n={spec.n}; use poch_direct"
        )
    return value


def poch_reduce(spec: PochSpec) -> float:
    """Classical reduction p^n (x/k)_n, the rising factorial computed directly."""
    z = _real("x/k", spec.x / spec.params.k)
    out = _power(spec.params.p, spec.n)
    for j in range(spec.n):
        out *= z + j
    return _noted(_mend_nan(out, spec))


def poch_generalized(spec: PochSpec, q: int) -> float:
    """Block form of the n*q-factor symbol: (p q)^(nq) prod_r ((x/k+r-1)/q)_n.

    ``spec.n`` is the per-block count; the total index n*q is implicit.
    """
    blocks = _as_index(q)
    if blocks is None or blocks < 1:
        raise DomainError(f"q must be a positive integer, got {q!r}")
    q, n = blocks, spec.n
    z = _real("x/k", spec.x / spec.params.k)
    out = _power(spec.params.p * q, n * q)
    for r in range(1, q + 1):
        base = (z + (r - 1)) / q  # z + r - 1 would round z + r first, dropping z's low bits at |z| << 1
        for j in range(n):
            out *= base + j
    if math.isnan(out):  # as in _mend_nan, from the logs of the n*q-factor symbol
        out = _from_log(*poch_ln(PochSpec(spec.x, n * q, spec.params)))
    return _noted(out)


def poch_gamma_ratio(spec: PochSpec) -> float:
    """Gamma-ratio route: the family Gamma at x+nk over the one at x.

    Both x and x+nk must be off the pole lattice.  Past the double range
    the value is a signed inf, with an OverflowNote as from poch_direct.
    """
    z = spec.x / spec.params.k
    # each log-gamma raises PoleError where its argument is on the pole lattice
    g = _gamma_product(spec.n * math.log(spec.params.p), (ln_gamma_classical(z + spec.n),), (ln_gamma_classical(z),))
    return _noted(_from_log(g.ln_value, g.sign))


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
    return value is the right-side evaluation.
    """
    s_new = _positive_real("s_new", s_new)
    p, k = spec.params.p, spec.params.k
    if mode == "2.8":
        return poch_direct(PochSpec(k * spec.x / s_new, spec.n, PkParams(p, k)))
    if mode == "2.9":
        return _power_times_symbol(p, s_new, PochSpec(k * spec.x / s_new, spec.n, PkParams(s_new, k)))
    if mode == "2.10":
        return _power_times_symbol(p, s_new, PochSpec(spec.x, spec.n, PkParams(s_new, k)))
    raise DomainError(f"mode must be one of {RESCALE_MODES}, got {mode!r}")


def _power_times_symbol(p: float, s: float, spec: PochSpec) -> float:
    """(p/s)**n times the symbol of spec, a signed inf past the double range.

    Where the power or the symbol is not a normal double (it left the double
    range on its own, or the symbol is an exact zero), the product is taken
    in logs.  Only the result is noted, never an intermediate symbol.
    """
    power, symbol = _power(p / s, spec.n), _product(spec)
    if sys.float_info.min <= abs(power) < math.inf and sys.float_info.min <= abs(symbol) < math.inf:
        return _noted(power * symbol)
    ln, sign = poch_ln(spec)
    # p/s may have left the double range itself: its log is ln p - ln s
    return _noted(_from_log(ln + spec.n * (math.log(p) - math.log(s)), sign))
