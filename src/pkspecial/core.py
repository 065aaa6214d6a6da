"""Classical special-function kernel and shared domain types.

Every member of the two-parameter family reduces to a classical function
evaluated at x/k, so this module owns the classical backend (log-gamma with
an explicit sign channel and digamma), the one conversion of every real
argument and count, the one pole rule (the kernel raises PoleError only
where its argument is exactly a non-positive integer), and every typed
error the routes raise, which their own modules re-export.

Gamma-type values are computed and stored in log space, as a ``GammaEval``
with a sign, and their linear value is materialized on demand; an
``EvalReal`` holds a linear value.  Rationale: the family's closed form
multiplies p**(x/k) by Gamma(x/k), and both factors overflow long before
the log does.  Every (log, sign) pair in the library leaves log space
through ``_from_log``: sign * exp(log), or a signed inf past the double
range, which each route notes through ``_note_overflow``.  Ratios of
Gamma-type values are summed in log space by ``_gamma_product``, and a
log's error becomes a linear one by ``GammaEval.abs_err``.  The lattice
routes' exact tail ``_ln_gamma_step`` also serves beta_closed.  A route's
quotient x/k, a/k or b/s passes ``_real`` under its name, or a kernel's check.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from collections import namedtuple

__all__ = [
    "EULER_GAMMA",
    "Method",
    "PkParams",
    "EvalReal",
    "GammaEval",
    "PoleError",
    "DomainError",
    "OverflowNote",
    "NoConvergence",
    "DivergentInput",
    "LowerPoleError",
    "UnsupportedShape",
    "MaxTermsExceeded",
    "gamma_sign",
    "ln_gamma_classical",
    "digamma_classical",
    "central_diff",
    "richardson_diff",
    "best_central_diff",
]

# Euler-Mascheroni constant, lim_n (1 + 1/2 + ... + 1/n - log n).
EULER_GAMMA = 0.57721566490153286

# exp() overflows above this, i.e. the log-space value has no linear twin.
_LN_OVERFLOW = 709.782712893384

_EPS = 2.220446049250313e-16
_TINY = 2.2250738585072014e-308  # the smallest normal double
_ROUTE_MODULES = {f"{__package__}.{m}" for m in ("core", "quadrature", "pochhammer", "gamma", "betapsi", "hyper")}


def _from_log(ln: float, sign: int = 1) -> float:
    """sign * exp(ln), or sign * inf past _LN_OVERFLOW."""
    if ln > _LN_OVERFLOW:
        return sign * math.inf
    return sign * math.exp(ln)


def _note_overflow(value: float, message: str, *args) -> float:
    """value itself; if inf, also an OverflowNote, message.format(*args), at the nearest caller outside _ROUTE_MODULES."""
    if math.isinf(value):
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__name__") in _ROUTE_MODULES:
            frame, level = frame.f_back, level + 1
        warnings.warn(message.format(*args), OverflowNote, stacklevel=level)
    return value


class Method(enum.Enum):
    """Which evaluation route produced a value."""

    CLOSED = "closed"
    LIMIT = "limit"
    INTEGRAL = "integral"
    EULER_PRODUCT = "euler-product"
    WEIERSTRASS = "weierstrass"
    SERIES = "series"


class PoleError(ValueError):
    """Argument is exactly a pole of the function: z = -n, or x/k = -n, for an integer n >= 0."""


class DomainError(ValueError):
    """Argument outside the operation's domain."""


class OverflowNote(RuntimeWarning):
    """The linear value overflows double precision; log-space value is valid."""


class _GaveUp(RuntimeError):
    """A route stopped short of its answer; the best partial result rides along."""

    def __init__(self, message: str, partial: EvalReal):
        super().__init__(message)
        self.partial = partial


class NoConvergence(_GaveUp):
    """Refinement budget exhausted; the best partial result rides along."""


class DivergentInput(ValueError):
    """Series diverges for the requested argument (or for all arguments)."""


class LowerPoleError(ValueError):
    """A lower parameter ratio b/s is a non-positive integer."""


class UnsupportedShape(ValueError):
    """Operation restricted to a smaller (r, q) shape than requested."""


class MaxTermsExceeded(_GaveUp):
    """Term budget exhausted before the stopping rule fired; the best partial result rides along."""


class _ValueType:
    """Base of the namedtuple value types: equal only to the same type.

    Each value type derives from this and from its namedtuple, so two types
    with equal fields, or a value type and a plain tuple, compare unequal;
    hashing is the tuple's.  The field annotations in each type's body
    document the fields; the namedtuple's field string defines them.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip the type's __new__ checks
        return cls(*iterable)


def _finite(v) -> float | None:
    """v as a float, if it is a finite real other than a bool (numpy's scalars are, np.bool_ is not), else None."""
    if type(v) is not float:
        if type(v) is not int:
            import numbers

            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                return None
        try:
            v = float(v)
        except OverflowError:  # an int past the double range
            return None
    return v if math.isfinite(v) else None


def _real(name: str, v) -> float:
    """v as a float, if it is a finite real (see _finite); DomainError naming it otherwise."""
    if type(v) is float and math.isfinite(v):  # already a plain finite float
        return v
    f = _finite(v)
    if f is None:
        raise DomainError(f"{name} must be finite, got {v!r}")
    return f


def _positive_real(name: str, v) -> float:
    """v as a float, if it is a positive finite real (see _finite); DomainError naming it otherwise."""
    if type(v) is float and 0.0 < v < math.inf:  # already a plain positive finite float
        return v
    f = _finite(v)
    if f is None or not f > 0:
        raise DomainError(f"{name} must be a positive finite real, got {v!r}")
    return f


def _as_index(v) -> int | None:
    """v as an int, if it is an integer other than a bool (numpy's integers included), else None."""
    if type(v) is int:
        return v
    if isinstance(v, bool):
        return None
    import operator

    try:
        return operator.index(v)
    except TypeError:
        return None


class PkParams(_ValueType, namedtuple("PkParams", "p k")):
    """The deformation pair (p, k), both strictly positive finite reals."""

    __slots__ = ()
    p: float
    k: float

    def __new__(cls, p: float, k: float):
        return tuple.__new__(cls, (_positive_real("p", p), _positive_real("k", k)))


def _require_params(params) -> PkParams:
    """params itself, if it is a PkParams; DomainError otherwise."""
    if not isinstance(params, PkParams):
        raise DomainError(f"params must be a PkParams instance, got {params!r}")
    return params


class EvalReal(_ValueType, namedtuple("EvalReal", "value abs_err method")):
    """A computed linear value with an absolute-error estimate and a method tag."""

    __slots__ = ()
    value: float
    abs_err: float
    method: Method

    def __new__(cls, value: float, abs_err: float, method: Method = Method.CLOSED):
        if math.isfinite(value) and not (math.isfinite(abs_err) and abs_err >= 0.0):
            raise DomainError(f"abs_err must be finite and >= 0, got {abs_err!r}")
        return tuple.__new__(cls, (value, abs_err, method))


class GammaEval(_ValueType, namedtuple("GammaEval", "ln_value sign abs_err_ln method")):
    """A Gamma-type value in log space, sign * exp(ln_value), with its log's error."""

    __slots__ = ()
    ln_value: float
    sign: int
    abs_err_ln: float
    method: Method

    @property
    def value(self) -> float:
        """Materialize the linear value (inf past the double range, with an OverflowNote)."""
        return _note_overflow(_from_log(self.ln_value, self.sign),
                              "exp({!r}) overflows double precision; ln_value holds the value", self.ln_value)

    @property
    def abs_err(self) -> float:
        """Linear claim: bounds |sign * e^l - value| for every l within abs_err_ln of ln_value; never warns."""
        return _linear_err(self, _from_log(self.ln_value, self.sign))


def _linear_err(g: GammaEval, value: float) -> float:
    """g.abs_err, given value = _from_log(g.ln_value, g.sign) already formed."""
    ln, _, err, _ = g
    if err > _LN_OVERFLOW or math.isinf(value):  # the bar's top bounds it, inf past the range
        return _from_log(ln + err) + math.ulp(value)
    mag = abs(value) if abs(value) >= _TINY else abs(value) + math.ulp(value)  # exp's ulp is absolute below normal
    return mag * math.expm1(err) + math.ulp(value)


def _gamma_product(lead: float, upper=(), lower=()) -> GammaEval:
    """lead + sum ln|upper| - sum ln|lower| over GammaEvals or 4-tuples, in that order; claims sum(abs_err_ln + eps |ln|)."""
    ln, sign, err = lead, 1, 0.0
    for term, s, e, _ in upper:
        ln, sign, err = ln + term, sign * s, err + (e + _EPS * abs(term))
    for term, s, e, _ in lower:
        ln, sign, err = ln - term, sign * s, err + (e + _EPS * abs(term))
    return GammaEval(ln, sign, err, Method.CLOSED)


def gamma_sign(z: float) -> int:
    """Sign of Gamma(z) for real non-pole z: alternates on (-n-1, -n)."""
    if z > 0:
        return 1
    return 1 if math.floor(z) % 2 == 0 else -1


def _pole_distance(z: float) -> float:
    """Distance from z to the nearest non-positive integer (inf if z >= 0.5)."""
    if z >= 0.5:
        return math.inf
    return abs(z - min(round(z), 0))


def ln_gamma_classical(z: float) -> GammaEval:
    """log|Gamma(z)| with the sign of Gamma(z), for real non-pole z.

    Raises PoleError only where z is exactly a non-positive integer.  At a distance d from one,
    abs_err_ln adds eps |z| / d, what rounding a quotient z = x/k by eps |z| / 2 costs (eps at the
    origin).  The log is finite wherever Gamma(z) overflows; only ``.value`` there warns.
    """
    return GammaEval(*_ln_gamma(_real("z", z)))


def _ln_gamma(z: float) -> tuple[float, int, float, Method]:
    """ln_gamma_classical's four fields at a float z that _real already checked."""
    d = _pole_distance(z) if z < 0.5 else math.inf
    if d == 0.0:
        raise PoleError(f"pole at index {-round(z)}")
    try:
        val = math.lgamma(z)
    except OverflowError:  # z above about 2.6e305
        raise DomainError(f"ln_gamma_classical: ln Gamma({z!r}) leaves the double range") from None
    # math.lgamma is good to about 6 eps absolute near its zeros at 1 and 2
    # and 1.3 eps relative elsewhere (measured against mpmath)
    err = _EPS * (8.0 + 2.0 * abs(val))
    # |d/dz ln Gamma| ~ 1/d at a distance d from a pole: the rounding of a quotient z adds about eps |z| / d
    err += _EPS * abs(z) / d
    return val, 1 if z > 0 else gamma_sign(z), err, Method.CLOSED


# B_2j / (2j), j = 1..7: the coefficients of the asymptotic series
# psi(z) ~ ln z - 1/(2z) - sum_j B_2j / (2j z^2j)   (DLMF 5.11.2).
# Past z = _PSI_SHIFT the next term is below 5e-17.
_PSI_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_PSI_SHIFT = 10.0
_PSI_HORNER = _PSI_ASYMPTOTIC[::-1]
# B_2j / (2j (2j-1)), the coefficients of Stirling's series
# ln Gamma(z) ~ (z - 1/2) ln z - z + ln(2 pi)/2 + sum_j B_2j / (2j (2j-1) z^(2j-1))   (DLMF 5.11.1).
_STIRLING_HORNER = tuple(c / (2 * j - 1) for j, c in enumerate(_PSI_ASYMPTOTIC, 1))[::-1]


def _psi_tail(u: float) -> float:
    """sum_j B_2j / (2j u^2j), j = 1..7: the Bernoulli part of the psi series at u (a float or an array)."""
    w = 1.0 / (u * u)
    tail = 0.0
    for c in _PSI_HORNER:
        tail = tail * w + c
    return tail * w


def _stirling_tail(u: float) -> float:
    """sum_j B_2j / (2j (2j-1) u^(2j-1)), j = 1..7: the Bernoulli part of Stirling's series at u."""
    w = 1.0 / (u * u)
    tail = 0.0
    for c in _STIRLING_HORNER:
        tail = tail * w + c
    return tail / u


def digamma_classical(z: float) -> float:
    """Classical psi(z) = d/dz log Gamma(z) for real z; PoleError where z is exactly a non-positive integer.

    Shifts z up to at least 10 with psi(z) = psi(z+1) - 1/z, then sums the
    asymptotic series; z < 0 is reflected first (DLMF 5.5.4),
    psi(z) = psi(1-z) - pi/tan(pi r) with r = z - round(z), which is exact.
    """
    z = _real("z", z)
    if z < 0.5 and _pole_distance(z) == 0.0:
        raise PoleError(f"pole at index {-round(z)}")
    reflect = 0.0
    if z < 0.0:
        r = z - round(z)
        reflect = math.pi / math.tan(math.pi * r)
        z = 1.0 - z
    shift = 0.0
    while z < _PSI_SHIFT:
        shift += 1.0 / z
        z += 1.0
    return math.log(z) - 0.5 / z - _psi_tail(z) - shift - reflect


def _digamma_array(z: np.ndarray) -> np.ndarray:
    """digamma_classical over an array of positive z, without pole checks.

    One shift count serves the whole array, taken from its smallest entry.
    """
    import numpy as np

    n = max(0, math.ceil(_PSI_SHIFT - float(z.min())))
    shift = (1.0 / (z[:, None] + np.arange(n))).sum(axis=1)
    z = z + n
    return np.log(z) - 0.5 / z - _psi_tail(z) - shift


# _ln_gamma_step and _digamma_step hold for arguments from this one up.
_STIRLING_MIN = 33
# The product and psi-series routes sum the lattice n = 1..N directly, with
# N = _LATTICE_TERMS + ceil(max(0, -z)) at z = x/k, and add the rest past n = N
# exactly through _ln_gamma_step or _digamma_step, whose arguments are then
# all at least _STIRLING_MIN.  Their domain is |z| < _LATTICE_Z_MAX, which
# also bounds the loop at negative z.
_LATTICE_TERMS = _STIRLING_MIN - 1
_LATTICE_Z_MAX = 100_000.0
# What the two series leave out at arguments u >= _STIRLING_MIN: Stirling's next
# term, |B_16| / (16*15 u^15), at both ends, which bounds the psi series' next
# term, |B_16| / (16 u^16), at both ends too.
_TAIL_GAP = 2.0 * 3617.0 / 122400.0 * _STIRLING_MIN**-15


def _lattice_terms(z: float) -> int:
    """N, the number of lattice terms summed at z = x/k; DomainError past |z| < _LATTICE_Z_MAX."""
    if not abs(z) < _LATTICE_Z_MAX:
        raise DomainError(f"|x/k| must be below {_LATTICE_Z_MAX:.0f}, got {abs(z)!r}")
    return _LATTICE_TERMS + math.ceil(max(0.0, -z))


def _ln_gamma_step(a: float, z: float) -> float:
    """ln Gamma(a + z) - ln Gamma(a) - z ln a, for a and a + z at least _STIRLING_MIN.

    Stirling's series at both ends: (a+z-1/2) log1p(z/a) - z plus the
    Bernoulli parts; it errs by at most _TAIL_GAP.
    """
    b = a + z
    return (b - 0.5) * math.log1p(z / a) - z + _stirling_tail(b) - _stirling_tail(a)


def _digamma_step(a: float, w: float) -> float:
    """psi(a + w) - psi(a), for a and a + w at least _STIRLING_MIN.

    The psi series at both ends: log1p(w/a) + w/(2a(a+w)) less the
    Bernoulli parts; it errs by at most _TAIL_GAP.
    """
    b = a + w
    return math.log1p(w / a) + w / (2.0 * a * b) - _psi_tail(b) + _psi_tail(a)


def central_diff(f, x: float, h: float, order: int = 1) -> float:
    """Central finite difference of f at x: first or second derivative."""
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise DomainError(f"order must be 1 or 2, got {order!r}")


def richardson_diff(f, x: float, h: float = 1e-3) -> float:
    """Fourth-order first derivative: Richardson pairing of two central steps."""
    return (4.0 * central_diff(f, x, h / 2.0) - central_diff(f, x, h)) / 3.0


def best_central_diff(f, x: float) -> float:
    """Central difference at the step that minimizes the two-step disagreement.

    Sweeps steps 1e-3 down to 1e-7 and returns the estimate whose neighbours
    agree best, a cheap proxy for the truncation/roundoff crossover.
    """
    vals = [central_diff(f, x, h) for h in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)]
    best = vals[0]
    best_gap = math.inf
    for i in range(len(vals) - 1):
        gap = abs(vals[i + 1] - vals[i])
        if gap < best_gap:
            best_gap = gap
            best = vals[i + 1]
    return best
