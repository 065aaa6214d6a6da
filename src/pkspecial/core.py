"""Classical special-function kernel and shared domain types.

Every member of the two-parameter family reduces to a classical function
evaluated at x/k, so this module owns the classical backend (log-gamma with
an explicit sign channel, digamma, polygamma), parameter validation, and
pole detection on the lattice x = -n*k.

Gamma-type values are computed and stored in log space; linear values are
materialized on demand.  Rationale: the family's closed form multiplies
p**(x/k) by Gamma(x/k), and both factors overflow long before the log does.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import scipy.special as _sc

__all__ = [
    "EULER_GAMMA",
    "TAU_POLE",
    "Method",
    "PkParams",
    "EvalReal",
    "PoleReport",
    "PoleError",
    "DomainError",
    "OverflowNote",
    "pole_check",
    "gamma_sign",
    "ln_gamma_classical",
    "digamma_classical",
    "polygamma_classical",
    "central_diff",
    "richardson_diff",
    "best_central_diff",
]

# Euler-Mascheroni constant, lim_n (1 + 1/2 + ... + 1/n - log n).
EULER_GAMMA = 0.57721566490153286

# Pole tolerance in units of k: x counts as a pole iff |x/k + n| <= TAU_POLE
# for some integer n >= 0.  Near-pole points outside this band are evaluated
# but carry an inflated error estimate.
TAU_POLE = 1e-9

# exp() overflows above this, i.e. the log-space value has no linear twin.
_LN_OVERFLOW = 709.782712893384

_EPS = 2.220446049250313e-16


class Method(enum.Enum):
    """Which evaluation route produced a value."""

    CLOSED = "closed"
    LIMIT = "limit"
    INTEGRAL = "integral"
    EULER_PRODUCT = "euler-product"
    WEIERSTRASS = "weierstrass"
    SERIES = "series"


class PoleError(ValueError):
    """Argument lies on (or within TAU_POLE of) a pole of the function."""


class DomainError(ValueError):
    """Argument outside the operation's domain."""


class OverflowNote(RuntimeWarning):
    """The linear value overflows double precision; log-space value is valid."""


@dataclass(frozen=True)
class PkParams:
    """The deformation pair (p, k), both strictly positive finite reals."""

    p: float
    k: float

    def __post_init__(self) -> None:
        for name in ("p", "k"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be a positive finite real, got {v!r}")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "k", float(self.k))


@dataclass(frozen=True)
class EvalReal:
    """A computed value with an absolute-error estimate and a method tag.

    ``sign`` matters only when ``value`` holds a log-space magnitude; linear
    producers leave it at +1.
    """

    value: float
    abs_err: float
    sign: int = 1
    method: Method = Method.CLOSED

    def __post_init__(self) -> None:
        if math.isfinite(self.value) and not (math.isfinite(self.abs_err) and self.abs_err >= 0.0):
            raise ValueError(f"abs_err must be finite and >= 0, got {self.abs_err!r}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")


@dataclass(frozen=True)
class PoleReport:
    """Outcome of a pole check; ``pole_index`` is the n with x = -n*k."""

    is_pole: bool
    pole_index: int | None = None


def pole_check(params: PkParams, x: float) -> PoleReport:
    """Detect whether x sits on the pole lattice {0, -k, -2k, ...}."""
    q = x / params.k
    if not math.isfinite(q):
        raise DomainError(f"x/k must be finite, got x={x!r}, k={params.k!r}")
    n = round(q)
    if n <= 0 and abs(q - n) <= TAU_POLE:
        return PoleReport(True, -n)
    return PoleReport(False, None)


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


def ln_gamma_classical(z: float) -> EvalReal:
    """log|Gamma(z)| with the sign of Gamma(z), for real non-pole z.

    Raises PoleError within TAU_POLE of a non-positive integer.  Near-pole
    arguments outside that band are evaluated with an inflated abs_err.
    Emits an OverflowNote warning when exp(value) is not representable.
    """
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    d = _pole_distance(z)
    if d <= TAU_POLE:
        raise PoleError(f"ln_gamma_classical: z={z} is within {TAU_POLE} of a pole")
    val = math.lgamma(z)
    err = _EPS * (2.0 + abs(val))
    if d < 1e-3:
        # |d/dz ln Gamma| ~ 1/d near a pole: argument rounding inflates the error
        err += _EPS * (1.0 + abs(z)) / d
    if val > _LN_OVERFLOW:
        warnings.warn(
            f"|Gamma({z})| overflows double precision; log-space value returned",
            OverflowNote,
            stacklevel=2,
        )
    return EvalReal(value=val, abs_err=err, sign=gamma_sign(z), method=Method.CLOSED)


def digamma_classical(z: float) -> float:
    """Classical psi(z) = d/dz log Gamma(z) for real non-pole z."""
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if _pole_distance(z) <= TAU_POLE:
        raise PoleError(f"digamma_classical: z={z} is within {TAU_POLE} of a pole")
    return float(_sc.digamma(z))


def polygamma_classical(m: int, z: float) -> float:
    """psi^(m)(z), the m-th derivative of digamma, for m >= 1 and z > 0."""
    if not (isinstance(m, int) and m >= 1):
        raise DomainError(f"order m must be an integer >= 1, got {m!r}")
    if not (math.isfinite(z) and z > 0):
        raise DomainError(f"z must be a positive real, got {z!r}")
    return float(_sc.polygamma(m, z))


def central_diff(f, x: float, h: float, order: int = 1) -> float:
    """Central finite difference of f at x: first or second derivative."""
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise ValueError("order must be 1 or 2")


def richardson_diff(f, x: float, h: float = 1e-3) -> float:
    """Fourth-order first derivative: Richardson pairing of two central steps."""
    return (4.0 * central_diff(f, x, h / 2.0) - central_diff(f, x, h)) / 3.0


def best_central_diff(f, x: float, steps=(1e-3, 1e-4, 1e-5, 1e-6, 1e-7)) -> float:
    """Central difference at the step that minimizes the two-step disagreement.

    Sweeps the given steps and returns the estimate whose neighbours agree
    best, a cheap proxy for the truncation/roundoff crossover.
    """
    vals = [central_diff(f, x, h) for h in steps]
    if len(vals) == 1:
        return vals[0]
    best = vals[0]
    best_gap = math.inf
    for i in range(len(vals) - 1):
        gap = abs(vals[i + 1] - vals[i])
        if gap < best_gap:
            best_gap = gap
            best = vals[i + 1] if i + 1 < len(vals) else vals[i]
    return best
