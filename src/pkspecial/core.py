"""Classical special-function kernel and shared domain types.

Every member of the two-parameter family reduces to a classical function
evaluated at x/k, so this module owns the classical backend (log-gamma with
an explicit sign channel and digamma), parameter validation, and
pole detection on the lattice x = -n*k.

Gamma-type values are computed and stored in log space, as a ``GammaEval``
with a sign, and their linear value is materialized on demand; an
``EvalReal`` holds a linear value.  Rationale: the family's closed form
multiplies p**(x/k) by Gamma(x/k), and both factors overflow long before
the log does.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

__all__ = [
    "EULER_GAMMA",
    "TAU_POLE",
    "Method",
    "PkParams",
    "EvalReal",
    "GammaEval",
    "PoleReport",
    "PoleError",
    "DomainError",
    "OverflowNote",
    "pole_check",
    "gamma_sign",
    "ln_gamma_classical",
    "digamma_classical",
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

# Entries kept by each memoised lattice sum of the series and product routes.
# The sums do not depend on p, so an audit sweep over p reuses them; one sweep
# holds 24 (k, x) points per p.
_MEMO_SIZE = 128


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
    """A computed linear value with an absolute-error estimate and a method tag."""

    value: float
    abs_err: float
    method: Method = Method.CLOSED

    def __post_init__(self) -> None:
        if math.isfinite(self.value) and not (math.isfinite(self.abs_err) and self.abs_err >= 0.0):
            raise ValueError(f"abs_err must be finite and >= 0, got {self.abs_err!r}")


@dataclass(frozen=True)
class GammaEval:
    """A Gamma-type value in log space, sign * exp(ln_value), with its log's error."""

    ln_value: float
    sign: int
    abs_err_ln: float
    method: Method

    @property
    def value(self) -> float:
        """Materialize the linear value (inf past the double range, with an OverflowNote)."""
        if self.ln_value > _LN_OVERFLOW:
            warnings.warn(
                f"exp({self.ln_value!r}) overflows double precision; ln_value holds the value",
                OverflowNote,
                stacklevel=2,
            )
            return self.sign * math.inf
        return self.sign * math.exp(self.ln_value)


@dataclass(frozen=True)
class PoleReport:
    """Outcome of a pole check; ``pole_index`` is the n with x = -n*k."""

    is_pole: bool
    pole_index: int | None = None


_OFF_POLE = PoleReport(False, None)


def pole_check(params: PkParams, x: float) -> PoleReport:
    """Detect whether x sits on the pole lattice {0, -k, -2k, ...}."""
    q = x / params.k
    if not math.isfinite(q):
        raise DomainError(f"x/k must be finite, got x={x!r}, k={params.k!r}")
    n = round(q)
    if n <= 0 and abs(q - n) <= TAU_POLE:
        return PoleReport(True, -n)
    return _OFF_POLE


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

    Raises PoleError within TAU_POLE of a non-positive integer.  Near-pole
    arguments outside that band are evaluated with an inflated abs_err.
    The log is finite wherever Gamma(z) overflows; only materializing
    ``.value`` there warns.
    """
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    d = _pole_distance(z)
    if d <= TAU_POLE:
        raise PoleError(f"ln_gamma_classical: z={z} is within {TAU_POLE} of a pole")
    val = math.lgamma(z)
    # math.lgamma is good to about 6 eps absolute near its zeros at 1 and 2
    # and 1.3 eps relative elsewhere (measured against mpmath)
    err = _EPS * (8.0 + 2.0 * abs(val))
    if d < 1e-3:
        # |d/dz ln Gamma| ~ 1/d near a pole: argument rounding inflates the error
        err += _EPS * (1.0 + abs(z)) / d
    return GammaEval(ln_value=val, sign=gamma_sign(z), abs_err_ln=err, method=Method.CLOSED)


# B_2j / (2j), j = 1..7: the coefficients of the asymptotic series
# psi(z) ~ ln z - 1/(2z) - sum_j B_2j / (2j z^2j)   (DLMF 5.11.2).
# Past z = _PSI_SHIFT the next term is below 5e-17.
_PSI_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_PSI_SHIFT = 10.0
_PSI_HORNER = _PSI_ASYMPTOTIC[::-1]


def digamma_classical(z: float) -> float:
    """Classical psi(z) = d/dz log Gamma(z) for real non-pole z.

    Shifts z up to at least 10 with psi(z) = psi(z+1) - 1/z, then sums the
    asymptotic series; z < 0 is reflected first (DLMF 5.5.4),
    psi(z) = psi(1-z) - pi/tan(pi r) with r = z - round(z), which is exact.
    """
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    if _pole_distance(z) <= TAU_POLE:
        raise PoleError(f"digamma_classical: z={z} is within {TAU_POLE} of a pole")
    reflect = 0.0
    if z < 0.0:
        r = z - round(z)
        reflect = math.pi / math.tan(math.pi * r)
        z = 1.0 - z
    shift = 0.0
    while z < _PSI_SHIFT:
        shift += 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    tail = 0.0
    for c in _PSI_HORNER:
        tail = tail * w + c
    return math.log(z) - 0.5 / z - tail * w - shift - reflect


def _digamma_array(z: np.ndarray) -> np.ndarray:
    """digamma_classical over an array of positive z, without pole checks.

    One shift count serves the whole array, taken from its smallest entry.
    """
    import numpy as np

    exponents = -2.0 * np.arange(1, len(_PSI_ASYMPTOTIC) + 1)  # z^-2j
    n = max(0, math.ceil(_PSI_SHIFT - float(z.min())))
    shift = (1.0 / (z[:, None] + np.arange(n))).sum(axis=1)
    z = z + n
    tail = (z[:, None] ** exponents) @ _PSI_ASYMPTOTIC
    return np.log(z) - 0.5 / z - tail - shift


# Sums over n > N of n^-s, by Euler-Maclaurin, for the product and series tails.
def _tail_s2(N: float) -> float:
    return 1.0 / N - 1.0 / (2.0 * N**2) + 1.0 / (6.0 * N**3) - 1.0 / (30.0 * N**5)


def _tail_s3(N: float) -> float:
    return 1.0 / (2.0 * N**2) - 1.0 / (2.0 * N**3) + 1.0 / (4.0 * N**4)


def _tail_s4(N: float) -> float:
    return 1.0 / (3.0 * N**3) - 1.0 / (2.0 * N**4)


def _tail_s5(N: float) -> float:
    return 1.0 / (4.0 * N**4)


def _tail_gaps(N: float) -> tuple[float, float, float, float]:
    """|first term| that _tail_s2.._tail_s5 leave out: it bounds their error, n^-s being completely monotone."""
    return 1.0 / (42.0 * N**7), 1.0 / (12.0 * N**6), 1.0 / (3.0 * N**5), 1.0 / (2.0 * N**5)


def _require_inside_tail(z: float, terms: int) -> None:
    """The tails above expand in z/n for n > terms, which needs |z| < terms."""
    if not abs(z) < terms:
        raise DomainError(f"|x/k| must be below terms = {terms}, got {abs(z)!r}")


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
