"""The two-parameter hypergeometric function.

Upper parameters come as triples (a, p, k) and lower ones as (b, t, s);
each contributes the n-index factor p^n (a/k)_n (resp. t^n (b/s)_n), so the
whole series is the classical one at (a/k; b/s) evaluated at A*x with
A = prod(p) / prod(t).  The ratio test gives: entire for r <= q, radius
prod(t)/prod(p) for r = q+1, divergent (formal) beyond.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import _EPS, DomainError, EvalReal, Method, PkParams, ln_gamma_classical
from .quadrature import _split_beta_kernel

__all__ = [
    "HyperParams",
    "ConvergenceKind",
    "ConvergenceClass",
    "DivergentInput",
    "MaxTermsExceeded",
    "LowerPoleError",
    "UnsupportedShape",
    "classify",
    "hyper_series",
    "ode_coefficient_residual",
    "pk_binomial",
    "confluent_integral",
]

DEFAULT_TOL = 1e-14
DEFAULT_MAX_TERMS = 100_000


class DivergentInput(ValueError):
    """Series diverges for the requested argument (or for all arguments)."""


class LowerPoleError(ValueError):
    """A lower parameter ratio b/s is a non-positive integer."""


class UnsupportedShape(ValueError):
    """Operation restricted to a smaller (r, q) shape than requested."""


class MaxTermsExceeded(RuntimeError):
    """Term budget exhausted before the stopping rule fired."""

    def __init__(self, message: str, partial: EvalReal):
        super().__init__(message)
        self.partial = partial


class ConvergenceKind(enum.Enum):
    ALL_FINITE = "all-finite"
    FINITE_RADIUS = "finite-radius"
    DIVERGENT_FORMAL = "divergent-formal"


@dataclass(frozen=True)
class ConvergenceClass:
    kind: ConvergenceKind
    radius: float | None = None


def _as_triples(seq, what: str) -> tuple[tuple[float, float, float], ...]:
    out = []
    for item in seq:
        trip = tuple(float(v) for v in item)
        if len(trip) != 3:
            raise DomainError(f"each {what} entry must be a triple, got {item!r}")
        if not all(math.isfinite(v) for v in trip):
            raise DomainError(f"{what} entries must be finite, got {item!r}")
        if trip[1] <= 0 or trip[2] <= 0:
            raise DomainError(f"{what} scales must be positive, got {item!r}")
        out.append(trip)
    return tuple(out)


@dataclass(frozen=True)
class HyperParams:
    """Upper triples (a, p, k) and lower triples (b, t, s).

    Lower ratios b/s must avoid the non-positive integers, where the
    denominator Pochhammer vanishes; violations raise LowerPoleError at
    construction.
    """

    upper: tuple[tuple[float, float, float], ...]
    lower: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", _as_triples(self.upper, "upper"))
        object.__setattr__(self, "lower", _as_triples(self.lower, "lower"))
        for b, t, s in self.lower:
            ratio = b / s
            if ratio <= 0.5 and abs(ratio - round(ratio)) < 1e-12:
                raise LowerPoleError(f"lower ratio b/s = {ratio} is a non-positive integer")

    @property
    def r(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)

    @property
    def scale(self) -> float:
        """A = prod(p_i) / prod(t_j), the argument scale of the reduction."""
        num = math.prod(p for _, p, _ in self.upper)
        den = math.prod(t for _, t, _ in self.lower)
        return num / den

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(a / k for a, _, k in self.upper)

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(b / s for b, _, s in self.lower)


def classify(hp: HyperParams) -> ConvergenceClass:
    """Ratio-test classification: entire, finite radius prod(t)/prod(p), or formal."""
    if hp.r <= hp.q:
        return ConvergenceClass(ConvergenceKind.ALL_FINITE, None)
    if hp.r == hp.q + 1:
        return ConvergenceClass(ConvergenceKind.FINITE_RADIUS, 1.0 / hp.scale)
    return ConvergenceClass(ConvergenceKind.DIVERGENT_FORMAL, None)


def _term_ratio(hp: HyperParams, x: float, n: int) -> float:
    """term_{n+1} / term_n = x prod p_i (a_i/k_i + n) / ((n+1) prod t_j (b_j/s_j + n))."""
    num = x
    for a, p, k in hp.upper:
        num *= p * (a / k + n)
    den = float(n + 1)
    for b, t, s in hp.lower:
        d = t * (b / s + n)
        if d == 0.0:
            raise LowerPoleError(f"lower ratio hit zero at index {n}")
        den *= d
    return num / den


def hyper_series(
    hp: HyperParams,
    x: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> EvalReal:
    """Partial sum via the term recurrence (_term_ratio), with a three-strike stopping rule.

    Stops once |term| < tol*|sum| three times in a row (guards against
    alternating-term false stops).  An upper ratio at a non-positive integer
    terminates the series exactly (polynomial case).  abs_err carries the
    tail and the rounding of the sum and of the n ratios behind term n:
    alternating terms far larger than the sum (1F1 at large negative
    argument) cancel to few or no digits.
    """
    cls = classify(hp)
    # an upper ratio at a non-positive integer terminates the series exactly
    polynomial = any(a <= 0.0 and abs(a - round(a)) < 1e-12 for a in hp.alphas)
    if not polynomial:
        if cls.kind is ConvergenceKind.DIVERGENT_FORMAL:
            raise DivergentInput(f"series has no convergence domain for r={hp.r}, q={hp.q}")
        if cls.kind is ConvergenceKind.FINITE_RADIUS and abs(x) >= cls.radius:
            raise DivergentInput(f"|x|={abs(x)} outside the convergence radius {cls.radius}")
    term = 1.0
    total = 1.0
    mass = 1.0  # sum of |term|
    drift = 0.0  # sum of n |term_n|: term n carries the rounding of n ratios
    quiet = 0
    for n in range(max_terms):
        ratio = _term_ratio(hp, x, n)
        term = term * ratio
        total += term
        mass += abs(term)
        drift += (n + 1) * abs(term)
        if mass == math.inf and math.isfinite(total):
            # eps * sum|term| is no longer a finite error bound: no digit survives
            raise MaxTermsExceeded(
                f"sum of |term| left the double range at term {n + 1}; the sum is lost",
                EvalReal(value=math.nan, abs_err=math.inf, method=Method.SERIES),
            )
        if not ratio > 0.0 and not math.isfinite(term):
            # overflowed terms of both signs sum to nan, which no later term
            # mends; a run of one sign is a true overflow, returned as inf below
            raise MaxTermsExceeded(
                f"term {n + 1} left the double range with a sign change; the sum is lost",
                EvalReal(value=total, abs_err=abs(term) + _EPS * mass, method=Method.SERIES),
            )
        # non-strict: a terminated (polynomial) series has term == total == 0
        if abs(term) <= tol * abs(total):
            quiet += 1
            if quiet >= 3:
                # r = q + 1: the ratios tend to |x|/radius, and rising ones stay below it
                rho = abs(ratio) if cls.radius is None else max(abs(ratio), abs(x) / cls.radius)
                tail = abs(term) * rho / (1.0 - rho) if rho < 1.0 else tol * abs(total)
                # each ratio rounds 3 (r + q) + 2 times, each by at most eps/2
                err = abs(tail) + tol * abs(total) + _EPS * (mass + (1.5 * (hp.r + hp.q) + 1.0) * drift)
                return EvalReal(value=total, abs_err=err, method=Method.SERIES)
        else:
            quiet = 0
    raise MaxTermsExceeded(
        f"no convergence within {max_terms} terms",
        EvalReal(value=total, abs_err=abs(term) + _EPS * mass, method=Method.SERIES),
    )


def ode_coefficient_residual(hp: HyperParams) -> float:
    """Max relative residual of the ODE's coefficient recurrence.

    The series solves [theta prod(theta + b/s - 1) - A x prod(theta + a/k)] W = 0
    iff  n prod_j (n + b_j/s_j - 1) c_n = A prod_i (n - 1 + a_i/k_i) c_{n-1};
    this checks that per-term identity over n = 1..50.
    """
    if hp.r > hp.q + 1:
        raise DivergentInput("no ODE normal form past r = q + 1")
    alphas, betas = hp.alphas, hp.betas
    a_scale = hp.scale
    worst = 0.0
    for n in range(1, 51):
        # both sides over c_{n-1}: c_n / c_{n-1} is the series' own term ratio at x = 1
        lhs = n * _term_ratio(hp, 1.0, n - 1)
        for beta in betas:
            lhs *= n + beta - 1.0
        rhs = a_scale
        for alpha in alphas:
            rhs *= alpha + n - 1.0
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def pk_binomial(a: float, params: PkParams, x: float) -> EvalReal:
    """Binomial identity: sum_n P(a; n) x^n / n! = (1 - x p)^(-a/k), |x| < 1/p.

    The series is the 1F0 case of hyper_series, upper triple (a, p, k), and
    carries its abs_err: eps*sum|term| plus the tail.
    """
    if not isinstance(params, PkParams):
        raise DomainError("params must be a PkParams instance")
    if not (math.isfinite(a) and math.isfinite(x)):
        raise DomainError("a and x must be finite")
    if abs(x) >= 1.0 / params.p:
        raise DivergentInput(f"|x|={abs(x)} is outside the radius 1/p = {1.0 / params.p}")
    return hyper_series(HyperParams(((a, params.p, params.k),), ()), x)


def confluent_integral(hp: HyperParams, x: float) -> EvalReal:
    """Integral representation, supported for exactly one upper and one lower triple:

        G(b/s) / (G(a/k) G(b/s - a/k)) int_0^1 t^(a/k-1) (1-t)^(b/s-a/k-1) e^((p/t1) x t) dt

    requiring 0 < a/k < b/s for integrability at both endpoints.  The integral
    is quadrature._split_beta_kernel, two power pieces; abs_err adds the errors
    and the rounding of the prefactor's three log-gammas.
    """
    if hp.r != 1 or hp.q != 1:
        raise UnsupportedShape(f"integral form supports r = q = 1 only, got r={hp.r}, q={hp.q}")
    (a, p, k), (b, t1, s) = hp.upper[0], hp.lower[0]
    alpha = a / k
    beta = b / s
    lam = beta - alpha
    if not (0.0 < alpha < beta):
        raise DomainError(f"need 0 < a/k < b/s, got a/k={alpha}, b/s={beta}")
    res = _split_beta_kernel(alpha, lam, p / t1 * x)
    terms = (ln_gamma_classical(beta), ln_gamma_classical(alpha), ln_gamma_classical(lam))
    pref = math.exp(terms[0].ln_value - terms[1].ln_value - terms[2].ln_value)
    value = pref * res.value
    # each log-gamma's own error, plus the rounding of the sum of the logs
    err_ln = sum(t.abs_err_ln + _EPS * abs(t.ln_value) for t in terms)
    err = pref * res.abs_err + abs(value) * err_ln
    return EvalReal(value=value, abs_err=err, method=Method.INTEGRAL)
