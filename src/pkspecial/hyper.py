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

import numpy as np

from .core import DomainError, EvalReal, Method, PkParams, ln_gamma_classical
from .quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_unit

__all__ = [
    "HyperParams",
    "ConvergenceKind",
    "ConvergenceClass",
    "HyperReduction",
    "DivergentInput",
    "MaxTermsExceeded",
    "LowerPoleError",
    "UnsupportedShape",
    "classify",
    "hyper_series",
    "reduce_classical",
    "ode_coefficient_residual",
    "ode_residual",
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


@dataclass(frozen=True)
class HyperReduction:
    """Classical parameters and argument scale equivalent to a HyperParams."""

    classical_upper: tuple[float, ...]
    classical_lower: tuple[float, ...]
    scale: float


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


def reduce_classical(hp: HyperParams) -> HyperReduction:
    """Equivalent classical parameter lists (a/k; b/s) and scale A."""
    return HyperReduction(hp.alphas, hp.betas, hp.scale)


def hyper_series(
    hp: HyperParams,
    x: float,
    tol: float = DEFAULT_TOL,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> EvalReal:
    """Partial sum via the term recurrence, with a three-strike stopping rule.

    term_{n+1} = term_n * x * prod p_i (a_i/k_i + n) / (prod t_j (b_j/s_j + n) (n+1))

    Stops once |term| < tol*|sum| three times in a row (guards against
    alternating-term false stops).  An upper ratio at a non-positive integer
    terminates the series exactly (polynomial case).
    """
    cls = classify(hp)
    alphas, betas = hp.alphas, hp.betas
    # an upper ratio at a non-positive integer terminates the series exactly
    polynomial = any(a <= 0.0 and abs(a - round(a)) < 1e-12 for a in alphas)
    if not polynomial:
        if cls.kind is ConvergenceKind.DIVERGENT_FORMAL:
            raise DivergentInput(f"series has no convergence domain for r={hp.r}, q={hp.q}")
        if cls.kind is ConvergenceKind.FINITE_RADIUS and abs(x) >= cls.radius:
            raise DivergentInput(f"|x|={abs(x)} outside the convergence radius {cls.radius}")
    ps = [p for _, p, _ in hp.upper]
    ts = [t for _, t, _ in hp.lower]
    term = 1.0
    total = 1.0
    quiet = 0
    last_ratio = 0.0
    for n in range(max_terms):
        num = x
        for alpha, p in zip(alphas, ps):
            num *= p * (alpha + n)
        den = float(n + 1)
        for beta, t in zip(betas, ts):
            d = t * (beta + n)
            if d == 0.0:
                raise LowerPoleError(f"lower ratio hit zero at index {n}")
            den *= d
        ratio = num / den
        term = term * ratio
        total += term
        last_ratio = abs(ratio)
        # non-strict: a terminated (polynomial) series has term == total == 0
        if abs(term) <= tol * abs(total):
            quiet += 1
            if quiet >= 3:
                tail = abs(term) * last_ratio / (1.0 - last_ratio) if last_ratio < 1.0 else tol * abs(total)
                return EvalReal(value=total, abs_err=abs(tail) + tol * abs(total), method=Method.SERIES)
        else:
            quiet = 0
    raise MaxTermsExceeded(
        f"no convergence within {max_terms} terms",
        EvalReal(value=total, abs_err=abs(term), method=Method.SERIES),
    )


def ode_coefficient_residual(hp: HyperParams, n_terms: int = 50) -> float:
    """Max relative residual of the ODE's coefficient recurrence.

    The series solves [theta prod(theta + b/s - 1) - A x prod(theta + a/k)] W = 0
    iff  n prod_j (n + b_j/s_j - 1) c_n = A prod_i (n - 1 + a_i/k_i) c_{n-1};
    this checks that per-term identity over n = 1..n_terms.
    """
    if hp.r > hp.q + 1:
        raise DivergentInput("no ODE normal form past r = q + 1")
    alphas, betas = hp.alphas, hp.betas
    a_scale = hp.scale
    # coefficients of the reduced classical series at argument A
    c = [1.0]
    for n in range(n_terms):
        num = a_scale
        for alpha in alphas:
            num *= alpha + n
        den = float(n + 1)
        for beta in betas:
            den *= beta + n
        c.append(c[-1] * num / den)
    worst = 0.0
    for n in range(1, n_terms + 1):
        lhs = n * c[n]
        for beta in betas:
            lhs *= n + beta - 1.0
        rhs = a_scale * c[n - 1]
        for alpha in alphas:
            rhs *= alpha + n - 1.0
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def _stirling2_row(m: int) -> list[float]:
    """Stirling numbers of the second kind S(m, 0..m)."""
    row = [1.0]
    for mm in range(1, m + 1):
        new = [0.0] * (mm + 1)
        for j in range(1, mm + 1):
            prev_j = row[j] if j < len(row) else 0.0
            new[j] = j * prev_j + row[j - 1]
        row = new
    return row


def _fd_derivative(f, x: float, order: int, h: float) -> float:
    """Minimal central finite-difference derivative: O(h^2) truncation."""
    if order == 0:
        return f(x)
    npts = 2 * ((order + 1) // 2) + 1
    half = npts // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    rhs = np.zeros(npts)
    rhs[order] = math.factorial(order)
    mat = np.vander(offsets, npts, increasing=True).T
    weights = np.linalg.solve(mat, rhs)
    vals = np.array([f(x + o * h) for o in offsets])
    return float(np.dot(weights, vals)) / h**order


def ode_residual(hp: HyperParams, x: float, h: float) -> float:
    """Finite-difference residual of the ODE at x for the truncated series.

    theta^m is expanded as sum_j S(m,j) x^j d^j/dx^j with Stirling numbers
    of the second kind; derivatives come from central stencils of step h, so
    the residual carries the O(h^2) differencing error on top of series
    truncation.  Smaller is better; exact solutions give ~0.
    """
    if hp.r > hp.q + 1:
        raise DivergentInput("no ODE normal form past r = q + 1")
    cls = classify(hp)
    if cls.kind is ConvergenceKind.FINITE_RADIUS and abs(x) >= cls.radius / 2.0:
        raise DivergentInput("x too close to the convergence boundary for differencing")
    if x == 0.0:
        raise DomainError("the scale derivative theta degenerates at x = 0")

    def w(arg: float) -> float:
        return hyper_series(hp, arg).value

    # polynomial in theta: theta * prod(theta + beta - 1) - A x prod(theta + alpha)
    left = [0.0, 1.0]  # theta
    for beta in hp.betas:
        left = _poly_mul(left, [beta - 1.0, 1.0])
    right = [1.0]
    for alpha in hp.alphas:
        right = _poly_mul(right, [alpha, 1.0])
    max_order = max(len(left), len(right)) - 1
    derivs = [_fd_derivative(w, x, j, h) for j in range(max_order + 1)]

    def apply_theta_poly(coeffs: list[float]) -> float:
        total = 0.0
        for m, cm in enumerate(coeffs):
            if cm == 0.0:
                continue
            srow = _stirling2_row(m)
            total += cm * sum(srow[j] * x**j * derivs[j] for j in range(m + 1))
        return total

    return abs(apply_theta_poly(left) - hp.scale * x * apply_theta_poly(right))


def _poly_mul(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def pk_binomial(a: float, params: PkParams, x: float) -> EvalReal:
    """Binomial identity: sum_n P(a; n) x^n / n! = (1 - x p)^(-a/k), |x| < 1/p.

    The series side runs on the Pochhammer term recurrence; the closed side
    is evaluated through log1p.  The returned abs_err folds in the observed
    gap between the two, so a caller sees immediately if they drift apart.
    """
    if not isinstance(params, PkParams):
        raise DomainError("params must be a PkParams instance")
    if not (math.isfinite(a) and math.isfinite(x)):
        raise DomainError("a and x must be finite")
    if abs(x) >= 1.0 / params.p:
        raise DivergentInput(f"|x|={abs(x)} is outside the radius 1/p = {1.0 / params.p}")
    alpha = a / params.k
    p = params.p
    term = 1.0
    total = 1.0
    quiet = 0
    for n in range(DEFAULT_MAX_TERMS):
        term *= x * p * (alpha + n) / (n + 1.0)
        total += term
        if abs(term) < DEFAULT_TOL * abs(total):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    else:
        raise MaxTermsExceeded(
            "binomial series did not settle",
            EvalReal(value=total, abs_err=abs(term), method=Method.SERIES),
        )
    closed = math.exp(-alpha * math.log1p(-x * p))
    err = abs(total - closed) + DEFAULT_TOL * abs(total)
    return EvalReal(value=total, abs_err=err, method=Method.SERIES)


def confluent_integral(hp: HyperParams, x: float, quad: QuadratureSpec = DEFAULT_SPEC) -> EvalReal:
    """Integral representation, supported for exactly one upper and one lower triple:

        G(b/s) / (G(a/k) G(b/s - a/k)) int_0^1 t^(a/k-1) (1-t)^(b/s-a/k-1) e^((p/t1) x t) dt

    requiring 0 < a/k < b/s for integrability at both endpoints.  The
    integral is split at 1/2 with the upper half reflected so each piece is
    singular only at the origin.
    """
    if hp.r != 1 or hp.q != 1:
        raise UnsupportedShape(f"integral form supports r = q = 1 only, got r={hp.r}, q={hp.q}")
    (a, p, k), (b, t1, s) = hp.upper[0], hp.lower[0]
    alpha = a / k
    beta = b / s
    lam = beta - alpha
    if not (0.0 < alpha < beta):
        raise DomainError(f"need 0 < a/k < b/s, got a/k={alpha}, b/s={beta}")
    z = p / t1 * x

    def lower_half(u):
        tt = 0.5 * u
        return 0.5 * np.exp((alpha - 1.0) * np.log(tt) + (lam - 1.0) * np.log1p(-tt) + z * tt)

    def upper_half(u):
        ss = 0.5 * u  # distance below 1
        return 0.5 * np.exp((lam - 1.0) * np.log(ss) + (alpha - 1.0) * np.log1p(-ss) + z * (1.0 - ss))

    lo = integrate_unit(lower_half, quad)
    hi = integrate_unit(upper_half, quad)
    ln_pref = (
        ln_gamma_classical(beta).value
        - ln_gamma_classical(alpha).value
        - ln_gamma_classical(lam).value
    )
    pref = math.exp(ln_pref)
    value = pref * (lo.value + hi.value)
    err = pref * (lo.abs_err + hi.abs_err) + 1e-14 * abs(value)
    return EvalReal(value=value, abs_err=err, method=Method.INTEGRAL)
