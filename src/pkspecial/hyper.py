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
from collections import namedtuple

from . import quadrature
from .core import (
    _EPS,
    _finite,
    _gamma_product,
    _note_overflow,
    _pole_distance,
    _real,
    _require_params,
    _ValueType,
    DivergentInput,
    DomainError,
    EvalReal,
    LowerPoleError,
    MaxTermsExceeded,
    Method,
    PkParams,
    UnsupportedShape,
    ln_gamma_classical,
)

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

_SERIES_TOL = 1e-14
_SERIES_MAX_TERMS = 100_000


class ConvergenceKind(enum.Enum):
    ALL_FINITE = "all-finite"
    FINITE_RADIUS = "finite-radius"
    DIVERGENT_FORMAL = "divergent-formal"


class ConvergenceClass(_ValueType, namedtuple("ConvergenceClass", "kind radius", defaults=(None,))):
    __slots__ = ()
    kind: ConvergenceKind
    radius: float | None


def _as_triples(seq, what: str) -> tuple[tuple[float, float, float], ...]:
    try:
        items = iter(seq)
    except TypeError:
        raise DomainError(f"{what} must be a sequence of triples, got {seq!r}") from None
    out = []
    for item in items:
        try:
            trip = tuple(_finite(v) for v in item)
        except TypeError:  # not a sequence: no triple either
            trip = ()
        if len(trip) != 3:
            raise DomainError(f"each {what} entry must be a triple, got {item!r}")
        if None in trip:
            raise DomainError(f"{what} entries must be finite, got {item!r}")
        if trip[1] <= 0 or trip[2] <= 0:
            raise DomainError(f"{what} scales must be positive, got {item!r}")
        out.append(trip)
    return tuple(out)


class HyperParams(_ValueType, namedtuple("HyperParams", "upper lower")):
    """Upper triples (a, p, k) and lower triples (b, t, s).

    Every ratio a/k and b/s must be finite, and lower ratios must avoid the
    non-positive integers, where the denominator Pochhammer vanishes;
    violations raise DomainError or LowerPoleError at construction.
    """

    __slots__ = ()
    upper: tuple[tuple[float, float, float], ...]
    lower: tuple[tuple[float, float, float], ...]

    def __new__(cls, upper, lower):
        upper, lower = _as_triples(upper, "upper"), _as_triples(lower, "lower")
        for a, _, k in upper:
            _real("a/k", a / k)
        for b, _, s in lower:
            ratio = _real("b/s", b / s)
            if _pole_distance(ratio) < 1e-12:
                raise LowerPoleError(f"lower ratio b/s = {ratio} is a non-positive integer")
        return tuple.__new__(cls, (upper, lower))

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


def _require_hp(hp) -> HyperParams:
    """hp itself, if it is a HyperParams; DomainError otherwise."""
    if not isinstance(hp, HyperParams):
        raise DomainError(f"hp must be a HyperParams instance, got {hp!r}")
    return hp


def classify(hp: HyperParams) -> ConvergenceClass:
    """Ratio-test classification: entire, finite radius prod(t)/prod(p), or formal."""
    _require_hp(hp)
    if hp.r <= hp.q:
        return ConvergenceClass(ConvergenceKind.ALL_FINITE, None)
    if hp.r == hp.q + 1:
        return ConvergenceClass(ConvergenceKind.FINITE_RADIUS, 1.0 / hp.scale)
    return ConvergenceClass(ConvergenceKind.DIVERGENT_FORMAL, None)


def _ratio_pairs(hp: HyperParams) -> tuple[tuple, tuple]:
    """The (p, a/k) pairs of the upper triples and the (t, b/s) pairs of the lower ones, for _term_ratio."""
    return tuple((p, a / k) for a, p, k in hp.upper), tuple((t, b / s) for b, t, s in hp.lower)


def _term_ratio(upper, lower, x: float, n: int) -> float:
    """term_{n+1} / term_n = x prod p_i (a_i/k_i + n) / ((n+1) prod t_j (b_j/s_j + n)), over _ratio_pairs."""
    num = x
    for p, alpha in upper:
        num *= p * (alpha + n)
    den = float(n + 1)
    for t, beta in lower:
        d = t * (beta + n)
        if d == 0.0:
            raise LowerPoleError(f"lower ratio hit zero at index {n}")
        den *= d
    return num / den


def hyper_series(hp: HyperParams, x: float) -> EvalReal:
    """Partial sum via the term recurrence (_term_ratio), with a three-strike stopping rule.

    Stops once |term| < _SERIES_TOL*|sum| three times in a row (guards against
    alternating-term false stops), or raises MaxTermsExceeded after
    _SERIES_MAX_TERMS terms.  An upper ratio at a non-positive integer
    terminates the series exactly (polynomial case).  abs_err carries the
    tail and the rounding of the sum and of the n ratios behind term n:
    alternating terms far larger than the sum (1F1 at large negative
    argument) cancel to few or no digits.  Terms of one sign past the double
    range sum to a signed inf, with an OverflowNote.
    """
    _require_hp(hp)
    x = _real("x", x)
    cls = classify(hp)
    upper, lower = _ratio_pairs(hp)
    # an upper ratio at a non-positive integer terminates the series exactly
    polynomial = any(a <= 0.0 and _pole_distance(a) < 1e-12 for _, a in upper)
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
    for n in range(_SERIES_MAX_TERMS):
        ratio = _term_ratio(upper, lower, x, n)
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
        if abs(term) <= _SERIES_TOL * abs(total):
            quiet += 1
            if quiet >= 3:
                # r = q + 1: the ratios tend to |x|/radius, and rising ones stay below it
                rho = abs(ratio) if cls.radius is None else max(abs(ratio), abs(x) / cls.radius)
                tail = abs(term) * rho / (1.0 - rho) if rho < 1.0 else _SERIES_TOL * abs(total)
                # each ratio rounds 3 (r + q) + 2 times, each by at most eps/2
                err = abs(tail) + _SERIES_TOL * abs(total) + _EPS * (mass + (1.5 * (hp.r + hp.q) + 1.0) * drift)
                value = _note_overflow(total, "the hypergeometric series at x = {} overflows double precision", x)
                return EvalReal(value=value, abs_err=err, method=Method.SERIES)
        else:
            quiet = 0
    raise MaxTermsExceeded(
        f"no convergence within {_SERIES_MAX_TERMS} terms",
        EvalReal(value=total, abs_err=abs(term) + _EPS * mass, method=Method.SERIES),
    )


def ode_coefficient_residual(hp: HyperParams) -> float:
    """Max relative residual of the ODE's coefficient recurrence.

    The series solves [theta prod(theta + b/s - 1) - A x prod(theta + a/k)] W = 0
    iff  n prod_j (n + b_j/s_j - 1) c_n = A prod_i (n - 1 + a_i/k_i) c_{n-1};
    this checks that per-term identity over n = 1..50.
    """
    _require_hp(hp)
    if hp.r > hp.q + 1:
        raise DivergentInput("no ODE normal form past r = q + 1")
    upper, lower = _ratio_pairs(hp)
    a_scale = hp.scale
    worst = 0.0
    for n in range(1, 51):
        # both sides over c_{n-1}: c_n / c_{n-1} is the series' own term ratio at x = 1
        lhs = n * _term_ratio(upper, lower, 1.0, n - 1)
        for _, beta in lower:
            lhs *= n + beta - 1.0
        rhs = a_scale
        for _, alpha in upper:
            rhs *= alpha + n - 1.0
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def pk_binomial(a: float, params: PkParams, x: float) -> EvalReal:
    """Binomial identity: sum_n P(a; n) x^n / n! = (1 - x p)^(-a/k), |x| < 1/p.

    The series is the 1F0 case of hyper_series, upper triple (a, p, k), and
    carries its abs_err: eps*sum|term| plus the tail.
    """
    _require_params(params)
    a, x = _real("a", a), _real("x", x)
    if abs(x) >= 1.0 / params.p:
        raise DivergentInput(f"|x|={abs(x)} is outside the radius 1/p = {1.0 / params.p}")
    return hyper_series(HyperParams(((a, params.p, params.k),), ()), x)


def confluent_integral(hp: HyperParams, x: float) -> EvalReal:
    """Integral representation, supported for exactly one upper and one lower triple:

        G(b/s) / (G(a/k) G(b/s - a/k)) int_0^1 t^(a/k-1) (1-t)^(b/s-a/k-1) e^((p/t1) x t) dt

    requiring 0 < a/k < b/s for integrability at both endpoints.  The integrand
    is the normalised Beta(a/k, b/s - a/k) density times e^((p/t1) x t): the
    prefactor's log joins the log scale of quadrature._split_beta_kernel's two
    power pieces, so the value leaves log space once, inside the rule.
    abs_err adds the rule's claim and GammaEval.abs_err of the value's log
    with the prefactor's log error (its log-gammas' error and rounding, and lam's).
    """
    _require_hp(hp)
    if hp.r != 1 or hp.q != 1:
        raise UnsupportedShape(f"integral form supports r = q = 1 only, got r={hp.r}, q={hp.q}")
    x = _real("x", x)
    (a, p, k), (b, t1, s) = hp.upper[0], hp.lower[0]
    alpha = a / k
    beta = b / s
    lam = beta - alpha
    if not (0.0 < alpha < beta):
        raise DomainError(f"need 0 < a/k < b/s, got a/k={alpha}, b/s={beta}")
    # lam holds both quotients' roundings, eps (alpha + beta) / 2, which lnGamma(lam) near 0 scales by 1/lam
    g = ln_gamma_classical(lam)
    g = g._replace(abs_err_ln=g.abs_err_ln + _EPS * (1.0 + alpha + beta) / lam)
    pre = _gamma_product(0.0, (ln_gamma_classical(beta),), (ln_gamma_classical(alpha), g))
    res = quadrature._split_beta_kernel(alpha, lam, p / t1 * x, pre.ln_value)
    # the prefactor's share of the claim: the rule at the value's log, with the prefactor's log error
    share = pre._replace(ln_value=math.log(res.value) if res.value > 0.0 else -math.inf).abs_err
    return EvalReal(value=res.value, abs_err=res.abs_err + share, method=Method.INTEGRAL)
