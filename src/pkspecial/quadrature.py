"""Deterministic double-exponential quadrature on (0,1): one tanh-sinh rule.

The trapezoid rule after the tanh-sinh change of variable,
t(u) = sigmoid(pi*sinh(u)) (Takahasi & Mori, 1974), pushes endpoint
behaviour into doubly-exponential decay.  Each refinement level halves the
step; abscissae of earlier levels are reused, and node tables are cached per
level.  The error estimate follows the Borwein-Bailey-Girgensohn
extrapolation of successive level differences, floored at a few ulps of the
accumulated value.

Integrands must accept numpy arrays (plain arithmetic expressions on the
argument are enough).  Nodes exist only where t and 1-t are representable
in double precision, so the integrand is never called at exactly 0 or 1.
The semiaxis (0,inf) is folded onto (0,1) by s = 1/t.

The integral routes do not hand the rule a singular integrand.  They write
each integral as pieces int_0^h t^(alpha-1) g(t) dt, alpha > 0, with g given
as a log, and ``_power_integral`` substitutes t = h v^(1/beta),
beta = min(alpha, 1): for alpha < 1 this absorbs the singularity, so no mass
lies below the first node (Mori & Sugihara, 2001), and for alpha >= 1 it is
the plain form.  Its error claim adds the rounding of the exponentiated log.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .core import _EPS, EvalReal, Method

__all__ = [
    "QuadratureSpec",
    "NoConvergence",
    "integrate_unit",
    "integrate_semiaxis",
]

# Levels beyond this reuse the deepest grid: double precision has no finer
# structure to resolve, and node tables would grow past any practical use.
_MAX_LEVEL = 14

_H0 = 0.5  # level-1 step in the transformed variable
_UMAX = 6.2  # past this the weights underflow

_BIG = sys.float_info.max
_LOG10_MAX = math.log10(_BIG)  # 10.0 ** est overflows past this


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and refinement budget for one integration."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-11
    max_refinements: int = 12

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < 1.0 and 0.0 < self.rel_tol < 1.0):
            raise ValueError("abs_tol and rel_tol must lie in (0, 1)")
        if not (1 <= self.max_refinements <= 30):
            raise ValueError("max_refinements must be in 1..30")


DEFAULT_SPEC = QuadratureSpec()


class NoConvergence(RuntimeError):
    """Refinement budget exhausted; the best partial result rides along."""

    def __init__(self, message: str, partial: EvalReal):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# node table


@lru_cache(maxsize=None)
def _nodes(level: int):
    """(t, ln t, w) arrays of the nodes new to this level, built once per level.

    t = 1/(1+exp(-2v)) with v = (pi/2) sinh(u); w = pi cosh(u) t (1-t).
    t, 1-t and ln t are formed from exp(-2|v|) directly so that nodes hug
    both endpoints without cancellation; nodes whose t or 1-t underflow are
    dropped (their weights underflow with them).
    """
    import numpy as np

    h = _H0 / 2 ** (level - 1)
    m = int(math.floor(_UMAX / h))
    if level == 1:
        u = h * np.arange(-m, m + 1)
    else:
        odd = np.arange(1, m + 1, 2)
        u = h * np.concatenate((-odd[::-1], odd))
    v = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * np.abs(v))
    near = e / (1.0 + e)          # distance to the closer endpoint
    far = 1.0 / (1.0 + e)
    t = np.where(v >= 0, far, near)
    tc = np.where(v >= 0, near, far)
    lt = -np.log1p(e) - np.where(v >= 0, 0.0, 2.0 * np.abs(v))
    w = math.pi * np.cosh(u) * t * tc
    keep = (t > 0.0) & (tc > 0.0)
    return t[keep], lt[keep], w[keep]


# ---------------------------------------------------------------------------
# driver


def _level_sum(integrand, level: int) -> tuple[float, float]:
    """Weighted sums over the level's new nodes of f and of f*|log f|, under the caller's np.errstate.

    ``integrand(t, lt)`` returns (f, |log f| or None) at the nodes; f may hold one row per piece.
    """
    import numpy as np

    t, lt, w = _nodes(level)
    f, abs_log = integrand(t, lt)
    contrib = f * w
    s = float(contrib.sum())
    if not math.isfinite(s):
        # Non-finite values in the doubly-exponential tail come from 0*inf
        # style underflow races and carry no mass; elsewhere they mean the
        # integrand is outside the supported class.
        bad = ~np.isfinite(contrib)
        if np.any(bad & ~((t < 1e-250) | (t > 1.0 - 1e-15))):
            raise NoConvergence(
                "integrand returned non-finite values away from the endpoints",
                EvalReal(value=math.nan, abs_err=math.inf, method=Method.INTEGRAL),
            )
        contrib = np.where(bad, 0.0, contrib)
        s = float(contrib.sum())
    return s, 0.0 if abs_log is None else float((contrib * abs_log).sum())


def _bbg_error(history: list[float], scale: float) -> float:
    """Borwein-Bailey-Girgensohn error estimate from successive level values.

    The extrapolated estimate assumes the digits-double-per-level regime; to
    stay conservative before that regime is established it is floored at
    1e-3 of the last observed level difference.
    """
    floor = 8.0 * _EPS * (abs(scale) + 1e-300)
    if len(history) < 2:
        return math.inf
    d1 = abs(history[-1] - history[-2])
    if len(history) == 2:
        return max(d1, floor)
    d2 = abs(history[-1] - history[-3])
    if d1 == 0.0:
        return floor
    if d2 == 0.0:
        d2 = d1
    log_d1 = math.log10(d1)
    log_d2 = math.log10(d2)
    est = max(log_d1 * log_d1 / log_d2, 2.0 * log_d1, math.log10(floor))
    if est > _LOG10_MAX:
        # level differences above 1 make the extrapolation blow up: no estimate
        return math.inf
    return max(10.0 ** est, 1e-3 * d1, floor)


def _integrate(integrand, spec: QuadratureSpec) -> EvalReal:
    """Refine until the BBG estimate meets the spec; abs_err adds eps times the rounding sum."""
    import numpy as np

    levels = min(spec.max_refinements, _MAX_LEVEL)
    value = rounding = 0.0
    history: list[float] = []
    err = math.inf
    h = _H0
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        for level in range(1, levels + 1):
            s, r = _level_sum(integrand, level)
            if level == 1:
                value, rounding = h * s, h * r
            else:
                h *= 0.5
                value, rounding = 0.5 * value + h * s, 0.5 * rounding + h * r
            history.append(value)
            err = _bbg_error(history, value)
            if level >= 4 and err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
                return EvalReal(value=value, abs_err=err + _EPS * rounding, method=Method.INTEGRAL)
    # with no finite error estimate the partial value carries no information
    partial = value if math.isfinite(err) else math.nan
    raise NoConvergence(
        f"no convergence within {spec.max_refinements} refinements (err~{err:.3g})",
        EvalReal(value=partial, abs_err=err + _EPS * rounding, method=Method.INTEGRAL),
    )


def integrate_unit(f, spec: QuadratureSpec = DEFAULT_SPEC) -> EvalReal:
    """Integrate f over (0,1); f may be singular like t**(a-1), a > 0, at 0."""
    return _integrate(lambda t, lt: (f(t), None), spec)


def integrate_semiaxis(f, spec: QuadratureSpec = DEFAULT_SPEC) -> EvalReal:
    """Integrate f over (0,inf) as f(t) + f(1/t)/t^2 over (0,1); f must decay like t**-beta, beta > 1."""
    return _integrate(lambda t, lt: (f(t) + f(1.0 / t) / t / t, None), spec)


def _power_integral(pieces) -> EvalReal:
    """The sum over (alpha, h, log_g) of int_0^h t^(alpha-1) g(t) dt, alpha, h > 0.

    ``log_g(t, lt)`` gives log g from t and lt = ln t.  Each piece becomes
    exp(ln_scale) int_0^1 v^(alpha/beta-1) g(h v^(1/beta)) dv with
    beta = min(alpha, 1) and ln_scale = alpha ln h - ln beta, all pieces in
    one refinement loop.  The integrand is exponentiated from its log, whose
    rounding, eps |log f| relative, is claimed on top of the BBG estimate.
    """
    import numpy as np

    maps = []
    for alpha, h, log_g in pieces:
        beta = min(alpha, 1.0)
        maps.append((alpha / beta - 1.0, 1.0 / beta, h, math.log(h), alpha * math.log(h) - math.log(beta), log_g))

    def integrand(v, lv):
        # one row of log f per piece, so that the exp and the sums run once
        log_f = np.empty((len(maps), len(v)))
        for row, (power, inv_beta, h, ln_h, ln_scale, log_g) in zip(log_f, maps):
            if inv_beta != 1.0:
                lt = lv * inv_beta + ln_h
                t = np.exp(lt)
            elif ln_h:
                lt, t = lv + ln_h, h * v
            else:
                lt, t = lv, v
            np.add(log_g(t, lt), power * lv + ln_scale if power else ln_scale, out=row)
        # an underflowed f carries no rounding: keep its log finite so f*|log f| is 0, not nan
        np.maximum(log_f, -_BIG, out=log_f)
        return np.exp(log_f), np.abs(log_f)

    return _integrate(integrand, DEFAULT_SPEC)


def _split_beta_kernel(a: float, b: float, z: float) -> EvalReal:
    """int_0^1 t^(a-1) (1-t)^(b-1) e^(z t) dt, a, b > 0, as its halves on (0, 1/2) and (1/2, 1).

    The upper half is reflected, s = 1 - t, so each half is a power piece
    singular only at the origin.
    """
    import numpy as np

    return _power_integral((
        (a, 0.5, lambda t, lt: (b - 1.0) * np.log1p(-t) + z * t),
        (b, 0.5, lambda s, ls: (a - 1.0) * np.log1p(-s) + z * (1.0 - s)),
    ))
