"""Deterministic double-exponential quadrature on (0,1) and (0,inf).

Two variable transformations of the trapezoid rule:

* tanh-sinh for the unit interval, t(u) = sigmoid(pi*sinh(u)), which pushes
  algebraic endpoint singularities into doubly-exponential decay;
* exp-sinh for the semiaxis, t(u) = exp((pi/2)*sinh(u)), which handles both
  an algebraic singularity at 0 and either stretched-exponential or
  algebraic (t^-beta, beta > 1) decay at infinity.

Each refinement level halves the step; abscissae of earlier levels are
reused, and node tables are cached per level.  The error estimate follows
the Borwein-Bailey-Girgensohn extrapolation of successive level differences,
floored at a few ulps of the accumulated value.

Integrands must accept numpy arrays (plain arithmetic expressions on the
argument are enough).  Nodes are generated only where the transformed
abscissa is representable in double precision, so the integrand is never
called at exactly 0, 1, or inf; left-endpoint singularities t**(a-1) with
a > 0 are well supported, while a strong singularity at t=1 should be moved
to the origin by the caller (substitute t -> 1-t), since doubles thin out
near 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import EvalReal, Method

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

_LOG10_MAX = math.log10(sys.float_info.max)  # 10.0 ** est overflows past this


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
# node tables


def _unit_nodes(level: int):
    """(t, w) arrays of new nodes at this level for the tanh-sinh rule.

    t = 1/(1+exp(-2v)) with v = (pi/2) sinh(u); w = pi cosh(u) t (1-t).
    t and 1-t are formed from exp(-2|v|) directly so that nodes hug both
    endpoints without cancellation; nodes whose t or 1-t underflow are
    dropped (their weights underflow with them).
    """
    import numpy as np

    u = _level_abscissae(level, 6.2)
    v = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * np.abs(v))
    near = e / (1.0 + e)          # distance to the closer endpoint
    far = 1.0 / (1.0 + e)
    t = np.where(v >= 0, far, near)
    tc = np.where(v >= 0, near, far)
    w = math.pi * np.cosh(u) * t * tc
    keep = (t > 0.0) & (tc > 0.0)
    return t[keep], w[keep]


def _semiaxis_nodes(level: int):
    """(t, c) arrays for the exp-sinh rule; the weight is t*c.

    t = exp((pi/2) sinh(u)), c = (pi/2) cosh(u).  The weight is applied as
    (f(t)*t)*c so that f*t is formed first: for integrable singularities and
    decaying tails that product stays in range even where t alone is huge.
    """
    import numpy as np

    u = _level_abscissae(level, 6.8)
    v = 0.5 * math.pi * np.sinh(u)
    keep = np.abs(v) < 708.0
    v = v[keep]
    u = u[keep]
    return np.exp(v), 0.5 * math.pi * np.cosh(u)


def _level_abscissae(level: int, umax: float) -> np.ndarray:
    """Transformed-variable grid points new to the given level."""
    import numpy as np

    h = _H0 / 2 ** (level - 1)
    if level == 1:
        m = int(math.floor(umax / h))
        return h * np.arange(-m, m + 1)
    m = int(math.floor(umax / h))
    odd = np.arange(1, m + 1, 2)
    return h * np.concatenate((-odd[::-1], odd))


_node_cache: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}


def _nodes(kind: str, level: int):
    key = (kind, level)
    if key not in _node_cache:
        _node_cache[key] = _unit_nodes(level) if kind == "unit" else _semiaxis_nodes(level)
    return _node_cache[key]


# ---------------------------------------------------------------------------
# driver


def _level_sum(kind: str, f, level: int) -> float:
    import numpy as np

    t, wc = _nodes(kind, level)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        if kind == "unit":
            contrib = f(t) * wc
        else:
            contrib = (f(t) * t) * wc
    contrib = np.asarray(contrib, dtype=float)
    bad = ~np.isfinite(contrib)
    if bad.any():
        # Non-finite values in the doubly-exponential tail come from 0*inf
        # style underflow races and carry no mass; elsewhere they mean the
        # integrand is outside the supported class.
        tail = (t < 1e-250) | (t > 1e250) if kind == "semiaxis" else (t < 1e-250) | (t > 1.0 - 1e-15)
        if np.any(bad & ~tail):
            raise NoConvergence(
                "integrand returned non-finite values away from the endpoints",
                EvalReal(value=math.nan, abs_err=math.inf, method=Method.INTEGRAL),
            )
        contrib = np.where(bad, 0.0, contrib)
    return float(np.sum(contrib))


def _bbg_error(history: list[float], scale: float) -> float:
    """Borwein-Bailey-Girgensohn error estimate from successive level values.

    The extrapolated estimate assumes the digits-double-per-level regime; to
    stay conservative before that regime is established it is floored at
    1e-3 of the last observed level difference.
    """
    floor = 8.0 * 2.220446049250313e-16 * (abs(scale) + 1e-300)
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


def _integrate(kind: str, f, spec: QuadratureSpec) -> EvalReal:
    levels = min(spec.max_refinements, _MAX_LEVEL)
    value = 0.0
    history: list[float] = []
    err = math.inf
    h = _H0
    for level in range(1, levels + 1):
        s = _level_sum(kind, f, level)
        if level == 1:
            value = h * s
        else:
            h *= 0.5
            value = 0.5 * value + h * s
        history.append(value)
        err = _bbg_error(history, value)
        if level >= 4 and err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            return EvalReal(value=value, abs_err=err, method=Method.INTEGRAL)
    # A budget past the depth cap cannot refine further but never worsens
    # the estimate, so the monotonicity of abs_err in max_refinements holds.
    if spec.max_refinements > _MAX_LEVEL and err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
        return EvalReal(value=value, abs_err=err, method=Method.INTEGRAL)
    # with no finite error estimate the partial value carries no information
    partial = value if math.isfinite(err) else math.nan
    raise NoConvergence(
        f"no convergence within {spec.max_refinements} refinements (err~{err:.3g})",
        EvalReal(value=partial, abs_err=err, method=Method.INTEGRAL),
    )


def integrate_unit(f, spec: QuadratureSpec = DEFAULT_SPEC) -> EvalReal:
    """Integrate f over (0,1); f may be singular like t**(a-1), a > 0, at 0."""
    return _integrate("unit", f, spec)


def integrate_semiaxis(f, spec: QuadratureSpec = DEFAULT_SPEC) -> EvalReal:
    """Integrate f over (0,inf); f must decay at least like t**-beta, beta > 1."""
    return _integrate("semiaxis", f, spec)


def _split_beta_kernel(a: float, b: float, z: float) -> tuple[EvalReal, EvalReal]:
    """int_0^1 t^(a-1) (1-t)^(b-1) e^(z t) dt, a, b > 0, as its halves on (0, 1/2) and (1/2, 1).

    The upper half is reflected, s = 1 - t, so each half is singular only at
    the origin, where the grid is dense.
    """
    import numpy as np

    def lower(u):
        t = 0.5 * u
        return 0.5 * np.exp((a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t) + z * t)

    def upper(u):
        s = 0.5 * u  # distance below 1 in the original variable
        return 0.5 * np.exp((b - 1.0) * np.log(s) + (a - 1.0) * np.log1p(-s) + z * (1.0 - s))

    # through the module global, so a wrapped integrate_unit sees both halves
    return integrate_unit(lower), integrate_unit(upper)
