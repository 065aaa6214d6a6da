"""Deterministic double-exponential quadrature on (0,1): one tanh-sinh rule.

The trapezoid rule after the tanh-sinh change of variable,
t(u) = sigmoid(pi*sinh(u)) (Takahasi & Mori, 1974), pushes endpoint
behaviour into doubly-exponential decay.  Each refinement level halves the
step and reuses the abscissae of earlier levels.  Level 4 is the earliest
stop, so levels 1 to 4 run as one pass: one integrand call on their nodes
joined end to end, from one cached table.  Each later level is one call on a
cached table of its own.  The first pass's level sums are one gather (a
cached order that lays out each level's entries behind a 0.0) and one
np.add.reduceat, which give each level the bits of ndarray.sum() over its
own nodes; a later level's sum is that ndarray.sum().  The error estimate
follows the Borwein-Bailey-Girgensohn extrapolation of successive level
differences, floored at a few ulps of the accumulated value.

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
A constant factor known by its log rides in each piece's log scale, so a
huge prefactor never multiplies a tiny integral in linear space.  A claim
that is not finite (a value near the top of the double range) ends in
NoConvergence with a nan partial, never in an unbounded value.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import lru_cache

from .core import _EPS, _as_index, _finite, _ValueType, DomainError, EvalReal, Method, NoConvergence

__all__ = [
    "QuadratureSpec",
    "NoConvergence",
    "integrate_unit",
    "integrate_semiaxis",
]

# Levels past this are not run, whatever max_refinements asks: double precision
# has no finer structure to resolve, and node tables would grow past any practical use.
_MAX_LEVEL = 14

# The earliest level whose error estimate may end the refinement; levels 1 to
# this one share one integrand call.
_FIRST_STOP = 4

_H0 = 0.5  # level-1 step in the transformed variable
_UMAX = 6.2  # past this the weights underflow

_BIG = sys.float_info.max
_LOG10_MAX = math.log10(_BIG)  # 10.0 ** est overflows past this


class QuadratureSpec(_ValueType, namedtuple("QuadratureSpec", "abs_tol rel_tol max_refinements")):
    """Tolerance and refinement budget for one integration; budgets 15 to 30 all run _MAX_LEVEL = 14 levels."""

    __slots__ = ()
    abs_tol: float
    rel_tol: float
    max_refinements: int

    def __new__(cls, abs_tol: float = 1e-12, rel_tol: float = 1e-11, max_refinements: int = 12):
        tols = _finite(abs_tol), _finite(rel_tol)
        if not all(t is not None and 0.0 < t < 1.0 for t in tols):
            raise DomainError("abs_tol and rel_tol must lie in (0, 1)")
        levels = _as_index(max_refinements)
        if levels is None or not 1 <= levels <= 30:
            raise DomainError("max_refinements must be in 1..30")
        return tuple.__new__(cls, (*tols, levels))


DEFAULT_SPEC = QuadratureSpec()


# ---------------------------------------------------------------------------
# node table


@lru_cache(maxsize=None)
def _nodes(first: int, last: int):
    """(t, ln t, w) of the nodes new to levels first..last, joined end to end, and where each level starts.

    Level first + i holds entries bounds[i] to bounds[i + 1] of the three
    arrays; each table is built once.  t = 1/(1+exp(-2v)) with
    v = (pi/2) sinh(u); w = pi cosh(u) t (1-t).  t, 1-t and ln t are formed
    from exp(-2|v|) directly so that nodes hug both endpoints without
    cancellation; nodes whose t or 1-t underflow are dropped (their weights
    underflow with them).
    """
    import numpy as np

    u = []
    for level in range(first, last + 1):
        h = _H0 / 2 ** (level - 1)
        m = int(math.floor(_UMAX / h))
        if level == 1:
            u.append(h * np.arange(-m, m + 1))
        else:
            odd = np.arange(1, m + 1, 2)
            u.append(h * np.concatenate((-odd[::-1], odd)))
    ends = np.cumsum([len(level_u) for level_u in u]) - 1
    u = np.concatenate(u)
    v = 0.5 * math.pi * np.sinh(u)
    e = np.exp(-2.0 * np.abs(v))
    near = e / (1.0 + e)          # distance to the closer endpoint
    far = 1.0 / (1.0 + e)
    t = np.where(v >= 0, far, near)
    tc = np.where(v >= 0, near, far)
    lt = -np.log1p(e) - np.where(v >= 0, 0.0, 2.0 * np.abs(v))
    w = math.pi * np.cosh(u) * t * tc
    keep = (t > 0.0) & (tc > 0.0)
    # counted before the kept copies are made, so that the count array is not alive beside them
    bounds = (0, *np.cumsum(keep)[ends].tolist())
    return t[keep], lt[keep], w[keep], bounds


@lru_cache(maxsize=None)
def _gather(first: int, last: int, rows: int):
    """Gather order and segment starts for the sums of joined levels first..last over a (rows, n) product.

    The product is read flat, with its zero slot at entry rows * n.  Each
    level's segment is that slot, then the level's entries of row 0, row 1,
    ... end to end.  np.add.reduceat starts a segment from its first element
    where ndarray.sum() starts from the additive identity, so the leading 0.0
    makes both 0 + the pairwise sum of the level's entries, bit for bit.
    """
    import numpy as np

    bounds = _nodes(first, last)[3]
    n = bounds[-1]
    offsets = n * np.arange(rows)[:, None]
    segments = [np.append(rows * n, offsets + np.arange(a, b)) for a, b in zip(bounds, bounds[1:])]
    starts = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
    return np.concatenate(segments), starts


# ---------------------------------------------------------------------------
# driver


def _level_sums(integrand, first: int, last: int) -> list[tuple[float, float]]:
    """Weighted sums of f and of f*|log f| over the nodes new to each of levels first..last.

    One call ``integrand(t, lt)`` on the levels' nodes joined end to end returns
    (f, |log f| or None); f may hold one row per piece.  The products go into a
    buffer whose last slot holds 0.0.  One level is summed by np.add.reduce, as
    ndarray.sum() would; joined levels by one take through ``_gather``'s order
    and one np.add.reduceat, with the same bits.  Runs under the caller's np.errstate.
    """
    import numpy as np

    t, lt, w, _ = _nodes(first, last)
    f, abs_log = integrand(t, lt)
    buf = np.zeros(f.size + 1)
    contrib = buf[:-1].reshape(f.shape)
    np.multiply(f, w, out=contrib)
    order = _gather(first, last, f.size // len(t)) if first < last else None

    def level_sums() -> list[float]:
        return [np.add.reduce(contrib, None).item()] if order is None else np.add.reduceat(buf.take(order[0]), order[1]).tolist()

    sums = level_sums()
    if not all(map(math.isfinite, sums)):
        # Non-finite values in the doubly-exponential tail come from 0*inf
        # style underflow races and carry no mass; elsewhere they mean the
        # integrand is outside the supported class.
        bad = ~np.isfinite(contrib)
        if np.any(bad & ~((t < 1e-250) | (t > 1.0 - 1e-15))):
            raise NoConvergence(
                "integrand returned non-finite values away from the endpoints",
                EvalReal(value=math.nan, abs_err=math.inf, method=Method.INTEGRAL),
            )
        contrib[bad] = 0.0
        sums = level_sums()
    if abs_log is None:
        return [(s, 0.0) for s in sums]
    np.multiply(contrib, abs_log, out=contrib)
    return list(zip(sums, level_sums()))


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
    if est >= _LOG10_MAX:
        # level differences above 1 make the extrapolation blow up: no estimate
        return math.inf
    return max(10.0 ** est, 1e-3 * d1, floor)


def _integrate(integrand, spec: QuadratureSpec) -> EvalReal:
    """Refine until the BBG estimate meets the spec; abs_err adds eps times the rounding sum.

    Levels 1 to _FIRST_STOP, which no estimate can end early, share one integrand call.
    """
    import numpy as np

    levels = min(spec.max_refinements, _MAX_LEVEL)
    value = rounding = 0.0
    history: list[float] = []
    err = math.inf
    h = _H0
    level = 0
    converged = False
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        while level < levels and not converged:
            for s, r in _level_sums(integrand, level + 1, min(levels, _FIRST_STOP) if level == 0 else level + 1):
                level += 1
                if level == 1:
                    value, rounding = h * s, h * r
                else:
                    h *= 0.5
                    value, rounding = 0.5 * value + h * s, 0.5 * rounding + h * r
                history.append(value)
                # an estimate is read where it can end the refinement, or else from the last level
                if level >= _FIRST_STOP or level == levels:
                    err = _bbg_error(history, value)
                    converged = level >= _FIRST_STOP and err <= max(spec.abs_tol, spec.rel_tol * abs(value))
    claim = err + _EPS * rounding
    if converged and math.isfinite(claim):
        return EvalReal(value=value, abs_err=claim, method=Method.INTEGRAL)
    # with no finite claim the partial value carries no information
    partial = value if math.isfinite(claim) else math.nan
    raise NoConvergence(
        "the rounding claim leaves the double range" if converged
        else f"no convergence within {levels} refinements (err~{err:.3g})",
        EvalReal(value=partial, abs_err=claim, method=Method.INTEGRAL),
    )


def integrate_unit(f, spec: QuadratureSpec = DEFAULT_SPEC) -> EvalReal:
    """Integrate f over (0,1); f may be singular like t**(a-1), a > 0, at 0."""
    import numpy as np

    def integrand(t, lt):
        y = f(t)
        # a constant f may give a scalar, which the level sums need spread over the nodes
        return (y if getattr(y, "shape", None) == t.shape else np.broadcast_to(y, t.shape)), None

    return _integrate(integrand, spec)


def integrate_semiaxis(f, spec: QuadratureSpec = DEFAULT_SPEC) -> EvalReal:
    """Integrate f over (0,inf) as f(t) + f(1/t)/t^2 over (0,1); f must decay like t**-beta, beta > 1."""
    return _integrate(lambda t, lt: (f(t) + f(1.0 / t) / t / t, None), spec)


def _power_integral(pieces, ln_c: float = 0.0) -> EvalReal:
    """exp(ln_c) times the sum over (alpha, h, log_g) of int_0^h t^(alpha-1) g(t) dt, h > 0.

    ``log_g(t, lt)`` gives log g from t and lt = ln t.  Each piece becomes
    exp(ln_scale) int_0^1 v^(alpha/beta-1) g(h v^(1/beta)) dv with
    beta = min(alpha, 1) and ln_scale = alpha ln h - ln beta + ln_c, all
    pieces in one refinement loop, so a constant factor known by its log
    (ln_c) leaves log space only inside the integrand.  The integrand is
    exponentiated from its log, whose rounding, eps |log f| relative, is
    claimed on top of the BBG estimate.  Each alpha is a positive finite
    real: the routes check the quotients they pass.
    """
    import numpy as np

    maps = []
    for alpha, h, log_g in pieces:
        beta = min(alpha, 1.0)
        ln_scale = alpha * math.log(h) - math.log(beta) + ln_c
        maps.append((alpha / beta - 1.0, 1.0 / beta, h, math.log(h), ln_scale, log_g))

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


def _split_beta_kernel(a: float, b: float, z: float, ln_c: float) -> EvalReal:
    """exp(ln_c) int_0^1 t^(a-1) (1-t)^(b-1) e^(z t) dt, a, b > 0, as its halves on (0, 1/2) and (1/2, 1).

    The upper half is reflected, s = 1 - t, so each half is a power piece
    singular only at the origin.  ln_c is the log of a constant factor, such
    as the Beta density's normalisation, that _power_integral folds into each
    piece's scale.
    """
    import numpy as np

    return _power_integral((
        (a, 0.5, lambda t, lt: (b - 1.0) * np.log1p(-t) + z * t),
        (b, 0.5, lambda s, ls: (a - 1.0) * np.log1p(-s) + z * (1.0 - s)),
    ), ln_c)
