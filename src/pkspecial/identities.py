"""Identity catalog: every relation the library audits numerically.

Each entry is declared once, in one place: a stable dotted catalog id
(e.g. "2.30"), the suite it belongs to, a default tolerance, a generator of
points over the audit grid, and a per-point function that returns
(lhs, rhs_printed, rhs_corrected) or, where the point must be skipped, the
reason.  Entries whose commonly printed reading disagrees with the
definition-consistent one return the two right sides separately; for the
rest they coincide.  One generic loop turns the entries into records.

Tolerances follow two bands: closed-form identities audit at 1e-10 or
tighter, while limit/product/series/derivative routes audit at the band the
route can actually sustain (1e-6 for the slow routes, 1e-9 for quadrature).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import (
    DomainError,
    PkParams,
    PoleError,
    best_central_diff,
    central_diff,
    ln_gamma_classical,
    richardson_diff,
)
from .records import IdentityRecord, make_record, relative_error, skipped_record
from . import betapsi, gamma, hyper, pochhammer
from .pochhammer import PochSpec

__all__ = [
    "AuditGrid",
    "IdentityCheck",
    "CATALOG",
    "SUITES",
    "catalog_for_suite",
    "check_point",
]

SUITES = ("pochhammer", "gamma", "beta", "psi", "hyper")


@dataclass(frozen=True)
class AuditGrid:
    """Parameter axes for the audits; the default covers p<k, p=k, p>k."""

    ps: tuple[float, ...] = (0.5, 1.0, 2.0, 3.5)
    ks: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0)
    xs: tuple[float, ...] = (0.3, 0.7, 1.1, 2.5, 4.9, 7.3)
    ys: tuple[float, ...] = (0.3, 1.1, 2.5, 7.3)
    ns: tuple[int, ...] = (0, 1, 2, 5, 11)
    ms: tuple[int, ...] = (2, 3, 4)
    product_terms: int = 100_000
    limit_index: int = 100_000
    series_terms: int = 100_000
    draws: int = 50

    @classmethod
    def default(cls) -> "AuditGrid":
        return cls()

    @classmethod
    def small(cls) -> "AuditGrid":
        return cls(
            ps=(1.0, 2.0),
            ks=(0.5, 2.0),
            xs=(0.7, 2.5),
            ys=(0.3, 1.1),
            ns=(0, 1, 5),
            ms=(2, 3),
            product_terms=20_000,
            limit_index=20_000,
            series_terms=20_000,
            draws=10,
        )

    def as_dict(self) -> dict:
        return {
            "p": list(self.ps),
            "k": list(self.ks),
            "x": list(self.xs),
            "y": list(self.ys),
            "n": list(self.ns),
            "m": list(self.ms),
            "product_terms": self.product_terms,
            "limit_index": self.limit_index,
            "series_terms": self.series_terms,
            "draws": self.draws,
        }


@dataclass(frozen=True)
class IdentityCheck:
    """One catalog identity.

    ``points(grid)`` walks the grid and ``at(point, grid)`` evaluates the
    identity at one point; ``error(lhs, rhs)`` is the discrepancy held to
    the tolerance.  ``run(grid, tol)`` yields one record per point: it is
    the generic loop unless a caller (a tracer, say) passes its own.
    """

    identity_id: str
    suite: str
    tol: float
    points: Callable[[AuditGrid], Iterable[dict]]
    at: Callable[[dict, AuditGrid], tuple[float, float, float] | str]
    note: str = ""
    error: Callable[[float, float], float] = relative_error
    run: Callable[[AuditGrid, float], Iterator[IdentityRecord]] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.run is None:
            object.__setattr__(self, "run", self._run)

    def record(self, point: dict, grid: AuditGrid, tol: float) -> IdentityRecord:
        """The record at one point; a pole there makes it a skipped record."""
        try:
            out = self.at(point, grid)
        except PoleError as exc:
            out = f"pole: {exc}"
        if isinstance(out, str):
            return skipped_record(self.identity_id, point, out)
        return make_record(self.identity_id, point, *out, tol, error=self.error)

    def _run(self, grid: AuditGrid, tol: float) -> Iterator[IdentityRecord]:
        for point in self.points(grid):
            yield self.record(point, grid, tol)


_declared: list[IdentityCheck] = []


def _entry(identity_id, suite, tol, points, note, error=relative_error, **bound):
    """Declare the decorated per-point function (with ``bound`` keywords) as an entry."""

    def declare(at):
        at_point = functools.partial(at, **bound) if bound else at
        _declared.append(IdentityCheck(identity_id, suite, tol, points, at_point, note, error))
        return at

    return declare


# ---------------------------------------------------------------------------
# points


def _pkx(grid: AuditGrid) -> Iterator[dict]:
    return ({"p": p, "k": k, "x": x} for p in grid.ps for k in grid.ks for x in grid.xs)


def _cross(base, key: str, values):
    """Points of ``base`` crossed with ``key`` over ``values(grid)``."""
    return lambda grid: ({**pt, key: float(v)} for pt in base(grid) for v in values(grid))


def _ns(lo: int, hi: int):
    return lambda grid: tuple(n for n in grid.ns if lo <= n <= hi)


def _pkxn(values):
    return _cross(_pkx, "n", values)


def _params(pt: dict) -> PkParams:
    return PkParams(pt["p"], pt["k"])


def _spec(pt: dict) -> PochSpec:
    return PochSpec(pt["x"], int(pt["n"]), _params(pt))


def _poch(x: float, n: int, params: PkParams) -> float:
    return pochhammer.poch_direct(PochSpec(x, n, params))


def _g(params: PkParams, x: float) -> float:
    return gamma.gamma_closed(params, x).value


# ---------------------------------------------------------------------------
# pochhammer suite


@_entry("2.2", "pochhammer", 5e-14, _pkxn(_ns(1, 99)), "elementary-symmetric expansion")
def _symmetric(pt, grid):
    spec = _spec(pt)
    lhs, rhs = pochhammer.poch_direct(spec), pochhammer.poch_symmetric(spec)
    return lhs, rhs, rhs


@_entry("2.4", "pochhammer", 1e-6, _pkxn(_ns(1, 8)), "d/dk vs central differences")
def _poch_dk(pt, grid):
    p, x, n = pt["p"], pt["x"], int(pt["n"])
    lhs = best_central_diff(lambda kk: _poch(x, n, PkParams(p, kk)), pt["k"])
    spec = _spec(pt)
    return lhs, pochhammer.poch_dk_printed(spec), pochhammer.poch_dk(spec)


@_entry("2.5", "pochhammer", 1e-6, _pkxn(lambda grid: grid.ns[:4]), "d/dp vs central differences")
def _poch_dp(pt, grid):
    k, x, n = pt["k"], pt["x"], int(pt["n"])
    lhs = best_central_diff(lambda pp: _poch(x, n, PkParams(pp, k)), pt["p"])
    rhs = pochhammer.poch_dp(_spec(pt))
    return lhs, rhs, rhs


_rescale_points = _cross(_pkxn(_ns(1, 5)), "s", lambda grid: grid.ks)


@_entry("2.8", "pochhammer", 1e-13, _rescale_points, "step rescale", mode="2.8")
@_entry("2.9", "pochhammer", 1e-13, _rescale_points, "step+weight rescale", mode="2.9")
@_entry("2.10", "pochhammer", 1e-13, _rescale_points, "weight rescale", mode="2.10")
def _rescale(pt, grid, mode):
    # 2.8 and 2.9 take the left side at step s, 2.10 at the point's own step
    spec = _spec(pt)
    if mode == "2.10":
        lhs = pochhammer.poch_direct(spec)
    else:
        lhs = _poch(spec.x, spec.n, PkParams(pt["p"], pt["s"]))
    rhs = pochhammer.poch_rescale(spec, pt["s"], mode)
    return lhs, rhs, rhs


@_entry("2.20", "pochhammer", 1e-13, _pkxn(lambda grid: grid.ns), "classical reduction")
def _reduce(pt, grid):
    spec = _spec(pt)
    lhs, rhs = pochhammer.poch_direct(spec), pochhammer.poch_reduce(spec)
    return lhs, rhs, rhs


@_entry(
    "2.21", "pochhammer", 1e-12, _cross(_pkxn(_ns(1, 5)), "q", lambda grid: (1, 2, 3)),
    "block multiplication",
)
def _generalized(pt, grid):
    spec, q = _spec(pt), int(pt["q"])
    lhs = _poch(spec.x, spec.n * q, spec.params)
    rhs = pochhammer.poch_generalized(spec, q)
    return lhs, rhs, rhs


@_entry("2.33", "pochhammer", 1e-12, _pkxn(_ns(1, 99)), "difference recurrence")
def _difference(pt, grid):
    # n p P(x; n-1) = P(x; n) - P(x-k; n); the printed reading drops the p
    spec = _spec(pt)
    params, n, x = spec.params, spec.n, spec.x
    lhs = pochhammer.poch_direct(spec) - _poch(x - params.k, n, params)
    lower = _poch(x, n - 1, params)
    return lhs, n * lower, n * params.p * lower


@_entry(
    "2.34", "pochhammer", 1e-13, _cross(_pkxn(lambda grid: grid.ns[:4]), "j", _ns(0, 5)),
    "index splitting",
)
def _splitting(pt, grid):
    # P(x; n+j) = P(x; j) P(x+jk; n)
    spec, j = _spec(pt), int(pt["j"])
    params, n, x = spec.params, spec.n, spec.x
    lhs = _poch(x, n + j, params)
    rhs = _poch(x, j, params) * _poch(x + j * params.k, n, params)
    return lhs, rhs, rhs


# ---------------------------------------------------------------------------
# gamma suite


@_entry("2.6", "gamma", 1e-6, _pkx, "defining limit, n+1 factors", variant="2.6")
@_entry("2.7", "gamma", 1e-6, _pkx, "defining limit", variant="2.7")
def _limit(pt, grid, variant):
    params, x = _params(pt), pt["x"]
    lhs = _g(params, x)
    rhs = gamma.gamma_limit(params, x, grid.limit_index, accelerate=True, variant=variant).value
    return lhs, rhs, rhs


@_entry("2.14", "gamma", 1e-9, _cross(_pkx, "a", lambda grid: (1.0,)), "integral form")
@_entry("2.17", "gamma", 1e-9, _cross(_pkx, "a", lambda grid: (5.0,)), "scaled integral")
def _integral(pt, grid):
    params, x = _params(pt), pt["x"]
    lhs = _g(params, x)
    rhs = gamma.gamma_integral(params, x, a_scale=pt["a"]).value
    return lhs, rhs, rhs


@_entry("2.15", "gamma", 1e-6, _pkx, "Euler product")
def _euler_product(pt, grid):
    params, x = _params(pt), pt["x"]
    lhs = _g(params, x)
    corrected = gamma.gamma_euler_product(params, x, grid.product_terms).value
    # the uncorrected prefactor is p^(x/k)/k instead of p^(x/k)/x
    return lhs, corrected * (x / pt["k"]), corrected


@_entry("2.16", "gamma", 1e-6, _pkx, "limit-product reciprocal", route="gamma_limit_product_recip")
@_entry("2.18", "gamma", 1e-6, _pkx, "Weierstrass reciprocal", route="gamma_weierstrass_recip")
def _reciprocal(pt, grid, route):
    params, x = _params(pt), pt["x"]
    lhs = _g(params, x)
    corrected = 1.0 / getattr(gamma, route)(params, x, grid.product_terms).value
    # the uncorrected prefactor divides the reciprocal by k on top
    return lhs, pt["k"] * corrected, corrected


@_entry("2.19", "gamma", 1e-13, _pkx, "one-parameter reduction")
def _k_reduction(pt, grid):
    p, k, x = pt["p"], pt["k"], pt["x"]
    z = x / k
    lhs = _g(_params(pt), x)
    # route through the one-parameter reduction (p/k)^(x/k) * k^(x/k-1) Gamma(x/k)
    lg = ln_gamma_classical(z)
    rhs = lg.sign * math.exp(z * math.log(p / k) + (z - 1.0) * math.log(k) + lg.value)
    return lhs, rhs, rhs


def _near_int(v: float, margin: float) -> bool:
    return abs(v - round(v)) <= margin


def _near_pole(k: float, *args: float) -> bool:
    return any(a / k <= 0.5 and _near_int(a / k, 1e-3) for a in args)


_NEAR_POLE = "argument near pole lattice"
_NEAR_INT = "x/k within margin of an integer"


@_entry("2.22", "gamma", 1e-10, _pkxn(_ns(0, 99)), "Gamma ratio")
def _gamma_ratio(pt, grid):
    spec = _spec(pt)
    if _near_pole(pt["k"], spec.x, spec.x + spec.n * pt["k"]):
        return _NEAR_POLE
    rhs = pochhammer.poch_gamma_ratio(spec)
    return pochhammer.poch_direct(spec), rhs, rhs


@_entry("2.23", "gamma", 1e-10, _pkx, "functional equation")
def _functional(pt, grid):
    params, p, k, x = _params(pt), pt["p"], pt["k"], pt["x"]
    if _near_pole(k, x, x + k):
        return _NEAR_POLE
    rhs = (x * p / k) * _g(params, x)
    return _g(params, x + k), rhs, rhs


@_entry("2.24", "gamma", 1e-10, _pkxn(_ns(0, 99)), "n-step recurrence")
def _n_step(pt, grid):
    params, p, k, x, n = _params(pt), pt["p"], pt["k"], pt["x"], int(pt["n"])
    if _near_pole(k, x, x + n * k):
        return _NEAR_POLE
    rising = 1.0
    for i in range(n):
        rising *= x / k + i
    rhs = p**n * rising * _g(params, x)
    return _g(params, x + n * k), rhs, rhs


@_entry("2.25", "gamma", 1e-10, _pkxn(_ns(0, 5)), "downward product")
def _downward(pt, grid):
    params, p, k, x, n = _params(pt), pt["p"], pt["k"], pt["x"], int(pt["n"])
    if _near_pole(k, x, x - n * k):
        return _NEAR_POLE
    lhs = _g(params, x) / _g(params, x - n * k)
    rhs = (p / k) ** n
    for i in range(1, n + 1):
        rhs *= x - i * k
    return lhs, rhs, rhs


@_entry("2.26", "gamma", 1e-10, _pkxn(_ns(0, 5)), "alternating ratio")
def _alternating(pt, grid):
    params, k, x, n = _params(pt), pt["k"], pt["x"], int(pt["n"])
    if _near_pole(k, x, x - n * k, -x + n * k + k, -x + k):
        return _NEAR_POLE
    lhs = _g(params, x) / _g(params, x - n * k)
    rhs = (-1.0) ** n * _g(params, -x + n * k + k) / _g(params, -x + k)
    return lhs, rhs, rhs


@_entry("2.27", "gamma", 1e-10, _pkx, "value at 1")
def _value_at_one(pt, grid):
    p, k = pt["p"], pt["k"]
    lg = ln_gamma_classical(1.0 / k)
    rhs = lg.sign * math.exp(math.log(p) / k - math.log(k) + lg.value)
    return _g(_params(pt), 1.0), rhs, rhs


@_entry("2.28", "gamma", 1e-10, _pkx, "value at k")
def _value_at_k(pt, grid):
    p, k = pt["p"], pt["k"]
    return _g(_params(pt), k), p / k, p / k


@_entry("2.29", "gamma", 1e-10, _pkx, "value at p")
def _value_at_p(pt, grid):
    p, k = pt["p"], pt["k"]
    lg = ln_gamma_classical(p / k)
    rhs = lg.sign * math.exp((p / k) * math.log(p) - math.log(k) + lg.value)
    return _g(_params(pt), p), rhs, rhs


@_entry("2.30", "gamma", 1e-10, _pkx, "negated reflection")
def _negated_reflection(pt, grid):
    params, k, x = _params(pt), pt["k"], pt["x"]
    if _near_int(x / k, 1e-3):
        return _NEAR_INT
    lhs = _g(params, x) * _g(params, -x)
    corrected = -math.pi / (x * k * math.sin(math.pi * x / k))
    # the printed reading has the opposite sign
    return lhs, -corrected, corrected


@_entry("2.31", "gamma", 1e-10, _pkx, "reflection")
def _reflection(pt, grid):
    params, p, k, x = _params(pt), pt["p"], pt["k"], pt["x"]
    if _near_int(x / k, 1e-3):
        return _NEAR_INT
    lhs = _g(params, x) * _g(params, k - x)
    rhs = (p / k**2) * math.pi / math.sin(math.pi * x / k)
    return lhs, rhs, rhs


@_entry("2.32", "gamma", 1e-10, _cross(_pkx, "m", lambda grid: grid.ms), "multiplication")
def _multiplication(pt, grid):
    params, p, k, x, m = _params(pt), pt["p"], pt["k"], pt["x"], int(pt["m"])
    if m < 2:
        raise DomainError("2.32 needs m >= 2")
    ln_lhs = 0.0
    sign_lhs = 1
    for r_idx in range(m):
        g = gamma.gamma_closed(params, x + k * r_idx / m)
        ln_lhs += g.ln_value
        sign_lhs *= g.sign
    gm = gamma.gamma_closed(params, m * x)
    ln_rhs = (
        (m - 1) / 2.0 * math.log(p)
        - (m - 1) * math.log(k)
        + (m - 1) / 2.0 * math.log(2.0 * math.pi)
        + (0.5 - m * x / k) * math.log(m)
        + gm.ln_value
    )
    rhs = gm.sign * math.exp(ln_rhs)
    return sign_lhs * math.exp(ln_lhs), rhs, rhs


# ---------------------------------------------------------------------------
# beta suite


def _beta_points(grid: AuditGrid) -> Iterator[dict]:
    return (
        {"p": 1.0, "k": k, "x": x, "y": y} for k in grid.ks for x in grid.ys for y in grid.ys
    )


def _beta_definition_points(grid: AuditGrid) -> Iterator[dict]:
    return (
        {"p": p, "k": k, "x": x, "y": y}
        for k in grid.ks
        for p in grid.ps
        for x in grid.ys
        for y in grid.ys
    )


@_entry("3.1", "beta", 1e-12, _beta_definition_points, "Gamma-ratio definition")
def _beta_definition(pt, grid):
    params, x, y = _params(pt), pt["x"], pt["y"]
    gx = gamma.gamma_closed(params, x)
    gy = gamma.gamma_closed(params, y)
    gxy = gamma.gamma_closed(params, x + y)
    lhs = math.exp(gx.ln_value + gy.ln_value - gxy.ln_value)
    rhs = betapsi.beta_closed(betapsi.BetaArgs(x, y, params)).value
    return lhs, rhs, rhs


@_entry("3.2", "beta", 1e-9, _beta_points, "unit integral", form="unit")
@_entry("3.3", "beta", 1e-9, _beta_points, "symmetric integral", form="symmetric")
@_entry("3.4", "beta", 1e-9, _beta_points, "semiaxis integral", form="semiaxis")
def _beta_integral(pt, grid, form):
    args = betapsi.BetaArgs(pt["x"], pt["y"], _params(pt))
    rhs = betapsi.beta_integral(args, form).value
    return betapsi.beta_closed(args).value, rhs, rhs


# ---------------------------------------------------------------------------
# psi suite


def _ln_gamma_slope(pt: dict) -> float:
    """d/dx log G at the point, by Richardson-paired central differences."""
    params, x = _params(pt), pt["x"]
    return richardson_diff(
        lambda t: gamma.gamma_closed(params, t).ln_value, x, h=1e-3 * min(1.0, x)
    )


@_entry("3.6", "psi", 1e-7, _pkx, "log-derivative definition")
def _psi_definition(pt, grid):
    rhs = betapsi.psi(_params(pt), pt["x"]).value
    return _ln_gamma_slope(pt), rhs, rhs


@_entry("3.7", "psi", 1e-8, _pkx, "antiderivative recovery")
def _ln_gamma_via_psi(pt, grid):
    params, x = _params(pt), pt["x"]
    rhs = betapsi.ln_gamma_via_psi(params, x).value
    return gamma.gamma_closed(params, x).ln_value, rhs, rhs


@_entry("3.8", "psi", 1e-7, _pkx, "closed form vs derivative")
def _psi_closed_form(pt, grid):
    params, x = _params(pt), pt["x"]
    lhs = _ln_gamma_slope(pt)
    return lhs, betapsi.psi_printed(params, x), betapsi.psi(params, x).value


@_entry("3.9", "psi", 1e-6, _pkx, "harmonic-lattice series", form="3.9")
@_entry("3.10", "psi", 1e-6, _pkx, "shifted-lattice series", form="3.10")
def _psi_series(pt, grid, form):
    params, p, k, x = _params(pt), pt["p"], pt["k"], pt["x"]
    lhs = betapsi.psi(params, x).value
    corrected = betapsi.psi_series(params, x, form, grid.series_terms).value
    lnp_k = math.log(p) / k
    # the un-normalized family scales the digamma part by k
    return lhs, lnp_k + k * (corrected - lnp_k), corrected


@_entry("3.11", "psi", 1e-4, _cross(_pkx, "r", lambda grid: (2, 3)), "polygamma vs differences")
def _polygamma(pt, grid):
    params, x, r = _params(pt), pt["x"], int(pt["r"])

    def psi_at(t: float) -> float:
        return betapsi.psi(params, t).value

    h = 1e-3 * min(1.0, x)
    if r == 2:
        lhs = richardson_diff(psi_at, x, h=h)
    else:
        lhs = central_diff(psi_at, x, h=max(h, 1e-4 * x), order=2)
    corrected = betapsi.polygamma(params, x, r).value
    return lhs, betapsi.polygamma_printed(params, x, r), corrected


# ---------------------------------------------------------------------------
# hyper suite


def _draw_params(rng: np.random.Generator):
    # Ratios a/k stay below ~4.5 and the argument below, in effect, half the
    # unit disk after scaling: round-trip agreement at 1e-12 is then a fair
    # ask of double precision even for alternating terms.
    shapes = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2))
    r, q = shapes[int(rng.integers(0, len(shapes)))]
    upper = tuple(
        (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.7, 2.0)), float(rng.uniform(0.7, 2.0)))
        for _ in range(r)
    )
    lower = tuple(
        (float(rng.uniform(0.6, 3.0)), float(rng.uniform(0.7, 2.0)), float(rng.uniform(0.7, 2.0)))
        for _ in range(q)
    )
    return hyper.HyperParams(upper=upper, lower=lower)


_REDUCTION_SEED = 20240211
_ODE_SEED = 20240212


@functools.cache
def _hyper_draws(
    seed: int, count: int, with_x: bool
) -> tuple[tuple[hyper.HyperParams, float], ...]:
    """The first ``count`` seeded parameter draws, each with an argument when asked.

    A point names its draw by index; the draws are made once per grid size.
    """
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        hp = _draw_params(rng)
        x = math.nan
        if with_x:
            cls = hyper.classify(hp)
            span = cls.radius / 2.0 if cls.radius is not None else 0.5 / max(1.0, hp.scale)
            x = float(rng.uniform(-span, span))
        draws.append((hp, x))
    return tuple(draws)


def _reduction_points(grid: AuditGrid) -> Iterator[dict]:
    draws = _hyper_draws(_REDUCTION_SEED, grid.draws, True)
    return ({"draw": float(i), "x": x} for i, (_, x) in enumerate(draws))


@_entry("4.2", "hyper", 1e-12, _reduction_points, "classical reduction round-trip")
def _reduction(pt, grid):
    hp, x = _hyper_draws(_REDUCTION_SEED, grid.draws, True)[int(pt["draw"])][0], pt["x"]
    lhs = hyper.hyper_series(hp, x).value
    reduced = hyper.reduce_classical(hp)
    classical = hyper.HyperParams(
        upper=tuple((a, 1.0, 1.0) for a in reduced.classical_upper),
        lower=tuple((b, 1.0, 1.0) for b in reduced.classical_lower),
    )
    rhs = hyper.hyper_series(classical, reduced.scale * x).value
    return lhs, rhs, rhs


def _absolute_error(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs)


@_entry(
    "4.3", "hyper", 1e-13, lambda grid: ({"draw": float(i)} for i in range(grid.draws)),
    "ODE coefficient recurrence", error=_absolute_error,
)
def _ode_coefficients(pt, grid):
    # the residual is itself the error: it is held to the tolerance against 0
    hp = _hyper_draws(_ODE_SEED, grid.draws, False)[int(pt["draw"])][0]
    return hyper.ode_coefficient_residual(hp, n_terms=50), 0.0, 0.0


def _binomial_points(grid: AuditGrid) -> Iterator[dict]:
    return (
        {"p": p, "k": k, "a": a, "x": frac / p}
        for p in grid.ps
        for k in grid.ks
        for a in (0.3, 1.1, 2.5, k)
        for frac in (0.25, 0.5, 0.9)
    )


@_entry("4.4", "hyper", 1e-12, _binomial_points, "binomial identity")
def _binomial(pt, grid):
    p, k, a, x = pt["p"], pt["k"], pt["a"], pt["x"]
    series = hyper.pk_binomial(a, _params(pt), x).value
    closed = math.exp(-(a / k) * math.log1p(-x * p))
    return series, closed, closed


# (a, k, b, s, x) of 1F1 with upper triple (a, 1, k) and lower triple (b, 1, s)
_CONFLUENT_CASES = (
    (1.0, 1.0, 2.0, 1.0, 1.0),
    (1.0, 1.0, 3.0, 1.0, 0.5),
    (0.5, 1.0, 2.0, 1.0, 1.0),
    (2.0, 2.0, 4.0, 2.0, 1.0),
    (1.5, 1.0, 4.5, 1.0, -1.0),
    (0.7, 2.0, 3.0, 2.0, 2.0),
    (2.5, 1.0, 6.0, 1.0, 0.3),
    (1.0, 0.5, 1.5, 0.5, 0.8),
    (3.0, 2.0, 5.0, 1.0, -0.4),
    (0.9, 1.0, 2.2, 1.0, 1.7),
)


def _confluent_points(grid: AuditGrid) -> Iterator[dict]:
    return (
        {"case": float(i), "a": a, "k": k, "b": b, "s": s, "x": x}
        for i, (a, k, b, s, x) in enumerate(_CONFLUENT_CASES)
    )


@_entry("4.5", "hyper", 1e-8, _confluent_points, "confluent integral")
def _confluent(pt, grid):
    hp = hyper.HyperParams(upper=((pt["a"], 1.0, pt["k"]),), lower=((pt["b"], 1.0, pt["s"]),))
    rhs = hyper.confluent_integral(hp, pt["x"]).value
    return hyper.hyper_series(hp, pt["x"]).value, rhs, rhs


# ---------------------------------------------------------------------------
# catalog


def _catalog_order(check: IdentityCheck):
    return SUITES.index(check.suite), tuple(int(part) for part in check.identity_id.split("."))


CATALOG: tuple[IdentityCheck, ...] = tuple(sorted(_declared, key=_catalog_order))


def catalog_for_suite(suite: str) -> tuple[IdentityCheck, ...]:
    if suite == "all":
        return CATALOG
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}")
    return tuple(c for c in CATALOG if c.suite == suite)


def check_point(identity_id: str, point: dict, tol: float | None = None) -> IdentityRecord:
    """Evaluate one catalog identity at one point, with the default grid's budgets.

    ``point`` holds the keys the identity's records carry: p, k, x and,
    where the identity has them, n, m, j, s, q, r, a, y or draw.  ``tol``
    defaults to the catalog tolerance.  Unknown ids raise DomainError.
    """
    for check in CATALOG:
        if check.identity_id == identity_id:
            pt = {key: float(val) for key, val in point.items()}
            return check.record(pt, AuditGrid.default(), check.tol if tol is None else tol)
    raise DomainError(f"unknown identity {identity_id!r}")
