"""Double-exponential quadrature: examples, error contract, substitution checks."""

import contextlib
import math

import mpmath
import numpy as np
import pytest

import oracles
from pkspecial import DomainError, EvalReal, Method, NoConvergence, QuadratureSpec, integrate_semiaxis, integrate_unit
from pkspecial import quadrature
from pkspecial.quadrature import _EPS, _MAX_LEVEL, _bbg_error, _nodes, _power_integral, _split_beta_kernel

SQRT_PI_HALF = 0.88622692545275801  # Gaussian integral, polar-coordinates oracle

from conftest import GRID_KS, GRID_PS, GRID_XS


class TestUnitInterval:
    def test_inverse_sqrt(self):
        res = integrate_unit(lambda t: t**-0.5)
        assert res.value == pytest.approx(2.0, abs=1e-12)
        assert res.abs_err < 1e-10

    def test_constant(self):
        assert integrate_unit(lambda t: np.ones_like(t)).value == pytest.approx(1.0, abs=1e-14)

    def test_neg_log(self):
        # antiderivative t - t log t -> 1 at the upper limit, 0 at the lower
        res = integrate_unit(lambda t: -np.log(t))
        assert res.value == pytest.approx(1.0, abs=1e-13)

    def test_strong_singularity(self):
        res = integrate_unit(lambda t: t**-0.9)
        assert res.value == pytest.approx(10.0, rel=1e-12)

    def test_error_estimate_covers_truth(self):
        res = integrate_unit(lambda t: np.sqrt(t) * np.cos(3.0 * t))
        want = oracles.quad_oracle(lambda t: math.sqrt(t) * math.cos(3.0 * t), 0.0, 1.0)
        assert abs(res.value - want) <= max(res.abs_err, 1e-12)


class TestSemiaxis:
    def test_exponential(self):
        assert integrate_semiaxis(lambda t: np.exp(-t)).value == pytest.approx(1.0, abs=1e-13)

    def test_gaussian(self):
        res = integrate_semiaxis(lambda t: np.exp(-t * t))
        assert res.value == pytest.approx(SQRT_PI_HALF, abs=1e-13)
        assert SQRT_PI_HALF == pytest.approx(0.5 * math.sqrt(math.pi), abs=5e-16)

    def test_first_moment(self):
        assert integrate_semiaxis(lambda t: t * np.exp(-t)).value == pytest.approx(1.0, abs=1e-13)

    def test_algebraic_decay(self):
        # 1/(1+t^2) integrates to pi/2
        res = integrate_semiaxis(lambda t: 1.0 / (1.0 + t * t))
        assert res.value == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_oracle_cross_check(self):
        res = integrate_semiaxis(lambda t: np.exp(-0.5 * t) * np.sin(t) ** 2)
        want = oracles.quad_oracle(lambda t: math.exp(-0.5 * t) * math.sin(t) ** 2, 0.0, np.inf)
        assert res.value == pytest.approx(want, rel=1e-9)


class TestPowerPieces:
    @pytest.mark.parametrize("alpha", [0.01, 0.3, 1.0, 4.5])
    def test_pure_power(self, alpha):
        # int_0^(1/2) t^(alpha-1) dt = 2^-alpha / alpha: for alpha < 1 the
        # substitution t = v^(1/alpha) / 2 leaves no mass below the first node
        res = _power_integral(((alpha, 0.5, lambda t, lt: np.zeros_like(t)),))
        want = 0.5**alpha / alpha
        assert abs(res.value - want) <= res.abs_err <= 1e-14 * want

    def test_pieces_sum(self):
        # int_0^1 t^-0.5 e^-t dt + int_0^1 t^2 e^-t dt, both in one refinement loop
        res = _power_integral(((0.5, 1.0, lambda t, lt: -t), (3.0, 1.0, lambda t, lt: -t)))
        want = math.sqrt(math.pi) * math.erf(1.0) + 2.0 - 5.0 / math.e
        assert abs(res.value - want) <= res.abs_err + 4e-16 * want


class TestSubstitutionConsistency:
    def test_family_kernel_reduces_to_gamma(self):
        # int_0^inf e^(-t^k/p) t^(x-1) dt = (p^(x/k)/k) Gamma(x/k), by u = t^k/p
        for p in GRID_PS:
            for k in GRID_KS:
                for x in GRID_XS:
                    def f(t, p=p, k=k, x=x):
                        return np.exp((x - 1.0) * np.log(t) - np.exp(k * np.log(t)) / p)

                    res = integrate_semiaxis(f)
                    want = oracles.mp_pk_gamma(p, k, x)
                    assert res.value == pytest.approx(want, rel=1e-10), (p, k, x)


class TestErrorContract:
    def test_refinement_doubling_never_worse(self):
        integrands = [
            ("unit", lambda t: t**-0.5),
            ("unit", lambda t: np.sin(20.0 * t)),
            ("unit", lambda t: 1.0 / (1.0 + 25.0 * t * t)),
            ("semiaxis", lambda t: np.exp(-t) * np.cos(5.0 * t)),
            ("semiaxis", lambda t: 1.0 / (1.0 + t * t)),
        ]
        for kind, f in integrands:
            integrate = integrate_unit if kind == "unit" else integrate_semiaxis
            errs = []
            for m in (5, 10, 20):
                spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_refinements=m)
                try:
                    errs.append(integrate(f, spec).abs_err)
                except NoConvergence as exc:
                    errs.append(exc.partial.abs_err)
            assert errs[0] >= errs[1] >= errs[2] or errs[2] < 1e-12

    def test_linearity(self):
        f = lambda t: t**-0.5
        g = lambda t: -np.log(t)
        a, b = 3.0, -0.25
        combined = integrate_unit(lambda t: a * f(t) + b * g(t))
        fa = integrate_unit(f)
        gb = integrate_unit(g)
        want = a * fa.value + b * gb.value
        budget = abs(a) * fa.abs_err + abs(b) * gb.abs_err + combined.abs_err
        assert abs(combined.value - want) <= max(budget, 1e-13)

    def test_estimate_past_double_range_is_inf(self):
        # a level difference just above 1 sends the extrapolated exponent past 308
        assert _bbg_error([0.0, 1.001 - 1e-5, 1.001], 1.0) == math.inf

    def test_no_error_estimate_is_no_convergence(self):
        # one level gives no estimate: a typed error whose partial value is unknown
        with pytest.raises(NoConvergence) as exc_info:
            integrate_unit(lambda t: np.sqrt(t), QuadratureSpec(max_refinements=1))
        partial = exc_info.value.partial
        assert math.isnan(partial.value) and partial.abs_err == math.inf

    def test_no_convergence_payload(self):
        spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_refinements=2)
        with pytest.raises(NoConvergence) as exc_info:
            integrate_unit(lambda t: np.sin(40.0 * t) / np.sqrt(t), spec)
        partial = exc_info.value.partial
        assert math.isfinite(partial.value)
        assert partial.abs_err > 0.0

    def test_no_convergence_names_the_levels_run(self):
        # levels past the deepest node table are not run: a budget of 30 stops there
        unreachable = dict(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(NoConvergence, match=f"within {_MAX_LEVEL} refinements"):
            integrate_unit(lambda t: np.sin(1.0 / t), QuadratureSpec(**unreachable, max_refinements=30))
        with pytest.raises(NoConvergence, match="within 5 refinements"):
            integrate_unit(lambda t: np.sin(1.0 / t), QuadratureSpec(**unreachable, max_refinements=5))


def _one_call_per_level(integrand, spec):
    """The rule with one integrand call on each level's own nodes: the reference the shared first pass must match bit for bit."""
    levels = min(spec.max_refinements, _MAX_LEVEL)
    value = rounding = 0.0
    history = []
    err = math.inf
    h = 0.5
    with np.errstate(all="ignore"):
        for level in range(1, levels + 1):
            t, lt, w, _ = _nodes(level, level)
            f, abs_log = integrand(t, lt)
            contrib = f * w
            s = float(contrib.sum())
            if not math.isfinite(s):
                bad = ~np.isfinite(contrib)
                if np.any(bad & ~((t < 1e-250) | (t > 1.0 - 1e-15))):
                    raise NoConvergence(
                        "integrand returned non-finite values away from the endpoints",
                        EvalReal(value=math.nan, abs_err=math.inf, method=Method.INTEGRAL),
                    )
                contrib = np.where(bad, 0.0, contrib)
                s = float(contrib.sum())
            r = 0.0 if abs_log is None else float((contrib * abs_log).sum())
            if level == 1:
                value, rounding = h * s, h * r
            else:
                h *= 0.5
                value, rounding = 0.5 * value + h * s, 0.5 * rounding + h * r
            history.append(value)
            err = _bbg_error(history, value)
            if level >= 4 and err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
                return EvalReal(value=value, abs_err=err + _EPS * rounding, method=Method.INTEGRAL)
    partial = value if math.isfinite(err) else math.nan
    raise NoConvergence(
        f"no convergence within {levels} refinements (err~{err:.3g})",
        EvalReal(value=partial, abs_err=err + _EPS * rounding, method=Method.INTEGRAL),
    )


def _outcome(integrate, integrand, spec):
    """The exact bits of a result, or of a NoConvergence's message and partial result."""
    try:
        res = integrate(integrand, spec)
        kind = "value"
    except NoConvergence as exc:
        res, kind = exc.partial, str(exc)
    return kind, res.value.hex(), res.abs_err.hex()


def _captured_integrand(monkeypatch, route):
    """The (t, ln t) -> (f, |log f| or None) integrand that route hands the rule."""
    seen = []
    integrate = quadrature._integrate

    def capture(integrand, spec):
        seen.append(integrand)
        return integrate(integrand, spec)

    monkeypatch.setattr(quadrature, "_integrate", capture)
    route()
    monkeypatch.undo()
    (integrand,) = seen
    return integrand


SPECS = [
    quadrature.DEFAULT_SPEC,
    # a budget below the first level that may stop: no convergence, with the last level's estimate
    *(QuadratureSpec(max_refinements=m) for m in (1, 2, 3)),
    QuadratureSpec(max_refinements=4),
    # a tolerance no sum meets: every level runs, the later ones one call each
    QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_refinements=_MAX_LEVEL),
]


def _tail_nan(t):
    """0/0 where exp(-1/t) and t**1.2 both underflow, below t = 1e-270: nan in the endpoint tail only."""
    return np.exp(-1.0 / t) / t**1.2


def _two_rows(f):
    """Hand the rule the integrand (t, ln t) -> (f(t), 1), f(t) of two rows, as a route; a NoConvergence is the rule's outcome, not the route's."""
    with contextlib.suppress(NoConvergence):
        quadrature._integrate(lambda t, lt: (f(t), np.ones((2, len(t)))), quadrature.DEFAULT_SPEC)


class TestSharedFirstPass:
    """Levels 1-4 in one integrand call give the bits of one call per level."""

    ROUTES = {
        "two power pieces": lambda: _split_beta_kernel(0.3, 2.5, -1.5, 0.0),
        "three power pieces": lambda: _power_integral((
            (0.5, 1.0, lambda t, lt: -t), (3.0, 1.0, lambda t, lt: -t), (0.2, 0.5, lambda t, lt: np.log1p(t)),
        )),
        # the tail repair on rows, then a rounding sum over the repaired entries
        "rows, endpoint nan": lambda: _two_rows(lambda t: np.stack((np.sqrt(t), _tail_nan(t)))),
        # a nan at an interior node of level 3: no convergence once level 3 runs
        "rows, interior nan": lambda: _two_rows(
            lambda t: np.stack((np.sqrt(t), np.where(t == _nodes(3, 3)[0][20], np.nan, t)))
        ),
        "unit": lambda: integrate_unit(lambda t: np.sqrt(t) * np.cos(3.0 * t)),
        # exact from level 2 on: only the rule's first stop ends it
        "constant": lambda: integrate_unit(lambda t: 2.0),
        "endpoint nan": lambda: integrate_unit(_tail_nan),
    }

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.abs_tol:g}/{s.max_refinements}")
    def test_bit_identical_to_one_call_per_level(self, monkeypatch, route, spec):
        integrand = _captured_integrand(monkeypatch, self.ROUTES[route])
        want = _outcome(_one_call_per_level, integrand, spec)
        assert _outcome(quadrature._integrate, integrand, spec) == want

    def test_endpoint_nan_is_in_the_tail(self):
        t = _nodes(1, _MAX_LEVEL)[0]
        with np.errstate(all="ignore"):
            bad = ~np.isfinite(_tail_nan(t))
        assert bad.any() and (t[bad] < 1e-250).all()
        # int_0^1 e^(-1/t) t^-1.2 dt = Gamma(0.2, 1), by s = 1/t
        want = float(mpmath.gammainc(0.2, 1))
        assert integrate_unit(_tail_nan).value == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("level", [1, 3])
    def test_non_finite_inside_a_level_is_no_convergence(self, level):
        # nan at one interior node of the level: the level's slice raises, with the partial of one call per level
        node = _nodes(level, level)[0]
        node = node[len(node) // 2 - 1]

        def integrand(t, lt):
            return np.where(t == node, np.nan, np.sqrt(t)), None

        want = _outcome(_one_call_per_level, integrand, quadrature.DEFAULT_SPEC)
        assert want[0] == "integrand returned non-finite values away from the endpoints"
        assert _outcome(quadrature._integrate, integrand, quadrature.DEFAULT_SPEC) == want


class TestSpecValidation:
    def test_tolerance_bounds(self):
        # the library's typed error, which callers catching ValueError still see
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=2.0)
        with pytest.raises(DomainError):
            QuadratureSpec(max_refinements=31)
        assert issubclass(DomainError, ValueError)

    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-12
        assert spec.rel_tol == 1e-11
        assert spec.max_refinements == 12
