"""Double-exponential quadrature: examples, error contract, substitution checks."""

import math

import numpy as np
import pytest

import oracles
from pkspecial import NoConvergence, QuadratureSpec, integrate_semiaxis, integrate_unit
from pkspecial.quadrature import _bbg_error, _power_integral

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


class TestSpecValidation:
    def test_tolerance_bounds(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=2.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_refinements=31)

    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-12
        assert spec.rel_tol == 1e-11
        assert spec.max_refinements == 12
