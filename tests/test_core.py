"""Classical kernel: log-gamma with sign, digamma, polygamma, pole lattice."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pkspecial import (
    EULER_GAMMA,
    DomainError,
    EvalReal,
    OverflowNote,
    PkParams,
    PoleError,
    digamma_classical,
    gamma_closed,
    ln_gamma_classical,
    pole_check,
    psi,
)
from pkspecial.core import _digamma_array, best_central_diff, central_diff, gamma_sign

# frozen oracle values (see oracles.py for the generating formulas)
LN_GAMMA_HALF = 0.57236494292470009  # log sqrt(pi)
LN_GAMMA_NEG_1_5 = 0.86004701537648101  # log(4 sqrt(pi) / 3), via downward recurrence
PSI_ONE = -0.57721566490153286
PSI_TWO = 0.42278433509846714  # 1 - euler_gamma, via psi(z+1) = psi(z) + 1/z
PSI_HALF = -1.96351002602142348  # -euler_gamma - 2 log 2, duplication
ZETA_2 = 1.64493406684822644  # pi^2/6
PSI1_TWO = 0.64493406684822644  # pi^2/6 - 1
PSI2_ONE = -2.40411380631918857  # -2 zeta(3)

EPS = 2.220446049250313e-16


class TestEulerGamma:
    def test_harmonic_limit_oracle(self):
        assert oracles.euler_gamma_limit() == pytest.approx(EULER_GAMMA, abs=1e-14)

    def test_digamma_cross_check(self):
        assert digamma_classical(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-15)


class TestLnGamma:
    def test_factorial_point(self):
        ev = ln_gamma_classical(5.0)
        assert ev.sign == 1
        assert ev.ln_value == pytest.approx(math.log(24.0), rel=1e-15)

    def test_overflow_note_only_from_the_linear_value(self):
        # Gamma(210) leaves the double range, its log does not: only .value warns
        with warnings.catch_warnings():
            warnings.simplefilter("error", OverflowNote)
            ev = ln_gamma_classical(210.0)
        with pytest.warns(OverflowNote):
            assert ev.value == math.inf

    def test_half(self):
        ev = ln_gamma_classical(0.5)
        assert ev.sign == 1
        assert ev.ln_value == pytest.approx(LN_GAMMA_HALF, abs=1e-14)
        # oracle recomputation
        assert oracles.mp_ln_gamma(0.5) == pytest.approx(LN_GAMMA_HALF, abs=1e-15)

    def test_negative_reflection_point(self):
        ev = ln_gamma_classical(-1.5)
        assert ev.sign == 1
        assert ev.ln_value == pytest.approx(LN_GAMMA_NEG_1_5, abs=1e-14)
        # downward recurrence oracle: Gamma(-1.5) = Gamma(0.5) / (-1.5 * -0.5)
        recur = math.log(math.sqrt(math.pi) / 0.75)
        assert recur == pytest.approx(LN_GAMMA_NEG_1_5, abs=1e-15)

    def test_sign_alternation(self):
        assert gamma_sign(-0.5) == -1
        assert gamma_sign(-1.5) == 1
        assert gamma_sign(-2.5) == -1
        assert gamma_sign(3.7) == 1

    def test_accuracy_against_mpmath(self):
        for z in np.logspace(-6, 6, 40):
            got = ln_gamma_classical(float(z)).ln_value
            want = oracles.mp_ln_gamma(float(z))
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), f"z={z}"

    def test_negative_accuracy(self):
        for z in (-0.5, -1.5, -2.5, -7.3, -15.2, -99.7):
            got = ln_gamma_classical(z)
            assert got.ln_value == pytest.approx(oracles.mp_ln_gamma(z), rel=1e-12)
            assert got.sign == (1 if oracles.mp_pk_gamma(1, 1, z) > 0 else -1)

    def test_pole_rejection(self):
        for z in (0.0, -1.0, -7.0, -3.0 + 1e-12):
            with pytest.raises(PoleError):
                ln_gamma_classical(z)

    def test_recurrence_log_space(self):
        for z in np.logspace(-3, 3, 60):
            z = float(z)
            lhs = ln_gamma_classical(z + 1.0).ln_value
            rhs = math.log(z) + ln_gamma_classical(z).ln_value
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_reflection(self):
        for z in np.linspace(0.05, 0.95, 19):
            z = float(z)
            g1 = ln_gamma_classical(z)
            g2 = ln_gamma_classical(1.0 - z)
            product = math.exp(g1.ln_value + g2.ln_value) * math.sin(math.pi * z) / math.pi
            assert product == pytest.approx(1.0, rel=1e-11)


class TestDigamma:
    def test_reference_points(self):
        assert digamma_classical(1.0) == pytest.approx(PSI_ONE, abs=1e-14)
        assert digamma_classical(2.0) == pytest.approx(PSI_TWO, abs=1e-14)
        assert digamma_classical(0.5) == pytest.approx(PSI_HALF, abs=1e-13)

    def test_recurrence_oracle(self):
        # psi(2) = psi(1) + 1
        assert PSI_TWO == pytest.approx(PSI_ONE + 1.0, abs=1e-16)
        # duplication-based: psi(1/2) = -gamma - 2 log 2
        assert PSI_HALF == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-15)

    def test_is_derivative_of_ln_gamma(self):
        for z in (0.3, 1.0, 2.7, 17.5, 240.0):
            fd = best_central_diff(lambda t: ln_gamma_classical(t).ln_value, z)
            assert fd == pytest.approx(digamma_classical(z), rel=1e-6)

    def test_accuracy_against_mpmath(self):
        for z in np.logspace(-4, 6, 30):
            z = float(z)
            assert digamma_classical(z) == pytest.approx(oracles.mp_digamma(z), rel=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            digamma_classical(-2.0)

    @staticmethod
    def wide_draws(seed, count):
        # |z| log-uniform in [e^-6, e^6], either sign, off the pole band
        rng = np.random.default_rng(seed)
        zs = np.exp(rng.uniform(-6.0, 6.0, size=count)) * rng.choice((-1.0, 1.0), size=count)
        return [float(z) for z in zs if z > 0 or abs(z - round(z)) > 1e-9]

    def test_wide_draws_against_mpmath(self):
        for z in self.wide_draws(41, 2000):
            want = oracles.mp_digamma(z)
            assert abs(digamma_classical(z) - want) <= 8 * EPS * (1.0 + abs(want)), z

    def test_array_form_matches_scalar(self):
        zs = np.array([z for z in self.wide_draws(42, 4000) if z > 0])
        got = _digamma_array(zs)
        for z, g in zip(zs, got):
            want = digamma_classical(float(z))
            assert abs(g - want) <= 8 * EPS * (1.0 + abs(want)), z


class TestPolygamma:
    def test_reference_points(self):
        assert oracles.mp_polygamma(1, 1.0) == pytest.approx(ZETA_2, rel=1e-15)
        assert oracles.mp_polygamma(1, 2.0) == pytest.approx(PSI1_TWO, rel=1e-15)
        assert oracles.mp_polygamma(2, 1.0) == pytest.approx(PSI2_ONE, rel=1e-15)

    def test_series_oracles(self):
        assert oracles.basel_series(2, 1.0, 1.0) == pytest.approx(ZETA_2, abs=1e-5)
        assert oracles.basel_series(2, 2.0, 1.0) == pytest.approx(PSI1_TWO, abs=1e-5)
        assert oracles.basel_series(3, 1.0, 1.0) * -2.0 == pytest.approx(PSI2_ONE, abs=1e-9)

    def test_matches_digamma_differences(self):
        for z in (0.7, 1.5, 3.0, 8.0):
            fd1 = central_diff(digamma_classical, z, 1e-4)
            assert fd1 == pytest.approx(oracles.mp_polygamma(1, z), rel=1e-4)
            fd2 = central_diff(digamma_classical, z, 1e-3, order=2)
            assert fd2 == pytest.approx(oracles.mp_polygamma(2, z), rel=1e-4)


class TestPoleCheck:
    def test_examples(self):
        rep = pole_check(PkParams(1.0, 2.0), -4.0)
        assert rep.is_pole and rep.pole_index == 2
        assert not pole_check(PkParams(1.0, 2.0), -3.0).is_pole
        rep = pole_check(PkParams(1.0, 1.0), 0.0)
        assert rep.is_pole and rep.pole_index == 0

    def test_tolerance_band(self):
        k = 2.0
        assert pole_check(PkParams(1.0, k), -2.0 * k + 1e-10 * k).is_pole
        assert not pole_check(PkParams(1.0, k), -2.0 * k + 1e-7 * k).is_pole

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            pole_check(PkParams(1.0, 2.0), x)
        with pytest.raises(DomainError):
            gamma_closed(PkParams(1.0, 2.0), x)
        with pytest.raises(DomainError):
            psi(PkParams(1.0, 2.0), x)

    @given(st.integers(min_value=0, max_value=50), st.floats(min_value=0.1, max_value=10.0))
    def test_lattice_property(self, n, k):
        rep = pole_check(PkParams(1.0, k), -n * k)
        assert rep.is_pole and rep.pole_index == n


class TestDomainTypes:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            PkParams(0.0, 1.0)
        with pytest.raises(DomainError):
            PkParams(1.0, -2.0)
        with pytest.raises(DomainError):
            PkParams(math.inf, 1.0)

    def test_eval_real_invariants(self):
        with pytest.raises(ValueError):
            EvalReal(value=1.0, abs_err=-1.0)

    @settings(max_examples=50)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_recurrence_property(self, z):
        lhs = ln_gamma_classical(z + 1.0).ln_value
        rhs = math.log(z) + ln_gamma_classical(z).ln_value
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
