"""Beta function forms and the normalized Psi/polygamma family."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pkspecial import (
    BetaArgs,
    DomainError,
    OverflowNote,
    PkParams,
    PoleError,
    beta_closed,
    beta_integral,
    gamma_closed,
    k_zeta,
    ln_gamma_via_psi,
    polygamma,
    psi,
    psi_series,
)
from pkspecial.betapsi import BETA_FORMS, _psi_lattice_sum, polygamma_printed, psi_printed
from pkspecial.core import richardson_diff

from conftest import GRID_KS, GRID_PS, GRID_XS, check_memo_is_bounded, check_memo_is_transparent

PI_HALF = 1.57079632679489662
NEG_GAMMA = -0.57721566490153286
ONE_MINUS_GAMMA = 0.42278433509846714
LN2_MINUS_GAMMA = 0.11593151565841245
NEG_GAMMA_HALF = -0.28860783245076643
ZETA_2 = 1.64493406684822644  # pi^2/6
ZETA_2_QUARTER = 0.41123351671205661  # pi^2/24
PI4_OVER_90 = 1.08232323371113819
LN_HALF_GAMMA_1_5 = -0.81392941819519053  # log((1/2) Gamma(3/2))


def bargs(x, y, p, k):
    return BetaArgs(x, y, PkParams(p, k))


class TestBetaClosed:
    def test_abs_err_covers_wide_draws(self):
        # log-uniform p, k in [e^-2, e^2] and x, y in [e^-3, e^3]
        rng = np.random.default_rng(32)
        for _ in range(1000):
            p, k = (float(v) for v in np.exp(rng.uniform(-2.0, 2.0, size=2)))
            x, y = (float(v) for v in np.exp(rng.uniform(-3.0, 3.0, size=2)))
            got = beta_closed(bargs(x, y, p, k))
            assert abs(got.value - oracles.mp_pk_beta(k, x, y)) <= got.abs_err, (p, k, x, y)

    def test_classical_point(self):
        # B(2,3) = 1!*2!/4! regardless of p
        for p in (0.5, 1.0, 7.0):
            assert beta_closed(bargs(2, 3, p, 1)).value == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_scaled_points(self):
        assert beta_closed(bargs(2, 2, 1, 2)).value == pytest.approx(0.5, rel=1e-13)
        assert beta_closed(bargs(1, 1, 1, 2)).value == pytest.approx(PI_HALF, rel=1e-13)

    def test_p_independence_is_exact(self):
        vals = {beta_closed(bargs(1.7, 0.4, p, 2.0)).value for p in (0.5, 1.0, 7.0)}
        assert len(vals) == 1  # bit-for-bit: p never enters

    def test_domain(self):
        with pytest.raises(DomainError):
            BetaArgs(0.0, 1.0, PkParams(1, 1))
        with pytest.raises(DomainError):
            BetaArgs(1.0, -1.0, PkParams(1, 1))

    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.1, max_value=9.0),
        st.floats(min_value=0.1, max_value=9.0),
        st.floats(min_value=0.25, max_value=3.5),
    )
    def test_symmetry(self, x, y, k):
        a = beta_closed(bargs(x, y, 1, k)).value
        b = beta_closed(bargs(y, x, 1, k)).value
        assert a == pytest.approx(b, rel=1e-14)

    def test_recurrence(self):
        # B(x+k, y) = x/(x+y) B(x, y), inherited from the classical shift
        for k in GRID_KS:
            for x in (0.3, 1.1, 4.9):
                for y in (0.7, 2.5):
                    lhs = beta_closed(bargs(x + k, y, 1, k)).value
                    rhs = x / (x + y) * beta_closed(bargs(x, y, 1, k)).value
                    assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBetaIntegrals:
    def test_unit_form_examples(self):
        assert beta_integral(bargs(1, 1, 1, 1), "unit").value == pytest.approx(1.0, abs=1e-13)
        assert beta_integral(bargs(1, 1, 1, 2), "unit").value == pytest.approx(PI_HALF, rel=1e-12)

    def test_semiaxis_arctangent_point(self):
        # k=2, x=y=1: integrand is 1/(1+t^2)
        got = beta_integral(bargs(1, 1, 1, 2), "semiaxis").value
        assert got == pytest.approx(PI_HALF, rel=1e-12)
        assert PI_HALF == pytest.approx(2.0 * math.atan(1.0), abs=1e-16)

    def test_symmetric_form_matches_closed(self):
        got = beta_integral(bargs(2, 3, 1, 1), "symmetric").value
        assert got == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_all_forms_against_closed(self):
        for k in GRID_KS:
            for x in (0.3, 1.1, 2.5, 7.3):
                for y in (0.3, 2.5):
                    args = bargs(x, y, 1, k)
                    want = beta_closed(args).value
                    for form in BETA_FORMS:
                        got = beta_integral(args, form).value
                        assert got == pytest.approx(want, rel=1e-9), (form, k, x, y)

    @pytest.mark.parametrize("form", BETA_FORMS)
    @pytest.mark.parametrize("x, y, k", [(3.0, 0.03, 1.0), (0.03, 3.0, 1.0), (20.0, 20.0, 0.25)])
    def test_claim_covers_endpoint_mass_and_rounding(self, form, x, y, k):
        # a/k = 0.03 puts mass below the first tanh-sinh node of t^(a-1);
        # x/k = 80 makes the exponentiated log-integrand round at eps * 80
        got = beta_integral(bargs(x, y, 1, k), form)
        assert abs(got.value - oracles.mp_pk_beta(k, x, y)) <= got.abs_err, form

    def test_p_invariance_of_integral_forms(self):
        for form in BETA_FORMS:
            vals = {beta_integral(bargs(1.3, 0.6, p, 1.5), form).value for p in (0.5, 1.0, 7.0)}
            assert len(vals) == 1

    def test_unknown_form(self):
        with pytest.raises(DomainError):
            beta_integral(bargs(1, 1, 1, 1), "polar")

    def test_mpmath_oracle(self):
        assert beta_closed(bargs(0.3, 0.3, 1, 3)).value == pytest.approx(
            oracles.mp_pk_beta(3, 0.3, 0.3), rel=1e-12
        )


class TestPsi:
    def test_reference_points(self):
        assert psi(PkParams(1, 1), 1.0).value == pytest.approx(NEG_GAMMA, abs=1e-14)
        assert psi(PkParams(1, 2), 2.0).value == pytest.approx(NEG_GAMMA_HALF, abs=1e-14)
        assert psi(PkParams(2, 1), 1.0).value == pytest.approx(LN2_MINUS_GAMMA, abs=1e-14)

    def test_is_log_derivative(self):
        for p in GRID_PS:
            for k in GRID_KS:
                for x in GRID_XS:
                    params = PkParams(p, k)
                    fd = richardson_diff(
                        lambda t: gamma_closed(params, t).ln_value, x, h=1e-3 * min(1.0, x)
                    )
                    assert psi(params, x).value == pytest.approx(fd, rel=1e-8), (p, k, x)

    def test_printed_variant_off_by_k(self):
        # at p=1, k=2, x=2 the derivative is -gamma/2; the un-normalized form gives -gamma
        params = PkParams(1, 2)
        assert psi_printed(params, 2.0) == pytest.approx(NEG_GAMMA, abs=1e-14)
        assert psi(params, 2.0).value == pytest.approx(NEG_GAMMA / 2.0, abs=1e-14)

    def test_pole(self):
        with pytest.raises(PoleError):
            psi(PkParams(1, 2), -6.0)

    def test_abs_err_covers_negative_draws(self):
        # log-uniform p, k in [e^-2, e^2] and x = -e^U, U in [-3, 3]: near the
        # poles the rounding of x/k dominates the error
        rng = np.random.default_rng(37)
        for _ in range(2000):
            p, k = (float(v) for v in np.exp(rng.uniform(-2.0, 2.0, size=2)))
            x = -float(np.exp(rng.uniform(-3.0, 3.0)))
            try:
                got = psi(PkParams(p, k), x)
            except PoleError:
                continue
            assert abs(got.value - oracles.mp_pk_psi(p, k, x)) <= got.abs_err, (p, k, x)


class TestPsiSeries:
    def test_classical_point_both_forms(self):
        for form in ("3.9", "3.10"):
            got = psi_series(PkParams(1, 1), 1.0, form)
            assert got.value == pytest.approx(NEG_GAMMA, abs=1e-12)

    def test_shifted_form_terminates_at_x_equals_k(self):
        # the (x - k) prefactor kills the series at x = k for any truncation
        for terms in (10, 1000):
            got = psi_series(PkParams(1, 1), 1.0, "3.10", terms=terms)
            assert got.value == pytest.approx(NEG_GAMMA, abs=1e-15)

    def test_second_classical_point(self):
        got = psi_series(PkParams(1, 1), 2.0, "3.9")
        assert got.value == pytest.approx(ONE_MINUS_GAMMA, abs=1e-12)

    def test_matches_closed_on_grid(self):
        for p in (0.5, 2.0):
            for k in GRID_KS:
                for x in GRID_XS:
                    params = PkParams(p, k)
                    want = psi(params, x).value
                    for form in ("3.9", "3.10"):
                        got = psi_series(params, x, form, terms=100_000).value
                        assert got == pytest.approx(want, abs=1e-6), (form, p, k, x)

    @pytest.mark.parametrize("form", ["3.9", "3.10"])
    def test_warm_and_cleared_memo_agree_over_p(self, form):
        def route(params, x, terms):
            return psi_series(params, x, form, terms)

        points = [(k, x, terms) for terms in (64, 1000) for k in (0.5, 2.0) for x in (0.3, 2.5, 7.3)]
        calls = [(PkParams(p, k), x, terms) for p in (0.5, 1.0, 3.5) for k, x, terms in points]
        check_memo_is_transparent(route, _psi_lattice_sum, calls, len(points))

    @pytest.mark.parametrize("form", ["3.9", "3.10"])
    def test_memo_is_bounded(self, form):
        check_memo_is_bounded(lambda params, x, terms: psi_series(params, x, form, terms), _psi_lattice_sum, 10)

    def test_abs_err_covers_wide_draws(self):
        # x/k log-uniform in [1e-6, terms), p log-uniform in [e^-2, e^2]: at small x/k
        # the rounding of the 1/x-sized parts dominates, at large x/k the tails
        rng = np.random.default_rng(43)
        for terms in (10, 100, 1000, 100_000):
            for _ in range(60):
                k = float(rng.choice((0.5, 1.0, 2.0)))
                p = float(np.exp(rng.uniform(-2.0, 2.0)))
                x = k * float(np.exp(rng.uniform(math.log(1e-6), math.log(terms))))
                want = oracles.mp_pk_psi(p, k, x)
                for form in ("3.9", "3.10"):
                    got = psi_series(PkParams(p, k), x, form, terms)
                    assert abs(got.value - want) <= got.abs_err, (form, terms, p, k, x)

    def test_forms_agree_closely(self):
        for k in GRID_KS:
            for x in (0.3, 1.1, 7.3):
                a = psi_series(PkParams(1.5, k), x, "3.9").value
                b = psi_series(PkParams(1.5, k), x, "3.10").value
                assert a == pytest.approx(b, abs=1e-10)


class TestLnGammaViaPsi:
    def test_at_one_reduces_to_constant(self):
        for p, k in ((1, 1), (2, 3), (3.5, 0.5)):
            got = ln_gamma_via_psi(PkParams(p, k), 1.0)
            want = gamma_closed(PkParams(p, k), 1.0).ln_value
            assert got.value == pytest.approx(want, abs=1e-12)

    def test_classical_factorial(self):
        got = ln_gamma_via_psi(PkParams(1, 1), 5.0)
        assert got.value == pytest.approx(math.log(24.0), abs=1e-10)

    def test_scaled_point(self):
        got = ln_gamma_via_psi(PkParams(1, 2), 3.0)
        assert got.value == pytest.approx(LN_HALF_GAMMA_1_5, abs=1e-10)

    def test_against_closed_on_grid(self):
        for p in (0.5, 3.5):
            for k in (0.5, 2.0):
                for x in (0.3, 1.1, 7.3):
                    got = ln_gamma_via_psi(PkParams(p, k), x).value
                    want = gamma_closed(PkParams(p, k), x).ln_value
                    assert got == pytest.approx(want, abs=1e-8), (p, k, x)


class TestKZetaPolygamma:
    def test_basel_points(self):
        assert k_zeta(1.0, 2, 1.0).value == pytest.approx(ZETA_2, rel=1e-12)
        assert k_zeta(1.0, 4, 1.0).value == pytest.approx(PI4_OVER_90, rel=1e-12)
        assert k_zeta(2.0, 2, 2.0).value == pytest.approx(ZETA_2_QUARTER, rel=1e-12)

    def test_tail_bound_honored(self):
        res = k_zeta(1.5, 2, 0.7, terms=500)
        bound = 1.0 / ((2 - 1) * 0.7 * (1.5 + 500 * 0.7) ** (2 - 1))
        assert res.abs_err <= bound
        assert res.value == pytest.approx(oracles.mp_k_zeta(1.5, 2, 0.7), rel=1e-12)
        # the raw partial sum agrees to within its own truncation
        assert res.value == pytest.approx(oracles.basel_series(2, 1.5, 0.7), rel=2e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            k_zeta(1.0, 1, 1.0)
        with pytest.raises(DomainError):
            polygamma(PkParams(1, 1), 1.0, 1)

    def test_order_past_double_range(self):
        # (r-1)! leaves the double range from r = 172 on
        assert math.isfinite(polygamma(PkParams(1, 1), 1.0, 171).value)
        for r in (172, 200):
            with pytest.raises(DomainError):
                polygamma(PkParams(1, 1), 1.0, r)

    def test_abs_err_covers_wide_draws(self):
        # log-uniform p, k in [e^-2, e^2] and x in [e^-3, e^3], orders 2..6
        rng = np.random.default_rng(31)
        for _ in range(400):
            p, k = (float(v) for v in np.exp(rng.uniform(-2.0, 2.0, size=2)))
            x = float(np.exp(rng.uniform(-3.0, 3.0)))
            r = int(rng.integers(2, 7))
            got = polygamma(PkParams(p, k), x, r)
            assert abs(got.value - oracles.mp_pk_polygamma(k, x, r)) <= got.abs_err, (p, k, x, r)

    def test_abs_err_covers_orders_to_171(self):
        # r in 2..171, x log-uniform in [e^-6, e^6] and k in [e^-4, e^4]; each value
        # whose truth lies below the double range's top is checked, in mpmath, after
        # two points where zeta_k is subnormal and (r-1)! zeta_k is not
        rng = np.random.default_rng(53)

        def draws():
            for _ in range(100):
                r = int(rng.integers(2, 172))
                x = float(np.exp(rng.uniform(-6.0, 6.0)))
                k = float(np.exp(rng.uniform(-4.0, 4.0)))
                yield r, x, k

        checked = 0
        for r, x, k in [(130, 300.0, 1.0), (105, 1000.0, 2.0), *draws()]:
            truth = oracles.mp_k_zeta_direct(x, r, k)
            if truth > sys.float_info.max:
                continue
            got = k_zeta(x, r, k)
            assert abs(got.value - truth) <= got.abs_err, (x, r, k)
            truth *= (-1) ** r * math.factorial(r - 1)
            if abs(truth) <= sys.float_info.max:
                got = polygamma(PkParams(1.0, k), x, r)
                assert abs(got.value - truth) <= got.abs_err, (x, r, k)
            checked += 1
        assert checked >= 80

    @pytest.mark.parametrize("x, r, sign", [(0.001, 171, -1), (0.001, 120, 1), (1e-300, 2, 1), (0.1, 171, -1)])
    def test_overflow_is_signed_inf_with_note(self, x, r, sign):
        with pytest.warns(OverflowNote):
            got = polygamma(PkParams(1, 1), x, r)
        assert got.value == sign * math.inf

    def test_polygamma_points(self):
        assert polygamma(PkParams(1, 1), 1.0, 2).value == pytest.approx(ZETA_2, rel=1e-12)
        assert polygamma(PkParams(1, 2), 2.0, 2).value == pytest.approx(ZETA_2_QUARTER, rel=1e-12)

    def test_p_independence(self):
        a = polygamma(PkParams(1, 1), 1.0, 2).value
        b = polygamma(PkParams(9, 1), 1.0, 2).value
        assert a == b

    def test_matches_classical_at_unit_scales(self):
        for x in (0.5, 1.0, 2.5, 7.3):
            for r in (2, 3, 4):
                got = polygamma(PkParams(1, 1), x, r).value
                want = oracles.mp_polygamma(r - 1, x)
                assert got == pytest.approx(want, rel=1e-10), (x, r)

    def test_printed_variant_carries_extra_k(self):
        params = PkParams(1, 2)
        assert polygamma_printed(params, 2.0, 2) == pytest.approx(
            2.0 * polygamma(params, 2.0, 2).value, rel=1e-14
        )

    def test_general_scale_against_rescaled_classical(self):
        # zeta_k(x, r) = k^-r zeta(x/k, r) via the lattice rescale
        for k in (0.5, 2.0, 3.0):
            for x in (0.7, 2.5):
                got = polygamma(PkParams(1, k), x, 2).value
                want = oracles.mp_polygamma(1, x / k) / k**2
                assert got == pytest.approx(want, rel=1e-10)
