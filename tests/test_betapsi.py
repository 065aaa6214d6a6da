"""Beta function forms and the normalized Psi/polygamma family."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pkspecial import (
    BetaArgs,
    DomainError,
    NoConvergence,
    OverflowNote,
    PkParams,
    PoleError,
    beta_closed,
    beta_integral,
    check_point,
    digamma_classical,
    gamma_closed,
    k_zeta,
    ln_gamma_via_psi,
    polygamma,
    psi,
    psi_series,
)
from pkspecial.betapsi import BETA_FORMS
from pkspecial.core import richardson_diff

from conftest import GRID_KS, GRID_PS, GRID_XS

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

    @staticmethod
    def _within_claim(draws):
        import mpmath as mp

        checked = 0
        for x, y, k in draws:
            try:
                got = beta_closed(bargs(x, y, 1.0, k))
            except DomainError:  # a quotient or lnGamma past the double range
                continue
            # max(x, y)/k may underflow to 0, where the route now returns (x + y)/(x y)
            with mp.workdps(40 + int(abs(math.log10(max(x, y)) - math.log10(k)))):
                kk = mp.mpf(k)
                want = mp.beta(mp.mpf(x) / kk, mp.mpf(y) / kk) / kk
            assert abs(got.value - want) <= got.abs_err, (x, y, k, got)
            checked += 1
        return checked

    def test_abs_err_covers_wide_log_uniform_draws(self):
        # x, y in [1e-3, 1e3], k in [1e-2, 1e2]: y/k up to 1e5, where lnGamma(y/k) and lnGamma((x+y)/k) cancel
        rng = np.random.default_rng(23)
        draws = 10.0 ** rng.uniform((-3, -3, -2), (3, 3, 2), size=(300, 3))
        assert self._within_claim(draws.tolist()) == 300

    def test_abs_err_covers_extreme_magnitudes(self):
        # x, y, k in [1e-310, 1e300]: no raw exception, and every returned value within its claim
        rng = np.random.default_rng(405)
        draws = 10.0 ** rng.uniform(-310, 300, size=(300, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OverflowNote)
            assert self._within_claim(draws.tolist()) > 40

    def test_large_argument_form(self):
        # B(1e20, 1e40) itself is in test_core.py::TestLinearClaim::test_beta_reproducers
        got = beta_closed(bargs(0.5, 40.0, 1, 1))
        assert got.value == pytest.approx(float(oracles.mp_pk_beta(1, 0.5, 40.0)), rel=1e-14)
        # lnGamma(2.55e305) is finite, 2.55e305 ln(1e308) is not; past 2.6e305 lnGamma overflows too;
        # at (2e305, 1.796e308) lnGamma and the scale are finite, but x + y overflows
        for x, y in ((2.55e305, 1e308), (3e305, 1e308), (2e305, 1.796e308)):
            with pytest.raises(DomainError):
                beta_closed(bargs(x, y, 1, 1))

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

    def test_past_double_range_is_inf_with_a_note(self):
        # B(1, 1) / k at k = 1e-310 is 1e310
        with pytest.warns(OverflowNote):
            got = beta_closed(bargs(1e-310, 1e-310, 1, 1e-310))
        assert got.value == math.inf

    def test_overflow_note_names_beta_at_the_callers_line(self):
        with pytest.warns(OverflowNote, match=r"^B_k\(") as caught:
            beta_closed(bargs(1e-310, 1e-310, 1, 1e-310))
        assert caught[0].filename == __file__

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

    @pytest.mark.parametrize("form", BETA_FORMS)
    def test_claim_past_double_range_is_typed(self, form):
        # B(1e-305, 1) = 1e305: the claim's rounding sum leaves the double range
        with pytest.raises(NoConvergence) as info:
            beta_integral(bargs(1e-305, 1.0, 1, 1), form)
        assert math.isnan(info.value.partial.value)

    @pytest.mark.parametrize("form", ["unit", "symmetric"])
    def test_exponent_underflow_is_a_domain_error(self, form):
        # x/k = 1e-330 underflows to 0, where t^(x/k - 1) is not integrable
        with pytest.raises(DomainError):
            beta_integral(bargs(1e-300, 1.0, 1, 1e30), form)

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
        printed = check_point("3.8", {"p": 1, "k": 2, "x": 2.0}).rhs_printed
        assert printed == pytest.approx(NEG_GAMMA, abs=1e-14)
        assert psi(params, 2.0).value == pytest.approx(NEG_GAMMA / 2.0, abs=1e-14)

    def test_pole(self):
        with pytest.raises(PoleError):
            psi(PkParams(1, 2), -6.0)

    def test_past_double_range_is_signed_inf_with_a_note(self):
        # at x = +-1e-320 the origin's -1/x leaves the double range; so does digamma(z)/k at k = 1e-20
        for params, x, want in ((PkParams(1, 1), 1e-320, -math.inf), (PkParams(1, 1), -1e-320, math.inf),
                                (PkParams(1, 1e-20), 1e-320, -math.inf)):
            with pytest.warns(OverflowNote, match=r"^psi\(") as caught:
                got = psi(params, x)
            assert got.value == want, (params, x)
            assert caught[0].filename == __file__

    def test_quotients_past_the_range_with_opposite_signs(self):
        # ln 2/k = +inf and digamma(1e-10)/k = -inf summed to nan; (ln 2 + digamma(1e-10))/k is -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the OverflowNote below is the only warning
            with pytest.warns(OverflowNote, match=r"^psi\(1e-320\) overflows") as caught:
                got = psi(PkParams(2, 1e-310), 1e-320)
        assert got.value == -math.inf and len(caught) == 1
        # elsewhere the value is the sum of the two quotients, bit for bit
        assert psi(PkParams(2, 1e-20), 1e-15).value == math.log(2) / 1e-20 + digamma_classical(1e5) / 1e-20

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
        # the (x - k) prefactor kills the series and its tail at x = k
        got = psi_series(PkParams(1, 1), 1.0, "3.10")
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
                        got = psi_series(params, x, form).value
                        assert got == pytest.approx(want, abs=1e-6), (form, p, k, x)

    def test_abs_err_covers_wide_draws(self):
        # x/k log-uniform in [1e-6, 1e5), p log-uniform in [e^-2, e^2]: at small x/k
        # the rounding of the 1/x-sized parts dominates
        rng = np.random.default_rng(43)
        for _ in range(240):
            k = float(rng.choice((0.5, 1.0, 2.0)))
            p = float(np.exp(rng.uniform(-2.0, 2.0)))
            x = k * float(np.exp(rng.uniform(math.log(1e-6), math.log(1e5))))
            want = oracles.mp_pk_psi(p, k, x)
            for form in ("3.9", "3.10"):
                got = psi_series(PkParams(p, k), x, form)
                assert abs(got.value - want) <= got.abs_err, (form, p, k, x)

    def test_forms_agree_closely(self):
        for k in GRID_KS:
            for x in (0.3, 1.1, 7.3):
                a = psi_series(PkParams(1.5, k), x, "3.9").value
                b = psi_series(PkParams(1.5, k), x, "3.10").value
                assert a == pytest.approx(b, abs=1e-10)

    def test_overflow_is_noted_as_by_psi(self):
        # 1/x overflows at x = 1e-310, so form 3.9's head is -inf, as psi's value is
        with pytest.warns(OverflowNote, match=r"^psi_series\(1e-310\) overflows"):
            assert psi_series(PkParams(1, 1), 1e-310, "3.9").value == -math.inf
        with pytest.warns(OverflowNote, match=r"^psi\(1e-310\) overflows"):
            assert psi(PkParams(1, 1), 1e-310).value == -math.inf


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
        # the whole Euler-Maclaurin tail past the 12 terms summed bounds the claim
        res = k_zeta(1.5, 2, 0.7)
        bound = 1.0 / ((2 - 1) * 0.7 * (1.5 + 12 * 0.7) ** (2 - 1))
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

    @pytest.mark.parametrize("x, r, k", [(300.0, 130, 1.0), (1000.0, 105, 2.0), (700.0, 120, 0.25)])
    def test_polygamma_where_zeta_k_underflows(self, x, r, k):
        # zeta_k(300, 130) is subnormal and 129! zeta_k is not: the lattice is summed
        # scaled by x^-r, and (r-1)! x^-r applied through binary exponents
        import mpmath as mp

        got = polygamma(PkParams(1.0, k), x, r)
        with mp.workdps(40):
            truth = mp.psi(r - 1, mp.mpf(x) / k) / mp.mpf(k) ** r
        assert abs(got.value - truth) <= min(got.abs_err, 1e-13 * abs(truth)), (x, r, k)

    @pytest.mark.parametrize("x, k, r", [(1e10, 1e-300, 3), (1e10, 1e-300, 2), (3e5, 1e-305, 5),
                                         (1e200, 1e-150, 3), (1e300, 5e-324, 2)])
    def test_polygamma_where_the_lattice_sum_overflows(self, x, k, r):
        # zeta_q(1, r) ~ 1/((r-1) q) at q = k/x = 1e-310 overflowed before (r-1)! x^-r scaled it
        # back down: polygamma(PkParams(1, 1e-300), 1e10, 3) was -inf, with a note, for -1.0e280;
        # where k/x underflowed to 0 (the last two) polygamma raised DomainError, for -1e-250 and 2.0e23
        import mpmath as mp

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = polygamma(PkParams(1.0, k), x, r)
        with mp.workdps(40):
            truth = mp.psi(r - 1, mp.mpf(x) / k) / mp.mpf(k) ** r
        assert abs(got.value - truth) <= min(got.abs_err, 1e-13 * abs(truth)), (x, k, r)

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
        printed = check_point("3.11", {"p": 1, "k": 2, "x": 2.0, "r": 2}).rhs_printed
        assert printed == pytest.approx(2.0 * polygamma(PkParams(1, 2), 2.0, 2).value, rel=1e-14)

    def test_general_scale_against_rescaled_classical(self):
        # zeta_k(x, r) = k^-r zeta(x/k, r) via the lattice rescale
        for k in (0.5, 2.0, 3.0):
            for x in (0.7, 2.5):
                got = polygamma(PkParams(1, k), x, 2).value
                want = oracles.mp_polygamma(1, x / k) / k**2
                assert got == pytest.approx(want, rel=1e-10)
