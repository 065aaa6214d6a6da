"""Pochhammer symbol: four routes, derivatives, rescalings, recurrences."""

import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pkspecial import (
    DomainError,
    OverflowNote,
    PkParams,
    PochSpec,
    check_point,
    elementary_symmetric,
    poch_direct,
    poch_dk,
    poch_dp,
    poch_gamma_ratio,
    poch_generalized,
    poch_ln,
    poch_reduce,
    poch_rescale,
    poch_symmetric,
)
from pkspecial.core import best_central_diff
from pkspecial.pochhammer import poch_dk_product

from conftest import GRID_KS, GRID_PS, GRID_XS


def spec(x, n, p, k):
    return PochSpec(x, n, PkParams(p, k))


def point(x, n, p, k, **extra):
    return {"p": p, "k": k, "x": x, "n": n, **extra}


class TestDirect:
    def test_classical_rising(self):
        assert poch_direct(spec(2, 3, 1, 1)) == 24.0

    def test_empty_product(self):
        assert poch_direct(spec(7, 0, 5, 3)) == 1.0

    def test_two_scale_point(self):
        # (3*2/2) * (3*2/2 + 2) = 3 * 5
        assert poch_direct(spec(3, 2, 2, 2)) == 15.0

    def test_overflow_warns(self):
        with pytest.warns(OverflowNote):
            poch_direct(spec(100.0, 200, 3.0, 0.5))

    def test_ln_companion(self):
        s = spec(100.0, 200, 3.0, 0.5)
        ln, sign = poch_ln(s)
        assert sign == 1
        want = math.lgamma(200.0 + 200) - math.lgamma(200.0) + 200 * math.log(3.0)
        assert ln == pytest.approx(want, rel=1e-13)

    def test_ln_zero_factor(self):
        ln, sign = poch_ln(spec(-2.0, 4, 1, 1))
        assert ln == -math.inf and sign == 0


class TestElementarySymmetric:
    def test_basics(self):
        assert elementary_symmetric([1, 2, 3], 0) == 1.0
        assert elementary_symmetric([1, 2, 3], 2) == 11.0  # 2 + 3 + 6
        assert elementary_symmetric([1, 2, 3], 3) == 6.0

    def test_index_error(self):
        with pytest.raises(IndexError):
            elementary_symmetric([1.0, 2.0], 3)

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(min_value=-4, max_value=4), min_size=0, max_size=10),
        st.integers(min_value=0, max_value=10),
    )
    def test_matches_bruteforce(self, values, s):
        if s > len(values):
            return
        got = elementary_symmetric(values, s)
        want = oracles.elementary_symmetric_bruteforce(values, s)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestFourRoutes:
    def test_symmetric_examples(self):
        assert poch_symmetric(spec(1, 3, 1, 1)) == pytest.approx(6.0, rel=1e-15)
        assert poch_symmetric(spec(2, 3, 1, 1)) == pytest.approx(24.0, rel=1e-15)
        # p^2 [ (x/k)^2 + e_1(1) (x/k) ] = 4 [2.25 + 1.5]
        assert poch_symmetric(spec(3, 2, 2, 2)) == pytest.approx(15.0, rel=1e-15)

    def test_reduce_examples(self):
        assert poch_reduce(spec(2, 3, 1, 1)) == pytest.approx(24.0)
        assert poch_reduce(spec(3, 2, 2, 2)) == pytest.approx(15.0)
        assert poch_reduce(spec(1, 2, 4, 2)) == pytest.approx(12.0)

    def test_gamma_ratio_overflow_is_signed_inf(self):
        # past the double range the route matches poch_direct: a signed inf and a note
        for x, want in ((1.0, math.inf), (-0.5, -math.inf)):
            with pytest.warns(OverflowNote):
                assert poch_gamma_ratio(spec(x, 300, 2.0, 1.0)) == want

    def test_gamma_ratio_examples(self):
        assert poch_gamma_ratio(spec(2, 3, 1, 1)) == pytest.approx(24.0, rel=1e-13)
        assert poch_gamma_ratio(spec(3, 2, 2, 2)) == pytest.approx(15.0, rel=1e-13)
        assert poch_gamma_ratio(spec(0.5, 1, 1, 0.5)) == pytest.approx(1.0, rel=1e-13)

    def test_agreement_on_grid(self):
        for p in GRID_PS:
            for k in GRID_KS:
                for x in GRID_XS:
                    for n in (0, 1, 2, 5, 11, 20):
                        s = spec(x, n, p, k)
                        direct = poch_direct(s)
                        assert poch_reduce(s) == pytest.approx(direct, rel=5e-13)
                        assert poch_gamma_ratio(s) == pytest.approx(direct, rel=5e-13)
                        if n >= 1:
                            assert poch_symmetric(s) == pytest.approx(direct, rel=5e-13)

    @settings(max_examples=80)
    @given(
        st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=16),
        st.integers(min_value=0, max_value=12),
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
    )
    def test_exact_rational_oracle(self, x, n, p, k):
        want = float(oracles.poch_exact(x, n, p, k))
        got = poch_direct(spec(float(x), n, float(p), float(k)))
        assert got == pytest.approx(want, rel=1e-12)


class TestGeneralized:
    def test_degenerate_block(self):
        s = spec(3, 2, 2, 2)
        assert poch_generalized(s, 1) == pytest.approx(poch_reduce(s), rel=1e-14)

    def test_hand_points(self):
        assert poch_generalized(spec(1, 1, 1, 1), 2) == pytest.approx(2.0, rel=1e-14)
        assert poch_generalized(spec(2, 1, 1, 1), 2) == pytest.approx(6.0, rel=1e-14)

    def test_matches_direct(self):
        for q in (1, 2, 3):
            for n in (1, 2, 4, 6):
                for (p, k, x) in ((1.0, 1.0, 0.7), (2.0, 0.5, 2.5), (3.5, 3.0, 4.9)):
                    got = poch_generalized(spec(x, n, p, k), q)
                    want = poch_direct(spec(x, n * q, p, k))
                    assert got == pytest.approx(want, rel=1e-12)


class TestDerivatives:
    def test_dp_examples(self):
        assert poch_dp(spec(1, 2, 1, 1)) == pytest.approx(4.0)
        assert poch_dp(spec(1, 0, 1, 1)) == 0.0
        assert poch_dp(spec(2, 1, 2, 1)) == pytest.approx(2.0)

    def test_dk_examples(self):
        assert poch_dk(spec(1, 2, 1, 1)) == pytest.approx(-3.0)
        assert poch_dk(spec(1, 0, 1, 1)) == 0.0
        assert poch_dk(spec(1, 1, 1, 1)) == pytest.approx(-1.0)

    def test_dk_routes_agree(self):
        for (p, k, x, n) in ((1, 1, 0.7, 5), (2, 0.5, 2.5, 7), (3.5, 3, 4.9, 3)):
            a = poch_dk(spec(x, n, p, k))
            b = poch_dk_product(spec(x, n, p, k))
            assert a == pytest.approx(b, rel=1e-12)

    def test_against_finite_differences(self):
        for p in (0.5, 2.0):
            for k in (0.5, 3.0):
                for x in (0.7, 4.9):
                    for n in (1, 3, 8):
                        fd_p = best_central_diff(
                            lambda pp: poch_direct(spec(x, n, pp, k)), p
                        )
                        assert poch_dp(spec(x, n, p, k)) == pytest.approx(fd_p, rel=1e-6)
                        fd_k = best_central_diff(
                            lambda kk: poch_direct(spec(x, n, p, kk)), k
                        )
                        assert poch_dk(spec(x, n, p, k)) == pytest.approx(fd_k, rel=1e-6)

    def test_dk_zero_factor(self):
        with pytest.raises(DomainError):
            poch_dk(spec(-1.0, 3, 1.0, 1.0))


class TestRescale:
    def test_mode_examples(self):
        # both sides 3.75 at (x=3, n=2, p=1): step 2 vs step 1
        lhs = poch_direct(spec(3, 2, 1, 2.0))
        assert lhs == pytest.approx(3.75)
        assert poch_rescale(spec(3, 2, 1, 1.0), 2.0, "2.8") == pytest.approx(lhs, rel=1e-13)
        assert poch_rescale(spec(1, 1, 2, 1.0), 1.0, "2.10") == pytest.approx(2.0)
        # s_new == k degenerates to the identity
        s = spec(2.5, 3, 2.0, 1.5)
        assert poch_rescale(s, 1.5, "2.8") == pytest.approx(poch_direct(spec(2.5, 3, 2.0, 1.5)))

    def test_all_modes_on_grid(self):
        for p in GRID_PS:
            for k in (0.5, 2.0):
                for s_new in (0.5, 1.0, 3.0):
                    for x in (0.7, 2.5):
                        for n in (1, 2, 5):
                            sp = spec(x, n, p, k)
                            lhs_89 = poch_direct(spec(x, n, p, s_new))
                            assert poch_rescale(sp, s_new, "2.8") == pytest.approx(lhs_89, rel=1e-13)
                            assert poch_rescale(sp, s_new, "2.9") == pytest.approx(lhs_89, rel=1e-13)
                            assert poch_rescale(sp, s_new, "2.10") == pytest.approx(
                                poch_direct(sp), rel=1e-13
                            )

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            poch_rescale(spec(1, 1, 1, 1), 1.0, "2.11")


class TestRecurrences:
    def test_splitting_example(self):
        rec = check_point("2.34", point(1, 1, 1, 1, j=1))
        assert rec.lhs == pytest.approx(2.0) and rec.corrected_pass

    def test_difference_corrected_hand_point(self):
        # 2*2*P(2;1) = 16 against P(2;2) - P(1;2) = 24 - 8
        rec = check_point("2.33", point(2, 2, 2, 1))
        assert rec.lhs == pytest.approx(16.0)
        assert rec.rhs_corrected == pytest.approx(16.0)
        assert rec.corrected_pass

    def test_difference_printed_fails_off_unity(self):
        rec = check_point("2.33", point(2, 2, 2, 1))
        assert rec.rhs_printed == pytest.approx(8.0)
        assert not rec.printed_pass

    def test_corrected_difference_on_grid(self):
        for p in GRID_PS:
            for k in GRID_KS:
                for x in GRID_XS:
                    for n in (1, 2, 5, 11):
                        rec = check_point("2.33", point(x, n, p, k))
                        assert rec.rel_err_corrected <= 1e-12, (p, k, x, n)
                        if p != 1.0:
                            assert not rec.printed_pass

    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.1, max_value=8.0),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0.25, max_value=4.0),
        st.floats(min_value=0.25, max_value=4.0),
    )
    def test_splitting_property(self, x, n, j, p, k):
        rec = check_point("2.34", point(x, n, p, k, j=j))
        assert rec.rel_err_corrected <= 1e-13
