"""Pochhammer symbol: five routes and their range rule, derivatives, rescalings, recurrences."""

import math
import random
import warnings
from fractions import Fraction

import mpmath as mp
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
from pkspecial.core import _LN_OVERFLOW, best_central_diff
from pkspecial.pochhammer import _elementary_table, _power

from conftest import GRID_KS, GRID_PS, GRID_XS

EPS = 2.220446049250313e-16


def spec(x, n, p, k):
    return PochSpec(x, n, PkParams(p, k))


def point(x, n, p, k, **extra):
    return {"p": p, "k": k, "x": x, "n": n, **extra}


def _symmetric_by_table(s):
    """poch_symmetric's outcome, DomainError for a raise, from the full e_s table at every n: p^n times the classical total."""
    n, z = s.n, s.x / s.params.k
    e = _elementary_table(range(1, n), n - 1)
    total = 0.0
    for i in range(n):
        total += e[i] * _power(z, n - i)
    if not math.isfinite(total):
        ln, sign = poch_ln(s)
        return DomainError if ln <= _LN_OVERFLOW else sign * math.inf
    return total * _power(s.params.p, n)


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

    @pytest.mark.parametrize("seed", range(4))
    def test_product_is_math_prod_of_the_factors(self, seed):
        # the reference product: the same factors x p/k + j p, multiplied in the same order
        rng = random.Random(seed)
        for _ in range(250):
            p, k = math.exp(rng.uniform(-6.0, 6.0)), math.exp(rng.uniform(-6.0, 6.0))
            x, n = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-8.0, 6.0)), rng.randint(0, 60)
            base = x * p / k
            want = math.prod((base + j * p for j in range(n)), start=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OverflowNote)
                assert poch_direct(spec(x, n, p, k)).hex() == want.hex()

    def test_ln_companion(self):
        s = spec(100.0, 200, 3.0, 0.5)
        ln, sign = poch_ln(s)
        assert sign == 1
        want = math.lgamma(200.0 + 200) - math.lgamma(200.0) + 200 * math.log(3.0)
        assert ln == pytest.approx(want, rel=1e-13)

    def test_ln_zero_factor(self):
        ln, sign = poch_ln(spec(-2.0, 4, 1, 1))
        assert ln == -math.inf and sign == 0
        # factors -1e308, 0, 1e308 and 2e308, where 3 p overflows to inf: still an exact zero
        assert poch_ln(spec(-1.0, 4, 1e308, 1.0)) == (-math.inf, 0)

    @pytest.mark.parametrize("seed", range(2))
    def test_ln_against_the_exact_product(self, seed):
        # n factor roundings, x p/k's and the log's own: within 10 ((n + 2) eps + eps |ln|)
        rng = random.Random(seed)
        for _ in range(100):
            p, k = math.exp(rng.uniform(-2.0, 2.0)), math.exp(rng.uniform(-2.0, 2.0))
            x, n = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1e-3), math.log(300.0))), rng.randint(0, 300)
            num, den = oracles.poch_exact_ratio(Fraction(x), n, Fraction(p), Fraction(k))
            ln, sign = poch_ln(spec(x, n, p, k))
            if num == 0:
                assert (ln, sign) == (-math.inf, 0)
                continue
            with mp.workdps(60):
                want = float(mp.log(abs(num)) - mp.log(den))
            assert sign == (1 if num > 0 else -1), (x, n, p, k)
            assert abs(ln - want) <= 10.0 * ((n + 2) * EPS + EPS * abs(want)), (x, n, p, k)


class TestElementarySymmetric:
    def test_basics(self):
        assert _elementary_table([1, 2, 3], 3) == [1.0, 6.0, 11.0, 6.0]  # e_2 = 2 + 3 + 6

    def test_one_pass_table_is_bit_identical(self):
        # poch_symmetric reads every e_s(1..n-1) from one table
        for n in range(1, 31):
            vars_ = list(range(1, n))
            table = _elementary_table(vars_, n - 1)
            assert table == [_elementary_table(vars_, s)[s] for s in range(n)], n

    @settings(max_examples=60)
    @given(
        st.lists(st.floats(min_value=-4, max_value=4), min_size=0, max_size=10),
        st.integers(min_value=0, max_value=10),
    )
    def test_matches_bruteforce(self, values, s):
        if s > len(values):
            return
        got = _elementary_table(values, s)[s]
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

    def test_product_routes_overflow_is_signed_inf(self):
        routes = (
            poch_direct,
            poch_symmetric,
            poch_reduce,
            lambda s: poch_generalized(s, 1),
            lambda s: poch_generalized(s, 2),
        )
        for route in routes:
            with pytest.warns(OverflowNote):
                assert route(spec(1.0, 300, 2.0, 1.0)) == math.inf
        # one and 26 negative factors: the symmetric expansion's alternating
        # terms overflow to +inf and -inf, yet the symbol's sign holds
        for x, want in ((-0.5, -math.inf), (-25.5, math.inf)):
            for route in routes:
                with pytest.warns(OverflowNote):
                    assert route(spec(x, 300, 2.0, 1.0)) == want

    def test_zero_factor_past_an_overflow_is_exactly_zero(self):
        # factor j = 200 of x p/k + j p is 0, after the running product has overflowed: inf * 0 is nan
        zero = spec(-200.0, 250, 1e10, 1.0)
        assert poch_ln(zero) == (-math.inf, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", OverflowNote)
            for value in (poch_direct(zero), poch_reduce(zero), poch_generalized(spec(-200.0, 125, 1e10, 1.0), 2)):
                assert value == 0.0

    def test_symmetric_overflow_inside_double_range_raises(self):
        # p^n underflows and e_s overflows while the symbol stays finite, and
        # an exact zero factor makes the symbol 0 under overflowing terms
        for x, p in ((1.0, 0.01), (-25.0, 2.0)):
            with pytest.raises(DomainError):
                poch_symmetric(spec(x, 300, p, 1.0))

    @pytest.mark.parametrize("n", range(172, 181))
    def test_symmetric_past_171_factorial_matches_the_full_table(self, n):
        # from n = 172 on, e_(n-1) = (n-1)! is inf and the route skips the table;
        # x = 0 and x/k < 0 make nan totals, and a tiny or huge p puts p^n past the range
        assert _elementary_table(range(1, n), n - 1)[n - 1] == math.inf
        for x in (0.0, -0.5, -25.5, 1.5):
            for p in (1e-300, 2.0, 1e300):
                s = spec(x, n, p, 1.0)
                want = _symmetric_by_table(s)
                with warnings.catch_warnings(record=True) as notes:
                    warnings.simplefilter("always", OverflowNote)
                    try:
                        got = poch_symmetric(s)
                    except DomainError:
                        got = DomainError
                assert got == want, (x, p)
                assert len(notes) == (got is not DomainError), (x, p)

    def test_symmetric_at_large_n_skips_the_table(self):
        # with the table, n = 6,000 took 2.5 s and n = 100,000 did not finish
        with pytest.warns(OverflowNote):
            assert poch_symmetric(spec(1e300, 100_000, 1.0, 1.0)) == math.inf
        with pytest.raises(DomainError):
            poch_symmetric(spec(0.0, 100_000, 1.0, 1.0))

    def test_symmetric_subnormal_power_keeps_its_digits(self):
        # p^n is subnormal at n = 160 and zero at n = 170, while the symbol
        # p^n n! stays a normal double
        for n in (150, 160, 170):
            want = mp.mpf(0.01) ** n * mp.rf(1, n)
            got = poch_symmetric(spec(1.0, n, 0.01, 1.0))
            assert abs(got - want) <= 1e-15 * (n + 1) * abs(want), n
        # a symbol below the normal range is rounded into it once: 24e-320 is subnormal, 24e-800 is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(poch_symmetric(spec(1.0, 4, 1e-80, 1.0)) - 24 * mp.mpf(1e-80) ** 4) <= 5 * 2.0**-1074
            assert poch_symmetric(spec(1.0, 4, 1e-200, 1.0)) == 0.0

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
                        assert poch_reduce(s) == pytest.approx(direct, rel=5e-13, abs=0)
                        assert poch_gamma_ratio(s) == pytest.approx(direct, rel=5e-13, abs=0)
                        if n >= 1:
                            assert poch_symmetric(s) == pytest.approx(direct, rel=5e-13, abs=0)

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
        assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestRangeRule:
    """Where a plain loop's product or its power leaves the double range, the factors are multiplied again."""

    @staticmethod
    def _within(got, x, n, p, k):
        want = oracles.poch_exact(Fraction(x), n, Fraction(p), Fraction(k))
        return abs(Fraction(got) - want) <= Fraction(1e-15) * (n + 1) * abs(want)

    def test_power_past_the_range_under_a_representable_value(self):
        # p^20 = 1e400 overflows, and the value is 1e400 (1e-300)_20 = 1.2164510040883e117
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reduced, blocks = poch_reduce(spec(1e-300, 20, 1e20, 1.0)), poch_generalized(spec(1e-300, 10, 1e20, 1.0), 2)
        for got in (reduced, blocks):
            assert f"{got:.13e}" == "1.2164510040883e+117"
            assert self._within(got, 1e-300, 20, 1e20, 1.0)

    def test_value_past_the_range_under_an_underflowed_power(self):
        # p^20 = 1e-400 underflows to 0, and the value 1e-400 (1e300)_20 overflows
        with pytest.warns(OverflowNote):
            assert poch_reduce(spec(1e300, 20, 1e-20, 1.0)) == math.inf
        with pytest.warns(OverflowNote):
            assert poch_generalized(spec(1e300, 10, 1e-20, 1.0), 2) == math.inf

    def test_zero_factor_beside_a_factor_past_the_range(self):
        # factors -1e308, 0, 1e308 and 2e308, where 3 p overflows to inf: inf * 0 is nan, the symbol 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert poch_direct(spec(-1.0, 4, 1e308, 1.0)) == 0.0

    @pytest.mark.parametrize("x, n, p", [(1200.0, 100, 0.5), (100.0, 150, 0.01)])
    def test_symmetric_total_past_the_range_under_a_normal_power(self, x, n, p):
        # (1200)_100 = 4.7e309 overflows, p^n (1200)_100 = 3.6e279 does not; (100)_150 p^150 is 1.4e34
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poch_symmetric(spec(x, n, p, 1.0))
        assert self._within(got, x, n, p, 1.0)

    def test_symmetric_total_past_the_range_under_an_underflowed_power(self):
        # p^150 = 1e-450 underflows to 0 and (1e4)_150 overflows; the value is 3.04e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poch_symmetric(spec(1e4, 150, 1e-3, 1.0))
        assert self._within(got, 1e4, 150, 1e-3, 1.0)

    @pytest.mark.parametrize("x, p, k", [(1e-200, 1e-150, 1e-300), (1e200, 1e150, 1e300)])
    def test_first_factor_rounded_once_where_x_p_leaves_the_range(self, x, p, k):
        # x p = 1e-350 underflows and x p = 1e350 overflows, while x p/k is 1e-50 or 1e50
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poch_direct(spec(x, 2, p, k))
        assert self._within(got, x, 2, p, k)

    @pytest.mark.parametrize("x, n", [(-19.5, 25), (-20.0, 25), (-15.0, 20)])
    def test_symmetric_cancellation_raises_or_holds(self, x, n):
        # the alternating terms cancel far past the stand-in: the values are 9.01e18, 0 and 0
        try:
            got = poch_symmetric(spec(x, n, 1.0, 1.0))
        except DomainError as exc:
            assert "cancels" in str(exc)
        else:
            assert self._within(got, x, n, 1.0, 1.0)

    def test_finite_values_above_1e300_carry_no_note(self):
        # (1e6)_50 = 1.0012e300: only an inf is noted, on every route
        s = spec(1e6, 50, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [poch_direct(s), poch_reduce(s), poch_generalized(spec(1e6, 25, 1.0, 1.0), 2),
                   poch_symmetric(s), poch_rescale(s, 1.0, "2.10")]
            ratio = poch_gamma_ratio(s)
        want = float(oracles.poch_exact(Fraction(1e6), 50, Fraction(1), Fraction(1)))
        assert f"{want:.4e}" == "1.0012e+300"
        assert got == pytest.approx([want] * 5, rel=1e-14)
        assert ratio == pytest.approx(want, rel=1e-8)  # the difference of two log-gammas near 1.3e7 keeps fewer digits

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_negative_zero_argument(self, q):
        # the first factor -0.0 + 0 is +0.0, so the product is +0.0, and 1.0 for no factors
        for p in (0.5, 2.0):
            assert poch_generalized(spec(-0.0, 0, p, 1.0), q).hex() == "0x1.0000000000000p+0"
            for n in (1, 3):
                assert poch_generalized(spec(-0.0, n, p, 1.0), q).hex() == "0x0.0p+0"
                assert poch_reduce(spec(-0.0, n, p, 3.0)).hex() == "0x0.0p+0"

    def test_symmetric_exact_sum_at_negative_x_is_kept(self):
        # at x/k = -1.5 and -2 every term and partial sum is exact: no cancellation error
        assert poch_symmetric(spec(-0.75, 6, 2.0, 0.5)) == poch_direct(spec(-0.75, 6, 2.0, 0.5))
        assert poch_symmetric(spec(-1.0, 6, 2.0, 0.5)) == 0.0


class TestGeneralized:
    def test_degenerate_block(self):
        # one block is the classical reduction, bit for bit
        rng = random.Random(5)
        for _ in range(200):
            p, k = math.exp(rng.uniform(-6.0, 6.0)), math.exp(rng.uniform(-6.0, 6.0))
            x, n = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(-8.0, 6.0)), rng.randint(0, 60)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OverflowNote)
                assert poch_generalized(spec(x, n, p, k), 1).hex() == poch_reduce(spec(x, n, p, k)).hex()

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

    def test_small_argument_keeps_its_low_bits(self):
        # z + r - 1 at r = 1 rounded z + 1 first: 0.1025265618963547 where p x/k is 0.1025265618963551
        p, k, x = 5.087482393364604, 4.662301588534545, 0.09395801605521238  # route sweep, seed 31, draw 187
        with mp.workdps(40):
            want = mp.mpf(p) * (mp.mpf(x) / mp.mpf(k))
        assert poch_generalized(spec(x, 1, p, k), 1) == pytest.approx(float(want), rel=4e-16, abs=0.0)


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
            b = oracles.poch_dk_product(spec(x, n, p, k))
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

    def test_power_past_the_double_range_is_signed_inf(self):
        # (p/s_new)^400 = 1e1600; under "2.10" the symbol at step 1e-3 underflows to 0
        for x, n, want in ((1.0, 400, math.inf), (-1.5, 401, -math.inf)):
            with pytest.warns(OverflowNote):
                assert poch_rescale(spec(x, n, 10.0, 1.0), 1e-3, "2.9") == want
            with pytest.warns(OverflowNote):
                assert poch_rescale(spec(x, n, 10.0, 1.0), 1e-3, "2.10") == math.inf

    @pytest.mark.parametrize("x, p", [
        (1e7, 1e-3),  # the symbol at step 1 overflows, the power 1e-150 brings it back to 1.0001225e200
        (1e6, 1e-3),  # the symbol is 1.0012e300, past poch_direct's note, and the result 1.0012e150
        (1e6, 1e-9),  # the power 1e-450 underflows to 0, and the result is 1.0012e-150
    ])
    def test_symbol_or_power_past_the_range_scaled_back_into_it(self, x, p):
        # mode 2.10 at k = s_new = 1 and n = 50: (p/s_new)^50 P_1(x; 50, 1) = P_p(x; 50, 1)
        want = oracles.poch_exact(Fraction(x), 50, Fraction(p), Fraction(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no note: the result is representable
            got = poch_rescale(spec(x, 50, p, 1.0), 1.0, "2.10")
        # p/s_new folded into each factor: a running product's n eps, inside 1e-15 here
        assert abs(Fraction(got) - want) <= Fraction(1e-15) * abs(want)


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
