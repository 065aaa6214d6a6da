"""Family Gamma: four evaluators, rescaling, fundamental-equation checks."""

import math

import numpy as np
import pytest

import oracles
from pkspecial import (
    DomainError,
    NoConvergence,
    PkParams,
    PoleError,
    check_point,
    gamma_closed,
    gamma_euler_product,
    gamma_integral,
    gamma_limit,
    gamma_weierstrass_recip,
)
from pkspecial import core
from pkspecial import psi_series
from pkspecial.gamma import gamma_limit_product_recip

from conftest import GRID_KS, GRID_PS, GRID_XS

SQRT_PI_HALF = 0.88622692545275801
NEG_SQRT_PI_THIRD = -1.02332670794648849  # 3^(-1/2)/2 * Gamma(-1/2), recurrence oracle


class TestClosed:
    def test_value_at_k(self):
        # the family collapses to p/k at x = k
        assert gamma_closed(PkParams(2, 3), 3.0).value == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_classical_factorial(self):
        assert gamma_closed(PkParams(1, 1), 5.0).value == pytest.approx(24.0, rel=1e-13)

    def test_half_scale(self):
        assert gamma_closed(PkParams(1, 2), 1.0).value == pytest.approx(SQRT_PI_HALF, rel=1e-13)

    def test_negative_argument(self):
        got = gamma_closed(PkParams(3, 2), -1.0)
        assert got.value == pytest.approx(NEG_SQRT_PI_THIRD, rel=1e-13)
        assert got.sign == -1
        # recurrence oracle: Gamma(-1/2) = Gamma(1/2) / (-1/2)
        want = 3.0**-0.5 / 2.0 * (math.sqrt(math.pi) / -0.5)
        assert NEG_SQRT_PI_THIRD == pytest.approx(want, rel=1e-15)

    def test_sign_pattern_negative_axis(self):
        for k in (0.5, 1.0, 2.0):
            for x in (-0.3 * k, -1.4 * k, -2.7 * k, -5.5 * k):
                got = gamma_closed(PkParams(1.3, k), x)
                expected_sign = -1 if math.ceil(-x / k) % 2 else 1
                assert got.sign == expected_sign, (k, x)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_closed(PkParams(1, 2), -4.0)

    def test_abs_err_covers_wide_draws(self):
        # log-uniform p, k in [e^-2, e^2] and x in [e^-3, e^3]
        rng = np.random.default_rng(33)
        for _ in range(1000):
            p, k = (float(v) for v in np.exp(rng.uniform(-2.0, 2.0, size=2)))
            x = float(np.exp(rng.uniform(-3.0, 3.0)))
            got = gamma_closed(PkParams(p, k), x)
            truth = oracles.mp_ln_abs_pk_gamma(p, k, x)
            assert abs(got.ln_value - truth) <= got.abs_err_ln, (p, k, x)

    def test_abs_err_covers_far_negative_draws(self):
        # x/k within 1e-3 to 0.5 of the poles -1 .. -3000: the rounding of x/k, eps |x/k| / 2, moves
        # ln|Gamma| by that over the distance, which the claim counted only within 1e-3 (up to 24x short)
        rng = np.random.default_rng(35)
        draws = [(1.2567888933672438, 1.458463425187719, -3291.7456939134463),
                 (0.3458305362711578, 19.691647140180354, -47693.195063768064)]
        for _ in range(100):
            n, d, side = int(rng.integers(1, 3001)), 10.0 ** rng.uniform(-3.0, math.log10(0.5)), rng.choice((-1, 1))
            p, k = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-2.0, 2.0)
            draws.append((p, k, (-n + side * d) * k))
        for p, k, x in draws:
            got = gamma_closed(PkParams(p, k), x)
            assert abs(got.ln_value - oracles.mp_ln_abs_pk_gamma(p, k, x)) <= got.abs_err_ln, (p, k, x)

    def test_matches_mpmath_on_grid(self):
        for p in GRID_PS:
            for k in GRID_KS:
                for x in GRID_XS:
                    got = gamma_closed(PkParams(p, k), x).ln_value
                    want = oracles.mp_ln_abs_pk_gamma(p, k, x)
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestLimit:
    def test_raw_rate(self):
        got = gamma_limit(PkParams(1, 1), 2.0, 1000, accelerate=False)
        assert got.value == pytest.approx(1.0, rel=2e-3)
        assert got.value != pytest.approx(1.0, rel=1e-5)  # genuinely O(1/n)

    def test_trivial_fixed_point(self):
        got = gamma_limit(PkParams(1, 1), 1.0, 64, accelerate=False)
        assert got.value == pytest.approx(1.0, rel=1.0 / 64)

    def test_accelerated(self):
        got = gamma_limit(PkParams(2, 2), 2.0, 10_000, accelerate=True)
        assert got.value == pytest.approx(1.0, rel=1e-6)

    def test_both_variants_converge(self):
        params = PkParams(3.5, 0.5)
        want = gamma_closed(params, 7.3).ln_value
        for variant in ("2.6", "2.7"):
            got = gamma_limit(params, 7.3, 100_000, accelerate=True, variant=variant)
            assert got.ln_value == pytest.approx(want, abs=1e-6)

    def test_abs_err_covers_wide_draws(self):
        # log-uniform p, k in [e^-2, e^2] and x in [e^-3, e^3] at the CLI's index
        rng = np.random.default_rng(20)
        for _ in range(200):
            p, k = np.exp(rng.uniform(-2.0, 2.0, size=2))
            x = float(np.exp(rng.uniform(-3.0, 3.0)))
            truth = oracles.mp_ln_abs_pk_gamma(p, k, x)
            for variant in ("2.6", "2.7"):
                got = gamma_limit(PkParams(float(p), float(k)), x, 100_000, variant=variant)
                assert abs(got.ln_value - truth) <= got.abs_err_ln, (p, k, x, variant)

    def test_abs_err_covers_large_argument(self):
        # once z = x/k is not small against n, the Richardson estimate alone
        # misses the O(1/n^3) residual (2.5x at z = 1e6, 55x at 1e12)
        rng = np.random.default_rng(21)
        for z in np.exp(rng.uniform(math.log(1e3), math.log(1e12), size=40)):
            z = float(z)
            for variant in ("2.6", "2.7"):
                got = gamma_limit(PkParams(1, 1), z, 100_000, variant=variant)
                assert abs(got.ln_value - math.lgamma(z)) <= got.abs_err_ln, (z, variant)

    def test_unaccelerated_abs_err_covers_both_variants(self):
        # the 1/n coefficient is z(z-1)/2 for "2.7" but z(z+1)/2 for "2.6"
        rng = np.random.default_rng(22)
        for z in np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=100)):
            z = float(z)
            for variant in ("2.6", "2.7"):
                got = gamma_limit(PkParams(1, 1), z, 64, accelerate=False, variant=variant)
                assert abs(got.ln_value - math.lgamma(z)) <= got.abs_err_ln, (z, variant)

    def test_unaccelerated_abs_err_covers_lgamma_rounding(self):
        # at n = 100,000 the terms cancel lgamma(n + 1) ~ 1e6 down to ln Gamma(z), and
        # for small z the rounding, math.lgamma's own included, outweighs the 1/n order
        rng = np.random.default_rng(106)
        for z in np.exp(rng.uniform(math.log(1e-6), math.log(1e4), size=200)):
            z = float(z)
            truth = oracles.mp_ln_abs_pk_gamma(1, 1, z)
            for variant in ("2.6", "2.7"):
                got = gamma_limit(PkParams(1, 1), z, 100_000, accelerate=False, variant=variant)
                assert abs(got.ln_value - truth) <= got.abs_err_ln, (z, variant)

    def test_huge_index_within_claim(self):
        # the sums over j < 4n cost the same at any n, so n = 10**12 runs as fast as n = 8;
        # lgamma(4n + 1) ~ 1.1e14 cancels down to O(1), which the claim covers
        for x in (0.3, 7.3, 1e6):
            truth = oracles.mp_ln_abs_pk_gamma(2.0, 0.5, x)
            for accelerate in (True, False):
                got = gamma_limit(PkParams(2.0, 0.5), x, 10**12, accelerate=accelerate)
                assert abs(got.ln_value - truth) <= got.abs_err_ln, (x, accelerate)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            gamma_limit(PkParams(1, 1), -1.0, 100)
        with pytest.raises(DomainError):
            gamma_limit(PkParams(1, 1), 1.0, 4)
        with pytest.raises(DomainError):
            gamma_limit(PkParams(1, 1), 1.0, 2**50 + 1)
        # x/k out of the double range at either end
        for k, x in ((10.0, 5e-324), (1e-300, 1e300)):
            with pytest.raises(DomainError):
                gamma_limit(PkParams(1, k), x, 64)


class TestIntegral:
    def test_exponential(self):
        assert gamma_integral(PkParams(1, 1), 1.0).value == pytest.approx(1.0, rel=1e-12)

    def test_gaussian(self):
        got = gamma_integral(PkParams(1, 2), 1.0)
        assert got.value == pytest.approx(SQRT_PI_HALF, rel=1e-12)

    def test_scale_invariance(self):
        params = PkParams(2, 3)
        base = gamma_integral(params, 3.0, a_scale=1.0).value
        assert base == pytest.approx(2.0 / 3.0, rel=1e-11)
        for a in (0.25, 5.0, 40.0):
            assert gamma_integral(params, 3.0, a_scale=a).value == pytest.approx(base, rel=1e-10)

    @pytest.mark.parametrize("x", [1e3, 1e5, 1e6])
    def test_large_x_over_k_converges(self, x):
        # a peak ~sqrt(x) wide and e^(x ln x) high: split at it, its log taken out
        got = gamma_integral(PkParams(1, 1), x)
        assert abs(got.ln_value - oracles.mp_ln_abs_pk_gamma(1, 1, x)) <= got.abs_err_ln

    def test_early_levels_past_double_range(self):
        # early level differences push the error extrapolation past the double range
        cases = [
            (6.634118677489015, 0.7056227656195277, 4.412555519421938),
            (2.7759673383585657, 0.21114940249179687, 18.824579280564997),
        ]
        for p, k, x in cases:
            try:
                got = gamma_integral(PkParams(p, k), x)
            except NoConvergence:
                continue
            assert abs(got.ln_value - oracles.mp_ln_abs_pk_gamma(p, k, x)) <= got.abs_err_ln

    def test_preconditions(self):
        with pytest.raises(DomainError):
            gamma_integral(PkParams(1, 1), 0.0)
        with pytest.raises(DomainError):
            gamma_integral(PkParams(1, 1), 1.0, a_scale=-1.0)


class TestProducts:
    def test_euler_product_telescopes(self):
        # at p = k = 1, x = 2 the factors telescope: lim 2(N+1)/(N+2) times 1/x
        got = gamma_euler_product(PkParams(1, 1), 2.0)
        assert got.value == pytest.approx(1.0, rel=1e-10)

    def test_euler_product_unit_argument_exact(self):
        # at x/k = 1 every factor cancels pairwise: only the tail's rounding is left
        got = gamma_euler_product(PkParams(1, 1), 1.0)
        assert got.value == pytest.approx(1.0, rel=1e-15)

    def test_euler_product_scaled(self):
        got = gamma_euler_product(PkParams(4, 2), 2.0)
        assert got.value == pytest.approx(2.0, rel=1e-10)

    def test_weierstrass_points(self):
        assert gamma_weierstrass_recip(PkParams(1, 1), 1.0).value == pytest.approx(1.0, rel=1e-10)
        assert gamma_weierstrass_recip(PkParams(1, 2), 2.0).value == pytest.approx(2.0, rel=1e-10)
        assert gamma_weierstrass_recip(PkParams(1, 1), 2.0).value == pytest.approx(1.0, rel=1e-10)

    def test_weierstrass_negative_argument(self):
        params = PkParams(3, 2)
        got = gamma_weierstrass_recip(params, -1.0)
        want = 1.0 / gamma_closed(params, -1.0).value
        assert got.value == pytest.approx(want, rel=1e-9)
        assert got.sign == -1

    def test_weierstrass_pole_returns_zero(self):
        got = gamma_weierstrass_recip(PkParams(1, 2), -4.0)
        assert got.ln_value == -math.inf
        assert got.value == 0.0

    def test_factor_next_to_a_pole_within_claim(self):
        # x/k = -15 - 1.08e-15 rounds to -15 - 1.78e-15; 1 + z/15 cancelled the rounding of z/15
        # and came out at -2.2e-16, 1.1 in the log against a claim of 1.0
        import mpmath as mp

        p, k, x = 2.9711616235043716, 0.016070829976996315, -0.24106244965494475
        with mp.workdps(60):
            z = mp.mpf(x) / mp.mpf(k)
            want = -(z * mp.log(p) + mp.log(abs(mp.gamma(z))) - mp.log(k))
            for route in (gamma_weierstrass_recip, gamma_limit_product_recip):
                got = route(PkParams(p, k), x)
                assert got.sign == 1 and abs(got.ln_value - want) <= got.abs_err_ln, route

    def test_limit_product_matches(self):
        for (p, k, x) in ((1, 1, 2.0), (3.5, 0.5, 7.3), (0.5, 3.0, 0.3)):
            params = PkParams(p, k)
            got = gamma_limit_product_recip(params, x)
            want = -gamma_closed(params, x).ln_value
            assert got.ln_value == pytest.approx(want, abs=1e-8)


# Each lattice route, as route(params, x): its domain is |x/k| < core._LATTICE_Z_MAX
LATTICE_ROUTES = {
    "euler_product": gamma_euler_product,
    "weierstrass": gamma_weierstrass_recip,
    "limit_product_recip": gamma_limit_product_recip,
    "psi_series_3.9": lambda pk, x: psi_series(pk, x, "3.9"),
    "psi_series_3.10": lambda pk, x: psi_series(pk, x, "3.10"),
}


@pytest.mark.parametrize("route", sorted(LATTICE_ROUTES))
@pytest.mark.parametrize("x, k", [(1e62, 1.0), (1e80, 1.0), (1e200, 1.0), (100.0, 1e-3)])
def test_past_the_tail_expansion_raises_domain_error(route, x, k):
    # the raw OverflowError of the tail's powers, or a loop of |x/k| terms, must not escape
    with pytest.raises(DomainError):
        LATTICE_ROUTES[route](PkParams(1, k), x)
    if route in ("weierstrass", "limit_product_recip"):
        if k == 1.0:
            # -x/k is an integer there: on the pole lattice the reciprocal is zero, with no loop
            assert LATTICE_ROUTES[route](PkParams(1, k), -x).ln_value == -math.inf
        else:
            # -100/1e-3 only rounds onto the lattice, 100 != 1e5 * 1e-3 exactly: refused, as gamma_closed refuses it
            with pytest.raises(PoleError, match=r"^pole at index 100000$"):
                LATTICE_ROUTES[route](PkParams(1, k), -x)


@pytest.mark.parametrize("route", sorted(LATTICE_ROUTES))
def test_lattice_domain_ends_at_its_constant(route):
    top = core._LATTICE_Z_MAX
    assert top == 100_000
    with pytest.raises(DomainError):
        LATTICE_ROUTES[route](PkParams(1, 1), top)
    with pytest.raises(DomainError):
        LATTICE_ROUTES[route](PkParams(1, 0.5), top / 2)
    LATTICE_ROUTES[route](PkParams(1, 1), 0.99 * top)
    if route in ("weierstrass", "limit_product_recip"):
        with pytest.raises(DomainError):
            LATTICE_ROUTES[route](PkParams(1, 1), -top - 0.5)
        got = LATTICE_ROUTES[route](PkParams(1, 1), -top + 0.5)
        assert got.sign == 1 and abs(got.ln_value + math.lgamma(-top + 0.5)) <= got.abs_err_ln


class TestCrossEvaluator:
    def test_all_routes_on_grid(self):
        for p in GRID_PS:
            for k in GRID_KS:
                for x in GRID_XS:
                    params = PkParams(p, k)
                    closed = gamma_closed(params, x)
                    integral = gamma_integral(params, x)
                    assert abs(integral.ln_value - closed.ln_value) <= 1e-9, (p, k, x)
                    euler = gamma_euler_product(params, x)
                    assert abs(euler.ln_value - closed.ln_value) <= 1e-6, (p, k, x)
                    recip = gamma_weierstrass_recip(params, x)
                    assert abs(-recip.ln_value - closed.ln_value) <= 1e-6, (p, k, x)


class TestRescale:
    def test_pure_weight_move(self):
        # moving only p rescales by (r/p)^(x/k) exactly
        for (r, p, k, x) in ((2.0, 1.0, 2.0, 2.5), (0.5, 3.5, 0.5, 4.9)):
            lhs = gamma_closed(PkParams(r, k), x).ln_value
            rhs = (x / k) * math.log(r / p) + gamma_closed(PkParams(p, k), x).ln_value
            assert lhs == pytest.approx(rhs, abs=1e-13)


class TestFundamentalEquations:
    def test_reflection_pair_point(self):
        rec = check_point("2.31", {"p": 1, "k": 1, "x": 0.5})
        assert rec.lhs == pytest.approx(math.pi, rel=1e-12)
        assert rec.corrected_pass

    def test_negated_reflection_hand_point(self):
        rec = check_point("2.30", {"p": 1, "k": 2, "x": 1})
        assert rec.lhs == pytest.approx(-math.pi / 2.0, rel=1e-12)
        assert rec.rhs_corrected == pytest.approx(-math.pi / 2.0, rel=1e-12)
        assert rec.corrected_pass and not rec.printed_pass
        assert rec.rel_err_printed == pytest.approx(2.0, abs=1e-9)

    def test_multiplication_hand_point(self):
        rec = check_point("2.32", {"p": 1, "k": 1, "x": 0.5, "m": 2})
        assert rec.lhs == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert rec.corrected_pass

    def test_functional_equation_tight(self):
        for p in GRID_PS:
            for k in GRID_KS:
                rec = check_point("2.23", {"p": p, "k": k, "x": 1.1})
                assert rec.rel_err_corrected <= 1e-13

    @pytest.mark.parametrize(
        "ident, point, reason",
        [
            ("2.30", {"p": 1, "k": 0.5, "x": 2.5}, "x/k within margin of an integer"),
            ("2.19", {"p": 1, "k": 1, "x": -1}, "pole: pole at index 1"),  # the PoleError the point raises
            ("2.22", {"p": 1, "k": 1, "x": -2.0005, "n": 1}, "argument near pole lattice"),
            ("2.23", {"p": 1, "k": 1, "x": -0.9995}, "argument near pole lattice"),
            ("2.24", {"p": 1, "k": 1, "x": -3.0002, "n": 2}, "argument near pole lattice"),
        ],
        ids=("2.30", "2.19", "2.22", "2.23", "2.24"),
    )
    def test_near_pole_points_skip(self, ident, point, reason):
        rec = check_point(ident, point)
        assert rec.skipped and rec.skip_reason == reason
        assert rec[2:9] == (None,) * 7 and rec.grid_point == point

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            check_point("9.99", {"p": 1, "k": 1, "x": 1})

    def test_full_set_on_grid(self):
        ids = ("2.22", "2.23", "2.24", "2.25", "2.26", "2.27", "2.28", "2.29", "2.31", "2.32")
        for ident in ids:
            for p in (0.5, 2.0):
                for k in (1.0, 3.0):
                    for x in (0.7, 4.9):
                        point = {"p": p, "k": k, "x": x, "n": 2, "m": 3}
                        rec = check_point(ident, point)
                        if not rec.skipped:
                            assert rec.rel_err_corrected <= 1e-10, (ident, point)
