"""Hypergeometric series: classification, reduction, ODE residuals, integrals."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pkspecial import (
    ConvergenceKind,
    DivergentInput,
    DomainError,
    HyperParams,
    LowerPoleError,
    MaxTermsExceeded,
    NoConvergence,
    OverflowNote,
    PkParams,
    UnsupportedShape,
    classify,
    confluent_integral,
    hyper_series,
    ode_coefficient_residual,
    pk_binomial,
)

TWO_LN_TWO = 1.38629436111989062  # 2F1(1,1;2;1/2) = -log(1/2)/(1/2), log-series oracle
E_MINUS_ONE = 1.71828182845904524  # 1F1(1;2;1), integral of e^t over (0,1)


def hp(upper, lower):
    return HyperParams(upper=upper, lower=lower)


class TestClassify:
    def test_entire(self):
        cls = classify(hp((), ((2.0, 1.0, 1.0),)))
        assert cls.kind is ConvergenceKind.ALL_FINITE and cls.radius is None

    def test_finite_radius(self):
        cls = classify(hp(((1, 2, 1), (1, 3, 1)), ((2, 1, 1),)))
        assert cls.kind is ConvergenceKind.FINITE_RADIUS
        assert cls.radius == pytest.approx(1.0 / 6.0)

    def test_formal(self):
        cls = classify(hp(((1, 1, 1),) * 3, ((2, 1, 1),)))
        assert cls.kind is ConvergenceKind.DIVERGENT_FORMAL

    def test_radius_matches_reduction_scale(self):
        h = hp(((0.7, 2.5, 1.3), (1.1, 0.8, 2.0)), ((2.3, 1.7, 0.9),))
        assert classify(h).radius == pytest.approx(1.0 / h.scale)


class TestSeries:
    def test_leading_term_only(self):
        assert hyper_series(hp(((1, 1, 1),), ()), 0.0).value == 1.0

    def test_geometric_case(self):
        got = hyper_series(hp(((1, 1, 1),), ()), 0.5)
        assert got.value == pytest.approx(2.0, rel=1e-13)

    def test_log_series_case(self):
        got = hyper_series(hp(((1, 1, 1), (1, 1, 1)), ((2, 1, 1),)), 0.5)
        assert got.value == pytest.approx(TWO_LN_TWO, rel=1e-13)
        assert TWO_LN_TWO == pytest.approx(-math.log(0.5) / 0.5, abs=1e-15)

    def test_polynomial_termination(self):
        # a non-positive upper ratio ends the series; converges anywhere
        h = hp(((-3, 1, 1), (1, 1, 1)), ((2, 1, 1),))
        got = hyper_series(h, 2.0).value
        want = math.fsum(
            math.prod((-3 + i) * (1 + i) / ((2 + i) * (i + 1)) for i in range(n)) * 2.0**n
            for n in range(5)
        )
        assert got == pytest.approx(want, abs=1e-14)

    def test_divergent_argument_rejected(self):
        h = hp(((1, 2, 1), (1, 3, 1)), ((2, 1, 1),))
        with pytest.raises(DivergentInput):
            hyper_series(h, 0.2)  # radius is 1/6

    def test_formal_rejected(self):
        with pytest.raises(DivergentInput):
            hyper_series(hp(((1, 1, 1),) * 3, ((2, 1, 1),)), 0.01)

    def test_term_budget(self):
        # 2F1(1,1;2;x) = -ln(1-x)/x: its terms x^n/(n+1) outlast the fixed budget of 100,000
        h = hp(((1, 1, 1), (1, 1, 1)), ((2, 1, 1),))
        with pytest.raises(MaxTermsExceeded) as exc_info:
            hyper_series(h, 0.999999)
        assert math.isfinite(exc_info.value.partial.value)

    def test_overflow_with_sign_changes_raises_at_once(self):
        # the 2F2 draw 63 of the seed-51 sweep below, at effective argument
        # -1419: its alternating terms overflow at index 262, after which the
        # sum is nan or inf for good
        h = hp(
            ((0.5121303934955194, 6.299438979116415, 0.35530781636757386),
             (1.465963193291332, 4.353452875768793, 2.756146910965783)),
            ((0.2212126807737549, 0.23819173105978023, 0.270132144077559),
             (0.2930830006403443, 1.046459075131922, 6.757077914123557)),
        )
        with pytest.raises(MaxTermsExceeded, match="term 262 left the double range"):
            hyper_series(h, -12.898199323238837)

    def test_overflowed_term_mass_raises_typed(self):
        # 1F1(1; 2; x) at x = -717..-720: every term stays finite but their
        # absolute sum overflows, so eps * sum|term| bounds nothing
        h = hp(((1, 1, 1),), ((2, 1, 1),))
        for x in (-717.0, -718.0, -719.0, -720.0):
            with pytest.raises(MaxTermsExceeded, match="left the double range") as exc_info:
                hyper_series(h, x)
            partial = exc_info.value.partial
            assert math.isnan(partial.value) and partial.abs_err == math.inf

    def test_one_signed_overflow_is_inf(self):
        # 1F1(1; 2; x) = (e^x - 1)/x overflows at x = 800 with its terms
        with pytest.warns(OverflowNote, match="series at x = 800.0 overflows"):
            got = hyper_series(hp(((1, 1, 1),), ((2, 1, 1),)), 800.0)
        assert got.value == math.inf

    def test_overflow_is_noted_on_every_series_route(self):
        # 0F0 = e^x, and the binomial series sums (1 - 0.9)^-1000 = 1e1000
        with pytest.warns(OverflowNote, match="series at x = 1000.0 overflows"):
            assert hyper_series(HyperParams((), ()), 1000.0).value == math.inf
        with pytest.warns(OverflowNote, match="series at x = 0.9 overflows"):
            assert pk_binomial(1e3, PkParams(1, 1), 0.9).value == math.inf

    def test_lower_pole_at_construction(self):
        with pytest.raises(LowerPoleError):
            hp(((1, 1, 1),), ((-2.0, 1.0, 1.0),))
        with pytest.raises(LowerPoleError):
            hp(((1, 1, 1),), ((0.0, 1.0, 2.0),))

    def test_against_mpmath(self):
        cases = [
            ((((1.4, 1.0, 2.0),)), (((2.6, 1.0, 1.3),)), 1.7),
            ((((0.9, 2.0, 1.0), (1.2, 0.5, 1.0))), (((3.0, 1.5, 2.0),)), 0.4),
        ]
        for upper, lower, x in cases:
            h = hp(upper, lower)
            want = oracles.mp_hyper(h.alphas, h.betas, h.scale * x)
            assert hyper_series(h, x).value == pytest.approx(want, rel=1e-12)

    def test_abs_err_covers_cancellation(self):
        # 1F1(1;2;x) = (e^x - 1)/x: at x = -40 the terms reach 3.7e14 against
        # a sum of 0.025, and the returned value has no correct digit
        h = hp(((1, 1, 1),), ((2, 1, 1),))
        for x in (-30.0, -40.0, -100.0):
            got = hyper_series(h, x)
            assert abs(got.value - oracles.mp_hyper((1.0,), (2.0,), x)) <= got.abs_err, x
        # log-uniform triples in [e^-2, e^2] for the entire shapes, x = -e^U,
        # U in [-3, 3]; a term budget spent on overflowed terms is a typed error
        rng = np.random.default_rng(51)
        shapes = ((0, 1), (1, 1), (1, 2), (2, 2), (2, 3))
        for i in range(400):
            r, q = shapes[i % len(shapes)]
            upper, lower = (
                tuple(tuple(float(v) for v in np.exp(rng.uniform(-2.0, 2.0, size=3))) for _ in range(m))
                for m in (r, q)
            )
            h = hp(upper, lower)
            x = -float(np.exp(rng.uniform(-3.0, 3.0)))
            try:
                got = hyper_series(h, x)
            except MaxTermsExceeded:
                continue
            want = oracles.mp_hyper(h.alphas, h.betas, h.scale * x)
            assert abs(got.value - want) <= got.abs_err, (upper, lower, x)


class TestReduction:
    def test_unit_scales_are_identity(self):
        h = hp(((1.5, 1, 1),), ((2.5, 1, 1),))
        assert h.alphas == (1.5,)
        assert h.betas == (2.5,)
        assert h.scale == 1.0

    def test_ratio_example(self):
        h = hp(((2, 3, 1),), ((2, 1, 2),))
        assert h.alphas == (2.0,)
        assert h.betas == (1.0,)
        assert h.scale == pytest.approx(3.0)

    def test_round_trip_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r, q = rng.choice([(1, 1), (2, 1), (1, 2), (2, 2)])
            upper = tuple(
                (float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.7, 2.0)), float(rng.uniform(0.7, 2.0)))
                for _ in range(r)
            )
            lower = tuple(
                (float(rng.uniform(0.6, 3.0)), float(rng.uniform(0.7, 2.0)), float(rng.uniform(0.7, 2.0)))
                for _ in range(q)
            )
            h = hp(upper, lower)
            cls = classify(h)
            span = cls.radius / 2.0 if cls.radius else 0.5 / max(1.0, h.scale)
            x = float(rng.uniform(-span, span))
            classical = hp(
                tuple((a, 1.0, 1.0) for a in h.alphas),
                tuple((b, 1.0, 1.0) for b in h.betas),
            )
            lhs = hyper_series(h, x).value
            rhs = hyper_series(classical, h.scale * x).value
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_radius_sharpness_empirics(self):
        # for r = q+1 the term ratio settles at |A x|; past the radius the
        # series is rejected, inside it the observed ratios stay below 1
        h = hp(((1.3, 2.0, 1.0), (0.8, 1.5, 1.0)), ((2.2, 1.2, 1.0),))
        rho = classify(h).radius
        a_scale = h.scale
        x = 0.8 * rho
        coeffs = [1.0]
        alphas, betas = h.alphas, h.betas
        for n in range(200):
            num = a_scale * x
            for alpha in alphas:
                num *= alpha + n
            den = n + 1.0
            for beta in betas:
                den *= beta + n
            coeffs.append(coeffs[-1] * num / den)
        tail_ratio = abs(coeffs[-1] / coeffs[-2])
        assert tail_ratio == pytest.approx(abs(a_scale * x), rel=1e-2)
        with pytest.raises(DivergentInput):
            hyper_series(h, 1.01 * rho)


class TestOde:
    def test_coefficient_residual_tiny(self):
        h = hp(((1, 1, 1), (1, 1, 1)), ((2, 1, 1),))
        assert ode_coefficient_residual(h) <= 1e-15

    def test_coefficient_residual_scaled(self):
        h = hp(((1.4, 2.0, 0.7),), ((2.6, 1.1, 1.9),))
        assert ode_coefficient_residual(h) <= 1e-13


class TestBinomial:
    def test_unit_ratio_collapses_to_geometric(self):
        got = pk_binomial(1.0, PkParams(1, 1), 0.5)
        assert got.value == pytest.approx(2.0, rel=1e-13)

    def test_at_zero(self):
        assert pk_binomial(3.7, PkParams(2, 0.5), 0.0).value == 1.0

    def test_squared_pole_case(self):
        got = pk_binomial(2.0, PkParams(2, 1), 0.25)
        assert got.value == pytest.approx(4.0, rel=1e-13)

    def test_radius_rejection(self):
        with pytest.raises(DivergentInput):
            pk_binomial(1.0, PkParams(2, 1), 0.5)

    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.0, max_value=0.9),
    )
    def test_closed_form_property(self, a, p, k, frac):
        x = frac / p
        got = pk_binomial(a, PkParams(p, k), x)
        want = (1.0 - x * p) ** (-a / k)
        assert got.value == pytest.approx(want, rel=1e-11)

    def test_matches_single_upper_series(self):
        for (a, p, k, x) in ((1.0, 1.0, 1.0, 0.5), (2.5, 2.0, 0.5, 0.3), (0.3, 0.5, 3.0, 1.2)):
            got = pk_binomial(a, PkParams(p, k), x)
            assert got == hyper_series(hp(((a, p, k),), ()), x)

    def test_abs_err_covers_wide_draws(self):
        # a = +-e^U, U in [log 0.01, log 20], log-uniform p, k in [e^-2, e^2] and
        # xp uniform in [-0.95, 0.95], plus the alternating xp = -0.5 and -0.9;
        # the truth (1 - xp)^(-a/k) is taken at the exact a/k
        rng = np.random.default_rng(41)
        for i in range(1200):
            a = float(rng.choice((-1.0, 1.0)) * np.exp(rng.uniform(math.log(0.01), math.log(20.0))))
            p, k = (float(v) for v in np.exp(rng.uniform(-2.0, 2.0, size=2)))
            xp = (-0.5, -0.9, float(rng.uniform(-0.95, 0.95)))[i % 3]
            x = xp / p
            got = pk_binomial(a, PkParams(p, k), x)
            want = (1 - mp.mpf(x) * p) ** (-mp.mpf(a) / k)
            assert abs(got.value - want) <= got.abs_err, (a, p, k, x)

    @pytest.mark.parametrize(
        "a, p, k, xp",
        [
            # a/k = 60.7: term n carries the rounding of its n ratios (2.4e-14 relative)
            (8.23672793410275, 0.3710979186359553, 0.13568032039431893, 0.8828633174285059),
            # a/k = 0.0067 next to the radius: the ratios rise towards xp
            (0.027541950354632635, 0.33782096156667196, 4.120426538957336, 0.9957806540779792),
        ],
    )
    def test_abs_err_covers_slow_series(self, a, p, k, xp):
        got = pk_binomial(a, PkParams(p, k), xp / p)
        want = (1 - mp.mpf(xp / p) * p) ** (-mp.mpf(a) / k)
        assert abs(got.value - want) <= got.abs_err


class TestConfluentIntegral:
    def test_exponential_case(self):
        got = confluent_integral(hp(((1, 1, 1),), ((2, 1, 1),)), 1.0)
        assert got.value == pytest.approx(E_MINUS_ONE, rel=1e-10)
        assert E_MINUS_ONE == pytest.approx(math.e - 1.0, abs=1e-15)

    def test_at_zero_normalizes(self):
        got = confluent_integral(hp(((1, 1, 1),), ((2, 1, 1),)), 0.0)
        assert got.value == pytest.approx(1.0, rel=1e-12)

    def test_scaled_parameters(self):
        # (a=2, k=2; b=4, s=2) reduces to the classical (1; 2) case
        got = confluent_integral(hp(((2, 1, 2),), ((4, 1, 2),)), 1.0)
        assert got.value == pytest.approx(E_MINUS_ONE, rel=1e-10)

    def test_half_ratio_against_series_and_mpmath(self):
        h = hp(((1, 1, 2),), ((4, 1, 2),))
        got = confluent_integral(h, 1.0).value
        assert got == pytest.approx(hyper_series(h, 1.0).value, rel=1e-10)
        assert got == pytest.approx(oracles.mp_hyper([0.5], [2.0], 1.0), rel=1e-10)

    def test_matches_series_on_grid(self):
        cases = [(0.5, 2.0, 1.0), (1.0, 3.0, -1.0), (2.5, 6.0, 0.3), (0.7, 1.5, 2.0)]
        for a, b, x in cases:
            h = hp(((a, 1, 1),), ((b, 1, 1),))
            got = confluent_integral(h, x).value
            want = hyper_series(h, x).value
            assert got == pytest.approx(want, rel=1e-8), (a, b, x)

    def test_early_levels_past_double_range(self):
        # early level differences push the error extrapolation past the double range
        cases = [
            ((0.16671846104278437, 2.6103172809563544, 0.2626827992124852),
             (11.032209744060609, 1.6258324966148108, 1.4804743102560347), 10.918130021870239),
            ((1.7163786223128792, 2.233200014260028, 0.49378277755075634),
             (1.428721014842047, 0.4996020402644211, 0.15553953988119598), 3.9778944517826353),
        ]
        for (a, p, k), (b, t1, s), x in cases:
            try:
                got = confluent_integral(hp(((a, p, k),), ((b, t1, s),)), x)
            except NoConvergence:
                continue
            a, p, k, b, t1, s, x = (mp.mpf(v) for v in (a, p, k, b, t1, s, x))
            want = mp.hyp1f1(a / k, b / s, p / t1 * x)
            assert abs(got.value - want) <= got.abs_err, (a, b, x)

    @pytest.mark.parametrize("a, b, x", [(1000, 2000, 1.0), (500, 1000, 1.0), (400, 1000, -5.0)])
    def test_prefactor_past_double_range(self, a, b, x):
        # Gamma(b) / (Gamma(a) Gamma(b - a)) leaves the double range where the bare
        # Beta kernel underflows: only the normalised density keeps the value
        got = confluent_integral(hp(((a, 1, 1),), ((b, 1, 1),)), x)
        want = mp.hyp1f1(a, b, x)
        assert abs(got.value - want) <= got.abs_err
        assert got.value == pytest.approx(float(want), rel=1e-11)

    @pytest.mark.parametrize("upper, lower, x", [
        ((0.3809491656331516, 0.22693292257810788, 1.2364649653233362),
         (1.6978093889746575, 1.1136691517076638, 5.510619982169081), -51.34478787195283),
        ((0.13024433365316898, 3.9964462011763042, 3.137110920474791),
         (0.013660084767969033, 3.731278023977431, 0.32899930126145566), -11.839956205378536),
        ((0.9523904374491177, 3.169348636159581, 6.212461248833864),
         (0.8096355809964858, 5.597577498933632, 5.281260998458475), -30.694719535184834),
    ])
    def test_small_lambda_claims_its_rounding(self, upper, lower, x):
        # lam = b/s - a/k near 2e-6 is a difference of two rounded quotients, so it is rounded absolutely;
        # a claim that counted only its relative rounding was 2.3 to 7 times short
        got = confluent_integral(hp((upper,), (lower,)), x)
        (a, p, k), (b, t1, s) = upper, lower
        with mp.workdps(40):
            want = mp.hyp1f1(mp.mpf(a) / k, mp.mpf(b) / s, mp.mpf(p) / t1 * x)
        assert abs(got.value - want) <= got.abs_err

    def test_shape_restriction(self):
        with pytest.raises(UnsupportedShape):
            confluent_integral(hp(((1, 1, 1), (1, 1, 1)), ((2, 1, 1),)), 0.5)

    def test_ordering_restriction(self):
        with pytest.raises(DomainError):
            confluent_integral(hp(((3, 1, 1),), ((2, 1, 1),)), 0.5)
