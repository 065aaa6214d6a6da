"""Classical kernel: log-gamma with sign, digamma, polygamma, pole lattice."""

import ast
import math
import warnings
from pathlib import Path

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
    psi,
)
from pkspecial.core import (
    _EPS,
    _digamma_array,
    _gamma_product,
    _positive_real,
    _real,
    GammaEval,
    Method,
    best_central_diff,
    central_diff,
    gamma_sign,
)
from pkspecial.betapsi import BetaArgs, beta_closed

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

    def test_past_the_lgamma_range_is_a_domain_error(self):
        # math.lgamma overflows above about 2.6e305
        assert math.isfinite(ln_gamma_classical(2.5e305).ln_value)
        for z in (3e305, 1.7e308):
            with pytest.raises(DomainError):
                ln_gamma_classical(z)

    def test_pole_rejection(self):
        for z in (0.0, -0.0, -1.0, -7.0):
            with pytest.raises(PoleError, match=rf"^pole at index {round(-z)}$"):
                ln_gamma_classical(z)

    def test_next_to_a_pole_is_a_value(self):
        # only an exact lattice hit is refused: 1e-12 from -3, and 1e-12 or a subnormal from 0, are evaluated
        for z in (-3.0 + 1e-12, -3.0 - 1e-12, 1e-12, -1e-12, 5e-324, -5e-324):
            got = ln_gamma_classical(z)
            assert abs(got.ln_value - oracles.mp_ln_gamma(z)) <= got.abs_err_ln, z
            assert got.sign == (1 if oracles.mp_pk_gamma(1, 1, z) > 0 else -1), z

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


def _ge(ln, sign=1, err=0.0):
    return GammaEval(ln, sign, err, Method.CLOSED)


class TestLinearClaim:
    """GammaEval.abs_err: the one rule from a log's error to a linear error."""

    @pytest.mark.parametrize("ln, sign, err", [(1.0, -1, 1e-10), (-700.0, 1, 3e-12), (700.0, 1, 0.5), (0.0, 1, 0.0)])
    def test_normal_value_is_the_expm1_figure(self, ln, sign, err):
        v = sign * math.exp(ln)
        assert _ge(ln, sign, err).abs_err == abs(v) * math.expm1(err) + math.ulp(v)

    @pytest.mark.parametrize("ln, err", [(-740.0, 1e-12), (-740.0, 3.0), (-800.0, 100.0), (-745.2, 0.4), (-720.0, 709.0)])
    def test_below_the_normal_range_it_bounds_every_value_on_the_bar(self, ln, err):
        import mpmath as mp

        g = _ge(ln, 1, err)
        for l in (ln - err, ln, ln + err):
            assert abs(mp.exp(l) - g.value) <= g.abs_err, l

    def test_bar_below_the_range_claims_one_subnormal_spacing(self):
        assert _ge(-3.44e6, 1, 9.65e4).abs_err == 5e-324
        # expm1 overflows, but the bar's top is inside the range
        assert _ge(-1000.0, -1, 1200.0).abs_err == math.exp(200.0) + math.ulp(0.0)

    @pytest.mark.parametrize("ln, err", [(-11879.0, 96526.0), (709.0, 2.0), (800.0, 1e-10), (1.0, math.inf)])
    def test_bar_crossing_the_top_is_unbounded(self, ln, err):
        assert _ge(ln, 1, err).abs_err == math.inf

    def test_never_warns(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ge(800.0, -1, 1e-10).abs_err == math.inf

    def test_beta_reproducers(self):
        # both claimed 0 before: y/k >> x/k lost every digit, and a subnormal value
        assert tuple(beta_closed(BetaArgs(1e20, 1e40, PkParams(1, 1)))[:2]) == (0.0, 5e-324)
        got = beta_closed(BetaArgs(14.232188905406645, 5.788960493111005, PkParams(1, 0.016513094312804434)))
        import mpmath as mp

        k = mp.mpf(0.016513094312804434)  # at the oracles' 40 digits
        want = mp.beta(mp.mpf(14.232188905406645) / k, mp.mpf(5.788960493111005) / k) / k
        assert 0.0 < got.value < 2.3e-308 and abs(got.value - want) <= got.abs_err


def _written_out(lead, upper, lower):
    """lead + sum ln upper - sum ln lower, signs and claim, term by term in that order."""
    ln, sign, err = lead, 1, 0.0
    for g in upper:
        ln, sign, err = ln + g.ln_value, sign * g.sign, err + (g.abs_err_ln + _EPS * abs(g.ln_value))
    for g in lower:
        ln, sign, err = ln - g.ln_value, sign * g.sign, err + (g.abs_err_ln + _EPS * abs(g.ln_value))
    return ln, sign, err


class TestGammaProduct:
    """core._gamma_product adds the terms in each call site's order, so its sums are bit for bit."""

    @pytest.mark.parametrize("a, b, k", [(0.3, 2.5, 0.7), (7.1, 12.9, 1.3), (1.0, 1.0, 1e-3)])
    def test_beta_and_confluent_prefactor(self, a, b, k):
        ga, gb, gab = ln_gamma_classical(a), ln_gamma_classical(b), ln_gamma_classical(a + b)
        lnk = math.log(k)
        g = _gamma_product(0.0, (ga, gb), (gab, _ge(lnk)))
        assert g.ln_value == ga.ln_value + gb.ln_value - gab.ln_value - lnk
        terms = (ga, gb, gab)
        assert g.abs_err_ln == sum(t.abs_err_ln + _EPS * abs(t.ln_value) for t in terms) + _EPS * abs(lnk)
        # the confluent prefactor Gamma(b) / (Gamma(a) Gamma(b - a)), b > a
        gl = ln_gamma_classical(b - a) if b > a else ln_gamma_classical(a - b + 0.5)
        g = _gamma_product(0.0, (gb,), (ga, gl))
        assert g.ln_value == gb.ln_value - ga.ln_value - gl.ln_value
        assert g.abs_err_ln == sum(t.abs_err_ln + _EPS * abs(t.ln_value) for t in (gb, ga, gl))

    @pytest.mark.parametrize("p, k, x, n", [(1.5, 0.75, -2.3, 7), (0.2, 3.0, 41.0, 99), (9.0, 0.1, 0.05, 1)])
    def test_gamma_ratio_and_identities(self, p, k, x, n):
        z = x / k
        num, den = ln_gamma_classical(z + n), ln_gamma_classical(z)
        g = _gamma_product(n * math.log(p), (num,), (den,))
        assert (g.ln_value, g.sign) == (n * math.log(p) + num.ln_value - den.ln_value, num.sign * den.sign)
        params = PkParams(p, k)
        m = 3
        gs = [gamma_closed(params, x + k * r / m) for r in range(m)]
        assert _gamma_product(0.0, gs)[:3] == _written_out(0.0, gs, ())  # 2.32's left side

    def test_sign_and_claim_of_mixed_terms(self):
        terms = (_ge(1.5, -1, 1e-15), _ge(-700.25, 1, 3e-13), _ge(3e5, -1, 0.0))
        assert _gamma_product(0.125, terms[:2], terms[2:])[:3] == _written_out(0.125, terms[:2], terms[2:])
        assert _gamma_product(0.125, terms[:2], terms[2:]).sign == 1


class TestPoleLattice:
    def test_exact_hits_name_their_index(self):
        for route in (gamma_closed, psi):
            with pytest.raises(PoleError, match=r"^pole at index 2$"):
                route(PkParams(1.0, 2.0), -4.0)
            with pytest.raises(PoleError, match=r"^pole at index 0$"):
                route(PkParams(1.0, 1.0), 0.0)
            route(PkParams(1.0, 2.0), -3.0)

    def test_no_band_around_the_lattice(self):
        # 1e-10 k from -2k and from 0: evaluated, within their claims
        k = 2.0
        for x in (-2.0 * k + 1e-10 * k, 1e-10 * k, -1e-10 * k):
            got = gamma_closed(PkParams(1.5, k), x)
            assert abs(got.ln_value - oracles.mp_ln_abs_pk_gamma(1.5, k, x)) <= got.abs_err_ln, x
            got = psi(PkParams(1.5, k), x)
            assert abs(got.value - oracles.mp_pk_psi(1.5, k, x)) <= got.abs_err, x

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int 1e400"),
                                   pytest.param(-(10**400), id="int -1e400")])
    def test_non_finite_is_a_domain_error(self, x):
        with pytest.raises(DomainError):
            gamma_closed(PkParams(1.0, 2.0), x)
        with pytest.raises(DomainError):
            psi(PkParams(1.0, 2.0), x)


class _FloatSub(float):
    """A float subclass: _real and _positive_real send it down the general path, through _finite."""


def _outcome(fn, v):
    """(type, repr) of fn(v), with every float in it a plain float, or (type, message) of its typed error."""
    try:
        out = fn(v)
    except (DomainError, PoleError) as exc:
        return type(exc), str(exc)
    assert type(out) is float or type(out.ln_value) is float
    return type(out), repr(out)


# the entry points that convert a float argument once, each on the fast path for a plain float
CONVERTERS = {
    "_real": lambda v: _real("z", v),
    "_positive_real": lambda v: _positive_real("z", v),
    "ln_gamma_classical": ln_gamma_classical,
    "digamma_classical": digamma_classical,
}
BOUNDARY_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.5, 2.5, -2.5, -3.0]


class TestFloatFastPath:
    @pytest.mark.parametrize("fn", CONVERTERS.values(), ids=CONVERTERS)
    @pytest.mark.parametrize("v", BOUNDARY_FLOATS, ids=repr)
    def test_plain_float_matches_the_general_path(self, fn, v):
        assert _outcome(fn, v) == _outcome(fn, _FloatSub(v))

    @pytest.mark.parametrize("fn", CONVERTERS.values(), ids=CONVERTERS)
    @pytest.mark.parametrize("v, plain", [
        (np.float64(2.5), 2.5), (np.float64(-2.5), -2.5), (np.float64(-0.0), -0.0), (np.float64(math.inf), math.inf),
        (True, None), pytest.param(10**400, None, id="int 1e400"),
    ], ids=repr)
    def test_other_reals_take_the_general_path(self, fn, v, plain):
        # a numpy scalar gives the plain float's value or error type; a bool or an int past the range is no real
        got, want = _outcome(fn, v), (DomainError, None) if plain is None else _outcome(fn, plain)
        assert got[0] is want[0]
        if not issubclass(want[0], ValueError):  # a value: the same bits
            assert got == want


class TestDomainTypes:
    def test_params_validation(self):
        with pytest.raises(DomainError):
            PkParams(0.0, 1.0)
        with pytest.raises(DomainError):
            PkParams(1.0, -2.0)
        with pytest.raises(DomainError):
            PkParams(math.inf, 1.0)

    def test_central_diff_order(self):
        assert central_diff(lambda t: t**3, 2.0, 1e-3, order=2) == pytest.approx(12.0)
        with pytest.raises(DomainError, match="order must be 1 or 2, got 3"):
            central_diff(lambda t: t**3, 2.0, 1e-3, order=3)

    def test_eval_real_invariants(self):
        with pytest.raises(ValueError):
            EvalReal(value=1.0, abs_err=-1.0)

    @settings(max_examples=50)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_recurrence_property(self, z):
        lhs = ln_gamma_classical(z + 1.0).ln_value
        rhs = math.log(z) + ln_gamma_classical(z).ln_value
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_core_is_the_one_warning_site():
    # every OverflowNote goes through core._note_overflow: no other module imports warnings or calls warn
    sites = set()
    for path in (Path(__file__).parent.parent / "src" / "pkspecial").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names):
                sites.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
                sites.add(path.stem)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "warn":
                sites.add(path.stem)
    assert sites == {"core"}
