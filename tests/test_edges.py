"""Edge-domain draw classes, each named after the defect it guards.

A derived quantity leaves the double range: every public route forms
quotients (x/k, a/k, b/s, p/s_new, a_scale/p), error claims and values
that can underflow or overflow where its own arguments are finite.  Such a
call returns a value or raises one of the library's typed errors, never a
raw ValueError, OverflowError or ZeroDivisionError.

Within 1e-7 of a pole, and a subnormal quotient x/k: the kernels refuse
only an exact lattice hit, so these points are evaluated, and each value
is checked against mpmath (see the value classes below).
"""

import math
import random
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pkspecial import (
    BetaArgs,
    DomainError,
    EvalReal,
    GammaEval,
    HyperParams,
    Method,
    OverflowNote,
    PkParams,
    PochSpec,
    beta_closed,
    beta_integral,
    classify,
    confluent_integral,
    digamma_classical,
    gamma_closed,
    gamma_euler_product,
    gamma_integral,
    gamma_limit,
    gamma_limit_product_recip,
    gamma_weierstrass_recip,
    hyper_series,
    k_zeta,
    ln_gamma_classical,
    ln_gamma_via_psi,
    ode_coefficient_residual,
    pk_binomial,
    poch_direct,
    poch_dk,
    poch_dp,
    poch_gamma_ratio,
    poch_generalized,
    poch_ln,
    poch_reduce,
    poch_rescale,
    poch_symmetric,
    polygamma,
    psi,
    psi_series,
)
from pkspecial import quadrature
from pkspecial.cli import main

# log10 of a magnitude: from the subnormal 1e-320 to 1e308
EXPONENT = st.floats(min_value=-320.0, max_value=308.0)
POSITIVE = EXPONENT.map(lambda e: 10.0**e)
SIGNED = st.tuples(EXPONENT, st.booleans()).map(lambda d: -(10.0 ** d[0]) if d[1] else 10.0 ** d[0])


def _routes(d):
    """(name, call) for every public route at the draw d."""
    pk, x, y, n = PkParams(d["p"], d["k"]), d["x"], d["y"], d["n"]
    ax = abs(x)
    spec = PochSpec(x, n, pk)

    def hp():  # HyperParams may reject the draw itself
        return HyperParams((d["upper"],), (d["lower"],))

    yield "ln_gamma_classical", lambda: ln_gamma_classical(x)
    yield "digamma_classical", lambda: digamma_classical(x)
    yield "gamma_closed", lambda: gamma_closed(pk, x)
    yield "gamma_limit", lambda: gamma_limit(pk, ax, 1000)
    yield "gamma_integral", lambda: gamma_integral(pk, ax, y)
    yield "gamma_euler_product", lambda: gamma_euler_product(pk, ax)
    yield "gamma_weierstrass_recip", lambda: gamma_weierstrass_recip(pk, x)
    yield "gamma_limit_product_recip", lambda: gamma_limit_product_recip(pk, x)
    yield "psi", lambda: psi(pk, x)
    yield "psi_series 3.9", lambda: psi_series(pk, ax, "3.9")
    yield "psi_series 3.10", lambda: psi_series(pk, ax, "3.10")
    yield "ln_gamma_via_psi", lambda: ln_gamma_via_psi(pk, ax)
    yield "polygamma", lambda: polygamma(pk, ax, d["r"])
    yield "k_zeta", lambda: k_zeta(ax, d["r"], d["k"])
    yield "beta_closed", lambda: beta_closed(BetaArgs(ax, y, pk))
    for form in ("unit", "symmetric", "semiaxis"):
        yield f"beta_integral {form}", lambda form=form: beta_integral(BetaArgs(ax, y, pk), form)
    for route in (poch_direct, poch_ln, poch_symmetric, poch_reduce, poch_gamma_ratio, poch_dp, poch_dk):
        yield route.__name__, lambda route=route: route(spec)
    yield "poch_generalized", lambda: poch_generalized(spec, d["q"])
    for mode in ("2.8", "2.9", "2.10"):
        yield f"poch_rescale {mode}", lambda mode=mode: poch_rescale(spec, y, mode)
    yield "hyper_series", lambda: hyper_series(hp(), x)
    yield "confluent_integral", lambda: confluent_integral(hp(), x)
    yield "classify", lambda: classify(hp())
    yield "ode_coefficient_residual", lambda: ode_coefficient_residual(hp())
    yield "pk_binomial", lambda: pk_binomial(d["upper"][0], pk, x)


DRAWS = st.fixed_dictionaries({
    "p": POSITIVE, "k": POSITIVE, "x": SIGNED, "y": POSITIVE,
    "n": st.integers(0, 12), "r": st.integers(2, 8), "q": st.integers(1, 3),
    "upper": st.tuples(SIGNED, POSITIVE, POSITIVE), "lower": st.tuples(SIGNED, POSITIVE, POSITIVE),
})


class TestDerivedQuantityLeavesTheDoubleRange:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(DRAWS)
    def test_every_route_returns_or_raises_a_typed_error(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OverflowNote)
            for name, call in _routes(d):
                try:
                    out = call()
                except Exception as exc:
                    assert type(exc).__module__.startswith("pkspecial."), (name, d, exc)
                else:
                    assert isinstance(out, (float, tuple)), (name, d, out)


class TestDerivedQuantityReproducers:
    def test_hyper_ratio_past_the_range_is_a_domain_error(self, capsys):
        # a/k = -1e308 / 1e-10 is -inf: round(-inf) used to escape as OverflowError
        with pytest.raises(DomainError, match=r"^a/k must be finite, got -inf$"):
            HyperParams(((-1e308, 1.0, 1e-10),), ((2.0, 1.0, 1.0),))
        with pytest.raises(DomainError, match=r"^b/s must be finite, got inf$"):
            HyperParams((), ((1e308, 1.0, 1e-10),))
        assert main(["eval", "hyper", "--a=-1e308,1,1e-10", "--b", "2,1,1", "--x", "0.1"]) == 2
        assert capsys.readouterr().err == "error: a/k must be finite, got -inf\n"

    def test_psi_series_claim_past_the_range_is_a_domain_error(self, capsys):
        # psi(1e-308) is about -1e308, and the eps-weighted sum of its parts overflows
        assert main(["eval", "psi", "--method", "3.9", "--x", "1e-308"]) == 2
        assert capsys.readouterr().err == "error: abs_err must be finite and >= 0, got inf\n"

    def test_claims_past_the_range_are_domain_errors(self):
        # the subnormal floor of zeta_k carries 1/((r-1) k) = inf
        with pytest.raises(DomainError, match="abs_err must be finite"):
            k_zeta(1.0139409165069512e251, 5, 1.0286551e-316)
        # b/s = 1e117: the prefactor's claim overflows
        with pytest.raises(DomainError, match="abs_err must be finite"):
            confluent_integral(HyperParams(((1.0, 1.0, 1.0),), ((1e117, 1.0, 1.0),)), 0.5)
        with pytest.raises(DomainError):
            EvalReal(1.0, math.inf)
        assert EvalReal(math.inf, math.inf).value == math.inf

    def test_gamma_value_notes_its_overflow_at_the_callers_line(self):
        with pytest.warns(OverflowNote, match=r"^exp\(800.0\) overflows") as caught:
            assert GammaEval(800.0, -1, 0.0, Method.CLOSED).value == -math.inf
        assert caught[0].filename == __file__

    def test_polygamma_notes_its_own_overflow_once_at_the_callers_line(self):
        # zeta_k(1, 3) at k/x = 1e-310 overflows as well; only polygamma's note is issued
        with pytest.warns(OverflowNote) as caught:
            got = polygamma(PkParams(1.0, 1e-310), 1.0, 3)
        assert got.value == -math.inf
        assert [str(w.message) for w in caught] == ["polygamma(1.0, 3) overflows double precision"]
        assert caught[0].filename == __file__
        with pytest.warns(OverflowNote, match=r"^zeta_k\(1.0, 3\) overflows") as caught:
            k_zeta(1.0, 3, 1e-310)
        assert caught[0].filename == __file__

    @pytest.mark.parametrize("call", [
        lambda: poch_dp(PochSpec(100.0, 200, PkParams(3.0, 0.5))),
        lambda: poch_dk(PochSpec(100.0, 200, PkParams(3.0, 0.5))),
        lambda: poch_rescale(PochSpec(100.0, 200, PkParams(3.0, 0.5)), 1.0, "2.8"),
        lambda: pk_binomial(1e3, PkParams(1, 1), 0.9),
    ], ids=["poch_dp", "poch_dk", "poch_rescale", "pk_binomial"])
    def test_route_through_a_route_notes_at_the_callers_line(self, call):
        # each reaches its note through another route (poch_direct, hyper_series)
        with pytest.warns(OverflowNote) as caught:
            call()
        assert [w.filename for w in caught] == [__file__]

    @pytest.mark.parametrize("n", [4, 5, 9])
    def test_rescale_where_p_over_s_underflows(self, n):
        # p/s_new underflows to 0 and the symbol overflows: the product is 0 * inf; in logs it is
        # n (ln p - ln s_new) + ln|symbol|, far below the double range
        p, k, x, s_new = 3.799169499701529e-164, 1.5253662656186848e139, 2.2055497192998566e-206, 5.811807230738492e224
        spec = PochSpec(x, n, PkParams(p, k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 0.0 is the correct underflow: no note for the overflowed symbol
            assert poch_rescale(spec, s_new, "2.9") == 0.0

    def test_quotients_past_the_range_name_themselves(self):
        pk = PkParams(1.0, 1e-10)
        with pytest.raises(DomainError, match=r"^x/k must be finite, got inf$"):
            gamma_weierstrass_recip(pk, 1e300)
        with pytest.raises(DomainError, match=r"^x/k must be a positive finite real, got inf$"):
            gamma_limit(pk, 1e300, 1000)
        with pytest.raises(DomainError, match=r"^x/k must be a positive finite real, got 0.0$"):
            gamma_limit(PkParams(1.0, 1e10), 1e-320, 1000)
        with pytest.raises(DomainError, match=r"^a_scale/p must be a positive finite real, got 0.0$"):
            gamma_integral(PkParams(1e300, 1.0), 1.0, 1e-30)
        with pytest.raises(DomainError, match=r"^x/k must be finite, got inf$"):
            poch_reduce(PochSpec(1e300, 2, pk))
        # the first factor x p/k is -inf, and -inf + 2 p is nan: poch_direct returned nan
        with pytest.raises(DomainError, match=r"^x p/k must be finite, got -inf$"):
            poch_direct(PochSpec(-1.7e308, 3, PkParams(1.7e308, 0.5)))
        with pytest.raises(DomainError, match=r"^x/k must be finite, got inf$"):
            poch_gamma_ratio(PochSpec(1e300, 2, PkParams(1.0, 1e-10)))
        # the rescalings name the quotient they form, not the caller's finite x or x p/k
        with pytest.raises(DomainError, match=r"^x s_new/k must be finite, got inf$"):
            poch_rescale(PochSpec(3.17e135, 3, PkParams(3.56e-120, 636.9)), 1e200, "2.10")
        for mode in ("2.8", "2.9"):
            with pytest.raises(DomainError, match=r"^k x/s_new must be finite, got inf$"):
                poch_rescale(PochSpec(1e300, 2, PkParams(1.0, 1e10)), 1e-10, mode)

    def test_error_estimate_at_the_top_of_the_range(self):
        # a level difference of 2^512 extrapolates to 10^log10(max double), which
        # 10.0 ** est rounds past the range: no estimate, not an OverflowError
        assert 2.0 * math.log10(2.0**512) == math.log10(sys.float_info.max)
        assert quadrature._bbg_error([0.0, 0.0, 2.0**512], 1.0) == math.inf
        # there the levels of ln G differ by one ulp, 2^512: ln G = 1.0130220764134784e170
        got = ln_gamma_via_psi(PkParams(4.2780507731404745e177, 5.001658650501284e-153), 639110484237983.9)
        assert abs(got.value - 1.0130220764134784e170) <= got.abs_err



# ---------------------------------------------------------------------------
# Value classes.  Each draw is checked in mpmath at the doubles the route is
# passed, x/k taken exactly.  A draw fails if its value lies outside its
# claim (a Gamma result judged on its log, with the sign matching), if it
# raises an exception from outside the library, or if it returns a
# non-finite value where the truth fits in a double; a typed refusal passes.
# digamma_classical returns a bare float, held to 8 eps (1 + |psi|) as in
# test_core.py.

DOUBLE_MAX = 1.7976931348623157e308


def _ln_gamma_truth(z):
    """(ln|Gamma(z)|, its sign) for an mpmath z, or None on the pole lattice."""
    import mpmath as mp

    if z <= 0 and z == mp.floor(z):
        return None
    g = mp.gamma(z)
    return mp.log(abs(g)), (1 if g > 0 else -1)


def _value_routes(p, k, x, z, bx, y):
    """(name, call, truth) per route at one draw; truth() is formed only for a returned value.

    z is the kernels' own argument, x the quotient routes', and (bx, y) Beta's;
    a Gamma truth is (ln|value|, sign), or None on the pole lattice.
    """
    import mpmath as mp

    pk, lnp, lnk, zq = PkParams(p, k), mp.log(p), mp.log(k), mp.mpf(x) / mp.mpf(k)

    def ln_g():
        t = _ln_gamma_truth(zq)
        return t and (zq * lnp + t[0] - lnk, t[1])

    def recip():
        t = ln_g()
        return t and (-t[0], t[1])

    yield "ln_gamma_classical", lambda: ln_gamma_classical(z), lambda: _ln_gamma_truth(mp.mpf(z))
    yield "digamma_classical", lambda: digamma_classical(z), lambda: mp.digamma(z)
    yield "gamma_closed", lambda: gamma_closed(pk, x), ln_g
    yield "psi", lambda: psi(pk, x), lambda: lnp / k + mp.digamma(zq) / k
    yield "gamma_weierstrass_recip", lambda: gamma_weierstrass_recip(pk, x), recip
    yield "gamma_limit_product_recip", lambda: gamma_limit_product_recip(pk, x), recip
    yield "beta_closed", lambda: beta_closed(BetaArgs(bx, y, pk)), lambda: mp.beta(bx / mp.mpf(k), y / mp.mpf(k)) / k


def _miss(result, truth):
    """Why result breaks the contract against truth, or None where it keeps it."""
    import mpmath as mp

    if isinstance(result, GammaEval):
        if truth is None:  # on the pole lattice only a zero reciprocal is right
            return None if result.ln_value == -math.inf else "not zero on the lattice"
        if not math.isfinite(result.ln_value):
            return "non-finite log"
        ln, sign = truth
        return None if result.sign == sign and abs(mp.mpf(result.ln_value) - ln) <= result.abs_err_ln else "outside"
    value, err = (result.value, result.abs_err) if isinstance(result, EvalReal) else (result, None)
    if not math.isfinite(value):
        return None if abs(truth) > DOUBLE_MAX and (value > 0) == (truth > 0) else "non-finite where the truth fits"
    if err is None:
        err = 8 * 2.0**-52 * (1.0 + abs(truth))
    return None if abs(mp.mpf(value) - truth) <= err else "outside its claim"


def _misses(draws):
    """Every (route, draw, reason) that breaks the contract over draws of (p, k, x, z, bx, y)."""
    import mpmath as mp

    misses = []
    with mp.workdps(60), warnings.catch_warnings():
        warnings.simplefilter("ignore", OverflowNote)  # a Beta past the range is inf, and noted
        for draw in draws:
            for name, call, truth in _value_routes(*draw):
                try:
                    out = call()
                except Exception as exc:
                    if not type(exc).__module__.startswith("pkspecial."):
                        misses.append((name, draw, f"raw {type(exc).__name__}: {exc}"))
                    continue
                miss = _miss(out, truth())
                if miss:
                    misses.append((name, draw, miss))
    return misses


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(lo, hi)


class TestWithinOneEMinus7OfAPole:
    # poles 0 to 20 at distances 1e-15 to 1e-7 on either side, in z itself and in x/k; Beta, with
    # its only pole at the origin, at x/k = that distance.  Only an exact hit may be refused here,
    # z -> 0+ included
    def test_values_within_their_claims(self):
        rng = random.Random("edges:near-pole")
        draws = []
        for _ in range(20):
            n, d, side = rng.randint(0, 20), _log_uniform(rng, -15, -7), rng.choice((-1.0, 1.0))
            p, k = _log_uniform(rng, -1, 1), _log_uniform(rng, -2, 2)
            z = -n + side * d
            draws.append((p, k, z * k, z, d * k, _log_uniform(rng, -3, 3) * k))
        assert _misses(draws) == []


class TestSubnormalQuotient:
    # |x/k| from 1e-330, where it underflows to 0 although x does not, to the bottom of the normal
    # range, either sign, with k from 1e16 to 1e300; the kernels get the quotient x/k itself, and
    # Beta y from 1e-320 to 1e300.  A subnormal x/k is rounded absolutely, not relatively
    def test_values_within_their_claims(self):
        rng = random.Random("edges:subnormal-quotient")
        draws = []
        for _ in range(20):
            ek = rng.uniform(16, 300)
            x = 10.0 ** (rng.uniform(-330, -307.7) + ek) * rng.choice((-1.0, 1.0))
            p, k = _log_uniform(rng, -2, 2), 10.0**ek
            draws.append((p, k, x, x / k, abs(x), _log_uniform(rng, -320, 300)))
        assert _misses(draws) == []


# ---------------------------------------------------------------------------
# Pochhammer products at the double range's edges.  Each draw puts the value
# p^n (x/k)_n near or past an end of the double range, or puts the route's
# power p^n, its ratio p/s_new, a partial product or the classical total
# (x/k)_n past one while the value stays inside.  The quotients a route forms from its arguments (x/k, the
# first factor x p/k, k x/s_new) stay normal doubles: a subnormal one is
# rounded absolutely, a separate edge.  Truth is the exact rational product
# of the doubles passed (mpmath's rf at 50 digits gives 1 for (1e300)_20).
# A value passes within 1e-15 (n+1) |truth|, or (n+1) 2^-1074 below the
# normal range; a signed inf only where |truth| > DOUBLE_MAX.


def _rising_log10(w, n):
    """log10 of the classical (10^w)_n, for w in the double range."""
    z = 10.0**w
    return sum(math.log10(z + j) for j in range(n))


def _z_for(target, n, lo=-300.0, hi=300.0):
    """A z = 10^w in [10^lo, 10^hi] with (z)_n near 10^target, or None."""
    if not _rising_log10(lo, n) <= target <= _rising_log10(hi, n):
        return None
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _rising_log10(mid, n) < target else (lo, mid)
    return 10.0**lo


def _edge_target(rng):
    """log10 of a value: below the normal range, near its top, or anywhere inside, a third of draws each."""
    return rng.choice((rng.uniform(-330.0, -300.0), rng.uniform(295.0, 315.0), rng.uniform(-300.0, 300.0)))


def _product_draws(rng, route, count):
    """count (call, (x, n, p, k)) pairs for one route: the call gives the value of the symbol P_p(x; n, k)."""
    draws = []
    while len(draws) < count:
        n, k, target = rng.randint(1, 25), _log_uniform(rng, -3, 3), _edge_target(rng)
        if route == "direct":  # the value itself near an end of the range, or an exact zero past an overflow
            if rng.random() < 0.3:
                m = rng.randint(2, 24)
                k = 2.0 ** rng.randint(-10, 10)
                draws.append((lambda s: poch_direct(s), (-m * k, m + rng.randint(1, 5), 10.0 ** rng.uniform(80, 300), k)))
                continue
            a = rng.uniform(-300.0, 300.0) / n
        elif route == "symmetric" and rng.random() < 0.5:  # p^n past the range; the classical total (z)_n inside it
            n = rng.randint(2, 30)
            a = rng.choice((-1.0, 1.0)) * rng.uniform(310.0, 640.0) / n
            target = min(max(target, a * n - 300.0), a * n + 300.0)
        elif route == "symmetric":  # p^n a normal double below 1; the classical total (z)_n past the range
            n = rng.randint(2, 30)
            a = -rng.uniform(10.0, 300.0) / n
            target = max(target, a * n + 310.0)
        else:  # p^n, or (p q)^(n q), past the range
            a = rng.choice((-1.0, 1.0)) * rng.uniform(310.0, 700.0) / n
        z = _z_for(target - a * n, n)
        if z is None or abs(a) > 300.0 or not 1e-300 < z * k < 1e300 or not -300.0 < math.log10(z) + a < 300.0:
            continue
        p = 10.0**a
        if route == "generalized":
            q = rng.randint(1, 3)
            if n % q:
                continue
            draws.append((lambda s, q=q: poch_generalized(PochSpec(s.x, s.n // q, s.params), q), (z * k, n, p, k)))
        else:
            draws.append(({"direct": poch_direct, "reduce": poch_reduce, "symmetric": poch_symmetric}[route], (z * k, n, p, k)))
    return draws


def _rescale_draws(rng, mode, count):
    """count (call, (x, n, p, step)) pairs: p/s_new past the range, the rescaled value p^n (x/step)_n near it."""
    draws = []
    while len(draws) < count:
        n, k, a, sigma = rng.randint(1, 20), _log_uniform(rng, -3, 3), rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)
        z = _z_for(_edge_target(rng) - a * n, n)
        if abs(a - sigma) < 310.0 or z is None:
            continue
        p, s_new = 10.0**a, 10.0**sigma
        # mode 2.10 gives P_p(x; n, k) from the symbol at step s_new; mode 2.9 gives P_p(x; n, s_new)
        step = k if mode == "2.10" else s_new
        # log10 of x, of x_new = k x / s_new (2.9) or x (2.10), and of the symbol's first factor x_new s_new / k
        lx = math.log10(z * step) if z * step else -400.0
        lx_new = lx + math.log10(k) - sigma if mode == "2.9" else lx
        if not all(-300.0 < e < 300.0 for e in (lx, lx_new, lx_new + sigma - math.log10(k))):
            continue
        x = z * step
        draws.append((lambda s, k=k, s_new=s_new: poch_rescale(PochSpec(s.x, s.n, PkParams(s.params.p, k)), s_new, mode), (x, n, p, step)))
    return draws


def _range_miss(got, x, n, p, k):
    """Why got breaks the pass rule against the exact P_p(x; n, k), or None."""
    from fractions import Fraction

    import oracles

    num, den = oracles.poch_exact_ratio(Fraction(x), n, Fraction(p), Fraction(k))
    if math.isinf(got):
        past = abs(num) > int(DOUBLE_MAX) * den
        return None if past and (got > 0) == (num > 0) else "inf where the truth fits"
    a, b = got.as_integer_ratio()
    gap = abs(a * den - num * b)  # |got - truth| b den
    rel_num, rel_den = (1e-15 * (n + 1)).as_integer_ratio()
    if gap * rel_den <= rel_num * abs(num) * b or gap * 2**1074 <= (n + 1) * b * den:
        return None
    return "outside 1e-15 (n+1) |truth|"


class TestPochhammerProductsAtTheRangeEdges:
    def test_values_within_the_stand_in(self):
        rng = random.Random("edges:pochhammer-range")
        draws = [d for route in ("direct", "reduce", "generalized", "symmetric") for d in _product_draws(rng, route, 20)]
        draws += _rescale_draws(rng, "2.9", 10) + _rescale_draws(rng, "2.10", 10)
        misses = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OverflowNote)
            for call, (x, n, p, k) in draws:
                try:
                    got = call(PochSpec(x, n, PkParams(p, k)))
                except Exception as exc:  # a refusal is a miss here: every value is representable or a signed inf
                    misses.append((x, n, p, k, f"{type(exc).__name__}: {exc}"))
                    continue
                miss = _range_miss(got, x, n, p, k)
                if miss:
                    misses.append((x, n, p, k, got, miss))
        assert misses == []

    def test_carried_pass_is_the_plain_loop_in_range(self):
        from pkspecial.pochhammer import _carried

        rng = random.Random("edges:pochhammer-carried")
        for _ in range(300):
            factors = [rng.choice((-1.0, 1.0)) * _log_uniform(rng, -3, 3) for _ in range(rng.randint(0, 40))]
            divisors = [_log_uniform(rng, -3, 3) for _ in range(rng.randint(0, 10))]
            plain = 1.0
            for f in factors:
                plain *= f
            for d in divisors:
                plain /= d
            assert _carried(factors, divisors).hex() == plain.hex(), (factors, divisors)
