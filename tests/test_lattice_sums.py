"""The lattice routes against mpmath: the Euler, Weierstrass and limit products and both psi series.

Each sums its first N = 32 + ceil(max(0, -z)) terms directly, z = x/k, and
adds the rest exactly through Stirling's series or the psi series (see
core._ln_gamma_step and core._digamma_step).  Over log-uniform z in
[e^-5, 1e5) each route's value lies within its claim and within 4 eps of
the scale that the rounding of x/k alone already costs; at negative z off
the lattice, down to 1e-7 from a pole, the two reciprocal routes stay within
their claims and within 32 eps of that scale.  The two tail helpers are
checked on their own at the arguments the routes give them, and so is the
limit route's sum of log(z + j), which takes its tail from _ln_gamma_step too.
"""

import math
import random

import mpmath as mp
import pytest

from pkspecial import PkParams, core, gamma_euler_product, gamma_weierstrass_recip, psi_series
from pkspecial import gamma as gamma_module
from pkspecial.gamma import gamma_limit_product_recip

EPS = 2.220446049250313e-16
RECIPROCAL = {"weierstrass": gamma_weierstrass_recip, "limit_product_recip": gamma_limit_product_recip}


def positive_draws(seed, count):
    """(p, k, x): p and k log-uniform in [e^-2, e^2], z = x/k log-uniform in [e^-5, 1e5)."""
    rng = random.Random(seed)
    for _ in range(count):
        p, k = math.exp(rng.uniform(-2.0, 2.0)), math.exp(rng.uniform(-2.0, 2.0))
        x = math.exp(rng.uniform(-5.0, math.log(1e5))) * k
        if x / k < 1e5:
            yield p, k, x


def negative_draws(seed, count):
    """(p, k, x) with z = x/k at distance d from the pole -m, d log-uniform in [1e-7, 0.5] on either side."""
    rng = random.Random(seed)
    for i in range(count):
        p, k = math.exp(rng.uniform(-2.0, 2.0)), math.exp(rng.uniform(-2.0, 2.0))
        m = int(math.exp(rng.uniform(0.0, math.log(2e4)))) if i % 4 else rng.randint(0, 5)
        d = math.exp(rng.uniform(math.log(1e-7), math.log(0.5)))
        z = -m - d if m == 0 or rng.random() < 0.5 else -m + d
        yield p, k, z * k


def family_log(p, k, x):
    """ln|G(x)|, the sign of G, and ln G's scale at x > 0: the magnitudes of z ln p and ln x
    and max(1, |ln Gamma(1+z)|, |z psi(1+z)|), the last being the cost of rounding z = x/k."""
    z = mp.mpf(x) / k
    ln = z * mp.log(p) + mp.loggamma(z) - mp.log(k)
    if z > 0:
        scale = abs(z * mp.log(p)) + abs(mp.log(x)) + max(1, abs(mp.loggamma(1 + z)), abs(z * mp.digamma(1 + z)))
        return ln.real, 1, float(scale)
    return ln.real, (1 if math.floor(z) % 2 == 0 else -1), None


@pytest.mark.parametrize("z", [1e-300, 0.5, 7.25, 30_000.1, 99_999.5, -1e-7, -0.999999, -2.5, -1234.75, -99_990.5])
def test_ln_gamma_step_matches_mpmath(z):
    # a = N + 1 as the product routes take it, so a and a + z are at least 33; past
    # the series' truncation the error is the rounding of the result and of z,
    # and of the two Bernoulli parts, each about 1/(12a)
    a = core._lattice_terms(z) + 1.0
    got = core._ln_gamma_step(a, z)
    with mp.workdps(40):
        truth = mp.loggamma(mp.mpf(a) + z) - mp.loggamma(a) - z * mp.log(a)
        err = float(abs(got - truth))
    assert err <= core._TAIL_GAP + 4 * EPS * (abs(got) + abs(z) + 1.0 / a), (z, a, err)


@pytest.mark.parametrize("w", [1e-7, 0.5, 1.0, 7.25, 99_999.5])
@pytest.mark.parametrize("form", ["3.9", "3.10"])
def test_digamma_step_matches_mpmath(form, w):
    # the arguments psi_series gives it: psi(N+1+w) - psi(N+1) for "3.9" and
    # psi(N+1+w) - psi(N+2) for "3.10"; the Bernoulli parts are about 1/(12a^2)
    N = core._lattice_terms(w)
    a, step = (N + 1.0, w) if form == "3.9" else (N + 2.0, w - 1.0)
    got = core._digamma_step(a, step)
    with mp.workdps(40):
        truth = mp.digamma(mp.mpf(a) + step) - mp.digamma(a)
        err = float(abs(got - truth))
    assert err <= core._TAIL_GAP + 4 * EPS * (abs(got) + 1.0 / (a * a)), (form, w, a, err)


@pytest.mark.parametrize("count", [8, 33, 34, 100_001, 4 * 10**12])
@pytest.mark.parametrize("z", [1e-300, 0.3, 7.3, 1e6, 1e12])
def test_log_rising_matches_mpmath(z, count):
    # the limit route's sum of log(z + j), j < count: 33 terms summed directly, the
    # rest through _ln_gamma_step(z + 33, count - 33), here also at a step far
    # larger than its base; eps * mag bounds the rounding, _TAIL_GAP the series
    ((got, mag),) = gamma_module._log_rising(z, [count])
    with mp.workdps(40):
        truth = mp.loggamma(mp.mpf(z) + count) - mp.loggamma(z)
        err = float(abs(got - truth))
    assert err <= EPS * mag + core._TAIL_GAP, (z, count, err, EPS * mag)


def test_products_within_claim_and_four_eps_at_positive_z():
    with mp.workdps(40):
        for p, k, x in positive_draws(1601, 60):
            truth, _, scale = family_log(p, k, x)
            got = gamma_euler_product(PkParams(p, k), x)
            err = float(abs(got.ln_value - truth))
            assert got.sign == 1 and err <= got.abs_err_ln, ("euler", p, k, x)
            assert err <= 4 * EPS * scale, ("euler", p, k, x, err / (EPS * scale))
            for name, route in RECIPROCAL.items():
                got = route(PkParams(p, k), x)
                err = float(abs(got.ln_value + truth))
                assert got.sign == 1 and err <= got.abs_err_ln, (name, p, k, x)
                assert err <= 4 * EPS * scale, (name, p, k, x, err / (EPS * scale))


@pytest.mark.parametrize("form", ["3.9", "3.10"])
def test_psi_series_within_claim_and_four_eps(form):
    # the scale is (|ln p| + max(1, |psi(w)|, |w psi'(w)|)) / k, w = x/k: the last
    # term is what the rounding of w costs
    with mp.workdps(40):
        for p, k, x in positive_draws(1602, 60):
            w = mp.mpf(x) / k
            truth = (mp.log(p) + mp.digamma(w)) / k
            scale = float((abs(mp.log(p)) + max(1, abs(mp.digamma(w)), abs(w * mp.psi(1, w)))) / k)
            got = psi_series(PkParams(p, k), x, form)
            err = float(abs(got.value - truth))
            assert err <= got.abs_err, (form, p, k, x)
            assert err <= 4 * EPS * scale, (form, p, k, x, err / (EPS * scale))


@pytest.mark.parametrize("name", sorted(RECIPROCAL))
def test_reciprocals_within_claim_near_poles(name):
    # next to the pole -m the rounding of z = x/k alone moves ln|G| by about
    # eps |z| / d, d = |z + m|, and the claim grows the same way; it stays below
    # 1e-5 (the value to 10 ppm) out to |z| = 1e5, where it bounds the rounding
    # of 100,000 terms summed
    with mp.workdps(40):
        points = [*negative_draws(1603, 40), (2.0, 1.0, -4.95), (0.5, 1.0, -99990.5), (1.0, 1.0, -2.0 + 1e-7)]
        for p, k, x in points:
            truth, sign, _ = family_log(p, k, x)
            z = x / k
            got = RECIPROCAL[name](PkParams(p, k), x)
            err = float(abs(got.ln_value + truth))
            assert got.sign == sign, (name, p, k, x)
            assert err <= got.abs_err_ln <= 1e-5, (name, p, k, x)
            scale = 1.0 + abs(float(truth)) + abs(z) / abs(z - round(z))
            assert err <= 32 * EPS * scale, (name, p, k, x, err / (EPS * scale))
