"""Independent oracles for the test suite.

Everything here is deliberately separate from the library's own evaluation
paths: arbitrary-precision mpmath formulas, exact rational arithmetic,
brute-force enumeration, and elementary limits.  Tests freeze values
computed by these oracles and then hold the implementation to them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 40


def mp_pk_gamma(p, k, x) -> float:
    """High-precision p^(x/k) Gamma(x/k) / k."""
    p, k, x = mp.mpf(p), mp.mpf(k), mp.mpf(x)
    return float(p ** (x / k) / k * mp.gamma(x / k))


def mp_ln_abs_pk_gamma(p, k, x) -> float:
    p, k, x = mp.mpf(p), mp.mpf(k), mp.mpf(x)
    return float((x / k) * mp.log(p) - mp.log(k) + mp.log(abs(mp.gamma(x / k))))


def mp_pk_beta(k, x, y) -> float:
    k, x, y = mp.mpf(k), mp.mpf(x), mp.mpf(y)
    return float(mp.beta(x / k, y / k) / k)


def mp_pk_psi(p, k, x) -> float:
    p, k, x = mp.mpf(p), mp.mpf(k), mp.mpf(x)
    return float(mp.log(p) / k + mp.digamma(x / k) / k)


def mp_ln_gamma(z) -> float:
    return float(mp.log(abs(mp.gamma(mp.mpf(z)))))


def mp_digamma(z) -> float:
    return float(mp.digamma(mp.mpf(z)))


def mp_polygamma(m: int, z) -> float:
    return float(mp.polygamma(m, mp.mpf(z)))


def mp_pk_polygamma(k, x, r: int) -> float:
    """r-th derivative of log G: psi^(r-1)(x/k) / k^r."""
    k, x = mp.mpf(k), mp.mpf(x)
    return float(mp.polygamma(r - 1, x / k) / k**r)


def mp_hyper(alphas, betas, x) -> float:
    return float(mp.hyper(list(alphas), list(betas), mp.mpf(x)))


def euler_gamma_limit(n: int = 2000) -> float:
    """Euler's constant from H_n - log n, Richardson-accelerated over {n,2n,4n,8n}.

    The raw sequence converges like 1/(2n); three extrapolation levels with
    step ratio 2 knock out the 1/n, 1/n^2 and 1/n^3 terms.
    """
    def h_minus_log(m: int) -> float:
        return math.fsum(1.0 / i for i in range(1, m + 1)) - math.log(m)

    seq = [h_minus_log(n * 2**j) for j in range(4)]
    for level in range(1, 4):
        ratio = 2.0**level
        seq = [(ratio * seq[i + 1] - seq[i]) / (ratio - 1.0) for i in range(len(seq) - 1)]
    return seq[0]


def elementary_symmetric_bruteforce(values, s: int) -> float:
    """e_s by explicit subset enumeration; usable up to ~12 variables."""
    if s == 0:
        return 1.0
    return math.fsum(math.prod(c) for c in itertools.combinations(values, s))


def poch_exact(x: Fraction, n: int, p: Fraction, k: Fraction) -> Fraction:
    """Exact rational rising product (xp/k)(xp/k + p)...(xp/k + (n-1)p)."""
    base = x * p / k
    out = Fraction(1)
    for j in range(n):
        out *= base + j * p
    return out


def basel_series(r: int, x: float, k: float, terms: int = 200_000) -> float:
    """Direct partial sum of sum (x + n k)^-r, small-first for accuracy."""
    return math.fsum((x + n * k) ** -float(r) for n in reversed(range(terms)))


def mp_k_zeta(x, r: int, k) -> float:
    """Lattice zeta via the Hurwitz function: k^-r zeta(r, x/k)."""
    x, k = mp.mpf(x), mp.mpf(k)
    return float(mp.zeta(r, x / k) / k**r)


def mp_k_zeta_direct(x, r: int, k):
    """sum_{n>=0} (x + nk)^-r at 60 digits, as an mpf, without mp.zeta.

    mpmath's Hurwitz zeta loses digits at large r (4e-12 relative at r = 120,
    x/k = 13,865, even at 60 digits).  Here the first M terms are summed
    directly, with M the smallest count that puts a = x/k + M at r + 30 or
    more, and the rest is Hermite's formula (DLMF 25.11.29):
    zeta(r, a) = a^-r (1/2 + a/(r-1) + 2 int_0^inf sin(r atan(t/a)) dt
    / ((1 + (t/a)^2)^(r/2) (e^(2 pi t) - 1))), the integral scaled by a^r so
    that quad's absolute stop rule sees an O(1) integrand.
    """
    with mp.workdps(60):
        u = mp.mpf(x) / k
        m = max(0, int(r + 30 - u))
        a = u + m

        def f(t):
            return mp.sin(r * mp.atan(t / a)) / ((1 + (t / a) ** 2) ** (mp.mpf(r) / 2) * mp.expm1(2 * mp.pi * t))

        integral, est = mp.quad(f, [0, mp.inf], maxdegree=4, error=True)
        assert est < 1e-17, (x, r, k, est)
        tail = (mp.mpf(1) / 2 + a / (r - 1) + 2 * integral) * a**-r
        return (mp.fsum((u + n) ** -r for n in range(m)) + tail) / mp.mpf(k) ** r


def quad_oracle(f, a: float, b: float) -> float:
    """scipy adaptive quadrature as an independent integration oracle."""
    from scipy.integrate import quad

    val, _ = quad(f, a, b, limit=200)
    return val
