"""The shared lattice-sum kernels of the product and psi-series routes.

gamma._product_sums serves the Euler, Weierstrass and limit-product routes
from one log1p(z/n) pass, and betapsi._psi_lattice_sums both psi-series
forms from one x + nk array.  The reference functions below are the
per-route sums they replaced, written out one route at a time; the kernels
must return the same floats bit for bit.
"""

import math

import numpy as np
import pytest

from pkspecial import PkParams, gamma_euler_product, gamma_weierstrass_recip, psi_series
from pkspecial import betapsi as betapsi_module
from pkspecial import core
from pkspecial import gamma as gamma_module
from pkspecial.gamma import gamma_limit_product_recip

TERMS = (10, 64, 1000, 100_000)


def ref_euler_body(z, terms):
    """sum_{n=1..terms} z log1p(1/n) - log1p(z/n), smallest terms first."""
    n = np.arange(1, terms + 1, dtype=float)
    body = z * np.log1p(1.0 / n) - np.log1p(z / n)
    return float(np.sum(body[::-1]))


def ref_reciprocal_sums(z, terms, damped):
    """(head, sign, body) of the log of prod_{n=1..terms} (1 + z/n), times e^(-z/n) when ``damped``."""
    m0 = min(terms, max(0, math.ceil(-z) - 1)) if z < 0 else 0
    sign = 1
    head = 0.0
    for n in range(1, m0 + 1):
        f = 1.0 + z / n
        if f < 0.0:
            sign = -sign
        head += math.log(abs(f)) - z / n if damped else math.log(abs(f))
    r = z / np.arange(m0 + 1, terms + 1, dtype=float)
    body = np.log1p(r) - r if damped else np.log1p(r)
    return head, sign, float(np.sum(body[::-1]))


def ref_psi_lattice_sum(x, k, terms, form):
    """sum_{n=1..terms} 1/(n (x + nk)) ("3.9") or sum_{n=0..terms} 1/((n+1)(x + nk)) ("3.10")."""
    if form == "3.9":
        n = np.arange(1, terms + 1, dtype=float)
        return float(np.sum((1.0 / (n * (x + n * k)))[::-1]))
    n = np.arange(0, terms + 1, dtype=float)
    return float(np.sum((1.0 / ((n + 1.0) * (x + n * k)))[::-1]))


def bits(v):
    """The exact double, -0.0 told apart from 0.0."""
    return None if v is None else float(v).hex()


def reciprocal_bits(head, sign, body):
    return bits(head), sign, bits(body)


def product_points(terms, seed):
    """z values: log-uniform positive, tiny, negative between poles and within 1e-7 of one, and in (-1, 0)."""
    rng = np.random.default_rng(seed)
    zs = [float(z) for z in np.exp(rng.uniform(math.log(1e-3), math.log(0.9 * terms), 6))]
    zs += [1e-300, 1e-12, 3e-9]
    for m in rng.integers(1, terms, 4):
        m = int(m)
        zs += [-(m + float(rng.uniform(0.01, 0.99))), -m - 1e-7, -m + 1e-7]
    zs += [-float(rng.uniform(1e-6, 0.999))]
    return zs


@pytest.mark.parametrize("terms", TERMS)
def test_product_sums_match_the_per_route_formulas_bit_for_bit(terms):
    for z in product_points(terms, 1000 + terms):
        sign, head, damped_head, body, damped_body, euler_body = gamma_module._product_sums.__wrapped__(z, terms)
        assert reciprocal_bits(head, sign, body) == reciprocal_bits(*ref_reciprocal_sums(z, terms, False)), z
        assert reciprocal_bits(damped_head, sign, damped_body) == reciprocal_bits(
            *ref_reciprocal_sums(z, terms, True)), z
        assert bits(euler_body) == (bits(ref_euler_body(z, terms)) if z > 0 else None), z


@pytest.mark.parametrize("terms", TERMS)
def test_psi_lattice_sums_match_the_per_form_formula_bit_for_bit(terms):
    rng = np.random.default_rng(2000 + terms)
    for _ in range(12):
        k = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        x = k * float(np.exp(rng.uniform(math.log(1e-6), math.log(0.9 * terms))))
        s39, s310 = betapsi_module._psi_lattice_sums.__wrapped__(x, k, terms)
        assert bits(s39) == bits(ref_psi_lattice_sum(x, k, terms, "3.9")), (x, k)
        assert bits(s310) == bits(ref_psi_lattice_sum(x, k, terms, "3.10")), (x, k)


@pytest.mark.parametrize("x", [2.5, -1.3])
def test_one_kernel_miss_serves_every_product_route(x):
    params, terms = PkParams(2.0, 0.5), 1000
    routes = [gamma_weierstrass_recip, gamma_limit_product_recip]
    if x > 0:
        routes.append(gamma_euler_product)
    gamma_module._product_sums.cache_clear()
    for route in routes:
        route(params, x, terms)
    info = gamma_module._product_sums.cache_info()
    assert (info.misses, info.hits) == (1, len(routes) - 1)


def test_one_kernel_miss_serves_both_psi_forms():
    betapsi_module._psi_lattice_sums.cache_clear()
    for form in ("3.9", "3.10"):
        psi_series(PkParams(2.0, 0.5), 2.5, form, 1000)
    info = betapsi_module._psi_lattice_sums.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("build", [core._ramp, core._log1p_recip])
def test_cached_z_free_arrays_are_read_only(build):
    arr = build(64)
    assert arr is build(64)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 1.0
    assert build.cache_info().maxsize == 1
