"""Every route and value type takes its reals and counts through core's one conversion.

A real may be any finite real number but a bool, numpy's scalars included,
and the route then computes with a plain float: a np.float32 argument gives
the double-precision result, not one computed in single precision.  A count
may be any integer but a bool, numpy's included.  Everything else raises
DomainError itself, never a raw OverflowError or TypeError, and never a
subclass such as PoleError.  So does a (p, k) pair or a hypergeometric
parameter set that is not a PkParams or a HyperParams, and an upper or
lower sequence of triples that is no sequence.
"""

import math

import numpy as np
import pytest

from pkspecial import (
    BetaArgs,
    DomainError,
    HyperParams,
    PkParams,
    PochSpec,
    QuadratureSpec,
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
    poch_gamma_ratio,
    poch_generalized,
    poch_reduce,
    poch_rescale,
    poch_symmetric,
    polygamma,
    psi,
    psi_series,
)

PK = PkParams(1.5, 0.75)
HP = HyperParams(((1.0, 1.0, 1.0),), ((4.0, 1.0, 1.0),))
SPEC = PochSpec(3.0, 5, PK)


def _poch_routes(spec):
    return [f(spec) for f in (poch_direct, poch_symmetric, poch_reduce, poch_gamma_ratio)]


# entry point and argument -> (the call at real v, a point inside its domain exact in float32)
REALS = {
    "gamma_closed": (lambda v: gamma_closed(PK, v), 3.0),
    "gamma_limit.x": (lambda v: gamma_limit(PK, v, 1000), 3.0),
    "gamma_integral.x": (lambda v: gamma_integral(PK, v), 3.0),
    "gamma_integral.a_scale": (lambda v: gamma_integral(PK, 2.5, v), 3.0),
    "gamma_euler_product": (lambda v: gamma_euler_product(PK, v), 3.0),
    "gamma_weierstrass_recip": (lambda v: gamma_weierstrass_recip(PK, v), 3.0),
    "gamma_limit_product_recip": (lambda v: gamma_limit_product_recip(PK, v), 3.0),
    "psi": (lambda v: psi(PK, v), 3.0),
    "psi_series": (lambda v: [psi_series(PK, v, form) for form in ("3.9", "3.10")], 3.0),
    "ln_gamma_via_psi": (lambda v: ln_gamma_via_psi(PK, v), 3.0),
    "polygamma.x": (lambda v: polygamma(PK, v, 3), 3.0),
    "k_zeta.x": (lambda v: k_zeta(v, 3, 0.75), 3.0),
    "k_zeta.k": (lambda v: k_zeta(2.5, 3, v), 3.0),
    "BetaArgs.x": (lambda v: [beta_closed(BetaArgs(v, 1.25, PK)), beta_integral(BetaArgs(v, 1.25, PK))], 3.0),
    "BetaArgs.y": (lambda v: beta_closed(BetaArgs(1.25, v, PK)), 3.0),
    "PochSpec.x": (lambda v: _poch_routes(PochSpec(v, 5, PK)) + [poch_generalized(PochSpec(v, 5, PK), 2)], 3.0),
    "poch_rescale.s_new": (lambda v: [poch_rescale(SPEC, v, mode) for mode in ("2.8", "2.9", "2.10")], 3.0),
    "HyperParams.upper": (lambda v: hyper_series(HyperParams(((v, 1.0, 1.0),), ((4.0, 1.0, 1.0),)), 1.5), 3.0),
    "HyperParams.lower": (lambda v: hyper_series(HyperParams(((1.0, 1.0, 1.0),), ((4.0, v, 1.0),)), 1.5), 3.0),
    "hyper_series": (lambda v: hyper_series(HP, v), 3.0),
    "confluent_integral": (lambda v: confluent_integral(HP, v), 3.0),
    "pk_binomial.a": (lambda v: pk_binomial(v, PkParams(0.25, 0.75), 1.5), 3.0),
    "pk_binomial.x": (lambda v: pk_binomial(1.5, PkParams(0.25, 0.75), v), 3.0),
    "QuadratureSpec.abs_tol": (lambda v: QuadratureSpec(abs_tol=v), 0.25),
    "QuadratureSpec.rel_tol": (lambda v: QuadratureSpec(rel_tol=v), 0.25),
    "ln_gamma_classical": (ln_gamma_classical, 3.0),
    "digamma_classical": (digamma_classical, 3.0),
}

# entry point and count -> (the call at count n, a count inside its domain)
COUNTS = {
    "gamma_limit.n": (lambda n: gamma_limit(PK, 3.0, n), 1000),
    "polygamma.r": (lambda r: polygamma(PK, 3.0, r), 3),
    "k_zeta.r": (lambda r: k_zeta(3.0, r, 0.75), 3),
    "PochSpec.n": (lambda n: _poch_routes(PochSpec(3.0, n, PK)), 5),
    "poch_generalized.q": (lambda q: poch_generalized(SPEC, q), 2),
    "QuadratureSpec.max_refinements": (lambda m: QuadratureSpec(max_refinements=m), 5),
}

NOT_REALS = [10**400, -(10**400), True, np.True_, "2.5", math.nan, math.inf, -math.inf, None, 2j]

# entry point -> the call with v in place of its PkParams
PARAMS = {
    "gamma_closed": lambda v: gamma_closed(v, 2.5),
    "gamma_limit": lambda v: gamma_limit(v, 2.5, 1000),
    "gamma_integral": lambda v: gamma_integral(v, 2.5),
    "gamma_euler_product": lambda v: gamma_euler_product(v, 2.5),
    "gamma_weierstrass_recip": lambda v: gamma_weierstrass_recip(v, 2.5),
    "gamma_limit_product_recip": lambda v: gamma_limit_product_recip(v, 2.5),
    "psi": lambda v: psi(v, 2.5),
    "psi_series": lambda v: psi_series(v, 2.5),
    "ln_gamma_via_psi": lambda v: ln_gamma_via_psi(v, 2.5),
    "polygamma": lambda v: polygamma(v, 2.5, 3),
    "BetaArgs": lambda v: BetaArgs(1.0, 1.0, v),
    "PochSpec": lambda v: PochSpec(1.0, 2, v),
    "pk_binomial": lambda v: pk_binomial(1.5, v, 0.5),
}

# entry point -> the call with v in place of its HyperParams
HYPER_PARAMS = {
    "hyper_series": lambda v: hyper_series(v, 0.5),
    "confluent_integral": lambda v: confluent_integral(v, 0.5),
    "classify": classify,
    "ode_coefficient_residual": ode_coefficient_residual,
}

# HyperParams with v in place of its upper or its lower sequence of triples
TRIPLE_SEQUENCES = {
    "upper": lambda v: HyperParams(v, ()),
    "lower": lambda v: HyperParams(((1.0, 1.0, 1.0),), v),
}


def _leaves(result):
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from _leaves(item)
    else:
        yield result


def _assert_plain(result):
    """No numpy scalar anywhere in the result: it was computed from plain floats and ints."""
    stray = [leaf for leaf in _leaves(result) if isinstance(leaf, np.generic)]
    assert not stray, stray


def _raises_domain_error(call, v):
    with pytest.raises(DomainError) as info:
        call(v)
    assert type(info.value) is DomainError, (v, info.value)


@pytest.mark.parametrize("name", REALS)
def test_numpy_reals_give_the_double_result(name):
    call, point = REALS[name]
    want = call(point)
    _assert_plain(want)
    numpy_points = [np.float32(point), np.float64(point)]
    if point.is_integer():
        numpy_points.append(np.int64(point))
    for v in numpy_points:
        got = call(v)
        assert got == want, (v, got, want)
        _assert_plain(got)


@pytest.mark.parametrize("name", REALS)
def test_what_is_no_finite_real_is_a_domain_error(name):
    call, _ = REALS[name]
    for v in NOT_REALS:
        _raises_domain_error(call, v)


@pytest.mark.parametrize("name", PARAMS)
def test_what_is_no_pk_params_is_a_domain_error(name):
    for v in (None, (1.5, 0.75), HP):
        _raises_domain_error(PARAMS[name], v)


@pytest.mark.parametrize("name", HYPER_PARAMS)
def test_what_is_no_hyper_params_is_a_domain_error(name):
    for v in (None, tuple(HP), PK):
        _raises_domain_error(HYPER_PARAMS[name], v)


@pytest.mark.parametrize("name", TRIPLE_SEQUENCES)
def test_what_is_no_sequence_is_a_domain_error(name):
    for v in (None, 5, 2.5):
        _raises_domain_error(TRIPLE_SEQUENCES[name], v)


@pytest.mark.parametrize("name", COUNTS)
def test_numpy_counts_are_counts(name):
    call, count = COUNTS[name]
    want = call(count)
    for n in (np.int64(count), np.int32(count)):
        got = call(n)
        assert got == want, (n, got, want)
        _assert_plain(got)


@pytest.mark.parametrize("name", COUNTS)
def test_what_is_no_count_is_a_domain_error(name):
    call, count = COUNTS[name]
    for n in (True, np.True_, float(count), np.float64(count), str(count), None):
        _raises_domain_error(call, n)
