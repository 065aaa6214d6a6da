"""The route contract: a value lies within its own abs_err of the truth, or the route raises a typed error.

Every (function, route) of ``cli.ROUTES`` that returns an error claim runs
on 50 seeded draws from the wide domains below, called through its CLI
adapter.  The truth comes from mpmath at 40 digits and the comparison is
made in mpmath.  A Gamma result, held in log space, is judged on its log:
|ln_value - ln G| <= abs_err_ln, with the sign matching.

Domains, log-uniform unless said otherwise:

* p, k (and every other scale) in [e^-2, e^2];
* x, y (and the hypergeometric numerators/denominators a, b) in [e^-3, e^3];
* polygamma orders r in 2..6;
* 1F1 parameters kept inside 0 < a/k < b/s, the confluent integral's
  domain, with the effective argument (p/t) x uniform in [-20, 20].
"""

import argparse
import functools
import math
import random

import mpmath as mp
import pytest

from pkspecial import GammaEval, PkParams
from pkspecial.cli import ROUTES

mp.mp.dps = 40

DRAWS = 50
DOUBLE_MAX = mp.mpf(1.7976931348623157e308)

# Routes that return a bare float, with no claim to hold them to.  A route
# leaves this list, and joins the contract, once it returns an abs_err.
NOT_YET = {("poch", route) for route in ("direct", "symmetric", "reduce", "gamma-ratio", "generalized")}

CASES = [(function, route) for function in ROUTES for route in ROUTES[function] if (function, route) not in NOT_YET]


def _lu(rng: random.Random, half_width: float) -> float:
    return math.exp(rng.uniform(-half_width, half_width))


def _draw(rng: random.Random, function: str):
    """(p, k, x, CLI args, truth) for one draw; the truth of gamma is ln G."""
    p, k, x = _lu(rng, 2.0), _lu(rng, 2.0), _lu(rng, 3.0)
    args = argparse.Namespace(y=None, n=None, r=None, q=1, a=None, b=None)
    z = mp.mpf(x) / k
    if function == "gamma":
        truth = z * mp.log(p) + mp.loggamma(z) - mp.log(k)
    elif function == "beta":
        args.y = _lu(rng, 3.0)
        truth = mp.beta(z, mp.mpf(args.y) / k) / k
    elif function == "psi":
        truth = mp.log(p) / k + mp.digamma(z) / k
    elif function == "polygamma":
        args.r = rng.randint(2, 6)
        truth = mp.psi(args.r - 1, z) / mp.mpf(k) ** args.r
    elif function == "hyper":
        while True:
            a, ka, b, sb = _lu(rng, 3.0), _lu(rng, 2.0), _lu(rng, 3.0), _lu(rng, 2.0)
            if a / ka < b / sb:
                break
        pa, tb = _lu(rng, 2.0), _lu(rng, 2.0)
        x = rng.uniform(-20.0, 20.0) * tb / pa
        args.a, args.b = [f"{a!r},{pa!r},{ka!r}"], [f"{b!r},{tb!r},{sb!r}"]
        truth = mp.hyp1f1(mp.mpf(a) / ka, mp.mpf(b) / sb, mp.mpf(pa) / tb * x)
    else:
        raise ValueError(f"no domain for {function!r}")
    return p, k, x, args, truth


@functools.lru_cache(maxsize=None)
def _draws(function: str):
    """The function's seeded draws with their truths, shared by its routes."""
    rng = random.Random(f"contract:{function}")
    return tuple(_draw(rng, function) for _ in range(DRAWS))


def _within(result, truth) -> bool:
    if isinstance(result, GammaEval):
        ln, err = result.ln_value, result.abs_err_ln
        return result.sign == 1 and math.isfinite(ln) and math.isfinite(err) and abs(mp.mpf(ln) - truth) <= err
    value, err = result.value, result.abs_err
    if math.isinf(value) and abs(truth) > DOUBLE_MAX:
        return (value > 0) == (truth > 0)
    return math.isfinite(value) and math.isfinite(err) and abs(mp.mpf(value) - truth) <= err


@pytest.mark.parametrize("function, route", CASES)
def test_value_within_claim_or_typed_error(function, route):
    adapter = ROUTES[function][route]
    misses = []
    for p, k, x, args, truth in _draws(function):
        try:
            result = adapter(args, PkParams(p, k), x)
        except Exception as exc:
            if type(exc).__module__.split(".")[0] != "pkspecial":
                raise
            continue
        if not _within(result, truth):
            misses.append((p, k, x, vars(args), result))
    assert not misses, misses


@pytest.mark.parametrize("function, route", sorted(NOT_YET))
def test_not_yet_routes_still_return_no_claim(function, route):
    args = argparse.Namespace(n=3, q=2)
    assert isinstance(ROUTES[function][route](args, PkParams(1.5, 0.75), 2.5), float)
