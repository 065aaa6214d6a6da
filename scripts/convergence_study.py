#!/usr/bin/env python3
"""Convergence study for the slow Gamma evaluators: accuracy next to cost.

Sweeps the index n of the defining limit (raw and Richardson) at one
(p, k, x) point, and reports each of the three product forms once, at its
own lattice size N (32 terms summed plus an exact tail; more at negative
x/k), since a product has no index left to sweep.  Emits one plot-ready CSV
row per (route, index): the log-space absolute error against the closed
form and the median microseconds per call:

    route,n,abs_err_ln,us

The limit and Euler-product routes need x > 0, so at x <= 0 only the two
reciprocal products (Weierstrass and limit product) are reported.

Usage:
    python scripts/convergence_study.py [--p 2.0] [--k 0.5] [--x 2.5] [--out -]
"""

import argparse
import statistics
import sys
import time

from pkspecial import (
    PkParams,
    gamma_closed,
    gamma_euler_product,
    gamma_limit,
    gamma_limit_product_recip,
    gamma_weierstrass_recip,
)
from pkspecial import core

# route name -> (call at index n, whether it returns the reciprocal)
LIMIT_ROUTES = {
    "limit_raw": (lambda pk, x, n: gamma_limit(pk, x, n, accelerate=False), False),
    "limit_richardson": (lambda pk, x, n: gamma_limit(pk, x, n, accelerate=True), False),
}
# route name -> (call, whether it returns the reciprocal, whether it needs x > 0)
PRODUCT_ROUTES = {
    "euler_product": (gamma_euler_product, False, True),
    "weierstrass": (gamma_weierstrass_recip, True, False),
    "limit_product_recip": (gamma_limit_product_recip, True, False),
}
REPEATS = 7


def lone_call_us(call) -> float:
    """Median microseconds of ``call()`` over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--k", type=float, default=0.5)
    parser.add_argument("--x", type=float, default=2.5)
    parser.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    args = parser.parse_args()

    params = PkParams(args.p, args.k)
    truth = gamma_closed(params, args.x).ln_value

    def row(name, n, call, reciprocal):
        ln = call().ln_value
        err = abs((-ln if reciprocal else ln) - truth)
        return f"{name},{n},{err:.6e},{lone_call_us(call):.1f}"

    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        print("route,n,abs_err_ln,us", file=out)
        positive = args.x > 0
        for n in (64, 256, 1024, 4096, 16384, 65536) if positive else ():
            for name, (route, reciprocal) in LIMIT_ROUTES.items():
                print(row(name, n, lambda: route(params, args.x, n), reciprocal), file=out)
        size = core._lattice_terms(args.x / args.k)
        for name, (route, reciprocal, needs_positive) in PRODUCT_ROUTES.items():
            if positive or not needs_positive:
                print(row(name, size, lambda: route(params, args.x), reciprocal), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
