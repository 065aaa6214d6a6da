#!/usr/bin/env python3
"""Convergence study for the slow Gamma evaluators: accuracy next to cost.

Sweeps the truncation index for the defining limit (raw and Richardson) and
the three corrected product forms at one (p, k, x) point, and emits a
plot-ready CSV of log-space absolute errors against the closed form, then
the median microseconds per call of each route:

    n,limit_raw,limit_richardson,euler_product,weierstrass,limit_product_recip,
      limit_raw_us,limit_richardson_us,euler_product_us,weierstrass_us,limit_product_recip_us

Each timed call runs with every lattice-sum memo cleared first, so it pays
for its own pass as a lone call does (a product route alone also computes
the sums of its two sibling forms); the z-free arrays, built once per n,
are warm.

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
    gamma_weierstrass_recip,
)
from pkspecial import betapsi, gamma
from pkspecial.gamma import gamma_limit_product_recip

# route name -> (call at index n, whether it returns the reciprocal)
ROUTES = {
    "limit_raw": (lambda pk, x, n: gamma_limit(pk, x, n, accelerate=False), False),
    "limit_richardson": (lambda pk, x, n: gamma_limit(pk, x, n, accelerate=True), False),
    "euler_product": (lambda pk, x, n: gamma_euler_product(pk, x, terms=n), False),
    "weierstrass": (lambda pk, x, n: gamma_weierstrass_recip(pk, x, terms=n), True),
    "limit_product_recip": (lambda pk, x, n: gamma_limit_product_recip(pk, x, terms=n), True),
}
LATTICE_MEMOS = (gamma._limit_sums, gamma._product_sums, betapsi._psi_lattice_sums)
REPEATS = 7


def lone_call_us(call) -> float:
    """Median microseconds of ``call()`` over REPEATS runs, every lattice-sum memo cleared before each."""
    times = []
    for _ in range(REPEATS):
        for memo in LATTICE_MEMOS:
            memo.cache_clear()
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

    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        print(",".join(["n", *ROUTES, *(f"{name}_us" for name in ROUTES)]), file=out)
        for n in (64, 256, 1024, 4096, 16384, 65536):
            errs, costs = [], []
            for route, reciprocal in ROUTES.values():
                ln = route(params, args.x, n).ln_value
                errs.append(abs((-ln if reciprocal else ln) - truth))
                costs.append(lone_call_us(lambda: route(params, args.x, n)))
            print(",".join([str(n), *(f"{e:.6e}" for e in errs), *(f"{c:.1f}" for c in costs)]), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
