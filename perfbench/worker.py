"""Worker processes of the benchmark; each imports pkspecial, the client never does.

    worker.py setup WORKLOAD        import and warm up as WORKLOAD does, print "ready", exit
    worker.py sweep [SIDECAR]       route-sweep server: blocks of draws in on stdin (one JSON
                                    line each), results out on stdout; traced when SIDECAR given
    worker.py cli SIDECAR ARGV...   run ``pkspecial ARGV`` in process with the tracer installed

The route table below calls every route through its module attribute, so
that the tracer's wrappers are the functions that run when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, install  # noqa: E402


def _mods():
    import pkspecial.cli  # noqa: F401

    return tuple(sys.modules["pkspecial." + m] for m in ("core", "gamma", "pochhammer", "betapsi", "hyper"))


def _gamma(g):
    return ["ln", g.ln_value, g.sign, g.abs_err_ln]


def _lin(r):
    return ["lin", r.value, r.abs_err]


def poch_abs_err(value: float, n: int) -> float:
    """The bare-float Pochhammer routes report no error; the CLI's rule stands in."""
    return abs(value) * 1e-15 * (n + 1)


def route_table():
    """Route name -> callable(draw) returning the worker's result list."""
    core, G, P, B, H = _mods()
    LIMIT_N = 100_000  # the CLI's index for the limit route

    def pk(d):
        return core.PkParams(d["p"], d["k"])

    def spec(d):
        return P.PochSpec(d["x"], d["n"], pk(d))

    def poch(fn):
        def call(d):
            value = fn(d)
            return ["lin", value, poch_abs_err(value, d["n"])]

        return call

    def bargs(d):
        return B.BetaArgs(d["x"], d["y"], pk(d))

    def hp(d):
        return H.HyperParams(upper=((d["a"], d["pa"], d["ka"]),), lower=((d["b"], d["tb"], d["sb"]),))

    return {
        "gamma.closed": lambda d: _gamma(G.gamma_closed(pk(d), d["x"])),
        "gamma.limit": lambda d: _gamma(G.gamma_limit(pk(d), d["x"], LIMIT_N)),
        "gamma.integral": lambda d: _gamma(G.gamma_integral(pk(d), d["x"])),
        "gamma.euler_product": lambda d: _gamma(G.gamma_euler_product(pk(d), d["x"])),
        "gamma.weierstrass": lambda d: _gamma(G.gamma_weierstrass_recip(pk(d), d["x"])),
        "gamma.limit_product_recip": lambda d: _gamma(G.gamma_limit_product_recip(pk(d), d["x"])),
        "pochhammer.direct": poch(lambda d: P.poch_direct(spec(d))),
        "pochhammer.symmetric": poch(lambda d: P.poch_symmetric(spec(d))),
        "pochhammer.reduce": poch(lambda d: P.poch_reduce(spec(d))),
        "pochhammer.gamma_ratio": poch(lambda d: P.poch_gamma_ratio(spec(d))),
        "pochhammer.generalized": poch(lambda d: P.poch_generalized(spec(d), d["q"])),
        "betapsi.beta_closed": lambda d: _lin(B.beta_closed(bargs(d))),
        "betapsi.beta_unit": lambda d: _lin(B.beta_integral(bargs(d), "unit")),
        "betapsi.beta_symmetric": lambda d: _lin(B.beta_integral(bargs(d), "symmetric")),
        "betapsi.beta_semiaxis": lambda d: _lin(B.beta_integral(bargs(d), "semiaxis")),
        "betapsi.psi": lambda d: _lin(B.psi(pk(d), d["x"])),
        "betapsi.psi_series_3.9": lambda d: _lin(B.psi_series(pk(d), d["x"], "3.9")),
        "betapsi.psi_series_3.10": lambda d: _lin(B.psi_series(pk(d), d["x"], "3.10")),
        "betapsi.polygamma": lambda d: _lin(B.polygamma(pk(d), d["x"], d["r"])),
        "betapsi.ln_gamma_via_psi": lambda d: _lin(B.ln_gamma_via_psi(pk(d), d["x"])),
        "hyper.series": lambda d: _lin(H.hyper_series(hp(d), d["hx"])),
        "hyper.confluent_integral": lambda d: _lin(H.confluent_integral(hp(d), d["hx"])),
    }


def call_route(fn, draw) -> list:
    """Run one route; exceptions become ["raised", "typed" | "raw", name]."""
    try:
        return fn(draw)
    except Exception as exc:  # every exception is an outcome the checker classifies
        typed = type(exc).__module__.split(".")[0] == "pkspecial"
        return ["raised", "typed" if typed else "raw", type(exc).__name__]


WARM_DRAW = {
    "p": 1.5, "k": 0.75, "x": 2.5, "y": 1.25, "n": 5, "q": 2, "r": 3,
    "a": 1.0, "pa": 1.0, "ka": 1.0, "b": 2.0, "tb": 1.0, "sb": 1.0, "hx": -1.5,
}


def _fill_node_cache() -> None:
    """Build every quadrature level: a tolerance no sum can meet runs them all."""
    import numpy as np
    from pkspecial.quadrature import NoConvergence, QuadratureSpec, integrate_semiaxis, integrate_unit

    unreachable = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300, max_refinements=30)
    for integrate in (integrate_unit, integrate_semiaxis):
        with contextlib.suppress(NoConvergence):
            integrate(lambda t: np.exp(-t), unreachable)


def warm_up(workload: str):
    """Import what the workload uses and make its warm-up calls; returns the route table."""
    import pkspecial.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        if workload == "cli_eval":
            cli.main(["eval", "gamma", "--x", "2.5", "--format", "json"])
        elif workload == "cli_table":
            cli.main(["table", "gamma", "--x", "1:2:0.0625"])
        elif workload == "audit_all":
            cli.main(["audit", "pochhammer", "--grid", "small"])
        elif workload == "route_sweep":
            _fill_node_cache()
            routes = route_table()
            for fn in routes.values():
                call_route(fn, WARM_DRAW)
            return routes
        else:
            raise SystemExit(f"unknown workload {workload!r}")
    return None


def serve_sweep(sidecar: str | None) -> int:
    routes = warm_up("route_sweep")
    tracer = None
    if sidecar:
        tracer = Tracer()
        install(tracer)
    out = sys.stdout
    out.write("ready\n")
    out.flush()
    for line in sys.stdin:
        draws = json.loads(line)
        t0 = time.perf_counter_ns()
        results = [{name: call_route(fn, d) for name, fn in routes.items()} for d in draws]
        wall_ns = time.perf_counter_ns() - t0
        out.write(json.dumps({"wall_ns": wall_ns, "results": results}) + "\n")
        out.flush()
    if tracer:
        tracer.write(sidecar)
    return 0


def run_cli(sidecar: str, argv: list[str]) -> int:
    import pkspecial.cli

    tracer = Tracer()
    install(tracer)
    try:
        return pkspecial.cli.main(argv)  # the traced wrapper, looked up after install
    finally:
        tracer.write(sidecar)


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 2:
        warm_up(argv[1])
        print("ready", flush=True)
        return 0
    if mode == "sweep" and len(argv) <= 2:
        return serve_sweep(argv[1] if len(argv) == 2 else None)
    if mode == "cli" and len(argv) >= 3:
        return run_cli(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
