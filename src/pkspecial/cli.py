"""Command-line surface: point evaluation, identity audits, table emission.

Exit codes: 0 success (for ``audit``: all corrected forms pass), 1 usage or
row-limit error, 2 domain/pole error, 3 report I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import audit, betapsi, gamma, hyper, pochhammer
from .core import (DivergentInput, DomainError, EvalReal, GammaEval, LowerPoleError, MaxTermsExceeded,
                   NoConvergence, PkParams, PoleError, UnsupportedShape, _from_log, _linear_err)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here wants 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pkspecial", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ev = sub.add_parser("eval", help="evaluate one function at one point")
    ev.add_argument("function", choices=tuple(ROUTES))
    _add_point_flags(ev)
    ev.add_argument("--method", default=None, help="evaluation route (per function)")
    ev.add_argument("--format", default="text", choices=("text", "json"))

    au = sub.add_parser("audit", help="run an identity suite over a grid")
    au.add_argument("suite", choices=("pochhammer", "gamma", "beta", "psi", "hyper", "all"))
    au.add_argument("--grid", default="default", choices=("default", "small"))
    au.add_argument("--out", default=None, help="write the JSON report here")
    au.add_argument("--format", default="text", choices=("text", "json"))
    au.add_argument(
        "--tol",
        default=None,
        help="per-identity tolerance overrides, e.g. '2.30=1e-9,3.8=1e-6'",
    )

    tb = sub.add_parser("table", help="sweep one variable and emit rows")
    tb.add_argument("function", choices=tuple(ROUTES))
    _add_point_flags(tb, sweep=True)
    tb.add_argument("--method", default=None)
    tb.add_argument("--format", default="csv", choices=("csv", "json"))
    tb.add_argument("--out", default=None)
    return parser


def _add_point_flags(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    sweep_note = "; 'a:b:step' sweeps it" if sweep else ""
    p.add_argument("--p", type=float, default=1.0, help="first deformation scale")
    p.add_argument("--k", type=float, default=1.0, help="second deformation scale")
    p.add_argument("--x", default=None, help=f"argument{sweep_note}")
    p.add_argument("--y", default=None, help=f"second argument (beta){sweep_note}")
    p.add_argument("--n", type=int, default=None, help="factor count (poch)")
    p.add_argument("--r", type=int, default=None, help="derivative order (polygamma)")
    p.add_argument("--q", type=int, default=1, help="block count (poch generalized)")
    p.add_argument(
        "--a",
        action="append",
        default=None,
        help="upper triple 'a,p,k' (hyper); repeatable",
    )
    p.add_argument(
        "--b",
        action="append",
        default=None,
        help="lower triple 'b,t,s' (hyper); repeatable",
    )


def _parse_float(label: str, raw) -> float:
    try:
        v = float(raw)
    except (TypeError, ValueError):
        raise DomainError(f"{label} must be a finite real, got {raw!r}")
    if not math.isfinite(v):
        raise DomainError(f"{label} must be finite, got {raw!r}")
    return v


def _parse_triples(raws, label: str):
    out = []
    for raw in raws or ():
        parts = raw.split(",")
        if len(parts) != 3:
            raise DomainError(f"{label} expects 'v,scale,scale', got {raw!r}")
        out.append(tuple(_parse_float(label, s) for s in parts))
    return tuple(out)


def _require(args, name: str) -> float:
    raw = getattr(args, name)
    if raw is None:
        raise DomainError(f"--{name} is required for this function")
    return _parse_float(name, raw)


def _beta_args(args, params: PkParams, x: float) -> betapsi.BetaArgs:
    return betapsi.BetaArgs(x, _require(args, "y"), params)


def _poch_spec(args, params: PkParams, x: float) -> pochhammer.PochSpec:
    if args.n is None:
        raise DomainError("--n is required for poch")
    return pochhammer.PochSpec(x, args.n, params)


def _hyper_params(args) -> hyper.HyperParams:
    return hyper.HyperParams(upper=_parse_triples(args.a, "--a"), lower=_parse_triples(args.b, "--b"))


def _weierstrass(params: PkParams, x: float) -> GammaEval:
    recip = gamma.gamma_weierstrass_recip(params, x)
    if recip.ln_value == -math.inf:  # the reciprocal vanishes only on the pole lattice
        raise PoleError(f"pole at index {-round(x / params.k)}")
    return recip._replace(ln_value=-recip.ln_value)


# function -> route key -> adapter(args, params, x), the first key the default.
# Adapters look routes up on their modules at call time, so wrappers bound there run
# and a route module runs its body only once a command calls into it.
ROUTES = {
    "gamma": {
        "closed": lambda a, pk, x: gamma.gamma_closed(pk, x),
        "limit": lambda a, pk, x: gamma.gamma_limit(pk, x, 100_000),
        "integral": lambda a, pk, x: gamma.gamma_integral(pk, x),
        "euler-product": lambda a, pk, x: gamma.gamma_euler_product(pk, x),
        "weierstrass": lambda a, pk, x: _weierstrass(pk, x),
    },
    "beta": {
        "closed": lambda a, pk, x: betapsi.beta_closed(_beta_args(a, pk, x)),
        **{
            form: lambda a, pk, x, form=form: betapsi.beta_integral(_beta_args(a, pk, x), form)
            for form in ("unit", "symmetric", "semiaxis")
        },
    },
    "psi": {
        "closed": lambda a, pk, x: betapsi.psi(pk, x),
        **{
            form: lambda a, pk, x, form=form: betapsi.psi_series(pk, x, form)
            for form in ("3.9", "3.10")
        },
    },
    "poch": {
        "direct": lambda a, pk, x: pochhammer.poch_direct(_poch_spec(a, pk, x)),
        "symmetric": lambda a, pk, x: pochhammer.poch_symmetric(_poch_spec(a, pk, x)),
        "reduce": lambda a, pk, x: pochhammer.poch_reduce(_poch_spec(a, pk, x)),
        "gamma-ratio": lambda a, pk, x: pochhammer.poch_gamma_ratio(_poch_spec(a, pk, x)),
        "generalized": lambda a, pk, x: pochhammer.poch_generalized(_poch_spec(a, pk, x), a.q),
    },
    "hyper": {
        "series": lambda a, pk, x: hyper.hyper_series(_hyper_params(a), x),
        "integral": lambda a, pk, x: hyper.confluent_integral(_hyper_params(a), x),
    },
    "polygamma": {
        "series": lambda a, pk, x: betapsi.polygamma(pk, x, a.r if a.r is not None else 2),
    },
}

# what an eval or table command reports as a domain error (exit 2)
_DOMAIN_ERRORS = (PoleError, DomainError, DivergentInput, LowerPoleError,
                  UnsupportedShape, NoConvergence, MaxTermsExceeded)


def _route(args) -> str:
    """The route key: --method if given, else the function's default."""
    routes = ROUTES[args.function]
    key = args.method or next(iter(routes))
    if key not in routes:
        raise DomainError(f"{args.function} methods are {tuple(routes)}")
    return key


def _fields(args, key: str, params: PkParams, x: float, result, logs: bool) -> tuple[float, float, dict]:
    """A route result as a row's value and abs_err, inf past the double range, and its further fields: with logs,
    a Gamma or Pochhammer result's ln_value and sign, else none."""
    if isinstance(result, GammaEval):
        value = _from_log(result.ln_value, result.sign)
        return (result.value if math.isinf(value) else value,  # .value notes the overflow
                _linear_err(result, value), {"ln_value": result.ln_value, "sign": result.sign} if logs else {})
    if isinstance(result, EvalReal):
        return result.value, result.abs_err, {}
    # the Pochhammer routes return a bare float with no error estimate; generalized multiplies n q factors
    count = args.n * args.q if key == "generalized" else args.n
    abs_err = abs(result) * 1e-15 * (count + 1)
    if not logs:
        return result, abs_err, {}
    ln, sign = pochhammer.poch_ln(pochhammer.PochSpec(x, count, params))
    return result, abs_err, {"ln_value": ln, "sign": sign}


def _finite(doc: dict) -> dict:
    """doc with each non-finite number as None: RFC 8259 JSON has no NaN or Infinity."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in doc.items()}


def _cmd_eval(args) -> int:
    try:
        x = _require(args, "x")
        y = None if args.y is None else _require(args, "y")
        key = _route(args)
        params = PkParams(args.p, args.k)
        result = ROUTES[args.function][key](args, params, x)
    except _DOMAIN_ERRORS as exc:
        if args.format == "json":
            print(json.dumps({"error": "domain", "reason": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    value, abs_err, logs = _fields(args, key, params, x, result, logs=True)
    method = result.method.value if hasattr(result, "method") else key  # a Pochhammer float: its route key
    inputs = {"function": args.function, "p": args.p, "k": args.k, "x": x, "y": y, "n": args.n, "r": args.r,
              "q": args.q if key == "generalized" else None}
    if args.function == "hyper":
        inputs.update(a=_parse_triples(args.a, "--a"), b=_parse_triples(args.b, "--b"))
    inputs = {name: v for name, v in inputs.items() if v is not None}
    if args.format == "json":
        doc = {"value": value, "abs_err": abs_err, **logs, "method": method, "inputs": inputs}
        print(json.dumps(_finite(doc), sort_keys=True, allow_nan=False))
    else:
        if math.isinf(value) and logs:  # past the double range: the log and the sign
            print(f"value   = overflow; ln|value| = {logs['ln_value']:.17g}, sign {logs['sign']:+d}")
        else:
            print(f"value   = {value:.17g}")
        if math.isfinite(abs_err):
            print(f"abs_err = {abs_err:.3g}")
        print(f"method  = {method}")
    return EXIT_OK


def _parse_tol_overrides(raw: str | None, audited: set[str]) -> dict[str, float]:
    if not raw:
        return {}
    out = {}
    for chunk in raw.split(","):
        if "=" not in chunk:
            raise DomainError(f"tolerance override needs 'id=value', got {chunk!r}")
        key, val = (part.strip() for part in chunk.split("=", 1))
        if key not in audited:
            raise DomainError(f"identity {key!r} is not audited by this suite")
        out[key] = _parse_float(f"tolerance for identity {key!r}", val)
        if out[key] <= 0:
            raise DomainError(f"tolerance for identity {key!r} must be positive, got {val!r}")
    return out


def _cmd_audit(args) -> int:
    from .identities import AuditGrid, catalog_for_suite

    try:
        overrides = _parse_tol_overrides(args.tol, {c.identity_id for c in catalog_for_suite(args.suite)})
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    grid = AuditGrid.default() if args.grid == "default" else AuditGrid.small()
    report = audit.run_suite(args.suite, grid, overrides)
    if args.out:
        try:
            audit.write_report(report, args.out)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
    if args.format == "json":
        print(json.dumps(audit.summary_to_dict(report), sort_keys=True, indent=2))
    else:
        print(audit.format_summary(report))
    return EXIT_OK if report.all_corrected_pass else EXIT_DOMAIN


MAX_ROWS = 1_000_000


def _parse_sweep(raw: str) -> list[float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise DomainError(f"sweep expects 'start:stop:step', got {raw!r}")
    a, b, step = (_parse_float("sweep", s) for s in parts)
    if step <= 0:
        raise DomainError("sweep step must be positive")
    if b < a:
        raise DomainError("sweep range is empty")
    steps = (b - a) / step + 1e-9  # compared before int(), which fails on an inf quotient
    if steps >= MAX_ROWS:
        raise DomainError(f"sweep exceeds the limit of {MAX_ROWS} rows")
    return [a + i * step for i in range(int(steps) + 1)]


def _cmd_table(args) -> int:
    sweep_var = next((name for name in ("x", "y") if ":" in (getattr(args, name) or "")), None)
    try:
        if sweep_var is None:
            raise DomainError("one of --x/--y must be a sweep 'start:stop:step'")
        values = _parse_sweep(getattr(args, sweep_var))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        key = _route(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    route = ROUTES[args.function][key]
    csv = args.format == "csv"
    rows = [f"{sweep_var},value,abs_err\n"] if csv else []
    v = values[0]
    y_sweep = sweep_var == "y"
    try:
        x = _require(args, "x") if y_sweep else None
        params = PkParams(args.p, args.k)
        for v in values:
            if y_sweep:
                args.y = v  # the beta adapter reads args.y
            at = x if y_sweep else v
            value, err, logs = _fields(args, key, params, at, route(args, params, at), not csv)
            if csv:
                rows.append("%.17g,%.17g,%.17g\n" % (v, value, err))
            else:
                rows.append({sweep_var: v, "value": value, "abs_err": err, **logs})
    except _DOMAIN_ERRORS as exc:
        print(f"error at {sweep_var}={v}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot open output: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        out.writelines(rows if csv else [json.dumps([_finite(r) for r in rows], allow_nan=False) + "\n"])
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "audit":
        return _cmd_audit(args)
    return _cmd_table(args)


if __name__ == "__main__":
    sys.exit(main())
