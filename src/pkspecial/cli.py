"""Command-line surface: point evaluation, identity audits, table emission.

Exit codes: 0 success (for ``audit``: all corrected forms pass), 1 usage or
row-limit error, 2 domain/pole error, 3 report I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .audit import format_summary, report_to_dict, run_suite, write_report
from .betapsi import (
    BETA_FORMS,
    PSI_SERIES_FORMS,
    BetaArgs,
    beta_closed,
    beta_integral,
    polygamma,
    psi,
    psi_series,
)
from .core import DomainError, EvalReal, GammaEval, PkParams, PoleError, pole_check
from .gamma import (
    gamma_closed,
    gamma_euler_product,
    gamma_integral,
    gamma_limit,
    gamma_weierstrass_recip,
)
from .hyper import (
    DivergentInput,
    HyperParams,
    LowerPoleError,
    MaxTermsExceeded,
    UnsupportedShape,
    confluent_integral,
    hyper_series,
)
from .pochhammer import (
    PochSpec,
    poch_direct,
    poch_gamma_ratio,
    poch_generalized,
    poch_reduce,
    poch_symmetric,
)
from .quadrature import NoConvergence

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


class CliDomainError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pkspecial", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ev = sub.add_parser("eval", help="evaluate one function at one point")
    ev.add_argument("function", choices=tuple(ROUTES))
    _add_point_flags(ev)
    ev.add_argument("--method", default=None, help="evaluation route (per function)")
    ev.add_argument("--form", default=None, help="integral/series form where applicable")
    ev.add_argument("--format", default="text", choices=("text", "json"))
    ev.add_argument("--tol", type=float, default=1e-14, help="series stopping tolerance")

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
    tb.add_argument("--form", default=None)
    tb.add_argument("--format", default="csv", choices=("csv", "json"))
    tb.add_argument("--out", default=None)
    tb.add_argument("--tol", type=float, default=1e-14)
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
        raise CliDomainError(f"{label} must be a finite real, got {raw!r}")
    if not math.isfinite(v):
        raise CliDomainError(f"{label} must be finite, got {raw!r}")
    return v


def _parse_triples(raws, label: str):
    out = []
    for raw in raws or ():
        parts = raw.split(",")
        if len(parts) != 3:
            raise CliDomainError(f"{label} expects 'v,scale,scale', got {raw!r}")
        out.append(tuple(_parse_float(label, s) for s in parts))
    return tuple(out)


def _require(args, name: str) -> float:
    raw = getattr(args, name)
    if raw is None:
        raise CliDomainError(f"--{name} is required for this function")
    return _parse_float(name, raw)


def _off_pole(params: PkParams, x: float) -> PkParams:
    rep = pole_check(params, x)
    if rep.is_pole:
        raise CliDomainError(f"pole at index {rep.pole_index}")
    return params


def _beta_args(args, params: PkParams, x: float) -> BetaArgs:
    return BetaArgs(x, _require(args, "y"), params)


def _poch_spec(args, params: PkParams, x: float) -> PochSpec:
    if args.n is None:
        raise CliDomainError("--n is required for poch")
    return PochSpec(x, args.n, params)


def _hyper_params(args) -> HyperParams:
    return HyperParams(upper=_parse_triples(args.a, "--a"), lower=_parse_triples(args.b, "--b"))


def _weierstrass(params: PkParams, x: float) -> GammaEval:
    recip = gamma_weierstrass_recip(params, x)
    return dataclasses.replace(recip, ln_value=-recip.ln_value)


# function -> route key -> adapter(args, params, x), the first key the default.
# Adapters look routes up as module globals at call time, so wrappers bound there run.
ROUTES = {
    "gamma": {
        "closed": lambda a, pk, x: gamma_closed(_off_pole(pk, x), x),
        "limit": lambda a, pk, x: gamma_limit(_off_pole(pk, x), x, 100_000),
        "integral": lambda a, pk, x: gamma_integral(_off_pole(pk, x), x),
        "euler-product": lambda a, pk, x: gamma_euler_product(_off_pole(pk, x), x),
        "weierstrass": lambda a, pk, x: _weierstrass(_off_pole(pk, x), x),
    },
    "beta": {
        "closed": lambda a, pk, x: beta_closed(_beta_args(a, pk, x)),
        **{
            form: lambda a, pk, x, form=form: beta_integral(_beta_args(a, pk, x), form)
            for form in BETA_FORMS
        },
    },
    "psi": {
        "closed": lambda a, pk, x: psi(_off_pole(pk, x), x),
        **{
            form: lambda a, pk, x, form=form: psi_series(pk, x, form)
            for form in PSI_SERIES_FORMS
        },
    },
    "poch": {
        "direct": lambda a, pk, x: poch_direct(_poch_spec(a, pk, x)),
        "symmetric": lambda a, pk, x: poch_symmetric(_poch_spec(a, pk, x)),
        "reduce": lambda a, pk, x: poch_reduce(_poch_spec(a, pk, x)),
        "gamma-ratio": lambda a, pk, x: poch_gamma_ratio(_poch_spec(a, pk, x)),
        "generalized": lambda a, pk, x: poch_generalized(_poch_spec(a, pk, x), a.q),
    },
    "hyper": {
        "series": lambda a, pk, x: hyper_series(_hyper_params(a), x, tol=a.tol),
        "integral": lambda a, pk, x: confluent_integral(_hyper_params(a), x),
    },
    "polygamma": {
        "series": lambda a, pk, x: polygamma(pk, x, a.r if a.r is not None else 2),
    },
}

# what an eval or table command reports as a domain error (exit 2)
_DOMAIN_ERRORS = (CliDomainError, PoleError, DomainError, DivergentInput, LowerPoleError,
                 UnsupportedShape, NoConvergence, MaxTermsExceeded)


def _route(args) -> str:
    """The route key: --form if given, else --method, else the function's default."""
    routes = ROUTES[args.function]
    key = args.form or args.method or next(iter(routes))
    if key not in routes:
        raise CliDomainError(f"{args.function} methods are {tuple(routes)}")
    return key


def _value_err(args, result) -> tuple[float, float | None]:
    """A route result as (value, abs_err); abs_err is None for a Gamma past the double range."""
    if isinstance(result, GammaEval):
        value = result.value
        return value, abs(value) * result.abs_err_ln if math.isfinite(value) else None
    if isinstance(result, EvalReal):
        return result.value, result.abs_err
    # the Pochhammer routes return a bare float with no error estimate
    return result, abs(result) * 1e-15 * (args.n + 1)


def _cmd_eval(args) -> int:
    try:
        x = _require(args, "x")
        key = _route(args)
        result = ROUTES[args.function][key](args, PkParams(args.p, args.k), x)
    except _DOMAIN_ERRORS as exc:
        reason = getattr(exc, "reason", str(exc))
        if args.format == "json":
            print(json.dumps({"error": "domain", "reason": reason}))
        else:
            print(f"error: {reason}", file=sys.stderr)
        return EXIT_DOMAIN
    value, abs_err = _value_err(args, result)
    method = result.method.value if isinstance(result, (GammaEval, EvalReal)) else key
    doc = {"value": value, "abs_err": abs_err, "method": method}
    if isinstance(result, GammaEval):  # past the double range: only the log and the sign
        doc.update(value=None if abs_err is None else value, ln_value=result.ln_value,
                   sign=result.sign)
    inputs = {"function": args.function, "p": args.p, "k": args.k, "x": x}
    for extra in ("y", "n", "r"):
        v = getattr(args, extra)
        if v is not None:
            inputs[extra] = float(v) if extra == "y" else v
    if args.format == "json":
        print(json.dumps({**doc, "inputs": inputs}, sort_keys=True))
    else:
        if doc["value"] is None:
            print(f"value   = overflow; ln|value| = {doc['ln_value']:.17g}, sign {doc['sign']:+d}")
        else:
            print(f"value   = {doc['value']:.17g}")
        if abs_err is not None:
            print(f"abs_err = {abs_err:.3g}")
        print(f"method  = {doc['method']}")
    return EXIT_OK


def _parse_tol_overrides(raw: str | None, audited: set[str]) -> dict[str, float]:
    if not raw:
        return {}
    out = {}
    for chunk in raw.split(","):
        if "=" not in chunk:
            raise CliDomainError(f"tolerance override needs 'id=value', got {chunk!r}")
        key, val = (part.strip() for part in chunk.split("=", 1))
        if key not in audited:
            raise CliDomainError(f"identity {key!r} is not audited by this suite")
        out[key] = _parse_float(f"tolerance for identity {key!r}", val)
        if out[key] <= 0:
            raise CliDomainError(f"tolerance for identity {key!r} must be positive, got {val!r}")
    return out


def _cmd_audit(args) -> int:
    from .identities import AuditGrid, catalog_for_suite

    try:
        overrides = _parse_tol_overrides(args.tol, {c.identity_id for c in catalog_for_suite(args.suite)})
    except CliDomainError as exc:
        print(f"error: {exc.reason}", file=sys.stderr)
        return EXIT_USAGE

    grid = AuditGrid.default() if args.grid == "default" else AuditGrid.small()
    report = run_suite(args.suite, grid, overrides)
    if args.out:
        try:
            write_report(report, args.out)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_IO
    if args.format == "json":
        print(json.dumps(report_to_dict(report)["summary"], sort_keys=True, indent=2))
    else:
        print(format_summary(report))
    return EXIT_OK if report.all_corrected_pass else EXIT_DOMAIN


MAX_ROWS = 1_000_000


def _parse_sweep(raw: str) -> list[float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise CliDomainError(f"sweep expects 'start:stop:step', got {raw!r}")
    a, b, step = (_parse_float("sweep", s) for s in parts)
    if step <= 0:
        raise CliDomainError("sweep step must be positive")
    if b < a:
        raise CliDomainError("sweep range is empty")
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    if count > MAX_ROWS:
        raise CliDomainError(f"sweep would produce {count} rows (limit {MAX_ROWS})")
    return [a + i * step for i in range(count)]


def _cmd_table(args) -> int:
    sweep_var = next((name for name in ("x", "y") if ":" in (getattr(args, name) or "")), None)
    try:
        if sweep_var is None:
            raise CliDomainError("one of --x/--y must be a sweep 'start:stop:step'")
        values = _parse_sweep(getattr(args, sweep_var))
    except CliDomainError as exc:
        print(f"error: {exc.reason}", file=sys.stderr)
        return EXIT_USAGE
    try:
        route = ROUTES[args.function][_route(args)]
    except CliDomainError as exc:
        print(f"error: {exc.reason}", file=sys.stderr)
        return EXIT_DOMAIN
    csv = args.format == "csv"
    rows = ["x,value,abs_err\n"] if csv else []
    v = values[0]
    try:
        x = _require(args, "x") if sweep_var == "y" else None
        params = PkParams(args.p, args.k)
        for v in values:
            setattr(args, sweep_var, v)  # the beta adapter reads args.y
            value, err = _value_err(args, route(args, params, x if sweep_var == "y" else v))
            err = err or 0.0  # a Gamma past the double range: signed inf, abs_err 0
            rows.append(f"{v:.17g},{value:.17g},{err:.17g}\n" if csv
                        else {"x": v, "value": value, "abs_err": err})
    except _DOMAIN_ERRORS as exc:
        reason = getattr(exc, "reason", str(exc))
        print(f"error at {sweep_var}={v}: {reason}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot open output: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        out.writelines(rows if csv else [json.dumps(rows) + "\n"])
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
