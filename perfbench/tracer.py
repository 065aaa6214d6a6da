"""In-process spans around pkspecial's layers, installed from outside.

The tracer never edits the library.  ``install`` replaces each traced public
function with a wrapper at every module attribute that refers to it, i.e. at
the names callers look up (``pkspecial.gamma.gamma_limit``,
``pkspecial.cli.gamma_closed``, ``pkspecial.gamma.integrate_semiaxis`` ...).
Identity generators are wrapped by swapping the catalog tuple that
``catalog_for_suite`` reads.  Quadrature integrands are wrapped per call to
count the array elements they evaluate.

Spans (name, parent, start, end) and counters stay in memory and are written
to a sidecar JSON file by ``Tracer.write`` when the process ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time

_now = time.perf_counter_ns

# (module, function) -> span name; the three form-dispatching routes get a
# per-form name from their ``form`` argument.
ROUTE_SPANS = {
    ("gamma", "gamma_closed"): "gamma.closed",
    ("gamma", "gamma_limit"): "gamma.limit",
    ("gamma", "gamma_integral"): "gamma.integral",
    ("gamma", "gamma_euler_product"): "gamma.euler_product",
    ("gamma", "gamma_weierstrass_recip"): "gamma.weierstrass",
    ("gamma", "gamma_limit_product_recip"): "gamma.limit_product_recip",
    ("pochhammer", "poch_direct"): "pochhammer.direct",
    ("pochhammer", "poch_symmetric"): "pochhammer.symmetric",
    ("pochhammer", "poch_reduce"): "pochhammer.reduce",
    ("pochhammer", "poch_gamma_ratio"): "pochhammer.gamma_ratio",
    ("pochhammer", "poch_generalized"): "pochhammer.generalized",
    ("betapsi", "beta_closed"): "betapsi.beta_closed",
    ("betapsi", "beta_integral"): "betapsi.beta_{form}",
    ("betapsi", "psi"): "betapsi.psi",
    ("betapsi", "psi_series"): "betapsi.psi_series_{form}",
    ("betapsi", "polygamma"): "betapsi.polygamma",
    ("betapsi", "ln_gamma_via_psi"): "betapsi.ln_gamma_via_psi",
    ("hyper", "hyper_series"): "hyper.series",
    ("hyper", "confluent_integral"): "hyper.confluent_integral",
    ("audit", "run_suite"): "audit.run_suite",
    ("audit", "report_to_dict"): "audit.report_to_dict",
    ("audit", "canonical_json"): "audit.canonical_json",
    ("audit", "write_report"): "audit.write",
    ("cli", "main"): "cli.main",
}
# default ``form`` of beta_integral and psi_series, and its argument position
_FORM_DEFAULTS = {"beta_integral": ("unit", 1), "psi_series": ("3.9", 2)}
QUADRATURE = (("quadrature", "integrate_unit"), ("quadrature", "integrate_semiaxis"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name_id, parent index or -1, start_ns, end_ns]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        self.spans.append([nid, self._stack[-1] if self._stack else -1, _now(), 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = _now()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str):
        form = _FORM_DEFAULTS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if form is not None:
                default, pos = form
                span = name.format(form=kwargs.get("form", args[pos] if len(args) > pos else default))
            idx = self._open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_quadrature(self, fn):
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            def integrand(t):
                self.count("quadrature.integrand_nodes", len(t))
                idx = self._open("quadrature.integrand")
                try:
                    return f(t)
                finally:
                    self._close(idx)

            idx = self._open("quadrature")
            try:
                return fn(integrand, *args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "NoConvergence":
                    self.count("quadrature.no_convergence")
                raise
            finally:
                self._close(idx)

        return traced

    def wrap_identity(self, run, name: str):
        @functools.wraps(run)
        def traced(grid, tol):
            records = run(grid, tol)
            while True:
                idx = self._open(name)
                try:
                    rec = next(records)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield rec

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)


def _rebind(original, wrapper) -> None:
    """Point every pkspecial module attribute that names ``original`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "pkspecial" or mod_name.startswith("pkspecial."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap pkspecial's routes, quadrature, audit, CLI entry and catalog runs."""
    import pkspecial.cli  # noqa: F401  (imports every layer)
    from pkspecial import identities

    def module(name):
        return sys.modules["pkspecial." + name]

    for (mod, fn), name in ROUTE_SPANS.items():
        original = getattr(module(mod), fn)
        _rebind(original, tracer.wrap(original, name))
    for mod, fn in QUADRATURE:
        original = getattr(module(mod), fn)
        _rebind(original, tracer.wrap_quadrature(original))
    identities.CATALOG = tuple(
        dataclasses.replace(c, run=tracer.wrap_identity(c.run, f"identities.{c.identity_id}"))
        for c in identities.CATALOG
    )


def summarize(sidecar: dict) -> dict:
    """Per span name: call count, inclusive and self nanoseconds, and durations.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, so children never overlap.
    """
    names, spans = sidecar["names"], sidecar["spans"]
    child_ns = [0] * len(spans)
    for nid, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (nid, _, start, end) in enumerate(spans):
        s = out.setdefault(names[nid], {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []})
        dur = end - start
        s["calls"] += 1
        s["total_ns"] += dur
        s["self_ns"] += dur - child_ns[i]
        s["durations_ns"].append(dur)
    return out
