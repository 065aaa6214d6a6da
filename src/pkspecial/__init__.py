"""Two-parameter (p-k) special functions with multi-route evaluation.

The family deforms the classical Gamma/Beta/Pochhammer/psi/hypergeometric
functions by a pair of positive scales (p, k); p = k recovers the
one-parameter k-deformation and p = k = 1 the classical functions.  Every
function ships with several independent evaluation routes, and an audit
engine verifies the catalog of defining identities numerically over
parameter grids, reporting printed-vs-corrected outcomes for the handful of
relations whose customary statements need a fixup to be self-consistent.

numpy is imported inside the functions that use arrays, never at module
scope, and outside an audit only the quadrature routes use them: the closed
forms, the defining limit, the product and psi-series routes and
``polygamma`` are pure ``math``, and a process calling only them
(``pkspecial eval`` on any but an integral route) skips numpy's import.
The seven layers (``core``, ``quadrature``, ``pochhammer``, ``gamma``,
``betapsi``, ``hyper``, ``audit``) are registered in ``sys.modules`` and
bound on the package through ``importlib.util.LazyLoader``: a layer's body
runs on the first attribute looked up on it, so ``pkspecial eval gamma``
runs ``core``, ``gamma`` and ``cli`` only.  Every public name, listed in
``__all__``, comes from ``_EXPORTS`` through ``__getattr__``.  The identity
catalog (``identities``) is not registered: it is imported where an audit
runs, so no ``eval`` or ``table`` process imports it.  The
value types (``PkParams``, ``EvalReal``, ``GammaEval`` and the rest) are
immutable namedtuples that validate in ``__new__``, so ``eval`` and
``table`` processes import neither ``dataclasses`` nor ``inspect``.  Every
route and value type converts each real argument to a plain float and each
count to a plain int through ``core``, or raises ``DomainError``: a real is
any finite real number but a bool, numpy's scalars included; a count any
integer but a bool.
"""

__version__ = "0.1.0"

# public name -> the module that defines it; the root serves each one through __getattr__
_EXPORTS = {
    "core": "EULER_GAMMA DivergentInput DomainError EvalReal GammaEval LowerPoleError MaxTermsExceeded Method "
            "NoConvergence OverflowNote PkParams PoleError UnsupportedShape digamma_classical ln_gamma_classical",
    "quadrature": "QuadratureSpec integrate_semiaxis integrate_unit",
    "pochhammer": "PochSpec poch_direct poch_dk poch_dp poch_gamma_ratio poch_generalized poch_ln poch_reduce "
                  "poch_rescale poch_symmetric",
    "gamma": "gamma_closed gamma_euler_product gamma_integral gamma_limit gamma_limit_product_recip "
             "gamma_weierstrass_recip",
    "betapsi": "BetaArgs beta_closed beta_integral k_zeta ln_gamma_via_psi polygamma psi psi_series",
    "hyper": "ConvergenceClass ConvergenceKind HyperParams classify confluent_integral hyper_series "
             "ode_coefficient_residual pk_binomial",
    "audit": "AuditReport AuditSummary IdentityRecord run_suite validate_report write_report",
    # the audit catalog, imported on first use: eval and table processes never load it
    "identities": "AuditGrid check_point",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def _register_layers() -> None:
    """Put each layer in sys.modules and on the package; its body runs on first attribute use."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    for name in ("core", "quadrature", "pochhammer", "gamma", "betapsi", "hyper", "audit"):
        spec = find_spec(f"{__name__}.{name}")
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[name] = module


_register_layers()


def __dir__():
    return sorted({*globals(), *__all__})


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
