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
The identity catalog (``identities``, ``records``) loads only where an audit
runs, so no ``eval`` or ``table`` process imports it.  The value types
(``PkParams``, ``EvalReal``, ``GammaEval`` and the rest) are immutable
namedtuples that validate in ``__new__``, so ``eval`` and ``table``
processes import neither ``dataclasses`` nor ``inspect``.  Every route and
value type converts each real argument to a plain float and each count to a
plain int through ``core``, or raises ``DomainError``: a real is any finite
real number but a bool, numpy's scalars included; a count any integer but a bool.
"""

from .core import (
    EULER_GAMMA,
    DomainError,
    EvalReal,
    GammaEval,
    Method,
    OverflowNote,
    PkParams,
    PoleError,
    digamma_classical,
    ln_gamma_classical,
)
from .quadrature import NoConvergence, QuadratureSpec, integrate_semiaxis, integrate_unit
from .pochhammer import (
    PochSpec,
    poch_direct,
    poch_dk,
    poch_dp,
    poch_gamma_ratio,
    poch_generalized,
    poch_ln,
    poch_reduce,
    poch_rescale,
    poch_symmetric,
)
from .gamma import (
    gamma_closed,
    gamma_euler_product,
    gamma_integral,
    gamma_limit,
    gamma_limit_product_recip,
    gamma_weierstrass_recip,
)
from .betapsi import (
    BetaArgs,
    beta_closed,
    beta_integral,
    k_zeta,
    ln_gamma_via_psi,
    polygamma,
    psi,
    psi_series,
)
from .hyper import (
    ConvergenceClass,
    ConvergenceKind,
    DivergentInput,
    HyperParams,
    LowerPoleError,
    MaxTermsExceeded,
    UnsupportedShape,
    classify,
    confluent_integral,
    hyper_series,
    ode_coefficient_residual,
    pk_binomial,
)
from .audit import AuditReport, run_suite, validate_report, write_report

__version__ = "0.1.0"

# the audit catalog loads on first use: eval and table processes never import it
_AUDIT_NAMES = {"AuditGrid": "identities", "check_point": "identities",
                "AuditSummary": "records", "IdentityRecord": "records"}


def __getattr__(name: str):
    if name not in _AUDIT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_AUDIT_NAMES[name]}", __name__), name)
