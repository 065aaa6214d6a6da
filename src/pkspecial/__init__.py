"""Two-parameter (p-k) special functions with multi-route evaluation.

The family deforms the classical Gamma/Beta/Pochhammer/psi/hypergeometric
functions by a pair of positive scales (p, k); p = k recovers the
one-parameter k-deformation and p = k = 1 the classical functions.  Every
function ships with several independent evaluation routes, and an audit
engine verifies the catalog of defining identities numerically over
parameter grids, reporting printed-vs-corrected outcomes for the handful of
relations whose customary statements need a fixup to be self-consistent.

numpy is imported inside the functions that use arrays, never at module
scope: closed-form routes and ``polygamma`` are pure ``math``, and a process
calling only them (``pkspecial eval`` on a default route) skips numpy's import.
The identity catalog (``identities``, ``records``) loads only where an audit
runs, so no ``eval`` or ``table`` process imports it.
"""

from .core import (
    EULER_GAMMA,
    TAU_POLE,
    DomainError,
    EvalReal,
    GammaEval,
    Method,
    OverflowNote,
    PkParams,
    PoleError,
    PoleReport,
    digamma_classical,
    ln_gamma_classical,
    pole_check,
    polygamma_classical,
)
from .quadrature import NoConvergence, QuadratureSpec, integrate_semiaxis, integrate_unit
from .pochhammer import (
    PochSpec,
    elementary_symmetric,
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
    gamma_rescale,
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
    HyperReduction,
    LowerPoleError,
    MaxTermsExceeded,
    UnsupportedShape,
    classify,
    confluent_integral,
    hyper_series,
    ode_coefficient_residual,
    ode_residual,
    pk_binomial,
    reduce_classical,
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
