"""Two-parameter (p-k) special functions with multi-route evaluation.

The family deforms the classical Gamma/Beta/Pochhammer/psi/hypergeometric
functions by a pair of positive scales (p, k); p = k recovers the
one-parameter k-deformation and p = k = 1 the classical functions.  Every
function ships with several independent evaluation routes, and an audit
engine verifies the catalog of defining identities numerically over
parameter grids, reporting printed-vs-corrected outcomes for the handful of
relations whose customary statements need a fixup to be self-consistent.
"""

from .core import (
    EULER_GAMMA,
    TAU_POLE,
    DomainError,
    EvalReal,
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
    GammaEval,
    gamma_closed,
    gamma_euler_product,
    gamma_integral,
    gamma_limit,
    gamma_rescale,
    gamma_weierstrass_recip,
)
from .betapsi import (
    BetaArgs,
    PsiEval,
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
from .identities import AuditGrid, check_point
from .audit import AuditReport, run_suite, validate_report, write_report
from .records import AuditSummary, IdentityRecord

__version__ = "0.1.0"
