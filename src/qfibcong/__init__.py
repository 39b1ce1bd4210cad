"""q-Fibonacci congruence toolkit.

Evaluates the q-Fibonacci sequence along several independent routes,
verifies the index-shift congruence F_p(alpha) = F_{I_p(alpha) +- 1} mod p
over prime ranges, certifies positivity of the associated index densities
with exact rational arithmetic, and tabulates occurrence statistics.
"""

__version__ = "0.1.0"

from .congruence import (
    CongruenceRecord,
    Reason,
    ResidualData,
    ScanReport,
    qfib_mod_proposition,
    residual_data,
    scan_range,
    verify_theorem,
)
from .density import (
    DeltaEstimate,
    VCount,
    delta_truncated,
    v_count,
)
from .errors import (
    DomainError,
    InternalInvariantViolation,
    QFibError,
    TheoremViolation,
)
from .modarith import (
    euler_phi,
    factorize,
    is_prime,
    kronecker,
    lsym5,
    multiplicative_order,
    prime_sieve,
    reduce_rational,
)
from .qfib import (
    fib,
    fib_mod,
    qfib_mod_andrews,
    qfib_mod_recurrence,
    qfib_poly,
)
from .report import check_report, write_csv, write_json
from .stats import OccurrenceReport, occurrence_histogram

__all__ = [
    "CongruenceRecord",
    "DeltaEstimate",
    "DomainError",
    "InternalInvariantViolation",
    "OccurrenceReport",
    "QFibError",
    "Reason",
    "ResidualData",
    "ScanReport",
    "TheoremViolation",
    "VCount",
    "check_report",
    "delta_truncated",
    "euler_phi",
    "factorize",
    "fib",
    "fib_mod",
    "is_prime",
    "kronecker",
    "lsym5",
    "multiplicative_order",
    "occurrence_histogram",
    "prime_sieve",
    "qfib_mod_andrews",
    "qfib_mod_proposition",
    "qfib_mod_recurrence",
    "qfib_poly",
    "reduce_rational",
    "residual_data",
    "scan_range",
    "v_count",
    "verify_theorem",
    "write_csv",
    "write_json",
]
