"""Step-profile means of multiplicative drift, their first zeros, and
the sieve-side constructions that realize them.

Layering, each numerical module importing only from the ones named
before it: piecewise/grid are numerical substrate; dickman and sigma
solve the delay and integral equations; extremal reads first zeros off
those solutions, builds the cutoff profile chi_delta, integrates the
means and builds the summary tables; chi_renewal extends profiles past
the zero; constants collects the closed-form optimization targets;
oracle runs the integer-side experiments; verification and cli wrap
everything.
"""

from .chi_renewal import ExtendedChi, extend_chi, kernel_mass, verify_sigma_vanishes
from .constants import (
    AverageBoundResult,
    OrderConstant,
    UnitDiscBounds,
    deficiency_bound,
    optimize_average_bound,
    order3_profile_average,
    order4_bound,
    order_constant,
    unit_disc_bounds,
)
from .dickman import dde_residual_max, rho, rho_total_integral
from .extremal import (
    CLOSED_FORM_DELTA,
    RootNotFoundError,
    TableRow,
    chi_delta,
    compute_I,
    delta_for_U,
    find_U,
    gamma_odd_order,
    table_by_first_zero,
    table_by_order,
)
from .sigma import sigma_closed, sigma_dde, solve_volterra
from .verification import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "CLOSED_FORM_DELTA",
    "AverageBoundResult",
    "CheckResult",
    "ExtendedChi",
    "OrderConstant",
    "RootNotFoundError",
    "TableRow",
    "UnitDiscBounds",
    "chi_delta",
    "compute_I",
    "dde_residual_max",
    "deficiency_bound",
    "delta_for_U",
    "extend_chi",
    "find_U",
    "gamma_odd_order",
    "kernel_mass",
    "optimize_average_bound",
    "order3_profile_average",
    "order4_bound",
    "order_constant",
    "rho",
    "rho_total_integral",
    "run_checks",
    "sigma_closed",
    "sigma_dde",
    "solve_volterra",
    "table_by_first_zero",
    "table_by_order",
    "unit_disc_bounds",
    "verify_sigma_vanishes",
    "__version__",
]
