"""Multiple zeta-functions with identical arguments on the positive real
line: evaluation, zero and extremum location, pole asymptotics, and the
zero-census arithmetic, plus a deterministic CLI (`mzr`)."""

from .errors import (
    DomainError,
    EmptySumError,
    IncompleteInputError,
    NonConvergenceError,
    ParameterRangeError,
    PoleProximityError,
)
from .riemann_kernel import (
    M_MAX,
    POLE_GUARD_RADIUS,
    bernoulli,
    riemann_zeta,
    riemann_zeta_alternating,
)
from .multizeta import (
    R_MAX,
    closed_form,
    multizeta,
    multizeta_grid,
    nearest_pole,
    truncated_euler_zagier,
)
from .asymptotics import (
    NUMERIC_R_MAX,
    PoleSpec,
    coefficient_closed_form,
    coefficient_numeric,
    coefficient_recursive,
    periodicity_check,
    pole_side_signs,
    pole_spec,
)
from .zero_finder import (
    BRACKET_WIDTH,
    SCAN_R_MAX,
    ExtremumRecord,
    IntervalScan,
    ZeroRecord,
    delta_exclusion,
    find_extrema,
    scan_interval,
)
from .census import (
    EULER_GAMMA,
    CensusReport,
    IntervalCount,
    census_report,
    delta_F,
    delta_F_direct,
    divisor_count,
    divisor_identity_check,
    iaz_asymptotic,
    iaz_predicted,
    iaz_predicted_range,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DomainError",
    "EmptySumError",
    "IncompleteInputError",
    "NonConvergenceError",
    "ParameterRangeError",
    "PoleProximityError",
    # riemann_kernel
    "M_MAX",
    "POLE_GUARD_RADIUS",
    "bernoulli",
    "riemann_zeta",
    "riemann_zeta_alternating",
    # multizeta
    "R_MAX",
    "closed_form",
    "multizeta",
    "multizeta_grid",
    "nearest_pole",
    "truncated_euler_zagier",
    # asymptotics
    "NUMERIC_R_MAX",
    "PoleSpec",
    "coefficient_closed_form",
    "coefficient_numeric",
    "coefficient_recursive",
    "periodicity_check",
    "pole_side_signs",
    "pole_spec",
    # zero_finder
    "BRACKET_WIDTH",
    "SCAN_R_MAX",
    "ExtremumRecord",
    "IntervalScan",
    "ZeroRecord",
    "delta_exclusion",
    "find_extrema",
    "scan_interval",
    # census
    "EULER_GAMMA",
    "CensusReport",
    "IntervalCount",
    "census_report",
    "delta_F",
    "delta_F_direct",
    "divisor_count",
    "divisor_identity_check",
    "iaz_asymptotic",
    "iaz_predicted",
    "iaz_predicted_range",
]
