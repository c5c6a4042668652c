"""Multiple zeta-functions with identical arguments on the positive real
line: evaluation, zero and extremum location, pole asymptotics, and the
zero-census arithmetic, plus a deterministic CLI (`mzr`).

`import mzr` loads only what a value needs: the errors, the Riemann zeta
kernel and the r-fold evaluators.  The public names of `asymptotics`,
`zero_finder` and `census` resolve on first access (PEP 562), since no
value needs those modules.  Only a process that evaluates values and
never asks for a pole constant, a scan or a census starts sooner; any
other process pays each of those modules' import once, at its first
access, instead of at `import mzr`.  The README's "Library surface"
lists which calls load numpy.  `mzr.cli` imports every module up front.
"""

from importlib import import_module as _import_module

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

__version__ = "0.1.0"

# The submodule that defines each public name resolved on first access.
_LAZY = {
    name: module
    for module, names in {
        "asymptotics": ("PoleSpec", "coefficient_closed_form", "coefficient_numeric",
                        "coefficient_recursive", "periodicity_check", "pole_side_signs",
                        "pole_spec"),
        "zero_finder": ("BRACKET_WIDTH", "SCAN_R_MAX", "ExtremumRecord", "IntervalScan",
                        "ZeroRecord", "delta_exclusion", "find_extrema", "scan_interval"),
        "census": ("EULER_GAMMA", "CensusReport", "IntervalCount", "census_report",
                   "delta_F", "delta_F_direct", "divisor_count", "divisor_identity_check",
                   "iaz_asymptotic", "iaz_predicted", "iaz_predicted_range"),
    }.items()
    for name in names
}

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
    # asymptotics, zero_finder, census
    *_LAZY,
]


def __getattr__(name: str):
    """A lazy name, or one of its submodules, read from the submodule on
    every access: the package caches no binding that a patched or reloaded
    submodule no longer holds."""
    module = _LAZY.get(name)
    if module is None and name not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = _import_module(f".{module or name}", __name__)
    return found if module is None else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
