"""Exception types shared across the package.

Everything that rejects bad input derives from ValueError so callers can
catch broadly, while the CLI maps the specific classes onto exit codes.
`_check_int` is the one validator of integer parameters.
"""
from __future__ import annotations

from numbers import Integral

__all__ = [
    "DomainError",
    "ParameterRangeError",
    "PoleProximityError",
    "EmptySumError",
    "IncompleteInputError",
    "NonConvergenceError",
]


class DomainError(ValueError):
    """An abscissa lies outside the supported region of the real line."""


class ParameterRangeError(ValueError):
    """An integer parameter (fold count, interval index, ...) is out of range."""


class PoleProximityError(ValueError):
    """A requested abscissa falls within the guard radius of a pole 1/k."""

    def __init__(self, k: int, order: int, s: float | None = None):
        self.k = k
        self.order = order
        self.s = s
        where = f" (s = {s!r})" if s is not None else ""
        super().__init__(f"pole at 1/{k} of order {order}{where}")


class EmptySumError(ValueError):
    """A truncated sum was requested with fewer terms than summation indices."""


class IncompleteInputError(ValueError):
    """A per-interval map does not cover exactly the intervals it must."""


class NonConvergenceError(ArithmeticError):
    """A Chebyshev proxy did not resolve, a proxy count failed its
    self-consistency test, or a value lies below the double range."""


def _check_int(value, what: str, lo: int, hi: int | None = None) -> int:
    """value as a Python int if it is an integer (numpy's too, not a bool)
    in [lo, hi], or >= lo without hi; otherwise raise ParameterRangeError,
    its message led by `what`."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        if lo <= value and (hi is None or value <= hi):
            return int(value)
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ParameterRangeError(f"{what} must be an integer {bound}, got {value!r}")
