"""Arithmetic side of the zero census.

The conjectured number of inter-asymptotic zeros in (1/k, 1/(k-1)) is
floor(r/k); summed over k = 2..r this gives F(r), which equals the divisor
summatory function minus r and grows like r ln r - 2(1 - gamma) r.  This
module computes both sides of that identity independently (floor-division
sums on one side, trial-division divisor counts on the other) and packages
comparisons against empirical scan counts.  `iaz_predicted_range` folds
its floor-division sums by Dirichlet's hyperbola, O(R^(3/2)) for all
r <= R; it still uses floor divisions only, never the divisor path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import IncompleteInputError, ParameterRangeError, _check_int

__all__ = [
    "EULER_GAMMA",
    "IntervalCount",
    "CensusReport",
    "divisor_count",
    "iaz_predicted",
    "iaz_predicted_range",
    "divisor_identity_check",
    "iaz_asymptotic",
    "delta_F",
    "delta_F_direct",
    "census_report",
]

EULER_GAMMA = 0.5772156649015329


def divisor_count(n: int) -> int:
    """Number of positive divisors of n, by trial division up to sqrt(n)."""
    n = _check_int(n, "argument", 1)
    count = 0
    root = math.isqrt(n)
    for i in range(1, root + 1):
        if n % i == 0:
            count += 2
    if root * root == n:
        count -= 1
    return count


def iaz_predicted(r: int) -> int:
    """Conjectured total zero count F(r) = sum_{k=2}^{r} floor(r/k)."""
    r = _check_int(r, "fold count", 1)
    return int(np.sum(r // np.arange(2, r + 1)))


def iaz_predicted_range(r_max: int) -> np.ndarray:
    """F(r) for r = 0..r_max as an int64 array (F(0) = F(1) = 0).

    Each entry is the floor-division sum sum_{k=1}^{r} floor(r/k) - r,
    folded by Dirichlet's hyperbola: sum_{k<=r} floor(r/k) =
    2 sum_{k<=sqrt(r)} floor(r/k) - floor(sqrt(r))^2.  One floor division
    per k <= sqrt(r_max) over the tail r >= k^2, where floor(sqrt(r)) >= k,
    so the cost is O(r_max^(3/2)) in O(r_max) memory.  Nothing is derived
    from the divisor function, so the identity tests compare independent
    paths.
    """
    r_max = _check_int(r_max, "upper bound", 1)
    r = np.arange(r_max + 1, dtype=np.int64)
    out = -r
    for k in range(1, math.isqrt(r_max) + 1):
        # 2 floor(r/k), less k^2 - (k-1)^2 so that the k terms add up
        # to floor(sqrt(r))^2.
        out[k * k:] += 2 * (r[k * k:] // k) - (2 * k - 1)
    return out


def _divisor_total(r: int) -> int:
    """sum_{l<=r} d(l) by trial division, one vectorised divisibility
    test per i <= sqrt(r): each divisor i <= sqrt(l) of l pairs with
    l/i >= sqrt(l), and a square's root pairs with itself."""
    ell = np.arange(1, r + 1, dtype=np.int64)
    root = math.isqrt(r)
    pairs = sum(
        int(np.count_nonzero(ell[i * i - 1:] % i == 0)) for i in range(1, root + 1)
    )
    return 2 * pairs - root


def divisor_identity_check(r: int) -> bool:
    """Exact check of F(r) = (sum_{l<=r} d(l)) - r."""
    r = _check_int(r, "fold count", 1)
    return iaz_predicted(r) == _divisor_total(r) - r


def iaz_asymptotic(r: int) -> float:
    """Leading asymptotic of the total count: r ln r - 2 (1 - gamma) r."""
    r = _check_int(r, "fold count", 2)
    return r * math.log(r) - 2.0 * (1.0 - EULER_GAMMA) * r


def delta_F(r: int) -> int:
    """Increment of the conjectured count: F(r) - F(r-1) = d(r) - 1,
    evaluated through the divisor function."""
    r = _check_int(r, "fold count", 2)
    return divisor_count(r) - 1


def delta_F_direct(r: int) -> int:
    """The same increment evaluated directly as F(r) - F(r-1); kept as an
    independent cross-check of `delta_F`."""
    r = _check_int(r, "fold count", 2)
    return iaz_predicted(r) - iaz_predicted(r - 1)


@dataclass(frozen=True)
class IntervalCount:
    """Empirical versus conjectured count for one interval."""

    k: int
    empirical: int
    conjectured: int
    agree: bool


@dataclass(frozen=True)
class CensusReport:
    """Comparison of an empirical zero census against the arithmetic side.

    Never asserts the conjecture: `agree` flags are advisory, and the exact
    identity predicted_total == divisor_total is the only hard invariant.
    """

    r: int
    per_interval: tuple[IntervalCount, ...]
    empirical_total: int
    predicted_total: int
    divisor_total: int
    asymptotic_estimate: float
    residual: float

    def __post_init__(self):
        if self.predicted_total != self.divisor_total:
            raise ParameterRangeError(
                "divisor-sum identity violated: "
                f"{self.predicted_total} != {self.divisor_total}"
            )

    @property
    def all_agree(self) -> bool:
        return all(item.agree for item in self.per_interval)


def census_report(r: int, empirical: Mapping[int, int]) -> CensusReport:
    """Assemble the per-interval comparison for fold count r.

    `empirical` must map every interval index k = 2..r (and nothing else)
    to the scanned zero count, an int or numpy integer >= 0.
    """
    r = _check_int(r, "fold count", 2)
    expected_keys = set(range(2, r + 1))
    keys = set(empirical.keys())
    if keys != expected_keys:
        missing = sorted(expected_keys - keys)
        extra = sorted(keys - expected_keys)
        raise IncompleteInputError(
            f"interval map must cover exactly k = 2..{r}; "
            f"missing {missing}, unexpected {extra}"
        )
    counts = {k: _check_int(n, f"zero count of interval {k}", 0) for k, n in empirical.items()}
    per_interval = tuple(
        IntervalCount(k=k, empirical=counts[k], conjectured=r // k, agree=counts[k] == r // k)
        for k in range(r, 1, -1)
    )
    empirical_total = sum(item.empirical for item in per_interval)
    predicted_total = iaz_predicted(r)
    divisor_total = _divisor_total(r) - r
    estimate = iaz_asymptotic(r)
    return CensusReport(
        r=r,
        per_interval=per_interval,
        empirical_total=empirical_total,
        predicted_total=predicted_total,
        divisor_total=divisor_total,
        asymptotic_estimate=estimate,
        residual=predicted_total - estimate,
    )
