"""Pole structure of the r-fold functions: locations, orders, and the
leading constants C_r(k) in zeta_r(s) ~ C_r(k) (k s - 1)^(-floor(r/k)).

Three routes to the same constant are kept deliberately separate:

* `coefficient_closed_form` -- the explicit formulas (factorials, powers
  of k, and a single lower-fold value at 1/k);
* `coefficient_recursive`   -- the recursion the closed forms are proved
  from, restricted to terms sharing the maximal pole order;
* `coefficient_numeric`     -- the ends of the zeros' Chebyshev proxy,
  which cancels the poles at both ends of an interval: no formula input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterRangeError, _check_int
from .multizeta import R_MAX, multizeta
from .riemann_kernel import riemann_zeta
from .zero_finder import SCAN_R_MAX, _pole_constants

__all__ = [
    "PoleSpec",
    "pole_spec",
    "coefficient_closed_form",
    "coefficient_recursive",
    "coefficient_numeric",
    "periodicity_check",
    "pole_side_signs",
]


def _check_rk(r: int, k: int) -> tuple[int, int]:
    return _check_int(r, "fold count", 1, R_MAX), _check_int(k, "pole index", 1, r)


@dataclass(frozen=True)
class PoleSpec:
    """One asymptote of the r-fold function."""

    r: int
    k: int
    location: float
    order: int
    constant: float
    sign: int

    def __post_init__(self):
        _check_rk(self.r, self.k)
        if self.order != self.r // self.k:
            raise ParameterRangeError(
                f"order {self.order} inconsistent with floor({self.r}/{self.k})"
            )
        if self.sign not in (-1, 1) or self.sign * self.constant <= 0.0:
            raise ParameterRangeError(
                "sign must be +/-1 and agree with the constant"
            )


def coefficient_closed_form(r: int, k: int) -> float:
    """C_r(k) from the explicit formulas.

    Writing r = k*q + l with 0 <= l < k:
      k = 1        ->  1/r!
      l = 0        ->  (-1)^((k-1)q) / (k^q q!)
      1 <= l < k   ->  the l = 0 value times the l-fold function at 1/k
    (for q = 1 the last case is ((-1)^(k-1)/k) times the (r-k)-fold value).
    """
    r, k = _check_rk(r, k)
    if k == 1:
        return 1.0 / math.factorial(r)
    q, ell = divmod(r, k)
    lead = (-1.0) ** ((k - 1) * q) / (k ** q * math.factorial(q))
    if ell == 0:
        return lead
    return lead * multizeta(ell, 1.0 / k)


def coefficient_recursive(r: int, k: int) -> float:
    """C_r(k) by the order-preserving recursion, independent of the closed
    forms:

        r C_r(k) = sum*_j (-1)^(j-1) zeta(j/k) C_{r-j}(k) + (-1)^(k-1) D,

    where sum* keeps 1 <= j <= r-k with j != k and floor((r-j)/k) equal to
    floor(r/k), and D is C_{r-k}(k) when k <= r/2, the (r-k)-fold value at
    1/k when r/2 < k < r, and 1 when k = r.
    """
    r, k = _check_rk(r, k)
    zeta_cache: dict[int, float] = {}

    def zeta_at(j: int) -> float:
        if j not in zeta_cache:
            zeta_cache[j] = riemann_zeta(j / k)
        return zeta_cache[j]

    memo: dict[int, float] = {}

    def level(rr: int) -> float:
        # C_rr(k) for k <= rr <= r with floor(rr/k) tracking its own order.
        if rr in memo:
            return memo[rr]
        own_order = rr // k
        acc = 0.0
        for j in range(1, rr - k + 1):
            if j == k or (rr - j) // k != own_order:
                continue
            acc += (-1.0) ** (j - 1) * zeta_at(j) * level(rr - j)
        if rr == k:
            tail = 1.0
        elif rr >= 2 * k:
            tail = level(rr - k)
        else:
            tail = multizeta(rr - k, 1.0 / k)
        out = (acc + (-1.0) ** (k - 1) * tail) / rr
        memo[rr] = out
        return out

    return level(r)


def coefficient_numeric(r: int, k: int) -> float:
    """C_r(k) read off the zeros' Chebyshev proxy of an interval, for
    r <= SCAN_R_MAX: the r-fold function with the poles at both ends
    cancelled, so analytic on the closed interval, whose series at an end
    gives that end's constant once the cancelled factors are divided out
    (see `zero_finder.scan_interval`): the first `_pole_constants` reading,
    from the lower end of (1/k, 1/(k-1)) for k >= 2, or for C_r(1) the
    upper end of (1/2, 1).  Raises NonConvergenceError when the proxy does
    not resolve, rather than returning a doubtful number.
    """
    r = _check_int(r, "fold count", 1, SCAN_R_MAX)
    k = _check_int(k, "pole index", 1, r)
    return _pole_constants([(r, max(k, 2))])[r, k][0]


def pole_spec(r: int, k: int) -> PoleSpec:
    """Assemble the full record for the pole of the r-fold function at 1/k."""
    r, k = _check_rk(r, k)
    order = r // k
    constant = coefficient_closed_form(r, k)
    sign = (-1) ** (r + order)
    return PoleSpec(
        r=r, k=k, location=1.0 / k, order=order, constant=constant, sign=sign
    )


def periodicity_check(k: int, q_max: int) -> bool:
    """Verify the modular pattern of the constants: for 1 <= q < q_max and
    0 <= l < k,

        C_{kq+l}(k) / C_{k(q+1)+l}(k) = (-1)^(k-1) k (q+1)

    to relative 1e-12.  Returns whether every ratio passes.
    """
    k = _check_int(k, "modulus", 2)
    q_max = _check_int(q_max, "need at least two repetitions to compare: q_max", 2)
    if k * (q_max + 1) - 1 > R_MAX:
        raise ParameterRangeError(
            f"k*(q_max+1)-1 = {k * (q_max + 1) - 1} exceeds the fold cap {R_MAX}"
        )
    for q in range(1, q_max):
        expected = (-1.0) ** (k - 1) * k * (q + 1)
        for ell in range(k):
            hi = coefficient_closed_form(k * (q + 1) + ell, k)
            lo = coefficient_closed_form(k * q + ell, k)
            ratio = lo / hi
            if abs(ratio - expected) > 1e-12 * abs(expected):
                return False
    return True


def pole_side_signs(r: int, k: int, eps: float = 1e-4) -> tuple[int, int]:
    """Signs of the r-fold function sampled at 1/k - eps and 1/k + eps.

    For an even-order pole both signs match; for odd order they differ.
    """
    r, k = _check_rk(r, k)
    if not 0.0 < eps < 1e-3:
        raise ParameterRangeError("side step must lie in (0, 1e-3)")
    left = multizeta(r, 1.0 / k - eps)
    right = multizeta(r, 1.0 / k + eps)
    return (1 if left > 0 else -1, 1 if right > 0 else -1)
