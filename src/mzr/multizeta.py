"""Euler-Zagier multiple zeta-functions with identical arguments.

zeta_r(s) = sum over 1 <= m_1 < ... < m_r of (m_1 ... m_r)^(-s) continues
to the positive real line through the Newton-identity recursion

    j * zeta_j(s) = sum_{i=1}^{j} (-1)^(i-1) zeta_{j-i}(s) zeta(i*s),

seeded with zeta_0 = 1.  For s <= 1 (and for r = 1) a scalar evaluation
runs it on one kernel pass.  Above s = 1 the recursion would cancel
O(1) terms down to values near (r!)^(-s), so there the sum is split at
N = r + 8 instead: zeta_r(s) = sum_j e_{r-j}(head) e_j(tail), with the
head's elementary symmetric functions of m^(-s), m < N, from the
all-positive product expansion, and the tail's from the recursion on the
small Euler-Maclaurin power sums sum_{m >= N} m^(-i s).  Closed forms for
r = 2, 3, 4 and a truncated-sum oracle over the absolutely convergent
region, the same product expansion over m <= n, are kept as cross-checks.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import (
    DomainError,
    EmptySumError,
    NonConvergenceError,
    PoleProximityError,
    _check_int,
)
from .riemann_kernel import POLE_GUARD_RADIUS, _tail, _zeta_multiples, _zeta_rows

__all__ = [
    "R_MAX",
    "multizeta",
    "multizeta_grid",
    "closed_form",
    "truncated_euler_zagier",
    "nearest_pole",
]

# Fold-count ceiling; the recursion is O(r^2) so this is far from a
# performance limit, it just bounds the pole bookkeeping.
R_MAX = 32


def nearest_pole(r: int, s: float) -> tuple[int, int] | None:
    """Return (k, order) if s lies within the guard radius of a pole 1/k of
    the r-fold function, else None."""
    for k in range(1, r + 1):
        if abs(s - 1.0 / k) < POLE_GUARD_RADIUS:
            return k, r // k
    return None


def _check_abscissa(r: int, s: float) -> None:
    if math.isnan(s) or math.isinf(s):
        raise DomainError(f"abscissa must be finite, got {s!r}")
    if s < 0.0:
        raise DomainError(f"negative axis is out of scope (s = {s!r})")
    hit = nearest_pole(r, s)
    if hit is not None:
        raise PoleProximityError(k=hit[0], order=hit[1], s=s)


# The head of the split above s = 1 is m < r + _HEAD_EXTRA: it must hold
# more than r terms, or e_r(head) is empty and the tail recursion cancels.
_HEAD_EXTRA = 8


def multizeta(r: int, s: float) -> float:
    """Evaluate the r-fold multiple zeta value at real s >= 0 away from poles.

    For r = 1 or s <= 1, the Newton recursion on zeta(i*s), i = 1..r.  For
    r >= 2 and s > 1, the head/tail split of the module docstring, which
    cancels nothing; NonConvergenceError is raised where its value lies
    below the normal double range (sys.float_info.min), since 0.0 or a
    subnormal would be wrong in every digit.

    Raises PoleProximityError (naming k and the pole order) within the
    guard radius of any 1/k, k <= r.
    """
    _check_int(r, "fold count", 1, R_MAX)
    s = float(s)
    _check_abscissa(r, s)
    if s > 1.0 and r > 1:
        return _split(r, s)
    return _newton(_zeta_multiples(s, r))[r]


def _split(r: int, s: float) -> float:
    """zeta_r(s) for s > 1 and r >= 2 as sum_j e_{r-j}(head) e_j(tail),
    the head m < n = r + _HEAD_EXTRA and the tail m >= n.  The tail power
    sums q_i come from `_tail` at sigma = i s, the grid kernel's remainder,
    with n^(-i s) chained from one power; they shrink like n^(1 - i s), so
    their recursion cancels little."""
    n = r + _HEAD_EXTRA
    head = _product_expansion((np.arange(1, n) ** -s).tolist(), r)
    step = float(n) ** -s
    power = step
    q = []
    for i in range(1, r + 1):
        q.append(_tail(0.0, i * s, float(n), power))
        power = power * step
    tail = _newton(q)
    value = 0.0
    for j in range(r + 1):  # left to right: builtin sum() compensates on 3.12
        value += head[r - j] * tail[j]
    if not value >= sys.float_info.min:
        raise NonConvergenceError(
            f"the {r}-fold function at s = {s!r} lies below the double range"
        )
    return value


def _newton(p, one=1.0) -> list:
    """e_0 .. e_r from the power sums p_1 .. p_r by the Newton identities

        j e_j = sum_{i=1}^{j} (-1)^(i-1) e_{j-i} p_i,   e_0 = one,

    on floats or, with `one` an array of ones, elementwise on arrays.
    Takes p over: p_2, p_4, ... are negated in place, which is exact, so
    each unsigned term is bit for bit the signed one, and a fold table
    keeps no second copy of its rows."""
    for i in range(1, len(p), 2):
        p[i] = -p[i]
    e = [one]
    for j in range(1, len(p) + 1):
        acc = 0.0
        for e_ji, p_i in zip(reversed(e), p):  # i = 1..j
            acc += e_ji * p_i
        e.append(acc / j)
    return e


def _fold_table(r: int, s: np.ndarray) -> list[np.ndarray]:
    """Every fold zeta_0 .. zeta_r over a 1-d array of abscissas.

    The one check of an abscissa array: its shape, and every point against
    the domain and the pole guards of the r-fold function, which cover
    those of every lower fold.  zeta(i*s) for i = 1..r comes from one
    `_zeta_rows` call and the recursion runs once; entry j is the j-fold
    function on the grid.  Above s = 1 the recursion cancels (see
    `multizeta_grid`); scans stay below 1.
    """
    _check_int(r, "fold count", 1, R_MAX)
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise DomainError(f"abscissas must form a 1-d array, got shape {s.shape}")
    if s.size == 0:
        return [np.empty(0, dtype=float) for _ in range(r + 1)]
    if not np.all(np.isfinite(s)):
        raise DomainError("abscissas must be finite")
    if float(s.min()) < 0.0:
        raise DomainError("negative axis is out of scope")
    for k in range(1, r + 1):
        near = np.abs(s - 1.0 / k) < POLE_GUARD_RADIUS
        if near.any():
            raise PoleProximityError(k=k, order=r // k, s=float(s[near][0]))
    return _newton(_zeta_rows(r, s), np.ones_like(s))


def multizeta_grid(r: int, s: np.ndarray) -> np.ndarray:
    """Vectorised `multizeta` over a 1-d array of abscissas.

    Every element must satisfy the same domain and pole-guard rules as the
    scalar path.  Values are pointwise: each depends only on its own
    abscissa, never on the other elements.  For r = 1 or s <= 1 they are
    the last fold of `_fold_table(r, s)`, and may differ from the scalar
    path by a few ulp, since the zeta sums are taken in another order; fold
    j of a table built for any r >= j is `multizeta_grid(j, s)` there, bit
    for bit.  For r >= 2 and s > 1 each value is the scalar path's
    head/tail split, bit for bit, as the table's recursion would cancel
    O(1) terms down to values near (r!)^(-s); a value below the double
    range raises NonConvergenceError.
    """
    values = _fold_table(r, s)[r]
    if r > 1:
        s = np.asarray(s, dtype=float)
        for j in np.flatnonzero(s > 1.0).tolist():
            values[j] = _split(r, float(s[j]))
    return values


def closed_form(r: int, s: float) -> float:
    """Evaluate zeta_r(s) for r in {2, 3, 4} using only Riemann-zeta calls.

    Independent of the recursion; the two must agree to rounding error.
    """
    _check_int(r, "closed forms exist here only for r in {2,3,4}: r", 2, 4)
    s = float(s)
    _check_abscissa(r, s)
    z = _zeta_multiples(s, r)  # r rows: at (2, 0.25) a fourth would be zeta(1)
    z1, z2 = z[0], z[1]
    if r == 2:
        return (z1 * z1 - z2) / 2.0
    z3 = z[2]
    if r == 3:
        return (z1 ** 3 - 3.0 * z1 * z2 + 2.0 * z3) / 6.0
    z4 = z[3]
    return (z1 ** 4 - 6.0 * z1 * z1 * z2 + 3.0 * z2 * z2 + 8.0 * z1 * z3 - 6.0 * z4) / 24.0


def truncated_euler_zagier(r: int, s: float, n: int) -> float:
    """Partial sum N_r(s) over tuples 1 <= m_1 < ... < m_r <= n.

    e_r of m^(-s), m = 1..n, by the all-positive product expansion that
    the split above s = 1 uses for its head, cost O(r*n): r-tuples are
    never enumerated, and unlike the Newton identities on the n-term power
    sums nothing cancels.  Restricted to s > 1:
    outside absolute convergence the truncation does not approximate the
    continued function, so it refuses rather than misleads.
    """
    _check_int(r, "fold count", 1, R_MAX)
    _check_int(n, "term count", 1)
    if n < r:
        raise EmptySumError(
            f"no increasing {r}-tuple fits inside [1, {n}]"
        )
    s = float(s)
    if not s > 1.0:
        raise DomainError(
            f"truncated sums are an oracle for the region s > 1 only (s = {s!r})"
        )
    return _product_expansion((np.arange(1, n + 1, dtype=float) ** -s).tolist(), r)[r]


def _product_expansion(values: list[float], r: int) -> list[float]:
    """e_0 .. e_r of the values, the coefficients of prod (1 + v t) taken
    one factor at a time; after `count` factors only e_0 .. e_count are
    nonzero, so the update stops there."""
    elem = [1.0] + [0.0] * r
    for count, v in enumerate(values, 1):
        for j in range(min(r, count), 0, -1):
            elem[j] += v * elem[j - 1]
    return elem
