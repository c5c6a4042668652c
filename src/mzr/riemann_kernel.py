"""Riemann zeta on the positive real axis, to near machine precision.

Two independent evaluators are provided on purpose:

* `riemann_zeta` -- Euler-Maclaurin summation: a direct partial sum, the
  integral tail, the half-term, and Bernoulli-weighted corrections.  This
  is the production path.  Its one body, `_zeta_multiples`, sums zeta(i*s)
  for i = 1..r at one abscissa in one vectorised pass: `riemann_zeta` is
  its first row, and a scalar `multizeta` below s = 1 takes all r.  On
  arrays, `_zeta_rows` evaluates zeta(i*s) with the same term counts at
  each point: the rows of `multizeta`'s fold tables, whose first row is
  `multizeta_grid(1, s)`.  Its remainder block, `_tail`, also gives
  `multizeta` its tail power sums above s = 1.
* `riemann_zeta_alternating` -- the alternating (eta) series with an
  Euler-transform acceleration of its tail.  Slower, kept as a structurally
  unrelated cross-check; the verify suite compares the two.

The Bernoulli table behind the corrections is built once in exact rational
arithmetic and reduced to floats only at the use site.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from .errors import DomainError, PoleProximityError, _check_int

__all__ = [
    "M_MAX",
    "POLE_GUARD_RADIUS",
    "bernoulli",
    "riemann_zeta",
    "riemann_zeta_alternating",
]

# Largest number of Bernoulli correction terms the weight table covers;
# the exact table holds B_0 .. B_{2*M_MAX}.
M_MAX = 30

# Requests closer than this to the pole at s = 1 are rejected outright.
POLE_GUARD_RADIUS = 1e-8


def _build_table(n_max: int) -> tuple[Fraction, ...]:
    """Exact Bernoulli numbers B_0 .. B_n_max, convention B_1 = -1/2."""
    # Defining recurrence: sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1,
    # solved for B_n; exact rationals so no rounding accumulates.
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for j in range(n):
            acc += math.comb(n + 1, j) * values[j]
        values.append(-acc / (n + 1))
    return tuple(values)


_TABLE = _build_table(2 * M_MAX)

# Float weights B_{2j}/(2j)! for the correction sum, j = 0..M_MAX.
_CORRECTION_WEIGHT = tuple(
    float(_TABLE[2 * j]) / math.factorial(2 * j) for j in range(M_MAX + 1)
)


def bernoulli(n: int) -> Fraction:
    """Return B_n as an exact rational, for 0 <= n <= 2*M_MAX."""
    _check_int(n, "index", 0, 2 * M_MAX)
    return _TABLE[n]


# Bernoulli correction terms of every evaluation.
_CORRECTION_TERMS = 12

# Elements (rows x points) per block of the grid kernel: a block of an
# r-row table holds _BLOCK // r points, so its work arrays stay small at
# any r and any grid size.
_BLOCK = 8192

# zeta(s) - 1 < 2^-53 from here on, so zeta(s) rounds to 1.0, and so does
# the sum at this abscissa.  Larger ones are summed here instead: their
# Bernoulli corrections would be an overflowed rising factorial times an
# underflowed power, which is NaN.
_ROUNDS_TO_ONE = 54.0


def _direct_terms(s, ceil=math.ceil, lower=max, upper=min):
    """Direct-term count at s: ceil(s) + 10, clamped to [20, 80], so the
    terms grow with s until the direct sum alone is converged past machine
    precision.  An int for a float s; elementwise on an array with ceil,
    lower, upper = np.ceil, np.maximum, np.minimum."""
    return lower(20, upper(ceil(s), 70) + 10)


def _check_domain(s: float) -> None:
    if math.isnan(s) or math.isinf(s):
        raise DomainError(f"abscissa must be finite, got {s!r}")
    if s < 0.0:
        raise DomainError(f"negative axis is out of scope (s = {s!r})")
    if abs(s - 1.0) < POLE_GUARD_RADIUS:
        raise PoleProximityError(k=1, order=1, s=s)


def riemann_zeta(s: float) -> float:
    """Evaluate zeta(s) for real s >= 0, s != 1, by Euler-Maclaurin summation.

    Relative error is at or below 1e-13 on [0, 60] with `_direct_terms(s)`
    direct terms and _CORRECTION_TERMS corrections; from s = 54 on, where
    zeta(s) rounds to 1.0, the value is exactly 1.0.
    """
    s = float(s)
    _check_domain(s)
    return _zeta_multiples(s, 1)[0]


# Columns of `_zeta_multiples`'s step table (sigma + offset) - shift:
# sigma - 1, sigma and (sigma + 2j) - 1, the negated exponents of n (as
# -s - 2j + 1 = -((s + 2j) - 1) in every rounding), then the factors
# sigma, (sigma + 2j) - 3 and (sigma + 2j) - 2 of the rising products.
_POWERS = _CORRECTION_TERMS + 2
_TWO_J = [2.0 * j for j in range(1, _CORRECTION_TERMS + 1)]
_OFFSET = np.array([0.0, 0.0, *_TWO_J, 0.0, *np.repeat(_TWO_J[1:], 2)])
_SHIFT = np.array([1.0, 0.0, *[1.0] * _CORRECTION_TERMS, 0.0, *[3.0, 2.0] * (_CORRECTION_TERMS - 1)])
_WEIGHTS = np.array(_CORRECTION_WEIGHT[1:_CORRECTION_TERMS + 1])


def _zeta_multiples(s: float, r: int) -> list[float]:
    """zeta(i*s) for i = 1..r, as floats, at one abscissa s >= 0 whose
    multiples all lie off the pole.

    Row i is the Euler-Maclaurin sum at sigma = min(i*s, 54) with
    `_direct_terms(sigma)` terms, vectorised over i but rounded step for
    step as the sum at that sigma alone: numpy's pairwise direct sum, then
    the integral term, the half term and the corrections added left to
    right, every power of n from libm's pow (numpy's may differ in the
    last bit)."""
    # min(i*s, 54), without overflowing i*s first.
    sigma = np.minimum(np.arange(1, r + 1) * min(s, _ROUNDS_TO_ONE), _ROUNDS_TO_ONE)
    n = _direct_terms(sigma, np.ceil, np.maximum, np.minimum)
    cols = np.empty((r, _POWERS + 1))
    # n never decreases with i: each run of equal n is reduced over its own
    # n - 1 terms, since padding would move numpy's pairwise blocks.
    terms = np.arange(1.0, n[-1]) ** -sigma[:, None]
    ends = n.tolist()
    for end in dict.fromkeys(ends):
        run = slice(ends.index(end), bisect_right(ends, end))
        cols[run, 0] = np.add.reduce(terms[run, :int(end) - 1], axis=1)
    steps = (sigma[:, None] + _OFFSET) - _SHIFT
    pows = map(math.pow, np.repeat(n, _POWERS).tolist(), (-steps[:, :_POWERS]).ravel().tolist())
    powers = np.fromiter(pows, float, r * _POWERS).reshape(r, _POWERS)
    rising = np.multiply.accumulate(steps[:, _POWERS:], axis=1)[:, ::2]
    cols[:, 1] = powers[:, 0] / steps[:, 0]
    cols[:, 2] = 0.5 * powers[:, 1]
    cols[:, 3:] = (_WEIGHTS * rising) * powers[:, 2:]
    # accumulate adds left to right; reduce would pair the terms.
    return np.add.accumulate(cols, axis=1)[:, -1].tolist()


def _zeta_rows(r: int, s: np.ndarray) -> np.ndarray:
    """zeta(i*s) for i = 1..r over a 1-d array of abscissas, as an
    (r, len(s)) array.

    The caller has checked every i*s against the domain and the pole.
    Each term m takes one power m^(-s) per point and forms m^(-i*s) by
    repeated multiplication.  Every point i*s gets the term counts
    `riemann_zeta` would take for it, so a value depends only on its own
    abscissa and row, never on the other points.
    """
    out = np.empty((r, s.size))
    step = max(1, _BLOCK // r)
    for lo in range(0, s.size, step):
        out[:, lo:lo + step] = _zeta_block(r, s[lo:lo + step])
    return out


def _zeta_block(r: int, s: np.ndarray) -> np.ndarray:
    """`_zeta_rows` on one block of at most _BLOCK elements."""
    s = np.minimum(s, _ROUNDS_TO_ONE)
    sigma = np.arange(1, r + 1, dtype=float)[:, None] * s
    n = _direct_terms(sigma, np.ceil, np.maximum, np.minimum)
    total = np.ones_like(sigma)  # the term m = 1
    tail = np.empty_like(sigma)  # n^(-sigma), read off the chain at m = n
    power = np.empty_like(sigma)
    n_min = n.min()
    for m in range(2, int(n.max()) + 1):
        power[0] = float(m) ** (-s)
        for i in range(1, r):
            np.multiply(power[i - 1], power[0], out=power[i])
        if m < n_min:
            total += power
        else:
            np.add(total, power, out=total, where=m < n)
            np.copyto(tail, power, where=m == n)
    return _tail(total, sigma, n, tail)


def _tail(total, sigma, n, tail):
    """total plus the Euler-Maclaurin remainder sum_{m >= n} m^(-sigma),
    given tail = n^(-sigma): the integral term, the half term and the
    _CORRECTION_TERMS Bernoulli corrections, added to total one by one in
    that order.

    Only plain operators, and in-place ones only on a result made here,
    so floats and arrays take the same IEEE steps and the caller's total
    is left as it was.  Johansson (Numer. Algorithms 69, 2015) bounds the
    truncation."""
    # n^(1-sigma) and n^(1-2j-sigma) are n^(-sigma) times powers of n, so
    # the integral tail and the corrections share the chained power.
    tail_n = n * tail
    total = total + tail_n / (sigma - 1.0)
    total += 0.5 * tail
    # The corrections sum_j W_j rising_j n^(1-2j-sigma) by Horner's rule
    # in j, with rising_1 = sigma and rising_j / rising_(j-1) =
    # (sigma + 2j - 3)(sigma + 2j - 2).
    inv_n2 = 1.0 / (n * n)
    acc = _CORRECTION_WEIGHT[_CORRECTION_TERMS]
    for j in range(_CORRECTION_TERMS - 1, 0, -1):
        acc = acc * (sigma + (2 * j - 1))
        acc *= sigma + 2 * j
        acc *= inv_n2
        acc += _CORRECTION_WEIGHT[j]
    total += sigma * inv_n2 * acc * tail_n
    return total


# Tuning of the alternating-series oracle: enough direct terms that the
# Euler-transformed tail differences decay geometrically, and enough
# transform levels to pass 1e-14 everywhere on [0, 60].
_ETA_DIRECT_TERMS = 24
_ETA_TRANSFORM_LEVELS = 54


def riemann_zeta_alternating(s: float) -> float:
    """Evaluate zeta(s) via the alternating series eta(s) / (1 - 2^(1-s)).

    eta(s) = sum (-1)^(m-1) m^(-s) is summed directly for a few dozen terms
    and its tail is accelerated by repeated forward differencing (Euler's
    transformation).  Shares nothing with the Euler-Maclaurin path except
    the domain guard.
    """
    s = float(s)
    _check_domain(s)
    eta = 0.0
    for m in range(1, _ETA_DIRECT_TERMS + 1):
        eta += (-1) ** (m - 1) * m ** (-s)
    # Tail starts at m = _ETA_DIRECT_TERMS + 1 with sign +1 (even cut).
    diff = [
        (_ETA_DIRECT_TERMS + 1 + i) ** (-s) for i in range(_ETA_TRANSFORM_LEVELS)
    ]
    tail = 0.0
    scale = 0.5
    for _ in range(_ETA_TRANSFORM_LEVELS):
        tail += scale * diff[0]
        scale *= 0.5
        diff = [diff[i] - diff[i + 1] for i in range(len(diff) - 1)]
        if not diff:
            break
    eta += tail
    denom = -math.expm1((1.0 - s) * math.log(2.0))
    return eta / denom
