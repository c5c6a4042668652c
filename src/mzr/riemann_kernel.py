"""Riemann zeta on the positive real axis, to near machine precision.

Two independent evaluators are provided on purpose:

* `riemann_zeta` -- `multizeta(1, s)`: Euler-Maclaurin summation, a direct
  partial sum, the integral tail, the half-term, and Bernoulli-weighted
  corrections.  The production path.  At s <= 1, `_zeta_multiples` sums
  zeta(i*s), i = 1..r, at one abscissa in one vectorised pass for a scalar
  `multizeta`; above 1 its head/tail split takes the tail power sums from
  the remainder block `_tail`.  On arrays, `_zeta_rows` evaluates
  zeta(i*s) with one cut, taken from the remainder bound, at every row
  and point: the rows of `multizeta`'s fold tables, whose first row is
  `multizeta_grid(1, s)`.
* `riemann_zeta_alternating` -- the alternating (eta) series with an
  Euler-transform acceleration of its tail.  Slower, kept as a structurally
  unrelated cross-check; the verify suite compares the two.

The Bernoulli table behind the corrections is built once in exact rational
arithmetic and reduced to floats only at the use site.  Only
`_zeta_multiples` and `_zeta_rows` import numpy (the README's "Library
surface" lists which calls load it).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cache

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

# Requests closer than this to a pole 1/k are rejected outright.
POLE_GUARD_RADIUS = 1e-8


def _nearest_pole(r: int, s: float) -> tuple[int, int] | None:
    # Within the guard radius of 1/k, k <= 32, round(1/s) is k, so only that
    # k is checked; s is held to [1/(r+2), 1.5] first, NaN to the low end.
    k = round(1.0 / min(max(1.0 / (r + 2), s), 1.5))
    if k <= r and abs(s - 1.0 / k) < POLE_GUARD_RADIUS:
        return k, r // k
    return None


def _check_abscissa(r: int, s: float) -> None:
    """Reject s outside the r-fold function's domain: not finite, below 0,
    or within the guard radius of a pole 1/k, k <= r (zeta is r = 1)."""
    if math.isnan(s) or math.isinf(s):
        raise DomainError(f"abscissa must be finite, got {s!r}")
    if s < 0.0:
        raise DomainError(f"negative axis is out of scope (s = {s!r})")
    hit = _nearest_pole(r, s)
    if hit is not None:
        raise PoleProximityError(k=hit[0], order=hit[1], s=s)


def _build_table(n_max: int) -> tuple[Fraction, ...]:
    """Exact Bernoulli numbers B_0 .. B_n_max, convention B_1 = -1/2."""
    # B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers
    # T_k = tan^(2k-1)(0), built in exact integers in O(n^2) integer steps
    # (Brent & Harvey, "Fast computation of Bernoulli, tangent and secant
    # numbers", 2011, algorithm TangentNumbers).
    m = n_max // 2
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    values = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (n_max - 1)
    for k in range(1, m + 1):
        values[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1))
    return tuple(values)


_TABLE = _build_table(2 * M_MAX)

# Float weights B_{2j}/(2j)! for the correction sum, j = 0..M_MAX.
_CORRECTION_WEIGHT = tuple(
    float(_TABLE[2 * j]) / math.factorial(2 * j) for j in range(M_MAX + 1)
)


def bernoulli(n: int) -> Fraction:
    """Return B_n as an exact rational, for 0 <= n <= 2*M_MAX."""
    n = _check_int(n, "index", 0, 2 * M_MAX)
    return _TABLE[n]


# Bernoulli correction terms of every evaluation.
_CORRECTION_TERMS = 12

# Elements (rows x points) per block of the grid kernel: a block of an
# r-row table holds _BLOCK // r points, so its work arrays stay small at
# any r and any grid size.
_BLOCK = 8192

# zeta(s) - 1 < 2^-53 from here on, so zeta(s) rounds to 1.0, and so does
# the sum at this abscissa.  `_zeta_rows` sums larger ones here: their
# Bernoulli corrections would be an overflowed rising factorial times an
# underflowed power, which is NaN.
_ROUNDS_TO_ONE = 54.0

# The fold-table kernel's cut: direct terms m < _GRID_TERMS (see `_zeta_rows`).
_GRID_TERMS = 9


def _direct_terms(s, ceil=math.ceil, lower=max):
    """Direct-term count of `_zeta_multiples` at sigma = i*s <= 32:
    ceil(sigma) + 10, at least 20.  An int for a float; elementwise on an
    array with ceil, lower = np.ceil, np.maximum."""
    return lower(20, ceil(s) + 10)


def riemann_zeta(s: float) -> float:
    """Evaluate zeta(s) for real s >= 0, s != 1: `multizeta(1, s)`, bit for
    bit.  Relative error is at or below 1e-13 on [0, 60]; from s = 53 on,
    where 2^-s no longer moves 1.0, the value is exactly 1.0."""
    from .multizeta import multizeta
    return multizeta(1, s)


# `_step_table`, built once on first use: the correction weights, and the
# columns of `_zeta_multiples`'s step table (sigma + offset) - shift:
# sigma - 1, sigma and (sigma + 2j) - 1, the negated exponents of n (as
# -s - 2j + 1 = -((s + 2j) - 1) in every rounding), then the factors
# sigma, (sigma + 2j) - 3 and (sigma + 2j) - 2 of the rising products.
_POWERS = _CORRECTION_TERMS + 2


@cache
def _step_table():
    import numpy as np
    two_j = [2.0 * j for j in range(1, _CORRECTION_TERMS + 1)]
    offset = np.array([0.0, 0.0, *two_j, 0.0, *np.repeat(two_j[1:], 2)])
    shift = np.array([1.0, 0.0, *[1.0] * _CORRECTION_TERMS, 0.0, *[3.0, 2.0] * (_CORRECTION_TERMS - 1)])
    return offset, shift, np.array(_CORRECTION_WEIGHT[1:_CORRECTION_TERMS + 1])


def _zeta_multiples(s: float, r: int) -> list[float]:
    """zeta(i*s) for i = 1..r, as floats, at one abscissa 0 <= s <= 1
    whose multiples all lie off the pole.

    Row i is the Euler-Maclaurin sum at sigma = i*s with
    `_direct_terms(sigma)` terms, vectorised over i but rounded step for
    step as the sum at that sigma alone: numpy's pairwise direct sum, then
    the integral term, the half term and the corrections added left to
    right, every power of n from libm's pow (numpy's may differ in the
    last bit)."""
    import numpy as np
    offset, shift, weights = _step_table()
    sigma = np.arange(1, r + 1) * s
    n = _direct_terms(sigma, np.ceil, np.maximum)
    cols = np.empty((r, _POWERS + 1))
    # n never decreases with i: each run of equal n is reduced over its own
    # n - 1 terms, since padding would move numpy's pairwise blocks.
    terms = np.arange(1.0, n[-1]) ** -sigma[:, None]
    ends = n.tolist()
    for end in dict.fromkeys(ends):
        run = slice(ends.index(end), bisect_right(ends, end))
        cols[run, 0] = np.add.reduce(terms[run, :int(end) - 1], axis=1)
    steps = (sigma[:, None] + offset) - shift
    pows = map(math.pow, np.repeat(n, _POWERS).tolist(), (-steps[:, :_POWERS]).ravel().tolist())
    powers = np.fromiter(pows, float, r * _POWERS).reshape(r, _POWERS)
    rising = np.multiply.accumulate(steps[:, _POWERS:], axis=1)[:, ::2]
    cols[:, 1] = powers[:, 0] / steps[:, 0]
    cols[:, 2] = 0.5 * powers[:, 1]
    cols[:, 3:] = (weights * rising) * powers[:, 2:]
    # accumulate adds left to right; reduce would pair the terms.
    return np.add.accumulate(cols, axis=1)[:, -1].tolist()


def _zeta_rows(r: int, s: np.ndarray, terms: int = _GRID_TERMS) -> np.ndarray:
    """zeta(i*s) for i = 1..r over a 1-d array of abscissas, as an
    (r, len(s)) array: the direct terms m < terms, then `_tail`.

    The caller has checked every i*s against the domain and the pole.
    Each term m takes one power m^(-s) per point and forms m^(-i*s) by
    repeated multiplication.  Every row and point takes the same cut, so a
    value depends only on its own abscissa and row, never on the other
    points, which are taken in blocks of at most _BLOCK elements.

    The cut _GRID_TERMS = N is the smallest whose remainder bound with
    M = _CORRECTION_TERMS corrections (Johansson, Numer. Algorithms 69,
    2015, Theorem 1, by |B_2M| / (2M)! <= 4 / (2 pi)^(2M))

        4 (sigma)_2M / (2 pi)^(2M) * N^(1 - sigma - 2M) / (sigma + 2M - 1)

    stays below u/100 |zeta(sigma)|, u = 2^-53, at every sigma >= 0.  Its
    logarithm is concave in sigma and |zeta| >= 1/2; relative to |zeta| it
    peaks at 7.2e-18 (sigma near 4.0) for N = 8, 3.0e-19 (3.7) for N = 9
    and 1.9e-20 (3.4) for N = 10, against u/100 = 1.1e-18.
    """
    import numpy as np
    out = np.empty((r, s.size))
    step = max(1, _BLOCK // r)
    for lo in range(0, s.size, step):
        block = np.minimum(s[lo:lo + step], _ROUNDS_TO_ONE)
        # powers[i - 1, m - 2] = m^(-i*s) for m = 2..terms, row i from row i - 1.
        powers = np.empty((r, terms - 1, block.size))
        powers[0] = np.arange(2.0, terms + 1)[:, None] ** -block
        for i in range(1, r):
            np.multiply(powers[i - 1], powers[0], out=powers[i])
        # Added term by term: a reduction along m could pair them, and how
        # would depend on the block's shape.
        total = 1.0 + powers[:, 0]
        for m in range(1, terms - 2):
            total += powers[:, m]
        sigma = np.arange(1, r + 1, dtype=float)[:, None] * block
        out[:, lo:lo + step] = _tail(total, sigma, float(terms), powers[:, -1])
    return out


# `_tail`'s Horner steps j = _CORRECTION_TERMS - 1 .. 1: 2j - 1, 2j and W_j.
_HORNER = [(2.0 * j - 1.0, 2.0 * j, _CORRECTION_WEIGHT[j]) for j in range(_CORRECTION_TERMS - 1, 0, -1)]


def _tail(total, sigma, n, tail):
    """total plus the Euler-Maclaurin remainder sum_{m >= n} m^(-sigma)
    from one float cut n, given tail = n^(-sigma): the integral term, the
    half term and the _CORRECTION_TERMS Bernoulli corrections, added to
    total one by one in that order.

    Only plain operators, and in-place ones only on a result made here,
    so floats and arrays take the same IEEE steps and the caller's total
    is left as it was.  Johansson (Numer. Algorithms 69, 2015) bounds the
    truncation (see `_zeta_rows`)."""
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
    for odd, even, weight in _HORNER:
        acc = acc * (sigma + odd)
        acc *= sigma + even
        acc *= inv_n2
        acc += weight
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
    _check_abscissa(1, s)
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
