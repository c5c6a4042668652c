"""Inter-asymptotic zeros and extrema of the r-fold functions on (0, 1).

Each interval (1/k, 1/(k-1)) between consecutive asymptotes is scanned for
sign changes at three nested densities, g, 2g - 1 and 4g - 3 points, that
share their points: one fold table, evaluated once on the finest grid,
serves every fold count that needs the interval, and the coarser scans
are its every second and fourth point.  A count that drifts with
resolution is flagged instead of trusted.  Every sign change of the finest
grid is refined by a bracketing Brent iteration to a 1e-12-wide bracket.
Near-zero grid values without an adjacent sign change are reported as
suspected tangencies rather than silently dropped: an even-order zero
would look exactly like that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BracketError, ParameterRangeError
from .multizeta import _fold_table, multizeta, multizeta_grid

__all__ = [
    "SCAN_R_MAX",
    "BASE_GRID",
    "BRACKET_WIDTH",
    "DERIVATIVE_STEP",
    "TANGENCY_DIP",
    "ZeroRecord",
    "ExtremumRecord",
    "IntervalScan",
    "SignProfile",
    "delta_exclusion",
    "refine_root",
    "scan_interval",
    "scan_folds",
    "find_extrema",
    "sign_profile",
]

# Scans above this fold count are untested territory; refuse rather than
# return something slow and unvalidated.
SCAN_R_MAX = 16

BASE_GRID = 4096

# Target width of a refined bracket.
BRACKET_WIDTH = 1e-12

# Step of the symmetric difference used for extremum detection.
DERIVATIVE_STEP = 1e-6

# Grid values below this magnitude with no adjacent sign change are
# reported as suspected tangencies (possible even-order zeros).
TANGENCY_DIP = 1e-6

_MAX_BRENT_STEPS = 200
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Stencil half-width for the post-bracketing Newton polish: wide enough
# that the probed values clear the evaluation noise floor.
_POLISH_STEP = 1e-8


def delta_exclusion(k: int) -> float:
    """Half-width of the guard gap kept around the asymptote at 1/k.

    Proportional to the width of the interval just above 1/k (for k = 1,
    the interval just below 1 is used), floored at 1e-6.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ParameterRangeError(f"asymptote index must be a positive integer, got {k!r}")
    width = 1.0 / (k - 1) - 1.0 / k if k >= 2 else 0.5
    return max(1e-4 * width, 1e-6)


@dataclass(frozen=True)
class ZeroRecord:
    """One refined inter-asymptotic zero."""

    r: int
    k: int
    bracket_lo: float
    bracket_hi: float
    abscissa: float
    residual: float

    def __post_init__(self):
        if not 2 <= self.k <= self.r:
            raise ParameterRangeError(
                f"interval index {self.k} outside [2, {self.r}]"
            )
        inside = (
            1.0 / self.k
            < self.bracket_lo
            < self.abscissa
            < self.bracket_hi
            < 1.0 / (self.k - 1)
        )
        if not inside:
            raise ParameterRangeError(
                "bracket and abscissa must sit strictly inside the interval"
            )
        if self.bracket_hi - self.bracket_lo > BRACKET_WIDTH:
            raise ParameterRangeError(
                f"bracket wider than {BRACKET_WIDTH}"
            )
        if self.residual < 0.0:
            raise ParameterRangeError("residual must be non-negative")


@dataclass(frozen=True)
class ExtremumRecord:
    """One refined local extremum inside an inter-asymptotic interval."""

    r: int
    k: int
    abscissa: float
    value: float
    kind: str

    def __post_init__(self):
        if self.kind not in ("minimum", "maximum"):
            raise ParameterRangeError(
                f"kind must be 'minimum' or 'maximum', got {self.kind!r}"
            )
        if not 1.0 / self.k < self.abscissa < 1.0 / (self.k - 1):
            raise ParameterRangeError(
                "abscissa must sit strictly inside the interval"
            )


@dataclass(frozen=True)
class IntervalScan:
    """Scan result for one interval; iterates as a sequence of ZeroRecord.

    grid_counts holds the raw sign-change count at each grid density tried;
    count_stable records whether the count settled.  tangency_suspects are
    abscissas where the function dipped below TANGENCY_DIP without a sign
    change nearby.
    """

    r: int
    k: int
    zeros: tuple[ZeroRecord, ...]
    grid_counts: tuple[int, ...]
    count_stable: bool
    tangency_suspects: tuple[float, ...]

    def __iter__(self) -> Iterator[ZeroRecord]:
        return iter(self.zeros)

    def __len__(self) -> int:
        return len(self.zeros)

    def __getitem__(self, i):
        return self.zeros[i]


@dataclass(frozen=True)
class SignProfile:
    """Constant-sign check on [0, 1/r - 1e-6]."""

    r: int
    grid: int
    expected_sign: int
    min_abs_value: float
    passed: bool


def _check_interval(r: int, k: int) -> None:
    if not isinstance(r, int) or isinstance(r, bool):
        raise ParameterRangeError(f"fold count must be an integer, got {r!r}")
    if not isinstance(k, int) or isinstance(k, bool):
        raise ParameterRangeError(f"interval index must be an integer, got {k!r}")
    if not 2 <= r <= SCAN_R_MAX:
        raise ParameterRangeError(f"fold count {r} outside [2, {SCAN_R_MAX}]")
    if not 2 <= k <= r:
        raise ParameterRangeError(f"interval index {k} outside [2, {r}]")


def _interval_bounds(k: int) -> tuple[float, float]:
    lo = 1.0 / k + delta_exclusion(k)
    hi = 1.0 / (k - 1) - delta_exclusion(k - 1)
    return lo, hi


def _brent_bracket(
    f, a: float, b: float, fa: float, fb: float, tol: float
) -> tuple[float, float, float, float]:
    """Shrink a sign-change bracket to width <= tol, Brent style.

    Returns (lo, hi, f_lo, f_hi) still straddling the sign change.  The
    inverse-quadratic / secant / bisection step selection follows the
    classic algorithm; the bracketing pair is maintained throughout.
    """
    if abs(fa) < abs(fb):
        a, b, fa, fb = b, a, fb, fa
    c, fc = a, fa
    bisected = True
    d = 0.0
    for _ in range(_MAX_BRENT_STEPS):
        if abs(b - a) <= tol:
            break
        if fa != fc and fb != fc:
            s = (
                a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
            )
        else:
            s = b - fb * (b - a) / (fb - fa)
        lo_guard, hi_guard = (3.0 * a + b) / 4.0, b
        if lo_guard > hi_guard:
            lo_guard, hi_guard = hi_guard, lo_guard
        take_bisection = (
            not lo_guard < s < hi_guard
            or (bisected and abs(s - b) >= abs(b - c) / 2.0)
            or (not bisected and abs(s - b) >= abs(c - d) / 2.0)
            or (bisected and abs(b - c) < tol)
            or (not bisected and abs(c - d) < tol)
        )
        if take_bisection:
            s = (a + b) / 2.0
            bisected = True
        else:
            bisected = False
        fs = f(s)
        d, c, fc = c, b, fb
        if fa * fs < 0.0:
            b, fb = s, fs
        else:
            a, fa = s, fs
        if abs(fa) < abs(fb):
            a, b, fa, fb = b, a, fb, fa
        if fs == 0.0:
            break
    if a > b:
        a, b, fa, fb = b, a, fb, fa
    return a, b, fa, fb


def refine_root(
    r: int, bracket_lo: float, bracket_hi: float, tol: float = BRACKET_WIDTH
) -> ZeroRecord:
    """Refine a sign-change bracket of the r-fold function to a ZeroRecord.

    The endpoints must evaluate to opposite signs and lie inside one
    inter-asymptotic interval.  The final bracket is at most `tol` wide
    (capped at 1e-12 so every record meets the type invariant) and the
    abscissa is the secant point of the final bracket.
    """
    if not isinstance(r, int) or isinstance(r, bool) or not 2 <= r <= SCAN_R_MAX:
        raise ParameterRangeError(f"fold count {r!r} outside [2, {SCAN_R_MAX}]")
    lo, hi = float(bracket_lo), float(bracket_hi)
    if not lo < hi:
        raise BracketError(f"bracket [{lo!r}, {hi!r}] is not increasing")
    if not 1e-14 <= tol <= BRACKET_WIDTH:
        raise ParameterRangeError(
            f"bracket tolerance must lie in [1e-14, {BRACKET_WIDTH}]"
        )
    mid = 0.5 * (lo + hi)
    k = math.ceil(1.0 / mid)
    if not (2 <= k <= r and 1.0 / k < lo and hi < 1.0 / (k - 1)):
        raise BracketError(
            f"bracket [{lo!r}, {hi!r}] does not sit inside one "
            f"inter-asymptotic interval of the {r}-fold function"
        )

    def f(x: float) -> float:
        return multizeta(r, x)

    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0 or (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"endpoints do not straddle a sign change: f({lo!r}) = {flo!r}, "
            f"f({hi!r}) = {fhi!r}"
        )
    a, b, fa, fb = _brent_bracket(f, lo, hi, flo, fhi, tol)
    if fa == 0.0 or fb == 0.0:
        # An iterate hit an exact zero; rebuild a signed bracket around it.
        root = a if fa == 0.0 else b
        for widen in (0.4 * tol, 2.0 * tol, 16.0 * tol):
            wa, wb = root - widen, root + widen
            fwa, fwb = f(wa), f(wb)
            if fwa != 0.0 and fwb != 0.0 and (fwa > 0.0) != (fwb > 0.0):
                a, b, fa, fb = wa, wb, fwa, fwb
                break
        else:
            raise BracketError(
                f"no sign change survives around the exact zero at {root!r}"
            )
        if b - a > tol:
            a, b, fa, fb = _brent_bracket(f, a, b, fa, fb, tol)
            if fa == 0.0 or fb == 0.0:
                raise BracketError(
                    f"iteration keeps landing on an exact zero near {a!r}"
                )
    if b - a < 1e-14:
        # The last interpolation step can collapse the bracket to adjacent
        # floats, leaving no representable interior point.  Re-bracket at
        # the tolerance scale around the better endpoint.
        root = b if abs(fb) <= abs(fa) else a
        half = 0.45 * tol
        wa, wb = root - half, root + half
        fwa, fwb = f(wa), f(wb)
        if fwa != 0.0 and fwb != 0.0 and (fwa > 0.0) != (fwb > 0.0):
            a, b, fa, fb = wa, wb, fwa, fwb
        else:
            raise BracketError(
                f"sign change too shallow to re-bracket around {root!r}"
            )
    # Secant point of the final bracket, then a short Newton polish.  The
    # endpoint values this close to the root are evaluation noise, so the
    # secant alone can misplace the abscissa by the full bracket width
    # (and noise can even push the exact crossing a sliver outside the
    # bracket); the polish slope is taken on a stencil wide enough to
    # clear the noise floor.
    abscissa = a - fa * (b - a) / (fb - fa)
    if not a < abscissa < b:
        abscissa = 0.5 * (a + b)
    x, fx = abscissa, f(abscissa)
    best, fbest = x, abs(fx)
    for _ in range(2):
        slope = (f(x + _POLISH_STEP) - f(x - _POLISH_STEP)) / (2.0 * _POLISH_STEP)
        if not math.isfinite(slope) or slope == 0.0:
            break
        nxt = x - fx / slope
        if not a - 4.0 * tol < nxt < b + 4.0 * tol:
            break
        fnxt = f(nxt)
        if abs(fnxt) >= fbest:
            break
        x, fx = nxt, fnxt
        best, fbest = nxt, abs(fnxt)
    # Re-center the reported bracket on the polished root so the record's
    # sign change is verified against the point actually reported.
    half = 0.45 * tol
    wa, wb = best - half, best + half
    fwa, fwb = f(wa), f(wb)
    if fwa != 0.0 and fwb != 0.0 and (fwa > 0.0) != (fwb > 0.0):
        a, b = wa, wb
        abscissa, residual = best, fbest
    else:
        # Shallow or noisy crossing: fall back to the original bracket and
        # the best estimate it contains.
        if not a < best < b:
            best = abscissa if a < abscissa < b else 0.5 * (a + b)
        abscissa, residual = best, abs(f(best))
    return ZeroRecord(
        r=r,
        k=k,
        bracket_lo=a,
        bracket_hi=b,
        abscissa=abscissa,
        residual=residual,
    )


def _grid_crossings(
    s: np.ndarray, v: np.ndarray
) -> tuple[list[tuple[float, float]], list[float]]:
    """Sign-change cells and tangency suspects of one sampled scan line."""
    brackets: list[tuple[float, float]] = []
    sign = np.sign(v)
    prod = sign[:-1] * sign[1:]
    change = set(np.nonzero(prod < 0)[0].tolist())
    exact = np.nonzero(v == 0.0)[0].tolist()
    for i in sorted(change):
        brackets.append((float(s[i]), float(s[i + 1])))
    for i in exact:
        # A zero landing exactly on a grid node: bracket its neighbours
        # when they straddle, otherwise it joins the tangency suspects.
        if 0 < i < len(s) - 1 and sign[i - 1] * sign[i + 1] < 0:
            brackets.append((float(s[i - 1]), float(s[i + 1])))
    brackets.sort()
    dips = np.nonzero(np.abs(v) < TANGENCY_DIP)[0].tolist()
    suspects = []
    for i in dips:
        near_change = (i - 1 in change) or (i in change)
        if v[i] == 0.0 and 0 < i < len(s) - 1 and sign[i - 1] * sign[i + 1] < 0:
            near_change = True
        if not near_change:
            suspects.append(float(s[i]))
    return brackets, suspects


def scan_folds(
    k: int, r_values, base_grid: int = BASE_GRID
) -> dict[int, IntervalScan]:
    """Locate and refine every zero in (1/k, 1/(k-1)) for each fold count
    in r_values, from one fold table.

    The folds up to max(r_values) are evaluated once on the finest regular
    grid, linspace(lo, hi, 4g - 3) with g = base_grid; the coarser scans
    are its every second and every fourth point, so the three densities
    g, 2g - 1 and 4g - 3 share their points.  A fold count whose three
    counts disagree gets one further density, 8g - 7, made by evaluating
    only the midpoints of the finest grid; it is flagged unstable unless
    its last three counts agree.  Zeros of the finest grid each fold count
    reached are refined and returned in ascending order.  Returns one
    IntervalScan per fold count, keyed by r.
    """
    r_values = list(r_values)
    if not r_values:
        raise ParameterRangeError("need at least one fold count")
    for r in r_values:
        _check_interval(r, k)
    r_values = sorted(set(r_values))
    if not isinstance(base_grid, int) or isinstance(base_grid, bool) or base_grid < 16:
        raise ParameterRangeError(f"grid must be an integer >= 16, got {base_grid!r}")
    lo, hi = _interval_bounds(k)
    s = np.linspace(lo, hi, 4 * base_grid - 3)
    table = _fold_table(r_values[-1], s)
    counts: dict[int, list[int]] = {}
    found: dict[int, tuple[list[tuple[float, float]], list[float]]] = {}
    for r in r_values:
        counts[r] = []
        for step in (4, 2, 1):
            found[r] = _grid_crossings(s[::step], table[r][::step])
            counts[r].append(len(found[r][0]))
    unsettled = [r for r in r_values if len(set(counts[r])) > 1]
    if unsettled:
        mid = 0.5 * (s[:-1] + s[1:])
        mid_table = _fold_table(unsettled[-1], mid)
        fine = np.empty(2 * s.size - 1)
        fine[::2], fine[1::2] = s, mid
        for r in unsettled:
            v = np.empty_like(fine)
            v[::2], v[1::2] = table[r], mid_table[r]
            found[r] = _grid_crossings(fine, v)
            counts[r].append(len(found[r][0]))
    scans = {}
    for r in r_values:
        brackets, suspects = found[r]
        scans[r] = IntervalScan(
            r=r,
            k=k,
            zeros=tuple(refine_root(r, a, b) for a, b in brackets),
            grid_counts=tuple(counts[r]),
            count_stable=counts[r][-1] == counts[r][-2] == counts[r][-3],
            tangency_suspects=tuple(suspects),
        )
    return scans


def scan_interval(r: int, k: int, base_grid: int = BASE_GRID) -> IntervalScan:
    """Locate and refine every zero of the r-fold function in (1/k, 1/(k-1)).

    The single-fold case of `scan_folds`: scans at the nested densities
    g, 2g - 1 and 4g - 3 (g = base_grid); if the three counts disagree,
    the midpoints are added (8g - 7 points) and the scan is flagged
    unstable unless the last three counts agree.  Zeros of the finest grid
    are refined and returned in ascending order.
    """
    return scan_folds(k, [r], base_grid)[r]


def _golden_minimum(g, a: float, b: float, xtol: float) -> float:
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    gc, gd = g(c), g(d)
    while b - a > xtol:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - _INV_PHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _INV_PHI * (b - a)
            gd = g(d)
    return 0.5 * (a + b)


def find_extrema(r: int, k: int, base_grid: int = BASE_GRID) -> tuple[ExtremumRecord, ...]:
    """Locate the local extrema of the r-fold function in (1/k, 1/(k-1)).

    Sign changes of the symmetric finite-difference derivative on the scan
    grid seed a golden-section refinement; minima and maxima are told apart
    by the second difference at the refined point.
    """
    _check_interval(r, k)
    h = DERIVATIVE_STEP
    lo, hi = _interval_bounds(k)
    # The stencil reaches h beyond the grid, so pull the grid in by h.
    s = np.linspace(lo + h, hi - h, base_grid)
    f_plus = multizeta_grid(r, s + h)
    f_minus = multizeta_grid(r, s - h)
    deriv = (f_plus - f_minus) / (2.0 * h)
    sign = np.sign(deriv)
    cells = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    records = []
    for i in cells.tolist():
        a, b = float(s[i]), float(s[i + 1])
        rising = deriv[i] < 0.0  # function falls then rises: a minimum
        if rising:
            target = lambda x: multizeta(r, x)
        else:
            target = lambda x: -multizeta(r, x)
        x = _golden_minimum(target, a, b, 1e-10)
        curvature = (
            multizeta(r, x - h) - 2.0 * multizeta(r, x) + multizeta(r, x + h)
        )
        kind = "minimum" if curvature > 0.0 else "maximum"
        records.append(
            ExtremumRecord(r=r, k=k, abscissa=x, value=multizeta(r, x), kind=kind)
        )
    records.sort(key=lambda rec: rec.abscissa)
    return tuple(records)


def sign_profile(r: int, grid: int = 200) -> SignProfile:
    """Check that the r-fold function keeps the sign (-1)^r on
    [0, 1/r - 1e-6] sampled at `grid` points."""
    if not isinstance(r, int) or isinstance(r, bool) or not 1 <= r <= SCAN_R_MAX:
        raise ParameterRangeError(f"fold count {r!r} outside [1, {SCAN_R_MAX}]")
    if not isinstance(grid, int) or isinstance(grid, bool) or grid < 2:
        raise ParameterRangeError(f"grid must be an integer >= 2, got {grid!r}")
    s = np.linspace(0.0, 1.0 / r - 1e-6, grid)
    v = multizeta_grid(r, s)
    expected = 1 if r % 2 == 0 else -1
    passed = bool(np.all(expected * v > 0.0))
    return SignProfile(
        r=r,
        grid=grid,
        expected_sign=expected,
        min_abs_value=float(np.min(np.abs(v))),
        passed=passed,
    )
