"""Inter-asymptotic zeros and extrema of the r-fold functions on (0, 1).

Each interval (1/k, 1/(k-1)) between consecutive asymptotes is scanned for
sign changes at three nested densities, g, 2g - 1 and 4g - 3 points, that
share their points: one fold table, evaluated once on the finest grid,
serves every fold count that needs the interval, and the coarser scans
are its every second and fourth point.  A count that drifts with
resolution is flagged instead of trusted.  The sign changes of the finest
grids are refined together to 1e-12-wide brackets: each step subdivides
every open bracket and evaluates all their points in one fold table.
Near-zero grid values without an adjacent sign change are reported as
suspected tangencies rather than silently dropped: an even-order zero
would look exactly like that.

Extrema go through the same solver: they are the zeros of the
central-difference derivative, whose grid sign changes are subdivided
exactly as the zeros' are, and a sign change from - to + is a minimum.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BracketError, ParameterRangeError, _check_int
from .multizeta import _fold_table, multizeta_grid

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
    "refine_roots",
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

# Step of the central-difference derivative whose sign changes are the
# extrema.
DERIVATIVE_STEP = 1e-6

# Grid values below this magnitude with no adjacent sign change are
# reported as suspected tangencies (possible even-order zeros).
TANGENCY_DIP = 1e-6

# Cells per subdivision step: a 3e-5 scan cell reaches 1e-12 in five
# steps, and one step of every bracket is one fold table.
_SUBDIVISIONS = 32

# Stencil half-width for the post-bracketing Newton polish: wide enough
# that the probed values clear the evaluation noise floor.
_POLISH_STEP = 1e-8


def delta_exclusion(k: int) -> float:
    """Half-width of the guard gap kept around the asymptote at 1/k.

    Proportional to the width of the interval just above 1/k (for k = 1,
    the interval just below 1 is used), floored at 1e-6.
    """
    _check_int(k, "asymptote index", 1)
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


@dataclass(frozen=True)
class SignProfile:
    """Constant-sign check on [0, 1/r - 1e-6]."""

    r: int
    grid: int
    expected_sign: int
    min_abs_value: float
    passed: bool


def _check_interval(r: int, k: int) -> None:
    _check_int(r, "fold count", 2, SCAN_R_MAX)
    _check_int(k, "interval index", 2, r)


def _interval_bounds(k: int) -> tuple[float, float]:
    lo = 1.0 / k + delta_exclusion(k)
    hi = 1.0 / (k - 1) - delta_exclusion(k - 1)
    return lo, hi


def _fold_values(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fold r[j] at every point of row j of x, from one fold table.

    Table values are pointwise, so each value is the one its bracket
    would get alone, whatever else shares the table.
    """
    table = np.asarray(_fold_table(int(r.max()), x.ravel()))
    rows = np.repeat(r, x.shape[1])
    return table[rows, np.arange(x.size)].reshape(x.shape)


def _derivative_values(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Central-difference derivative of fold r[j] at every point of row j
    of x, step DERIVATIVE_STEP; both stencil points in one fold table."""
    h = DERIVATIVE_STEP
    f = _fold_values(r, np.concatenate([x + h, x - h], axis=1))
    w = x.shape[1]
    return (f[:, :w] - f[:, w:]) / (2.0 * h)


def _straddles(f_lo: np.ndarray, f_hi: np.ndarray) -> np.ndarray:
    return (f_lo != 0.0) & (f_hi != 0.0) & ((f_lo > 0.0) != (f_hi > 0.0))


def _secant(a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Secant point of each bracket, or its midpoint where the secant
    point falls outside (as where a bracket closed on an exact zero)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = a - fa * (b - a) / (fb - fa)
    return np.where((a < x) & (x < b), x, 0.5 * (a + b))


def _rebracket(r: np.ndarray, centre: np.ndarray, widths: np.ndarray):
    """First of the symmetric brackets centre -+ widths[c] that straddles
    a sign change, for each centre; returns (found, lo, hi, f_lo, f_hi)."""
    x = np.concatenate([centre[:, None] - widths, centre[:, None] + widths], axis=1)
    f = _fold_values(r, x)
    w = len(widths)
    ok = _straddles(f[:, :w], f[:, w:])
    c = ok.argmax(axis=1)
    rows = np.arange(centre.size)
    found = ok[rows, c]
    return found, x[rows, c], x[rows, w + c], f[rows, c], f[rows, w + c]


def _subdivide(
    values, r: np.ndarray, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
    tol: float,
) -> None:
    """Shrink every bracket wider than tol, in place, to its first
    sign-change cell among _SUBDIVISIONS equal cells, all brackets per
    fold table.  `values(r, x)` evaluates row j of x for fold count r[j]:
    `_fold_values` for zeros, `_derivative_values` for extrema.  A
    subdivision point that evaluates to exactly zero closes its bracket
    on itself: both ends move to it, with value 0."""
    fractions = np.arange(1, _SUBDIVISIONS) / _SUBDIVISIONS
    while True:
        idx = np.nonzero(b - a > tol)[0]
        if idx.size == 0:
            return
        inner = a[idx, None] + (b - a)[idx, None] * fractions
        x = np.column_stack([a[idx], inner, b[idx]])
        f = np.column_stack([fa[idx], values(r[idx], inner), fb[idx]])
        # The first point whose sign leaves that of the left end closes the
        # first sign-change cell; an exact zero closes it on itself.
        j = np.argmax(np.sign(f[:, 1:]) != np.sign(f[:, :1]), axis=1) + 1
        rows = np.arange(idx.size)
        a[idx], fa[idx] = x[rows, j - 1], f[rows, j - 1]
        b[idx], fb[idx] = x[rows, j], f[rows, j]
        zero = idx[fb[idx] == 0.0]
        a[zero], fa[zero] = b[zero], 0.0


def refine_roots(brackets, tol: float = BRACKET_WIDTH) -> tuple[ZeroRecord, ...]:
    """Refine sign-change brackets (r, lo, hi) of the r-fold functions to
    ZeroRecords, all brackets together.

    Each bracket is checked as `refine_root` checks one.  Every step
    evaluates the points of all brackets in one fold table, of which each
    bracket reads its own fold; values are pointwise, so a record never
    depends on the other brackets of the batch.  A bracket wider than
    `tol` is cut into 32 equal cells and shrunk to the first that changes
    sign, until it is at most `tol` wide (capped at 1e-12 so every record
    meets the type invariant).  The abscissa is the secant point of the
    final bracket, polished by at most two Newton steps; the reported
    bracket is re-centred on it when the sign change holds there.
    """
    if not 1e-14 <= tol <= BRACKET_WIDTH:
        raise ParameterRangeError(
            f"bracket tolerance must lie in [1e-14, {BRACKET_WIDTH}]"
        )
    rs, ks, los, his = [], [], [], []
    for r, bracket_lo, bracket_hi in brackets:
        _check_int(r, "fold count", 2, SCAN_R_MAX)
        lo, hi = float(bracket_lo), float(bracket_hi)
        if not lo < hi:
            raise BracketError(f"bracket [{lo!r}, {hi!r}] is not increasing")
        k = math.ceil(1.0 / (0.5 * (lo + hi)))
        if not (2 <= k <= r and 1.0 / k < lo and hi < 1.0 / (k - 1)):
            raise BracketError(
                f"bracket [{lo!r}, {hi!r}] does not sit inside one "
                f"inter-asymptotic interval of the {r}-fold function"
            )
        rs.append(r)
        ks.append(k)
        los.append(lo)
        his.append(hi)
    if not rs:
        return ()
    r = np.array(rs)
    a, b = np.array(los), np.array(his)
    ends = _fold_values(r, np.column_stack([a, b]))
    fa, fb = ends[:, 0].copy(), ends[:, 1].copy()
    bad = np.nonzero(~_straddles(fa, fb))[0]
    if bad.size:
        i = bad[0]
        raise BracketError(
            f"endpoints do not straddle a sign change: f({los[i]!r}) = "
            f"{float(fa[i])!r}, f({his[i]!r}) = {float(fb[i])!r}"
        )
    _subdivide(_fold_values, r, a, b, fa, fb, tol)
    zero = np.nonzero(fb == 0.0)[0]
    if zero.size:
        # A record needs a strict sign change: a bracket closed on an
        # exact zero is re-bracketed at the tolerance scale and shrunk
        # again, once.
        found, lo, hi, flo, fhi = _rebracket(
            r[zero], b[zero], np.array([0.4, 2.0, 16.0]) * tol
        )
        if not found.all():
            root = float(b[zero][~found][0])
            raise BracketError(
                f"no sign change survives around the exact zero at {root!r}"
            )
        a[zero], b[zero], fa[zero], fb[zero] = lo, hi, flo, fhi
        _subdivide(_fold_values, r, a, b, fa, fb, tol)
        again = np.nonzero(fb == 0.0)[0]
        if again.size:
            raise BracketError(
                f"iteration keeps landing on an exact zero near {float(b[again[0]])!r}"
            )
    half = 0.45 * tol
    collapsed = np.nonzero(b - a < 1e-14)[0]
    if collapsed.size:
        # A cell can come out narrower than 1e-14, leaving almost no
        # representable interior point.  Re-bracket at the tolerance scale
        # around the better endpoint.
        c = collapsed
        root = np.where(np.abs(fb[c]) <= np.abs(fa[c]), b[c], a[c])
        found, lo, hi, flo, fhi = _rebracket(r[c], root, np.array([half]))
        if not found.all():
            raise BracketError(
                f"sign change too shallow to re-bracket around {float(root[~found][0])!r}"
            )
        a[c], b[c], fa[c], fb[c] = lo, hi, flo, fhi
    # Secant point of the final bracket, then a short Newton polish.  The
    # endpoint values this close to the root are evaluation noise, so the
    # secant alone can misplace the abscissa by the full bracket width
    # (and noise can even push the exact crossing a sliver outside the
    # bracket); the polish slope is taken on a stencil wide enough to
    # clear the noise floor.  The stencil of a step is evaluated with the
    # point it belongs to.
    secant = _secant(a, b, fa, fb)
    stencil = np.array([0.0, -_POLISH_STEP, _POLISH_STEP])
    f = _fold_values(r, secant[:, None] + stencil)
    x, fx, f_minus, f_plus = secant.copy(), f[:, 0], f[:, 1], f[:, 2]
    best, fbest = x.copy(), np.abs(fx)
    live = np.ones(r.size, dtype=bool)
    for step in range(2):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slope = (f_plus - f_minus) / (2.0 * _POLISH_STEP)
            nxt = x - fx / slope
        live &= np.isfinite(slope) & (slope != 0.0)
        live &= (a - 4.0 * tol < nxt) & (nxt < b + 4.0 * tol)
        idx = np.nonzero(live)[0]
        if idx.size == 0:
            break
        f = _fold_values(r[idx], nxt[idx, None] + stencil[: 3 if step == 0 else 1])
        better = np.abs(f[:, 0]) < fbest[idx]
        live[idx[~better]] = False
        idx, f = idx[better], f[better]
        x[idx], fx[idx] = nxt[idx], f[:, 0]
        best[idx], fbest[idx] = nxt[idx], np.abs(f[:, 0])
        if step == 0:
            f_minus[idx], f_plus[idx] = f[:, 1], f[:, 2]
    # Re-centre the reported bracket on the polished root so the record's
    # sign change is verified against the point actually reported.
    held, lo, hi, _, _ = _rebracket(r, best, np.array([half]))
    a, b = np.where(held, lo, a), np.where(held, hi, b)
    residual = fbest.copy()
    shallow = np.nonzero(~held)[0]
    if shallow.size:
        # Shallow or noisy crossing: keep the final bracket and the best
        # estimate it contains (its secant point is inside by construction).
        s = shallow
        inside = (a[s] < best[s]) & (best[s] < b[s])
        best[s] = np.where(inside, best[s], secant[s])
        residual[s] = np.abs(_fold_values(r[s], best[s, None])[:, 0])
    return tuple(
        ZeroRecord(
            r=rs[i],
            k=ks[i],
            bracket_lo=float(a[i]),
            bracket_hi=float(b[i]),
            abscissa=float(best[i]),
            residual=float(residual[i]),
        )
        for i in range(len(rs))
    )


def refine_root(
    r: int, bracket_lo: float, bracket_hi: float, tol: float = BRACKET_WIDTH
) -> ZeroRecord:
    """Refine a sign-change bracket of the r-fold function to a ZeroRecord.

    The endpoints must evaluate to opposite signs and lie inside one
    inter-asymptotic interval.  The single-bracket case of `refine_roots`.
    """
    return refine_roots([(r, bracket_lo, bracket_hi)], tol)[0]


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


@dataclass(frozen=True)
class _GridScan:
    """The grid part of an IntervalScan: its sign-change cells in place of
    the refined zeros."""

    r: int
    k: int
    brackets: tuple[tuple[float, float], ...]
    grid_counts: tuple[int, ...]
    count_stable: bool
    tangency_suspects: tuple[float, ...]


def _scan_grid(k: int, r_values, base_grid: int = BASE_GRID) -> list[_GridScan]:
    """The grid part of `scan_folds`: brackets, counts and suspects of
    every fold count, in ascending r."""
    r_values = list(r_values)
    if not r_values:
        raise ParameterRangeError("need at least one fold count")
    for r in r_values:
        _check_interval(r, k)
    r_values = sorted(set(r_values))
    _check_int(base_grid, "grid", 16)
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
    return [
        _GridScan(
            r=r,
            k=k,
            brackets=tuple(found[r][0]),
            grid_counts=tuple(counts[r]),
            count_stable=counts[r][-1] == counts[r][-2] == counts[r][-3],
            tangency_suspects=tuple(found[r][1]),
        )
        for r in r_values
    ]


def _refine_scans(grid_scans: list[_GridScan]) -> list[IntervalScan]:
    """The IntervalScans of grid scans, with every bracket of all of them
    refined in one `refine_roots` batch."""
    zeros = iter(
        refine_roots([(g.r, a, b) for g in grid_scans for a, b in g.brackets])
    )
    return [
        IntervalScan(
            r=g.r,
            k=g.k,
            zeros=tuple(itertools.islice(zeros, len(g.brackets))),
            grid_counts=g.grid_counts,
            count_stable=g.count_stable,
            tangency_suspects=g.tangency_suspects,
        )
        for g in grid_scans
    ]


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
    its last three counts agree.  The sign-change cells of the finest grid
    each fold count reached are refined together by `refine_roots`, and
    the zeros are returned in ascending order.  Returns one IntervalScan
    per fold count, keyed by r.
    """
    return {scan.r: scan for scan in _refine_scans(_scan_grid(k, r_values, base_grid))}


def scan_interval(r: int, k: int, base_grid: int = BASE_GRID) -> IntervalScan:
    """Locate and refine every zero of the r-fold function in (1/k, 1/(k-1)).

    The single-fold case of `scan_folds`: scans at the nested densities
    g, 2g - 1 and 4g - 3 (g = base_grid); if the three counts disagree,
    the midpoints are added (8g - 7 points) and the scan is flagged
    unstable unless the last three counts agree.  Zeros of the finest grid
    are refined and returned in ascending order.
    """
    return scan_folds(k, [r], base_grid)[r]


def find_extrema(r: int, k: int, base_grid: int = BASE_GRID) -> tuple[ExtremumRecord, ...]:
    """Locate the local extrema of the r-fold function in (1/k, 1/(k-1)).

    The extrema are the zeros of the central-difference derivative
    (F(x + h) - F(x - h)) / 2h, h = DERIVATIVE_STEP, found by the zero
    solver: its sign changes on a grid of base_grid (an integer >= 16)
    points are shrunk together to BRACKET_WIDTH by the subdivision
    `refine_roots` uses, with both stencil points of every step in one
    fold table, and each abscissa is the secant point of its final
    bracket, or the subdivision point where the derivative came out
    exactly zero.  A derivative that changes sign from - to + marks a
    minimum, from + to - a maximum.  The values come from one fold table
    over all the abscissas.
    """
    _check_interval(r, k)
    _check_int(base_grid, "grid", 16)
    h = DERIVATIVE_STEP
    lo, hi = _interval_bounds(k)
    # The stencil reaches h beyond the grid, so pull the grid in by h.
    s = np.linspace(lo + h, hi - h, base_grid)
    deriv = _derivative_values(np.array([r]), s[None, :])[0]
    sign = np.sign(deriv)
    cells = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if cells.size == 0:
        return ()
    rs = np.full(cells.size, r)
    a, b = s[cells], s[cells + 1]
    fa, fb = deriv[cells], deriv[cells + 1]
    minimum = fa < 0.0
    _subdivide(_derivative_values, rs, a, b, fa, fb, BRACKET_WIDTH)
    x = _secant(a, b, fa, fb)
    value = _fold_values(rs, x[:, None])[:, 0]
    return tuple(
        ExtremumRecord(
            r=r,
            k=k,
            abscissa=float(x[i]),
            value=float(value[i]),
            kind="minimum" if minimum[i] else "maximum",
        )
        for i in range(cells.size)
    )


def sign_profile(r: int, grid: int = 200) -> SignProfile:
    """Check that the r-fold function keeps the sign (-1)^r on
    [0, 1/r - 1e-6] sampled at `grid` points."""
    _check_int(r, "fold count", 1, SCAN_R_MAX)
    _check_int(grid, "grid", 2)
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
