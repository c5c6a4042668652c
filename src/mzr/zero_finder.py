"""Inter-asymptotic zeros and extrema of the r-fold functions on (0, 1).

Each interval (1/k, 1/(k-1)) between consecutive asymptotes is scanned
through a Chebyshev proxy: the r-fold function with its poles at both
ends cancelled, which is analytic on the closed interval and has the
same zeros inside it, and with the pole at 1/(k+1), the nearest
singularity outside, which sets how fast its coefficients fall,
cancelled too.  It is interpolated at the 2n - 1 interior second-kind
Chebyshev points of the interval and at every other one of them, n - 1,
for n = 32, 64, 128 in turn: each (r, k) settles at the first n where
both proxies resolve, as Chebfun grows its interpolants (Aurentz &
Trefethen, ACM TOMS 43, 2017), or at 128.  The points of n are every
other one of 2n, so no point is evaluated twice, and each round of a
run's scan evaluates the new points of every interval with a pending
(r, k) in one fold table, which serves every fold count that needs it.
Each series is chopped at its coefficient plateau and its roots are
colleague-matrix eigenvalues (Boyd, SIAM J. Numer. Anal. 40, 2002).
Each root of the larger settled proxy is polished by one Newton step on
the full series, and the roots of all intervals of a run are checked
together in one more fold table: a root is a zero if the function
changes sign across its 0.9e-12-wide bracket, and its residual is |F| at
the root.  A count that differs between the two proxies, an unresolved
proxy, a near-real root pair (a possible even-order zero) or a root that
fails its check is flagged instead of trusted.  The settled proxy's
series at the interval's ends, with the cancelled factors divided out,
gives the constants of both end poles (`_pole_constants`).

The proxy-root stage works on a run at once, not interval by interval:
one FFT per point count and round over the stacked proxies still
pending, then, on the settled series, one eigenvalue call
per colleague-matrix size, one pass of the interval and near-real-pair
tests over all their roots, and one Newton step down the zero-padded
columns of all its series.  Each step gives every proxy the bits it
would get alone, so a record does not depend on the run it belongs to.

Extrema are the roots of the same proxy's exact derivative, found by the
same root stage and polished by the same Newton step; like a run's
zeros, a run's extrema come from the proxy points' fold tables, one per
round, and one more for the values at every extremum.  An unsettled
extremum count raises NonConvergenceError.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .errors import NonConvergenceError, ParameterRangeError, _check_int
from .multizeta import _fold_table

__all__ = [
    "SCAN_R_MAX",
    "BRACKET_WIDTH",
    "ZeroRecord",
    "ExtremumRecord",
    "IntervalScan",
    "delta_exclusion",
    "scan_interval",
    "find_extrema",
]

# Scans above this fold count are untested territory; refuse rather than
# return something slow and unvalidated.
SCAN_R_MAX = 16

# Widest bracket of a zero, and the default bracket tolerance.
BRACKET_WIDTH = 1e-12

# The Chebyshev proxy: the largest n of its grids, the interior
# second-kind points of n and of 2n (n - 1 and 2n - 1), the chop level
# relative to the largest coefficient, and the share of the interval below
# which two roots are one suspected tangency.
_PROXY_NODES = 128
_CHOP = 1e-10
_TANGENCY_GAP = 1e-3


def delta_exclusion(k: int) -> float:
    """Half-width of the guard gap kept around the asymptote at 1/k.

    Proportional to the width of the interval just above 1/k (for k = 1,
    the interval just below 1 is used), floored at 1e-6.
    """
    k = _check_int(k, "asymptote index", 1)
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

    grid_counts holds the real root counts of the two Chebyshev proxies
    the interval settled on, at grid_points points: (31, 63), (63, 127) or
    (127, 255), the first pair at which both proxies resolve, or the last.
    count_stable records whether the count can be trusted: the two counts
    agree, both proxies are resolved, no tangency is suspected and every
    root was bracketed.  tangency_suspects are the abscissas of near-real
    conjugate root pairs and of real root pairs closer than a thousandth
    of the interval: possible even-order zeros.
    """

    r: int
    k: int
    zeros: tuple[ZeroRecord, ...]
    grid_counts: tuple[int, ...]
    grid_points: tuple[int, ...]
    count_stable: bool
    tangency_suspects: tuple[float, ...]

    def __iter__(self) -> Iterator[ZeroRecord]:
        return iter(self.zeros)

    def __len__(self) -> int:
        return len(self.zeros)


def _check_interval(r: int, k: int) -> tuple[int, int]:
    r = _check_int(r, "fold count", 2, SCAN_R_MAX)
    return r, _check_int(k, "interval index", 2, r)


def _interval_bounds(k: int) -> tuple[float, float]:
    lo = 1.0 / k + delta_exclusion(k)
    hi = 1.0 / (k - 1) - delta_exclusion(k - 1)
    return lo, hi


def _fold_values(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Fold r[j] at every point of row j of x, from one fold table.

    Table values are pointwise, so each value is the one its bracket
    would get alone, whatever else shares the table.
    """
    table = np.asarray(_fold_table(int(r.max(initial=1)), x.ravel()))
    rows = np.repeat(r, x.shape[1])
    return table[rows, np.arange(x.size)].reshape(x.shape)


def _straddles(f_lo: np.ndarray, f_hi: np.ndarray) -> np.ndarray:
    return (f_lo != 0.0) & (f_hi != 0.0) & ((f_lo > 0.0) != (f_hi > 0.0))


def _proxy_nodes(k: int, n: int) -> np.ndarray:
    """The n - 1 interior second-kind Chebyshev points cos(j pi / n),
    j = 1..n-1, of (1/k, 1/(k-1)) as abscissas, in descending order; those
    of n are every other one of 2n, bit for bit.  None is an endpoint: the
    nearest lies about pi^2 w / (4 n^2) inside, for an interval of width w."""
    t = np.cos(np.pi * np.arange(1, n) / n)
    return 1.0 / k + 0.5 * (1.0 / (k - 1) - 1.0 / k) * (1.0 + t)


def _proxy_series(values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[bool]]:
    """For each row of values at the n - 1 interior second-kind points of
    n: the Chebyshev series of its interpolant (one row each), the same
    series chopped where its coefficients fall below _CHOP of the largest,
    and whether it is resolved: the chop keeps at most n / 2 of them."""
    # The interpolant's U-series is a DST-I of the values times sin(theta):
    # an FFT of their odd extension.  U_m = 2 (T_m + T_{m-2} + ...) less
    # T_0 for even m makes it a T-series by suffix sums by parity.  One FFT
    # serves every row; each row gets the bits it would get alone.
    n = values.shape[1] + 1
    odd = np.zeros((len(values), 2 * n))
    odd[:, 1:n] = values * np.sin(np.pi * np.arange(1, n) / n)
    odd[:, n + 1 :] = -odd[:, n - 1 : 0 : -1]
    c = _parity_sums(np.fft.rfft(odd)[:, 1:n].imag.T * (-2.0 / n)).T
    c[:, 0] *= 0.5
    size = np.abs(c)
    kept = size > _CHOP * size.max(axis=1, keepdims=True)
    lengths = np.where(kept.any(axis=1), n - 1 - np.argmax(kept[:, ::-1], axis=1), 1).tolist()
    return c, [row[:length] for row, length in zip(c, lengths)], [m <= n // 2 for m in lengths]


def _chebroots(series) -> list[np.ndarray]:
    """numpy's `chebroots` of each series, bit for bit, from one eigenvalue
    call per matrix size: each series is trimmed of trailing zeros and its
    colleague matrix built as `chebcompanion` builds it (Boyd, SIAM J.
    Numer. Anal. 40, 2002); the matrices of one size are stacked."""
    series = [np.asarray(c, dtype=float) for c in series]
    roots = [np.array([])] * len(series)
    by_size: dict[int, list[int]] = {}
    for i, c in enumerate(series):
        while len(c) and c[-1] == 0.0:
            c = c[:-1]
        series[i] = c
        if len(c) == 2:
            roots[i] = np.array([-c[0] / c[1]])
        elif len(c) > 2:
            by_size.setdefault(len(c) - 1, []).append(i)
    for n, members in by_size.items():
        c = np.array([series[i] for i in members])
        mat = np.zeros((len(members), n, n))
        off = np.arange(n - 1)
        edge = np.full(n - 1, 0.5)
        edge[0] = np.sqrt(0.5)
        mat[:, off, off + 1] = mat[:, off + 1, off] = edge
        scl = np.array([1.0] + [np.sqrt(0.5)] * (n - 1))
        mat[:, :, -1] -= (c[:, :-1] / c[:, -1:]) * (scl / scl[-1]) * 0.5
        # The rotated matrix, as chebroots takes it; eigvals returns real
        # values only when every eigenvalue of its matrix is real.
        for i, w in zip(members, np.linalg.eigvals(mat[:, ::-1, ::-1])):
            roots[i] = np.sort(w.real if not w.imag.any() else w)
    return roots


def _interval_roots(eigen, bounds) -> list[tuple[list[float], list[float]]]:
    """For each root array z of a Chebyshev series in t = 2x - 1, ascending
    as `_chebroots` gives it, and its (x_lo, x_hi): the roots whose x has
    real part in (x_lo, x_hi), as (roots, suspects): the real roots,
    ascending; a near-real conjugate pair, or two real roots, closer than
    _TANGENCY_GAP is one suspect at its real part or midpoint instead.
    Only the merge of close real roots runs series by series."""
    owner = np.repeat(np.arange(len(eigen)), [len(z) for z in eigen])
    x = 0.5 * (1.0 + np.concatenate(eigen))
    lo, hi = np.array(bounds).T
    inside = (lo[owner] < x.real) & (x.real < hi[owner])
    pair = inside & (0.0 < x.imag) & (x.imag < 0.5 * _TANGENCY_GAP)
    real = inside & (x.imag == 0.0)
    roots, suspects = [[] for _ in eigen], [[] for _ in eigen]
    for i, z in zip(owner[pair].tolist(), x.real[pair].tolist()):
        suspects[i].append(z)
    for i, z in zip(owner[real].tolist(), x.real[real].tolist()):
        if roots[i] and z - roots[i][-1] < _TANGENCY_GAP:
            suspects[i].append(0.5 * (roots[i].pop() + z))
        else:
            roots[i].append(z)
    return [(found, sorted(near)) for found, near in zip(roots, suspects)]


def _proxies(pairs) -> list[tuple]:
    """The settled Chebyshev proxies g of the r-fold functions, one for each
    (r, k) of pairs, in order: the full series of g at its 2n - 1 points,
    that of the (n - 1)-point proxy chopped, the full one chopped, whether
    both resolve, and the point counts (n - 1, 2n - 1).

    The proxies grow in rounds, n = 32, 64, 128: the 2n - 1 points of n are
    every other one of 2n, so each round's fold table, at the largest
    pending r, holds only the new points of the intervals with a pending
    (r, k), and the (n - 1)-point proxy reads every other point.  An (r, k)
    settles at the first n where both of its proxies resolve, or at 128
    whatever they give.  Table values are pointwise, so each (r, k) gets the
    proxies and the n it would get alone.  With the end poles cancelled as
    the kernel forms them, 1 / (k s - 1) and 1 / ((k - 1) s - 1), and the
    nearest singularity outside, 1 / ((k + 1) s - 1), g_r is F_r x^(r // k)
    (1 - x)^(r // (k - 1)) (1 + a x)^(r // (k + 1)) times a positive
    constant, a = (k + 1) / (k - 1), in x in [0, 1] across the interval;
    `_pole_constants` divides the same factors out at the ends."""
    # At n = 16 only (2, 2) resolves, so the first round is n = 32.
    proxies, pending, g, n = [None] * len(pairs), list(range(len(pairs))), None, _PROXY_NODES // 4
    while pending:
        # Round one takes all 2n - 1 points of each interval, later ones the
        # n points between those of the round before.
        size, step = (2 * n - 1, 1) if g is None else (n, 2)
        nodes = {k: _proxy_nodes(k, 2 * n)[::step] for k in dict.fromkeys(pairs[i][1] for i in pending)}
        table = _fold_table(max(pairs[i][0] for i in pending), np.concatenate(list(nodes.values())))
        start = {k: j * size for j, k in enumerate(nodes)}
        poles = {k: (k * s - 1.0, 1.0 - (k - 1) * s, (k + 1) * s - 1.0) for k, s in nodes.items()}
        new = []
        for r, k in (pairs[i] for i in pending):
            below, above, beyond = poles[k]
            # Scalar exponents: numpy's fast paths for them set the bits.
            new.append(table[r][start[k] : start[k] + size] * below ** (r // k)
                       * above ** (r // (k - 1)) * beyond ** (r // (k + 1)))
        if g is None:
            g = np.array(new)
        else:
            g, old = np.empty((len(pending), 2 * n - 1)), g
            g[:, ::2], g[:, 1::2] = new, old
        (_, coarse, coarse_ok), (full, fine, ok) = _proxy_series(g[:, 1::2]), _proxy_series(g)
        done = (np.array(coarse_ok) & ok) | (n == _PROXY_NODES)
        for j in np.flatnonzero(done).tolist():
            proxies[pending[j]] = full[j], coarse[j], fine[j], coarse_ok[j] and ok[j], (n - 1, 2 * n - 1)
        pending, g, n = [i for i, d in zip(pending, done) if not d], g[~done], 2 * n
    return proxies


def _pole_constants(pairs) -> dict[tuple[int, int], list[float]]:
    """Every reading of a pole constant off the ends of the settled proxies
    g of pairs (one `_proxies` run), keyed by pole (r, j) in pair order: the
    lower end of interval k reads C_r(k), the upper end C_r(k - 1), kept
    when j <= r; r <= SCAN_R_MAX.  With m_a = r // k, m_b = r // (k - 1)
    and m_c = r // (k + 1), g(-1) = C_r(k) k^-(m_b + m_c) and g(+1) =
    (-1)^m_b C_r(k - 1) (k - 1)^-m_a (2 / (k - 1))^m_c.  A proxy that does
    not resolve by 255 points raises NonConvergenceError, naming the first
    such (r, k) in order."""
    pairs = [(_check_int(r, "fold count", 1, SCAN_R_MAX), k) for r, k in pairs]
    readings: dict[tuple[int, int], list[float]] = {}
    for (r, k), (c, _, _, ok, points) in zip(pairs, _proxies(pairs)):
        if not ok:
            raise NonConvergenceError(
                f"the proxy of the {r}-fold function on (1/{k}, 1/{k - 1}) "
                f"did not resolve at {points[0]} and {points[1]} points"
            )
        m_a, m_b, m_c = r // k, r // (k - 1), r // (k + 1)
        lower = float(c @ (-1.0) ** np.arange(len(c))) * float(k) ** (m_b + m_c)
        upper = (-1.0) ** m_b * float(c.sum()) * float(k - 1) ** m_a * ((k - 1) / 2.0) ** m_c
        for j, value in ((k, lower), (k - 1, upper)):
            if j <= r:
                readings.setdefault((r, j), []).append(value)
    return readings


def _scan_grid(pairs, series=None) -> list[tuple[IntervalScan, tuple, tuple]]:
    """The proxy-root stage of a run: for every (r, k) of pairs, each
    checked and in order, repeats dropped, its IntervalScan without zeros,
    the roots of its settled (2n - 1)-point proxy g (see `_proxies`), or of
    series(g, r, k), in the guarded interval, each after one Newton step on
    the full series, and the slopes that step used.  Each step, down to the
    one Newton step of `_newton_steps`, runs once for the whole run (see the
    module docstring)."""
    pairs = list(dict.fromkeys(_check_interval(r, k) for r, k in pairs))
    if not pairs:
        return []
    full, coarse, fine, ok, points = zip(*_proxies(pairs))
    if series is not None:
        full, coarse, fine = (
            [series(f, r, k) for f, (r, k) in zip(rows, pairs)] for rows in (full, coarse, fine)
        )
    widths = [1.0 / (k - 1) - 1.0 / k for _, k in pairs]
    bounds = [[(b - 1.0 / k) / w for b in _interval_bounds(k)] for (_, k), w in zip(pairs, widths)]
    filtered = _interval_roots(_chebroots([*coarse, *fine]), bounds + bounds)
    scans, roots = [], []
    for i, ((r, k), width) in enumerate(zip(pairs, widths)):
        (coarse_x, coarse_suspects), (fine_x, suspects) = filtered[i], filtered[len(pairs) + i]
        settled = len(coarse_x) == len(fine_x) and ok[i]
        scans.append(IntervalScan(
            r=r,
            k=k,
            zeros=(),
            grid_counts=(len(coarse_x), len(fine_x)),
            grid_points=points[i],
            count_stable=settled and not (coarse_suspects or suspects),
            tangency_suspects=tuple(1.0 / k + width * x for x in suspects),
        ))
        roots.append(fine_x)
    found = []
    for scan, (t, slope) in zip(scans, _newton_steps(full, roots)):
        k = scan.k
        width = 1.0 / (k - 1) - 1.0 / k
        x = tuple((1.0 / k + width * 0.5 * (1.0 + t)).tolist())
        found.append((scan, x, tuple(slope)))
    return found


def _refine_scans(proxy_scans, tol: float = BRACKET_WIDTH) -> list[IntervalScan]:
    """The IntervalScans of `_scan_grid` results.  Every root x of all of
    them is checked in one fold table, at x - h, x and x + h for
    h = 0.45 tol: ends of opposite signs make it a zero with bracket
    (x - h, x + h) and residual |F(x)|; otherwise it gives no zero and
    makes its interval unstable."""
    if not 1e-14 <= tol <= BRACKET_WIDTH:
        raise ParameterRangeError(
            f"bracket tolerance must lie in [1e-14, {BRACKET_WIDTH}], got {tol!r}"
        )
    h = 0.45 * tol
    r = np.array([scan.r for scan, roots, _ in proxy_scans for _ in roots], dtype=int)
    x = np.array([root for _, roots, _ in proxy_scans for root in roots], dtype=float)
    f = _fold_values(r, x[:, None] + np.array([-h, 0.0, h]))
    checks = iter(zip(_straddles(f[:, 0], f[:, 2]).tolist(), np.abs(f[:, 1]).tolist()))
    scans = []
    for scan, roots, _ in proxy_scans:
        zeros, stable = [], scan.count_stable
        for root in roots:
            held, residual = next(checks)
            if held:
                zeros.append(ZeroRecord(scan.r, scan.k, root - h, root + h, root, residual))
            stable = stable and held
        scans.append(replace(scan, zeros=tuple(zeros), count_stable=stable))
    return scans


def _scan_many(pairs, tol: float = BRACKET_WIDTH) -> dict[tuple[int, int], IntervalScan]:
    """Scan the intervals of many (r, k) pairs from shared fold tables: the
    proxy points of every interval share one table per round, whatever fold
    counts need it, and every root of the run is checked at +-0.45 tol in
    one more.  Results are keyed by (r, k), in the order of pairs."""
    return {(scan.r, scan.k): scan for scan in _refine_scans(_scan_grid(pairs), tol)}


def _census_pairs(r_max: int) -> list[tuple[int, int]]:
    """The run of a census up to r_max: every interval k = 2..r_max, with
    each fold count k..r_max it belongs to."""
    return [(r, k) for k in range(2, r_max + 1) for r in range(k, r_max + 1)]


def scan_interval(r: int, k: int) -> IntervalScan:
    """Locate and refine every zero of the r-fold function in (1/k, 1/(k-1)):
    the one-pair case of a run's scan.

    The folds up to r are evaluated at the 63 interior second-kind
    Chebyshev points of the interval, then at 64 and 128 more between
    them while a proxy is unresolved; the coarse proxy takes every other
    point, and the counts come from the first pair that both resolve, 31
    and 63 points up to 127 and 255 (see `IntervalScan.grid_points`).  The
    proxy, with the poles at both ends and the nearest one outside, at
    1/(k+1), cancelled, is chopped at its coefficient plateau, and its real
    roots inside the interval are the zero counts.  Each root x of the
    larger proxy gets one Newton step on the full series and is a zero if
    F changes sign across x -+ 0.45e-12; zeros come in ascending order.
    The count is unstable unless both proxies give it, both resolve,
    neither suspects a tangency and every root passes its check.
    """
    return _scan_many([(r, k)])[(r, k)]


def _extremum_series(c: np.ndarray, r: int, k: int) -> np.ndarray:
    """h = x (1 - x) (1 + a x) g' - (m_a (1 - x) (1 + a x) - m_b x (1 + a x)
    + m_c a x (1 - x)) g, a = (k + 1) / (k - 1), m_a = r // k, m_b =
    r // (k - 1), m_c = r // (k + 1), for the series c in t = 2x - 1 of the
    r-fold proxy g of interval k: x^(m_a+1) (1 - x)^(m_b+1) (1 + a x)^(m_c+1)
    F' times a positive constant, so its roots are the extrema of F and its
    sign that of F'."""
    m_a, m_b, m_c, a = r // k, r // (k - 1), r // (k + 1), (k + 1) / (k - 1)
    # In t, x (1 - x) d/dx = (1 - t^2)/2 d/dt, 1 + a x = l0 + l1 t and
    # m_a (1 - x) - m_b x = p0 + p1 t; with e = (l0 + l1 t) g' - m_c a g / 2
    # and q = (l0 + l1 t) (p0 + p1 t), h = (e/2 - q0 g) - t (q1 g + t (e/2 + q2 g)).
    l0, l1, p0, p1 = 1.0 + 0.5 * a, 0.5 * a, 0.5 * (m_a - m_b), -0.5 * (m_a + m_b)
    g, d = np.concatenate([c, [0.0] * 2]), np.concatenate([_chebder(c), [0.0] * 3])
    half_e = 0.5 * (l0 * d + l1 * _times_t(d) - 0.5 * m_c * a * g)
    inner = _times_t(l1 * p1 * g + half_e)
    return half_e - l0 * p0 * g - _times_t((l0 * p1 + l1 * p0) * g + inner)


def _times_t(c: np.ndarray) -> np.ndarray:
    """t c for a Chebyshev series c whose top coefficient is zero, at the
    same length: t T_0 = T_1 and t T_j = (T_(j-1) + T_(j+1)) / 2."""
    p = 0.5 * np.concatenate([c[1:2], c[:-2] + c[2:], c[-2:-1]])
    p[1] += 0.5 * c[0]
    return p


def _parity_sums(w: np.ndarray) -> np.ndarray:
    """s_m = w_m + w_(m+2) + ... along axis 0.  The sums run from the top
    down, so zeros padded at the top leave every sum's bits as they are."""
    s = np.empty_like(w)
    s[::2] = np.cumsum(w[::2][::-1], axis=0)[::-1]
    s[1::2] = np.cumsum(w[1::2][::-1], axis=0)[::-1]
    return s


def _chebder(c: np.ndarray) -> np.ndarray:
    """The derivative of each Chebyshev series c along axis 0: d_m the sum
    of 2 j c_j over j = m + 1, m + 3, ..., and d_0 half of it."""
    d = _parity_sums((2.0 * np.arange(len(c)) * c.T).T)[1:]
    d[:1] *= 0.5
    return d


def _newton_steps(series, roots) -> list[tuple[np.ndarray, list[float]]]:
    """One Newton step on each Chebyshev series in t = 2x - 1 from each of
    its roots x in [0, 1]: the stepped t, and the slope dc/dt it used.
    Every value and slope of the run is one product of the series,
    zero-padded at the top to one length, with T_j(t) = cos(j theta) and
    T_j'(t) = j sin(j theta) / sin(theta), t = cos(theta), read off the
    powers of e^(i theta) (one cumulative product) and summed down the
    real and imaginary columns from j = 0: a padded zero leaves a sum's
    bits as they are, so each root gets the bits it would get alone.  In
    a guarded interval sin(theta) >= 0.02."""
    length = max(map(len, series))
    c = np.zeros((length, len(series)))
    for j, f in enumerate(series):
        c[: len(f), j] = f
    counts = [len(x) for x in roots]
    owner = np.repeat(np.arange(len(series)), counts)
    t = 2.0 * np.array([x for xs in roots for x in xs]) - 1.0
    sine, j = np.sqrt((1.0 - t) * (1.0 + t)), np.arange(length)[:, None]
    z = np.cumprod(np.where(j > 0, t + 1j * sine, 1.0), axis=0)
    z.real *= c[:, owner]
    z.imag *= j * c[:, owner]
    value, slope = z.view(float).sum(axis=0).reshape(-1, 2).T
    slope = slope / sine
    ends = np.cumsum(counts)[:-1]
    return [
        (u, d.tolist()) for u, d in zip(np.split(t - value / slope, ends), np.split(slope, ends))
    ]


def _extrema(pairs) -> dict[tuple[int, int], tuple[ExtremumRecord, ...]]:
    """The extrema of every (r, k) of a run's pairs, keyed by (r, k) in the
    order of pairs: the proxy-root stage on `_extremum_series`, then the
    value at every extremum of the run from one more fold table.  An
    extremum is a minimum if h rises through it.  NonConvergenceError
    names the first (r, k), in that order, whose count is not stable."""
    found = _scan_grid(pairs, _extremum_series)
    for scan, _, _ in found:
        if not scan.count_stable:
            raise NonConvergenceError(
                f"extrema of the {scan.r}-fold function in (1/{scan.k}, 1/{scan.k - 1}) "
                f"did not settle: {scan.grid_counts[0]} and {scan.grid_counts[1]} roots "
                f"at {scan.grid_points[0]} and {scan.grid_points[1]} points"
            )
    r = np.array([scan.r for scan, xs, _ in found for _ in xs], dtype=int)
    x = np.array([a for _, xs, _ in found for a in xs], dtype=float)
    values = iter(_fold_values(r, x[:, None])[:, 0].tolist())
    return {
        (scan.r, scan.k): tuple(
            ExtremumRecord(scan.r, scan.k, a, next(values), "minimum" if d > 0.0 else "maximum")
            for a, d in zip(xs, slopes)
        )
        for scan, xs, slopes in found
    }


def find_extrema(r: int, k: int) -> tuple[ExtremumRecord, ...]:
    """Locate the local extrema of the r-fold function in (1/k, 1/(k-1)):
    the one-pair case of a run's extrema, which, like its zeros, come from
    the proxy's fold tables and one more for the values.

    They are the real roots, in the guarded interval, of the zeros'
    Chebyshev proxy g (see `scan_interval`) turned into its exact derivative
    with the three cancelled poles' share taken out, h = x (1 - x) (1 + a x)
    g' - (m_a (1 - x) (1 + a x) - m_b x (1 + a x) + m_c a x (1 - x)) g
    (a, m_a, m_b, m_c as in `_extremum_series`), has the sign of F'.  The
    point counts are those g settles on.  Each root of the larger proxy
    gets one Newton step on h from the full series; h rising through it
    marks a minimum.  NonConvergenceError, naming the point counts, is
    raised unless both proxies give the count, resolve and suspect no
    tangency.  Values come from the last table; records ascend.
    """
    return _extrema([(r, k)])[(r, k)]
