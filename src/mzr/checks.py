"""One registry of the invariants the paper states and the code relies on.

Each check is written once here, with its predicate, its bound, its name
and its detail string, and returns a `Check` record.  `mzr verify` runs
`SUITES` at the default sizes; the acceptance gate
(`tests/test_acceptance.py`) calls the same functions at larger ones.
Checks that share work take the shared object as an argument: the zero
checks the `{(r, k): IntervalScan}` map of a census run, which
`fold_scans` and `mzr census` both get from `zero_finder._scan_many` over
the (r, k) pairs of `zero_finder._census_pairs`, the census checks the
`iaz_predicted_range` array.  The pole-constant check reads both ends of
the same pairs' proxies from one `zero_finder._pole_constants` run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    coefficient_closed_form,
    coefficient_recursive,
    periodicity_check,
    pole_side_signs,
)
from .census import (
    delta_F,
    delta_F_direct,
    divisor_count,
    iaz_asymptotic,
    iaz_predicted,
    iaz_predicted_range,
)
from .multizeta import R_MAX, closed_form, multizeta, multizeta_grid, truncated_euler_zagier
from .riemann_kernel import _GRID_TERMS, _direct_terms, _tail, _zeta_rows
from .riemann_kernel import riemann_zeta, riemann_zeta_alternating
from .zero_finder import SCAN_R_MAX, IntervalScan, _census_pairs, _interval_bounds
from .zero_finder import _pole_constants, _scan_many

_REFERENCE_CELLS = 4 * (4096 - 1)


@dataclass(frozen=True)
class Check:
    """The outcome of one check; `passed` is stored as a plain bool."""

    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))


# ---------------------------------------------------------------------------
# kernel


def alternating_agreement() -> Check:
    grid = np.linspace(1.5, 40.0, 1000)
    em = multizeta_grid(1, grid)
    worst = 0.0
    for s, reference in zip(grid, em):
        alt = riemann_zeta_alternating(float(s))
        worst = max(worst, abs(alt - reference) / abs(reference))
    return Check(
        "alternating-series agreement on [1.5, 40]",
        worst <= 1e-12,
        f"max rel diff {worst:.3e}",
    )


def classical_values() -> Check:
    exact = {2.0: math.pi**2 / 6.0, 4.0: math.pi**4 / 90.0, 0.0: -0.5}
    classical = max(abs(riemann_zeta(s) - v) / abs(v) for s, v in exact.items())
    return Check(
        "classical closed-form values",
        classical <= 1e-14,
        f"max rel diff {classical:.3e}",
    )


def negative_below_one() -> Check:
    low = multizeta_grid(1, np.linspace(0.0, 0.9999, 500))
    return Check(
        "negative on [0, 1)", np.all(low < 0.0), f"max value {float(low.max()):.3e}"
    )


def decreasing_beyond_one() -> Check:
    tail = multizeta_grid(1, np.linspace(1.01, 40.0, 500))
    return Check(
        "strictly decreasing beyond 1",
        np.all(np.diff(tail) < 0.0),
        f"max forward diff {float(np.diff(tail).max()):.3e}",
    )


def direct_term_doubling() -> Check:
    """`riemann_zeta` against 2 `_direct_terms(s)` direct terms and `_tail`
    (at s <= 1 its own sum, doubled; above 1 a later cut than its split's),
    and the fold-table rows 1..R_MAX at the grid cut against the same rows
    at twice the cut, on [0, 60] off the poles."""
    worst = 0.0
    for s in (0.25, 0.5, 2.0, 7.5, 25.0, 40.0):
        n = 2 * _direct_terms(s)
        total = float((np.arange(1, n, dtype=float) ** -s).sum())
        a, b = riemann_zeta(s), _tail(total, s, n, n ** -s)
        worst = max(worst, abs(a - b) / abs(b))
    rows = np.arange(1, R_MAX + 1)[:, None]
    s = np.linspace(0.0, 60.0, 2401)
    s = s[np.all(np.abs(rows * s - 1.0) > 1e-8, axis=0)]
    cut, doubled = _zeta_rows(R_MAX, s), _zeta_rows(R_MAX, s, 2 * _GRID_TERMS)
    shift = np.abs(cut - doubled) / np.abs(doubled)
    row, at = np.unravel_index(np.argmax(shift), shift.shape)
    return Check(
        "direct-term doubling self-consistency",
        worst <= 1e-13 and shift[row, at] <= 1e-13,
        f"max rel shift {worst:.3e}; grid rows 1..{R_MAX} at {_GRID_TERMS} terms: "
        f"{shift[row, at]:.3e} at row {row + 1}, s = {s[at]:.4g}",
    )


# ---------------------------------------------------------------------------
# multizeta


def closed_forms(*, draws: int = 200) -> Check:
    """The recursion against the closed forms for r = 2..4 at `draws`
    seeded points per fold count on (1/r, 4], away from every pole."""
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for r in (2, 3, 4):
        drawn = 0
        while drawn < draws:
            s = float(rng.uniform(1.0 / r + 1e-3, 4.0))
            if any(abs(s - 1.0 / k) < 1e-4 for k in range(1, r + 1)):
                continue
            drawn += 1
            a, b = multizeta(r, s), closed_form(r, s)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return Check(
        "recursion matches closed forms (r = 2..4)",
        worst <= 1e-12,
        f"max scaled diff {worst:.3e}",
    )


def truncated_sums(
    *, folds=range(2, 5), exponents=(2.0,), cutoffs=(10, 100, 1000)
) -> Check:
    """Truncated sums at n = r and at each cutoff >= r increase strictly
    and stay below the continued value, and the remainder at the last
    cutoff n is within the tail bound zeta_{r-1}(s) n^(1-s) / (s-1)."""
    monotone = True
    bounded = True
    for r in folds:
        for s in exponents:
            target = multizeta(r, s)
            last = -math.inf
            for n in sorted({r, *cutoffs}):
                if n < r:
                    continue
                part = truncated_euler_zagier(r, s, n)
                monotone = monotone and last < part < target
                last = part
            head = multizeta(r - 1, s) if r > 1 else 1.0
            bound = head * n ** (1.0 - s) / (s - 1.0)
            bounded = bounded and target - last <= bound
    at = ", ".join(f"{s:g}" for s in exponents)
    return Check(
        "truncated sums increase toward the limit under the tail bound",
        monotone and bounded,
        f"r = {folds[0]}..{folds[-1]} at s = {at}",
    )


def constant_sign() -> Check:
    signs_ok = True
    min_abs = math.inf
    for r in range(1, 13):
        values = multizeta_grid(r, np.linspace(0.0, 1.0 / r - 1e-6, 200))
        signs_ok = signs_ok and bool(np.all((-1) ** r * values > 0.0))
        min_abs = min(min_abs, float(np.min(np.abs(values))))
    return Check(
        "constant sign (-1)^r on [0, 1/r)", signs_ok, f"min |value| {min_abs:.3e}"
    )


# ---------------------------------------------------------------------------
# asymptotics


def recursive_constants() -> Check:
    worst = 0.0
    for r in range(1, 13):
        for k in range(1, r + 1):
            cf = coefficient_closed_form(r, k)
            rec = coefficient_recursive(r, k)
            worst = max(worst, abs(cf - rec) / abs(cf))
    return Check(
        "closed-form vs recursive constants (r <= 12)",
        worst <= 1e-12,
        f"max rel diff {worst:.3e}",
    )


def constant_signs() -> Check:
    signs_ok = all(
        math.copysign(1.0, coefficient_closed_form(r, k)) == (-1.0) ** (r + r // k)
        for r in range(1, 13)
        for k in range(1, r + 1)
    )
    return Check("constant signs follow (-1)^(r + order)", signs_ok, "r <= 12")


def numeric_constants() -> Check:
    """Both end constants of every interval of a census to SCAN_R_MAX, and
    C_1(1) from (1, 2), read off the proxies of one `_pole_constants` run,
    against the closed forms."""
    readings = _pole_constants([(1, 2), *_census_pairs(SCAN_R_MAX)])
    worst = 0.0
    for (r, j), values in readings.items():
        cf = coefficient_closed_form(r, j)
        worst = max(worst, *(abs(num - cf) / abs(cf) for num in values))
    return Check(
        f"closed-form vs proxy-end constants (r <= {SCAN_R_MAX})",
        worst <= 1e-12,
        f"max rel diff {worst:.3e}",
    )


def periodicity() -> Check:
    return Check(
        "constant ratios repeat mod k",
        periodicity_check(2, 4) and periodicity_check(3, 3),
        "k = 2 (q < 4) and k = 3 (q < 3)",
    )


def pole_side_parity() -> Check:
    parity_ok = True
    for r in range(2, 9):
        for k in range(1, r + 1):
            left, right = pole_side_signs(r, k)
            order = r // k
            expected_right = (-1) ** (r + order)
            expected_left = expected_right * (-1) ** order
            parity_ok = parity_ok and (left, right) == (expected_left, expected_right)
    return Check(
        "pole-side signs match order parity",
        parity_ok,
        "sampled at 1/k +/- 1e-4, r <= 8",
    )


# ---------------------------------------------------------------------------
# zeros


def fold_scans(r_max: int) -> dict[tuple[int, int], IntervalScan]:
    """Every interval scan for r = 2..r_max, as the census run: a fold
    table per proxy round and one for the root checks."""
    return _scan_many(_census_pairs(r_max))


def _top(scans) -> int:
    return max(r for r, _ in scans)


def stable_counts(scans) -> Check:
    return Check(
        f"zero counts stable across proxy doublings (r <= {_top(scans)})",
        all(scan.count_stable for scan in scans.values()),
        f"{len(scans)} intervals",
    )


def no_tangency_suspects(scans) -> Check:
    suspects = sum(len(scan.tangency_suspects) for scan in scans.values())
    return Check(
        f"no suspected tangencies (r <= {_top(scans)})",
        suspects == 0,
        f"{suspects} flagged",
    )


def narrow_brackets(scans) -> Check:
    return Check(
        "refined brackets within 1e-12",
        all(
            rec.bracket_hi - rec.bracket_lo <= 1e-12
            for scan in scans.values()
            for rec in scan.zeros
        ),
        "all records",
    )


def small_residuals(scans) -> Check:
    residual_ok = True
    worst_ratio = 0.0
    for (r, k), scan in scans.items():
        # The scale is the larger end value of a fixed reference cell
        # around each zero, 1/(4 (4096 - 1)) of the scanned interval.
        lo_edge, hi_edge = _interval_bounds(k)
        h = (hi_edge - lo_edge) / _REFERENCE_CELLS
        for rec in scan.zeros:
            cell_lo = lo_edge + int((rec.abscissa - lo_edge) / h) * h
            scale = max(
                abs(multizeta(r, cell_lo)),
                abs(multizeta(r, cell_lo + h)),
            )
            ratio = rec.residual / scale
            worst_ratio = max(worst_ratio, ratio)
            residual_ok = residual_ok and ratio <= 1e-9
    return Check(
        "residuals small against the local scale",
        residual_ok,
        f"max residual/scale {worst_ratio:.3e}",
    )


def predicted_totals(scans) -> Check:
    top = _top(scans)
    counts_match = all(
        sum(len(scans[(r, k)]) for k in range(2, r + 1)) == iaz_predicted(r)
        for r in range(2, top + 1)
    )
    return Check(
        f"empirical totals equal the arithmetic prediction (r <= {top})",
        counts_match,
        "soft evidence for the per-interval conjecture",
    )


# ---------------------------------------------------------------------------
# census


def divisor_identity(predicted) -> Check:
    """F(r) from `predicted` (an `iaz_predicted_range` array) against the
    trial-division divisor sums, for every r it covers."""
    r_top = len(predicted) - 1
    divisor_cumulative = 0
    identity_ok = True
    for r in range(1, r_top + 1):
        divisor_cumulative += divisor_count(r)
        identity_ok = identity_ok and predicted[r] == divisor_cumulative - r
    return Check(
        f"divisor-sum identity exact (r <= {r_top})",
        identity_ok,
        "floor-division sums vs trial division",
    )


def increment_parity(*, r_max: int = 2000) -> Check:
    parity_ok = True
    for r in range(2, r_max + 1):
        root = math.isqrt(r)
        parity_ok = parity_ok and (delta_F(r) % 2 == 0) == (root * root == r)
    return Check(
        f"increment parity tracks perfect squares (r <= {r_max})",
        parity_ok,
        "d(r) - 1 even iff r is a square",
    )


def increment_direct() -> Check:
    return Check(
        "increment formula matches direct difference (r <= 500)",
        all(delta_F(r) == delta_F_direct(r) for r in range(2, 501)),
        "",
    )


def asymptotic_band(predicted) -> Check:
    """F(r) from `predicted` within 3 sqrt(r) of r ln r - 2(1 - gamma) r
    on [100, r_top]."""
    r_top = len(predicted) - 1
    band_ok = True
    worst = 0.0
    for r in range(100, r_top + 1):
        gap = abs(float(predicted[r]) - iaz_asymptotic(r)) / math.sqrt(r)
        worst = max(worst, gap)
        band_ok = band_ok and gap <= 3.0
    return Check(
        f"asymptotic residual within 3 sqrt(r) on [100, {r_top}]",
        band_ok,
        f"max |residual|/sqrt(r) = {worst:.3f}",
    )


def _zeros_suite() -> list[Check]:
    scans = fold_scans(8)
    return [
        check(scans)
        for check in (
            stable_counts,
            no_tangency_suspects,
            narrow_brackets,
            small_residuals,
            predicted_totals,
        )
    ]


def _census_suite() -> list[Check]:
    predicted = iaz_predicted_range(2000)
    return [
        divisor_identity(predicted),
        increment_parity(r_max=2000),
        increment_direct(),
        asymptotic_band(predicted),
    ]


def _run(*checks):
    return lambda: [check() for check in checks]


# Suite name -> the suite at its verify sizes, in report order.
SUITES = {
    "kernel": _run(
        alternating_agreement,
        classical_values,
        negative_below_one,
        decreasing_beyond_one,
        direct_term_doubling,
    ),
    "multizeta": _run(closed_forms, truncated_sums, constant_sign),
    "asymptotics": _run(
        recursive_constants,
        constant_signs,
        numeric_constants,
        periodicity,
        pole_side_parity,
    ),
    "zeros": _zeros_suite,
    "census": _census_suite,
}
