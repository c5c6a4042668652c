"""Acceptance gate: eight end-to-end criteria, one test per criterion.

Reference zeros and extrema are six-decimal published anchors; the eight
entries whose printed digits disagree with independent 40-digit
re-evaluation by more than the gates below carry the re-evaluated digits
(see the project decision ledger).  Gates: zero and extremum abscissas to
1e-4, extremum values to 1e-3 * max(1, |value|).
"""
import math

import numpy as np
import pytest

from mzr import (
    EULER_GAMMA,
    closed_form,
    coefficient_closed_form,
    coefficient_numeric,
    coefficient_recursive,
    delta_F,
    divisor_count,
    divisor_identity_check,
    find_extrema,
    iaz_predicted,
    iaz_predicted_range,
    multizeta,
    riemann_zeta,
    riemann_zeta_alternating,
    scan_folds,
    sign_profile,
    truncated_euler_zagier,
)

# (r, k) -> ascending zero abscissas in (1/k, 1/(k-1)).
REFERENCE_ZEROS = {
    (2, 2): [0.6268175],
    (3, 3): [0.385782],
    (3, 2): [0.724902],
    (4, 4): [0.27886],
    (4, 3): [0.387072],
    (4, 2): [0.571348, 0.783444],
    (5, 5): [0.218315],
    (5, 4): [0.278346],
    (5, 3): [0.423505],
    (5, 2): [0.643861, 0.821699],
    (6, 6): [0.179347],
    (6, 5): [0.217682],
    (6, 4): [0.279817],
    (6, 3): [0.362716, 0.419205],
    (6, 2): [0.549629, 0.696745, 0.848546],
    (7, 7): [0.152170],
    (7, 6): [0.178811],
    (7, 5): [0.217987],
    (7, 4): [0.298653],
    (7, 3): [0.365596, 0.442820],
    (7, 2): [0.605776, 0.736271, 0.868399],
    (8, 8): [0.132134],
    (8, 7): [0.151738],
    (8, 6): [0.178822],
    (8, 5): [0.218978],
    (8, 4): [0.266060, 0.295787],
    (8, 3): [0.392752, 0.437321],
    (8, 2): [0.538144, 0.650658, 0.766794, 0.883665],
}

# (r, k) -> ascending (kind, abscissa, value) for every published extremum.
REFERENCE_EXTREMA = {
    (4, 2): [("minimum", 0.693658, -4.0699572)],
    (5, 2): [("maximum", 0.776027, 6.003808)],
    (6, 3): [("minimum", 0.386562, -2.462682)],
    (6, 2): [("maximum", 0.578174, 5.283455), ("minimum", 0.818945, -10.900018)],
    (7, 3): [("maximum", 0.412258, 4.875899)],
    (7, 2): [("minimum", 0.663498, -1.927124), ("maximum", 0.847208, 21.72816)],
    (8, 4): [("minimum", 0.277976, -2.253261)],
    (8, 3): [("minimum", 0.420455, -2.635752)],
    (8, 2): [
        ("minimum", 0.551370, -12.188697),
        ("maximum", 0.719417, 1.334459),
        ("minimum", 0.867680, -45.821285),
    ],
}

PREDICTED_TOTALS = [1, 2, 4, 5, 8, 9, 12, 14, 17]  # r = 2..10


@pytest.fixture(scope="module")
def all_scans():
    """One full scan of every interval for r = 2..10, shared by the zero
    and census criteria."""
    return {
        (r, k): scan
        for k in range(2, 11)
        for r, scan in scan_folds(k, range(k, 11)).items()
    }


def test_criterion_1_zero_regression(all_scans):
    """Every published zero for r = 2..8 is reproduced to 1e-4 with no
    extra or missing zeros in any interval."""
    for r in range(2, 9):
        for k in range(2, r + 1):
            scan = all_scans[(r, k)]
            reference = REFERENCE_ZEROS[(r, k)]
            assert len(scan.zeros) == len(reference), (r, k)
            for record, expected in zip(scan.zeros, reference):
                assert abs(record.abscissa - expected) <= 1e-4, (r, k, expected)


def test_criterion_2_census_match(all_scans):
    """Empirical interval counts equal floor(r/k) for r = 2..10, totals
    equal the arithmetic prediction, and no scan is unstable or carries
    tangency suspects."""
    for r in range(2, 11):
        total = 0
        for k in range(2, r + 1):
            scan = all_scans[(r, k)]
            assert scan.count_stable, (r, k)
            assert scan.tangency_suspects == (), (r, k)
            assert len(scan.zeros) == r // k, (r, k)
            total += len(scan.zeros)
        assert total == iaz_predicted(r) == PREDICTED_TOTALS[r - 2], r


def test_criterion_3_extremum_regression():
    """Every published extremum for r = 4..8 is matched in kind, position
    (1e-4), and value (1e-3 * max(1, |value|))."""
    for (r, k), reference in sorted(REFERENCE_EXTREMA.items()):
        records = find_extrema(r, k)
        assert len(records) == len(reference), (r, k)
        for record, (kind, abscissa, value) in zip(records, reference):
            assert record.kind == kind, (r, k, abscissa)
            assert abs(record.abscissa - abscissa) <= 1e-4, (r, k, abscissa)
            assert abs(record.value - value) <= 1e-3 * max(1.0, abs(value)), (
                r, k, abscissa,
            )


def test_criterion_4_pole_constants():
    """The three routes to the leading constants agree (closed form vs
    recursion to 1e-12 relative for r <= 12, numeric extraction to 1e-2
    for r <= 8) and every sign equals (-1)^(r + floor(r/k))."""
    for r in range(1, 13):
        for k in range(1, r + 1):
            reference = coefficient_closed_form(r, k)
            recursive = coefficient_recursive(r, k)
            assert abs(recursive - reference) <= 1e-12 * abs(reference), (r, k)
            assert math.copysign(1.0, reference) == (-1.0) ** (r + r // k), (r, k)
    for r in range(1, 9):
        for k in range(1, r + 1):
            numeric = coefficient_numeric(r, k)
            reference = coefficient_closed_form(r, k)
            assert abs(numeric - reference) <= 1e-2 * abs(reference), (r, k)


def test_criterion_5_constant_sign():
    """The r-fold function keeps the sign (-1)^r, with no zero, on a
    200-point grid over [0, 1/r) for every r <= 12."""
    for r in range(1, 13):
        profile = sign_profile(r, 200)
        assert profile.passed, r
        assert profile.expected_sign == (-1) ** r, r
        assert profile.min_abs_value > 0.0, r


def test_criterion_6_oracle_equivalence():
    """Truncated sums increase monotonically to the continued value with
    the analytic tail bound holding at n = 10^4 (r <= 5, s in {1.5, 2, 3});
    closed forms match the recursion to 1e-12 on 500 random points per
    fold count."""
    for r in range(1, 6):
        for s in (1.5, 2.0, 3.0):
            limit = multizeta(r, s)
            last = -math.inf
            for n in (r, 10, 100, 1000, 10**4):
                if n < r:
                    continue
                partial = truncated_euler_zagier(r, s, n)
                assert last < partial < limit, (r, s, n)
                last = partial
            head = multizeta(r - 1, s) if r > 1 else 1.0
            bound = head * (10**4) ** (1.0 - s) / (s - 1.0)
            assert 0.0 < limit - last <= bound, (r, s)
    rng = np.random.default_rng(20260814)
    for r in (2, 3, 4):
        drawn = 0
        while drawn < 500:
            s = float(rng.uniform(1.0 / r + 1e-3, 4.0))
            if any(abs(s - 1.0 / k) < 1e-4 for k in range(1, r + 1)):
                continue
            drawn += 1
            a, b = multizeta(r, s), closed_form(r, s)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (r, s)


def test_criterion_7_arithmetic_identities():
    """The floor-division/divisor-sum identity and the increment parity
    law hold for every r <= 10^4, and the count stays within 3 sqrt(r) of
    its asymptotic form on [100, 10^4]."""
    top = 10**4
    predicted = iaz_predicted_range(top)
    divisor_by_r = np.array(
        [0] + [divisor_count(n) for n in range(1, top + 1)], dtype=np.int64
    )
    cumulative = np.cumsum(divisor_by_r)
    r_axis = np.arange(top + 1, dtype=np.int64)
    # Identity: F(r) = sum_{l <= r} d(l) - r for every r, both sides from
    # independent computations.
    assert np.array_equal(predicted[1:], (cumulative - r_axis)[1:])
    # The per-call check agrees on a sample (it recomputes both sides from
    # scratch, so the full range is covered by the vector comparison above).
    assert all(divisor_identity_check(r) for r in range(1, 301))
    rng = np.random.default_rng(11)
    for r in rng.integers(301, top, size=10).tolist():
        assert divisor_identity_check(int(r))
    assert divisor_identity_check(top)
    # Parity: d(r) - 1 is even exactly at perfect squares, and matches the
    # direct increment of the floor-division sums.
    increments = np.diff(predicted[1:])
    for r in range(2, top + 1):
        inc = delta_F(r)
        assert inc == divisor_by_r[r] - 1 == increments[r - 2], r
        root = math.isqrt(r)
        assert (inc % 2 == 0) == (root * root == r), r
    # Growth band.
    r_band = np.arange(100, top + 1, dtype=float)
    estimate = r_band * np.log(r_band) - 2.0 * (1.0 - EULER_GAMMA) * r_band
    residual = np.abs(predicted[100:].astype(float) - estimate)
    assert np.all(residual <= 3.0 * np.sqrt(r_band))


def test_criterion_8_riemann_kernel():
    """The summation kernel agrees with the independent alternating-series
    route to 1e-12 relative on [1.5, 40], and the classical values at
    s = 2, 4, 0 hold to 1e-14."""
    for s in np.linspace(1.5, 40.0, 1000):
        a = riemann_zeta(float(s))
        b = riemann_zeta_alternating(float(s))
        assert abs(a - b) <= 1e-12 * abs(b), s
    assert abs(riemann_zeta(2.0) - math.pi**2 / 6.0) <= 1e-14 * (math.pi**2 / 6.0)
    assert abs(riemann_zeta(4.0) - math.pi**4 / 90.0) <= 1e-14 * (math.pi**4 / 90.0)
    assert abs(riemann_zeta(0.0) + 0.5) <= 1e-14
