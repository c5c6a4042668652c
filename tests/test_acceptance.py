"""Acceptance gate: eight end-to-end criteria, one test per criterion.

Reference zeros and extrema are six-decimal published anchors; the eight
entries whose printed digits disagree with independent 40-digit
re-evaluation by more than the gates below carry the re-evaluated digits
(see the project decision ledger).  Gates: zero and extremum abscissas to
1e-4, extremum values to 1e-3 * max(1, |value|).
"""
import numpy as np
import pytest

from mzr import (
    checks,
    delta_F,
    divisor_identity_check,
    find_extrema,
    iaz_predicted,
    iaz_predicted_range,
    riemann_zeta,
    riemann_zeta_alternating,
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
    return checks.fold_scans(10)


def assert_passed(*results):
    for result in results:
        assert result.passed, result


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
    tangency suspects; every refined bracket is within 1e-12 and every
    residual small against the local scale."""
    assert_passed(
        checks.stable_counts(all_scans),
        checks.no_tangency_suspects(all_scans),
        checks.narrow_brackets(all_scans),
        checks.small_residuals(all_scans),
        checks.predicted_totals(all_scans),
    )
    for r in range(2, 11):
        for k in range(2, r + 1):
            assert len(all_scans[(r, k)].zeros) == r // k, (r, k)
        assert iaz_predicted(r) == PREDICTED_TOTALS[r - 2], r


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
    recursion to 1e-12 relative for r <= 12, vs the ends of the zeros'
    Chebyshev proxy to 1e-12 for r <= 16), every sign equals
    (-1)^(r + floor(r/k)), the constant ratios repeat mod k, and the signs
    either side of each pole follow its order's parity."""
    assert_passed(
        checks.recursive_constants(),
        checks.constant_signs(),
        checks.numeric_constants(),
        checks.periodicity(),
        checks.pole_side_parity(),
    )


def test_criterion_5_constant_sign():
    """The r-fold function keeps the sign (-1)^r, with no zero, on a
    200-point grid over [0, 1/r) for every r <= 12."""
    assert_passed(checks.constant_sign())


def test_criterion_6_oracle_equivalence():
    """Truncated sums increase monotonically to the continued value with
    the analytic tail bound holding at n = 10^4 (r <= 5, s in {1.5, 2, 3});
    closed forms match the recursion to 1e-12 on 500 random points per
    fold count."""
    assert_passed(
        checks.truncated_sums(
            folds=range(1, 6),
            exponents=(1.5, 2.0, 3.0),
            cutoffs=(10, 100, 1000, 10**4),
        ),
        checks.closed_forms(draws=500),
    )


def test_criterion_7_arithmetic_identities():
    """The floor-division/divisor-sum identity and the increment parity
    law hold for every r <= 10^4, and the count stays within 3 sqrt(r) of
    its asymptotic form on [100, 10^4]."""
    top = 10**4
    predicted = iaz_predicted_range(top)
    assert_passed(
        checks.divisor_identity(predicted),
        checks.increment_parity(r_max=top),
        checks.increment_direct(),
        checks.asymptotic_band(predicted),
    )
    # The per-call check agrees on a sample (it recomputes both sides from
    # scratch, so the full range is covered by the registry check above).
    assert all(divisor_identity_check(r) for r in range(1, 301))
    rng = np.random.default_rng(11)
    for r in rng.integers(301, top, size=10).tolist():
        assert divisor_identity_check(int(r))
    assert divisor_identity_check(top)
    # The divisor-path increments equal the differences of the range
    # function over the whole range.
    increments = np.diff(predicted[1:])
    assert [delta_F(r) for r in range(2, top + 1)] == increments.tolist()


def test_criterion_8_riemann_kernel():
    """Both summation kernels, grid and scalar, agree with the independent
    alternating-series route to 1e-12 relative on [1.5, 40], and the
    classical values at s = 2, 4, 0 hold to 1e-14."""
    assert_passed(checks.alternating_agreement(), checks.classical_values())
    for s in np.linspace(1.5, 40.0, 1000):
        a = riemann_zeta(float(s))
        b = riemann_zeta_alternating(float(s))
        assert abs(a - b) <= 1e-12 * abs(b), s
