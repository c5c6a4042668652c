"""Arithmetic census of inter-asymptotic zeros: divisor counts, the
floor-division/divisor-sum identity, increment parity, the asymptotic
growth law, and report assembly against empirical counts."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzr import (
    CensusReport,
    EULER_GAMMA,
    IncompleteInputError,
    ParameterRangeError,
    checks,
    census_report,
    delta_F,
    delta_F_direct,
    divisor_count,
    divisor_identity_check,
    iaz_asymptotic,
    iaz_predicted,
    iaz_predicted_range,
)
from mzr.census import _divisor_total


class TestDivisorCount:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, 2), (6, 4), (9, 3), (12, 6), (36, 9), (9973, 2)],
    )
    def test_values(self, n, expected):
        assert divisor_count(n) == expected

    @pytest.mark.parametrize("bad", [0, -4, 2.5, None])
    def test_range_errors(self, bad):
        with pytest.raises(ParameterRangeError):
            divisor_count(bad)


class TestPredictedTotals:
    def test_low_folds(self):
        assert iaz_predicted(1) == 0
        assert iaz_predicted(2) == 1
        assert iaz_predicted(6) == 8
        assert iaz_predicted(10) == 17

    def test_full_low_range(self):
        assert [iaz_predicted(r) for r in range(2, 11)] == [
            1, 2, 4, 5, 8, 9, 12, 14, 17,
        ]

    def test_range_version_matches_scalar(self):
        table = iaz_predicted_range(64)
        assert table[0] == table[1] == 0
        for r in range(2, 65):
            assert table[r] == iaz_predicted(r)

    def test_range_version_matches_floor_division_loop(self):
        # Each F(r) as its own O(r) floor-division sum, O(R^2) in all.
        reference = np.zeros(10_002, dtype=np.int64)
        for r in range(2, reference.size):
            reference[r] = np.sum(r // np.arange(2, r + 1))
        for top in [*range(1, 3001), 9_999, 10_000, 10_001]:
            table = iaz_predicted_range(top)
            assert table.dtype == np.int64
            assert np.array_equal(table, reference[: top + 1]), top
        assert reference[10_000] == 83_668


class TestDivisorIdentity:
    def test_printed_examples(self):
        assert divisor_identity_check(6) is True
        assert divisor_identity_check(1) is True

    def test_small_sweep(self):
        assert all(divisor_identity_check(r) for r in range(1, 201))

    def test_divisor_total_equals_sum_of_counts(self):
        cumulative = 0
        for r in range(1, 2001):
            cumulative += divisor_count(r)
            assert _divisor_total(r) == cumulative, r
        assert _divisor_total(10_000) == 93_668

    def test_six_by_hand(self):
        # d(1..6) = 1, 2, 2, 3, 2, 4 sums to 14; F(6) = 14 - 6 = 8.
        assert sum(divisor_count(n) for n in range(1, 7)) == 14
        assert iaz_predicted(6) == 8


class TestAsymptoticEstimate:
    def test_formula_values(self):
        expected = 10.0 * math.log(10.0) - 2.0 * (1.0 - EULER_GAMMA) * 10.0
        assert iaz_asymptotic(10) == pytest.approx(expected, rel=1e-15, abs=0)
        assert iaz_asymptotic(10) == pytest.approx(14.570164227971114, rel=1e-14, abs=0)
        assert iaz_asymptotic(2) == pytest.approx(-0.3048429792739779, rel=1e-14, abs=0)

    def test_residual_band_spot(self):
        assert abs(iaz_predicted(2) - iaz_asymptotic(2)) <= 3.0 * math.sqrt(2.0)

    def test_requires_two_folds(self):
        with pytest.raises(ParameterRangeError):
            iaz_asymptotic(1)


class TestIncrements:
    @pytest.mark.parametrize("p", [2, 3, 7, 97, 9973])
    def test_primes_increment_by_one(self, p):
        assert delta_F(p) == 1

    def test_square_increment_is_even(self):
        assert delta_F(9) == 2

    def test_parity_tracks_squares(self):
        assert checks.increment_parity().passed

    def test_both_paths_agree(self):
        assert checks.increment_direct().passed

    @given(st.integers(min_value=2, max_value=5000))
    def test_increment_property(self, r):
        assert delta_F(r) == delta_F_direct(r) == divisor_count(r) - 1


class TestCensusReport:
    def test_six_fold_counts_agree(self):
        report = census_report(6, {6: 1, 5: 1, 4: 1, 3: 2, 2: 3})
        assert report.all_agree
        assert report.empirical_total == 8
        assert report.predicted_total == 8
        assert report.divisor_total == 8
        assert report.residual == pytest.approx(8.0 - iaz_asymptotic(6), rel=1e-6, abs=0)

    def test_intervals_ordered_by_descending_k(self):
        report = census_report(5, {2: 2, 3: 1, 4: 1, 5: 1})
        assert [item.k for item in report.per_interval] == [5, 4, 3, 2]
        assert all(item.agree for item in report.per_interval)

    def test_disagreement_is_flagged_not_fatal(self):
        report = census_report(3, {3: 1, 2: 2})
        assert not report.all_agree
        flags = {item.k: item.agree for item in report.per_interval}
        assert flags == {3: True, 2: False}
        assert report.empirical_total == 3
        assert report.predicted_total == 2

    def test_missing_interval_rejected(self):
        with pytest.raises(IncompleteInputError):
            census_report(4, {4: 1, 2: 2})
        with pytest.raises(IncompleteInputError):
            census_report(4, {4: 1, 3: 1, 2: 2, 7: 0})

    @pytest.mark.parametrize(
        "r,empirical",
        [(3, {2: 1.9, 3: 1}), (3, {2: "1", 3: 1}), (4, {2: -2, 3: 1, 4: 1}), (3, {2: True, 3: 1})],
        ids=["float", "string", "negative", "bool"],
    )
    def test_counts_must_be_non_negative_integers(self, r, empirical):
        with pytest.raises(ParameterRangeError):
            census_report(r, empirical)

    def test_numpy_integer_counts_accepted(self):
        report = census_report(3, {2: np.int64(1), 3: np.int32(1)})
        assert report.all_agree
        assert report.empirical_total == 2
        assert type(report.per_interval[0].empirical) is int

    def test_identity_is_a_hard_invariant(self):
        with pytest.raises(ParameterRangeError):
            CensusReport(
                r=3,
                per_interval=(),
                empirical_total=2,
                predicted_total=2,
                divisor_total=3,
                asymptotic_estimate=0.0,
                residual=0.0,
            )


class TestIdentityAtScale:
    def test_identity_and_band_to_two_thousand(self):
        predicted = iaz_predicted_range(2000)
        assert checks.divisor_identity(predicted).passed
        assert checks.asymptotic_band(predicted).passed
