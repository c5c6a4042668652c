"""Pole structure: orders floor(r/k), the leading constants C_r(k) by
closed form, by the order-preserving recursion, and by pure numerical
limit extraction, plus the sign and periodicity laws they obey."""
import math

import numpy as np
import pytest

from mzr import (
    NUMERIC_R_MAX,
    NonConvergenceError,
    ParameterRangeError,
    PoleSpec,
    checks,
    coefficient_closed_form,
    coefficient_numeric,
    coefficient_recursive,
    multizeta,
    periodicity_check,
    pole_side_signs,
    pole_spec,
    riemann_zeta,
)

# Frozen 40-digit oracle values for constants that involve a lower-fold
# value at 1/k (the purely rational cases are asserted exactly below).
CONSTANT_SPOTS = {
    (3, 2): 0.7301772544047934,
    (5, 2): -0.18254431360119835,
    (7, 3): -0.054075569352821262,
    (9, 4): -0.025414950164434114,
    (12, 5): 0.016734377078676816,
}


class TestPoleOrder:
    def test_printed_examples(self):
        assert pole_spec(4, 2).order == 2
        assert pole_spec(6, 3).order == 2
        assert pole_spec(6, 2).order == 3

    def test_rightmost_pole_is_simple(self):
        for r in range(1, 13):
            assert pole_spec(r, r).order == 1

    def test_leftmost_pole_has_full_order(self):
        for r in range(1, 13):
            assert pole_spec(r, 1).order == r

    @pytest.mark.parametrize("r,k", [(4, 0), (4, 5), (0, 1), (33, 2)])
    def test_range_errors(self, r, k):
        with pytest.raises(ParameterRangeError):
            pole_spec(r, k)

    def test_numpy_integers(self):
        assert pole_spec(np.int64(4), 2) == pole_spec(4, 2)
        assert pole_spec(np.int32(6), np.int64(3)).order == 2

    @pytest.mark.parametrize("r,k", [(True, 1), (np.True_, 1), (4, True), (4, np.True_)])
    def test_bools_are_not_integers(self, r, k):
        with pytest.raises(ParameterRangeError):
            pole_spec(r, k)


class TestClosedFormConstants:
    def test_rational_cases(self):
        assert coefficient_closed_form(2, 2) == -0.5
        assert coefficient_closed_form(4, 2) == 0.125
        assert coefficient_closed_form(8, 4) == 0.03125
        assert coefficient_closed_form(4, 1) == pytest.approx(1.0 / 24.0, rel=1e-15, abs=0)
        assert coefficient_closed_form(11, 1) == pytest.approx(
            1.0 / math.factorial(11), rel=1e-15, abs=0
        )
        assert coefficient_closed_form(6, 3) == pytest.approx(1.0 / 18.0, rel=1e-15, abs=0)
        assert coefficient_closed_form(10, 2) == pytest.approx(
            -1.0 / 3840.0, rel=1e-15, abs=0
        )

    def test_rightmost_constant_alternates(self):
        for r in range(2, 13):
            assert coefficient_closed_form(r, r) == pytest.approx(
                (-1.0) ** (r - 1) / r, rel=1e-15, abs=0
            )

    def test_single_lower_fold_factor(self):
        # For r/2 < k < r the constant is ((-1)^(k-1)/k) times the
        # (r-k)-fold value at 1/k.
        assert coefficient_closed_form(3, 2) == pytest.approx(
            -riemann_zeta(0.5) / 2.0, rel=1e-14, abs=0
        )
        assert coefficient_closed_form(7, 4) == pytest.approx(
            -multizeta(3, 0.25) / 4.0, rel=1e-14, abs=0
        )

    @pytest.mark.parametrize("rk,expected", sorted(CONSTANT_SPOTS.items()))
    def test_frozen_spot_values(self, rk, expected):
        assert coefficient_closed_form(*rk) == pytest.approx(expected, rel=1e-12, abs=0)


class TestRecursiveRoute:
    def test_rightmost_case_collapses(self):
        for r in (2, 5, 9):
            assert coefficient_recursive(r, r) == pytest.approx(
                (-1.0) ** (r - 1) / r, rel=1e-13, abs=0
            )

    def test_spot_value(self):
        assert coefficient_recursive(5, 2) == pytest.approx(
            riemann_zeta(0.5) / 8.0, rel=1e-13, abs=0
        )

    def test_full_agreement_with_closed_forms(self):
        assert checks.recursive_constants().passed


class TestNumericRoute:
    def test_double_fold(self):
        assert coefficient_numeric(2, 2) == pytest.approx(-0.5, rel=1e-3, abs=0)

    def test_against_closed_form(self):
        assert coefficient_numeric(6, 2) == pytest.approx(
            coefficient_closed_form(6, 2), rel=1e-2, abs=0
        )

    def test_rightmost_poles(self):
        for r in range(2, 9):
            assert coefficient_numeric(r, r) == pytest.approx(
                (-1.0) ** (r - 1) / r, rel=1e-3, abs=0
            )

    def test_fold_cap(self):
        with pytest.raises(ParameterRangeError):
            coefficient_numeric(NUMERIC_R_MAX + 1, 2)

    def test_non_convergence_error_carries_estimates(self):
        # Constructed directly: the error type must expose its ladder.
        err = NonConvergenceError("did not settle", estimates=(1.0, 2.0))
        assert err.estimates == (1.0, 2.0)


class TestSignLaw:
    def test_signs_follow_order_parity(self):
        assert checks.constant_signs().passed

    def test_side_signs_at_simple_and_double_poles(self):
        # Odd order flips the sign across the pole, even order does not.
        assert pole_side_signs(2, 2) == (1, -1)
        assert pole_side_signs(4, 2) == (1, 1)

    def test_side_signs_match_constants(self):
        assert checks.pole_side_parity().passed

    def test_side_step_validation(self):
        with pytest.raises(ParameterRangeError):
            pole_side_signs(2, 2, eps=0.1)


class TestPoleSpec:
    def test_fields(self):
        spec = pole_spec(4, 2)
        assert spec.location == 0.5
        assert spec.order == 2
        assert spec.constant == 0.125
        assert spec.sign == 1

    def test_sign_consistency_across_folds(self):
        for r in range(1, 13):
            for k in range(1, r + 1):
                spec = pole_spec(r, k)
                assert spec.sign * spec.constant > 0.0
                assert spec.order == r // k

    def test_invalid_records_rejected(self):
        with pytest.raises(ParameterRangeError):
            PoleSpec(r=4, k=2, location=0.5, order=3, constant=0.125, sign=1)
        with pytest.raises(ParameterRangeError):
            PoleSpec(r=4, k=2, location=0.5, order=2, constant=0.125, sign=-1)


class TestPeriodicity:
    def test_modular_ratio_pattern(self):
        assert periodicity_check(2, 4) is True
        assert periodicity_check(3, 3) is True

    def test_needs_two_repetitions(self):
        with pytest.raises(ParameterRangeError):
            periodicity_check(2, 1)

    def test_modulus_validation(self):
        with pytest.raises(ParameterRangeError):
            periodicity_check(1, 3)

    def test_fold_cap_respected(self):
        with pytest.raises(ParameterRangeError):
            periodicity_check(2, 20)
