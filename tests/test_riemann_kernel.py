"""Riemann-zeta kernel: exact Bernoulli rationals, Euler-Maclaurin
evaluation on the non-negative real line, and the independent
alternating-series route used to cross-check it."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzr import (
    DomainError,
    M_MAX,
    ParameterRangeError,
    PoleProximityError,
    R_MAX,
    checks,
    bernoulli,
    multizeta,
    multizeta_grid,
    riemann_zeta,
    riemann_zeta_alternating,
)
from mzr.riemann_kernel import _BLOCK, _CORRECTION_TERMS, _GRID_TERMS, _direct_terms, _zeta_rows

# Values computed independently at 40 decimal digits and frozen here;
# the library never sees them except through these assertions.
ZETA_SPOTS = {
    0.1: -0.6030375198562417,
    0.25: -0.8132784052618917,
    0.5: -1.4603545088095868,
    0.9: -9.4301140194022524,
    1.5: 2.6123753486854883,
    3.0: 1.2020569031595943,
    5.5: 1.0252045799546857,
    12.75: 1.0001460147983355,
    40.0: 1.0000000000009095,
}


class TestBernoulli:
    def test_basic_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(10) == Fraction(5, 66)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        for n in range(3, 2 * M_MAX, 2):
            assert bernoulli(n) == 0

    def test_values_are_exact_rationals(self):
        assert all(isinstance(bernoulli(n), Fraction) for n in range(8))

    def test_defining_recurrence(self):
        # sum_{j=0}^{n} C(n+1, j) B_j = 0 for every n >= 1, exactly.
        for n in range(1, 2 * M_MAX + 1):
            acc = sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n + 1))
            assert acc == 0

    @pytest.mark.parametrize("bad", [-1, 2 * M_MAX + 1, 1.5, "3", None])
    def test_range_errors(self, bad):
        with pytest.raises(ParameterRangeError):
            bernoulli(bad)

    def test_table_equals_the_recurrence(self):
        # The defining recurrence solved for each B_n in exact rationals,
        # independent of the tangent numbers the table is built from.
        values = [Fraction(1)]
        for n in range(1, 2 * M_MAX + 1):
            values.append(-sum(math.comb(n + 1, j) * values[j] for j in range(n)) / (n + 1))
        assert [bernoulli(n) for n in range(2 * M_MAX + 1)] == values


class TestClassicalValues:
    def test_even_integer_closed_forms(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14, abs=0)
        assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-14, abs=0)
        assert riemann_zeta(6.0) == pytest.approx(math.pi**6 / 945.0, rel=1e-14, abs=0)

    def test_value_at_zero(self):
        assert riemann_zeta(0.0) == pytest.approx(-0.5, rel=1e-14, abs=0)

    @pytest.mark.parametrize("s,expected", sorted(ZETA_SPOTS.items()))
    def test_frozen_spot_values(self, s, expected):
        assert riemann_zeta(s) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_large_argument_tends_to_one(self):
        # zeta(60) - 1 = 8.7e-19, under half an ulp of 1.0, so the double
        # collapses to exactly 1.0; strict excess is only visible while
        # 2^-s stays above the 2^-53 resolution.
        assert riemann_zeta(60.0) >= 1.0
        assert riemann_zeta(60.0) == pytest.approx(1.0, rel=1e-13, abs=0)
        assert riemann_zeta(30.0) > 1.0


class TestRoundsToOne:
    def test_one_up_to_the_double_range(self):
        # zeta(s) rounds to 1.0 from s = 54 on.  Past s ~ 2.6e13 (scalar)
        # and 1.7e16 (grid) the Bernoulli corrections once gave NaN: an
        # overflowed rising factorial times an underflowed power.
        s = np.concatenate([np.geomspace(54.0, 1e308, 601), [2.6e13, 1.7e16, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(multizeta_grid(1, s) == 1.0)
            assert np.all(_zeta_rows(3, s) == 1.0)
            for x in s.tolist():
                assert riemann_zeta(x) == 1.0, x
                assert multizeta(1, x) == 1.0, x

    def test_values_below_54_are_summed_as_before(self):
        # Just below 54 zeta(s) already summed to 1.0; a little lower it
        # does not, and must not be cut off.
        for x in (53.0, 53.5, np.nextafter(54.0, 0.0)):
            assert riemann_zeta(float(x)) == 1.0
            assert multizeta_grid(1, [x])[0] == 1.0
        assert riemann_zeta(52.0) > 1.0


class TestDomain:
    def test_negative_axis_rejected(self):
        with pytest.raises(DomainError):
            riemann_zeta(-0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            riemann_zeta(bad)

    @pytest.mark.parametrize("s", [1.0, 1.0 + 5e-9, 1.0 - 5e-9])
    def test_pole_guard(self, s):
        with pytest.raises(PoleProximityError) as info:
            riemann_zeta(s)
        assert info.value.k == 1
        assert info.value.order == 1

    def test_just_outside_guard_is_finite(self):
        # Simple pole with residue 1: zeta(1 + eps) ~ 1/eps.
        assert riemann_zeta(1.0 + 2e-8) > 1e7
        assert riemann_zeta(1.0 - 2e-8) < -1e7


class TestShape:
    def test_negative_on_critical_segment(self):
        assert checks.negative_below_one().passed

    def test_strictly_decreasing_beyond_one(self):
        assert checks.decreasing_beyond_one().passed


class TestAlternatingSeriesAgreement:
    """The alternating-series route shares only the domain guard with the
    Euler-Maclaurin route, so agreement is a genuine cross-check."""

    def test_agreement_on_convergent_band(self):
        assert checks.alternating_agreement().passed

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.9, 1.25])
    def test_agreement_below_one(self, s):
        assert riemann_zeta_alternating(s) == pytest.approx(
            riemann_zeta(s), rel=1e-12, abs=0
        )

    @given(st.floats(min_value=1.5, max_value=40.0))
    def test_agreement_property(self, s):
        assert riemann_zeta_alternating(s) == pytest.approx(
            riemann_zeta(s), rel=1e-12, abs=0
        )


class TestConfiguration:
    def test_direct_term_doubling_is_converged(self):
        assert checks.direct_term_doubling().passed

    def test_direct_terms_scaling(self):
        assert _direct_terms(2.0) == 20
        assert _direct_terms(31.5) == 42
        sigma = np.array([2.0, 31.5])
        assert _direct_terms(sigma, np.ceil, np.maximum).tolist() == [20, 42]


class TestGridEvaluation:
    def test_matches_scalar_path(self):
        s = np.array([0.0, 0.3, 0.7, 1.5, 2.0, 8.25, 20.0])
        grid = multizeta_grid(1, s)
        for si, vi in zip(s, grid):
            assert float(vi) == pytest.approx(riemann_zeta(float(si)), rel=1e-12, abs=0)

    def test_empty_input(self):
        assert multizeta_grid(1, np.empty(0)).size == 0

    def test_rows_against_mpmath(self):
        # Rows i = 1..R_MAX of the fold-table kernel, on (0, 1), at 3e-8 on
        # either side of every 1/i, where row i sits next to the pole of
        # zeta, and above 1 up to the clamp at 54.
        mpmath = pytest.importorskip("mpmath")
        near = [1.0 / i + d for i in range(1, R_MAX + 1) for d in (-3e-8, 3e-8)]
        above = np.random.default_rng(32).uniform(1.0, 54.0, 24)
        s = np.concatenate([np.linspace(0.004, 0.996, 61), near[1:], [1.5, 2.0, 54.0], above])
        rows = np.arange(1, R_MAX + 1)[:, None]
        s = s[np.all(np.abs(rows * s - 1.0) > 1e-8, axis=0)]
        assert set(near[1:]) <= set(s.tolist())
        values = _zeta_rows(R_MAX, s)
        with mpmath.workdps(30):
            for i in range(1, R_MAX + 1):
                for x, value in zip(s, values[i - 1]):
                    reference = mpmath.zeta(float(i * x))
                    assert abs(value - reference) <= 1e-13 * abs(reference), (i, x)

    def test_rows_are_converged_at_the_cut(self):
        # Twice the direct terms move no row by more than rounding: at
        # random points of [0, 60] (past the clamp at 54) and next to the
        # pole of every row.
        near = [1.0 / i + d for i in range(1, R_MAX + 1) for d in (-3e-8, 3e-8)]
        s = np.concatenate([np.random.default_rng(60).uniform(0.0, 60.0, 2000), near[1:]])
        rows = np.arange(1, R_MAX + 1)[:, None]
        s = s[np.all(np.abs(rows * s - 1.0) > 1e-8, axis=0)]
        doubled = _zeta_rows(R_MAX, s, 2 * _GRID_TERMS)
        np.testing.assert_allclose(_zeta_rows(R_MAX, s), doubled, rtol=1e-13, atol=0)

    def test_cut_is_the_smallest_below_the_bound(self):
        # The `_zeta_rows` docstring's remainder bound relative to |zeta|:
        # below u/100 at the cut, above it one term earlier, on [0, 54]
        # (zeta rounds to 1 beyond).  Doubling the terms cannot tell these
        # cuts apart, since rounding near 1e-14 hides the truncation.
        mpmath = pytest.importorskip("mpmath")
        two_m = 2 * _CORRECTION_TERMS
        sigmas = [x for x in np.linspace(0.0, 54.0, 1001).tolist() if x != 1.0]

        def peak(n):
            return max(
                4 * mpmath.rf(x, two_m) / (2 * mpmath.pi) ** two_m
                * mpmath.mpf(n) ** (1 - x - two_m) / (x + two_m - 1) / abs(mpmath.zeta(x))
                for x in sigmas
            )

        assert peak(_GRID_TERMS) < 2.0**-53 / 100 < peak(_GRID_TERMS - 1)

    def test_rows_are_pointwise(self):
        # Every row and point takes the same cut and its own powers, so no
        # value depends on the other points, though the points are
        # processed in blocks.
        s = np.linspace(0.52, 3.5, 4500)
        values = _zeta_rows(12, s)
        b = _BLOCK // 12
        for j in (0, 1, 1000, b - 1, b, b + 1, 4 * b - 1, 4 * b, 4499):
            np.testing.assert_array_equal(_zeta_rows(12, s[j : j + 1])[:, 0], values[:, j])
        np.testing.assert_array_equal(multizeta_grid(1, s), values[0])

    @pytest.mark.parametrize("r", [1, 16, 32])
    def test_concatenation_keeps_the_rows_of_its_pieces(self, r):
        # A block holds _BLOCK // r points; pieces laid end to end straddle
        # the block edges in every way, and keep their rows bit for bit.
        b = _BLOCK // r
        rng = np.random.default_rng(r)
        pieces = [rng.uniform(0.52, 3.5, n) for n in (1, b - 1, b, b + 1, 3 * b + 7)]
        rows = _zeta_rows(r, np.concatenate(pieces))
        lo = 0
        for piece in pieces:
            np.testing.assert_array_equal(rows[:, lo : lo + piece.size], _zeta_rows(r, piece))
            lo += piece.size
        assert lo == rows.shape[1]

    def test_grid_domain_errors(self):
        with pytest.raises(DomainError):
            multizeta_grid(1, np.array([0.5, -0.1]))
        with pytest.raises(DomainError):
            multizeta_grid(1, np.array([0.5, math.nan]))
        with pytest.raises(PoleProximityError):
            multizeta_grid(1, np.array([0.5, 1.0, 2.0]))
