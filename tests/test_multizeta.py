"""Multiple zeta values with identical arguments: the power-sum recursion,
the r = 2..4 closed forms, the truncated-sum oracle on the absolutely
convergent region, and the finite Newton identities and product
expansion."""
import importlib
import itertools
import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from mzr import (
    DomainError,
    EmptySumError,
    NonConvergenceError,
    ParameterRangeError,
    PoleProximityError,
    R_MAX,
    closed_form,
    multizeta,
    multizeta_grid,
    nearest_pole,
    riemann_zeta,
    truncated_euler_zagier,
)
from mzr import riemann_kernel
from mzr.multizeta import _fold_table, _newton, _product_expansion
from mzr.riemann_kernel import POLE_GUARD_RADIUS, _direct_terms, _tail, _zeta_multiples, _zeta_rows
from mzr.riemann_kernel import bernoulli

multizeta_module = importlib.import_module("mzr.multizeta")

# Frozen values from a 40-digit independent evaluation: (r, s) -> value.
MULTIZETA_SPOTS = {
    (2, 3.0): 0.21379886822459255,
    (2, 1.5): 2.8112240296300163,
    (2, 0.25): 1.0608881366374562,
    (3, 2.5): 0.04211696617555262,
    (3, 0.9): -130.46579597375158,
    (4, 0.75): -3.0132015170443034,
    (5, 1.5): 0.22495631018019468,
    (5, 0.3): -3.1246174209214085,
    (6, 0.4): -2.0879783050603339,
}

# Same provenance, for the truncated partial sums: (r, s, n) -> value.
TRUNCATED_SPOTS = {
    (2, 1.5, 1000): 2.6480434506073316,
    (2, 3.0, 100): 0.2137393646378453,
    (3, 2.0, 50): 0.17500153377349608,
    (3, 2.5, 2000): 0.042114125011279322,
    (4, 2.0, 1000): 0.025957596664341699,
    (5, 1.5, 2000): 0.19382675512739198,
    (5, 3.0, 500): 3.809585952830102e-06,
}


class TestRecursionValues:
    def test_double_zeta_at_two(self):
        # zeta_2(2) = pi^4/120 by Euler's identity.
        assert multizeta(2, 2.0) == pytest.approx(math.pi**4 / 120.0, rel=1e-13, abs=0)

    def test_single_fold_is_riemann_zeta(self):
        for s in (0.3, 0.9, 1.5, 6.0):
            assert multizeta(1, s) == riemann_zeta(s)

    @pytest.mark.parametrize("rs,expected", sorted(MULTIZETA_SPOTS.items()))
    def test_frozen_spot_values(self, rs, expected):
        r, s = rs
        assert multizeta(r, s) == pytest.approx(expected, rel=5e-12, abs=0)

    def test_deep_cancellation_spot(self):
        # zeta_8(2) sits eight orders below the O(1) terms of the Newton
        # recursion; the head/tail split never forms them.
        assert multizeta(8, 2.0) == pytest.approx(2.531217404137028e-07, rel=1e-14, abs=0)

    def test_value_at_origin_is_central_binomial(self):
        # zeta_r(0) = (-1)^r C(2r, r) / 4^r, exactly.
        for r in range(1, 15):
            expected = (-1.0) ** r * math.comb(2 * r, r) / 4.0**r
            assert multizeta(r, 0.0) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_triple_fold_near_origin(self):
        assert multizeta(3, 0.0) == pytest.approx(-5.0 / 16.0, rel=1e-14, abs=0)
        assert multizeta(3, 1e-7) == pytest.approx(-5.0 / 16.0, abs=1e-5)

    def test_vanishes_at_double_fold_zero(self):
        assert abs(multizeta(2, 0.6268175)) < 1e-5

    def test_four_fold_near_its_minimum(self):
        assert multizeta(4, 0.693658) == pytest.approx(-4.0699572, abs=1e-4)

    def test_decreasing_beyond_one(self):
        # Above s = 1 the grid takes the head/tail split, which cancels
        # nothing, so the values, roughly (r!)^-s, fall strictly.
        for r, s_hi in ((2, 10.0), (5, 6.0), (8, 2.75)):
            values = multizeta_grid(r, np.linspace(1.01, s_hi, 200))
            assert np.all(np.diff(values) < 0.0)

    def test_fold_count_range(self):
        with pytest.raises(ParameterRangeError):
            multizeta(0, 2.0)
        with pytest.raises(ParameterRangeError):
            multizeta(R_MAX + 1, 2.0)
        assert math.isfinite(multizeta(R_MAX, 2.0))

    @pytest.mark.parametrize("r,s", [(16, 2.0), (16, 3.0), (32, 2.0)])
    def test_deep_cancellation_against_mpmath(self, r, s):
        # The float recursion cancels O(1) terms down to 1e-22 .. 1e-60;
        # the same recursion at 120 digits is the reference.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(120):
            p = [mpmath.zeta(i * mpmath.mpf(s)) for i in range(1, r + 1)]
            e = [mpmath.mpf(1)]
            for j in range(1, r + 1):
                terms = ((-1) ** (i - 1) * e[j - i] * p[i - 1] for i in range(1, j + 1))
                e.append(sum(terms) / j)
            reference = float(e[r])
        assert multizeta(r, s) == pytest.approx(reference, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 16, 24, 32])
    def test_split_against_mpmath(self, r):
        # The reference is the recursion in mpmath, with the working
        # precision raised by the digits it cancels; values below the
        # double range must raise instead.
        mpmath = pytest.importorskip("mpmath")
        for s in (1 + 1e-6, 1.001, 1.05, 1.5, 2.0, 3.7, 8.0, 20.0):
            reference = _mp_fold(mpmath, r, s)
            if reference < sys.float_info.min:
                with pytest.raises(NonConvergenceError):
                    multizeta(r, s)
            else:
                assert multizeta(r, s) == pytest.approx(float(reference), rel=1e-13, abs=0), s

    @pytest.mark.parametrize("r,s", [(32, 10.0), (16, 30.0), (2, 1100.0), (3, 1e300)])
    def test_below_the_double_range_raises(self, r, s):
        # (32, 10.0) is about 2.9e-353: 0.0 would be wrong in every digit.
        with pytest.raises(NonConvergenceError, match="below the double range"):
            multizeta(r, s)

    def test_small_values_inside_the_double_range(self):
        # 2^-1000 + 2^-1000 3^-1000 + ..., the head alone; the recursion
        # gave 0.0 here.
        assert multizeta(2, 1000.0) == pytest.approx(2.0**-1000, rel=1e-15, abs=0)
        assert multizeta(16, 20.0) == pytest.approx(6.28211594023455e-267, rel=1e-13, abs=0)


def _mp_fold(mpmath, r, s, keep=30):
    """zeta_r(s) by the Newton recursion on mpmath.zeta(i s), rerun with
    the precision raised until `keep` digits survive its cancellation."""
    dps = keep + 20
    while True:
        with mpmath.workdps(dps):
            p = [mpmath.zeta(i * mpmath.mpf(s)) for i in range(1, r + 1)]
            e, size = [mpmath.mpf(1)], [mpmath.mpf(1)]
            for j in range(1, r + 1):
                acc, mag = mpmath.mpf(0), mpmath.mpf(0)
                for i in range(1, j + 1):
                    term = e[j - i] * p[i - 1]
                    acc += term if i % 2 else -term
                    mag += size[j - i] * p[i - 1]
                e.append(acc / j)
                size.append(mag / j)
            lost = float(mpmath.log10(size[r] / abs(e[r]))) if e[r] else dps
            if lost <= dps - keep:
                return +e[r]
        dps = max(int(lost) + keep + 10, 2 * dps)


def _reference_zeta(s):
    """The scalar Euler-Maclaurin path in its plainest form, the one-abscissa
    loop the vectorised kernel replaced: 12 corrections, np.sum over
    np.arange, the rising-factorial loop."""
    n, m = _direct_terms(s), 12
    total = float(np.sum(np.arange(1, n, dtype=float) ** (-s)))
    total += n ** (1.0 - s) / (s - 1.0)
    total += 0.5 * n ** (-s)
    rising = 1.0
    for j in range(1, m + 1):
        rising = s if j == 1 else rising * (s + 2 * j - 3) * (s + 2 * j - 2)
        weight = float(bernoulli(2 * j)) / math.factorial(2 * j)
        total += weight * rising * n ** (-s - 2 * j + 1)
    return total


def _reference_newton(p, one=1.0):
    """The Newton identities with the sign (-1)^(i-1) taken per term."""
    e = [one]
    for j in range(1, len(p) + 1):
        acc = 0.0
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * e[j - i] * p[i - 1]
        e.append(acc / j)
    return e


def _reference_tail(total, sigma, n, tail):
    """The grid kernel's remainder in its in-place array form, with 12
    corrections."""
    total = total.copy()
    tail_n = n * tail
    total += tail_n / (sigma - 1.0)
    total += 0.5 * tail
    weight = [float(bernoulli(2 * j)) / math.factorial(2 * j) for j in range(13)]
    inv_n2 = 1.0 / (n * n)
    acc = np.full_like(sigma, weight[12])
    for j in range(11, 0, -1):
        acc *= sigma + (2 * j - 1)
        acc *= sigma + 2 * j
        acc *= inv_n2
        acc += weight[j]
    total += sigma * inv_n2 * acc * tail_n
    return total


class TestBitIdentity:
    """The scalar path and the recursion may be reorganised for speed only
    when every value stays the same bit for bit."""

    def test_scalar_path_equals_reference(self):
        # The path that keeps the recursion: s <= 1 for every r (above 1
        # the head/tail split takes over, r = 1 included).
        rng = random.Random(20)
        for r in range(1, R_MAX + 1):
            for _ in range(25):
                s = rng.uniform(0.0, 1.0)
                if nearest_pole(r, s) is not None:
                    continue
                p = [_reference_zeta(i * s) for i in range(1, r + 1)]
                assert multizeta(r, s) == _reference_newton(p)[r], (r, s)

    def test_zeta_multiples_are_the_scalar_loop_row_by_row(self):
        # Every r up to R_MAX on a grid of [0, 1]; at a pole 1/k of the
        # r-fold function the larger r are skipped.
        for s in np.linspace(0.0, 1.0, 201).tolist():
            want = []
            for r in range(1, R_MAX + 1):
                if nearest_pole(r, s) is not None:
                    break
                want.append(_reference_zeta(r * s))
                assert _zeta_multiples(s, r) == want, (r, s)

    def test_single_row_below_one(self):
        # r = 1 on [0, 1] is riemann_zeta itself.
        for s in np.linspace(0.0, 1.0, 2001).tolist():
            if s != 1.0:
                assert _zeta_multiples(s, 1) == [_reference_zeta(s)], s
                assert riemann_zeta(s) == _reference_zeta(s), s

    @pytest.mark.parametrize("r", [2, 16, 32])
    def test_rows_keep_the_in_place_remainder(self, r, monkeypatch):
        # Moving the remainder out of the grid kernel kept every bit.
        x = np.random.default_rng(r).uniform(0.0, 4.0, 300)
        x = x[[nearest_pole(r, float(v)) is None for v in x]]
        rows = _zeta_rows(r, x)
        monkeypatch.setattr(riemann_kernel, "_tail", _reference_tail)
        assert np.array_equal(rows, _zeta_rows(r, x))

    def test_tail_takes_the_same_steps_on_floats_and_arrays(self):
        # The split above s = 1 calls the grid's remainder on floats.
        rng = np.random.default_rng(9)
        sigma = rng.uniform(1.0 + 1e-6, 600.0, 500)
        n = rng.integers(10, 81, 500).astype(float)
        tail = n ** -sigma
        rows = _tail(np.zeros(500), sigma, n, tail)
        for j in range(500):
            assert _tail(0.0, float(sigma[j]), float(n[j]), float(tail[j])) == rows[j]

    @pytest.mark.parametrize("r", [1, 2, 9, 16, 32])
    def test_fold_table_equals_reference(self, r):
        x = np.random.default_rng(r).uniform(0.0, 4.0, 300)
        x = x[[nearest_pole(r, float(v)) is None for v in x]]
        want = _reference_newton(_zeta_rows(r, x), np.ones_like(x))[r]
        assert np.array_equal(_fold_table(r, x)[r], want)


class TestKernelCalls:
    """A scalar value at s <= 1 takes every zeta(i*s) from one vectorised
    kernel call."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        def forbidden(s):
            raise AssertionError(f"riemann_zeta({s!r}) called")

        def counted(s, r):
            calls.append((s, r))
            return _zeta_multiples(s, r)

        calls = []
        for module in (riemann_kernel, multizeta_module):
            monkeypatch.setattr(module, "riemann_zeta", forbidden, raising=False)
        monkeypatch.setattr(multizeta_module, "_zeta_multiples", counted)
        return calls

    @pytest.mark.parametrize(
        "r,s", [(1, 0.5), (2, 0.3), (7, 0.6), (16, 0.7), (32, 0.686), (32, 0.0)]
    )
    def test_one_call_per_value(self, kernel_calls, r, s):
        multizeta(r, s)
        assert kernel_calls == [(s, r)]

    def test_split_makes_none(self, kernel_calls):
        multizeta(16, 2.0)
        multizeta(1, 3.0)
        assert kernel_calls == []

    @pytest.mark.parametrize("r", [2, 3])
    def test_closed_form_asks_for_r_rows(self, kernel_calls, r):
        # One call per row; a fourth row at s = 0.25 would evaluate zeta(1).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed_form(r, 0.25)
        assert kernel_calls == [(i * 0.25, 1) for i in range(1, r + 1)]


class TestIntegerParameters:
    def test_numpy_integers_are_fold_counts(self):
        assert multizeta(np.int64(3), 0.6) == multizeta(3, 0.6)
        assert multizeta(np.int32(16), 2.0) == multizeta(16, 2.0)
        assert np.array_equal(multizeta_grid(np.int64(2), [0.3]), multizeta_grid(2, [0.3]))

    @pytest.mark.parametrize("bad", [True, np.True_, 3.0, np.float64(3.0)])
    def test_bools_and_floats_are_not(self, bad):
        with pytest.raises(ParameterRangeError):
            multizeta(bad, 0.6)
        with pytest.raises(ParameterRangeError):
            multizeta_grid(bad, [0.3])


class TestPoleGuard:
    def test_guard_names_pole_and_order(self):
        with pytest.raises(PoleProximityError) as info:
            multizeta(3, 0.5)
        assert (info.value.k, info.value.order) == (2, 1)
        with pytest.raises(PoleProximityError) as info:
            multizeta(2, 1.0)
        assert (info.value.k, info.value.order) == (1, 2)

    def test_lower_fold_pole_is_not_inherited(self):
        # 1/3 is a pole of the 3-fold function only; the 2-fold is finite.
        assert math.isfinite(multizeta(2, 1.0 / 3.0))
        with pytest.raises(PoleProximityError):
            multizeta(3, 1.0 / 3.0)

    def test_negative_axis_rejected(self):
        with pytest.raises(DomainError):
            multizeta(2, -1.0)
        with pytest.raises(DomainError):
            multizeta(2, math.nan)

    def test_nearest_pole(self):
        assert nearest_pole(3, 0.5) == (2, 1)
        assert nearest_pole(3, 0.5 + 5e-9) == (2, 1)
        assert nearest_pole(3, 0.75) is None
        assert nearest_pole(2, 1.0) == (1, 2)
        assert nearest_pole(np.int64(3), 0.5) == (2, 1)
        assert nearest_pole(R_MAX, 1.0 / R_MAX) == (R_MAX, 1)
        for s in (math.nan, math.inf, -math.inf, 0.0, -0.5, 1e-320):
            assert nearest_pole(R_MAX, s) is None
        for r in (2.5, 0, True, R_MAX + 1):
            with pytest.raises(ParameterRangeError, match="fold count"):
                nearest_pole(r, 1.0)

    def test_guards_match_the_loop_over_every_pole(self):
        # Both guards look only at k = round(1/s).  The reference is the
        # loop over k = 1..r, at 1/k +- {0.5, 0.99, 1.01, 2} guard radii.
        def loop(r, s):
            for k in range(1, r + 1):
                if abs(s - 1.0 / k) < POLE_GUARD_RADIUS:
                    return k, r // k
            return None

        points = [
            1.0 / k + sign * f * POLE_GUARD_RADIUS
            for k in range(1, R_MAX + 1) for f in (0.5, 0.99, 1.01, 2.0) for sign in (-1.0, 1.0)
        ]
        random.Random(31).shuffle(points)
        for r in range(1, R_MAX + 1):
            hits = sorted((loop(r, s), i) for i, s in enumerate(points) if loop(r, s))
            assert [nearest_pole(r, s) for s in points] == [loop(r, s) for s in points], r
            # An array names the smallest k, then its first point: drop that
            # point and the next hit is named, until none is left.
            keep = np.ones(len(points), dtype=bool)
            for (k, order), i in hits:
                with pytest.raises(PoleProximityError) as info:
                    _fold_table(r, np.array(points)[keep])
                assert (info.value.k, info.value.order, info.value.s) == (k, order, points[i])
                keep[i] = False
            assert len(_fold_table(r, np.array(points)[keep])) == r + 1


class TestClosedForms:
    def test_double_fold_at_three(self):
        expected = (riemann_zeta(3.0) ** 2 - riemann_zeta(6.0)) / 2.0
        assert closed_form(2, 3.0) == pytest.approx(expected, rel=1e-14, abs=0)
        assert closed_form(2, 3.0) == pytest.approx(0.2137988682245925, rel=1e-13, abs=0)

    def test_triple_fold_vanishes_at_its_zero(self):
        assert abs(closed_form(3, 0.385782)) < 1e-4

    def test_agreement_with_recursion(self):
        assert closed_form(4, 2.0) == pytest.approx(multizeta(4, 2.0), rel=1e-13, abs=0)

    def test_seeded_sweep_against_recursion(self):
        rng = np.random.default_rng(7)
        for r in (2, 3, 4):
            for _ in range(200):
                s = float(rng.uniform(1.0 / r + 1e-3, 4.0))
                if any(abs(s - 1.0 / k) < 1e-3 for k in range(1, r + 1)):
                    continue
                a, b = multizeta(r, s), closed_form(r, s)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    def test_only_low_folds_have_closed_forms(self):
        for bad in (1, 5, 0):
            with pytest.raises(ParameterRangeError):
                closed_form(bad, 2.0)

    @given(
        r=st.sampled_from((2, 3, 4)),
        s=st.floats(min_value=0.6, max_value=4.0),
    )
    def test_agreement_property(self, r, s):
        assume(abs(s - 1.0) > 1e-3)
        assume(abs(s - 0.6268175537730932) > 1e-6)  # keep |value| off zero noise
        a, b = multizeta(r, s), closed_form(r, s)
        assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


class TestTruncatedSums:
    def test_minimal_tuple_is_factorial_power(self):
        # n = r leaves the single tuple (1, 2, ..., r).
        assert truncated_euler_zagier(3, 2.0, 3) == pytest.approx(
            1.0 / 36.0, rel=1e-14, abs=0
        )

    @pytest.mark.parametrize("rsn,expected", sorted(TRUNCATED_SPOTS.items()))
    def test_frozen_partial_sums(self, rsn, expected):
        r, s, n = rsn
        assert truncated_euler_zagier(r, s, n) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_converges_to_continued_value(self):
        target = math.pi**4 / 120.0
        partial = truncated_euler_zagier(2, 2.0, 10**4)
        assert 0.0 < target - partial < 2e-4

    def test_monotone_in_term_count(self):
        for r in (1, 2, 3):
            limit = multizeta(r, 2.0)
            last = -math.inf
            for n in (r, r + 3, 10, 50, 200, 1000):
                part = truncated_euler_zagier(r, 2.0, n)
                assert last < part < limit
                last = part

    @pytest.mark.parametrize(
        "r,s,n", [(2, 2.0, 500), (3, 2.5, 2000), (4, 1.5, 800), (5, 3.0, 300)]
    )
    def test_tail_bound(self, r, s, n):
        # 0 < zeta_r(s) - N_r(s, n) <= zeta_{r-1}(s) n^(1-s) / (s-1).
        gap = multizeta(r, s) - truncated_euler_zagier(r, s, n)
        head = multizeta(r - 1, s) if r > 1 else 1.0
        assert 0.0 < gap <= head * n ** (1.0 - s) / (s - 1.0)

    def test_refuses_outside_absolute_convergence(self):
        with pytest.raises(DomainError):
            truncated_euler_zagier(2, 1.0, 100)
        with pytest.raises(DomainError):
            truncated_euler_zagier(2, 0.5, 100)

    def test_refuses_empty_sum(self):
        with pytest.raises(EmptySumError):
            truncated_euler_zagier(3, 2.0, 2)

    def test_rejects_bad_term_count(self):
        with pytest.raises(ParameterRangeError):
            truncated_euler_zagier(2, 2.0, 0)
        with pytest.raises(ParameterRangeError):
            truncated_euler_zagier(2, 2.0, 1.5)


def _brute_elementary(values, j):
    return math.fsum(math.prod(c) for c in itertools.combinations(values, j))


def _power_sums(values, r):
    return [math.fsum(v**i for v in values) for i in range(1, r + 1)]


class TestNewtonIdentities:
    """The product expansion that the split above s = 1 and the truncated
    sums use, against subset enumeration, and the Newton identities on the
    power sums against both."""

    def test_hand_example(self):
        # e_2 = 3, p_1 = p_2 = 3: the identity closes exactly in floats.
        assert _product_expansion([1.0, 1.0, 1.0], 2) == [1.0, 3.0, 3.0]
        assert _newton([3.0, 3.0]) == [1.0, 3.0, 3.0]

    def test_power_sum_input(self):
        x = [1.0 / m**2 for m in range(1, 13)]
        e = _product_expansion(x, 3)
        for got, want in zip(_newton(_power_sums(x, 3)), e):
            assert abs(got - want) < 1e-12

    def test_state_against_subset_enumeration(self):
        x = [0.5, -1.25, 2.0, 0.125, -0.75]
        e = _product_expansion(x, 4)
        assert e[0] == 1.0
        for j in range(5):
            assert e[j] == pytest.approx(_brute_elementary(x, j), rel=1e-12, abs=1e-13)
            assert _newton(_power_sums(x, 4))[j] == pytest.approx(
                _brute_elementary(x, j), rel=1e-12, abs=1e-13
            )

    @given(
        x=st.lists(
            st.floats(min_value=-1.0, max_value=1.0),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    def test_identity_on_random_vectors(self, x, data):
        r = data.draw(st.integers(min_value=1, max_value=len(x)))
        e = _product_expansion(x, r)
        # Independent oracle: elementary functions by subset enumeration.
        for j in range(r + 1):
            scale = 1.0 + math.fsum(
                abs(math.prod(c)) for c in itertools.combinations(x, j)
            )
            assert abs(e[j] - _brute_elementary(x, j)) <= 1e-12 * scale
        p = _power_sums(x, r)
        scale = 1.0 + r * max(abs(v) for v in e) * max(abs(v) for v in p)
        assert abs(_newton(p)[r] - e[r]) <= 1e-10 * scale


class TestGridEvaluation:
    def test_matches_scalar_path(self):
        # Above s = 1 both take the head/tail split, bit for bit; at r = 32
        # the table's recursion still loses digits below 1 (2.6e-6 at 0.7).
        s = np.array([0.0, 0.41, 0.7, 1.2, 2.0, 3.5])
        for r in (2, 4, 6, 16, 32):
            points = s[s > 1.0] if r == 32 else s
            grid = multizeta_grid(r, points)
            for si, vi in zip(points, grid):
                if si > 1.0:
                    assert float(vi) == multizeta(r, float(si))
                else:
                    assert float(vi) == pytest.approx(multizeta(r, float(si)), rel=1e-11, abs=0)

    def test_empty_input(self):
        assert multizeta_grid(3, np.empty(0)).size == 0

    @pytest.mark.parametrize("r", [2, 9, 16])
    def test_values_are_pointwise(self, r):
        # Bit for bit: a value never depends on the rest of the array, so
        # a batch of brackets sees what each bracket sees alone.
        x = np.concatenate([np.linspace(0.505, 0.995, 40), np.linspace(1.01, 3.0, 40)])
        values = multizeta_grid(r, x)
        for j in range(x.size):
            assert values[j] == multizeta_grid(r, x[j : j + 1])[0], x[j]

    def test_grid_pole_guard(self):
        with pytest.raises(PoleProximityError):
            multizeta_grid(3, np.array([0.4, 1.0 / 3.0]))
        with pytest.raises(DomainError):
            multizeta_grid(3, np.array([0.4, -0.2]))

    @pytest.mark.parametrize(
        "s", [0.3, [[0.3, 0.6], [0.7, 0.8]], np.empty((0, 3))], ids=["0-d", "2x2", "0x3"]
    )
    def test_only_1d_arrays_accepted(self, s):
        # The shape is checked before the empty-array shortcut.
        with pytest.raises(DomainError):
            multizeta_grid(2, s)
