"""Zero and extremum location between consecutive asymptotes: the
refinement of each proxy root and its record contract, the Chebyshev
proxy scan, the extrema, and the constant-sign check on the leftmost
segment."""
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mzr import (
    BRACKET_WIDTH,
    checks,
    ExtremumRecord,
    NonConvergenceError,
    POLE_GUARD_RADIUS,
    ParameterRangeError,
    R_MAX,
    SCAN_R_MAX,
    ZeroRecord,
    delta_exclusion,
    find_extrema,
    multizeta,
    scan_interval,
)
from mzr.cli import main

zero_finder = importlib.import_module("mzr.zero_finder")
multizeta_module = importlib.import_module("mzr.multizeta")

# Zeros refined independently at 40 decimal digits, frozen as doubles.
KNOWN_ZEROS = {
    (2, 2): [0.6268175537730932],
    (4, 2): [0.5713479665488253, 0.7834448317396075],
    (5, 2): [0.6438605458318124, 0.821698848360263],
    (6, 3): [0.36271606941036702, 0.41920546764275791],
    (8, 2): [
        0.53804832867197001,
        0.65068727703140792,
        0.76679382800664056,
        0.88366433094456343,
    ],
}


class TestDeltaExclusion:
    def test_values_scale_with_interval_width(self):
        assert delta_exclusion(1) == pytest.approx(5e-5, rel=1e-6, abs=0)
        assert delta_exclusion(2) == pytest.approx(5e-5, rel=1e-6, abs=0)
        assert delta_exclusion(3) == pytest.approx(1e-4 / 6.0, rel=1e-6, abs=0)

    def test_floor(self):
        assert delta_exclusion(1000) == 1e-6

    def test_monotone_until_floor(self):
        widths = [delta_exclusion(k) for k in range(2, 40)]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    @pytest.mark.parametrize("bad", [0, -2, 1.5, None])
    def test_range_errors(self, bad):
        with pytest.raises(ParameterRangeError):
            delta_exclusion(bad)


class TestRefineRoot:
    """Each root of an interval's proxy after its Newton step and sign
    check (`_refine_scans`), and the ZeroRecord that carries its bracket."""

    def test_triple_fold_zero(self):
        (record,) = scan_interval(3, 3).zeros
        assert record.abscissa == pytest.approx(0.3857825732458655, abs=1e-11)
        assert record.k == 3

    def test_double_fold_zero_vanishes(self):
        (record,) = scan_interval(2, 2).zeros
        assert record.abscissa == pytest.approx(0.6268175537730932, abs=1e-11)
        assert abs(multizeta(2, record.abscissa)) < 1e-12

    def test_five_fold_zero_in_corrected_window(self):
        record = scan_interval(5, 2).zeros[-1]
        assert record.abscissa == pytest.approx(0.821698848360263, abs=1e-11)

    def test_no_sign_change_above_the_corrected_window(self):
        # The 5-fold function is strictly negative on [0.87, 0.89].
        assert multizeta(5, 0.87) < 0.0 and multizeta(5, 0.89) < 0.0
        assert all(z.abscissa < 0.83 for z in scan_interval(5, 2))

    def test_record_contract(self):
        (record,) = scan_interval(3, 2).zeros
        assert 0.5 < record.bracket_lo < record.abscissa < record.bracket_hi < 1.0
        assert record.bracket_hi - record.bracket_lo <= BRACKET_WIDTH
        lo_val = multizeta(3, record.bracket_lo)
        hi_val = multizeta(3, record.bracket_hi)
        assert lo_val * hi_val < 0.0
        assert 0.0 <= record.residual < 1e-11

    def test_tighter_tolerance(self):
        ((record,),) = zero_finder._refine_scans(zero_finder._scan_grid([(2, 2)]), tol=1e-13)
        assert record.bracket_hi - record.bracket_lo <= 1e-13
        assert record.abscissa == scan_interval(2, 2).zeros[0].abscissa

    def test_tolerance_validation(self):
        proxies = zero_finder._scan_grid([(2, 2)])
        with pytest.raises(ParameterRangeError):
            zero_finder._refine_scans(proxies, tol=1e-15)
        with pytest.raises(ParameterRangeError):
            zero_finder._refine_scans(proxies, tol=1e-9)

    def test_rejects_inverted_or_degenerate_bracket(self):
        # The record is where every bracket is checked.
        with pytest.raises(ParameterRangeError):
            ZeroRecord(2, 2, 0.6268 + 1e-13, 0.6268, 0.6268 + 5e-14, 0.0)
        with pytest.raises(ParameterRangeError):
            ZeroRecord(2, 2, 0.6268, 0.6268, 0.6268, 0.0)

    def test_rejects_bracket_spanning_a_pole(self):
        with pytest.raises(ParameterRangeError):
            ZeroRecord(3, 2, 0.5 - 1e-13, 0.5 + 1e-13, 0.5, 0.0)

    def test_rejects_same_sign_endpoints(self):
        # The 2-fold function keeps one sign on [0.70, 0.75]: a root put
        # there fails its sign check, gives no zero and unsettles the count.
        ((scan, _, _),) = zero_finder._scan_grid([(2, 2)])
        assert scan.count_stable
        (refined,) = zero_finder._refine_scans([(scan, (0.72,), (1.0,))])
        assert refined.zeros == ()
        assert not refined.count_stable

    def test_fold_count_range(self):
        with pytest.raises(ParameterRangeError):
            scan_interval(1, 2)
        with pytest.raises(ParameterRangeError):
            scan_interval(SCAN_R_MAX + 1, 2)


def _inject_folds(monkeypatch, f):
    """Serve every fold of every table from f; returns the table sizes."""
    sizes = []

    def table(r, s):
        s = np.asarray(s, dtype=float)
        sizes.append(s.size)
        return [f(s)] * (r + 1)

    monkeypatch.setattr(zero_finder, "_fold_table", table)
    return sizes


class TestRefineRoots:
    """Every root of a run refined in one batch, as the CLI refines them."""

    def test_batch_equals_single_brackets(self):
        # The 228 zeros of `census --r-max 16`, scanned and refined as one
        # run, are field for field those of each interval scanned alone,
        # and each bracket sits inside its interval and straddles a sign
        # change.
        pairs = zero_finder._census_pairs(SCAN_R_MAX)
        batch = zero_finder._refine_scans(zero_finder._scan_grid(pairs))
        single = [
            scan
            for k in range(2, SCAN_R_MAX + 1)
            for scan in zero_finder._scan_many([(r, k) for r in range(k, SCAN_R_MAX + 1)]).values()
        ]
        assert batch == single
        records = [zero for scan in batch for zero in scan.zeros]
        assert len(records) == 228
        for z in records:
            assert 1.0 / z.k < z.bracket_lo < z.abscissa < z.bracket_hi < 1.0 / (z.k - 1)
            assert multizeta(z.r, z.bracket_lo) * multizeta(z.r, z.bracket_hi) < 0.0, z

    def test_empty_batch(self):
        assert zero_finder._scan_grid([]) == []
        assert zero_finder._refine_scans([]) == []

    def test_flat_zero_fails_its_check(self, capsys, monkeypatch):
        # F = 0 within 1e-12 of 0.65 on (1/2, 1): the proxy finds the root,
        # but no sign change holds across +-0.45e-12 of it, so it gives no
        # zero and the count is not trusted.
        flat = lambda s: np.where(np.abs(s - 0.65) <= 1e-12, 0.0, s - 0.65)
        _inject_folds(monkeypatch, flat)
        scan = scan_interval(2, 2)
        assert scan.grid_counts == (1, 1)
        assert scan.zeros == ()
        assert not scan.count_stable
        assert main(["zeros", "--r", "2"]) == 5
        assert json.loads(capsys.readouterr().out)["zeros"] == []


class TestScanInterval:
    def test_double_fold(self):
        scan = scan_interval(2, 2)
        assert len(scan) == 1
        assert scan.count_stable
        assert scan.grid_counts == (1, 1)
        assert scan.tangency_suspects == ()
        assert scan.zeros[0].abscissa == pytest.approx(0.6268175537730932, abs=1e-10)

    @pytest.mark.parametrize("rk,expected", sorted(KNOWN_ZEROS.items()))
    def test_known_intervals(self, rk, expected):
        r, k = rk
        scan = scan_interval(r, k)
        assert len(scan) == len(expected)
        assert scan.count_stable
        for record, reference in zip(scan.zeros, expected):
            assert record.abscissa == pytest.approx(reference, abs=1e-10)

    def test_records_sit_inside_the_interval(self):
        scan = scan_interval(6, 3)
        for record in scan:
            assert 1.0 / 3.0 < record.bracket_lo < record.abscissa
            assert record.abscissa < record.bracket_hi < 0.5

    def test_iteration_protocol(self):
        scan = scan_interval(4, 2)
        assert [z.abscissa for z in scan] == [z.abscissa for z in scan.zeros]
        assert scan.zeros[1].abscissa > scan.zeros[0].abscissa

    def test_interval_validation(self):
        with pytest.raises(ParameterRangeError):
            scan_interval(1, 2)
        with pytest.raises(ParameterRangeError):
            scan_interval(4, 1)
        with pytest.raises(ParameterRangeError):
            scan_interval(4, 5)


class TestScanFolds:
    """A run's scan, `_scan_many`: every fold count of each interval from
    shared fold tables."""

    @pytest.mark.parametrize("k", range(2, SCAN_R_MAX + 1))
    def test_shared_scan_equals_single_scans(self, k):
        # Up to r = 16 the rows i*s pass 10, where each point takes its own
        # zeta term counts; counts shared by the array would leak between
        # the fold counts and the roots of a batch.
        scans = zero_finder._scan_many([(r, k) for r in range(k, SCAN_R_MAX + 1)])
        assert list(scans) == [(r, k) for r in range(k, SCAN_R_MAX + 1)]
        for (r, _), scan in scans.items():
            assert scan == scan_interval(r, k), (r, k)

    def test_a_run_makes_its_scan_and_check_tables(self, capsys, monkeypatch):
        # The proxies grow in rounds: one table over 63 points of every
        # interval, one over 64 new points of each interval with a pending
        # (r, k) (at r <= 16 every count settles on 63 or 127 points), then
        # one over every root check or extremum value.
        sizes = []
        kernel = multizeta_module._zeta_rows

        def counted(r, s):
            sizes.append(len(s))
            return kernel(r, s)

        monkeypatch.setattr(multizeta_module, "_zeta_rows", counted)
        assert main(["zeros", "--r", "16"]) == 0
        assert sizes == [15 * 63, 4 * 64, 34 * 3]
        assert sum(sizes[:2]) == 1201
        sizes.clear()
        assert main(["census", "--r-max", "8"]) == 0
        assert sizes == [7 * 63, 1 * 64, 41 * 3]
        sizes.clear()
        assert main(["extrema", "--r", "16"]) == 0
        assert sizes == [15 * 63, 4 * 64, 19]
        capsys.readouterr()
        sizes.clear()
        checks.fold_scans(8)
        assert sizes == [7 * 63, 1 * 64, 41 * 3]

    def test_run_zeros_equal_single_interval_runs(self, capsys):
        # `zeros --r 16` scans its fifteen intervals from one table; its
        # records are those of `zeros --r 16 --k k` for each k.
        assert main(["zeros", "--r", "16"]) == 0
        run = json.loads(capsys.readouterr().out)
        single = {"zeros": [], "intervals": []}
        for k in range(16, 1, -1):
            assert main(["zeros", "--r", "16", "--k", str(k)]) == 0
            one = json.loads(capsys.readouterr().out)
            single["zeros"] += one["zeros"]
            single["intervals"] += one["intervals"]
        assert len(run["zeros"]) == 34
        assert run["zeros"] == single["zeros"]
        assert run["intervals"] == single["intervals"]

    def test_records_do_not_depend_on_the_run(self):
        # One Newton step serves a whole run, down the columns of its
        # series; a census to SCAN_R_MAX and the extrema of r = 16 give
        # the records of each interval run alone, to the last bit.
        census = zero_finder._scan_many(zero_finder._census_pairs(SCAN_R_MAX))
        assert len(census) == 120
        assert repr(census) == repr({(r, k): scan_interval(r, k) for r, k in census})
        run = zero_finder._extrema([(16, k) for k in range(2, 17)])
        assert repr(run) == repr({(16, k): find_extrema(16, k) for k in range(2, 17)})

    def test_validation(self):
        # An empty run is empty, every pair is checked, and a repeated pair
        # gives one record, in the place it first takes.
        assert zero_finder._scan_many([]) == {}
        for pair in ((3, 1), (3, 4), (1, 2), (SCAN_R_MAX + 1, 2)):
            with pytest.raises(ParameterRangeError):
                zero_finder._scan_many([(3, 2), pair])
        run = zero_finder._scan_many([(3, 2), (2, 2), (3, 2)])
        assert list(run) == [(3, 2), (2, 2)]
        assert run[(3, 2)] == scan_interval(3, 2)


ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.json"


def _filter_alone(z, x_lo, x_hi):
    """`_interval_roots` for one root array z in t = 2x - 1, series by
    series: the real roots in (x_lo, x_hi), and the suspects."""
    x = 0.5 * (1.0 + z)
    x = x[(x_lo < x.real) & (x.real < x_hi)]
    suspects = [float(v.real) for v in x if 0.0 < v.imag < 0.5 * zero_finder._TANGENCY_GAP]
    roots = []
    for v in np.sort(x.real[x.imag == 0.0]).tolist():
        if roots and v - roots[-1] < zero_finder._TANGENCY_GAP:
            suspects.append(0.5 * (roots.pop() + v))
        else:
            roots.append(v)
    return roots, sorted(suspects)


class TestChebyshevProxy:
    @pytest.mark.parametrize("k", range(2, SCAN_R_MAX + 1))
    def test_counts_are_the_conjecture_and_resolved(self, k, monkeypatch):
        # One stacked series call per point count and round, one row per
        # pending fold count: a round takes the rows the round before did
        # not resolve on both proxies, and the last round resolves them all.
        resolved = []
        proxy_series = zero_finder._proxy_series

        def recorded(values):
            found = proxy_series(values)
            resolved.append(found[2])
            return found

        monkeypatch.setattr(zero_finder, "_proxy_series", recorded)
        scans = [scan for scan, _, _ in zero_finder._scan_grid([(r, k) for r in range(k, SCAN_R_MAX + 1)])]
        assert [scan.grid_counts for scan in scans] == [
            (r // k, r // k) for r in range(k, SCAN_R_MAX + 1)
        ]
        assert all(scan.count_stable for scan in scans)
        rounds = list(zip(resolved[::2], resolved[1::2]))
        assert len(resolved) == 2 * len(rounds) and len(rounds[0][0]) == len(scans)
        for (coarse, fine), (pending, _) in zip(rounds, rounds[1:]):
            assert len(pending) == sum(not (a and b) for a, b in zip(coarse, fine))
        assert all(rounds[-1][0]) and all(rounds[-1][1])

    def test_adaptive_counts_equal_the_fixed_proxies(self):
        # Every (r, k) with r <= 16 settles on 63 or 127 points, with the
        # counts, stability and suspects the 127- and 255-point proxies
        # give it: those read from one 255-point table per (r, k).
        scans = [scan for scan, _, _ in zero_finder._scan_grid(zero_finder._census_pairs(SCAN_R_MAX))]
        assert len(scans) == 120
        for scan in scans:
            r, k = scan.r, scan.k
            s = zero_finder._proxy_nodes(k, 2 * zero_finder._PROXY_NODES)
            g = zero_finder._fold_table(r, s)[r] * (k * s - 1.0) ** (r // k)
            g = g * (1.0 - (k - 1) * s) ** (r // (k - 1)) * ((k + 1) * s - 1.0) ** (r // (k + 1))
            width = 1.0 / (k - 1) - 1.0 / k
            x_lo, x_hi = ((b - 1.0 / k) / width for b in zero_finder._interval_bounds(k))
            counts, suspects, resolved = [], [], []
            for values in (g[1::2], g):
                _, (chopped,), (ok,) = zero_finder._proxy_series(values[None])
                roots, near = _filter_alone(zero_finder._chebroots([chopped])[0], x_lo, x_hi)
                counts.append(len(roots))
                suspects.append(near)
                resolved.append(ok)
            assert scan.grid_counts == tuple(counts), (r, k)
            stable = counts[0] == counts[1] and all(resolved) and not any(suspects)
            assert scan.count_stable == stable, (r, k)
            assert scan.tangency_suspects == tuple(1.0 / k + width * x for x in suspects[1])
            assert scan.grid_points in ((31, 63), (63, 127)), (r, k)

    @pytest.mark.parametrize("k", range(2, R_MAX + 1))
    def test_nodes_clear_the_pole_guard(self, k):
        # Every interval a fold count up to R_MAX can have: the nearest
        # point, about pi^2 w / (4 n^2) inside, is 3.8e-8 from 1/32.
        for n in (zero_finder._PROXY_NODES, 2 * zero_finder._PROXY_NODES):
            s = zero_finder._proxy_nodes(k, n)
            assert s.size == n - 1
            assert np.all((1.0 / k < s) & (s < 1.0 / (k - 1)))
            assert min(s.min() - 1.0 / k, 1.0 / (k - 1) - s.max()) > POLE_GUARD_RADIUS

    def test_coarse_grid_is_every_other_fine_point(self):
        n = zero_finder._PROXY_NODES
        for k in range(2, R_MAX + 1):
            coarse, fine = zero_finder._proxy_nodes(k, n), zero_finder._proxy_nodes(k, 2 * n)
            assert coarse.tolist() == fine[1::2].tolist(), k

    def test_series_recovered_from_both_grids(self):
        # A series of degree <= 40 is its own interpolant at 127 and at
        # 255 points; the DST and the parity sums give it back.
        from numpy.polynomial.chebyshev import chebval

        rng = np.random.default_rng(11)
        c = rng.standard_normal((20, 41))
        c[np.arange(41) > rng.integers(0, 41, (20, 1))] = 0.0
        for n in (zero_finder._PROXY_NODES, 2 * zero_finder._PROXY_NODES):
            t = np.cos(np.pi * np.arange(1, n) / n)
            full, _, _ = zero_finder._proxy_series(chebval(t, c.T))
            expected = np.zeros((20, n - 1))
            expected[:, :41] = c
            error = np.abs(full - expected).max(axis=1)
            assert np.all(error <= 2e-14 * np.abs(c).max(axis=1)), error

    def test_double_root_is_one_suspect(self, capsys, monkeypatch):
        # A 2-fold function on (1/2, 1) with a double root at 0.7 and the
        # poles of the real one at both ends: the proxy sees one near-real
        # pair, which is no zero and makes the count unstable.
        c = 0.7
        _inject_folds(monkeypatch, lambda s: (s - c) ** 2 / ((2 * s - 1) * (1 - s) ** 2))
        scan = scan_interval(2, 2)
        assert scan.zeros == ()
        assert scan.tangency_suspects == pytest.approx((c,), abs=1e-6)
        assert not scan.count_stable
        assert main(["zeros", "--r", "2"]) == 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["zeros"] == []
        assert payload["intervals"][0]["count_stable"] is False

    def test_noise_is_unresolved(self, monkeypatch):
        # Values with no plateau to chop at: neither proxy resolves.
        rng = np.random.default_rng(7)
        _inject_folds(monkeypatch, lambda s: rng.standard_normal(s.size))
        for n in (zero_finder._PROXY_NODES, 2 * zero_finder._PROXY_NODES):
            _, _, resolved = zero_finder._proxy_series(rng.standard_normal((3, n - 1)))
            assert resolved == [False] * 3
        ((scan, _, _),) = zero_finder._scan_grid([(2, 2)])
        assert not scan.count_stable

    def test_stacked_roots_equal_chebroots(self, monkeypatch):
        # Every chopped series of a census to r = 16, short and degenerate
        # series, and series ending in zeros: `_chebroots` gives each the
        # array `chebroots` gives it, dtype and bits.
        from numpy.polynomial.chebyshev import chebroots

        seen = []
        stacked = zero_finder._chebroots

        def recorded(series):
            seen.extend(np.array(c) for c in series)
            return stacked(series)

        monkeypatch.setattr(zero_finder, "_chebroots", recorded)
        zero_finder._scan_grid(zero_finder._census_pairs(SCAN_R_MAX))
        assert len(seen) == 2 * 120
        # The eigenvalue work grows as the cube of the lengths: with the pole
        # at 1/(k+1) cancelled too the census gives 792,480 (1,353,286 with
        # the end poles alone).
        assert sum((len(c) - 1) ** 3 for c in seen) <= 850_000
        rng = np.random.default_rng(11)
        seen += [np.array([0.7]), np.array([0.0]), np.array([0.5, -2.0]), np.array([1.0, 0.5, 2.0])]
        seen += [np.array([0.0, 0.0, 0.0]), np.array([0.5, -2.0, 0.0]), np.array([1.0, 0.5, 2.0, 0.0, 0.0])]
        seen += [np.concatenate([rng.standard_normal(n), np.zeros(z)]) for n, z in ((9, 1), (9, 4), (30, 2))]
        # Complex conjugate pairs in one matrix, real roots only in another
        # of the same size.
        seen += [np.array([2.0, 0.0, 1.0]), np.array([-0.5, 0.0, 1.0])]
        for got, c in zip(stacked(seen), seen):
            want = chebroots(c)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), c

    def test_stacked_filter_equals_series_by_series(self, monkeypatch):
        # Every root array of a census to r = 16 and of its extrema, and
        # random ones with near-real pairs, close real pairs and roots on
        # either side of the bounds: the one-pass filter gives each array
        # what the filter of that array alone gives it, bits and order.
        runs = []
        stacked = zero_finder._interval_roots

        def recorded(eigen, bounds):
            runs.append((eigen, bounds))
            return stacked(eigen, bounds)

        monkeypatch.setattr(zero_finder, "_interval_roots", recorded)
        pairs = zero_finder._census_pairs(SCAN_R_MAX)
        zero_finder._scan_grid(pairs)
        zero_finder._scan_grid(pairs, zero_finder._extremum_series)
        rng = np.random.default_rng(12)
        for _ in range(50):
            eigen = []
            for m in rng.integers(0, 12, rng.integers(1, 20)):
                z = rng.uniform(-1.2, 1.2, m) + 1j * rng.choice([0.0, 0.0, 1e-4, -1e-4, 1.4e-3, 0.3], m)
                if m and rng.random() < 0.5:
                    z = np.concatenate([z, z[:1].real + 3e-4])
                eigen.append(np.sort(z.real if rng.random() < 0.3 else z))
            runs.append((eigen, [sorted(rng.uniform(0.0, 1.0, 2)) for _ in eigen]))
        for eigen, bounds in runs:
            want = [_filter_alone(z, x_lo, x_hi) for z, (x_lo, x_hi) in zip(eigen, bounds)]
            assert stacked(eigen, bounds) == want

    def test_zeros_match_the_mpmath_oracle(self):
        # Every zero the scan finds, for the fold counts the benchmark
        # oracle holds, against its mpmath root (150 digits, tolerance
        # 1e-60), at the default and the tightest bracket tolerance.
        roots = json.loads(ORACLE.read_text())["roots"]
        assert len(roots) == 81
        top = max(int(key.split(",")[0]) for key in roots)
        assert top == SCAN_R_MAX
        for tol in (BRACKET_WIDTH, 1e-14):
            seen = set()
            for k in range(2, top + 1):
                proxies = zero_finder._scan_grid([(r, k) for r in range(k, top + 1)])
                for scan in zero_finder._refine_scans(proxies, tol):
                    assert scan.count_stable, (scan.r, k, tol)
                    for z in scan.zeros:
                        assert z.bracket_hi - z.bracket_lo <= tol, (z, tol)
                    expected = roots.get(f"{scan.r},{k}")
                    if expected is None:
                        continue
                    seen.add(f"{scan.r},{k}")
                    found = [z.abscissa for z in scan.zeros]
                    assert len(found) == len(expected), (scan.r, k)
                    for x, ref in zip(found, expected):
                        assert abs(x - ref) <= 1e-12, (scan.r, k, x, ref)
            assert seen == set(roots)


class TestFindExtrema:
    def test_chebder_matches_numpy(self):
        from numpy.polynomial.chebyshev import chebder

        rng = np.random.default_rng(8)
        for n in rng.integers(2, 300, 60):
            c = rng.standard_normal(n) * np.exp(-0.05 * np.arange(n))
            d = chebder(c)
            assert np.abs(zero_finder._chebder(c) - d).max() <= 1e-15 * np.abs(d).max(), n

    def test_chebder_column_keeps_its_bits(self):
        # Zeros padded at the top of a column change none of its bits.
        rng = np.random.default_rng(9)
        series = [rng.standard_normal(n) for n in (1, 2, 3, 40, 257, 258)]
        c = np.zeros((258, len(series)))
        for j, f in enumerate(series):
            c[: f.size, j] = f
        stacked = zero_finder._chebder(c)
        for j, f in enumerate(series):
            d = zero_finder._chebder(f)
            assert d.shape == (f.size - 1,)
            assert stacked[: d.size, j].tolist() == d.tolist()
            assert not stacked[d.size :, j].any()

    def test_extremum_series_matches_numpy_products(self):
        # h = x (1 - x) (1 + a x) g' - (m_a (1 - x) (1 + a x) - m_b x (1 + a x)
        # + m_c a x (1 - x)) g from numpy's products of the linear factors,
        # in t = 2x - 1, for every (r, k) of a scan.
        from numpy.polynomial.chebyshev import chebadd, chebder, chebmul, chebsub

        rng = np.random.default_rng(12)
        x, rest = [0.5, 0.5], [0.5, -0.5]
        for r in range(2, SCAN_R_MAX + 1):
            for k in range(2, r + 1):
                m_a, m_b, m_c, a = r // k, r // (k - 1), r // (k + 1), (k + 1) / (k - 1)
                near = [1.0 + 0.5 * a, 0.5 * a]
                for n in rng.integers(1, 60, 3):
                    c = rng.standard_normal(n) * np.exp(-0.1 * np.arange(n))
                    slope = chebmul(chebmul(chebmul(x, rest), near), 2.0 * chebder(c))
                    share = chebadd(
                        chebsub(m_a * chebmul(rest, near), m_b * chebmul(x, near)),
                        m_c * a * chebmul(x, rest),
                    )
                    want = chebsub(slope, chebmul(share, c))
                    got = zero_finder._extremum_series(c, r, k)
                    assert got.shape == (n + 2,)
                    want = np.concatenate([want, np.zeros(n + 2 - len(want))])
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (r, k, n)

    def test_newton_steps_match_numpy(self):
        from numpy.polynomial.chebyshev import chebder, chebval

        rng = np.random.default_rng(10)
        lengths = rng.integers(2, 301, 40)
        series = [rng.standard_normal(n) * np.exp(-0.05 * np.arange(n)) for n in lengths]
        roots = [rng.uniform(0.0, 1.0, rng.integers(0, 4)).tolist() for _ in series]
        steps = zero_finder._newton_steps(series, roots)
        assert len(steps) == len(series)
        for c, x, (t, slope) in zip(series, roots, steps):
            # Values and slopes from cos(j theta) and j sin(j theta) / sin(theta)
            # are numpy's to rounding in the sum of the terms; the value is
            # read back from the step.
            u, slope = 2.0 * np.array(x) - 1.0, np.array(slope)
            value, exact = chebval(u, c), chebval(u, chebder(c))
            j = np.arange(c.size)
            assert np.abs(slope - exact).max(initial=0.0) <= 1e-14 * np.abs(j * c).sum()
            assert np.abs((u - t) * slope - value).max(initial=0.0) <= 1e-14 * np.abs(c).sum()
            assert np.abs(t - (u - value / slope)).max(initial=0.0) <= 1e-14
        assert zero_finder._newton_steps(series[:2], [[], []])[1][1] == []

    def test_four_fold_minimum(self):
        records = find_extrema(4, 2)
        assert len(records) == 1
        record = records[0]
        assert record.kind == "minimum"
        assert record.abscissa == pytest.approx(0.69370259761572962, abs=1e-7)
        assert record.value == pytest.approx(-4.0699729458290413, rel=1e-9, abs=0)

    def test_five_fold_maximum(self):
        records = find_extrema(5, 2)
        assert [rec.kind for rec in records] == ["maximum"]
        assert records[0].abscissa == pytest.approx(0.7761008829385023, abs=1e-7)
        assert records[0].value == pytest.approx(6.0038161993641572, rel=1e-9, abs=0)

    def test_six_fold_pair(self):
        records = find_extrema(6, 2)
        assert [rec.kind for rec in records] == ["maximum", "minimum"]
        assert records[0].abscissa == pytest.approx(0.57817352423281098, abs=1e-7)
        assert records[0].value == pytest.approx(5.2835013927058331, rel=1e-9, abs=0)
        assert records[1].abscissa == pytest.approx(0.8188700764017874, abs=1e-7)
        assert records[1].value == pytest.approx(-10.90007445800677, rel=1e-9, abs=0)

    def test_eight_fold_triple(self):
        records = find_extrema(8, 2)
        assert [rec.kind for rec in records] == ["minimum", "maximum", "minimum"]
        abscissas = [0.55136963315292778, 0.71942892453404956, 0.86768014072714977]
        values = [-12.19169304883889, 1.3344799262258101, -45.827650350148816]
        for record, a, v in zip(records, abscissas, values):
            assert record.abscissa == pytest.approx(a, abs=1e-7)
            assert record.value == pytest.approx(v, rel=1e-9, abs=0)

    def test_monotone_interval_has_none(self):
        assert find_extrema(2, 2) == ()

    def test_records_are_ordered(self):
        records = find_extrema(8, 2)
        assert all(
            a.abscissa < b.abscissa for a, b in zip(records, records[1:])
        )

    @pytest.mark.parametrize("bad", [1, 15, -5, 2.5, True, None])
    def test_interval_validation(self, bad):
        with pytest.raises(ParameterRangeError):
            find_extrema(6, bad)

    def test_against_mpmath_derivative(self):
        # Every extremum for r = 4..8 within 1e-13 of the root of the
        # derivative of the recursion at 20 digits (mpmath's zeta and
        # zeta').  Golden-section search on the function left 1.4e-9.
        mpmath = pytest.importorskip("mpmath")
        count = 0
        with mpmath.workdps(20):
            for r in range(4, 9):
                for k in range(2, r + 1):
                    for record in find_extrema(r, k):
                        x = mpmath.mpf(record.abscissa)
                        root = mpmath.findroot(
                            lambda t: _mp_derivative(mpmath, r, t),
                            (x - 1e-9, x + 1e-9),
                            solver="secant",
                        )
                        assert abs(float(root) - record.abscissa) <= 1e-13, (r, k)
                        count += 1
        assert count == 13

    def test_sixteen_fold_against_mpmath_derivative(self):
        # The derivative of the recursion at 30 digits changes sign across
        # every extremum of the r-fold function, r = 9..16, within 1e-13
        # each side.
        mpmath = pytest.importorskip("mpmath")
        count = 0
        with mpmath.workdps(30):
            for r in range(9, 17):
                for k in range(2, r + 1):
                    for record in find_extrema(r, k):
                        x = mpmath.mpf(record.abscissa)
                        left = _mp_derivative(mpmath, r, x - mpmath.mpf("1e-13"))
                        right = _mp_derivative(mpmath, r, x + mpmath.mpf("1e-13"))
                        minimum, maximum = left < 0 < right, left > 0 > right
                        assert minimum == (record.kind == "minimum"), (r, k, record)
                        assert maximum == (record.kind == "maximum"), (r, k, record)
                        count += 1
        assert count == 95

    def test_every_interval_settles_and_noise_raises(self, capsys, monkeypatch):
        records = {
            (r, k): find_extrema(r, k)
            for r in range(2, SCAN_R_MAX + 1)
            for k in range(2, r + 1)
        }
        assert sum(map(len, records.values())) == 108
        for found in records.values():
            assert all(a.kind != b.kind for a, b in zip(found, found[1:]))
        # Values with no plateau to chop at: no count can be trusted, and
        # a run names the first interval it tried, k = 4.
        rng = np.random.default_rng(7)
        _inject_folds(monkeypatch, lambda s: rng.standard_normal(s.size))
        with pytest.raises(NonConvergenceError, match=r"4-fold .* \(1/2, 1/1\)"):
            find_extrema(4, 2)
        assert main(["extrema", "--r", "4"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4-fold function in (1/4, 1/3) did not settle" in captured.err
        # Noise resolves on no proxy, so the scan stops at the largest.
        n = zero_finder._PROXY_NODES
        assert f"roots at {n - 1} and {2 * n - 1} points" in captured.err
        # A triple zero of F is a double root of F': both of the smallest
        # proxies resolve it, suspect a tangency there and name their points.
        _inject_folds(monkeypatch, lambda s: (s - 0.7) ** 3 / ((2 * s - 1) * (1 - s) ** 2))
        with pytest.raises(NonConvergenceError, match=r"\(1/2, 1/1\) .* at 31 and 63 points"):
            find_extrema(2, 2)

    def test_one_run_equals_single_interval_calls(self):
        # One run over the 120 intervals with r <= 16, from two fold
        # tables, gives the records of each interval found alone, bit for
        # bit.
        run = zero_finder._extrema(zero_finder._census_pairs(SCAN_R_MAX))
        assert len(run) == 120
        assert sum(map(len, run.values())) == 108
        assert run == {(r, k): find_extrema(r, k) for r, k in run}


def _mp_derivative(mpmath, r, x):
    """d/ds of the r-fold function at x, through the Newton recursion and
    mpmath's zeta and zeta', at the working precision."""
    zs = [mpmath.zeta(i * x) for i in range(1, r + 1)]
    dzs = [i * mpmath.zeta(i * x, derivative=1) for i in range(1, r + 1)]
    e, de = [mpmath.mpf(1)], [mpmath.mpf(0)]
    for j in range(1, r + 1):
        acc = dacc = 0
        for i in range(1, j + 1):
            sign = (-1) ** (i - 1)
            acc += sign * e[j - i] * zs[i - 1]
            dacc += sign * (de[j - i] * zs[i - 1] + e[j - i] * dzs[i - 1])
        e.append(acc / j)
        de.append(dacc / j)
    return de[r]


class TestSignProfile:
    """`checks.constant_sign`: the sign (-1)^r on [0, 1/r - 1e-6]."""

    @pytest.mark.parametrize("r", [1, 2, 3, 7, 12])
    def test_constant_sign_on_leftmost_segment(self, r, monkeypatch):
        # The check samples fold r at 200 points of the sign (-1)^r, and
        # fails if that fold's sign is flipped.
        grid, seen, flip = checks.multizeta_grid, {}, []

        def recorded(q, s):
            seen[q] = grid(q, s)
            return -seen[q] if q in flip else seen[q]

        monkeypatch.setattr(checks, "multizeta_grid", recorded)
        check = checks.constant_sign()
        assert check.passed
        assert seen[r].size == 200
        assert np.all((1 if r % 2 == 0 else -1) * seen[r] > 0.0)
        assert float(check.detail.split()[-1]) > 0.0
        flip.append(r)
        assert not checks.constant_sign().passed


class TestRecordInvariants:
    def test_zero_record_rejects_bad_geometry(self):
        with pytest.raises(ParameterRangeError):
            ZeroRecord(
                r=2, k=2, bracket_lo=0.7, bracket_hi=0.6268,
                abscissa=0.65, residual=0.0,
            )
        with pytest.raises(ParameterRangeError):
            ZeroRecord(
                r=2, k=2, bracket_lo=0.6, bracket_hi=0.7,
                abscissa=0.65, residual=0.0,
            )
        with pytest.raises(ParameterRangeError):
            ZeroRecord(
                r=2, k=3, bracket_lo=0.6268, bracket_hi=0.6268 + 1e-13,
                abscissa=0.6268 + 5e-14, residual=0.0,
            )
        with pytest.raises(ParameterRangeError):
            ZeroRecord(
                r=2, k=2,
                bracket_lo=0.6268, bracket_hi=0.6268 + 1e-13,
                abscissa=0.6268 + 5e-14, residual=-1.0,
            )

    def test_extremum_record_rejects_bad_kind_or_position(self):
        with pytest.raises(ParameterRangeError):
            ExtremumRecord(r=4, k=2, abscissa=0.69, value=-4.07, kind="saddle")
        with pytest.raises(ParameterRangeError):
            ExtremumRecord(r=4, k=2, abscissa=0.45, value=-4.07, kind="minimum")

    def test_valid_records_construct(self):
        zero = ZeroRecord(
            r=2, k=2,
            bracket_lo=0.6268175537730931, bracket_hi=0.6268175537730934,
            abscissa=0.6268175537730932, residual=1e-15,
        )
        assert zero.k == 2
        ext = ExtremumRecord(
            r=4, k=2, abscissa=0.6937, value=-4.0699, kind="minimum"
        )
        assert ext.kind == "minimum"
