"""Command-line surface: output formats, exit codes, determinism, and the
JSON report shapes."""
import json
from pathlib import Path

import numpy as np
import pytest

from mzr import checks, riemann_zeta, zero_finder
from mzr.cli import build_plot_series, main

FIVE_FOLD_ZEROS = [
    0.21831511754197283,
    0.27833383866826754,
    0.42350639643286467,
    0.6438605458318124,
    0.821698848360263,
]

VERIFY_CHECKS = [
    "alternating-series agreement on [1.5, 40]",
    "classical closed-form values",
    "negative on [0, 1)",
    "strictly decreasing beyond 1",
    "direct-term doubling self-consistency",
    "recursion matches closed forms (r = 2..4)",
    "truncated sums increase toward the limit under the tail bound",
    "constant sign (-1)^r on [0, 1/r)",
    "closed-form vs recursive constants (r <= 12)",
    "constant signs follow (-1)^(r + order)",
    "closed-form vs proxy-end constants (r <= 16)",
    "constant ratios repeat mod k",
    "pole-side signs match order parity",
    "zero counts stable across proxy doublings (r <= 8)",
    "no suspected tangencies (r <= 8)",
    "refined brackets within 1e-12",
    "residuals small against the local scale",
    "empirical totals equal the arithmetic prediction (r <= 8)",
    "divisor-sum identity exact (r <= 2000)",
    "increment parity tracks perfect squares (r <= 2000)",
    "increment formula matches direct difference (r <= 500)",
    "asymptotic residual within 3 sqrt(r) on [100, 2000]",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = run(capsys, "eval", "--r", "2", "--s", "2")
        assert code == 0
        assert out.endswith("\n")
        text = out[:-1]
        # Canonical %.17g: the printed digits round-trip to the same string.
        assert "%.17g" % float(text) == text
        # pi^4/120 as a correctly rounded double.
        assert float(text) == pytest.approx(0.81174242528335361, rel=1e-13, abs=0)

    def test_near_the_four_fold_minimum(self, capsys):
        code, out, _ = run(capsys, "eval", "--r", "4", "--s", "0.693658")
        assert code == 0
        assert float(out) == pytest.approx(-4.0699572, abs=1e-4)

    def test_pole_exit_code_and_message(self, capsys):
        code, _, err = run(capsys, "eval", "--r", "3", "--s", "0.5")
        assert code == 2
        assert "pole at 1/2 of order 1" in err

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--r", "2")
        assert code == 1
        code, _, _ = run(capsys, "eval", "--r", "two", "--s", "2")
        assert code == 1

    def test_deep_value_above_one(self, capsys):
        # The Newton recursion printed 1.3877787807814457e-17 here.
        code, out, _ = run(capsys, "eval", "--r", "16", "--s", "2")
        assert code == 0
        assert float(out) == pytest.approx(9.3349122371730e-22, rel=1e-13, abs=0)
        # zeta(s) at a huge s is 1, not NaN.
        code, out, _ = run(capsys, "eval", "--r", "1", "--s", "1e14")
        assert (code, out) == (0, "1\n")

    def test_below_the_double_range_exits_four(self, capsys):
        code, out, err = run(capsys, "eval", "--r", "32", "--s", "10")
        assert code == 4
        assert out == ""
        assert "below the double range" in err

    def test_fold_count_out_of_range(self, capsys):
        code, _, err = run(capsys, "eval", "--r", "40", "--s", "2")
        assert code == 2
        assert "fold count" in err

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0


class TestPlot:
    def test_csv_format(self, tmp_path, capsys):
        out_path = tmp_path / "series.csv"
        code, _, _ = run(
            capsys, "plot", "--r", "2", "--from", "0.55", "--to", "0.95",
            "--points", "32", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_bytes().decode("ascii").split("\n")
        assert lines[0] == "# mzr 0.1.0"
        assert lines[1] == "s,value"
        assert lines[-1] == ""  # trailing LF
        first = lines[2].split(",")
        assert float(first[0]) == pytest.approx(0.55, rel=1e-6, abs=0)
        assert "\r" not in out_path.read_text()
        # No sample of r = 4 on [0.05, 3] falls in a guard gap: 512 rows.
        code, _, _ = run(
            capsys, "plot", "--r", "4", "--from", "0.05", "--to", "3",
            "--points", "512", "--out", str(out_path),
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 2 + 512

    def test_no_header_flag(self, tmp_path, capsys):
        out_path = tmp_path / "bare.csv"
        code, _, _ = run(
            capsys, "plot", "--r", "2", "--from", "0.55", "--to", "0.95",
            "--points", "8", "--out", str(out_path), "--no-header",
        )
        assert code == 0
        assert out_path.read_text().startswith("s,value\n")

    def test_identical_flags_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["plot", "--r", "3", "--from", "0.4", "--to", "0.45",
                "--points", "64"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_single_fold_matches_kernel(self, tmp_path, capsys):
        out_path = tmp_path / "zeta.csv"
        code, _, _ = run(
            capsys, "plot", "--r", "1", "--from", "0.2", "--to", "0.9",
            "--points", "16", "--out", str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().splitlines()[2:]
        assert len(rows) == 16
        for row in rows:
            s, v = (float(part) for part in row.split(","))
            assert v == pytest.approx(riemann_zeta(s), rel=1e-12, abs=0)

    def test_unwritable_path(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "plot", "--r", "2", "--from", "0.55", "--to", "0.95",
            "--points", "8", "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 3
        assert "cannot write" in err

    def test_empty_range_writes_nothing(self, tmp_path, capsys):
        out_path = tmp_path / "series.csv"
        code, out, err = run(
            capsys, "plot", "--r", "2", "--from", "0.9", "--to", "0.9",
            "--points", "8", "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert "need 0 < from < to" in err
        assert not out_path.exists()

    def test_guard_gaps_are_skipped(self):
        # Poles 1/2..1/6 fall inside the range; the pole at 1 does not.
        series = build_plot_series(6, 0.05, 0.999, 2048)
        assert len(series.excluded) == 5
        for s, _ in series.samples:
            for lo, hi in series.excluded:
                assert not lo <= s <= hi
        steps = [b[0] - a[0] for a, b in zip(series.samples, series.samples[1:])]
        assert min(steps) > 0.0

    def test_six_fold_series_has_eight_zero_crossings(self):
        # Crossings counted only between adjacent samples, never across an
        # excluded pole gap (the function may flip sign over a pole too).
        series = build_plot_series(6, 0.05, 0.999, 2048)
        crossings = 0
        for (s0, v0), (s1, v1) in zip(series.samples, series.samples[1:]):
            if any(s0 < lo and hi < s1 for lo, hi in series.excluded):
                continue
            if v0 * v1 < 0.0:
                crossings += 1
        assert crossings == 8


class TestZeros:
    def test_five_fold_report(self, capsys):
        code, out, _ = run(capsys, "zeros", "--r", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["r"] == 5
        records = payload["zeros"]
        assert [rec["k"] for rec in records] == [5, 4, 3, 2, 2]
        for rec, expected in zip(records, FIVE_FOLD_ZEROS):
            assert rec["abscissa"] == pytest.approx(expected, abs=1e-9)
            assert set(rec) == {
                "r", "k", "bracket_lo", "bracket_hi", "abscissa", "residual",
            }
        intervals = payload["intervals"]
        assert [item["k"] for item in intervals] == [5, 4, 3, 2]
        assert all(item["count_stable"] for item in intervals)
        assert all(item["tangency_suspects"] == [] for item in intervals)

    def test_single_interval_and_tolerance(self, capsys):
        code, out, _ = run(
            capsys, "zeros", "--r", "2", "--k", "2", "--tol", "1e-13"
        )
        assert code == 0
        payload = json.loads(out)
        (record,) = payload["zeros"]
        assert record["bracket_hi"] - record["bracket_lo"] <= 1e-13

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "zeros", "--r", "3")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_interval_validation(self, capsys):
        code, _, err = run(capsys, "zeros", "--r", "3", "--k", "4")
        assert code == 2
        assert "interval index must be an integer in [2, 3], got 4" in err
        code, _, _ = run(capsys, "zeros", "--r", "3", "--tol", "1e-15")
        assert code == 2

    def test_single_fold_has_no_interval(self, capsys):
        code, out, _ = run(capsys, "zeros", "--r", "1")
        assert code == 0
        assert json.loads(out) == {"r": 1, "zeros": [], "intervals": []}
        code, out, _ = run(capsys, "extrema", "--r", "1")
        assert code == 0
        assert json.loads(out) == {"r": 1, "extrema": []}


@pytest.mark.parametrize(
    "argv",
    [
        ("zeros", "--r", "-3"),
        ("zeros", "--r", "0"),
        ("extrema", "--r", "-2"),
        ("extrema", "--r", "0"),
        ("poles", "--r", "0"),
        ("poles", "--r", "-1"),
    ],
)
def test_fold_count_validation(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "fold count" in err


class TestExtrema:
    def test_four_fold_report(self, capsys):
        code, out, _ = run(capsys, "extrema", "--r", "4")
        assert code == 0
        payload = json.loads(out)
        (record,) = payload["extrema"]
        assert record["kind"] == "minimum"
        assert record["k"] == 2
        assert record["abscissa"] == pytest.approx(0.69370259761572962, abs=1e-6)
        assert record["value"] == pytest.approx(-4.0699729458290413, rel=1e-8, abs=0)


class TestPoles:
    def test_numeric_check_report(self, capsys):
        code, out, _ = run(capsys, "poles", "--r", "8", "--numeric-check")
        assert code == 0
        payload = json.loads(out)
        poles = payload["poles"]
        assert [item["k"] for item in poles] == list(range(8, 0, -1))
        for item in poles:
            assert item["order"] == 8 // item["k"]
            assert item["location"] == pytest.approx(1.0 / item["k"], rel=1e-6, abs=0)
            assert item["sign"] * item["constant"] > 0.0
            assert item["numeric_rel_error"] <= 1e-12

    def test_numeric_check_to_the_scan_cap(self, capsys):
        code, out, _ = run(capsys, "poles", "--r", "16", "--numeric-check")
        assert code == 0
        poles = json.loads(out)["poles"]
        assert [item["k"] for item in poles] == list(range(16, 0, -1))
        assert max(item["numeric_rel_error"] for item in poles) <= 1e-12

    def test_numeric_check_is_one_proxy_run(self, capsys, monkeypatch):
        # Every constant of r = 16 from one run: a fold table per round.
        calls = []
        fold_table = zero_finder._fold_table

        def counted(r, s):
            calls.append(r)
            return fold_table(r, s)

        monkeypatch.setattr(zero_finder, "_fold_table", counted)
        code, _, _ = run(capsys, "poles", "--r", "16", "--numeric-check")
        assert code == 0
        assert 1 <= len(calls) <= 3

    def test_numeric_check_above_the_scan_cap(self, capsys):
        code, out, err = run(capsys, "poles", "--r", "17", "--numeric-check")
        assert code == 2
        assert out == ""
        assert "16" in err

    def test_without_numeric_check(self, capsys):
        code, out, _ = run(capsys, "poles", "--r", "3")
        assert code == 0
        payload = json.loads(out)
        assert all("numeric" not in item for item in payload["poles"])


class TestCensus:
    def test_census_to_six(self, capsys):
        code, out, _ = run(capsys, "census", "--r-max", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["unstable_intervals"] == []
        totals = [report["empirical_total"] for report in payload["reports"]]
        assert totals == [1, 2, 4, 5, 8]
        for report in payload["reports"]:
            assert report["empirical_total"] == report["predicted_total"]
            assert all(item["agree"] for item in report["per_interval"])

    def test_census_to_sixteen_is_pinned(self, capsys):
        # Every count, total and estimate of the census to 16, byte for
        # byte as committed in tests/data.
        code, out, _ = run(capsys, "census", "--r-max", "16")
        assert code == 0
        assert out.encode() == (Path(__file__).parent / "data" / "census_r16.json").read_bytes()

    def test_r_max_validation(self, capsys):
        code, _, err = run(capsys, "census", "--r-max", "1")
        assert code == 2
        assert "census fold cap must be an integer in [2, 16], got 1" in err

    def test_unstable_interval_exits_five(self, capsys, monkeypatch):
        # Noise in every fold leaves no proxy resolved.
        rng = np.random.default_rng(7)
        monkeypatch.setattr(
            zero_finder, "_fold_table",
            lambda r, s: [rng.standard_normal(np.size(s))] * (r + 1),
        )
        code, out, _ = run(capsys, "census", "--r-max", "2")
        assert code == 5
        assert json.loads(out)["unstable_intervals"] == [{"r": 2, "k": 2}]


class TestVerify:
    def test_kernel_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "kernel")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["suites"] == ["kernel"]
        assert all(item["passed"] for item in payload["checks"])

    def test_all_suites_pass_in_registry_order(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["suites"] == list(checks.SUITES)
        assert [item["name"] for item in payload["checks"]] == VERIFY_CHECKS
        for item in payload["checks"]:
            assert list(item) == ["name", "passed", "detail", "suite"]

    def test_suite_choices_follow_the_registry(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0
        assert "{" + ",".join(["all", *checks.SUITES]) + "}" in out

    def test_unknown_suite_is_a_parse_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nonsense")
        assert code == 1
