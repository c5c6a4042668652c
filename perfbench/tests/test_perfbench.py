"""Self-test of the benchmark: every workload at a tiny size, the printed
metrics against BENCHMARK.json, and oracle checks that must fail.

    python3 -m pytest -q perfbench/tests      # from the repository root
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics the benchmark promises, by name, whatever BENCHMARK.json says.
END_TO_END = {"setup_s", "wall_s", "eval_p99_us", "ok_frac", "peak_rss_mb"}
PER_LAYER = {
    *(f"riemann_kernel.riemann_zeta_grid.{m}" for m in ("calls", "points", "term_points", "self_s")),
    *(f"riemann_kernel.riemann_zeta.{m}" for m in ("calls", "self_s")),
    *(f"multizeta.multizeta_grid.{m}" for m in ("calls", "points", "fold_points", "self_s")),
    *(f"multizeta.multizeta.{m}" for m in ("calls", "self_s", "wrong", "raised", "p50_us")),
    *(f"zero_finder.scan_interval.{m}" for m in ("calls", "self_s", "grid_points", "final_grid_share")),
    *(f"zero_finder.refine_root.{m}" for m in ("calls", "self_s", "evals_per_root")),
    *(f"zero_finder.find_extrema.{m}" for m in ("calls", "self_s", "evals_per_extremum")),
    "asymptotics.coefficient_numeric.self_s",
    "asymptotics.coefficient_recursive.self_s",
    "census.iaz_predicted_range.self_s",
    "census.census_report.self_s",
    "cli.main.self_s",
    "cli.pool.efficiency",
    "trace.overhead_s",
}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs
    }
    assert (PER_LAYER if trace else END_TO_END) <= set(result["metrics"])
    check = json.loads(lines[-2].removeprefix("# check "))
    assert check["fail_frac"] == (check["wrong"] + check["raised"]) / result["attempted"]
    assert result["failed"] == check["unexpected_failures"] == 0
    env = json.loads(lines[-3].removeprefix("# env "))
    assert {"cpu_count", "python", "numpy", "MZR_THREADS", "commit", "seed"} <= set(env)
    if trace:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        # Every span's self time lands in a printed layer: per thread they
        # add up to the root spans, the pass on the main thread.
        assert m["trace.self_sum_s"] == pytest.approx(
            m["trace.wall_s"] + m["trace.pool_busy_s"], rel=1e-6
        )
        layers = sum(v for name, v in m.items() if name.endswith(".self_s"))
        assert layers == pytest.approx(m["trace.self_sum_s"], rel=1e-6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("library", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def oracle():
    return checks.load_oracle()


def _zeros_stdout(oracle, r: int) -> dict:
    zeros = [
        {"r": r, "k": k, "abscissa": x}
        for k in range(r, 1, -1)
        for x in oracle["roots"][f"{r},{k}"]
    ]
    intervals = [{"k": k, "count_stable": True} for k in range(r, 1, -1)]
    return {"code": 0, "stdout": json.dumps({"r": r, "zeros": zeros, "intervals": intervals})}


def _census_output(oracle, r_max: int) -> dict:
    f = checks.predicted_counts(r_max)
    reports = [
        {
            "r": r,
            "per_interval": [{"k": k, "empirical": r // k, "conjectured": r // k} for k in range(r, 1, -1)],
            "predicted_total": f[r],
            "divisor_total": f[r],
        }
        for r in range(2, r_max + 1)
    ]
    doc = {"r_max": r_max, "reports": reports, "unstable_intervals": []}
    return {"code": 0, "stdout": json.dumps(doc)}


def _library_output(oracle, params) -> dict:
    pool = oracle["library_pool"]
    return {
        "values": [pool["folds"][j][r - 1] for r, j in params["index"]],
        "extrema": [oracle["extrema"][f"{r},{k}"] for r, k in params["extrema"]],
        "numeric": [oracle["coefficients"][f"{r},{k}"] for r, k in params["numeric"]],
        "recursive": [oracle["coefficients"][f"{r},{k}"] for r, k in params["recursive"]],
        "iaz": checks.predicted_counts(params["iaz_n"]),
        "divisor_identity": True,
    }


def _tally(check, out, *args):
    tally = checks.Tally()
    check(tally, out, *args)
    return tally


def test_oracle_passes_its_own_values_and_fails_perturbed_ones(oracle):
    zeros = _zeros_stdout(oracle, 16)
    assert _tally(checks.check_zeros, zeros, 16, oracle).failed == 0
    doc = json.loads(zeros["stdout"])
    doc["zeros"][3]["abscissa"] += 2e-12
    bad = dict(zeros, stdout=json.dumps(doc))
    assert _tally(checks.check_zeros, bad, 16, oracle).regressions
    assert _tally(checks.check_zeros, dict(zeros, code=5), 16, oracle).regressions

    zeros = _zeros_stdout(oracle, 9)
    assert _tally(checks.check_zeros, zeros, 9, oracle).failed == 0
    doc = json.loads(zeros["stdout"])
    del doc["zeros"][-1]
    assert _tally(checks.check_zeros, dict(zeros, stdout=json.dumps(doc)), 9, oracle).regressions

    census = _census_output(oracle, 12)
    assert _tally(checks.check_census, census, 12, oracle).failed == 0
    doc = json.loads(census["stdout"])
    doc["reports"][5]["per_interval"][0]["empirical"] += 1
    assert _tally(checks.check_census, dict(census, stdout=json.dumps(doc)), 12, oracle).regressions

    params = run.library_params(run.WORKLOADS["library"]["full"], 7, oracle["library_pool"]["s"])
    good = _library_output(oracle, params)
    assert _tally(checks.check_library, good, params, oracle).failed == 0
    pool = oracle["library_pool"]
    i = next(i for i, (r, j) in enumerate(params["index"]) if pool["seed_status"][j][r - 1] == ".")
    for perturb in (
        lambda out: out["values"].__setitem__(i, out["values"][i] * (1 + 1e-8)),
        lambda out: out["values"].__setitem__(i, "NonConvergenceError"),
        lambda out: out["extrema"][0][0].__setitem__(1, out["extrema"][0][0][1] + 2e-4),
        lambda out: out["recursive"].__setitem__(-1, out["recursive"][-1] * (1 + 1e-11)),
        lambda out: out["iaz"].__setitem__(-1, out["iaz"][-1] + 1),
    ):
        bad = copy.deepcopy(good)
        perturb(bad)
        tally = _tally(checks.check_library, bad, params, oracle)
        assert tally.regressions and tally.unexpected == 1


def test_wrong_and_raised_values_are_told_apart(oracle):
    params = run.library_params(run.WORKLOADS["library"]["full"], 7, oracle["library_pool"]["s"])
    out = _library_output(oracle, params)
    out["values"][0] = "NonConvergenceError"
    out["values"][1] *= 2.0
    tally = _tally(checks.check_library, out, params, oracle)
    assert tally.raised_by_kind == {"value": 1}
    assert tally.wrong_by_kind == {"value": 1}


def test_probe_points_follow_the_seed_and_stay_next_to_zeros(oracle):
    size = run.WORKLOADS["zeros16"]["full"]
    a = run.cli_params(size, 1, oracle["roots"])
    assert a == run.cli_params(size, 1, oracle["roots"])
    assert a["probe"] != run.cli_params(size, 2, oracle["roots"])["probe"]
    assert len(a["probe"]) == size["probe"]
    zeros = [x for k in range(2, 17) for x in oracle["roots"][f"16,{k}"]]
    for r, s in a["probe"]:
        assert r == 16
        assert min(abs(s - x) for x in zeros) <= 1e-7


def test_known_failures_are_counted_but_not_regressions(oracle):
    params = run.library_params(run.WORKLOADS["library"]["full"], 7, oracle["library_pool"]["s"])
    out = _library_output(oracle, params)
    pool = oracle["library_pool"]
    known = [i for i, (r, j) in enumerate(params["index"]) if pool["seed_status"][j][r - 1] != "."]
    assert known
    for i in known:
        out["values"][i] = 0.0
    tally = _tally(checks.check_library, out, params, oracle)
    assert tally.failed == tally.known == len(known)
    assert tally.unexpected == 0
    assert not tally.regressions
