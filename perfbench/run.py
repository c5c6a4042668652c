"""mzr benchmark: one workload, timed passes, every output checked.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads:

  census   `mzr census --r-max 12` in process, MZR_THREADS=1: 66 intervals
           over r = 2..12, grid-scan bound; the single-threaded baseline.
  zeros16  `mzr zeros --r 16`, MZR_THREADS=2: the highest fold count the
           scanner accepts, where each scalar refinement call costs most;
           the only workload that runs the thread pool.
  library  direct calls, inputs drawn from --seed: 2,000 scalar multizeta
           evaluations (r cycling through 1..32, s from the oracle's pool
           on [0, 4]), find_extrema for r = 4..8, the pole constants, and
           the census arithmetic.  The scalar path, which scans barely touch.

The seed changes the library inputs, and on census and zeros16 only the
points of the scalar latency probe (eval_p99_us): public multizeta calls
at the workload's fold counts next to its zeros, timed after each pass.
Each pass's outputs are checked against perfbench/oracle.json; a census's
abscissas are checked once a run, from `mzr zeros --r r` for each r.
setup_s is the median of fresh processes started between the passes.  With
--trace 0 the last stdout line holds the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer metrics from a run that
alternates untraced and traced passes.  Two lines before it, "# env" and
"# check", describe the machine and the check results.  The result's
`failed` counts regressions only; the seed's known wrong values (recorded
in the oracle) show in ok_frac and in the "# check" line's fail_frac.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

# Fresh processes timed for setup_s in a full run; their median is reported.
SETUP_SAMPLES = 25
# Scalar multizeta calls timed after each census or zeros16 pass, as many
# as a library pass makes: its p99 has 20 samples beyond it.
PROBE_CALLS = 2000
# Every run must end within this many seconds.
RUN_LIMIT_S = 170.0

WORKLOADS = {
    "census": {"threads": "1",
               "full": {"argv": ["census", "--r-max", "12"], "probe": PROBE_CALLS},
               "tiny": {"argv": ["census", "--r-max", "4"], "probe": 32}},
    "zeros16": {"threads": "2",
                "full": {"argv": ["zeros", "--r", "16"], "probe": PROBE_CALLS},
                "tiny": {"argv": ["zeros", "--r", "5"], "probe": 32}},
    "library": {"threads": "1",
                "full": {"points": 2000, "extrema_r": 8, "numeric_r": 8, "recursive_r": 12,
                         "iaz_n": 10**4, "divisor_n": 10**4},
                "tiny": {"points": 64, "extrema_r": 4, "numeric_r": 2, "recursive_r": 3,
                         "iaz_n": 100, "divisor_n": 100}},
}
TINY_SETUP_SAMPLES = 3
POOL_R = 32


def library_params(size: dict, seed: int, pool_s: list[float]) -> dict:
    rng = random.Random(seed)
    rs = [1 + i % POOL_R for i in range(size["points"])]
    rng.shuffle(rs)
    index = [(r, rng.randrange(len(pool_s))) for r in rs]
    return {
        "index": index,
        "points": [(r, pool_s[j]) for r, j in index],
        "extrema": [(r, k) for r in range(4, size["extrema_r"] + 1) for k in range(2, r + 1)],
        "numeric": [(r, k) for r in range(1, size["numeric_r"] + 1) for k in range(1, r + 1)],
        "recursive": [(r, k) for r in range(1, size["recursive_r"] + 1) for k in range(1, r + 1)],
        "iaz_n": size["iaz_n"],
        "divisor_n": size["divisor_n"],
    }


def cli_params(size: dict, seed: int, roots: dict) -> dict:
    """The command line, and the probe's (r, s) points: the workload's zeros
    in turn, each moved by a seeded offset of at most 1e-7."""
    argv = size["argv"]
    rs = range(2, int(argv[-1]) + 1) if argv[0] == "census" else [int(argv[-1])]
    zeros = [(r, x) for r in rs for k in range(2, r + 1) for x in roots[f"{r},{k}"]]
    rng = random.Random(seed)
    probe = [(r, x + rng.uniform(-1e-7, 1e-7)) for r, x in (zeros * size["probe"])[: size["probe"]]]
    return {"argv": argv, "probe": probe}


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=root, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _worker(root: Path, env: dict, job: dict, deadline: float) -> dict:
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise TimeoutError("no time left for the next benchmark process")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric_specs(root: Path, trace: bool) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a few percent of its size (self-test)")
    args = parser.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "mzr" / "__init__.py").is_file():
        print("error: run from the repository root; src/mzr not found", file=sys.stderr)
        return 2
    specs = _metric_specs(root, bool(args.trace))
    oracle = checks.load_oracle()
    workload = WORKLOADS[args.workload]
    size = workload[args.size]
    if args.workload == "library":
        params = library_params(size, args.seed, oracle["library_pool"]["s"])
    else:
        params = cli_params(size, args.seed, oracle["roots"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["MZR_THREADS"] = workload["threads"]
    # mzr makes no BLAS calls; numpy's BLAS thread pool only adds a spin-up
    # race to every import, which made setup_s bimodal on 2 CPUs.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"

    job = {"mode": "run", "workload": args.workload, "params": params,
           "seconds": args.seconds, "trace": bool(args.trace),
           "setup_samples": SETUP_SAMPLES if args.size == "full" else TINY_SETUP_SAMPLES}
    res = _worker(root, env, job, deadline)

    tally = checks.Tally()
    for out, count in res["outputs"]:
        one = checks.Tally()
        if args.workload == "library":
            checks.check_library(one, out, params, oracle)
        else:
            check = checks.check_census if args.workload == "census" else checks.check_zeros
            check(one, out, int(params["argv"][-1]), oracle)
        tally.merge(one, count)
    for r, out in res["checked_once"].get("zeros", {}).items():
        checks.check_zeros(tally, out, int(r), oracle)
    passes = sum(count for _, count in res["outputs"])

    if args.trace:
        layers = res["layers"]
        untraced = statistics.median(res["walls"])
        # Scalar values the library pass checked, per pass.
        layers["multizeta.multizeta.wrong"] = tally.wrong_by_kind.get("value", 0) // passes
        layers["multizeta.multizeta.raised"] = tally.raised_by_kind.get("value", 0) // passes
        layers["multizeta.multizeta.p50_us"] = statistics.median(q[0] for q in res["quantiles"])
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.overhead_s"] = statistics.median(res["traced_walls"]) - untraced
        values = layers
    else:
        values = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(res["setups"]),
            "eval_p99_us": statistics.median(q[1] for q in res["quantiles"]),
            "ok_frac": 1.0 - tally.failed / tally.attempted,
            "peak_rss_mb": res["peak_rss_mb"],
        }
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    env_line = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "mzr": res["mzr"],
        "MZR_THREADS": env["MZR_THREADS"],
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(root),
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "pass_wall_s": res["walls"],
        "setup_s": res["setups"],
        "eval_calls_per_pass": res["eval_samples"],
    }
    check_line = {
        "attempted": tally.attempted,
        "wrong": tally.wrong,
        "raised": tally.raised,
        "fail_frac": tally.failed / tally.attempted,
        "known_failures": tally.known,
        "unexpected_failures": tally.unexpected,
        "wrong_by_kind": tally.wrong_by_kind,
        "raised_by_kind": tally.raised_by_kind,
        "regressions": tally.regressions,
    }
    print("# env " + json.dumps(env_line))
    print("# check " + json.dumps(check_line))
    result = {
        "correct": not tally.regressions,
        "attempted": tally.attempted,
        "failed": tally.unexpected,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
