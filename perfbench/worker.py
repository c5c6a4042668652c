"""One benchmark process: set up mzr, run timed passes of one workload, and
print what it measured as a JSON line.  run.py starts it, sends the job as
JSON on stdin, and checks the outputs it returns.

Jobs:
  {"mode": "setup"}
      import mzr and make the first multizeta call; report the seconds.
  {"mode": "run", "workload": ..., "params": ..., "seconds": ..., "trace": ...,
   "setup_samples": ...}
      run passes until `seconds` have elapsed (at least MIN_PASSES of each
      kind).  With tracing, untraced and traced passes alternate, and the
      traced ones also yield layer metrics.  Without tracing, `setup_samples`
      setup processes are started between the passes, spread over the run.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from time import perf_counter, perf_counter_ns

MIN_PASSES = 3


def _percentiles(samples_ns: list[int]) -> tuple[float, float]:
    """p50 and p99 in microseconds of at least two samples."""
    q = statistics.quantiles(samples_ns, n=100, method="inclusive")
    return q[49] / 1e3, q[98] / 1e3


def _call(fn, *args):
    """fn(*args), or the name of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - recorded and checked
        return type(exc).__name__


def _timed_calls(fn, args_list, latencies: list[int]) -> list:
    """fn(*args) for each args, each call's nanoseconds appended to `latencies`."""
    latencies.clear()
    values = []
    for args in args_list:
        t = perf_counter_ns()
        try:
            v = fn(*args)
        except Exception as exc:  # noqa: BLE001 - recorded and checked
            v = type(exc).__name__
        latencies.append(perf_counter_ns() - t)
        values.append(v)
    return values


def _cli(mzr, argv) -> dict:
    """`mzr.cli.main(argv)` with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mzr.cli.main(argv)
    return {"code": code, "stdout": buf.getvalue()}


class CliPass:
    """One `mzr.cli.main` call.  Scalar latencies come from a probe run after
    each untraced pass, outside its timing: the public `multizeta` at the
    workload's fold counts, next to its zeros, where the refinement
    evaluates."""

    def __init__(self, mzr, params):
        self.mzr, self.argv, self.probe_points = mzr, params["argv"], params["probe"]
        self.latencies: list[int] = []

    def __call__(self):
        return _cli(self.mzr, self.argv)

    def probe(self) -> None:
        _timed_calls(self.mzr.multizeta, self.probe_points, self.latencies)

    def output(self, raw) -> dict:
        return raw

    def checks(self) -> dict:
        """Untimed outputs checked once per run: `mzr zeros --r r` for every
        fold count of a census, whose abscissas the census does not print."""
        if self.argv[0] != "census":
            return {}
        r_max = int(self.argv[-1])
        return {"zeros": {str(r): _cli(self.mzr, ["zeros", "--r", str(r)]) for r in range(2, r_max + 1)}}


class LibraryPass:
    """Direct library calls: scalar evaluations (each timed), extrema, pole
    constants and the census arithmetic."""

    def __init__(self, mzr, params):
        self.mzr, self.p = mzr, params
        self.latencies: list[int] = []

    def __call__(self):
        mzr, p = self.mzr, self.p
        values = _timed_calls(mzr.multizeta, p["points"], self.latencies)
        extrema = [_call(mzr.find_extrema, r, k) for r, k in p["extrema"]]
        return {
            "values": values,
            "extrema": extrema,
            "numeric": [_call(mzr.coefficient_numeric, r, k) for r, k in p["numeric"]],
            "recursive": [_call(mzr.coefficient_recursive, r, k) for r, k in p["recursive"]],
            "iaz": _call(mzr.iaz_predicted_range, p["iaz_n"]),
            "divisor_identity": _call(mzr.divisor_identity_check, p["divisor_n"]),
        }

    def probe(self) -> None:
        """The pass itself times its scalar calls."""

    def output(self, raw) -> dict:
        raw["extrema"] = [
            e if isinstance(e, str) else [[x.kind, x.abscissa, x.value] for x in e]
            for e in raw["extrema"]
        ]
        if not isinstance(raw["iaz"], str):
            raw["iaz"] = [int(x) for x in raw["iaz"]]
        if not isinstance(raw["divisor_identity"], str):
            raw["divisor_identity"] = bool(raw["divisor_identity"])
        return raw

    def checks(self) -> dict:
        return {}


def _setup_sample() -> float:
    """setup_s of a fresh process (this script in setup mode)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        input=json.dumps({"mode": "setup"}),
        capture_output=True,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"setup process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _setup():
    t0 = perf_counter()
    import mzr

    mzr.multizeta(2, 2.0)
    return mzr, perf_counter() - t0


def run(job: dict) -> dict:
    mzr, setup_s = _setup()
    if job["mode"] == "setup":
        return {"setup_s": setup_s}
    import mzr.cli  # noqa: F401

    from spans import LayerTotals, Tracer

    traced = job["trace"]
    kind = CliPass if job["workload"] in ("census", "zeros16") else LibraryPass
    work = kind(mzr, job["params"])
    tracer = Tracer() if traced else None
    totals = LayerTotals(threading.get_ident())
    # Root span of a traced pass; its self time is the benchmark's own glue.
    traced_pass = tracer.wrap("bench.pass", work) if traced else None
    walls, traced_walls, quantiles, setups = [], [], [], []
    setup_samples = 0 if traced else job["setup_samples"]
    # Passes are deterministic: keep each distinct output once, with its count,
    # so the process's memory does not grow with the number of passes.
    outputs: dict[str, int] = {}
    start = perf_counter()
    while True:
        use_trace = traced and len(walls) > len(traced_walls)
        if use_trace:
            tracer.install()
        t = perf_counter()
        raw = traced_pass() if use_trace else work()
        wall = perf_counter() - t
        if use_trace:
            tracer.uninstall()
            traced_walls.append(wall)
            totals.add(tracer.spans)
            tracer.spans.clear()
        else:
            walls.append(wall)
            work.probe()
            quantiles.append(_percentiles(work.latencies))
        key = json.dumps(work.output(raw))
        outputs[key] = outputs.get(key, 0) + 1
        elapsed = perf_counter() - start
        # Setup samples keep pace with the passes, so both see the same host.
        due = setup_samples if elapsed >= job["seconds"] else math.ceil(
            setup_samples * elapsed / job["seconds"])
        while len(setups) < min(due, setup_samples):
            setups.append(_setup_sample())
        enough = len(walls) >= MIN_PASSES and (not traced or len(traced_walls) >= MIN_PASSES)
        if enough and perf_counter() - start >= job["seconds"]:
            break
    while len(setups) < setup_samples:
        setups.append(_setup_sample())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked_once = work.checks()
    result = {
        "walls": walls,
        # Per untraced pass: p50 and p99 of its scalar calls.  The median
        # over passes is reported, so one disturbed pass cannot set it.
        "quantiles": quantiles,
        "eval_samples": len(work.latencies),
        "setups": setups,
        "checked_once": checked_once,
        "outputs": [[json.loads(key), count] for key, count in outputs.items()],
        "peak_rss_mb": peak_rss_mb,
        "numpy": sys.modules["numpy"].__version__,
        "mzr": mzr.__version__,
    }
    if traced:
        threads = int(os.environ.get("MZR_THREADS") or 1)
        result["traced_walls"] = traced_walls
        result["layers"] = totals.metrics(len(traced_walls), threads)
    return result


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.stdout.write(json.dumps(run(job)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
