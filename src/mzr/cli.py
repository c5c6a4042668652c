"""Command-line surface: evaluation, plot data, zeros, extrema, poles,
census, and a self-verification suite, all with machine-readable output.

Exit codes are fixed for scriptability:
  0 success, 1 argument parse error, 2 domain or pole error,
  3 unwritable output path, 4 non-convergence, 5 unstable zero count.

Census disagreements (empirical count != conjectured count) are soft:
they are reported in the JSON but do not change the exit code.  Output is
reproducible byte for byte for identical flags; MZR_THREADS caps the
number of worker threads used by interval scans.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .asymptotics import (
    coefficient_closed_form,
    coefficient_numeric,
    coefficient_recursive,
    periodicity_check,
    pole_side_signs,
    pole_spec,
)
from .census import (
    census_report,
    delta_F,
    delta_F_direct,
    divisor_count,
    iaz_asymptotic,
    iaz_predicted,
    iaz_predicted_range,
)
from .errors import (
    BracketError,
    DomainError,
    EmptySumError,
    IncompleteInputError,
    NonConvergenceError,
    ParameterRangeError,
    PoleProximityError,
    _check_int,
)
from .multizeta import (
    R_MAX,
    closed_form,
    multizeta,
    multizeta_grid,
    truncated_euler_zagier,
)
from .riemann_kernel import (
    EulerMaclaurinConfig,
    default_config,
    riemann_zeta,
    riemann_zeta_alternating,
    riemann_zeta_grid,
)
from .zero_finder import (
    BASE_GRID,
    SCAN_R_MAX,
    _refine_scans,
    _scan_grid,
    delta_exclusion,
    find_extrema,
    refine_roots,
    sign_profile,
)

__all__ = ["PlotSeries", "build_plot_series", "main"]

_DOMAIN_ERRORS = (
    PoleProximityError,
    DomainError,
    ParameterRangeError,
    EmptySumError,
    BracketError,
    IncompleteInputError,
)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class PlotSeries:
    """Sampled values of one r-fold function with pole-guard gaps removed."""

    r: int
    samples: tuple[tuple[float, float], ...]
    excluded: tuple[tuple[float, float], ...]


def build_plot_series(r: int, s_from: float, s_to: float, points: int) -> PlotSeries:
    """Sample the r-fold function uniformly on [s_from, s_to], skipping a
    guard gap of half-width delta_exclusion(k) around every pole 1/k."""
    _check_int(r, "fold count", 1, R_MAX)
    _check_int(points, "need at least 2 sample points: points", 2)
    s_from, s_to = float(s_from), float(s_to)
    if not 0.0 < s_from < s_to:
        raise DomainError(
            f"need 0 < from < to, got from = {s_from!r}, to = {s_to!r}"
        )
    gaps = []
    for k in range(1, r + 1):
        half = delta_exclusion(k)
        gap = (1.0 / k - half, 1.0 / k + half)
        if gap[1] >= s_from and gap[0] <= s_to:
            gaps.append(gap)
    gaps.sort()
    s = np.linspace(s_from, s_to, points)
    keep = np.ones(points, dtype=bool)
    for lo, hi in gaps:
        keep &= ~((s >= lo) & (s <= hi))
    kept = s[keep]
    values = multizeta_grid(r, kept)
    samples = tuple((float(a), float(v)) for a, v in zip(kept, values))
    return PlotSeries(r=r, samples=samples, excluded=tuple(gaps))


def _env_thread_cap() -> int | None:
    raw = os.environ.get("MZR_THREADS")
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        return None
    return cap if cap >= 1 else None


def _scan_many(tasks: list[tuple[int, list[int]]]) -> dict[tuple[int, int], object]:
    """Scan many intervals, the grids possibly in parallel.  Each task is
    (k, fold counts) and scans interval k once for all of them; then every
    bracket of the run is refined in one batch.  Results are keyed by
    (r, k) so assembly order never depends on scheduling."""
    if not tasks:
        return {}
    cap = _env_thread_cap()
    if cap is None:
        cap = min(8, os.cpu_count() or 1)
    workers = max(1, min(cap, len(tasks)))
    if workers == 1:
        grids = [_scan_grid(k, r_values) for k, r_values in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_scan_grid, k, r_values) for k, r_values in tasks]
            grids = [fut.result() for fut in futures]
    scans = _refine_scans([g for grid in grids for g in grid])
    return {(scan.r, scan.k): scan for scan in scans}


def _print_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    value = multizeta(args.r, args.s)
    sys.stdout.write(_fmt(value) + "\n")
    return 0


def _cmd_plot(args) -> int:
    series = build_plot_series(args.r, args.s_from, args.s_to, args.points)
    try:
        fh = open(args.out, "w", encoding="ascii", newline="")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    with fh:
        if not args.no_header:
            fh.write(f"# mzr {__version__}\n")
        fh.write("s,value\n")
        for s, v in series.samples:
            fh.write(f"{_fmt(s)},{_fmt(v)}\n")
    return 0


def _cmd_zeros(args) -> int:
    r = args.r
    if not 1e-14 <= args.tol <= 1e-12:
        raise ParameterRangeError(
            f"bracket tolerance must lie in [1e-14, 1e-12], got {args.tol!r}"
        )
    ks = [args.k] if args.k is not None else list(range(r, 1, -1))
    if args.k is not None and not 2 <= args.k <= r:
        raise ParameterRangeError(f"interval index {args.k} outside [2, {r}]")
    found = _scan_many([(k, [r]) for k in ks])
    scans = [found[(r, k)] for k in sorted(ks, reverse=True)]
    zeros = [scan.zeros for scan in scans]
    if args.tol < 1e-12:
        zeros = _refine_with_tol(zeros, args.tol)
    records = []
    intervals = []
    unstable = False
    for scan, refined in zip(scans, zeros):
        for rec in sorted(refined, key=lambda z: z.abscissa):
            records.append(dataclasses.asdict(rec))
        intervals.append(
            {
                "k": scan.k,
                "grid_counts": list(scan.grid_counts),
                "count_stable": scan.count_stable,
                "tangency_suspects": list(scan.tangency_suspects),
            }
        )
        unstable = unstable or not scan.count_stable
    _print_json({"r": r, "zeros": records, "intervals": intervals})
    return 5 if unstable else 0


def _refine_with_tol(groups, tol):
    # Re-refine from slightly widened brackets so the tightened tolerance
    # is actually exercised; every record of the run in one batch, handed
    # back in the groups given.
    refined = iter(
        refine_roots(
            [
                (rec.r, rec.bracket_lo - 1e-9, rec.bracket_hi + 1e-9)
                for group in groups
                for rec in group
            ],
            tol,
        )
    )
    return [tuple(itertools.islice(refined, len(group))) for group in groups]


def _cmd_extrema(args) -> int:
    r = args.r
    records = []
    for k in range(r, 1, -1):
        for rec in find_extrema(r, k):
            records.append(dataclasses.asdict(rec))
    _print_json({"r": r, "extrema": records})
    return 0


def _cmd_poles(args) -> int:
    r = args.r
    poles = []
    for k in range(r, 0, -1):
        spec = pole_spec(r, k)
        entry = dataclasses.asdict(spec)
        if args.numeric_check:
            numeric = coefficient_numeric(r, k)
            entry["numeric"] = numeric
            entry["numeric_rel_error"] = abs(numeric - spec.constant) / abs(
                spec.constant
            )
        poles.append(entry)
    _print_json({"r": r, "poles": poles})
    return 0


def _cmd_census(args) -> int:
    r_max = args.r_max
    if not 2 <= r_max <= SCAN_R_MAX:
        raise ParameterRangeError(f"census fold cap {r_max} outside [2, {SCAN_R_MAX}]")
    scans = _scan_many([(k, list(range(k, r_max + 1))) for k in range(2, r_max + 1)])
    reports = []
    unstable_intervals = []
    for r in range(2, r_max + 1):
        empirical = {}
        for k in range(2, r + 1):
            scan = scans[(r, k)]
            empirical[k] = len(scan)
            if not scan.count_stable:
                unstable_intervals.append({"r": r, "k": k})
        reports.append(dataclasses.asdict(census_report(r, empirical)))
    _print_json(
        {
            "r_max": r_max,
            "reports": reports,
            "unstable_intervals": unstable_intervals,
        }
    )
    return 5 if unstable_intervals else 0


# ---------------------------------------------------------------------------
# verify suite


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _verify_kernel() -> list[dict]:
    checks = []
    grid = np.linspace(1.5, 40.0, 1000)
    em = riemann_zeta_grid(grid)
    worst = 0.0
    for s, reference in zip(grid, em):
        alt = riemann_zeta_alternating(float(s))
        worst = max(worst, abs(alt - reference) / abs(reference))
    checks.append(
        _check(
            "alternating-series agreement on [1.5, 40]",
            worst <= 1e-12,
            f"max rel diff {worst:.3e}",
        )
    )
    classical = max(
        abs(riemann_zeta(2.0) - math.pi**2 / 6.0) / (math.pi**2 / 6.0),
        abs(riemann_zeta(4.0) - math.pi**4 / 90.0) / (math.pi**4 / 90.0),
        abs(riemann_zeta(0.0) - (-0.5)) / 0.5,
    )
    checks.append(
        _check(
            "classical closed-form values",
            classical <= 1e-14,
            f"max rel diff {classical:.3e}",
        )
    )
    low = riemann_zeta_grid(np.linspace(0.0, 0.9999, 500))
    checks.append(
        _check(
            "negative on [0, 1)",
            bool(np.all(low < 0.0)),
            f"max value {float(low.max()):.3e}",
        )
    )
    tail = riemann_zeta_grid(np.linspace(1.01, 40.0, 500))
    checks.append(
        _check(
            "strictly decreasing beyond 1",
            bool(np.all(np.diff(tail) < 0.0)),
            f"max forward diff {float(np.diff(tail).max()):.3e}",
        )
    )
    worst = 0.0
    for s in (0.25, 0.5, 2.0, 7.5, 25.0, 40.0):
        cfg = default_config(s)
        doubled = EulerMaclaurinConfig(
            direct_terms=2 * cfg.direct_terms,
            correction_terms=cfg.correction_terms,
        )
        a, b = riemann_zeta(s, cfg), riemann_zeta(s, doubled)
        worst = max(worst, abs(a - b) / abs(b))
    checks.append(
        _check(
            "direct-term doubling self-consistency",
            worst <= 1e-13,
            f"max rel shift {worst:.3e}",
        )
    )
    return checks


def _verify_multizeta() -> list[dict]:
    checks = []
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for r in (2, 3, 4):
        drawn = 0
        while drawn < 200:
            s = float(rng.uniform(1.0 / r + 1e-3, 4.0))
            if any(abs(s - 1.0 / k) < 1e-4 for k in range(1, r + 1)):
                continue
            drawn += 1
            a, b = multizeta(r, s), closed_form(r, s)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    checks.append(
        _check(
            "recursion matches closed forms (r = 2..4)",
            worst <= 1e-12,
            f"max scaled diff {worst:.3e}",
        )
    )
    monotone = True
    bounded = True
    for r in (2, 3, 4):
        target = multizeta(r, 2.0)
        last = -math.inf
        for n in (10, 100, 1000):
            part = truncated_euler_zagier(r, 2.0, n)
            monotone = monotone and part > last and part < target
            last = part
        bound = multizeta(r - 1, 2.0) * 1000 ** (1.0 - 2.0) / (2.0 - 1.0)
        bounded = bounded and target - last <= bound
    checks.append(
        _check(
            "truncated sums increase toward the limit under the tail bound",
            monotone and bounded,
            "r = 2..4 at s = 2",
        )
    )
    profile_ok = True
    min_abs = math.inf
    for r in range(1, 13):
        report = sign_profile(r, 200)
        profile_ok = profile_ok and report.passed
        min_abs = min(min_abs, report.min_abs_value)
    checks.append(
        _check(
            "constant sign (-1)^r on [0, 1/r)",
            profile_ok,
            f"min |value| {min_abs:.3e}",
        )
    )
    return checks


def _verify_asymptotics() -> list[dict]:
    checks = []
    worst = 0.0
    signs_ok = True
    for r in range(1, 13):
        for k in range(1, r + 1):
            cf = coefficient_closed_form(r, k)
            rec = coefficient_recursive(r, k)
            worst = max(worst, abs(cf - rec) / abs(cf))
            signs_ok = signs_ok and math.copysign(1.0, cf) == (-1.0) ** (r + r // k)
    checks.append(
        _check(
            "closed-form vs recursive constants (r <= 12)",
            worst <= 1e-12,
            f"max rel diff {worst:.3e}",
        )
    )
    checks.append(
        _check("constant signs follow (-1)^(r + order)", signs_ok, "r <= 12")
    )
    worst = 0.0
    for r in range(1, 9):
        for k in range(1, r + 1):
            num = coefficient_numeric(r, k)
            cf = coefficient_closed_form(r, k)
            worst = max(worst, abs(num - cf) / abs(cf))
    checks.append(
        _check(
            "numeric limit extraction (r <= 8)",
            worst <= 1e-2,
            f"max rel diff {worst:.3e}",
        )
    )
    checks.append(
        _check(
            "constant ratios repeat mod k",
            periodicity_check(2, 4) and periodicity_check(3, 3),
            "k = 2 (q < 4) and k = 3 (q < 3)",
        )
    )
    parity_ok = True
    for r in range(2, 9):
        for k in range(1, r + 1):
            left, right = pole_side_signs(r, k)
            order = r // k
            expected_right = (-1) ** (r + order)
            expected_left = expected_right * (-1) ** order
            parity_ok = parity_ok and (left, right) == (expected_left, expected_right)
    checks.append(
        _check(
            "pole-side signs match order parity",
            parity_ok,
            "sampled at 1/k +/- 1e-4, r <= 8",
        )
    )
    return checks


def _verify_zeros() -> list[dict]:
    checks = []
    scans = _scan_many([(k, list(range(k, 9))) for k in range(2, 9)])
    stable = all(scan.count_stable for scan in scans.values())
    checks.append(
        _check(
            "zero counts stable across grid doublings (r <= 8)",
            stable,
            f"{len(scans)} intervals",
        )
    )
    suspects = sum(len(scan.tangency_suspects) for scan in scans.values())
    checks.append(
        _check("no suspected tangencies (r <= 8)", suspects == 0, f"{suspects} flagged")
    )
    bracket_ok = True
    residual_ok = True
    worst_ratio = 0.0
    for (r, k), scan in scans.items():
        # The scale bracket is the sign-change cell of the finest scan grid,
        # i.e. the bracket each refinement actually started from.
        cells = (4 if len(scan.grid_counts) == 3 else 8) * (BASE_GRID - 1)
        lo_edge = 1.0 / k + delta_exclusion(k)
        hi_edge = 1.0 / (k - 1) - delta_exclusion(k - 1)
        h = (hi_edge - lo_edge) / cells
        for rec in scan.zeros:
            bracket_ok = bracket_ok and rec.bracket_hi - rec.bracket_lo <= 1e-12
            cell_lo = lo_edge + int((rec.abscissa - lo_edge) / h) * h
            scale = max(
                abs(multizeta(r, cell_lo)),
                abs(multizeta(r, cell_lo + h)),
            )
            ratio = rec.residual / scale
            worst_ratio = max(worst_ratio, ratio)
            residual_ok = residual_ok and ratio <= 1e-9
    checks.append(
        _check("refined brackets within 1e-12", bracket_ok, "all records")
    )
    checks.append(
        _check(
            "residuals small against the local scale",
            residual_ok,
            f"max residual/scale {worst_ratio:.3e}",
        )
    )
    counts_match = True
    for r in range(2, 9):
        total = sum(len(scans[(r, k)]) for k in range(2, r + 1))
        counts_match = counts_match and total == iaz_predicted(r)
    checks.append(
        _check(
            "empirical totals equal the arithmetic prediction (r <= 8)",
            counts_match,
            "soft evidence for the per-interval conjecture",
        )
    )
    return checks


def _verify_census() -> list[dict]:
    checks = []
    r_top = 2000
    predicted = iaz_predicted_range(r_top)
    divisor_cumulative = 0
    identity_ok = True
    parity_ok = True
    for r in range(1, r_top + 1):
        divisor_cumulative += divisor_count(r)
        identity_ok = identity_ok and predicted[r] == divisor_cumulative - r
        if r >= 2:
            inc = delta_F(r)
            root = math.isqrt(r)
            parity_ok = parity_ok and (inc % 2 == 0) == (root * root == r)
    checks.append(
        _check(
            f"divisor-sum identity exact (r <= {r_top})",
            identity_ok,
            "floor-division sums vs trial division",
        )
    )
    checks.append(
        _check(
            f"increment parity tracks perfect squares (r <= {r_top})",
            parity_ok,
            "d(r) - 1 even iff r is a square",
        )
    )
    cross_ok = all(delta_F(r) == delta_F_direct(r) for r in range(2, 501))
    checks.append(
        _check("increment formula matches direct difference (r <= 500)", cross_ok, "")
    )
    band_ok = True
    worst = 0.0
    for r in range(100, r_top + 1):
        gap = abs(float(predicted[r]) - iaz_asymptotic(r)) / math.sqrt(r)
        worst = max(worst, gap)
        band_ok = band_ok and gap <= 3.0
    checks.append(
        _check(
            f"asymptotic residual within 3 sqrt(r) on [100, {r_top}]",
            band_ok,
            f"max |residual|/sqrt(r) = {worst:.3f}",
        )
    )
    return checks


_SUITES = {
    "kernel": _verify_kernel,
    "multizeta": _verify_multizeta,
    "asymptotics": _verify_asymptotics,
    "zeros": _verify_zeros,
    "census": _verify_census,
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        for item in _SUITES[name]():
            item["suite"] = name
            checks.append(item)
    passed = all(item["passed"] for item in checks)
    _print_json({"suites": names, "checks": checks, "passed": passed})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse with parse failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="mzr",
        description=(
            "Multiple zeta-functions with identical arguments on the "
            "positive real line."
        ),
    )
    parser.add_argument("--version", action="version", version=f"mzr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the r-fold function at one point")
    p.add_argument("--r", type=int, required=True, help="fold count")
    p.add_argument("--s", type=float, required=True, help="abscissa")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("plot", help="write a CSV sample of the r-fold function")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--from", dest="s_from", type=float, required=True)
    p.add_argument("--to", dest="s_to", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument(
        "--no-header",
        action="store_true",
        help="omit the version comment line",
    )
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("zeros", help="locate inter-asymptotic zeros")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="restrict to one interval")
    p.add_argument(
        "--tol",
        type=float,
        default=1e-12,
        help="bracket width target (at most 1e-12)",
    )
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("extrema", help="locate local extrema between asymptotes")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_extrema)

    p = sub.add_parser("poles", help="pole locations, orders, and constants")
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--numeric-check",
        action="store_true",
        help="also extract each constant numerically",
    )
    p.set_defaults(func=_cmd_poles)

    p = sub.add_parser("census", help="empirical vs conjectured zero counts")
    p.add_argument("--r-max", dest="r_max", type=int, required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument(
        "--suite",
        choices=["all", *_SUITES],
        default="all",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
