"""Command-line surface: evaluation, plot data, zeros, extrema, poles,
census, and a self-verification suite, all with machine-readable output.

Exit codes are fixed for scriptability:
  0 success, 1 argument parse error, 2 domain or pole error,
  3 unwritable output path, 4 non-convergence, 5 unstable zero count.

Census disagreements (empirical count != conjectured count) are soft:
they are reported in the JSON but do not change the exit code.  Output is
reproducible byte for byte for identical flags.  The verify suites live
in `mzr.checks`.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .asymptotics import pole_spec
from .census import census_report
from .checks import SUITES
from .errors import (
    DomainError,
    EmptySumError,
    IncompleteInputError,
    NonConvergenceError,
    ParameterRangeError,
    PoleProximityError,
    _check_int,
)
from .multizeta import R_MAX, multizeta, multizeta_grid
from .zero_finder import SCAN_R_MAX, _census_pairs, _extrema, _pole_constants, _scan_many
from .zero_finder import delta_exclusion

__all__ = ["PlotSeries", "build_plot_series", "main"]

_DOMAIN_ERRORS = (
    PoleProximityError,
    DomainError,
    ParameterRangeError,
    EmptySumError,
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
    r = _check_int(r, "fold count", 1, R_MAX)
    points = _check_int(points, "need at least 2 sample points: points", 2)
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
    r = _check_int(args.r, "fold count", 1, SCAN_R_MAX)
    ks = [args.k] if args.k is not None else range(r, 1, -1)
    records = []
    intervals = []
    unstable = False
    for scan in _scan_many([(r, k) for k in ks], args.tol).values():
        records.extend(dataclasses.asdict(rec) for rec in scan.zeros)
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


def _cmd_extrema(args) -> int:
    r = _check_int(args.r, "fold count", 1, SCAN_R_MAX)
    found = _extrema([(r, k) for k in range(r, 1, -1)])
    records = [dataclasses.asdict(rec) for recs in found.values() for rec in recs]
    _print_json({"r": r, "extrema": records})
    return 0


def _cmd_poles(args) -> int:
    r = _check_int(args.r, "fold count", 1, R_MAX)
    # One run; in ascending k, a pole's first reading is its interval's lower end.
    ks = range(2, max(r, 2) + 1) if args.numeric_check else ()
    readings = _pole_constants([(r, k) for k in ks])
    poles = []
    for k in range(r, 0, -1):
        spec = pole_spec(r, k)
        entry = dataclasses.asdict(spec)
        if args.numeric_check:
            numeric = readings[r, k][0]
            entry["numeric"] = numeric
            entry["numeric_rel_error"] = abs(numeric - spec.constant) / abs(
                spec.constant
            )
        poles.append(entry)
    _print_json({"r": r, "poles": poles})
    return 0


def _cmd_census(args) -> int:
    r_max = _check_int(args.r_max, "census fold cap", 2, SCAN_R_MAX)
    scans = _scan_many(_census_pairs(r_max))
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


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks = [
        dict(dataclasses.asdict(check), suite=name)
        for name in names
        for check in SUITES[name]()
    ]
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
        help="bracket width, 1e-14 to 1e-12: each zero changes sign across 0.9 tol",
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
        help="also read each constant off the ends of the zeros' Chebyshev proxy",
    )
    p.set_defaults(func=_cmd_poles)

    p = sub.add_parser("census", help="empirical vs conjectured zero counts")
    p.add_argument("--r-max", dest="r_max", type=int, required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument(
        "--suite",
        choices=["all", *SUITES],
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
