"""Correctness checks of one pass's outputs against the cached oracle.

Every checked output is one attempt.  A failure is either `wrong` (a value
outside its bound, a wrong count, a nonzero exit code) or `raised`.  Each
failure is also either known (the oracle records it for the program it was
made with) or a regression; a run is correct when it has no regression.
Known failures are a property of the inputs, not of the run: they count in
the share of outputs that are right, while only regressions count as
failed operations.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"

# Bounds.  Values and roots follow the benchmark's own contract; extrema
# and pole constants use the acceptance gate's bounds.
VALUE_REL_TOL = 1e-9
ROOT_ABS_TOL = 1e-12
EXTREMUM_X_TOL = 1e-4
EXTREMUM_V_TOL = 1e-3  # times max(1, |value|)
RECURSIVE_REL_TOL = 1e-12
NUMERIC_REL_TOL = 1e-2


@dataclass
class Tally:
    attempted: int = 0
    known: int = 0
    wrong_by_kind: dict = field(default_factory=dict)
    raised_by_kind: dict = field(default_factory=dict)
    regressions: list = field(default_factory=list)

    @property
    def wrong(self) -> int:
        return sum(self.wrong_by_kind.values())

    @property
    def raised(self) -> int:
        return sum(self.raised_by_kind.values())

    @property
    def failed(self) -> int:
        return self.wrong + self.raised

    @property
    def unexpected(self) -> int:
        """Failures the oracle does not record as known: regressions."""
        return self.failed - self.known

    def merge(self, other: "Tally", times: int = 1) -> None:
        """Add `times` copies of another tally (identical outputs of several passes)."""
        self.attempted += times * other.attempted
        self.known += times * other.known
        for mine, theirs in ((self.wrong_by_kind, other.wrong_by_kind),
                             (self.raised_by_kind, other.raised_by_kind)):
            for kind, n in theirs.items():
                mine[kind] = mine.get(kind, 0) + times * n
        self.regressions.extend(other.regressions[: 20 - len(self.regressions)])

    def add(self, kind: str, ok: bool, what: str, raised: bool = False, known: bool = False):
        self.attempted += 1
        if ok:
            return
        counts = self.raised_by_kind if raised else self.wrong_by_kind
        counts[kind] = counts.get(kind, 0) + 1
        if known:
            self.known += 1
        elif len(self.regressions) < 20:
            self.regressions.append(what)
        else:
            self.regressions[-1] = "..."


def load_oracle(path: Path = ORACLE_PATH) -> dict:
    oracle = json.loads(path.read_text())
    pool = oracle["library_pool"]
    pool["folds"] = [[float(v) for v in row] for row in pool["folds"]]
    return oracle


@lru_cache(maxsize=4)
def predicted_counts(n: int) -> list[int]:
    """F(r) = sum_{l<=r} d(l) - r for r = 0..n, from a divisor sieve; an
    independent path to the floor-division sums."""
    d = [0] * (n + 1)
    for i in range(1, n + 1):
        for j in range(i, n + 1, i):
            d[j] += 1
    out, acc = [0] * (n + 1), 0
    for r in range(1, n + 1):
        acc += d[r]
        out[r] = acc - r
    return out


def _rel_ok(got, want: float, tol: float) -> bool:
    return isinstance(got, float) and math.isfinite(got) and abs(got - want) <= tol * abs(want)


def _roots_ok(tally: Tally, oracle: dict, r: int, k: int, got: list[float] | None):
    want = oracle["roots"][f"{r},{k}"]
    got = sorted(got) if got is not None else []
    tally.add("count", len(got) == len(want) == r // k, f"zero count r={r} k={k}: {len(got)}")
    for i, root in enumerate(want):
        ok = i < len(got) and len(got) == len(want) and abs(got[i] - root) <= ROOT_ABS_TOL
        tally.add("root", ok, f"zero r={r} k={k} near {root!r}")


def _load_stdout(tally: Tally, out: dict):
    tally.add("exit", out["code"] == 0, f"exit code {out['code']}")
    try:
        return json.loads(out["stdout"])
    except ValueError:
        tally.add("stdout", False, "stdout is not JSON")
        return None


def check_census(tally: Tally, out: dict, r_max: int, oracle: dict) -> None:
    """Counts and totals of `mzr census`; the abscissas are checked from
    `mzr zeros` per fold count (check_zeros), as the census prints none."""
    doc = _load_stdout(tally, out)
    if doc is None:
        return
    unstable = {(u["r"], u["k"]) for u in doc.get("unstable_intervals", [])}
    reports = {rep["r"]: rep for rep in doc.get("reports", [])}
    f = predicted_counts(r_max)
    for r in range(2, r_max + 1):
        rep = reports.get(r, {})
        tally.add(
            "total",
            rep.get("predicted_total") == rep.get("divisor_total") == f[r],
            f"predicted totals r={r}",
        )
        items = {item["k"]: item for item in rep.get("per_interval", [])}
        for k in range(2, r + 1):
            item = items.get(k, {})
            ok = (
                item.get("empirical") == item.get("conjectured") == r // k
                and (r, k) not in unstable
            )
            tally.add("count", ok, f"census count r={r} k={k}")


def check_zeros(tally: Tally, out: dict, r: int, oracle: dict) -> None:
    doc = _load_stdout(tally, out)
    if doc is None:
        return
    intervals = {item["k"]: item for item in doc.get("intervals", [])}
    by_k: dict[int, list[float]] = {}
    for z in doc.get("zeros", []):
        if z.get("r") == r:
            by_k.setdefault(z["k"], []).append(z["abscissa"])
    for k in range(2, r + 1):
        tally.add("stable", intervals.get(k, {}).get("count_stable") is True, f"count_stable r={r} k={k}")
        _roots_ok(tally, oracle, r, k, by_k.get(k, []))


def check_library(tally: Tally, out: dict, params: dict, oracle: dict) -> None:
    pool = oracle["library_pool"]
    for (r, j), got in zip(params["index"], out["values"]):
        known = pool["seed_status"][j][r - 1] != "."
        want = pool["folds"][j][r - 1]
        s = pool["s"][j]
        if isinstance(got, str):
            tally.add("value", False, f"multizeta({r}, {s!r}) raised {got}", raised=True, known=known)
        else:
            tally.add("value", _rel_ok(got, want, VALUE_REL_TOL), f"multizeta({r}, {s!r})", known=known)
    for (r, k), got in zip(params["extrema"], out["extrema"]):
        want = oracle["extrema"][f"{r},{k}"]
        if isinstance(got, str):
            tally.add("extremum", False, f"find_extrema({r}, {k}) raised {got}", raised=True)
            continue
        tally.add("extremum", len(got) == len(want), f"extremum count r={r} k={k}")
        for (kind, x, v), (kind0, x0, v0) in zip(got, want):
            ok = (
                kind == kind0
                and abs(x - x0) <= EXTREMUM_X_TOL
                and abs(v - v0) <= EXTREMUM_V_TOL * max(1.0, abs(v0))
            )
            tally.add("extremum", ok, f"extremum r={r} k={k} near {x0!r}")
    for name, tol in (("numeric", NUMERIC_REL_TOL), ("recursive", RECURSIVE_REL_TOL)):
        for (r, k), got in zip(params[name], out[name]):
            want = oracle["coefficients"][f"{r},{k}"]
            what = f"coefficient_{name}({r}, {k})"
            tally.add("coefficient", _rel_ok(got, want, tol), what, raised=isinstance(got, str))
    iaz = out["iaz"]
    tally.add(
        "census",
        iaz == predicted_counts(params["iaz_n"]),
        f"iaz_predicted_range({params['iaz_n']})",
        raised=isinstance(iaz, str),
    )
    ident = out["divisor_identity"]
    tally.add(
        "census",
        ident is True,
        f"divisor_identity_check({params['divisor_n']})",
        raised=isinstance(ident, str),
    )
