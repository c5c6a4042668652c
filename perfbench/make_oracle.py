"""Regenerate the benchmark's cached correctness oracle, perfbench/oracle.json.

    python3 perfbench/make_oracle.py            # from the repository root

Reference values come from the Newton recursion

    j * zeta_j(s) = sum_{i=1}^{j} (-1)^(i-1) zeta_{j-i}(s) zeta(i*s)

run in mpmath at 150 digits, with `mpmath.zeta` as the kernel.  Where the
recursion cancels more than 110 of those digits (s > 1 and large r), it is
run again with the working precision raised by the digits lost, so every
cached value keeps at least 40 correct digits before it is rounded.

mzr itself is used only for starting points of the roots: the abscissas it
reports seed the mpmath root refinements, which then converge on their own
(their number is checked against floor(r/k) separately).  Extrema are found
without mzr, from sign changes of the mpmath derivative.
The library pool also records, per point, whether the float `multizeta`
of the program this oracle was made with was within 1e-9 of the reference
('.'), wrong ('x') or raised ('r').  These are the known failures the
benchmark reports as they are; regenerating the file with a later program
would re-record them, so do it only when the reference itself changes.

Takes about 12 minutes on one core of a 2.1 GHz Xeon.  Needs mpmath
(tested with 1.3.0).
"""
from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import mpmath
from mpmath import mp

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mzr  # noqa: E402

OUT = Path(__file__).resolve().parent / "oracle.json"

BASE_DPS = 150
# Digits the result must keep after cancellation.
KEEP_DIGITS = 40

# Library pool: abscissas drawn once, uniform on [0, 4], each at least
# POLE_GAP from every 1/k with k <= POOL_R.
POOL_SIZE = 512
POOL_R = 32
POOL_SEED = 201201712
POLE_GAP = 1e-6
VALUE_REL_TOL = 1e-9

CENSUS_R_MAX = 12
ZEROS_R = 16
EXTREMA_R = range(4, 9)
EXTREMA_GRID = 512
COEFF_R_MAX = 12


def mp_folds(s, r_max: int) -> list:
    """zeta_0 .. zeta_{r_max} at s (a float, or (p, q) for the exact p/q)
    via the recursion, at a precision that leaves KEEP_DIGITS correct digits."""
    dps = BASE_DPS
    while True:
        with mp.workdps(dps):
            x = mp.mpf(s) if not isinstance(s, tuple) else mp.mpf(s[0]) / s[1]
            zs = [mpmath.zeta(i * x) for i in range(1, r_max + 1)]
            folds, mags = [mp.mpf(1)], [mp.mpf(1)]
            for j in range(1, r_max + 1):
                acc, mag = mp.mpf(0), mp.mpf(0)
                for i in range(1, j + 1):
                    term = folds[j - i] * zs[i - 1]
                    acc += term if i % 2 else -term
                    mag += mags[j - i] * abs(zs[i - 1])
                folds.append(acc / j)
                mags.append(mag / j)
            lost = max(
                float(mp.log10(mags[j] / abs(folds[j]))) if folds[j] else float(dps)
                for j in range(1, r_max + 1)
            )
            if lost <= dps - KEEP_DIGITS:
                return [+f for f in folds]
        dps = int(lost) + KEEP_DIGITS + 20


def mp_fold(r: int, x):
    return mp_folds(x, r)[r]


def _refine_root(r: int, x0: float) -> float:
    with mp.workdps(BASE_DPS):
        f = lambda x: mp_fold(r, x)  # noqa: E731
        half = mp.mpf("1e-9")
        a, b = mp.mpf(x0) - half, mp.mpf(x0) + half
        if f(a) * f(b) >= 0:
            raise RuntimeError(f"no sign change around r={r} x0={x0!r}")
        root = mp.findroot(f, (a, b), solver="anderson", tol=mp.mpf(10) ** -60)
        eps = mp.mpf("1e-30")
        if f(root - eps) * f(root + eps) >= 0:
            raise RuntimeError(f"refined root of r={r} near {x0!r} is not a crossing")
        return float(root)


def roots() -> dict:
    out = {}
    for r in [*range(2, CENSUS_R_MAX + 1), ZEROS_R]:
        for k in range(2, r + 1):
            scan = mzr.scan_interval(r, k)
            out[f"{r},{k}"] = [_refine_root(r, z.abscissa) for z in scan.zeros]
        print(f"roots r={r}", file=sys.stderr, flush=True)
    return out


def mp_fold_and_slope(r: int, x):
    """zeta_r(x) and its derivative at the working precision, from the
    recursion and its derivative (mpmath's zeta and zeta')."""
    zs = [mpmath.zeta(i * x) for i in range(1, r + 1)]
    dzs = [i * mpmath.zeta(i * x, derivative=1) for i in range(1, r + 1)]
    folds, slopes = [mp.mpf(1)], [mp.mpf(0)]
    for j in range(1, r + 1):
        acc, dacc = mp.mpf(0), mp.mpf(0)
        for i in range(1, j + 1):
            term = folds[j - i] * zs[i - 1]
            dterm = slopes[j - i] * zs[i - 1] + folds[j - i] * dzs[i - 1]
            if i % 2:
                acc, dacc = acc + term, dacc + dterm
            else:
                acc, dacc = acc - term, dacc - dterm
        folds.append(acc / j)
        slopes.append(dacc / j)
    return folds[r], slopes[r]


def guarded_interval(k: int):
    """(1/k, 1/(k-1)) less the guard gaps the API keeps around each pole:
    1e-4 of the width of the interval above the pole, at least 1e-6."""

    def gap(j: int):
        width = mp.mpf(1) / (j - 1) - mp.mpf(1) / j if j >= 2 else mp.mpf("0.5")
        return max(mp.mpf("1e-4") * width, mp.mpf("1e-6"))

    return mp.mpf(1) / k + gap(k), mp.mpf(1) / (k - 1) - gap(k - 1)


def extrema() -> dict:
    """Every interior extremum of zeta_r on each guarded interval, found
    without mzr: sign changes of the mpmath derivative on a uniform grid of
    EXTREMA_GRID points, each refined to a root of the derivative."""
    out = {}
    for r in EXTREMA_R:
        for k in range(2, r + 1):
            items = []
            with mp.workdps(60):
                slope = lambda x: mp_fold_and_slope(r, x)[1]  # noqa: E731
                lo, hi = guarded_interval(k)
                xs = [lo + (hi - lo) * i / (EXTREMA_GRID - 1) for i in range(EXTREMA_GRID)]
                ds = [slope(x) for x in xs]
                for a, b, da, db in zip(xs, xs[1:], ds, ds[1:]):
                    if da * db >= 0:
                        continue
                    x = mp.findroot(slope, (a, b), solver="anderson", tol=mp.mpf(10) ** -40)
                    kind = "minimum" if da < 0 else "maximum"
                    items.append([kind, float(x), float(mp_fold_and_slope(r, x)[0])])
            out[f"{r},{k}"] = items
        print(f"extrema r={r}", file=sys.stderr, flush=True)
    return out


def coefficients() -> dict:
    """Closed-form pole constants C_r(k), r <= COEFF_R_MAX, at the exact
    abscissa 1/k."""
    out = {}
    for r in range(1, COEFF_R_MAX + 1):
        for k in range(1, r + 1):
            with mp.workdps(BASE_DPS):
                if k == 1:
                    c = mp.mpf(1) / mp.factorial(r)
                else:
                    q, ell = divmod(r, k)
                    c = (-1) ** ((k - 1) * q) / (mp.mpf(k) ** q * mp.factorial(q))
                    if ell:
                        c *= mp_folds((1, k), ell)[ell]
                out[f"{r},{k}"] = float(c)
    return out


def library_pool() -> dict:
    rng = random.Random(POOL_SEED)
    poles = [1.0 / k for k in range(1, POOL_R + 1)]
    pool_s, folds, status = [], [], []
    while len(pool_s) < POOL_SIZE:
        s = rng.uniform(0.0, 4.0)
        if min(abs(s - p) for p in poles) < POLE_GAP:
            continue
        ref = mp_folds(s, POOL_R)
        row, marks = [], []
        for r in range(1, POOL_R + 1):
            want = ref[r]
            row.append(mpmath.nstr(want, 14, min_fixed=1, max_fixed=0))
            try:
                got = mzr.multizeta(r, s)
            except Exception:  # noqa: BLE001 - any raise is a recorded failure
                marks.append("r")
                continue
            ok = math.isfinite(got) and abs(mp.mpf(got) - want) <= VALUE_REL_TOL * abs(want)
            marks.append("." if ok else "x")
        pool_s.append(s)
        folds.append(row)
        status.append("".join(marks))
        if len(pool_s) % 64 == 0:
            print(f"pool {len(pool_s)}/{POOL_SIZE}", file=sys.stderr, flush=True)
    return {"s": pool_s, "folds": folds, "seed_status": status}


def main() -> int:
    oracle = {
        "about": (
            "Reference values for perfbench; regenerate with "
            "perfbench/make_oracle.py. Folds are zeta_r(s) for r = 1..32 per "
            "pool abscissa; seed_status marks the float program's result at "
            "the time the oracle was made: '.' within 1e-9, 'x' wrong, "
            "'r' raised."
        ),
        "roots": roots(),
        "extrema": extrema(),
        "coefficients": coefficients(),
        "library_pool": library_pool(),
    }
    OUT.write_text(json.dumps(oracle, separators=(",", ":")) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
