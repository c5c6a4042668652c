"""Spans around the calls into each mzr layer, recorded from outside.

`Tracer.install` replaces a function with a timing wrapper in every mzr
module that holds a reference to it, so calls between modules
(`zero_finder.multizeta`, `multizeta.riemann_zeta`, ...) pass through the
wrapper as well as calls from the benchmark.  Spans stay in memory; a
span's self time is its duration minus that of its child spans on the
same thread, so on each thread the self times add up to the durations of
the root spans.
"""
from __future__ import annotations

import sys
import threading
from time import perf_counter

import numpy as np

# (module, attribute) of every layer boundary, in call-graph order.  A
# span's name is "<module>.<attribute>" without the leading underscore.
LAYERS = (
    ("cli", "main"),
    ("cli", "_scan_many"),
    ("zero_finder", "scan_interval"),
    ("zero_finder", "refine_root"),
    ("zero_finder", "find_extrema"),
    ("asymptotics", "coefficient_numeric"),
    ("asymptotics", "coefficient_recursive"),
    ("census", "iaz_predicted_range"),
    ("census", "census_report"),
    ("census", "divisor_identity_check"),
    ("multizeta", "multizeta_grid"),
    ("multizeta", "multizeta"),
    ("riemann_kernel", "riemann_zeta_grid"),
    ("riemann_kernel", "riemann_zeta"),
)

ROOT = "bench.pass"


class Span:
    __slots__ = ("name", "tid", "parent", "t0", "t1", "child", "points", "work")

    def __init__(self, name, tid, parent):
        self.name, self.tid, self.parent = name, tid, parent
        self.t0 = self.t1 = self.child = 0.0
        self.points = self.work = 0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def self_time(self) -> float:
        return self.t1 - self.t0 - self.child


def _mzr_modules():
    return [m for name, m in list(sys.modules.items()) if name == "mzr" or name.startswith("mzr.")]


class Tracer:
    """Records one Span per call of every installed layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """`fn` recording a span per call; `before(span, args, kwargs)` and
        `after(span, result)` fill in its counts."""
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, threading.get_ident(), stack[-1] if stack else None)
            if before is not None:
                before(span, args, kwargs)
            stack.append(span)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, result)
                return result
            finally:
                span.t1 = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.t1 - span.t0
                spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every layer in LAYERS wherever mzr holds a reference to it."""
        kernel = sys.modules["mzr.riemann_kernel"]
        before = {
            "riemann_zeta_grid": lambda span, a, kw: _measure_zeta_grid(kernel, span, a, kw),
            "multizeta_grid": _measure_multizeta_grid,
        }
        after = {"find_extrema": _count_results}
        modules = _mzr_modules()
        for mod_name, attr in LAYERS:
            home = sys.modules[f"mzr.{mod_name}"]
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(
                f"{mod_name}.{attr.lstrip('_')}", orig, before.get(attr), after.get(attr)
            )
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()


def _measure_zeta_grid(kernel, span, args, kwargs):
    s = np.asarray(args[0] if args else kwargs["s"], dtype=float)
    span.points = s.size
    config = args[1] if len(args) > 1 else kwargs.get("config")
    if config is None and s.size:
        config = kernel.default_config(float(s.max()))
    # The direct sum runs over terms 1 .. direct_terms - 1.
    span.work = span.points * (config.direct_terms - 1) if config is not None else 0


def _measure_multizeta_grid(span, args, kwargs):
    r = args[0] if args else kwargs["r"]
    span.points = np.asarray(args[1] if len(args) > 1 else kwargs["s"]).size
    span.work = r * span.points


def _count_results(span, result):
    span.work = len(result)


def _per_pass(total, passes: int):
    if isinstance(total, int) and total % passes == 0:
        return total // passes
    return total / passes


class LayerTotals:
    """Sums over the spans of traced passes; `add` takes the spans of one
    or more passes, so they need not all be held in memory at once."""

    def __init__(self, main_tid: int):
        self.main_tid = main_tid
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.dur: dict[str, float] = {}
        self.points: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self.evals = {"zero_finder.refine_root": 0, "zero_finder.find_extrema": 0}
        self.grid_total = self.grid_final = 0
        self.pool_busy = 0.0

    def add(self, spans: list[Span]) -> None:
        scan_grids: dict[int, list[tuple[float, int]]] = {}
        for span in spans:
            name = span.name
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + span.self_time
            self.dur[name] = self.dur.get(name, 0.0) + span.duration
            self.points[name] = self.points.get(name, 0) + span.points
            self.work[name] = self.work.get(name, 0) + span.work
            if span.tid != self.main_tid:
                self.pool_busy += span.self_time
            parent = span.parent.name if span.parent is not None else None
            if name == "multizeta.multizeta_grid" and parent == "zero_finder.scan_interval":
                scan_grids.setdefault(id(span.parent), []).append((span.t0, span.points))
            elif name == "multizeta.multizeta" and parent in self.evals:
                self.evals[parent] += 1
        for grids in scan_grids.values():
            self.grid_total += sum(p for _, p in grids)
            self.grid_final += max(grids)[1]

    def metrics(self, passes: int, threads: int) -> dict:
        """Per-pass layer metrics, keyed by name."""
        calls, points, work = self.calls, self.points, self.work

        def ratio(num, den):
            return num / den if den else 0.0

        total = {
            "riemann_kernel.riemann_zeta_grid.calls": calls.get("riemann_kernel.riemann_zeta_grid", 0),
            "riemann_kernel.riemann_zeta_grid.points": points.get("riemann_kernel.riemann_zeta_grid", 0),
            "riemann_kernel.riemann_zeta_grid.term_points": work.get("riemann_kernel.riemann_zeta_grid", 0),
            "riemann_kernel.riemann_zeta.calls": calls.get("riemann_kernel.riemann_zeta", 0),
            "multizeta.multizeta_grid.calls": calls.get("multizeta.multizeta_grid", 0),
            "multizeta.multizeta_grid.points": points.get("multizeta.multizeta_grid", 0),
            "multizeta.multizeta_grid.fold_points": work.get("multizeta.multizeta_grid", 0),
            "multizeta.multizeta.calls": calls.get("multizeta.multizeta", 0),
            "zero_finder.scan_interval.calls": calls.get("zero_finder.scan_interval", 0),
            "zero_finder.scan_interval.grid_points": self.grid_total,
            "zero_finder.refine_root.calls": calls.get("zero_finder.refine_root", 0),
            "zero_finder.find_extrema.calls": calls.get("zero_finder.find_extrema", 0),
        }
        out = {key: _per_pass(value, passes) for key, value in total.items()}
        for name in [f"{m}.{a.lstrip('_')}" for m, a in LAYERS] + [ROOT]:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / passes
        out["zero_finder.scan_interval.final_grid_share"] = ratio(self.grid_final, self.grid_total)
        out["zero_finder.refine_root.evals_per_root"] = ratio(
            self.evals["zero_finder.refine_root"], calls.get("zero_finder.refine_root", 0)
        )
        # find_extrema spans carry the number of extrema found as their work.
        out["zero_finder.find_extrema.evals_per_extremum"] = ratio(
            self.evals["zero_finder.find_extrema"], work.get("zero_finder.find_extrema", 0)
        )
        out["cli.pool.efficiency"] = ratio(
            self.dur.get("zero_finder.scan_interval", 0.0),
            threads * self.dur.get("cli.main", 0.0),
        )
        out["trace.wall_s"] = self.dur.get(ROOT, 0.0) / passes
        out["trace.pool_busy_s"] = self.pool_busy / passes
        out["trace.self_sum_s"] = sum(self.self_s.values()) / passes
        return out
