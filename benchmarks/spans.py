"""Spans and counters recorded around calls into the iiorbit modules.

The tracer wraps module attributes that the package's entry points look up
at call time (for example ``cli.integrate_fixed`` or ``analysis.orbit_samples``)
and restores them afterwards, so no program file is edited. Each wrapped call
becomes a span (name, start, end, parent, run id) kept in memory; counts are
taken at the same boundaries. Vector-field evaluations are too many to keep
as spans, so the integrator wrappers time them in aggregate and charge that
time to the enclosing integrator span as child time.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import os
from collections import Counter
from time import perf_counter

import numpy as np

# Span record fields (lists, not objects, to keep the per-call cost low).
NAME, START, END, PARENT, RUN, CHILD_S, FIELD_S, FIELD_N, SECTION_N = range(9)

# (module, attribute, span name, hook, per-layer metrics the attribute feeds).
# A span name of None records no span: the wrapper only observes the call.
TARGETS = (
    ("plants", "make_preset", "plants.make_preset", "calls",
     ("plants.make_preset.s", "plants.make_preset.calls")),
    ("cli", "augmented_field", None, "augmented",
     ("plants.field_eval.calls", "plants.field_eval.us")),
    ("cli", "integrate_fixed", "odesim.integrate_fixed", "fixed",
     ("odesim.integrate_fixed.s", "odesim.integrate_fixed.self_s",
      "odesim.integrate_fixed.steps")),
    ("analysis", "integrate_fixed", "odesim.integrate_fixed", "fixed",
     ("odesim.integrate_fixed.s", "odesim.integrate_fixed.self_s",
      "odesim.integrate_fixed.steps")),
    ("cli", "integrate_adaptive", "odesim.integrate_adaptive", "adaptive",
     ("odesim.integrate_adaptive.s", "odesim.integrate_adaptive.accepted",
      "odesim.integrate_adaptive.field_evals")),
    ("analysis", "integrate_adaptive", "odesim.integrate_adaptive", "adaptive",
     ("odesim.integrate_adaptive.s", "odesim.integrate_adaptive.accepted",
      "odesim.integrate_adaptive.field_evals", "analysis.orbit_samples.scout_calls")),
    ("analysis", "detect_crossings", "odesim.detect_crossings", "section",
     ("odesim.detect_crossings.s", "odesim.section.calls")),
    ("odesim", "detect_crossings", "odesim.detect_crossings", "section",
     ("odesim.detect_crossings.s", "odesim.section.calls")),
    ("analysis", "orbit_samples", "analysis.orbit_samples", None,
     ("analysis.orbit_samples.s", "analysis.orbit_samples.scout_calls")),
    ("analysis", "orbital_distance_tail", "analysis.orbital_distance_tail", "pairs",
     ("analysis.orbital_distance_tail.s", "analysis.orbital_distance_tail.pairs")),
    ("analysis", "fit_decay", "analysis.fit_decay", None, ("analysis.fit_decay.s",)),
    ("analysis", "energy_drift", "analysis.energy_drift", None, ("analysis.energy_drift.s",)),
    ("cli", "_control_history", "cli.control_history", None, ("cli.control_history.s",)),
    ("cli", "_write_trajectory_csv", "cli.trajectory_csv", "file_bytes",
     ("cli.trajectory_csv.s", "cli.trajectory_csv.bytes")),
    ("cli", "compute_metrics", "cli.compute_metrics", None, ("cli.compute_metrics.s",)),
    ("cli", "run_scenario", "cli.run_scenario", None,
     ("cli.run_scenario.s", "cli.sweep.self_s")),
    ("cli", "cmd_sweep", "cli.sweep", None, ("cli.sweep.self_s",)),
    ("svgplot", "line_plot", "svgplot", "file_bytes", ("svgplot.s", "svgplot.bytes")),
    ("svgplot", "phase_plot", "svgplot", "file_bytes", ("svgplot.s", "svgplot.bytes")),
    ("core", "validate_bundle", "core.validate_bundle", "validation",
     ("core.validate_bundle.s", "core.validate_bundle.points",
      "core.validate_bundle.skipped")),
)

MODULES = ("plants", "core", "odesim", "analysis", "cli", "svgplot")

# Spans whose total time is reported as "<span>.s".
TIMED_SPANS = (
    "plants.make_preset",
    "odesim.integrate_fixed",
    "odesim.integrate_adaptive",
    "odesim.detect_crossings",
    "analysis.orbit_samples",
    "analysis.orbital_distance_tail",
    "analysis.fit_decay",
    "analysis.energy_drift",
    "cli.control_history",
    "cli.trajectory_csv",
    "cli.compute_metrics",
    "cli.run_scenario",
    "svgplot",
    "core.validate_bundle",
)

# Counters reported per operation, under their own names.
COUNTED = (
    "plants.make_preset.calls",
    "plants.field_eval.calls",
    "odesim.integrate_fixed.steps",
    "odesim.integrate_adaptive.accepted",
    "odesim.integrate_adaptive.field_evals",
    "odesim.section.calls",
    "analysis.orbit_samples.scout_calls",
    "analysis.orbital_distance_tail.pairs",
    "cli.trajectory_csv.bytes",
    "svgplot.bytes",
    "core.validate_bundle.points",
    "core.validate_bundle.skipped",
)


def _with_eval(field, fn):
    """A copy of a vector-field handle whose evaluation goes through fn."""
    if not hasattr(field, "eval"):
        return fn
    try:
        return dataclasses.replace(field, eval=fn)
    except TypeError:
        clone = copy.copy(field)
        object.__setattr__(clone, "eval", fn)
        return clone


class Tracer:
    """Installs the wrappers, keeps spans and counts, and summarizes them."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[int, Counter] = {}
        self.run = 0
        self.missing: dict[str, str] = {}
        self._patches: list[tuple] = []
        self._augmented: set[int] = set()
        for modname, attr, _span, _hook, metrics in TARGETS:
            if getattr(modules[modname], attr, None) is None:
                for metric in metrics:
                    self.missing.setdefault(metric, f"{modname}.{attr} no longer exists")

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for modname, attr, span, hook, _metrics in TARGETS:
            module = self.modules[modname]
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(original, span, hook))
            self._patches.append((module, attr, original))

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def begin_run(self, run: int) -> None:
        self.run = run
        self.counts[run] = Counter()
        self._augmented.clear()

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [name, perf_counter(), None, parent, self.run, 0.0, 0.0, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.stack.pop()
        rec[CHILD_S] += rec[FIELD_S]
        if rec[PARENT] is not None:
            self.spans[rec[PARENT]][CHILD_S] += rec[END] - rec[START]

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self.stack)

    def _wrap(self, fn, span, hook):
        tracer = self
        if hook == "augmented":
            def observe(*args, **kwargs):
                handle = fn(*args, **kwargs)
                tracer._augmented.add(id(handle))
                return handle
            return observe

        def wrapper(*args, **kwargs):
            counts = tracer.counts[tracer.run]
            rec = tracer._open(span)
            augmented = False
            try:
                if hook in ("fixed", "adaptive") and args:
                    augmented = id(args[0]) in tracer._augmented
                    args = (tracer._timed_field(args[0], rec),) + args[1:]
                    if hook == "adaptive" and tracer._inside("analysis.orbit_samples"):
                        counts["analysis.orbit_samples.scout_calls"] += 1
                elif hook == "section" and len(args) > 1:
                    args = (args[0], tracer._counted_section(args[1], rec)) + args[2:]
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                if augmented:
                    counts["plants.field_eval.calls"] += rec[FIELD_N]
                    counts["plants.field_eval.s"] += rec[FIELD_S]
                if hook == "adaptive":
                    counts["odesim.integrate_adaptive.field_evals"] += rec[FIELD_N]
                if hook == "section":
                    counts["odesim.section.calls"] += rec[SECTION_N]
            if hook == "calls":
                counts[f"{span}.calls"] += 1
            elif hook == "fixed":
                counts["odesim.integrate_fixed.steps"] += len(result) - 1
            elif hook == "adaptive":
                counts["odesim.integrate_adaptive.accepted"] += len(result) - 1
            elif hook == "file_bytes" and not tracer._inside(span):
                counts[f"{span}.bytes"] += os.path.getsize(args[0])
            elif hook == "pairs":
                try:
                    counts["analysis.orbital_distance_tail.pairs"] += _distance_pairs(
                        fn, args, kwargs
                    )
                except (KeyError, TypeError) as exc:
                    tracer.missing["analysis.orbital_distance_tail.pairs"] = (
                        f"orbital_distance_tail arguments changed: {exc!r}"
                    )
            elif hook == "validation":
                counts["core.validate_bundle.points"] += 2 * result.grid_size
                counts["core.validate_bundle.skipped"] += result.skipped_xi + result.skipped_x
            return result

        return wrapper

    def _timed_field(self, field, rec):
        f = field.eval if hasattr(field, "eval") else field

        def timed(y):
            t0 = perf_counter()
            try:
                return f(y)
            finally:
                rec[FIELD_S] += perf_counter() - t0
                rec[FIELD_N] += 1

        return _with_eval(field, timed)

    @staticmethod
    def _counted_section(section, rec):
        def counted(state):
            rec[SECTION_N] += 1
            return section(state)

        return counted

    # -- summarizing ------------------------------------------------------

    def _outermost(self, i: int) -> bool:
        """True when no enclosing span has the same name (svgplot.phase_plot
        calls svgplot.line_plot, which must not count twice)."""
        name = self.spans[i][NAME]
        p = self.spans[i][PARENT]
        while p is not None:
            if self.spans[p][NAME] == name:
                return False
            p = self.spans[p][PARENT]
        return True

    def summary(self, runs: list[int], walls: list[float]) -> dict:
        """Per-operation means over the traced runs, the self time of each
        span name and each module, and the wall time no span covers."""
        n = len(runs)
        chosen = set(runs)
        total: Counter = Counter()
        self_by_span: Counter = Counter()
        self_by_module: Counter = Counter({m: 0.0 for m in MODULES})
        root_s = 0.0
        sweep_self = 0.0
        for i, rec in enumerate(self.spans):
            if rec[RUN] not in chosen:
                continue
            dur = rec[END] - rec[START]
            own = dur - rec[CHILD_S]
            self_by_span[rec[NAME]] += own
            self_by_module[rec[NAME].split(".")[0]] += own
            self_by_module["plants"] += rec[FIELD_S]
            if self._outermost(i):
                total[rec[NAME]] += dur
            if rec[PARENT] is None:
                root_s += dur
            if rec[NAME] == "cli.sweep":
                sweep_self += dur
            elif rec[NAME] == "cli.run_scenario" and rec[PARENT] is not None \
                    and self.spans[rec[PARENT]][NAME] == "cli.sweep":
                sweep_self -= dur
            if rec[NAME] == "odesim.integrate_fixed":
                total["odesim.integrate_fixed.self"] += own
        counts: Counter = Counter()
        for run in runs:
            counts.update(self.counts[run])

        layer = {}
        for name in TIMED_SPANS:
            layer[f"{name}.s"] = total[name] / n
        layer["odesim.integrate_fixed.self_s"] = total["odesim.integrate_fixed.self"] / n
        layer["cli.sweep.self_s"] = sweep_self / n
        for name in COUNTED:
            layer[name] = counts[name] / n
        calls = counts["plants.field_eval.calls"]
        layer["plants.field_eval.us"] = 1e6 * counts["plants.field_eval.s"] / calls if calls else 0.0
        for module in MODULES:
            layer[f"{module}.self_s"] = self_by_module[module] / n
        layer["trace.uncovered_s"] = (sum(walls) - root_s) / n
        for metric in self.missing:
            layer[metric] = None
        return {
            "layer": layer,
            "self_s_by_span": {k: v / n for k, v in sorted(self_by_span.items())},
        }

    def span_records(self) -> list[dict]:
        t0 = self.spans[0][START] if self.spans else 0.0
        return [
            {
                "name": rec[NAME],
                "start": rec[START] - t0,
                "end": rec[END] - t0,
                "parent": rec[PARENT],
                "run": rec[RUN],
            }
            for rec in self.spans
        ]


def _distance_pairs(fn, args, kwargs) -> int:
    """Tail points times orbit samples, as orbital_distance_tail picks them."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    n = len(a["traj"].tail(a["fraction"]))
    points = len(np.unique(np.linspace(0, n - 1, min(n, a["max_points"])).astype(int)))
    return points * len(a["orbit"].samples)
