"""Span recorder for the traced benchmark pass.

Wraps public loxokit functions in every module namespace that binds them
(``from ... import`` copies live in ``cli``, ``acceptance`` and ``flows``),
records one span per call with its parent span, keeps spans in memory and
writes them out when the pass ends. A call to a function that already has
an open span (recursion, such as ``sigma_min_point`` folding a complex z
into a real one) gets no span of its own: its time stays in the outer span.

The recorder keeps one stack, so it assumes the traced calls run on one
Python thread, which holds for every workload (``threads`` stays 1).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs the traced pass wraps; the per-layer metric
# names in BENCHMARK.json are built from these.
TRACED = {
    "dampedwave": ("eigenfrequencies", "evolve", "mode_frame",
                   "decay_report"),
    "resolvent": ("sigma_min_scan", "quantize_model", "cutoff_norm_point",
                  "sigma_min_point", "sigma_min_block"),
    "spectra": ("nonconcentration_scan", "neck_mode",
                "build_radial_operator"),
    "flows": ("check_geometric_control", "flow", "trajectory_average",
              "find_closed_orbit", "linearized_poincare_map"),
    "normal_form": ("williamson", "birkhoff_normal_form", "escape_rate_form"),
    "symplectic": ("symplectic_log", "classify"),
    "cli": ("main",),
    "serialize": ("write_csv", "write_json"),
}


def _note_evolve(counts, args, kwargs, result):
    samples = int(result.times.size)
    counts["dampedwave.evolve.samples"] += samples
    # computed from array sizes, not measured: the (2 n_grid, samples)
    # float64 history one evolve call holds
    n_grid = (args[0] if args else kwargs["problem"]).n_grid
    hist_mb = 2 * n_grid * samples * 8 / 1e6
    counts["dampedwave.evolve.hist_mb"] = max(
        counts["dampedwave.evolve.hist_mb"], hist_mb)


def _note_written(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["serialize.bytes_written"] += os.path.getsize(path)


NOTES = {
    "dampedwave.evolve": _note_evolve,
    "serialize.write_csv": _note_written,
    "serialize.write_json": _note_written,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self._stack = []
        self._open = Counter()
        self.counts = Counter()

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            span = [name, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
            if note is not None:
                note(self.counts, args, kwargs, result)
            return result

        return traced

    def counted(self, name, fn):
        """Count calls of a callable the benchmark passes into loxokit."""
        key = name + ".calls"

        def counting(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counting

    def install(self):
        """Replace every binding of each traced function with its wrapper."""
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "loxokit" or key.startswith("loxokit.")]
        for module, names in TRACED.items():
            source = sys.modules["loxokit." + module]
            for fname in names:
                original = getattr(source, fname)
                wrapper = self.wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)

    def write(self, path):
        with open(path, "w") as handle:
            for i, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "parent": parent,
                                         "name": name, "start": start,
                                         "end": end}) + "\n")

    def layer_metrics(self):
        """Per-layer values of one pass: calls, s and self_s per traced
        function, the extra counts, and the certification ratios."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        values = Counter()
        for i, (name, parent, start, end) in enumerate(self.spans):
            values[name + ".calls"] += 1
            values[name + ".s"] += end - start
            values[name + ".self_s"] += end - start - child_time[i]
        values.update(self.counts)

        # certifications (sigma_min_block spans) under each sigma_min_point
        point_of = {}
        blocks = Counter()
        for i, (name, parent, _, _) in enumerate(self.spans):
            if name == "resolvent.sigma_min_point":
                point_of[i] = i
            elif parent in point_of:
                point_of[i] = point_of[parent]
                if name == "resolvent.sigma_min_block":
                    blocks[point_of[parent]] += 1
        points = [i for i, s in enumerate(self.spans)
                  if s[0] == "resolvent.sigma_min_point"]
        if points:
            values["resolvent.certify_per_point"] = (
                sum(blocks[i] for i in points) / len(points))
            values["resolvent.fallback_frac"] = (
                sum(blocks[i] > 1 for i in points) / len(points))
        return dict(values)
