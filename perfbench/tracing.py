"""In-memory spans around the calls into each beamsweep layer.

Spans are recorded from outside the package: each traced name is replaced,
for the duration of a traced phase, by a wrapper in every module namespace
where a caller looks it up (harness and cli import most names at module
load, run_comparison imports the ofdm dumpers at call time). A name that is
missing from the package is skipped, so it reports zero calls.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# span name -> (defining module, attribute, namespaces where callers look it up)
SPANS = {
    "ofdm.noisy_csi_from_profile": ("ofdm", "noisy_csi_from_profile", ("harness",)),
    "ofdm.scene_subcarrier_profile": ("ofdm", "scene_subcarrier_profile", ("harness",)),
    "harness.simulate_acquisition": ("harness", "simulate_acquisition", ("harness",)),
    "detection.ca_cfar": ("detection", "ca_cfar", ("harness",)),
    "detection.extract_peaks": ("detection", "extract_peaks", ("detection", "harness", "cli")),
    "beams.build_dictionary": ("beams", "build_dictionary", ("harness", "cli")),
    "scenarios.build_scene": ("scenarios", "build_scene", ("harness",)),
    "omp.omp": ("omp", "omp", ("harness", "cli")),
    "reconstruct.dft_interpolate": ("reconstruct", "dft_interpolate", ("harness", "cli")),
    "reconstruct.spline_interpolate": ("reconstruct", "spline_interpolate", ("harness", "cli")),
    "reconstruct.dirichlet_resample": ("reconstruct", "dirichlet_resample", ("reconstruct", "harness")),
    "cli.main": ("cli", "main", ("cli",)),
    "harness.run_comparison": ("harness", "run_comparison", ("harness",)),
    "harness.score_rmse": ("harness", "score_rmse", ("harness",)),
    "harness.estimate_ground_truth": ("harness", "estimate_ground_truth", ("harness",)),
    "harness.RmseReport.write_json": ("harness", "RmseReport.write_json", ("harness",)),
    "harness.RmseReport.write_csv": ("harness", "RmseReport.write_csv", ("harness",)),
    "ofdm.dump_ramp": ("ofdm", "dump_ramp", ("ofdm",)),
    "ofdm.dump_csv": ("ofdm", "dump_csv", ("ofdm",)),
}


def _resolve(namespace, dotted):
    """(owner, attribute name, current value) or None when the name is gone."""
    owner = namespace
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Records (name, start, end, parent index, op id) for every traced call,
    and (op id, iterations) for every ``omp.omp`` call."""

    def __init__(self):
        self.spans = []
        self.omp_iterations = []
        self.op_id = -1
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op_id)
            if name == "omp.omp":
                self.omp_iterations.append((self.op_id, getattr(result, "iterations", 0)))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced name for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for name, (home, attr, lookups) in SPANS.items():
                found = _resolve(importlib.import_module(f"beamsweep.{home}"), attr)
                if found is None:
                    continue
                wrapped = self.wrap(name, found[2])
                for lookup in lookups:
                    target = _resolve(importlib.import_module(f"beamsweep.{lookup}"), attr)
                    if target is not None and target[2] is found[2]:
                        owner, leaf, original = target
                        saved.append((owner, leaf, original))
                        setattr(owner, leaf, wrapped)
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self, n_ops, op_ids=None):
        """Calls and self seconds per op for every span name, plus OMP iterations.

        op_ids restricts the tally to those ops (used for the repeat digest).
        """
        calls = {name: 0 for name in SPANS}
        self_s = {name: 0.0 for name in SPANS}
        for span, own in zip(self.spans, self.self_times()):
            if op_ids is None or span[4] in op_ids:
                calls[span[0]] += 1
                self_s[span[0]] += own
        table = {}
        for name in SPANS:
            table[f"{name}.calls"] = calls[name] / n_ops
            table[f"{name}.self_s"] = self_s[name] / n_ops
        total = sum(v for op, v in self.omp_iterations if op_ids is None or op in op_ids)
        table["omp.omp.iterations"] = total / n_ops
        return table

    def covered_seconds(self):
        """Wall time inside root spans, i.e. the sum of all self times."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": self.spans,
                    "omp_iterations": self.omp_iterations,
                },
                fh,
            )
