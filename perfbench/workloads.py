"""The three closed-loop workloads: one caller that waits for every result.

Each workload has four steps:

- ``setup()`` builds the program-side fixed inputs. It is what ``setup_s``
  times in a fresh process.
- ``make_inputs(seed, workdir)`` generates the benchmark's own inputs from
  the workload seed. It is not part of ``setup_s``.
- ``run(batch)`` is the timed work. It completes ``ops_per_batch`` ops.
- ``check(batch, result)`` verifies the outputs untimed. It returns
  ``(ok, record)``. The record is deterministic in (seed, batch) and feeds
  the exact-repeat digest.
- ``summary(records)`` condenses the records of a run.

Program functions are looked up as module attributes at call time, so the
traced run sees every call. Checks use references captured in ``setup()``,
before tracing is installed, so they add no spans.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import shutil

import numpy as np

from beamsweep import beams, cli, detection, geometry, harness, ofdm, reconstruct, scenarios


class Campaign:
    """``run_comparison`` over the catalog, all four methods, full ``out_dir``.

    One batch is one campaign call on two consecutive master seeds, so
    per-campaign set-up and per-scenario reuse across seeds can both show.
    One op is one (scenario, seed) run.
    """

    name = "campaign"
    seeds_per_call = 2
    repeat_batches = 1

    def setup(self):
        self.settings = harness.EvalSettings()
        self.catalog = scenarios.scenario_catalog()
        self.methods = list(harness.METHODS)
        self.ops_per_batch = len(self.catalog) * self.seeds_per_call
        self._load_ramp = ofdm.load_ramp
        self._dump_ramp = ofdm.dump_ramp

    def make_inputs(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def warmup(self):
        """One scenario, one seed, into a throwaway directory."""
        out = self.workdir / "warmup"
        harness.run_comparison(self.catalog[:1], self.methods, [self.seed], self.settings, out)
        shutil.rmtree(out)

    def run(self, batch):
        first = self.seed + batch * self.seeds_per_call
        seeds = list(range(first, first + self.seeds_per_call))
        out = self.workdir / f"campaign-{batch}"
        report = harness.run_comparison(self.catalog, self.methods, seeds, self.settings, out)
        return report, out, seeds

    def check(self, batch, result):
        report, out, seeds = result
        try:
            per = report.data["per_scenario"]
            ok = all(
                len(per[m]) == len(self.catalog)
                and all(e["n_runs"] == len(seeds) and math.isfinite(e["pooled_rmse"])
                        for e in per[m].values())
                for m in self.methods
            )
            ok = ok and all((out / f).is_file() for f in ("report.json", "report.csv", "peaks.csv"))
            ramps = sorted(out.glob("*.ramp"))
            ok = ok and len(ramps) > 0
            for path in ramps:
                again = out / "roundtrip.bin"
                self._dump_ramp(self._load_ramp(path), again)
                ok = ok and again.read_bytes() == path.read_bytes()
                again.unlink()
            report_bytes = sum(p.stat().st_size for p in out.iterdir())
            record = {
                "report_sha256": hashlib.sha256((out / "report.json").read_bytes()).hexdigest(),
                "report_bytes": report_bytes,
            }
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return ok, record

    def summary(self, records):
        return {"first_report_sha256": records[0].get("report_sha256")}


class Resolution:
    """The criterion-7 loop, call for call: four octahedral scenes at 20 dB.

    One op is one (scenario, seed): an 81-beam x 6-frame acquisition, the
    harness eligibility pass and peak extraction.
    """

    name = "resolution"
    ops_per_batch = 1
    repeat_batches = 8

    def setup(self):
        self.radio = ofdm.RadioConfig()
        self.geom = geometry.ArrayGeometry.uniform_linear(8, 8)
        self.weights = beams.BeamformingWeights.all_ones(self.geom)
        self.plan = reconstruct.oversampled_sweep_plan(8, harness.DEFAULT_NAF_LIMIT, 10)
        self.cfar = detection.CfarConfig()
        self.resolution = geometry.naf_resolution(8)
        self.bases = scenarios.scenario_catalog()[:4]
        self.scenes = [
            scenarios.build_scene(dataclasses.replace(b, snr_db=20.0), self.radio, self.geom)
            for b in self.bases
        ]

    def make_inputs(self, seed, workdir):
        self.seed = seed

    def warmup(self):
        self.run(0)

    def run(self, batch):
        idx = batch % len(self.scenes)
        seed = self.seed + batch // len(self.scenes)
        acq = harness.simulate_acquisition(
            self.scenes[idx], self.geom, self.weights, self.radio, self.plan, 6, (seed, idx), "poc"
        )
        eligible, ranges = harness._eligibility(
            acq.mean_profiles(), acq.gate_keep, acq.range_centers_m, self.cfar
        )
        peaks = detection.extract_peaks(
            acq.beam_values(), self.plan.beam_grid, self.resolution, 2,
            detected=eligible, ranges_m=ranges,
        )
        return idx, peaks

    def check(self, batch, result):
        idx, peaks = result
        lo, hi = self.plan.beam_grid[0], self.plan.beam_grid[-1]
        ok = all(
            math.isfinite(p.naf) and math.isfinite(p.range_m) and math.isfinite(p.power)
            and lo <= p.naf <= hi
            for p in peaks
        )
        record = {
            "separation": self.bases[idx].separation_naf,
            "two_peaks": len(peaks) == 2,
            "nafs": [repr(p.naf) for p in peaks],
        }
        return ok, record

    def summary(self, records):
        """The criterion-7 statistic: two-peak rate per separation."""
        rates = {}
        for base in self.bases:
            hits = [r["two_peaks"] for r in records if r.get("separation") == base.separation_naf]
            if hits:
                rates[str(base.separation_naf)] = {"ops": len(hits), "two_peaks": sum(hits),
                                                  "rate": sum(hits) / len(hits)}
        return {"two_peak_rate_by_separation": rates}


class RecordedSweeps:
    """In-process ``beamsweep reconstruct`` then ``beamsweep detect``.

    The inputs are 9-sample ``naf,value`` sweep CSVs that the benchmark
    synthesizes from catalog target pairs with its own noise stream, so they
    stay the same when the program's noise streams change. One op is one
    reconstruct + detect pair; the method cycles dft, spline, omp.
    """

    name = "recorded_sweeps"
    ops_per_batch = 1
    repeat_batches = 30
    methods = ("dft", "spline", "omp")
    draws_per_scenario = 2
    snr_db = 25.0  # per-sample noise relative to the strongest sample

    def setup(self):
        self.factor = 10
        self.sink = io.StringIO()

    def make_inputs(self, seed, workdir):
        radio = ofdm.RadioConfig()
        geom = geometry.ArrayGeometry.uniform_linear(8, 8)
        ones = beams.BeamformingWeights.all_ones(geom)
        grid = np.arange(-4, 5) / 15.0  # the minimal 9-beam lattice inside the sweep
        rng = np.random.default_rng([seed, 9])
        self.inputs = []
        for scenario in scenarios.scenario_catalog():
            targets = scenarios.build_scene(scenario, radio, geom, include_rear_wall=False).scatterers
            clean = np.array([beams.beamformed_response(geom, ones, targets, g) for g in grid])
            sigma = np.abs(clean).max() * 10 ** (-self.snr_db / 20)
            for _ in range(self.draws_per_scenario):
                noise = sigma / math.sqrt(2) * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
                path = workdir / f"sweep-{len(self.inputs)}.csv"
                with open(path, "w") as fh:
                    fh.write("naf,value\n")
                    for g, v in zip(grid, np.abs(clean + noise)):
                        fh.write(f"{float(g)!r},{float(v)!r}\n")
                self.inputs.append(path)
        self.expected_rows = 2 * 4 * self.factor + 1
        self.dense = workdir / "dense.csv"
        self.peaks = workdir / "peaks.csv"

    def warmup(self):
        for batch in range(len(self.methods)):
            self.run(batch)

    def run(self, batch):
        sweep = self.inputs[(batch // len(self.methods)) % len(self.inputs)]
        method = self.methods[batch % len(self.methods)]
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink):
            rc = cli.main([
                "reconstruct", "--sweep", str(sweep), "--method", method,
                "--factor", str(self.factor), "--out", str(self.dense),
            ])
            if rc == 0:
                rc = cli.main(["detect", "--spectrum", str(self.dense), "--out", str(self.peaks)])
        return rc

    def check(self, batch, rc):
        if rc != 0:
            return False, {"exit": rc}
        dense = self.dense.read_bytes()
        peaks = self.peaks.read_bytes()
        dense_rows = dense.decode().splitlines()[1:]
        peak_rows = [row.split(",") for row in peaks.decode().splitlines()[1:]]
        ok = len(dense_rows) == self.expected_rows and len(peak_rows) <= 2
        ok = ok and all(math.isfinite(float(r[0])) and math.isfinite(float(r[2])) for r in peak_rows)
        return ok, {"sha256": hashlib.sha256(dense + peaks).hexdigest(), "n_peaks": len(peak_rows)}

    def summary(self, records):
        return {}


WORKLOADS = {w.name: w for w in (Campaign, Resolution, RecordedSweeps)}
