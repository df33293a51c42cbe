"""End-to-end evaluation: simulate sweeps, estimate angles, score against truth.

One recorded oversampled acquisition (24 frames per beam by default) feeds
everything, the way a captured dataset would: the minimal sweep is every
tenth beam of it, methods average the first six frames, and ground truth is
the per-target median over all 24 single-frame estimates of the oversampled
pipeline. Each acquisition draws from one noise stream derived from (master
seed, scenario index), so reports are byte-reproducible.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .beams import (
    DICTIONARY_KINDS,
    BeamformingWeights,
    Dictionary,
    Scatterer,
    build_dictionary,
)
from .detection import CfarConfig, PeakEstimate, ca_cfar, extract_peaks
from .errors import ConfigError
from .geometry import ArrayGeometry, naf_resolution
from .ofdm import (
    RadioConfig,
    RangeAngleMap,
    scene_subcarrier_profile,
)
from .omp import OmpConfig, omp, sparse_to_peaks
from .reconstruct import (
    AngularSweep,
    SweepPlan,
    _check_spline_samples,
    dft_interpolate,
    minimal_sweep_plan,
    oversampled_sweep_plan,
    spline_interpolate,
    sweep_duration,
)
from .scenarios import (
    RANGE_GATE_EXCLUDE_M,
    Scenario,
    Scene,
    build_scene,
    scenario_catalog,
)

METHODS = ("oversampled", "dft", "spline", "omp")

DEFAULT_NAF_LIMIT = 0.5 * math.sin(math.radians(33.0))  # steerable sweep limit


@dataclass(frozen=True)
class Acquisition:
    """Raw per-beam, per-frame sweep measurements.

    magnitudes[b, f] is the square root of the gated collapsed power of
    beam b in frame f; profiles[b, f] is the windowed zero-Doppler power
    profile.
    """

    magnitudes: np.ndarray
    profiles: np.ndarray
    range_centers_m: np.ndarray  # windowed display bin centers
    gate_keep: np.ndarray  # bool per display bin, False inside the exclusion

    def beam_values(self, n_frames: Optional[int] = None) -> np.ndarray:
        """Per-beam mean magnitude over the first n_frames dwell frames."""
        n = self.magnitudes.shape[1] if n_frames is None else n_frames
        return self.magnitudes[:, :n].mean(axis=1)

    def mean_profiles(self, n_frames: Optional[int] = None) -> np.ndarray:
        n = self.profiles.shape[1] if n_frames is None else n_frames
        return self.profiles[:, :n].mean(axis=1)


@dataclass(frozen=True)
class _WindowBasis:
    """What the display window of one radio config fixes for every sweep."""

    centers: np.ndarray  # range of each window bin (m)
    keep: np.ndarray  # False inside the range exclusion
    idft: np.ndarray  # (n_subcarriers, n_window) IDFT rows of the window bins
    r_factor: np.ndarray  # R of idft = QR, so R^H R = idft^H idft


@functools.lru_cache(maxsize=8)
def _window_basis(radio: RadioConfig) -> _WindowBasis:
    """Built on first use per (hashable, frozen) radio config; arrays read-only."""
    window = radio.window_bins()
    centers = window * radio.range_bin_width_m
    lo, hi = RANGE_GATE_EXCLUDE_M
    keep = ~((centers >= lo) & (centers <= hi))
    if not np.any(keep):
        raise ConfigError("range exclusion removes every display bin")
    n_fft = radio.range_fft_size
    # the index product is reduced mod n_fft first so the phase argument
    # stays below 2*pi
    idft = np.exp(
        2j * np.pi * (np.outer(np.arange(radio.n_subcarriers), window) % n_fft) / n_fft
    ) / n_fft
    # The Gram matrix idft^H idft itself (condition number ~1e17) is too
    # ill-conditioned for a Cholesky factor.
    basis = _WindowBasis(centers, keep, idft, np.linalg.qr(idft, mode="r"))
    for arr in vars(basis).values():
        arr.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=16)
def _signal_window(
    scatterers: Tuple[Scatterer, ...],
    geom: ArrayGeometry,
    weights: BeamformingWeights,
    radio: RadioConfig,
    plan: SweepPlan,
) -> np.ndarray:
    """Noise-free window bins per beam: n_symbols times the scatterers'
    profile seen through the window IDFT, (n_beams, n_window); read-only.

    Only the noise depends on the seed, so the bins are cached on the
    arguments' content (the array-holding configs compare and hash by
    value): every seed of a scene, and every equal scene, reuses one
    result. An 81-beam entry is 54 KB; 16 of them hold the catalog twice.
    """
    signal = radio.n_symbols * scene_subcarrier_profile(
        radio, scatterers, geom, weights, plan.beam_grid
    ) @ _window_basis(radio).idft
    signal.flags.writeable = False
    return signal


# Beams per noise chunk: a 24-frame chunk's noise and window bins take
# 0.87 MB, against 2.6 MB for the whole 81-beam acquisition at once.
_DRAW_CHUNK_BEAMS = 27


def simulate_acquisition(
    scene: Scene,
    geom: ArrayGeometry,
    weights: BeamformingWeights,
    radio: RadioConfig,
    plan: SweepPlan,
    n_frames: int,
    seed_prefix: Sequence[int],
    mode: str = "poc",
) -> Acquisition:
    """Sweep the scene; one seeded noise stream covers the whole acquisition.

    Frames are synthesized in the domain the pipeline consumes, the
    display-window bins of the zero-padded range IDFT: n_symbols times the
    scene profile plus symbol-summed white CN(0, n_symbols * noise_power)
    subcarrier noise, both seen through the window IDFT W. The noise bins
    are drawn directly, as white window-sized samples per (beam, frame)
    times the QR factor R of W, which gives them the same covariance.
    One default_rng(seed_prefix) stream draws the noise of every beam and
    frame, in beam order, a chunk of beams at a time: standard_normal fills
    its output sequentially, so the chunks hold the same numbers as one
    whole-acquisition draw. The explicit per-symbol path in
    tests/csi_oracle.py (the full CSI grid, then the zero-Doppler column of
    its range-Doppler transform) is the reference; the two agree exactly
    without noise and in distribution, inter-bin correlation included,
    with it. W and R depend on the radio config alone and are built once
    per config; the noise-free bins are built once per (scatterers,
    geometry, weights, radio, plan) and reused by every seed.

    mode must be "poc". Frames are combined only after |.|^2, so a
    per-frame phase, such as the free-running phase of the hardware, would
    change no output, and none is drawn.
    """
    if mode != "poc":
        raise ConfigError(f"unknown acquisition mode {mode!r}")
    if n_frames < 1:
        raise ConfigError("n_frames must be at least 1")
    signal = _signal_window(scene.scatterers, geom, weights, radio, plan)
    basis = _window_basis(radio)
    n_beams, n_window = signal.shape
    rng = np.random.default_rng(tuple(int(s) for s in seed_prefix))
    scale = np.sqrt(radio.n_symbols * scene.noise_power / 2)
    chunk = min(n_beams, _DRAW_CHUNK_BEAMS)
    noise_ws, bins_ws = np.empty((2, chunk, n_frames, n_window), dtype=complex)
    profiles = np.empty((n_beams, n_frames, n_window))
    for lo in range(0, n_beams, chunk):
        hi = min(lo + chunk, n_beams)
        noise, bins = noise_ws[: hi - lo], bins_ws[: hi - lo]
        # the stream of a fresh (n_beams, n_frames, 2 * n_window) normal draw
        rng.standard_normal(out=noise.view(float))
        noise *= scale
        # R^H R = W^H W: white noise times R has the covariance of white
        # noise seen through W. The product stays per beam: as one 2-D
        # product it is bitwise equal for n_frames > 1 only, because numpy
        # sends 1-row products through gemv.
        np.matmul(noise, basis.r_factor, out=bins)
        bins += signal[lo:hi, None, :]
        power = np.abs(bins, out=profiles[lo:hi])
        power **= 2
    magnitudes = np.sqrt(profiles[..., basis.keep].max(axis=-1))
    return Acquisition(magnitudes, profiles, basis.centers, basis.keep)


def _eligibility(
    profiles: np.ndarray, keep: np.ndarray, centers: np.ndarray, cfar: CfarConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-angle CFAR eligibility of the gated argmax bin, plus its range.

    profiles is (..., n_beams, n_range); both results are (..., n_beams).
    """
    gated = profiles[..., keep]
    i = np.argmax(gated, axis=-1)
    eligible = ca_cfar(gated, cfar, cells=i[..., None])[..., 0]
    return eligible, centers[keep][i]


def estimate_ground_truth(
    frame_peak_nafs: Sequence[Sequence[float]],
    nominal_nafs: Tuple[float, float],
) -> Tuple[Tuple[float, float], Tuple[int, int]]:
    """Per-target median of single-frame estimates.

    Every peak of every frame is assigned to the nearest nominal target;
    the ground truth per target is the median of its assigned values. A
    target that never received an estimate falls back to its nominal NAF;
    the returned counts let reports surface that.
    """
    nafs = np.array([naf for peaks in frame_peak_nafs for naf in peaks], dtype=float)
    nearest = np.argmin(np.abs(nafs[:, None] - np.asarray(nominal_nafs, dtype=float)), axis=1)
    buckets = [nafs[nearest == t] for t in range(len(nominal_nafs))]
    truth = tuple(
        float(np.median(b)) if b.size else float(nominal_nafs[t])
        for t, b in enumerate(buckets)
    )
    return truth, (buckets[0].size, buckets[1].size)


def naf_error_to_cross_track_m(naf_error: float, range_m: float) -> float:
    """Cross-track displacement of a NAF error at the given range."""
    if range_m <= 0:
        raise ConfigError("range must be positive")
    return range_m * math.asin(max(-1.0, min(1.0, naf_error)))


@dataclass(frozen=True)
class ScoreSummary:
    """Nearest-estimate error statistics for one (scenario, method) group."""

    rmse_per_target: Tuple[float, ...]
    pooled_rmse: float
    pooled_variance: float
    n_runs: int
    n_missed: int
    errors_per_target: Tuple[Tuple[float, ...], ...] = field(repr=False)

    @property
    def detection_rate(self) -> float:
        return 1.0 - self.n_missed / self.n_runs if self.n_runs else 0.0


def score_rmse(
    estimates: Sequence[Sequence[float]],
    ground_truths: Sequence[Sequence[float]],
) -> ScoreSummary:
    """Score per-run estimate lists against per-run ground-truth tuples.

    Each ground-truth target is matched to its nearest estimate (estimates
    may be reused, so the result is independent of estimate order). Runs
    with no estimates at all count as misses and contribute no errors.
    """
    if len(estimates) != len(ground_truths):
        raise ConfigError("one estimate list per ground-truth tuple required")
    if not ground_truths:
        raise ConfigError("cannot score zero runs")
    n_targets = len(ground_truths[0])
    per_target: Tuple[List[float], ...] = tuple([] for _ in range(n_targets))
    missed = 0
    for ests, truths in zip(estimates, ground_truths):
        if len(truths) != n_targets:
            raise ConfigError("ground-truth tuples must have uniform length")
        if len(ests) == 0:
            missed += 1
            continue
        arr = np.asarray(ests, dtype=float)
        for t, g in enumerate(truths):
            nearest = arr[np.argmin(np.abs(arr - g))]
            per_target[t].append(float(nearest - g))
    pooled = np.array([e for bucket in per_target for e in bucket])
    rmse = tuple(
        float(np.sqrt(np.mean(np.square(bucket)))) if bucket else math.nan
        for bucket in per_target
    )
    return ScoreSummary(
        rmse_per_target=rmse,
        pooled_rmse=float(np.sqrt(np.mean(pooled**2))) if pooled.size else math.nan,
        pooled_variance=float(np.var(pooled)) if pooled.size else math.nan,
        n_runs=len(estimates),
        n_missed=missed,
        errors_per_target=tuple(tuple(b) for b in per_target),
    )


@dataclass(frozen=True)
class EvalSettings:
    """Everything run_comparison needs besides scenarios/methods/seeds."""

    radio: RadioConfig = field(default_factory=RadioConfig)
    n_tx: int = 8
    n_rx: int = 8
    naf_limit: float = DEFAULT_NAF_LIMIT
    oversampling_factor: int = 10
    dwell_frames: int = 6
    ground_truth_frames: int = 24
    cfar: CfarConfig = field(default_factory=CfarConfig)
    omp: OmpConfig = field(default_factory=OmpConfig)
    dictionary_kind: str = "matched"
    max_peaks: int = 2
    snr_db: Optional[float] = None  # overrides each scenario's own SNR
    include_rear_wall: bool = True

    def __post_init__(self):
        # what no later step refuses: methods average the first dwell frames
        # of the truth acquisition, and the sweep order assumes a square array
        if self.dwell_frames > self.ground_truth_frames:
            raise ConfigError(
                f"dwell_frames ({self.dwell_frames}) must not exceed "
                f"ground_truth_frames ({self.ground_truth_frames})"
            )
        if self.n_tx != self.n_rx:
            raise ConfigError(f"n_tx ({self.n_tx}) and n_rx ({self.n_rx}) must be equal")
        if self.dictionary_kind not in DICTIONARY_KINDS:
            raise ConfigError(f"unknown dictionary kind {self.dictionary_kind!r}")

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry.uniform_linear(self.n_tx, self.n_rx)

    def weights(self) -> BeamformingWeights:
        return BeamformingWeights.all_ones(self.geometry())


@dataclass(frozen=True)
class _SeedOutcome:
    seed: int
    ground_truth: Tuple[float, float]
    gt_counts: Tuple[int, int]
    peaks: Dict[str, List[PeakEstimate]]
    maps: Dict[str, RangeAngleMap]
    sweep_values: Optional[np.ndarray]  # minimal-sweep beam magnitudes


@dataclass(frozen=True)
class _Campaign:
    """The seed-independent state of one run_comparison call, built once."""

    settings: EvalSettings
    geom: ArrayGeometry
    weights: BeamformingWeights
    over_plan: SweepPlan
    minimal_plan: SweepPlan
    min_idx: np.ndarray  # oversampled-grid index of each minimal beam
    resolution: float
    dictionary: Dictionary


def _build_campaign(settings: EvalSettings) -> _Campaign:
    radio = settings.radio
    geom = settings.geometry()
    weights = settings.weights()
    n_1d = min(settings.n_tx, settings.n_rx)
    over_plan = oversampled_sweep_plan(
        n_1d, settings.naf_limit, settings.oversampling_factor,
        settings.dwell_frames, radio.frame_duration_s,
    )
    minimal_plan = minimal_sweep_plan(
        n_1d, settings.naf_limit, settings.dwell_frames, radio.frame_duration_s
    )
    dictionary = build_dictionary(
        geom, weights, minimal_plan.beam_grid, over_plan.beam_grid, settings.dictionary_kind,
    )
    over_grid = over_plan.beam_grid
    # both grids are integer ratios from one lattice builder, so a shared
    # point is the same double in each
    min_idx = np.flatnonzero(np.isin(over_grid, minimal_plan.beam_grid))
    if min_idx.size != minimal_plan.n_beams:
        raise ConfigError("minimal grid is not a subset of the oversampled grid")
    return _Campaign(
        settings, geom, weights, over_plan, minimal_plan, min_idx,
        naf_resolution(n_1d), dictionary,
    )


def _run_seed(
    campaign: _Campaign,
    scenario: Scenario,
    scene: Scene,
    scenario_index: int,
    methods: Sequence[str],
    master_seed: int,
) -> _SeedOutcome:
    settings = campaign.settings
    minimal_plan = campaign.minimal_plan
    resolution = campaign.resolution
    acq = simulate_acquisition(
        scene, campaign.geom, campaign.weights, settings.radio, campaign.over_plan,
        settings.ground_truth_frames, (master_seed, scenario_index),
    )
    over_grid = campaign.over_plan.beam_grid

    # ground truth: full detection pipeline on each single-frame spectrum
    frame_eligible, frame_ranges = _eligibility(
        acq.profiles.swapaxes(0, 1), acq.gate_keep, acq.range_centers_m, settings.cfar
    )
    frame_peaks = extract_peaks(
        acq.magnitudes.T, over_grid, resolution, settings.max_peaks,
        detected=frame_eligible, ranges_m=frame_ranges,
    )
    ground_truth, gt_counts = estimate_ground_truth(
        [[p.naf for p in peaks] for peaks in frame_peaks], scenario.target_nafs
    )

    dwell = settings.dwell_frames
    avg_profiles = acq.mean_profiles(dwell)
    beam_values = acq.beam_values(dwell)
    values9 = beam_values[campaign.min_idx]
    profiles9 = avg_profiles[campaign.min_idx]
    # the beam values and the windowed profiles as magnitudes per range bin,
    # one sweep column each: an interpolator treats every column on its own
    sweep9 = AngularSweep(minimal_plan, np.column_stack((values9, np.sqrt(profiles9))))

    # each mapped method's spectrum and power map over the oversampled grid
    mapped: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for method in methods:  # run_comparison has checked every name
        if method == "oversampled":
            mapped[method] = beam_values, avg_profiles
        elif method != "omp":
            interpolate = dft_interpolate if method == "dft" else spline_interpolate
            dense = interpolate(sweep9, over_grid)
            mapped[method] = dense[:, 0], np.maximum(dense[:, 1:], 0.0) ** 2

    peaks_by_method: Dict[str, List[PeakEstimate]] = {}
    if mapped:
        spectra, power_maps = (np.stack(arrays) for arrays in zip(*mapped.values()))
        eligible, ranges = _eligibility(
            power_maps, acq.gate_keep, acq.range_centers_m, settings.cfar
        )
        found = extract_peaks(
            spectra, over_grid, resolution, settings.max_peaks,
            detected=eligible, ranges_m=ranges,
        )
        peaks_by_method = dict(zip(mapped, found))
    if "omp" in methods:
        estimate = omp(campaign.dictionary, values9, settings.omp)
        strongest = int(np.argmax(values9))
        gated = profiles9[strongest][acq.gate_keep]
        range_m = float(acq.range_centers_m[acq.gate_keep][np.argmax(gated)])
        peaks_by_method["omp"] = sparse_to_peaks(estimate, over_grid, range_m)
    # in the caller's method order, which peaks.csv follows
    peaks_by_method = {m: peaks_by_method[m] for m in methods}
    maps = {
        m: RangeAngleMap(power_map.T, acq.range_centers_m, over_grid)
        for m, (_, power_map) in mapped.items()
    }
    return _SeedOutcome(master_seed, ground_truth, gt_counts, peaks_by_method, maps, values9)


@dataclass(frozen=True)
class RmseReport:
    """Comparison results, JSON/CSV-exportable and byte-deterministic."""

    data: dict

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.data, indent=2, sort_keys=True) + "\n").encode()

    def write_json(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_json_bytes())

    def write_csv(self, path) -> None:
        methods = self.data["metadata"]["methods"]

        def cell(group: str, m: str, pick) -> str:
            entry = self.data["groups"][group][m]
            return repr(pick(entry)) if entry is not None else "nan"

        with open(path, "w", newline="") as fh:
            fh.write("group,target," + ",".join(methods) + "\n")
            for group in ("reflectors", "walls", "total"):
                for t in (0, 1):
                    cells = [cell(group, m, lambda e: e["rmse_per_target"][t]) for m in methods]
                    fh.write(f"{group},t{t + 1}," + ",".join(cells) + "\n")
            cells = [cell("total", m, lambda e: e["pooled_rmse"]) for m in methods]
            fh.write("total,pooled," + ",".join(cells) + "\n")

    def total_rmse(self, method: str) -> float:
        return self.data["groups"]["total"][method]["pooled_rmse"]


def _summary(runs: Sequence[_SeedOutcome], method: str) -> dict:
    s = score_rmse([[p.naf for p in r.peaks[method]] for r in runs], [r.ground_truth for r in runs])
    return {
        "rmse_per_target": list(s.rmse_per_target),
        "pooled_rmse": s.pooled_rmse,
        "pooled_variance": s.pooled_variance,
        "n_runs": s.n_runs,
        "n_missed": s.n_missed,
        "detection_rate": s.detection_rate,
    }


def _run_scenario(
    campaign: _Campaign,
    scenario: Scenario,
    scene: Scene,
    stream_index: int,
    seeds: Sequence[int],
    methods: Sequence[str],
) -> List[_SeedOutcome]:
    """Every seed of one scenario, in seed order. Only the first seed keeps
    its range-angle maps and sweep values: the output files show no other."""
    runs: List[_SeedOutcome] = []
    for seed in seeds:
        run = _run_seed(campaign, scenario, scene, stream_index, methods, seed)
        runs.append(dataclasses.replace(run, maps={}, sweep_values=None) if runs else run)
    return runs


_Outcomes = List[Tuple[Scenario, List[_SeedOutcome]]]


def _build_report(
    campaign: _Campaign, outcomes: _Outcomes, methods: List[str], seeds: List[int]
) -> RmseReport:
    """Pool the per-seed outcomes, in scenario order, into the report."""
    settings = campaign.settings
    groups = {}
    for group, kinds in (
        ("reflectors", ("octahedral",)),
        ("walls", ("wall",)),
        ("total", ("octahedral", "wall")),
    ):
        pool = [run for scenario, runs in outcomes if scenario.kind in kinds for run in runs]
        groups[group] = {m: _summary(pool, m) if pool else None for m in methods}
    snr_ref = settings.snr_db
    report = {
        "metadata": {
            "master_seeds": seeds,
            "methods": methods,
            "dictionary_kind": settings.dictionary_kind,
            "reference_snr_db": snr_ref if snr_ref is not None else "per-scenario",
            "dwell_frames": settings.dwell_frames,
            "ground_truth_frames": settings.ground_truth_frames,
            "sweep_seconds": {
                "minimal": sweep_duration(campaign.minimal_plan),
                "oversampled": sweep_duration(campaign.over_plan),
            },
            "naf_resolution": campaign.resolution,
            "cross_track_m_per_001_naf_at_18m": naf_error_to_cross_track_m(0.01, 18.0),
        },
        "scenarios": {
            scenario.name: {
                "kind": scenario.kind,
                "separation_naf": scenario.separation_naf,
                "nominal_nafs": list(scenario.target_nafs),
                "mean_ground_truth": [
                    float(np.mean([r.ground_truth[i] for r in runs])) for i in (0, 1)
                ],
                "mean_assigned_frames": [
                    float(np.mean([r.gt_counts[i] for r in runs])) for i in (0, 1)
                ],
            }
            for scenario, runs in outcomes
        },
        "per_scenario": {
            m: {scenario.name: _summary(runs, m) for scenario, runs in outcomes}
            for m in methods
        },
        "groups": groups,
    }
    ranking = sorted(
        (m for m in methods if groups["total"][m] is not None),
        key=lambda m: groups["total"][m]["pooled_rmse"],
    )
    report["ordering"] = {"total_pooled_rmse_ascending": ranking}
    return RmseReport(report)


def _write_spectrum_csv(path, grid, values) -> None:
    """A naf,value CSV, the format that reconstruct and detect read."""
    with open(path, "w", newline="") as fh:
        fh.write("naf,value\n")
        for g, v in zip(grid, values):
            fh.write(f"{float(g)!r},{float(v)!r}\n")


def _write_scenario_files(
    out: Path, scenario: Scenario, first: _SeedOutcome, minimal_grid: np.ndarray
) -> None:
    """One scenario's first-seed maps (.ramp) and minimal sweep."""
    from .ofdm import dump_ramp

    for m, map_ in first.maps.items():
        dump_ramp(map_, out / f"{scenario.name}_{m}.ramp")
    _write_spectrum_csv(out / f"{scenario.name}_sweep.csv", minimal_grid, first.sweep_values)


def _write_outputs(out: Path, report: RmseReport, outcomes: _Outcomes) -> None:
    """report.json, report.csv and peaks.csv."""
    report.write_json(out / "report.json")
    report.write_csv(out / "report.csv")
    with open(out / "peaks.csv", "w") as fh:
        fh.write("scenario,method,seed,naf,range_m,power\n")
        for scenario, runs in outcomes:
            for run in runs:
                for m, peaks in run.peaks.items():
                    for p in peaks:
                        fh.write(
                            f"{scenario.name},{m},{run.seed},{p.naf!r},{p.range_m!r},{p.power!r}\n"
                        )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask (taskset), else all."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def run_comparison(
    scenarios: Sequence[Scenario],
    methods: Sequence[str],
    seeds: Sequence[int],
    settings: EvalSettings = EvalSettings(),
    out_dir=None,
) -> RmseReport:
    """Score every method on every scenario over the given seeds.

    Returns the report; when out_dir is given, also writes report.json,
    report.csv and peaks.csv there, and per scenario its first-seed
    {scenario}_{method}.ramp maps and {scenario}_sweep.csv minimal sweep.
    Catalog scenarios draw from their catalog index's noise stream; the
    j-th other scenario draws from stream len(catalog) + j.

    Scenarios run on a pool of min(usable CPUs, scenarios) threads; the
    noise draw and the BLAS products release the GIL. Each scenario's
    first-seed files are written by its thread, the report files after the
    results are reduced in scenario order, so no output byte depends on the
    number of threads. Every scene is built, and every per-seed step's
    refusal of the settings (CFAR window, spline samples, peak count) made,
    before the pool starts, so a run that cannot complete fails before any
    file is written.
    """
    scenarios = list(scenarios)
    methods = list(methods)
    seeds = [int(s) for s in seeds]
    if not scenarios or not methods or not seeds:
        raise ConfigError("scenarios, methods and seeds must all be non-empty")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    if any(s < 0 for s in seeds):
        raise ConfigError("master seeds must be non-negative")
    names = [s.name for s in scenarios]
    for kind, given in (("scenario", names), ("method", methods)):
        repeated = sorted({n for n in given if given.count(n) > 1})
        if repeated:
            raise ConfigError(f"{kind} names must be unique; repeated: {repeated}")
    campaign = _build_campaign(settings)
    # what every seed of every scenario would refuse, refused before out_dir exists
    settings.cfar.check_profile_cells(int(np.count_nonzero(_window_basis(settings.radio).keep)))
    if "spline" in methods:
        _check_spline_samples(campaign.minimal_plan.n_beams)
    if settings.max_peaks < 1:
        raise ConfigError("max_peaks must be at least 1")
    stream = {s.name: i for i, s in enumerate(scenario_catalog())}
    for name in names:
        stream.setdefault(name, len(stream))
    # every scene is built, and so checked, before any thread or file exists;
    # its window bins cannot fail once the window basis is, so the first
    # seed that needs them builds them, in its worker
    scenes = [
        build_scene(
            s if settings.snr_db is None else dataclasses.replace(s, snr_db=settings.snr_db),
            settings.radio, campaign.geom, settings.include_rear_wall,
        )
        for s in scenarios
    ]
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    def run(scenario: Scenario, scene: Scene) -> List[_SeedOutcome]:
        runs = _run_scenario(campaign, scenario, scene, stream[scenario.name], seeds, methods)
        if out is not None:
            _write_scenario_files(out, scenario, runs[0], campaign.minimal_plan.beam_grid)
        return runs

    with ThreadPoolExecutor(min(_usable_cpus(), len(scenarios))) as pool:
        outcomes = list(zip(scenarios, pool.map(run, scenarios, scenes)))
    report = _build_report(campaign, outcomes, methods, seeds)
    if out is not None:
        _write_outputs(out, report, outcomes)
    return report
