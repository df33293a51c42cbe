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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import CubicSpline

from .beams import BeamformingWeights, Dictionary, build_dictionary
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
    dft_interpolate,
    dirichlet_resample,
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

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[1]

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
    centers = radio.range_axis()[window]
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


def _signal_window(
    scene: Scene,
    geom: ArrayGeometry,
    weights: BeamformingWeights,
    radio: RadioConfig,
    plan: SweepPlan,
) -> np.ndarray:
    """Noise-free window bins per beam: n_symbols times the scene profile
    seen through the window IDFT, (n_beams, n_window)."""
    return radio.n_symbols * scene_subcarrier_profile(
        radio, scene.scatterers, geom, weights, plan.beam_grid
    ) @ _window_basis(radio).idft


def _draw_acquisition(
    signal: np.ndarray,
    noise_power: float,
    radio: RadioConfig,
    n_frames: int,
    seed_prefix: Sequence[int],
    mode: str,
) -> Acquisition:
    """The seeded step of simulate_acquisition, from its signal window on."""
    if mode not in ("poc", "ideal"):
        raise ConfigError(f"unknown acquisition mode {mode!r}")
    if n_frames < 1:
        raise ConfigError("n_frames must be at least 1")
    basis = _window_basis(radio)
    n_beams, n_window = signal.shape
    rng = np.random.default_rng(tuple(int(s) for s in seed_prefix))
    noise = rng.standard_normal((n_beams, n_frames, 2 * n_window)).view(complex)
    noise *= np.sqrt(radio.n_symbols * noise_power / 2)
    # R^H R = W^H W: white noise times R has the covariance of white noise
    # seen through W. The product stays per beam: as one 2-D product it is
    # bitwise equal for n_frames > 1 only, because numpy sends 1-row
    # products through gemv.
    bins = noise @ basis.r_factor + signal[:, None, :]
    if mode == "poc":
        bins *= np.exp(2j * np.pi * rng.uniform(size=(n_beams, n_frames, 1)))
    profiles = np.abs(bins) ** 2
    magnitudes = np.sqrt(profiles[..., basis.keep].max(axis=-1))
    return Acquisition(magnitudes, profiles, basis.centers, basis.keep)


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
    default_rng(seed_prefix) draws the noise of every beam and frame in one
    call, then the phasors. The explicit per-symbol path (synthesize_csi,
    then the zero-Doppler column of range_doppler_periodogram) is the
    reference; the two agree exactly without noise and in distribution,
    inter-bin correlation included, with it. W and R depend on the radio
    config alone and are built once per config.

    mode "poc" multiplies each frame by a random unit phasor, modelling
    the free-running phase of the hardware; mode "ideal" leaves frames
    unrotated. Frames are combined only after |.|^2, so both modes give
    the same power and magnitudes.
    """
    signal = _signal_window(scene, geom, weights, radio, plan)
    return _draw_acquisition(signal, scene.noise_power, radio, n_frames, seed_prefix, mode)


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
    buckets: Tuple[List[float], List[float]] = ([], [])
    for peaks in frame_peak_nafs:
        for naf in peaks:
            t = int(np.argmin([abs(naf - g) for g in nominal_nafs]))
            buckets[t].append(naf)
    truth = tuple(
        float(np.median(b)) if b else float(nominal_nafs[t])
        for t, b in enumerate(buckets)
    )
    return truth, (len(buckets[0]), len(buckets[1]))


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
    mode: str = "poc"
    snr_db: Optional[float] = None  # overrides each scenario's own SNR
    include_rear_wall: bool = True

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry.uniform_linear(self.n_tx, self.n_rx)

    def weights(self) -> BeamformingWeights:
        return BeamformingWeights.all_ones(self.geometry())


@dataclass
class _SeedOutcome:
    ground_truth: Tuple[float, float]
    gt_counts: Tuple[int, int]
    estimates: Dict[str, List[float]]
    peaks: Dict[str, List[PeakEstimate]]
    maps: Dict[str, RangeAngleMap]
    sweep_values: np.ndarray  # minimal-sweep beam magnitudes


def _interpolated_map(
    kind: str,
    minimal_grid: np.ndarray,
    profiles9: np.ndarray,
    target_grid: np.ndarray,
    order: int,
) -> np.ndarray:
    """Interpolate windowed magnitude profiles across angle, return power."""
    mags = np.sqrt(profiles9)  # (9, n_range)
    if kind == "dft":
        dense = dirichlet_resample(minimal_grid, mags, target_grid, order)
    else:
        dense = CubicSpline(minimal_grid, mags, axis=0, bc_type="natural")(target_grid)
    return np.maximum(dense, 0.0) ** 2  # (n_angle, n_range)


@dataclass(frozen=True)
class _Campaign:
    """The seed-independent state of one run_comparison call, built once."""

    settings: EvalSettings
    geom: ArrayGeometry
    weights: BeamformingWeights
    over_plan: SweepPlan
    minimal_plan: SweepPlan
    min_idx: np.ndarray  # oversampled-grid index of each minimal beam
    order: int
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
    min_idx = np.nonzero(
        np.isclose(over_grid[:, None], minimal_plan.beam_grid[None, :], atol=1e-12).any(axis=1)
    )[0]
    if min_idx.size != minimal_plan.n_beams:
        raise ConfigError("minimal grid is not a subset of the oversampled grid")
    return _Campaign(
        settings, geom, weights, over_plan, minimal_plan, min_idx,
        2 * n_1d - 1, naf_resolution(n_1d), dictionary,
    )


def _run_seed(
    campaign: _Campaign,
    scenario: Scenario,
    scene: Scene,
    signal: np.ndarray,
    scenario_index: int,
    methods: Sequence[str],
    master_seed: int,
) -> _SeedOutcome:
    settings = campaign.settings
    minimal_plan = campaign.minimal_plan
    resolution = campaign.resolution
    acq = _draw_acquisition(
        signal, scene.noise_power, settings.radio,
        settings.ground_truth_frames, (master_seed, scenario_index), settings.mode,
    )
    over_grid = campaign.over_plan.beam_grid

    # ground truth: full detection pipeline on each single-frame spectrum
    frame_eligible, frame_ranges = _eligibility(
        acq.profiles.swapaxes(0, 1), acq.gate_keep, acq.range_centers_m, settings.cfar
    )
    frame_peaks = []
    for f in range(acq.n_frames):
        peaks = extract_peaks(
            acq.magnitudes[:, f], over_grid, resolution, settings.max_peaks,
            detected=frame_eligible[f], ranges_m=frame_ranges[f],
        )
        frame_peaks.append([p.naf for p in peaks])
    ground_truth, gt_counts = estimate_ground_truth(frame_peaks, scenario.target_nafs)

    dwell = settings.dwell_frames
    avg_profiles = acq.mean_profiles(dwell)
    beam_values = acq.beam_values(dwell)
    values9 = beam_values[campaign.min_idx]
    profiles9 = avg_profiles[campaign.min_idx]
    sweep9 = AngularSweep(minimal_plan, values9, "magnitude")

    estimates: Dict[str, List[float]] = {}
    peaks_by_method: Dict[str, List[PeakEstimate]] = {}
    maps: Dict[str, RangeAngleMap] = {}
    for method in methods:
        if method == "oversampled":
            eligible, ranges = _eligibility(
                avg_profiles, acq.gate_keep, acq.range_centers_m, settings.cfar
            )
            peaks = extract_peaks(
                beam_values, over_grid, resolution, settings.max_peaks,
                detected=eligible, ranges_m=ranges,
            )
            maps[method] = RangeAngleMap(
                avg_profiles.T, acq.range_centers_m, over_grid
            )
        elif method in ("dft", "spline"):
            spectrum = (
                dft_interpolate(sweep9, over_grid)
                if method == "dft"
                else spline_interpolate(sweep9, over_grid)
            )
            power_map = _interpolated_map(
                method, minimal_plan.beam_grid, profiles9, over_grid, campaign.order
            )
            eligible, ranges = _eligibility(
                power_map, acq.gate_keep, acq.range_centers_m, settings.cfar
            )
            peaks = extract_peaks(
                spectrum, over_grid, resolution, settings.max_peaks,
                detected=eligible, ranges_m=ranges,
            )
            maps[method] = RangeAngleMap(power_map.T, acq.range_centers_m, over_grid)
        elif method == "omp":
            estimate = omp(campaign.dictionary, values9, settings.omp)
            strongest = int(np.argmax(values9))
            gated = profiles9[strongest][acq.gate_keep]
            range_m = float(acq.range_centers_m[acq.gate_keep][np.argmax(gated)])
            peaks = sparse_to_peaks(estimate, over_grid, range_m)
        else:
            raise ConfigError(f"unknown method {method!r}")
        estimates[method] = [p.naf for p in peaks]
        peaks_by_method[method] = peaks
    return _SeedOutcome(ground_truth, gt_counts, estimates, peaks_by_method, maps, values9)


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


def _pool_scores(per_run: List[Tuple[List[float], Tuple[float, float]]]) -> ScoreSummary:
    return score_rmse([e for e, _ in per_run], [g for _, g in per_run])


def _summary_dict(s: ScoreSummary) -> dict:
    return {
        "rmse_per_target": list(s.rmse_per_target),
        "pooled_rmse": s.pooled_rmse,
        "pooled_variance": s.pooled_variance,
        "n_runs": s.n_runs,
        "n_missed": s.n_missed,
        "detection_rate": s.detection_rate,
    }


def run_comparison(
    scenarios: Sequence[Scenario],
    methods: Sequence[str],
    seeds: Sequence[int],
    settings: EvalSettings = EvalSettings(),
    out_dir=None,
) -> RmseReport:
    """Score every method on every scenario over the given seeds.

    Returns the report; when out_dir is given, also writes report.json,
    report.csv, per-scenario peak CSVs and first-seed map dumps there.
    """
    from pathlib import Path

    from .ofdm import dump_csv, dump_ramp

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
    campaign = _build_campaign(settings)

    catalog_index = {s.name: i for i, s in enumerate(scenario_catalog())}
    results: Dict[str, Dict[str, List[Tuple[List[float], Tuple[float, float]]]]] = {
        m: {} for m in methods
    }
    gt_info: Dict[str, dict] = {}
    peak_rows: List[str] = []
    first_maps: Dict[Tuple[str, str], RangeAngleMap] = {}
    first_sweeps: Dict[str, np.ndarray] = {}
    for scenario in scenarios:
        idx = catalog_index.get(scenario.name, len(catalog_index))
        simulated = (
            scenario if settings.snr_db is None
            else dataclasses.replace(scenario, snr_db=settings.snr_db)
        )
        scene = build_scene(simulated, settings.radio, campaign.geom, settings.include_rear_wall)
        signal = _signal_window(
            scene, campaign.geom, campaign.weights, settings.radio, campaign.over_plan
        )
        truths = []
        counts = []
        for seed in seeds:
            outcome = _run_seed(campaign, scenario, scene, signal, idx, methods, seed)
            truths.append(outcome.ground_truth)
            counts.append(outcome.gt_counts)
            for m in methods:
                results[m].setdefault(scenario.name, []).append(
                    (outcome.estimates[m], outcome.ground_truth)
                )
                for p in outcome.peaks[m]:
                    peak_rows.append(
                        f"{scenario.name},{m},{seed},{p.naf!r},{p.range_m!r},{p.power!r}"
                    )
            if seed == seeds[0]:
                first_sweeps[scenario.name] = outcome.sweep_values
                for m, map_ in outcome.maps.items():
                    first_maps[(scenario.name, m)] = map_
        gt_info[scenario.name] = {
            "kind": scenario.kind,
            "separation_naf": scenario.separation_naf,
            "nominal_nafs": list(scenario.target_nafs),
            "mean_ground_truth": [float(np.mean([t[i] for t in truths])) for i in (0, 1)],
            "mean_assigned_frames": [float(np.mean([c[i] for c in counts])) for i in (0, 1)],
        }

    per_scenario = {
        m: {name: _pool_scores(runs) for name, runs in results[m].items()}
        for m in methods
    }
    groups: Dict[str, dict] = {"reflectors": {}, "walls": {}, "total": {}}
    for m in methods:
        for group, kinds in (
            ("reflectors", ("octahedral",)),
            ("walls", ("wall",)),
            ("total", ("octahedral", "wall")),
        ):
            pool = [
                run
                for s in scenarios
                if s.kind in kinds
                for run in results[m][s.name]
            ]
            groups[group][m] = _summary_dict(_pool_scores(pool)) if pool else None

    snr_ref = settings.snr_db
    report = {
        "metadata": {
            "master_seeds": seeds,
            "methods": methods,
            "mode": settings.mode,
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
        "scenarios": gt_info,
        "per_scenario": {
            m: {name: _summary_dict(s) for name, s in per_scenario[m].items()}
            for m in methods
        },
        "groups": groups,
    }
    ranking = sorted(
        (m for m in methods if groups["total"][m] is not None),
        key=lambda m: groups["total"][m]["pooled_rmse"],
    )
    report["ordering"] = {"total_pooled_rmse_ascending": ranking}
    result = RmseReport(report)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.write_json(out / "report.json")
        result.write_csv(out / "report.csv")
        with open(out / "peaks.csv", "w") as fh:
            fh.write("scenario,method,seed,naf,range_m,power\n")
            for row in peak_rows:
                fh.write(row + "\n")
        for (name, m), map_ in first_maps.items():
            dump_ramp(map_, out / f"{name}_{m}.ramp")
            dump_csv(map_, out / f"{name}_{m}.csv")
        for name, values in first_sweeps.items():
            with open(out / f"{name}_sweep.csv", "w") as fh:
                fh.write("naf,value\n")
                for g, v in zip(campaign.minimal_plan.beam_grid, values):
                    fh.write(f"{float(g)!r},{float(v)!r}\n")
    return result
