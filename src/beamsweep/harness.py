"""End-to-end evaluation: simulate sweeps, estimate angles, score against truth.

One recorded oversampled acquisition (24 frames per beam by default) feeds
everything, the way a captured dataset would: the minimal sweep is every
tenth beam of it, methods average the first six frames, and ground truth is
the per-target median over all 24 single-frame estimates of the oversampled
pipeline. Each acquisition draws from one noise stream derived from (master
seed, scenario index), so reports are byte-reproducible. run_comparison
draws the (scenario, seed) runs on a thread pool and estimates them in
stacked blocks; each stacked step treats every run on its own, bit for bit,
so neither the thread count nor the block size moves an output byte.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .beams import (
    DICTIONARY_KINDS,
    BeamformingWeights,
    Dictionary,
    Scatterer,
    _scene_gains,
    build_dictionary,
)
from .detection import CfarConfig, PeakEstimate, ca_cfar, extract_peaks
from .errors import ConfigError
from .geometry import ArrayGeometry, naf_resolution
from .ofdm import RadioConfig, RangeAngleMap, _delay_phases, _write_bytes
from .omp import OmpConfig, omp, sparse_to_peaks
from .reconstruct import (
    AngularSweep,
    SweepPlan,
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
    """Per-beam sweep measurements, reduced to what the pipeline reads.

    magnitudes[b, f] is the square root of the gated max power of beam b in
    frame f; mean_profile[b] is its windowed zero-Doppler power profile
    averaged over its first mean_frames frames: the plan's dwell, or every
    frame of a shorter recording. Drawn with a CFAR config, eligible[b, f]
    is the CFAR eligibility of frame f's gated argmax bin (_gated_detection).
    """

    magnitudes: np.ndarray
    mean_profile: np.ndarray
    mean_frames: int
    range_centers_m: np.ndarray  # windowed display bin centers
    gate_keep: np.ndarray  # bool per display bin, False inside the exclusion
    eligible: Optional[np.ndarray] = None

    def beam_values(self) -> np.ndarray:
        """Per-beam mean magnitude over the first mean_frames frames."""
        return self.magnitudes[:, : self.mean_frames].mean(axis=1)

    def mean_profiles(self) -> np.ndarray:
        """Per-beam power profile averaged over the first mean_frames frames."""
        return self.mean_profile


@dataclass(frozen=True)
class _WindowBasis:
    """What the display window of one radio config fixes for every sweep."""

    centers: np.ndarray  # range of each window bin (m)
    keep: np.ndarray  # False inside the range exclusion
    r_factor: np.ndarray  # R of W = QR (W = _window_idft), so R^H R = W^H W


# The most that one dictionary build or one campaign's outcome tables may
# take, the sizes that run-time input sets (a CSV's beams, seeds, scenarios);
# the settings caps (_CAPS, ofdm._CAPS) bound everything else a campaign holds.
_BUDGET_BYTES = 256 * 2**20


def _check_budget(nbytes: int, what: str) -> None:
    """Refuse an allocation of nbytes, before it exists, if it passes the budget."""
    if nbytes > _BUDGET_BYTES:
        raise ConfigError(f"{what} {nbytes} bytes, more than the {_BUDGET_BYTES} allowed")


def _window_idft(radio: RadioConfig) -> np.ndarray:
    """W, the (n_subcarriers, n_window) IDFT rows of the window bins; built
    per call, since only R and _signal_window's cache misses read it."""
    n_fft, window = radio.range_fft_size, radio.window_bins()
    # the index product is reduced mod n_fft first so the phase argument
    # stays below 2*pi
    return np.exp(
        2j * np.pi * (np.outer(np.arange(radio.n_subcarriers), window) % n_fft) / n_fft
    ) / n_fft


@functools.lru_cache(maxsize=8)
def _window_basis(radio: RadioConfig) -> _WindowBasis:
    """Built on first use per (hashable, frozen) radio config; arrays read-only."""
    centers = radio.window_bins() * radio.range_bin_width_m
    lo, hi = RANGE_GATE_EXCLUDE_M
    keep = ~((centers >= lo) & (centers <= hi))
    if not np.any(keep):
        raise ConfigError("range exclusion removes every display bin")
    # The Gram matrix W^H W itself (condition number ~1e17) is too
    # ill-conditioned for a Cholesky factor.
    basis = _WindowBasis(centers, keep, np.linalg.qr(_window_idft(radio), mode="r"))
    for arr in vars(basis).values():
        arr.flags.writeable = False
    return basis


# (beam, frame) rows per chunk of the draw, which bound its workspace: at 42
# window bins a chunk's noise and bins take 0.87 MB (27 beams of 24 frames),
# against 2.6 MB for a whole 81 x 24 acquisition; 81 x 6 is one chunk.
_DRAW_CHUNK_ROWS = 648


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
    A miss builds the window IDFT afresh. The profile is separable, each
    beam's gain per scatterer times that scatterer's delay response, so
    each delay response goes through the window IDFT once and the beams
    weight the results: no (beam, subcarrier) array is made.
    """
    idft = _window_idft(radio)
    gains = _scene_gains(geom, weights, scatterers, plan.beam_grid)
    signal = radio.n_symbols * gains @ (_delay_phases(radio, scatterers) @ idft)
    signal.flags.writeable = False
    return signal


@functools.lru_cache(maxsize=4)
def _dictionary(
    geom: ArrayGeometry,
    weights: BeamformingWeights,
    beam_plan: SweepPlan,
    candidate_plan: SweepPlan,
    kind: str,
) -> Dictionary:
    """build_dictionary over the two plans' grids, cached on the arguments'
    content like _signal_window; the atoms are read-only.

    Every campaign and every reconstruct --method omp call on equal
    settings shares one entry. The default 9 x 81 entry is 5.8 KB. A CSV
    sets the beam count, so a build whose largest arrays, the complex TX and
    RX phasors of every (beam, candidate) lag, pass _BUDGET_BYTES is refused.
    """
    n_beams, n_candidates = beam_plan.n_beams, candidate_plan.n_beams
    what = f"{n_beams} beams and {n_candidates} OMP candidates give a dictionary build of"
    _check_budget(16 * n_beams * n_candidates * (geom.n_tx + geom.n_rx), what)
    dictionary = build_dictionary(
        geom, weights, beam_plan.beam_grid, candidate_plan.beam_grid, kind
    )
    dictionary.atoms.flags.writeable = False
    return dictionary


def _gated_detection(
    profiles: np.ndarray, keep: np.ndarray, cfar: CfarConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one detection rule: each profile's gated bins, the index of their
    argmax (shaped (..., 1)) and that bin's CFAR eligibility (...).

    The draw's per-frame flags, which the ground truth reads, come from here,
    and through _eligibility the methods' maps and OMP's range.
    """
    gated = profiles[..., keep]
    i = np.argmax(gated, axis=-1)[..., None]
    return gated, i, ca_cfar(gated, cfar, cells=i)[..., 0]


def _eligibility(
    profiles: np.ndarray, keep: np.ndarray, centers: np.ndarray, cfar: CfarConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-angle CFAR eligibility of the gated argmax bin, plus its range.

    profiles is (..., n_beams, n_range); both results are (..., n_beams).
    """
    _, i, eligible = _gated_detection(profiles, keep, cfar)
    return eligible, centers[keep][i[..., 0]]


def simulate_acquisition(
    scene: Scene,
    geom: ArrayGeometry,
    weights: BeamformingWeights,
    radio: RadioConfig,
    plan: SweepPlan,
    n_frames: int,
    seed_prefix: Sequence[int],
    mode: str = "poc",
    cfar: Optional[CfarConfig] = None,
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
    with it. R depends on the radio config alone and is built once per
    config; the noise-free bins are built once per (scatterers, geometry,
    weights, radio, plan) and reused by every seed.

    Each chunk's power is reduced in the workspace to what the pipeline
    reads (see Acquisition), the means over the plan's first dwell_frames
    frames, or over all n_frames when fewer: every reduction works row by
    row, so it has the bits of the same reduction over the whole (beam,
    frame, window) power cube, which never exists.

    mode must be "poc". Frames are combined only after |.|^2, so a
    per-frame phase, such as the free-running phase of the hardware, would
    change no output, and none is drawn.
    """
    if mode != "poc":
        raise ConfigError(f"unknown acquisition mode {mode!r}")
    if n_frames < 1:
        raise ConfigError("n_frames must be at least 1")
    mean_frames = min(plan.dwell_frames, n_frames)
    basis = _window_basis(radio)
    signal = _signal_window(scene.scatterers, geom, weights, radio, plan)
    n_beams, n_window = signal.shape
    rng = np.random.default_rng(tuple(int(s) for s in seed_prefix))
    scale = np.sqrt(radio.n_symbols * scene.noise_power / 2)
    chunk = max(1, min(n_beams, _DRAW_CHUNK_ROWS // n_frames))
    noise_ws, bins_ws = np.empty((2, chunk, n_frames, n_window), dtype=complex)
    magnitudes = np.empty((n_beams, n_frames))
    mean_profile = np.empty((n_beams, n_window))
    eligible = None if cfar is None else np.empty((n_beams, n_frames), dtype=bool)
    for lo in range(0, n_beams, chunk):
        hi = min(lo + chunk, n_beams)
        noise, bins = noise_ws[: hi - lo], bins_ws[: hi - lo]
        # the stream of a fresh (n_beams, n_frames, 2 * n_window) normal draw
        rng.standard_normal(out=noise.view(float))
        noise *= scale
        # R^H R = W^H W: white noise times R has the covariance of white
        # noise seen through W. Over several frames the chunk's rows make
        # one 2-D product (the reshapes are views of the workspace rows),
        # bitwise equal to the per-beam products; with one frame it stays
        # per beam, because numpy sends 1-row products through gemv.
        if n_frames > 1:
            np.matmul(noise.reshape(-1, n_window), basis.r_factor, out=bins.reshape(-1, n_window))
        else:
            np.matmul(noise, basis.r_factor, out=bins)
        bins += signal[lo:hi, None, :]
        # the noise is spent once it is in the bins: its real parts take the power
        power = np.abs(bins, out=noise.real)
        try:
            with np.errstate(over="raise"):
                power **= 2
                np.mean(power[:, :mean_frames], axis=1, out=mean_profile[lo:hi])
        except FloatingPointError:
            raise ConfigError("window-bin power overflows the float range") from None
        # one gated copy per chunk; with a CFAR config, the peak is read at
        # the argmax that the eligibility tests, which holds the max's bits
        if cfar is None:
            peak = power[..., basis.keep].max(axis=-1)
        else:
            gated, i, eligible[lo:hi] = _gated_detection(power, basis.keep, cfar)
            peak = np.take_along_axis(gated, i, axis=-1)[..., 0]
        magnitudes[lo:hi] = np.sqrt(peak)
    return Acquisition(magnitudes, mean_profile, mean_frames, basis.centers, basis.keep, eligible)


def estimate_ground_truth(
    frame_peak_nafs: Sequence[Sequence[float]],
    nominal_nafs: Sequence[float],
) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
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
        _median(b) if b.size else float(nominal_nafs[t]) for t, b in enumerate(buckets)
    )
    return truth, tuple(b.size for b in buckets)


def _median(values: np.ndarray) -> float:
    """np.median's value, the mean of the two middle values for an even
    count, without the numpy.ma import that np.median makes on first use."""
    s = np.sort(values)
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2)


def naf_error_to_cross_track_m(naf_error: float, range_m: float) -> float:
    """Cross-track displacement of a NAF error at the given range."""
    if not (math.isfinite(naf_error) and math.isfinite(range_m)):
        raise ConfigError("NAF error and range must be finite")
    if range_m <= 0:
        raise ConfigError("range must be positive")
    return range_m * math.asin(max(-1.0, min(1.0, naf_error)))


def score_rmse(estimates, ground_truths) -> dict:
    """Score per-run estimates against per-run ground truths.

    estimates is (runs, slots): each run's estimate NAFs, NaN-padded;
    ground_truths is (runs, targets). Each target is matched to its run's
    nearest estimate (estimates may be reused; ties go to the first slot).
    Runs with no estimates count as misses and contribute no errors. The
    pooled errors run target by target, runs in order within each.
    Returns the report's summary entry for one (scenario group, method).
    """
    try:
        est = np.asarray(estimates, dtype=float)
        truth = np.asarray(ground_truths, dtype=float)
    except ValueError:  # a ragged list, or a value that is not a number
        raise ConfigError("estimates and ground truths must be numeric tables") from None
    if len(est) != len(truth):
        raise ConfigError("one estimate row per ground-truth row required")
    if not len(truth):
        raise ConfigError("cannot score zero runs")
    if est.ndim != 2 or truth.ndim != 2 or not est.shape[1]:
        raise ConfigError("estimates must be (runs, slots) and ground truths (runs, targets)")
    hit = ~np.isnan(est).all(axis=1)
    est, truth = est[hit], truth[hit]
    distance = np.abs(est[:, None, :] - truth[:, :, None])
    distance[np.isnan(distance)] = np.inf
    nearest = np.take_along_axis(est, distance.argmin(axis=-1), axis=1)
    errors = np.ascontiguousarray((nearest - truth).T)  # (targets, hit runs)
    pooled = errors.ravel()
    missed = len(hit) - len(est)
    return {
        "rmse_per_target": [
            float(np.sqrt(np.mean(np.square(e)))) if e.size else math.nan for e in errors
        ],
        "pooled_rmse": float(np.sqrt(np.mean(pooled**2))) if pooled.size else math.nan,
        "pooled_variance": float(np.var(pooled)) if pooled.size else math.nan,
        "n_runs": len(hit),
        "n_missed": missed,
        "detection_rate": 1.0 - missed / len(hit),
    }


# The largest settings whose worst campaign was measured inside the memory
# budget (README, "Memory"); n_rx must equal n_tx. Past 648 truth frames, a
# draw chunk (one beam of all its frames) would leave the row budget.
_CAPS = {"n_tx": 12, "oversampling_factor": 50, "ground_truth_frames": _DRAW_CHUNK_ROWS}


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
        for name, cap in _CAPS.items():
            if getattr(self, name) > cap:
                raise ConfigError(f"{name} ({getattr(self, name)}) must not exceed {cap}")
        if self.dictionary_kind not in DICTIONARY_KINDS:
            raise ConfigError(f"unknown dictionary kind {self.dictionary_kind!r}")

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry.uniform_linear(self.n_tx, self.n_rx)

    def weights(self) -> BeamformingWeights:
        return BeamformingWeights.all_ones(self.geometry())


@dataclass(frozen=True)
class _Runs:
    """Every seed of one scenario, one row per seed in seed order."""

    truth: np.ndarray  # (seeds, targets) ground-truth NAF
    counts: np.ndarray  # (seeds, targets) frames assigned to each target
    peaks: np.ndarray  # (seeds, methods, slots, 3): naf, range_m, power; NaN-padded
    maps: Dict[str, RangeAngleMap]  # the first seed's
    sweep_values: np.ndarray  # the first seed's minimal-sweep beam magnitudes


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
    dictionary: Optional[Dictionary]  # built only for a campaign with omp
    slots: int  # the most peaks one run of a method can return


def _build_campaign(settings: EvalSettings, methods: Sequence[str]) -> _Campaign:
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
    # built once, here: concurrent misses of its cache in the workers would
    # each build it
    _window_basis(radio)
    dictionary = None
    if "omp" in methods:
        dictionary = _dictionary(geom, weights, minimal_plan, over_plan, settings.dictionary_kind)
    # the lattice keeps every minimal beam k/M0 as its point k*factor, so the
    # minimal beams are the centre one and every factor-th one out from it
    n_beams, half = over_plan.n_beams, minimal_plan.n_beams // 2
    min_idx = n_beams // 2 + settings.oversampling_factor * np.arange(-half, half + 1)
    # extract_peaks and OMP return at most max_peaks and max_atoms peaks, and
    # at most one per grid point; a max_peaks below 1 is refused in the workers
    widths = [settings.omp.max_atoms if m == "omp" else settings.max_peaks for m in methods]
    return _Campaign(
        settings, geom, weights, over_plan, minimal_plan, min_idx,
        naf_resolution(n_1d), dictionary, max(0, min(max(widths), n_beams)),
    )


def _empty_runs(campaign: _Campaign, scenario: Scenario, n_seeds: int, n_methods: int) -> _Runs:
    """One scenario's outcome table before any run: NaN-padded peak slots."""
    shape = (n_seeds, len(scenario.target_nafs))
    return _Runs(
        np.empty(shape), np.empty(shape, dtype=int),
        np.full((n_seeds, n_methods, campaign.slots, 3), np.nan),
        {}, np.empty(campaign.minimal_plan.n_beams),
    )


# A run is (scenario, its outcome table, its seed's row). Runs are estimated
# in blocks of at most _BLOCK_RUNS, one stacked pass per block, as long as
# the block's truth magnitudes stay within _BLOCK_ROWS (beam, frame) rows:
# four runs at the defaults (81 beams x 24 frames), one at the settings caps.
_BLOCK_RUNS = 4
_BLOCK_ROWS = 4 * 81 * 24
_Run = Tuple[Scenario, _Runs, int]


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """np.stack, but one array becomes a view with a leading axis of 1: a
    block of one run, as at the settings caps, copies none of its arrays."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _estimate(
    campaign: _Campaign, methods: Sequence[str], block: Sequence[_Run],
    acqs: Sequence[Acquisition],
) -> None:
    """Estimate every run of block from its acquisition and write its row.

    The runs go through each step stacked: one truth peak pass over every
    run's frames, one interpolation per method and one eligibility and peak
    pass over every run's mapped methods, one eligibility pass over every
    run's minimal profiles for OMP's range, and OMP per run. Each of these
    treats the stacked rows or columns on their own, bit for bit as a
    one-run call would (see their N-D contracts), so no row depends on the
    block. The first seed's row also keeps the range-angle maps and sweep
    values, which the output files show, copied out of the stacked arrays.
    """
    settings = campaign.settings
    over_grid = campaign.over_plan.beam_grid
    keep, centers = acqs[0].gate_keep, acqs[0].range_centers_m
    mapped = [m for m in methods if m != "omp"]

    # ground truth: full detection pipeline on each single-frame spectrum
    frame_peaks = extract_peaks(
        _stack([acq.magnitudes.T for acq in acqs]), over_grid, campaign.resolution,
        settings.max_peaks, detected=_stack([acq.eligible.T for acq in acqs]),
    )
    n_frames = settings.ground_truth_frames
    for k, (scenario, runs, i) in enumerate(block):
        runs.truth[i], runs.counts[i] = estimate_ground_truth(
            [[p.naf for p in peaks] for peaks in frame_peaks[k * n_frames:(k + 1) * n_frames]],
            scenario.target_nafs,
        )

    beam_values = _stack([acq.beam_values() for acq in acqs])  # (runs, beams)
    avg_profiles = _stack([acq.mean_profiles() for acq in acqs])  # (runs, beams, range)
    values9 = beam_values[:, campaign.min_idx]
    profiles9 = avg_profiles[:, campaign.min_idx]
    # the beam values and the windowed profiles as magnitudes per range bin,
    # one sweep column each: an interpolator treats every column on its own
    columns = np.concatenate((values9[..., None], np.sqrt(profiles9)), axis=-1)
    sweep9 = AngularSweep(campaign.minimal_plan, columns.transpose(1, 0, 2))
    # each method's spectra (runs, beams) and power maps (runs, beams, range)
    spectra, power_maps = {}, {}
    for method in mapped:  # run_comparison has checked every name
        if method == "oversampled":
            spectra[method], power_maps[method] = beam_values, avg_profiles
            continue
        interpolate = dft_interpolate if method == "dft" else spline_interpolate
        dense = interpolate(sweep9, over_grid).transpose(1, 0, 2)  # (runs, beams, 1 + range)
        spectra[method] = dense[..., 0]
        try:
            with np.errstate(over="raise"):
                power_maps[method] = np.maximum(dense[..., 1:], 0.0) ** 2
        except FloatingPointError:
            raise ConfigError(f"{method} map power overflows the float range") from None

    found: List[List[PeakEstimate]] = []
    if mapped:
        maps = np.stack([power_maps[m] for m in mapped], axis=1)  # (runs, methods, beams, range)
        eligible, ranges = _eligibility(maps, keep, centers, settings.cfar)
        found = extract_peaks(
            np.stack([spectra[m] for m in mapped], axis=1), over_grid, campaign.resolution,
            settings.max_peaks, detected=eligible, ranges_m=ranges,
        )
    if "omp" in methods:
        _, omp_ranges = _eligibility(profiles9, keep, centers, settings.cfar)
    for k, (_, runs, i) in enumerate(block):
        method_peaks = dict(zip(mapped, found[k * len(mapped):(k + 1) * len(mapped)]))
        if "omp" in methods:
            estimate = omp(campaign.dictionary, values9[k], settings.omp)
            range_m = float(omp_ranges[k, np.argmax(values9[k])])  # the strongest minimal beam's
            method_peaks["omp"] = sparse_to_peaks(estimate, over_grid, range_m)
        for m, method in enumerate(methods):
            for slot, p in enumerate(method_peaks[method]):
                runs.peaks[i, m, slot] = p.naf, p.range_m, p.power
        if i == 0:
            for method in mapped:
                # a view of a stacked map would pin every run's map of the block
                power = power_maps[method][k].T
                runs.maps[method] = RangeAngleMap(
                    power.copy() if len(block) > 1 else power, centers, over_grid
                )
            runs.sweep_values[:] = values9[k]


def _nan_to_null(value):
    """A copy of a report's dicts and lists with None for every NaN."""
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_nan_to_null(v) for v in value]
    return None if isinstance(value, float) and math.isnan(value) else value


# each report group, in report.csv's row order, and the scenario kinds it pools
_GROUPS = {"reflectors": ("octahedral",), "walls": ("wall",), "total": ("octahedral", "wall")}


@dataclass(frozen=True)
class RmseReport:
    """Comparison results, JSON/CSV-exportable and byte-deterministic."""

    data: dict

    def to_json_bytes(self) -> bytes:
        """Strict JSON: a NaN score is written as null; an infinity raises."""
        text = json.dumps(_nan_to_null(self.data), indent=2, sort_keys=True, allow_nan=False)
        return (text + "\n").encode()

    def write_json(self, path) -> None:
        _write_bytes(path, self.to_json_bytes())

    def write_csv(self, path) -> None:
        methods = self.data["metadata"]["methods"]
        # the total group pools every scenario, so all of them have its targets
        n_targets = len(next(iter(self.data["scenarios"].values()))["nominal_nafs"])

        def cell(group: str, m: str, pick) -> str:
            entry = self.data["groups"][group][m]
            return repr(pick(entry)) if entry is not None else "nan"

        lines = ["group,target," + ",".join(methods)]
        for group in _GROUPS:
            for t in range(n_targets):
                cells = [cell(group, m, lambda e: e["rmse_per_target"][t]) for m in methods]
                lines.append(f"{group},t{t + 1}," + ",".join(cells))
        cells = [cell("total", m, lambda e: e["pooled_rmse"]) for m in methods]
        lines.append("total,pooled," + ",".join(cells))
        _write_bytes(path, ("\n".join(lines) + "\n").encode())

    def total_rmse(self, method: str) -> float:
        return self.data["groups"]["total"][method]["pooled_rmse"]


def _summaries(tables: Sequence[_Runs], methods: Sequence[str]) -> dict:
    """Each method's score_rmse entry over the rows of tables, in order."""
    truth = np.concatenate([r.truth for r in tables])
    nafs = np.concatenate([r.peaks[..., 0] for r in tables])
    return {m: score_rmse(nafs[:, k], truth) for k, m in enumerate(methods)}


_Outcomes = List[Tuple[Scenario, _Runs]]


def _build_report(
    campaign: _Campaign, outcomes: _Outcomes, methods: List[str], seeds: List[int]
) -> RmseReport:
    """Pool the per-seed outcomes, in scenario order, into the report."""
    settings = campaign.settings
    groups = {}
    for group, kinds in _GROUPS.items():
        pool = [runs for scenario, runs in outcomes if scenario.kind in kinds]
        groups[group] = _summaries(pool, methods) if pool else dict.fromkeys(methods)
    per_scenario = {s.name: _summaries([runs], methods) for s, runs in outcomes}
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
                "mean_ground_truth": [float(np.mean(t)) for t in runs.truth.T],
                "mean_assigned_frames": [float(np.mean(c)) for c in runs.counts.T],
            }
            for scenario, runs in outcomes
        },
        "per_scenario": {
            m: {name: entries[m] for name, entries in per_scenario.items()} for m in methods
        },
        "groups": groups,
    }
    # a method with no detection has a NaN RMSE: it ranks last
    rmse = {m: groups["total"][m]["pooled_rmse"] for m in methods}
    ranking = sorted(methods, key=lambda m: (math.isnan(rmse[m]), rmse[m]))
    report["ordering"] = {"total_pooled_rmse_ascending": ranking}
    return RmseReport(report)


def _write_spectrum_csv(path, grid, values) -> None:
    """A naf,value CSV, the format that reconstruct and detect read."""
    pairs = zip(np.asarray(grid, dtype=float).tolist(), np.asarray(values, dtype=float).tolist())
    _write_bytes(path, ("naf,value\n" + "".join(f"{g!r},{v!r}\n" for g, v in pairs)).encode())


def _write_outputs(
    out: Path, report: RmseReport, outcomes: _Outcomes, minimal_grid: np.ndarray
) -> None:
    """Create out, then write report.json, report.csv, peaks.csv and, per
    scenario, its first-seed maps (.ramp) and minimal sweep."""
    from .ofdm import dump_ramp

    out.mkdir(parents=True, exist_ok=True)
    report.write_json(out / "report.json")
    report.write_csv(out / "report.csv")
    meta = report.data["metadata"]
    lines = ["scenario,method,seed,naf,range_m,power\n"]
    for scenario, runs in outcomes:
        found = ~np.isnan(runs.peaks[..., 0])  # in (seed, method, slot) order
        for (i, k, _), peak in zip(np.argwhere(found).tolist(), runs.peaks[found].tolist()):
            row = [scenario.name, meta["methods"][k], str(meta["master_seeds"][i])]
            lines.append(",".join(row + [repr(v) for v in peak]) + "\n")
    _write_bytes(out / "peaks.csv", "".join(lines).encode())
    for scenario, runs in outcomes:
        for m, map_ in runs.maps.items():
            dump_ramp(map_, out / f"{scenario.name}_{m}.ramp")
        _write_spectrum_csv(out / f"{scenario.name}_sweep.csv", minimal_grid, runs.sweep_values)


def _quoted(values: list) -> str:
    """values as a list, cut after its first 8: a refusal stays one short line."""
    return repr(values) if len(values) <= 8 else repr(values[:8])[:-1] + ", …]"


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask (taskset), else all."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _draw_and_estimate(
    campaign: _Campaign, methods: Sequence[str], block: Sequence[_Run],
    drawn: Sequence[Future], draw_last: Callable[[], Acquisition],
) -> None:
    """A block's pool task: draw its last run, collect the draws of the
    others, submitted before it, then estimate the block. Drawing one run
    here keeps the worker busy while the others finish.

    The pool's queue is first in, first out, so the awaited draws have
    started before this task does, and waiting cannot deadlock. Refusals
    come as the serial (scenario, seed) order meets them: a draw that
    refuses ends the block, after the runs before it are estimated, so a
    refusal of theirs is the one raised.
    """
    last: Future = Future()
    try:
        last.set_result(draw_last())
    except ConfigError as exc:
        last.set_exception(exc)
    acqs: List[Acquisition] = []
    refused = None
    try:
        for future in (*drawn, last):
            acqs.append(future.result())
    except ConfigError as exc:
        refused = exc
    if acqs:
        try:
            _estimate(campaign, methods, block[: len(acqs)], acqs)
        except ConfigError:
            # a stacked pass that refuses is run again one run at a time, so
            # the refusal raised is the first refusing run's, as in the
            # serial order
            for run, acq in zip(block, acqs):
                _estimate(campaign, methods, [run], [acq])
            raise
    if refused is not None:
        raise refused


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

    The runs, (scenario, seed) pairs, go to a pool of min(usable CPUs,
    runs) threads in blocks, in (scenario, seed) order: each run of a block
    but the last draws in its own task, and one more task draws the last
    run and then estimates the block in one stacked pass (_estimate), while
    the next block draws. The noise draw and the BLAS products release the
    GIL. Each run draws from its own seeded stream, and the stacked pass
    gives each run the bits of a one-run pass, so no output byte depends on
    the number of threads or on the block size. A refusal is the one the
    serial (scenario, seed) order meets first. out_dir is created, and every
    file written, in the calling thread once every run has been estimated,
    so a run that fails anywhere leaves no out_dir.
    """
    scenarios = list(scenarios)
    methods = list(methods)
    if not scenarios or not methods or not len(seeds):
        raise ConfigError("scenarios, methods and seeds must all be non-empty")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}")
    campaign = _build_campaign(settings, methods)
    # every scenario's outcome table (_Runs), counted before any of them, or
    # the list of seeds, exists: per seed its rows, and once its first-seed
    # maps, one (beam, range bin) float each for every method but omp, and
    # minimal-sweep values
    row = sum(len(methods) * campaign.slots * 24 + len(s.target_nafs) * 16 for s in scenarios)
    n_maps = sum(m != "omp" for m in methods)
    map_bins = n_maps * campaign.over_plan.n_beams * settings.radio.n_range_bins
    first = 8 * (map_bins + campaign.minimal_plan.n_beams)
    _check_budget(
        len(seeds) * row + len(scenarios) * first,
        f"{len(seeds)} seeds of {len(scenarios)} scenarios give outcome tables of",
    )

    def whole(seed) -> bool:
        try:
            return int(seed) == seed
        except (ValueError, OverflowError):  # a NaN or infinite seed
            return False

    not_whole = [s for s in seeds if not whole(s)]
    if not_whole:
        raise ConfigError(f"master seeds must be whole numbers; not whole: {_quoted(not_whole)}")
    seeds = [int(s) for s in seeds]
    if any(s < 0 for s in seeds):
        raise ConfigError("master seeds must be non-negative")
    names = [s.name for s in scenarios]
    for what, given in (
        ("scenario names", names), ("method names", methods), ("master seeds", seeds)
    ):
        repeated = sorted(n for n, k in collections.Counter(given).items() if k > 1)
        if repeated:
            raise ConfigError(f"{what} must be unique; repeated: {_quoted(repeated)}")
    stream = {s.name: i for i, s in enumerate(scenario_catalog())}
    for name in names:
        stream.setdefault(name, len(stream))
    # every scene is built, and so checked, before any thread starts
    scenes = [
        build_scene(
            s if settings.snr_db is None else dataclasses.replace(s, snr_db=settings.snr_db),
            settings.radio, campaign.geom, settings.include_rear_wall,
        )
        for s in scenarios
    ]
    tables = [_empty_runs(campaign, s, len(seeds), len(methods)) for s in scenarios]
    frames = settings.ground_truth_frames
    size = max(1, min(_BLOCK_RUNS, _BLOCK_ROWS // (campaign.over_plan.n_beams * frames)))
    order = ((k, i) for k in range(len(scenarios)) for i in range(len(seeds)))
    workers = min(_usable_cpus(), len(scenarios) * len(seeds))
    # blocks in flight: enough to keep every worker busy, and one more, so
    # the next block draws while the current one is estimated
    depth = -(-workers // size) + 1
    window = (campaign.geom, campaign.weights, settings.radio, campaign.over_plan)

    def draw(k: int, i: int) -> Acquisition:
        return simulate_acquisition(
            scenes[k], *window, frames, (seeds[i], stream[names[k]]), cfar=settings.cfar
        )

    # each scene's bins are built here, before any run is submitted, so no
    # two draws of one scene build them at once
    for scene in scenes:
        _signal_window(scene.scatterers, *window)
    with ThreadPoolExecutor(workers) as pool:
        pending: collections.deque = collections.deque()
        try:
            for block in iter(lambda: list(itertools.islice(order, size)), []):
                drawn = [pool.submit(draw, k, i) for k, i in block[:-1]]
                pending.append(pool.submit(
                    _draw_and_estimate, campaign, methods,
                    [(scenarios[k], tables[k], i) for k, i in block],
                    drawn, functools.partial(draw, *block[-1]),
                ))
                if len(pending) == depth:
                    pending.popleft().result()
            for task in pending:
                task.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    outcomes = list(zip(scenarios, tables))
    report = _build_report(campaign, outcomes, methods, seeds)
    if out_dir is not None:
        _write_outputs(Path(out_dir), report, outcomes, campaign.minimal_plan.beam_grid)
    return report
