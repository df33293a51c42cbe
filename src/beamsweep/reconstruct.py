"""Beam sweep planning and angular reconstruction from minimal DFT samples.

A coarray of order M0 = 2n-1 makes the swept response a trigonometric
polynomial with spectrum inside [-(n-1)... (n-1)] doubled, so M0 uniform
samples per NAF period determine it completely: convolving the samples with
the order-M0 periodic kernel rebuilds the response everywhere. Sweeps
truncated to the steerable limit keep only the in-limit samples; missing
lattice points contribute zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .beams import dirichlet_kernel
from .errors import ConfigError, ContractViolation

__all__ = [
    "SweepPlan",
    "AngularSweep",
    "minimal_naf_grid",
    "minimal_sweep_plan",
    "oversampled_sweep_plan",
    "sweep_duration",
    "dirichlet_resample",
    "dft_interpolate",
    "spline_interpolate",
]

_LATTICE_TOL = 1e-9


def _lattice(n_1d: int, naf_limit: float, factor: int) -> np.ndarray:
    """NAFs k/((2n-1) * factor) for all integers k within the sweep limit."""
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ConfigError("factor must be a positive integer")
    if not isinstance(n_1d, (int, np.integer)) or n_1d < 1:
        raise ConfigError("n_1d must be a positive integer")
    if not 0 < naf_limit <= 0.5:
        raise ConfigError("naf_limit must be in (0, 0.5]")
    step_den = (2 * n_1d - 1) * factor
    k_max = int(np.floor(naf_limit * step_den + _LATTICE_TOL))
    return np.arange(-k_max, k_max + 1) / step_den


def minimal_naf_grid(n_1d: int, naf_limit: float) -> np.ndarray:
    """Steering NAFs k/(2n-1) for all integers k within the sweep limit."""
    return _lattice(n_1d, naf_limit, 1)


@dataclass(frozen=True)
class SweepPlan:
    """Dwell schedule over a strictly increasing beam grid."""

    beam_grid: np.ndarray
    kind: str  # "minimal" or "oversampled"
    dwell_frames: int = 6
    frame_duration_s: float = 0.010

    def __post_init__(self):
        grid = np.asarray(self.beam_grid, dtype=float)
        if grid.ndim != 1:
            raise ConfigError("beam grid must be one-dimensional")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ConfigError("beam grid must be strictly increasing")
        if grid.size and (grid[0] < -0.5 or grid[-1] > 0.5):
            raise ConfigError("beam grid must lie within [-0.5, 0.5]")
        if self.kind not in ("minimal", "oversampled"):
            raise ConfigError(f"unknown sweep kind {self.kind!r}")
        if self.dwell_frames < 1 or self.frame_duration_s <= 0:
            raise ConfigError("dwell frames and frame duration must be positive")
        grid.flags.writeable = False
        object.__setattr__(self, "beam_grid", grid)

    @property
    def n_beams(self) -> int:
        return self.beam_grid.size


def minimal_sweep_plan(
    n_1d: int,
    naf_limit: float,
    dwell_frames: int = 6,
    frame_duration_s: float = 0.010,
) -> SweepPlan:
    grid = minimal_naf_grid(n_1d, naf_limit)
    return SweepPlan(grid, "minimal", dwell_frames, frame_duration_s)


def oversampled_sweep_plan(
    n_1d: int,
    naf_limit: float,
    factor: int = 10,
    dwell_frames: int = 6,
    frame_duration_s: float = 0.010,
) -> SweepPlan:
    """Minimal grid refined by `factor` (keeps the minimal points as a subset)."""
    grid = _lattice(n_1d, naf_limit, factor)
    return SweepPlan(grid, "oversampled", dwell_frames, frame_duration_s)


def sweep_duration(plan: SweepPlan) -> float:
    """Total acquisition time: beams x dwell frames x frame duration."""
    return plan.n_beams * plan.dwell_frames * plan.frame_duration_s


@dataclass(frozen=True)
class AngularSweep:
    """Measured per-beam values for one sweep.

    mode "ideal" keeps coherent complex values; mode "magnitude" holds
    non-coherent magnitudes as delivered by the hardware-faithful pipeline.
    values is (n_beams, ...): trailing axes (range bins, say) are
    interpolated independently, each as its own 1-D sweep would be.
    """

    plan: SweepPlan
    values: np.ndarray
    mode: str = "magnitude"

    def __post_init__(self):
        if self.mode not in ("ideal", "magnitude"):
            raise ConfigError(f"unknown sweep mode {self.mode!r}")
        values = np.asarray(self.values)
        values = values.astype(complex if self.mode == "ideal" else float)
        if values.shape[:1] != (self.plan.n_beams,):
            raise ConfigError("one value per planned beam required")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


def _infer_order(beam_grid: np.ndarray) -> int:
    """Coarray order M0 of a (possibly truncated) grid of k/M0 points."""
    if beam_grid.size == 0:
        raise ContractViolation("empty sweep cannot be interpolated")
    if beam_grid.size == 1:
        if abs(beam_grid[0]) > _LATTICE_TOL:
            raise ContractViolation("single-beam sweep must sit at NAF 0")
        return 1
    steps = np.diff(beam_grid)
    if np.any(np.abs(steps - steps[0]) > _LATTICE_TOL):
        raise ContractViolation("sweep grid is not uniform")
    order = int(round(1.0 / steps[0]))
    if order < 1 or abs(1.0 / steps[0] - order) > 1e-6 or order % 2 == 0:
        raise ContractViolation("sweep spacing is not 1/(2n-1) for integer n")
    k = beam_grid * order
    if np.any(np.abs(k - np.round(k)) > 1e-6):
        raise ContractViolation("sweep grid is not aligned to the k/(2n-1) lattice")
    return order


def dirichlet_resample(sample_nafs, values, target_nafs, order: int):
    """Periodic kernel interpolation: sum_k s_k * kernel(l - l_k, order).

    Samples missing from the full lattice simply do not contribute
    (zero-fill). Linear in the sample values; exact for responses whose
    coarray spectrum fits the order when the full period is sampled.
    """
    sample_nafs = np.asarray(sample_nafs, dtype=float)
    values = np.asarray(values)
    target_nafs = np.asarray(target_nafs, dtype=float)
    kernel = dirichlet_kernel(target_nafs[None, :] - sample_nafs[:, None], order)
    # sample by sample, so every trailing column of values gets the same
    # sums in the same order: an (n, k) call equals k one-column calls bit
    # for bit, which BLAS gemm and gemv do not promise
    out = np.zeros(target_nafs.shape + values.shape[1:], np.result_type(kernel, values))
    for k, v in zip(kernel, values, strict=True):
        out += np.multiply.outer(k, v)
    return out


def dft_interpolate(sweep: AngularSweep, target_grid) -> np.ndarray:
    """Reconstruct the angular response on `target_grid` from a minimal sweep.

    The sweep must sit on the exact k/(2n-1) lattice of some order (a
    contract violation otherwise). In ideal mode the complex samples of a
    full period reproduce the response to machine precision; in magnitude
    mode the same kernel is applied to the magnitudes, which is inexact and
    may yield negative values (clamp only for display, never before peak
    search).
    """
    target_grid = np.asarray(target_grid, dtype=float)
    if target_grid.size == 0:
        raise ConfigError("target grid must be non-empty")
    order = _infer_order(sweep.plan.beam_grid)
    return dirichlet_resample(sweep.plan.beam_grid, sweep.values, target_grid, order)


def spline_interpolate(sweep: AngularSweep, target_grid) -> np.ndarray:
    """Natural cubic spline through the sample magnitudes, clamped at 0."""
    target_grid = np.asarray(target_grid, dtype=float)
    if target_grid.size == 0:
        raise ConfigError("target grid must be non-empty")
    if sweep.plan.n_beams < 4:
        raise ConfigError("spline interpolation needs at least 4 samples")
    mags = np.abs(sweep.values).astype(float)
    spline = CubicSpline(sweep.plan.beam_grid, mags, bc_type="natural")
    return np.maximum(spline(target_grid), 0.0)
