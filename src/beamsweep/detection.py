"""Cell-averaging CFAR along range and angular peak extraction."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from .errors import ConfigError

__all__ = [
    "CfarConfig",
    "PeakEstimate",
    "ca_cfar",
    "extract_peaks",
]


@dataclass(frozen=True)
class CfarConfig:
    """Cell-averaging CFAR parameters.

    n_training is the TOTAL number of training cells, split evenly across
    the two sides of the cell under test; n_guard counts guard cells per
    side. Cells near the profile edges fall back to one-sided windows with
    the threshold factor recomputed for the cells actually available.
    """

    n_training: int = 16
    n_guard: int = 2
    p_fa: float = 1e-6

    def __post_init__(self):
        if self.n_training < 2 or self.n_training % 2 != 0:
            raise ConfigError("n_training must be a positive even total")
        if self.n_guard < 0:
            raise ConfigError("n_guard must be non-negative")
        if not 0 < self.p_fa < 1:
            raise ConfigError("p_fa must be in (0, 1)")

    def check_profile_cells(self, n: int) -> None:
        """Refuse profiles of n cells unless longer than the full window."""
        window = self.n_training + 2 * self.n_guard + 1
        if n < window:
            raise ConfigError(f"profile of {n} cells is too short for a {window}-cell window")


def ca_cfar(profile, config: CfarConfig, cells=None) -> np.ndarray:
    """Detection mask over power profiles along the last axis.

    Each cell is compared against alpha times the mean of its training
    cells (half per side beyond the guard cells). Leading axes index
    independent profiles (beams, frames), so one call covers a whole sweep
    and the mask has the input's shape. Each profile must be longer than
    the full window, 2 * (n_training/2 + n_guard) + 1 cells.

    cells, when given, is an integer index array for the last axis, shaped
    as for np.take_along_axis; only those cells are tested, and the mask
    equals the full mask gathered there, bit for bit.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.ndim < 1:
        raise ConfigError("profile must have at least one dimension")
    if np.any(profile < 0) or not np.all(np.isfinite(profile)):
        raise ConfigError("profile must be finite and non-negative")
    t_side = config.n_training // 2
    g = config.n_guard
    n = profile.shape[-1]
    config.check_profile_cells(n)
    if cells is None:
        idx = np.broadcast_to(np.arange(n), profile.shape)
    else:
        idx = np.asarray(cells)
        if idx.dtype.kind not in "iu" or np.any((idx < 0) | (idx >= n)):
            raise ConfigError(f"cells must be integer indices in [0, {n})")
    # prefix sums, one cell at a time: the same sequential additions as
    # np.cumsum, without its per-row cost over many short profiles
    cs = np.zeros(profile.shape[:-1] + (n + 1,))
    for j in range(n):
        np.add(cs[..., j], profile[..., j], out=cs[..., j + 1])

    def at(j):
        return np.take_along_axis(cs, j, axis=-1)

    cut = np.take_along_axis(profile, idx, axis=-1)
    left_lo = np.maximum(idx - g - t_side, 0)
    left_hi = np.maximum(idx - g, 0)
    right_lo = np.minimum(idx + g + 1, n)
    right_hi = np.minimum(idx + g + 1 + t_side, n)
    train_sum = (at(left_hi) - at(left_lo)) + (at(right_hi) - at(right_lo))
    counts = (left_hi - left_lo) + (right_hi - right_lo)
    alpha = counts * (config.p_fa ** (-1.0 / counts) - 1.0)
    return cut > alpha * train_sum / counts


@dataclass(frozen=True)
class PeakEstimate:
    """One detected target: NAF position, range, linear power."""

    naf: float
    range_m: float
    power: float

    def __post_init__(self):
        if not self.power > 0:
            raise ConfigError("peak power must be positive")


def _parabolic_offset(y_left: float, y_mid: float, y_right: float) -> float:
    """Sub-bin offset of the vertex through three points, clamped to half a bin."""
    denom = y_left - 2.0 * y_mid + y_right
    if denom == 0.0:
        return 0.0
    return min(max(0.5 * (y_left - y_right) / denom, -0.5), 0.5)


def _peak_power(magnitude: float) -> float:
    """The power of a picked magnitude, refused when it leaves the float range."""
    try:
        power = magnitude ** 2
    except OverflowError:
        raise ConfigError(f"peak magnitude {magnitude!r} is too large: its power overflows") from None
    if power == 0.0:
        raise ConfigError(f"peak magnitude {magnitude!r} is too small: its power underflows to 0")
    return power


def extract_peaks(
    spectrum,
    naf_axis,
    resolution: float,
    max_peaks: int = 2,
    detected: Optional[ArrayLike] = None,
    ranges_m: Optional[ArrayLike] = None,
) -> list:
    """Iteratively pick angular peaks, excluding +/- resolution around each.

    Only bins flagged in `detected` (all, when omitted) are eligible. Each
    pick takes the global argmax among the remaining eligible bins, refines
    its NAF with a three-point parabola (interior bins only, shift at most
    half a bin), then closes the interval of half-width `resolution` around
    it. Peaks come back in detection order, which is descending power.

    The spectrum is read as magnitude; reported peak power is its square.

    spectrum is (..., n_bins) over the strictly increasing (n_bins,)
    naf_axis; `detected` and `ranges_m`, when given, have the spectrum's
    shape. Leading axes index independent spectra (frames, methods): a 1-D
    spectrum gives one list of PeakEstimate, and an N-D one a list of such
    lists, one per row of spectrum.reshape(-1, n_bins). Every row's peaks
    equal, bit for bit, those of a 1-D call on that row: each round is one
    masked argmax over all rows, followed by the same scalar refinement and
    exclusion per row.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    naf_axis = np.asarray(naf_axis, dtype=float)
    if spectrum.size == 0 or naf_axis.ndim != 1 or spectrum.shape[-1:] != naf_axis.shape:
        raise ConfigError("spectrum and NAF axis must be equal-length and non-empty")
    # the parabolic refinement reads a bin's neighbours on the axis
    if not np.all(np.diff(naf_axis) > 0):
        raise ConfigError("NAF axis must be strictly increasing")
    if not resolution > 0:
        raise ConfigError("resolution must be positive")
    if max_peaks < 1:
        raise ConfigError("max_peaks must be at least 1")
    eligible = (
        np.ones(spectrum.shape, dtype=bool)
        if detected is None
        else np.array(detected, dtype=bool)
    )
    if eligible.shape != spectrum.shape:
        raise ConfigError("detection mask must match the spectrum length")
    ranges = None if ranges_m is None else np.asarray(ranges_m, dtype=float)
    if ranges is not None and ranges.shape != spectrum.shape:
        raise ConfigError("ranges must match the spectrum length")

    n = naf_axis.size
    rows = spectrum.reshape(-1, n)
    eligible = eligible.reshape(rows.shape)
    if ranges is not None:
        ranges = ranges.reshape(rows.shape)
    peaks: list = [[] for _ in range(len(rows))]
    for _ in range(max_peaks):
        masked = np.where(eligible, rows, -np.inf)
        # a row that picks nothing keeps nan, which closes its whole mask
        nafs = np.full(len(rows), np.nan)
        for r, i in enumerate(masked.argmax(axis=-1).tolist()):
            value = masked[r, i]
            if not value > 0:  # no eligible bin left, or none positive
                continue
            naf = float(naf_axis[i])
            if 0 < i < n - 1:
                step = 0.5 * (naf_axis[i + 1] - naf_axis[i - 1])
                naf += float(_parabolic_offset(rows[r, i - 1], value, rows[r, i + 1]) * step)
            range_m = float(ranges[r, i]) if ranges is not None else math.nan
            peaks[r].append(PeakEstimate(naf, range_m, _peak_power(float(value))))
            nafs[r] = naf
            # the interval is centred on the refined NAF, so a resolution
            # below the parabolic shift would leave the picked bin itself
            # eligible
            eligible[r, i] = False
        if np.isnan(nafs).all():
            break
        eligible &= np.abs(naf_axis - nafs[:, None]) > resolution
    return peaks if spectrum.ndim > 1 else peaks[0]
