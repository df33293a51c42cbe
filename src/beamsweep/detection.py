"""Cell-averaging CFAR along range and angular peak extraction."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # annotations only: importing numpy.typing costs a cold start
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


@functools.lru_cache(maxsize=32)
def _cfar_windows(n: int, config: CfarConfig):
    """Per cell of an n-cell profile: its training-window bounds (4, n),
    left_lo, left_hi, right_lo and right_hi, its training-cell count and its
    threshold factor alpha (both float, n); read-only.

    Built once per (n, config), so a call gathers them at its cells rather
    than working them out from each cell: fewer numpy calls, each of which
    a concurrent thread's draw may have to wait out for the GIL.
    """
    t_side, g = config.n_training // 2, config.n_guard
    cells = np.arange(n)
    bounds = np.stack((
        np.maximum(cells - g - t_side, 0), np.maximum(cells - g, 0),
        np.minimum(cells + g + 1, n), np.minimum(cells + g + 1 + t_side, n),
    ))
    counts = (bounds[1] - bounds[0]) + (bounds[3] - bounds[2])
    alpha = counts * (config.p_fa ** (-1.0 / counts) - 1.0)
    counts = counts.astype(float)
    for arr in (bounds, counts, alpha):
        arr.flags.writeable = False
    return bounds, counts, alpha


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
    # written so that a NaN fails it
    if profile.size and not (profile.min() >= 0 and profile.max() < math.inf):
        raise ConfigError("profile must be finite and non-negative")
    n = profile.shape[-1]
    window = 2 * (config.n_training // 2 + config.n_guard) + 1
    if n < window:
        raise ConfigError(f"profile of {n} cells is too short for a {window}-cell window")
    if cells is None:
        idx = np.broadcast_to(np.arange(n), profile.shape)
    else:
        idx = np.asarray(cells)
        if (idx.dtype.kind not in "iu" or idx.ndim != profile.ndim
                or (idx.size and not (idx.min() >= 0 and idx.max() < n))):
            raise ConfigError(
                f"cells must be integer indices in [0, {n}), one axis per profile axis"
            )
    bounds, counts, alpha = _cfar_windows(n, config)
    cs = np.zeros(profile.shape[:-1] + (n + 1,))
    # the leading index of np.take_along_axis, built once for both gathers
    leading = np.broadcast_shapes(profile.shape[:-1], idx.shape[:-1])
    lead = np.indices(leading + (1,), sparse=True)[:-1]
    cut = profile[lead + (idx,)]
    try:
        with np.errstate(over="raise"):
            # prefix sums in one call: cumsum adds sequentially along the axis,
            # so a cell's sum has the same bits as a Python loop over its row;
            # one call also keeps the GIL released where many small per-cell
            # calls would not
            np.cumsum(profile, axis=-1, out=cs[..., 1:])
            left_lo, left_hi, right_lo, right_hi = cs[lead + (bounds[:, idx],)]
            train_sum = (left_hi - left_lo) + (right_hi - right_lo)
            return cut > alpha[idx] * train_sum / counts[idx]
    except FloatingPointError:
        raise ConfigError("CA-CFAR training sums overflow the float range") from None


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
    """Sub-bin offset of the vertex through three points, clamped to half a bin.

    The points are Python floats: their sums have the bits of numpy float64
    sums, and one that leaves the float range gives inf or nan, not a warning.
    """
    denom = y_left - 2.0 * y_mid + y_right
    if denom == 0.0:
        return 0.0
    return min(max(0.5 * (y_left - y_right) / denom, -0.5), 0.5)


def _peak_power(magnitude: float) -> float:
    """The power of a picked magnitude, refused when it leaves the float range.

    magnitude * magnitude is correctly rounded, where a float's ** 2 goes
    through libm's pow, which misrounds some squares; so a magnitude scaled
    by 2^m gives exactly 4^m times the power.
    """
    power = magnitude * magnitude
    if power == math.inf:
        raise ConfigError(f"peak magnitude {magnitude!r} is too large: its power overflows")
    if power == 0.0:
        raise ConfigError(f"peak magnitude {magnitude!r} is too small: its power underflows to 0")
    return power


def _check_max_peaks(max_peaks: int) -> None:
    """extract_peaks' rule on its peak count, which a campaign checks from
    its settings before anything is drawn."""
    if max_peaks < 1:
        raise ConfigError("max_peaks must be at least 1")


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
    _check_max_peaks(max_peaks)
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
    axis = naf_axis.tolist()
    rows = spectrum.reshape(-1, n)
    eligible = eligible.reshape(rows.shape)
    if ranges is not None:
        ranges = ranges.reshape(rows.shape)
    peaks: list = [[] for _ in range(len(rows))]
    for _ in range(max_peaks):
        masked = np.where(eligible, rows, -np.inf)
        # a row that picks nothing keeps nan, which closes its whole mask
        nafs = [math.nan] * len(rows)
        picked = False
        # the scalar steps run on Python floats read with item(), whose
        # arithmetic has the bits of numpy's float64 scalars at less cost
        for r, i in enumerate(masked.argmax(axis=-1).tolist()):
            value = masked.item(r, i)
            if not value > 0:  # no eligible bin left, or none positive
                continue
            power = _peak_power(value)
            naf = axis[i]
            if 0 < i < n - 1:
                step = 0.5 * (axis[i + 1] - axis[i - 1])
                naf += _parabolic_offset(rows.item(r, i - 1), value, rows.item(r, i + 1)) * step
            range_m = ranges.item(r, i) if ranges is not None else math.nan
            peaks[r].append(PeakEstimate(naf, range_m, power))
            nafs[r], picked = naf, True
            # the interval is centred on the refined NAF, so a resolution
            # below the parabolic shift would leave the picked bin itself
            # eligible
            eligible[r, i] = False
        if not picked:
            break
        eligible &= np.abs(naf_axis - np.array(nafs)[:, None]) > resolution
    return peaks if spectrum.ndim > 1 else peaks[0]
