"""OFDM radio numerology, the scene's subcarrier response, and range-angle maps.

A static scene produces, per subcarrier n, the sum over scatterers of their
beamformed complex gain times exp(-2j*pi*n*df*2r/c), the same on every
symbol. Range is recovered by an IDFT across subcarriers, zero-padded so the
display window tiles into the configured bin count. Maps are stored in the
RAMP binary layout.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .beams import BeamformingWeights, Scatterer, _scene_gains
from .errors import ConfigError
from .geometry import ArrayGeometry, NafAngle

C0 = 299_792_458.0  # speed of light (m/s)

_RAMP_MAGIC = b"RAMP"
_RAMP_VERSION = 1
# magic, version, n_range, n_angle, range min/max (m), NAF min/max
_RAMP_HEADER = struct.Struct("<4sIIIdddd")

# NR's widest carrier, 275 resource blocks of 12 subcarriers, and the most
# range bins whose worst campaign was measured inside the memory budget
# (README, "Memory")
_CAPS = {"n_subcarriers": 3300, "n_range_bins": 128}


@dataclass(frozen=True)
class RadioConfig:
    """FR2 OFDM numerology used for sensing.

    Defaults: 120 kHz subcarrier spacing, 792 subcarriers (95.04 MHz), one
    14-symbol slot processed per 10 ms frame, display window [0, 25) m
    split into 42 range bins.
    """

    subcarrier_spacing_hz: float = 120e3
    n_subcarriers: int = 792
    n_symbols: int = 14
    frame_duration_s: float = 0.010
    range_window_m: Tuple[float, float] = (0.0, 25.0)
    n_range_bins: int = 42

    def __post_init__(self):
        # a tuple keeps the config hashable (a JSON config gives a list), so
        # it can key the cached window basis
        object.__setattr__(self, "range_window_m", tuple(self.range_window_m))
        if min(self.subcarrier_spacing_hz, self.frame_duration_s) <= 0:
            raise ConfigError("subcarrier spacing and frame duration must be positive")
        if self.n_subcarriers < 1 or self.n_symbols < 1 or self.n_range_bins < 1:
            raise ConfigError("subcarrier, symbol and range-bin counts must be positive")
        if self.n_range_bins > self.n_subcarriers:
            # the window IDFT (n_subcarriers x n_range_bins) must have full
            # column rank for the noise-shaping QR factor to be square
            raise ConfigError("n_range_bins must not exceed n_subcarriers")
        for name, cap in _CAPS.items():
            if getattr(self, name) > cap:
                raise ConfigError(f"{name} ({getattr(self, name)}) must not exceed {cap}")
        lo, hi = self.range_window_m
        if not 0 <= lo < hi:
            raise ConfigError("range window must satisfy 0 <= min < max")
        if hi > self.unambiguous_range_m:
            raise ConfigError("range window exceeds the unambiguous range")
        # range_fft_size before rounding, C0 / step, must be finite (step can
        # underflow to 0) and at most 2**31 bins: with the subcarrier cap, that
        # keeps _window_idft's int64 index products (3,300 x 2**31, 7e12) below 2**63
        step = 2 * self.subcarrier_spacing_hz * ((hi - lo) / self.n_range_bins)
        if not (step > 0 and C0 / step <= 2**31):
            raise ConfigError("range window/bin combination requires more than 2**31 FFT bins")
        if self.range_fft_size < self.n_subcarriers:
            raise ConfigError("range window/bin combination requires fewer FFT bins than subcarriers")

    @property
    def unambiguous_range_m(self) -> float:
        return C0 / (2 * self.subcarrier_spacing_hz)

    @property
    def range_fft_size(self) -> int:
        # pad so the display window tiles into n_range_bins equal bins
        lo, hi = self.range_window_m
        return round(C0 / (2 * self.subcarrier_spacing_hz * ((hi - lo) / self.n_range_bins)))

    @property
    def range_bin_width_m(self) -> float:
        return self.unambiguous_range_m / self.range_fft_size

    def window_bins(self) -> np.ndarray:
        """Indices of the n_range_bins display bins starting at the window floor."""
        start = int(round(self.range_window_m[0] / self.range_bin_width_m))
        return np.arange(start, start + self.n_range_bins)


def scene_subcarrier_profile(
    config: RadioConfig,
    scatterers: Sequence[Scatterer],
    geom: ArrayGeometry,
    weights: BeamformingWeights,
    steer: NafAngle | np.ndarray,
) -> np.ndarray:
    """Noise-free per-subcarrier response (constant across symbols), shaped
    np.shape(steer) + (n_subcarriers,) for one steering NAF or an array."""
    return _scene_gains(geom, weights, scatterers, steer) @ _delay_phases(config, scatterers)


def _delay_phases(config: RadioConfig, scatterers: Sequence[Scatterer]) -> np.ndarray:
    """Each scatterer's two-way delay response, exp(-2j*pi*n*df*2r/c) on
    subcarrier n, shaped (n_scatterers, n_subcarriers)."""
    delays = np.array([2 * s.range_m / C0 for s in scatterers], dtype=float)
    n = np.arange(config.n_subcarriers)
    return np.exp(-2j * np.pi * config.subcarrier_spacing_hz * np.outer(delays, n))


@dataclass(frozen=True)
class RangeAngleMap:
    """Display intensity map over range (rows) and NAF (columns)."""

    power: np.ndarray  # (n_range, n_angle), non-negative
    range_axis: np.ndarray
    naf_axis: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.power, dtype=float)
        r = np.asarray(self.range_axis, dtype=float)
        a = np.asarray(self.naf_axis, dtype=float)
        if p.shape != (r.size, a.size):
            raise ConfigError("map shape must be (n_range, n_angle)")
        if r.size > 1 and not np.all(np.diff(r) > 0):
            raise ConfigError("range axis must be strictly increasing")
        if a.size > 1 and not np.all(np.diff(a) > 0):
            raise ConfigError("NAF axis must be strictly increasing")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ConfigError("map power must be finite and non-negative")
        for name, arr in (("power", p), ("range_axis", r), ("naf_axis", a)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def dump_ramp(map_: RangeAngleMap, path) -> None:
    """Write the map in the little-endian RAMP v1 binary layout."""
    n_range, n_angle = map_.power.shape
    header = _RAMP_HEADER.pack(
        _RAMP_MAGIC,
        _RAMP_VERSION,
        n_range,
        n_angle,
        float(map_.range_axis[0]),
        float(map_.range_axis[-1]),
        float(map_.naf_axis[0]),
        float(map_.naf_axis[-1]),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(map_.power, dtype="<f8").tobytes())


def load_ramp(path) -> RangeAngleMap:
    """Read a RAMP v1 file back into a map (axes rebuilt as linear spans)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _RAMP_HEADER.size or raw[:4] != _RAMP_MAGIC:
        raise ConfigError("not a RAMP file")
    _, version, n_range, n_angle, r0, r1, a0, a1 = _RAMP_HEADER.unpack_from(raw)
    if version != _RAMP_VERSION:
        raise ConfigError(f"unsupported RAMP version {version}")
    n_cells = n_range * n_angle
    if len(raw) < _RAMP_HEADER.size + 8 * n_cells:
        raise ConfigError(f"RAMP file holds fewer than the {n_cells} cells its header declares")
    data = np.frombuffer(raw, dtype="<f8", count=n_cells, offset=_RAMP_HEADER.size)
    power = data.reshape(n_range, n_angle).copy()
    range_axis = np.linspace(r0, r1, n_range) if n_range > 1 else np.array([r0])
    naf_axis = np.linspace(a0, a1, n_angle) if n_angle > 1 else np.array([a0])
    return RangeAngleMap(power, range_axis, naf_axis)
