"""OFDM channel-state synthesis, range processing, and range-angle maps.

A static scene produces, per subcarrier n and symbol m, the sum over
scatterers of their beamformed complex gain times exp(-2j*pi*n*df*2r/c),
plus circular complex Gaussian noise. Range is recovered by an IDFT across
subcarriers (zero-padded so the display window tiles into the configured
bin count), Doppler by a DFT across symbols; the scene being static, all
signal energy sits in the zero-Doppler slice.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .beams import BeamformingWeights, Scatterer, _pair_factor
from .errors import ConfigError
from .geometry import ArrayGeometry, NafAngle

C0 = 299_792_458.0  # speed of light (m/s)

_RAMP_MAGIC = b"RAMP"
_RAMP_VERSION = 1
# magic, version, n_range, n_angle, range min/max (m), NAF min/max
_RAMP_HEADER = struct.Struct("<4sIIIdddd")


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
        lo, hi = self.range_window_m
        if not 0 <= lo < hi:
            raise ConfigError("range window must satisfy 0 <= min < max")
        if hi > self.unambiguous_range_m:
            raise ConfigError("range window exceeds the unambiguous range")
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

    def range_axis(self) -> np.ndarray:
        """Bin-center ranges of the zero-padded transform."""
        return np.arange(self.range_fft_size) * self.range_bin_width_m

    def window_bins(self) -> np.ndarray:
        """Indices of the n_range_bins display bins starting at the window floor."""
        start = int(round(self.range_window_m[0] / self.range_bin_width_m))
        return np.arange(start, start + self.n_range_bins)


@dataclass(frozen=True)
class FrameCsi:
    """One frame of channel state: (n_subcarriers, n_symbols) complex entries."""

    entries: np.ndarray
    config: RadioConfig

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (self.config.n_subcarriers, self.config.n_symbols):
            raise ConfigError("CSI shape must match (n_subcarriers, n_symbols)")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)


def scene_subcarrier_profile(
    config: RadioConfig,
    scatterers: Sequence[Scatterer],
    geom: ArrayGeometry,
    weights: BeamformingWeights,
    steer: NafAngle | np.ndarray,
) -> np.ndarray:
    """Noise-free per-subcarrier response (constant across symbols).

    `steer` is one steering NAF or an array of them; the result has shape
    np.shape(steer) + (n_subcarriers,), and the delay phases are built once
    for all steering NAFs.
    """
    steer = np.asarray(steer, dtype=float)
    if not scatterers:
        return np.zeros(steer.shape + (config.n_subcarriers,), dtype=complex)
    weights.check_matches(geom)
    nafs = np.array([s.naf for s in scatterers])
    amps = np.array([s.amplitude for s in scatterers], dtype=complex)
    lags = steer[..., None] - nafs
    gains = amps * _pair_factor(geom, weights, lags.ravel()).reshape(lags.shape)
    delays = np.array([2 * s.range_m / C0 for s in scatterers])
    n = np.arange(config.n_subcarriers)
    phases = np.exp(-2j * np.pi * config.subcarrier_spacing_hz * np.outer(delays, n))
    return gains @ phases


def noisy_csi_from_profile(
    profile: np.ndarray, config: RadioConfig, noise_power: float, rng
) -> np.ndarray:
    """Tile a per-subcarrier profile across symbols and add seeded noise.

    Used by synthesize_csi, the explicit per-symbol reference path. The
    sweep simulator draws the symbol-summed noise directly instead, so its
    streams differ from this one while its distribution is the same.
    """
    if noise_power < 0:
        raise ConfigError("noise power must be non-negative")
    shape = (config.n_subcarriers, config.n_symbols)
    entries = np.empty(shape, dtype=complex)
    if noise_power > 0:
        rng.standard_normal(out=entries.view(np.float64))
        entries *= np.sqrt(noise_power / 2)
        entries += np.asarray(profile, dtype=complex)[:, None]
    else:
        entries[:] = np.asarray(profile, dtype=complex)[:, None]
    return entries


def synthesize_csi(
    config: RadioConfig,
    scatterers: Sequence[Scatterer],
    geom: ArrayGeometry,
    weights: BeamformingWeights,
    steer: NafAngle,
    noise_power: float,
    rng_seed,
) -> FrameCsi:
    """Synthesize one frame of CSI for a static scene at one steering NAF.

    Parameters
    ----------
    noise_power : float
        Per-entry variance of the circular complex Gaussian noise.
    rng_seed : int, sequence of ints, or numpy Generator
        Stream for the noise draw; identical seeds give bit-identical frames.
    """
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    base = scene_subcarrier_profile(config, scatterers, geom, weights, steer)
    return FrameCsi(noisy_csi_from_profile(base, config, noise_power, rng), config)


@dataclass(frozen=True)
class Periodogram:
    """Squared-magnitude range-Doppler transform of one CSI frame."""

    power: np.ndarray  # (range_fft_size, n_symbols)
    config: RadioConfig

    def __post_init__(self):
        p = np.asarray(self.power, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "power", p)

    @property
    def zero_doppler(self) -> np.ndarray:
        return self.power[:, 0]


def range_doppler_periodogram(csi: FrameCsi) -> Periodogram:
    """IDFT across subcarriers (zero-padded), DFT across symbols, |.|^2.

    Total output power equals the CSI energy times n_symbols / range_fft_size
    (Parseval with this normalization).
    """
    cfg = csi.config
    ranged = np.fft.ifft(csi.entries, n=cfg.range_fft_size, axis=0)
    moved = np.fft.fft(ranged, axis=1)
    return Periodogram(np.abs(moved) ** 2, cfg)


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
    data = np.frombuffer(raw, dtype="<f8", count=n_range * n_angle, offset=_RAMP_HEADER.size)
    power = data.reshape(n_range, n_angle).copy()
    range_axis = np.linspace(r0, r1, n_range) if n_range > 1 else np.array([r0])
    naf_axis = np.linspace(a0, a1, n_angle) if n_angle > 1 else np.array([a0])
    return RangeAngleMap(power, range_axis, naf_axis)


def dump_csv(map_: RangeAngleMap, path) -> None:
    """CSV mirror of the RAMP grid: header row of NAFs, rows led by range.

    Cells are repr(float) and lines end in CRLF, byte for byte as
    csv.writer writes them.
    """
    header = ",".join(["range_m"] + [repr(v) for v in map_.naf_axis.tolist()])
    rows = np.column_stack((map_.range_axis, map_.power)).tolist()
    # str() of a list of floats joins their repr()s with ", "; no float repr
    # holds a comma, quote or space, so csv.writer would quote no cell
    lines = [header] + [str(row)[1:-1].replace(", ", ",") for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
