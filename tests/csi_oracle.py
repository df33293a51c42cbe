"""Explicit per-symbol CSI synthesis and range-Doppler transform.

The reference against which the tests check `simulate_acquisition`, which
draws the display-window bins of the range transform directly. Here one
frame is the full (n_subcarriers, n_symbols) CSI grid with per-entry noise,
taken through the zero-padded range IDFT and the Doppler DFT; a static
scene puts all its energy in the zero-Doppler column.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from beamsweep import (
    ArrayGeometry,
    BeamformingWeights,
    ConfigError,
    NafAngle,
    RadioConfig,
    Scatterer,
)
from beamsweep.ofdm import scene_subcarrier_profile


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


def noisy_csi_from_profile(
    profile: np.ndarray, config: RadioConfig, noise_power: float, rng
) -> np.ndarray:
    """Tile a per-subcarrier profile across symbols and add seeded noise."""
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
