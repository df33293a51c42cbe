"""Two-way beam responses on the NAF axis and the periodic interpolation kernel.

The monostatic response to steering at NAF l is a double sum over TX x RX
element pairs; for a point scatterer at NAF l0 each pair contributes
exp(-2j*pi*(l - l0)*(x_tx + x_rx)) scaled by its beamforming weights, so the
all-ones pattern equals the coarray-multiplicity-weighted kernel (a
triangular taper, the product of two order-n kernels) with first null at
1/n, while the flat order-(2n-1) kernel used for interpolation nulls at
k/(2n-1).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .geometry import ArrayGeometry, NafAngle

__all__ = [
    "BeamformingWeights",
    "Scatterer",
    "Dictionary",
    "dirichlet_kernel",
    "beamformed_response",
    "build_dictionary",
]

DICTIONARY_KINDS = ("matched", "flat")  # see build_dictionary


@dataclass(frozen=True)
class BeamformingWeights:
    """Per-element complex weights, applied identically at every steer."""

    tx: np.ndarray
    rx: np.ndarray

    def __post_init__(self):
        for name in ("tx", "rx"):
            w = np.atleast_1d(np.asarray(getattr(self, name), dtype=complex))
            if w.ndim != 1 or w.size < 1:
                raise ConfigError(f"{name} weights must be a non-empty vector")
            w.flags.writeable = False
            object.__setattr__(self, name, w)

    @classmethod
    def all_ones(cls, geom: ArrayGeometry) -> "BeamformingWeights":
        return cls(np.ones(geom.n_tx), np.ones(geom.n_rx))

    def check_matches(self, geom: ArrayGeometry) -> None:
        if self.tx.size != geom.n_tx or self.rx.size != geom.n_rx:
            raise ConfigError("weight vector lengths do not match the array")


@dataclass(frozen=True)
class Scatterer:
    """Point scatterer: NAF position, slant range in meters, complex amplitude."""

    naf: NafAngle
    range_m: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not -0.5 <= self.naf <= 0.5:
            raise ConfigError(f"scatterer NAF {self.naf} outside [-0.5, 0.5]")
        if self.range_m <= 0:
            raise ConfigError("scatterer range must be positive")


def dirichlet_kernel(lag, order: int):
    """Periodic interpolation kernel sin(pi*order*lag) / (order*sin(pi*lag)).

    Unit value at integer lags (sign alternates for even orders), zeros at
    the other multiples of 1/order, period 1 for odd orders. Accepts scalar
    or array lags.
    """
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ConfigError("kernel order must be a positive integer")
    lag = np.asarray(lag, dtype=float)
    scalar = lag.ndim == 0
    lag = np.atleast_1d(lag)
    den = order * np.sin(np.pi * lag)
    num = np.sin(np.pi * order * lag)
    out = np.empty_like(lag)
    # sin(pi*k) is not float-zero for k != 0, so detect integer lags exactly
    at_int = lag == np.round(lag)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(num, den, out=out, where=~at_int)
    if np.any(at_int):
        k = np.round(lag[at_int]).astype(np.int64)
        # limit value (-1)^(k*(order-1)): alternates only for even orders
        out[at_int] = np.where((k % 2 != 0) & (order % 2 == 0), -1.0, 1.0)
    return out[0] if scalar else out


def beamformed_response(
    geom: ArrayGeometry,
    weights: BeamformingWeights,
    scatterers: Sequence[Scatterer],
    steer: NafAngle,
) -> complex:
    """Coherent two-way array response at steering NAF `steer`.

    Sums, over scatterers, amplitude times the TX and RX weighted phasor
    sums at lag (steer - scatterer NAF); ranges do not enter (delay handled
    by the waveform layer). Empty scenes return exactly 0.
    """
    weights.check_matches(geom)
    if not scatterers:
        return 0.0 + 0.0j
    nafs = np.array([s.naf for s in scatterers])
    amps = np.array([s.amplitude for s in scatterers], dtype=complex)
    return complex(np.sum(amps * _pair_factor(geom, weights, steer - nafs)))


def _pair_factor(geom: ArrayGeometry, weights: BeamformingWeights, lags) -> np.ndarray:
    """Product of TX and RX weighted phasor sums for each NAF lag."""
    lags = np.atleast_1d(np.asarray(lags, dtype=float))
    tx_x = geom.tx_positions[:, 0]
    rx_x = geom.rx_positions[:, 0]
    tx_sum = np.exp(-2j * np.pi * lags[:, None] * tx_x) @ weights.tx
    rx_sum = np.exp(-2j * np.pi * lags[:, None] * rx_x) @ weights.rx
    return tx_sum * rx_sum


@dataclass(frozen=True)
class Dictionary:
    """Unit-norm magnitude beam-response atoms over a candidate NAF grid."""

    atoms: np.ndarray  # (n_beams, n_candidates)
    candidate_grid: np.ndarray
    beam_grid: np.ndarray

    def __post_init__(self):
        if self.atoms.ndim != 2:
            raise ConfigError("atoms must be a 2-d matrix")
        if self.atoms.shape != (self.beam_grid.size, self.candidate_grid.size):
            raise ConfigError("atom matrix shape must be (n_beams, n_candidates)")

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]


def build_dictionary(
    geom: ArrayGeometry,
    weights: BeamformingWeights,
    beam_grid,
    candidate_grid,
    kind: str = "matched",
) -> Dictionary:
    """Model dictionary for sparse recovery from beam-sample magnitudes.

    kind="matched" uses the magnitude of the actual two-way response of a
    unit scatterer at each candidate; kind="flat" deliberately substitutes
    the untapered order-(2n-1) kernel for mismatch experiments.
    """
    beam_grid = np.asarray(beam_grid, dtype=float)
    candidate_grid = np.asarray(candidate_grid, dtype=float)
    if beam_grid.size == 0 or candidate_grid.size == 0:
        raise ConfigError("beam and candidate grids must be non-empty")
    if kind not in DICTIONARY_KINDS:
        raise ConfigError(f"unknown dictionary kind {kind!r}")
    lags = beam_grid[:, None] - candidate_grid[None, :]
    if kind == "matched":
        weights.check_matches(geom)
        atoms = np.abs(_pair_factor(geom, weights, lags.ravel())).reshape(lags.shape)
        peak = abs(np.sum(weights.tx)) * abs(np.sum(weights.rx))
    else:  # flat
        order = 2 * min(geom.n_tx, geom.n_rx) - 1
        atoms = np.abs(dirichlet_kernel(lags, order))
        peak = 1.0
    norms = np.linalg.norm(atoms, axis=0)
    # a numerically-zero atom would normalize float fuzz into a fake unit atom
    if np.any(norms < 1e-9 * max(float(norms.max()), peak)):
        raise ConfigError("candidate grid produced an all-zero atom")
    return Dictionary(atoms / norms, candidate_grid, beam_grid)
