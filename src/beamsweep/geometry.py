"""Antenna array geometry and normalized angular frequency (NAF) helpers.

Element positions are stored in array-length units, i.e. multiples of the
element spacing d, as 2-vectors [horizontal, vertical]. Uniform linear
arrays are centered on the origin so that pairwise TX+RX position sums land
on the integer lattice and symmetric two-way responses come out real.

The NAF of a far-field direction is (d / lambda) * sin(azimuth) *
cos(elevation); d is always half a wavelength, so it lives in [-0.5, 0.5].
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Normalized angular frequency, dimensionless.
NafAngle = float


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class _ContentEq:
    """== and hash over the content of every dataclass field: an array by
    its dtype, shape and bytes, anything else by value. Equal objects hash
    equally, so separately built configs can key a cache; an array entry of
    -0.0 differs from 0.0, as its bytes do. Subclasses are frozen
    dataclasses declared with eq=False, whose arrays are read-only.
    """

    def _content(self) -> tuple:
        return tuple(
            (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for v in (getattr(self, f.name) for f in dataclasses.fields(self))
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self):
        return hash(self._content())


@dataclass(frozen=True, eq=False)
class ArrayGeometry(_ContentEq):
    """TX/RX element layouts in array-length units (multiples of spacing)."""

    tx_positions: np.ndarray  # (n_tx, 2)
    rx_positions: np.ndarray  # (n_rx, 2)

    def __post_init__(self):
        for name in ("tx_positions", "rx_positions"):
            p = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 1:
                raise ConfigError(f"{name} must be a non-empty (n, 2) array")
            object.__setattr__(self, name, _readonly(p))

    @classmethod
    def uniform_linear(cls, n_tx: int, n_rx: int) -> "ArrayGeometry":
        """Centered horizontal ULAs with n_tx TX and n_rx RX elements."""
        if n_tx < 1 or n_rx < 1:
            raise ConfigError("element counts must be at least 1")
        tx = np.stack([np.arange(n_tx) - (n_tx - 1) / 2, np.zeros(n_tx)], axis=1)
        rx = np.stack([np.arange(n_rx) - (n_rx - 1) / 2, np.zeros(n_rx)], axis=1)
        return cls(tx, rx)

    @property
    def n_tx(self) -> int:
        return self.tx_positions.shape[0]

    @property
    def n_rx(self) -> int:
        return self.rx_positions.shape[0]


@dataclass(frozen=True)
class Coarray:
    """Virtual sum-coarray: distinct pairwise TX+RX positions with counts."""

    positions: np.ndarray  # (k, 2), sorted by horizontal then vertical
    multiplicities: np.ndarray  # (k,), ints summing to n_tx * n_rx

    def __post_init__(self):
        object.__setattr__(self, "positions", _readonly(self.positions))
        m = np.array(self.multiplicities, dtype=int)
        m.flags.writeable = False
        object.__setattr__(self, "multiplicities", m)

    @property
    def n_virtual(self) -> int:
        return self.positions.shape[0]


def sum_coarray(geom: ArrayGeometry) -> Coarray:
    """All pairwise sums p_tx + p_rx, deduplicated on the position lattice.

    Positions of centered ULAs sit on the half-integer lattice, so sums are
    compared after rounding to 9 decimals (exact for any lattice layout).
    """
    sums = geom.tx_positions[:, None, :] + geom.rx_positions[None, :, :]
    sums = sums.reshape(-1, 2)
    keys = np.round(sums, 9)
    uniq, counts = np.unique(keys, axis=0, return_counts=True)
    order = np.lexsort((uniq[:, 1], uniq[:, 0]))
    return Coarray(uniq[order], counts[order])


def naf_resolution(n_1d: int) -> float:
    """Angular resolution 1 / (2 n - 1) of the sum coarray of two n-element ULAs."""
    if not isinstance(n_1d, (int, np.integer)) or n_1d < 1:
        raise ConfigError("n_1d must be a positive integer")
    return 1.0 / (2 * n_1d - 1)
