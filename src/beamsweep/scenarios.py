"""Synthetic measurement scenarios: paired reflectors in front of a rear wall.

Two reflector kinds are modeled at four angular separations each. The
octahedral reflectors are the 0 dB amplitude reference; wall-mounted
trihedral reflectors return 15 dB more. A rear wall sits behind the targets
as a line of weak scatterers with a +11.4 dB coherent aggregate spread over
half a NAF period; the detection range gate keeps its own bins out of the
estimates, but its spectral skirt still lands in the CFAR training cells,
which is what bounds how strong the wall can be before 0 dB targets stop
being detectable.

Noise calibration: after range-Doppler processing, a 0 dB reference target
steered head-on lands in its bin with power (n_sym*n_sc/n_fft)^2*(n_tx*n_rx)^2
over a noise floor of noise_power*n_sc*n_sym/n_fft^2 per bin, so the
collapsed-peak SNR is n_sc*n_sym*(n_tx*n_rx)^2/noise_power. Inverting gives
the per-entry noise variance for a requested reference SNR.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .beams import Scatterer
from .errors import ConfigError
from .geometry import ArrayGeometry
from .ofdm import RadioConfig

__all__ = [
    "RearWall",
    "Scenario",
    "Scene",
    "scenario_catalog",
    "build_scene",
    "reference_noise_power",
    "SEPARATION_LABELS",
]

# catalog angular separations (NAF), widest first
SEPARATIONS = (0.209, 0.168, 0.126, 0.084)
SEPARATION_LABELS = ("far", "mid", "near", "limit")

RANGE_GATE_EXCLUDE_M = (21.0, 25.0)


@dataclass(frozen=True)
class RearWall:
    """Line of weak scatterers behind the targets."""

    range_m: float = 22.0
    amplitude_db: float = 11.4  # coherent aggregate of the line, re: 0 dB target
    n_scatterers: int = 17
    extent_naf: float = 0.5

    def __post_init__(self):
        if self.range_m <= 0 or self.n_scatterers < 1 or not 0 < self.extent_naf <= 1:
            raise ConfigError("invalid rear wall geometry")


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str  # "octahedral" or "wall"
    separation_naf: float
    target_range_m: float = 18.0
    target_amplitude_db: float = 0.0
    snr_db: float = 25.0  # collapsed-peak SNR of a 0 dB reference target
    rear_wall: RearWall = field(default_factory=RearWall)

    def __post_init__(self):
        if self.kind not in ("octahedral", "wall"):
            raise ConfigError(f"unknown reflector kind {self.kind!r}")
        if not 0 < self.separation_naf < 1:
            raise ConfigError("separation must be a positive NAF width")
        if self.target_range_m <= 0:
            raise ConfigError("target range must be positive")

    @property
    def target_nafs(self) -> Tuple[float, float]:
        """Nominal target positions, symmetric about boresight; T1 left."""
        half = self.separation_naf / 2
        return (-half, half)


def scenario_catalog() -> list[Scenario]:
    """The eight standard scenes: both kinds at each separation, widest first."""
    catalog = []
    for kind, amp_db in (("octahedral", 0.0), ("wall", 15.0)):
        for sep, label in zip(SEPARATIONS, SEPARATION_LABELS):
            catalog.append(
                Scenario(
                    name=f"{kind}_{label}",
                    kind=kind,
                    separation_naf=sep,
                    target_amplitude_db=amp_db,
                )
            )
    return catalog


@dataclass(frozen=True)
class Scene:
    """Scatterer list plus the per-entry CSI noise variance."""

    scatterers: Tuple[Scatterer, ...]
    noise_power: float

    def __post_init__(self):
        # a tuple keeps the scatterers hashable, so they can key the cached
        # signal window
        object.__setattr__(self, "scatterers", tuple(self.scatterers))
        if self.noise_power < 0:
            raise ConfigError("noise power must be non-negative")


def reference_noise_power(
    config: RadioConfig, geom: ArrayGeometry, snr_db: float
) -> float:
    """Per-entry noise variance putting a 0 dB head-on target at snr_db."""
    gain = geom.n_tx * geom.n_rx
    try:
        noise = config.n_subcarriers * config.n_symbols * gain**2 / 10 ** (snr_db / 10)
    except (OverflowError, ZeroDivisionError):  # 10 ** (snr_db / 10) beyond a float
        noise = math.nan
    if not 0 < noise < math.inf:  # NaN fails too
        raise ConfigError(f"snr_db {snr_db!r} is out of range: no positive finite noise power")
    return noise


def build_scene(
    scenario: Scenario,
    config: RadioConfig,
    geom: ArrayGeometry,
    include_rear_wall: bool = True,
) -> Scene:
    """Materialize a scenario into scatterers and a calibrated noise level.

    Target phases are fixed at zero: in-phase returns are the worst case
    for angular separability, so resolution results are not flattered.
    """
    amp = 10 ** (scenario.target_amplitude_db / 20)
    scatterers = [
        Scatterer(naf, scenario.target_range_m, amp) for naf in scenario.target_nafs
    ]
    if include_rear_wall:
        # amplitude_db is the coherent aggregate of the whole line (every
        # point sits at one range, so a beam sums its segment in amplitude);
        # splitting in power instead leaks through the 21 m gate edge well
        # above a 0 dB target and blinds every scene.
        wall = scenario.rear_wall
        per_point = 10 ** (wall.amplitude_db / 20) / wall.n_scatterers
        half = wall.extent_naf / 2
        for naf in np.linspace(-half, half, wall.n_scatterers):
            scatterers.append(Scatterer(float(naf), wall.range_m, per_point))
    noise = reference_noise_power(config, geom, scenario.snr_db)
    return Scene(tuple(scatterers), noise)
