"""Orthogonal matching pursuit over beam-response dictionaries."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .beams import Dictionary
from .detection import PeakEstimate, _peak_power
from .errors import ConfigError, ContractViolation

__all__ = ["OmpConfig", "SparseEstimate", "omp", "sparse_to_peaks"]


@dataclass(frozen=True)
class OmpConfig:
    """Stopping rules: relative residual tolerance and atom budget."""

    residual_tolerance: float = 0.05
    max_atoms: int = 5

    def __post_init__(self):
        if not 0 <= self.residual_tolerance < 1:
            raise ConfigError("residual_tolerance must be in [0, 1)")
        if self.max_atoms < 1:
            raise ConfigError("max_atoms must be at least 1")


@dataclass(frozen=True)
class SparseEstimate:
    """Greedy sparse solution.

    support_correlations holds max |D_S^H r| after each iteration's
    least-squares update (the orthogonality certificate). rank_deficient is
    set when the selected atoms were not independent and the coefficients
    came from a pseudoinverse; negative_coefficients flags sign-indefinite
    solutions, which the magnitude model does not forbid but downstream
    consumers may want to inspect.
    """

    support: Tuple[int, ...]
    coefficients: np.ndarray
    residual_norm: float
    iterations: int
    support_correlations: Tuple[float, ...] = ()
    rank_deficient: bool = False
    negative_coefficients: bool = False


def omp(dictionary: Dictionary, y, config: OmpConfig = OmpConfig()) -> SparseEstimate:
    """Greedy pursuit of y over the dictionary atoms.

    Parameters
    ----------
    dictionary : Dictionary
        Unit-norm atoms, one column per candidate NAF.
    y : array_like
        Measurement vector, one entry per dictionary beam.
    config : OmpConfig
        Stops when ||r|| <= residual_tolerance * ||y|| or after max_atoms.

    Returns
    -------
    SparseEstimate
        Support indices in selection order with their joint least-squares
        coefficients; the residual re-solve keeps D_S^H r at rounding level
        after every iteration.

    The pursuit runs on y scaled by the power of two that brings max|y|
    into [0.5, 1), as spline_interpolate fits, and scales its results back:
    the scaling is exact, so y times 2^m gives exactly 2^m times the
    coefficients, and no norm overflows or underflows on the way.
    """
    d = dictionary.atoms
    y = np.asarray(y, dtype=float)
    if y.shape != (d.shape[0],):
        raise ConfigError("measurement length must equal the number of beams")
    exponent = int(np.frexp(np.max(np.abs(y)))[1])
    y = np.ldexp(y, -exponent)
    y_norm = float(np.linalg.norm(y))
    residual = y.copy()
    support: list[int] = []
    coef = np.zeros(0)
    correlations: list[float] = []
    rank_deficient = False
    iterations = 0
    while iterations < config.max_atoms:
        if np.linalg.norm(residual) <= config.residual_tolerance * y_norm:
            break
        proxy = np.abs(d.T @ residual)
        pick = int(np.argmax(proxy))  # exact ties go to the lowest index
        if proxy[pick] == 0.0 or pick in support:
            # no atom explains the residual any further
            break
        support.append(pick)
        sub = d[:, support]
        coef, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < len(support):
            rank_deficient = True
        residual = y - sub @ coef
        iterations += 1
        correlations.append(float(np.max(np.abs(sub.T @ residual))))
    if len(set(support)) != len(support):
        raise ContractViolation("an atom entered the support twice")
    try:
        with np.errstate(over="raise"):
            coef = np.ldexp(np.asarray(coef, dtype=float), exponent)
            norms = np.ldexp([np.linalg.norm(residual)] + correlations, exponent)
    except FloatingPointError:
        raise ConfigError("the OMP solution overflows the float range") from None
    return SparseEstimate(
        support=tuple(support),
        coefficients=coef,
        residual_norm=float(norms[0]),
        iterations=iterations,
        support_correlations=tuple(norms[1:].tolist()),
        rank_deficient=rank_deficient,
        negative_coefficients=bool(np.any(coef < 0)),
    )


def sparse_to_peaks(
    estimate: SparseEstimate, candidate_grid, range_m: float = math.nan
) -> list[PeakEstimate]:
    """One peak per support atom at its grid NAF, sorted by descending power."""
    candidate_grid = np.asarray(candidate_grid, dtype=float)
    peaks = []
    for idx, c in zip(estimate.support, estimate.coefficients):
        if idx < 0 or idx >= candidate_grid.size:
            raise ConfigError("support index outside the candidate grid")
        if c == 0.0:
            continue
        peaks.append(PeakEstimate(float(candidate_grid[idx]), range_m, _peak_power(float(abs(c)))))
    peaks.sort(key=lambda p: -p.power)
    return peaks
