"""Analog beam-sweeping monostatic sensing simulator.

Simulates an OFDM integrated sensing setup that sweeps a small set of
analog beams across synthetic scatterer scenes, then compares angular
reconstruction from the minimal DFT sample set (periodic-kernel
interpolation, cubic splines, orthogonal matching pursuit) against a densely
oversampled reference, ending in CFAR detection, peak extraction and RMSE
scoring.
"""

from .beams import (
    BeamformingWeights,
    Dictionary,
    Scatterer,
    beamformed_response,
    build_dictionary,
    dirichlet_kernel,
)
from .detection import (
    CfarConfig,
    PeakEstimate,
    ca_cfar,
    extract_peaks,
)
from .errors import ConfigError, ContractViolation
from .geometry import (
    ArrayGeometry,
    Coarray,
    NafAngle,
    naf_resolution,
    sum_coarray,
)
from .harness import (
    Acquisition,
    EvalSettings,
    METHODS,
    RmseReport,
    estimate_ground_truth,
    naf_error_to_cross_track_m,
    run_comparison,
    score_rmse,
    simulate_acquisition,
)
from .ofdm import (
    C0,
    RadioConfig,
    RangeAngleMap,
    dump_ramp,
    load_ramp,
)
from .omp import OmpConfig, SparseEstimate, omp, sparse_to_peaks
from .reconstruct import (
    AngularSweep,
    SweepPlan,
    dft_interpolate,
    dirichlet_resample,
    minimal_naf_grid,
    minimal_sweep_plan,
    oversampled_sweep_plan,
    spline_interpolate,
    sweep_duration,
)
from .scenarios import (
    Scenario,
    Scene,
    build_scene,
    reference_noise_power,
    scenario_catalog,
)

__version__ = "0.1.0"
