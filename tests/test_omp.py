import numpy as np
import pytest

from beamsweep import (
    ArrayGeometry,
    BeamformingWeights,
    ConfigError,
    Dictionary,
    OmpConfig,
    SparseEstimate,
    build_dictionary,
    minimal_naf_grid,
    omp,
    sparse_to_peaks,
)

NAF_LIMIT = 0.5 * np.sin(np.radians(33.0))


def _toy_dictionary(atoms):
    atoms = np.asarray(atoms, dtype=float)
    n_beams, n_atoms = atoms.shape
    return Dictionary(
        atoms,
        np.linspace(-0.2, 0.2, n_atoms),
        np.linspace(-0.3, 0.3, n_beams),
    )


def test_config_validation():
    OmpConfig(residual_tolerance=0.0, max_atoms=1)
    with pytest.raises(ConfigError):
        OmpConfig(residual_tolerance=-0.01)
    with pytest.raises(ConfigError):
        OmpConfig(residual_tolerance=1.0)
    with pytest.raises(ConfigError):
        OmpConfig(max_atoms=0)


def test_tie_break_prefers_lowest_index():
    # two identical atoms correlate equally with y; the lower index wins
    a = np.array([0.6, 0.8, 0.0])
    b = np.array([0.0, 0.0, 1.0])
    for atoms, first in (((b, a, a), 1), ((a, b, a), 0)):
        d = _toy_dictionary(np.column_stack(atoms))
        est = omp(d, 2.0 * a, OmpConfig(max_atoms=1))
        assert est.support == (first,)
        np.testing.assert_allclose(est.coefficients, [2.0], rtol=1e-12)


def test_single_atom_recovery(geom8, ones8):
    mg = minimal_naf_grid(8, NAF_LIMIT)
    d = build_dictionary(geom8, ones8, mg, mg[::2], "matched")
    y = d.atoms[:, 2] * 3.0
    est = omp(d, y, OmpConfig(residual_tolerance=1e-12, max_atoms=4))
    assert est.support == (2,)
    np.testing.assert_allclose(est.coefficients, [3.0], rtol=1e-12)
    assert est.residual_norm < 1e-9
    assert est.iterations == 1
    assert not est.rank_deficient
    assert not est.negative_coefficients


def test_measurement_length_checked(geom8, ones8):
    mg = minimal_naf_grid(8, NAF_LIMIT)
    d = build_dictionary(geom8, ones8, mg, mg[::2], "matched")
    with pytest.raises(ConfigError):
        omp(d, np.ones(d.n_atoms), OmpConfig())


def test_zero_measurement_yields_empty_support():
    d = _toy_dictionary(np.eye(3))
    est = omp(d, np.zeros(3), OmpConfig())
    assert est.support == ()
    assert est.coefficients.shape == (0,)
    assert est.iterations == 0
    assert est.residual_norm == 0.0
    assert not est.negative_coefficients


def test_negative_coefficients_flagged():
    d = _toy_dictionary(np.eye(2))
    est = omp(d, np.array([1.0, -0.5]), OmpConfig(residual_tolerance=0.0, max_atoms=2))
    assert est.support == (0, 1)
    np.testing.assert_allclose(est.coefficients, [1.0, -0.5])
    assert est.negative_coefficients
    assert est.residual_norm < 1e-15


def test_residual_tolerance_stops_early():
    # third measurement row is orthogonal to both atoms, so the residual
    # floor is hypot(0.02, 0.03); tolerance 0.05 * ||y|| sits just above it
    atoms = np.zeros((3, 2))
    atoms[0, 0] = 1.0
    atoms[1, 1] = 1.0
    d = _toy_dictionary(atoms)
    y = np.array([1.0, 0.02, 0.03])
    est = omp(d, y, OmpConfig(residual_tolerance=0.05, max_atoms=2))
    assert est.support == (0,)
    assert est.iterations == 1
    assert est.residual_norm == pytest.approx(np.hypot(0.02, 0.03), rel=1e-12)


def test_residual_never_grows_with_budget(rng):
    atoms = rng.standard_normal((9, 6))
    atoms /= np.linalg.norm(atoms, axis=0)
    d = _toy_dictionary(atoms)
    y = rng.standard_normal(9)
    norms = [
        omp(d, y, OmpConfig(residual_tolerance=0.0, max_atoms=k)).residual_norm
        for k in range(1, 6)
    ]
    for wide, narrow in zip(norms, norms[1:]):
        assert narrow <= wide + 1e-12


def test_least_squares_keeps_support_orthogonal(rng):
    for _ in range(20):
        atoms = rng.standard_normal((9, 7))
        atoms /= np.linalg.norm(atoms, axis=0)
        d = _toy_dictionary(atoms)
        y = rng.standard_normal(9)
        est = omp(d, y, OmpConfig(residual_tolerance=0.0, max_atoms=5))
        assert est.iterations == len(est.support) == len(est.support_correlations)
        scale = max(1.0, float(np.linalg.norm(y)))
        for cert in est.support_correlations:
            assert cert <= 1e-9 * scale


def test_rank_deficient_support_is_reported():
    # the third atom is the first two mixed plus a z leakage far below the
    # numerical-rank cutoff, so it still attracts the leftover residual but
    # the joint solve falls back to the pseudoinverse
    atoms = np.column_stack(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.6, 0.8, 1e-18],
        ]
    )
    d = _toy_dictionary(atoms)
    y = np.array([0.5, 0.25, 0.125])
    est = omp(d, y, OmpConfig(residual_tolerance=0.0, max_atoms=3))
    assert est.support == (0, 1, 2)
    assert est.rank_deficient
    assert est.iterations == 3
    assert est.residual_norm == pytest.approx(0.125, rel=1e-12)


def test_sparse_to_peaks_orders_by_power():
    est = SparseEstimate(
        support=(3, 1),
        coefficients=np.array([0.5, 2.0]),
        residual_norm=0.0,
        iterations=2,
    )
    grid = np.linspace(-0.2, 0.2, 5)
    peaks = sparse_to_peaks(est, grid, range_m=18.0)
    assert [p.naf for p in peaks] == [grid[1], grid[3]]
    assert peaks[0].power == pytest.approx(4.0)
    assert peaks[1].power == pytest.approx(0.25)
    assert all(p.range_m == 18.0 for p in peaks)


def test_sparse_to_peaks_default_range_is_nan():
    est = SparseEstimate((2,), np.array([1.5]), 0.0, 1)
    (peak,) = sparse_to_peaks(est, np.linspace(-0.2, 0.2, 5))
    assert np.isnan(peak.range_m)
    assert peak.power == pytest.approx(2.25)


def test_sparse_to_peaks_skips_zero_coefficients():
    est = SparseEstimate((0, 1), np.array([0.0, 1.0]), 0.0, 2)
    peaks = sparse_to_peaks(est, np.array([-0.1, 0.1]))
    assert len(peaks) == 1
    assert peaks[0].naf == 0.1


def test_sparse_to_peaks_rejects_bad_support_index():
    est = SparseEstimate((9,), np.array([1.0]), 0.0, 1)
    with pytest.raises(ConfigError):
        sparse_to_peaks(est, np.array([-0.1, 0.1]))


@pytest.mark.parametrize("c, cause", [(2e154, "overflows"), (1e-170, "underflows to 0")])
def test_sparse_to_peaks_refuses_a_power_outside_the_float_range(c, cause):
    # a coefficient's power is its correctly rounded square; one past the
    # float range is refused as extract_peaks refuses it, not left to raise
    est = SparseEstimate((1,), np.array([c]), 0.0, 1)
    with pytest.raises(ConfigError, match=cause):
        sparse_to_peaks(est, np.array([-0.1, 0.1]))


@pytest.mark.parametrize("m", [-1000, -600, 600, 1000])
def test_omp_scales_its_solution_exactly_by_a_power_of_two(m):
    # y is brought into [0.5, 1) first, so 2**m times y gives 2**m times the
    # coefficients, residual and correlations, past the range where its norm
    # overflows (m = 600 and up) or underflows (m = -600 and below)
    geom = ArrayGeometry.uniform_linear(8, 8)
    weights = BeamformingWeights.all_ones(geom)
    d = build_dictionary(geom, weights, minimal_naf_grid(8, NAF_LIMIT), np.linspace(-0.25, 0.25, 61))
    y = 1.0 / (1.0 + np.arange(-4, 5) ** 2.0)
    base, scaled = omp(d, y), omp(d, np.ldexp(y, m))
    assert scaled.support == base.support and len(base.support) > 1
    assert scaled.coefficients.tolist() == np.ldexp(base.coefficients, m).tolist()
    assert scaled.residual_norm == float(np.ldexp(base.residual_norm, m))
    assert scaled.support_correlations == tuple(np.ldexp(base.support_correlations, m).tolist())
