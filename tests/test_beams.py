"""Kernels, two-way responses, PSF and recovery dictionaries."""
import numpy as np
import pytest

from beamsweep import (
    ArrayGeometry,
    BeamformingWeights,
    ConfigError,
    Scatterer,
    beamformed_response,
    build_dictionary,
    dirichlet_kernel,
)
from beamsweep.reconstruct import minimal_naf_grid


def test_kernel_unit_at_integers():
    assert dirichlet_kernel(0.0, 15) == 1.0
    assert dirichlet_kernel(1.0, 15) == 1.0
    assert dirichlet_kernel(-2.0, 7) == 1.0


def test_kernel_zeros_on_lattice():
    k = np.arange(1, 15)
    np.testing.assert_allclose(dirichlet_kernel(k / 15.0, 15), 0.0, atol=1e-12)


def test_kernel_even_order_sign():
    # even orders alternate sign at odd integer lags
    assert dirichlet_kernel(1.0, 2) == -1.0
    assert dirichlet_kernel(2.0, 2) == 1.0


def test_kernel_shapes_and_periodicity():
    lags = np.linspace(-0.49, 0.49, 31)
    vals = dirichlet_kernel(lags, 15)
    assert vals.shape == lags.shape
    np.testing.assert_allclose(dirichlet_kernel(lags + 1.0, 15), vals, atol=1e-10)
    assert np.isscalar(float(dirichlet_kernel(0.2, 15)))


def test_kernel_midpoint_value():
    assert dirichlet_kernel(0.5 / 15.0, 15) == pytest.approx(0.6377848155670418, rel=1e-12)


def test_kernel_order_validation():
    with pytest.raises(ConfigError):
        dirichlet_kernel(0.1, 0)
    with pytest.raises(ConfigError):
        dirichlet_kernel(0.1, 2.5)


def test_response_empty_scene(geom8, ones8):
    assert beamformed_response(geom8, ones8, [], 0.1) == 0.0 + 0.0j


def test_response_peak_and_nulls(geom8, ones8):
    scene = [Scatterer(0.0, 18.0)]
    assert abs(beamformed_response(geom8, ones8, scene, 0.0)) == pytest.approx(64.0)
    # two-way taper nulls at 1/8, not at the coarray lattice 1/15
    assert abs(beamformed_response(geom8, ones8, scene, 1.0 / 8.0)) < 1e-9
    assert abs(beamformed_response(geom8, ones8, scene, 1.0 / 15.0)) == pytest.approx(
        22.880782741943563, rel=1e-12)


def test_response_is_squared_kernel(geom8, ones8):
    # all-ones 8x8 pattern equals 64 * D8(lag)^2
    scene = [Scatterer(0.0, 18.0)]
    for lag in (0.01, 0.1, 0.23, -0.4):
        want = 64.0 * dirichlet_kernel(lag, 8) ** 2
        got = beamformed_response(geom8, ones8, scene, lag)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_response_linearity(geom8, ones8, rng):
    a = [Scatterer(float(n), 10.0, complex(c)) for n, c in
         zip(rng.uniform(-0.4, 0.4, 3), rng.standard_normal(3))]
    b = [Scatterer(float(n), 12.0, complex(c)) for n, c in
         zip(rng.uniform(-0.4, 0.4, 2), rng.standard_normal(2))]
    for steer in (-0.2, 0.0, 0.13):
        joint = beamformed_response(geom8, ones8, a + b, steer)
        split = beamformed_response(geom8, ones8, a, steer) + beamformed_response(
            geom8, ones8, b, steer)
        assert joint == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_weights_validation(geom8):
    with pytest.raises(ConfigError):
        BeamformingWeights(np.ones(7), np.ones(8)).check_matches(geom8)
    with pytest.raises(ConfigError):
        BeamformingWeights(np.ones((2, 2)), np.ones(8))


def test_tapered_weights_change_pattern(geom8, ones8):
    taper = BeamformingWeights(np.hamming(8), np.hamming(8))
    scene = [Scatterer(0.0, 18.0)]
    flat_null = abs(beamformed_response(geom8, ones8, scene, 1.0 / 8.0))
    tapered = abs(beamformed_response(geom8, taper, scene, 1.0 / 8.0))
    assert tapered > flat_null + 1e-6


def test_scatterer_validation():
    with pytest.raises(ConfigError):
        Scatterer(0.6, 10.0)
    with pytest.raises(ConfigError):
        Scatterer(0.1, 0.0)


def test_dictionary_shapes_and_norms(geom8, ones8):
    beams = minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0)))
    cands = np.linspace(-0.25, 0.25, 21)
    d = build_dictionary(geom8, ones8, beams, cands, "matched")
    assert d.atoms.shape == (9, 21)
    assert d.n_atoms == 21
    np.testing.assert_allclose(np.linalg.norm(d.atoms, axis=0), 1.0, rtol=1e-12)
    flat = build_dictionary(geom8, ones8, beams, cands, "flat")
    assert not np.allclose(flat.atoms, d.atoms)


def test_flat_dictionary_on_lattice_is_identity(geom8, ones8):
    # minimal beams sit on the flat kernel's zero lattice
    beams = minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0)))
    d = build_dictionary(geom8, ones8, beams, beams, "flat")
    np.testing.assert_allclose(d.atoms.T @ d.atoms, np.eye(9), atol=1e-14)


def test_dictionary_errors(geom8, ones8):
    beams = minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0)))
    with pytest.raises(ConfigError):
        build_dictionary(geom8, ones8, beams, beams, "tapered")
    with pytest.raises(ConfigError):
        build_dictionary(geom8, ones8, beams, [], "matched")
    # a flat atom centered outside the beam span samples only kernel zeros
    with pytest.raises(ConfigError):
        build_dictionary(geom8, ones8, beams, [6.0 / 15.0], "flat")
    with pytest.raises(ConfigError):
        build_dictionary(
            ArrayGeometry.uniform_linear(4, 4), ones8, beams, beams, "matched")
