"""Sweep planning and dense reconstruction from minimal samples."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline  # the reference spline, for tests only

from beamsweep import (
    AngularSweep,
    ArrayGeometry,
    BeamformingWeights,
    ConfigError,
    ContractViolation,
    Scatterer,
    SweepPlan,
    beamformed_response,
    dft_interpolate,
    dirichlet_resample,
    minimal_naf_grid,
    minimal_sweep_plan,
    oversampled_sweep_plan,
    reconstruct,
    spline_interpolate,
    sweep_duration,
)

LIMIT = 0.5 * math.sin(math.radians(33.0))


def ideal_sweep(geom, weights, scene, plan):
    values = np.array([beamformed_response(geom, weights, scene, s) for s in plan.beam_grid])
    return AngularSweep(plan, values, "ideal")


def test_minimal_grid_points():
    grid = minimal_naf_grid(8, LIMIT)
    np.testing.assert_array_equal(grid, np.arange(-4, 5) / 15)
    full = minimal_naf_grid(8, 0.5)
    np.testing.assert_array_equal(full, np.arange(-7, 8) / 15)
    np.testing.assert_array_equal(minimal_naf_grid(1, 0.3), [0.0])
    with pytest.raises(ConfigError):
        minimal_naf_grid(8, 0.0)
    with pytest.raises(ConfigError):
        minimal_naf_grid(0, 0.3)


def test_oversampled_grid_contains_minimal():
    over = oversampled_sweep_plan(8, LIMIT, 10)
    mini = minimal_sweep_plan(8, LIMIT)
    assert over.n_beams == 81
    assert mini.n_beams == 9
    # every tenth oversampled beam is bit-identical to the minimal one
    np.testing.assert_array_equal(over.beam_grid[::10], mini.beam_grid)
    same = oversampled_sweep_plan(8, LIMIT, 1)
    np.testing.assert_array_equal(same.beam_grid, mini.beam_grid)


def test_oversampled_grid_point_limit():
    # the largest accepted grid, and the first refused, counted exactly
    assert oversampled_sweep_plan(1, 0.5, 999_999).n_beams == 999_999
    with pytest.raises(ConfigError, match=r"^factor 1000001 gives a grid of 1000001 points"):
        oversampled_sweep_plan(1, 0.5, 1_000_001)
    for factor in (10**12, 10**20, 10**400, np.int64(2**62)):
        with pytest.raises(ConfigError, match=f"^factor {factor} gives a grid of "):
            oversampled_sweep_plan(8, LIMIT, factor)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 64),
    limit=st.floats(0.0, 0.5, exclude_min=True),
    factor=st.one_of(st.integers(1, 2_000), st.integers(1, 10**30)),
)
def test_lattice_counts_points_as_the_exact_rational_formula(n, limit, factor):
    # the point count in exact integers equals the rational floor of
    # (limit * order + tolerance) * factor, up to factors past the float range
    tol = Fraction(reconstruct._LATTICE_TOL)
    points = 2 * math.floor((Fraction(limit) * (2 * n - 1) + tol) * factor) + 1
    if points > 1_000_000:
        message = f"factor {factor} gives a grid of {points} points"
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            oversampled_sweep_plan(n, limit, factor)
    else:
        assert oversampled_sweep_plan(n, limit, factor).n_beams == points


def test_sweep_plan_refuses_a_nan_grid():
    # one beam has no step for the increasing-grid check to trip on
    with pytest.raises(ConfigError, match=r"^beam grid must lie within \[-0.5, 0.5\]$"):
        SweepPlan(np.array([np.nan]), "minimal")


def test_sweep_plan_validation():
    with pytest.raises(ConfigError):
        SweepPlan(np.array([0.0, 0.0]), "minimal")
    with pytest.raises(ConfigError):
        SweepPlan(np.array([0.0, 0.6]), "minimal")
    with pytest.raises(ConfigError):
        SweepPlan(np.array([0.0]), "dense")
    with pytest.raises(ConfigError):
        SweepPlan(np.array([0.0]), "minimal", dwell_frames=0)
    with pytest.raises(ConfigError):
        oversampled_sweep_plan(8, LIMIT, 0)


def test_sweep_durations():
    assert sweep_duration(minimal_sweep_plan(8, LIMIT)) == pytest.approx(0.540, rel=1e-12)
    assert sweep_duration(oversampled_sweep_plan(8, LIMIT, 10)) == pytest.approx(4.860, rel=1e-12)


def test_angular_sweep_validation():
    plan = minimal_sweep_plan(8, LIMIT)
    with pytest.raises(ConfigError):
        AngularSweep(plan, np.zeros(5), "magnitude")
    with pytest.raises(ConfigError):
        AngularSweep(plan, np.zeros(9), "complex")
    sw = AngularSweep(plan, np.arange(9.0), "ideal")
    assert sw.values.dtype == complex
    assert not sw.values.flags.writeable


def test_ideal_full_period_reconstruction(geom8, ones8, rng):
    # complex samples over the whole lattice rebuild the response everywhere
    plan = minimal_sweep_plan(8, 0.5)
    scene = [Scatterer(float(n), 10.0, complex(a, b)) for n, a, b in
             zip(rng.uniform(-0.5, 0.5, 3), rng.standard_normal(3), rng.standard_normal(3))]
    sweep = ideal_sweep(geom8, ones8, scene, plan)
    dense = (np.arange(150) - 75) / 150
    recon = dft_interpolate(sweep, dense)
    direct = np.array([beamformed_response(geom8, ones8, scene, t) for t in dense])
    assert np.abs(recon - direct).max() <= 1e-12 * np.abs(direct).max()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    scene=st.lists(
        st.tuples(st.floats(-0.5, 0.5), st.floats(0.5, 2.0), st.floats(0.0, 1.0)),
        min_size=1, max_size=4,
    ),
)
def test_ideal_dft_reconstruction_exact_for_every_square_array(n, scene):
    # criterion 4's setup on each square array EvalSettings accepts: the full
    # period of the order-(2n-1) lattice determines the two-way response
    geom = ArrayGeometry.uniform_linear(n, n)
    ones = BeamformingWeights.all_ones(geom)
    scatterers = [Scatterer(naf, 18.0, amp * np.exp(2j * np.pi * turn)) for naf, amp, turn in scene]
    sweep = ideal_sweep(geom, ones, scatterers, SweepPlan(minimal_naf_grid(n, 0.5), "minimal"))
    dense = (np.arange(150) - 75) / 150
    recon = dft_interpolate(sweep, dense)
    direct = np.array([beamformed_response(geom, ones, scatterers, t) for t in dense])
    # relative to the scene's largest possible response: scatterers may cancel
    bound = n * n * sum(amp for _, amp, _ in scene)
    assert np.abs(recon - direct).max() <= 1e-12 * bound


def test_truncated_grid_leakage_bound(geom8, ones8, rng):
    # dropping the 6 out-of-limit samples leaks; bound measured at build time
    plan9 = minimal_sweep_plan(8, LIMIT)
    dense = np.linspace(-LIMIT, LIMIT, 201)
    for _ in range(5):
        scene = [Scatterer(float(n), 10.0, complex(a, b)) for n, a, b in
                 zip(rng.uniform(-0.2, 0.2, 2), rng.standard_normal(2), rng.standard_normal(2))]
        sweep = ideal_sweep(geom8, ones8, scene, plan9)
        recon = dft_interpolate(sweep, dense)
        direct = np.array([beamformed_response(geom8, ones8, scene, t) for t in dense])
        assert np.abs(recon - direct).max() <= 0.03 * np.abs(direct).max()


def test_interpolation_linearity(geom8, ones8, rng):
    plan = minimal_sweep_plan(8, LIMIT)
    x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    dense = np.linspace(-0.26, 0.26, 57)
    ix = dft_interpolate(AngularSweep(plan, x, "ideal"), dense)
    iy = dft_interpolate(AngularSweep(plan, y, "ideal"), dense)
    # pure power-of-two scaling is float-exact through the kernel product
    doubled = dft_interpolate(AngularSweep(plan, 2.0 * x, "ideal"), dense)
    np.testing.assert_array_equal(doubled, 2.0 * ix)
    a, b = 1.3, -0.7
    general = dft_interpolate(AngularSweep(plan, a * x + b * y, "ideal"), dense)
    np.testing.assert_allclose(general, a * ix + b * iy, rtol=1e-12, atol=1e-12)


def test_interpolators_exact_at_samples(geom8, ones8, rng):
    plan = minimal_sweep_plan(8, LIMIT)
    mags = rng.uniform(0.5, 3.0, 9)
    sweep = AngularSweep(plan, mags, "magnitude")
    np.testing.assert_allclose(
        dft_interpolate(sweep, plan.beam_grid), mags, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        spline_interpolate(sweep, plan.beam_grid), mags, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("interpolate", [dft_interpolate, spline_interpolate])
def test_interpolators_treat_trailing_axes_as_sweeps(interpolate, rng):
    plan = minimal_sweep_plan(8, LIMIT)
    mags = rng.uniform(0.0, 3.0, (9, 42))
    dense = oversampled_sweep_plan(8, LIMIT, 10).beam_grid
    got = interpolate(AngularSweep(plan, mags), dense)
    assert got.shape == (81, 42)
    for j in range(42):
        np.testing.assert_array_equal(got[:, j], interpolate(AngularSweep(plan, mags[:, j]), dense))


def test_dc_reconstruction():
    plan = minimal_sweep_plan(8, 0.5)
    sweep = AngularSweep(plan, np.full(15, 2.5 + 0j), "ideal")
    dense = np.linspace(-0.5, 0.5, 33)
    np.testing.assert_allclose(dft_interpolate(sweep, dense), 2.5, rtol=1e-12)


def test_magnitude_mode_can_go_negative(geom8, ones8):
    plan9 = minimal_sweep_plan(8, LIMIT)
    mags = np.abs([beamformed_response(geom8, ones8, [Scatterer(0.5 / 15, 18.0)], s)
                   for s in plan9.beam_grid])
    dense = np.arange(-40, 41) / 150
    recon = dft_interpolate(AngularSweep(plan9, mags, "magnitude"), dense)
    assert recon.min() < -0.1  # kernel sidelobes on real magnitudes


def test_dirichlet_resample_zero_fill():
    # missing lattice points contribute nothing rather than extrapolating
    full = np.arange(-7, 8) / 15
    vals = np.zeros(15)
    vals[7] = 1.0
    target = np.array([0.0, 1.0 / 30.0])
    got = dirichlet_resample(full[5:10], vals[5:10], target, 15)
    want = dirichlet_resample(full, vals, target, 15)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_off_lattice_sweeps_rejected():
    with pytest.raises(ContractViolation):
        dft_interpolate(
            AngularSweep(SweepPlan(np.array([0.0, 0.1, 0.25]), "minimal"), np.ones(3), "magnitude"),
            np.array([0.0]))
    with pytest.raises(ContractViolation):
        # uniform but shifted off the k/15 lattice
        dft_interpolate(
            AngularSweep(SweepPlan(np.arange(-4, 5) / 15 + 0.01, "minimal"), np.ones(9), "magnitude"),
            np.array([0.0]))
    with pytest.raises(ContractViolation):
        # spacing 1/4 implies an even order
        dft_interpolate(
            AngularSweep(SweepPlan(np.array([-0.25, 0.0, 0.25]), "minimal"), np.ones(3), "magnitude"),
            np.array([0.0]))
    with pytest.raises(ContractViolation):
        dft_interpolate(
            AngularSweep(SweepPlan(np.array([0.2]), "minimal"), np.ones(1), "magnitude"),
            np.array([0.0]))


def test_single_beam_at_zero_is_constant():
    sweep = AngularSweep(SweepPlan(np.array([0.0]), "minimal"), np.array([3.0]), "magnitude")
    np.testing.assert_allclose(
        dft_interpolate(sweep, np.array([-0.2, 0.0, 0.4])), 3.0, rtol=1e-12)


def test_empty_target_grid_rejected():
    plan = minimal_sweep_plan(8, LIMIT)
    sweep = AngularSweep(plan, np.ones(9), "magnitude")
    with pytest.raises(ConfigError):
        dft_interpolate(sweep, np.array([]))
    with pytest.raises(ConfigError):
        spline_interpolate(sweep, np.array([]))


def test_spline_reproduces_linear_and_cubic_interior():
    plan9 = minimal_sweep_plan(8, LIMIT)
    xs = plan9.beam_grid
    dense = np.arange(-40, 41) / 150
    lin = 1.0 + 0.3 * xs
    got = spline_interpolate(AngularSweep(plan9, lin, "magnitude"), dense)
    np.testing.assert_allclose(got, 1.0 + 0.3 * dense, rtol=1e-12, atol=1e-12)
    poly = lambda x: 2.0 + 0.5 * x + 3 * x**2 - 4 * x**3
    interior = dense[(dense > xs[1]) & (dense < xs[-2])]
    got = spline_interpolate(AngularSweep(plan9, poly(xs), "magnitude"), interior)
    # natural end conditions leak inward a little; bound measured at build time
    assert np.abs(got - poly(interior)).max() <= 2e-3


def test_spline_clamps_at_zero():
    plan9 = minimal_sweep_plan(8, LIMIT)
    vals = np.array([0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 5.0, 0.0, 0.0])
    dense = np.linspace(-0.26, 0.26, 301)
    out = spline_interpolate(AngularSweep(plan9, vals, "magnitude"), dense)
    assert out.min() == 0.0  # undershoot between the humps is clamped


def test_spline_needs_four_samples():
    plan = SweepPlan(np.array([-1.0 / 15, 0.0, 1.0 / 15]), "minimal")
    with pytest.raises(ConfigError):
        spline_interpolate(AngularSweep(plan, np.ones(3), "magnitude"), np.array([0.0]))


@st.composite
def spline_cases(draw):
    """Strictly increasing knots in [-0.4, 0.4], uniform or not, with 1-3
    value columns and targets inside the knots and up to one end gap past
    each end."""
    n = draw(st.integers(4, 15))
    if draw(st.booleans()):
        gaps = np.ones(n - 1)
    else:
        gaps = np.array(draw(st.lists(st.floats(1.0, 5.0), min_size=n - 1, max_size=n - 1)))
    knots = np.concatenate(([0.0], np.cumsum(gaps)))
    knots = 0.8 * (knots / knots[-1] - 0.5)
    k = draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(0.0, 100.0), min_size=n * k, max_size=n * k))
    lo, hi = 2 * knots[0] - knots[1], 2 * knots[-1] - knots[-2]
    inner = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=30))
    targets = np.array(inner + [lo, hi])
    return knots, np.reshape(values, (n, k)), targets


@settings(max_examples=200, deadline=None)
@given(spline_cases())
def test_spline_matches_scipy_natural_cubic_spline(case):
    knots, values, targets = case
    got = spline_interpolate(AngularSweep(SweepPlan(knots, "minimal"), values), targets)
    # scipy is fitted in the normal range, on values scaled by an exact power
    # of two: fitted on subnormal values directly it is off by whole subnormal
    # steps, more than the bound allows there
    exponent = np.frexp(np.abs(values).max())[1]
    fit = CubicSpline(knots, np.ldexp(values, -exponent), bc_type="natural")
    want = np.maximum(np.ldexp(fit(targets), exponent), 0.0)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(values).max()


@settings(max_examples=100, deadline=None)
@given(spline_cases())
def test_spline_columns_are_independent_bit_for_bit(case):
    # the harness fits the beam values and every range bin in one call
    knots, values, targets = case
    plan = SweepPlan(knots, "minimal")
    got = spline_interpolate(AngularSweep(plan, values), targets)
    for j in range(values.shape[1]):
        np.testing.assert_array_equal(
            got[:, j], spline_interpolate(AngularSweep(plan, values[:, j]), targets))


def test_spline_of_subnormal_magnitudes_is_the_scaled_spline(rng):
    plan9 = minimal_sweep_plan(8, LIMIT)
    vals = rng.integers(0, 2**20, 9).astype(float)
    dense = np.linspace(-0.3, 0.3, 97)
    ref = spline_interpolate(AngularSweep(plan9, vals, "magnitude"), dense)
    # 20-bit integers times the smallest subnormal are exact
    tiny = spline_interpolate(AngularSweep(plan9, np.ldexp(vals, -1074), "magnitude"), dense)
    np.testing.assert_array_equal(tiny, np.ldexp(ref, -1074))
