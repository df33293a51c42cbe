"""Array layouts, NAF resolution and the sum coarray."""
import numpy as np
import pytest

from beamsweep import (
    ArrayGeometry,
    BeamformingWeights,
    ConfigError,
    SweepPlan,
    naf_resolution,
    sum_coarray,
)


def test_uniform_linear_centered():
    g = ArrayGeometry.uniform_linear(8, 8)
    assert g.n_tx == 8 and g.n_rx == 8
    np.testing.assert_allclose(g.tx_positions[:, 0].sum(), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.diff(g.tx_positions[:, 0]), 1.0)
    np.testing.assert_allclose(g.tx_positions[:, 1], 0.0)
    assert not g.tx_positions.flags.writeable


def test_geometry_validation():
    with pytest.raises(ConfigError):
        ArrayGeometry.uniform_linear(0, 8)
    with pytest.raises(ConfigError):
        ArrayGeometry(np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        ArrayGeometry(np.zeros((2, 2)), np.zeros((2, 2)), spacing_wavelengths=-0.5)


def test_sum_coarray_8x8(geom8):
    co = sum_coarray(geom8)
    assert co.n_virtual == 15
    np.testing.assert_allclose(co.positions[:, 0], np.arange(-7, 8))
    np.testing.assert_allclose(co.positions[:, 1], 0.0)
    # triangular pair counts
    assert co.multiplicities.tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 1]
    assert int(co.multiplicities.sum()) == 64


def test_sum_coarray_asymmetric():
    co = sum_coarray(ArrayGeometry.uniform_linear(2, 3))
    np.testing.assert_allclose(co.positions[:, 0], [-1.5, -0.5, 0.5, 1.5])
    assert co.multiplicities.tolist() == [1, 2, 2, 1]


def test_sum_coarray_multiplicity_total(rng):
    # pair count conservation holds for arbitrary layouts
    for _ in range(5):
        tx = np.round(rng.integers(-3, 4, size=(rng.integers(1, 6), 2)).astype(float))
        rx = np.round(rng.integers(-3, 4, size=(rng.integers(1, 6), 2)).astype(float))
        g = ArrayGeometry(tx, rx)
        co = sum_coarray(g)
        assert int(co.multiplicities.sum()) == g.n_tx * g.n_rx
        assert np.all(np.diff(co.positions[:, 0]) >= 0)


def test_naf_resolution():
    assert naf_resolution(8) == pytest.approx(1.0 / 15.0, rel=1e-15)
    assert naf_resolution(1) == 1.0
    with pytest.raises(ConfigError):
        naf_resolution(0)
    with pytest.raises(ConfigError):
        naf_resolution(2.5)


_GRID = np.arange(-4, 5) / 15

# per config type: a function building one content, and other contents of that type;
# the last of each differs from the built one only by the sign of a zero
_CONTENTS = {
    "geometry": (
        lambda: ArrayGeometry([[-0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]),
        lambda: [
            ArrayGeometry([[-0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]], 0.25),
            ArrayGeometry([[-0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0]]),
            ArrayGeometry([[-0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),
            ArrayGeometry([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]]),
        ],
    ),
    "weights": (
        lambda: BeamformingWeights(np.ones(4), [1, 1, 1, -0.0]),
        lambda: [
            BeamformingWeights(np.ones(4), [1, 1, 1]),
            BeamformingWeights(np.ones(4), [1, 1, 1, 1j]),
            BeamformingWeights([1, 1, 1, -0.0], np.ones(4)),
            BeamformingWeights(np.ones(4), [1, 1, 1, 0.0]),
        ],
    ),
    "plan": (
        lambda: SweepPlan(np.r_[_GRID[:4], -0.0, _GRID[5:]], "minimal"),
        lambda: [
            SweepPlan(np.r_[_GRID[:4], -0.0, _GRID[5:]], "oversampled"),
            SweepPlan(np.r_[_GRID[:4], -0.0, _GRID[5:]], "minimal", dwell_frames=3),
            SweepPlan(_GRID[1:], "minimal"),
            SweepPlan(_GRID, "minimal"),
        ],
    ),
}


@pytest.mark.parametrize("kind", sorted(_CONTENTS))
def test_configs_compare_and_hash_by_content(kind):
    build, others = _CONTENTS[kind]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    for other in others():
        assert a != other and other != a
        assert len({a, other}) == 2
    for other_kind, (build_other, _) in _CONTENTS.items():
        if other_kind != kind:
            assert a != build_other()
    assert a != a._content()
