"""CSI synthesis, range processing, map containers and file formats."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from beamsweep import (
    C0,
    ConfigError,
    RadioConfig,
    RangeAngleMap,
    Scatterer,
    dump_ramp,
    load_ramp,
)
from beamsweep.ofdm import scene_subcarrier_profile
from csi_oracle import (
    FrameCsi,
    noisy_csi_from_profile,
    range_doppler_periodogram,
    synthesize_csi,
)


def test_radio_derived_values(radio):
    assert radio.range_fft_size == 2099
    assert radio.range_bin_width_m == pytest.approx(0.5951096911227568, rel=1e-15)
    assert radio.unambiguous_range_m == pytest.approx(1249.1352416666666, rel=1e-15)
    np.testing.assert_array_equal(radio.window_bins(), np.arange(42))
    assert radio.range_axis().shape == (2099,)


def test_radio_validation():
    with pytest.raises(ConfigError):
        RadioConfig(subcarrier_spacing_hz=0.0)
    with pytest.raises(ConfigError):
        RadioConfig(range_window_m=(10.0, 5.0))
    with pytest.raises(ConfigError):
        RadioConfig(range_window_m=(0.0, 2000.0))  # beyond unambiguous range
    with pytest.raises(ConfigError):
        RadioConfig(n_range_bins=1)  # window would need fewer FFT bins than subcarriers


def test_radio_rejects_more_range_bins_than_subcarriers():
    # the window IDFT's QR factor is square only for n_range_bins <= n_subcarriers;
    # both configs are refused before any array is built
    for kwargs in ({"n_subcarriers": 32}, {"n_range_bins": 10**9}):
        with pytest.raises(ConfigError, match="n_range_bins must not exceed n_subcarriers"):
            RadioConfig(**kwargs)
    assert RadioConfig(n_subcarriers=42, n_range_bins=42).n_range_bins == 42


def test_profile_empty_scene(radio, geom8, ones8):
    p = scene_subcarrier_profile(radio, [], geom8, ones8, 0.0)
    assert p.shape == (792,)
    assert not p.any()
    rows = scene_subcarrier_profile(radio, [], geom8, ones8, np.zeros(3))
    assert rows.shape == (3, 792)
    assert not rows.any()


def test_profile_matches_brute_force(radio, geom8, ones8, rng):
    scene = [Scatterer(float(n), float(r), complex(a))
             for n, r, a in zip(rng.uniform(-0.3, 0.3, 3),
                                rng.uniform(5.0, 20.0, 3),
                                rng.standard_normal(3))]
    steer = 0.1
    got = scene_subcarrier_profile(radio, scene, geom8, ones8, steer)
    n = np.arange(radio.n_subcarriers)
    want = np.zeros(radio.n_subcarriers, dtype=complex)
    from beamsweep import beamformed_response
    for s in scene:
        gain = beamformed_response(geom8, ones8, [Scatterer(s.naf, s.range_m, s.amplitude)], steer)
        want += gain * np.exp(-2j * np.pi * n * radio.subcarrier_spacing_hz * 2 * s.range_m / C0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)
    # an array of steering NAFs gives the rows of stacked scalar calls
    steers = np.linspace(-0.27, 0.27, 9)
    rows = scene_subcarrier_profile(radio, scene, geom8, ones8, steers)
    assert rows.shape == (9, radio.n_subcarriers)
    stacked = np.stack([scene_subcarrier_profile(radio, scene, geom8, ones8, s) for s in steers])
    np.testing.assert_allclose(rows, stacked, rtol=1e-12)


def test_profile_head_on_gain(radio, geom8, ones8):
    p = scene_subcarrier_profile(radio, [Scatterer(0.0, 18.0)], geom8, ones8, 0.0)
    assert p[0] == pytest.approx(64.0 + 0.0j)
    assert abs(p[1]) == pytest.approx(64.0, rel=1e-12)


def test_noisy_csi_tiling_and_errors(radio, rng):
    profile = rng.standard_normal(radio.n_subcarriers) + 0j
    clean = noisy_csi_from_profile(profile, radio, 0.0, rng)
    assert clean.shape == (792, 14)
    np.testing.assert_array_equal(clean, np.tile(profile[:, None], (1, 14)))
    with pytest.raises(ConfigError):
        noisy_csi_from_profile(profile, radio, -1.0, rng)


def test_synthesize_csi_determinism(radio, geom8, ones8):
    scene = [Scatterer(0.05, 18.0)]
    a = synthesize_csi(radio, scene, geom8, ones8, 0.0, 10.0, (3, 0, 1))
    b = synthesize_csi(radio, scene, geom8, ones8, 0.0, 10.0, (3, 0, 1))
    np.testing.assert_array_equal(a.entries, b.entries)
    c = synthesize_csi(radio, scene, geom8, ones8, 0.0, 10.0, (3, 0, 2))
    assert not np.array_equal(a.entries, c.entries)
    # a generator instance advances between calls
    gen = np.random.default_rng(9)
    d = synthesize_csi(radio, scene, geom8, ones8, 0.0, 10.0, gen)
    e = synthesize_csi(radio, scene, geom8, ones8, 0.0, 10.0, gen)
    assert not np.array_equal(d.entries, e.entries)


def test_frame_csi_shape_validation(radio):
    with pytest.raises(ConfigError):
        FrameCsi(np.zeros((10, 14), dtype=complex), radio)


def test_periodogram_parseval(radio, geom8, ones8):
    csi = synthesize_csi(
        radio, [Scatterer(0.0, 18.0)], geom8, ones8, 0.0, 5.0, (1, 2, 3))
    pg = range_doppler_periodogram(csi)
    assert pg.power.shape == (2099, 14)
    energy = np.sum(np.abs(csi.entries) ** 2)
    assert pg.power.sum() == pytest.approx(
        energy * radio.n_symbols / radio.range_fft_size, rel=1e-12)


def test_static_scene_energy_is_zero_doppler(radio, geom8, ones8):
    csi = synthesize_csi(radio, [Scatterer(0.0, 18.0)], geom8, ones8, 0.0, 0.0, 0)
    pg = range_doppler_periodogram(csi)
    assert pg.power[:, 1:].max() <= 1e-18 * pg.power[:, 0].max()
    # 18 m lands in display bin 30
    assert int(np.argmax(pg.zero_doppler[:42])) == 30


def test_range_angle_map_validation():
    with pytest.raises(ConfigError):
        RangeAngleMap(np.ones((3, 2)), np.arange(2.0), np.arange(2.0))
    with pytest.raises(ConfigError):
        RangeAngleMap(-np.ones((2, 2)), np.arange(2.0), np.arange(2.0))
    with pytest.raises(ConfigError):
        RangeAngleMap(np.ones((2, 2)), np.array([1.0, 0.5]), np.arange(2.0))


def test_ramp_roundtrip(tmp_path, rng):
    power = rng.uniform(0.0, 5.0, (42, 81))
    m = RangeAngleMap(power, np.linspace(0.0, 24.4, 42), np.linspace(-0.27, 0.27, 81))
    path = tmp_path / "map.ramp"
    dump_ramp(m, path)
    back = load_ramp(path)
    np.testing.assert_array_equal(back.power, power)  # float64 bytes survive
    np.testing.assert_allclose(back.range_axis, m.range_axis, rtol=1e-15)
    np.testing.assert_allclose(back.naf_axis, m.naf_axis, rtol=1e-15)


@st.composite
def _maps(draw):
    n_range, n_angle = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    power = draw(arrays(float, (n_range, n_angle), elements=st.floats(0.0, 1e300)))

    def axis(n):
        start = draw(st.floats(-1e3, 1e3))
        step = draw(st.floats(1e-3, 10.0))
        return start + step * np.arange(n)

    return RangeAngleMap(power, axis(n_range), axis(n_angle))


@settings(max_examples=60, deadline=None)
@given(map_=_maps())
def test_ramp_dump_load_dump_is_byte_stable(tmp_path_factory, map_):
    first, second = (tmp_path_factory.mktemp("ramp") / "map.ramp" for _ in range(2))
    dump_ramp(map_, first)
    back = load_ramp(first)
    dump_ramp(back, second)
    assert second.read_bytes() == first.read_bytes()
    assert back.power.tobytes() == map_.power.tobytes()


def test_ramp_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ramp"
    bad.write_bytes(b"PMAR" + b"\x00" * 64)
    with pytest.raises(ConfigError):
        load_ramp(bad)
    short = tmp_path / "short.ramp"
    short.write_bytes(b"RA")
    with pytest.raises(ConfigError):
        load_ramp(short)
    # a whole header whose data stops one cell early
    dump_ramp(RangeAngleMap(np.ones((3, 4)), np.arange(3.0), np.arange(4.0)), short)
    short.write_bytes(short.read_bytes()[:-8])
    with pytest.raises(ConfigError, match="12 cells"):
        load_ramp(short)


def test_ramp_version_check(tmp_path, rng):
    m = RangeAngleMap(np.ones((2, 2)), np.arange(2.0), np.arange(2.0))
    path = tmp_path / "v.ramp"
    dump_ramp(m, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9  # bump the version field
    path.write_bytes(bytes(raw))
    with pytest.raises(ConfigError):
        load_ramp(path)
