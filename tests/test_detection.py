import numpy as np
import pytest

from beamsweep import (
    CfarConfig,
    ConfigError,
    PeakEstimate,
    RangeAngleMap,
    ca_cfar,
    cfar_threshold_factor,
    extract_peaks,
    gate_range,
)


def test_threshold_factor_values():
    assert cfar_threshold_factor(16, 1e-6) == pytest.approx(21.94197929058648, rel=1e-14)
    assert cfar_threshold_factor(11, 1e-6) == pytest.approx(27.623109076366447, rel=1e-14)
    assert cfar_threshold_factor(16, 1e-2) == pytest.approx(5.3363429146131836, rel=1e-14)


def test_threshold_factor_validation():
    with pytest.raises(ConfigError):
        cfar_threshold_factor(0, 1e-6)
    with pytest.raises(ConfigError):
        cfar_threshold_factor(16, 0.0)
    with pytest.raises(ConfigError):
        cfar_threshold_factor(16, 1.0)


def test_cfar_config_validation():
    CfarConfig(n_training=2, n_guard=0, p_fa=0.5)
    with pytest.raises(ConfigError):
        CfarConfig(n_training=15)
    with pytest.raises(ConfigError):
        CfarConfig(n_training=0)
    with pytest.raises(ConfigError):
        CfarConfig(n_guard=-1)
    with pytest.raises(ConfigError):
        CfarConfig(p_fa=0.0)


def test_cfar_constant_profile_silent():
    assert not ca_cfar(np.ones(64), CfarConfig()).any()


def test_cfar_detects_isolated_spike():
    profile = np.ones(64)
    profile[32] = 1000.0
    mask = ca_cfar(profile, CfarConfig())
    assert list(np.flatnonzero(mask)) == [32]


def test_cfar_edge_spike_uses_one_sided_window():
    profile = np.ones(64)
    profile[0] = 1000.0
    mask = ca_cfar(profile, CfarConfig())
    assert list(np.flatnonzero(mask)) == [0]


def test_cfar_minimum_profile_length():
    cfg = CfarConfig()  # window is 2 * (8 + 2) + 1 = 21 cells
    ca_cfar(np.ones(21), cfg)
    with pytest.raises(ConfigError):
        ca_cfar(np.ones(20), cfg)


def test_cfar_input_validation():
    cfg = CfarConfig()
    with pytest.raises(ConfigError):
        ca_cfar(np.float64(1.0), cfg)
    bad = np.ones(32)
    bad[3] = -1.0
    with pytest.raises(ConfigError):
        ca_cfar(bad, cfg)
    bad[3] = np.nan
    with pytest.raises(ConfigError):
        ca_cfar(bad, cfg)


def test_cfar_nd_equals_stacked_rows(rng):
    # leading axes are independent profiles; spikes sit in both one-sided
    # edge windows and in the interior
    profiles = rng.exponential(1.0, size=(3, 5, 64))
    profiles[0, :, 0] = 1000.0
    profiles[1, :, -1] = 1000.0
    profiles[2, :, [1, 32, 62]] = 1000.0
    cfg = CfarConfig()
    mask = ca_cfar(profiles, cfg)
    assert mask.shape == profiles.shape
    stacked = np.array([[ca_cfar(row, cfg) for row in block] for block in profiles])
    np.testing.assert_array_equal(mask, stacked)
    assert mask[0, :, 0].all() and mask[1, :, -1].all() and mask[2, :, 32].all()
    # testing only given cells equals the full mask gathered there: every
    # cell, the edge cells 0 and n-1 included, in a shuffled order per row;
    # the loose p_fa puts many cells near their threshold
    cells = rng.permuted(np.broadcast_to(np.arange(64), profiles.shape), axis=-1)
    for c in (cfg, CfarConfig(8, 1, 0.3)):
        np.testing.assert_array_equal(
            ca_cfar(profiles, c, cells=cells),
            np.take_along_axis(ca_cfar(profiles, c), cells, axis=-1),
        )
    with pytest.raises(ConfigError):
        ca_cfar(profiles, cfg, cells=np.full((3, 5, 1), 64))
    with pytest.raises(ConfigError):
        ca_cfar(np.ones((4, 20)), cfg)


def test_cfar_scale_invariant(rng):
    profile = rng.exponential(1.0, size=512)
    base = ca_cfar(profile, CfarConfig())
    scaled = ca_cfar(float(2**20) * profile, CfarConfig())
    np.testing.assert_array_equal(base, scaled)


def test_cfar_false_alarm_rate_on_noise():
    rng = np.random.default_rng(6)
    profile = rng.exponential(1.0, size=65536)
    rate = ca_cfar(profile, CfarConfig(16, 2, 1e-2)).mean()
    assert 0.5e-2 < rate < 2e-2


def _map_from(radio, n_naf=5):
    centers = radio.range_axis(radio.n_range_bins)
    power = np.arange(centers.size * n_naf, dtype=float).reshape(centers.size, n_naf)
    return RangeAngleMap(power, centers, np.linspace(-0.2, 0.2, n_naf))


def test_gate_range_drops_excluded_rows(radio):
    map_ = _map_from(radio)
    gated = gate_range(map_, (21.0, 25.0))
    assert map_.range_axis.size == 42
    assert gated.range_axis.size == 36
    assert gated.range_axis[-1] == pytest.approx(20.828839189296488, rel=1e-12)
    assert gated.range_axis.max() < 21.0
    assert gated.power.shape == (36, 5)
    np.testing.assert_array_equal(gated.naf_axis, map_.naf_axis)


def test_gate_range_empty_interval_is_identity(radio):
    map_ = _map_from(radio)
    assert gate_range(map_, (5.0, 1.0)) is map_


def test_gate_range_must_keep_a_row(radio):
    map_ = _map_from(radio)
    with pytest.raises(ConfigError):
        gate_range(map_, (-1.0, 1e6))


def test_peak_estimate_requires_positive_power():
    PeakEstimate(0.1, 18.0, 1e-12)
    with pytest.raises(ConfigError):
        PeakEstimate(0.1, 18.0, 0.0)
    with pytest.raises(ConfigError):
        PeakEstimate(0.1, 18.0, np.nan)


def test_extract_two_separated_peaks():
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    i0, i1 = 30, 60  # 0.2 apart, 3x the exclusion half-width
    spectrum[i0 - 1 : i0 + 2] = [1.0, 2.0, 1.0]
    spectrum[i1 - 1 : i1 + 2] = [0.7, 1.5, 0.7]
    peaks = extract_peaks(spectrum, axis, 1.0 / 15.0)
    assert len(peaks) == 2
    assert peaks[0].naf == pytest.approx(axis[i0])
    assert peaks[1].naf == pytest.approx(axis[i1])
    assert peaks[0].power == pytest.approx(4.0)
    assert peaks[1].power == pytest.approx(2.25)


def test_extract_merges_peaks_inside_exclusion():
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    spectrum[45] = 2.0
    spectrum[50] = 1.9  # 5 bins = 0.033, half the exclusion width away
    peaks = extract_peaks(spectrum, axis, 1.0 / 15.0, max_peaks=2)
    assert len(peaks) == 1
    assert peaks[0].naf == pytest.approx(axis[45])


def test_parabolic_refinement_exact_on_quadratic():
    axis = np.linspace(-0.5, 0.5, 101)
    vertex = 0.003  # 0.3 bins right of the bin at zero
    spectrum = 1.0 - (axis - vertex) ** 2
    (peak,) = extract_peaks(spectrum, axis, 0.1, max_peaks=1)
    assert peak.naf == pytest.approx(vertex, abs=1e-12)


def test_refinement_offset_clamped_to_half_bin():
    # masking the true maximum makes the three-point fit open upward, which
    # would extrapolate 0.9 bins without the clamp
    axis = np.array([-0.1, 0.0, 0.1])
    spectrum = np.array([10.0, 3.0, 1.0])
    (peak,) = extract_peaks(
        spectrum, axis, 0.5, max_peaks=1, detected=[False, True, True]
    )
    assert peak.naf == pytest.approx(0.05)
    assert peak.power == pytest.approx(9.0)


def test_refine_false_keeps_bin_center():
    axis = np.linspace(-0.5, 0.5, 101)
    spectrum = 1.0 - (axis - 0.003) ** 2
    (peak,) = extract_peaks(spectrum, axis, 0.1, max_peaks=1, refine=False)
    assert peak.naf == axis[np.argmax(spectrum)]


def test_detected_mask_gates_candidates():
    axis = np.linspace(-0.2, 0.2, 9)
    spectrum = np.array([0.0, 5.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0])
    mask = np.ones(9, dtype=bool)
    mask[1] = False
    peaks = extract_peaks(spectrum, axis, 0.01, max_peaks=1, detected=mask)
    assert peaks[0].naf == pytest.approx(axis[4])


def test_ranges_pass_through_at_peak_bin():
    axis = np.linspace(-0.2, 0.2, 9)
    spectrum = np.zeros(9)
    spectrum[6] = 4.0
    ranges = np.arange(9) * 2.0
    peaks = extract_peaks(spectrum, axis, 0.01, max_peaks=1, ranges_m=ranges)
    assert peaks[0].range_m == 12.0
    no_ranges = extract_peaks(spectrum, axis, 0.01, max_peaks=1)
    assert np.isnan(no_ranges[0].range_m)


def test_max_peaks_caps_output():
    axis = np.linspace(-0.2, 0.2, 41)
    spectrum = np.zeros(41)
    spectrum[5] = 3.0
    spectrum[35] = 2.0
    assert len(extract_peaks(spectrum, axis, 0.01, max_peaks=1)) == 1
    assert len(extract_peaks(spectrum, axis, 0.01, max_peaks=5)) == 2


def test_zero_spectrum_yields_no_peaks():
    axis = np.linspace(-0.2, 0.2, 41)
    assert extract_peaks(np.zeros(41), axis, 0.01) == []


def test_extract_peaks_validation():
    axis = np.linspace(-0.2, 0.2, 9)
    spectrum = np.ones(9)
    with pytest.raises(ConfigError):
        extract_peaks(np.ones(0), np.ones(0), 0.01)
    with pytest.raises(ConfigError):
        extract_peaks(spectrum, axis[:-1], 0.01)
    with pytest.raises(ConfigError):
        extract_peaks(spectrum, axis, 0.0)
    with pytest.raises(ConfigError):
        extract_peaks(spectrum, axis, 0.01, max_peaks=0)
    with pytest.raises(ConfigError):
        extract_peaks(spectrum, axis, 0.01, detected=[True] * 8)
