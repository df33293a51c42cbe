import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from beamsweep import (
    CfarConfig,
    ConfigError,
    PeakEstimate,
    RadioConfig,
    ca_cfar,
    extract_peaks,
)
from beamsweep.harness import _window_basis


def test_threshold_factor_values():
    # alpha = N * (p_fa**(-1/N) - 1): N = 16 training cells in the interior,
    # N = 11 at cell 5, whose left window the profile edge cuts to 3 cells
    cfg = CfarConfig()
    for cell, alpha in ((32, 21.94197929058648), (5, 27.623109076366447)):
        for scale, expected in ((1 + 1e-12, True), (1 - 1e-12, False)):
            profile = np.ones(64)
            profile[cell] = alpha * scale
            assert ca_cfar(profile, cfg)[cell] == expected


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
    with pytest.raises(ConfigError, match="profile of 20 cells is too short for a 21-cell window"):
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


def _cfar_threshold(row, i, config):
    """One cell's CA-CFAR threshold in plain Python floats: prefix sums added
    left to right, then the two training windows as differences of them."""
    t, g, n = config.n_training // 2, config.n_guard, len(row)
    cs = [0.0]
    for v in row:
        cs.append(cs[-1] + v)
    left_lo, left_hi = max(i - g - t, 0), max(i - g, 0)
    right_lo, right_hi = min(i + g + 1, n), min(i + g + 1 + t, n)
    train_sum = (cs[left_hi] - cs[left_lo]) + (cs[right_hi] - cs[right_lo])
    counts = (left_hi - left_lo) + (right_hi - right_lo)
    alpha = counts * (config.p_fa ** (-1.0 / counts) - 1.0)
    return alpha * train_sum / counts


def _heavy_tailed(rng, shape):
    # sums of these round at many scales
    return rng.pareto(1.5, size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)


@pytest.mark.parametrize("config", [CfarConfig(), CfarConfig(8, 1, 0.3), CfarConfig(2, 0, 0.5)])
def test_cfar_equals_per_cell_python_reference(rng, config):
    for shape in ((40,), (3, 4, 41), (2, 27, 36)):
        profiles = _heavy_tailed(rng, shape)
        rows = profiles.reshape(-1, shape[-1]).tolist()
        want = [[row[i] > _cfar_threshold(row, i, config) for i in range(len(row))] for row in rows]
        assert ca_cfar(profiles, config).reshape(len(rows), -1).tolist() == want
        cells = rng.integers(0, shape[-1], size=shape[:-1] + (5,))
        got = ca_cfar(profiles, config, cells=cells).reshape(len(rows), 5).tolist()
        assert got == [[w[i] for i in idx] for w, idx in zip(want, cells.reshape(len(rows), 5))]
    # bit for bit: cells put within a few rounding steps of their threshold,
    # where one step of difference in a prefix sum flips the decision
    profiles = _heavy_tailed(rng, (200, 40))
    cells = rng.integers(0, 40, size=200)
    flips = set()
    for steps in range(-3, 4):
        for row, i in zip(profiles, cells):
            row[i] = _cfar_threshold(row.tolist(), i, config) * (1 + steps * 2.0**-52)
        want = [
            row[i] > _cfar_threshold(row.tolist(), i, config) for row, i in zip(profiles, cells)
        ]
        assert ca_cfar(profiles, config, cells=cells[:, None])[:, 0].tolist() == want
        flips.add(tuple(want))
    assert len(flips) > 2  # the decisions do turn on the last bits
    # cells broadcast over leading axes of length one, as in np.take_along_axis
    profiles = rng.exponential(1.0, size=(3, 40))
    cells = np.array([[0, 17, 39]])
    np.testing.assert_array_equal(
        ca_cfar(profiles, config, cells=cells),
        np.take_along_axis(ca_cfar(profiles, config), np.broadcast_to(cells, (3, 3)), axis=-1),
    )
    with pytest.raises(ConfigError, match="one axis per profile axis"):
        ca_cfar(profiles, config, cells=np.array([0, 17]))


def test_cfar_scale_invariant(rng):
    profile = rng.exponential(1.0, size=512)
    base = ca_cfar(profile, CfarConfig())
    scaled = ca_cfar(float(2**20) * profile, CfarConfig())
    np.testing.assert_array_equal(base, scaled)


# zeros and normal magnitudes only: scaling a subnormal by 2**k drops bits
_cfar_cells = st.just(0.0) | st.floats(1e-100, 1e100)


@settings(max_examples=100, deadline=None)
@given(
    profiles=st.tuples(st.integers(1, 3), st.integers(21, 48)).flatmap(
        lambda shape: arrays(float, shape, elements=_cfar_cells)
    ),
    exponent=st.integers(-64, 64),
    config=st.sampled_from([CfarConfig(), CfarConfig(8, 1, 0.3), CfarConfig(2, 0, 0.5)]),
)
def test_cfar_scale_invariant_bit_for_bit(profiles, exponent, config):
    # a power-of-two factor scales every prefix sum and threshold exactly
    scaled = ca_cfar(2.0**exponent * profiles, config)
    np.testing.assert_array_equal(scaled, ca_cfar(profiles, config))


@pytest.mark.parametrize("level", [1e308, 1e306], ids=["prefix_sums", "threshold"])
def test_cfar_refuses_an_overflowing_sum_or_threshold(level):
    # finite powers whose prefix sums (at 1e308) or alpha times the training
    # sum (at 1e306, alpha about 22) pass the float range: one ConfigError,
    # no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="training sums overflow"):
            ca_cfar(np.full(64, level), CfarConfig())


def test_cfar_false_alarm_rate_on_noise():
    rng = np.random.default_rng(6)
    profile = rng.exponential(1.0, size=65536)
    rate = ca_cfar(profile, CfarConfig(16, 2, 1e-2)).mean()
    assert 0.5e-2 < rate < 2e-2


def test_gate_range_drops_excluded_rows(radio):
    # the range gate keeps the display bins outside RANGE_GATE_EXCLUDE_M
    basis = _window_basis(radio)
    kept = basis.centers[basis.keep]
    assert basis.centers.size == 42
    assert kept.size == 36
    assert kept[-1] == pytest.approx(20.828839189296488, rel=1e-12)
    assert kept.max() < 21.0
    dropped = basis.centers[~basis.keep]
    assert dropped.min() >= 21.0 and dropped.max() <= 25.0


def test_gate_range_must_keep_a_row():
    # a display window inside [21, 25] m leaves the gate nothing to keep
    with pytest.raises(ConfigError):
        _window_basis(RadioConfig(range_window_m=(21.5, 24.5), n_range_bins=7))


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
    # an exclusion narrower than the parabolic shift still retires the
    # picked bin, so the same peak is never reported twice
    smooth = np.exp(-(((axis - 0.0502) / 0.03) ** 2))
    first, second = extract_peaks(smooth, axis, 1e-4, max_peaks=2)
    assert abs(first.naf - axis[np.argmax(smooth)]) > 1e-4
    assert second.naf != first.naf


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


def test_refinement_past_the_float_range_keeps_the_peak_without_a_warning():
    # two huge ineligible neighbours beside the pick: the parabola's
    # denominator overflows to inf, so the offset is 0 and the pick keeps
    # its bin centre, with no overflow warning on the way
    axis = np.linspace(-0.2, 0.2, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (peak,) = extract_peaks(
            [0, 1e308, 1.0, 1e308, 0], axis, 0.01, 1,
            detected=[False, False, True, False, False],
        )
    assert (peak.naf, peak.power) == (axis[2], 1.0)
    assert math.isnan(peak.range_m)


def test_edge_peak_keeps_bin_center():
    # refinement needs both neighbours, so a peak in an end bin is not moved
    axis = np.linspace(-0.5, 0.5, 101)
    for vertex, i in ((-0.503, 0), (0.503, -1)):
        spectrum = 1.0 - (axis - vertex) ** 2
        (peak,) = extract_peaks(spectrum, axis, 0.1, max_peaks=1)
        assert peak.naf == axis[i]


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
    with pytest.raises(ConfigError):
        extract_peaks(spectrum, axis, 0.01, ranges_m=[1.0] * 8)
    with pytest.raises(ConfigError):
        extract_peaks(np.ones((2, 9)), np.ones((2, 9)), 0.01)
    with pytest.raises(ConfigError):
        extract_peaks(np.ones((2, 9)), axis, 0.01, detected=[True] * 9)
    # the parabolic refinement needs the axis in order: shuffled, descending
    # or repeated bins are no neighbours
    for bad in (axis[[0, 2, 1, 3, 4, 5, 6, 7, 8]], axis[::-1], np.r_[axis[:8], axis[7]]):
        with pytest.raises(ConfigError, match="NAF axis must be strictly increasing"):
            extract_peaks(spectrum, bad, 0.01)


def _loop_peaks(spectrum, axis, resolution, max_peaks, detected, ranges):
    """The one-spectrum loop that the batched extract_peaks replaced, kept as
    the reference: same argmax, refinement and exclusion, in numpy scalars.
    A positive peak whose square underflows is refused with the message
    extract_peaks gives (these spectra stay far below an overflow)."""
    eligible = np.ones(spectrum.size, dtype=bool) if detected is None else detected.copy()
    peaks = []
    for _ in range(max_peaks):
        if not np.any(eligible):
            break
        i = int(np.argmax(np.where(eligible, spectrum, -np.inf)))
        value = spectrum[i]
        if not value > 0:
            break
        naf = float(axis[i])
        if 0 < i < spectrum.size - 1:
            y_left, y_right = spectrum[i - 1], spectrum[i + 1]
            denom = y_left - 2.0 * value + y_right
            offset = 0.0 if denom == 0.0 else np.clip(0.5 * (y_left - y_right) / denom, -0.5, 0.5)
            naf += offset * (0.5 * (axis[i + 1] - axis[i - 1]))
        range_m = math.nan if ranges is None else float(ranges[i])
        power = float(value) * float(value)  # correctly rounded, where ** 2 is not
        if power == 0.0:
            raise ConfigError(
                f"peak magnitude {float(value)!r} is too small: its power underflows to 0"
            )
        peaks.append(PeakEstimate(float(naf), range_m, power))
        eligible &= np.abs(axis - naf) > resolution
        eligible[i] = False
    return peaks


def _bits(peaks):
    return np.array([(p.naf, p.range_m, p.power) for p in peaks], dtype=float).tobytes()


def _outcome(find, *args):
    """The raw bytes of one call's peaks, or the ConfigError it raised."""
    try:
        return _bits(find(*args))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@st.composite
def _peak_batches(draw):
    n_rows, n_bins = draw(st.integers(1, 6)), draw(st.integers(1, 24))
    # a few repeated levels make flat tops (a zero parabola denominator) and
    # ties common; small bin counts make edge picks common
    levels = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(-1.0, 4.0)
    spectrum = draw(arrays(float, (n_rows, n_bins), elements=levels))
    spectrum[draw(arrays(bool, n_rows))] = 0.0
    detected = draw(st.none() | arrays(bool, (n_rows, n_bins)))
    if detected is not None:
        detected[draw(arrays(bool, n_rows))] = False
    ranges = draw(st.none() | arrays(float, (n_rows, n_bins), elements=st.floats(0.0, 30.0)))
    # 1e-9 is below any parabolic shift on these grids
    resolution = draw(st.sampled_from([1e-9, 0.01, 0.1, 0.6]))
    return spectrum, detected, ranges, resolution, draw(st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(_peak_batches())
def test_batched_peaks_equal_row_by_row_calls(batch):
    spectrum, detected, ranges, resolution, max_peaks = batch
    axis = np.linspace(-0.5, 0.5, spectrum.shape[1])

    def row(r):
        return (
            spectrum[r], axis, resolution, max_peaks,
            None if detected is None else detected[r], None if ranges is None else ranges[r],
        )

    want = [_outcome(_loop_peaks, *row(r)) for r in range(len(spectrum))]
    assert [_outcome(extract_peaks, *row(r)) for r in range(len(spectrum))] == want
    try:
        batched = extract_peaks(spectrum, axis, resolution, max_peaks, detected, ranges)
    except ConfigError:  # a positive peak whose square underflows to zero
        assert any(isinstance(w, str) for w in want)
        return
    assert [_bits(peaks) for peaks in batched] == want
    # further leading axes are flattened into the same rows
    stacked = extract_peaks(
        spectrum[:, None], axis, resolution, max_peaks,
        None if detected is None else detected[:, None],
        None if ranges is None else ranges[:, None],
    )
    assert [_bits(peaks) for peaks in stacked] == want

