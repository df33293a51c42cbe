import collections
import dataclasses
import json
import math
import re
import sys
import threading

import numpy as np
import pytest
from scipy.stats import ks_2samp

from beamsweep import (
    AngularSweep,
    ArrayGeometry,
    BeamformingWeights,
    CfarConfig,
    ConfigError,
    EvalSettings,
    RadioConfig,
    RearWall,
    Scatterer,
    Scenario,
    Scene,
    build_scene,
    dft_interpolate,
    estimate_ground_truth,
    extract_peaks,
    minimal_sweep_plan,
    naf_error_to_cross_track_m,
    reference_noise_power,
    run_comparison,
    scenario_catalog,
    score_rmse,
    simulate_acquisition,
    spline_interpolate,
)
from beamsweep import harness
from beamsweep.harness import _eligibility, _window_basis
from beamsweep.reconstruct import SweepPlan, oversampled_sweep_plan
from csi_oracle import range_doppler_periodogram, synthesize_csi


def test_cross_track_conversion():
    assert naf_error_to_cross_track_m(0.017, 18.0) == pytest.approx(
        0.30601474091713676, rel=1e-14
    )
    assert naf_error_to_cross_track_m(0.0, 5.0) == 0.0
    # arguments beyond the unit circle saturate instead of raising
    assert naf_error_to_cross_track_m(2.0, 1.0) == pytest.approx(math.pi / 2)
    assert naf_error_to_cross_track_m(-2.0, 1.0) == pytest.approx(-math.pi / 2)
    with pytest.raises(ConfigError):
        naf_error_to_cross_track_m(0.01, 0.0)


def test_ground_truth_buckets_by_nearest_nominal():
    frames = [[-0.11, 0.09], [-0.09, 0.11], [-0.10]]
    truth, counts = estimate_ground_truth(frames, (-0.1, 0.1))
    assert truth[0] == pytest.approx(np.median([-0.11, -0.09, -0.10]))
    assert truth[1] == pytest.approx(np.median([0.09, 0.11]))
    assert counts == (3, 2)


def test_ground_truth_falls_back_to_nominal():
    truth, counts = estimate_ground_truth([[-0.1], [-0.12]], (-0.1, 0.1))
    assert truth[1] == 0.1
    assert counts == (2, 0)
    empty_truth, empty_counts = estimate_ground_truth([], (-0.2, 0.2))
    assert empty_truth == (-0.2, 0.2)
    assert empty_counts == (0, 0)


def test_score_rmse_hand_example():
    s = score_rmse([[-0.1, 0.12]], [(-0.1, 0.1)])
    assert s.rmse_per_target[0] == pytest.approx(0.0)
    assert s.rmse_per_target[1] == pytest.approx(0.02)
    assert s.pooled_rmse == pytest.approx(np.sqrt(0.02**2 / 2))
    assert s.n_runs == 1
    assert s.n_missed == 0
    assert s.detection_rate == 1.0


def test_score_rmse_counts_empty_runs_as_misses():
    s = score_rmse([[], [-0.1, 0.1]], [(-0.1, 0.1), (-0.1, 0.1)])
    assert s.n_missed == 1
    assert s.detection_rate == 0.5
    assert s.rmse_per_target == (0.0, 0.0)


def test_score_rmse_reuses_nearest_estimate():
    s = score_rmse([[0.05]], [(-0.1, 0.1)])
    assert s.errors_per_target[0] == (pytest.approx(0.15),)
    assert s.errors_per_target[1] == (pytest.approx(-0.05),)


def test_score_rmse_validation():
    with pytest.raises(ConfigError):
        score_rmse([[0.1]], [])
    with pytest.raises(ConfigError):
        score_rmse([[0.1], [0.2]], [(-0.1, 0.1)])
    with pytest.raises(ConfigError):
        score_rmse([[0.1], [0.2]], [(-0.1, 0.1), (-0.1,)])


def test_eval_settings_defaults():
    s = EvalSettings()
    geom = s.geometry()
    assert geom.n_tx == 8 and geom.n_rx == 8
    assert np.allclose(geom.tx_positions.sum(), 0.0)
    w = s.weights()
    assert np.all(w.tx == 1.0) and np.all(w.rx == 1.0)
    assert s.naf_limit == pytest.approx(0.2723195175075136, rel=1e-14)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # the minimal sweep would average only the frames the truth drew
        (dict(dwell_frames=30), "dwell_frames (30) must not exceed ground_truth_frames (24)"),
        (dict(dwell_frames=7, ground_truth_frames=6), "dwell_frames (7)"),
        # the sweep order 2*min(n)-1 holds only for a square array
        (dict(n_tx=8, n_rx=6), "n_tx (8) and n_rx (6) must be equal"),
        (dict(n_tx=4, n_rx=8), "n_tx (4) and n_rx (8) must be equal"),
        (dict(dictionary_kind="bogus"), "unknown dictionary kind 'bogus'"),
    ],
)
def test_eval_settings_rejects(kwargs, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        EvalSettings(**kwargs)


def test_eval_settings_accepts_the_edges():
    s = EvalSettings(dwell_frames=24, n_tx=4, n_rx=4, dictionary_kind="flat")
    assert s.dwell_frames == s.ground_truth_frames


def test_scenario_catalog_layout():
    catalog = scenario_catalog()
    assert [s.name for s in catalog] == [
        "octahedral_far",
        "octahedral_mid",
        "octahedral_near",
        "octahedral_limit",
        "wall_far",
        "wall_mid",
        "wall_near",
        "wall_limit",
    ]
    assert [s.separation_naf for s in catalog[:4]] == [0.209, 0.168, 0.126, 0.084]
    assert all(s.target_amplitude_db == 0.0 for s in catalog[:4])
    assert all(s.target_amplitude_db == 15.0 for s in catalog[4:])
    assert all(s.snr_db == 25.0 for s in catalog)
    far = catalog[0]
    assert far.target_nafs == (-0.1045, 0.1045)


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario("x", "cylinder", 0.1)
    with pytest.raises(ConfigError):
        Scenario("x", "octahedral", 0.0)
    with pytest.raises(ConfigError):
        Scenario("x", "octahedral", 0.1, target_range_m=-1.0)
    with pytest.raises(ConfigError):
        RearWall(range_m=0.0)
    with pytest.raises(ConfigError):
        RearWall(n_scatterers=0)
    with pytest.raises(ConfigError):
        RearWall(extent_naf=1.5)
    with pytest.raises(ConfigError):
        Scene((Scatterer(0.0, 18.0, 1.0),), -1.0)


def test_reference_noise_power_value(radio, geom8):
    assert reference_noise_power(radio, geom8, 25.0) == pytest.approx(
        143619.41891459885, rel=1e-14
    )


@pytest.mark.parametrize("snr_db", [1e308, 4000.0, -1e308, -4000.0, math.inf, -math.inf, math.nan])
def test_reference_noise_power_rejects_out_of_range_snr(radio, geom8, snr_db):
    # 10 ** (snr_db / 10) overflows, underflows to 0 or is not a number
    with pytest.raises(ConfigError, match="snr_db .* out of range"):
        reference_noise_power(radio, geom8, snr_db)


def test_build_scene_composition(radio, geom8):
    scenario = scenario_catalog()[0]
    scene = build_scene(scenario, radio, geom8)
    assert len(scene.scatterers) == 2 + 17
    targets = scene.scatterers[:2]
    assert [t.naf for t in targets] == [-0.1045, 0.1045]
    assert all(t.range_m == 18.0 and t.amplitude == 1.0 for t in targets)
    wall = scene.scatterers[2:]
    per_point = 10 ** (11.4 / 20) / 17
    assert all(w.amplitude == pytest.approx(per_point) for w in wall)
    assert all(w.range_m == 22.0 for w in wall)
    assert wall[0].naf == -0.25 and wall[-1].naf == 0.25
    assert scene.noise_power == pytest.approx(reference_noise_power(radio, geom8, 25.0))

    bare = build_scene(scenario, radio, geom8, include_rear_wall=False)
    assert len(bare.scatterers) == 2


@pytest.fixture(scope="module")
def small_acquisition():
    from beamsweep import ArrayGeometry, BeamformingWeights, RadioConfig

    radio = RadioConfig()
    geom = ArrayGeometry.uniform_linear(8, 8)
    weights = BeamformingWeights.all_ones(geom)
    scene = build_scene(scenario_catalog()[0], radio, geom)
    plan = minimal_sweep_plan(8, 0.5 * np.sin(np.radians(33.0)))
    acq = simulate_acquisition(scene, geom, weights, radio, plan, 2, (7, 0))
    return radio, geom, weights, scene, plan, acq


def test_acquisition_shapes(small_acquisition):
    radio, _, _, _, plan, acq = small_acquisition
    assert acq.magnitudes.shape == (9, 2)
    assert acq.profiles.shape == (9, 2, 42)
    assert acq.range_centers_m.shape == (42,)
    assert acq.gate_keep.sum() == 36


def test_acquisition_is_deterministic(small_acquisition):
    radio, geom, weights, scene, plan, acq = small_acquisition
    again = simulate_acquisition(scene, geom, weights, radio, plan, 2, (7, 0))
    np.testing.assert_array_equal(acq.magnitudes, again.magnitudes)
    np.testing.assert_array_equal(acq.profiles, again.profiles)


def test_acquisition_seed_prefix_matters(small_acquisition):
    radio, geom, weights, scene, plan, acq = small_acquisition
    other = simulate_acquisition(scene, geom, weights, radio, plan, 2, (8, 0))
    assert not np.array_equal(acq.magnitudes, other.magnitudes)


def test_selected_ranges_come_from_kept_bins(small_acquisition):
    _, _, _, _, _, acq = small_acquisition
    _, ranges = _eligibility(
        acq.profiles.swapaxes(0, 1), acq.gate_keep, acq.range_centers_m, CfarConfig()
    )
    kept = acq.range_centers_m[acq.gate_keep]
    assert ranges.shape == (2, 9)
    assert np.isin(ranges, kept).all()
    assert ranges.max() < 21.0


def test_acquisition_frame_slicing(small_acquisition):
    _, _, _, _, _, acq = small_acquisition
    np.testing.assert_array_equal(acq.beam_values(1), acq.magnitudes[:, 0])
    np.testing.assert_array_equal(acq.beam_values(), acq.magnitudes.mean(axis=1))
    np.testing.assert_array_equal(acq.mean_profiles(1), acq.profiles[:, 0])


def test_acquisition_validation(small_acquisition):
    radio, geom, weights, scene, plan, _ = small_acquisition
    with pytest.raises(ConfigError):
        simulate_acquisition(scene, geom, weights, radio, plan, 0, (7, 0))
    for mode in ("coherent", "ideal"):
        with pytest.raises(ConfigError):
            simulate_acquisition(scene, geom, weights, radio, plan, 2, (7, 0), mode)


def test_window_basis_is_cached_and_read_only(small_acquisition):
    radio, _, _, _, _, acq = small_acquisition
    basis = _window_basis(radio)
    # an equal config, with the range window as a JSON config gives it
    assert _window_basis(RadioConfig(range_window_m=[0.0, 25.0])) is basis
    assert acq.range_centers_m is basis.centers and acq.gate_keep is basis.keep
    for arr in (basis.centers, basis.keep, basis.idft, basis.r_factor):
        assert not arr.flags.writeable
    assert _window_basis(RadioConfig(n_range_bins=40)).idft.shape == (792, 40)


def test_window_centers_are_the_range_axis_entries():
    for radio in (RadioConfig(), RadioConfig(range_window_m=(3.0, 20.0), n_range_bins=100)):
        centers = _window_basis(radio).centers
        assert centers.tobytes() == radio.range_axis()[radio.window_bins()].tobytes()


def test_eligibility_over_frames_equals_per_frame_calls(small_acquisition):
    _, _, _, _, _, acq = small_acquisition
    frames = acq.profiles.swapaxes(0, 1)  # (frames, beams, range)
    cfar = CfarConfig()
    eligible, ranges = _eligibility(frames, acq.gate_keep, acq.range_centers_m, cfar)
    assert eligible.shape == ranges.shape == (2, 9)
    assert eligible.any()
    for f, profiles in enumerate(frames):
        want_eligible, want_ranges = _eligibility(
            profiles, acq.gate_keep, acq.range_centers_m, cfar
        )
        np.testing.assert_array_equal(eligible[f], want_eligible)
        np.testing.assert_array_equal(ranges[f], want_ranges)



def _peak_bytes(peaks):
    return np.array([(p.naf, p.range_m, p.power) for p in peaks], dtype=float).tobytes()


def test_run_seed_equals_per_frame_and_per_method_calls(monkeypatch):
    settings = EvalSettings(ground_truth_frames=4, dwell_frames=2)
    campaign = harness._build_campaign(settings)
    scenario = scenario_catalog()[0]
    scene = build_scene(scenario, settings.radio, campaign.geom)
    methods = ["spline", "omp", "oversampled", "dft"]
    calls = collections.Counter()
    for name in ("extract_peaks", "_eligibility", "dft_interpolate", "spline_interpolate"):
        def counted(*args, _real=getattr(harness, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    run = harness._run_seed(campaign, scenario, scene, 0, methods, 5)
    monkeypatch.undo()
    # one pass over all frames and one over all mapped methods
    assert calls == {
        "extract_peaks": 2, "_eligibility": 2, "dft_interpolate": 1, "spline_interpolate": 1,
    }
    assert list(run.peaks) == methods
    assert list(run.maps) == ["spline", "oversampled", "dft"]

    # the reference: one frame, one method and one range bin at a time,
    # through the public 1-D calls
    acq = simulate_acquisition(
        scene, campaign.geom, campaign.weights, settings.radio, campaign.over_plan, 4, (5, 0)
    )
    grid, plan = campaign.over_plan.beam_grid, campaign.minimal_plan
    keep, centers, cfar = acq.gate_keep, acq.range_centers_m, settings.cfar

    def peaks(spectrum, power_map):
        eligible, ranges = _eligibility(power_map, keep, centers, cfar)
        return extract_peaks(
            spectrum, grid, campaign.resolution, settings.max_peaks,
            detected=eligible, ranges_m=ranges,
        )

    frame_nafs = [
        [p.naf for p in peaks(acq.magnitudes[:, f], acq.profiles[:, f])] for f in range(4)
    ]
    assert sum(map(len, frame_nafs)) > 0
    assert (run.ground_truth, run.gt_counts) == estimate_ground_truth(
        frame_nafs, scenario.target_nafs
    )
    values9 = acq.beam_values(2)[campaign.min_idx]
    profiles9 = acq.mean_profiles(2)[campaign.min_idx]
    for method, interpolate in (("dft", dft_interpolate), ("spline", spline_interpolate)):
        spectrum = interpolate(AngularSweep(plan, values9), grid)
        columns = [interpolate(AngularSweep(plan, np.sqrt(p)), grid) for p in profiles9.T]
        power_map = np.maximum(np.column_stack(columns), 0.0) ** 2
        want = peaks(spectrum, power_map)
        assert want and _peak_bytes(run.peaks[method]) == _peak_bytes(want)
        assert run.maps[method].power.tobytes() == power_map.T.tobytes()
    want = peaks(acq.beam_values(2), acq.mean_profiles(2))
    assert want and _peak_bytes(run.peaks["oversampled"]) == _peak_bytes(want)
    assert run.maps["oversampled"].power.tobytes() == acq.mean_profiles(2).T.tobytes()



def _one_shot_draw(signal, noise_power, radio, n_frames, seed_prefix):
    """The draw as one whole-acquisition call, as simulate_acquisition made
    it before it drew in beam chunks: the reference for the chunked draw."""
    basis = _window_basis(radio)
    n_beams, n_window = signal.shape
    noise, bins = np.empty((2, n_beams, n_frames, n_window), dtype=complex)
    rng = np.random.default_rng(tuple(int(s) for s in seed_prefix))
    rng.standard_normal(out=noise.view(float))
    noise *= np.sqrt(radio.n_symbols * noise_power / 2)
    np.matmul(noise, basis.r_factor, out=bins)
    bins += signal[:, None, :]
    profiles = np.abs(bins)
    profiles **= 2
    magnitudes = np.sqrt(profiles[..., basis.keep].max(axis=-1))
    return profiles, magnitudes


def test_chunked_draw_equals_one_shot_draw():
    settings = EvalSettings()
    campaign = harness._build_campaign(settings)
    radio, geom, weights = settings.radio, campaign.geom, campaign.weights
    scene = build_scene(scenario_catalog()[4], radio, geom)
    # below, at and across the chunk of 27 beams; one frame takes the gemv path
    for n_beams in (1, 26, 27, 28, 81):
        plan = dataclasses.replace(
            campaign.over_plan, beam_grid=campaign.over_plan.beam_grid[:n_beams]
        )
        signal = harness._signal_window(scene.scatterers, geom, weights, radio, plan)
        for n_frames in (1, 6, 24):
            acq = simulate_acquisition(scene, geom, weights, radio, plan, n_frames, (9, n_beams))
            profiles, magnitudes = _one_shot_draw(
                signal, scene.noise_power, radio, n_frames, (9, n_beams)
            )
            assert acq.profiles.shape == (n_beams, n_frames, 42)
            assert acq.profiles.tobytes() == profiles.tobytes()
            assert acq.magnitudes.tobytes() == magnitudes.tobytes()


def _oracle_window_power(radio, geom, weights, scene, steer, n_frames, seed):
    """Window power of the explicit path: per-symbol CSI, full range-Doppler
    transform, zero-Doppler column, display bins; one frame per row."""
    window = radio.window_bins()
    return np.array([
        range_doppler_periodogram(
            synthesize_csi(radio, scene.scatterers, geom, weights, steer,
                           scene.noise_power, (seed, f))
        ).zero_doppler[window]
        for f in range(n_frames)
    ])


def test_acquisition_matches_explicit_csi_path_without_noise(small_acquisition):
    radio, geom, weights, scene, plan, _ = small_acquisition
    clean = Scene(scene.scatterers, 0.0)
    acq = simulate_acquisition(clean, geom, weights, radio, plan, 2, (7, 0))
    for b, steer in enumerate(plan.beam_grid):
        want = _oracle_window_power(radio, geom, weights, clean, steer, 1, 0)[0]
        for f in range(2):
            np.testing.assert_allclose(acq.profiles[b, f], want, rtol=1e-12)


def test_acquisition_noise_matches_explicit_csi_path_in_distribution(small_acquisition):
    # a noise scale off by sqrt(n_symbols) moves the noise-bin mean power
    # 14x and the target-bin spread about 3.7x, far outside these bands
    radio, geom, weights, scene, _, _ = small_acquisition
    steer = scene.scatterers[0].naf
    n_frames = 300
    plan = SweepPlan(np.array([steer]), "minimal")
    fast = simulate_acquisition(scene, geom, weights, radio, plan, n_frames, (11, 0)).profiles[0]
    slow = _oracle_window_power(radio, geom, weights, scene, steer, n_frames, 12)
    mean_ratio = fast.mean(axis=0) / slow.mean(axis=0)
    var_ratio = fast.var(axis=0) / slow.var(axis=0)
    assert np.all((mean_ratio > 0.7) & (mean_ratio < 1.43)), mean_ratio
    assert np.all((var_ratio > 0.5) & (var_ratio < 2.0)), var_ratio
    target_bin, noise_bin = 30, 5  # 18 m target; 3 m holds noise only
    assert slow[:, target_bin].mean() > 100 * slow[:, noise_bin].mean()
    for k in (target_bin, noise_bin):
        assert ks_2samp(fast[:, k], slow[:, k]).pvalue > 0.01


def _mean_lag_correlation(power, lag):
    """Mean over bin pairs k, k + lag of the across-frame power correlation."""
    return np.mean([
        np.corrcoef(power[:, k], power[:, k + lag])[0, 1]
        for k in range(power.shape[1] - lag)
    ])


def test_acquisition_noise_matches_explicit_csi_path_across_bins(small_acquisition):
    # white subcarrier noise seen through the window IDFT correlates
    # neighbouring bins: |rho|^2 = 0.61 in power at lag 1 and 0.09 at lag 2.
    # The per-bin marginal test above cannot see this; a draw with
    # independent bins gives about 0 at lag 1 and fails here.
    radio, geom, weights, scene, _, _ = small_acquisition
    empty = Scene((), scene.noise_power)  # every bin holds noise only
    n_frames = 300
    plan = SweepPlan(np.array([0.0]), "minimal")
    fast = simulate_acquisition(empty, geom, weights, radio, plan, n_frames, (13, 0)).profiles[0]
    slow = _oracle_window_power(radio, geom, weights, empty, 0.0, n_frames, 14)
    fast_lag1, slow_lag1 = (_mean_lag_correlation(p, 1) for p in (fast, slow))
    assert 0.5 < slow_lag1 < 0.72, slow_lag1
    assert 0.5 < fast_lag1 < 0.72, fast_lag1
    assert abs(fast_lag1 - slow_lag1) < 0.08
    for power in (fast, slow):
        assert _mean_lag_correlation(power, 2) < 0.2


@pytest.fixture(scope="module")
def far_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("far_report")
    scenario = scenario_catalog()[0]
    methods = ["oversampled", "dft", "spline", "omp"]
    report = run_comparison([scenario], methods, [5], out_dir=out)
    return out, methods, report


def test_report_structure(far_report):
    _, methods, report = far_report
    data = report.data
    assert set(data) == {"metadata", "scenarios", "per_scenario", "groups", "ordering"}
    meta = data["metadata"]
    assert meta["master_seeds"] == [5]
    assert meta["methods"] == methods
    assert meta["reference_snr_db"] == "per-scenario"
    assert meta["sweep_seconds"]["minimal"] == pytest.approx(0.54, rel=1e-12)
    assert meta["sweep_seconds"]["oversampled"] == pytest.approx(4.86, rel=1e-12)
    assert meta["naf_resolution"] == pytest.approx(1.0 / 15.0, rel=1e-12)

    groups = data["groups"]
    assert set(groups) == {"reflectors", "walls", "total"}
    for m in methods:
        assert groups["walls"][m] is None
        assert groups["reflectors"][m] == groups["total"][m]
        assert report.total_rmse(m) == groups["total"][m]["pooled_rmse"]
        per = data["per_scenario"][m]["octahedral_far"]
        assert per["n_runs"] == 1
    ranking = data["ordering"]["total_pooled_rmse_ascending"]
    assert sorted(ranking) == sorted(methods)
    totals = [report.total_rmse(m) for m in ranking]
    assert totals == sorted(totals)

    gt = data["scenarios"]["octahedral_far"]
    assert gt["kind"] == "octahedral"
    assert gt["nominal_nafs"] == [-0.1045, 0.1045]


def test_report_files_written(far_report):
    out, _, report = far_report
    expected = {"report.json", "report.csv", "peaks.csv", "octahedral_far_sweep.csv"}
    for m in ("oversampled", "dft", "spline"):
        expected.add(f"octahedral_far_{m}.ramp")
    names = {p.name for p in out.iterdir()}
    assert names == expected

    on_disk = (out / "report.json").read_bytes()
    assert on_disk == report.to_json_bytes()
    assert json.loads(on_disk) == report.data

    peaks = (out / "peaks.csv").read_text().splitlines()
    assert peaks[0] == "scenario,method,seed,naf,range_m,power"
    assert len(peaks) > 1
    sweep = (out / "octahedral_far_sweep.csv").read_text().splitlines()
    assert sweep[0] == "naf,value"
    assert len(sweep) == 1 + 9

    table = (out / "report.csv").read_text().splitlines()
    assert table[0] == "group,target,oversampled,dft,spline,omp"
    assert [row.split(",")[:2] for row in table[1:]] == [
        [g, t] for g in ("reflectors", "walls", "total") for t in ("t1", "t2")
    ] + [["total", "pooled"]]
    walls_row = table[3].split(",")
    assert walls_row[2] == "nan"


def test_report_bytes_reproducible(far_report):
    _, methods, report = far_report
    again = run_comparison([scenario_catalog()[0]], methods, [5])
    assert again.to_json_bytes() == report.to_json_bytes()


def test_run_comparison_validation():
    scenario = scenario_catalog()[0]
    with pytest.raises(ConfigError):
        run_comparison([], ["dft"], [1])
    with pytest.raises(ConfigError):
        run_comparison([scenario], [], [1])
    with pytest.raises(ConfigError):
        run_comparison([scenario], ["dft"], [])
    with pytest.raises(ConfigError):
        run_comparison([scenario], ["music"], [1])


def test_repeated_scenario_names_rejected():
    far = scenario_catalog()[0]
    renamed = dataclasses.replace(scenario_catalog()[1], name=far.name)
    for scenarios in ([far, far], [far, renamed]):
        with pytest.raises(ConfigError, match=r"repeated: \['octahedral_far'\]"):
            run_comparison(scenarios, ["dft"], [1])


def test_repeated_method_names_rejected(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=re.escape("method names must be unique; repeated: ['dft']")):
        run_comparison(scenario_catalog()[:1], ["dft", "omp", "dft"], [1], out_dir=out)
    assert not out.exists()


def test_uncatalogued_scenarios_draw_their_own_streams():
    far = scenario_catalog()[0]
    first, second = (dataclasses.replace(far, name=n) for n in ("copy_a", "copy_b"))
    both = run_comparison([far, first, second], ["dft"], [3]).data["scenarios"]
    alone = run_comparison([second], ["dft"], [3]).data["scenarios"]
    truth = {name: both[name]["mean_ground_truth"] for name in both}
    # the first uncatalogued scenario keeps stream len(catalog), as when it runs alone
    assert truth["copy_a"] == alone["copy_b"]["mean_ground_truth"]
    assert len({tuple(t) for t in truth.values()}) == 3


def _serial_comparison(scenarios, methods, seeds, out):
    """run_comparison's steps in the calling thread, one scenario after
    another: the reference that the thread pool must reproduce."""
    campaign = harness._build_campaign(EvalSettings())
    stream = {s.name: i for i, s in enumerate(scenario_catalog())}
    outcomes = []
    out.mkdir()
    for scenario in scenarios:
        stream.setdefault(scenario.name, len(stream))
        scene = build_scene(scenario, campaign.settings.radio, campaign.geom)
        runs = harness._run_scenario(
            campaign, scenario, scene, stream[scenario.name], seeds, methods
        )
        harness._write_scenario_files(out, scenario, runs[0], campaign.minimal_plan.beam_grid)
        outcomes.append((scenario, runs))
    report = harness._build_report(campaign, outcomes, methods, seeds)
    harness._write_outputs(out, report, outcomes)
    return report


def _tree_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("case", ["catalog", "one", "catalog_and_custom"])
def test_threaded_comparison_equals_serial_reference(tmp_path, monkeypatch, case, cpus):
    catalog = scenario_catalog()
    custom = dataclasses.replace(catalog[5], name="custom_wall", separation_naf=0.15)
    scenarios = {
        "catalog": catalog, "one": catalog[6:7], "catalog_and_custom": [catalog[2], custom],
    }[case]
    methods, seeds = list(harness.METHODS), [4, 5]
    want = _serial_comparison(scenarios, methods, seeds, tmp_path / "serial")
    # the pool size follows the usable CPUs; three workers interleave even
    # on a machine with one or two CPUs
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    workers = []
    real_pool = harness.ThreadPoolExecutor

    def pool(max_workers):
        workers.append(max_workers)
        return real_pool(max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", pool)
    # switch threads often, so the scenarios' steps interleave finely
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = run_comparison(scenarios, methods, seeds, out_dir=tmp_path / "threaded")
    finally:
        sys.setswitchinterval(interval)
    assert workers == [min(cpus, len(scenarios))]
    assert got.to_json_bytes() == want.to_json_bytes()
    files = _tree_bytes(tmp_path / "threaded")
    assert files == _tree_bytes(tmp_path / "serial")
    # the report files, and per scenario three maps and one sweep
    assert len(files) == 3 + 4 * len(scenarios)


def test_unsimulable_scenario_fails_before_any_thread_or_file(tmp_path, monkeypatch):
    catalog = scenario_catalog()
    scenarios = [catalog[0], catalog[1], dataclasses.replace(catalog[2], snr_db=4000.0)]
    started = []
    monkeypatch.setattr(harness, "_run_scenario", lambda *args: started.append(args))
    out = tmp_path / "out"
    before = threading.active_count()
    with pytest.raises(ConfigError, match="snr_db .* out of range"):
        run_comparison(scenarios, ["dft"], [1], out_dir=out)
    assert not out.exists()
    assert not started
    assert threading.active_count() == before


@pytest.mark.parametrize("settings, methods, message", [
    (EvalSettings(cfar=CfarConfig(n_training=40)), ["dft"],
     "profile of 36 cells is too short for a 45-cell window"),
    (EvalSettings(n_tx=2, n_rx=2), ["dft", "spline"],
     "spline interpolation needs at least 4 samples"),
    (EvalSettings(max_peaks=0), ["oversampled"], "max_peaks must be at least 1"),
], ids=["cfar_window", "spline_samples", "max_peaks"])
def test_unrunnable_settings_fail_before_any_file(tmp_path, monkeypatch, settings, methods, message):
    # each would be refused by every seed of every scenario, inside the workers
    started = []
    monkeypatch.setattr(harness, "_run_scenario", lambda *args: started.append(args))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_comparison(scenario_catalog()[:2], methods, [1], settings, out_dir=out)
    assert not out.exists()
    assert not started


def test_two_element_array_runs_without_spline():
    # the spline check follows the methods: the 1-beam minimal sweep suits the rest
    report = run_comparison(
        scenario_catalog()[:1], ["oversampled", "dft", "omp"], [1], EvalSettings(n_tx=2, n_rx=2)
    )
    assert report.data["per_scenario"]["dft"]["octahedral_far"]["n_runs"] == 1


def _window_args(factor=10, radio=RadioConfig(), tx=np.ones(8), amplitude_db=0.0):
    """_signal_window's arguments for the first catalog scene, every one built afresh."""
    geom = ArrayGeometry.uniform_linear(8, 8)
    scenario = dataclasses.replace(scenario_catalog()[0], target_amplitude_db=amplitude_db)
    scene = build_scene(scenario, radio, geom)
    plan = oversampled_sweep_plan(8, harness.DEFAULT_NAF_LIMIT, factor)
    return scene.scatterers, geom, BeamformingWeights(tx, np.ones(8)), radio, plan


def test_signal_window_cached_on_content():
    harness._signal_window.cache_clear()
    first = harness._signal_window(*_window_args())
    again = harness._signal_window(*_window_args())
    info = harness._signal_window.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert again is first
    want = harness._signal_window.__wrapped__(*_window_args())
    assert first.shape == want.shape == (81, 42)
    assert first.tobytes() == want.tobytes()
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 0

    # every seed of a scene, at any SNR, reuses the entry: the noise is all
    # that a seed or an SNR changes
    scatterers, geom, weights, radio, plan = _window_args()
    for snr_db, seed in ((25.0, 1), (25.0, 2), (20.0, 3)):
        scenario = dataclasses.replace(scenario_catalog()[0], snr_db=snr_db)
        scene = build_scene(scenario, radio, geom)
        simulate_acquisition(scene, geom, weights, radio, plan, 2, (seed, 0))
    info = harness._signal_window.cache_info()
    assert (info.hits, info.misses) == (4, 1)


@pytest.mark.parametrize("change", [
    {"tx": np.r_[np.ones(7), 1j]},
    {"factor": 5},
    {"radio": RadioConfig(n_symbols=7)},
    {"amplitude_db": 3.0},
], ids=["weights", "beam_grid", "radio", "scatterer"])
def test_signal_window_misses_on_other_content(change):
    harness._signal_window.cache_clear()
    base = harness._signal_window(*_window_args())
    other = harness._signal_window(*_window_args(**change))
    info = harness._signal_window.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    assert other.shape != base.shape or np.any(other != base)


def test_campaign_draws_through_simulate_acquisition(tmp_path, monkeypatch):
    # each (scenario, seed) is one simulate_acquisition call, and each
    # scene's window bins are built by its first seed only
    scenarios, methods, seeds = scenario_catalog()[:2], ["dft", "omp"], [1, 2, 3]
    want = run_comparison(scenarios, methods, seeds, out_dir=tmp_path / "plain")
    calls = []

    def counted(*args, _real=harness.simulate_acquisition):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(harness, "simulate_acquisition", counted)
    harness._signal_window.cache_clear()
    got = run_comparison(scenarios, methods, seeds, out_dir=tmp_path / "counted")
    assert len(calls) == len(scenarios) * len(seeds)
    info = harness._signal_window.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    assert got.to_json_bytes() == want.to_json_bytes()
    assert _tree_bytes(tmp_path / "counted") == _tree_bytes(tmp_path / "plain")
