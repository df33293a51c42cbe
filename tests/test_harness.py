import collections
import dataclasses
import functools
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from beamsweep import (
    AngularSweep,
    ArrayGeometry,
    BeamformingWeights,
    CfarConfig,
    ConfigError,
    EvalSettings,
    OmpConfig,
    RadioConfig,
    Scatterer,
    Scenario,
    Scene,
    build_dictionary,
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
from beamsweep.ofdm import scene_subcarrier_profile
from beamsweep.reconstruct import SweepPlan, oversampled_sweep_plan
from csi_oracle import range_doppler_periodogram, synthesize_csi


def test_median_equals_np_median(rng):
    for size in range(1, 60):
        for _ in range(50):
            bucket = rng.normal(0.0, 0.1, size=size)
            if size > 2:
                bucket[: size // 3] = bucket[-1]  # ties
            assert harness._median(bucket) == float(np.median(bucket))


def _fresh_process(code, *args, cwd):
    """Run code in a fresh interpreter that imports beamsweep from this
    checkout; returns its stdout."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    env.pop("BEAMSWEEP_SEED", None)
    done = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        timeout=300, cwd=cwd, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# Runs the cli.main call given as JSON in argv[1] in a fresh interpreter,
# then prints its peak RSS and whether numpy.ma was loaded. The peak is the
# kernel's VmHWM: getrusage's ru_maxrss would also count the forked copy of
# the test process that exec replaced.
_EVALUATE_THEN_REPORT = """
import contextlib, io, json, sys
from beamsweep import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(json.loads(sys.argv[1])) == 0
try:
    with open("/proc/self/status") as fh:
        peak = next(int(line.split()[1]) / 1024 for line in fh if line.startswith("VmHWM:"))
except OSError:
    peak = None
print(json.dumps({"peak_mib": peak, "numpy_ma": "numpy.ma" in sys.modules}))
"""


def test_campaign_leaves_numpy_ma_unimported(tmp_path):
    # np.median imports numpy.ma on first use; the ground truth avoids it
    out = _fresh_process(
        _EVALUATE_THEN_REPORT, json.dumps(["evaluate", "--seeds", "1", "--out", "eval"]),
        cwd=tmp_path,
    )
    assert json.loads(out)["numpy_ma"] is False
    assert (tmp_path / "eval" / "report.json").is_file()


def test_acquisition_memory_is_flat_in_the_oversampling_factor(tmp_path):
    # factor 40 draws 327 beams against 81; when the draw kept its
    # (beam, frame, window) power cube, fresh-process peaks differed by 6 MB
    peaks = {}
    for factor in (10, 40):
        (tmp_path / f"{factor}.json").write_text(json.dumps({"oversampling_factor": factor}))
        argv = ["evaluate", "--config", f"{factor}.json", "--seeds", "1",
                "--scenarios", "octahedral_far", "--methods", "dft", "--out", f"eval{factor}"]
        out = _fresh_process(_EVALUATE_THEN_REPORT, json.dumps(argv), cwd=tmp_path)
        peaks[factor] = json.loads(out)["peak_mib"]
    if peaks[10] is None:
        pytest.skip("no /proc/self/status to read the peak RSS from")
    assert abs(peaks[40] - peaks[10]) < 2.0, peaks


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
    # min(1.0, nan) is 1.0, so a non-finite error would otherwise saturate
    for args in ((math.nan, 18.0), (math.inf, 18.0), (-math.inf, 18.0),
                 (0.01, math.nan), (0.01, math.inf)):
        with pytest.raises(ConfigError, match="must be finite"):
            naf_error_to_cross_track_m(*args)


def test_ground_truth_buckets_by_nearest_nominal():
    frames = [[-0.11, 0.09], [-0.09, 0.11], [-0.10]]
    truth, counts = estimate_ground_truth(frames, (-0.1, 0.1))
    assert truth[0] == pytest.approx(np.median([-0.11, -0.09, -0.10]))
    assert truth[1] == pytest.approx(np.median([0.09, 0.11]))
    assert counts == (3, 2)
    # one count per nominal target, however many there are
    truth, counts = estimate_ground_truth([[0.1, 0.2]], (-0.1, 0.0, 0.1))
    assert truth == (-0.1, 0.0, pytest.approx(0.15))
    assert counts == (0, 0, 2)


def test_ground_truth_falls_back_to_nominal():
    truth, counts = estimate_ground_truth([[-0.1], [-0.12]], (-0.1, 0.1))
    assert truth[1] == 0.1
    assert counts == (2, 0)
    empty_truth, empty_counts = estimate_ground_truth([], (-0.2, 0.2))
    assert empty_truth == (-0.2, 0.2)
    assert empty_counts == (0, 0)


def test_score_rmse_hand_example():
    s = score_rmse([[-0.1, 0.12]], [(-0.1, 0.1)])
    assert s["rmse_per_target"][0] == pytest.approx(0.0)
    assert s["rmse_per_target"][1] == pytest.approx(0.02)
    assert s["pooled_rmse"] == pytest.approx(np.sqrt(0.02**2 / 2))
    assert s["n_runs"] == 1
    assert s["n_missed"] == 0
    assert s["detection_rate"] == 1.0


def test_score_rmse_counts_empty_runs_as_misses():
    s = score_rmse([[math.nan, math.nan], [-0.1, 0.1]], [(-0.1, 0.1), (-0.1, 0.1)])
    assert s["n_missed"] == 1
    assert s["detection_rate"] == 0.5
    assert s["rmse_per_target"] == [0.0, 0.0]


def test_score_rmse_reuses_nearest_estimate():
    s = score_rmse([[0.05]], [(-0.1, 0.1)])
    assert s["rmse_per_target"] == [pytest.approx(0.15), pytest.approx(0.05)]


def test_score_rmse_validation():
    with pytest.raises(ConfigError, match="one estimate row per ground-truth row"):
        score_rmse([[0.1]], [])
    with pytest.raises(ConfigError, match="one estimate row per ground-truth row"):
        score_rmse([[0.1], [0.2]], [(-0.1, 0.1)])
    # ragged rows are a ConfigError, not numpy's inhomogeneous-shape ValueError
    with pytest.raises(ConfigError, match="must be numeric tables"):
        score_rmse([[0.1], [0.2]], [(-0.1, 0.1), (-0.1,)])
    with pytest.raises(ConfigError, match="must be numeric tables"):
        score_rmse([[0.1], [0.2, 0.3]], [(-0.1, 0.1), (-0.1, 0.1)])
    with pytest.raises(ConfigError, match="must be numeric tables"):
        score_rmse([["x", 0.1]], [(-0.1, 0.1)])
    with pytest.raises(ConfigError, match="cannot score zero runs"):
        score_rmse(np.empty((0, 2)), np.empty((0, 2)))
    for estimates in ([0.1, 0.2], [[], []]):  # not a table, or one without slots
        with pytest.raises(ConfigError, match=re.escape("(runs, slots)")):
            score_rmse(estimates, [(-0.1, 0.1), (-0.1, 0.1)])


def _list_score_rmse(estimates, ground_truths):
    """score_rmse as it was written over ragged per-run estimate lists, with
    one Python pass per run: the reference for the table version's bits."""
    n_targets = len(ground_truths[0])
    per_target = tuple([] for _ in range(n_targets))
    missed = 0
    for ests, truths in zip(estimates, ground_truths):
        if len(ests) == 0:
            missed += 1
            continue
        arr = np.asarray(ests, dtype=float)
        for t, g in enumerate(truths):
            nearest = arr[np.argmin(np.abs(arr - g))]
            per_target[t].append(float(nearest - g))
    pooled = np.array([e for bucket in per_target for e in bucket])
    return {
        "rmse_per_target": [
            float(np.sqrt(np.mean(np.square(bucket)))) if bucket else math.nan
            for bucket in per_target
        ],
        "pooled_rmse": float(np.sqrt(np.mean(pooled**2))) if pooled.size else math.nan,
        "pooled_variance": float(np.var(pooled)) if pooled.size else math.nan,
        "n_runs": len(estimates),
        "n_missed": missed,
        "detection_rate": 1.0 - missed / len(estimates),
    }


@pytest.mark.parametrize("n_runs", [2, 130, 300, 1000])
def test_score_rmse_equals_the_per_run_list_reference_bit_for_bit(n_runs):
    # past 128 runs numpy's pairwise summation splits the error vectors into
    # blocks, so only the reference's summation order gives its bits
    rng = np.random.default_rng(n_runs)
    for case in range(40):
        slots, n_targets = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        if case % 2:
            # a coarse lattice of estimates and truths halfway between two of
            # its points: exact ties, and repeated estimates
            table = rng.integers(-8, 9, size=(n_runs, slots)) / 16
            truth = (2 * rng.integers(-8, 8, size=(n_runs, n_targets)) + 1) / 32
        else:
            table = rng.normal(0.0, 0.2, size=(n_runs, slots))
            truth = rng.normal(0.0, 0.2, size=(n_runs, n_targets))
        # each run keeps its first 0..slots estimates, NaN past them
        kept = rng.integers(0, slots + 1, size=n_runs)
        kept[rng.random(n_runs) < 0.5] = slots
        table[np.arange(slots) >= kept[:, None]] = np.nan
        lists = [list(row[:k]) for row, k in zip(table.tolist(), kept)]
        want = _list_score_rmse(lists, [tuple(t) for t in truth.tolist()])
        got = score_rmse(table, truth)
        assert repr(got) == repr(want)
        assert got["n_missed"] == np.count_nonzero(kept == 0)


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


def test_ground_truth_frames_are_capped_at_one_draw_chunk(monkeypatch):
    # refused from the settings alone: nothing is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("no acquisition may be drawn")

    monkeypatch.setattr(harness, "simulate_acquisition", refuse)
    cap = harness._CAPS["ground_truth_frames"]
    assert cap == 648
    edge = EvalSettings(ground_truth_frames=cap)
    assert harness._build_campaign(edge, ["dft"]).settings.ground_truth_frames == cap
    with pytest.raises(ConfigError, match=re.escape(
        "ground_truth_frames (649) must not exceed 648"
    )):
        EvalSettings(ground_truth_frames=cap + 1)
    # the byte budget holds a capped beam at the defaults' 42 window bins;
    # at the radio cap's 128 it holds fewer rows, and the beam is a chunk
    # of its own, never split
    rows = harness._DRAW_CHUNK_BYTES // 32
    assert rows // 42 >= cap > rows // 128


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
    radio, geom, weights, scene, plan, acq = small_acquisition
    assert acq.magnitudes.shape == (9, 2)
    assert acq.mean_profile.shape == (9, 42)
    assert acq.mean_frames == 2
    assert acq.range_centers_m.shape == (42,)
    assert acq.gate_keep.sum() == 36
    assert acq.eligible is None
    # nothing of size beams x frames x bins is kept, and no per-frame range
    one_dwell = dataclasses.replace(plan, dwell_frames=1)
    gated = simulate_acquisition(
        scene, geom, weights, radio, one_dwell, 2, (7, 0), cfar=CfarConfig()
    )
    assert gated.mean_profile.shape == (9, 42) and gated.mean_frames == 1
    assert gated.eligible.shape == (9, 2)
    assert gated.eligible.dtype == bool
    assert all(np.ndim(v) <= 2 for v in vars(gated).values())
    assert set(vars(gated)) == {
        "magnitudes", "mean_profile", "mean_frames", "range_centers_m", "gate_keep", "eligible",
    }


def test_acquisition_is_deterministic(small_acquisition):
    radio, geom, weights, scene, plan, acq = small_acquisition
    again = simulate_acquisition(scene, geom, weights, radio, plan, 2, (7, 0))
    np.testing.assert_array_equal(acq.magnitudes, again.magnitudes)
    np.testing.assert_array_equal(acq.mean_profile, again.mean_profile)
    first, second = (
        simulate_acquisition(scene, geom, weights, radio, plan, 2, (7, 0), cfar=CfarConfig())
        for _ in range(2)
    )
    np.testing.assert_array_equal(first.eligible, second.eligible)


def test_acquisition_seed_prefix_matters(small_acquisition):
    radio, geom, weights, scene, plan, acq = small_acquisition
    other = simulate_acquisition(scene, geom, weights, radio, plan, 2, (8, 0))
    assert not np.array_equal(acq.magnitudes, other.magnitudes)


def test_selected_ranges_come_from_kept_bins(small_acquisition):
    # the ranges of _eligibility are the ones that reach peaks.csv
    radio, geom, weights, scene, plan, acq = small_acquisition
    signal = harness._signal_window(scene.scatterers, geom, weights, radio, plan)
    profiles, _ = _one_shot_draw(signal, scene.noise_power, radio, 2, (7, 0))
    kept = acq.range_centers_m[acq.gate_keep]
    for power, shape in ((profiles, (9, 2)), (acq.mean_profiles(), (9,))):
        _, ranges = _eligibility(power, acq.gate_keep, acq.range_centers_m, CfarConfig())
        assert ranges.shape == shape
        assert np.isin(ranges, kept).all()
        assert ranges.max() < 21.0


def test_acquisition_frame_slicing(small_acquisition):
    radio, geom, weights, scene, plan, acq = small_acquisition
    np.testing.assert_array_equal(acq.beam_values(), acq.magnitudes.mean(axis=1))
    signal = harness._signal_window(scene.scatterers, geom, weights, radio, plan)
    profiles, _ = _one_shot_draw(signal, scene.noise_power, radio, 2, (7, 0))
    np.testing.assert_array_equal(acq.mean_profiles(), profiles.mean(axis=1))
    # both accessors average the plan's dwell: all 2 frames of the 6-frame
    # dwell above, the first one of a 1-frame dwell
    one_dwell = dataclasses.replace(plan, dwell_frames=1)
    first = simulate_acquisition(scene, geom, weights, radio, one_dwell, 2, (7, 0))
    np.testing.assert_array_equal(first.beam_values(), acq.magnitudes[:, 0])
    np.testing.assert_array_equal(first.mean_profiles(), profiles[:, 0])
    np.testing.assert_array_equal(first.magnitudes, acq.magnitudes)


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
    for arr in (basis.centers, basis.keep, basis.r_factor):
        assert not arr.flags.writeable
    # the IDFT is built per call, and R is its QR factor
    idft = harness._window_idft(RadioConfig(n_range_bins=40))
    assert idft.shape == (792, 40)
    assert harness._window_idft(RadioConfig(n_range_bins=40)) is not idft
    r_factor = _window_basis(RadioConfig(n_range_bins=40)).r_factor
    assert r_factor.tobytes() == np.linalg.qr(idft, mode="r").tobytes()
    # only R and the window bins' cache misses read the IDFT, so no cached
    # basis keeps an (n_subcarriers, n_window) array for the whole process
    assert [f.name for f in dataclasses.fields(basis)] == ["centers", "keep", "r_factor"]
    assert all(arr.shape[0] != radio.n_subcarriers for arr in vars(basis).values())


def test_direct_draw_takes_the_largest_radio_and_no_larger(small_acquisition, monkeypatch):
    # the radio config refuses its own counts past the caps, so no library
    # call can ask for a larger window basis; the largest one draws
    _, geom, weights, scene, plan, _ = small_acquisition
    largest = RadioConfig(n_subcarriers=3300, n_range_bins=128)
    acq = simulate_acquisition(scene, geom, weights, largest, plan, 2, (7, 0))
    assert acq.mean_profile.shape == (plan.n_beams, 128)

    def refuse(*args, **kwargs):
        raise AssertionError("no window IDFT may be built")

    monkeypatch.setattr(harness, "_window_idft", refuse)
    for kwargs, message in (
        ({"n_subcarriers": 3301}, "n_subcarriers (3301) must not exceed 3300"),
        ({"n_range_bins": 129}, "n_range_bins (129) must not exceed 128"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RadioConfig(**kwargs)


def test_window_centers_are_the_range_axis_entries():
    for radio in (RadioConfig(), RadioConfig(range_window_m=(3.0, 20.0), n_range_bins=100)):
        centers = _window_basis(radio).centers
        range_axis = np.arange(radio.range_fft_size) * radio.range_bin_width_m
        assert centers.tobytes() == range_axis[radio.window_bins()].tobytes()


def test_eligibility_over_frames_equals_per_frame_calls(small_acquisition):
    radio, geom, weights, scene, plan, acq = small_acquisition
    signal = harness._signal_window(scene.scatterers, geom, weights, radio, plan)
    profiles, _ = _one_shot_draw(signal, scene.noise_power, radio, 2, (7, 0))
    frames = profiles.swapaxes(0, 1)  # (frames, beams, range)
    cfar = CfarConfig()
    eligible, ranges = _eligibility(frames, acq.gate_keep, acq.range_centers_m, cfar)
    assert eligible.shape == ranges.shape == (2, 9)
    assert eligible.any()
    for f, frame in enumerate(frames):
        want_eligible, want_ranges = _eligibility(
            frame, acq.gate_keep, acq.range_centers_m, cfar
        )
        np.testing.assert_array_equal(eligible[f], want_eligible)
        np.testing.assert_array_equal(ranges[f], want_ranges)
    # and the draw's per-chunk pass gives the same, beam by frame
    drawn = simulate_acquisition(scene, geom, weights, radio, plan, 2, (7, 0), cfar=cfar)
    np.testing.assert_array_equal(drawn.eligible, eligible.T)



def _peak_bytes(peaks):
    return np.array([(p.naf, p.range_m, p.power) for p in peaks], dtype=float).tobytes()


def _slot_bytes(slots, n):
    """The first n slots of a (slots, 3) table block, which must be NaN past them."""
    assert np.isnan(slots[n:]).all() and not np.isnan(slots[:n]).any()
    return slots[:n].tobytes()


def _serial_runs(campaign, scenario, scene, stream_index, seeds, methods):
    """One scenario's outcome table, each seed drawn and then estimated
    alone, in seed order, in the calling thread: the per-run reference that
    run_comparison's pool and stacked blocks must reproduce."""
    settings = campaign.settings
    runs = harness._empty_runs(campaign, scenario, len(seeds), len(methods))
    for i, seed in enumerate(seeds):
        acq = simulate_acquisition(
            scene, campaign.geom, campaign.weights, settings.radio, campaign.over_plan,
            settings.ground_truth_frames, (seed, stream_index), cfar=settings.cfar,
        )
        harness._estimate(campaign, methods, [(scenario, runs, i)], [acq])
    return runs


def test_run_seed_equals_per_frame_and_per_method_calls(monkeypatch):
    settings = EvalSettings(ground_truth_frames=4, dwell_frames=2)
    methods = ["spline", "omp", "oversampled", "dft"]
    campaign = harness._build_campaign(settings, methods)
    scenario = scenario_catalog()[0]
    scene = build_scene(scenario, settings.radio, campaign.geom)
    calls = collections.Counter()
    for name in (
        "extract_peaks", "_eligibility", "_gated_detection", "dft_interpolate",
        "spline_interpolate",
    ):
        def counted(*args, _real=getattr(harness, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    run = _serial_runs(campaign, scenario, scene, 0, [5], methods)
    monkeypatch.undo()
    # one peak pass over all frames and one over all mapped methods; one
    # detection pass for the draw's one chunk (81 beams x 4 frames), and one
    # eligibility pass for the mapped methods and one for OMP's range
    assert calls == {
        "extract_peaks": 2, "_eligibility": 2, "_gated_detection": 3,
        "dft_interpolate": 1, "spline_interpolate": 1,
    }
    # one row, its method axis in the caller's order, max_atoms slots with omp
    assert run.peaks.shape == (1, len(methods), 5, 3)
    assert list(run.maps) == ["spline", "oversampled", "dft"]

    # the reference: one frame, one method and one range bin at a time,
    # through the public 1-D calls, on the profiles of the one-shot draw
    radio, over_plan = settings.radio, campaign.over_plan
    signal = harness._signal_window(
        scene.scatterers, campaign.geom, campaign.weights, radio, over_plan
    )
    profiles, magnitudes = _one_shot_draw(signal, scene.noise_power, radio, 4, (5, 0))
    # the plan's dwell is the settings' 2 frames
    acq = simulate_acquisition(scene, campaign.geom, campaign.weights, radio, over_plan, 4, (5, 0))
    assert acq.magnitudes.tobytes() == magnitudes.tobytes()
    assert acq.mean_profiles().tobytes() == profiles[:, :2].mean(axis=1).tobytes()
    assert acq.beam_values().tobytes() == magnitudes[:, :2].mean(axis=1).tobytes()
    grid, plan = over_plan.beam_grid, campaign.minimal_plan
    keep, centers, cfar = acq.gate_keep, acq.range_centers_m, settings.cfar

    def peaks(spectrum, power_map):
        eligible, ranges = _eligibility(power_map, keep, centers, cfar)
        return extract_peaks(
            spectrum, grid, campaign.resolution, settings.max_peaks,
            detected=eligible, ranges_m=ranges,
        )

    frame_nafs = [
        [p.naf for p in peaks(magnitudes[:, f], profiles[:, f])] for f in range(4)
    ]
    assert sum(map(len, frame_nafs)) > 0
    assert (tuple(run.truth[0]), tuple(run.counts[0])) == estimate_ground_truth(
        frame_nafs, scenario.target_nafs
    )
    values9 = acq.beam_values()[campaign.min_idx]
    profiles9 = acq.mean_profiles()[campaign.min_idx]
    assert run.sweep_values.tobytes() == values9.tobytes()
    # every OMP peak lies at the range of the strongest minimal beam
    omp_ranges = run.peaks[0, methods.index("omp"), :, 1]
    omp_ranges = omp_ranges[~np.isnan(omp_ranges)]
    want_range = _eligibility(profiles9, keep, centers, cfar)[1][np.argmax(values9)]
    assert omp_ranges.size and (omp_ranges == want_range).all()
    for method, interpolate in (("dft", dft_interpolate), ("spline", spline_interpolate)):
        spectrum = interpolate(AngularSweep(plan, values9), grid)
        columns = [interpolate(AngularSweep(plan, np.sqrt(p)), grid) for p in profiles9.T]
        power_map = np.maximum(np.column_stack(columns), 0.0) ** 2
        want = peaks(spectrum, power_map)
        got = _slot_bytes(run.peaks[0, methods.index(method)], len(want))
        assert want and got == _peak_bytes(want)
        assert run.maps[method].power.tobytes() == power_map.T.tobytes()
    want = peaks(acq.beam_values(), acq.mean_profiles())
    got = _slot_bytes(run.peaks[0, methods.index("oversampled")], len(want))
    assert want and got == _peak_bytes(want)
    assert run.maps["oversampled"].power.tobytes() == acq.mean_profiles().T.tobytes()



_CATALOG = {s.name: s for s in scenario_catalog()}


@functools.cache
def _full_catalog_entries() -> dict:
    """The per_scenario entries of the whole catalog, all four methods,
    seeds 1-2: computed once, for every subset test."""
    report = run_comparison(list(_CATALOG.values()), list(harness.METHODS), [1, 2])
    return report.data["per_scenario"]


def _assert_subset_scores_as_in_the_full_catalog(names):
    methods = list(harness.METHODS)
    subset = run_comparison([_CATALOG[n] for n in names], methods, [1, 2])
    full = _full_catalog_entries()
    want = {m: {n: full[m][n] for n in names} for m in methods}
    assert json.dumps(subset.data["per_scenario"]) == json.dumps(want)


def test_a_catalog_subset_scores_as_in_the_full_catalog():
    # each catalog scenario draws from its catalog index's stream, so which
    # other scenarios run, and in what order, changes none of its entries
    for names in (
        ["wall_mid"], ["wall_limit", "octahedral_far"],
        ["octahedral_limit", "wall_near", "octahedral_mid"],
    ):
        _assert_subset_scores_as_in_the_full_catalog(names)


@hypothesis.settings(max_examples=10, deadline=None)
@hypothesis.given(st.lists(st.sampled_from(list(_CATALOG)), min_size=1, max_size=3, unique=True))
def test_any_catalog_subset_scores_as_in_the_full_catalog(names):
    # the relation above over random subsets, in random order
    _assert_subset_scores_as_in_the_full_catalog(names)


def _assert_power_of_two_scale(index, rear_wall, seeds, m):
    """Run catalog scene index on seeds, as built and with amplitudes x 2^m
    and noise power x 4^m, and check that the scale relation holds between
    the two runs; returns the unscaled one."""
    methods = list(harness.METHODS)
    campaign = harness._build_campaign(EvalSettings(), methods)
    scenario = scenario_catalog()[index]
    scene = build_scene(scenario, campaign.settings.radio, campaign.geom, rear_wall)
    scaled = Scene(
        [dataclasses.replace(s, amplitude=s.amplitude * 2.0**m) for s in scene.scatterers],
        scene.noise_power * 4.0**m,
    )
    base, runs = (
        _serial_runs(campaign, scenario, sc, index, seeds, methods) for sc in (scene, scaled)
    )
    assert runs.truth.tobytes() == base.truth.tobytes()
    assert runs.counts.tobytes() == base.counts.tobytes()
    assert runs.peaks[..., :2].tobytes() == base.peaks[..., :2].tobytes()
    assert runs.peaks[..., 2].tobytes() == (base.peaks[..., 2] * 4.0**m).tobytes()
    assert runs.sweep_values.tobytes() == (base.sweep_values * 2.0**m).tobytes()
    for method, map_ in base.maps.items():
        assert runs.maps[method].power.tobytes() == (map_.power * 4.0**m).tobytes()
    return base


@pytest.mark.parametrize("m", [-20, 7])
@pytest.mark.parametrize("index", range(8))
def test_power_of_two_scale_leaves_every_estimate_and_scales_every_power(index, m):
    # amplitudes x 2^m and noise power x 4^m on the same streams: every step
    # is linear, a ratio or a comparison, and power-of-two scaling is exact,
    # so the truth, the NAFs and ranges are identical and powers are x 4^m
    base = _assert_power_of_two_scale(index, True, [1, 2], m)
    assert np.isfinite(base.peaks[..., 0]).any(axis=-1).all()  # every method finds peaks


@hypothesis.settings(max_examples=10, deadline=None)
@hypothesis.given(
    index=st.integers(0, 7), rear_wall=st.booleans(), seed=st.integers(0, 2**32),
    m=st.integers(-100, 100),
)
def test_power_of_two_scale_holds_for_any_scene_seed_and_exponent(index, rear_wall, seed, m):
    # the relation above over catalog scene, rear wall, seed and exponent;
    # at |m| <= 100 no power leaves the normal float range. Peak powers are
    # correctly rounded squares, so each one is exactly 4^m times its own
    _assert_power_of_two_scale(index, rear_wall, [seed], m)


def test_a_mirrored_scene_gives_mirrored_estimates():
    """Every catalog scene is symmetric about boresight, so without noise the
    ground truth and the oversampled, dft and spline peak NAFs equal their
    negated reverse, to rounding (2.5e-16 NAF at most). Two measured
    exceptions are left out: the *_limit scenes, whose two peaks tie and
    the tie is broken at the last bit (up to 0.07 NAF), and OMP, whose
    greedy picks are not mirrored (up to 0.2 NAF)."""
    methods = ["oversampled", "dft", "spline"]
    campaign = harness._build_campaign(EvalSettings(), methods)
    radio, geom = campaign.settings.radio, campaign.geom
    catalog = scenario_catalog()
    for index in (0, 1, 2, 4, 5, 6):  # far, mid and near, both kinds
        for rear_wall in (True, False):
            scene = build_scene(catalog[index], radio, geom, rear_wall)
            runs = _serial_runs(
                campaign, catalog[index], Scene(scene.scatterers, 0.0), index, [1], methods
            )
            truth = runs.truth[0]
            np.testing.assert_allclose(truth, -truth[::-1], rtol=0, atol=1e-15)
            for k in range(len(methods)):
                nafs = np.sort(runs.peaks[0, k, :, 0])
                nafs = nafs[~np.isnan(nafs)]
                assert nafs.size
                np.testing.assert_allclose(nafs, -nafs[::-1], rtol=0, atol=1e-15)


def test_a_noise_free_draw_repeats_the_signal_window_in_every_frame():
    """Without noise every frame's window bins are the noise-free signal
    itself, so every frame of an 81 x 24 draw has the same magnitudes and
    CFAR flags, and the magnitudes are the gated maximum of |signal| bit for
    bit (sqrt of a rounded square gives the magnitude back). The mean
    profile is left out: the mean of equal powers can round."""
    campaign = harness._build_campaign(EvalSettings(), ["dft"])
    settings, geom, weights = campaign.settings, campaign.geom, campaign.weights
    radio, plan = settings.radio, campaign.over_plan
    keep = _window_basis(radio).keep
    for index, scenario in enumerate(scenario_catalog()):
        for rear_wall in (True, False):
            scene = build_scene(scenario, radio, geom, rear_wall)
            quiet = Scene(scene.scatterers, 0.0)
            acq = simulate_acquisition(
                quiet, geom, weights, radio, plan, 24, (1, index), cfar=settings.cfar
            )
            signal = harness._signal_window(quiet.scatterers, geom, weights, radio, plan)
            assert acq.magnitudes.shape == acq.eligible.shape == (81, 24)
            frame0 = acq.magnitudes[:, :1]
            assert (acq.magnitudes == frame0).all()
            assert frame0[:, 0].tobytes() == np.abs(signal)[:, keep].max(axis=1).tobytes()
            assert (acq.eligible == acq.eligible[:, :1]).all()


def _one_shot_draw(signal, noise_power, radio, n_frames, seed_prefix):
    """The draw as one whole-acquisition call, as simulate_acquisition made
    it before it drew in beam chunks, with one noise product per beam: the
    reference for the chunked draw."""
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
    campaign = harness._build_campaign(settings, ["oversampled"])
    radio, geom, weights = settings.radio, campaign.geom, campaign.weights
    scene = build_scene(scenario_catalog()[4], radio, geom)
    # at 42 window bins a chunk holds 1,944 // n_frames beams (81 at 24
    # frames, 77 at 25, 40 at 48), so the last cases cross the chunk edges;
    # with more than one frame a chunk is one 2-D product, bitwise equal to
    # the per-beam products, even at row counts that are not multiples of
    # the kernel unroll; one frame takes the gemv path
    assert harness._DRAW_CHUNK_BYTES // (32 * 42) == 1944
    cases = [(n_beams, n_frames) for n_beams in (1, 26, 27, 28, 81)
             for n_frames in (1, 2, 5, 6, 24, 25)]
    cases += [(n_beams, 25) for n_beams in (76, 77, 78)]
    cases += [(n_beams, 48) for n_beams in (39, 40, 41, 81)]
    for n_beams, n_frames in cases:
        plan = dataclasses.replace(
            campaign.over_plan, beam_grid=campaign.over_plan.beam_grid[:n_beams]
        )
        signal = harness._signal_window(scene.scatterers, geom, weights, radio, plan)
        profiles, magnitudes = _one_shot_draw(
            signal, scene.noise_power, radio, n_frames, (9, n_beams)
        )
        # every reduction of the chunked draw has the bits of the same
        # reduction over the one-shot draw's whole power cube
        eligible, _ = _eligibility(
            profiles.swapaxes(0, 1), _window_basis(radio).keep,
            _window_basis(radio).centers, settings.cfar,
        )
        for mean_frames in sorted({1, n_frames // 2 or 1, n_frames}):
            acq = simulate_acquisition(
                scene, geom, weights, radio, dataclasses.replace(plan, dwell_frames=mean_frames),
                n_frames, (9, n_beams), cfar=settings.cfar,
            )
            assert acq.magnitudes.shape == (n_beams, n_frames)
            assert acq.magnitudes.tobytes() == magnitudes.tobytes()
            want = profiles[:, :mean_frames].mean(axis=1)
            assert acq.mean_profiles().tobytes() == want.tobytes()
            want = magnitudes[:, :mean_frames].mean(axis=1)
            assert acq.beam_values().tobytes() == want.tobytes()
            assert acq.eligible.tobytes() == eligible.T.tobytes()
        # the plan's 6-frame dwell, or every frame of a shorter recording
        plain = simulate_acquisition(scene, geom, weights, radio, plan, n_frames, (9, n_beams))
        want = profiles[:, : min(plan.dwell_frames, n_frames)].mean(axis=1)
        assert plain.mean_profiles().tobytes() == want.tobytes()


def _draw_peak_bytes(n_beams, n_frames, cfar):
    """tracemalloc peak of one warm-cache draw, and the bytes of its outputs."""
    settings = EvalSettings()
    campaign = harness._build_campaign(settings, ["oversampled"])
    radio, geom, weights = settings.radio, campaign.geom, campaign.weights
    scene = build_scene(scenario_catalog()[4], radio, geom)
    plan = dataclasses.replace(
        campaign.over_plan, beam_grid=campaign.over_plan.beam_grid[:n_beams]
    )
    harness._signal_window(scene.scatterers, geom, weights, radio, plan)
    tracemalloc.start()
    try:
        acq = simulate_acquisition(
            scene, geom, weights, radio, plan, n_frames, (1, 2), cfar=cfar
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = [acq.magnitudes, acq.mean_profile, acq.eligible]
    return peak, sum(a.nbytes for a in outputs if a is not None)


def test_draw_workspace_stays_within_the_row_budget(monkeypatch):
    spares = []
    monkeypatch.setattr(harness, "_SPARE_NOISE", spares)
    cfar = EvalSettings().cfar
    # a chunk's complex noise and window bins take 32 bytes per window bin
    # per (beam, frame) row; numpy's buffer for the broadcast signal add
    # (8,192 complex elements) and the draw's small arrays stay under the slack
    slack = 2**18
    # criterion 7's 81 x 6 sweep is one chunk of 486 rows
    peak, outputs = _draw_peak_bytes(81, 6, None)
    assert peak < 32 * 486 * 42 + outputs + slack
    # a default 81 x 24 run is one chunk of the whole budget, and 81 x 48
    # three chunks within it; the CA-CFAR pass reuses the freed window bins,
    # where keeping them would add its gated copy and prefix sums, about
    # half the budget more
    for n_frames in (48, 24):
        spares.clear()
        peak, outputs = _draw_peak_bytes(81, n_frames, cfar)
        assert peak < harness._DRAW_CHUNK_BYTES + outputs + slack
    # each draw hands its noise array back, and the next one reuses it, so
    # it allocates only its window bins: half the budget
    assert [a.nbytes for a in spares] == [harness._DRAW_CHUNK_BYTES // 2]
    peak, outputs = _draw_peak_bytes(81, 24, cfar)
    assert peak < harness._DRAW_CHUNK_BYTES // 2 + outputs + slack
    assert len(spares) == 1


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
    single = simulate_acquisition(clean, geom, weights, radio, plan, 1, (7, 0)).mean_profiles()
    acq = simulate_acquisition(clean, geom, weights, radio, plan, 2, (7, 0))
    for b, steer in enumerate(plan.beam_grid):
        want = _oracle_window_power(radio, geom, weights, clean, steer, 1, 0)[0]
        np.testing.assert_allclose(single[b], want, rtol=1e-12)
        # without noise both frames are equal, and so is their mean
        np.testing.assert_allclose(acq.mean_profiles()[b], want, rtol=1e-12)
        peak = np.sqrt(want[acq.gate_keep].max())
        np.testing.assert_allclose(acq.magnitudes[b], peak, rtol=1e-12)


def _single_frame_draws(scene, geom, weights, radio, plan, n_frames, seed):
    """The window power of the plan's one beam, one single-frame draw from
    stream (seed, f) per row f."""
    return np.array([
        simulate_acquisition(scene, geom, weights, radio, plan, 1, (seed, f)).mean_profiles()[0]
        for f in range(n_frames)
    ])


def test_acquisition_noise_matches_explicit_csi_path_in_distribution(small_acquisition):
    # a noise scale off by sqrt(n_symbols) moves the noise-bin mean power
    # 14x and the target-bin spread about 3.7x, far outside these bands
    radio, geom, weights, scene, _, _ = small_acquisition
    steer = scene.scatterers[0].naf
    n_frames = 300
    plan = SweepPlan(np.array([steer]), "minimal")
    fast = _single_frame_draws(scene, geom, weights, radio, plan, n_frames, 11)
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
    fast = _single_frame_draws(empty, geom, weights, radio, plan, n_frames, 13)
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


def test_score_rmse_returns_the_report_entry(far_report):
    _, _, report = far_report
    keys = score_rmse([[0.1]], [(0.1,)]).keys()
    assert keys == {"rmse_per_target", "pooled_rmse", "pooled_variance",
                    "n_runs", "n_missed", "detection_rate"}
    data = report.data
    entries = [e for per in data["per_scenario"].values() for e in per.values()]
    entries += [e for group in data["groups"].values() for e in group.values() if e is not None]
    assert entries and all(e.keys() == keys for e in entries)


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


@pytest.mark.parametrize("names", [["octahedral_far", "wall_mid"], ["wall_far"]])
def test_report_csv_of_a_reloaded_report_is_unchanged(tmp_path, names):
    # report.json is written with sorted keys, so report.csv must take its
    # row order from the group table, not from the report's dict order
    catalog = {s.name: s for s in scenario_catalog()}
    report = run_comparison([catalog[n] for n in names], list(harness.METHODS), [1])
    reloaded = harness.RmseReport(json.loads(report.to_json_bytes()))
    report.write_csv(tmp_path / "original.csv")
    reloaded.write_csv(tmp_path / "reloaded.csv")
    original = (tmp_path / "original.csv").read_bytes()
    assert original.startswith(b"group,target,") and original.count(b"\n") == 8
    assert (tmp_path / "reloaded.csv").read_bytes() == original


def test_report_bytes_reproducible(far_report):
    _, methods, report = far_report
    again = run_comparison([scenario_catalog()[0]], methods, [5])
    assert again.to_json_bytes() == report.to_json_bytes()


@pytest.mark.parametrize("methods, ranking", [
    (["dft", "omp"], ["omp", "dft"]),
    (["spline", "omp", "dft"], ["omp", "spline", "dft"]),
    (["dft", "spline", "omp"], ["omp", "dft", "spline"]),
])
def test_methods_with_no_detection_rank_last_in_method_order(methods, ranking):
    # at -50 dB the CFAR-gated maps detect nothing, so their pooled RMSE is
    # NaN, and OMP, which reads no CFAR flag, still has its estimates
    report = run_comparison(
        [scenario_catalog()[0], scenario_catalog()[4]], methods, [1], EvalSettings(snr_db=-50.0)
    )
    assert report.data["ordering"]["total_pooled_rmse_ascending"] == ranking
    assert report.total_rmse("omp") == pytest.approx(0.046395, abs=5e-7)
    assert all(math.isnan(report.total_rmse(m)) for m in ranking[1:])


@pytest.mark.parametrize("settings, methods, slots", [
    (EvalSettings(), ["dft"], 2),
    (EvalSettings(), ["dft", "spline", "oversampled"], 2),
    (EvalSettings(), ["omp"], 5),
    (EvalSettings(), ["spline", "omp"], 5),
    (EvalSettings(omp=OmpConfig(max_atoms=10**9)), ["dft"], 2),
    (EvalSettings(omp=OmpConfig(max_atoms=10**9)), ["oversampled", "omp"], 81),
    (EvalSettings(max_peaks=10**8), ["dft"], 81),
    (EvalSettings(max_peaks=10**8), ["omp"], 5),
])
def test_outcome_table_holds_the_most_peaks_the_methods_return(settings, methods, slots):
    # max_atoms counts only with omp, and no method returns more peaks
    # than the 81-point grid has points
    assert harness._build_campaign(settings, methods).slots == slots


@st.composite
def _decimal_lattice_limits(draw):
    """(n, a sweep limit): a lattice point k/(2n-1) written as a 3- to
    12-digit decimal, cut or rounded up, as a user would type it; at most 0.5."""
    n = draw(st.integers(1, 12))
    digits = draw(st.integers(3, 12))
    scaled = Fraction(draw(st.integers(1, n)), 2 * n - 1) * 10**digits
    whole = math.ceil(scaled) if draw(st.booleans()) else math.floor(scaled)
    return n, min(float(f"{whole}e-{digits}"), 0.5)


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(case=_decimal_lattice_limits(), factor=st.integers(1, 50))
# a limit just below a minimal beam, within the lattice tolerance of it:
# the minimal grid keeps that beam, and so must every refined grid
@hypothesis.example(case=(8, 0.3333333333), factor=10)
@hypothesis.example(case=(8, 0.4666666666), factor=10)
@hypothesis.example(case=(8, 0.1333333333), factor=10)
@hypothesis.example(case=(8, 0.26666666666), factor=10)
def test_every_oversampled_grid_holds_its_minimal_grid(case, factor):
    n, limit = case
    settings = EvalSettings(n_tx=n, n_rx=n, naf_limit=limit, oversampling_factor=factor)
    campaign = harness._build_campaign(settings, ["oversampled"])
    over, minimal = campaign.over_plan.beam_grid, campaign.minimal_plan.beam_grid
    assert np.isin(minimal, over).all()
    assert over[campaign.min_idx].tobytes() == minimal.tobytes()


def test_outcome_tables_are_counted_before_any_exists(tmp_path, monkeypatch):
    def reached(campaign, scenario, n_seeds, n_methods):
        raise ConfigError(f"{n_seeds} seeds reached")

    monkeypatch.setattr(harness, "_empty_runs", reached)
    out = tmp_path / "out"
    # 8 scenarios x (4 methods x 5 slots x 24 B + 2 targets x 16 B) = 4,096 B
    # per seed, plus each scenario's first-seed maps and sweep values, 8 x
    # (3 maps x 81 beams x 42 range bins + 9 beams) x 8 B = 653,760 B: 65,376
    # seeds fit in 256 MiB, and a range is never listed first
    for n, message in (
        (65376, "65376 seeds reached"),
        (65377, "65377 seeds of 8 scenarios give outcome tables of 268437952 bytes"),
        (10**15, f"{10**15} seeds of 8 scenarios give outcome tables of"),
    ):
        with pytest.raises(ConfigError, match=f"^{message}"):
            run_comparison(scenario_catalog(), list(harness.METHODS), range(n), out_dir=out)
        assert not out.exists()


def test_first_seed_maps_are_counted_before_any_scenario_runs(tmp_path, monkeypatch):
    # 651 scenarios at factor 50 (409 beams): their rows take 115 KB, but
    # their first-seed oversampled, dft and spline maps, 8 x (3 x 409 x 42
    # + 9) B each, take 256.1 MiB
    def reached(*args, **kwargs):
        raise AssertionError("no scenario may run")

    for name in ("_empty_runs", "simulate_acquisition"):
        monkeypatch.setattr(harness, name, reached)
    walls = [Scenario(f"wall_{k}", "wall", 0.2) for k in range(651)]
    settings, out = EvalSettings(oversampling_factor=50), tmp_path / "out"
    message = "1 seeds of 651 scenarios give outcome tables of 268550520 bytes, more than"
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=f"^{message}"):
            run_comparison(walls, ["oversampled", "dft", "spline"], [1], settings, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert not out.exists()


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


def test_repeated_and_fractional_master_seeds_rejected(tmp_path):
    far, out = scenario_catalog()[:1], tmp_path / "out"
    not_whole = "master seeds must be whole numbers; not whole: "
    for seeds, message in (
        ([1, 2, 1], "master seeds must be unique; repeated: [1]"),
        ([1.9, 1.2], not_whole + "[1.9, 1.2]"),
        ([1, math.nan], not_whole + "[nan]"),
        ([math.inf], not_whole + "[inf]"),
        ([2, -math.inf], not_whole + "[-inf]"),
        # a refusal quotes the offending values, at most the first 8 of them,
        # so it stays one short line that names a bad seed
        ([0.5] + list(range(1, 50000)), not_whole + "[0.5]"),
        (list(range(1, 50000)) + [0.5], not_whole + "[0.5]"),
        (list(range(1, 50000)) + [math.nan], not_whole + "[nan]"),
        ([k + 0.5 for k in range(8)], not_whole + "[0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5]"),
        ([k + 0.5 for k in range(9)],
         not_whole + "[0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, …]"),
        (list(range(50000)) * 2,
         "master seeds must be unique; repeated: [0, 1, 2, 3, 4, 5, 6, 7, …]"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_comparison(far, ["dft"], seeds, out_dir=out)
        assert not out.exists()
    # a whole float is its integer
    whole = run_comparison(far, ["dft"], [3.0]).to_json_bytes()
    assert whole == run_comparison(far, ["dft"], [3]).to_json_bytes()


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
    """run_comparison's steps in the calling thread, one run after another
    in (scenario, seed) order, each drawn and then estimated alone, then
    every file: the reference that the pool and its stacked blocks must
    reproduce. Returns the report and the outcome tables."""
    campaign = harness._build_campaign(EvalSettings(), methods)
    stream = {s.name: i for i, s in enumerate(scenario_catalog())}
    outcomes = []
    for scenario in scenarios:
        stream.setdefault(scenario.name, len(stream))
        scene = build_scene(scenario, campaign.settings.radio, campaign.geom)
        runs = _serial_runs(campaign, scenario, scene, stream[scenario.name], seeds, methods)
        outcomes.append((scenario, runs))
    report = harness._build_report(campaign, outcomes, methods, seeds)
    harness._write_outputs(out, report, outcomes, campaign.minimal_plan.beam_grid)
    return report, [runs for _, runs in outcomes]


def _tree_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("case", ["catalog", "one", "catalog_and_custom"])
def test_threaded_comparison_equals_serial_reference(tmp_path, monkeypatch, case, cpus):
    catalog = scenario_catalog()
    custom = dataclasses.replace(catalog[5], name="custom_wall", separation_naf=0.15)
    scenarios = {
        "catalog": catalog, "one": catalog[6:7], "catalog_and_custom": [catalog[2], custom],
    }[case]
    methods, seeds = list(harness.METHODS), [4, 5]
    want, _ = _serial_comparison(scenarios, methods, seeds, tmp_path / "serial")
    # the pool size follows the usable CPUs, up to one worker per run; three
    # or eight workers interleave even on a machine with one or two CPUs
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
    assert workers == [min(cpus, len(scenarios) * len(seeds))]
    assert got.to_json_bytes() == want.to_json_bytes()
    files = _tree_bytes(tmp_path / "threaded")
    assert files == _tree_bytes(tmp_path / "serial")
    # the report files, and per scenario three maps and one sweep
    assert len(files) == 3 + 4 * len(scenarios)


def test_unsimulable_scenario_fails_before_any_thread_or_file(tmp_path, monkeypatch):
    catalog = scenario_catalog()
    scenarios = [catalog[0], catalog[1], dataclasses.replace(catalog[2], snr_db=4000.0)]
    started = []
    monkeypatch.setattr(
        harness, "simulate_acquisition", lambda *args, **kwargs: started.append(args)
    )
    out = tmp_path / "out"
    before = threading.active_count()
    with pytest.raises(ConfigError, match="snr_db .* out of range"):
        run_comparison(scenarios, ["dft"], [1], out_dir=out)
    assert not out.exists()
    assert not started
    assert threading.active_count() == before


@pytest.mark.parametrize("settings, methods, message, drawn", [
    (EvalSettings(cfar=CfarConfig(n_training=40)), ["dft"],
     "profile of 36 cells is too short for a 45-cell window", True),
    (EvalSettings(n_tx=2, n_rx=2), ["dft", "spline"],
     "spline interpolation needs at least 4 samples", False),
    (EvalSettings(naf_limit=0.1), ["spline"],
     "spline interpolation needs at least 4 samples", False),
    (EvalSettings(max_peaks=0), ["oversampled"], "max_peaks must be at least 1", False),
], ids=["cfar_window", "spline_samples", "spline_limit", "max_peaks"])
def test_unrunnable_settings_fail_before_any_file(
    tmp_path, monkeypatch, settings, methods, message, drawn
):
    # each is refused by every seed of every scenario: the CFAR window on
    # the first drawn chunk, and the refusals that the settings alone decide
    # by _build_campaign, before any scene is built or drawn
    if not drawn:
        def refuse(*args, **kwargs):
            raise AssertionError("no acquisition may be drawn")

        monkeypatch.setattr(harness, "simulate_acquisition", refuse)
        monkeypatch.setattr(harness, "build_scene", refuse)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_comparison(scenario_catalog()[:2], methods, [1], settings, out_dir=out)
    assert not out.exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_later_scenario_failure_leaves_no_out_dir(tmp_path, monkeypatch, cpus):
    # the first scenario's run is estimated; the second scenario's draw is
    # refused, in the same block
    catalog = scenario_catalog()
    real_draw, real_estimate = harness.simulate_acquisition, harness._estimate
    estimated = []

    def draw(*args, **kwargs):
        if args[6][1] == 1:  # catalog[1]'s noise stream
            raise ConfigError("refused by the second scenario")
        return real_draw(*args, **kwargs)

    def estimate(campaign, methods, block, acqs):
        real_estimate(campaign, methods, block, acqs)
        estimated.extend(scenario.name for scenario, _, _ in block)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "simulate_acquisition", draw)
    monkeypatch.setattr(harness, "_estimate", estimate)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="refused by the second scenario"):
        run_comparison(catalog[:3], ["dft"], [1], out_dir=out)
    # with 2 CPUs the third scenario's run is a block of its own on the
    # other worker, which may be estimated before the refusal is seen
    assert [name for name in estimated if name != catalog[2].name] == [catalog[0].name]
    assert not out.exists()


def _capture_tables(monkeypatch):
    """Record every outcome table run_comparison makes, in order."""
    tables = []

    def empty(*args, _real=harness._empty_runs):
        tables.append(_real(*args))
        return tables[-1]

    monkeypatch.setattr(harness, "_empty_runs", empty)
    return tables


def _table_bytes(runs):
    maps = {m: (a.power.tobytes(), a.range_axis.tobytes(), a.naf_axis.tobytes())
            for m, a in runs.maps.items()}
    arrays = (runs.truth, runs.counts, runs.peaks, runs.sweep_values)
    return [a.tobytes() for a in arrays] + [maps]


@pytest.mark.parametrize("block", [1, 3, 4])
def test_stacked_blocks_equal_the_serial_per_run_reference(tmp_path, monkeypatch, block):
    # 3 scenarios x 2 seeds: blocks of 3 and 4 runs hold seeds of two
    # scenarios, and the last block of 4 is short; the middle scenario's
    # targets stand at another range, so every run's ranges are its own
    catalog = scenario_catalog()
    near = dataclasses.replace(catalog[5], name="wall_at_12_m", target_range_m=12.0)
    scenarios, methods, seeds = [catalog[0], near, catalog[3]], list(harness.METHODS), [4, 5]
    want, want_tables = _serial_comparison(scenarios, methods, seeds, tmp_path / "serial")
    # one worker, so no block is cut to give another worker one; a row
    # budget of block default runs (81 beams x 24 frames each)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(harness, "_BLOCK_ROWS", block * 81 * 24)
    tables = _capture_tables(monkeypatch)
    blocks = []

    def estimate(campaign, methods, runs, acqs, _real=harness._estimate):
        blocks.append([(scenario.name, i) for scenario, _, i in runs])
        _real(campaign, methods, runs, acqs)

    monkeypatch.setattr(harness, "_estimate", estimate)
    got = run_comparison(scenarios, methods, seeds, out_dir=tmp_path / "blocks")
    runs = [(s.name, i) for s in scenarios for i in range(len(seeds))]
    blocks.sort(key=lambda b: runs.index(b[0]))  # the pool may estimate them out of order
    assert blocks == [runs[k:k + block] for k in range(0, len(runs), block)]
    assert [_table_bytes(t) for t in tables] == [_table_bytes(t) for t in want_tables]
    assert got.to_json_bytes() == want.to_json_bytes()
    assert _tree_bytes(tmp_path / "blocks") == _tree_bytes(tmp_path / "serial")
    # a first-seed map pins no other run's map of its block: the memory it
    # views holds its own bins only
    for t in tables:
        for map_ in t.maps.values():
            owner = map_.power
            while owner.base is not None:
                owner = owner.base
            assert owner.size == map_.power.size


@pytest.mark.parametrize("frames, block", [(24, 4), (48, 2), (96, 1), (100, 1)])
def test_blocks_keep_within_the_row_budget(monkeypatch, frames, block):
    # four default runs (81 beams x 24 frames) fill the 7,776-row budget;
    # longer recordings stack fewer runs, and a run past it is a block of
    # its own, as every run at the settings caps (1,151 beams x 648 frames)
    sizes = []

    def estimate(campaign, methods, runs, acqs, _real=harness._estimate):
        sizes.append(len(runs))
        _real(campaign, methods, runs, acqs)

    monkeypatch.setattr(harness, "_estimate", estimate)
    # one worker, so no block is cut to give another worker one
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    settings = EvalSettings(ground_truth_frames=frames)
    run_comparison(scenario_catalog()[:1], ["oversampled"], range(1, 6), settings)
    assert sorted(sizes, reverse=True) == [block] * (5 // block) + [5 % block] * (5 % block > 0)


def test_block_submission_stays_bounded(monkeypatch):
    # the calling thread submits a block and waits on the oldest once more
    # than a block per worker is pending, so the queue stays short for any
    # seed count: at most workers + 1 block tasks are submitted and unfinished
    lock, unfinished, seen = threading.Lock(), [0], []

    class Pool(harness.ThreadPoolExecutor):
        def submit(self, fn, *args):
            def task():
                try:
                    return fn(*args)
                finally:
                    with lock:
                        unfinished[0] -= 1

            with lock:
                unfinished[0] += 1
                seen.append(unfinished[0])
            return super().submit(task)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", Pool)
    run_comparison(scenario_catalog()[:1], ["oversampled"], range(1, 41))
    assert len(seen) == 10  # blocks of 4 runs
    assert max(seen) <= 2 + 1
    # few runs give every worker a block: 2 runs are two blocks of 1
    seen.clear()
    run_comparison(scenario_catalog()[:1], ["oversampled"], [1, 2])
    assert len(seen) == 2


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("block", [1, 3, 4])
@pytest.mark.parametrize("draw_refused", [(1, 0), (2, 0)], ids=["same_block", "later_block"])
def test_the_serial_order_picks_the_refusal(tmp_path, monkeypatch, cpus, block, draw_refused):
    # run (scenario 0, seed 2) refuses in its estimation, and a later run,
    # (scenario 1 or 2, seed 1), in its draw: the serial (scenario, seed)
    # order meets the estimation's refusal first, so it is the one raised
    catalog = scenario_catalog()
    real_draw, real_estimate = harness.simulate_acquisition, harness._estimate

    def draw(*args, **kwargs):
        seed, stream = args[6]
        if (stream, seed) == (draw_refused[0], 1):
            raise ConfigError(f"draw of stream {stream} refused")
        return real_draw(*args, **kwargs)

    def estimate(campaign, methods, runs, acqs):
        if (catalog[0], 1) in [(scenario, i) for scenario, _, i in runs]:
            raise ConfigError("estimation of octahedral_far seed 2 refused")
        real_estimate(campaign, methods, runs, acqs)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    # blocks of up to block runs; with 3 CPUs the 6 runs give blocks of 2
    monkeypatch.setattr(harness, "_BLOCK_ROWS", block * 81 * 24)
    monkeypatch.setattr(harness, "simulate_acquisition", draw)
    monkeypatch.setattr(harness, "_estimate", estimate)
    out = tmp_path / "out"
    before = threading.active_count()
    with pytest.raises(ConfigError, match="^estimation of octahedral_far seed 2 refused$"):
        run_comparison(catalog[:3], ["dft"], [1, 2], out_dir=out)
    assert not out.exists()
    assert threading.active_count() == before
    # with no estimation refusal, the draw's is raised
    monkeypatch.setattr(harness, "_estimate", real_estimate)
    with pytest.raises(ConfigError, match=f"^draw of stream {draw_refused[0]} refused$"):
        run_comparison(catalog[:3], ["dft"], [1, 2], out_dir=out)
    assert not out.exists()


def test_a_stacked_refusal_is_the_first_refusing_runs(monkeypatch):
    # each run's power map overflows its square on its own dft or spline
    # map: stacked, the dft maps of every run square first, but the serial
    # order meets run 0's spline overflow first
    catalog = scenario_catalog()
    real = {"dft": harness.dft_interpolate, "spline": harness.spline_interpolate}
    overflow = {"spline": 0, "dft": 1}  # the sweep column that overflows per method

    def interpolate(method):
        def run(sweep, grid):
            dense = real[method](sweep, grid)
            if dense.ndim == 3 and dense.shape[1] > overflow[method]:
                dense[:, overflow[method], 1:] = 1e155
            return dense
        return run

    for method in real:
        monkeypatch.setattr(harness, f"{method}_interpolate", interpolate(method))
    # one worker, so the two runs stack in one block
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    with pytest.raises(ConfigError, match="^spline map power overflows the float range$"):
        run_comparison(catalog[:1], ["dft", "spline"], [1, 2])


def test_each_distinct_scene_builds_its_window_bins_once(monkeypatch):
    # runs of one scene draw in parallel; each scene's bins are built before
    # its runs are submitted, so no two draws build the same bins, and an
    # equal scene under another name shares them
    catalog = scenario_catalog()
    twin = dataclasses.replace(catalog[0], name="twin_of_octahedral_far")
    calls = []

    def counted(*args, _real=harness._scene_gains):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(harness, "_scene_gains", counted)
    harness._signal_window.cache_clear()
    run_comparison([catalog[0], catalog[1], twin, catalog[4]], ["dft"], [1, 2, 3, 4, 5])
    assert len(calls) == 3


def test_an_interpolated_map_power_that_overflows_is_refused(monkeypatch):
    # the map squares interpolated magnitudes, which may pass the sampled
    # ones: a square past the float range is one ConfigError, no warning
    def overshoot(sweep, grid):
        return np.full((grid.size,) + sweep.values.shape[1:], 1e155)

    monkeypatch.setattr(harness, "dft_interpolate", overshoot)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^dft map power overflows the float range$"):
            run_comparison(scenario_catalog()[:1], ["dft"], [1])


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


_CAPS_RADIO = RadioConfig(n_subcarriers=3300, n_range_bins=128)


@pytest.mark.parametrize("radio", [RadioConfig(), _CAPS_RADIO], ids=["default", "caps"])
@pytest.mark.parametrize("index", range(8))
def test_signal_window_is_the_scene_profile_through_the_window_idft(index, radio):
    # each scatterer's delay response goes through the IDFT once, then the
    # beams weight it: the (beam, subcarrier) profile's product to rounding
    geom = ArrayGeometry.uniform_linear(8, 8)
    weights = BeamformingWeights.all_ones(geom)
    scatterers = build_scene(scenario_catalog()[index], radio, geom).scatterers
    idft = harness._window_idft(radio)
    full = oversampled_sweep_plan(8, harness.DEFAULT_NAF_LIMIT, 10)
    for n_beams in (1, 28, 81):
        plan = dataclasses.replace(full, beam_grid=full.beam_grid[:n_beams])
        want = radio.n_symbols * scene_subcarrier_profile(
            radio, scatterers, geom, weights, plan.beam_grid
        ) @ idft
        got = harness._signal_window.__wrapped__(scatterers, geom, weights, radio, plan)
        assert got.shape == (n_beams, radio.n_range_bins)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        empty = harness._signal_window.__wrapped__((), geom, weights, radio, plan)
        assert empty.shape == got.shape and not np.any(empty)


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
    # scene's window bins are built once, before its runs draw
    scenarios, methods, seeds = scenario_catalog()[:2], ["dft", "omp"], [1, 2, 3]
    want = run_comparison(scenarios, methods, seeds, out_dir=tmp_path / "plain")
    calls = []

    def counted(*args, _real=harness.simulate_acquisition, **kwargs):
        calls.append(args)
        return _real(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate_acquisition", counted)
    harness._signal_window.cache_clear()
    got = run_comparison(scenarios, methods, seeds, out_dir=tmp_path / "counted")
    assert len(calls) == len(scenarios) * len(seeds)
    info = harness._signal_window.cache_info()
    assert (info.misses, info.hits) == (2, 6)
    assert got.to_json_bytes() == want.to_json_bytes()
    assert _tree_bytes(tmp_path / "counted") == _tree_bytes(tmp_path / "plain")


def _count_dictionary_builds(monkeypatch):
    """Empty the dictionary cache and count build_dictionary calls from now on."""
    calls = []

    def counted(*args, _real=harness.build_dictionary):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(harness, "build_dictionary", counted)
    harness._dictionary.cache_clear()
    return calls


def test_campaigns_build_the_dictionary_once(monkeypatch):
    calls = _count_dictionary_builds(monkeypatch)
    scenarios, seeds = scenario_catalog()[:2], [1, 2]
    first = run_comparison(scenarios, ["omp"], seeds)
    second = run_comparison(scenarios, ["omp"], seeds)
    assert len(calls) == 1
    assert second.to_json_bytes() == first.to_json_bytes()
    # a campaign without omp builds none
    calls.clear()
    harness._dictionary.cache_clear()
    run_comparison(scenarios, ["dft"], seeds)
    assert calls == []


def _dictionary_args(kind="matched"):
    """_dictionary's arguments for the default campaign, every one built afresh."""
    settings = EvalSettings()
    return (
        settings.geometry(), settings.weights(),
        minimal_sweep_plan(8, harness.DEFAULT_NAF_LIMIT),
        oversampled_sweep_plan(8, harness.DEFAULT_NAF_LIMIT, 10), kind,
    )


def test_dictionary_cache_keys_on_content_and_kind(monkeypatch):
    calls = _count_dictionary_builds(monkeypatch)
    matched = harness._dictionary(*_dictionary_args("matched"))
    flat = harness._dictionary(*_dictionary_args("flat"))
    assert harness._dictionary(*_dictionary_args("matched")) is matched
    assert harness._dictionary(*_dictionary_args("flat")) is flat
    info = harness._dictionary.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
    assert len(calls) == 2
    assert matched.atoms.tobytes() != flat.atoms.tobytes()


@pytest.mark.parametrize("kind", ["matched", "flat"])
def test_cached_dictionary_is_read_only_and_equals_a_fresh_build(kind):
    harness._dictionary.cache_clear()
    cached = harness._dictionary(*_dictionary_args(kind))
    geom, weights, beam_plan, candidate_plan, _ = _dictionary_args(kind)
    fresh = build_dictionary(geom, weights, beam_plan.beam_grid, candidate_plan.beam_grid, kind)
    assert fresh.atoms.flags.writeable
    assert cached.atoms.shape == fresh.atoms.shape == (9, 81)
    assert cached.atoms.tobytes() == fresh.atoms.tobytes()
    assert cached.beam_grid.tobytes() == fresh.beam_grid.tobytes()
    assert cached.candidate_grid.tobytes() == fresh.candidate_grid.tobytes()
    assert not cached.atoms.flags.writeable
    with pytest.raises(ValueError):
        cached.atoms[0, 0] = 0.0
