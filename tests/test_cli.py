import csv
import json
from pathlib import Path

import numpy as np
import pytest

from beamsweep import cli
from beamsweep import (
    BeamformingWeights,
    EvalSettings,
    build_dictionary,
    minimal_naf_grid,
)


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


def _write_sweep(path, nafs, values):
    with open(path, "w", newline="") as fh:
        fh.write("naf,value\n")
        for g, v in zip(nafs, values):
            fh.write(f"{float(g)!r},{float(v)!r}\n")


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_catalog_table(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 + 8
    assert "octahedral_far" in out[1]
    assert "wall_limit" in out[-1]


def test_catalog_json(capsys):
    assert cli.main(["catalog", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 8
    assert payload[0]["name"] == "octahedral_far"
    assert payload[0]["target_nafs"] == [-0.1045, 0.1045]
    assert payload[4]["target_amplitude_db"] == 15.0


def test_detect_finds_two_peaks(tmp_path, capsys):
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    spectrum[30] = 2.0
    spectrum[60] = 1.5
    src = tmp_path / "spectrum.csv"
    dst = tmp_path / "peaks.csv"
    _write_sweep(src, axis, spectrum)
    assert cli.main(["detect", "--spectrum", str(src), "--out", str(dst)]) == 0
    rows = _read_rows(dst)
    assert len(rows) == 2
    assert float(rows[0]["naf"]) == pytest.approx(axis[30])
    assert float(rows[0]["power"]) == pytest.approx(4.0)
    assert float(rows[1]["naf"]) == pytest.approx(axis[60])
    assert "2 peak(s)" in capsys.readouterr().out


def test_detect_rejects_bad_config(tmp_path, capsys):
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    spectrum[30] = 2.0
    src = tmp_path / "spectrum.csv"
    _write_sweep(src, axis, spectrum)
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    rc = cli.main(
        ["detect", "--config", str(bad), "--spectrum", str(src), "--out", str(tmp_path / "p.csv")]
    )
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_detect_default_resolution_follows_array_config(tmp_path):
    # two spikes 0.14 apart: merged at the 4x4 default width 1/7, split at 1/15
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    spectrum[45] = 2.0
    spectrum[66] = 1.5
    src = tmp_path / "spectrum.csv"
    _write_sweep(src, axis, spectrum)
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"array": {"n_tx": 4, "n_rx": 4}}))
    wide = tmp_path / "wide.csv"
    assert cli.main(["detect", "--config", str(small), "--spectrum", str(src), "--out", str(wide)]) == 0
    assert len(_read_rows(wide)) == 1
    narrow = tmp_path / "narrow.csv"
    assert cli.main(["detect", "--spectrum", str(src), "--out", str(narrow)]) == 0
    assert len(_read_rows(narrow)) == 2


def test_detect_rejects_non_positive_resolution(tmp_path, capsys):
    # zero is a given value, not an absent one: it must not fall back to
    # the array's default width
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    spectrum[30] = 2.0
    src = tmp_path / "spectrum.csv"
    _write_sweep(src, axis, spectrum)
    for value in ("0", "-0.01"):
        dst = tmp_path / f"peaks{value}.csv"
        rc = cli.main(
            ["detect", "--spectrum", str(src), "--resolution", value, "--out", str(dst)]
        )
        assert rc == 1
        assert "resolution must be positive" in capsys.readouterr().err
        assert not dst.exists()


def test_detect_max_peaks_flag(tmp_path):
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    spectrum[30] = 2.0
    spectrum[60] = 1.5
    src = tmp_path / "spectrum.csv"
    dst = tmp_path / "one.csv"
    _write_sweep(src, axis, spectrum)
    rc = cli.main(
        ["detect", "--spectrum", str(src), "--out", str(dst), "--max-peaks", "1"]
    )
    assert rc == 0
    assert len(_read_rows(dst)) == 1


def test_reconstruct_dft_densifies(tmp_path, capsys):
    mg = minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0)))
    src = tmp_path / "sweep.csv"
    dst = tmp_path / "dense.csv"
    _write_sweep(src, mg, np.ones(mg.size))
    rc = cli.main(
        ["reconstruct", "--sweep", str(src), "--method", "dft", "--out", str(dst)]
    )
    assert rc == 0
    rows = _read_rows(dst)
    assert len(rows) == 81
    assert "81-point dft spectrum" in capsys.readouterr().out
    # original samples sit on every tenth output row, reproduced exactly
    for k, row in enumerate(rows):
        if k % 10 == 0:
            assert float(row["value"]) == pytest.approx(1.0, abs=1e-9)


def test_reconstruct_spline(tmp_path):
    mg = minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0)))
    src = tmp_path / "sweep.csv"
    dst = tmp_path / "dense.csv"
    _write_sweep(src, mg, 1.0 + 0.1 * mg)
    rc = cli.main(
        ["reconstruct", "--sweep", str(src), "--method", "spline", "--out", str(dst)]
    )
    assert rc == 0
    assert len(_read_rows(dst)) == 81


def test_reconstruct_omp_recovers_single_atom(tmp_path, geom8):
    mg = minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0)))
    grid = np.arange(-40, 41) / 150.0
    weights = BeamformingWeights.all_ones(geom8)
    d = build_dictionary(geom8, weights, mg, grid, "matched")
    src = tmp_path / "sweep.csv"
    dst = tmp_path / "sparse.csv"
    _write_sweep(src, mg, 3.0 * d.atoms[:, 45])
    rc = cli.main(
        ["reconstruct", "--sweep", str(src), "--method", "omp", "--out", str(dst)]
    )
    assert rc == 0
    rows = _read_rows(dst)
    values = np.array([float(r["value"]) for r in rows])
    assert values[45] == pytest.approx(3.0, rel=1e-9)
    others = np.delete(values, 45)
    assert np.max(np.abs(others)) < 1e-9
    assert float(rows[45]["naf"]) == pytest.approx(grid[45])


def test_reconstruct_dictionary_from_config(tmp_path):
    mg = minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0)))
    src = tmp_path / "sweep.csv"
    dst = tmp_path / "dense.csv"
    cfg = tmp_path / "cfg.json"
    _write_sweep(src, mg, np.ones(mg.size))
    cfg.write_text(json.dumps({"dictionary": "flat", "omp": {"max_atoms": 2}}))
    rc = cli.main(
        [
            "reconstruct",
            "--config",
            str(cfg),
            "--sweep",
            str(src),
            "--method",
            "omp",
            "--out",
            str(dst),
        ]
    )
    assert rc == 0
    assert len(_read_rows(dst)) == 81


def test_reconstruct_off_lattice_exits_one(tmp_path, capsys):
    # a non-uniform grid, an even order (spacing 1/2) and a uniform grid off
    # the k/(2n-1) lattice, refused alike by every method
    src = tmp_path / "sweep.csv"
    dst = tmp_path / "dense.csv"
    cases = (
        ([0.0, 0.1, 0.25], "not uniform"),
        ([-0.5, 0.0, 0.5], "not 1/(2n-1)"),
        (np.arange(-4, 5) / 15 + 0.01, "not aligned"),
    )
    for nafs, message in cases:
        _write_sweep(src, nafs, np.ones(len(nafs)))
        for method in ("dft", "spline", "omp"):
            rc = cli.main(
                ["reconstruct", "--sweep", str(src), "--method", method, "--out", str(dst)]
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert message in err and str(src) in err and err.count("\n") == 1
            assert "internal error" not in err
    assert not dst.exists()


def test_reconstruct_grid_spans_the_outermost_sample(tmp_path):
    # an asymmetric sweep: the dense grid reaches -4/15 on both sides
    src = tmp_path / "sweep.csv"
    dst = tmp_path / "dense.csv"
    _write_sweep(src, np.arange(-4, 3) / 15, np.ones(7))
    assert cli.main(
        ["reconstruct", "--sweep", str(src), "--method", "spline", "--factor", "3", "--out", str(dst)]
    ) == 0
    nafs = [float(r["naf"]) for r in _read_rows(dst)]
    assert nafs == (np.arange(-12, 13) / 45).tolist()


def test_reconstruct_rejects_non_positive_factor(tmp_path, capsys):
    mg = minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0)))
    src = tmp_path / "sweep.csv"
    dst = tmp_path / "dense.csv"
    _write_sweep(src, mg, np.ones(mg.size))
    for factor in ("0", "-3"):
        rc = cli.main(
            ["reconstruct", "--sweep", str(src), "--method", "dft",
             "--factor", factor, "--out", str(dst)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "--factor must be a positive integer" in err
        assert err.count("\n") == 1
    assert not dst.exists()


def test_evaluate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "eval"
    rc = cli.main(
        [
            "evaluate",
            "--scenarios",
            "octahedral_far",
            "--methods",
            "dft",
            "--seeds",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "report.json").exists()
    assert (out / "report.csv").exists()
    assert (out / "peaks.csv").exists()
    assert (out / "octahedral_far_dft.ramp").exists()
    assert (out / "octahedral_far_sweep.csv").exists()
    stdout = capsys.readouterr().out
    assert stdout.startswith(f"report written to {out}/report.json\n")
    assert "  dft " in stdout


def test_simulate_command_is_gone(tmp_path, capsys):
    assert cli.main(["simulate", "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "invalid choice: 'simulate'" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_repeated_scenario_exits_one(tmp_path, capsys):
    rc = cli.main(["evaluate", "--scenarios", "octahedral_far,octahedral_far", "--seeds", "1",
                   "--methods", "dft", "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: scenario names must be unique; repeated: ['octahedral_far']\n"
    assert not (tmp_path / "x").exists()


def test_evaluate_single_seed(tmp_path, capsys):
    out = tmp_path / "eval"
    rc = cli.main(
        [
            "evaluate",
            "--seeds",
            "1",
            "--scenarios",
            "octahedral_far",
            "--methods",
            "dft,spline",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["master_seeds"] == [1]
    assert report["metadata"]["methods"] == ["dft", "spline"]
    stdout = capsys.readouterr().out
    assert "best first" in stdout


def test_seed_env_var_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
    out = tmp_path / "eval"
    rc = cli.main(
        [
            "evaluate",
            "--seed",
            "3",
            "--seeds",
            "1",
            "--scenarios",
            "octahedral_far",
            "--methods",
            "dft",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["master_seeds"] == [7]


def test_seed_env_var_must_be_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "tuesday")
    rc = cli.main(
        ["evaluate", "--seeds", "1", "--out", str(tmp_path / "x")]
    )
    assert rc == 1
    assert cli.SEED_ENV_VAR in capsys.readouterr().err


def test_negative_master_seed_rejected(tmp_path, monkeypatch, capsys):
    base = ["evaluate", "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out", str(tmp_path / "x")]
    assert cli.main(base + ["--seed", "-2"]) == 1
    assert "master seeds must be non-negative" in capsys.readouterr().err
    monkeypatch.setenv(cli.SEED_ENV_VAR, "-1")
    assert cli.main(base) == 1
    assert "master seeds must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_scenario_rejected(tmp_path, capsys):
    rc = cli.main(
        [
            "evaluate",
            "--seeds",
            "1",
            "--scenarios",
            "pentagonal_far",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == 1
    assert "unknown scenarios" in capsys.readouterr().err


def test_config_file_errors(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    _write_sweep(sweep, [0.0], [1.0])
    base = ["reconstruct", "--sweep", str(sweep), "--method", "dft", "--out", str(tmp_path / "o.csv")]

    missing = tmp_path / "absent.json"
    assert cli.main(base + ["--config", str(missing)]) == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(base + ["--config", str(broken)]) == 1

    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert cli.main(base + ["--config", str(listy)]) == 1

    badkey = tmp_path / "badkey.json"
    badkey.write_text(json.dumps({"radio": {"carrier_frequency_thz": 1}}))
    assert cli.main(base + ["--config", str(badkey)]) == 1
    assert "unknown config key" in capsys.readouterr().err

    badsection = tmp_path / "badsection.json"
    badsection.write_text(json.dumps({"cfar": 3}))
    assert cli.main(base + ["--config", str(badsection)]) == 1


def test_config_rejects_unknown_keys(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    _write_sweep(sweep, [0.0], [1.0])
    base = ["reconstruct", "--sweep", str(sweep), "--method", "dft", "--out", str(tmp_path / "o.csv")]
    for cfg, name in (({"mode": "poc"}, "'mode'"), ({"array": {"n_tx": 8, "n_z": 2}}, "'n_z'")):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(base + ["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown" in err and name in err and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


def test_config_include_rear_wall_must_be_boolean(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    _write_sweep(sweep, [0.0], [1.0])
    base = ["reconstruct", "--sweep", str(sweep), "--method", "dft", "--out", str(tmp_path / "o.csv")]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"include_rear_wall": "false"}))
    assert cli.main(base + ["--config", str(path)]) == 1
    assert "include_rear_wall" in capsys.readouterr().err
    path.write_text(json.dumps({"include_rear_wall": False}))
    assert cli.main(base + ["--config", str(path)]) == 0


def test_config_non_numeric_values_exit_one(tmp_path, capsys):
    # top-level values, array, seed and dictionary are as strict as the
    # sections: no cast turns 4.9, "4", 6.7, true or "0.3" into a setting
    base = ["evaluate", "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out", str(tmp_path / "x")]
    for cfg, key in (
        ({"dwell_frames": "six"}, "'dwell_frames'"),
        ({"snr_db": None}, "'snr_db'"),
        ({"array": {"n_tx": "eight"}}, "'array.n_tx'"),
        ({"seed": "one"}, "'seed'"),
        ({"max_peaks": float("inf")}, "'max_peaks'"),
        ({"array": {"n_tx": 4.9, "n_rx": "4"}}, "'array.n_tx'"),
        ({"array": {"n_tx": 4, "n_rx": "4"}}, "'array.n_rx'"),
        ({"dwell_frames": 6.7}, "'dwell_frames'"),
        ({"snr_db": True}, "'snr_db'"),
        ({"naf_limit": "0.3"}, "'naf_limit'"),
        ({"seed": 1.9}, "'seed'"),
        ({"seed": True}, "'seed'"),
        ({"dictionary": 5}, "'dictionary'"),
        ({"include_rear_wall": 0}, "'include_rear_wall'"),
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(base + ["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_config_cross_field_rules_exit_one(tmp_path, capsys):
    base = ["evaluate", "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out", str(tmp_path / "x")]
    for cfg, message in (
        ({"dwell_frames": 30}, "dwell_frames (30) must not exceed ground_truth_frames (24)"),
        ({"array": {"n_tx": 8, "n_rx": 6}}, "n_tx (8) and n_rx (6) must be equal"),
        ({"array": {"n_tx": 8, "n_rx": 4}}, "n_tx (8) and n_rx (4) must be equal"),
        ({"dictionary": "bogus"}, "unknown dictionary kind 'bogus'"),
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(base + ["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
    assert not (tmp_path / "x").exists()
    sweep = tmp_path / "sweep.csv"
    _write_sweep(sweep, minimal_naf_grid(8, 0.2723), np.ones(9))
    path.write_text(json.dumps({"dictionary": "bogus"}))
    dense = tmp_path / "dense.csv"
    assert cli.main(["reconstruct", "--config", str(path), "--sweep", str(sweep),
                     "--method", "dft", "--out", str(dense)]) == 1
    assert "unknown dictionary kind 'bogus'" in capsys.readouterr().err
    assert not dense.exists()


def test_out_of_range_snr_exits_one(tmp_path, capsys):
    # from the flag and from the config alike: no traceback, one line naming snr_db
    base = ["evaluate", "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out", str(tmp_path / "x")]
    path = tmp_path / "cfg.json"
    for value in (1e308, -1e308, 4000.0, float("-inf"), float("nan")):
        path.write_text(json.dumps({"snr_db": value}))
        for extra in (["--snr-db=" + repr(value)], ["--config", str(path)]):
            assert cli.main(base + extra) == 1
            err = capsys.readouterr().err
            assert "snr_db" in err and err.count("\n") == 1
            assert "internal error" not in err
    assert not (tmp_path / "x").exists()


def test_negative_snr_spellings(tmp_path, capsys):
    base = ["evaluate", "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out"]
    out_of_range = "snr_db -1e+308 is out of range"
    # argparse before Python 3.13 takes "-1e308" after a space for an option;
    # the one line then names the joined spelling, which parses everywhere
    assert cli.main(base + [str(tmp_path / "x"), "--snr-db", "-1e308"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--snr-db=VALUE" in err or out_of_range in err
    assert cli.main(base + [str(tmp_path / "x"), "--snr-db=-1e308"]) == 1
    err = capsys.readouterr().err
    assert out_of_range in err and err.count("\n") == 1
    assert not (tmp_path / "x").exists()
    assert cli.main(base + [str(tmp_path / "y"), "--snr-db", "-3"]) == 0
    report = json.loads((tmp_path / "y" / "report.json").read_text())
    assert report["metadata"]["reference_snr_db"] == -3.0


def test_snr_flag_equals_config_and_overrides_it(tmp_path):
    base = ["evaluate", "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out"]
    twenty = tmp_path / "twenty.json"
    twenty.write_text(json.dumps({"snr_db": 20.0}))
    five = tmp_path / "five.json"
    five.write_text(json.dumps({"snr_db": 5.0}))
    runs = {
        "flag": ["--snr-db", "20"],
        "config": ["--config", str(twenty)],
        "both": ["--config", str(five), "--snr-db", "20"],
        "five": ["--config", str(five)],
    }
    reports = {}
    for name, extra in runs.items():
        assert cli.main(base + [str(tmp_path / name)] + extra) == 0
        reports[name] = (tmp_path / name / "report.json").read_bytes()
    assert reports["flag"] == reports["config"] == reports["both"] != reports["five"]
    assert json.loads(reports["flag"])["metadata"]["reference_snr_db"] == 20.0


def test_config_section_values_exit_one(tmp_path, capsys):
    # each value checked against its field type, and more range bins than
    # subcarriers refused, all before any array is built
    base = ["evaluate", "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out", str(tmp_path / "x")]
    for cfg, message in (
        ({"radio": {"range_window_m": [1, 2, 3]}}, "'radio.range_window_m' must be a list of 2"),
        ({"radio": {"n_range_bins": 42.5}}, "'radio.n_range_bins' must be an integer"),
        ({"radio": {"n_range_bins": 1e9}}, "'radio.n_range_bins' must be an integer"),
        ({"radio": {"n_subcarriers": 32}}, "n_range_bins must not exceed n_subcarriers"),
        ({"cfar": {"n_training": "x"}}, "'cfar.n_training' must be an integer"),
        ({"cfar": {"n_guard": True}}, "'cfar.n_guard' must be an integer"),
        ({"cfar": {"p_fa": float("nan")}}, "'cfar.p_fa' must be a finite number"),
        ({"omp": {"max_atoms": "3"}}, "'omp.max_atoms' must be an integer"),
        ({"omp": {"residual_tolerance": [0.1]}}, "'omp.residual_tolerance' must be a finite number"),
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(base + ["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Configuration file", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "cfg.json"
    path.write_text(example)
    out = tmp_path / "eval"
    rc = cli.main(["evaluate", "--config", str(path), "--seeds", "1",
                   "--scenarios", "octahedral_far", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["master_seeds"] == [json.loads(example)["seed"]]
    # the example spells out every key the schema knows
    assert set(json.loads(example)) == set(cli._schema(EvalSettings))


@pytest.mark.parametrize(
    "peak, cause",
    [(1e200, "is too large: its power overflows"), (1e-200, "is too small: its power underflows to 0")],
)
def test_detect_peak_power_outside_float_range_exits_one(tmp_path, capsys, peak, cause):
    # the spectrum is read as magnitude; its square leaves the float range
    src = tmp_path / "spectrum.csv"
    _write_sweep(src, [-0.1, 0.0, 0.1], [0.0, peak, 0.0])
    out = tmp_path / "peaks.csv"
    assert cli.main(["detect", "--spectrum", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: peak magnitude {peak!r} {cause}\n"
    assert not out.exists()


def test_non_finite_csv_cells_rejected(tmp_path, capsys):
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    spectrum[30] = 2.0
    spectrum[50] = np.nan
    src = tmp_path / "spectrum.csv"
    _write_sweep(src, axis, spectrum)
    out = tmp_path / "peaks.csv"
    assert cli.main(["detect", "--spectrum", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "row 51 is not finite" in err and err.count("\n") == 1
    values = np.ones(9)
    values[4] = np.nan
    sweep = tmp_path / "sweep.csv"
    _write_sweep(sweep, minimal_naf_grid(8, 0.2723), values)
    dense = tmp_path / "dense.csv"
    assert cli.main(["reconstruct", "--sweep", str(sweep), "--method", "dft", "--out", str(dense)]) == 1
    assert "row 5 is not finite" in capsys.readouterr().err
    _write_sweep(sweep, [0.0, np.inf], [1.0, 1.0])
    assert cli.main(["reconstruct", "--sweep", str(sweep), "--method", "dft", "--out", str(dense)]) == 1
    assert not out.exists() and not dense.exists()


def test_sweep_file_errors(tmp_path):
    out = str(tmp_path / "o.csv")
    rc = cli.main(
        ["reconstruct", "--sweep", str(tmp_path / "none.csv"), "--method", "dft", "--out", out]
    )
    assert rc == 1

    empty = tmp_path / "empty.csv"
    empty.write_text("naf,value\n")
    rc = cli.main(["reconstruct", "--sweep", str(empty), "--method", "dft", "--out", out])
    assert rc == 1

    badcols = tmp_path / "badcols.csv"
    badcols.write_text("angle,power\n0.0,1.0\n")
    rc = cli.main(["reconstruct", "--sweep", str(badcols), "--method", "dft", "--out", out])
    assert rc == 1


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["reconstruct"]) == 1
    assert cli.main(["evaluate"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def _two_spike_spectrum(tmp_path):
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    spectrum[30] = 2.0
    spectrum[60] = 1.5
    src = tmp_path / "spectrum.csv"
    _write_sweep(src, axis, spectrum)
    return src


def test_reused_parser_keeps_no_values_between_calls(tmp_path):
    src = _two_spike_spectrum(tmp_path)
    out = tmp_path / "peaks.csv"
    plain = ["detect", "--spectrum", str(src), "--out", str(out)]
    assert cli.main(plain) == 0
    first = out.read_bytes()
    assert cli.main(plain + ["--resolution", "0.2", "--max-peaks", "1"]) == 0
    flagged = out.read_bytes()
    assert cli.main(plain) == 0
    assert out.read_bytes() == first != flagged
    assert len(_read_rows(out)) == 2


def test_good_call_after_a_bad_command_line(tmp_path, capsys):
    src = _two_spike_spectrum(tmp_path)
    out = tmp_path / "peaks.csv"
    good = ["detect", "--spectrum", str(src), "--out", str(out)]
    assert cli.main(good) == 0
    expected = out.read_bytes()
    out.unlink()
    capsys.readouterr()
    # detect reads neither a seed, an SNR nor a dictionary, so it takes no flag for them
    for bad in (good + ["--max-peaks", "two"], ["detect", "--spectrum", str(src)],
                good + ["--method", "dft"], ["reconstruct", "--method", "svd"],
                good + ["--seed", "3"], good + ["--snr-db", "20"], good + ["--dictionary", "flat"],
                ["reconstruct", "--sweep", str(src), "--method", "dft", "--out", str(out),
                 "--snr-db", "20"],
                ["reconstruct", "--sweep", str(src), "--method", "dft", "--out", str(out),
                 "--seed", "3"]):
        assert cli.main(bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    assert cli.main(good) == 0
    assert out.read_bytes() == expected
    assert capsys.readouterr().out == f"2 peak(s) written to {out}\n"
