import csv
import json

import numpy as np
import pytest

from beamsweep import cli
from beamsweep import (
    BeamformingWeights,
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


def test_reconstruct_off_lattice_is_contract_violation(tmp_path, capsys):
    src = tmp_path / "sweep.csv"
    dst = tmp_path / "dense.csv"
    _write_sweep(src, [0.0, 0.1, 0.25], [1.0, 1.0, 1.0])
    rc = cli.main(
        ["reconstruct", "--sweep", str(src), "--method", "dft", "--out", str(dst)]
    )
    assert rc == 2
    assert "internal error" in capsys.readouterr().err


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


def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = cli.main(
        [
            "simulate",
            "--scenario",
            "octahedral_far",
            "--methods",
            "dft",
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
    assert "octahedral_far" in stdout and "ground truth" in stdout


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
