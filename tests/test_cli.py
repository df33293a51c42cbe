import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from beamsweep import cli, harness, ofdm
from beamsweep import (
    BeamformingWeights,
    ConfigError,
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


def _two_peak_spectrum(path):
    """A 91-point spectrum, 2.0 at bin 30 and 1.5 at bin 60; returns its axis."""
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    spectrum[30] = 2.0
    spectrum[60] = 1.5
    _write_sweep(path, axis, spectrum)
    return axis


def test_detect_finds_two_peaks(tmp_path, capsys):
    src = tmp_path / "spectrum.csv"
    dst = tmp_path / "peaks.csv"
    axis = _two_peak_spectrum(src)
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


def test_detect_rejects_unordered_axis(tmp_path, capsys):
    axis = (np.arange(91) - 45) / 150.0
    spectrum = np.zeros(91)
    spectrum[30] = 2.0
    spectrum[60] = 1.5
    for name, order in (("reversed", slice(None, None, -1)), ("swapped", np.r_[1, 0, 2:91])):
        src = tmp_path / f"{name}.csv"
        dst = tmp_path / f"{name}_peaks.csv"
        _write_sweep(src, axis[order], spectrum[order])
        assert cli.main(["detect", "--spectrum", str(src), "--out", str(dst)]) == 1
        assert capsys.readouterr().err == "error: NAF axis must be strictly increasing\n"
        assert not dst.exists()


def test_detect_max_peaks_flag(tmp_path):
    src = tmp_path / "spectrum.csv"
    dst = tmp_path / "one.csv"
    _two_peak_spectrum(src)
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


def _omp_spectrum(directory, scale_exponent):
    """reconstruct --method omp on the 9-beam sweep 1/(1 + k^2) at NAFs k/15,
    scaled by 2**scale_exponent; the dense values, with no stderr or warning."""
    k = np.arange(-4, 5)
    src, dst = directory / f"sweep_{scale_exponent}.csv", directory / f"omp_{scale_exponent}.csv"
    _write_sweep(src, k / 15, np.ldexp(1.0 / (1 + k * k), scale_exponent))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["reconstruct", "--sweep", str(src), "--method", "omp",
                             "--out", str(dst)]) == 0
    assert err.getvalue() == ""
    return np.array([float(r["value"]) for r in _read_rows(dst)])


@settings(max_examples=20, deadline=None)
@given(m=st.integers(-1000, 1000))
@example(m=-1000)
@example(m=-560)
@example(m=500)
@example(m=1000)
def test_reconstruct_omp_scales_exactly_by_any_power_of_two(tmp_path_factory, m):
    # OMP runs on the sweep brought into [0.5, 1) by a power of two, so a
    # sweep times 2**m gives the spectrum times 2**m, bit for bit, where
    # norms once overflowed or underflowed into an all-zero spectrum
    directory = tmp_path_factory.mktemp("omp_scale")
    base = _omp_spectrum(directory, 0)
    assert np.count_nonzero(base) == 4
    assert _omp_spectrum(directory, m).tolist() == np.ldexp(base, m).tolist()


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


def test_factor_past_the_grid_limit_exits_one(tmp_path, capsys):
    # refused before any grid is allocated: one line naming the factor and
    # the point count, no traceback, no output
    mg = minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0)))
    src = tmp_path / "sweep.csv"
    dst = tmp_path / "dense.csv"
    _write_sweep(src, mg, np.ones(mg.size))
    for factor in (10**12, 10**20, 10**400):
        rc = cli.main(
            ["reconstruct", "--sweep", str(src), "--method", "spline",
             "--factor", str(factor), "--out", str(dst)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: factor {factor} gives a grid of ")
        assert err.endswith(" points, more than the 1000000 allowed\n")
        assert err.count("\n") == 1
    assert not dst.exists()
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "eval"
    # evaluate refuses such a factor sooner, by the settings cap
    cfg.write_text(json.dumps({"oversampling_factor": 10**12}))
    assert cli.main(["evaluate", "--config", str(cfg), "--seeds", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: oversampling_factor (1000000000000) must not exceed 50\n"
    assert not out.exists()


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
    assert not (out / "octahedral_far_dft.csv").exists()  # the .ramp is the only map file
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


def test_repeated_method_exits_one(tmp_path, capsys):
    rc = cli.main(["evaluate", "--scenarios", "octahedral_far", "--methods", "dft,dft",
                   "--seeds", "1", "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: method names must be unique; repeated: ['dft']\n"
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


def test_seed_env_var_is_ignored_by_commands_without_a_seed(tmp_path, monkeypatch):
    # only evaluate takes a master seed; detect and reconstruct never parse the variable
    monkeypatch.setenv(cli.SEED_ENV_VAR, "tuesday")
    mg = minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0)))
    sweep, dense, peaks = (tmp_path / n for n in ("sweep.csv", "dense.csv", "peaks.csv"))
    _write_sweep(sweep, mg, 1.0 / (1.0 + mg**2))
    assert cli.main(
        ["reconstruct", "--sweep", str(sweep), "--method", "dft", "--out", str(dense)]
    ) == 0
    assert cli.main(["detect", "--spectrum", str(dense), "--out", str(peaks)]) == 0


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


@pytest.mark.parametrize("flag, bad", [("--scenarios", "unknown scenarios ['']"),
                                       ("--methods", "unknown method ''")])
def test_empty_list_value_exits_one(tmp_path, capsys, flag, bad):
    # an empty list names one empty name; it does not stand for "all"
    rc = cli.main(["evaluate", "--seeds", "1", flag, "", "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and err.count("\n") == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["reconstruct", "detect", "evaluate"])
def test_unwritable_output_exits_one(tmp_path, capsys, command):
    sweep = tmp_path / "sweep.csv"
    _write_sweep(sweep, minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0))), np.ones(9))
    missing = tmp_path / "missing" / "out.csv"
    argv, path = {
        "reconstruct": (["--sweep", str(sweep), "--method", "dft", "--out", str(missing)], missing),
        "detect": (["--spectrum", str(sweep), "--out", str(missing)], missing),
        # an output directory that is an existing file
        "evaluate": (["--scenarios", "octahedral_far", "--seeds", "1", "--out", str(sweep)], sweep),
    }[command]
    assert cli.main([command] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.endswith(f": {path}\n") and err.count("\n") == 1
    assert not missing.parent.exists()


def _file_command(tmp_path, command):
    """argv for reconstruct (a 9-beam dft sweep) or detect (a two-peak
    spectrum), up to --out, then the flags of a longer and a shorter output."""
    src = tmp_path / "in.csv"
    if command == "reconstruct":
        _write_sweep(src, minimal_naf_grid(8, 0.5 * np.sin(np.radians(33.0))), np.ones(9))
        argv = ["reconstruct", "--sweep", str(src), "--method", "dft"]
        return argv, ["--factor", "20"], ["--factor", "10"]
    _two_peak_spectrum(src)
    return ["detect", "--spectrum", str(src)], ["--max-peaks", "2"], ["--max-peaks", "1"]


@pytest.mark.parametrize("command", ["reconstruct", "detect"])
def test_shorter_output_overwrites_in_place(tmp_path, command):
    # the second run writes fewer bytes into the first run's file: it gives
    # the bytes of a fresh write, in the same file with the same mode
    base, longer, shorter = _file_command(tmp_path, command)
    out, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
    assert cli.main(base + longer + ["--out", str(out)]) == 0
    os.chmod(out, 0o640)
    before = os.stat(out)
    assert cli.main(base + shorter + ["--out", str(out)]) == 0
    assert cli.main(base + shorter + ["--out", str(fresh)]) == 0
    after = os.stat(out)
    assert 0 < after.st_size < before.st_size
    assert out.read_bytes() == fresh.read_bytes()
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    # a new file gets the mode open(path, "w") gives: 0o666 less the umask
    probe = tmp_path / "probe"
    probe.touch()
    assert fresh.stat().st_mode == probe.stat().st_mode


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null on this platform")
@pytest.mark.parametrize("command", ["reconstruct", "detect"])
def test_output_to_dev_null_exits_zero(tmp_path, command):
    argv, _, _ = _file_command(tmp_path, command)
    assert cli.main(argv + ["--out", "/dev/null"]) == 0


def test_evaluate_over_an_earlier_output_gives_the_fresh_files(tmp_path):
    # 2 seeds, then 1 seed into the same directory: every file is the one a
    # fresh 1-seed directory gets, though peaks.csv and the reports shrink
    over, fresh = tmp_path / "over", tmp_path / "fresh"
    argv = ["evaluate", "--scenarios", "octahedral_far,wall_far", "--out"]
    assert cli.main(argv + [str(over), "--seeds", "2"]) == 0
    sizes = {p.name: p.stat().st_size for p in over.iterdir()}
    assert cli.main(argv + [str(over), "--seeds", "1"]) == 0
    assert cli.main(argv + [str(fresh), "--seeds", "1"]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in over.iterdir()) == names
    assert (fresh / "peaks.csv").stat().st_size < sizes["peaks.csv"]
    for name in names:
        assert (over / name).read_bytes() == (fresh / name).read_bytes(), name


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

    # nesting beyond the interpreter's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    assert cli.main(base + ["--config", str(deep)]) == 1
    assert capsys.readouterr().err == f"error: config file {deep} nests too deeply\n"

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
    # at -3000 dB the noise power is finite but its sum over the symbols is not
    for value in (1e308, -1e308, 4000.0, -3000.0, float("-inf"), float("nan")):
        path.write_text(json.dumps({"snr_db": value}))
        for extra in (["--snr-db=" + repr(value)], ["--config", str(path)]):
            assert cli.main(base + extra) == 1
            err = capsys.readouterr().err
            assert "snr_db" in err and err.count("\n") == 1
            assert "internal error" not in err
    assert not (tmp_path / "x").exists()


def test_window_power_overflow_exits_one(tmp_path, capsys):
    # 10**200 symbols at 3000 dB: the noise power passes its check, but the
    # signal's window-bin power overflows; one line, no numpy warning
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"radio": {"n_symbols": 10**200}}))
    out = tmp_path / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["evaluate", "--config", str(path), "--snr-db=3000",
                         "--seeds", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: window-bin power overflows the float range\n"
    assert not out.exists()


def test_symbol_counts_near_the_power_overflow_keep_the_nafs_or_exit_one(tmp_path, capsys):
    # 14 * 2**k symbols scale every bin by 2**k and every power by 4**k, so a
    # run either gives the 14-symbol NAFs or is refused with one line, no
    # numpy warning and no --out: at k = 500 and 501 a CFAR training sum or a
    # dwell mean of powers overflows, at k = 502 the noise power does
    def run(name, config):
        cfg, out = tmp_path / f"{name}.json", tmp_path / name
        cfg.write_text(json.dumps(config))
        argv = ["evaluate", "--config", str(cfg), "--scenarios", "octahedral_far,wall_far",
                "--seeds", "1", "--out", str(out)]
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            code = cli.main(argv)
        err = capsys.readouterr().err
        if code:
            assert code == 1 and err.count("\n") == 1 and err.startswith("error: ")
            assert not out.exists()
            return None
        assert err == ""
        return [list(row.values())[:5] for row in _read_rows(out / "peaks.csv")]

    outcomes = set()
    for dwell in (1, 6):
        want = run(f"base_{dwell}", {"dwell_frames": dwell})
        for k in range(499, 503):
            got = run(f"k{k}_{dwell}", {"radio": {"n_symbols": 14 * 2**k}, "dwell_frames": dwell})
            assert got is None or got == want
            outcomes.add((k, got is None))
    assert outcomes == {(499, False), (500, True), (501, True), (502, True)}


def test_range_fft_past_2_31_bins_exits_one(tmp_path, capsys):
    # a window or spacing whose FFT size divides by zero (5e-324 m), is
    # infinite (1e-300 and 5e-324 Hz) or passes int64 (1e-15 m, 1e-200 Hz)
    # is refused with one line by every command that reads the config, as
    # is the first window past the 2**31-bin edge
    edge = 2.4430304835550487e-05  # 42 bins at 120 kHz: exactly 2**31 FFT bins
    spectrum, cfg, out = tmp_path / "sp.csv", tmp_path / "cfg.json", tmp_path / "x"
    _write_sweep(spectrum, np.arange(-4, 5) / 15.0, 1.0 / (1 + np.arange(-4, 5) ** 2))
    evaluate = ["evaluate", "--config", str(cfg), "--scenarios", "octahedral_far",
                "--methods", "dft", "--seeds", "1", "--out", str(out)]
    detect = ["detect", "--config", str(cfg), "--spectrum", str(spectrum), "--out", str(out)]
    for radio in (
        {"range_window_m": [0.0, 5e-324]},
        {"range_window_m": [0.0, 1e-15]},
        {"range_window_m": [0.0, math.nextafter(edge, 0.0)]},
        {"subcarrier_spacing_hz": 1e-300},
        {"subcarrier_spacing_hz": 5e-324},
        {"subcarrier_spacing_hz": 1e-200},
    ):
        cfg.write_text(json.dumps({"radio": radio}))
        for argv in (evaluate, detect):
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == (
                "error: range window/bin combination requires more than 2**31 FFT bins\n"
            )
            assert not out.exists()
    cfg.write_text(json.dumps({"radio": {"range_window_m": [0.0, edge]}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(evaluate) == 0
    assert (out / "report.json").exists()


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


def _scalar_keys(schema, where=""):
    """(key path, value kind) of every value that a config file can set."""
    for key, (_, rule) in schema.items():
        path = f"{where}.{key}" if where else key
        if isinstance(rule, dict):
            yield from _scalar_keys(rule, path)
        elif dataclasses.is_dataclass(rule):
            yield from _scalar_keys(cli._schema(rule), path)
        else:
            yield path, rule[2]


_CONFIG_KEYS = dict(_scalar_keys(cli._schema(EvalSettings)))

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])

# JSON values of another kind than each of cli._RULES's value kinds takes
_WRONG_KIND = {
    int: st.one_of(st.booleans(), st.text(max_size=3), st.none(), st.floats(),
                   st.lists(st.integers(), max_size=2)),
    float: st.one_of(st.booleans(), st.text(max_size=3), st.none(), _NON_FINITE,
                     st.integers(2**1024, 2**1100), st.lists(st.floats(0, 1), max_size=2)),
    bool: st.one_of(st.integers(), st.text(max_size=3), st.none(), st.floats()),
    str: st.one_of(st.integers(), st.booleans(), st.none(), st.floats()),
    tuple: st.one_of(
        st.text(max_size=3), st.none(), st.booleans(), st.floats(),
        st.lists(st.floats(0, 25), max_size=4).filter(lambda v: len(v) != 2),
        st.tuples(st.floats(0, 25), st.one_of(_NON_FINITE, st.booleans(), st.none())).map(list),
    ),
}


def test_config_keys_cover_every_rule():
    assert {kind for _, _, kind in cli._RULES.values()} == set(_WRONG_KIND)
    assert set(_CONFIG_KEYS.values()) == set(_WRONG_KIND)
    assert {"seed", "array.n_tx", "radio.range_window_m", "cfar.p_fa", "snr_db"} <= set(_CONFIG_KEYS)


@pytest.mark.parametrize("path", sorted(_CONFIG_KEYS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_config_value_of_wrong_kind_exits_one(tmp_path_factory, path, data):
    value = data.draw(_WRONG_KIND[_CONFIG_KEYS[path]], label="value")
    cfg = value
    for key in reversed(path.split(".")):
        cfg = {key: cfg}
    work = tmp_path_factory.mktemp("cfg")
    (work / "cfg.json").write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["evaluate", "--config", str(work / "cfg.json"), "--out", str(work / "x")])
    assert code == 1
    assert err.getvalue().startswith(f"error: {path!r} must be ")
    assert err.getvalue().count("\n") == 1
    assert not (work / "x").exists()


# edge values of each of cli._RULES's value kinds: zero, tiny, huge and
# negative values, and every settings cap with its neighbours
_CAPS = (*harness._CAPS.values(), *ofdm._CAPS.values())
_FLOAT_EDGES = [0.0, -0.0, 5e-324, 1e-300, 0.5, 1e300, -1.0, -1e300]
_EDGES = {
    int: sorted({0, 1, -1, 2**31, 2**63} | {c + d for c in _CAPS for d in (-1, 0, 1)}),
    float: _FLOAT_EDGES,
    bool: [False, True],
    str: ["matched", "flat", ""],
    tuple: [list(pair) for pair in itertools.product(_FLOAT_EDGES, repeat=2)],
}


def _nested(values: dict) -> dict:
    """A config object from {key path: value}."""
    cfg = {}
    for path, value in values.items():
        *sections, key = path.split(".")
        inner = cfg
        for section in sections:
            inner = inner.setdefault(section, {})
        inner[key] = value
    return cfg


# 1 to 3 keys of cli._schema(EvalSettings), each set to an edge value of its kind
_EDGE_CONFIGS = st.lists(
    st.sampled_from(sorted(_CONFIG_KEYS)), min_size=1, max_size=3, unique=True
).flatmap(lambda paths: st.tuples(
    *(st.sampled_from(_EDGES[_CONFIG_KEYS[p]]) for p in paths)
).map(lambda values: _nested(dict(zip(paths, values)))))


@settings(max_examples=120, deadline=None, database=None)
@given(cfg=_EDGE_CONFIGS)
# arrays that once ended in a numpy traceback: geometry() allocated their
# element positions before any check ran
@example(cfg={"array": {"n_tx": 2 * 10**8, "n_rx": 2 * 10**8}})
@example(cfg={"array": {"n_tx": 2**31, "n_rx": 2**31}})
@example(cfg={"array": {"n_tx": 2**63, "n_rx": 2**63}})
@example(cfg={"array": {"n_tx": 10**30, "n_rx": 10**30}})
def _every_config_builds_or_is_refused(cfg):
    Path("cfg.json").write_text(json.dumps(cfg))
    try:
        built, _ = cli._build_settings(Namespace(config="cfg.json"))
        campaign = harness._build_campaign(built, harness.METHODS)
        for scenario in harness.scenario_catalog():
            if built.snr_db is not None:
                scenario = dataclasses.replace(scenario, snr_db=built.snr_db)
            harness.build_scene(scenario, built.radio, campaign.geom, built.include_rear_wall)
    except ConfigError:
        pass


# Runs the property above in a fresh interpreter whose address space may
# grow 1 GiB past its size after the imports: a setting that slips past
# every bound fails at once with MemoryError instead of paging the host.
_BOUNDED_CHILD = """
import resource
import test_cli
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + 2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))
test_cli._every_config_builds_or_is_refused()
"""


def test_every_config_key_builds_or_is_refused_in_bounded_memory(tmp_path):
    if not Path("/proc/self/status").is_file():
        pytest.skip("no /proc/self/status to read the address-space size from")
    src = Path(harness.__file__).resolve().parents[1]
    path = [str(src), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", _BOUNDED_CHILD], capture_output=True, text=True,
        timeout=300, cwd=tmp_path, env=env,
    )
    assert done.returncode == 0, done.stderr[-4000:]


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


@pytest.mark.parametrize("flag", ["--spectrum", "--sweep", "--config"])
def test_undecodable_input_file_exits_one(tmp_path, capsys, flag):
    good = tmp_path / "good.csv"
    _write_sweep(good, [0.0], [1.0])
    bad = tmp_path / "bad"
    bad.write_bytes(b"naf,value\n0.0,1.0\xff\n")
    out = tmp_path / "o.csv"
    argv = {
        "--spectrum": ["detect", "--spectrum", str(bad)],
        "--sweep": ["reconstruct", "--sweep", str(bad), "--method", "dft"],
        "--config": ["detect", "--spectrum", str(good), "--config", str(bad)],
    }[flag]
    assert cli.main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"{bad} is not UTF-8 text\n") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("row", ["0.1,abc", "0.1"])
def test_non_numeric_or_missing_csv_cell_names_its_row(tmp_path, capsys, row):
    src = tmp_path / "spectrum.csv"
    src.write_text(f"naf,value\n0.0,1.0\n{row}\n")
    out = tmp_path / "peaks.csv"
    assert cli.main(["detect", "--spectrum", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {src} data row 2 is not a number\n"
    assert not out.exists()


def test_sweep_file_errors(tmp_path, capsys):
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
    assert capsys.readouterr().err.endswith("must have 'naf' and 'value' columns\n")

    # a cell beyond the csv module's field size limit
    huge = tmp_path / "huge.csv"
    huge.write_text("naf,value\n0.0," + "1" * 200_000 + "\n")
    rc = cli.main(["reconstruct", "--sweep", str(huge), "--method", "dft", "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {huge} is not a valid CSV: ") and err.count("\n") == 1


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


def _sweep_text(lines, end="\n"):
    return "".join(line + end for line in lines)


def _dense_bytes(tmp_path, text, name="sweep.csv"):
    """reconstruct --method dft on a sweep file holding text; the dense bytes."""
    src = tmp_path / name
    src.write_bytes(text.encode())
    dst = tmp_path / f"{name}.dense"
    assert cli.main(["reconstruct", "--sweep", str(src), "--method", "dft", "--out", str(dst)]) == 0
    return dst.read_bytes()


_SWEEP_ROWS = [f"{k / 15!r},{1.0 / (1 + k * k)!r}" for k in range(-4, 5)]


def test_csv_leading_blank_line_is_read_as_the_header(tmp_path, capsys):
    src = tmp_path / "spectrum.csv"
    src.write_text(_sweep_text(["", "naf,value"] + _SWEEP_ROWS))
    out = tmp_path / "peaks.csv"
    assert cli.main(["detect", "--spectrum", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {src} must have 'naf' and 'value' columns\n"
    assert not out.exists()


def test_csv_blank_data_rows_are_skipped_and_not_numbered(tmp_path, capsys):
    plain = _dense_bytes(tmp_path, _sweep_text(["naf,value"] + _SWEEP_ROWS))
    rows = _SWEEP_ROWS[:3] + [""] + _SWEEP_ROWS[3:] + [""]
    assert _dense_bytes(tmp_path, _sweep_text(["naf,value"] + rows), "blank.csv") == plain
    src = tmp_path / "spectrum.csv"
    src.write_text(_sweep_text(["naf,value", "0.0,1.0", "", "", "0.1,abc"]))
    out = tmp_path / "peaks.csv"
    assert cli.main(["detect", "--spectrum", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {src} data row 2 is not a number\n"


def test_csv_repeated_column_reads_the_last(tmp_path, capsys):
    plain = _dense_bytes(tmp_path, _sweep_text(["naf,value"] + _SWEEP_ROWS))
    rows = ["junk," + row.split(",")[1] + "," + row.split(",")[0] for row in _SWEEP_ROWS]
    assert _dense_bytes(tmp_path, _sweep_text(["naf,value,naf"] + rows), "twice.csv") == plain
    # a row too short to reach the last naf column has no naf cell
    src = tmp_path / "short.csv"
    src.write_text(_sweep_text(["naf,value,naf", "0.0,1.0"]))
    out = tmp_path / "peaks.csv"
    assert cli.main(["detect", "--spectrum", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {src} data row 1 is not a number\n"


def test_csv_one_cell_row_is_not_a_number(tmp_path, capsys):
    src = tmp_path / "spectrum.csv"
    src.write_text(_sweep_text(["naf,value", "0.0", "0.1,1.0"]))
    out = tmp_path / "peaks.csv"
    assert cli.main(["detect", "--spectrum", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {src} data row 1 is not a number\n"
    assert not out.exists()


def test_csv_extra_cells_are_ignored(tmp_path):
    plain = _dense_bytes(tmp_path, _sweep_text(["naf,value"] + _SWEEP_ROWS))
    rows = [row + ",extra,9" for row in _SWEEP_ROWS]
    assert _dense_bytes(tmp_path, _sweep_text(["naf,value,note"] + rows), "extra.csv") == plain
    assert _dense_bytes(tmp_path, _sweep_text(["naf,value"] + rows), "unnamed.csv") == plain


def test_csv_crlf_line_ends_and_quoted_cells_parse(tmp_path):
    plain = _dense_bytes(tmp_path, _sweep_text(["naf,value"] + _SWEEP_ROWS))
    crlf = _sweep_text(["naf,value"] + _SWEEP_ROWS, end="\r\n")
    assert _dense_bytes(tmp_path, crlf, "crlf.csv") == plain
    quoted = ['"naf","value"'] + ['"{}","{}"'.format(*row.split(",")) for row in _SWEEP_ROWS]
    assert _dense_bytes(tmp_path, _sweep_text(quoted, end="\r\n"), "quoted.csv") == plain


def test_reconstruct_omp_builds_its_dictionary_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, _real=harness.build_dictionary):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(harness, "build_dictionary", counted)
    harness._dictionary.cache_clear()
    src = tmp_path / "sweep.csv"
    src.write_text(_sweep_text(["naf,value"] + _SWEEP_ROWS))
    outputs = []
    for name in ("first.csv", "second.csv"):
        dst = tmp_path / name
        argv = ["reconstruct", "--sweep", str(src), "--method", "omp", "--out", str(dst)]
        assert cli.main(argv) == 0
        outputs.append(dst.read_bytes())
    assert len(calls) == 1
    assert outputs[0] == outputs[1]
    # the cached dictionary gives the bytes of one built afresh
    harness._dictionary.cache_clear()
    assert cli.main(["reconstruct", "--sweep", str(src), "--method", "omp",
                     "--out", str(tmp_path / "fresh.csv")]) == 0
    assert (tmp_path / "fresh.csv").read_bytes() == outputs[0]


def test_evaluate_ranks_a_method_with_no_detection_last(tmp_path, capsys):
    # at -50 dB dft detects nothing: its pooled RMSE is NaN, printed last
    out = tmp_path / "eval"
    argv = ["evaluate", "--snr-db=-50", "--seeds", "1", "--scenarios", "octahedral_far,wall_far",
            "--methods", "dft,omp", "--out", str(out)]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "total pooled RMSE (NAF), best first:", "  omp          0.046395", "  dft          nan",
    ]
    report = json.loads((out / "report.json").read_text())
    assert report["ordering"]["total_pooled_rmse_ascending"] == ["omp", "dft"]


def test_report_json_writes_a_nan_score_as_null(tmp_path):
    # RFC 8259 has no NaN: report.json writes null, while the report in
    # memory keeps NaN, which total_rmse and the "best first" print read
    out = tmp_path / "eval"
    report = harness.run_comparison(
        harness.scenario_catalog()[::4], ["dft", "omp"], [1],
        EvalSettings(snr_db=-50.0), out_dir=out,
    )
    assert math.isnan(report.total_rmse("dft"))

    def refuse(constant):
        raise AssertionError(f"report.json holds {constant}")

    written = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert written["groups"]["total"]["dft"]["pooled_rmse"] is None
    assert written["groups"]["total"]["omp"] == report.data["groups"]["total"]["omp"]
    assert _read_rows(out / "report.csv")[-1] == {
        "group": "total", "target": "pooled", "dft": "nan",
        "omp": repr(report.total_rmse("omp")),
    }


@pytest.mark.parametrize("limit", [0.3333333333, 0.4666666666, 0.1333333333, 0.26666666666])
def test_evaluate_runs_a_limit_typed_just_below_a_minimal_beam(tmp_path, limit):
    # within the lattice tolerance of the beams 5/15, 7/15, 2/15 and 4/15:
    # the minimal sweep keeps the beam, and so does the oversampled one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"naf_limit": limit}))
    out = tmp_path / "eval"
    argv = ["evaluate", "--config", str(cfg), "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert (out / "report.json").is_file()


@pytest.mark.parametrize("factor", [10, 40])
def test_evaluate_runs_oversampling_factors_inside_the_budget(tmp_path, factor):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oversampling_factor": factor}))
    out = tmp_path / "eval"
    argv = ["evaluate", "--config", str(cfg), "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert (out / "report.json").is_file()


def test_array_and_factor_past_their_caps_exit_one(tmp_path, capsys, monkeypatch):
    # refused by the settings alone: no element positions, grid or
    # acquisition exists
    def refuse(*args, **kwargs):
        raise AssertionError("no acquisition may be drawn")

    monkeypatch.setattr(harness, "simulate_acquisition", refuse)
    monkeypatch.setattr(harness, "_scene_gains", refuse)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "eval"
    argv = ["evaluate", "--config", str(cfg), "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out", str(out)]
    tracemalloc.start()
    try:
        for config, message in (
            ({"oversampling_factor": 51}, "oversampling_factor (51) must not exceed 50"),
            ({"array": {"n_tx": 13, "n_rx": 13}}, "n_tx (13) must not exceed 12"),
        ):
            cfg.write_text(json.dumps(config))
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # at the caps, with the widest limit, the campaign reaches the window
    # bins, which it builds before any draw (stopped here before it
    # allocates anything)
    def reached(geom, weights, scatterers, steer):
        raise ConfigError(f"window bins of {len(steer)} beams of {geom.n_tx} elements reached")

    monkeypatch.setattr(harness, "_scene_gains", reached)
    harness._signal_window.cache_clear()
    cfg.write_text(json.dumps(
        {"array": {"n_tx": 12, "n_rx": 12}, "oversampling_factor": 50, "naf_limit": 0.5}
    ))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: window bins of 1151 beams of 12 elements reached\n"
    assert not out.exists()


# sizes whose element positions numpy could never allocate; the property
# test runs the sizes it could (2e8 and 2**31 elements) in bounded memory
@pytest.mark.parametrize("n", [2**63, 10**30])
@pytest.mark.parametrize("command", [
    ["evaluate", "--scenarios", "wall_near", "--methods", "dft", "--seeds", "1"],
    ["reconstruct", "--method", "omp", "--sweep", "sweep.csv"],
    ["detect", "--spectrum", "sweep.csv"],
])
def test_every_config_command_refuses_an_array_past_its_cap(tmp_path, capsys, n, command):
    # detect reads only the array's resolution, and once ran with any size
    _write_sweep(tmp_path / "sweep.csv", np.arange(-4, 5) / 15.0, np.ones(9))
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"array": {"n_tx": n, "n_rx": n}}))
    argv = [arg.replace("sweep.csv", str(tmp_path / "sweep.csv")) for arg in command]
    assert cli.main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: n_tx ({n}) must not exceed 12\n"
    assert not out.exists()


def test_radio_counts_past_their_caps_exit_one(tmp_path, capsys, monkeypatch):
    # refused by the radio config alone: no window IDFT is built and no
    # acquisition is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("no window basis may be built")

    for name in ("_window_idft", "simulate_acquisition", "_scene_gains"):
        monkeypatch.setattr(harness, name, refuse)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "eval"
    argv = ["evaluate", "--config", str(cfg), "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out", str(out)]
    tracemalloc.start()
    try:
        for radio, message in (
            ({"n_subcarriers": 3301}, "n_subcarriers (3301) must not exceed 3300"),
            ({"n_range_bins": 129}, "n_range_bins (129) must not exceed 128"),
            ({"n_subcarriers": 20000, "n_range_bins": 20000},
             "n_subcarriers (20000) must not exceed 3300"),
        ):
            cfg.write_text(json.dumps({"radio": radio}))
            assert cli.main(argv) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # at both caps the campaign reaches the window IDFT (stopped here
    # before it allocates anything)
    def reached(radio):
        raise ConfigError(f"window IDFT of {radio.n_subcarriers} x {radio.n_range_bins} reached")

    monkeypatch.setattr(harness, "_window_idft", reached)
    cfg.write_text(json.dumps({"radio": {"n_subcarriers": 3300, "n_range_bins": 128}}))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: window IDFT of 3300 x 128 reached\n"
    assert not out.exists()


def test_outcome_tables_over_the_memory_budget_exit_one(tmp_path, capsys):
    # refused from the seed count alone: no seed list and no table exists
    out = tmp_path / "eval"
    argv = ["evaluate", "--seeds", "300000000", "--out", str(out)]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # 8 scenarios x (4 methods x 5 slots x 24 B + 2 targets x 16 B) per seed,
    # and 8 x (3 maps x 81 beams x 42 range bins + 9 beams) x 8 B once
    assert capsys.readouterr().err == (
        "error: 300000000 seeds of 8 scenarios give outcome tables of 1228800653760 "
        "bytes, more than the 268435456 allowed\n"
    )
    assert not out.exists()
    # a table is as wide as the running methods' peaks can be, at most one
    # per grid point, so a large OMP atom count alone runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omp": {"max_atoms": 10**9}}))
    for methods in ("omp", "dft"):
        argv = ["evaluate", "--config", str(cfg), "--seeds", "1", "--scenarios",
                "octahedral_far", "--methods", methods, "--out", str(out / methods)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0


def test_ground_truth_frames_past_one_draw_chunk_exit_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ground_truth_frames": 649}))
    out = tmp_path / "eval"
    argv = ["evaluate", "--config", str(cfg), "--seeds", "1", "--scenarios", "octahedral_far",
            "--methods", "dft", "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "error: ground_truth_frames (649) must not exceed 648\n"
    )
    assert not out.exists()


def test_omp_dictionary_over_the_memory_budget_exits_one(tmp_path, capsys, monkeypatch):
    # refused from the candidate count alone: no dictionary is built
    def refuse(*args, **kwargs):
        raise AssertionError("no dictionary may be built")

    monkeypatch.setattr(harness, "build_dictionary", refuse)
    harness._dictionary.cache_clear()
    src, dst = tmp_path / "sweep.csv", tmp_path / "omp.csv"
    _write_sweep(src, np.arange(-4, 5) / 15.0, 1.0 / (1 + np.arange(-4, 5) ** 2))
    argv = ["reconstruct", "--sweep", str(src), "--method", "omp", "--out", str(dst)]
    assert cli.main(argv + ["--factor", "100000"]) == 1
    # 16 B x 9 beams x 800,001 candidates x (8 TX + 8 RX) phasors
    assert capsys.readouterr().err == (
        "error: 9 beams and 800001 OMP candidates give a dictionary build of "
        "1843202304 bytes, more than the 268435456 allowed\n"
    )
    assert not dst.exists()
    # at the edge: 14,563 reaches the build (stopped here before it allocates
    # anything), 14,564 does not
    def reached(geom, weights, beams, candidates, kind):
        raise ConfigError(f"build of {len(candidates)} candidates reached")

    monkeypatch.setattr(harness, "build_dictionary", reached)
    assert cli.main(argv + ["--factor", "14563"]) == 1
    assert capsys.readouterr().err == "error: build of 116505 candidates reached\n"
    assert cli.main(argv + ["--factor", "14564"]) == 1
    assert "9 beams and 116513 OMP candidates" in capsys.readouterr().err
    assert not dst.exists()
