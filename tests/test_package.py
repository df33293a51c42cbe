"""Package surface: every exported name exists, and scipy stays unloaded
until a spline is fitted."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import beamsweep
from beamsweep import cli


def test_every_all_entry_resolves():
    modules = [
        importlib.import_module(f"beamsweep.{info.name}")
        for info in pkgutil.iter_modules(beamsweep.__path__)
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert exporting
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace)


# Runs in a fresh interpreter: records the scipy modules loaded after
# `import beamsweep` and after each cli.main call given as JSON in argv[1],
# and writes the record as JSON to the path in argv[2].
_COLD_RUN = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import beamsweep
from beamsweep import cli

loaded = [["import beamsweep", scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
    loaded.append([" ".join(argv[:3]), scipy_modules()])
with open(sys.argv[2], "w") as fh:
    json.dump(loaded, fh)
"""


def test_scipy_is_loaded_only_to_fit_a_spline(tmp_path, monkeypatch):
    sweep = tmp_path / "sweep.csv"
    with open(sweep, "w") as fh:
        fh.write("naf,value\n")
        for k in range(-4, 5):  # the 9-beam minimal lattice k/15
            fh.write(f"{k / 15!r},{1.0 / (1 + k * k)!r}\n")
    reconstruct = ["reconstruct", "--sweep", str(sweep), "--method"]
    runs = [
        ["catalog"],
        reconstruct + ["dft", "--out", str(tmp_path / "dft.csv")],
        ["detect", "--spectrum", str(tmp_path / "dft.csv"), "--out", str(tmp_path / "p.csv")],
        reconstruct + ["omp", "--out", str(tmp_path / "omp.csv")],
        ["evaluate", "--seeds", "1", "--scenarios", "octahedral_far",
         "--methods", "oversampled,dft,omp", "--out", str(tmp_path / "eval")],
        reconstruct + ["spline", "--out", str(tmp_path / "cold_spline.csv")],
    ]
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    src = str(Path(beamsweep.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(path))
    record = tmp_path / "loaded.json"
    subprocess.run(
        [sys.executable, "-c", _COLD_RUN, json.dumps(runs), str(record)],
        check=True, capture_output=True, timeout=300,
    )
    loaded = json.loads(record.read_text())
    for step, modules in loaded[:-1]:
        assert modules == [], f"{step} loaded {modules}"
    assert "scipy.interpolate" in loaded[-1][1]
    # the fresh process's spline fit writes the bytes of an in-process one
    assert cli.main(reconstruct + ["spline", "--out", str(tmp_path / "warm_spline.csv")]) == 0
    cold, warm = (tmp_path / f"{kind}_spline.csv" for kind in ("cold", "warm"))
    assert cold.read_bytes() == warm.read_bytes()
