"""Package surface: every exported name exists, no command needs scipy, and
one function writes every output file."""
import ast
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


def _open_mode(call: ast.Call):
    """The mode an open(path, ...) or path.open(...) call passes, "r" when none."""
    positional = 1 if isinstance(call.func, ast.Name) else 0
    if len(call.args) > positional:
        return call.args[positional]
    return next((k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))


def test_one_function_writes_every_file():
    # ofdm._write_bytes is the only writer: no open( call in the package uses
    # a mode that writes, none calls Path.write_text or write_bytes, and the
    # one os.open call is the writer's own
    os_opens = []
    for path in sorted(Path(beamsweep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = {f.name: (f.lineno, f.end_lineno) for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef)}
        for call in (c for c in ast.walk(tree) if isinstance(c, ast.Call)):
            where = f"{path.name}:{call.lineno}"
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if ast.unparse(call.func) == "os.open":
                lo, hi = spans.get("_write_bytes", (0, -1))
                os_opens.append((path.name, lo <= call.lineno <= hi))
            elif name == "open":
                mode = _open_mode(call)
                assert isinstance(mode, ast.Constant), f"{where}: open mode is not a literal"
                assert not set(mode.value) & set("wax+"), f"{where}: open(..., {mode.value!r})"
            else:
                assert name not in ("write_text", "write_bytes"), f"{where}: {name}"
    assert os_opens == [("ofdm.py", True)]


# Runs in a fresh interpreter in which any scipy import fails: runs each
# cli.main call given as JSON in argv[1], then checks that no scipy module
# was loaded on the way.
_NO_SCIPY_RUN = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is refused", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
from beamsweep import cli

for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
"""


def test_every_command_runs_without_scipy(tmp_path, monkeypatch):
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
        reconstruct + ["spline", "--out", str(tmp_path / "cold_spline.csv")],
        ["evaluate", "--seeds", "1", "--scenarios", "octahedral_far",
         "--methods", "oversampled,dft,spline,omp", "--out", str(tmp_path / "eval")],
    ]
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    src = str(Path(beamsweep.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, json.dumps(runs)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "eval" / "octahedral_far_spline.ramp").is_file()
    # the fresh process's spline fit writes the bytes of an in-process one
    assert cli.main(reconstruct + ["spline", "--out", str(tmp_path / "warm_spline.csv")]) == 0
    cold, warm = (tmp_path / f"{kind}_spline.csv" for kind in ("cold", "warm"))
    assert cold.read_bytes() == warm.read_bytes()
