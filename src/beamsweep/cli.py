"""Command-line front end: catalog, reconstruct, detect, evaluate.

Each command takes only the flags it reads: reconstruct, detect and evaluate
take --config, evaluate also --seed and --snr-db, and reconstruct and
evaluate --dictionary. Exit codes: 0 on success, 1 for configuration/input
problems (including bad command lines and output paths that cannot be
written), 2 for internal contract violations.
The BEAMSWEEP_SEED environment variable overrides evaluate's master seed
from any other source; the other commands take no seed and ignore it.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import typing

import numpy as np

from .beams import DICTIONARY_KINDS
from .detection import extract_peaks
from .errors import ConfigError, ContractViolation
from .geometry import naf_resolution
from .harness import EvalSettings, METHODS, _dictionary, _write_spectrum_csv, run_comparison
from .ofdm import _write_bytes
from .omp import omp
from .reconstruct import (
    AngularSweep,
    SweepPlan,
    _infer_order,
    dft_interpolate,
    oversampled_sweep_plan,
    spline_interpolate,
)
from .scenarios import scenario_catalog

SEED_ENV_VAR = "BEAMSWEEP_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # route usage problems to exit code 1 instead of argparse's 2
        if message.endswith("expected one argument"):
            # before Python 3.13 argparse takes a negative number in exponent
            # form, such as "--snr-db -1e308", for an option, not a value
            flag = message.split(":")[0].split()[-1]
            message += f" (give a value starting with '-' as {flag}=VALUE)"
        raise ConfigError(message)


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config file {path} nests too deeply") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _is_finite(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


# field annotation -> (check of the JSON value, its wording, the value's Python type);
# a JSON bool is neither an int nor a number here
_RULES = {
    int: (lambda v: type(v) is int, "an integer", int),
    float: (_is_finite, "a finite number", float),
    typing.Optional[float]: (_is_finite, "a finite number", float),  # null stays rejected
    bool: (lambda v: type(v) is bool, "true or false", bool),
    str: (lambda v: type(v) is str, "a string", str),
    typing.Tuple[float, float]: (
        lambda v: type(v) is list and len(v) == 2 and all(map(_is_finite, v)),
        "a list of 2 finite numbers",
        tuple,
    ),
}


@functools.cache
def _schema(cls) -> dict:
    """Config key -> (field name, rule) for a config dataclass, derived from
    its field annotations. A rule is a _RULES entry, a dataclass for a nested
    section, or a dict for an object whose keys are fields of cls itself.

    The file layout differs from EvalSettings in three keys: n_tx and n_rx
    sit in an "array" object, dictionary_kind is written "dictionary", and
    "seed" is the master seed, which run_comparison takes beside the settings.
    """
    schema = {
        name: (name, hint if dataclasses.is_dataclass(hint) else _RULES[hint])
        for name, hint in typing.get_type_hints(cls).items()
    }
    if cls is EvalSettings:
        schema["array"] = (None, {key: schema.pop(key) for key in ("n_tx", "n_rx")})
        schema["dictionary"] = schema.pop("dictionary_kind")
        schema["seed"] = ("seed", _RULES[int])
    return schema


def _checked(values, schema: dict, where: str = "") -> dict:
    """Field name -> value for one config object, every value checked
    against its rule; a ConfigError names the offending key."""
    if not isinstance(values, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    unknown = sorted(set(values).difference(schema))
    if unknown:
        inside = f" in {where!r}" if where else ""
        raise ConfigError(f"unknown config keys {unknown}{inside}; allowed: {sorted(schema)}")
    fields = {}
    for key, value in values.items():
        name, rule = schema[key]
        path = f"{where}.{key}" if where else key
        if isinstance(rule, dict):  # the array object
            fields.update(_checked(value, rule, path))
        elif dataclasses.is_dataclass(rule):  # a nested section
            fields[name] = rule(**_checked(value, _schema(rule), path))
        else:
            check, wording, kind = rule
            if not check(value):
                raise ConfigError(f"{path!r} must be {wording}, not {json.dumps(value)}")
            fields[name] = kind(value)
    return fields


def _build_settings(args) -> typing.Tuple[EvalSettings, int]:
    """The settings and master seed of a config-reading command.

    Precedence is BEAMSWEEP_SEED > flag > config file > default: the flags
    and the variable overwrite config keys before the one check they all pass.
    Only a command with a --seed flag reads the variable.
    """
    cfg = _load_config(args.config)
    # the flags of this command that shadow a config key
    flags = {key: getattr(args, key, None) for key in ("seed", "snr_db", "dictionary")}
    cfg.update((key, value) for key, value in flags.items() if value is not None)
    env = os.environ.get(SEED_ENV_VAR) if hasattr(args, "seed") else None
    if env is not None:
        try:
            cfg["seed"] = int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    fields = _checked(cfg, _schema(EvalSettings))
    seed = fields.pop("seed", 1)
    return EvalSettings(**fields), seed


def _pick_scenarios(names) -> list:
    catalog = {s.name: s for s in scenario_catalog()}
    if not names:
        return list(catalog.values())
    missing = [n for n in names if n not in catalog]
    if missing:
        raise ConfigError(
            f"unknown scenarios {missing}; available: {sorted(catalog)}"
        )
    return [catalog[n] for n in names]


def _read_two_column_csv(path):
    """The naf and value columns of a CSV, read as csv.DictReader reads
    them: the first line is the header even when blank, later blank lines
    are skipped and not numbered, a repeated column name means its last
    column, and cells past the header are ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [row for row in reader if row]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text") from exc
    except csv.Error as exc:
        raise ConfigError(f"{path} is not a valid CSV: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path} holds no data rows")
    column = {name: i for i, name in enumerate(header)}
    if not {"naf", "value"} <= column.keys():
        raise ConfigError(f"{path} must have 'naf' and 'value' columns")
    i_naf, i_val = column["naf"], column["value"]
    naf, val = [], []
    for i, row in enumerate(rows, 1):
        try:
            naf.append(float(row[i_naf]))
            val.append(float(row[i_val]))
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"{path} data row {i} is not a number") from exc
    naf, val = np.array(naf), np.array(val)
    bad = ~(np.isfinite(naf) & np.isfinite(val))
    if bad.any():
        raise ConfigError(f"{path} data row {int(np.argmax(bad)) + 1} is not finite")
    return naf, val


def cmd_catalog(args) -> int:
    scenarios = scenario_catalog()
    if args.json:
        payload = [dataclasses.asdict(s) | {"target_nafs": list(s.target_nafs)} for s in scenarios]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{'name':<18} {'kind':<11} {'sep(NAF)':>9} {'targets(NAF)':>20} {'amp(dB)':>8}")
        for s in scenarios:
            t1, t2 = s.target_nafs
            print(
                f"{s.name:<18} {s.kind:<11} {s.separation_naf:>9.3f} "
                f"{t1:>9.4f}/{t2:<9.4f} {s.target_amplitude_db:>8.1f}"
            )
    return 0


def _status(out, line: str) -> None:
    """Print line, unless out is the file behind stdout: the line would land
    on the bytes just written there."""
    try:
        if os.path.samestat(os.stat(out), os.fstat(1)):
            return
    except OSError:
        pass
    print(line)


def cmd_reconstruct(args) -> int:
    if args.factor < 1:
        raise ConfigError("--factor must be a positive integer")
    settings, _ = _build_settings(args)
    naf, values = _read_two_column_csv(args.sweep)
    plan = SweepPlan(naf, "minimal")
    try:
        order = _infer_order(plan.beam_grid)
    except ContractViolation as exc:
        raise ConfigError(f"{args.sweep}: {exc}") from exc
    sweep = AngularSweep(plan, values)
    # the lattice refined by --factor, out to the sweep's outermost sample;
    # a single beam at NAF 0 (order 1) is its own grid
    k_max = round(max(-naf[0], naf[-1]) * order)
    dense_plan = plan
    if k_max:
        dense_plan = oversampled_sweep_plan((order + 1) // 2, k_max / order, args.factor)
    grid = dense_plan.beam_grid
    if args.method == "dft":
        dense = dft_interpolate(sweep, grid)
    elif args.method == "spline":
        dense = spline_interpolate(sweep, grid)
    else:  # omp, the last of the parser's choices
        dictionary = _dictionary(
            settings.geometry(), settings.weights(), plan, dense_plan, settings.dictionary_kind
        )
        estimate = omp(dictionary, values, settings.omp)
        dense = np.zeros(grid.size)
        dense[list(estimate.support)] = estimate.coefficients
    _write_spectrum_csv(args.out, grid, dense)
    _status(args.out, f"wrote {grid.size}-point {args.method} spectrum to {args.out}")
    return 0


def cmd_detect(args) -> int:
    settings, _ = _build_settings(args)
    naf, values = _read_two_column_csv(args.spectrum)
    resolution = (
        args.resolution if args.resolution is not None else naf_resolution(settings.n_tx)
    )
    peaks = extract_peaks(values, naf, resolution, args.max_peaks)
    rows = "".join(f"{p.naf!r},{p.range_m!r},{p.power!r}\n" for p in peaks)
    _write_bytes(args.out, ("naf,range_m,power\n" + rows).encode())
    _status(args.out, f"{len(peaks)} peak(s) written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.seeds < 1:
        raise ConfigError("--seeds must be a positive integer")
    settings, base = _build_settings(args)
    seeds = range(base, base + args.seeds)
    # an empty list value names one empty name, which is refused, not "all"
    scenarios = _pick_scenarios(args.scenarios.split(",") if args.scenarios is not None else [])
    methods = args.methods.split(",") if args.methods is not None else list(METHODS)
    report = run_comparison(scenarios, methods, seeds, settings, out_dir=args.out)
    ranking = report.data["ordering"]["total_pooled_rmse_ascending"]
    print(f"report written to {args.out}/report.json")
    print("total pooled RMSE (NAF), best first:")
    for m in ranking:
        print(f"  {m:<12} {report.total_rmse(m):.6f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every main() call shares, built on the first one.

    It holds no per-call state: parse_args returns a fresh namespace, and
    every default lives on the parser, never on a parsed result.
    """
    parser = _Parser(prog="beamsweep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the standard scenarios")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file")

    p = sub.add_parser("reconstruct", parents=[config], help="densify a sweep CSV")
    p.add_argument("--sweep", required=True, help="CSV with naf,value columns")
    p.add_argument("--method", required=True, choices=("dft", "spline", "omp"))
    p.add_argument("--factor", type=int, default=10, help="grid refinement factor")
    p.add_argument("--dictionary", choices=DICTIONARY_KINDS)
    p.add_argument("--out", required=True, help="output spectrum CSV")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("detect", parents=[config], help="extract peaks from a spectrum CSV")
    p.add_argument("--spectrum", required=True, help="CSV with naf,value columns")
    p.add_argument("--resolution", type=float, help="exclusion half-width (NAF)")
    p.add_argument("--max-peaks", type=int, default=2, dest="max_peaks")
    p.add_argument("--out", required=True, help="output peaks CSV")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", parents=[config], help="score methods over the catalog")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--snr-db", type=float, dest="snr_db")
    p.add_argument("--dictionary", choices=DICTIONARY_KINDS)
    p.add_argument("--seeds", type=int, default=20, help="number of Monte-Carlo seeds")
    p.add_argument("--scenarios", help="comma-separated scenario names")
    p.add_argument("--methods", help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path that cannot be written
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
