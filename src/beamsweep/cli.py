"""Command-line front end: catalog, simulate, reconstruct, detect, evaluate.

Exit codes: 0 on success, 1 for configuration/input problems (including
bad command lines), 2 for internal contract violations. The BEAMSWEEP_SEED
environment variable overrides the master seed from any other source.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .beams import BeamformingWeights, build_dictionary
from .detection import CfarConfig, extract_peaks
from .errors import ConfigError, ContractViolation
from .geometry import ArrayGeometry, naf_resolution
from .harness import EvalSettings, METHODS, run_comparison
from .ofdm import RadioConfig
from .omp import OmpConfig, omp
from .reconstruct import (
    AngularSweep,
    SweepPlan,
    dft_interpolate,
    spline_interpolate,
)
from .scenarios import scenario_catalog

SEED_ENV_VAR = "BEAMSWEEP_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # route usage problems to exit code 1 instead of argparse's 2
        raise ConfigError(message)


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _build_settings(cfg: dict, args) -> EvalSettings:
    def section(name):
        value = cfg.get(name, {})
        if not isinstance(value, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        return value

    try:
        radio = RadioConfig(**section("radio"))
        array = section("array")
        cfar = CfarConfig(**section("cfar"))
        omp_cfg = OmpConfig(**section("omp"))
    except TypeError as exc:
        raise ConfigError(f"unknown config key: {exc}") from exc
    kwargs = dict(
        radio=radio,
        n_tx=int(array.get("n_tx", 8)),
        n_rx=int(array.get("n_rx", 8)),
        cfar=cfar,
        omp=omp_cfg,
    )
    for key in ("naf_limit", "snr_db"):
        if key in cfg:
            kwargs[key] = float(cfg[key])
    for key in ("dwell_frames", "ground_truth_frames", "oversampling_factor", "max_peaks"):
        if key in cfg:
            kwargs[key] = int(cfg[key])
    if "mode" in cfg:
        kwargs["mode"] = str(cfg["mode"])
    if "include_rear_wall" in cfg:
        kwargs["include_rear_wall"] = bool(cfg["include_rear_wall"])
    kwargs["dictionary_kind"] = getattr(args, "dictionary", None) or cfg.get(
        "dictionary", "matched"
    )
    if getattr(args, "snr_db", None) is not None:
        kwargs["snr_db"] = args.snr_db
    return EvalSettings(**kwargs)


def _master_seed(args, cfg: dict) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(cfg.get("seed", 1))


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


def _read_two_column_csv(path, value_field: str):
    try:
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path} holds no data rows")
    try:
        naf = np.array([float(r["naf"]) for r in rows])
        val = np.array([float(r[value_field]) for r in rows])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"{path} must have 'naf' and '{value_field}' columns"
        ) from exc
    return naf, val


def _write_spectrum_csv(path, grid, values) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("naf,value\n")
        for g, v in zip(grid, values):
            fh.write(f"{float(g)!r},{float(v)!r}\n")


def cmd_catalog(args) -> int:
    scenarios = scenario_catalog()
    if args.json:
        payload = [
            {
                "name": s.name,
                "kind": s.kind,
                "separation_naf": s.separation_naf,
                "target_nafs": list(s.target_nafs),
                "target_range_m": s.target_range_m,
                "target_amplitude_db": s.target_amplitude_db,
                "snr_db": s.snr_db,
            }
            for s in scenarios
        ]
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


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    settings = _build_settings(cfg, args)
    seed = _master_seed(args, cfg)
    scenarios = _pick_scenarios([args.scenario] if args.scenario else [])
    methods = args.methods.split(",") if args.methods else list(METHODS)
    report = run_comparison(scenarios, methods, [seed], settings, out_dir=args.out)
    print(f"wrote maps, sweeps and report for {len(scenarios)} scenario(s) to {args.out}")
    for name in report.data["scenarios"]:
        print(f"  {name}: ground truth {report.data['scenarios'][name]['mean_ground_truth']}")
    return 0


def cmd_reconstruct(args) -> int:
    if args.factor < 1:
        raise ConfigError("--factor must be a positive integer")
    cfg = _load_config(args.config)
    settings = _build_settings(cfg, args)
    naf, values = _read_two_column_csv(args.sweep, "value")
    plan = SweepPlan(naf, "minimal", dwell_frames=settings.dwell_frames)
    sweep = AngularSweep(plan, values, "magnitude")
    order = int(round(1.0 / (naf[1] - naf[0]))) if naf.size > 1 else 1
    factor = args.factor
    k_max = int(round(naf[-1] * order)) * factor
    grid = np.arange(-k_max, k_max + 1) / (order * factor)
    if args.method == "dft":
        dense = dft_interpolate(sweep, grid)
    elif args.method == "spline":
        dense = spline_interpolate(sweep, grid)
    elif args.method == "omp":
        geom = ArrayGeometry.uniform_linear(settings.n_tx, settings.n_rx)
        weights = BeamformingWeights.all_ones(geom)
        dictionary = build_dictionary(
            geom, weights, naf, grid, settings.dictionary_kind
        )
        estimate = omp(dictionary, values, settings.omp)
        dense = np.zeros(grid.size)
        for i, c in zip(estimate.support, estimate.coefficients):
            dense[i] = c
    else:
        raise ConfigError(f"unknown method {args.method!r}")
    _write_spectrum_csv(args.out, grid, np.real(dense))
    print(f"wrote {grid.size}-point {args.method} spectrum to {args.out}")
    return 0


def cmd_detect(args) -> int:
    cfg = _load_config(args.config)
    settings = _build_settings(cfg, args)
    naf, values = _read_two_column_csv(args.spectrum, "value")
    resolution = (
        args.resolution if args.resolution is not None else naf_resolution(settings.n_tx)
    )
    peaks = extract_peaks(values, naf, resolution, args.max_peaks)
    with open(args.out, "w", newline="") as fh:
        fh.write("naf,range_m,power\n")
        for p in peaks:
            fh.write(f"{p.naf!r},{p.range_m!r},{p.power!r}\n")
    print(f"{len(peaks)} peak(s) written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    settings = _build_settings(cfg, args)
    base = _master_seed(args, cfg)
    seeds = [base + i for i in range(args.seeds)]
    scenarios = _pick_scenarios(args.scenarios.split(",") if args.scenarios else [])
    methods = args.methods.split(",") if args.methods else list(METHODS)
    report = run_comparison(scenarios, methods, seeds, settings, out_dir=args.out)
    ranking = report.data["ordering"]["total_pooled_rmse_ascending"]
    print(f"report written to {args.out}/report.json")
    print("total pooled RMSE (NAF), best first:")
    for m in ranking:
        print(f"  {m:<12} {report.total_rmse(m):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="beamsweep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the standard scenarios")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--snr-db", type=float, dest="snr_db")
    common.add_argument("--dictionary", choices=("matched", "flat"))

    p = sub.add_parser("simulate", parents=[common], help="simulate sweeps and dump maps")
    p.add_argument("--scenario", help="scenario name (default: all)")
    p.add_argument("--methods", help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", parents=[common], help="densify a sweep CSV")
    p.add_argument("--sweep", required=True, help="CSV with naf,value columns")
    p.add_argument("--method", required=True, choices=("dft", "spline", "omp"))
    p.add_argument("--factor", type=int, default=10, help="grid refinement factor")
    p.add_argument("--out", required=True, help="output spectrum CSV")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("detect", parents=[common], help="extract peaks from a spectrum CSV")
    p.add_argument("--spectrum", required=True, help="CSV with naf,value columns")
    p.add_argument("--resolution", type=float, help="exclusion half-width (NAF)")
    p.add_argument("--max-peaks", type=int, default=2, dest="max_peaks")
    p.add_argument("--out", required=True, help="output peaks CSV")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", parents=[common], help="score methods over the catalog")
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
    except ContractViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
