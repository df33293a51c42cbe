"""Run the benchmark over several seeds and summarise it (regenerates baseline.json).

    python3 perfbench/collect.py --out perfbench/baseline.json
    python3 perfbench/collect.py --compare perfbench/baseline.json

For every workload it runs ``--trace 0`` once per seed in SEEDS and
``--trace 1`` on the first seed, and reports per end-to-end metric the
median, the quartiles and the spread (interquartile distance over the
median) against the metric's bound in BENCHMARK.json. ``--compare`` checks
a second set of runs against a saved one: every median within its bound of
the saved median, in either direction, and repeat digests and per-layer
call counts identical seed by seed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)

# Split of one 81-beam x 6-frame acquisition measured with a profiler at the
# ROADMAP re-anchor (2026-10-17), in seconds.
REANCHOR_ACQUISITION_S = {
    "ofdm.noisy_csi_from_profile.self_s": 0.28,
    "harness.simulate_acquisition.self_s": 0.074,
    "ofdm.scene_subcarrier_profile.self_s": 0.062,
}


def run(workload, seed, trace):
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3, "values": values}


def collect():
    summary = {}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = []
        for seed in SEEDS:
            result, detail = run(workload, seed, 0)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: outputs incorrect")
            runs.append({"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "attempted": result["attempted"], "failed": result["failed"],
                         "repeat_digest": detail["repeat_digest"],
                         **{k: detail[k] for k in ("first_report_sha256", "two_peak_rate_by_separation")
                            if k in detail}})
            print(f"{workload} seed {seed}: " + json.dumps(runs[-1]["metrics"]), flush=True)
        traced, detail = run(workload, SEEDS[0], 1)
        metrics = {
            m["name"]: summarise([r["metrics"][m["name"]] for r in runs], m["bound"])
            for m in BENCHMARK["end_to_end"]
        }
        summary[workload] = {
            "end_to_end": metrics,
            "error_rate": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "runs": runs,
            "traced": {"seed": SEEDS[0], "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                       "repeat_counts_digest": detail["repeat_counts_digest"]},
        }
        for name, m in metrics.items():
            flag = "" if m["within_third_of_bound"] or name == "setup_s" else "  <-- spread above bound/3"
            print(f"{workload:<16} {name:<12} median {m['median']:.6g} spread {m['spread']:.4f}"
                  f" bound {m['bound']}{flag}", flush=True)
    acq = summary["resolution"]["traced"]["per_layer"]
    cross_check = {k: {"traced_s": acq[k], "reanchor_s": v} for k, v in REANCHOR_ACQUISITION_S.items()}
    return summary, cross_check, detail["host"]


def compare(summary, saved):
    problems = []
    for workload, now in summary.items():
        before = saved["workloads"][workload]
        for name, m in now["end_to_end"].items():
            ratio = m["median"] / before["end_to_end"][name]["median"]
            print(f"{workload:<16} {name:<12} median ratio {ratio:.4f} (bound {m['bound']})")
            if abs(ratio - 1) > m["bound"]:
                problems.append(f"{workload} {name}: median ratio {ratio:.3f} outside 1 +/- {m['bound']}")
        for r, old in zip(now["runs"], before["runs"]):
            if (r["seed"], r["repeat_digest"]) != (old["seed"], old["repeat_digest"]):
                problems.append(f"{workload} seed {r['seed']}: repeat digest differs")
        if now["traced"]["repeat_counts_digest"] != before["traced"]["repeat_counts_digest"]:
            problems.append(f"{workload}: traced call counts differ")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the summary here")
    parser.add_argument("--compare", type=Path, help="saved summary to check against")
    args = parser.parse_args()
    summary, cross_check, host = collect()
    doc = {
        "regenerate": "python3 perfbench/collect.py --out perfbench/baseline.json",
        "run_seconds": BENCHMARK["run_seconds"],
        "host": host,
        "acquisition_cross_check": cross_check,
        "workloads": summary,
    }
    print("acquisition cross-check: " + json.dumps(cross_check))
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.compare:
        problems = compare(summary, json.loads(args.compare.read_text()))
        print("\n".join(problems) or "second set agrees with the saved one")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
