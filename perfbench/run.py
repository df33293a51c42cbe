"""beamsweep benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload {campaign,resolution,recorded_sweeps} \
        --seed N --seconds S --trace {0,1} [--max-ops N]

The package is imported from ``src/`` of the same checkout; the run fails
when it is not there. One process, one caller, BLAS pinned to one thread.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``ops_per_s``: ops completed per second of op time (output checks, which
  run between ops, are not counted).
- ``op_p50_ms`` and ``op_p90_ms``: op latency percentiles. A campaign batch
  completes 16 ops, so its samples are batch time / 16.
- ``setup_s``: median over fresh processes of importing beamsweep and
  building the workload's fixed inputs.
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` runs half the time untraced and half traced, and reports the
per-layer table: calls and self seconds per op for every span in
``tracing.SPANS``, the tracing overhead and the share of op time covered.

Every run also prints ``error_rate`` (failed / attempted ops), the host
facts and an exact-repeat digest of the first batches, and writes them to
``.perfbench_out/``. The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Phase:
    """Ops, failures, op time, per-op latency samples and check records of one loop."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.busy_s = 0.0
        self.latencies = []
        self.records = []


def measure(workload, seconds, max_ops, tracer=None):
    """Closed loop: run batches back to back until the op time reaches `seconds`."""
    phase = Phase()
    batch = 0
    while phase.busy_s < seconds and (max_ops is None or phase.ops < max_ops):
        if tracer is not None:
            tracer.op_id = batch
        start = time.perf_counter()
        try:
            result = workload.run(batch)
            error = None
        except Exception:
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op_id = -1
        if error is None:
            try:
                ok, record = workload.check(batch, result)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            ok, record = False, {"error": error.strip().splitlines()[-1]}
        if not ok and phase.failed < 3 * workload.ops_per_batch:  # report the first few only
            print(f"batch {batch} failed: {error or record}", file=sys.stderr)
        n = workload.ops_per_batch
        phase.ops += n
        phase.failed += 0 if ok else n
        phase.busy_s += elapsed
        phase.latencies.append(elapsed / n)
        phase.records.append(record)
        batch += 1
    return phase


def percentile_ms(values, q):
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def setup_seconds(name):
    """Median set-up time over fresh processes, with every probe's value."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    runs = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(runs), runs


def host_facts():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
    }


def digest(payload):
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def workload_stats(workload, phase):
    """Results that are deterministic in the seed: the repeat digest and the workload's own."""
    head = phase.records[: workload.repeat_batches]
    return {"repeat_batches": len(head), "repeat_digest": digest(head), **workload.summary(phase.records)}


def end_to_end(workload, phase):
    ops_per_s = phase.ops / phase.busy_s
    setup_s, probes = setup_seconds(workload.name)
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": percentile_ms(phase.latencies, 50),
        "op_p90_ms": percentile_ms(phase.latencies, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"latency_samples": len(phase.latencies), "setup_probes_s": probes}
    print(f"{'metric':<12} {'value':>14}  unit")
    for name, unit in END_TO_END.items():
        print(f"{name:<12} {metrics[name]:>14.6g}  {unit}")
    print(f"{'error_rate':<12} {phase.failed / phase.ops:>14.6g}  ratio"
          f"  ({phase.failed} failed of {phase.ops} ops)")
    print(f"latency samples: {len(phase.latencies)}; setup probes (s): "
          + ", ".join(f"{p:.4f}" for p in probes))
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, extra


def per_layer(workload, untraced, traced, tracer):
    from tracing import SPANS

    n = traced.ops
    table = tracer.summary(n)
    covered = tracer.covered_seconds()
    table["harness.report_bytes"] = sum(r.get("report_bytes", 0) for r in traced.records) / n
    table["trace.coverage"] = covered / traced.busy_s
    table["trace.untraced_ops_per_s"] = untraced.ops / untraced.busy_s
    table["trace.traced_ops_per_s"] = traced.ops / traced.busy_s
    table["trace.overhead_pct"] = 100.0 * (1.0 - table["trace.traced_ops_per_s"] / table["trace.untraced_ops_per_s"])
    op_s = traced.busy_s / n
    print(f"{'layer':<32} {'calls/op':>10} {'self ms/op':>12} {'share':>7}")
    for name in SPANS:
        calls, own = table[f"{name}.calls"], table[f"{name}.self_s"]
        print(f"{name:<32} {calls:>10.4g} {own * 1e3:>12.4f} {own / op_s:>7.1%}")
    print(f"op time {op_s * 1e3:.3f} ms over {n} traced ops; spans cover {table['trace.coverage']:.1%}")
    print(f"omp iterations/op {table['omp.omp.iterations']:.4g}; report bytes/op {table['harness.report_bytes']:.6g}")
    print(f"tracing overhead: untraced {table['trace.untraced_ops_per_s']:.6g} ops/s, "
          f"traced {table['trace.traced_ops_per_s']:.6g} ops/s ({table['trace.overhead_pct']:+.2f}%)")
    counts = {k: v for k, v in tracer.summary(1, set(range(workload.repeat_batches))).items()
              if not k.endswith(".self_s")}
    print(f"repeat counts over the first {workload.repeat_batches} batches: {json.dumps(counts)}")
    units = {"harness.report_bytes": "bytes", "trace.coverage": "ratio", "trace.untraced_ops_per_s": "1/s",
             "trace.traced_ops_per_s": "1/s", "trace.overhead_pct": "%"}
    metrics = {
        k: {"value": v, "unit": units.get(k, "s" if k.endswith(".self_s") else "count")}
        for k, v in table.items()
    }
    return metrics, {"repeat_counts": counts, "repeat_counts_digest": digest(counts)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="campaign, resolution or recorded_sweeps")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, dest="max_ops", help="stop after this many ops (smoke runs)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0 or (args.max_ops is not None and args.max_ops < 1):
        parser.error("--seconds and --max-ops must be positive and --seed non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads, in this process and the set-up probes
    os.environ.pop("BEAMSWEEP_SEED", None)
    if not (SRC / "beamsweep" / "__init__.py").is_file():
        print(f"error: no beamsweep package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import beamsweep
    import workloads
    from tracing import Tracer

    if Path(beamsweep.__file__).resolve().parent != SRC / "beamsweep":
        print(f"error: beamsweep imported from {beamsweep.__file__}, not {SRC}", file=sys.stderr)
        return 1

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"beamsweep benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    host = host_facts()
    print("host: " + json.dumps(host, sort_keys=True))
    try:
        workload.make_inputs(args.seed, workdir)
        workload.warmup()
        if args.trace == 0:
            phase = measure(workload, args.seconds, args.max_ops)
            phases = [phase]
            metrics, extra = end_to_end(workload, phase)
        else:
            untraced = measure(workload, args.seconds / 2, args.max_ops)
            tracer = Tracer()
            with tracer.installed():
                phase = measure(workload, args.seconds / 2, args.max_ops, tracer)
            phases = [untraced, phase]
            metrics, extra = per_layer(workload, untraced, phase, tracer)
            tracer.dump(outdir / f"{stem}-spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    stats = workload_stats(workload, phase)
    print("repeat: " + json.dumps({k: v for k, v in stats.items() if "digest" in k or "sha256" in k}))
    if "two_peak_rate_by_separation" in stats:
        print("two-peak rate by separation: " + json.dumps(stats["two_peak_rate_by_separation"]))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(outdir / f"{stem}.json", "w") as fh:
        json.dump(
            {"args": vars(args), "host": host, "error_rate": failed / attempted, **stats, **extra, "result": result},
            fh, indent=2, sort_keys=True,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
