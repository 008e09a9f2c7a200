"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload ycsb-c-email --seed 1 --seconds 10 --trace 0

Workloads, metrics and bounds are defined in ``BENCHMARK.json`` at the
root. ``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
records spans around the calls into each layer, writes them to
``.perfbench_out/`` and reports the per-layer metrics, including the
tracing overhead. Per-layer metrics of layers that the workload does
not run are reported as 0. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The program under
test is imported from ``src/``; without it the run exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Layers (per-layer metric prefixes) each workload runs.
COMMON_LAYERS = ("hope", "symbol_select", "code_assign", "dictionary", "encoder", "trace")
LAYERS = {
    "ycsb-c-email": COMMON_LAYERS + ("art", "model", "spark_select", "spark_encode"),
    "ycsb-e-url": COMMON_LAYERS + ("bplustree",),
}


def _run_workload(name: str, seed: int, seconds: float, trace: bool):
    import ycsb_bench

    out_prefix = os.path.join(OUT, f"trace-{name}")
    run = ycsb_bench.ycsb_c if name == "ycsb-c-email" else ycsb_bench.ycsb_e
    result = run(seed, seconds, trace, out_prefix)
    if trace and name == "ycsb-c-email":
        # The Spark build → encode path is traced here, on the same email corpus.
        from spark_bench import spark_layers

        spark = spark_layers(seed, seconds, OUT, out_prefix + "-spark")
        result.metrics.update(spark.metrics)
        result.attempted += spark.attempted
        result.failed += spark.failed
        result.scale.update(spark.scale)
        result.details += spark.details
    return result


def _report_metrics(spec, name: str, result, trace: bool):
    """Every metric BENCHMARK.json lists for this mode, with its unit."""
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        key = m["name"]
        if key in result.metrics:
            value = float(result.metrics[key])
        elif trace and key.split(".")[0] not in LAYERS[name]:
            value = 0.0
        else:
            raise KeyError(f"workload {name} did not measure {key}")
        out[key] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(LAYERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under test at {SRC}/repro; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # Spark's Python workers import repro too, so they need the path in their environment.
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.makedirs(OUT, exist_ok=True)

    import pyspark

    result = _run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = _report_metrics(spec, args.workload, result, bool(args.trace))

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"# workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# why: {why.get(args.workload, '-')}")
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"pyspark={pyspark.__version__} platform={platform.platform()}")
    print("# scale: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                 for k, v in result.scale.items()))
    print("# closed loop, one client, one process")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    for key, value, unit, note in result.details:
        print(f"{key} = {value:.6g} {unit} ({note})")
    print(f"failed_frac = {result.failed / result.attempted:.6g} "
          f"({result.failed} of {result.attempted} ops)")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
