"""Figure 10 — SuRF YCSB evaluation (point + range, memory, height).

Seven configurations x three datasets. Also prints the paper's §5
modeled latency reduction (computed from measured CPR / key length /
trie height with the paper's C++ timing constants) next to the raw
Python wall-clock, since Python per-char encode costs dominate
wall-clock in ways the C++ implementation does not (see
EXPERIMENTS.md).

Each (dataset, config) cell is one Spark task (``_common.run_cells``).
The modeled column is computed after the collect, against the trie
height of the dataset's uncompressed cell. One record per cell goes to
``results/fig10.jsonl``; the markdown table printed on stdout is
rendered from those records.

Usage: spark-submit jobs/fig10_surf_ycsb.py [n_keys] > results/fig10.md
"""
import sys

import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import get_spark, modeled_latency_reduction, print_table, run_cells, write_records

from repro.bench.harness import CONFIGS
from repro.workloads.datasets import dataset_keys

KEY_SEED = 10


def main(n_keys: int = 30_000) -> None:
    nk = {"email": n_keys, "wiki": n_keys, "url": n_keys // 3}
    cells = [(ds, n, "surf", config) for ds, n in nk.items() for config in CONFIGS]
    spark = get_spark("fig10")
    records = run_cells(spark, "fig10", cells, key_seed=KEY_SEED, n_queries=2000, seed=1)
    spark.stop()
    base_h = {r["dataset"]: r["height"] for r in records if r["config"] == "uncompressed"}
    mean_len = {}
    for ds, n in nk.items():
        keys = dataset_keys(ds, n, seed=KEY_SEED)
        mean_len[ds] = sum(map(len, keys)) / len(keys)
    for r in records:
        r["modeled_delta"] = modeled_latency_reduction(r["config"], r["cpr"], mean_len[r["dataset"]], base_h[r["dataset"]])
    print(f"# wrote {write_records('fig10', records)}", file=sys.stderr)
    print_table(
        "Figure 10 — SuRF YCSB (Zipf)",
        ["dataset", "config", "point ns (py)", "range ns (py)", "tree B", "tree+dict B", "trie height", "CPR", "modeled Δlatency (paper consts)"],
        [
            (
                r["dataset"],
                r["config"],
                round(r["point_ns"]),
                round(r["range_ns"]),
                r["tree_memory_bytes"],
                r["memory_bytes"],
                round(r["height"], 1),
                round(r["cpr"], 2),
                None if r["modeled_delta"] is None else f"{r['modeled_delta'] * 100:.0f}%",
            )
            for r in records
        ],
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30_000)
