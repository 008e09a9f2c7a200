"""Figure 12 — YCSB point queries on ART, HOT, B+tree, Prefix B+tree.

Seven configurations x three datasets x four indexes: point latency
(Python wall-clock), memory (tree + dictionary), trie height where
applicable, CPR. Each (dataset, tree, config) cell is one Spark task
building its own in-memory tree (``_common.run_cells``). One record per
cell goes to ``results/fig12.jsonl``; the markdown table printed on
stdout is rendered from those records.

Usage: spark-submit jobs/fig12_trees_ycsb.py [n_keys] > results/fig12.md
"""
import sys

import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import get_spark, print_table, run_cells, write_records

from repro.bench import harness
from repro.bench.harness import CONFIGS

TREES = tuple(t for t in harness.TREES if t != "surf")


def main(n_keys: int = 30_000) -> None:
    nk = {"email": n_keys, "wiki": n_keys, "url": n_keys // 3}
    cells = [(ds, n, tree, config) for ds, n in nk.items() for tree in TREES for config in CONFIGS]
    spark = get_spark("fig12")
    records = run_cells(spark, "fig12", cells, key_seed=12, n_queries=1500, seed=2)
    spark.stop()
    print(f"# wrote {write_records('fig12', records)}", file=sys.stderr)
    print_table(
        "Figure 12 — YCSB point queries (Zipf)",
        ["dataset", "tree", "config", "point ns (py)", "tree B", "tree+dict B", "height", "CPR"],
        [
            (
                r["dataset"],
                r["tree"],
                r["config"],
                round(r["point_ns"]),
                r["tree_memory_bytes"],
                r["memory_bytes"],
                None if r["height"] is None else round(r["height"], 1),
                round(r["cpr"], 2),
            )
            for r in records
        ],
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30_000)
