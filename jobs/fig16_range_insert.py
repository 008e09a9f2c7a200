"""Figure 16 (Appendix D) — YCSB-E range scans and inserts on ART, HOT,
B+tree, Prefix B+tree (email + wiki). A scan is a start key plus a
count, so only its start key is encoded.

Each (dataset, tree, config) cell is one Spark task building its own
in-memory tree (``_common.run_cells``). One record per cell goes to
``results/fig16.jsonl``; the markdown table printed on stdout is
rendered from those records.

Usage: spark-submit jobs/fig16_range_insert.py [n_keys] > results/fig16.md
"""
import sys

import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import get_spark, print_table, run_cells, write_records

from repro.bench import harness
from repro.bench.harness import CONFIGS

TREES = tuple(t for t in harness.TREES if t != "surf")


def main(n_keys: int = 15_000) -> None:
    cells = [(ds, n_keys, tree, config) for ds in ("email", "wiki") for tree in TREES for config in CONFIGS]
    spark = get_spark("fig16")
    records = run_cells(spark, "fig16", cells, key_seed=16, n_queries=12_000, seed=3)
    spark.stop()
    print(f"# wrote {write_records('fig16', records)}", file=sys.stderr)
    print_table(
        "Figure 16 — YCSB-E range scans + inserts",
        ["dataset", "tree", "config", "range ns (py)", "insert ns (py)", "memory B"],
        [
            (
                r["dataset"],
                r["tree"],
                r["config"],
                round(r["range_ns"]),
                None if r["insert_ns"] is None else round(r["insert_ns"]),
                r["memory_bytes"],
            )
            for r in records
        ],
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 15_000)
