"""Shared plumbing for the per-figure jobs.

Each job is a ``spark-submit``-able script that prints its figure's
table as GitHub-flavoured markdown; EXPERIMENTS.md records these
outputs next to the paper's numbers. A job that keeps structured
records writes them to ``results/<figure>.jsonl`` (``write_records``)
and renders its table from them. The tree figures (10, 12, 16) run
their cells through ``run_cells``.
"""
from __future__ import annotations

import json
import os
import sys
from typing import Iterable, Sequence

from repro.bench.harness import run_tree_bench
from repro.workloads.datasets import dataset_keys

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] --driver-memory 8g --conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false pyspark-shell",
)


def get_spark(app: str):
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", "16")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def run_cells(spark, figure: str, cells: Sequence[tuple], *, key_seed: int, n_queries: int, seed: int) -> list[dict]:
    """Run each ``(dataset, n_keys, tree, config)`` cell as one Spark task.

    A task generates its own keys (``dataset_keys(dataset, n_keys,
    seed=key_seed)``) and runs ``run_tree_bench`` on them. The records
    come back in cell order: the ``run_tree_bench`` dict plus ``figure``
    and ``dataset``. ``spark`` is the caller's session; it is left running.
    """
    def run(cell):
        ds, n_keys, tree, config = cell
        keys = dataset_keys(ds, n_keys, seed=key_seed)
        return {"figure": figure, "dataset": ds, **run_tree_bench(tree, config, keys, n_queries=n_queries, seed=seed)}

    return spark.sparkContext.parallelize(cells, len(cells)).map(run).collect()


def print_table(title: str, cols: Sequence[str], rows: Iterable[Sequence]) -> None:
    print(f"\n### {title}\n")
    print("| " + " | ".join(cols) + " |")
    print("|" + "|".join("---" for _ in cols) + "|")
    for r in rows:
        print("| " + " | ".join(_fmt(v) for v in r) + " |")
    sys.stdout.flush()


def write_records(figure: str, records: Sequence[dict]) -> str:
    """Write one JSON object per line to ``results/<figure>.jsonl``; returns the path."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "results", f"{figure}.jsonl")
    with open(path, "w") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")
    return os.path.normpath(path)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.3g}" if abs(v) < 1000 else f"{v:,.0f}"
    return str(v)


# Paper-reported C++ constants used for the modeled-latency columns
# (§5 worked example + Figure 8 email, read off the figure):
T_TRIE_NS = 80.2  # ns per trie level (SuRF email)
T_ENCODE_NS = {  # ns per char, email dataset
    "single": 3.2,
    "double": 6.9,
    "3grams-64K": 13.0,
    "4grams-64K": 14.0,
    "alm-improved-4K": 45.0,
    "alm-improved-64K": 50.0,
}


def modeled_latency_reduction(config: str, cpr: float, l: float, h: float) -> float | None:
    """The paper's §5 estimate: 1 - 1/cpr - (l*t_encode)/(h*t_trie)."""
    t_enc = T_ENCODE_NS.get(config)
    if t_enc is None or cpr <= 0 or h <= 0:
        return None
    return 1.0 - 1.0 / cpr - (l * t_enc) / (h * T_TRIE_NS)
