"""Figure 8 — compression microbenchmarks.

For each scheme x dataset x dictionary size: compression rate,
single-thread encode latency per char, and dictionary memory. Symbol
statistics are computed distributively in Spark (core.spark_select);
encoding latency is measured single-threaded on the driver, as in the
paper: the median of ``PASSES`` passes over the evaluation keys. The
first pass fills the 3/4-Grams window maps; every pass is kept in the
record, and the entries of the one-step map (one symbol per window) and
of the pair map (two symbols per window) are reported beside the
dictionary bytes, which do not include them. One record per row goes to
``results/fig8.jsonl``; the markdown table printed on stdout is rendered
from those records.

Usage: spark-submit jobs/fig8_microbench.py [n_keys] > results/fig8.md
"""
import sys
import time
from statistics import median

import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import get_spark, print_table, write_records

from repro.core.hope import build_hope
from repro.core.spark_select import gram_freqs, substring_freqs, suffix_freqs
from repro.workloads.datasets import dataset_keys, keys_df

DICT_SIZES = {
    "single": [256],
    "double": [256 * 257],
    "3grams": [1 << 12, 1 << 14, 1 << 16],
    "4grams": [1 << 12, 1 << 14, 1 << 16],
    "alm": [1 << 12, 1 << 14],
    "alm-improved": [1 << 12, 1 << 14, 1 << 16],
}
PASSES = 3


def main(n_keys: int = 30_000) -> None:
    spark = get_spark("fig8")
    records = []
    for ds in ("email", "wiki", "url"):
        n = n_keys if ds != "url" else n_keys // 3
        keys = dataset_keys(ds, n, seed=8)  # generation order, independent of the core count
        # 1% of the paper's 25M-key corpora is 250K samples; at repro
        # scale a bare 1% undersupplies distinct grams, so floor the
        # sample at 4000 keys (within the paper's 10K-100K guideline).
        sample = keys[: max(4000, n // 100)]
        sample_df = keys_df(spark, sample).repartition(8)
        eval_keys = keys[: 10_000]
        nchars = sum(map(len, eval_keys))
        for scheme, sizes in DICT_SIZES.items():
            freqs = None
            if scheme == "3grams":
                freqs = gram_freqs(sample_df, "key", 3)
            elif scheme == "4grams":
                freqs = gram_freqs(sample_df, "key", 4)
            elif scheme == "alm":
                freqs = substring_freqs(sample_df, "key")
            elif scheme == "alm-improved":
                freqs = suffix_freqs(sample_df, "key")
            for size in sizes:
                hope = build_hope(scheme, sample, max_dict_entries=size, freqs=freqs)
                ns_per_char = []
                for _ in range(PASSES):
                    t0 = time.perf_counter()
                    for k in eval_keys:
                        hope.dictionary.encode(k)
                    ns_per_char.append((time.perf_counter() - t0) / nchars * 1e9)
                maps = hope.dictionary.window_map_size()
                records.append(
                    {
                        "figure": "fig8",
                        "dataset": ds,
                        "n_keys": n,
                        "scheme": scheme,
                        "dict_limit": size,
                        "entries": hope.dict_entries,
                        "cpr": hope.compression_rate(eval_keys),
                        "encode_ns_per_char": median(ns_per_char),
                        "encode_ns_per_char_passes": ns_per_char,
                        "dict_memory_bytes": hope.dict_memory_bytes(),
                        "window_map_entries": maps["windows"][0],
                        "window_map_bytes": maps["windows"][1],
                        "pair_map_entries": maps["pairs"][0],
                        "pair_map_bytes": maps["pairs"][1],
                    }
                )
                print(f"# done {ds}/{scheme}/{size}", file=sys.stderr)
    spark.stop()
    print(f"# wrote {write_records('fig8', records)}", file=sys.stderr)
    print_table(
        "Figure 8 — compression microbenchmarks",
        ["dataset", "scheme", "dict limit", "dict entries", "CPR", "encode ns/char", "dict bytes",
         "window map entries", "pair map entries"],
        [
            (
                r["dataset"],
                r["scheme"],
                r["dict_limit"],
                r["entries"],
                round(r["cpr"], 3),
                round(r["encode_ns_per_char"], 1),
                r["dict_memory_bytes"],
                r["window_map_entries"],
                r["pair_map_entries"],
            )
            for r in records
        ],
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30_000)
