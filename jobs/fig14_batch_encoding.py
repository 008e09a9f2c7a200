"""Figure 14 (Appendix B) — batch encoding latency vs batch size on a
pre-sorted email sample (dict 2^16 for the gram schemes).

Each pass over all keys times every batch size of a scheme once, in an
order rotated from pass to pass, so the batch sizes see the same host
load; ``PASSES`` passes give each cell its median and interquartile
range, and every pass is kept in the record. One record per cell goes
to ``results/fig14.jsonl``; the markdown table printed on stdout is
rendered from those records.

Usage: spark-submit jobs/fig14_batch_encoding.py [n_keys] > results/fig14.md
"""
import sys
import time
from statistics import median, quantiles

import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import print_table, write_records

from repro.core.hope import build_hope
from repro.workloads.datasets import email_keys

SCHEMES = ["single", "double", "3grams", "4grams", "alm", "alm-improved"]
BATCHES = [1, 2, 32]
DICT_LIMIT = 1 << 16
PASSES = 5


def _time_pass(hope, keys, batch: int) -> float:
    t0 = time.perf_counter()
    if batch == 1:
        enc = hope.dictionary.encode
        for k in keys:
            enc(k)
    else:
        eb = hope.dictionary.encode_batch
        for i in range(0, len(keys), batch):
            eb(keys[i : i + batch])
    return time.perf_counter() - t0


def main(n_keys: int = 25_000) -> None:
    keys = sorted(email_keys(n_keys, seed=14))
    sample = keys[: max(100, n_keys // 100)]
    nchars = sum(map(len, keys))
    records = []
    for scheme in SCHEMES:
        hope = build_hope(scheme, sample, max_dict_entries=DICT_LIMIT)
        passes = {batch: [] for batch in BATCHES}
        for p in range(PASSES):
            for batch in BATCHES[p % len(BATCHES) :] + BATCHES[: p % len(BATCHES)]:
                passes[batch].append(_time_pass(hope, keys, batch) / nchars * 1e9)
        for batch, ns_per_char in passes.items():
            q1, _, q3 = quantiles(ns_per_char, n=4)
            records.append(
                {
                    "figure": "fig14",
                    "dataset": "email",
                    "n_keys": n_keys,
                    "scheme": scheme,
                    "dict_limit": DICT_LIMIT,
                    "entries": hope.dict_entries,
                    "batch": batch,
                    "ns_per_char": median(ns_per_char),
                    "ns_per_char_iqr": q3 - q1,
                    "ns_per_char_passes": ns_per_char,
                }
            )
        print(f"# done {scheme}", file=sys.stderr)
    print(f"# wrote {write_records('fig14', records)}", file=sys.stderr)
    cells = {(r["scheme"], r["batch"]): f'{r["ns_per_char"]:.0f} ({r["ns_per_char_iqr"]:.0f})' for r in records}
    print_table(
        f"Figure 14 — batch encoding latency (ns/char, median (IQR) of {PASSES} interleaved passes), "
        "sorted email keys",
        ["scheme"] + [f"batch={b}" for b in BATCHES],
        [[s] + [cells[s, b] for b in BATCHES] for s in SCHEMES],
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 25_000)
