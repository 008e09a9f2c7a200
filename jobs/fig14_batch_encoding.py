"""Figure 14 (Appendix B) — batch encoding latency vs batch size on a
pre-sorted email sample (dict 2^16 for the gram schemes).

Each scheme x batch size is timed ``PASSES`` times over all keys and
reported as the median pass; every pass is kept in the record. One
record per cell goes to ``results/fig14.jsonl``; the markdown table
printed on stdout is rendered from those records.

Usage: spark-submit jobs/fig14_batch_encoding.py [n_keys] > results/fig14.md
"""
import sys
import time
from statistics import median

import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import print_table, write_records

from repro.core.hope import build_hope
from repro.workloads.datasets import email_keys

SCHEMES = ["single", "double", "3grams", "4grams", "alm", "alm-improved"]
BATCHES = [1, 2, 32]
DICT_LIMIT = 1 << 16
PASSES = 3


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
        for batch in BATCHES:
            ns_per_char = [_time_pass(hope, keys, batch) / nchars * 1e9 for _ in range(PASSES)]
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
                    "ns_per_char_passes": ns_per_char,
                }
            )
        print(f"# done {scheme}", file=sys.stderr)
    print(f"# wrote {write_records('fig14', records)}", file=sys.stderr)
    cells = {(r["scheme"], r["batch"]): r["ns_per_char"] for r in records}
    print_table(
        f"Figure 14 — batch encoding latency (ns/char, median of {PASSES} passes), sorted email keys",
        ["scheme"] + [f"batch={b}" for b in BATCHES],
        [[s] + [round(cells[s, b], 1) for b in BATCHES] for s in SCHEMES],
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 25_000)
