"""Figure 11 — SuRF false positive rate vs suffix bits (email point
queries). HOPE-compressed keys carry more information per bit, so the
compressed SuRF should reach a lower FPR at equal suffix-bit budgets.

Usage: spark-submit jobs/fig11_surf_fpr.py [n_keys]
"""
import sys

import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import print_table

from repro.core.hope import build_hope
from repro.trees.surf import SuRF
from repro.workloads.datasets import email_keys

CONFIGS = ["uncompressed", "single", "double", "3grams", "4grams", "alm-improved"]
SUFFIX_BITS = [0, 2, 4, 6, 8]


def main(n_keys: int = 30_000) -> None:
    all_keys = email_keys(n_keys + 10_000, seed=11)
    keys, negatives = all_keys[:n_keys], all_keys[n_keys:]
    sample = keys[: max(100, n_keys // 100)]
    rows = []
    for config in CONFIGS:
        hope = None
        if config != "uncompressed":
            hope = build_hope(config, sample, max_dict_entries=1 << 12)
            enc = hope.dictionary.encode
            tkeys = sorted(enc(k)[0] for k in keys)
            tneg = [enc(k)[0] for k in negatives]
        else:
            tkeys = sorted(keys)
            tneg = list(negatives)
        fprs = []
        for bits in SUFFIX_BITS:
            s = SuRF(suffix_bits=bits)
            s.build(tkeys)
            fprs.append(round(s.false_positive_rate(tneg) * 100, 2))
        rows.append([config] + fprs)
        print(f"# done {config}", file=sys.stderr)
    print_table(
        "Figure 11 — SuRF false positive rate (%) on email point queries",
        ["config"] + [f"{b} suffix bits" for b in SUFFIX_BITS],
        rows,
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30_000)
