"""Figure 13 (Appendix A) — sample size sensitivity of the compression
rate, all schemes, dictionary limit 2^16.

Usage: spark-submit jobs/fig13_sample_size.py [n_keys]
"""
import sys

import os

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import print_table

from repro.core.hope import SCHEMES, build_hope
from repro.workloads.datasets import dataset_keys

FRACTIONS = [0.0001, 0.001, 0.01, 0.1]


def main(n_keys: int = 50_000) -> None:
    rows = []
    for ds in ("email", "wiki", "url"):
        n = n_keys if ds != "url" else n_keys // 4
        keys = dataset_keys(ds, n, seed=13)
        eval_keys = keys[: 8_000]
        for scheme in SCHEMES:
            cprs = []
            for frac in FRACTIONS:
                n_s = max(2, int(n * frac))
                sample = keys[-n_s:]  # disjoint-ish from eval head
                hope = build_hope(scheme, sample, max_dict_entries=1 << 16)
                cprs.append(round(hope.compression_rate(eval_keys), 3))
            rows.append([ds, scheme] + cprs)
            print(f"# done {ds}/{scheme}", file=sys.stderr)
    print_table(
        "Figure 13 — CPR vs sample fraction (dict limit 64K)",
        ["dataset", "scheme"] + [f"{f:g}" for f in FRACTIONS],
        rows,
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 50_000)
