"""Figure 9 — dictionary build time breakdown (email, 1% sample).

Per scheme (variable-interval schemes at 2^12 and 2^16): time spent in
the Symbol Selector, Code Assigner, and Dictionary modules, each the
median of ``REPEATS`` builds. One record per row goes to
``results/fig9.jsonl``; the markdown table printed on stdout is
rendered from those records.

Usage: python jobs/fig9_build_time.py [n_samples] > results/fig9.md
"""
import os
import sys
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _common import print_table, write_records

from repro.core.hope import build_hope
from repro.workloads.datasets import email_keys

CONFIGS = [
    ("single", 256),
    ("double", 256 * 257),
    ("alm", 1 << 12),
    ("alm", 1 << 16),
    ("3grams", 1 << 12),
    ("3grams", 1 << 16),
    ("4grams", 1 << 12),
    ("4grams", 1 << 16),
    ("alm-improved", 1 << 12),
    ("alm-improved", 1 << 16),
]
MODULES = ("symbol_select", "code_assign", "dict_build")
REPEATS = 3


def main(n_samples: int = 2500) -> None:
    sample = email_keys(n_samples, seed=9)
    records = []
    for scheme, size in CONFIGS:
        builds = [build_hope(scheme, sample, max_dict_entries=size) for _ in range(REPEATS)]
        hope = builds[0]
        records.append(
            {
                "figure": "fig9",
                "dataset": "email",
                "n_samples": n_samples,
                "scheme": scheme,
                "dict_limit": size,
                "entries": hope.dict_entries,
                **{f"{m}_s": median(h.build_times[m] for h in builds) for m in MODULES},
                "dict_memory_bytes": hope.dict_memory_bytes(),
            }
        )
        print(f"# built {scheme}/{size}", file=sys.stderr)
    print(f"# wrote {write_records('fig9', records)}", file=sys.stderr)
    print_table(
        "Figure 9 — dictionary build time (s), email 1% sample",
        ["scheme", "dict limit", "entries", "symbol select", "code assign", "dict build", "total", "dict bytes"],
        [
            (
                r["scheme"],
                r["dict_limit"],
                r["entries"],
                *(round(r[f"{m}_s"], 3) for m in MODULES),
                round(sum(r[f"{m}_s"] for m in MODULES), 3),
                r["dict_memory_bytes"],
            )
            for r in records
        ],
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2500)
