"""Tree x scheme x dataset measurement harness (paper §7 experiments).

``run_tree_bench`` reproduces one cell of Figures 10/12/16: build HOPE
on a 1 % sample, encode the load keys, bulk-load the search tree on the
(encoded) keys, then drive YCSB-style point / range / insert query
streams, measuring per-query latency **including the query-key encoding
overhead** — that inclusion is the paper's central trade-off. Memory is
the tree's analytic footprint plus the HOPE dictionary (the paper
reports "HOPE size included").

``run_tree_bench_spark`` runs the same harness partition-parallel: the
key space is range-partitioned, each Spark partition builds and drives
its own in-memory tree (one tree per partition, per the banding hint),
and per-partition metrics come back as a DataFrame.

Encoded tree keys are the zero-padded code bytes alone: HOPE's padded
codes are injective and order-preserving (proof in ``core.strutil``),
so unique source keys load as unique tree keys, which the harness
asserts.
"""
from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence

from ..core.hope import HopeEncoder, build_hope
from ..trees.art import ART
from ..trees.bplustree import BPlusTree, PrefixBPlusTree
from ..trees.hot import HOT
from ..trees.surf import SuRF
from ..workloads.ycsb import surf_range_queries, workload_c, workload_e

TREES = ("surf", "art", "hot", "btree", "prefixbtree")
CONFIGS: Dict[str, Optional[Dict[str, Any]]] = {
    # the 7 configurations of §7: uncompressed + six HOPE settings
    "uncompressed": None,
    "single": {"scheme": "single"},
    "double": {"scheme": "double"},
    "3grams-64K": {"scheme": "3grams", "dict": 1 << 16},
    "4grams-64K": {"scheme": "4grams", "dict": 1 << 16},
    "alm-improved-4K": {"scheme": "alm-improved", "dict": 1 << 12},
    "alm-improved-64K": {"scheme": "alm-improved", "dict": 1 << 16},
}


def make_tree(name: str, suffix_bits: int = 8):
    if name == "surf":
        return SuRF(suffix_bits=suffix_bits)
    if name == "art":
        return ART()
    if name == "hot":
        return HOT()
    if name == "btree":
        return BPlusTree()
    if name == "prefixbtree":
        return PrefixBPlusTree()
    raise ValueError(f"unknown tree {name!r}; expected one of {TREES}")


def run_tree_bench(
    tree_name: str,
    config: str,
    keys: Sequence[bytes],
    *,
    n_queries: int = 2000,
    sample_frac: float = 0.01,
    insert_frac: float = 0.05,
    suffix_bits: int = 8,
    seed: int = 0,
    max_dict_entries_override: Optional[int] = None,
) -> Dict[str, Any]:
    """One experiment cell. ``keys`` must be unique; order arbitrary."""
    cfg = CONFIGS[config]
    keys = list(keys)
    n_hold = max(1, int(len(keys) * insert_frac))
    load_keys, insert_keys = keys[:-n_hold], keys[-n_hold:]

    hope: Optional[HopeEncoder] = None
    t_build = 0.0
    if cfg is not None:
        n_sample = max(10, int(len(load_keys) * sample_frac))
        sample = load_keys[:n_sample]
        t0 = time.perf_counter()
        hope = build_hope(
            cfg["scheme"],
            sample,
            max_dict_entries=max_dict_entries_override or cfg.get("dict", 1 << 16),
        )
        t_build = time.perf_counter() - t0

    enc = hope.encoder.encode if hope else None
    if enc:
        tree_load = [enc(k)[0] for k in load_keys]
        tree_ins = [enc(k)[0] for k in insert_keys]
    else:
        tree_load, tree_ins = list(load_keys), list(insert_keys)

    sorted_keys = sorted(tree_load)
    assert all(a < b for a, b in zip(sorted_keys, sorted_keys[1:])), "encoded keys collide"

    tree = make_tree(tree_name, suffix_bits=suffix_bits)
    t0 = time.perf_counter()
    tree.build(sorted_keys, list(range(len(sorted_keys))))
    t_load = time.perf_counter() - t0

    res: Dict[str, Any] = {
        "tree": tree_name,
        "config": config,
        "n_keys": len(sorted_keys),
        "build_hope_s": t_build,
        "load_s": t_load,
        "tree_memory_bytes": tree.memory_bytes(),
        "memory_bytes": tree.memory_bytes() + (hope.dict_memory_bytes() if hope else 0),
        "height": tree.avg_leaf_depth() if hasattr(tree, "avg_leaf_depth") else None,
        "cpr": (sum(map(len, load_keys)) / max(1, sum(map(len, tree_load)))) if hope else 1.0,
    }

    # ---- point queries (YCSB C) ---------------------------------------
    point_qs = workload_c(load_keys, n_queries, seed)
    is_filter = tree_name == "surf"
    t0 = time.perf_counter()
    hits = 0
    for q in point_qs:
        tq = enc(q)[0] if enc else q
        if is_filter:
            hits += tree.may_contain(tq)
        else:
            hits += tree.lookup(tq) is not None
    res["point_ns"] = (time.perf_counter() - t0) / len(point_qs) * 1e9
    res["point_hit_rate"] = hits / len(point_qs)

    # ---- range queries -------------------------------------------------
    if is_filter:
        ranges = surf_range_queries(load_keys, n_queries, seed)
        pair = hope.encoder.encode_pair if hope else None
        t0 = time.perf_counter()
        for lo, hi in ranges:
            if pair:
                (lo_b, _), (hi_b, _) = pair(lo, hi)
            else:
                lo_b, hi_b = lo, hi
            tree.may_contain_range(lo_b, hi_b)
        res["range_ns"] = (time.perf_counter() - t0) / len(ranges) * 1e9
        res["insert_ns"] = None  # SuRF is batch-built only
    else:
        ops = workload_e(load_keys, tree_ins, n_queries, seed)
        t_scan = t_ins = 0.0
        n_scan = n_ins = 0
        for op, k, slen in ops:
            if op == "scan":
                t0 = time.perf_counter()
                tq = enc(k)[0] if enc else k
                tree.scan(tq, slen)
                t_scan += time.perf_counter() - t0
                n_scan += 1
            else:
                t0 = time.perf_counter()
                tq = enc(k)[0] if enc else k
                tree.insert(tq, -1)
                t_ins += time.perf_counter() - t0
                n_ins += 1
        res["range_ns"] = t_scan / max(1, n_scan) * 1e9
        res["insert_ns"] = t_ins / max(1, n_ins) * 1e9 if n_ins else None
    return res


def run_tree_bench_spark(
    spark,
    tree_name: str,
    config: str,
    keys: Sequence[bytes],
    n_partitions: int = 8,
    **kw,
):
    """Partition-parallel harness: one in-memory tree per Spark partition.

    Keys are range-partitioned (sorted, then chunked) so each partition's
    tree covers a contiguous key range; returns a DataFrame of the
    per-partition metric dicts from ``run_tree_bench``.
    """
    skeys = sorted(keys)
    chunk = (len(skeys) + n_partitions - 1) // n_partitions
    parts = [skeys[i : i + chunk] for i in range(0, len(skeys), chunk)]
    rdd = spark.sparkContext.parallelize(list(enumerate(parts)), len(parts))

    def run_part(item):
        pid, part_keys = item
        res = run_tree_bench(tree_name, config, part_keys, **kw)
        return (
            pid,
            int(res["n_keys"]),
            float(res["point_ns"]),
            float(res["range_ns"]) if res["range_ns"] is not None else None,
            int(res["memory_bytes"]),
            float(res["height"]) if res["height"] is not None else None,
            float(res["cpr"]),
        )

    schema = (
        "partition int, n_keys int, point_ns double, range_ns double, "
        "memory_bytes long, height double, cpr double"
    )
    return spark.createDataFrame(rdd.map(run_part), schema=schema)
