"""Tree x scheme x dataset measurement harness (paper §7 experiments).

``run_tree_bench`` reproduces one cell of Figures 10/12/16: build HOPE
on a 1 % sample, encode the load keys, bulk-load the search tree on the
(encoded) keys, then drive YCSB-style point / range / insert query
streams, measuring per-query latency **including the query-key encoding
overhead** — that inclusion is the paper's central trade-off. Memory is
the tree's analytic footprint plus the HOPE dictionary (the paper
reports "HOPE size included"). A YCSB-E scan is a start key plus a
count, so only its start key is encoded; SuRF's closed ranges encode
each bound. Every held-out key the insert stream takes is encoded once
and must be found afterwards. Every op's result is checked after its
timed stream: a point lookup returns the loaded value (a filter, True),
a scan the next keys of a sorted-list oracle that also takes the
inserts, a SuRF range that starts at a loaded key is not empty. A wrong
result fails the cell with ``RuntimeError``.

Encoded tree keys are the zero-padded code bytes alone: HOPE's padded
codes are injective and order-preserving (proof in ``core.strutil``),
so unique source keys load as unique tree keys, which the harness
asserts.
"""
from __future__ import annotations

import time
from bisect import bisect_left, insort
from typing import Any, Dict, Optional, Sequence

from ..core.hope import HopeEncoder, build_hope
from ..core.strutil import check_strictly_increasing
from ..trees.art import ART
from ..trees.bplustree import BPlusTree, PrefixBPlusTree
from ..trees.hot import HOT
from ..trees.surf import SuRF
from ..workloads.ycsb import surf_range_queries, workload_c, workload_e

_TREE_CLASSES = {"surf": SuRF, "art": ART, "hot": HOT, "btree": BPlusTree, "prefixbtree": PrefixBPlusTree}
TREES = tuple(_TREE_CLASSES)
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


def make_tree(name: str):
    if name not in _TREE_CLASSES:
        raise ValueError(f"unknown tree {name!r}; expected one of {TREES}")
    return _TREE_CLASSES[name]()


def run_tree_bench(
    tree_name: str,
    config: str,
    keys: Sequence[bytes],
    *,
    n_queries: int = 2000,
    seed: int = 0,
) -> Dict[str, Any]:
    """One experiment cell. ``keys`` must be unique (``ValueError`` otherwise); order arbitrary."""
    cfg = CONFIGS[config]
    keys = list(keys)
    n_hold = max(1, int(len(keys) * 0.05))  # held back for the insert stream
    load_keys, insert_keys = keys[:-n_hold], keys[-n_hold:]

    hope: Optional[HopeEncoder] = None
    t_build = 0.0
    if cfg is not None:
        n_sample = max(10, int(len(load_keys) * 0.01))
        sample = load_keys[:n_sample]
        t0 = time.perf_counter()
        hope = build_hope(cfg["scheme"], sample, max_dict_entries=cfg.get("dict", 1 << 16))
        t_build = time.perf_counter() - t0

    enc = hope.dictionary.encode if hope else None
    if enc:
        tree_load = [enc(k)[0] for k in load_keys]
        tree_ins = [enc(k)[0] for k in insert_keys]
    else:
        tree_load, tree_ins = list(load_keys), list(insert_keys)

    # unique keys must encode to distinct bytes, held-out insert keys included
    check_strictly_increasing(sorted(tree_load + tree_ins))
    sorted_keys = sorted(tree_load)

    tree = make_tree(tree_name)
    t0 = time.perf_counter()
    tree.build(sorted_keys, list(range(len(sorted_keys))))
    t_load = time.perf_counter() - t0
    tree_memory = tree.memory_bytes()

    res: Dict[str, Any] = {
        "tree": tree_name,
        "config": config,
        "n_keys": len(sorted_keys),
        "build_hope_s": t_build,
        "load_s": t_load,
        "tree_memory_bytes": tree_memory,
        "memory_bytes": tree_memory + (hope.dict_memory_bytes() if hope else 0),
        "height": tree.avg_leaf_depth() if hasattr(tree, "avg_leaf_depth") else None,
        "cpr": (sum(map(len, load_keys)) / max(1, sum(map(len, tree_load)))) if hope else 1.0,
    }

    # Every op's result is checked after its timed stream, against the encoded keys.
    enc_of = dict(zip(keys, tree_load + tree_ins))

    def fail(what: str):
        raise RuntimeError(f"{tree_name}/{config}: {what}")

    # ---- point queries (YCSB C) ---------------------------------------
    point_qs = workload_c(load_keys, n_queries, seed)
    is_filter = tree_name == "surf"
    probe = tree.may_contain if is_filter else tree.lookup
    t0 = time.perf_counter()
    got = [probe(enc(q)[0] if enc else q) for q in point_qs]
    res["point_ns"] = (time.perf_counter() - t0) / len(point_qs) * 1e9
    res["point_hit_rate"] = (sum(got) if is_filter else sum(g is not None for g in got)) / len(point_qs)
    # a filter has no false negatives; a tree returns the loaded value, the key's rank
    want = [True] * len(point_qs) if is_filter else [bisect_left(sorted_keys, enc_of[q]) for q in point_qs]
    if got != want:
        fail("a point lookup does not return the loaded value")

    # ---- range queries -------------------------------------------------
    if is_filter:
        ranges = surf_range_queries(load_keys, n_queries, seed)
        t0 = time.perf_counter()
        nonempty = []
        for lo, hi in ranges:
            if enc:
                lo, hi = enc(lo)[0], enc(hi)[0]
            nonempty.append(tree.may_contain_range(lo, hi))
        res["range_ns"] = (time.perf_counter() - t0) / len(ranges) * 1e9
        res["insert_ns"] = None  # SuRF is batch-built only
        if not all(nonempty):  # each range starts at a loaded key
            fail("a range holding a loaded key is reported empty")
    else:
        t_op = {"scan": 0.0, "insert": 0.0}
        n_op = {"scan": 0, "insert": 0}
        ops = workload_e(load_keys, insert_keys, n_queries, seed)
        results = []
        for op, k, slen in ops:
            t0 = time.perf_counter()
            tq = enc(k)[0] if enc else k
            got = tree.scan(tq, slen) if op == "scan" else tree.insert(tq, -1)
            t_op[op] += time.perf_counter() - t0
            n_op[op] += 1
            results.append(got)
        res["range_ns"] = t_op["scan"] / max(1, n_op["scan"]) * 1e9
        res["insert_ns"] = t_op["insert"] / n_op["insert"] * 1e9 if n_op["insert"] else None
        inserted = [enc_of[k] for op, k, _ in ops if op == "insert"]
        if len(tree) != len(sorted_keys) + len(inserted) or any(tree.lookup(k) != -1 for k in inserted):
            fail("the tree does not hold the inserted keys")
        # each scan returns the keys a sorted-list oracle holds at that point of the stream
        oracle = list(sorted_keys)
        for (op, k, slen), got in zip(ops, results):
            tq = enc_of[k]
            if op == "insert":
                insort(oracle, tq)
                continue
            i = bisect_left(oracle, tq)
            if [key for key, _ in got] != oracle[i : i + slen]:
                fail(f"a scan of {slen} keys from {tq!r} does not return the next keys in order")
    return res
