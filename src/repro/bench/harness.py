"""Tree x scheme x dataset measurement harness (paper §7 experiments).

A cell of Figures 10/12/16 is a load stage plus the op streams its figure
reports. ``load_cell`` builds HOPE on a 1 % sample, encodes the keys, sorts
them and bulk-loads the search tree on the (encoded) keys; its record times
each stage and holds memory (the tree's analytic footprint plus the HOPE
dictionary: "HOPE size included"), height, CPR and the mean input key
length. Each stream times its ops **including the query-key encoding
overhead**, the paper's central trade-off. ``points`` (YCSB C) adds
``point_ns`` and ``point_hit_rate``; ``ranges`` (SuRF's closed ranges, each
bound encoded, or YCSB-E scans, only the start key encoded, and inserts)
adds ``range_ns`` and ``insert_ns``. ``run_tree_bench`` runs the streams it
is given: Fig. 10 both (the default), Fig. 12 points only, Fig. 16 ranges
only. After its timed stream every op is checked: a lookup returns the
loaded value (a filter, True), a scan the next keys of a sorted-list oracle
that also takes the inserts, a SuRF range from a loaded key is not empty,
each inserted key is found. A wrong result fails the cell (``RuntimeError``).

Tree keys are the zero-padded code bytes alone: HOPE's padded codes are
injective and order-preserving (proof in ``core.strutil``), so unique
source keys load as unique tree keys, which the harness asserts.
"""
from __future__ import annotations

import time
from bisect import bisect_left, insort
from collections import namedtuple
from typing import Any, Dict, Optional, Sequence

from ..core.hope import build_hope
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


# What a cell's op streams run on and check against: ``sorted_keys`` are the loaded tree keys
# (a key's value is its rank), ``enc_of`` maps each source key, held-out ones too, to its tree key.
Cell = namedtuple("Cell", "tree hope record load_keys insert_keys sorted_keys enc_of")


def _fail(cell: Cell, what: str):
    raise RuntimeError(f"{cell.record['tree']}/{cell.record['config']}: {what}")


def load_cell(tree_name: str, config: str, keys: Sequence[bytes]) -> Cell:
    """The load stage. ``keys`` must be unique (``ValueError`` otherwise); order arbitrary."""
    cfg = CONFIGS[config]
    keys = list(keys)
    n_hold = max(1, int(len(keys) * 0.05))  # held back for the insert stream
    load_keys, insert_keys = keys[:-n_hold], keys[-n_hold:]

    sample = load_keys[: max(10, int(len(load_keys) * 0.01))]
    t0 = time.perf_counter()
    hope = build_hope(cfg["scheme"], sample, max_dict_entries=cfg.get("dict", 1 << 16)) if cfg else None
    t1 = time.perf_counter()
    enc = hope.dictionary.encode if hope else None
    tree_keys = [enc(k)[0] for k in keys] if enc else keys  # the held-out insert keys too
    t2 = time.perf_counter()
    tree_load = tree_keys[:-n_hold]

    # unique keys must encode to distinct bytes, held-out insert keys included
    check_strictly_increasing(sorted(tree_keys))
    tree = make_tree(tree_name)
    t3 = time.perf_counter()
    sorted_keys = sorted(tree_load)
    t4 = time.perf_counter()
    tree.build(sorted_keys, list(range(len(sorted_keys))))
    t5 = time.perf_counter()
    tree_memory = tree.memory_bytes()

    record: Dict[str, Any] = {
        "tree": tree_name, "config": config, "n_keys": len(sorted_keys),
        "build_hope_s": t1 - t0, "encode_s": t2 - t1, "sort_s": t4 - t3, "load_s": t5 - t4,
        "tree_memory_bytes": tree_memory,
        "memory_bytes": tree_memory + (hope.dict_memory_bytes() if hope else 0),
        "height": tree.avg_leaf_depth() if hasattr(tree, "avg_leaf_depth") else None,
        "cpr": (sum(map(len, load_keys)) / max(1, sum(map(len, tree_load)))) if hope else 1.0,
        "mean_key_len": sum(map(len, keys)) / len(keys),
    }
    return Cell(tree, hope, record, load_keys, insert_keys, sorted_keys, dict(zip(keys, tree_keys)))


def point_stream(cell: Cell, n_queries: int, seed: int) -> Dict[str, Any]:
    """YCSB-C point lookups; each returns the loaded value (a filter: True)."""
    enc = cell.hope.dictionary.encode if cell.hope else None
    point_qs = workload_c(cell.load_keys, n_queries, seed)
    is_filter = cell.record["tree"] == "surf"
    probe = cell.tree.may_contain if is_filter else cell.tree.lookup
    t0 = time.perf_counter()
    got = [probe(enc(q)[0] if enc else q) for q in point_qs]
    res = {"point_ns": (time.perf_counter() - t0) / len(point_qs) * 1e9,
           "point_hit_rate": (sum(got) if is_filter else sum(g is not None for g in got)) / len(point_qs)}
    # a filter has no false negatives; a tree returns the loaded value, the key's rank
    want = [True] * len(point_qs) if is_filter else [bisect_left(cell.sorted_keys, cell.enc_of[q]) for q in point_qs]
    if got != want:
        _fail(cell, "a point lookup does not return the loaded value")
    return res


def range_stream(cell: Cell, n_queries: int, seed: int) -> Dict[str, Any]:
    """SuRF: closed ranges, each bound encoded. A tree: YCSB-E scans and inserts of held-out keys."""
    tree, enc = cell.tree, cell.hope.dictionary.encode if cell.hope else None
    if cell.record["tree"] == "surf":
        ranges = surf_range_queries(cell.load_keys, n_queries, seed)
        t0 = time.perf_counter()
        nonempty = []
        for lo, hi in ranges:
            if enc:
                lo, hi = enc(lo)[0], enc(hi)[0]
            nonempty.append(tree.may_contain_range(lo, hi))
        res = {"range_ns": (time.perf_counter() - t0) / len(ranges) * 1e9, "insert_ns": None}  # batch-built only
        if not all(nonempty):  # each range starts at a loaded key
            _fail(cell, "a range holding a loaded key is reported empty")
        return res
    t_op, n_op = {"scan": 0.0, "insert": 0.0}, {"scan": 0, "insert": 0}
    ops = workload_e(cell.load_keys, cell.insert_keys, n_queries, seed)
    results = []
    for op, k, slen in ops:
        t0 = time.perf_counter()
        tq = enc(k)[0] if enc else k
        got = tree.scan(tq, slen) if op == "scan" else tree.insert(tq, -1)
        t_op[op] += time.perf_counter() - t0
        n_op[op] += 1
        results.append(got)
    res = {"range_ns": t_op["scan"] / max(1, n_op["scan"]) * 1e9,
           "insert_ns": t_op["insert"] / n_op["insert"] * 1e9 if n_op["insert"] else None}
    inserted = [cell.enc_of[k] for op, k, _ in ops if op == "insert"]
    if len(tree) != len(cell.sorted_keys) + len(inserted) or any(tree.lookup(k) != -1 for k in inserted):
        _fail(cell, "the tree does not hold the inserted keys")
    # each scan returns the keys a sorted-list oracle holds at that point of the stream
    oracle = list(cell.sorted_keys)
    for (op, k, slen), got in zip(ops, results):
        tq = cell.enc_of[k]
        if op == "insert":
            insort(oracle, tq)
            continue
        i = bisect_left(oracle, tq)
        if [key for key, _ in got] != oracle[i : i + slen]:
            _fail(cell, f"a scan of {slen} keys from {tq!r} does not return the next keys in order")
    return res


STREAMS = {"points": point_stream, "ranges": range_stream}


def run_tree_bench(tree_name: str, config: str, keys: Sequence[bytes], *, n_queries: int = 2000,
                   seed: int = 0, streams: Sequence[str] = tuple(STREAMS)) -> Dict[str, Any]:
    """One experiment cell: ``load_cell``'s record plus what each of ``streams`` adds, in that order."""
    cell = load_cell(tree_name, config, keys)
    for name in streams:  # by default the point stream runs before the inserts change the tree
        cell.record.update(STREAMS[name](cell, n_queries, seed))
    return cell.record
