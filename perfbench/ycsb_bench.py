"""YCSB workloads over search trees that index HOPE-encoded keys.

* ``ycsb-c-email``: YCSB-C Zipf(0.99) point lookups, email keys,
  3-Grams 64K (bitmap-trie dictionary), ART.
* ``ycsb-e-url``: YCSB-E, 95 % scans of length U[1,100] and 5 % inserts
  from a held-out pool, URL keys, Double-Char (array dictionary),
  Prefix B+tree.

Every op pays for encoding its key, as in the paper. One client runs a
closed loop. Each op is checked: a point lookup must return the loaded
key's value; a scan must equal a ``bisect`` oracle over the sorted
encoded keys, which also takes the inserts; two load keys that encode
to the same padded bytes are both failed loads.
"""
from __future__ import annotations

import gc
import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from measure import (
    EncodeClock,
    Loop,
    Result,
    build_and_dictionary_metrics,
    closed_loop,
    latency_us,
    lookups_per_key,
    median,
    now_ns,
    seeded_corpus,
    trace_overhead,
)
from repro.core.hope import HopeEncoder, build_hope
from repro.trees.art import ART
from repro.trees.bplustree import PrefixBPlusTree
from repro.workloads.datasets import email_keys, url_keys
from repro.workloads.ycsb import workload_e, zipf_indices
from tracer import Tracer, no_span

SETUP_REPEATS = 3
SAMPLE_FRAC = 0.01  # HOPE builds on a 1 % sample of the load keys (paper §6)
POINT_STREAM = 200_000  # distinct Zipf queries, cycled for as long as the run lasts
SCAN_INSERT_OPS_PER_S = 30_000  # above the ycsb-e rate per wall second with checks, so the stream outlasts the run
INSERT_SHARE = 0.05
MODEL_QUERIES = 50_000
COUNT_QUERIES = 20_000


@dataclass(frozen=True)
class Config:
    make_keys: Callable[[int, int], List[bytes]]
    n_load: int
    scheme: str
    dict_entries: int
    tree: type
    layer: str  # per-layer metric prefix of the tree


YCSB_C = Config(email_keys, 190_000, "3grams", 1 << 16, ART, "art")
YCSB_E = Config(url_keys, 48_000, "double", 1 << 16, PrefixBPlusTree, "bplustree")


@dataclass
class Loaded:
    hope: HopeEncoder
    tree: object
    oracle: List[bytes]  # sorted encoded keys in the tree
    loaded: List[int]  # source indices of the keys in the tree
    failed_loads: int
    times: Dict[str, float]
    nbits: int


def setup(cfg: Config, keys: List[bytes], tracer: Optional[Tracer] = None) -> Loaded:
    """HOPE build, encoding the load keys, sort, tree bulk-load; each step timed."""
    span = tracer.span if tracer else no_span
    sample = keys[: max(10, int(len(keys) * SAMPLE_FRAC))]
    with span("setup"):
        t0 = now_ns()
        with span("hope.build_hope"):
            hope = build_hope(cfg.scheme, sample, max_dict_entries=cfg.dict_entries)
        t1 = now_ns()
        with span("encoder.encode_load_keys"):
            enc = hope.encoder.encode
            encoded = [enc(k) for k in keys]
        t2 = now_ns()
        with span("sort"):
            order = sorted(range(len(keys)), key=lambda i: encoded[i][0])
        t3 = now_ns()
        # Padding ties: both keys of a tie are failed loads and stay out of the tree.
        tied = set()
        for a, b in zip(order, order[1:]):
            if encoded[a][0] == encoded[b][0]:
                tied.update((a, b))
        loaded = [i for i in order if i not in tied]
        oracle = [encoded[i][0] for i in loaded]
        tree = cfg.tree()
        t4 = now_ns()
        with span(f"{cfg.layer}.build"):
            tree.build(oracle, loaded)
        t5 = now_ns()
    times = {
        "hope_build": (t1 - t0) / 1e9,
        "encode_load": (t2 - t1) / 1e9,
        "sort": (t3 - t2) / 1e9,
        "tree_load": (t5 - t4) / 1e9,
    }
    times["setup"] = sum(times.values())
    nbits = sum(e[1] for e in encoded)
    return Loaded(hope, tree, oracle, loaded, len(tied), times, nbits)


def measured_run(cfg: Config, keys: List[bytes], scale, window) -> Result:
    """End-to-end metrics: set up, run ``window(ld)``, then time the other set-ups.

    The timed ops run on the first set-up, so the heap they see is the
    same as in a traced run. ``window`` returns (Loop, ns spent encoding
    query keys, extra printed lines).
    """
    ld = setup(cfg, keys)
    sizes = _size_metrics(keys, ld)
    loop, enc_ns, details = window(ld)
    failed = ld.failed_loads + loop.failed
    times = [ld.times]
    ld = None  # drop the tree before the next set-up
    for _ in range(SETUP_REPEATS - 1):
        gc.collect()
        times.append(setup(cfg, keys).times)
    p50, p99, note = latency_us(loop.ref)
    raw50, raw99, _ = latency_us(loop.raw)
    metrics = {
        "setup_s": median(t["setup"] for t in times),
        "ops_per_s": loop.ops_per_s(),
        "op_p50_us": p50,
        "op_p99_us": p99,
        "encode_keys_per_s": len(loop.raw) / (enc_ns * loop.factor / 1e9),
        **sizes,
    }
    details += [
        ("load_encode_keys_per_s", median(len(keys) / t["encode_load"] for t in times), "1/s",
         "encoding the load keys in set-up, not scaled"),
        ("raw.ops_per_s", loop.ops_per_s(ref=False), "1/s", "not scaled"),
        ("raw.op_p50_us", raw50, "us", note),
        ("raw.op_p99_us", raw99, "us", note),
    ]
    return Result(metrics, len(keys) + len(loop.raw), failed, scale, details)


def _size_metrics(keys: List[bytes], ld: Loaded) -> Dict[str, float]:
    src_bytes = sum(len(keys[i]) for i in ld.loaded)
    enc_bytes = sum(len(k) for k in ld.oracle)
    mem = ld.tree.memory_bytes() + ld.hope.dict_memory_bytes()
    return {"cpr": src_bytes / enc_bytes, "memory_bytes_per_key": mem / len(ld.loaded)}


def _layer_common(ld: Loaded, keys: List[bytes]) -> Dict[str, float]:
    return {
        **build_and_dictionary_metrics(ld.hope, ld.times["hope_build"]),
        "encoder.bits_per_key": ld.nbits / len(keys),
        "encoder.load_s": ld.times["encode_load"],
    }


# -- ycsb-c-email ------------------------------------------------------------


def _point_stream(keys: List[bytes], ld: Loaded, seed: int):
    idx = zipf_indices(len(ld.loaded), POINT_STREAM, seed)
    return [(keys[ld.loaded[i]], ld.loaded[i]) for i in idx]


def _point_window(ld: Loaded, stream, seconds: float, tracer: Optional[Tracer] = None):
    """Returns the Loop and the ns spent encoding query keys."""
    enc, lookup = ld.hope.encoder.encode, ld.tree.lookup
    if tracer:
        enc = tracer.wrap("encoder.encode", enc)
        lookup = tracer.wrap("art.lookup", lookup)
    enc = EncodeClock(enc)

    def op(item):
        return lookup(enc(item[0])[0])

    if tracer:
        op = tracer.wrap("ycsb.op", op, new_op=True)
    gc.collect()
    return closed_loop(itertools.cycle(stream), op, lambda item, v: v == item[1], seconds), enc.ns


def ycsb_c(seed: int, seconds: float, trace: bool, out_prefix: str) -> Result:
    cfg = YCSB_C
    keys = seeded_corpus(cfg.make_keys, cfg.n_load, seed)
    scale = {"load_keys": len(keys), "avg_key_len": sum(map(len, keys)) / len(keys),
             "hope": "3grams-64K, bitmap-trie dictionary", "tree": "ART"}
    if trace:
        return _ycsb_c_traced(cfg, keys, seed, seconds, scale, out_prefix)

    def window(ld):
        loop, enc_ns = _point_window(ld, _point_stream(keys, ld, seed), seconds)
        p50, p99, note = latency_us(loop.ref)
        return loop, enc_ns, [("point_p50_us", p50, "us", note), ("point_p99_us", p99, "us", note)]

    return measured_run(cfg, keys, scale, window)


def _ycsb_c_traced(cfg, keys, seed, seconds, scale, out_prefix) -> Result:
    tracer = Tracer()
    ld = setup(cfg, keys, tracer)
    stream = _point_stream(keys, ld, seed)
    untraced, _ = _point_window(ld, stream, seconds / 2)
    traced, _ = _point_window(ld, stream, seconds / 2, tracer)
    tracer.write(out_prefix + ".npz")
    s = tracer.summary()
    n_traced = s["ycsb.op"]["count"]
    traced_keys = [q for q, _ in itertools.islice(itertools.cycle(stream), n_traced)]
    enc_ns = s["encoder.encode"]["total_ns"]
    ns_per_char = enc_ns / sum(map(len, traced_keys))
    art_ns = s["art.lookup"]["self_ns"] / s["art.lookup"]["count"]
    height = ld.tree.avg_leaf_depth()

    # Paper §5: reduction = 1 - 1/cpr - l*t_enc/(h*t_tree), h = uncompressed height.
    raw = ART()
    raw.build([keys[i] for i in sorted(ld.loaded, key=keys.__getitem__)])
    model_q = stream[:MODEL_QUERIES]
    enc, lookup = ld.hope.encoder.encode, ld.tree.lookup
    gc.collect()
    hope_ns = raw_ns = 0
    for i in range(0, len(model_q), 1000):  # alternate, so host speed drift hits both alike
        chunk = model_q[i : i + 1000]
        t0 = now_ns()
        for q, _ in chunk:
            lookup(enc(q)[0])
        t1 = now_ns()
        for q, _ in chunk:
            raw.lookup(q)
        hope_ns += t1 - t0
        raw_ns += now_ns() - t1
    sizes = _size_metrics(keys, ld)
    l_chars = sum(len(q) for q, _ in model_q) / len(model_q)
    t_tree = art_ns / height
    predicted = 1 - 1 / sizes["cpr"] - l_chars * ns_per_char / (raw.avg_leaf_depth() * t_tree)

    metrics = {
        **_layer_common(ld, keys),
        "encoder.ns_per_char": ns_per_char,
        "encoder.share_of_op": enc_ns / s["ycsb.op"]["total_ns"],
        "encoder.lookups_per_key": lookups_per_key(ld.hope, traced_keys[:COUNT_QUERIES]),
        "art.lookup_ns": art_ns,
        "art.height": height,
        "art.load_s": ld.times["tree_load"],
        "art.memory_bytes": ld.tree.memory_bytes(),
        "model.t_enc_ns_per_char": ns_per_char,
        "model.t_tree_ns_per_level": t_tree,
        "model.predicted_point_delta": predicted,
        "model.observed_point_delta": 1 - hope_ns / raw_ns,
        **trace_overhead(untraced, traced),
    }
    return Result(metrics, len(keys) + len(untraced.raw) + len(traced.raw),
                  ld.failed_loads + untraced.failed + traced.failed, scale)


# -- ycsb-e-url --------------------------------------------------------------


def _scan_insert_window(ld: Loaded, ops, seconds: float, tracer: Optional[Tracer] = None):
    """Returns the Loop, the ns spent encoding query keys and the keys scanned."""
    enc, scan, insert = ld.hope.encoder.encode, ld.tree.scan, ld.tree.insert
    if tracer:
        enc = tracer.wrap("encoder.encode", enc)
        scan = tracer.wrap("bplustree.scan", scan)
        insert = tracer.wrap("bplustree.insert", insert)

    enc = EncodeClock(enc)

    def op(item):
        kind, key, slen = item
        tq = enc(key)[0]
        return tq, scan(tq, slen) if kind == "scan" else insert(tq, -1)

    if tracer:
        op = tracer.wrap("ycsb.op", op, new_op=True)

    oracle = ld.oracle
    scanned = [0]

    def check(item, res):
        kind, _, slen = item
        tq, got = res
        i = bisect_left(oracle, tq)
        if kind == "scan":
            scanned[0] += len(got)
            return [k for k, _ in got] == oracle[i : i + slen]
        tie = i < len(oracle) and oracle[i] == tq
        insort(oracle, tq)
        return not tie and ld.tree.lookup(tq) == -1

    gc.collect()
    return closed_loop(ops, op, check, seconds), enc.ns, scanned[0]


def _split(lat, ops):
    scans = [t for t, o in zip(lat, ops) if o[0] == "scan"]
    inserts = [t for t, o in zip(lat, ops) if o[0] == "insert"]
    return scans, inserts


def _ops_e(keys: List[bytes], pool: List[bytes], ld: Loaded, seconds: float, seed: int):
    n_ops = int(SCAN_INSERT_OPS_PER_S * seconds) + 1
    return workload_e([keys[i] for i in ld.loaded], pool, n_ops, seed)


def ycsb_e(seed: int, seconds: float, trace: bool, out_prefix: str) -> Result:
    cfg = YCSB_E
    n_pool = int(SCAN_INSERT_OPS_PER_S * seconds * INSERT_SHARE * 1.2) + 100
    all_keys = seeded_corpus(cfg.make_keys, cfg.n_load + n_pool, seed)
    keys, pool = all_keys[: cfg.n_load], all_keys[cfg.n_load :]
    scale = {"load_keys": len(keys), "insert_pool": len(pool),
             "avg_key_len": sum(map(len, keys)) / len(keys),
             "hope": "double, array dictionary", "tree": "Prefix B+tree"}
    if trace:
        return _ycsb_e_traced(cfg, keys, pool, seed, seconds, scale, out_prefix)

    def window(ld):
        ops = _ops_e(keys, pool, ld, seconds, seed)
        loop, enc_ns, _ = _scan_insert_window(ld, ops, seconds)
        scans, inserts = _split(loop.ref, ops)
        s50, s99, s_note = latency_us(scans)
        i50, i99, i_note = latency_us(inserts)
        return loop, enc_ns, [
            ("scan_p50_us", s50, "us", s_note), ("scan_p99_us", s99, "us", s_note),
            ("insert_p50_us", i50, "us", i_note), ("insert_p99_us", i99, "us", i_note),
        ]

    return measured_run(cfg, keys, scale, window)


def _ycsb_e_traced(cfg, keys, pool, seed, seconds, scale, out_prefix) -> Result:
    tracer = Tracer()
    ld = setup(cfg, keys, tracer)
    ops = _ops_e(keys, pool, ld, seconds, seed)
    untraced, _, _ = _scan_insert_window(ld, ops, seconds / 2)
    rest = ops[len(untraced.raw) :]
    traced, _, scanned = _scan_insert_window(ld, rest, seconds / 2, tracer)
    tracer.write(out_prefix + ".npz")
    s = tracer.summary()
    traced_ops = rest[: len(traced.raw)]
    enc_ns = s["encoder.encode"]["total_ns"]
    n_scans = s["bplustree.scan"]["count"]
    metrics = {
        **_layer_common(ld, keys),
        "encoder.ns_per_char": enc_ns / sum(len(o[1]) for o in traced_ops),
        "encoder.share_of_op": enc_ns / s["ycsb.op"]["total_ns"],
        "encoder.lookups_per_key": lookups_per_key(ld.hope, [o[1] for o in traced_ops[:COUNT_QUERIES]]),
        "bplustree.scan_ns": s["bplustree.scan"]["self_ns"] / n_scans,
        "bplustree.insert_ns": s["bplustree.insert"]["self_ns"] / s["bplustree.insert"]["count"],
        "bplustree.keys_per_scan": scanned / n_scans,
        "bplustree.load_s": ld.times["tree_load"],
        "bplustree.memory_bytes": ld.tree.memory_bytes(),
        **trace_overhead(untraced, traced),
    }
    return Result(metrics, len(keys) + len(untraced.raw) + len(traced.raw),
                  ld.failed_loads + untraced.failed + traced.failed, scale)
