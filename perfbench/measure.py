"""Helpers the workloads share: inputs, the closed loop, latency and layer metrics."""
from __future__ import annotations

import math
import pickle
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

now_ns = time.perf_counter_ns

# The key corpus is fixed, as the paper's datasets are; ``--seed`` draws the
# key order, and with it the HOPE sample, the insert pool and the queries.
# A corpus drawn per seed would move average key length by ~10 % between
# seeds, and every metric with it.
CORPUS_SEED = 0


def seeded_corpus(make_keys: Callable[[int, int], List[bytes]], n: int, seed: int) -> List[bytes]:
    """``n`` keys of the fixed corpus in an order drawn from ``seed``."""
    keys = make_keys(n, CORPUS_SEED)
    return [keys[i] for i in np.random.default_rng(seed).permutation(n)]


@dataclass
class Result:
    """Metric values by name, plus the counts and facts printed beside them.

    ``metrics`` holds the end-to-end metrics of an untraced run or the
    per-layer metrics of a traced run. ``details`` are extra printed
    lines ``(name, value, unit, note)``, such as latency per op kind.
    """

    metrics: Dict[str, float]
    attempted: int
    failed: int
    scale: Dict[str, object]
    details: List[Tuple[str, float, str, str]] = field(default_factory=list)


def median(xs: Iterable[float]) -> float:
    return statistics.median(list(xs))


def latency_us(ns: Sequence[int]) -> Tuple[float, float, str]:
    """(p50 µs, p99 µs, note) with nearest-rank percentiles.

    The note gives the sample count and how many samples lie beyond p99;
    below 1 000 samples that is under ten, and p99 is close to the maximum.
    """
    xs = sorted(ns)
    n = len(xs)
    r50 = math.ceil(0.50 * n)
    r99 = math.ceil(0.99 * n)
    return xs[r50 - 1] / 1e3, xs[r99 - 1] / 1e3, f"n={n}, {n - r99} beyond p99"


# Host speed. On the shared 4-core x86-64 host this was written on, the same
# pure-Python loop runs up to 35 % slower for seconds at a time, which moves
# every op timing by as much from run to run. Op times are therefore also
# given at a reference speed: a short calibration loop runs between slices
# of ops (about 8 % of the time), and each slice's times are scaled by
# CAL_REF_NS / (mean calibration time around it). Over 10 s windows this cut
# the run-to-run spread of ycsb-c ops/s from ~15 % to ~4 % there. Set-up times
# and Spark jobs are not scaled; the printed lines give raw op times too.
CAL_REF_NS = 1_500_000  # about the loop's time on that host when it is not slowed
SLICE_NS = 20_000_000
SMOOTH_SLICES = 25  # each slice is scaled by the host speed over about a second around it


def calibration_ns() -> int:
    """Time of one pass of a fixed interpreter-bound loop: the host's current speed."""
    t0 = now_ns()
    s = 0
    for i in range(10_000):
        s += i * i % 7
    d: Dict[bytes, int] = {}
    b = bytes(range(256)) * 4
    for i in range(2_000):
        k = b[i & 511 : (i & 511) + 8]
        d[k] = d.get(k, 0) + 1
    return now_ns() - t0


@dataclass
class Loop:
    """Latencies of a closed loop in ns, raw and at reference speed; factor = sum(ref) / sum(raw)."""

    raw: List[float]
    ref: List[float]
    failed: int
    factor: float

    def ops_per_s(self, ref: bool = True) -> float:
        lat = self.ref if ref else self.raw
        return len(lat) / (sum(lat) / 1e9)


def closed_loop(stream: Iterable, op: Callable, check: Callable, seconds: float) -> Loop:
    """One client: run ``op(item)`` for each item, back to back, for ``seconds``.

    Each op is timed alone; ``check(item, result)`` runs outside the
    timer and returns False for a failed op. The calibration loop runs
    after every SLICE_NS of ops; a slice's latencies are scaled by the
    mean of the calibrations within SMOOTH_SLICES of it. Stops early if
    ``stream`` runs out.
    """
    raw: List[float] = []
    ends: List[int] = []  # index in ``raw`` where each slice ends
    failed = 0
    cal = [calibration_ns()]  # cal[i] runs just before slice i
    deadline = now_ns() + int(seconds * 1e9)
    slice_end = now_ns() + SLICE_NS
    for item in stream:
        t0 = now_ns()
        res = op(item)
        t1 = now_ns()
        raw.append(t1 - t0)
        if not check(item, res):
            failed += 1
        if t1 >= slice_end:
            ends.append(len(raw))
            if t1 >= deadline:
                break
            cal.append(calibration_ns())
            slice_end = now_ns() + SLICE_NS
    if not ends or ends[-1] < len(raw):  # the stream ran out mid-slice
        ends.append(len(raw))
    ref: List[float] = []
    for i, end in enumerate(ends):
        near = cal[max(0, i - SMOOTH_SLICES) : i + SMOOTH_SLICES + 2]
        f = CAL_REF_NS * len(near) / sum(near)
        ref.extend(x * f for x in raw[len(ref) : end])
    return Loop(raw, ref, failed, sum(ref) / sum(raw))


class EncodeClock:
    """Calls ``enc`` and sums the ns spent in it: the encode share of each op."""

    def __init__(self, enc: Callable) -> None:
        self.enc = enc
        self.ns = 0

    def __call__(self, key: bytes):
        t0 = now_ns()
        res = self.enc(key)
        self.ns += now_ns() - t0
        return res


def trace_overhead(untraced: Loop, traced: Loop) -> Dict[str, float]:
    """ops_per_s (at reference speed) of the untraced and traced halves of a traced run."""
    u, t = untraced.ops_per_s(), traced.ops_per_s()
    return {"trace.untraced_ops_per_s": u, "trace.traced_ops_per_s": t, "trace.overhead_frac": 1 - t / u}


def build_and_dictionary_metrics(hope, hope_build_s: float) -> Dict[str, float]:
    """Per-layer metrics of the build modules and the dictionary of a built HOPE."""
    d = hope.dictionary
    t0 = now_ns()
    blob = pickle.dumps(d, protocol=pickle.HIGHEST_PROTOCOL)
    t1 = now_ns()
    pickle.loads(blob)
    t2 = now_ns()
    return {
        "hope.build_s": hope_build_s,
        "symbol_select.s": hope.build_times["symbol_select"],
        "code_assign.s": hope.build_times["code_assign"],
        "dictionary.build_s": hope.build_times["dict_build"],
        "dictionary.entries": hope.dict_entries,
        "dictionary.memory_bytes": hope.dict_memory_bytes(),
        "dictionary.max_boundary_len": d.max_boundary_len,
        "dictionary.pickle_bytes": len(blob),
        "dictionary.pickle_dumps_s": (t1 - t0) / 1e9,
        "dictionary.pickle_loads_s": (t2 - t1) / 1e9,
    }


def lookups_per_key(hope, keys: Sequence[bytes]) -> float:
    """Dictionary lookups per encoded key, counted by wrapping the instance's lookup."""
    d = hope.dictionary
    inner = d.lookup
    calls = 0

    def counting(src, pos):
        nonlocal calls
        calls += 1
        return inner(src, pos)

    d.lookup = counting
    try:
        for k in keys:
            hope.encode(k)
    finally:
        del d.lookup
    return calls / len(keys)
