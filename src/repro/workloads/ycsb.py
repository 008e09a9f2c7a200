"""YCSB-style workload generation (paper §7.1).

The paper uses YCSB workloads C (read-only point queries) and E
(95 % short range scans / 5 % inserts) with a Zipf request
distribution, replacing YCSB's keys 1-to-1 with the dataset keys so
the Zipf rank structure is preserved. We reproduce exactly that:

* ``zipf_draw``     — Zipf ranks as ``Generator.choice`` draws them, CDF cached;
* ``zipf_indices``  — Zipfian ranks over the loaded key population
  (YCSB's scrambled-Zipf theta ~= 0.99 by default);
* ``workload_c``    — point lookups on dataset keys;
* ``workload_e``    — (op, key, scan_len) with scan lengths uniform in
  [1, 100] (YCSB E) and inserts drawn from a held-out key pool;
* ``surf_range_queries`` — SuRF's (start, start-with-last-byte+1)
  closed-range probes (§7.1).

Everything is deterministic in ``seed``.
"""
from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

ZIPF_THETA = 0.99
MAX_SCAN_LEN = 100


@lru_cache(maxsize=16)
def _zipf_cdf(n: int, alpha: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** (-alpha)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False  # one cached array serves every caller
    return cdf


def zipf_draw(g: np.random.Generator, n: int, size: int, alpha: float) -> np.ndarray:
    """``size`` ranks in [0, n), rank r drawn with weight (r+1)^-alpha: draw for draw
    ``g.choice(n, size, p=weights)``, whose inverse-CDF search this is."""
    return _zipf_cdf(n, alpha).searchsorted(g.random(size), side="right")


def zipf_indices(n_keys: int, n_queries: int, seed: int, theta: float = ZIPF_THETA) -> np.ndarray:
    """Zipfian ranks in [0, n_keys), scrambled over the key space."""
    g = np.random.default_rng(seed)
    idx = zipf_draw(g, n_keys, n_queries, theta)
    # scramble rank -> key position so hot keys are spread over the axis
    return g.permutation(n_keys)[idx]


def workload_c(keys: Sequence[bytes], n_queries: int, seed: int = 0) -> List[bytes]:
    """Point-query key stream (YCSB C) over the loaded keys."""
    idx = zipf_indices(len(keys), n_queries, seed)
    return [keys[i] for i in idx]


def workload_e(
    keys: Sequence[bytes],
    insert_pool: Sequence[bytes],
    n_queries: int,
    seed: int = 0,
) -> List[Tuple[str, bytes, int]]:
    """(op, key, scan_len) stream: 95% SCAN / 5% INSERT (YCSB E)."""
    g = np.random.default_rng(seed + 7)
    idx = zipf_indices(len(keys), n_queries, seed)
    scan_lens = g.integers(1, MAX_SCAN_LEN + 1, size=n_queries)
    is_insert = g.random(n_queries) < 0.05
    out: List[Tuple[str, bytes, int]] = []
    ins_i = 0
    for q in range(n_queries):
        if is_insert[q] and ins_i < len(insert_pool):
            out.append(("insert", insert_pool[ins_i], 0))
            ins_i += 1
        else:
            out.append(("scan", keys[idx[q]], int(scan_lens[q])))
    return out


def surf_range_queries(keys: Sequence[bytes], n_queries: int, seed: int = 0) -> List[Tuple[bytes, bytes]]:
    """SuRF range probes: [k, k'] where k' copies k with last byte + 1."""
    qs = workload_c(keys, n_queries, seed)
    out = []
    for k in qs:
        if k and k[-1] < 0xFF:
            hi = k[:-1] + bytes([k[-1] + 1])
        else:
            hi = k + b"\x01"
        out.append((k, hi))
    return out
