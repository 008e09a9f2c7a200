"""SuRF — Succinct Range Filter substrate [52] (paper §5).

A static, batch-built trie filter. Each key is truncated to its
shortest unique prefix; SuRF-Real additionally stores the first
``suffix_bits`` bits of the remaining key to cut false positives.

The runtime structure is one sorted list of the truncated keys plus a
parallel list of their suffix bits; ``bisect`` over it answers what a
walk of the truncated byte-trie would. The *memory model* is SuRF's
LOUDS-Sparse encoding: 10 bits per trie edge (8-bit label + has-child +
louds bit) plus ``suffix_bits`` and one prefix-key bit per key — the
"close to the theoretical optimum" accounting of §2. The trie is never
built: its edges are the distinct non-empty prefixes of the truncated
keys (``strutil.distinct_prefixes``).

Supported operations, as in the paper's YCSB setup:

* ``may_contain(key)``         — approximate point membership (one-sided:
  no false negatives for loaded keys);
* ``may_contain_range(lo, hi)``— approximate emptiness test for
  ``[lo, hi]``, the (start, start-with-last-byte+1) query of §7.1;
* ``avg_leaf_depth``           — trie height metric of Figure 10;
* ``false_positive_rate``      — measured on supplied negative keys
  (Figure 11).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Sequence

from ..core.strutil import check_strictly_increasing, distinct_prefixes, lcp_len
from . import gc_paused


class SuRF:
    """Succinct Range Filter over a static sorted key set."""

    def __init__(self, suffix_bits: int = 8):
        self.suffix_bits = suffix_bits
        self.n_keys = 0
        self._trunc: List[bytes] = []  # truncated keys, sorted
        self._sufs: List[int] = []  # their suffix bits

    # -- build -----------------------------------------------------------
    @gc_paused()
    def build(self, keys: Sequence[bytes], values=None) -> None:
        """Batch-build from sorted unique keys, replacing an earlier build (SuRF is static).

        A key is cut one byte past its longest common prefix with either
        neighbour (never past its end), so no other key has the cut
        prefix unless the key is a prefix of it.
        """
        keys = list(keys)
        check_strictly_increasing(keys)
        self.n_keys = len(keys)
        self._trunc, self._sufs = [], []
        lcps = [lcp_len(a, b) for a, b in zip(keys, keys[1:])]
        before = [0] + lcps
        after = lcps + [0]
        for k, l1, l2 in zip(keys, before, after):
            tlen = min(max(l1, l2) + 1, len(k))
            self._trunc.append(k[:tlen])
            self._sufs.append(self._suffix_of(k, tlen))

    def _suffix_of(self, key: bytes, tlen: int) -> int:
        """First ``suffix_bits`` bits of the key remainder (SuRF-Real)."""
        if self.suffix_bits == 0:
            return 0
        rest = key[tlen : tlen + (self.suffix_bits + 7) // 8 + 1]
        acc, have = int.from_bytes(rest, "big"), 8 * len(rest)
        if have >= self.suffix_bits:
            acc >>= have - self.suffix_bits
        else:
            acc <<= self.suffix_bits - have
        return acc

    # -- queries ---------------------------------------------------------
    def may_contain(self, key: bytes) -> bool:
        """True iff a stored truncated key is a prefix of ``key`` with equal suffix bits.

        The greatest stored ``t <= q`` is the longest stored prefix of
        ``q`` if it is a prefix at all. If it is not, every stored prefix
        of ``q`` is a prefix of ``q[:lcp(t, q)]``; if it is but its
        suffix differs, the rest are prefixes of ``t[:-1]``.
        """
        trunc = self._trunc
        q = key
        while True:
            i = bisect_right(trunc, q) - 1
            if i < 0:
                return False
            t = trunc[i]
            if key.startswith(t):
                if self._sufs[i] == self._suffix_of(key, len(t)):
                    return True
                if not t:
                    return False
                q = t[:-1]
            else:
                q = q[: lcp_len(t, q)]

    def may_contain_range(self, lo: bytes, hi: bytes) -> bool:
        """True if some stored key may lie in ``[lo, hi]`` (approximate).

        moveToKeyGreaterThan(lo) over the truncated keys (the sorted
        list is our LOUDS rank/select surrogate) finds the last entry
        below ``lo`` if it is a prefix of ``lo``, else the first entry
        ``>= lo``. Its stored key may lie in the range iff that entry is
        ``<= hi``; ties at the stored precision conservatively return
        True (filter semantics).
        """
        trunc = self._trunc
        i = bisect_left(trunc, lo)
        if i > 0 and lo.startswith(trunc[i - 1]):
            i -= 1
        return i < len(trunc) and trunc[i] <= hi

    # -- metrics ---------------------------------------------------------
    def memory_bytes(self) -> int:
        edges = distinct_prefixes(self._trunc)
        bits = 10 * edges + self.suffix_bits * self.n_keys + self.n_keys  # +prefix-key bits
        return (bits + 7) // 8

    def avg_leaf_depth(self) -> float:
        return sum(map(len, self._trunc)) / max(1, len(self._trunc))

    def false_positive_rate(self, negatives: Sequence[bytes]) -> float:
        if not negatives:
            return 0.0
        fp = sum(1 for k in negatives if self.may_contain(k))
        return fp / len(negatives)

    def __len__(self) -> int:
        return self.n_keys
