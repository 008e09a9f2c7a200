"""SuRF — Succinct Range Filter substrate [52] (paper §5).

A static, batch-built trie filter. Each key is truncated to its
shortest unique prefix; SuRF-Real additionally stores the first
``suffix_bits`` bits of the remaining key to cut false positives.

The logical structure (truncated byte-trie) is explicit; the *memory
model* is SuRF's LOUDS-Sparse encoding: 10 bits per trie edge (8-bit
label + has-child + louds bit) plus ``suffix_bits`` per key — the
"close to the theoretical optimum" accounting of §2. Python pointers
are irrelevant to the reported numbers.

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

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

from ..core.strutil import lcp_len


class _SNode:
    __slots__ = ("children", "leaf_suffix", "is_prefix_key")

    def __init__(self) -> None:
        self.children: Dict[int, "_SNode"] = {}
        self.leaf_suffix: Optional[int] = None  # stored suffix bits (or -1 = none)
        self.is_prefix_key = False


class SuRF:
    """Succinct Range Filter over a static sorted key set."""

    def __init__(self, suffix_bits: int = 8):
        self.suffix_bits = suffix_bits
        self.root = _SNode()
        self.n_keys = 0
        self._trunc: List[bytes] = []  # truncated keys, sorted
        self._sufs: List[int] = []
        self._heights: List[int] = []

    # -- build -----------------------------------------------------------
    def build(self, keys: Sequence[bytes], values=None) -> None:
        """Batch-build from sorted unique keys (SuRF is build-once)."""
        keys = list(keys)
        self.n_keys = len(keys)
        for i, k in enumerate(keys):
            l = 0
            if i > 0:
                l = max(l, lcp_len(keys[i - 1], k))
            if i + 1 < len(keys):
                l = max(l, lcp_len(k, keys[i + 1]))
            tlen = min(l + 1, len(k))
            trunc = k[:tlen]
            suffix = self._suffix_of(k, tlen)
            node = self.root
            for b in trunc:
                nxt = node.children.get(b)
                if nxt is None:
                    nxt = _SNode()
                    node.children[b] = nxt
                node = nxt
            if node.children:
                node.is_prefix_key = True  # key ends at an internal node
            node.leaf_suffix = suffix
            self._trunc.append(trunc)
            self._sufs.append(suffix)
            self._heights.append(tlen)

    def _suffix_of(self, key: bytes, tlen: int) -> int:
        """First ``suffix_bits`` bits of the key remainder (SuRF-Real)."""
        if self.suffix_bits == 0:
            return 0
        rest = key[tlen : tlen + (self.suffix_bits + 7) // 8 + 1]
        acc = 0
        have = 0
        for b in rest:
            acc = (acc << 8) | b
            have += 8
        if have >= self.suffix_bits:
            acc >>= have - self.suffix_bits
        else:
            acc <<= self.suffix_bits - have
        return acc

    # -- queries ---------------------------------------------------------
    def may_contain(self, key: bytes) -> bool:
        node = self.root
        depth = 0
        while True:
            if node.leaf_suffix is not None:
                if node.leaf_suffix == self._suffix_of(key, depth):
                    return True  # stored key may be this query (or a FP)
                if not node.children:
                    return False  # pure leaf, nothing deeper to try
            if depth >= len(key):
                return False
            child = node.children.get(key[depth])
            if child is None:
                return False
            node = child
            depth += 1

    def may_contain_range(self, lo: bytes, hi: bytes) -> bool:
        """True if some stored key may lie in ``[lo, hi]`` (approximate).

        Implements moveToKeyGreaterThan(lo) over the truncated keys +
        suffix bits (the sorted array is our LOUDS rank/select
        surrogate), then compares the found entry against ``hi`` at
        stored precision: comparisons that are ties at the stored
        granularity conservatively return True (filter semantics).
        """
        if not self._trunc:
            return False
        # smallest stored entry whose (trunc, suffix) can be >= lo
        i = bisect_left(self._trunc, lo)
        # the entry before could still reach >= lo: it is a prefix of lo
        # (truncation) — check it conservatively
        if i > 0 and lo.startswith(self._trunc[i - 1]):
            i -= 1
        while i < len(self._trunc):
            t = self._trunc[i]
            if t > hi:
                return False
            if lo.startswith(t) or t >= lo:
                # stored key extends t; can it be <= hi?
                if t <= hi:
                    return True
            i += 1
        return False

    # -- metrics ---------------------------------------------------------
    def memory_bytes(self) -> int:
        edges = 0
        stack = [self.root]
        while stack:
            n = stack.pop()
            edges += len(n.children)
            stack.extend(n.children.values())
        bits = 10 * edges + self.suffix_bits * self.n_keys + self.n_keys  # +prefix-key bits
        return (bits + 7) // 8

    def avg_leaf_depth(self) -> float:
        return sum(self._heights) / max(1, len(self._heights))

    def false_positive_rate(self, negatives: Sequence[bytes]) -> float:
        if not negatives:
            return 0.0
        fp = sum(1 for k in negatives if self.may_contain(k))
        return fp / len(negatives)

    def __len__(self) -> int:
        return self.n_keys
