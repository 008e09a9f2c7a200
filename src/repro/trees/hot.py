"""Height Optimized Trie (HOT) substrate [18] (paper §5) — simplified.

HOT's defining ideas, which we keep:

* it stores only the **branching points** of the key set — a binary
  Patricia trie over discriminative bit positions, so non-branching
  key bytes are never stored (maximally "optimistic" partial keys; the
  paper's §7.2 explanation for HOT's diluted HOPE gains);
* binary branching points are **combined across trie levels into
  compound nodes of fanout <= 32**, guaranteeing low height;
* leaves are 8-byte value pointers; full keys live with the record and
  are only used for final verification (counted outside the index).

Simplifications vs. the real C++ HOT (documented in DESIGN.md): the
compound grouping is a greedy top-down packing of up to 5 binary
levels, recomputed after inserts for accounting, and the in-node layout
cost is modelled as 16 B header + 10 B per entry (sparse partial key +
pointer) rather than HOT's bit-packed SIMD layouts.

Keys are expanded 8→9 bits per byte (a leading 1, then the byte) with
a 0-terminator, so prefix keys order correctly and every pair of
distinct keys has a well-defined discriminative bit.
"""
from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..core.strutil import check_strictly_increasing, lcp_len
from . import gc_paused, values_for

MAX_COMPOUND_FANOUT = 32
_COMPOUND_LEVELS = 5  # 2^5 = 32
HEADER_BYTES = 16
ENTRY_BYTES = 10  # 2B sparse partial key + 8B pointer
LEAF_BYTES = 8


def key_bit(key: bytes, pos: int) -> int:
    """Bit ``pos`` of the 9-bit-per-byte expansion of ``key``."""
    byte_i, bit_j = divmod(pos, 9)
    if byte_i >= len(key):
        return 0
    if bit_j == 0:
        return 1  # byte-present marker: terminator (0) sorts first
    return (key[byte_i] >> (8 - bit_j)) & 1


def first_diff_bit(a: bytes, b: bytes) -> int:
    """First position where the 9-bit expansions of two distinct keys differ."""
    i = lcp_len(a, b)
    if i == min(len(a), len(b)):
        if len(a) == len(b):
            raise ValueError("keys are equal")
        return i * 9  # prefix pair: differ at the byte-present marker bit
    # bit j in 1..8 of a byte group is byte bit 8 - j: the highest set bit of the XOR
    return i * 9 + 9 - (a[i] ^ b[i]).bit_length()


class _PLeaf:
    __slots__ = ("key", "value")

    def __init__(self, key: bytes, value: Any) -> None:
        self.key = key
        self.value = value


class _PNode:
    __slots__ = ("bitpos", "left", "right", "max_key")

    def __init__(self, bitpos: int, left: Any, right: Any) -> None:
        self.bitpos = bitpos
        self.left = left
        self.right = right
        self.max_key: bytes = b""


def _close(path: List[_PNode], below: Any, last: bytes, p: int) -> Any:
    """Pop the nodes of ``path`` that branch at a bit after ``p``, deepest
    first, each taking the subtree so far as its right child and ``last``
    as its ``max_key``; return the subtree they form."""
    while path and path[-1].bitpos > p:
        node = path.pop()
        node.right, node.max_key = below, last
        below = node
    return below


class HOT:
    """Simplified Height Optimized Trie over ``bytes`` keys."""

    def __init__(self) -> None:
        self.root: Optional[Any] = None
        self.n_keys = 0

    # -- build -----------------------------------------------------------
    @gc_paused()
    def build(self, keys: Sequence[bytes], values: Optional[Sequence[Any]] = None) -> None:
        """Bulk-load strictly increasing keys, replacing the tree's contents.

        The Patricia trie is the Cartesian tree of the adjacent keys'
        ``first_diff_bit``s: the smallest bit of a key range splits it.
        One pass keeps the rightmost path on a stack; each node gets its
        right child and ``max_key`` when it leaves the stack. ``values``
        (default ``0..n-1``) must be as long as ``keys``.
        """
        check_strictly_increasing(keys)
        values = values_for(keys, values)
        self.n_keys = len(keys)
        self.root = None
        if not keys:
            return
        pairs = zip(keys, values)
        prev, value = next(pairs)
        below: Any = _PLeaf(prev, value)  # the subtree that ends at prev, below the path
        path: List[_PNode] = []  # root first, bit positions increasing; no right child yet
        for key, value in pairs:
            p = first_diff_bit(prev, key)
            below = _close(path, below, prev, p)
            path.append(_PNode(p, below, None))
            below, prev = _PLeaf(key, value), key
        self.root = _close(path, below, prev, -1)

    # -- insert ----------------------------------------------------------
    def insert(self, key: bytes, value: Any) -> None:
        if self.root is None:
            self.root = _PLeaf(key, value)
            self.n_keys = 1
            return
        # Patricia two-pass insert: blind walk to any leaf, find the
        # discriminative bit, then insert at the right depth.
        node = self.root
        while isinstance(node, _PNode):
            node = node.right if key_bit(key, node.bitpos) else node.left
        if node.key == key:
            node.value = value
            return
        p = first_diff_bit(key, node.key)
        new_leaf = _PLeaf(key, value)
        parent = None
        cur = self.root
        went_right = False
        while isinstance(cur, _PNode) and cur.bitpos < p:
            cur.max_key = max(cur.max_key, key)
            parent = cur
            went_right = bool(key_bit(key, cur.bitpos))
            cur = cur.right if went_right else cur.left
        merged = _PNode(p, cur, new_leaf) if key_bit(key, p) else _PNode(p, new_leaf, cur)
        merged.max_key = max(key, cur.max_key if cur.__class__ is _PNode else cur.key)
        if parent is None:
            self.root = merged
        elif went_right:
            parent.right = merged
        else:
            parent.left = merged
        self.n_keys += 1

    # -- queries ---------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[Any]:
        node = self.root
        if node is None:
            return None
        while isinstance(node, _PNode):
            node = node.right if key_bit(key, node.bitpos) else node.left
        # branching points only -> verify against the record's full key
        return node.value if node.key == key else None

    def scan(self, start: bytes, count: int) -> List[Tuple[bytes, Any]]:
        """Up to ``count`` (key, value) pairs with key >= ``start``, in key
        order: a stack walk, left child on top, that skips every subtree
        whose ``max_key`` is below ``start``."""
        out: List[Tuple[bytes, Any]] = []
        stack = [self.root] if self.root is not None else []
        while stack and len(out) < count:
            node = stack.pop()
            if node.__class__ is _PNode:
                if node.max_key >= start:
                    stack += (node.right, node.left)
            elif node.key >= start:
                out.append((node.key, node.value))
        return out

    # -- compound packing (memory + height model) ------------------------
    def _compound_stats(self) -> Tuple[int, int, float]:
        """(num_compound_nodes, total_entries, avg_leaf_compound_depth).

        Greedy top-down packing: each compound node absorbs up to
        ``_COMPOUND_LEVELS`` binary levels of the Patricia trie
        (fanout <= 32); its exits become child compounds or leaves.
        """
        if self.root is None or isinstance(self.root, _PLeaf):
            return (0, 0, 0.0) if self.root is None else (0, 1, 1.0)
        n_nodes = 0
        n_entries = 0
        depth_sum = 0
        n_leaves = 0
        stack: List[Tuple[Any, int]] = [(self.root, 1)]
        while stack:
            node, cdepth = stack.pop()
            n_nodes += 1
            # collect exits of up to _COMPOUND_LEVELS binary levels
            frontier: List[Any] = [node]
            for _ in range(_COMPOUND_LEVELS):
                nxt: List[Any] = []
                for f in frontier:
                    if isinstance(f, _PNode):
                        nxt.append(f.left)
                        nxt.append(f.right)
                    else:
                        nxt.append(f)
                if len(nxt) > MAX_COMPOUND_FANOUT:
                    break
                frontier = nxt
            for f in frontier:
                n_entries += 1
                if isinstance(f, _PNode):
                    stack.append((f, cdepth + 1))
                else:
                    depth_sum += cdepth
                    n_leaves += 1
        avg_depth = depth_sum / max(1, n_leaves)
        return n_nodes, n_entries, avg_depth

    def memory_bytes(self) -> int:
        n_nodes, n_entries, _ = self._compound_stats()
        return n_nodes * HEADER_BYTES + n_entries * ENTRY_BYTES + self.n_keys * LEAF_BYTES

    def avg_leaf_depth(self) -> float:
        return self._compound_stats()[2]

    def __len__(self) -> int:
        return self.n_keys
