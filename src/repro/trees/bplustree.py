"""TLX-style B+tree and Prefix B+tree substrates (paper §5).

``BPlusTree`` models the TLX (formerly STX) B+tree the paper uses:
fixed 256-byte nodes with fanout 16 — each slot is an 8-byte key
pointer + 8-byte value pointer, variable-length string keys live
outside the node ("reference pointers"). Memory is therefore::

    256 * num_nodes + sum(len(key) for distinct stored keys)

Inner separators are references to existing key strings (no extra key
bytes), matching the TLX string configuration.

``PrefixBPlusTree`` models Bayer/Unterauer prefix truncation + suffix
truncation [16, 25]: a leaf stores its keys' common prefix once and
only suffixes per slot; inner separators are the shortest strings that
separate adjacent leaves (materialised, so their bytes are counted).
Only the memory model is prefix-truncated: queries run the plain
``BPlusTree`` code on full keys.

Both trees support point lookup, ordered range scans via leaf links,
and single-key inserts with node splits. Keys are ``bytes``; values
are opaque (8-byte pointers in the memory model).

At run time a leaf holds its sorted ``keys`` (for ``bisect``) and, in
step with them, ``items``: one ``(key, value)`` slot per key, as a TLX
leaf slot pairs a key pointer with a value pointer. ``scan`` copies the
slots it returns as they are, so it builds no tuple per key: one slice of
the first leaf, every whole leaf between, one slice of the last. The
memory model above reads only ``keys``: a 256-byte node already pays
for each slot's key and value pointers.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, List, Optional, Sequence, Tuple

from ..core.strutil import check_strictly_increasing, lcp, lcp_len
from . import gc_paused, values_for

NODE_BYTES = 256
FANOUT = 16


class _Leaf:
    __slots__ = ("keys", "items", "next")

    def __init__(self) -> None:
        self.keys: List[bytes] = []  # what bisect and the memory model read
        self.items: List[Tuple[bytes, Any]] = []  # (key, value) slots, in step with keys
        self.next: Optional["_Leaf"] = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: List[bytes] = []  # separators; children[i] holds keys < keys[i]
        self.children: List[Any] = []


class BPlusTree:
    """Plain B+tree, full keys stored out-of-node by reference."""

    def __init__(self) -> None:
        self.root: Any = _Leaf()
        self.n_keys = 0

    # -- bulk load -------------------------------------------------------
    @gc_paused()
    def build(self, keys: Sequence[bytes], values: Optional[Sequence[Any]] = None) -> None:
        """Bulk-load sorted unique keys at ~87% fill (14/16 slots).

        ``values`` (default ``0..n-1``) must be as long as ``keys``.
        """
        check_strictly_increasing(keys)
        items = list(zip(keys, values_for(keys, values)))
        if not isinstance(keys, list):  # so that each leaf's slice is its one copy
            keys = list(keys)
        fill = FANOUT - 2
        leaves: List[_Leaf] = []
        for i in range(0, len(keys), fill):
            leaf = _Leaf()
            leaf.keys = keys[i : i + fill]
            leaf.items = items[i : i + fill]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        self.n_keys = len(keys)
        if not leaves:
            self.root = _Leaf()
            return
        level: List[Any] = leaves
        while len(level) > 1:
            parents: List[_Inner] = []
            for i in range(0, len(level), fill):
                node = _Inner()
                group = level[i : i + fill]
                node.children = group
                node.keys = [self._min_key(c) for c in group[1:]]
                parents.append(node)
            level = parents
        self.root = level[0]

    @staticmethod
    def _min_key(node: Any) -> bytes:
        while isinstance(node, _Inner):
            node = node.children[0]
        return node.keys[0]

    # -- queries ---------------------------------------------------------
    def _find_leaf(self, key: bytes) -> _Leaf:
        node = self.root
        while isinstance(node, _Inner):
            node = node.children[bisect_right(node.keys, key)]
        return node

    def lookup(self, key: bytes) -> Optional[Any]:
        leaf = self._find_leaf(key)
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return leaf.items[i][1]
        return None

    def scan(self, start: bytes, count: int) -> List[Tuple[bytes, Any]]:
        if count <= 0:  # a negative count would slice from the end
            return []
        node = self.root
        while node.__class__ is _Inner:
            node = node.children[bisect_right(node.keys, start)]
        i = bisect_left(node.keys, start)
        out = node.items[i : i + count]
        count -= len(out)
        node = node.next
        while count and node is not None:
            items = node.items
            if len(items) > count:  # the last leaf
                out += items[:count]
                break
            out += items
            count -= len(items)
            node = node.next
        return out

    # -- insert ----------------------------------------------------------
    def insert(self, key: bytes, value: Any) -> None:
        split = self._insert(self.root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Inner()
            new_root.keys = [sep]
            new_root.children = [self.root, right]
            self.root = new_root

    def _insert(self, node: Any, key: bytes, value: Any):
        if isinstance(node, _Leaf):
            i = bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.items[i] = (key, value)
                return None
            node.keys.insert(i, key)
            node.items.insert(i, (key, value))
            self.n_keys += 1
            if len(node.keys) > FANOUT:
                mid = len(node.keys) // 2
                right = _Leaf()
                right.keys = node.keys[mid:]
                right.items = node.items[mid:]
                node.keys = node.keys[:mid]
                node.items = node.items[:mid]
                right.next = node.next
                node.next = right
                return (right.keys[0], right)
            return None
        i = bisect_right(node.keys, key)
        split = self._insert(node.children[i], key, value)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(i, sep)
        node.children.insert(i + 1, right)
        if len(node.children) > FANOUT:
            mid = len(node.children) // 2
            r = _Inner()
            r.keys = node.keys[mid:]
            r.children = node.children[mid:]
            up = node.keys[mid - 1]
            node.keys = node.keys[: mid - 1]
            node.children = node.children[:mid]
            return (up, r)
        return None

    # -- accounting ------------------------------------------------------
    def memory_bytes(self) -> int:
        inner, leaves = self._levels()
        return (inner + len(leaves)) * NODE_BYTES + self._key_bytes(leaves)

    def _levels(self) -> Tuple[int, List[_Leaf]]:
        """(number of inner nodes, the leaves in key order), walking level by level."""
        inner, level = 0, [self.root]
        while level[0].__class__ is _Inner:
            inner += len(level)
            level = [c for n in level for c in n.children]
        return inner, level

    @staticmethod
    def _key_bytes(leaves: List[_Leaf]) -> int:
        return sum(len(k) for leaf in leaves for k in leaf.keys)

    def __len__(self) -> int:
        return self.n_keys


class PrefixBPlusTree(BPlusTree):
    """B+tree with per-leaf prefix truncation and suffix-truncated separators.

    Structure, queries and their results are those of ``BPlusTree``;
    only the memory model changes: leaf key bytes are charged as
    ``len(leaf_lcp) + sum(len(suffixes))`` and inner separators are
    materialised shortest separators.
    """

    @staticmethod
    def shortest_separator(left_max: bytes, right_min: bytes) -> bytes:
        """Shortest prefix of ``right_min`` strictly greater than ``left_max``."""
        i = lcp_len(left_max, right_min)
        return right_min[: i + 1] if i < len(right_min) else right_min

    def _key_bytes(self, leaves: List[_Leaf]) -> int:
        """Each leaf's common prefix once plus its suffixes, and one separator
        per adjacent leaf pair: under bulk-load and splits alike, each
        separator is the first key of the right leaf of one pair."""
        total = 0
        for leaf in leaves:
            prefix = lcp(leaf.keys[0], leaf.keys[-1]) if leaf.keys else b""
            total += len(prefix) + sum(len(k) - len(prefix) for k in leaf.keys)
        for left, right in zip(leaves, leaves[1:]):
            total += len(self.shortest_separator(left.keys[-1], right.keys[0]))
        return total
