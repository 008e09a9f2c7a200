"""Adaptive Radix Tree (ART) substrate [34] (paper §5).

A byte-wise radix tree with:

* **adaptive node sizing** — each inner node is charged the smallest
  fitting layout (Node4 / Node16 / Node48 / Node256, headers and slot
  arrays per the ART paper) based on its fanout;
* **path compression with optimistic common prefix skipping (OCPS)** —
  an inner node stores its compressed path's length but only the first
  ``PESSIMISTIC_BYTES`` bytes; lookups skip the rest and verify the
  full key at the leaf (the paper's §7.2 explanation for why ART gains
  less from HOPE on long-shared-prefix keys such as URLs);
* **leaves as 8-byte value pointers** — the full key conceptually lives
  in the record; it is kept on the Python leaf for verification but
  **not counted** in index memory, per the paper's accounting.

Supports point lookup, sorted range scan, and insert. Also exposes
``avg_leaf_depth`` (nodes visited per lookup), the trie-height metric
Figures 10/12 track.
"""
from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..core.dictionary import art_node_bytes

PESSIMISTIC_BYTES = 8
LEAF_BYTES = 8

#: terminator label for keys that are prefixes of other keys (the
#: paper's first ART modification adds prefix-key support; classic ART
#: appends a 0-byte — we use a dedicated out-of-band label instead so
#: arbitrary binary keys keep their order).
TERM = 256


class _ArtNode:
    __slots__ = ("prefix", "children", "labels")

    def __init__(self, prefix: bytes = b"") -> None:
        self.prefix = prefix  # full compressed path (memory counts min(8, len))
        self.children: dict = {}
        self.labels: List[int] = []  # sorted labels (TERM sorts first)

    def child(self, label: int):
        return self.children.get(label)

    def set_child(self, label: int, node: Any) -> None:
        if label not in self.children:
            from bisect import insort

            insort(self.labels, label, key=_label_key)
        self.children[label] = node


def _label_key(l: int) -> int:
    return -1 if l == TERM else l


class _ArtLeaf:
    __slots__ = ("key", "value")

    def __init__(self, key: bytes, value: Any) -> None:
        self.key = key
        self.value = value


class ART:
    """Adaptive radix tree over ``bytes`` keys."""

    def __init__(self) -> None:
        self.root: Optional[Any] = None
        self.n_keys = 0

    # -- build / insert --------------------------------------------------
    def build(self, keys: Sequence[bytes], values: Optional[Sequence[Any]] = None) -> None:
        if values is None:
            values = list(range(len(keys)))
        for k, v in zip(keys, values):
            self.insert(k, v)

    def insert(self, key: bytes, value: Any) -> None:
        if self.root is None:
            self.root = _ArtLeaf(key, value)
            self.n_keys = 1
            return
        self.root = self._insert(self.root, key, 0, value)

    def _insert(self, node: Any, key: bytes, depth: int, value: Any):
        if isinstance(node, _ArtLeaf):
            if node.key == key:
                node.value = value
                return node
            return self._split_leaf(node, key, depth, value)
        prefix = node.prefix
        rest = key[depth:]
        m = min(len(prefix), len(rest))
        i = 0
        while i < m and prefix[i] == rest[i]:
            i += 1
        if i < len(prefix):
            # diverges inside the compressed path -> split the node
            new = _ArtNode(prefix[:i])
            node.prefix = prefix[i + 1 :]
            new.set_child(prefix[i], node)
            if i == len(rest):
                new.set_child(TERM, _ArtLeaf(key, value))
            else:
                new.set_child(rest[i], _ArtLeaf(key, value))
            self.n_keys += 1
            return new
        depth += len(prefix)
        label = key[depth] if depth < len(key) else TERM
        child = node.child(label)
        if child is None:
            node.set_child(label, _ArtLeaf(key, value))
            self.n_keys += 1
        else:
            node.set_child(label, self._insert(child, key, depth + (0 if label == TERM else 1), value))
        return node

    def _split_leaf(self, leaf: _ArtLeaf, key: bytes, depth: int, value: Any):
        a, b = leaf.key[depth:], key[depth:]
        m = min(len(a), len(b))
        i = 0
        while i < m and a[i] == b[i]:
            i += 1
        node = _ArtNode(a[:i])
        la = a[i] if i < len(a) else TERM
        lb = b[i] if i < len(b) else TERM
        node.set_child(la, leaf)
        node.set_child(lb, _ArtLeaf(key, value))
        self.n_keys += 1
        return node

    # -- queries ---------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[Any]:
        node = self.root
        depth = 0
        while node is not None:
            if isinstance(node, _ArtLeaf):
                # OCPS: skipped prefix bytes are verified here, against
                # the full key stored with the record.
                return node.value if node.key == key else None
            # optimistic skip: compare only the stored pessimistic bytes
            stored = node.prefix[:PESSIMISTIC_BYTES]
            seg = key[depth : depth + len(stored)]
            if seg != stored:
                return None
            depth += len(node.prefix)  # skip the rest optimistically
            if depth > len(key):
                return None
            label = key[depth] if depth < len(key) else TERM
            node = node.child(label)
            depth += 0 if label == TERM else 1
        return None

    def _iter_from(self, node: Any, key: bytes, depth: int) -> Iterator[_ArtLeaf]:
        """Leaves with key >= ``key``, in order, within ``node``'s subtree."""
        if isinstance(node, _ArtLeaf):
            if node.key >= key:
                yield node
            return
        # compare the search key against this subtree's span coarsely:
        # descend choosing the first label whose subtree can contain >= key
        rest = key[depth:]
        prefix = node.prefix
        m = min(len(prefix), len(rest))
        i = 0
        while i < m and prefix[i] == rest[i]:
            i += 1
        if i < m:
            if prefix[i] > rest[i]:
                yield from self._iter_all(node)
            return
        if i == len(rest):  # search key exhausted within/at prefix
            yield from self._iter_all(node)
            return
        depth += len(prefix)
        label = key[depth] if depth < len(key) else TERM
        for l in node.labels:
            if _label_key(l) < _label_key(label):
                continue
            child = node.children[l]
            if l == label:
                yield from self._iter_from(child, key, depth + (0 if l == TERM else 1))
            else:
                yield from self._iter_all(child)

    def _iter_all(self, node: Any) -> Iterator[_ArtLeaf]:
        if isinstance(node, _ArtLeaf):
            yield node
            return
        for l in node.labels:
            yield from self._iter_all(node.children[l])

    def scan(self, start: bytes, count: int) -> List[Tuple[bytes, Any]]:
        out: List[Tuple[bytes, Any]] = []
        if self.root is None:
            return out
        for leaf in self._iter_from(self.root, start, 0):
            out.append((leaf.key, leaf.value))
            if len(out) >= count:
                break
        return out

    # -- accounting ------------------------------------------------------
    def memory_bytes(self) -> int:
        total = 0
        stack = [self.root] if self.root is not None else []
        while stack:
            n = stack.pop()
            if isinstance(n, _ArtLeaf):
                total += LEAF_BYTES
                continue
            total += art_node_bytes(len(n.children))
            # pessimistic prefix bytes live in the 16B header (<=8);
            # longer prefixes are skipped, not stored (OCPS).
            stack.extend(n.children.values())
        return total

    def avg_leaf_depth(self) -> float:
        if self.root is None:
            return 0.0
        total = 0
        count = 0
        stack = [(self.root, 1)]
        while stack:
            n, d = stack.pop()
            if isinstance(n, _ArtLeaf):
                total += d
                count += 1
            else:
                for c in n.children.values():
                    stack.append((c, d + 1))
        return total / max(1, count)

    def __len__(self) -> int:
        return self.n_keys
