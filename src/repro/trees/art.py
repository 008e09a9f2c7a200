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

Each Python inner node keeps one ``label -> child`` dict: its size picks
the charged layout, and a scan visits its children in label order, with
the prefix-key label ``TERM`` (-1) before every byte. Every split, in a
compressed path or at a leaf, is one step: a new node takes the common
prefix (``strutil.lcp_len``), and the old child and the new leaf hang
below it by their next byte, or by ``TERM`` where one of them ends.

Supports point lookup, sorted range scan, and insert. Also exposes
``avg_leaf_depth`` (nodes visited per lookup), the trie-height metric
Figures 10/12 track.
"""
from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..core.dictionary import art_node_bytes
from ..core.strutil import lcp_len

PESSIMISTIC_BYTES = 8
LEAF_BYTES = 8

#: terminator label for keys that are prefixes of other keys (the
#: paper's first ART modification adds prefix-key support; classic ART
#: appends a 0-byte — we use a dedicated out-of-band label instead so
#: arbitrary binary keys keep their order). It is -1, so it sorts
#: before every byte label.
TERM = -1


class _ArtNode:
    """Inner node: its compressed path and one ``label -> child`` dict.

    A label is the next key byte, or ``TERM`` for the key that ends at
    this node. Scans visit ``sorted(children)``.
    """

    __slots__ = ("prefix", "children")

    def __init__(self, prefix: bytes = b"") -> None:
        self.prefix = prefix  # full compressed path (memory counts min(8, len))
        self.children: dict = {}


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
        rest = key[depth:]
        if isinstance(node, _ArtLeaf):
            if node.key == key:
                node.value = value
                return node
            path = node.key[depth:]
        else:
            path = node.prefix
        i = lcp_len(path, rest)
        if isinstance(node, _ArtNode) and i == len(path):
            depth += i
            label = key[depth] if depth < len(key) else TERM
            child = node.children.get(label)
            if child is None:
                node.children[label] = _ArtLeaf(key, value)
                self.n_keys += 1
            else:
                node.children[label] = self._insert(child, key, depth + (0 if label == TERM else 1), value)
            return node
        # diverges inside the compressed path or at the leaf -> split
        new = _ArtNode(path[:i])
        new.children[path[i] if i < len(path) else TERM] = node
        if isinstance(node, _ArtNode):
            node.prefix = path[i + 1 :]
        new.children[rest[i] if i < len(rest) else TERM] = _ArtLeaf(key, value)
        self.n_keys += 1
        return new

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
            node = node.children.get(label)
            depth += 0 if label == TERM else 1
        return None

    def _iter_from(self, node: Any, key: bytes, depth: int) -> Iterator[_ArtLeaf]:
        """Leaves with key >= ``key``, in order, within ``node``'s subtree."""
        if isinstance(node, _ArtLeaf):
            if node.key >= key:
                yield node
            return
        # descend along the key; every subtree under a greater label follows in full
        rest = key[depth:]
        prefix = node.prefix
        i = lcp_len(prefix, rest)
        if i < len(prefix):  # all of the subtree is >= key, or all of it is < key
            if i == len(rest) or prefix[i] > rest[i]:
                yield from self._iter_all(node)
            return
        depth += i
        label = key[depth] if depth < len(key) else TERM
        for l in sorted(node.children):
            if l == label:
                yield from self._iter_from(node.children[l], key, depth + (0 if l == TERM else 1))
            elif l > label:
                yield from self._iter_all(node.children[l])

    def _iter_all(self, node: Any) -> Iterator[_ArtLeaf]:
        if isinstance(node, _ArtLeaf):
            yield node
            return
        for l in sorted(node.children):
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
