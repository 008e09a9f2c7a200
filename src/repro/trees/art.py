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
the charged layout. The dict is kept in label order, the prefix-key
label ``TERM`` (-1) before every byte, so a scan stacks it as it is,
reversed.

``build`` bulk-loads strictly increasing keys in one pass. It keeps the
inner nodes on the previous key's path on a stack, with their full
paths; the next key pops the nodes whose path it does not start with,
then either hangs below the deepest node left, or splits the edge below
it at the two keys' common prefix (``strutil.lcp_len``). Every node is
made once and every label added in order, with no recursion and no
``bisect``.
``insert`` gives the same tree one key at a time, in one descent: every
split, in a compressed path or at a leaf, is one step, in which a new
node takes the common prefix and the old child and the new leaf hang
below it by their next byte, or by ``TERM`` where one of them ends.
No method recurses, so a key may be as long as memory allows.

``lookup`` is the hot path: it compares no bytes at a node with an
empty compressed path (most nodes), only the stored pessimistic bytes
otherwise, and the full key once, at the leaf.

Supports point lookup, sorted range scan, and insert. Also exposes
``avg_leaf_depth`` (nodes visited per lookup), the trie-height metric
Figures 10/12 track.
"""
from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..core.dictionary import art_node_bytes
from ..core.strutil import check_strictly_increasing, lcp_len
from . import gc_paused, values_for

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
    this node. ``children`` is kept in label order (``TERM`` first):
    a split adds its two labels smaller first, ``build`` then adds each
    later label after them (its keys arrive sorted), and ``insert``
    re-sorts the dict when a new label is not the largest. Scans read
    ``children`` in this order.
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
    @gc_paused()
    def build(self, keys: Sequence[bytes], values: Optional[Sequence[Any]] = None) -> None:
        """Bulk-load strictly increasing keys, replacing the tree's contents.

        The result is node for node the tree that inserting the keys
        one by one, in any order, gives. ``values`` (default ``0..n-1``)
        must be as long as ``keys``.
        """
        check_strictly_increasing(keys)
        values = values_for(keys, values)
        self.n_keys = len(keys)
        self.root = None
        if not keys:
            return
        pairs = zip(keys, values)
        prev, value = next(pairs)
        self.root = last = _ArtLeaf(prev, value)
        nodes: List[_ArtNode] = []  # the inner nodes on prev's path, root first
        paths: List[bytes] = []  # the full path of each: a prefix of prev
        for key, value in pairs:
            below = last  # prev's subtree under the deepest node on key's path
            while paths and not key.startswith(paths[-1]):
                paths.pop()
                below = nodes.pop()
            e = len(paths[-1]) if paths else 0
            last = _ArtLeaf(key, value)
            if paths and (len(prev) == e or prev[e] != key[e]):  # key branches off at nodes[-1]
                nodes[-1].children[key[e]] = last
            else:  # key leaves prev's path at d, inside the edge to ``below``: split it there
                d = e + lcp_len(prev[e:], key[e:])
                start = e + 1 if paths else 0  # where ``below``'s compressed path starts
                node = _ArtNode(prev[start:d])
                if below.__class__ is _ArtNode:
                    below.prefix = below.prefix[d + 1 - start :]
                node.children = {prev[d] if len(prev) > d else TERM: below, key[d]: last}
                if nodes:
                    nodes[-1].children[prev[e]] = node
                else:
                    self.root = node
                nodes.append(node)
                paths.append(prev[:d])
            prev = key

    def insert(self, key: bytes, value: Any) -> None:
        """Insert ``key`` or update its value, in one descent that keeps the
        parent and label of the child a split replaces."""
        if self.root is None:
            self.root, self.n_keys = _ArtLeaf(key, value), 1
            return
        parent = label = None
        node, depth = self.root, 0
        while node.__class__ is _ArtNode:
            path = node.prefix
            i = lcp_len(path, key[depth:])
            if i < len(path):  # key leaves the compressed path: split it
                break
            depth += i
            label = key[depth] if depth < len(key) else TERM
            children = node.children
            child = children.get(label)
            if child is None:
                last = next(reversed(children))
                children[label] = _ArtLeaf(key, value)
                if label < last:
                    node.children = dict(sorted(children.items()))
                self.n_keys += 1
                return
            parent, node, depth = node, child, depth + 1
        if node.__class__ is _ArtLeaf:
            if node.key == key:
                node.value = value
                return
            path = node.key[depth:]
            i = lcp_len(path, key[depth:])
        # split: a new node takes the common prefix, old and new hang below it
        new = _ArtNode(path[:i])
        old_label = path[i] if i < len(path) else TERM
        new_label = key[depth + i] if depth + i < len(key) else TERM
        if node.__class__ is _ArtNode:
            node.prefix = path[i + 1 :]
        leaf = _ArtLeaf(key, value)
        if old_label < new_label:
            new.children = {old_label: node, new_label: leaf}
        else:
            new.children = {new_label: leaf, old_label: node}
        if parent is None:
            self.root = new
        else:
            parent.children[label] = new
        self.n_keys += 1

    # -- queries ---------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[Any]:
        node = self.root
        depth = 0
        n = len(key)
        while node.__class__ is _ArtNode:
            prefix = node.prefix
            if prefix:
                # optimistic skip: compare only the stored pessimistic bytes
                # (the slice is the prefix itself when it is that short)
                if not key.startswith(prefix[:PESSIMISTIC_BYTES], depth):
                    return None
                depth += len(prefix)  # skip the rest optimistically
            if depth < n:
                node = node.children.get(key[depth])
                depth += 1
            elif depth == n:
                node = node.children.get(TERM)
            else:
                return None
        # OCPS: skipped prefix bytes are verified here, against the full
        # key stored with the record.
        if node is not None and node.key == key:
            return node.value
        return None

    def scan(self, start: bytes, count: int) -> List[Tuple[bytes, Any]]:
        """Up to ``count`` (key, value) pairs with key >= ``start``, in key order.

        One descent along ``start`` stacks every subtree that lies wholly at
        or above it: the children under greater labels, or a node whose
        compressed path already passes ``start``. Deeper subtrees are
        smaller, so the stack pops them in key order.
        """
        stack: List[Any] = []
        node, depth, n = self.root, 0, len(start)
        while node.__class__ is _ArtNode:
            prefix = node.prefix
            i = lcp_len(prefix, start[depth:])
            if i < len(prefix):  # all of the subtree is above start, or all of it below
                if depth + i == n or prefix[i] > start[depth + i]:
                    stack.append(node)
                node = None
                break
            depth += i
            label = start[depth] if depth < n else TERM
            for l, child in reversed(node.children.items()):
                if l <= label:
                    break
                stack.append(child)
            node = node.children.get(label)
            depth += 1
        if node is not None and node.key >= start:
            stack.append(node)
        out: List[Tuple[bytes, Any]] = []
        while stack and len(out) < count:
            node = stack.pop()
            if node.__class__ is _ArtLeaf:
                out.append((node.key, node.value))
            else:
                stack.extend(reversed(node.children.values()))
        return out

    # -- accounting ------------------------------------------------------
    def _accounting(self) -> Tuple[int, float]:
        """(memory_bytes, avg_leaf_depth), from one walk of the tree."""
        memory = depth_sum = leaves = 0
        stack = [(self.root, 1)] if self.root is not None else []
        while stack:
            n, d = stack.pop()
            if n.__class__ is _ArtLeaf:
                memory += LEAF_BYTES
                depth_sum += d
                leaves += 1
            else:
                # pessimistic prefix bytes live in the 16B header (<=8);
                # longer prefixes are skipped, not stored (OCPS).
                memory += art_node_bytes(len(n.children))
                stack.extend((c, d + 1) for c in n.children.values())
        return memory, depth_sum / max(1, leaves)

    def memory_bytes(self) -> int:
        return self._accounting()[0]

    def avg_leaf_depth(self) -> float:
        return self._accounting()[1]

    def __len__(self) -> int:
        return self.n_keys
