"""Dictionary and Encoder modules (HOPE §4.2): interval -> code lookup
structures that also turn keys into codes.

A HOPE dictionary stores only the *left boundary* of each interval; a
lookup is a "greatest boundary <= suffix" (predecessor) query returning
the interval's code and symbol length. Each dictionary also encodes:
``encode`` a whole key into zero-padded code bytes plus a bit count
(ordered like the keys, proof in ``strutil``), ``resume`` a key's symbols
from a position onto a running big-int accumulator (the paper's chain of
64-bit shift/OR buffers). ``BaseDict`` supplies both as the per-symbol
``lookup`` loop, and each runtime structure overrides them:

* ``ArrayDict`` (Single/Double-Char): one O(1) array probe per symbol;
  symbols have a fixed width, so a run of them is one table gather;
* ``SortedBoundaryDict`` (3/4-Grams, ALM, ALM-Improved): one C ``bisect``
  over the sorted boundaries, on a window of the suffix no longer than
  the longest boundary.

3/4-Grams (boundaries of at most ``WINDOW_MAP_MAX_LEN`` bytes) also keep
two window maps of at most ``WINDOW_MAP_CAP`` entries: ``windows`` holds one
symbol per window, filled by ``bisect``; ``pairs`` holds two, filled by two
``windows`` probes. Short windows repeat, so a whole key takes two symbols
per dict probe (a batch checkpoint, which must stop at a position, one).
Neither map is pickled; ``window_map_size`` reports them apart from
``memory_bytes``. ALM's windows run to 64 bytes, so its map would hold
about one entry per distinct key suffix (tens of MB): ALM keeps ``bisect``.

``BaseDict.encode_batch`` is the §4.2 batching optimisation: the batch's
common prefix is encoded once, up to the last dictionary step that stays
inside it, and each key resumes from that checkpoint. The paper's
per-symbol Encoder loop itself is ``hope.HopeEncoder.encode``: one
``lookup`` per symbol, the reference every ``encode`` here must equal.

The paper's bitmap-trie (3/4-Grams, Figure 6) and ART-based trie
(ALM*) are 2.3x faster than binary search in C++; in Python an
interpreted trie walk is 2-3x *slower* than the ``bisect`` builtin.
They are therefore kept only as *layout models*: ``SortedBoundaryDict``
charges the bytes of the scheme's trie (``model="bitmap"`` or
``"art"``), computed from the sorted boundaries and their adjacent
common prefixes. Python object overhead is irrelevant to the paper's
numbers, which are layout arithmetic (DESIGN.md §3/§5).
"""
from __future__ import annotations

import sys
from bisect import bisect_right
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .intervals import Interval
from .strutil import Code, bits_to_bytes, check_strictly_increasing, distinct_prefixes, lcp, lcp_len

Lookup = Tuple[int, int, int]  # (code, nbits, symbol_len)
Resumed = Tuple[int, int, int]  # (bit accumulator, nbits, position reached)
EncodedKey = Tuple[bytes, int]  # (zero-padded payload, number of meaningful bits)

# Per-entry value cost shared by all structures: 32-bit code + 8-bit length.
_VALUE_BYTES = 5
# Bitmap-trie node (Figure 6): 256-bit child bitmap + 32-bit prefix counter.
_BITMAP_NODE_BYTES = 36
# Longest boundary for which a ``SortedBoundaryDict`` keeps a window map
# (3/4-Grams), and the entries at which the map stops growing.
WINDOW_MAP_MAX_LEN = 4
WINDOW_MAP_CAP = 1 << 18


class BaseDict:
    """Interface: lookup(src, pos) -> (code, nbits, symbol_len).

    ``windows`` and ``pairs`` are the window maps, or None. The attributes
    named in ``_derived`` are rebuilt by ``_derive`` on unpickling, not pickled.
    """

    max_boundary_len: int
    windows: Optional[Dict[bytes, Lookup]] = None
    pairs: Optional[Dict[bytes, Lookup]] = None
    _derived: Tuple[str, ...] = ()

    def __getstate__(self):
        state = self.__dict__.copy()
        for name in self._derived:
            del state[name]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._derive()

    def lookup(self, src: bytes, pos: int) -> Lookup:  # pragma: no cover
        raise NotImplementedError

    def encode(self, src: bytes) -> EncodedKey:
        """All of ``src`` as ``(zero-padded code bytes, nbits)``."""
        acc, nbits, _ = self.resume(src, 0, len(src), 0, 0)
        return bits_to_bytes(acc, nbits), nbits

    def resume(self, src: bytes, pos: int, stop: int, acc: int, nbits: int) -> Resumed:
        """Append the codes of ``src``'s symbols starting in ``[pos, stop)``, ``pos``
        a symbol boundary: the grown ``(acc, nbits)`` and the position reached."""
        lookup = self.lookup
        while pos < stop:
            code, cbits, symlen = lookup(src, pos)
            acc = (acc << cbits) | code
            nbits += cbits
            pos += symlen
        return acc, nbits, pos

    # -- batched ---------------------------------------------------------
    def _prefix_checkpoint(self, prefix: bytes) -> Resumed:
        """Encode as much of ``prefix`` as is *provably* shared work.

        A checkpoint step at ``pos`` is safe iff the interval found for
        ``prefix[pos:]`` provably contains every extension of the
        prefix. That holds whenever the remaining prefix is at least as
        long as the longest interval boundary (``max_boundary_len``):
        the next boundary above cannot then separate two extensions.
        This is why the paper's batching helps the fixed-interval and
        k-gram schemes but not ALM (unbounded boundaries → checkpoint
        consumes nothing), as observed in Appendix B.
        """
        stop = len(prefix) - self.max_boundary_len + 1
        return self.resume(prefix, 0, stop, 0, 0)

    def encode_batch(self, keys: Sequence[bytes]) -> List[EncodedKey]:
        """Encode keys in any order: each lies between the least and greatest, sharing their prefix."""
        if not keys:
            return []
        acc0, nbits0, consumed = self._prefix_checkpoint(lcp(min(keys), max(keys)))
        out: List[EncodedKey] = []
        for k in keys:
            acc, nbits, _ = self.resume(k, consumed, len(k), acc0, nbits0)
            out.append((bits_to_bytes(acc, nbits), nbits))
        return out

    def window_map_size(self) -> Dict[str, Tuple[int, int]]:
        """(entries, bytes of table and keys) per window map: caches outside the paper's model."""
        return {name: (len(m), sys.getsizeof(m) + sum(map(sys.getsizeof, m))) if m else (0, 0)
                for name, m in (("windows", self.windows), ("pairs", self.pairs))}

    def memory_bytes(self) -> int:  # pragma: no cover
        raise NotImplementedError

    def __len__(self) -> int:  # pragma: no cover
        raise NotImplementedError


class _WindowMap(dict):
    """window -> lookup. A missing window is looked up by ``miss`` and stored
    while the map holds fewer than ``WINDOW_MAP_CAP`` entries."""

    __slots__ = ("miss",)

    def __init__(self, miss: Callable[[bytes], Lookup]):
        self.miss = miss

    def __missing__(self, window: bytes) -> Lookup:
        found = self.miss(window)
        if len(self) < WINDOW_MAP_CAP:
            self[window] = found
        return found


class SortedBoundaryDict(BaseDict):
    """Predecessor search by ``bisect`` over the sorted left boundaries.

    The lookup bisects on ``src[pos:pos + max_boundary_len]``. The window
    is exact: a boundary ``b`` no longer than ``L`` satisfies
    ``b <= s`` iff ``b <= s[:L]``.

    ``model`` names the trie layout whose bytes ``memory_bytes`` reports:
    ``"bitmap"`` (3/4-Grams) or ``"art"`` (ALM / ALM-Improved).

    With ``L = max_boundary_len <= WINDOW_MAP_MAX_LEN``, ``windows`` keeps the
    lookup of each window seen, and ``pairs`` that of the two symbols starting
    each ``2L``-byte window seen. Both are exact: the second symbol starts at
    most ``L`` bytes in, and at the key's end both steps see the same tail.
    """

    _derived = ("windows", "pairs")

    def __init__(self, intervals: Sequence[Interval], model: str = "bitmap"):
        if model not in ("bitmap", "art"):
            raise ValueError("model must be 'bitmap' or 'art'")
        self.model = model
        self.boundaries: List[bytes] = [iv.lo for iv in intervals]
        check_strictly_increasing(self.boundaries)
        self.values: List[Lookup] = [(iv.code, iv.nbits, len(iv.symbol)) for iv in intervals]
        self.max_boundary_len: int = max(len(b) for b in self.boundaries)
        self._derive()

    @staticmethod
    def symbol_hits(samples: Iterable[bytes], intervals: Sequence[Interval]) -> List[int]:
        """Per-interval symbol counts of encoding ``samples`` by ``bisect`` (the §4.2 test encode)."""
        boundaries = [iv.lo for iv in intervals]
        window = max(map(len, boundaries))
        symlens = [len(iv.symbol) for iv in intervals]
        hits = [0] * len(intervals)
        for key in samples:
            pos, n = 0, len(key)
            while pos < n:
                i = bisect_right(boundaries, key[pos : pos + window]) - 1
                hits[i] += 1
                pos += symlens[i]
        return hits

    def _derive(self) -> None:
        mapped = self.max_boundary_len <= WINDOW_MAP_MAX_LEN
        self.windows = _WindowMap(lambda w: self.lookup(w, 0)) if mapped else None
        self.pairs = _WindowMap(self._two_symbols) if mapped else None

    def lookup(self, src: bytes, pos: int) -> Lookup:
        i = bisect_right(self.boundaries, src[pos : pos + self.max_boundary_len]) - 1
        if i < 0:
            raise KeyError(f"no interval contains {src[pos:]!r} (incomplete dictionary)")
        return self.values[i]

    def _two_symbols(self, window: bytes) -> Lookup:
        """``window``'s first two symbols as one lookup, from ``windows`` (never ``bisect``)."""
        windows, span = self.windows, self.max_boundary_len
        code, cbits, used = windows[window[:span]]
        if used == len(window):  # the key ends after one symbol
            return code, cbits, used
        code2, cbits2, used2 = windows[window[used : used + span]]
        return (code << cbits2) | code2, cbits + cbits2, used + used2

    def encode(self, src: bytes) -> EncodedKey:
        """``resume`` of the whole key, flat: two symbols per ``pairs`` probe, padded here."""
        if self.pairs is None:
            return super().encode(src)
        pairs, span, end = self.pairs, 2 * self.max_boundary_len, len(src)
        acc = nbits = pos = 0
        while pos < end:
            code, cbits, symlen = pairs[src[pos : pos + span]]
            acc = (acc << cbits) | code
            nbits += cbits
            pos += symlen
        return (acc << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big"), nbits

    def resume(self, src: bytes, pos: int, stop: int, acc: int, nbits: int) -> Resumed:
        """``BaseDict.resume`` through a window map, when there is one: ``pairs`` to the
        key's end, else ``windows``, which takes no symbol starting at ``stop``."""
        if self.windows is None:
            return super().resume(src, pos, stop, acc, nbits)
        if stop < len(src):
            m, span = self.windows, self.max_boundary_len
        else:
            m, span = self.pairs, 2 * self.max_boundary_len
        while pos < stop:
            code, cbits, symlen = m[src[pos : pos + span]]
            acc = (acc << cbits) | code
            nbits += cbits
            pos += symlen
        return acc, nbits, pos

    def memory_bytes(self) -> int:
        trie_bytes = bitmap_trie_bytes if self.model == "bitmap" else art_trie_bytes
        return trie_bytes(self.boundaries) + len(self) * _VALUE_BYTES

    def __len__(self) -> int:
        return len(self.boundaries)


class ArrayDict(BaseDict):
    """Fixed-length-interval array dictionary (Single-Char / Double-Char).

    ``width=1``: 256 entries, entry ``b`` covers ``[b, b+1)``.
    ``width=2``: 256*257 entries in the paper's terminator layout —
    entry ``b1*257`` is the 1-byte symbol ``b1`` (interval
    ``[b1, b1\\x00)``, i.e. the exact string ``b1``), entries
    ``b1*257 + 1 + b2`` are the 2-byte symbols.

    The layout is fixed, so the dictionary is built from codes alone. A
    key is consumed ``width`` bytes at a time, with a 1-byte tail when a
    width-2 key has odd length, so ``code_string`` gathers a run of symbols'
    codes from tables of '0'/'1' strings by one list comprehension (over
    the bytes, or at width 2 over the byte pairs cast to ``uint16``),
    joined and parsed once by ``encode``/``resume``;
    ``symbol_hits`` counts a sample's symbols by the same split. The tables
    are derived from ``codes``/``nbits``: rebuilt on unpickling, not pickled.
    ``lookup`` remains the per-symbol form of the same mapping.
    """

    model = "array"
    _derived = ("_heads", "_tails")

    def __init__(self, codes: Sequence[Code], width: int):
        if width not in (1, 2):
            raise ValueError("ArrayDict supports widths 1 and 2")
        expected = 256 if width == 1 else 256 * 257
        if len(codes) != expected:
            raise ValueError(f"width-{width} ArrayDict needs {expected} entries, got {len(codes)}")
        self.width = width
        self.max_boundary_len: int = width
        self.codes: List[int] = [c for c, _ in codes]
        self.nbits: List[int] = [n for _, n in codes]
        self._derive()

    @staticmethod
    def symbol_hits(samples: Iterable[bytes], width: int) -> List[int]:
        """Per-entry symbol counts of encoding ``samples`` (the §4.2 test encode)."""
        samples = list(samples)
        if width == 1:
            counts = Counter(b"".join(samples))
            return [counts[b] for b in range(256)]
        hits = [0] * (256 * 257)
        for b1, c in Counter(k[-1] for k in samples if len(k) & 1).items():
            hits[b1 * 257] = c
        # The pairs ``code_string`` gathers by; even-length prefixes stay aligned when joined.
        pairs = memoryview(b"".join(k[: len(k) & ~1] for k in samples)).cast("H")
        for u, c in Counter(pairs).items():
            b1, b2 = u.to_bytes(2, sys.byteorder)
            hits[b1 * 257 + 1 + b2] = c
        return hits

    def _derive(self) -> None:
        # Each code as its nbits-long '0'/'1' string ("" when nbits is 0).
        bits = [bin(c | 1 << n)[3:] for c, n in zip(self.codes, self.nbits)]
        self._tails: Optional[List[str]] = None
        if self.width == 1:
            self._heads = bits
            return
        # Slot u holds the pair (b1, b2) whose two bytes, read as one
        # native-endian uint16, equal u (the cast ``code_string`` makes).
        rows = [bits[b1 * 257 + 1 : b1 * 257 + 257] for b1 in range(256)]  # rows[b1][b2]
        if sys.byteorder == "little":  # u = b1 | b2 << 8
            rows = zip(*rows)
        self._heads = [s for row in rows for s in row]
        self._tails = bits[::257]

    def lookup(self, src: bytes, pos: int) -> Lookup:
        if self.width == 1:
            i, n = src[pos], 1
        elif pos + 1 < len(src):
            i, n = src[pos] * 257 + 1 + src[pos + 1], 2
        else:  # a width-2 key's last odd byte
            i, n = src[pos] * 257, 1
        return (self.codes[i], self.nbits[i], n)

    def code_string(self, src: bytes, pos: int, end: int) -> str:
        """The codes of the symbols of ``src[pos:end]`` as one '0'/'1' string; at width
        2, ``pos`` is even and ``end`` even or the key's odd end (its 1-byte tail)."""
        heads = self._heads
        if self.width == 1:
            return "".join([heads[b] for b in src[pos:end]])
        s = "".join([heads[u] for u in memoryview(src)[pos : end & ~1].cast("H")])
        return s + self._tails[src[-1]] if end & 1 else s

    def encode(self, src: bytes) -> EncodedKey:
        s = self.code_string(src, 0, len(src))
        nbits = len(s)
        return (int(s or "0", 2) << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big"), nbits

    def resume(self, src: bytes, pos: int, stop: int, acc: int, nbits: int) -> Resumed:
        # The symbol starting before ``stop`` may end past it, but not past the key.
        end = max(pos, min(stop + (stop - pos) % self.width, len(src)))
        s = self.code_string(src, pos, end)
        return (acc << len(s)) | int(s or "0", 2), nbits + len(s), end

    def memory_bytes(self) -> int:
        return len(self.codes) * _VALUE_BYTES

    def __len__(self) -> int:
        return len(self.codes)


# -- trie layout models ---------------------------------------------------
# The byte trie over sorted distinct boundaries has one node per distinct
# prefix (the root is the empty prefix, the rest are counted by
# ``distinct_prefixes``). Boundary b_i adds the nodes at depths
# lcp(b_{i-1}, b_i) + 1 .. len(b_i), so both models need only the
# adjacent common-prefix lengths.


def bitmap_trie_bytes(boundaries: Sequence[bytes]) -> int:
    """Bytes of the Figure 6 bitmap-trie: one 36 B node per distinct prefix."""
    return (1 + distinct_prefixes(boundaries)) * _BITMAP_NODE_BYTES


def art_node_bytes(fanout: int) -> int:
    """Smallest adaptive ART node (Node4/16/48/256) holding ``fanout`` children."""
    header = 16  # type + child count + prefix len + 8 B prefix buffer
    if fanout <= 4:
        return header + 4 * 1 + 4 * 8
    if fanout <= 16:
        return header + 16 * 1 + 16 * 8
    if fanout <= 48:
        return header + 256 + 48 * 8
    return header + 256 * 8


def art_trie_bytes(boundaries: Sequence[bytes]) -> int:
    """Bytes of the modified ART (§4.2) over the boundaries.

    A node survives if it is the root, ends a boundary, or has other
    than one child; it is charged the smallest adaptive node type
    (Node4/16/48/256 + 16 B header) that holds its children plus its
    terminal entry. Every other node is folded into the full stored
    prefix below it (no optimistic skipping) at 1 byte each.
    """
    total = 0
    survivors = 1  # the root
    # The surviving nodes on the last boundary's path, shallowest first,
    # as [depth, children, is_terminal]. Depths between two entries are
    # single-child chain nodes so far.
    path = [[0, 0, False]]
    prev = b""
    for b in boundaries:
        d = lcp_len(prev, b)
        while path[-1][0] > d:
            _, children, term = path.pop()
            total += art_node_bytes(max(1, children + term))
        if path[-1][0] < d:  # a chain node on prev's path gains a second child
            path.append([d, 1, False])
            survivors += 1
        if len(b) > d:
            path[-1][1] += 1
            path.append([len(b), 0, True])
            survivors += 1
        else:  # only the empty boundary ends at the root
            path[-1][2] = True
        prev = b
    for _, children, term in path:
        total += art_node_bytes(max(1, children + term))
    chain_nodes = 1 + distinct_prefixes(boundaries) - survivors
    return total + chain_nodes
