"""Encoder module (HOPE §4.2): table gather or dictionary-lookup loop + bit concatenation.

For variable-interval schemes ``Encoder.encode`` repeatedly looks the
remaining key suffix up in the dictionary, consumes ``symbol_len`` bytes
and appends the code bits, until the suffix is empty. Codes are
accumulated in a single arbitrary-precision integer (Python's native
big-int plays the role of the paper's chain of 64-bit shift/OR buffers —
same semantics, fewer moving parts) and materialised as zero-padded
bytes plus an explicit bit count.

Fixed-interval schemes (Single-/Double-Char, ``ArrayDict``) have
fixed-width symbols, so a key's code bits are one table gather
(``ArrayDict.code_string``), parsed once by ``int(bits, 2)``. The
per-symbol loop stays the path for variable intervals and batching;
with a window map (3/4-Grams, see ``dictionary``) each step is one dict
probe, with ``bisect`` only on a miss. While ``lookup`` is replaced on
the dictionary instance (as a counter does), the encoder calls it once
per symbol.

The zero-padded bytes alone are injective and ordered like the source
keys (proof in ``strutil``), so search trees consume them directly —
exactly what the HOPE C++ release feeds its trees. ``nbits`` gives the
bit-exact compressed size.

``encode_batch`` implements the §4.2 batching optimisation for sorted
key runs: the common prefix of the batch is encoded once, up to the
last dictionary step that stays inside the prefix, and each key resumes
from that checkpoint. ``encode_pair`` (batch of two) is what range
queries use for their boundary keys (Appendix B/D).
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

from .dictionary import ArrayDict, BaseDict
from .strutil import bits_to_bytes, lcp

EncodedKey = Tuple[bytes, int]  # (zero-padded payload, number of meaningful bits)


class Encoder:
    """Stateless encode driver over a built HOPE dictionary."""

    def __init__(self, dictionary: BaseDict):
        self.dictionary = dictionary
        self._gather = isinstance(dictionary, ArrayDict)

    def _walk(self, key: bytes, pos: int, stop: int, acc: int, nbits: int) -> Tuple[int, int, int]:
        """Look up and append symbols of ``key`` from ``pos`` while ``pos < stop``.

        Returns the grown ``(acc, nbits)`` and the position reached.
        """
        d = self.dictionary
        windows = d.windows
        if windows is not None and "lookup" not in vars(d):
            get, miss, span = windows.get, d.window_miss, d.max_boundary_len
            while pos < stop:
                w = key[pos : pos + span]
                code, cbits, symlen = get(w) or miss(w)
                acc = (acc << cbits) | code
                nbits += cbits
                pos += symlen
            return acc, nbits, pos
        lookup = d.lookup
        while pos < stop:
            code, cbits, symlen = lookup(key, pos)
            acc = (acc << cbits) | code
            nbits += cbits
            pos += symlen
        return acc, nbits, pos

    # -- single-key ------------------------------------------------------
    def encode(self, key: bytes) -> EncodedKey:
        d = self.dictionary
        if self._gather and "lookup" not in vars(d):
            s = d.code_string(key)
            nbits = len(s)
            return int(s + "0" * (-nbits % 8) or "0", 2).to_bytes((nbits + 7) // 8, "big"), nbits
        acc, nbits, _ = self._walk(key, 0, len(key), 0, 0)
        return bits_to_bytes(acc, nbits), nbits

    # -- batched (sorted) ------------------------------------------------
    def _encode_prefix_checkpoint(self, prefix: bytes) -> Tuple[int, int, int]:
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
        stop = len(prefix) - self.dictionary.max_boundary_len + 1
        return self._walk(prefix, 0, stop, 0, 0)

    def encode_batch(self, keys: Sequence[bytes]) -> List[EncodedKey]:
        """Encode a sorted run of keys, sharing the common-prefix work."""
        if not keys:
            return []
        if len(keys) == 1:
            return [self.encode(keys[0])]
        prefix = keys[0]
        for k in keys[1:]:
            prefix = lcp(prefix, k)
            if not prefix:
                break
        if not prefix:
            return [self.encode(k) for k in keys]
        acc0, nbits0, consumed = self._encode_prefix_checkpoint(prefix)
        out: List[EncodedKey] = []
        for k in keys:
            acc, nbits, _ = self._walk(k, consumed, len(k), acc0, nbits0)
            out.append((bits_to_bytes(acc, nbits), nbits))
        return out

    def encode_pair(self, lo: bytes, hi: bytes) -> Tuple[EncodedKey, EncodedKey]:
        """Pair-encoding for the two boundary keys of a closed-range query."""
        a, b = self.encode_batch([lo, hi])
        return a, b
