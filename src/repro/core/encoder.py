"""Encoder module (HOPE §4.2): the encode driver, the same for every scheme.

The dictionary owns the steps (see ``dictionary``): ``encode`` turns a
whole key into zero-padded code bytes plus a bit count (ordered like the
keys, proof in ``strutil``), and ``resume`` appends a key's codes from a
position to a running big-int accumulator (the paper's chain of 64-bit
shift/OR buffers). ``Encoder.encode`` calls the dictionary's ``encode``
directly: for 3/4-Grams that is two symbols per window-map probe. While
``lookup`` is replaced on the dictionary instance (as a counter does),
``BaseDict``'s per-symbol loop runs instead, calling it once per symbol.

``encode_batch`` is the §4.2 batching optimisation: the batch's common
prefix is encoded once, up to the last dictionary step that stays inside
it, and each key resumes from that checkpoint. ``encode_pair`` (a batch
of two) encodes the bounds of a closed range query (Appendix B/D).
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

from .dictionary import BaseDict, Resumed
from .strutil import bits_to_bytes, lcp

EncodedKey = Tuple[bytes, int]  # (zero-padded payload, number of meaningful bits)


class Encoder:
    """Stateless encode driver over a built HOPE dictionary."""

    def __init__(self, dictionary: BaseDict):
        self.dictionary = dictionary

    def _steps(self) -> BaseDict:
        """The dictionary, or ``BaseDict``'s loop over its instance-replaced ``lookup``."""
        d = self.dictionary
        if "lookup" not in d.__dict__:
            return d
        loop = BaseDict()
        loop.lookup = d.lookup
        return loop

    # -- single-key ------------------------------------------------------
    def encode(self, key: bytes) -> EncodedKey:
        d = self.dictionary
        return d.encode(key) if "lookup" not in d.__dict__ else self._steps().encode(key)

    # -- batched ---------------------------------------------------------
    def _encode_prefix_checkpoint(self, steps: BaseDict, prefix: bytes) -> Resumed:
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
        return steps.resume(prefix, 0, stop, 0, 0)

    def encode_batch(self, keys: Sequence[bytes]) -> List[EncodedKey]:
        """Encode keys in any order: each lies between the least and greatest, sharing their prefix."""
        if not keys:
            return []
        steps = self._steps()
        acc0, nbits0, consumed = self._encode_prefix_checkpoint(steps, lcp(min(keys), max(keys)))
        out: List[EncodedKey] = []
        for k in keys:
            acc, nbits, _ = steps.resume(k, consumed, len(k), acc0, nbits0)
            out.append((bits_to_bytes(acc, nbits), nbits))
        return out

    def encode_pair(self, lo: bytes, hi: bytes) -> Tuple[EncodedKey, EncodedKey]:
        """Pair-encoding for the two boundary keys of a closed-range query."""
        return tuple(self.encode_batch([lo, hi]))
