"""Byte-string helpers for the string axis model (HOPE §3.1).

All HOPE machinery operates on ``bytes`` keys laid out on the
lexicographic *string axis*. This module provides the small amount of
axis arithmetic every other module needs:

* ``increment`` — the tight right boundary of the interval covered by a
  symbol (smallest string greater than every extension of the symbol);
* ``lcp`` / ``lcp_len`` — the longest common prefix of two strings (and
  its length);
* ``check_strictly_increasing`` — the input check of the tree
  bulk-loaders and the boundary dictionary (sorted, no duplicates);
* ``distinct_prefixes`` — the node count of the byte trie over sorted
  strings, which the dictionary memory models and SuRF charge for;
* ``interval_symbol`` — the max-length common prefix of an interval
  ``[lo, hi)``, which is the dictionary symbol of that interval;
* bit-code utilities — codes are ``(value, nbits)`` pairs; comparison is
  bitstring-lexicographic; concatenated keys materialise as
  zero-padded bytes (``bits_to_bytes``).

Why zero-padded bytes alone are an injective, order-preserving image of
HOPE's encoded bitstrings: two bitstrings that first differ at bit *k*
differ in the byte containing *k* after zero-padding (earlier bytes
equal, that byte smaller for the 0-bit side). Otherwise one key's
bitstring is a proper prefix of the other's, ``enc(B) = enc(A) + C``
where C concatenates codes of B's extra symbols; the padded bytes tie
only if C is all zeros and no longer than A's <= 7 padding bits. No
such C exists: ``build_hope`` gives no Hu-Tucker interval an all-zero
code, and fixed-length ALM codes over >= 256 intervals have >= 8 bits.
This is property-tested in ``tests/test_strutil.py`` and
``tests/test_order_property.py``.
"""
from __future__ import annotations

from itertools import islice
from operator import lt
from typing import Iterable, Optional, Sequence, Tuple

Code = Tuple[int, int]  # (value, nbits) — value < 2**nbits


def increment(b: bytes) -> Optional[bytes]:
    """Smallest byte string strictly greater than every string with prefix ``b``.

    I.e. the right boundary of the axis interval "all extensions of b".
    Returns ``None`` for "end of axis" when ``b`` is empty or all 0xFF.
    """
    b = b.rstrip(b"\xff")
    if not b:
        return None
    return b[:-1] + bytes([b[-1] + 1])


def lcp_len(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix of two byte strings."""
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def check_strictly_increasing(keys: Sequence[bytes]) -> None:
    """Raise ``ValueError`` unless ``keys`` is sorted with no duplicates."""
    if all(map(lt, keys, islice(keys, 1, None))):
        return
    i = next(i for i in range(1, len(keys)) if not keys[i - 1] < keys[i])
    raise ValueError(f"not strictly increasing at {i}: {keys[i - 1]!r} >= {keys[i]!r}")


def distinct_prefixes(sorted_keys: Iterable[bytes]) -> int:
    """Number of distinct non-empty prefixes of ``sorted_keys``.

    That is the byte trie's node count without the root (its edge
    count). In sorted order a key adds exactly the prefixes longer than
    its common prefix with the key before it.
    """
    count = 0
    prev = b""
    for k in sorted_keys:
        count += len(k) - lcp_len(prev, k)
        prev = k
    return count


def lcp(a: bytes, b: bytes) -> bytes:
    """Longest common prefix of two byte strings."""
    return a[: lcp_len(a, b)]


def pred_inf(hi: bytes) -> Tuple[bytes, bool]:
    """The supremum of strings strictly below ``hi``, as ``(base, inf_ff)``.

    If ``inf_ff`` is True the value is conceptually ``base + 0xFF * inf``
    (strings approaching ``hi`` from below); otherwise it is exactly
    ``base`` (``hi`` ends in 0x00, so its immediate predecessor is the
    prefix itself).
    """
    if not hi:
        raise ValueError("no strings below the empty string")
    if hi[-1] == 0:
        return hi[:-1], False
    return hi[:-1] + bytes([hi[-1] - 1]), True


def interval_symbol(lo: bytes, hi: Optional[bytes]) -> bytes:
    """Max-length common prefix of all strings in the axis interval ``[lo, hi)``.

    ``hi is None`` means the interval extends to the end of the axis.
    This is the dictionary symbol HOPE stores for the interval (§3.1);
    a valid complete dictionary requires it to be non-empty, which the
    symbol selectors guarantee by construction (callers validate).
    """
    if hi is None:
        base, inf_ff = b"", True
    else:
        if lo >= hi:
            raise ValueError(f"empty interval [{lo!r}, {hi!r})")
        base, inf_ff = pred_inf(hi)
    # lcp(lo, base + 0xFF^inf): compare lo to base, then to 0xFF forever.
    out = bytearray()
    for i, c in enumerate(lo):
        other = base[i] if i < len(base) else (0xFF if inf_ff else None)
        if other is None or c != other:
            break
        out.append(c)
    return bytes(out)


def code_key(code: Code) -> Tuple[int, int]:
    """Sort key giving bitstring-lexicographic order over codes.

    Pad every code with zeros to a common width, compare the padded
    value, tie-break shorter-first (a bitstring sorts before its
    extensions).
    """
    v, n = code
    width = 64
    if n > width:
        width = n
    return (v << (width - n), n)


def is_prefix_free(codes) -> bool:
    """True iff no code is a bit-prefix of another (distinct entries)."""
    sc = sorted(codes, key=code_key)
    for (v1, n1), (v2, n2) in zip(sc, sc[1:]):
        if n1 <= n2 and (v2 >> (n2 - n1)) == v1:
            return False
    return True


def bits_to_bytes(value: int, nbits: int) -> bytes:
    """Materialise a bitstring as zero-padded bytes (MSB first)."""
    if nbits == 0:
        return b""
    pad = (-nbits) % 8
    return (value << pad).to_bytes((nbits + 7) // 8, "big")

