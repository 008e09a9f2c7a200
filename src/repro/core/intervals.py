"""The string axis model (HOPE §3.1) — intervals, symbols, validation.

A *scheme realisation* is a sorted list of interval left boundaries
``b_0 < b_1 < ... < b_{n-1}`` with ``b_0 = b"\\x00"``. Interval ``i`` is
``[b_i, b_{i+1})`` (the last extends to the end of the axis). Its
dictionary symbol is the max-length common prefix of the interval,
which must be non-empty (dictionary completeness, §3.1). Assigning
monotonically increasing prefix codes to the intervals yields a
complete, order-preserving dictionary (§3.1's proof).

``Interval`` carries everything the Dictionary module needs to encode.
Validators encode the paper's three properties as checks used by the
tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .strutil import Code, code_key, interval_symbol, is_prefix_free

AXIS_START = b"\x00"


@dataclass(frozen=True)
class Interval:
    """One dictionary entry: axis interval + symbol + (optional) code."""

    lo: bytes
    hi: Optional[bytes]  # None = end of axis
    symbol: bytes
    code: int = 0
    nbits: int = 0

    def contains(self, s: bytes) -> bool:
        return self.lo <= s and (self.hi is None or s < self.hi)


def build_intervals(boundaries: Sequence[bytes]) -> List[Interval]:
    """Turn sorted unique left boundaries into symbol-annotated intervals.

    Raises if the boundaries do not realise a complete dictionary
    (unsorted, duplicated, not starting at AXIS_START, or an interval
    whose common prefix is empty).
    """
    if not boundaries:
        raise ValueError("empty dictionary")
    if boundaries[0] != AXIS_START:
        raise ValueError(f"axis must start at {AXIS_START!r}, got {boundaries[0]!r}")
    out: List[Interval] = []
    for i, lo in enumerate(boundaries):
        hi = boundaries[i + 1] if i + 1 < len(boundaries) else None
        if hi is not None and not lo < hi:
            raise ValueError(f"boundaries not strictly sorted at {i}: {lo!r} >= {hi!r}")
        sym = interval_symbol(lo, hi)
        if not sym:
            raise ValueError(
                f"interval [{lo!r}, {hi!r}) has empty common prefix — "
                "dictionary would not be complete"
            )
        out.append(Interval(lo=lo, hi=hi, symbol=sym))
    return out


def with_codes(intervals: Sequence[Interval], codes: Sequence[Code]) -> List[Interval]:
    """Attach codes (axis order) to intervals."""
    if len(intervals) != len(codes):
        raise ValueError("codes/intervals length mismatch")
    return [
        Interval(iv.lo, iv.hi, iv.symbol, code=c, nbits=n)
        for iv, (c, n) in zip(intervals, codes)
    ]


def check_order_preserving(intervals: Sequence[Interval]) -> None:
    """Codes must be strictly increasing in bitstring order and prefix-free."""
    codes = [(iv.code, iv.nbits) for iv in intervals]
    for a, b in zip(codes, codes[1:]):
        if not code_key(a) < code_key(b):
            raise AssertionError(f"codes not strictly increasing: {a} !< {b}")
    if not is_prefix_free(codes):
        raise AssertionError("codes are not prefix-free")


def check_symbols(intervals: Sequence[Interval]) -> None:
    """Each symbol must be a non-empty prefix of every string in its interval."""
    for iv in intervals:
        assert iv.symbol, f"empty symbol for {iv.lo!r}"
        assert iv.lo.startswith(iv.symbol), f"symbol {iv.symbol!r} not prefix of lo {iv.lo!r}"
        if iv.hi is not None:
            # the symbol extended by 0xFF... must still be below hi
            assert iv.symbol < iv.hi, f"symbol {iv.symbol!r} escapes hi {iv.hi!r}"
