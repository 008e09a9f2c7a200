"""Symbol Selector module (HOPE §3.3 / §4.2): interval-boundary selection.

Each selector turns a list of sampled keys (``bytes``) into the sorted
left boundaries of a complete string-axis partition:

* ``single_char``  — 256 fixed intervals ``[b, b+1)``;
* ``double_char``  — 256*257 intervals in the paper's terminator (∅)
  layout: ``[b1, b1\\x00)`` plus ``[b1 b2, b1 b2+1)``;
* ``grams(k)``     — VIVC: top ``(max_entries-256)//2`` most frequent
  k-byte substrings become intervals, their gaps become entries; the
  axis is seeded with the 256 single-byte boundaries so every gap
  interval keeps a non-empty common prefix (DESIGN.md §5);
* ``alm`` / ``alm_improved`` — VIFC/VIVC: substrings (all substrings /
  suffixes only) scored by ``len(s) * freq(s)``; the top
  ``(max_entries-256)//2`` by that score are kept, as for the grams (the
  set a threshold ``W`` on the score picks at that size); a *blending*
  pass first redistributes each symbol's count to its longest extension
  so the selected set is prefix-free (Antoshenkov's requirement, §4.2).

Frequency counting may be supplied externally (``freqs=``) — the Spark
path in ``core.spark_select`` computes the same Counter distributively.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Sequence, Tuple

from .strutil import increment

_SEEDS = [bytes([b]) for b in range(256)]

# Substring-length caps keeping the original-ALM O(L^2) statistics pass
# tractable (the paper itself flags this cost and fixes it in
# ALM-Improved by counting only suffixes).
ALM_MAX_SUBSTR = 16
ALM_IMPROVED_MAX_SUFFIX = 64


def _with_increments(symbols: Iterable[bytes]) -> List[bytes]:
    """Sorted boundaries: the seeds, each symbol and its ``increment``."""
    boundaries = set(_SEEDS)
    for s in symbols:
        boundaries.add(s)
        boundaries.add(increment(s))
    boundaries.discard(None)
    return sorted(boundaries)


def _top_symbols(scored: Iterable[Tuple[bytes, int]], max_entries: int) -> List[bytes]:
    """Boundaries of the ``(max_entries - 256) // 2`` highest-scored symbols.

    Ties go to the smaller symbol, so the Spark-fed and local paths
    build byte-identical dictionaries.
    """
    if max_entries < 512:
        raise ValueError("variable-interval schemes need max_entries >= 512")
    ranked = sorted(scored, key=lambda sv: (-sv[1], sv[0]))
    return _with_increments(s for s, _ in ranked[: (max_entries - 256) // 2])


def select_single_char(samples: Sequence[bytes]) -> List[bytes]:
    """256 single-byte boundaries (FIVC; dictionary size fixed at 2^8)."""
    return list(_SEEDS)


def select_double_char(samples: Sequence[bytes]) -> List[bytes]:
    """The paper's 256*257-entry Double-Char layout (FIVC, 2^16-ish fixed).

    For each first byte ``b1``: boundary ``b1`` (the ∅-terminated 1-byte
    symbol covering the exact string ``b1``) followed by ``b1 b2`` for
    all 256 second bytes.
    """
    out: List[bytes] = []
    for b1 in range(256):
        out.append(bytes([b1]))
        for b2 in range(256):
            out.append(bytes([b1, b2]))
    return out


def count_grams(samples: Iterable[bytes], k: int) -> Counter:
    """Frequencies of all overlapping k-byte substrings (hash-table pass)."""
    c: Counter = Counter()
    for s in samples:
        for i in range(len(s) - k + 1):
            c[s[i : i + k]] += 1
    return c


def select_grams(
    samples: Sequence[bytes],
    k: int,
    max_entries: int,
    freqs: Optional[Counter] = None,
) -> List[bytes]:
    """VIVC k-Grams boundaries: frequent grams + gap entries + seeds."""
    if freqs is None:
        freqs = count_grams(samples, k)
    return _top_symbols(freqs.items(), max_entries)


def count_substrings(samples: Iterable[bytes], max_len: int = ALM_MAX_SUBSTR) -> Counter:
    """Original-ALM statistics: every substring of every length (capped)."""
    c: Counter = Counter()
    for s in samples:
        n = len(s)
        for i in range(n):
            end = min(n, i + max_len)
            for j in range(i + 1, end + 1):
                c[s[i:j]] += 1
    return c


def count_suffixes(samples: Iterable[bytes], max_len: int = ALM_IMPROVED_MAX_SUFFIX) -> Counter:
    """ALM-Improved statistics: only suffixes of the sample keys."""
    c: Counter = Counter()
    for s in samples:
        for i in range(len(s)):
            c[s[i : i + max_len]] += 1
    return c


def blend(freqs: Counter) -> Counter:
    """Antoshenkov's blending: move each symbol's count to its longest
    extension present in the list, so surviving symbols are prefix-free.

    A symbol's count goes to its greatest ``(len, bytes)`` descendant,
    or stays on it if it has none. A symbol's descendants follow it
    contiguously in sorted order, so one reverse pass with a stack of
    ``(symbol, greatest symbol of its subtree)`` finds them.
    """
    result: Counter = Counter()
    stack: List[Tuple[bytes, bytes]] = []
    for s in sorted(freqs, reverse=True):
        best = s
        while stack and stack[-1][0].startswith(s):
            t = stack.pop()[1]
            if (len(t), t) > (len(best), best):
                best = t
        result[best] += freqs[s]
        stack.append((s, best))
    return result


def select_alm(
    samples: Sequence[bytes],
    max_entries: int,
    improved: bool,
    freqs: Optional[Counter] = None,
) -> List[bytes]:
    """ALM / ALM-Improved boundaries: blending, then the top ``len(s) * freq(s)``."""
    if freqs is None:
        freqs = count_suffixes(samples) if improved else count_substrings(samples)
    return _top_symbols(((s, len(s) * f) for s, f in blend(freqs).items()), max_entries)
