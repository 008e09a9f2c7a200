"""HOPE facade: Build phase wiring (paper Table 1 + Figure 5).

``build_hope(scheme, samples, max_dict_entries)`` runs the two-module
build pipeline — Symbol Selector → Code Assigner — and materialises the
scheme's Dictionary, which also encodes (see ``dictionary``):

=============  ================  =============  ==============
Scheme         Symbol Selector   Code Assigner  Dictionary
=============  ================  =============  ==============
single         Single-Char       Hu-Tucker      Array (256)
double         Double-Char       Hu-Tucker      Array (256*257)
alm            ALM               Fixed-Length   ART-based trie
3grams         3-Grams           Hu-Tucker      Bitmap-trie
4grams         4-Grams           Hu-Tucker      Bitmap-trie
alm-improved   ALM-Improved      Hu-Tucker      ART-based trie
=============  ================  =============  ==============

The two trie columns are memory models: every variable-interval scheme
looks up with one ``SortedBoundaryDict`` (``bisect``) and reports the
bytes of its paper trie layout (see ``dictionary``).

Build timing is recorded per module (symbol_select / code_assign /
dict_build) to reproduce Figure 9. Interval access probabilities come
from a test encoding of the samples (§4.2), by the dictionary class's
``symbol_hits``: variable-interval schemes bisect over their checked
``Interval``s as the runtime lookup does; Single/Double-Char, whose layout
is fixed, count the samples' 1- and 2-byte symbols and build their
``ArrayDict`` from the codes alone. Keys become codes in ``dictionary``,
except in ``HopeEncoder.encode``: the paper's per-symbol Encoder loop.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from . import symbol_select as ss
from .dictionary import ArrayDict, BaseDict, EncodedKey, SortedBoundaryDict
from .hu_tucker import assign_fixed, hu_tucker_codes
from .intervals import Interval, build_intervals, with_codes
from .strutil import bits_to_bytes

SCHEMES = ("single", "double", "3grams", "4grams", "alm", "alm-improved")

#: scheme -> (selector kind, code kind, dictionary memory model)
SCHEME_TABLE = {
    "single": ("single", "hu-tucker", "array"),
    "double": ("double", "hu-tucker", "array"),
    "alm": ("alm", "fixed", "art"),
    "3grams": ("grams3", "hu-tucker", "bitmap"),
    "4grams": ("grams4", "hu-tucker", "bitmap"),
    "alm-improved": ("alm-improved", "hu-tucker", "art"),
}


@dataclass
class HopeEncoder:
    """A built HOPE instance: the dictionary (which encodes) + build metadata."""

    scheme: str
    dictionary: BaseDict
    build_times: Dict[str, float] = field(default_factory=dict)

    @property
    def encoder(self) -> BaseDict:
        """The dictionary, whose bound ``encode`` is the hot path (read by ``perfbench``)."""
        return self.dictionary

    @property
    def dict_entries(self) -> int:
        return len(self.dictionary)

    @property
    def intervals(self) -> List[Interval]:
        """The dictionary's intervals with their codes, derived on demand."""
        d = self.dictionary
        if isinstance(d, ArrayDict):
            select = ss.select_single_char if d.width == 1 else ss.select_double_char
            return with_codes(build_intervals(select(())), list(zip(d.codes, d.nbits)))
        return with_codes(build_intervals(d.boundaries), [v[:2] for v in d.values])

    def dict_memory_bytes(self) -> int:
        return self.dictionary.memory_bytes()

    def encode(self, key: bytes) -> EncodedKey:
        """HOPE's Encoder (§4.2): one ``dictionary.lookup`` per symbol, an instance-replaced
        ``lookup`` (a counter) included. The reference for the dictionary's faster ``encode``."""
        acc, nbits, _ = BaseDict.resume(self.dictionary, key, 0, len(key), 0, 0)
        return bits_to_bytes(acc, nbits), nbits

    def compression_rate(self, keys: Sequence[bytes]) -> float:
        """uncompressed bytes / compressed bytes over ``keys``, counting
        compressed keys bit-exact, the microbenchmark CPR definition (§6.1)."""
        orig = sum(map(len, keys))
        comp_bits = sum(self.dictionary.encode(k)[1] for k in keys)
        if orig == 0:
            return 1.0
        return orig / (comp_bits / 8.0) if comp_bits else float("inf")


def _select_boundaries(kind: str, samples: Sequence[bytes], max_entries: int, freqs) -> List[bytes]:
    if kind in ("grams3", "grams4"):
        return ss.select_grams(samples, int(kind[-1]), max_entries, freqs=freqs)
    if kind in ("alm", "alm-improved"):
        return ss.select_alm(samples, max_entries, improved=kind == "alm-improved", freqs=freqs)
    raise ValueError(f"unknown selector {kind}")


def build_hope(
    scheme: str,
    samples: Sequence[bytes],
    max_dict_entries: int = 1 << 16,
    freqs=None,
) -> HopeEncoder:
    """Run HOPE's Build phase and return a ready-to-encode instance.

    ``freqs`` optionally supplies pre-computed pattern frequencies (the
    Spark path).
    """
    if scheme not in SCHEME_TABLE:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    sel_kind, code_kind, dict_model = SCHEME_TABLE[scheme]

    t0 = time.perf_counter()
    if dict_model == "array":
        width = 1 if sel_kind == "single" else 2
        probs = ArrayDict.symbol_hits(samples, width)
    else:
        intervals = build_intervals(_select_boundaries(sel_kind, samples, max_dict_entries, freqs))
        probs = SortedBoundaryDict.symbol_hits(samples, intervals)
    t1 = time.perf_counter()

    if code_kind == "fixed":
        codes = assign_fixed(len(probs))
    else:
        codes = hu_tucker_codes(probs)
        # Trees index the zero-padded code bytes. A key extended by codes C
        # pads to the key's own bytes only if C is all zeros and <= 7 bits
        # long, and only the leftmost Hu-Tucker code is all zeros: append a
        # 1 bit (its leaf becomes its right child, so the codes stay
        # alphabetic and prefix-free). Fixed ALM codes need no fix: >= 256
        # intervals give them >= 8 bits.
        codes[0] = (1, codes[0][1] + 1)
    t2 = time.perf_counter()

    if dict_model == "array":
        dictionary: BaseDict = ArrayDict(codes, width)
    else:
        dictionary = SortedBoundaryDict(with_codes(intervals, codes), model=dict_model)
    t3 = time.perf_counter()

    return HopeEncoder(
        scheme=scheme,
        dictionary=dictionary,
        build_times={
            "symbol_select": t1 - t0,
            "code_assign": t2 - t1,
            "dict_build": t3 - t2,
        },
    )
