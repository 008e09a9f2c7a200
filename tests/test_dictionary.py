"""Tests for the Dictionary structures (core/dictionary.py).

The key invariant: every structure answers the same predecessor query
("greatest boundary <= suffix") for every scheme's boundary set — the
paper's structures are performance variants of one abstract dictionary.
The trie layouts are memory models, checked against an explicit trie
and against values pinned from the pointer trie they replaced.
"""
import pickle
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dictionary import (
    WINDOW_MAP_CAP,
    ArrayDict,
    SortedBoundaryDict,
    art_node_bytes,
    art_trie_bytes,
    bitmap_trie_bytes,
)
from repro.core.hu_tucker import assign_fixed
from repro.core.intervals import build_intervals, with_codes
from repro.core.symbol_select import (
    select_alm,
    select_double_char,
    select_grams,
    select_single_char,
)
from repro.core.strutil import bits_to_bytes

SAMPLES = [b"com.gmail@alice", b"com.gmail@bob", b"org.wiki@dave", b"net.art@erin"] * 25


def _made(boundaries):
    ivs = build_intervals(boundaries)
    return with_codes(ivs, assign_fixed(len(ivs)))


def _codes(ivs):
    return [(iv.code, iv.nbits) for iv in ivs]


def _random_keys(n, seed=0, maxlen=20):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        out.append(bytes(rng.randrange(256) for _ in range(rng.randrange(1, maxlen))))
    out += [b"com.gmail@alice", b"com.x", b"ing", b"\x00", b"\xff\xff\xff\xff"]
    return out


def _predecessor(ivs, k, pos):
    """Reference lookup: binary search on the whole suffix ``k[pos:]``."""
    i = bisect_right([iv.lo for iv in ivs], k[pos:]) - 1
    iv = ivs[i]
    return (iv.code, iv.nbits, len(iv.symbol))


def _trie_model_bytes(boundaries):
    """Reference memory models: build the byte trie and walk every node.

    Returns (bitmap bytes, ART bytes) without the per-entry values, as
    the pointer trie charged them: 36 B per node for the bitmap-trie; for
    ART, the root and every terminal or non-unary node as an adaptive
    node, every other node as one stored prefix byte.
    """
    root = {}
    for b in boundaries:
        node = root
        for c in b:
            node = node.setdefault(c, {})
        node[None] = {}  # terminal marker
    nodes = 0
    art = 0
    stack = [(root, True)]
    while stack:
        node, is_root = stack.pop()
        nodes += 1
        term = None in node
        children = [c for k, c in node.items() if k is not None]
        if is_root or term or len(children) != 1:
            art += art_node_bytes(max(1, len(children) + term))
        else:
            art += 1
        stack.extend((c, False) for c in children)
    return nodes * 36, art


VARIABLE_IVS = {
    "3grams": _made(select_grams(SAMPLES, 3, 4096)),
    "4grams": _made(select_grams(SAMPLES, 4, 4096)),
    "alm": _made(select_alm(SAMPLES, 1024, improved=False)),
    "alm-improved": _made(select_alm(SAMPLES, 1024, improved=True)),
}

# memory_bytes() of the pointer-trie implementation (``TrieDict``) that the
# analytic models replaced, on this file's fixtures: fixture -> (bitmap, art).
TRIE_GOLDEN_MEMORY = {
    "single": (10532, 16656),
    "3grams": (14821, 23013),
    "4grams": (15619, 22382),
    "alm": (22938, 25661),
    "alm-improved": (22938, 25661),
    "3grams-x10-64K": (14821, 23013),
}


class TestArrayDict:
    def test_single_char_lookup(self):
        ivs = _made(select_single_char(SAMPLES))
        d = ArrayDict(_codes(ivs), width=1)
        code, nbits, symlen = d.lookup(b"apple", 0)
        assert symlen == 1
        assert code == 97  # fixed codes are the interval indexes

    def test_double_char_lookup_pair(self):
        ivs = _made(select_double_char(SAMPLES))
        d = ArrayDict(_codes(ivs), width=2)
        code, nbits, symlen = d.lookup(b"aa", 0)
        assert symlen == 2
        assert code == 97 * 257 + 1 + 97

    def test_double_char_lookup_terminator(self):
        ivs = _made(select_double_char(SAMPLES))
        d = ArrayDict(_codes(ivs), width=2)
        code, nbits, symlen = d.lookup(b"xa", 1)  # one byte left
        assert symlen == 1
        assert code == 97 * 257

    def test_wrong_size_raises(self):
        ivs = _made(select_single_char(SAMPLES))
        with pytest.raises(ValueError):
            ArrayDict(_codes(ivs), width=2)

    def test_memory(self):
        ivs = _made(select_single_char(SAMPLES))
        assert ArrayDict(_codes(ivs), width=1).memory_bytes() == 256 * 5

    @pytest.mark.parametrize("width,selector", [(1, select_single_char), (2, select_double_char)])
    def test_symbol_hits_match_test_encode(self, width, selector):
        """Counting 1-/2-byte symbols equals test-encoding by predecessor search."""
        ivs = _made(selector(SAMPLES))
        keys = _random_keys(300, seed=width) + [b"", b"a", b"ab", b"\xff\xff\xff"]
        hits = [0] * len(ivs)
        boundaries = [iv.lo for iv in ivs]
        for k in keys:
            pos = 0
            while pos < len(k):
                i = bisect_right(boundaries, k[pos:]) - 1
                hits[i] += 1
                pos += len(ivs[i].symbol)
        assert ArrayDict.symbol_hits(keys, width) == hits

    @pytest.mark.parametrize("width,selector", [(1, select_single_char), (2, select_double_char)])
    def test_matches_baseline(self, width, selector):
        ivs = _made(selector(SAMPLES))
        d = ArrayDict(_codes(ivs), width=width)
        base = SortedBoundaryDict(ivs)
        for k in _random_keys(300, seed=width):
            for pos in range(min(3, len(k))):
                assert d.lookup(k, pos) == base.lookup(k, pos)


class TestTrieDict:
    """Variable-interval dictionaries: the bounded-window ``bisect`` lookup
    that replaced the trie walk, and the bitmap-trie / ART memory models."""

    @pytest.mark.parametrize(
        "name,boundaries",
        [
            ("3grams", select_grams(SAMPLES, 3, 4096)),
            ("4grams", select_grams(SAMPLES, 4, 4096)),
            ("alm", select_alm(SAMPLES, 1024, improved=False)),
            ("alm-improved", select_alm(SAMPLES, 1024, improved=True)),
        ],
    )
    @pytest.mark.parametrize("model", ["bitmap", "art"])
    def test_matches_baseline(self, name, boundaries, model):
        ivs = _made(boundaries)
        d = SortedBoundaryDict(ivs, model=model)
        for k in _random_keys(400, seed=hash(name) % 1000):
            for pos in range(min(3, len(k))):
                assert d.lookup(k, pos) == _predecessor(ivs, k, pos), (k, pos)

    @pytest.mark.parametrize("name", sorted(VARIABLE_IVS))
    @given(
        data=st.data(),
        key=st.one_of(
            st.binary(max_size=40),
            st.lists(st.sampled_from(b"\x00\x01@.acmo\xff"), max_size=24).map(bytes),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_lookup_is_greatest_boundary_at_or_below(self, name, data, key):
        """Brute force over all boundaries, including keys that are a
        boundary, a prefix of one, NUL-rich, and lookups at ``pos > 0``."""
        ivs = VARIABLE_IVS[name]
        if data.draw(st.booleans()):  # a boundary, or a prefix or extension of one
            lo = data.draw(st.sampled_from(ivs)).lo
            key = lo[: data.draw(st.integers(0, len(lo)))] + key[: data.draw(st.integers(0, 3))]
        key = data.draw(st.binary(max_size=3)) + key
        if not key:
            return
        pos = data.draw(st.integers(0, len(key) - 1))
        best = max(i for i, iv in enumerate(ivs) if iv.lo <= key[pos:])
        expect = (ivs[best].code, ivs[best].nbits, len(ivs[best].symbol))
        assert SortedBoundaryDict(ivs).lookup(key, pos) == expect

    def test_duplicate_boundary_raises(self):
        ivs = _made(select_single_char(SAMPLES))
        with pytest.raises(ValueError):
            SortedBoundaryDict(list(ivs) + [ivs[-1]])

    def test_bitmap_memory_is_36b_per_node(self):
        ivs = _made(select_single_char(SAMPLES))
        d = SortedBoundaryDict(ivs, model="bitmap")
        # 256 single-byte boundaries -> root + 256 children = 257 nodes
        assert d.memory_bytes() == 257 * 36 + 256 * 5

    def test_art_memory_smaller_than_bitmap_for_sparse(self):
        ivs = _made(select_alm(SAMPLES, 1024, improved=True))
        bitmap = SortedBoundaryDict(ivs, model="bitmap").memory_bytes()
        art = SortedBoundaryDict(ivs, model="art").memory_bytes()
        assert art > 0 and bitmap > 0

    def test_invalid_model(self):
        ivs = _made(select_single_char(SAMPLES))
        with pytest.raises(ValueError):
            SortedBoundaryDict(ivs, model="wat")

    @pytest.mark.parametrize("fixture", sorted(TRIE_GOLDEN_MEMORY))
    def test_memory_models_match_trie_golden(self, fixture):
        if fixture == "single":
            ivs = _made(select_single_char(SAMPLES))
        elif fixture == "3grams-x10-64K":
            ivs = _made(select_grams(SAMPLES * 10, 3, 65536))
        else:
            ivs = VARIABLE_IVS[fixture]
        got = tuple(SortedBoundaryDict(ivs, model=m).memory_bytes() for m in ("bitmap", "art"))
        assert got == TRIE_GOLDEN_MEMORY[fixture]

    @given(
        st.lists(
            st.lists(st.sampled_from(b"\x00\x01ab\xff"), max_size=6).map(bytes),
            min_size=1,
            unique=True,
        ).map(sorted)
    )
    @settings(max_examples=300, deadline=None)
    def test_memory_models_match_explicit_trie(self, boundaries):
        assert (bitmap_trie_bytes(boundaries), art_trie_bytes(boundaries)) == _trie_model_bytes(boundaries)


class TestSortedBaseline:
    def test_incomplete_raises(self):
        ivs = _made(select_single_char(SAMPLES))[10:]
        d = SortedBoundaryDict(ivs)
        with pytest.raises(KeyError):
            d.lookup(b"\x00", 0)

    def test_len(self):
        ivs = _made(select_single_char(SAMPLES))
        assert len(SortedBoundaryDict(ivs)) == 256

    def test_bitmap_trie_1_4x_of_array(self):
        """Paper §6.1: the 3-Grams bitmap-trie is ~1.4x the Double-Char
        array at the same entry count; we check the same order of
        magnitude (structure-dependent)."""
        ivs3 = _made(select_grams(SAMPLES * 10, 3, 65536))
        trie = SortedBoundaryDict(ivs3, model="bitmap")
        per_entry_trie = trie.memory_bytes() / len(trie)
        assert per_entry_trie < 5 * 36  # sane: far below one node per entry


def _bisect_encoding(ivs, key):
    """Reference encode: one whole-suffix predecessor search per symbol."""
    acc = nbits = pos = 0
    while pos < len(key):
        code, cbits, symlen = _predecessor(ivs, key, pos)
        acc, nbits, pos = (acc << cbits) | code, nbits + cbits, pos + symlen
    return bits_to_bytes(acc, nbits), nbits


class TestWindowMap:
    """The derived window -> lookup map of 3/4-Grams dictionaries."""

    def test_map_stops_at_cap(self):
        ivs = VARIABLE_IVS["4grams"]
        d = SortedBoundaryDict(ivs)
        # Distinct 4-byte windows spread over the whole axis (odd multiplier mod 2^32).
        windows = [(i * 2654435761 % (1 << 32)).to_bytes(4, "big") for i in range(WINDOW_MAP_CAP + 500)]
        for w in windows:
            d.windows[w]
        assert len(d.windows) == WINDOW_MAP_CAP
        assert windows[-1] not in d.windows
        for w in windows[:200] + windows[-200:]:  # stored entries and misses past the cap
            assert d.windows[w] == _predecessor(ivs, w, 0)
        keys = _random_keys(300, seed=5) + [b"", b"\x00", b"\xff" * 9]
        assert [d.encode(k) for k in keys] == [_bisect_encoding(ivs, k) for k in keys]
        assert len(d.windows) == WINDOW_MAP_CAP

    @pytest.mark.parametrize("name", sorted(VARIABLE_IVS))
    def test_pickle_carries_no_map(self, name):
        ivs = VARIABLE_IVS[name]
        d = SortedBoundaryDict(ivs, model="art")
        keys = _random_keys(200, seed=7) + SAMPLES[:4]
        warm = [d.encode(k) for k in keys]
        assert (d.windows is not None) == (d.max_boundary_len <= 4) == (d.pairs is not None)
        if d.windows is not None:
            assert d.windows and d.pairs
        blob = pickle.dumps(d, protocol=pickle.HIGHEST_PROTOCOL)
        assert blob == pickle.dumps(SortedBoundaryDict(ivs, model="art"), protocol=pickle.HIGHEST_PROTOCOL)
        back = pickle.loads(blob)
        assert back.windows == back.pairs == ({} if d.windows is not None else None)
        assert [back.encode(k) for k in keys] == warm
        assert back.memory_bytes() == d.memory_bytes()

    def test_map_size_is_reported_apart_from_memory_model(self):
        d = SortedBoundaryDict(VARIABLE_IVS["3grams"])
        model = d.memory_bytes()
        assert d.window_map_size() == {"windows": (0, 0), "pairs": (0, 0)}
        for k in SAMPLES[:4]:
            d.encode(k)
        sizes = d.window_map_size()
        for name, window in (("windows", b"abc"), ("pairs", b"abcdef")):
            entries, nbytes = sizes[name]
            assert entries == len(getattr(d, name)) > 0
            assert nbytes > entries * len(window)
        assert d.memory_bytes() == model
