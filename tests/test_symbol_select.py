"""Tests for the six Symbol Selectors (core/symbol_select.py)."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import AXIS_START, build_intervals
from repro.core.strutil import increment
from repro.core.symbol_select import (
    blend,
    count_grams,
    count_substrings,
    count_suffixes,
    select_alm,
    select_double_char,
    select_grams,
    select_single_char,
)

SAMPLES = [b"com.gmail@alice", b"com.gmail@bob", b"com.yahoo@carol", b"org.wiki@dave"] * 20


class TestFixedSelectors:
    def test_single_char_is_byte_axis(self):
        bs = select_single_char(SAMPLES)
        assert bs == [bytes([b]) for b in range(256)]

    def test_double_char_layout(self):
        bs = select_double_char(SAMPLES)
        assert len(bs) == 256 * 257
        assert bs[0] == AXIS_START
        # paper layout: [b1], [b1 0], ..., [b1 255], [b1+1], ...
        assert bs[97 * 257] == b"a"
        assert bs[97 * 257 + 1 + 97] == b"aa"
        ivs = build_intervals(bs)
        # terminator entry covers exactly the 1-byte string
        assert ivs[97 * 257].symbol == b"a"
        assert ivs[97 * 257].hi == b"a\x00"
        assert ivs[97 * 257 + 1 + 97].symbol == b"aa"

    def test_both_build_valid_axis(self):
        for bs in (select_single_char(SAMPLES), select_double_char(SAMPLES)):
            ivs = build_intervals(bs)
            assert all(iv.symbol for iv in ivs)


class TestCounting:
    def test_count_grams(self):
        c = count_grams([b"abcab"], 3)
        assert c == Counter({b"abc": 1, b"bca": 1, b"cab": 1})

    def test_count_grams_short_key(self):
        assert count_grams([b"ab"], 3) == Counter()

    def test_count_suffixes(self):
        c = count_suffixes([b"abc"])
        assert c == Counter({b"abc": 1, b"bc": 1, b"c": 1})

    def test_count_substrings(self):
        c = count_substrings([b"abc"])
        assert c == Counter({b"a": 1, b"b": 1, b"c": 1, b"ab": 1, b"bc": 1, b"abc": 1})

    def test_substring_cap(self):
        c = count_substrings([b"abcdef"], max_len=2)
        assert max(len(s) for s in c) == 2


class TestBlend:
    def test_prefix_count_moves_to_longest_extension(self):
        c = Counter({b"sig": 10, b"sigmod": 3, b"sigmund": 2})
        out = blend(c)
        assert b"sig" not in out
        # longest extension is "sigmund" (7 chars)
        assert out[b"sigmund"] == 12
        assert out[b"sigmod"] == 3

    def test_result_prefix_free(self):
        c = Counter({b"a": 1, b"ab": 2, b"abc": 3, b"b": 4, b"ba": 5})
        out = blend(c)
        syms = sorted(out)
        for i, s in enumerate(syms):
            for t in syms[i + 1 :]:
                assert not t.startswith(s), (s, t)

    def test_disjoint_symbols_unchanged(self):
        c = Counter({b"xy": 3, b"zz": 4})
        assert blend(c) == c

    @given(
        st.dictionaries(
            st.lists(st.sampled_from(b"\x00\x00\xff\x01a"), max_size=6).map(bytes),
            st.integers(0, 9),
            max_size=40,
        )
    )
    @settings(max_examples=300)
    def test_matches_brute_force(self, freqs):
        """Each count lands on the greatest (len, bytes) symbol extending its own."""
        expected = Counter()
        for s, f in freqs.items():
            expected[max((t for t in freqs if t.startswith(s)), key=lambda t: (len(t), t))] += f
        assert dict(blend(Counter(freqs))) == dict(expected)


class TestGramSelector:
    @pytest.mark.parametrize("k", [3, 4])
    def test_valid_axis(self, k):
        bs = select_grams(SAMPLES, k, 4096)
        assert bs[0] == AXIS_START
        assert bs == sorted(set(bs))
        ivs = build_intervals(bs)
        assert all(iv.symbol for iv in ivs)

    def test_includes_frequent_grams(self):
        bs = set(select_grams(SAMPLES, 3, 4096))
        assert b"com" in bs  # most frequent 3-gram
        assert b"mai" in bs

    def test_gap_boundaries_present(self):
        bs = set(select_grams(SAMPLES, 3, 4096))
        assert increment(b"com") in bs

    def test_respects_budget(self):
        bs = select_grams(SAMPLES, 3, 512)
        assert len(bs) <= 512 + 256  # seeds + at most budget boundaries

    def test_too_small_budget_raises(self):
        with pytest.raises(ValueError):
            select_grams(SAMPLES, 3, 100)


class TestAlmSelector:
    @pytest.mark.parametrize("improved", [False, True])
    def test_valid_axis(self, improved):
        bs = select_alm(SAMPLES, 2048, improved=improved)
        assert bs[0] == AXIS_START
        ivs = build_intervals(bs)
        assert all(iv.symbol for iv in ivs)

    def test_improved_picks_long_suffix_symbols(self):
        bs = select_alm(SAMPLES, 2048, improved=True)
        assert any(len(b) > 4 for b in bs)

    def test_selected_symbols_prefix_free_above_seeds(self):
        bs = [b for b in select_alm(SAMPLES, 2048, improved=True) if len(b) > 1]
        for i, s in enumerate(bs):
            for t in bs[i + 1 : i + 10]:
                if t.startswith(s):
                    # allowed only if t is an increment boundary, which
                    # never extends a selected symbol s itself
                    assert t != s

    def test_dict_size_scales_with_budget(self):
        small = select_alm(SAMPLES, 512, improved=True)
        large = select_alm(SAMPLES, 4096, improved=True)
        assert len(large) >= len(small)
