"""Tests for the HOT substrate (trees/hot.py)."""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.trees.hot import HOT, MAX_COMPOUND_FANOUT, first_diff_bit, key_bit


def _keys(n, seed=0, minlen=2, maxlen=16):
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        out.add(bytes(rng.randrange(97, 123) for _ in range(rng.randrange(minlen, maxlen))))
    return sorted(out)


class TestBitExpansion:
    def test_marker_bit(self):
        assert key_bit(b"a", 0) == 1  # byte-present marker
        assert key_bit(b"", 0) == 0  # terminator

    def test_data_bits(self):
        # 'a' = 0x61 = 0110 0001
        bits = [key_bit(b"a", p) for p in range(1, 9)]
        assert bits == [0, 1, 1, 0, 0, 0, 0, 1]

    def test_past_end_is_zero(self):
        assert key_bit(b"a", 9) == 0
        assert key_bit(b"a", 100) == 0

    def test_expansion_preserves_order(self):
        rng = random.Random(1)
        for _ in range(200):
            a = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 6)))
            b = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 6)))
            if a == b:
                continue
            p = first_diff_bit(a, b)
            assert all(key_bit(a, q) == key_bit(b, q) for q in range(p))
            # the side with bit 0 at p is the lexicographically smaller key
            assert (key_bit(a, p) < key_bit(b, p)) == (a < b)

    def test_prefix_pair_diff_at_marker(self):
        assert first_diff_bit(b"ab", b"abc") == 2 * 9

    def test_equal_raises(self):
        with pytest.raises(ValueError):
            first_diff_bit(b"x", b"x")


@pytest.fixture(scope="module")
def loaded():
    keys = _keys(2500, seed=2)
    t = HOT()
    t.build(keys, list(range(len(keys))))
    return t, keys


class TestLookup:
    def test_all_present(self, loaded):
        t, keys = loaded
        for i in range(0, len(keys), 11):
            assert t.lookup(keys[i]) == i

    def test_absent(self, loaded):
        t, keys = loaded
        present = set(keys)
        rng = random.Random(3)
        for _ in range(500):
            k = bytes(rng.randrange(97, 123) for _ in range(8))
            if k not in present:
                assert t.lookup(k) is None

    def test_prefix_keys(self):
        t = HOT()
        t.build([b"ab", b"abc", b"abcd", b"b"])
        assert t.lookup(b"ab") == 0
        assert t.lookup(b"abc") == 1
        assert t.lookup(b"abcd") == 2
        assert t.lookup(b"a") is None

    def test_empty(self):
        assert HOT().lookup(b"q") is None


class TestScan:
    def test_matches_reference(self, loaded):
        t, keys = loaded
        rng = random.Random(4)
        for _ in range(100):
            start = bytes(rng.randrange(97, 123) for _ in range(3))
            got = [k for k, _ in t.scan(start, 20)]
            exp = [k for k in keys if k >= start][:20]
            assert got == exp

    def test_scan_all_in_order(self, loaded):
        t, keys = loaded
        assert [k for k, _ in t.scan(b"", len(keys))] == keys


class TestInsert:
    def test_random_inserts(self):
        keys = _keys(800, seed=5)
        order = list(keys)
        random.Random(6).shuffle(order)
        t = HOT()
        for k in order:
            t.insert(k, k)
        assert len(t) == len(keys)
        for k in keys:
            assert t.lookup(k) == k
        assert [k for k, _ in t.scan(b"", len(keys))] == keys

    def test_insert_into_built(self, loaded):
        keys = _keys(400, seed=7)
        t = HOT()
        t.build(keys)
        extra = [b"ZZ" + k for k in keys[:100]]
        for k in extra:
            t.insert(k, k)
        for k in extra:
            assert t.lookup(k) == k
        got = [k for k, _ in t.scan(b"", 10_000)]
        assert got == sorted(keys + extra)

    def test_update(self):
        t = HOT()
        t.insert(b"k", 1)
        t.insert(b"k", 2)
        assert t.lookup(b"k") == 2


class TestBulkLoadInput:
    @pytest.mark.parametrize("keys", [[b"b", b"a"], [b"a", b"b", b"b"], [b"ab", b"a"]], ids=["unsorted", "duplicate", "prefix-after"])
    def test_rejects_not_strictly_increasing(self, keys):
        with pytest.raises(ValueError, match="strictly increasing"):
            HOT().build(keys)


class TestCompoundStats:
    def test_height_is_log32ish(self, loaded):
        t, keys = loaded
        h = t.avg_leaf_depth()
        import math

        lower = math.log(len(keys), MAX_COMPOUND_FANOUT)
        assert lower * 0.5 <= h <= lower * 4

    def test_height_below_binary_depth(self, loaded):
        t, keys = loaded
        # compound packing must compress binary Patricia depth ~log2(n)
        import math

        assert t.avg_leaf_depth() < math.log2(len(keys))

    def test_memory_counts_leaves(self):
        t = HOT()
        t.build([b"a", b"b"])
        assert t.memory_bytes() >= 2 * 8

    def test_memory_excludes_key_bytes(self):
        """HOT stores only branching points: two long keys that differ
        early cost the same as two short keys."""
        a, b = HOT(), HOT()
        a.build([b"a" + b"x" * 100, b"b" + b"y" * 100])
        b.build([b"a", b"b"])
        assert a.memory_bytes() == b.memory_bytes()


_KEY = st.one_of(st.binary(max_size=12), st.lists(st.sampled_from(b"\x00\x01\xfe\xff"), max_size=10).map(bytes))


class TestReference:
    """Lookup and scan against a dict and a sorted list, on arbitrary binary
    keys half bulk-loaded and half inserted; accounting against a fresh bulk-load."""

    @settings(max_examples=300, deadline=None)
    @given(keys=st.lists(_KEY, unique=True, max_size=60), probes=st.lists(_KEY, max_size=20))
    @example(keys=[b"", b"a", b"ab", b"abc", b"b", b"\x00", b"\x00\x00", b"\xff", b"\xff\xff\x00"], probes=[b"aa"])
    @example(keys=[b"abc", b"ab", b"abd", b"", b"a"], probes=[b"abcd", b"b"])
    @example(keys=[b"", b"\x00"], probes=[b"\xff"])
    def test_matches_references(self, keys, probes):
        half = len(keys) // 2
        bulk = sorted(keys[:half])
        t = HOT()
        t.build(bulk, [k + b"!" for k in bulk])
        for k in keys[half:]:  # the other half arrives by insert, in hypothesis order
            t.insert(k, k + b"!")
        ref = sorted(keys)
        assert len(t) == len(ref)
        for k in keys + probes:
            assert t.lookup(k) == (k + b"!" if k in keys else None)
        between = [k + b"\x00" for k in ref] + [k[:-1] for k in ref]
        for start in ref + between + probes + [b""]:
            want = [(k, k + b"!") for k in ref if k >= start][:7]
            assert t.scan(start, 7) == want
        fresh = HOT()
        fresh.build(ref)
        assert (t.memory_bytes(), t.avg_leaf_depth()) == (fresh.memory_bytes(), fresh.avg_leaf_depth())
