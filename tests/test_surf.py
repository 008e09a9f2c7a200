"""Tests for the SuRF substrate (trees/surf.py)."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.surf import SuRF


def _keys(n, seed=0, minlen=4, maxlen=18):
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        out.add(bytes(rng.randrange(97, 123) for _ in range(rng.randrange(minlen, maxlen))))
    return sorted(out)


def _nul_keys(n, seed):
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        out.add(bytes(rng.choices(b"\x00\x00\x01\xfe\xff\xff", k=rng.randrange(0, 13))))
    return sorted(out)


def _text_fixture():
    keys = _keys(2000, seed=5)
    present = set(keys)
    rng = random.Random(6)
    negatives = []
    while len(negatives) < 2000:
        k = bytes(rng.randrange(97, 123) for _ in range(rng.randrange(4, 18)))
        if k not in present:
            negatives.append(k)
    return keys, negatives


def _nul_fixture():
    keys = _nul_keys(300, 8)
    present = set(keys)
    return keys, [k for k in _nul_keys(1300, 9) if k not in present][:1000]


# -- brute-force references ------------------------------------------------


def _ref_trunc(keys):
    """Each key's shortest non-empty prefix that no other key has (the
    key itself when it is empty or a prefix of another key)."""
    out = []
    for k in keys:
        others = [o for o in keys if o != k]
        t = next((k[:n] for n in range(1, len(k) + 1) if not any(o.startswith(k[:n]) for o in others)), k)
        out.append(t)
    return out


def _ref_suffix(key, tlen, bits):
    rest = key[tlen:]
    have = 8 * len(rest)
    v = int.from_bytes(rest, "big")
    return v >> (have - bits) if have >= bits else v << (bits - have)


def _trie_edges(strings):
    root = {}
    edges = 0
    for s in strings:
        node = root
        for b in s:
            if b not in node:
                node[b] = {}
                edges += 1
            node = node[b]
    return edges


_SYMBOLS = st.lists(st.sampled_from(b"\x00\x01a\xfe\xff"), max_size=6).map(bytes)
_KEY = st.one_of(st.binary(max_size=6), _SYMBOLS)


@pytest.fixture(scope="module")
def loaded():
    keys = _keys(3000, seed=1)
    s = SuRF(suffix_bits=8)
    s.build(keys)
    return s, keys


class TestNoFalseNegatives:
    def test_point(self, loaded):
        s, keys = loaded
        assert all(s.may_contain(k) for k in keys)

    def test_range_singleton(self, loaded):
        s, keys = loaded
        for i in range(0, len(keys), 13):
            assert s.may_contain_range(keys[i], keys[i])

    def test_range_spanning(self, loaded):
        s, keys = loaded
        for i in range(0, len(keys) - 10, 37):
            assert s.may_contain_range(keys[i], keys[i + 10])

    @pytest.mark.parametrize("bits", [0, 2, 4, 8])
    def test_no_fn_any_suffix_bits(self, bits):
        keys = _keys(500, seed=3)
        s = SuRF(suffix_bits=bits)
        s.build(keys)
        assert all(s.may_contain(k) for k in keys)


class TestFalsePositives:
    def test_fpr_decreases_with_suffix_bits(self):
        keys = _keys(2000, seed=5)
        present = set(keys)
        rng = random.Random(6)
        negatives = []
        while len(negatives) < 2000:
            k = bytes(rng.randrange(97, 123) for _ in range(rng.randrange(4, 18)))
            if k not in present:
                negatives.append(k)
        fprs = []
        for bits in (0, 2, 4, 8):
            s = SuRF(suffix_bits=bits)
            s.build(keys)
            fprs.append(s.false_positive_rate(negatives))
        assert fprs[0] >= fprs[1] >= fprs[2] >= fprs[3]
        assert fprs[3] < 0.1

    def test_far_negatives_rejected(self, loaded):
        s, _ = loaded
        assert not s.may_contain(b"0123456789")  # digits never loaded
        assert not s.may_contain_range(b"0", b"9")

    def test_empty_range_between_keys(self, loaded):
        s, keys = loaded
        # range strictly between two adjacent truncated keys can still
        # be a (one-sided) True; but a range beyond the last key is False
        assert not s.may_contain_range(b"\xff", b"\xff\xff")


class TestStructure:
    def test_heights_are_unique_prefix_lengths(self):
        keys = [b"apple", b"apply", b"banana"]
        s = SuRF(suffix_bits=0)
        s.build(keys)
        # apple/apply share 4 bytes -> truncated at 5; banana unique at 1
        assert sorted(map(len, s._trunc)) == [1, 5, 5]
        assert s.avg_leaf_depth() == pytest.approx((5 + 5 + 1) / 3)

    def test_prefix_key_flag(self):
        keys = [b"ab", b"abc"]
        s = SuRF(suffix_bits=0)
        s.build(keys)
        assert s.may_contain(b"ab") and s.may_contain(b"abc")

    def test_memory_scales_with_suffix_bits(self):
        keys = _keys(1000, seed=7)
        m = []
        for bits in (0, 4, 8):
            s = SuRF(suffix_bits=bits)
            s.build(keys)
            m.append(s.memory_bytes())
        assert m[0] < m[1] < m[2]
        # suffix bits cost exactly n_keys * bits
        assert (m[2] - m[0]) == pytest.approx(1000, abs=2)

    def test_memory_far_below_raw_keys(self, loaded):
        s, keys = loaded
        assert s.memory_bytes() < sum(map(len, keys))

    def test_len(self, loaded):
        s, keys = loaded
        assert len(s) == len(keys)

    def test_empty_build(self):
        s = SuRF()
        s.build([])
        assert not s.may_contain(b"x")
        assert not s.may_contain_range(b"a", b"z")


class TestGolden:
    """Values pinned on fixed fixtures from the per-node pointer-trie SuRF."""

    @pytest.mark.parametrize(
        "fixture,bits,memory,depth,fpr",
        [
            ("text", 0, 3594, 3.058, 0.2595),
            ("text", 3, 4344, 3.058, 0.2595),
            ("text", 8, 5594, 3.058, 0.0105),
            ("nul", 0, 558, 4.53, 1.0),
            ("nul", 3, 670, 4.53, 0.969),
            ("nul", 8, 858, 4.53, 0.82),
        ],
    )
    def test_pinned_metrics(self, fixture, bits, memory, depth, fpr):
        keys, negatives = _text_fixture() if fixture == "text" else _nul_fixture()
        s = SuRF(suffix_bits=bits)
        s.build(keys)
        assert s.memory_bytes() == memory
        assert s.avg_leaf_depth() == pytest.approx(depth, abs=1e-12)
        assert s.false_positive_rate(negatives) == pytest.approx(fpr, abs=1e-12)


class TestBruteForce:
    """SuRF against brute-force references over arbitrary binary keys
    (NUL/0xFF-rich, prefix keys, the empty key)."""

    @settings(max_examples=150, deadline=None)
    @given(
        keys=st.sets(_KEY, max_size=25),
        queries=st.lists(_KEY, max_size=25),
        bits=st.sampled_from([0, 3, 8]),
    )
    def test_matches_references(self, keys, queries, bits):
        keys = sorted(keys)
        s = SuRF(suffix_bits=bits)
        s.build(keys)
        trunc = _ref_trunc(keys)
        stored = [(t, _ref_suffix(k, len(t), bits)) for k, t in zip(keys, trunc)]
        assert s._trunc == trunc

        probes = queries + keys + [k + bytes([b]) for k in keys for b in (0, 0xFF)]
        for q in probes:
            want = any(q.startswith(t) and _ref_suffix(q, len(t), bits) == f for t, f in stored)
            assert s.may_contain(q) == want, q

        for a in probes:
            for b in queries:
                lo, hi = min(a, b), max(a, b)
                # moveToKeyGreaterThan(lo): the last entry below lo if it
                # is a prefix of lo, else the first entry >= lo.
                below = [t for t in trunc if t < lo]
                at = [t for t in trunc if t >= lo]
                if below and lo.startswith(below[-1]):
                    cand = below[-1]
                else:
                    cand = at[0] if at else None
                got = s.may_contain_range(lo, hi)
                assert got == (cand is not None and cand <= hi), (lo, hi)
                if any(lo <= k <= hi for k in keys):
                    assert got, (lo, hi)  # no false negatives

        edges = _trie_edges(trunc)
        assert s.memory_bytes() == (10 * edges + (bits + 1) * len(keys) + 7) // 8
        assert s.avg_leaf_depth() == pytest.approx(sum(map(len, trunc)) / max(1, len(keys)))
