"""Tests for the Hu-Tucker/Garsia-Wachs Code Assigner (core/hu_tucker.py)."""
import hashlib
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hope import SCHEMES, build_hope
from repro.core.hu_tucker import (
    canonical_alphabetic_codes,
    garsia_wachs_depths,
    hu_tucker_codes,
    optimal_alphabetic_cost,
)
from repro.core.strutil import code_key, is_prefix_free
from repro.workloads.datasets import dataset_keys


def _cost(weights, depths):
    return sum(w * d for w, d in zip(weights, depths))


class TestGarsiaWachsOptimality:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dp_small_random(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        w = [rng.randint(1, 50) for _ in range(n)]
        depths = garsia_wachs_depths([float(x) for x in w])
        assert abs(_cost(w, depths) - optimal_alphabetic_cost(w)) < 1e-6

    def test_equal_weights_balanced(self):
        depths = garsia_wachs_depths([1.0] * 8)
        assert depths == [3] * 8

    def test_two(self):
        assert garsia_wachs_depths([5.0, 1.0]) == [1, 1]

    def test_one(self):
        assert garsia_wachs_depths([3.0]) == [0]

    def test_empty(self):
        assert garsia_wachs_depths([]) == []

    def test_skew_gives_short_code_to_heavy(self):
        depths = garsia_wachs_depths([100.0, 1.0, 1.0, 1.0, 1.0])
        assert depths[0] == min(depths)

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=11))
    @settings(max_examples=60, deadline=None)
    def test_optimal_property(self, w):
        depths = garsia_wachs_depths([float(x) for x in w])
        assert abs(_cost(w, depths) - optimal_alphabetic_cost(w)) < 1e-6


class TestKraft:
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 256])
    def test_kraft_equality(self, n):
        rng = random.Random(n)
        w = [rng.random() + 0.01 for _ in range(n)]
        depths = garsia_wachs_depths(w)
        assert abs(sum(2.0 ** -d for d in depths) - 1.0) < 1e-9


class TestCanonicalCodes:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64, 256, 1000])
    def test_codes_valid(self, n):
        rng = random.Random(n * 7)
        w = [rng.random() ** 2 + 1e-6 for _ in range(n)]
        codes = hu_tucker_codes(w)
        assert len(codes) == n
        assert is_prefix_free(codes)
        keys = [code_key(c) for c in codes]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_codes_match_depths(self):
        w = [5.0, 1.0, 1.0, 5.0]
        depths = garsia_wachs_depths(w)
        codes = canonical_alphabetic_codes(depths)
        assert [n for _, n in codes] == depths

    def test_single_entry_nonempty_code(self):
        codes = hu_tucker_codes([1.0])
        assert codes == [(0, 1)]

    def test_zero_weights_clamped(self):
        codes = hu_tucker_codes([0.0, 1.0, 0.0])
        assert len(codes) == 3
        assert is_prefix_free(codes)

    def test_heavy_symbol_gets_shortest_code(self):
        w = [1.0, 1000.0, 1.0, 1.0, 1.0, 1.0]
        codes = hu_tucker_codes(w)
        lens = [n for _, n in codes]
        assert lens[1] == min(lens)

    def test_empty(self):
        assert hu_tucker_codes([]) == []


class TestCostVsHuffmanBound:
    @pytest.mark.parametrize("seed", range(5))
    def test_within_entropy_plus_two(self, seed):
        """Alphabetic codes cost <= H + 2 bits/symbol (classic bound)."""
        import math

        rng = random.Random(seed)
        w = [rng.random() + 1e-3 for _ in range(128)]
        total = sum(w)
        p = [x / total for x in w]
        H = -sum(pi * math.log2(pi) for pi in p)
        depths = garsia_wachs_depths(w)
        avg = sum(pi * d for pi, d in zip(p, depths))
        assert avg <= H + 2 + 1e-9


def _restart_scan_depths(weights):
    """Reference Garsia–Wachs: every round rescans for the pair from index 1."""
    n = len(weights)
    if n <= 1:
        return [0] * n
    seq = [(float(w), i) for i, w in enumerate(weights)]
    while len(seq) > 1:
        m = len(seq)
        j = m - 1
        for k in range(1, m):
            right = seq[k + 1][0] if k + 1 < m else float("inf")
            if seq[k - 1][0] <= right:
                j = k
                break
        s = seq[j - 1][0] + seq[j][0]
        node = (seq[j - 1][1], seq[j][1])
        del seq[j - 1 : j + 1]
        i = j - 1
        while i > 0 and seq[i - 1][0] < s:
            i -= 1
        seq.insert(i, (s, node))
    depths = [0] * n
    stack = [(seq[0][1], 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, tuple):
            stack.extend(((node[0], d + 1), (node[1], d + 1)))
        else:
            depths[node] = d
    return depths


class TestStackPassMatchesRestartScan:
    @given(st.lists(st.integers(1, 4), max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy_weights(self, w):
        assert garsia_wachs_depths(w) == _restart_scan_depths(w)

    @pytest.mark.parametrize("seed", range(5))
    def test_sorted_and_skewed(self, seed):
        rng = random.Random(seed)
        w = [rng.randint(1, 10 ** 6) for _ in range(500)]
        for v in (w, sorted(w), sorted(w, reverse=True), [x * x for x in w]):
            assert garsia_wachs_depths(v) == _restart_scan_depths(v)


# sha256 of (hu_tucker_codes over the scheme's test-encode weights) and of
# (the built dictionary's codes + the keys' encodings), recorded with the
# restart-scan Garsia-Wachs and the Interval-based array build.
GOLDEN_KEYS = 1500
GOLDEN = {
    ("single", "email"): ("412423e856c85494f320cac96472304474221050fb9ddf97be6a28f92aefd48c", "d31018cc645eb38e0e3524832586309bfad694cb6dd80ad4cbf101b474b305ed"),
    ("double", "email"): ("7c0c52185cacebd2c90aa692cb3f3a204cb8c30407f1ef137128b619dc2a8080", "ee9c2d7e035b811fdafda34303aa8c48167eb38aeb6c4fb815631110462f8d16"),
    ("3grams", "email"): ("32c897aeed53740f975b8d51c480cd5396c99c26dd8b4bd6e1217910295142b7", "4ecbed136028b78351f4c2e7d2fce9af4aba9bab06815c6712239b6a212a9499"),
    ("4grams", "email"): ("0217c4ab1f938926ebf789386cb697661d68af47df0eff3d36d0c8aa31b51482", "1039c293add6340a79f493f4825e6ab9fb5d7d959a084126cf607d778c30944d"),
    ("alm", "email"): ("b4913743f4a8bd195afc5238bab9cc164c38d6a47f3da394fb7d03858d340b4e", "bc5f29078dc71f9ea93ba81fa88001c735b2f14d518a6754563db36b1925cda0"),
    ("alm-improved", "email"): ("b98c94135c4f954c5680bb7fd187806be38d68ed89c2c33f956ed24e539be6c6", "0376daa6c81d499ace99887b795906800dd1ed924cb04e353bb328151df8b14a"),
    ("single", "url"): ("cfcf4a5cf41c98b754659a682d9dc50833d13f6bdcece320a379a38719f2ad68", "67f01c3d737408be8394cf08259381b4df8999d0f0c1ab8367eb5a73c4507f9f"),
    ("double", "url"): ("76c97e6d01f980557087c8b0234b32ddb9f80158951bf0ab9bce2250136b9e9c", "d521b6618ce20fb615caa0d0ee3ec53277b5844e06e1e9439ed3ddc440919333"),
    ("3grams", "url"): ("a4e23470d6de7053a4518120411e65be94ca8c8120748b7a768849da9d94b0f2", "3c0ba1cce14771611986dec08c7aef0f3d4ec4d1bca0209c6a6b333e4a291562"),
    ("4grams", "url"): ("2c9248fbfc4a4f5d10a000e32612cee764f8172e24d600541734925974a9ebe4", "53f3f263b2a5d07d212f73e05838ee785bf57a85ed7027701dd3c3a2ba00f3c2"),
    ("alm", "url"): ("328e11732de6c81b5faa6f6c7c97be06b561f6ed51792ebae4c7694a139a8e89", "d232a0d99c73d5996745049401b6a407fb9a4b4fc279ea3505a2f62c3bc446d6"),
    ("alm-improved", "url"): ("a448c5d9c99475ca3030daa0cf2e3e426b7988c488861f9d89a07316728c522c", "7ac83e9c29b9f41a5e881ea0df9a0b9a1665312fc3c9aea5fa2e2ae19a43c21e"),
    ("single", "wiki"): ("b755e2c1040a57dfb7c0a09570f589f79880cd3cecf4518635a7371abf431ecd", "71692c79f4b3611eb931d5acad67a8c4d55851d0a4c20c1c9107ef8e3268c72e"),
    ("double", "wiki"): ("73e2a289c691cbfadea689aa6fa63118c3c0e9a0872b1f79733b1c403f40df0d", "86bd6ee11a83aa76f4c9348d22723a913dd6964b3ba87fc6dd610aa5c806dabd"),
    ("3grams", "wiki"): ("f2afd0c95b683459f8e510f1d014fce44d7fa90d7d50f86a2ca928cc162ec7c3", "12c245547f1b97abbdf31a35432d01bcddc074be66b662b979abf2757697d3b8"),
    ("4grams", "wiki"): ("37e264a6f5d08e41f0629f9a1838033236945f88c0099172667830ae4582f86d", "91bcd2528fae7c8119602c2f6b8e12cce0cba31c69cacd7a363f60ea7020aab8"),
    ("alm", "wiki"): ("819af78e8f29bb91024315b36aba4da72c4bea146b2e3688998c4cf58f234b36", "330bc8d2f068b2e162adbde8ebd0c49e96dce71ab0291c0556cd518849c06801"),
    ("alm-improved", "wiki"): ("0a00b599bac97eb3f7742baa57e8f150e1ac405befef4094d4e676405b0e0757", "2f94c2a6d1832a68bcc4911d22ac31f87a34885a238420d415826f40e99d77a5"),
}


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _test_encode_weights(hope, samples):
    """Interval hits of encoding ``samples`` by predecessor search (§4.2)."""
    ivs = hope.intervals
    boundaries = [iv.lo for iv in ivs]
    hits = [0] * len(ivs)
    for key in samples:
        pos = 0
        while pos < len(key):
            i = bisect_right(boundaries, key[pos:]) - 1
            hits[i] += 1
            pos += len(ivs[i].symbol)
    return hits


@pytest.mark.parametrize("dataset", ["email", "url", "wiki"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_golden_codes_and_encodings(scheme, dataset):
    keys = dataset_keys(dataset, GOLDEN_KEYS)
    hope = build_hope(scheme, keys, max_dict_entries=4096)
    codes = hu_tucker_codes(_test_encode_weights(hope, keys))
    encoded = [(iv.code, iv.nbits) for iv in hope.intervals], [hope.dictionary.encode(k) for k in keys]
    assert (_sha(codes), _sha(encoded)) == GOLDEN[scheme, dataset]
