"""End-to-end scheme properties (core/hope.py) — the paper's Table 1
wiring plus the three §3.1 guarantees (completeness, unique
decodability via prefix codes, order preservation) for every scheme on
every dataset.
"""
import random

import pytest

from repro.core.dictionary import art_trie_bytes, bitmap_trie_bytes
from repro.core.hope import SCHEME_TABLE, SCHEMES, build_hope
from repro.core.intervals import check_order_preserving
from repro.workloads.datasets import dataset_keys

DICT_SIZE = 2048


@pytest.fixture(scope="module")
def built():
    """One built encoder per (scheme, dataset) — module-scoped cache."""
    cache = {}
    for scheme in SCHEMES:
        for ds in ("email", "wiki", "url"):
            keys = dataset_keys(ds, 600, seed=11)
            hope = build_hope(scheme, keys[:300], max_dict_entries=DICT_SIZE)
            check_order_preserving(hope.intervals)
            cache[(scheme, ds)] = (hope, keys)
    return cache


class TestTable1Wiring:
    """Paper Table 1: scheme -> module configuration."""

    def test_all_schemes_registered(self):
        assert set(SCHEMES) == set(SCHEME_TABLE)

    @pytest.mark.parametrize("scheme,model", [
        ("single", "array"), ("double", "array"),
        ("3grams", "bitmap"), ("4grams", "bitmap"),
        ("alm", "art"), ("alm-improved", "art"),
    ])
    def test_dictionary_structure(self, scheme, model, built):
        """Table 1's dictionary column, as the memory model each scheme charges."""
        hope, _ = built[(scheme, "email")]
        assert SCHEME_TABLE[scheme][-1] == model
        assert hope.dictionary.model == model

    def test_bitmap_vs_art_models(self, built):
        for scheme, trie_bytes in (("3grams", bitmap_trie_bytes), ("alm-improved", art_trie_bytes)):
            hope, _ = built[(scheme, "email")]
            boundaries = [iv.lo for iv in hope.intervals]
            assert hope.dict_memory_bytes() == trie_bytes(boundaries) + 5 * hope.dict_entries

    def test_alm_uses_fixed_length_codes(self, built):
        hope, _ = built[("alm", "email")]
        lens = {iv.nbits for iv in hope.intervals}
        assert len(lens) == 1  # fixed-length

    def test_hu_tucker_schemes_use_variable_codes(self, built):
        for scheme in ("single", "double", "3grams", "4grams", "alm-improved"):
            hope, _ = built[(scheme, "email")]
            lens = {iv.nbits for iv in hope.intervals}
            assert len(lens) > 1, scheme

    def test_fixed_dict_sizes(self, built):
        assert built[("single", "email")][0].dict_entries == 256
        assert built[("double", "email")][0].dict_entries == 256 * 257

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            build_hope("nope", [b"a"])


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("ds", ["email", "wiki", "url"])
class TestSchemeGuarantees:
    def test_order_preserving(self, scheme, ds, built):
        hope, keys = built[(scheme, ds)]
        ordered = sorted(set(keys))
        enc = [hope.encode(k)[0] for k in ordered]
        assert all(a < b for a, b in zip(enc, enc[1:]))

    def test_completeness_arbitrary_bytes(self, scheme, ds, built):
        hope, _ = built[(scheme, ds)]
        rng = random.Random(hash((scheme, ds)) % 2**31)
        for _ in range(100):
            k = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
            payload, nbits = hope.encode(k)
            assert nbits > 0
            assert len(payload) == (nbits + 7) // 8

    def test_compresses_its_domain(self, scheme, ds, built):
        hope, keys = built[(scheme, ds)]
        assert hope.compression_rate(keys[300:]) > 1.0

    def test_encode_deterministic(self, scheme, ds, built):
        hope, keys = built[(scheme, ds)]
        assert hope.encode(keys[0]) == hope.encode(keys[0])


class TestCprOrdering:
    """§6.1 shape: higher-order schemes compress better on email keys."""

    def test_double_beats_single(self, built):
        h1, keys = built[("single", "email")]
        h2, _ = built[("double", "email")]
        assert h2.compression_rate(keys) > h1.compression_rate(keys)

    def test_alm_improved_beats_alm(self, built):
        ha, keys = built[("alm", "email")]
        hi, _ = built[("alm-improved", "email")]
        assert hi.compression_rate(keys) > ha.compression_rate(keys)


class TestBuildMetadata:
    def test_build_times_recorded(self, built):
        hope, _ = built[("3grams", "email")]
        bt = hope.build_times
        assert set(bt) == {"symbol_select", "code_assign", "dict_build"}
        assert all(v >= 0 for v in bt.values())

    def test_dict_memory_positive(self, built):
        for scheme in SCHEMES:
            assert built[(scheme, "email")][0].dict_memory_bytes() > 0

    def test_larger_dict_not_worse_cpr(self):
        keys = dataset_keys("email", 800, seed=3)
        small = build_hope("3grams", keys[:400], max_dict_entries=1024)
        large = build_hope("3grams", keys[:400], max_dict_entries=8192)
        assert large.compression_rate(keys[400:]) >= small.compression_rate(keys[400:]) - 0.05
