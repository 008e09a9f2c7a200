"""End-to-end scheme properties (core/hope.py) — the paper's Table 1
wiring plus the three §3.1 guarantees (completeness, unique
decodability via prefix codes, order preservation) for every scheme on
every dataset.
"""
import hashlib
import pickle
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
        enc = [hope.dictionary.encode(k)[0] for k in ordered]
        assert all(a < b for a, b in zip(enc, enc[1:]))

    def test_completeness_arbitrary_bytes(self, scheme, ds, built):
        hope, _ = built[(scheme, ds)]
        rng = random.Random(hash((scheme, ds)) % 2**31)
        for _ in range(100):
            k = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
            payload, nbits = hope.dictionary.encode(k)
            assert nbits > 0
            assert len(payload) == (nbits + 7) // 8

    def test_compresses_its_domain(self, scheme, ds, built):
        hope, keys = built[(scheme, ds)]
        assert hope.compression_rate(keys[300:]) > 1.0

    def test_encode_deterministic(self, scheme, ds, built):
        hope, keys = built[(scheme, ds)]
        assert hope.dictionary.encode(keys[0]) == hope.dictionary.encode(keys[0])


# First 16 hex digits of the sha256 of every key's ``(enc_key, nbits)`` and of
# the pickled dictionary, for the ``built`` fixture (600 keys, seed 11, built on
# the first 300, 2048 entries). A refactor must leave both byte-identical. The
# keys are hashed as the dictionary encodes them, and the per-symbol reference
# ``hope.encode`` must agree on every key.
PINNED_DIGESTS = {
    ("single", "email"): ("c4f5e2a501453120", "b3598b25c655a26a"),
    ("single", "wiki"): ("3f5cd29482b070b9", "43961e26f262c1df"),
    ("single", "url"): ("e469d715fb13514c", "053c39af28e0c5e0"),
    ("double", "email"): ("a71dcaa5c348ea89", "eb0ebaf5457c34fa"),
    ("double", "wiki"): ("499e65a8175c1519", "5d1e6082ab399dbf"),
    ("double", "url"): ("539a6eeda93ee5a1", "ddc39b58e2d2904b"),
    ("3grams", "email"): ("a9eaab9a05216fab", "1963f3a2c62442c9"),
    ("3grams", "wiki"): ("f6c63babc47845fe", "008bbecc481a43d0"),
    ("3grams", "url"): ("5a123f011c1f43c9", "cbe248d66d3b8048"),
    ("4grams", "email"): ("823b00ff7a3f8984", "45ab8ce0e2cc4273"),
    ("4grams", "wiki"): ("8c99f649940b071e", "385f00ad0d8c6740"),
    ("4grams", "url"): ("8ac2375be0b23600", "736e0174f104de03"),
    ("alm", "email"): ("b17a10b527a2ca2c", "660c88e33b22fb00"),
    ("alm", "wiki"): ("820cb18d924d743c", "d516f75e94fd300e"),
    ("alm", "url"): ("c648236e8e3c0148", "2e74a3a37c745415"),
    ("alm-improved", "email"): ("bd0ffbda2d82182f", "ec06634014ba2c34"),
    ("alm-improved", "wiki"): ("73c0069a2d4d2a2d", "4fc757e2dd682349"),
    ("alm-improved", "url"): ("57f7d4037a495598", "dbd94be236696910"),
}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("ds", ["email", "wiki", "url"])
def test_pinned_encoding_digests(scheme, ds, built):
    hope, keys = built[(scheme, ds)]
    h = hashlib.sha256()
    for k in keys:
        enc, nbits = hope.dictionary.encode(k)
        assert hope.encode(k) == (enc, nbits), k
        h.update(enc + b"/" + str(nbits).encode() + b";")
    blob = pickle.dumps(hope.dictionary, protocol=5)
    assert (h.hexdigest()[:16], hashlib.sha256(blob).hexdigest()[:16]) == PINNED_DIGESTS[(scheme, ds)]


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
