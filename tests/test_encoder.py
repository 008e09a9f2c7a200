"""Tests for encoding by the dictionaries (core/dictionary.py): bit assembly + batching."""
import dataclasses
import functools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import dictionary
from repro.core.dictionary import ArrayDict, SortedBoundaryDict
from repro.core.hope import build_hope
from repro.core.hu_tucker import assign_fixed
from repro.core.intervals import build_intervals, with_codes
from repro.core.strutil import bits_to_bytes
from repro.core.symbol_select import select_single_char

SAMPLES = [b"com.gmail@alice", b"com.gmail@bob", b"org.wiki@dave"] * 30


def _single_char_dict():
    ivs = with_codes(build_intervals(select_single_char(SAMPLES)), assign_fixed(256))
    return SortedBoundaryDict(ivs)


class TestEncodeBits:
    def test_fixed_single_char_is_identity_bytes(self):
        enc = _single_char_dict()
        payload, nbits = enc.encode(b"ab")
        assert nbits == 16
        assert payload == b"ab"  # 8-bit fixed codes = the bytes themselves

    def test_empty_key(self):
        enc = _single_char_dict()
        assert enc.encode(b"") == (b"", 0)

    def test_bit_count_accumulates(self):
        enc = _single_char_dict()
        _, n1 = enc.encode(b"a")
        _, n5 = enc.encode(b"abcde")
        assert n5 == 5 * n1

    def test_padding_zero_filled(self):
        hope = build_hope("single", SAMPLES)
        payload, nbits = hope.encode(b"m")
        pad = 8 * len(payload) - nbits
        if pad:
            assert payload[-1] & ((1 << pad) - 1) == 0


class TestBatchEncoding:
    @pytest.mark.parametrize("scheme", ["single", "double", "3grams", "4grams"])
    def test_batch_equals_individual(self, scheme):
        hope = build_hope(scheme, SAMPLES, max_dict_entries=2048)
        keys = sorted(
            {
                b"com.gmail@" + bytes(random.Random(i).choices(b"abcdefgh", k=6))
                for i in range(64)
            }
        )
        batch = hope.dictionary.encode_batch(keys)
        indiv = [hope.encode(k) for k in keys]
        assert batch == indiv

    @pytest.mark.parametrize("scheme", ["alm", "alm-improved"])
    def test_batch_safe_for_alm_too(self, scheme):
        hope = build_hope(scheme, SAMPLES, max_dict_entries=1024)
        keys = sorted({s + bytes([i]) for i, s in enumerate(SAMPLES[:40])})
        assert hope.dictionary.encode_batch(keys) == [hope.encode(k) for k in keys]

    def test_batch_no_common_prefix(self):
        hope = build_hope("double", SAMPLES)
        keys = [b"apple", b"zebra"]
        assert hope.dictionary.encode_batch(keys) == [hope.encode(k) for k in keys]

    def test_batch_empty_and_singleton(self):
        hope = build_hope("single", SAMPLES)
        assert hope.dictionary.encode_batch([]) == []
        assert hope.dictionary.encode_batch([b"q"]) == [hope.encode(b"q")]

    def test_pair_encode(self):
        """Pair encoding (Appendix B) is a batch of two."""
        hope = build_hope("double", SAMPLES)
        lo, hi = b"com.gmail@foa", b"com.gmail@fob"
        assert hope.dictionary.encode_batch([lo, hi]) == [hope.encode(lo), hope.encode(hi)]

    def test_encoder_is_the_dictionary(self):
        hope = build_hope("3grams", SAMPLES, max_dict_entries=2048)
        assert hope.encoder is hope.dictionary
        assert [f.name for f in dataclasses.fields(hope)] == ["scheme", "dictionary", "build_times"]

    @pytest.mark.parametrize("scheme", ["double", "3grams"])
    def test_checkpoint_shares_prefix_work(self, scheme):
        """The checkpoint must consume a prefix-aligned chunk for
        long-shared-prefix batches (that is the whole optimisation)."""
        hope = build_hope(scheme, SAMPLES, max_dict_entries=2048)
        prefix = b"com.gmail@verylongsharedprefix"
        acc, nbits, consumed = hope.dictionary._prefix_checkpoint(prefix)
        assert consumed > 0
        maxlen = hope.dictionary.max_boundary_len
        assert len(prefix) - consumed < maxlen + 4


def _runs(seed):
    """Batches of many kinds: sorted, unsorted, with duplicates, NUL/0xFF-rich,
    and sharing a prefix of every length from 0 to 9, odd ones included
    (a width-2 checkpoint must stay pair-aligned)."""
    rng = random.Random(seed)

    def text(n):
        return bytes(rng.randrange(32, 127) for _ in range(n))

    def nul_ff(n):
        return bytes(rng.choices(b"\x00\x00\x01\xfe\xff\xff", k=n))

    runs = [sorted({text(rng.randrange(1, 24)) for _ in range(80)})]
    for make in (text, nul_ff):
        keys = [make(rng.randrange(0, 24)) for _ in range(40)]
        runs += [keys, keys + keys[::3], sorted(keys)]
        for plen in range(10):
            stem = make(plen)
            run = [stem + make(rng.randrange(0, 6)) for _ in range(rng.randrange(1, 9))]
            runs += [run, run + run[:1]]
    return runs


class TestRandomizedRoundtrip:
    @pytest.mark.parametrize("scheme", ["single", "double", "3grams", "4grams", "alm", "alm-improved"])
    def test_batch_random_sorted_runs(self, scheme):
        hope = build_hope(scheme, SAMPLES, max_dict_entries=1024)
        for run in _runs(99):
            assert hope.dictionary.encode_batch(run) == [hope.encode(k) for k in run], run

    @pytest.mark.parametrize("scheme", ["single", "double"])
    def test_fixed_width_batch_takes_the_gather(self, scheme, monkeypatch):
        """Single/Double-Char batches never fall back to the per-symbol ``lookup``."""
        hope = _hope(scheme, "nul")
        runs = _runs(7)
        want = [[hope.encode(k) for k in run] for run in runs]

        def no_lookup(self, src, pos):
            raise AssertionError("per-symbol lookup")

        monkeypatch.setattr(ArrayDict, "lookup", no_lookup)
        assert [hope.dictionary.encode_batch(run) for run in runs] == want


_NUL_RICH = [bytes(random.Random(i).choices(b"\x00\x00\x00\x01\xfe\xff", k=i % 17)) for i in range(90)]


@functools.cache
def _hope(scheme, training):
    return build_hope(scheme, SAMPLES if training == "text" else _NUL_RICH)


def _reference_steps(d, key):
    """The per-symbol loop over the class's ``lookup`` (``bisect`` for
    ``SortedBoundaryDict``): (bit accumulator, total bits, symbols)."""
    acc = nbits = pos = steps = 0
    while pos < len(key):
        code, cbits, symlen = type(d).lookup(d, key, pos)
        acc = (acc << cbits) | code
        nbits += cbits
        pos += symlen
        steps += 1
    return acc, nbits, steps


def _reference_bits(d, key):
    return _reference_steps(d, key)[:2]


def _reference_encode(d, key):
    acc, nbits = _reference_bits(d, key)
    return bits_to_bytes(acc, nbits), nbits


_KEYS = st.one_of(
    st.binary(max_size=80),
    st.lists(st.sampled_from(b"\x00\x01\xfe\xffa"), max_size=41).map(bytes),
)
_EDGE_KEYS = [b"", b"\x00", b"\xff", b"\x00\xff\x00", bytes(range(255)), bytes(range(256))]


class TestFixedWidthGather:
    """Single/Double-Char encode as one table gather; it must equal the loop."""

    @pytest.mark.parametrize("training", ["text", "nul"])
    @pytest.mark.parametrize("scheme", ["single", "double"])
    @settings(max_examples=150, deadline=None)
    @given(key=_KEYS)
    @example(key=b"")
    @example(key=b"\x00")
    @example(key=bytes(range(255)))
    @example(key=bytes(range(256)))
    def test_gather_equals_lookup_loop(self, scheme, training, key):
        hope = _hope(scheme, training)
        acc, nbits = _reference_bits(hope.dictionary, key)
        assert hope.dictionary.encode(key) == (bits_to_bytes(acc, nbits), nbits)

    @pytest.mark.parametrize("scheme", ["single", "double"])
    def test_pickle_roundtrip(self, scheme):
        hope = _hope(scheme, "text")
        enc = pickle.loads(pickle.dumps(hope.dictionary))
        keys = _EDGE_KEYS + [s + b"!" for s in SAMPLES[:4]] + _NUL_RICH
        assert [enc.encode(k) for k in keys] == [hope.dictionary.encode(k) for k in keys]
        assert b"_heads" not in pickle.dumps(hope.dictionary)  # tables are derived, not pickled

    @pytest.mark.parametrize("scheme,width", [("single", 1), ("double", 2)])
    def test_instance_lookup_is_called_per_symbol(self, scheme, width):
        hope = _hope(scheme, "nul")
        d = hope.dictionary
        keys = _EDGE_KEYS + _NUL_RICH + SAMPLES[:4]
        gathered = [d.encode(k) for k in keys]
        calls = 0

        def counting(src, pos):
            nonlocal calls
            calls += 1
            return ArrayDict.lookup(d, src, pos)

        d.lookup = counting
        try:
            for k, want in zip(keys, gathered):
                before = calls
                assert hope.encode(k) == want
                assert calls - before == -(-len(k) // width)
        finally:
            del d.lookup


class TestWindowMap:
    """3/4-Grams encode through the window maps; they must equal ``bisect``."""

    @pytest.mark.parametrize("training", ["text", "nul"])
    @pytest.mark.parametrize("scheme", ["3grams", "4grams"])
    @settings(max_examples=150, deadline=None)
    @given(keys=st.lists(_KEYS, max_size=6))
    @example(keys=[b"", b"a", b"\x00", b"\xff\xff", b"\x00\xff\x00"])
    @example(keys=[bytes(range(256)), b"com.gmail@alice", b"com.gmail@al"])
    def test_window_map_equals_bisect(self, scheme, training, keys):
        hope = _hope(scheme, training)
        d = hope.dictionary
        assert d.max_boundary_len <= 4 and d.windows is not None and d.pairs is not None
        d.windows.clear()
        d.pairs.clear()
        want = [_reference_encode(d, k) for k in keys]
        for _ in range(2):  # cold maps, then the same keys over the warm maps
            assert [d.encode(k) for k in keys] == want
        assert len(d.windows) <= sum(map(len, keys))
        assert len(d.pairs) <= sum(map(len, keys))
        run = sorted(keys)
        assert hope.dictionary.encode_batch(run) == [hope.encode(k) for k in run]

    @pytest.mark.parametrize("scheme", ["alm", "alm-improved"])
    def test_alm_keeps_plain_bisect(self, scheme):
        hope = _hope(scheme, "text")
        assert hope.dictionary.max_boundary_len > 4
        assert hope.dictionary.windows is None and hope.dictionary.pairs is None
        assert hope.dictionary.window_map_size() == {"windows": (0, 0), "pairs": (0, 0)}

    @pytest.mark.parametrize("training", ["text", "nul"])
    @pytest.mark.parametrize("scheme", ["3grams", "4grams"])
    def test_checkpoint_stops_mid_key(self, scheme, training):
        """Runs sharing prefixes of 1-13 bytes: the checkpoint stops short of the
        key's end, often inside a symbol, and must take no symbol starting past it."""
        hope = _hope(scheme, training)
        d = hope.dictionary
        rng = random.Random(3)
        alphabet = b"abc.@" if training == "text" else b"\x00\x01\xfe\xff"
        for plen in range(1, 14):
            stem = bytes(rng.choices(alphabet, k=plen))
            run = [stem + bytes(rng.choices(alphabet, k=rng.randrange(0, 7))) for _ in range(5)]
            d.windows.clear()
            d.pairs.clear()
            for _ in range(2):  # cold maps, then warm ones
                got = hope.dictionary.encode_batch(run)
                assert got == [_reference_encode(d, k) for k in run]
                assert got == [d.encode(k) for k in run]

    @pytest.mark.parametrize("scheme", ["3grams", "4grams"])
    def test_pair_map_past_cap_takes_no_bisect(self, scheme, monkeypatch):
        """Past its cap the pair map still encodes exactly, from ``windows`` probes alone."""
        hope = _hope(scheme, "text")
        d = hope.dictionary
        keys = _EDGE_KEYS + _NUL_RICH + [s + b"!" for s in SAMPLES[:4]] + [bytes(range(256))[i:] for i in range(40)]
        want = [_reference_encode(d, k) for k in keys]
        d.windows.clear()
        d.pairs.clear()
        assert [d.encode(k) for k in keys] == want  # warms ``windows`` under the full cap
        d.pairs.clear()
        monkeypatch.setattr(dictionary, "WINDOW_MAP_CAP", 8)
        calls = 0
        bisect = SortedBoundaryDict.lookup

        def counting(self, src, pos):
            nonlocal calls
            calls += 1
            return bisect(self, src, pos)

        monkeypatch.setattr(SortedBoundaryDict, "lookup", counting)
        for _ in range(2):
            assert [d.encode(k) for k in keys] == want
            assert len(d.pairs) == 8
        assert calls == 0

    @pytest.mark.parametrize("scheme", ["3grams", "4grams", "alm", "alm-improved"])
    def test_instance_lookup_is_called_per_symbol(self, scheme):
        """A counter on the instance sees one call per symbol of ``hope.encode``, as
        ``perfbench/measure.lookups_per_key`` relies on; the maps are bypassed."""
        hope = _hope(scheme, "nul")
        d = hope.dictionary
        keys = _EDGE_KEYS + _NUL_RICH + SAMPLES[:4]
        want = [d.encode(k) for k in keys]
        if d.windows is not None:
            d.windows.clear()
            d.pairs.clear()
        calls = 0

        def counting(src, pos):
            nonlocal calls
            calls += 1
            return type(d).lookup(d, src, pos)

        d.lookup = counting
        try:
            for k, w in zip(keys, want):
                before = calls
                assert hope.encode(k) == w
                assert calls - before == _reference_steps(d, k)[2]
        finally:
            del d.lookup
        assert not d.windows
        assert not d.pairs
