"""Unit tests for the string-axis helpers (core/strutil.py)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hu_tucker import hu_tucker_codes
from repro.core.strutil import (
    bits_to_bytes,
    code_key,
    increment,
    interval_symbol,
    is_prefix_free,
    lcp,
    pred_inf,
)


class TestIncrement:
    def test_simple(self):
        assert increment(b"abc") == b"abd"

    def test_carry(self):
        assert increment(b"ab\xff") == b"ac"

    def test_multi_carry(self):
        assert increment(b"a\xff\xff") == b"b"

    def test_all_ff(self):
        assert increment(b"\xff\xff") is None

    def test_empty(self):
        assert increment(b"") is None

    def test_single(self):
        assert increment(b"\x00") == b"\x01"

    def test_max_byte_prefix(self):
        assert increment(b"\xff\x00") == b"\xff\x01"

    @given(st.binary(min_size=1, max_size=12))
    def test_increment_is_strictly_greater(self, b):
        inc = increment(b)
        if inc is not None:
            assert inc > b
            # every extension of b is below inc
            assert b + b"\xff" * 4 < inc


class TestLcp:
    @pytest.mark.parametrize(
        "a,b,expect",
        [
            (b"abc", b"abd", b"ab"),
            (b"abc", b"abc", b"abc"),
            (b"abc", b"abcdef", b"abc"),
            (b"", b"abc", b""),
            (b"xyz", b"abc", b""),
        ],
    )
    def test_cases(self, a, b, expect):
        assert lcp(a, b) == expect
        assert lcp(b, a) == expect

    @given(st.binary(max_size=10), st.binary(max_size=10))
    def test_lcp_is_common_prefix(self, a, b):
        p = lcp(a, b)
        assert a.startswith(p) and b.startswith(p)
        if len(a) > len(p) and len(b) > len(p):
            assert a[len(p)] != b[len(p)]


class TestPredInf:
    def test_ends_zero(self):
        assert pred_inf(b"b\x00") == (b"b", False)

    def test_normal(self):
        assert pred_inf(b"ion") == (b"iom", True)

    def test_raises_empty(self):
        with pytest.raises(ValueError):
            pred_inf(b"")


class TestIntervalSymbol:
    @pytest.mark.parametrize(
        "lo,hi,expect",
        [
            (b"a", b"b", b"a"),  # single-char interval
            (b"inh", b"ion", b"i"),  # gram gap interval (Fig 4d)
            (b"in", b"inh", b"in"),  # lo is prefix of hi
            (b"abc", b"abc\x00", b"abc"),  # exact-string interval
            (b"ing", b"inh", b"ing"),  # gram own interval
            (b"\xff", None, b"\xff"),  # last interval on the axis
            (b"\xff\x10", None, b"\xff"),
            (b"a", b"a\x00", b"a"),  # terminator interval (Double-Char)
        ],
    )
    def test_cases(self, lo, hi, expect):
        assert interval_symbol(lo, hi) == expect

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError):
            interval_symbol(b"b", b"a")

    @given(st.binary(min_size=1, max_size=8), st.binary(min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_symbol_is_common_prefix_of_members(self, lo, hi):
        if not lo < hi:
            return
        sym = interval_symbol(lo, hi)
        assert lo.startswith(sym)
        # any member of [lo, hi) must start with sym: check lo and a
        # string just below hi
        base, inf = pred_inf(hi)
        probe = base + (b"\xff" * 3 if inf else b"")
        if lo <= probe < hi:
            assert probe.startswith(sym)


class TestCodes:
    def test_code_key_orders_bitstrings(self):
        # 0 < 00 < 01 < 1 as bitstrings
        codes = [(0, 1), (0, 2), (1, 2), (1, 1)]
        keys = [code_key(c) for c in codes]
        assert keys == sorted(keys)

    def test_prefix_free_detects_prefix(self):
        assert not is_prefix_free([(0, 1), (1, 2)])  # "0" prefix of... "01"? no: 1,2 = "01"
        assert not is_prefix_free([(0, 1), (0, 2)])  # "0" prefix of "00"
        assert is_prefix_free([(0, 2), (1, 2), (1, 1)])

    def test_bits_to_bytes_pads_right(self):
        assert bits_to_bytes(0b101, 3) == bytes([0b10100000])
        assert bits_to_bytes(0b1, 9) == bytes([0, 0b10000000])
        assert bits_to_bytes(0, 0) == b""

    @given(
        weights=st.lists(st.floats(0, 100), min_size=2, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_padded_bytes_order_equals_bitstring_order(self, weights, data):
        """Concatenated Hu-Tucker codes, with the first code extended by a
        1 bit as ``build_hope`` does, pad to bytes ordered strictly like
        their bitstrings: no padding ties."""
        codes = hu_tucker_codes(weights)
        codes[0] = (1, codes[0][1] + 1)
        seqs = st.lists(st.sampled_from(codes), max_size=6)
        a = data.draw(seqs)
        b = data.draw(seqs) if data.draw(st.booleans()) else a + data.draw(seqs)

        def padded_and_bits(seq):
            acc = n = 0
            for v, nb in seq:
                acc, n = acc << nb | v, n + nb
            return bits_to_bytes(acc, n), "".join(format(v, f"0{nb}b") for v, nb in seq)

        pa, bits_a = padded_and_bits(a)
        pb, bits_b = padded_and_bits(b)
        assert (pa < pb) == (bits_a < bits_b)
        assert (pa == pb) == (bits_a == bits_b)
