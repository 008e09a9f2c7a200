"""Hypothesis property tests: the §3.1 theorem — any complete HOPE
dictionary encodes arbitrary byte strings order-preservingly — and its
tree-facing form: the zero-padded code bytes alone are ordered strictly
like the source keys, and decode back to them."""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.hope import SCHEMES, build_hope
from repro.workloads.datasets import email_keys

SAMPLES = [b"com.gmail@alice", b"com.gmail@bob", b"org.wiki@dave", b"net.x@y"] * 20

_BUILT = {}


def _hope(scheme):
    if scheme not in _BUILT:
        _BUILT[scheme] = build_hope(scheme, SAMPLES, max_dict_entries=1024)
    return _BUILT[scheme]


@pytest.mark.parametrize("scheme", ["single", "double", "3grams", "4grams", "alm", "alm-improved"])
class TestOrderTheorem:
    @given(a=st.binary(min_size=1, max_size=24), b=st.binary(min_size=1, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_pairwise_order(self, scheme, a, b):
        hope = _hope(scheme)
        ka = hope.dictionary.encode(a)[0]
        kb = hope.dictionary.encode(b)[0]
        if a < b:
            assert ka < kb
        elif a > b:
            assert ka > kb
        else:
            assert ka == kb

    @given(k=st.binary(min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_total_progress(self, scheme, k):
        """Completeness: encoding terminates and consumes every byte."""
        hope = _hope(scheme)
        payload, nbits = hope.dictionary.encode(k)
        assert nbits >= 1
        # decode-ability sanity: bit count consistent with payload length
        assert (nbits + 7) // 8 == len(payload)


# Keys dense in 0x00 and 0xFF: the leftmost and rightmost axis intervals
# get short codes, which is where zero padding can tie two keys.
_NUL_ALPHABET = b"\x00\x00\x00\xff\xff\x01a"
_NUL_RICH = st.lists(st.sampled_from(_NUL_ALPHABET), max_size=12).map(bytes) | st.binary(max_size=12)
_NUL_BUILT = {}


def _nul_rich_samples(seed):
    rng = random.Random(seed)
    out = [bytes(rng.choice(_NUL_ALPHABET) for _ in range(rng.randrange(13))) for _ in range(300)]
    out += [rng.randbytes(rng.randrange(13)) for _ in range(100)]
    return out


def _nul_hope(scheme, entries):
    if (scheme, entries) not in _NUL_BUILT:
        _NUL_BUILT[scheme, entries] = build_hope(scheme, _nul_rich_samples(entries), max_dict_entries=entries)
    return _NUL_BUILT[scheme, entries]


@pytest.mark.parametrize("entries", [512, 4096])
@pytest.mark.parametrize("scheme", SCHEMES)
class TestPaddedBytesOrder:
    def test_sorted_keys_encode_strictly_increasing(self, scheme, entries):
        """Samples, ``b""`` and NUL/0xFF extensions of every sample, sorted."""
        hope = _nul_hope(scheme, entries)
        samples = _nul_rich_samples(entries)
        keys = {b""} | {k + ext for k in samples for ext in (b"", b"\x00", b"\x00\x00", b"\xff")}
        padded = [hope.dictionary.encode(k)[0] for k in sorted(keys)]
        assert all(a < b for a, b in zip(padded, padded[1:]))

    @given(a=_NUL_RICH, b=_NUL_RICH, extend=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_pairwise_strict_order(self, scheme, entries, a, b, extend):
        """Random pairs, half of them a key and a short extension of it."""
        if extend:
            b = a + b[:2]
        hope = _nul_hope(scheme, entries)
        pa, pb = hope.dictionary.encode(a)[0], hope.dictionary.encode(b)[0]
        assert (pa < pb) == (a < b)
        assert (pa == pb) == (a == b)


# -- round trip: the padded bytes alone decode back to the key ------------

_ROUND_TRIP = {}


def _trained(scheme, training):
    """A built HOPE and its (nbits, code) -> interval symbol table."""
    if (scheme, training) not in _ROUND_TRIP:
        if training == "email":
            hope = build_hope(scheme, email_keys(1000), max_dict_entries=4096)
        else:
            hope = _nul_hope(scheme, int(training.split("-")[1]))
        table = {(iv.nbits, iv.code): iv.symbol for iv in hope.intervals}
        _ROUND_TRIP[scheme, training] = hope, table
    return _ROUND_TRIP[scheme, training]


def _decode(table, padded):
    """Read the bits greedily, one prefix-free code at a time, into symbols.

    Stops once fewer than 8 bits remain and all are zero: that is the
    padding, since no code of fewer than 8 bits is all zeros.
    """
    bits = "".join(f"{b:08b}" for b in padded)
    out, pos, end = [], 0, 0
    while len(bits) - pos >= 8 or "1" in bits[pos:]:
        end += 1
        if end > len(bits):
            raise ValueError(f"no code matches {bits[pos:]!r}")
        symbol = table.get((end - pos, int(bits[pos:end], 2)))
        if symbol is not None:
            out.append(symbol)
            pos = end
    return b"".join(out)


@pytest.mark.parametrize("training", ["email", "nul-512", "nul-4096"])
@pytest.mark.parametrize("scheme", SCHEMES)
@given(k=st.binary())
@example(k=b"")
@example(k=b"\x00")
@example(k=b"\x00\x00")  # a short all-zero last code would pad away
@example(k=b"\xff\x00\x00")
@example(k=bytes(range(256)))
@settings(max_examples=150, deadline=None)
def test_padded_bytes_decode_to_key(scheme, training, k):
    hope, table = _trained(scheme, training)
    padded, nbits = hope.dictionary.encode(k)
    assert len(padded) == -(-nbits // 8)
    assert _decode(table, padded) == k
