"""Tests for the ART substrate (trees/art.py)."""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dictionary import art_node_bytes
from repro.trees.art import ART, LEAF_BYTES, PESSIMISTIC_BYTES, TERM, _ArtLeaf
from repro.workloads.datasets import email_keys


def _keys(n, seed=0, minlen=2, maxlen=16, alphabet=(97, 123)):
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        out.add(bytes(rng.randrange(*alphabet) for _ in range(rng.randrange(minlen, maxlen))))
    return sorted(out)


@pytest.fixture(scope="module")
def loaded():
    keys = _keys(2500, seed=1)
    t = ART()
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
        rng = random.Random(2)
        miss = 0
        for _ in range(500):
            k = bytes(rng.randrange(97, 123) for _ in range(7))
            if k not in present:
                assert t.lookup(k) is None
                miss += 1
        assert miss > 0

    def test_empty(self):
        assert ART().lookup(b"x") is None

    def test_single_key(self):
        t = ART()
        t.insert(b"hello", 1)
        assert t.lookup(b"hello") == 1
        assert t.lookup(b"hell") is None
        assert t.lookup(b"hello!") is None


class TestPrefixKeys:
    """The paper's first ART modification: prefix-key support."""

    def test_key_prefix_of_another(self):
        t = ART()
        t.insert(b"abc", 1)
        t.insert(b"abcd", 2)
        t.insert(b"ab", 3)
        assert t.lookup(b"abc") == 1
        assert t.lookup(b"abcd") == 2
        assert t.lookup(b"ab") == 3
        assert t.lookup(b"a") is None

    def test_prefix_keys_scan_order(self):
        t = ART()
        keys = [b"a", b"aa", b"aaa", b"ab", b"b"]
        for i, k in enumerate(keys):
            t.insert(k, i)
        assert [k for k, _ in t.scan(b"", 10)] == keys

    def test_empty_suffix_split(self):
        t = ART()
        t.insert(b"test", 1)
        t.insert(b"te", 2)
        assert t.lookup(b"te") == 2
        assert t.lookup(b"test") == 1


class TestPathCompression:
    def test_long_common_prefix_single_node(self):
        t = ART()
        t.insert(b"http://www.example.com/a", 1)
        t.insert(b"http://www.example.com/b", 2)
        # one inner node splitting at the last byte
        assert t.lookup(b"http://www.example.com/a") == 1
        assert t.lookup(b"http://www.example.com/x") is None
        assert t.avg_leaf_depth() == 2.0  # root inner + leaf

    def test_ocps_verifies_at_leaf(self):
        """Keys differing only inside the optimistically-skipped region
        must still resolve correctly (leaf verification)."""
        prefix = b"x" * (PESSIMISTIC_BYTES + 10)
        t = ART()
        t.insert(prefix + b"a_tail1", 1)
        t.insert(prefix + b"b_tail2", 2)
        probe = prefix[:-1] + b"Z" + b"a_tail1"  # differs in skipped zone
        assert t.lookup(probe) is None
        assert t.lookup(prefix + b"a_tail1") == 1


class TestScan:
    def test_matches_reference(self, loaded):
        t, keys = loaded
        rng = random.Random(3)
        for _ in range(100):
            start = bytes(rng.randrange(97, 123) for _ in range(3))
            got = [k for k, _ in t.scan(start, 20)]
            exp = [k for k in keys if k >= start][:20]
            assert got == exp

    def test_scan_all(self, loaded):
        t, keys = loaded
        assert [k for k, _ in t.scan(b"", len(keys) + 5)] == keys

    def test_scan_exact_start(self, loaded):
        t, keys = loaded
        got = [k for k, _ in t.scan(keys[100], 5)]
        assert got == keys[100:105]


class TestInsert:
    def test_random_order_inserts(self):
        keys = _keys(1000, seed=5)
        order = list(keys)
        random.Random(6).shuffle(order)
        t = ART()
        for k in order:
            t.insert(k, k)
        assert len(t) == len(keys)
        for k in keys:
            assert t.lookup(k) == k
        assert [k for k, _ in t.scan(b"", len(keys))] == keys

    def test_update(self):
        t = ART()
        t.insert(b"k", 1)
        t.insert(b"k", 2)
        assert t.lookup(b"k") == 2
        assert len(t) == 1


class TestAccounting:
    def test_leaf_memory_excludes_keys(self):
        """ART leaves are 8-byte record pointers; key bytes live with
        the tuple (paper accounting)."""
        t = ART()
        t.insert(b"a" * 100, 1)
        assert t.memory_bytes() == 8

    def test_adaptive_node_sizes(self):
        # fanout 2 -> Node4-sized; fanout 200 -> Node256-sized
        small, big = ART(), ART()
        for b in (97, 98):
            small.insert(bytes([b]), b)
        for b in range(10, 220):
            big.insert(bytes([b]), b)
        per_child_small = small.memory_bytes() / 2
        per_child_big = big.memory_bytes() / 210
        assert small.memory_bytes() == 16 + 4 + 32 + 2 * 8
        assert big.memory_bytes() == 16 + 256 * 8 + 210 * 8

    def test_height_decreases_with_shared_prefix_removed(self):
        shared = [b"same.prefix.everywhere/" + bytes([b]) for b in range(65, 91)]
        t = ART()
        t.build(shared)
        assert t.avg_leaf_depth() == 2.0  # path compression collapses the prefix


def _nul_ff_keys(n, seed):
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        out.add(bytes(rng.choices(b"\x00\x00\x01\xfe\xff\xff", k=rng.randrange(0, 12))))
    return sorted(out)


def _trie_model(keys):
    """(memory_bytes, avg_leaf_depth) of an ART over ``keys``, from an
    uncompressed trie: ART keeps exactly the trie nodes with two or more
    branches, a key that ends at the node counting as one branch."""
    root = {}
    for k in keys:
        node = root
        for b in k:
            node = node.setdefault(b, {})
        node[None] = None  # the key ends here
    memory, depths = LEAF_BYTES * len(keys), []
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        inner = len(node) >= 2
        if inner:
            memory += art_node_bytes(len(node))
        for label, child in node.items():
            if label is None:
                depths.append(depth + inner)
            else:
                stack.append((child, depth + inner))
    return memory, sum(depths) / len(depths) if depths else 0.0


_KEY = st.one_of(st.binary(max_size=12), st.lists(st.sampled_from(b"\x00\x01\xfe\xff"), max_size=10).map(bytes))


class TestReference:
    """Lookup, scan and accounting against a dict, a sorted list and an
    uncompressed trie, on arbitrary binary keys."""

    @settings(max_examples=300, deadline=None)
    @given(keys=st.lists(_KEY, unique=True, max_size=60), probes=st.lists(_KEY, max_size=20))
    @example(keys=[b"", b"a", b"ab", b"abc", b"b", b"\x00", b"\x00\x00", b"\xff", b"\xff\xff\x00"], probes=[b"aa"])
    @example(keys=[b"abc", b"ab", b"abd", b"", b"a"], probes=[b"abcd", b"b"])
    @example(keys=[b"", b"\x00"], probes=[b"\xff"])
    def test_matches_references(self, keys, probes):
        half = len(keys) // 2
        bulk = sorted(keys[:half])
        t = ART()
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
        assert (t.memory_bytes(), t.avg_leaf_depth()) == _trie_model(ref)


class TestPinnedAccounting:
    """Memory and height of fixed key sets, pinned so that a change to the node or split logic shows."""

    def test_email(self):
        keys = sorted(set(email_keys(4000, 7)))
        t = ART()
        t.build(keys)
        assert (len(keys), t.memory_bytes(), t.avg_leaf_depth()) == (4000, 168224, 7.6705)
        assert (t.memory_bytes(), t.avg_leaf_depth()) == _trie_model(keys)

    def test_nul_ff(self):
        keys = _nul_ff_keys(3000, 9)
        t = ART()
        t.build(keys)
        assert (t.memory_bytes(), t.avg_leaf_depth()) == (130060, 7.298666666666667)
        assert (t.memory_bytes(), t.avg_leaf_depth()) == _trie_model(keys)
        assert [k for k, _ in t.scan(b"", len(keys))] == keys


@st.composite
def _key_sets(draw):
    """Unique keys in drawn order: arbitrary and NUL/0xFF keys, a prefix
    chain, and a family sharing a common prefix longer than
    ``PESSIMISTIC_BYTES``, so that nodes with truncated stored bytes occur."""
    stem = draw(st.binary(min_size=PESSIMISTIC_BYTES + 2, max_size=3 * PESSIMISTIC_BYTES))
    keys = draw(st.lists(_KEY, max_size=30))
    keys += [stem + k for k in draw(st.lists(_KEY, max_size=15))]
    keys += [stem[:i] for i in draw(st.lists(st.integers(0, len(stem)), max_size=6))]
    return draw(st.permutations(list(dict.fromkeys(keys))))


_LONG = b"0123456789abcdef"  # longer than PESSIMISTIC_BYTES
_EDGE_KEYS = [b"", b"\x00", b"\x00\x00", b"\xff", b"\xff\xff", b"a", b"ab", b"abc", _LONG, _LONG + b"\x00", _LONG + b"\xff", _LONG + b"x"]


def _shape(node):
    """The subtree as nested tuples: compressed paths, labels in dict order, leaves."""
    if isinstance(node, _ArtLeaf):
        return (node.key, node.value)
    assert list(node.children) == sorted(node.children)  # label order, TERM first
    return (node.prefix, [(label, _shape(child)) for label, child in node.children.items()])


class TestBulkLoad:
    @settings(max_examples=300, deadline=None)
    @given(keys=_key_sets())
    @example(keys=_EDGE_KEYS)
    @example(keys=_EDGE_KEYS[::-1])
    def test_equals_insert_built(self, keys):
        ref = sorted(keys)
        bulk = ART()
        bulk.build(ref, [k + b"!" for k in ref])
        grown = ART()
        for k in keys:
            grown.insert(k, k + b"!")
        assert len(bulk) == len(grown) == len(keys)
        if keys:
            assert _shape(bulk.root) == _shape(grown.root)
        else:
            assert bulk.root is grown.root is None
        assert [k for k, _ in bulk.scan(b"", len(keys) + 1)] == ref

    def test_build_replaces_contents(self):
        t = ART()
        t.build([b"a", b"b"])
        t.build([b"c"], ["x"])
        assert (len(t), t.lookup(b"a"), t.lookup(b"c")) == (1, None, "x")
        t.build([])
        assert (len(t), t.root, t.scan(b"", 5)) == (0, None, [])

    @pytest.mark.parametrize("n_values", [1, 3])
    def test_rejects_values_of_another_length(self, n_values):
        t = ART()
        t.build([b"a"], ["x"])
        with pytest.raises(ValueError, match="values for 2 keys"):
            t.build([b"a", b"b"], list(range(n_values)))
        assert (len(t), t.lookup(b"a")) == (1, "x")  # the old contents stay

    @pytest.mark.parametrize("keys", [[b"b", b"a"], [b"a", b"b", b"b"], [b"ab", b"a"]], ids=["unsorted", "duplicate", "prefix-after"])
    def test_rejects_not_strictly_increasing(self, keys):
        with pytest.raises(ValueError, match="strictly increasing"):
            ART().build(keys)


def _reference_lookup(tree, key):
    """The plain lookup loop, the reference for ``ART.lookup``: it slices
    the stored bytes and the key at every node, and takes the label in
    one expression."""
    node = tree.root
    depth = 0
    while node is not None:
        if isinstance(node, _ArtLeaf):
            return node.value if node.key == key else None
        stored = node.prefix[:PESSIMISTIC_BYTES]
        if key[depth : depth + len(stored)] != stored:
            return None
        depth += len(node.prefix)
        if depth > len(key):
            return None
        label = key[depth] if depth < len(key) else TERM
        node = node.children.get(label)
        depth += 0 if label == TERM else 1
    return None


def _probes(key):
    """Probes next to ``key``: a byte changed at every position, every
    proper prefix, and two extensions past its end."""
    out = [key[:i] for i in range(len(key))] + [key + b"\x00", key + b"\xff"]
    out += [key[:i] + bytes([key[i] ^ 1]) + key[i + 1 :] for i in range(len(key))]
    return out


class TestLookupFastPath:
    @settings(max_examples=200, deadline=None)
    @given(keys=_key_sets())
    @example(keys=_EDGE_KEYS)
    def test_matches_reference_loop(self, keys):
        t = ART()
        t.build(sorted(keys), [k + b"!" for k in sorted(keys)])
        for k in keys:
            assert t.lookup(k) == _reference_lookup(t, k) == k + b"!"
            for probe in _probes(k):
                want = probe + b"!" if probe in keys else None
                assert t.lookup(probe) == _reference_lookup(t, probe) == want

    def test_rejected_before_the_leaf(self):
        """Misses that a compressed path rules out are rejected at its node,
        with no leaf key compared: a probe that differs inside the stored
        bytes, and one that ends inside the path."""
        compares = []

        class CountingKey(bytes):
            def __eq__(self, other):
                compares.append(other)
                return bytes.__eq__(self, other)

            __hash__ = bytes.__hash__

        for stem in (b"xyz", _LONG):  # all of the path stored / its first PESSIMISTIC_BYTES
            t = ART()
            t.build([CountingKey(stem), CountingKey(stem + b"a"), CountingKey(stem + b"b")])
            assert t.root.prefix == stem
            for i in range(min(len(stem), PESSIMISTIC_BYTES)):
                assert t.lookup(stem[:i] + b"#" + stem[i + 1 :] + b"a") is None
            assert t.lookup(stem[:-1]) is None
            assert compares == []
            assert t.lookup(stem + b"a") == 1
            assert compares == [stem + b"a"]
            compares.clear()
