"""Tests for the B+tree / Prefix B+tree substrates (trees/bplustree.py)."""
import random
from bisect import bisect_left

import pytest

from repro.trees.bplustree import FANOUT, NODE_BYTES, BPlusTree, PrefixBPlusTree, _Inner


def _keys(n, seed=0, lo=97, hi=123, minlen=3, maxlen=14):
    rng = random.Random(seed)
    out = set()
    while len(out) < n:
        out.add(bytes(rng.randrange(lo, hi) for _ in range(rng.randrange(minlen, maxlen))))
    return sorted(out)


def _grown(cls, keys, seed):
    """Even-indexed keys bulk-loaded, odd-indexed ones inserted in shuffled order."""
    t = cls()
    t.build(keys[::2], list(range(0, len(keys), 2)))
    order = list(range(1, len(keys), 2))
    random.Random(seed).shuffle(order)
    for i in order:
        t.insert(keys[i], i)
    return t


def _inner_count(t):
    return t._levels()[0]


def _leaves(t):
    node = t.root
    while isinstance(node, _Inner):
        node = node.children[0]
    while node is not None:
        yield node
        node = node.next


@pytest.fixture(scope="module", params=[BPlusTree, PrefixBPlusTree], ids=["btree", "prefixbtree"])
def loaded(request):
    keys = _keys(2000, seed=1)
    t = request.param()
    t.build(keys, list(range(len(keys))))
    return t, keys


class TestLookup:
    def test_all_present(self, loaded):
        t, keys = loaded
        for i in range(0, len(keys), 13):
            assert t.lookup(keys[i]) == i

    def test_absent(self, loaded):
        t, keys = loaded
        present = set(keys)
        rng = random.Random(5)
        for _ in range(300):
            k = bytes(rng.randrange(97, 123) for _ in range(6))
            if k not in present:
                assert t.lookup(k) is None

    def test_empty_tree(self):
        t = BPlusTree()
        t.build([], [])
        assert t.lookup(b"x") is None
        assert t.scan(b"", 5) == []


class TestScan:
    def test_matches_reference(self, loaded):
        t, keys = loaded
        # The same keys loaded half in bulk, half by inserts that split leaves.
        grown = type(t)()
        grown.build(keys[::2], list(range(0, len(keys), 2)))
        for i in range(1, len(keys), 2):
            grown.insert(keys[i], i)
        rng = random.Random(7)
        starts = [bytes(rng.randrange(97, 123) for _ in range(4)) for _ in range(100)]
        starts += [k + b"\x00" for k in keys[::97]]  # strictly between two keys
        starts += keys[::89] + [b"", keys[-1], keys[-1] + b"\x00"]  # the last: past every key
        assert len(list(_leaves(grown))) > len(list(_leaves(t)))  # inserts split leaves
        for tree in (t, grown):
            # a negative count is no count; 25 and more cross >= 3 leaves of <= 16 slots
            for count in (-5, -1, 0, 1, 14, 15, 25, 100, len(keys) + 1):
                for start in starts:
                    i = bisect_left(keys, start)
                    n = max(0, count)
                    exp = list(zip(keys[i : i + n], range(i, i + n)))
                    assert tree.scan(start, count) == exp

    def test_scan_from_start(self, loaded):
        t, keys = loaded
        assert [k for k, _ in t.scan(b"", 10)] == keys[:10]

    def test_scan_past_end(self, loaded):
        t, keys = loaded
        assert t.scan(b"\xff\xff", 10) == []

    def test_scan_crosses_leaves(self, loaded):
        t, keys = loaded
        got = [k for k, _ in t.scan(keys[0], 100)]
        assert got == keys[:100]

    def test_result_is_a_fresh_list(self, loaded):
        """Mutating what a scan returned leaves the tree's leaves as they were."""
        t, keys = loaded
        for count in (1, 14, 100):  # within the first leaf, all of it, across leaves
            out = t.scan(keys[0], count)
            out.clear()
            assert t.scan(keys[0], count) == list(zip(keys[:count], range(count)))


class TestInsert:
    @pytest.mark.parametrize("cls", [BPlusTree, PrefixBPlusTree])
    def test_incremental_build_matches_bulk(self, cls):
        keys = _keys(800, seed=2)
        t = cls()
        order = list(keys)
        random.Random(3).shuffle(order)
        for i, k in enumerate(order):
            t.insert(k, k)
        assert len(t) == len(keys)
        for k in keys:
            assert t.lookup(k) == k
        assert [k for k, _ in t.scan(b"", len(keys))] == keys

    @pytest.mark.parametrize("cls", [BPlusTree, PrefixBPlusTree])
    def test_update_existing(self, cls):
        t = cls()
        t.build([b"a", b"b"], [1, 2])
        t.insert(b"a", 99)
        assert t.lookup(b"a") == 99
        assert t.scan(b"", 5) == [(b"a", 99), (b"b", 2)]
        assert len(t) == 2

    @pytest.mark.parametrize("cls", [BPlusTree, PrefixBPlusTree])
    def test_update_after_splits_shows_in_scan(self, cls):
        keys = _keys(1200, seed=6)
        t = _grown(cls, keys, seed=8)
        bulk = cls()
        bulk.build(keys[::2])
        assert _inner_count(t) > _inner_count(bulk)  # inserts split inner nodes too
        vals = list(range(len(keys)))
        for i in range(0, len(keys), 7):  # overwrite bulk-loaded and inserted keys alike
            vals[i] = -i - 1
            t.insert(keys[i], vals[i])
        assert len(t) == len(keys)
        for i in range(0, len(keys), 7):
            assert t.lookup(keys[i]) == vals[i]
        assert t.scan(b"", len(keys)) == list(zip(keys, vals))
        assert t.scan(keys[21], 30) == list(zip(keys[21:51], vals[21:51]))

    @pytest.mark.parametrize("cls", [BPlusTree, PrefixBPlusTree])
    def test_insert_into_bulk_loaded(self, cls):
        keys = _keys(500, seed=4)
        t = cls()
        t.build(keys, list(range(len(keys))))
        extra = _keys(200, seed=9, lo=65, hi=91)
        for k in extra:
            t.insert(k, k)
        for k in extra:
            assert t.lookup(k) == k
        for i in range(0, len(keys), 17):
            assert t.lookup(keys[i]) == i


class TestSlots:
    @pytest.mark.parametrize("cls", [BPlusTree, PrefixBPlusTree])
    def test_items_follow_keys(self, cls):
        keys = _keys(3000, seed=11)
        t = _grown(cls, keys, seed=12)
        bulk = cls()
        bulk.build(keys[::2])
        assert _inner_count(t) > _inner_count(bulk)  # inserts split inner nodes too
        seen = []
        for leaf in _leaves(t):
            assert 0 < len(leaf.keys) <= FANOUT
            assert [k for k, _ in leaf.items] == leaf.keys
            seen += leaf.items
        assert seen == list(zip(keys, range(len(keys))))


class TestBulkLoadInput:
    @pytest.mark.parametrize("cls", [BPlusTree, PrefixBPlusTree])
    @pytest.mark.parametrize("keys", [[b"b", b"a"], [b"a", b"b", b"b"], [b"ab", b"a"]], ids=["unsorted", "duplicate", "prefix-after"])
    def test_rejects_not_strictly_increasing(self, cls, keys):
        with pytest.raises(ValueError, match="strictly increasing"):
            cls().build(keys)


class TestMemory:
    def test_node_budget(self, loaded):
        t, keys = loaded
        mem = t.memory_bytes()
        min_leaves = (len(keys) + FANOUT - 1) // FANOUT
        assert mem >= min_leaves * NODE_BYTES

    def test_prefix_tree_not_larger(self):
        # shared-prefix keys: prefix truncation must save bytes
        keys = sorted(b"com.gmail@user%05d" % i for i in range(1000))
        plain = BPlusTree()
        plain.build(keys)
        pfx = PrefixBPlusTree()
        pfx.build(keys)
        assert pfx.memory_bytes() < plain.memory_bytes()

    def test_memory_model_pinned(self):
        # Pinned analytic bytes: the runtime leaf layout must not move them.
        keys = _keys(3000, seed=11)
        assert _grown(BPlusTree, keys, seed=12).memory_bytes() == 84807
        assert _grown(PrefixBPlusTree, keys, seed=12).memory_bytes() == 82992

    @pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "grown"])
    def test_one_separator_per_leaf_pair(self, bulk):
        """The Prefix B+tree charges each adjacent leaf pair one separator, the
        right leaf's first key: the inner nodes hold exactly those keys."""
        keys = _keys(3000, seed=11)
        if bulk:
            t = PrefixBPlusTree()
            t.build(keys)
        else:
            t = _grown(PrefixBPlusTree, keys, seed=12)
        level, seps = [t.root], []
        while isinstance(level[0], _Inner):
            seps += [k for n in level for k in n.keys]
            level = [c for n in level for c in n.children]
        assert level == list(_leaves(t))
        assert sorted(seps) == [leaf.keys[0] for leaf in level[1:]]

    def test_memory_grows_with_keys(self):
        a, b = BPlusTree(), BPlusTree()
        a.build(_keys(100, seed=1))
        b.build(_keys(1000, seed=1))
        assert b.memory_bytes() > a.memory_bytes()


class TestSeparators:
    def test_shortest_separator(self):
        f = PrefixBPlusTree.shortest_separator
        assert f(b"apple", b"banana") == b"b"
        assert f(b"abc", b"abd") == b"abd"
        assert f(b"ab", b"abc") == b"abc"
        assert len(f(b"carrot", b"carrx")) == 5

    def test_separator_orders_between(self):
        f = PrefixBPlusTree.shortest_separator
        for a, b in [(b"apple", b"banana"), (b"aa", b"ab"), (b"x", b"xa")]:
            sep = f(a, b)
            assert a < sep <= b
