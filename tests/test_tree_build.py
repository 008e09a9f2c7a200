"""Every tree bulk-load runs with the cyclic collector paused and leaves it as it found it,
replaces any earlier build, and rejects unsorted or duplicate keys and values of another
length. Every tree holds chains of nested prefix keys thousands of bytes deep."""
import gc

import pytest

from repro.trees.art import ART
from repro.trees.bplustree import BPlusTree, PrefixBPlusTree
from repro.trees.hot import HOT
from repro.trees.surf import SuRF

TREES = [ART, HOT, BPlusTree, PrefixBPlusTree, SuRF]
SCANNING = TREES[:-1]  # SuRF is a filter: it keeps no values and has no scan


class _Keys(list):
    """Keys that record whether the collector is on each time a build iterates them."""

    def __init__(self, keys):
        super().__init__(keys)
        self.gc_seen = []

    def __iter__(self):
        self.gc_seen.append(gc.isenabled())
        return super().__iter__()


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.__name__)
def test_build_pauses_and_restores_the_collector(tree, gc_state):
    keys = _Keys([b"a", b"ab", b"b", b"b\x00"])
    t = tree()
    t.build(keys)
    assert keys.gc_seen and not any(keys.gc_seen)
    assert gc.isenabled() == gc_state
    assert t.n_keys == len(keys)
    with pytest.raises((ValueError, TypeError)):
        tree().build([b"b", b"a", None])  # unsorted, and not all bytes
    assert gc.isenabled() == gc_state


FIRST = [b"a", b"ab", b"b", b"b\x00"]
SECOND = [b"c", b"ca", b"d"]


@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.__name__)
def test_rebuild_replaces_the_key_set(tree):
    t = tree()
    t.build(FIRST)
    t.build(SECOND)
    fresh = tree()
    fresh.build(SECOND)
    assert t.n_keys == fresh.n_keys == len(SECOND)
    assert t.memory_bytes() == fresh.memory_bytes()
    holds = t.may_contain if tree is SuRF else (lambda k: t.lookup(k) is not None)
    assert not any(map(holds, FIRST))
    assert all(map(holds, SECOND))


@pytest.mark.parametrize("keys", [[b"b", b"a"], [b"a", b"b", b"b"]], ids=["unsorted", "duplicate"])
@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.__name__)
def test_build_rejects_unsorted_or_duplicate_keys(tree, keys):
    with pytest.raises(ValueError):
        tree().build(keys)


@pytest.mark.parametrize("tree", SCANNING, ids=lambda t: t.__name__)
@pytest.mark.parametrize("n_values", [2, 4])
def test_rejects_values_of_another_length(tree, n_values):
    with pytest.raises(ValueError):
        tree().build([b"a", b"b", b"c"], list(range(n_values)))


@pytest.mark.parametrize("tree", SCANNING, ids=lambda t: t.__name__)
def test_scan_of_no_count_is_empty(tree):
    t = tree()
    t.build(FIRST)
    for count in (0, -1, -5):  # a negative count is no count
        for start in (b"", b"ab", b"z"):
            assert t.scan(start, count) == []


@pytest.mark.parametrize("chain", [b"a", b"\x00"], ids=["a", "nul"])
@pytest.mark.parametrize("tree", TREES, ids=lambda t: t.__name__)
def test_deep_prefix_chain(tree, chain):
    """Keys ``chain * i`` for i < 3000: each a prefix of the next, so ART and HOT
    are paths thousands of nodes deep, which no method may walk by recursion."""
    keys = [chain * i for i in range(3000)]
    t = tree()
    t.build(keys)
    assert t.memory_bytes() > 0
    if tree is SuRF:
        assert all(map(t.may_contain, keys))
        assert t.may_contain_range(b"", keys[-1])
        assert t.avg_leaf_depth() > 0
        return
    assert [t.lookup(k) for k in keys] == list(range(len(keys)))
    assert t.scan(b"", len(keys)) == list(zip(keys, range(len(keys))))
    assert t.scan(keys[1500], 10) == list(zip(keys[1500:1510], range(1500, 1510)))  # a descent 1,500 deep
    grown = tree()
    for i in range(0, len(keys), 2):
        grown.insert(keys[i], i)
    assert grown.scan(b"", len(keys)) == [(k, i) for i, k in enumerate(keys)][::2]
    assert grown.memory_bytes() > 0
    if hasattr(tree, "avg_leaf_depth"):
        fresh = tree()
        fresh.build(keys[::2])
        assert (grown.memory_bytes(), grown.avg_leaf_depth()) == (fresh.memory_bytes(), fresh.avg_leaf_depth())
