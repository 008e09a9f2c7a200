"""Every tree bulk-load runs with the cyclic collector paused and leaves it as it found it,
replaces any earlier build, and rejects unsorted or duplicate keys."""
import gc

import pytest

from repro.trees.art import ART
from repro.trees.bplustree import BPlusTree, PrefixBPlusTree
from repro.trees.hot import HOT
from repro.trees.surf import SuRF

TREES = [ART, HOT, BPlusTree, PrefixBPlusTree, SuRF]


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
