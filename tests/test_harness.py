"""Tests for the experiment harness (bench/harness.py), plus the §7
structural expectations (compressed trees are shorter; CPR > 1; memory
accounting sane)."""
import pytest

from repro.bench import harness
from repro.bench.harness import CONFIGS, TREES, make_tree, run_tree_bench
from repro.workloads.datasets import dataset_keys
from repro.workloads.ycsb import workload_e

KEYS = dataset_keys("email", 2500, seed=41)


class TestFactory:
    @pytest.mark.parametrize("name", TREES)
    def test_make(self, name):
        assert make_tree(name) is not None

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_tree("lsm")


@pytest.mark.parametrize("tree", TREES)
class TestSequentialHarness:
    def test_uncompressed_cell(self, tree):
        r = run_tree_bench(tree, "uncompressed", KEYS, n_queries=200)
        assert r["point_ns"] > 0
        assert r["memory_bytes"] > 0
        assert r["cpr"] == 1.0
        assert r["point_hit_rate"] == 1.0

    def test_compressed_cell(self, tree):
        r = run_tree_bench(tree, "3grams-64K", KEYS, n_queries=200)
        assert r["cpr"] > 1.2
        assert r["point_hit_rate"] == 1.0
        if tree in ("surf", "art", "hot"):
            u = run_tree_bench(tree, "uncompressed", KEYS, n_queries=50)
            assert r["height"] <= u["height"]  # §7: compressed tries are shorter


class TestConfigTable:
    def test_all_seven_configs(self):
        assert len(CONFIGS) == 7
        assert "uncompressed" in CONFIGS

    def test_insert_metrics_for_btree_only(self):
        r = run_tree_bench("btree", "uncompressed", KEYS, n_queries=200)
        assert r["insert_ns"] is not None
        r = run_tree_bench("surf", "uncompressed", KEYS, n_queries=100)
        assert r["insert_ns"] is None  # SuRF is batch-built


def _keep(monkeypatch, name):
    """Replace ``harness.<name>`` by a wrapper that keeps every object it returns."""
    made, make = [], getattr(harness, name)

    def keep(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(harness, name, keep)
    return made


@pytest.mark.parametrize("config", ["double", "3grams-64K"])
@pytest.mark.parametrize("tree", [t for t in TREES if t != "surf"])
def test_insert_stream_loads_encoded_source_keys(tree, config, monkeypatch):
    """Each held-out key the E stream inserts is in the tree as ``enc(k)``, once."""
    trees, hopes = _keep(monkeypatch, "make_tree"), _keep(monkeypatch, "build_hope")
    r = run_tree_bench(tree, config, KEYS, n_queries=600)
    n_hold = len(KEYS) - r["n_keys"]
    ops = workload_e(KEYS[:-n_hold], KEYS[-n_hold:], 600, 0)
    inserted = [k for op, k, _ in ops if op == "insert"]
    assert len(inserted) > 10
    [t], [hope] = trees, hopes
    assert [t.lookup(hope.dictionary.encode(k)[0]) for k in inserted] == [-1] * len(inserted)
    assert len(t) == r["n_keys"] + len(inserted)


def test_lost_insert_raises(monkeypatch):
    """A tree that drops an insert fails the cell instead of timing it."""
    real, calls = harness.BPlusTree.insert, []

    def insert(self, key, value):  # drops every second key
        calls.append(key)
        if len(calls) % 2:
            real(self, key, value)

    monkeypatch.setattr(harness.BPlusTree, "insert", insert)
    with pytest.raises(RuntimeError, match="inserted keys"):
        run_tree_bench("btree", "double", KEYS, n_queries=600)


def test_short_scan_raises(monkeypatch):
    """A tree whose scan drops its last pair fails the cell instead of timing it."""
    real = harness.PrefixBPlusTree.scan
    monkeypatch.setattr(harness.PrefixBPlusTree, "scan", lambda self, start, count: real(self, start, count)[:-1])
    with pytest.raises(RuntimeError, match="a scan of"):
        run_tree_bench("prefixbtree", "double", KEYS, n_queries=200)


def test_wrong_point_value_raises(monkeypatch):
    """A lookup that finds the key but returns another value fails the cell."""
    real = harness.ART.lookup
    monkeypatch.setattr(harness.ART, "lookup", lambda self, key: real(self, key) + 1)
    with pytest.raises(RuntimeError, match="loaded value"):
        run_tree_bench("art", "3grams-64K", KEYS, n_queries=200)


@pytest.mark.parametrize("config", ["uncompressed", "single"])
@pytest.mark.parametrize("tree", TREES)
@pytest.mark.parametrize(
    "keys",
    [[KEYS[0]] + KEYS[:400], KEYS[:400] + [KEYS[0]]],
    ids=["twice-loaded", "loaded-and-inserted"],
)
def test_duplicate_key_raises(tree, config, keys):
    """No key is dropped silently: a repeated key fails the cell, whether
    both copies are loaded or one is held back for the insert stream."""
    with pytest.raises(ValueError, match="not strictly increasing"):
        run_tree_bench(tree, config, keys, n_queries=20)


# ``run_tree_bench``'s non-time fields on ``KEYS`` (200 queries): n_keys,
# tree_memory_bytes, memory_bytes, height, cpr, point_hit_rate. A change to the
# harness must leave each of them equal.
PINNED_FIELDS = ("n_keys", "tree_memory_bytes", "memory_bytes", "height", "cpr", "point_hit_rate")
PINNED_CELLS = {
    ("surf", "uncompressed"): (2375, 9861, 9861, 18.286315789473683, 1.0, 1.0),
    ("surf", "double"): (2375, 8176, 337136, 8.642105263157895, 1.824157668023839, 1.0),
    ("surf", "3grams-64K"): (2375, 8320, 46235, 8.150736842105264, 1.798109640831758, 1.0),
    ("art", "uncompressed"): (2375, 98128, 98128, 7.893052631578947, 1.0, 1.0),
    ("art", "double"): (2375, 94044, 423004, 6.656, 1.824157668023839, 1.0),
    ("art", "3grams-64K"): (2375, 99364, 137279, 6.768, 1.798109640831758, 1.0),
    ("hot", "uncompressed"): (2375, 55246, 55246, 3.873684210526316, 1.0, 1.0),
    ("hot", "double"): (2375, 55168, 384128, 3.624, 1.824157668023839, 1.0),
    ("hot", "3grams-64K"): (2375, 55220, 93135, 3.7701052631578946, 1.798109640831758, 1.0),
    ("btree", "uncompressed"): (2375, 108932, 108932, None, 1.0, 1.0),
    ("btree", "double"): (2375, 80998, 409958, None, 1.824157668023839, 1.0),
    ("btree", "3grams-64K"): (2375, 81489, 119404, None, 1.798109640831758, 1.0),
    ("prefixbtree", "uncompressed"): (2375, 87742, 87742, None, 1.0, 1.0),
    ("prefixbtree", "double"): (2375, 73479, 402439, None, 1.824157668023839, 1.0),
    ("prefixbtree", "3grams-64K"): (2375, 75253, 113168, None, 1.798109640831758, 1.0),
}


@pytest.mark.parametrize("tree,config", list(PINNED_CELLS))
def test_pinned_non_time_fields(tree, config):
    r = run_tree_bench(tree, config, KEYS, n_queries=200)
    assert tuple(r[f] for f in PINNED_FIELDS) == PINNED_CELLS[tree, config]


def test_memory_read_once_per_cell(monkeypatch):
    """A cell reads the tree's memory figure once: for HOT each read is a full walk."""
    real, calls = harness.HOT.memory_bytes, []
    monkeypatch.setattr(harness.HOT, "memory_bytes", lambda self: calls.append(self) or real(self))
    run_tree_bench("hot", "uncompressed", KEYS, n_queries=50)
    assert len(calls) == 1
