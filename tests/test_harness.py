"""Tests for the experiment harness (bench/harness.py), plus the §7
structural expectations (compressed trees are shorter; CPR > 1; memory
accounting sane)."""
import pytest

from repro.bench.harness import CONFIGS, TREES, make_tree, run_tree_bench
from repro.workloads.datasets import dataset_keys

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
