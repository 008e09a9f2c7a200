"""Tests for the experiment harness (bench/harness.py) — sequential and
Spark partition-parallel paths, plus the §7 structural expectations
(compressed trees are shorter; CPR > 1; memory accounting sane)."""
import pytest

from repro.bench.harness import CONFIGS, TREES, make_tree, run_tree_bench, run_tree_bench_spark
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


class TestSparkHarness:
    def test_partition_parallel(self, spark):
        df = run_tree_bench_spark(
            spark, "btree", "single", KEYS[:1200], n_partitions=4, n_queries=60
        )
        rows = df.collect()
        assert len(rows) == 4
        assert sum(r["n_keys"] for r in rows) <= 1200
        assert all(r["point_ns"] > 0 for r in rows)
        assert all(r["cpr"] > 1.0 for r in rows)

    def test_partitions_cover_distinct_ranges(self, spark):
        df = run_tree_bench_spark(
            spark, "art", "uncompressed", KEYS[:800], n_partitions=3, n_queries=30
        )
        assert df.count() == 3
