"""Tests for the figure jobs (``jobs/``): every job imports, and the shared
cell runner of Figs 10, 12 and 16 returns one record per cell, in order,
from the op streams its figure names."""
import glob
import importlib.util
import os
import sys

import pytest

from repro.bench.harness import run_tree_bench
from repro.workloads.datasets import dataset_keys

JOBS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "jobs")
sys.path.insert(0, JOBS)
import _common  # noqa: E402

# what the Fig 10/12/16 tables read from a record
TABLE_FIELDS = {"figure", "dataset", "tree", "config", "point_ns", "range_ns", "insert_ns",
                "tree_memory_bytes", "memory_bytes", "height", "cpr"}


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(JOBS, "fig*.py"))), ids=os.path.basename)
def test_job_imports(path):
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(f"job_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_run_cells_one_record_per_cell_in_order(spark):
    cells = [("wiki", 300, "art", "single"), ("email", 200, "btree", "uncompressed")]
    records = _common.run_cells(spark, "figX", cells, key_seed=5, n_queries=40, seed=1)
    assert [(r["dataset"], r["tree"], r["config"]) for r in records] == [(ds, t, c) for ds, _, t, c in cells]
    for r, (ds, n, tree, config) in zip(records, cells):
        assert TABLE_FIELDS <= set(r)
        assert r["figure"] == "figX"
        local = run_tree_bench(tree, config, dataset_keys(ds, n, seed=5), n_queries=40, seed=1)
        assert (r["n_keys"], r["memory_bytes"], r["height"], r["cpr"]) == (
            local["n_keys"], local["memory_bytes"], local["height"], local["cpr"])
    assert spark.range(3).count() == 3  # the caller's session is still up


def test_run_cells_runs_only_the_named_streams(spark):
    cells = [("email", 300, "btree", "single"), ("wiki", 300, "surf", "uncompressed")]
    records = _common.run_cells(spark, "fig12", cells, key_seed=5, n_queries=40, seed=1, streams=("points",))
    assert [r["point_hit_rate"] for r in records] == [1.0, 1.0]
    assert not any({"range_ns", "insert_ns"} & set(r) for r in records)
