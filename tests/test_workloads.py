"""Tests for datasets + YCSB workload generation (workloads/)."""
import hashlib

import numpy as np
import pytest

from repro.workloads.datasets import (
    DATASETS,
    dataset_keys,
    email_keys,
    email_split_ab,
    url_keys,
    wiki_keys,
)
from repro.workloads.ycsb import (
    MAX_SCAN_LEN,
    surf_range_queries,
    workload_c,
    workload_e,
    zipf_draw,
    zipf_indices,
)


class TestDatasets:
    @pytest.mark.parametrize("name", DATASETS)
    def test_unique_and_deterministic(self, name):
        a = dataset_keys(name, 1500, seed=9)
        b = dataset_keys(name, 1500, seed=9)
        assert a == b
        assert len(set(a)) == len(a) == 1500

    @pytest.mark.parametrize("name", DATASETS)
    def test_ascii(self, name):
        for k in dataset_keys(name, 300, seed=1):
            assert all(32 <= c < 127 for c in k), k

    def test_seed_changes_keys(self):
        assert dataset_keys("email", 100, seed=1) != dataset_keys("email", 100, seed=2)

    def test_avg_lengths_near_paper(self):
        """Paper: email 22B, wiki 21B, url 104B — ours within ~40%."""
        e = email_keys(3000, seed=0)
        w = wiki_keys(3000, seed=0)
        u = url_keys(3000, seed=0)
        assert 15 <= np.mean([len(k) for k in e]) <= 32
        assert 14 <= np.mean([len(k) for k in w]) <= 30
        assert 60 <= np.mean([len(k) for k in u]) <= 140

    def test_email_host_reversed(self):
        ks = email_keys(200, seed=3)
        assert sum(k.startswith((b"com.", b"org.", b"net.", b"de.", b"edu.", b"ru.", b"fr.", b"uk.")) for k in ks) == len(ks)

    def test_url_shared_prefixes(self):
        ks = url_keys(500, seed=4)
        assert all(k.startswith(b"http://") for k in ks)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            dataset_keys("nope", 10)

    def test_email_split_partitions(self):
        a, b = email_split_ab(1000, seed=5)
        assert len(a) + len(b) == 1000
        assert all(k.startswith((b"com.gmail", b"com.yahoo")) for k in a)
        assert not any(k.startswith((b"com.gmail", b"com.yahoo")) for k in b)


class TestZipf:
    def test_range_and_determinism(self):
        a = zipf_indices(1000, 5000, seed=1)
        b = zipf_indices(1000, 5000, seed=1)
        assert (a == b).all()
        assert a.min() >= 0 and a.max() < 1000

    @pytest.mark.parametrize("n,size,alpha", [(1, 5, 1.3), (20, 500, 1.1), (2000, 3, 1.3), (6000, 1000, 0.99)])
    def test_draw_equals_generator_choice(self, n, size, alpha):
        """``zipf_draw`` is ``Generator.choice`` with Zipf weights, draw for draw,
        and leaves the generator in the same state."""
        w = np.arange(1, n + 1, dtype=np.float64) ** (-alpha)
        w /= w.sum()
        ref, g = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2):  # the second call takes the cached CDF
            assert zipf_draw(g, n, size, alpha).tolist() == ref.choice(n, size=size, p=w).tolist()
        assert g.random() == ref.random()

    def test_skew(self):
        idx = zipf_indices(10_000, 50_000, seed=2)
        _, counts = np.unique(idx, return_counts=True)
        top = np.sort(counts)[::-1]
        # hottest 1% of keys take far more than 1% of queries
        assert top[:100].sum() > 0.2 * len(idx)


class TestWorkloads:
    def test_workload_c_keys_from_population(self):
        keys = [b"k%04d" % i for i in range(500)]
        qs = workload_c(keys, 2000, seed=0)
        assert len(qs) == 2000
        assert set(qs) <= set(keys)

    def test_workload_e_mix(self):
        keys = [b"k%04d" % i for i in range(500)]
        pool = [b"new%04d" % i for i in range(200)]
        ops = workload_e(keys, pool, 4000, seed=0)
        inserts = [o for o in ops if o[0] == "insert"]
        scans = [o for o in ops if o[0] == "scan"]
        assert 0.02 < len(inserts) / len(ops) < 0.09  # ~5%
        assert all(1 <= sl <= MAX_SCAN_LEN for _, _, sl in scans)
        assert all(k in set(pool) for _, k, _ in inserts)

    def test_surf_ranges(self):
        keys = [b"abc", b"xyz\xff"]
        for lo, hi in surf_range_queries(keys, 50, seed=1):
            assert hi > lo
            assert len(hi) in (len(lo), len(lo) + 1)

    def test_workload_determinism(self):
        keys = [b"k%03d" % i for i in range(100)]
        assert workload_c(keys, 100, seed=5) == workload_c(keys, 100, seed=5)


def _digest(items) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(repr(it).encode() + b";")
    return h.hexdigest()[:16]


# First 16 hex digits of the sha256 of the generated keys (3,000, seed 5), of a
# ``workload_c`` stream and of a ``workload_e`` stream over them (2,000 ops,
# seed 3, the last 150 keys held out for inserts). A change to the samplers
# must leave every key and every op byte-identical.
PINNED_STREAMS = {
    "email": ("2db7a222652d20fb", "5b69b47f2e6d3aca", "d6f5814570451222"),
    "wiki": ("40c8a3eab288133e", "3a7d7c0edc40a002", "f352a86c44c943a1"),
    "url": ("a7187d9339c30125", "0119ce6e7b8d884b", "066db50ef2855a14"),
}


@pytest.mark.parametrize("name", DATASETS)
def test_pinned_key_and_stream_digests(name):
    keys = dataset_keys(name, 3000, seed=5)
    got = (
        _digest(keys),
        _digest(workload_c(keys, 2000, seed=3)),
        _digest(workload_e(keys[:2850], keys[2850:], 2000, seed=3)),
    )
    assert got == PINNED_STREAMS[name]


def test_pinned_zipf_digest():
    """The index stream at the scale of the benchmark's scan/insert workload."""
    assert _digest(zipf_indices(48000, 300001, 7).tolist()) == "1d22bd921b4a3d7a"
