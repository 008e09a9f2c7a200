"""Figure 8 — compression microbenchmark: encode latency per scheme.

Benchmarks single-thread encode throughput of each HOPE scheme on
email keys; CPR and dictionary memory are attached as extra_info so
``jobs/fig8_microbench.py`` (the full sweep) and this bench agree.
"""
import pytest

from repro.core.hope import SCHEMES, build_hope

DICT = 4096


@pytest.fixture(scope="module")
def built(email_sample):
    return {s: build_hope(s, email_sample, max_dict_entries=DICT) for s in SCHEMES}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fig8_encode_latency(benchmark, built, email_bench_keys, scheme):
    hope = built[scheme]
    keys = email_bench_keys[:1500]
    nchars = sum(map(len, keys))

    def encode_all():
        enc = hope.encoder.encode
        for k in keys:
            enc(k)

    benchmark(encode_all)
    benchmark.extra_info["cpr"] = round(hope.compression_rate(keys), 3)
    benchmark.extra_info["dict_entries"] = hope.dict_entries
    benchmark.extra_info["dict_memory_bytes"] = hope.dict_memory_bytes()
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_char"] = round(benchmark.stats["mean"] / nchars * 1e9, 1)
