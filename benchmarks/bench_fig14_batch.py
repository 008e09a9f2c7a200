"""Figure 14 (Appendix B) — batch encoding on a pre-sorted email sample."""
import pytest

from repro.core.hope import build_hope

SCHEMES = ("single", "double", "3grams", "4grams", "alm-improved")
BATCHES = (1, 2, 32)


@pytest.fixture(scope="module")
def built(email_sample):
    return {s: build_hope(s, email_sample, max_dict_entries=4096) for s in SCHEMES}


@pytest.fixture(scope="module")
def sorted_keys(email_bench_keys):
    return sorted(email_bench_keys)[:2000]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("batch", BATCHES)
def test_fig14_batch_encode(benchmark, built, sorted_keys, scheme, batch):
    hope = built[scheme]
    enc = hope.encoder
    nchars = sum(map(len, sorted_keys))

    def run():
        if batch == 1:
            for k in sorted_keys:
                enc.encode(k)
        else:
            for i in range(0, len(sorted_keys), batch):
                enc.encode_batch(sorted_keys[i : i + batch])

    benchmark(run)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_char"] = round(benchmark.stats["mean"] / nchars * 1e9, 1)
