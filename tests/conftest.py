"""Key columns beyond the synthetic text corpora, shared by the Spark tests.

``non_text`` is a Spark ``key`` column with nulls mixed in, in two kinds:
``binary`` keys rich in 0x00/0xFF bytes, the empty key among them, and
``utf8`` strings with characters above U+00FF, read as their UTF-8 bytes.
It comes as ``(kind, df, keys)``; ``keys`` are the non-null keys' bytes,
the input the local (non-Spark) paths take.
"""
import random

import pandas as pd
import pytest

from repro.workloads.datasets import keys_df

N_NULLS = 30


def _nul_rich_keys(n: int, seed: int):
    rng = random.Random(seed)
    keys = (bytes(rng.choices(b"\x00\x00\x01a\x7f\x80\xfe\xff\xff", k=rng.randrange(14))) for _ in range(n))
    return list(dict.fromkeys([b"", *keys]))


def _utf8_keys(n: int, seed: int):
    rng = random.Random(seed)
    keys = ("".join(rng.choices("a.@zé€Ω日本語😀", k=rng.randrange(1, 9))) for _ in range(n))
    return list(dict.fromkeys(["日本", *keys]))


@pytest.fixture(scope="session", params=["binary", "utf8"])
def non_text(request, spark):
    if request.param == "binary":
        keys = _nul_rich_keys(600, seed=7)
        df = keys_df(spark, keys + [None] * N_NULLS)
    else:
        strs = _utf8_keys(600, seed=8)
        df = spark.createDataFrame(pd.DataFrame({"key": strs + [None] * N_NULLS}), "key string")
        keys = [s.encode() for s in strs]
    return request.param, df.repartition(4).cache(), keys
