"""Per-partition HOPE encoding of key columns (Encode phase, Spark side).

This is the reproduction's banded integration point: a built
``HopeEncoder`` is applied to a DataFrame key column as a
``mapInPandas`` transformation — each partition encodes its keys with
the shared (closure-captured, pickled) dictionary, exactly the
"per-partition transformation on key columns before building in-memory
trees" the banding hint prescribes.

Output columns:

* ``enc_key``   (binary) — zero-padded code bytes; their lexicographic
  order alone equals source-key order (proof in ``strutil``);
* ``enc_nbits`` (int)    — meaningful bit count (bit-exact size for CPR).

A null key passes through: both columns are null on its row.
``check_order_preserved`` verifies the property on the driver: ranking
by ``enc_key`` must equal ranking by the source key, over non-null keys.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import BinaryType, IntegerType, StructField, StructType

from .hope import HopeEncoder


def encode_df(df: DataFrame, key_col: str, hope: HopeEncoder) -> DataFrame:
    """Append ``enc_key``/``enc_nbits`` by encoding ``key_col`` per partition."""
    schema = StructType(
        list(df.schema.fields)
        + [StructField("enc_key", BinaryType()), StructField("enc_nbits", IntegerType())]
    )
    encoder = hope.encoder  # capture only the encoder (dictionary + loop)

    def encode_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        enc = encoder.encode
        for pdf in batches:
            encoded = [(None, None) if k is None else enc(k.encode("latin-1")) for k in pdf[key_col]]
            pdf = pdf.copy()
            pdf["enc_key"] = [e[0] for e in encoded]
            pdf["enc_nbits"] = pd.array([e[1] for e in encoded], dtype="Int32")
            yield pdf

    return df.mapInPandas(encode_partition, schema=schema)


def check_order_preserved(encoded: DataFrame, key_col: str) -> int:
    """Count order violations between source-key rank and encoded rank.

    Returns 0 iff sorting by ``enc_key`` equals sorting by the source
    key. Rows with a null key are ignored. Collects every other
    ``(key, enc_key)`` row to the driver and sorts it twice there (cheap
    at repro scale, not distributed).
    """
    rows = encoded.where(F.col(key_col).isNotNull()).select(key_col, "enc_key").collect()
    by_src = sorted(rows, key=lambda r: r[key_col].encode("latin-1"))
    by_enc = sorted(rows, key=lambda r: bytes(r["enc_key"]))
    return sum(
        1
        for a, b in zip(by_src, by_enc)
        if a[key_col] != b[key_col]
    )


def encoded_range_filter(
    encoded: DataFrame, hope: HopeEncoder, lo: bytes, hi: bytes
) -> DataFrame:
    """Closed-open range ``[lo, hi)`` evaluated purely in the encoded domain.

    The query bounds are pair-encoded (§4.2 batching, batch size 2) and
    compared against ``enc_key`` alone. Order preservation makes this
    equivalent to filtering on the source keys — the DuckDB oracle
    checks exactly that in the tests.
    """
    (lo_b, _), (hi_b, _) = hope.encoder.encode_pair(lo, hi)
    enc_key = F.col("enc_key")
    return encoded.where((enc_key >= F.lit(lo_b)) & (enc_key < F.lit(hi_b)))
