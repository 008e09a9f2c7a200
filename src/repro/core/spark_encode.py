"""Per-partition HOPE encoding of key columns (Encode phase, Spark side).

This is the reproduction's banded integration point: a built
``HopeEncoder`` is applied to a DataFrame key column as a
``mapInPandas`` transformation — each partition encodes its keys with
the shared dictionary (closure-captured and pickled alone: it encodes
its own keys, see ``dictionary``), exactly the
"per-partition transformation on key columns before building in-memory
trees" the banding hint prescribes.

Output columns:

* ``enc_key``   (binary) — zero-padded code bytes; their lexicographic
  order alone equals source-key order (proof in ``strutil``);
* ``enc_nbits`` (int)    — meaningful bit count (bit-exact size for CPR).

A binary key is encoded as is, a string key as UTF-8, whose byte order
is Spark's string order. A null key passes through: both columns are
null on its row. ``check_order_preserved`` verifies the property in one
Spark window pass; only the violation count reaches the driver.
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql.types import BinaryType, IntegerType, StringType, StructField, StructType

from .hope import HopeEncoder


def encode_df(df: DataFrame, key_col: str, hope: HopeEncoder) -> DataFrame:
    """Append ``enc_key``/``enc_nbits`` by encoding ``key_col`` (string or binary) per partition."""
    key_type = df.schema[key_col].dataType
    if not isinstance(key_type, (StringType, BinaryType)):
        raise TypeError(f"key column {key_col!r} is {key_type.simpleString()}, not string or binary")
    schema = StructType(
        list(df.schema.fields)
        + [StructField("enc_key", BinaryType()), StructField("enc_nbits", IntegerType())]
    )
    dictionary = hope.dictionary  # capture only the dictionary, which encodes
    text = isinstance(key_type, StringType)

    def encode_partition(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        enc = dictionary.encode
        for pdf in batches:
            encoded = [(None, None) if k is None else enc(k.encode() if text else k) for k in pdf[key_col]]
            pdf = pdf.copy()
            pdf["enc_key"] = [e[0] for e in encoded]
            pdf["enc_nbits"] = pd.array([e[1] for e in encoded], dtype="Int32")
            yield pdf

    return df.mapInPandas(encode_partition, schema=schema)


def check_order_preserved(encoded: DataFrame, key_col: str) -> int:
    """Count order violations between the source keys and ``enc_key``.

    Non-null rows are ordered by ``(enc_key, key)`` in one Spark window
    (one task: it has no partitioning). A row is a violation if the key
    before it is greater, or differs under the same ``enc_key``; 0 means
    ``enc_key`` orders the keys injectively. Only the count is collected.
    """
    w = Window.orderBy("enc_key", key_col)
    key, enc, prev_key, prev_enc = F.col(key_col), F.col("enc_key"), F.col("prev_key"), F.col("prev_enc")
    with_prev = encoded.where(key.isNotNull()).select(
        key, enc, F.lag(key).over(w).alias("prev_key"), F.lag(enc).over(w).alias("prev_enc")
    )
    return with_prev.where((prev_key > key) | ((prev_enc == enc) & (prev_key != key))).count()


def encoded_range_filter(
    encoded: DataFrame, hope: HopeEncoder, lo: bytes, hi: bytes
) -> DataFrame:
    """Closed-open range ``[lo, hi)`` evaluated purely in the encoded domain.

    Each query bound is encoded by the dictionary and compared against
    ``enc_key`` alone. Order preservation makes this equivalent to
    filtering on the source keys — the DuckDB oracle checks exactly that
    in the tests.
    """
    enc, enc_key = hope.dictionary.encode, F.col("enc_key")
    return encoded.where((enc_key >= F.lit(enc(lo)[0])) & (enc_key < F.lit(enc(hi)[0])))
