"""Distributed Symbol Selector statistics (Build phase, Spark side).

The hash-table frequency pass of §4.2 expressed in the DataFrame API —
substring explosion + groupBy/count runs on executors through Catalyst,
so the Build phase scales with the sampled corpus:

* ``gram_freqs``      — all overlapping k-byte substrings (3-Grams / 4-Grams);
* ``suffix_freqs``    — key suffixes (ALM-Improved);
* ``substring_freqs`` — substrings of all lengths, capped (original ALM);
* ``sample_keys``     — the 1 % Bernoulli key sample HOPE builds from.

Every function reads the key column as ``cast("binary")``: a no-op on
a binary column, the UTF-8 bytes of a string column. Patterns and
samples come back as ``bytes``, and substrings are cut on byte offsets.
The resulting ``Counter`` feeds ``build_hope(..., freqs=...)`` — tests
verify it matches the local counting path exactly.
"""
from __future__ import annotations

from collections import Counter
from typing import List

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .symbol_select import ALM_IMPROVED_MAX_SUFFIX, ALM_MAX_SUBSTR


def _key_bytes(df: DataFrame, key_col: str) -> DataFrame:
    """``key_col`` alone, as bytes: binary passes as is, strings as UTF-8."""
    return df.select(F.col(key_col).cast("binary").alias(key_col))


def _freqs_from_expr(df: DataFrame, key_col: str, expr: str) -> Counter:
    rows = (
        _key_bytes(df, key_col)
        .select(F.explode(F.expr(expr)).alias("pat"))
        .where(F.length("pat") > 0)
        .groupBy("pat")
        .count()
        .collect()
    )
    return Counter({bytes(r["pat"]): r["count"] for r in rows})


def gram_freqs(df: DataFrame, key_col: str, k: int) -> Counter:
    """Frequencies of all overlapping k-grams of ``key_col`` (distributed)."""
    expr = (
        f"CASE WHEN length({key_col}) >= {k} THEN "
        f"transform(sequence(1, length({key_col}) - {k} + 1), "
        f"i -> substring({key_col}, i, {k})) "
        f"ELSE array() END"
    )
    return _freqs_from_expr(df, key_col, expr)


def suffix_freqs(df: DataFrame, key_col: str, max_len: int = ALM_IMPROVED_MAX_SUFFIX) -> Counter:
    """Frequencies of every key suffix, capped at ``max_len`` bytes."""
    expr = (
        f"transform(sequence(1, length({key_col})), "
        f"i -> substring({key_col}, i, {max_len}))"
    )
    return _freqs_from_expr(df, key_col, expr)


def substring_freqs(df: DataFrame, key_col: str, max_len: int = ALM_MAX_SUBSTR) -> Counter:
    """Frequencies of all substrings up to ``max_len`` (original ALM)."""
    expr = (
        f"flatten(transform(sequence(1, length({key_col})), "
        f"i -> transform(sequence(1, least({max_len}, length({key_col}) - i + 1)), "
        f"l -> substring({key_col}, i, l))))"
    )
    return _freqs_from_expr(df, key_col, expr)


def sample_keys(df: DataFrame, key_col: str, fraction: float = 0.01, seed: int = 42) -> List[bytes]:
    """HOPE's bulk-load sample: Bernoulli sample of the non-null keys."""
    rows = _key_bytes(df, key_col).sample(fraction=fraction, seed=seed).collect()
    return [bytes(k) for (k,) in rows if k is not None]
