"""Per-partition encoding in Spark + DuckDB-oracle equivalence
(core/spark_encode.py). These are the reproduction's correctness
linchpin: order-preserving compression must leave every range query's
*result set* unchanged, verified against DuckDB on the source domain.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.hope import build_hope
from repro.core.spark_encode import check_order_preserved, encode_df, encoded_range_filter
from repro.core.spark_select import sample_keys
from repro.oracle import assert_equivalent
from repro.workloads.datasets import dataset_df


@pytest.fixture(scope="module")
def email_df(spark):
    return dataset_df(spark, "email", 1000, seed=31).repartition(5).cache()


@pytest.fixture(scope="module")
def hope_3grams(email_df):
    return build_hope("3grams", sample_keys(email_df, "key", 0.2, seed=1), max_dict_entries=2048)


@pytest.fixture(scope="module")
def encoded(email_df, hope_3grams):
    return encode_df(email_df, "key", hope_3grams).cache()


class TestEncodeDf:
    def test_adds_columns(self, encoded):
        assert {"enc_key", "enc_nbits"} <= set(encoded.columns)

    def test_row_count_preserved(self, email_df, encoded):
        assert encoded.count() == email_df.count()

    def test_matches_driver_side_encoding(self, encoded, hope_3grams):
        for r in encoded.limit(50).collect():
            payload, nbits = hope_3grams.encode(bytes(r["key"]))
            assert bytes(r["enc_key"]) == payload
            assert r["enc_nbits"] == nbits

    def test_order_preserved(self, encoded):
        assert check_order_preserved(encoded, "key") == 0

    @pytest.mark.parametrize("scheme", ["single", "double", "alm-improved"])
    def test_order_preserved_other_schemes(self, email_df, scheme):
        hope = build_hope(scheme, sample_keys(email_df, "key", 0.2, seed=2), max_dict_entries=1024)
        enc = encode_df(email_df, "key", hope)
        assert check_order_preserved(enc, "key") == 0

    def test_spark_sort_by_encoded_equals_source_sort(self, encoded):
        by_enc = [r["key"] for r in encoded.orderBy("enc_key").collect()]
        by_src = [r["key"] for r in encoded.orderBy("key").collect()]
        assert by_enc == by_src

    def test_compression_on_wire(self, encoded):
        row = encoded.select(
            F.sum(F.length("key")).alias("orig"),
            F.sum(F.length("enc_key")).alias("comp"),
        ).collect()[0]
        assert row["comp"] < row["orig"]


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "lo,hi",
        [
            ("com.gmail@", "com.gmail@zzzz"),
            ("com.a", "com.z"),
            ("de.", "de.zzzz"),
            ("a", "z"),
        ],
    )
    def test_range_filter_equals_duckdb(self, email_df, encoded, hope_3grams, lo, hi):
        got = encoded_range_filter(
            encoded, hope_3grams, lo.encode(), hi.encode()
        ).select("key")
        assert_equivalent(
            got,
            f"SELECT key FROM t WHERE key >= '{lo}' AND key < '{hi}'",
            t=email_df,
        )

    def test_count_aggregate_over_encoded_filter(self, email_df, encoded, hope_3grams):
        got = (
            encoded_range_filter(encoded, hope_3grams, b"com.", b"com.zzzz")
            .agg(F.count("*").alias("n"))
        )
        assert_equivalent(
            got,
            "SELECT count(*) AS n FROM t WHERE key >= 'com.' AND key < 'com.zzzz'",
            t=email_df,
        )

    def test_oracle_detects_mismatch(self, email_df):
        wrong = email_df.agg((F.count("*") + 1).alias("n"))
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, "SELECT count(*) AS n FROM t", t=email_df)

    def test_empty_range(self, encoded, hope_3grams):
        out = encoded_range_filter(encoded, hope_3grams, b"zzz", b"zzzz")
        assert out.count() == 0


@pytest.fixture(scope="module")
def with_nulls_df(spark, email_df):
    """The email keys with null keys mixed in across the partitions."""
    nulls = spark.createDataFrame(pd.DataFrame({"key": [None] * 40}), "key binary")
    return email_df.unionByName(nulls).repartition(5).cache()


class TestNullKeys:
    """A null key passes through as null ``enc_key``/``enc_nbits``."""

    def test_nulls_pass_through(self, with_nulls_df, hope_3grams):
        enc = encode_df(with_nulls_df, "key", hope_3grams)
        got = (
            enc.select(
                F.col("key").isNull().alias("k"),
                F.col("enc_key").isNull().alias("e"),
                F.col("enc_nbits").isNull().alias("b"),
            )
            .groupBy("k", "e", "b")
            .agg(F.count("*").alias("n"))
        )
        assert_equivalent(
            got,
            "SELECT key IS NULL AS k, key IS NULL AS e, key IS NULL AS b, count(*) AS n "
            "FROM t GROUP BY key IS NULL",
            t=with_nulls_df,
        )
        assert check_order_preserved(enc, "key") == 0

    def test_range_filter_equals_duckdb(self, with_nulls_df, hope_3grams):
        enc = encode_df(with_nulls_df, "key", hope_3grams)
        got = encoded_range_filter(enc, hope_3grams, b"com.a", b"com.z").select("key")
        assert_equivalent(got, "SELECT key FROM t WHERE key >= 'com.a' AND key < 'com.z'", t=with_nulls_df)


def test_rejects_non_text_key_column(spark, hope_3grams):
    """An int key column fails when the plan is built, naming the column and its type."""
    df = spark.createDataFrame([(1,), (None,), (3,)], "id int")
    with pytest.raises(TypeError, match="'id' is int"):
        encode_df(df, "id", hope_3grams)


class TestOrderCheckFails:
    """``check_order_preserved`` counts planted faults, not only 0."""

    @pytest.fixture(scope="class")
    def ranked(self, encoded):
        return encoded.select("key", "enc_key").orderBy("key").collect()

    @staticmethod
    def _with_enc_keys(encoded, planted):
        enc_key = F.col("enc_key")
        for key, enc in planted.items():
            enc_key = F.when(F.col("key") == F.lit(bytes(key)), F.lit(bytes(enc))).otherwise(enc_key)
        return encoded.withColumn("enc_key", enc_key)

    def test_swap_is_counted(self, encoded, ranked):
        a, b = ranked[10], ranked[20]
        swapped = self._with_enc_keys(encoded, {a.key: b.enc_key, b.key: a.enc_key})
        # ranks 11 and 10 each follow a greater key in enc_key order
        assert check_order_preserved(swapped, "key") == 2

    def test_collision_is_counted(self, encoded, ranked):
        a, b = ranked[10], ranked[20]
        collided = self._with_enc_keys(encoded, {b.key: a.enc_key})
        # rank 20 shares rank 10's enc_key; rank 11 then follows rank 20
        assert check_order_preserved(collided, "key") == 2


def _sql_lit(v) -> str:
    if isinstance(v, bytes):
        return "'" + "".join(f"\\x{c:02X}" for c in v) + "'::BLOB"
    return f"'{v}'"


NON_TEXT_RANGES = {
    "binary": [(b"", b"\x00\x01"), (b"\x00\xff", b"\x7f\x80"), (b"a", b"\xff\xff"), (b"\xff", b"\xff\xff\xff")],
    "utf8": [("", "é"), ("a.", "日本"), ("Ω", "😀"), ("日本", "日本語")],
}


@pytest.fixture(scope="module", params=["single", "double", "3grams", "alm-improved"])
def non_text_encoded(request, non_text):
    kind, df, _ = non_text
    hope = build_hope(request.param, sample_keys(df, "key", 0.5, seed=3), max_dict_entries=1024)
    return kind, df, hope, encode_df(df, "key", hope).cache()


class TestNonTextKeys:
    """Binary NUL/0xFF keys, the empty key, strings above U+00FF and nulls:
    rows match local encoding, order holds and the DuckDB oracle agrees."""

    def test_rows_equal_local_encode(self, non_text, non_text_encoded):
        keys = non_text[2]
        _, _, hope, enc = non_text_encoded
        rows = enc.collect()
        got = sorted(
            (k.encode() if isinstance(k, str) else bytes(k), bytes(e), n)
            for k, e, n in rows
            if k is not None
        )
        assert got == sorted((k, *hope.encode(k)) for k in keys)
        nulls = [(e, n) for k, e, n in rows if k is None]
        assert nulls and set(nulls) == {(None, None)}

    def test_order_preserved(self, non_text_encoded):
        assert check_order_preserved(non_text_encoded[3], "key") == 0

    def test_range_filter_equals_duckdb(self, non_text_encoded):
        kind, df, hope, enc = non_text_encoded
        for lo, hi in NON_TEXT_RANGES[kind]:
            lo_b, hi_b = (lo, hi) if kind == "binary" else (lo.encode(), hi.encode())
            got = encoded_range_filter(enc, hope, lo_b, hi_b).select("key")
            assert_equivalent(
                got, f"SELECT key FROM t WHERE key >= {_sql_lit(lo)} AND key < {_sql_lit(hi)}", t=df
            )


@pytest.fixture(scope="module")
def domains_df(spark):
    """Email keys plus their domain: a low-cardinality string column."""
    df = dataset_df(spark, "email", 1000, seed=31)
    return df.withColumn("domain", F.substring_index("key", "@", 1)).cache()


class TestTpchIntegration:
    """TPC-H-style use of HOPE: a low-cardinality string column (the email
    domain, in the role of ``o_orderpriority``) is encoded, then grouped,
    range-filtered and joined — the full Catalyst path with the oracle
    as referee."""

    def test_orderpriority_encoded_groupby(self, domains_df):
        sample = [r["domain"].encode() for r in domains_df.select("domain").limit(200).collect()]
        hope = build_hope("single", sample)
        enc = encode_df(domains_df, "domain", hope)
        # group by the encoded key: counts must match grouping by source
        got = (
            enc.groupBy("enc_key")
            .agg(F.count("*").alias("n"), F.first("domain").alias("domain"))
            .select("domain", "n")
        )
        assert_equivalent(
            got,
            "SELECT domain, count(*) AS n FROM t GROUP BY domain",
            t=domains_df,
        )

    def test_range_filter_then_join(self, spark, domains_df):
        other = dataset_df(spark, "email", 600, seed=32)
        other = other.select(F.substring_index("key", "@", 1).alias("o_domain")).cache()
        sample = [r["domain"].encode() for r in domains_df.limit(100).collect()]
        hope = build_hope("double", sample)
        enc = encode_df(domains_df, "domain", hope)
        # both bounds are domains that occur, and domains lie on each side
        hot = encoded_range_filter(enc, hope, b"com.gmail", b"com.mail")
        got = hot.join(other, hot.domain == other.o_domain).agg(F.count("*").alias("n"))
        assert_equivalent(
            got,
            "SELECT count(*) AS n FROM t JOIN o ON domain = o_domain "
            "WHERE domain >= 'com.gmail' AND domain < 'com.mail'",
            t=domains_df,
            o=other,
        )
