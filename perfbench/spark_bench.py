"""The Spark build → encode path, run in the traced ``ycsb-c-email`` run.

On a cached email DataFrame: ``sample_keys``, ``suffix_freqs`` over the
sample and ``build_hope("alm-improved", 64K)`` with an ART-model trie
dictionary, then ``encode_df`` jobs over the whole DataFrame into Spark's
no-op sink, so the pickled dictionary shipped with each task and Spark's
fixed cost per job both show. Before the timed jobs, one encoded copy is
cached and checked: every row must equal local ``hope.encode`` and
``check_order_preserved`` must return 0.

It is not a workload of its own: on the shared 4-core host the benchmark
was written on, encode job times of the same code spread 25-28 % over ten
runs, beyond any bound the benchmark can set.
"""
from __future__ import annotations

import os
import pickle
import subprocess
import tempfile
from typing import Dict, List

import pandas as pd

from measure import Result, median, now_ns, seeded_corpus
from repro.core.hope import build_hope
from repro.core.spark_encode import check_order_preserved, encode_df
from repro.core.spark_select import sample_keys, suffix_freqs
from repro.workloads.datasets import email_keys
from tracer import Tracer, no_span

N_KEYS = 190_000
SAMPLE_FRAC = 0.01
SCHEME = "alm-improved"
DICT_ENTRIES = 1 << 16
IDENTITY_REPEATS = 3


def start_spark(work_dir: str):
    """A local SparkSession whose scratch files stay under ``work_dir``."""
    from pyspark.sql import SparkSession

    local_dir = os.path.join(work_dir, "spark-local")
    tmp_dir = os.path.join(work_dir, "tmp")
    os.makedirs(local_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = local_dir
    os.environ["TMPDIR"] = tmp_dir  # pyspark's gateway files and the workers' temp files
    tempfile.tempdir = None
    # Every JVM Spark starts, its launcher included: temp files here, no /tmp/hsperfdata_*.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp_dir}"
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    spark = (
        SparkSession.builder.master(f"local[{min(4, os.cpu_count() or 1)}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", os.path.join(work_dir, "spark-warehouse"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM, and the Python workers under it, to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = gateway.proc
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _key_df(spark, keys):
    return spark.createDataFrame(pd.DataFrame({"key": [k.decode("latin-1") for k in keys]}))


def _setup(spark, df, seed: int, span=no_span):
    """sample → Spark suffix stats → build_hope, each step timed."""
    with span("setup"):
        t0 = now_ns()
        with span("spark_select.sample_keys"):
            sample = sample_keys(df, "key", SAMPLE_FRAC, seed=seed)
        t1 = now_ns()
        with span("spark_select.suffix_freqs"):
            freqs = suffix_freqs(_key_df(spark, sample), "key", 64)
        t2 = now_ns()
        with span("hope.build_hope"):
            hope = build_hope(SCHEME, sample, max_dict_entries=DICT_ENTRIES, freqs=freqs)
        t3 = now_ns()
    times = {"sample": (t1 - t0) / 1e9, "suffix_freqs": (t2 - t1) / 1e9, "hope_build": (t3 - t2) / 1e9}
    times["setup"] = sum(times.values())
    return hope, len(freqs), times


def _encode_job(df, hope) -> None:
    """One op: encode every row into the no-op sink."""
    encode_df(df, "key", hope).write.format("noop").mode("overwrite").save()


def _identity_job(df) -> None:
    """The same job with an identity ``mapInPandas``: Spark's fixed cost."""

    def identity(batches):
        yield from batches

    df.mapInPandas(identity, schema=df.schema).write.format("noop").mode("overwrite").save()


def _jobs(df, hope, seconds: float, tracer: Tracer) -> List[int]:
    """Encode jobs back to back for ``seconds``, at least one; their wall times in ns."""
    job = tracer.wrap("spark_encode.encode_df_job", _encode_job, new_op=True)
    lat = []
    deadline = now_ns() + int(seconds * 1e9)
    while True:
        t0 = now_ns()
        job(df, hope)
        lat.append(now_ns() - t0)
        if now_ns() >= deadline:
            return lat


def _check(df, hope, n: int) -> Dict[str, float]:
    """Cache one encoded copy, check every row and the order, and time each step."""
    enc = encode_df(df, "key", hope).cache()
    try:
        t0 = now_ns()
        enc.count()
        t1 = now_ns()
        violations = check_order_preserved(enc, "key")
        t2 = now_ns()
        rows = enc.select("key", "enc_key", "enc_nbits").toPandas()
    finally:
        enc.unpersist(blocking=True)
    local = hope.encode
    mismatches = abs(n - len(rows))
    enc_bytes = nbits = 0
    t3 = now_ns()
    for key, enc_key, enc_nbits in zip(rows["key"], rows["enc_key"], rows["enc_nbits"]):
        got = (bytes(enc_key), int(enc_nbits))
        enc_bytes += len(got[0])
        nbits += got[1]
        if local(key.encode("latin-1")) != got:
            mismatches += 1
    t4 = now_ns()
    return {
        "failed": mismatches + violations,
        "first_job_s": (t1 - t0) / 1e9,
        "check_order_s": (t2 - t1) / 1e9,
        "local_encode_s": (t4 - t3) / 1e9,
        "enc_bytes": enc_bytes,
        "nbits": nbits,
    }


def _tasks(sc, group: str) -> int:
    """Tasks Spark ran for the jobs of ``group``, from its status tracker."""
    tracker = sc.statusTracker()
    stages = [s for j in tracker.getJobIdsForGroup(group) for s in tracker.getJobInfo(j).stageIds]
    return sum(tracker.getStageInfo(s).numTasks for s in stages)


def spark_layers(seed: int, seconds: float, work_dir: str, out_prefix: str) -> Result:
    """Per-layer metrics of the Spark path over the email corpus, traced.

    Encode jobs run back to back for ``seconds``, at least one.
    """
    keys = seeded_corpus(email_keys, N_KEYS, seed)
    tracer = Tracer()
    span = tracer.span
    spark = start_spark(work_dir)
    try:
        df = _key_df(spark, keys).cache()
        n = df.count()
        scale = {"spark_master": spark.sparkContext.master, "spark_keys": n,
                 "spark_partitions": df.rdd.getNumPartitions(),
                 "spark_hope": "alm-improved-64K, ART-model trie dictionary"}
        hope, n_patterns, times = _setup(spark, df, seed, span)
        with span("check"):
            checked = _check(df, hope, n)
        identity = []
        for _ in range(IDENTITY_REPEATS):
            t0 = now_ns()
            with span("spark_encode.identity_job"):
                _identity_job(df)
            identity.append((now_ns() - t0) / 1e9)
        sc = spark.sparkContext
        sc.setJobGroup("perfbench-jobs", "encode jobs")
        jobs = _jobs(df, hope, seconds, tracer)
        sc.setLocalProperty("spark.jobGroup.id", None)
        tasks = _tasks(sc, "perfbench-jobs") / len(jobs)
    finally:
        stop_spark(spark)
    tracer.write(out_prefix + ".npz")
    job_s = median(jobs) / 1e9
    fixed_s = median(identity)
    metrics = {
        "spark_select.sample_s": times["sample"],
        "spark_select.suffix_freqs_s": times["suffix_freqs"],
        "spark_select.distinct_patterns": n_patterns,
        "spark_encode.job_s": job_s,
        "spark_encode.fixed_overhead_s": fixed_s,
        "spark_encode.per_key_us": (job_s - fixed_s) / n * 1e6,
        "spark_encode.first_job_s": checked["first_job_s"],
        "spark_encode.tasks": tasks,
        "spark_encode.check_order_s": checked["check_order_s"],
    }
    details = [
        ("spark.setup_s", times["setup"], "s", "sample_keys + suffix_freqs + build_hope"),
        ("spark.hope_build_s", times["hope_build"], "s", "alm-improved-64K"),
        ("spark.dictionary_pickle_bytes", len(pickle.dumps(hope.dictionary, pickle.HIGHEST_PROTOCOL)),
         "bytes", "task payload"),
        ("spark.encode_keys_per_s", n / job_s, "1/s", f"median of {len(jobs)} encode_df jobs"),
        ("spark.cpr", sum(map(len, keys)) / checked["enc_bytes"], "ratio", "encoded rows"),
    ]
    return Result(metrics, 2 * n, checked["failed"], scale, details)
