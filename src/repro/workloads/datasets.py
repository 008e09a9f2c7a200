"""Synthetic Email / Wiki / URL key datasets (paper §6 substitutes).

The paper evaluates on three real string-key corpora we cannot ship:

* Email — 25 M host-reversed addresses ("com.gmail@foo"), avg 22 B;
* Wiki  — 14 M English Wikipedia article titles, avg 21 B;
* URL   — 25 M URLs from a 2007 crawl, avg 104 B.

These generators produce keys with the same *structural* entropy
profile — Zipfian provider/host prefixes, syllable-built natural-ish
words (skewed character n-grams), long shared URL prefixes — which is
what drives every measured quantity (CPR per scheme, trie heights,
prefix-skipping behaviour). DESIGN.md §3 documents the substitution.

All generators are deterministic in ``seed``, return **unique** keys,
and scale by count: tests use ~2-10 k keys, benchmarks ~50-200 k.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .ycsb import zipf_draw

DATASETS = ("email", "wiki", "url")

_SYL_ONSET = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
              "ch", "sh", "th", "st", "br", "cr", "tr", "gr", "pl", "sl"]
_SYL_NUCLEUS = ["a", "e", "i", "o", "u", "ai", "ea", "ou", "io", "ee"]
_SYL_CODA = ["", "", "n", "r", "s", "t", "l", "m", "ng", "rd", "st", "ck", "tion", "ing", "er", "on"]


def _zipf_choice(g: np.random.Generator, items: List[str], n: int, alpha: float = 1.3) -> List[str]:
    return [items[i] for i in zipf_draw(g, len(items), n, alpha).tolist()]


def _vocab(g: np.random.Generator, size: int) -> List[str]:
    """Syllable-composed pseudo-English words — natural n-gram skew."""
    words = set()
    out: List[str] = []
    while len(out) < size:
        nsyl = 1 + (g.random() < 0.45) + (g.random() < 0.15)
        w = "".join(
            _SYL_ONSET[g.integers(0, len(_SYL_ONSET))]
            + _SYL_NUCLEUS[g.integers(0, len(_SYL_NUCLEUS))]
            + _SYL_CODA[g.integers(0, len(_SYL_CODA))]
            for _ in range(nsyl)
        )
        if w not in words:
            words.add(w)
            out.append(w)
    return out


_PROVIDERS = [
    "com.gmail", "com.yahoo", "com.hotmail", "com.outlook", "com.aol",
    "com.icloud", "com.mail", "de.gmx", "de.web", "com.qq", "net.comcast",
    "com.live", "org.mail", "edu.cmu", "com.me", "ru.yandex", "fr.orange",
    "uk.co.btinternet", "com.verizon", "com.att",
]


def email_keys(n: int, seed: int = 0) -> List[bytes]:
    """Host-reversed emails: "com.gmail@first.last42". Avg ~22 bytes."""
    g = np.random.default_rng(seed)
    vocab = _vocab(g, 4000)
    first = _zipf_choice(g, vocab[:2000], n)
    last = _zipf_choice(g, vocab[2000:], n)
    prov = _zipf_choice(g, _PROVIDERS, n, alpha=1.1)
    sep = g.choice([".", "_", ""], size=n, p=[0.5, 0.2, 0.3])
    num = g.integers(0, 1000, size=n)
    with_num = g.random(n) < 0.35
    keys = []
    seen = set()
    for i in range(n):
        k = f"{prov[i]}@{first[i]}{sep[i]}{last[i]}"
        if with_num[i]:
            k += str(num[i])
        while k in seen:
            k += str(g.integers(0, 10))
        seen.add(k)
        keys.append(k.encode("ascii"))
    return keys


def wiki_keys(n: int, seed: int = 1) -> List[bytes]:
    """Wikipedia-title-like keys: "Capital_words_(tag)". Avg ~21 bytes."""
    g = np.random.default_rng(seed)
    vocab = _vocab(g, 6000)
    tags = ["film", "album", "song", "band", "novel", "disambiguation", "born_1950", "footballer"]
    keys = []
    seen = set()
    nwords = g.integers(1, 5, size=n)
    tagged = g.random(n) < 0.15
    for i in range(n):
        ws = _zipf_choice(g, vocab, int(nwords[i]), alpha=1.2)
        title = "_".join(w.capitalize() if j == 0 or g.random() < 0.4 else w for j, w in enumerate(ws))
        if tagged[i]:
            title += f"_({tags[g.integers(0, len(tags))]})"
        while title in seen:
            title += f"_{g.integers(0, 100)}"
        seen.add(title)
        keys.append(title.encode("ascii"))
    return keys


_TLDS = ["com", "org", "net", "edu", "co.uk", "de", "fr", "io"]


def url_keys(n: int, seed: int = 2) -> List[bytes]:
    """Crawl-like URLs with long shared prefixes. Avg ~100 bytes."""
    g = np.random.default_rng(seed)
    vocab = _vocab(g, 3000)
    hosts = [
        f"http://www.{w}.{_TLDS[g.integers(0, len(_TLDS))]}/"
        for w in _vocab(g, 400)
    ]
    keys = []
    seen = set()
    for i in range(n):
        host = hosts[int(min(g.zipf(1.3), len(hosts)) - 1)]
        depth = int(g.integers(4, 11))
        segs = _zipf_choice(g, vocab, depth, alpha=1.1)
        path = "/".join(str(s) for s in segs)
        leaf = g.choice(
            ["index.html", "page.html", "article.php", f"id={g.integers(0, 10 ** 6)}",
             f"item-{g.integers(0, 10 ** 4)}.html", ""]
        )
        url = host + path + "/" + str(leaf)
        while url in seen:
            url += str(g.integers(0, 10))
        seen.add(url)
        keys.append(url.encode("ascii"))
    return keys


def dataset_keys(name: str, n: int, seed: int = 0) -> List[bytes]:
    """Dispatch by dataset name ("email" | "wiki" | "url")."""
    if name == "email":
        return email_keys(n, seed)
    if name == "wiki":
        return wiki_keys(n, seed + 1)
    if name == "url":
        return url_keys(n, seed + 2)
    raise ValueError(f"unknown dataset {name!r}; expected one of {DATASETS}")


def keys_df(spark: SparkSession, keys: Sequence[bytes]) -> DataFrame:
    """``keys`` as a one-column Spark DataFrame (``key`` binary), in order."""
    return spark.createDataFrame(pd.DataFrame({"key": list(keys)}), "key binary")


def email_split_ab(n: int, seed: int = 0):
    """Appendix C split: Email-A = gmail+yahoo accounts, Email-B = the rest."""
    keys = email_keys(n, seed)
    a = [k for k in keys if k.startswith(b"com.gmail") or k.startswith(b"com.yahoo")]
    b = [k for k in keys if not (k.startswith(b"com.gmail") or k.startswith(b"com.yahoo"))]
    return a, b
