"""Benchmark decontamination: flag corpus documents that share word
n-grams with a benchmark/eval set (the published GPT-3 / PaLM
training-data hygiene step: any document with >= ``min_hits`` distinct
overlapping n-grams is contaminated and excluded from training).

Scale shape: the benchmark side is SMALL by definition (an eval set) —
its distinct gram-hash set is collected once and broadcast via
``ray.put``; the corpus side streams through a task-pool map that
reads it through ``joins._cached_get`` (once per worker process) and
membership-tests each batch's grams with one searchsorted against the
sorted broadcast array. No shuffle at all: the corpus is never
re-partitioned, so this composes with any upstream partitioning.

The gram kernel is fully vectorized across the batch: one Arrow
lowercase+split, one dictionary-encode (hash each batch-unique token
once, NOTES.md round-2 item 6), a flat rolling k-gram hash over the
concatenated token stream with row-boundary masking, and a lexsort for
per-row distinct grams — no Python loop over rows, tokens, or grams.

Gram identity is the 64-bit mixed rolling hash of the n token hashes —
equal iff the token sequences are equal (2^-64 collision odds); the
DuckDB oracle builds the same grams as joined token strings, so the
distinct-hit counts are exact.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from whoiswho_ray.functions.hashing import _mix64, stable_hash64

_U64 = np.uint64


def doc_gram_rows(
    t: pa.Table, text_col: str, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row DISTINCT word n-gram hashes for one Arrow batch.

    Returns ``(row_idx int64, gram_hash int64)`` pairs, deduplicated
    within each row. Tokens are lowercased ``\\S+`` runs (the same
    tokenization as the repetition / fingerprint kernels)."""
    col = t.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    nrows = len(col)
    toks = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(col, "")), r"\s+")
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.values.slice(offsets[0], offsets[-1] - offsets[0])
    offsets = offsets - offsets[0]

    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = enc.dictionary.to_pylist()
    uniq_hash = np.fromiter(
        (stable_hash64(u) if u else -1 for u in uniq), np.int64, len(uniq))
    ids_all = uniq_hash[codes] if codes.size else np.empty(0, np.int64)

    # drop empty-string tokens (leading/trailing whitespace splits) and
    # rebuild per-row offsets over the kept stream
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(offsets))
    keep = ids_all != -1
    ids, row_of = ids_all[keep], row_of[keep]
    counts = np.bincount(row_of, minlength=nrows).astype(np.int64)
    offs = np.concatenate([[0], np.cumsum(counts)])

    N = ids.size
    if N < n:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    x = ids.astype(_U64)
    base = _U64(1099511628211)
    acc = np.zeros(N - n + 1, dtype=_U64)
    with np.errstate(over="ignore"):
        for j in range(n):  # n is tiny (<= 13); vectorized over positions
            acc = acc * base + x[j: N - n + 1 + j]
    pos = np.arange(N - n + 1, dtype=np.int64)
    prow = np.searchsorted(offs, pos, side="right") - 1
    valid = pos + n <= offs[prow + 1]  # gram must not cross a row boundary
    grams = _mix64(acc)[valid].view(np.int64)
    rows = prow[valid]

    order = np.lexsort((grams, rows))
    g, r = grams[order], rows[order]
    first = np.r_[True, (g[1:] != g[:-1]) | (r[1:] != r[:-1])]
    return r[first], g[first]


def benchmark_gram_set(
    benchmark: "ray.data.Dataset", text_col: str = "text", n: int = 8
) -> np.ndarray:
    """Distinct gram hashes of the benchmark set, sorted int64.

    The benchmark side is small by definition (documented assumption);
    per-batch unique grams stream back and the global distinct happens
    once on the driver."""
    def grams_of(t: pa.Table) -> pa.Table:
        _, g = doc_gram_rows(t, text_col, n)
        return pa.table({"g": pa.array(np.unique(g), pa.int64())})

    parts = [
        b.column("g").to_numpy(zero_copy_only=False)
        for b in benchmark.map_batches(
            grams_of, batch_format="pyarrow", zero_copy_batch=True
        ).iter_batches(batch_format="pyarrow")
    ]
    if not parts:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(parts))


def decontaminate(
    corpus: "ray.data.Dataset",
    benchmark: "ray.data.Dataset",
    text_col: str = "text",
    key_col: str = "doc_id",
    n: int = 8,
    min_hits: int = 1,
) -> "ray.data.Dataset":
    """Per corpus document: distinct n-gram count, distinct grams shared
    with the benchmark, and the contamination flag (``n_hits >= min_hits``).

    Returns ``(key, n_grams, n_hits, contaminated)``."""
    from whoiswho_ray.stages.joins import _cached_get

    bench_ref = ray.put(benchmark_gram_set(benchmark, text_col, n))

    def flag(t: pa.Table) -> pa.Table:
        rows, grams = doc_gram_rows(t, text_col, n)
        nrows = len(t)
        bench = _cached_get(bench_ref)  # sorted int64, shared memory
        if grams.size and bench.size:
            idx = np.searchsorted(bench, grams)
            hit = (idx < bench.size) & (bench[np.minimum(idx, bench.size - 1)] == grams)
        else:
            hit = np.zeros(grams.size, dtype=bool)
        n_grams = np.bincount(rows, minlength=nrows).astype(np.int64)
        n_hits = np.bincount(rows[hit], minlength=nrows).astype(np.int64)
        return pa.table({
            key_col: t.column(key_col),
            "n_grams": pa.array(n_grams),
            "n_hits": pa.array(n_hits),
            "contaminated": pa.array(n_hits >= min_hits),
        })

    return corpus.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=4096)
