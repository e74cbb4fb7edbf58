"""Split / sampling operators (SURVEY.md §2.6, O1/O5/O6/O7).

Re-expressions of the reference's dataset-construction helpers:

* ``temporal_split`` — per key, sort by time and flag the most recent 20%
  as "unassigned" (``/root/reference/whoiswho/dataset/data_process.py:
  323-368``: per (name, aid) pubs sorted by year, last 20% held out).
* ``cap_per_group`` — keep the first k rows per key in a deterministic
  order (the profile caps of ``adhoc_features.py:38,105``).
* ``kfold_by_weight`` — weight-aware round-robin fold assignment
  (``data_process.py:553-617``: names split into k folds balancing paper
  counts): keys sorted by weight desc get folds 0,1,...,k-1,0,1,...
* ``sample_negatives`` — seeded per-group negative sampling
  (``data_process.py:590-616``: 19 negatives per positive instance).

All are per-group computations after one shuffle — but the shuffle is
hash-BUCKETED (one Ray group per bucket, ~4×CPUs buckets), never one Ray
group per key: group sizes/ranks come from vectorized pandas
groupby-transforms inside the bucket task, so key cardinality (customers,
entities) can grow without per-group scheduling overhead. Fold assignment
aggregates weights first (pre-aggregated) and broadcasts the tiny
key→fold map.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from whoiswho_ray.stages.cluster import _cc_num_buckets
from whoiswho_ray.stages.joins import cogroup


def temporal_split(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    order_cols: list[str] | None = None,
    holdout_frac: float = 0.2,
) -> "ray.data.Dataset":
    """Adds ``is_unassigned``: True for rows after position int(n*(1-frac))
    in (ts, tiebreak) order within the key group — exactly the reference's
    ``int(len*0.8)`` split point."""
    order_cols = order_cols or [ts_col]

    def kernel(t) -> pd.DataFrame:
        df = t.to_pandas().sort_values(
            [key_col] + order_cols, kind="stable").reset_index(drop=True)
        gb = df.groupby(key_col, sort=False)
        size = gb[key_col].transform("size").to_numpy()
        pos = gb.cumcount().to_numpy()
        cut = (size * (1.0 - holdout_frac)).astype(np.int64)  # == int(n*0.8)
        df["is_unassigned"] = pos >= cut
        return df

    return cogroup([(ds, key_col)], kernel, _cc_num_buckets())


def cap_per_group(
    ds: "ray.data.Dataset",
    key_col: str,
    k: int,
    order_cols: list[str],
    ascending: "list[bool] | None" = None,
) -> "ray.data.Dataset":
    """First k rows per key in (order_cols, ascending) order — bounded-
    profile semantics / per-group top-k, deterministic."""
    asc = ascending if ascending is not None else [True] * len(order_cols)

    def kernel(t) -> pd.DataFrame:
        df = t.to_pandas().sort_values(
            [key_col] + order_cols, ascending=[True] + list(asc),
            kind="stable").reset_index(drop=True)
        pos = df.groupby(key_col, sort=False).cumcount().to_numpy()
        return df[pos < k]

    return cogroup([(ds, key_col)], kernel, _cc_num_buckets())


def kfold_by_weight(
    weights: pd.DataFrame,
    key_col: str,
    weight_col: str,
    k: int = 5,
) -> pd.DataFrame:
    """(key, weight) → (key, fold): keys in weight-desc (then key-asc)
    order take folds 0..k-1 round-robin, balancing total weight per fold
    the way the reference's weight-aware shuffle does."""
    w = weights.sort_values([weight_col, key_col], ascending=[False, True],
                            kind="stable").reset_index(drop=True)
    w["fold"] = np.arange(len(w)) % k
    return w[[key_col, "fold"]]


def kfold_by_weight_ds(
    ds: "ray.data.Dataset",
    key_col: str,
    weight_col: str,
    k: int = 5,
) -> "ray.data.Dataset":
    """Distributed ``kfold_by_weight``: the same (weight desc, key asc)
    rank-mod-k assignment, but the rank comes from one Ray ``sort``
    (distributed sample-sort) followed by ``agg.with_global_rank``
    (per-block offset tasks over the ordered block list) — no driver-side
    materialization, so key cardinality is bounded by the cluster, not
    the driver (the pandas variant's documented ~1M-key ceiling).
    Bit-identical to :func:`kfold_by_weight` (asserted in tests; the
    tie-break key is part of the sort key, so the order is fully
    determined). NOTE: an earlier version zipped against ``range(n)``;
    ``Dataset.zip`` does not guarantee row alignment across uneven block
    structures (scrambles at multi-block scale), hence the offset-task
    rank."""
    import pyarrow as pa

    from whoiswho_ray.stages.agg import with_global_rank

    s = ds.sort([weight_col, key_col], descending=[True, False]).materialize()
    z = with_global_rank(s, "__rank")

    def assign(t: pa.Table) -> pa.Table:
        idx = t.column("__rank").to_numpy(zero_copy_only=False)
        return pa.table({
            key_col: t.column(key_col),
            "fold": pa.array((idx % k).astype(np.int64)),
        })

    return z.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def sample_negatives(
    ds: "ray.data.Dataset",
    group_col: str,
    key_col: str,
    n_neg: int = 19,
    seed: int = 42,
) -> "ray.data.Dataset":
    """Per group, for every row take n_neg OTHER keys — the training-pair
    construction of ``data_process.py:590-616``, as a seeded pseudo-random
    draw that is also **SQL-expressible** (exact DuckDB oracle): the
    group's keys are permuted by ``md5('{seed}|{key}')`` (deterministic,
    identical in hashlib and DuckDB), and the row at permuted position r
    takes negatives ``perm[(r + 1 + (j % (n-1))) % n]`` for j < n_neg —
    never itself, cycling through all other members (repeats only when the
    group is smaller than n_neg, matching the reference's
    with-replacement fallback for small groups). Fully vectorized;
    partition- and order-invariant."""
    import hashlib

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        keys = np.sort(g[key_col].to_numpy())
        n = keys.size
        if n < 2:
            return pd.DataFrame({group_col: [], "pos_key": [], "neg_key": []})
        digs = np.array([hashlib.md5(f"{seed}|{k}".encode()).hexdigest() for k in keys],
                        dtype=object)
        perm = keys[np.lexsort((keys, digs))]
        r = np.arange(n)
        j = np.arange(n_neg)
        idx = (r[:, None] + 1 + (j[None, :] % (n - 1))) % n
        return pd.DataFrame({
            group_col: np.repeat(g[group_col].iloc[0], n * n_neg),
            "pos_key": np.repeat(perm, n_neg),
            "neg_key": perm[idx.ravel()],
        })

    from whoiswho_ray.stages.agg import group_apply

    return group_apply(ds, group_col, per_group, batch_format="pandas")


def stratified_sample(
    ds: "ray.data.Dataset",
    stratum_col: str,
    key_col: str,
    fractions: dict[str, float],
    default: float = 0.0,
    seed: int = 42,
) -> "ray.data.Dataset":
    """Per-stratum deterministic Bernoulli sample (training-data mixture
    reweighting: keep fraction f_s of stratum s).

    A row is kept iff ``u(key) < f[stratum] * 2^32`` with ``u`` = the
    first 8 hex digits of ``md5('{seed}|{key}')`` — a uniform 32-bit
    draw that hashlib and DuckDB compute bit-identically, so the sample
    is EXACTLY reproducible cross-engine (same md5 trick as
    ``sample_negatives``; swap in a vectorized xxhash at real scale if
    cross-engine replay is not needed). Stateless map over batches:
    zero shuffles, trivially resumable, embarrassingly parallel.

    The comparison stays in float64 (exact for 32-bit integers) on both
    engines — never floor the threshold on one side only.
    """
    import hashlib

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        u = np.fromiter(
            (int(hashlib.md5(f"{seed}|{key}".encode()).hexdigest()[:8], 16)
             for key in df[key_col]),
            dtype=np.float64, count=len(df))
        f = df[stratum_col].map(lambda s: fractions.get(s, default)).to_numpy(np.float64)
        return df[u < f * 4294967296.0]

    return ds.map_batches(filt, batch_format="pandas")


def weighted_sample(
    ds: "ray.data.Dataset",
    key_col: str,
    weight_col: str,
    k: int,
    seed: int = 42,
) -> pd.DataFrame:
    """Weighted reservoir sample without replacement — A-Res (Efraimidis
    & Spirakis 2006, "Weighted random sampling with a reservoir"): each
    row draws a uniform u and the k rows with the largest u^(1/w)
    survive, which yields exactly the sequential weighted-sampling
    distribution. The corpus-subsampling staple (sample 1M docs
    proportional to length/quality from 10B) in one streaming pass.

    Determinism: u = (first 8 md5 hex digits of '{seed}|{key}' + 0.5) /
    2^32 — the same cross-engine-exact draw as ``stratified_sample``
    (+0.5 keeps u strictly inside (0,1) so the log is finite). The sort
    key is the monotone-equivalent ln(u)/w (descending, ties by key) —
    one ln() per row, whose ≤1-ulp libm-vs-DuckDB difference is
    absorbed by the measured gap at the k-th boundary.

    Scale shape: per-batch partial top-k (vectorized argpartition), one
    driver merge of k×batches candidate rows — no shuffle, no global
    sort. Returns the k sampled rows as a DataFrame (key, weight, and
    the selection key for callers that chain)."""
    import hashlib

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        if n == 0:
            return pd.DataFrame({key_col: pd.Series([], dtype=object),
                                 weight_col: pd.Series([], dtype=np.float64),
                                 "__s": pd.Series([], dtype=np.float64)})
        u = np.fromiter(
            (int(hashlib.md5(f"{seed}|{key}".encode()).hexdigest()[:8], 16)
             for key in df[key_col]),
            dtype=np.float64, count=n)
        u = (u + 0.5) / 4294967296.0
        w = df[weight_col].to_numpy(np.float64)
        s = np.where(w > 0, np.log(u) / np.where(w > 0, w, 1.0), -np.inf)
        out = pd.DataFrame({key_col: df[key_col].to_numpy(),
                            weight_col: w, "__s": s})
        if n > k:
            keep = np.argpartition(-s, k - 1)[:k]
            out = out.iloc[keep]
        return out

    cand = ds.map_batches(partial, batch_format="pandas").to_pandas()
    cand = cand.sort_values(["__s", key_col], ascending=[False, True],
                            kind="stable").head(k)
    return cand.reset_index(drop=True)
