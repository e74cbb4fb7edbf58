"""Entity-resolution blocking strategies beyond plain key-equality.

The reference's only blocking device is exact key grouping (the per-name
shards of ``whoiswho/dataset/data_process.py:60-84``); classic record
linkage adds *sorted-neighborhood* blocking (Hernandez & Stolfo, SIGMOD
1995): sort all records by a lexicographic key and emit every pair whose
ranks are within a fixed window ``w``.  That catches near-misses that
never share an exact key (typos at the tail of the name) at O(n·w)
candidate pairs instead of O(n²).

Ray-Data-first layout:

1. one global sort on the key columns (+ id tie-break) — the ONLY
   all-to-all exchange;
2. global ranks via the per-block offset pass (``agg.with_global_rank``
   — no shuffle, one tiny task per block);
3. rows fall into rank buckets of ``bucket_rows`` each; the first ``w``
   rows of every bucket are *replicated* into the previous bucket so a
   window never straddles an exchange boundary;
4. one co-group pass over the buckets emits pairs ``(rank, rank+d)`` for
   ``d = 1..w`` with pure slice arithmetic (ranks inside a bucket are
   contiguous by construction — no search, no per-row loop), keeping a
   pair iff its LEFT rank is owned by the bucket (exactly-once).

At 100 TB the sort is the cost; everything after is embarrassingly
parallel with ``w``-row overlap — the same boundary-replication trick a
multi-node run needs, so single-node behavior == cluster behavior.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray


def sorted_neighborhood_pairs(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    id_col: str,
    window: int,
    bucket_rows: int = 65536,
) -> "ray.data.Dataset":
    """Candidate pairs ``(id_a, id_b)`` whose global ranks under
    ``ORDER BY key_cols..., id_col`` differ by at most ``window``.

    Output columns: ``id_a``, ``id_b`` (ids at the lower / higher rank
    respectively — NOT sorted by id value, but deterministic because the
    sort is total thanks to the ``id_col`` tie-break).

    Oracle shape::

        WITH r AS (SELECT <id>, ROW_NUMBER() OVER (ORDER BY <keys>, <id>)
                   AS rn FROM t)
        SELECT a.<id> AS id_a, b.<id> AS id_b
        FROM r a JOIN r b ON b.rn > a.rn AND b.rn <= a.rn + <w>
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if bucket_rows <= window:
        raise ValueError("bucket_rows must exceed window")
    from .agg import with_global_rank

    cols = list(dict.fromkeys(list(key_cols) + [id_col]))
    s = ds.select_columns(cols).sort(
        list(key_cols) + [id_col]).materialize()
    ranked = with_global_rank(s, "__rn").select_columns([id_col, "__rn"])

    w = int(window)
    B = int(bucket_rows)

    def assign(t: pa.Table) -> pa.Table:
        rn = t.column("__rn").to_numpy(zero_copy_only=False)
        own = rn // B
        # head rows of bucket k>0 also serve bucket k-1 as right-side
        # neighbors; they are tagged by a bucket id only — no payload dup
        # beyond the (id, rank) projection.
        head = (rn % B < w) & (own > 0)
        t = t.append_column("__blk", pa.array(own.astype(np.int64)))
        if not head.any():
            return t
        extra = t.filter(pa.array(head)).drop_columns(["__blk"])
        extra = extra.append_column(
            "__blk", pa.array((own[head] - 1).astype(np.int64)))
        return pa.concat_tables([t, extra])

    bucketed = ranked.map_batches(assign, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=131072)

    def pairs(t: pa.Table) -> pa.Table:
        blk = t.column("__blk").to_numpy(zero_copy_only=False)
        return pa.concat_tables([blk_pairs(t.filter(pa.array(blk == b)), int(b))
                                 for b in np.unique(blk)])

    def blk_pairs(t: pa.Table, b: int) -> pa.Table:
        t = t.sort_by([("__rn", "ascending")])
        rn = t.column("__rn").to_numpy(zero_copy_only=False)
        ids = t.column(id_col)
        lo, hi = b * B, (b + 1) * B
        parts = []
        n = len(rn)
        for d in range(1, w + 1):
            if n <= d:
                break
            a_rn = rn[:-d]
            # ranks are globally contiguous integers, so within the
            # bucket+overlap slice rank[i+d] == rank[i]+d always holds;
            # assert the invariant instead of searching.
            keep = (a_rn >= lo) & (a_rn < hi)
            if not keep.any():
                continue
            idx = np.flatnonzero(keep)
            if not np.array_equal(rn[idx + d], a_rn[idx] + d):
                raise AssertionError("sorted-neighborhood rank gap — "
                                     "with_global_rank contract violated")
            parts.append(pa.table({
                "id_a": ids.take(pa.array(idx)),
                "id_b": ids.take(pa.array(idx + d)),
            }))
        if not parts:
            return pa.table({"id_a": ids.slice(0, 0), "id_b": ids.slice(0, 0)})
        return pa.concat_tables(parts)

    from whoiswho_ray.stages.joins import cogroup

    return cogroup([(bucketed, "__blk")], pairs, s.count() // B + 1)


def multipass_sorted_neighborhood(
    ds: "ray.data.Dataset",
    passes: list[list[str]],
    id_col: str,
    window: int,
    bucket_rows: int = 65536,
) -> "ray.data.Dataset":
    """Multi-pass sorted-neighborhood (the production variant of
    Hernandez & Stolfo): one windowed pass per sort-key list, unioned,
    with the pair de-duplicated on the UNordered pair ``{a, b}`` —
    different passes may discover the same pair in opposite rank order.

    Output: ``id_a < id_b`` canonical pairs, distinct.
    """
    import pyarrow.compute as pc
    from .agg import distinct

    parts = [
        sorted_neighborhood_pairs(ds, ks, id_col, window, bucket_rows)
        for ks in passes
    ]
    u = parts[0]
    for p in parts[1:]:
        u = u.union(p)

    def canon(t: pa.Table) -> pa.Table:
        a, b = t.column("id_a"), t.column("id_b")
        lo = pc.min_element_wise(a, b)
        hi = pc.max_element_wise(a, b)
        return pa.table({"id_a": lo, "id_b": hi})

    u = u.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True)
    return distinct(u, ["id_a", "id_b"], final="shuffle")


def meta_blocking(
    memberships: "ray.data.Dataset",
    id_col: str,
    key_col: str,
    max_block_size: int = 64,
    prune: str = "wep",
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Meta-blocking (Papadakis et al., "Meta-Blocking: Taking Entity
    Resolution to the Next Level", TKDE 2014 — see PAPERS.md): restructure
    a redundancy-positive block collection into a pruned comparison set.
    Records co-occurring in more blocks are more likely matches, so the
    blocking graph's edges are weighted by CBS (Common Blocks Scheme =
    number of shared blocks) and pruned:

    - ``prune='wep'`` (Weighted Edge Pruning): keep edges strictly above
      the global mean weight;
    - ``prune='wnp'`` (Weighted Node Pruning): keep edges >= the mean
      weight of EITHER endpoint's incident edges.

    Input: ``(id, key)`` block-membership rows (duplicates tolerated).
    Output: ``(id_a, id_b, cbs)`` canonical pairs (``id_a < id_b``).

    Both prune rules are evaluated in INTEGER arithmetic
    (``cbs * n > / >= sum``), so a SQL replay with ``avg()`` semantics is
    exact by construction — no float mean ever materializes. (Bound:
    ``cbs * degree`` must fit int64 — cbs <= blocks-per-record, so this
    holds until a record shares ~1e9 blocks with 1e9 neighbors.)

    Scale shape: block purging (size < 2 or > ``max_block_size``) happens
    INSIDE the per-block group task — oversized stop-blocks never
    enumerate a pair; pair weights come from one bucketed pre-aggregated
    exchange (``grouped_agg`` partials collapse per-batch duplicates
    first); WEP's global (sum, count) is a two-scalar driver reduce; WNP's
    per-node sums ride the existing bucketed join machinery. The edge set
    is materialized once (it is the operator's OUTPUT-sized set, already
    pruned by block purging) because both rules need a second pass over
    it.
    """
    import pyarrow.compute as pc  # noqa: F401  (kept for callers)

    from .agg import distinct, group_apply, grouped_agg
    from .joins import shuffle_hash_join

    if prune not in ("wep", "wnp"):
        raise ValueError(f"meta_blocking: prune must be wep|wnp, got {prune!r}")
    cap = int(max_block_size)

    m = distinct(memberships.select_columns([key_col, id_col]),
                 [key_col, id_col], final="shuffle")

    def pairs_fn(t: pa.Table) -> pa.Table:
        nrows = t.num_rows
        ids_col = t.column(id_col)
        if nrows < 2 or nrows > cap:
            return pa.table({"id_a": ids_col.slice(0, 0),
                             "id_b": ids_col.slice(0, 0)})
        ids = np.sort(ids_col.to_numpy(zero_copy_only=False))
        iu, ju = np.triu_indices(nrows, k=1)
        return pa.table({"id_a": pa.array(ids[iu]),
                         "id_b": pa.array(ids[ju])})

    pairs = group_apply(m, key_col, pairs_fn, batch_format="pyarrow",
                        num_buckets=num_buckets)
    edges = grouped_agg(pairs, ["id_a", "id_b"], {"cbs": (None, "count")},
                        final="shuffle").materialize()

    if prune == "wep":
        parts = edges.map_batches(
            lambda df: pd.DataFrame({"s": [int(df["cbs"].sum())],
                                     "n": [np.int64(len(df))]}),
            batch_format="pandas").to_pandas()
        if parts.empty or "n" not in parts.columns:
            return edges  # zero edge blocks — typed-empty passthrough
        n_tot, s_tot = int(parts["n"].sum()), int(parts["s"].sum())
        if n_tot == 0:
            return edges
        return edges.map_batches(
            lambda df: df[df["cbs"].to_numpy(np.int64) * n_tot > s_tot],
            batch_format="pandas")

    # WNP: per-node (sum, count) over incident edges, attached twice
    both = edges.map_batches(
        lambda df: pd.concat(
            [df[["id_a", "cbs"]].rename(columns={"id_a": "nid"}),
             df[["id_b", "cbs"]].rename(columns={"id_b": "nid"})],
            ignore_index=True),
        batch_format="pandas")
    navg = grouped_agg(both, "nid", {"s": ("cbs", "sum"),
                                     "n": (None, "count")}, final="shuffle")
    na = navg.map_batches(
        lambda df: df.rename(columns={"nid": "id_a", "s": "s_a", "n": "n_a"}),
        batch_format="pandas")
    nb = navg.map_batches(
        lambda df: df.rename(columns={"nid": "id_b", "s": "s_b", "n": "n_b"}),
        batch_format="pandas")
    j = shuffle_hash_join(edges, na, on="id_a")
    j = shuffle_hash_join(j, nb, on="id_b")

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cbs"].to_numpy(np.int64)
        ok = ((c * df["n_a"].to_numpy(np.int64) >= df["s_a"].to_numpy(np.int64))
              | (c * df["n_b"].to_numpy(np.int64) >= df["s_b"].to_numpy(np.int64)))
        return df.loc[ok, ["id_a", "id_b", "cbs"]]

    return j.map_batches(keep, batch_format="pandas")
