"""Transitive clustering: per-block union-find + global connected components.

Two paths, as laid out in SURVEY.md §7.1(6):

* **Per-block path** (the default): clusters never span blocks, so the
  cluster step runs inside the blocking task that scores the block
  (``pairs.make_block_clusters``) — embarrassingly parallel across blocks,
  local components over the block's above-threshold edges
  (:func:`cluster_edge_arrays`), with no shuffle of its own. This
  replaces the reference's DBSCAN on a dense
  precomputed distance matrix (``/root/reference/whoiswho/loadmodel/
  ClusterModels.py:5-22``) with threshold edges + union-find, which is the
  scalable equivalent (eps-neighborhood graph connectivity ≡ single-link
  transitive closure at the same threshold when min_samples degenerates).

  The **post-match** rule is the reference's outlier attachment
  (``whoiswho/training/AutoTrainSND.py:163-206``): a record left in a
  singleton joins the cluster of its best-scoring partner when that score
  ≥ tau_attach; singleton–singleton pairs ≥ tau_attach merge. Determinism:
  ties break on (score desc, partner id asc); attachment reads cluster
  membership from the *pre-attachment* state, exactly like the reference
  scores outliers against the fixed DBSCAN clusters.

* **Global path** — ``connected_components`` — alternating large-star /
  small-star contraction (Kiveris et al., "Connected Components in
  MapReduce and Beyond", SoCC 2014; see PAPERS.md) expressed as iterative
  ``groupby(node).map_groups`` rounds. Needed when a component may span
  partitions (e.g. cross-block dedup edges) or a single block's edge set
  exceeds one task's memory. Converges in O(log n) rounds.

Cluster ids are content-derived (``block_key#min-record-id``), so output is
invariant to row order, partitioning, and execution history — required for
resume-equals-fresh-run semantics.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from whoiswho_ray.config import SNDConfig


class UnionFind:
    """Path-halving union-find over dense int indices."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return int(x)

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller index becomes the root
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb

    def labels(self) -> np.ndarray:
        return np.fromiter((self.find(i) for i in range(self.parent.size)),
                           dtype=np.int64, count=self.parent.size)


def cc_labels(n: int, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """Vectorized connected components over dense int edges: min-label
    propagation with pointer jumping. Labels converge to the minimum node
    index per component (same partition UnionFind would yield; asserted in
    tests). Dense cliques settle in 1–2 rounds; chains in O(log n)."""
    labels = np.arange(n, dtype=np.int64)
    if ia.size == 0:
        return labels
    while True:
        before = labels.copy()
        m = np.minimum(labels[ia], labels[ib])
        np.minimum.at(labels, ia, m)
        np.minimum.at(labels, ib, m)
        while True:
            nl = labels[labels]
            if np.array_equal(nl, labels):
                break
            labels = nl
        if np.array_equal(labels, before):
            return labels


def cluster_edge_arrays(
    n: int,
    ia: np.ndarray,
    ib: np.ndarray,
    es: np.ndarray,
    cfg: SNDConfig,
) -> np.ndarray:
    """Core clustering over dense int edge arrays: strong-edge components
    + the reference's post-match. ``ia``/``ib`` are block-local positions
    in record_id-sorted order (partner index order == record_id order)."""
    strong = es >= cfg.tau_edge
    labels = cc_labels(n, ia[strong], ib[strong])

    # ---- post-match (AutoTrainSND.py:163-206) ----
    # The reference's two post-match moves, both reproduced:
    #   (a) each outlier (singleton) attaches to its argmax-scoring
    #       NON-outlier neighbor when that score ≥ tau_attach
    #       (AutoTrainSND.py:179-195 attach-to-cluster loop);
    #   (b) ALL outlier–outlier pairs ≥ tau_attach are merged
    #       (AutoTrainSND.py:197-206 paper_pair1 loop) — not just each
    #       side's best partner, so chains of weak singleton edges fuse.
    # Both read singleton-ness from the PRE-attachment labels, like the
    # reference scoring outliers against the fixed DBSCAN clusters.
    sizes = np.bincount(labels, minlength=n)
    is_singleton = sizes[labels] == 1
    if is_singleton.any() and ia.size:
        att = es >= cfg.tau_attach
        aa, ab, asc = ia[att], ib[att], es[att]
        both_single = is_singleton[aa] & is_singleton[ab]
        # (a) singleton→best non-singleton partner
        x = np.concatenate([aa, ab])
        partner = np.concatenate([ab, aa])
        s = np.concatenate([asc, asc])
        keep = is_singleton[x] & ~is_singleton[partner]
        x, partner, s = x[keep], partner[keep], s[keep]
        extra_a = [aa[both_single]]
        extra_b = [ab[both_single]]
        if x.size:
            # best partner per singleton: score desc, partner index asc
            # (partner index order == record_id order since rids is sorted)
            ordr = np.lexsort((partner, -s, x))
            xs = x[ordr]
            first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
            extra_a.append(xs[first])
            extra_b.append(partner[ordr][first])
        if extra_a[0].size or len(extra_a) > 1:
            # connectivity over strong ∪ attach edges == the reference's
            # sequential unions (union-find is order-independent)
            labels = cc_labels(n, np.concatenate([ia[strong], *extra_a]),
                               np.concatenate([ib[strong], *extra_b]))
    return labels


# ---------------------------------------------------------------------------
# Global connected components — alternating star contraction
# ---------------------------------------------------------------------------
#
# One Ray group per HASH BUCKET (4×CPUs), never per node: edges are
# hash-partitioned on u, and each bucket task resolves every u-group in the
# bucket with one pandas groupby-transform — a fixed number of wide tasks
# per round regardless of node count (the r1 per-node-group version was
# builder-capped at ~100k nodes; this one is bounded only by per-bucket
# memory, and buckets shrink with num_buckets).


def _cc_num_buckets() -> int:
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(16, cpus * 2)


def _large_star_bucket(g) -> pd.DataFrame:
    """All u-groups of one hash bucket at once (input: both-direction
    edges): for each node u, attach every neighbor v > u to
    m = min(u, min(N(u))). Vectorized via groupby-transform."""
    df = g.to_pandas()
    if not len(df):
        return df
    m = df.groupby("u", sort=False)["v"].transform("min")
    m = m.where(m < df["u"], df["u"])
    keep = (df["v"] > df["u"]).to_numpy()
    out = pd.DataFrame({"u": df["v"].to_numpy()[keep], "v": m.to_numpy()[keep]})
    return out[out["u"] != out["v"]].drop_duplicates()


def _small_star_bucket(g) -> pd.DataFrame:
    """All u-groups of one bucket (input oriented big→small, u > v): link
    every neighbor and u itself to the minimum neighbor m."""
    df = g.to_pandas()
    if not len(df):
        return df
    m = df.groupby("u", sort=False)["v"].transform("min")
    nbr = pd.DataFrame({"u": df["v"].to_numpy(), "v": m.to_numpy()})
    self_rows = pd.DataFrame({"u": df["u"].to_numpy(), "v": m.to_numpy()})
    out = pd.concat([nbr, self_rows], ignore_index=True)
    return out[out["u"] != out["v"]].drop_duplicates()


def min_by_key(ds: "ray.data.Dataset", key: str, val: str,
               out_key: str, out_val: str,
               num_buckets: int | None = None) -> "ray.data.Dataset":
    """Distributed min(val) per key: one Ray group per hash bucket, pandas
    groupby-min inside. Works for any comparable dtype (incl. strings,
    which Ray's native Min aggregate does not support everywhere)."""
    from whoiswho_ray.stages.joins import cogroup

    def kernel(t) -> pd.DataFrame:
        out = t.to_pandas().groupby(key, sort=False)[val].min().reset_index()
        return out.rename(columns={key: out_key, val: out_val})

    return cogroup([(ds, key, [key, val])], kernel, num_buckets or _cc_num_buckets())


def connected_components(
    edges: "ray.data.Dataset",
    max_rounds: int = 50,
    num_buckets: int | None = None,
    int_encode: "bool | str" = "auto",
    encode_threshold: int = 2_000_000,
) -> "ray.data.Dataset":
    """Edge Dataset (columns ``u``, ``v``) → label Dataset (``node``, ``component``)
    where ``component`` is the minimum node id of the component.

    Alternating large-star / small-star contraction (Kiveris et al.,
    "Connected Components in MapReduce and Beyond", SoCC 2014 — PAPERS.md),
    O(log n) rounds. Each round runs 2 bucketed shuffles; the per-round
    convergence check is a pre-aggregated signature (one tiny row per
    batch), never a full materialization. Isolated nodes don't appear —
    callers union them back as self-labeled.

    ``int_encode`` reuses :func:`whoiswho_ray.stages.graph.encode_edges`
    (VERDICT r3 #1): non-integer node ids on graphs at or above
    ``encode_threshold`` edges are dictionary-encoded to dense int64
    ONCE (order-preserving — min-nid decodes to min-id, so component
    roots are unchanged), every contraction round then shuffles int64
    pairs instead of id strings/hashes, and the labels decode back at
    the end with two bucketed joins. ``True``/``False`` force/disable.
    """
    import pyarrow as pa

    from whoiswho_ray.stages.joins import cogroup

    nb = num_buckets or _cc_num_buckets()

    def both_dirs(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            pa.table({"u": t.column("u"), "v": t.column("v")}),
            pa.table({"u": t.column("v"), "v": t.column("u")}),
        ]).combine_chunks()

    def no_self(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.invert(pc.equal(t.column("u"), t.column("v"))))

    def orient(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        u, v = t.column("u"), t.column("v")
        return pa.table({"u": pc.max_element_wise(u, v),
                         "v": pc.min_element_wise(u, v)})

    cur = edges.map_batches(no_self, batch_format="pyarrow").materialize()
    node_map = None
    if int_encode is not False and cur.count() > 0:
        u_type = dict(zip(cur.schema().names, cur.schema().types)).get("u")
        already_int = isinstance(u_type, pa.DataType) and pa.types.is_integer(u_type)
        if int_encode is True or (int_encode == "auto" and not already_int
                                  and cur.count() >= encode_threshold):
            from whoiswho_ray.stages.graph import encode_edges

            eidx, node_map = encode_edges(cur, "u", "v")
            cur = eidx.map_batches(
                lambda df: pd.DataFrame({"u": df["si"].astype(np.int64),
                                         "v": df["di"].astype(np.int64)}),
                batch_format="pandas").materialize()
    prev_sig = None
    for _ in range(max_rounds):
        # large-star: needs all orientations of each node's neighborhood
        ls_in = cur.map_batches(both_dirs, batch_format="pyarrow")
        cur = cogroup([(ls_in, "u")], _large_star_bucket, nb)
        # small-star: orient big→small
        ss_in = cur.map_batches(orient, batch_format="pyarrow")
        cur = cogroup([(ss_in, "u")], _small_star_bucket, nb).materialize()
        # convergence: stable (count, order-invariant checksum) of the edges
        def sig_batch(df: pd.DataFrame) -> pd.DataFrame:
            h = pd.util.hash_pandas_object(
                df["u"].astype(str) + "|" + df["v"].astype(str), index=False
            ).to_numpy()
            with np.errstate(over="ignore"):
                s = int(np.sum(h.astype(np.uint64), dtype=np.uint64))
            return pd.DataFrame({"n": [len(df)], "s": [np.uint64(s)]})

        sig_parts = cur.map_batches(sig_batch, batch_format="pandas").to_pandas()
        if not len(sig_parts):
            # empty edge set (all blocks pairless): nothing to contract
            break
        with np.errstate(over="ignore"):
            sig = (
                int(sig_parts["n"].sum()),
                int(np.sum(sig_parts["s"].to_numpy().astype(np.uint64), dtype=np.uint64)),
            )
        if sig == prev_sig:
            break
        prev_sig = sig
    # cur is now (node, root) star edges, possibly with duplicates. The
    # root of each component has no edge row of its own (stars orient
    # big→small, so the minimum only ever appears as v) — append the
    # (root, root) self-labels so every edge-touching node is labeled
    # (previously roots were silently absent and only the dedup callers'
    # isolate-union masked it).
    labels = min_by_key(cur, "u", "v", "node", "component", num_buckets=nb)
    from whoiswho_ray.stages.agg import distinct

    roots = distinct(labels.map_batches(
        lambda df: pd.DataFrame({"node": df["component"],
                                 "component": df["component"]}),
        batch_format="pandas"), ["node", "component"], final="shuffle")
    out = labels.union(roots)
    if node_map is not None:
        # decode nid → original id (order-preserving encoding, so the
        # min-nid component root decodes to the min original id)
        from whoiswho_ray.stages.joins import shuffle_hash_join

        half = shuffle_hash_join(
            out.map_batches(
                lambda df: pd.DataFrame({"nid": df["node"].astype(np.int64),
                                         "cid": df["component"].astype(np.int64)}),
                batch_format="pandas"),
            node_map, on="nid", num_buckets=nb,
            project=lambda m: m[["node", "cid"]])
        cmap = node_map.map_batches(
            lambda df: pd.DataFrame({"cid": df["nid"].astype(np.int64),
                                     "component": df["node"]}),
            batch_format="pandas")
        out = shuffle_hash_join(half, cmap, on="cid", num_buckets=nb,
                                project=lambda m: m[["node", "component"]])
    return out
