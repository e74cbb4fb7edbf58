"""The flagship SND pipeline: blocking → pairwise scoring → transitive clustering.

The Ray-Data-native re-expression of the reference's SND lifecycle
(``/root/reference/whoiswho/training/AutoTrainSND.py:208-257`` plus its
preprocessing, SURVEY.md §3.1), as a streaming Dataset pipeline:

    read_parquet(records)
      → normalize            map_batches, zero-copy Arrow   (stage "normalized")
      → build_idf            pre-aggregated groupby(token)  (artifact "idf")
      → vectorize            actor pool, broadcast IdfModel
      → generate_pairs       groupby(block_key).map_groups  (the blocking shuffle)
      → score_pairs          actor pool map_batches         (stage "edges")
      → cluster_blocks       groupby(block_key).map_groups  (stage "clusters")

With ``out_dir`` set, each stage checkpoints to Parquet through an atomic
manifest (see ``state/manifest.py``) and a rerun resumes from the last
completed stage; per-block lineage/metrics go to stage "block_metrics".
Without ``out_dir`` the pipeline is one lazy streaming plan end-to-end.

Every cluster row carries ``content_sha256`` so the BASELINE.json per-row
invariant (output sha256 == input sha256 per record) is checkable without
re-reading content.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.cluster import cluster_blocks
from whoiswho_ray.stages.idf import IdfModel, build_idf
from whoiswho_ray.stages.normalize import normalize_records
from whoiswho_ray.stages.pairs import (EDGE_SHUFFLE_COLUMNS, generate_block_metrics,
                                       generate_scored_edges, shuffle_partitions)
from whoiswho_ray.stages.scoring import vectorize
from whoiswho_ray.state.manifest import Manifest

NODE_MARKER = -1  # ix_a value marking a node (non-edge) row in the cluster input


def _node_rows(normalized: "rd.Dataset") -> "rd.Dataset":
    """Records as node rows for the cluster stage (singletons must cluster
    too — never rely on them having edges)."""
    def to_nodes(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "block_key": t.column("block_key"),
            "ix_a": pa.array(np.full(n, NODE_MARKER, dtype=np.int32)),
            "ix_b": pa.array(np.full(n, NODE_MARKER, dtype=np.int32)),
            "score": pa.array(np.full(n, np.nan, dtype=np.float64)),
            "record_id": t.column("record_id"),
            "content_sha256": t.column("content_sha256"),
        })
    return normalized.map_batches(to_nodes, batch_format="pyarrow", zero_copy_batch=True)


def _edge_rows(edges: "rd.Dataset") -> "rd.Dataset":
    """Compact edge rows: block-local int32 positions (in record_id-sorted
    order, assigned by make_scored_edges) + float64 score — no strings
    beyond the block key travel through the cluster shuffle. The score
    stays float64 so the cluster stage compares against tau_edge/tau_attach
    with exactly the same rounding as the make_scored_edges filter (a
    float32 round-trip would drop near-threshold edges: float32(1.3) < 1.3).
    The id columns are all-null arrays (validity bitmap only — no per-row
    string payload) purely to align the node/edge union schema."""
    def to_edges(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "block_key": t.column("block_key"),
            "ix_a": t.column("ix_a"),
            "ix_b": t.column("ix_b"),
            "score": t.column("score"),
            "record_id": pa.nulls(n, pa.string()),
            "content_sha256": pa.nulls(n, pa.string()),
        })
    return edges.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)


def snd_cluster(
    normalized: "rd.Dataset",
    vectorized: "rd.Dataset",
    cfg: SNDConfig | None = None,
    staged: bool = False,
    idf=None,
    pre_partitioned: bool = False,
) -> "rd.Dataset":
    """Clustering tail of the pipeline for callers that already hold the
    normalized/vectorized records (e.g. the RND pipeline, which reuses
    them for profile building).

    Default is the FUSED path: scoring and clustering run inside the one
    blocking groupby (``pairs.make_block_clusters``) — no edge shuffle, no
    node/edge union, no second sort. ``staged=True`` keeps the explicit
    edges→union→cluster chain (the resume-granular shape the checkpointed
    pipeline uses); both produce identical clusters (asserted in tests)."""
    cfg = cfg or SNDConfig()
    if staged:
        edges = generate_scored_edges(vectorized, cfg)
        union = _node_rows(normalized).union(_edge_rows(edges))
        return cluster_blocks(union, cfg)
    from whoiswho_ray.stages.pairs import make_block_clusters

    if pre_partitioned:
        # the caller repartitioned BEFORE materializing the normalized
        # table (run_snd does), so the task-pool vectorize map feeds the
        # sort directly — one fewer barrier on the flagship path
        idf_w_ref = ray.put(np.asarray(idf.idf)) if idf is not None else None

        def fused_pre(g):
            w = _idf_w_cached(idf_w_ref) if idf_w_ref is not None else None
            return make_block_clusters(g, cfg, idf_w=w)

        return vectorized.groupby("block_key").map_groups(
            fused_pre, batch_format="pyarrow")

    # ``idf``: required when ``vectorized`` was built with
    # ship_weights=False — the block kernel re-derives tfv_w from the
    # broadcast idf array instead of reading it off the shuffle. The array
    # ships through the object store ONCE (ray.put) and each worker
    # process fetches it once (plasma-local after the first get).
    idf_w_ref = ray.put(np.asarray(idf.idf)) if idf is not None else None

    def fused(g):
        w = _idf_w_cached(idf_w_ref) if idf_w_ref is not None else None
        return make_block_clusters(g, cfg, idf_w=w)

    return vectorized.repartition(shuffle_partitions()).groupby("block_key").map_groups(
        fused, batch_format="pyarrow")


_IDF_W_CACHE: dict = {}


def _idf_w_cached(ref):
    """Per-process cache of the broadcast idf array (one object-store get
    per worker process, not one per group)."""
    key = ref.hex()
    w = _IDF_W_CACHE.get(key)
    if w is None:
        _IDF_W_CACHE.clear()
        w = _IDF_W_CACHE[key] = ray.get(ref)
    return w


def snd_vote_cluster(
    vectorized: "rd.Dataset",
    cfgs=None,
    min_votes: int | None = None,
    idf=None,
) -> "rd.Dataset":
    """Ensemble pair-vote clustering tail (operator A9 full analog): the
    fused blocking shuffle of :func:`snd_cluster`, but inside each block
    every candidate pair is voted on by a grid of weight configs
    (``pairs.default_vote_configs``) and clusters are components over
    majority-voted edges — bond's threshold-grid ensemble
    (``autotrain_bond_ensemble.py:241-260``) re-expressed for the
    weighted-score kernel."""
    from whoiswho_ray.stages.pairs import default_vote_configs, make_block_vote_clusters

    cfgs = cfgs or default_vote_configs()
    mv = (len(cfgs) // 2 + 1) if min_votes is None else min_votes
    idf_w_ref = ray.put(np.asarray(idf.idf)) if idf is not None else None

    def fused(g):
        w = _idf_w_cached(idf_w_ref) if idf_w_ref is not None else None
        return make_block_vote_clusters(g, cfgs, mv, idf_w=w)

    return vectorized.repartition(shuffle_partitions()).groupby("block_key").map_groups(
        fused, batch_format="pyarrow")


def run_snd_vote(
    records: "rd.Dataset | str",
    cfgs=None,
    min_votes: int | None = None,
) -> "rd.Dataset":
    """records → majority-voted ensemble clusters, the run_snd sibling
    (same compact/ship_weights/sha_binary shuffle encoding)."""
    from whoiswho_ray.stages.pairs import CLUSTER_SHUFFLE_COLUMNS

    base = (cfgs[0] if cfgs else SNDConfig())
    if isinstance(records, str):
        records = rd.read_parquet(records)
    normalized = normalize_records(records, base).select_columns(
        [c for c in CLUSTER_SHUFFLE_COLUMNS
         if c not in ("tfv_ids", "tfv_w")]).materialize()
    idf = build_idf(normalized, base)
    vec = vectorize(normalized, idf, base, keep=CLUSTER_SHUFFLE_COLUMNS,
                    compact=True, ship_weights=False, sha_binary=True)
    return snd_vote_cluster(vec, cfgs=cfgs, min_votes=min_votes, idf=idf)


def snd_sgc_cluster(
    vectorized: "rd.Dataset",
    cfg: SNDConfig | None = None,
    tau_strong: float | None = None,
    idf=None,
    refine_rounds: int = 0,
    learned_rounds: int = 0,
) -> "rd.Dataset":
    """Graph-smoothed clustering tail (operator T8 analog — bond's
    per-name GNN, ``autotrain_bond.py:134-233``): the fused blocking
    shuffle of :func:`snd_cluster`, but inside each block one hop of
    parameter-free graph convolution (SGC) smooths the TF-IDF view over
    the strong-edge graph before the pair score — computed in Gram space
    (``pairs.make_block_sgc_clusters``), so nothing extra crosses the
    shuffle."""
    from whoiswho_ray.stages.pairs import make_block_sgc_clusters

    cfg = cfg or SNDConfig()
    idf_w_ref = ray.put(np.asarray(idf.idf)) if idf is not None else None

    def fused(g):
        w = _idf_w_cached(idf_w_ref) if idf_w_ref is not None else None
        return make_block_sgc_clusters(g, cfg, tau_strong=tau_strong, idf_w=w,
                                       refine_rounds=refine_rounds,
                                       learned_rounds=learned_rounds)

    return vectorized.repartition(shuffle_partitions()).groupby("block_key").map_groups(
        fused, batch_format="pyarrow")


def run_snd_sgc(
    records: "rd.Dataset | str",
    cfg: SNDConfig | None = None,
    tau_strong: float | None = None,
    refine_rounds: int = 0,
    learned_rounds: int = 0,
) -> "rd.Dataset":
    """records → graph-smoothed (SGC) clusters, the run_snd sibling
    (same compact/ship_weights/sha_binary shuffle encoding).
    ``refine_rounds`` > 0 adds bond's iterated pseudo-label refinement
    loop on top (see ``pairs.make_block_sgc_clusters``)."""
    from whoiswho_ray.stages.pairs import CLUSTER_SHUFFLE_COLUMNS

    cfg = cfg or SNDConfig()
    if isinstance(records, str):
        records = rd.read_parquet(records)
    normalized = normalize_records(records, cfg).select_columns(
        [c for c in CLUSTER_SHUFFLE_COLUMNS
         if c not in ("tfv_ids", "tfv_w")]).materialize()
    idf = build_idf(normalized, cfg)
    vec = vectorize(normalized, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS,
                    compact=True, ship_weights=False, sha_binary=True)
    return snd_sgc_cluster(vec, cfg, tau_strong=tau_strong, idf=idf,
                           refine_rounds=refine_rounds,
                           learned_rounds=learned_rounds)


def run_snd(

    records: "rd.Dataset | str",
    cfg: SNDConfig | None = None,
    out_dir: str | None = None,
    partition_resume: bool = False,
    n_edge_partitions: int = 16,
) -> "rd.Dataset":
    """Run the pipeline; returns the cluster Dataset
    ``(block_key, record_id, cluster_id, content_sha256)``.

    ``records``: a Dataset or a parquet path of the input_hint table.
    ``out_dir``: enables checkpoint/resume through a manifest.
    ``partition_resume``: computes the edges stage (the expensive blocked
    shuffle) one block-hash partition at a time, committing each partition
    to the manifest with its own rows/wall metrics — a killed run resumes
    *mid-shuffle*, re-doing only unfinished partitions. Costs one extra
    read of the (compact) normalized checkpoint per partition; off by
    default for lowest wall time.
    """
    cfg = cfg or SNDConfig()
    if isinstance(records, str):
        records = rd.read_parquet(records)

    if out_dir is None:
        # materialize once: two consumers (idf, vectorize) would otherwise
        # re-execute the normalize chain twice. Project to the columns the
        # SND tail reads BEFORE materializing — the raw
        # repo/path/commit/lang strings would otherwise sit in the object
        # store for the whole run (select after a task-based map fuses; it
        # is only select-after-actor-pool that forces an extra pass).
        # (The checkpointed path gets the same effect from its parquet
        # stage boundary; at 100 TB use out_dir so the normalized table
        # lives in parquet, not the object store.)
        from whoiswho_ray.stages.pairs import CLUSTER_SHUFFLE_COLUMNS

        # repartition to the shuffle width BEFORE the materialize: the
        # barrier is absorbed into the (mandatory) normalize pass, the
        # task-pool vectorize map preserves the block layout, and the
        # blocking sort consumes it directly — vs. a separate repartition
        # barrier between vectorize and the sort (VERDICT r4 #1)
        normalized = normalize_records(records, cfg).select_columns(
            [c for c in CLUSTER_SHUFFLE_COLUMNS
             if c not in ("tfv_ids", "tfv_w")]).repartition(
                 shuffle_partitions()).materialize()
        idf = build_idf(normalized, cfg)
        vec = vectorize(normalized, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS,
                        compact=True, ship_weights=False, sha_binary=True)
        return snd_cluster(normalized, vec, cfg, idf=idf, pre_partitioned=True)

    # the format version guards stage schemas: resuming with checkpoints
    # written by an older engine layout recomputes instead of mixing
    man = Manifest(out_dir, f"{cfg.config_hash()}-fmt3")

    def checkpointed(name: str, inputs: list[str], build,
                     partition_on: str | None = None,
                     metrics: dict | None = None) -> "rd.Dataset":
        if man.stage_done(name):
            return rd.read_parquet(man.stage_path(name))
        t0 = time.time()
        ds = build()
        tmp = man.begin_stage(name)
        if partition_on is not None:
            # resumable layout: one hive partition per key-hash bucket, so
            # a consumer (or a finer-grained resume) can skip finished
            # partitions instead of rereading one monolithic output
            def add_part(t: pa.Table) -> pa.Table:
                keys = t.column(partition_on).to_pylist()
                import zlib
                part = [zlib.crc32(k.encode()) % 64 for k in keys]
                return t.append_column("part", pa.array(part, pa.int32()))

            ds.map_batches(add_part, batch_format="pyarrow").write_parquet(
                tmp, partition_cols=["part"])
        else:
            ds.write_parquet(tmp)
        out = rd.read_parquet(tmp)
        rows = out.count()
        man.complete_stage(name, tmp, rows, time.time() - t0, inputs, metrics)
        return rd.read_parquet(man.stage_path(name))

    normalized = checkpointed("normalized", ["input"], lambda: normalize_records(records, cfg))

    idf_path = os.path.join(out_dir, "idf.npz")
    if man.stage_done("idf"):
        z = np.load(man.stage_path("idf"))
        idf = IdfModel(ids=z["ids"], idf=z["idf"], n_records=int(z["n_records"]),
                       n_tokens_total=int(z["n_tokens_total"]), truncated=bool(z["truncated"]))
    else:
        t0 = time.time()
        idf = build_idf(normalized, cfg)
        tmp = idf_path + ".tmp.npz"
        np.savez(tmp, ids=idf.ids, idf=idf.idf,
                 n_records=idf.n_records, n_tokens_total=idf.n_tokens_total,
                 truncated=idf.truncated)
        os.replace(tmp, idf_path)
        man.record_artifact("idf", idf_path, {
            "vocab": int(idf.ids.size), "n_records": idf.n_records,
            "n_tokens_total": idf.n_tokens_total, "truncated": idf.truncated,
            "wall_sec": round(time.time() - t0, 3),
        })

    # every blocking shuffle below runs at this width, recorded per stage
    partitions = shuffle_partitions()
    width = {"shuffle_partitions": partitions}
    # the edges are scored from, and the block metrics counted over, this
    # compact encoding (hot-block salting keys on tfv_ids in it, not tok_ids)
    edge_vec = vectorize(normalized, idf, cfg, keep=EDGE_SHUFFLE_COLUMNS, compact=True)

    if partition_resume:
        import zlib

        def part_of(key: str) -> int:
            return zlib.crc32(key.encode()) % n_edge_partitions

        for part in range(n_edge_partitions):
            name = f"edges/part={part}"
            if man.stage_done(name):
                continue
            t0 = time.time()

            def bucket_filter(t: pa.Table, part=part) -> pa.Table:
                keys = t.column("block_key").to_pylist()
                mask = [part_of(k) == part for k in keys]
                return t.filter(pa.array(mask))

            sub = normalized.map_batches(bucket_filter, batch_format="pyarrow",
                                         zero_copy_batch=True)
            part_edges = generate_scored_edges(
                vectorize(sub, idf, cfg, keep=EDGE_SHUFFLE_COLUMNS, compact=True), cfg,
                partitions)
            tmp = man.begin_stage(name.replace("/", "_"))
            part_edges.write_parquet(tmp)
            rows = rd.read_parquet(tmp).count()
            man.complete_stage(name, tmp, rows, time.time() - t0,
                               ["normalized", "idf"],
                               metrics={"partition": part, **width})
        part_sets = [rd.read_parquet(man.stage_path(f"edges/part={p}"))
                     for p in range(n_edge_partitions)]
        edges = part_sets[0].union(*part_sets[1:]) if len(part_sets) > 1 else part_sets[0]
    else:
        edges = checkpointed(
            "edges", ["normalized", "idf"],
            lambda: generate_scored_edges(edge_vec, cfg, partitions),
            metrics=width,
        )
    checkpointed(
        "block_metrics", ["normalized", "idf"],
        lambda: generate_block_metrics(edge_vec, cfg, partitions),
        metrics=width,
    )
    clusters = checkpointed(
        "clusters", ["normalized", "edges"],
        lambda: cluster_blocks(_node_rows(normalized).union(_edge_rows(edges)), cfg,
                               partitions),
        partition_on="block_key",
        metrics=width,
    )
    return clusters


def snd_summary(out_dir: str) -> dict:
    """Lineage/metrics summary from a checkpointed run."""
    import json
    with open(os.path.join(out_dir, "manifest.json")) as f:
        return json.load(f)


DEFAULT_PR_TAUS = (0.8, 1.0, 1.2, 1.4, 1.5, 1.6, 1.8, 2.0, 2.2)


def run_snd_pr_curve(
    records: "rd.Dataset | str",
    cfg: SNDConfig | None = None,
    taus: tuple[float, ...] = DEFAULT_PR_TAUS,
) -> pd.DataFrame:
    """Precision/recall/F1 of thresholded pairwise predictions against
    the default operating point's strong-edge components, swept over a
    threshold grid — the reference's pairwise evaluation
    (``SNDeval.py``) as a distributed operating-curve report.

    Same fused shape as :func:`run_snd` (normalize → idf → vectorize →
    ONE blocking groupby), but each block task emits T count rows
    (``pairs.make_block_pr_counts``) instead of clusters; the finish is
    a T-row grouped sum plus single int64 divisions for P/R/F1
    (``f1 = 2tp/(2tp+fp+fn)`` — one division, IEEE-identical in SQL).
    """
    import pandas as pd

    from whoiswho_ray.stages.agg import grouped_agg
    from whoiswho_ray.stages.pairs import CLUSTER_SHUFFLE_COLUMNS, make_block_pr_counts

    cfg = cfg or SNDConfig()
    if isinstance(records, str):
        records = rd.read_parquet(records)
    normalized = normalize_records(records, cfg).select_columns(
        [c for c in CLUSTER_SHUFFLE_COLUMNS
         if c not in ("tfv_ids", "tfv_w", "content_sha256")]).repartition(
             shuffle_partitions()).materialize()
    idf = build_idf(normalized, cfg)
    vec = vectorize(normalized, idf, cfg,
                    keep=[c for c in CLUSTER_SHUFFLE_COLUMNS
                          if c != "content_sha256"],
                    compact=True, ship_weights=False)
    idf_w_ref = ray.put(np.asarray(idf.idf))

    def fused(g):
        return make_block_pr_counts(g, cfg, taus,
                                    idf_w=_idf_w_cached(idf_w_ref))

    parts = vec.groupby("block_key").map_groups(fused, batch_format="pyarrow")
    tot = grouped_agg(parts, "tau_cents",
                      {"tp": ("tp", "sum"), "fp": ("fp", "sum"),
                       "truth_pairs": ("truth_pairs", "sum")})
    tot = tot.sort_values("tau_cents", ignore_index=True)
    tp = tot["tp"].to_numpy(np.int64)
    fp = tot["fp"].to_numpy(np.int64)
    truth = tot["truth_pairs"].to_numpy(np.int64)
    fn = truth - tp
    pred = tp + fp
    return pd.DataFrame({
        "tau_cents": tot["tau_cents"].astype(np.int64),
        "tp": tp, "fp": fp, "fn": fn,
        "precision": np.where(pred > 0, tp / np.maximum(pred, 1), 0.0),
        "recall": np.where(truth > 0, tp / np.maximum(truth, 1), 0.0),
        "f1": np.where(2 * tp + fp + fn > 0,
                       2 * tp / np.maximum(2 * tp + fp + fn, 1), 0.0),
    })
