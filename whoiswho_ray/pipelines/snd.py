"""The flagship SND pipeline: blocking → pairwise scoring → transitive clustering.

The Ray-Data-native re-expression of the reference's SND lifecycle
(``/root/reference/whoiswho/training/AutoTrainSND.py:208-257`` plus its
preprocessing, SURVEY.md §3.1), as a streaming Dataset pipeline:

    read_parquet(records)
      → normalize            map_batches, zero-copy Arrow   (stage "normalized")
      → build_idf            pre-aggregated groupby(token)  (artifact "idf")
      → vectorize            task-pool map, broadcast IdfModel
      → score + cluster      ONE groupby(block_key).map_groups, the fused
                             block kernel (the blocking shuffle)

No component spans a block, so the transitive closure runs inside the
blocking task and needs no communication round of its own. The streaming
front end (normalize → idf → vectorize in the compact shuffle encoding)
is written once, :func:`prepare`, and every pair consumer — the
clusters, the vote and SGC variants, the PR curve, the trainer's pair
features and the ``__ray_entry__`` edge and relational queries — runs
its block kernel through the one blocking pass, :func:`_blocked`. With
``out_dir`` set, the normalized table and the idf are checkpointed, and
one pass of the blocking shuffle (``pairs.make_block_stages``) yields the
kept edges, one metrics row per block and the clusters, committed as the
stages "edges", "block_metrics" and "clusters" through an atomic manifest
(see ``state/manifest.py``); a rerun resumes from the last completed
stage. Either way the blocking pass is executed once and returned
materialized: Ray 2.49 cannot infer a ``map_groups`` schema, so the first
``schema``/``to_arrow_refs``/``join`` on a lazy result would re-run
vectorize → sort → block kernels under ``limit(1)``.

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
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.idf import IdfModel, build_idf
from whoiswho_ray.stages.normalize import normalize_records
from whoiswho_ray.stages.pairs import (BLOCK_STAGES, CLUSTER_SHUFFLE_COLUMNS,
                                       block_stage_schemas, make_block_clusters,
                                       make_block_stages, shuffle_partitions)
from whoiswho_ray.stages.scoring import vectorize
from whoiswho_ray.state.manifest import Manifest


def _blocked(vectorized: "rd.Dataset", kernel, idf=None,
             partitions: int | None = None) -> "rd.Dataset":
    """The blocking shuffle: ``kernel(group, idf_w)`` on every block of one
    ``groupby("block_key").map_groups``, after a repartition to
    ``partitions`` (None: the caller already partitioned).

    ``idf``: required when ``vectorized`` was built with
    ship_weights=False — the block kernel re-derives tfv_w from the
    broadcast idf array instead of reading it off the shuffle. The array
    ships through the object store ONCE (ray.put) and each worker
    process fetches it once (plasma-local after the first get). Returned
    materialized, so no schema fetch re-runs the kernels (module doc)."""
    idf_w_ref = ray.put(np.asarray(idf.idf)) if idf is not None else None

    def fused(g):
        w = _idf_w_cached(idf_w_ref) if idf_w_ref is not None else None
        return kernel(g, w)

    if partitions:
        vectorized = vectorized.repartition(partitions)
    return vectorized.groupby("block_key").map_groups(
        fused, batch_format="pyarrow").materialize()


def prepare(records: "rd.Dataset | str", cfg: SNDConfig):
    """The streaming front end every SND pair consumer shares: records →
    ``(normalized, idf, vectorized)`` in the compact shuffle encoding
    (``vectorize(compact=True, ship_weights=False, sha_binary=True)``),
    ready for :func:`_blocked` with ``partitions=None``.

    The normalized table is materialized once, because two consumers
    (idf, vectorize) would otherwise re-execute the normalize chain. It
    is projected to the columns the SND tail reads BEFORE materializing —
    the raw repo/path/commit/lang strings would otherwise sit in the
    object store for the whole run (a select after a task-based map
    fuses). It is repartitioned to the shuffle width BEFORE the
    materialize too: the barrier is absorbed into the (mandatory)
    normalize pass, the task-pool vectorize map preserves the block
    layout, and the blocking sort consumes it directly — vs. a separate
    repartition barrier between vectorize and the sort (VERDICT r4 #1).
    At 100 TB use ``run_snd(out_dir=)`` so the normalized table lives in
    parquet, not the object store."""
    if isinstance(records, str):
        records = rd.read_parquet(records)
    normalized = normalize_records(records, cfg).select_columns(
        [c for c in CLUSTER_SHUFFLE_COLUMNS
         if c not in ("tfv_ids", "tfv_w")]).repartition(
             shuffle_partitions()).materialize()
    idf = build_idf(normalized, cfg)
    vec = vectorize(normalized, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS,
                    compact=True, ship_weights=False, sha_binary=True)
    return normalized, idf, vec


def snd_cluster(
    normalized: "rd.Dataset",
    vectorized: "rd.Dataset",
    cfg: SNDConfig | None = None,
    idf=None,
    pre_partitioned: bool = False,
) -> "rd.Dataset":
    """Clustering tail of the pipeline for callers that already hold the
    normalized/vectorized records (e.g. the RND pipeline, which reuses
    them for profile building); only ``vectorized`` is read.

    Scoring and clustering run inside the one blocking groupby
    (``pairs.make_block_clusters``) — no edge shuffle, no node/edge union,
    no second sort. ``pre_partitioned``: the caller repartitioned before
    materializing the normalized table (run_snd does), so the task-pool
    vectorize map feeds the sort directly — one fewer barrier. Returns
    the pass executed (:func:`_blocked`): no schema fetch re-runs it."""
    cfg = cfg or SNDConfig()
    return _blocked(vectorized, lambda g, w: make_block_clusters(g, cfg, idf_w=w), idf,
                    None if pre_partitioned else shuffle_partitions())


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


def run_snd_vote(
    records: "rd.Dataset | str",
    cfgs=None,
    min_votes: int | None = None,
) -> "rd.Dataset":
    """records → majority-voted ensemble clusters (operator A9 full
    analog), the run_snd sibling: the same front end (:func:`prepare`)
    and blocking shuffle, but inside each block every candidate pair is
    voted on by a grid of weight configs (``pairs.default_vote_configs``)
    and clusters are components over majority-voted edges — bond's
    threshold-grid ensemble (``autotrain_bond_ensemble.py:241-260``)
    re-expressed for the weighted-score kernel."""
    from whoiswho_ray.stages.pairs import default_vote_configs, make_block_vote_clusters

    cfgs = cfgs or default_vote_configs()
    mv = (len(cfgs) // 2 + 1) if min_votes is None else min_votes
    _, idf, vec = prepare(records, cfgs[0])
    return _blocked(vec, lambda g, w: make_block_vote_clusters(g, cfgs, mv, idf_w=w), idf)


def run_snd_sgc(
    records: "rd.Dataset | str",
    cfg: SNDConfig | None = None,
    tau_strong: float | None = None,
    refine_rounds: int = 0,
    learned_rounds: int = 0,
) -> "rd.Dataset":
    """records → graph-smoothed (SGC) clusters (operator T8 analog —
    bond's per-name GNN, ``autotrain_bond.py:134-233``), the run_snd
    sibling: the same front end (:func:`prepare`) and blocking shuffle,
    but inside each block one hop of parameter-free graph convolution
    smooths the TF-IDF view over the strong-edge graph before the pair
    score — computed in Gram space (``pairs.make_block_sgc_clusters``),
    so nothing extra crosses the shuffle. ``refine_rounds`` > 0 adds
    bond's iterated pseudo-label refinement loop on top,
    ``learned_rounds`` its learned half."""
    from whoiswho_ray.stages.pairs import make_block_sgc_clusters

    cfg = cfg or SNDConfig()
    _, idf, vec = prepare(records, cfg)

    def kernel(g, w):
        return make_block_sgc_clusters(g, cfg, tau_strong=tau_strong, idf_w=w,
                                       refine_rounds=refine_rounds,
                                       learned_rounds=learned_rounds)

    return _blocked(vec, kernel, idf)


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
    ``partition_resume``: runs the blocking pass one block-hash bucket at
    a time (``n_edge_partitions`` buckets), committing each bucket's
    ``edges/part=k``, ``block_metrics/part=k`` and ``clusters/part=k``
    stages with their own rows/wall metrics — a killed run resumes
    *mid-shuffle*, re-doing only unfinished buckets. Costs one extra
    read of the normalized checkpoint per bucket; off by default for
    lowest wall time.
    """
    cfg = cfg or SNDConfig()
    if isinstance(records, str):
        records = rd.read_parquet(records)
    if out_dir is None:
        normalized, idf, vec = prepare(records, cfg)
        return snd_cluster(normalized, vec, cfg, idf=idf, pre_partitioned=True)

    # the format version guards stage schemas and bucket assignment:
    # resuming with checkpoints written by an older engine layout
    # recomputes instead of mixing
    man = Manifest(out_dir, f"{cfg.config_hash()}-fmt4")

    if not man.stage_done("normalized"):
        t0 = time.time()
        tmp = man.begin_stage("normalized")
        normalize_records(records, cfg).write_parquet(tmp)
        man.complete_stage("normalized", tmp, man.parquet_rows(tmp), time.time() - t0,
                           ["input"])
    normalized = rd.read_parquet(man.stage_path("normalized"))

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

    # every blocking pass runs at this width, recorded per stage
    partitions = shuffle_partitions()
    schemas = block_stage_schemas(cfg)

    def block_pass(recs: "rd.Dataset", suffix: str = "",
                   metrics: dict | None = None) -> "rd.Dataset":
        """One blocking pass over ``recs``; commits each of BLOCK_STAGES
        (name + ``suffix``) not yet done. The pass's wall counts on the
        first stage it commits, each later stage counts only its write."""
        metrics = {**(metrics or {}), "shuffle_partitions": partitions}
        todo = [s for s in BLOCK_STAGES if not man.stage_done(s + suffix)]
        t0 = time.time()
        if todo:
            vec = vectorize(recs, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS,
                            compact=True, ship_weights=False, sha_binary=True)
            tagged = _blocked(vec, lambda g, w: make_block_stages(g, cfg, idf_w=w),
                              idf, partitions)
        for stage in todo:
            kind, cols = BLOCK_STAGES.index(stage), schemas[stage].names
            tmp = man.begin_stage(stage + suffix)
            tagged.map_batches(
                lambda t, kind=kind, cols=cols: t.filter(pc.equal(t["kind"], kind)).select(cols),
                batch_format="pyarrow", batch_size=None).write_parquet(tmp)
            rows = man.parquet_rows(tmp)
            if not rows:  # keep an empty stage readable, with its schema
                pq.write_table(schemas[stage].empty_table(), os.path.join(tmp, "empty.parquet"))
            man.complete_stage(stage + suffix, tmp, rows, time.time() - t0,
                               ["normalized", "idf"], metrics)
            t0 = time.time()
        return rd.read_parquet(man.stage_path("clusters" + suffix))

    if not partition_resume:
        return block_pass(normalized)

    from whoiswho_ray.stages.joins import _key_hash

    parts = []
    for part in range(n_edge_partitions):
        def bucket(t: pa.Table, part=part) -> pa.Table:
            b = _key_hash(t, ["block_key"]) % np.uint64(n_edge_partitions)
            return t.filter(pa.array(b == part))

        sub = normalized.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
        parts.append(block_pass(sub, f"/part={part}", {"partition": part}))
    return parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]


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

    Same fused shape as :func:`run_snd` (:func:`prepare` → ONE blocking
    groupby), but each block task emits T count rows
    (``pairs.make_block_pr_counts``) instead of clusters; the finish is
    a T-row grouped sum plus single int64 divisions for P/R/F1
    (``f1 = 2tp/(2tp+fp+fn)`` — one division, IEEE-identical in SQL).
    """
    from whoiswho_ray.stages.agg import grouped_agg
    from whoiswho_ray.stages.pairs import make_block_pr_counts

    cfg = cfg or SNDConfig()
    _, idf, vec = prepare(records, cfg)
    parts = _blocked(vec, lambda g, w: make_block_pr_counts(g, cfg, taus, idf_w=w), idf)
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
