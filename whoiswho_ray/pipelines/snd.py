"""The flagship SND pipeline: blocking → pairwise scoring → transitive clustering.

The Ray-Data-native re-expression of the reference's SND lifecycle
(``/root/reference/whoiswho/training/AutoTrainSND.py:208-257`` plus its
preprocessing, SURVEY.md §3.1), as a streaming Dataset pipeline:

    read_parquet(records)
      → normalize            map_batches, zero-copy Arrow   (stage "normalized")
      → build_idf            per-block partial df, one merge (artifact "idf")
      → vectorize            task-pool map, broadcast IdfModel
      → score + cluster      ONE sort(block_key), then the fused block
                             kernel once per sorted partition (the
                             blocking shuffle)

No component spans a block, so the transitive closure runs inside the
blocking task and needs no communication round of its own. The sort puts
every block whole into one partition, so the kernel decodes, scores and
clusters a partition's blocks in one call (``pairs._score_partition``)
rather than paying a Python call per block. The streaming
front end (normalize → idf → vectorize in the compact shuffle encoding)
is written once, :func:`prepare`, and every pair consumer — the
clusters, the vote and SGC variants, the PR curve, the trainer's pair
features, IND's profile scores (``pipelines/ind``, with the claimed
profile as the block key) and the ``__ray_entry__`` edge and relational
queries, and RND's profiles and assignment (``pipelines/rnd``) — runs
its partition kernel through the one blocking pass,
:func:`_blocked`, which is executed once and returned materialized: Ray
2.49 cannot infer the schema of a map after a sort, so the first
``schema``/``to_arrow_refs``/``join`` on a lazy result would re-run
vectorize → sort → block kernels under ``limit(1)``.

With ``out_dir`` set, every stage is written by the Ray task that
computes its rows (:class:`_StageSink`, a ``ray.data.Datasink``) into a
temp dir that the driver then commits through an atomic manifest (see
``state/manifest.py``); a rerun resumes from the last completed stage.
A cold run is two Ray Data executions: normalize → write "normalized",
whose write tasks also return their idf partials (artifact "idf"), then
vectorize → sort(block_key) → write, whose sort-partition tasks run
``pairs.make_block_stages`` and write the kept edges, one metrics row
per block and the clusters as the stages "edges", "block_metrics" and
"clusters".

Every cluster row carries ``content_sha256`` so the BASELINE.json per-row
invariant (output sha256 == input sha256 per record) is checkable without
re-reading content.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data import Datasink
from ray.data.block import BlockAccessor

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.idf import IdfModel, _idf_from_partials, _partial_df, build_idf
from whoiswho_ray.stages.joins import _cached_get
from whoiswho_ray.stages.normalize import normalize_records
from whoiswho_ray.stages.pairs import (BLOCK_STAGES, CLUSTER_SHUFFLE_COLUMNS,
                                       block_stage_schemas, make_block_clusters,
                                       make_block_stages, shuffle_partitions)
from whoiswho_ray.stages.scoring import vectorize
from whoiswho_ray.state.manifest import Manifest


def _blocked(vectorized: "rd.Dataset", kernel, idf=None,
             partitions: int | None = None) -> "rd.Dataset":
    """The blocking shuffle: one ``sort("block_key")``, then
    ``kernel(partition, idf_w)`` once per sorted partition, after a
    repartition to ``partitions`` (None: the caller already
    partitioned). The sort is the one ``map_groups`` runs: every block
    lands whole in one partition, and the partition arrives sorted by
    ``block_key``, so a kernel decodes, scores and clusters all of its
    blocks at once (``pairs._score_partition``) instead of paying a
    per-block call.

    ``idf``: required when ``vectorized`` was built with
    ship_weights=False — the kernel re-derives tfv_w from the broadcast
    idf array instead of reading it off the shuffle. The array ships
    through the object store ONCE (ray.put) and each worker process
    fetches it once (plasma-local after the first get). Returned
    materialized, so no schema fetch re-runs the kernels (module doc)."""
    idf_w_ref = ray.put(np.asarray(idf.idf)) if idf is not None else None

    def fused(part):
        w = _cached_get(idf_w_ref) if idf_w_ref is not None else None
        return kernel(part, w)

    if partitions:
        vectorized = vectorized.repartition(partitions)
    return vectorized.sort("block_key").map_batches(
        fused, batch_size=None, batch_format="pyarrow").materialize()


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
    materialize too, so the barrier is absorbed into the (mandatory)
    normalize pass and no repartition barrier sits between vectorize and
    the sort (VERDICT r4 #1). The vectorize map does NOT keep that block
    layout: its ``batch_size=4096`` merges small blocks, so at 1 CPU the
    2 repartitioned blocks of a few thousand records reach the sort as
    one, and the sort and the kernel run on one partition.
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
    normalized/vectorized records (RND clusters its known records here,
    on the full encoding); only ``vectorized`` is read.

    Scoring and clustering run inside the one blocking sort
    (``pairs.make_block_clusters``) — no edge shuffle, no node/edge union,
    no second sort. ``pre_partitioned``: the caller repartitioned before
    materializing the normalized table (run_snd does), so the task-pool
    vectorize map feeds the sort directly — one fewer barrier. Returns
    the pass executed (:func:`_blocked`): no schema fetch re-runs it."""
    cfg = cfg or SNDConfig()
    return _blocked(vectorized, lambda g, w: make_block_clusters(g, cfg, idf_w=w), idf,
                    None if pre_partitioned else shuffle_partitions())


class _StageSink(Datasink):
    """Writes checkpointed stages from the write tasks that compute their
    rows. ``compute(block)`` returns ``({stage: table}, value)``; each
    table goes into its stage's ``Manifest.begin_stage`` dir (``dirs``)
    as ``<task_idx>-<block index>.parquet``, so a retried task overwrites
    its own files, and every value comes back in :attr:`returns`. The
    driver commits the dirs; a failed write removes them."""

    def __init__(self, dirs: dict[str, str], compute):
        self.dirs, self.compute, self.returns = dirs, compute, []

    def write(self, blocks, ctx) -> list:
        values = []
        for i, block in enumerate(blocks):
            block = BlockAccessor.for_block(block).to_arrow()
            if not block.num_rows:  # repartition pads with schema-less 0-row blocks
                continue
            tables, value = self.compute(block)
            for stage, d in self.dirs.items():
                if tables[stage].num_rows:
                    pq.write_table(tables[stage],
                                   os.path.join(d, f"{ctx.task_idx:05d}-{i:04d}.parquet"))
            values.append(value)
        return values

    def on_write_complete(self, write_result) -> None:
        self.returns = [v for vs in write_result.write_returns for v in vs]

    def on_write_failed(self, error: Exception) -> None:
        for d in self.dirs.values():
            shutil.rmtree(d, ignore_errors=True)


def _normalized_sink(tmp: str) -> _StageSink:
    """Writes the ``normalized`` stage; each block's value is its idf
    partial (``idf._partial_df``), so a cold run builds the idf without
    reading the stage back."""
    return _StageSink({"normalized": tmp},
                      lambda b: ({"normalized": b}, _partial_df(b.select(["tok_ids"]))))


def _block_stage_sink(dirs: dict[str, str], cfg: SNDConfig, idf_w_ref) -> _StageSink:
    """Writes the BLOCK_STAGES named in ``dirs`` from each key-sorted
    partition of the blocking sort (``pairs.make_block_stages``), with
    the idf weights broadcast as :func:`_blocked` does."""
    return _StageSink(dirs, lambda b: (
        make_block_stages(b, cfg, idf_w=_cached_get(idf_w_ref)), None))


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

    With ``out_dir``, the stages are written by the tasks that compute
    them (module doc): a cold run executes the normalize write and one
    blocking pass (one per bucket under ``partition_resume``), and the
    idf comes from the normalize write tasks' partials. A resume that
    finds ``normalized`` but not the idf reads the stage back for it.
    A failed write removes its stage temp dirs and commits nothing.
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

    partials = None  # the normalize write tasks' idf partials, on a cold run
    if not man.stage_done("normalized"):
        t0 = time.time()
        sink = _normalized_sink(man.begin_stage("normalized"))
        normalize_records(records, cfg).write_datasink(sink)
        tmp = sink.dirs["normalized"]
        man.complete_stage("normalized", tmp, man.parquet_rows(tmp), time.time() - t0,
                           ["input"])
        partials = sink.returns
    normalized = rd.read_parquet(man.stage_path("normalized"))

    idf_path = os.path.join(out_dir, "idf.npz")
    if man.stage_done("idf"):
        z = np.load(man.stage_path("idf"))
        idf = IdfModel(ids=z["ids"], idf=z["idf"], n_records=int(z["n_records"]),
                       n_tokens_total=int(z["n_tokens_total"]), truncated=bool(z["truncated"]))
    else:
        t0 = time.time()
        idf = (_idf_from_partials(partials, cfg) if partials is not None
               else build_idf(normalized, cfg))
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
    idf_w_ref = ray.put(np.asarray(idf.idf))

    def block_pass(recs: "rd.Dataset", suffix: str = "",
                   metrics: dict | None = None) -> "rd.Dataset":
        """One blocking pass over ``recs`` whose sort-partition tasks
        write each of BLOCK_STAGES (name + ``suffix``) not yet done; the
        driver then commits them in order. The pass's wall counts on the
        first stage committed, each later stage counts only its commit."""
        metrics = {**(metrics or {}), "shuffle_partitions": partitions}
        todo = [s for s in BLOCK_STAGES if not man.stage_done(s + suffix)]
        t0 = time.time()
        if todo:
            sink = _block_stage_sink({s: man.begin_stage(s + suffix) for s in todo},
                                     cfg, idf_w_ref)
            vectorize(recs, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS, compact=True,
                      ship_weights=False, sha_binary=True).repartition(
                          partitions).sort("block_key").write_datasink(sink)
        for stage in todo:
            tmp = sink.dirs[stage]
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
    sort), but each partition task emits T count rows
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
