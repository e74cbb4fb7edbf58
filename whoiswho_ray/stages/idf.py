"""Corpus-level IDF aggregation (operator A2 of SURVEY.md).

The reference ships precomputed ``token -> idf`` dicts consumed by the
hand-feature scorer (``/root/reference/whoiswho/character/
feature_process.py:28-44``). Here the dictionary is built by the engine
itself with the canonical pre-aggregated pattern: document frequencies are
partially combined inside the task that holds a block (one row per token
per block, not per record), and the driver merges those partial counts,
never raw token occurrences, with one sort + reduceat. The finished
vocabulary is a small driver-side artifact broadcast to the block
kernels via ``ray.put``.

Scale levers: ``min_df`` prunes the hapax tail (which dominates raw vocab
size), ``max_vocab`` caps the artifact by keeping the highest-df tokens —
both logged, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

import ray
import ray.data

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.agg import collect_blocks


@dataclass
class IdfModel:
    """Sorted token-id vocabulary with idf weights — the broadcastable
    artifact (analog of ``saved/paper-tf-idf/*.json``, reference
    ``whoiswho/config.py:48``)."""

    ids: np.ndarray        # int64, sorted
    idf: np.ndarray        # float32, aligned with ids
    n_records: int
    n_tokens_total: int    # distinct tokens before min_df/max_vocab pruning
    truncated: bool

    def lookup(self, token_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ids∩vocab sorted, idf weights) for one record's sorted ids."""
        pos = np.searchsorted(self.ids, token_ids)
        pos[pos == self.ids.size] = 0 if self.ids.size else 0
        hit = self.ids.size > 0
        mask = (self.ids[pos] == token_ids) if hit else np.zeros(token_ids.size, bool)
        return token_ids[mask], self.idf[pos[mask]]


def _partial_df(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: distinct-token document frequencies."""
    flat = batch.column("tok_ids")
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    values = flat.flatten().to_numpy(zero_copy_only=False)
    n_rows = batch.num_rows
    if values.size == 0:
        # still emit the record-count carrier row: a batch of all-empty
        # documents must contribute to n_records (df=0 row is pruned by
        # the min_df>=1 floor after the merge, never enters the vocab)
        return pa.table({"tok_id": pa.array([0], pa.int64()),
                         "df": pa.array([0], pa.int64()),
                         "n_rec": pa.array([n_rows], pa.int64())})
    ids, counts = np.unique(values, return_counts=True)  # tok_ids unique/row ⇒ df
    n_rec = np.zeros(ids.size, dtype=np.int64)
    n_rec[0] = n_rows  # carry the record count once per batch
    return pa.table({"tok_id": ids, "df": counts, "n_rec": n_rec})


def _idf_from_partials(parts: list[pa.Table], cfg: SNDConfig) -> IdfModel:
    """Partial-frequency tables (:func:`_partial_df` rows, from any block
    layout) → the IdfModel: df summed per token and the record-count
    carriers summed, with one sort + reduceat. :func:`build_idf` and the
    checkpointed normalize write (``pipelines.snd``) both end here."""
    ids = df = np.zeros(0, dtype=np.int64)
    n_records = 0
    if parts:
        full = pa.concat_tables(parts)
        ids = full.column("tok_id").to_numpy(zero_copy_only=False).astype(np.int64)
        df = full.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        n_records = int(full.column("n_rec").to_numpy(zero_copy_only=False).sum())
    if ids.size:
        order = np.argsort(ids, kind="stable")
        ids, df = ids[order], df[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        ids, df = ids[starts], np.add.reduceat(df, starts)
    return _finish_idf(ids, df, n_records, cfg)


@ray.remote
def _partial_task(block: pa.Table) -> pa.Table | None:
    """Raw-task partial: one block's document frequencies."""
    # repartition() pads tiny inputs with 0-row blocks that carry an EMPTY
    # schema — they hold no records, so skipping them is exact
    return _partial_df(block.select(["tok_ids"])) if "tok_ids" in block.schema.names else None


def build_idf(normalized: "ray.data.Dataset", cfg: SNDConfig | None = None) -> IdfModel:
    """normalized Dataset → IdfModel (small, driver-side).

    One raw Ray task per materialized block computes its vocab-bounded
    partial frequencies; the driver merges the partials with one sorted
    reduce (:func:`_idf_from_partials`). On an already-materialized input
    this touches the object-store blocks directly — no second Dataset
    execution (whose plan startup + full re-scan was a fixed multi-second
    cost on the flagship headline, VERDICT r4 #1).
    """
    cfg = cfg or SNDConfig()
    parts = ray.get([_partial_task.remote(r) for r in collect_blocks(normalized, fetch=False)])
    return _idf_from_partials([p for p in parts if p is not None], cfg)


def _finish_idf(ids: np.ndarray, df: np.ndarray, n_records: int,
                cfg: SNDConfig) -> IdfModel:
    """Merged (tok_id, df) → pruned/capped IdfModel. ``n_tokens_total`` does not
    count the record-count carrier rows (df 0) of all-empty batches, so it
    is the same for every block layout."""
    n_total = int(np.count_nonzero(df))

    keep = df >= max(int(cfg.min_df), 1)  # floor 1 also drops the empty-batch carrier row
    ids, df = ids[keep], df[keep]
    truncated = False
    if ids.size > cfg.max_vocab:
        order = np.argsort(-df, kind="stable")[: cfg.max_vocab]
        ids, df = ids[order], df[order]
        truncated = True
    order = np.argsort(ids)
    ids, df = ids[order], df[order]
    idf = np.log1p(n_records / np.maximum(df, 1)).astype(np.float32)
    return IdfModel(ids=ids, idf=idf, n_records=n_records,
                    n_tokens_total=n_total, truncated=truncated)
