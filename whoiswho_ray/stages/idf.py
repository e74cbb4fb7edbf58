"""Corpus-level IDF aggregation (operator A2 of SURVEY.md).

The reference ships precomputed ``token -> idf`` dicts consumed by the
hand-feature scorer (``/root/reference/whoiswho/character/
feature_process.py:28-44``). Here the dictionary is built by the engine
itself with the canonical pre-aggregated pattern: document frequencies are
partially combined *inside* ``map_batches`` (one row per token per batch,
not per record) so the ``groupby(token)`` shuffle moves partial counts, not
raw token occurrences. The finished vocabulary is a small driver-side
artifact broadcast to scorer actors via ``ray.put``.

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


def _merge_partials(batch: pa.Table) -> pa.Table:
    """Combine partial (tok_id, df, n_rec) rows: sum df per token, sum the
    record-count carriers — one sort + reduceat per (large) batch."""
    ids = batch.column("tok_id").to_numpy(zero_copy_only=False).astype(np.int64)
    df = batch.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
    n_rec = int(batch.column("n_rec").to_numpy(zero_copy_only=False).sum())
    if ids.size == 0:
        return pa.table({"tok_id": pa.array([0], pa.int64()),
                         "df": pa.array([0], pa.int64()),
                         "n_rec": pa.array([n_rec], pa.int64())})
    order = np.argsort(ids, kind="stable")
    sids, sdf = ids[order], df[order]
    starts = np.flatnonzero(np.r_[True, sids[1:] != sids[:-1]])
    out_ids = sids[starts]
    out_df = np.add.reduceat(sdf, starts)
    out_n = np.zeros(out_ids.size, dtype=np.int64)
    out_n[0] = n_rec
    return pa.table({"tok_id": out_ids, "df": out_df, "n_rec": out_n})


@ray.remote
def _partial_task(*blocks: pa.Table) -> pa.Table:
    """Raw-task partial: per-block document frequencies, pre-merged."""
    # repartition() pads tiny inputs with 0-row blocks that carry an EMPTY
    # schema — they hold no records, so skipping them is exact
    parts = [_partial_df(b.select(["tok_ids"]))
             for b in blocks if "tok_ids" in b.schema.names]
    if not parts:
        parts = [_partial_df(pa.table({"tok_ids": pa.array([], pa.list_(pa.int64()))}))]
    return _merge_partials(parts[0] if len(parts) == 1 else pa.concat_tables(parts))


def build_idf(
    normalized: "ray.data.Dataset",
    cfg: SNDConfig | None = None,
    combine: str = "tasks",
) -> IdfModel:
    """normalized Dataset → IdfModel (small, driver-side).

    ``combine='tasks'`` (default): one raw Ray task per materialized
    block computes its vocab-bounded partial frequencies; the driver
    merges the partials with one sorted reduce. On an
    already-materialized input this touches the object-store blocks
    directly — no second Dataset execution (whose plan startup + full
    re-scan was a fixed multi-second cost on the flagship headline,
    VERDICT r4 #1).
    ``combine='driver'``: the same reduce fed by a ``map_batches``
    Dataset pass (for never-materialized inputs where Dataset-level
    fusion with upstream stages matters).
    ``combine='shuffle'``: the ``groupby(token)`` aggregate path for
    corpora whose per-batch vocab union exceeds driver memory.
    """
    cfg = cfg or SNDConfig()
    if combine == "tasks":
        parts = ray.get([_partial_task.remote(r)
                         for r in collect_blocks(normalized, fetch=False)])
        full = pa.concat_tables(parts) if parts else _partial_df(
            pa.table({"tok_ids": pa.array([], pa.list_(pa.int64()))}))
        raw_ids = full.column("tok_id").to_numpy(zero_copy_only=False).astype(np.int64)
        raw_df = full.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        n_records = int(full.column("n_rec").to_numpy(zero_copy_only=False).sum())
        order = np.argsort(raw_ids, kind="stable")
        sids, sdf = raw_ids[order], raw_df[order]
        if sids.size:
            starts = np.flatnonzero(np.r_[True, sids[1:] != sids[:-1]])
            ids = sids[starts]
            df = np.add.reduceat(sdf, starts)
        else:
            ids, df = sids, sdf
        return _finish_idf(ids, df, n_records, cfg)
    partial = normalized.select_columns(["tok_ids"]).map_batches(
        _partial_df, batch_format="pyarrow", zero_copy_batch=True
    )
    # second-level tree combine: merge many per-batch partials inside big
    # map tasks so the final reduce sees O(vocab) rows per combine task,
    # not O(vocab × batches). Without this the driver reduce GROWS with
    # parallelism (more blocks → more partials) and anti-scales.
    partial = partial.map_batches(_merge_partials, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=4_000_000)
    if combine == "shuffle":
        from ray.data.aggregate import Sum

        agg = partial.groupby("tok_id").aggregate(
            Sum("df", alias_name="df"), Sum("n_rec", alias_name="n_rec")
        )
        full = pa.concat_tables(collect_blocks(agg))
        ids = full.column("tok_id").to_numpy(zero_copy_only=False).astype(np.int64)
        df = full.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        n_records = int(full.column("n_rec").to_numpy(zero_copy_only=False).sum())
    else:
        full = pa.concat_tables(collect_blocks(partial))
        raw_ids = full.column("tok_id").to_numpy(zero_copy_only=False).astype(np.int64)
        raw_df = full.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        n_records = int(full.column("n_rec").to_numpy(zero_copy_only=False).sum())
        order = np.argsort(raw_ids, kind="stable")
        sids = raw_ids[order]
        sdf = raw_df[order]
        if sids.size:
            starts = np.flatnonzero(np.r_[True, sids[1:] != sids[:-1]])
            ids = sids[starts]
            df = np.add.reduceat(sdf, starts)
        else:
            ids, df = sids, sdf
    return _finish_idf(ids, df, n_records, cfg)


def _finish_idf(ids: np.ndarray, df: np.ndarray, n_records: int,
                cfg: SNDConfig) -> IdfModel:
    """Merged (tok_id, df) → pruned/capped IdfModel (shared tail of all
    combine strategies; identical numerics)."""
    n_total = ids.size

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
