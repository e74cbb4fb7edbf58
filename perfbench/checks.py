"""Output checks for one SND pass.

A pass's cluster table ``(block_key, record_id, cluster_id,
content_sha256)`` is checked against the generated input: every input
record appears exactly once, and its ``content_sha256`` is the sha256 of
its content (the BASELINE.json per-row invariant). Pairwise F1 against the
planted truth is computed with the repo's own ``evaluation`` module.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from whoiswho_ray.evaluation import pairwise_f1_frames

CLUSTER_COLUMNS = ["block_key", "record_id", "cluster_id", "content_sha256"]
MIN_F1 = 0.99


def collect(ds) -> pa.Table:
    """Execute a Dataset to the end and gather its rows in this process
    (blocks with no rows may carry no schema, so they are dropped)."""
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table(
        {c: pa.array([], pa.string()) for c in CLUSTER_COLUMNS})


def canonical(table: pa.Table) -> pa.Table:
    """Cluster columns only, sorted by record_id, one chunk — the form two
    passes are compared in (a checkpointed run adds a hive ``part``
    column and writes rows in another order)."""
    t = table.select(CLUSTER_COLUMNS)
    t = t.cast(pa.schema([(c, pa.string()) for c in CLUSTER_COLUMNS]))
    return t.sort_by("record_id").combine_chunks()


def expected(truth: pa.Table, sha256: pa.Array) -> pa.Table:
    """(record_id, content_sha256) of the input, sorted by record_id."""
    return pa.table({"record_id": truth.column("record_id"),
                     "content_sha256": sha256}).sort_by("record_id")


def check_rows(out: pa.Table, want: pa.Table) -> list[str]:
    """Exactly-once coverage and the per-row sha256 invariant; ``out`` and
    ``want`` are both sorted by record_id. Returns failure messages."""
    errors = []
    if out.num_rows != want.num_rows:
        errors.append(f"{out.num_rows} output rows for {want.num_rows} input records")
        return errors
    if not out.column("record_id").equals(want.column("record_id")):
        errors.append("output record_ids differ from the input's (missing or repeated records)")
        return errors
    bad = pc.sum(pc.not_equal(out.column("content_sha256"),
                              want.column("content_sha256"))).as_py() or 0
    if bad:
        errors.append(f"{bad} rows whose content_sha256 is not sha256(content)")
    return errors


def pairwise_f1(out: pa.Table, truth: pa.Table) -> float:
    """Mean per-block pairwise F1 of the clusters against planted entities."""
    res = pairwise_f1_frames(
        out.select(["block_key", "record_id", "cluster_id"]).to_pandas(),
        truth.select(["record_id", "entity_id"]).to_pandas())
    return float(res.loc[res["block_key"] == "__mean__", "f1"].iloc[0])


def cluster_counts(out: pa.Table) -> tuple[int, int]:
    """(clusters, singletons) of a cluster table."""
    sizes = pc.value_counts(out.column("cluster_id")).field("counts")
    return len(sizes), int(pc.sum(pc.equal(sizes, 1)).as_py() or 0)
