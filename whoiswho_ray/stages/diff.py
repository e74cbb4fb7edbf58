"""Snapshot diff — keyed reconciliation of two table versions.

The incremental-pipeline primitive: given snapshot A (yesterday) and
snapshot B (today) keyed by a primary key, classify every key as
``added`` (only in B), ``removed`` (only in A) or ``changed`` (in both,
any payload column differs under IS DISTINCT FROM semantics — NULLs
compare equal to NULLs). Unchanged keys are dropped, so the output is
delta-sized, not snapshot-sized.

One key-hash co-group of BOTH snapshots (``joins.cogroup``: each bucket
holds each side's own columns, so int64 payloads survive the shuffle
exactly), then a vectorized full-outer merge + column compare inside
each bucket task. At 100 TB the
shuffle is the floor for an exact diff of unsorted inputs; if both
snapshots are stored bucketed by the same key hash this becomes a
co-partitioned zip with no exchange at all.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data


def snapshot_diff(
    a: "ray.data.Dataset",
    b: "ray.data.Dataset",
    key: str,
    payload_cols: list[str],
    num_buckets: int = 16,
) -> "ray.data.Dataset":
    """Diff two keyed snapshots → (key, change_type, old_<c>, new_<c>…)
    for every non-identical key. Both sides must be key-unique
    (snapshots, not logs — compact a changelog first via
    :func:`whoiswho_ray.stages.cdc.apply_changelog`).
    """
    from whoiswho_ray.stages.joins import cogroup

    cols = [key, *payload_cols]

    def diff_bucket(l, r):
        ld, rd = l.to_pandas(), r.to_pandas()
        m = ld.merge(rd, on=key, how="outer", indicator=True,
                     suffixes=("_old", "_new"))
        miss_a = (m["_merge"] == "right_only").to_numpy()
        miss_b = (m["_merge"] == "left_only").to_numpy()
        differs = np.zeros(len(m), bool)
        for c in payload_cols:
            o, n = m[f"{c}_old"], m[f"{c}_new"]
            # IS DISTINCT FROM: NULL == NULL, NULL != value
            differs |= (~(o.eq(n) | (o.isna() & n.isna()))).to_numpy()
        change = np.where(miss_a, "added",
                          np.where(miss_b, "removed",
                                   np.where(differs, "changed", "")))
        m = m[change != ""].copy()
        out = {key: m[key],
               "change_type": pd.Series(change[change != ""],
                                        index=m.index, dtype=object)}
        for c in payload_cols:
            out[f"old_{c}"] = m[f"{c}_old"]
            out[f"new_{c}"] = m[f"{c}_new"]
        return pd.DataFrame(out)

    return cogroup([(a, key, cols), (b, key, cols)], diff_bucket, num_buckets)
