"""Data-quality column profiling (Deequ/TFDV-shaped summary stats).

The first thing a 100 TB ingest runs before any transform: per column —
row count, null count, EXACT distinct count, min and max. One streaming
pass computes all scalar partials for every profiled column at once
(O(cols) tiny rows per batch leave the scan); the exact distinct counts
ride a second skinny exchange of per-batch-unique (col, value) pairs —
the shuffle moves each distinct value once per batch it appears in,
never the raw rows.

The tall partial layout (one row per column) cannot keep each source
column's native dtype in one shared min/max column, so extremes travel
through three TYPED channels — int64, float64, and string — and only
the final formatter stringifies. The string channel is only correct for
types whose ``str()`` is order-preserving (strings, ISO timestamps);
ints and floats use their numeric channels, so '9' < '10' stays
numeric (the classic stringified-min trap).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data


def profile_columns(ds: "ray.data.Dataset", cols: list[str]) -> "ray.data.Dataset":
    """Profile ``cols`` → one row per column:
    (col, n_rows, n_null, n_distinct, min_value, max_value) with
    min/max as VARCHAR (NULL when the column is entirely null) and
    n_distinct excluding NULLs (SQL ``count(DISTINCT x)`` semantics).
    """
    from whoiswho_ray.stages.agg import distinct, grouped_agg
    from whoiswho_ray.stages.joins import shuffle_hash_join

    def scalar_partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            s = df[c]
            nn = s.dropna()
            is_int = pd.api.types.is_integer_dtype(s)
            is_flt = pd.api.types.is_float_dtype(s)
            has = len(nn) > 0
            rows.append({
                "col": c,
                "n_rows": np.int64(len(s)),
                "n_null": np.int64(s.isna().sum()),
                "vmin_i": np.int64(nn.min()) if is_int and has else None,
                "vmax_i": np.int64(nn.max()) if is_int and has else None,
                "vmin_f": np.float64(nn.min()) if is_flt and has else None,
                "vmax_f": np.float64(nn.max()) if is_flt and has else None,
                "vmin_s": str(nn.min()) if not (is_int or is_flt) and has else None,
                "vmax_s": str(nn.max()) if not (is_int or is_flt) and has else None,
            })
        out = pd.DataFrame(rows)
        out["vmin_i"] = out["vmin_i"].astype("Int64")
        out["vmax_i"] = out["vmax_i"].astype("Int64")
        out["vmin_f"] = out["vmin_f"].astype("float64")
        out["vmax_f"] = out["vmax_f"].astype("float64")
        return out

    scalars = grouped_agg(
        ds.map_batches(scalar_partial, batch_format="pandas",
                       batch_size=131072),
        "col",
        {"n_rows": ("n_rows", "sum"), "n_null": ("n_null", "sum"),
         "vmin_i": ("vmin_i", "min"), "vmax_i": ("vmax_i", "max"),
         "vmin_f": ("vmin_f", "min"), "vmax_f": ("vmax_f", "max"),
         "vmin_s": ("vmin_s", "min"), "vmax_s": ("vmax_s", "max")},
        final="shuffle")

    def value_partial(df: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for c in cols:
            u = df[c].dropna().unique()
            parts.append(pd.DataFrame({"col": c,
                                       "value": pd.Series(u).astype(str)}))
        return pd.concat(parts, ignore_index=True)

    ndist = grouped_agg(
        distinct(ds.map_batches(value_partial, batch_format="pandas",
                                batch_size=131072),
                 ["col", "value"], final="shuffle"),
        "col", {"n_distinct": (None, "count")}, final="shuffle")

    def fmt(m: pd.DataFrame) -> pd.DataFrame:
        def pick(i_col: str, f_col: str, s_col: str) -> pd.Series:
            iv, fv, sv = m[i_col], m[f_col], m[s_col]
            out = np.where(iv.notna(), iv.astype("Int64").astype(str),
                           np.where(fv.notna(),
                                    fv.astype("float64").astype(str),
                                    sv))
            return pd.Series(out, index=m.index, dtype=object).where(
                iv.notna() | fv.notna() | sv.notna(), None)

        return pd.DataFrame({
            "col": m["col"],
            "n_rows": m["n_rows"].astype("int64"),
            "n_null": m["n_null"].astype("int64"),
            # an entirely-NULL column has no distinct rows to join —
            # count(DISTINCT x) is 0, not absent
            "n_distinct": m["n_distinct"].fillna(0).astype("int64"),
            "min_value": pick("vmin_i", "vmin_f", "vmin_s"),
            "max_value": pick("vmax_i", "vmax_f", "vmax_s"),
        })

    return shuffle_hash_join(scalars, ndist, on="col", how="left",
                             project=fmt)


def fd_violations(
    ds: "ray.data.Dataset",
    det: str,
    dep: str,
) -> pd.DataFrame:
    """Functional-dependency check ``det → dep`` (Deequ's uniqueness /
    consistency constraint, the profiling counterpart of the learned-IND
    detector): one row —
    (det, dep, n_groups, n_violations, holds) where n_violations counts
    determinant groups carrying >1 distinct dependent value.

    Scale shape: per-batch distinct (det, dep) projection (the combiner
    — repeated pairs never leave the scan), one bucketed distinct
    exchange, one grouped distinct-dep count, one tiny reduce. NULLs:
    both NULL determinants and NULL dependents participate as ordinary
    values (SQL ``GROUP BY`` groups NULLs; a NULL dep among non-NULLs
    is a real inconsistency).
    """
    from whoiswho_ray.stages.agg import distinct, grouped_agg

    pairs = distinct(ds.select_columns([det, dep]), [det, dep],
                     final="shuffle")
    per_det = grouped_agg(pairs, det, {"nd": (None, "count")},
                          final="shuffle")

    def summarize(df: pd.DataFrame) -> pd.DataFrame:
        nd = df["nd"].to_numpy(np.int64)
        return pd.DataFrame({
            "n_groups": [np.int64(len(nd))],
            "n_violations": [np.int64((nd > 1).sum())],
        })

    parts = per_det.map_batches(summarize, batch_format="pandas"
                                ).to_pandas()
    n_groups = int(parts["n_groups"].sum())
    n_viol = int(parts["n_violations"].sum())
    return pd.DataFrame({
        "det": [det], "dep": [dep],
        "n_groups": np.array([n_groups], np.int64),
        "n_violations": np.array([n_viol], np.int64),
        "holds": [n_viol == 0],
    })


def key_skew(
    ds: "ray.data.Dataset",
    key: str,
    top_n: int = 20,
) -> pd.DataFrame:
    """Key-distribution skew report — the diagnostic a shuffle planner
    reads before picking a partitioning key: the ``top_n`` heaviest keys
    with count, rank (``ORDER BY n DESC, key``), share of all rows, and
    running cumulative share, plus the global row/distinct-key totals on
    every row so the frame is self-describing. A top-1 share near
    1/num_buckets means the hottest key saturates one bucket task — salt
    it (joins.shuffle_hash_join ``salt=``) or pre-aggregate.

    Scale shape: per-batch partial key counts (combiner) + one key-hash
    bucketed combine produce the global per-key count table, which is
    materialized ONCE (it is O(distinct keys) and already lives in the
    object store post-shuffle); then two driver-bounded passes over it —
    per-batch (sum, len) scalar partials for the totals, and per-batch
    top-``top_n`` candidates (complete because every key appears exactly
    once after the global combine) merged on the driver. Shares are
    single divisions of exact int64 counts (bit-identical to SQL
    ``CAST(n AS DOUBLE) / tot``).
    """
    from whoiswho_ray.stages.agg import grouped_agg

    empty = pd.DataFrame({key: pd.Series([], dtype=object),
                          "n": pd.Series([], dtype=np.int64),
                          "rank": pd.Series([], dtype=np.int64),
                          "share": pd.Series([], dtype=np.float64),
                          "cum_share": pd.Series([], dtype=np.float64),
                          "total_rows": pd.Series([], dtype=np.int64),
                          "n_keys": pd.Series([], dtype=np.int64)})

    counts = grouped_agg(ds.select_columns([key]), [key],
                         {"n": (None, "count")},
                         final="shuffle").materialize()

    tot = counts.map_batches(
        lambda df: pd.DataFrame({"r": [np.int64(df["n"].sum())],
                                 "k": [np.int64(len(df))]}),
        batch_format="pandas").to_pandas()
    if not len(tot):
        return empty
    tot_rows, n_keys = int(tot["r"].sum()), int(tot["k"].sum())

    cand = counts.map_batches(
        lambda df: df.sort_values(["n", key], ascending=[False, True],
                                  kind="stable").head(top_n),
        batch_format="pandas").to_pandas()
    head = (cand.sort_values(["n", key], ascending=[False, True],
                             kind="stable").head(top_n)
            .reset_index(drop=True))
    n = head["n"].to_numpy(np.int64)
    out = pd.DataFrame({
        key: head[key],
        "n": n,
        "rank": np.arange(1, len(head) + 1, dtype=np.int64),
        "share": n.astype(np.float64) / np.float64(tot_rows),
        "cum_share": np.cumsum(n).astype(np.float64)
                     / np.float64(tot_rows),
        "total_rows": np.full(len(head), tot_rows, np.int64),
        "n_keys": np.full(len(head), n_keys, np.int64),
    })
    return out


def impute_mode(
    ds: "ray.data.Dataset",
    key: str,
    col: str,
    flag_col: str = "was_null",
) -> "ray.data.Dataset":
    """NULL imputation by per-group mode — the standard categorical
    cleaning step: fill ``col``'s NULLs with the most frequent NON-NULL
    value of the row's ``key`` group (mode ties pinned to the smallest
    value, the agg.mode_per_group contract), and flag imputed rows.
    Keys whose values are ALL NULL stay NULL (SQL ``coalesce`` with a
    NULL group mode does the same).

    Scale shape: the mode table is one per-batch (key, value) count
    combiner + one key-bucket combine (agg.mode_per_group), collected to
    the driver — it is O(distinct keys) — and rides the fill pass's task
    closure as a broadcast lookup; the fill itself is one streaming
    vectorized pass (isna mask + map). No shuffle touches the data rows.
    """
    from whoiswho_ray.stages.agg import mode_per_group

    nonnull = ds.map_batches(
        lambda df: df.loc[df[col].notna(), [key, col]],
        batch_format="pandas")
    modes = mode_per_group(nonnull, key, col).to_pandas()
    lut = dict(zip(modes[key], modes["mode_val"]))

    def fill(df: pd.DataFrame) -> pd.DataFrame:
        isna = df[col].isna()
        out = df.copy()
        out[col] = df[col].where(~isna, df[key].map(lut))
        out[flag_col] = isna.to_numpy().astype(np.int64)
        return out

    return ds.map_batches(fill, batch_format="pandas")


# regex type classes — RE2-compatible and kept in LOCKSTEP with the SQL
# oracle (regexp_full_match / regexp_matches with the same strings)
TYPE_PATTERNS = {
    "int": r"[+-]?[0-9]+",
    "float": r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?",
    "date": r"[0-9]{4}-[0-9]{2}-[0-9]{2}",
    "bool": r"(?i)(true|false|yes|no)",
}


def infer_types(
    ds: "ray.data.Dataset",
    cols: list[str],
) -> pd.DataFrame:
    """String-column type inference — the schema-sniffing pass an
    ingest runs on CSV-ish string data before assigning real types:
    for each column, how many non-null values FULLY match each regex
    type class (int / float / date / bool — :data:`TYPE_PATTERNS`,
    deliberately regex-based rather than TRY_CAST so the Ray and SQL
    sides share one definition). The winning class is the argmax with
    a deterministic class-order tie-break; 'string' when nothing
    reaches half the values.

    Scale shape: one streaming pass; each batch emits one tiny partial
    row per column (vectorized Arrow match_substring_regex anchored
    full-match), driver sums. No shuffle.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    classes = list(TYPE_PATTERNS)

    def partial(t: pa.Table) -> pd.DataFrame:
        rows = []
        for c in cols:
            arr = t.column(c)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            valid = len(arr) - arr.null_count
            row = {"column": c, "n": np.int64(valid)}
            for cls in classes:
                pat = "^" + TYPE_PATTERNS[cls] + "$"
                m = pc.match_substring_regex(arr, pat)
                row[f"n_{cls}"] = np.int64(
                    pc.sum(m).as_py() or 0)
            rows.append(row)
        return pd.DataFrame(rows)

    p = ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True).to_pandas()
    if not len(p):
        return pd.DataFrame({"column": cols,
                             **{k: np.zeros(len(cols), np.int64)
                                for k in ["n"] + [f"n_{c}"
                                                  for c in classes]},
                             "inferred": ["string"] * len(cols)})
    tot = p.groupby("column", sort=False).sum().reindex(cols).reset_index()
    counts = tot[[f"n_{c}" for c in classes]].to_numpy(np.int64)
    n = tot["n"].to_numpy(np.int64)
    best = counts.argmax(axis=1)
    best_n = counts[np.arange(len(cols)), best]
    inferred = np.where(best_n * 2 > n,
                        np.array(classes, dtype=object)[best], "string")
    out = tot.copy()
    for c in ["n"] + [f"n_{cls}" for cls in classes]:
        out[c] = out[c].astype(np.int64)
    out["inferred"] = inferred
    return out


def fd_repair(
    ds: "ray.data.Dataset",
    det: str,
    dep: str,
    flag_col: str = "repaired",
) -> "ray.data.Dataset":
    """Constraint-based repair for a functional dependency det → dep
    (the minimal-change repair HoloClean-style cleaners apply after
    :func:`fd_violations` finds inconsistent groups): within each
    determinant group, every row's ``dep`` is set to the group's MOST
    FREQUENT value (ties → smallest, the mode_per_group contract), and
    changed rows are flagged. Majority-repair is the minimum-edit
    repair for a single FD.

    Scale shape: exactly :func:`impute_mode`'s — one (det, dep) count
    combiner + key-bucket combine builds the O(distinct det) mode
    table, broadcast into one streaming repair pass. NULL deps never
    win the vote (they are excluded from the mode) and are repaired
    like any other disagreeing value. A row with a NULL determinant
    belongs to no group: it keeps its ``dep`` and is not flagged.
    """
    from whoiswho_ray.stages.agg import mode_per_group

    nonnull = ds.map_batches(
        lambda df: df.loc[df[dep].notna(), [det, dep]],
        batch_format="pandas")
    modes = mode_per_group(nonnull, det, dep).to_pandas()
    lut = dict(zip(modes[det], modes["mode_val"]))

    def repair(df: pd.DataFrame) -> pd.DataFrame:
        target = df[det].map(lut)
        cur = df[dep]
        changed = ~(cur.eq(target) | (cur.isna() & target.isna())) & df[det].notna()
        out = df.copy()
        out[dep] = cur.where(~changed, target)
        out[flag_col] = changed.to_numpy().astype(np.int64)
        return out

    return ds.map_batches(repair, batch_format="pandas")
