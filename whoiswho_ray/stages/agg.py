"""Pre-aggregated grouped aggregation (operator A2/A10 pattern).

A bare ``groupby(key).aggregate(...)`` shuffles every row. This helper
combines inside ``map_batches`` first — one partial row per key per batch
— so the all-to-all moves only partials; the final aggregate runs over a
few thousand rows regardless of input size. This is the pattern the
reference approximates by building its idf dicts corpus-side once
(``/root/reference/whoiswho/character/feature_process.py:36-43``) and the
Ray Data docs recommend for aggregation at scale.

Supported specs: sum, count, min, max, mean (sum+count partials, divided
after the final combine — exact for integer inputs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

_PARTIAL = {"sum": "sum", "count": "count", "min": "min", "max": "max"}
_FINAL = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def collect_blocks(ds: "ray.data.Dataset", fetch: bool = True) -> list:
    """The blocks of ``ds`` in dataset order as Arrow tables, or their refs
    (``fetch=False``), running its plan once. ``ds.to_arrow_refs()`` then
    asks for the schema, which re-runs a lazy map plan under ``limit(1)``
    — after an all-to-all, the whole shuffle again (NOTES fact 10)."""
    from ray.data.block import BlockAccessor

    refs = [ref for bundle in ds.iter_internal_ref_bundles() for ref, _ in bundle.blocks]
    return [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)] if fetch else refs


def grouped_agg(
    ds: "ray.data.Dataset",
    keys: str | list[str],
    spec: dict[str, tuple[str | None, str]],
    final: str = "driver",
):
    """spec: out_col -> (src_col, op) with op in sum/count/min/max/mean.
    For count, src_col may be None. Output columns: keys + spec keys.

    ``final='driver'`` (default): the per-batch partials — one row per key
    per batch, small by construction — are tree-combined on the driver with
    one pandas groupby; returns a DataFrame. Right whenever the result
    cardinality is human-scale (reports, dashboards, dimension rollups).
    ``final='shuffle'``: a distributed final over the partials for
    unbounded key cardinality; returns a Dataset. One Ray group per HASH
    BUCKET (never per key — Ray's native per-key aggregate pays ~1 ms per
    group), with a vectorized pandas combine inside each bucket task.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    # expand means into sum+count partials
    plan: dict[str, tuple[str | None, str]] = {}
    means: dict[str, tuple[str, str]] = {}
    need_count: str | None = None
    for out, (src, op) in spec.items():
        if op == "mean":
            plan[f"__{out}_sum"] = (src, "sum")
            means[out] = (f"__{out}_sum", "__n")
            need_count = "__n"
        else:
            plan[out] = (src, op)
    if need_count and need_count not in plan:
        plan[need_count] = (None, "count")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)
        cols = {}
        for out, (src, op) in plan.items():
            if op == "count":
                cols[out] = g.size()
            else:
                cols[out] = g[src].agg(_PARTIAL[op])
        return pd.DataFrame(cols).reset_index()

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=131072)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        for out, (sum_col, n_col) in means.items():
            df[out] = df[sum_col] / df[n_col]
        drop = [c for c in df.columns if c.startswith("__")]
        return df.drop(columns=drop)

    if final == "driver":
        merged = pa.concat_tables(collect_blocks(partials),
                                  promote_options="default").to_pandas()
        if len(merged) == 0:
            return finish(merged)
        combined = merged.groupby(keys, sort=False, dropna=False).agg(
            {out: _FINAL[op] for out, (src, op) in plan.items()}
        ).reset_index()
        return finish(combined)

    nb = _num_buckets()

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        h = np.zeros(len(df), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for k in keys:
                h = h * np.uint64(1099511628211) ^ pd.util.hash_pandas_object(
                    df[k], index=False).to_numpy().astype(np.uint64)
        df = df.copy()
        df["__bucket"] = (h % np.uint64(nb)).astype(np.int64)
        return df

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        df = g.drop(columns=["__bucket"])
        out = df.groupby(keys, sort=False, dropna=False).agg(
            {o: _FINAL[op] for o, (src, op) in plan.items()}
        ).reset_index()
        return finish(out)

    return partials.map_batches(add_bucket, batch_format="pandas").groupby(
        "__bucket").map_groups(combine, batch_format="pandas")


def _num_buckets() -> int:
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(32, cpus * 4)


def group_apply(
    ds: "ray.data.Dataset",
    key: str,
    fn,
    batch_format: str = "pyarrow",
    num_buckets: int | None = None,
    whole_bucket: bool = False,
) -> "ray.data.Dataset":
    """Per-key grouped apply with O(buckets) Ray groups instead of O(keys).

    ``Dataset.groupby(key).map_groups(fn)`` pays a fixed per-group cost in
    the Ray layer — ruinous with thousands of keys. This helper hashes the
    key into ``num_buckets`` (default 4×CPUs) buckets, runs ONE Ray group
    per bucket, and splits into per-key groups inside the task: sort the
    bucket by key, find boundaries, and call ``fn`` on zero-copy Arrow
    slices (or pandas views). Semantics identical to groupby(key) —
    co-location is guaranteed by the hash bucket.

    ``whole_bucket=True``: ``fn`` receives each ENTIRE key-sorted bucket
    once (possibly many keys) instead of per-key slices — for callbacks
    that are already vectorized across keys (e.g. grouped quantiles'
    lexsort + boundary pluck), so the multi-key machinery runs once per
    bucket, not once per key.
    """
    nb = num_buckets or _num_buckets()

    if batch_format == "pyarrow":
        def add_bucket_arrow(t: pa.Table) -> pa.Table:
            # hash only the key column — the payload never converts
            keys = t.column(key).to_pandas()
            h = pd.util.hash_pandas_object(keys, index=False).to_numpy()
            return t.append_column(
                "__bucket", pa.array((h % np.uint64(nb)).astype(np.int64)))

        bucketed = ds.map_batches(add_bucket_arrow, batch_format="pyarrow",
                                  zero_copy_batch=True, batch_size=131072)

        def outer(t: pa.Table) -> pa.Table:
            t = t.drop_columns(["__bucket"])
            t = t.sort_by([(key, "ascending")])  # arrow C++ sort
            if whole_bucket:
                return fn(t)
            keys_sorted = np.asarray(t.column(key).to_pylist(), dtype=object)
            bounds = np.flatnonzero(
                np.r_[True, keys_sorted[1:] != keys_sorted[:-1], True])
            parts = []
            for s, e in zip(bounds[:-1], bounds[1:]):
                out = fn(t.slice(int(s), int(e - s)))
                if out.num_rows:
                    parts.append(out)
            if not parts:
                return fn(t.slice(0, 0))
            return pa.concat_tables(parts, promote_options="default")

        return bucketed.groupby("__bucket").map_groups(outer, batch_format="pyarrow")

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[key], index=False).to_numpy()
        df = df.copy()
        df["__bucket"] = (h % np.uint64(nb)).astype(np.int64)
        return df

    bucketed = ds.map_batches(add_bucket, batch_format="pandas", batch_size=131072)

    def outer_pd(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["__bucket"])
        if whole_bucket:
            return fn(df.sort_values(key, kind="stable"))
        parts = []
        for _, g in df.groupby(key, sort=True):
            out = fn(g)
            if len(out):
                parts.append(out)
        if not parts:
            return fn(df.iloc[0:0])
        return pd.concat(parts, ignore_index=True)

    return bucketed.groupby("__bucket").map_groups(outer_pd, batch_format="pandas")


def distinct(ds: "ray.data.Dataset", cols: list[str], final: str = "driver"):
    """Distinct rows over cols: local drop_duplicates per batch, then a
    final combine over the (small) survivors — driver-side by default,
    ``final='shuffle'`` for unbounded distinct-value counts."""
    local = ds.map_batches(
        lambda df: df[cols].drop_duplicates(), batch_format="pandas", batch_size=262144
    )
    if final == "driver":
        return pa.concat_tables(collect_blocks(local), promote_options="default").to_pandas(
        ).drop_duplicates().reset_index(drop=True)

    # distributed final: one Ray group per hash bucket, vectorized
    # drop_duplicates inside (never one Ray group per distinct value)
    nb = _num_buckets()

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        h = np.zeros(len(df), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for k in cols:
                h = h * np.uint64(1099511628211) ^ pd.util.hash_pandas_object(
                    df[k], index=False).to_numpy().astype(np.uint64)
        df = df.copy()
        df["__bucket"] = (h % np.uint64(nb)).astype(np.int64)
        return df

    return local.map_batches(add_bucket, batch_format="pandas").groupby(
        "__bucket").map_groups(
        lambda g: g.drop(columns=["__bucket"]).drop_duplicates(),
        batch_format="pandas")


def _drop_null_values(ds: "ray.data.Dataset", value_col: str) -> "ray.data.Dataset":
    """Drop rows whose value column is NULL or (for floats) NaN — the rows
    DuckDB's ``quantile_disc`` ignores."""
    import pyarrow.compute as pc

    def f(t: pa.Table) -> pa.Table:
        col = t.column(value_col)
        mask = pc.is_valid(col)
        if pa.types.is_floating(col.type):
            mask = pc.and_(mask, pc.invert(pc.is_nan(col)))
        return t.filter(mask)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def exact_quantiles(
    ds: "ray.data.Dataset",
    value_col: str,
    qs: list[float],
) -> pd.DataFrame:
    """EXACT discrete quantiles of one column, distributed.

    Not a sketch: one Ray ``sort`` (distributed sample-sort), then
    :func:`with_global_rank` gives every row its global rank via
    per-block offset tasks; the quantile rows are plucked by rank inside
    ``map_batches`` — only ``len(qs)`` rows ever reach the driver. Equal
    values make the rank→value map well-defined regardless of tie order,
    so no tie-break column is needed.

    Quantile index convention matches DuckDB ``quantile_disc``:
    ``max(0, ceil(q*n) - 1)`` (0-based), making the result oracle-exact —
    the value is plucked, never interpolated, so no float arithmetic
    differs between engines. NULL (and float NaN — pandas provenance makes
    the two indistinguishable) rows are excluded from both ``n`` and the
    pluck, matching ``quantile_disc``'s NULL handling (ADVICE r2).
    """
    import math

    s = _drop_null_values(ds, value_col).sort(value_col).materialize()
    n = s.count()
    if n == 0:
        return pd.DataFrame({"q": pd.Series(qs, dtype=float),
                             "value": np.nan})
    idx_of = {q: max(0, math.ceil(q * n) - 1) for q in qs}
    targets = np.unique(np.fromiter(idx_of.values(), np.int64, len(idx_of)))
    targets_ref = ray.put(targets)

    class Pick:
        def __init__(self):
            self.targets = ray.get(targets_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t.column("rank").to_numpy(zero_copy_only=False)
            mask = np.isin(ids, self.targets)
            return pa.table({
                "rank": pa.array(ids[mask]),
                "value": t.column(value_col).filter(pa.array(mask)),
            })

    hits = (with_global_rank(s, "rank")
            .map_batches(Pick, batch_format="pyarrow", zero_copy_batch=True,
                         concurrency=(1, 4))
            .to_pandas().set_index("rank")["value"])
    return pd.DataFrame({"q": pd.Series(qs, dtype=float),
                         "value": [hits[idx_of[q]] for q in qs]})


def exact_quantiles_cont(
    ds: "ray.data.Dataset",
    value_col: str,
    qs: list[float],
) -> pd.DataFrame:
    """EXACT interpolated quantiles (SQL ``percentile_cont`` / DuckDB
    ``quantile_cont``): ``pos = q*(n-1)``; value = ``v[floor(pos)] +
    (v[ceil(pos)] - v[floor(pos)]) * (pos - floor(pos))``.

    Same one-sort + rank-pluck scale shape as :func:`exact_quantiles` —
    BOTH bracketing ranks per q are plucked in-task (≤ 2·len(qs) rows to
    the driver), and the interpolation is one float64 expression over
    the plucked values. A SQL replay computing the same expression from
    the same two ranked values is bit-identical, independent of any
    engine's internal quantile_cont formulation.
    """
    import math

    s = _drop_null_values(ds, value_col).sort(value_col).materialize()
    n = s.count()
    if n == 0:
        return pd.DataFrame({"q": pd.Series(qs, dtype=float),
                             "value": np.nan})
    pos_of = {q: float(q) * float(n - 1) for q in qs}
    brackets = {q: (int(math.floor(p)), int(math.ceil(p)))
                for q, p in pos_of.items()}
    targets = np.unique(np.fromiter(
        (i for pair in brackets.values() for i in pair), np.int64))
    targets_ref = ray.put(targets)

    class Pick:
        def __init__(self):
            self.targets = ray.get(targets_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t.column("rank").to_numpy(zero_copy_only=False)
            mask = np.isin(ids, self.targets)
            import pyarrow.compute as pc
            return pa.table({
                "rank": pa.array(ids[mask]),
                "value": pc.cast(
                    t.column(value_col).filter(pa.array(mask)),
                    pa.float64()),
            })

    hits = (with_global_rank(s, "rank")
            .map_batches(Pick, batch_format="pyarrow", zero_copy_batch=True,
                         concurrency=(1, 4))
            .to_pandas().set_index("rank")["value"])
    vals = []
    for q in qs:
        lo_i, hi_i = brackets[q]
        lo, hi = float(hits[lo_i]), float(hits[hi_i])
        p = pos_of[q]
        vals.append(lo + (hi - lo) * (p - math.floor(p)))
    return pd.DataFrame({"q": pd.Series(qs, dtype=float), "value": vals})


def with_global_rank(
    s: "ray.data.Dataset", rank_col: str = "rank"
) -> "ray.data.Dataset":
    """Append each row's GLOBAL index in dataset iteration order.

    ``s`` must be materialized (e.g. the output of ``sort().materialize()``,
    where iteration order is the sorted order). Implemented with per-block
    offset tasks over the ordered block list — NOT ``Dataset.zip(range(n))``:
    zip does not guarantee row alignment across unevenly-sized block
    structures (observed on Ray 2.49: zipping a 7-block sample-sorted
    dataset against ``range(n)`` interleaves the ids), so the zip-based
    rank silently scrambles at multi-block scale. Block row counts come
    from metadata; each task touches one block — no shuffle, no driver
    materialization.
    """
    import ray.data as rd
    from ray.data.block import BlockAccessor

    refs, counts = [], []
    for bundle in s.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            refs.append(ref)
            counts.append(int(meta.num_rows))
    offsets = np.concatenate([[0], np.cumsum(counts)])

    @ray.remote
    def add_rank(block, off: int):
        import pyarrow as _pa
        t = BlockAccessor.for_block(block).to_arrow()
        return t.append_column(
            rank_col, _pa.array(np.arange(off, off + len(t), dtype=np.int64)))

    return rd.from_arrow_refs(
        [add_rank.remote(r, int(o)) for r, o in zip(refs, offsets[:-1])])


def with_running_total(
    s: "ray.data.Dataset",
    weight_col: str,
    total_col: str = "cum_before",
    inclusive: bool = False,
) -> "ray.data.Dataset":
    """Append each row's GLOBAL running total of ``weight_col`` in dataset
    iteration order (exclusive prefix sum by default — the total of all
    PRECEDING rows; ``inclusive=True`` includes the row itself).

    The distributed-prefix-sum primitive: pass 1 computes one int64 sum
    per block (tiny tasks over the ordered block list), the driver does an
    exclusive scan over the per-block sums, pass 2 appends
    ``block_offset + local_cumsum`` per block. No shuffle, no driver
    materialization of rows — the driver sees one scalar per block.

    ``s`` must be materialized (e.g. ``sort(...).materialize()``) so block
    order is the dataset order, same contract as :func:`with_global_rank`.
    Oracle shape: ``sum(w) OVER (ORDER BY key ROWS BETWEEN UNBOUNDED
    PRECEDING AND 1 PRECEDING)`` (exclusive) — integer weights stay exact.
    """
    import ray.data as rd
    from ray.data.block import BlockAccessor

    @ray.remote
    def block_sum(block) -> int:
        t = BlockAccessor.for_block(block).to_arrow()
        if t.num_rows == 0:
            return 0
        return int(np.sum(t.column(weight_col).to_numpy(
            zero_copy_only=False).astype(np.int64)))

    refs = collect_blocks(s, fetch=False)
    sums = ray.get([block_sum.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(sums)])[:-1]

    @ray.remote
    def add_total(block, off: int):
        import pyarrow as _pa
        t = BlockAccessor.for_block(block).to_arrow()
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
        c = np.cumsum(w)
        run = off + (c if inclusive else c - w)
        return t.append_column(total_col, _pa.array(run))

    return rd.from_arrow_refs(
        [add_total.remote(r, int(o)) for r, o in zip(refs, offsets)])


def grouped_quantiles(
    ds: "ray.data.Dataset",
    key: str,
    value_col: str,
    qs: list[float],
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """EXACT per-key discrete quantiles (``quantile_disc`` convention:
    value at 0-based index ``max(0, ceil(q·n)-1)`` of the key's sorted
    values).

    One bounded all-to-all: keys hash into ``group_apply`` buckets
    (O(buckets) Ray groups, not O(keys)); each bucket task receives its
    WHOLE bucket once (``whole_bucket=True``), lexsorts the (key, value)
    rows in one pass and plucks every key's quantile rows by position —
    per-key state never leaves the task and the output is ``len(qs)``
    rows per key. Plucked, never interpolated, so the result is
    oracle-exact with no float arithmetic to disagree on. NULL/NaN values
    are excluded first (``quantile_disc`` semantics); a key with no
    non-null values is absent from the output (mirror with ``WHERE v IS
    NOT NULL`` in the oracle).
    """
    import math

    qs = list(qs)
    ds = _drop_null_values(ds.select_columns([key, value_col]), value_col)

    def bucket_q(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({key: pa.array([], t.column(key).type),
                             "q": pa.array([], pa.float64()),
                             value_col: pa.array([], t.column(value_col).type)})
        keys = t.column(key).to_numpy(zero_copy_only=False)
        vals = t.column(value_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((vals, keys))
        sk, sv = keys[order], vals[order]
        bounds = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1], True])
        starts, n = bounds[:-1], np.diff(bounds)
        out_k, out_q, out_v = [], [], []
        for q in qs:
            idx = starts + np.maximum(0, np.ceil(q * n).astype(np.int64) - 1)
            out_k.append(sk[starts])
            out_q.append(np.full(starts.size, q))
            out_v.append(sv[idx])
        return pa.table({
            key: pa.array(np.concatenate(out_k), t.column(key).type),
            "q": pa.array(np.concatenate(out_q), pa.float64()),
            value_col: pa.array(np.concatenate(out_v), t.column(value_col).type),
        })

    return group_apply(ds, key, bucket_q, batch_format="pyarrow",
                       num_buckets=num_buckets, whole_bucket=True)


def grouped_quantiles_cont(
    ds: "ray.data.Dataset",
    key: str,
    value_col: str,
    qs: list[float],
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """EXACT per-key INTERPOLATED quantiles (``percentile_cont`` per
    group): within each key's sorted values, ``pos = q·(n-1)``,
    ``value = v[floor(pos)] + (v[ceil(pos)] - v[floor(pos)]) ·
    (pos - floor(pos))``.

    Same bounded-bucket shape as :func:`grouped_quantiles` (one
    ``group_apply`` whole-bucket lexsort, per-key positions plucked
    vectorized); the interpolation expression is pinned in float64 so a
    SQL replay computing it from the same two per-key ranked values is
    bit-identical. NULL/NaN values are excluded first; values emerge as
    float64.
    """
    qs = list(qs)
    ds = _drop_null_values(ds.select_columns([key, value_col]), value_col)

    def bucket_q(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({key: pa.array([], t.column(key).type),
                             "q": pa.array([], pa.float64()),
                             "value": pa.array([], pa.float64())})
        keys = t.column(key).to_numpy(zero_copy_only=False)
        vals = t.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        order = np.lexsort((vals, keys))
        sk, sv = keys[order], vals[order]
        bounds = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1], True])
        starts, n = bounds[:-1], np.diff(bounds)
        out_k, out_q, out_v = [], [], []
        for q in qs:
            pos = float(q) * (n - 1).astype(np.float64)
            lo = np.floor(pos).astype(np.int64)
            hi = np.ceil(pos).astype(np.int64)
            vlo, vhi = sv[starts + lo], sv[starts + hi]
            out_k.append(sk[starts])
            out_q.append(np.full(starts.size, float(q)))
            out_v.append(vlo + (vhi - vlo) * (pos - np.floor(pos)))
        return pa.table({
            key: pa.array(np.concatenate(out_k), t.column(key).type),
            "q": pa.array(np.concatenate(out_q), pa.float64()),
            "value": pa.array(np.concatenate(out_v), pa.float64()),
        })

    return group_apply(ds, key, bucket_q, batch_format="pyarrow",
                       num_buckets=num_buckets, whole_bucket=True)


def profile_columns(ds: "ray.data.Dataset", cols: list[str]) -> pd.DataFrame:
    """Per-column data profile — driver-DataFrame wrapper over the
    distributed :func:`whoiswho_ray.stages.profile.profile_columns`
    (one scalar-partial pass + ONE shared distinct exchange for all
    columns — the previous version rescanned the dataset once per
    column for its distinct counts). Output schema kept for existing
    callers: (column, n, nulls, n_distinct, min_s, max_s); min/max
    stringified only after combining in the native domain ("10" > "9"
    stays numeric). Swap in ``sketch.hll_count`` when approximate
    distinct is acceptable at scale.
    """
    from whoiswho_ray.stages.profile import profile_columns as _profile

    out = _profile(ds, cols).to_pandas()
    res = pd.DataFrame({
        "column": out["col"],
        "n": out["n_rows"].astype(np.int64),
        "nulls": out["n_null"].astype(np.int64),
        "n_distinct": out["n_distinct"].astype(np.int64),
        "min_s": out["min_value"].astype(object),
        "max_s": out["max_value"].astype(object),
    })
    for c in ("min_s", "max_s"):
        res[c] = res[c].where(res[c].notna(), None)
    # preserve the caller's column order (the join result is unordered)
    return res.set_index("column").loc[cols].reset_index()

def rollup(
    ds: "ray.data.Dataset",
    keys: list[str],
    spec: dict[str, tuple[str | None, str]],
    total_label: str = "ALL",
) -> pd.DataFrame:
    """``GROUP BY ROLLUP(keys...)`` for DISTRIBUTIVE aggregates
    (sum/count/min/max — mean is not re-aggregable from partials; pass
    sum+count and divide downstream). Returns every prefix level of the
    key hierarchy in one frame: rolled-up key columns carry
    ``total_label`` (keys are stringified so the sentinel types cleanly)
    and ``level`` = how many leading keys are retained (len(keys) =
    finest … 0 = grand total) — the SQL ``len(keys) - sum(GROUPING(k))``.

    Scale shape: ONE distributed partial pass at the finest grain (the
    :func:`grouped_agg` per-batch partial-combine); every coarser level
    re-aggregates the finest RESULT — |finest groups| rows, already
    driver-sized by the grouped_agg('driver') contract — so the rollup
    costs one shuffle-free pass regardless of how many levels it emits.
    """
    if not keys:
        raise ValueError("rollup needs at least one key")
    for out, (_src, op) in spec.items():
        if op not in ("sum", "count", "min", "max"):
            raise ValueError(
                f"rollup supports distributive ops only, got {op!r} for"
                f" {out!r} (decompose mean into sum + count)")
    finest = grouped_agg(ds, keys, spec, final="driver")
    # re-aggregation op over the finest partials: counts re-SUM
    re_op = {out: ("sum" if op == "count" else op)
             for out, (_s, op) in spec.items()}
    frames = []
    for level in range(len(keys), -1, -1):
        kept = keys[:level]
        if level == len(keys):
            f = finest.copy()
        elif kept:
            f = (finest.groupby(kept, sort=False, dropna=False)
                 .agg(re_op).reset_index())
        else:
            f = pd.DataFrame({out: [finest[out].agg(op)]
                              for out, op in re_op.items()})
        for k in keys:
            f[k] = (f[k].astype(str) if k in kept
                    else total_label)
        f["level"] = np.int64(level)
        frames.append(f)
    out = pd.concat(frames, ignore_index=True)
    out = out[keys + ["level"] + list(spec)]
    for col, (_s, op) in spec.items():
        # normalize INTEGER sums/counts back to int64 (concat can widen);
        # float-valued sums keep their dtype — casting would truncate
        if (op in ("sum", "count") and out[col].dtype.kind in "iu"
                or op == "count" and not out[col].isna().any()):
            out[col] = out[col].astype(np.int64)
    out["level"] = out["level"].astype(np.int64)
    return out.sort_values(["level"] + keys, kind="stable",
                           ignore_index=True)

def cube(
    ds: "ray.data.Dataset",
    keys: list[str],
    spec: dict[str, tuple[str | None, str]],
    total_label: str = "ALL",
) -> pd.DataFrame:
    """``GROUP BY CUBE(keys...)`` for DISTRIBUTIVE aggregates — every
    SUBSET of the keys (2^k grouping sets), vs :func:`rollup`'s k+1
    prefixes. Rolled-up key columns carry ``total_label`` (keys are
    stringified so the sentinel types cleanly); ``grouping`` is the SQL
    GROUPING_ID bitmask — bit ``k-1-i`` set means ``keys[i]`` is rolled
    up, so 0 = finest grain and ``2^k - 1`` = grand total.

    Scale shape: identical to :func:`rollup` — ONE distributed
    partial-combine pass at the finest grain; every other grouping set
    re-aggregates the finest RESULT (|finest groups| rows, already
    driver-sized by the grouped_agg('driver') contract), so the cube
    costs one shuffle-free pass regardless of 2^k output levels.
    """
    if not keys:
        raise ValueError("cube needs at least one key")
    for out, (_src, op) in spec.items():
        if op not in ("sum", "count", "min", "max"):
            raise ValueError(
                f"cube supports distributive ops only, got {op!r} for"
                f" {out!r} (decompose mean into sum + count)")
    k = len(keys)
    finest = grouped_agg(ds, keys, spec, final="driver")
    re_op = {out: ("sum" if op == "count" else op)
             for out, (_s, op) in spec.items()}
    frames = []
    for mask in range(2 ** k):
        kept = [keys[i] for i in range(k) if not (mask >> (k - 1 - i)) & 1]
        if not mask:
            f = finest.copy()
        elif kept:
            f = (finest.groupby(kept, sort=False, dropna=False)
                 .agg(re_op).reset_index())
        else:
            f = pd.DataFrame({out: [finest[out].agg(op)]
                              for out, op in re_op.items()})
        for key in keys:
            f[key] = f[key].astype(str) if key in kept else total_label
        f["grouping"] = np.int64(mask)
        frames.append(f)
    out = pd.concat(frames, ignore_index=True)
    out = out[keys + ["grouping"] + list(spec)]
    for col, (_s, op) in spec.items():
        if (op in ("sum", "count") and out[col].dtype.kind in "iu"
                or op == "count" and not out[col].isna().any()):
            out[col] = out[col].astype(np.int64)
    out["grouping"] = out["grouping"].astype(np.int64)
    return out.sort_values(["grouping"] + keys, kind="stable",
                           ignore_index=True)


def grouping_sets(
    ds: "ray.data.Dataset",
    keys: list[str],
    sets: list[list[str]],
    spec: dict[str, tuple[str | None, str]],
    total_label: str = "ALL",
) -> pd.DataFrame:
    """``GROUP BY GROUPING SETS((...), ...)`` for DISTRIBUTIVE aggregates
    — the generalization :func:`rollup` (prefixes) and :func:`cube` (all
    subsets) specialize. ``sets`` lists the grouping sets explicitly;
    each must be a subset of ``keys`` (``[]`` = grand total). Rolled-up
    key columns carry ``total_label`` (keys are stringified so the
    sentinel types cleanly); ``grouping`` is the SQL GROUPING_ID bitmask
    over ``keys`` in order (bit ``k-1-i`` set means ``keys[i]`` rolled
    up), so results compare directly against DuckDB's
    ``grouping(keys...)``. Duplicate sets are rejected — the bitmask
    could not disambiguate their rows (SQL emits duplicate rows there;
    use UNION ALL of two calls if you truly want that).

    Scale shape: identical to rollup/cube — ONE distributed
    partial-combine pass at the finest grain (the union of all sets'
    keys), then every set re-aggregates the finest RESULT, which is
    |finest groups| rows and already driver-sized by the
    grouped_agg('driver') contract. Sets that need a key OUTSIDE the
    finest union cannot occur (sets ⊆ keys is validated).
    """
    if not keys:
        raise ValueError("grouping_sets needs at least one key")
    seen = set()
    for s in sets:
        bad = [c for c in s if c not in keys]
        if bad:
            raise ValueError(f"grouping set {s} uses non-key columns {bad}")
        if len(set(s)) != len(s):
            raise ValueError(f"grouping set {s} repeats a key")
        fs = frozenset(s)
        if fs in seen:
            raise ValueError(
                f"duplicate grouping set {sorted(fs)} — the grouping "
                "bitmask cannot disambiguate duplicate-set rows")
        seen.add(fs)
    if not sets:
        raise ValueError("grouping_sets needs at least one set")
    for out, (_src, op) in spec.items():
        if op not in ("sum", "count", "min", "max"):
            raise ValueError(
                f"grouping_sets supports distributive ops only, got "
                f"{op!r} for {out!r} (decompose mean into sum + count)")
    k = len(keys)
    finest = grouped_agg(ds, keys, spec, final="driver")
    re_op = {out: ("sum" if op == "count" else op)
             for out, (_s, op) in spec.items()}
    frames = []
    for s in sets:
        kept = [key for key in keys if key in s]  # canonical key order
        mask = sum(1 << (k - 1 - i)
                   for i in range(k) if keys[i] not in s)
        if len(kept) == k:
            f = finest.copy()
        elif kept:
            f = (finest.groupby(kept, sort=False, dropna=False)
                 .agg(re_op).reset_index())
        else:
            f = pd.DataFrame({out: [finest[out].agg(op)]
                              for out, op in re_op.items()})
        for key in keys:
            f[key] = f[key].astype(str) if key in kept else total_label
        f["grouping"] = np.int64(mask)
        frames.append(f)
    out = pd.concat(frames, ignore_index=True)
    out = out[keys + ["grouping"] + list(spec)]
    for col, (_s, op) in spec.items():
        if (op in ("sum", "count") and out[col].dtype.kind in "iu"
                or op == "count" and not out[col].isna().any()):
            out[col] = out[col].astype(np.int64)
    out["grouping"] = out["grouping"].astype(np.int64)
    return out.sort_values(["grouping"] + keys, kind="stable",
                           ignore_index=True)


def melt(
    ds: "ray.data.Dataset",
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "variable",
    value_name: str = "value",
) -> "ray.data.Dataset":
    """UNPIVOT (wide → long; the inverse of :func:`pivot`): one output
    row per (input row, value column), tagged with the source column
    name. All ``value_cols`` are cast to float64 — SQL UNPIVOT requires
    a common value type — and the cast is the ONLY arithmetic, so values
    pass through bit-exactly.

    Scale shape: zero-shuffle — a stateless per-batch Arrow kernel
    (len(value_cols) column selects + one concat, no row loop); output
    rows = input rows × len(value_cols), streamed with backpressure.
    """
    import pyarrow.compute as pc

    if not value_cols:
        raise ValueError("melt needs at least one value column")

    def kernel(t: pa.Table) -> pa.Table:
        n = t.num_rows
        parts = []
        for c in value_cols:
            cols = {ic: t.column(ic) for ic in id_cols}
            cols[var_name] = pa.array([c] * n, pa.string())
            cols[value_name] = pc.cast(t.column(c), pa.float64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.select_columns(id_cols + value_cols).map_batches(
        kernel, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=65536)


def unnest(
    ds: "ray.data.Dataset",
    id_cols: list[str],
    list_col: str,
    pos_col: str = "pos",
    value_name: str = "val",
) -> "ray.data.Dataset":
    """Explode an Arrow list column to one row per element with its
    0-based position — SQL ``UNNEST ... WITH ORDINALITY`` (the list-column
    counterpart of :func:`melt`; the embeddings/multimodal tables carry
    ``list<float>`` payloads this makes relational).

    Scale shape: zero-shuffle — a stateless per-batch Arrow kernel
    (offset arithmetic + one ``flatten`` + one ``take``, no Python row
    loop); output rows = sum of list lengths, streamed with
    backpressure. Null lists are rejected loudly (no silent row drops —
    SQL UNNEST drops them, so the caller should filter first).
    """
    import pyarrow.compute as pc

    def kernel(t: pa.Table) -> pa.Table:
        col = t.column(list_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count:
            raise ValueError(
                f"unnest: {list_col!r} contains NULL lists — filter them "
                "first (SQL UNNEST silently drops them; we refuse to "
                "guess)")
        n = t.num_rows
        offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        lens = np.diff(offsets)
        total = int(lens.sum())
        idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        starts = np.zeros(n + 1, np.int64)
        np.cumsum(lens, out=starts[1:])
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts[:-1], lens)
        take = pa.array(idx, pa.int64())
        cols = {c: t.column(c).take(take) for c in id_cols}
        cols[pos_col] = pa.array(pos, pa.int64())
        cols[value_name] = col.flatten()
        return pa.table(cols)

    return ds.select_columns(id_cols + [list_col]).map_batches(
        kernel, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=65536)


def dense_rank_grouped(
    ds: "ray.data.Dataset",
    key: str,
    order_col: str,
    out: str = "dense_rank",
    ascending: bool = True,
) -> "ray.data.Dataset":
    """``DENSE_RANK() OVER (PARTITION BY key ORDER BY order_col)``:
    per-group rank where TIED values share a rank and ranks have no gaps
    (equality-based, so no unique tie-break column is needed — unlike
    :func:`ntile`/row_number the output is well-defined under ties).

    Scale shape: one hash-bucket shuffle on the key
    (:func:`group_apply` whole-bucket mode), then ONE vectorized pass per
    bucket: sort by (key, order_col), a shift-compare step mask, and a
    cumsum that restarts at key boundaries. No per-key Python loop.
    """
    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order_col], kind="stable",
                          ascending=[True, ascending]).reset_index(drop=True)
        if not len(g):
            g[out] = pd.Series([], dtype=np.int64)
            return g
        # NULL-stable boundary masks: SQL PARTITION BY groups NULL keys
        # together and ranking treats NULL order values as ties, but
        # NaN.eq(NaN) is False — OR in the both-null case (ADVICE r4)
        k, kp = g[key], g[key].shift()
        v, vp = g[order_col], g[order_col].shift()
        new_key = ~(k.eq(kp) | (k.isna() & kp.isna())).to_numpy()
        new_val = ~(v.eq(vp) | (v.isna() & vp.isna())).to_numpy()
        # shift() pads row 0 with NaN, which the both-null clause would
        # read as a continuation when the first KEY is itself NULL
        new_key[0] = new_val[0] = True
        step = (new_key | new_val).astype(np.int64)
        cs = np.cumsum(step)
        start = np.maximum.accumulate(np.where(new_key, cs, 0))
        g = g.copy()
        g[out] = cs - start + 1
        return g

    return group_apply(ds, key, kernel, batch_format="pandas",
                       whole_bucket=True)


def rank_stats_grouped(
    ds: "ray.data.Dataset",
    key: str,
    order_col: str,
    ascending: bool = True,
) -> "ray.data.Dataset":
    """``PERCENT_RANK()`` and ``CUME_DIST() OVER (PARTITION BY key ORDER
    BY order_col)`` in one pass: pct_rank = (rank-1)/(n-1) (0 for a
    1-row partition), cume_dist = (last-peer position)/n. Both are
    tie-aware, so the output values are well-defined without a unique
    tie-break column.

    Scale shape: one hash-bucket shuffle on the key (:func:`group_apply`
    whole-bucket mode), then one vectorized pass per bucket — sort,
    NULL-stable boundary masks, forward/backward ``maximum.accumulate``
    for first-peer / last-peer / group-end positions. No per-key loop.
    """
    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, order_col], kind="stable",
                          ascending=[True, ascending]).reset_index(drop=True)
        if not len(g):
            g["pct_rank"] = pd.Series([], dtype=np.float64)
            g["cume_dist"] = pd.Series([], dtype=np.float64)
            return g
        k, kp = g[key], g[key].shift()
        v, vp = g[order_col], g[order_col].shift()
        new_key = ~(k.eq(kp) | (k.isna() & kp.isna())).to_numpy()
        new_val = ~(v.eq(vp) | (v.isna() & vp.isna())).to_numpy()
        new_key[0] = new_val[0] = True
        tie_start = new_key | new_val
        n = len(g)
        pos = np.arange(n, dtype=np.int64)
        gs = np.maximum.accumulate(np.where(new_key, pos, 0))
        first_peer = np.maximum.accumulate(np.where(tie_start, pos, 0))
        # last row of the group / of the tie-run: reversed accumulate over
        # the NEXT-row boundary mask
        nxt_key = np.r_[new_key[1:], True]
        nxt_tie = np.r_[tie_start[1:], True]
        ge = n - 1 - np.flip(np.maximum.accumulate(
            np.flip(np.where(nxt_key, n - 1 - pos, 0))))
        last_peer = n - 1 - np.flip(np.maximum.accumulate(
            np.flip(np.where(nxt_tie, n - 1 - pos, 0))))
        size = (ge - gs + 1).astype(np.float64)
        rank = (first_peer - gs + 1).astype(np.float64)
        g = g.copy()
        g["pct_rank"] = np.where(size > 1, (rank - 1.0) / np.maximum(size - 1.0, 1.0), 0.0)
        g["cume_dist"] = (last_peer - gs + 1).astype(np.float64) / size
        return g

    return group_apply(ds, key, kernel, batch_format="pandas",
                       whole_bucket=True)


def pivot(
    ds: "ray.data.Dataset",
    index: str,
    columns: str,
    values: str,
    op: str = "sum",
    fill: int = 0,
) -> pd.DataFrame:
    """Crosstab (SQL PIVOT via conditional aggregation): one row per
    ``index`` value, one column per distinct ``columns`` value (sorted,
    stringified), cells = ``op`` of ``values`` over the (index, column)
    group, missing combinations = ``fill``. Distributive ops only.

    Scale shape: ONE distributed partial pass at the (index, columns)
    grain (:func:`grouped_agg`); the reshape runs on the driver over the
    already-aggregated result — |index| × |columns| cells, the
    human-scale contract pivot implies (a million-column pivot is a
    modeling error, not a scale problem)."""
    if op not in ("sum", "count", "min", "max"):
        raise ValueError(f"pivot supports distributive ops only, got {op!r}")
    # NB: grouped_agg strips "__"-prefixed columns in its finish step
    finest = grouped_agg(ds, [index, columns], {"_pv": (values, op)})
    if len(finest) == 0:
        return pd.DataFrame({index: pd.Series([], dtype=object)})
    wide = finest.pivot(index=index, columns=columns, values="_pv")
    wide = wide.reindex(sorted(wide.columns), axis=1)
    if op in ("sum", "count"):
        wide = wide.fillna(fill)
        if finest["_pv"].dtype.kind not in "fc":
            wide = wide.astype(np.int64)
    wide.columns = [str(c) for c in wide.columns]
    return wide.reset_index().sort_values(index, ignore_index=True)

def _moment_products(*cols: np.ndarray) -> np.ndarray:
    """Elementwise product of int64 columns for moment partials, exact.

    int64 silently wraps where the SQL oracle sums BIGINT into HUGEINT
    (ADVICE r4): when the batch-sum bound ``n · Πmax|c|`` could exceed
    int64, fall back to Python-int (object) products — exact at any
    magnitude; the common small-magnitude path stays vectorized int64."""
    import math

    n = cols[0].size
    if n:
        bound = math.prod(int(np.abs(c).max()) for c in cols)
        if bound and n > (2**63 - 1) // bound:
            out = cols[0].astype(object)
            for c in cols[1:]:
                out = out * c.astype(object)
            return out
    out = cols[0]
    for c in cols[1:]:
        out = out * c
    return out


def _exact_sum_cols(p: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    """Promote partial-sum columns to Python ints before a driver-side
    combine so the final reduce cannot wrap (exact, key-bounded rows)."""
    p = p.copy()
    for c in cols:
        p[c] = p[c].map(int)
    return p


def _shrink_moments(p: pd.DataFrame, cols: list[str], what: str) -> pd.DataFrame:
    """After an exact (possibly object-int) grouped partial sum, shrink
    back to Arrow-transportable int64 — raising via :func:`_fit_int64`
    if a group's exact sum genuinely cannot fit."""
    for c in cols:
        if p[c].dtype == object:
            p[c] = p[c].map(lambda s: _fit_int64(s, what)).astype(np.int64)
    return p


def _fit_int64(s: int, what: str) -> int:
    """Partial sums ship through Arrow blocks as int64; a batch whose
    EXACT moment sum exceeds int64 cannot be transported losslessly —
    raise with the contract bound instead of silently wrapping (the SQL
    oracle sums BIGINT into HUGEINT and would stay exact, ADVICE r4)."""
    if -(2**63) <= s < 2**63:
        return int(s)
    raise ValueError(
        f"{what}: exact per-batch moment sum {s} exceeds int64 — rescale "
        "the value column (contract bound: sum of |x·y| per 131072-row "
        "batch must fit int64)")


def correlation(
    ds: "ray.data.Dataset", x: str, y: str
) -> pd.DataFrame:
    """Pearson correlation of two INTEGER columns as one streaming pass:
    per-batch partial sums (n, Σx, Σy, Σxy, Σx², Σy²) — six int64 scalars
    per batch, summed on the driver — then ONE float expression
    ``(nΣxy − ΣxΣy) / (sqrt(nΣx²−Σx²)·sqrt(nΣy²−Σy²))`` over the exact
    integer totals. Because every engine computes the same expression
    from the same integers (cast to double first — the raw products
    overflow int64 at scale), the result is bit-identical to a SQL
    replay. Returns one row ``(n, corr)``; corr is NULL-free only when
    both columns vary (zero variance → NaN, matching SQL corr)."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        xv = df[x].to_numpy(np.int64)
        yv = df[y].to_numpy(np.int64)
        f = lambda *c: _fit_int64(int(_moment_products(*c).sum()), "correlation")
        return pd.DataFrame({
            "n": [np.int64(xv.size)],
            "sx": [f(xv)], "sy": [f(yv)],
            "sxy": [f(xv, yv)], "sxx": [f(xv, xv)], "syy": [f(yv, yv)],
        })

    p = ds.map_batches(partial, batch_format="pandas",
                       batch_size=131072).to_pandas()
    p = _exact_sum_cols(p, ["sx", "sy", "sxy", "sxx", "syy"])
    n, sx, sy = float(p["n"].sum()), float(p["sx"].sum()), float(p["sy"].sum())
    sxy, sxx, syy = (float(p["sxy"].sum()), float(p["sxx"].sum()),
                     float(p["syy"].sum()))
    denom = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
    corr = (n * sxy - sx * sy) / denom if denom > 0 else float("nan")
    return pd.DataFrame({"n": [np.int64(n)], "corr": [corr]})


def zscore_grouped(
    ds: "ray.data.Dataset", key: str, x: str, out: str = "z"
) -> "ray.data.Dataset":
    """Per-group z-score standardization of an INTEGER column: append
    ``z = (x - mean_g) / std_g`` (population std, matching SQL
    ``stddev_pop``; zero-variance groups get NULL-propagating NaN).

    Scale shape: one partial pass collects per-batch-distinct-key int64
    moment sums (n, Σx, Σx²) — distributive, driver-combined into one
    row per key — then the key table broadcasts (``ray.put`` once, read
    via the per-worker cache) and a stateless map standardizes every row
    vectorized; no shuffle ever moves the data rows. The float
    expression is pinned so a SQL replay over the same integer sums is
    bit-identical: ``z = (n*x - sx) / sqrt(n*sxx - sx*sx)`` — which is
    algebraically exactly ``(x - mean) / stddev_pop`` (multiply
    numerator and denominator by n).
    """
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        xv = df[x].to_numpy(np.int64)
        t = pd.DataFrame({key: df[key].to_numpy(),
                          "n": np.ones(len(df), np.int64),
                          "sx": _moment_products(xv),
                          "sxx": _moment_products(xv, xv)})
        # dropna=False: NULL keys form one group (SQL GROUP BY), instead
        # of silently vanishing and then KeyError-ing the lookup (ADVICE r4)
        out = t.groupby(key, sort=False, as_index=False, dropna=False).sum()
        return _shrink_moments(out, ["sx", "sxx"], "zscore_grouped")

    p = ds.select_columns([key, x]).map_batches(
        partial, batch_format="pandas", batch_size=131072).to_pandas()
    p = _exact_sum_cols(p, ["sx", "sxx"])  # driver combine cannot wrap
    tot = p.groupby(key, sort=True, as_index=False, dropna=False).sum()
    moments_ref = ray.put(tot)

    def standardize(df: pd.DataFrame) -> pd.DataFrame:
        from whoiswho_ray.stages.joins import _cached_get
        m = _cached_get(moments_ref)
        # left-merge instead of .loc: pandas merge matches NaN keys, so
        # NULL-key rows standardize against the NULL group's moments
        g = df[[key]].merge(m, on=key, how="left")
        n = g["n"].to_numpy(np.float64)
        sx = g["sx"].to_numpy(np.float64)
        sxx = g["sxx"].to_numpy(np.float64)
        xv = df[x].to_numpy(np.int64).astype(np.float64)
        denom = np.sqrt(n * sxx - sx * sx)
        df = df.copy()
        with np.errstate(invalid="ignore", divide="ignore"):
            df[out] = np.where(denom > 0,
                               (n * xv - sx)
                               / np.where(denom > 0, denom, 1.0),
                               np.nan)
        return df

    return ds.map_batches(standardize, batch_format="pandas",
                          batch_size=131072)


def grouped_correlation(
    ds: "ray.data.Dataset", key: str, x: str, y: str
) -> pd.DataFrame:
    """Per-group Pearson correlation of two INTEGER columns — the grouped
    form of :func:`correlation`: six int64 partial sums per batch-distinct
    key (the partials are distributive, so the moving rows are bounded by
    batch-distinct keys, not raw rows), one key-bounded driver combine
    (one row per key), then the SAME float expression as the global
    operator evaluated per key — bit-identical to a SQL replay that
    computes the expression from the same integer sums. Returns
    ``(key, n, corr)`` sorted by key; zero-variance groups get NaN,
    matching SQL ``corr``."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        xv = df[x].to_numpy(np.int64)
        yv = df[y].to_numpy(np.int64)
        t = pd.DataFrame({key: df[key].to_numpy(),
                          "n": np.ones(len(df), np.int64),
                          "sx": _moment_products(xv),
                          "sy": _moment_products(yv),
                          "sxy": _moment_products(xv, yv),
                          "sxx": _moment_products(xv, xv),
                          "syy": _moment_products(yv, yv)})
        # dropna=False: NULL keys form one group, matching SQL GROUP BY
        out = t.groupby(key, sort=False, as_index=False, dropna=False).sum()
        return _shrink_moments(out, ["sx", "sy", "sxy", "sxx", "syy"],
                               "grouped_correlation")

    p = ds.map_batches(partial, batch_format="pandas",
                       batch_size=131072).to_pandas()
    p = _exact_sum_cols(p, ["sx", "sy", "sxy", "sxx", "syy"])
    tot = p.groupby(key, sort=True, as_index=False, dropna=False).sum()
    n = tot["n"].to_numpy(np.float64)
    sx, sy = tot["sx"].to_numpy(np.float64), tot["sy"].to_numpy(np.float64)
    sxy = tot["sxy"].to_numpy(np.float64)
    sxx, syy = tot["sxx"].to_numpy(np.float64), tot["syy"].to_numpy(np.float64)
    denom = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
    corr = np.where(denom > 0,
                    (n * sxy - sx * sy) / np.where(denom > 0, denom, 1.0),
                    np.nan)
    return pd.DataFrame({key: tot[key], "n": tot["n"].astype(np.int64),
                         "corr": corr})


def grouped_linreg(
    ds: "ray.data.Dataset", key: str, x: str, y: str
) -> pd.DataFrame:
    """Per-group ordinary-least-squares fit of two INTEGER columns —
    closed form from the same six exact moment sums as
    :func:`grouped_correlation` (per-batch int64 partials with the
    object-int overflow escape, key-bounded driver combine), then

    * ``slope``     = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)
    * ``intercept`` = (Σy − slope·Σx) / n
    * ``r2``        = (n·Σxy − Σx·Σy)² / ((n·Σx²−(Σx)²)(n·Σy²−(Σy)²))

    evaluated in float64 with each exact sum cast FIRST (the oracle
    casts the same sums to DOUBLE the same way, so the floats are
    bit-identical). Zero-x-variance groups get NULL slope/intercept;
    r2 is NULL when either variance is zero. Returns
    ``(key, n, slope, intercept, r2)`` sorted by key.
    """
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        xv = df[x].to_numpy(np.int64)
        yv = df[y].to_numpy(np.int64)
        t = pd.DataFrame({key: df[key].to_numpy(),
                          "n": np.ones(len(df), np.int64),
                          "sx": _moment_products(xv),
                          "sy": _moment_products(yv),
                          "sxy": _moment_products(xv, yv),
                          "sxx": _moment_products(xv, xv),
                          "syy": _moment_products(yv, yv)})
        out = t.groupby(key, sort=False, as_index=False, dropna=False).sum()
        return _shrink_moments(out, ["sx", "sy", "sxy", "sxx", "syy"],
                               "grouped_linreg")

    p = ds.map_batches(partial, batch_format="pandas",
                       batch_size=131072).to_pandas()
    p = _exact_sum_cols(p, ["sx", "sy", "sxy", "sxx", "syy"])
    tot = p.groupby(key, sort=True, as_index=False, dropna=False).sum()
    n = tot["n"].to_numpy(np.float64)
    sx, sy = tot["sx"].to_numpy(np.float64), tot["sy"].to_numpy(np.float64)
    sxy = tot["sxy"].to_numpy(np.float64)
    sxx, syy = tot["sxx"].to_numpy(np.float64), tot["syy"].to_numpy(np.float64)
    cov_n = n * sxy - sx * sy
    var_x = n * sxx - sx * sx
    var_y = n * syy - sy * sy
    ok_x = var_x > 0
    slope = np.where(ok_x, cov_n / np.where(ok_x, var_x, 1.0), np.nan)
    intercept = np.where(ok_x, (sy - slope * sx) / n, np.nan)
    ok_r = ok_x & (var_y > 0)
    r2 = np.where(ok_r, (cov_n * cov_n)
                  / np.where(ok_r, var_x * var_y, 1.0), np.nan)
    return pd.DataFrame({key: tot[key], "n": tot["n"].astype(np.int64),
                         "slope": slope, "intercept": intercept,
                         "r2": r2})


def mode_per_group(
    ds: "ray.data.Dataset",
    keys: str | list[str],
    col: str,
    out: str = "mode_val",
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Per-group MODE (most frequent value of ``col``; ties broken by the
    smallest value — the deterministic tie-break SQL expresses as
    ``ROW_NUMBER() OVER (PARTITION BY keys ORDER BY count(*) DESC, col)``).

    Scale shape: one per-batch ``groupby(keys+[col]).size()`` partial (the
    moving rows are bounded by batch-distinct (key, value) pairs, not raw
    rows), then ONE bucketed shuffle on the KEY hash — all of a key's
    values co-locate — and a vectorized combine inside each bucket task:
    sum the partial counts, sort by (keys, count desc, value asc), keep
    the first row per key. No driver materialization.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    nb = num_buckets or _num_buckets()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys + [col], sort=False, dropna=False).size()
        p = g.rename("__cnt").reset_index()
        h = np.zeros(len(p), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for k in keys:
                h = h * np.uint64(1099511628211) ^ pd.util.hash_pandas_object(
                    p[k], index=False).to_numpy().astype(np.uint64)
        p["__bucket"] = (h % np.uint64(nb)).astype(np.int64)
        return p

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        df = g.drop(columns=["__bucket"])
        tot = df.groupby(keys + [col], sort=False, dropna=False)["__cnt"].sum(
        ).reset_index()
        tot = tot.sort_values(
            keys + ["__cnt", col], ascending=[True] * len(keys) + [False, True],
            kind="stable")
        best = tot.drop_duplicates(subset=keys, keep="first")
        return best.drop(columns=["__cnt"]).rename(columns={col: out})

    partials = ds.map_batches(partial, batch_format="pandas",
                              batch_size=131072)
    return partials.groupby("__bucket").map_groups(combine,
                                                   batch_format="pandas")


def arg_extreme_grouped(
    ds: "ray.data.Dataset",
    key: str,
    by: str,
    cols: list[str],
    mode: str = "max",
) -> "ray.data.Dataset":
    """SQL ``max_by`` / ``arg_max`` (or min) with a DETERMINISTIC
    tie-break: per key, the whole row (``key``, ``by``, ``cols``) whose
    ``by`` is extreme; ties broken by the smallest ``cols`` tuple — the
    order SQL expresses as ``ROW_NUMBER() OVER (PARTITION BY key ORDER
    BY by DESC|ASC, cols...) = 1`` (bare SQL max_by leaves ties
    engine-defined; we pin them).

    Scale shape: the extreme is DISTRIBUTIVE — each batch keeps one
    winner per batch-distinct key (one vectorized sort +
    drop_duplicates), so at most batch-distinct-keys rows move; one
    key-hash bucketed shuffle re-runs the same kernel per bucket for the
    global winner. No driver materialization.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"arg_extreme_grouped: mode must be max|min, "
                         f"got {mode!r}")
    proj = ds.select_columns([key, by] + cols)
    asc = [True, mode == "min"] + [True] * len(cols)

    def winners(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, by] + cols, ascending=asc, kind="stable")
        return df.drop_duplicates(subset=[key], keep="first")

    partials = proj.map_batches(winners, batch_format="pandas",
                                batch_size=131072)
    return group_apply(partials, key, winners, batch_format="pandas",
                       whole_bucket=True)


def string_agg_grouped(
    ds: "ray.data.Dataset",
    key: str,
    col: str,
    sep: str = ",",
    distinct: bool = False,
    out: str = "agg_list",
) -> "ray.data.Dataset":
    """Per-group ordered string aggregation — SQL
    ``string_agg([DISTINCT] col, sep ORDER BY col)``.

    One bucketed shuffle via :func:`group_apply` (whole-bucket mode: the
    bucket task sorts once by (key, col) and runs a single vectorized
    ``groupby(key).agg(join)`` across all of its keys). Values join in
    ascending ``col`` order, so the output is deterministic regardless of
    input partitioning; duplicate values within a key are kept unless
    ``distinct``. Rows with NULL ``col`` are skipped, matching SQL
    string_agg.
    """
    proj = ds.select_columns([key, col])

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[col].notna()]
        if distinct:
            df = df.drop_duplicates(subset=[key, col])
        df = df.sort_values([key, col], kind="stable")
        g = df.groupby(key, sort=False)[col].agg(
            lambda s: sep.join(s.astype(str)))
        return g.rename(out).reset_index()

    return group_apply(proj, key, per_bucket, batch_format="pandas",
                       whole_bucket=True)


def histogram(
    ds: "ray.data.Dataset", col: str, lo: int, hi: int, nbins: int
) -> pd.DataFrame:
    """Equi-width integer histogram of ``col`` over ``[lo, hi)``: bucket
    ``b = (x - lo) * nbins // (hi - lo)`` for in-range values, ``-1``
    below, ``nbins`` at-or-above — all integer arithmetic, so a SQL
    replay with the same ``//`` expression is exact. One streaming pass:
    per-batch ``np.bincount`` partials (nbins+2 int64 counters per batch),
    summed on the driver. Returns ``(bucket, n)`` rows for non-empty
    buckets only, matching a SQL GROUP BY.
    """
    width = int(hi) - int(lo)
    if width <= 0 or nbins <= 0:
        raise ValueError("histogram: need hi > lo and nbins > 0")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[col].to_numpy(np.int64)
        b = (x - np.int64(lo)) * np.int64(nbins) // np.int64(width)
        b = np.where(x < lo, np.int64(-1), np.where(x >= hi, np.int64(nbins), b))
        counts = np.bincount(b + 1, minlength=nbins + 2).astype(np.int64)
        return pd.DataFrame({"__b": np.arange(-1, nbins + 1, dtype=np.int64),
                             "n": counts})

    p = ds.select_columns([col]).map_batches(
        partial, batch_format="pandas", batch_size=131072).to_pandas()
    tot = p.groupby("__b", sort=True)["n"].sum().reset_index()
    tot = tot[tot["n"] > 0].rename(columns={"__b": "bucket"})
    return tot.reset_index(drop=True)


def _ntile_of_rank(rank0: np.ndarray, total: int, n: int) -> np.ndarray:
    """SQL NTILE bucket (1-based) for 0-based global ranks: the first
    ``total % n`` tiles get ``total // n + 1`` rows, the rest ``total // n``."""
    q, rem = divmod(int(total), int(n))
    cutoff = rem * (q + 1)
    small = np.maximum(rank0 - cutoff, 0)
    big = np.minimum(rank0, cutoff)
    tile = np.where(rank0 < cutoff, big // max(q + 1, 1),
                    rem + small // max(q, 1))
    return (tile + 1).astype(np.int64)


def ntile(
    ds: "ray.data.Dataset",
    sort_cols: list[str],
    n: int,
    tile_col: str = "tile",
) -> "ray.data.Dataset":
    """SQL ``NTILE(n) OVER (ORDER BY sort_cols)``: assign each row to one
    of ``n`` equal-as-possible tiles of the global sort order.

    ``sort_cols`` must be a TOTAL order (include a unique tie-break column)
    or tile membership at tile boundaries is partition-dependent. One
    distributed sort, then :func:`with_global_rank`'s per-block offset
    tasks (no second shuffle, no driver rows) and a vectorized rank→tile
    map using the exact NTILE fill rule.
    """
    s = ds.sort(sort_cols).materialize()
    total = s.count()
    ranked = with_global_rank(s, rank_col="__rank")

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[tile_col] = _ntile_of_rank(
            df["__rank"].to_numpy(np.int64), total, n)
        return df.drop(columns=["__rank"])

    return ranked.map_batches(assign, batch_format="pandas",
                              batch_size=131072)


def robust_stats_grouped(
    ds: "ray.data.Dataset",
    key: str,
    col: str,
    k: float = 1.5,
) -> pd.DataFrame:
    """Per-group robust dispersion + outlier screen: interpolated median,
    MAD (median absolute deviation, itself interpolated), and the count
    of rows with ``|x − median| > k·MAD`` — the robust alternative to
    z-scores that a data-quality gate runs on heavy-tailed columns.

    Three streaming passes, each with one bounded-bucket exchange:
    (1) per-key median via :func:`grouped_quantiles_cont` (bit-parity
    with SQL ``quantile_cont``), collected to the driver (O(distinct
    keys)) and broadcast; (2) the same machinery over the derived
    ``|x − median|`` column for the MAD; (3) per-batch partial
    (n, n_outliers) counts combined per key. All float expressions are
    evaluated in the same order a SQL replay computes them from the
    same interpolated medians, so results hash bit-identical. NULL
    values are excluded (SQL aggregate semantics); NULL KEYS are
    rejected loudly — the broadcast median lookup cannot key on NaN.
    Returns ``(key, n, median, mad, n_outliers)`` sorted by key.
    """
    def _no_null_keys(s: pd.Series):
        if s.isna().any():
            raise ValueError("robust_stats_grouped: NULL keys are "
                             "unsupported (broadcast lookup keys on the "
                             "group value)")

    med = grouped_quantiles_cont(ds, key, col, [0.5]).to_pandas()
    med_lut = dict(zip(med[key], med["value"]))

    def add_ad(df: pd.DataFrame) -> pd.DataFrame:
        _no_null_keys(df[key])
        m = df[key].map(med_lut)
        return pd.DataFrame({key: df[key],
                             "ad": (df[col] - m).abs()})

    ad = ds.map_batches(add_ad, batch_format="pandas",
                        batch_size=131072)
    mad = grouped_quantiles_cont(ad, key, "ad", [0.5]).to_pandas()
    mad_lut = dict(zip(mad[key], mad["value"]))

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        _no_null_keys(df[key])
        v = df[col]
        ok = v.notna()
        m = df[key].map(med_lut)
        d = (v - m).abs()
        out = (d > k * df[key].map(mad_lut)) & ok
        t = pd.DataFrame({key: df[key],
                          "n": ok.to_numpy().astype(np.int64),
                          "n_outliers": out.to_numpy().astype(np.int64)})
        return t.groupby(key, sort=False, as_index=False).sum()

    p = ds.map_batches(flag, batch_format="pandas",
                       batch_size=131072).to_pandas()
    tot = p.groupby(key, sort=True, as_index=False).sum()
    out = pd.DataFrame({
        key: tot[key],
        "n": tot["n"].astype(np.int64),
        "median": tot[key].map(med_lut).astype(np.float64),
        "mad": tot[key].map(mad_lut).astype(np.float64),
        "n_outliers": tot["n_outliers"].astype(np.int64),
    })
    return out


def ntile_grouped(
    ds: "ray.data.Dataset",
    key: str,
    sort_cols: list[str],
    n: int,
    tile_col: str = "tile",
) -> "ray.data.Dataset":
    """``NTILE(n) OVER (PARTITION BY key ORDER BY sort_cols)`` — the
    per-group equi-depth binning :func:`ntile` provides globally.
    ``sort_cols`` must totally order rows within a key (include a
    unique tie-break). One key-hash bucketed exchange; inside each
    bucket the kernel is one sort + transform('size') + cumcount and
    the vectorized NTILE fill rule (first ``size % n`` tiles get one
    extra row) across ALL keys at once — no per-key Python.
    """
    from whoiswho_ray.stages.agg import group_apply

    if n < 1:
        raise ValueError("ntile_grouped needs n >= 1")

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df.assign(**{tile_col: pd.Series([], dtype=np.int64)})
        df = df.sort_values([key] + sort_cols, kind="stable")
        g = df.groupby(key, sort=False, dropna=False)
        sizes = g[key].transform("size").to_numpy(np.int64)
        rank0 = g.cumcount().to_numpy(np.int64)
        q, rem = sizes // n, sizes % n
        cutoff = rem * (q + 1)
        tile = np.where(rank0 < cutoff,
                        rank0 // np.maximum(q + 1, 1),
                        rem + (rank0 - cutoff) // np.maximum(q, 1))
        out = df.copy()
        out[tile_col] = (tile + 1).astype(np.int64)
        return out

    return group_apply(ds, key, bucket, batch_format="pandas",
                       whole_bucket=True)


def weighted_median_grouped(
    ds: "ray.data.Dataset",
    key: str,
    value_col: str,
    weight_col: str,
) -> "ray.data.Dataset":
    """Per-group LOWER WEIGHTED MEDIAN of integer values: the smallest
    value v with ``2·cumweight(v) ≥ totalweight`` under ascending value
    order — the no-interpolation definition whose comparisons are all
    exact integers, so the SQL window-cumsum replay matches bit-for-bit
    (a float-interpolated weighted median has no SQL counterpart).

    Scale shape: per-batch (key, value) weight-sum partials (the
    combiner — moving rows bounded by batch-distinct pairs), one
    key-hash bucketed exchange, then one vectorized pass per bucket:
    lexsort, per-key weight cumsum via boundary-offset subtraction, and
    a searchsorted pluck of each key's first qualifying value. Returns
    ``(key, wmedian, total_weight)``. Negative weights raise
    ``ValueError``: they would break the cumsum's monotonicity, which
    the pluck relies on.
    """
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = df[weight_col].astype(np.int64)
        if len(w) and w.min() < 0:
            raise ValueError("weighted_median_grouped requires non-negative weights")
        t = pd.DataFrame({key: df[key], "v": df[value_col], "w": w})
        return (t.groupby([key, "v"], sort=False, dropna=False)["w"]
                .sum().reset_index())

    parts = ds.map_batches(partial, batch_format="pandas",
                           batch_size=131072)

    def bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({key: pa.array([], t.column(key).type),
                             "wmedian": pa.array([], pa.int64()),
                             "total_weight": pa.array([], pa.int64())})
        keys = t.column(key).to_numpy(zero_copy_only=False)
        vals = t.column("v").to_numpy(zero_copy_only=False)
        w = t.column("w").to_numpy(zero_copy_only=False)
        order = np.lexsort((vals, keys))
        sk, sv, sw = keys[order], vals[order], w[order]
        # combine duplicate (key, value) partials, then cumsum per key
        bounds = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1], True])
        starts = bounds[:-1]
        cum = np.cumsum(sw)
        base = np.repeat(np.r_[0, cum[starts[1:] - 1]]
                         if len(starts) > 1 else [0],
                         np.diff(bounds))
        kcum = cum - base
        tot = kcum[bounds[1:] - 1]
        tot_row = np.repeat(tot, np.diff(bounds))
        ok = 2 * kcum >= tot_row
        # first qualifying row per key: ok is monotone within a key
        first = np.minimum.reduceat(
            np.where(ok, np.arange(len(sk)), len(sk)), starts)
        return pa.table({
            key: pa.array(sk[starts], t.column(key).type),
            "wmedian": pa.array(sv[first].astype(np.int64)),
            "total_weight": pa.array(tot.astype(np.int64)),
        })

    return group_apply(parts, key, bucket, batch_format="pyarrow",
                       whole_bucket=True)


def top_k_ties_grouped(
    ds: "ray.data.Dataset",
    key: str,
    order_col: str,
    k: int,
    desc: bool = True,
) -> "ray.data.Dataset":
    """Per-group top-k WITH TIES: every row whose SQL
    ``RANK() OVER (PARTITION BY key ORDER BY order_col [DESC])`` is
    ≤ k — unlike row_number-based caps (``cap_per_group``), tie groups
    straddling the cut are kept whole, so the result is deterministic
    without a tie-break column. Emits the rank.

    Scale shape: the prune is rank-monotone — a row's rank within any
    SUBSET of its group is a lower bound on its global rank, so each
    batch can safely keep only its own rank-≤-k rows (the combiner;
    ties may make that more than k rows, never fewer than needed);
    one key-hash bucketed exchange then computes the exact global rank
    per key, vectorized across keys (lexsort + boundary masks).
    """
    if k < 1:
        raise ValueError("top_k_ties_grouped needs k >= 1")
    asc = not desc

    def ranked(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, order_col],
                            ascending=[True, asc], kind="stable")
        kv = df[key]
        new_key = ~(kv.eq(kv.shift()) | (kv.isna() & kv.shift().isna()))
        ov = df[order_col]
        new_val = ~(ov.eq(ov.shift()) | (ov.isna() & ov.shift().isna()))
        pos = np.arange(len(df), dtype=np.int64)
        boundary = (new_key | new_val).to_numpy()
        start_of_key = np.where(new_key.to_numpy(), pos, -1)
        start_of_key = np.maximum.accumulate(start_of_key)
        rank_anchor = np.where(boundary, pos, -1)
        rank_anchor = np.maximum.accumulate(rank_anchor)
        rank = rank_anchor - start_of_key + 1
        out = df.copy()
        out["rank"] = rank
        return out[rank <= k]

    partial = ds.map_batches(
        lambda df: ranked(df).drop(columns=["rank"]),
        batch_format="pandas", batch_size=131072)
    return group_apply(partial, key, ranked, batch_format="pandas",
                       whole_bucket=True)
