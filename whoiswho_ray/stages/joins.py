"""Join operators (SURVEY.md §2.4).

Two physical strategies, chosen by the caller the way the reference
chooses build sides implicitly (its joins are all dict lookups against an
in-memory build side, ``/root/reference/whoiswho/dataset/
data_process.py:74-84``):

* ``broadcast_join`` — small build side: ``ray.put`` the pandas frame
  once; every map task merges against the shared object-store copy. No
  shuffle. This is the J1/J2-style semi/lookup join.
* ``shuffle_hash_join`` — both sides large: explicit partitioned hash
  join (bucket on ``hash(key) % B``, co-group buckets, merge per bucket).
  The portable pattern recommended by the Ray Data docs when
  ``Dataset.join`` isn't suitable; B is the caller-visible partitioning
  knob, skewed keys can be pre-salted by the caller.

Every hash-bucket shuffle of the library is :func:`cogroup`: the joins
here, the as-of joins, ``diff``, the grouped aggregates, dedup, the
graph rounds and connected components. It reads no schema, so a lazy
input runs once, inside the shuffle (NOTES facts 10, 17 and 18).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

import ray
import ray.data


def as_plain(col, typ):
    """``col`` as type ``typ``; a tensor-extension or all-null column
    headed for a list type becomes that plain list (an all-null column
    is how Ray stores a column of only empty arrays: each row becomes an
    empty list)."""
    import pyarrow as pa

    from whoiswho_ray.stages.pairs import _flat_list

    if not pa.types.is_list(typ) or not (isinstance(col.type, pa.ExtensionType)
                                         or pa.types.is_null(col.type)):
        return col.cast(typ)
    values, offsets = ((np.empty(0), np.zeros(len(col) + 1, np.int64))
                       if pa.types.is_null(col.type) else _flat_list(col))
    return pa.ListArray.from_arrays(pa.array(offsets.astype(np.int32)),
                                    pa.array(values, typ.value_type))


#: Fixed hash assigned to NULL key values — keeps nulls co-located without
#: ever letting a null-induced pandas dtype promotion change a VALUE's hash.
_NULL_HASH = np.uint64(0x9E3779B97F4A7C15)


def _col_hash(col) -> np.ndarray:
    """uint64 hash of one Arrow (chunked) key column, stable under nulls.

    ``to_pandas()`` on an int64 column promotes to float64 only in batches
    that happen to contain nulls, and pandas hashes int64 ``2`` and float64
    ``2.0`` differently — the same key value would land in different shuffle
    buckets across batches/sides (ADVICE r3). Canonicalize the dtype FIRST
    (ints/bools/temporals → int64, floats → float64), hash the null-filled
    values, then stamp null positions with a fixed sentinel hash.
    """
    import pyarrow as pa

    t = col.type
    if pa.types.is_date(t) or pa.types.is_time(t):
        # no direct cast to int64: go through the storage integer
        col = col.cast(pa.int32() if t.bit_width == 32 else pa.int64())
        t = col.type
    if (pa.types.is_integer(t) or pa.types.is_boolean(t)
            or pa.types.is_temporal(t)):
        c = col.cast(pa.int64())
        mask = c.is_null().to_numpy(zero_copy_only=False)
        vals = c.fill_null(0).to_numpy(zero_copy_only=False)
    elif pa.types.is_floating(t):
        c = col.cast(pa.float64())
        mask = c.is_null().to_numpy(zero_copy_only=False)
        vals = c.fill_null(0.0).to_numpy(zero_copy_only=False)
    else:
        s = col.to_pandas()
        mask = s.isna().to_numpy()
        h = pd.util.hash_pandas_object(s, index=False).to_numpy().astype(
            np.uint64)
        if mask.any():
            h = h.copy()
            h[mask] = _NULL_HASH
        return h
    h = pd.util.hash_array(vals).astype(np.uint64)
    if mask.any():
        h[mask] = _NULL_HASH
    return h


def _key_hash(t, keys: list[str]) -> np.ndarray:
    """Deterministic uint64 hash of one or more key columns of an Arrow
    table (FNV-style combine of per-column siphashes; dtype-canonical and
    null-stable, see ``_col_hash``)."""
    h = np.zeros(t.num_rows, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            h = h * np.uint64(1099511628211) ^ _col_hash(t.column(k))
    return h


def _plain(t):
    """``t`` with every column a shuffle can carry: a tensor-extension
    column (a pandas-built column of 1-D arrays) becomes the plain list of
    its scalar type, and a null column that the block's pandas metadata
    records as arrays (how Ray stores a column of only empty arrays)
    becomes empty lists of that dtype (:func:`as_plain`)."""
    import json

    import pyarrow as pa

    meta = (t.schema.metadata or {}).get(b"pandas")
    arrays = {}
    if meta and any(pa.types.is_null(f.type) for f in t.schema):
        for c in json.loads(meta)["columns"]:
            m = re.match(r"numpy\.ndarray\(.*dtype=(\w+)\)$", str(c.get("numpy_type")))
            if m:
                arrays[c["name"]] = pa.list_(pa.from_numpy_dtype(np.dtype(m.group(1))))
    for i, f in enumerate(t.schema):
        typ = (pa.list_(f.type.scalar_type) if isinstance(f.type, pa.ExtensionType)
               and hasattr(f.type, "scalar_type")
               else arrays.get(f.name) if pa.types.is_null(f.type) else None)
        if typ is not None:
            t = t.set_column(i, f.name, as_plain(t.column(i), typ))
    return t


def _ipc_blobs(tables) -> "pa.Array":
    """One Arrow IPC stream per table, as a ``large_binary`` array over
    a single buffer."""
    import pyarrow as pa

    sink, offsets = pa.BufferOutputStream(), [0]
    for t in tables:
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
        offsets.append(sink.tell())
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(tables),
        [None, pa.py_buffer(np.asarray(offsets, np.int64)), sink.getvalue()])


def cogroup(sides, fn, num_buckets: int) -> "ray.data.Dataset":
    """Hash co-group of one or more datasets: every row lands in bucket
    ``_key_hash(its keys) % num_buckets``, and ``fn`` runs once per
    bucket with one Arrow table per side, in ``sides`` order. With two
    or more sides it runs on every bucket, so all its tables may be
    empty. ``fn`` returns an Arrow table or a pandas frame.

    ``sides`` holds ``(dataset, keys)`` or ``(dataset, keys, columns)``;
    ``columns`` projects that side inside its tag map. A side with no
    rows in a bucket arrives as an empty table with its own columns and
    types; a side with no rows at all arrives with its ``columns`` (else
    its keys), typed as that name is on another side, else null.

    Each side's tag map splits its batch by bucket and ships each slice
    as one Arrow IPC stream: a row of (``__bucket``, ``__side``,
    ``__data``). So every block the shuffle concatenates has the same
    three columns, whichever side it comes from: no side is padded with
    the other's columns, no schema is read (a lazy input runs once,
    inside the shuffle), and every type comes back exactly, whether the
    sort reduce concatenates in Arrow or in pandas. With two or more
    sides a batch also ships its empty slices, which carry its columns
    into every bucket. Tensor columns ride as plain lists
    (:func:`_plain`)."""
    import pyarrow as pa

    specs = [(ds, [keys] if isinstance(keys, str) else list(keys), *rest)
             for ds, keys, *rest in sides]
    every = len(specs) > 1

    def tag(t: pa.Table, s: int, keys: list[str], cols) -> pa.Table:
        t = _plain(t if cols is None else t.select(cols)).replace_schema_metadata(None)
        b = (_key_hash(t, keys) % np.uint64(num_buckets)).astype(np.int64)
        order = np.argsort(b, kind="stable")
        t, b = t.take(order), b[order]
        ids = np.arange(num_buckets) if every else np.unique(b)
        lo = np.searchsorted(b, ids)
        hi = np.searchsorted(b, ids, side="right")
        return pa.table({"__bucket": pa.array(ids.astype(np.int64)),
                         "__side": pa.array(np.full(ids.size, s, np.int8)),
                         "__data": _ipc_blobs([t.slice(a, z - a) for a, z in zip(lo, hi)])})

    tagged = [ds.map_batches(tag, fn_args=(s, keys, rest[0] if rest else None),
                             batch_format="pyarrow", zero_copy_batch=True, batch_size=131072)
              for s, (ds, keys, *rest) in enumerate(specs)]

    def bucket(g: pa.Table):
        side = g.column("__side").to_numpy(zero_copy_only=False)
        data = g.column("__data")
        got = [[pa.ipc.open_stream(data[i].as_buffer()).read_all()
                for i in np.flatnonzero(side == s)] for s in range(len(specs))]
        types = {f.name: f.type for ts in got for t in ts for f in t.schema}
        parts = []
        for ts, (_, keys, *rest) in zip(got, specs):
            full = [t for t in ts if t.num_rows]
            if full or ts:
                parts.append(pa.concat_tables(full or ts[:1], promote_options="permissive"))
            else:
                parts.append(pa.table({c: pa.array([], types.get(c, pa.null()))
                                       for c in (rest[0] if rest else keys)}))
        return fn(*parts)

    u = tagged[0].union(*tagged[1:]) if every else tagged[0]
    return u.groupby("__bucket").map_groups(bucket, batch_format="pyarrow")


def attach_claims(
    records: "ray.data.Dataset",
    claims: "ray.data.Dataset",
    claim: str,
    columns: list[str] | None = None,
) -> "ray.data.Dataset":
    """(records) ⋈ (record_id → ``claim``), inner and many-to-many: each
    record row (``columns`` of it) once per claim, with the claim as its
    ``block_key`` and its own key as ``member_key``, ready for the SND
    blocking pass (``snd._blocked``). A co-group on record_id
    (:func:`cogroup`, which projects both sides) with one Arrow join per
    bucket of (record_id, claim) against (record_id, row index) —
    pyarrow joins carry no list payload — then a ``take``."""
    import pyarrow as pa

    from whoiswho_ray.stages.cluster import _cc_num_buckets

    def attach_bucket(recs: pa.Table, claimed: pa.Table) -> pa.Table:
        if not recs.num_rows:
            return recs
        rows = pa.table({"record_id": recs.column("record_id"),
                         "__row": pa.array(np.arange(recs.num_rows, dtype=np.int64))})
        hit = claimed.join(rows, "record_id", join_type="inner", use_threads=False)
        out = recs.take(hit.column("__row"))
        return out.set_column(out.schema.get_field_index("block_key"), "block_key",
                              hit.column(claim)).append_column("member_key",
                                                               out.column("block_key"))

    return cogroup([(records, "record_id", columns),
                    (claims, "record_id", ["record_id", claim])],
                   attach_bucket, _cc_num_buckets())


_BROADCAST_CACHE: dict = {}


def _np(t, col: str) -> np.ndarray:
    return t.column(col).to_numpy(zero_copy_only=False)


def _cached_get(ref, build=None, cap: int = 4):
    """Per-worker-process cache for broadcast objects: Ray reuses worker
    processes across tasks, so a task-pool map deserializes each
    broadcast ONCE per worker (the actor-pool benefit) without paying
    actor-pool startup or its concurrency cap. ``build``, if given, turns
    the fetched object into the value cached under ``ref`` (so one ref
    serves one builder). Bounded to ``cap`` entries so long sessions
    don't accumulate dead broadcasts."""
    key = ref.hex()
    v = _BROADCAST_CACHE.pop(key, None)
    if v is None:
        v = ray.get(ref)
        if build is not None:
            v = build(v)
    _BROADCAST_CACHE[key] = v
    while len(_BROADCAST_CACHE) > cap:
        _BROADCAST_CACHE.pop(next(iter(_BROADCAST_CACHE)))
    return v


def broadcast_join(
    large: "ray.data.Dataset",
    small: pd.DataFrame,
    on: str | list[str],
    how: str = "inner",
) -> "ray.data.Dataset":
    """Hash-lookup join against a broadcast small side (``ray.put`` once,
    read per worker via the process-level cache — never re-shipped per
    batch)."""
    small_ref = ray.put(small)

    def merge(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.merge(_cached_get(small_ref), on=on, how=how)

    return large.map_batches(merge, batch_format="pandas",
                             batch_size=65536)


def detect_hot_keys(
    ds: "ray.data.Dataset",
    key: str,
    top: int = 16,
    min_count: int | None = None,
    min_frac: float = 0.01,
) -> list:
    """Approximate hot-key detection for skew handling: per-batch
    ``value_counts`` top-``top`` partials (a key hot enough to skew a
    shuffle is hot inside most batches), summed on the driver — at most
    ``top × batches`` candidate rows ever concentrate, regardless of key
    cardinality. Returns the candidate keys whose summed count reaches
    ``min_count`` (default: ``min_frac`` of the dataset). Under-detection
    is safe — a missed warm key just stays unsalted."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[key].value_counts().head(top)
        return pd.DataFrame({key: vc.index.to_numpy(), "__c": vc.to_numpy()})

    cands = ds.map_batches(partial, batch_format="pandas",
                           batch_size=131072).to_pandas()
    if cands.empty:
        return []
    if min_count is None:
        min_count = max(2, int(ds.count() * min_frac))
    totals = cands.groupby(key, sort=False)["__c"].sum()
    return totals[totals >= min_count].index.tolist()


def shuffle_hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str | list[str],
    num_buckets: int = 16,
    how: str = "inner",
    project=None,
    salt: int = 0,
    hot_keys=None,
) -> "ray.data.Dataset":
    """Partitioned hash join: a :func:`cogroup` of both sides on the key
    hash, pandas-merged inside each bucket.

    ``project``, if given, runs on each bucket's merged frame INSIDE the
    join task (e.g. ``lambda m: m[cols].drop_duplicates()``) — fusing a
    projection/local-dedup into the join so the full joined rows never
    leave the bucket task. A downstream global pass (e.g. ``distinct``)
    then shuffles only the projected survivors.

    ``salt`` > 1 enables SKEW-AWARE salting (single string key, inner/left
    only): hot keys — ``hot_keys`` if given, else :func:`detect_hot_keys`
    on the left side — have their LEFT rows spread across ``salt``
    sub-partitions and their RIGHT rows replicated into every
    sub-partition, so one hot key's work lands on ``salt`` bucket tasks
    instead of one. Replication cost = |right hot rows| × salt — salt the
    side that is large, broadcast-join if the right side is tiny anyway.
    Output is identical to the unsalted join.

    Non-key column names must be disjoint between the sides (a shared
    payload name would be suffixed by the merge): a bucket task that
    sees both sides raises ``ValueError`` on an overlap."""
    keys = [on] if isinstance(on, str) else list(on)

    salted = False
    if salt and salt > 1:
        if len(keys) != 1:
            raise ValueError("salt requires a single join key")
        if how not in ("inner", "left"):
            raise ValueError(
                "salt supports inner/left joins (right/outer would need "
                "LEFT-side replication instead)")
        key = keys[0]
        if hot_keys is None:
            hot_keys = detect_hot_keys(left, key)
        hot_list = list(hot_keys)
        if hot_list:
            salted = True
            hot_ref = ray.put(set(hot_list))
            n_salt = int(salt)

            def salt_left(df: pd.DataFrame) -> pd.DataFrame:
                df = df.copy()
                s = np.zeros(len(df), dtype=np.int64)
                hot = df[key].isin(ray.get(hot_ref)).to_numpy()
                s[hot] = np.arange(int(hot.sum()), dtype=np.int64) % n_salt
                df["__salt"] = s
                return df

            def explode_right(df: pd.DataFrame) -> pd.DataFrame:
                hot = df[key].isin(ray.get(hot_ref)).to_numpy()
                cold = df[~hot].copy()
                cold["__salt"] = np.int64(0)
                hot_rows = df[hot]
                parts = [cold]
                for sv in range(n_salt):
                    rep = hot_rows.copy()
                    rep["__salt"] = np.int64(sv)
                    parts.append(rep)
                return pd.concat(parts, ignore_index=True)

            left = left.map_batches(salt_left, batch_format="pandas")
            right = right.map_batches(explode_right, batch_format="pandas")
            keys = keys + ["__salt"]

    def merge_bucket(l, r) -> pd.DataFrame:
        overlap = (set(l.column_names) & set(r.column_names)) - set(keys)
        if overlap:
            raise ValueError(f"shuffle_hash_join: non-key columns {sorted(overlap)} exist "
                             "on both sides; rename one side before joining")
        m = l.to_pandas().merge(r.to_pandas(), on=keys, how=how)
        if salted:
            m = m.drop(columns=["__salt"])
        return project(m) if project is not None else m

    return cogroup([(left, keys), (right, keys)], merge_bucket, num_buckets)


def semi_join(
    large: "ray.data.Dataset",
    key_values,
    on: str,
    anti: bool = False,
) -> "ray.data.Dataset":
    """Semi/anti join: broadcast the key set, filter inside map_batches."""
    key_set_ref = ray.put(frozenset(key_values))

    def filt(batch: pd.DataFrame) -> pd.DataFrame:
        mask = batch[on].isin(_cached_get(key_set_ref))
        return batch[~mask] if anti else batch[mask]

    return large.map_batches(filt, batch_format="pandas", batch_size=8192)


def hash_sample_keys(ds: "ray.data.Dataset", key_col: str, k: int) -> list:
    """Order-invariant deterministic sample: the ``k`` keys with the
    smallest key hash (ties by key), for :func:`semi_join` to keep.

    Scale shape (VERDICT r3 #3): a per-batch partial top-k over bare
    ``(key, hash)`` rows, then a driver merge of that tiny candidate set.
    No global sort: ``sort(hash).limit(k)`` would shuffle the whole
    payload just to pick k rows."""

    def keys_h(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({key_col: df[key_col].to_numpy()})
        out["__h"] = pd.util.hash_pandas_object(
            out[key_col], index=False).to_numpy().astype(np.int64)
        if len(out) > k:
            out = out.sort_values(["__h", key_col], kind="stable").head(k)
        return out

    cand = ds.select_columns([key_col]).map_batches(keys_h, batch_format="pandas").to_pandas()
    return cand.sort_values(["__h", key_col], kind="stable").head(k)[key_col].tolist()


def shuffle_semi_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    num_buckets: int = 16,
    anti: bool = False,
) -> "ray.data.Dataset":
    """Partitioned semi/anti join for a right side too large to broadcast:
    a :func:`cogroup` of both sides on the key hash; each bucket keeps the
    left rows whose key does (not, for ``anti``) appear among the bucket's
    right keys. Left columns only; right-side duplicates cannot multiply
    rows (set membership, not a merge)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def filter_bucket(l: pa.Table, r: pa.Table) -> pa.Table:
        # null keys never match: dropped by semi, kept by anti (pandas
        # isin behavior, matching SQL ANTI JOIN)
        hit = pc.fill_null(
            pc.is_in(l.column(on), value_set=pc.unique(r.column(on))), False)
        return l.filter(pc.invert(hit) if anti else hit)

    return cogroup([(left, on), (right, on, [on])], filter_bucket, num_buckets)


def set_op(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    cols: str | list[str],
    op: str = "intersect",
    num_buckets: int = 16,
) -> "ray.data.Dataset":
    """SQL ``INTERSECT`` / ``EXCEPT`` (distinct set semantics) over the
    given column tuple.

    Scale shape: each side projects to ``cols`` and locally dedups per
    batch BEFORE the shuffle (so at most ``batches x bucket-distinct``
    rows move, not the raw row count), then one bucketed exchange and a
    vectorized pandas merge inside each bucket task emits the bucket's
    answer. Null key tuples compare equal (pandas merge matches NaN keys),
    matching SQL set-operation semantics where ``NULL INTERSECT NULL``
    yields a row. Output: the distinct ``cols`` rows of the result.
    """
    import pyarrow as pa

    if op not in ("intersect", "except"):
        raise ValueError(f"set_op: op must be intersect|except, got {op!r}")
    cols = [cols] if isinstance(cols, str) else list(cols)

    def local_distinct(t: pa.Table) -> pa.Table:
        # group_by with no aggregates: a distinct in Arrow C++, no pandas
        # round-trip on the pre-shuffle hot path
        return t.select(cols).group_by(cols).aggregate([])

    def side(ds):
        return ds.select_columns(cols).map_batches(
            local_distinct, batch_format="pyarrow", batch_size=131072)

    def bucket(l: pa.Table, r: pa.Table) -> pd.DataFrame:
        ldf = l.to_pandas().drop_duplicates()
        rdf = r.to_pandas().drop_duplicates()
        if op == "intersect":
            return ldf.merge(rdf, on=cols, how="inner")
        m = ldf.merge(rdf, on=cols, how="left", indicator=True)
        return m[m["_merge"] == "left_only"].drop(columns=["_merge"])

    return cogroup([(side(left), cols), (side(right), cols)], bucket, num_buckets)


def band_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key_l: str,
    key_r: str,
    x_l: str,
    x_r: str,
    delta: int,
    num_buckets: int = 16,
) -> "ray.data.Dataset":
    """Band (interval-distance) join: all pairs with
    ``|left.x_l - right.x_r| <= delta`` over INTEGER value columns —
    the row-pair counterpart of the range-interval AGGREGATE join
    (``asof.range_agg_join``), e.g. near-duplicate prices, timestamps
    within a tolerance, sensor alignment.

    Scale shape: grid-cell partitioning — each side's value maps to cell
    ``x // delta``; any qualifying pair's cells differ by at most 1, so
    LEFT rows replicate into cells ``{c-1, c, c+1}`` (3× one side, never
    a cross product) and RIGHT rows post once, meeting in the right's
    own cell (each pair meets EXACTLY once — no output dedup needed).
    One cell-hash bucketed exchange; inside each bucket task one
    vectorized pass per cell segment: rights sorted by value, each left
    binary-searches its ``[x-delta, x+delta]`` window (the searchsorted
    bounds ARE the verify) and pairs enumerate with the repeat/offset
    trick. Output: ``(key_l, key_r, x_l, x_r)``.
    """
    import pyarrow as pa

    if delta < 0:
        raise ValueError("band_join: delta must be >= 0")
    step = max(int(delta), 1)  # delta=0 -> exact-value join, cell = x
    # output column names; suffix on collision (self-joins)
    okl, okr = (key_l, key_r) if key_l != key_r else (f"{key_l}_l",
                                                      f"{key_r}_r")
    oxl, oxr = (x_l, x_r) if x_l != x_r else (f"{x_l}_l", f"{x_r}_r")

    def side_prep(key: str, x: str, replicate: bool):
        def f(t: pa.Table) -> pa.Table:
            k = t.column(key).to_numpy(zero_copy_only=False)
            xv = t.column(x).to_numpy(zero_copy_only=False).astype(np.int64)
            cell = xv // np.int64(step)
            if replicate:
                k = np.tile(k, 3)
                xv = np.tile(xv, 3)
                cell = np.concatenate([cell - 1, cell, cell + 1])
            return pa.table({"key": pa.array(k), "x": pa.array(xv, pa.int64()),
                             "cell": pa.array(cell, pa.int64())})
        return f

    lp = left.select_columns([key_l, x_l]).map_batches(
        side_prep(key_l, x_l, True), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=131072)
    rp = right.select_columns([key_r, x_r]).map_batches(
        side_prep(key_r, x_r, False), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=131072)

    def bucket(l: pa.Table, r: pa.Table) -> pd.DataFrame:
        # cell = x // step is MONOTONE in x, so the bucket's rights
        # sorted by x are also grouped by cell with contiguous value
        # ranges [c*step, (c+1)*step). Each left replica's per-cell
        # match window is therefore its [x-delta, x+delta] band clamped
        # to the target cell's value range — ONE vectorized searchsorted
        # over the whole bucket, no per-cell Python loop.
        lx, lk, lcell = (_np(l, c) for c in ("x", "key", "cell"))
        rx, rk = _np(r, "x"), _np(r, "key")
        empty = pd.DataFrame({okl: np.empty(0, lk.dtype),
                              okr: np.empty(0, rk.dtype),
                              oxl: np.empty(0, np.int64),
                              oxr: np.empty(0, np.int64)})
        if lx.size == 0 or rx.size == 0:
            return empty
        ro = np.argsort(rx, kind="stable")
        rx, rk = rx[ro], rk[ro]
        st = np.int64(step)
        lo_v = np.maximum(lx - np.int64(delta), lcell * st)
        hi_v = np.minimum(lx + np.int64(delta), (lcell + 1) * st - 1)
        lo = np.searchsorted(rx, lo_v, side="left")
        hi = np.searchsorted(rx, hi_v, side="right")
        cnt = np.maximum(hi - lo, 0)
        keep = cnt > 0
        if not keep.any():
            return empty
        lo, cnt = lo[keep], cnt[keep]
        off = np.zeros(cnt.size + 1, np.int64)
        np.cumsum(cnt, out=off[1:])
        t = np.arange(int(off[-1]), dtype=np.int64)
        gi = np.searchsorted(off, t, side="right") - 1
        j = lo[gi] + (t - off[gi])
        li = np.flatnonzero(keep)[gi]
        return pd.DataFrame({okl: lk[li], okr: rk[j],
                             oxl: lx[li], oxr: rx[j]})

    cols = ["key", "x", "cell"]
    return cogroup([(lp, "cell", cols), (rp, "cell", cols)], bucket, num_buckets)


def interval_join(
    intervals: "ray.data.Dataset",
    points: "ray.data.Dataset",
    key_i: str,
    lo: str,
    hi: str,
    key_p: str,
    x: str,
    step: int,
    num_buckets: int = 16,
) -> "ray.data.Dataset":
    """Point-in-interval join: all (interval, point) pairs with
    ``lo <= x <= hi`` over INTEGER columns — validity windows, session
    membership, time-range containment.

    Scale shape: the :func:`band_join` grid generalized to variable
    widths — each interval replicates into the ``(hi-lo)//step + 1``
    (+1 boundary) cells it overlaps, points post once at ``x // step``
    and each qualifying pair meets EXACTLY once in the point's own cell.
    Pick ``step`` near the typical interval width so replication stays
    O(1); a single huge interval degrades to its width/step replicas
    (skew is per-interval and visible, never a cross product). Inside
    each bucket ONE vectorized pass: points sorted by value (cells are
    monotone in x, so cell grouping is value-contiguous), every interval
    replica binary-searches its clamped [lo, hi] window. Output:
    ``(key_i, key_p, x)``.
    """
    import pyarrow as pa

    if step <= 0:
        raise ValueError("interval_join: step must be > 0")
    st = np.int64(step)

    def iv_prep(t: pa.Table) -> pa.Table:
        k = t.column(key_i).to_numpy(zero_copy_only=False)
        l = t.column(lo).to_numpy(zero_copy_only=False).astype(np.int64)
        h = t.column(hi).to_numpy(zero_copy_only=False).astype(np.int64)
        ok = h >= l
        k, l, h = k[ok], l[ok], h[ok]
        c0, c1 = l // st, h // st
        reps = (c1 - c0 + 1)
        idx = np.repeat(np.arange(k.size, dtype=np.int64), reps)
        starts = np.zeros(k.size + 1, np.int64)
        np.cumsum(reps, out=starts[1:])
        cell = (np.arange(int(starts[-1]), dtype=np.int64)
                - np.repeat(starts[:-1], reps) + np.repeat(c0, reps))
        return pa.table({
            "key": pa.array(k[idx]),
            "lo": pa.array(l[idx], pa.int64()),
            "hi": pa.array(h[idx], pa.int64()),
            "cell": pa.array(cell, pa.int64()),
        })

    def pt_prep(t: pa.Table) -> pa.Table:
        k = t.column(key_p).to_numpy(zero_copy_only=False)
        xv = t.column(x).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "key": pa.array(k),
            "lo": pa.array(xv, pa.int64()),   # point value rides in lo
            "hi": pa.array(xv, pa.int64()),
            "cell": pa.array(xv // st, pa.int64()),
        })

    ip = intervals.select_columns([key_i, lo, hi]).map_batches(
        iv_prep, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=131072)
    pp = points.select_columns([key_p, x]).map_batches(
        pt_prep, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=131072)
    okp = key_p if key_p != key_i else f"{key_p}_p"
    oxp = x

    def bucket(iv: pa.Table, pt: pa.Table) -> pd.DataFrame:
        ik, il, ih, ic = (_np(iv, c) for c in ("key", "lo", "hi", "cell"))
        pk, px = _np(pt, "key"), _np(pt, "lo")
        empty = pd.DataFrame({key_i: np.empty(0, ik.dtype),
                              okp: np.empty(0, pk.dtype),
                              oxp: np.empty(0, np.int64)})
        if ik.size == 0 or pk.size == 0:
            return empty
        po = np.argsort(px, kind="stable")
        px, pk = px[po], pk[po]
        lo_v = np.maximum(il, ic * st)
        hi_v = np.minimum(ih, (ic + 1) * st - 1)
        l_ = np.searchsorted(px, lo_v, side="left")
        h_ = np.searchsorted(px, hi_v, side="right")
        cnt = np.maximum(h_ - l_, 0)
        keep = cnt > 0
        if not keep.any():
            return empty
        l_, cnt = l_[keep], cnt[keep]
        off = np.zeros(cnt.size + 1, np.int64)
        np.cumsum(cnt, out=off[1:])
        t = np.arange(int(off[-1]), dtype=np.int64)
        gi = np.searchsorted(off, t, side="right") - 1
        j = l_[gi] + (t - off[gi])
        ii = np.flatnonzero(keep)[gi]
        return pd.DataFrame({key_i: ik[ii], okp: pk[j], oxp: px[j]})

    cols = ["key", "lo", "hi", "cell"]
    return cogroup([(ip, "cell", cols), (pp, "cell", cols)], bucket, num_buckets)


def interval_overlap_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    key_l: str,
    lo_l: str,
    hi_l: str,
    key_r: str,
    lo_r: str,
    hi_r: str,
    step: int,
    num_buckets: int = 16,
) -> "ray.data.Dataset":
    """Interval×interval OVERLAP join: all (left, right) pairs whose
    closed INTEGER intervals intersect — ``lo_l <= hi_r AND lo_r <=
    hi_l`` (SQL OVERLAPS on inclusive bounds) — validity-window
    reconciliation, sessions × promotions (VERDICT r4 #3).

    Scale shape: :func:`interval_join`'s variable-width grid with BOTH
    sides replicating into their ``(hi-lo)//step + 1`` cells. A
    qualifying pair is emitted exactly once, in the canonical cell
    containing the overlap's START ``max(lo_l, lo_r)`` (cells are
    monotone in value, so that cell is shared by both replicas sets).
    The kernel decomposes disjointly by which side starts the overlap:

    * right starts at-or-after left (``lo_r >= lo_l``): every left
      replica binary-searches the bucket's NATIVE right starts (rows
      whose ``lo_r`` lies in their own replica cell) within
      ``[lo_l, hi_l]`` clamped to the cell — point-in-interval with the
      right's start as the point;
    * left starts strictly after (``lo_l > lo_r``): the mirror pass
      with a strict lower bound, so ``lo_l == lo_r`` ties count once.

    Both passes are whole-bucket searchsorted — no per-cell loop. Output
    ``(key_l, key_r, lo_l, hi_l, lo_r, hi_r)`` (key names suffixed _l/_r
    on collision). Pick ``step`` near the typical interval width; a
    single huge interval degrades to width/step replicas (visible skew,
    never a cross product).
    """
    import pyarrow as pa

    if step <= 0:
        raise ValueError("interval_overlap_join: step must be > 0")
    st = np.int64(step)
    okl, okr = (key_l, key_r) if key_l != key_r else (f"{key_l}_l",
                                                      f"{key_r}_r")
    oll, ohl = (lo_l, hi_l) if lo_l != lo_r else (f"{lo_l}_l", f"{hi_l}_l")
    olr, ohr = (lo_r, hi_r) if lo_l != lo_r else (f"{lo_r}_r", f"{hi_r}_r")

    def side_prep(key: str, lo: str, hi: str):
        def f(t: pa.Table) -> pa.Table:
            k = t.column(key).to_numpy(zero_copy_only=False)
            l = t.column(lo).to_numpy(zero_copy_only=False).astype(np.int64)
            h = t.column(hi).to_numpy(zero_copy_only=False).astype(np.int64)
            ok = h >= l
            k, l, h = k[ok], l[ok], h[ok]
            c0, c1 = l // st, h // st
            reps = c1 - c0 + 1
            idx = np.repeat(np.arange(k.size, dtype=np.int64), reps)
            starts = np.zeros(k.size + 1, np.int64)
            np.cumsum(reps, out=starts[1:])
            cell = (np.arange(int(starts[-1]), dtype=np.int64)
                    - np.repeat(starts[:-1], reps) + np.repeat(c0, reps))
            return pa.table({
                "key": pa.array(k[idx]),
                "lo": pa.array(l[idx], pa.int64()),
                "hi": pa.array(h[idx], pa.int64()),
                "cell": pa.array(cell, pa.int64()),
            })
        return f

    lp = left.select_columns([key_l, lo_l, hi_l]).map_batches(
        side_prep(key_l, lo_l, hi_l), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=131072)
    rp = right.select_columns([key_r, lo_r, hi_r]).map_batches(
        side_prep(key_r, lo_r, hi_r), batch_format="pyarrow",
        zero_copy_batch=True, batch_size=131072)

    def _pass(qk, ql, qh, qc, tk, tl, th, strict: bool):
        """Query replicas × native target STARTS: one clamped
        searchsorted window per query replica over target lo (sorted).
        Returns (query_idx, target_idx) into the passed arrays."""
        e = (np.empty(0, np.int64), np.empty(0, np.int64))
        if qk.size == 0 or tl.size == 0:
            return e
        to = np.argsort(tl, kind="stable")
        tls = tl[to]
        lo_v = np.maximum(ql + (1 if strict else 0), qc * st)
        hi_v = np.minimum(qh, (qc + 1) * st - 1)
        l_ = np.searchsorted(tls, lo_v, side="left")
        h_ = np.searchsorted(tls, hi_v, side="right")
        cnt = np.maximum(h_ - l_, 0)
        keep = cnt > 0
        if not keep.any():
            return e
        l_, cnt = l_[keep], cnt[keep]
        off = np.zeros(cnt.size + 1, np.int64)
        np.cumsum(cnt, out=off[1:])
        t = np.arange(int(off[-1]), dtype=np.int64)
        gi = np.searchsorted(off, t, side="right") - 1
        j = to[l_[gi] + (t - off[gi])]
        qi = np.flatnonzero(keep)[gi]
        return qi, j

    cols = ["key", "lo", "hi", "cell"]

    def bucket(l: pa.Table, r: pa.Table) -> pd.DataFrame:
        lk, ll, lh, lc = (_np(l, c) for c in cols)
        rk, rl, rh, rc = (_np(r, c) for c in cols)
        ln, rn = (ll // st) == lc, (rl // st) == rc
        # pass 1: right starts inside left (ties included)
        qi1, ti1 = _pass(lk, ll, lh, lc,
                         rk[rn], rl[rn], rh[rn], strict=False)
        # pass 2: left starts strictly inside right
        qi2, ti2 = _pass(rk, rl, rh, rc,
                         lk[ln], ll[ln], lh[ln], strict=True)
        rn_ix = np.flatnonzero(rn)
        ln_ix = np.flatnonzero(ln)
        li = np.concatenate([qi1, ln_ix[ti2]])
        ri = np.concatenate([rn_ix[ti1], qi2])
        return pd.DataFrame({
            okl: lk[li], okr: rk[ri],
            oll: ll[li], ohl: lh[li],
            olr: rl[ri], ohr: rh[ri],
        })

    return cogroup([(lp, "cell", cols), (rp, "cell", cols)], bucket, num_buckets)


def bloom_semi_join(
    large: "ray.data.Dataset",
    keys: "ray.data.Dataset",
    on: str,
    bits_log2: int = 23,
    n_hashes: int = 4,
    num_buckets: int = 16,
) -> "ray.data.Dataset":
    """Semi-join against a MEDIUM key side: Bloom prefilter, then exact
    verification — the result equals a plain semi-join exactly (Bloom
    filters have false positives only; verification removes them).

    Scale shape: the broadcast is ``2^bits_log2 / 8`` bytes (1 MiB at the
    default) however many keys there are — where broadcasting the exact
    key set (``semi_join``) would ship GBs — and it is built in ONE
    streaming pass over the key side (the driver holds the bitmap plus
    one batch at a time, never the key set). The prefilter then drops
    non-members inside ``map_batches`` with zero shuffle at false-positive
    rate ~(1-e^(-kn/m))^k, and only the surviving sliver pays the
    partitioned exact semi-join. Double hashing h1 + i*h2 (Kirsch &
    Mitzenmacher 2006) derives all probes from two 64-bit hashes.
    """
    m = np.uint64(1 << bits_log2)
    mask = np.uint64((1 << bits_log2) - 1)
    bits = np.zeros(1 << max(bits_log2 - 6, 0), dtype=np.uint64)

    def probe_positions(vals: pd.Series) -> np.ndarray:
        h1 = pd.util.hash_pandas_object(vals, index=False).to_numpy().astype(np.uint64)
        with np.errstate(over="ignore"):
            h2 = (h1 ^ np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
            h2 |= np.uint64(1)  # odd, so probes cycle through the table
            pos = (h1[:, None] + np.arange(n_hashes, dtype=np.uint64)[None, :] * h2[:, None])
        return (pos & mask).reshape(-1)

    for batch in keys.select_columns([on]).iter_batches(
            batch_size=65536, batch_format="pandas"):
        p = probe_positions(batch[on])
        np.bitwise_or.at(bits, (p >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (p & np.uint64(63)))
    bits_ref = ray.put(bits)

    def bloom_filt(df: pd.DataFrame) -> pd.DataFrame:
        p = probe_positions(df[on])
        hit = (_cached_get(bits_ref)[(p >> np.uint64(6)).astype(np.int64)]
               >> (p & np.uint64(63))) & np.uint64(1)
        return df[hit.reshape(len(df), n_hashes).all(axis=1)]

    survivors = large.map_batches(bloom_filt, batch_format="pandas", batch_size=8192)
    return shuffle_semi_join(survivors, keys, on, num_buckets=num_buckets)


def skyline_2d(
    ds: "ray.data.Dataset",
    max_col: str,
    min_col: str,
) -> "ray.data.Dataset":
    """2-D skyline (Pareto front): rows NOT dominated by any other row,
    where r2 dominates r1 iff ``r2[max_col] >= r1[max_col]`` AND
    ``r2[min_col] <= r1[min_col]`` with at least one strict — the
    NOT-EXISTS inequality self-anti-join. Duplicate points (equal on
    both axes) all survive. Values are only COMPARED, never computed
    on, so float columns carry no arithmetic-parity risk.

    Scale shape: the front of the whole dataset is a subset of the
    union of per-block fronts (dominance is transitive), so one
    vectorized local-front pass per block cuts the data to candidates
    — expected O(log n) per block on independently-distributed axes —
    and ONE final task runs the same kernel over the merged candidate
    set. No driver materialization; worst case (input already a front)
    the final task sees the whole input, the same degenerate bound
    every skyline algorithm has.
    """
    def front(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        if df[max_col].isna().any() or df[min_col].isna().any():
            raise ValueError(
                "skyline_2d: NULL axis values are not supported (SQL "
                "three-valued dominance differs from any total order)")
        # sort: min_col asc, max_col desc — one lexsort, then boundary
        # masks; within an equal-min_col run the first row holds the max
        df = df.sort_values([min_col, max_col], kind="stable",
                            ascending=[True, False]).reset_index(drop=True)
        mn = df[min_col]
        new_mn = ~mn.eq(mn.shift()).to_numpy()
        new_mn[0] = True
        pos = np.arange(len(df), dtype=np.int64)
        grp_first = np.maximum.accumulate(np.where(new_mn, pos, 0))
        mxv = df[max_col].to_numpy()
        group_best = mxv[grp_first]
        # best max_col among STRICTLY smaller min_col groups: prefix max
        # of group bests shifted one group back, dtype preserved (no
        # float cast — int64 > 2^53 would lose dominance comparisons)
        starts = np.flatnonzero(new_mn)
        gb = np.maximum.accumulate(mxv[starts])
        gidx = np.cumsum(new_mn) - 1
        dominated = mxv < group_best
        later = gidx >= 1
        dominated[later] |= gb[gidx[later] - 1] >= mxv[later]
        return df[~dominated]

    candidates = ds.map_batches(front, batch_format="pandas",
                                batch_size=131072)
    return candidates.repartition(1).map_batches(
        front, batch_format="pandas", batch_size=None)


def mutual_best_match(
    pairs: "ray.data.Dataset",
    left_col: str,
    right_col: str,
    score_col: str,
    mode: str = "max",
) -> "ray.data.Dataset":
    """Reciprocal-best-match 1:1 linkage: from scored candidate pairs,
    keep exactly the pairs where EACH side is the other's best partner
    (ties pinned deterministically to the smallest partner id, the
    ``ROW_NUMBER() OVER (... ORDER BY score DESC, partner) = 1`` order)
    — the standard symmetric-best-match filter entity resolution applies
    after candidate scoring to enforce a 1:1 assignment without solving
    a global matching problem. Mutual-best is a subset of the greedy
    max-weight matching and never assigns one record twice.

    Scale shape: two :func:`~whoiswho_ray.stages.agg.arg_extreme_grouped`
    passes (per-batch one-winner-per-key combiner, then one key-hash
    bucketed exchange each — at most |distinct keys| rows move) + one
    composite-key hash join of the two winner sets (each at most one row
    per entity, so the join input is entity-sized, not pair-sized).
    Output: (left_col, right_col, score_col) for surviving pairs.
    """
    from whoiswho_ray.stages.agg import arg_extreme_grouped

    # two consumers (per-left and per-right winners) — materialize once
    # or the caller's candidate-generation lineage runs twice
    pairs = pairs.materialize()
    best_l = arg_extreme_grouped(pairs, left_col, score_col,
                                 [right_col], mode)
    best_r = arg_extreme_grouped(pairs, right_col, score_col,
                                 [left_col], mode)
    lhs = best_l.map_batches(
        lambda df: df[[left_col, right_col, score_col]],
        batch_format="pandas")
    rhs = best_r.map_batches(
        lambda df: df[[left_col, right_col]], batch_format="pandas")
    return shuffle_hash_join(lhs, rhs, on=[left_col, right_col])


def longest_prefix_join(
    ds: "ray.data.Dataset",
    col: str,
    prefixes,
    out_col: str = "prefix",
) -> "ray.data.Dataset":
    """Longest-prefix-match join — the routing-table lookup (IP/phone
    prefixes, URL path categories): attach to each row the LONGEST
    entry of ``prefixes`` that prefixes ``col``; rows with no match are
    dropped (inner semantics, like the SQL
    ``starts_with`` + argmax-by-length replay).

    Scale shape: the prefix table is the broadcast small side (grouped
    by length once on the driver, shipped in the task closure); each
    batch runs ONE vectorized slice + hash-isin per DISTINCT prefix
    length, longest first, first hit wins — O(#lengths) kernels per
    batch, no shuffle, no per-row Python.
    """
    by_len: dict[int, set] = {}
    for p in prefixes:
        if not p:
            raise ValueError("empty prefix is not allowed")
        by_len.setdefault(len(p), set()).add(str(p))
    lens = sorted(by_len, reverse=True)

    def match(df: pd.DataFrame) -> pd.DataFrame:
        s = df[col].astype(str)
        res = pd.Series([None] * len(df), index=df.index, dtype=object)
        unmatched = np.ones(len(df), dtype=bool)
        for length in lens:
            if not unmatched.any():
                break
            cand = s.str.slice(0, length)
            hit = cand.isin(by_len[length]).to_numpy() & unmatched
            res[hit] = cand[hit]
            unmatched &= ~hit
        out = df.copy()
        out[out_col] = res
        return out[res.notna().to_numpy()]

    return ds.map_batches(match, batch_format="pandas",
                          batch_size=131072)
