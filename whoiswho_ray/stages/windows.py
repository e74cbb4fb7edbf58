"""Window-shaped operators over the events table.

Ray Data has no event-time windowing; per the engine's streaming stance
(SURVEY.md §2.9 — the reference has none either), windows are expressed as
batch groupbys: sliding = explode to the covering windows + grouped
aggregate; sessions = per-key sorted gap detection inside ``map_groups``.
Both have exact SQL oracles."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def sliding_window(
    ds: "ray.data.Dataset",
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    size_minutes: int = 120,
    hop_minutes: int = 30,
):
    """Sliding (hopping) windows: each event lands in size/hop overlapping
    windows; per (key, window_start): count + integer-cents sum.

    Expressed as an explode (one row per covering window, epoch-micros
    arithmetic so the oracle is bit-exact) + the pre-aggregated grouped
    combine. ``window_start_us`` is int64 epoch microseconds."""
    if size_minutes % hop_minutes != 0:
        raise ValueError("size must be a multiple of hop")
    n_win = size_minutes // hop_minutes
    hop_us = np.int64(hop_minutes * 60 * 1_000_000)

    def explode(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(t.column(ts_col), pa.int64()).to_numpy(zero_copy_only=False)
        vals = t.column(value_col).to_numpy(zero_copy_only=False)
        keys = t.column(key_col)
        base = (ts_us // hop_us) * hop_us
        n = len(ts_us)
        ks = np.arange(n_win, dtype=np.int64)
        window_start = (base[:, None] - ks[None, :] * hop_us).ravel()
        cents = np.floor(np.repeat(vals, n_win) * 100.0 + 0.5).astype(np.int64)
        return pa.table({
            key_col: pc.take(keys, pa.array(np.repeat(np.arange(n), n_win))),
            "window_start_us": pa.array(window_start),
            "value_cents": pa.array(cents),
        })

    from whoiswho_ray.stages.agg import grouped_agg

    return grouped_agg(
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True),
        [key_col, "window_start_us"],
        {"n_events": (None, "count"), "sum_value_cents": ("value_cents", "sum")},
    )


def lag_delta(
    ds: "ray.data.Dataset",
    ts_col: str = "ts",
    user_col: str = "user_id",
    id_col: str = "event_id",
) -> "ray.data.Dataset":
    """Per-event gap to the SAME user's previous event (lag window
    function): one row per event WITH a predecessor ``(user, event_id,
    ts_us, delta_us)`` — each user's first event has no lag and is
    dropped, keeping the delta column pure int64 (oracle-exact; no
    nullable-int → float64 conversion ambiguity between engines).

    Order inside a user is ``(ts, event_id)`` — the engine-wide tie rule
    (same as :func:`sessionize`), matching the oracle's
    ``lag(...) OVER (PARTITION BY user ORDER BY ts, id)`` exactly. One
    hash-bucket shuffle on the user key; the kernel is ONE sort + ONE
    diff across the entire bucket (no per-user Python)."""
    from whoiswho_ray.stages.agg import group_apply

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col],
                          kind="stable").reset_index(drop=True)
        n = len(g)
        ts_us = g[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        if n == 0:
            keep = np.zeros(0, dtype=bool)
            delta = ts_us
        else:
            prev = np.empty_like(ts_us)
            prev[0] = 0
            prev[1:] = ts_us[:-1]
            delta = ts_us - prev
            keep = g[user_col].eq(g[user_col].shift()).to_numpy()
        return pd.DataFrame({
            user_col: g[user_col].to_numpy()[keep],
            id_col: g[id_col].to_numpy()[keep],
            "ts_us": ts_us[keep],
            "delta_us": delta[keep],
        })

    return group_apply(ds, user_col, kernel, batch_format="pandas",
                       whole_bucket=True)


def moving_sum(
    ds: "ray.data.Dataset",
    window: int = 3,
    ts_col: str = "ts",
    user_col: str = "user_id",
    id_col: str = "event_id",
    value_col: str = "value",
) -> "ray.data.Dataset":
    """Per-event moving sum over the user's last ``window`` events
    (current + window-1 preceding, fewer near the partition start) —
    ``sum(v) OVER (PARTITION BY user ORDER BY ts, id ROWS BETWEEN
    window-1 PRECEDING AND CURRENT ROW)``. Values are integer cents so
    the sum is order-free and oracle-exact.

    Whole-bucket vectorized: one sort, one exclusive prefix sum, one
    gather at ``max(partition_start, i-window+1)`` — no per-user loop."""
    from whoiswho_ray.stages.agg import group_apply

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([user_col, ts_col, id_col],
                          kind="stable").reset_index(drop=True)
        n = len(g)
        v = np.floor(g[value_col].to_numpy(np.float64) * 100.0 + 0.5
                     ).astype(np.int64)
        pe = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(v, out=pe[1:])
        idx = np.arange(n, dtype=np.int64)
        if n:
            new = ~g[user_col].eq(g[user_col].shift()).to_numpy()
            part_start = np.maximum.accumulate(np.where(new, idx, 0))
        else:
            part_start = idx
        start = np.maximum(part_start, idx - (window - 1))
        return pd.DataFrame({
            user_col: g[user_col],
            id_col: g[id_col],
            "ts_us": g[ts_col].to_numpy(
                dtype="datetime64[us]").astype(np.int64),
            "moving_sum_cents": pe[idx + 1] - pe[start],
        })

    return group_apply(ds, user_col, kernel, batch_format="pandas",
                       whole_bucket=True)


def grouped_running_sum(
    ds: "ray.data.Dataset",
    key: str,
    val: str,
    order_cols: list[str],
    out: str = "running_sum",
) -> "ray.data.Dataset":
    """Per-key cumulative sum — SQL ``SUM(val) OVER (PARTITION BY key
    ORDER BY order_cols ROWS UNBOUNDED PRECEDING)`` over an INTEGER
    value column (exact, no float accumulation order to disagree on).

    ``order_cols`` must totally order rows within a key (include a
    unique tie-break) or the prefix at tied positions is
    partition-dependent. One key-hash bucket shuffle
    (:func:`whoiswho_ray.stages.agg.group_apply` whole-bucket mode),
    then ONE vectorized pass per bucket: sort by (key, order_cols),
    global cumsum, minus each key's segment-start offset — no per-key
    Python. The global counterpart (no key) is
    ``agg.with_running_total``.
    """
    from whoiswho_ray.stages.agg import group_apply

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_cols,
                          kind="stable").reset_index(drop=True)
        v = g[val].to_numpy(np.int64)
        if not len(g):
            g[out] = pd.Series([], dtype=np.int64)
            return g
        cs = np.cumsum(v)
        # NULL-stable key boundary (SQL PARTITION BY groups NULLs
        # together; NaN.eq(NaN) is False — ADVICE r4)
        k, kp = g[key], g[key].shift()
        new_key = ~(k.eq(kp) | (k.isna() & kp.isna())).to_numpy()
        # shift() pads row 0 with NaN — a NULL first key must still open
        # a partition
        new_key[0] = True
        # offset = cumsum BEFORE each key's first row. Propagate the key
        # START INDEX forward (indices are monotone, so
        # maximum.accumulate is safe even when v — and thus cs — goes
        # negative) and gather the prefix there.
        start_idx = np.maximum.accumulate(
            np.where(new_key, np.arange(len(g), dtype=np.int64), 0))
        offset = (cs - v)[start_idx]
        g = g.copy()
        g[out] = cs - offset
        return g

    return group_apply(ds, key, kernel, batch_format="pandas",
                       whole_bucket=True)


def sessionize(
    ds: "ray.data.Dataset",
    ts_col: str = "ts",
    user_col: str = "user_id",
    gap_minutes: float = 30.0,
) -> "ray.data.Dataset":
    """Session windows per user: a new session starts when the gap from the
    previous event exceeds ``gap_minutes``. Returns one row per session:
    (user_id, session_id, n_events, session_start, session_end).

    Partitioning assumption (documented per SURVEY.md §2.9): all events of
    one user fit one group; the groupby shuffle co-locates them."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_batch(g: pd.DataFrame) -> pd.DataFrame:
        """One group-batch may hold MANY users (hash-bucketed); the whole
        sessionization is vectorized: one sort, one diff, one C groupby."""
        order = [user_col, ts_col] + (["event_id"] if "event_id" in g.columns else [])
        g = g.sort_values(order, kind="stable").reset_index(drop=True)
        same_user = g[user_col].eq(g[user_col].shift())
        new_session = (~same_user) | (g[ts_col].diff() > gap)
        g["__sid"] = new_session.cumsum()
        out = g.groupby("__sid", sort=True).agg(
            **{
                user_col: (user_col, "first"),
                "n_events": (ts_col, "size"),
                "session_start": (ts_col, "min"),
                "session_end": (ts_col, "max"),
            }
        ).reset_index(drop=True)
        out["session_id"] = out.groupby(user_col).cumcount() + 1
        return out[[user_col, "session_id", "n_events", "session_start", "session_end"]]

    # co-locate each user's events with a hash-bucket groupby, then run the
    # vectorized kernel once per bucket
    nb = 64

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[user_col], index=False).to_numpy()
        df = df.copy()
        df["__bucket"] = (h % np.uint64(nb)).astype(np.int64)
        return df

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(lambda g: per_batch(g.drop(columns=["__bucket"])),
                    batch_format="pandas")
    )

def funnel(
    ds: "ray.data.Dataset",
    steps: list[str],
    ts_col: str = "ts",
    user_col: str = "user_id",
    id_col: str = "event_id",
    type_col: str = "event_type",
) -> "ray.data.Dataset":
    """Sequential funnel (MATCH_RECOGNIZE-lite): for each user, how far
    they progress through ``steps`` IN ORDER — step k must occur strictly
    after the matched step k-1 event under the engine-wide ``(ts, id)``
    ordering, and the match is greedy-earliest (each step matches its
    FIRST eligible event, the standard funnel semantics). Returns one row
    per user who completed step 1: ``(user, stages, first_us, last_us)``
    with ``stages`` = number of steps completed and ``last_us`` the
    timestamp of the deepest matched step.

    Scale shape: one hash-bucket shuffle on the user key; inside each
    bucket the kernel is per-STEP vectorized (filter to the step's
    events, map the user's cursor in, lexicographic ``(ts, id)``
    first-per-user via one sort + drop_duplicates) — no per-user Python
    loop. len(steps) passes over the bucket, each a few pandas C kernels.
    """
    if not steps:
        raise ValueError("funnel needs at least one step")
    from whoiswho_ray.stages.agg import group_apply

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        ts_us = g[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        base = pd.DataFrame({
            "u": g[user_col].to_numpy(),
            "t": ts_us,
            "i": g[id_col].to_numpy(),
            "y": g[type_col].to_numpy(),
        })
        cur: pd.DataFrame | None = None  # index: user; cols t, i
        stages = None
        first = None
        for k, step in enumerate(steps):
            sub = base[base["y"] == step]
            if cur is not None:
                ct = sub["u"].map(cur["t"])
                ci = sub["u"].map(cur["i"])
                ok = ct.notna() & ((sub["t"] > ct)
                                   | ((sub["t"] == ct) & (sub["i"] > ci)))
                sub = sub[ok.to_numpy()]
            hit = (sub.sort_values(["u", "t", "i"], kind="stable")
                   .drop_duplicates("u").set_index("u")[["t", "i"]])
            if k == 0:
                stages = pd.Series(np.int64(1), index=hit.index)
                first = hit["t"].copy()
                last = hit["t"].copy()
            else:
                stages.loc[hit.index] = np.int64(k + 1)
                last.loc[hit.index] = hit["t"]
            cur = hit
            if len(hit) == 0:
                break
        if stages is None or len(stages) == 0:
            return pd.DataFrame({
                user_col: pd.Series([], dtype=base["u"].dtype),
                "stages": pd.Series([], dtype=np.int64),
                "first_us": pd.Series([], dtype=np.int64),
                "last_us": pd.Series([], dtype=np.int64),
            })
        return pd.DataFrame({
            user_col: stages.index.to_numpy(),
            "stages": stages.to_numpy(np.int64),
            "first_us": first.to_numpy(np.int64),
            "last_us": last.to_numpy(np.int64),
        })

    return group_apply(ds, user_col, kernel, batch_format="pandas",
                       whole_bucket=True)


def first_last_grouped(
    ds: "ray.data.Dataset",
    key: str,
    order_cols: list[str],
    value_col: str,
    nth: int | None = None,
) -> "ray.data.Dataset":
    """``FIRST_VALUE`` / ``LAST_VALUE`` (and optionally ``NTH_VALUE``) of
    ``value_col`` per ``key`` partition ordered by ``order_cols`` —
    collapsed to one row per key: ``(key, n_rows, first_<v>, last_<v>
    [, nth<k>_<v>])``. ``nth`` counts from 1; a partition shorter than
    ``nth`` yields NULL, matching SQL's ``max(CASE WHEN rn = k ...)``.

    ``order_cols`` must totally order rows within a key (include a
    unique tie-break) or first/last at tied positions are
    partition-dependent — same contract as
    :func:`grouped_running_sum`.

    Scale shape: one key-hash bucket shuffle
    (:func:`whoiswho_ray.stages.agg.group_apply` whole-bucket mode),
    then one vectorized pass per bucket — sort by (key, order), NULL-
    stable key-boundary mask, gather at segment start / end / start+k.
    No per-key Python.
    """
    from whoiswho_ray.stages.agg import group_apply

    if nth is not None and nth < 1:
        raise ValueError("nth counts from 1")

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + order_cols,
                          kind="stable").reset_index(drop=True)
        cols = {key: g[key].iloc[0:0], "n_rows": pd.Series([], dtype=np.int64),
                f"first_{value_col}": g[value_col].iloc[0:0],
                f"last_{value_col}": g[value_col].iloc[0:0]}
        if nth is not None:
            cols[f"nth{nth}_{value_col}"] = g[value_col].iloc[0:0]
        if not len(g):
            return pd.DataFrame(cols)
        k, kp = g[key], g[key].shift()
        new_key = ~(k.eq(kp) | (k.isna() & kp.isna())).to_numpy()
        new_key[0] = True
        starts = np.flatnonzero(new_key)
        ends = np.r_[starts[1:], len(g)] - 1
        v = g[value_col]
        out = pd.DataFrame({
            key: g[key].iloc[starts].to_numpy(),
            "n_rows": (ends - starts + 1).astype(np.int64),
            f"first_{value_col}": v.iloc[starts].to_numpy(),
            f"last_{value_col}": v.iloc[ends].to_numpy(),
        })
        if nth is not None:
            pos = starts + (nth - 1)
            ok = pos <= ends
            nv = v.iloc[np.where(ok, pos, starts)].to_numpy(dtype=object)
            nv[~ok] = None
            out[f"nth{nth}_{value_col}"] = nv
        return out

    return group_apply(ds, key, kernel, batch_format="pandas",
                       whole_bucket=True)


def cohort_retention(
    ds: "ray.data.Dataset",
    user_col: str = "user_id",
    ts_col: str = "ts",
    period_days: int = 7,
) -> "ray.data.Dataset":
    """Cohort retention matrix: cohort = each user's FIRST activity
    period (Monday-aligned week index when ``period_days=7``), cell
    ``(cohort, offset)`` = how many of that cohort's users were active
    ``offset`` periods after their first one. Returns
    ``(cohort_period, period_offset, n_users)`` — all int64, exact.

    Period index is pure integer math on epoch microseconds (day 4 =
    1970-01-05, the first Monday, anchors weeks to DuckDB's
    ``date_trunc('week')`` convention), so the SQL replay has no float
    or timezone drift.

    Scale shape: one user-hash bucket shuffle; per bucket one
    vectorized pass (sort by (user, period), boundary masks propagate
    each user's first period forward, consecutive-dup mask keeps one
    row per (user, offset)) emitting bucket-partial ``(cohort, offset,
    n)`` counts — users are bucket-partitioned so partials are
    disjoint and the final combine is a tiny grouped sum.
    """
    from whoiswho_ray.stages.agg import group_apply, grouped_agg

    if period_days < 1:
        raise ValueError("period_days must be >= 1")
    period_us = np.int64(period_days) * 86_400_000_000
    anchor_us = np.int64(4) * 86_400_000_000  # 1970-01-05, first Monday

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                "cohort_period": pd.Series([], dtype=np.int64),
                "period_offset": pd.Series([], dtype=np.int64),
                "n_users": pd.Series([], dtype=np.int64),
            })
        us = g[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        period = (us - anchor_us) // period_us
        s = pd.DataFrame({"u": g[user_col].to_numpy(), "p": period})
        s = s.sort_values(["u", "p"], kind="stable").reset_index(drop=True)
        u, up = s["u"], s["u"].shift()
        new_user = ~(u.eq(up) | (u.isna() & up.isna())).to_numpy()
        new_user[0] = True
        p = s["p"].to_numpy()
        pos = np.arange(len(s), dtype=np.int64)
        start_idx = np.maximum.accumulate(np.where(new_user, pos, 0))
        cohort = p[start_idx]
        offset = p - cohort
        # one row per (user, offset): offsets are sorted within a user,
        # so consecutive-dup masking is exact
        keep = new_user | (offset != np.r_[np.int64(0), offset[:-1]])
        part = pd.DataFrame({"cohort_period": cohort[keep],
                             "period_offset": offset[keep]})
        part = part.groupby(["cohort_period", "period_offset"],
                            as_index=False).size()
        return pd.DataFrame({
            "cohort_period": part["cohort_period"].to_numpy(np.int64),
            "period_offset": part["period_offset"].to_numpy(np.int64),
            "n_users": part["size"].to_numpy(np.int64),
        })

    partials = group_apply(ds, user_col, kernel, batch_format="pandas",
                           whole_bucket=True)
    return grouped_agg(partials, ["cohort_period", "period_offset"],
                       {"n_users": ("n_users", "sum")})


def merge_intervals(
    ds: "ray.data.Dataset",
    key: str,
    start_col: str,
    end_col: str,
) -> "ray.data.Dataset":
    """Coalesce overlapping-or-touching intervals per key (gaps-and-islands
    over RANGES — the output-side complement of ``joins.overlap_join``):
    after sorting a key's intervals by (start, end), a new island opens
    when ``start > max(end of all earlier intervals of the key)``.
    Returns one row per island: (key, island_start, island_end,
    n_intervals).

    One key-hash bucket shuffle, then ONE vectorized pass per bucket:
    sort, per-key running ``cummax(end)`` (C groupby), boundary mask,
    island-id cumsum, one C groupby-agg — no per-key Python. Island
    membership is order-independent under (start, end) ties: a tied start
    can never open an island its twin didn't (prev cummax ≥ twin's end >
    shared start). Timestamps compare as int64 microseconds — exact.
    """
    from whoiswho_ray.stages.agg import group_apply

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        out_cols = {key: g[key], "island_start": g[start_col],
                    "island_end": g[end_col], "n_intervals": pd.Series([], dtype="int64")}
        if not len(g):
            return pd.DataFrame({c: v.iloc[0:0] if isinstance(v, pd.Series) else v
                                 for c, v in out_cols.items()})
        g = g.sort_values([key, start_col, end_col],
                          kind="stable").reset_index(drop=True)
        # running max end over the key's EARLIER rows (strictly
        # preceding); dropna=False — NULL keys form one ordinary
        # partition (SQL PARTITION BY), their cummax must not vanish
        pmax = g.groupby(key, sort=False, dropna=False)[end_col].cummax().shift()
        same_key = g[key].eq(g[key].shift()) | (g[key].isna() & g[key].shift().isna())
        new_island = (~same_key) | (g[start_col] > pmax)
        g["__island"] = new_island.cumsum()
        agg = g.groupby("__island", sort=True).agg(
            **{key: (key, "first"),
               "island_start": (start_col, "min"),
               "island_end": (end_col, "max"),
               "n_intervals": (start_col, "size")}).reset_index(drop=True)
        agg["n_intervals"] = agg["n_intervals"].astype("int64")
        return agg

    return group_apply(ds, key, kernel, batch_format="pandas",
                       whole_bucket=True)


def transition_counts(
    ds: "ray.data.Dataset",
    key: str,
    order_cols: list[str],
    state_col: str,
    prev_out: str = "prev_state",
    next_out: str = "next_state",
) -> "ray.data.Dataset":
    """First-order transition (Markov bigram) counts over per-key ordered
    event streams: for each key's sequence sorted by ``order_cols``, count
    every adjacent (state_i → state_{i+1}) pair globally, and attach the
    row-normalized transition probability ``p = n / Σ_next n``.

    The sequence-feature primitive behind behavioral models and
    session-path analytics. One key-hash bucket shuffle co-locates each
    key's events; inside each bucket: one sort, one shift, one C groupby
    → per-bucket PARTIAL counts (the combiner — the global shuffle moves
    O(distinct state pairs), never O(events)); a tiny grouped sum
    finishes, and ``p`` is one more pass over the (states²)-sized result.
    ``p`` is a single IEEE double division of exact int64 counts —
    bit-identical to the SQL oracle's ``CAST(n AS DOUBLE) / total``.
    Returns (prev_state, next_state, n, p).
    """
    from whoiswho_ray.stages.agg import group_apply, grouped_agg

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({prev_out: pd.Series([], dtype=object),
                              next_out: pd.Series([], dtype=object),
                              "n": pd.Series([], dtype="int64")})
        if len(g) < 2:
            return empty
        g = g.sort_values([key, *order_cols], kind="stable").reset_index(drop=True)
        k, kn = g[key], g[key].shift(-1)
        # NULL-stable: SQL PARTITION BY groups NULL keys together, so
        # adjacent NULL-keyed rows DO form a transition (ADVICE r4
        # NULL discipline); NaN.eq(NaN) alone would silently drop them
        same_key = k.eq(kn) | (k.isna() & kn.isna())
        pairs = pd.DataFrame({prev_out: g[state_col],
                              next_out: g[state_col].shift(-1)})[same_key.to_numpy()]
        if not len(pairs):
            return empty
        out = pairs.groupby([prev_out, next_out], sort=False).size().rename("n").reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    counts = grouped_agg(
        group_apply(ds, key, partial, batch_format="pandas", whole_bucket=True),
        [prev_out, next_out], {"n": ("n", "sum")}, final="shuffle")

    def attach_p(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["p"] = g["n"].to_numpy("int64").astype("float64") / g["n"].sum()
        return g

    return group_apply(counts, prev_out, attach_p, batch_format="pandas")


def debounce(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    order_col: str,
    min_gap: int,
    tiebreak_cols: list[str] | None = None,
) -> "ray.data.Dataset":
    """Windowed ingest dedup ("debounce"): drop a row when ANY earlier
    row with the same key lies within ``min_gap`` of it along
    ``order_col`` — the bounded-window duplicate suppression a 100 TB
    ingest runs on (content-hash, event-time) streams where true
    re-sends cluster in time but legitimate repeats recur later.

    NOT the greedy "gap from the last KEPT row" debounce (that is an
    inherently sequential scan per key): here the predicate references
    the closest EARLIER row, so it is exactly one lag — a row survives
    iff it is its key's first row or ``order - lag(order) > min_gap``
    under the (key, order, tiebreaks) total order. Order ties within a
    key are duplicates by definition (gap 0): only the first of a tie
    group survives. SQL-exact via ``lag()``.

    Scale shape: ONE key-hash bucketed exchange; inside each bucket the
    kernel is one sort + NULL-stable boundary masks across ALL keys —
    no per-key Python. Rows pass through with all their columns.
    """
    from whoiswho_ray.stages.agg import group_apply

    ties = list(tiebreak_cols or [])
    if len(key_cols) != 1:
        # group_apply buckets on one column; fold multi-keys upstream
        raise ValueError("debounce takes exactly one key column — "
                         "concatenate composite keys upstream")
    key = key_cols[0]
    sort_cols = [key, order_col, *ties]

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        df = df.sort_values(sort_cols, kind="stable")
        k, o = df[key], df[order_col]
        kp = k.shift()
        new_key = ~(k.eq(kp) | (k.isna() & kp.isna()))
        gap_ok = (o - o.shift()) > min_gap
        return df[new_key | (~new_key & gap_ok)]

    return group_apply(ds, key, bucket, batch_format="pandas",
                       whole_bucket=True)


def date_spine_gaps(
    ds: "ray.data.Dataset",
    date_col: str,
) -> pd.DataFrame:
    """Calendar-spine gap filling: the days with ZERO activity between
    the column's min and max date — the warehouse step that turns an
    activity log into a dense daily series (here reporting the holes;
    a left join against the same spine densifies).

    Scale shape: one per-batch distinct-day combiner (at most ~spine
    days per batch leave it) + one skinny distinct exchange — the
    distinct-day table is O(days), inherently driver-sized, so the
    spine subtraction is plain numpy on the driver. Returns
    ``(gap_day, gap_date)`` with days since 1970-01-01 as int64 and the
    ISO string (matching SQL ``strftime('%Y-%m-%d')``).
    """
    from whoiswho_ray.stages.agg import distinct

    def to_days(df: pd.DataFrame) -> pd.DataFrame:
        # NaT rows drop out, as NULLs do from SQL's min/max
        d = (df[date_col].dropna().to_numpy(dtype="datetime64[D]")
             .astype(np.int64))
        return pd.DataFrame({"day": d})

    days = distinct(ds.map_batches(to_days, batch_format="pandas"),
                    ["day"], final="driver")
    if not len(days):
        return pd.DataFrame({"gap_day": pd.Series([], dtype=np.int64),
                             "gap_date": pd.Series([], dtype=object)})
    active = days["day"].to_numpy(np.int64)
    lo, hi = int(active.min()), int(active.max())
    spine = np.arange(lo, hi + 1, dtype=np.int64)
    gaps = spine[~np.isin(spine, active)]
    return pd.DataFrame({
        "gap_day": gaps,
        "gap_date": gaps.astype("datetime64[D]").astype(str),
    })


def user_paths(
    ds: "ray.data.Dataset",
    key: str,
    order_cols: list[str],
    label_col: str,
    max_steps: int,
    sep: str = ">",
) -> "ray.data.Dataset":
    """User-journey path extraction — the sequence view behind funnel /
    path analysis: per key, the first ``max_steps`` labels under the
    (order_cols) total order concatenated into one path string
    (``view>click>purchase``). Truncation keeps the path vocabulary
    finite so downstream frequency counts actually collide.

    Scale shape: ONE key-hash bucketed exchange (order within a key is
    inherently global); inside each bucket one sort + groupby-head +
    a single C-level per-group join — no per-ROW Python. Returns
    ``(key, path)``; pair with a grouped count for path frequencies.
    """
    from whoiswho_ray.stages.agg import group_apply

    if max_steps < 1:
        raise ValueError("user_paths needs max_steps >= 1")

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({key: df.get(key, pd.Series(dtype=object)),
                                 "path": pd.Series(dtype=object)})
        df = df.sort_values([key, *order_cols], kind="stable")
        head = df.groupby(key, sort=False, dropna=False).head(max_steps)
        agg = (head.groupby(key, sort=False, dropna=False)[label_col]
               .agg(sep.join))
        return pd.DataFrame({key: agg.index.to_numpy(),
                             "path": agg.to_numpy()})

    return group_apply(ds, key, bucket, batch_format="pandas",
                       whole_bucket=True)
