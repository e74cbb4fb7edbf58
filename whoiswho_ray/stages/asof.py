"""Time-ordered joins: as-of join and range-interval aggregate join.

The reference's nearest analog is its year-proximity candidate filtering
(`/root/reference/whoiswho/featureGenerator/rndFeature/adhoc_features.py`
caps candidate papers by year distance inside per-author loops); here the
capability is promoted to two first-class distributed operators the
Dataset API lacks natively:

* ``asof_join`` — for each left row, the right row of the same key with
  the greatest right-time <= left-time (backward as-of, inner). One hash
  shuffle on the key; ``pd.merge_asof`` (a C merge kernel) inside each
  bucket task. Ties on (key, right-time) are broken deterministically by
  ``tie_break`` (max wins) so the result is oracle-exact against DuckDB's
  ``ASOF JOIN`` over a tie-deduped right side.
* ``range_agg_join`` — per left row, COUNT + integer-cents SUM of right
  rows of the same key with right-time in ``(left-time - window,
  left-time]``. Same single shuffle; inside the bucket the aggregate is
  fully vectorized: rank-compress times, build a composite
  (key_code, time_rank) sort key over the right side, two global
  ``searchsorted`` calls for the interval bounds, and a prefix-sum for
  the windowed sums — no per-row or per-key Python loop.

Integer exactness (ADVICE r2): the shuffle is a `joins.cogroup`, whose
bucket tables hold each side's own columns only (no padding, never pandas
NaN), so int64 columns are not promoted to float64 across it; and the
as-of merge itself carries only a small positional index through
``pd.merge_asof`` — right payload columns are gathered afterwards by
position — so values above 2^53 survive bit-exact even when some left
rows are unmatched.

Partitioning assumption (SURVEY.md §2.9 discipline): all right-side rows
of one key fit one hash bucket's task. Buckets default to 64 so skew in
one key spreads only within its bucket; salt upstream if a single key's
history exceeds task memory.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from whoiswho_ray.stages.joins import cogroup


def _validate_disjoint(lcols, out_right_cols, op: str):
    overlap = set(lcols) & set(out_right_cols)
    if overlap:
        raise ValueError(
            f"{op}: output right columns {sorted(overlap)} collide with left "
            "column names; rename or project one side first")


def _known_columns(ds) -> list[str] | None:
    """The column names of ``ds`` if Ray knows them without running its
    plan (a materialized or read-only input), else None: the column
    checks run at the call when they can, and in each bucket task
    always."""
    schema = ds.schema(fetch_if_missing=False)
    return None if schema is None else list(schema.names)


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    by: tuple[str, str] | str,
    left_on: str,
    right_on: str,
    right_cols: list[str] | None = None,
    tie_break: str | None = None,
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Backward inner as-of join (latest right row at or before left time).

    ``by`` is the equality key: one column name shared by both sides or a
    ``(left_key, right_key)`` pair. ``tie_break``: when several right rows
    share (key, right_on), keep the one with the max ``tie_break`` value —
    mirrors a GROUP BY dedup in the SQL oracle so both engines pick the
    same row. ``tie_break`` need not be listed in ``right_cols``; it is
    consulted during dedup either way.

    Output columns: every left column, then ``right_on``, then
    ``right_cols`` (default: all remaining right columns). Right output
    names overlapping left names raise up front rather than silently
    suffixing.
    """
    import pyarrow as pa

    lkey, rkey = (by, by) if isinstance(by, str) else by

    def out_right(lcols: list[str], rcols: list[str]) -> list[str]:
        payload = [c for c in (right_cols if right_cols is not None else rcols)
                   if c not in (rkey, right_on)]
        for c in payload + ([tie_break] if tie_break else []):
            if c not in rcols:
                raise ValueError(f"asof_join: column {c!r} not on the right side")
        _validate_disjoint(lcols, [right_on] + payload, "asof_join")
        return [right_on] + payload

    known = _known_columns(left), _known_columns(right)
    if None not in known:
        out_right(*known)

    def merge_bucket(lt: pa.Table, rt: pa.Table):
        if not lt.num_rows or not rt.num_rows:
            return lt.slice(0, 0)
        lcols = lt.column_names
        right_out = out_right(lcols, rt.column_names)
        l, r = lt.to_pandas(), rt.to_pandas()
        if tie_break is not None:
            r = (r.sort_values([rkey, right_on, tie_break], kind="stable")
                  .drop_duplicates([rkey, right_on], keep="last"))
        l = l.sort_values(left_on, kind="stable").reset_index(drop=True)
        r = r.sort_values(right_on, kind="stable").reset_index(drop=True)
        # carry only a positional index through merge_asof: unmatched left
        # rows make the merged right columns float64 (NaN), which would
        # corrupt int64 payloads > 2^53 — the index is always small-exact
        ridx = r[[rkey, right_on]].copy()
        ridx["__ri"] = np.arange(len(r), dtype=np.int64)
        out = pd.merge_asof(
            l, ridx, left_on=left_on, right_on=right_on,
            left_by=lkey, right_by=rkey, suffixes=("", "__r"),
            direction="backward", allow_exact_matches=True)
        out = out.dropna(subset=["__ri"])
        ri = out["__ri"].to_numpy().astype(np.int64)
        res = out[lcols].reset_index(drop=True)
        gathered = r.iloc[ri].reset_index(drop=True)
        for c in right_out:
            res[c] = gathered[c]
        return res

    return cogroup([(left, lkey), (right, rkey)], merge_bucket, num_buckets)


def range_agg_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    by: tuple[str, str] | str,
    left_on: str,
    right_on: str,
    value_col: str,
    window: "pd.Timedelta",
    num_buckets: int = 64,
) -> "ray.data.Dataset":
    """Windowed-interval aggregate join: per left row, count and
    integer-cents sum of same-key right rows with
    ``right_on`` in ``(left_on - window, left_on]``.

    Returns the left columns plus ``n_right`` (int64) and ``sum_cents``
    (int64). Sums are exact by NOTES.md rule 7: per-row
    ``floor(v*100+0.5)`` then integer prefix-sums — never an
    order-dependent float sum.
    """
    import pyarrow as pa

    lkey, rkey = (by, by) if isinstance(by, str) else by
    win_ns = np.int64(pd.Timedelta(window).value)

    out_cols = ["n_right", "sum_cents"]
    _validate_disjoint(_known_columns(left) or [], out_cols, "range_agg_join")

    def agg_bucket(lt: pa.Table, rt_: pa.Table) -> pd.DataFrame:
        _validate_disjoint(lt.column_names, out_cols, "range_agg_join")
        l = lt.to_pandas()
        out = l.copy()
        if not len(l) or not rt_.num_rows:
            out = out.assign(n_right=np.int64(0), sum_cents=np.int64(0))
            return out if len(l) else out.iloc[:0]
        r = rt_.to_pandas()
        r = r.sort_values([rkey, right_on], kind="stable")
        rk = r[rkey].to_numpy()
        rt = r[right_on].to_numpy().astype("datetime64[ns]").astype(np.int64)
        cents = np.floor(r[value_col].to_numpy() * 100.0 + 0.5).astype(np.int64)
        csum = np.concatenate([[np.int64(0)], np.cumsum(cents)])

        lk = l[lkey].to_numpy()
        lt_ns = l[left_on].to_numpy().astype("datetime64[ns]").astype(np.int64)
        lo_b, hi_b = lt_ns - win_ns, lt_ns

        # rank-compress all times so interval bounds share the right side's
        # ordinal space, then one composite (key_code, rank) searchsorted
        # per bound — vectorized over every left row at once
        all_t = np.unique(np.concatenate([rt, lo_b, hi_b]))
        m = np.int64(len(all_t) + 1)
        keys_all = np.unique(np.concatenate([rk, lk]))
        rkc = np.searchsorted(keys_all, rk).astype(np.int64)
        lkc = np.searchsorted(keys_all, lk).astype(np.int64)
        comp_r = rkc * m + np.searchsorted(all_t, rt)  # sorted by construction
        lo_idx = np.searchsorted(comp_r, lkc * m + np.searchsorted(all_t, lo_b),
                                 side="right")  # strict: rank > rank(lo)
        hi_idx = np.searchsorted(comp_r, lkc * m + np.searchsorted(all_t, hi_b),
                                 side="right")  # inclusive: rank <= rank(hi)
        out["n_right"] = (hi_idx - lo_idx).astype(np.int64)
        out["sum_cents"] = csum[hi_idx] - csum[lo_idx]
        return out

    return cogroup([(left, lkey), (right, rkey)], agg_bucket, num_buckets)
