"""Exact edit-distance (Levenshtein) similarity self-join.

The classic entity-resolution fuzzy join the reference's name-matching
cascade approximates with hand rules (``/root/reference/whoiswho/utils/
match_name.py`` tolerates token-level typos; this operator gives the exact
character-level contract): all pairs with ``levenshtein(a, b) <= k``.

Scale shape — PassJoin partition signatures (Li, Deng & Feng, "PASS-JOIN:
a partition-based method for similarity joins", PVLDB 5(3), 2011; see
PAPERS.md):

* every string of length ``l`` is **indexed** under its ``k+1`` even
  segments (pigeonhole: ≤ k edits leave at least one of k+1 segments
  untouched, and an untouched segment survives as an exact substring of
  the partner);
* every string of length ``m`` **probes** for each candidate partner
  length ``l ∈ [m-k, m]`` (shorter side indexed, halving candidate
  volume) the substrings that could be that partner's i-th segment —
  start shift ``d = q - p_i`` restricted to the exact alignment window
  ``|d| + |(m-l) - d| <= k`` (the prefix needs ≥ |d| edits and the suffix
  ≥ |(m-l)-d|);
* signature buckets (one hash-bucket co-group, many signatures per Ray task)
  cross index × probe members into candidate pairs, duplicates collapse
  in the global pair dedup, and the fused attach/verify shuffle
  (`dedup._verify_candidates_fused`) runs a **vectorized banded DP**
  over all candidate pairs at once — the inner minimum over the left
  dependency is closed with a running ``min(v[j'] + (j-j'))`` via
  ``np.minimum.accumulate``, so the DP is O(max_len) Python steps per
  batch regardless of pair count.

Distance semantics are **byte-level** over the UTF-8 encoding — exactly
DuckDB's ``levenshtein()`` (which counts byte edits: café→cafe = 2), so
the operator is exactly SQL-oracled even on non-ASCII input. Strings must
be non-null.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

if TYPE_CHECKING:  # pragma: no cover
    import ray.data


def _seg_bounds(l: int, k: int) -> list[tuple[int, int]]:
    """(start, width) of the k+1 even segments of an l-byte string.

    Convention: the first ``k+1-rem`` segments get ``l // (k+1)`` bytes,
    the last ``rem`` get one extra (any fixed convention works as long as
    index and probe agree). Widths may be 0 for l < k+1 — an empty
    segment matches trivially, which keeps the pigeonhole exact for
    short strings."""
    base, rem = divmod(l, k + 1)
    out = []
    p = 0
    for i in range(k + 1):
        w = base + (1 if i >= (k + 1 - rem) else 0)
        out.append((p, w))
        p += w
    return out


def _probe_shifts(D: int, k: int) -> list[int]:
    """Valid start shifts d = q - p_i for a probe of length m against an
    indexed length l = m - D: |d| + |D - d| <= k (exact alignment
    window — prefix edits >= |d|, suffix edits >= |D - d|)."""
    return [d for d in range(-k, k + 1) if abs(d) + abs(D - d) <= k]


def _as_binary(col) -> pa.Array:
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        arr = pc.cast(arr, pa.binary())
    elif pa.types.is_large_binary(arr.type):
        arr = pc.cast(arr, pa.binary())
    if arr.null_count:
        raise ValueError("edit_distance_join requires non-null strings")
    return arr


def _byte_matrix(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (rows × max_len) uint8 matrix + per-row byte lengths
    from a binary array — no per-row Python."""
    arr = _as_binary(arr)
    n = len(arr)
    if n == 0:
        return np.zeros((0, 0), np.uint8), np.zeros(0, np.int64)
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=np.int32)[arr.offset:arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.zeros(0, np.uint8)
    starts, lens = offsets[:-1], np.diff(offsets)
    L = int(lens.max()) if n else 0
    if L == 0 or data.size == 0:
        return np.zeros((n, 0), np.uint8), lens
    idx = starts[:, None] + np.arange(L, dtype=np.int64)[None, :]
    np.minimum(idx, data.size - 1, out=idx)  # pad region reads are masked by lens
    return data[idx], lens


def levenshtein_batch(A: np.ndarray, la: np.ndarray, B: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Byte-level Levenshtein for P pairs at once. A: (P, La), B: (P, Lb)
    uint8; la/lb true lengths. O(La) Python iterations, each fully
    vectorized over pairs × positions (left dependency closed by the
    ``min_{j'<=j}(v[j'] + (j-j'))`` accumulate identity)."""
    P = A.shape[0]
    Lb = B.shape[1]
    jr = np.arange(Lb + 1, dtype=np.int32)
    dp = np.repeat(jr[None, :], P, axis=0)
    if P == 0:
        return np.zeros(0, np.int64)
    for i in range(1, A.shape[1] + 1):
        active = la >= i
        if not active.any():
            break
        neq = (A[:, i - 1:i] != B).astype(np.int32)
        full = np.empty((P, Lb + 1), np.int32)
        full[:, 0] = i
        if Lb:
            np.minimum(dp[:, 1:] + 1, dp[:, :-1] + neq, out=full[:, 1:])
        tmp = full - jr
        np.minimum.accumulate(tmp, axis=1, out=tmp)
        tmp += jr
        dp[active] = tmp[active]
    return dp[np.arange(P), lb].astype(np.int64)


def _signatures(t: pa.Table, key_col: str, text_col: str, k: int,
                group_col: str | None = None) -> pa.Table:
    """Per-batch signature emission, vectorized per (length, combo): all
    rows of one byte length share fixed slice offsets, so each (l, i[, d])
    combination is ONE Arrow binary_slice over the length-subset — no
    per-row Python in the loop body. With ``group_col`` the group value
    is prepended elementwise into each signature, so only same-group
    strings ever share a bucket (group values must not contain '|')."""
    bin_arr = _as_binary(t.column(text_col))
    keys = t.column(key_col).combine_chunks() if isinstance(t.column(key_col), pa.ChunkedArray) else t.column(key_col)
    groups = None
    if group_col is not None:
        g = t.column(group_col)
        groups = pc.cast(g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g,
                         pa.binary())
    lens = pc.binary_length(bin_arr).to_numpy(zero_copy_only=False).astype(np.int64)
    sigs: list[pa.Array] = []
    out_keys: list[pa.Array] = []
    sides: list[np.ndarray] = []
    for m in np.unique(lens):
        m = int(m)
        sel = np.flatnonzero(lens == m)
        idx = pa.array(sel, pa.int64())
        sub_bin = bin_arr.take(idx)
        sub_keys = keys.take(idx)
        sub_groups = groups.take(idx) if groups is not None else None
        n_before = len(sigs)
        nsub = len(sel)
        # index side: my own k+1 segments under my own length
        for i, (p, w) in enumerate(_seg_bounds(m, k)):
            seg = pc.binary_slice(sub_bin, p, p + w) if w else pc.binary_slice(sub_bin, 0, 0)
            sig = pc.binary_join_element_wise(
                pa.scalar(f"{m}|{i}|".encode(), pa.binary()), seg, pa.scalar(b"", pa.binary()))
            sigs.append(sig)
            out_keys.append(sub_keys)
            sides.append(np.zeros(nsub, np.int8))
        # probe side: substrings that could be segment i of a SHORTER
        # (or equal) partner of length l = m - D
        for D in range(0, k + 1):
            l = m - D
            if l < 0:
                continue
            shifts = _probe_shifts(D, k)
            for i, (p, w) in enumerate(_seg_bounds(l, k)):
                if w == 0:
                    # empty segment matches at any position — one signature
                    sig = pc.binary_join_element_wise(
                        pa.scalar(f"{l}|{i}|".encode(), pa.binary()),
                        pc.binary_slice(sub_bin, 0, 0), pa.scalar(b"", pa.binary()))
                    sigs.append(sig)
                    out_keys.append(sub_keys)
                    sides.append(np.ones(nsub, np.int8))
                    continue
                starts = sorted({p + d for d in shifts if 0 <= p + d <= m - w})
                for q in starts:
                    sub = pc.binary_slice(sub_bin, q, q + w)
                    sig = pc.binary_join_element_wise(
                        pa.scalar(f"{l}|{i}|".encode(), pa.binary()), sub,
                        pa.scalar(b"", pa.binary()))
                    sigs.append(sig)
                    out_keys.append(sub_keys)
                    sides.append(np.ones(nsub, np.int8))
        if sub_groups is not None:
            # group-scoped buckets: prepend the group value elementwise
            for x in range(n_before, len(sigs)):
                sigs[x] = pc.binary_join_element_wise(
                    sub_groups, sigs[x], pa.scalar(b"|", pa.binary()))
    if not sigs:
        return pa.table({"sig": pa.array([], pa.binary()),
                         "key": pa.array([], keys.type),
                         "side": pa.array([], pa.int8())})
    return pa.table({
        "sig": pa.concat_arrays([s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s for s in sigs]),
        "key": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in out_keys]),
        "side": pa.array(np.concatenate(sides)),
    })


def edit_distance_join(
    ds: "ray.data.Dataset",
    key_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    num_buckets: int | None = None,
    group_col: str | None = None,
) -> "ray.data.Dataset":
    """All pairs (key_a < key_b, dist) with byte-level
    ``levenshtein(text_a, text_b) <= k``. Exact (PassJoin pigeonhole
    recall + exact DP verify). With ``group_col``, only same-group pairs
    join (the group value is folded into every signature, so cross-group
    strings never meet — zero extra shuffles). Output is inherently
    quadratic on degenerate near-identical corpora — as with the
    similarity joins, that is the answer's size, not the algorithm's
    overhead."""
    from whoiswho_ray.stages.cluster import _cc_num_buckets
    from whoiswho_ray.stages.agg import distinct
    from whoiswho_ray.stages.dedup import PAIR_COLS, _verify_candidates_fused
    from whoiswho_ray.stages.joins import cogroup

    nb = num_buckets or _cc_num_buckets()
    side = ds.map_batches(
        lambda t: pa.table({key_col: t.column(key_col),
                            "s": _as_binary(t.column(text_col))}),
        batch_format="pyarrow", zero_copy_batch=True)

    sigs = ds.map_batches(
        lambda t: _signatures(t, key_col, text_col, k, group_col),
        batch_format="pyarrow", zero_copy_batch=True)

    def pair_kernel(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas().drop_duplicates(["sig", "key", "side"]).sort_values(
            ["sig", "side", "key"], kind="stable")
        sg = df["sig"].to_numpy()
        sd = df["side"].to_numpy()
        ky = df["key"].to_numpy()
        empty = pd.DataFrame({"key_a": np.empty(0, ky.dtype),
                              "key_b": np.empty(0, ky.dtype)})
        if sg.size == 0:
            return empty
        bounds = np.flatnonzero(np.r_[True, sg[1:] != sg[:-1], True])
        starts, ends = bounds[:-1], bounds[1:]
        # per segment: index members (side 0) sorted first, probes after
        n0 = np.add.reduceat((sd == 0).astype(np.int64), starts)
        n1 = (ends - starts) - n0
        cnt = n0 * n1
        keep = cnt > 0
        if not keep.any():
            return empty
        ss, e0, c0, c1 = starts[keep], n0[keep], n0[keep], n1[keep]
        tot = cnt[keep]
        off = np.zeros(tot.size + 1, np.int64)
        np.cumsum(tot, out=off[1:])
        tpos = np.arange(int(off[-1]), dtype=np.int64)
        gi = np.searchsorted(off, tpos, side="right") - 1
        local = tpos - off[gi]
        ii = local // c1[gi]                    # index member offset
        jj = local % c1[gi]                     # probe member offset
        a = ky[ss[gi] + ii]
        b = ky[ss[gi] + e0[gi] + jj]
        ne = a != b
        a, b = a[ne], b[ne]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return pd.DataFrame({"key_a": lo, "key_b": hi}).drop_duplicates()

    cand = distinct(cogroup([(sigs, "sig")], pair_kernel, nb), PAIR_COLS, final="shuffle")

    def verify(ka: pa.Array, kb: pa.Array, va: pa.Array, vb: pa.Array) -> pa.Table:
        A, la = _byte_matrix(va)
        B, lb = _byte_matrix(vb)
        pre = np.abs(la - lb) <= k
        sel = np.flatnonzero(pre)
        dist = np.full(len(la), k + 1, np.int64)
        if sel.size:
            dist[sel] = levenshtein_batch(A[sel], la[sel], B[sel], lb[sel])
        ok = dist <= k
        mask = pa.array(ok)
        return pa.table({
            "key_a": (ka.combine_chunks() if isinstance(ka, pa.ChunkedArray) else ka).filter(mask),
            "key_b": (kb.combine_chunks() if isinstance(kb, pa.ChunkedArray) else kb).filter(mask),
            "dist": pa.array(dist[ok], pa.int64()),
        })

    return _verify_candidates_fused(cand, side, key_col, "s", verify, nb)


def edit_distance_dedup(
    ds: "ray.data.Dataset",
    key_col: str = "doc_id",
    text_col: str = "text",
    k: int = 3,
    group_col: str | None = None,
) -> "ray.data.Dataset":
    """Fuzzy (typo-tolerant) dedup: connected components of the
    edit-distance graph. One (key_col, dup_group) row per input row,
    dup_group = the component's minimum key (isolates label themselves).
    Exact — the edge set is the exact PassJoin join, and the component
    labels come from the same output-bounded union-find / star-contraction
    machinery as the LSH dedups (`dedup._labels_with_isolates`)."""
    from whoiswho_ray.stages.dedup import _labels_with_isolates

    edges = edit_distance_join(ds, key_col=key_col, text_col=text_col,
                               k=k, group_col=group_col)
    return _labels_with_isolates(ds, edges, key_col)


def jw_name_join(
    ds: "ray.data.Dataset",
    name_col: str,
    tau: float,
    block_sep: str = " ",
) -> "ray.data.Dataset":
    """Jaro-Winkler fuzzy name self-join with first-token blocking — the
    reference's name-similarity matching (``/root/reference/whoiswho/
    character/name_match/``-style fuzzy pairing) as a distributed join:
    all DISTINCT-name pairs sharing a blocking token (first
    ``block_sep``-separated token) with ``jaro_winkler(a, b) >= tau``,
    canonicalized ``name_a < name_b``, each carrying the two names' row
    multiplicities (``n_a * n_b`` = the expanded row-pair count, emitted
    without materializing it).

    Our :func:`whoiswho_ray.functions.similarity.jaro_winkler` is
    bit-parity with DuckDB's ``jaro_winkler_similarity`` (asserted in
    tests), so the operator is exactly SQL-oracled; pick ``tau`` away
    from attained scores (the oracle check guards the margin).

    Scale shape: one streaming distinct-count pass collapses rows to
    (name, n_rows) — fuzzy joins on a NAME column are vocabulary-bounded,
    the classic distinct-values optimization — then one block-hash
    shuffle of the distinct names and a per-block pair kernel. JW runs
    in lockstep over the distinct PAIRS within a block (bounded by the
    block's distinct-name count squared, not its row count); blocks here are
    name-prefix groups, the same blocking the SND flagship applies
    before its pair kernels.
    """
    from whoiswho_ray.functions.similarity import jaro_winkler_pairs
    from whoiswho_ray.stages.agg import group_apply, grouped_agg

    names = grouped_agg(ds, name_col, {"n_rows": (None, "count")},
                        final="shuffle")

    def add_block(df: pd.DataFrame) -> pd.DataFrame:
        first = df[name_col].astype(str).str.split(block_sep, n=1).str[0]
        return df.assign(__block=first)

    blocked = names.map_batches(add_block, batch_format="pandas")

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "name_a": pd.Series([], dtype=object),
            "name_b": pd.Series([], dtype=object),
            "jw": pd.Series([], dtype=np.float64),
            "n_a": pd.Series([], dtype=np.int64),
            "n_b": pd.Series([], dtype=np.int64),
        })
        n = len(g)
        if n < 2:
            return empty
        g = g.sort_values(name_col, kind="stable").reset_index(drop=True)
        nm = g[name_col].to_numpy(object)
        cnt = g["n_rows"].to_numpy(np.int64)
        ii, jj = np.triu_indices(n, k=1)
        jw = jaro_winkler_pairs(nm.tolist(), ii, jj)
        keep = jw >= tau
        if not keep.any():
            return empty
        ii, jj, jw = ii[keep], jj[keep], jw[keep]
        return pd.DataFrame({
            "name_a": nm[ii], "name_b": nm[jj], "jw": jw,
            "n_a": cnt[ii], "n_b": cnt[jj],
        })

    out = group_apply(blocked, "__block", kernel, batch_format="pandas",
                      whole_bucket=False)
    return out
