"""Vectorizing and pair-scoring kernels.

* ``TfidfVectorizer`` — attaches each record's sparse unit-norm TF-IDF
  vector (the w2v-mean-embedding analog of ``semantic_features.py:43-135``;
  BASELINE.json's north star replaces w2v with TF-IDF cosine). It follows
  the reference's "load state once per process, score per item" pattern
  (``whoiswho/character/feature_process.py:28-44`` in the reference loads
  four idf dicts in ``__loadEssential`` at construction): the IdfModel is
  broadcast **once** via ``ray.put`` and each worker process builds one
  vectorizer from it (:func:`vectorize`).
* The pair-feature kernels the block kernels score with — the
  36-dim-hand-feature analog (``feature_process.py:242-350``) reduced to
  the score the SND trainer actually blends (``AutoTrainSND.py:142-161``):
  token Jaccard (coauthor analog), repo tanimoto (org), context tanimoto
  (venue), TF-IDF cosine, Jaro-Winkler on basenames. The features of a
  pair come from ``pairs._matrix_features`` or ``pairs._flat_features``
  and its score from ``pairs._weighted_score``, for SND, IND and RND's
  record × profile pairs alike. :func:`allpairs_matrix` serves blocks up
  to ``matrix_block_cap`` (and a partition's small blocks at once),
  :func:`_intersections` the larger ones and RND's pairs;
  :func:`score_pair_arrays` is the scalar oracle they are tested
  against.

The kernels are fully vectorized: token sets are flattened **zero-copy**
via (values, offsets), and every set intersection of a flat batch is
computed in one lexsort + duplicate-count pass (tokens are unique per
side, so a (pair, token) appearing twice == one intersection hit). No
Python loop touches the token data, and Jaro-Winkler runs in lockstep
over the distinct name pairs (:func:`jw_for_pairs`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.functions.similarity import (
    cosine_sparse,
    jaccard_sorted,
    jaro_winkler,
    jaro_winkler_pairs,
)
from whoiswho_ray.stages.idf import IdfModel
from whoiswho_ray.stages.joins import _cached_get


class TfidfVectorizer:
    """Adds ``tfv_ids`` (sorted in-vocab token ids) and ``tfv_w``
    (idf weights, L2-normalized) list columns — Arrow in / Arrow out, one
    vectorized vocabulary lookup per batch (flattened token stream,
    ``searchsorted`` against the sorted vocab, per-row renormalization via
    ``reduceat``); blocks stay Arrow through the whole pipeline."""

    def __init__(self, idf_ref: "ray.ObjectRef | IdfModel",
                 keep: list[str] | None = None, compact: bool = False,
                 ship_weights: bool = True, sha_binary: bool = False):
        self.idf: IdfModel = ray.get(idf_ref) if isinstance(idf_ref, ray.ObjectRef) else idf_ref
        # ship_weights=False (compact only): tfv_w is NOT attached — the
        # block kernel re-derives it from the shipped int32 positions and
        # the broadcast idf array (scoring.reconstruct_tfv_w, bit-identical
        # op order), cutting 4 B/token-occurrence out of the blocking
        # all-to-all. sha_binary: ship content_sha256 as
        # fixed_size_binary(32) (half the hex string's bytes); the cluster
        # output converts back to hex.
        self.ship_weights = ship_weights
        self.sha_binary = sha_binary
        # compact shuffle encoding (see vectorize(compact=...)): tfv_ids as
        # int32 vocab POSITIONS (bijective with the hashed ids — every
        # consumer only tests equality/intersection) and tok_ids replaced
        # by the scalar count tok_n. Exact j_tok stays computable because a
        # min_df-pruned token has df==1, i.e. it occurs in exactly ONE
        # record corpus-wide and can never be in any pair's intersection;
        # the caller gates compact on (min_df <= 2 and not truncated).
        self.compact = compact
        # optional projection applied INSIDE this map stage: the SND tail
        # only reads 8–9 of normalize's columns, and the blocking shuffle
        # right after this stage is object-fetch-bound at high core counts,
        # so dead columns (repo/path/commit/lang strings) cost wall time
        # 1:1. Projecting here is free — a separate select_columns stage
        # after an actor pool cannot fuse and measurably doubles the
        # headline (extra full materialization).
        self.keep = keep

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.keep is not None:
            t = t.select([c for c in self.keep if c not in ("tfv_ids", "tfv_w")])
        values, lens = _flat(t.column("tok_ids"))
        n = t.num_rows
        vocab = self.idf.ids
        if vocab.size and values.size:
            pos = np.searchsorted(vocab, values)
            pos[pos == vocab.size] = 0
            hit = vocab[pos] == values
        else:
            pos = np.zeros(0, dtype=np.int64)
            hit = np.zeros(values.size, dtype=bool)

        row_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        new_lens = np.bincount(row_idx[hit], minlength=n)
        new_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(new_lens, out=new_off[1:])

        hit_ids = values[hit]
        w = self.idf.idf[pos[hit]].astype(np.float64) if vocab.size else np.empty(0)
        norms = np.ones(n, dtype=np.float64)
        nonempty = new_lens > 0
        if nonempty.any():
            sq = np.add.reduceat(w * w, new_off[:-1][nonempty])
            norms[nonempty] = np.sqrt(sq)
        norms[norms == 0] = 1.0
        w_norm = (w / np.repeat(norms, new_lens)).astype(np.float32)

        off32 = pa.array(new_off.astype(np.int32))
        if self.compact:
            tok_n = lens.astype(np.int32)
            i = t.schema.get_field_index("tok_ids")
            t = t.remove_column(i).add_column(
                i, "tok_n", pa.array(tok_n, pa.int32()))
            hit_pos = pos[hit] if vocab.size else np.empty(0, np.int64)
            tfv_id_arr = pa.array(hit_pos.astype(np.int32), pa.int32())
        else:
            tfv_id_arr = pa.array(hit_ids, pa.int64())
        if self.sha_binary and "content_sha256" in t.column_names:
            hexes = t.column("content_sha256").to_pylist()
            i = t.schema.get_field_index("content_sha256")
            t = t.remove_column(i).add_column(
                i, "content_sha256",
                pa.array([bytes.fromhex(h) for h in hexes],
                         pa.binary(32)))
        t = t.append_column("tfv_ids", pa.ListArray.from_arrays(off32, tfv_id_arr))
        if self.ship_weights or not self.compact:
            t = t.append_column(
                "tfv_w", pa.ListArray.from_arrays(off32, pa.array(w_norm, pa.float32())))
        return t


def vectorize(
    normalized: "ray.data.Dataset",
    idf: IdfModel,
    cfg: SNDConfig | None = None,
    keep: list[str] | None = None,
    compact: bool = False,
    ship_weights: bool = True,
    sha_binary: bool = False,
) -> "ray.data.Dataset":
    """``compact=True`` requests the compact shuffle encoding (int32
    tfv positions, ``tok_ids`` → scalar ``tok_n``) for pipelines whose
    downstream kernels only need intersections — exact j_tok/cos are
    preserved because min_df ≤ 2 prunes only never-intersecting df==1
    tokens. Auto-disabled (falling back to the full encoding) when the
    vocabulary was truncated or min_df > 2, where pruned tokens CAN
    intersect.

    ``ship_weights=False`` (compact only) drops the float32 ``tfv_w``
    column from the shuffle; consumers re-derive it bit-identically from
    the int32 positions + the broadcast idf array
    (:func:`reconstruct_tfv_w`). ``sha_binary=True`` ships
    ``content_sha256`` as ``fixed_size_binary(32)`` instead of the
    64-char hex string.

    The vectorizer runs as a task-pool map; each worker process builds it
    once from the broadcast IdfModel (``joins._cached_get``) — no actor
    startup, and the map stage can fuse with a downstream shuffle's map
    side."""
    cfg = cfg or SNDConfig()
    compact = bool(compact and cfg.min_df <= 2 and not idf.truncated)
    idf_ref = ray.put(idf)
    kw = {"keep": keep, "compact": compact,
          "ship_weights": ship_weights or not compact,
          "sha_binary": sha_binary}

    def tfidf_vectorize(t: pa.Table, _ref=idf_ref, _kw=kw) -> pa.Table:
        return _cached_get(_ref, lambda m: TfidfVectorizer(m, **_kw))(t)

    return normalized.map_batches(
        tfidf_vectorize,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
    )


def reconstruct_tfv_w(tfv_vals: np.ndarray, tfv_off: np.ndarray,
                      idf_w: np.ndarray) -> np.ndarray:
    """Re-derive the per-row L2-normalized tf-idf weights from compact
    int32 vocab positions — the EXACT mirror of ``TfidfVectorizer``'s
    weight computation (same idf float32 source, same float64 ``reduceat``
    per-row norm, same float32 cast), so the reconstructed weights are
    bit-identical to the ones ``ship_weights=True`` would have shipped.
    Per-row norms depend only on that row's own values, so regrouping
    rows across tasks cannot change the result."""
    w = idf_w[tfv_vals].astype(np.float64)
    lens = np.diff(tfv_off)
    n = lens.size
    norms = np.ones(n, dtype=np.float64)
    nonempty = lens > 0
    if nonempty.any():
        sq = np.add.reduceat(w * w, tfv_off[:-1][nonempty])
        norms[nonempty] = np.sqrt(sq)
    norms[norms == 0] = 1.0
    return (w / np.repeat(norms, lens)).astype(np.float32)


# ---------------------------------------------------------------------------
# vectorized batch kernels
# ---------------------------------------------------------------------------


def _flat(col: "pa.ChunkedArray | pa.Array") -> tuple[np.ndarray, np.ndarray]:
    """Arrow list-like column → (flat values, row lengths), zero-copy.

    Handles plain list/large_list, fixed_size_list, and Ray's tensor
    extension types (which pandas-sourced blocks of uniform-length arrays
    get converted into)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.ExtensionArray):
        col = col.storage
    if isinstance(col, pa.StructArray):  # variable-shaped tensor storage
        col = col.field("data")
    if isinstance(col, pa.FixedSizeListArray):
        size = col.type.list_size
        values = col.values.to_numpy(zero_copy_only=False)
        start = col.offset * size
        values = values[start: start + len(col) * size]
        return values, np.full(len(col), size, dtype=np.int64)
    values = col.values.to_numpy(zero_copy_only=False)
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    # a sliced ListArray's values buffer can extend beyond the slice
    values = values[offsets[0]: offsets[-1]]
    return values, np.diff(offsets)


def _intersections(
    n: int,
    vals_a: np.ndarray, len_a: np.ndarray,
    vals_b: np.ndarray, len_b: np.ndarray,
    w_a: np.ndarray | None = None, w_b: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-pair set-intersection sizes (and weighted dot products) for a
    whole batch in one lexsort pass.

    Each side's tokens are unique within a row, so after sorting the
    combined (pair_idx, token) stream, a duplicate neighbor == one
    intersection hit; the weighted dot is the product of the two
    neighbors' weights summed per pair."""
    pair_a = np.repeat(np.arange(n, dtype=np.int64), len_a)
    pair_b = np.repeat(np.arange(n, dtype=np.int64), len_b)
    pair = np.concatenate([pair_a, pair_b])
    toks = np.concatenate([vals_a, vals_b])
    order = np.lexsort((toks, pair))
    sp = pair[order]
    st = toks[order]
    dup = (sp[1:] == sp[:-1]) & (st[1:] == st[:-1])
    inter = np.bincount(sp[1:][dup], minlength=n)
    dots = None
    if w_a is not None:
        w = np.concatenate([w_a.astype(np.float64), w_b.astype(np.float64)])[order]
        contrib = w[1:][dup] * w[:-1][dup]
        # float64 even with no hit (bincount of an empty input is int64)
        dots = np.bincount(sp[1:][dup], weights=contrib, minlength=n).astype(
            np.float64, copy=False)
    return inter, dots


# The floor of ``allpairs_matrix``'s dense-token cut: a token in at most
# this many records is always enumerated, never sent to the dense path.
KCAP_FLOOR = 16

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Set bits per uint64 element (SWAR; numpy 1.26 has no
    ``bitwise_count``). Overwrites ``x``."""
    x -= (x >> np.uint64(1)) & _M1
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x += x >> np.uint64(4)
    x &= _M4
    x *= _H01
    x >>= np.uint64(56)
    return x


def _bitset_overlaps(n: int, rows: np.ndarray, cols: np.ndarray, n_cols: int,
                     ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """|S_i ∩ S_j| for each pair over the (row, col) indicator set: rows
    packed into uint64 bitsets, one AND + popcount per pair and word."""
    words = np.zeros(((n_cols + 63) // 64, n), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
    np.bitwise_or.at(words, (cols >> 6, rows), bits)
    out = np.zeros(ii.size, dtype=np.uint64)
    for w in words:
        out += _popcount64(w[ii] & w[jj])
    return out.astype(np.float64)


def allpairs_matrix(
    n: int,
    values: np.ndarray,
    offsets: np.ndarray,
    weights: np.ndarray | None = None,
    with_counts: bool = False,
    pairs: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> "np.ndarray | tuple[np.ndarray, np.ndarray]":
    """Full n×n intersection-count (or weighted-dot) matrix for n sets
    given flat (values, offsets) — one sort over the token stream plus a
    vectorized segment pair enumeration + bincount.

    ``with_counts=True`` (requires ``weights``) returns ``(dots, counts)``
    from the SAME sort + segment enumeration — the compact-encoding block
    kernel needs both the tf-idf dots and the raw intersection sizes of
    one token stream, and sharing the pass beats two calls.

    ``pairs=(ii, jj)`` scores only those pairs: the result is one float64
    vector per matrix, equal to ``allpairs_matrix(...)[ii, jj]`` bit for
    bit, without the n×n count matrices. The keys ``ii·n + jj`` must be
    sorted and unique (``triu_indices`` and ``candidate_index_pairs``
    produce them so). Frequent-token counts come from a popcount over
    uint64 bitsets — exact integers, like the BLAS products they replace;
    frequent-token dots still come from ``X @ X.T`` (gathered at the
    pairs), the one n×n allocation left. Rare-token cells are enumerated
    as in the matrix form and mapped to their pair by ``searchsorted``,
    so ``bincount`` adds each pair's contributions in the same order onto
    the same 0.0 (NOTES fact 11).

    This is the reference's per-name N×N similarity matrix
    (``AutoTrainSND.py:142-161``) recomputed per *block* with bounded n:
    cost O(T log T + Σ_t k_t²) where k_t = records containing token t —
    linear in practice, never materialized beyond one small block.
    """
    if pairs is None:
        size = n * n
    else:
        ii, jj = pairs
        q = ii.astype(np.int64) * n + jj
        if not (q[1:] > q[:-1]).all():
            raise ValueError("pairs must be sorted and unique by i*n + j")
        size = q.size
    lens = np.diff(offsets)
    row_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
    order = np.argsort(values, kind="stable")
    sr = row_idx[order]
    sv = values[order]
    sw = weights[order] if weights is not None else None
    bounds = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1], True])
    k = np.diff(bounds)
    M = np.zeros(size, dtype=np.float64)
    C = np.zeros(size, dtype=np.float64) if with_counts else None

    # --- high-frequency tokens: dense indicator columns + one BLAS syrk ---
    # (enumeration would cost Σk² pair rows; X@X.T costs n²·T_big flops).
    # Threshold swept empirically on the bench blocks (single-threaded
    # BLAS, as inside Ray workers): max(KCAP_FLOOR, √n/2) beats the old
    # max(64, 2√n) 5× on the 2560-row hot block and ~10% on typical
    # blocks — the segment enumeration's index arithmetic dominates far
    # below the flop-balance point, so mid-frequency tokens belong in the
    # syrk. Pure-BLAS (kcap=1) loses on hapax-heavy streams; pure-enum
    # (kcap=∞) loses 10×.
    kcap = max(KCAP_FLOOR, int(np.sqrt(n)) // 2)
    big = k > kcap
    if big.any():
        starts_b = bounds[:-1][big]
        kk_b = k[big]
        t_big = int(big.sum())
        cols = np.repeat(np.arange(t_big, dtype=np.int64), kk_b)
        flat = np.concatenate([sr[s: s + m] for s, m in zip(starts_b, kk_b)])
        if pairs is not None and sw is None:
            M += _bitset_overlaps(n, flat, cols, t_big, ii, jj)
        else:
            X = np.zeros((n, t_big), dtype=np.float64)
            if sw is None:
                X[flat, cols] = 1.0
            else:
                X[flat, cols] = np.concatenate([sw[s: s + m] for s, m in zip(starts_b, kk_b)])
            G = X @ X.T
            M += G.ravel() if pairs is None else G[ii, jj]
            del G, X
        if C is not None:
            if pairs is not None:
                C += _bitset_overlaps(n, flat, cols, t_big, ii, jj)
            else:
                Xi = np.zeros((n, t_big), dtype=np.float64)
                Xi[flat, cols] = 1.0
                C += (Xi @ Xi.T).ravel()

    # --- low-frequency tokens: segment pair enumeration + bincount ---
    multi = (k > 1) & ~big
    if multi.any() and size:
        starts = bounds[:-1][multi]
        kk = k[multi]
        sq = kk * kk
        off2 = np.zeros(sq.size + 1, dtype=np.int64)
        np.cumsum(sq, out=off2[1:])
        total = int(off2[-1])
        t = np.arange(total, dtype=np.int64)
        g = np.searchsorted(off2, t, side="right") - 1
        local = t - off2[g]
        a = starts[g] + local // kk[g]
        b = starts[g] + local % kk[g]
        cell = sr[a] * n + sr[b]
        if pairs is not None:
            # each cell → its pair's slot; cells of no candidate pair drop
            slot = np.minimum(np.searchsorted(q, cell), size - 1)
            hit = q[slot] == cell
            cell, a, b = slot[hit], a[hit], b[hit]
        if sw is None:
            M += np.bincount(cell, minlength=size)
        else:
            M += np.bincount(cell, weights=sw[a] * sw[b], minlength=size)
        if C is not None:
            C += np.bincount(cell, minlength=size)
    if pairs is None:
        M = M.reshape(n, n)
        C = C.reshape(n, n) if C is not None else None
    if with_counts:
        return M, C
    return M


def jw_for_pairs(names: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Jaro-Winkler of the lowercased names of each pair ``(ii, jj)``, one
    lockstep evaluation (``similarity.jaro_winkler_pairs``) per DISTINCT
    unordered name pair: blocks hold few distinct name forms, so many
    pairs collapse to a few evaluations, and a partition's blocks share
    one call. A missing name counts as "". Each pair is evaluated with
    the smaller name (in code point order) first, both lowercased."""
    clean = np.array([x or "" for x in names], dtype=object)
    uniq, codes = np.unique(clean.astype("U"), return_inverse=True)
    k = np.int64(max(uniq.size, 1))
    ca, cb = codes[ii].astype(np.int64), codes[jj].astype(np.int64)
    uk, inv = np.unique(np.minimum(ca, cb) * k + np.maximum(ca, cb), return_inverse=True)
    lowered = [str(s).lower() for s in uniq]
    return jaro_winkler_pairs(lowered, uk // k, uk % k)[inv]


def score_pair_arrays(
    tok_a: np.ndarray, tok_b: np.ndarray,
    repo_a: np.ndarray, repo_b: np.ndarray,
    ctx_a: np.ndarray, ctx_b: np.ndarray,
    tfv_ids_a: np.ndarray, tfv_w_a: np.ndarray,
    tfv_ids_b: np.ndarray, tfv_w_b: np.ndarray,
    name_a: str, name_b: str,
    cfg: SNDConfig,
) -> tuple[float, float, float, float, float, float]:
    """Scalar reference implementation of one pair's features + score —
    the oracle the vectorized batch kernel is tested against."""
    j_tok = jaccard_sorted(tok_a, tok_b)
    t_repo = jaccard_sorted(repo_a, repo_b)
    t_ctx = jaccard_sorted(ctx_a, ctx_b)
    cos = cosine_sparse(tfv_ids_a, tfv_w_a, tfv_ids_b, tfv_w_b)
    jw = jaro_winkler(name_a.lower(), name_b.lower())
    score = (
        cfg.w_tokens * j_tok
        + cfg.w_repo * t_repo
        + cfg.w_ctx * t_ctx
        + cfg.w_tfidf * cos
        + cfg.w_name * jw
    )
    return j_tok, t_repo, t_ctx, cos, jw, score

