"""Candidate-pair generation inside blocks (the A5 analog of SURVEY.md).

The reference materializes a dense N×N similarity matrix per name
(``/root/reference/whoiswho/training/AutoTrainSND.py:142-161``) — fine for
thousands of rows, fatal at scale. Here the blocking shuffle is one
``sort(block_key)``; each sorted partition holds whole blocks and goes to
the block kernel in one call (``pipelines.snd._blocked``), and pairs are
*rows*, not a matrix:

* blocks ≤ ``max_allpairs_block`` records emit all C(n,2) pairs (reference
  parity regime — every pair the reference would score is scored);
* hot blocks are **salted into MinHash-LSH sub-keys** (BASELINE.json north
  star: "skewed hot blocks are split by salted sub-keys and re-merged in
  the transitive-closure pass"): records sharing a signature band land in a
  sub-bucket, pairs are generated within buckets, duplicates across buckets
  removed, and recall across buckets is recovered because union-find joins
  any chain of within-bucket edges. A same-repo sub-key is added since the
  repo field carries the reference's org-weight.
* an oversized sub-bucket degrades to deterministic sorted-neighborhood
  pairing (window pairs on sorted record_id) under ``max_pairs_per_group``
  — bounded-pair scoring has reference precedent (profile caps at
  ``adhoc_features.py:105``), and truncation is *reported* per block via
  the ``truncated_pairs`` metric column, never silent.

Pairs never become rows that leave the block task, the shape of a
distributed streaming set-similarity join (PAPERS.md): each kernel
generates its candidates and verifies them in the task that owns the
partition (:func:`_score_partition`), so only its output — kept edges,
clusters, counts — enters the object store. The whole stage is
vectorized: partitions arrive as Arrow tables and are decoded once,
token sets are flattened zero-copy, minhash signatures come from one
``reduceat`` pass, the set overlaps of all the partition's small blocks
come from one all-pairs pass per token family, Jaro-Winkler runs once
over the partition's distinct name pairs and union-find once over its
edges — no per-pair Python objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.functions.hashing import MinHasher, band_keys_matrix
from whoiswho_ray.stages.scoring import KCAP_FLOOR

_MINHASHERS: dict[tuple[int, int], MinHasher] = {}


def _minhasher(cfg: SNDConfig) -> MinHasher:
    key = (cfg.lsh_bands * cfg.lsh_rows, cfg.seed)
    if key not in _MINHASHERS:
        _MINHASHERS[key] = MinHasher(num_hashes=key[0], seed=key[1])
    return _MINHASHERS[key]


def _flat_list(col) -> tuple[np.ndarray, np.ndarray]:
    """Arrow list column → (flat values, offsets int64[n+1]), zero-copy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.ExtensionArray):
        col = col.storage
    if isinstance(col, pa.StructArray):
        col = col.field("data")
    if isinstance(col, pa.FixedSizeListArray):
        size = col.type.list_size
        values = col.values.to_numpy(zero_copy_only=False)
        start = col.offset * size
        values = values[start: start + len(col) * size]
        return values, np.arange(len(col) + 1, dtype=np.int64) * size
    values = col.values.to_numpy(zero_copy_only=False)
    offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return values[offsets[0]: offsets[-1]], offsets - offsets[0]


def _window_pairs(idx: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic sorted-neighborhood pairs: (i, i+d) for d ≤ W keeping
    the count under budget. idx must already be in canonical (record_id)
    order so the pairing is input-order invariant. Fully vectorized."""
    n = idx.size
    w = max(1, budget // max(n, 1))
    ia, ib = [], []
    total = 0
    for d in range(1, min(w, n - 1) + 1):
        ia.append(idx[:-d])
        ib.append(idx[d:])
        total += n - d
        if total >= budget:
            break
    a = np.concatenate(ia)[:budget]
    b = np.concatenate(ib)[:budget]
    return a, b


def candidate_index_pairs(
    record_ids: np.ndarray,
    tok_values: np.ndarray,
    tok_offsets: np.ndarray,
    repo_first: np.ndarray,
    cfg: SNDConfig,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Candidate (i, j) index arrays for one block + truncated-pair count.

    Deterministic and invariant to input row order (everything is keyed on
    record_ids). ``repo_first`` is each record's first repo-token hash
    (-1 when absent) — the same-repo salt key.
    """
    n = record_ids.size
    empty = np.empty(0, dtype=np.int64)
    if n < 2:
        return empty, empty, 0
    if n <= cfg.max_allpairs_block:
        ii, jj = np.triu_indices(n, 1)
        return ii.astype(np.int64), jj.astype(np.int64), 0

    mh = _minhasher(cfg)
    sigs = mh.signatures_flat(tok_values, tok_offsets)
    bands = band_keys_matrix(sigs, cfg.lsh_bands, cfg.lsh_rows)  # (n, bands)

    order = np.argsort(record_ids, kind="stable")  # canonical order
    pairs_i: list[np.ndarray] = []
    pairs_j: list[np.ndarray] = []
    truncated = 0
    seen_buckets: set[bytes] = set()  # bands repeat near-identical buckets

    def emit_bucket(members: np.ndarray) -> None:
        nonlocal truncated
        m = members.size
        if m < 2:
            return
        digest = members.tobytes()
        if digest in seen_buckets:
            return
        seen_buckets.add(digest)
        if m * (m - 1) // 2 <= cfg.max_pairs_per_group:
            bi, bj = np.triu_indices(m, 1)
            pairs_i.append(members[bi])
            pairs_j.append(members[bj])
        else:
            wa, wb = _window_pairs(members, cfg.max_pairs_per_group)
            truncated += m * (m - 1) // 2 - wa.size
            pairs_i.append(wa)
            pairs_j.append(wb)

    # band buckets (vectorized grouping per band, members in canonical order)
    for b in range(cfg.lsh_bands):
        keys = bands[order, b]
        sort2 = np.argsort(keys, kind="stable")
        ks = keys[sort2]
        bounds = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1], True])
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s >= 2:
                emit_bucket(order[sort2[s:e]])
    # same-repo salt buckets
    keys = repo_first[order]
    sort2 = np.argsort(keys, kind="stable")
    ks = keys[sort2]
    bounds = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1], True])
    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s >= 2 and ks[s] != -1:
            emit_bucket(order[sort2[s:e]])

    if not pairs_i:
        return empty, empty, truncated
    ii = np.concatenate(pairs_i)
    jj = np.concatenate(pairs_j)
    # bucket members and window pairs are in record_id order, so every
    # pair is already canonically oriented; dedup across buckets
    uniq = np.unique(ii * np.int64(n) + jj)
    return (uniq // n).astype(np.int64), (uniq % n).astype(np.int64), truncated


@dataclass
class _Rows:
    """The scoring inputs of a run of rows (a partition, or one block of
    it), decoded once: record ids, raw names, each token family as flat
    (values, offsets), the tf-idf weights aligned with the ``tfv``
    values, ``tok_n`` on the compact encoding (None on the full one),
    and the token stream plus first-repo key the hot-block salt reads."""

    rids: np.ndarray
    names: np.ndarray
    sets: dict
    tfv_w: "np.ndarray | None"
    tok_n: "np.ndarray | None"
    salt: tuple
    repo_first: np.ndarray

    @property
    def n(self) -> int:
        return self.rids.size

    def block(self, s: int, e: int) -> "_Rows":
        """Rows ``[s, e)`` as views of these arrays."""
        def cut(values, offsets):
            return values[offsets[s]: offsets[e]], offsets[s: e + 1] - offsets[s]

        to = self.sets["tfv"][1]
        return _Rows(self.rids[s:e], self.names[s:e],
                     {f: cut(*vo) for f, vo in self.sets.items()},
                     None if self.tfv_w is None else self.tfv_w[to[s]: to[e]],
                     None if self.tok_n is None else self.tok_n[s:e],
                     cut(*self.salt), self.repo_first[s:e])


def _decode(t: pa.Table, idf_w=None) -> _Rows:
    """Decode a vectorized table for scoring. ``idf_w``: the broadcast
    idf array, needed when ``tfv_w`` was not shipped
    (``ship_weights=False``) — the weights are re-derived bit-identically
    from the compact positions (``scoring.reconstruct_tfv_w``)."""
    from whoiswho_ray.stages.scoring import reconstruct_tfv_w

    compact = "tok_ids" not in t.column_names
    fams = ("repo", "ctx", "tfv") if compact else ("tok", "repo", "ctx", "tfv")
    sets = {f: _flat_list(t.column(f"{f}_ids")) for f in fams}
    tv, to = sets["tfv"]
    if "tfv_w" in t.column_names:
        tfv_w = _flat_list(t.column("tfv_w"))[0]
    else:
        tfv_w = reconstruct_tfv_w(tv, to, idf_w) if idf_w is not None else None
    # compact shuffle encoding (scoring.vectorize(compact=True)): the
    # hot-block minhash salting runs on the in-vocab tfv positions — the
    # df==1 tokens the full encoding adds are unshareable noise for
    # similarity banding anyway
    salt = (tv.astype(np.int64), to) if compact else sets["tok"]
    repo_values, repo_offsets = sets["repo"]
    lens = np.diff(repo_offsets)
    repo_first = np.full(lens.size, -1, dtype=np.int64)
    nonempty = lens > 0
    repo_first[nonempty] = repo_values[repo_offsets[:-1][nonempty]]
    tok_n = (t.column("tok_n").to_numpy(zero_copy_only=False).astype(np.float64)
             if compact else None)
    return _Rows(_objects(t.column("record_id")), _objects(t.column("name")), sets,
                 tfv_w, tok_n, salt, repo_first)


def _objects(col) -> np.ndarray:
    """A string column as an object array of Python strings."""
    return np.asarray(col.to_numpy(zero_copy_only=False), dtype=object)


def _candidates(rows: _Rows, cfg: SNDConfig):
    """:func:`candidate_index_pairs` of one block's decoded rows."""
    return candidate_index_pairs(rows.rids, *rows.salt, rows.repo_first, cfg)


def block_metrics(group: pa.Table, cfg: SNDConfig) -> pa.Table:
    """Per-block lineage/metrics row: size, pair counts, salting/truncation."""
    n = group.num_rows
    if n < 2:
        n_pairs, truncated = 0, 0
    else:
        ii, jj, truncated = _candidates(_decode(group), cfg)
        n_pairs = int(ii.size)
    return pa.table({"block_key": [group.column("block_key")[0].as_py()],
                     "n_records": [n], "n_pairs": [n_pairs],
                     "salted": [n > cfg.max_allpairs_block],
                     "truncated_pairs": [truncated]}, schema=BLOCK_METRICS_SCHEMA)


BLOCK_METRICS_SCHEMA = pa.schema([
    ("block_key", pa.string()), ("n_records", pa.int64()), ("n_pairs", pa.int64()),
    ("salted", pa.bool_()), ("truncated_pairs", pa.int64())])


def _matrix_features(rows: _Rows, ii: np.ndarray, jj: np.ndarray) -> dict:
    """The set features of the pairs ``(ii, jj)`` from one all-pairs pass
    per feature family (the reference's per-name matrix, block-bounded)
    that scores only the candidate pairs — no per-pair set ops, no n×n
    count matrices."""
    from whoiswho_ray.stages.scoring import allpairs_matrix

    n = rows.n

    def jac(fam):
        values, offsets = rows.sets[fam]
        inter = allpairs_matrix(n, values, offsets, pairs=(ii, jj))
        lens = np.diff(offsets).astype(np.float64)
        union = lens[ii] + lens[jj] - inter
        return np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)

    tfv_vals, tfv_off = rows.sets["tfv"]
    tfv_w64 = rows.tfv_w.astype(np.float64)
    if rows.tok_n is not None:
        # ONE pass yields both the tf-idf dots and the intersection
        # counts of the tfv stream, which give j_tok exactly with the
        # original token counts, since the min_df-pruned tokens (df==1)
        # can never intersect
        cos, inter = allpairs_matrix(n, tfv_vals, tfv_off, tfv_w64,
                                     with_counts=True, pairs=(ii, jj))
        union = rows.tok_n[ii] + rows.tok_n[jj] - inter
        j_tok = np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)
    else:
        j_tok = jac("tok")
        cos = allpairs_matrix(n, tfv_vals, tfv_off, tfv_w64, pairs=(ii, jj))
    return {"j_tok": j_tok, "t_repo": jac("repo"), "t_ctx": jac("ctx"), "cos": cos}


def _flat_features(rows: _Rows, ii: np.ndarray, jj: np.ndarray) -> dict:
    """The set features of the pairs ``(ii, jj)`` for blocks above
    ``matrix_block_cap``: each pair's sets are gathered and intersected
    in one lexsort pass per family (``scoring._intersections``)."""
    from whoiswho_ray.stages.scoring import _intersections

    m = ii.size

    def gather(values, offsets, idx):
        l = np.diff(offsets)[idx]
        out_off = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(l, out=out_off[1:])
        flat = np.repeat(offsets[idx], l) + (
            np.arange(int(out_off[-1])) - np.repeat(out_off[:-1], l))
        return values[flat], l

    def jac(fam):
        (va, la), (vb, lb) = (gather(*rows.sets[fam], ii), gather(*rows.sets[fam], jj))
        i2, _ = _intersections(m, va, la, vb, lb)
        u = la + lb - i2
        return np.where(u > 0, i2 / np.maximum(u, 1), 0.0)

    tfv_vals, tfv_off = rows.sets["tfv"]
    (ia, la), (ib, lb) = gather(tfv_vals, tfv_off, ii), gather(tfv_vals, tfv_off, jj)
    wa, wb = gather(rows.tfv_w, tfv_off, ii)[0], gather(rows.tfv_w, tfv_off, jj)[0]
    # one weighted intersection pass over tfv yields both the cosine dots
    # and the intersection counts (the exact j_tok numerator on the
    # compact encoding — pruned df==1 tokens never intersect)
    inter, cos = _intersections(m, ia, la, ib, lb, wa.astype(np.float64),
                                wb.astype(np.float64))
    if rows.tok_n is not None:
        union = rows.tok_n[ii] + rows.tok_n[jj] - inter
        j_tok = np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)
    else:
        j_tok = jac("tok")
    return {"j_tok": j_tok, "t_repo": jac("repo"), "t_ctx": jac("ctx"), "cos": cos}


def _weighted_score(feats: dict, cfg: SNDConfig) -> np.ndarray:
    """The pair score: the config's weighted sum of the five features."""
    return (cfg.w_tokens * feats["j_tok"] + cfg.w_repo * feats["t_repo"]
            + cfg.w_ctx * feats["t_ctx"] + cfg.w_tfidf * feats["cos"]
            + cfg.w_name * feats["jw"])


def _feature_names(cfg: SNDConfig) -> list[str]:
    """The per-pair features the scorer returns, in order
    (``relational_adjust`` adds three when ``w_rel`` is set)."""
    return ["j_tok", "t_repo", "t_ctx", "cos", "jw", "score"] + (
        ["cn", "rel", "aa"] if cfg.w_rel else [])


def _finish(feats: dict, names: np.ndarray, n: int, ii: np.ndarray,
            jj: np.ndarray, cfg: SNDConfig) -> dict:
    """Add Jaro-Winkler over the pairs' names and the score (blended with
    the graph view when ``w_rel`` is set). Every step is per pair or
    reads only edges inside one block, so rows and pairs of many blocks
    can go through at once."""
    from whoiswho_ray.stages.scoring import jw_for_pairs

    feats["jw"] = jw_for_pairs(names, ii, jj)
    feats["score"] = _weighted_score(feats, cfg)
    if cfg.w_rel:
        from whoiswho_ray.stages.relational import relational_adjust

        feats = relational_adjust(n, ii, jj, feats, cfg)
    return feats


def _score_block(group: pa.Table, cfg: SNDConfig, idf_w=None):
    """One block → (rids, ii, jj, feats, truncated) — candidate generation
    + scoring, with the count of pairs the candidate budget dropped;
    None when the block yields no candidate pairs. The per-block
    reference scorer: no kernel calls it (they score whole partitions
    through :func:`_score_partition`), and the tests hold the partition
    scorer's features equal to it bit for bit. ``idf_w``: as for
    :func:`_decode`."""
    n = group.num_rows
    if n < 2:
        return None
    rows = _decode(group, idf_w)
    ii, jj, truncated = _candidates(rows, cfg)
    if ii.size == 0:
        return None
    feats = (_matrix_features(rows, ii, jj) if n <= cfg.matrix_block_cap
             else _flat_features(rows, ii, jj))
    return rows.rids, ii, jj, _finish(feats, rows.names, n, ii, jj, cfg), truncated


def _block_bounds(keys: pa.Array) -> tuple[np.ndarray, list]:
    """(row offsets of the blocks, int64[B+1]; their keys) of a
    partition's ``block_key`` column, sorted, from one comparison pass."""
    if len(keys) == 0:
        return np.zeros(1, dtype=np.int64), []
    k = keys.to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1], True])
    firsts = keys.take(pa.array(starts[:-1]))
    if len(firsts) > 1 and not pc.all(pc.less(firsts.slice(0, len(firsts) - 1),
                                              firsts.slice(1))).as_py():
        raise ValueError("a block kernel's input must be sorted by block_key")
    return starts, firsts.to_pylist()


# Blocks of at most this many records score together, one all-pairs pass
# per token family over the whole partition: no token of such a block is
# frequent enough for ``allpairs_matrix``'s dense path (its floor is the
# same constant), so the batched and the per-block pass both enumerate
# and give each pair the same sum, bit for bit (NOTES fact 12).
SMALL_BLOCK = KCAP_FLOOR


def _keyed(rows: _Rows, keep: np.ndarray, block_of_row: np.ndarray) -> _Rows:
    """``rows`` with the rows outside ``keep`` emptied and every set value
    replaced by a (block, value) key, so that no token is shared across
    blocks and, within a block, keys sort as the values do."""
    def key(values, offsets):
        lens = np.diff(offsets)
        on = np.repeat(keep, lens)
        kept_lens = np.where(keep, lens, 0)
        out_off = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(kept_lens, out=out_off[1:])
        uniq, rank = np.unique(values[on], return_inverse=True)
        blk = np.repeat(block_of_row, lens)[on]
        return blk * np.int64(max(uniq.size, 1)) + rank, out_off, on

    sets, on_tfv = {}, None
    for fam, (values, offsets) in rows.sets.items():
        k, off, on = key(values, offsets)
        sets[fam] = (k, off)
        if fam == "tfv":
            on_tfv = on
    return _Rows(rows.rids, rows.names, sets, rows.tfv_w[on_tfv], rows.tok_n,
                 rows.salt, rows.repo_first)


@dataclass
class _Scored:
    """A scored partition: its rows, block offsets and keys, every
    candidate pair as partition row indices (block by block, each block's
    pairs in candidate order), the per-pair features, and per block the
    candidate and truncated pair counts."""

    table: pa.Table
    block_key: pa.Array
    rows: _Rows
    starts: np.ndarray
    keys: list
    ii: np.ndarray
    jj: np.ndarray
    feats: dict
    n_pairs: np.ndarray
    truncated: np.ndarray


def _score_partition(part: pa.Table, cfg: SNDConfig, idf_w=None) -> _Scored:
    """Score every block of a key-sorted partition with one decode, one
    batched all-pairs pass per family for the blocks of at most
    :data:`SMALL_BLOCK` records, one Jaro-Winkler pass and one graph
    blend for the whole partition. Each block's candidates still come
    from :func:`candidate_index_pairs`; larger blocks, salted hot blocks
    and the flat regime score block by block as :func:`_score_block`
    does. The features equal the per-block scorer's bit for bit."""
    rows = _decode(part, idf_w)
    block_key = part.column("block_key").combine_chunks()
    starts, keys = _block_bounds(block_key)
    sizes = np.diff(starts)
    n_pairs = np.zeros(sizes.size, dtype=np.int64)
    truncated = np.zeros(sizes.size, dtype=np.int64)
    small = ((sizes >= 2) & (sizes <= SMALL_BLOCK) & (sizes <= cfg.max_allpairs_block)
             & (sizes <= cfg.matrix_block_cap))
    pieces = []   # (ii, jj, feats or None) per block with pairs, in block order
    for b in np.flatnonzero(sizes >= 2):
        s, e = int(starts[b]), int(starts[b + 1])
        view = rows.block(s, e)
        ii, jj, truncated[b] = _candidates(view, cfg)
        n_pairs[b] = ii.size
        if not ii.size:
            continue
        feats = None
        if not small[b]:
            feats = (_matrix_features(view, ii, jj) if e - s <= cfg.matrix_block_cap
                     else _flat_features(view, ii, jj))
        pieces.append((ii + s, jj + s, feats))

    def cat(arrays, dtype=np.float64):
        if len(arrays) == 1:
            return arrays[0]
        return np.concatenate(arrays) if arrays else np.empty(0, dtype)

    ii = cat([p[0] for p in pieces], np.int64)
    jj = cat([p[1] for p in pieces], np.int64)
    is_small = np.repeat(np.array([p[2] is None for p in pieces], dtype=bool),
                         [p[0].size for p in pieces])
    fams = ("j_tok", "t_repo", "t_ctx", "cos")
    if not is_small.any():
        feats = {f: cat([p[2][f] for p in pieces]) for f in fams}
    else:
        keep = np.repeat(small, sizes)
        keyed = _keyed(rows, keep, np.repeat(np.arange(sizes.size), sizes))
        feats = _matrix_features(keyed, ii[is_small], jj[is_small])
        if not is_small.all():
            for f in fams:
                v = np.empty(ii.size)
                v[is_small] = feats[f]
                v[~is_small] = np.concatenate([p[2][f] for p in pieces if p[2] is not None])
                feats[f] = v
    del pieces
    return _Scored(part, block_key, rows, starts, keys, ii, jj,
                   _finish(feats, rows.names, rows.n, ii, jj, cfg), n_pairs, truncated)


_HEX = np.frombuffer(bytes.hex(bytes(range(256))).encode(), dtype=np.uint8).reshape(256, 2)


def _record_order(t: pa.Table, starts: np.ndarray) -> tuple[np.ndarray, pa.Array]:
    """The row order that puts each block's rows in record_id order, and
    ``content_sha256`` as hex in that order. The hash may arrive as
    fixed_size_binary(32) (the compact shuffle encoding); its hex is
    spelled straight from the binary buffer."""
    n = t.num_rows
    blk = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    order = pc.sort_indices(pa.table({"b": blk, "r": t.column("record_id")}),
                            sort_keys=[("b", "ascending"), ("r", "ascending")]
                            ).to_numpy().astype(np.int64)
    sha = t.column("content_sha256").combine_chunks()
    if not pa.types.is_fixed_size_binary(sha.type):
        return order, sha.take(pa.array(order)).cast(pa.string())
    if n == 0:
        return order, pa.array([], pa.string())
    w = sha.type.byte_width
    raw = np.frombuffer(sha.buffers()[1], dtype=np.uint8)[sha.offset * w:(sha.offset + n) * w]
    hexed = _HEX[raw.reshape(n, w)[order]]
    offsets = np.arange(0, 2 * w * (n + 1), 2 * w, dtype=np.int32)
    return order, pa.StringArray.from_buffers(n, pa.py_buffer(offsets), pa.py_buffer(hexed))


def _sorted_pos(order: np.ndarray) -> np.ndarray:
    """Each row's position in record_id-sorted order (inverse of ``order``)."""
    pos = np.empty(order.size, dtype=np.int64)
    pos[order] = np.arange(order.size, dtype=np.int64)
    return pos


def _cluster_rows(block_key: pa.Array, rids: np.ndarray, order: np.ndarray,
                  shas_sorted, labels: np.ndarray) -> pa.Table:
    """Cluster rows in ``order`` (record_id order within each block);
    ``labels`` are sorted positions of each record's component root.
    ``block_key``: each row's key (sorting within blocks leaves it in
    place)."""
    rids_sorted = pa.array(rids[order], pa.string())
    return pa.table({
        "block_key": block_key,
        "record_id": rids_sorted,
        "cluster_id": pc.binary_join_element_wise(
            block_key, rids_sorted.take(pa.array(labels, pa.int64())), "#"),
        "content_sha256": pa.array(shas_sorted, pa.string()),
    })


def _clustered(sc: _Scored, cfg: SNDConfig):
    """Cluster a scored partition: (record order, sorted positions,
    kept-edge mask, labels). Edges at or above ``min(tau_attach,
    tau_edge)`` feed ONE ``cluster_edge_arrays`` call as block-offset
    sorted positions: no component spans a block, and within a block
    partner index order is still record_id order."""
    from whoiswho_ray.stages.cluster import cluster_edge_arrays

    order, shas = _record_order(sc.table, sc.starts)
    pos = _sorted_pos(order)
    keep = sc.feats["score"] >= min(cfg.tau_attach, cfg.tau_edge)
    labels = np.arange(sc.rows.n, dtype=np.int64)
    if sc.ii.size:
        labels = cluster_edge_arrays(sc.rows.n, pos[sc.ii[keep]], pos[sc.jj[keep]],
                                     sc.feats["score"][keep], cfg)
    return order, shas, pos, keep, labels


def make_block_clusters(part: pa.Table, cfg: SNDConfig, idf_w=None) -> pa.Table:
    """One key-sorted partition (whole blocks) → cluster rows DIRECTLY:
    scoring and clustering fused in the blocking task, so the whole SND
    tail is ONE all-to-all (the blocking sort) — no edge shuffle, no
    node/edge union, no second sort. No component spans a block, so the
    closure needs no round of its own."""
    sc = _score_partition(part, cfg, idf_w)
    order, shas, _, _, labels = _clustered(sc, cfg)
    return _cluster_rows(sc.block_key, sc.rows.rids, order, shas, labels)


# The stages the checkpointed pipeline commits from one pass of
# :func:`make_block_stages`, in commit order.
BLOCK_STAGES = ("edges", "block_metrics", "clusters")


def block_stage_schemas(cfg: SNDConfig) -> dict[str, pa.Schema]:
    """The Parquet schema of each of :data:`BLOCK_STAGES`. Edges carry
    both ids, block-local sorted positions and every score feature."""
    s = pa.string()
    return {
        "edges": pa.schema([("block_key", s), ("id_a", s), ("id_b", s),
                            ("ix_a", pa.int32()), ("ix_b", pa.int32())]
                           + [(f, pa.float64()) for f in _feature_names(cfg)]),
        "block_metrics": BLOCK_METRICS_SCHEMA,
        "clusters": pa.schema([(c, s) for c in
                               ("block_key", "record_id", "cluster_id", "content_sha256")]),
    }


def _edge_table(sc: _Scored, keep: np.ndarray, pos: np.ndarray) -> pa.Table:
    """Edge rows of a scored partition for the pairs selected by ``keep``:
    block key, both ids, block-local sorted positions (``pos``:
    :func:`_sorted_pos`) and every feature — the ``edges`` schema of
    :func:`block_stage_schemas`. Each feature is selected as it is
    converted, so one selected copy is alive at a time."""
    ia, ib = sc.ii[keep], sc.jj[keep]
    local = (pos - np.repeat(sc.starts[:-1], np.diff(sc.starts))).astype(np.int32)
    return pa.table({
        "block_key": sc.block_key.take(pa.array(ia, pa.int64())),
        "id_a": pa.array(sc.rows.rids[ia], pa.string()),
        "id_b": pa.array(sc.rows.rids[ib], pa.string()),
        "ix_a": pa.array(local[ia]),
        "ix_b": pa.array(local[ib]),
        **{k: pa.array(v[keep]) for k, v in sc.feats.items()},
    })


def make_block_stages(part: pa.Table, cfg: SNDConfig,
                      idf_w=None) -> dict[str, pa.Table]:
    """One key-sorted partition → its rows of every checkpointed stage,
    keyed by :data:`BLOCK_STAGES` name, each in its
    :func:`block_stage_schemas` schema: the kept edges
    (``make_block_clusters``' edge set, with ids, sorted positions and
    features), one ``block_metrics`` row per block and the cluster rows.
    One blocking pass thus feeds all three stages, and the write task
    that computes them writes them (``pipelines.snd``): pair payloads
    never leave the task."""
    sc = _score_partition(part, cfg, idf_w)
    order, shas, pos, keep, labels = _clustered(sc, cfg)
    sizes = np.diff(sc.starts)
    metrics = pa.table({"block_key": pa.array(sc.keys, pa.string()),
                        "n_records": pa.array(sizes, pa.int64()),
                        "n_pairs": pa.array(sc.n_pairs),
                        "salted": pa.array(sizes > cfg.max_allpairs_block),
                        "truncated_pairs": pa.array(sc.truncated)},
                       schema=BLOCK_METRICS_SCHEMA)
    return dict(zip(BLOCK_STAGES, (
        _edge_table(sc, keep, pos), metrics,
        _cluster_rows(sc.block_key, sc.rows.rids, order, shas, labels))))


def default_vote_configs(base: SNDConfig | None = None,
                         tau_grid: tuple[float, ...] = (0.9, 1.0, 1.1)
                         ) -> list[SNDConfig]:
    """The default ensemble grid: five weight perturbations of the base
    config (tokens-heavy, tfidf-heavy, name-blind, structure-heavy)
    CROSSED with an edge-threshold grid around the base ``tau_edge`` —
    the full shape of bond's ensemble
    (``/root/reference/bond/training/autotrain_bond_ensemble.py:144-147``
    iterates th_a × th_o × th_v threshold combos around the operating
    point and votes the resulting CLUSTERINGS). 5 weightings × 3
    thresholds = 15 clusterings; the tau grid is centered so the default
    operating point is unchanged, while threshold diversity lets
    transitive low-threshold merges and strict high-threshold merges
    both contribute votes (VERDICT r3 #7)."""
    import dataclasses

    c = base or SNDConfig()
    weights = [
        c,
        dataclasses.replace(c, w_tokens=c.w_tokens * 2.0),
        dataclasses.replace(c, w_tfidf=c.w_tfidf * 2.0),
        dataclasses.replace(c, w_name=0.0),
        dataclasses.replace(c, w_repo=c.w_repo * 2.0, w_ctx=c.w_ctx * 2.0),
    ]
    return [dataclasses.replace(w, tau_edge=w.tau_edge * t)
            for t in tau_grid for w in weights]


def make_block_vote_clusters(
    part: pa.Table,
    cfgs: list[SNDConfig],
    min_votes: int,
    idf_w=None,
) -> pa.Table:
    """Ensemble pair-vote clustering (operator A9, bond's threshold-grid
    ensemble, ``autotrain_bond_ensemble.py:241-260``) of a key-sorted
    partition's blocks: candidate features are computed ONCE per pair
    (``_score_partition`` under the base config); each config produces
    a full CLUSTERING of each block (its weighted score ≥ its tau_edge
    → connected components — bond's ``clus_label_box`` entries); each
    clustering votes pair CO-ASSIGNMENT (bond's one-hot
    ``class_matrix @ class_matrix.T`` co-association matrix); a pair
    survives with ≥ ``min_votes`` co-assignments and the final clusters
    are components over surviving pairs (``clus_mat_box > 0.5 →
    matx2list``). Voting at the clustering
    level (not the raw-edge level) lets a config's TRANSITIVE merges
    count: a low-threshold config that links two groups through a chain
    co-assigns every cross pair, so threshold diversity contributes
    votes raw edge scores never could. Post-match attach is
    intentionally absent — the vote grid is the robustness mechanism;
    SQL-replicable with one recursive closure per config + a final one.
    """
    from whoiswho_ray.stages.cluster import cc_labels

    sc = _score_partition(part, cfgs[0], idf_w)
    order, shas = _record_order(part, sc.starts)
    n = sc.rows.n
    labels = np.arange(n, dtype=np.int64)
    if sc.ii.size:
        sorted_pos = _sorted_pos(order)
        pi, pj = sorted_pos[sc.ii], sorted_pos[sc.jj]
        votes = np.zeros(sc.ii.size, dtype=np.int64)
        for c in cfgs:
            edges = _weighted_score(sc.feats, c) >= c.tau_edge
            lab_c = cc_labels(n, pi[edges], pj[edges])
            votes += (lab_c[pi] == lab_c[pj])  # co-assignment vote
        keep = votes >= min_votes
        labels = cc_labels(n, pi[keep], pj[keep])
    return _cluster_rows(sc.block_key, sc.rows.rids, order, shas, labels)


def _fit_pair_logistic(X: np.ndarray, y: np.ndarray, l2: float = 1e-3,
                       iters: int = 300, lr: float = 0.5):
    """Tiny deterministic logistic metric-learner over pair features
    (operator T8's learned half — bond trains a per-block model on
    DBSCAN pseudo-labels, ``autotrain_bond.py:134-233``; VERDICT r4 #4):
    zeros init, fixed full-batch gradient descent, class-balanced
    weights, L2 — no randomness anywhere, so reruns are bit-identical.
    Returns a probability function over raw feature rows. Block-bounded
    by construction (runs inside the block kernel under
    ``matrix_block_cap``)."""
    n, d = X.shape
    mu, sd = X.mean(0), X.std(0)
    sd = np.where(sd > 0, sd, 1.0)
    Xs = (X - mu) / sd
    n_pos = float(y.sum())
    wts = np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
    w = np.zeros(d)
    b = 0.0
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(Xs @ w + b)))
        g = wts * (p - y)
        w -= lr * (Xs.T @ g / n + l2 * w)
        b -= lr * float(g.mean())

    def prob(rows: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-(((rows - mu) / sd) @ w + b)))

    return prob


def _smoothed_gram_at(G: np.ndarray, P: np.ndarray, ii: np.ndarray,
                      jj: np.ndarray):
    """``diag(P·G·P)`` and ``(P·G·P)[ii, jj]`` (``ii`` sorted), one band
    of 256 rows at a time, so neither product holds an n×n
    temporary. A band is the same two BLAS products restricted to its
    rows; OpenBLAS sums each entry in an order that does not depend on
    the row count, so the entries equal the full product's bit for bit."""
    n, rows = G.shape[0], 256
    d, gh = np.empty(n), np.empty(ii.size)
    for r0 in range(0, n, rows):
        band = (P[r0:r0 + rows] @ G) @ P
        m = band.shape[0]
        d[r0:r0 + m] = band[np.arange(m), np.arange(r0, r0 + m)]
        lo, hi = np.searchsorted(ii, [r0, r0 + m])
        gh[lo:hi] = band[ii[lo:hi] - r0, jj[lo:hi]]
    return d, gh


def make_block_sgc_clusters(
    part: pa.Table,
    cfg: SNDConfig,
    tau_strong: float | None = None,
    idf_w=None,
    refine_rounds: int = 0,
    learned_rounds: int = 0,
) -> pa.Table:
    """Graph-smoothed clustering — the per-name GNN analog (operator T8,
    bond's ``/root/reference/bond/training/autotrain_bond.py:134-233``,
    which trains a GAT per name block and DBSCANs the refined
    embeddings). The trained attention network is swapped for one hop of
    parameter-free graph convolution (SGC, Wu et al. 2019, "Simplifying
    Graph Convolutional Networks"): each record's TF-IDF vector is
    averaged with its strong neighbors' before the pairwise cosine. A
    partition kernel: one :func:`_score_partition` call scores every
    block of the key-sorted partition, then each block is smoothed and
    closed on its own (:func:`_sgc_block_labels`).

    Computed entirely in Gram space: with P = I + A (A = the strong-edge
    adjacency induced by the base scores at ``tau_strong``) the smoothed
    features are H' = P·H, so their Gram is H'·H'ᵀ = P·G·Pᵀ — two n×n
    matmuls over the block's dense tf-idf dot matrix G (one full
    ``allpairs_matrix`` pass, with the exact Σw² self dots on the
    diagonal); no per-record feature vectors are re-materialized and
    nothing extra enters the shuffle. Cosine is invariant to row
    scaling, so the unnormalized closed-neighborhood sum equals
    degree-normalized SGC exactly. The pair score then swaps the raw
    cosine for the smoothed one; clusters are components over
    score₂ ≥ tau_edge (one closure — SQL-replicable; no post-match
    attach, mirroring bond's pipeline which has none either).

    Like bond's per-name training, the smoothing is block-bounded: blocks
    beyond ``matrix_block_cap`` (hot blocks, already salted into
    sub-blocks upstream) fall back to the raw score — smoothing within a
    salted sub-block would make clusters depend on the salt.

    ``refine_rounds`` adds bond's ITERATED embed → pseudo-label →
    re-embed loop (``autotrain_bond.py:134-233`` refines for 50 epochs
    with DBSCAN pseudo-labels): each round takes the previous round's
    components as pseudo-labels, pools the Gram per cluster
    (``Bᵀ·G·B`` — cluster-sum features, i.e. centroid re-embedding up
    to the cosine's scale invariance), swaps the pair cosine for the
    centroid cosine, and re-closes. Same-cluster pairs get cosine 1, so
    the rounds are monotone agglomerative; discrete and deterministic,
    hence SQL-replicable round by round. Rounds stop early when the
    components stop changing. The default 0 keeps the single-hop
    semantics (and its oracle) unchanged.

    ``learned_rounds`` adds bond's LEARNED half (VERDICT r4 #4,
    ``autotrain_bond.py:134-233`` trains the embedder against pseudo-
    labels each epoch): each round takes the current components as
    pseudo-labels over the candidate pairs, fits the deterministic
    per-block logistic metric-learner (:func:`_fit_pair_logistic`) on
    the RAW edge features (j_tok, t_repo, t_ctx, cos, jw), re-scores
    every pair with the learned probability and re-closes at p >= 0.5.
    Where the fixed-weight score under-uses a channel (e.g. a shared
    repo that the pseudo-positives also exhibit), the learner
    generalizes from pseudo-positive feature patterns and merges pairs
    no weighted-threshold or Gram-pooling round can reach (tested by
    exactly such a fixture). Float-sigmoid scores make this rows-only
    territory (no SQL oracle); determinism is still exact.
    """
    ts = cfg.tau_edge if tau_strong is None else tau_strong
    sc = _score_partition(part, cfg, idf_w)
    order, shas = _record_order(part, sc.starts)
    pos = _sorted_pos(order)
    labels = np.arange(sc.rows.n, dtype=np.int64)
    first_pair = np.r_[0, np.cumsum(sc.n_pairs)]
    for b in np.flatnonzero(sc.n_pairs):
        s, e = int(sc.starts[b]), int(sc.starts[b + 1])
        p = slice(first_pair[b], first_pair[b + 1])
        ii, jj = sc.ii[p], sc.jj[p]
        ii -= s  # block-local in place: a hot block's pairs are not copied
        jj -= s
        labels[s:e] = s + _sgc_block_labels(
            sc.rows.block(s, e), ii, jj, {k: v[p] for k, v in sc.feats.items()},
            pos[s:e] - s, cfg, ts, refine_rounds, learned_rounds)
    return _cluster_rows(sc.block_key, sc.rows.rids, order, shas, labels)


def _sgc_block_labels(rows: _Rows, ii: np.ndarray, jj: np.ndarray, feats: dict,
                      sorted_pos: np.ndarray, cfg: SNDConfig, ts: float,
                      refine_rounds: int, learned_rounds: int) -> np.ndarray:
    """One block's :func:`make_block_sgc_clusters` components: labels per
    record_id-sorted position (``sorted_pos``: each row's), from its
    candidate pairs ``(ii, jj)`` (sorted, as candidates are) and their
    features."""
    from whoiswho_ray.stages.cluster import cc_labels
    from whoiswho_ray.stages.scoring import allpairs_matrix

    n = rows.n

    def closure(keep):
        return cc_labels(n, sorted_pos[ii[keep]], sorted_pos[jj[keep]])

    if n > cfg.matrix_block_cap:  # raw-score fallback
        return closure(feats["score"] >= cfg.tau_edge)
    tfv_vals, tfv_off = rows.sets["tfv"]
    tfv_w64 = rows.tfv_w.astype(np.float64)
    G = allpairs_matrix(n, tfv_vals, tfv_off, tfv_w64)
    # exact self dots: Σ w² per record (``allpairs_matrix`` skips tokens
    # unique within the block, which contribute only to them)
    cs = np.concatenate(([0.0], np.cumsum(tfv_w64 ** 2)))
    np.fill_diagonal(G, cs[tfv_off[1:]] - cs[tfv_off[:-1]])
    P = np.eye(n)
    strong = feats["score"] >= ts
    P[ii[strong], jj[strong]] = 1.0
    P[jj[strong], ii[strong]] = 1.0
    d, gh = _smoothed_gram_at(G, P, ii, jj)
    del P
    ok = (d[ii] > 0) & (d[jj] > 0)
    denom = np.sqrt(np.where(ok, d[ii] * d[jj], 1.0))
    cos2 = np.where(ok, gh / denom, 0.0)
    labels = closure(feats["score"] + cfg.w_tfidf * (cos2 - feats["cos"]) >= cfg.tau_edge)
    for _ in range(max(0, refine_rounds)):
        # pseudo-labels = current components; re-embed = pool the Gram
        # per cluster (cosine is scale-invariant, so the cluster SUM
        # equals the centroid)
        comp = labels[sorted_pos]  # per ii/jj index: its root
        _, cidx = np.unique(comp, return_inverse=True)
        B = np.zeros((n, cidx.max() + 1))
        B[np.arange(n), cidx] = 1.0
        M = B.T @ G @ B
        dM = np.diagonal(M)
        ci, cj = cidx[ii], cidx[jj]
        ok = (dM[ci] > 0) & (dM[cj] > 0)
        denom = np.sqrt(np.where(ok, dM[ci] * dM[cj], 1.0))
        cosr = np.where(ok, M[ci, cj] / denom, 0.0)
        new_labels = closure(feats["score"] + cfg.w_tfidf * (cosr - feats["cos"])
                             >= cfg.tau_edge)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    X = np.column_stack([feats["j_tok"], feats["t_repo"], feats["t_ctx"], feats["cos"],
                         feats["jw"]]) if learned_rounds > 0 else None
    for _ in range(learned_rounds):
        comp = labels[sorted_pos]
        y = (comp[ii] == comp[jj]).astype(np.float64)
        if y.all() or not y.any():
            break  # degenerate pseudo-labels: nothing to learn
        new_labels = closure(_fit_pair_logistic(X, y)(X) >= 0.5)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


SHUFFLE_CPU_MULT = 2


def shuffle_partitions() -> int:
    """Partition count for the SND wide ops (the blocking shuffles):
    ``2 × CPUs``.

    Two partitions per core give the sort-shuffle and the block-kernel
    map tasks (one per sorted partition) two tasks per core.
    The multiplier 2 comes from a round-3 interleaved sweep at 32 CPUs
    (6 pairs: 2 beat 4 in 4/6 with min 24.2 s vs 27.7 s; 8 was
    consistently worst). There is no floor: each partition costs a
    sort-map, a sort-reduce and a group task per shuffle, so the old
    ``max(32, ·)`` floor bought nothing below 16 CPUs but task overhead
    (at 1 CPU it made the checkpointed run ≈ 4× slower on 2,210
    records). The width does not grow with the row count: no measured
    input shows that more partitions than 2 × CPUs help. Partitioning
    never changes the output: every block lands whole in one partition."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return SHUFFLE_CPU_MULT * cpus


# Columns the SND block kernels actually read — pass as ``keep=`` to
# ``scoring.vectorize`` so the projection happens INSIDE the vectorizer map
# stage (a separate select_columns stage after an actor pool cannot fuse and
# measurably doubled the headline). The blocking sort-shuffle is
# object-fetch-bound at high core counts, so the dead repo/path/commit/lang
# strings cost wall time 1:1 if they enter it.
EDGE_SHUFFLE_COLUMNS = [
    "block_key", "record_id", "name", "tok_ids", "repo_ids", "ctx_ids",
    "tfv_ids", "tfv_w",
]
CLUSTER_SHUFFLE_COLUMNS = EDGE_SHUFFLE_COLUMNS + ["content_sha256"]


def make_block_pr_counts(part: pa.Table, cfg: SNDConfig,
                         taus: tuple[float, ...], idf_w=None) -> pa.Table:
    """One key-sorted partition → per-threshold (tp, fp, truth_pairs)
    partial counts, summed over its blocks (every count is additive):
    the pairwise precision/recall sweep of the reference's evaluation
    protocol (``/root/reference/whoiswho/evaluation/SNDeval.py``'s
    pairwise counts, swept over an operating-threshold grid instead of
    graded at one point). Truth is the DEFAULT operating point's
    strong-edge components (score >= cfg.tau_edge, pre-attach) — the
    labeling the engine ships; predictions are raw candidate pairs
    thresholded at each grid tau.

    truth_pairs counts ALL same-component record pairs (C(size, 2) via
    bincount — components may connect pairs no candidate edge proposed,
    e.g. transitively), so recall is honest about candidate-generation
    misses. Every count is an int64; one output row per tau, identical
    truth_pairs repeated so any single tau's grouped sum is the
    partition total.
    """
    from whoiswho_ray.stages.cluster import cc_labels

    T = len(taus)
    tau_arr = np.asarray(taus, dtype=np.float64)
    if T == 0 or np.any(np.diff(tau_arr) <= 0):
        raise ValueError("taus must be a non-empty strictly-increasing grid")
    tau_cents = np.floor(tau_arr * 100.0 + 0.5).astype(np.int64)
    sc = _score_partition(part, cfg, idf_w)
    ii, jj, s = sc.ii, sc.jj, sc.feats["score"]
    strong = s >= cfg.tau_edge
    labels = cc_labels(sc.rows.n, ii[strong], jj[strong])
    sizes = np.bincount(labels)
    truth_total = int((sizes * (sizes - 1) // 2).sum())
    same = labels[ii] == labels[jj]
    # idx = number of grid taus <= score; score >= taus[t] iff idx >= t+1,
    # so suffix sums of the idx histogram give every threshold at once
    idx = np.searchsorted(tau_arr, s, side="right")
    cnt_same = np.bincount(idx[same], minlength=T + 1)
    cnt_diff = np.bincount(idx[~same], minlength=T + 1)
    tp = np.cumsum(cnt_same[::-1])[::-1][1:].astype(np.int64)
    fp = np.cumsum(cnt_diff[::-1])[::-1][1:].astype(np.int64)
    return pa.table({
        "tau_cents": pa.array(tau_cents),
        "tp": pa.array(tp), "fp": pa.array(fp),
        "truth_pairs": pa.array(np.full(T, truth_total, dtype=np.int64)),
    })
