"""Candidate-pair generation inside blocks (the A5 analog of SURVEY.md).

The reference materializes a dense N×N similarity matrix per name
(``/root/reference/whoiswho/training/AutoTrainSND.py:142-161``) — fine for
thousands of rows, fatal at scale. Here each block is one group of a
``groupby(block_key)`` shuffle and pairs are *rows*, not a matrix:

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
distributed streaming set-similarity join (PAPERS.md): each block kernel
generates its candidates and verifies them in the task that owns the
block (:func:`_score_block`), so only its output — kept edges, clusters,
counts — enters the object store. The whole stage is vectorized: groups
arrive as Arrow tables, token sets are flattened zero-copy, minhash
signatures come from one ``reduceat`` pass, and the set overlaps of all
candidate pairs come from one all-pairs pass per token family — no
per-pair Python objects.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.functions.hashing import MinHasher, band_keys_matrix

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


def _block_arrays(group: pa.Table):
    rids = np.asarray(group.column("record_id").to_pylist(), dtype=object)
    if "tok_ids" in group.column_names:
        tok_values, tok_offsets = _flat_list(group.column("tok_ids"))
    else:
        # compact shuffle encoding (scoring.vectorize(compact=True)):
        # hot-block minhash salting runs on the in-vocab tfv positions —
        # the df==1 tokens the full encoding adds are unshareable noise
        # for similarity banding anyway
        tok_values, tok_offsets = _flat_list(group.column("tfv_ids"))
        tok_values = tok_values.astype(np.int64)
    repo_values, repo_offsets = _flat_list(group.column("repo_ids"))
    lens = np.diff(repo_offsets)
    repo_first = np.full(lens.size, -1, dtype=np.int64)
    nonempty = lens > 0
    repo_first[nonempty] = repo_values[repo_offsets[:-1][nonempty]]
    return rids, tok_values, tok_offsets, repo_first


def block_metrics(group: pa.Table, cfg: SNDConfig) -> pa.Table:
    """Per-block lineage/metrics row: size, pair counts, salting/truncation."""
    n = group.num_rows
    if n < 2:
        n_pairs, truncated = 0, 0
    else:
        rids, tv, to, rf = _block_arrays(group)
        ii, jj, truncated = candidate_index_pairs(rids, tv, to, rf, cfg)
        n_pairs = int(ii.size)
    return _metrics_row(group.column("block_key")[0].as_py(), n, n_pairs, truncated, cfg)


BLOCK_METRICS_SCHEMA = pa.schema([
    ("block_key", pa.string()), ("n_records", pa.int64()), ("n_pairs", pa.int64()),
    ("salted", pa.bool_()), ("truncated_pairs", pa.int64())])


def _metrics_row(block_key: str, n: int, n_pairs: int, truncated: int,
                 cfg: SNDConfig) -> pa.Table:
    return pa.Table.from_pylist([{
        "block_key": block_key, "n_records": n, "n_pairs": n_pairs,
        "salted": n > cfg.max_allpairs_block, "truncated_pairs": truncated,
    }], schema=BLOCK_METRICS_SCHEMA)


def _score_block(group: pa.Table, cfg: SNDConfig, idf_w=None,
                 want_gram: bool = False):
    """One block → (rids, ii, jj, feats, truncated) — candidate generation
    + fused scoring, with the count of pairs the candidate budget dropped;
    None when the block yields no candidate pairs. Shared by every block
    kernel.

    ``idf_w``: the broadcast idf float32 array, required when the group
    was vectorized with ``ship_weights=False`` (no ``tfv_w`` column) —
    weights are re-derived bit-identically from the compact positions
    (``scoring.reconstruct_tfv_w``).

    ``want_gram``: matrix-regime blocks additionally return the full n×n
    tf-idf Gram under ``feats["_gram"]`` with an exactly-computed
    diagonal (``allpairs_matrix`` skips within-block-unique tokens, which
    contribute only to self dots) — the graph-smoothed cluster kernel
    consumes it; absent for blocks above ``matrix_block_cap``."""
    from whoiswho_ray.stages.scoring import allpairs_matrix, jw_memo, score_flat_components

    n = group.num_rows
    if n < 2:
        return None
    rids, tok_values, tok_offsets, repo_first = _block_arrays(group)
    ii, jj, truncated = candidate_index_pairs(rids, tok_values, tok_offsets, repo_first, cfg)
    if ii.size == 0:
        return None

    from whoiswho_ray.stages.scoring import jw_for_pairs

    names = np.asarray(group.column("name").to_pylist(), dtype=object)
    jw_fn = jw_memo({})
    compact = "tok_ids" not in group.column_names

    if n <= cfg.matrix_block_cap:
        # matrix regime (covers both all-pairs blocks and salted hot blocks
        # up to the cap): one all-pairs pass per feature family (the
        # reference's per-name matrix, block-bounded) that scores only the
        # candidate pairs — no per-pair set ops, no n×n count matrices
        def jac_matrix(col):
            values, offsets = _flat_list(group.column(col))
            inter = allpairs_matrix(n, values, offsets, pairs=(ii, jj))
            lens = np.diff(offsets).astype(np.float64)
            union = lens[ii] + lens[jj] - inter
            return np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)

        tfv_vals, tfv_off = _flat_list(group.column("tfv_ids"))
        if "tfv_w" in group.column_names:
            tfv_w, _ = _flat_list(group.column("tfv_w"))
        else:
            from whoiswho_ray.stages.scoring import reconstruct_tfv_w

            tfv_w = reconstruct_tfv_w(tfv_vals, tfv_off, idf_w)
        tfv_w64 = tfv_w.astype(np.float64)
        if compact:
            # the intersection counts of the tfv stream give j_tok exactly
            # with the original token counts, since the min_df-pruned
            # tokens (df==1) can never intersect
            tok_n = group.column("tok_n").to_numpy(zero_copy_only=False).astype(np.float64)
            if want_gram:
                Mw = allpairs_matrix(n, tfv_vals, tfv_off, tfv_w64)
                inter = allpairs_matrix(n, tfv_vals, tfv_off, pairs=(ii, jj))
            else:  # ONE pass yields both the tf-idf dots and the counts
                Mw, inter = allpairs_matrix(n, tfv_vals, tfv_off, tfv_w64,
                                            with_counts=True, pairs=(ii, jj))
            union = tok_n[ii] + tok_n[jj] - inter
            j_tok = np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)
        else:
            j_tok = jac_matrix("tok_ids")
            # only the graph-smoothed kernel needs the full tf-idf Gram
            Mw = allpairs_matrix(n, tfv_vals, tfv_off, tfv_w64,
                                 pairs=None if want_gram else (ii, jj))
        cos = Mw[ii, jj] if want_gram else Mw
        t_repo = jac_matrix("repo_ids")
        t_ctx = jac_matrix("ctx_ids")
        jw = jw_for_pairs(names, ii, jj, jw_fn)
        score = (cfg.w_tokens * j_tok + cfg.w_repo * t_repo + cfg.w_ctx * t_ctx
                 + cfg.w_tfidf * cos + cfg.w_name * jw)
        feats = {"j_tok": j_tok, "t_repo": t_repo, "t_ctx": t_ctx,
                 "cos": cos, "jw": jw, "score": score}
        if want_gram:
            # exact self dots: Σ w² per record (allpairs_matrix omits the
            # contribution of tokens unique within the block, which only
            # ever touch the diagonal). cos was extracted above (fancy
            # indexing copies), so filling the diagonal in place is safe.
            w2 = tfv_w64 ** 2
            cs = np.concatenate(([0.0], np.cumsum(w2)))
            selfdot = cs[tfv_off[1:]] - cs[tfv_off[:-1]]
            np.fill_diagonal(Mw, selfdot)
            feats["_gram"] = Mw
    else:
        flats = {}
        ship_w = "tfv_w" in group.column_names
        cols = (("repo_ids", "ctx_ids", "tfv_ids") if compact
                else ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids"))
        cols = cols + (("tfv_w",) if ship_w else ())
        recon_w = None
        for col in cols:
            values, offsets = _flat_list(group.column(col))
            if col == "tfv_ids" and not ship_w:
                from whoiswho_ray.stages.scoring import reconstruct_tfv_w

                recon_w = (reconstruct_tfv_w(values, offsets, idf_w), offsets)
            lens = np.diff(offsets)

            def gather(idx, values=values, offsets=offsets, lens=lens):
                l = lens[idx]
                out_off = np.zeros(idx.size + 1, dtype=np.int64)
                np.cumsum(l, out=out_off[1:])
                flat = np.repeat(offsets[idx], l) + (
                    np.arange(int(out_off[-1])) - np.repeat(out_off[:-1], l))
                return values[flat], l

            flats[col] = (gather(ii), gather(jj))
        if not ship_w:
            rw, roff = recon_w
            rlens = np.diff(roff)

            def gather_w(idx):
                l = rlens[idx]
                out_off = np.zeros(idx.size + 1, dtype=np.int64)
                np.cumsum(l, out=out_off[1:])
                flat = np.repeat(roff[idx], l) + (
                    np.arange(int(out_off[-1])) - np.repeat(out_off[:-1], l))
                return rw[flat], l

            flats["tfv_w"] = (gather_w(ii), gather_w(jj))

        tfv = (
            (*flats["tfv_ids"][0], flats["tfv_w"][0][0]),
            (*flats["tfv_ids"][1], flats["tfv_w"][1][0]),
        )
        jw_vals = jw_for_pairs(names, ii, jj, jw_fn)
        if compact:
            # one weighted intersection pass over tfv yields BOTH the
            # intersection counts (exact j_tok numerator — pruned df==1
            # tokens never intersect) and the cosine dots
            from whoiswho_ray.stages.scoring import _intersections

            (ia_v, la_v, wa_v), (ib_v, lb_v, wb_v) = tfv
            inter, dots = _intersections(ii.size, ia_v, la_v, ib_v, lb_v,
                                         wa_v.astype(np.float64),
                                         wb_v.astype(np.float64))
            tok_n = group.column("tok_n").to_numpy(zero_copy_only=False).astype(np.float64)
            union = tok_n[ii] + tok_n[jj] - inter
            j_tok = np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)

            def jac(pair):
                (va, la), (vb, lb) = pair
                i2, _ = _intersections(ii.size, va, la, vb, lb)
                u = la + lb - i2
                return np.where(u > 0, i2 / np.maximum(u, 1), 0.0)

            cos = dots if dots is not None else np.zeros(ii.size)
            t_repo = jac(flats["repo_ids"])
            t_ctx = jac(flats["ctx_ids"])
            score = (cfg.w_tokens * j_tok + cfg.w_repo * t_repo
                     + cfg.w_ctx * t_ctx
                     + cfg.w_tfidf * cos + cfg.w_name * jw_vals)
            feats = {"j_tok": j_tok, "t_repo": t_repo, "t_ctx": t_ctx,
                     "cos": cos, "jw": jw_vals, "score": score}
        else:
            feats = score_flat_components(
                cfg, ii.size,
                flats["tok_ids"], flats["repo_ids"], flats["ctx_ids"], tfv,
                names[ii].tolist(), names[jj].tolist(),
                jw_fn,
                jw_vals=jw_vals,
            )
    if cfg.w_rel:
        from whoiswho_ray.stages.relational import relational_adjust

        feats = relational_adjust(n, ii, jj, feats, cfg)
    return rids, ii, jj, feats, truncated


def _block_records(group: pa.Table):
    """(block_key, record ids, their record_id-sorted order, hex sha256 in
    that order) of one block — the decoding every cluster-emitting kernel
    starts from. ``content_sha256`` may arrive as fixed_size_binary(32)
    (the compact shuffle encoding) and leaves as hex."""
    n = group.num_rows
    block_key = group.column("block_key")[0].as_py() if n else ""
    rids = np.asarray(group.column("record_id").to_pylist(), dtype=object)
    shas = group.column("content_sha256").to_pylist()
    if pa.types.is_fixed_size_binary(group.schema.field("content_sha256").type):
        shas = [b.hex() for b in shas]
    order = np.argsort(rids, kind="stable")
    return block_key, rids, order, np.asarray(shas, dtype=object)[order]


def _sorted_pos(order: np.ndarray) -> np.ndarray:
    """Each row's position in record_id-sorted order (inverse of ``order``)."""
    pos = np.empty(order.size, dtype=np.int64)
    pos[order] = np.arange(order.size, dtype=np.int64)
    return pos


def _cluster_rows(block_key: str, rids: np.ndarray, order: np.ndarray,
                  shas_sorted: np.ndarray, labels: np.ndarray) -> pa.Table:
    """Cluster rows of one block in record_id order; ``labels`` are
    sorted positions of each record's component root."""
    rids_sorted = rids[order]
    roots = rids_sorted[labels]
    return pa.table({
        "block_key": pa.array(np.repeat(block_key, rids.size), pa.string()),
        "record_id": pa.array(rids_sorted, pa.string()),
        "cluster_id": pa.array([f"{block_key}#{r}" for r in roots], pa.string()),
        "content_sha256": pa.array(shas_sorted, pa.string()),
    })


def _cluster_scored(group: pa.Table, cfg: SNDConfig, idf_w=None):
    """Score and cluster one block: (decoded records, scored or None,
    kept-edge mask, labels). Edges at or above ``min(tau_attach,
    tau_edge)`` feed ``cluster_edge_arrays`` as sorted positions."""
    from whoiswho_ray.stages.cluster import cluster_edge_arrays

    rec = _block_records(group)
    n = group.num_rows
    scored = _score_block(group, cfg, idf_w=idf_w)
    if scored is None:
        return rec, None, None, np.arange(n, dtype=np.int64)
    _, ii, jj, feats, _ = scored
    keep = feats["score"] >= min(cfg.tau_attach, cfg.tau_edge)
    pos = _sorted_pos(rec[2])
    labels = cluster_edge_arrays(n, pos[ii[keep]], pos[jj[keep]],
                                 feats["score"][keep], cfg)
    return rec, scored, keep, labels


def make_block_clusters(group: pa.Table, cfg: SNDConfig, idf_w=None) -> pa.Table:
    """One block → cluster rows DIRECTLY: scoring and clustering fused in
    the blocking task, so the whole SND tail is ONE all-to-all (the
    blocking groupby) — no edge shuffle, no node/edge union, no second
    sort. No component spans a block, so the closure needs no round of
    its own."""
    rec, _, _, labels = _cluster_scored(group, cfg, idf_w)
    return _cluster_rows(*rec, labels)


# The stages the checkpointed pipeline commits from one pass of
# :func:`make_block_stages`; a row's ``kind`` is its stage's index here.
BLOCK_STAGES = ("edges", "block_metrics", "clusters")


def block_stage_schemas(cfg: SNDConfig) -> dict[str, pa.Schema]:
    """The Parquet schema of each of :data:`BLOCK_STAGES`. Edges carry
    both ids, block-local sorted positions and every score feature
    (``relational_adjust`` adds three when ``w_rel`` is set)."""
    feats = ["j_tok", "t_repo", "t_ctx", "cos", "jw", "score"] + (
        ["cn", "rel", "aa"] if cfg.w_rel else [])
    s = pa.string()
    return {
        "edges": pa.schema([("block_key", s), ("id_a", s), ("id_b", s),
                            ("ix_a", pa.int32()), ("ix_b", pa.int32())]
                           + [(f, pa.float64()) for f in feats]),
        "block_metrics": BLOCK_METRICS_SCHEMA,
        "clusters": pa.schema([(c, s) for c in
                               ("block_key", "record_id", "cluster_id", "content_sha256")]),
    }


def tagged_schema(cfg: SNDConfig) -> pa.Schema:
    """``kind`` (int8) plus the union of the stage schemas' columns."""
    fields = {"kind": pa.field("kind", pa.int8())}
    for schema in block_stage_schemas(cfg).values():
        for f in schema:
            fields.setdefault(f.name, f)
    return pa.schema(list(fields.values()))


def _edge_table(rec, ii: np.ndarray, jj: np.ndarray, feats: dict,
                keep=slice(None)) -> pa.Table:
    """Edge rows of one block (``rec``: :func:`_block_records`) for the
    scored pairs ``(ii, jj)`` selected by ``keep`` (default: all): both
    ids, block-local sorted positions and every feature — the ``edges``
    schema of :func:`block_stage_schemas`. Each feature is selected as
    it is converted, so one selected copy is alive at a time."""
    block_key, rids, order = rec[0], rec[1], rec[2]
    ia, ib = ii[keep], jj[keep]
    pos = _sorted_pos(order).astype(np.int32)
    return pa.table({
        "block_key": pa.array(np.repeat(block_key, ia.size), pa.string()),
        "id_a": pa.array(rids[ia], pa.string()),
        "id_b": pa.array(rids[ib], pa.string()),
        "ix_a": pa.array(pos[ia]),
        "ix_b": pa.array(pos[ib]),
        **{k: pa.array(v[keep]) for k, v in feats.items()},
    })


def make_block_stages(group: pa.Table, cfg: SNDConfig, idf_w=None) -> pa.Table:
    """One block → its rows of every checkpointed stage in one table:
    kept edges (``make_block_clusters``' edge set, with ids, sorted
    positions and features), one ``block_metrics`` row and the cluster
    rows, tagged by ``kind`` and padded with typed nulls to
    :func:`tagged_schema` (as ``joins.arrow_tagged_union`` pads). One
    blocking pass thus feeds all three stages. Pair payloads never leave
    the task: only edges at or above ``min(tau_attach, tau_edge)`` (~100
    B/row) enter the object store."""
    rec, scored, keep, labels = _cluster_scored(group, cfg, idf_w)
    schemas = block_stage_schemas(cfg)
    n = group.num_rows
    if scored is None:
        edges = schemas["edges"].empty_table()
        # a block with no candidate pairs can still have truncated some
        # (a zero pair budget), so count them the standalone way
        metrics = block_metrics(group, cfg)
    else:
        _, ii, jj, feats, truncated = scored
        edges = _edge_table(rec, ii, jj, feats, keep)
        metrics = _metrics_row(rec[0], n, int(ii.size), truncated, cfg)
    parts = [edges, metrics, _cluster_rows(*rec, labels)]
    target = tagged_schema(cfg)
    out = []
    for kind, t in enumerate(parts):
        m = t.num_rows
        cols = [pa.array(np.full(m, kind, np.int8))] + [
            t.column(f.name) if f.name in t.column_names else pa.nulls(m, f.type)
            for f in target if f.name != "kind"]
        out.append(pa.Table.from_arrays(cols, schema=target))
    return pa.concat_tables(out)


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
    group: pa.Table,
    cfgs: list[SNDConfig],
    min_votes: int,
    idf_w=None,
) -> pa.Table:
    """Ensemble pair-vote clustering (operator A9, bond's threshold-grid
    ensemble, ``autotrain_bond_ensemble.py:241-260``): candidate
    features are computed ONCE per pair (``_score_block`` under the base
    config); each config produces a full CLUSTERING of the block (its
    weighted score ≥ its tau_edge → connected components — bond's
    ``clus_label_box`` entries); each clustering votes pair
    CO-ASSIGNMENT (bond's one-hot ``class_matrix @ class_matrix.T``
    co-association matrix); a pair survives with ≥ ``min_votes``
    co-assignments and the final clusters are components over surviving
    pairs (``clus_mat_box > 0.5 → matx2list``). Voting at the clustering
    level (not the raw-edge level) lets a config's TRANSITIVE merges
    count: a low-threshold config that links two groups through a chain
    co-assigns every cross pair, so threshold diversity contributes
    votes raw edge scores never could. Post-match attach is
    intentionally absent — the vote grid is the robustness mechanism;
    SQL-replicable with one recursive closure per config + a final one.
    """
    base = cfgs[0]
    n = group.num_rows
    rec = _block_records(group)

    from whoiswho_ray.stages.cluster import cc_labels

    scored = _score_block(group, base, idf_w=idf_w)
    if scored is None:
        labels = np.arange(n, dtype=np.int64)
    else:
        _, ii, jj, feats, _ = scored
        sorted_pos = _sorted_pos(rec[2])
        pi, pj = sorted_pos[ii], sorted_pos[jj]
        votes = np.zeros(ii.size, dtype=np.int64)
        for c in cfgs:
            s = (c.w_tokens * feats["j_tok"] + c.w_repo * feats["t_repo"]
                 + c.w_ctx * feats["t_ctx"] + c.w_tfidf * feats["cos"]
                 + c.w_name * feats["jw"])
            edges = s >= c.tau_edge
            lab_c = cc_labels(n, pi[edges], pj[edges])
            votes += (lab_c[pi] == lab_c[pj])  # co-assignment vote
        keep = votes >= min_votes
        labels = cc_labels(n, pi[keep], pj[keep])
    return _cluster_rows(*rec, labels)


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
    group: pa.Table,
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
    averaged with its strong neighbors' before the pairwise cosine.

    Computed entirely in Gram space: with P = I + A (A = the strong-edge
    adjacency induced by the base scores at ``tau_strong``) the smoothed
    features are H' = P·H, so their Gram is H'·H'ᵀ = P·G·Pᵀ — two n×n
    matmuls over the dense tf-idf dot matrix G the matrix-regime kernel
    already produces; no per-record feature vectors are re-materialized
    and nothing extra enters the shuffle. Cosine is invariant to row
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
    n = group.num_rows
    rec = _block_records(group)

    from whoiswho_ray.stages.cluster import cc_labels

    scored = _score_block(group, cfg, idf_w=idf_w, want_gram=True)
    if scored is None:
        labels = np.arange(n, dtype=np.int64)
    else:
        _, ii, jj, feats, _ = scored
        G = feats.pop("_gram", None)
        if G is None:  # beyond matrix_block_cap: raw-score fallback
            score2 = feats["score"]
        else:
            P = np.eye(n)
            strong = feats["score"] >= ts
            P[ii[strong], jj[strong]] = 1.0
            P[jj[strong], ii[strong]] = 1.0
            d, gh = _smoothed_gram_at(G, P, ii, jj)
            del P
            ok = (d[ii] > 0) & (d[jj] > 0)
            denom = np.sqrt(np.where(ok, d[ii] * d[jj], 1.0))
            cos2 = np.where(ok, gh / denom, 0.0)
            score2 = (feats["score"]
                      + cfg.w_tfidf * (cos2 - feats["cos"]))
        keep = score2 >= cfg.tau_edge
        sorted_pos = _sorted_pos(rec[2])
        labels = cc_labels(n, sorted_pos[ii[keep]], sorted_pos[jj[keep]])
        if G is not None:
            for _ in range(max(0, refine_rounds)):
                # pseudo-labels = current components; re-embed = pool the
                # Gram per cluster (cosine is scale-invariant, so the
                # cluster SUM equals the centroid)
                comp = labels[sorted_pos]  # per ii/jj index: its root
                _, cidx = np.unique(comp, return_inverse=True)
                k = cidx.max() + 1 if n else 0
                B = np.zeros((n, k))
                B[np.arange(n), cidx] = 1.0
                M = B.T @ G @ B
                dM = np.diagonal(M)
                ci, cj = cidx[ii], cidx[jj]
                ok = (dM[ci] > 0) & (dM[cj] > 0)
                denom = np.sqrt(np.where(ok, dM[ci] * dM[cj], 1.0))
                cosr = np.where(ok, M[ci, cj] / denom, 0.0)
                scorer = feats["score"] + cfg.w_tfidf * (cosr - feats["cos"])
                keep = scorer >= cfg.tau_edge
                new_labels = cc_labels(n, sorted_pos[ii[keep]],
                                       sorted_pos[jj[keep]])
                if np.array_equal(new_labels, labels):
                    break
                labels = new_labels
        if G is not None and learned_rounds > 0 and ii.size > 0:
            X = np.column_stack([feats["j_tok"], feats["t_repo"],
                                 feats["t_ctx"], feats["cos"],
                                 feats["jw"]])
            for _ in range(learned_rounds):
                comp = labels[sorted_pos]
                y = (comp[ii] == comp[jj]).astype(np.float64)
                if y.all() or not y.any():
                    break  # degenerate pseudo-labels: nothing to learn
                prob = _fit_pair_logistic(X, y)
                keep = prob(X) >= 0.5
                new_labels = cc_labels(n, sorted_pos[ii[keep]],
                                       sorted_pos[jj[keep]])
                if np.array_equal(new_labels, labels):
                    break
                labels = new_labels
    return _cluster_rows(*rec, labels)


SHUFFLE_CPU_MULT = 2


def shuffle_partitions() -> int:
    """Partition count for the SND wide ops (the blocking shuffles):
    ``2 × CPUs``.

    Two partitions per core give the sort-shuffle and the per-group map
    tasks (about one per block entering the groupby) two tasks per core.
    The multiplier 2 comes from a round-3 interleaved sweep at 32 CPUs
    (6 pairs: 2 beat 4 in 4/6 with min 24.2 s vs 27.7 s; 8 was
    consistently worst). There is no floor: each partition costs a
    sort-map, a sort-reduce and a group task per shuffle, so the old
    ``max(32, ·)`` floor bought nothing below 16 CPUs but task overhead
    (at 1 CPU it made the checkpointed run ≈ 4× slower on 2,210
    records). The width does not grow with the row count: no measured
    input shows that more partitions than 2 × CPUs help. Partitioning
    never changes the output: every block lands whole in one group."""
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


def make_block_pr_counts(group: pa.Table, cfg: SNDConfig,
                         taus: tuple[float, ...], idf_w=None) -> pa.Table:
    """One block → per-threshold (tp, fp, truth_pairs) partial counts:
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
    truth_pairs repeated so any single tau's grouped sum is the block
    total.
    """
    from whoiswho_ray.stages.cluster import cc_labels

    T = len(taus)
    tau_arr = np.asarray(taus, dtype=np.float64)
    if T == 0 or np.any(np.diff(tau_arr) <= 0):
        raise ValueError("taus must be a non-empty strictly-increasing grid")
    scored = _score_block(group, cfg, idf_w=idf_w)
    tau_cents = np.floor(tau_arr * 100.0 + 0.5).astype(np.int64)
    if scored is None:
        z = np.zeros(T, dtype=np.int64)
        return pa.table({"tau_cents": pa.array(tau_cents),
                         "tp": pa.array(z), "fp": pa.array(z),
                         "truth_pairs": pa.array(z)})
    _rids, ii, jj, feats, _ = scored
    n = group.num_rows
    s = feats["score"]
    strong = s >= cfg.tau_edge
    labels = cc_labels(n, ii[strong], jj[strong])
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
