"""RND — assignment of new records to existing entity profiles.

The Ray-Data re-expression of the reference's RND (real-time name
disambiguation) task (``/root/reference/whoiswho/training/AutoTrainRND.py``,
SURVEY.md §3.2): "real-time" is micro-batch scoring against a static
profile database. Both steps are partition kernels on the SND blocking
pass (``snd._blocked``):

    profiles = the known records ⋈ their clusters (``joins.attach_claims``,
               IND's co-group, the cluster as block key) → :func:`profile_kernel`:
               one row per cluster, id unions capped at the reference's
               256 (``adhoc_features.py:38,105``), a TF-IDF centroid
    assign   = new records ∪ profiles on ``block_key`` (the J2 fuzzy
               name→candidate join collapsed to the blocking key) →
               :func:`assign_kernel`: every record × every profile of its
               block scored with SND's pair scorer, argmax, NIL below
               ``tau_edge`` (``AutoTrainRND.py:52-71``, O3 top-1 + NIL)

RND keeps the full encoding: its new records lie outside the idf corpus,
so the compact encoding's df==1 pruning would not be exact for them.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.idf import build_idf
from whoiswho_ray.stages.normalize import normalize_records
from whoiswho_ray.stages.pairs import _block_bounds, _decode, _flat_list
from whoiswho_ray.stages.scoring import vectorize

NIL = "NIL"

PROFILE_TOKEN_CAP = 256  # reference profile cap (adhoc_features.py:105)

# the vectorized record columns profiles are built from and scored against
_SIG_COLS = ["record_id", "block_key", "name", "tok_ids", "repo_ids", "ctx_ids",
             "tfv_ids", "tfv_w"]
_ID_LISTS = ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids")


def _profile_schema(keep_members: int) -> pa.Schema:
    ids, s = pa.list_(pa.int64()), pa.string()
    members = [("member_tfv_ids", pa.list_(ids)),
               ("member_tfv_w", pa.list_(pa.list_(pa.float64())))]
    return pa.schema([("cluster_id", s), ("block_key", s), ("name", s), ("n_members", pa.int64()),
                      *[(c, ids) for c in _ID_LISTS], ("tfv_w", pa.list_(pa.float32())),
                      *(members if keep_members else [])])


def _ragged(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The indices ``starts[k] + 0 … lens[k] - 1`` for every k, concatenated."""
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(int(ends[-1]) if ends.size else 0)


def _capped_union(values: np.ndarray, offsets: np.ndarray, row_cluster: np.ndarray,
                  cap: int):
    """Per cluster, the union of its rows' id sets capped at the ``cap``
    most frequent ids (ties: the smaller id), sorted. Returns the kept
    (cluster, id) pairs in (cluster, id) order, and for every id of the
    input its kept slot (-1: capped away)."""
    c = np.repeat(row_cluster, np.diff(offsets))
    v = values.astype(np.int64)
    o = np.lexsort((v, c))
    cs, vs = c[o], v[o]
    new = np.ones(cs.size, dtype=bool)
    new[1:] = (cs[1:] != cs[:-1]) | (vs[1:] != vs[:-1])
    first = np.flatnonzero(new)
    uc, uv = cs[first], vs[first]
    r = np.lexsort((uv, -np.diff(np.r_[first, cs.size]), uc))
    keep = np.zeros(uc.size, dtype=bool)
    keep[r[np.arange(r.size) - np.searchsorted(uc[r], uc[r]) < cap]] = True
    slot = np.where(keep, np.cumsum(keep) - 1, -1)
    inv = np.empty(v.size, dtype=np.int64)
    inv[o] = np.cumsum(new) - 1
    return uc[keep], uv[keep], slot[inv]


def _list_array(lens: np.ndarray, values: pa.Array) -> pa.Array:
    """A list array of ``values`` cut into runs of ``lens``."""
    off = np.zeros(lens.size + 1, dtype=np.int32)
    np.cumsum(lens, out=off[1:])
    return pa.ListArray.from_arrays(pa.array(off), values)


def profile_kernel(part: pa.Table, keep_members: int = 0) -> pa.Table:
    """One partition of attached records, sorted by ``block_key`` (the
    cluster) → one profile row per cluster: ``cluster_id``, the members'
    ``block_key`` (``member_key``), the modal ``name`` (ties: the
    smallest), ``n_members``, each id family's union capped at
    :data:`PROFILE_TOKEN_CAP` (most frequent first, ties by the smaller
    id; sorted), and ``tfv_w``: the members' weights summed per kept
    tfv id in record_id order, L2-normalized, float32. ``keep_members``
    > 0 adds the first that many members' ``tfv_ids``/``tfv_w`` in
    record_id order (``member_tfv_ids``/``member_tfv_w``) — the
    reference's ≤40-paper profile cap for its KNRM features
    (``oagbert_features.py:45``)."""
    cluster = part.column("block_key").combine_chunks()
    starts, keys = _block_bounds(cluster)
    n_cl, sizes = len(keys), np.diff(starts)
    row_cl = np.repeat(np.arange(n_cl), sizes)
    order = pc.sort_indices(pa.table({"c": row_cl, "r": part.column("record_id")}),
                            sort_keys=[("c", "ascending"), ("r", "ascending")]
                            ).to_numpy().astype(np.int64)
    out = {"cluster_id": pa.array(keys, pa.string()),
           "block_key": part.column("member_key").take(pa.array(order[starts[:-1]])),
           "name": _modal_names(part.column("name"), row_cl, n_cl),
           "n_members": pa.array(sizes, pa.int64())}
    for col in _ID_LISTS:
        values, offsets = _flat_list(part.column(col))
        uc, uv, slot = _capped_union(values, offsets, row_cl, PROFILE_TOKEN_CAP)
        counts = np.bincount(uc, minlength=n_cl)
        out[col] = _list_array(counts, pa.array(uv, pa.int64()))
    # the centroid over the kept tfv ids (the loop's last family): each
    # member token adds its weight to its id's slot, members in record_id
    # order, then each cluster's sum is L2-normalized
    lens = np.diff(offsets)
    tok = _ragged(offsets[:-1][order], lens[order])
    w = _flat_list(part.column("tfv_w"))[0].astype(np.float64)
    kept = slot[tok] >= 0
    acc = np.bincount(slot[tok][kept], weights=w[tok][kept], minlength=uv.size)
    nonempty = counts > 0
    scale = np.ones(n_cl)
    if acc.size:
        norm = np.sqrt(np.add.reduceat(acc * acc, (np.cumsum(counts) - counts)[nonempty]))
        scale[nonempty] = np.where(norm > 0, norm, 1.0)
    out["tfv_w"] = _list_array(counts, pa.array(
        (acc / np.repeat(scale, counts)).astype(np.float32), pa.float32()))
    if keep_members:
        m = np.minimum(sizes, keep_members)
        rows = order[_ragged(starts[:-1], m)]
        for col, dt in (("tfv_ids", np.int64), ("tfv_w", np.float64)):
            values, offsets = _flat_list(part.column(col))
            lens = np.diff(offsets)[rows]
            inner = _list_array(lens, pa.array(
                values[_ragged(offsets[:-1][rows], lens)].astype(dt)))
            out[f"member_{col}"] = _list_array(m, inner)
    return pa.table(out, schema=_profile_schema(keep_members))


def _modal_names(names, row_cl: np.ndarray, n_cl: int) -> pa.Array:
    """Each cluster's most frequent non-null name, ties to the smallest
    (code point order, as ``pandas.Series.mode``); null if it has none."""
    valid = pc.is_valid(names).to_numpy(zero_copy_only=False)
    uniq, code = np.unique(np.asarray(names.to_numpy(zero_copy_only=False), object)[valid]
                           .astype(str), return_inverse=True)
    uc, uv, _ = _capped_union(code, np.r_[0, np.cumsum(valid)], row_cl, 1)
    out = np.full(n_cl, None, dtype=object)
    out[uc] = uniq[uv]
    return pa.array(out, pa.string())


def build_profiles(
    vectorized: "rd.Dataset",
    clusters: "rd.Dataset",
    keep_members: int = 0,
) -> "rd.Dataset":
    """(vectorized records, cluster table) → one :func:`profile_kernel`
    row per cluster, returned executed: the records ⋈ (record_id →
    cluster_id) co-group (``joins.attach_claims``), then the one blocking
    pass (``snd._blocked``) with the cluster as the block key. Pass
    ``vectorized`` materialized (the co-group reads its schema)."""
    from whoiswho_ray.pipelines.snd import _blocked
    from whoiswho_ray.stages.joins import attach_claims

    return _blocked(attach_claims(vectorized, clusters, "cluster_id", _SIG_COLS),
                    lambda g, _w: profile_kernel(g, keep_members))


_ASSIGN_SCHEMA = pa.schema([("record_id", pa.string()), ("block_key", pa.string()),
                            ("assigned_cluster", pa.string()), ("score", pa.float64()),
                            ("n_candidates", pa.int64())])


def pair_scores(rows, ii: np.ndarray, jj: np.ndarray, cfg: SNDConfig) -> dict:
    """Features and score of the pairs ``(ii, jj)`` of decoded rows
    (``pairs._decode``): SND's flat-regime set features, Jaro-Winkler of
    the names and the weighted score, without the ``w_rel`` graph blend
    (a record × profile pair has no strong-edge graph)."""
    from whoiswho_ray.stages.pairs import _flat_features, _weighted_score
    from whoiswho_ray.stages.scoring import jw_for_pairs

    feats = _flat_features(rows, ii, jj)
    feats["jw"] = jw_for_pairs(rows.names, ii, jj)
    feats["score"] = _weighted_score(feats, cfg)
    return feats


def assign_kernel(part: pa.Table, cfg: SNDConfig) -> pa.Table:
    """One partition of new records and profiles (``side`` 1, the
    ``cluster_id`` as ``record_id``), sorted by ``block_key`` → one row
    per record: every record is paired with every profile of its block,
    the pairs are scored at once (:func:`pair_scores`), and the best
    (score descending, then cluster_id ascending) is assigned if its
    score reaches ``cfg.tau_edge``, else NIL. A record whose block has no
    profile gets NIL, score 0 and ``n_candidates`` 0."""
    rows = _decode(part)
    starts, _ = _block_bounds(part.column("block_key").combine_chunks())
    blk = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    is_prof = part.column("side").to_numpy(zero_copy_only=False) == 1
    rec = np.flatnonzero(~is_prof)
    prof = np.flatnonzero(is_prof)
    prof = prof[pc.sort_indices(pa.table({"b": blk[prof], "c": rows.rids[prof].astype(str)}),
                                sort_keys=[("b", "ascending"), ("c", "ascending")]
                                ).to_numpy()]
    per_block = np.bincount(blk[prof], minlength=starts.size - 1)
    first = np.cumsum(per_block) - per_block
    cand = per_block[blk[rec]]
    ii = np.repeat(rec, cand)
    jj = prof[_ragged(first[blk[rec]], cand)]
    has = cand > 0
    best = np.zeros(rec.size, dtype=np.int64)
    score = np.zeros(rec.size)
    if ii.size:
        s = pair_scores(rows, ii, jj, cfg)["score"]
        lo = (np.cumsum(cand) - cand)[has]
        top = np.repeat(np.maximum.reduceat(s, lo), cand[has])
        best[has] = np.minimum.reduceat(np.where(s == top, np.arange(s.size), s.size), lo)
        score[has] = s[best[has]]
    assigned = np.where(has & (score >= cfg.tau_edge), rows.rids[jj[best]] if jj.size
                        else NIL, NIL)
    return pa.table({"record_id": pa.array(rows.rids[rec], pa.string()),
                     "block_key": part.column("block_key").take(pa.array(rec)),
                     "assigned_cluster": pa.array(assigned, pa.string()),
                     "score": pa.array(score, pa.float64()),
                     "n_candidates": pa.array(cand, pa.int64())}, schema=_ASSIGN_SCHEMA)


def assign_records(
    new_vectorized: "rd.Dataset",
    profiles: "rd.Dataset",
    cfg: SNDConfig | None = None,
) -> "rd.Dataset":
    """Score every new record against its block's profiles; argmax ≥
    ``cfg.tau_edge`` assigns, else NIL. Returns
    (record_id, block_key, assigned_cluster, score, n_candidates), one
    row per record, executed: the records ∪ the profiles through the one
    blocking pass (``snd._blocked``) and :func:`assign_kernel`."""
    from whoiswho_ray.pipelines.snd import _blocked

    cfg = cfg or SNDConfig()

    def side(s: int):
        def tag(t: pa.Table) -> pa.Table:
            if s:
                t = t.rename_columns(["record_id" if c == "cluster_id" else c
                                      for c in t.column_names])
            return t.select(_SIG_COLS).append_column(
                "side", pa.array(np.full(t.num_rows, s, np.int8)))
        return tag

    both = new_vectorized.map_batches(side(0), batch_format="pyarrow").union(
        profiles.map_batches(side(1), batch_format="pyarrow"))
    return _blocked(both, lambda g, _w: assign_kernel(g, cfg))


def _encode(known_records: "rd.Dataset | str", new_records: "rd.Dataset | str",
            cfg: SNDConfig):
    """The front end both RND paths share: the known records normalized,
    their idf built and the full encoding vectorized (materialized) and
    SND-clustered, and the new records encoded with the known side's
    idf. Returns (known vectorized, clusters, new vectorized)."""
    from whoiswho_ray.pipelines.snd import snd_cluster

    if isinstance(known_records, str):
        known_records = rd.read_parquet(known_records)
    if isinstance(new_records, str):
        new_records = rd.read_parquet(new_records)
    known_norm = normalize_records(known_records, cfg).materialize()
    idf = build_idf(known_norm, cfg)
    known_vec = vectorize(known_norm, idf, cfg).materialize()
    clusters = snd_cluster(known_norm, known_vec, cfg)
    return known_vec, clusters, vectorize(normalize_records(new_records, cfg), idf, cfg)


def run_rnd(
    known_records: "rd.Dataset | str",
    new_records: "rd.Dataset | str",
    cfg: SNDConfig | None = None,
) -> "rd.Dataset":
    """End-to-end: cluster the known records (SND), build profiles, assign
    the new records. Returns the assignment table, executed."""
    cfg = cfg or SNDConfig()
    known_vec, clusters, new_vec = _encode(known_records, new_records, cfg)
    return assign_records(new_vec, build_profiles(known_vec, clusters), cfg)


def rnd_knrm_features(
    new_vectorized: "rd.Dataset",
    profiles: "rd.Dataset",
    n_kernels: int = 21,
    sigma: float = 0.1,
    with_graph: bool = False,
    graph_tau: float = 0.5,
) -> "rd.Dataset":
    """KNRM kernel-pooled features per (new record × candidate profile).

    The reference's KNRM role (``featureGenerator/rndFeature/
    model.py:202-241``): the record's embedding is compared against EACH
    profile member, and the similarity distribution is pooled through
    Gaussian kernels into a feature vector that feeds the GBDT ensemble —
    a multi-resolution signal (exact-match vs diffuse similarity) that
    the centroid cosine collapses. Requires profiles built with
    ``build_profiles(..., keep_members>0)``. Returns
    (record_id, block_key, candidate_cluster, knrm: list<double>[n_kernels]);
    feed through ``training.fit_ensemble`` / ``apply_ensemble``.

    ``with_graph=True`` additionally emits the EGO-GRAPH feature family —
    the analog of the reference's GAT-over-ego-graph features
    (``rndFeature/graph_features.py:62-120``, its third feature family):
    nodes are the record plus every member of every candidate profile in
    the block; edges are member/record cosine >= ``graph_tau``. Per
    (record, candidate): ``g_deg`` (record→candidate-member strong
    links), ``g_frac`` (that over the candidate's member count),
    ``g_cn`` (common neighbors: outside members strong with BOTH the
    record and some candidate member — second-hop structure the direct
    similarity misses), ``g_cnf`` (g_cn over the record's outside strong
    degree). All from the one dot pass plus one member×member
    ``allpairs_matrix`` per block — no Python pair loop."""
    from whoiswho_ray.stages.agg import group_apply

    _E = np.empty(0, np.int64)

    def tag_rec(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        df = df[["record_id", "block_key", "tfv_ids", "tfv_w"]].copy()
        df["member_tfv_ids"] = [[]] * n
        df["member_tfv_w"] = [[]] * n
        df["__side"] = "rec"
        return df

    def tag_prof(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        out = pd.DataFrame({
            "record_id": df["cluster_id"].to_numpy(),
            "block_key": df["block_key"].to_numpy(),
            "tfv_ids": [_E] * n,
            "tfv_w": [_E] * n,
            "member_tfv_ids": list(df["member_tfv_ids"]),
            "member_tfv_w": list(df["member_tfv_w"]),
            "__side": "prof",
        })
        return out

    recs = new_vectorized.map_batches(tag_rec, batch_format="pandas")
    profs = profiles.map_batches(tag_prof, batch_format="pandas")

    def per_block(g: pd.DataFrame) -> pd.DataFrame:
        """Fully vectorized: member/record streams are flattened ONCE into
        (values, offsets) and every (record × member) pair is materialized
        by numpy index-arithmetic gathers (the pairs.py gather pattern —
        no per-pair np.concatenate); the cosines come from one lexsort
        intersection pass (bit-identical to the per-pair
        ``cosine_sparse``), then kernel pooling for every
        (record, profile) cell via one exp + per-kernel bincount."""
        from whoiswho_ray.functions.similarity import knrm_mus_sigmas
        from whoiswho_ray.stages.scoring import _intersections

        rec = g[g["__side"] == "rec"]
        prof = g[g["__side"] == "prof"]
        out_cols = {"record_id": [], "block_key": [], "candidate_cluster": [], "knrm": []}
        if with_graph:
            for c in ("g_deg", "g_frac", "g_cn", "g_cnf"):
                out_cols[c] = []
        if len(rec) == 0 or len(prof) == 0:
            return pd.DataFrame(out_cols)
        bk = g["block_key"].iloc[0]
        nr, npf = len(rec), len(prof)

        # flatten profile members ONCE: member j belongs to mem_prof[j]
        mem_ids = [np.asarray(mi, np.int64)
                   for mis in prof["member_tfv_ids"] for mi in mis]
        mem_w = [np.asarray(mw, np.float64)
                 for mws in prof["member_tfv_w"] for mw in mws]
        mem_prof = np.repeat(np.arange(npf),
                             [len(mis) for mis in prof["member_tfv_ids"]])
        M = len(mem_ids)
        mus, sigmas = knrm_mus_sigmas(n_kernels, sigma)
        phi = np.zeros((nr * npf, mus.size))
        graph = np.zeros((nr * npf, 4))
        if M:
            def flatten(arrays, n):
                lens = np.fromiter((a.size for a in arrays), np.int64, n)
                offs = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(lens, out=offs[1:])
                vals = np.concatenate(arrays) if n else np.empty(0, np.int64)
                return vals, offs, lens

            def gather(vals, offs, lens, idx):
                l = lens[idx]
                out_off = np.zeros(idx.size + 1, dtype=np.int64)
                np.cumsum(l, out=out_off[1:])
                flat = np.repeat(offs[idx], l) + (
                    np.arange(int(out_off[-1])) - np.repeat(out_off[:-1], l))
                return vals[flat], l

            rec_vals, rec_offs, rec_lens = flatten(
                [np.asarray(x, np.int64) for x in rec["tfv_ids"]], nr)
            recw_vals, _, _ = flatten(
                [np.asarray(x, np.float64) for x in rec["tfv_w"]], nr)
            mem_vals, mem_offs, mem_lens = flatten(mem_ids, M)
            memw_vals, _, _ = flatten(mem_w, M)

            ri = np.repeat(np.arange(nr), M)
            mj = np.tile(np.arange(M), nr)
            iv, il = gather(rec_vals, rec_offs, rec_lens, ri)
            iw, _ = gather(recw_vals, rec_offs, rec_lens, ri)
            jv, jl = gather(mem_vals, mem_offs, mem_lens, mj)
            jw, _ = gather(memw_vals, mem_offs, mem_lens, mj)
            _, dots = _intersections(ri.size, iv, il, jv, jl, iw, jw)
            sims = dots if dots is not None else np.zeros(ri.size)
            # pooled[cell, k] = sum over that cell's members of K_k(sim)
            cell = ri * npf + mem_prof[mj]
            K = np.exp(-((sims[:, None] - mus[None, :]) ** 2)
                       / (2.0 * sigmas[None, :] ** 2))
            pooled = np.zeros((nr * npf, mus.size))
            for k in range(mus.size):
                pooled[:, k] = np.bincount(cell, weights=K[:, k], minlength=nr * npf)
            has_members = np.bincount(cell, minlength=nr * npf) > 0
            phi[has_members] = np.log(np.maximum(pooled[has_members], 1e-10))

            if with_graph:
                from whoiswho_ray.stages.scoring import allpairs_matrix

                # record↔member strong edges from the sims already computed
                strong_rm = sims.reshape(nr, M) >= graph_tau
                # member↔member strong edges: one block-bounded dot matrix
                mm = allpairs_matrix(M, mem_vals, mem_offs, memw_vals)
                np.fill_diagonal(mm, 0.0)
                strong_mm = mm >= graph_tau
                ind = (mem_prof[:, None] == np.arange(npf)[None, :])  # (M, npf)
                n_mem = np.maximum(ind.sum(axis=0), 1)
                g_deg = strong_rm.astype(np.float64) @ ind               # (nr, npf)
                g_frac = g_deg / n_mem[None, :]
                # outside member m' is a 2-hop neighbor of candidate c if
                # it links any member of c; common neighbors with the record
                cand_nb = ((strong_mm.astype(np.float64) @ ind) > 0) & ~ind
                g_cn = strong_rm.astype(np.float64) @ cand_nb
                out_deg = strong_rm.sum(axis=1)[:, None] - g_deg  # strong links outside c
                g_cnf = g_cn / np.maximum(out_deg, 1.0)
                graph = np.stack([g_deg.ravel(), g_frac.ravel(),
                                  g_cn.ravel(), g_cnf.ravel()], axis=1)
        rec_ids_col = rec["record_id"].to_numpy()
        prof_ids_col = prof["record_id"].to_numpy()
        rr = np.repeat(np.arange(nr), npf)
        pp = np.tile(np.arange(npf), nr)
        out = {
            "record_id": rec_ids_col[rr],
            "block_key": np.repeat(bk, nr * npf),
            "candidate_cluster": prof_ids_col[pp],
            "knrm": list(phi),
        }
        if with_graph:
            for i, c in enumerate(("g_deg", "g_frac", "g_cn", "g_cnf")):
                out[c] = graph[:, i]
        return pd.DataFrame(out)

    return group_apply(recs.union(profs), "block_key", per_block,
                       batch_format="pandas")


GRAPH_FEATURES = ("g_deg", "g_frac", "g_cn", "g_cnf")


def expand_knrm(feats: "rd.Dataset", n_kernels: int = 21) -> "rd.Dataset":
    """KNRM list column → named feature columns ``k00..k{n-1}`` (the shape
    ``training.EnsembleModel`` consumes). Graph-feature columns
    (``GRAPH_FEATURES``), when present, pass through unchanged."""
    names = [f"k{i:02d}" for i in range(n_kernels)]

    def f(df: pd.DataFrame) -> pd.DataFrame:
        keep = ["record_id", "block_key", "candidate_cluster"] + [
            c for c in GRAPH_FEATURES if c in df.columns]
        out = df[keep].copy()
        mat = (np.stack([np.asarray(x, np.float64) for x in df["knrm"]])
               if len(df) else np.zeros((0, n_kernels)))
        for i, nm in enumerate(names):
            out[nm] = mat[:, i]
        return out

    return feats.map_batches(f, batch_format="pandas")


def fit_rnd_ensemble(
    known_vectorized: "rd.Dataset",
    profiles: "rd.Dataset",
    clusters: "rd.Dataset",
    n_kernels: int = 21,
    sigma: float = 0.1,
    cells=None,
    seed: int = 42,
    max_train_records: int = 50_000,
    with_graph: bool = False,
):
    """Fit the GBDT/logistic cell ensemble on KNRM (and optionally
    ego-graph) features of KNOWN records vs their block's candidate
    profiles — the ``AutoTrainRND.fit`` role (``AutoTrainRND.py:35-71``):
    positives are (record, its own cluster), negatives every other
    same-block profile.

    The feature generation is distributed; the fit itself is driver-side
    on the collected pair frame (the model is a few KB). The collect is
    BOUNDED: when the known set exceeds ``max_train_records``, a
    deterministic order-invariant hash sample (smallest record-id hashes)
    picks the training records — exactly like the reference trains on a
    bounded instance list — so driver memory stays O(sample × candidates)
    on a corpus of any size. Returns (EnsembleModel, diagnostics with
    ``n_train_records``). Note the mild optimism of scoring a record
    against a profile that contains it — shared with the reference's
    profile construction; hold records out of ``clusters`` before calling
    to avoid it."""
    from whoiswho_ray.training import DEFAULT_CELLS, fit_ensemble

    n_known = known_vectorized.count()
    if n_known > max_train_records:
        # Smallest-hash sample without a global sort (VERDICT r3 #3):
        # materialize once (count() above already executed upstream; the
        # old sort().limit() materialized the same payload inside the
        # shuffle), then pick the sample keys via a per-batch partial
        # top-k over bare (record_id, hash) rows + driver merge, and
        # broadcast-filter the blocks by key membership. Ties by record_id.
        import ray as _ray

        known_vectorized = known_vectorized.materialize()

        def keys_h(df: pd.DataFrame) -> pd.DataFrame:
            out = pd.DataFrame({"record_id": df["record_id"].to_numpy()})
            out["__h"] = pd.util.hash_pandas_object(
                out["record_id"], index=False).to_numpy().astype(np.int64)
            if len(out) > max_train_records:
                out = out.sort_values(["__h", "record_id"],
                                      kind="stable").head(max_train_records)
            return out

        cand = (known_vectorized.select_columns(["record_id"])
                .map_batches(keys_h, batch_format="pandas").to_pandas())
        keep = frozenset(cand.sort_values(["__h", "record_id"], kind="stable")
                         .head(max_train_records)["record_id"])
        ref = _ray.put(keep)

        def filt(df: pd.DataFrame, _ref=ref) -> pd.DataFrame:
            return df[df["record_id"].isin(_ray.get(_ref))]

        known_vectorized = known_vectorized.map_batches(
            filt, batch_format="pandas")
    feats = expand_knrm(
        rnd_knrm_features(known_vectorized, profiles, n_kernels, sigma,
                          with_graph=with_graph), n_kernels)
    X = feats.to_pandas()
    truth = clusters.select_columns(["record_id", "cluster_id"]).to_pandas()
    X = X.merge(truth, on="record_id", how="inner")
    X["same_entity"] = X["candidate_cluster"] == X["cluster_id"]
    names = [f"k{i:02d}" for i in range(n_kernels)]
    if with_graph:
        names = names + list(GRAPH_FEATURES)
    cells = cells or tuple(
        type(c)(name=c.name, model=c.model, weight=c.weight,
                features=tuple(names), params=c.params)
        for c in DEFAULT_CELLS)
    model, diag = fit_ensemble(X, label_col="same_entity", cells=cells, seed=seed)
    diag = dict(diag)
    diag["n_train_records"] = int(min(n_known, max_train_records))
    return model, diag


def assign_records_learned(
    new_vectorized: "rd.Dataset",
    profiles: "rd.Dataset",
    model,
    n_kernels: int = 21,
    sigma: float = 0.1,
    tau_prob: float = 0.5,
    with_graph: bool = False,
) -> "rd.Dataset":
    """LEARNED assignment: KNRM kernel features per (record × candidate)
    → broadcast ensemble scoring (``training.apply_ensemble``) → per-record
    argmax with NIL threshold. The learned analog of
    :func:`assign_records` (which blends fixed weights over centroid
    features); requires profiles built with ``keep_members > 0``.

    Every new record yields exactly one row: a NIL skeleton row per record
    rides the same shuffle, so records whose block has no profiles (or no
    scored candidates) come back NIL without any driver-side anti-join."""
    from whoiswho_ray.stages.agg import group_apply
    from whoiswho_ray.training import apply_ensemble

    feats = expand_knrm(
        rnd_knrm_features(new_vectorized, profiles, n_kernels, sigma,
                          with_graph=with_graph), n_kernels)
    # pandas projection (not select_columns) so both union arms carry the
    # same block type — heterogeneous unions break downstream batching
    scored = apply_ensemble(feats, model, out_col="prob").map_batches(
        lambda df: df[["record_id", "block_key", "candidate_cluster", "prob"]],
        batch_format="pandas")

    def skeleton(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "record_id": df["record_id"],
            "block_key": df["block_key"],
            "candidate_cluster": np.repeat(NIL, len(df)),
            "prob": np.full(len(df), -1.0),
        })

    both = scored.union(new_vectorized.select_columns(
        ["record_id", "block_key"]).map_batches(skeleton, batch_format="pandas"))

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["record_id", "prob", "candidate_cluster"],
                           ascending=[True, False, True], kind="stable")
        size = df.groupby("record_id", sort=False)["prob"].transform("size").to_numpy()
        first = df.groupby("record_id", sort=False).head(1)
        fsize = size[df.index.get_indexer(first.index)] if len(df) else size
        prob = first["prob"].to_numpy()
        cand = first["candidate_cluster"].to_numpy()
        return pd.DataFrame({
            "record_id": first["record_id"].to_numpy(),
            "block_key": first["block_key"].to_numpy(),
            "assigned_cluster": np.where((prob >= tau_prob) & (cand != NIL), cand, NIL),
            "prob": prob,
            "n_candidates": (fsize - 1).astype(np.int64),
        })

    return group_apply(both, "record_id", pick, batch_format="pandas")


def run_rnd_learned(
    known_records: "rd.Dataset | str",
    new_records: "rd.Dataset | str",
    cfg: SNDConfig | None = None,
    keep_members: int = 16,
    tau_prob: float = 0.5,
    with_graph: bool = False,
    max_train_records: int = 50_000,
) -> "rd.Dataset":
    """End-to-end LEARNED path: SND-cluster the known records, build
    member-retaining profiles, fit the KNRM-feature ensemble on the known
    records, assign the new ones — the reference's full
    feature→GBDT→assign RND lifecycle as one call."""
    known_vec, clusters, new_vec = _encode(known_records, new_records, cfg or SNDConfig())
    profiles = build_profiles(known_vec, clusters, keep_members=keep_members)
    model, _diag = fit_rnd_ensemble(known_vec, profiles, clusters,
                                    max_train_records=max_train_records,
                                    with_graph=with_graph)
    return assign_records_learned(new_vec, profiles, model, tau_prob=tau_prob,
                                  with_graph=with_graph)
