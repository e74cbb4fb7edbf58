"""RND — assignment of new records to existing entity profiles.

The Ray-Data re-expression of the reference's RND (real-time name
disambiguation) task (``/root/reference/whoiswho/training/AutoTrainRND.py``,
SURVEY.md §3.2): "real-time" is micro-batch scoring against a static
profile database. Every step is a partition kernel on the SND blocking
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
    learned  = the same union with the profiles' kept members →
               :func:`knrm_kernel`: KNRM kernel-pooled cosines of each
               record against each candidate's members (and the ego-graph
               family), one row per (record, candidate); the GBDT/logistic
               ensemble is fitted on the known records' rows
               (:func:`fit_rnd_ensemble`) and :func:`learned_kernel`
               scores, argmaxes and NILs the new ones in the same task
               (``AutoTrainRND.py:35-71``)

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

# the learned path (rndFeature/model.py:103-135, graph_features.py:62-120)
N_KERNELS = 21   # KNRM kernels: 20 Gaussians over [-1, 1) and one exact match
KNRM_SIGMA = 0.1  # the Gaussians' width
GRAPH_TAU = 0.5  # a record/member cosine at least this is an ego-graph edge
TAU_PROB = 0.5   # the learned assignment's NIL threshold
KNRM_FEATURES = tuple(f"k{i:02d}" for i in range(N_KERNELS))
GRAPH_FEATURES = ("g_deg", "g_frac", "g_cn", "g_cnf")

# the vectorized record columns profiles are built from and scored
# against, with their types, and the profiles' kept member vectors
_IDS = pa.list_(pa.int64())
_ID_LISTS = ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids")
_SIG_TYPES = {"record_id": pa.string(), "block_key": pa.string(), "name": pa.string(),
              **{c: _IDS for c in _ID_LISTS}, "tfv_w": pa.list_(pa.float32())}
_SIG_COLS = list(_SIG_TYPES)
_MEMBER_TYPES = {"member_tfv_ids": pa.list_(_IDS),
                 "member_tfv_w": pa.list_(pa.list_(pa.float64()))}


def _profile_schema(keep_members: int) -> pa.Schema:
    s = pa.string()
    return pa.schema([("cluster_id", s), ("block_key", s), ("name", s), ("n_members", pa.int64()),
                      *[(c, _IDS) for c in _ID_LISTS], ("tfv_w", pa.list_(pa.float32())),
                      *(_MEMBER_TYPES.items() if keep_members else [])])


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


def _assign_schema(value: str) -> pa.Schema:
    s = pa.string()
    return pa.schema([("record_id", s), ("block_key", s), ("assigned_cluster", s),
                      (value, pa.float64()), ("n_candidates", pa.int64())])


_ASSIGN_SCHEMA = _assign_schema("score")


def _tag(t: pa.Table, side: int, members: bool = False) -> pa.Table:
    """One side of the new records ∪ profiles union, with a ``side``
    column (1: a profile, whose ``cluster_id`` becomes its
    ``record_id``). ``members`` adds the profiles' kept member vectors;
    a record gets empty member lists. Every column is cast to the
    profiles' type (``joins.as_plain``: a pandas-built record's arrays
    arrive as tensors)."""
    from whoiswho_ray.stages.joins import as_plain

    if side:
        t = t.rename_columns(["record_id" if c == "cluster_id" else c
                              for c in t.column_names])
    n = t.num_rows
    types = {**_SIG_TYPES, **(_MEMBER_TYPES if members else {})}
    cols = {c: (as_plain(t.column(c), typ) if side or c not in _MEMBER_TYPES
                else _list_array(np.zeros(n, np.int64), pa.array([], typ.value_type)))
            for c, typ in types.items()}
    cols["side"] = pa.array(np.full(n, side, np.int8))
    return pa.table(cols)


def _candidates(new_vectorized: "rd.Dataset", profiles: "rd.Dataset",
                members: bool = False) -> "rd.Dataset":
    """The new records ∪ the profiles (:func:`_tag`), for the blocking pass."""
    return new_vectorized.map_batches(
        _tag, fn_kwargs={"side": 0, "members": members}, batch_format="pyarrow").union(
        profiles.map_batches(_tag, fn_kwargs={"side": 1, "members": members},
                             batch_format="pyarrow"))


def _cells(part: pa.Table):
    """The (record, profile) cells of a partition of new records and
    profiles sorted by ``block_key``: every record × every profile of
    its block, record-major, a record's profiles in cluster_id order.
    Returns (the record rows, their candidate counts, the cells' record
    rows, the cells' profile rows)."""
    starts, _ = _block_bounds(part.column("block_key").combine_chunks())
    blk = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    is_prof = part.column("side").to_numpy(zero_copy_only=False) == 1
    rec, prof = np.flatnonzero(~is_prof), np.flatnonzero(is_prof)
    prof = prof[pc.sort_indices(
        pa.table({"b": blk[prof], "c": part.column("record_id").take(pa.array(prof))}),
        sort_keys=[("b", "ascending"), ("c", "ascending")]).to_numpy()]
    per_block = np.bincount(blk[prof], minlength=starts.size - 1)
    first = np.cumsum(per_block) - per_block
    cand = per_block[blk[rec]]
    return rec, cand, np.repeat(rec, cand), prof[_ragged(first[blk[rec]], cand)]


def _assigned(part: pa.Table, cells, s, tau: float, empty: float,
              schema: pa.Schema) -> pa.Table:
    """One row per record of ``cells`` (:func:`_cells`), given a value
    ``s`` per cell: the best cell (the highest ``s``, ties to the first,
    i.e. the smallest cluster_id) is assigned if its value reaches
    ``tau``, else NIL. A record whose block has no profile gets NIL, the
    value ``empty`` and ``n_candidates`` 0."""
    rec, cand, _, jj = cells
    has = cand > 0
    best = np.zeros(rec.size, dtype=np.int64)
    value = np.full(rec.size, empty)
    if jj.size:
        lo = (np.cumsum(cand) - cand)[has]
        top = np.repeat(np.maximum.reduceat(s, lo), cand[has])
        best[has] = np.minimum.reduceat(np.where(s == top, np.arange(s.size), s.size), lo)
        value[has] = s[best[has]]
    rids = part.column("record_id").to_numpy(zero_copy_only=False)
    assigned = np.where(has & (value >= tau), rids[jj[best]] if jj.size else NIL, NIL)
    return pa.table([pa.array(rids[rec], pa.string()),
                     part.column("block_key").take(pa.array(rec)),
                     pa.array(assigned, pa.string()), pa.array(value, pa.float64()),
                     pa.array(cand, pa.int64())], schema=schema)


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
    """One partition of new records and profiles (:func:`_tag`), sorted
    by ``block_key`` → one row per record: every record is paired with
    every profile of its block (:func:`_cells`), the pairs are scored at
    once (:func:`pair_scores`), and the best is assigned if its score
    reaches ``cfg.tau_edge``, else NIL (:func:`_assigned`; a record whose
    block has no profile scores 0)."""
    cells = _cells(part)
    ii, jj = cells[2:]
    s = pair_scores(_decode(part), ii, jj, cfg)["score"] if ii.size else None
    return _assigned(part, cells, s, cfg.tau_edge, 0.0, _ASSIGN_SCHEMA)


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
    return _blocked(_candidates(new_vectorized, profiles),
                    lambda g, _w: assign_kernel(g, cfg))


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


def _features(with_graph: bool) -> tuple:
    return KNRM_FEATURES + (GRAPH_FEATURES if with_graph else ())


def _nested(col) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A list<list<T>> column → (flat values, the inner lists' offsets,
    each row's offsets into the inner lists)."""
    col = col.combine_chunks()
    outer = col.offsets.to_numpy().astype(np.int64)
    values, inner = _flat_list(col.values.slice(outer[0], outer[-1] - outer[0]))
    return values, inner, outer - outer[0]


def knrm_kernel(part: pa.Table, with_graph: bool = False) -> pa.Table:
    """One partition of new records and member-keeping profiles
    (:func:`_tag` with ``members``), sorted by ``block_key`` → one row
    per (record, candidate profile) cell (:func:`_cells`): ``record_id``,
    ``block_key``, ``candidate_cluster`` and the KNRM features ``k00…``,
    the record's cosines with the candidate's members pooled through
    Gaussian kernels (``similarity.knrm_profile_features``; the
    reference's KNRM role, ``featureGenerator/rndFeature/
    model.py:202-241``: exact match vs diffuse similarity, which the
    centroid cosine collapses). The partition's (record, member) pairs
    are laid out cell by cell, members in their stored order; their
    cosines come from one ``scoring._intersections`` call, the pooling
    from one ``exp`` and one ``bincount`` per kernel.

    ``with_graph`` adds the ego-graph family (:func:`_ego_graph`, the
    reference's GAT-over-ego-graph features,
    ``rndFeature/graph_features.py:62-120``)."""
    return _knrm(part, _cells(part), with_graph)


def _knrm(part: pa.Table, cells, with_graph: bool) -> pa.Table:
    from whoiswho_ray.functions.similarity import knrm_mus_sigmas
    from whoiswho_ray.stages.scoring import _intersections

    _, _, ii, jj = cells
    tv, to = _flat_list(part.column("tfv_ids"))
    tw = _flat_list(part.column("tfv_w"))[0]
    mv, mo, rm = _nested(part.column("member_tfv_ids"))
    mw = _nested(part.column("member_tfv_w"))[0]
    n_mem = np.diff(rm)
    # every (record, member) pair, cell by cell
    cell = np.repeat(np.arange(jj.size), n_mem[jj])
    r, m = ii[cell], _ragged(rm[jj], n_mem[jj])
    tl, ml = np.diff(to), np.diff(mo)
    rt, mt = _ragged(to[r], tl[r]), _ragged(mo[m], ml[m])
    _, sims = _intersections(r.size, tv[rt], tl[r], mv[mt], ml[m], tw[rt], mw[mt])
    mus, sigmas = knrm_mus_sigmas(N_KERNELS, KNRM_SIGMA)
    K = np.exp(-((sims[:, None] - mus[None, :]) ** 2) / (2.0 * sigmas[None, :] ** 2))
    pooled = np.stack([np.bincount(cell, weights=K[:, k], minlength=jj.size)
                       for k in range(mus.size)], axis=1)
    phi = np.zeros_like(pooled)
    full = n_mem[jj] > 0
    phi[full] = np.log(np.maximum(pooled[full], 1e-10))
    ids, keys = part.column("record_id"), part.column("block_key")
    out = {"record_id": ids.take(pa.array(ii)), "block_key": keys.take(pa.array(ii)),
           "candidate_cluster": ids.take(pa.array(jj)),
           **{c: phi[:, k] for k, c in enumerate(KNRM_FEATURES)}}
    if with_graph:
        graph = _ego_graph(part, ii, jj, sims, (mv, mo, mw, rm))
        out.update({c: graph[:, k] for k, c in enumerate(GRAPH_FEATURES)})
    s = pa.string()
    return pa.table(out, schema=pa.schema(
        [("record_id", s), ("block_key", s), ("candidate_cluster", s),
         *[(c, pa.float64()) for c in _features(with_graph)]]))


def _ego_graph(part: pa.Table, ii: np.ndarray, jj: np.ndarray, sims: np.ndarray,
               members) -> np.ndarray:
    """The ego-graph features of every cell, one block at a time: the
    nodes are the record and every member of the block's profiles, the
    edges cosines of at least :data:`GRAPH_TAU` (record/member: ``sims``,
    laid out as :func:`_knrm` does; member/member: one
    ``allpairs_matrix``). ``g_deg``: the record's edges into the
    candidate's members; ``g_frac``: that over the candidate's member
    count; ``g_cn``: common neighbours, outside members linked to the
    record and to some member of the candidate (the second hop direct
    similarity misses); ``g_cnf``: that over the record's edges outside
    the candidate."""
    from whoiswho_ray.stages.scoring import allpairs_matrix

    mv, mo, mw, rm = members
    n_mem, ml = np.diff(rm), np.diff(mo)
    first_pair = np.r_[0, np.cumsum(n_mem[jj])]
    starts, _ = _block_bounds(part.column("block_key").combine_chunks())
    cb = np.repeat(np.arange(starts.size - 1), np.diff(starts))[ii]
    bounds = np.flatnonzero(np.r_[True, cb[1:] != cb[:-1], True]) if ii.size else [0]
    graph = np.zeros((jj.size, len(GRAPH_FEATURES)))
    for c0, c1 in zip(bounds[:-1], bounds[1:]):  # the cells of one block
        profs = jj[c0: c0 + np.count_nonzero(ii[c0:c1] == ii[c0])]
        npf, nr = profs.size, (c1 - c0) // profs.size
        mem = _ragged(rm[profs], n_mem[profs])
        M = mem.size
        mem_prof = np.repeat(np.arange(npf), n_mem[profs])
        strong_rm = sims[first_pair[c0]: first_pair[c1]].reshape(nr, M) >= GRAPH_TAU
        mt = _ragged(mo[mem], ml[mem])
        mm = allpairs_matrix(M, mv[mt], np.r_[0, np.cumsum(ml[mem])], mw[mt])
        np.fill_diagonal(mm, 0.0)
        strong_mm = mm >= GRAPH_TAU
        ind = mem_prof[:, None] == np.arange(npf)[None, :]  # (M, npf)
        g_deg = strong_rm.astype(np.float64) @ ind  # (nr, npf)
        g_frac = g_deg / np.maximum(ind.sum(axis=0), 1)[None, :]
        # an outside member is a 2-hop neighbour of a candidate if it
        # links any of its members; common neighbours with the record
        cand_nb = ((strong_mm.astype(np.float64) @ ind) > 0) & ~ind
        g_cn = strong_rm.astype(np.float64) @ cand_nb
        g_cnf = g_cn / np.maximum(strong_rm.sum(axis=1)[:, None] - g_deg, 1.0)
        graph[c0:c1] = np.stack([g_deg.ravel(), g_frac.ravel(),
                                 g_cn.ravel(), g_cnf.ravel()], axis=1)
    return graph


def rnd_knrm_features(
    new_vectorized: "rd.Dataset",
    profiles: "rd.Dataset",
    with_graph: bool = False,
) -> "rd.Dataset":
    """KNRM (and, ``with_graph``, ego-graph) features per (new record ×
    candidate profile): the records ∪ the profiles through the one
    blocking pass (``snd._blocked``) and :func:`knrm_kernel`. Requires
    profiles built with ``build_profiles(..., keep_members>0)``. Returns
    (record_id, block_key, candidate_cluster, k00…k20[, g_deg, g_frac,
    g_cn, g_cnf]), executed — the columns ``training.fit_ensemble``
    reads."""
    from whoiswho_ray.pipelines.snd import _blocked

    return _blocked(_candidates(new_vectorized, profiles, members=True),
                    lambda g, _w: knrm_kernel(g, with_graph))


def fit_rnd_ensemble(
    known_vectorized: "rd.Dataset",
    profiles: "rd.Dataset",
    clusters: "rd.Dataset",
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
    on the collected pair frame (the model is a few KB), sorted by
    (record_id, candidate_cluster) first: the fit's folds follow row
    order, which the blocking pass does not fix. The collect is
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
        # the smallest-hash sample of record ids (no global sort),
        # over one materialized copy read by both passes
        from whoiswho_ray.stages.joins import hash_sample_keys, semi_join

        known_vectorized = known_vectorized.materialize()
        known_vectorized = semi_join(
            known_vectorized,
            hash_sample_keys(known_vectorized, "record_id", max_train_records),
            "record_id")
    X = rnd_knrm_features(known_vectorized, profiles, with_graph).to_pandas()
    truth = clusters.select_columns(["record_id", "cluster_id"]).to_pandas()
    X = X.merge(truth, on="record_id", how="inner").sort_values(
        ["record_id", "candidate_cluster"], kind="stable", ignore_index=True)
    X["same_entity"] = X["candidate_cluster"] == X["cluster_id"]
    cells = cells or tuple(
        type(c)(name=c.name, model=c.model, weight=c.weight,
                features=_features(with_graph), params=c.params)
        for c in DEFAULT_CELLS)
    model, diag = fit_ensemble(X, label_col="same_entity", cells=cells, seed=seed)
    diag = dict(diag)
    diag["n_train_records"] = int(min(n_known, max_train_records))
    return model, diag


def learned_kernel(part: pa.Table, model, with_graph: bool = False) -> pa.Table:
    """:func:`knrm_kernel`'s partition → one row per record: the cells'
    features scored by ``model.predict_proba`` and the best cell assigned
    if its prob reaches :data:`TAU_PROB`, else NIL (:func:`_assigned`; a
    record whose block has no profile gets prob -1.0)."""
    cells = _cells(part)
    p = (model.predict_proba(_knrm(part, cells, with_graph).select(
        list(_features(with_graph))).to_pandas()) if cells[3].size else None)
    return _assigned(part, cells, p, TAU_PROB, -1.0, _assign_schema("prob"))


def assign_records_learned(
    new_vectorized: "rd.Dataset",
    profiles: "rd.Dataset",
    model,
    with_graph: bool = False,
) -> "rd.Dataset":
    """LEARNED assignment, the learned analog of :func:`assign_records`
    (which blends fixed weights over centroid features): the records ∪
    the member-keeping profiles (``keep_members > 0``) through the one
    blocking pass (``snd._blocked``) and :func:`learned_kernel`, the
    model broadcast once (``ray.put``) and read through the per-process
    cache (``joins._cached_get``). Returns (record_id, block_key,
    assigned_cluster, prob, n_candidates), one row per record,
    executed."""
    import ray

    from whoiswho_ray.pipelines.snd import _blocked
    from whoiswho_ray.stages.joins import _cached_get

    model_ref = ray.put(model)
    return _blocked(_candidates(new_vectorized, profiles, members=True),
                    lambda g, _w: learned_kernel(g, _cached_get(model_ref), with_graph))


def run_rnd_learned(
    known_records: "rd.Dataset | str",
    new_records: "rd.Dataset | str",
    cfg: SNDConfig | None = None,
    keep_members: int = 16,
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
    return assign_records_learned(new_vec, profiles, model, with_graph=with_graph)
