"""RND — assignment of new records to existing entity profiles.

The Ray-Data re-expression of the reference's RND (real-time name
disambiguation) task (``/root/reference/whoiswho/training/AutoTrainRND.py``,
SURVEY.md §3.2): "real-time" is micro-batch scoring against a static
profile database, so the pipeline is

    profiles   = clusters ⋈ record signatures → one aggregated row per entity
                 (profile caps follow the reference: ≤256 member token sets,
                 ``adhoc_features.py:38,105``)
    candidates = new records → same normalize/vectorize stages → candidate
                 profiles by shared block key (the J2 fuzzy name→candidate
                 join collapsed to the normalized blocking key)
    assign     = per block: score record × profile with the same weighted
                 feature kernel, take argmax, assign iff score ≥ tau_assign
                 else NIL (``AutoTrainRND.py:52-71`` NIL-threshold rule,
                 O3 top-1-with-threshold)

Everything streams: profile building is one groupby(cluster_id), candidate
generation one groupby(block_key) co-group; no per-record Python in the
hot path (the scoring reuses ``score_flat_components``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.idf import IdfModel, build_idf
from whoiswho_ray.stages.normalize import normalize_records
from whoiswho_ray.stages.scoring import vectorize

NIL = "NIL"

PROFILE_TOKEN_CAP = 256  # reference profile cap (adhoc_features.py:105)


def _agg_ids(series, cap: int = PROFILE_TOKEN_CAP) -> np.ndarray:
    """Union of member token-id arrays, most-frequent-first cap, sorted."""
    arrays = [np.asarray(a, dtype=np.int64) for a in series]
    if not arrays:
        return np.empty(0, dtype=np.int64)
    allv = np.concatenate(arrays)
    if allv.size == 0:
        return np.empty(0, dtype=np.int64)
    ids, counts = np.unique(allv, return_counts=True)
    if ids.size > cap:
        keep = np.argsort(-counts, kind="stable")[:cap]
        ids = np.sort(ids[keep])
    return ids


def build_profiles(
    vectorized: "rd.Dataset",
    clusters: "rd.Dataset",
    cfg: SNDConfig | None = None,
    keep_members: int = 0,
    token_cap: int = PROFILE_TOKEN_CAP,
) -> "rd.Dataset":
    """(vectorized records, cluster table) → one profile row per cluster:
    (cluster_id, block_key, name, tok_ids, repo_ids, ctx_ids, tfv_ids, tfv_w).

    ``keep_members`` > 0 additionally retains up to that many MEMBER TF-IDF
    vectors per profile (``member_tfv_ids`` / ``member_tfv_w`` list-of-list
    columns, record_id-sorted prefix — the reference's ≤40-paper profile
    cap for its KNRM features, ``oagbert_features.py:45``) so downstream
    scoring can pool per-member similarities instead of only the centroid.

    The record⋈cluster join is a co-group on record_id (both sides keyed by
    it); profile aggregation is one groupby(cluster_id)."""
    cfg = cfg or SNDConfig()

    sig_cols = ["record_id", "block_key", "name", "tok_ids", "repo_ids",
                "ctx_ids", "tfv_ids", "tfv_w"]
    left = vectorized.select_columns(sig_cols)
    right = clusters.select_columns(["record_id", "cluster_id"])

    # co-group join on record_id (1:1) without a pandas merge of payloads;
    # both sides carry the SAME schema (typed empties on the side that
    # lacks a column) so downstream block unification never mixes NaN into
    # array-typed columns
    _EI = np.empty(0, np.int64)
    _EF = np.empty(0, np.float32)

    def tag_l(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["cluster_id"] = ""
        df["__side"] = "l"
        return df

    def tag_r(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        df = df.copy()
        df["block_key"] = ""
        df["name"] = ""
        for c in ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids"):
            df[c] = [_EI] * n
        df["tfv_w"] = [_EF] * n
        df["__side"] = "r"
        return df[sig_cols + ["cluster_id", "__side"]]

    tagged_l = left.map_batches(tag_l, batch_format="pandas")
    tagged_r = right.map_batches(tag_r, batch_format="pandas")

    # hash-bucket co-group on record_id: ONE Ray group per bucket (4×CPUs
    # buckets total), one vectorized pandas merge inside — never one Ray
    # group per record (the r1 version paid ~0.5 ms of grouping overhead
    # per record; at 2M records that was 17 CPU-minutes of pure overhead)
    from whoiswho_ray.stages.cluster import _bucket_by, _cc_num_buckets

    bucketed = _bucket_by(tagged_l.union(tagged_r), "record_id", _cc_num_buckets())

    def attach_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.drop(columns=["__bucket"])
        sig = df[df["__side"] == "l"].drop(columns=["__side", "cluster_id"])
        cl = df[df["__side"] == "r"][["record_id", "cluster_id"]]
        if len(sig) == 0 or len(cl) == 0:
            out = sig.iloc[0:0].copy()
            out["cluster_id"] = pd.Series([], dtype=object)
            return out
        return sig.merge(cl, on="record_id", how="inner")

    joined = bucketed.groupby("__bucket").map_groups(attach_bucket, batch_format="pandas")

    def to_profile(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            cols = {
                "cluster_id": pd.Series([], dtype=object),
                "block_key": pd.Series([], dtype=object),
                "name": pd.Series([], dtype=object),
                "n_members": pd.Series([], dtype=np.int64),
                "tok_ids": pd.Series([], dtype=object),
                "repo_ids": pd.Series([], dtype=object),
                "ctx_ids": pd.Series([], dtype=object),
                "tfv_ids": pd.Series([], dtype=object),
                "tfv_w": pd.Series([], dtype=object),
            }
            if keep_members:
                cols["member_tfv_ids"] = pd.Series([], dtype=object)
                cols["member_tfv_w"] = pd.Series([], dtype=object)
            return pd.DataFrame(cols)
        tfv_ids = _agg_ids(g["tfv_ids"], cap=token_cap)
        # centroid weights: mean of member weights per kept id, renormalized
        w_acc = np.zeros(tfv_ids.size, dtype=np.float64)
        for ids, w in zip(g["tfv_ids"], g["tfv_w"]):
            ids = np.asarray(ids, dtype=np.int64)
            w = np.asarray(w, dtype=np.float64)
            pos = np.searchsorted(tfv_ids, ids)
            ok = (pos < tfv_ids.size)
            ok[ok] &= tfv_ids[pos[ok]] == ids[ok]
            w_acc[pos[ok]] += w[ok]
        norm = np.linalg.norm(w_acc)
        if norm > 0:
            w_acc /= norm
        name = g["name"].mode().iloc[0] if len(g) else ""
        cols = {
            "cluster_id": [g["cluster_id"].iloc[0]],
            "block_key": [g["block_key"].iloc[0]],
            "name": [name],
            "n_members": [len(g)],
            "tok_ids": [_agg_ids(g["tok_ids"], cap=token_cap)],
            "repo_ids": [_agg_ids(g["repo_ids"], cap=token_cap)],
            "ctx_ids": [_agg_ids(g["ctx_ids"], cap=token_cap)],
            "tfv_ids": [tfv_ids],
            "tfv_w": [w_acc.astype(np.float32)],
        }
        if keep_members:
            gg = g.sort_values("record_id", kind="stable").head(keep_members)
            cols["member_tfv_ids"] = [[np.asarray(x, np.int64) for x in gg["tfv_ids"]]]
            cols["member_tfv_w"] = [[np.asarray(x, np.float64) for x in gg["tfv_w"]]]
        return pd.DataFrame(cols)

    # O(buckets) Ray groups, per-cluster split inside the bucket task
    from whoiswho_ray.stages.agg import group_apply

    return group_apply(joined, "cluster_id", to_profile, batch_format="pandas")


def assign_records(
    new_vectorized: "rd.Dataset",
    profiles: "rd.Dataset",
    cfg: SNDConfig | None = None,
    tau_assign: float | None = None,
) -> "rd.Dataset":
    """Score every new record against its block's profiles; argmax ≥
    tau_assign assigns, else NIL. Returns
    (record_id, block_key, assigned_cluster, score, n_candidates)."""
    cfg = cfg or SNDConfig()
    tau = cfg.tau_edge if tau_assign is None else tau_assign

    rec_cols = ["record_id", "block_key", "name", "tok_ids", "repo_ids",
                "ctx_ids", "tfv_ids", "tfv_w"]
    recs = new_vectorized.select_columns(rec_cols).map_batches(
        lambda df: df.assign(__side="rec"), batch_format="pandas")
    profs = profiles.map_batches(
        lambda df: df.rename(columns={"cluster_id": "record_id"})
        .assign(__side="prof")[rec_cols + ["__side"]],
        batch_format="pandas",
    )

    from whoiswho_ray.stages.scoring import jw_memo, score_flat_components

    def per_block(g: pd.DataFrame) -> pd.DataFrame:
        rec = g[g["__side"] == "rec"]
        prof = g[g["__side"] == "prof"]
        nr, np_ = len(rec), len(prof)
        if nr == 0:
            return pd.DataFrame({"record_id": [], "block_key": [], "assigned_cluster": [],
                                 "score": [], "n_candidates": []})
        if np_ == 0:
            return pd.DataFrame({
                "record_id": rec["record_id"].to_numpy(),
                "block_key": rec["block_key"].to_numpy(),
                "assigned_cluster": np.repeat(NIL, nr),
                "score": np.zeros(nr),
                "n_candidates": np.zeros(nr, dtype=np.int64),
            })
        # full record × profile cross within the block
        ri = np.repeat(np.arange(nr), np_)
        pj = np.tile(np.arange(np_), nr)

        def flat_pairs(series, idx):
            arrays = [np.asarray(a) for a in series]
            lens = np.fromiter((arrays[i].size for i in idx), np.int64, idx.size)
            vals = (np.concatenate([arrays[i] for i in idx])
                    if idx.size else np.empty(0, np.int64))
            return vals, lens

        feats = score_flat_components(
            cfg, ri.size,
            (flat_pairs(rec["tok_ids"], ri), flat_pairs(prof["tok_ids"], pj)),
            (flat_pairs(rec["repo_ids"], ri), flat_pairs(prof["repo_ids"], pj)),
            (flat_pairs(rec["ctx_ids"], ri), flat_pairs(prof["ctx_ids"], pj)),
            (
                (*flat_pairs(rec["tfv_ids"], ri), flat_pairs(rec["tfv_w"], ri)[0].astype(np.float64)),
                (*flat_pairs(prof["tfv_ids"], pj), flat_pairs(prof["tfv_w"], pj)[0].astype(np.float64)),
            ),
            rec["name"].to_numpy()[ri].tolist(), prof["name"].to_numpy()[pj].tolist(),
            jw_memo({}),
        )
        scores = feats["score"].reshape(nr, np_)
        # deterministic argmax: score desc, then candidate id asc
        prof_ids = prof["record_id"].to_numpy()
        order = np.argsort(prof_ids, kind="stable")
        scores_o = scores[:, order]
        best_local = np.argmax(scores_o, axis=1)
        best_score = scores_o[np.arange(nr), best_local]
        assigned = np.where(best_score >= tau, prof_ids[order][best_local], NIL)
        return pd.DataFrame({
            "record_id": rec["record_id"].to_numpy(),
            "block_key": rec["block_key"].to_numpy(),
            "assigned_cluster": assigned,
            "score": best_score,
            "n_candidates": np.repeat(np_, nr),
        })

    # O(buckets) Ray groups — block count is unbounded at scale
    from whoiswho_ray.stages.agg import group_apply

    return group_apply(recs.union(profs), "block_key", per_block, batch_format="pandas")


def run_rnd(
    known_records: "rd.Dataset | str",
    new_records: "rd.Dataset | str",
    cfg: SNDConfig | None = None,
    tau_assign: float | None = None,
    profile_token_cap: int = PROFILE_TOKEN_CAP,
) -> "rd.Dataset":
    """End-to-end: cluster the known records (SND), build profiles, assign
    the new records. Returns the assignment table. ``profile_token_cap``
    bounds every profile's token/tfv union (most-frequent-first; the
    reference's 256-member cap, ``adhoc_features.py:105``)."""
    from whoiswho_ray.pipelines.snd import snd_cluster

    cfg = cfg or SNDConfig()
    if isinstance(known_records, str):
        known_records = rd.read_parquet(known_records)
    if isinstance(new_records, str):
        new_records = rd.read_parquet(new_records)

    known_norm = normalize_records(known_records, cfg).materialize()
    idf = build_idf(known_norm, cfg)
    known_vec = vectorize(known_norm, idf, cfg).materialize()
    clusters = snd_cluster(known_norm, known_vec, cfg)
    profiles = build_profiles(known_vec, clusters, cfg, token_cap=profile_token_cap)
    new_vec = vectorize(normalize_records(new_records, cfg), idf, cfg)
    return assign_records(new_vec, profiles, cfg, tau_assign)


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
    from whoiswho_ray.pipelines.snd import snd_cluster

    cfg = cfg or SNDConfig()
    if isinstance(known_records, str):
        known_records = rd.read_parquet(known_records)
    if isinstance(new_records, str):
        new_records = rd.read_parquet(new_records)

    known_norm = normalize_records(known_records, cfg).materialize()
    idf = build_idf(known_norm, cfg)
    known_vec = vectorize(known_norm, idf, cfg).materialize()
    clusters = snd_cluster(known_norm, known_vec, cfg)
    profiles = build_profiles(known_vec, clusters, cfg,
                              keep_members=keep_members).materialize()
    model, _diag = fit_rnd_ensemble(known_vec, profiles, clusters,
                                    max_train_records=max_train_records,
                                    with_graph=with_graph)
    new_vec = vectorize(normalize_records(new_records, cfg), idf, cfg)
    return assign_records_learned(new_vec, profiles, model, tau_prob=tau_prob,
                                  with_graph=with_graph)
