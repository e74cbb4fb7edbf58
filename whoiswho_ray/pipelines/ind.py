"""IND — incorrect-assignment detection over claimed entity profiles.

The Ray-Data re-expression of the reference's third WhoIsWho task
(``/root/reference/mind/`` — MIND, "Effective Incorrect Assignment
Detection through a Multi-Modal Structural-Enhanced Language Model",
arXiv:2412.03930): given author profiles whose papers are a mix of
``normal_data`` and planted ``outliers`` (``mind/utils.py:146-207``), score
every (profile, record) pair and flag the likely wrong assignments;
evaluation is per-profile AUC weighted by each profile's outlier count
(the KDD-Cup-2024 IND metric the reference evaluates against,
``evaluation.ind_weighted_auc``).

The reference scores pairs with a LoRA-tuned LLM over the paper text plus
GCCAD graph embeddings — external models this engine gates out (the same
sanctioned-swap pattern as T2 word2vec→TF-IDF and T8 GAT→SGC). The swap
here is **cluster consensus**: re-run the engine's own pairwise scoring
kernel INSIDE each claimed profile, take connected components over
score ≥ tau_edge, and call the largest component the profile's core — a
record outside the core is a likely incorrect assignment. This is robust
to the regime that defeats leave-one-out centroid methods: in WhoIsWho
data an author's outliers are *correlated* (several papers of the same
other same-name author), so foreign records vouch for each other under
any per-record profile-similarity score, but they still form their own
minority component under within-profile clustering.

Per (profile, record) output:

    n_members   claimed profile size
    score       mean pairwise score against the core's members (over the
                candidate pairs the kernel scored) — the continuous score
                the AUC metric ranks; core members score high by
                construction, foreign records low
    is_outlier  record ∉ core; profiles with no core (all singleton
                components, or n == 1) carry no evidence and flag nothing

One hash-bucketed co-group attaches the claimed ``profile_id`` (same join
shape as the RND record⋈cluster join), one ``group_apply(profile_id)``
runs the scoring kernel — O(buckets) Ray groups, the same block-bounded
matrix/flat regimes as SND blocking (``pairs._score_block``), no
per-record Python.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.idf import build_idf
from whoiswho_ray.stages.normalize import normalize_records
from whoiswho_ray.stages.scoring import vectorize

IND_SIG_COLS = ["record_id", "name", "tok_ids", "repo_ids", "ctx_ids",
                "tfv_ids", "tfv_w", "content_sha256"]


def attach_profiles(
    vectorized: "rd.Dataset", assignments: "rd.Dataset"
) -> "rd.Dataset":
    """(vectorized records) ⋈ (record_id → profile_id) — hash-bucketed
    co-group on record_id (one Ray group per bucket, one vectorized merge
    inside), the same join shape as ``rnd.build_profiles``. Records with
    no assignment row are dropped (they belong to no claimed profile)."""
    _EI = np.empty(0, np.int64)
    _EF = np.empty(0, np.float32)

    def tag_l(df: pd.DataFrame) -> pd.DataFrame:
        df = df[IND_SIG_COLS].copy()
        df["profile_id"] = ""
        df["__side"] = "l"
        return df

    def tag_r(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        return pd.DataFrame({
            "record_id": df["record_id"],
            "name": [""] * n,
            "tok_ids": [_EI] * n,
            "repo_ids": [_EI] * n,
            "ctx_ids": [_EI] * n,
            "tfv_ids": [_EI] * n,
            "tfv_w": [_EF] * n,
            "content_sha256": [""] * n,
            "profile_id": df["profile_id"],
            "__side": ["r"] * n,
        })

    from whoiswho_ray.stages.cluster import _bucket_by, _cc_num_buckets

    tagged = vectorized.map_batches(tag_l, batch_format="pandas").union(
        assignments.map_batches(tag_r, batch_format="pandas"))
    bucketed = _bucket_by(tagged, "record_id", _cc_num_buckets())

    def attach_bucket(g: pd.DataFrame) -> pd.DataFrame:
        df = g.drop(columns=["__bucket"])
        sig = df[df["__side"] == "l"].drop(columns=["__side", "profile_id"])
        asg = df[df["__side"] == "r"][["record_id", "profile_id"]]
        if len(sig) == 0 or len(asg) == 0:
            out = sig.iloc[0:0].copy()
            out["profile_id"] = pd.Series([], dtype=object)
            return out
        return sig.merge(asg, on="record_id", how="inner")

    return bucketed.groupby("__bucket").map_groups(
        attach_bucket, batch_format="pandas")


def _coerce_lists(group: pa.Table) -> pa.Table:
    """All-empty list columns can round-trip the bucket shuffle as
    untyped nulls (pandas object column of empty arrays → Arrow
    NullArray); restore the typed empty lists the scoring kernel expects."""
    for col, vt in (("tok_ids", pa.int64()), ("repo_ids", pa.int64()),
                    ("ctx_ids", pa.int64()), ("tfv_ids", pa.int64()),
                    ("tfv_w", pa.float32())):
        i = group.schema.get_field_index(col)
        t = group.column(i).type
        if pa.types.is_null(t) or (pa.types.is_list(t)
                                   and pa.types.is_null(t.value_type)):
            empty = pa.array([[]] * group.num_rows, pa.list_(vt))
            group = group.set_column(i, col, empty)
    return group


def _profile_scores(group: pa.Table, cfg: SNDConfig) -> pa.Table:
    """One claimed profile → per-member core membership + consensus score."""
    from whoiswho_ray.stages.cluster import cc_labels
    from whoiswho_ray.stages.pairs import _score_block

    group = _coerce_lists(group)
    n = group.num_rows
    pid = group.column("profile_id")[0].as_py() if n else ""
    rid_col = np.asarray(group.column("record_id").to_pylist(), dtype=object)
    sha_col = np.asarray(group.column("content_sha256").to_pylist(), dtype=object)
    order = np.argsort(rid_col, kind="stable")
    rids_sorted = rid_col[order]
    shas_sorted = sha_col[order]

    f_dom = np.zeros(n)
    flag = np.zeros(n, dtype=bool)
    scored = _score_block(group, cfg) if n >= 2 else None
    if scored is not None:
        rids, ii, jj, feats, _ = scored
        sorted_pos = np.empty(n, dtype=np.int64)
        sorted_pos[np.argsort(rids, kind="stable")] = np.arange(n, dtype=np.int64)
        si, sj = sorted_pos[ii], sorted_pos[jj]
        sc = feats["score"]
        keep = sc >= cfg.tau_edge
        labels = cc_labels(n, si[keep], sj[keep])
        sizes = np.bincount(labels, minlength=n)
        if sizes.max() >= 2:
            # core = largest component; ties resolve to the smallest
            # min-record_id root (labels are min sorted positions, argmax
            # returns the first maximum)
            dom = int(np.argmax(sizes))
            in_dom = labels == dom
            flag = ~in_dom
            # mean pair score against core members, over the pairs the
            # kernel scored (all pairs in the matrix regime; the candidate
            # subset in the flat regime — unpaired records default to 0)
            wj, wi = in_dom[sj], in_dom[si]
            num = (np.bincount(si[wj], weights=sc[wj], minlength=n)
                   + np.bincount(sj[wi], weights=sc[wi], minlength=n))
            cnt = (np.bincount(si[wj], minlength=n)
                   + np.bincount(sj[wi], minlength=n))
            f_dom = num / np.maximum(cnt, 1)
    return pa.table({
        "profile_id": pa.array(np.repeat(pid, n), pa.string()),
        "record_id": pa.array(rids_sorted, pa.string()),
        "n_members": pa.array(np.full(n, n, np.int64)),
        "score": pa.array(f_dom, pa.float64()),
        "is_outlier": pa.array(flag, pa.bool_()),
        "content_sha256": pa.array(shas_sorted, pa.string()),
    })


def ind_scores(attached: "rd.Dataset", cfg: SNDConfig | None = None) -> "rd.Dataset":
    """Attached records → one scored row per (profile, record)."""
    from whoiswho_ray.stages.agg import group_apply

    cfg = cfg or SNDConfig()
    return group_apply(attached, "profile_id",
                       lambda g: _profile_scores(g, cfg),
                       batch_format="pyarrow")


#: Feature family for the learned IND scorer (one row per
#: (profile, record)): consensus + raw-similarity statistics.
IND_FEATURES = ("f_dom", "f_max", "f_all", "f_cos", "f_tok", "f_frac",
                "f_logn")


def _profile_features(group: pa.Table, cfg: SNDConfig) -> pa.Table:
    """One claimed profile → per-member feature row (the learned-scorer
    analog of ``_profile_scores``): consensus statistics (mean/max pair
    score vs the core, component-size fraction) plus raw-similarity
    statistics (mean cosine / token-Jaccard vs the core) and profile
    size. Deterministic and fully unsupervised — the core comes from the
    same within-profile clustering as the consensus path, so the learned
    model stacks ON the consensus signal instead of replacing it."""
    from whoiswho_ray.stages.cluster import cc_labels
    from whoiswho_ray.stages.pairs import _score_block

    group = _coerce_lists(group)
    n = group.num_rows
    pid = group.column("profile_id")[0].as_py() if n else ""
    rid_col = np.asarray(group.column("record_id").to_pylist(), dtype=object)
    sha_col = np.asarray(group.column("content_sha256").to_pylist(), dtype=object)
    order = np.argsort(rid_col, kind="stable")

    feats_out = {k: np.zeros(n) for k in IND_FEATURES}
    feats_out["f_logn"] = np.full(n, np.log1p(n))
    feats_out["f_frac"] = np.full(n, 1.0 / max(n, 1))
    scored = _score_block(group, cfg) if n >= 2 else None
    if scored is not None:
        rids, ii, jj, feats, _ = scored
        sorted_pos = np.empty(n, dtype=np.int64)
        sorted_pos[np.argsort(rids, kind="stable")] = np.arange(n, dtype=np.int64)
        si, sj = sorted_pos[ii], sorted_pos[jj]
        sc = feats["score"]
        keep = sc >= cfg.tau_edge
        labels = cc_labels(n, si[keep], sj[keep])
        sizes = np.bincount(labels, minlength=n)
        feats_out["f_frac"] = sizes[labels] / float(n)
        # mean pair score against ALL scored partners
        num_a = (np.bincount(si, weights=sc, minlength=n)
                 + np.bincount(sj, weights=sc, minlength=n))
        cnt_a = np.bincount(si, minlength=n) + np.bincount(sj, minlength=n)
        feats_out["f_all"] = num_a / np.maximum(cnt_a, 1)
        if sizes.max() >= 2:
            dom = int(np.argmax(sizes))
            in_dom = labels == dom
            wj, wi = in_dom[sj], in_dom[si]

            def _core_stat(vals, reduce_max=False):
                if reduce_max:
                    out = np.zeros(n)
                    np.maximum.at(out, si[wj], vals[wj])
                    np.maximum.at(out, sj[wi], vals[wi])
                    return out
                num = (np.bincount(si[wj], weights=vals[wj], minlength=n)
                       + np.bincount(sj[wi], weights=vals[wi], minlength=n))
                cnt = (np.bincount(si[wj], minlength=n)
                       + np.bincount(sj[wi], minlength=n))
                return num / np.maximum(cnt, 1)

            feats_out["f_dom"] = _core_stat(sc)
            feats_out["f_max"] = _core_stat(sc, reduce_max=True)
            feats_out["f_cos"] = _core_stat(feats["cos"])
            feats_out["f_tok"] = _core_stat(feats["j_tok"])
    # feature arrays are already indexed by SORTED position (si/sj come
    # from sorted_pos) — emit them as-is next to the sorted ids; applying
    # [order] again would scramble them (the r2 f_dom bug class)
    cols = {
        "profile_id": pa.array(np.repeat(pid, n), pa.string()),
        "record_id": pa.array(rid_col[order], pa.string()),
        "n_members": pa.array(np.full(n, n, np.int64)),
        "content_sha256": pa.array(sha_col[order], pa.string()),
    }
    for k in IND_FEATURES:
        cols[k] = pa.array(feats_out[k], pa.float64())
    return pa.table(cols)


def ind_features(attached: "rd.Dataset", cfg: SNDConfig | None = None) -> "rd.Dataset":
    """Attached records → one feature row per (profile, record)."""
    from whoiswho_ray.stages.agg import group_apply

    cfg = cfg or SNDConfig()
    return group_apply(attached, "profile_id",
                       lambda g: _profile_features(g, cfg),
                       batch_format="pyarrow")


def fit_ind_ensemble(
    features: "rd.Dataset",
    truth: "pd.DataFrame",
    cells: tuple | None = None,
    max_train_records: int = 50_000,
    seed: int = 42,
):
    """Fit the CellSpec ensemble on labeled (record_id, is_outlier) rows —
    the learned half of the MIND swap (the reference trains a LoRA-LLM +
    GCCAD scorer on labeled profiles, ``mind/``; here the same
    supervised step runs over the engine's consensus + similarity
    features through the existing ensemble registry, VERDICT r3
    missing #5). Label convention follows the KDD-Cup metric: positive =
    NORMAL record, so the fitted score ranks likely-correct high.

    The collect is bounded: rows are tiny (a handful of floats), and
    above ``max_train_records`` a deterministic smallest-hash sample of
    record ids picks the training set. Returns (EnsembleModel, diag)."""
    from whoiswho_ray.training import DEFAULT_CELLS, fit_ensemble

    def keep_labeled(df: pd.DataFrame, _ids=frozenset(truth["record_id"])) -> pd.DataFrame:
        return df[df["record_id"].isin(_ids)]

    X = features.map_batches(keep_labeled, batch_format="pandas").to_pandas()
    if len(X) > max_train_records:
        h = pd.util.hash_pandas_object(X["record_id"], index=False)
        X = X.iloc[np.argsort(h.to_numpy(), kind="stable")[:max_train_records]]
    X = X.merge(truth[["record_id", "is_outlier"]], on="record_id", how="inner")
    X["is_normal"] = ~X["is_outlier"].astype(bool)
    cells = cells or tuple(
        type(c)(name=c.name, model=c.model, weight=c.weight,
                features=tuple(IND_FEATURES), params=c.params)
        for c in DEFAULT_CELLS)
    model, diag = fit_ensemble(X, label_col="is_normal", cells=cells, seed=seed)
    diag["n_train_records"] = len(X)
    return model, diag


def run_ind_learned(
    records: "rd.Dataset | str",
    assignments: "rd.Dataset | str",
    truth_train: "pd.DataFrame",
    cfg: SNDConfig | None = None,
    cells: tuple | None = None,
    max_train_records: int = 50_000,
) -> "rd.Dataset":
    """Learned IND lifecycle (the mind/ analog): normalize → vectorize →
    attach claimed profiles → per-(profile, record) feature extraction →
    CellSpec ensemble fit on the labeled subset (driver-side, few KB) →
    broadcast scoring of every record. Output mirrors :func:`run_ind`
    (score ranks likely-correct HIGH; ``is_outlier`` = score < 0.5)."""
    from whoiswho_ray.training import apply_ensemble

    cfg = cfg or SNDConfig()
    if isinstance(records, str):
        records = rd.read_parquet(records)
    if isinstance(assignments, str):
        assignments = rd.read_parquet(assignments)
    normalized = normalize_records(records, cfg).select_columns(
        [c for c in IND_SIG_COLS if c not in ("tfv_ids", "tfv_w")]).materialize()
    idf = build_idf(normalized, cfg)
    vec = vectorize(normalized, idf, cfg, keep=IND_SIG_COLS)
    feats = ind_features(attach_profiles(vec, assignments), cfg).materialize()
    model, _ = fit_ind_ensemble(feats, truth_train, cells=cells,
                                max_train_records=max_train_records)
    scored = apply_ensemble(feats, model, out_col="score")

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "profile_id": df["profile_id"],
            "record_id": df["record_id"],
            "n_members": df["n_members"].astype(np.int64),
            "score": df["score"].astype(np.float64),
            "is_outlier": df["score"].to_numpy() < 0.5,
            "content_sha256": df["content_sha256"],
        })

    return scored.map_batches(project, batch_format="pandas")


def run_ind(
    records: "rd.Dataset | str",
    assignments: "rd.Dataset | str",
    cfg: SNDConfig | None = None,
) -> "rd.Dataset":
    """records + claimed (record_id → profile_id) → outlier flags/scores.

    The full IND lifecycle: normalize → idf → vectorize (full encoding —
    the in-profile kernel reads the same columns as SND blocking) →
    attach claimed profiles → cluster-consensus scoring."""
    cfg = cfg or SNDConfig()
    if isinstance(records, str):
        records = rd.read_parquet(records)
    if isinstance(assignments, str):
        assignments = rd.read_parquet(assignments)
    normalized = normalize_records(records, cfg).select_columns(
        [c for c in IND_SIG_COLS if c not in ("tfv_ids", "tfv_w")]).materialize()
    idf = build_idf(normalized, cfg)
    vec = vectorize(normalized, idf, cfg, keep=IND_SIG_COLS)
    return ind_scores(attach_profiles(vec, assignments), cfg)
