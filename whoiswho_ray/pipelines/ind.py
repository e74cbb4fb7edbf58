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

The front end is SND's (``snd.prepare``: normalize → idf → vectorize in
the compact shuffle encoding). ``joins.attach_claims``, the record ⋈
claim co-group RND's profiles use too, joins the vectorized records with
the claims on record_id and makes each claimed ``profile_id`` the
record's ``block_key``; the one SND blocking pass
(``snd._blocked``) then runs :func:`profile_kernel` once per sorted
partition. One ``pairs._score_partition`` call scores every profile of a
partition, with the block-bounded matrix/flat regimes and the hot-block
salting of SND blocking, so a profile is scored exactly as an SND block
of the same records would be — no per-profile call, no per-record Python.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from whoiswho_ray.config import SNDConfig


#: Feature family for the learned IND scorer (one row per
#: (profile, record)): consensus + raw-similarity statistics.
IND_FEATURES = ("f_dom", "f_max", "f_all", "f_cos", "f_tok", "f_frac",
                "f_logn")


def profile_kernel(part: pa.Table, cfg: SNDConfig, idf_w=None) -> pa.Table:
    """One key-sorted partition of attached records (``block_key`` = the
    claimed profile) → one row per (profile, record) in record_id order
    within each profile: ``n_members``, the consensus ``score`` and
    ``is_outlier``, and the :data:`IND_FEATURES`.

    Strong edges (score ≥ tau_edge) between record_id-sorted positions
    go through one ``cc_labels`` call; no edge spans two profiles, so its
    components are every profile's. A profile's core is its largest
    component (ties: the smallest root, i.e. the smallest record_id);
    a profile with no component of two or more records has no core and
    carries no evidence. Against the core, each record gets the mean
    (``f_dom``, which is also the consensus ``score``) and maximum
    (``f_max``) pair score and the mean cosine (``f_cos``) and token
    Jaccard (``f_tok``), over the pairs the kernel scored (all pairs in
    the matrix regime, the candidate subset in a salted profile; no such
    pair scores 0). ``f_all`` is its mean score over all its scored
    pairs, ``f_frac`` its component's share of the profile and ``f_logn``
    log1p of the profile size. The core comes from the same clustering
    as the consensus flags, so the learned model stacks on the consensus
    signal instead of replacing it. ``idf_w``: as for ``pairs._decode``."""
    from whoiswho_ray.stages.cluster import cc_labels
    from whoiswho_ray.stages.pairs import _record_order, _score_partition, _sorted_pos

    sc = _score_partition(part, cfg, idf_w)
    n, sizes = sc.rows.n, np.diff(sc.starts)
    order, shas = _record_order(part, sc.starts)
    pos = _sorted_pos(order)
    si, sj, s = pos[sc.ii], pos[sc.jj], sc.feats["score"]
    strong = s >= cfg.tau_edge
    labels = cc_labels(n, si[strong], sj[strong])
    comp = np.bincount(labels, minlength=n)  # component size at each root
    blk = np.repeat(np.arange(sizes.size), sizes)
    first = sc.starts[:-1]
    big = np.maximum.reduceat(comp, first)
    dom = np.minimum.reduceat(np.where(comp == big[blk], np.arange(n), n), first)
    has_core = (big >= 2)[blk]
    core = has_core & (labels == dom[blk])
    wi, wj = core[si], core[sj]

    def mean(idx_a, idx_b, va, vb):
        num = (np.bincount(idx_a, weights=va, minlength=n)
               + np.bincount(idx_b, weights=vb, minlength=n))
        cnt = np.bincount(idx_a, minlength=n) + np.bincount(idx_b, minlength=n)
        return num / np.maximum(cnt, 1)

    def core_mean(vals):
        return mean(si[wj], sj[wi], vals[wj], vals[wi])

    f_max = np.zeros(n)
    np.maximum.at(f_max, si[wj], s[wj])
    np.maximum.at(f_max, sj[wi], s[wi])
    f_dom = core_mean(s)
    feats = {"f_dom": f_dom, "f_max": f_max, "f_all": mean(si, sj, s, s),
             "f_cos": core_mean(sc.feats["cos"]), "f_tok": core_mean(sc.feats["j_tok"]),
             "f_frac": comp[labels] / sizes[blk], "f_logn": np.log1p(sizes[blk])}
    return pa.table({
        "profile_id": sc.block_key,
        "record_id": pa.array(sc.rows.rids[order], pa.string()),
        "n_members": pa.array(sizes[blk], pa.int64()),
        "score": pa.array(f_dom, pa.float64()),
        "is_outlier": pa.array(has_core & ~core, pa.bool_()),
        "content_sha256": shas,
        **{k: pa.array(feats[k], pa.float64()) for k in IND_FEATURES},
    })


def score_profiles(
    records: "rd.Dataset | str",
    assignments: "rd.Dataset | str",
    cfg: SNDConfig | None = None,
) -> "rd.Dataset":
    """records + claimed (record_id → profile_id) → one
    :func:`profile_kernel` row per (profile, record): the SND front end
    (``snd.prepare``), the claims attached (``joins.attach_claims``) and
    the one blocking pass, returned executed (``snd._blocked``)."""
    from whoiswho_ray.pipelines.snd import _blocked, prepare
    from whoiswho_ray.stages.joins import attach_claims

    cfg = cfg or SNDConfig()
    if isinstance(assignments, str):
        assignments = rd.read_parquet(assignments)
    _, idf, vec = prepare(records, cfg)
    # materialized: the co-group reads its schema, which would otherwise
    # run the vectorize map once more
    return _blocked(attach_claims(vec.materialize(), assignments, "profile_id"),
                    lambda g, w: profile_kernel(g, cfg, idf_w=w), idf)


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

    X = features.select_columns(["record_id", *IND_FEATURES]).map_batches(
        keep_labeled, batch_format="pandas").to_pandas()
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
    """Learned IND lifecycle (the mind/ analog): :func:`score_profiles`
    → CellSpec ensemble fit on the labeled subset of its feature rows
    (in the calling process, few KB) → broadcast scoring of every
    record. Output mirrors :func:`run_ind` (score ranks likely-correct
    HIGH; ``is_outlier`` = score < 0.5)."""
    from whoiswho_ray.training import apply_ensemble

    feats = score_profiles(records, assignments, cfg)
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
    """records + claimed (record_id → profile_id) → outlier flags/scores:
    the consensus columns of :func:`score_profiles`."""
    return score_profiles(records, assignments, cfg).select_columns(
        ["profile_id", "record_id", "n_members", "score", "is_outlier", "content_sha256"])
