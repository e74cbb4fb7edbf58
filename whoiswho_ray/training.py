"""Learned pairwise scorer — the T6 / trainer-surface analog.

The reference trains GBDT cells over pairwise features and thresholds the
ensemble score (``/root/reference/whoiswho/loadmodel/
ClassficationModels.py:151-331``, ``AutoTrainRND.py:52-71``); its SND
trainer exposes hand weights instead (``AutoTrainSND.py:50-52``). This
module closes the loop between the two: a deterministic numpy logistic
regression is fitted on labeled pairs over the engine's five pair features
(token Jaccard, repo/context tanimoto, TF-IDF cosine, Jaro-Winkler), and —
because the engine's blended score is *linear* in those features — the
learned coefficients drop straight back into ``SNDConfig`` as weights with
probability-calibrated thresholds. Training happens on the driver (labeled
pairs are small); scoring stays in the distributed kernel unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd

import ray.data as rd

from whoiswho_ray.config import SNDConfig

FEATURES = ["j_tok", "t_repo", "t_ctx", "cos", "jw"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


def _auc(p: np.ndarray, y: np.ndarray) -> float:
    order = np.argsort(p, kind="stable")
    ranks = np.empty_like(order, dtype=np.float64)
    ranks[order] = np.arange(1, p.size + 1)
    n_pos = int(y.sum())
    n_neg = int((~y).sum())
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2) / max(n_pos * n_neg, 1))


def pair_features(
    records: "rd.Dataset",
    labeled_pairs: pd.DataFrame,
    cfg: SNDConfig | None = None,
) -> pd.DataFrame:
    """Feature rows for the labeled pairs: the SND front end and blocking
    pass (``pipelines.snd.prepare`` → ``_blocked``) with a kernel that
    keeps EVERY candidate pair's ``_score_block`` features (no
    thresholds), inner-joined with the labels — so the trainer sees
    exactly the candidates and features inference scores. Pairs the
    blocker never generates keep their label with zero features (they
    would never be scored at inference either — the trainer must see
    that regime)."""
    from whoiswho_ray.pipelines.snd import _blocked, prepare
    from whoiswho_ray.stages.pairs import (_block_records, _edge_table, _score_block,
                                           block_stage_schemas)

    cfg = cfg or SNDConfig()
    empty = block_stage_schemas(cfg)["edges"].empty_table()

    def every_pair(g, w):
        scored = _score_block(g, cfg, idf_w=w)
        if scored is None:
            return empty
        _, ii, jj, feats, _ = scored
        return _edge_table(_block_records(g), ii, jj, feats)

    _, idf, vec = prepare(records, cfg)
    scored = _blocked(vec, every_pair, idf).to_pandas()
    # canonical orientation for the join
    a = np.minimum(scored["id_a"], scored["id_b"])
    b = np.maximum(scored["id_a"], scored["id_b"])
    scored = scored.assign(record_id_a=a, record_id_b=b)
    out = labeled_pairs.merge(
        scored[["record_id_a", "record_id_b", *FEATURES]],
        on=["record_id_a", "record_id_b"], how="left",
    )
    out[FEATURES] = out[FEATURES].fillna(0.0)
    return out


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 1e-3,
    lr: float = 0.5,
    iters: int = 500,
    seed: int = 42,
) -> tuple[np.ndarray, float]:
    """Deterministic full-batch gradient-descent logistic regression.
    Returns (weights, bias)."""
    rng = np.random.RandomState(seed)
    n, d = X.shape
    w = rng.randn(d) * 0.01
    b = 0.0
    yf = y.astype(np.float64)
    for _ in range(iters):
        z = X @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
        g = p - yf
        gw = X.T @ g / n + l2 * w
        gb = float(g.mean())
        w -= lr * gw
        b -= lr * gb
    return w, b


def config_from_model(
    w: np.ndarray,
    b: float,
    base: SNDConfig | None = None,
    p_edge: float = 0.9,
    p_attach: float = 0.7,
) -> SNDConfig:
    """Learned coefficients → SNDConfig: the engine's blended score is
    w·features, so a probability threshold p maps to the linear threshold
    logit(p) − b. Weights are used as-is (sign and scale carry the model)."""
    base = base or SNDConfig()

    def logit(p: float) -> float:
        return float(np.log(p / (1 - p)))

    return replace(
        base,
        w_tokens=float(w[0]), w_repo=float(w[1]), w_ctx=float(w[2]),
        w_tfidf=float(w[3]), w_name=float(w[4]),
        tau_edge=logit(p_edge) - b,
        tau_attach=logit(p_attach) - b,
    )


def fit_snd_config(
    records: "rd.Dataset",
    labeled_pairs: pd.DataFrame,
    base: SNDConfig | None = None,
    p_edge: float = 0.9,
    p_attach: float = 0.7,
) -> tuple[SNDConfig, dict]:
    """End-to-end trainer (the ``SNDTrainer.fit`` analog): labeled pairs →
    fitted weights/thresholds + training diagnostics (AUC, accuracy)."""
    base = base or SNDConfig()
    feats = pair_features(records, labeled_pairs, base)
    X = feats[FEATURES].to_numpy(dtype=np.float64)
    y = feats["same_entity"].to_numpy(dtype=bool)
    w, b = fit_logistic(X, y, seed=base.seed)
    z = X @ w + b
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
    order = np.argsort(p, kind="stable")
    ranks = np.empty_like(order, dtype=np.float64)
    ranks[order] = np.arange(1, p.size + 1)
    n_pos = int(y.sum())
    n_neg = int((~y).sum())
    auc = (ranks[y].sum() - n_pos * (n_pos + 1) / 2) / max(n_pos * n_neg, 1)
    diag = {
        "auc": float(auc),
        "accuracy": float(((p >= 0.5) == y).mean()),
        "n_pairs": int(len(y)),
        "n_pos": n_pos,
        "weights": w.tolist(),
        "bias": float(b),
    }
    return config_from_model(w, b, base, p_edge, p_attach), diag


# ---------------------------------------------------------------------------
# Ensemble surface — the cell-registry analog of the reference's GBDT stack
# (``ClassficationModels.py:335-650`` declarative ``cell_list_config`` of
# weighted model cells, ``AutoTrainRND.py:35-48`` weighted score vote,
# k-fold out-of-fold evaluation per cell). No GBDT library is shipped in
# this environment, so the boosted cell is a from-scratch numpy gradient-
# boosted depth-1 tree (histogram splits) — the same model family.
# ---------------------------------------------------------------------------


def fit_gbdt_stumps(
    X: np.ndarray,
    y: np.ndarray,
    n_rounds: int = 100,
    lr: float = 0.3,
    n_bins: int = 32,
    l2: float = 1.0,
) -> dict:
    """Deterministic numpy gradient boosting with depth-1 trees.

    Newton boosting on the logistic loss: per round, for every feature the
    candidate-split gains over quantile bins are computed with one cumsum
    (gradient/hessian histograms); the best (feature, threshold) stump is
    added with leaf values G/(H+l2). Returns a model dict for
    :func:`predict_gbdt`."""
    n, d = X.shape
    yf = y.astype(np.float64)
    base = float(np.log(max(yf.mean(), 1e-9) / max(1 - yf.mean(), 1e-9)))
    F = np.full(n, base)
    # quantile bin edges per feature (shared across rounds)
    edges = []
    codes = np.empty((d, n), dtype=np.int64)
    for j in range(d):
        qs = np.quantile(X[:, j], np.linspace(0, 1, n_bins + 1)[1:-1])
        e = np.unique(qs)
        edges.append(e)
        codes[j] = np.searchsorted(e, X[:, j], side="right")
    stumps = []
    for _ in range(n_rounds):
        p = _sigmoid(F)
        g = yf - p
        h = np.maximum(p * (1 - p), 1e-9)
        best = None  # (gain, j, bin, wl, wr)
        G, H = g.sum(), h.sum()
        parent = G * G / (H + l2)
        for j in range(d):
            nb = edges[j].size + 1
            if nb < 2:
                continue
            Gb = np.bincount(codes[j], weights=g, minlength=nb)
            Hb = np.bincount(codes[j], weights=h, minlength=nb)
            Gl = np.cumsum(Gb)[:-1]
            Hl = np.cumsum(Hb)[:-1]
            Gr, Hr = G - Gl, H - Hl
            gain = Gl * Gl / (Hl + l2) + Gr * Gr / (Hr + l2) - parent
            bi = int(np.argmax(gain))
            if best is None or gain[bi] > best[0]:
                best = (float(gain[bi]), j, bi,
                        float(Gl[bi] / (Hl[bi] + l2)), float(Gr[bi] / (Hr[bi] + l2)))
        if best is None or best[0] <= 1e-12:
            break
        _, j, bi, wl, wr = best
        left = codes[j] <= bi
        F = F + lr * np.where(left, wl, wr)
        stumps.append((j, bi, wl, wr))
    return {"base": base, "lr": lr, "edges": edges, "stumps": stumps}


def predict_gbdt(model: dict, X: np.ndarray) -> np.ndarray:
    F = np.full(X.shape[0], model["base"])
    for j, bi, wl, wr in model["stumps"]:
        code = np.searchsorted(model["edges"][j], X[:, j], side="right")
        F += model["lr"] * np.where(code <= bi, wl, wr)
    return _sigmoid(F)


@dataclass(frozen=True)
class CellSpec:
    """One declarative ensemble cell (``cell_list_config`` row analog):
    model family, vote weight, feature subset, hyperparameters."""

    name: str
    model: str                      # "logistic" | "gbdt"
    weight: float = 1.0
    features: tuple = tuple(FEATURES)
    params: dict = field(default_factory=dict)


DEFAULT_CELLS = (
    CellSpec("lr_all", "logistic", weight=1.0),
    CellSpec("gbdt_all", "gbdt", weight=1.0),
    CellSpec("gbdt_shallow", "gbdt", weight=0.5, params={"n_rounds": 40, "lr": 0.2}),
)


@dataclass
class EnsembleModel:
    """Fitted weighted-vote ensemble: score = Σ wᵢ·pᵢ / Σ wᵢ
    (``AutoTrainRND.py:35-48`` weighted cell vote)."""

    cells: list  # (CellSpec, fitted) where fitted is (w, b) or a gbdt dict

    def predict_proba(self, feats: pd.DataFrame) -> np.ndarray:
        num = np.zeros(len(feats))
        den = 0.0
        for spec, fitted in self.cells:
            X = feats[list(spec.features)].to_numpy(dtype=np.float64)
            if spec.model == "logistic":
                w, b = fitted
                p = _sigmoid(X @ w + b)
            else:
                p = predict_gbdt(fitted, X)
            num += spec.weight * p
            den += spec.weight
        return num / max(den, 1e-12)


def _fit_cell(spec: CellSpec, X: np.ndarray, y: np.ndarray, seed: int):
    if spec.model == "logistic":
        return fit_logistic(X, y, seed=seed, **spec.params)
    if spec.model == "gbdt":
        return fit_gbdt_stumps(X, y, **spec.params)
    raise ValueError(f"unknown cell model {spec.model!r}")


def fit_ensemble(
    feats: pd.DataFrame,
    label_col: str = "same_entity",
    cells: tuple = DEFAULT_CELLS,
    k: int = 5,
    seed: int = 42,
) -> tuple[EnsembleModel, dict]:
    """Fit the cell registry with k-fold out-of-fold evaluation
    (``ClassficationModels.py:151-331`` CellModel.fit semantics): every
    cell gets an OOF AUC, the ensemble's OOF weighted vote is scored, and
    final cells are refit on all rows. Returns (model, diagnostics)."""
    y = feats[label_col].to_numpy(dtype=bool)
    n = len(y)
    rng = np.random.RandomState(seed)
    fold = rng.permutation(n) % max(k, 2)
    diag_cells = {}
    oof_vote = np.zeros(n)
    wsum = 0.0
    for spec in cells:
        X = feats[list(spec.features)].to_numpy(dtype=np.float64)
        oof = np.zeros(n)
        for f in range(max(k, 2)):
            tr, te = fold != f, fold == f
            if te.sum() == 0 or len(np.unique(y[tr])) < 2:
                continue
            fitted = _fit_cell(spec, X[tr], y[tr], seed)
            oof[te] = (_sigmoid(X[te] @ fitted[0] + fitted[1])
                       if spec.model == "logistic" else predict_gbdt(fitted, X[te]))
        diag_cells[spec.name] = {"oof_auc": _auc(oof, y), "weight": spec.weight}
        oof_vote += spec.weight * oof
        wsum += spec.weight
    oof_vote /= max(wsum, 1e-12)
    fitted_cells = []
    for spec in cells:
        X = feats[list(spec.features)].to_numpy(dtype=np.float64)
        fitted_cells.append((spec, _fit_cell(spec, X, y, seed)))
    model = EnsembleModel(fitted_cells)
    diag = {
        "cells": diag_cells,
        "ensemble_oof_auc": _auc(oof_vote, y),
        "n_pairs": n,
        "n_pos": int(y.sum()),
    }
    return model, diag


def apply_ensemble(
    edges: "rd.Dataset",
    model: EnsembleModel,
    out_col: str = "prob",
    concurrency: int = 4,
) -> "rd.Dataset":
    """Distributed scoring: the fitted ensemble is broadcast once
    (``ray.put``) and applied per batch in an actor pool — the
    ``map_batches(PredictActor)`` shape of SURVEY.md §2.3 T6."""
    import ray

    model_ref = ray.put(model)

    class Predict:
        def __init__(self):
            self.model: EnsembleModel = ray.get(model_ref)

        def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
            df = df.copy()
            df[out_col] = self.model.predict_proba(df)
            return df

    return edges.map_batches(Predict, batch_format="pandas", batch_size=16384,
                             concurrency=(1, concurrency))
