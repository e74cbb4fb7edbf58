"""Relational (graph-view) pair features — operator A6 of SURVEY.md §2.

The reference blends a second, *structure-only* similarity view into the
pairwise distance before clustering: a repeat-averaged random-walk
distance over the co-author graph
(``/root/reference/whoiswho/featureGenerator/sndFeature/
relational_features.py:144-173``), so that a pair's score reflects not
just direct content overlap but whether the two records sit in the same
neighborhood of the relation graph. Round 1 dropped this as "subsumed by
TF-IDF"; it is not — the two views fail independently, and the blend is
what lets the pipeline veto a *spurious direct edge* (two different
entities that happen to share surface content) whose endpoints have no
common graph neighborhood.

Deterministic Ray-native analog (no sampled walks — seeded repetition
averages are replaced by exact neighborhood statistics, the same
determinism swap the north star sanctions for w2v→TF-IDF):

* Build the **strong-edge graph** inside each block from the direct
  scores (edges with ``score >= tau_edge`` — exactly the edges union-find
  would merge).
* For every candidate pair, compute common-neighbor count and
  neighbor-set Jaccard (partner-excluded), plus Adamic–Adar
  (``Σ_c 1/log deg(c)``, Adamic & Adar 2003 — see PAPERS.md) via the same
  one-lexsort set-intersection kernel the content features use.
* Blend: ``score += w_rel * (nb_jaccard - 0.5)`` when the pair has any
  neighborhood evidence (union > 0); pairs with no structural context
  (isolated 2-cliques) stay neutral. Centered so structural support above
  ½ boosts and below ½ vetoes — the reference's alpha·sem + beta·rel
  blend re-expressed as an additive correction.

Everything is block-local: no extra shuffle, no driver state. The blend
runs inside the fused block kernels (``pairs._score_block``), the only
place that sees a block's whole candidate-pair set.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from whoiswho_ray.config import SNDConfig


def strong_adjacency(
    n: int, ii: np.ndarray, jj: np.ndarray, strong: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strong edges → CSR neighbor lists (values, offsets) + degrees.

    ``ii``/``jj`` are block-local node indices of candidate pairs,
    ``strong`` the boolean mask of pairs whose direct score clears
    ``tau_edge``. Neighbors are the symmetrized adjacency; no self loops.
    """
    si, sj = ii[strong], jj[strong]
    u = np.concatenate([si, sj])
    v = np.concatenate([sj, si])
    deg = np.bincount(u, minlength=n).astype(np.int64)
    order = np.lexsort((v, u))
    nbr = v[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=offsets[1:])
    return nbr, offsets, deg


def neighbor_overlap(
    n_pairs: int,
    ii: np.ndarray,
    jj: np.ndarray,
    nbr: np.ndarray,
    offsets: np.ndarray,
    deg: np.ndarray,
    aa_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-pair common-neighbor counts (and Adamic–Adar sums) for all
    candidate pairs at once — one gather + one lexsort pass, no Python
    loop over pairs. ``aa_weights[c]`` must be ``1/sqrt(log deg(c))`` so
    the intersection kernel's product of the two sides' weights yields
    ``1/log deg(c)`` per shared neighbor."""
    from whoiswho_ray.stages.scoring import _intersections

    lens = deg  # alias: CSR row lengths
    def gather(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        l = lens[idx]
        out_off = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(l, out=out_off[1:])
        flat = np.repeat(offsets[:-1][idx], l) + (
            np.arange(int(out_off[-1])) - np.repeat(out_off[:-1], l))
        return nbr[flat], l

    va, la = gather(ii)
    vb, lb = gather(jj)
    if aa_weights is None:
        cn, _ = _intersections(n_pairs, va, la, vb, lb)
        return cn, None
    cn, aa = _intersections(n_pairs, va, la, vb, lb,
                            aa_weights[va], aa_weights[vb])
    return cn, aa


def relational_adjust(
    n: int,
    ii: np.ndarray,
    jj: np.ndarray,
    feats: dict[str, np.ndarray],
    cfg: SNDConfig,
) -> dict[str, np.ndarray]:
    """Blend the graph view into the direct scores (in place, returns
    feats). Adds ``cn`` (common neighbors, int), ``rel`` (partner-excluded
    neighbor Jaccard; 0.5 = no evidence) and ``aa`` (Adamic–Adar), and
    rewrites ``score``."""
    score = feats["score"]
    strong = score >= cfg.tau_edge
    nbr, offsets, deg = strong_adjacency(n, ii, jj, strong)
    with np.errstate(divide="ignore"):
        aa_w = 1.0 / np.sqrt(np.log(np.maximum(deg, 2)))
    cn, aa = neighbor_overlap(ii.size, ii, jj, nbr, offsets, deg, aa_w)
    # partner-excluded union: |N(i)\{j}| + |N(j)\{i}| - cn
    self_strong = strong.astype(np.int64)
    union = deg[ii] - self_strong + deg[jj] - self_strong - cn
    rel = np.where(union > 0, cn / np.maximum(union, 1), 0.5)
    feats["cn"] = cn.astype(np.float64)
    feats["rel"] = rel
    feats["aa"] = aa if aa is not None else np.zeros(ii.size)
    feats["score"] = score + cfg.w_rel * (rel - 0.5)
    return feats


def make_relational_rows(group: pa.Table, cfg: SNDConfig, idf_w=None) -> pa.Table:
    """One vectorized block group → per-candidate-pair INTEGER graph
    features (canonical id orientation): common-neighbor count, strong
    degrees, and whether the pair itself is a strong edge. The
    exact-oracle surface for the graph view (all counts int64).
    ``idf_w``: as for ``pairs._score_block``.

    The strong-edge graph is always built from the DIRECT (content-view)
    scores — ``w_rel`` is forced to 0 for the internal scoring pass so the
    reported graph is the input to the blend, not its output."""
    import dataclasses

    from whoiswho_ray.stages.pairs import _score_block

    cfg = dataclasses.replace(cfg, w_rel=0.0)
    scored = _score_block(group, cfg, idf_w=idf_w)
    if scored is None:
        return pa.table({
            "block_key": pa.array([], pa.string()),
            "id_a": pa.array([], pa.string()),
            "id_b": pa.array([], pa.string()),
            "cn": pa.array([], pa.int64()),
            "deg_a": pa.array([], pa.int64()),
            "deg_b": pa.array([], pa.int64()),
            "s": pa.array([], pa.int64()),
        })
    rids, ii, jj, feats, _ = scored
    n = group.num_rows
    strong = feats["score"] >= cfg.tau_edge
    nbr, offsets, deg = strong_adjacency(n, ii, jj, strong)
    cn, _ = neighbor_overlap(ii.size, ii, jj, nbr, offsets, deg)
    ida = rids[ii]
    idb = rids[jj]
    swap = ida > idb
    dega = deg[ii]
    degb = deg[jj]
    return pa.table({
        "block_key": pa.array(
            np.repeat(group.column("block_key")[0].as_py(), ii.size), pa.string()),
        "id_a": pa.array(np.where(swap, idb, ida), pa.string()),
        "id_b": pa.array(np.where(swap, ida, idb), pa.string()),
        "cn": pa.array(cn.astype(np.int64)),
        "deg_a": pa.array(np.where(swap, degb, dega).astype(np.int64)),
        "deg_b": pa.array(np.where(swap, dega, degb).astype(np.int64)),
        "s": pa.array(strong.astype(np.int64)),
    })

