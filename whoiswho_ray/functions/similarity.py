"""Pairwise similarity kernels.

The reference's pairwise feature set for SND
(``/root/reference/whoiswho/training/AutoTrainSND.py:24-32,142-161``):
tanimoto (≡ Jaccard on token sets), co-occurrence intersection counts,
semantic cosine, plus Jaro-Winkler from the hand-feature block
(``whoiswho/character/feature_process.py:368``). Re-implemented here from
the published formulas over sorted int64 token-id arrays (set ops become
``np.intersect1d`` on presorted arrays — no Python sets in the hot path).
"""

from __future__ import annotations

import numpy as np


def jaccard_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """|A∩B| / |A∪B| over sorted unique int arrays. 0.0 when both empty.

    This is the reference's ``tanimoto`` (``AutoTrainSND.py:24-32``)."""
    na, nb = a.size, b.size
    if na == 0 or nb == 0:
        return 0.0
    inter = intersect_size_sorted(a, b)
    return inter / float(na + nb - inter)


def intersect_size_sorted(a: np.ndarray, b: np.ndarray) -> int:
    """|A∩B| for sorted unique arrays via merge (searchsorted)."""
    if a.size == 0 or b.size == 0:
        return 0
    if a.size > b.size:
        a, b = b, a
    idx = np.searchsorted(b, a)
    idx[idx == b.size] = b.size - 1
    return int(np.count_nonzero(b[idx] == a))


def cosine_sparse(ids_a: np.ndarray, w_a: np.ndarray, ids_b: np.ndarray, w_b: np.ndarray) -> float:
    """Cosine of two L2-normalized sparse vectors given as (sorted ids, weights).

    The TF-IDF-cosine replacement for the reference's w2v-mean cosine
    (``semantic_features.py:142-156``); BASELINE.json's north_star names
    TF-IDF cosine explicitly. Assumes w_a, w_b are already unit-normalized.
    """
    if ids_a.size == 0 or ids_b.size == 0:
        return 0.0
    _, ia, ib = np.intersect1d(ids_a, ids_b, assume_unique=True, return_indices=True)
    if ia.size == 0:
        return 0.0
    return float(np.dot(w_a[ia], w_b[ib]))


# ---------------------------------------------------------------------------
# Jaro-Winkler — standard published definition (Winkler 1990), matching the
# semantics the reference gets from the `pyjarowinkler` package
# (``feature_process.py:368``): scaling 0.1, prefix ≤ 4, boost threshold 0.7.
# ---------------------------------------------------------------------------


def jaro(s1: str, s2: str) -> float:
    len1, len2 = len(s1), len(s2)
    if len1 == 0 or len2 == 0:
        return 0.0
    if s1 == s2:
        return 1.0
    match_dist = max(len1, len2) // 2 - 1
    if match_dist < 0:
        match_dist = 0
    m1 = [False] * len1
    m2 = [False] * len2
    matches = 0
    for i, c in enumerate(s1):
        lo = max(0, i - match_dist)
        hi = min(len2, i + match_dist + 1)
        for j in range(lo, hi):
            if not m2[j] and s2[j] == c:
                m1[i] = m2[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len1):
        if m1[i]:
            while not m2[j]:
                j += 1
            if s1[i] != s2[j]:
                transpositions += 1
            j += 1
    # floor, matching DuckDB/rapidfuzz: an odd number of out-of-order
    # matches counts as (k-1)/2 transpositions
    t = transpositions // 2
    return (matches / len1 + matches / len2 + (matches - t) / matches) / 3.0


def jaro_winkler(s1: str, s2: str, prefix_weight: float = 0.1, boost_threshold: float = 0.7) -> float:
    jv = jaro(s1, s2)
    if jv <= boost_threshold:
        return jv
    prefix = 0
    for c1, c2 in zip(s1[:4], s2[:4]):
        if c1 != c2:
            break
        prefix += 1
    return jv + prefix * prefix_weight * (1.0 - jv)


# ---------------------------------------------------------------------------
# KNRM kernel pooling (operator T5)
# ---------------------------------------------------------------------------


def knrm_mus_sigmas(n_kernels: int = 21, sigma: float = 0.1,
                    exact_sigma: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """The reference's kernel layout (``featureGenerator/rndFeature/
    model.py:103-135``): n_kernels-1 Gaussian kernels with means evenly
    spaced over [-1, 1) plus one exact-match kernel at mu=1 with a tiny
    sigma."""
    if n_kernels < 2:
        return np.array([1.0]), np.array([exact_sigma])
    step = 2.0 / (n_kernels - 1)
    mus = np.concatenate([-1.0 + step / 2 + step * np.arange(n_kernels - 1), [1.0]])
    sigmas = np.concatenate([np.full(n_kernels - 1, sigma), [exact_sigma]])
    return mus, sigmas


def knrm_features(sims: np.ndarray, n_kernels: int = 21, sigma: float = 0.1,
                  exact_sigma: float = 1e-3) -> np.ndarray:
    """Kernel-pooled soft-match histogram of a similarity matrix
    (Xiong et al., "End-to-End Neural Ad-hoc Ranking with Kernel Pooling",
    SIGIR 2017 — the reference's KNRM feature without the learned dense
    layer): phi_k = sum_i log( max(sum_j exp(-(s_ij-mu_k)^2 / 2 sigma_k^2),
    1e-10) ). ``sims``: (n_query_items, n_doc_items) cosine matrix →
    float64[n_kernels]. Empty matrices give all-log(1e-10) * 0 rows = 0."""
    mus, sigmas = knrm_mus_sigmas(n_kernels, sigma, exact_sigma)
    if sims.size == 0:
        return np.zeros(mus.size)
    d = sims[:, :, None] - mus[None, None, :]
    pooled = np.exp(-(d * d) / (2.0 * sigmas[None, None, :] ** 2)).sum(axis=1)
    return np.log(np.maximum(pooled, 1e-10)).sum(axis=0)


def knrm_profile_features(
    rec_ids: np.ndarray, rec_w: np.ndarray,
    member_ids: "list[np.ndarray]", member_w: "list[np.ndarray]",
    n_kernels: int = 21, sigma: float = 0.1,
) -> np.ndarray:
    """KNRM features of one record against a profile's MEMBER vectors —
    the multi-resolution replacement for plain centroid cosine (the
    reference pools paper-vs-each-profile-paper similarities,
    ``model.py:202-241``). Sparse cosines via the shared sorted-ids dot."""
    sims = np.array([[cosine_sparse(rec_ids, rec_w, mi, mw)
                      for mi, mw in zip(member_ids, member_w)]])
    return knrm_features(sims, n_kernels=n_kernels, sigma=sigma)
