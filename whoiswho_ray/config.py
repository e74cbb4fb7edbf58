"""Pipeline configuration.

The knobs mirror the reference's tunable surface
(``SNDTrainer(w_author=1.5, w_org=1.0, w_venue=1.0, w_title=0.33,
text_weight=1.0, db_eps=0.2, db_min=4)``,
``/root/reference/whoiswho/training/AutoTrainSND.py:50-52``, and the
post-match attach threshold 1.5 at ``AutoTrainSND.py:193,204``), transposed
to the source-code-repository domain:

===========================  ==============================================
reference field              our field
===========================  ==============================================
coauthor set (w=1.5)         content identifier-token Jaccard (w_tokens)
org tokens (w=1.0)           repo-name tokens tanimoto (w_repo)
venue tokens (w=1.0)         lang + path-dir tokens tanimoto (w_ctx)
title words (w=0.33)         content TF-IDF cosine (w_tfidf)
name-form Jaro-Winkler       path-basename Jaro-Winkler (w_name)
===========================  ==============================================
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class SNDConfig:
    # --- pairwise score weights (AutoTrainSND.py:50-52 analog) ---
    # The reference's ratios (author 1.5 / org 1.0 / venue 1.0 / title 0.33)
    # are a tunable surface, not a constant of nature: in the source-code
    # domain the weakly-discriminative fields (repo, path context, basename)
    # must not outweigh the identifying ones (identifier overlap, content
    # TF-IDF), so the defaults shift weight onto tokens/tfidf. Measured on
    # the fixture corpus this yields a same/different score gap of
    # [~1.1, ~2.1] with tau_edge=1.5 centered in it.
    w_tokens: float = 3.0
    w_repo: float = 0.5
    w_ctx: float = 0.5
    w_tfidf: float = 2.0
    w_name: float = 0.1
    # relational (graph-view) blend weight — operator A6: the reference's
    # second, structure-only similarity view (relational_features.py:144-173)
    # re-expressed as a deterministic common-neighbor correction
    # (stages/relational.py). 0 = off (content views only); > 0 adds
    # w_rel * (neighbor_jaccard - 0.5) to every candidate pair's score
    # inside the block kernels, boosting structurally-supported pairs and
    # vetoing spurious direct edges with no shared neighborhood.
    w_rel: float = 0.0

    # --- clustering thresholds ---
    # primary edge threshold (two records linked when score >= tau_edge);
    # plays the role of DBSCAN eps=0.2 on the blended distance
    # (ClusterModels.py:5-22) inverted into a similarity threshold; the
    # value 1.5 mirrors the reference's post-match score threshold
    # (AutoTrainSND.py:193,204).
    tau_edge: float = 1.5
    # post-match attach threshold for outliers/singletons
    # (AutoTrainSND.py:193,204 uses 1.5 on the char-feature score).
    tau_attach: float = 1.3

    # --- blocking / skew handling ---
    # all-pairs generation only for blocks up to this many records;
    # bigger ("hot") blocks are salted into LSH sub-blocks. The reference's
    # own caps (<=256 profile papers, adhoc_features.py:105) are precedent
    # for bounded-pair scoring.
    max_allpairs_block: int = 384
    # minhash banding for hot-block salting: n_hashes = lsh_bands * lsh_rows
    lsh_bands: int = 8
    lsh_rows: int = 2
    # blocks up to this many records are scored through per-block n×n
    # intersection matrices (reference-style, block-bounded); bigger blocks
    # fall back to flat per-pair kernels. n² doubles must fit a task heap:
    # 4096² × 8 B ≈ 134 MB per feature matrix.
    matrix_block_cap: int = 4096
    # hard cap on pairs emitted per (block, salt) group; an oversized
    # bucket degrades to sorted-neighborhood window pairs under this
    # budget (recall recovered transitively); truncation is logged in
    # block metrics, never silent.
    max_pairs_per_group: int = 32_000

    # --- tokenization / vocabulary ---
    max_tokens_per_record: int = 256
    min_df: int = 2
    max_vocab: int = 1_000_000

    # --- execution ---
    # read by no library code; kept because bench.py and perfbench set it
    score_concurrency: int = 4
    seed: int = 42

    def config_hash(self) -> str:
        """Stable hash of the config — recorded in checkpoint manifests so a
        resume never mixes stages computed under different configs."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


DEFAULT_CONFIG = SNDConfig()
