"""Union-find, per-block clustering, and global connected components."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.cluster import UnionFind, cluster_edge_arrays, connected_components
from whoiswho_ray.stages.pairs import _cluster_rows


def brute_components(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """Reference implementation: repeated relabel to min neighbor."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            m = min(label[a], label[b])
            if label[a] != m or label[b] != m:
                label[a] = label[b] = m
                changed = True
    # canonicalize
    return [label[x] if label[x] == x else brute_root(label, x) for x in range(n)]


def brute_root(label, x):
    while label[x] != x:
        x = label[x]
    return x


class TestUnionFind:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        rng = np.random.RandomState(seed)
        n = 60
        edges = [tuple(sorted(rng.randint(0, n, 2))) for _ in range(80)]
        edges = [e for e in edges if e[0] != e[1]]
        uf = UnionFind(n)
        for a, b in edges:
            uf.union(a, b)
        lab = uf.labels()
        ref = brute_components(n, edges)
        # same partition (compare co-membership)
        assert len(set(zip(lab.tolist(), ref))) == len(set(lab.tolist())) == len(set(ref))

    def test_deterministic_root_is_min(self):
        uf = UnionFind(5)
        uf.union(4, 2)
        uf.union(2, 3)
        assert uf.find(4) == uf.find(3) == 2


def cluster_block(node_ids, edges, cfg):
    """Cluster one block the way the fused block kernel does: edge
    endpoints become positions in record_id-sorted order,
    ``cluster_edge_arrays`` labels them and ``pairs._cluster_rows``
    emits the (block_key, record_id, cluster_id, content_sha256) rows."""
    rids = np.asarray(node_ids, dtype=object)
    order = np.argsort(rids, kind="stable")
    pos = {r: i for i, r in enumerate(rids[order])}
    ia = np.array([pos[a] for a, _, _ in edges], dtype=np.int64)
    ib = np.array([pos[b] for _, b, _ in edges], dtype=np.int64)
    es = np.array([s for _, _, s in edges], dtype=np.float64)
    labels = cluster_edge_arrays(rids.size, ia, ib, es, cfg)
    shas = np.asarray([f"sha-{r}" for r in rids[order]], dtype=object)
    return _cluster_rows(pa.array(["bk"] * rids.size), rids, order, shas, labels).to_pandas()


def _ids(node_ids, edges, cfg):
    return cluster_block(node_ids, edges, cfg).set_index("record_id")["cluster_id"]


class TestClusterBlock:
    def test_basic_transitive(self):
        cfg = SNDConfig()
        out = cluster_block(["r1", "r2", "r3", "r4"],
                            [("r1", "r2", 2.0), ("r2", "r3", 2.0)], cfg)
        cl = out.set_index("record_id")["cluster_id"]
        assert cl["r1"] == cl["r2"] == cl["r3"]
        assert cl["r4"] != cl["r1"]
        assert out["content_sha256"].tolist() == [f"sha-r{i}" for i in range(1, 5)]

    def test_postmatch_attach(self):
        """An edge in [tau_attach, tau_edge) attaches a singleton to the
        cluster of its best partner (AutoTrainSND.py:163-206 analog)."""
        cfg = SNDConfig(tau_edge=1.5, tau_attach=1.3)
        out = _ids(["r1", "r2", "r3"], [("r1", "r2", 2.0), ("r2", "r3", 1.4)], cfg)
        assert out["r3"] == out["r1"]

    def test_postmatch_below_attach_stays_singleton(self):
        cfg = SNDConfig(tau_edge=1.5, tau_attach=1.3)
        out = _ids(["r1", "r2", "r3"], [("r1", "r2", 2.0), ("r2", "r3", 1.0)], cfg)
        assert out["r3"] != out["r1"]

    def test_two_members_never_rewired_by_postmatch(self):
        """Post-match only moves singletons — a weak edge between two
        multi-member clusters must NOT merge them."""
        cfg = SNDConfig(tau_edge=1.5, tau_attach=1.3)
        out = _ids(["a1", "a2", "b1", "b2"],
                   [("a1", "a2", 2.0), ("b1", "b2", 2.0), ("a2", "b1", 1.4)], cfg)
        assert out["a1"] == out["a2"]
        assert out["b1"] == out["b2"]
        assert out["a1"] != out["b1"]

    def test_postmatch_singleton_pair_chain_merges(self):
        """ALL singleton–singleton attach edges merge (AutoTrainSND.py
        paper_pair1 loop) — not only each side's best partner (ADVICE r1)."""
        cfg = SNDConfig(tau_edge=1.5, tau_attach=1.3)
        out = _ids(["r1", "r2", "r3", "r4"],
                   [("r1", "r2", 1.45), ("r3", "r4", 1.45), ("r2", "r3", 1.35)], cfg)
        assert out["r1"] == out["r2"] == out["r3"] == out["r4"]

    def test_postmatch_attach_prefers_best_nonsingleton(self):
        """A singleton with attach edges into two clusters joins only the
        best-scoring one (reference argmax over non-outlier clusters)."""
        cfg = SNDConfig(tau_edge=1.5, tau_attach=1.3)
        out = _ids(["a1", "a2", "b1", "b2", "s0"],
                   [("a1", "a2", 2.0), ("b1", "b2", 2.0),
                    ("s0", "a1", 1.35), ("s0", "b1", 1.4)], cfg)
        assert out["s0"] == out["b1"]
        assert out["a1"] != out["b1"]

    def test_row_order_invariance(self):
        cfg = SNDConfig()
        nodes, edges = ["r3", "r1", "r2"], [("r2", "r3", 2.0), ("r1", "r2", 1.0)]
        a = cluster_block(nodes, edges, cfg)
        b = cluster_block(nodes[::-1], [(y, x, s) for x, y, s in edges[::-1]], cfg)
        pd.testing.assert_frame_equal(a, b)


class TestConnectedComponents:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_union_find(self, seed):
        rng = np.random.RandomState(seed)
        n = 40
        raw = [tuple(sorted(rng.randint(0, n, 2))) for _ in range(45)]
        raw = [e for e in raw if e[0] != e[1]]
        names = [f"n{i:03d}" for i in range(n)]
        edges = rd.from_items([{"u": names[a], "v": names[b]} for a, b in raw])
        labels = connected_components(edges).to_pandas()
        got = dict(zip(labels["node"], labels["component"]))
        # reference partition from union-find
        uf = UnionFind(n)
        for a, b in raw:
            uf.union(a, b)
        ref = uf.labels()
        touched = sorted({x for e in raw for x in e})
        for i in touched:
            root = names[ref[i]]
            assert got.get(names[i], names[i]) == root

    @pytest.mark.parametrize("seed", [1, 7])
    def test_int_encoded_path_identical(self, seed):
        """The int-encoded contraction (encode_edges reuse, VERDICT r3
        #1) decodes to exactly the string-path labels — the encoding is
        order-preserving, so the min-id component roots are unchanged."""
        rng = np.random.RandomState(seed)
        n = 60
        raw = [tuple(sorted(rng.randint(0, n, 2))) for _ in range(70)]
        raw = [e for e in raw if e[0] != e[1]]
        names = [f"n{i:03d}" for i in range(n)]
        items = [{"u": names[a], "v": names[b]} for a, b in raw]
        plain = (connected_components(rd.from_items(items), int_encode=False)
                 .to_pandas().drop_duplicates())
        encoded = (connected_components(rd.from_items(items), int_encode=True)
                   .to_pandas().drop_duplicates())
        a = plain.sort_values(["node", "component"]).reset_index(drop=True)
        b = encoded.sort_values(["node", "component"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


class TestVoteClusters:
    """Ensemble pair-vote clustering (A9 full analog: bond's
    autotrain_bond_ensemble threshold grid)."""

    def test_majority_vote_veto_and_accept(self, ray_session):
        import pyarrow as pa

        from whoiswho_ray.stages.pairs import (default_vote_configs,
                                               make_block_vote_clusters)

        def row(rid, toks):
            return {"block_key": "bk", "record_id": rid,
                    "content_sha256": "00" * 32, "name": rid,
                    "tok_ids": np.asarray(sorted(toks), np.int64),
                    "repo_ids": np.empty(0, np.int64),
                    "ctx_ids": np.empty(0, np.int64),
                    "tfv_ids": np.empty(0, np.int64),
                    "tfv_w": np.empty(0, np.float32)}

        # weak pair: token-Jaccard 3/10 = 0.3 -> only the tokens-heavy
        # config scores >= tau (1 of 5 votes) -> must stay separate
        a = row("r_a", range(0, 6))
        b = row("r_b", list(range(0, 3)) + list(range(100, 104)))
        # strong pair: Jaccard 13/25 = 0.52 -> all 5 configs vote yes
        c = row("r_c", range(200, 219))
        d = row("r_d", list(range(200, 213)) + list(range(300, 306)))
        g = pa.Table.from_pylist([a, b, c, d])
        cfgs = default_vote_configs()
        out = make_block_vote_clusters(
            g, cfgs, min_votes=len(cfgs) // 2 + 1).to_pandas()
        cl = out.set_index("record_id")["cluster_id"]
        assert cl["r_a"] != cl["r_b"]          # minority votes: vetoed
        assert cl["r_c"] == cl["r_d"]          # majority votes: merged

    def test_threshold_diversity_rescues(self, ray_session):
        """VERDICT r3 #7: a pair whose score is a robust near-miss under
        MOST feature weightings (1.4 vs tau 1.5) but clears tau under two
        of them. Weight diversity alone can never reach a majority (2/5
        clusterings co-assign). The threshold-crossed default grid adds
        the 0.9·tau tier, where all five weightings co-assign — 8/15
        votes — so threshold diversity merges what weight diversity
        cannot."""
        import pyarrow as pa

        from whoiswho_ray.stages.pairs import (default_vote_configs,
                                               make_block_vote_clusters)

        def row(rid, repo, tfv_ids, tfv_w):
            return {"block_key": "bk", "record_id": rid,
                    "content_sha256": "00" * 32, "name": "x.txt",
                    "tok_ids": np.empty(0, np.int64),
                    "repo_ids": np.asarray(repo, np.int64),
                    "ctx_ids": np.empty(0, np.int64),
                    "tfv_ids": np.asarray(tfv_ids, np.int64),
                    "tfv_w": np.asarray(tfv_w, np.float32)}

        # features: j_tok=0, t_repo=1, t_ctx=0, cos=0.4, jw=1 →
        # scores per weighting: [1.4, 1.4, 2.2, 1.3, 1.9]
        s84 = float(np.sqrt(0.84))
        g = pa.Table.from_pylist([
            row("r_p", [7, 8], [1], [1.0]),
            row("r_q", [7, 8], [1, 2], [0.4, s84]),
        ])
        weight_only = default_vote_configs(tau_grid=(1.0,))
        old = make_block_vote_clusters(
            g, weight_only, min_votes=len(weight_only) // 2 + 1).to_pandas()
        assert old["cluster_id"].nunique() == 2   # 2/5 votes: separate
        grid = default_vote_configs()
        new = make_block_vote_clusters(
            g, grid, min_votes=len(grid) // 2 + 1).to_pandas()
        assert new["cluster_id"].nunique() == 1   # 8/15 votes: merged

    def test_clustering_level_vote_counts_transitive_merges(self, ray_session):
        """bond votes CLUSTERINGS (co-association matrices,
        ``autotrain_bond_ensemble.py:241-260``), not raw edges: two
        bridges that are each a 1-of-3 EDGE minority under different
        configs still merge the groups in 2 of 3 clusterings (each
        passing config's closure co-assigns every cross pair), so the
        clustering-level majority merges what edge-level voting never
        could."""
        import dataclasses

        import pyarrow as pa

        from whoiswho_ray.stages.pairs import make_block_vote_clusters

        s19 = float(np.sqrt(0.19))

        def row(rid, toks, repo, tfv_ids, tfv_w):
            return {"block_key": "bk", "record_id": rid,
                    "content_sha256": "00" * 32, "name": "x.txt",
                    "tok_ids": np.asarray(sorted(toks), np.int64),
                    "repo_ids": np.asarray(repo, np.int64),
                    "ctx_ids": np.empty(0, np.int64),
                    "tfv_ids": np.asarray(tfv_ids, np.int64),
                    "tfv_w": np.asarray(tfv_w, np.float32)}

        # groups {x,u} and {y,v} tied by cos 0.9 (passes every config);
        # bridge1 (x,y) = token Jaccard 0.3: passes ONLY cfg_tok (1.9);
        # bridge2 (u,v) = shared repo: passes ONLY cfg_repo (2.1)
        x = row("r_x", range(0, 6), [], [1], [1.0])
        u = row("r_u", [], [7], [1, 2], [0.9, s19])
        y = row("r_y", list(range(0, 3)) + list(range(50, 54)), [], [3], [1.0])
        v = row("r_v", [], [7], [3, 4], [0.9, s19])
        base = SNDConfig()
        cfgs = [base,
                dataclasses.replace(base, w_tokens=6.0),
                dataclasses.replace(base, w_repo=2.0)]
        g = pa.Table.from_pylist([x, u, y, v])
        out = make_block_vote_clusters(g, cfgs, min_votes=2).to_pandas()
        assert out["cluster_id"].nunique() == 1

    def test_fixture_f1(self, ray_session, small_fixture):
        from whoiswho_ray.evaluation import pairwise_f1_frames
        from whoiswho_ray.pipelines.snd import run_snd_vote

        spec, tabs = small_fixture
        import ray.data as rd

        clusters = run_snd_vote(
            rd.from_arrow(tabs["records"])).to_pandas()
        ev = pairwise_f1_frames(clusters, tabs["ground_truth"].to_pandas())
        mean_f1 = ev.loc[ev["block_key"] == "__mean__", "f1"].iloc[0]
        assert mean_f1 >= 0.99, ev.to_string()


class TestSgcClusters:
    """Graph-smoothed clustering (T8 analog: bond's per-name GNN swapped
    for one hop of parameter-free graph convolution in Gram space)."""

    @staticmethod
    def _row(rid, toks, tfv_ids, tfv_w):
        return {"block_key": "bk", "record_id": rid,
                "content_sha256": "00" * 32, "name": "x.txt",
                "tok_ids": np.asarray(sorted(toks), np.int64),
                "repo_ids": np.empty(0, np.int64),
                "ctx_ids": np.empty(0, np.int64),
                "tfv_ids": np.asarray(tfv_ids, np.int64),
                "tfv_w": np.asarray(tfv_w, np.float32)}

    def test_rescue_merges_token_backed_clusters(self):
        """Two clusters held together by token overlap whose cross-pair
        raw cosines sit below tau_edge: smoothing over the strong graph
        lifts the cross cosine (the low within-cluster tfidf mass shrinks
        the denominator), so SGC merges what the raw path cannot."""
        import pyarrow as pa

        from whoiswho_ray.stages.pairs import (make_block_clusters,
                                               make_block_sgc_clusters)

        s3 = 1.0 / np.sqrt(3.0)
        g = pa.Table.from_pylist([
            self._row("r_i", range(0, 8), [1], [1.0]),
            self._row("r_a", range(0, 8), [2], [1.0]),
            self._row("r_j", range(100, 108), [1, 2, 5], [s3, s3, s3]),
            self._row("r_b", range(100, 108), [1, 2, 6], [s3, s3, s3]),
        ])
        base = make_block_clusters(g, SNDConfig()).to_pandas()
        assert base["cluster_id"].nunique() == 2  # cross score ~1.26 < 1.5
        sgc = make_block_sgc_clusters(g, SNDConfig()).to_pandas()
        # smoothed cross cosine ~0.89 -> score2 ~1.89 >= tau_edge: merged
        assert sgc["cluster_id"].nunique() == 1

    def test_veto_breaks_cos_only_bridge(self):
        """A spurious bridge that clears tau_edge on raw cosine alone:
        with tau_strong above the bridge score, the bridge is not part of
        the smoothing graph, its smoothed cosine collapses (neighborhoods
        are disjoint in feature space) and the merge is vetoed."""
        import pyarrow as pa

        from whoiswho_ray.stages.pairs import (make_block_clusters,
                                               make_block_sgc_clusters)

        r2 = np.float32(1.0 / np.sqrt(2.0))
        g = pa.Table.from_pylist([
            self._row("r_i", range(0, 8), [2], [1.0]),
            self._row("r_a", range(0, 8), [1, 2], [r2, r2]),
            self._row("r_j", range(100, 108), [1], [1.0]),
            self._row("r_b", range(100, 108), [3], [1.0]),
        ])
        base = make_block_clusters(g, SNDConfig()).to_pandas()
        assert base["cluster_id"].nunique() == 1  # bridge ~1.51 >= 1.5
        sgc = make_block_sgc_clusters(g, SNDConfig(), tau_strong=2.0).to_pandas()
        cl = sgc.set_index("record_id")["cluster_id"]
        assert sgc["cluster_id"].nunique() == 2
        assert cl["r_i"] == cl["r_a"] and cl["r_j"] == cl["r_b"]

    def test_iterated_refinement_rescues_undermerge(self):
        """bond's iterated embed → pseudo-label → re-embed loop
        (``autotrain_bond.py:134-233``), VERDICT r3 #5: a 4-record chain
        (only CONSECUTIVE pairs strong) plus an outside record b that is
        moderately similar to every chain member. Single-hop SGC pools
        only 1-hop neighborhoods — every smoothed cross score stays
        under tau_edge and b is left out — while the first refinement
        round pools the Gram over the WHOLE chain component (pseudo-label
        centroid), lifting the cross score over tau: b merges."""
        import pyarrow as pa

        from whoiswho_ray.stages.pairs import make_block_sgc_clusters

        # unit vectors realizing: consecutive chain cos ~0.755, skip
        # ~0.28-0.32, cross-to-b ~0.58 (PSD-projected target Gram)
        X = np.array([
            [-0.275850, 0.193106, -0.599706, -0.725927],
            [0.060915, -0.359081, -0.366267, -0.856270],
            [0.060915, -0.359081, 0.366267, -0.856270],
            [-0.275850, 0.193106, 0.599706, -0.725927],
            [0.359348, 0.427479, 0.000000, -0.829536],
        ])
        rows = [self._row(f"r_a{i}", range(10 * i, 10 * i + 8),
                          [0, 1, 2, 3], X[i]) for i in range(4)]
        rows.append(self._row("r_b", range(100, 108), [0, 1, 2, 3], X[4]))
        g = pa.Table.from_pylist(rows)
        single = make_block_sgc_clusters(g, SNDConfig()).to_pandas()
        cl = single.set_index("record_id")["cluster_id"]
        assert len(set(cl[f"r_a{i}"] for i in range(4))) == 1  # chain holds
        assert cl["r_b"] not in set(cl[f"r_a{i}"] for i in range(4))
        refined = make_block_sgc_clusters(
            g, SNDConfig(), refine_rounds=2).to_pandas()
        assert refined["cluster_id"].nunique() == 1  # F1 = 1.0

    def test_refinement_zero_rounds_is_identity(self):
        """refine_rounds=0 (the default) is byte-identical to the
        single-hop kernel — the snd_clusters_sgc oracle is unaffected."""
        import pyarrow as pa

        from whoiswho_ray.stages.pairs import make_block_sgc_clusters

        s3 = 1.0 / np.sqrt(3.0)
        g = pa.Table.from_pylist([
            self._row("r_i", range(0, 8), [1], [1.0]),
            self._row("r_a", range(0, 8), [2], [1.0]),
            self._row("r_j", range(100, 108), [1, 2, 5], [s3, s3, s3]),
            self._row("r_b", range(100, 108), [1, 2, 6], [s3, s3, s3]),
        ])
        a = make_block_sgc_clusters(g, SNDConfig()).to_pandas()
        b = make_block_sgc_clusters(g, SNDConfig(), refine_rounds=0).to_pandas()
        pd.testing.assert_frame_equal(a, b)

    def test_refinement_converges_early(self):
        """When round-1 components equal round-0 components the loop
        stops: refine_rounds=1 and refine_rounds=5 agree."""
        import pyarrow as pa

        from whoiswho_ray.stages.pairs import make_block_sgc_clusters

        s3 = 1.0 / np.sqrt(3.0)
        g = pa.Table.from_pylist([
            self._row("r_i", range(0, 8), [1], [1.0]),
            self._row("r_a", range(0, 8), [2], [1.0]),
            self._row("r_j", range(100, 108), [1, 2, 5], [s3, s3, s3]),
            self._row("r_b", range(100, 108), [1, 2, 6], [s3, s3, s3]),
        ])
        a = make_block_sgc_clusters(g, SNDConfig(), refine_rounds=1).to_pandas()
        b = make_block_sgc_clusters(g, SNDConfig(), refine_rounds=5).to_pandas()
        pd.testing.assert_frame_equal(a, b)

    def test_identity_without_strong_edges(self):
        """tau_strong above every score -> P = I -> the smoothed cosine
        is the raw one (unit self dots) and clusters equal the plain
        single-config components (no attach on either side)."""
        import pyarrow as pa

        from whoiswho_ray.stages.pairs import (make_block_sgc_clusters,
                                               make_block_vote_clusters)

        s3 = 1.0 / np.sqrt(3.0)
        g = pa.Table.from_pylist([
            self._row("r_i", range(0, 8), [1], [1.0]),
            self._row("r_a", range(0, 8), [2], [1.0]),
            self._row("r_j", range(100, 108), [1, 2, 5], [s3, s3, s3]),
            self._row("r_b", range(100, 108), [1, 2, 6], [s3, s3, s3]),
        ])
        sgc = make_block_sgc_clusters(g, SNDConfig(), tau_strong=1e9).to_pandas()
        ref = make_block_vote_clusters(g, [SNDConfig()], 1).to_pandas()
        pd.testing.assert_frame_equal(
            sgc.sort_values("record_id").reset_index(drop=True),
            ref.sort_values("record_id").reset_index(drop=True))

    def test_fixture_f1(self, ray_session, small_fixture):
        from whoiswho_ray.evaluation import pairwise_f1_frames
        from whoiswho_ray.pipelines.snd import run_snd_sgc

        spec, tabs = small_fixture
        import ray.data as rd

        clusters = run_snd_sgc(rd.from_arrow(tabs["records"])).to_pandas()
        ev = pairwise_f1_frames(clusters, tabs["ground_truth"].to_pandas())
        mean_f1 = ev.loc[ev["block_key"] == "__mean__", "f1"].iloc[0]
        assert mean_f1 >= 0.99, ev.to_string()


class TestLearnedRefinement:
    """Operator T8's learned half (VERDICT r4 #4): the per-block logistic
    metric-learner trained on pseudo-labels merges what neither the
    fixed-weight threshold nor Gram-pooling refinement can reach."""

    @staticmethod
    def _fixture():
        """One entity A written in two 'styles' plus a distractor B.

        All A records share repo tokens (t_repo=1) and 2 of 10 content
        tokens (j_tok=0.2); tf-idf cosine is 0.5 along each style's
        chain and EXACTLY 0 across styles, so every cos-channel path
        (raw score 1.3 < tau_edge 1.5, SGC smoothing, centroid pooling)
        leaves the styles split forever — while the within-style
        non-consecutive pseudo-positive pairs carry features identical
        to the cross-style pairs, which the learner generalizes from."""
        import pyarrow as pa

        def factor(gram):
            vals, vecs = np.linalg.eigh(gram)
            vals = np.clip(vals, 0.0, None)
            return vecs * np.sqrt(vals)

        g1 = np.eye(6)
        for i in range(5):
            g1[i, i + 1] = g1[i + 1, i] = 0.5
        g2 = np.array([[1.0, 0.5], [0.5, 1.0]])
        ga = np.zeros((8, 8))
        ga[:6, :6] = g1
        ga[6:, 6:] = g2
        fa = factor(ga)                      # 8 unit rows, dim 8
        fb = factor(np.full((3, 3), 0.5) + 0.5 * np.eye(3))

        def row(rid, toks, repo, tfv_ids, tfv_w):
            return {"block_key": "bk", "record_id": rid,
                    "content_sha256": "00" * 32, "name": "x.txt",
                    "tok_ids": np.asarray(sorted(toks), np.int64),
                    "repo_ids": np.asarray(repo, np.int64),
                    "ctx_ids": np.empty(0, np.int64),
                    "tfv_ids": np.asarray(tfv_ids, np.int64),
                    "tfv_w": np.asarray(tfv_w, np.float32)}

        rows = []
        for i in range(8):
            rows.append(row(f"r_a{i}", [0, 1] + list(range(10 + 4 * i,
                                                           14 + 4 * i)),
                            [500, 501], list(range(8)), fa[i]))
        for i in range(3):
            rows.append(row(f"r_b{i}", [900, 901] + list(range(950 + 4 * i,
                                                               954 + 4 * i)),
                            [700, 701], [20, 21, 22], fb[i]))
        truth = {f"r_a{i}": "A" for i in range(8)}
        truth.update({f"r_b{i}": "B" for i in range(3)})
        return pa.Table.from_pylist(rows), truth

    @staticmethod
    def _pairwise_f1(assign: dict, truth: dict) -> float:
        import itertools

        tp = fp = fn = 0
        for a, b in itertools.combinations(sorted(truth), 2):
            same_t = truth[a] == truth[b]
            same_p = assign[a] == assign[b]
            tp += same_t and same_p
            fp += same_p and not same_t
            fn += same_t and not same_p
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        return 2 * p * r / (p + r) if p + r else 0.0

    def test_parameter_free_plateaus_learned_reaches_f1(self):
        from whoiswho_ray.stages.pairs import make_block_sgc_clusters

        g, truth = self._fixture()
        for rounds in (0, 2, 8):  # Gram-pooling refinement plateaus
            out = make_block_sgc_clusters(
                g, SNDConfig(), refine_rounds=rounds).to_pandas()
            assign = dict(zip(out["record_id"], out["cluster_id"]))
            assert self._pairwise_f1(assign, truth) < 0.99
        learned = make_block_sgc_clusters(
            g, SNDConfig(), learned_rounds=2).to_pandas()
        assign = dict(zip(learned["record_id"], learned["cluster_id"]))
        assert self._pairwise_f1(assign, truth) >= 0.99
        # distractor stays its own entity
        bs = {assign[f"r_b{i}"] for i in range(3)}
        assert len(bs) == 1 and not bs & {assign["r_a0"]}

    def test_learned_zero_rounds_is_identity(self):
        from whoiswho_ray.stages.pairs import make_block_sgc_clusters

        g, _ = self._fixture()
        a = make_block_sgc_clusters(g, SNDConfig()).to_pandas()
        b = make_block_sgc_clusters(g, SNDConfig(),
                                    learned_rounds=0).to_pandas()
        pd.testing.assert_frame_equal(a, b)

    def test_learned_rounds_deterministic(self):
        from whoiswho_ray.stages.pairs import make_block_sgc_clusters

        g, _ = self._fixture()
        a = make_block_sgc_clusters(g, SNDConfig(),
                                    learned_rounds=2).to_pandas()
        b = make_block_sgc_clusters(g, SNDConfig(),
                                    learned_rounds=2).to_pandas()
        pd.testing.assert_frame_equal(a, b)
