"""Distributed PageRank (stages/graph.py)."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from whoiswho_ray.stages.graph import pagerank


def _dense_reference(edges: pd.DataFrame, iters: int, d: float = 0.85) -> dict:
    nodes = sorted(set(edges["src"]) | set(edges["dst"]))
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    outdeg = edges.groupby("src").size()
    M = np.zeros((n, n))
    for _, row in edges.iterrows():
        M[idx[row["dst"]], idx[row["src"]]] = 1.0 / outdeg[row["src"]]
    dangling = np.array([outdeg.get(v, 0) == 0 for v in nodes])
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        r = (1 - d) / n + d * (M @ r + r[dangling].sum() / n)
    return dict(zip(nodes, r))


class TestPagerank:
    def test_matches_dense_reference_with_dangling(self, ray_session):
        edges = pd.DataFrame({
            "src": ["a", "b", "c", "c", "d", "a"],
            "dst": ["b", "c", "a", "b", "a", "e"],  # e is dangling
        })
        out = pagerank(rd.from_pandas(edges), iters=5).to_pandas()
        ref = _dense_reference(edges, iters=5)
        assert len(out) == len(ref)
        for r in out.itertuples():
            assert r.rank == pytest.approx(ref[r.node], rel=1e-12), r.node
        assert out["rank"].sum() == pytest.approx(1.0, abs=1e-12)

    def test_sharding_invariance(self, ray_session):
        rng = np.random.RandomState(11)
        n = 300
        edges = pd.DataFrame({
            "src": [f"n{v}" for v in rng.randint(0, n, 1500)],
            "dst": [f"n{v}" for v in rng.randint(0, n, 1500)],
        }).drop_duplicates()
        edges = edges[edges["src"] != edges["dst"]]
        a = pagerank(rd.from_pandas(edges), iters=3
                     ).to_pandas().sort_values("node").reset_index(drop=True)
        b = pagerank(rd.from_pandas(edges).repartition(7), iters=3
                     ).to_pandas().sort_values("node").reset_index(drop=True)
        assert a["node"].tolist() == b["node"].tolist()
        # identical bucket partition -> identical per-node sum order
        np.testing.assert_allclose(a["rank"].to_numpy(), b["rank"].to_numpy(),
                                   rtol=1e-12)
        assert a["rank"].sum() == pytest.approx(1.0, abs=1e-9)

    def test_disconnected_components(self, ray_session):
        edges = pd.DataFrame({"src": ["a", "b", "x", "y"],
                              "dst": ["b", "a", "y", "x"]})
        out = pagerank(rd.from_pandas(edges), iters=4).to_pandas()
        r = out.set_index("node")["rank"]
        # two symmetric 2-cycles: all ranks equal by symmetry
        assert r.nunique() == 1 or np.allclose(r.to_numpy(), 0.25, atol=1e-12)
        assert out["rank"].sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_edges(self, ray_session):
        edges = pd.DataFrame({"src": pd.Series([], dtype=object),
                              "dst": pd.Series([], dtype=object)})
        out = pagerank(rd.from_pandas(edges), iters=2).to_pandas()
        assert len(out) == 0


class TestTriangleCount:
    @staticmethod
    def _brute(edges: pd.DataFrame) -> int:
        import itertools
        adj = {}
        for _, r in edges.iterrows():
            a, b = str(r["src"]), str(r["dst"])
            if a == b:
                continue
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        nodes = sorted(adj)
        t = 0
        for a, b, c in itertools.combinations(nodes, 3):
            if b in adj[a] and c in adj[a] and c in adj[b]:
                t += 1
        return t

    def test_known_graphs(self, ray_session):
        from whoiswho_ray.stages.graph import triangle_count

        k4 = pd.DataFrame({"src": ["a", "a", "a", "b", "b", "c"],
                           "dst": ["b", "c", "d", "c", "d", "d"]})
        res = triangle_count(rd.from_pandas(k4))
        assert res == {"n_triangles": 4, "n_edges": 6, "n_nodes": 4}
        c5 = pd.DataFrame({"src": list("abcde"), "dst": list("bcdea")})
        res = triangle_count(rd.from_pandas(c5))
        assert res["n_triangles"] == 0 and res["n_edges"] == 5

    def test_random_graph_vs_brute_force(self, ray_session):
        from whoiswho_ray.stages.graph import triangle_count

        rng = np.random.RandomState(17)
        n = 60
        edges = pd.DataFrame({
            "src": [f"n{v}" for v in rng.randint(0, n, 500)],
            "dst": [f"n{v}" for v in rng.randint(0, n, 500)],
        })
        res = triangle_count(rd.from_pandas(edges).repartition(5))
        assert res["n_triangles"] == self._brute(edges)

    def test_canonicalization(self, ray_session):
        """Duplicates, reversed duplicates and self-loops collapse."""
        from whoiswho_ray.stages.graph import triangle_count

        edges = pd.DataFrame({
            "src": ["a", "b", "a", "b", "c", "a", "c"],
            "dst": ["b", "a", "b", "c", "b", "c", "c"],
        })
        res = triangle_count(rd.from_pandas(edges))
        assert res == {"n_triangles": 1, "n_edges": 3, "n_nodes": 3}

    def test_empty(self, ray_session):
        from whoiswho_ray.stages.graph import triangle_count

        edges = pd.DataFrame({"src": pd.Series([], dtype=object),
                              "dst": pd.Series([], dtype=object)})
        assert triangle_count(rd.from_pandas(edges)) == {
            "n_triangles": 0, "n_edges": 0, "n_nodes": 0}


class TestPagerankPaths:
    def test_distributed_equals_broadcast(self, ray_session):
        """Force the co-group scale path (max_broadcast_nodes=0) and
        assert it matches the broadcast path to float tolerance."""
        rng = np.random.RandomState(23)
        n = 120
        edges = pd.DataFrame({
            "src": [f"n{v}" for v in rng.randint(0, n, 600)],
            "dst": [f"n{v}" for v in rng.randint(0, n, 600)],
        }).drop_duplicates()
        edges = edges[edges["src"] != edges["dst"]]
        a = pagerank(rd.from_pandas(edges), iters=3
                     ).to_pandas().sort_values("node").reset_index(drop=True)
        b = pagerank(rd.from_pandas(edges), iters=3, max_broadcast_nodes=0
                     ).to_pandas().sort_values("node").reset_index(drop=True)
        assert a["node"].tolist() == b["node"].tolist()
        np.testing.assert_allclose(a["rank"].to_numpy(), b["rank"].to_numpy(),
                                   rtol=1e-12)


class TestLabelPropagation:
    @staticmethod
    def _reference(edges: pd.DataFrame, iters: int) -> dict:
        """Synchronous LPA, ties -> smallest label string."""
        adj = {}
        for _, r in edges.iterrows():
            a, b = str(r["src"]), str(r["dst"])
            if a == b:
                continue
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        lab = {v: v for v in adj}
        for _ in range(iters):
            new = {}
            for v, nbrs in adj.items():
                counts = {}
                for u in nbrs:
                    counts[lab[u]] = counts.get(lab[u], 0) + 1
                best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
                new[v] = best
            lab = new
        return lab

    def test_two_cliques_with_bridge(self, ray_session):
        from whoiswho_ray.stages.graph import label_propagation

        import itertools
        c1 = list("abcd")
        c2 = list("wxyz")
        rows = [(u, v) for u, v in itertools.combinations(c1, 2)]
        rows += [(u, v) for u, v in itertools.combinations(c2, 2)]
        rows.append(("d", "w"))  # bridge
        edges = pd.DataFrame(rows, columns=["src", "dst"])
        out = label_propagation(rd.from_pandas(edges), iters=4
                                ).to_pandas().set_index("node")["community"]
        assert len(set(out[c1])) == 1 and len(set(out[c2])) == 1
        assert out["a"] != out["z"]

    def test_matches_reference_random(self, ray_session):
        from whoiswho_ray.stages.graph import label_propagation

        rng = np.random.RandomState(29)
        n = 40
        edges = pd.DataFrame({
            "src": [f"n{v:02d}" for v in rng.randint(0, n, 160)],
            "dst": [f"n{v:02d}" for v in rng.randint(0, n, 160)],
        })
        out = label_propagation(rd.from_pandas(edges).repartition(3), iters=3
                                ).to_pandas()
        ref = self._reference(edges, iters=3)
        assert len(out) == len(ref)
        for r in out.itertuples():
            assert r.community == ref[r.node], r.node

    def test_paths_agree(self, ray_session):
        from whoiswho_ray.stages.graph import label_propagation

        rng = np.random.RandomState(31)
        edges = pd.DataFrame({
            "src": [f"n{v}" for v in rng.randint(0, 50, 200)],
            "dst": [f"n{v}" for v in rng.randint(0, 50, 200)],
        })
        a = label_propagation(rd.from_pandas(edges), iters=3
                              ).to_pandas().sort_values("node").reset_index(drop=True)
        b = label_propagation(rd.from_pandas(edges), iters=3,
                              max_broadcast_nodes=0
                              ).to_pandas().sort_values("node").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


class TestSssp:
    """Weighted multi-source shortest paths vs a brute hop-capped
    Bellman-Ford DP (d_k[v] = min over paths of <= k edges)."""

    @staticmethod
    def _brute(edges: pd.DataFrame, sources, k: int) -> dict:
        dist = {s: 0 for s in sources}
        for _ in range(k):
            nxt = dict(dist)
            for r in edges.itertuples():
                if r.src in dist:
                    nd = dist[r.src] + r.w
                    if r.dst not in nxt or nd < nxt[r.dst]:
                        nxt[r.dst] = nd
            dist = nxt
        return dist

    def _run(self, edges: pd.DataFrame, sources, k: int,
             nparts: int = 5) -> dict:
        from whoiswho_ray.stages.graph import sssp
        out = sssp(rd.from_pandas(edges).repartition(nparts),
                   rd.from_pandas(pd.DataFrame({"node": list(sources)})),
                   max_rounds=k)
        df = out.to_pandas() if hasattr(out, "to_pandas") else out
        return dict(zip(df["node"], df["dist"]))

    def test_random_parity(self, ray_session):
        rng = np.random.RandomState(7)
        n_nodes, n_edges = 40, 300
        edges = pd.DataFrame({
            "src": [f"n{v}" for v in rng.randint(0, n_nodes, n_edges)],
            "dst": [f"n{v}" for v in rng.randint(0, n_nodes, n_edges)],
            "w": rng.randint(1, 10, n_edges).astype(np.int64),
        })
        sources = {"n0", "n1"}
        for k in (1, 3, 6):
            got = self._run(edges, sources, k)
            want = self._brute(edges, sources, k)
            assert got == want, (k, got, want)

    def test_weighted_beats_hops(self, ray_session):
        # a->b direct costs 10; a->c->b costs 2+2=4: min-WEIGHT must win
        # over min-hop once enough rounds are allowed.
        edges = pd.DataFrame({
            "src": ["a", "a", "c"], "dst": ["b", "c", "b"],
            "w": np.array([10, 2, 2], dtype=np.int64)})
        assert self._run(edges, {"a"}, 1)["b"] == 10
        assert self._run(edges, {"a"}, 2)["b"] == 4

    def test_early_stop_and_unreachable(self, ray_session):
        edges = pd.DataFrame({
            "src": ["a", "x"], "dst": ["b", "y"],
            "w": np.array([1, 1], dtype=np.int64)})
        got = self._run(edges, {"a"}, 50)  # fixpoint after 1 round
        assert got == {"a": 0, "b": 1}  # x,y unreachable -> absent

    def test_distance_above_2_53_is_exact(self, ray_session):
        """int64 distances stay int64 through the merge: 2^53 + 1 is not
        a float64 value, so a float pass would round it to 2^53."""
        big = 2 ** 53 + 1
        edges = pd.DataFrame({"src": ["a", "b", "a"], "dst": ["b", "c", "c"],
                              "w": np.array([big, 2, big + 4], dtype=np.int64)})
        got = self._run(edges, {"a"}, 4, nparts=2)
        assert got == {"a": 0, "b": big, "c": big + 2}

    def test_empty_sources_and_negative_weight(self, ray_session):
        from whoiswho_ray.stages.graph import sssp
        edges = pd.DataFrame({"src": ["a"], "dst": ["b"],
                              "w": np.array([-1], dtype=np.int64)})
        empty = sssp(rd.from_pandas(edges),
                     rd.from_pandas(pd.DataFrame({"node": []})),
                     max_rounds=3)
        assert empty.count() == 0
        with pytest.raises(Exception):  # surfaced through Ray's task error
            self._run(edges, {"a"}, 2)


class TestPagerankWeighted:
    @staticmethod
    def _reference(edges: pd.DataFrame, iters: int, d: float = 0.85):
        nodes = sorted(set(edges["src"]) | set(edges["dst"]))
        pos = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        W = {}
        for r_ in edges.itertuples():
            W[r_.src] = W.get(r_.src, 0.0) + float(r_.w)
        r = np.full(n, 1.0 / n)
        for _ in range(iters):
            dang = sum(r[pos[v]] for v in nodes if v not in W)
            nxt = np.full(n, (1 - d) / n + d * dang / n)
            for e in edges.itertuples():
                nxt[pos[e.dst]] += d * r[pos[e.src]] * e.w / W[e.src]
            r = nxt
        return dict(zip(nodes, r))

    def test_matches_brute(self, ray_session):
        from whoiswho_ray.stages.graph import pagerank_weighted
        rng = np.random.RandomState(3)
        edges = pd.DataFrame({
            "src": [f"n{v}" for v in rng.randint(0, 25, 150)],
            "dst": [f"n{v}" for v in rng.randint(0, 25, 150)],
            "w": rng.randint(1, 9, 150).astype(np.int64),
        })
        out = pagerank_weighted(rd.from_pandas(edges).repartition(4),
                                iters=3).to_pandas()
        ref = self._reference(edges, iters=3)
        assert len(out) == len(ref)
        for row in out.itertuples():
            assert abs(row.rank - ref[row.node]) < 1e-9, row.node
        assert abs(out["rank"].sum() - 1.0) < 1e-9  # mass conserved

    def test_weight_shifts_mass(self, ray_session):
        from whoiswho_ray.stages.graph import pagerank_weighted
        # a sends 9x more mass to b than to c
        edges = pd.DataFrame({
            "src": ["a", "a", "b", "c"], "dst": ["b", "c", "a", "a"],
            "w": np.array([9, 1, 1, 1], dtype=np.int64)})
        out = pagerank_weighted(rd.from_pandas(edges), iters=5
                                ).to_pandas().set_index("node")
        assert out.loc["b", "rank"] > out.loc["c", "rank"]

    def test_rejects_nonpositive_weight(self, ray_session):
        import pytest as _pt
        from whoiswho_ray.stages.graph import pagerank_weighted
        edges = pd.DataFrame({"src": ["a"], "dst": ["b"],
                              "w": np.array([0], dtype=np.int64)})
        with _pt.raises(Exception):
            pagerank_weighted(rd.from_pandas(edges)).to_pandas()


class TestPagerankPersonalized:
    @staticmethod
    def _reference(edges: pd.DataFrame, srcs, iters: int, d: float = 0.85):
        nodes = sorted(set(edges["src"]) | set(edges["dst"]))
        pos = {v: i for i, v in enumerate(nodes)}
        n = len(nodes)
        t = np.zeros(n)
        for s in srcs:
            t[pos[s]] = 1.0 / len(srcs)
        W = {}
        for e in edges.itertuples():
            W[e.src] = W.get(e.src, 0.0) + float(e.w)
        r = t.copy()
        for _ in range(iters):
            dang = sum(r[pos[v]] for v in nodes if v not in W)
            nxt = (1 - d) * t + d * dang * t
            for e in edges.itertuples():
                nxt[pos[e.dst]] += d * r[pos[e.src]] * e.w / W[e.src]
            r = nxt
        return {v: r[pos[v]] for v in nodes if r[pos[v]] != 0.0}

    def test_matches_brute_and_locality(self, ray_session):
        from whoiswho_ray.stages.graph import pagerank_personalized
        rng = np.random.RandomState(12)
        edges = pd.DataFrame({
            "src": [f"n{v}" for v in rng.randint(0, 30, 200)],
            "dst": [f"n{v}" for v in rng.randint(0, 30, 200)],
            "w": rng.randint(1, 9, 200).astype(np.int64),
        })
        srcs = ["n0", "n1"]
        out = pagerank_personalized(
            rd.from_pandas(edges).repartition(4),
            rd.from_pandas(pd.DataFrame({"node": srcs})),
            iters=3).to_pandas()
        ref = self._reference(edges, srcs, iters=3)
        assert len(out) == len(ref)
        for row in out.itertuples():
            assert abs(row.rank - ref[row.node]) < 1e-9, row.node
        # seed nodes carry the teleport floor; mass conserved
        got = dict(zip(out["node"], out["rank"]))
        assert got["n0"] >= (1 - 0.85) / 2
        assert abs(out["rank"].sum() - 1.0) < 1e-9

    def test_unreached_absent_and_no_source_raises(self, ray_session):
        import pytest as _pt
        from whoiswho_ray.stages.graph import pagerank_personalized
        edges = pd.DataFrame({"src": ["a", "x"], "dst": ["b", "y"],
                              "w": np.array([1, 1], dtype=np.int64)})
        out = pagerank_personalized(
            rd.from_pandas(edges),
            rd.from_pandas(pd.DataFrame({"node": ["a"]})),
            iters=4).to_pandas()
        assert set(out["node"]) == {"a", "b"}  # x, y unreached
        with _pt.raises(ValueError):
            pagerank_personalized(
                rd.from_pandas(edges),
                rd.from_pandas(pd.DataFrame({"node": ["zzz"]})))


class TestBroadcastBound:
    """The broadcast-only PageRank variants refuse a node set above
    ``graph.MAX_BROADCAST_NODES`` before collecting it to the driver."""

    EDGES = pd.DataFrame({"src": ["a", "b", "c"], "dst": ["b", "c", "d"],
                          "w": np.array([1, 2, 3], dtype=np.int64)})

    def test_weighted_and_personalized_raise_above_the_bound(self, ray_session,
                                                             monkeypatch):
        import pytest as _pt

        from whoiswho_ray.stages import graph

        monkeypatch.setattr(graph, "MAX_BROADCAST_NODES", 3)
        with _pt.raises(ValueError, match="4 nodes exceed the broadcast bound 3"):
            graph.pagerank_weighted(rd.from_pandas(self.EDGES))
        with _pt.raises(ValueError, match="4 nodes exceed the broadcast bound 3"):
            graph.pagerank_personalized(rd.from_pandas(self.EDGES),
                                        rd.from_pandas(pd.DataFrame({"node": ["a"]})))

    def test_at_the_bound_they_run(self, ray_session, monkeypatch):
        from whoiswho_ray.stages import graph

        monkeypatch.setattr(graph, "MAX_BROADCAST_NODES", 4)
        assert len(graph.pagerank_weighted(rd.from_pandas(self.EDGES)).to_pandas()) == 4
        out = graph.pagerank_personalized(rd.from_pandas(self.EDGES),
                                          rd.from_pandas(pd.DataFrame({"node": ["a"]})))
        assert set(out.to_pandas()["node"]) == {"a", "b", "c", "d"}
