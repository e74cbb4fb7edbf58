"""RND assignment pipeline: profiles, argmax-with-NIL, accuracy gate."""

import dataclasses
import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.evaluation import assignment_metrics
from whoiswho_ray.functions.hashing import record_id_of
from whoiswho_ray.pipelines.rnd import NIL, run_rnd


@pytest.fixture(scope="module")
def rnd_setup(small_fixture):
    spec, tabs = small_fixture
    rec = tabs["records"].to_pandas()
    tru = tabs["ground_truth"].to_pandas()
    rec["record_id"] = [record_id_of(r, p, c)
                        for r, p, c in zip(rec["repo"], rec["path"], rec["commit"])]
    rec = rec.merge(tru[["record_id", "entity_id"]], on="record_id")
    # hold out every 5th record per entity as "new"; keep the rest as known
    rec["rank_in_entity"] = rec.groupby("entity_id").cumcount()
    is_new = rec["rank_in_entity"] % 5 == 4
    known = rec[~is_new]
    new = rec[is_new]
    cfg = SNDConfig()
    known_ds = rd.from_pandas(known[["repo", "path", "commit", "lang", "content"]])
    new_ds = rd.from_pandas(new[["repo", "path", "commit", "lang", "content"]])
    assigned = run_rnd(known_ds, new_ds, cfg).to_pandas()
    return known, new, tru, assigned


class TestRND:
    def test_every_new_record_assigned_once(self, rnd_setup):
        known, new, tru, assigned = rnd_setup
        assert len(assigned) == len(new)
        assert assigned["record_id"].is_unique

    def test_assignment_accuracy_gate(self, rnd_setup):
        known, new, tru, assigned = rnd_setup
        # cluster_truth: which entity each predicted cluster mostly holds
        from whoiswho_ray.pipelines.snd import run_snd

        known_ds = rd.from_pandas(known[["repo", "path", "commit", "lang", "content"]])
        clusters = run_snd(known_ds).to_pandas()
        cluster_truth = clusters.merge(
            tru[["record_id", "entity_id"]], on="record_id")
        m = assignment_metrics(assigned, new[["record_id", "entity_id"]], cluster_truth)
        assert m["accuracy"] >= 0.97, m
        assert m["weighted_f1"] >= 0.97, m

    def test_learned_assignment_accuracy(self, rnd_setup):
        """The KNRM-feature ensemble path (fit on known records, assign
        held-out ones) must reach the same accuracy gate as the
        fixed-weight centroid path — the reference's feature→GBDT→assign
        lifecycle end to end."""
        from whoiswho_ray.pipelines.rnd import run_rnd_learned
        from whoiswho_ray.pipelines.snd import run_snd

        known, new, tru, _ = rnd_setup
        cols = ["repo", "path", "commit", "lang", "content"]
        known_ds = rd.from_pandas(known[cols])
        new_ds = rd.from_pandas(new[cols])
        assigned = run_rnd_learned(known_ds, new_ds).to_pandas()
        assert len(assigned) == len(new)
        assert assigned["record_id"].is_unique
        clusters = run_snd(rd.from_pandas(known[cols])).to_pandas()
        cluster_truth = clusters.merge(
            tru[["record_id", "entity_id"]], on="record_id")
        m = assignment_metrics(assigned, new[["record_id", "entity_id"]],
                               cluster_truth)
        assert m["accuracy"] >= 0.9, m

    def test_nil_for_foreign_block(self):
        """Records whose block has no profiles must come back NIL."""
        cfg = SNDConfig()
        known = pd.DataFrame({
            "repo": ["o/a"] * 4,
            "path": [f"src/known.py"] * 4,
            "commit": [f"c{i}" for i in range(4)],
            "lang": ["py"] * 4,
            "content": ["alpha beta gamma delta"] * 4,
        })
        new = pd.DataFrame({
            "repo": ["o/b"],
            "path": ["src/unseen_thing.py"],
            "commit": ["z1"],
            "lang": ["py"],
            "content": ["epsilon zeta eta theta"],
        })
        out = run_rnd(rd.from_pandas(known), rd.from_pandas(new), cfg).to_pandas()
        assert out["assigned_cluster"].tolist() == [NIL]


class TestKnrmFeatures:
    def test_member_retention_and_knrm_separation(self, ray_cluster=None):
        """Profiles keep capped member vectors; KNRM features distinguish
        'one member matches exactly' from 'uniformly similar to the
        centroid' — the multi-resolution signal the centroid cosine loses."""
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from whoiswho_ray.pipelines.rnd import build_profiles, rnd_knrm_features

        # two profiles in one block: P1 has heterogeneous members (one of
        # them IDENTICAL to the query record), P2's members are all
        # moderately similar to the query
        def vec_row(rid, bk, ids, w):
            return {"record_id": rid, "block_key": bk, "name": rid,
                    "tok_ids": np.asarray(ids, np.int64),
                    "repo_ids": np.empty(0, np.int64),
                    "ctx_ids": np.empty(0, np.int64),
                    "tfv_ids": np.asarray(ids, np.int64),
                    "tfv_w": np.asarray(w, np.float32)}

        # unit-norm sparse vectors (cosine_sparse assumes normalized input)
        q_ids, q_w = [1, 2], [0.6, 0.8]
        members = [
            ("m1", q_ids, q_w),                # identical to query (cos=1)
            ("m2", [7, 8], [0.6, 0.8]),        # disjoint (cos=0)
            ("m3", [1, 9], [0.6, 0.8]),        # partial (cos=0.36)
            ("m4", [2, 9], [0.8, 0.6]),        # partial (cos=0.64)
        ]
        rows = [vec_row(r, "bk", i, w) for r, i, w in members]
        vec = rd.from_pandas(pd.DataFrame(rows))
        clusters = rd.from_pandas(pd.DataFrame({
            "record_id": ["m1", "m2", "m3", "m4"],
            "cluster_id": ["P1", "P1", "P2", "P2"],
        }))
        profs = build_profiles(vec, clusters, keep_members=8)
        pdf = profs.to_pandas()
        assert "member_tfv_ids" in pdf.columns
        assert sorted(len(m) for m in pdf["member_tfv_ids"]) == [2, 2]

        newrec = rd.from_pandas(pd.DataFrame([vec_row("q0", "bk", q_ids, q_w)]))
        feats = rnd_knrm_features(newrec, profs).to_pandas()
        assert len(feats) == 2
        f = feats.set_index("candidate_cluster")["k20"]
        # exact-match kernel (last) fires for P1 (contains the identical
        # member), not for P2
        assert f["P1"] > f["P2"] + 1.0


class TestGraphFeatures:
    """Ego-graph feature family (graph_features.py:62-120 analog):
    second-hop common-neighbor structure that direct similarity misses."""

    @staticmethod
    def _vec_row(rid, bk, ids, w):
        return {"record_id": rid, "block_key": bk, "name": rid,
                "tok_ids": np.asarray(ids, np.int64),
                "repo_ids": np.empty(0, np.int64),
                "ctx_ids": np.empty(0, np.int64),
                "tfv_ids": np.asarray(ids, np.int64),
                "tfv_w": np.asarray(w, np.float32)}

    def test_common_neighbor_counts(self, ray_session, monkeypatch):
        from whoiswho_ray.pipelines import rnd

        # q links ONLY m_a (in P2); m_a links P1's member m1.
        # -> g_deg(q,P2)=1, g_deg(q,P1)=0, g_cn(q,P1)=1 (via m_a), g_cn(q,P2)=0
        rows = [
            self._vec_row("m1", "bk", [10, 11], [0.6, 0.8]),   # P1
            self._vec_row("m2", "bk", [20, 21], [0.6, 0.8]),   # P1
            self._vec_row("ma", "bk", [1, 10, 11], [0.5774] * 3),  # P2: links q (1) and m1
            self._vec_row("mb", "bk", [30, 31], [0.6, 0.8]),   # P2
        ]
        vec = rd.from_pandas(pd.DataFrame(rows))
        clusters = rd.from_pandas(pd.DataFrame({
            "record_id": ["m1", "m2", "ma", "mb"],
            "cluster_id": ["P1", "P1", "P2", "P2"],
        }))
        profs = rnd.build_profiles(vec, clusters, keep_members=8).take_batch(
            10, batch_format="pyarrow")
        q = pa.Table.from_pylist([self._vec_row("q0", "bk", [1, 2], [0.9, 0.436])])
        # the threshold is read where the kernel runs: run it here
        monkeypatch.setattr(rnd, "GRAPH_TAU", 0.4)
        part = pa.concat_tables([rnd._tag(q, 0, members=True),
                                 rnd._tag(profs, 1, members=True)])
        f = rnd.knrm_kernel(part, with_graph=True).to_pandas().set_index("candidate_cluster")
        # cos(q, ma) = 0.9*0.5774 = 0.52 >= 0.4; cos(ma, m1) = 2*0.5774*0.7 dot...
        assert f.loc["P2", "g_deg"] == 1.0
        assert f.loc["P1", "g_deg"] == 0.0
        assert f.loc["P1", "g_cn"] == 1.0
        assert f.loc["P2", "g_cn"] == 0.0

    def test_knrm_values_match_per_pair_reference(self, ray_session):
        """The engine's KNRM features are ``knrm_profile_features`` of the
        record against each profile's members (VERDICT r2 #7)."""
        from whoiswho_ray.functions.similarity import knrm_profile_features
        from whoiswho_ray.pipelines.rnd import (KNRM_FEATURES, build_profiles,
                                                rnd_knrm_features)

        rng = np.random.RandomState(5)
        members, clusters_rows = [], []
        for p in range(3):
            for m in range(4):
                ids = np.sort(rng.choice(100, 6, replace=False)).astype(np.int64)
                w = rng.rand(6); w = w / np.linalg.norm(w)
                members.append(self._vec_row(f"m{p}_{m}", "bk", ids, w))
                clusters_rows.append({"record_id": f"m{p}_{m}",
                                      "cluster_id": f"P{p}"})
        vec = rd.from_pandas(pd.DataFrame(members))
        profs = build_profiles(vec, rd.from_pandas(pd.DataFrame(clusters_rows)),
                               keep_members=8)
        q_ids = np.sort(rng.choice(100, 6, replace=False)).astype(np.int64)
        q_w = rng.rand(6); q_w = q_w / np.linalg.norm(q_w)
        q = rd.from_pandas(pd.DataFrame([self._vec_row("q0", "bk", q_ids, q_w)]))
        got = rnd_knrm_features(q, profs).to_pandas().set_index("candidate_cluster")
        assert sorted(got.index) == ["P0", "P1", "P2"]

        q_w32 = q_w.astype(np.float32).astype(np.float64)  # pipeline stores float32
        for p in got.index:
            mine = [r for r, c in zip(members, clusters_rows) if c["cluster_id"] == p]
            want = knrm_profile_features(q_ids, q_w32, [r["tfv_ids"] for r in mine],
                                         [r["tfv_w"].astype(np.float64) for r in mine])
            np.testing.assert_allclose(got.loc[p, list(KNRM_FEATURES)].to_numpy(np.float64),
                                       want, rtol=0, atol=1e-12)

    def test_learned_with_graph_meets_gate(self, rnd_setup):
        from whoiswho_ray.pipelines.rnd import run_rnd_learned
        from whoiswho_ray.pipelines.snd import run_snd

        known, new, tru, _ = rnd_setup
        cols = ["repo", "path", "commit", "lang", "content"]
        assigned = run_rnd_learned(rd.from_pandas(known[cols]),
                                   rd.from_pandas(new[cols]),
                                   with_graph=True).to_pandas()
        clusters = run_snd(rd.from_pandas(known[cols])).to_pandas()
        cluster_truth = clusters.merge(tru[["record_id", "entity_id"]],
                                       on="record_id")
        m = assignment_metrics(assigned, new[["record_id", "entity_id"]],
                               cluster_truth)
        assert m["accuracy"] >= 0.9, m


class TestEnsembleSampling:
    def test_max_train_records_bounds_collect(self, rnd_setup):
        """fit_rnd_ensemble with a forced-low cap trains on a deterministic
        hash sample and reports it (VERDICT r2 #8)."""
        from whoiswho_ray.pipelines.rnd import (build_profiles, fit_rnd_ensemble,
                                                rnd_knrm_features)
        from whoiswho_ray.pipelines.snd import run_snd, snd_cluster
        from whoiswho_ray.stages.idf import build_idf
        from whoiswho_ray.stages.normalize import normalize_records
        from whoiswho_ray.stages.scoring import vectorize

        known, new, tru, _ = rnd_setup
        cols = ["repo", "path", "commit", "lang", "content"]
        known_ds = rd.from_pandas(known[cols])
        norm = normalize_records(known_ds).materialize()
        idf = build_idf(norm)
        vec = vectorize(norm, idf).materialize()
        clusters = snd_cluster(norm, vec).materialize()
        profiles = build_profiles(vec, clusters, keep_members=8).materialize()
        cap = 20
        model, diag = fit_rnd_ensemble(vec, profiles, clusters,
                                       max_train_records=cap)
        assert diag["n_train_records"] == cap
        # deterministic: same cap -> same sample -> same model predictions
        model2, diag2 = fit_rnd_ensemble(vec, profiles, clusters,
                                         max_train_records=cap)
        assert diag2["n_train_records"] == cap
        feats = rnd_knrm_features(vec, profiles).to_pandas()
        assert np.array_equal(model.predict_proba(feats), model2.predict_proba(feats))
        # the fit reads its rows in a fixed order: the known records'
        # partitioning does not move the model by a bit
        for parts in (1, 5):
            again, _ = fit_rnd_ensemble(vec.repartition(parts), profiles, clusters)
            if parts == 1:
                whole = again
            else:
                assert pickle.dumps(again.cells) == pickle.dumps(whole.cells)


NAMES = ["model.py", "Model.py", "util.py", None, "b.py"]


def _attached(seed: int = 0, n_clusters: int = 12, vocab: int = 10**9) -> pa.Table:
    """A profile-kernel partition: full-encoding records of several
    clusters, sorted by cluster (``block_key``), records of a cluster in
    no particular record_id order, ids shared between members, some
    names missing, one member-less id family. A small ``vocab`` makes
    clusters share ids too."""
    rng = np.random.RandomState(seed)
    rows = []
    for c in range(n_clusters):
        pool = np.unique(rng.randint(0, vocab, 24)).astype(np.int64)
        for i in rng.permutation(int(rng.randint(1, 9))):
            tok = np.unique(rng.choice(pool, rng.randint(0, 14)))
            tfv = tok[rng.rand(tok.size) < 0.8]
            w = rng.rand(tfv.size).astype(np.float32)
            rows.append({
                "record_id": f"r{c:02d}-{i}-{rng.randint(1000):03d}",
                "block_key": f"c{c:02d}", "member_key": f"bk{c % 4}",
                "name": NAMES[rng.randint(len(NAMES))] if c != 3 else None,
                "tok_ids": tok, "repo_ids": np.unique(rng.choice(pool[:4], rng.randint(0, 3))),
                "ctx_ids": np.empty(0, np.int64) if c == 5 else np.unique(
                    rng.choice(pool[4:10], rng.randint(0, 4))),
                "tfv_ids": tfv, "tfv_w": w / max(float(np.linalg.norm(w)), 1e-9)})
    ids = pa.list_(pa.int64())
    return pa.table({
        **{k: pa.array([r[k] for r in rows], pa.string())
           for k in ("record_id", "block_key", "member_key", "name")},
        **{k: pa.array([r[k].tolist() for r in rows], ids)
           for k in ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids")},
        "tfv_w": pa.array([r["tfv_w"].tolist() for r in rows], pa.list_(pa.float32()))})


def _reference_profiles(t: pa.Table, cap: int, keep_members: int) -> pd.DataFrame:
    """The profile rule one cluster at a time, in plain numpy/pandas."""
    out = []
    for cid, g in t.to_pandas().groupby("block_key", sort=True):
        g = g.sort_values("record_id")

        def union(col):
            allv = np.concatenate([np.asarray(a, np.int64) for a in g[col]])
            ids, counts = np.unique(allv, return_counts=True)
            if ids.size > cap:
                ids = np.sort(ids[np.argsort(-counts, kind="stable")[:cap]])
            return ids

        tfv = union("tfv_ids")
        acc = np.zeros(tfv.size)
        for ids, w in zip(g["tfv_ids"], g["tfv_w"]):
            for v, x in zip(ids, w):
                if v in tfv:
                    acc[np.searchsorted(tfv, v)] += np.float64(x)
        if np.linalg.norm(acc) > 0:
            acc /= np.linalg.norm(acc)
        modes = g["name"].dropna().mode()
        row = {"cluster_id": cid, "block_key": g["member_key"].iloc[0],
               "name": modes.iloc[0] if len(modes) else None, "n_members": len(g),
               **{c: union(c) for c in ("tok_ids", "repo_ids", "ctx_ids")},
               "tfv_ids": tfv, "tfv_w": acc.astype(np.float32)}
        if keep_members:
            head = g.head(keep_members)
            row["member_tfv_ids"] = [np.asarray(x, np.int64) for x in head["tfv_ids"]]
            row["member_tfv_w"] = [np.asarray(x, np.float64) for x in head["tfv_w"]]
        out.append(row)
    return pd.DataFrame(out)


class TestProfileKernel:
    @pytest.mark.parametrize("cap,keep_members", [(256, 0), (5, 3)])
    def test_equals_the_per_cluster_rule(self, monkeypatch, cap, keep_members):
        """Capped unions (most frequent first, ties by the smaller id),
        the record_id-ordered centroid, the modal name (ties to the
        smallest, none for a nameless cluster) and the member prefix."""
        from whoiswho_ray.pipelines import rnd

        monkeypatch.setattr(rnd, "PROFILE_TOKEN_CAP", cap)
        t = _attached()
        got = rnd.profile_kernel(t, keep_members).to_pandas()
        want = _reference_profiles(t, cap, keep_members)
        assert list(got["cluster_id"]) == list(want["cluster_id"])
        for c in ("block_key", "name", "n_members"):
            assert list(got[c]) == list(want[c]), c
        capped = False
        for c in ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids"):
            for a, b in zip(got[c], want[c]):
                np.testing.assert_array_equal(np.asarray(a, np.int64), b, err_msg=c)
                capped |= len(b) == cap
        assert capped == (cap == 5)
        for a, b in zip(got["tfv_w"], want["tfv_w"]):
            np.testing.assert_allclose(np.asarray(a, np.float64), b, rtol=1e-6, atol=0)
        for c in ("member_tfv_ids", "member_tfv_w") if keep_members else ():
            for a, b in zip(got[c], want[c]):
                assert len(a) == len(b) == min(keep_members, len(a))
                for x, y in zip(a, b):
                    np.testing.assert_array_equal(np.asarray(x), y)

    def test_partition_cuts_and_empty_partition(self):
        from whoiswho_ray.pipelines.rnd import profile_kernel

        t = _attached(seed=1)
        for keep in (0, 4):
            whole = profile_kernel(t, keep)
            starts = np.flatnonzero(np.r_[True, np.asarray(t["block_key"])[1:]
                                          != np.asarray(t["block_key"])[:-1]])
            cuts = [0, int(starts[3]), int(starts[8]), t.num_rows]
            parts = [profile_kernel(t.slice(a, b - a), keep) for a, b in zip(cuts, cuts[1:])]
            assert pa.concat_tables(parts).equals(whole)
            assert profile_kernel(t.slice(0, 0), keep).schema == whole.schema


def _assign_partition(seed: int = 0, keep_members: int = 0, vocab: int = 10**9
                      ) -> tuple[pa.Table, pa.Table, pa.Table]:
    """(profiles, new records, their assignment partition), each side
    tagged as the engine tags it: new records in the profiles' blocks,
    two identical profiles in one block (a score tie) and one block with
    no profile. ``keep_members`` keeps that many members per profile
    and tags both sides with them (the KNRM partition)."""
    from whoiswho_ray.pipelines.rnd import _tag, profile_kernel

    t = _attached(seed, vocab=vocab)
    profs = profile_kernel(t, keep_members)
    profs = pa.concat_tables([profs, profs.slice(0, 1).set_column(
        0, "cluster_id", pa.array(["c00-twin"]))])
    rng = np.random.RandomState(seed + 7)
    recs = t.to_pandas().sample(frac=0.6, random_state=seed).assign(
        block_key=lambda d: d["member_key"])
    recs["record_id"] = [f"new-{i:03d}" for i in range(len(recs))]
    recs = pd.concat([recs, recs.iloc[:2].assign(block_key="bk-unseen",
                                                  record_id=["new-x", "new-y"])])
    recs["tok_ids"] = [np.unique(np.r_[a, rng.randint(0, 10**9, 2)]).astype(np.int64)
                       for a in recs["tok_ids"]]
    ids = pa.list_(pa.int64())
    recs = pa.table({
        **{k: pa.array(recs[k], pa.string()) for k in ("record_id", "block_key", "name")},
        **{k: pa.array([np.asarray(x, np.int64).tolist() for x in recs[k]], ids)
           for k in ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids")},
        "tfv_w": pa.array([np.asarray(x, np.float32).tolist() for x in recs["tfv_w"]],
                          pa.list_(pa.float32()))})
    recs_t = _tag(recs, 0, members=bool(keep_members))
    profs_t = _tag(profs, 1, members=bool(keep_members))
    part = pa.concat_tables([recs_t, profs_t])
    part = part.take(pc.sort_indices(part, sort_keys=[("block_key", "ascending")]))
    return profs_t, recs_t, part


def _brute_best(recs: pd.DataFrame, profs: pd.DataFrame, cfg: SNDConfig) -> dict:
    """record_id → (best score, its cluster_id, n_candidates) by the
    scalar scorer (ties: the smallest cluster_id)."""
    from whoiswho_ray.stages.scoring import score_pair_arrays

    out = {}
    for r in recs.itertuples():
        cands = profs[profs["block_key"] == r.block_key].sort_values("record_id")
        best = (0.0, NIL)
        for p in cands.itertuples():
            s = score_pair_arrays(
                np.asarray(r.tok_ids), np.asarray(p.tok_ids), np.asarray(r.repo_ids),
                np.asarray(p.repo_ids), np.asarray(r.ctx_ids), np.asarray(p.ctx_ids),
                np.asarray(r.tfv_ids), np.asarray(r.tfv_w, np.float64), np.asarray(p.tfv_ids),
                np.asarray(p.tfv_w, np.float64), r.name or "", p.name or "", cfg)[-1]
            if best[1] == NIL or s > best[0]:
                best = (s, p.record_id)
        out[r.record_id] = (*best, len(cands))
    return out


class TestAssignKernel:
    def test_argmax_nil_and_ties_match_the_scalar_scorer(self):
        from whoiswho_ray.pipelines.rnd import assign_kernel

        profs, recs, part = _assign_partition()
        brute = _brute_best(recs.to_pandas(), profs.to_pandas(), SNDConfig())
        scores = sorted(b[0] for b in brute.values() if b[2])
        cfg = dataclasses.replace(SNDConfig(), tau_edge=scores[len(scores) // 2])
        got = assign_kernel(part, cfg).to_pandas().set_index("record_id")
        assert sorted(got.index) == sorted(brute)
        n_nil = 0
        for rid, (s, cid, n) in brute.items():
            row = got.loc[rid]
            assert row["n_candidates"] == n, rid
            assert abs(row["score"] - s) <= 1e-12, rid
            nil = n == 0 or s < cfg.tau_edge
            assert row["assigned_cluster"] == (NIL if nil else cid), rid
            n_nil += nil
        assert 0 < n_nil < len(brute)
        assert got.loc[["new-x", "new-y"], "n_candidates"].tolist() == [0, 0]
        # the twin profile ties its original; the smaller cluster_id wins
        twin_block = profs.to_pandas().set_index("record_id").loc["c00-twin", "block_key"]
        tied = got[(got["block_key"] == twin_block) & (got["assigned_cluster"] != NIL)]
        assert "c00-twin" not in set(tied["assigned_cluster"])

    def test_empty_partition_keeps_the_typed_schema(self):
        from whoiswho_ray.pipelines.rnd import assign_kernel

        _, _, part = _assign_partition()
        assert assign_kernel(part.slice(0, 0), SNDConfig()).schema == \
            assign_kernel(part, SNDConfig()).schema


def _cuts(part: pa.Table, n: int) -> list:
    """A key-sorted partition cut at block boundaries into ``n`` parts."""
    keys = np.asarray(part["block_key"].to_pylist(), object)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    inner = starts[np.linspace(0, starts.size, n + 1).astype(int)[1:-1]]
    cuts = [0, *inner.tolist(), part.num_rows]
    return [part.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]


def _block_cells(recs: pd.DataFrame, profs: pd.DataFrame):
    """Every (record, profile of its block) in record-major, cluster_id order."""
    for r in recs.itertuples():
        for p in profs[profs["block_key"] == r.block_key].sort_values("record_id").itertuples():
            yield r, p


def _ego_reference(recs: pd.DataFrame, profs: pd.DataFrame, tau: float) -> dict:
    """(record_id, cluster_id) → (g_deg, g_frac, g_cn, g_cnf), one
    record and one candidate at a time, every cosine from
    ``cosine_sparse``."""
    from whoiswho_ray.functions.similarity import cosine_sparse

    def cos(a, b):
        return cosine_sparse(np.asarray(a[0], np.int64), np.asarray(a[1], np.float64),
                             np.asarray(b[0], np.int64), np.asarray(b[1], np.float64))

    out = {}
    for r, p in _block_cells(recs, profs):
        block = profs[profs["block_key"] == r.block_key]
        mem = [(q.record_id, (i, w)) for q in block.itertuples()
               for i, w in zip(q.member_tfv_ids, q.member_tfv_w)]
        linked = [cos((r.tfv_ids, r.tfv_w), m) >= tau for _, m in mem]
        own = [c == p.record_id for c, _ in mem]
        deg = sum(l and o for l, o in zip(linked, own))
        cn = sum(l and not o and any(cos(m, mc) >= tau for mc, oc in zip(
                     [x for _, x in mem], own) if oc)
                 for l, o, (_, m) in zip(linked, own, mem))
        out[r.record_id, p.record_id] = (deg, deg / max(sum(own), 1), cn,
                                         cn / max(sum(linked) - deg, 1))
    return out


class _StubModel:
    """A fixed logistic function of two KNRM features."""

    def predict_proba(self, feats: pd.DataFrame) -> np.ndarray:
        z = feats["k20"].to_numpy() + 0.5 * feats["k16"].to_numpy() + 1.0
        return 1.0 / (1.0 + np.exp(-z))


class TestKnrmKernel:
    @pytest.mark.parametrize("n_parts", [1, 3])
    def test_equals_knrm_profile_features(self, n_parts):
        """Every record × every profile of its block, record-major with
        the profiles in cluster_id order, each row the reference's
        per-profile KNRM pooling to 1e-12, however the blocks are cut."""
        from whoiswho_ray.functions.similarity import knrm_profile_features
        from whoiswho_ray.pipelines.rnd import KNRM_FEATURES, knrm_kernel

        profs, recs, part = _assign_partition(keep_members=4, vocab=60)
        parts = _cuts(part, n_parts)
        assert len(parts) == n_parts
        got = pa.concat_tables([knrm_kernel(p) for p in parts]).to_pandas()
        keyed = got.set_index(["record_id", "candidate_cluster"])
        want = list(_block_cells(recs.to_pandas(), profs.to_pandas()))
        assert sorted(keyed.index) == sorted((r.record_id, p.record_id) for r, p in want)
        for rid, g in got.groupby("record_id", sort=False):
            assert list(g["candidate_cluster"]) == sorted(g["candidate_cluster"])
            assert np.ptp(g.index.to_numpy()) == len(g) - 1  # a record's rows are adjacent
        assert got["block_key"].nunique() >= 3
        for r, p in want:
            ref = knrm_profile_features(
                np.asarray(r.tfv_ids, np.int64), np.asarray(r.tfv_w, np.float64),
                [np.asarray(x, np.int64) for x in p.member_tfv_ids],
                [np.asarray(x, np.float64) for x in p.member_tfv_w])
            np.testing.assert_allclose(
                keyed.loc[(r.record_id, p.record_id), list(KNRM_FEATURES)].to_numpy(np.float64),
                ref, rtol=0, atol=1e-12)

    def test_graph_features_equal_a_per_block_reference(self):
        from whoiswho_ray.pipelines.rnd import GRAPH_FEATURES, GRAPH_TAU, knrm_kernel

        profs, recs, part = _assign_partition(keep_members=4, vocab=60)
        got = pa.concat_tables([knrm_kernel(p, with_graph=True) for p in _cuts(part, 3)]
                               ).to_pandas().set_index(["record_id", "candidate_cluster"])
        want = _ego_reference(recs.to_pandas(), profs.to_pandas(), GRAPH_TAU)
        assert sorted(got.index) == sorted(want)
        for key, row in want.items():
            assert tuple(got.loc[key, list(GRAPH_FEATURES)]) == row, key
        assert (got["g_cn"] > 0).any() and (got["g_deg"] > 0).any()

    def test_learned_argmax_ties_and_nil(self, monkeypatch):
        """The best cell by prob (ties to the smaller cluster_id) is
        assigned at TAU_PROB and above; a record with no candidate gets
        NIL, prob -1.0 and no candidates."""
        from whoiswho_ray.pipelines import rnd

        _, recs, part = _assign_partition(keep_members=4, vocab=60)
        cells = rnd.knrm_kernel(part).to_pandas()
        cells["prob"] = _StubModel().predict_proba(cells)
        best = {rid: g.sort_values(["prob", "candidate_cluster"],
                                   ascending=[False, True]).iloc[0]
                for rid, g in cells.groupby("record_id")}
        probs = sorted(b["prob"] for b in best.values())
        monkeypatch.setattr(rnd, "TAU_PROB", probs[len(probs) // 2])
        got = rnd.learned_kernel(part, _StubModel()).to_pandas().set_index("record_id")
        assert sorted(got.index) == sorted(recs["record_id"].to_pylist())
        n_nil = 0
        for rid, row in got.iterrows():
            if rid not in best:
                assert (row["assigned_cluster"], row["prob"], row["n_candidates"]) == \
                    (NIL, -1.0, 0)
                continue
            b = best[rid]
            assert row["prob"] == b["prob"]
            assert row["n_candidates"] == (cells["record_id"] == rid).sum()
            nil = b["prob"] < rnd.TAU_PROB
            assert row["assigned_cluster"] == (NIL if nil else b["candidate_cluster"])
            n_nil += nil
        assert 0 < n_nil < len(best)
        assert {"new-x", "new-y"} <= set(got.index) - set(best)
        assert "c00-twin" not in set(got["assigned_cluster"])

    def test_empty_partitions_keep_the_typed_schema(self):
        from whoiswho_ray.pipelines.rnd import knrm_kernel, learned_kernel

        _, _, part = _assign_partition(keep_members=4, vocab=60)
        empty = part.slice(0, 0)
        for graph in (False, True):
            assert knrm_kernel(empty, graph).schema == knrm_kernel(part, graph).schema
        assert learned_kernel(empty, _StubModel()).schema == \
            learned_kernel(part, _StubModel()).schema


def test_learned_path_finishes_at_one_cpu(rnd_setup, tmp_path, run_at_one_cpu):
    """``run_rnd_learned`` completes in a Ray session of one CPU."""
    known, new, _, _ = rnd_setup
    cols = ["repo", "path", "commit", "lang", "content"]
    known[cols].to_parquet(tmp_path / "known.parquet")
    new[cols].to_parquet(tmp_path / "new.parquet")
    out = run_at_one_cpu(
        "from whoiswho_ray.pipelines.rnd import run_rnd_learned\n"
        "print(run_rnd_learned(sys.argv[1], sys.argv[2]).count())\n",
        tmp_path / "known.parquet", tmp_path / "new.parquet")
    assert int(out.split()[-1]) == len(new)


class TestRndOnTheEngine:
    @pytest.fixture(scope="class")
    def encoded(self, rnd_setup):
        from whoiswho_ray.pipelines.rnd import _encode, build_profiles

        known, new, _, _ = rnd_setup
        cols = ["repo", "path", "commit", "lang", "content"]
        cfg = SNDConfig()
        known_vec, clusters, new_vec = _encode(rd.from_pandas(known[cols]),
                                               rd.from_pandas(new[cols]), cfg)
        return cfg, new_vec.materialize(), build_profiles(known_vec, clusters)

    def test_scores_are_the_scalar_scores_of_the_read_back_profiles(self, rnd_setup,
                                                                    encoded):
        """Every assigned score is the scalar score of the record and the
        profile ``build_profiles`` returns, the best of its block, and NIL
        is given exactly below ``tau_edge``."""
        cfg, new_vec, profiles = encoded
        assigned = rnd_setup[3].set_index("record_id")
        recs = new_vec.to_pandas()
        profs = profiles.to_pandas().rename(columns={"cluster_id": "record_id"})
        brute = _brute_best(recs, profs, cfg)
        assert set(brute) == set(assigned.index)
        for rid, (s, cid, n) in brute.items():
            row = assigned.loc[rid]
            assert row["n_candidates"] == n
            assert abs(row["score"] - s) <= 1e-12
            want = cid if n and s >= cfg.tau_edge else NIL
            assert row["assigned_cluster"] == want
        assert (assigned["assigned_cluster"] != NIL).any()

    def test_empty_new_records_give_typed_zero_rows(self, encoded):
        from whoiswho_ray.pipelines.rnd import _ASSIGN_SCHEMA, assign_records

        cfg, new_vec, profiles = encoded
        out = assign_records(new_vec.limit(0), profiles, cfg)
        assert out.count() == 0
        assert out.schema().base_schema == _ASSIGN_SCHEMA
