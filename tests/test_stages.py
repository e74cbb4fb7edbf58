"""Normalize / idf / pairs / scoring stage tests."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.functions.hashing import sha256_hex, stable_hash64
from whoiswho_ray.stages.idf import build_idf
from whoiswho_ray.stages.normalize import normalize_batch, normalize_records
from whoiswho_ray.stages.pairs import candidate_index_pairs, make_pairs
from whoiswho_ray.stages.scoring import score_pair_arrays


def _records_batch():
    return pa.table(
        {
            "repo": ["org/alpha", "org/alpha", "other/beta"],
            "path": ["src/Mod_A.py", "lib/moda.py", "x/ModA.py"],
            "commit": ["c1", "c2", "c3"],
            "lang": ["py", "py", "py"],
            "content": ["foo bar baz", "foo bar qux", "zap zip zup"],
        }
    )


class TestNormalize:
    def test_batch_output(self):
        out = normalize_batch(_records_batch(), SNDConfig())
        df = out.to_pandas()
        assert df["block_key"].tolist() == ["moda", "moda", "moda"]
        assert df["content_sha256"].iloc[0] == sha256_hex("foo bar baz")
        assert df["record_id"].is_unique
        toks0 = set(df["tok_ids"].iloc[0])
        assert stable_hash64("foo") in toks0 and stable_hash64("baz") in toks0

    def test_dataset_roundtrip(self):
        ds = rd.from_arrow(_records_batch())
        out = normalize_records(ds).to_pandas()
        assert len(out) == 3
        assert "content" not in out.columns  # content dropped after normalize


class TestIdf:
    def test_df_counts_and_pruning(self):
        tbl = _records_batch()
        norm = normalize_records(rd.from_arrow(tbl), SNDConfig(min_df=2))
        idf = build_idf(norm, SNDConfig(min_df=2))
        assert idf.n_records == 3
        # only foo, bar appear in >= 2 records
        assert idf.ids.size == 2
        kept = {stable_hash64("foo"), stable_hash64("bar")}
        assert set(idf.ids.tolist()) == kept
        assert np.all(np.diff(idf.ids) > 0)
        # df=2 of 3 records → idf = log1p(3/2)
        assert idf.idf[0] == pytest.approx(np.log1p(1.5), rel=1e-6)

    def test_lookup(self):
        tbl = _records_batch()
        cfg = SNDConfig(min_df=2)
        idf = build_idf(normalize_records(rd.from_arrow(tbl), cfg), cfg)
        q = np.sort(np.array([stable_hash64("foo"), stable_hash64("nope")], dtype=np.int64))
        ids, w = idf.lookup(q)
        assert ids.tolist() == [stable_hash64("foo")]
        assert w.size == 1

    def test_empty_docs_still_count_toward_n_records(self):
        """A batch of all-empty token lists must contribute its row count
        to n_records (ADVICE r1: the carrier row was dropped)."""
        ds = rd.from_arrow(pa.table({
            "tok_ids": pa.array([[], [], [7, 8]], pa.list_(pa.int64()))}))
        idf = build_idf(ds, SNDConfig(min_df=1))
        assert idf.n_records == 3
        assert set(idf.ids.tolist()) == {7, 8}
        # and the df=0 carrier never enters the vocab even with min_df=0
        idf0 = build_idf(ds, SNDConfig(min_df=0))
        assert set(idf0.ids.tolist()) == {7, 8}

    def test_all_empty_corpus(self):
        ds = rd.from_arrow(pa.table({
            "tok_ids": pa.array([[], []], pa.list_(pa.int64()))}))
        idf = build_idf(ds, SNDConfig(min_df=1))
        assert idf.n_records == 2
        assert idf.ids.size == 0


def _flatten(arrays):
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([a.size for a in arrays], out=offsets[1:])
    values = np.concatenate(arrays) if arrays else np.empty(0, np.int64)
    return values, offsets


class TestPairs:
    def test_allpairs_small_block(self):
        cfg = SNDConfig(max_allpairs_block=10)
        rids = np.array([f"r{i}" for i in range(5)], dtype=object)
        tv, to = _flatten([np.arange(3, dtype=np.int64)] * 5)
        repo_first = np.ones(5, dtype=np.int64)
        ii, jj, trunc = candidate_index_pairs(rids, tv, to, repo_first, cfg)
        assert ii.size == 10 and trunc == 0

    def test_salted_hot_block_connects_similar(self):
        """Records with near-identical token sets must share a sub-bucket
        even when the block exceeds the all-pairs cap."""
        cfg = SNDConfig(max_allpairs_block=10, lsh_bands=8, lsh_rows=2)
        rng = np.random.RandomState(0)
        n = 40
        base = np.unique(rng.randint(0, 2**62, 30))
        toks, rids, repo_first = [], [], []
        for i in range(n):
            # 20 clones of entity A, 20 of entity B
            pool = base if i < 20 else np.unique(rng.randint(0, 2**62, 30))
            drop = rng.choice(pool.size, 3, replace=False)
            toks.append(np.sort(np.delete(pool, drop)))
            rids.append(f"r{i:02d}")
            repo_first.append(1 if i < 20 else 2)
        tv, to = _flatten(toks)
        ii, jj, _ = candidate_index_pairs(
            np.array(rids, dtype=object), tv, to,
            np.array(repo_first, dtype=np.int64), cfg)
        # entity A's records form ONE connected set through emitted pairs —
        # the transitive-closure pass recovers what salting didn't score
        from whoiswho_ray.stages.cluster import UnionFind

        uf = UnionFind(n)
        for i, j in zip(ii.tolist(), jj.tolist()):
            uf.union(i, j)
        roots_a = {uf.find(i) for i in range(20)}
        assert len(roots_a) == 1

    def test_salting_determinism_and_order_invariance(self):
        cfg = SNDConfig(max_allpairs_block=5)
        rng = np.random.RandomState(1)
        n = 30
        toks = [np.unique(rng.randint(0, 2**62, 20)) for _ in range(n)]
        repo_first = np.array([i % 3 for i in range(n)], dtype=np.int64)
        rids = np.array([f"r{i:02d}" for i in range(n)], dtype=object)
        tv, to = _flatten(toks)
        i1, j1, _ = candidate_index_pairs(rids, tv, to, repo_first, cfg)
        perm = rng.permutation(n)
        tv2, to2 = _flatten([toks[i] for i in perm])
        i2, j2, _ = candidate_index_pairs(rids[perm], tv2, to2, repo_first[perm], cfg)
        set1 = {tuple(sorted((rids[i], rids[j]))) for i, j in zip(i1, j1)}
        set2 = {tuple(sorted((rids[perm][i], rids[perm][j]))) for i, j in zip(i2, j2)}
        assert set1 == set2

    def test_salted_pairs_keep_record_id_order(self):
        """Bucket members and window pairs come out in record_id order, so
        salted pairs need no orientation swap: record_ids[ii] <=
        record_ids[jj] with ii > jj common (rows are not in record_id
        order). The digest pins the output of the earlier code, which
        swapped any pair with record_ids[ii] > record_ids[jj]."""
        import hashlib

        cfg = SNDConfig(max_allpairs_block=50, max_pairs_per_group=2_000)
        rng = np.random.RandomState(7)
        n = 600
        rids = np.array([f"r{i:04d}" for i in rng.permutation(n)], dtype=object)
        tv, to = _flatten([np.unique(rng.randint(0, 40, rng.randint(0, 12))).astype(np.int64)
                           for _ in range(n)])
        repo_first = rng.randint(-1, 4, n).astype(np.int64)
        ii, jj, trunc = candidate_index_pairs(rids, tv, to, repo_first, cfg)
        assert ii.size == 17_071 and trunc == 22_141  # window pairs occur
        assert (rids[ii] <= rids[jj]).all() and (ii > jj).any()
        assert hashlib.sha256(ii.tobytes() + jj.tobytes()).hexdigest() == (
            "6f19860ea5026dc58e2f3f1dbf7ed1c34a811ce2627cc0e607a081b556288443")

    def test_make_pairs_payload(self):
        import pyarrow as pa

        cfg = SNDConfig()
        g = pa.table(
            {
                "block_key": ["bk"] * 3,
                "record_id": ["r1", "r2", "r3"],
                "name": ["a.py", "b.py", "c.py"],
                "tok_ids": pa.array([[1, 2], [2, 3], [5]], pa.list_(pa.int64())),
                "repo_ids": pa.array([[9]] * 3, pa.list_(pa.int64())),
                "ctx_ids": pa.array([[8]] * 3, pa.list_(pa.int64())),
                "tfv_ids": pa.array([[1]] * 3, pa.list_(pa.int64())),
                "tfv_w": pa.array([[1.0]] * 3, pa.list_(pa.float32())),
            }
        )
        out = make_pairs(g, cfg)
        assert out.num_rows == 3
        df = out.to_pandas()
        assert set(df.columns) >= {"block_key", "id_a", "id_b", "tok_a", "tok_b"}
        # payload gather is row-correct
        row = df[(df.id_a == "r1") & (df.id_b == "r2")].iloc[0]
        assert list(row["tok_a"]) == [1, 2] and list(row["tok_b"]) == [2, 3]


class TestShufflePartitions:
    """``2 × CPUs``, with no floor and no row term."""

    @pytest.mark.parametrize("n_cpus,want", [(1, 2), (2, 4), (8, 16), (32, 64)])
    def test_two_per_cpu(self, monkeypatch, n_cpus, want):
        import ray

        from whoiswho_ray.stages.pairs import shuffle_partitions

        monkeypatch.setattr(ray, "is_initialized", lambda: True)
        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(n_cpus)})
        assert shuffle_partitions() == want


class TestScoring:
    def test_score_pair_known_values(self):
        cfg = SNDConfig(w_tokens=1.0, w_repo=1.0, w_ctx=0.0, w_tfidf=0.0, w_name=0.0)
        a = np.array([1, 2, 3, 4], np.int64)
        b = np.array([3, 4, 5], np.int64)
        same = np.array([7], np.int64)
        e = np.empty(0, np.int64)
        ew = np.empty(0, np.float32)
        j, t, c, cos, jw, score = score_pair_arrays(
            a, b, same, same, e, e, e, ew, e, ew, "x.py", "x.py", cfg
        )
        assert j == pytest.approx(2 / 5)
        assert t == pytest.approx(1.0)
        assert score == pytest.approx(2 / 5 + 1.0)

    def test_vectorizer_all_empty_batch(self):
        """Non-empty vocab + batch whose every row has zero tokens must not
        crash (ADVICE r1: UnboundLocalError on 'pos')."""
        from whoiswho_ray.stages.idf import IdfModel
        from whoiswho_ray.stages.scoring import TfidfVectorizer

        idf = IdfModel(ids=np.array([5, 9], dtype=np.int64),
                       idf=np.array([1.0, 2.0], dtype=np.float32),
                       n_records=2, n_tokens_total=2, truncated=False)
        t = pa.table({"tok_ids": pa.array([[], [], []], pa.list_(pa.int64()))})
        out = TfidfVectorizer(idf)(t)
        assert out.column("tfv_ids").to_pylist() == [[], [], []]
        assert out.column("tfv_w").to_pylist() == [[], [], []]
