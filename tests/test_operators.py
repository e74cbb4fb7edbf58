"""Dedup / ANN / text-analysis / window / join operator tests."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd


@pytest.fixture(scope="module")
def docs_ds():
    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",      # exact dup of 0
        "the quick brown fox leaps over the lazy dog",      # near dup of 0
        "completely different content about ray data engines",
        "completely different content about ray data engines and arrow",  # near dup of 3
        "zzz yyy xxx www vvv uuu",
    ]
    df = pd.DataFrame({
        "doc_id": range(len(texts)),
        "text": texts,
        "source": ["s1", "s1", "s1", "s2", "s2", "s2"],
    })
    return rd.from_pandas(df)


def _near_dup_corpus(n_pairs: int) -> pd.DataFrame:
    """Deterministic corpus of n_pairs (original, 2-token-mutated) doc
    pairs over a 500-word vocabulary — every planted pair has distinct-token
    Jaccard 28/32 = 0.875."""
    rng = np.random.RandomState(7)
    vocab = np.array([f"w{i:03d}" for i in range(500)])
    texts, ids = [], []
    for i in range(n_pairs):
        base = rng.choice(vocab, 30, replace=False)
        texts.append(" ".join(base))
        ids.append(f"d{i:03d}a")
        mut = base.copy()
        mut[:2] = rng.choice(np.setdiff1d(vocab, base), 2, replace=False)
        texts.append(" ".join(mut))
        ids.append(f"d{i:03d}b")
    return pd.DataFrame({"doc_id": ids, "text": texts})


class TestDedup:
    def test_exact_dedup(self, docs_ds):
        from whoiswho_ray.stages.dedup import exact_dedup

        kept = exact_dedup(docs_ds).to_pandas()
        assert sorted(kept["doc_id"]) == [0, 2, 3, 4, 5]  # doc 1 deduped into 0

    def test_minhash_lsh_groups_near_dups(self, docs_ds):
        from whoiswho_ray.stages.dedup import minhash_lsh_dedup

        comp = minhash_lsh_dedup(docs_ds, threshold=0.7, bands=16, rows=4).to_pandas()
        g = comp.set_index("doc_id")["dup_group"]
        assert g[0] == g[1] == g[2]      # exact + near dup clustered
        assert g[3] == g[4]
        assert g[0] != g[3] and g[5] not in (g[0], g[3])

    def test_simhash_groups_exact_and_near(self, docs_ds):
        from whoiswho_ray.stages.dedup import simhash_dedup

        comp = simhash_dedup(docs_ds, max_hamming=6).to_pandas()
        g = comp.set_index("doc_id")["dup_group"]
        assert g[0] == g[1]
        assert g[0] != g[3]

    def test_line_dedup_removes_repeated_lines(self):
        import ray.data as rd

        from whoiswho_ray.stages.dedup import line_dedup

        docs = pd.DataFrame({
            "doc_id": [1, 2, 3, 4],
            "text": ["COMMON HEADER\nunique prose one\nCOMMON FOOTER",
                     "COMMON HEADER\nother text here\nCOMMON FOOTER",
                     "totally unique\nnothing shared",
                     "COMMON HEADER"],
        })
        out = line_dedup(rd.from_pandas(docs), min_docs=2).to_pandas()
        got = out.set_index("doc_id")
        assert got.loc[1, "text"] == "unique prose one"
        assert got.loc[2, "text"] == "other text here"
        # untouched doc keeps line structure
        assert got.loc[3, "text"] == "totally unique\nnothing shared"
        # every line removed → empty string, row kept
        assert got.loc[4, "text"] == ""
        assert got.loc[4, "n_removed"] == 1 and got.loc[4, "n_lines"] == 1
        assert got["n_removed"].tolist() == [2, 2, 0, 1]

    def test_line_dedup_min_docs_threshold(self):
        import ray.data as rd

        from whoiswho_ray.stages.dedup import line_dedup

        docs = pd.DataFrame({
            "doc_id": [1, 2, 3],
            "text": ["twice\nthrice", "twice\nthrice", "thrice"],
        })
        out = line_dedup(rd.from_pandas(docs), min_docs=3).to_pandas()
        got = out.set_index("doc_id")["text"]
        # only the 3-doc line crosses the threshold
        assert got[1] == "twice" and got[2] == "twice" and got[3] == ""

    def test_line_dedup_finishes_at_one_cpu(self, tmp_path, run_at_one_cpu):
        """``line_dedup`` over a parquet read completes in a Ray session of
        one CPU: its strip pass shares the one slot with the read tasks."""
        pd.DataFrame({
            "doc_id": list(range(40)),
            "text": [f"HEADER\nline {i % 7}\nFOOTER {i % 3}" for i in range(40)],
        }).to_parquet(tmp_path / "docs.parquet")
        out = run_at_one_cpu(
            "import ray.data as rd\n"
            "from whoiswho_ray.stages.dedup import line_dedup\n"
            "out = line_dedup(rd.read_parquet(sys.argv[1]), min_docs=2).to_pandas()\n"
            "print(len(out), int(out['n_removed'].sum()))\n",
            tmp_path / "docs.parquet")
        # every doc keeps its row; HEADER, each "line k" and "FOOTER k"
        # repeat across documents, so all 3 lines of each doc go
        assert out.split()[-2:] == ["40", "120"]

    def test_ngram_jaccard_pairs_exact(self, docs_ds):
        from whoiswho_ray.stages.dedup import ngram_jaccard_pairs

        pairs = ngram_jaccard_pairs(docs_ds, threshold=0.7).to_pandas()
        found = {(a, b) for a, b in zip(pairs["key_a"], pairs["key_b"])}
        assert (0, 1) in found and (0, 2) in found and (1, 2) in found
        # exact value check: docs 0/2 differ by one token out of 9 distinct
        row = pairs[(pairs.key_a == 0) & (pairs.key_b == 2)].iloc[0]
        assert row["jacc"] == pytest.approx(7 / 9)

    def test_minhash_distributed_equals_fast_path(self):
        """driver_max=0 forces the fully-distributed path (bucketed
        candidates → shuffle-join verify → star-contraction components);
        it must produce exactly the fast path's groups."""
        from whoiswho_ray.stages.dedup import minhash_lsh_dedup

        ds = rd.from_pandas(_near_dup_corpus(80))
        fast = minhash_lsh_dedup(ds, threshold=0.7).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        dist = minhash_lsh_dedup(ds, threshold=0.7, driver_max=0).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(fast, dist, check_dtype=False)
        # sanity: the planted pairs actually grouped
        g = fast.set_index("doc_id")["dup_group"]
        assert g["d000a"] == g["d000b"]

    def test_simhash_distributed_equals_fast_path(self):
        from whoiswho_ray.stages.dedup import simhash_dedup

        ds = rd.from_pandas(_near_dup_corpus(80))
        fast = simhash_dedup(ds, max_hamming=6).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        dist = simhash_dedup(ds, max_hamming=6, driver_max=0).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(fast, dist, check_dtype=False)

    def test_minhash_recall_vs_exact_oracle(self):
        """LSH recall against the exact all-pairs Jaccard oracle
        (ngram_jaccard_pairs) on a planted near-dup corpus: ≥ 0.9."""
        from whoiswho_ray.stages.dedup import minhash_lsh_dedup, ngram_jaccard_pairs

        df = _near_dup_corpus(60)
        df["source"] = "all"
        ds = rd.from_pandas(df)
        exact = ngram_jaccard_pairs(ds, threshold=0.8).to_pandas()
        truth = {frozenset((a, b)) for a, b in zip(exact["key_a"], exact["key_b"])}
        comp = minhash_lsh_dedup(ds, threshold=0.8, driver_max=0).to_pandas()
        g = comp.set_index("doc_id")["dup_group"]
        found = sum(1 for p in truth if len({g[k] for k in p}) == 1)
        assert truth, "oracle found no pairs — corpus generator broken"
        assert found / len(truth) >= 0.9

    def test_embedding_dup_pairs(self):
        from whoiswho_ray.stages.dedup import embedding_dup_pairs

        vecs = [
            [1.0, 0.0, 0.0], [0.999, 0.01, 0.0],   # near dups, label 0
            [0.0, 1.0, 0.0],                        # distinct, label 0
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],      # opposite, label 1
        ]
        df = pd.DataFrame({"vec_id": range(5), "embedding": vecs,
                           "label": [0, 0, 0, 1, 1]})
        out = embedding_dup_pairs(rd.from_pandas(df), threshold=0.95).to_pandas()
        assert [(r.key_a, r.key_b) for r in out.itertuples()] == [(0, 1)]


class TestKnn:
    def test_brute_exact(self):
        from whoiswho_ray.stages.similarity_search import knn_brute

        rng = np.random.RandomState(0)
        mat = rng.randn(200, 16)
        df = pd.DataFrame({"vec_id": range(200), "embedding": [v for v in mat]})
        qids = np.array([0, 1])
        out = knn_brute(rd.from_pandas(df), qids, mat[:2], k=3).to_pandas()
        # reference: full numpy
        unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = unit[:2] @ unit.T
        for qi in (0, 1):
            s = sims[qi].copy()
            s[qi] = -np.inf
            expect = np.argsort(-s, kind="stable")[:3].tolist()
            got = out[out.query_id == qi].sort_values("rank")["neighbor_id"].tolist()
            assert got == expect

    def test_ivf_recall_reasonable(self):
        from whoiswho_ray.stages.similarity_search import knn_brute, knn_ivf

        rng = np.random.RandomState(1)
        # clustered data so IVF cells are meaningful
        centers = rng.randn(5, 16) * 4
        mat = np.vstack([c + rng.randn(60, 16) for c in centers])
        df = pd.DataFrame({"vec_id": range(len(mat)), "embedding": [v for v in mat]})
        qids = np.arange(3)
        exact = knn_brute(rd.from_pandas(df), qids, mat[:3], k=5).to_pandas()
        approx = knn_ivf(rd.from_pandas(df), qids, mat[:3], k=5, n_cells=5, n_probe=2).to_pandas()
        hits = 0
        for qi in range(3):
            e = set(exact[exact.query_id == qi]["neighbor_id"])
            a = set(approx[approx.query_id == qi]["neighbor_id"])
            hits += len(e & a)
        assert hits / 15 >= 0.8  # probing 2/5 cells of well-separated clusters

    def test_ivf_prunes_scan_and_recall(self, tmp_path):
        """The inverted file actually PRUNES: only probed cell partitions
        are read (scan volume measured from parquet metadata), with
        recall@5 ≥ 0.9 vs the exact oracle on clustered data."""
        from whoiswho_ray.stages.similarity_search import (
            ivf_build,
            ivf_scan_rows,
            ivf_search,
            knn_brute,
        )

        rng = np.random.RandomState(3)
        centers = rng.randn(8, 16) * 5
        mat = np.vstack([c + rng.randn(50, 16) for c in centers])
        df = pd.DataFrame({"vec_id": range(len(mat)), "embedding": [v for v in mat]})
        ds = rd.from_pandas(df)
        idx = str(tmp_path / "ivf")
        meta = ivf_build(ds, idx, n_cells=8, sample_size=400)
        assert len(meta["cells_written"]) > 1

        qids = np.arange(5)
        exact = knn_brute(ds, qids, mat[:5], k=5).to_pandas()
        approx = ivf_search(idx, qids, mat[:5], k=5, n_probe=3).to_pandas()
        hits = total = 0
        for qi in range(5):
            e = set(exact[exact.query_id == qi]["neighbor_id"])
            a = set(approx[approx.query_id == qi]["neighbor_id"])
            hits += len(e & a)
            total += len(e)
        assert hits / total >= 0.9

        # scan accounting: probing 3/8 cells must read < half the corpus
        import numpy as _np
        cents = _np.load(f"{idx}/centroids.npz")["centroids"]
        qm = mat[:5] / _np.linalg.norm(mat[:5], axis=1, keepdims=True)
        probes = _np.argsort(-(qm @ cents.T), axis=1)[:, :3]
        acct = ivf_scan_rows(idx, sorted(set(probes.ravel().tolist())))
        assert acct["probed_rows"] < acct["total_rows"]

    def test_ivf_sample_order_invariant(self):
        """Centroid training samples by key hash, not input order — a
        sorted input yields the same index as a shuffled one."""
        from whoiswho_ray.stages.similarity_search import _hash_sample

        rng = np.random.RandomState(4)
        mat = rng.randn(300, 8)
        df = pd.DataFrame({"vec_id": range(300), "embedding": [v for v in mat]})
        s1 = _hash_sample(rd.from_pandas(df), "vec_id", 50)
        s2 = _hash_sample(rd.from_pandas(df.iloc[::-1].reset_index(drop=True)), "vec_id", 50)
        assert sorted(s1["vec_id"]) == sorted(s2["vec_id"])

    def test_ivf_sample_never_global_sorts(self, monkeypatch):
        """The seed sample is a per-batch partial top-k + broadcast
        filter, not a whole-dataset sort().limit(k) (VERDICT r3 #3)."""
        from whoiswho_ray.stages.similarity_search import _hash_sample

        def boom(self, *a, **k):
            raise AssertionError("global sort in _hash_sample")

        monkeypatch.setattr(rd.Dataset, "sort", boom)
        rng = np.random.RandomState(5)
        df = pd.DataFrame({"vec_id": range(200),
                           "embedding": list(rng.randn(200, 4))})
        s = _hash_sample(rd.from_pandas(df), "vec_id", 40)
        assert len(s) == 40
        # matches the documented rule: 40 smallest key hashes
        h = pd.util.hash_pandas_object(df["vec_id"], index=False).astype("int64")
        expect = set(df["vec_id"].iloc[np.argsort(h.to_numpy(), kind="stable")[:40]])
        assert set(s["vec_id"]) == expect


class TestTextAnalysis:
    def test_token_stats(self):
        from whoiswho_ray.stages.text_analysis import token_stats

        df = pd.DataFrame({"doc_id": [1, 2], "text": ["ab  cd", ""]})
        out = token_stats(rd.from_pandas(df)).to_pandas().set_index("doc_id")
        assert out.loc[1, "n_tokens"] == 2
        assert out.loc[1, "n_chars"] == 6
        assert out.loc[1, "avg_token_len"] == pytest.approx(2.0)
        assert out.loc[2, "n_tokens"] == 0

    def test_quality(self):
        from whoiswho_ray.stages.text_analysis import quality_scores

        df = pd.DataFrame({"doc_id": [1], "text": ["Ab1!"]})
        out = quality_scores(rd.from_pandas(df)).to_pandas().iloc[0]
        assert out["alpha_ratio"] == pytest.approx(0.5)
        assert out["digit_ratio"] == pytest.approx(0.25)
        assert out["punct_ratio"] == pytest.approx(0.25)
        assert out["upper_ratio"] == pytest.approx(0.25)

    def test_langid(self):
        from whoiswho_ray.stages.text_analysis import lang_id

        df = pd.DataFrame({"doc_id": [1, 2], "text": [
            "the cat is on the mat and it is happy",
            "le chat est dans la maison avec le chien",
        ]})
        out = lang_id(rd.from_pandas(df)).to_pandas().set_index("doc_id")
        assert out.loc[1, "pred_lang"] == "en"
        assert out.loc[2, "pred_lang"] == "fr"


class TestRepetitionStats:
    def test_known_fractions(self):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import repetition_stats

        docs = pd.DataFrame({
            "doc_id": [1, 2, 3],
            "text": ["spam spam spam eggs",      # 4 words, 2 distinct; bigram "spam spam" ×2 of 3
                     "all words are different",  # no repetition
                     ""],                        # empty
        })
        out = repetition_stats(rd.from_pandas(docs)).to_pandas().set_index("doc_id")
        assert out.loc[1, "n_words"] == 4 and out.loc[1, "n_distinct_words"] == 2
        assert out.loc[1, "dup_word_frac"] == 0.5
        assert out.loc[1, "n_bigrams"] == 3 and out.loc[1, "top_bigram_count"] == 2
        assert out.loc[1, "top_bigram_frac"] == 2 / 3
        assert out.loc[2, "dup_word_frac"] == 0.0
        assert out.loc[2, "top_bigram_count"] == 1  # every bigram unique
        assert out.loc[3, "n_words"] == 0 and out.loc[3, "top_bigram_frac"] == 0.0

    def test_case_folding(self):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import repetition_stats

        docs = pd.DataFrame({"doc_id": [1], "text": ["Spam SPAM spam"]})
        out = repetition_stats(rd.from_pandas(docs)).to_pandas()
        assert out["n_distinct_words"].iloc[0] == 1
        assert out["top_bigram_count"].iloc[0] == 2  # "spam spam" twice


class TestWindows:
    def test_sessionize(self):
        from whoiswho_ray.stages.windows import sessionize

        ts = pd.to_datetime([
            "2024-01-01 10:00", "2024-01-01 10:10",   # session 1
            "2024-01-01 12:00",                        # session 2 (gap > 30m)
        ])
        df = pd.DataFrame({"user_id": [1, 1, 1], "ts": ts, "event_id": [1, 2, 3]})
        out = sessionize(rd.from_pandas(df)).to_pandas()
        assert len(out) == 2
        assert out["n_events"].tolist() == [2, 1]


class TestJoins:
    def test_shuffle_hash_join_matches_pandas(self):
        from whoiswho_ray.stages.joins import shuffle_hash_join

        rng = np.random.RandomState(0)
        l = pd.DataFrame({"k": rng.randint(0, 20, 100), "x": rng.randn(100)})
        r = pd.DataFrame({"k": np.arange(15), "y": np.arange(15) * 10})
        got = shuffle_hash_join(rd.from_pandas(l), rd.from_pandas(r), on="k").to_pandas()
        expect = l.merge(r, on="k")
        got = got.sort_values(["k", "x"]).reset_index(drop=True)
        expect = expect.sort_values(["k", "x"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[["k", "x", "y"]], expect[["k", "x", "y"]])

    def test_nullable_int_key_across_batches(self):
        """A nullable int64 key must hash identically whether or not its
        batch contains nulls (ADVICE r3: the pandas conversion promoted
        null-carrying batches to float64, splitting the same key value
        across shuffle buckets and silently dropping matches)."""
        import pyarrow as pa

        from whoiswho_ray.stages.joins import shuffle_hash_join

        # key 2 appears in a clean batch AND in a null-carrying batch
        blocks = [
            pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                      "x": pa.array([10, 20, 30], pa.int64())}),
            pa.table({"k": pa.array([4, None, 2], pa.int64()),
                      "x": pa.array([40, 0, 21], pa.int64())}),
        ]
        left = rd.from_arrow(blocks)
        right = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3, 4],
                                             "y": [100, 200, 300, 400]}))
        got = shuffle_hash_join(left, right, on="k",
                                num_buckets=7).to_pandas()
        expect = pd.concat([b.to_pandas() for b in blocks]).merge(
            pd.DataFrame({"k": [1, 2, 3, 4], "y": [100, 200, 300, 400]}),
            on="k")
        assert len(got) == len(expect) == 5
        got = got.sort_values(["k", "x"]).reset_index(drop=True)
        expect = (expect.sort_values(["k", "x"]).reset_index(drop=True)
                  .astype({"k": "int64", "x": "int64", "y": "int64"}))
        pd.testing.assert_frame_equal(
            got[["k", "x", "y"]].astype("int64"), expect[["k", "x", "y"]])

    def test_null_keys_hash_stable_and_colocated(self):
        """All-null and value rows keep consistent bucket assignment: the
        null sentinel hash is fixed, and a value's hash is independent of
        sibling nulls and of integer width."""
        import pyarrow as pa

        from whoiswho_ray.stages.joins import _key_hash

        h_clean = _key_hash(pa.table({"k": pa.array([7, 8], pa.int64())}), ["k"])
        h_dirty = _key_hash(pa.table({"k": pa.array([7, None], pa.int64())}), ["k"])
        h_32 = _key_hash(pa.table({"k": pa.array([7, 8], pa.int32())}), ["k"])
        assert h_clean[0] == h_dirty[0] == h_32[0]
        h_null_a = _key_hash(pa.table({"k": pa.array([None], pa.int64())}), ["k"])
        h_null_b = _key_hash(pa.table({"k": pa.array([None], pa.string())}), ["k"])
        assert h_null_a[0] == h_null_b[0]

    @pytest.mark.parametrize("arrays", ["ragged", "all_empty"])
    def test_array_payload_from_pandas(self, arrays):
        """A pandas-built column of 1-D arrays (Ray declares a tensor
        type; its blocks store a variable-shaped tensor, or nulls when
        every array is empty) rides both shuffled joins as plain lists."""
        from whoiswho_ray.stages.joins import shuffle_hash_join, shuffle_semi_join

        n = 40
        arr = [np.arange(i % 5 if arrays == "ragged" else 0, dtype=np.int64)
               for i in range(n)]
        l = pd.DataFrame({"k": np.arange(n) % 13, "x": np.arange(n), "arr": arr})
        # right keys past the left's: some buckets hold right rows only
        r = pd.DataFrame({"k": np.arange(0, 40, 2), "y": np.arange(0, 40, 2) * 10})

        def rows(df):
            return sorted((int(t.k), int(t.x), tuple(np.asarray(t.arr).tolist()),
                           *((int(t.y),) if "y" in df else ()))
                          for t in df.itertuples())

        got = shuffle_hash_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                                num_buckets=16).to_pandas()
        assert rows(got) == rows(l.merge(r, on="k"))
        got = shuffle_semi_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                                num_buckets=16).to_pandas()
        assert rows(got) == rows(l[l["k"].isin(r["k"])])

    def test_semi_and_anti(self):
        from whoiswho_ray.stages.joins import semi_join

        df = pd.DataFrame({"k": [1, 2, 3, 4], "v": list("abcd")})
        ds = rd.from_pandas(df)
        assert sorted(semi_join(ds, {2, 4}, on="k").to_pandas()["k"]) == [2, 4]
        assert sorted(semi_join(ds, {2, 4}, on="k", anti=True).to_pandas()["k"]) == [1, 3]


class TestSlidingWindow:
    def test_each_event_covers_size_over_hop_windows(self):
        from whoiswho_ray.stages.windows import sliding_window

        ts = pd.to_datetime(["2024-01-01 10:15"])
        df = pd.DataFrame({"event_type": ["click"], "ts": ts, "value": [2.0]})
        out = sliding_window(rd.from_pandas(df), size_minutes=60, hop_minutes=15)
        # one event → 4 windows: 09:30, 09:45, 10:00, 10:15
        assert len(out) == 4
        starts = sorted(out["window_start_us"])
        assert starts[-1] - starts[0] == 45 * 60 * 1_000_000
        assert (out["n_events"] == 1).all()
        assert (out["sum_value_cents"] == 200).all()

    def test_size_must_divide(self):
        from whoiswho_ray.stages.windows import sliding_window

        with pytest.raises(ValueError):
            sliding_window(rd.from_pandas(pd.DataFrame({"event_type": [], "ts": [], "value": []})),
                           size_minutes=50, hop_minutes=30)


class TestEncoder:
    def test_fake_backend_encodes(self):
        from whoiswho_ray.stages.encoder import encode_column

        df = pd.DataFrame({"doc_id": [1, 2, 3],
                           "text": ["alpha beta gamma", "alpha beta gamma", "zzz qqq"]})
        out = encode_column(rd.from_pandas(df), dim=32).to_pandas().sort_values("doc_id")
        embs = np.stack([np.asarray(e) for e in out["embedding"]])
        assert embs.shape == (3, 32)
        assert np.allclose(np.linalg.norm(embs, axis=1), 1.0)
        assert np.allclose(embs[0], embs[1])          # deterministic
        assert not np.allclose(embs[0], embs[2])      # discriminative


class TestWinnowMd5:
    def test_known_values_and_short_docs(self):
        import hashlib
        from whoiswho_ray.stages.text_analysis import winnow_md5

        df = pd.DataFrame({"doc_id": [1, 2, 3],
                           "text": ["a b c d e f g h", "a b", ""]})
        out = winnow_md5(rd.from_pandas(df)).to_pandas().set_index("doc_id")
        toks = "a b c d e f g h".split()
        grams = [hashlib.md5("|".join(toks[i:i+3]).encode()).hexdigest()
                 for i in range(6)]
        mins = {min(grams[i:i+4]) for i in range(3)}
        assert out.loc[1, "n_fingerprints"] == len(mins)
        assert out.loc[1, "min_fingerprint"] == min(mins)
        # too short for one gram / empty: zero fingerprints, NULL min
        assert out.loc[2, "n_fingerprints"] == 0 and out.loc[2, "min_fingerprint"] is None
        assert out.loc[3, "n_fingerprints"] == 0


class TestDecontaminate:
    def test_planted_overlap_flagged(self):
        from whoiswho_ray.stages.decontaminate import decontaminate

        bench = pd.DataFrame({
            "doc_id": [100, 101],
            "text": ["the capital of france is paris obviously",
                     "two plus two equals four in base ten"],
        })
        corpus = pd.DataFrame({
            "doc_id": [0, 1, 2, 3],
            "text": [
                # shares the 4-gram "capital of france is"
                "everyone knows the capital of france is a big city",
                # shares "two plus two equals"
                "quiz answer two plus two equals four",
                # no 4-gram overlap (words shuffled)
                "france of capital the paris is obviously",
                "",  # empty: 0 grams, clean
            ],
        })
        out = decontaminate(
            rd.from_pandas(corpus), rd.from_pandas(bench),
            n=4, min_hits=1,
        ).to_pandas().set_index("doc_id").sort_index()
        assert out.loc[0, "contaminated"] and out.loc[0, "n_hits"] >= 1
        assert out.loc[1, "contaminated"]
        assert not out.loc[2, "contaminated"] and out.loc[2, "n_hits"] == 0
        assert not out.loc[3, "contaminated"] and out.loc[3, "n_grams"] == 0
        # distinct-gram counting: doc 0 has 7 tokens more than n -> 7 grams
        assert out.loc[0, "n_grams"] == len(corpus.loc[0, "text"].split()) - 3

    def test_distinct_hits_not_occurrences(self):
        from whoiswho_ray.stages.decontaminate import decontaminate

        bench = pd.DataFrame({"doc_id": [9], "text": ["x y z"]})
        # "x y z" appears twice in the doc but is ONE distinct gram
        corpus = pd.DataFrame({"doc_id": [0], "text": ["x y z w x y z"]})
        out = decontaminate(rd.from_pandas(corpus), rd.from_pandas(bench),
                            n=3, min_hits=1).to_pandas()
        assert out.loc[0, "n_hits"] == 1
        assert out.loc[0, "contaminated"]

    def test_batch_size_independence(self):
        """Gram extraction is per-document; splitting the corpus into
        tiny batches must not change any count."""
        from whoiswho_ray.stages.decontaminate import decontaminate

        rng = np.random.RandomState(3)
        vocab = [f"w{i}" for i in range(40)]
        texts = [" ".join(rng.choice(vocab, rng.randint(5, 30)))
                 for _ in range(24)]
        corpus = pd.DataFrame({"doc_id": range(24), "text": texts})
        bench = pd.DataFrame({"doc_id": [99], "text": [texts[7]]})
        outs = []
        for nparts in (1, 12):
            ds = decontaminate(
                rd.from_pandas(corpus).repartition(nparts),
                rd.from_pandas(bench), n=3, min_hits=1)
            outs.append(ds.to_pandas().sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])
        assert outs[0].loc[7, "contaminated"]


class TestHllSketch:
    def test_estimate_accuracy_large(self):
        from whoiswho_ray.stages.sketch import hll_estimate, hll_registers

        n = 20_000
        ds = rd.from_pandas(pd.DataFrame({"v": np.arange(n)})).repartition(8)
        regs = hll_registers(ds, "v", b=12)
        est = hll_estimate(regs, b=12)
        # m=4096 -> standard error ~1.6%; hash is deterministic so this
        # bound is a fixed fact, not a flaky draw
        assert abs(est - n) / n < 0.05

    def test_estimate_linear_counting_small(self):
        from whoiswho_ray.stages.sketch import hll_estimate, hll_registers

        regs = hll_registers(
            rd.from_pandas(pd.DataFrame({"v": np.arange(100)})), "v", b=12)
        assert abs(hll_estimate(regs, b=12) - 100) / 100 < 0.05

    def test_merge_is_max_of_partials(self):
        """Register tables are max-mergeable: sketch(A ∪ B) ==
        max-merge(sketch(A), sketch(B)) — the property that makes the
        aggregate distribute over any partitioning."""
        from whoiswho_ray.stages.sketch import hll_registers

        a = pd.DataFrame({"v": np.arange(0, 3000)})
        bb = pd.DataFrame({"v": np.arange(1500, 5000)})
        full = hll_registers(rd.from_pandas(pd.concat([a, bb])), "v")
        ra = hll_registers(rd.from_pandas(a), "v")
        rb = hll_registers(rd.from_pandas(bb), "v")
        merged = (pd.concat([ra, rb]).groupby("register", as_index=False)
                  ["max_rank"].max())
        lhs = full.sort_values("register").reset_index(drop=True)
        rhs = merged.sort_values("register").reset_index(drop=True)
        pd.testing.assert_frame_equal(lhs, rhs)


class TestTopTokens:
    def test_matches_naive_count(self, ray_session):
        import re

        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import top_tokens

        texts = ["the cat sat on the mat", "The DOG!  the dog, a dog",
                 "cat9 cat9 dog", None, "", "  ", "a b a b a"]
        got = top_tokens(rd.from_pandas(pd.DataFrame({"text": texts * 7}))
                         .repartition(4), k=5)
        from collections import Counter
        c = Counter()
        for t in texts * 7:
            if t:
                c.update(w for w in re.split(r"[^a-z0-9]+", t.lower()) if w)
        want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        assert list(map(tuple, got.to_records(index=False))) == want

    def test_exact_across_bucket_counts(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import top_tokens

        df = pd.DataFrame({"text": [f"tok{i % 17} common" for i in range(300)]})
        a = top_tokens(rd.from_pandas(df), k=3, num_buckets=2)
        b = top_tokens(rd.from_pandas(df).repartition(8), k=3, num_buckets=64)
        pd.testing.assert_frame_equal(a, b)
        assert a.iloc[0]["token"] == "common" and a.iloc[0]["cnt"] == 300


class TestStratifiedSample:
    def test_deterministic_and_proportional(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.splits import stratified_sample

        n = 4000
        df = pd.DataFrame({"doc_id": np.arange(n),
                           "lang": np.where(np.arange(n) % 2 == 0, "en", "zh")})
        ds = rd.from_pandas(df)
        a = stratified_sample(ds, "lang", "doc_id", {"en": 0.5, "zh": 0.1}).to_pandas()
        b = stratified_sample(ds.repartition(7), "lang", "doc_id",
                              {"en": 0.5, "zh": 0.1}).to_pandas()
        pd.testing.assert_frame_equal(
            a.sort_values("doc_id").reset_index(drop=True),
            b.sort_values("doc_id").reset_index(drop=True))
        en = (a["lang"] == "en").sum() / (n / 2)
        zh = (a["lang"] == "zh").sum() / (n / 2)
        assert abs(en - 0.5) < 0.05 and abs(zh - 0.1) < 0.03


class TestBloomSemiJoin:
    def test_equals_exact_semi_join(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.joins import bloom_semi_join, shuffle_semi_join

        rng = np.random.RandomState(3)
        left = pd.DataFrame({"k": rng.randint(0, 5000, 20000),
                             "v": rng.rand(20000)})
        keys = pd.DataFrame({"k": rng.choice(5000, 700, replace=False)})
        got = bloom_semi_join(rd.from_pandas(left).repartition(5),
                              rd.from_pandas(keys), on="k",
                              bits_log2=12).to_pandas()
        want = left[left["k"].isin(set(keys["k"]))]
        a = got.sort_values(["k", "v"]).reset_index(drop=True)
        b = want.sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_anti_join(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.joins import shuffle_semi_join

        left = pd.DataFrame({"k": np.arange(100), "v": np.arange(100) * 2})
        keys = pd.DataFrame({"k": np.arange(0, 100, 3)})
        got = shuffle_semi_join(rd.from_pandas(left), rd.from_pandas(keys),
                                on="k", anti=True).to_pandas()
        assert sorted(got["k"]) == [i for i in range(100) if i % 3 != 0]


class TestChunkDocuments:
    def test_windows_and_edges(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import chunk_documents

        df = pd.DataFrame({
            "doc_id": [1, 2, 3, 4, 5],
            "text": ["a b c d e f g", "x y", None, "", "  lead space"],
        })
        got = chunk_documents(rd.from_pandas(df).repartition(3),
                              window=5, stride=3).to_pandas()
        got = got.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
        want = pd.DataFrame({
            "doc_id": [1, 1, 1, 2, 5],
            "chunk_idx": [0, 1, 2, 0, 0],
            "chunk": ["a b c d e", "d e f g", "g", "x y", " lead space"],
        })
        pd.testing.assert_frame_equal(got, want)

    def test_exact_cover_no_overlap(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import chunk_documents

        text = " ".join(f"t{i}" for i in range(100))
        got = chunk_documents(
            rd.from_pandas(pd.DataFrame({"doc_id": [9], "text": [text]})),
            window=10, stride=10).to_pandas().sort_values("chunk_idx")
        assert len(got) == 10
        assert " ".join(got["chunk"]) == text


class TestRedactPii:
    def test_scrubs_and_counts(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import redact_pii

        df = pd.DataFrame({"doc_id": [1, 2, 3, 4], "text": [
            "mail a@b.com or b@c.org, call (555) 123-4567",
            "ssn 123-45-6789 card 4111 1111 1111 1111",
            None,
            "clean document",
        ]})
        out = redact_pii(rd.from_pandas(df)).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        assert out.loc[0, "text"] == "mail <EMAIL> or <EMAIL>, call <PHONE>"
        assert out.loc[0, "n_redactions"] == 3
        assert out.loc[1, "text"] == "ssn <SSN> card <CARD>"
        assert out.loc[1, "n_redactions"] == 2
        assert pd.isna(out.loc[2, "text"]) and out.loc[2, "n_redactions"] == 0
        assert out.loc[3, "text"] == "clean document"
        assert out.loc[3, "n_redactions"] == 0


class TestNewOpsEmptyInputs:
    def test_top_tokens_empty_and_null(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import top_tokens

        out = top_tokens(rd.from_pandas(
            pd.DataFrame({"text": pd.Series([None, "", "   "], dtype=object)})), k=5)
        assert len(out) == 0 and list(out.columns) == ["token", "cnt"]

    def test_chunk_documents_all_filtered(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import chunk_documents

        out = chunk_documents(rd.from_pandas(pd.DataFrame(
            {"doc_id": [1, 2], "text": pd.Series([None, "  "], dtype=object)}))).to_pandas()
        assert len(out) == 0

    def test_redact_pii_empty_batch(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import redact_pii

        out = redact_pii(rd.from_pandas(
            pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "text": pd.Series([], dtype=object)}))).to_pandas()
        assert len(out) == 0

    def test_stratified_sample_zero_fraction(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.splits import stratified_sample

        df = pd.DataFrame({"doc_id": range(50), "lang": ["xx"] * 50})
        out = stratified_sample(rd.from_pandas(df), "lang", "doc_id",
                                {"en": 0.5}).to_pandas()
        assert len(out) == 0


class TestInvertedIndex:
    def test_postings_and_search(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import (
            build_inverted_index,
            search_all_terms,
        )

        df = pd.DataFrame({
            "doc_id": [1, 2, 3, 4],
            "text": ["alpha beta gamma", "beta gamma", "alpha alpha beta",
                     None],
        })
        idx = build_inverted_index(rd.from_pandas(df).repartition(3))
        postings = {r["token"]: list(r["postings"]) for r in idx.to_pandas().to_dict("records")}
        assert postings["alpha"] == [1, 3]
        assert postings["beta"] == [1, 2, 3]
        assert postings["gamma"] == [1, 2]
        got = search_all_terms(idx, ["alpha", "beta"])
        assert got["doc_id"].tolist() == [1, 3]
        assert search_all_terms(idx, ["alpha", "missing"]).empty

    def test_df_column(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import build_inverted_index

        df = pd.DataFrame({"doc_id": [1, 2], "text": ["x y", "y"]})
        idx = build_inverted_index(rd.from_pandas(df)).to_pandas()
        assert dict(zip(idx["token"], idx["df"])) == {"x": 1, "y": 2}


class TestBm25Search:
    @pytest.fixture(scope="class")
    def index_dir(self, tmp_path_factory):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import index_build

        docs = pd.DataFrame({
            "doc_id": np.arange(8, dtype=np.int64),
            "text": [
                "scan scan scan column",          # high tf for scan
                "scan column window",
                "column column",
                "window window window window",
                "scan",
                "the quick brown fox",
                "",                                # dl = 0
                "scan window scan window column",
            ],
        })
        d = str(tmp_path_factory.mktemp("bm25"))
        index_build(rd.from_pandas(docs).repartition(3), d, num_buckets=4)
        return d, docs

    def _reference_bm25(self, docs, terms, k1=1.2, b=0.75):
        import re

        toks = {r.doc_id: [t for t in re.split(r"[^a-z0-9]+",
                                               r.text.lower()) if t]
                for r in docs.itertuples()}
        n = len(docs)
        avgdl = sum(len(v) for v in toks.values()) / n
        scores = {}
        for t in sorted(set(terms)):
            df = sum(1 for v in toks.values() if t in v)
            if df == 0:
                continue
            idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
            for d, v in toks.items():
                tf = v.count(t)
                if tf:
                    dl = len(v)
                    scores[d] = scores.get(d, 0.0) + idf * (
                        tf * (k1 + 1.0)) / (tf + k1 * (1 - b + b * dl / avgdl))
        return sorted(scores, key=lambda d: (-scores[d], d))

    def test_matches_reference_ranking(self, index_dir):
        from whoiswho_ray.stages.text_analysis import bm25_search

        d, docs = index_dir
        out = bm25_search(d, ["scan", "window"], topk=5)
        exp = self._reference_bm25(docs, ["scan", "window"])[:5]
        assert list(out["doc_id"]) == exp
        assert list(out["rank"]) == list(range(1, len(exp) + 1))
        # scores strictly non-increasing
        assert (np.diff(out["score"].to_numpy()) <= 0).all()

    def test_unknown_and_empty_terms(self, index_dir):
        from whoiswho_ray.stages.text_analysis import bm25_search

        d, _ = index_dir
        assert len(bm25_search(d, ["zzzznotaword"], topk=5)) == 0
        assert len(bm25_search(d, [], topk=5)) == 0

    def test_margin_guard_raises_on_ulp_ties(self, index_dir):
        from whoiswho_ray.stages.text_analysis import bm25_search

        d, _ = index_dir
        # an absurd margin makes every non-tie gap "too small" — the
        # guard must raise rather than return ulp-dependent ranks
        with pytest.raises(ValueError, match="min_rank_margin"):
            bm25_search(d, ["scan", "window"], topk=2, min_rank_margin=10.0)


class TestPhraseSearch:
    @pytest.fixture(scope="class")
    def pos_index(self, tmp_path_factory):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import index_build

        docs = pd.DataFrame({
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "the quick brown fox",
                "quick brown, fox jumps",     # punctuation splits tokens
                "brown quick fox",            # wrong order
                "fox quick brown quick brown tail",  # repeats
                "quick  brown",               # double space
                "",
            ],
        })
        d = str(tmp_path_factory.mktemp("phrase"))
        index_build(rd.from_pandas(docs).repartition(2), d, num_buckets=4,
                    positions=True)
        return d, docs

    def _brute(self, docs, phrase):
        import re

        hits = []
        for r in docs.itertuples():
            toks = [t for t in re.split(r"[^a-z0-9]+", r.text.lower()) if t]
            if any(toks[i:i + len(phrase)] == phrase
                   for i in range(len(toks))):
                hits.append(r.doc_id)
        return sorted(hits)

    @pytest.mark.parametrize("phrase", [
        ["quick", "brown"],
        ["quick", "brown", "fox"],
        ["brown", "fox"],
        ["brown", "quick", "brown"],   # overlapping repeat
        ["fox", "tail"],               # non-adjacent -> no match
        ["nosuchword"],
    ])
    def test_matches_bruteforce(self, pos_index, phrase):
        from whoiswho_ray.stages.text_analysis import phrase_search

        d, docs = pos_index
        got = list(phrase_search(d, phrase)["doc_id"])
        assert got == self._brute(docs, phrase)

    def test_requires_positional_index(self, tmp_path):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import (index_build,
                                                       phrase_search)

        docs = pd.DataFrame({"doc_id": [1], "text": ["a b"]})
        d = str(tmp_path / "nopos")
        index_build(rd.from_pandas(docs), d, num_buckets=2)
        with pytest.raises(ValueError, match="positions=True"):
            phrase_search(d, ["a", "b"])

    def test_dropped_phrase_term_raises(self, tmp_path):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import (index_build,
                                                       phrase_search)

        docs = pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64),
                             "text": ["hot rare1 x", "hot rare2 x",
                                      "hot rare3 x", "hot rare4 x"]})
        d = str(tmp_path / "capped")
        index_build(rd.from_pandas(docs), d, num_buckets=2, max_df=2,
                    positions=True)
        with pytest.raises(ValueError, match="dropped at build time"):
            phrase_search(d, ["hot", "rare1"])


class TestPersistentInvertedIndex:
    """index_build / index_search: hive-partitioned posting storage with a
    df cap (VERDICT r2 #1) — bounded rows, partition-pruned reads,
    in-task smallest-first intersection."""

    @pytest.fixture()
    def corpus(self):
        # 'the' appears in every doc (stop word), content words are sparse
        n = 400
        rows = []
        for i in range(n):
            words = ["the", f"w{i % 40}", f"x{i % 7}"]
            if i % 50 == 0:
                words.append("needle")
            rows.append(" ".join(words))
        return pd.DataFrame({"doc_id": np.arange(n), "text": rows})

    def test_df_cap_bounds_posting_rows(self, ray_session, tmp_path, corpus):
        import pyarrow.parquet as pq
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import index_build

        meta = index_build(rd.from_pandas(corpus).repartition(4),
                           str(tmp_path / "idx"), max_df=100, num_buckets=8)
        assert meta["dropped_tokens"] >= 1  # 'the' (df=400) is over cap
        dropped = pq.read_table(str(tmp_path / "idx" / "dropped.parquet")).to_pandas()
        assert "the" in set(dropped["token"])
        assert int(dropped.loc[dropped["token"] == "the", "df"].iloc[0]) == 400
        data = pq.read_table(str(tmp_path / "idx" / "data")).to_pandas()
        assert "the" not in set(data["token"])       # bounded index
        assert int(data["df"].max()) <= 100          # every posting row capped

    def test_search_matches_uncapped_dataset_index(self, ray_session,
                                                   tmp_path, corpus):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import (build_inverted_index,
                                                       index_build,
                                                       index_search,
                                                       search_all_terms)

        ds = rd.from_pandas(corpus).repartition(4)
        index_build(ds, str(tmp_path / "idx"), max_df=100, num_buckets=8)
        got = index_search(str(tmp_path / "idx"), ["needle", "w0"])
        want = search_all_terms(build_inverted_index(ds), ["needle", "w0"])
        assert got["doc_id"].tolist() == want["doc_id"].tolist()
        assert len(got) > 0

    def test_pruned_term_semantics(self, ray_session, tmp_path, corpus):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import index_build, index_search

        ds = rd.from_pandas(corpus).repartition(4)
        index_build(ds, str(tmp_path / "idx"), max_df=100, num_buckets=8)
        # 'the' was pruned: default ignores it, like a stop word
        with_stop = index_search(str(tmp_path / "idx"), ["the", "needle"])
        without = index_search(str(tmp_path / "idx"), ["needle"])
        assert with_stop["doc_id"].tolist() == without["doc_id"].tolist()
        assert index_search(str(tmp_path / "idx"), ["the", "needle"],
                            pruned_terms="empty").empty
        # all-pruned query refuses to dump the corpus
        assert index_search(str(tmp_path / "idx"), ["the"]).empty
        # absent term: always empty
        assert index_search(str(tmp_path / "idx"), ["zzz", "needle"]).empty

    def test_partition_pruning_scan_volume(self, ray_session, tmp_path,
                                           corpus):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import (index_build,
                                                       index_scan_rows)

        ds = rd.from_pandas(corpus).repartition(4)
        index_build(ds, str(tmp_path / "idx"), max_df=100, num_buckets=8)
        acct = index_scan_rows(str(tmp_path / "idx"), ["needle"])
        assert acct["total_rows"] > 0
        assert len(acct["probed_buckets"]) == 1
        assert 0 < acct["probed_rows"] < acct["total_rows"]

    def test_build_inverted_index_max_df_inline(self, ray_session, corpus):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import build_inverted_index

        idx = build_inverted_index(rd.from_pandas(corpus).repartition(4),
                                   max_df=100).to_pandas()
        assert "the" not in set(idx["token"])
        assert int(idx["df"].max()) <= 100


class TestVectorizedNearDupFrontend:
    """The Arrow split + dictionary-encode tokenization feeding MinHash/
    SimHash must be bit-identical to the per-row reference chain
    (VERDICT r2 #2)."""

    TRICKY = ["Hello, World!  foo_bar", "", None, "  spaces   everywhere ",
              "dup dup dup x", "Café naïve 中文 mix",
              "UPPER lower 123 a", "a", "!!!", "tab\tand\nnewline"]

    def test_token_ids_match_per_row_reference(self, ray_session):
        import pyarrow as pa

        from whoiswho_ray.functions.hashing import hash_tokens64
        from whoiswho_ray.functions.textnorm import tokenize_text
        from whoiswho_ray.stages.dedup import _token_id_rows, _tok_list_array

        col = pa.array(self.TRICKY, pa.string())
        row_of, ids, nrows = _token_id_rows(col)
        lst = _tok_list_array(row_of, ids, nrows)
        got = [list(lst[i].as_py()) for i in range(nrows)]
        want = [hash_tokens64(tokenize_text(x or "", stopwords=frozenset(),
                                            min_len=1)).tolist()
                for x in self.TRICKY]
        assert got == want

    def test_simhash_matches_per_row_reference(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.functions.hashing import (hash_tokens64,
                                                    simhash64)
        from whoiswho_ray.functions.textnorm import tokenize_text
        from whoiswho_ray.stages.dedup import simhash_dedup

        # drive the batch kernel through the public operator: the sim
        # column of the side table is observable via the fast path's
        # grouping, so assert on the raw kernel instead
        from whoiswho_ray.stages.dedup import _token_id_rows

        import pyarrow as pa

        col = pa.array(self.TRICKY, pa.string())
        row_of, ids_all, nrows = _token_id_rows(col)
        u = ids_all.astype(np.uint64)
        counts = np.bincount(row_of, minlength=nrows).astype(np.float64)
        sims = np.zeros(nrows, dtype=np.uint64)
        for b in range(64):
            bit = ((u >> np.uint64(b)) & np.uint64(1)).astype(np.float64)
            s = np.bincount(row_of, weights=bit, minlength=nrows)
            sims |= ((2.0 * s - counts) > 0).astype(np.uint64) << np.uint64(b)
        want = [simhash64(hash_tokens64(tokenize_text(
                    x or "", stopwords=frozenset(), min_len=1)))
                for x in self.TRICKY]
        assert sims.tolist() == want


class TestExactDedupBloomPath:
    def test_bloom_path_equals_broadcast_path(self, ray_session):
        """Force the Bloom winner-recovery path (threshold=0) and assert
        the result matches both the broadcast path and the unprojected
        groupby path (VERDICT r2 #3)."""
        import ray.data as rd

        from whoiswho_ray.stages.dedup import exact_dedup

        rng = np.random.RandomState(7)
        texts = [f"text body {i % 60}" for i in range(500)]
        df = pd.DataFrame({"doc_id": rng.permutation(500), "text": texts})
        ds = rd.from_pandas(df).repartition(5)
        bloom = exact_dedup(ds, project=True, broadcast_threshold=0
                            ).to_pandas().sort_values("doc_id")
        bcast = exact_dedup(ds, project=True).to_pandas().sort_values("doc_id")
        plain = exact_dedup(ds).to_pandas().sort_values("doc_id")
        assert bloom["doc_id"].tolist() == bcast["doc_id"].tolist()
        assert bloom["doc_id"].tolist() == plain["doc_id"].tolist()
        assert len(bloom) == len(set(texts))


class TestUnigramSurprisal:
    """CCNet-style unigram-LM quality filter (text_analysis.unigram_surprisal)."""

    def test_scores_match_direct_computation(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import unigram_surprisal

        docs = {
            "0": "the cat sat on the mat",
            "1": "the dog sat on the rug",
            "2": "zyxwvut qponmlk jihgfed",   # all-rare tokens
            "3": "",                           # token-free
        }
        df = pd.DataFrame({"doc_id": [int(k) for k in docs],
                           "text": list(docs.values())})
        out = unigram_surprisal(rd.from_pandas(df).repartition(3), tau=2.0
                                ).to_pandas().set_index("key")
        # direct reference computation over the same tokenization
        toks = {k: [t for t in v.lower().split(" ") if t] for k, v in docs.items()}
        from collections import Counter
        cnt = Counter(t for ts in toks.values() for t in ts)
        total = sum(cnt.values())
        for k, ts in toks.items():
            n = len(ts)
            mean = (sum(np.log(total) - np.log(cnt[t]) for t in ts) / n) if n else 0.0
            assert out.loc[k, "n_tokens"] == n
            assert out.loc[k, "mean_surprisal"] == pytest.approx(mean, rel=1e-12)
            assert bool(out.loc[k, "is_low_quality"]) == (n > 0 and mean > 2.0)
        # the rare-token doc is the flagged one
        assert out.loc["2", "is_low_quality"]
        assert not out.loc["3", "is_low_quality"]

    def test_sharding_invariance(self, ray_session):
        """Same scores whether the corpus arrives as 1 block or 7."""
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import unigram_surprisal

        rng = np.random.RandomState(5)
        vocab = [f"w{i}" for i in range(40)]
        texts = [" ".join(rng.choice(vocab, size=rng.randint(3, 30)))
                 for _ in range(200)]
        df = pd.DataFrame({"doc_id": np.arange(200), "text": texts})
        a = unigram_surprisal(rd.from_pandas(df), tau=3.0
                              ).to_pandas().sort_values("key").reset_index(drop=True)
        b = unigram_surprisal(rd.from_pandas(df).repartition(7), tau=3.0
                              ).to_pandas().sort_values("key").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_empty_corpus(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import unigram_surprisal

        df = pd.DataFrame({"doc_id": [1, 2], "text": ["", None]})
        out = unigram_surprisal(rd.from_pandas(df)).to_pandas()
        assert len(out) == 2
        assert (out["n_tokens"] == 0).all()
        assert not out["is_low_quality"].any()


class TestEmbeddingSimjoin:
    """Label-free SRP-LSH cosine self-join (dedup.embedding_simjoin)."""

    @staticmethod
    def _corpus(seed=3, n_groups=30, dup_per=3, n_noise=200, d=32):
        """Planted near-dup groups (cos ≈ 0.99 within) + isolated noise."""
        rng = np.random.RandomState(seed)
        rows = []
        vid = 0
        truth = []
        for g in range(n_groups):
            base = rng.randn(d)
            base /= np.linalg.norm(base)
            members = []
            for _ in range(dup_per):
                v = base + rng.randn(d) * 0.03
                rows.append((vid, v.astype(np.float32)))
                members.append(vid)
                vid += 1
            truth.append(members)
        for _ in range(n_noise):
            v = rng.randn(d)
            rows.append((vid, v.astype(np.float32)))
            vid += 1
        df = pd.DataFrame({"vec_id": [r[0] for r in rows],
                           "embedding": [r[1] for r in rows]})
        return df, truth

    @staticmethod
    def _brute_pairs(df, threshold):
        X = np.stack([np.asarray(v, np.float64) for v in df["embedding"]])
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
        S = X @ X.T
        ii, jj = np.triu_indices(len(X), 1)
        ok = S[ii, jj] >= threshold
        ids = df["vec_id"].to_numpy()
        return {(int(min(a, b)), int(max(a, b)))
                for a, b in zip(ids[ii[ok]], ids[jj[ok]])}

    def test_precision_exact_recall_high(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.dedup import embedding_simjoin

        df, _ = self._corpus()
        tau = 0.9
        out = embedding_simjoin(rd.from_pandas(df).repartition(4),
                                threshold=tau).to_pandas()
        got = {(int(min(a, b)), int(max(a, b)))
               for a, b in zip(out["key_a"], out["key_b"])}
        want = self._brute_pairs(df, tau)
        assert got <= want, f"false positives: {got - want}"  # precision exact
        recall = len(got & want) / max(len(want), 1)
        assert recall >= 0.85, (recall, len(want))
        # verified cosines are the exact values
        X = {int(r.vec_id): np.asarray(r.embedding, np.float64)
             for r in df.itertuples()}
        for r in out.itertuples():
            a, b = X[int(r.key_a)], X[int(r.key_b)]
            expect = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            assert r.cos == pytest.approx(expect, rel=1e-12)

    def test_sharding_invariance(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.dedup import embedding_simjoin

        df, _ = self._corpus(seed=9, n_groups=10, n_noise=50)
        a = embedding_simjoin(rd.from_pandas(df), threshold=0.9
                              ).to_pandas().sort_values(["key_a", "key_b"]).reset_index(drop=True)
        b = embedding_simjoin(rd.from_pandas(df).repartition(6), threshold=0.9
                              ).to_pandas().sort_values(["key_a", "key_b"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_empty_and_tiny(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.dedup import embedding_simjoin

        df = pd.DataFrame({"vec_id": [1], "embedding": [np.ones(8, np.float32)]})
        out = embedding_simjoin(rd.from_pandas(df)).to_pandas()
        # a pair-free corpus yields zero rows (Ray drops the schema of
        # fully-empty datasets, so only emptiness is asserted)
        assert len(out) == 0


class TestLeftOuterJoin:
    def test_left_join_keeps_unmatched_with_typed_nulls(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.joins import shuffle_hash_join

        left = pd.DataFrame({"k": [1, 2, 3, 4], "lv": ["a", "b", "c", "d"]})
        # include an int64 > 2^53 payload: the typed-null Arrow padding
        # must not round-trip through float64 (the r2 ADVICE bug class)
        big = 9007199254740993
        right = pd.DataFrame({"k": [2, 4], "rv": [big, 7]})
        out = shuffle_hash_join(rd.from_pandas(left), rd.from_pandas(right),
                                on="k", how="left").to_pandas().sort_values("k")
        assert out["k"].tolist() == [1, 2, 3, 4]
        matched = out.set_index("k")["rv"]
        assert matched[2] == big and matched[4] == 7
        assert pd.isna(matched[1]) and pd.isna(matched[3])


class TestGroupedBm25:
    @pytest.fixture(scope="class")
    def grouped_index(self, tmp_path_factory):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import index_build

        rng = np.random.RandomState(7)
        vocab = ["alpha", "beta", "gamma", "delta", "scan", "window",
                 "fox", "dog"]
        rows = []
        for i in range(60):
            lang = ["en", "de", "fr"][i % 3]
            words = [vocab[rng.randint(len(vocab))]
                     for _ in range(rng.randint(3, 12))]
            rows.append((i, " ".join(words), lang))
        docs = pd.DataFrame(rows, columns=["doc_id", "text", "lang"])
        d = str(tmp_path_factory.mktemp("gbm25"))
        meta = index_build(rd.from_pandas(docs).repartition(3), d,
                           num_buckets=4, group_col="lang")
        return d, docs, meta

    def _brute(self, docs, terms, topk, k1=1.2, b=0.75):
        import math

        rows = []
        for g, sub in docs.groupby("lang"):
            toks = {r.doc_id: r.text.split() for r in sub.itertuples()}
            n = len(sub)
            avgdl = sum(len(t) for t in toks.values()) / n
            sc = {}
            for t in sorted(set(terms)):
                df_t = sum(1 for v in toks.values() if t in v)
                if df_t == 0:
                    continue
                idf = math.log(1 + (n - df_t + 0.5) / (df_t + 0.5))
                for did, v in toks.items():
                    tf = v.count(t)
                    if tf:
                        sc[did] = sc.get(did, 0.0) + idf * (tf * (k1 + 1)) \
                            / (tf + k1 * (1 - b + b * len(v) / avgdl))
            top = sorted(sc.items(), key=lambda kv: (-kv[1], kv[0]))[:topk]
            rows.extend((g, r, did) for r, (did, _) in enumerate(top, 1))
        return rows

    @pytest.mark.parametrize("terms,topk", [
        (["scan", "window"], 3),
        (["fox"], 5),
        (["alpha", "beta", "gamma"], 2),
    ])
    def test_matches_per_group_bruteforce(self, grouped_index, terms, topk):
        from whoiswho_ray.stages.text_analysis import bm25_search_grouped

        d, docs, _ = grouped_index
        out = bm25_search_grouped(d, terms, topk=topk)
        got = list(map(tuple, out[["group", "rank", "doc_id"]]
                       .itertuples(index=False)))
        assert got == self._brute(docs, terms, topk)

    def test_group_stats_in_meta(self, grouped_index):
        _, docs, meta = grouped_index
        assert meta["group_col"] == "lang"
        for g, sub in docs.groupby("lang"):
            n, s = meta["groups"][g]
            assert n == len(sub)
            assert s == sum(len(t.split()) for t in sub["text"])

    def test_requires_grouped_index(self, tmp_path):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import (bm25_search_grouped,
                                                       index_build)

        docs = pd.DataFrame({"doc_id": [1], "text": ["a b"]})
        d = str(tmp_path / "plain")
        index_build(rd.from_pandas(docs), d, num_buckets=2)
        with pytest.raises(ValueError, match="group_col"):
            bm25_search_grouped(d, ["a"])
