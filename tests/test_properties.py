"""Property-based tests (hypothesis) for the pure kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whoiswho_ray.config import SNDConfig

from whoiswho_ray.functions.hashing import MinHasher, hamming64, simhash64, stable_hash64
from whoiswho_ray.functions.similarity import (
    intersect_size_sorted,
    jaccard_sorted,
    jaro_winkler,
)
from whoiswho_ray.functions.textnorm import clean_text, normalize_block_key
from whoiswho_ray.stages.pairs import candidate_index_pairs
from whoiswho_ray.stages.scoring import allpairs_matrix

int_sets = st.lists(st.integers(0, 2**62), max_size=60).map(
    lambda xs: np.unique(np.array(xs, dtype=np.int64))
)
texts = st.text(max_size=50)


class TestSimilarityProperties:
    @settings(max_examples=200, deadline=None)
    @given(int_sets, int_sets)
    def test_jaccard_bounds_and_symmetry(self, a, b):
        j = jaccard_sorted(a, b)
        assert 0.0 <= j <= 1.0
        assert j == jaccard_sorted(b, a)
        if a.size and np.array_equal(a, b):
            assert j == 1.0

    @settings(max_examples=200, deadline=None)
    @given(int_sets, int_sets)
    def test_intersection_matches_python_sets(self, a, b):
        assert intersect_size_sorted(a, b) == len(set(a.tolist()) & set(b.tolist()))

    @settings(max_examples=150, deadline=None)
    @given(texts, texts)
    def test_jw_bounds_symmetry_identity(self, s1, s2):
        v = jaro_winkler(s1, s2)
        assert 0.0 <= v <= 1.0
        assert v == jaro_winkler(s2, s1)
        if s1 and s1 == s2:
            assert v == 1.0


class TestHashingProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=40))
    def test_stable_hash_range(self, s):
        h = stable_hash64(s)
        assert 0 <= h < 2**63
        assert h == stable_hash64(s)

    @settings(max_examples=100, deadline=None)
    @given(int_sets)
    def test_minhash_identical_sets_identical_sigs(self, a):
        mh = MinHasher(32, seed=5)
        assert np.array_equal(mh.signature(a), mh.signature(a[::-1].copy()))

    @settings(max_examples=100, deadline=None)
    @given(int_sets)
    def test_simhash_self_distance_zero(self, a):
        assert hamming64(simhash64(a), simhash64(a)) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(int_sets, min_size=0, max_size=6))
    def test_signatures_flat_matches_per_row_signature(self, rows):
        """The hash-major batched kernel must stay bit-identical to the
        per-row signature (incl. empty rows) — it was rewritten for cache
        residency and this pins the refactor."""
        mh = MinHasher(16, seed=9)
        values = (np.concatenate(rows) if rows else np.empty(0, np.int64)).astype(np.int64)
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=offsets[1:])
        sigs = mh.signatures_flat(values, offsets)
        for i, r in enumerate(rows):
            assert np.array_equal(sigs[i], mh.signature(np.asarray(r, np.int64)))


class TestTextNormProperties:
    @settings(max_examples=150, deadline=None)
    @given(texts)
    def test_clean_text_idempotent(self, s):
        once = clean_text(s)
        assert clean_text(once) == once

    @settings(max_examples=150, deadline=None)
    @given(texts)
    def test_block_key_idempotent_and_alnum(self, s):
        k = normalize_block_key(s)
        # a key is pure alnum (no dot), so re-keying is strictly idempotent
        assert k == normalize_block_key(k)
        assert all(c.isalnum() for c in k)


class TestNtileFillRuleProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 500), st.integers(1, 20))
    def test_matches_sql_ntile_definition(self, total, n):
        """The vectorized rank→tile map must equal the SQL definition
        (first total%n tiles get total//n + 1 rows, the rest total//n)
        for every (total, n) — including n > total and total == 0."""
        from whoiswho_ray.stages.agg import _ntile_of_rank

        ranks = np.arange(total, dtype=np.int64)
        got = _ntile_of_rank(ranks, total, n)
        q, rem = divmod(total, n)
        exp = np.concatenate(
            [np.full(q + 1 if i < rem else q, i + 1, np.int64)
             for i in range(n)] or [np.empty(0, np.int64)])[:total]
        assert np.array_equal(got, exp)
        if total:
            # tiles are 1..min(n, total), monotone, sizes differ by ≤1
            assert got[0] == 1 and got[-1] == min(n, total)
            sizes = np.bincount(got)[1:]
            assert sizes.max() - sizes.min() <= 1


class TestHistogramBucketProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), max_size=80),
           st.integers(-50, 50), st.integers(1, 100), st.integers(1, 12))
    def test_bucket_math_matches_sql_floor_div(self, xs, lo, width, nbins):
        """The per-batch bucket expression must equal the SQL `//` replay
        row by row: b = (x - lo) * nbins // width clamped to [-1, nbins]."""
        hi = lo + width
        x = np.array(xs, dtype=np.int64)
        b = (x - np.int64(lo)) * np.int64(nbins) // np.int64(width)
        b = np.where(x < lo, np.int64(-1),
                     np.where(x >= hi, np.int64(nbins), b))
        for xi, bi in zip(xs, b.tolist()):
            if xi < lo:
                assert bi == -1
            elif xi >= hi:
                assert bi == nbins
            else:
                assert bi == (xi - lo) * nbins // width
                assert 0 <= bi < nbins


def _token_sets(n, vocab, max_len, p_empty, seed):
    """n token sets (flat values + offsets) over ``vocab`` ids, a share
    ``p_empty`` of them empty, plus positive float32-valued weights."""
    rng = np.random.RandomState(seed)
    rows = [np.unique(rng.randint(0, vocab, rng.randint(0, max_len + 1)))
            for _ in range(n)]
    rows = [r[:0] if rng.rand() < p_empty else r for r in rows]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([r.size for r in rows], out=offsets[1:])
    values = np.concatenate(rows).astype(np.int64) * 7_919 + 11
    weights = (rng.rand(values.size).astype(np.float32) + 0.01).astype(np.float64)
    return values, offsets, weights, rng


class TestAllPairsPairForm:
    """``allpairs_matrix(..., pairs=(ii, jj))`` scores only the candidate
    pairs and must equal the full matrices gathered at ``[ii, jj]`` bit
    for bit: dense-token counts come from a bitset popcount instead of
    BLAS, rare-token cells are mapped to pair slots before ``bincount``."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 600), vocab=st.integers(1, 300),
           max_len=st.integers(0, 40), p_empty=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**32 - 1), salted=st.booleans())
    @example(n=600, vocab=120, max_len=40, p_empty=0.3, seed=1, salted=False)
    @example(n=600, vocab=120, max_len=40, p_empty=0.3, seed=1, salted=True)
    @example(n=2, vocab=1, max_len=0, p_empty=0.0, seed=0, salted=False)
    def test_equals_matrix_gather(self, n, vocab, max_len, p_empty, seed, salted):
        values, offsets, weights, rng = _token_sets(n, vocab, max_len, p_empty, seed)
        if salted:
            # the hot-block layout: pairs keyed on record_id order, so ii > jj
            # occurs, deduplicated across buckets
            rids = np.array([f"r{i:04d}" for i in rng.permutation(n)], dtype=object)
            repo_first = rng.randint(-1, 3, n).astype(np.int64)
            cfg = SNDConfig(max_allpairs_block=1, max_pairs_per_group=500)
            ii, jj, _ = candidate_index_pairs(rids, values, offsets, repo_first, cfg)
        else:
            ii, jj = (a.astype(np.int64) for a in np.triu_indices(n, 1))
        counts = allpairs_matrix(n, values, offsets, pairs=(ii, jj))
        assert counts.tobytes() == allpairs_matrix(n, values, offsets)[ii, jj].tobytes()
        dots = allpairs_matrix(n, values, offsets, weights, pairs=(ii, jj))
        assert dots.tobytes() == allpairs_matrix(n, values, offsets, weights)[ii, jj].tobytes()
        dots, counts = allpairs_matrix(n, values, offsets, weights, with_counts=True,
                                       pairs=(ii, jj))
        full_d, full_c = allpairs_matrix(n, values, offsets, weights, with_counts=True)
        assert dots.tobytes() == full_d[ii, jj].tobytes()
        assert counts.tobytes() == full_c[ii, jj].tobytes()

    def test_example_spans_multi_word_bitsets(self):
        """The pinned 600-record example has more than 64 tokens above the
        dense-token cap (16 records at n = 600): two bitset words."""
        values, offsets, _, _ = _token_sets(600, 120, 40, 0.3, 1)
        _, k = np.unique(values, return_counts=True)
        assert (k > 16).sum() > 64

    def test_unsorted_pairs_are_refused(self):
        values, offsets, _, _ = _token_sets(5, 4, 3, 0.0, 0)
        with pytest.raises(ValueError, match="sorted and unique"):
            allpairs_matrix(5, values, offsets, pairs=(np.array([1, 0]), np.array([2, 3])))
