"""The vectorized batch scorer must agree with the scalar reference kernel."""

import numpy as np
import pyarrow as pa
import pytest

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.scoring import PairScorer, score_pair_arrays


def _rand_sorted(rng, max_len):
    n = rng.randint(0, max_len)
    return np.unique(rng.randint(0, 500, n).astype(np.int64))


@pytest.mark.parametrize("seed", [0, 1])
def test_batch_kernel_matches_scalar(seed):
    rng = np.random.RandomState(seed)
    cfg = SNDConfig()
    n = 300
    rows = {k: [] for k in ("block_key", "id_a", "id_b", "name_a", "name_b",
                            "tok_a", "tok_b", "repo_a", "repo_b", "ctx_a", "ctx_b",
                            "tfv_ids_a", "tfv_w_a", "tfv_ids_b", "tfv_w_b")}
    expected = []
    names = ["a.py", "b.py", "mod_x.py", "Mod-X.py", ""]
    for i in range(n):
        tok_a, tok_b = _rand_sorted(rng, 60), _rand_sorted(rng, 60)
        repo_a, repo_b = _rand_sorted(rng, 4), _rand_sorted(rng, 4)
        ctx_a, ctx_b = _rand_sorted(rng, 6), _rand_sorted(rng, 6)
        tfa = tok_a[rng.rand(tok_a.size) < 0.7]
        tfb = tok_b[rng.rand(tok_b.size) < 0.7]
        wa = rng.rand(tfa.size).astype(np.float32)
        wb = rng.rand(tfb.size).astype(np.float32)
        na, nb = names[rng.randint(len(names))], names[rng.randint(len(names))]
        expected.append(score_pair_arrays(tok_a, tok_b, repo_a, repo_b, ctx_a, ctx_b,
                                          tfa, wa, tfb, wb, na, nb, cfg))
        for k, v in [("block_key", "bk"), ("id_a", f"r{i}a"), ("id_b", f"r{i}b"),
                     ("name_a", na), ("name_b", nb),
                     ("tok_a", tok_a), ("tok_b", tok_b), ("repo_a", repo_a),
                     ("repo_b", repo_b), ("ctx_a", ctx_a), ("ctx_b", ctx_b),
                     ("tfv_ids_a", tfa), ("tfv_w_a", wa),
                     ("tfv_ids_b", tfb), ("tfv_w_b", wb)]:
            rows[k].append(v)

    t = pa.table({
        **{k: pa.array(rows[k], pa.string()) for k in ("block_key", "id_a", "id_b", "name_a", "name_b")},
        **{k: pa.array([a.tolist() for a in rows[k]], pa.list_(pa.int64()))
           for k in ("tok_a", "tok_b", "repo_a", "repo_b", "ctx_a", "ctx_b", "tfv_ids_a", "tfv_ids_b")},
        **{k: pa.array([a.tolist() for a in rows[k]], pa.list_(pa.float32()))
           for k in ("tfv_w_a", "tfv_w_b")},
    })
    out = PairScorer(cfg)(t).to_pandas()
    exp = np.array(expected)
    for ci, col in enumerate(["j_tok", "t_repo", "t_ctx", "cos", "jw", "score"]):
        np.testing.assert_allclose(out[col].to_numpy(), exp[:, ci], rtol=1e-6, atol=1e-9,
                                   err_msg=col)


def test_batch_kernel_on_sliced_table():
    """Zero-copy flattening must respect list-array slices."""
    cfg = SNDConfig()
    toks = [[1, 2, 3], [2, 3], [9], [1, 9]]
    t = pa.table({
        "block_key": ["b"] * 4, "id_a": ["1", "2", "3", "4"], "id_b": ["5", "6", "7", "8"],
        "name_a": ["x"] * 4, "name_b": ["x"] * 4,
        "tok_a": pa.array(toks, pa.list_(pa.int64())),
        "tok_b": pa.array(toks[::-1], pa.list_(pa.int64())),
        "repo_a": pa.array([[1]] * 4, pa.list_(pa.int64())),
        "repo_b": pa.array([[1]] * 4, pa.list_(pa.int64())),
        "ctx_a": pa.array([[]] * 4, pa.list_(pa.int64())),
        "ctx_b": pa.array([[]] * 4, pa.list_(pa.int64())),
        "tfv_ids_a": pa.array([[1]] * 4, pa.list_(pa.int64())),
        "tfv_ids_b": pa.array([[1]] * 4, pa.list_(pa.int64())),
        "tfv_w_a": pa.array([[1.0]] * 4, pa.list_(pa.float32())),
        "tfv_w_b": pa.array([[1.0]] * 4, pa.list_(pa.float32())),
    })
    sliced = t.slice(1, 2)
    out = PairScorer(cfg)(sliced).to_pandas()
    # row 0 of slice: tok [2,3] vs [9] → 0 ; row 1: [9] vs [2,3] → 0
    assert out["j_tok"].tolist() == [0.0, 0.0]
    assert out["cos"].tolist() == [1.0, 1.0]


def test_fused_edges_match_two_stage_path(small_fixture, tmp_path):
    """The checkpointed run's ``edges`` stage (scored inside the fused
    block kernel) == generate_pairs → PairScorer."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from whoiswho_ray.pipelines.snd import run_snd, snd_summary
    from whoiswho_ray.stages.idf import build_idf
    from whoiswho_ray.stages.normalize import normalize_records
    from whoiswho_ray.stages.pairs import generate_pairs
    from whoiswho_ray.stages.scoring import score_pairs, vectorize

    spec, tabs = small_fixture
    cfg = SNDConfig()
    records = tabs["records"].slice(0, 800)
    out = str(tmp_path / "run")
    run_snd(rd.from_arrow(records), cfg, out_dir=out)
    fused = pq.read_table(snd_summary(out)["stages"]["edges"]["path"]).to_pandas()
    norm = normalize_records(rd.from_arrow(records), cfg)
    idf = build_idf(norm, cfg)
    vec = vectorize(norm, idf, cfg).materialize()
    staged = score_pairs(generate_pairs(vec, cfg), cfg).to_pandas()
    key = ["block_key", "id_a", "id_b"]
    a = fused.sort_values(key).reset_index(drop=True)
    b = staged.sort_values(key).reset_index(drop=True)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a[key + ["score"]], b[key + ["score"]], rtol=1e-12)


def test_hot_block_kernel_memory_is_bounded(ray_session):
    """The block kernel scores a salted block's candidate pairs without
    n×n count matrices: on a 2,000-record fixture hot block in the
    streaming shuffle encoding, its traced peak stays within two n×n
    float64 matrices (the tf-idf Gram is the one left). Building a
    matrix per token family peaked at 4.8 of them on this block."""
    import tracemalloc

    import ray.data as rd

    from whoiswho_ray.fixtures import FixtureSpec, generate_tables
    from whoiswho_ray.stages.agg import collect_blocks
    from whoiswho_ray.stages.idf import build_idf
    from whoiswho_ray.stages.normalize import normalize_records
    from whoiswho_ray.stages.pairs import CLUSTER_SHUFFLE_COLUMNS, make_block_clusters
    from whoiswho_ray.stages.scoring import vectorize

    n = 2_000
    cfg = SNDConfig()
    spec = FixtureSpec(n_blocks=1, entities_per_block=(4, 4),
                       records_per_entity=(25, 25), hot_factor=20, seed=5)
    normalized = normalize_records(
        rd.from_arrow(generate_tables(spec)["records"]), cfg).materialize()
    idf = build_idf(normalized, cfg)
    g = pa.concat_tables(collect_blocks(vectorize(
        normalized, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS, compact=True,
        ship_weights=False, sha_binary=True)))
    assert g.num_rows == n and cfg.max_allpairs_block < n <= cfg.matrix_block_cap
    idf_w = np.asarray(idf.idf)
    tracemalloc.start()
    try:
        out = make_block_clusters(g, cfg, idf_w=idf_w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.num_rows == n
    assert peak <= 2 * n * n * 8, peak / (n * n * 8)
