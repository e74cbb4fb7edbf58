"""The vectorized batch scorers must agree with the scalar reference kernel."""

import dataclasses

import numpy as np
import pyarrow as pa
import pytest

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.scoring import (_flat, jw_memo, score_flat_components,
                                         score_pair_arrays)

FEATURES = ["j_tok", "t_repo", "t_ctx", "cos", "jw", "score"]


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
    col = lambda c: _flat(t.column(c))  # noqa: E731
    out = score_flat_components(
        cfg, n,
        (col("tok_a"), col("tok_b")), (col("repo_a"), col("repo_b")),
        (col("ctx_a"), col("ctx_b")),
        ((*col("tfv_ids_a"), col("tfv_w_a")[0]), (*col("tfv_ids_b"), col("tfv_w_b")[0])),
        t.column("name_a").to_pylist(), t.column("name_b").to_pylist(), jw_memo({}))
    exp = np.array(expected)
    for ci, c in enumerate(FEATURES):
        np.testing.assert_allclose(out[c], exp[:, ci], rtol=1e-6, atol=1e-9, err_msg=c)


def test_batch_kernel_on_sliced_table():
    """``_score_block``'s flat regime (blocks above ``matrix_block_cap``)
    equals the scalar kernel on every candidate pair, and its zero-copy
    flattening respects list-array slices."""
    from whoiswho_ray.stages.pairs import _score_block

    rng = np.random.RandomState(3)
    n = 12
    rows = {k: [] for k in ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids", "tfv_w")}
    for _ in range(n):
        tok = _rand_sorted(rng, 30)
        tfv = tok[rng.rand(tok.size) < 0.7]
        w = rng.rand(tfv.size).astype(np.float32)
        for k, v in (("tok_ids", tok), ("repo_ids", _rand_sorted(rng, 3)),
                     ("ctx_ids", _rand_sorted(rng, 4)), ("tfv_ids", tfv),
                     ("tfv_w", w / max(float(np.linalg.norm(w)), 1e-9))):
            rows[k].append(v.tolist())
    names = ["a.py", "b.py", "mod_x.py", "Mod-X.py", ""]
    t = pa.table({
        "block_key": ["bk"] * n,
        "record_id": [f"r{i:02d}" for i in range(n)],
        "name": [names[i % len(names)] for i in range(n)],
        **{k: pa.array(rows[k], pa.list_(pa.int64()))
           for k in ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids")},
        "tfv_w": pa.array(rows["tfv_w"], pa.list_(pa.float32())),
    })
    g = t.slice(3, 7)
    cfg = dataclasses.replace(SNDConfig(), matrix_block_cap=1)
    _rids, ii, jj, feats, _ = _score_block(g, cfg)
    assert ii.size == 7 * 6 // 2
    arr = {k: [np.asarray(v, dtype=np.float32 if k == "tfv_w" else np.int64)
               for v in g.column(k).to_pylist()] for k in rows}
    nm = g.column("name").to_pylist()
    exp = np.array([score_pair_arrays(
        arr["tok_ids"][a], arr["tok_ids"][b], arr["repo_ids"][a], arr["repo_ids"][b],
        arr["ctx_ids"][a], arr["ctx_ids"][b], arr["tfv_ids"][a], arr["tfv_w"][a],
        arr["tfv_ids"][b], arr["tfv_w"][b], nm[a], nm[b], cfg) for a, b in zip(ii, jj)])
    for ci, c in enumerate(FEATURES):
        np.testing.assert_allclose(feats[c], exp[:, ci], rtol=1e-6, atol=1e-9, err_msg=c)


def test_fused_edges_match_two_stage_path(small_fixture, tmp_path):
    """Every row of the checkpointed run's ``edges`` stage (scored inside
    the fused block kernel, on the compact shuffle encoding) carries the
    features the scalar kernel gives the same pair over the full
    encoding — in the matrix regime and, with ``matrix_block_cap=1``,
    in the flat one."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from whoiswho_ray.pipelines.snd import run_snd, snd_summary
    from whoiswho_ray.stages.idf import build_idf
    from whoiswho_ray.stages.normalize import normalize_records
    from whoiswho_ray.stages.scoring import vectorize

    spec, tabs = small_fixture
    records = tabs["records"].slice(0, 800)
    norm = normalize_records(rd.from_arrow(records), SNDConfig())
    full = {r["record_id"]: r for r in
            vectorize(norm, build_idf(norm, SNDConfig()), SNDConfig()).take_all()}

    def scalar(ida, idb, cfg):
        x, y = full[ida], full[idb]
        v = {c: (np.asarray(x[c]), np.asarray(y[c]))
             for c in ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids", "tfv_w")}
        return score_pair_arrays(*v["tok_ids"], *v["repo_ids"], *v["ctx_ids"],
                                 v["tfv_ids"][0], v["tfv_w"][0], v["tfv_ids"][1],
                                 v["tfv_w"][1], x["name"] or "", y["name"] or "", cfg)

    for cap in (SNDConfig().matrix_block_cap, 1):
        cfg = dataclasses.replace(SNDConfig(), matrix_block_cap=cap)
        out = str(tmp_path / f"run{cap}")
        run_snd(rd.from_arrow(records), cfg, out_dir=out)
        edges = pq.read_table(snd_summary(out)["stages"]["edges"]["path"]).to_pandas()
        assert len(edges) > 0
        exp = np.array([scalar(a, b, cfg) for a, b in zip(edges["id_a"], edges["id_b"])])
        for ci, c in enumerate(FEATURES):
            np.testing.assert_allclose(edges[c].to_numpy(), exp[:, ci], rtol=1e-6,
                                       atol=1e-9, err_msg=f"{c}, matrix_block_cap={cap}")


def test_pair_features_are_the_kernel_candidates(hot_block):
    """On a salted hot block the trainer's pair features are the
    inference kernel's: a labeled pair has features exactly when it is
    one of the compact kernel's candidates, and they are that kernel's
    features. (Salting over the full encoding's token hashes picked a
    different candidate set.)"""
    import pandas as pd
    import ray.data as rd

    from whoiswho_ray.stages.pairs import _score_block
    from whoiswho_ray.training import FEATURES as TRAIN_FEATURES
    from whoiswho_ray.training import pair_features

    g, idf_w, tabs = hot_block
    cfg = SNDConfig()
    labeled = tabs["labeled_pairs"].to_pandas()
    rids, ii, jj, feats, _ = _score_block(g, cfg, idf_w=idf_w)
    a, b = rids[ii], rids[jj]
    kernel = pd.DataFrame({"record_id_a": np.minimum(a, b), "record_id_b": np.maximum(a, b),
                           **{f: feats[f] for f in TRAIN_FEATURES}})
    want = labeled.merge(kernel, on=["record_id_a", "record_id_b"], how="left",
                         indicator=True)
    found = (want.pop("_merge") == "both").to_numpy()
    assert 0 < found.sum() < len(want)
    want[TRAIN_FEATURES] = want[TRAIN_FEATURES].fillna(0.0)
    got = pair_features(rd.from_arrow(tabs["records"]), labeled, cfg)
    key = ["record_id_a", "record_id_b"]
    pd.testing.assert_frame_equal(got.sort_values(key, ignore_index=True),
                                  want.sort_values(key, ignore_index=True))


@pytest.fixture(scope="module")
def hot_block(ray_session):
    """A 2,000-record fixture hot block in the streaming shuffle encoding,
    with the idf weights its kernels re-derive tfv_w from."""
    import ray.data as rd

    from whoiswho_ray.fixtures import FixtureSpec, generate_tables
    from whoiswho_ray.stages.agg import collect_blocks
    from whoiswho_ray.stages.idf import build_idf
    from whoiswho_ray.stages.normalize import normalize_records
    from whoiswho_ray.stages.pairs import CLUSTER_SHUFFLE_COLUMNS
    from whoiswho_ray.stages.scoring import vectorize

    cfg = SNDConfig()
    spec = FixtureSpec(n_blocks=1, entities_per_block=(4, 4),
                       records_per_entity=(25, 25), hot_factor=20, seed=5)
    tabs = generate_tables(spec)
    normalized = normalize_records(rd.from_arrow(tabs["records"]), cfg).materialize()
    idf = build_idf(normalized, cfg)
    g = pa.concat_tables(collect_blocks(vectorize(
        normalized, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS, compact=True,
        ship_weights=False, sha_binary=True)))
    assert g.num_rows == 2_000 and cfg.max_allpairs_block < 2_000 <= cfg.matrix_block_cap
    return g, np.asarray(idf.idf), tabs


def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hot_block_kernel_memory_is_bounded(hot_block):
    """The block kernel scores a salted block's candidate pairs without
    n×n count matrices: on the hot block, its traced peak stays within
    two n×n float64 matrices (the tf-idf Gram is the one left). Building
    a matrix per token family peaked at 4.8 of them on this block."""
    from whoiswho_ray.stages.pairs import make_block_clusters

    g, idf_w, _ = hot_block
    n = g.num_rows
    out, peak = _traced_peak(lambda: make_block_clusters(g, SNDConfig(), idf_w=idf_w))
    assert out.num_rows == n
    assert peak <= 2 * n * n * 8, peak / (n * n * 8)


def test_hot_block_sgc_kernel_memory_is_bounded(hot_block):
    """The graph-smoothed kernel keeps two n×n matrices, the tf-idf Gram
    and the smoothing operator: its overlap counts come from the pair
    form and ``P·G·P`` is formed a band of rows at a time. With an n×n
    count matrix and the full product it peaked at 4.9 of them on the
    hot block."""
    from whoiswho_ray.stages.pairs import make_block_sgc_clusters

    g, idf_w, _ = hot_block
    n = g.num_rows
    out, peak = _traced_peak(lambda: make_block_sgc_clusters(g, SNDConfig(), idf_w=idf_w))
    assert out.num_rows == n
    assert peak <= 4 * n * n * 8, peak / (n * n * 8)
