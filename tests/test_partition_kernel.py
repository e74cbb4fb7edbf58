"""The partition kernels equal the per-block kernels.

``snd._blocked`` hands each block kernel one key-sorted shuffle partition
(whole blocks) instead of one block. The input here has a salted hot
block whose same-repo bucket truncates, blocks on both sides of the
batched small-block bound, a one-record block, an empty and a missing
name; every output must equal the same kernel run on one-block tables,
and the features must equal the per-block scorer's bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.functions.similarity import jaro_winkler
from whoiswho_ray.stages import pairs
from whoiswho_ray.stages.scoring import jw_for_pairs

CFG = SNDConfig(max_allpairs_block=40, max_pairs_per_group=200)
CONFIGS = {
    "matrix": CFG,
    "flat": dataclasses.replace(CFG, matrix_block_cap=20),
    "relational": dataclasses.replace(CFG, w_rel=0.5),
}
SIZES = {"a_one": 1, "b_pair": 2, "c_five": 5, "d_sixteen": pairs.SMALL_BLOCK,
         "e_seventeen": pairs.SMALL_BLOCK + 1, "f_thirty": 30, "g_hot": 60}
NAMES = ["Model.py", "model.py", "mödel_ß.py", "", None, "util.py"]


def _vectorized(seed: int = 0) -> tuple[pa.Table, np.ndarray]:
    """A compact-encoding vectorized table (rows shuffled) and its idf
    weights. Records of one entity share most of a token pool; the hot
    block's records all share one repo, so its salt bucket truncates."""
    rng = np.random.RandomState(seed)
    vocab = 300
    idf_w = (rng.rand(vocab) + 0.5).astype(np.float32)
    sizes = dict(SIZES, **{f"h{k}": int(rng.randint(2, 12)) for k in range(6)})
    rows = []
    for key, n in sizes.items():
        pools = [rng.choice(vocab, 12, replace=False) for _ in range(max(1, n // 4))]
        for i in range(n):
            e = rng.randint(len(pools))
            # one mid-vocabulary token is in every record: a block's
            # all-records token sits at the dense-path bound (16) or above
            # it, and its sum lands between the other tokens' terms
            tfv = np.unique(np.r_[vocab // 2, rng.choice(pools[e], 8, replace=False),
                                  rng.choice(vocab, 2)]).astype(np.int32)
            rid = f"{key}-{rng.randint(10**6):06d}-{i}"
            repo = [7] if key == "g_hot" else sorted(set(rng.choice([1, 2, 3], 1 + e % 2)))
            rows.append({
                "block_key": key, "record_id": rid,
                "name": NAMES[(e + i % 2) % len(NAMES)],
                "tok_n": int(tfv.size + rng.randint(3)),
                "repo_ids": [int(r) for r in repo],
                "ctx_ids": sorted({int(x) for x in rng.choice(5, 2)}),
                "content_sha256": hashlib.sha256(rid.encode()).digest(),
                "tfv_ids": tfv.tolist(),
            })
    rows = [rows[k] for k in rng.permutation(len(rows))]
    schema = pa.schema([("block_key", pa.string()), ("record_id", pa.string()),
                        ("name", pa.string()), ("tok_n", pa.int32()),
                        ("repo_ids", pa.list_(pa.int64())), ("ctx_ids", pa.list_(pa.int64())),
                        ("content_sha256", pa.binary(32)), ("tfv_ids", pa.list_(pa.int32()))])
    return pa.Table.from_pylist(rows, schema=schema), idf_w


@pytest.fixture(scope="module")
def vectorized():
    return _vectorized()


def _sorted(t: pa.Table) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=[("block_key", "ascending")]))


def _blocks(t: pa.Table) -> list[pa.Table]:
    t = _sorted(t)
    starts, _ = pairs._block_bounds(t.column("block_key").combine_chunks())
    return [t.slice(s, e - s) for s, e in zip(starts[:-1], starts[1:])]


def _partitions(t: pa.Table, k: int) -> list[pa.Table]:
    """``t`` sorted by block_key, cut at block bounds into ``k`` runs."""
    blocks = _blocks(t)
    cuts = np.linspace(0, len(blocks), k + 1).astype(int)
    return [pa.concat_tables(blocks[a:b]) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]


def _frame(t: pa.Table, key: list[str]) -> pd.DataFrame:
    return t.to_pandas().sort_values(key, ignore_index=True)


def _pair_frame(block_key, rids, ii, jj, feats: dict) -> pd.DataFrame:
    a, b = rids[ii], rids[jj]
    return pd.DataFrame({"block_key": block_key, "a": np.minimum(a, b),
                         "b": np.maximum(a, b), **feats}).sort_values(
                             ["block_key", "a", "b"], ignore_index=True)


def _one_block_clusters(block: pa.Table, cfg: SNDConfig, idf_w) -> pd.DataFrame:
    """The per-block cluster kernel written out: ``_score_block``, then
    ``cluster_edge_arrays`` over one block's record_id-sorted positions."""
    from whoiswho_ray.stages.cluster import cluster_edge_arrays

    key = block.column("block_key")[0].as_py()
    rids = np.asarray(block.column("record_id").to_pylist(), dtype=object)
    order = np.argsort(rids, kind="stable")
    pos = np.empty(order.size, dtype=np.int64)
    pos[order] = np.arange(order.size)
    labels = np.arange(rids.size)
    scored = pairs._score_block(block, cfg, idf_w=idf_w)
    if scored is not None:
        _, ii, jj, feats, _ = scored
        keep = feats["score"] >= min(cfg.tau_attach, cfg.tau_edge)
        labels = cluster_edge_arrays(rids.size, pos[ii[keep]], pos[jj[keep]],
                                     feats["score"][keep], cfg)
    shas = [b.hex() for b in block.column("content_sha256").to_pylist()]
    return pd.DataFrame({"block_key": key, "record_id": rids[order],
                         "cluster_id": [f"{key}#{r}" for r in rids[order][labels]],
                         "content_sha256": np.asarray(shas, dtype=object)[order]})


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("k", [1, 3, 7])
def test_partition_features_equal_per_block_scorer(vectorized, name, k):
    t, idf_w = vectorized
    cfg = CONFIGS[name]
    want, metrics = [], []
    for block in _blocks(t):
        metrics.append(pairs.block_metrics(block, cfg))
        scored = pairs._score_block(block, cfg, idf_w=idf_w)
        if scored is not None:
            rids, ii, jj, feats, _ = scored
            want.append(_pair_frame(block.column("block_key")[0].as_py(), rids, ii, jj, feats))
    want = pd.concat(want).sort_values(["block_key", "a", "b"], ignore_index=True)
    got, got_metrics = [], []
    for part in _partitions(t, k):
        sc = pairs._score_partition(part, cfg, idf_w)
        got.append(_pair_frame(sc.block_key.take(pa.array(sc.ii)).to_numpy(zero_copy_only=False),
                               sc.rows.rids, sc.ii, sc.jj, sc.feats))
        got_metrics.append(pd.DataFrame({"block_key": sc.keys, "n_pairs": sc.n_pairs,
                                         "truncated_pairs": sc.truncated}))
    got = pd.concat(got).sort_values(["block_key", "a", "b"], ignore_index=True)
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    m = pa.concat_tables(metrics).to_pandas()
    pd.testing.assert_frame_equal(pd.concat(got_metrics, ignore_index=True),
                                  m[["block_key", "n_pairs", "truncated_pairs"]])
    assert m.set_index("block_key").loc["g_hot", "truncated_pairs"] > 0
    assert m["salted"].sum() == 1


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_partition_clusters_equal_per_block_union_find(vectorized, name):
    t, idf_w = vectorized
    cfg = CONFIGS[name]
    key = ["record_id"]
    want = pd.concat([_one_block_clusters(b, cfg, idf_w) for b in _blocks(t)])
    want = want.sort_values(key, ignore_index=True)
    for k in (1, 3, 7):
        got = pa.concat_tables([pairs.make_block_clusters(p, cfg, idf_w)
                                for p in _partitions(t, k)])
        pd.testing.assert_frame_equal(_frame(got, key), want)
    sizes = want["cluster_id"].value_counts()
    assert sizes.max() > 1 and (sizes == 1).any()


def test_relational_rows_equal_one_block_tables(vectorized):
    from whoiswho_ray.stages.relational import make_relational_rows

    t, idf_w = vectorized
    key = ["block_key", "id_a", "id_b"]
    want = _frame(pa.concat_tables([make_relational_rows(b, CFG, idf_w)
                                    for b in _blocks(t)]), key)
    got = _frame(pa.concat_tables([make_relational_rows(p, CFG, idf_w)
                                   for p in _partitions(t, 3)]), key)
    pd.testing.assert_frame_equal(got, want)
    assert want["s"].sum() > 0


def _kernels(cfg: SNDConfig) -> dict:
    """Every partition kernel; IND's reads ``block_key`` as the claimed
    profile, and "edges" is the ``snd_edges`` query's."""
    import __ray_entry__ as entry
    from whoiswho_ray.pipelines.ind import profile_kernel

    cfgs = pairs.default_vote_configs(cfg)
    return {
        "clusters": lambda g, w: pairs.make_block_clusters(g, cfg, idf_w=w),
        "vote": lambda g, w: pairs.make_block_vote_clusters(g, cfgs, len(cfgs) // 2 + 1,
                                                           idf_w=w),
        "sgc": lambda g, w: pairs.make_block_sgc_clusters(g, cfg, idf_w=w, refine_rounds=1),
        "pr": lambda g, w: pairs.make_block_pr_counts(g, cfg, (1.0, 1.5, 2.0), idf_w=w),
        "ind": lambda g, w: profile_kernel(g, cfg, idf_w=w),
        "edges": lambda g, w: entry._block_pair_counts(g, cfg, w),
    }


def _canonical(kind: str, df: pd.DataFrame) -> pd.DataFrame:
    if kind == "pr":
        return df.groupby("tau_cents", as_index=False).sum()
    if kind == "edges":
        return df.sort_values(["block_key", "id_a", "id_b"], ignore_index=True)
    return df.sort_values("record_id", ignore_index=True)


@pytest.mark.parametrize("partitions", [1, 3, 7])
def test_blocked_outputs_equal_one_block_kernels(vectorized, partitions):
    from whoiswho_ray.pipelines.snd import _blocked

    t, idf_w = vectorized
    for kind, kernel in _kernels(CFG).items():
        want = pa.concat_tables([kernel(b, idf_w) for b in _blocks(t)]).to_pandas()
        got = _blocked(rd.from_arrow(t), kernel, SimpleNamespace(idf=idf_w), partitions)
        pd.testing.assert_frame_equal(_canonical(kind, got.to_pandas()),
                                      _canonical(kind, want), obj=kind)


def test_empty_partition_keeps_the_typed_schema(vectorized):
    t, idf_w = vectorized
    for kind, kernel in _kernels(CFG).items():
        empty, one = kernel(t.slice(0, 0), idf_w), kernel(_blocks(t)[3], idf_w)
        assert empty.schema == one.schema, kind


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_block_stages_equal_one_block_tables(vectorized, name):
    """Each of the three checkpointed stage tables of a partition equals
    the same stage over one-block tables, in its stage schema, for any
    cut of the sorted input; an empty partition keeps those schemas."""
    t, idf_w = vectorized
    cfg = CONFIGS[name]
    schemas = pairs.block_stage_schemas(cfg)
    keys = {"edges": ["block_key", "id_a", "id_b"], "block_metrics": ["block_key"],
            "clusters": ["record_id"]}

    def stages(parts):
        outs = [pairs.make_block_stages(p, cfg, idf_w=idf_w) for p in parts]
        return {s: pa.concat_tables([o[s] for o in outs]) for s in pairs.BLOCK_STAGES}

    want = stages(_blocks(t))
    assert want["edges"].num_rows > 0
    for k in (1, 3, 7):
        got = stages(_partitions(t, k))
        for s in pairs.BLOCK_STAGES:
            assert got[s].schema == schemas[s], (s, k)
            pd.testing.assert_frame_equal(_frame(got[s], keys[s]), _frame(want[s], keys[s]),
                                          check_exact=True, obj=f"{s} k={k}")
    empty = pairs.make_block_stages(t.slice(0, 0), cfg, idf_w=idf_w)
    assert {s: e.schema for s, e in empty.items()} == schemas


def test_unsorted_partition_is_refused(vectorized):
    t, idf_w = vectorized
    blocks = _blocks(t)
    with pytest.raises(ValueError, match="sorted by block_key"):
        pairs.make_block_clusters(pa.concat_tables([blocks[2], blocks[1]]), CFG, idf_w)


def test_jw_for_pairs_lowercases_and_orients():
    """One value per unordered pair: the smaller name (code point order)
    first, both lowercased, a missing name as ""."""
    names = np.array(["Mod-X.py", "mod_x.py", None, "", "MARTHA", "marhta", "Ä.py"],
                     dtype=object)
    ii, jj = np.triu_indices(names.size, 1)
    ii, jj = np.r_[ii, jj], np.r_[jj, ii]
    clean = [x or "" for x in names]
    want = np.array([jaro_winkler(min(clean[i], clean[j]).lower(),
                                  max(clean[i], clean[j]).lower())
                     for i, j in zip(ii, jj)])
    assert jw_for_pairs(names, ii, jj).tobytes() == want.tobytes()
