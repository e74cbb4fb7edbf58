"""End-to-end SND gate: pairwise F1 ≥ 0.99, sha256 invariant, order invariance."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.evaluation import labeled_pair_f1, pairwise_f1_ds, pairwise_f1_frames
from whoiswho_ray.functions.hashing import record_id_of, sha256_hex
from whoiswho_ray.pipelines.snd import run_snd


@pytest.fixture(scope="module")
def snd_result(small_fixture):
    spec, tabs = small_fixture
    clusters = run_snd(rd.from_arrow(tabs["records"]))
    return tabs, clusters.to_pandas()


class TestSNDEndToEnd:
    def test_every_record_clustered_once(self, snd_result):
        tabs, pred = snd_result
        assert len(pred) == tabs["records"].num_rows
        assert pred["record_id"].is_unique

    def test_pairwise_f1_gate(self, snd_result):
        """The BASELINE.json gate: mean per-block pairwise F1 ≥ 0.99 using
        the reference's formula (SNDeval.py:9-70 semantics)."""
        tabs, pred = snd_result
        ev = pairwise_f1_frames(pred, tabs["ground_truth"].to_pandas())
        mean_f1 = ev.loc[ev["block_key"] == "__mean__", "f1"].iloc[0]
        assert mean_f1 >= 0.99, ev.to_string()

    def test_labeled_pair_f1_gate(self, snd_result):
        tabs, pred = snd_result
        res = labeled_pair_f1(pred, tabs["labeled_pairs"].to_pandas())
        assert res["f1"] >= 0.99, res

    def test_distributed_eval_matches_driver_eval(self, snd_result):
        tabs, pred = snd_result
        truth = tabs["ground_truth"].to_pandas()
        driver = pairwise_f1_frames(pred, truth)
        dist = pairwise_f1_ds(rd.from_pandas(pred), rd.from_pandas(truth))
        a = driver.set_index("block_key")["f1"].sort_index()
        b = dist.set_index("block_key")["f1"].sort_index()
        pd.testing.assert_series_equal(a, b, rtol=1e-9)

    def test_content_sha256_invariant(self, snd_result):
        """Per-row invariant from BASELINE.json input_hint: every output row
        carries the sha256 of its input content."""
        tabs, pred = snd_result
        rec = tabs["records"].to_pandas()
        rec["record_id"] = [
            record_id_of(r, p, c) for r, p, c in zip(rec["repo"], rec["path"], rec["commit"])
        ]
        rec["sha"] = [sha256_hex(c) for c in rec["content"]]
        m = pred.merge(rec[["record_id", "sha"]], on="record_id", how="inner")
        assert len(m) == len(pred)
        assert (m["content_sha256"] == m["sha"]).all()

    def test_row_order_invariance(self, small_fixture, snd_result):
        """Clustering must not depend on input row order (the reference's
        positional-alignment hazard, SURVEY.md §7.3.1)."""
        spec, tabs = small_fixture
        _, pred = snd_result
        rec = tabs["records"].to_pandas().sample(frac=1.0, random_state=5).reset_index(drop=True)
        pred2 = run_snd(rd.from_pandas(rec)).to_pandas()
        a = pred.sort_values("record_id").reset_index(drop=True)
        b = pred2.sort_values("record_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a[["record_id", "cluster_id"]], b[["record_id", "cluster_id"]])


@pytest.mark.parametrize("seed", [7, 99])
def test_f1_gate_holds_across_seeds(seed):
    """Thresholds must not be overfit to the default fixture seed."""
    from whoiswho_ray.fixtures import FixtureSpec, generate_tables

    tabs = generate_tables(FixtureSpec(n_blocks=6, hot_factor=3, seed=seed))
    pred = run_snd(rd.from_arrow(tabs["records"])).to_pandas()
    ev = pairwise_f1_frames(pred, tabs["ground_truth"].to_pandas())
    mean_f1 = ev.loc[ev["block_key"] == "__mean__", "f1"].iloc[0]
    assert mean_f1 >= 0.99


def test_compact_clusters_equal_full(small_fixture):
    """The compact shuffle encoding (int32 tfv positions + tok_n scalar,
    scoring.vectorize(compact=True)) must produce exactly the full
    encoding's clusters on all-pairs blocks: pruned df==1 tokens cannot
    intersect, so j_tok/cos are bit-identical."""
    import pandas as pd
    import ray.data as rd

    from whoiswho_ray.config import SNDConfig
    from whoiswho_ray.pipelines.snd import snd_cluster
    from whoiswho_ray.stages.idf import build_idf
    from whoiswho_ray.stages.normalize import normalize_records
    from whoiswho_ray.stages.pairs import CLUSTER_SHUFFLE_COLUMNS
    from whoiswho_ray.stages.scoring import vectorize

    spec, tabs = small_fixture
    cfg = SNDConfig()
    norm = normalize_records(rd.from_arrow(tabs["records"]), cfg).materialize()
    idf = build_idf(norm, cfg)
    full = vectorize(norm, idf, cfg).materialize()
    compact = vectorize(norm, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS,
                        compact=True).materialize()
    assert "tok_n" in compact.schema().names
    assert "tok_ids" not in compact.schema().names
    a = snd_cluster(norm, full, cfg).to_pandas().sort_values(
        "record_id").reset_index(drop=True)
    b = snd_cluster(norm, compact, cfg).to_pandas().sort_values(
        "record_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_compact_f1_holds_on_salted_hot_block():
    """Hot blocks (> max_allpairs_block) salt via minhash over the tfv
    positions under the compact encoding — candidate sets may differ from
    the full encoding, but recall on the labeled fixture must hold."""
    import ray.data as rd

    from whoiswho_ray.config import SNDConfig
    from whoiswho_ray.evaluation import pairwise_f1_frames
    from whoiswho_ray.fixtures import FixtureSpec, generate_tables
    from whoiswho_ray.pipelines.snd import run_snd

    tabs = generate_tables(FixtureSpec(n_blocks=4, hot_factor=60, seed=7))
    clusters = run_snd(rd.from_arrow(tabs["records"]), SNDConfig()).to_pandas()
    truth = tabs["ground_truth"].to_pandas()
    ev = pairwise_f1_frames(clusters, truth)
    mean_f1 = ev.loc[ev["block_key"] == "__mean__", "f1"].iloc[0]
    assert mean_f1 >= 0.99, ev.to_string()


def test_compact_falls_back_when_vocab_truncated(small_fixture):
    """compact=True must quietly keep the full encoding when the vocab is
    truncated or min_df > 2 — the pruned tokens CAN intersect there."""
    import ray.data as rd

    from whoiswho_ray.config import SNDConfig
    from whoiswho_ray.stages.idf import build_idf
    from whoiswho_ray.stages.normalize import normalize_records
    from whoiswho_ray.stages.pairs import CLUSTER_SHUFFLE_COLUMNS
    from whoiswho_ray.stages.scoring import vectorize

    spec, tabs = small_fixture
    cfg = SNDConfig(max_vocab=16)  # force truncation
    norm = normalize_records(rd.from_arrow(tabs["records"]), cfg).materialize()
    idf = build_idf(norm, cfg)
    assert idf.truncated
    vec = vectorize(norm, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS, compact=True)
    names = vec.schema().names
    assert "tok_ids" in names and "tok_n" not in names

    cfg3 = SNDConfig(min_df=3)
    idf3 = build_idf(norm, cfg3)
    vec3 = vectorize(norm, idf3, cfg3, keep=CLUSTER_SHUFFLE_COLUMNS, compact=True)
    names3 = vec3.schema().names
    assert "tok_ids" in names3 and "tok_n" not in names3
