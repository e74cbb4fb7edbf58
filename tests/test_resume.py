"""Checkpoint / resume semantics (north_rule: resumable from checkpoint)."""

import json
import os
import shutil

import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.fixtures import FixtureSpec, generate_tables
from whoiswho_ray.pipelines.snd import run_snd, snd_summary


@pytest.fixture(scope="module")
def tiny_tables():
    return generate_tables(FixtureSpec(n_blocks=4, hot_factor=2, seed=9))


def _input_ds(tabs):
    return rd.from_arrow(tabs["records"])


def _mtimes(path):
    return {p: os.path.getmtime(os.path.join(path, p)) for p in os.listdir(path)}


class TestResume:
    def test_checkpointed_equals_inmemory(self, tiny_tables, tmp_path):
        tabs = tiny_tables
        out = str(tmp_path / "run1")
        a = run_snd(_input_ds(tabs), out_dir=out).to_pandas()
        b = run_snd(_input_ds(tabs)).to_pandas()
        a = a.sort_values("record_id").reset_index(drop=True)
        b = b.sort_values("record_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a[["record_id", "cluster_id"]], b[["record_id", "cluster_id"]])

    def test_manifest_lineage(self, tiny_tables, tmp_path):
        out = str(tmp_path / "run2")
        run_snd(_input_ds(tiny_tables), out_dir=out)
        man = snd_summary(out)
        stages = man["stages"]
        assert {"normalized", "idf", "edges", "clusters", "block_metrics"} <= set(stages)
        assert stages["edges"]["inputs"] == ["normalized", "idf"]
        assert stages["clusters"]["rows"] == tiny_tables["records"].num_rows
        assert "config_hash" in man

    def test_resume_skips_completed_and_matches(self, tiny_tables, tmp_path):
        out = str(tmp_path / "run3")
        first = run_snd(_input_ds(tiny_tables), out_dir=out).to_pandas()
        # simulate a crash after "edges": wipe the later stages
        man_path = os.path.join(out, "manifest.json")
        with open(man_path) as f:
            man = json.load(f)
        for stage in ("clusters", "block_metrics"):
            shutil.rmtree(man["stages"][stage]["path"])
            del man["stages"][stage]
        with open(man_path, "w") as f:
            json.dump(man, f)
        # mtimes of surviving stage outputs must not change on resume
        edges_dir = man["stages"]["edges"]["path"]
        mtimes_before = {p: os.path.getmtime(os.path.join(edges_dir, p)) for p in os.listdir(edges_dir)}
        second = run_snd(_input_ds(tiny_tables), out_dir=out).to_pandas()
        mtimes_after = {p: os.path.getmtime(os.path.join(edges_dir, p)) for p in os.listdir(edges_dir)}
        assert mtimes_before == mtimes_after  # edges were reused, not rebuilt
        a = first.sort_values("record_id").reset_index(drop=True)
        b = second.sort_values("record_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    @pytest.mark.parametrize("done", [0, 2])
    def test_resume_after_each_block_stage_matches(self, tiny_tables, tmp_path, done):
        """A run killed after ``done`` of the three stages the blocking
        pass commits resumes to byte-identical clusters and leaves the
        committed stages as they were (``done=1``, a kill after
        ``edges``, is the test above)."""
        out = str(tmp_path / f"kill{done}")
        run_snd(_input_ds(tiny_tables), out_dir=out)
        man_path = os.path.join(out, "manifest.json")
        with open(man_path) as f:
            man = json.load(f)
        fresh = pq.read_table(man["stages"]["clusters"]["path"]).sort_by("record_id")
        kept = ["edges", "block_metrics", "clusters"][:done]
        for stage in ["edges", "block_metrics", "clusters"][done:]:
            shutil.rmtree(man["stages"][stage]["path"])
            del man["stages"][stage]
        with open(man_path, "w") as f:
            json.dump(man, f)
        before = {s: man["stages"][s]["completed_at"] for s in kept}
        mtimes = {s: _mtimes(man["stages"][s]["path"]) for s in kept}
        resumed = run_snd(_input_ds(tiny_tables), out_dir=out)
        man = snd_summary(out)
        assert {s: man["stages"][s]["completed_at"] for s in kept} == before
        assert {s: _mtimes(man["stages"][s]["path"]) for s in kept} == mtimes
        got = pq.read_table(man["stages"]["clusters"]["path"]).sort_by("record_id")
        assert got.equals(fresh)
        assert resumed.count() == fresh.num_rows

    def test_checkpointed_schema_equals_streaming(self, tiny_tables, tmp_path):
        """Both paths return the same four cluster columns and types (the
        checkpointed stage used to add a hive ``part`` column)."""
        a = run_snd(_input_ds(tiny_tables), out_dir=str(tmp_path / "s")).schema()
        b = run_snd(_input_ds(tiny_tables)).schema()
        assert a.names == b.names == ["block_key", "record_id", "cluster_id",
                                      "content_sha256"]
        assert a.types == b.types

    def test_one_blocking_shuffle_per_pass(self, tiny_tables, tmp_path, monkeypatch):
        """A cold checkpointed run sorts by block_key once; under
        partition_resume once per bucket."""
        keys = []
        orig = rd.Dataset.sort

        def counting(self, key, *args, **kwargs):
            keys.append(key)
            return orig(self, key, *args, **kwargs)

        monkeypatch.setattr(rd.Dataset, "sort", counting)
        run_snd(_input_ds(tiny_tables), out_dir=str(tmp_path / "one"))
        assert keys.count("block_key") == 1
        keys.clear()
        run_snd(_input_ds(tiny_tables), out_dir=str(tmp_path / "parts"),
                partition_resume=True, n_edge_partitions=3)
        assert keys.count("block_key") == 3

    def test_config_change_invalidates(self, tiny_tables, tmp_path):
        out = str(tmp_path / "run4")
        run_snd(_input_ds(tiny_tables), out_dir=out)
        man1 = snd_summary(out)
        # a different config must not reuse stages silently
        cfg2 = SNDConfig(tau_edge=2.0)
        run_snd(_input_ds(tiny_tables), cfg=cfg2, out_dir=out)
        man2 = snd_summary(out)
        assert man2["config_hash"] != man1["config_hash"]

    def test_block_metrics_content(self, tiny_tables, tmp_path):
        out = str(tmp_path / "run5")
        run_snd(_input_ds(tiny_tables), out_dir=out)
        man = snd_summary(out)
        bm = pq.read_table(man["stages"]["block_metrics"]["path"]).to_pandas()
        truth = tiny_tables["ground_truth"].to_pandas()
        sizes = truth.groupby("block_key").size()
        got = bm.set_index("block_key")["n_records"]
        for bk, n in sizes.items():
            assert got[bk] == n
        assert {"n_pairs", "salted", "truncated_pairs"} <= set(bm.columns)


class TestShuffleWidth:
    """The checkpointed path records its blocking-shuffle width per stage,
    and the width never changes the clusters."""

    @pytest.mark.parametrize("width", [1, 32])
    def test_checkpointed_equals_inmemory_at_forced_width(self, tiny_tables, tmp_path,
                                                          monkeypatch, width):
        import whoiswho_ray.pipelines.snd as snd

        monkeypatch.setattr(snd, "shuffle_partitions", lambda: width)
        tabs = tiny_tables
        a = run_snd(_input_ds(tabs), out_dir=str(tmp_path / "w")).to_pandas()
        b = run_snd(_input_ds(tabs)).to_pandas()
        a = a.sort_values("record_id").reset_index(drop=True)
        b = b.sort_values("record_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a[["record_id", "cluster_id"]], b[["record_id", "cluster_id"]])
        stages = snd_summary(str(tmp_path / "w"))["stages"]
        for name in ("edges", "block_metrics", "clusters"):
            assert stages[name]["metrics"] == {"shuffle_partitions": width}

    def test_width_recorded_on_edge_partitions(self, tiny_tables, tmp_path):
        from whoiswho_ray.stages.pairs import shuffle_partitions

        out = str(tmp_path / "pw")
        run_snd(_input_ds(tiny_tables), out_dir=out, partition_resume=True,
                n_edge_partitions=2)
        stages = snd_summary(out)["stages"]
        want = shuffle_partitions()
        for stage in ("edges", "block_metrics", "clusters"):
            assert stages[f"{stage}/part=1"]["metrics"] == {"partition": 1,
                                                            "shuffle_partitions": want}

    def test_block_metrics_lineage_and_older_format_recomputes(self, tiny_tables, tmp_path):
        """block_metrics is counted over the idf-built encoding, and a
        checkpoint from an older format (fmt2: tok_ids-salted counts;
        fmt3: staged clusters with a ``part`` column, crc32 buckets) is
        recomputed, not mixed with the new stages."""
        out = str(tmp_path / "fmt")
        run_snd(_input_ds(tiny_tables), out_dir=out)
        for old in ("-fmt2", "-fmt3"):
            man = snd_summary(out)
            assert man["stages"]["block_metrics"]["inputs"] == ["normalized", "idf"]
            assert man["config_hash"].endswith("-fmt4")
            stale = os.path.join(man["stages"]["block_metrics"]["path"], "stale")
            open(stale, "w").close()
            man["config_hash"] = man["config_hash"].replace("-fmt4", old)
            with open(os.path.join(out, "manifest.json"), "w") as f:
                json.dump(man, f)
            run_snd(_input_ds(tiny_tables), out_dir=out)
            assert snd_summary(out)["config_hash"].endswith("-fmt4")
            assert not os.path.exists(stale)

    def test_block_metrics_count_the_scored_encoding(self, tiny_tables, tmp_path):
        """On salted, truncating blocks the stage's totals equal
        ``pairs.block_metrics`` over the compact groups the edges stage
        scores (hot-block salting keys on tfv_ids there)."""
        import numpy as np
        import pyarrow as pa
        import ray

        from whoiswho_ray.stages.idf import build_idf
        from whoiswho_ray.stages.normalize import normalize_records
        from whoiswho_ray.stages.pairs import EDGE_SHUFFLE_COLUMNS, block_metrics
        from whoiswho_ray.stages.scoring import vectorize

        # every block but the smallest (57 records) is salted, and the
        # pair budget truncates its sub-buckets
        cfg = SNDConfig(max_allpairs_block=64, max_pairs_per_group=200)
        out = str(tmp_path / "bm")
        run_snd(_input_ds(tiny_tables), cfg=cfg, out_dir=out)
        bm = pq.read_table(snd_summary(out)["stages"]["block_metrics"]["path"]).to_pandas()
        assert bm["salted"].sum() == 3

        norm = normalize_records(_input_ds(tiny_tables), cfg).materialize()
        idf = build_idf(norm, cfg)
        vec = pa.concat_tables(ray.get(vectorize(
            norm, idf, cfg, keep=EDGE_SHUFFLE_COLUMNS, compact=True).to_arrow_refs()))
        assert "tok_ids" not in vec.column_names  # the compact encoding
        vec = vec.sort_by("block_key")
        keys = vec.column("block_key").to_numpy(zero_copy_only=False)
        bounds = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])
        want = pa.concat_tables([block_metrics(vec.slice(s, e - s), cfg)
                                 for s, e in zip(bounds[:-1], bounds[1:])])
        assert want.column("truncated_pairs").to_numpy().sum() > 0
        assert bm["n_pairs"].sum() == want.column("n_pairs").to_numpy().sum()
        assert bm["truncated_pairs"].sum() == want.column("truncated_pairs").to_numpy().sum()


class TestPartitionResume:
    """North-rule mid-shuffle resume: the blocking pass commits one
    block-hash bucket at a time, each bucket's edges, block metrics and
    clusters with their own lineage/metrics."""

    def test_partitioned_edges_match_default_and_resume_mid_shuffle(
        self, tiny_tables, tmp_path
    ):
        tabs = tiny_tables
        out = str(tmp_path / "prun")
        first = run_snd(_input_ds(tabs), out_dir=out, partition_resume=True,
                        n_edge_partitions=4).to_pandas()
        # same clusters as the default single-stage path
        plain = run_snd(_input_ds(tabs)).to_pandas()
        a = first.sort_values("record_id").reset_index(drop=True)
        b = plain.sort_values("record_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a[["record_id", "cluster_id"]],
                                      b[["record_id", "cluster_id"]])
        man = snd_summary(out)
        for stage in ("edges", "block_metrics", "clusters"):
            parts = [s for s in man["stages"] if s.startswith(f"{stage}/part=")]
            assert len(parts) == 4
            assert all("wall_sec" in man["stages"][p] for p in parts)
        assert sum(man["stages"][f"clusters/part={p}"]["rows"] for p in range(4)) \
            == tabs["records"].num_rows
        assert not any(s in man["stages"] for s in ("edges", "block_metrics", "clusters"))

        # simulate a crash in the middle of bucket 1 (its edges and block
        # metrics committed, its clusters not) with buckets 2-3 not run:
        # drop those stages, rerun, and verify survivors were not rebuilt
        with open(os.path.join(out, "manifest.json")) as f:
            m = json.load(f)
        victims = ["clusters/part=1"] + [f"{s}/part={p}" for p in (2, 3)
                                         for s in ("edges", "block_metrics", "clusters")]
        for victim in victims:
            shutil.rmtree(m["stages"][victim]["path"], ignore_errors=True)
            del m["stages"][victim]
        with open(os.path.join(out, "manifest.json"), "w") as f:
            json.dump(m, f)
        survivors = ["edges/part=0", "clusters/part=0", "edges/part=1", "block_metrics/part=1"]
        mt = {s: _mtimes(m["stages"][s]["path"]) for s in survivors}
        second = run_snd(_input_ds(tabs), out_dir=out, partition_resume=True,
                         n_edge_partitions=4).to_pandas()
        assert {s: _mtimes(m["stages"][s]["path"]) for s in survivors} == mt
        c = second.sort_values("record_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, c)



def _normalized_table(tabs, cfg) -> "pa.Table":
    import pyarrow as pa

    from whoiswho_ray.stages.agg import collect_blocks
    from whoiswho_ray.stages.normalize import normalize_records

    return pa.concat_tables(collect_blocks(normalize_records(_input_ds(tabs), cfg)))


class TestStageSinks:
    """The checkpointed stages are written by the Ray tasks that compute
    their rows (``snd._StageSink``)."""

    def test_idf_from_write_partials_equals_build_idf(self, tiny_tables, tmp_path):
        """The idf a cold run builds from the normalize write tasks'
        partials equals ``build_idf`` over the written stage, field by
        field, also with a block of documents that are all empty (only
        the record-count carrier row stands for it)."""
        import pyarrow as pa

        from whoiswho_ray.pipelines import snd
        from whoiswho_ray.stages.idf import _idf_from_partials, build_idf

        cfg = SNDConfig()
        norm = _normalized_table(tiny_tables, cfg)
        empty = norm.slice(0, 7)
        empty = empty.set_column(empty.schema.get_field_index("tok_ids"), "tok_ids",
                                 pa.array([[]] * empty.num_rows, norm.schema.field("tok_ids").type))
        half = norm.num_rows // 2
        stage = tmp_path / "normalized"
        stage.mkdir()
        sink = snd._normalized_sink(str(stage))
        rd.from_arrow([norm.slice(0, half), empty, norm.slice(half)]).write_datasink(sink)
        assert len(sink.returns) == 3
        got = _idf_from_partials(sink.returns, cfg)
        want = build_idf(rd.read_parquet(str(stage)), cfg)
        assert got.ids.tobytes() == want.ids.tobytes() and got.ids.dtype == want.ids.dtype
        assert got.idf.tobytes() == want.idf.tobytes() and got.idf.dtype == want.idf.dtype
        assert (got.n_records, got.n_tokens_total, got.truncated) == \
            (want.n_records, want.n_tokens_total, want.truncated)
        assert got.n_records == norm.num_rows + empty.num_rows
        # the carrier rows do not count as tokens, whatever the block layout
        assert got.n_tokens_total == build_idf(rd.from_arrow(norm), cfg).n_tokens_total

    def test_retried_write_task_overwrites_its_files(self, tiny_tables, tmp_path):
        """A write task run twice under one task index (a retry) leaves
        one file per stage, with the rows of one run."""
        import numpy as np
        import pyarrow as pa
        import ray
        from ray.data._internal.execution.interfaces.task_context import TaskContext

        from whoiswho_ray.pipelines import snd
        from whoiswho_ray.stages.agg import collect_blocks
        from whoiswho_ray.stages.idf import build_idf
        from whoiswho_ray.stages.pairs import (BLOCK_STAGES, CLUSTER_SHUFFLE_COLUMNS,
                                               make_block_stages)
        from whoiswho_ray.stages.scoring import vectorize

        cfg = SNDConfig()
        norm = rd.from_arrow(_normalized_table(tiny_tables, cfg))
        idf = build_idf(norm, cfg)
        part = pa.concat_tables(collect_blocks(vectorize(
            norm, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS, compact=True,
            ship_weights=False, sha_binary=True))).sort_by("block_key")
        dirs = {s: str(tmp_path / s) for s in BLOCK_STAGES}
        for d in dirs.values():
            os.makedirs(d)
        sink = snd._block_stage_sink(dirs, cfg, ray.put(np.asarray(idf.idf)))
        ctx = TaskContext(task_idx=3, op_name="Write")
        sink.write([part], ctx)
        first = {s: pq.read_table(d) for s, d in dirs.items()}
        sink.write([part], ctx)
        want = make_block_stages(part, cfg, idf_w=idf.idf)
        for s, d in dirs.items():
            assert len(os.listdir(d)) == 1, s
            assert pq.read_table(d).equals(first[s]), s
            assert first[s].equals(want[s]), s
        assert first["clusters"].num_rows == tiny_tables["records"].num_rows

    def test_failed_block_pass_leaves_no_temp_dirs(self, tiny_tables, tmp_path, monkeypatch):
        """A kernel that raises in the middle of the blocking pass: the
        run raises, its write removes the stage temp dirs, no block stage
        is committed, and the next run completes to the streaming
        clusters."""
        from whoiswho_ray.pipelines import snd
        from whoiswho_ray.stages.pairs import BLOCK_STAGES, make_block_stages

        last = max(tiny_tables["ground_truth"].column("block_key").to_pylist())

        def failing(part, cfg, idf_w=None):
            if last in part.column("block_key").to_pylist():
                raise RuntimeError("kernel failed on the last block")
            return make_block_stages(part, cfg, idf_w=idf_w)

        out = str(tmp_path / "fail")
        monkeypatch.setattr(snd, "make_block_stages", failing)
        with pytest.raises(Exception, match="kernel failed on the last block"):
            run_snd(_input_ds(tiny_tables), out_dir=out)
        monkeypatch.undo()
        assert not [p for p in os.listdir(out) if ".tmp-" in p], os.listdir(out)
        stages = snd_summary(out)["stages"]
        assert {"normalized", "idf"} <= set(stages)
        assert not set(BLOCK_STAGES) & set(stages)
        got = run_snd(_input_ds(tiny_tables), out_dir=out).to_pandas()
        want = run_snd(_input_ds(tiny_tables)).to_pandas()
        pd.testing.assert_frame_equal(got.sort_values("record_id", ignore_index=True),
                                      want.sort_values("record_id", ignore_index=True))
