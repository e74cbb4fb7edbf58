"""Each lazy plan the library consumes runs once.

Ray 2.49 cannot infer the schema of a ``map_groups``, so ``schema()`` or
``to_arrow_refs()`` on a lazy one re-runs the plan under ``limit(1)``
after the real run — behind a sort, the sort and the first output
partition's UDF calls again. Ray workers are separate processes, so the
UDFs below count their calls with one marker file per call.
"""

from __future__ import annotations

import hashlib
import inspect
import pathlib
import uuid

import numpy as np
import pandas as pd
import pytest

import ray
import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.stages.agg import collect_blocks, distinct, grouped_agg


def _marker(tmp_path: pathlib.Path):
    """``mark(key)`` leaves one file per call. A nested function, so it
    ships to the workers by value (they cannot import this module)."""
    def mark(key) -> None:
        tag = hashlib.md5(str(key).encode()).hexdigest()
        (tmp_path / f"{tag}-{uuid.uuid4().hex}").touch()
    return mark


def _calls(tmp_path: pathlib.Path) -> dict[str, int]:
    out: dict[str, int] = {}
    for p in tmp_path.iterdir():
        tag = p.name.split("-")[0]
        out[tag] = out.get(tag, 0) + 1
    return out


class TestBlockingPassRunsOnce:
    @pytest.fixture(scope="class")
    def encoded(self, small_fixture):
        from whoiswho_ray.stages.idf import build_idf
        from whoiswho_ray.stages.normalize import normalize_records
        from whoiswho_ray.stages.pairs import CLUSTER_SHUFFLE_COLUMNS
        from whoiswho_ray.stages.scoring import vectorize

        _spec, tabs = small_fixture
        cfg = SNDConfig()
        normalized = normalize_records(rd.from_arrow(tabs["records"]), cfg).materialize()
        idf = build_idf(normalized, cfg)
        vec = vectorize(normalized, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS,
                        compact=True, ship_weights=False, sha_binary=True).materialize()
        n_blocks = len(normalized.unique("block_key"))
        return cfg, idf, vec, n_blocks

    def _counted(self, encoded, tmp_path):
        from whoiswho_ray.pipelines.snd import _blocked
        from whoiswho_ray.stages.pairs import make_block_clusters

        cfg, idf, vec, _ = encoded
        mark = _marker(tmp_path)

        def kernel(g, w):
            mark(g.column("block_key")[0].as_py())
            return make_block_clusters(g, cfg, idf_w=w)

        # four sort partitions: a re-run repeats the first one's kernels
        return _blocked(vec, kernel, idf, partitions=4)

    def test_to_arrow_refs_runs_each_kernel_once(self, encoded, tmp_path):
        out = self._counted(encoded, tmp_path)
        rows = sum(t.num_rows for t in ray.get(out.to_arrow_refs()))
        calls = _calls(tmp_path)
        assert len(calls) == encoded[3] and set(calls.values()) == {1}, calls
        assert rows == encoded[2].count()

    def test_schema_then_rows_runs_each_kernel_once(self, encoded, tmp_path):
        out = self._counted(encoded, tmp_path)
        assert out.schema().names == ["block_key", "record_id", "cluster_id",
                                      "content_sha256"]
        assert out.count() == encoded[2].count()
        calls = _calls(tmp_path)
        assert len(calls) == encoded[3] and set(calls.values()) == {1}, calls

    @pytest.mark.parametrize("run", ["run_snd", "run_snd_vote", "run_snd_sgc"])
    def test_cluster_schema_known_without_executing(self, small_fixture, run):
        from whoiswho_ray.pipelines import snd
        from whoiswho_ray.stages.pairs import block_stage_schemas

        _spec, tabs = small_fixture
        out = getattr(snd, run)(rd.from_arrow(tabs["records"]))
        schema = out.schema(fetch_if_missing=False)
        assert schema is not None
        assert schema.base_schema == block_stage_schemas(SNDConfig())["clusters"]


class TestCollectorRunsOnce:
    N_GROUPS = 200

    def _lazy(self, tmp_path):
        df = pd.DataFrame({"g": np.repeat(np.arange(self.N_GROUPS, dtype=np.int64), 3),
                           "v": np.arange(3 * self.N_GROUPS, dtype=np.int64)})
        mark = _marker(tmp_path)

        def udf(d: pd.DataFrame) -> pd.DataFrame:
            mark(d["g"].iloc[0])
            return d.assign(v=d["v"] * 2, parity=d["g"] % 2)

        lazy = rd.from_pandas(df).repartition(4).groupby("g").map_groups(
            udf, batch_format="pandas")
        return df, lazy

    def _assert_once(self, tmp_path):
        calls = _calls(tmp_path)
        assert len(calls) == self.N_GROUPS and set(calls.values()) == {1}, (
            sum(calls.values()))

    def test_grouped_agg_driver(self, tmp_path):
        df, lazy = self._lazy(tmp_path)
        out = grouped_agg(lazy, "g", {"n": (None, "count"), "s": ("v", "sum"),
                                      "hi": ("v", "max")}, final="driver")
        self._assert_once(tmp_path)
        want = df.assign(v=df["v"] * 2).groupby("g").agg(
            n=("v", "size"), s=("v", "sum"), hi=("v", "max")).reset_index()
        got = out.sort_values("g", ignore_index=True)
        pd.testing.assert_frame_equal(got[want.columns.tolist()], want,
                                      check_dtype=False)

    @pytest.mark.parametrize("col, want", [("parity", [0, 1]), ("g", list(range(N_GROUPS)))])
    def test_distinct_driver(self, tmp_path, col, want):
        _df, lazy = self._lazy(tmp_path)
        out = distinct(lazy, [col], final="driver")
        self._assert_once(tmp_path)
        assert sorted(out[col].tolist()) == want

    def test_collect_blocks_keeps_block_order(self):
        ds = rd.range(100, override_num_blocks=5).materialize()
        tables = collect_blocks(ds)
        refs = collect_blocks(ds, fetch=False)
        assert [t.num_rows for t in tables] == [20] * 5
        assert np.concatenate([t.column("id").to_numpy() for t in tables]).tolist() == \
            list(range(100))
        assert [t.equals(r) for t, r in zip(tables, ray.get(refs))] == [True] * 5


def test_no_to_arrow_refs_outside_the_collector():
    """``to_arrow_refs()`` re-runs a lazy plan; the library collects
    through ``agg.collect_blocks`` instead."""
    import whoiswho_ray

    root = pathlib.Path(whoiswho_ray.__file__).parent
    helper = inspect.getsource(collect_blocks)
    hits = [str(p.relative_to(root)) for p in sorted(root.rglob("*.py"))
            if "to_arrow_refs(" in p.read_text(encoding="utf-8").replace(helper, "")]
    assert not hits, hits
