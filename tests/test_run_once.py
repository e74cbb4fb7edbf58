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
import pyarrow as pa
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

    PARTITIONS = 4

    def _counted(self, encoded, tmp_path):
        from whoiswho_ray.pipelines.snd import _blocked
        from whoiswho_ray.stages.pairs import make_block_clusters

        cfg, idf, vec, _ = encoded
        (tmp_path / "calls").mkdir()
        (tmp_path / "blocks").mkdir()
        mark_call, mark_block = _marker(tmp_path / "calls"), _marker(tmp_path / "blocks")

        def kernel(part, w):
            # one call per sort partition, marked with the blocks it holds
            keys = sorted(set(part.column("block_key").to_pylist()))
            mark_call(keys)
            for k in keys:
                mark_block(k)
            return make_block_clusters(part, cfg, idf_w=w)

        # four sort partitions: a re-run repeats the first one's kernel
        return _blocked(vec, kernel, idf, partitions=self.PARTITIONS)

    def _assert_once(self, encoded, tmp_path):
        """Each partition's kernel ran once, and together the calls saw
        every block exactly once."""
        calls, blocks = _calls(tmp_path / "calls"), _calls(tmp_path / "blocks")
        assert 1 <= len(calls) <= self.PARTITIONS and set(calls.values()) == {1}, calls
        assert len(blocks) == encoded[3] and set(blocks.values()) == {1}, blocks

    def test_to_arrow_refs_runs_each_kernel_once(self, encoded, tmp_path):
        out = self._counted(encoded, tmp_path)
        rows = sum(t.num_rows for t in ray.get(out.to_arrow_refs()))
        self._assert_once(encoded, tmp_path)
        assert rows == encoded[2].count()

    def test_schema_then_rows_runs_each_kernel_once(self, encoded, tmp_path):
        out = self._counted(encoded, tmp_path)
        assert out.schema().names == ["block_key", "record_id", "cluster_id",
                                      "content_sha256"]
        assert out.count() == encoded[2].count()
        self._assert_once(encoded, tmp_path)

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
        # five input tables, so the block order is fixed (read tasks of
        # ``rd.range`` may finish, and be handed out, out of order)
        import pyarrow as pa

        ds = rd.from_arrow([pa.table({"id": np.arange(20 * i, 20 * (i + 1))})
                            for i in range(5)]).materialize()
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


def test_no_actor_pool_in_the_library():
    """Every map in the library is a task-pool function that reads its
    broadcast through ``joins._cached_get``. An actor pool
    (``concurrency=``, ``fn_constructor_kwargs`` or a class handed to a
    map) holds a CPU slot for its whole execution; at ``num_cpus=1`` that
    is the slot its upstream read tasks need, and the plan never ends."""
    import ast

    import whoiswho_ray

    root = pathlib.Path(whoiswho_ray.__file__).parent
    trees = {str(p.relative_to(root)): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(root.rglob("*.py"))}
    classes = {n.name for t in trees.values() for n in ast.walk(t)
               if isinstance(n, ast.ClassDef)}
    pool_args = {"concurrency", "fn_constructor_kwargs"}
    hits = []
    for name, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.keyword) and n.arg in pool_args:
                hits.append(f"{name}:{n.lineno} {n.arg}=")
            elif isinstance(n, ast.Constant) and n.value in pool_args:
                hits.append(f"{name}:{n.lineno} {n.value!r}")  # a **kwargs key
            if not isinstance(n, ast.Call):
                continue
            fn = n.args[0] if n.args else next(
                (k.value for k in n.keywords if k.arg == "fn"), None)
            if (isinstance(n.func, ast.Attribute)
                    and n.func.attr in ("map", "map_batches", "flat_map", "filter")
                    and isinstance(fn, ast.Name) and fn.id in classes):
                hits.append(f"{name}:{n.lineno} {n.func.attr}({fn.id})")
    assert not hits, hits


def test_every_hash_bucket_cogroup_is_joins_cogroup():
    """Every hash-bucket shuffle goes through ``joins.cogroup``: the only
    other ``map_groups`` calls left are the five per-key groupbys."""
    import whoiswho_ray

    root = pathlib.Path(whoiswho_ray.__file__).parent
    hits = sorted(f"{p.relative_to(root)}:{i}"
                  for p in root.rglob("*.py")
                  for i, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
                  if "map_groups(" in line and not line.lstrip().startswith(("#", "``")))
    per_key = {"evaluation.py", "stages/dedup.py", "stages/similarity_search.py"}
    assert [h for h in hits if h.split(":")[0] not in per_key | {"stages/joins.py"}] == [], hits
    assert len([h for h in hits if h.startswith("stages/joins.py")]) == 1, hits
    assert len([h for h in hits if h.split(":")[0] in per_key]) == 5, hits


class TestPairConsumersRunOnce:
    """The ``__ray_entry__`` edge and relational queries and the trainer's pair
    features return (or consume) the blocking pass already executed."""

    @pytest.mark.parametrize("query", ["snd_edges", "snd_relational"])
    def test_entry_query_schema_known_without_executing(self, small_fixture, tmp_path,
                                                        monkeypatch, query):
        import pyarrow.parquet as pq

        import __ray_entry__ as entry

        _spec, tabs = small_fixture
        pq.write_table(tabs["records"], tmp_path / "records.parquet")
        monkeypatch.setattr("whoiswho_ray.sources.tables.records_from_documents",
                            lambda _sf, n_blocks=None: rd.read_parquet(
                                str(tmp_path / "records.parquet")))
        out = getattr(entry, query)(str(tmp_path))
        schema = out.schema(fetch_if_missing=False)
        assert schema is not None and {"block_key", "id_a", "id_b"} <= set(schema.names)
        assert out.count() > 0

    def test_pair_features_consume_the_executed_pass(self, small_fixture, monkeypatch):
        from whoiswho_ray.pipelines import snd
        from whoiswho_ray.training import FEATURES, pair_features

        _spec, tabs = small_fixture
        blocked, passes = snd._blocked, []

        def spy(*args, **kwargs):
            out = blocked(*args, **kwargs)
            passes.append(out.schema(fetch_if_missing=False))
            return out

        monkeypatch.setattr(snd, "_blocked", spy)
        labeled = tabs["labeled_pairs"].to_pandas()
        feats = pair_features(rd.from_arrow(tabs["records"]), labeled)
        assert len(passes) == 1 and passes[0] is not None
        assert set(FEATURES) <= set(passes[0].names)
        assert len(feats) == len(labeled)


class TestCheckpointedRunExecutions:
    """The checkpointed run writes each stage from the task that computes
    it: the normalize write and the blocking pass are its only Ray Data
    executions (the idf comes back from the normalize write tasks, and
    the blocking pass's tasks write all three block stages)."""

    @pytest.fixture
    def executions(self, monkeypatch):
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        calls = []
        execute = StreamingExecutor.execute

        def counting(self, *args, **kwargs):
            calls.append(1)
            return execute(self, *args, **kwargs)

        monkeypatch.setattr(StreamingExecutor, "execute", counting)
        return calls

    def test_cold_run_executes_twice(self, small_fixture, tmp_path, executions):
        from whoiswho_ray.pipelines.snd import run_snd

        _spec, tabs = small_fixture
        run_snd(rd.from_arrow(tabs["records"]), out_dir=str(tmp_path / "cold"))
        assert len(executions) == 2

    def test_partition_resume_executes_once_per_bucket(self, small_fixture, tmp_path,
                                                       executions):
        from whoiswho_ray.pipelines.snd import run_snd

        _spec, tabs = small_fixture
        run_snd(rd.from_arrow(tabs["records"]), out_dir=str(tmp_path / "parts"),
                partition_resume=True, n_edge_partitions=3)
        assert len(executions) == 1 + 3


class TestAttachRunsOnce:
    """The record ⋈ claim co-group (``joins.attach_claims``) reads its
    inputs' schemas without running them: no execution of IND or of
    the RND profiles holds a ``limit(1)`` schema probe."""

    @pytest.fixture
    def executed(self, monkeypatch):
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        plans = []
        execute = StreamingExecutor.execute

        def names(op) -> list[str]:
            return [n for d in op.input_dependencies for n in names(d)] + [op.name]

        def counting(self, dag, *args, **kwargs):
            plans.append(names(dag))
            return execute(self, dag, *args, **kwargs)

        monkeypatch.setattr(StreamingExecutor, "execute", counting)
        return plans

    @staticmethod
    def _no_probe(plans) -> bool:
        return not any(n.startswith("limit") for plan in plans for n in plan)

    def test_run_ind(self, small_fixture, executed):
        from whoiswho_ray.pipelines.ind import run_ind

        _spec, tabs = small_fixture
        gt = tabs["ground_truth"].to_pandas()
        claims = rd.from_pandas(gt[["record_id", "entity_id"]].rename(
            columns={"entity_id": "profile_id"}))
        out = run_ind(rd.from_arrow(tabs["records"]), claims)
        assert self._no_probe(executed), executed
        # normalize (materialized), vectorize (materialized), the blocking pass
        assert len(executed) == 3, executed
        assert out.count() == len(gt)

    def test_build_profiles(self, small_fixture, executed):
        from whoiswho_ray.pipelines.rnd import build_profiles

        _spec, tabs = small_fixture
        gt = tabs["ground_truth"].to_pandas()
        ids = [[i % 7, 7 + i % 3] for i in range(len(gt))]
        vec = rd.from_arrow(pa.table({
            "record_id": gt["record_id"], "block_key": gt["block_key"],
            "name": ["a.py"] * len(gt), "extra": [1] * len(gt),
            **{c: pa.array(ids, pa.list_(pa.int64()))
               for c in ("tok_ids", "repo_ids", "ctx_ids", "tfv_ids")},
            "tfv_w": pa.array([[0.6, 0.8]] * len(gt), pa.list_(pa.float32()))}))
        clusters = rd.from_pandas(gt[["record_id", "entity_id"]].rename(
            columns={"entity_id": "cluster_id"}))
        profiles = build_profiles(vec, clusters)
        assert profiles.schema(fetch_if_missing=False) is not None
        assert profiles.count() == gt["entity_id"].nunique()
        assert self._no_probe(executed), executed
        assert len(executed) == 1, executed


class TestRndCommandRunsOnce:
    def test_each_blocking_pass_runs_its_kernels_once(self, small_fixture, tmp_path,
                                                      monkeypatch):
        """``python -m whoiswho_ray rnd`` writes the assignments and counts
        them without running the assignment (or the profile) pass again:
        every pass's kernel sees each of its partitions once."""
        import pyarrow.parquet as pq

        from whoiswho_ray.__main__ import main
        from whoiswho_ray.pipelines import snd

        _spec, tabs = small_fixture
        recs = tabs["records"]
        pq.write_table(recs.slice(0, recs.num_rows - 40), tmp_path / "known.parquet")
        pq.write_table(recs.slice(recs.num_rows - 40), tmp_path / "new.parquet")
        (tmp_path / "calls").mkdir()
        mark = _marker(tmp_path / "calls")
        blocked, passes = snd._blocked, []

        def spy(vectorized, kernel, idf=None, partitions=None):
            n = len(passes)
            passes.append(n)

            def counted(part, w, _n=n):
                mark((_n, part.num_rows, part.column("block_key")[0].as_py()
                      if part.num_rows else ""))
                return kernel(part, w)

            return blocked(vectorized, counted, idf, partitions)

        monkeypatch.setattr(snd, "_blocked", spy)
        monkeypatch.setattr(ray, "shutdown", lambda: None)
        assert main(["rnd", "--known", str(tmp_path / "known.parquet"), "--new",
                     str(tmp_path / "new.parquet"), "--out", str(tmp_path / "out")]) == 0
        calls = _calls(tmp_path / "calls")
        # the SND clusters, the profiles and the assignment
        assert len(passes) == 3
        assert calls and set(calls.values()) == {1}, calls
        assert pq.read_table(tmp_path / "out").num_rows == 40
