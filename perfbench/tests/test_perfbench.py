"""Tests of the SND benchmark itself (not of the library).

    python3 -m pytest perfbench/tests -q

The smoke runs start a Ray instance each and take ~20 s apiece.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, ROOT)

import run  # noqa: E402
from checks import canonical, check_rows, cluster_counts, expected  # noqa: E402
from spans import Span, Tracer, self_time  # noqa: E402
from workloads import FIXTURE_SEEDS, WORKLOADS, generate  # noqa: E402


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(args: list[str], cwd: str = ROOT, timeout: int = 170):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


# -- self-time arithmetic ---------------------------------------------------

def test_self_time_without_children_is_the_duration():
    assert self_time(1.0, 4.0, []) == pytest.approx(3.0)


def test_self_time_subtracts_disjoint_children():
    assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (5.5, 7.0)]) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_span():
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]) == pytest.approx(2.0)


def test_tracer_totals_aggregate_by_name():
    tr = Tracer(run_id="t")
    tr.spans = [Span("pass", 0.0, 10.0, None, "t"),
                Span("a", 0.0, 4.0, 0, "t"),
                Span("b", 4.0, 9.0, 0, "t"),
                Span("b.x", 5.0, 6.0, 2, "t"),
                Span("b.x", 7.0, 8.5, 2, "t")]
    tot = tr.totals()
    assert tot["pass"] == (1, pytest.approx(10.0), pytest.approx(1.0))
    assert tot["b"] == (1, pytest.approx(5.0), pytest.approx(2.5))
    assert tot["b.x"] == (2, pytest.approx(2.5), pytest.approx(2.5))


def test_tracer_records_nesting():
    tr = Tracer(run_id="t")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    assert [(s.name, s.parent) for s in tr.spans] == [("outer", None), ("inner", 0)]
    assert tr.spans[0].start <= tr.spans[1].start <= tr.spans[1].end <= tr.spans[0].end


# -- output checks ------------------------------------------------------------

def _clusters(ids, shas):
    return pa.table({"block_key": ["k"] * len(ids), "record_id": ids,
                     "cluster_id": [f"k#{ids[0]}"] * len(ids), "content_sha256": shas})


def test_check_rows_accepts_exact_coverage():
    want = expected(pa.table({"record_id": ["b", "a"]}), pa.array(["hb", "ha"]))
    assert check_rows(canonical(_clusters(["a", "b"], ["ha", "hb"])), want) == []


def test_check_rows_rejects_repeated_and_missing_records():
    want = expected(pa.table({"record_id": ["a", "b"]}), pa.array(["ha", "hb"]))
    assert check_rows(canonical(_clusters(["a", "a"], ["ha", "ha"])), want)
    assert check_rows(canonical(_clusters(["a"], ["ha"])), want)


def test_check_rows_rejects_wrong_sha():
    want = expected(pa.table({"record_id": ["a", "b"]}), pa.array(["ha", "hb"]))
    errors = check_rows(canonical(_clusters(["a", "b"], ["ha", "xx"])), want)
    assert errors and "content_sha256" in errors[0]


def test_cluster_counts():
    t = pa.table({"cluster_id": ["x", "x", "y", "z"]})
    assert cluster_counts(t) == (3, 2)


# -- inputs -------------------------------------------------------------------

def test_any_seed_makes_an_input():
    # the fixture generator's RandomState takes seeds below 2**32 only
    w = WORKLOADS["snd_flat"]
    big = generate(w.fixture(2**40 + 5, n_blocks=3))
    assert big.n > 0
    assert big.records.equals(generate(w.fixture((2**40 + 5) % FIXTURE_SEEDS, n_blocks=3)).records)
    assert not big.records.equals(generate(w.fixture(6, n_blocks=3)).records)


# -- the contract with BENCHMARK.json -------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    spec = _bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    res = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", "0", "--n-blocks", "3"])
    assert res.returncode == 0, res.stderr[-2000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    assert {k: v["unit"] for k, v in out["metrics"].items()} == run.END_TO_END


def test_smoke_traced_run_prints_every_per_layer_metric():
    # a streaming workload: the traced run makes its checkpointed pass too
    res = _run(["--workload", "snd_flat", "--seed", "3", "--seconds", "1",
                "--trace", "1", "--n-blocks", "3"])
    assert res.returncode == 0, res.stderr[-2000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    assert m["kernel.s"] > 0 and m["checkpoint.clusters_s"] > 0 and m["resume.s"] > 0
    assert m["cluster.clusters"] >= 3
    spans = os.path.join(ROOT, ".bench_out", "spans-snd_flat-seed3.json")
    with open(spans) as f:
        names = {s["name"] for s in json.load(f)}
    assert {"normalize", "idf", "vectorize", "blocking", "kernel.block"} <= names


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = _run(["--workload", "snd_hot", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=str(tmp_path), timeout=60)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
