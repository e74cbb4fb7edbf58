"""The traced pass: per-layer spans around calls into the SND layers.

Spans are recorded from this file only, around calls into each layer's
public functions; no library code is edited. The streaming pipeline of
``pipelines.snd.run_snd`` is replayed step by step with a materialize at
each stage boundary, then the fused block kernel
(``pairs.make_block_clusters``) is replayed in-process block by block
with its phase functions wrapped, which splits it into candidate
generation, all-pairs matrices, Jaro-Winkler, union-find and the rest.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

import ray.data as rd

from checks import cluster_counts, collect


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the parent span in Tracer.spans
    run_id: str


@dataclass
class Tracer:
    """In-memory span recorder; ``write`` dumps the spans as JSON."""

    run_id: str
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.run_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def write(self, path: str) -> None:
        t0 = min((s.start for s in self.spans), default=0.0)
        rows = [{"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                 "parent": s.parent, "run_id": s.run_id}
                for i, s in enumerate(self.spans)]
        with open(path, "w") as f:
            json.dump(rows, f)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name → (count, total seconds, self seconds)."""
        kids: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append((s.start, s.end))
        out: dict[str, tuple[int, float, float]] = {}
        for i, s in enumerate(self.spans):
            n, tot, own = out.get(s.name, (0, 0.0, 0.0))
            out[s.name] = (n + 1, tot + s.end - s.start,
                           own + self_time(s.start, s.end, kids.get(i, [])))
        return out

    def table(self) -> str:
        rows = sorted(self.totals().items(), key=lambda kv: -kv[1][1])
        lines = [f"{'span':<22}{'count':>8}{'total_s':>10}{'self_s':>10}"]
        lines += [f"{k:<22}{n:>8}{tot:>10.3f}{own:>10.3f}" for k, (n, tot, own) in rows]
        return "\n".join(lines)


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Duration of [start, end] not covered by any child interval (children
    are clipped to the span; overlapping children are counted once)."""
    covered = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


@contextlib.contextmanager
def _wrapped(tracer: Tracer, module, attr: str, span_name: str, on_result=None):
    """Temporarily replace ``module.attr`` by a spanning wrapper."""
    orig = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            res = orig(*args, **kwargs)
        if on_result is not None:
            on_result(args, res)
        return res

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, orig)


def staged_pass(tracer: Tracer, path: str, cfg) -> tuple[pa.Table, dict]:
    """The streaming ``run_snd`` plan, materialized at every stage
    boundary, one span per layer. Returns the cluster table and the
    vectorized records (for the kernel replay) with the idf weights."""
    from whoiswho_ray.pipelines.snd import snd_cluster
    from whoiswho_ray.stages.idf import build_idf
    from whoiswho_ray.stages.normalize import normalize_records
    from whoiswho_ray.stages.pairs import CLUSTER_SHUFFLE_COLUMNS, shuffle_partitions
    from whoiswho_ray.stages.scoring import vectorize

    with tracer.span("pass"):
        with tracer.span("normalize"):
            with tracer.span("read"):
                records = rd.read_parquet(path).materialize()
            normalized = normalize_records(records, cfg).select_columns(
                [c for c in CLUSTER_SHUFFLE_COLUMNS if c not in ("tfv_ids", "tfv_w")]
            ).repartition(shuffle_partitions()).materialize()
        with tracer.span("idf"):
            idf = build_idf(normalized, cfg)
        with tracer.span("vectorize"):
            vec = vectorize(normalized, idf, cfg, keep=CLUSTER_SHUFFLE_COLUMNS,
                            compact=True, ship_weights=False, sha_binary=True).materialize()
        with tracer.span("blocking"):
            clusters = collect(snd_cluster(normalized, vec, cfg, idf=idf,
                                            pre_partitioned=True))
    side = {"vectorized": collect(vec), "partitions": vec.num_blocks(),
            "idf_w": np.asarray(idf.idf), "vocab": int(idf.ids.size)}
    return clusters, side


def kernel_replay(tracer: Tracer, vectorized: pa.Table, idf_w, cfg) -> tuple[pa.Table, dict]:
    """Run ``make_block_clusters`` over every block in this process, with
    its phase functions wrapped in spans. Returns the concatenated cluster
    rows and the kernel counters."""
    from whoiswho_ray.stages import cluster as cluster_mod
    from whoiswho_ray.stages import pairs as pairs_mod
    from whoiswho_ray.stages import scoring as scoring_mod

    counts = {"candidate_pairs": 0, "truncated_pairs": 0, "edges_kept": 0}
    jw_calls = []  # counted after the timed loop, so counting is not timed

    def on_candidates(args, res):
        counts["candidate_pairs"] += int(res[0].size)
        counts["truncated_pairs"] += int(res[2])

    def on_jw(args, res):
        jw_calls.append(args[:3])

    def on_union(args, res):
        counts["edges_kept"] += int(args[1].size)

    blocks = list(_blocks(vectorized))
    out = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(_wrapped(tracer, pairs_mod, "candidate_index_pairs",
                                     "kernel.candidates", on_candidates))
        stack.enter_context(_wrapped(tracer, scoring_mod, "allpairs_matrix", "kernel.allpairs"))
        stack.enter_context(_wrapped(tracer, scoring_mod, "jw_for_pairs", "kernel.jw", on_jw))
        stack.enter_context(_wrapped(tracer, cluster_mod, "cluster_edge_arrays",
                                     "kernel.union_find", on_union))
        with tracer.span("kernel"):
            for g in blocks:
                with tracer.span("kernel.block"):
                    out.append(pairs_mod.make_block_clusters(g, cfg, idf_w=idf_w))
    counts["jw_distinct_pairs"] = sum(_distinct_name_pairs(*c) for c in jw_calls)
    block_ms = [(sp.end - sp.start) * 1e3 for sp in tracer.spans if sp.name == "kernel.block"]
    counts.update(groups=len(blocks), max_block_records=max(g.num_rows for g in blocks),
                  block_ms=np.array(block_ms))
    return pa.concat_tables(out), counts


def _blocks(table: pa.Table):
    """The rows of each block_key as one table, like the groups
    ``groupby("block_key").map_groups`` hands to the kernel."""
    t = table.sort_by("block_key")
    keys = t.column("block_key").to_numpy(zero_copy_only=False)
    bounds = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])
    for s, e in zip(bounds[:-1], bounds[1:]):
        yield t.slice(s, e - s)


def _distinct_name_pairs(names, ii, jj) -> int:
    """Unordered distinct (name_a, name_b) combinations among the pairs —
    the Jaro-Winkler evaluations ``jw_for_pairs`` needs."""
    if ii.size == 0:
        return 0
    _, codes = np.unique(np.array([x or "" for x in names], dtype="U"), return_inverse=True)
    lo = np.minimum(codes[ii], codes[jj]).astype(np.int64)
    hi = np.maximum(codes[ii], codes[jj])
    return int(np.unique(lo * len(names) + hi).size)


def block_metric_totals(vectorized: pa.Table, cfg) -> tuple[int, int]:
    """(candidate pairs, truncated pairs) summed over ``pairs.block_metrics``
    rows — the checkpointed path's own counters, as a cross-check of the
    counts taken from the wrapped kernel."""
    from whoiswho_ray.stages.pairs import block_metrics

    n_pairs = truncated = 0
    for g in _blocks(vectorized):
        row = block_metrics(g, cfg)
        n_pairs += row.column("n_pairs")[0].as_py()
        truncated += row.column("truncated_pairs")[0].as_py()
    return n_pairs, truncated


def layer_metrics(tracer: Tracer, k: dict, side: dict, clusters: pa.Table, n: int,
                  untraced: float) -> dict:
    """The per-layer metrics of a traced pass: span totals, kernel counts
    from the replay, and the comparison with the untraced wall."""
    tot = tracer.totals()

    def span_s(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    layer_sum = sum(span_s(s) for s in ("normalize", "idf", "vectorize", "blocking"))
    kernel_s = span_s("kernel")
    ms = k["block_ms"]
    clusters_n, singletons = cluster_counts(clusters)
    return {
        "read.s": span_s("read"),
        "normalize.s": span_s("normalize"),
        "normalize.us_per_record": span_s("normalize") / n * 1e6,
        "idf.s": span_s("idf"), "idf.vocab": side["vocab"],
        "vectorize.s": span_s("vectorize"),
        "vectorize.us_per_record": span_s("vectorize") / n * 1e6,
        "blocking.s": span_s("blocking"),
        "blocking.overhead_s": span_s("blocking") - kernel_s,
        "blocking.groups": k["groups"], "blocking.partitions": side["partitions"],
        "blocking.max_block_records": k["max_block_records"],
        "kernel.s": kernel_s, "kernel.us_per_record": kernel_s / n * 1e6,
        "kernel.block_p50_ms": float(np.percentile(ms, 50)),
        "kernel.block_p99_ms": float(np.percentile(ms, 99)),
        "kernel.block_max_ms": float(ms.max()),
        "kernel.candidates_s": span_s("kernel.candidates"),
        "kernel.allpairs_s": span_s("kernel.allpairs"),
        "kernel.jw_s": span_s("kernel.jw"),
        "kernel.union_find_s": span_s("kernel.union_find"),
        "kernel.fixed_s": tot["kernel.block"][2],
        "kernel.candidate_pairs": k["candidate_pairs"],
        "kernel.truncated_pairs": k["truncated_pairs"],
        "kernel.jw_distinct_pairs": k["jw_distinct_pairs"],
        "kernel.edges_kept": k["edges_kept"],
        "kernel.edge_yield": k["edges_kept"] / max(k["candidate_pairs"], 1),
        "cluster.clusters": clusters_n, "cluster.singletons": singletons,
        "trace.untraced_wall_s": untraced,
        "trace.layer_sum_s": layer_sum,
        "trace.overhead_s": span_s("pass") - untraced,
        "trace.layer_sum_ratio": layer_sum / untraced,
    }
