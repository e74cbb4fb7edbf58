"""1-CPU flagship SND benchmark: ``pipelines.snd.run_snd`` on seeded inputs.

    python3 perfbench/run.py --workload snd_hot --seed 1 --seconds 20 --trace 0

Run from the repository root. One process is one closed-loop batch job:
it starts one Ray instance with one CPU slot, generates the workload's
input from ``--seed``, runs one untimed warm-up pass on a small input, then
runs passes back to back for ``--seconds`` seconds.
Every pass's output is checked against the input. The last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one traced pass with ``--trace 1`` (spans are written to
``.bench_out/``). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

_T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "records_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "pairwise_f1": "ratio", "success_rate": "ratio",
}
PER_LAYER = {
    "read.s": "s", "normalize.s": "s", "normalize.us_per_record": "us",
    "idf.s": "s", "idf.vocab": "count",
    "vectorize.s": "s", "vectorize.us_per_record": "us",
    "blocking.s": "s", "blocking.overhead_s": "s", "blocking.groups": "count",
    "blocking.partitions": "count", "blocking.max_block_records": "count",
    "kernel.s": "s", "kernel.us_per_record": "us",
    "kernel.block_p50_ms": "ms", "kernel.block_p99_ms": "ms", "kernel.block_max_ms": "ms",
    "kernel.candidates_s": "s", "kernel.allpairs_s": "s", "kernel.jw_s": "s",
    "kernel.union_find_s": "s", "kernel.fixed_s": "s",
    "kernel.candidate_pairs": "count", "kernel.truncated_pairs": "count",
    "kernel.jw_distinct_pairs": "count", "kernel.edges_kept": "count",
    "kernel.edge_yield": "ratio",
    "cluster.clusters": "count", "cluster.singletons": "count",
    "checkpoint.normalized_s": "s", "checkpoint.idf_s": "s", "checkpoint.edges_s": "s",
    "checkpoint.block_metrics_s": "s", "checkpoint.clusters_s": "s",
    "checkpoint.mb_written": "MB", "resume.s": "s",
    "trace.untraced_wall_s": "s", "trace.layer_sum_s": "s", "trace.overhead_s": "s",
    "trace.layer_sum_ratio": "ratio",
}

# Ray's CPU slots: one task in flight at a time. The processes are not
# pinned: squeezing this process, Ray's own processes and the task onto one
# core made passes ~30% slower and their spread across runs larger.
NUM_CPUS = 1
OBJECT_STORE_BYTES = 512 * 2**20
PASS_TIMEOUT_S = 60       # a pass running longer counts as failed and ends the run
RUN_BUDGET_S = 100        # no pass starts later than this after process start
GEN_REPEATS = 3           # input generations timed per run (median → setup_s)
LAYER_SUM_TOLERANCE = 0.15
SOCKET_DIR_MAX = 32       # Ray's AF_UNIX socket paths extend the temp dir by ~70 bytes
SHUTDOWN_WAIT_S = 20      # longest wait for Ray's processes to exit at the end


class PassTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise PassTimeout in the main thread if the block runs too long."""
    def on_alarm(signum, frame):
        raise PassTimeout(f"pass exceeded {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# process-tree accounting from /proc: this process plus every Ray process it
# started (GCS, raylet, workers) are its descendants
# ---------------------------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _process_table() -> dict[int, tuple[int, int, str]]:
    """pid → (ppid, user+system CPU ticks including reaped children, state)."""
    table = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        table[int(d)] = (int(fields[1]), sum(int(x) for x in fields[11:15]), fields[0])
    return table


def _tree(table: dict[int, tuple[int, int, str]], root: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def tree_cpu_s() -> float:
    table = _process_table()
    return sum(table[p][1] for p in _tree(table, os.getpid())) / _CLK_TCK


def tree_peak_rss_mb() -> float:
    total_kb = 0
    for pid in _tree(_process_table(), os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, workload, seed: int, seconds: float, n_blocks: int | None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.n_blocks = n_blocks
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tmp = os.path.join(ROOT, ".bench_tmp", f"{workload.name}-{seed}-{os.getpid()}")
        self.ray_up = False
        self.wedged = False     # a pass timed out: Ray may be stuck, run no more
        self.reference = None   # canonical cluster table of the first good pass

    # -- set-up --------------------------------------------------------------

    def _ray_dir(self) -> str:
        path = os.path.join(ROOT, ".bench_tmp", f"r{os.getpid()}")
        if len(path) > SOCKET_DIR_MAX:
            # same directory, addressed through the cwd (== ROOT for this
            # process and every Ray process it starts) to keep sockets short
            path = os.path.join("/proc/self/cwd", os.path.relpath(path, ROOT))
        return path

    def start_ray(self) -> None:
        import ray
        from ray.data import DataContext

        old = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = ROOT + (os.pathsep + old if old else "")
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        self.ray_up = True
        # a new local instance, whatever RAY_ADDRESS says
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level=logging.ERROR, log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=self._ray_dir())
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def setup(self) -> float:
        import pyarrow.parquet as pq

        from checks import expected
        from whoiswho_ray.config import SNDConfig
        from workloads import generate

        os.makedirs(self.tmp, exist_ok=True)
        self.start_ray()
        t_ray = time.perf_counter() - _T_START
        spec = self.w.fixture(self.seed, self.n_blocks)
        self.path = os.path.join(self.tmp, "records.parquet")
        gen_s = []
        for _ in range(GEN_REPEATS):
            t0 = time.perf_counter()
            inputs = generate(spec)
            pq.write_table(inputs.records, self.path)
            gen_s.append(time.perf_counter() - t0)
            if gen_s[1:] and not inputs.records.equals(self.inputs.records):
                raise RuntimeError("input generation is not deterministic in the seed")
            self.inputs = inputs
        self.want = expected(self.inputs.truth, self.inputs.sha256)
        self.cfg = SNDConfig(score_concurrency=NUM_CPUS)
        # warm-up, untimed: a streaming pass on a small input of the same
        # shape starts the workers and imports the library in them (the
        # full input, or a checkpointed pass, would cost seconds more and
        # warm nothing more). Its output is checked against its own input.
        t0 = time.perf_counter()
        warm = generate(self.w.warmup(self.seed))
        warm_path = os.path.join(self.tmp, "warmup.parquet")
        pq.write_table(warm.records, warm_path)
        got = self.attempt(lambda: self._stream(warm_path), "warm-up")
        if got is not None:
            self.check(got[2], "warm-up", want=expected(warm.truth, warm.sha256))
        warm_s = time.perf_counter() - t0
        print(f"setup: start+ray {t_ray:.2f} s, input generation {statistics.median(gen_s):.2f} s "
              f"(median of {GEN_REPEATS}), warm-up pass {warm_s:.2f} s "
              f"({warm.n} records), {self.inputs.n} records", file=sys.stderr)
        return t_ray + statistics.median(gen_s) + warm_s

    # -- passes --------------------------------------------------------------

    def _stream(self, path: str | None = None):
        from checks import collect
        from whoiswho_ray.pipelines.snd import run_snd

        return collect(run_snd(path or self.path, self.cfg))

    def _checkpoint(self):
        from checks import collect
        from whoiswho_ray.pipelines.snd import run_snd

        out_dir = os.path.join(self.tmp, f"ckpt-{self.attempted}")
        try:
            cpu0 = tree_cpu_s()
            t0 = time.perf_counter()
            cold = collect(run_snd(self.path, self.cfg, out_dir=out_dir))
            wall = time.perf_counter() - t0
            cpu = tree_cpu_s() - cpu0
            with open(os.path.join(out_dir, "manifest.json")) as f:
                manifest = json.load(f)
            written = sum(os.path.getsize(os.path.join(d, n))
                          for d, _, names in os.walk(out_dir) for n in names)
            t0 = time.perf_counter()
            warm = collect(run_snd(self.path, self.cfg, out_dir=out_dir))
            resume_s = time.perf_counter() - t0
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return cold, {"wall": wall, "cpu": cpu, "resume": warm, "resume_s": resume_s,
                      "manifest": manifest, "bytes_written": written}

    def attempt(self, fn, label: str):
        """Run one pass under the deadline; (wall, cpu, result) or None.
        After a timeout nothing more runs."""
        if self.wedged:
            return None
        self.attempted += 1
        cpu0 = tree_cpu_s()
        t0 = time.perf_counter()
        try:
            with deadline(PASS_TIMEOUT_S):
                res = fn()
        except Exception as e:  # a failed pass is recorded, the run goes on
            self.wedged = isinstance(e, PassTimeout)
            self.fail(f"{label}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return None
        return time.perf_counter() - t0, tree_cpu_s() - cpu0, res

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.errors.append(msg)
        print(f"FAILED {msg}", file=sys.stderr)

    def check(self, table, label: str, want=None) -> bool:
        """Check one pass's clusters against the workload's input (or
        ``want``, the warm-up's); on the workload's input the first good
        output is the reference every later pass must reproduce exactly."""
        from checks import canonical, check_rows

        out = canonical(table)
        errors = check_rows(out, self.want if want is None else want)
        if want is None and not errors and self.reference is not None \
                and not out.equals(self.reference):
            errors.append("clusters differ from the first pass on the same input")
        for e in errors:
            self.fail(f"{label}: {e}")
        if want is None and not errors and self.reference is None:
            self.reference = out
        return not errors

    def run_pass(self, call: str | None = None):
        """One pass of ``call`` (default: the workload's): (wall, cpu,
        extra) or None when it failed."""
        label = f"pass {self.attempted}"
        if (call or self.w.call) == "checkpoint":
            got = self.attempt(self._checkpoint, label)
            if got is None:
                return None
            cold, extra = got[2]
            ok = self.check(cold, label)
            if ok and not self.check(extra["resume"], label + " resume"):
                ok = False
            return (extra["wall"], extra["cpu"], extra) if ok else None
        got = self.attempt(self._stream, label)
        if got is None or not self.check(got[2], label):
            return None
        return got[0], got[1], None

    # -- the two modes ---------------------------------------------------------

    def timed(self) -> tuple[dict, float]:
        setup_s = self.setup()
        walls, cpus = [], []
        t0 = time.perf_counter()
        while not self.wedged and time.perf_counter() - _T_START < RUN_BUDGET_S and (
                time.perf_counter() - t0 < self.seconds or not walls and self.attempted < 4):
            got = self.run_pass()
            if got is not None:
                walls.append(got[0])
                cpus.append(got[1])
        wall = statistics.median(walls) if walls else float("nan")
        f1 = self.f1()
        print(f"{len(walls)} timed passes, wall_s {[round(x, 3) for x in walls]}, "
              f"cpu_s {[round(x, 2) for x in cpus]}", file=sys.stderr)
        return {
            "setup_s": setup_s,
            "wall_s": wall,
            "records_per_s": self.inputs.n / wall,
            "cpu_s": statistics.median(cpus) if cpus else float("nan"),
            "peak_rss_mb": tree_peak_rss_mb(),
            "pairwise_f1": f1,
            "success_rate": 1 - self.failed / max(self.attempted, 1),
        }, f1

    def traced(self) -> tuple[dict, float]:
        from spans import Tracer, block_metric_totals, kernel_replay, layer_metrics, staged_pass

        self.setup()
        m = dict.fromkeys(PER_LAYER, 0.0)
        tracer = Tracer(run_id=f"{self.w.name}-{self.seed}-{os.getpid()}")

        # untraced streaming passes for the overhead and layer-sum check,
        # one before and one after the traced pass (the host's speed drifts)
        walls = []
        got = self.run_pass("stream")
        walls += [got[0]] if got else []
        staged = self.attempt(lambda: staged_pass(tracer, self.path, self.cfg), "traced")
        replay = None
        if staged is not None and self.check(staged[2][0], "traced"):
            clusters, side = staged[2]
            replay = self.attempt(lambda: kernel_replay(tracer, side["vectorized"],
                                                        side["idf_w"], self.cfg), "kernel replay")
        got = self.run_pass("stream")
        walls += [got[0]] if got else []
        untraced = statistics.median(walls) if walls else float("nan")
        if replay is not None and self.check(replay[2][0], "kernel replay"):
            k = replay[2][1]
            bm = block_metric_totals(side["vectorized"], self.cfg)
            if bm != (k["candidate_pairs"], k["truncated_pairs"]):
                self.fail(f"kernel replay counted {k['candidate_pairs']}/{k['truncated_pairs']} "
                          f"candidate/truncated pairs, block_metrics {bm[0]}/{bm[1]}")
            m.update(layer_metrics(tracer, k, side, clusters, self.inputs.n, untraced))
            layer_sum = m["trace.layer_sum_s"]
            if self.w.call == "stream" and not abs(layer_sum / untraced - 1) <= LAYER_SUM_TOLERANCE:
                # one traced pass against two untraced passes: on a box whose
                # pass-to-pass noise is ~10% this misses now and then, so it
                # is a warning (and the ratio a metric), not a failed pass
                print(f"WARNING: layer sum {layer_sum:.2f} s is not within "
                      f"{LAYER_SUM_TOLERANCE:.0%} of the untraced wall {untraced:.2f} s",
                      file=sys.stderr)

        # the checkpointed path on every workload's input, so the
        # state.manifest metrics are measured everywhere, not 0 on two
        with tracer.span("checkpoint+resume"):
            got = self.run_pass("checkpoint")
        if got is not None:
            stages = got[2]["manifest"]["stages"]
            m.update({
                "checkpoint.normalized_s": stages["normalized"]["wall_sec"],
                "checkpoint.idf_s": stages["idf"]["wall_sec"],
                "checkpoint.edges_s": stages["edges"]["wall_sec"],
                "checkpoint.block_metrics_s": stages["block_metrics"]["wall_sec"],
                "checkpoint.clusters_s": stages["clusters"]["wall_sec"],
                "checkpoint.mb_written": got[2]["bytes_written"] / 1e6,
                "resume.s": got[2]["resume_s"],
            })
        print(tracer.table(), file=sys.stderr)
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_out", f"spans-{self.w.name}-seed{self.seed}.json"))
        return m, self.f1()

    def f1(self) -> float:
        """Pairwise F1 of the reference clusters (every good pass
        reproduced them exactly), 0 when no pass succeeded."""
        from checks import pairwise_f1

        return 0.0 if self.reference is None else pairwise_f1(self.reference, self.inputs.truth)

    def close(self) -> None:
        if self.ray_up:
            import ray

            ray.shutdown()
            # wait for every process Ray started to exit (a zombie has)
            # before removing the directories they write to
            end = time.perf_counter() + SHUTDOWN_WAIT_S
            while time.perf_counter() < end:
                table = _process_table()
                if all(table[p][2] == "Z" for p in _tree(table, os.getpid())[1:]):
                    break
                time.sleep(0.1)
        shutil.rmtree(self.tmp, ignore_errors=True)
        shutil.rmtree(os.path.join(ROOT, ".bench_tmp", f"r{os.getpid()}"), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n-blocks", type=int, default=None,
                    help="override the workload's block count (smoke tests)")
    args = ap.parse_args(argv)

    sys.path.insert(0, ROOT)
    try:
        import whoiswho_ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import whoiswho_ray from {ROOT}: {e}", file=sys.stderr)
        return 2
    from checks import MIN_F1
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, args.n_blocks)
    try:
        metrics, f1 = bench.traced() if args.trace else bench.timed()
    finally:
        bench.close()
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": bench.failed == 0 and bench.reference is not None,
        "attempted": bench.attempted,
        "failed": bench.failed,
        # a metric no pass measured reads 0 (the run is then not correct)
        "metrics": {k: {"value": float(metrics[k]) if math.isfinite(metrics[k]) else 0.0,
                        "unit": u} for k, u in units.items()},
    }
    if bench.errors:
        print("errors: " + "; ".join(bench.errors), file=sys.stderr)
    if f1 < MIN_F1:
        # the north rule is a quality target, not an invariant: a miss is
        # a finding about the program on this input, reported, not hidden
        print(f"FINDING: pairwise F1 {f1:.4f} < {MIN_F1} on {args.workload} "
              f"seed {args.seed}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
