"""Local replica of the driver's correctness gate: run every queries()
entry at a given sf_dir and compare against oracle_sql() via DuckDB
(row count + column set + order-insensitive value comparison).

Every line also carries the first 16 hex digits of a sha256 over the
query's canonical result (:func:`canon`), rows-only queries included, so
two checkouts compare by diffing their runs.

A query that runs past ``--timeout`` seconds prints ``TIMEOUT <name>``,
counts as failing, and restarts the Ray session so that whatever it left
running cannot hold the next query's CPUs.

Usage: python tools/check_oracles.py [--num-cpus N] [--timeout S] [sf_dir] [query ...]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import signal
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def digest(df: pd.DataFrame) -> str:
    """sha256 of the canonical result: column names, then each row's
    64-bit pandas hash (float values hash by their bits)."""
    c = canon(df)
    h = hashlib.sha256("\x1f".join(c.columns).encode())
    h.update(pd.util.hash_pandas_object(c, index=False).to_numpy().tobytes())
    return h.hexdigest()[:16]


def compare(name: str, mine: pd.DataFrame, oracle: pd.DataFrame) -> list[str]:
    problems = []
    if len(mine) != len(oracle):
        problems.append(f"row count {len(mine)} vs {len(oracle)}")
    if sorted(mine.columns) != sorted(oracle.columns):
        problems.append(f"columns {sorted(mine.columns)} vs {sorted(oracle.columns)}")
        return problems
    a, b = canon(mine), canon(oracle)
    if len(a) == len(b):
        for c in a.columns:
            if pd.api.types.is_float_dtype(a[c]) and pd.api.types.is_float_dtype(b[c]):
                if not np.array_equal(a[c].to_numpy(), b[c].to_numpy()):
                    mism = int((a[c].to_numpy() != b[c].to_numpy()).sum())
                    mx = np.nanmax(np.abs(a[c].to_numpy() - b[c].to_numpy())) if len(a) else 0
                    problems.append(f"float col {c}: {mism} mismatches, max abs diff {mx:.3e}")
            else:
                if not a[c].equals(b[c]):
                    mism = int((a[c] != b[c]).sum())
                    problems.append(f"col {c}: {mism} mismatches (dtype {a[c].dtype} vs {b[c].dtype})")
    return problems


class QueryTimeout(BaseException):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout()


def start_ray(num_cpus: int) -> None:
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="%(prog)s [--num-cpus N] [--timeout S] [sf_dir] [query ...]")
    ap.add_argument("--num-cpus", type=int, default=8,
                    help="CPUs of the Ray session (default 8)")
    ap.add_argument("--timeout", type=float, default=None,
                    help="seconds one query may run before it counts as failing")
    # the options are taken out; sf_dir and the query names stay positional
    args, sys.argv[1:] = ap.parse_known_args()
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        start_ray(args.num_cpus)
    signal.signal(signal.SIGALRM, _on_alarm)

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_ok = n_bad = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        if args.timeout:
            signal.setitimer(signal.ITIMER_REAL, args.timeout)
        try:
            mine = to_pandas(fn(sf_dir))
        except QueryTimeout:
            print(f"TIMEOUT {name} (>{args.timeout:g}s)", flush=True)
            n_bad += 1
            ray.shutdown()
            start_ray(args.num_cpus)
            continue
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_bad += 1
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.time() - t0
        sha = digest(mine)
        if name not in oracles:
            print(f"ok   {name} {sha}: rows-only ({len(mine)} rows, {wall:.1f}s)")
            n_ok += 1
            continue
        oracle = con.execute(oracles[name]).fetchdf()
        problems = compare(name, mine, oracle)
        if problems:
            print(f"FAIL {name} {sha} ({wall:.1f}s): " + "; ".join(problems))
            n_bad += 1
        else:
            print(f"ok   {name} {sha}: {len(mine)} rows match oracle ({wall:.1f}s)")
            n_ok += 1
    print(f"\n{n_ok} ok, {n_bad} failing")
    ray.shutdown()
    sys.exit(1 if n_bad else 0)


if __name__ == "__main__":
    main()
