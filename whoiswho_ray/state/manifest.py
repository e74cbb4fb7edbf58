"""Stage-checkpoint manifest — resumable pipeline state.

The reference's resume story is "skip if the pickle already exists"
(``/root/reference/whoiswho/dataset/data_process.py:71-72``,
``oagbert_features.py:131-168``). Here it is explicit and auditable:

* every stage writes its output Parquet to a temp dir and **renames** it
  into place (atomic on one filesystem), so a killed run never leaves a
  half-written stage directory that looks complete;
* ``manifest.json`` (written via the same tmp+rename) records, per stage:
  row count, wall seconds, output path, input stage names (lineage) and the
  config hash — a resume under a *different* config refuses to reuse
  stages, it recomputes them;
* a rerun loads completed stages with ``read_parquet`` and recomputes only
  what is missing. Output cluster ids are content-derived, so
  resume-run == fresh-run byte-for-byte (asserted in tests).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid


class Manifest:
    def __init__(self, out_dir: str, config_hash: str):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, "manifest.json")
        os.makedirs(out_dir, exist_ok=True)
        self.data: dict = {"config_hash": config_hash, "stages": {}}
        if os.path.exists(self.path):
            with open(self.path) as f:
                existing = json.load(f)
            if existing.get("config_hash") == config_hash:
                self.data = existing
            # else: stale manifest from another config — start fresh (old
            # stage dirs are orphaned, not trusted)

    def _flush(self) -> None:
        tmp = self.path + f".tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "w") as f:
            json.dump(self.data, f, indent=2, sort_keys=True)
        os.replace(tmp, self.path)

    def stage_done(self, name: str) -> bool:
        st = self.data["stages"].get(name)
        return bool(st) and os.path.exists(st["path"])

    def stage_path(self, name: str) -> str:
        return self.data["stages"][name]["path"]

    def stage_dir_for(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def begin_stage(self, name: str) -> str:
        """Returns a temp dir to write into; commit with ``complete_stage``."""
        tmp = os.path.join(self.out_dir,
                           f".{name.replace('/', '_')}.tmp-{uuid.uuid4().hex[:8]}")
        os.makedirs(tmp, exist_ok=True)
        return tmp

    def complete_stage(self, name: str, tmp_dir: str, rows: int,
                       wall_sec: float, inputs: list[str],
                       metrics: dict | None = None) -> str:
        final = self.stage_dir_for(name)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        if os.path.exists(final):
            shutil.rmtree(final)
        os.replace(tmp_dir, final)
        self.data["stages"][name] = {
            "path": final,
            "rows": rows,
            "wall_sec": round(wall_sec, 3),
            "inputs": inputs,
            "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "metrics": metrics or {},
        }
        self._flush()
        return final

    @staticmethod
    def parquet_rows(path: str) -> int:
        """Rows of every Parquet file under ``path``, read from the file
        footers (no scan, no Ray job)."""
        import pyarrow.parquet as pq

        return sum(pq.read_metadata(os.path.join(d, f)).num_rows
                   for d, _, files in os.walk(path)
                   for f in files if f.endswith(".parquet"))

    def record_artifact(self, name: str, path: str, meta: dict) -> None:
        self.data["stages"][name] = {"path": path, "artifact": True, **meta}
        self._flush()
