"""Transformer-encoder stage skeleton (operator T4).

The reference encodes papers with OAGBERT on GPU, one forward per record
(``/root/reference/whoiswho/featureGenerator/rndFeature/
oagbert_features.py:54-57`` model load, ``203-236`` encode loop). This
environment has no GPU and no torch/transformers, so the Ray-side
machinery (actor pool, broadcast-free per-actor model load, batched
forward, list<float32> output column) is real and tested, while the
model itself is gated:

* ``backend="fake"`` (default) — a deterministic hashed bag-of-words
  projection (each token hashes to a position in a ``dim``-dim space,
  L2-normalized): stable plumbing + a usable fallback embedding.
* ``backend="transformers"`` — raises ``NotImplementedError`` at actor
  construction unless ``transformers``+``torch`` import; the ``__init__``
  is the once-per-actor model-load site, ``__call__`` the batched forward
  (pass ``num_gpus`` through ``encode_column`` when GPUs exist).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from whoiswho_ray.functions.hashing import stable_hash64
from whoiswho_ray.functions.textnorm import tokenize_text


class TextEncoder:
    """Actor: text column → ``embedding`` list<float32> column.

    Model state loads ONCE per actor in ``__init__`` (the
    ``feature_process.py:28-44`` / ``oagbert_features.py:54-57`` pattern);
    ``__call__`` runs one batched forward."""

    def __init__(self, text_col: str = "text", dim: int = 64, backend: str = "fake",
                 model_name: str = "bert-base-uncased"):
        self.text_col = text_col
        self.dim = dim
        if backend == "fake":
            self.encode = self._fake_encode
        elif backend == "transformers":
            try:
                import torch  # noqa: F401
                import transformers  # noqa: F401
            except ImportError as e:
                raise NotImplementedError(
                    "backend='transformers' needs torch+transformers, which "
                    "are not available in this environment; use backend='fake'"
                ) from e
            raise NotImplementedError(
                "load AutoModel.from_pretrained(model_name) here; batch the "
                "tokenizer + forward in __call__ when the libraries exist")
        else:
            raise ValueError(f"unknown backend {backend!r}")

    def _fake_encode(self, col) -> np.ndarray:
        """Vectorized signed hashed bag-of-words (VERDICT r3 #6): Arrow
        clean/split kernels + ``dictionary_encode`` + ONE hash per
        batch-UNIQUE token + one ``np.add.at`` scatter — the
        ``dedup._token_id_rows`` pattern — replacing the per-row,
        per-token Python loop. Bit-identical to the loop: ±1 float32
        accumulations are exact integers (commutative below 2^24), and
        ``clean_text_column`` is the proven bit-exact column kernel for
        the per-row cleaning chain."""
        import pyarrow.compute as pc

        from whoiswho_ray.functions.textnorm import (STOPWORDS,
                                                     clean_text_column)

        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        nrows = len(col)
        out = np.zeros((nrows, self.dim), dtype=np.float32)
        cleaned = clean_text_column(col.fill_null(""))
        toks = pc.split_pattern(cleaned, " ")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = toks.values.slice(offsets[0], offsets[-1] - offsets[0])
        offsets = offsets - offsets[0]
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = enc.dictionary.to_pylist()
        # tokenize_text keep rule (len>=2, non-stopword) + hash, once per
        # batch-unique token; dropped tokens get position -1
        upos = np.full(len(uniq), -1, np.int64)
        usign = np.zeros(len(uniq), np.float32)
        for j, u in enumerate(uniq):
            if u and len(u) >= 2 and u not in STOPWORDS:
                h = stable_hash64(u)
                upos[j] = h % self.dim
                usign[j] = 1.0 if (h >> 32) % 2 else -1.0
        if codes.size:
            row_of = np.repeat(np.arange(nrows, dtype=np.int64),
                               np.diff(offsets))
            pos = upos[codes]
            keep = pos >= 0
            np.add.at(out, (row_of[keep], pos[keep]), usign[codes][keep])
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return out / norms

    def __call__(self, t: pa.Table) -> pa.Table:
        emb = self.encode(t.column(self.text_col))
        off = pa.array(np.arange(0, (len(emb) + 1) * self.dim, self.dim, dtype=np.int32))
        col = pa.ListArray.from_arrays(off, pa.array(emb.ravel(), pa.float32()))
        return t.append_column("embedding", col)


def encode_column(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    dim: int = 64,
    backend: str = "fake",
    batch_size: int = 512,
    concurrency: int = 4,
    num_gpus: float = 0,
) -> "ray.data.Dataset":
    """Attach an ``embedding`` column via an actor-pool encode stage.

    ``batch_size`` is deliberately small (transformer forwards are
    memory-bound); pass ``num_gpus`` per actor when a GPU backend exists."""
    kwargs: dict = {"batch_format": "pyarrow", "zero_copy_batch": True,
                    "batch_size": batch_size, "concurrency": (1, concurrency)}
    if num_gpus:
        kwargs["num_gpus"] = num_gpus
    return ds.map_batches(
        TextEncoder,
        fn_constructor_kwargs={"text_col": text_col, "dim": dim, "backend": backend},
        **kwargs,
    )
