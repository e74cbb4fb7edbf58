"""Record normalization stage.

One zero-copy Arrow ``map_batches`` pass that turns the raw ``input_hint``
table ``(repo, path, commit, lang, content)`` into the engine's working
schema. This collapses the reference's whole preprocessing fan-out — the
per-name shard split (``/root/reference/whoiswho/dataset/data_process.py:
60-84``), the four relation-file writers (``data_process.py:104-212``) and
the plain-text corpus dump (``data_process.py:221-308``) — into columns on
a single Dataset instead of files on disk:

========================  ===================================================
column                    meaning
========================  ===================================================
record_id                 sha256(repo ⊕ path ⊕ commit)[:40] — stable identity
block_key                 normalized path-basename (the "cleaned name")
name                      raw basename (Jaro-Winkler feature input)
content_sha256            the per-row invariant required by BASELINE.json
tok_ids  list<int64>      sorted unique hashed identifier tokens (coauthor set)
n_toks                    distinct valid tokens before the cap (metrics)
repo_ids list<int64>      hashed repo-slug tokens (org analog)
ctx_ids  list<int64>      hashed lang + path-dir tokens (venue analog)
========================  ===================================================

``content`` itself is dropped after this stage — at 100 TB the full text
must not travel through the shuffle; only compact signatures do.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.functions.textnorm import (
    CODE_STOPWORDS,
    block_key_column,
    fold_lower_column,
    split_path_column,
)

_STOPWORDS = pa.array(sorted(CODE_STOPWORDS), pa.string())
_BLAKE8 = hashlib.blake2b(digest_size=8)
_HEX = np.frombuffer(bytes.hex(bytes(range(256))).encode(), dtype=np.uint8).reshape(256, 2)


def _flat(col: "pa.ChunkedArray | pa.Array") -> pa.Array:
    """One contiguous ``string`` array (a null-typed column reads as
    all-null strings)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col if col.type == pa.string() else col.cast(pa.string())


def _slices(arr: pa.Array) -> tuple[memoryview, list[int]]:
    """A string array's UTF-8 data buffer and its ``n + 1`` value offsets.
    Arrow strings are valid UTF-8, so each slice is exactly the
    ``encode("utf-8", "surrogatepass")`` of the value the scalar
    functions hash. Null slots must be filled first."""
    off = np.frombuffer(arr.buffers()[1], np.int32)[arr.offset:arr.offset + len(arr) + 1]
    data = arr.buffers()[2]
    return memoryview(data if data is not None else b""), off.tolist()


def _hex_column(digests: bytes, width: int) -> pa.Array:
    """Fixed-width digests (``width`` bytes each) spelled as lowercase hex
    strings, straight into the string buffers."""
    raw = np.frombuffer(digests, dtype=np.uint8)
    n = raw.size // width
    offsets = np.arange(0, 2 * width * (n + 1), 2 * width, dtype=np.int32)
    return pa.StringArray.from_buffers(
        n, pa.py_buffer(offsets), pa.py_buffer(_HEX[raw].tobytes()))


def _sha256_hex(arr: pa.Array, chars: int = 64) -> pa.Array:
    """Leading ``chars`` hex digits of each value's sha256 (even ``chars``)."""
    mv, off = _slices(arr)
    w = chars // 2
    sha = hashlib.sha256
    return _hex_column(
        b"".join([sha(mv[a:b]).digest()[:w] for a, b in zip(off[:-1], off[1:])]), w)


def _stable_hash64(arr: pa.Array, idx: np.ndarray) -> np.ndarray:
    """``stable_hash64`` of ``arr[idx]``: one blake2b per value over its
    buffer slice, the digests read back with one ``frombuffer``. Copying a
    prepared state is cheaper than a new ``blake2b(digest_size=8)``."""
    mv, off = _slices(arr)
    new = _BLAKE8.copy
    out = []
    for i in idx.tolist():
        h = new()
        h.update(mv[off[i]:off[i + 1]])
        out.append(h.digest())
    return (np.frombuffer(b"".join(out), "<u8") >> 1).astype(np.int64)


def _alnum_runs(x: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """The maximal ``[a-z0-9]`` runs of every value, in order, as one flat
    string array, and the row of each run: the non-empty pieces of
    ``split_pattern_regex(x, "[^a-z0-9]+")``, found on the bytes. Every
    byte of a multi-byte UTF-8 code point is ≥ 0x80, so byte runs are code
    point runs. ``x`` has no nulls."""
    n = len(x)
    off = np.frombuffer(x.buffers()[1], np.int32)[x.offset:x.offset + n + 1].astype(np.int64)
    lo, hi = (int(off[0]), int(off[-1])) if n else (0, 0)
    data = x.buffers()[2]
    b = (np.frombuffer(data, np.uint8)[lo:hi] if data is not None
         else np.empty(0, np.uint8))
    m = ((b >= 0x61) & (b <= 0x7A)) | ((b >= 0x30) & (b <= 0x39))
    # a run opens after a non-alnum byte or at a value's first byte, and
    # closes before a non-alnum byte or at a value's last byte
    edge = np.ones(b.size, dtype=bool)
    edge[1:] = ~m[:-1]
    edge[off[:-1][off[:-1] < hi] - lo] = True
    starts = np.flatnonzero(edge & m)
    edge[:] = True
    edge[:-1] = ~m[1:]
    edge[off[1:][off[1:] > lo] - lo - 1] = True
    lens = np.flatnonzero(edge & m) - starts + 1
    offsets = np.zeros(starts.size + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    runs = pa.StringArray.from_buffers(
        starts.size, pa.py_buffer(offsets), pa.py_buffer(b[m].tobytes()))
    row = np.searchsorted(off[1:] - lo, starts, side="right").astype(np.int64)
    return runs, row


def _lists(values: np.ndarray, lens: np.ndarray) -> pa.ListArray:
    """``list<int64>``: row ``i`` holds the next ``lens[i]`` values."""
    off = np.zeros(lens.size + 1, dtype=np.int32)
    np.cumsum(lens, out=off[1:])
    return pa.ListArray.from_arrays(pa.array(off), pa.array(values, pa.int64()))


def _codes(enc: pa.DictionaryArray) -> np.ndarray:
    return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)


def _hash_sets(toks: pa.Array, row: np.ndarray, n: int) -> pa.ListArray:
    """Per row ``hash_tokens64`` of its tokens (``toks[i]`` belongs to row
    ``row[i]``): the sorted ``stable_hash64`` of each distinct string,
    each distinct string of the batch hashed once."""
    enc = pc.dictionary_encode(toks)
    u = max(len(enc.dictionary), 1)
    hashes = _stable_hash64(enc.dictionary, np.arange(len(enc.dictionary)))
    pair = np.unique(row * u + _codes(enc))
    r, h = pair // u, hashes[pair % u]
    return _lists(h[np.lexsort((h, r))], np.bincount(r, minlength=n))


def tokenize_identifiers_column(
    content: "pa.ChunkedArray | pa.Array", max_tokens: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized identifier tokenization for a whole string column.

    Same pipeline as ``textnorm.tokenize_identifiers`` (camel/snake split,
    lowercase, len≥2, keyword filter, first-appearance distinct capped at
    ``max_tokens``) but expressed with Arrow kernels and numpy. One edge
    differs from the scalar function: runs led by digits (``123abc``) keep
    their digits (the scalar regex started tokens at a letter) —
    irrelevant for identifier-shaped content, documented here for honesty.

    Layout: camel split and lowercase are Arrow kernels; the split into
    ``[a-z0-9]`` runs is :func:`_alnum_runs` over the bytes. The runs are
    dictionary-encoded, validity is two Arrow kernels over the dictionary,
    and only the valid dictionary values are hashed (:func:`_stable_hash64`
    over the string buffer's slices). Each (row, token) pair becomes one
    int64 key ``row · U + rank``, ``rank`` the dense rank of the token's
    hash among the ``U`` distinct hashes, so ONE ``np.unique`` both dedupes
    each row (colliding hashes count once) and leaves every row's hashes
    sorted. Only a batch where some row has more than ``max_tokens``
    distinct tokens pays the appearance-order sort for the cap.

    Returns (flat sorted-unique int64 hashes, row lengths, n_tokens per
    row before capping).
    """
    content = pc.fill_null(_flat(content), "")
    n = len(content)
    x = pc.replace_substring_regex(content, pattern="([a-z0-9])([A-Z])", replacement=r"\1 \2")
    toks, row = _alnum_runs(pc.utf8_lower(x))
    enc = pc.dictionary_encode(toks)
    uniq = enc.dictionary
    ok = pc.and_(pc.greater_equal(pc.utf8_length(uniq), 2),
                 pc.invert(pc.is_in(uniq, value_set=_STOPWORDS)))
    ok_idx = np.flatnonzero(ok.to_numpy(zero_copy_only=False))
    if ok_idx.size == 0:
        return (np.empty(0, dtype=np.int64), np.zeros(n, dtype=np.int64),
                np.zeros(n, dtype=np.int32))
    hashes = _stable_hash64(uniq, ok_idx)
    uh, rank = np.unique(hashes, return_inverse=True)
    code_rank = np.full(len(uniq), -1, dtype=np.int64)
    code_rank[ok_idx] = rank
    tok_rank = code_rank[_codes(enc)]
    valid = tok_rank >= 0
    raw = row[valid] * uh.size + tok_rank[valid]
    key = np.unique(raw)
    r = key // uh.size
    n_toks = np.bincount(r, minlength=n).astype(np.int32)
    if int(n_toks.max()) > max_tokens:
        # keep each row's first ``max_tokens`` distinct tokens in
        # appearance order, then read the kept keys back in key order
        first = np.unique(raw, return_index=True)[1]
        by_pos = np.lexsort((first, r))
        starts = np.repeat(np.cumsum(n_toks) - n_toks, n_toks)
        keep = np.empty(key.size, dtype=bool)
        keep[by_pos] = np.arange(key.size) - starts < max_tokens
        key, r = key[keep], r[keep]
    return uh[key % uh.size], np.bincount(r, minlength=n).astype(np.int64), n_toks


def _identity(batch: pa.Table) -> list[pa.Array]:
    """repo, path and commit as flat string arrays; a null in any of them
    leaves the record without an identity, so it is refused."""
    cols = []
    for name in ("repo", "path", "commit"):
        col = _flat(batch.column(name))
        if col.null_count:
            raise ValueError(
                f"normalize: column {name!r} has {col.null_count} null value(s); "
                "repo, path and commit identify a record and must be non-null")
        cols.append(col)
    return cols


def normalize_batch(batch: pa.Table, cfg: SNDConfig) -> pa.Table:
    """Pure per-batch transform (unit-testable without Ray).

    No per-row Python is left except each record id's and content's
    sha256 over its Arrow buffer slice. Token, repo and context hashes are
    computed once per distinct string of the batch; the path, block-key
    and token columns are Arrow kernels and numpy over the string buffers,
    with only values holding a non-ASCII code point handed to the scalar
    functions of :mod:`whoiswho_ray.functions.textnorm`, which stay the
    definition of every column."""
    repo, path, commit = _identity(batch)
    lang = pc.fill_null(_flat(batch.column("lang")), "")
    content = pc.fill_null(_flat(batch.column("content")), "")
    n = len(path)

    rid = _sha256_hex(pc.binary_join_element_wise(repo, path, commit, "\x1f"), 40)
    sha = _sha256_hex(content)
    tok_values, tok_lens, n_toks = tokenize_identifiers_column(
        content, cfg.max_tokens_per_record)

    dirs, name = split_path_column(path)
    # context: the directory's alnum runs plus the whole folded lang, if any
    dir_toks, dir_row = _alnum_runs(fold_lower_column(dirs))
    has_lang = pc.not_equal(lang, "")
    lang_row = np.flatnonzero(has_lang.to_numpy(zero_copy_only=False))
    ctx_ids = _hash_sets(
        pa.concat_arrays([dir_toks, fold_lower_column(lang.filter(has_lang))]),
        np.concatenate([dir_row, lang_row]), n)
    repo_ids = _hash_sets(*_alnum_runs(fold_lower_column(repo)), n)

    return pa.table(
        {
            "record_id": rid,
            "block_key": block_key_column(name),
            "name": name,
            "repo": batch.column("repo"),
            "path": batch.column("path"),
            "commit": batch.column("commit"),
            "lang": batch.column("lang"),
            "content_sha256": sha,
            "n_toks": pa.array(n_toks),
            "tok_ids": _lists(tok_values, tok_lens),
            "repo_ids": repo_ids,
            "ctx_ids": ctx_ids,
        }
    )


def normalize_records(ds: "ray.data.Dataset", cfg: SNDConfig | None = None) -> "ray.data.Dataset":
    """records Dataset → normalized Dataset (content dropped)."""
    cfg = cfg or SNDConfig()
    return ds.map_batches(
        lambda b: normalize_batch(b, cfg),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=4096,
    )
