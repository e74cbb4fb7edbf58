"""Text-analysis operators for a training-data pipeline.

Language-ID (stopword/n-gram heuristic), quality scoring (length / punct /
stopword ratios), token counting, and rolling-hash document
fingerprinting — each a ``map_batches`` stage over the ``documents``
table. The quality/token kernels are defined with exact ASCII-class
semantics so a DuckDB SQL oracle computes identical values.

All kernels are VECTORIZED: character/token counts come from
``pyarrow.compute`` regex-count kernels (one C pass per column, no Python
row loop); language-ID flattens the tokenized column once and resolves
stopword membership with one hashed ``isin`` per profile; fingerprinting
hashes only each batch's *unique* tokens (dictionary-encode) before the
per-row numpy winnowing.
"""

from __future__ import annotations

import functools
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from whoiswho_ray.functions.hashing import stable_hash64, winnow_fingerprints

_TOKEN_RE = re.compile(r"\S+")

# small per-language stopword profiles for the heuristic language id
_LANG_STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the a of and to in is that it for on with as at by".split()),
    "de": frozenset("der die das und ist nicht ein eine mit für auf von zu den".split()),
    "fr": frozenset("le la les et de un une est pour dans que sur avec ne pas".split()),
    "es": frozenset("el la los las y de un una es para en que no con por".split()),
}


def _counts(col, pattern: str) -> np.ndarray:
    return pc.count_substring_regex(col, pattern).to_numpy(
        zero_copy_only=False).astype(np.int64)


def token_stats_batch(t: pa.Table, text_col: str = "text", key_col: str = "doc_id") -> pa.Table:
    """(key, n_tokens, n_chars, avg_token_len) — tokens are \\S+ runs.

    SQL oracle: ``array_length(regexp_extract_all(text, '\\S+'))`` etc.
    Sum of token lengths == non-whitespace character count, so everything
    is three regex-count kernels — no per-row work at all."""
    col = t.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    n_tokens = _counts(col, r"\S+")
    tok_chars = n_chars - _counts(col, r"\s")
    avg = np.where(n_tokens > 0, tok_chars / np.maximum(n_tokens, 1), 0.0)
    return pa.table({
        key_col: t.column(key_col),
        "n_tokens": pa.array(n_tokens),
        "n_chars": pa.array(n_chars),
        "avg_token_len": pa.array(avg),
    })


def quality_score_batch(t: pa.Table, text_col: str = "text", key_col: str = "doc_id") -> pa.Table:
    """ASCII-class character ratios + a blended quality score.

    ratios are count(class)/length (0 for empty text); quality =
    alpha_ratio - punct_ratio - digit_ratio, clamped to [0, 1]."""
    col = t.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    ln = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.float64)
    denom = np.maximum(ln, 1.0)
    cols = {
        "alpha_ratio": _counts(col, "[a-zA-Z]") / denom,
        "digit_ratio": _counts(col, "[0-9]") / denom,
        "punct_ratio": _counts(col, r"[!-/:-@\[-`{-~]") / denom,
        "upper_ratio": _counts(col, "[A-Z]") / denom,
    }
    quality = np.clip(cols["alpha_ratio"] - cols["punct_ratio"] - cols["digit_ratio"], 0.0, 1.0)
    out = {key_col: t.column(key_col)}
    out.update({k: pa.array(v) for k, v in cols.items()})
    out["quality"] = pa.array(quality)
    return pa.table(out)


_LANG_WORD_SPLIT = r"[^a-zàâäéèêëîïôöùûüçáíóúñß]+"


@functools.cache
def _lang_profiles() -> dict:
    """Hashed stopword profile per language, built once per process."""
    return {lang: pd.util.hash_pandas_object(pd.Series(sorted(stops)), index=False).to_numpy()
            for lang, stops in _LANG_STOPWORDS.items()}


def lang_id_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Heuristic language id by stopword-profile hit rate.

    One Arrow split to a flat word stream, dictionary-encode so
    membership is resolved once per batch-UNIQUE word (one vectorized
    siphash + one ``isin`` per profile over the vocabulary, typically
    100–1000× smaller than the word stream), then per-row ``bincount``."""
    profiles = _lang_profiles()
    langs = list(profiles)
    n = len(batch)
    col = pa.array(batch["text"].fillna("").astype(str), pa.string())
    toks = pc.split_pattern_regex(pc.utf8_lower(col), _LANG_WORD_SPLIT)
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.values.slice(offsets[0], offsets[-1] - offsets[0])
    offsets = offsets - offsets[0]
    row_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))

    scores = np.zeros((n, len(langs)), dtype=np.float64)
    if len(flat):
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq = enc.dictionary
        word_ok = (pc.utf8_length(uniq).to_numpy(zero_copy_only=False) > 0)
        uh = pd.util.hash_pandas_object(
            pd.Series(uniq.to_numpy(zero_copy_only=False)), index=False).to_numpy()
        n_words = np.bincount(row_idx[word_ok[codes]], minlength=n).astype(np.float64)
        denom = np.maximum(n_words, 1.0)
        for j, lang in enumerate(langs):
            uniq_hit = np.isin(uh, profiles[lang]) & word_ok
            hits = np.bincount(row_idx[uniq_hit[codes]], minlength=n)
            scores[:, j] = hits / denom
    best = np.argmax(scores, axis=1)
    best_score = scores[np.arange(n), best]
    out = batch[["doc_id"]].copy()
    out["pred_lang"] = np.where(best_score > 0, np.asarray(langs, dtype=object)[best], "und")
    out["lang_score"] = best_score
    return out


def fingerprint_batch(t: pa.Table, text_col: str = "text", key_col: str = "doc_id",
                      k: int = 5, window: int = 4) -> pa.Table:
    """Winnowed rolling-hash fingerprints over the token sequence
    (Schleimer et al. 2003). Returns (key, n_fingerprints, min_fingerprint,
    fingerprints:list<uint64-as-int64>).

    Token hashing is done once per batch-unique token (dictionary encode),
    preserving the exact per-row fingerprint values of the scalar path."""
    col = t.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(col, "")), r"\s+")
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.values.slice(offsets[0], offsets[-1] - offsets[0])
    offsets = offsets - offsets[0]

    enc = pc.dictionary_encode(flat)
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = enc.dictionary.to_pylist()
    uniq_hash = np.fromiter(
        (stable_hash64(u) if u else -1 for u in uniq), np.int64, len(uniq))
    ids_all = uniq_hash[codes] if codes.size else np.empty(0, np.int64)

    n = len(toks)
    fps = []
    for i in range(n):
        ids = ids_all[offsets[i]: offsets[i + 1]]
        ids = ids[ids != -1]  # empty-string splits from leading/trailing ws
        fp = winnow_fingerprints(ids, k=k, window=window)
        fps.append((fp >> np.uint64(1)).astype(np.int64))
    return pa.table({
        key_col: t.column(key_col),
        "n_fingerprints": pa.array([f.size for f in fps], pa.int64()),
        "min_fingerprint": pa.array([int(f.min()) if f.size else 0 for f in fps], pa.int64()),
        "fingerprints": pa.array([f.tolist() for f in fps], pa.list_(pa.int64())),
    })


def repetition_stats_batch(t: pa.Table, text_col: str = "text",
                           key_col: str = "doc_id") -> pa.Table:
    """Within-document repetition metrics (the Gopher / FineWeb quality
    rules: heavily repetitive documents are low-quality or boilerplate):

    * ``dup_word_frac``  = (n_words − n_distinct_words) / n_words
    * ``top_bigram_frac`` = occurrences of the most frequent word bigram
      / total bigrams

    Tokens are lowercased ``\\S+`` runs. Fully vectorized: one Arrow
    split + dictionary-encode per batch, per-row distinct/bigram counts
    via packed ``np.unique`` and a segment-max ``reduceat`` — no Python
    loop over rows or words. Ratios divide identical integers on both
    engines, so the DuckDB oracle is bit-exact."""
    col = t.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(col, "")), r"\s+")
    offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.values.slice(offsets[0], offsets[-1] - offsets[0])
    offsets = offsets - offsets[0]
    n = t.num_rows
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))

    n_words = np.zeros(n, dtype=np.int64)
    n_distinct = np.zeros(n, dtype=np.int64)
    n_bigrams = np.zeros(n, dtype=np.int64)
    top_big = np.zeros(n, dtype=np.int64)
    if len(flat):
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        word_ok = pc.utf8_length(enc.dictionary).to_numpy(zero_copy_only=False) > 0
        keep = word_ok[codes]
        rows_f, codes_f = rows[keep], codes[keep]
        K = np.int64(max(int(codes_f.max()) + 1, 1)) if codes_f.size else np.int64(1)
        n_words = np.bincount(rows_f, minlength=n).astype(np.int64)
        uniq_rc = np.unique(rows_f * K + codes_f)
        n_distinct = np.bincount(uniq_rc // K, minlength=n).astype(np.int64)
        # adjacent same-row token pairs
        if rows_f.size > 1:
            adj = rows_f[1:] == rows_f[:-1]
            brow = rows_f[:-1][adj]
            bid = codes_f[:-1][adj] * K + codes_f[1:][adj]
            n_bigrams = np.bincount(brow, minlength=n).astype(np.int64)
            packed, cnt = np.unique(brow * (K * K) + bid, return_counts=True)
            prow = (packed // (K * K)).astype(np.int64)
            if prow.size:
                seg = np.flatnonzero(np.r_[True, prow[1:] != prow[:-1]])
                top_big[prow[seg]] = np.maximum.reduceat(cnt, seg)
    dup_frac = np.where(n_words > 0, (n_words - n_distinct) / np.maximum(n_words, 1), 0.0)
    big_frac = np.where(n_bigrams > 0, top_big / np.maximum(n_bigrams, 1), 0.0)
    return pa.table({
        key_col: t.column(key_col),
        "n_words": pa.array(n_words),
        "n_distinct_words": pa.array(n_distinct),
        "dup_word_frac": pa.array(dup_frac),
        "n_bigrams": pa.array(n_bigrams),
        "top_bigram_count": pa.array(top_big),
        "top_bigram_frac": pa.array(big_frac),
    })


def repetition_stats(ds: "ray.data.Dataset", **kw) -> "ray.data.Dataset":
    return ds.map_batches(lambda t: repetition_stats_batch(t, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def token_stats(ds: "ray.data.Dataset", **kw) -> "ray.data.Dataset":
    return ds.map_batches(lambda t: token_stats_batch(t, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def quality_scores(ds: "ray.data.Dataset", **kw) -> "ray.data.Dataset":
    return ds.map_batches(lambda t: quality_score_batch(t, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def lang_id(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    return ds.map_batches(lang_id_batch, batch_format="pandas", batch_size=8192)


def fingerprints(ds: "ray.data.Dataset", **kw) -> "ray.data.Dataset":
    return ds.map_batches(lambda t: fingerprint_batch(t, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def winnow_md5_batch(t: pa.Table, text_col: str = "text", key_col: str = "doc_id",
                     k: int = 3, window: int = 4) -> pa.Table:
    """Oracle-checkable winnowing variant: k-gram hashes are md5 hex
    strings (identical in hashlib and DuckDB), fingerprints are the
    distinct window-minima (lexicographic over hex == over digest bytes).
    Windows shorter than ``window`` produce no fingerprint — exactly the
    SQL formulation with list slicing, so documents shorter than
    k+window-1 tokens yield (0, NULL).

    The int64 splitmix path (``fingerprint_batch``) remains the scale
    path; this one exists so the winnowing LOGIC (rolling grams, window
    min, dedup) has an exact cross-engine oracle."""
    import hashlib

    col = t.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks_col = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(col, "")), r"\s+")
    n_fp = []
    min_fp = []
    for row in toks_col.to_pylist():
        toks = [w for w in row if w]
        grams = [hashlib.md5("|".join(toks[i:i + k]).encode()).hexdigest()
                 for i in range(len(toks) - k + 1)]
        mins = [min(grams[i:i + window]) for i in range(len(grams) - window + 1)]
        fps = set(mins)
        n_fp.append(len(fps))
        min_fp.append(min(fps) if fps else None)
    return pa.table({
        key_col: t.column(key_col),
        "n_fingerprints": pa.array(n_fp, pa.int64()),
        "min_fingerprint": pa.array(min_fp, pa.string()),
    })


def winnow_md5(ds: "ray.data.Dataset", **kw) -> "ray.data.Dataset":
    return ds.map_batches(lambda t: winnow_md5_batch(t, **kw),
                          batch_format="pyarrow", zero_copy_batch=True)


def top_tokens(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    k: int = 50,
    num_buckets: int = 32,
) -> pd.DataFrame:
    """Corpus-wide token heavy hitters — EXACT global top-k by count.

    Scale shape: per-batch PARTIAL counts (Arrow utf8_lower +
    split_pattern_regex + value_counts — no Python row loop) collapse each
    batch to its distinct tokens before anything is shuffled; the partials
    then take ONE bounded all-to-all keyed on a token-hash bucket. A
    token's partials all land in the same bucket, so each bucket's
    top-k over its summed counts is globally complete for its tokens and
    the driver merges only ``k × num_buckets`` candidate rows — key
    cardinality (the corpus vocabulary) never concentrates anywhere.

    Tokenization is ``lower → split /[^a-z0-9]+/ → drop empties`` (RE2 on
    both engines), so DuckDB replicates it token-for-token; ties break
    (count DESC, token ASC) for a fully deterministic result.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from whoiswho_ray.stages.agg import group_apply

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t.column(text_col)), "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        values = vc.field("values")
        h = pd.util.hash_pandas_object(
            pd.Series(values.to_pandas()), index=False).to_numpy()
        return pa.table({
            "token": values,
            "cnt": vc.field("counts"),
            "__b": pa.array((h % np.uint64(num_buckets)).astype(np.int64)),
        })

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("token", sort=False)["cnt"].sum().reset_index()
        return s.sort_values(["cnt", "token"], ascending=[False, True],
                             kind="stable").head(k)

    cands = group_apply(ds.map_batches(partial, batch_format="pyarrow",
                                       zero_copy_batch=True),
                        "__b", bucket_topk, batch_format="pandas",
                        num_buckets=num_buckets).to_pandas()
    if cands.empty:  # corpus of empty/null documents
        return pd.DataFrame({"token": pd.Series([], dtype=object),
                             "cnt": pd.Series([], dtype=np.int64)})
    out = cands.sort_values(["cnt", "token"], ascending=[False, True],
                            kind="stable").head(k).reset_index(drop=True)
    out["cnt"] = out["cnt"].astype(np.int64)
    return out[["token", "cnt"]]


def chunk_documents(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    window: int = 128,
    stride: int = 96,
) -> "ray.data.Dataset":
    """Split documents into overlapping fixed-size token windows — the
    training-data packing/chunking step (each chunk ``g`` covers
    whitespace tokens ``[g·stride, g·stride+window)``; ``ceil(n/stride)``
    chunks per document, trailing chunks may be short).

    Fully vectorized flat_map: one Arrow regex split per batch, then pure
    index arithmetic (numpy) + one ``take`` + one ``binary_join`` build
    every chunk string — no Python loop over rows or chunks. Stateless
    and shuffle-free, so it streams at corpus scale; downstream stages
    see a plain (id, chunk_idx, chunk) table.
    """
    if stride <= 0 or window <= 0:
        raise ValueError("window and stride must be positive")

    def chunks(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        text = t.column(text_col)
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        keep = _pc.and_kleene(text.is_valid(),
                              _pc.not_equal(_pc.utf8_trim_whitespace(text), ""))
        keep_np = keep.to_numpy(zero_copy_only=False)
        keep_np = np.asarray(keep_np, dtype=bool) & ~pd.isna(keep_np)
        sub = t.filter(pa.array(keep_np))
        if sub.num_rows == 0:
            return pa.table({id_col: pa.array([], t.column(id_col).type),
                             "chunk_idx": pa.array([], pa.int64()),
                             "chunk": pa.array([], pa.string())})
        toks = _pc.split_pattern_regex(sub.column(text_col), r"\s+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        values = toks.values
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offsets = offsets - offsets[0]
        n = np.diff(offsets)
        c = np.maximum(-(-n // stride), 1)  # ceil, min 1 chunk per doc
        rows = np.repeat(np.arange(sub.num_rows, dtype=np.int64), c)
        cum = np.zeros(c.size + 1, dtype=np.int64)
        np.cumsum(c, out=cum[1:])
        g = np.arange(int(cum[-1]), dtype=np.int64) - np.repeat(cum[:-1], c)
        start = g * stride
        length = np.minimum(window, n[rows] - start)
        out_off = np.zeros(length.size + 1, dtype=np.int64)
        np.cumsum(length, out=out_off[1:])
        flat_idx = (np.repeat(offsets[:-1][rows] + start, length)
                    + np.arange(int(out_off[-1]), dtype=np.int64)
                    - np.repeat(out_off[:-1], length))
        chunk_lists = pa.ListArray.from_arrays(
            pa.array(out_off.astype(np.int32)),
            values.take(pa.array(flat_idx)))
        return pa.table({
            id_col: sub.column(id_col).take(pa.array(rows)),
            "chunk_idx": pa.array(g),
            "chunk": _pc.binary_join(chunk_lists, " "),
        })

    return ds.map_batches(chunks, batch_format="pyarrow", zero_copy_batch=True)


def pack_documents(
    ds: "ray.data.Dataset",
    budget: int,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """Sequence-packing plan: concatenate the corpus in ``id_col`` order
    and cut it into fixed ``budget``-token context windows (the standard
    LLM pre-training packing layout — documents straddle pack boundaries;
    the plan records where each document's tokens land).

    Returns one row per document: ``(id, n_tokens, pack_id, pack_offset,
    pack_id_last)`` where ``pack_id = cum_before // budget`` is the window
    holding the document's FIRST token, ``pack_offset = cum_before %
    budget`` its position inside that window, and ``pack_id_last`` the
    window holding its last token (== pack_id when the document doesn't
    straddle; empty documents stay in pack_id).

    Scale shape: project to (id, n_tokens) FIRST (text never enters the
    wide step), one distributed sample-sort on the id, then the
    zero-shuffle prefix-sum primitive (:func:`agg.with_running_total`) —
    the driver only ever sees one int per block. Token definition is the
    engine-wide ``\\S+`` run (same as :func:`token_stats_batch`), so the
    whole plan is integer-exact against a SQL window-cumsum oracle.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    from whoiswho_ray.stages.agg import with_running_total

    def project(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = pc.fill_null(col, "")
        return pa.table({
            id_col: t.column(id_col),
            "n_tokens": pa.array(_counts(col, r"\S+")),
        })

    slim = ds.map_batches(project, batch_format="pyarrow",
                          zero_copy_batch=True).sort(id_col).materialize()
    packed = with_running_total(slim, "n_tokens", "cum_before")

    def finish(t: pa.Table) -> pa.Table:
        cum = t.column("cum_before").to_numpy(zero_copy_only=False)
        n = t.column("n_tokens").to_numpy(zero_copy_only=False)
        first = cum // budget
        last = np.where(n > 0, (cum + n - 1) // budget, first)
        return pa.table({
            id_col: t.column(id_col),
            "n_tokens": t.column("n_tokens"),
            "pack_id": pa.array(first),
            "pack_offset": pa.array(cum % budget),
            "pack_id_last": pa.array(last),
        })

    return packed.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


# PII scrub patterns (RE2-compatible — identical semantics in Arrow and
# DuckDB, so the scrub is oracle-exact). Order matters: emails before the
# bare-number patterns so the local part is not half-eaten.
PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"(?:\+?\d{1,2}[ .-])?(?:\(\d{3}\) ?|\b\d{3}[ .-]?)\d{3}[ .-]?\d{4}\b", "<PHONE>"),
    (r"\b(?:\d[ -]?){13,16}\b", "<CARD>"),
    (r"\b\d{3}-\d{2}-\d{4}\b", "<SSN>"),
]


def redact_pii(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    patterns: list[tuple[str, str]] | None = None,
) -> "ray.data.Dataset":
    """Regex PII scrub — the standard pre-training hygiene pass (emails,
    phone numbers, card-like digit runs, SSNs → typed placeholders).

    One Arrow ``replace_substring_regex`` kernel per pattern per batch —
    compiled RE2, no Python row loop, stateless map with zero shuffles.
    Adds ``n_redactions`` (count of placeholders inserted) so downstream
    filters can drop PII-dense documents instead of keeping scrubbed
    husks.
    """
    pats = PII_PATTERNS if patterns is None else patterns

    def scrub(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        before = pc.utf8_length(pc.coalesce(col, pa.scalar("")))
        out = col
        total = None
        for rx, repl in pats:
            counted = pc.count_substring_regex(
                pc.coalesce(out, pa.scalar("")), rx)
            total = counted if total is None else pc.add(total, counted)
            out = pc.replace_substring_regex(out, rx, repl)
        i = t.schema.get_field_index(text_col)
        return (t.set_column(i, text_col, out)
                 .append_column("n_redactions",
                                pc.cast(total, pa.int64())))

    return ds.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)


def _index_pairs(id_col: str, text_col: str, positions: bool = False):
    """Per-batch (token, __id) explode: lower → split /[^a-z0-9]+/ → drop
    empties → distinct per document. One Arrow split + numpy kernels, no
    row loop. Each document lives in exactly one input row, so per-batch
    distinct (token, __id) pairs are globally distinct — a plain count of
    pair rows per token IS the document frequency. With
    ``positions=True`` each pair also carries the token's 0-based
    within-document position list (over the non-empty token sequence) —
    the positional-index payload for phrase search."""

    def pairs(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t.column(text_col)), "[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.values.to_numpy(zero_copy_only=False)
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offsets = offsets - offsets[0]
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        row = np.repeat(np.arange(t.num_rows), np.diff(offsets))
        keep = flat != ""
        flat, row = flat[keep], row[keep]
        if not positions:
            # distinct (token, doc) pairs + within-doc term frequency
            # (tf rides along for BM25; df = count of pair rows)
            uniq = (pd.DataFrame({"token": flat, "__id": ids[row]})
                    .groupby(["token", "__id"], sort=False)
                    .size().rename("tf").reset_index())
            return pa.table({
                "token": pa.array(uniq["token"].to_numpy(), pa.string()),
                "__id": pa.array(uniq["__id"].to_numpy()),
                "tf": pa.array(uniq["tf"].to_numpy(np.int64), pa.int64())})
        # position within the KEPT (non-empty) token sequence of the row
        kept_per_row = np.bincount(row, minlength=t.num_rows) \
            if row.size else np.zeros(t.num_rows, np.int64)
        starts = np.zeros(t.num_rows + 1, np.int64)
        np.cumsum(kept_per_row, out=starts[1:])
        pos = (np.arange(row.size, dtype=np.int64)
               - np.repeat(starts[:-1], kept_per_row))
        # group (token, row): lexsort then list-array from boundaries
        order = np.lexsort((pos, row, flat))
        f_s, r_s, p_s = flat[order], row[order], pos[order]
        if f_s.size:
            new = np.r_[True, (f_s[1:] != f_s[:-1]) | (r_s[1:] != r_s[:-1])]
        else:
            new = np.zeros(0, bool)
        bounds = np.flatnonzero(np.r_[new, True])
        g_start = bounds[:-1] if f_s.size else np.zeros(0, np.int64)
        g_len = np.diff(bounds) if f_s.size else np.zeros(0, np.int64)
        pos_lists = pa.ListArray.from_arrays(
            pa.array(np.r_[0, np.cumsum(g_len)], pa.int32()),
            pa.array(p_s, pa.int64()))
        return pa.table({
            "token": pa.array(f_s[g_start], pa.string()),
            "__id": pa.array(ids[r_s[g_start]]),
            "tf": pa.array(g_len, pa.int64()),
            "positions": pos_lists})

    return pairs


def _posting(g: pa.Table) -> pa.Table:
    ids = g.column("__id").to_numpy(zero_copy_only=False)
    order = np.argsort(ids, kind="stable")  # ids are pair-distinct
    ids = ids[order]
    out = {
        "token": g.column("token").slice(0, 1),
        "postings": pa.array([ids.tolist()]),
        "df": pa.array([ids.size], pa.int64()),
    }
    if "tf" in g.column_names:  # tf list aligned with the sorted postings
        tf = g.column("tf").to_numpy(zero_copy_only=False)[order]
        out["tfs"] = pa.array([tf.tolist()])
    if "positions" in g.column_names:  # per-doc position lists, aligned
        plists = g.column("positions")
        if isinstance(plists, pa.ChunkedArray):
            plists = plists.combine_chunks()
        # vectorized list reorder (ADVICE r4: the per-element as_py() loop
        # was O(df) Python objects per token): gather the flat values with
        # one fancy-index built from old group starts vs new offsets
        off = plists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        off = off - off[0]
        vals = plists.flatten().to_numpy(zero_copy_only=False)
        lens = np.diff(off)
        new_lens = lens[order]
        new_off = np.r_[0, np.cumsum(new_lens)]
        idx = (np.arange(int(new_off[-1]), dtype=np.int64)
               + np.repeat(off[:-1][order] - new_off[:-1], new_lens))
        inner = pa.ListArray.from_arrays(
            pa.array(new_off, pa.int32()), pa.array(vals[idx], pa.int64()))
        out["positions"] = pa.ListArray.from_arrays(
            pa.array([0, len(order)], pa.int32()), inner)
    return pa.table(out)


def _drop_hot_tokens(exploded: "ray.data.Dataset", max_df: int):
    """Find tokens with document frequency above ``max_df`` (bounded: at
    most total_pairs/max_df of them can exist) and filter their pair rows
    out BEFORE the posting shuffle — a stop-word's corpus-sized posting
    row must never be assembled in any task. Returns (filtered_exploded,
    dropped_df_frame)."""
    import ray

    from whoiswho_ray.stages.agg import grouped_agg
    from whoiswho_ray.stages.joins import _cached_get

    dfc = grouped_agg(exploded, "token", {"df": (None, "count")},
                      final="shuffle")
    hot = dfc.map_batches(lambda d: d[d["df"] > max_df],
                          batch_format="pandas").to_pandas()
    if not len(hot):
        return exploded, hot
    # the Arrow value_set is built once here, not per batch (ADVICE r3)
    hot_ref = ray.put(pa.array(sorted(hot["token"])))

    def drop_hot(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.is_in(t.column("token"),
                                           value_set=_cached_get(hot_ref))))

    return (exploded.map_batches(drop_hot, batch_format="pyarrow", zero_copy_batch=True),
            hot)


def build_inverted_index(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    num_buckets: int | None = None,
    max_df: int | None = None,
) -> "ray.data.Dataset":
    """Token → sorted posting list over the corpus (the text-retrieval
    index build), as a Dataset of (token, postings, df) rows.

    The ONE all-to-all is the token-hash bucketed `group_apply`, so a
    token's postings concentrate in exactly one task and the output is
    one row per token. ``max_df`` caps document frequency: over-cap
    tokens (stop words) are counted first with a pre-aggregated shuffle
    and their pair rows are filtered BEFORE the posting shuffle, so no
    task ever assembles a corpus-sized posting row; the drop is logged.
    For a persistent, partition-prunable index use :func:`index_build` —
    this in-memory variant is for small/mid corpora and oracle tests.
    """
    from whoiswho_ray.stages.agg import group_apply

    exploded = ds.select_columns([id_col, text_col]).map_batches(
        _index_pairs(id_col, text_col), batch_format="pyarrow",
        zero_copy_batch=True)
    if max_df is not None:
        exploded, dropped = _drop_hot_tokens(exploded, max_df)
        if len(dropped):
            import logging

            logging.getLogger(__name__).warning(
                "build_inverted_index: dropped %d tokens with df > %d "
                "(max df seen: %d)", len(dropped), max_df,
                int(dropped["df"].max()))
    return group_apply(exploded, "token", _posting, batch_format="pyarrow",
                       num_buckets=num_buckets)


def _token_bucket(tokens, num_buckets: int) -> np.ndarray:
    """Deterministic token → hive-bucket assignment (stable across
    processes: pandas siphash with its fixed default key)."""
    h = pd.util.hash_pandas_object(pd.Series(list(tokens), dtype=object),
                                   index=False).to_numpy()
    return (h % np.uint64(num_buckets)).astype(np.int64)


def index_build(
    ds: "ray.data.Dataset",
    index_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_df: int | None = None,
    num_buckets: int = 32,
    positions: bool = False,
    group_col: str | None = None,
) -> dict:
    """Persistent inverted index: hive-partitioned Parquet posting lists
    (``data/bucket=N/``) + ``dropped.parquet`` (over-cap tokens with
    their true df — nothing is silently truncated) + ``meta.json``.

    The ``ivf_build`` pattern (similarity_search.py) applied to text: a
    query later reads ONLY its terms' bucket partitions. ``max_df``
    bounds every posting row — over-cap tokens are detected with one
    pre-aggregated count shuffle and removed from the pair stream before
    postings are assembled, so the index build is safe on a stop-word-
    laden corpus of any size (the dropped-token set is bounded by
    total_pairs/max_df, never corpus-sized).

    ``group_col`` (VERDICT r4 #6, per-language retrieval): each doc's
    group (stringified) rides the doclens table, and ``meta.json``
    records per-group corpus stats ``{group: [n_docs, sum_dl]}``
    (O(groups), one pre-aggregated pass over the written doclens) —
    :func:`bm25_search_grouped` then scores with idf/avgdl WITHIN each
    group partition. Postings are unchanged (doc ids are global), so
    the same index serves both plain and grouped search.
    """
    import json
    import os

    import pyarrow.parquet as pq

    os.makedirs(index_dir, exist_ok=True)
    dropped_n = 0
    exploded = ds.select_columns([id_col, text_col]).map_batches(
        _index_pairs(id_col, text_col, positions=positions),
        batch_format="pyarrow", zero_copy_batch=True)
    if max_df is not None:
        exploded, dropped = _drop_hot_tokens(exploded, max_df)
        dropped_n = len(dropped)
        os.makedirs(index_dir, exist_ok=True)
        pq.write_table(
            pa.Table.from_pandas(
                dropped if dropped_n else
                pd.DataFrame({"token": pd.Series([], dtype=object),
                              "df": pd.Series([], dtype=np.int64)}),
                preserve_index=False),
            os.path.join(index_dir, "dropped.parquet"))

    from whoiswho_ray.stages.agg import group_apply

    index = group_apply(exploded, "token", _posting, batch_format="pyarrow")

    def add_bucket(t: pa.Table) -> pa.Table:
        b = _token_bucket(t.column("token").to_pylist(), num_buckets)
        return t.append_column("bucket", pa.array(b, pa.int64()))

    data_dir = os.path.join(index_dir, "data")
    index.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
        data_dir, partition_cols=["bucket"])

    # document lengths (total non-empty tokens, duplicates included) —
    # the BM25 dl; one extra streaming pass, written beside the postings
    def doclen(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t.column(text_col)), "[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.values.to_numpy(zero_copy_only=False)
        offsets = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offsets = offsets - offsets[0]
        row = np.repeat(np.arange(t.num_rows), np.diff(offsets))
        nonempty = np.bincount(row[flat != ""],
                               minlength=t.num_rows).astype(np.int64)
        cols = {"doc_id": t.column(id_col),
                "dl": pa.array(nonempty, pa.int64())}
        if group_col is not None:
            cols["group"] = pc.cast(t.column(group_col), pa.string())
        return pa.table(cols)

    import ray.data as rd

    doclen_in = [id_col, text_col] + ([group_col] if group_col else [])
    doclens_dir = os.path.join(index_dir, "doclens")
    ds.select_columns(doclen_in).map_batches(
        doclen, batch_format="pyarrow",
        zero_copy_batch=True).write_parquet(doclens_dir)
    # totals from the WRITTEN files (re-consuming the lineage would
    # re-run the tokenization); two int64 partials per block
    totals = rd.read_parquet(doclens_dir, columns=["dl"]).map_batches(
        lambda df: pd.DataFrame({"n": [np.int64(len(df))],
                                 "s": [df["dl"].sum()]}),
        batch_format="pandas").to_pandas()
    meta = {"num_buckets": num_buckets, "max_df": max_df,
            "dropped_tokens": int(dropped_n),
            "id_col": id_col, "text_col": text_col,
            "positions": bool(positions),
            "n_docs": int(totals["n"].sum()),
            "sum_dl": int(totals["s"].sum())}
    if group_col is not None:
        from whoiswho_ray.stages.agg import grouped_agg

        gstats = grouped_agg(
            rd.read_parquet(doclens_dir, columns=["dl", "group"]),
            "group", {"n_docs": (None, "count"), "sum_dl": ("dl", "sum")})
        meta["group_col"] = group_col
        meta["groups"] = {str(r["group"]): [int(r["n_docs"]),
                                            int(r["sum_dl"])]
                          for _, r in gstats.iterrows()}
    with open(os.path.join(index_dir, "meta.json"), "w") as f:
        json.dump(meta, f)
    return meta


def bm25_search(
    index_dir: str,
    terms: list[str],
    topk: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
    id_type=None,
    min_rank_margin: float = 0.0,
) -> pd.DataFrame:
    """BM25-ranked DISJUNCTIVE retrieval over an :func:`index_build`
    index (Robertson & Walker; the Lucene idf variant):
    ``score = Σ_t idf_t · tf·(k1+1) / (tf + k1·(1−b+b·dl/avgdl))`` with
    ``idf_t = ln(1 + (N−df+0.5)/(df+0.5))``. Returns the top-``topk``
    docs as ``(rank, doc_id, score)`` ordered by (score desc, doc_id
    asc).

    Scale shape: partition-pruned posting reads (only the query terms'
    buckets, ≤ len(terms) rows, each df-bounded when the index was built
    with ``max_df`` — BM25 over an uncapped stop word is a corpus scan
    and should be capped at build time); candidate doc lengths fetched
    with ONE streaming pass over ``doclens/`` against a broadcast
    candidate-id set (no shuffle); scoring is a driver-side float64 pass
    over the bounded candidate set, terms accumulated in sorted-term
    order so the expression is deterministic.

    ``min_rank_margin``: if > 0, raise unless the relative score gap at
    the topk boundary exceeds it — makes rank-only comparisons against
    another engine loud instead of silently ulp-dependent (ln differs by
    1 ulp between libm implementations).
    """
    import json
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    n_docs, sum_dl = int(meta["n_docs"]), int(meta["sum_dl"])
    avgdl = float(sum_dl) / float(n_docs)
    tset = sorted(set(terms))
    empty = pd.DataFrame({
        "rank": pd.Series([], dtype=np.int64),
        "doc_id": pd.Series([], dtype="int64" if id_type is None
                            else id_type),
        "score": pd.Series([], dtype=np.float64)})
    dropped_path = os.path.join(index_dir, "dropped.parquet")
    if os.path.exists(dropped_path):
        dropped = set(pq.read_table(
            dropped_path,
            filters=[("token", "in", tset)]).column("token").to_pylist())
        tset = [t for t in tset if t not in dropped]
    if not tset:
        return empty

    data_dir = os.path.join(index_dir, "data")
    want = set(_token_bucket(tset, meta["num_buckets"]).tolist())
    paths = [os.path.join(data_dir, f"bucket={bk}", f)
             for bk in sorted(want)
             if os.path.isdir(os.path.join(data_dir, f"bucket={bk}"))
             for f in sorted(os.listdir(os.path.join(data_dir,
                                                     f"bucket={bk}")))
             if f.endswith(".parquet")]
    if not paths:
        return empty
    rows = (rd.read_parquet(paths, columns=["token", "postings", "tfs",
                                            "df"])
            .map_batches(lambda df: df[df["token"].isin(tset)],
                         batch_format="pandas").to_pandas())
    if not len(rows):
        return empty
    rows = rows.set_index("token")

    # candidate union + per-term tf aligned by searchsorted
    post = {t: np.asarray(rows.loc[t, "postings"]) for t in rows.index}
    tfs = {t: np.asarray(rows.loc[t, "tfs"], dtype=np.int64)
           for t in rows.index}
    cand = np.unique(np.concatenate(list(post.values())))

    # ONE streaming pass over doclens against the broadcast candidates
    cand_ref = ray.put(cand)

    def pick_dl(df: pd.DataFrame) -> pd.DataFrame:
        from whoiswho_ray.stages.joins import _cached_get
        c = _cached_get(cand_ref)
        return df[df["doc_id"].isin(c)]

    dl_df = (rd.read_parquet(os.path.join(index_dir, "doclens"))
             .map_batches(pick_dl, batch_format="pandas")
             .to_pandas().set_index("doc_id"))
    dl = dl_df.loc[cand, "dl"].to_numpy(np.float64)

    scores = np.zeros(cand.size, np.float64)
    norm = k1 * (1.0 - b + b * dl / avgdl)
    for t in sorted(post):  # deterministic accumulation order
        df_t = float(len(post[t]))
        idf = float(np.log(1.0 + (n_docs - df_t + 0.5) / (df_t + 0.5)))
        pos = np.searchsorted(cand, post[t])
        tf = tfs[t].astype(np.float64)
        scores[pos] += idf * (tf * (k1 + 1.0)) / (tf + norm[pos])

    order = np.lexsort((cand, -scores))
    top = order[:topk]
    if min_rank_margin > 0:
        # every adjacent gap among top k+1 must be an EXACT tie (broken
        # by doc_id identically in any engine) or exceed the margin —
        # otherwise a 1-ulp ln() difference could reorder ranks
        edge = scores[order[:min(topk + 1, order.size)]]
        gaps = edge[:-1] - edge[1:]
        bad = (gaps > 0) & (gaps <= min_rank_margin
                            * np.maximum(np.abs(edge[:-1]), 1e-300))
        if bad.any():
            raise ValueError(
                f"bm25_search: {int(bad.sum())} adjacent top-k score "
                f"gap(s) below min_rank_margin (min "
                f"{gaps[bad].min():.3e}) — rank comparison would be "
                f"ulp-dependent; choose different terms/topk")
    return pd.DataFrame({
        "rank": np.arange(1, top.size + 1, dtype=np.int64),
        "doc_id": cand[top],
        "score": scores[top]})


def bm25_search_grouped(
    index_dir: str,
    terms: list[str],
    topk: int = 5,
    k1: float = 1.2,
    b: float = 0.75,
    id_type=None,
    min_rank_margin: float = 0.0,
) -> pd.DataFrame:
    """Per-GROUP BM25 retrieval over an :func:`index_build` index built
    with ``group_col`` (VERDICT r4 #6 — per-language ranked retrieval):
    each group is its own corpus — ``N``, ``avgdl`` and every term's
    ``df`` are computed WITHIN the group — and the top-``topk`` docs per
    group are returned as ``(group, rank, doc_id, score)`` ordered by
    (group asc, score desc, doc_id asc).

    Scale shape matches :func:`bm25_search`: partition-pruned posting
    reads, one streaming doclens pass against broadcast candidates (now
    also carrying each candidate's group), driver-side float64 scoring
    over the bounded candidate set. Per-group df comes free from the
    posting lists (a term's postings are complete, and every posted doc
    is a candidate, so a bincount over candidate group codes is exact).
    Terms accumulate in sorted order; the ``min_rank_margin`` guard runs
    per group.
    """
    import json
    import os

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    if not meta.get("group_col"):
        raise ValueError("bm25_search_grouped needs an index built with "
                         "group_col=...")
    gstats = meta["groups"]
    tset = sorted(set(terms))
    empty = pd.DataFrame({
        "group": pd.Series([], dtype=object),
        "rank": pd.Series([], dtype=np.int64),
        "doc_id": pd.Series([], dtype="int64" if id_type is None
                            else id_type),
        "score": pd.Series([], dtype=np.float64)})
    dropped_path = os.path.join(index_dir, "dropped.parquet")
    if os.path.exists(dropped_path):
        dropped = set(pq.read_table(
            dropped_path,
            filters=[("token", "in", tset)]).column("token").to_pylist())
        tset = [t for t in tset if t not in dropped]
    if not tset:
        return empty

    data_dir = os.path.join(index_dir, "data")
    want = set(_token_bucket(tset, meta["num_buckets"]).tolist())
    paths = [os.path.join(data_dir, f"bucket={bk}", f)
             for bk in sorted(want)
             if os.path.isdir(os.path.join(data_dir, f"bucket={bk}"))
             for f in sorted(os.listdir(os.path.join(data_dir,
                                                     f"bucket={bk}")))
             if f.endswith(".parquet")]
    if not paths:
        return empty
    rows = (rd.read_parquet(paths, columns=["token", "postings", "tfs"])
            .map_batches(lambda df: df[df["token"].isin(tset)],
                         batch_format="pandas").to_pandas())
    if not len(rows):
        return empty
    rows = rows.set_index("token")
    post = {t: np.asarray(rows.loc[t, "postings"]) for t in rows.index}
    tfs = {t: np.asarray(rows.loc[t, "tfs"], dtype=np.int64)
           for t in rows.index}
    cand = np.unique(np.concatenate(list(post.values())))

    cand_ref = ray.put(cand)

    def pick_dl(df: pd.DataFrame) -> pd.DataFrame:
        from whoiswho_ray.stages.joins import _cached_get
        return df[df["doc_id"].isin(_cached_get(cand_ref))]

    dl_df = (rd.read_parquet(os.path.join(index_dir, "doclens"))
             .map_batches(pick_dl, batch_format="pandas")
             .to_pandas().set_index("doc_id"))
    dl = dl_df.loc[cand, "dl"].to_numpy(np.float64)
    grp = dl_df.loc[cand, "group"].to_numpy()
    ug, gcode = np.unique(grp, return_inverse=True)
    n_g = np.array([float(gstats[str(g)][0]) for g in ug], np.float64)
    avgdl_g = np.array([float(gstats[str(g)][1]) / float(gstats[str(g)][0])
                        for g in ug], np.float64)

    scores = np.zeros(cand.size, np.float64)
    norm = k1 * (1.0 - b + b * dl / avgdl_g[gcode])
    for t in sorted(post):  # deterministic accumulation order
        pos = np.searchsorted(cand, post[t])
        tgc = gcode[pos]
        df_t_g = np.bincount(tgc, minlength=ug.size).astype(np.float64)
        idf_g = np.log(1.0 + (n_g - df_t_g + 0.5) / (df_t_g + 0.5))
        tf = tfs[t].astype(np.float64)
        scores[pos] += idf_g[tgc] * (tf * (k1 + 1.0)) / (tf + norm[pos])

    order = np.lexsort((cand, -scores, gcode))
    gs = gcode[order]
    seg = np.r_[0, np.flatnonzero(gs[1:] != gs[:-1]) + 1]
    seg_len = np.diff(np.r_[seg, gs.size])
    rank = (np.arange(gs.size, dtype=np.int64)
            - np.repeat(seg, seg_len) + 1)
    if min_rank_margin > 0:
        inspect = rank <= topk + 1
        e = scores[order]
        same_g = np.r_[gs[1:] == gs[:-1], False]
        gaps = np.r_[e[:-1] - e[1:], 0.0]
        bad = (inspect & same_g & np.r_[inspect[1:], False]
               & (gaps > 0)
               & (gaps <= min_rank_margin
                  * np.maximum(np.abs(e), 1e-300)))
        if bad.any():
            raise ValueError(
                f"bm25_search_grouped: {int(bad.sum())} adjacent "
                f"top-k score gap(s) below min_rank_margin — rank "
                f"comparison would be ulp-dependent; choose different "
                f"terms/topk")
    keep = rank <= topk
    ko = order[keep]
    return pd.DataFrame({
        "group": ug[gcode[ko]],
        "rank": rank[keep],
        "doc_id": cand[ko],
        "score": scores[ko]})


def phrase_search(
    index_dir: str,
    phrase: list[str],
    id_type=None,
) -> pd.DataFrame:
    """Exact PHRASE search over a POSITIONAL :func:`index_build` index
    (``positions=True``): documents containing the given tokens
    consecutively, in order. Positions are 0-based over the non-empty
    token sequence, so punctuation between words breaks a phrase exactly
    as the tokenizer sees it.

    Scale shape: partition-pruned posting reads (≤ len(phrase) rows);
    the adjacency check is ONE vectorized ``np.intersect1d`` chain over
    composite ``doc·M + pos`` keys (M > any document length, from the
    index's own max dl) — a phrase start survives term i iff
    ``start+i`` is in term i's position set, and the composite keys make
    that a flat set intersection across ALL candidate docs at once, no
    per-doc loop. Terms dropped at build time (max_df) make a phrase
    unanswerable — that raises, loudly, rather than returning a
    best-effort superset.
    """
    import json
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    if not meta.get("positions"):
        raise ValueError("phrase_search needs an index built with "
                         "positions=True")
    empty = pd.DataFrame({"doc_id": pd.Series(
        [], dtype="int64" if id_type is None else id_type)})
    if not phrase:
        return empty
    dropped_path = os.path.join(index_dir, "dropped.parquet")
    if os.path.exists(dropped_path):
        dropped = set(pq.read_table(
            dropped_path,
            filters=[("token", "in", sorted(set(phrase)))]
        ).column("token").to_pylist())
        if dropped:
            raise ValueError(
                f"phrase_search: phrase terms {sorted(dropped)} were "
                f"dropped at build time (max_df) — the phrase cannot be "
                f"answered exactly from this index")

    data_dir = os.path.join(index_dir, "data")
    tset = sorted(set(phrase))
    want = set(_token_bucket(tset, meta["num_buckets"]).tolist())
    paths = [os.path.join(data_dir, f"bucket={bk}", f)
             for bk in sorted(want)
             if os.path.isdir(os.path.join(data_dir, f"bucket={bk}"))
             for f in sorted(os.listdir(os.path.join(data_dir,
                                                     f"bucket={bk}")))
             if f.endswith(".parquet")]
    if not paths:
        return empty
    rows = (rd.read_parquet(paths, columns=["token", "postings",
                                            "positions"])
            .map_batches(lambda df: df[df["token"].isin(tset)],
                         batch_format="pandas").to_pandas())
    if len(rows) == 0 or "token" not in rows.columns \
            or set(rows["token"]) != set(tset):
        return empty  # some phrase term absent from the corpus
    rows = rows.set_index("token")
    probe = np.asarray(rows["postings"].iloc[0])
    if probe.dtype.kind not in "iu":
        # the composite doc·M+pos key math below is integer-only; a string
        # doc-id index would otherwise die in an opaque numpy cast (ADVICE
        # r4) — factorize ids at ingest or index with integer ids
        raise TypeError(
            f"phrase_search requires integer doc ids in the index "
            f"(got postings dtype {probe.dtype}); factorize string ids "
            f"before index_build")

    def flat_keys(term: str, m: np.int64) -> np.ndarray:
        posts = np.asarray(rows.loc[term, "postings"], dtype=np.int64)
        plists = rows.loc[term, "positions"]
        lens = np.fromiter((len(x) for x in plists), np.int64,
                           len(plists))
        docs = np.repeat(posts, lens)
        pos = (np.concatenate([np.asarray(x, np.int64) for x in plists])
               if len(plists) else np.empty(0, np.int64))
        return docs * m + pos

    # M > max position anywhere: the index's own max dl bound
    dl_max = int(rd.read_parquet(
        os.path.join(index_dir, "doclens"), columns=["dl"]).max("dl")
        or 0)
    m = np.int64(dl_max + len(phrase) + 2)
    cur = flat_keys(phrase[0], m)
    for i, term in enumerate(phrase[1:], start=1):
        if cur.size == 0:
            return empty
        cur = np.intersect1d(cur + 1, flat_keys(term, m),
                             assume_unique=False)
    if cur.size == 0:
        return empty
    docs = np.unique(cur // m)
    col = pd.Series(np.sort(docs), dtype="int64" if id_type is None
                    else id_type)
    return pd.DataFrame({"doc_id": col})


def _intersect_smallest_first(required_n: int, id_type=None):
    """In-task conjunctive intersection over matched posting rows,
    smallest df first (each later intersect shrinks against the smallest
    running set). Runs inside ONE Ray task over the <= n_terms matched
    rows — posting lists never land on the driver; only the final id set
    does."""

    def f(t: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array(
            [], pa.int64() if id_type is None else id_type)})
        if t.num_rows < required_n or t.num_rows == 0:
            return empty
        order = np.argsort(t.column("df").to_numpy(zero_copy_only=False),
                           kind="stable")
        posts = t.column("postings")
        if isinstance(posts, pa.ChunkedArray):
            posts = posts.combine_chunks()
        ids = None
        for i in order:
            arr = np.asarray(posts[int(i)].as_py())
            ids = arr if ids is None else np.intersect1d(
                ids, arr, assume_unique=True)
            if ids.size == 0:
                break
        return pa.table({"doc_id": pa.array(np.sort(ids))})

    return f


def search_all_terms(
    index: "ray.data.Dataset",
    terms: list[str],
    id_type=None,
) -> pd.DataFrame:
    """Conjunctive (AND) term search against an in-memory posting-list
    index Dataset: filter the index to the query's terms (tiny — one row
    per term), intersect smallest-df-first INSIDE one Ray task, collect
    only the final id column. Missing terms ⇒ empty result."""
    tset = list(set(terms))
    col = pd.Series([], dtype="int64" if id_type is None else id_type)
    if not tset:  # empty conjunction: defined as no matches (ADVICE r2)
        return pd.DataFrame({"doc_id": col})
    hits = index.map_batches(
        lambda df: df[df["token"].isin(tset)], batch_format="pandas")
    out = hits.repartition(1).map_batches(
        _intersect_smallest_first(len(tset), id_type),
        batch_format="pyarrow", batch_size=None).to_pandas()
    if not len(out):
        return pd.DataFrame({"doc_id": col})
    return out


def index_search(
    index_dir: str,
    terms: list[str],
    id_type=None,
    pruned_terms: str = "ignore",
) -> pd.DataFrame:
    """Search a persistent :func:`index_build` index: read ONLY the
    bucket partitions holding the query's terms (partition pruning à la
    ``ivf_search``), intersect smallest-df-first inside one Ray task.

    ``pruned_terms``: over-cap tokens were dropped at build time
    (recorded in ``dropped.parquet``); ``"ignore"`` treats them like a
    search engine treats stop words (removed from the query — they would
    match nearly everything), ``"empty"`` returns no results if the
    query names one. A term absent from the corpus entirely always
    yields the empty result.
    """
    import json
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    col = pd.Series([], dtype="int64" if id_type is None else id_type)
    empty = pd.DataFrame({"doc_id": col})
    tset = sorted(set(terms))
    if not tset:
        return empty

    dropped_path = os.path.join(index_dir, "dropped.parquet")
    if os.path.exists(dropped_path):
        dropped = pq.read_table(
            dropped_path,
            filters=[("token", "in", tset)]).column("token").to_pylist()
        if dropped:
            if pruned_terms == "empty":
                return empty
            tset = [t for t in tset if t not in set(dropped)]
            if not tset:
                # every term was a pruned stop word: refuse to dump the
                # corpus — callers wanting "all docs" should scan directly
                return empty

    data_dir = os.path.join(index_dir, "data")
    want = set(_token_bucket(tset, meta["num_buckets"]).tolist())
    paths = [os.path.join(data_dir, f"bucket={b}", f)
             for b in sorted(want)
             if os.path.isdir(os.path.join(data_dir, f"bucket={b}"))
             for f in sorted(os.listdir(os.path.join(data_dir, f"bucket={b}")))
             if f.endswith(".parquet")]
    if not paths:
        return empty
    hits = rd.read_parquet(paths, columns=["token", "postings", "df"]).map_batches(
        lambda df: df[df["token"].isin(tset)], batch_format="pandas")
    out = hits.repartition(1).map_batches(
        _intersect_smallest_first(len(tset), id_type),
        batch_format="pyarrow", batch_size=None).to_pandas()
    return out if len(out) else empty


def index_scan_rows(index_dir: str, terms: list[str] | None = None) -> dict:
    """Scan-volume accounting for a persistent index (mirrors
    ``ivf_scan_rows``): posting rows per bucket partition from parquet
    metadata — no data read — plus the subtotal a query for ``terms``
    would scan."""
    import json
    import os

    import pyarrow.parquet as pq

    with open(os.path.join(index_dir, "meta.json")) as f:
        meta = json.load(f)
    data_dir = os.path.join(index_dir, "data")
    rows = {}
    for d in sorted(os.listdir(data_dir)):
        if "=" not in d:
            continue
        b = int(d.split("=")[1])
        sub = os.path.join(data_dir, d)
        rows[b] = sum(pq.ParquetFile(os.path.join(sub, f)).metadata.num_rows
                      for f in os.listdir(sub) if f.endswith(".parquet"))
    probed_buckets = sorted(
        set(_token_bucket(sorted(set(terms)), meta["num_buckets"]).tolist())
    ) if terms else []
    return {"rows_per_bucket": rows, "total_rows": sum(rows.values()),
            "probed_buckets": probed_buckets,
            "probed_rows": sum(rows.get(b, 0) for b in probed_buckets)}


# ---------------------------------------------------------------------------
# Unigram-LM surprisal — the CCNet-style perplexity quality filter
# (Wenzek et al. 2020, "CCNet: Extracting High Quality Monolingual
# Datasets from Web Crawl Data") with the KenLM 5-gram model swapped for
# the corpus's own unigram distribution — the deterministic,
# external-model-free reduction (same sanctioned-swap pattern as the
# engine's other model stages). A document whose tokens are rare in the
# corpus has high mean surprisal; CCNet drops the high-perplexity tail.
# ---------------------------------------------------------------------------


def unigram_surprisal(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    key_col: str = "doc_id",
    tau: float = 10.0,
    num_buckets: int = 32,
) -> "ray.data.Dataset":
    """Per-document mean unigram surprisal + low-quality flag.

    Two passes, both vocabulary-bounded:

    1. corpus token counts — per-batch Arrow ``value_counts`` partials
       (each batch collapses to its distinct tokens before any shuffle),
       one bucketed sum per token-hash bucket; the integer corpus total
       reduces from the count table.
    2. scoring — documents explode to (key, token, occurrences) partials
       (again distinct-per-batch), co-grouped with the count table on the
       token-hash bucket (one Ray group per bucket); inside each bucket
       one vectorized merge computes the partial surprisal sum
       Σ occ·(ln total − ln cnt) per document, and a final small
       ``groupby(key)`` adds the ≤ num_buckets partials per document.

    Tokenization is the corpus rule shared with :func:`top_tokens`
    (``lower → split /[^a-z0-9]+/ → drop empties``), so DuckDB replays it
    token-for-token. Every token of the corpus is in the count table by
    construction (the LM trains on the corpus it scores — no OOV, no
    smoothing needed). Output per document (``key`` is the stringified
    ``key_col``): ``n_tokens`` (int), ``is_low_quality`` = mean
    surprisal > ``tau`` (empty documents score 0 and are never flagged).
    The float mean stays internal (``mean_surprisal`` column) — flag
    comparisons are exact under the usual threshold-margin regime
    (sum-order noise ~1e-14 vs score gaps ≥1e-3)."""
    from whoiswho_ray.stages.agg import group_apply

    def _tok_list(t: pa.Table) -> pa.ListArray:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(t.column(text_col), "")), "[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        return toks

    def count_partial(t: pa.Table) -> pa.Table:
        flat = _tok_list(t).flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        values = vc.field("values")
        h = pd.util.hash_pandas_object(
            pd.Series(values.to_pandas()), index=False).to_numpy()
        return pa.table({
            "token": values,
            "cnt": pa.array(vc.field("counts").to_numpy(
                zero_copy_only=False).astype(np.int64)),
            "__b": pa.array((h % np.uint64(num_buckets)).astype(np.int64)),
        })

    def bucket_sum(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("token", sort=False)["cnt"].sum().reset_index()
        s["cnt"] = s["cnt"].astype(np.int64)
        return s

    partials = ds.map_batches(count_partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    counts = group_apply(partials, "__b", bucket_sum,
                         batch_format="pandas",
                         num_buckets=num_buckets).materialize()
    total = int(counts.sum("cnt") or 0)
    log_total = float(np.log(total)) if total else 0.0

    def doc_partial(t: pa.Table) -> pd.DataFrame:
        toks = _tok_list(t)
        off = np.asarray(toks.offsets)
        flat = toks.flatten().to_pandas().to_numpy(dtype=object)
        keys = np.repeat(
            np.asarray([str(k) for k in t.column(key_col).to_pylist()],
                       dtype=object),
            np.diff(off))
        ok = flat != ""
        df = pd.DataFrame({"__k": keys[ok], "token": flat[ok]})
        if not len(df):
            # typed empty (a pandas object-dtype empty becomes an Arrow
            # null column and poisons the union schema)
            return pa.table({"__k": pa.array([], pa.string()),
                             "token": pa.array([], pa.string()),
                             "occ": pa.array([], pa.int64()),
                             "__b": pa.array([], pa.int64())})
        occ = df.groupby(["__k", "token"], sort=False).size().reset_index(name="occ")
        h = pd.util.hash_pandas_object(occ["token"], index=False).to_numpy()
        occ["__b"] = (h % np.uint64(num_buckets)).astype(np.int64)
        occ["occ"] = occ["occ"].astype(np.int64)
        return occ

    def tag_counts(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df["token"], index=False).to_numpy()
        return pd.DataFrame({"__k": [""] * len(df), "token": df["token"],
                             "occ": (-df["cnt"]).astype(np.int64),
                             "__b": (h % np.uint64(num_buckets)).astype(np.int64)})

    docs = ds.map_batches(doc_partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    tagged = docs.union(counts.map_batches(tag_counts, batch_format="pandas"))

    def bucket_score(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g[g["occ"] < 0]
        occ = g[g["occ"] > 0]
        if not len(occ):
            return pd.DataFrame({"__k": pd.Series([], dtype=object),
                                 "s": pd.Series([], dtype=np.float64),
                                 "n": pd.Series([], dtype=np.int64)})
        m = occ.merge(
            pd.DataFrame({"token": cnt["token"],
                          "cnt": (-cnt["occ"]).astype(np.int64)}),
            on="token", how="left")
        surp = log_total - np.log(m["cnt"].to_numpy(dtype=np.float64))
        m["s"] = m["occ"].to_numpy(dtype=np.float64) * surp
        out = m.groupby("__k", sort=False).agg(
            s=("s", "sum"), n=("occ", "sum")).reset_index()
        out["n"] = out["n"].astype(np.int64)
        return out

    scored = group_apply(tagged, "__b", bucket_score,
                         batch_format="pandas", num_buckets=num_buckets,
                         whole_bucket=True)

    # skeleton (key, 0, 0) per document so token-free documents still
    # appear in the output (score 0, never flagged)
    def skeleton(t: pa.Table) -> pd.DataFrame:
        return pd.DataFrame({
            "__k": [str(k) for k in t.column(key_col).to_pylist()],
            "s": np.zeros(t.num_rows),
            "n": np.zeros(t.num_rows, np.int64),
        })

    scored = scored.union(ds.map_batches(skeleton, batch_format="pyarrow",
                                         zero_copy_batch=True))

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        s = float(g["s"].sum())
        n = int(g["n"].sum())
        mean = s / n if n else 0.0
        return pd.DataFrame({
            "key": [g["__k"].iloc[0]],
            "n_tokens": np.array([n], np.int64),
            "mean_surprisal": [mean],
            "is_low_quality": [bool(n and mean > tau)],
        })

    return group_apply(scored, "__k", finish, batch_format="pandas")


def token_cooccurrence(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    vocab_k: int = 64,
    k: int = 100,
) -> pd.DataFrame:
    """Top-``k`` co-occurring token pairs (market-basket statistics over
    the corpus): a pair counts once per document whose DISTINCT token set
    contains both, restricted to the global top-``vocab_k`` vocabulary so
    per-document pair emission is bounded by C(vocab_k, 2) regardless of
    document length. Deterministic ties: (cnt DESC, tok_a ASC, tok_b ASC),
    pairs canonicalized lexicographically.

    Scale shape: one extra streaming pass for the vocabulary
    (:func:`top_tokens` — bounded driver merge), vocabulary broadcast in
    the task closure (vocab_k strings); then per batch everything is
    Arrow/numpy — split, vocab searchsorted, per-doc unique codes, the
    same offsets-gather pair enumeration the SND block kernel uses, and a
    ``bincount`` over the fixed vocab_k² code space. Partials are ≤
    C(vocab_k, 2) rows per batch, so the finish is a tiny driver-side
    grouped sum — the pair stream itself is never shuffled.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    vocab = top_tokens(ds, text_col, k=vocab_k)["token"].to_numpy(object)
    V = len(vocab)
    if V == 0:
        return pd.DataFrame({"tok_a": pd.Series([], dtype=object),
                             "tok_b": pd.Series([], dtype=object),
                             "cnt": pd.Series([], dtype=np.int64)})
    sorted_vocab = np.sort(vocab)

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t.column(text_col)), "[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = toks.values.to_numpy(zero_copy_only=False)
        lens = np.diff(toks.offsets.to_numpy(zero_copy_only=False))
        doc = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        pos = np.searchsorted(sorted_vocab, flat)
        pos = np.minimum(pos, V - 1)
        hit = sorted_vocab[pos] == flat
        codes = np.unique(doc[hit] * np.int64(V) + pos[hit])
        d, v = codes // V, codes % V
        # per-doc segment lengths -> enumerate (i < j) pairs via the
        # offsets-gather pattern: element at local index j pairs with the
        # j elements before it
        new_doc = np.r_[True, d[1:] != d[:-1]]
        seg_start = np.maximum.accumulate(
            np.where(new_doc, np.arange(codes.size, dtype=np.int64), 0))
        local = np.arange(codes.size, dtype=np.int64) - seg_start
        total = int(local.sum())
        if total == 0:
            return pa.table({"code": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        jj = np.repeat(np.arange(codes.size, dtype=np.int64), local)
        out_off = np.zeros(codes.size + 1, dtype=np.int64)
        np.cumsum(local, out=out_off[1:])
        ii = np.repeat(seg_start, local) + (
            np.arange(total, dtype=np.int64) - np.repeat(out_off[:-1], local))
        pair_code = v[ii] * np.int64(V) + v[jj]  # v[ii] < v[jj]: codes sorted
        counts = np.bincount(pair_code, minlength=V * V)
        nz = np.flatnonzero(counts)
        return pa.table({"code": pa.array(nz.astype(np.int64)),
                         "cnt": pa.array(counts[nz].astype(np.int64))})

    from whoiswho_ray.stages.agg import grouped_agg

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    tot = grouped_agg(partials, "code", {"cnt": ("cnt", "sum")})
    if tot.empty:
        return pd.DataFrame({"tok_a": pd.Series([], dtype=object),
                             "tok_b": pd.Series([], dtype=object),
                             "cnt": pd.Series([], dtype=np.int64)})
    a = sorted_vocab[(tot["code"] // V).to_numpy()]
    b = sorted_vocab[(tot["code"] % V).to_numpy()]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    out = pd.DataFrame({"tok_a": lo, "tok_b": hi,
                        "cnt": tot["cnt"].astype(np.int64)})
    return (out.sort_values(["cnt", "tok_a", "tok_b"],
                            ascending=[False, True, True], kind="stable")
            .head(k).reset_index(drop=True))


def doc_keywords(
    ds: "ray.data.Dataset",
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """Per-document keyword extraction: the top-``k`` tokens of each doc
    by document-frequency-normalized term weight ``score = tf / df``
    (the fixed-N monotone surrogate of TF-IDF — same ranking, no
    engine-dependent log), ties broken by token ascending.

    Returns (doc_id, rank, token, tf, df, score); rank is 1-based and
    dense per doc. score is ONE IEEE double division of exact int64
    counts, so the SQL oracle matches bitwise.

    Scale shape: the (token, doc, tf) explode reuses the inverted-index
    front-end (one Arrow split per batch, per-batch-distinct pairs);
    df is a skinny token-bucketed count; df attaches back with one
    token-hash co-group; the final per-doc top-k is one doc-bucketed
    lexsort + boundary-rank pass — every exchange moves (token, id, int)
    triples, never text.
    """
    from whoiswho_ray.stages.agg import group_apply, grouped_agg
    from whoiswho_ray.stages.joins import shuffle_hash_join

    pairs = ds.map_batches(_index_pairs(id_col, text_col),
                           batch_format="pyarrow", zero_copy_batch=True)
    df_counts = grouped_agg(pairs, "token", {"df": (None, "count")},
                            final="shuffle")
    scored = shuffle_hash_join(
        pairs, df_counts, on="token",
        project=lambda m: pd.DataFrame({
            id_col: m["__id"],
            "token": m["token"],
            "tf": m["tf"].astype(np.int64),
            "df": m["df"].astype(np.int64),
            "score": m["tf"].to_numpy(np.int64).astype(np.float64)
                     / m["df"].to_numpy(np.int64),
        }))

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            g["rank"] = pd.Series([], dtype=np.int64)
            return g[[id_col, "rank", "token", "tf", "df", "score"]]
        order = np.lexsort((g["token"].to_numpy(str),
                            -g["score"].to_numpy(np.float64),
                            g[id_col].to_numpy()))
        g = g.iloc[order].reset_index(drop=True)
        ids = g[id_col].to_numpy()
        new_doc = np.r_[True, ids[1:] != ids[:-1]]
        start = np.maximum.accumulate(
            np.where(new_doc, np.arange(len(g), dtype=np.int64), 0))
        rank = np.arange(len(g), dtype=np.int64) - start + 1
        g["rank"] = rank
        return g[rank <= k][[id_col, "rank", "token", "tf", "df", "score"]]

    return group_apply(scored, id_col, topk, batch_format="pandas",
                       whole_bucket=True)


def ngram_explode(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 5,
) -> "ray.data.Dataset":
    """Explode each document into its adjacent ``n``-token grams as
    strings: tokens are ``lower → split /[^a-z0-9]+/ → drop empties``
    (the corpus-wide tokenizer every text oracle replays), gram =
    space-joined token window. One row per gram OCCURRENCE (a document
    with ``L`` tokens yields ``max(0, L-n+1)`` rows).

    Fully vectorized and shuffle-free: one Arrow regex split per batch,
    empty-token compaction by mask, window validity by comparing the
    flat row-of vector against its ``n-1`` shift (windows never cross a
    document boundary), and ONE ``binary_join_element_wise`` C kernel
    builds every gram string from ``n`` shifted takes — no Python loop.

    SQL replay (DuckDB)::

        WITH ts AS (SELECT id, list_filter(string_split_regex(
                        lower(text), '[^a-z0-9]+'), x -> x <> '') AS t
                    FROM docs)
        SELECT id, array_to_string(t[i:i+n-1], ' ') AS gram
        FROM ts, unnest(range(1, len(t) - n + 2)) AS u(i)
    """
    if n < 1:
        raise ValueError("ngram_explode: n must be >= 1")

    def grams(t: pa.Table) -> pa.Table:
        ids = t.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        text = pc.fill_null(t.column(text_col), "")
        toks = pc.split_pattern_regex(pc.utf8_lower(text), "[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = toks.values.slice(offs[0], offs[-1] - offs[0])
        offs = offs - offs[0]
        row_of = np.repeat(np.arange(t.num_rows, dtype=np.int64),
                           np.diff(offs))
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        keep = np.asarray(keep, dtype=bool)
        flat_k, row_k = flat.filter(pa.array(keep)), row_of[keep]
        m = len(row_k)
        empty = pa.table({id_col: ids.slice(0, 0),
                          "gram": pa.array([], pa.string())})
        if m < n:
            return empty
        # a window starting at flat position i is valid iff its first and
        # last tokens belong to the same document
        valid = row_k[: m - n + 1] == row_k[n - 1:]
        starts = np.flatnonzero(valid)
        if not starts.size:
            return empty
        cols = [flat_k.take(pa.array(starts + j)) for j in range(n)]
        gram = (cols[0] if n == 1
                else pc.binary_join_element_wise(*cols, " "))
        return pa.table({id_col: ids.take(pa.array(row_k[starts])),
                         "gram": gram})

    return ds.select_columns([id_col, text_col]).map_batches(
        grams, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=65536)


def dup_span_stats(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    n: int = 5,
    num_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Duplicated-span detection (the substring-dedup signal of Lee et
    al., "Deduplicating Training Data Makes Language Models Better",
    ACL 2022, at n-token granularity — see PAPERS.md): for every
    document, how many of its ``n``-gram spans also occur in at least
    one OTHER document. Output: ``(id, n_spans, n_dup)`` per document
    with >= 1 span; ``n_dup/n_spans`` is the doc's duplicated fraction,
    the usual filter/penalty signal for training corpora.

    Scale shape — three bounded stages, no gram string ever leaves its
    hash bucket un-aggregated:

    1. gram explode (:func:`ngram_explode`, shuffle-free) is collapsed
       per (gram, id) with occurrence counts BEFORE any exchange
       (``grouped_agg`` partials), so the one gram-keyed shuffle moves
       at most corpus-distinct (gram, id) rows;
    2. one ``group_apply`` whole-bucket pass over the gram key flags
       grams seen in >= 2 distinct docs (run-length over the key-sorted
       bucket — vectorized, no per-gram task);
    3. per-doc totals via one id-keyed bucketed aggregate.

    A stop-gram shared by every document concentrates only its
    (gram, id) COUNT rows (bounded by corpus doc count), never its
    occurrence stream.
    """
    from whoiswho_ray.stages.agg import group_apply, grouped_agg

    grams = ngram_explode(ds, id_col=id_col, text_col=text_col, n=n)
    c = grouped_agg(grams, ["gram", id_col], {"c": (None, "count")},
                    final="shuffle")

    def flag(t: pa.Table) -> pa.Table:
        # whole bucket arrives gram-sorted; rows are (gram, id) unique,
        # so a gram's distinct-doc count is its run length
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "c": pa.array([], pa.int64()),
                             "c_dup": pa.array([], pa.int64())})
        g = t.column("gram").to_numpy(zero_copy_only=False)
        bounds = np.flatnonzero(np.r_[True, g[1:] != g[:-1], True])
        lens = np.diff(bounds)
        dup = np.repeat(lens >= 2, lens)
        cv = t.column("c").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({id_col: t.column(id_col),
                         "c": pa.array(cv),
                         "c_dup": pa.array(np.where(dup, cv, 0))})

    flagged = group_apply(c, "gram", flag, batch_format="pyarrow",
                          num_buckets=num_buckets, whole_bucket=True)
    return grouped_agg(flagged, id_col,
                       {"n_spans": ("c", "sum"), "n_dup": ("c_dup", "sum")},
                       final="shuffle")


def extract_regex_all(
    ds: "ray.data.Dataset",
    text_col: str,
    pattern: str,
    id_col: str,
) -> "ray.data.Dataset":
    """Structured field extraction: ALL non-overlapping matches of
    ``pattern`` per row, flattened to ``(id, match_idx, match)`` — the
    SQL ``unnest(regexp_extract_all(...))`` with 0-based subscripts.
    Rows with no match emit nothing.

    Zero-shuffle, zero per-row Python: each batch runs polars'
    vectorized ``str.extract_all`` + explode (rust regex engine — keep
    patterns to the RE2-compatible subset shared with the DuckDB oracle:
    no backrefs/lookaround, which neither engine supports anyway), and
    the per-row match ordinal is one windowed cum_count over the row
    index (not the id: rows sharing an id number their matches apart,
    as the SQL does, whatever batch they fall in). Embarrassingly
    parallel; output order within a row is match order.
    """
    import polars as pl
    import pyarrow as pa

    def fn(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t.select([id_col, text_col])).with_row_index("__row")
        out = (
            df.with_columns(
                pl.col(text_col).str.extract_all(pattern).alias("match"))
            .select(["__row", id_col, "match"])
            .explode("match")
            .drop_nulls("match")
            .with_columns(
                (pl.col("match").cum_count().over("__row") - 1)
                .cast(pl.Int64).alias("match_idx"))
            .select([id_col, "match_idx", "match"])
        )
        return out.to_arrow()

    return ds.map_batches(fn, batch_format="pyarrow",
                          zero_copy_batch=True)


def distinctive_terms_grouped(
    ds: "ray.data.Dataset",
    group_col: str,
    text_col: str = "text",
    k: int = 10,
    scale: int = 1_000_000,
) -> "ray.data.Dataset":
    """Per-group distinctive terms — the c-TF-IDF-style "what words
    characterize this slice" report (per language, per source, per
    cluster): rank each group's terms by ``tf_group · scale //
    tf_corpus`` — an INTEGER score (floor division of exact counts), so
    the ranking is bit-deterministic and the SQL replay exact, unlike a
    float tf-idf whose ties ulp-flip.

    Scale shape: per-batch (group, token) partial counts with zero
    per-row Python (Arrow lower/split + list_parent_indices to carry
    the group through the flatten); one token-grouped combine for the
    corpus totals; one token-bucketed join; per-group top-k via a
    per-batch partial top-k (each batch keeps ≤ k rows per group it
    sees) + one group-bucketed final. Ties pin (score DESC, term ASC).
    Returns (group, term, tf, score, rank≤k).
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from whoiswho_ray.stages.agg import group_apply, grouped_agg
    from whoiswho_ray.stages.joins import shuffle_hash_join

    def partial(t: pa.Table) -> pd.DataFrame:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(t.column(text_col)), "[^a-z0-9]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        grp = t.column(group_col).take(parent)
        keep = pc.not_equal(flat, "")
        df = pd.DataFrame({"g": grp.filter(keep).to_pandas(),
                           "term": flat.filter(keep).to_pandas()})
        out = df.groupby(["g", "term"], sort=False).size()
        return out.rename("tf").reset_index()

    tf = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=8192),
        ["g", "term"], {"tf": ("tf", "sum")}, final="shuffle")
    tot = grouped_agg(tf, ["term"], {"tft": ("tf", "sum")},
                      final="shuffle")
    joined = shuffle_hash_join(tf, tot, on="term")

    def score(df: pd.DataFrame) -> pd.DataFrame:
        tfv = df["tf"].to_numpy(np.int64)
        s = tfv * np.int64(scale) // df["tft"].to_numpy(np.int64)
        out = pd.DataFrame({"g": df["g"], "term": df["term"],
                            "tf": tfv, "score": s})
        # partial top-k per group inside the batch (combiner)
        out = out.sort_values(["g", "score", "term"],
                              ascending=[True, False, True], kind="stable")
        return out.groupby("g", sort=False).head(k)

    cand = joined.map_batches(score, batch_format="pandas",
                              batch_size=131072)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["g", "score", "term"],
                            ascending=[True, False, True], kind="stable")
        df = df.groupby("g", sort=False).head(k).reset_index(drop=True)
        df["rank"] = df.groupby("g", sort=False).cumcount() + 1
        df["rank"] = df["rank"].astype(np.int64)
        return df

    return group_apply(cand, "g", final, batch_format="pandas",
                       whole_bucket=True)
