"""Text / name / path normalization.

Re-expresses the reference's cleaning chain — ``cleaning_name``
(``/root/reference/whoiswho/character/name_match/tool/is_chinese.py:22-43``:
unicode→ASCII fold, lowercase, non-alpha→space), the shared text-cleaning
chain (``/root/reference/whoiswho/dataset/data_process.py:19-31,123-131``:
lower, strip punctuation regex, collapse spaces, drop len<2, stopword
filter) and ``unify_name_order`` (``whoiswho/utils.py:163-178``) — for the
source-code domain of ``input_hint``: the blocking key comes from the path
basename instead of an author name, and content tokens play the role of
title/keyword words.

All functions are pure. The scalar ones take and return plain Python
values and define each derived column; the ``*_column`` functions apply
them to a whole Arrow string column inside ``map_batches``, with Arrow
kernels for ASCII values and the scalar function for every other value,
so they equal the scalar functions by construction.
"""

from __future__ import annotations

import posixpath
import re
import unicodedata

import numpy as np

# Reference stopword lists (data_process.py:19-31) are English article/glue
# words; for code content the analogous glue is language keywords and
# single-letter identifiers.
STOPWORDS = frozenset(
    """a an the of and or for in on at to from with by is are was were be been
    this that these those it its as if then else not no yes""".split()
)
CODE_STOPWORDS = frozenset(
    """def class return import from for while if else elif try except with as
    pass break continue lambda yield global nonlocal assert del raise in is
    not and or none true false self fn func function var let const static void
    int float double char bool string str public private protected new delete
    struct enum union typedef template namespace using package interface
    extends implements throws final abstract synchronized volatile transient
    native println printf print main args type impl trait match loop mut ref
    pub mod use crate super where async await go chan defer map range nil err
    error""".split()
)

_PUNCS_RE = re.compile(r"[!\"#$%&'()*+,\-./:;<=>?@\[\\\]^_`{|}~’”“‘]")
_WS_RE = re.compile(r"\s+")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9]+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")


def ascii_fold(s: str) -> str:
    """Unicode → ASCII fold (the unidecode analog of ``token.py:110-118``)."""
    return (
        unicodedata.normalize("NFKD", s).encode("ascii", "ignore").decode("ascii")
    )


def clean_text(s: str) -> str:
    """Reference cleaning chain (``data_process.py:123-131`` analog):
    ASCII-fold, lowercase, punctuation→space, collapse whitespace."""
    s = ascii_fold(s).lower()
    s = _PUNCS_RE.sub(" ", s)
    return _WS_RE.sub(" ", s).strip()


def clean_text_column(col):
    """Vectorized :func:`clean_text` over an Arrow string column.

    ASCII rows (the overwhelming majority of code/doc corpora) run entirely
    through Arrow kernels; rows containing non-ASCII codepoints fall back
    to the scalar function (NFKD folding has no Arrow kernel) — same
    output, bit-for-bit, as mapping ``clean_text`` per row."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    x = pc.utf8_lower(col)
    x = pc.replace_substring_regex(x, pattern=_PUNCS_RE.pattern, replacement=" ")
    x = pc.replace_substring_regex(x, pattern=r"\s+", replacement=" ")
    x = pc.utf8_trim_whitespace(x)
    non_ascii = pc.match_substring_regex(col, "[^\\x00-\\x7F]")
    if pc.any(non_ascii).as_py():
        idx = np.flatnonzero(non_ascii.to_numpy(zero_copy_only=False))
        fixed = pa.array([clean_text(col[int(i)].as_py()) for i in idx], pa.string())
        x = pa.concat_arrays([x]) if isinstance(x, pa.ChunkedArray) else x
        np_x = np.asarray(x.to_pylist(), dtype=object)
        np_x[idx] = np.asarray(fixed.to_pylist(), dtype=object)
        return pa.array(np_x, pa.string())
    return x


def tokenize_text(s: str, stopwords: frozenset[str] = STOPWORDS, min_len: int = 2) -> list[str]:
    """Cleaned word tokens, len>=min_len, stopword-filtered
    (``data_process.py:176-199`` semantics)."""
    return [t for t in clean_text(s).split(" ") if len(t) >= min_len and t not in stopwords]


def tokenize_identifiers(content: str, max_tokens: int = 256) -> list[str]:
    """Distinct identifier tokens from source content, order of first
    appearance, capped.

    The analog of the coauthor-name set (``AutoTrainSND.py:151``): the
    discriminative "who else appears in this record" signal. CamelCase and
    snake_case are split, language keywords dropped, 1-char tokens dropped.
    The cap mirrors the reference's own profile caps
    (``adhoc_features.py:105`` caps at 256).
    """
    seen: dict[str, None] = {}
    for m in _IDENT_RE.finditer(content):
        word = m.group(0)
        for part in _CAMEL_RE.sub(" ", word).replace("_", " ").lower().split():
            if len(part) < 2 or part in CODE_STOPWORDS:
                continue
            if part not in seen:
                seen[part] = None
                if len(seen) >= max_tokens:
                    return list(seen)
    return list(seen)


def split_path(path: str) -> tuple[str, str]:
    """(directory, basename) of a file path: surrounding whitespace
    stripped, backslashes read as separators."""
    p = path.strip().replace("\\", "/")
    return posixpath.dirname(p), posixpath.basename(p)


def block_key_of_basename(base: str) -> str:
    """Blocking key from an already-split basename (see
    :func:`normalize_block_key`). It does not strip again: ``" .py"`` keys
    to ``''`` here, as the basename of ``"a/ .py"``, while the path
    ``" .py"`` keys to ``'py'``."""
    root, ext = posixpath.splitext(base)
    if ext and len(ext) <= 6:  # only strip things that look like extensions
        base = root
    return _NON_ALNUM_RE.sub("", ascii_fold(base).lower())


def normalize_block_key(path: str) -> str:
    """Blocking key from a file path: lowercase basename, extension and all
    non-alphanumerics stripped.

    The analog of ``cleaning_name`` + ``unify_name_order``
    (``is_chinese.py:22-43``, ``utils.py:163-178``): collapse surface form
    variants of "the same name" to one key. ``src/Foo_Bar.v2.PY`` and
    ``lib/foobar-v2.py`` both → ``foobarv2``.
    """
    return block_key_of_basename(basename_of(path))


def basename_of(path: str) -> str:
    """Raw basename (extension kept) — feeds the Jaro-Winkler name feature
    (the ``feature_process.py:368`` analog: surface-form similarity of the
    name beyond the normalized key)."""
    return split_path(path)[1]


def repo_tokens(repo: str) -> list[str]:
    """Org/venue-analog tokens from ``org/project`` repo slugs
    (tanimoto feature, ``AutoTrainSND.py:152-155`` analog)."""
    return [t for t in _NON_ALNUM_RE.split(ascii_fold(repo).lower()) if t]


def ctx_tokens(path: str, lang: str) -> list[str]:
    """Context tokens: language + path directory components (venue analog)."""
    dirs = split_path(path)[0]
    toks = [t for t in _NON_ALNUM_RE.split(ascii_fold(dirs).lower()) if t]
    if lang:
        toks.append(ascii_fold(lang).lower())
    return toks


# What ``str.strip()`` removes from an ASCII string. The column functions
# below run Arrow kernels on ASCII values only and hand every value with a
# non-ASCII code point to the scalar functions, so Arrow's own Unicode
# whitespace and case tables never decide an output.
_ASCII_WS = " \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"


def _with_scalar(out, col, fn):
    """``out`` with the value of every non-ASCII row of ``col`` replaced by
    ``fn`` of that row's value, ``fn`` called once per distinct value."""
    import pyarrow as pa
    import pyarrow.compute as pc

    odd = pc.invert(pc.string_is_ascii(col))
    if not pc.any(odd).as_py():
        return out
    enc = pc.dictionary_encode(col.filter(odd))
    fixed = pa.array([fn(v) for v in enc.dictionary.to_pylist()], out.type)
    return pc.replace_with_mask(out, odd, fixed.take(enc.indices))


def _last_split(col, sep: str):
    """(head, tail, has_sep) around the last ``sep`` of each value; a value
    without ``sep`` gives head ``''`` and tail the whole value."""
    import pyarrow.compute as pc

    parts = pc.split_pattern(col, sep, max_splits=1, reverse=True)
    off = parts.offsets.to_numpy(zero_copy_only=False)
    has = np.diff(off) == 2
    values = parts.values
    tail = values.take(off[1:] - 1)
    head = pc.if_else(has, values.take(off[:-1]), "")
    return head, tail, has


def split_path_column(path):
    """:func:`split_path` over an Arrow string column without nulls:
    (directories, basenames)."""
    import pyarrow.compute as pc

    p = pc.replace_substring(pc.utf8_trim(path, _ASCII_WS), "\\", "/")
    head, base, has = _last_split(p, "/")
    # posixpath.dirname: the head loses its trailing slashes unless it is
    # nothing but slashes
    dirs = pc.utf8_rtrim(head, "/")
    dirs = pc.if_else(pc.and_(has, pc.equal(dirs, "")),
                      pc.binary_join_element_wise(head, "/", ""), dirs)
    return (_with_scalar(dirs, path, lambda v: split_path(v)[0]),
            _with_scalar(base, path, lambda v: split_path(v)[1]))


def block_key_column(base):
    """:func:`block_key_of_basename` over an Arrow string column of
    basenames without nulls."""
    import pyarrow.compute as pc

    root, tail, has = _last_split(base, ".")
    # posixpath.splitext: an extension needs a non-dot before its dot
    ext = pc.and_(pc.and_(has, pc.not_equal(pc.utf8_ltrim(root, "."), "")),
                  pc.less_equal(pc.utf8_length(tail), 5))
    key = pc.replace_substring_regex(
        pc.utf8_lower(pc.if_else(ext, root, base)), "[^a-z0-9]+", "")
    return _with_scalar(key, base, block_key_of_basename)


def fold_lower_column(col):
    """``ascii_fold(v).lower()`` over an Arrow string column without
    nulls."""
    import pyarrow.compute as pc

    return _with_scalar(pc.utf8_lower(col), col, lambda v: ascii_fold(v).lower())


def fingerprint_key_expr():
    """Polars expression builder for the OpenRefine-style fingerprint
    key (the classic clustering/dedup normalizer): lowercase → alnum
    tokens → unique → sort → space-join. Keep in lockstep with
    :func:`fingerprint_key_sql`. NULL text stays NULL; text with no
    alnum tokens keys to ''."""
    import polars as pl

    return (pl.col("__fp_in").str.to_lowercase()
            .str.extract_all("[a-z0-9]+")
            .list.unique().list.sort().list.join(" "))


def fingerprint_key_sql(expr: str) -> str:
    """The DuckDB expression computing the same key (coalesce handles
    DuckDB's array_to_string-of-empty-list → NULL quirk; polars gives
    '' there, and both give NULL for NULL input — callers with
    non-null text match exactly)."""
    return (f"coalesce(array_to_string(list_sort(list_distinct("
            f"regexp_extract_all(lower({expr}), '[a-z0-9]+'))), ' '), '')")


def add_fingerprint_key(ds, text_col: str, out_col: str = "fp"):
    """Attach the fingerprint key to every row — one zero-shuffle
    vectorized polars pass per batch (token split / unique / sort all
    happen inside the list kernels; no per-row Python)."""
    import polars as pl
    import pyarrow as pa

    def fn(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        out = df.with_columns(
            pl.col(text_col).alias("__fp_in")).with_columns(
            fingerprint_key_expr().alias(out_col)).drop("__fp_in")
        return out.to_arrow()

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)
