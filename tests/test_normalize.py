"""normalize_batch pinned column by column: golden digests of the whole
output, the scalar text functions as a per-row oracle, the token cap, the
empty batch and the null policy."""

import hashlib
import json
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.fixtures import FixtureSpec, gen_block
from whoiswho_ray.functions.hashing import (
    hash_tokens64,
    record_id_of,
    sha256_hex,
    stable_hash64,
)
from whoiswho_ray.functions.textnorm import (
    CODE_STOPWORDS,
    basename_of,
    ctx_tokens,
    normalize_block_key,
    repo_tokens,
    split_path,
    split_path_column,
)
from whoiswho_ray.stages.normalize import normalize_batch

COLUMNS = ("repo", "path", "commit", "lang", "content")

# paths and values the fixtures never produce: unicode and NFKD-foldable
# names, backslashes, dot names, whitespace Python strips and ASCII does not
ODD_ROWS = [
    ("Org/Ｐroj-é", "é/ß/Ünïcode_Ω.rs", "rs", "fooBar ünï_ID1 self"),
    ("org/p", "a\\b\\C.Py", "py", "snake_case_name CamelCaseName"),
    ("org/p", "a/ .py", None, None),
    ("org/p", " .py", "", "x y z"),
    ("org/p", "..", "py", "dotdot"),
    ("org/p", "\x1fsrc/x.py\x1f", "py", "leading unit separator"),
    ("org/p", "\xa0lib/y.go\xa0", "go", "no break space"),
    ("org/p", "\tdir/z.c\t", "c", "tabs"),
    ("org/p", "ﬁle/ﬀ.py", "Ру", "ligatures ﬁ ﬀ"),
    ("日本/語", "日本/語.py", "py", "日本語 tokens ascii_too"),
    ("org/p", "a//b//", "py", ""),
    ("org/p", "x/A.B-C.tar.gz", "py", "tar gz"),
]


def _fixture_table(spec: FixtureSpec, odd: bool) -> pa.Table:
    cols = {k: [] for k in COLUMNS}
    for b in range(spec.n_blocks):
        recs = gen_block(spec, b)["records"]
        for k in COLUMNS:
            cols[k].extend(recs[k])
    if odd:
        for i, (repo, path, lang, content) in enumerate(ODD_ROWS):
            for k, v in zip(COLUMNS, (repo, path, f"odd{i}", lang, content)):
                cols[k].append(v)
    return pa.table({k: pa.array(v, pa.string()) for k, v in cols.items()})


def _digest(t: pa.Table) -> str:
    h = hashlib.sha256(str(t.schema).encode())
    for name in t.column_names:
        h.update(name.encode())
        h.update(json.dumps(t.column(name).to_pylist()).encode())
    return h.hexdigest()


SHAPES = {
    "flat": FixtureSpec(n_blocks=1100, entities_per_block=(1, 3),
                        records_per_entity=(2, 6), hot_factor=1, seed=11),
    "hot": FixtureSpec(n_blocks=16, entities_per_block=(5, 5),
                       records_per_entity=(26, 26), hot_factor=20, seed=12),
}

# computed with the row-at-a-time normalize_batch this stage replaced; the
# keys are (shape, batch start, max_tokens_per_record)
GOLDEN = {
    ("flat", 0, 256): "4347ac9f44723e4fa21b220f5fef02d90b1c13be9eb9a5e05df502a322f42112",
    ("flat", 4096, 256): "91b44186f7a8550030fdbff6956aea9f8f770cbfb45893f80ec61a7648f44703",
    ("flat", 8192, 256): "eb25178f3fd5b5393d2f7899fb73c87d16ca8f4b22e5fdebafad264237bd46cd",
    ("flat", 0, 8): "c3448c25c54e0d606eccfbc6d98e92416872662b14a7bb0bbec4ec231e736c7a",
    ("flat", 4096, 8): "29c6742a01402d7c986cabcec70e91e9d792246e7f29c13dd504a8b3f3828284",
    ("flat", 8192, 8): "f5dc28c1d35c70f679ba84ff05270c13132b0188897bcab9df2927c2bc44e53b",
    ("hot", 0, 256): "85b2e5359221a07c030e58c3d7743d5aff48d0132d4273bc240a9a062c6b7242",
    ("hot", 4096, 256): "c7f3d419aa4d1691614aa616f1ee1a0da35c2a2bf6d87b143123aed5e8ea79d2",
    ("hot", 0, 8): "13db74d9d330f481404e2aae8ee61916fcc5fdbc03ce224ef3846901cbb4819f",
    ("hot", 4096, 8): "d5cedeb47abf2f6070c4c4b6a61600aef115ef0c9ad7f57f2900ffd74a6bbaf9",
}


@pytest.fixture(scope="module")
def fixture_tables():
    return {name: _fixture_table(spec, odd=True) for name, spec in SHAPES.items()}


@pytest.mark.parametrize("shape,start,cap", sorted(GOLDEN))
def test_output_matches_golden_digest(fixture_tables, shape, start, cap):
    t = fixture_tables[shape]
    assert start < t.num_rows
    out = normalize_batch(t.slice(start, 4096), SNDConfig(max_tokens_per_record=cap))
    assert _digest(out) == GOLDEN[(shape, start, cap)]


def test_chunked_batch_equals_contiguous(fixture_tables):
    t = fixture_tables["flat"].slice(4096 - 40, 80)
    chunked = pa.concat_tables([t.slice(0, 25), t.slice(25, 30), t.slice(55)])
    assert normalize_batch(chunked, SNDConfig()).equals(normalize_batch(t, SNDConfig()))


# -- the scalar functions as a per-row oracle --------------------------------

odd_chars = st.sampled_from(
    list("aZ09_-./\\ ") + ["..", " .py", ".py", "é", "ß", "Ω", "ﬁ", "Ｐ", "日",
                           "\x1f", "\xa0", "\t", "\x85", "　", "İ", "K"])
odd_text = st.one_of(st.text(max_size=12),
                     st.lists(odd_chars, max_size=8).map("".join))


def _camel_lower_split(content: list[str]) -> list[list[str]]:
    x = pc.replace_substring_regex(pa.array(content, pa.string()),
                                   pattern="([a-z0-9])([A-Z])", replacement=r"\1 \2")
    return pc.split_pattern_regex(pc.utf8_lower(x), "[^a-z0-9]+").to_pylist()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(odd_text, odd_text, st.one_of(st.none(), odd_text),
                          st.one_of(st.none(), odd_text)),
                min_size=1, max_size=12))
@example([("a/b", "a/ .py", None, None), ("a/b", " .py", "", "")])
@example([("a/b", "x/five.abcde", "py", "x"), ("a/b", "x/six.abcdef", "py", "x"),
          ("a/b", "a//b//", "py", "x"), ("a/b", "//x", "py", "x")])
def test_rows_equal_scalar_functions(rows):
    cap = 3
    t = pa.table({
        "repo": pa.array([r[0] for r in rows], pa.string()),
        "path": pa.array([r[1] for r in rows], pa.string()),
        "commit": pa.array([str(i) for i in range(len(rows))], pa.string()),
        "lang": pa.array([r[2] for r in rows], pa.string()),
        "content": pa.array([r[3] for r in rows], pa.string()),
    })
    out = normalize_batch(t, SNDConfig(max_tokens_per_record=cap)).to_pylist()
    pieces = _camel_lower_split([r[3] or "" for r in rows])
    dirs, bases = split_path_column(t.column("path").combine_chunks())
    assert list(zip(dirs.to_pylist(), bases.to_pylist())) == [split_path(r[1]) for r in rows]
    for i, ((repo, path, lang, content), got) in enumerate(zip(rows, out)):
        assert got["record_id"] == record_id_of(repo, path, str(i))
        assert got["block_key"] == normalize_block_key(path)
        assert got["name"] == basename_of(path)
        assert got["content_sha256"] == sha256_hex(content or "")
        assert got["repo_ids"] == hash_tokens64(repo_tokens(repo)).tolist()
        assert got["ctx_ids"] == hash_tokens64(ctx_tokens(path, lang or "")).tolist()
        toks = list(dict.fromkeys(
            p for p in pieces[i] if len(p) >= 2 and p not in CODE_STOPWORDS))
        assert got["n_toks"] == len(toks)
        assert got["tok_ids"] == sorted(stable_hash64(p) for p in toks[:cap])


def test_basename_key_is_not_path_key():
    """The block key of a path is the basename key of its basename, not the
    path key of its basename: the basename is not stripped again."""
    t = pa.table({"repo": ["r", "r"], "path": ["a/ .py", " .py"],
                  "commit": ["1", "2"], "lang": ["py", "py"], "content": ["", ""]})
    out = normalize_batch(t, SNDConfig())
    assert out.column("name").to_pylist() == [" .py", ".py"]
    assert out.column("block_key").to_pylist() == ["", "py"]
    assert normalize_block_key(basename_of("a/ .py")) == "py"


# -- cap, empty batch, nulls -------------------------------------------------

def test_cap_keeps_first_distinct_tokens_in_appearance_order():
    content = ["zeta alpha zeta beta alpha gamma delta beta", "one two", ""]
    t = pa.table({"repo": ["r"] * 3, "path": ["a.py", "b.py", "c.py"],
                  "commit": ["1", "2", "3"], "lang": ["py"] * 3, "content": content})
    out = normalize_batch(t, SNDConfig(max_tokens_per_record=3))
    assert out.column("n_toks").to_pylist() == [5, 2, 0]
    tok = out.column("tok_ids").to_pylist()
    assert tok[0] == sorted(stable_hash64(w) for w in ("zeta", "alpha", "beta"))
    assert tok[1] == sorted(stable_hash64(w) for w in ("one", "two"))
    assert tok[2] == []


def test_empty_batch_keeps_typed_schema():
    t = pa.table({k: pa.array([], pa.string()) for k in COLUMNS})
    out = normalize_batch(t, SNDConfig())
    assert out.num_rows == 0
    assert out.schema == pa.schema([
        ("record_id", pa.string()), ("block_key", pa.string()),
        ("name", pa.string()), ("repo", pa.string()), ("path", pa.string()),
        ("commit", pa.string()), ("lang", pa.string()),
        ("content_sha256", pa.string()), ("n_toks", pa.int32()),
        ("tok_ids", pa.list_(pa.int64())), ("repo_ids", pa.list_(pa.int64())),
        ("ctx_ids", pa.list_(pa.int64())),
    ])


@pytest.mark.parametrize("column", ["repo", "path", "commit"])
def test_null_identity_column_is_refused(column):
    cols = {"repo": ["r", "r", "r"], "path": ["a.py", "b.py", "c.py"],
            "commit": ["1", "2", "3"], "lang": ["py"] * 3, "content": ["x"] * 3}
    cols[column] = [None, cols[column][1], None]
    t = pa.table({k: pa.array(v, pa.string()) for k, v in cols.items()})
    with pytest.raises(ValueError, match=re.escape(f"column '{column}' has 2 null")):
        normalize_batch(t, SNDConfig())


def test_null_lang_and_content():
    t = pa.table({"repo": ["r", "r"], "path": ["src/a.py", "src/b.py"],
                  "commit": ["1", "2"], "lang": pa.array([None, "py"], pa.string()),
                  "content": pa.array([None, "fooBar"], pa.string())})
    out = normalize_batch(t, SNDConfig()).to_pylist()
    assert out[0]["lang"] is None
    assert out[0]["ctx_ids"] == hash_tokens64(["src"]).tolist()
    assert out[1]["ctx_ids"] == hash_tokens64(["src", "py"]).tolist()
    assert out[0]["content_sha256"] == sha256_hex("")
    assert out[0]["tok_ids"] == [] and out[0]["n_toks"] == 0
    assert out[1]["tok_ids"] == sorted(map(stable_hash64, ["foo", "bar"]))
    assert out[1]["n_toks"] == 2
