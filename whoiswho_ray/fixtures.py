"""Deterministic synthetic fixtures (FIXTURES.md).

Generates the ``input_hint``-shaped records table
``(repo, path, commit, lang, content)`` with planted entities, plus
``ground_truth`` ``(block_key, entity_id, record_id)`` and
``labeled_pairs`` ``(block_key, record_id_a, record_id_b, same_entity)``.

The shape mirrors the reference's data: a block (= path-basename signature)
plays the role of an ambiguous author name with 2–8 distinct entities behind
it (the ">20 same-name authors" hard mode of ``/root/reference/README.md:80``
is reachable via ``entities_per_block``), an entity's records share a token
pool (the coauthor/keyword analog), and one hot block gets ``hot_factor``×
records to exercise salted sub-key pair generation (SURVEY.md §4).

Everything is seeded per (seed, block) so generation is order-stable and
embarrassingly parallel — the same bytes come out whether blocks are built
in a driver loop or as a Ray `map_batches` over block indices.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from whoiswho_ray.functions.hashing import record_id_of, sha256_hex
from whoiswho_ray.functions.textnorm import normalize_block_key

_LANGS = ["py", "js", "go", "rs", "java", "c"]
_DIR_VOCAB = [
    "src", "lib", "core", "pkg", "internal", "engine", "utils", "common",
    "server", "client", "api", "tools", "runtime", "backend", "frontend",
]
_EXT = {"py": "py", "js": "js", "go": "go", "rs": "rs", "java": "java", "c": "c"}


@dataclass(frozen=True)
class FixtureSpec:
    n_blocks: int = 50
    entities_per_block: tuple[int, int] = (2, 8)
    records_per_entity: tuple[int, int] = (3, 40)
    pool_size: int = 30          # tokens in an entity's identifier pool
    sample_frac: float = 0.7     # fraction of the pool appearing per record
    noise_tokens: int = 6        # random vocab tokens per record
    ambiguity: float = 0.1       # fraction of pool drawn from block-shared tokens
    vocab_size: int = 20000
    hot_factor: int = 20         # record multiplier for block 0 (the hot block)
    max_pairs_per_block: int = 20000  # labeled-pair sampling cap (hot block)
    seed: int = 42


def _basename_variants(root: str, ext: str, rng: np.random.RandomState) -> str:
    """Surface-form variants that all normalize to the same block key —
    the analog of name-form variation handled by ``cleaning_name`` /
    ``unify_name_order`` (``is_chinese.py:22-43``, ``utils.py:163-178``)."""
    styles = [
        lambda s: s,
        lambda s: s.capitalize(),
        lambda s: s.upper(),
        lambda s: s[:6] + "_" + s[6:] if len(s) > 6 else s,
        lambda s: s[:6] + "-" + s[6:] if len(s) > 6 else s,
    ]
    return f"{styles[rng.randint(len(styles))](root)}.{ext}"


def gen_block(spec: FixtureSpec, block_idx: int) -> dict[str, list]:
    """Generate one block's records + truth rows. Pure in (spec, block_idx)."""
    # RandomState takes a seed below 2**32; reducing keeps every seed
    # that fit byte-identical
    rng = np.random.RandomState((spec.seed * 1_000_003 + block_idx) % 2**32)
    root = f"module{block_idx:04d}"
    hot = spec.hot_factor if block_idx == 0 else 1

    lo, hi = spec.entities_per_block
    n_entities = int(rng.randint(lo, hi + 1))
    n_amb = max(1, int(round(spec.ambiguity * spec.pool_size)))
    shared_pool = rng.randint(0, spec.vocab_size, size=4 * n_amb)

    cols: dict[str, list] = {k: [] for k in ("repo", "path", "commit", "lang", "content")}
    truth: dict[str, list] = {k: [] for k in ("block_key", "entity_id", "record_id")}

    prev_repo: str | None = None
    for k in range(n_entities):
        entity_id = f"e{block_idx:04d}_{k:02d}"
        org = f"org{rng.randint(0, 200):03d}"
        proj = f"proj{rng.randint(0, 2000):04d}"
        repo = f"{org}/{proj}"
        # ~30% of entities share the previous entity's repo — two distinct
        # "authors" inside one monorepo — so the repo feature alone can't
        # separate clusters (the org-field ambiguity of the reference data).
        if prev_repo is not None and rng.rand() < 0.3:
            repo = prev_repo
        prev_repo = repo
        lang = _LANGS[rng.randint(len(_LANGS))]
        n_core = spec.pool_size - n_amb
        pool = np.concatenate([
            rng.randint(0, spec.vocab_size, size=n_core),
            shared_pool[rng.choice(shared_pool.size, size=n_amb, replace=False)],
        ])
        dirs = rng.choice(len(_DIR_VOCAB), size=3, replace=False)

        rlo, rhi = spec.records_per_entity
        n_records = int(rng.randint(rlo, rhi + 1)) * hot
        take = max(2, int(round(spec.sample_frac * pool.size)))
        for i in range(n_records):
            sub = pool[rng.choice(pool.size, size=take, replace=False)]
            noise = rng.randint(0, spec.vocab_size, size=spec.noise_tokens)
            toks = [f"id{t:05d}x" for t in np.concatenate([sub, noise])]
            rng.shuffle(toks)
            content = " ".join(toks)
            d1, d2 = _DIR_VOCAB[dirs[rng.randint(3)]], _DIR_VOCAB[dirs[rng.randint(3)]]
            path = f"{d1}/{d2}/{_basename_variants(root, _EXT[lang], rng)}"
            commit = sha256_hex(f"{entity_id}:{i}")[:40]
            cols["repo"].append(repo)
            cols["path"].append(path)
            cols["commit"].append(commit)
            cols["lang"].append(lang)
            cols["content"].append(content)
            truth["block_key"].append(normalize_block_key(path))
            truth["entity_id"].append(entity_id)
            truth["record_id"].append(record_id_of(repo, path, commit))
    return {"records": cols, "truth": truth}


def _pairs_for_block(truth: dict[str, list], spec: FixtureSpec, block_idx: int) -> dict[str, list]:
    """Labeled within-block pairs (FIXTURES.md §3), sampled for hot blocks."""
    rng = np.random.RandomState((spec.seed * 7_000_003 + block_idx) % 2**32)
    rids = truth["record_id"]
    ents = truth["entity_id"]
    n = len(rids)
    out: dict[str, list] = {k: [] for k in ("block_key", "record_id_a", "record_id_b", "same_entity")}
    total = n * (n - 1) // 2
    if total == 0:
        return out
    if total <= spec.max_pairs_per_block:
        idx_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        ii = rng.randint(0, n, size=3 * spec.max_pairs_per_block)
        jj = rng.randint(0, n, size=3 * spec.max_pairs_per_block)
        seen = set()
        idx_pairs = []
        for i, j in zip(ii.tolist(), jj.tolist()):
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            if key in seen:
                continue
            seen.add(key)
            idx_pairs.append(key)
            if len(idx_pairs) >= spec.max_pairs_per_block:
                break
    bk = truth["block_key"][0]
    for i, j in idx_pairs:
        a, b = (rids[i], rids[j]) if rids[i] < rids[j] else (rids[j], rids[i])
        out["block_key"].append(bk)
        out["record_id_a"].append(a)
        out["record_id_b"].append(b)
        out["same_entity"].append(ents[i] == ents[j])
    return out


def generate_tables(spec: FixtureSpec) -> dict[str, pa.Table]:
    """Build all three fixture tables deterministically."""
    rec: dict[str, list] = {k: [] for k in ("repo", "path", "commit", "lang", "content")}
    tru: dict[str, list] = {k: [] for k in ("block_key", "entity_id", "record_id")}
    prs: dict[str, list] = {k: [] for k in ("block_key", "record_id_a", "record_id_b", "same_entity")}
    for b in range(spec.n_blocks):
        out = gen_block(spec, b)
        for k in rec:
            rec[k].extend(out["records"][k])
        for k in tru:
            tru[k].extend(out["truth"][k])
        pairs = _pairs_for_block(out["truth"], spec, b)
        for k in prs:
            prs[k].extend(pairs[k])
    return {
        "records": pa.table(rec),
        "ground_truth": pa.table(tru),
        "labeled_pairs": pa.table(
            {
                "block_key": pa.array(prs["block_key"], pa.string()),
                "record_id_a": pa.array(prs["record_id_a"], pa.string()),
                "record_id_b": pa.array(prs["record_id_b"], pa.string()),
                "same_entity": pa.array(prs["same_entity"], pa.bool_()),
            }
        ),
    }


def write_fixture(out_dir: str, spec: FixtureSpec | None = None) -> dict[str, str]:
    """Write records/ground_truth/labeled_pairs parquet; returns paths."""
    spec = spec or FixtureSpec()
    os.makedirs(out_dir, exist_ok=True)
    tables = generate_tables(spec)
    paths = {}
    for name, tbl in tables.items():
        p = os.path.join(out_dir, f"{name}.parquet")
        pq.write_table(tbl, p)
        paths[name] = p
    return paths
