"""Hot-block salting and pair truncation on the oracle queries' SND input.

The SND input of the ``__ray_entry__`` queries (``records_from_documents(sf, n_blocks=40)``:
about 12 records per block) never reaches the default
``max_allpairs_block``, so no oracle query exercises salting. With the
bounds forced small, every block above 4 records is salted into MinHash
and same-repo buckets and every bucket above 3 pairs truncates to window
pairs; each pair the ``snd_edges`` kernel then emits must still be one of
the unsalted all-pairs, with the same integer features.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pyarrow as pa
import pytest

import __ray_entry__ as entry
from whoiswho_ray.config import SNDConfig

FORCED = dataclasses.replace(SNDConfig(), max_allpairs_block=4, max_pairs_per_group=3)
KEY = ["block_key", "id_a", "id_b"]


@pytest.fixture(scope="module")
def encoded():
    from whoiswho_ray.pipelines.snd import prepare
    from whoiswho_ray.sources.tables import records_from_documents

    _, idf, vec = prepare(records_from_documents(entry.SF_SMALL, n_blocks=entry.N_DOC_BLOCKS),
                          SNDConfig())
    return idf, vec.materialize()


def _pair_counts(encoded, cfg: SNDConfig):
    from whoiswho_ray.pipelines.snd import _blocked

    idf, vec = encoded
    return _blocked(vec, lambda g, w: entry._block_pair_counts(g, cfg, w), idf).to_pandas()


def test_salted_pairs_are_unsalted_pairs_with_the_same_features(encoded):
    full, salted = _pair_counts(encoded, SNDConfig()), _pair_counts(encoded, FORCED)
    assert not full.duplicated(KEY).any() and not salted.duplicated(KEY).any()
    assert 0 < len(salted) < len(full)
    both = salted.merge(full, on=KEY, how="left", suffixes=("", "_full"), indicator=True)
    assert (both["_merge"] == "both").all()
    for c in salted.columns.difference(KEY):
        assert (both[c] == both[f"{c}_full"]).all(), c


def test_forced_bounds_salt_and_truncate(encoded):
    """The forced run really takes the salted, truncating path."""
    from whoiswho_ray.pipelines.snd import _blocked
    from whoiswho_ray.stages.pairs import _score_partition

    def counts(part, w):
        sc = _score_partition(part, FORCED, w)
        return pa.table({"salted": [int((np.diff(sc.starts) > FORCED.max_allpairs_block).sum())],
                         "truncated": [int(sc.truncated.sum())]})

    idf, vec = encoded
    out = _blocked(vec, counts, idf).to_pandas()
    assert out["salted"].sum() > 0
    assert out["truncated"].sum() > 0
