"""``joins.cogroup`` and the co-groups built on it: empty sides, key
types without a direct int64 cast, column checks, and a chain of joins
over a lazy sorted input at one CPU."""

import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from whoiswho_ray.stages.asof import asof_join
from whoiswho_ray.stages.diff import snapshot_diff
from whoiswho_ray.stages.joins import cogroup, shuffle_hash_join, shuffle_semi_join

# left keys 0..9, right keys 5..29: with 16 buckets some hold one side only
LEFT = pd.DataFrame({"k": np.arange(10), "x": np.arange(10) * 10})
RIGHT = pd.DataFrame({"k": np.arange(5, 30), "y": np.arange(5, 30) * 100})
EMPTY_RIGHT = RIGHT.iloc[:0]


def _rows(df: pd.DataFrame, cols) -> list:
    """Sorted row tuples; an empty result may carry no columns at all
    (Ray keeps none from a dataset whose blocks are all empty)."""
    if not len(df):
        return []
    return sorted(tuple(None if pd.isna(v) else int(v) for v in r)
                  for r in df[cols].itertuples(index=False))


def test_cogroup_hands_each_side_its_own_columns():
    def fn(l, r):
        return pa.table({"n_l": [l.num_rows], "n_r": [r.num_rows],
                         "cols": [f"{l.column_names}|{r.column_names}"]})

    out = cogroup([(rd.from_pandas(LEFT), "k"), (rd.from_pandas(RIGHT), "k")], fn, 16).to_pandas()
    assert len(out) == 16  # every bucket, the one-sided and the empty ones too
    assert set(out["cols"]) == {"['k', 'x']|['k', 'y']"}
    assert out["n_l"].sum() == len(LEFT) and out["n_r"].sum() == len(RIGHT)
    assert ((out["n_l"] == 0) & (out["n_r"] > 0)).any()


@pytest.mark.parametrize("right", [RIGHT, EMPTY_RIGHT], ids=["bucket", "overall"])
@pytest.mark.parametrize("how", ["inner", "left", "outer"])
def test_hash_join_with_an_empty_side(how, right):
    got = shuffle_hash_join(rd.from_pandas(LEFT), rd.from_pandas(right), on="k",
                            num_buckets=16, how=how).to_pandas()
    exp = LEFT.merge(right, on="k", how=how)
    cols = ["k", "x", "y"] if len(right) else ["k", "x"]
    assert _rows(got, cols) == _rows(exp, cols)
    if len(right):
        assert got["x"].dtype == exp["x"].dtype or how == "outer"


@pytest.mark.parametrize("right", [RIGHT, EMPTY_RIGHT], ids=["bucket", "overall"])
@pytest.mark.parametrize("anti", [False, True])
def test_semi_join_with_an_empty_side(anti, right):
    got = shuffle_semi_join(rd.from_pandas(LEFT), rd.from_pandas(right), on="k",
                            num_buckets=16, anti=anti).to_pandas()
    hit = LEFT["k"].isin(right["k"])
    assert _rows(got, ["k", "x"]) == _rows(LEFT[~hit if anti else hit], ["k", "x"])


@pytest.mark.parametrize("empty", ["right_bucket", "right", "left"])
def test_asof_with_an_empty_side(empty):
    left = pd.DataFrame({"k": np.arange(10), "t": pd.Timestamp("2024-01-02") + pd.to_timedelta(
        np.arange(10), "D")})
    right = pd.DataFrame({"k": np.arange(5, 30), "rt": pd.Timestamp("2024-01-01") + pd.to_timedelta(
        np.arange(25), "D"), "v": np.arange(25)})
    if empty == "right":
        right = right.iloc[:0]
    if empty == "left":
        left = left.iloc[:0]
    got = asof_join(rd.from_pandas(left), rd.from_pandas(right), by="k", left_on="t",
                    right_on="rt", num_buckets=16).to_pandas()
    exp = pd.merge_asof(left.sort_values("t"), right.sort_values("rt"), left_on="t",
                        right_on="rt", by="k").dropna(subset=["rt"])
    assert _rows(got, ["k", "v"]) == _rows(exp, ["k", "v"])


@pytest.mark.parametrize("empty", ["bucket", "a", "b"])
def test_diff_with_an_empty_side(empty):
    a = pd.DataFrame({"k": np.arange(10), "v": np.arange(10)})
    b = pd.DataFrame({"k": np.arange(5, 30), "v": np.arange(5, 30)})
    b.loc[b["k"] == 7, "v"] = -1
    if empty == "a":
        a = a.iloc[:0]
    if empty == "b":
        b = b.iloc[:0]
    got = snapshot_diff(rd.from_pandas(a), rd.from_pandas(b), "k", ["v"],
                        num_buckets=16).to_pandas()
    m = a.merge(b, on="k", how="outer", suffixes=("_a", "_b"), indicator=True)
    exp = {int(r.k): ("added" if r._4 == "right_only" else "removed" if r._4 == "left_only"
                      else "changed")
           for r in m.itertuples() if r._4 != "both" or r.v_a != r.v_b}
    assert dict(zip(got["k"].astype(int), got["change_type"])) == exp


def test_overlapping_payload_columns_raise():
    left = pd.DataFrame({"k": [1, 2], "v": [1, 2]})
    right = pd.DataFrame({"k": [1, 2], "v": [3, 4]})
    with pytest.raises(ValueError, match="non-key columns"):
        shuffle_hash_join(rd.from_pandas(left), rd.from_pandas(right), on="k",
                          num_buckets=4).to_pandas()


def test_date32_key():
    from whoiswho_ray.stages.agg import group_apply

    days = [datetime.date(2024, 1, 1) + datetime.timedelta(days=int(i)) for i in range(20)]
    left = pa.table({"d": pa.array(days, pa.date32()), "x": pa.array(range(20), pa.int64())})
    right = pa.table({"d": pa.array(days[::2], pa.date32()),
                      "y": pa.array(range(10), pa.int64())})
    got = shuffle_hash_join(rd.from_arrow(left), rd.from_arrow(right), on="d",
                            num_buckets=8).to_pandas()
    assert sorted(got["x"].tolist()) == list(range(0, 20, 2))
    assert sorted(got["y"].tolist()) == list(range(10))

    per_day = group_apply(rd.from_arrow(pa.concat_tables([left, left])), "d",
                          lambda t: pa.table({"d": t.column("d").slice(0, 1),
                                              "n": [t.num_rows]})).to_pandas()
    assert len(per_day) == 20 and set(per_day["n"]) == {2}


def test_chained_joins_over_a_lazy_sorted_input_finish_at_one_cpu(run_at_one_cpu):
    """Two hash joins over a lazy input whose plan holds a sort inside a
    union: no co-group reads a schema, so nothing reruns that plan under
    ``limit(1)``, which never finishes at one CPU."""
    out = run_at_one_cpu(
        "import pandas as pd, ray.data as rd\n"
        "from whoiswho_ray.stages.joins import shuffle_hash_join\n"
        "a = rd.range(200).map_batches(lambda d: pd.DataFrame({'k': d['id'] % 50,"
        " 'x': d['id']}), batch_format='pandas').sort('k')\n"
        "lazy = a.union(a.map_batches(lambda d: d.assign(x=-d['x']), batch_format='pandas'))\n"
        "b = rd.from_pandas(pd.DataFrame({'k': range(50), 'y': range(50)}))\n"
        "c = rd.from_pandas(pd.DataFrame({'y': range(50), 'z': range(50)}))\n"
        "j = shuffle_hash_join(shuffle_hash_join(lazy, b, on='k'), c, on='y')\n"
        "print('rows', j.count())\n", timeout=180)
    assert out.split()[-1] == "400"
