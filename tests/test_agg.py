"""grouped_agg / distinct: partial-combine correctness vs plain pandas."""

import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from whoiswho_ray.stages.agg import distinct, grouped_agg


@pytest.fixture(scope="module")
def frame():
    rng = np.random.RandomState(0)
    return pd.DataFrame({
        "k": rng.choice(list("abcde"), 5000),
        "k2": rng.randint(0, 3, 5000),
        "x": rng.randint(0, 100, 5000),
        "y": rng.randn(5000),
    })


def test_sum_count_min_max_mean(frame):
    ds = rd.from_pandas(frame).repartition(7)
    got = grouped_agg(ds, "k", {
        "sx": ("x", "sum"), "n": (None, "count"),
        "mn": ("x", "min"), "mx": ("x", "max"), "avg": ("x", "mean"),
    })
    exp = frame.groupby("k").agg(
        sx=("x", "sum"), n=("x", "size"), mn=("x", "min"), mx=("x", "max"),
        avg=("x", "mean")).reset_index()
    got = got.sort_values("k").reset_index(drop=True)
    exp = exp.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=False)


def test_multi_key_and_shuffle_final(frame):
    ds = rd.from_pandas(frame).repartition(5)
    got = grouped_agg(ds, ["k", "k2"], {"n": (None, "count")}, final="shuffle").to_pandas()
    exp = frame.groupby(["k", "k2"]).size().rename("n").reset_index()
    got = got.sort_values(["k", "k2"]).reset_index(drop=True)
    exp = exp.sort_values(["k", "k2"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[exp.columns], exp, check_dtype=False)


def test_distinct(frame):
    ds = rd.from_pandas(frame).repartition(6)
    got = distinct(ds, ["k", "k2"])
    exp = frame[["k", "k2"]].drop_duplicates()
    assert len(got) == len(exp)
    assert set(map(tuple, got.to_numpy())) == set(map(tuple, exp.to_numpy()))


def test_group_apply_matches_direct_groupby(frame):
    from whoiswho_ray.stages.agg import group_apply

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"k": [], "total": []})
        return pd.DataFrame({"k": [g["k"].iloc[0]], "total": [g["x"].sum()]})

    ds = rd.from_pandas(frame).repartition(5)
    via_helper = group_apply(ds, "k", fn, batch_format="pandas").to_pandas()
    direct = ds.groupby("k").map_groups(fn, batch_format="pandas").to_pandas()
    a = via_helper.sort_values("k").reset_index(drop=True)
    b = direct.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


class TestExactQuantiles:
    def test_matches_numpy_on_known_data(self):
        import math

        import ray.data as rd

        from whoiswho_ray.stages.agg import exact_quantiles

        rng = np.random.RandomState(5)
        vals = rng.uniform(0, 1000, 5003).round(2)
        out = exact_quantiles(
            rd.from_pandas(pd.DataFrame({"v": vals})).repartition(7),
            "v", [0.0, 0.25, 0.5, 0.99, 1.0])
        srt = np.sort(vals)
        for q, got in zip(out["q"], out["value"]):
            assert got == srt[max(0, math.ceil(q * len(vals)) - 1)]

    def test_ties_well_defined(self):
        import ray.data as rd

        from whoiswho_ray.stages.agg import exact_quantiles

        vals = [1.0] * 50 + [2.0] * 50
        out = exact_quantiles(
            rd.from_pandas(pd.DataFrame({"v": vals})), "v", [0.5, 0.51])
        assert out["value"].tolist() == [1.0, 2.0]


class TestGroupedQuantiles:
    def test_matches_numpy_per_key(self):
        import math

        import ray.data as rd

        from whoiswho_ray.stages.agg import grouped_quantiles

        rng = np.random.RandomState(11)
        df = pd.DataFrame({"k": rng.randint(0, 23, 5000),
                           "v": rng.uniform(0, 100, 5000).round(3)})
        got = grouped_quantiles(rd.from_pandas(df).repartition(6),
                                "k", "v", [0.0, 0.5, 0.95]).to_pandas()
        for (k, q), grp in got.groupby(["k", "q"]):
            vals = np.sort(df.loc[df["k"] == k, "v"].to_numpy())
            want = vals[max(0, math.ceil(q * vals.size) - 1)]
            assert grp["v"].iloc[0] == want, (k, q)
        assert len(got) == df["k"].nunique() * 3


class TestQuantileNulls:
    """ADVICE r2: quantiles must ignore NULL/NaN values like DuckDB
    quantile_disc, not count them in n or pluck them."""

    def test_exact_quantiles_ignore_nulls(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.agg import exact_quantiles

        df = pd.DataFrame({"v": [1.0, np.nan, 2.0, None, 3.0, 4.0]})
        out = exact_quantiles(rd.from_pandas(df).repartition(3), "v",
                              [0.5, 1.0])
        assert out.set_index("q")["value"].tolist() == [2.0, 4.0]

    def test_grouped_quantiles_ignore_nulls(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.agg import grouped_quantiles

        df = pd.DataFrame({
            "k": ["a", "a", "a", "b", "b", "c"],
            "v": [np.nan, 1.0, 3.0, 2.0, None, np.nan],
        })
        got = grouped_quantiles(rd.from_pandas(df).repartition(2), "k", "v",
                                [0.5]).to_pandas().sort_values("k")
        # c has no non-null values -> absent entirely
        assert got["k"].tolist() == ["a", "b"]
        assert got["v"].tolist() == [1.0, 2.0]


class TestSearchEmptyTerms:
    def test_empty_terms_returns_empty(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.text_analysis import (build_inverted_index,
                                                       search_all_terms)

        df = pd.DataFrame({"doc_id": [1, 2], "text": ["a b", "b c"]})
        idx = build_inverted_index(rd.from_pandas(df))
        out = search_all_terms(idx, [])
        assert len(out) == 0 and list(out.columns) == ["doc_id"]


class TestProfileColumns:
    def test_stats_and_native_minmax(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.agg import profile_columns

        df = pd.DataFrame({
            "i": [9, 10, 2, None, 2],          # string-min trap: "10" < "2"
            "s": ["b", None, "a", "a", "c"],
        })
        out = profile_columns(rd.from_pandas(df).repartition(3), ["i", "s"]
                              ).set_index("column")
        assert out.loc["i", "n"] == 5 and out.loc["i", "nulls"] == 1
        assert out.loc["i", "n_distinct"] == 3
        assert out.loc["i", "min_s"] == "2.0" and out.loc["i", "max_s"] == "10.0"
        assert out.loc["s", "nulls"] == 1 and out.loc["s", "n_distinct"] == 3
        assert out.loc["s", "min_s"] == "a" and out.loc["s", "max_s"] == "c"

    def test_all_null_column(self, ray_session):
        import ray.data as rd

        from whoiswho_ray.stages.agg import profile_columns

        df = pd.DataFrame({"x": [None, None], "y": [1, 2]})
        out = profile_columns(rd.from_pandas(df), ["x", "y"]).set_index("column")
        assert out.loc["x", "nulls"] == 2
        assert out.loc["x", "n_distinct"] == 0
        assert out.loc["x", "min_s"] is None


def test_null_in_an_int_key_keeps_one_bucket_per_key():
    """An int64 key with one NULL in a later block: pandas reads that batch
    as float64, whose hash differs from the int's. Key 2 must still come
    back once, from ``group_apply`` and from ``grouped_agg(final='shuffle')``."""
    import pyarrow as pa

    from whoiswho_ray.stages.agg import group_apply

    n = 140_000
    k1 = pa.array(np.arange(n) % 5, pa.int64())
    k2 = pa.array([None if i == n - 1 else i % 5 for i in range(n)], pa.int64())
    ds = rd.from_arrow([pa.table({"k": k1}), pa.table({"k": k2})])

    agg = grouped_agg(ds, "k", {"n": (None, "count")}, final="shuffle").to_pandas()
    twos = agg[agg["k"] == 2]
    assert len(twos) == 1 and int(twos["n"].iloc[0]) == 2 * (n // 5)
    assert int(agg["n"].sum()) == 2 * n

    per_key = group_apply(ds, "k", lambda t: pa.table({"k": t.column("k").slice(0, 1),
                                                        "n": [t.num_rows]})).to_pandas()
    twos = per_key[per_key["k"] == 2]
    assert len(twos) == 1 and int(twos["n"].iloc[0]) == 2 * (n // 5)
