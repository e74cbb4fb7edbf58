"""Session-4 batch: grouped OLS (exact-moment closed form), regex
extract-all, group-mode NULL imputation — DuckDB parity + edge cases."""

import duckdb
import numpy as np
import pandas as pd
import pytest

import ray.data as rd

from whoiswho_ray.stages.agg import grouped_linreg
from whoiswho_ray.stages.profile import impute_mode
from whoiswho_ray.stages.text_analysis import extract_regex_all


class TestGroupedLinreg:
    def test_matches_duckdb_exact_sums(self):
        rng = np.random.default_rng(21)
        n = 5000
        df = pd.DataFrame({
            "k": rng.choice(["a", "b", "c"], n),
            "x": rng.integers(0, 50, n).astype(np.int64),
        })
        df["y"] = (3 * df["x"] + rng.integers(-5, 6, n)).astype(np.int64)
        got = grouped_linreg(rd.from_pandas(df).repartition(7),
                             "k", "x", "y")
        want = duckdb.connect().execute("""
            WITH s AS (SELECT k, count(*) n, sum(x) sx, sum(y) sy,
                              sum(x*y) sxy, sum(x*x) sxx, sum(y*y) syy
                       FROM df GROUP BY 1),
            f AS (SELECT k, n, CAST(n AS DOUBLE) nf,
                         CAST(sx AS DOUBLE) sxf, CAST(sy AS DOUBLE) syf,
                         CAST(sxy AS DOUBLE) sxyf,
                         CAST(sxx AS DOUBLE) sxxf,
                         CAST(syy AS DOUBLE) syyf FROM s),
            g AS (SELECT *, nf*sxyf - sxf*syf covn, nf*sxxf - sxf*sxf varx,
                         nf*syyf - syf*syf vary FROM f)
            SELECT k, CAST(n AS BIGINT) n,
                   CASE WHEN varx > 0 THEN covn/varx END slope,
                   CASE WHEN varx > 0
                        THEN (syf - (covn/varx)*sxf)/nf END intercept,
                   CASE WHEN varx > 0 AND vary > 0
                        THEN (covn*covn)/(varx*vary) END r2
            FROM g ORDER BY k
        """).df()
        g = got.sort_values("k", ignore_index=True)
        # bit-identical floats
        assert g["slope"].tolist() == want["slope"].tolist()
        assert g["intercept"].tolist() == want["intercept"].tolist()
        assert g["r2"].tolist() == want["r2"].tolist()
        # and near the planted slope of 3
        assert np.allclose(g["slope"], 3.0, atol=0.1)
        assert (g["r2"] > 0.9).all()

    def test_degenerate_groups(self):
        df = pd.DataFrame({
            "k": ["z", "z", "c", "c"],
            "x": np.array([4, 4, 1, 2], dtype=np.int64),   # z: var_x = 0
            "y": np.array([1, 9, 5, 5], dtype=np.int64),   # c: var_y = 0
        })
        out = grouped_linreg(rd.from_pandas(df), "k", "x", "y")
        z = out[out["k"] == "z"].iloc[0]
        assert np.isnan(z["slope"]) and np.isnan(z["r2"])
        c = out[out["k"] == "c"].iloc[0]
        assert c["slope"] == 0.0 and np.isnan(c["r2"])


class TestExtractRegexAll:
    def test_matches_duckdb(self):
        df = pd.DataFrame({
            "id": np.arange(5, dtype=np.int64),
            "t": ["one littleword and anotherone", "short", "",
                  "xxxxxxx yyyyyyy xxxxxxx", "no7letters here!"],
        })
        got = extract_regex_all(rd.from_pandas(df).repartition(3),
                                "t", "[a-z]{7,}", "id").to_pandas()
        want = duckdb.connect().execute("""
            SELECT id, CAST(generate_subscripts(
                       regexp_extract_all(t, '[a-z]{7,}'), 1) - 1
                       AS BIGINT) AS match_idx,
                   unnest(regexp_extract_all(t, '[a-z]{7,}')) AS match
            FROM df
        """).df()
        cols = ["id", "match_idx", "match"]
        pd.testing.assert_frame_equal(
            got[cols].sort_values(cols, ignore_index=True),
            want[cols].sort_values(cols, ignore_index=True),
            check_dtype=False)
        # duplicate matches keep distinct ordinals
        assert len(got[(got["id"] == 3)]) == 3

    def test_no_matches_is_typed_empty(self):
        df = pd.DataFrame({"id": [1], "t": ["nope"]})
        out = extract_regex_all(rd.from_pandas(df), "t", "[0-9]{5}", "id")
        assert out.count() == 0


class TestImputeMode:
    def test_matches_duckdb(self):
        rng = np.random.default_rng(4)
        n = 3000
        df = pd.DataFrame({
            "id": np.arange(n, dtype=np.int64),
            "k": rng.choice(["p", "q", "r"], n),
            "v": rng.choice([10.0, 20.0, 20.0, 30.0], n),
        })
        df.loc[df["id"] % 7 == 0, "v"] = np.nan
        out = impute_mode(rd.from_pandas(df).repartition(6), "k", "v"
                          ).to_pandas()
        want = duckdb.connect().execute("""
            WITH m AS (SELECT k, v AS mv FROM (
                SELECT k, v, row_number() OVER (PARTITION BY k
                    ORDER BY count(*) DESC, v) rn
                FROM df WHERE v IS NOT NULL GROUP BY k, v) WHERE rn = 1)
            SELECT id, df.k, coalesce(df.v, m.mv) AS v,
                   CASE WHEN df.v IS NULL THEN 1 ELSE 0 END AS was_null
            FROM df LEFT JOIN m USING (k)
        """).df()
        cols = ["id", "k", "v", "was_null"]
        pd.testing.assert_frame_equal(
            out[cols].sort_values("id", ignore_index=True),
            want[cols].sort_values("id", ignore_index=True),
            check_dtype=False)

    def test_all_null_group_stays_null(self):
        df = pd.DataFrame({"k": ["a", "a", "b"],
                           "v": [np.nan, np.nan, 5.0]})
        out = impute_mode(rd.from_pandas(df), "k", "v").to_pandas()
        assert out[out["k"] == "a"]["v"].isna().all()
        assert (out[out["k"] == "a"]["was_null"] == 1).all()


class TestRobustStatsGrouped:
    def test_matches_duckdb(self):
        from whoiswho_ray.stages.agg import robust_stats_grouped
        rng = np.random.default_rng(9)
        n = 4000
        df = pd.DataFrame({
            "k": rng.choice(["a", "b"], n),
            "v": rng.integers(0, 100, n).astype(np.int64),
        })
        # plant heavy-tail outliers
        df.loc[df.index % 97 == 0, "v"] = 100000
        got = robust_stats_grouped(rd.from_pandas(df).repartition(6),
                                   "k", "v", k=1.5)
        want = duckdb.connect().execute("""
            WITH m AS (SELECT k, quantile_cont(v, 0.5) med
                       FROM df GROUP BY 1),
            d AS (SELECT df.k, v, med, abs(v - med) ad
                  FROM df JOIN m USING (k)),
            s AS (SELECT k, quantile_cont(ad, 0.5) mad FROM d GROUP BY 1)
            SELECT d.k, CAST(count(*) AS BIGINT) n, m.med AS median,
                   s.mad,
                   CAST(sum(CASE WHEN d.ad > 1.5 * s.mad THEN 1 ELSE 0
                            END) AS BIGINT) n_outliers
            FROM d JOIN m USING (k) JOIN s USING (k)
            GROUP BY d.k, m.med, s.mad ORDER BY d.k
        """).df()
        g = got.sort_values("k", ignore_index=True)
        assert g["median"].tolist() == want["median"].tolist()
        assert g["mad"].tolist() == want["mad"].tolist()
        assert g["n"].tolist() == want["n"].tolist()
        assert g["n_outliers"].tolist() == want["n_outliers"].tolist()
        assert (g["n_outliers"] > 0).all()  # the planted tail is seen

    def test_null_values_excluded_null_keys_rejected(self):
        import pytest as _pt
        from whoiswho_ray.stages.agg import robust_stats_grouped
        df = pd.DataFrame({"k": ["a"] * 5,
                           "v": [1.0, 2.0, np.nan, 3.0, 4.0]})
        out = robust_stats_grouped(rd.from_pandas(df), "k", "v")
        assert out["n"].iloc[0] == 4 and out["median"].iloc[0] == 2.5
        bad = pd.DataFrame({"k": [None, "a"], "v": [1.0, 2.0]})
        with _pt.raises(Exception):
            robust_stats_grouped(rd.from_pandas(bad), "k", "v")


class TestDateSpineGaps:
    def test_finds_planted_gaps(self):
        from whoiswho_ray.stages.windows import date_spine_gaps
        days = pd.to_datetime(["2020-01-01", "2020-01-02", "2020-01-05",
                               "2020-01-02", "2020-01-07"])
        out = date_spine_gaps(
            rd.from_pandas(pd.DataFrame({"d": days})).repartition(3), "d")
        assert out["gap_date"].tolist() == ["2020-01-03", "2020-01-04",
                                            "2020-01-06"]
        base = pd.Timestamp("1970-01-01")
        assert out["gap_day"].tolist() == [
            (pd.Timestamp(s) - base).days for s in out["gap_date"]]

    def test_dense_and_empty(self):
        from whoiswho_ray.stages.windows import date_spine_gaps
        days = pd.to_datetime(["2021-03-01", "2021-03-02", "2021-03-03"])
        out = date_spine_gaps(
            rd.from_pandas(pd.DataFrame({"d": days})), "d")
        assert len(out) == 0
        empty = date_spine_gaps(
            rd.from_pandas(pd.DataFrame(
                {"d": pd.Series([], dtype="datetime64[us]")})), "d")
        assert len(empty) == 0 and "gap_day" in empty.columns

    def test_nat_rows_are_ignored(self):
        """A NaT date is a NULL: it must not become int64 min and widen
        the spine to ~9.2e18 days."""
        from whoiswho_ray.stages.windows import date_spine_gaps
        days = pd.to_datetime(["2020-01-01", "2020-01-04", "2020-01-06"])
        want = date_spine_gaps(rd.from_pandas(pd.DataFrame({"d": days})), "d")
        with_nat = pd.DataFrame({"d": days.append(pd.DatetimeIndex([pd.NaT]))})
        got = date_spine_gaps(rd.from_pandas(with_nat).repartition(2), "d")
        pd.testing.assert_frame_equal(got, want)
        assert got["gap_date"].tolist() == ["2020-01-02", "2020-01-03", "2020-01-05"]
        only_nat = date_spine_gaps(rd.from_pandas(
            pd.DataFrame({"d": pd.Series([pd.NaT], dtype="datetime64[ns]")})), "d")
        assert len(only_nat) == 0


class TestFuzzyDedupeComposition:
    def test_transitive_canonicalization(self, ray_session):
        """JW edges (shared first-token block) -> CC -> canonical min:
        transitive variants land in one group."""
        from whoiswho_ray.stages.cluster import connected_components
        from whoiswho_ray.stages.editjoin import jw_name_join
        df = pd.DataFrame({"nm": ["acme smith", "acme smyth",
                                  "acme smithe", "zeta jones",
                                  "acme smith"]})
        edges = jw_name_join(rd.from_pandas(df), "nm", tau=0.9
                             ).map_batches(
            lambda d: pd.DataFrame({"u": d["name_a"], "v": d["name_b"]}),
            batch_format="pandas")
        labels = connected_components(edges).to_pandas()
        got = dict(zip(labels["node"], labels["component"]))
        assert (got.get("acme smith") == got.get("acme smyth")
                == got.get("acme smithe") == "acme smith")
        assert "zeta jones" not in got  # singleton: no edge

    def test_empty_edge_set_is_safe(self, ray_session):
        from whoiswho_ray.stages.cluster import connected_components
        edges = rd.from_pandas(pd.DataFrame({"u": [], "v": []}))
        assert connected_components(edges).count() == 0


class TestInferTypes:
    def test_classes_and_majority(self, ray_session):
        from whoiswho_ray.stages.profile import infer_types
        df = pd.DataFrame({
            "a": ["1", "-42", "007", None],          # int
            "b": ["1.5", "-.5", "2e3", "2.5E-1"],    # hmm: '2e3' no dot
            "c": ["2020-01-01", "1999-12-31", "x", "yes"],
        })
        out = infer_types(rd.from_pandas(df).repartition(2),
                          ["a", "b", "c"])
        row = out.set_index("column")
        assert row.loc["a", "inferred"] == "int"
        assert row.loc["a", "n"] == 3 and row.loc["a", "n_int"] == 3
        # '2e3' has no decimal point: not float by our class
        assert row.loc["b", "n_float"] == 3
        assert row.loc["b", "inferred"] == "float"
        # c: 2 dates of 4 -> no strict majority -> string
        assert row.loc["c", "inferred"] == "string"
        assert row.loc["c", "n_date"] == 2 and row.loc["c", "n_bool"] == 1

    def test_argmax_tiebreak_and_ints_also_match(self, ray_session):
        from whoiswho_ray.stages.profile import infer_types
        # every value matches int; none match float -> int wins
        df = pd.DataFrame({"x": ["1", "2", "3"]})
        out = infer_types(rd.from_pandas(df), ["x"])
        assert out["inferred"].iloc[0] == "int"


class TestNtileGrouped:
    def test_matches_duckdb(self, ray_session):
        from whoiswho_ray.stages.agg import ntile_grouped
        rng = np.random.default_rng(6)
        df = pd.DataFrame({
            "k": rng.choice(["a", "b", "c"], 1000),
            "v": rng.integers(0, 500, 1000).astype(np.int64),
            "tid": np.arange(1000, dtype=np.int64),
        })
        got = ntile_grouped(rd.from_pandas(df).repartition(5), "k",
                            ["v", "tid"], 4).to_pandas()
        want = duckdb.connect().execute("""
            SELECT k, v, tid, CAST(NTILE(4) OVER (
                PARTITION BY k ORDER BY v, tid) AS BIGINT) AS tile
            FROM df
        """).df()
        cols = ["k", "v", "tid", "tile"]
        pd.testing.assert_frame_equal(
            got[cols].sort_values(["k", "v", "tid"], ignore_index=True),
            want[cols].sort_values(["k", "v", "tid"], ignore_index=True),
            check_dtype=False)

    def test_small_groups_and_bad_n(self, ray_session):
        from whoiswho_ray.stages.agg import ntile_grouped
        df = pd.DataFrame({"k": ["a", "a", "b"],
                           "v": np.array([1, 2, 9], dtype=np.int64)})
        out = ntile_grouped(rd.from_pandas(df), "k", ["v"], 4).to_pandas()
        # 2-row group with n=4: tiles 1,2 (one row each); 1-row: tile 1
        a = out[out["k"] == "a"].sort_values("v")
        assert a["tile"].tolist() == [1, 2]
        assert out[out["k"] == "b"]["tile"].tolist() == [1]
        import pytest as _pt
        with _pt.raises(ValueError):
            ntile_grouped(rd.from_pandas(df), "k", ["v"], 0)


class TestLongestPrefixJoin:
    def test_longest_wins_and_inner_semantics(self, ray_session):
        from whoiswho_ray.stages.joins import longest_prefix_join
        df = pd.DataFrame({"s": ["12345", "129", "9", "555", "abc"]})
        out = longest_prefix_join(
            rd.from_pandas(df).repartition(2), "s",
            ["1", "12", "123", "9", "55"]).to_pandas()
        got = dict(zip(out["s"], out["prefix"]))
        assert got == {"12345": "123", "129": "12", "9": "9",
                       "555": "55"}  # 'abc' dropped
        import pytest as _pt
        with _pt.raises(ValueError):
            longest_prefix_join(rd.from_pandas(df), "s", ["1", ""])


class TestFdRepair:
    def test_majority_repair(self, ray_session):
        from whoiswho_ray.stages.profile import fd_repair
        df = pd.DataFrame({
            "det": ["a", "a", "a", "b", "b", "c"],
            "dep": [1.0, 1.0, 9.0, 2.0, 2.0, 7.0],
        })
        out = fd_repair(rd.from_pandas(df).repartition(3), "det", "dep"
                        ).to_pandas().sort_values(["det", "dep"],
                                                  ignore_index=True)
        # a's 9 repaired to 1; b consistent; c singleton untouched
        assert out[out["det"] == "a"]["dep"].tolist() == [1.0, 1.0, 1.0]
        assert out["repaired"].sum() == 1
        assert (out[out["det"] != "a"]["repaired"] == 0).all()

    def test_tie_breaks_smallest_and_null_dep(self, ray_session):
        from whoiswho_ray.stages.profile import fd_repair
        df = pd.DataFrame({
            "det": ["t", "t", "t"],
            "dep": [5.0, 3.0, np.nan],  # tie 1-1 -> smallest (3) wins
        })
        out = fd_repair(rd.from_pandas(df), "det", "dep").to_pandas()
        assert (out["dep"] == 3.0).all()
        assert out["repaired"].sum() == 2  # the 5 and the NULL

    def test_null_determinant_rows_keep_their_value(self, ray_session):
        """A NULL determinant is in no group: the row keeps its dep and
        is not flagged (it used to get NaN and repaired = 1)."""
        from whoiswho_ray.stages.profile import fd_repair
        df = pd.DataFrame({
            "det": ["a", "a", "a", None, None],
            "dep": [1.0, 1.0, 9.0, 4.0, np.nan],
        })
        out = fd_repair(rd.from_pandas(df).repartition(2), "det", "dep"
                        ).to_pandas()
        nulls = out[out["det"].isna()].sort_values("dep", ignore_index=True)
        assert nulls["dep"].iloc[0] == 4.0 and np.isnan(nulls["dep"].iloc[1])
        assert (nulls["repaired"] == 0).all()
        assert out[out["det"] == "a"]["dep"].tolist() == [1.0, 1.0, 1.0]
        assert out["repaired"].sum() == 1


class TestWeightedMedianGrouped:
    def test_matches_duckdb(self, ray_session):
        from whoiswho_ray.stages.agg import weighted_median_grouped
        rng = np.random.default_rng(14)
        n = 5000
        df = pd.DataFrame({
            "k": rng.choice(["a", "b", "c"], n),
            "v": rng.integers(0, 30, n).astype(np.int64),
            "w": rng.integers(1, 20, n).astype(np.int64),
        })
        got = weighted_median_grouped(
            rd.from_pandas(df).repartition(7), "k", "v", "w"
        ).to_pandas().sort_values("k", ignore_index=True)
        want = duckdb.connect().execute("""
            WITH g AS (SELECT k, v, sum(w) ws FROM df GROUP BY 1, 2),
            c AS (SELECT k, v,
                         sum(ws) OVER (PARTITION BY k ORDER BY v
                                       ROWS UNBOUNDED PRECEDING) cum,
                         sum(ws) OVER (PARTITION BY k) tot FROM g)
            SELECT k, CAST(min(v) FILTER (WHERE 2*cum >= tot)
                           AS BIGINT) wmedian,
                   CAST(max(tot) AS BIGINT) total_weight
            FROM c GROUP BY k ORDER BY k
        """).df()
        assert got["wmedian"].tolist() == want["wmedian"].tolist()
        assert got["total_weight"].tolist() == want["total_weight"].tolist()

    def test_hand_cases(self, ray_session):
        from whoiswho_ray.stages.agg import weighted_median_grouped
        # one heavy value dominates; exact-half boundary picks the
        # SMALLEST v with 2*cum >= tot
        df = pd.DataFrame({
            "k": ["x"] * 3 + ["y"] * 2,
            "v": np.array([1, 2, 3, 5, 9], dtype=np.int64),
            "w": np.array([1, 1, 10, 3, 3], dtype=np.int64),
        })
        out = weighted_median_grouped(rd.from_pandas(df), "k", "v", "w"
                                      ).to_pandas().set_index("k")
        assert out.loc["x", "wmedian"] == 3      # 10/12 mass at 3
        assert out.loc["y", "wmedian"] == 5      # 2*3 >= 6 at v=5

    def test_negative_weight_raises(self, ray_session):
        """A negative weight breaks the monotone cumsum the pluck relies
        on; it must fail loudly, as sssp does, not return a median."""
        from whoiswho_ray.stages.agg import weighted_median_grouped
        df = pd.DataFrame({
            "k": ["x", "x", "x"],
            "v": np.array([1, 2, 3], dtype=np.int64),
            "w": np.array([5, -4, 1], dtype=np.int64),
        })
        # surfaces as Ray's task error wrapping the ValueError
        with pytest.raises(Exception, match="requires non-negative weights"):
            weighted_median_grouped(rd.from_pandas(df), "k", "v", "w"
                                    ).to_pandas()


class TestTopKTiesGrouped:
    def test_matches_duckdb_with_heavy_ties(self, ray_session):
        from whoiswho_ray.stages.agg import top_k_ties_grouped
        rng = np.random.default_rng(19)
        df = pd.DataFrame({
            "k": rng.choice(["a", "b"], 2000),
            "v": rng.integers(0, 8, 2000).astype(np.int64),  # many ties
            "tid": np.arange(2000, dtype=np.int64),
        })
        got = top_k_ties_grouped(rd.from_pandas(df).repartition(6),
                                 "k", "v", k=2).to_pandas()
        want = duckdb.connect().execute("""
            SELECT * FROM (
                SELECT k, v, tid, CAST(RANK() OVER (
                    PARTITION BY k ORDER BY v DESC) AS BIGINT) AS rank
                FROM df) WHERE rank <= 2
        """).df()
        cols = ["k", "v", "tid", "rank"]
        pd.testing.assert_frame_equal(
            got[cols].sort_values(cols, ignore_index=True),
            want[cols].sort_values(cols, ignore_index=True),
            check_dtype=False)

    def test_tie_group_kept_whole_and_asc(self, ray_session):
        from whoiswho_ray.stages.agg import top_k_ties_grouped
        df = pd.DataFrame({"k": ["g"] * 5,
                           "v": np.array([9, 9, 9, 5, 1], np.int64),
                           "tid": np.arange(5, dtype=np.int64)})
        out = top_k_ties_grouped(rd.from_pandas(df), "k", "v", k=1
                                 ).to_pandas()
        assert sorted(out["v"]) == [9, 9, 9]  # whole tie group at rank 1
        asc = top_k_ties_grouped(rd.from_pandas(df), "k", "v", k=2,
                                 desc=False).to_pandas()
        assert sorted(asc["v"]) == [1, 5]


class TestUserPaths:
    def test_matches_duckdb(self, ray_session):
        from whoiswho_ray.stages.windows import user_paths
        rng = np.random.default_rng(23)
        n = 3000
        df = pd.DataFrame({
            "k": rng.integers(0, 100, n),
            "o": rng.permutation(n).astype(np.int64),
            "tid": np.arange(n, dtype=np.int64),
            "lab": rng.choice(["a", "b", "c"], n),
        })
        got = user_paths(rd.from_pandas(df).repartition(6), "k",
                         ["o", "tid"], "lab", max_steps=4).to_pandas()
        want = duckdb.connect().execute("""
            WITH o AS (SELECT k, lab, row_number() OVER (
                           PARTITION BY k ORDER BY o, tid) rn FROM df)
            SELECT k, string_agg(lab, '>' ORDER BY rn) AS path
            FROM o WHERE rn <= 4 GROUP BY 1 ORDER BY k
        """).df()
        g = got.sort_values("k", ignore_index=True)
        assert g["path"].tolist() == want["path"].tolist()

    def test_truncation_and_short_keys(self, ray_session):
        from whoiswho_ray.stages.windows import user_paths
        df = pd.DataFrame({"k": ["u", "u", "u", "v"],
                           "o": np.array([3, 1, 2, 7], np.int64),
                           "tid": np.arange(4, dtype=np.int64),
                           "lab": ["C", "A", "B", "X"]})
        out = user_paths(rd.from_pandas(df), "k", ["o", "tid"], "lab",
                         max_steps=2).to_pandas().set_index("k")
        assert out.loc["u", "path"] == "A>B"   # sorted, truncated
        assert out.loc["v", "path"] == "X"     # shorter than max_steps
