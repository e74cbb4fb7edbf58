"""IND — incorrect-assignment detection (pipelines/ind.py).

The engine analog of the reference's third task (``/root/reference/mind/``
— LLM-scored outlier papers in author profiles, evaluated by per-profile
AUC weighted by outlier count): cluster consensus inside each claimed
profile, flag records outside the largest component."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data as rd

from whoiswho_ray.config import SNDConfig
from whoiswho_ray.evaluation import ind_weighted_auc
from whoiswho_ray.pipelines.ind import run_ind


def _planted_assignments(gt: pd.DataFrame, every: int = 7, spread: int = 5):
    """Claimed profiles with every Nth record planted into another entity.

    ``spread`` distributes each entity's planted records over several
    target entities so no profile is swamped (outliers stay a minority —
    the consensus method's stated requirement)."""
    gt = gt.sort_values("record_id").reset_index(drop=True)
    ents = sorted(gt["entity_id"].unique())
    idx = {e: i for i, e in enumerate(ents)}
    planted = np.asarray(gt.index % every == 0)
    step = 1 + (gt.index % spread)
    target = [
        ents[(idx[e] + s) % len(ents)] if p else e
        for e, p, s in zip(gt["entity_id"], planted, step)
    ]
    asg = pd.DataFrame({"record_id": gt["record_id"], "profile_id": target})
    truth = pd.DataFrame({"record_id": gt["record_id"], "is_outlier": planted})
    return asg, truth


class TestRunInd:
    def test_planted_outliers_flagged(self, ray_session, small_fixture):
        spec, tabs = small_fixture
        gt = tabs["ground_truth"].to_pandas()
        asg, truth = _planted_assignments(gt)
        out = run_ind(rd.from_arrow(tabs["records"]), rd.from_pandas(asg)).to_pandas()
        assert len(out) == len(gt)
        m = out.merge(truth, on="record_id", suffixes=("", "_t"))
        tp = int((m.is_outlier & m.is_outlier_t).sum())
        precision = tp / max(int(m.is_outlier.sum()), 1)
        recall = tp / max(int(m.is_outlier_t.sum()), 1)
        assert precision >= 0.95, (precision, recall)
        assert recall >= 0.95, (precision, recall)
        ev = ind_weighted_auc(out, truth)
        assert ev["weighted_auc"] >= 0.97, ev["weighted_auc"]

    def test_clean_profiles_flag_nothing(self, ray_session, small_fixture):
        """True assignments → nothing flagged (no false alarms on clean
        profiles; every profile's core is the whole profile)."""
        spec, tabs = small_fixture
        gt = tabs["ground_truth"].to_pandas()
        asg = pd.DataFrame({"record_id": gt["record_id"],
                            "profile_id": gt["entity_id"]})
        out = run_ind(rd.from_arrow(tabs["records"]), rd.from_pandas(asg)).to_pandas()
        assert not out["is_outlier"].any()
        # core members carry a positive consensus score
        big = out[out["n_members"] >= 2]
        assert (big["score"] > 0).all()

    def test_singleton_and_incoherent_profiles_carry_no_evidence(self, ray_session):
        """n==1 profiles and profiles with no component of size >= 2 flag
        nothing (no core, no evidence)."""
        records = pd.DataFrame({
            "repo": ["org/a", "org/b", "org/c"],
            "path": ["x/one.py", "x/two.py", "y/three.py"],
            "commit": ["c1", "c2", "c3"],
            "lang": ["py", "py", "py"],
            # three unrelated contents -> no strong pairs anywhere
            "content": ["alpha bravo charlie delta echo foxtrot",
                        "golf hotel india juliet kilo lima",
                        "mike november oscar papa quebec romeo"],
        })
        from whoiswho_ray.functions.hashing import record_id_of

        rids = [record_id_of(r, p, c) for r, p, c in
                zip(records["repo"], records["path"], records["commit"])]
        asg = pd.DataFrame({"record_id": rids,
                            "profile_id": ["p0", "p0", "p1"]})
        out = run_ind(rd.from_pandas(records), rd.from_pandas(asg)).to_pandas()
        assert len(out) == 3
        assert not out["is_outlier"].any()
        assert (out["score"] == 0).all()
        assert out.set_index("record_id").loc[rids[2], "n_members"] == 1

    def test_correlated_outliers_minority(self, ray_session, small_fixture):
        """The regime that defeats per-record similarity scoring: several
        records of ONE foreign entity planted into the same profile vouch
        for each other, but still form a minority component and are all
        flagged."""
        spec, tabs = small_fixture
        gt = tabs["ground_truth"].to_pandas()
        sizes = gt.groupby("entity_id").size().sort_values()
        # host: a mid-sized entity; invaders: 3 records of another entity
        host = sizes.index[len(sizes) // 2]
        foreign = sizes.index[-1]
        invaders = gt[gt["entity_id"] == foreign].sort_values("record_id").head(3)
        keep = gt[gt["entity_id"] == host]
        asg = pd.DataFrame({
            "record_id": pd.concat([keep["record_id"], invaders["record_id"]]),
            "profile_id": host,
        })
        out = run_ind(rd.from_arrow(tabs["records"]), rd.from_pandas(asg)).to_pandas()
        flagged = set(out.loc[out["is_outlier"], "record_id"])
        assert flagged == set(invaders["record_id"]), flagged


class TestRunIndLearned:
    """Learned IND scorer (mind/'s supervised half re-expressed over the
    engine's consensus + similarity features through the CellSpec
    ensemble, VERDICT r3 missing #5)."""

    def test_heldout_profiles_auc(self, ray_session, small_fixture):
        """Fit on half the profiles' labels; the held-out profiles'
        weighted AUC must stay high (the learned scorer generalizes
        across profiles, it does not memorize them)."""
        from whoiswho_ray.pipelines.ind import run_ind_learned

        spec, tabs = small_fixture
        gt = tabs["ground_truth"].to_pandas()
        asg, truth = _planted_assignments(gt)
        profiles = sorted(asg["profile_id"].unique())
        train_profiles = set(profiles[: len(profiles) // 2])
        train_mask = asg["profile_id"].isin(train_profiles).to_numpy()
        truth_train = truth[train_mask]
        out = run_ind_learned(rd.from_arrow(tabs["records"]),
                              rd.from_pandas(asg), truth_train).to_pandas()
        assert len(out) == len(gt)
        held = out[~out["profile_id"].isin(train_profiles)]
        held_truth = truth[~train_mask]
        ev = ind_weighted_auc(held, held_truth)
        assert ev["weighted_auc"] >= 0.9, ev

    def test_deterministic(self, ray_session, small_fixture):
        from whoiswho_ray.pipelines.ind import run_ind_learned

        spec, tabs = small_fixture
        gt = tabs["ground_truth"].to_pandas()
        asg, truth = _planted_assignments(gt)
        a = (run_ind_learned(rd.from_arrow(tabs["records"]),
                             rd.from_pandas(asg), truth).to_pandas()
             .sort_values("record_id").reset_index(drop=True))
        b = (run_ind_learned(rd.from_arrow(tabs["records"]),
                             rd.from_pandas(asg), truth).to_pandas()
             .sort_values("record_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)

    def test_features_bounded_fit(self, ray_session, small_fixture):
        """max_train_records caps the fit set via the deterministic
        smallest-hash sample."""
        from whoiswho_ray.pipelines.ind import fit_ind_ensemble, score_profiles

        spec, tabs = small_fixture
        gt = tabs["ground_truth"].to_pandas()
        asg, truth = _planted_assignments(gt)
        feats = score_profiles(rd.from_arrow(tabs["records"]), rd.from_pandas(asg))
        model, diag = fit_ind_ensemble(feats, truth, max_train_records=40)
        assert diag["n_train_records"] == 40
        model2, diag2 = fit_ind_ensemble(feats, truth, max_train_records=40)
        assert diag2["n_train_records"] == 40


class TestAttachProfiles:
    def test_many_to_many_claims_are_the_inner_merge(self, ray_session, small_fixture):
        """One record claimed by two profiles and one record_id carried by
        two records give the rows of the inner merge of records and
        claims on record_id, each profile sized by its merged rows; the
        doubly claimed record is an outlier only in the foreign profile."""
        from whoiswho_ray.stages.normalize import normalize_records

        spec, tabs = small_fixture
        records = tabs["records"].to_pandas()
        gt = tabs["ground_truth"].to_pandas().sort_values("record_id", ignore_index=True)
        asg = gt[["record_id", "entity_id"]].rename(columns={"entity_id": "profile_id"})
        sizes = asg["profile_id"].value_counts()
        home, foreign = sizes.index[-1], sizes.index[0]
        twice = asg.loc[asg["profile_id"] == home, "record_id"].iloc[0]
        asg = pd.concat([asg, pd.DataFrame({"record_id": [twice], "profile_id": [foreign]})],
                        ignore_index=True)
        dup = records.iloc[[0]].assign(content=records["content"].iloc[0] + "\nextra = 1\n")
        records = pd.concat([records, dup], ignore_index=True)

        norm = normalize_records(rd.from_pandas(records)).to_pandas()
        want = norm[["record_id", "content_sha256"]].merge(asg, on="record_id", how="inner")
        want["n_members"] = want.groupby("profile_id")["record_id"].transform("size")
        assert want["record_id"].duplicated().sum() == 2
        out = run_ind(rd.from_pandas(records), rd.from_pandas(asg)).to_pandas()
        cols = ["profile_id", "record_id", "content_sha256", "n_members"]
        pd.testing.assert_frame_equal(
            out[cols].sort_values(cols, ignore_index=True),
            want[cols].sort_values(cols, ignore_index=True), check_dtype=False)
        flags = out[out["record_id"] == twice].set_index("profile_id")["is_outlier"]
        assert not flags[home] and flags[foreign]

    def test_salted_profile_gets_the_snd_candidates(self, ray_session, small_fixture):
        """A profile above ``max_allpairs_block`` is salted exactly as an
        SND block of the same records: the same candidate pairs and
        truncation counts, and the same kernel output as on the SND
        shuffle rows with the block as the profile."""
        import dataclasses

        from whoiswho_ray.pipelines.ind import profile_kernel, score_profiles
        from whoiswho_ray.pipelines.snd import prepare
        from whoiswho_ray.stages.joins import attach_claims
        from whoiswho_ray.stages.pairs import _score_partition

        cfg = dataclasses.replace(SNDConfig(), max_allpairs_block=12)
        spec, tabs = small_fixture
        gt = tabs["ground_truth"].to_pandas()
        asg = rd.from_pandas(gt[["record_id", "block_key"]].rename(
            columns={"block_key": "profile_id"}))
        _, idf, vec = prepare(rd.from_arrow(tabs["records"]), cfg)
        idf_w = np.asarray(idf.idf)

        def scored(ds):
            t = pa.concat_tables(ray.get(ds.to_arrow_refs())).sort_by("block_key")
            sc = _score_partition(t, cfg, idf_w)
            a, b = sc.rows.rids[sc.ii], sc.rows.rids[sc.jj]
            pairs = set(zip(sc.block_key.take(pa.array(sc.ii)).to_pylist(),
                            np.minimum(a, b), np.maximum(a, b)))
            return t, sc, pairs

        snd_t, snd_sc, snd_pairs = scored(vec)
        _, ind_sc, ind_pairs = scored(attach_claims(vec.materialize(), asg, "profile_id"))
        sizes = np.diff(snd_sc.starts)
        salted = sizes > cfg.max_allpairs_block
        assert (snd_sc.n_pairs[salted] < sizes[salted] * (sizes[salted] - 1) // 2).any()
        assert ind_pairs == snd_pairs
        assert ind_sc.keys == snd_sc.keys
        np.testing.assert_array_equal(ind_sc.truncated, snd_sc.truncated)

        got = score_profiles(rd.from_arrow(tabs["records"]), asg, cfg).to_pandas()
        want = profile_kernel(snd_t, cfg, idf_w).to_pandas()
        pd.testing.assert_frame_equal(got.sort_values("record_id", ignore_index=True),
                                      want.sort_values("record_id", ignore_index=True))


class TestWeightedAuc:
    def test_perfect_and_inverted(self):
        pred = pd.DataFrame({
            "profile_id": ["p"] * 4,
            "record_id": list("abcd"),
            "score": [3.0, 2.0, 1.0, 0.5],
        })
        truth = pd.DataFrame({"record_id": list("abcd"),
                              "is_outlier": [False, False, True, True]})
        assert ind_weighted_auc(pred, truth)["weighted_auc"] == 1.0
        truth2 = truth.assign(is_outlier=[True, True, False, False])
        assert ind_weighted_auc(pred, truth2)["weighted_auc"] == 0.0

    def test_weighting_by_outlier_count(self):
        # p1: AUC 1.0 with 1 outlier; p2: AUC 0.0 with 3 outliers
        pred = pd.DataFrame({
            "profile_id": ["p1"] * 2 + ["p2"] * 4,
            "record_id": list("abcdef"),
            "score": [2.0, 1.0, 0.1, 5.0, 6.0, 7.0],
        })
        truth = pd.DataFrame({
            "record_id": list("abcdef"),
            "is_outlier": [False, True, False, True, True, True],
        })
        ev = ind_weighted_auc(pred, truth)
        assert ev["weighted_auc"] == pytest.approx((1 * 1.0 + 3 * 0.0) / 4)

    def test_undefined_profiles_excluded(self):
        pred = pd.DataFrame({
            "profile_id": ["all_norm"] * 2 + ["all_out"] * 2 + ["mixed"] * 2,
            "record_id": list("abcdef"),
            "score": [1.0, 2.0, 1.0, 2.0, 2.0, 1.0],
        })
        truth = pd.DataFrame({
            "record_id": list("abcdef"),
            "is_outlier": [False, False, True, True, False, True],
        })
        ev = ind_weighted_auc(pred, truth)
        assert ev["n_profiles_scored"] == 1
        assert ev["weighted_auc"] == 1.0
