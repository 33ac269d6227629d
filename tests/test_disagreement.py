from __future__ import annotations

import json
import math

import numpy as np
import pytest

import synth
from prmeval.corpus import JudgmentPair, RelevanceScale
from prmeval.disagreement import (
    DisagreementCell,
    DisagreementTable,
    UserModel,
    at_least_m_of_n,
    cell_sigma,
    estimate,
    estimate_one_sided,
    estimate_symmetric,
    stratified_estimate,
)
from prmeval.errors import DataWarning, EstimationError, ValidationError


class TestUserModel:
    def test_threshold_predicate(self):
        model = UserModel(theta=2)
        assert not model.relevant(1)
        assert model.relevant(2)
        assert model.relevant(3)

    def test_theta_lower_bound(self):
        with pytest.raises(ValidationError, match="theta"):
            UserModel(theta=0)

    def test_theta_upper_bound(self, scale3):
        with pytest.raises(ValidationError, match="theta 3 > T=2"):
            UserModel(theta=3).check_against(scale3)


class TestGoldenEstimates:
    def test_symmetric(self, golden_pairs, scale3):
        table = estimate_symmetric(golden_pairs, UserModel(2), scale3)
        assert abs(table.p(2) - 4 / 10) < 1e-12
        assert abs(table.p(1) - 5 / 17) < 1e-12
        assert abs(table.p(0) - 1 / 13) < 1e-12

    def test_symmetric_counts(self, golden_pairs, scale3):
        table = estimate_symmetric(golden_pairs, UserModel(2), scale3)
        assert (table.cells[2].n_match, table.cells[2].n_total) == (4, 10)
        assert (table.cells[1].n_match, table.cells[1].n_total) == (5, 17)
        assert (table.cells[0].n_match, table.cells[0].n_total) == (1, 13)

    def test_one_sided_u1(self, golden_pairs, scale3):
        table = estimate_one_sided(golden_pairs, UserModel(2), scale3, condition="u1")
        assert abs(table.p(2) - 2 / 4) < 1e-12
        assert abs(table.p(1) - 3 / 10) < 1e-12
        assert abs(table.p(0) - 1 / 6) < 1e-12

    def test_one_sided_u2(self, golden_pairs, scale3):
        table = estimate_one_sided(golden_pairs, UserModel(2), scale3, condition="u2")
        assert abs(table.p(2) - 2 / 6) < 1e-12
        assert abs(table.p(1) - 2 / 7) < 1e-12
        assert abs(table.p(0) - 0 / 7) < 1e-12

    def test_symmetric_pools_both_directions(self, golden_pairs, scale3):
        # the symmetric estimate is the count-weighted mean of the two
        # one-sided estimates
        sym = estimate_symmetric(golden_pairs, UserModel(2), scale3)
        u1 = estimate_one_sided(golden_pairs, UserModel(2), scale3, condition="u1")
        u2 = estimate_one_sided(golden_pairs, UserModel(2), scale3, condition="u2")
        for lvl in range(3):
            pooled_match = u1.cells[lvl].n_match + u2.cells[lvl].n_match
            pooled_total = u1.cells[lvl].n_total + u2.cells[lvl].n_total
            assert sym.cells[lvl].n_match == pooled_match
            assert sym.cells[lvl].n_total == pooled_total

    def test_theta_1_golden(self, golden_pairs, scale3):
        # relaxing user relevance to level >= 1
        table = estimate_one_sided(golden_pairs, UserModel(1), scale3)
        # u1=2 labels pair with u2 in (1,2,2,1): all relevant
        assert table.p(2) == 1.0


class TestSigma:
    def test_formula(self):
        assert abs(cell_sigma(4, 10) - math.sqrt(0.4 * 0.6 / 10)) < 1e-15

    def test_undefined_when_no_denominator(self):
        with pytest.raises(EstimationError, match="N_D = 0"):
            cell_sigma(0, 0)

    def test_bounds(self):
        with pytest.raises(ValidationError):
            cell_sigma(5, 4)

    def test_conservation_on_estimates(self, golden_pairs, scale3):
        # stored sigma equals the formula recomputed from stored counts
        for condition in ("u1", "u2"):
            table = estimate_one_sided(
                golden_pairs, UserModel(2), scale3, condition=condition
            )
            for cell in table.cells:
                assert cell.sigma == cell_sigma(cell.n_match, cell.n_total)
        sym = estimate_symmetric(golden_pairs, UserModel(2), scale3)
        for cell in sym.cells:
            assert cell.sigma == cell_sigma(cell.n_match, cell.n_total)


class TestThresholdMonotonicity:
    def test_lowering_theta_never_decreases_p(self, golden_pairs, scale3):
        tables = [
            estimate_symmetric(golden_pairs, UserModel(theta), scale3)
            for theta in (2, 1)
        ]
        for lvl in range(3):
            assert tables[1].p(lvl) >= tables[0].p(lvl)

    def test_on_synthetic_four_levels(self):
        scale = RelevanceScale(("Non", "Rel", "HRel", "Key"))
        prior = np.array([0.4, 0.3, 0.2, 0.1])
        channel = np.array(
            [
                [0.7, 0.2, 0.08, 0.02],
                [0.2, 0.5, 0.2, 0.1],
                [0.1, 0.3, 0.4, 0.2],
                [0.05, 0.15, 0.3, 0.5],
            ]
        )
        pairs = synth.latent_channel_pairs(prior, channel, 5000, seed=11)
        previous = None
        for theta in (3, 2, 1):
            table = estimate_symmetric(pairs, UserModel(theta), scale)
            current = [table.p(lvl) for lvl in range(4)]
            if previous is not None:
                assert all(c >= p for c, p in zip(current, previous))
            previous = current


class TestUndefinedCells:
    def test_unseen_level_is_undefined(self, scale4):
        pairs = [JudgmentPair("201", "d1", 0, 0), JudgmentPair("201", "d2", 1, 1)]
        table = estimate_symmetric(pairs, UserModel(1), scale4)
        assert table.defined_levels() == (0, 1)
        with pytest.raises(EstimationError, match="level 3"):
            table.p(3)

    def test_cell_with_p_but_no_counts_rejected(self):
        with pytest.raises(ValidationError, match="undefined"):
            DisagreementCell(level=0, n_match=0, n_total=0, p=0.5, sigma=None)

    def test_cell_missing_p_despite_counts_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            DisagreementCell(level=0, n_match=1, n_total=2, p=None, sigma=None)


class TestEstimatorRefusals:
    def test_empty_pairs(self, scale3):
        with pytest.raises(EstimationError, match="no judgment pairs"):
            estimate_symmetric([], UserModel(1), scale3)

    def test_symmetric_refuses_one_sided_collections(self, golden_pairs, scale3):
        with pytest.raises(EstimationError, match="biased"):
            estimate_symmetric(
                golden_pairs, UserModel(2), scale3, one_sided_collection=True
            )

    def test_bad_condition(self, golden_pairs, scale3):
        with pytest.raises(ValidationError, match="condition"):
            estimate_one_sided(golden_pairs, UserModel(2), scale3, condition="u3")


class TestOverride:
    def test_p0_pinned_to_zero(self, golden_pairs, scale3):
        table = estimate_symmetric(golden_pairs, UserModel(2), scale3)
        pinned = table.with_override(0, 0.0)
        assert pinned.p(0) == 0.0
        assert pinned.cells[0].source == "override"
        assert pinned.cells[0].sigma is None
        # original counts preserved for provenance
        assert pinned.cells[0].n_total == 13
        # other cells untouched
        assert pinned.p(2) == table.p(2)


class TestMonotonicityWarning:
    def test_inverted_estimates_warn(self, scale3):
        pairs = [JudgmentPair("201", f"a{i}", 0, 2) for i in range(10)]
        pairs += [JudgmentPair("201", f"b{i}", 1, 0) for i in range(10)]
        with pytest.warns(DataWarning, match="non-monotone"):
            estimate_one_sided(pairs, UserModel(2), scale3)

    def test_noise_band_suppresses_warning(self, golden_pairs, scale3):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DataWarning)
            estimate_symmetric(golden_pairs, UserModel(2), scale3)


class TestStratified:
    def test_per_stratum_tables(self, scale3):
        pairs = [JudgmentPair("201", f"a{i}", 2, 2) for i in range(5)]
        pairs += [JudgmentPair("202", f"b{i}", 2, 0) for i in range(5)]
        strata = {"201": "web", "202": "news"}
        tables = stratified_estimate(pairs, strata, UserModel(2), scale3)
        assert set(tables) == {"web", "news"}
        assert tables["web"].p(2) == 1.0
        assert tables["news"].p(2) == 0.0

    def test_missing_topic_rejected(self, scale3, golden_pairs):
        with pytest.raises(ValidationError, match="missing from strata"):
            stratified_estimate(golden_pairs, {}, UserModel(2), scale3)


class TestEstimateDispatch:
    def test_names_select_the_estimators(self, golden_pairs, scale3):
        model = UserModel(2)
        assert estimate(golden_pairs, model, scale3) == estimate_symmetric(
            golden_pairs, model, scale3
        )
        assert estimate(
            golden_pairs, model, scale3, estimator="one_sided", condition="u2"
        ) == estimate_one_sided(golden_pairs, model, scale3, condition="u2")

    def test_one_sided_collection_reaches_symmetric(self, golden_pairs, scale3):
        with pytest.raises(EstimationError, match="biased"):
            estimate(golden_pairs, UserModel(2), scale3, one_sided_collection=True)

    def test_unknown_estimator(self, golden_pairs, scale3):
        with pytest.raises(ValidationError, match="unknown estimator"):
            estimate(golden_pairs, UserModel(2), scale3, estimator="one-sided")


class TestSerialization:
    def test_json_round_trip(self, golden_pairs, scale3):
        table = estimate_symmetric(golden_pairs, UserModel(2), scale3)
        again = DisagreementTable.from_json_dict(table.to_json_dict())
        assert again == table

    def test_json_round_trip_with_override(self, golden_pairs, scale3):
        table = estimate_symmetric(golden_pairs, UserModel(2), scale3).with_override(0, 0.0)
        again = DisagreementTable.from_json(json.dumps(table.to_json_dict()))
        assert again == table

    def test_handwritten_table_loads_as_override(self, scale3):
        obj = {
            "scale": {"labels": ["Non", "Rel", "HRel"]},
            "theta": 2,
            "cells": [
                {"level": 0, "p": 0.0},
                {"level": 1, "p": 0.0},
                {"level": 2, "p": 1.0},
            ],
        }
        table = DisagreementTable.from_json_dict(obj)
        assert table.estimator == "manual"
        assert [c.source for c in table.cells] == ["override"] * 3
        assert table.p(2) == 1.0

    def test_text_layout(self, golden_pairs, scale3):
        table = estimate_symmetric(golden_pairs, UserModel(2), scale3)
        text = table.to_text()
        lines = text.splitlines()
        # highest level first, 4-decimal probabilities, counts appended
        assert lines[1].startswith("HRel")
        assert "p=0.4000" in lines[1]
        assert "[4/10]" in lines[1]
        assert "p=0.2941" in lines[2]
        assert "p=0.0769" in lines[3]

    def test_undefined_cell_serialized_as_null(self, scale4):
        pairs = [JudgmentPair("201", "d1", 0, 0), JudgmentPair("201", "d2", 1, 1)]
        table = estimate_symmetric(pairs, UserModel(1), scale4)
        obj = table.to_json_dict()
        assert obj["cells"][3]["p"] is None
        assert "undef" in table.to_text()


class TestAtLeastMOfN:
    def test_golden_two_of_three(self):
        # 3 * 0.4^2 * 0.6 + 0.4^3
        assert abs(at_least_m_of_n(0.4, 2, 3) - 0.352) < 1e-12

    def test_edges(self):
        assert at_least_m_of_n(0.3, 0, 5) == 1.0
        assert at_least_m_of_n(0.0, 1, 5) == 0.0
        assert at_least_m_of_n(1.0, 5, 5) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            at_least_m_of_n(1.5, 1, 2)
        with pytest.raises(ValidationError):
            at_least_m_of_n(0.5, 3, 2)

    def test_matches_complement_of_binomial_cdf(self):
        # oracle: direct enumeration over all outcomes of 8 trials
        p, n = 0.37, 8
        for m in range(n + 1):
            direct = sum(
                math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(m, n + 1)
            )
            assert abs(at_least_m_of_n(p, m, n) - direct) < 1e-12


class TestStatisticalConsistency:
    def test_estimates_converge_to_model_conditionals(self):
        prior = np.array([0.5, 0.3, 0.2])
        channel = np.array(
            [
                [0.8, 0.15, 0.05],
                [0.2, 0.6, 0.2],
                [0.05, 0.35, 0.6],
            ]
        )
        theta = 2
        truth = synth.true_one_sided(prior, channel, theta)
        pairs = synth.latent_channel_pairs(prior, channel, 20000, seed=5)
        table = estimate_one_sided(pairs, UserModel(theta), synth.SCALE3)
        for lvl in range(3):
            cell = table.cells[lvl]
            assert cell.sigma is not None
            assert abs(cell.p - truth[lvl]) < 3 * cell.sigma
