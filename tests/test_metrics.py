from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth
from prmeval.corpus import RunEntry, RunRanking
from prmeval.disagreement import DisagreementTable, UserModel, estimate_symmetric
from prmeval.errors import DataWarning, EstimationError, MetricError, ValidationError
from prmeval.metrics import (
    DiscountFunction,
    GainScheme,
    MetricReport,
    binary_count_report,
    count_binary,
    count_prm,
    dcg_from_levels,
    expected_count_report,
    expected_precision_report,
    ideal_dcg_at_k,
    ndcg_at_k,
    topic_dcg,
)

GOLDEN_HIST = {0: 6, 1: 10, 2: 4}


def degenerate_table(top: int, theta: int) -> DisagreementTable:
    return DisagreementTable.from_json_dict(
        {
            "scale": {"labels": [f"L{i}" for i in range(top + 1)]},
            "theta": theta,
            "estimator": "manual",
            "cells": [
                {"level": i, "p": 1.0 if i >= theta else 0.0} for i in range(top + 1)
            ],
        }
    )


@pytest.fixture()
def golden_table(golden_pairs, scale3) -> DisagreementTable:
    return estimate_symmetric(golden_pairs, UserModel(2), scale3)


class TestCountBinary:
    def test_theta_2(self):
        assert count_binary(GOLDEN_HIST, 2) == 4.0

    def test_theta_1(self):
        assert count_binary(GOLDEN_HIST, 1) == 14.0

    def test_empty(self):
        assert count_binary({}, 1) == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            count_binary({1: -1}, 1)


class TestCountPrm:
    def test_expected_count_from_worked_example(self, golden_table):
        # 6 * (1/13) + 10 * (5/17) + 4 * (4/10), computed independently
        expected = 6 * (1 / 13) + 10 * (5 / 17) + 4 * (4 / 10)
        assert abs(count_prm(GOLDEN_HIST, golden_table) - expected) < 1e-12
        assert abs(expected - 5.002714932126697) < 1e-12

    def test_degenerate_table_equals_binary(self):
        table = degenerate_table(2, 2)
        assert count_prm(GOLDEN_HIST, table) == count_binary(GOLDEN_HIST, 2)

    def test_all_zero_counts(self, golden_table):
        assert count_prm({0: 0, 1: 0, 2: 0}, golden_table) == 0.0

    def test_undefined_cell_named_in_error(self, scale4):
        from prmeval.corpus import JudgmentPair

        pairs = [JudgmentPair("201", "d1", 0, 0), JudgmentPair("201", "d2", 1, 1)]
        table = estimate_symmetric(pairs, UserModel(1), scale4)
        with pytest.raises(EstimationError, match="level 3"):
            count_prm({3: 2}, table)

    def test_linearity_in_counts(self, golden_table):
        a = count_prm({0: 1, 2: 3}, golden_table)
        b = count_prm({1: 2}, golden_table)
        combined = count_prm({0: 1, 1: 2, 2: 3}, golden_table)
        assert abs(combined - (a + b)) < 1e-12


def precision_at(docs: list[str], levels: dict[str, int], table, n: int) -> float:
    """Expected precision at n of one ranked list, scored as a one-topic run."""
    report = expected_precision_report(_run_from_lists({"t1": docs}), {"t1": levels}, table, n)
    return report.per_topic[0][1]


class TestExpectedPrecision:
    def test_all_top_level(self):
        table = DisagreementTable.from_json_dict(
            {
                "scale": {"labels": ["Non", "Rel", "HRel", "Key"]},
                "theta": 3,
                "cells": [
                    {"level": 0, "p": 0.01},
                    {"level": 1, "p": 0.04},
                    {"level": 2, "p": 0.27},
                    {"level": 3, "p": 0.53},
                ],
            }
        )
        docs = [f"d{i}" for i in range(10)]
        levels = {d: 3 for d in docs}
        assert abs(precision_at(docs, levels, table, 10) - 0.53) < 1e-12

    def test_degenerate_equals_classical(self):
        table = degenerate_table(2, 1)
        docs = ["a", "b", "c", "d"]
        levels = {"a": 2, "b": 0, "c": 1, "d": 0}
        # 2 relevant in top 4
        assert precision_at(docs, levels, table, 4) == 0.5

    def test_unjudged_docs_count_as_level_zero(self, golden_table):
        docs = ["a", "unjudged1", "unjudged2"]
        levels = {"a": 2}
        got = precision_at(docs, levels, golden_table, 3)
        expected = (4 / 10 + 2 * (1 / 13)) / 3
        assert abs(got - expected) < 1e-12

    def test_short_list_divides_by_cutoff(self, golden_table):
        got = precision_at(["a"], {"a": 2}, golden_table, 10)
        assert abs(got - (4 / 10) / 10) < 1e-12

    def test_cutoff_below_one_has_the_k_message(self, golden_table):
        with pytest.raises(ValidationError, match=r"^k must be >= 1, got 0$"):
            precision_at(["a"], {"a": 2}, golden_table, 0)

    def test_monte_carlo_simulation_oracle(self, golden_table):
        rng = np.random.default_rng(42)
        levels_vec = rng.integers(0, 3, size=10)
        docs = [f"d{i}" for i in range(10)]
        levels = {d: int(lvl) for d, lvl in zip(docs, levels_vec)}
        expected = precision_at(docs, levels, golden_table, 10)
        p = np.array([golden_table.p(lvl) for lvl in levels_vec])
        worlds = rng.random((100_000, 10)) < p
        precisions = worlds.mean(axis=1)
        mc_mean = precisions.mean()
        mc_sigma = precisions.std(ddof=1) / math.sqrt(len(precisions))
        assert abs(mc_mean - expected) < 3 * mc_sigma


class TestGainSchemes:
    def test_binary_vector(self):
        assert GainScheme.binary(3, 2).gains == (0.0, 0.0, 1.0, 1.0)

    def test_binary_theta_bounds(self):
        with pytest.raises(ValidationError):
            GainScheme.binary(3, 0)
        with pytest.raises(ValidationError):
            GainScheme.binary(3, 4)

    def test_linear_vector(self):
        assert GainScheme.linear(3).gains == (0.0, 1.0, 2.0, 3.0)

    def test_exponential_vector(self):
        assert GainScheme.exponential(3).gains == (0.0, 1.0, 3.0, 7.0)

    def test_prm_vector(self, golden_table):
        scheme = GainScheme.prm(golden_table)
        assert scheme.gains == (1 / 13, 5 / 17, 4 / 10)

    def test_prm_requires_all_cells(self, scale4):
        from prmeval.corpus import JudgmentPair

        pairs = [JudgmentPair("201", "d1", 0, 0), JudgmentPair("201", "d2", 1, 1)]
        table = estimate_symmetric(pairs, UserModel(1), scale4)
        with pytest.raises(MetricError, match="undefined levels \\[2, 3\\]"):
            GainScheme.prm(table)

    def test_udm_vector(self):
        table = DisagreementTable.from_json_dict(
            {
                "scale": {"labels": ["Non", "Rel", "HRel", "Key"]},
                "theta": 3,
                "cells": [
                    {"level": 0, "p": 0.01},
                    {"level": 1, "p": 0.04},
                    {"level": 2, "p": 0.27},
                    {"level": 3, "p": 0.53},
                ],
            }
        )
        scheme = GainScheme.udm(table)
        assert scheme.gains == (0.0, 0.04, 0.27, 1.0)

    def test_udm_requires_top_threshold(self, golden_table, golden_pairs, scale3):
        # golden_table has theta=2=T for a 3-level scale, so this passes
        assert GainScheme.udm(golden_table).gains[-1] == 1.0
        lower = estimate_symmetric(golden_pairs, UserModel(1), scale3)
        with pytest.raises(MetricError, match="top level"):
            GainScheme.udm(lower)

    def test_custom_rejects_all_zero(self):
        with pytest.raises(ValidationError, match="all zero"):
            GainScheme.custom([0.0, 0.0])

    def test_gains_must_be_finite_non_negative(self):
        with pytest.raises(ValidationError):
            GainScheme("bad", (0.0, -1.0))
        with pytest.raises(ValidationError):
            GainScheme("bad", (0.0, math.inf))


class TestDiscounts:
    def test_log2_golden(self):
        d = DiscountFunction.log(2.0)
        assert d.weight(1) == 1.0
        assert abs(d.weight(2) - 1 / math.log2(3)) < 1e-12

    def test_zipf_golden(self):
        d = DiscountFunction.zipf()
        assert d.weight(1) == 1.0
        assert d.weight(4) == 0.25

    def test_weights_vector_matches_scalar(self):
        for d in (DiscountFunction.log(2.0), DiscountFunction.log(10.0), DiscountFunction.zipf()):
            vec = d.weights(20)
            for r in range(1, 21):
                assert abs(vec[r - 1] - d.weight(r)) < 1e-12

    def test_zipf_below_log2_from_rank_2(self):
        log2 = DiscountFunction.log(2.0)
        zipf = DiscountFunction.zipf()
        for r in range(2, 100):
            assert zipf.weight(r) <= log2.weight(r)

    def test_non_increasing(self):
        for d in (DiscountFunction.log(2.0), DiscountFunction.zipf()):
            w = d.weights(50)
            assert all(b <= a for a, b in zip(w, w[1:]))

    def test_base_must_exceed_one(self):
        with pytest.raises(ValidationError, match="base"):
            DiscountFunction.log(1.0)

    @pytest.mark.parametrize(
        "base, message",
        [
            (float("nan"), "log discount base must be > 1, got nan"),
            (float("inf"), "log discount base must be finite, got inf"),
            (1.0, "log discount base must be > 1, got 1.0"),
        ],
    )
    def test_base_must_be_finite_and_above_one(self, base, message):
        with pytest.raises(ValidationError) as excinfo:
            DiscountFunction.log(base)
        assert str(excinfo.value) == message


class TestDcg:
    def test_single_top_result(self):
        scheme = GainScheme.binary(2, 2)
        for discount in (DiscountFunction.log(2.0), DiscountFunction.zipf()):
            assert dcg_from_levels([2], scheme, discount, 5) == discount.weight(1)

    def test_linear_zipf_golden(self):
        got = dcg_from_levels([2, 0, 1], GainScheme.linear(2), DiscountFunction.zipf(), 3)
        assert abs(got - (2 / 1 + 0 / 2 + 1 / 3)) < 1e-12

    def test_linear_log2_golden(self):
        got = dcg_from_levels([2, 0, 1], GainScheme.linear(2), DiscountFunction.log(2.0), 3)
        assert abs(got - 2.5) < 1e-12

    def test_shorter_lists_not_padded(self):
        scheme = GainScheme.linear(2)
        d = DiscountFunction.zipf()
        assert dcg_from_levels([2], scheme, d, 10) == dcg_from_levels([2], scheme, d, 1)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        levels = list(rng.integers(0, 3, size=30))
        scheme = GainScheme.linear(2)
        d = DiscountFunction.log(2.0)
        values = [dcg_from_levels(levels, scheme, d, k) for k in range(1, 31)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 2), max_size=40),
        st.sampled_from([
            GainScheme.binary(2, 1), GainScheme.linear(2), GainScheme.exponential(2),
            GainScheme.custom([0.3, 0.7, 2.9]),
        ]),
        st.sampled_from([
            DiscountFunction.log(2.0), DiscountFunction.log(10.0), DiscountFunction.log(1.5),
            DiscountFunction.zipf(),
        ]),
        st.integers(1, 50),
    )
    @example([2, 2, 2, 2], GainScheme.exponential(2), DiscountFunction.log(2.0), 4)
    def test_levels_dcg_is_topic_dcg_bit_for_bit(self, levels, scheme, discount, k):
        docs = [f"d{i}" for i in range(len(levels))]
        dcg = topic_dcg(docs, dict(zip(docs, levels)), scheme, discount, k)
        assert dcg_from_levels(levels, scheme, discount, k) == dcg
        if levels == sorted(levels, reverse=True) and levels:
            assert ideal_dcg_at_k(levels, scheme, discount, k) == dcg

    def test_out_of_range_level_is_a_metric_error(self):
        d = DiscountFunction.zipf()
        for levels in ([3], [-1]):
            with pytest.raises(MetricError, match="outside gain vector 0..2"):
                dcg_from_levels(levels, GainScheme.linear(2), d, 5)
            with pytest.raises(MetricError, match="outside gain vector 0..2"):
                ideal_dcg_at_k(levels, GainScheme.linear(2), d, 5)

    def test_duplicates_earn_gain_once_but_consume_ranks(self):
        levels = {"a": 2, "b": 1}
        scheme = GainScheme.linear(2)
        d = DiscountFunction.zipf()
        got = topic_dcg(["a", "a", "b"], levels, scheme, d, 3)
        assert abs(got - (2 / 1 + 0.0 + 1 / 3)) < 1e-12

    def test_unjudged_docs_are_level_zero(self):
        scheme = GainScheme.linear(2)
        d = DiscountFunction.zipf()
        assert topic_dcg(["x"], {}, scheme, d, 1) == 0.0


class TestIdealDcg:
    def test_pool_sorted_by_gain(self, golden_table):
        scheme = GainScheme.prm(golden_table)
        got = ideal_dcg_at_k([2, 2, 1, 0], scheme, DiscountFunction.log(2.0), 2)
        expected = 0.4 + 0.4 / math.log2(3)
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.6524) < 5e-5

    def test_all_level_zero_binary_pool(self):
        assert ideal_dcg_at_k([0, 0, 0], GainScheme.binary(2, 1), DiscountFunction.zipf(), 3) == 0.0

    def test_empty_pool_warns(self):
        with pytest.warns(DataWarning, match="empty"):
            assert ideal_dcg_at_k([], GainScheme.linear(2), DiscountFunction.zipf(), 3) == 0.0

    def test_rearrangement_bound(self):
        rng = np.random.default_rng(9)
        scheme = GainScheme.linear(3)
        d = DiscountFunction.log(2.0)
        for _ in range(50):
            levels = list(rng.integers(0, 4, size=15))
            run_dcg = dcg_from_levels(levels, scheme, d, 10)
            assert ideal_dcg_at_k(levels, scheme, d, 10) >= run_dcg - 1e-12


def _run_from_lists(per_topic: dict[str, list[str]]) -> RunRanking:
    entries = []
    for topic, docs in per_topic.items():
        entries.extend(
            RunEntry(topic, doc, rank, float(len(docs) - rank))
            for rank, doc in enumerate(docs, start=1)
        )
    return RunRanking("sysA", tuple(entries))


class TestNdcg:
    def test_perfect_ranking_scores_one(self):
        levels = {"t1": {"a": 2, "b": 1, "c": 0}}
        run = _run_from_lists({"t1": ["a", "b", "c"]})
        report = ndcg_at_k(run, levels, GainScheme.linear(2), DiscountFunction.log(2.0), 3)
        assert report.per_topic == (("t1", 1.0),)

    def test_degenerate_prm_equals_binary(self):
        run, levels, scale, theta = synth.random_eval_fixture(7)
        table = degenerate_table(scale.top_index, theta)
        d = DiscountFunction.log(2.0)
        binary = ndcg_at_k(run, levels, GainScheme.binary(scale.top_index, theta), d, 10)
        prm = ndcg_at_k(run, levels, GainScheme.prm(table), d, 10)
        assert binary.per_topic == prm.per_topic
        assert binary.mean == prm.mean

    def test_zero_ideal_topics_excluded_with_warning(self):
        levels = {"t1": {"a": 2}, "t2": {"x": 0}}
        run = _run_from_lists({"t1": ["a"], "t2": ["x"]})
        with pytest.warns(DataWarning, match="zero ideal"):
            report = ndcg_at_k(
                run, levels, GainScheme.binary(2, 1), DiscountFunction.zipf(), 5
            )
        assert report.excluded == ("t2",)
        assert [t for t, _ in report.per_topic] == ["t1"]

    @pytest.mark.filterwarnings("ignore::prmeval.errors.DataWarning")
    def test_all_excluded_is_error(self):
        levels = {"t1": {"a": 0}}
        run = _run_from_lists({"t1": ["a"]})
        with pytest.raises(MetricError, match="zero ideal"):
            ndcg_at_k(run, levels, GainScheme.binary(2, 1), DiscountFunction.zipf(), 5)

    def test_strict_mode_rejects_unjudged_topics(self):
        levels = {"t1": {"a": 1}}
        run = _run_from_lists({"t1": ["a"], "t2": ["b"]})
        with pytest.raises(MetricError, match="strict"):
            ndcg_at_k(
                run, levels, GainScheme.binary(2, 1), DiscountFunction.zipf(), 5,
                strict=True,
            )

    def test_lenient_mode_skips_unjudged_topics(self):
        levels = {"t1": {"a": 1}}
        run = _run_from_lists({"t1": ["a"], "t2": ["b"]})
        with pytest.warns(DataWarning, match="skipping"):
            report = ndcg_at_k(
                run, levels, GainScheme.binary(2, 1), DiscountFunction.zipf(), 5
            )
        assert [t for t, _ in report.per_topic] == ["t1"]

    def test_range_invariant_with_positive_zero_gain(self, golden_table):
        # a run padded with unjudged docs must not exceed 1.0 even though
        # level 0 carries positive gain under prm
        levels = {"t1": {"a": 1}}
        docs = ["a"] + [f"pad{i}" for i in range(9)]
        run = _run_from_lists({"t1": docs})
        scheme = GainScheme.prm(golden_table)
        report = ndcg_at_k(run, levels, scheme, DiscountFunction.log(2.0), 10)
        assert 0.0 <= report.per_topic[0][1] <= 1.0

    def test_run_local_pool_self_normalizes(self):
        levels = {"t1": {"a": 2, "b": 1, "z": 2}}
        run = _run_from_lists({"t1": ["a", "b"]})
        report = ndcg_at_k(
            run, levels, GainScheme.linear(2), DiscountFunction.log(2.0), 5,
            ideal_pool="run",
        )
        assert report.per_topic == (("t1", 1.0),)

    def test_qrels_pool_counts_unretrieved_docs(self):
        levels = {"t1": {"a": 2, "b": 1, "z": 2}}
        run = _run_from_lists({"t1": ["a", "b"]})
        report = ndcg_at_k(
            run, levels, GainScheme.linear(2), DiscountFunction.log(2.0), 5
        )
        assert report.per_topic[0][1] < 1.0

    def test_scale_invariance_of_gains(self):
        run, levels, scale, _ = synth.random_eval_fixture(21)
        d = DiscountFunction.log(2.0)
        base = GainScheme.linear(scale.top_index)
        scaled = GainScheme.custom([g * 7.5 for g in base.gains])
        r1 = ndcg_at_k(run, levels, base, d, 10)
        r2 = ndcg_at_k(run, levels, scaled, d, 10)
        for (t1, v1), (t2, v2) in zip(r1.per_topic, r2.per_topic):
            assert t1 == t2
            assert abs(v1 - v2) < 1e-12

    @pytest.mark.filterwarnings("ignore::prmeval.errors.DataWarning")
    def test_range_on_random_fixtures(self):
        d = DiscountFunction.log(2.0)
        for seed in range(20):
            run, levels, scale, theta = synth.random_eval_fixture(seed)
            for scheme in (
                GainScheme.binary(scale.top_index, theta),
                GainScheme.linear(scale.top_index),
                GainScheme.exponential(scale.top_index),
            ):
                try:
                    report = ndcg_at_k(run, levels, scheme, d, 10)
                except MetricError:
                    continue
                for _, v in report.per_topic:
                    assert 0.0 <= v <= 1.0 + 1e-12


class TestMetricReport:
    def test_mean_and_stderr(self):
        report = MetricReport.from_values(
            "ndcg", 10, {"t1": 0.2, "t2": 0.4, "t3": 0.9}
        )
        assert abs(report.mean - 0.5) < 1e-12
        expected_stderr = math.sqrt(0.13) / math.sqrt(3)
        assert abs(report.stderr_of_mean - expected_stderr) < 1e-12
        assert report.n_topics == 3

    def test_single_topic_stderr_zero(self):
        # one topic gives no standard error: None, not 0.0
        report = MetricReport.from_values("ndcg", 10, {"t1": 0.7})
        assert report.stderr_of_mean is None
        assert report.to_csv().endswith("\nstderr,\n")
        assert report.to_trec_text().endswith("ndcg@10\tstderr\tn/a\n")
        assert report.to_json_dict()["stderr_of_mean"] is None

    def test_topics_sorted_ascending(self):
        report = MetricReport.from_values("m", None, {"t2": 1.0, "t10": 2.0, "t1": 3.0})
        assert [t for t, _ in report.per_topic] == ["t1", "t10", "t2"]

    def test_insertion_order_does_not_matter(self):
        a = MetricReport.from_values("m", 5, {"t1": 0.125, "t2": 0.375, "t3": 0.5})
        b = MetricReport.from_values("m", 5, {"t3": 0.5, "t1": 0.125, "t2": 0.375})
        assert a == b
        assert repr(a.mean) == repr(b.mean)

    def test_replaced_values_give_their_own_summary(self):
        # mean and stderr are derived, so a copy with new values reports them
        report = MetricReport.from_values("m", None, {"t1": 0.5, "t2": 1.0})
        again = replace(report, per_topic=(("t1", 0.25), ("t2", 0.75)))
        assert again.mean == 0.5
        assert again.stderr_of_mean == pytest.approx(0.25)
        assert replace(report, per_topic=(("t1", 0.5),)).stderr_of_mean is None

    def test_trec_text_four_decimals(self):
        report = MetricReport.from_values("ndcg", 10, {"t1": 1 / 3})
        text = report.to_trec_text()
        assert "ndcg@10\tt1\t0.3333" in text
        assert "ndcg@10\tall\t0.3333" in text

    def test_csv_full_precision(self):
        report = MetricReport.from_values("ndcg", 10, {"t1": 1 / 3, "t2": 0.5})
        csv = report.to_csv()
        assert repr(1 / 3) in csv
        assert csv.startswith("topic,value\n")

    def test_json_dict(self):
        report = MetricReport.from_values("m", None, {"t1": 0.5}, excluded=["t9"])
        obj = report.to_json_dict()
        assert obj["per_topic"] == {"t1": 0.5}
        assert obj["excluded_topics"] == ["t9"]
        assert obj["n_topics"] == 1


class TestCountReports:
    def test_binary_count_report(self, scale3, golden_qrels_u1):
        from prmeval.corpus import parse_qrels

        js = parse_qrels(golden_qrels_u1.splitlines(), scale3, "u1")
        report = binary_count_report(js.doc_levels(), 2)
        assert report.per_topic == (("201", 4.0),)

    def test_expected_count_report(self, scale3, golden_qrels_u1, golden_table):
        from prmeval.corpus import parse_qrels

        js = parse_qrels(golden_qrels_u1.splitlines(), scale3, "u1")
        report = expected_count_report(js.doc_levels(), golden_table)
        expected = 6 * (1 / 13) + 10 * (5 / 17) + 4 * (4 / 10)
        assert abs(report.per_topic[0][1] - expected) < 1e-12


class TestExpectedPrecisionReport:
    def test_per_topic(self, golden_table):
        levels = {"t1": {"a": 2, "b": 0}, "t2": {"c": 1}}
        run = _run_from_lists({"t1": ["a", "b"], "t2": ["c", "zzz"]})
        report = expected_precision_report(run, levels, golden_table, 2)
        v1 = (4 / 10 + 1 / 13) / 2
        v2 = (5 / 17 + 1 / 13) / 2
        assert abs(report.per_topic[0][1] - v1) < 1e-12
        assert abs(report.per_topic[1][1] - v2) < 1e-12
