from __future__ import annotations

import math
import operator
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synth
from prmeval.analysis import (
    BootstrapResult,
    LevelSeries,
    SensitivityCurve,
    SystemRanking,
    _quartiles,
    bootstrap_topics,
    kendall_tau,
    quality_sensitivity,
    rank_by_ndcg,
    robustness_study,
    simulate_annotation_rounds,
)
from prmeval.corpus import Judgment, JudgmentPair, JudgmentSet, RelevanceScale, RunRanking
from prmeval.disagreement import UserModel, estimate_one_sided, estimate_symmetric
from prmeval.errors import DataWarning, EstimationError, MetricError, ValidationError
from prmeval.metrics import DiscountFunction, GainScheme

SCALE3 = synth.SCALE3


def ranking(scores: dict[str, float]) -> SystemRanking:
    return SystemRanking.from_scores("m", scores)


def tau_oracle(a: SystemRanking, b: SystemRanking, variant: str) -> float:
    # Quadratic-time pair census sharing only the final float expression
    # with the production implementation.
    ids = sorted(a.system_ids())
    xs = [a.score_map()[s] for s in ids]
    ys = [b.score_map()[s] for s in ids]
    n = len(ids)
    n0 = n * (n - 1) // 2
    conc = disc = n1 = n2 = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0:
                n1 += 1
            if dy == 0:
                n2 += 1
            if dx == 0 or dy == 0:
                continue
            if (dx > 0) == (dy > 0):
                conc += 1
            else:
                disc += 1
    c_minus_d = conc - disc
    if variant == "a":
        return c_minus_d / n0
    if n1 == n0 or n2 == n0:
        raise MetricError("tau-b undefined: one ranking is entirely tied")
    return c_minus_d / math.sqrt((n0 - n1) * (n0 - n2))


class TestKendallTau:
    def test_identical_rankings(self):
        a = ranking({"s1": 0.9, "s2": 0.5, "s3": 0.1})
        assert kendall_tau(a, a) == 1.0

    def test_full_reversal(self):
        a = ranking({"s1": 3.0, "s2": 2.0, "s3": 1.0})
        b = ranking({"s1": 1.0, "s2": 2.0, "s3": 3.0})
        assert kendall_tau(a, b) == -1.0

    def test_adjacent_swap_four_systems(self):
        a = ranking({"s1": 4.0, "s2": 3.0, "s3": 2.0, "s4": 1.0})
        b = ranking({"s1": 4.0, "s2": 3.0, "s3": 1.0, "s4": 2.0})
        # one discordant pair out of six
        assert kendall_tau(a, b) == (6 - 2) / 6
        assert abs(kendall_tau(a, b) - 0.667) < 5e-4

    def test_tied_example_by_hand(self):
        a = ranking({"s1": 3.0, "s2": 2.0, "s3": 1.0})
        b = ranking({"s1": 2.0, "s2": 2.0, "s3": 1.0})
        # pairs: (s1,s2) tied in b, (s1,s3) concordant, (s2,s3) concordant
        assert kendall_tau(a, b) == 2 / math.sqrt(3 * 2)
        assert kendall_tau(a, b, variant="a") == 2 / 3

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            a = ranking({f"s{i}": float(rng.integers(0, 5)) for i in range(n)})
            b = ranking({f"s{i}": float(rng.integers(0, 5)) for i in range(n)})
            try:
                t1 = kendall_tau(a, b)
            except MetricError:
                with pytest.raises(MetricError):
                    kendall_tau(b, a)
                continue
            assert t1 == kendall_tau(b, a)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            a = ranking({f"s{i}": float(rng.integers(0, 4)) for i in range(n)})
            b = ranking({f"s{i}": float(rng.integers(0, 4)) for i in range(n)})
            for variant in ("a", "b"):
                try:
                    t = kendall_tau(a, b, variant=variant)
                except MetricError:
                    continue
                assert -1.0 <= t <= 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        scores_a = {f"s{i}": float(rng.normal()) for i in range(10)}
        scores_b = {f"s{i}": float(rng.normal()) for i in range(10)}
        base = kendall_tau(ranking(scores_a), ranking(scores_b))
        warped = kendall_tau(
            ranking({s: math.exp(v) for s, v in scores_a.items()}),
            ranking(scores_b),
        )
        assert base == warped

    def test_matches_quadratic_oracle_exactly(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 25))
            grid = int(rng.integers(2, 8))
            a = ranking({f"s{i:02d}": float(rng.integers(0, grid)) / 4 for i in range(n)})
            b = ranking({f"s{i:02d}": float(rng.integers(0, grid)) / 4 for i in range(n)})
            for variant in ("a", "b"):
                try:
                    want = tau_oracle(a, b, variant)
                except MetricError:
                    with pytest.raises(MetricError):
                        kendall_tau(a, b, variant=variant)
                    continue
                assert kendall_tau(a, b, variant=variant) == want
                checked += 1
        assert checked > 300

    def test_matches_scipy_with_ties(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            xs = rng.integers(0, 5, size=n).astype(float)
            ys = rng.integers(0, 5, size=n).astype(float)
            a = ranking({f"s{i:02d}": float(x) for i, x in enumerate(xs)})
            b = ranking({f"s{i:02d}": float(y) for i, y in enumerate(ys)})
            try:
                got = kendall_tau(a, b)
            except MetricError:
                continue
            ids = sorted(a.system_ids())
            ref = scipy_stats.kendalltau(
                [a.score_map()[s] for s in ids], [b.score_map()[s] for s in ids]
            ).statistic
            assert got == pytest.approx(ref, abs=1e-12)

    def test_all_tied_tau_b_error_tau_a_zero(self):
        a = ranking({"s1": 1.0, "s2": 1.0, "s3": 1.0})
        b = ranking({"s1": 3.0, "s2": 2.0, "s3": 1.0})
        with pytest.raises(MetricError, match="entirely tied"):
            kendall_tau(a, b)
        assert kendall_tau(a, b, variant="a") == 0.0

    def test_mismatched_systems(self):
        a = ranking({"s1": 1.0, "s2": 0.5})
        b = ranking({"s1": 1.0, "s3": 0.5})
        with pytest.raises(ValidationError, match="different systems"):
            kendall_tau(a, b)

    def test_too_few_systems(self):
        a = ranking({"s1": 1.0})
        with pytest.raises(ValidationError, match="at least 2"):
            kendall_tau(a, a)

    def test_bad_variant(self):
        a = ranking({"s1": 1.0, "s2": 0.5})
        with pytest.raises(ValidationError, match="variant"):
            kendall_tau(a, a, variant="c")


class TestSystemRanking:
    def test_from_scores_orders_desc_then_id(self):
        r = ranking({"b": 1.0, "a": 1.0, "c": 2.0})
        assert r.systems == (("c", 2.0), ("a", 1.0), ("b", 1.0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            SystemRanking("m", (("a", 1.0), ("a", 0.5)))

    def test_disordered_scores_rejected(self):
        with pytest.raises(ValidationError, match="non-increasing"):
            SystemRanking("m", (("a", 0.5), ("b", 1.0)))


PRIOR = np.array([0.5, 0.3, 0.2])
CHANNEL = np.array(
    [
        [0.85, 0.12, 0.03],
        [0.25, 0.60, 0.15],
        [0.05, 0.45, 0.50],
    ]
)


class TestBootstrap:
    def test_deterministic_for_seed(self):
        pairs = synth.latent_channel_pairs(PRIOR, CHANNEL, 400, seed=3, n_topics=10)
        r1 = bootstrap_topics(pairs, UserModel(2), SCALE3, seed=17, n_resamples=50)
        r2 = bootstrap_topics(pairs, UserModel(2), SCALE3, seed=17, n_resamples=50)
        assert r1 == r2

    def test_seed_changes_samples(self):
        pairs = synth.latent_channel_pairs(PRIOR, CHANNEL, 400, seed=3, n_topics=10)
        r1 = bootstrap_topics(pairs, UserModel(2), SCALE3, seed=17, n_resamples=50)
        r2 = bootstrap_topics(pairs, UserModel(2), SCALE3, seed=18, n_resamples=50)
        assert r1[1].samples != r2[1].samples

    def test_samples_plus_missing_equals_resamples(self):
        pairs = synth.latent_channel_pairs(PRIOR, CHANNEL, 60, seed=4, n_topics=3)
        results = bootstrap_topics(pairs, UserModel(2), SCALE3, seed=5, n_resamples=80)
        for r in results.values():
            assert len(r.samples) + r.n_missing == 80

    def test_identical_topics_have_zero_spread(self, golden_pairs):
        cloned = [
            JudgmentPair("301", p.doc_id, p.level_u1, p.level_u2) for p in golden_pairs
        ]
        results = bootstrap_topics(
            list(golden_pairs) + cloned, UserModel(2), SCALE3, seed=1, n_resamples=40
        )
        for r in results.values():
            assert r.std == 0.0
            assert r.mean == r.samples[0]

    def test_missing_counted_when_level_confined_to_one_topic(self):
        pairs = [
            JudgmentPair("t1", "a", 2, 2),
            JudgmentPair("t1", "b", 2, 1),
            JudgmentPair("t2", "c", 1, 1),
            JudgmentPair("t2", "d", 0, 0),
            JudgmentPair("t3", "e", 1, 0),
            JudgmentPair("t3", "f", 0, 1),
        ]
        results = bootstrap_topics(
            pairs, UserModel(2), SCALE3, seed=23, n_resamples=300
        )
        assert results[2].n_missing > 0
        assert len(results[2].samples) + results[2].n_missing == 300

    def test_needs_two_topics(self, golden_pairs):
        with pytest.raises(EstimationError, match="2 topics"):
            bootstrap_topics(golden_pairs, UserModel(2), SCALE3, seed=0)

    def test_empty_pairs(self):
        with pytest.raises(EstimationError, match="no judgment pairs"):
            bootstrap_topics([], UserModel(2), SCALE3, seed=0)

    def test_seed_validation(self, golden_pairs):
        pairs = list(golden_pairs) + [JudgmentPair("202", "x", 1, 1)]
        with pytest.raises(ValidationError, match="seed"):
            bootstrap_topics(pairs, UserModel(2), SCALE3, seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            bootstrap_topics(pairs, UserModel(2), SCALE3, seed=True)

    def test_resamples_validation(self, golden_pairs):
        pairs = list(golden_pairs) + [JudgmentPair("202", "x", 1, 1)]
        with pytest.raises(ValidationError, match="n_resamples"):
            bootstrap_topics(pairs, UserModel(2), SCALE3, seed=0, n_resamples=0)

    def test_spread_tracks_binomial_sigma(self):
        pairs = synth.latent_channel_pairs(PRIOR, CHANNEL, 1200, seed=12, n_topics=30)
        table = estimate_symmetric(pairs, UserModel(2), SCALE3)
        results = bootstrap_topics(
            pairs, UserModel(2), SCALE3, seed=99, n_resamples=300
        )
        for lvl in range(3):
            sigma = table.cells[lvl].sigma
            assert 0.5 * sigma < results[lvl].std < 2.0 * sigma

    def test_one_sided_estimator_path(self):
        pairs = synth.latent_channel_pairs(PRIOR, CHANNEL, 300, seed=2, n_topics=6)
        results = bootstrap_topics(
            pairs,
            UserModel(2),
            SCALE3,
            estimator="one_sided",
            condition="u2",
            seed=7,
            n_resamples=30,
        )
        assert set(results) == {0, 1, 2}

    def test_quartiles_ordered(self):
        pairs = synth.latent_channel_pairs(PRIOR, CHANNEL, 400, seed=3, n_topics=10)
        results = bootstrap_topics(pairs, UserModel(2), SCALE3, seed=17, n_resamples=60)
        for r in results.values():
            lo, q1, med, q3, hi = r.quartiles
            assert lo <= q1 <= med <= q3 <= hi

    def test_result_validation(self):
        r = BootstrapResult.from_samples(1, [0.2, 0.4, 0.6], 2)
        assert r.mean == pytest.approx(0.4)

    def test_empty_samples_summaries_none(self):
        r = BootstrapResult.from_samples(2, [], 10)
        assert r.mean is None and r.std is None and r.quartiles is None
        obj = r.to_json_dict()
        assert obj["n_samples"] == 0 and obj["n_missing"] == 10


def _bits(values) -> list[str]:
    # +0.0 reads -0.0 as 0.0: which of two equal zeros np.percentile's
    # partition leaves at an index is unspecified, so zeros match by value
    return [(float(v) + 0.0).hex() for v in values]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(FINITE, min_size=1, max_size=2),
    st.lists(FINITE, min_size=1, max_size=40),
    st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.1, 1.0]), min_size=1, max_size=12),
))
@example([0.7])
@example([-0.3, 0.1])
@example([0.4, 0.4, 0.4, 0.1])
@example([-1.0, -3.0, 2.0, -1.0, 0.1])
def test_quartiles_match_np_percentile(samples):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.percentile(np.asarray(samples, dtype=np.float64), [0, 25, 50, 75, 100])
    if np.isfinite(want).all() and all(map(operator.le, want[:-1], want[1:])):
        assert _bits(_quartiles(samples)) == _bits(want)
    else:  # np.percentile's b - a overflowed
        assert _quartiles(samples) != tuple(want)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=40))
@example([-1e308, 1e308])
@example([-1e308, 1e308, 1e308])
@example([-1e308, -1e308, 0.0, 1e308, 1e308])
def test_quartiles_finite_and_ordered(samples):
    out = _quartiles(samples)
    assert not any(map(math.isnan, out))
    assert out[0] == min(samples) and out[-1] == max(samples)
    assert all(map(operator.le, out[:-1], out[1:]))


class TestSensitivityCurve:
    def test_x_must_increase(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            SensitivityCurve("budget", (5, 5), (LevelSeries(0, (None, None), (None, None), (0, 0)),))

    def test_series_length_checked(self):
        with pytest.raises(ValidationError, match="does not match"):
            SensitivityCurve("budget", (5, 10), (LevelSeries(0, (0.5,), (None,), (1,)),))

    def test_json_round_shape(self):
        curve = SensitivityCurve(
            "top_k_resources", (1,), (LevelSeries(0, (0.5,), (0.1,), (4,)),)
        )
        obj = curve.to_json_dict()
        assert obj["x"] == [1]
        assert obj["series"][0]["n_defined"] == [4]


def _separation_pool(delta: float, per_level: int = 200) -> list[JudgmentPair]:
    # exact composition: p(2 | u1=1) = 0.5 - delta/2, p(2 | u1=2) = 0.5 + delta/2
    pairs: list[JudgmentPair] = []
    i = 0
    for u1, frac in ((1, 0.5 - delta / 2), (2, 0.5 + delta / 2)):
        n_hi = round(per_level * frac)
        for j in range(per_level):
            pairs.append(JudgmentPair("t000", f"d{i:05d}", u1, 2 if j < n_hi else 0))
            i += 1
    return pairs


def _first_stable_separation(curve: SensitivityCurve) -> int | None:
    by_level = {s.level: s for s in curve.series}
    lo, hi = by_level[1], by_level[2]
    separated = []
    for i in range(len(curve.x)):
        vals = (lo.means[i], lo.stds[i], hi.means[i], hi.stds[i])
        separated.append(
            all(v is not None for v in vals) and vals[0] + vals[1] < vals[2] - vals[3]
        )
    for i, x in enumerate(curve.x):
        if all(separated[i:]):
            return x
    return None


class TestAnnotationBudget:
    def test_deterministic_for_seed(self, golden_pairs):
        kwargs = dict(n_rounds=20, seed=31, estimator="symmetric")
        c1 = simulate_annotation_rounds(golden_pairs, UserModel(2), SCALE3, (5, 10, 20), **kwargs)
        c2 = simulate_annotation_rounds(golden_pairs, UserModel(2), SCALE3, (5, 10, 20), **kwargs)
        assert c1 == c2

    def test_budget_zero_skipped_with_warning(self, golden_pairs):
        with pytest.warns(DataWarning, match="budget 0"):
            curve = simulate_annotation_rounds(
                golden_pairs, UserModel(2), SCALE3, (0, 5, 10), n_rounds=5, seed=2
            )
        assert curve.x == (5, 10)

    def test_budgets_must_increase(self, golden_pairs):
        with pytest.raises(ValidationError, match="strictly increasing"):
            simulate_annotation_rounds(
                golden_pairs, UserModel(2), SCALE3, (10, 10), n_rounds=5, seed=2
            )

    def test_negative_budget_rejected(self, golden_pairs):
        with pytest.raises(ValidationError, match=">= 0"):
            simulate_annotation_rounds(
                golden_pairs, UserModel(2), SCALE3, (-5, 10), n_rounds=5, seed=2
            )

    def test_all_zero_budgets_rejected(self, golden_pairs):
        with pytest.warns(DataWarning):
            with pytest.raises(ValidationError, match="no positive budgets"):
                simulate_annotation_rounds(
                    golden_pairs, UserModel(2), SCALE3, (0,), n_rounds=5, seed=2
                )

    def test_seed_required_and_validated(self, golden_pairs):
        with pytest.raises(ValidationError, match="seed"):
            simulate_annotation_rounds(
                golden_pairs, UserModel(2), SCALE3, (5,), n_rounds=5, seed=-3
            )

    def test_budget_may_exceed_pool(self, golden_pairs):
        curve = simulate_annotation_rounds(
            golden_pairs, UserModel(2), SCALE3, (100,), n_rounds=5, seed=2
        )
        assert curve.x == (100,)
        assert curve.series[2].n_defined[0] == 5

    @pytest.mark.filterwarnings("ignore::prmeval.errors.DataWarning")
    def test_spread_shrinks_with_budget(self):
        pairs = synth.latent_channel_pairs(PRIOR, CHANNEL, 3000, seed=41)
        curve = simulate_annotation_rounds(
            pairs, UserModel(2), SCALE3, (25, 100, 400, 1600), n_rounds=50, seed=13
        )
        table = estimate_symmetric(pairs, UserModel(2), SCALE3)
        for series in curve.series:
            assert series.stds[-1] < series.stds[0]
            # at the largest budget the estimate centers on the full pool value
            assert abs(series.means[-1] - table.cells[series.level].p) < 0.03

    @pytest.mark.filterwarnings("ignore::prmeval.errors.DataWarning")
    def test_separation_budget_scales_inverse_square(self):
        budgets = tuple(range(4, 164, 4))
        stars = {}
        for delta in (0.4, 0.2):
            curve = simulate_annotation_rounds(
                _separation_pool(delta),
                UserModel(2),
                SCALE3,
                budgets,
                n_rounds=200,
                seed=11,
                estimator="one_sided",
                condition="u1",
            )
            stars[delta] = _first_stable_separation(curve)
        assert stars[0.4] is not None and stars[0.2] is not None
        assert stars[0.2] > stars[0.4]
        ratio = stars[0.2] / stars[0.4]
        # halving the gap should cost about 4x the budget
        assert 2.0 <= ratio <= 6.0


class TestQualitySensitivity:
    def test_largest_k_matches_unrestricted_estimate(self):
        judgments, pairs = synth.quality_fixture(19)
        curve = quality_sensitivity(judgments, pairs, UserModel(2))
        full = estimate_symmetric(pairs, UserModel(2), SCALE3)
        for series in curve.series:
            cell = full.cells[series.level]
            assert series.means[-1] == cell.p
            assert series.stds[-1] == cell.sigma
            assert series.n_defined[-1] == cell.n_total

    def test_top_resources_confirm_more(self):
        judgments, pairs = synth.quality_fixture(19)
        curve = quality_sensitivity(judgments, pairs, UserModel(2))
        top_level = {s.level: s for s in curve.series}[2]
        assert top_level.means[0] > top_level.means[-1] + 0.04

    def test_x_is_resource_depth(self):
        judgments, pairs = synth.quality_fixture(19, n_resources=4)
        curve = quality_sensitivity(judgments, pairs, UserModel(2))
        assert curve.x_name == "top_k_resources"
        assert curve.x == (1, 2, 3, 4)

    def test_single_resource_collapses_to_global(self):
        judgments, pairs = synth.quality_fixture(19, n_resources=1)
        curve = quality_sensitivity(judgments, pairs, UserModel(2))
        full = estimate_symmetric(pairs, UserModel(2), SCALE3)
        assert curve.x == (1,)
        for series in curve.series:
            assert series.means[0] == full.cells[series.level].p

    def test_ties_break_to_smaller_resource_id(self):
        # both resources place one doc in the top two levels; resA wins the
        # tie, so k=1 restricts to its (fully confirmed) documents
        judgments = JudgmentSet(
            SCALE3,
            (Judgment("t1", "a1", 2), Judgment("t1", "b1", 2)),
            "ref",
            {"a1": "resA", "b1": "resB"},
        )
        pairs = [JudgmentPair("t1", "a1", 2, 2), JudgmentPair("t1", "b1", 2, 0)]
        curve = quality_sensitivity(judgments, pairs, UserModel(2))
        top = {s.level: s for s in curve.series}[2]
        assert top.means[0] == 1.0
        # at k=2 the symmetric estimator pools both directions: (1+1)/(1+2)
        assert top.means[1] == 2 / 3

    def test_requires_resource_metadata(self):
        judgments = JudgmentSet(SCALE3, (Judgment("t1", "a", 2),), "ref")
        with pytest.raises(ValidationError, match="resource"):
            quality_sensitivity(judgments, [JudgmentPair("t1", "a", 2, 2)], UserModel(2))

    def test_uncovered_pairs_rejected(self):
        judgments = JudgmentSet(SCALE3, (Judgment("t1", "a", 2),), "ref", {"a": "r"})
        pairs = [JudgmentPair("t1", "a", 2, 2), JudgmentPair("t1", "zz", 1, 1)]
        with pytest.raises(ValidationError, match="absent from the reference"):
            quality_sensitivity(judgments, pairs, UserModel(2))

    def test_empty_pairs(self):
        judgments = JudgmentSet(SCALE3, (Judgment("t1", "a", 2),), "ref", {"a": "r"})
        with pytest.raises(EstimationError, match="no judgment pairs"):
            quality_sensitivity(judgments, [], UserModel(2))


@pytest.mark.filterwarnings("ignore::prmeval.errors.DataWarning")
class TestRobustness:
    def test_identical_judgment_sets_give_tau_one(self):
        runs, levels_u1, _, pairs = synth.robustness_benchmark(0)
        table = estimate_symmetric(pairs, UserModel(2), SCALE3)
        schemes = {
            "binary": GainScheme.binary(2, 2),
            "prm": GainScheme.prm(table),
        }
        out = robustness_study(runs[:5], levels_u1, levels_u1, schemes, 10)
        assert out == {"binary": 1.0, "prm": 1.0}

    def test_benchmark_taus_in_range(self):
        runs, levels_u1, levels_u2, pairs = synth.robustness_benchmark(1)
        table = estimate_symmetric(pairs, UserModel(2), SCALE3)
        schemes = {
            "binary": GainScheme.binary(2, 2),
            "prm": GainScheme.prm(table),
            "linear": GainScheme.linear(2),
        }
        out = robustness_study(runs, levels_u1, levels_u2, schemes, 10)
        assert set(out) == set(schemes)
        for tau in out.values():
            assert -1.0 <= tau <= 1.0

    def test_default_discount_is_log2(self):
        runs, levels_u1, levels_u2, _ = synth.robustness_benchmark(2)
        schemes = {"linear": GainScheme.linear(2)}
        implicit = robustness_study(runs[:4], levels_u1, levels_u2, schemes, 10)
        explicit = robustness_study(
            runs[:4], levels_u1, levels_u2, schemes, 10, DiscountFunction.log(2.0)
        )
        assert implicit == explicit

    def test_needs_two_runs(self):
        runs, levels_u1, levels_u2, _ = synth.robustness_benchmark(3)
        with pytest.raises(ValidationError, match="at least 2 runs"):
            robustness_study(runs[:1], levels_u1, levels_u2, {"b": GainScheme.binary(2, 2)}, 10)

    def test_duplicate_run_ids(self):
        runs, levels_u1, levels_u2, _ = synth.robustness_benchmark(3)
        with pytest.raises(ValidationError, match="duplicate"):
            robustness_study(
                [runs[0], runs[0]], levels_u1, levels_u2, {"b": GainScheme.binary(2, 2)}, 10
            )

    def test_repeated_id_is_caught_where_it_is_read(self):
        runs, levels_u1, levels_u2, _ = synth.robustness_benchmark(3)

        def stream():
            yield from (runs[0], runs[1], runs[0])
            pytest.fail("a run was read after the repeated one")

        with pytest.raises(ValidationError, match=r"^duplicate system id among runs: 'sys00'$"):
            robustness_study(stream(), levels_u1, levels_u2, {"b": GainScheme.binary(2, 2)}, 10)


class _WeakRun(RunRanking):
    __slots__ = ("__weakref__",)


def _ranking_bits(rankings: list[dict[str, SystemRanking]]) -> list:
    # every score as its exact bit pattern
    return [
        {name: (r.measure, [(s, v.hex()) for s, v in r.systems]) for name, r in by_name.items()}
        for by_name in rankings
    ]


@pytest.mark.filterwarnings("ignore::prmeval.errors.DataWarning")
class TestRankByNdcg:
    SCHEMES = {"binary": GainScheme.binary(2, 2), "linear": GainScheme.linear(2)}

    def rank(self, runs, judged, **kwargs):
        return rank_by_ndcg(runs, judged, self.SCHEMES, DiscountFunction.log(2.0), 10, **kwargs)

    def test_generator_ranks_like_a_list(self):
        runs, levels_u1, levels_u2, _ = synth.robustness_benchmark(4)
        for judged in ([levels_u1], [levels_u1, levels_u2]):
            streamed = self.rank((r for r in runs), judged)
            assert _ranking_bits(streamed) == _ranking_bits(self.rank(runs, judged))

    @pytest.mark.parametrize("ideal_pool", ["qrels", "run"])
    def test_two_maps_in_one_call_equal_two_calls(self, ideal_pool):
        runs, levels_u1, levels_u2, _ = synth.robustness_benchmark(5)
        both = self.rank(runs, [levels_u1, levels_u2], ideal_pool=ideal_pool)
        apart = [self.rank(runs, [levels], ideal_pool=ideal_pool)[0]
                 for levels in (levels_u1, levels_u2)]
        assert _ranking_bits(both) == _ranking_bits(apart)
        assert both[0]["binary"].measure == "ndcg_binary@10"

    def test_a_run_is_dropped_before_the_one_after_next_is_read(self):
        runs, levels_u1, levels_u2, _ = synth.robustness_benchmark(6)
        refs: list[weakref.ref] = []

        def stream():
            for i, run in enumerate(runs):
                if i >= 2:
                    assert refs[i - 2]() is None, f"run {i - 2} alive when run {i} is read"
                run = _WeakRun(run.system_id, run.entries)
                refs.append(weakref.ref(run))
                yield run

        out = self.rank(stream(), [levels_u1, levels_u2])
        assert len(refs) == len(runs)
        assert _ranking_bits(out) == _ranking_bits(self.rank(runs, [levels_u1, levels_u2]))

    def test_repeated_id_names_only_that_id(self):
        runs, levels_u1, _, _ = synth.robustness_benchmark(7)
        with pytest.raises(ValidationError, match=r"^duplicate system id among runs: 'sys01'$"):
            self.rank([runs[0], runs[1], runs[2], runs[1]], [levels_u1])
