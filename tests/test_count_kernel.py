"""Differential tests: the count-matrix kernel against pair-by-pair references.

The references below are the straightforward implementations the kernel
replaced: estimators that walk the pair list with ``Counter``s, and
analyses that rebuild the list of pairs for every resample, budget round
and quality step.  Tables, summaries, warnings (text and order) and
errors must all match.  The count matrices themselves are checked against
the ``np.bincount`` kernel that counted them before they became nested
lists of ints.
"""

from __future__ import annotations

import warnings
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prmeval.analysis import (
    BootstrapResult,
    LevelSeries,
    SensitivityCurve,
    bootstrap_topics,
    quality_sensitivity,
    simulate_annotation_rounds,
)
from prmeval.corpus import Judgment, JudgmentPair, JudgmentSet, RelevanceScale
from prmeval.disagreement import (
    DisagreementCell,
    DisagreementTable,
    UserModel,
    cell_sigma,
    code_counts,
    estimate,
    estimate_one_sided,
    estimate_symmetric,
    group_pair_counts,
    pair_codes,
    table_from_counts,
)
from prmeval.errors import DataWarning, EstimationError, PrmError, ValidationError

# -- reference implementations ---------------------------------------------


def ref_build_table(counts, scale, theta, estimator, condition):
    cells = []
    for level in range(scale.top_index + 1):
        n_match, n_total = counts.get(level, (0, 0))
        if n_total == 0:
            cells.append(DisagreementCell(level, 0, 0, None, None))
        else:
            cells.append(
                DisagreementCell(
                    level, n_match, n_total, n_match / n_total, cell_sigma(n_match, n_total)
                )
            )
    return DisagreementTable(scale, theta, tuple(cells), estimator, condition)


def ref_check_inputs(pairs, user_model, scale):
    if not pairs:
        raise EstimationError("no judgment pairs to estimate from")
    user_model.check_against(scale)
    for p in pairs:
        for lvl in (p.level_u1, p.level_u2):
            scale.check_level(lvl)


def ref_one_sided(pairs, user_model, scale, condition="u1"):
    ref_check_inputs(pairs, user_model, scale)
    if condition not in ("u1", "u2"):
        raise ValidationError(f"condition must be 'u1' or 'u2', got {condition!r}")
    totals: Counter[int] = Counter()
    matches: Counter[int] = Counter()
    for pair in pairs:
        given_, other = (
            (pair.level_u1, pair.level_u2) if condition == "u1"
            else (pair.level_u2, pair.level_u1)
        )
        totals[given_] += 1
        if user_model.relevant(other):
            matches[given_] += 1
    counts = {lvl: (matches[lvl], totals[lvl]) for lvl in totals}
    return ref_build_table(counts, scale, user_model.theta, "one_sided", condition)


def ref_symmetric(pairs, user_model, scale, one_sided_collection=False):
    ref_check_inputs(pairs, user_model, scale)
    if one_sided_collection:
        raise EstimationError(
            "symmetric estimator is biased when the second round judged only "
            "results the first round rated above 0; use estimate_one_sided "
            "with condition='u1'"
        )
    totals: Counter[int] = Counter()
    matches: Counter[int] = Counter()
    for pair in pairs:
        totals[pair.level_u1] += 1
        totals[pair.level_u2] += 1
        if user_model.relevant(pair.level_u2):
            matches[pair.level_u1] += 1
        if user_model.relevant(pair.level_u1):
            matches[pair.level_u2] += 1
    counts = {lvl: (matches[lvl], totals[lvl]) for lvl in totals}
    return ref_build_table(counts, scale, user_model.theta, "symmetric", None)


def ref_estimate(pairs, user_model, scale, estimator, condition, one_sided_collection=False):
    if estimator == "symmetric":
        return ref_symmetric(pairs, user_model, scale, one_sided_collection)
    return ref_one_sided(pairs, user_model, scale, condition)


def ref_bootstrap(pairs, user_model, scale, estimator, condition, n_resamples, seed):
    by_topic: dict[str, list[JudgmentPair]] = {}
    for p in pairs:
        by_topic.setdefault(p.topic_id, []).append(p)
    topics = sorted(by_topic)
    samples = {lvl: [] for lvl in range(scale.top_index + 1)}
    missing = {lvl: 0 for lvl in range(scale.top_index + 1)}
    for r in range(n_resamples):
        drawn = np.random.default_rng([seed, r]).integers(0, len(topics), size=len(topics))
        resampled = [p for t in drawn for p in by_topic[topics[t]]]
        table = ref_estimate(resampled, user_model, scale, estimator, condition)
        for cell in table.cells:
            if cell.defined:
                samples[cell.level].append(cell.p)
            else:
                missing[cell.level] += 1
    return {
        lvl: BootstrapResult.from_samples(lvl, samples[lvl], missing[lvl])
        for lvl in range(scale.top_index + 1)
    }


def ref_budget(pairs, user_model, scale, budgets, n_rounds, seed, estimator, condition):
    kept = []
    for b in budgets:
        if b == 0:
            warnings.warn("budget 0 skipped", DataWarning, stacklevel=2)
            continue
        kept.append(b)
    per_round = {(b, lvl): [] for b in kept for lvl in range(scale.top_index + 1)}
    for r in range(n_rounds):
        draw = np.random.default_rng([seed, r]).integers(0, len(pairs), size=kept[-1])
        for b in kept:
            sampled = [pairs[i] for i in draw[:b]]
            table = ref_estimate(sampled, user_model, scale, estimator, condition)
            for cell in table.cells:
                if cell.defined:
                    per_round[(b, cell.level)].append(cell.p)
    series = []
    for lvl in range(scale.top_index + 1):
        means, stds, counts = [], [], []
        for b in kept:
            vals = per_round[(b, lvl)]
            counts.append(len(vals))
            arr = np.asarray(vals, dtype=np.float64)
            means.append(float(arr.mean()) if vals else None)
            stds.append(float(arr.std(ddof=1)) if len(vals) > 1 else None)
        series.append(LevelSeries(lvl, tuple(means), tuple(stds), tuple(counts)))
    return SensitivityCurve("budget", tuple(kept), tuple(series))


def ref_quality(judgments, pairs, user_model, estimator, condition):
    scale = judgments.scale
    docs: dict[str, dict[str, set[str]]] = {}
    strong: dict[str, dict[str, int]] = {}
    for j in judgments.judgments:
        resource = judgments.resources[j.doc_id]
        docs.setdefault(j.topic_id, {}).setdefault(resource, set()).add(j.doc_id)
        counts = strong.setdefault(j.topic_id, {})
        counts[resource] = counts.get(resource, 0) + (j.level >= scale.top_index - 1)
    order = {t: sorted(c, key=lambda res: (-c[res], res)) for t, c in strong.items()}
    ks = range(1, max(len(o) for o in order.values()) + 1)
    levels = range(scale.top_index + 1)
    means = {lvl: [] for lvl in levels}
    stds = {lvl: [] for lvl in levels}
    n_def = {lvl: [] for lvl in levels}
    for k in ks:
        selected = {(t, d) for t, o in order.items() for res in o[:k] for d in docs[t][res]}
        subset = [p for p in pairs if (p.topic_id, p.doc_id) in selected]
        if not subset:
            for lvl in levels:
                means[lvl].append(None)
                stds[lvl].append(None)
                n_def[lvl].append(0)
            continue
        table = ref_estimate(subset, user_model, scale, estimator, condition)
        for cell in table.cells:
            means[cell.level].append(cell.p)
            stds[cell.level].append(cell.sigma)
            n_def[cell.level].append(cell.n_total)
    series = tuple(
        LevelSeries(lvl, tuple(means[lvl]), tuple(stds[lvl]), tuple(n_def[lvl]))
        for lvl in levels
    )
    return SensitivityCurve("top_k_resources", tuple(ks), series)


def ref_bincount(codes, scale, groups=None, n_groups=1):
    """``C[i, j]``, or ``C[g, i, j]`` per group, by ``np.bincount``."""
    n = scale.top_index + 1
    codes = np.asarray(codes, dtype=np.int64)
    if groups is not None:
        codes = np.asarray(groups, dtype=np.int64) * (n * n) + codes
    flat = np.bincount(codes, minlength=n_groups * n * n)
    return flat.reshape((n, n) if groups is None else (n_groups, n, n))


# -- helpers and strategies ---------------------------------------------------


def outcome(fn):
    """(result or error, warning messages in order) of calling fn()."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            result = fn()
        except PrmError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in rec]


def as_json(result):
    return result.to_json_dict() if isinstance(result, DisagreementTable) else result


@st.composite
def collections(draw, min_topics=1, level_slack=0):
    """A scale of 2-5 levels and 1-40 pairs over up to 4 topics."""
    n_levels = draw(st.integers(2, 5))
    scale = RelevanceScale(tuple(f"L{i}" for i in range(n_levels)))
    top = scale.top_index
    level = st.integers(-level_slack, top + level_slack)
    rows = draw(st.lists(
        st.tuples(st.integers(0, 3), level, level), min_size=1, max_size=40
    ))
    topics = {t for t, _, _ in rows}
    if len(topics) < min_topics:
        rows.append(((max(topics) + 1) % 4, 0, 0))
    pairs = [JudgmentPair(f"t{t}", f"d{i}", a, b) for i, (t, a, b) in enumerate(rows)]
    return scale, pairs


estimators = st.sampled_from([("symmetric", "u1"), ("one_sided", "u1"), ("one_sided", "u2")])


# -- estimators ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(collections(), st.data(), estimators)
def test_estimators_match_counter_loops(collection, data, choice):
    scale, pairs = collection
    theta = data.draw(st.integers(1, scale.top_index))
    estimator, condition = choice
    model = UserModel(theta)
    got = outcome(lambda: estimate(pairs, model, scale, estimator=estimator, condition=condition))
    want = outcome(lambda: ref_estimate(pairs, model, scale, estimator, condition))
    assert (as_json(got[0]), got[1]) == (as_json(want[0]), want[1])
    if estimator == "symmetric":
        direct = outcome(lambda: estimate_symmetric(pairs, model, scale))
    else:
        direct = outcome(lambda: estimate_one_sided(pairs, model, scale, condition=condition))
    assert (as_json(direct[0]), direct[1]) == (as_json(want[0]), want[1])


@settings(max_examples=150, deadline=None)
@given(collections(level_slack=2), st.integers(1, 5), estimators, st.booleans())
def test_errors_match_counter_loops(collection, theta, choice, one_sided_collection):
    # Out-of-range levels and thresholds: the same error, in the same order
    # of precedence (empty, theta, first bad level, estimator options).
    scale, pairs = collection
    estimator, condition = choice
    model = UserModel(theta)
    got = outcome(lambda: estimate(
        pairs, model, scale, estimator=estimator, condition=condition,
        one_sided_collection=one_sided_collection,
    ))
    want = outcome(lambda: ref_estimate(
        pairs, model, scale, estimator, condition, one_sided_collection
    ))
    assert (as_json(got[0]), got[1]) == (as_json(want[0]), want[1])


@settings(max_examples=80, deadline=None)
@given(collections(), st.data(), estimators)
def test_strata_sum_per_topic_counts(collection, data, choice):
    scale, pairs = collection
    theta = data.draw(st.integers(1, scale.top_index))
    estimator, condition = choice
    strata = {f"t{t}": data.draw(st.sampled_from(["a", "b"])) for t in range(4)}
    model = UserModel(theta)
    got = outcome(lambda: {
        s: table_from_counts(c, model, scale, estimator=estimator, condition=condition)
        for s, c in zip(*group_pair_counts(pairs, scale, strata))
    })
    grouped: dict[str, list[JudgmentPair]] = {}
    for p in pairs:
        grouped.setdefault(strata[p.topic_id], []).append(p)
    want = outcome(lambda: {
        s: ref_estimate(grouped[s], UserModel(theta), scale, estimator, condition)
        for s in sorted(grouped)
    })
    assert {s: t.to_json_dict() for s, t in got[0].items()} == {
        s: t.to_json_dict() for s, t in want[0].items()
    }
    assert got[1] == want[1]


def test_count_matrices():
    scale = RelevanceScale(("a", "b", "c"))
    pairs = [
        JudgmentPair("t2", "d1", 2, 0), JudgmentPair("t1", "d2", 2, 0),
        JudgmentPair("t1", "d3", 0, 1),
    ]
    assert code_counts(pair_codes(pairs, scale), scale) == [[0, 1, 0], [0, 0, 0], [2, 0, 0]]
    topics, per_topic = group_pair_counts(pairs, scale)
    assert topics == ["t1", "t2"]
    assert ints_only(per_topic)
    assert per_topic == [
        [[0, 1, 0], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
    ]


def ints_only(nested):
    return all(ints_only(x) if isinstance(x, list) else type(x) is int for x in nested)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_code_counts_match_bincount(data):
    # codes from a subset of the cells, so that some levels go unused, and
    # groups from a subset of the indices, so that some groups stay empty
    n = data.draw(st.integers(2, 5))
    scale = RelevanceScale(tuple(f"L{i}" for i in range(n)))
    cells = sorted(data.draw(st.sets(st.integers(0, n * n - 1), min_size=1)))
    codes = data.draw(st.lists(st.sampled_from(cells), max_size=60))
    n_groups = data.draw(st.integers(1, 6))
    used = sorted(data.draw(st.sets(st.integers(0, n_groups - 1), min_size=1)))
    groups = data.draw(st.lists(st.sampled_from(used), min_size=len(codes), max_size=len(codes)))
    got = code_counts(array("q", codes), scale)
    assert got == ref_bincount(codes, scale).tolist()
    assert ints_only(got)
    got = code_counts(array("q", codes), scale, iter(groups), n_groups)
    assert got == ref_bincount(codes, scale, groups, n_groups).tolist()
    assert ints_only(got)


@settings(max_examples=150, deadline=None)
@given(collections(), st.data())
def test_pair_counts_match_bincount(collection, data):
    scale, pairs = collection
    n = scale.top_index + 1
    codes = [p.level_u1 * n + p.level_u2 for p in pairs]
    assert pair_codes(pairs, scale).tolist() == codes
    assert code_counts(pair_codes(pairs, scale), scale) == ref_bincount(codes, scale).tolist()
    strata = {f"t{t}": data.draw(st.sampled_from(["a", "b", "c"])) for t in range(4)}
    for group_of in (None, strata):
        labels = [p.topic_id if group_of is None else group_of[p.topic_id] for p in pairs]
        names = sorted(set(labels))
        want = ref_bincount(codes, scale, list(map(names.index, labels)), len(names))
        got = group_pair_counts(pairs, scale, group_of)
        assert got == (names, want.tolist())
        assert ints_only(got[1])


@pytest.mark.parametrize(
    "levels, message",
    [([(0, 3), (4, 0)], "level 3 > T=2"), ([(0, 0), (-1, 5)], "level -1 > T=2")],
)
def test_first_bad_level_in_input_order_raises(levels, message):
    scale = RelevanceScale(("a", "b", "c"))
    pairs = [JudgmentPair("t", f"d{i}", a, b) for i, (a, b) in enumerate(levels)]
    with pytest.raises(ValidationError, match=message):
        code_counts(pair_codes(pairs, scale), scale)


# -- analyses -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(collections(min_topics=2), st.data(), estimators, st.integers(0, 2**32))
def test_bootstrap_matches_list_resampling(collection, data, choice, seed):
    scale, pairs = collection
    theta = data.draw(st.integers(1, scale.top_index))
    estimator, condition = choice
    n = data.draw(st.integers(1, 30))
    got = outcome(lambda: bootstrap_topics(
        pairs, UserModel(theta), scale, estimator=estimator, condition=condition,
        n_resamples=n, seed=seed,
    ))
    want = outcome(lambda: ref_bootstrap(
        pairs, UserModel(theta), scale, estimator, condition, n, seed
    ))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(collections(), st.data(), estimators, st.integers(0, 2**32))
def test_budget_rounds_match_list_sampling(collection, data, choice, seed):
    scale, pairs = collection
    theta = data.draw(st.integers(1, scale.top_index))
    estimator, condition = choice
    budgets = sorted(data.draw(st.sets(st.integers(0, 60), min_size=2, max_size=4)))
    rounds = data.draw(st.integers(1, 8))
    got = outcome(lambda: simulate_annotation_rounds(
        pairs, UserModel(theta), scale, budgets, n_rounds=rounds, seed=seed,
        estimator=estimator, condition=condition,
    ))
    want = outcome(lambda: ref_budget(
        pairs, UserModel(theta), scale, budgets, rounds, seed, estimator, condition
    ))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(collections(), st.data(), estimators)
def test_quality_steps_match_list_filtering(collection, data, choice):
    scale, pairs = collection
    theta = data.draw(st.integers(1, scale.top_index))
    estimator, condition = choice
    resource = st.sampled_from(["rA", "rB", "rC", "rD"])
    # Every paired document is judged by the reference group, some for a
    # second intent; some extra judged documents belong to no pair.  Each
    # document belongs to one resource.
    judged = [
        Judgment(p.topic_id, p.doc_id, p.level_u1, intent)
        for p in pairs
        for intent in (None, "i2")[: data.draw(st.integers(1, 2))]
    ]
    extra = data.draw(st.lists(st.tuples(st.integers(0, 3), resource), max_size=6))
    judged += [Judgment(f"t{t}", f"x{i}", scale.top_index) for i, (t, _) in enumerate(extra)]
    resources = {p.doc_id: data.draw(resource) for p in pairs}
    resources.update((f"x{i}", r) for i, (_, r) in enumerate(extra))
    reference = JudgmentSet(scale, tuple(judged), "ref", resources)
    got = outcome(lambda: quality_sensitivity(
        reference, pairs, UserModel(theta), estimator=estimator, condition=condition
    ))
    want = outcome(lambda: ref_quality(reference, pairs, UserModel(theta), estimator, condition))
    assert got == want


@pytest.mark.parametrize("analysis", ["bootstrap", "budget", "quality"])
def test_analyses_refuse_symmetric_on_one_sided_collections(analysis):
    scale = RelevanceScale(("a", "b", "c"))
    pairs = [JudgmentPair(f"t{i % 2}", f"d{i}", i % 3, i % 3) for i in range(6)]
    reference = JudgmentSet(
        scale, tuple(Judgment(p.topic_id, p.doc_id, p.level_u1) for p in pairs), "ref",
        dict.fromkeys((p.doc_id for p in pairs), "r"),
    )
    run = {
        "bootstrap": lambda **kw: bootstrap_topics(
            pairs, UserModel(2), scale, n_resamples=3, seed=0, **kw),
        "budget": lambda **kw: simulate_annotation_rounds(
            pairs, UserModel(2), scale, [2, 4], n_rounds=2, seed=0, **kw),
        "quality": lambda **kw: quality_sensitivity(reference, pairs, UserModel(2), **kw),
    }[analysis]
    with pytest.raises(EstimationError, match="symmetric estimator is biased"):
        run(one_sided_collection=True)
    run(one_sided_collection=True, estimator="one_sided")
