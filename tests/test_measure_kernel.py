"""Differential tests: one run kernel for every run measure.

``ndcg_reports`` scores a list of measures for one run: nDCG@k for each
gain scheme and expected precision@k for each disagreement table, all
read from one top-k level vector per topic.  Its reports, warnings and
errors must equal, in order, those of the straightforward paths it
replaced: :func:`topic_expected_precision` below (a Counter of the top n
levels through :func:`count_prm`, over n) and a per-scheme loop over
:func:`topic_dcg` and :func:`ideal_dcg_at_k`, each measure scored alone
after one check of the run's topics.  The pool counts, read from a
shared ``_Pool``, must equal a Counter of each topic's judged levels.
"""

from __future__ import annotations

import warnings
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from prmeval.corpus import RunEntry, RunRanking
from prmeval.disagreement import DisagreementTable
from prmeval.errors import MetricError, PrmError, ValidationError
from prmeval.metrics import (
    DiscountFunction, GainScheme, MetricReport, _Pool, binary_count_report, count_binary,
    count_prm, expected_count_report, ideal_dcg_at_k, ndcg_reports, topic_dcg,
)

# -- references --------------------------------------------------------------


def topic_expected_precision(doc_ids, levels, table, n: int) -> float:
    """Expected precision over the top n of one ranked document list."""
    if n < 1:
        raise ValidationError(f"cutoff must be >= 1, got {n}")
    return count_prm(Counter(levels.get(doc, 0) for doc in doc_ids[:n]), table) / n


def ref_ndcg(run, doc_levels, topics, scheme, discount, k, ideal_pool) -> MetricReport:
    top = len(scheme.gains) - 1
    values, excluded = {}, []
    for topic in topics:
        levels, docs = doc_levels[topic], run.doc_ids(topic)
        if ideal_pool == "run":
            pool = [levels.get(doc, 0) for doc in docs]
        else:
            pool = [*levels.values(), *(0 for doc in docs if doc not in levels)]
        if max(pool, default=0) > top:
            raise MetricError(f"level {max(pool)} outside gain vector 0..{top}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty pool's ideal is 0
            ideal = ideal_dcg_at_k(pool, scheme, discount, k)
        if ideal == 0.0:
            excluded.append(topic)
        else:
            values[topic] = topic_dcg(docs, levels, scheme, discount, k) / ideal
    if excluded:
        warnings.warn(
            f"run {run.system_id}: topics with zero ideal DCG excluded from ndcg@{k}: {excluded}"
        )
    if not values:
        raise MetricError(f"all topics have zero ideal DCG for ndcg@{k}")
    return MetricReport.from_values(f"ndcg_{scheme.name}", k, values, excluded)


def ref_reports(run, doc_levels, measures, discount, k, strict, ideal_pool):
    """Every measure scored alone, in list order, after one topic check."""
    skipped = sorted(run.topics() - set(doc_levels))
    if skipped and strict:
        raise MetricError(
            f"run {run.system_id} has unjudged topics (strict mode): {skipped}"
        )
    if skipped:
        warnings.warn(f"run {run.system_id}: skipping topics without judgments: {skipped}")
    topics = sorted(run.topics() & set(doc_levels))
    if not topics:
        raise MetricError("no topics with judgments to evaluate")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    reports = []
    for measure in measures:
        if isinstance(measure, DisagreementTable):
            values = {
                topic: topic_expected_precision(run.doc_ids(topic), doc_levels[topic], measure, k)
                for topic in topics
            }
            reports.append(MetricReport.from_values("expected_precision", k, values))
        else:
            reports.append(ref_ndcg(run, doc_levels, topics, measure, discount, k, ideal_pool))
    return reports


def outcome(fn, *args, **kwargs):
    """(result or error, warning messages in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args, **kwargs)
        except PrmError as exc:
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


# -- strategies --------------------------------------------------------------

TOPICS = "ABC"
JUDGED = [f"d{i}" for i in range(10)]
DISCOUNTS = [DiscountFunction.log(), DiscountFunction.log(10.0), DiscountFunction.zipf()]


@st.composite
def tables(draw, top):
    """Tables over levels 0..top; now and then a cell is undefined."""
    p = st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 0.9, 1.0] * 3 + [None])
    return DisagreementTable.from_json_dict({
        "scale": {"labels": [f"L{i}" for i in range(top + 1)]},
        "theta": draw(st.integers(1, top)),
        "cells": [{"level": i, "p": draw(p)} for i in range(top + 1)],
    })


@st.composite
def measure_lists(draw, top):
    """Gain schemes (custom ones may have g(0) > 0) and tables, mixed."""
    scheme = st.one_of(
        st.integers(1, top).map(lambda theta: GainScheme.binary(top, theta)),
        st.just(GainScheme.linear(top)),
        st.just(GainScheme.exponential(top)),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=top + 1,
                 max_size=top + 1).filter(any).map(GainScheme.custom),
    )
    return draw(st.lists(tables(top) | scheme, min_size=1, max_size=4))


@st.composite
def groups(draw, top):
    """One group's ``topic -> {doc: level}`` map; a topic may be judged
    all 0 or with no docs, and rarely a level lies above the top."""
    out = {}
    for topic in draw(st.lists(st.sampled_from(TOPICS), min_size=1, max_size=3, unique=True)):
        size = draw(st.sampled_from([1, 1, 1, 1, 0]))  # now and then judged with no docs
        docs = draw(st.lists(st.sampled_from(JUDGED), min_size=size, max_size=7, unique=True))
        levels = st.sampled_from(range(top, -1, -1))
        levels = st.just(0) if draw(st.sampled_from([0, 0, 0, 1])) else levels
        out[topic] = {doc: draw(levels) for doc in docs}
    if draw(st.sampled_from([0] * 9 + [1])):
        topic = draw(st.sampled_from(sorted(out)))
        out[topic][draw(st.sampled_from(JUDGED))] = top + 1
    return out


@st.composite
def runs(draw):
    """A run retrieving judged and unjudged docs, on topics the qrels may lack."""
    entries = []
    for topic in draw(st.lists(st.sampled_from(TOPICS), min_size=1, max_size=3, unique=True)):
        judged = draw(st.lists(st.sampled_from(JUDGED), max_size=8, unique=True))
        unjudged = [f"u{j}" for j in range(draw(st.integers(0, 5)))]
        docs = draw(st.permutations(judged + unjudged)) or ["u0"]
        entries += [RunEntry(topic, doc, r, -float(r)) for r, doc in enumerate(docs, 1)]
    return RunRanking("sys0", entries)


@st.composite
def kernel_cases(draw):
    top = draw(st.integers(1, 3))
    return (
        draw(runs()), draw(groups(top)), draw(measure_lists(top)),
        draw(st.sampled_from(DISCOUNTS)),
        draw(st.sampled_from([*range(1, 17), 0])),  # above 13 is past every run's depth
        draw(st.sampled_from([False, False, False, True])),  # strict
        draw(st.sampled_from(["qrels", "run"])),
    )


# -- tests -------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(kernel_cases(), st.booleans())
def test_kernel_equals_each_measure_scored_alone(case, through_pool):
    run, doc_levels, measures, discount, k, strict, ideal_pool = case
    judgments = _Pool(doc_levels) if through_pool else doc_levels
    got = outcome(ndcg_reports, run, judgments, measures, discount, k,
                  strict=strict, ideal_pool=ideal_pool)
    ref = outcome(ref_reports, run, doc_levels, measures, discount, k, strict, ideal_pool)
    assert got == ref


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_precision_alone_needs_no_discount(case):
    run, doc_levels, measures, _, k, strict, _ = case
    measures = [m for m in measures if isinstance(m, DisagreementTable)] or [
        DisagreementTable.from_json_dict({
            "scale": {"labels": ["L0", "L1"]}, "theta": 1,
            "cells": [{"level": 0, "p": 0.25}, {"level": 1, "p": 0.75}],
        })
    ]
    got = outcome(ndcg_reports, run, doc_levels, measures, None, k, strict=strict)
    ref = outcome(ref_reports, run, doc_levels, measures, None, k, strict, "qrels")
    assert got == ref


def count_reference(doc_levels, measure: str, count) -> MetricReport:
    """A pool count report from a Counter of each topic's judged levels."""
    values = {topic: count(Counter(docs.values())) for topic, docs in doc_levels.items()}
    if not values:
        raise MetricError("no judged topics")
    return MetricReport.from_values(measure, None, values)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda top: st.tuples(
    groups(top), st.integers(1, top), tables(top), runs(), st.booleans(),
)))
def test_pool_counts_equal_a_counter_per_topic(case):
    doc_levels, theta, table, run, scored_first = case
    pool = _Pool(doc_levels)
    if scored_first:  # a pool whose histograms an nDCG call has already read
        outcome(ndcg_reports, run, pool, [GainScheme.linear(4)], DiscountFunction.log(), 5)
    for judgments in (pool, doc_levels):
        assert outcome(binary_count_report, judgments, theta) == outcome(
            count_reference, doc_levels, "count_binary", lambda h: count_binary(h, theta)
        )
        assert outcome(expected_count_report, judgments, table) == outcome(
            count_reference, doc_levels, "count_prm", lambda h: count_prm(h, table)
        )
