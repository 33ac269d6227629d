"""Differential tests: nDCG of many runs through one shared pool.

A pool (``metrics._Pool``) holds what nDCG needs of one group's judgments
whatever the run: each topic's level histogram and, pooled with the
qrels, its ideal DCG under each scheme.  ``cli eval`` and
``analysis.rank_by_ndcg`` build one per group and score every run
through it.  Each report must equal, bit for bit, the per-run reference
of :func:`topic_dcg` over :func:`ideal_dcg_at_k`, with the same warnings
and errors, whatever runs, schemes, discounts, k and ideal pools came
through the pool before it.  A run costs O(k) level lookups per topic
once its pool is warm.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prmeval.analysis import rank_by_ndcg
from prmeval.corpus import RunEntry, RunRanking
from prmeval.errors import MetricError, PrmError
from prmeval import metrics
from prmeval.metrics import (
    DiscountFunction, GainScheme, MetricReport, _Pool, ideal_dcg_at_k, ndcg_reports, topic_dcg,
)

DISCOUNTS = [DiscountFunction.log(), DiscountFunction.log(10.0), DiscountFunction.zipf()]


def ref_reports(run, doc_levels, schemes, discount, k, ideal_pool):
    """nDCG@k of one run, scheme by scheme, from the scalar functions."""
    topics = sorted(run.topics() & set(doc_levels))
    skipped = sorted(run.topics() - set(doc_levels))
    if skipped:
        warnings.warn(f"run {run.system_id}: skipping topics without judgments: {skipped}")
    if not topics:
        raise MetricError("no topics with judgments to evaluate")
    top = len(schemes[0].gains) - 1
    values = [{} for _ in schemes]
    excluded = [[] for _ in schemes]
    for topic in topics:
        levels, docs = doc_levels[topic], run.doc_ids(topic)
        if ideal_pool == "run":
            pool = [levels.get(doc, 0) for doc in docs]
        else:
            pool = [*levels.values(), *(0 for doc in docs if doc not in levels)]
        if max(pool, default=0) > top:
            raise MetricError(f"level {max(pool)} outside gain vector 0..{top}")
        for s, scheme in enumerate(schemes):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty pool's ideal is 0
                ideal = ideal_dcg_at_k(pool, scheme, discount, k)
            if ideal == 0.0:
                excluded[s].append(topic)
            else:
                values[s][topic] = topic_dcg(docs, levels, scheme, discount, k) / ideal
    reports = []
    for scheme, vals, zero in zip(schemes, values, excluded):
        if zero:
            warnings.warn(
                f"run {run.system_id}: topics with zero ideal DCG excluded from ndcg@{k}: {zero}"
            )
        if not vals:
            raise MetricError(f"all topics have zero ideal DCG for ndcg@{k}")
        reports.append(MetricReport.from_values(f"ndcg_{scheme.name}", k, vals, zero))
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

TOPICS = "ABCD"
JUDGED = [f"d{i}" for i in range(10)]


@st.composite
def gain_schemes(draw, top):
    """Schemes over levels 0..top; custom gains may have g(0) > 0."""
    kind = draw(st.sampled_from(["binary", "linear", "exponential", "custom"]))
    if kind == "binary":
        return GainScheme.binary(top, draw(st.integers(1, top)))
    if kind == "custom":
        gain = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
        return GainScheme.custom(draw(
            st.lists(gain, min_size=top + 1, max_size=top + 1).filter(any)
        ))
    return getattr(GainScheme, kind)(top)


@st.composite
def groups(draw, top):
    """One group's ``topic -> {doc: level}`` map; a topic may be judged
    all 0, judged with no docs, or have a level above the top."""
    out = {}
    for topic in draw(st.lists(st.sampled_from(TOPICS), min_size=1, max_size=4, unique=True)):
        docs = draw(st.lists(st.sampled_from(JUDGED), max_size=7, unique=True))
        levels = st.integers(0, top) if draw(st.booleans()) else st.just(0)
        out[topic] = {doc: draw(levels) for doc in docs}
    if draw(st.integers(0, 9)) == 0:
        topic = draw(st.sampled_from(sorted(out)))
        out[topic][draw(st.sampled_from(JUDGED))] = top + 1
    return out


@st.composite
def runs(draw, max_unjudged):
    """Runs that retrieve judged docs and 0 to ``max_unjudged`` unjudged ones per topic."""
    out = []
    for i in range(draw(st.integers(1, 4))):
        entries = []
        for topic in draw(st.lists(st.sampled_from(TOPICS), min_size=1, max_size=4, unique=True)):
            judged = draw(st.lists(st.sampled_from(JUDGED), max_size=8, unique=True))
            unjudged = [f"u{j}" for j in range(draw(st.integers(0, max_unjudged)))]
            docs = draw(st.permutations(judged + unjudged)) or ["u0"]
            entries += [RunEntry(topic, doc, r, -float(r)) for r, doc in enumerate(docs, 1)]
        out.append(RunRanking(f"sys{i}", entries))
    return out


@st.composite
def scoring_configs(draw, top):
    """A few (schemes, discount, k, ideal_pool) to score one pool under."""
    return draw(st.lists(st.tuples(
        st.lists(gain_schemes(top), min_size=1, max_size=3),
        st.sampled_from(DISCOUNTS),
        st.integers(1, 12),
        st.sampled_from(["qrels", "run"]),
    ), min_size=1, max_size=3))


@st.composite
def shared_pool_cases(draw):
    top = draw(st.integers(1, 3))
    configs = draw(scoring_configs(top))
    max_k = max(k for _, _, k, _ in configs)
    return draw(st.lists(groups(top), min_size=2, max_size=2)), draw(runs(max_k + 3)), configs


# -- tests -------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(shared_pool_cases(), st.booleans())
@example(  # one pool under two custom schemes that share a name, then another k
    ([{"A": {"d0": 1, "d1": 0}}, {"A": {"d0": 0}}],
     [RunRanking("sys0", [RunEntry("A", d, r, 0.0) for r, d in enumerate(["u0", "d1", "u1"], 1)]),
      RunRanking("sys1", [RunEntry("A", d, r, 0.0) for r, d in enumerate(["d0", "u0"], 1)])],
     [([GainScheme.custom([0.5, 1.0])], DiscountFunction.log(), 2, "qrels"),
      ([GainScheme.custom([0.0, 1.0])], DiscountFunction.log(), 2, "qrels"),
      ([GainScheme.custom([0.5, 1.0])], DiscountFunction.log(), 1, "qrels")]),
    False,
)
def test_runs_through_a_shared_pool_equal_per_run_reference(case, runs_first):
    judged, runs_, configs = case
    pools = [_Pool(doc_levels) for doc_levels in judged]
    order = (
        [(run, config) for run in runs_ for config in configs] if runs_first
        else [(run, config) for config in configs for run in runs_]
    )
    for run, (schemes, discount, k, ideal_pool) in order:
        for doc_levels, pool in zip(judged, pools):
            ref = outcome(ref_reports, run, doc_levels, schemes, discount, k, ideal_pool)
            got = outcome(ndcg_reports, run, pool, schemes, discount, k, ideal_pool=ideal_pool)
            assert got == ref


def depth(run: RunRanking) -> int:
    return max(len(run.doc_ids(topic)) for topic in run.topics())


@settings(max_examples=200, deadline=None)
@given(shared_pool_cases(), st.booleans())
def test_ideal_dcg_kept_by_the_pool_serves_runs_of_every_depth(case, shallow_first):
    # a qrels pool sums each topic's ideal DCG for the first run that meets
    # it under a scheme, discount, k and count of unjudged docs, and the
    # other runs read it back: shallow runs first or deep runs first, each
    # report equals the per-run reference
    judged, runs_, configs = case
    runs_ = sorted(runs_, key=depth, reverse=not shallow_first)
    pools = [_Pool(doc_levels) for doc_levels in judged]
    for schemes, discount, k, _ in configs:
        for run in runs_:
            for doc_levels, pool in zip(judged, pools):
                ref = outcome(ref_reports, run, doc_levels, schemes, discount, k, "qrels")
                got = outcome(ndcg_reports, run, pool, schemes, discount, k)
                assert got == ref


@settings(max_examples=100, deadline=None)
@given(shared_pool_cases())
def test_rank_by_ndcg_equals_means_of_per_run_reports(case):
    judged, runs_, configs = case
    schemes, discount, k, ideal_pool = configs[0]
    named = {f"s{i}": scheme for i, scheme in enumerate(schemes)}
    got = outcome(rank_by_ndcg, runs_, judged, named, discount, k, ideal_pool=ideal_pool)
    if isinstance(got[0], tuple):  # an error: the reference meets it on the same run
        with pytest.raises(MetricError, match=f"^{re.escape(got[0][1])}$"):
            for run in runs_:
                for doc_levels in judged:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        ref_reports(run, doc_levels, schemes, discount, k, ideal_pool)
        return
    for rankings, doc_levels in zip(got[0], judged):
        means = {name: {} for name in named}
        for run in runs_:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reports = ref_reports(run, doc_levels, schemes, discount, k, ideal_pool)
            for name, report in zip(named, reports):
                means[name][run.system_id] = report.mean
        for name, ranking in rankings.items():
            assert ranking.score_map() == means[name]


class CountingLevels(Mapping):
    """A topic's ``doc -> level`` map that counts its lookups."""

    def __init__(self, levels):
        self._levels = dict(levels)
        self.lookups = 0

    def __getitem__(self, doc):
        self.lookups += 1
        return self._levels[doc]

    def get(self, doc, default=None):
        self.lookups += 1
        return self._levels.get(doc, default)

    def __contains__(self, doc):
        self.lookups += 1
        return doc in self._levels

    def __iter__(self):
        return iter(self._levels)

    def __len__(self):
        return len(self._levels)


DEPTH, K = 1000, 10


def deep_case(n_topics=3):
    """Topics with 300 judged docs each and runs 1000 deep that
    alternate judged and unjudged docs from rank 1."""
    judged = {
        f"t{t}": CountingLevels({f"j{i}": i % 3 for i in range(300)}) for t in range(n_topics)
    }
    runs_ = []
    for s in range(4):
        docs = [
            f"j{(i // 2 + s) % 300}" if i % 2 == 0 and i < 600 else f"u{i}" for i in range(DEPTH)
        ]
        runs_.append(RunRanking(f"sys{s}", [
            RunEntry(topic, doc, r, 0.0) for topic in judged for r, doc in enumerate(docs, 1)
        ]))
    return judged, runs_


def lookups(judged) -> int:
    total = sum(levels.lookups for levels in judged.values())
    for levels in judged.values():
        levels.lookups = 0
    return total


def test_warm_pool_looks_up_k_levels_per_topic_when_g0_is_zero():
    judged, runs_ = deep_case()
    schemes = [GainScheme.binary(2, 2), GainScheme.linear(2), GainScheme.exponential(2)]
    pool = _Pool(judged)
    ndcg_reports(runs_[0], pool, schemes, DiscountFunction.log(), K)
    # the first run reads each topic's judged levels once, for its histogram
    assert lookups(judged) == len(judged) * (300 + K)
    for run in runs_[1:]:
        ndcg_reports(run, pool, schemes, DiscountFunction.log(), K)
        assert lookups(judged) == len(judged) * K


def test_unjudged_docs_are_counted_only_up_to_k():
    judged, runs_ = deep_case()
    schemes = [GainScheme.custom([0.5, 1.0, 2.0]), GainScheme.linear(2)]
    pool = _Pool(judged)
    ndcg_reports(runs_[0], pool, schemes, DiscountFunction.log(), K)
    lookups(judged)
    # the k-th unjudged doc is at rank 2k, so the count stops after 2k docs
    for run in runs_[1:]:
        ndcg_reports(run, pool, schemes, DiscountFunction.log(), K)
        assert lookups(judged) == len(judged) * (K + 2 * K)


def test_a_plain_map_gets_a_pool_of_its_own():
    judged, runs_ = deep_case(n_topics=1)
    schemes = [GainScheme.linear(2)]
    for run in runs_:
        ndcg_reports(run, judged, schemes, DiscountFunction.log(), K)
        assert lookups(judged) == 300 + K


def test_warm_qrels_pool_sums_each_ideal_dcg_once(monkeypatch):
    judged, runs_ = deep_case()
    schemes = [GainScheme.binary(2, 2), GainScheme.custom([0.5, 1.0, 2.0])]
    sums = []
    dcg = metrics._dcg
    monkeypatch.setattr(metrics, "_dcg", lambda *args: sums.append(1) or dcg(*args))

    def n_sums(run, pool, k=K, discount=DiscountFunction.log(), ideal_pool="qrels"):
        sums.clear()
        ndcg_reports(run, pool, schemes, discount, k, ideal_pool=ideal_pool)
        return len(sums)

    pool, per_run = _Pool(judged), len(judged) * len(schemes)
    # per topic and scheme, the first run sums the ideal and its own DCG
    assert n_sums(runs_[0], pool) == 2 * per_run
    # every later run retrieves k unjudged docs too, so it sums only its own
    assert [n_sums(run, pool) for run in runs_[1:]] == [per_run] * 3
    # another k or discount has ideals of its own, and so has a new pool
    assert n_sums(runs_[1], pool, k=K + 1) == 2 * per_run
    assert n_sums(runs_[1], pool, discount=DiscountFunction.zipf()) == 2 * per_run
    assert n_sums(runs_[1], _Pool(judged)) == 2 * per_run
    # a run's own pool changes with the run, so its ideals are never kept
    assert [n_sums(run, pool, ideal_pool="run") for run in runs_] == [2 * per_run] * 4
