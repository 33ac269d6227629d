"""Differential tests: columnar runs and the batched nDCG kernel against references.

The references below are the straightforward implementations the fast
paths replaced: a run validator that walks ``RunEntry`` objects (with
``parse_run`` sorting every entry by (topic, rank) first), and nDCG as a
per-scheme loop over :func:`topic_dcg` and :func:`ideal_dcg_at_k`.
Outcomes, error messages, warnings, doc lists and nDCG values must match
exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prmeval import corpus
from prmeval.corpus import RunEntry, RunRanking, parse_run
from prmeval.errors import DataWarning, MetricError, ParseError, PrmError, ValidationError
from prmeval.metrics import (
    DiscountFunction,
    GainScheme,
    MetricReport,
    ideal_dcg_at_k,
    ndcg_at_k,
    ndcg_reports,
    topic_dcg,
)

pytestmark = pytest.mark.filterwarnings("ignore::prmeval.errors.DataWarning")

# -- reference implementations ---------------------------------------------


@dataclass(frozen=True)
class RefRun:
    system_id: str
    entries: tuple[RunEntry, ...]

    def doc_ids(self, topic_id: str) -> list[str]:
        return [
            e.doc_id
            for e in sorted((e for e in self.entries if e.topic_id == topic_id),
                            key=lambda e: e.rank)
        ]


def ref_validate(system_id: str, entries: tuple[RunEntry, ...]) -> RefRun:
    by_topic: dict[str, list[RunEntry]] = {}
    seen_docs: set[tuple[str, str]] = set()
    for e in entries:
        if e.rank < 1:
            raise ValidationError(f"topic {e.topic_id}: rank {e.rank} < 1")
        doc_key = (e.topic_id, e.doc_id)
        if doc_key in seen_docs:
            raise ValidationError(f"duplicate (topic, doc) in run {system_id}: {doc_key}")
        seen_docs.add(doc_key)
        by_topic.setdefault(e.topic_id, []).append(e)
    for topic, group in by_topic.items():
        ranks = sorted(e.rank for e in group)
        if len(set(ranks)) != len(ranks):
            raise ValidationError(f"topic {topic}: duplicate rank")
        if ranks != list(range(1, len(ranks) + 1)):
            raise ValidationError(
                f"topic {topic}: ranks not contiguous 1..{len(ranks)}: {ranks[:5]}..."
            )
        scores = [e.score for e in sorted(group, key=lambda e: e.rank)]
        if any(b > a for a, b in zip(scores, scores[1:])):
            warnings.warn(
                f"run {system_id}, topic {topic}: scores increase down the "
                "ranking; keeping rank order",
                DataWarning,
            )
    return RefRun(system_id, entries)


def ref_parse_run(lines: list[str]) -> RefRun:
    entries: list[RunEntry] = []
    system_id = None
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 6:
            raise ParseError(
                f"line {line_no}: expected 6 fields 'topic Q0 doc rank score system', "
                f"got {len(fields)}"
            )
        topic, _q0, doc, rank_str, score_str, system = fields
        try:
            rank = int(rank_str)
        except ValueError:
            raise ParseError(f"line {line_no}: non-integer rank: {rank_str!r}") from None
        try:
            score = float(score_str)
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric score: {score_str!r}") from None
        if system_id is None:
            system_id = system
        elif system != system_id:
            raise ValidationError(
                f"line {line_no}: inconsistent system_id {system!r} != {system_id!r}"
            )
        entries.append(RunEntry(topic, doc, rank, score))
    if system_id is None:
        raise ValidationError("run file contains no records")
    entries.sort(key=lambda e: (e.topic_id, e.rank))
    return ref_validate(system_id, tuple(entries))


def ref_ndcg(run, doc_levels, scheme, discount, k, ideal_pool):
    values, excluded = {}, []
    for topic in sorted(run.topics() & set(doc_levels)):
        levels, retrieved = doc_levels[topic], run.doc_ids(topic)
        if ideal_pool == "run":
            pool = [levels.get(doc, 0) for doc in retrieved]
        else:
            pool = list(levels.values()) + [0] * sum(doc not in levels for doc in retrieved)
        ideal = ideal_dcg_at_k(pool, scheme, discount, k)
        if ideal == 0.0:
            excluded.append(topic)
        else:
            values[topic] = topic_dcg(retrieved, levels, scheme, discount, k) / ideal
    if not values:
        return None
    return MetricReport.from_values(f"ndcg_{scheme.name}", k, values, excluded)


def outcome(fn, *args):
    """(result or error, warning messages in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except PrmError as exc:
            result = (type(exc).__name__, str(exc))
    return result, [str(w.message) for w in caught]


# -- strategies --------------------------------------------------------------

FAULTS = ("rank0", "negative", "dup_doc", "dup_rank", "gap", "rising")


@st.composite
def run_rows(draw, faults=st.lists(st.sampled_from(FAULTS), max_size=3)):
    """(topic, doc, rank, score) rows of a valid run, then the drawn faults."""
    rows = []
    for topic in draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=3, unique=True)):
        n = draw(st.integers(1, 6))
        docs = draw(st.permutations([f"d{i}" for i in range(8)]))[:n]
        scores = sorted(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                        reverse=True)
        rows += [[topic, doc, rank, float(s)] for rank, (doc, s) in enumerate(
            zip(docs, scores), start=1)]
    for fault in draw(faults):
        i = draw(st.integers(0, len(rows) - 1))
        same = [j for j, r in enumerate(rows) if r[0] == rows[i][0] and j != i]
        if fault == "rank0":
            rows[i][2] = 0
        elif fault == "negative":
            rows[i][2] = -draw(st.integers(1, 3))
        elif fault == "gap":
            rows[i][2] += draw(st.integers(1, 3))
        elif fault == "rising":
            rows[i][3] += 10.0
        elif same:
            j = draw(st.sampled_from(same))
            rows[i][1 if fault == "dup_doc" else 2] = rows[j][1 if fault == "dup_doc" else 2]
    return [tuple(r) for r in draw(st.permutations(rows))]


def as_lines(rows, system="sys"):
    return [f"{t} Q0 {d} {r} {s!r} {system}\n" for t, d, r, s in rows]


def same_outcome(new, ref) -> None:
    (new, new_warnings), (ref, ref_warnings) = new, ref
    assert new_warnings == ref_warnings
    if isinstance(ref, RefRun):
        same_run(new, ref)
    else:
        assert new == ref


def same_run(new: RunRanking, ref: RefRun) -> None:
    expected = sorted(ref.entries, key=lambda e: (e.topic_id, e.rank))
    assert new.system_id == ref.system_id
    assert len(new.entries) == len(expected)
    assert list(new.entries) == expected
    assert new.topics() == {e.topic_id for e in expected}
    for topic in new.topics() | {"nope"}:
        assert new.doc_ids(topic) == ref.doc_ids(topic)
        assert [e.doc_id for e in new.topic_slice(topic)] == ref.doc_ids(topic)


# -- runs ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(run_rows())
def test_parse_run_matches_entry_validator(rows):
    lines = as_lines(rows)
    same_outcome(outcome(parse_run, lines), outcome(ref_parse_run, lines))


@settings(max_examples=200, deadline=None)
@given(run_rows(faults=st.lists(st.sampled_from(FAULTS), max_size=1)))
def test_constructor_matches_entry_validator_on_single_faults(rows):
    entries = tuple(RunEntry(*r) for r in rows)
    new, new_warnings = outcome(RunRanking, "sys", entries)
    ref, ref_warnings = outcome(ref_validate, "sys", entries)
    assert sorted(new_warnings) == sorted(ref_warnings)
    if isinstance(ref, RefRun):
        same_run(new, ref)
        assert new == parse_run(as_lines(rows))
    else:
        assert new == ref


@settings(max_examples=100, deadline=None)
@given(run_rows(faults=st.just([])), st.data())
def test_line_faults_keep_their_messages(rows, data):
    lines = as_lines(rows)
    i = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split()
    fault = data.draw(st.sampled_from(["fields", "rank", "score", "system"]))
    if fault == "fields":
        fields = fields[:5]
    elif fault == "rank":
        fields[3] = "x1"
    elif fault == "score":
        fields[4] = "high"
    else:
        fields[5] = "other"
    lines[i] = " ".join(fields) + "\n"
    same_outcome(outcome(parse_run, lines), outcome(ref_parse_run, lines))


def test_empty_run_file():
    assert outcome(parse_run, ["# x\n", "\n"]) == outcome(ref_parse_run, ["# x\n", "\n"])


def test_entries_length_does_not_build_entries(monkeypatch):
    run = parse_run(as_lines([("B", "x", 2, 1.0), ("A", "d", 1, 3.0), ("B", "y", 1, 2.0)]))

    def no_entries(*args):
        raise AssertionError("len(entries) built an entry")

    monkeypatch.setattr(corpus, "RunEntry", no_entries)
    assert len(run.entries) == 3
    assert run.doc_ids("B") == ["y", "x"]


def test_entries_view_indexing():
    run = parse_run(as_lines([("B", "x", 2, 1.0), ("A", "d", 1, 3.0), ("B", "y", 1, 2.0)]))
    expected = [RunEntry("A", "d", 1, 3.0), RunEntry("B", "y", 1, 2.0), RunEntry("B", "x", 2, 1.0)]
    assert [run.entries[i] for i in range(3)] == expected
    assert run.entries[-1] == expected[-1]
    assert run.entries[1:] == expected[1:]
    with pytest.raises(IndexError):
        run.entries[3]


def test_equal_runs_compare_and_hash_equal():
    rows = [("B", "x", 2, 1.0), ("A", "d", 1, 3.0), ("B", "y", 1, 2.0)]
    a = parse_run(as_lines(rows))
    b = RunRanking("sys", [RunEntry(*r) for r in reversed(rows)])
    assert a == b and hash(a) == hash(b)
    assert a != RunRanking("other", [RunEntry(*r) for r in rows])
    assert a != parse_run(as_lines([("A", "d", 1, 3.0)]))


# -- nDCG ------------------------------------------------------------------


@st.composite
def scoring_cases(draw):
    """A run, per-topic judgments and gain schemes on one 2-5 level scale."""
    top = draw(st.integers(1, 4))
    docs = [f"d{i}" for i in range(12)]
    doc_levels: dict[str, dict[str, int]] = {}
    rows = []
    for topic in draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=4, unique=True)):
        judged = draw(st.lists(st.sampled_from(docs), max_size=8, unique=True))
        if judged or draw(st.booleans()):
            doc_levels[topic] = {d: draw(st.integers(0, top)) for d in judged}
        ranked = draw(st.permutations(docs))[: draw(st.integers(1, 12))]
        rows += [(topic, d, r, float(-r)) for r, d in enumerate(ranked, start=1)]
    if not doc_levels:
        doc_levels["Z"] = {"d0": top}
    gain = st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False)
    custom = draw(
        st.lists(gain, min_size=top + 1, max_size=top + 1).filter(lambda g: any(g))
    )
    schemes = [
        GainScheme.binary(top, draw(st.integers(1, top))),
        GainScheme.linear(top),
        GainScheme.exponential(top),
        GainScheme.custom(custom),
        GainScheme("prm", tuple(sorted(draw(st.lists(
            st.floats(0.0, 1.0), min_size=top + 1, max_size=top + 1))))),
    ]
    schemes = draw(st.lists(st.sampled_from(schemes), min_size=1, max_size=5))
    discount = draw(st.sampled_from(
        [DiscountFunction.log(), DiscountFunction.log(10.0), DiscountFunction.zipf()]
    ))
    run = RunRanking("sys", [RunEntry(*r) for r in rows])
    return run, doc_levels, schemes, discount


@settings(max_examples=300, deadline=None)
@given(scoring_cases(), st.integers(1, 15), st.sampled_from(["qrels", "run"]))
def test_ndcg_reports_equal_per_scheme_reference(case, k, ideal_pool):
    run, doc_levels, schemes, discount = case
    if not run.topics() & set(doc_levels):
        with pytest.raises(MetricError, match="no topics with judgments"):
            ndcg_reports(run, doc_levels, schemes, discount, k, ideal_pool=ideal_pool)
        return
    refs = [ref_ndcg(run, doc_levels, s, discount, k, ideal_pool) for s in schemes]
    new, new_warnings = outcome(
        lambda: ndcg_reports(run, doc_levels, schemes, discount, k, ideal_pool=ideal_pool)
    )
    if None in refs:
        assert new == ("MetricError", f"all topics have zero ideal DCG for ndcg@{k}")
        return
    assert new == refs
    skipped = sorted(run.topics() - set(doc_levels))
    zero = [
        f"run sys: topics with zero ideal DCG excluded from ndcg@{k}: {list(r.excluded)}"
        for r in refs if r.excluded
    ]
    expected = [f"run sys: skipping topics without judgments: {skipped}"] if skipped else []
    assert new_warnings == expected + zero
    for scheme, report in zip(schemes, new):
        single = ndcg_at_k(run, doc_levels, scheme, discount, k, ideal_pool=ideal_pool)
        assert single == report


def test_ndcg_reports_checks():
    run = RunRanking("sys", [RunEntry("A", "d1", 1, 1.0)])
    three, four = GainScheme.linear(2), GainScheme.linear(3)
    disc = DiscountFunction.log()
    with pytest.raises(ValidationError, match="same levels"):
        ndcg_reports(run, {"A": {"d1": 1}}, [three, four], disc, 10)
    with pytest.raises(ValidationError, match="k must be >= 1"):
        ndcg_reports(run, {"A": {"d1": 1}}, [three], disc, 0)
    with pytest.raises(ValidationError, match="ideal_pool"):
        ndcg_reports(run, {"A": {"d1": 1}}, [three], disc, 10, ideal_pool="x")
    with pytest.raises(MetricError, match="level 3 outside gain vector 0..2"):
        ndcg_reports(run, {"A": {"d1": 3}}, [three], disc, 10)
