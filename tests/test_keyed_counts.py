"""Differential tests: per-topic keys and int count keys against the
tuple-keyed versions they replaced.

``code_counts`` counts the one int ``g * (T+1)**2 + code`` per code, and
``quality_sensitivity`` keeps its strong counts, judged docs and resource
places per topic, where both used to build a ``(group, code)`` or
``(topic, ...)`` tuple per record.  The references below are those tuple
versions, kept as they were; results, warnings and errors (the
uncovered-pairs message included) must match.  ``corpus._levels`` looks
levels up in a table of ``"0"``...``"9"`` and must read every other
token as ``int()`` does.  ``attach_resources`` must name the first doc
its pattern does not match.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from itertools import accumulate, repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prmeval import corpus
from prmeval.analysis import simulate_annotation_rounds
from prmeval.corpus import Judgment, JudgmentPair, JudgmentSet, RelevanceScale, attach_resources
from prmeval.disagreement import (
    LevelSeries, SensitivityCurve, UserModel, _as_pairs, _plus, code_counts, group_pair_counts,
    pair_codes, quality_sensitivity, table_from_counts,
)
from prmeval.errors import EstimationError, PrmError, ValidationError

# -- references: the tuple-keyed versions ---------------------------------------


def ref_code_counts(codes, scale, groups=None, n_groups=1):
    n = scale.top_index + 1
    out = [[[0] * n for _ in range(n)] for _ in range(n_groups)]
    for (g, code), count in Counter(zip(repeat(0) if groups is None else groups, codes)).items():
        out[g][code // n][code % n] = count
    return out[0] if groups is None else out


def ref_group_pair_counts(pairs, scale, group_of=None):
    pairs = _as_pairs(pairs, scale)
    labels = pairs.topic_ids
    if group_of is not None:
        missing = set(labels) - set(group_of)
        if missing:
            raise ValidationError(f"topics missing from strata map: {sorted(missing)}")
        labels = list(map(group_of.__getitem__, labels))
    names = sorted(set(labels))
    index = {name: i for i, name in enumerate(names)}
    groups = map(index.__getitem__, labels)
    return names, ref_code_counts(pair_codes(pairs, scale), scale, groups, len(names))


def ref_quality_sensitivity(
    judgments, pairs, user_model, *, estimator="symmetric", condition="u1",
    one_sided_collection=False,
):
    if not pairs:
        raise EstimationError("no judgment pairs to estimate from")
    if not judgments:
        raise ValidationError("no reference judgments")
    resources = judgments.resources or {}
    if not all(map(resources.__contains__, judgments.doc_ids)):
        raise ValidationError(
            "no resource metadata on reference judgments; attach_resources first"
        )
    scale = judgments.scale
    user_model.check_against(scale)

    in_resource = list(map(resources.__getitem__, judgments.doc_ids))
    strong = map((scale.top_index - 1).__le__, judgments.levels)
    strong_counts: dict[str, dict[str, int]] = {}
    for (topic, resource, is_strong), n in Counter(
        zip(judgments.topic_ids, in_resource, strong)
    ).items():
        counts = strong_counts.setdefault(topic, {})
        counts[resource] = counts.get(resource, 0) + n * is_strong
    place = {
        (topic, resource): k
        for topic, counts in strong_counts.items()
        for k, resource in enumerate(sorted(counts, key=lambda r: (-counts[r], r)))
    }
    judged = set(zip(judgments.topic_ids, judgments.doc_ids))

    pairs = _as_pairs(pairs, scale)
    topics, docs = pairs.topic_ids, pairs.doc_ids
    if not judged.issuperset(zip(topics, docs)):
        uncovered = [key for key in zip(topics, docs) if key not in judged]
        raise ValidationError(
            f"{len(uncovered)} pairs reference documents absent from the reference "
            f"judgments (first: {uncovered[0]}); the sweep cannot cover them"
        )
    steps = map(place.__getitem__, zip(topics, map(resources.__getitem__, docs)))
    k_max = max(place.values()) + 1
    per_k = accumulate(ref_code_counts(pair_codes(pairs, scale), scale, steps, k_max), _plus)

    tables = [
        table_from_counts(
            counts, user_model, scale, estimator=estimator, condition=condition,
            one_sided_collection=one_sided_collection,
        )
        for counts in per_k
    ]
    series = tuple(
        LevelSeries(
            lvl,
            tuple(t.cells[lvl].p for t in tables),
            tuple(t.cells[lvl].sigma for t in tables),
            tuple(t.cells[lvl].n_total for t in tables),
        )
        for lvl in range(scale.top_index + 1)
    )
    return SensitivityCurve("top_k_resources", tuple(range(1, k_max + 1)), series)


def ref_levels(column, top):
    try:
        levels = [max(0, int(token)) for token in column]
    except ValueError:
        return None
    return None if max(levels) > top else levels


def outcome(fn):
    """(result or error, warning messages in order) of calling fn()."""
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            result = fn()
        except (PrmError, KeyError) as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in rec]


def ints_only(nested):
    return all(ints_only(x) if isinstance(x, list) else type(x) is int for x in nested)


# -- count keys -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_code_counts_match_tuple_keys(data):
    n = data.draw(st.integers(2, 5))
    scale = RelevanceScale(tuple(f"L{i}" for i in range(n)))
    codes = data.draw(st.lists(st.integers(0, n * n - 1), max_size=60))
    n_groups = data.draw(st.integers(1, 6))
    groups = data.draw(st.lists(
        st.integers(0, n_groups - 1), min_size=len(codes), max_size=len(codes)
    ))
    got = code_counts(iter(codes), scale)
    assert got == ref_code_counts(codes, scale) and ints_only(got)
    got = code_counts(iter(codes), scale, iter(groups), n_groups)
    assert got == ref_code_counts(codes, scale, groups, n_groups) and ints_only(got)


TOPIC_IDS = st.sampled_from(["t0", "t1", "t2", "t3"])


@st.composite
def pair_lists(draw):
    """A scale of 2-5 levels and 1-40 pairs, their topics in stretches
    that may come back, and a topic -> group map that may miss a topic."""
    n_levels = draw(st.integers(2, 5))
    scale = RelevanceScale(tuple(f"L{i}" for i in range(n_levels)))
    level = st.integers(0, scale.top_index)
    stretches = draw(st.lists(
        st.tuples(TOPIC_IDS, st.lists(st.tuples(level, level), min_size=1, max_size=8)),
        min_size=1, max_size=6,
    ))
    pairs = [
        JudgmentPair(topic, f"d{i}", a, b)
        for i, (topic, (a, b)) in enumerate(
            (topic, lv) for topic, levels in stretches for lv in levels
        )
    ]
    group_of = draw(st.dictionaries(TOPIC_IDS, st.sampled_from(["a", "b", "c"])))
    return scale, pairs, group_of


@settings(max_examples=150, deadline=None)
@given(pair_lists())
def test_group_pair_counts_match_tuple_keys(collection):
    scale, pairs, group_of = collection
    codes = pair_codes(pairs, scale)
    assert code_counts(codes, scale) == ref_code_counts(codes, scale)
    for groups in (None, group_of):
        got = outcome(lambda: group_pair_counts(pairs, scale, groups))
        assert got == outcome(lambda: ref_group_pair_counts(pairs, scale, groups))
        if groups is None:
            assert ints_only(got[0][1])


# -- quality sweep ----------------------------------------------------------------


@st.composite
def quality_inputs(draw):
    """Reference judgments in stretches of topics that may come back, some
    docs judged under a second intent or under two topics, each doc in one
    resource; and pairs over judged docs, over docs judged only under
    another topic, and over docs judged nowhere."""
    n_levels = draw(st.integers(2, 5))
    scale = RelevanceScale(tuple(f"L{i}" for i in range(n_levels)))
    level = st.integers(0, scale.top_index)
    doc = st.sampled_from([f"d{i}" for i in range(8)])
    judged = {}
    for topic, docs in draw(st.lists(
        st.tuples(TOPIC_IDS, st.lists(doc, min_size=1, max_size=6)), min_size=1, max_size=6
    )):
        for d in docs:
            for intent in (None, "i2")[: draw(st.integers(1, 2))]:
                judged.setdefault((topic, d, intent), draw(level))
    judgments = tuple(Judgment(t, d, lvl, i) for (t, d, i), lvl in judged.items())
    resource = st.sampled_from(["rA", "rB", "rC", "rD"])
    resources = {j.doc_id: draw(resource) for j in judgments}
    reference = JudgmentSet(scale, judgments, "ref", resources)
    keys = list(dict.fromkeys((j.topic_id, j.doc_id) for j in judgments))
    pair_keys = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=30, unique=True))
    if draw(st.booleans()):  # a pair no reference judgment covers
        strays = st.tuples(TOPIC_IDS, st.sampled_from(["d0", "d3", "x9"]))
        for at, key in draw(st.lists(st.tuples(st.integers(0, 30), strays), max_size=3)):
            if key not in pair_keys:
                pair_keys.insert(at, key)
    pairs = [JudgmentPair(t, d, draw(level), draw(level)) for t, d in pair_keys]
    return reference, pairs


@settings(max_examples=200, deadline=None)
@given(quality_inputs(), st.data(), st.sampled_from([
    ("symmetric", "u1"), ("one_sided", "u1"), ("one_sided", "u2"),
]))
def test_quality_matches_tuple_keys(inputs, data, choice):
    reference, pairs = inputs
    theta = data.draw(st.integers(1, reference.scale.top_index))
    estimator, condition = choice
    got = outcome(lambda: quality_sensitivity(
        reference, pairs, UserModel(theta), estimator=estimator, condition=condition
    ))
    want = outcome(lambda: ref_quality_sensitivity(
        reference, pairs, UserModel(theta), estimator=estimator, condition=condition
    ))
    assert got == want


def test_uncovered_pairs_name_the_first_in_input_order():
    scale = RelevanceScale(("a", "b", "c"))
    reference = JudgmentSet(
        scale, (Judgment("t1", "d1", 2), Judgment("t2", "d2", 1)), "ref",
        {"d1": "r1", "d2": "r2"},
    )
    # d2 is judged, but under t2; t3 has no judgments at all
    pairs = [
        JudgmentPair("t1", "d1", 0, 0), JudgmentPair("t1", "d2", 1, 1),
        JudgmentPair("t3", "d1", 2, 2), JudgmentPair("t2", "d2", 1, 0),
    ]
    message = (
        "2 pairs reference documents absent from the reference judgments "
        "(first: ('t1', 'd2')); the sweep cannot cover them"
    )
    for sweep in (quality_sensitivity, ref_quality_sensitivity):
        with pytest.raises(ValidationError) as info:
            sweep(reference, pairs, UserModel(2))
        assert str(info.value) == message


# -- levels -------------------------------------------------------------------------

# tokens that the digit table holds, and spellings that only int() reads
LEVEL_TOKENS = st.sampled_from(
    [str(i) for i in range(10)]
    + ["+1", "01", "-3", "-0", "٣", "1_0", "10", "12", "x", "1.5", "", "²"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(LEVEL_TOKENS, min_size=1, max_size=8), st.integers(1, 12))
@example(["+1", "01", "-3", "٣", "1_0", "9"], 10)
@example(["9"], 8)
@example(["1_0"], 10)
def test_levels_read_as_int(column, top):
    assert corpus._levels(column, top) == ref_levels(column, top)


# -- budget counts ------------------------------------------------------------------


def test_budget_counts_each_drawn_code_once():
    scale = RelevanceScale(("a", "b", "c"))
    pairs = [JudgmentPair(f"t{i % 3}", f"d{i}", i % 3, i * 7 % 3) for i in range(50)]
    bincount = mock.Mock(wraps=np.bincount)
    with mock.patch.object(np, "bincount", bincount):
        simulate_annotation_rounds(pairs, UserModel(2), scale, [5, 20, 60], n_rounds=4, seed=3)
    assert sum(len(call.args[0]) for call in bincount.call_args_list) == 4 * 60


# -- resources -----------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["FW-e1-a", "FW-e22-b", "FW-e3-c", "zz", "FW--d", "yy"]),
                min_size=1, max_size=8),
       st.sampled_from([r"FW-(e\d+)-", r"FW-(e\d+)?-"]))
def test_resources_from_a_pattern_name_the_first_doc_without_a_match(docs, pattern):
    # in the second pattern group 1 is optional: 'FW--d' matches without it,
    # which counts as no match
    scale = RelevanceScale(("a", "b"))
    judgments = JudgmentSet(
        scale, [Judgment(f"t{i}", doc, 1) for i, doc in enumerate(docs)], "u1"
    )
    first = list(dict.fromkeys(docs))
    unmatched = [doc for doc in first if (re.search(pattern, doc) or [None, None])[1] is None]
    if unmatched:
        with pytest.raises(ValidationError) as info:
            attach_resources(judgments, pattern=pattern)
        assert str(info.value) == f"doc id {unmatched[0]!r} does not match resource pattern"
    else:
        out = attach_resources(judgments, pattern=pattern)
        assert out.resources == {doc: re.search(pattern, doc)[1] for doc in first}
        assert list(out.resources) == first
