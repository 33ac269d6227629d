from __future__ import annotations

import io
import json
import re
from collections import Counter

import pytest

from prmeval.corpus import (
    Judgment,
    JudgmentPair,
    JudgmentSet,
    RelevanceScale,
    RunEntry,
    RunRanking,
    attach_resources,
    pair_judgments,
    parse_intent_probabilities,
    parse_paired,
    parse_qrels,
    parse_resource_map,
    parse_run,
    parse_scale,
    parse_strata,
    select_top_intent,
)
from prmeval.errors import DataWarning, ParseError, ValidationError
from synth import write_paired, write_qrels, write_run


class TestRelevanceScale:
    def test_levels_and_top_index(self):
        scale = RelevanceScale(("Non", "Rel", "HRel", "Key"))
        assert scale.top_index == 3
        assert scale.levels == ((0, "Non"), (1, "Rel"), (2, "HRel"), (3, "Key"))
        assert scale.label(2) == "HRel"

    def test_needs_two_levels(self):
        with pytest.raises(ValidationError, match="at least two"):
            RelevanceScale(("only",))

    def test_unique_labels(self):
        with pytest.raises(ValidationError, match="unique"):
            RelevanceScale(("a", "a"))

    def test_check_level_bounds(self):
        scale = RelevanceScale(("Non", "Rel"))
        assert scale.check_level(1) == 1
        with pytest.raises(ValidationError, match="level 2 > T=1"):
            scale.check_level(2)

    def test_descriptor_round_trip(self):
        scale = RelevanceScale(("Non", "Rel", "HRel"))
        assert RelevanceScale.from_descriptor(scale.to_descriptor()) == scale

    def test_parse_scale_levels_mapping(self, scale3_json):
        scale = parse_scale(scale3_json)
        assert scale.labels == ("Non", "Rel", "HRel")

    def test_parse_scale_labels_list(self):
        scale = parse_scale('{"labels": ["Non", "Rel"]}')
        assert scale.top_index == 1

    def test_parse_scale_stream(self, scale3_json):
        assert parse_scale(io.StringIO(scale3_json)).top_index == 2

    def test_declared_top_index_mismatch(self):
        obj = {"levels": {"0": "Non", "1": "Rel"}, "top_index": 3}
        with pytest.raises(ValidationError, match="top_index"):
            RelevanceScale.from_descriptor(obj)

    def test_non_contiguous_indices(self):
        with pytest.raises(ValidationError, match="contiguous"):
            RelevanceScale.from_descriptor({"levels": {"0": "Non", "2": "HRel"}})

    def test_bad_json(self):
        with pytest.raises(ParseError, match="JSON"):
            parse_scale("{not json")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"labels": 5}', "bad scale descriptor labels: 5"),
            ('{"labels": "NRH"}', "bad scale descriptor labels: 'NRH'"),
            ('{"levels": {"0": "a", "1": "b"}, "top_index": "x"}',
             "bad scale descriptor top_index: 'x'"),
            ('{"labels": ["a", "b", "c"], "top_index": 2.9}',
             "bad scale descriptor top_index: 2.9"),
            ('{"labels": ["a", "b"], "top_index": 1.5}', "bad scale descriptor top_index: 1.5"),
            ('{"labels": ["a", "b"], "top_index": true}', "bad scale descriptor top_index: True"),
            ('{"labels": ["a", "b"], "top_index": Infinity}',
             "bad scale descriptor top_index: inf"),
            ("[1, 2]", "scale descriptor must be a JSON object, got [1, 2]"),
        ],
    )
    def test_malformed_descriptor_names_the_field(self, text, message):
        with pytest.raises(ValidationError) as excinfo:
            parse_scale(text)
        assert str(excinfo.value) == message


class TestParseQrels:
    def test_direct_field_mapping(self, scale3):
        js = parse_qrels(["201 0 d1 2\n"], scale3, "u1")
        assert js.judgments == (Judgment("201", "d1", 2),)

    def test_level_above_top_rejected(self, scale3):
        with pytest.raises(ValidationError, match="level 9 > T=2"):
            parse_qrels(["201 0 d1 9\n"], scale3, "u1")

    def test_histogram_golden(self, scale3, golden_qrels_u1):
        js = parse_qrels(golden_qrels_u1.splitlines(), scale3, "u1")
        assert dict(Counter(js.levels)) == {0: 6, 1: 10, 2: 4}
        assert len(js) == 20

    def test_histogram_conservation(self, scale3, golden_qrels_u2):
        js = parse_qrels(golden_qrels_u2.splitlines(), scale3, "u2")
        assert sum(Counter(js.levels).values()) == len(js)
        assert dict(Counter(js.levels)) == {0: 7, 1: 7, 2: 6}

    def test_negative_level_clamps_to_zero(self, scale3):
        js = parse_qrels(["201 0 d1 -2\n"], scale3, "u1")
        assert js.judgments[0].level == 0

    def test_iteration_field_ignored(self, scale3):
        js = parse_qrels(["201 Q7 d1 1\n"], scale3, "u1")
        assert js.judgments[0].intent_id is None

    def test_comments_and_blank_lines_skipped(self, scale3):
        lines = ["# header\n", "\n", "201 0 d1 1\n", "   \n"]
        assert len(parse_qrels(lines, scale3, "u1")) == 1

    def test_wrong_field_count(self, scale3):
        with pytest.raises(ParseError, match="line 1"):
            parse_qrels(["201 d1 1\n"], scale3, "u1")

    def test_non_integer_level(self, scale3):
        with pytest.raises(ParseError, match="line 2.*level"):
            parse_qrels(["201 0 d1 1\n", "201 0 d2 high\n"], scale3, "u1")

    def test_duplicate_key_rejected(self, scale3):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_qrels(["201 0 d1 1\n", "201 0 d1 2\n"], scale3, "u1")


class TestIntentQrels:
    def test_intent_field_parsed(self, scale3):
        js = parse_qrels(["201 i1 d1 2\n"], scale3, "u1", intent_field=True)
        assert js.judgments[0].intent_id == "i1"

    def test_intent_zero_expands_over_observed_intents(self, scale3):
        lines = ["201 i1 d1 2\n", "201 i2 d2 1\n", "201 0 d3 0\n"]
        js = parse_qrels(lines, scale3, "u1", intent_field=True)
        expanded = {(j.doc_id, j.intent_id): j.level for j in js.judgments}
        assert expanded[("d3", "i1")] == 0
        assert expanded[("d3", "i2")] == 0
        assert len(js) == 4

    def test_intent_zero_uses_declared_intents(self, scale3):
        js = parse_qrels(
            ["201 0 d1 0\n"],
            scale3,
            "u1",
            intent_field=True,
            declared_intents={"201": ["a", "b", "c"]},
        )
        assert {j.intent_id for j in js.judgments} == {"a", "b", "c"}

    def test_intent_zero_with_level_warns(self, scale3):
        with pytest.warns(DataWarning, match="intent '0'"):
            js = parse_qrels(
                ["201 i1 d1 1\n", "201 0 d2 2\n"], scale3, "u1", intent_field=True
            )
        assert all(j.level == 0 for j in js.judgments if j.doc_id == "d2")

    def test_intent_zero_without_intents_rejected(self, scale3):
        with pytest.raises(ValidationError, match="no\\s+declared intents"):
            parse_qrels(["201 0 d1 0\n"], scale3, "u1", intent_field=True)


class TestParsePaired:
    def test_basic(self, scale3, golden_paired_text):
        pairs = parse_paired(golden_paired_text.splitlines(), scale3)
        assert len(pairs) == 20
        assert pairs[0] == JudgmentPair("201", "d1", 2, 1)

    def test_extra_judgments_ignored_with_warning(self, scale3):
        lines = ["201 d1 2 1\n", "201 d1 0 0\n"]
        with pytest.warns(DataWarning, match="first two"):
            pairs = parse_paired(lines, scale3)
        assert pairs == [JudgmentPair("201", "d1", 2, 1)]

    def test_negative_levels_clamped(self, scale3):
        pairs = parse_paired(["201 d1 -1 -3\n"], scale3)
        assert (pairs[0].level_u1, pairs[0].level_u2) == (0, 0)

    def test_level_above_top_rejected(self, scale3):
        with pytest.raises(ValidationError, match="level 5 > T=2"):
            parse_paired(["201 d1 1 5\n"], scale3)

    def test_field_count(self, scale3):
        with pytest.raises(ParseError, match="line 1"):
            parse_paired(["201 d1 1\n"], scale3)


class TestParseRun:
    def test_three_lines_one_topic(self):
        lines = [
            "201 Q0 d2 1 9.5 sysA\n",
            "201 Q0 d7 2 8.0 sysA\n",
            "201 Q0 d1 3 7.5 sysA\n",
        ]
        run = parse_run(lines)
        assert run.system_id == "sysA"
        assert run.doc_ids("201") == ["d2", "d7", "d1"]

    def test_duplicate_rank_rejected(self):
        lines = [
            "201 Q0 d1 1 3.0 sysA\n",
            "201 Q0 d2 1 2.0 sysA\n",
            "201 Q0 d3 2 1.0 sysA\n",
        ]
        with pytest.raises(ValidationError, match="duplicate rank"):
            parse_run(lines)

    def test_non_contiguous_ranks_rejected(self):
        lines = ["201 Q0 d1 1 3.0 sysA\n", "201 Q0 d2 3 2.0 sysA\n"]
        with pytest.raises(ValidationError, match="contiguous"):
            parse_run(lines)

    def test_increasing_scores_warn_but_rank_wins(self):
        lines = ["201 Q0 d1 1 1.0 sysA\n", "201 Q0 d2 2 5.0 sysA\n"]
        with pytest.warns(DataWarning, match="rank order"):
            run = parse_run(lines)
        assert run.doc_ids("201") == ["d1", "d2"]

    def test_duplicate_doc_rejected(self):
        lines = ["201 Q0 d1 1 3.0 sysA\n", "201 Q0 d1 2 2.0 sysA\n"]
        with pytest.raises(ValidationError, match="duplicate"):
            parse_run(lines)

    def test_inconsistent_system_rejected(self):
        lines = ["201 Q0 d1 1 3.0 sysA\n", "201 Q0 d2 2 2.0 sysB\n"]
        with pytest.raises(ValidationError, match="inconsistent system"):
            parse_run(lines)

    def test_empty_run_rejected(self):
        with pytest.raises(ValidationError, match="no records"):
            parse_run(["# nothing\n"])

    def test_non_numeric_score(self):
        with pytest.raises(ParseError, match="score"):
            parse_run(["201 Q0 d1 1 high sysA\n"])

    def test_entries_sorted_by_topic_then_rank(self):
        lines = [
            "202 Q0 x1 1 2.0 sysA\n",
            "201 Q0 d2 2 1.0 sysA\n",
            "201 Q0 d1 1 2.0 sysA\n",
        ]
        run = parse_run(lines)
        assert [e.topic_id for e in run.entries] == ["201", "201", "202"]


class TestJudgmentSet:
    def test_level_bounds_checked(self, scale3):
        with pytest.raises(ValidationError, match="level 3 > T=2"):
            JudgmentSet(scale3, (Judgment("201", "d1", 3),), "u1")

    def test_doc_levels(self, scale3):
        js = JudgmentSet(
            scale3,
            (Judgment("201", "d1", 2), Judgment("202", "d1", 0)),
            "u1",
        )
        assert js.doc_levels() == {"201": {"d1": 2}, "202": {"d1": 0}}

    def test_doc_levels_rejects_unreduced_intents(self, scale3):
        js = JudgmentSet(
            scale3,
            (
                Judgment("201", "d1", 2, intent_id="a"),
                Judgment("201", "d1", 0, intent_id="b"),
            ),
            "u1",
        )
        with pytest.raises(ValidationError, match="intent"):
            js.doc_levels()


class TestPairing:
    def test_table1_pairing(self, scale3, golden_qrels_u1, golden_qrels_u2, golden_pairs):
        u1 = parse_qrels(golden_qrels_u1.splitlines(), scale3, "u1")
        u2 = parse_qrels(golden_qrels_u2.splitlines(), scale3, "u2")
        result = pair_judgments(u1, u2)
        assert list(result.pairs) == golden_pairs
        assert result.unpaired_u1 == 0
        assert result.unpaired_u2 == 0

    def test_unpaired_counted(self, scale3):
        u1 = parse_qrels(["201 0 d1 2\n", "201 0 d2 1\n"], scale3, "u1")
        u2 = parse_qrels(["201 0 d2 0\n", "201 0 d3 1\n"], scale3, "u2")
        result = pair_judgments(u1, u2)
        assert len(result) == 1
        assert result.unpaired_u1 == 1
        assert result.unpaired_u2 == 1

    def test_scale_mismatch_rejected(self, scale3, scale4):
        u1 = JudgmentSet(scale3, (Judgment("201", "d1", 1),), "u1")
        u2 = JudgmentSet(scale4, (Judgment("201", "d1", 1),), "u2")
        with pytest.raises(ValidationError, match="scale mismatch"):
            pair_judgments(u1, u2)

    def test_intents_join_on_intent(self, scale3):
        u1 = JudgmentSet(scale3, (Judgment("201", "d1", 2, intent_id="a"),), "u1")
        u2 = JudgmentSet(scale3, (Judgment("201", "d1", 1, intent_id="b"),), "u2")
        assert len(pair_judgments(u1, u2)) == 0


SCALE3 = RelevanceScale(("Non", "Rel", "HRel"))


@pytest.mark.parametrize(
    "parse, line, message",
    [
        (lambda lines: parse_qrels(lines, SCALE3, "u1"), "201 0 d1",
         "line 3: expected 4 fields 'topic iteration doc level', got 3"),
        (lambda lines: parse_paired(lines, SCALE3), "201 d1 1 2 0",
         "line 3: expected 4 fields 'topic doc level_u1 level_u2', got 5"),
        (parse_run, "201 Q0 d1 1 2.5",
         "line 3: expected 6 fields 'topic Q0 doc rank score system', got 5"),
        (parse_intent_probabilities, "201 i1",
         "line 3: expected 3 fields 'topic intent probability', got 2"),
        (parse_strata, "201 easy extra",
         "line 3: expected 2 fields 'topic stratum', got 3"),
        (parse_resource_map, "d1",
         "line 3: expected 2 fields 'doc resource', got 1"),
    ],
    ids=["qrels", "paired", "run", "intents", "strata", "resource_map"],
)
def test_field_count_message(parse, line, message):
    # the comment and blank line still count towards the line number
    with pytest.raises(ParseError) as excinfo:
        parse(["# header\n", "\n", line + "\n"])
    assert str(excinfo.value) == message


class TestRoundTrip:
    def test_qrels(self, scale3, golden_qrels_u1):
        js = parse_qrels(golden_qrels_u1.splitlines(), scale3, "u1")
        buf = io.StringIO()
        write_qrels(js, buf)
        again = parse_qrels(buf.getvalue().splitlines(), scale3, "u1")
        assert again.judgments == js.judgments

    def test_paired(self, scale3, golden_paired_text):
        pairs = parse_paired(golden_paired_text.splitlines(), scale3)
        buf = io.StringIO()
        write_paired(pairs, buf)
        assert parse_paired(buf.getvalue().splitlines(), scale3) == pairs

    def test_run(self):
        lines = ["201 Q0 d1 1 3.25 sysA\n", "201 Q0 d2 2 -1.5 sysA\n"]
        run = parse_run(lines)
        buf = io.StringIO()
        write_run(run, buf)
        again = parse_run(buf.getvalue().splitlines())
        assert again == run


class TestSidecars:
    def test_intent_probabilities(self):
        probs = parse_intent_probabilities(["201 i1 0.7\n", "201 i2 0.3\n"])
        assert probs == {"201": {"i1": 0.7, "i2": 0.3}}

    def test_probability_bounds(self):
        with pytest.raises(ValidationError, match="outside"):
            parse_intent_probabilities(["201 i1 1.5\n"])

    def test_duplicate_intent_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_intent_probabilities(["201 i1 0.5\n", "201 i1 0.5\n"])

    def test_strata(self):
        assert parse_strata(["201 web\n", "202 news\n"]) == {
            "201": "web",
            "202": "news",
        }

    def test_strata_duplicate_topic(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_strata(["201 web\n", "201 news\n"])

    def test_resource_map(self):
        assert parse_resource_map(["d1 engineA\n"]) == {"d1": "engineA"}

    def test_resource_map_conflict(self):
        with pytest.raises(ValidationError, match="conflicting"):
            parse_resource_map(["d1 engineA\n", "d1 engineB\n"])


class TestSelectTopIntent:
    def test_keeps_most_probable(self, scale3):
        js = JudgmentSet(
            scale3,
            (
                Judgment("201", "d1", 2, intent_id="a"),
                Judgment("201", "d2", 1, intent_id="b"),
            ),
            "u1",
        )
        kept = select_top_intent(js, {"201": {"a": 0.2, "b": 0.8}})
        assert [j.doc_id for j in kept.judgments] == ["d2"]

    def test_tie_breaks_lexicographically(self, scale3):
        js = JudgmentSet(
            scale3,
            (
                Judgment("201", "d1", 2, intent_id="b"),
                Judgment("201", "d2", 1, intent_id="a"),
            ),
            "u1",
        )
        kept = select_top_intent(js, {"201": {"a": 0.5, "b": 0.5}})
        assert [j.intent_id for j in kept.judgments] == ["a"]

    def test_missing_probabilities_rejected(self, scale3):
        js = JudgmentSet(scale3, (Judgment("201", "d1", 2, intent_id="a"),), "u1")
        with pytest.raises(ValidationError, match="probabilities"):
            select_top_intent(js, {})

    def test_intentless_judgments_kept(self, scale3):
        js = JudgmentSet(scale3, (Judgment("201", "d1", 2),), "u1")
        assert select_top_intent(js, {}).judgments == js.judgments


class TestAttachResources:
    def test_with_map(self, scale3):
        js = JudgmentSet(scale3, (Judgment("201", "d1", 2),), "u1")
        out = attach_resources(js, resource_map={"d1": "engineA"})
        assert out.resources == {"d1": "engineA"}
        assert out.judgments == js.judgments

    def test_with_pattern(self, scale3):
        js = JudgmentSet(scale3, (Judgment("201", "FW-e007-d1", 2),), "u1")
        out = attach_resources(js, pattern=r"FW-(e\d+)-")
        assert out.resources == {"FW-e007-d1": "e007"}

    def test_missing_from_map(self, scale3):
        js = JudgmentSet(scale3, (Judgment("201", "d1", 2),), "u1")
        with pytest.raises(ValidationError, match="missing"):
            attach_resources(js, resource_map={})

    def test_pattern_must_match(self, scale3):
        js = JudgmentSet(scale3, (Judgment("201", "d1", 2),), "u1")
        with pytest.raises(ValidationError, match="does not match"):
            attach_resources(js, pattern=r"FW-(e\d+)-")

    @pytest.mark.parametrize(
        "pattern, message",
        [
            ("(", "bad resource pattern '(': missing ), unterminated subpattern"),
            (r"FW-e\d+-", r"resource pattern needs a capture group: 'FW-e\\d+-'"),
        ],
    )
    def test_pattern_checked_up_front(self, scale3, pattern, message):
        js = JudgmentSet(scale3, (Judgment("201", "FW-e007-d1", 2),), "u1")
        with pytest.raises(ValidationError, match=re.escape(message)):
            attach_resources(js, pattern=pattern)

    def test_each_doc_resolved_once_in_file_order(self, scale3):
        js = JudgmentSet(
            scale3,
            (
                Judgment("201", "FW-e1-a", 2),
                Judgment("202", "zz", 1),
                Judgment("203", "FW-e1-a", 0),
                Judgment("203", "aa", 0),
            ),
            "u1",
        )
        with pytest.raises(ValidationError, match="doc id 'zz' does not match"):
            attach_resources(js, pattern=r"FW-(e\d+)-")
        with pytest.raises(ValidationError, match="doc id 'zz' missing"):
            attach_resources(js, resource_map={"FW-e1-a": "e1"})
        out = attach_resources(js, resource_map={"aa": "x", "FW-e1-a": "e1", "zz": "y"})
        assert list(out.resources.items()) == [("FW-e1-a", "e1"), ("zz", "y"), ("aa", "x")]

    def test_exactly_one_source(self, scale3):
        js = JudgmentSet(scale3, (Judgment("201", "d1", 2),), "u1")
        with pytest.raises(ValidationError, match="exactly one"):
            attach_resources(js, resource_map={"d1": "a"}, pattern=r"(d)")


def test_run_ranking_validates_on_construction():
    with pytest.raises(ValidationError, match="rank 0 < 1"):
        RunRanking("sysA", (RunEntry("201", "d1", 0, 1.0),))


def test_json_descriptor_is_valid_json(scale3):
    text = json.dumps(scale3.to_descriptor())
    assert parse_scale(text) == scale3
