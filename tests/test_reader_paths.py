"""Differential tests: the whole-file reader against the line reader.

``parse_qrels`` and ``parse_paired`` read a str (or a text stream) in one
``split()`` when every line is a plain record, and fall back to the line
reader otherwise; a list of lines always goes through the line reader.
Both must give the same judgments, doc levels, topics, pairs and codes,
or the same error, with the same warnings in the same order, on text
that mixes records with the inputs the one-pass reader has to reject.
"""

from __future__ import annotations

import io
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from prmeval.corpus import JudgmentSet, RelevanceScale, parse_paired, parse_qrels
from prmeval.errors import PrmError, ValidationError

SCALE = RelevanceScale(("Non", "Rel", "HRel"))

PARSERS = {
    "qrels": lambda source: parse_qrels(source, SCALE, "u1"),
    "qrels_intents": lambda source: parse_qrels(source, SCALE, "u1", intent_field=True),
    "qrels_declared": lambda source: parse_qrels(
        source, SCALE, "u1", intent_field=True, declared_intents={"t1": ["a", "c"]}
    ),
    "paired": lambda source: parse_paired(source, SCALE),
}

TOPICS = st.sampled_from(["t1", "t2"])
DOCS = st.sampled_from(["d1", "d2", "d3"])
SECONDS = st.sampled_from(["0", "a", "b"])  # iteration, or intent ("0": none)
GOOD_LEVELS = st.sampled_from(["0", "1", "2"])
# negative (clamped), out of range, non-integer, and spellings int() accepts
LEVELS = st.one_of(GOOD_LEVELS, st.sampled_from(["-1", "-7", "3", "x", "1.5", "01", "+2"]))
# blanks that split() splits on but that end no line in the line reader
SEPARATORS = st.sampled_from([" ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
EOLS = st.sampled_from(["\n", "\r\n"])

QRELS = st.tuples(TOPICS, SECONDS, DOCS, LEVELS).map(list)
PAIRED = st.tuples(TOPICS, DOCS, LEVELS, LEVELS).map(list)


def _join(parts) -> str:
    lines, eol, last_eol = parts
    text = eol.join(pad + sep.join(fields) + pad for fields, sep, pad in lines)
    return text + eol if last_eol and lines else text


def _texts(record):
    """Text that is only records, which the one-pass reader may take, or
    records mixed with comments with leading blanks, blank lines,
    standalone NUL tokens and lines with too few or too many fields.
    Fields are split by random blanks; lines end in LF or CRLF, the last
    one sometimes with no line end at all."""
    field = st.sampled_from(["t1", "d1", "0", "1", "2", "x", "\x00"])
    hazard = st.one_of(
        record,
        record,
        st.lists(field, min_size=1, max_size=3),  # short
        st.lists(field, min_size=5, max_size=6),  # long
        st.just(["\x00"]),
        st.tuples(st.sampled_from(["#", "  #", "\t# x"]), field).map(list),
        st.just([]),  # blank
    )
    plain = st.tuples(record, st.just(" "), st.just(""))
    mixed = st.tuples(hazard, SEPARATORS, st.sampled_from(["", " ", "\t"]))
    return st.one_of(
        st.tuples(st.lists(plain, min_size=1, max_size=8), EOLS, st.booleans()),
        st.tuples(st.lists(mixed, max_size=8), EOLS, st.booleans()),
    ).map(_join)


def _summary(result):
    """Everything a caller can read from a parse result."""
    if isinstance(result, JudgmentSet):
        try:
            doc_levels = result.doc_levels()
        except ValidationError as exc:  # a doc judged under two intents
            doc_levels = str(exc)
        return (
            list(result.judgments), doc_levels, sorted(result.topics()),
            result.level_histogram(), len(result),
        )
    return (
        list(result), result.codes.tolist(), list(result.topic_ids),
        list(result.doc_ids), len(result),
    )


def _read(parse, source):
    """What parse(source) gives, or its error, and its warnings in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            read = _summary(parse(source))
        except PrmError as exc:
            read = (type(exc), str(exc))
    return read, [(w.category, str(w.message)) for w in caught]


def _check(kind: str, text: str) -> None:
    parse = PARSERS[kind]
    by_lines = _read(parse, io.StringIO(text).readlines())
    assert _read(parse, text) == by_lines
    assert _read(parse, io.StringIO(text)) == by_lines


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["qrels", "qrels_intents", "qrels_declared"]), _texts(QRELS))
# a 5-field line next to a 3-field line: 4 fields per line on average
@example("qrels", "t1 0 d1 1 x\nt2 0 1\n")
# a repeated key, and an intent-0 record whose expansion repeats a key
@example("qrels", "t1 0 d1 1\nt1 0 d1 2\n")
@example("qrels_intents", "t1 a d1 1\nt1 0 d1 0\n")
# a vertical tab ends no line, so the short line is line 2
@example("qrels", "t1 0\x0bd1 1\nt2 0 d2\n")
def test_qrels_paths_agree(kind, text):
    _check(kind, text)


@settings(max_examples=300, deadline=None)
@given(_texts(PAIRED))
@example("t1 d1 1 2 0\nt2 1 1\n")
@example("t1 d1 1 2\nt1 d1 0 0\n")
@example("t1\x85d1 1 2\nt2 d2 1\n")
@example("t1 d1 1 2\n\x00\n")
def test_paired_paths_agree(text):
    _check("paired", text)
