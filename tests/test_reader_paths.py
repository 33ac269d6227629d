"""Differential tests: the block reader against the line reader.

``parse_qrels``, ``parse_paired`` and ``parse_run`` read a str, a text
stream or a binary stream one block of whole lines at a time, each block
kept as bytes in the form text mode reads it: a block of plain records is
read with one ``bytes.split()``, each other block goes to the line
reader, and reading goes on by blocks after it.  A list of lines always
goes through the line reader.  Both paths must give the same judgments,
doc levels, topics, pairs, codes and runs, or the same error, with the
same warnings in the same order, on text that mixes records with the
inputs the block reader has to reject, at block sizes small enough that
keys, intents and faults fall in different blocks.  A block of pairs
whose levels are all single digits up to T is mapped straight to cell
codes; a block with any other spelling of a level, a two-digit level of
a scale with T of 10 or more among them, takes the level decoder of the
qrels reader, and every path gives the same cells as the other two ways
to build pairs.  A binary stream gives what the line reader gives for
the lines of the same bytes opened as UTF-8 text (CR and CRLF line ends,
byte-order marks, NUL, the blanks of ``str.split()`` that
``bytes.split()`` keeps in a token, UTF-8 blanks and other UTF-8
characters, and bytes that are not UTF-8), and a byte that is not UTF-8
is reported when the block that holds it is reached.
"""

from __future__ import annotations

import io
import re
import sys
import warnings
from array import array
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prmeval import corpus
from prmeval.corpus import (
    Judgment, JudgmentPair, JudgmentPairs, JudgmentSet, RelevanceScale, pair_judgments,
    parse_paired, parse_qrels, parse_run,
)
from prmeval.errors import ParseError, PrmError, ValidationError

SCALE = RelevanceScale(("Non", "Rel", "HRel"))

PARSERS = {
    "qrels": lambda source: parse_qrels(source, SCALE, "u1"),
    "qrels_intents": lambda source: parse_qrels(source, SCALE, "u1", intent_field=True),
    "qrels_declared": lambda source: parse_qrels(
        source, SCALE, "u1", intent_field=True, declared_intents={"t1": ["a", "c"]}
    ),
    "paired": lambda source: parse_paired(source, SCALE),
    "run": parse_run,
}

TOPICS = st.sampled_from(["t1", "t2"])
DOCS = st.sampled_from(["d1", "d2", "d3"])
SECONDS = st.sampled_from(["0", "a", "b"])  # iteration, or intent ("0": none)
GOOD_LEVELS = st.sampled_from(["0", "1", "2"])
# negative (clamped), out of range, non-integer, and spellings int() accepts
LEVELS = st.one_of(
    GOOD_LEVELS, st.sampled_from(["-1", "-7", "3", "10", "x", "1.5", "01", "+1", "+2"])
)
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
    """Everything a caller can read from a parse result; run entries by
    ``repr``, so that a NaN score equals a NaN score."""
    if isinstance(result, corpus.RunRanking):
        entries = repr(list(result.entries))
        return result.system_id, entries, len(result.entries), sorted(result.topics())
    if isinstance(result, JudgmentSet):
        try:
            doc_levels = result.doc_levels()
        except ValidationError as exc:  # a doc judged under two intents
            doc_levels = str(exc)
        return (
            list(result.judgments), doc_levels, sorted(result.topics()),
            dict(Counter(result.levels)), len(result),
        )
    return (
        list(result), result._cells.tolist(), result.width, list(result.topic_ids),
        list(result.doc_ids), len(result),
    )


def _read(parse, source):
    """What parse(source) gives, or its error, and its warnings in order;
    a byte that is not UTF-8 as the CLI words it, with no offset, since a
    block is decoded apart from the rest of the file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            read = _summary(parse(source))
        except PrmError as exc:
            read = (type(exc), str(exc))
        except UnicodeDecodeError as exc:
            read = (type(exc), f"byte 0x{exc.object[exc.start]:02x}: {exc.reason}")
    return read, [(w.category, str(w.message)) for w in caught]


def _streams(text: str):
    """The text as the CLI opens a file, and as a StringIO."""
    yield lambda: io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    yield lambda: io.StringIO(text)


def _check(parse, text: str) -> None:
    """parse() gives the same from the text's lines, from the text, and
    from its streams read in blocks of several sizes."""
    by_lines = _read(parse, io.StringIO(text).readlines())
    assert _read(parse, text) == by_lines
    for stream in _streams(text):
        for block in (7, 40, 200, corpus._BLOCK):
            with mock.patch.object(corpus, "_BLOCK", block):
                assert _read(parse, stream()) == by_lines, block


def _qrels(n: int, topic: str = "t1", second: str = "0", first: int = 1) -> str:
    return "".join(f"{topic} {second} d{i} 1\n" for i in range(first, first + n))


def _pairs(n: int, topic: str = "t1", first: int = 1) -> str:
    return "".join(f"{topic} d{i} 1 2\n" for i in range(first, first + n))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["qrels", "qrels_intents", "qrels_declared"]), _texts(QRELS))
# a 5-field line next to a 3-field line: 4 fields per line on average
@example("qrels", "t1 0 d1 1 x\nt2 0 1\n")
# a repeated key, and an intent-0 record whose expansion repeats a key
@example("qrels", "t1 0 d1 1\nt1 0 d1 2\n")
@example("qrels_intents", "t1 a d1 1\nt1 0 d1 0\n")
# a vertical tab ends no line, so the short line is line 2
@example("qrels", "t1 0\x0bd1 1\nt2 0 d2\n")
# a key repeated in a later block, and then a bad level in a block after it
@example("qrels", _qrels(30) + "t1 0 d1 2\n" + _qrels(5, first=31))
@example("qrels", _qrels(30) + "t1 0 d1 2\n" + _qrels(30, first=31) + "t1 0 d99 7\n")
# an intent-0 record whose topic's intents all came in earlier blocks
@example("qrels_intents", "t1 a d1 1\nt1 c d2 0\n" + _qrels(30, "t2", "b") + "t1 0 d3 1\n")
@example("qrels_declared", "t1 a d1 1\n" + _qrels(30, "t2", "b") + "t1 0 d1 0\n")
# a line longer than a block
@example("qrels", _qrels(3) + f"t1 0 {'d' * 300} 2\n" + _qrels(20, first=4))
def test_qrels_paths_agree(kind, text):
    _check(PARSERS[kind], text)


@settings(max_examples=300, deadline=None)
@given(_texts(PAIRED))
@example("t1 d1 1 2 0\nt2 1 1\n")
@example("t1 d1 1 2\nt1 d1 0 0\n")
@example("t1\x85d1 1 2\nt2 d2 1\n")
@example("t1 d1 1 2\n\x00\n")
# a key repeated in a later block (the warning names line 31), and then a
# bad level in a block after it
@example(_pairs(30) + "t1 d1 0 0\n" + _pairs(5, first=31))
@example(_pairs(30) + "t1 d1 0 0\n" + _pairs(30, first=31) + "t1 d99 1 7\n")
@example(_pairs(3) + f"t1 {'d' * 300} 2 2\n" + _pairs(20, first=4))
def test_paired_paths_agree(text):
    _check(PARSERS["paired"], text)


# -- keys by topic, then doc -------------------------------------------------

# mostly levels the digit table holds, sometimes spellings only int() reads
# and a level above the scale
KEY_LEVELS = st.one_of(GOOD_LEVELS, GOOD_LEVELS, st.sampled_from(["-1", "+1", "01", "10", "9"]))


@st.composite
def _stretch_texts(draw, kind, levels=KEY_LEVELS):
    """Plain records in stretches of equal topics, where a topic may come
    back later, in the same block or in a later one.  A doc is mostly new
    to its topic, and otherwise one that the topic had already, in this
    stretch or an earlier one; new docs are named ``d0``, ``d1``, ... per
    topic, so that the same doc under another topic is no repeat."""
    lines = []
    docs_of: dict[str, list[str]] = {}
    for topic in draw(st.lists(st.sampled_from(["t1", "t2", "t3"]), min_size=1, max_size=12)):
        earlier = docs_of.setdefault(topic, [])
        for _ in range(draw(st.integers(1, 5))):
            if earlier and draw(st.integers(0, 4)) == 0:
                doc = draw(st.sampled_from(earlier))
            else:
                doc = f"d{len(earlier)}"
                earlier.append(doc)
            level = draw(levels)
            if kind == "paired":
                lines.append(f"{topic} {doc} {level} {draw(levels)}\n")
            else:
                lines.append(f"{topic} 0 {doc} {level}\n")
    return "".join(lines)


# block 2 at 40 characters: t1's new docs, then a t2 doc from block 1; only
# line 8 is extra, so t1's docs must not count as seen when block 2 is not
# taken at once
_BACK_IN_A_LATER_BLOCK = _pairs(4, "t2") + _pairs(3, "t1", first=10) + "t2 d1 0 0\n"


@settings(max_examples=500, deadline=None)
@given(_stretch_texts("paired"))
@example(_BACK_IN_A_LATER_BLOCK)
# a doc repeated within its stretch
@example(_pairs(3) + "t1 d2 0 0\n" + _pairs(3, first=4))
# a topic back in the same block, with new docs and with a repeated one
@example(_pairs(2) + _pairs(2, "t2") + _pairs(2, first=3))
@example(_pairs(2) + _pairs(2, "t2") + "t1 d1 0 0\n")
# a topic back in a later block, with new docs and with a repeated one
@example(_pairs(3) + _pairs(30, "t2") + _pairs(3, first=4))
@example(_pairs(3) + _pairs(30, "t2") + _pairs(3, first=3))
# the same doc under two topics is no repeat
@example(_pairs(3) + _pairs(3, "t2") + _pairs(30, "t3") + _pairs(3, "t2", first=4))
def test_paired_keys_by_topic_agree(text):
    _check(PARSERS["paired"], text)


# scales whose top level T has one digit, and two and more
SCALES = {top: RelevanceScale(tuple(f"L{i}" for i in range(top + 1))) for top in (1, 2, 9, 10, 12)}


def _scale_levels(top: int):
    """Levels of a scale with top ``top``, mostly one digit, and spellings
    that only int() reads or that lie above T."""
    spelled = ["-1", "+1", "01", "10", "00", str(top + 1), "x"]
    return st.one_of(
        st.integers(0, min(top, 9)).map(str), st.integers(0, top).map(str),
        st.sampled_from(spelled),
    )


def _scaled_texts(top: int):
    levels = _scale_levels(top)
    texts = st.one_of(
        _stretch_texts("paired", levels), _texts(st.tuples(TOPICS, DOCS, levels, levels).map(list))
    )
    return st.tuples(st.just(top), texts)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SCALES)).flatmap(_scaled_texts))
@example((10, "t1 d1 1 0\nt1 d2 10 1\nt1 d3 0 10\n"))
@example((10, "t1 d1 10 10\n" + _pairs(30)))
@example((12, _pairs(30) + "t1 d99 12 11\n"))
@example((9, _pairs(30) + "t1 d99 9 10\n"))  # 10 lies above T=9
@example((2, "t1 d1 -1 +1\nt1 d2 01 2\nt1 d3 1 10\n"))
@example((1, _pairs(3) + "t1 d9 0 1\n"))  # level 2 of _pairs lies above T=1
def test_paired_paths_agree_on_every_scale(drawn):
    top, text = drawn
    _check(lambda source: parse_paired(source, SCALES[top]), text)


@pytest.mark.parametrize("top, text, decoded", [
    (2, _pairs(50), False),
    (10, "t1 d1 9 0\n" + _pairs(50, first=2), False),
    (10, _pairs(50) + "t1 d99 10 0\n", True),
    (2, _pairs(50) + "t1 d99 -1 0\n", True),
    (2, _pairs(50) + "t1 d99 +1 0\n", True),
    (2, _pairs(50) + "t1 d99 2 01\n", True),
    (2, _pairs(50) + "t1 d99 3 0\n", True),
], ids=["digits", "digits-T10", "10", "-1", "+1", "01", "above-T"])
def test_only_other_spellings_take_the_level_decoder(top, text, decoded):
    with mock.patch.object(corpus, "_levels", wraps=corpus._levels) as levels:
        read = _read(lambda source: parse_paired(source, SCALES[top]), text)
    assert levels.called == decoded
    assert read == _read(lambda source: parse_paired(source, SCALES[top]), text.splitlines())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SCALES)).flatmap(lambda top: st.tuples(
    st.just(top), st.lists(st.tuples(st.integers(0, top), st.integers(0, top)), max_size=30),
    st.sampled_from(["{}", "+{}", "0{}"]),
)))
def test_every_constructor_gives_the_same_cells(drawn):
    # parse_paired (block and line reader), JudgmentPairs(pairs, scale)
    # and pair_judgments over the same pairs
    top, levels, spelling = drawn
    scale = SCALES[top]
    records = [JudgmentPair(f"t{i % 3}", f"d{i}", l1, l2) for i, (l1, l2) in enumerate(levels)]
    text = "".join(
        f"{p.topic_id} {p.doc_id} {spelling.format(p.level_u1)} {spelling.format(p.level_u2)}\n"
        for p in records
    )
    u1 = JudgmentSet(scale, [Judgment(p.topic_id, p.doc_id, p.level_u1) for p in records], "u1")
    u2 = JudgmentSet(scale, [Judgment(p.topic_id, p.doc_id, p.level_u2) for p in records], "u2")
    expected = array("q", [l1 * (top + 1) + l2 for l1, l2 in levels])
    for pairs in (
        parse_paired(text, scale), parse_paired(text.splitlines(), scale),
        JudgmentPairs(records, scale), pair_judgments(u1, u2).pairs,
    ):
        assert (pairs._cells, pairs.width, list(pairs)) == (expected, top + 1, records)


def test_paired_block_commits_its_docs_once_taken():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with mock.patch.object(corpus, "_BLOCK", 40):
            pairs = parse_paired(io.StringIO(_BACK_IN_A_LATER_BLOCK), SCALE)
    assert [str(w.message) for w in caught] == [
        "line 8: extra judgments for (topic=t2, doc=d1) ignored; only the first two are used"
    ]
    assert len(pairs) == 7


@settings(max_examples=300, deadline=None)
@given(_stretch_texts("qrels"))
@example(_qrels(3) + "t1 0 d2 0\n")
@example(_qrels(2) + _qrels(2, "t2") + _qrels(2, first=3))
@example(_qrels(3) + _qrels(30, "t2") + _qrels(3, first=3))
@example(_qrels(3) + _qrels(3, "t2") + _qrels(30, "t3") + _qrels(3, "t2", first=4))
def test_qrels_keys_by_topic_agree(text):
    _check(PARSERS["qrels"], text)


# -- runs ---------------------------------------------------------------------

GOOD_SCORES = st.sampled_from(["3", "2.5", "1e-3", "-0.5", "0"])
# a fault that only a whole record shows, given the topic it goes to
RUN_FAULTS = st.sampled_from([
    ["Q0", "dz", "x", "1", "s1"],  # non-integer rank
    ["Q0", "dz", "1.5", "1", "s1"],
    ["Q0", "dz", "9", "y", "s1"],  # non-numeric score
    ["Q0", "dz", "9", "1", "s2"],  # another system
    ["Q0", "d1", "9", "1", "s1"],  # a doc that may repeat
    ["Q0", "dz", "1", "1", "s1"],  # a rank that repeats
    ["Q0", "dz", "0", "1", "s1"],
    ["Q0", "dz", "99", "1", "s1"],  # a rank gap
    ["Q0", "dz", "+9", "1_0", "s1"],  # spellings int() and float() accept
    ["Q0", "d" * 60, "9", "nan", "s1"],  # longer than a small block
])
RUN_HAZARDS = st.one_of(
    st.tuples(TOPICS, RUN_FAULTS).map(lambda tf: [tf[0], *tf[1]]),
    st.lists(st.sampled_from(["t1", "Q0", "d1", "1", "s1", "\x00"]), min_size=1, max_size=7)
    .filter(lambda fields: len(fields) != 6),
    st.just(["\x00"]),
    st.tuples(st.sampled_from(["#", "  #", "\t# x"]), st.sampled_from(["t1", "\x00"])).map(list),
    st.just([]),  # blank
)


# spellings of a rank 0..9 that int() reads but that are not its numeral
RANK_SPELLINGS = st.sampled_from(
    ["0{}".format, "+{}".format, "0_{}".format, lambda rank: chr(0x660 + rank)]
)


@st.composite
def _run_texts(draw):
    """A run of up to three topics with ranks 1..n each, sometimes in
    rank order, topic by topic, sometimes with a topic's lines out of
    rank order, and sometimes shuffled, with some ranks spelled other
    than as numerals, and up to three faults, comments, blank lines or
    malformed lines put in at random."""
    rows = []
    for topic in draw(st.lists(st.sampled_from(["t1", "t2", "t3"]), min_size=1, unique=True)):
        n = draw(st.integers(1, 8))
        falling = draw(st.booleans())
        ranks = range(1, n + 1)
        if draw(st.booleans()):
            ranks = draw(st.permutations(ranks))
        spelled = draw(st.booleans())
        for rank in ranks:
            score = str(n - rank) if falling else draw(GOOD_SCORES)
            text = draw(st.one_of(st.just(str), RANK_SPELLINGS))(rank) if spelled else str(rank)
            rows.append([topic, "Q0", f"d{rank}", text, score, "s1"])
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    for at, hazard in draw(st.lists(st.tuples(st.integers(0, len(rows)), RUN_HAZARDS), max_size=3)):
        rows.insert(at, hazard)
    separator = st.one_of(st.just(" "), SEPARATORS)
    lines = [(fields, draw(separator), draw(st.sampled_from(["", " "]))) for fields in rows]
    return _join((lines, draw(EOLS), draw(st.booleans())))


def _lines(n: int, topic: str = "t1", first: int = 1, doc: str = "d") -> str:
    return "".join(f"{topic} Q0 {doc}{r} {r} {100 - r} s1\n" for r in range(first, first + n))


# a topic back from rank 1 with new docs, in the same block or a later one
_RESTART = _lines(10, "t1") + _lines(10, "t2") + _lines(10, "t1", doc="e")
# ranks spelled other than as numerals, one topic in rank order
_SPELLED = (
    "t1 Q0 d1 01 99 s1\nt1 Q0 d2 +2 98 s1\n" + _lines(7, first=3)
    + "t1 Q0 d10 1_0 90 s1\nt2 Q0 d1 \u0661 99 s1\n" + _lines(5, "t2", first=2)
)


@settings(max_examples=300, deadline=None)
@given(_run_texts())
@example("t1 Q0 d1 x 1 s1\n" + _lines(20, first=2))  # a fault in the first block
@example(_lines(20) + "t1 Q0 d21 21 x s1\n")  # and in a later one
@example(_lines(20) + "t1 Q0 d21 x 1 s1\n" + _lines(5, first=22))
@example(_lines(3) + f"t1 Q0 {'d' * 300} 4 1 s1\n" + _lines(20, first=5))  # a line longer than a block
@example(_lines(20).rstrip("\n"))  # no final newline
@example(_lines(20).replace("\n", "\r\n"))
@example(_lines(10) + "# a comment\n\n" + _lines(10, first=11))
@example(_lines(10) + "\x00\n" + _lines(10, first=11))
@example(_lines(5) + "t1 Q0\x0bd6 6 1 s1\nt1\x85Q0 d7 7 1\u2028s1\n" + _lines(20, first=8))
@example(_lines(20) + "t1 Q0 d21 21 1 s2\n")  # another system in a later block
@example("t1 Q0 d1 1 nan s1\n")  # a NaN score equals a NaN score
@example(_lines(10, "t1") + _lines(10, "t2") + _lines(10, "t1", 11))  # a topic comes back
@example(_lines(10, "t1") + _lines(10, "t2") + _lines(10, "t1", 10))  # and repeats a rank
@example(_RESTART)
@example(_SPELLED)
@example(_lines(10, "t1") + _SPELLED)
# a comment or blank line at the start, in the middle and at the end
@example("# run s1\n" + _lines(20))
@example("\n" + _lines(20))
@example(_lines(10) + "# page 2\n" + _lines(10, first=11) + "\n" + _lines(10, first=21))
@example(_lines(30) + "# page 2\n" + _lines(30, first=31))
@example(_lines(20) + "# end\n")
@example(_lines(20) + "\n\n")
# faults in blocks after the line reader has taken one
@example("# run s1\n" + _lines(20) + "t1 Q0 d21 x 1 s1\n")
@example(_lines(5) + "\n" + _lines(15, first=6) + "t1 Q0 d21 21 1 s2\n" + _lines(5, first=22))
@example("# run s1\n" + _lines(10, "t1") + "# t2\n" + _lines(10, "t2") + _lines(3, "t1", 10))
def test_run_paths_agree(text):
    _check(parse_run, text)


def test_topic_back_from_rank_1_repeats_a_rank():
    for block in (7, 40, 200, corpus._BLOCK):
        with mock.patch.object(corpus, "_BLOCK", block):
            with pytest.raises(ValidationError, match=r"^topic t1: duplicate rank$"):
                parse_run(io.StringIO(_RESTART))


def test_rows_in_rank_order_keep_no_rank_column():
    # t1 in rank order across blocks, t2 out of order, t3 spelled "01"
    text = _lines(60) + _lines(2, "t2", 2) + _lines(1, "t2") + "t3 Q0 d1 01 1 s1\n"
    for block in (40, 200, corpus._BLOCK):
        with mock.patch.object(corpus, "_BLOCK", block), \
                mock.patch.object(corpus, "_index_run", wraps=corpus._index_run) as index:
            run = parse_run(io.StringIO(text))
        rows = index.call_args.args[1]
        assert rows["t1"][1] is None and rows["t2"][1] == [2, 3, 1] and rows["t3"][1] == [1]
        assert run.doc_ids("t1") == [f"d{r}" for r in range(1, 61)], block
        assert run.doc_ids("t2") == ["d1", "d2", "d3"]


def test_run_error_after_a_resumed_block_names_its_line():
    # header, 20 records, a blank line, 20 records, then a bad rank on line 43
    text = "# run s1\n" + _lines(20) + "\n" + _lines(20, first=21) + "t1 Q0 d41 x 1 s1\n"
    for block in (7, 40, 200):
        with mock.patch.object(corpus, "_BLOCK", block):
            with pytest.raises(ParseError, match=r"^line 43: non-integer rank: 'x'$"):
                parse_run(io.StringIO(text))


def _check_blocks_resume(kind, record):
    parse = PARSERS[kind]
    text = "# header\n" + "".join(record.format(i) for i in range(1, 201))
    with mock.patch.object(corpus, "_BLOCK", 64), \
            mock.patch.object(corpus, "_records", wraps=corpus._records) as records:
        read = parse(io.StringIO(text))
    assert _summary(read) == _summary(parse(text.splitlines()))
    # the line reader sees the first block's lines only, as the ASCII
    # bytes that the block was split as
    first_block = records.call_args.args[0]
    assert records.call_count == 1
    assert isinstance(first_block, bytes) and first_block.count(b"\n") < 10


def test_run_blocks_resume_after_a_comment():
    _check_blocks_resume("run", "t1 Q0 d{0} {0} 1 s1\n")


@pytest.mark.parametrize("kind, record", [
    ("qrels", "t1 0 d{} 1\n"),
    ("paired", "t1 d{} 1 2\n"),
], ids=["qrels", "paired"])
def test_blocks_resume_after_a_comment(kind, record):
    _check_blocks_resume(kind, record)


@pytest.mark.parametrize("kind, text", [
    ("qrels", _qrels(3)), ("qrels_intents", _qrels(3, second="a")), ("paired", _pairs(3)),
    ("run", _lines(3)),
], ids=["qrels", "qrels_intents", "paired", "run"])
@pytest.mark.parametrize("extra", ["", "# header\n"], ids=["block", "line-reader"])
def test_lone_surrogate_of_a_str_reads_as_itself(kind, text, extra):
    # a str source is encoded block by block, and a lone surrogate, which
    # UTF-8 cannot encode, is a character like any other in its topic, doc,
    # intent or system id
    text = extra + text.replace("t1", "t\ud800").replace("d2", "d\udfff2").replace(
        " a ", " \udc80 ").replace("s1", "s\udbff")
    by_lines = _read(PARSERS[kind], text.splitlines())
    assert by_lines[0][0] not in (ParseError, ValidationError)
    for block in (7, corpus._BLOCK):
        with mock.patch.object(corpus, "_BLOCK", block):
            assert _read(PARSERS[kind], text) == by_lines
            assert _read(PARSERS[kind], io.StringIO(text)) == by_lines


class _WholeReadForbidden(io.StringIO):
    def read(self, size=-1):
        assert size is not None and size >= 0, "the stream was read whole"
        return super().read(size)


@pytest.mark.parametrize("kind", ["qrels", "paired"])
def test_no_file_is_read_whole(kind):
    text = "# header\n" + (_qrels(5000) if kind == "qrels" else _pairs(5000))
    read = PARSERS[kind](_WholeReadForbidden(text))
    assert _summary(read) == _summary(PARSERS[kind](text.splitlines()))


@pytest.mark.parametrize("kind, text, message", [
    ("run", _lines(30) + "t1 Q0 d31 31 1\n",
     "line 31: expected 6 fields 'topic Q0 doc rank score system', got 5"),
    ("qrels", _qrels(30) + "t1 d31 1\n",
     "line 31: expected 4 fields 'topic iteration doc level', got 3"),
    ("paired", _pairs(30) + "t1 d31 1\n",
     "line 31: expected 4 fields 'topic doc level_u1 level_u2', got 3"),
])
def test_field_count_message_names_every_field(kind, text, message):
    # the block reader does not slice the columns it skips, but the line
    # reader still names them
    for block in (40, corpus._BLOCK):
        with mock.patch.object(corpus, "_BLOCK", block):
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                PARSERS[kind](io.StringIO(text))


@pytest.mark.parametrize("kind, text, skipped", [
    ("run", _lines(5), [1]),
    ("qrels", _qrels(5), [1]),
    ("qrels_intents", _qrels(5, second="a"), []),
    ("paired", _pairs(5), []),
])
def test_block_reader_slices_only_the_columns_read(kind, text, skipped):
    sliced, columns = [], corpus._columns

    def spy(*args):
        sliced.append(columns(*args))
        return sliced[-1]

    with mock.patch.object(corpus, "_columns", spy):
        read = _read(PARSERS[kind], text)
    assert read == _read(PARSERS[kind], text.splitlines())
    assert [i for i, column in enumerate(sliced[0]) if column is None] == skipped


# -- binary sources -----------------------------------------------------------

def _text_mode(data: bytes) -> io.TextIOWrapper:
    """``data`` as a file opened as UTF-8 text with a byte-order mark dropped."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")


def _read_lines(parse, data: bytes):
    """What the line reader gives for the lines of ``data`` opened as
    UTF-8 text, or the decode error of its first byte that is not UTF-8."""
    return _read(lambda source: parse(source.readlines()), _text_mode(data))


def _block_starts(data: bytes, size: int) -> list[int]:
    """Where each block of a binary stream of ``data`` starts: a block is
    ``size`` bytes, completed to the end of the line it cuts."""
    starts, at = [], 0
    while at < len(data):
        starts.append(at)
        end = at + size
        if data[end - 1 : end] != b"\n":
            newline = data.find(b"\n", end)
            end = len(data) if newline < 0 else newline + 1
        at = end
    return starts


def _read_to_the_bad_block(parse, data: bytes, size: int, not_utf8) -> tuple:
    """What reading ``data`` in blocks of ``size`` bytes gives when it
    holds a byte that is not UTF-8: the blocks before the one that holds
    the first such byte are read in file order, so a fault that the line
    reader finds in them comes first, and else the decode error does,
    with the warnings of those blocks.  The blocks before it are read as
    lines, followed by a one-field line that the line reader must reject."""
    try:
        data.decode()
    except UnicodeDecodeError as exc:
        bad = exc.start
    start = max(at for at in _block_starts(data, size) if at <= bad)
    stop = _text_mode(data[:start]).read().count("\n") + 1
    read, caught = _read_lines(parse, data[:start] + b"stop\n")
    if read[0] is ParseError and read[1].startswith(f"line {stop}: "):
        return not_utf8, caught
    return read, caught


def _check_binary(parse, data: bytes) -> None:
    """parse() gives from a binary stream of ``data``, read in blocks of
    several sizes, what the line reader gives from the lines of ``data``
    opened as UTF-8 text, and so does the text stream: the same result,
    or the same error, with the same warnings in the same order.  A byte
    that is not UTF-8 is reported when its block is reached, so a fault
    in an earlier block comes first."""
    expected = _read_lines(parse, data)
    for size in (7, 40, 200, corpus._BLOCK):
        want = expected
        if expected[0][0] is UnicodeDecodeError:
            want = _read_to_the_bad_block(parse, data, size, expected[0])
        with mock.patch.object(corpus, "_BLOCK", size):
            assert _read(parse, io.BytesIO(data)) == want, size
            if want is expected:
                assert _read(parse, _text_mode(data)) == want, size


TEXTS = {
    "qrels": st.one_of(_texts(QRELS), _stretch_texts("qrels")),
    "qrels_intents": _texts(QRELS),
    "qrels_declared": _texts(QRELS),
    "paired": st.one_of(_texts(PAIRED), _stretch_texts("paired")),
    "run": _run_texts(),
}
# what a file of bytes may hold besides ASCII records: the line ends that
# text mode reads as "\n", a NUL, the blanks of str.split() that are no
# blanks to bytes.split(), UTF-8 blanks (NEL, no-break and ideographic
# space), a byte-order mark, UTF-8 characters that are no blanks (some
# with the lead byte of a blank), and bytes that are not UTF-8
BYTE_EOLS = st.sampled_from([b"\n", b"\r\n", b"\r"])
BYTE_HAZARDS = st.sampled_from([
    b"\r", b"\r\n", b"\n\r", b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f", b" \x1f ",
    "\x85".encode(), "\xa0".encode(), "\u3000".encode(), " \u3000 ".encode(),
    "\ufeff".encode(), "t\xe9".encode(), "\xe9".encode(), "\u4e2d".encode(), "\u3072".encode(),
    "\u2026".encode(), "\u1e9e".encode(), "\xa9".encode(), b"\xff", b"\x80", b"\xe3\x80",
    b"\xc0\xaf", b"\xed\xa0\x80",
])


@st.composite
def _files(draw, kind: str):
    """The bytes of a file of ``kind``: its records with lines ended by
    LF, CRLF or CR, sometimes after a byte-order mark, and up to three
    ``BYTE_HAZARDS`` put in anywhere, so that at a small block size some
    blocks are ASCII and others are not."""
    data = draw(TEXTS[kind]).encode().replace(b"\r\n", b"\n").replace(b"\n", draw(BYTE_EOLS))
    for at, hazard in draw(st.lists(st.tuples(st.integers(0, len(data)), BYTE_HAZARDS),
                                    max_size=3)):
        data = data[:at] + hazard + data[at:]
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + data


_RUN_BYTES = _lines(20).encode()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(PARSERS)).flatmap(lambda kind: st.tuples(st.just(kind),
                                                                        _files(kind))))
@example(("run", _RUN_BYTES.replace(b"\n", b"\r\n")))
@example(("run", _RUN_BYTES.replace(b"\n", b"\r")))
@example(("run", b"\xef\xbb\xbf" + _RUN_BYTES))
# a U+FEFF that starts a later line, and so a block at a small block size
@example(("run", _RUN_BYTES.replace(b"\nt1 Q0 d5 ", b"\n\xef\xbb\xbft1 Q0 d5 ")))
# a blank to str.split() between two fields, and within one
@example(("run", _RUN_BYTES.replace(b" s1\n", b"\x1fs1\n")))
@example(("run", _RUN_BYTES.replace(b" d5 ", b" d\x1f5 ")))
@example(("run", _RUN_BYTES.replace(b"t1 Q0 d5", "t1\u3000Q0\xa0d5".encode())))
@example(("run", _RUN_BYTES.replace(b"t1 Q0 d5", b"t1\x00Q0 d5")))
# a fault in an early block, and a byte that is not UTF-8 in a later one
@example(("run", b"t1 Q0 d1 x 1 s1\n" + _RUN_BYTES[16:] + b"t1 Q0 d\xe9 21 1 s1\n"))
@example(("run", _RUN_BYTES + b"t1 Q0 d21 21 1 s1\r\nt1 Q0 d\xff 22 1 s1\n"))
@example(("qrels", _qrels(30).encode() + b"t1 0 d1 2\n" + _qrels(5, first=31).encode()
          + b"t1 0 d\xe3\x80 1\n"))
@example(("paired", _pairs(30).encode() + b"t1 d1 0 0\r\n" + "t1 d\u3000 1 1\n".encode()
          + b"t1 d\x80 1 1\n"))
@example(("qrels_intents", b"\xef\xbb\xbft1 a d1 1\rt1 0 d2 0\r" + _qrels(20, "t2", "b").encode()))
def test_binary_source_reads_as_text_mode(drawn):
    kind, data = drawn
    _check_binary(PARSERS[kind], data)


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("data, by_lines", [
    (_RUN_BYTES, 0),
    (_RUN_BYTES.replace(b"\n", b"\r\n"), 0),
    (_BOM + _RUN_BYTES, 0),
    (_RUN_BYTES.replace(b" d2 ", " d\xe92 ".encode()), 0),
    # characters with the lead byte of a blank: U+00A9, U+2026 and U+3072
    (_RUN_BYTES.replace(b" d2 ", " d\xa92 ".encode()), 0),
    (_RUN_BYTES.replace(b" d2 ", " d\u20262 ".encode()), 0),
    (_RUN_BYTES.replace(b" d2 ", " d\u30722 ".encode()), 0),
    (_RUN_BYTES[:40] + b"\x1c" + _RUN_BYTES[40:], 1),
    (_RUN_BYTES[:40] + "\u3000".encode() + _RUN_BYTES[40:], 1),
    (_RUN_BYTES[:40] + "\x85".encode() + _RUN_BYTES[40:], 1),
], ids=["ascii", "crlf", "bom", "e-acute", "u00a9", "u2026", "u3072", "x1c", "u3000", "u0085"])
def test_only_plain_ascii_blocks_are_split_as_bytes(data, by_lines):
    # every block is split as bytes in the form text mode reads it, with
    # LF line ends and no byte-order mark, unless it holds a blank of
    # str.split() that bytes.split() keeps in a token: then it goes to the
    # line reader; at 200 bytes a hazard in the first 40 bytes lies in the
    # first block only
    split, read_by_lines = [], []
    columns, records = corpus._columns, corpus._records

    def split_spy(text, *args):
        split.append(text)
        return columns(text, *args)

    def lines_spy(lines, spec, start):
        read_by_lines.append((lines, start))
        return records(lines, spec, start)

    with mock.patch.object(corpus, "_BLOCK", 200), \
            mock.patch.object(corpus, "_columns", split_spy), \
            mock.patch.object(corpus, "_records", lines_spy):
        read = _read(parse_run, io.BytesIO(data))
    assert read == _read(parse_run, _text_mode(data))
    assert [start for _, start in read_by_lines] == [1] * by_lines
    assert len(split) == len(_block_starts(data, 200)) - by_lines
    for block in split + [lines for lines, _ in read_by_lines]:
        assert isinstance(block, bytes) and b"\r" not in block and not block.startswith(_BOM)


def test_text_only_bytes_lead_every_blank_that_only_str_split_splits_at():
    # str.split() splits at what str.isspace() holds and bytes.split() at
    # what bytes.isspace() holds; the Unicode tables differ from one
    # Python to the next
    blanks = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert all(chr(b).isspace() for b in range(256) if bytes([b]).isspace())
    text_only = {c.encode()[0] for c in blanks if not c.encode().isspace()}
    assert text_only == set(corpus._TEXT_ONLY)
    # the lead bytes of blanks that are not ASCII are not ASCII
    assert {b for b in text_only if b < 0x80} == set(corpus._TEXT_ONLY[:4])


def test_text_blank_finds_exactly_the_blanks_that_only_str_split_splits_at():
    # every character whose UTF-8 starts with a byte of _TEXT_ONLY lies
    # below U+4000; a block sends it to the line reader only if it is a
    # blank of str.split() that bytes.split() keeps in a token
    for code in range(0x4000):
        c = chr(code)
        block = f"t1 d{c}1 1\n".encode("utf-8", "surrogatepass")
        blank = c.isspace() and not c.encode().isspace()
        assert corpus._text_blank(block, block.isascii()) is blank, hex(code)
