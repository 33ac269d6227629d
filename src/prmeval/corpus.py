"""Data model and parsers for judgment files, run files, and config sidecars.

File formats (whitespace-separated, one record per line, lines whose first
non-blank character is ``#`` are comments, blank lines are skipped):

- qrels:            ``topic iteration doc level``   (iteration ignored)
- paired judgments: ``topic doc level_u1 level_u2``
- run:              ``topic Q0 doc rank score system``
- intent sidecar:   ``topic intent probability``
- strata map:       ``topic stratum``
- resource map:     ``doc resource``

The relevance scale descriptor is a JSON object mapping level index to
label, e.g. ``{"levels": {"0": "Non", "1": "Rel", "2": "Key"}}``; the top
index may be declared explicitly as ``"top_index"`` and is otherwise
inferred.  An ordered ``"labels"`` list is accepted as a shorthand.

Negative qrels levels are clamped to 0 (a common convention for "judged
non-relevant"); levels above the scale top are validation errors.

Judgments and double judgments are kept as columns, not one object per
record: a :class:`JudgmentSet` holds topic, doc, level and intent
columns, and a :class:`JudgmentPairs` holds topic and doc columns plus
each pair's cell code ``l1 * (T+1) + l2``.  Their records are built only
when a caller reads them.  ``parse_qrels``, ``parse_paired`` and
``parse_run`` read their source in blocks of whole lines, kept as UTF-8
bytes as text mode reads them (``_blocks``): a block of plain records is
split at once, and any other goes to the line reader, which words every
error and warning with the line's number in the file.
"""

from __future__ import annotations

import io
import json
import operator
import re
import warnings
from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import accumulate, chain, groupby, repeat
from typing import IO

from .errors import DataWarning, ParseError, ValidationError

__all__ = [
    "RelevanceScale",
    "Judgment",
    "JudgmentSet",
    "JudgmentPair",
    "JudgmentPairs",
    "PairingResult",
    "RunEntry",
    "RunRanking",
    "RunEntries",
    "parse_scale",
    "parse_qrels",
    "parse_paired",
    "parse_run",
    "parse_intent_probabilities",
    "parse_strata",
    "parse_resource_map",
    "pair_judgments",
    "select_top_intent",
    "attach_resources",
]


class _Frozen:
    """Base of the immutable value records, in place of
    ``@dataclass(frozen=True)``, which would import ``inspect`` and
    ``exec`` generated code for every record class.

    A subclass's fields are its own annotations, in order, and a field's
    default is the class attribute of that name.  A record takes its
    fields by position or keyword and then runs ``__post_init__``.  It
    equals a record of the same class with equal fields, hashes as the
    tuple of its fields, and raises AttributeError on assignment or
    deletion.  ``_replace(**changes)`` builds a changed copy, checked again.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Every field's value from ``args`` and ``kwargs``, with defaults."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        values = {**self._defaults, **values}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return [values[f] for f in fields]

    def __post_init__(self) -> None:
        pass

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _replace(self, **changes) -> "_Frozen":
        return type(self)(**{**dict(zip(self._fields, self._astuple())), **changes})

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._astuple()))
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _integral(value) -> int:
    """``int(value)`` for a JSON field that holds a whole number; int()
    alone would take a boolean and cut off a fraction, so those raise
    ValueError here."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not a whole number: {value!r}")
    return int(value)


class RelevanceScale(_Frozen):
    """Ordered graded assessment levels 0..T.

    Indices are implicit from position, which guarantees they are
    contiguous and strictly increasing.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ValidationError("a relevance scale needs at least two levels")
        if any(not lbl for lbl in self.labels):
            raise ValidationError("scale labels must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"scale labels must be unique: {self.labels}")

    @property
    def top_index(self) -> int:
        return len(self.labels) - 1

    @property
    def levels(self) -> tuple[tuple[int, str], ...]:
        return tuple(enumerate(self.labels))

    def label(self, level: int) -> str:
        return self.labels[level]

    def check_level(self, level: int) -> int:
        if not 0 <= level <= self.top_index:
            raise ValidationError(f"level {level} > T={self.top_index}")
        return level

    def to_descriptor(self) -> dict:
        return {
            "levels": {str(i): lbl for i, lbl in self.levels},
            "top_index": self.top_index,
        }

    @classmethod
    def from_descriptor(cls, obj: Mapping) -> "RelevanceScale":
        if not isinstance(obj, Mapping):
            raise ValidationError(f"scale descriptor must be a JSON object, got {obj!r}")
        if "labels" in obj:
            if not isinstance(obj["labels"], (list, tuple)):
                raise ValidationError(f"bad scale descriptor labels: {obj['labels']!r}")
            labels = tuple(str(x) for x in obj["labels"])
        elif "levels" in obj:
            levels = obj["levels"]
            try:
                indexed = sorted((int(k), str(v)) for k, v in levels.items())
            except (AttributeError, ValueError) as exc:
                raise ValidationError(f"bad scale descriptor levels: {levels!r}") from exc
            if [i for i, _ in indexed] != list(range(len(indexed))):
                raise ValidationError(
                    f"scale indices must be contiguous 0..T, got {[i for i, _ in indexed]}"
                )
            labels = tuple(lbl for _, lbl in indexed)
        else:
            raise ValidationError("scale descriptor needs a 'levels' or 'labels' entry")
        scale = cls(labels)
        declared_top = obj.get("top_index")
        try:
            mismatch = declared_top is not None and _integral(declared_top) != scale.top_index
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad scale descriptor top_index: {declared_top!r}") from exc
        if mismatch:
            raise ValidationError(
                f"declared top_index {declared_top} != inferred {scale.top_index}"
            )
        return scale


class Judgment(_Frozen):
    """One graded label assigned to a result, for one intent when given."""

    topic_id: str
    doc_id: str
    level: int
    intent_id: str | None = None


class JudgmentSet:
    """A validated collection of one assessor group's judgments against
    one scale.

    The judgments are stored as columns: ``topic_ids``, ``doc_ids``,
    ``levels`` and ``intent_ids`` (None when no judgment has an intent),
    one entry per judgment in file order; ``judgments`` builds their
    :class:`Judgment` records when read.  ``resources`` maps each
    judged doc to its resource once :func:`attach_resources` has run.
    Sets compare equal by value and are not hashable.
    """

    __slots__ = ("scale", "group", "resources", "topic_ids", "doc_ids", "levels", "intent_ids")

    def __init__(
        self,
        scale: RelevanceScale,
        judgments: Iterable[Judgment],
        group: str,
        resources: Mapping[str, str] | None = None,
    ) -> None:
        rows = tuple(judgments)
        self._adopt(
            scale, group, [j.topic_id for j in rows], [j.doc_id for j in rows],
            [j.level for j in rows], [j.intent_id for j in rows], resources,
        )
        self._validate()

    @classmethod
    def _of(
        cls,
        scale: RelevanceScale,
        group: str,
        topic_ids: Sequence[str],
        doc_ids: Sequence[str],
        levels: Sequence[int],
        intent_ids: Sequence[str | None] | None = None,
        resources: Mapping[str, str] | None = None,
    ) -> "JudgmentSet":
        """A set from its columns, which the caller has validated."""
        js = cls.__new__(cls)
        js._adopt(scale, group, topic_ids, doc_ids, levels, intent_ids, resources)
        return js

    def _adopt(self, scale, group, topic_ids, doc_ids, levels, intent_ids, resources) -> None:
        self.scale, self.group, self.resources = scale, group, resources
        self.topic_ids, self.doc_ids, self.levels = tuple(topic_ids), tuple(doc_ids), tuple(levels)
        intent_ids = None if intent_ids is None else tuple(intent_ids)
        if intent_ids is not None and intent_ids.count(None) == len(intent_ids):
            intent_ids = None
        self.intent_ids = intent_ids

    def _keys(self) -> Iterator[tuple[str, str, str | None]]:
        return zip(self.topic_ids, self.doc_ids, self.intent_ids or repeat(None))

    def _validate(self) -> None:
        """Check, judgment by judgment, that each level is on the scale
        and each (topic, doc, intent) key occurs once."""
        seen: set[tuple] = set()
        for (topic, doc, intent), level in zip(self._keys(), self.levels):
            if not 0 <= level <= self.scale.top_index:
                raise ValidationError(
                    f"judgment {topic}/{doc}: level {level} > T={self.scale.top_index}"
                )
            if (topic, doc, intent) in seen:
                raise ValidationError(
                    f"duplicate judgment key (topic={topic}, doc={doc}, "
                    f"group={self.group}, intent={intent})"
                )
            seen.add((topic, doc, intent))

    def _take(self, rows: Iterable[int] | None, resources: Mapping[str, str] | None) -> "JudgmentSet":
        """The judgments at ``rows`` (all when None), in that order, with ``resources``."""
        columns = [self.topic_ids, self.doc_ids, self.levels, self.intent_ids]
        if rows is not None:
            rows = list(rows)
            columns = [None if c is None else [c[i] for i in rows] for c in columns]
        return JudgmentSet._of(self.scale, self.group, *columns, resources)

    @property
    def judgments(self) -> tuple[Judgment, ...]:
        """Every judgment in file order, built when read."""
        intents = self.intent_ids or repeat(None)
        return tuple(map(Judgment, self.topic_ids, self.doc_ids, self.levels, intents))

    def __len__(self) -> int:
        return len(self.levels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JudgmentSet):
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    def __repr__(self) -> str:
        return f"JudgmentSet({self.group!r}, {len(self)} judgments, {len(self.topics())} topics)"

    def topics(self) -> set[str]:
        return set(self.topic_ids)

    def doc_levels(self) -> dict[str, dict[str, int]]:
        """Per-topic ``doc -> level`` lookup for evaluation.

        Requires at most one intent per document.  Intent-bearing sets
        must be reduced first (see :func:`select_top_intent`).
        """
        out: dict[str, dict[str, int]] = {}
        for topic, doc, level in zip(self.topic_ids, self.doc_ids, self.levels):
            per_topic = out.get(topic)
            if per_topic is None:
                per_topic = out[topic] = {}
            if doc in per_topic:
                raise ValidationError(
                    f"document {doc} judged under multiple intents for topic "
                    f"{topic}; reduce to a single intent first"
                )
            per_topic[doc] = level
        return out


class JudgmentPair(_Frozen):
    """One result judged independently by both assessor groups."""

    topic_id: str
    doc_id: str
    level_u1: int
    level_u2: int


class JudgmentPairs(Sequence):
    """Doubly judged results as columns, read as a sequence of
    :class:`JudgmentPair`.

    ``topic_ids`` and ``doc_ids`` hold each pair's topic and document, and
    ``_cells`` (an ``array('q')``) its cell code ``l1 * width + l2``,
    where ``width`` is T+1 of the scale the levels were checked against.
    ``disagreement.pair_codes`` hands ``_cells`` to the count kernel, so
    that reading and counting pairs needs no numpy.
    ``JudgmentPairs(pairs, scale)`` checks the levels of any pair
    sequence; the first out-of-range level in input order (pair by pair,
    U1 before U2) raises.
    """

    __slots__ = ("topic_ids", "doc_ids", "width", "_cells")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, pairs: Iterable[JudgmentPair], scale: RelevanceScale) -> None:
        rows = list(pairs)
        levels = [int(level) for p in rows for level in (p.level_u1, p.level_u2)]
        for level in levels:
            scale.check_level(level)
        width = scale.top_index + 1
        cells = [width * a + b for a, b in zip(levels[0::2], levels[1::2])]
        self._adopt([p.topic_id for p in rows], [p.doc_id for p in rows], cells, width)

    @classmethod
    def _of(cls, topic_ids, doc_ids, cells, width: int) -> "JudgmentPairs":
        """Pairs from their columns and cell codes, whose levels the caller has checked."""
        pairs = cls.__new__(cls)
        pairs._adopt(topic_ids, doc_ids, cells, width)
        return pairs

    def _adopt(self, topic_ids, doc_ids, cells, width: int) -> None:
        self.topic_ids, self.doc_ids, self.width = tuple(topic_ids), tuple(doc_ids), width
        self._cells = array("q", cells)

    def __len__(self) -> int:
        return len(self.topic_ids)

    def __eq__(self, other: object) -> bool:
        # equal to any sequence of the same pairs, a list of JudgmentPair included
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __iter__(self) -> Iterator[JudgmentPair]:
        width = self.width
        for topic, doc, code in zip(self.topic_ids, self.doc_ids, self._cells):
            yield JudgmentPair(topic, doc, *divmod(code, width))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        code = self._cells[index]  # an index out of range raises IndexError here
        return JudgmentPair(self.topic_ids[index], self.doc_ids[index], *divmod(code, self.width))

    def __repr__(self) -> str:
        return f"JudgmentPairs({list(self)!r})"


class PairingResult(_Frozen):
    """Inner join of two judgment sets plus a coverage summary."""

    pairs: JudgmentPairs
    unpaired_u1: int
    unpaired_u2: int

    def __len__(self) -> int:
        return len(self.pairs)


class RunEntry(_Frozen):
    topic_id: str
    doc_id: str
    rank: int
    score: float


# Per topic, the ``[docs, ranks, scores]`` columns of a run as read, where
# ``ranks`` is None while row i has rank i + 1.
_Rows = dict[str, list]


class RunRanking:
    """A system's ranked results, stored per topic in rank order.

    Per topic, ranks must be exactly 1..n, so a topic is kept as two
    columns, its doc ids and its scores at ranks 1..n.  When rank order
    and score order disagree, rank is authoritative and a
    :class:`DataWarning` is emitted.  Runs compare equal by value.
    """

    __slots__ = ("system_id", "_docs", "_scores", "_n")

    def __init__(self, system_id: str, entries: Iterable[RunEntry]) -> None:
        rows: _Rows = {}
        for e in entries:
            _add_rows(rows, e.topic_id, [e.doc_id], [e.rank], [e.score])
        self._adopt(system_id, rows)

    def _adopt(self, system_id: str, rows: _Rows) -> None:
        self.system_id = system_id
        self._docs, self._scores = _index_run(system_id, rows)
        self._n = sum(map(len, self._docs.values()))

    @property
    def entries(self) -> "RunEntries":
        """Every entry in (topic, rank) order, as a view with an O(1) ``len``."""
        return RunEntries(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunRanking):
            return NotImplemented
        return (self.system_id, self._docs, self._scores) == (
            other.system_id, other._docs, other._scores
        )

    def __hash__(self) -> int:
        return hash((self.system_id, self._n))

    def __repr__(self) -> str:
        return f"RunRanking({self.system_id!r}, {self._n} entries, {len(self._docs)} topics)"

    def topics(self) -> set[str]:
        return set(self._docs)

    def topic_slice(self, topic_id: str) -> list[RunEntry]:
        docs, scores = self._docs.get(topic_id, ()), self._scores.get(topic_id, ())
        return [
            RunEntry(topic_id, doc, rank, score)
            for rank, (doc, score) in enumerate(zip(docs, scores), start=1)
        ]

    def doc_ids(self, topic_id: str) -> list[str]:
        return list(self._docs.get(topic_id, ()))


class RunEntries:
    """Read-only view of a run's entries in (topic, rank) order.

    Its length is stored in the run; entries are built as it is iterated.
    """

    __slots__ = ("_run",)

    def __init__(self, run: RunRanking) -> None:
        self._run = run

    def __len__(self) -> int:
        return self._run._n

    def __iter__(self) -> Iterator[RunEntry]:
        for topic in self._run._docs:
            yield from self._run.topic_slice(topic)


def _add_rows(rows: _Rows, topic: str, docs: list, ranks: list | None, scores: list) -> None:
    """Append rows to a topic's columns; ``ranks`` None means that their
    ranks go on counting from the topic's rows so far."""
    cols = rows.get(topic)
    if cols is None:
        cols = rows[topic] = [[], None if ranks is None else [], []]
    elif ranks is not None and cols[1] is None:
        cols[1] = list(range(1, len(cols[0]) + 1))
    cols[0].extend(docs)
    if ranks is not None:
        cols[1].extend(ranks)
    cols[2].extend(scores)


def _first_repeat(docs: list[str], ranks: Sequence[int]) -> str | None:
    """The doc whose second occurrence comes first in rank order."""
    seen: set[str] = set()
    for i in sorted(range(len(docs)), key=ranks.__getitem__):
        if docs[i] in seen:
            return docs[i]
        seen.add(docs[i])


def _index_run(
    system_id: str, rows: _Rows
) -> tuple[dict[str, list[str]], dict[str, list[float]]]:
    """Validate a run's per-topic columns and put each topic in rank order.

    The one validation path of every run.  Faults are reported as if the
    entries were visited in (topic, rank) order: first any rank below 1
    or repeated (topic, doc), then per topic a duplicate or missing rank;
    the score-order warning comes with the second pass.  A topic whose
    ranks are None is in rank order 1..n already; its doc and score
    lists are kept, not copied.
    """
    topics = sorted(rows)
    for topic in topics:
        docs, ranks, _ = rows[topic]
        if ranks is None:
            ranks = range(1, len(docs) + 1)
        else:
            low = min(ranks)
            if low < 1:
                raise ValidationError(f"topic {topic}: rank {low} < 1")
        if len(set(docs)) != len(docs):
            doc_key = (topic, _first_repeat(docs, ranks))
            raise ValidationError(f"duplicate (topic, doc) in run {system_id}: {doc_key}")
    docs_by_topic: dict[str, list[str]] = {}
    scores_by_topic: dict[str, list[float]] = {}
    for topic in topics:
        docs, ranks, scores = rows[topic]
        n = len(docs)
        if ranks is not None and ranks != list(range(1, n + 1)):
            ordered = sorted(ranks)
            if len(set(ordered)) != n:
                raise ValidationError(f"topic {topic}: duplicate rank")
            if ordered != list(range(1, n + 1)):
                raise ValidationError(
                    f"topic {topic}: ranks not contiguous 1..{n}: {ordered[:5]}..."
                )
            slot = [0] * n
            for i, rank in enumerate(ranks):
                slot[rank - 1] = i
            docs = [docs[i] for i in slot]
            scores = [scores[i] for i in slot]
        if any(map(operator.gt, scores[1:], scores)):
            warnings.warn(
                f"run {system_id}, topic {topic}: scores increase down the "
                "ranking; keeping rank order",
                DataWarning,
                stacklevel=4,
            )
        docs_by_topic[topic] = docs
        scores_by_topic[topic] = scores
    return docs_by_topic, scores_by_topic


def _records(
    source: str | bytes | IO[bytes] | Iterable[str], spec: str, start: int = 1
) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, fields) skipping blanks and ``#`` comment lines,
    numbering the lines of ``source`` from ``start``; a str, a binary
    stream (see :func:`_whole`) or a block of bytes from :func:`_blocks`
    is split into lines at each newline character.

    ``spec`` names the fields, space-separated; a record with another
    number of fields is a ParseError.
    """
    n = len(spec.split())
    source = _whole(source)
    if isinstance(source, bytes):
        source = source.decode("utf-8", _SURROGATES)
    if isinstance(source, str):
        source = source.split("\n")
    for line_no, raw in enumerate(source, start=start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != n:
            raise ParseError(f"line {line_no}: expected {n} fields '{spec}', got {len(fields)}")
        yield line_no, fields


def _int_field(value: str, what: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ParseError(f"line {line_no}: non-integer {what}: {value!r}") from exc


_BLOCK = 1 << 16
# a binary block is checked strictly as it is read, so its bytes are
# encoded and decoded after that with lone surrogates passed through
_SURROGATES = "surrogatepass"


def _blocks(
    source: str | IO[str] | IO[bytes] | Iterable[str], spec: str, skip: tuple[int, ...] = ()
) -> Iterator[tuple[int, bytes | Iterable[str], list[list | None] | None]]:
    """Yield ``(start, lines, columns)`` for each block of whole lines of
    ``source``, where ``start`` numbers the block's first line.

    A binary stream is read ``_BLOCK`` bytes at a time, as :func:`_text_mode`
    gives them, and a str or text stream ``_BLOCK`` characters, encoded;
    each block is completed to the end of the line it cuts.  ``lines`` is
    the block and ``columns`` its :func:`_columns`, None when it holds a
    blank of :func:`_text_blank`.  Any other iterable of lines is one block.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    binary = isinstance(source, (io.BufferedIOBase, io.RawIOBase))
    if not binary and not isinstance(source, io.TextIOBase):
        yield 1, source, None
        return
    newline = b"\n" if binary else "\n"
    start = 1
    while block := source.read(_BLOCK):
        if not block.endswith(newline):
            block += source.readline()
        ascii = block.isascii()
        if binary:
            # only a block that starts the file starts with line 1
            block = _text_mode(block, ascii, start == 1)
        else:
            block = block.encode("utf-8", _SURROGATES)
        n_lines = block.count(b"\n")
        columns = None if _text_blank(block, ascii) else _columns(block, spec, n_lines, skip)
        yield start, block, columns
        start += n_lines


# the bytes that start a blank of str.split() but not of bytes.split():
# "\x1c" to "\x1f", and the lead bytes of U+0085, U+00A0, U+1680, U+2000
# to U+200A, U+2028, U+2029, U+202F, U+205F and U+3000; and the other ASCII
_TEXT_ONLY = b"\x1c\x1d\x1e\x1f\xc2\xe1\xe2\xe3"
_PLAIN = bytes(sorted(set(range(128)).difference(_TEXT_ONLY)))


def _text_blank(block: bytes, ascii: bool) -> bool:
    """Whether ``block`` holds a blank of ``str.split()`` that
    ``bytes.split()`` keeps in a token.  Only a block with a byte of
    ``_TEXT_ONLY`` can; its bytes other than ``_PLAIN`` are then split as
    text, since ``\u00a9``, ``\u2026`` or ``\u3072`` share a lead byte."""
    if not any(map(block.__contains__, _TEXT_ONLY[:4] if ascii else _TEXT_ONLY)):
        return False
    rest = block.translate(None, _PLAIN).decode("utf-8", _SURROGATES)
    return rest.split() != [rest]


def _text_mode(block: bytes, ascii: bool, first: bool) -> bytes:
    """A block of a binary stream, or all of it, kept as bytes, as text
    mode reads UTF-8: decoded strictly unless ``ascii``, with no byte-order
    mark at the start of the ``first`` block, and with ``"\\r\\n"`` and
    ``"\\r"`` as ``"\\n"``.  A block ends at a newline or at the end of the
    file, so it cuts no character and no ``"\\r\\n"`` in two."""
    if not ascii:
        block.decode()
        if first and block.startswith(b"\xef\xbb\xbf"):
            block = block[3:]
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return block


def _whole(source: str | IO[str] | IO[bytes] | Iterable[str]) -> str | IO[str] | Iterable[str]:
    """A binary stream read whole and decoded as text mode reads it (see
    :func:`_text_mode`); any other source as it is."""
    if isinstance(source, (io.BufferedIOBase, io.RawIOBase)):
        data = source.read()
        return _text_mode(data, data.isascii(), True).decode()
    return source


def _columns(text: bytes, spec: str, n_lines: int, skip: tuple) -> list | None:
    """The field columns of ``text`` (None at the indices in ``skip``) if
    each of its ``n_lines`` lines holds the fields of ``spec`` and none is
    a comment; None otherwise.  One ``split()`` reads the whole text, each
    newline first turned into a NUL token: with no NUL of its own, a NUL at
    every ``fields + 1``-th of ``(fields + 1) * n_lines`` tokens means that
    no line is blank, short or long.  Only the newline ends a line."""
    if b"\0" in text:
        return None
    if not text.endswith(b"\n"):
        text += b"\n"
        n_lines += 1
    n = len(spec.split())
    tokens = text.replace(b"\n", b" \0 ").split()
    if len(tokens) != (n + 1) * n_lines or tokens[n :: n + 1].count(b"\0") != n_lines:
        return None
    columns = [None if i in skip else tokens[i :: n + 1] for i in range(n)]
    if b"#" in text and any(field.startswith(b"#") for field in columns[0]):
        return None
    return columns


def _levels(column: list[bytes], top: int) -> list[int] | None:
    """The integer levels of a field column with negatives clamped to 0,
    or None if one is not an integer or lies above ``top``.  Tokens up to
    ``top`` (at most ``b"9"``) are looked up, others read with ``int()``."""
    digits = {str(i).encode(): i for i in range(min(top, 9) + 1)}
    try:
        return list(map(digits.__getitem__, column))
    except KeyError:
        try:
            levels = [level if level > 0 else 0 for level in map(int, column)]
        except ValueError:
            return None
    return None if max(levels) > top else levels


def _text(column: list[bytes]) -> list[str]:
    """A column of bytes tokens as str, decoded in one go."""
    return b" ".join(column).decode("utf-8", _SURROGATES).split(" ")


def _cuts(topics: Sequence) -> list[int]:
    """``[0, ..., n]``: the bounds of each stretch of equal topics (``[0]``
    when there are none)."""
    return list(accumulate((len(list(g)) for _, g in groupby(topics)), initial=0))


def _stretches(topics: list) -> tuple[list[int], list[str]]:
    """The bounds of each stretch of equal topics in a token column (see
    :func:`_cuts`) and each stretch's topic as str, decoded once."""
    cuts = _cuts(topics)
    return cuts, _text([topics[a] for a in cuts[:-1]])


def _topic_rows(cuts: list[int], names: list[str]) -> list[str]:
    """The topic of each row of the stretches that :func:`_stretches`
    gives, with one string for each stretch."""
    return list(chain.from_iterable(map(repeat, names, map(operator.sub, cuts[1:], cuts))))


def _docs_by_topic(topics: Sequence[str], docs: Sequence[str]) -> dict[str, set[str]]:
    """Each topic's set of docs, added one stretch of equal topics at a
    time; the sets' sizes add up to ``len(docs)`` unless some doc occurs
    twice under one topic."""
    out: dict[str, set[str]] = {}
    cuts = _cuts(topics)
    for a, b in zip(cuts, cuts[1:]):
        topic = topics[a]
        if topic in out:
            out[topic].update(docs[a:b])
        else:
            out[topic] = set(docs[a:b])
    return out


def _unseen_docs(
    seen: Mapping[str, set[str]], topics: Sequence[str], docs: Sequence[str]
) -> dict[str, set[str]] | None:
    """A block's docs per topic (see :func:`_docs_by_topic`), or None if a
    doc repeats under its topic within the block or is in ``seen``."""
    new = _docs_by_topic(topics, docs)
    if sum(map(len, new.values())) != len(docs):
        return None
    if not all(topic_docs.isdisjoint(seen.get(t, ())) for t, topic_docs in new.items()):
        return None
    return new


def _read_json(source: str | IO[str] | IO[bytes], what: str):
    """The JSON value in a string or stream (a binary one decoded by
    :func:`_whole` before the ``try``: a bad byte is not bad JSON).
    Anything ``json`` cannot decode is a ParseError that starts with
    ``what``: bad syntax, nesting deeper than the recursion limit, or an
    integer longer than ``sys.get_int_max_str_digits()``."""
    text = _whole(source)
    text = text if isinstance(text, str) else text.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what}: {exc}") from None


def parse_scale(source: str | IO[str] | IO[bytes]) -> RelevanceScale:
    """Read a JSON scale descriptor from a string or stream."""
    return RelevanceScale.from_descriptor(_read_json(source, "bad scale descriptor JSON"))


_QRELS = "topic iteration doc level"
_PAIRED = "topic doc level_u1 level_u2"


def parse_qrels(
    source: str | IO[str] | IO[bytes] | Iterable[str],
    scale: RelevanceScale,
    group: str,
    *,
    intent_field: bool = False,
    declared_intents: Mapping[str, Sequence[str]] | None = None,
) -> JudgmentSet:
    """Parse ``topic iteration doc level`` records into a JudgmentSet.

    The second field is normally accepted and ignored.  With
    ``intent_field=True`` it is read as an intent identifier instead, and
    records with intent ``"0"`` (meaning: none of the intents apply) are
    expanded into an explicit level-0 judgment for every declared intent
    of the topic.  Declared intents come from ``declared_intents`` when
    given, otherwise from the non-zero intents observed in the file.

    Negative levels clamp to 0; levels above the scale top are errors.
    ``source`` is the file's text, its text or binary stream (read as
    UTF-8 text, see :func:`_text_mode`), or an iterable of its lines.  A
    block of plain records with valid levels and no intent-``0`` record is
    split as bytes, and only its doc ids (and intents) and one topic per
    stretch of equal topics are decoded; any other block goes through the
    line reader, which words every error and warning.  Keys are checked
    once, at the end: with no intents, as each topic's set of doc ids.
    """
    top = scale.top_index
    topics, docs, levels, intents = [], [], [], []
    zero_intent: list[tuple[int, str, str, int]] = []
    for start, lines, columns in _blocks(source, _QRELS, () if intent_field else (1,)):
        if columns is not None:
            block_topics, seconds, block_docs, level_column = columns
            block_levels = _levels(level_column, top)
            block_intents = _text(seconds) if intent_field else ()
            if block_levels is not None and "0" not in block_intents:
                topics += _topic_rows(*_stretches(block_topics))
                docs += _text(block_docs)
                levels += block_levels
                intents += block_intents
                continue
        for line_no, fields in _records(lines, _QRELS, start):
            topic, second, doc, level_str = fields
            level = max(0, _int_field(level_str, "level", line_no))
            if level > top:
                raise ValidationError(f"line {line_no}: level {level} > T={top}")
            if intent_field:
                if second == "0":
                    zero_intent.append((line_no, topic, doc, level))
                    continue
                intents.append(second)
            topics.append(topic)
            docs.append(doc)
            levels.append(level)

    observed_intents: dict[str, set[str]] = {}
    if zero_intent:
        for topic, intent in zip(topics, intents):
            observed_intents.setdefault(topic, set()).add(intent)
    for line_no, topic, doc, level in zero_intent:
        if level != 0:
            warnings.warn(
                f"line {line_no}: intent '0' record carries level {level}; "
                "recorded as non-relevance for every intent",
                DataWarning,
                stacklevel=2,
            )
        if declared_intents is not None and topic in declared_intents:
            expanded = [str(i) for i in declared_intents[topic]]
        else:
            expanded = sorted(observed_intents.get(topic, ()))
        if not expanded:
            raise ValidationError(
                f"line {line_no}: topic {topic} has an intent-'0' record but no "
                "declared intents to expand it over"
            )
        topics += [topic] * len(expanded)
        docs += [doc] * len(expanded)
        levels += [0] * len(expanded)
        intents += expanded

    js = JudgmentSet._of(scale, group, topics, docs, levels, intents if intent_field else None)
    if js.intent_ids is None:
        n_keys = sum(map(len, _docs_by_topic(js.topic_ids, js.doc_ids).values()))
    else:
        n_keys = len(set(js._keys()))
    if n_keys != len(js):
        js._validate()  # words the first repeated key
    return js


def parse_paired(
    source: str | IO[str] | IO[bytes] | Iterable[str], scale: RelevanceScale
) -> JudgmentPairs:
    """Parse ``topic doc level_u1 level_u2`` records.

    A repeated (topic, doc) line means judgments beyond the first two for
    that document; those are ignored with a warning.  ``source`` is read
    as by :func:`parse_qrels`: a block of plain records with valid levels
    and no doc that repeats under its topic, in the block or against the
    topic's docs so far, is taken at once, and any other block goes
    through the line reader.  The docs so far are kept per topic, and a
    block's docs join them only once the whole block is taken.  A pair of
    one-digit levels up to T is looked up straight as its cell code.
    """
    top, width = scale.top_index, scale.top_index + 1
    digits = [(i, str(i).encode()) for i in range(min(top, 9) + 1)]
    code = {(a, b): i * width + j for i, a in digits for j, b in digits}.__getitem__
    topics, docs, cells = [], [], []
    seen: dict[str, set[str]] = {}
    for start, lines, columns in _blocks(source, _PAIRED):
        if columns is not None:
            block_topics, block_docs, l1_column, l2_column = columns
            try:
                block_cells = list(map(code, zip(l1_column, l2_column)))
            except KeyError:  # another spelling, as in parse_qrels
                l1, l2 = _levels(l1_column, top), _levels(l2_column, top)
                block_cells = None if None in (l1, l2) else [width * a + b for a, b in zip(l1, l2)]
            new = None
            if block_cells is not None:
                block_topics = _topic_rows(*_stretches(block_topics))
                block_docs = _text(block_docs)
                new = _unseen_docs(seen, block_topics, block_docs)
            if new is not None:
                for topic, topic_docs in new.items():
                    if topic in seen:
                        seen[topic] |= topic_docs
                    else:
                        seen[topic] = topic_docs
                topics += block_topics
                docs += block_docs
                cells += block_cells
                continue
        for line_no, fields in _records(lines, _PAIRED, start):
            topic, doc, l1_str, l2_str = fields
            l1 = max(0, _int_field(l1_str, "level_u1", line_no))
            l2 = max(0, _int_field(l2_str, "level_u2", line_no))
            for lvl in (l1, l2):
                if lvl > top:
                    raise ValidationError(f"line {line_no}: level {lvl} > T={top}")
            if doc in seen.get(topic, ()):
                warnings.warn(
                    f"line {line_no}: extra judgments for (topic={topic}, doc={doc}) "
                    "ignored; only the first two are used",
                    DataWarning,
                    stacklevel=2,
                )
                continue
            seen.setdefault(topic, set()).add(doc)
            topics.append(topic)
            docs.append(doc)
            cells.append(l1 * width + l2)
    return JudgmentPairs._of(topics, docs, cells, width)


_RUN = "topic Q0 doc rank score system"


def _kept_as_read(
    rows: _Rows, names: list[str], cuts: list[int], rank_column: list, numerals: list
) -> list[bool]:
    """For each stretch ``[a, b)`` of equal topics in a block, whose topic
    is in ``names``, whether its rank tokens are the numerals that go on
    counting its topic's rows read so far, so that its rows can be kept
    with no rank; ``numerals`` holds ``b"1"``, ``b"2"``, ... and grows as
    needed.  A topic with explicit ranks is not kept as read, nor is one
    that came earlier in the block: its rows there are not appended yet,
    so a count from its rows so far would let a repeated rank pass."""
    kept = []
    seen: set[str] = set()
    for a, b, topic in zip(cuts, cuts[1:], names):
        as_read = False
        if topic not in seen:
            seen.add(topic)
            cols = rows.get(topic)
            if cols is None or cols[1] is None:
                m = 0 if cols is None else len(cols[0])
                numerals.extend(b"%d" % c for c in range(len(numerals) + 1, m + b - a + 1))
                as_read = rank_column[a:b] == numerals[m : m + b - a]
        kept.append(as_read)
    return kept


def parse_run(source: str | IO[str] | IO[bytes] | Iterable[str]) -> RunRanking:
    """Parse ``topic Q0 doc rank score system`` records into a RunRanking.

    ``source`` is read as by :func:`parse_qrels`.  A block of plain
    records with integer ranks, numeric scores and the run's one system id
    is appended to its topics' columns one stretch of equal topics at a
    time; a stretch whose rank tokens count on ``b"1"``, ``b"2"``, ... is
    kept as read, with no rank column.  Any other block (one with a
    numeral that is not ASCII among them) goes through the line reader.
    The run is validated and put in rank order once, by the same path as
    ``RunRanking(...)``.
    """
    rows: _Rows = {}
    numerals: list[bytes] = []
    system_id: str | None = None
    for start, lines, columns in _blocks(source, _RUN, (1,)):
        if columns is not None:
            topics, _, docs, rank_column, score_column, systems = columns
            system = systems[0] if system_id is None else system_id.encode("utf-8", _SURROGATES)
            if systems.count(system) == len(systems):
                cuts, names = _stretches(topics)
                kept = _kept_as_read(rows, names, cuts, rank_column, numerals)
                try:
                    scores = list(map(float, score_column))
                    ranks = None if all(kept) else list(map(int, rank_column))
                except ValueError:
                    pass
                else:
                    system_id = system.decode("utf-8", _SURROGATES)
                    docs = _text(docs)
                    for a, b, name, as_read in zip(cuts, cuts[1:], names, kept):
                        _add_rows(
                            rows, name, docs[a:b], None if as_read else ranks[a:b], scores[a:b]
                        )
                    continue
        for line_no, fields in _records(lines, _RUN, start):
            topic, _q0, doc, rank_str, score_str, system = fields
            rank = _int_field(rank_str, "rank", line_no)
            try:
                score = float(score_str)
            except ValueError as exc:
                raise ParseError(f"line {line_no}: non-numeric score: {score_str!r}") from exc
            if system_id is None:
                system_id = system
            elif system != system_id:
                raise ValidationError(
                    f"line {line_no}: inconsistent system_id {system!r} != {system_id!r}"
                )
            _add_rows(rows, topic, [doc], [rank], [score])
    if system_id is None:
        raise ValidationError("run file contains no records")
    # adopted at the depth of ``RunRanking(...)``, so that the score-order
    # warning names the caller
    run = RunRanking.__new__(RunRanking)
    run._adopt(system_id, rows)
    return run


def parse_intent_probabilities(source: IO[bytes] | Iterable[str]) -> dict[str, dict[str, float]]:
    """Parse ``topic intent probability`` records."""
    out: dict[str, dict[str, float]] = {}
    for line_no, fields in _records(source, "topic intent probability"):
        topic, intent, prob_str = fields
        try:
            prob = float(prob_str)
        except ValueError as exc:
            raise ParseError(f"line {line_no}: non-numeric probability: {prob_str!r}") from exc
        if not 0.0 <= prob <= 1.0:
            raise ValidationError(f"line {line_no}: probability {prob} outside [0, 1]")
        if intent in out.get(topic, {}):
            raise ValidationError(f"line {line_no}: duplicate (topic, intent)")
        out.setdefault(topic, {})[intent] = prob
    return out


def parse_strata(source: IO[bytes] | Iterable[str]) -> dict[str, str]:
    """Parse ``topic stratum`` records into a topic -> stratum map."""
    out: dict[str, str] = {}
    for line_no, fields in _records(source, "topic stratum"):
        topic, stratum = fields
        if topic in out:
            raise ValidationError(f"line {line_no}: duplicate topic {topic}")
        out[topic] = stratum
    return out


def parse_resource_map(source: IO[bytes] | Iterable[str]) -> dict[str, str]:
    """Parse ``doc resource`` records into a doc -> resource map."""
    out: dict[str, str] = {}
    for line_no, fields in _records(source, "doc resource"):
        doc, resource = fields
        if doc in out and out[doc] != resource:
            raise ValidationError(f"line {line_no}: conflicting resource for doc {doc}")
        out[doc] = resource
    return out


def pair_judgments(set_u1: JudgmentSet, set_u2: JudgmentSet) -> PairingResult:
    """Inner-join two judgment sets on (topic, doc, intent).

    Documents judged by only one group are excluded from the pairs and
    counted in the coverage summary.  Both sets must use the same scale.
    """
    if set_u1.scale.labels != set_u2.scale.labels:
        raise ValidationError(
            f"scale mismatch: {set_u1.scale.labels} != {set_u2.scale.labels}"
        )

    u2_levels = dict(zip(set_u2._keys(), set_u2.levels))
    width = set_u1.scale.top_index + 1
    topics, docs, cells = [], [], []
    for key, level in zip(set_u1._keys(), set_u1.levels):
        other = u2_levels.get(key)
        if other is not None:
            topics.append(key[0])
            docs.append(key[1])
            cells.append(level * width + other)
    pairs = JudgmentPairs._of(topics, docs, cells, width)
    return PairingResult(pairs, len(set_u1) - len(pairs), len(u2_levels) - len(pairs))


def select_top_intent(
    judgments: JudgmentSet, intent_probs: Mapping[str, Mapping[str, float]]
) -> JudgmentSet:
    """Keep only each topic's most probable intent.

    Judgments without an intent are kept as-is.  Probability ties break
    to the lexicographically smallest intent id for determinism.
    """
    top: dict[str, str] = {
        topic: min(probs, key=lambda i: (-probs[i], i))
        for topic, probs in intent_probs.items()
        if probs
    }
    kept: list[int] = []
    intents = judgments.intent_ids or repeat(None)
    for i, (topic, intent) in enumerate(zip(judgments.topic_ids, intents)):
        if intent is None:
            kept.append(i)
            continue
        if topic not in top:
            raise ValidationError(
                f"topic {topic} has intents but no intent probabilities"
            )
        if intent == top[topic]:
            kept.append(i)
    return judgments._take(kept, judgments.resources)


def attach_resources(
    judgments: JudgmentSet,
    *,
    resource_map: Mapping[str, str] | None = None,
    pattern: str | None = None,
) -> JudgmentSet:
    """The set with ``resources`` mapping each judged doc to its resource,
    from a doc -> resource map or from the first capture group of
    ``pattern`` applied to the doc id.  Docs resolve once each, in file
    order, so a failure names the first doc that cannot be resolved."""
    if (resource_map is None) == (pattern is None):
        raise ValidationError("provide exactly one of resource_map or pattern")
    docs = list(dict.fromkeys(judgments.doc_ids))
    if pattern is not None:
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            raise ValidationError(f"bad resource pattern {pattern!r}: {exc}") from None
        if not compiled.groups:
            raise ValidationError(f"resource pattern needs a capture group: {pattern!r}")
        # a match whose group 1 took no part counts as no match
        values = [m and m[1] for m in map(compiled.search, docs)]
        if None in values:
            missing = docs[values.index(None)]
            raise ValidationError(f"doc id {missing!r} does not match resource pattern")
    else:
        missing = next((doc for doc in docs if doc not in resource_map), None)
        if missing is not None:
            raise ValidationError(f"doc id {missing!r} missing from resource map")
        values = [resource_map[doc] for doc in docs]
    return judgments._take(None, dict(zip(docs, values)))
