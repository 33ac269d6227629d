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
when a caller reads them.  Given a file's whole text or stream,
``parse_qrels`` and ``parse_paired`` read it with one ``split()`` when
every line is a plain record, and fall back to the line reader
otherwise; runs are always read line by line, which bounds their memory.
"""

from __future__ import annotations

import io
import json
import operator
import re
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import IO

import numpy as np

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
    "write_qrels",
    "write_paired",
    "write_run",
    "pair_judgments",
    "select_top_intent",
    "attach_resources",
]


@dataclass(frozen=True)
class RelevanceScale:
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
            mismatch = declared_top is not None and int(declared_top) != scale.top_index
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad scale descriptor top_index: {declared_top!r}") from exc
        if mismatch:
            raise ValidationError(
                f"declared top_index {declared_top} != inferred {scale.top_index}"
            )
        return scale


@dataclass(frozen=True)
class Judgment:
    """One graded label assigned to a result, for one intent when given."""

    topic_id: str
    doc_id: str
    level: int
    intent_id: str | None = None


class _Records(Sequence):
    """Read-only view of records kept as columns: a record is built when
    it is read."""

    __slots__ = ()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = index + len(self) if index < 0 else index
        if not 0 <= i < len(self):
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._record(i)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


def _same_records(view: _Records, other: object) -> bool:
    """Judgment views equal any sequence of the same records, as the
    tuple and list that they replace did."""
    if not isinstance(other, Sequence) or isinstance(other, str):
        return NotImplemented
    return len(view) == len(other) and all(map(operator.eq, view, other))


class JudgmentSet:
    """A validated collection of one assessor group's judgments against
    one scale.

    The judgments are stored as columns: ``topic_ids``, ``doc_ids``,
    ``levels`` and ``intent_ids`` (None when no judgment has an intent),
    one entry per judgment in file order; ``judgments`` is a view that
    builds :class:`Judgment` records on access.  ``resources`` maps each
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
    def judgments(self) -> "JudgmentView":
        """Every judgment in file order, as a view with an O(1) ``len``."""
        return JudgmentView(self)

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

    def level_histogram(self) -> dict[int, int]:
        """Counts per level over all judgments (histogram conservation:
        values sum to ``len(self)``)."""
        return dict(Counter(self.levels))

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


class JudgmentView(_Records):
    """Read-only view of a judgment set's judgments in file order."""

    __slots__ = ("_set",)
    __eq__ = _same_records
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, judgments: JudgmentSet) -> None:
        self._set = judgments

    def __len__(self) -> int:
        return len(self._set)

    def __iter__(self) -> Iterator[Judgment]:
        js = self._set
        return map(Judgment, js.topic_ids, js.doc_ids, js.levels, js.intent_ids or repeat(None))

    def _record(self, i: int) -> Judgment:
        js = self._set
        intent = None if js.intent_ids is None else js.intent_ids[i]
        return Judgment(js.topic_ids[i], js.doc_ids[i], js.levels[i], intent)


@dataclass(frozen=True)
class JudgmentPair:
    """One result judged independently by both assessor groups."""

    topic_id: str
    doc_id: str
    level_u1: int
    level_u2: int


class JudgmentPairs(_Records):
    """Doubly judged results as columns, read as a sequence of
    :class:`JudgmentPair`.

    ``topic_ids`` and ``doc_ids`` hold each pair's topic and document, and
    ``codes`` (a read-only int64 array) its cell code ``l1 * width + l2``,
    where ``width`` is T+1 of the scale the levels were checked against.
    ``JudgmentPairs(pairs, scale)`` checks the levels of any pair sequence;
    the first out-of-range level in input order (pair by pair, U1 before
    U2) raises.
    """

    __slots__ = ("topic_ids", "doc_ids", "codes", "width")
    __eq__ = _same_records
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, pairs: Iterable[JudgmentPair], scale: RelevanceScale) -> None:
        rows = list(pairs)
        levels = np.array([(p.level_u1, p.level_u2) for p in rows], dtype=np.int64)
        levels = levels.reshape(-1, 2)
        bad = np.flatnonzero((levels < 0) | (levels > scale.top_index))
        if bad.size:
            scale.check_level(int(levels.flat[bad[0]]))
        self._adopt(
            [p.topic_id for p in rows], [p.doc_id for p in rows],
            levels[:, 0], levels[:, 1], scale.top_index + 1,
        )

    @classmethod
    def _of(cls, topic_ids, doc_ids, levels_u1, levels_u2, width: int) -> "JudgmentPairs":
        """Pairs from their columns, whose levels the caller has checked."""
        pairs = cls.__new__(cls)
        pairs._adopt(topic_ids, doc_ids, levels_u1, levels_u2, width)
        return pairs

    def _adopt(self, topic_ids, doc_ids, levels_u1, levels_u2, width: int) -> None:
        self.topic_ids, self.doc_ids, self.width = tuple(topic_ids), tuple(doc_ids), width
        codes = np.asarray(levels_u1, dtype=np.int64) * width
        codes += np.asarray(levels_u2, dtype=np.int64)
        codes.flags.writeable = False
        self.codes = codes

    def __len__(self) -> int:
        return len(self.topic_ids)

    def __iter__(self) -> Iterator[JudgmentPair]:
        width = self.width
        for topic, doc, code in zip(self.topic_ids, self.doc_ids, self.codes.tolist()):
            yield JudgmentPair(topic, doc, *divmod(code, width))

    def _record(self, i: int) -> JudgmentPair:
        return JudgmentPair(self.topic_ids[i], self.doc_ids[i], *divmod(int(self.codes[i]), self.width))


@dataclass(frozen=True)
class PairingResult:
    """Inner join of two judgment sets plus a coverage summary."""

    pairs: JudgmentPairs
    unpaired_u1: int
    unpaired_u2: int

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class RunEntry:
    topic_id: str
    doc_id: str
    rank: int
    score: float


class RunRanking:
    """A system's ranked results, stored per topic in rank order.

    Per topic, ranks must be exactly 1..n, so a topic is kept as two
    columns, its doc ids and its scores at ranks 1..n.  When rank order
    and score order disagree, rank is authoritative and a
    :class:`DataWarning` is emitted.  Runs compare equal by value.
    """

    __slots__ = ("system_id", "_docs", "_scores", "_n")

    def __init__(self, system_id: str, entries: Iterable[RunEntry]) -> None:
        rows: dict[str, tuple[list, list, list]] = {}
        for e in entries:
            _add_row(rows, e.topic_id, e.doc_id, e.rank, e.score)
        self._adopt(system_id, rows)

    @classmethod
    def _from_rows(
        cls, system_id: str, rows: Mapping[str, tuple[list, list, list]]
    ) -> "RunRanking":
        """A run from per-topic ``(docs, ranks, scores)`` columns in any row order."""
        run = cls.__new__(cls)
        run._adopt(system_id, rows)
        return run

    def _adopt(self, system_id: str, rows: Mapping[str, tuple[list, list, list]]) -> None:
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


class RunEntries(_Records):
    """Read-only view of a run's entries in (topic, rank) order.

    Its length is stored in the run; entries are built on access.
    """

    __slots__ = ("_run",)

    def __init__(self, run: RunRanking) -> None:
        self._run = run

    def __len__(self) -> int:
        return self._run._n

    def __iter__(self) -> Iterator[RunEntry]:
        for topic in self._run._docs:
            yield from self._run.topic_slice(topic)

    def _record(self, i: int) -> RunEntry:
        for topic, docs in self._run._docs.items():
            if i < len(docs):
                return RunEntry(topic, docs[i], i + 1, self._run._scores[topic][i])
            i -= len(docs)


def _add_row(
    rows: dict[str, tuple[list, list, list]], topic: str, doc: str, rank: int, score: float
) -> None:
    cols = rows.get(topic)
    if cols is None:
        cols = rows[topic] = ([], [], [])
    cols[0].append(doc)
    cols[1].append(rank)
    cols[2].append(score)


def _first_repeat(docs: list[str], ranks: list[int]) -> str | None:
    """The doc whose second occurrence comes first in rank order."""
    seen: set[str] = set()
    for i in sorted(range(len(docs)), key=ranks.__getitem__):
        if docs[i] in seen:
            return docs[i]
        seen.add(docs[i])


def _index_run(
    system_id: str, rows: Mapping[str, tuple[list, list, list]]
) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[float, ...]]]:
    """Validate a run's per-topic columns and put each topic in rank order.

    The one validation path of every run.  Faults are reported as if the
    entries were visited in (topic, rank) order: first any rank below 1
    or repeated (topic, doc), then per topic a duplicate or missing rank;
    the score-order warning comes with the second pass.
    """
    topics = sorted(rows)
    for topic in topics:
        docs, ranks, _ = rows[topic]
        low = min(ranks)
        if low < 1:
            raise ValidationError(f"topic {topic}: rank {low} < 1")
        if len(set(docs)) != len(docs):
            doc_key = (topic, _first_repeat(docs, ranks))
            raise ValidationError(f"duplicate (topic, doc) in run {system_id}: {doc_key}")
    docs_by_topic: dict[str, tuple[str, ...]] = {}
    scores_by_topic: dict[str, tuple[float, ...]] = {}
    for topic in topics:
        docs, ranks, scores = rows[topic]
        n = len(ranks)
        if ranks != list(range(1, n + 1)):
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
        docs_by_topic[topic] = tuple(docs)
        scores_by_topic[topic] = tuple(scores)
    return docs_by_topic, scores_by_topic


def _records(source: Iterable[str], spec: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, fields) skipping blanks and ``#`` comment lines.

    ``spec`` names the fields, space-separated; a record with another
    number of fields is a ParseError.
    """
    n = len(spec.split())
    for line_no, raw in enumerate(source, start=1):
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


def _text(source: str | IO[str] | Iterable[str]) -> str | None:
    """The whole text of a str or a text stream; None for other line iterables."""
    if isinstance(source, str):
        return source
    return source.read() if isinstance(source, io.TextIOBase) else None


_SENTINEL = "\0"


def _columns(text: str, spec: str) -> list[list[str]] | None:
    """The field columns of ``text`` if every line holds exactly the
    fields of ``spec`` and none is a comment; None otherwise.

    One ``split()`` reads the whole text, with each newline first turned
    into a sentinel token, so that each line's fields end at a sentinel.
    When the text holds no sentinel of its own, as many tokens as
    ``fields + 1`` per line with a sentinel at every ``fields + 1``-th
    place means that no line is blank, short or long.  As in the line
    reader, only the newline character ends a line, not the other line
    boundaries of ``str.splitlines`` (such as ``\\x0b`` or ``\\u2028``),
    which ``split()`` treats as blanks within a line.
    """
    if _SENTINEL in text:
        return None
    if not text.endswith("\n"):
        text += "\n"
    n, n_lines = len(spec.split()), text.count("\n")
    tokens = text.replace("\n", f" {_SENTINEL} ").split()
    if len(tokens) != (n + 1) * n_lines or tokens[n :: n + 1].count(_SENTINEL) != n_lines:
        return None
    columns = [tokens[i :: n + 1] for i in range(n)]
    if "#" in text and any(field.startswith("#") for field in columns[0]):
        return None
    return columns


def _levels(column: list[str], top: int) -> np.ndarray | None:
    """The integer levels of a field column with negatives clamped to 0,
    or None if one is not an integer or lies above ``top``."""
    try:
        levels = np.maximum(np.array(list(map(int, column)), dtype=np.int64), 0)
    except (ValueError, OverflowError):
        return None
    return None if levels.max() > top else levels


def _unique(*columns: list[str]) -> bool:
    """Whether the rows of the key columns are distinct."""
    return len(set(zip(*columns))) == len(columns[0])


def parse_scale(source: str | IO[str]) -> RelevanceScale:
    """Read a JSON scale descriptor from a string or stream."""
    text = source if isinstance(source, str) else source.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad scale descriptor JSON: {exc}") from exc
    return RelevanceScale.from_descriptor(obj)


_QRELS = "topic iteration doc level"
_PAIRED = "topic doc level_u1 level_u2"


def parse_qrels(
    source: str | IO[str] | Iterable[str],
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
    ``source`` is the file's text or stream, or an iterable of its lines.
    Text whose every line is a plain record is read in one pass; any
    other input, and every input that needs an error or a warning, goes
    through the line reader, which words them.
    """
    text = _text(source)
    columns = None if text is None else _columns(text, _QRELS)
    if columns is not None:
        topics, seconds, docs, level_column = columns
        levels = _levels(level_column, scale.top_index)
        intents = seconds if intent_field else None
        keys = (topics, seconds, docs) if intent_field else (topics, docs)
        if levels is not None and not (intent_field and "0" in seconds) and _unique(*keys):
            return JudgmentSet._of(scale, group, topics, docs, levels.tolist(), intents)

    topics, docs, levels, intents = [], [], [], []
    zero_intent: list[tuple[int, str, str, int]] = []
    observed_intents: dict[str, set[str]] = {}
    lines = source if text is None else text.split("\n")
    for line_no, fields in _records(lines, _QRELS):
        topic, second, doc, level_str = fields
        level = max(0, _int_field(level_str, "level", line_no))
        if level > scale.top_index:
            raise ValidationError(
                f"line {line_no}: level {level} > T={scale.top_index}"
            )
        if intent_field:
            if second == "0":
                zero_intent.append((line_no, topic, doc, level))
                continue
            observed_intents.setdefault(topic, set()).add(second)
            intents.append(second)
        topics.append(topic)
        docs.append(doc)
        levels.append(level)

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
    js._validate()
    return js


def parse_paired(source: str | IO[str] | Iterable[str], scale: RelevanceScale) -> JudgmentPairs:
    """Parse ``topic doc level_u1 level_u2`` records.

    A repeated (topic, doc) line means judgments beyond the first two for
    that document; those are ignored with a warning.  ``source`` is read
    as by :func:`parse_qrels`.
    """
    text = _text(source)
    columns = None if text is None else _columns(text, _PAIRED)
    width = scale.top_index + 1
    if columns is not None:
        topics, docs, l1_column, l2_column = columns
        l1 = _levels(l1_column, scale.top_index)
        l2 = None if l1 is None else _levels(l2_column, scale.top_index)
        if l2 is not None and _unique(topics, docs):
            return JudgmentPairs._of(topics, docs, l1, l2, width)

    topics, docs, l1s, l2s = [], [], [], []
    seen: set[tuple[str, str]] = set()
    lines = source if text is None else text.split("\n")
    for line_no, fields in _records(lines, _PAIRED):
        topic, doc, l1_str, l2_str = fields
        l1 = max(0, _int_field(l1_str, "level_u1", line_no))
        l2 = max(0, _int_field(l2_str, "level_u2", line_no))
        for lvl in (l1, l2):
            if lvl > scale.top_index:
                raise ValidationError(
                    f"line {line_no}: level {lvl} > T={scale.top_index}"
                )
        if (topic, doc) in seen:
            warnings.warn(
                f"line {line_no}: extra judgments for (topic={topic}, doc={doc}) "
                "ignored; only the first two are used",
                DataWarning,
                stacklevel=2,
            )
            continue
        seen.add((topic, doc))
        topics.append(topic)
        docs.append(doc)
        l1s.append(l1)
        l2s.append(l2)
    return JudgmentPairs._of(topics, docs, l1s, l2s, width)


def parse_run(source: Iterable[str]) -> RunRanking:
    """Parse ``topic Q0 doc rank score system`` records into a RunRanking.

    Lines are grouped by topic as they are read; the run is validated and
    put in rank order once, by the same path as ``RunRanking(...)``.
    """
    rows: dict[str, tuple[list, list, list]] = {}
    system_id: str | None = None
    for line_no, fields in _records(source, "topic Q0 doc rank score system"):
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
        _add_row(rows, topic, doc, rank, score)
    if system_id is None:
        raise ValidationError("run file contains no records")
    return RunRanking._from_rows(system_id, rows)


def parse_intent_probabilities(source: Iterable[str]) -> dict[str, dict[str, float]]:
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


def parse_strata(source: Iterable[str]) -> dict[str, str]:
    """Parse ``topic stratum`` records into a topic -> stratum map."""
    out: dict[str, str] = {}
    for line_no, fields in _records(source, "topic stratum"):
        topic, stratum = fields
        if topic in out:
            raise ValidationError(f"line {line_no}: duplicate topic {topic}")
        out[topic] = stratum
    return out


def parse_resource_map(source: Iterable[str]) -> dict[str, str]:
    """Parse ``doc resource`` records into a doc -> resource map."""
    out: dict[str, str] = {}
    for line_no, fields in _records(source, "doc resource"):
        doc, resource = fields
        if doc in out and out[doc] != resource:
            raise ValidationError(f"line {line_no}: conflicting resource for doc {doc}")
        out[doc] = resource
    return out


def write_qrels(judgments: JudgmentSet, stream: IO[str]) -> None:
    """Serialize to qrels lines; the ignored iteration field is written as
    the intent id when present and ``0`` otherwise."""
    for j in judgments.judgments:
        second = j.intent_id if j.intent_id is not None else "0"
        stream.write(f"{j.topic_id} {second} {j.doc_id} {j.level}\n")


def write_paired(pairs: Sequence[JudgmentPair], stream: IO[str]) -> None:
    for p in pairs:
        stream.write(f"{p.topic_id} {p.doc_id} {p.level_u1} {p.level_u2}\n")


def write_run(run: RunRanking, stream: IO[str]) -> None:
    for e in run.entries:
        stream.write(
            f"{e.topic_id} Q0 {e.doc_id} {e.rank} {e.score!r} {run.system_id}\n"
        )


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
    topics, docs, l1s, l2s = [], [], [], []
    for key, level in zip(set_u1._keys(), set_u1.levels):
        other = u2_levels.get(key)
        if other is not None:
            topics.append(key[0])
            docs.append(key[1])
            l1s.append(level)
            l2s.append(other)
    pairs = JudgmentPairs._of(topics, docs, l1s, l2s, set_u1.scale.top_index + 1)
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
        found = list(map(compiled.search, docs))
        if None in found:
            raise ValidationError(
                f"doc id {docs[found.index(None)]!r} does not match resource pattern"
            )
        values = [m[1] for m in found]
    else:
        missing = next((doc for doc in docs if doc not in resource_map), None)
        if missing is not None:
            raise ValidationError(f"doc id {missing!r} missing from resource map")
        values = [resource_map[doc] for doc in docs]
    return judgments._take(None, dict(zip(docs, values)))
