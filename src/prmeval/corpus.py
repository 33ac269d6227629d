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
"""

from __future__ import annotations

import json
import operator
import re
import warnings
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from typing import IO

from .errors import DataWarning, ParseError, ValidationError

__all__ = [
    "RelevanceScale",
    "Judgment",
    "JudgmentSet",
    "JudgmentPair",
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

    @property
    def key(self) -> tuple[str, str, str | None]:
        return (self.topic_id, self.doc_id, self.intent_id)


@dataclass(frozen=True)
class JudgmentSet:
    """A validated collection of one assessor group's judgments against
    one scale; ``resources`` maps each judged doc to its resource once
    :func:`attach_resources` has run."""

    scale: RelevanceScale
    judgments: tuple[Judgment, ...]
    group: str
    resources: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        seen: set[tuple] = set()
        for j in self.judgments:
            if not 0 <= j.level <= self.scale.top_index:
                raise ValidationError(
                    f"judgment {j.topic_id}/{j.doc_id}: level {j.level} > T={self.scale.top_index}"
                )
            if j.key in seen:
                raise ValidationError(
                    f"duplicate judgment key (topic={j.topic_id}, doc={j.doc_id}, "
                    f"group={self.group}, intent={j.intent_id})"
                )
            seen.add(j.key)

    def __len__(self) -> int:
        return len(self.judgments)

    def topics(self) -> set[str]:
        return {j.topic_id for j in self.judgments}

    def level_histogram(self) -> dict[int, int]:
        """Counts per level over all judgments (histogram conservation:
        values sum to ``len(self)``)."""
        return dict(Counter(j.level for j in self.judgments))

    def doc_levels(self) -> dict[str, dict[str, int]]:
        """Per-topic ``doc -> level`` lookup for evaluation.

        Requires at most one intent per document.  Intent-bearing sets
        must be reduced first (see :func:`select_top_intent`).
        """
        out: dict[str, dict[str, int]] = {}
        for j in self.judgments:
            per_topic = out.setdefault(j.topic_id, {})
            if j.doc_id in per_topic:
                raise ValidationError(
                    f"document {j.doc_id} judged under multiple intents for topic "
                    f"{j.topic_id}; reduce to a single intent first"
                )
            per_topic[j.doc_id] = j.level
        return out


@dataclass(frozen=True)
class JudgmentPair:
    """One result judged independently by both assessor groups."""

    topic_id: str
    doc_id: str
    level_u1: int
    level_u2: int


@dataclass(frozen=True)
class PairingResult:
    """Inner join of two judgment sets plus a coverage summary."""

    pairs: tuple[JudgmentPair, ...]
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


class RunEntries(Sequence):
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

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = index + len(self) if index < 0 else index
        if not 0 <= i < len(self):
            raise IndexError("run entry index out of range")
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


def parse_scale(source: str | IO[str]) -> RelevanceScale:
    """Read a JSON scale descriptor from a string or stream."""
    text = source if isinstance(source, str) else source.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad scale descriptor JSON: {exc}") from exc
    return RelevanceScale.from_descriptor(obj)


def parse_qrels(
    source: Iterable[str],
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
    """
    judgments: list[Judgment] = []
    zero_intent: list[tuple[int, str, str, int]] = []
    observed_intents: dict[str, set[str]] = {}
    for line_no, fields in _records(source, "topic iteration doc level"):
        topic, second, doc, level_str = fields
        level = _int_field(level_str, "level", line_no)
        if level < 0:
            level = 0
        if level > scale.top_index:
            raise ValidationError(
                f"line {line_no}: level {level} > T={scale.top_index}"
            )
        if intent_field:
            if second == "0":
                zero_intent.append((line_no, topic, doc, level))
                continue
            observed_intents.setdefault(topic, set()).add(second)
            judgments.append(Judgment(topic, doc, level, second))
        else:
            judgments.append(Judgment(topic, doc, level))

    for line_no, topic, doc, level in zero_intent:
        if level != 0:
            warnings.warn(
                f"line {line_no}: intent '0' record carries level {level}; "
                "recorded as non-relevance for every intent",
                DataWarning,
                stacklevel=2,
            )
        if declared_intents is not None and topic in declared_intents:
            intents = [str(i) for i in declared_intents[topic]]
        else:
            intents = sorted(observed_intents.get(topic, ()))
        if not intents:
            raise ValidationError(
                f"line {line_no}: topic {topic} has an intent-'0' record but no "
                "declared intents to expand it over"
            )
        for intent in intents:
            judgments.append(Judgment(topic, doc, 0, intent))

    return JudgmentSet(scale, tuple(judgments), group)


def parse_paired(source: Iterable[str], scale: RelevanceScale) -> list[JudgmentPair]:
    """Parse ``topic doc level_u1 level_u2`` records.

    A repeated (topic, doc) line means judgments beyond the first two for
    that document; those are ignored with a warning.
    """
    pairs: list[JudgmentPair] = []
    seen: set[tuple[str, str]] = set()
    for line_no, fields in _records(source, "topic doc level_u1 level_u2"):
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
        pairs.append(JudgmentPair(topic, doc, l1, l2))
    return pairs


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

    u2_index = {
        (j.topic_id, j.doc_id, j.intent_id): j.level for j in set_u2.judgments
    }
    pairs: list[JudgmentPair] = []
    matched: set[tuple] = set()
    for j in set_u1.judgments:
        key = (j.topic_id, j.doc_id, j.intent_id)
        if key in u2_index:
            pairs.append(JudgmentPair(j.topic_id, j.doc_id, j.level, u2_index[key]))
            matched.add(key)
    unpaired_u1 = len(set_u1.judgments) - len(pairs)
    unpaired_u2 = len(u2_index) - len(matched)
    return PairingResult(tuple(pairs), unpaired_u1, unpaired_u2)


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
    kept: list[Judgment] = []
    for j in judgments.judgments:
        if j.intent_id is None:
            kept.append(j)
            continue
        if j.topic_id not in top:
            raise ValidationError(
                f"topic {j.topic_id} has intents but no intent probabilities"
            )
        if j.intent_id == top[j.topic_id]:
            kept.append(j)
    return replace(judgments, judgments=tuple(kept))


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
    compiled = re.compile(pattern) if pattern is not None else None
    resources: dict[str, str] = {}
    for doc in dict.fromkeys(j.doc_id for j in judgments.judgments):
        if compiled is not None:
            m = compiled.search(doc)
            if m is None or not m.groups():
                raise ValidationError(f"doc id {doc!r} does not match resource pattern")
            resources[doc] = m.group(1)
        elif doc in resource_map:
            resources[doc] = resource_map[doc]
        else:
            raise ValidationError(f"doc id {doc!r} missing from resource map")
    return replace(judgments, resources=resources)
