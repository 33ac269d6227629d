"""Relevance counts and gain-based run measures (DCG/nDCG@k).

Core quantities, for a topic whose judged level counts are n_i:

- binary relevant count:    N_R = sum over i >= theta of n_i
- expected relevant count:  N_R = sum over i of n_i * p_{R|i}
  (linear in the counts, so it equals the average over users who each
  deem a level-i result relevant with probability p_{R|i})
- expected precision at N:  expected relevant count over the top N
  retrieved results, divided by N; unjudged results count as level 0
- DCG@k = sum over ranks r = 1..k of c(r) * g(i(r)) for a discount c and
  a gain function g over levels; nDCG@k divides by the ideal DCG@k of
  the topic's document pool sorted by non-increasing gain.

Gain schemes: binary (1 at/above a threshold), linear (g(i) = i),
exponential (g(i) = 2^i - 1), prm (g(i) = p_{R|i} from a disagreement
table), udm (0 at level 0, 1 at the top, p_{R|i} between, requiring a
table thresholded at the top level), and custom vectors.

Discounts: log-base-b c(r) = 1/log_b(r+1) (default base 2, matching
trec_eval) and Zipfian c(r) = 1/r.

Per-topic values aggregate with exact summation in ascending topic-id
order, so reports are bit-reproducible however the per-topic work is
scheduled.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain, filterfalse, islice, repeat
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import RunRanking, _Frozen
from .disagreement import DisagreementTable
from .errors import DataWarning, MetricError, ValidationError, check_custom_gains, check_gains

__all__ = [
    "GainScheme",
    "DiscountFunction",
    "MetricReport",
    "count_binary",
    "count_prm",
    "expected_precision_report",
    "binary_count_report",
    "expected_count_report",
    "dcg_from_levels",
    "topic_dcg",
    "ideal_dcg_at_k",
    "ndcg_at_k",
    "ndcg_reports",
]


class GainScheme(_Frozen):
    """A resolved gain vector g(0..T), one value per assessment level."""

    name: str
    gains: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.gains) < 2:
            raise ValidationError("gain vector needs at least two levels")
        check_gains(self.gains)

    @property
    def top_index(self) -> int:
        return len(self.gains) - 1

    def gain(self, level: int) -> float:
        if not 0 <= level <= self.top_index:
            raise MetricError(f"level {level} outside gain vector 0..{self.top_index}")
        return self.gains[level]

    @classmethod
    def binary(cls, top_index: int, theta: int) -> "GainScheme":
        if not 1 <= theta <= top_index:
            raise ValidationError(f"need 1 <= theta <= T, got theta={theta}, T={top_index}")
        return cls("binary", tuple(1.0 if i >= theta else 0.0 for i in range(top_index + 1)))

    @classmethod
    def linear(cls, top_index: int) -> "GainScheme":
        return cls("linear", tuple(float(i) for i in range(top_index + 1)))

    @classmethod
    def exponential(cls, top_index: int) -> "GainScheme":
        # 2^i - 1 past the float range is inf, which the gain check rejects
        gains = (float(2**i - 1) if i < 1024 else math.inf for i in range(top_index + 1))
        return cls("exponential", tuple(gains))

    @classmethod
    def prm(cls, table: DisagreementTable) -> "GainScheme":
        undefined = [c.level for c in table.cells if not c.defined]
        if undefined:
            raise MetricError(
                f"prm gains need every level defined; undefined levels {undefined} "
                "(supply more pairs or an override)"
            )
        return cls("prm", tuple(table.p(i) for i in range(table.scale.top_index + 1)))

    @classmethod
    def udm(cls, table: DisagreementTable) -> "GainScheme":
        top = table.scale.top_index
        if table.theta != top:
            raise MetricError(
                f"udm gains need a table thresholded at the top level (theta = {top}), "
                f"got theta = {table.theta}"
            )
        mids = []
        for i in range(1, top):
            cell = table.cells[i]
            if not cell.defined:
                raise MetricError(f"udm gains: level {i} undefined in table")
            mids.append(cell.p)
        return cls("udm", (0.0, *mids, 1.0))

    @classmethod
    def custom(cls, gains: Sequence[float]) -> "GainScheme":
        vec = tuple(float(g) for g in gains)
        check_custom_gains(vec)
        return cls("custom", vec)


class DiscountFunction(_Frozen):
    """Positive, non-increasing rank discount c(r) for ranks r >= 1."""

    kind: str
    base: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("log", "zipf"):
            raise ValidationError(f"unknown discount kind {self.kind!r}")
        if self.kind == "log" and not self.base > 1.0:  # `not >` rejects nan too
            raise ValidationError(f"log discount base must be > 1, got {self.base}")
        if self.kind == "log" and math.isinf(self.base):
            raise ValidationError(f"log discount base must be finite, got {self.base}")

    @classmethod
    def log(cls, base: float = 2.0) -> "DiscountFunction":
        return cls("log", float(base))

    @classmethod
    def zipf(cls) -> "DiscountFunction":
        return cls("zipf")

    def weight(self, rank: int) -> float:
        if rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        if self.kind == "zipf":
            return 1.0 / rank
        return math.log(self.base) / math.log(rank + 1)

    def weights(self, k: int) -> list[float]:
        return [self.weight(r) for r in range(1, k + 1)]


def _dcg(gains: Iterable[float], weights: Iterable[float]) -> float:
    # left to right from 0.0, as topic_dcg accumulates; the builtin sum
    # compensates float rounding on Python >= 3.12 and would differ
    total = 0.0
    for g, w in zip(gains, weights):
        total += g * w
    return total


def count_binary(level_counts: Mapping[int, int], theta: int) -> float:
    """Number of judged results at or above the threshold."""
    if theta < 1:
        raise ValidationError(f"theta must be >= 1, got {theta}")
    total = 0
    for level, n in level_counts.items():
        if n < 0:
            raise ValidationError(f"negative count for level {level}")
        if level >= theta:
            total += n
    return float(total)


def count_prm(level_counts: Mapping[int, int], table: DisagreementTable) -> float:
    """Expected number of results a random user deems relevant."""
    total = 0.0
    for level in sorted(level_counts):
        n = level_counts[level]
        if n < 0:
            raise ValidationError(f"negative count for level {level}")
        if n == 0:
            continue
        total += n * table.p(level)
    return total


def dcg_from_levels(
    levels_in_rank_order: Sequence[int],
    scheme: GainScheme,
    discount: DiscountFunction,
    k: int,
) -> float:
    """DCG@k of an explicit level sequence (rank 1 first).

    Lists shorter than k are not padded.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    top = levels_in_rank_order[:k]
    return _dcg(map(scheme.gain, top), discount.weights(len(top)))


def topic_dcg(
    doc_ids: Sequence[str],
    levels: Mapping[str, int],
    scheme: GainScheme,
    discount: DiscountFunction,
    k: int,
) -> float:
    """DCG@k for a ranked document list against a level lookup.

    Unjudged documents count as level 0.  A document repeated in the list
    (as happens when merging per-resource rankings) earns gain only at its
    first occurrence; later occurrences still consume their rank.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    seen: set[str] = set()
    total = 0.0
    for rank, doc in enumerate(doc_ids[:k], start=1):
        if doc in seen:
            continue
        seen.add(doc)
        total += discount.weight(rank) * scheme.gain(levels.get(doc, 0))
    return total


def ideal_dcg_at_k(
    pool_levels: Iterable[int],
    scheme: GainScheme,
    discount: DiscountFunction,
    k: int,
) -> float:
    """DCG@k of a document pool re-sorted by non-increasing gain."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    pool = list(pool_levels)
    if not pool:
        warnings.warn("empty judged pool; ideal DCG is 0", DataWarning, stacklevel=2)
        return 0.0
    gains = sorted(map(scheme.gain, pool), reverse=True)[:k]
    return _dcg(gains, discount.weights(len(gains)))


def _sample_stats(values: Sequence[float]) -> tuple[float, float | None]:
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, None
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


@dataclass(frozen=True)
class MetricReport:
    """Per-topic metric values with their mean and standard error.

    ``per_topic`` is ordered by ascending topic id; the mean is the exact
    sum over that order divided by n, and ``stderr_of_mean`` uses the
    sample standard deviation (n - 1 denominator; None when only one topic
    was evaluated).  Both are computed from ``per_topic`` when read.
    Topics listed in ``excluded`` were skipped because their ideal DCG was
    zero.
    """

    measure: str
    k: int | None
    per_topic: tuple[tuple[str, float], ...]
    excluded: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.per_topic:
            raise ValidationError("a report needs at least one evaluated topic")
        topics = [t for t, _ in self.per_topic]
        if topics != sorted(topics):
            raise ValidationError("per_topic must be sorted by topic id")
        if len(set(topics)) != len(topics):
            raise ValidationError("duplicate topic in report")

    @property
    def mean(self) -> float:
        return _sample_stats([v for _, v in self.per_topic])[0]

    @property
    def stderr_of_mean(self) -> float | None:
        return _sample_stats([v for _, v in self.per_topic])[1]

    @property
    def n_topics(self) -> int:
        return len(self.per_topic)

    @classmethod
    def from_values(
        cls,
        measure: str,
        k: int | None,
        values: Mapping[str, float],
        excluded: Iterable[str] = (),
    ) -> "MetricReport":
        return cls(measure, k, tuple(sorted(values.items())), tuple(sorted(excluded)))

    @property
    def label(self) -> str:
        return f"{self.measure}@{self.k}" if self.k is not None else self.measure

    def to_csv(self) -> str:
        lines = ["topic,value"]
        lines += [f"{topic},{value!r}" for topic, value in self.per_topic]
        lines.append(f"mean,{self.mean!r}")
        stderr = self.stderr_of_mean
        lines.append(f"stderr,{'' if stderr is None else repr(stderr)}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "measure": self.measure,
            "k": self.k,
            "per_topic": {t: v for t, v in self.per_topic},
            "mean": self.mean,
            "stderr_of_mean": self.stderr_of_mean,
            "n_topics": self.n_topics,
            "excluded_topics": list(self.excluded),
        }

    def to_trec_text(self) -> str:
        lines = [f"{self.label}\t{topic}\t{value:.4f}" for topic, value in self.per_topic]
        lines.append(f"{self.label}\tall\t{self.mean:.4f}")
        stderr = self.stderr_of_mean
        lines.append(f"{self.label}\tstderr\t{'n/a' if stderr is None else f'{stderr:.4f}'}")
        return "\n".join(lines) + "\n"


def _eval_topics(run: RunRanking, judged_topics: set[str], strict: bool) -> list[str]:
    run_topics = run.topics()
    skipped = run_topics - judged_topics
    if skipped and strict:
        raise MetricError(
            f"run {run.system_id} has unjudged topics (strict mode): {sorted(skipped)}"
        )
    if skipped:
        # warned from this one line, so the default filter shows it once per
        # run however many measures evaluate that run
        warnings.warn(
            f"run {run.system_id}: skipping topics without judgments: {sorted(skipped)}",
            DataWarning,
        )
    topics = sorted(run_topics & judged_topics)
    if not topics:
        raise MetricError("no topics with judgments to evaluate")
    return topics


class _Pool:
    """One group's ``topic -> {doc: level}`` map, with what the count
    reports and nDCG need of it whatever the run: each topic's
    judged-level histogram and, with ``ideal_pool="qrels"``, its ideal
    DCG.  Build one per group and pass it in place of the map for every
    report on that group; a plain map gets a pool of its own per call.
    """

    __slots__ = ("levels", "_hists", "_ideals")

    def __init__(self, levels: Mapping[str, Mapping[str, int]]) -> None:
        self.levels = levels
        # topic -> (level histogram, lowest and highest level with 0 among them)
        self._hists: dict[str, tuple[Counter, int, int]] = {}
        # (gains, discount, k) -> {(topic, unjudged docs counted): ideal DCG@k}
        self._ideals: dict[tuple, dict[tuple[str, int], float]] = {}

    def hist(self, topic: str) -> tuple[Counter, int, int]:
        found = self._hists.get(topic)
        if found is None:
            hist = Counter(self.levels[topic].values())
            found = self._hists[topic] = (hist, min((0, *hist)), max((0, *hist)))
        return found


def binary_count_report(
    judgments: Mapping[str, Mapping[str, int]] | _Pool, theta: int
) -> MetricReport:
    """Per-topic binary relevant counts over the judged pool; ``judgments``
    as in ndcg_reports."""
    return _pool_report(judgments, "count_binary", lambda hist: count_binary(hist, theta))


def expected_count_report(
    judgments: Mapping[str, Mapping[str, int]] | _Pool, table: DisagreementTable
) -> MetricReport:
    """Per-topic expected relevant counts over the judged pool; ``judgments``
    as in ndcg_reports."""
    return _pool_report(judgments, "count_prm", lambda hist: count_prm(hist, table))


def _pool_report(
    judgments: Mapping[str, Mapping[str, int]] | _Pool,
    measure: str,
    count: Callable[[Mapping[int, int]], float],
) -> MetricReport:
    pool = judgments if isinstance(judgments, _Pool) else _Pool(judgments)
    values = {topic: count(pool.hist(topic)[0]) for topic in pool.levels}
    if not values:
        raise MetricError("no judged topics")
    return MetricReport.from_values(measure, None, values)


def expected_precision_report(
    run: RunRanking,
    judgments: Mapping[str, Mapping[str, int]] | _Pool,
    table: DisagreementTable,
    n: int,
    *,
    strict: bool = False,
) -> MetricReport:
    """Expected precision at n for every topic of a run: the table's
    measure of :func:`ndcg_reports`."""
    return ndcg_reports(run, judgments, [table], None, n, strict=strict)[0]


def ndcg_at_k(
    run: RunRanking,
    judgments: Mapping[str, Mapping[str, int]] | _Pool,
    scheme: GainScheme,
    discount: DiscountFunction,
    k: int,
    *,
    strict: bool = False,
    ideal_pool: str = "qrels",
) -> MetricReport:
    """nDCG@k per topic: one scheme of :func:`ndcg_reports`."""
    return ndcg_reports(
        run, judgments, [scheme], discount, k, strict=strict, ideal_pool=ideal_pool
    )[0]


def ndcg_reports(
    run: RunRanking,
    judgments: Mapping[str, Mapping[str, int]] | _Pool,
    measures: Sequence[GainScheme | DisagreementTable],
    discount: DiscountFunction | None,
    k: int,
    *,
    strict: bool = False,
    ideal_pool: str = "qrels",
) -> list[MetricReport]:
    """Every run measure of one run, one report per measure in list order:
    nDCG@k for a :class:`GainScheme`, expected precision@k for a
    :class:`DisagreementTable`.  ``discount`` may be None without schemes.

    ``judgments`` is the ``topic -> {doc: level}`` map of
    :meth:`JudgmentSet.doc_levels`, or a :class:`_Pool` of it.  Run topics
    without judgments are skipped with one warning (an error if
    ``strict``).  Per topic the run's top k levels are looked up once
    (unjudged documents count as level 0) and every measure reads that one
    level vector; each measure is then scored in turn, so its warnings and
    errors come as if it were scored alone.  Expected precision is
    :func:`count_prm` of the vector's level counts, over k.

    nDCG divides by the ideal DCG@k of the topic's pool sorted by falling
    gain, which comes from the pool's level histogram; values equal
    :func:`topic_dcg` over :func:`ideal_dcg_at_k` bit for bit.
    ``ideal_pool="qrels"`` pools the topic's judged documents and the
    unjudged ones the run retrieved (as level 0), which keeps every value
    in [0, 1] for any gain scheme; ``"run"`` pools the run's own documents
    only (self-normalization).  Topics whose ideal DCG is zero are
    excluded from that scheme's mean with a warning.

    With ``ideal_pool="qrels"`` a run changes a topic's ideal DCG only
    through how many unjudged docs it retrieved, and only up to k of them
    matter; when g(0) = 0 they add nothing.  So the judged levels are
    counted once per pool, each topic's ideal DCG is summed once per pool,
    scheme and count of unjudged docs, and a run costs O(k) lookups per
    topic when no scheme has g(0) > 0 (else its docs are scanned until k
    unjudged are seen).
    """
    if ideal_pool not in ("qrels", "run"):
        raise ValidationError(f"ideal_pool must be 'qrels' or 'run', got {ideal_pool!r}")
    if not measures:
        raise ValidationError("need at least one gain scheme or disagreement table")
    schemes = [m for m in measures if isinstance(m, GainScheme)]
    if len({len(s.gains) for s in schemes}) > 1:
        raise ValidationError("gain schemes must cover the same levels")
    pool = judgments if isinstance(judgments, _Pool) else _Pool(judgments)
    judged = pool.levels
    topics = _eval_topics(run, set(judged), strict)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")

    retrieved = [run.doc_ids(topic) for topic in topics]
    ranked = [list(map(judged[t].get, docs[:k], repeat(0))) for t, docs in zip(topics, retrieved)]
    # per topic, what every scheme's ideal DCG reads: the pool's level
    # histogram, its lowest and highest level, and the unjudged docs retrieved
    # (counted up to k) that join it at level 0
    facts = []
    if schemes:
        # deep enough for every run and every pool: a pool holds at most the
        # judged and the retrieved documents
        depth = max(len(judged[t]) + len(docs) for t, docs in zip(topics, retrieved))
        weights = discount.weights(min(k, depth))
        # gains are >= 0, so with g(0) = 0 the unjudged docs come last and
        # add +0.0 to every ideal DCG
        scan = ideal_pool == "qrels" and any(scheme.gains[0] != 0.0 for scheme in schemes)
        for topic, docs in zip(topics, retrieved):
            levels = judged[topic]
            if ideal_pool == "run":
                hist = Counter(map(levels.get, docs, repeat(0)))
                facts.append((hist, min(hist), max(hist), 0))
            else:
                unjudged = islice(filterfalse(levels.__contains__, docs), k if scan else 0)
                facts.append((*pool.hist(topic), len(list(unjudged))))

    reports = []
    for measure in measures:
        if isinstance(measure, DisagreementTable):
            values = {t: count_prm(Counter(lv), measure) / k for t, lv in zip(topics, ranked)}
            reports.append(MetricReport.from_values("expected_precision", k, values))
            continue
        gains, top = measure.gains, len(measure.gains) - 1
        # levels by falling gain, to expand a histogram into sorted gains
        order = sorted(range(top + 1), key=gains.__getitem__, reverse=True)
        # the qrels pool's ideal DCG is the same for every run: it reads the
        # discount's first min(k, pool size) weights, and `weights` has them
        ideals = {} if ideal_pool == "run" else pool._ideals.setdefault((gains, discount, k), {})
        values, excluded = {}, []
        for topic, levels, (hist, lo, hi, unjudged) in zip(topics, ranked, facts):
            if lo < 0 or hi > top:
                raise MetricError(f"level {lo if lo < 0 else hi} outside gain vector 0..{top}")
            ideal = ideals.get((topic, unjudged))
            if ideal is None:
                counts = (hist[i] + unjudged if i == 0 else hist[i] for i in order)
                pool_gains = map(repeat, map(gains.__getitem__, order), counts)
                ideal = ideals[topic, unjudged] = _dcg(chain.from_iterable(pool_gains), weights)
            if ideal == 0.0:
                excluded.append(topic)
            else:
                values[topic] = _dcg(map(gains.__getitem__, levels), weights) / ideal
        if excluded:
            warnings.warn(
                f"run {run.system_id}: topics with zero ideal DCG excluded from "
                f"ndcg@{k}: {excluded}",
                DataWarning,
                stacklevel=2,
            )
        if not values:
            raise MetricError(f"all topics have zero ideal DCG for ndcg@{k}")
        reports.append(MetricReport.from_values(f"ndcg_{measure.name}", k, values, excluded))
    return reports
