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
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import JudgmentSet, RunRanking
from .disagreement import DisagreementTable
from .errors import DataWarning, MetricError, ValidationError

__all__ = [
    "GainScheme",
    "DiscountFunction",
    "MetricReport",
    "count_binary",
    "count_prm",
    "topic_expected_precision",
    "expected_precision_report",
    "binary_count_report",
    "expected_count_report",
    "dcg_from_levels",
    "topic_dcg",
    "ideal_dcg_at_k",
    "ndcg_at_k",
    "ndcg_reports",
]


@dataclass(frozen=True)
class GainScheme:
    """A resolved gain vector g(0..T), one value per assessment level."""

    name: str
    gains: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.gains) < 2:
            raise ValidationError("gain vector needs at least two levels")
        for g in self.gains:
            if not math.isfinite(g) or g < 0.0:
                raise ValidationError(f"gains must be finite and >= 0, got {g}")

    @property
    def top_index(self) -> int:
        return len(self.gains) - 1

    def gain(self, level: int) -> float:
        if not 0 <= level <= self.top_index:
            raise MetricError(f"level {level} outside gain vector 0..{self.top_index}")
        return self.gains[level]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.gains, dtype=np.float64)

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
        return cls("exponential", tuple(float(2**i - 1) for i in range(top_index + 1)))

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
        if all(g == 0.0 for g in vec):
            raise ValidationError("custom gain vector must not be all zero")
        return cls("custom", vec)


@dataclass(frozen=True)
class DiscountFunction:
    """Positive, non-increasing rank discount c(r) for ranks r >= 1."""

    kind: str
    base: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in ("log", "zipf"):
            raise ValidationError(f"unknown discount kind {self.kind!r}")
        if self.kind == "log" and self.base <= 1.0:
            raise ValidationError(f"log discount base must be > 1, got {self.base}")

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

    def weights(self, k: int) -> np.ndarray:
        ranks = np.arange(1, k + 1, dtype=np.float64)
        if self.kind == "zipf":
            return 1.0 / ranks
        return math.log(self.base) / np.log(ranks + 1.0)

    def describe(self) -> str:
        return f"log{self.base:g}" if self.kind == "log" else "zipf"


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


def _doc_levels_for(judgments: JudgmentSet | Mapping[str, Mapping[str, int]]) -> Mapping[str, Mapping[str, int]]:
    if isinstance(judgments, JudgmentSet):
        return judgments.doc_levels()
    return judgments


def topic_expected_precision(
    doc_ids: Sequence[str],
    levels: Mapping[str, int],
    table: DisagreementTable,
    n: int,
) -> float:
    """Expected precision over the top n of one ranked document list."""
    if n < 1:
        raise ValidationError(f"cutoff must be >= 1, got {n}")
    top = doc_ids[:n]
    hist: dict[int, int] = {}
    for doc in top:
        lvl = levels.get(doc, 0)
        hist[lvl] = hist.get(lvl, 0) + 1
    return count_prm(hist, table) / n


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
    if not len(top):
        return 0.0
    gains = scheme.as_array()[np.asarray(top, dtype=np.intp)]
    return float(gains @ discount.weights(len(top)))


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
    gains = np.sort(scheme.as_array()[np.asarray(pool, dtype=np.intp)])[::-1][:k]
    return float(gains @ discount.weights(len(gains)))


def _sample_stats(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


@dataclass(frozen=True)
class MetricReport:
    """Per-topic metric values with their mean and standard error.

    ``per_topic`` is ordered by ascending topic id; the mean is the exact
    sum over that order divided by n, and ``stderr_of_mean`` uses the
    sample standard deviation (n - 1 denominator; 0.0 when only one topic
    was evaluated).  Topics listed in ``excluded`` were skipped because
    their ideal DCG was zero.
    """

    measure: str
    k: int | None
    per_topic: tuple[tuple[str, float], ...]
    mean: float
    stderr_of_mean: float
    excluded: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.per_topic:
            raise ValidationError("a report needs at least one evaluated topic")
        topics = [t for t, _ in self.per_topic]
        if topics != sorted(topics):
            raise ValidationError("per_topic must be sorted by topic id")
        if len(set(topics)) != len(topics):
            raise ValidationError("duplicate topic in report")
        mean, stderr = _sample_stats([v for _, v in self.per_topic])
        if not (math.isclose(mean, self.mean, rel_tol=1e-9, abs_tol=1e-12)
                and math.isclose(stderr, self.stderr_of_mean, rel_tol=1e-9, abs_tol=1e-12)):
            raise ValidationError("stored mean/stderr do not match per-topic values")

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
        ordered = tuple(sorted(values.items()))
        mean, stderr = _sample_stats([v for _, v in ordered])
        return cls(
            measure=measure,
            k=k,
            per_topic=ordered,
            mean=mean,
            stderr_of_mean=stderr,
            excluded=tuple(sorted(excluded)),
        )

    @property
    def label(self) -> str:
        return f"{self.measure}@{self.k}" if self.k is not None else self.measure

    def to_csv(self) -> str:
        lines = ["topic,value"]
        lines += [f"{topic},{value!r}" for topic, value in self.per_topic]
        lines.append(f"mean,{self.mean!r}")
        lines.append(f"stderr,{self.stderr_of_mean!r}")
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
        lines.append(f"{self.label}\tstderr\t{self.stderr_of_mean:.4f}")
        return "\n".join(lines) + "\n"


def _eval_topics(run: RunRanking, judged_topics: set[str], strict: bool) -> list[str]:
    run_topics = run.topics()
    if strict:
        missing = run_topics - judged_topics
        if missing:
            raise MetricError(
                f"run {run.system_id} has unjudged topics (strict mode): {sorted(missing)}"
            )
        return sorted(run_topics)
    skipped = run_topics - judged_topics
    if skipped:
        warnings.warn(
            f"run {run.system_id}: skipping topics without judgments: {sorted(skipped)}",
            DataWarning,
            stacklevel=3,
        )
    return sorted(run_topics & judged_topics)


def binary_count_report(
    judgments: JudgmentSet, theta: int, *, measure: str = "count_binary"
) -> MetricReport:
    """Per-topic binary relevant counts over the judged pool."""
    levels = judgments.doc_levels()
    values = {
        topic: count_binary(_hist(docs.values()), theta)
        for topic, docs in levels.items()
    }
    if not values:
        raise MetricError("no judged topics")
    return MetricReport.from_values(measure, None, values)


def expected_count_report(
    judgments: JudgmentSet,
    table: DisagreementTable,
    *,
    measure: str = "count_prm",
) -> MetricReport:
    """Per-topic expected relevant counts over the judged pool."""
    levels = judgments.doc_levels()
    values = {
        topic: count_prm(_hist(docs.values()), table)
        for topic, docs in levels.items()
    }
    if not values:
        raise MetricError("no judged topics")
    return MetricReport.from_values(measure, None, values)


def _hist(levels: Iterable[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for lvl in levels:
        out[lvl] = out.get(lvl, 0) + 1
    return out


def expected_precision_report(
    run: RunRanking,
    judgments: JudgmentSet | Mapping[str, Mapping[str, int]],
    table: DisagreementTable,
    n: int,
    *,
    strict: bool = False,
) -> MetricReport:
    """Expected precision at n for every topic of a run."""
    doc_levels = _doc_levels_for(judgments)
    topics = _eval_topics(run, set(doc_levels), strict)
    if not topics:
        raise MetricError("no topics with judgments to evaluate")
    values = {
        topic: topic_expected_precision(run.doc_ids(topic), doc_levels[topic], table, n)
        for topic in topics
    }
    return MetricReport.from_values("expected_precision", n, values)


def ndcg_at_k(
    run: RunRanking,
    judgments: JudgmentSet | Mapping[str, Mapping[str, int]],
    scheme: GainScheme,
    discount: DiscountFunction,
    k: int,
    *,
    strict: bool = False,
    ideal_pool: str = "qrels",
) -> MetricReport:
    """nDCG@k per topic, normalized by the topic pool's ideal DCG@k.

    ``ideal_pool="qrels"`` ranks the topic's judged documents plus any
    unjudged documents the run retrieved (as level 0), which keeps every
    per-topic value in [0, 1] for any gain scheme; ``"run"`` restricts the
    pool to the run's own retrieved documents (self-normalization).
    Topics whose ideal DCG is zero are excluded from the mean with a
    warning.  One scheme of :func:`ndcg_reports`.
    """
    return ndcg_reports(
        run, judgments, [scheme], discount, k, strict=strict, ideal_pool=ideal_pool
    )[0]


def ndcg_reports(
    run: RunRanking,
    judgments: JudgmentSet | Mapping[str, Mapping[str, int]],
    schemes: Sequence[GainScheme],
    discount: DiscountFunction,
    k: int,
    *,
    strict: bool = False,
    ideal_pool: str = "qrels",
) -> list[MetricReport]:
    """nDCG@k of one run under every gain scheme, one report per scheme.

    Per topic the run's levels are looked up once (unjudged documents
    count as level 0) and every scheme's gains are gathered from that one
    level vector; the ideal DCG comes from the pool's level histogram.
    Values equal :func:`topic_dcg` over :func:`ideal_dcg_at_k` bit for
    bit.  ``strict`` and ``ideal_pool`` are as in :func:`ndcg_at_k`.
    """
    if ideal_pool not in ("qrels", "run"):
        raise ValidationError(f"ideal_pool must be 'qrels' or 'run', got {ideal_pool!r}")
    if len({len(s.gains) for s in schemes}) > 1:
        raise ValidationError("gain schemes must cover the same levels")
    doc_levels = _doc_levels_for(judgments)
    topics = _eval_topics(run, set(doc_levels), strict)
    if not topics:
        raise MetricError("no topics with judgments to evaluate")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")

    gains = np.array([s.gains for s in schemes], dtype=np.float64)  # [S, T+1]
    top = gains.shape[1] - 1
    # each scheme's levels by rising gain, to expand a histogram into sorted gains
    by_gain = [np.argsort(g, kind="stable") for g in gains]
    retrieved = {topic: run.doc_ids(topic) for topic in topics}
    depth = min(k, max(map(len, retrieved.values())))
    weights = np.array([discount.weight(r) for r in range(1, depth + 1)])

    values: list[dict[str, float]] = [{} for _ in schemes]
    excluded: list[list[str]] = [[] for _ in schemes]
    for topic in topics:
        levels, docs = doc_levels[topic], retrieved[topic]
        if ideal_pool == "run":
            pool = np.fromiter(map(levels.get, docs, repeat(0)), np.intp, len(docs))
            n_unjudged = 0
        else:
            pool = np.fromiter(levels.values(), np.intp, len(levels))
            n_unjudged = len(docs) - len(levels.keys() & docs)
        lo, hi = (int(pool.min()), int(pool.max())) if pool.size else (0, 0)
        if lo < 0 or hi > top:
            raise MetricError(f"level {lo if lo < 0 else hi} outside gain vector 0..{top}")
        hist = np.bincount(pool, minlength=top + 1)
        hist[0] += n_unjudged
        n_ideal = min(k, int(hist.sum()))
        ideal_weights = discount.weights(n_ideal)
        ranked = np.fromiter(map(levels.get, docs[:k], repeat(0)), np.intp)
        # left-to-right sums, as topic_dcg accumulates
        dcg = (gains[:, ranked] * weights[: len(ranked)]).cumsum(axis=1)
        for s, order in enumerate(by_gain):
            # the reversed view, as in ideal_dcg_at_k: numpy's dot sums a
            # strided view left to right, a contiguous one in BLAS order
            ideal_gains = np.repeat(gains[s, order], hist[order])[::-1][:k]
            ideal = float(ideal_gains @ ideal_weights)
            if ideal == 0.0:
                excluded[s].append(topic)
            else:
                values[s][topic] = float(dcg[s, -1]) / ideal

    reports = []
    for scheme, vals, skipped in zip(schemes, values, excluded):
        if skipped:
            warnings.warn(
                f"run {run.system_id}: topics with zero ideal DCG excluded from "
                f"ndcg@{k}: {sorted(skipped)}",
                DataWarning,
                stacklevel=2,
            )
        if not vals:
            raise MetricError(f"all topics have zero ideal DCG for ndcg@{k}")
        reports.append(MetricReport.from_values(f"ndcg_{scheme.name}", k, vals, skipped))
    return reports
