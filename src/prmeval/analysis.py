"""Meta-analyses: rank correlation, bootstrap, budget and quality sweeps.

Randomized procedures draw from numpy's PCG64 generator.  Every round or
resample r uses an independent stream seeded as
``np.random.default_rng([seed, r])``, so results are identical whether
rounds run sequentially or in parallel, and reproduce across platforms.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import JudgmentPair, JudgmentSet, RelevanceScale, RunRanking
from .disagreement import (
    UserModel, _as_pairs, code_counts, group_pair_counts, pair_codes, table_from_counts,
)
from .errors import DataWarning, EstimationError, MetricError, ValidationError
from .metrics import DiscountFunction, GainScheme, ndcg_reports

__all__ = [
    "SystemRanking",
    "BootstrapResult",
    "SensitivityCurve",
    "LevelSeries",
    "kendall_tau",
    "rank_by_ndcg",
    "bootstrap_topics",
    "simulate_annotation_rounds",
    "quality_sensitivity",
    "robustness_study",
]


@dataclass(frozen=True)
class SystemRanking:
    """Systems ordered by non-increasing mean score."""

    measure: str
    systems: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        ids = [s for s, _ in self.systems]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate system_id in ranking")
        scores = [v for _, v in self.systems]
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise ValidationError("ranking scores must be non-increasing")

    @classmethod
    def from_scores(cls, measure: str, scores: Mapping[str, float]) -> "SystemRanking":
        ordered = tuple(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))
        return cls(measure, ordered)

    def score_map(self) -> dict[str, float]:
        return dict(self.systems)

    def system_ids(self) -> set[str]:
        return {s for s, _ in self.systems}


def _merge_count(values: list[float]) -> tuple[list[float], int]:
    # Count strict inversions (i < j with v_i > v_j) by merge sort.
    n = len(values)
    if n < 2:
        return values, 0
    mid = n // 2
    left, inv_l = _merge_count(values[:mid])
    right, inv_r = _merge_count(values[mid:])
    merged: list[float] = []
    inv = inv_l + inv_r
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            inv += len(left) - i
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inv


def _tie_pairs(values: Iterable[float]) -> int:
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return sum(t * (t - 1) // 2 for t in counts.values())


def kendall_tau(a: SystemRanking, b: SystemRanking, *, variant: str = "b") -> float:
    """Kendall rank correlation between two system rankings.

    The default tie-aware variant ("b") divides the concordant-minus-
    discordant pair count by sqrt((n0 - ties_a)(n0 - ties_b)); variant
    "a" divides by the total pair count n0 and treats ties as neither
    concordant nor discordant.
    """
    if variant not in ("a", "b"):
        raise ValidationError(f"variant must be 'a' or 'b', got {variant!r}")
    if a.system_ids() != b.system_ids():
        raise ValidationError(
            f"rankings cover different systems: {sorted(a.system_ids() ^ b.system_ids())}"
        )
    n = len(a.systems)
    if n < 2:
        raise ValidationError("need at least 2 systems for a rank correlation")
    score_a = a.score_map()
    score_b = b.score_map()
    pairs = sorted((score_a[s], score_b[s]) for s in score_a)
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]

    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(xs)
    n2 = _tie_pairs(ys)
    n3 = _tie_pairs(pairs)  # ties in both coordinates
    _, dis = _merge_count(ys)  # x-sorted, so strict y-inversions are discordant
    c_minus_d = n0 - n1 - n2 + n3 - 2 * dis

    if variant == "a":
        return c_minus_d / n0
    if n1 == n0 or n2 == n0:
        raise MetricError("tau-b undefined: one ranking is entirely tied")
    return c_minus_d / math.sqrt((n0 - n1) * (n0 - n2))


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _round_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index])


@dataclass(frozen=True)
class BootstrapResult:
    """Resampled estimates of one p_{R|i} parameter.

    ``samples`` holds the estimate from each resample where the level was
    defined; resamples where it was undefined (no paired judgments at the
    level) are counted in ``n_missing`` rather than imputed.  ``std`` uses
    the n - 1 denominator and is None for fewer than 2 samples; quartiles
    are (min, q1, median, q3, max) with linear interpolation.
    """

    level: int
    samples: tuple[float, ...]
    n_missing: int
    mean: float | None
    std: float | None
    quartiles: tuple[float, float, float, float, float] | None

    def __post_init__(self) -> None:
        mean, std, quart = _summaries(self.samples)
        stored = (self.mean, self.std, self.quartiles)
        for got, want in zip(stored, (mean, std, quart)):
            if (got is None) != (want is None):
                raise ValidationError("bootstrap summary does not match samples")
        if self.mean is not None and not math.isclose(self.mean, mean, rel_tol=1e-9):
            raise ValidationError("bootstrap mean does not match samples")
        if self.std is not None and not math.isclose(self.std, std, rel_tol=1e-9):
            raise ValidationError("bootstrap std does not match samples")
        if self.quartiles is not None and not np.allclose(self.quartiles, quart):
            raise ValidationError("bootstrap quartiles do not match samples")

    @classmethod
    def from_samples(
        cls, level: int, samples: Sequence[float], n_missing: int
    ) -> "BootstrapResult":
        mean, std, quart = _summaries(tuple(samples))
        return cls(level, tuple(samples), n_missing, mean, std, quart)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "n_samples": len(self.samples),
            "n_missing": self.n_missing,
            "mean": self.mean,
            "std": self.std,
            "quartiles": None if self.quartiles is None else list(self.quartiles),
            "samples": list(self.samples),
        }


def _summaries(
    samples: tuple[float, ...]
) -> tuple[float | None, float | None, tuple[float, ...] | None]:
    if not samples:
        return None, None, None
    arr = np.asarray(samples, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(samples) > 1 else None
    quart = tuple(float(q) for q in np.percentile(arr, [0, 25, 50, 75, 100]))
    return mean, std, quart


def bootstrap_topics(
    pairs: Sequence[JudgmentPair],
    user_model: UserModel,
    scale: RelevanceScale,
    *,
    estimator: str = "symmetric",
    condition: str = "u1",
    one_sided_collection: bool = False,
    n_resamples: int = 300,
    seed: int,
) -> dict[int, BootstrapResult]:
    """Topic bootstrap of the disagreement estimates.

    Each resample draws topics with replacement (as many as there are
    topics); a drawn topic contributes all its pairs once per draw, so a
    resample's count matrix is the draw counts times the topics' matrices.
    """
    _check_seed(seed)
    if n_resamples < 1:
        raise ValidationError(f"n_resamples must be >= 1, got {n_resamples}")
    if not pairs:
        raise EstimationError("no judgment pairs to bootstrap")
    pairs = _as_pairs(pairs, scale)
    if len(set(pairs.topic_ids)) < 2:
        raise EstimationError("bootstrap needs at least 2 topics")
    user_model.check_against(scale)
    topics, per_topic = group_pair_counts(pairs, scale)
    n = len(topics)
    ps = []  # per resample, p per level (None where undefined)
    for r in range(n_resamples):
        drawn = _round_rng(seed, r).integers(0, n, size=n)
        table = table_from_counts(
            np.tensordot(np.bincount(drawn, minlength=n), per_topic, axes=1),
            user_model, scale, estimator=estimator, condition=condition,
            one_sided_collection=one_sided_collection,
        )
        ps.append([c.p for c in table.cells])
    return {
        lvl: BootstrapResult.from_samples(
            lvl, [p[lvl] for p in ps if p[lvl] is not None], sum(p[lvl] is None for p in ps)
        )
        for lvl in range(scale.top_index + 1)
    }


@dataclass(frozen=True)
class LevelSeries:
    """One level's trajectory along a sweep: mean estimate and std band."""

    level: int
    means: tuple[float | None, ...]
    stds: tuple[float | None, ...]
    n_defined: tuple[int, ...]


@dataclass(frozen=True)
class SensitivityCurve:
    """Per-level estimate trajectories along a sweep coordinate."""

    x_name: str
    x: tuple[int, ...]
    series: tuple[LevelSeries, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValidationError("sweep coordinate must be strictly increasing")
        for s in self.series:
            if not len(s.means) == len(s.stds) == len(s.n_defined) == len(self.x):
                raise ValidationError(
                    f"series for level {s.level} does not match sweep length"
                )

    def to_json_dict(self) -> dict:
        return {
            "x_name": self.x_name,
            "x": list(self.x),
            "series": [
                {
                    "level": s.level,
                    "means": list(s.means),
                    "stds": list(s.stds),
                    "n_defined": list(s.n_defined),
                }
                for s in self.series
            ],
        }


def simulate_annotation_rounds(
    pairs: Sequence[JudgmentPair],
    user_model: UserModel,
    scale: RelevanceScale,
    budgets: Sequence[int],
    *,
    n_rounds: int = 50,
    seed: int,
    estimator: str = "symmetric",
    condition: str = "u1",
    one_sided_collection: bool = False,
) -> SensitivityCurve:
    """How estimate quality grows with the number of double judgments.

    Each round draws the largest budget of pairs with replacement; smaller
    budgets reuse the prefix of the same draw, so budgets within a round
    are cumulative.  Reported per budget and level: mean and std (n - 1)
    of the estimate across rounds, plus how many rounds defined it.
    """
    _check_seed(seed)
    if not pairs:
        raise EstimationError("no judgment pairs to sample")
    if n_rounds < 1:
        raise ValidationError(f"n_rounds must be >= 1, got {n_rounds}")
    kept: list[int] = []
    for b in budgets:
        if b == 0:
            warnings.warn("budget 0 skipped", DataWarning, stacklevel=2)
            continue
        if b < 0:
            raise ValidationError(f"budgets must be >= 0, got {b}")
        kept.append(int(b))
    if not kept:
        raise ValidationError("no positive budgets")
    if any(b2 <= b1 for b1, b2 in zip(kept, kept[1:])):
        raise ValidationError(f"budgets must be strictly increasing, got {kept}")

    user_model.check_against(scale)
    codes = pair_codes(pairs, scale)
    ps: dict[int, list[list[float | None]]] = {b: [] for b in kept}
    for r in range(n_rounds):
        rng = _round_rng(seed, r)
        draw = rng.integers(0, len(codes), size=kept[-1])
        for b in kept:
            table = table_from_counts(
                code_counts(codes[draw[:b]], scale), user_model, scale,
                estimator=estimator, condition=condition,
                one_sided_collection=one_sided_collection,
            )
            ps[b].append([c.p for c in table.cells])

    series = []
    for lvl in range(scale.top_index + 1):
        vals = [tuple(p[lvl] for p in ps[b] if p[lvl] is not None) for b in kept]
        stats = [_summaries(v)[:2] for v in vals]
        series.append(LevelSeries(
            lvl, tuple(m for m, _ in stats), tuple(s for _, s in stats),
            tuple(len(v) for v in vals),
        ))
    return SensitivityCurve("budget", tuple(kept), tuple(series))


def quality_sensitivity(
    judgments: JudgmentSet,
    pairs: Sequence[JudgmentPair],
    user_model: UserModel,
    *,
    estimator: str = "symmetric",
    condition: str = "u1",
    one_sided_collection: bool = False,
) -> SensitivityCurve:
    """Disagreement estimates restricted to results from top resources.

    Per query, resources are ranked by how many of their judged results
    the reference group placed in the top two levels (ties break to the
    lexicographically smaller resource id).  For each k, the table is
    re-estimated from the pairs whose documents the top-k resources
    returned for that query, as a running sum of count matrices over k.
    The std band is each cell's binomial sigma.

    ``judgments`` is the reference group's set with its ``resources``
    attached; every pair's document must be covered by it so that the
    largest k reproduces the unrestricted estimate.
    """
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

    # per topic, each resource's count of judgments in the top two levels;
    # a document's step is its resource's place in its topic's order
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
    steps = np.fromiter(
        map(place.__getitem__, zip(topics, map(resources.__getitem__, docs))),
        dtype=np.int64, count=len(docs),
    )
    k_max = max(place.values()) + 1
    per_k = code_counts(pairs.codes, scale, steps, k_max).cumsum(axis=0)

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


def rank_by_ndcg(
    runs: Sequence[RunRanking],
    doc_levels: Mapping[str, Mapping[str, int]],
    schemes: Mapping[str, GainScheme],
    discount: DiscountFunction,
    k: int,
    *,
    strict: bool = False,
    ideal_pool: str = "qrels",
) -> dict[str, SystemRanking]:
    """Rank runs by mean nDCG@k, one ranking per gain scheme.

    ``doc_levels`` is the ``topic -> {doc: level}`` map of
    :meth:`JudgmentSet.doc_levels`.  Each run is scored once for all
    schemes; ``strict`` and ``ideal_pool`` are as in ndcg_at_k.
    """
    means: dict[str, dict[str, float]] = {name: {} for name in schemes}
    for run in runs:
        reports = ndcg_reports(
            run, doc_levels, list(schemes.values()), discount, k,
            strict=strict, ideal_pool=ideal_pool,
        )
        for name, report in zip(schemes, reports):
            means[name][run.system_id] = report.mean
    return {
        name: SystemRanking.from_scores(f"ndcg_{scheme.name}@{k}", means[name])
        for name, scheme in schemes.items()
    }


def robustness_study(
    runs: Sequence[RunRanking],
    set_u1: Mapping[str, Mapping[str, int]],
    set_u2: Mapping[str, Mapping[str, int]],
    schemes: Mapping[str, GainScheme],
    k: int,
    discount: DiscountFunction | None = None,
    *,
    variant: str = "b",
    strict: bool = False,
    ideal_pool: str = "qrels",
) -> dict[str, float]:
    """How stable each gain scheme's system ranking is across assessors.

    Scores every run twice, once against each assessor group's judgments
    (the gain vectors stay fixed), ranks systems by mean nDCG@k, and
    reports the rank correlation between the two rankings per scheme.
    ``set_u1`` and ``set_u2`` are ``topic -> {doc: level}`` maps;
    ``strict`` and ``ideal_pool`` are passed to ndcg_at_k.
    """
    if len(runs) < 2:
        raise ValidationError("need at least 2 runs to correlate rankings")
    ids = [r.system_id for r in runs]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate system_id among runs")
    discount = discount or DiscountFunction.log(2.0)
    rank_u1, rank_u2 = (
        rank_by_ndcg(runs, judged, schemes, discount, k, strict=strict, ideal_pool=ideal_pool)
        for judged in (set_u1, set_u2)
    )
    return {name: kendall_tau(rank_u1[name], rank_u2[name], variant=variant) for name in schemes}
