"""Meta-analyses: rank correlation, bootstrap and budget sweeps.  The
quality sweep only counts, so it lives in ``disagreement``.

Randomized procedures draw from numpy's PCG64 generator.  Every round or
resample r uses an independent stream seeded as
``np.random.default_rng([seed, r])``, so results are identical whether
rounds run sequentially or in parallel, and reproduce across platforms.
numpy is imported only by the functions that draw or summarise
resamples, so ranking and rank correlation (``tau`` and ``robustness``)
load none of it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .corpus import JudgmentPair, RelevanceScale, RunRanking
from .disagreement import (  # the quality sweep is re-exported from here
    LevelSeries, SensitivityCurve, UserModel, _as_pairs, group_pair_counts, pair_codes,
    quality_sensitivity, table_from_counts,
)
from .errors import DataWarning, EstimationError, MetricError, ValidationError
from .metrics import DiscountFunction, GainScheme, ndcg_reports

if TYPE_CHECKING:
    import numpy as np

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


def _sign(a: float, b: float) -> int:
    return (a > b) - (a < b)


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
    pairs = [(score_a[s], score_b[s]) for s in score_a]
    # +1 per concordant pair, -1 per discordant one, 0 for a tie in either
    c_minus_d = sum(
        _sign(xa, xb) * _sign(ya, yb) for (xa, ya), (xb, yb) in combinations(pairs, 2)
    )

    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(score_a.values())
    n2 = _tie_pairs(score_b.values())

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
    import numpy as np
    return np.random.default_rng([seed, round_index])


@dataclass(frozen=True)
class BootstrapResult:
    """Resampled estimates of one p_{R|i} parameter.

    ``samples`` holds the estimate from each resample where the level was
    defined; resamples where it was undefined (no paired judgments at the
    level) are counted in ``n_missing`` rather than imputed.  The summaries
    are computed from ``samples`` when read, and are None without samples:
    ``std`` uses the n - 1 denominator and is None for fewer than 2
    samples; quartiles are (min, q1, median, q3, max) with linear
    interpolation.
    """

    level: int
    samples: tuple[float, ...]
    n_missing: int

    @property
    def mean(self) -> float | None:
        return _summaries(self.samples)[0]

    @property
    def std(self) -> float | None:
        return _summaries(self.samples)[1]

    @property
    def quartiles(self) -> tuple[float, float, float, float, float] | None:
        return _summaries(self.samples)[2]

    @classmethod
    def from_samples(
        cls, level: int, samples: Sequence[float], n_missing: int
    ) -> "BootstrapResult":
        return cls(level, tuple(samples), n_missing)

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
    import numpy as np
    arr = np.asarray(samples, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(samples) > 1 else None
    return mean, std, _quartiles(samples)


def _quartiles(samples: Sequence[float]) -> tuple[float, ...]:
    """Min, quartiles and max of ``samples`` as ``np.percentile(samples,
    [0, 25, 50, 75, 100])`` gives them (its default ``linear`` rule), by
    the same float operations, without loading ``numpy.ma`` as its first
    call does.

    Where two neighbours of opposite sign lie so far apart that their
    difference overflows, which makes ``np.percentile`` give NaN or
    values out of order, a value that falls on a sample is that sample
    and one between them is interpolated without the difference.
    """
    xs = sorted(samples)
    top = len(xs) - 1
    out = []
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        at = q * top
        i = int(at)
        a, b, g = xs[i], xs[min(i + 1, top)], at - i
        d = b - a
        if g == 0:
            out.append(a + 0.0)  # -0.0 reads as 0.0, as in a + d * 0
        elif math.isinf(d):
            out.append(a * (1 - g) + b * g)
        else:
            out.append(a + d * g if g < 0.5 else b - d * (1 - g))
    return tuple(out)


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
    import numpy as np
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
    per_topic = np.asarray(per_topic)
    ps = []  # per resample, p per level (None where undefined)
    for r in range(n_resamples):
        drawn = _round_rng(seed, r).integers(0, n, size=n)
        table = table_from_counts(
            np.tensordot(np.bincount(drawn, minlength=n), per_topic, axes=1).tolist(),
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
    import numpy as np
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
    n = scale.top_index + 1
    codes = np.frombuffer(pair_codes(pairs, scale), dtype=np.int64)
    ps: dict[int, list[list[float | None]]] = {b: [] for b in kept}
    for r in range(n_rounds):
        rng = _round_rng(seed, r)
        draw = rng.integers(0, len(codes), size=kept[-1])
        for b in kept:
            counts = np.bincount(codes[draw[:b]], minlength=n * n).reshape(n, n)
            table = table_from_counts(
                counts.tolist(), user_model, scale,
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
