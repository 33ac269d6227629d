"""Meta-analyses: rank correlation and the budget sweep.  The topic
bootstrap and the quality sweep only count, so they live in
``disagreement`` and are re-exported here.

Randomized procedures draw from numpy's PCG64 generator.  Every round or
resample r uses an independent stream seeded as
``np.random.default_rng([seed, r])``, so results are identical whether
rounds run sequentially or in parallel, and reproduce across platforms.
The budget sweep, which draws far more values than the bootstrap, imports
numpy, and only when it runs; numpy is the ``budget`` extra, not a
dependency of the package.
"""

from __future__ import annotations

import math
import warnings
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .corpus import JudgmentPair, RelevanceScale, RunRanking, _Frozen
from .disagreement import (  # the bootstrap and quality sweep are re-exported from here
    BootstrapResult, LevelSeries, SensitivityCurve, UserModel, _check_seed, _summaries,
    bootstrap_topics, pair_codes, quality_sensitivity, table_from_counts,
)
from .errors import (
    DataWarning, EstimationError, MetricError, PrmError, ValidationError, check_budgets,
)
from .metrics import DiscountFunction, GainScheme, _Pool, ndcg_reports

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


class SystemRanking(_Frozen):
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
        raise ValidationError("need at least 2 runs to correlate rankings")
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


def _round_rng(seed: int, round_index: int) -> np.random.Generator:
    import numpy as np
    return np.random.default_rng([seed, round_index])


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
    of the estimate across rounds, plus how many rounds defined it.  The
    draw needs numpy, imported once every input is checked; without it
    the sweep is a PrmError.
    """
    _check_seed(seed)
    if not pairs:
        raise EstimationError("no judgment pairs to sample")
    if n_rounds < 1:
        raise ValidationError(f"n_rounds must be >= 1, got {n_rounds}")
    for b in budgets:
        if b == 0:
            warnings.warn("budget 0 skipped", DataWarning, stacklevel=2)
    check_budgets(budgets)
    kept = [int(b) for b in budgets if b != 0]

    user_model.check_against(scale)
    n = scale.top_index + 1
    cells = pair_codes(pairs, scale)
    # the estimator options, on no counts, before numpy is needed
    table_from_counts([[0] * n] * n, user_model, scale, estimator=estimator,
                      condition=condition, one_sided_collection=one_sided_collection)
    try:
        import numpy as np
    except ImportError:  # also a module set to None in sys.modules
        raise PrmError("analyze budget needs numpy; install prmeval[budget]") from None
    codes = np.frombuffer(cells, dtype=np.int64)
    ps: dict[int, list[list[float | None]]] = {b: [] for b in kept}
    for r in range(n_rounds):
        rng = _round_rng(seed, r)
        try:
            draw = rng.integers(0, len(codes), size=kept[-1])
        except ValueError as exc:  # a size numpy cannot even represent
            raise MemoryError(str(exc)) from None
        counts, prev = np.zeros(n * n, dtype=np.int64), 0
        for b in kept:
            # the budget before's counts plus those of the draws it lacks
            counts += np.bincount(codes[draw[prev:b]], minlength=n * n)
            prev = b
            table = table_from_counts(
                counts.reshape(n, n).tolist(), user_model, scale,
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
    runs: Iterable[RunRanking],
    judged: Sequence[Mapping[str, Mapping[str, int]]],
    schemes: Mapping[str, GainScheme],
    discount: DiscountFunction,
    k: int,
    *,
    strict: bool = False,
    ideal_pool: str = "qrels",
) -> list[dict[str, SystemRanking]]:
    """Rank runs by mean nDCG@k, one ranking per gain scheme, for each
    ``topic -> {doc: level}`` map in ``judged`` (see JudgmentSet.doc_levels).

    ``runs`` may be any iterable: each run is scored against every map for
    all schemes in one visit, and is not kept.  A repeated system id is a
    ValidationError.  ``strict`` and ``ideal_pool`` are as in ndcg_at_k.
    Each map's judged levels are counted once, not once per run.
    """
    pools = [_Pool(doc_levels) for doc_levels in judged]
    means: list[dict[str, dict[str, float]]] = [{name: {} for name in schemes} for _ in pools]
    seen: set[str] = set()
    scheme_list = list(schemes.values())
    for run in runs:
        if run.system_id in seen:
            raise ValidationError(f"duplicate system id among runs: {run.system_id!r}")
        seen.add(run.system_id)
        for by_scheme, pool in zip(means, pools):
            reports = ndcg_reports(
                run, pool, scheme_list, discount, k,
                strict=strict, ideal_pool=ideal_pool,
            )
            for name, report in zip(schemes, reports):
                by_scheme[name][run.system_id] = report.mean
    labels = {name: f"ndcg_{scheme.name}@{k}" for name, scheme in schemes.items()}
    return [
        {name: SystemRanking.from_scores(labels[name], by_run) for name, by_run in m.items()}
        for m in means
    ]


def robustness_study(
    runs: Iterable[RunRanking],
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

    Ranks the runs by mean nDCG@k against each assessor group's
    ``topic -> {doc: level}`` map (the gain vectors stay fixed) and reports
    the rank correlation between the two rankings per scheme.  ``runs``,
    ``strict`` and ``ideal_pool`` are as in rank_by_ndcg.
    """
    rank_u1, rank_u2 = rank_by_ndcg(
        runs, (set_u1, set_u2), schemes, discount or DiscountFunction.log(2.0), k,
        strict=strict, ideal_pool=ideal_pool,
    )
    return {name: kendall_tau(rank_u1[name], rank_u2[name], variant=variant) for name in schemes}
