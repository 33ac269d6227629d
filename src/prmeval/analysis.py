"""Meta-analyses: rank correlation, bootstrap and budget sweeps.  The
quality sweep only counts, so it lives in ``disagreement``.

Randomized procedures draw from numpy's PCG64 generator.  Every round or
resample r uses an independent stream seeded as
``np.random.default_rng([seed, r])``, so results are identical whether
rounds run sequentially or in parallel, and reproduce across platforms.
The topic bootstrap computes that stream, and the mean and std of its
samples, in pure Python by numpy's own integer and float operations; the
tests check both against numpy, so a numpy release that changed them
fails a test rather than changing the output.  Only the budget sweep,
which draws far more values, imports numpy, and only when it runs; numpy
is the ``budget`` extra, not a dependency of the package.
"""

from __future__ import annotations

import math
import operator
import warnings
from functools import cached_property, reduce
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .corpus import JudgmentPair, RelevanceScale, RunRanking, _Frozen
from .disagreement import (  # the quality sweep is re-exported from here
    LevelSeries, SensitivityCurve, UserModel, _as_pairs, group_pair_counts, pair_codes,
    quality_sensitivity, table_from_counts,
)
from .errors import DataWarning, EstimationError, MetricError, PrmError, ValidationError
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


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _round_rng(seed: int, round_index: int) -> np.random.Generator:
    import numpy as np
    return np.random.default_rng([seed, round_index])


# word masks, and the multiplier of the 128-bit LCG under numpy's PCG64
_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _pcg64_words(entropy: Sequence[int]) -> Iterator[int]:
    """The 32-bit words of ``np.random.PCG64(np.random.SeedSequence(entropy))``
    as its ``next32`` gives them: each 64-bit output, low half first.

    The entropy ints are split into little-endian 32-bit words, hashed into
    a 4-word pool and expanded to 8 words, as SeedSequence does; those give
    the LCG's 128-bit state and increment, and each output is the XSL-RR
    permutation of the stepped state.
    """
    words = [
        w for v in entropy
        for w in [(v >> s) & _M32 for s in range(0, v.bit_length(), 32)] or [0]
    ]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))

    const = 0x8B51F9DD
    seed_words = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        seed_words.append(value ^ value >> 16)
    s = [seed_words[i] | seed_words[i + 1] << 32 for i in range(0, 8, 2)]
    inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
    # seeding steps from state 0 (to inc), adds the seed and steps again
    state = ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _M64
        out = (x >> rot | x << (64 - rot)) & _M64
        yield out & _M32
        yield out >> 32


def _rng_integers(seed: int, stream: int, n: int, size: int) -> list[int]:
    """``np.random.default_rng([seed, stream]).integers(0, n, size=size).tolist()``
    for ``1 <= n < 2**32``, without numpy.

    As numpy does, a one-value range draws nothing, and each value is
    Lemire's multiply-shift of one 32-bit word, redrawn while the low half
    of the product falls below ``2**32 % n``.
    """
    if n == 1:
        return [0] * size
    words = _pcg64_words((seed, stream))
    threshold = (1 << 32) % n
    out = []
    for _ in range(size):
        m = next(words) * n
        while m & _M32 < threshold:
            m = next(words) * n
        out.append(m >> 32)
    return out


class BootstrapResult(_Frozen):
    """Resampled estimates of one p_{R|i} parameter.

    ``samples`` holds the estimate from each resample where the level was
    defined; resamples where it was undefined (no paired judgments at the
    level) are counted in ``n_missing`` rather than imputed.  The summaries
    are computed from ``samples`` once, when first read, and are None
    without samples: ``std`` uses the n - 1 denominator and is None for
    fewer than 2 samples; quartiles are (min, q1, median, q3, max) with
    linear interpolation.
    """

    level: int
    samples: tuple[float, ...]
    n_missing: int

    @cached_property
    def _stats(self) -> tuple:
        # cached_property writes to the instance's __dict__, past the
        # frozen __setattr__
        return _summaries(self.samples)

    @property
    def mean(self) -> float | None:
        return self._stats[0]

    @property
    def std(self) -> float | None:
        return self._stats[1]

    @property
    def quartiles(self) -> tuple[float, float, float, float, float] | None:
        return self._stats[2]

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
    """Mean, std (n - 1) and quartiles as ``arr.mean()``, ``arr.std(ddof=1)``
    and ``_quartiles`` give them; numpy's reductions add to 0.0."""
    if not samples:
        return None, None, None
    n = len(samples)
    mean = (0.0 + _pairwise_sum(samples)) / n
    sq = [(x - mean) * (x - mean) for x in samples]
    std = math.sqrt((0.0 + _pairwise_sum(sq)) / (n - 1)) if n > 1 else None
    return mean, std, _quartiles(samples)


def _pairwise_sum(xs: Sequence[float]) -> float:
    """numpy's pairwise sum of float64 values, by the same float operations.

    Fewer than 8 values add up from 0.0 in order.  Up to 128 values add
    into 8 interleaved accumulators, which combine as a tree before the
    tail is added.  A longer run splits in two at a multiple of 8 near its
    middle.  Every sum is a left fold of ``+``: the built-in ``sum`` of
    floats is compensated from Python 3.12 on.
    """
    n = len(xs)
    if n < 8:
        return reduce(operator.add, xs, 0.0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])
    end = n - n % 8
    r = [reduce(operator.add, xs[j:end:8]) for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(operator.add, xs[end:], total)


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
    # C[i][j] of every topic, so a resample's C[i][j] is one dot product
    # with the topics' draw counts
    cells = [list(zip(*rows)) for rows in zip(*per_topic)]
    ps = []  # per resample, p per level (None where undefined)
    for r in range(n_resamples):
        times = [0] * n
        for t in _rng_integers(seed, r, n, n):
            times[t] += 1
        table = table_from_counts(
            [[sum(map(operator.mul, times, cell)) for cell in row] for row in cells],
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
    of the estimate across rounds, plus how many rounds defined it.  The
    draw needs numpy, imported once every input is checked; without it
    the sweep is a PrmError.
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
