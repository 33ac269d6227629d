"""Assessor-disagreement estimation from doubly judged results.

Given results judged independently by two assessor groups (U1, U2) on the
same graded scale, estimate for each level i the probability

    p_{R|i} = P(a random user considers the result relevant
              | an assessor labeled it i)

under a binary user model: a user with threshold theta considers a result
relevant iff its level is >= theta.  The other group's judgment stands in
for the random user's.

Two estimators:

- one-sided, conditioning on U1 (or U2):
      p_{R|i} = N_{U2=R, U1=i} / N_{U1=i}
  Required when the second judging round only re-judged results the first
  round had rated above 0, since then the reverse direction is biased.

- symmetric, pooling both directions:
      p_{R|i} = (N_{U1=R, U2=i} + N_{U2=R, U1=i}) / (N_{U2=i} + N_{U1=i})

Every estimate is a reduction of the (T+1) x (T+1) count matrix C, where
C[i, j] counts the pairs with U1 label i and U2 label j: one-sided on U1
reads the rows of C, on U2 those of C^T, symmetric those of C + C^T.
Strata, bootstrap resamples, budget rounds and quality-sweep steps only
re-count or re-weight C; ``table_from_counts`` turns any C into a table.
C is kept as rows of Python ints, counted with a ``Counter``, so nothing
here, the quality sweep and the topic bootstrap included, loads numpy.

The topic bootstrap computes numpy's stream ``default_rng([seed, r])``
for resample r, and the mean and std of its samples, in pure Python by
numpy's own integer and float operations; the tests check both against
numpy, so a numpy release that changed them fails a test, not the output.

Each estimate carries a binomial standard error
    sigma = sqrt(phat (1 - phat) / N_D),  phat = N_N / N_D.
The symmetric estimator's N_D counts each pair in both directions, as if
they were independent draws, so its sigma understates the spread: with
10^4 pairs the top level's mean sigma was 0.0085 against an empirical
0.0106 (20% low, 200 seeds).  One-sided estimates count each pair once.

Levels with no paired judgments get an explicitly undefined probability,
never a silent zero.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from array import array
from collections import Counter
from functools import cached_property, reduce
from itertools import accumulate, chain, compress
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .corpus import (
    JudgmentPair, JudgmentPairs, JudgmentSet, RelevanceScale, _cuts, _docs_by_topic, _Frozen,
    _integral,
)
from .errors import DataWarning, EstimationError, ParseError, ValidationError

__all__ = [
    "UserModel",
    "DisagreementCell",
    "DisagreementTable",
    "estimate_one_sided",
    "estimate_symmetric",
    "estimate",
    "pair_codes",
    "code_counts",
    "group_pair_counts",
    "table_from_counts",
    "cell_sigma",
    "LevelSeries",
    "SensitivityCurve",
    "quality_sensitivity",
    "BootstrapResult",
    "bootstrap_topics",
]


class UserModel(_Frozen):
    """Binary notion of user relevance: level >= theta counts as relevant."""

    theta: int

    def __post_init__(self) -> None:
        if self.theta < 1:
            raise ValidationError(f"theta must be >= 1, got {self.theta}")

    def check_against(self, scale: RelevanceScale) -> None:
        if self.theta > scale.top_index:
            raise ValidationError(
                f"theta {self.theta} > T={scale.top_index} for scale {scale.labels}"
            )

    def relevant(self, level: int) -> bool:
        return level >= self.theta


def cell_sigma(n_match: int, n_total: int) -> float:
    """Binomial standard error of the proportion n_match / n_total."""
    if n_total <= 0:
        raise EstimationError("sigma undefined: no paired judgments (N_D = 0)")
    if not 0 <= n_match <= n_total:
        raise ValidationError(f"need 0 <= n_match <= n_total, got {n_match}/{n_total}")
    phat = n_match / n_total
    return math.sqrt(phat * (1.0 - phat) / n_total)


class DisagreementCell(_Frozen):
    """Estimate of p_{R|i} for one assessment level.

    ``p`` is None when no paired judgments exist for the level (N_D = 0);
    consumers must treat that as undefined, not as zero.  ``source`` is
    ``"estimated"`` for values derived from counts and ``"override"`` for
    manually pinned values (which carry no sigma).
    """

    level: int
    n_match: int
    n_total: int
    p: float | None
    sigma: float | None
    source: str = "estimated"

    def __post_init__(self) -> None:
        if self.source not in ("estimated", "override"):
            raise ValidationError(f"unknown cell source {self.source!r}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValidationError(f"p must lie in [0, 1], got {self.p}")
        if not 0 <= self.n_match <= self.n_total:
            raise ValidationError(
                f"level {self.level}: need 0 <= n_match <= n_total, "
                f"got {self.n_match}/{self.n_total}"
            )
        if self.sigma is not None and not 0.0 <= self.sigma < math.inf:
            raise ValidationError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.source == "estimated":
            if self.n_total == 0 and self.p is not None:
                raise ValidationError(
                    f"level {self.level}: p given but N_D = 0; undefined cells "
                    "must have p = None"
                )
            if self.n_total > 0 and self.p is None:
                raise ValidationError(f"level {self.level}: p missing despite N_D > 0")

    @property
    def defined(self) -> bool:
        return self.p is not None


class DisagreementTable(_Frozen):
    """p_{R|i} for every level of a scale, under one user model.

    One cell per level 0..T, in level order.  ``estimator`` is
    ``"one_sided"``, ``"symmetric"``, or ``"manual"``; ``condition``
    records the conditioning direction for one-sided estimates.
    """

    scale: RelevanceScale
    theta: int
    cells: tuple[DisagreementCell, ...]
    estimator: str
    condition: str | None = None

    def __post_init__(self) -> None:
        if len(self.cells) != self.scale.top_index + 1:
            raise ValidationError(
                f"need {self.scale.top_index + 1} cells for scale "
                f"{self.scale.labels}, got {len(self.cells)}"
            )
        for i, cell in enumerate(self.cells):
            if cell.level != i:
                raise ValidationError(f"cell {i} has level {cell.level}")
        UserModel(self.theta).check_against(self.scale)

    def warn_non_monotone(self) -> None:
        """Warn about each drop of p_{R|i} from one level to the next that
        is larger than the combined noise band 2 (sigma_i + sigma_{i+1});
        p_{R|i} should not decrease as the level rises."""
        for lo, hi in zip(self.cells, self.cells[1:]):
            if lo.p is None or hi.p is None:
                continue
            slack = 2.0 * ((lo.sigma or 0.0) + (hi.sigma or 0.0))
            if lo.p > hi.p + slack:
                warnings.warn(
                    f"non-monotone disagreement estimates: p(level {lo.level}) = "
                    f"{lo.p:.4f} > p(level {hi.level}) = {hi.p:.4f} beyond noise",
                    DataWarning,
                    stacklevel=2,
                )

    def p(self, level: int) -> float:
        cell = self.cells[self.scale.check_level(level)]
        if cell.p is None:
            raise EstimationError(
                f"p undefined for level {level} ({self.scale.label(level)}): "
                "no paired judgments"
            )
        return cell.p

    def with_override(self, level: int, p: float) -> "DisagreementTable":
        """Pin one cell to a fixed probability (e.g. p_{R|0} := 0)."""
        self.scale.check_level(level)
        cells = list(self.cells)
        cells[level] = cells[level]._replace(p=float(p), sigma=None, source="override")
        return self._replace(cells=tuple(cells))

    def to_json_dict(self) -> dict:
        return {
            "scale": self.scale.to_descriptor(),
            "theta": self.theta,
            "estimator": self.estimator,
            "condition": self.condition,
            "cells": [
                {
                    "level": c.level,
                    "label": self.scale.label(c.level),
                    "n_match": c.n_match,
                    "n_total": c.n_total,
                    "p": c.p,
                    "sigma": c.sigma,
                    "source": c.source,
                }
                for c in self.cells
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "DisagreementTable":
        if not isinstance(obj, Mapping):
            raise ValidationError("a disagreement table must be a JSON object")
        for key in ("scale", "theta", "cells"):
            if key not in obj:
                raise ValidationError(f"disagreement table lacks {key!r}")

        def real(value) -> float | None:
            # float() alone would take a boolean
            if isinstance(value, bool):
                raise ValueError(f"not a number: {value!r}")
            return None if value is None else float(value)

        try:
            scale = RelevanceScale.from_descriptor(obj["scale"])
            theta = _integral(obj["theta"])
            cells = []
            for c in sorted(obj["cells"], key=lambda c: _integral(c["level"])):
                p = real(c.get("p"))
                n_total = _integral(c.get("n_total", 0))
                # Hand-written tables give p without counts; treat as pinned.
                default_source = "override" if (p is not None and n_total == 0) else "estimated"
                cells.append(
                    DisagreementCell(
                        level=_integral(c["level"]),
                        n_match=_integral(c.get("n_match", 0)),
                        n_total=n_total,
                        p=p,
                        sigma=real(c.get("sigma")),
                        source=str(c.get("source", default_source)),
                    )
                )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed disagreement table: {exc!r}") from None
        return cls(
            scale=scale,
            theta=theta,
            cells=tuple(cells),
            estimator=str(obj.get("estimator", "manual")),
            condition=obj.get("condition"),
        )

    @classmethod
    def from_json(cls, source: str | IO[str]) -> "DisagreementTable":
        text = source if isinstance(source, str) else source.read()
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"disagreement table is not valid JSON: {exc}") from None
        return cls.from_json_dict(obj)

    def to_text(self) -> str:
        """Aligned table, highest level first, probabilities to 4 decimals."""
        width = max(len(lbl) for lbl in self.scale.labels)
        lines = [
            f"estimator={self.estimator}"
            + (f" condition={self.condition}" if self.condition else "")
            + f" theta={self.theta} ({self.scale.label(self.theta)})"
        ]
        for cell in reversed(self.cells):
            label = self.scale.label(cell.level)
            if cell.p is None:
                body = "p=undef (no paired judgments)"
            else:
                body = f"p={cell.p:.4f}"
                if cell.sigma is not None:
                    body += f" sigma={cell.sigma:.4f}"
            counts = (
                f" [{cell.n_match}/{cell.n_total}]" if cell.source == "estimated" else ""
            )
            marker = " *override*" if cell.source == "override" else ""
            lines.append(f"{label:<{width}}  {body}{counts}{marker}")
        return "\n".join(lines) + "\n"


def _as_pairs(pairs: Sequence[JudgmentPair], scale: RelevanceScale) -> JudgmentPairs:
    """``pairs`` as :class:`JudgmentPairs` checked against ``scale``: as
    they are when already checked against a scale of this size, otherwise
    with their levels checked here (see ``JudgmentPairs``)."""
    if isinstance(pairs, JudgmentPairs) and pairs.width == scale.top_index + 1:
        return pairs
    return JudgmentPairs(pairs, scale)


def pair_codes(pairs: Sequence[JudgmentPair], scale: RelevanceScale) -> array:
    """Cell code ``l1 * (T+1) + l2`` of every pair, in input order, as the
    pairs' own ``array('q')``: read it, do not change it (see
    :func:`_as_pairs` for the level check)."""
    return _as_pairs(pairs, scale)._cells


def _count(keys: Iterable[int], n: int, n_groups: int) -> list:
    """``C[g][i][j]``: the number of keys ``g * n**2 + i * n + j``."""
    cells = n * n
    flat = [0] * (n_groups * cells)
    for key, count in Counter(keys).items():
        flat[key] = count
    return [
        [flat[g + i : g + i + n] for i in range(0, cells, n)] for g in range(0, len(flat), cells)
    ]


def code_counts(
    codes: Iterable[int], scale: RelevanceScale, groups: Iterable[int] | None = None,
    n_groups: int = 1,
) -> list:
    """Count matrix ``C[i][j]`` of pair codes, or ``C[g][i][j]`` per group,
    as nested lists of ints.

    ``groups`` gives each code's group index in ``0..n_groups-1``; a code
    is counted as the one int ``g * (T+1)**2 + code``.
    """
    n = scale.top_index + 1
    if groups is None:
        return _count(codes, n, 1)[0]
    return _count(map(operator.add, map((n * n).__mul__, groups), codes), n, n_groups)


def group_pair_counts(
    pairs: Sequence[JudgmentPair],
    scale: RelevanceScale,
    group_of: Mapping[str, str] | None = None,
) -> tuple[list[str], list]:
    """Sorted group names and ``C[group][i][j]``, one count matrix per group.

    A pair's group is ``group_of[topic]``, by default its topic; a topic
    that ``group_of`` lacks is a ValidationError.
    """
    pairs = _as_pairs(pairs, scale)
    topics = list(dict.fromkeys(pairs.topic_ids))
    if group_of is None:
        groups = topics
    else:
        missing = [t for t in topics if t not in group_of]
        if missing:
            raise ValidationError(f"topics missing from strata map: {sorted(missing)}")
        groups = list(map(group_of.__getitem__, topics))
    names = sorted(set(groups))
    n = scale.top_index + 1
    index = {name: g * n * n for g, name in enumerate(names)}
    offset = dict(zip(topics, map(index.__getitem__, groups)))
    keys = map(operator.add, map(offset.__getitem__, pairs.topic_ids), pair_codes(pairs, scale))
    return names, _count(keys, n, len(names))


def _plus(a: Iterable[Sequence[int]], b: Iterable[Sequence[int]]) -> list:
    """The entry-wise sum of two count matrices given by their rows."""
    return [list(map(operator.add, row_a, row_b)) for row_a, row_b in zip(a, b)]


def table_from_counts(
    counts: Sequence[Sequence[int]],
    user_model: UserModel,
    scale: RelevanceScale,
    *,
    estimator: str = "symmetric",
    condition: str = "u1",
    one_sided_collection: bool = False,
) -> DisagreementTable:
    """The named estimator's table from the count matrix ``C[i][j]``, given
    as rows of ints.

    Symmetric pools both directions, ``C + C^T``; one-sided conditions on
    U1's labels (``C``) or U2's (``C^T``).  Level i's total is row i's sum
    and its matches are row i's sum over columns >= theta.  The symmetric
    estimator refuses when ``one_sided_collection`` is set, i.e. when the
    second judging round only covered results the first round rated above
    0: there the U2-conditioned direction over-samples agreement, so
    pooling would bias the estimates high.
    """
    if estimator == "symmetric":
        if one_sided_collection:
            raise EstimationError(
                "symmetric estimator is biased when the second round judged only "
                "results the first round rated above 0; use estimate_one_sided "
                "with condition='u1'"
            )
        given, condition = _plus(counts, zip(*counts)), None
    elif estimator == "one_sided":
        if condition not in ("u1", "u2"):
            raise ValidationError(f"condition must be 'u1' or 'u2', got {condition!r}")
        given = counts if condition == "u1" else list(zip(*counts))
    else:
        raise ValidationError(f"unknown estimator {estimator!r}")
    theta = user_model.theta
    cells = tuple(
        DisagreementCell(level, n_match, n_total, n_match / n_total,
                         cell_sigma(n_match, n_total))
        if n_total else DisagreementCell(level, 0, 0, None, None)
        for level, (n_match, n_total) in enumerate((sum(row[theta:]), sum(row)) for row in given)
    )
    return DisagreementTable(scale, user_model.theta, cells, estimator, condition)


def estimate(
    pairs: Sequence[JudgmentPair],
    user_model: UserModel,
    scale: RelevanceScale,
    *,
    estimator: str = "symmetric",
    condition: str = "u1",
    one_sided_collection: bool = False,
) -> DisagreementTable:
    """Estimate p_{R|i} with the named estimator: "symmetric" or "one_sided".

    ``condition`` applies to the one-sided estimator and
    ``one_sided_collection`` to the symmetric one (see table_from_counts).
    """
    if not pairs:
        raise EstimationError("no judgment pairs to estimate from")
    user_model.check_against(scale)
    return table_from_counts(
        code_counts(pair_codes(pairs, scale), scale), user_model, scale, estimator=estimator,
        condition=condition, one_sided_collection=one_sided_collection,
    )


def estimate_one_sided(
    pairs: Sequence[JudgmentPair],
    user_model: UserModel,
    scale: RelevanceScale,
    *,
    condition: str = "u1",
) -> DisagreementTable:
    """Estimate p_{R|i} conditioning on one group's labels.

    With ``condition="u1"``, level i counts pairs whose U1 label is i and
    matches those whose U2 label meets the threshold; ``"u2"`` swaps the
    roles.
    """
    return estimate(pairs, user_model, scale, estimator="one_sided", condition=condition)


def estimate_symmetric(
    pairs: Sequence[JudgmentPair],
    user_model: UserModel,
    scale: RelevanceScale,
    *,
    one_sided_collection: bool = False,
) -> DisagreementTable:
    """Estimate p_{R|i} pooling both conditioning directions.

    Refuses when ``one_sided_collection`` is set; use the one-sided
    estimator conditioned on the complete first round instead.
    """
    return estimate(pairs, user_model, scale, one_sided_collection=one_sided_collection)


class LevelSeries(_Frozen):
    """One level's trajectory along a sweep: mean estimate and std band."""

    level: int
    means: tuple[float | None, ...]
    stds: tuple[float | None, ...]
    n_defined: tuple[int, ...]


class SensitivityCurve(_Frozen):
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
    topic_ids = judgments.topic_ids
    in_resource = list(map(resources.__getitem__, judgments.doc_ids))
    strong = list(map((scale.top_index - 1).__le__, judgments.levels))
    strong_counts: dict[str, Counter] = {}
    cuts = _cuts(topic_ids)
    for a, b in zip(cuts, cuts[1:]):
        counts = strong_counts.setdefault(topic_ids[a], Counter())
        counts.update(compress(in_resource[a:b], strong[a:b]))
        counts.update(dict.fromkeys(in_resource[a:b], 0))  # a resource with none strong
    place = {
        topic: {r: k for k, r in enumerate(sorted(counts, key=lambda r: (-counts[r], r)))}
        for topic, counts in strong_counts.items()
    }
    judged = _docs_by_topic(topic_ids, judgments.doc_ids)

    pairs = _as_pairs(pairs, scale)
    topics, docs = pairs.topic_ids, pairs.doc_ids
    cuts = _cuts(topics)
    stretches = list(zip(cuts, cuts[1:]))
    if not all(judged.get(topics[a], set()).issuperset(docs[a:b]) for a, b in stretches):
        uncovered = [(t, d) for t, d in zip(topics, docs) if d not in judged.get(t, ())]
        raise ValidationError(
            f"{len(uncovered)} pairs reference documents absent from the reference "
            f"judgments (first: {uncovered[0]}); the sweep cannot cover them"
        )
    steps = chain.from_iterable(
        map(place[topics[a]].__getitem__, map(resources.__getitem__, docs[a:b]))
        for a, b in stretches
    )
    k_max = max(map(len, place.values()))
    per_k = accumulate(code_counts(pair_codes(pairs, scale), scale, steps, k_max), _plus)

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


def _check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


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
