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
here, the quality sweep included, loads numpy.

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
from dataclasses import dataclass, replace
from itertools import accumulate, repeat
from typing import IO, Iterable, Mapping, Sequence

from .corpus import JudgmentPair, JudgmentPairs, JudgmentSet, RelevanceScale
from .errors import DataWarning, EstimationError, ParseError, ValidationError

__all__ = [
    "UserModel",
    "DisagreementCell",
    "DisagreementTable",
    "estimate_one_sided",
    "estimate_symmetric",
    "estimate",
    "stratified_estimate",
    "stratum_counts",
    "pair_codes",
    "code_counts",
    "pair_counts",
    "group_pair_counts",
    "table_from_counts",
    "cell_sigma",
    "LevelSeries",
    "SensitivityCurve",
    "quality_sensitivity",
]


@dataclass(frozen=True)
class UserModel:
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


@dataclass(frozen=True)
class DisagreementCell:
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


@dataclass(frozen=True)
class DisagreementTable:
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

    def defined_levels(self) -> tuple[int, ...]:
        return tuple(c.level for c in self.cells if c.defined)

    def with_override(self, level: int, p: float) -> "DisagreementTable":
        """Pin one cell to a fixed probability (e.g. p_{R|0} := 0)."""
        self.scale.check_level(level)
        cells = list(self.cells)
        cells[level] = replace(
            cells[level], p=float(p), sigma=None, source="override"
        )
        return replace(self, cells=tuple(cells))

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
        try:
            scale = RelevanceScale.from_descriptor(obj["scale"])
            theta = int(obj["theta"])
            cells = []
            for c in sorted(obj["cells"], key=lambda c: int(c["level"])):
                p = None if c.get("p") is None else float(c["p"])
                n_total = int(c.get("n_total", 0))
                # Hand-written tables give p without counts; treat as pinned.
                default_source = "override" if (p is not None and n_total == 0) else "estimated"
                cells.append(
                    DisagreementCell(
                        level=int(c["level"]),
                        n_match=int(c.get("n_match", 0)),
                        n_total=n_total,
                        p=p,
                        sigma=None if c.get("sigma") is None else float(c["sigma"]),
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


def code_counts(
    codes: Iterable[int], scale: RelevanceScale, groups: Iterable[int] | None = None,
    n_groups: int = 1,
) -> list:
    """Count matrix ``C[i][j]`` of pair codes, or ``C[g][i][j]`` per group,
    as nested lists of ints.

    ``groups`` gives each code's group index in ``0..n_groups-1``.
    """
    n = scale.top_index + 1
    out = [[[0] * n for _ in range(n)] for _ in range(n_groups)]
    for (g, code), count in Counter(zip(repeat(0) if groups is None else groups, codes)).items():
        out[g][code // n][code % n] = count
    return out[0] if groups is None else out


def pair_counts(pairs: Sequence[JudgmentPair], scale: RelevanceScale) -> list:
    """``C[i][j]``: the number of pairs with U1 label i and U2 label j."""
    return code_counts(pair_codes(pairs, scale), scale)


def group_pair_counts(
    pairs: Sequence[JudgmentPair],
    scale: RelevanceScale,
    group_of: Mapping[str, str] | None = None,
) -> tuple[list[str], list]:
    """Sorted group names and ``C[group][i][j]``, one count matrix per group.

    A pair's group is ``group_of[topic]``, by default its topic.
    """
    pairs = _as_pairs(pairs, scale)
    labels = pairs.topic_ids
    if group_of is not None:
        labels = list(map(group_of.__getitem__, labels))
    names = sorted(set(labels))
    index = {name: i for i, name in enumerate(names)}
    groups = map(index.__getitem__, labels)
    return names, code_counts(pair_codes(pairs, scale), scale, groups, len(names))


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
        pair_counts(pairs, scale), user_model, scale, estimator=estimator,
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


def stratified_estimate(
    pairs: Sequence[JudgmentPair],
    strata: Mapping[str, str],
    user_model: UserModel,
    scale: RelevanceScale,
    *,
    estimator: str = "symmetric",
    condition: str = "u1",
    one_sided_collection: bool = False,
) -> dict[str, DisagreementTable]:
    """Estimate a separate table per stratum of a topic -> stratum map."""
    return {
        name: table_from_counts(
            counts, user_model, scale, estimator=estimator,
            condition=condition, one_sided_collection=one_sided_collection,
        )
        for name, counts in stratum_counts(pairs, strata, user_model, scale).items()
    }


def stratum_counts(
    pairs: Sequence[JudgmentPair],
    strata: Mapping[str, str],
    user_model: UserModel,
    scale: RelevanceScale,
) -> dict[str, list]:
    """``C[i][j]`` per stratum, by stratum name, after the checks of an estimate."""
    if not pairs:
        raise EstimationError("no judgment pairs to estimate from")
    pairs = _as_pairs(pairs, scale)
    missing = set(pairs.topic_ids) - set(strata)
    if missing:
        raise ValidationError(f"topics missing from strata map: {sorted(missing)}")
    user_model.check_against(scale)
    names, per_stratum = group_pair_counts(pairs, scale, strata)
    return dict(zip(names, per_stratum))


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
    steps = map(place.__getitem__, zip(topics, map(resources.__getitem__, docs)))
    k_max = max(place.values()) + 1
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
