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

Each estimate carries a binomial standard error
    sigma = sqrt(phat (1 - phat) / N_D),  phat = N_N / N_D,
which for the symmetric estimator treats the pooled draws as independent,
a slight approximation since each pair contributes to both directions.

Levels with no paired judgments get an explicitly undefined probability,
never a silent zero.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from typing import IO, Mapping, Sequence

import numpy as np

from .corpus import JudgmentPair, JudgmentPairs, RelevanceScale
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
        self._warn_non_monotone()

    def _warn_non_monotone(self) -> None:
        # p_{R|i} should not decrease as the level rises; flag drops larger
        # than the combined noise band 2 (sigma_i + sigma_{i+1}).
        for lo, hi in zip(self.cells, self.cells[1:]):
            if lo.p is None or hi.p is None:
                continue
            slack = 2.0 * ((lo.sigma or 0.0) + (hi.sigma or 0.0))
            if lo.p > hi.p + slack:
                warnings.warn(
                    f"non-monotone disagreement estimates: p(level {lo.level}) = "
                    f"{lo.p:.4f} > p(level {hi.level}) = {hi.p:.4f} beyond noise",
                    DataWarning,
                    stacklevel=3,
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


def pair_codes(pairs: Sequence[JudgmentPair], scale: RelevanceScale) -> np.ndarray:
    """Cell code ``l1 * (T+1) + l2`` of every pair, in input order
    (read-only; see :func:`_as_pairs` for the level check)."""
    return _as_pairs(pairs, scale).codes


def code_counts(
    codes: np.ndarray, scale: RelevanceScale, groups: np.ndarray | None = None, n_groups: int = 1
) -> np.ndarray:
    """Count matrix ``C[i, j]`` of pair codes, or ``C[g, i, j]`` per group.

    ``groups`` gives each code's group index in ``0..n_groups-1``.
    """
    n = scale.top_index + 1
    if groups is not None:
        codes = groups * (n * n) + codes
    flat = np.bincount(codes, minlength=n_groups * n * n)
    return flat.reshape((n, n) if groups is None else (n_groups, n, n))


def pair_counts(pairs: Sequence[JudgmentPair], scale: RelevanceScale) -> np.ndarray:
    """``C[i, j]``: the number of pairs with U1 label i and U2 label j."""
    return code_counts(pair_codes(pairs, scale), scale)


def group_pair_counts(
    pairs: Sequence[JudgmentPair],
    scale: RelevanceScale,
    group_of: Mapping[str, str] | None = None,
) -> tuple[list[str], np.ndarray]:
    """Sorted group names and ``C[group, i, j]``, one count matrix per group.

    A pair's group is ``group_of[topic]``, by default its topic.
    """
    pairs = _as_pairs(pairs, scale)
    labels = pairs.topic_ids
    if group_of is not None:
        labels = list(map(group_of.__getitem__, labels))
    names = sorted(set(labels))
    index = {name: i for i, name in enumerate(names)}
    groups = np.fromiter(map(index.__getitem__, labels), dtype=np.int64, count=len(labels))
    return names, code_counts(pair_codes(pairs, scale), scale, groups, len(names))


def table_from_counts(
    counts: np.ndarray,
    user_model: UserModel,
    scale: RelevanceScale,
    *,
    estimator: str = "symmetric",
    condition: str = "u1",
    one_sided_collection: bool = False,
) -> DisagreementTable:
    """The named estimator's table from the count matrix ``C[i, j]``.

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
        given, condition = counts + counts.T, None
    elif estimator == "one_sided":
        if condition not in ("u1", "u2"):
            raise ValidationError(f"condition must be 'u1' or 'u2', got {condition!r}")
        given = counts if condition == "u1" else counts.T
    else:
        raise ValidationError(f"unknown estimator {estimator!r}")
    matches = given[:, user_model.theta:].sum(axis=1).tolist()
    cells = tuple(
        DisagreementCell(level, n_match, n_total, n_match / n_total,
                         cell_sigma(n_match, n_total))
        if n_total else DisagreementCell(level, 0, 0, None, None)
        for level, (n_match, n_total) in enumerate(zip(matches, given.sum(axis=1).tolist()))
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
) -> dict[str, np.ndarray]:
    """``C[i, j]`` per stratum, by stratum name, after the checks of an estimate."""
    if not pairs:
        raise EstimationError("no judgment pairs to estimate from")
    pairs = _as_pairs(pairs, scale)
    missing = set(pairs.topic_ids) - set(strata)
    if missing:
        raise ValidationError(f"topics missing from strata map: {sorted(missing)}")
    user_model.check_against(scale)
    names, per_stratum = group_pair_counts(pairs, scale, strata)
    return dict(zip(names, per_stratum))
