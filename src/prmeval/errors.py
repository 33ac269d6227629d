"""Exception and warning types shared across the package, and the checks
of number lists that the CLI makes on a flag and the library on a call."""

from __future__ import annotations

from typing import Sequence


class PrmError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PrmError):
    """A line of an input file could not be decoded."""


class ValidationError(PrmError):
    """Decoded input violates a structural invariant."""


class EstimationError(PrmError):
    """Disagreement parameters cannot be estimated from the given pairs."""


class MetricError(PrmError):
    """A metric cannot be computed (undefined gains, empty pools, ...)."""


class DataWarning(UserWarning):
    """Non-fatal data anomaly: value accepted, but worth flagging."""


def check_gains(gains: Sequence[float]) -> None:
    """Each gain must be finite and >= 0."""
    for g in gains:
        if not 0.0 <= g < float("inf"):
            raise ValidationError(f"gains must be finite and >= 0, got {g}")


def check_custom_gains(gains: Sequence[float]) -> None:
    """A custom gain vector must not be all zero, and its gains are checked."""
    if all(g == 0.0 for g in gains):
        raise ValidationError("custom gain vector must not be all zero")
    check_gains(gains)


def check_budgets(budgets: Sequence[int]) -> None:
    """The budgets other than 0 must be positive and strictly increasing."""
    kept = [b for b in budgets if b != 0]
    for b in kept:
        if b < 0:
            raise ValidationError(f"budgets must be >= 0, got {b}")
    if not kept:
        raise ValidationError("no positive budgets")
    if any(b2 <= b1 for b1, b2 in zip(kept, kept[1:])):
        raise ValidationError(f"budgets must be strictly increasing, got {kept}")
