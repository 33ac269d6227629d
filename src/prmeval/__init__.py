"""Disagreement-aware evaluation of ranked retrieval runs.

Estimates per-level assessor-disagreement probabilities p(R|i) from
double relevance judgments, turns them into nDCG gains, and evaluates
TREC-style runs with expected relevance counts, expected precision, and
gain-based nDCG@k, plus bootstrap/budget/quality/robustness analyses.

The public names below resolve on first access (PEP 562), so that
``import prmeval`` imports none of the submodules, and numpy with them,
until a name from one of them is used.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": (
            "SystemRanking", "kendall_tau", "robustness_study", "simulate_annotation_rounds",
        ),
        "corpus": (
            "Judgment", "JudgmentPair", "JudgmentPairs", "JudgmentSet", "PairingResult",
            "RelevanceScale", "RunEntry", "RunRanking", "attach_resources", "pair_judgments",
            "parse_paired", "parse_qrels", "parse_run", "parse_scale", "select_top_intent",
        ),
        "disagreement": (
            "BootstrapResult", "DisagreementCell", "DisagreementTable", "LevelSeries",
            "SensitivityCurve", "UserModel", "bootstrap_topics", "cell_sigma",
            "estimate_one_sided", "estimate_symmetric", "quality_sensitivity",
        ),
        "errors": (
            "DataWarning", "EstimationError", "MetricError", "ParseError", "PrmError",
            "ValidationError",
        ),
        "metrics": (
            "DiscountFunction", "GainScheme", "MetricReport", "count_binary", "count_prm",
            "dcg_from_levels", "expected_precision_report", "ideal_dcg_at_k", "ndcg_at_k",
            "topic_dcg",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
