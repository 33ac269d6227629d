"""Disagreement-aware evaluation of ranked retrieval runs.

Estimates per-level assessor-disagreement probabilities p(R|i) from
double relevance judgments, turns them into nDCG gains, and evaluates
TREC-style runs with expected relevance counts, expected precision, and
gain-based nDCG@k, plus bootstrap/budget/quality/robustness analyses.
"""

from __future__ import annotations

from .analysis import (
    BootstrapResult,
    LevelSeries,
    SensitivityCurve,
    SystemRanking,
    bootstrap_topics,
    kendall_tau,
    quality_sensitivity,
    robustness_study,
    simulate_annotation_rounds,
)
from .corpus import (
    Judgment,
    JudgmentPair,
    JudgmentSet,
    PairingResult,
    RelevanceScale,
    RunEntry,
    RunRanking,
    attach_resources,
    pair_judgments,
    parse_paired,
    parse_qrels,
    parse_run,
    parse_scale,
    select_top_intent,
)
from .disagreement import (
    DisagreementCell,
    DisagreementTable,
    UserModel,
    cell_sigma,
    estimate_one_sided,
    estimate_symmetric,
    stratified_estimate,
)
from .errors import (
    DataWarning,
    EstimationError,
    MetricError,
    ParseError,
    PrmError,
    ValidationError,
)
from .metrics import (
    DiscountFunction,
    GainScheme,
    MetricReport,
    count_binary,
    count_prm,
    dcg_from_levels,
    expected_precision_report,
    ideal_dcg_at_k,
    ndcg_at_k,
    topic_dcg,
    topic_expected_precision,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapResult",
    "DataWarning",
    "DisagreementCell",
    "DisagreementTable",
    "DiscountFunction",
    "EstimationError",
    "GainScheme",
    "Judgment",
    "JudgmentPair",
    "JudgmentSet",
    "LevelSeries",
    "MetricError",
    "MetricReport",
    "PairingResult",
    "ParseError",
    "PrmError",
    "RelevanceScale",
    "RunEntry",
    "RunRanking",
    "SensitivityCurve",
    "SystemRanking",
    "UserModel",
    "ValidationError",
    "attach_resources",
    "bootstrap_topics",
    "cell_sigma",
    "count_binary",
    "count_prm",
    "dcg_from_levels",
    "estimate_one_sided",
    "estimate_symmetric",
    "expected_precision_report",
    "ideal_dcg_at_k",
    "kendall_tau",
    "ndcg_at_k",
    "pair_judgments",
    "parse_paired",
    "parse_qrels",
    "parse_run",
    "parse_scale",
    "quality_sensitivity",
    "robustness_study",
    "select_top_intent",
    "simulate_annotation_rounds",
    "stratified_estimate",
    "topic_dcg",
    "topic_expected_precision",
]
