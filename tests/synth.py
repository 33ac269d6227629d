"""Seeded generators for synthetic judgments, pairs, and runs, and
writers that serialize them back to the input formats.

All generators take an explicit seed and draw from numpy's default
generator, so every test using them is reproducible.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import IO

import numpy as np

from prmeval.corpus import (
    Judgment,
    JudgmentPair,
    JudgmentSet,
    RelevanceScale,
    RunEntry,
    RunRanking,
)

SCALE3 = RelevanceScale(("Non", "Rel", "HRel"))


def sample_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Draw one category per row of a row-stochastic matrix."""
    cum = np.cumsum(probs, axis=1)
    r = rng.random(probs.shape[0])
    return (r[:, None] > cum).sum(axis=1)


def latent_channel_pairs(
    prior: np.ndarray,
    channel: np.ndarray,
    n: int,
    seed: int,
    n_topics: int = 1,
) -> list[JudgmentPair]:
    """Pairs from a latent-level model: a true level z ~ prior, and two
    assessors labeling independently via the same channel row C[z]."""
    rng = np.random.default_rng(seed)
    z = rng.choice(len(prior), size=n, p=prior)
    u1 = sample_rows(rng, channel[z])
    u2 = sample_rows(rng, channel[z])
    return [
        JudgmentPair(f"t{i % n_topics:03d}", f"d{i:06d}", int(a), int(b))
        for i, (a, b) in enumerate(zip(u1, u2))
    ]


def true_one_sided(prior: np.ndarray, channel: np.ndarray, theta: int) -> np.ndarray:
    """Closed-form P(other assessor >= theta | this assessor = i) under the
    latent-channel model (both estimator directions coincide)."""
    p_rel_given_z = channel[:, theta:].sum(axis=1)
    p_i = prior @ channel
    joint = (prior * p_rel_given_z) @ channel
    return joint / p_i


def expected_level_counts(prior: np.ndarray, channel: np.ndarray, n: int) -> np.ndarray:
    """Expected number of pairs carrying each label for one assessor."""
    return n * (prior @ channel)


# -- robustness benchmark -------------------------------------------------
# A latent-channel collection with heavy disagreement at the top level
# (the channel keeps P(label 2 | other labeled 2) around 0.3), plus a
# ladder of systems whose ranking quality degrades with their noise.

ROBUST_PRIOR = np.array([0.60, 0.28, 0.12])
ROBUST_CHANNEL = np.array(
    [
        [0.88, 0.10, 0.02],
        [0.30, 0.55, 0.15],
        [0.08, 0.46, 0.46],
    ]
)
ROBUST_N_TOPICS = 24
ROBUST_N_DOCS = 40
ROBUST_N_SYSTEMS = 12
ROBUST_NOISE = np.linspace(0.4, 3.4, ROBUST_N_SYSTEMS)


def robustness_benchmark(
    seed: int,
) -> tuple[list[RunRanking], dict[str, dict[str, int]], dict[str, dict[str, int]], list[JudgmentPair]]:
    """Runs plus two independently assessed qrels over the same latent truth.

    Returns (runs, levels_u1, levels_u2, pairs); the pairs are the same
    documents' double judgments, for estimating the disagreement table.
    """
    rng = np.random.default_rng(seed)
    levels_u1: dict[str, dict[str, int]] = {}
    levels_u2: dict[str, dict[str, int]] = {}
    pairs: list[JudgmentPair] = []
    entries: dict[int, list[RunEntry]] = {s: [] for s in range(ROBUST_N_SYSTEMS)}
    for t in range(ROBUST_N_TOPICS):
        topic = f"t{t:03d}"
        z = rng.choice(3, size=ROBUST_N_DOCS, p=ROBUST_PRIOR)
        u1 = sample_rows(rng, ROBUST_CHANNEL[z])
        u2 = sample_rows(rng, ROBUST_CHANNEL[z])
        docs = [f"{topic}-d{d:03d}" for d in range(ROBUST_N_DOCS)]
        levels_u1[topic] = {doc: int(a) for doc, a in zip(docs, u1)}
        levels_u2[topic] = {doc: int(b) for doc, b in zip(docs, u2)}
        pairs.extend(
            JudgmentPair(topic, doc, int(a), int(b))
            for doc, a, b in zip(docs, u1, u2)
        )
        for s in range(ROBUST_N_SYSTEMS):
            scores = z + rng.normal(0.0, ROBUST_NOISE[s], size=ROBUST_N_DOCS)
            order = np.argsort(-scores, kind="stable")
            entries[s].extend(
                RunEntry(topic, docs[int(d)], rank, float(scores[int(d)]))
                for rank, d in enumerate(order, start=1)
            )
    runs = [
        RunRanking(f"sys{s:02d}", tuple(entries[s])) for s in range(ROBUST_N_SYSTEMS)
    ]
    return runs, levels_u1, levels_u2, pairs


# -- quality-sensitivity fixture ------------------------------------------
# Resources differ in a latent sub-grade inside the top level: top-ranked
# resources return "stronger" top-level documents, which a second assessor
# confirms more often.  The reference assessor only sees the 3-level
# scale, so the stratification is invisible in its labels.

def quality_fixture(
    seed: int,
    n_topics: int = 8,
    n_resources: int = 6,
    docs_per_resource: int = 10,
) -> tuple[JudgmentSet, list[JudgmentPair]]:
    rng = np.random.default_rng(seed)
    judgments: list[Judgment] = []
    resources: dict[str, str] = {}
    pairs: list[JudgmentPair] = []
    for t in range(n_topics):
        topic = f"t{t:03d}"
        for r in range(n_resources):
            resource = f"res{r:02d}"
            # better resources: more top-level docs, and more of those
            # are latently "strong"
            frac_top = 0.7 - 0.08 * r
            frac_strong = 0.9 - 0.12 * r
            for d in range(docs_per_resource):
                doc = f"{topic}-{resource}-d{d:02d}"
                roll = rng.random()
                if roll < frac_top:
                    u1 = 2
                    strong = rng.random() < frac_strong
                    p_confirm = 0.75 if strong else 0.25
                    u2 = 2 if rng.random() < p_confirm else 1
                elif roll < frac_top + 0.2:
                    u1 = 1
                    u2 = 1 if rng.random() < 0.5 else 0
                else:
                    u1 = 0
                    u2 = 0
                judgments.append(Judgment(topic, doc, u1))
                resources[doc] = resource
                pairs.append(JudgmentPair(topic, doc, u1, u2))
    return JudgmentSet(SCALE3, tuple(judgments), "ref", resources), pairs


# -- randomized evaluation fixtures ----------------------------------------

def random_eval_fixture(
    seed: int,
) -> tuple[RunRanking, dict[str, dict[str, int]], RelevanceScale, int]:
    """A random run plus judged levels, for metric equivalence sweeps."""
    rng = np.random.default_rng(seed)
    top = int(rng.integers(2, 5))
    scale = RelevanceScale(tuple(f"L{i}" for i in range(top + 1)))
    theta = int(rng.integers(1, top + 1))
    n_topics = int(rng.integers(2, 6))
    levels: dict[str, dict[str, int]] = {}
    entries: list[RunEntry] = []
    for t in range(n_topics):
        topic = f"t{t:02d}"
        n_judged = int(rng.integers(5, 25))
        levels[topic] = {
            f"{topic}-d{d:03d}": int(rng.integers(0, top + 1)) for d in range(n_judged)
        }
        n_unjudged = int(rng.integers(0, 6))
        docs = list(levels[topic]) + [f"{topic}-u{u:03d}" for u in range(n_unjudged)]
        rng.shuffle(docs)
        n_retrieved = int(rng.integers(3, len(docs) + 1))
        entries.extend(
            RunEntry(topic, doc, rank, float(len(docs) - rank))
            for rank, doc in enumerate(docs[:n_retrieved], start=1)
        )
    run = RunRanking("rnd", tuple(entries))
    return run, levels, scale, theta


def write_qrels(judgments: JudgmentSet, stream: IO[str]) -> None:
    """Serialize to qrels lines; the ignored iteration field is written as
    the intent id when present and ``0`` otherwise."""
    for j in judgments.judgments:
        second = j.intent_id if j.intent_id is not None else "0"
        stream.write(f"{j.topic_id} {second} {j.doc_id} {j.level}\n")


def write_paired(pairs: Sequence[JudgmentPair], stream: IO[str]) -> None:
    for p in pairs:
        stream.write(f"{p.topic_id} {p.doc_id} {p.level_u1} {p.level_u2}\n")


def write_run(run: RunRanking, stream: IO[str]) -> None:
    for e in run.entries:
        stream.write(
            f"{e.topic_id} Q0 {e.doc_id} {e.rank} {e.score!r} {run.system_id}\n"
        )
