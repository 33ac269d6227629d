"""Seeded input collections for the benchmark workloads.

Every workload is drawn from the latent-channel assessor model used by
the test suite (``tests/synth.py``): each document has a true level
``z ~ PRIOR`` and every assessor labels it independently through the
channel row ``CHANNEL[z]``.  Runs rank a topic's documents by
``z + noise``, so systems with less noise rank better.

``write_inputs(collection, seed, out_dir)`` writes the files and returns
a description of them; the same ``(collection, seed, half)`` always
gives byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

PRIOR = np.array([0.60, 0.28, 0.12])
CHANNEL = np.array(
    [
        [0.88, 0.10, 0.02],
        [0.30, 0.55, 0.15],
        [0.08, 0.46, 0.46],
    ]
)
LABELS = ("Non", "Rel", "HRel")
THETA = 2  # udm gains need a table thresholded at the top level
SCALE = {"levels": {str(i): lbl for i, lbl in enumerate(LABELS)}}

# Full sizes; the scaling probe halves the dimension named in HALVED.
SIZES = {
    "trec-eval": {"topics": 100, "depth": 1000, "runs": 2, "judged": 300, "pool": 1500},
    "resampling": {"topics": 100, "resources": 10, "docs_per_resource": 30, "strata": 4},
    "assessor-robustness": {"topics": 50, "depth": 300, "runs": 8, "judged": 200, "pool": 400},
}
HALVED = {"trec-eval": "topics", "resampling": "docs_per_resource", "assessor-robustness": "topics"}
_SALT = {"trec-eval": 1, "resampling": 2, "assessor-robustness": 3}

RESOURCE_REGEX = "^p[0-9]+-(r[0-9]+)"


def sizes(collection: str, half: bool = False) -> dict[str, int]:
    out = dict(SIZES[collection])
    if half:
        out[HALVED[collection]] //= 2
    return out


def sample_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """Draw one category per row of a row-stochastic matrix."""
    cum = np.cumsum(probs, axis=1)
    r = rng.random(probs.shape[0])
    return (r[:, None] > cum).sum(axis=1)


def symmetric_counts(u1: np.ndarray, u2: np.ndarray, theta: int = THETA) -> list[tuple[int, int]]:
    """(n_match, n_total) per level of the symmetric estimator."""
    n = len(LABELS)
    totals = np.bincount(u1, minlength=n) + np.bincount(u2, minlength=n)
    matches = np.bincount(u1[u2 >= theta], minlength=n) + np.bincount(
        u2[u1 >= theta], minlength=n
    )
    return [(int(m), int(t)) for m, t in zip(matches, totals)]


def table_json(counts: list[tuple[int, int]], theta: int = THETA) -> dict:
    cells = []
    for level, (m, t) in enumerate(counts):
        p = m / t if t else None
        sigma = (p * (1.0 - p) / t) ** 0.5 if t else None
        cells.append({"level": level, "n_match": m, "n_total": t, "p": p, "sigma": sigma})
    return {
        "scale": SCALE,
        "theta": theta,
        "estimator": "symmetric",
        "condition": None,
        "cells": cells,
    }


def _ranked(
    rng: np.random.Generator, z: np.ndarray, noise: np.ndarray, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per system and topic, the pool indices of the top ``depth`` docs
    by ``z + noise`` and their scores, best first."""
    scores = z[None, :, :] + rng.normal(size=(len(noise),) + z.shape) * noise[:, None, None]
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :depth]
    return order, np.take_along_axis(scores, order, axis=-1)


def _run_text(system: str, topics: list[str], docs: list[list[str]], order, scores) -> str:
    return "".join(
        f"{topic} Q0 {pool[d]} {rank} {s:.4f} {system}\n"
        for topic, pool, row, srow in zip(topics, docs, order.tolist(), scores.tolist())
        for rank, (d, s) in enumerate(zip(row, srow), start=1)
    )


def _qrels_text(topics: list[str], docs: list[list[str]], levels: np.ndarray) -> str:
    return "".join(
        f"{topic} 0 {doc} {lvl}\n"
        for topic, pool, row in zip(topics, docs, levels.tolist())
        for doc, lvl in zip(pool, row)
    )


def _ranking_collection(rng, n: dict, noise: np.ndarray):
    """Topics, doc ids, latent levels, one assessor's labels of the judged
    docs, and every system's ranking."""
    topics = [f"t{t:03d}" for t in range(n["topics"])]
    docs = [[f"{topic}-d{d:04d}" for d in range(n["pool"])] for topic in topics]
    z = rng.choice(len(PRIOR), size=(n["topics"], n["pool"]), p=PRIOR)
    judged = z[:, : n["judged"]]
    u1 = sample_rows(rng, CHANNEL[judged.ravel()]).reshape(judged.shape)
    order, scores = _ranked(rng, z, noise, n["depth"])
    return topics, docs, judged, u1, order, scores


def _write(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _trec_eval(rng, n: dict, out_dir: str) -> dict:
    noise = np.linspace(0.6, 2.4, n["runs"])
    topics, docs, judged, u1, order, scores = _ranking_collection(rng, n, noise)
    # the prm table comes from a second assessor over the same judged docs
    u2 = sample_rows(rng, CHANNEL[judged.ravel()]).reshape(judged.shape)
    counts = symmetric_counts(u1.ravel(), u2.ravel())
    _write(out_dir, "qrels.txt", _qrels_text(topics, [p[: n["judged"]] for p in docs], u1))
    _write(out_dir, "table.json", json.dumps(table_json(counts), sort_keys=True) + "\n")
    runs = []
    for s in range(n["runs"]):
        name = f"run{s:02d}.txt"
        _write(out_dir, name, _run_text(f"sys{s:02d}", topics, docs, order[s], scores[s]))
        runs.append(name)
    hist = [np.bincount(row, minlength=len(LABELS)).tolist() for row in u1]
    return {
        "runs": runs,
        "topics": topics,
        "qrels_hist": dict(zip(topics, hist)),
        "table_counts": counts,
    }


def _assessor_robustness(rng, n: dict, out_dir: str) -> dict:
    noise = np.linspace(0.4, 3.4, n["runs"])
    topics, docs, judged, u1, order, scores = _ranking_collection(rng, n, noise)
    u2 = sample_rows(rng, CHANNEL[judged.ravel()]).reshape(judged.shape)
    judged_docs = [p[: n["judged"]] for p in docs]
    _write(out_dir, "qrels_u1.txt", _qrels_text(topics, judged_docs, u1))
    _write(out_dir, "qrels_u2.txt", _qrels_text(topics, judged_docs, u2))
    runs = []
    for s in range(n["runs"]):
        name = f"run{s:02d}.txt"
        _write(out_dir, name, _run_text(f"sys{s:02d}", topics, docs, order[s], scores[s]))
        runs.append(name)
    return {"runs": runs, "topics": topics}


def _resampling(rng, n: dict, out_dir: str) -> dict:
    # Resource r returns top-level documents less often as r grows, so the
    # quality sweep has an ordering to find.
    weights = np.array([[1.0, 1.0, 2.0 - 0.15 * r] for r in range(n["resources"])])
    priors = PRIOR * weights
    priors /= priors.sum(axis=1, keepdims=True)
    per_topic = n["resources"] * n["docs_per_resource"]
    resource = np.repeat(np.arange(n["resources"]), n["docs_per_resource"])
    z = sample_rows(rng, np.tile(priors[resource], (n["topics"], 1)))
    u1 = sample_rows(rng, CHANNEL[z])
    u2 = sample_rows(rng, CHANNEL[z])
    topics = [f"t{t:03d}" for t in range(n["topics"])]
    docs = [
        f"p{t:03d}-r{resource[i]:02d}-d{i:03d}"
        for t in range(n["topics"])
        for i in range(per_topic)
    ]
    topic_of = [topics[i // per_topic] for i in range(len(docs))]
    l1, l2 = u1.tolist(), u2.tolist()
    _write(out_dir, "pairs.txt", "".join(
        f"{t} {d} {a} {b}\n" for t, d, a, b in zip(topic_of, docs, l1, l2)
    ))
    _write(out_dir, "qrels_u1.txt", "".join(
        f"{t} 0 {d} {a}\n" for t, d, a in zip(topic_of, docs, l1)
    ))
    stratum_of = {topic: f"s{i % n['strata']}" for i, topic in enumerate(topics)}
    _write(out_dir, "strata.txt", "".join(f"{t} {s}\n" for t, s in stratum_of.items()))
    stratum = np.array([i // per_topic % n["strata"] for i in range(len(docs))])
    return {
        "pairs": len(docs),
        "topics": topics,
        "table_counts": symmetric_counts(u1, u2),
        "strata_counts": {
            f"s{s}": symmetric_counts(u1[stratum == s], u2[stratum == s])
            for s in range(n["strata"])
        },
    }


_WRITERS = {
    "trec-eval": _trec_eval,
    "resampling": _resampling,
    "assessor-robustness": _assessor_robustness,
}


def write_inputs(collection: str, seed: int, out_dir: str, half: bool = False) -> dict:
    """Write one collection's input files into ``out_dir``.

    Returns what the output checks need to know about the inputs: file
    names, topic ids and the symmetric counts the table must show.
    """
    os.makedirs(out_dir, exist_ok=True)
    _write(out_dir, "scale.json", json.dumps(SCALE) + "\n")
    rng = np.random.default_rng([seed, _SALT[collection], int(half)])
    info = _WRITERS[collection](rng, sizes(collection, half), out_dir)
    info["sizes"] = sizes(collection, half)
    return info
