"""A reference for the numbers that ``estimate``, ``eval``, ``analyze tau``
and ``analyze robustness`` print with ``--format json``.

Everything here is computed afresh from the input files' text, with plain loops
over ``line.split()`` and the formulas of the README (the ones that
``prmeval --help`` lists), and nothing is imported from prmeval: no block
readers, level pools, histograms or caches.  Each function takes the
command's options as Python values and returns the part of the json
payload that holds numbers, in the payload's own shape.

Where the formulas give no value, a function raises :class:`Undefined`
and the command must fail: a gain or count that reads a p(R|i) with no
pairs behind it, udm gains from a table not thresholded at the top level,
a ``--theta`` that is not the ``--table`` file's, a run with no judged
topic or with an unjudged one under ``--strict``, a measure whose every
topic has zero ideal DCG, and a tau-b over a ranking that is all ties.
"""

from __future__ import annotations

import json
import math


class Undefined(Exception):
    """The paper's formulas give no value for these inputs."""


# -- input files --------------------------------------------------------------

def records(text: str) -> list[list[str]]:
    """The fields of each line that is neither blank nor a comment."""
    return [f for f in map(str.split, text.splitlines()) if f and not f[0].startswith("#")]


def read_qrels(text: str) -> dict[str, dict[str, int]]:
    """topic -> {doc: level} of ``topic iteration doc level`` lines; a
    negative level counts as 0."""
    judged: dict[str, dict[str, int]] = {}
    for topic, _, doc, level in records(text):
        judged.setdefault(topic, {})[doc] = max(int(level), 0)
    return judged


def read_pairs(text: str) -> list[tuple[int, int]]:
    """(U1 level, U2 level) of each ``topic doc level_u1 level_u2`` line."""
    return [(int(a), int(b)) for _, _, a, b in records(text)]


def overlap(u1: dict[str, dict[str, int]], u2: dict[str, dict[str, int]]) -> list[tuple[int, int]]:
    """(U1 level, U2 level) of each document that both groups judged."""
    return [(levels[doc], u2[topic][doc])
            for topic, levels in u1.items() if topic in u2
            for doc in levels if doc in u2[topic]]


def read_run(text: str) -> tuple[str, dict[str, list[str]]]:
    """The system id of a ``topic Q0 doc rank score system`` file and each
    topic's documents in rank order."""
    ranked: dict[str, list[tuple[int, str]]] = {}
    system = ""
    for topic, _, doc, rank, _, system in records(text):
        ranked.setdefault(topic, []).append((int(rank), doc))
    return system, {topic: [doc for _, doc in sorted(rows)] for topic, rows in ranked.items()}


# -- the table p(R|i) -----------------------------------------------------------

def estimated_table(pairs, top: int, theta: int, estimator: str = "symmetric",
                    condition: str = "u1", override_p0: bool = False) -> dict:
    """One estimator's table.  One-sided on U1 reads, for each pair whose
    U1 label is i, whether U2 is relevant; on U2 the roles swap; symmetric
    reads each pair both ways:
        p(R|i) = [N(U1 rel. & U2 = i) + N(U2 rel. & U1 = i)] / [N(U2 = i) + N(U1 = i)]
    with sigma = sqrt(p (1 - p) / N_D)."""
    if estimator == "symmetric":
        readings = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
    elif condition == "u1":
        readings = list(pairs)
    else:
        readings = [(b, a) for a, b in pairs]
    cells = []
    for level in range(top + 1):
        n_total = n_match = 0
        for given, other in readings:
            if given == level:
                n_total += 1
                n_match += other >= theta
        p = n_match / n_total if n_total else None
        sigma = math.sqrt(p * (1 - p) / n_total) if n_total else None
        cells.append({"level": level, "n_match": n_match, "n_total": n_total,
                      "p": p, "sigma": sigma, "source": "estimated"})
    table = {"theta": theta, "scale": {"top_index": top}, "cells": cells,
             "estimator": estimator.replace("-", "_"),
             "condition": None if estimator == "symmetric" else condition}
    return pinned(table) if override_p0 else table


def pinned(table: dict) -> dict:
    """``--override-p0``: p(R|0) is exactly 0 and has no sigma."""
    cells = [dict(table["cells"][0], p=0.0, sigma=None, source="override"), *table["cells"][1:]]
    return dict(table, cells=cells)


def file_table(text: str, theta: int | None, override_p0: bool = False) -> dict:
    """A ``--table`` file; a ``--theta`` other than its own is an error."""
    obj = json.loads(text)
    if theta is not None and theta != obj["theta"]:
        raise Undefined(f"--theta {theta} beside a theta-{obj['theta']} table")
    cells = sorted(obj["cells"], key=lambda c: c["level"])
    table = {"theta": obj["theta"], "cells": [{"p": c.get("p")} for c in cells]}
    return pinned(table) if override_p0 else table


def p(table: dict, level: int) -> float:
    value = table["cells"][level]["p"]
    if value is None:
        raise Undefined(f"p(R|{level}) has no pairs")
    return value


def estimate(pairs, top: int, theta: int | None = None, estimator: str = "symmetric",
             condition: str = "u1", override_p0: bool = False) -> dict:
    """``estimate``: one table per estimator, or all three for ``all``."""
    theta = top if theta is None else theta
    if estimator == "all":
        variants = [("symmetric", "symmetric", condition),
                    ("one_sided_u1", "one-sided", "u1"), ("one_sided_u2", "one-sided", "u2")]
    elif estimator == "symmetric":
        variants = [("symmetric", estimator, condition)]
    else:
        variants = [(f"one_sided_{condition}", estimator, condition)]
    return {"all": {name: estimated_table(pairs, top, theta, est, cond, override_p0)
                    for name, est, cond in variants}}


# -- gains, DCG and reports -------------------------------------------------------

def gain_vector(name: str, top: int, theta: int, table: dict | None,
                custom: list[float] | None = None) -> list[float]:
    """g(0..T): binary 1 at or above theta, linear i, exponential 2^i - 1,
    prm p(R|i), udm 0 at level 0, 1 at the top and p(R|i) between."""
    if name == "binary":
        return [1.0 if i >= theta else 0.0 for i in range(top + 1)]
    if name == "linear":
        return [float(i) for i in range(top + 1)]
    if name == "exponential":
        return [2.0 ** i - 1 for i in range(top + 1)]
    if name == "prm":
        return [p(table, i) for i in range(top + 1)]
    if name == "udm":
        if table["theta"] != top:
            raise Undefined("udm gains need a table thresholded at the top level")
        return [0.0, *(p(table, i) for i in range(1, top)), 1.0]
    return list(custom)


def dcg(gains: list[float], base: float | None) -> float:
    """sum over ranks r of g * c(r), from rank 1 down; c(r) = 1/log_b(r+1),
    or 1/r for zipf (``base`` None)."""
    total = 0.0
    for r, g in enumerate(gains, start=1):
        total += g * (1.0 / r if base is None else math.log(base) / math.log(r + 1))
    return total


def report(measure: str, k: int | None, values: dict[str, float], excluded=()) -> dict:
    """A report's numbers: the per-topic values, their mean and the
    standard error of the mean (sample variance, none for one topic)."""
    n = len(values)
    if not n:
        raise Undefined(f"{measure}: no topic has a value")
    mean = math.fsum(values.values()) / n
    stderr = (math.sqrt(math.fsum((v - mean) ** 2 for v in values.values()) / (n - 1))
              / math.sqrt(n) if n > 1 else None)
    return {"measure": measure, "k": k, "per_topic": values, "mean": mean,
            "stderr_of_mean": stderr, "n_topics": n, "excluded_topics": sorted(excluded)}


def scored_topics(ranked: dict[str, list[str]], judged: dict, strict: bool) -> list[str]:
    """A run's topics that have judgments; an unjudged one fails ``--strict``."""
    unjudged = [t for t in ranked if t not in judged]
    if unjudged and strict:
        raise Undefined(f"unjudged topics {unjudged} under --strict")
    topics = sorted(t for t in ranked if t in judged)
    if not topics:
        raise Undefined("no run topic has judgments")
    return topics


def ndcg(ranked, judged, gains, k, base, ideal_pool, strict, label) -> dict:
    """nDCG@k per topic.  Unjudged documents count as level 0.  The ideal
    ranking sorts the pool by falling gain: the topic's judged documents
    plus the unjudged ones the run retrieved, or with ``ideal_pool="run"``
    the run's own documents.  A topic with zero ideal DCG is excluded."""
    values, excluded = {}, []
    for topic in scored_topics(ranked, judged, strict):
        levels, docs = judged[topic], ranked[topic]
        if ideal_pool == "qrels":
            pool = list(levels.values()) + [0 for doc in docs if doc not in levels]
        else:
            pool = [levels.get(doc, 0) for doc in docs]
        ideal = dcg(sorted((gains[i] for i in pool), reverse=True)[:k], base)
        if ideal == 0.0:
            excluded.append(topic)
        else:
            values[topic] = dcg([gains[levels.get(doc, 0)] for doc in docs[:k]], base) / ideal
    return report(label, k, values, excluded)


def expected_count(levels, table: dict) -> float:
    """sum over i of n_i * p(R|i), levels in ascending order."""
    total = 0.0
    for level in sorted(set(levels)):
        total += levels.count(level) * p(table, level)
    return total


def evaluate(judged, runs, top: int, *, measures, gains=("binary",), table=None,
             theta: int | None = None, k: int = 10, base: float | None = 2.0,
             ideal_pool: str = "qrels", strict: bool = False, custom=None) -> dict:
    """``eval``: the pool counts per judged topic, and per run expected
    precision@k (the expected count of the top k, over k) and nDCG@k for
    each gain scheme.  Binary gains and count-binary read ``--theta``, else
    the table's theta, else the top level."""
    theta = theta if theta is not None else table["theta"] if table else top
    pool = {}
    if "count-binary" in measures:
        pool["count_binary"] = report("count_binary", None, {
            t: float(sum(level >= theta for level in levels.values()))
            for t, levels in judged.items()})
    if "count-prm" in measures:
        pool["count_prm"] = report("count_prm", None, {
            t: expected_count(list(levels.values()), table) for t, levels in judged.items()})
    schemes = ({name: gain_vector(name, top, theta, table, custom) for name in gains}
               if "ndcg" in measures else {})
    systems = {}
    for system, ranked in runs:
        reports = systems[system] = {}
        if "precision" in measures:
            topics = scored_topics(ranked, judged, strict)
            reports[f"expected_precision@{k}"] = report("expected_precision", k, {
                t: expected_count([judged[t].get(doc, 0) for doc in ranked[t][:k]], table) / k
                for t in topics})
        for name, vector in schemes.items():
            label = "ndcg" if len(schemes) == 1 else f"ndcg_{name}"
            reports[f"{label}@{k}"] = ndcg(ranked, judged, vector, k, base, ideal_pool,
                                           strict, label)
    return {"pool": pool, "systems": systems}


# -- system rankings ------------------------------------------------------------------

def ranking(runs, judged, gains, k, base, ideal_pool, strict) -> list[list]:
    """[system, mean nDCG@k] by falling mean, ties by system id."""
    means = {system: ndcg(ranked, judged, gains, k, base, ideal_pool, strict, "")["mean"]
             for system, ranked in runs}
    return [[s, m] for s, m in sorted(means.items(), key=lambda sm: (-sm[1], sm[0]))]


def kendall(a: list[list], b: list[list], variant: str) -> float:
    """Kendall's tau between two rankings of the same systems: concordant
    minus discordant pairs (a tie on either side is neither), over the
    number of pairs (a) or over sqrt of the untied pairs on each side (b)."""
    x, y = dict(a), dict(b)
    systems = sorted(x)
    n0 = ties_x = ties_y = score = 0
    for i, s in enumerate(systems):
        for t in systems[i + 1:]:
            n0 += 1
            ties_x += x[s] == x[t]
            ties_y += y[s] == y[t]
            score += ((x[s] > x[t]) - (x[s] < x[t])) * ((y[s] > y[t]) - (y[s] < y[t]))
    if variant == "a":
        return score / n0
    if ties_x == n0 or ties_y == n0:
        raise Undefined("tau-b of a ranking that is all ties")
    return score / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def rankings(judged_u1, judged_u2, runs, top, gains, *, table=None, theta=None, k=10,
             base=2.0, ideal_pool="qrels", strict=False, custom=None):
    """Each scheme's ranking against each group (one group without
    ``judged_u2``); every scheme is scored, for every run and group."""
    theta = theta if theta is not None else table["theta"] if table else top
    groups = [judged_u1] if judged_u2 is None else [judged_u1, judged_u2]
    vectors = {name: gain_vector(name, top, theta, table, custom) for name in gains}
    return {name: [ranking(runs, judged, vector, k, base, ideal_pool, strict)
                   for judged in groups] for name, vector in vectors.items()}


def tau(judged_u1, judged_u2, runs, top, gain, variant="b", **options) -> dict:
    """``analyze tau``: Kendall's tau between the rankings by mean nDCG@k
    against the two groups; without a second group, of the one ranking
    with itself."""
    ranks = rankings(judged_u1, judged_u2, runs, top, [gain], **options)[gain]
    return {"tau": kendall(ranks[0], ranks[-1], variant), "variant": variant,
            "ranking_u1": ranks[0], "ranking_u2": ranks[-1]}


def robustness(judged_u1, judged_u2, runs, top, gains, variant="b", **options) -> dict:
    """``analyze robustness``: tau between the two groups per gain scheme."""
    ranks = rankings(judged_u1, judged_u2, runs, top, gains, **options)
    return {"tau": {name: kendall(r[0], r[1], variant) for name, r in ranks.items()},
            "variant": variant, "k": options.get("k", 10)}
