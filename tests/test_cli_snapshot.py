"""Byte-level snapshots of every CLI command on the golden fixtures.

Each case runs in text, csv and json and must reproduce the stored
output in ``tests/snapshots/`` exactly.  A case uses ``scale.json``
unless it names its own ``--scale``.  A missing snapshot is written
and the test fails, so a new case is recorded by running the suite
twice; to re-record one on purpose, delete its file first.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import PAIR_TOPIC, U1_LABELS, U2_LABELS
from prmeval.cli import main

SNAPSHOTS = Path(__file__).with_name("snapshots")
FORMATS = {"text": "txt", "csv": "csv", "json": "json"}

RUNS = [arg for s in "abcd" for arg in ("--run", f"run_{s}.txt")]
TWO_QRELS = ["--qrels", "qrels_u1.txt", "--qrels2", "qrels_u2.txt"]

CASES = {
    "estimate_all_strata": [
        "estimate", "--pairs", "pairs2.txt", "--estimator", "all",
        "--strata", "strata.txt", "--theta", "2",
    ],
    "estimate_one_sided_override": [
        "estimate", *TWO_QRELS, "--estimator", "one-sided", "--condition", "u2",
        "--override-p0", "--theta", "1",
    ],
    "eval_all_measures_all_gains": [
        "eval", "--qrels", "qrels_u1.txt", "--pairs", "pairs2.txt", *RUNS,
        "--measures", "count-binary,count-prm,precision,ndcg",
        "--gains", "binary,linear,exponential,prm,udm,custom",
        "--custom-gains", "0,0.3,1", "--theta", "2", "--k", "10",
    ],
    "eval_table_zipf_run_pool": [
        "eval", "--qrels", "qrels_u1.txt", *RUNS, "--gains", "prm",
        "--table", "degenerate.json", "--discount", "zipf", "--ideal-pool", "run",
        "--k", "5",
    ],
    "eval_one_sided_udm": [
        "eval", *TWO_QRELS, *RUNS, "--measures", "ndcg,precision",
        "--gains", "udm", "--estimator", "one-sided", "--condition", "u2",
        "--log-base", "10", "--theta", "2", "--k", "8",
    ],
    "tau_prm": [
        "analyze", "tau", *TWO_QRELS, "--pairs", "pairs2.txt", *RUNS,
        "--gains", "prm", "--theta", "2", "--k", "10",
    ],
    "tau_binary_one_qrels": [
        "analyze", "tau", "--qrels", "qrels_u1.txt", *RUNS, "--tau-variant", "a",
        "--theta", "2", "--k", "5",
    ],
    "robustness": [
        "analyze", "robustness", *TWO_QRELS, *RUNS,
        "--gains", "binary,linear,exponential,prm,udm", "--theta", "2", "--k", "10",
    ],
    "bootstrap": [
        "analyze", "bootstrap", "--pairs", "pairs2.txt", "--theta", "2",
        "--seed", "42", "--resamples", "50",
    ],
    "bootstrap_one_sided": [
        "analyze", "bootstrap", "--pairs", "pairs2.txt", "--theta", "2",
        "--estimator", "one-sided", "--condition", "u2", "--seed", "7",
        "--resamples", "30",
    ],
    "budget": [
        "analyze", "budget", "--pairs", "pairs2.txt", "--theta", "2",
        "--seed", "42", "--budgets", "10,20,40", "--rounds", "20",
    ],
    "quality": [
        "analyze", "quality", "--qrels", "qrels_u1.txt", "--pairs", "pairs.txt",
        "--resource-regex", r"^d(\d)", "--theta", "2",
    ],
    "validate": [
        "validate", *TWO_QRELS, "--pairs", "pairs2.txt", *RUNS,
    ],
    # The top level of scale4.json has no pairs: undefined cells print as
    # "undef" in text and as empty fields in csv.
    "estimate_undefined_level": [
        "estimate", "--pairs", "pairs2.txt", "--scale", "scale4.json", "--theta", "2",
    ],
    "bootstrap_one_resample": [
        "analyze", "bootstrap", "--pairs", "pairs2.txt", "--scale", "scale4.json",
        "--theta", "2", "--seed", "3", "--resamples", "1",
    ],
    "budget_undefined_level": [
        "analyze", "budget", "--pairs", "pairs2.txt", "--scale", "scale4.json",
        "--theta", "2", "--seed", "5", "--budgets", "10,40", "--rounds", "5",
    ],
    "quality_undefined_level": [
        "analyze", "quality", "--qrels", "qrels_u1.txt", "--pairs", "pairs.txt",
        "--scale", "scale4.json", "--resource-regex", r"^d(\d)", "--theta", "2",
    ],
    # Every document of the second topic is judged non-relevant, so its
    # ideal DCG is 0 and the topic is excluded.
    "eval_zero_ideal_topic": [
        "eval", "--qrels", "qrels_zero.txt", *RUNS, "--gains", "binary,linear",
        "--theta", "2", "--k", "5",
    ],
}


# A second topic with the golden U1 labels and the U2 labels rotated by
# five documents, so that topics, strata and resamples differ.
TOPIC2 = "202"
U2_ROTATED = U2_LABELS[5:] + U2_LABELS[:5]


def _qrels(topic: str, labels: tuple[int, ...]) -> str:
    return "".join(f"{topic} 0 d{i} {lvl}\n" for i, lvl in enumerate(labels, start=1))


def _pairs(topic: str, u1: tuple[int, ...], u2: tuple[int, ...]) -> str:
    return "".join(
        f"{topic} d{i} {a} {b}\n" for i, (a, b) in enumerate(zip(u1, u2), start=1)
    )


def _run_file(system: str, by_topic: dict[str, list[str]]) -> str:
    return "".join(
        f"{topic} Q0 {doc} {rank} {float(100 - rank)} {system}\n"
        for topic, docs in by_topic.items()
        for rank, doc in enumerate(docs, start=1)
    )


@pytest.fixture()
def snapshot_dir(tmp_path, monkeypatch, scale3_json):
    """Two-topic golden collection and four runs, written to the cwd."""
    docs = [f"d{i}" for i in range(1, 21)]
    top = [doc for doc, lvl in zip(docs, U1_LABELS) if lvl == 2]
    perfect = top + [d for d in docs if d not in top]
    files = {
        "scale.json": scale3_json,
        "scale4.json": json.dumps({"labels": ["Non", "Rel", "HRel", "Key"]}),
        "qrels_u1.txt": _qrels(PAIR_TOPIC, U1_LABELS) + _qrels(TOPIC2, U1_LABELS),
        "qrels_u2.txt": _qrels(PAIR_TOPIC, U2_LABELS) + _qrels(TOPIC2, U2_ROTATED),
        "qrels_zero.txt": _qrels(PAIR_TOPIC, U1_LABELS) + _qrels(TOPIC2, (0,) * 20),
        "pairs.txt": _pairs(PAIR_TOPIC, U1_LABELS, U2_LABELS),
        "pairs2.txt": _pairs(PAIR_TOPIC, U1_LABELS, U2_LABELS)
        + _pairs(TOPIC2, U1_LABELS, U2_ROTATED),
        "strata.txt": f"{PAIR_TOPIC} easy\n{TOPIC2} hard\n",
        "run_a.txt": _run_file("sysA", {PAIR_TOPIC: perfect, TOPIC2: docs}),
        "run_b.txt": _run_file("sysB", {PAIR_TOPIC: perfect[::-1], TOPIC2: docs[::-1]}),
        # shallower, with an unjudged document, so the ideal pools differ
        "run_c.txt": _run_file(
            "sysC",
            {
                PAIR_TOPIC: docs[::2] + ["x1"] + docs[1::2],
                TOPIC2: (docs[1::2] + docs[::2])[:12],
            },
        ),
        "run_d.txt": _run_file(
            "sysD",
            {
                PAIR_TOPIC: [docs[(7 * i) % 20] for i in range(20)],
                TOPIC2: [docs[(3 * i + 5) % 20] for i in range(20)],
            },
        ),
        "degenerate.json": json.dumps(
            {
                "scale": {"labels": ["Non", "Rel", "HRel"]},
                "theta": 2,
                "estimator": "manual",
                "cells": [
                    {"level": 0, "p": 0.0},
                    {"level": 1, "p": 0.25},
                    {"level": 2, "p": 1.0},
                ],
            }
        ),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.filterwarnings("ignore::prmeval.errors.DataWarning")
@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_snapshot(capsys, snapshot_dir, case, fmt):
    scale = [] if "--scale" in CASES[case] else ["--scale", "scale.json"]
    code = main([*CASES[case], *scale, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    path = SNAPSHOTS / f"{case}.{FORMATS[fmt]}"
    if not path.exists():
        SNAPSHOTS.mkdir(exist_ok=True)
        path.write_bytes(captured.out.encode("utf-8"))
        pytest.fail(f"snapshot {path.name} was missing and has been written")
    assert captured.out.encode("utf-8") == path.read_bytes()
