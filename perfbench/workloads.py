"""The workloads: which input collections they use and which commands
they run on each, as a user would type them.

Every argv runs in the directory that holds its collection's inputs, so
file names are relative.  A command's name is the subcommand, or the
analysis kind for ``analyze``; ``cli.<name>`` is its span in the trace.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import gen
from gen import RESOURCE_REGEX, THETA

# Two workloads, so that each run can measure long enough to be steady on
# a shared machine.  "scoring" parses runs and scores them (the metrics
# path); "resampling" scores no run and re-estimates tables (the
# disagreement path).
WORKLOADS = {
    "scoring": ("trec-eval", "assessor-robustness"),
    "resampling": ("resampling",),
}


class Command(NamedTuple):
    name: str
    cwd: str
    argv: list[str]
    info: dict  # what the generator knows about the inputs, for the checks


def prepare(workload: str, seed: int, root: str, half: bool = False) -> list[Command]:
    """Write the workload's inputs under ``root``; return its commands."""
    out = []
    for collection in WORKLOADS[workload]:
        d = os.path.join(root, collection)
        info = gen.write_inputs(collection, seed, d, half)
        out += [Command(name, d, argv, info) for name, argv in commands(collection, info, seed)]
    return out


def commands(collection: str, info: dict, seed: int) -> list[tuple[str, list[str]]]:
    theta = ["--theta", str(THETA)]
    if collection == "trec-eval":
        runs = [a for r in info["runs"] for a in ("--run", r)]
        return [
            ("validate", ["validate", "--scale", "scale.json", "--qrels", "qrels.txt", *runs]),
            ("eval", [
                "eval", "--scale", "scale.json", "--qrels", "qrels.txt", *runs,
                "--measures", "ndcg,precision,count-prm",
                "--gains", "binary,linear,exponential,prm",
                "--table", "table.json", "--k", "10", *theta, "--format", "csv",
            ]),
        ]
    if collection == "resampling":
        pairs = ["--scale", "scale.json", "--pairs", "pairs.txt", *theta, "--format", "json"]
        return [
            ("estimate", ["estimate", *pairs, "--estimator", "all", "--strata", "strata.txt"]),
            ("bootstrap", [
                "analyze", "bootstrap", *pairs, "--resamples", "100", "--seed", str(seed),
            ]),
            ("budget", [
                "analyze", "budget", *pairs, "--budgets", "1000,3000,10000,30000",
                "--rounds", "20", "--seed", str(seed),
            ]),
            ("quality", [
                "analyze", "quality", *pairs, "--qrels", "qrels_u1.txt",
                "--resource-regex", RESOURCE_REGEX,
            ]),
        ]
    if collection == "assessor-robustness":
        runs = [a for r in info["runs"] for a in ("--run", r)]
        # --k 20 on both, so that tau must equal robustness' prm entry
        both = [
            "--scale", "scale.json", "--qrels", "qrels_u1.txt", "--qrels2", "qrels_u2.txt",
            *runs, "--k", "20", *theta, "--format", "json",
        ]
        return [
            ("robustness", [
                "analyze", "robustness", *both, "--gains", "binary,linear,exponential,prm,udm",
            ]),
            ("tau", ["analyze", "tau", *both, "--gains", "prm"]),
        ]
    raise ValueError(f"unknown collection {collection!r}")
