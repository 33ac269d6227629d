"""Random input lines through every command of the CLI, in every format.

Each example writes qrels, pairs and run files whose lines mix valid
records with blank lines, ``#`` comments, tabs, CRLF endings, wrong field
counts, non-integers and commas.  Every command must then exit 0, 1 or 2
without raising; stderr holds only ``error:``, ``io error:`` and
``warning:`` lines; and a successful json or csv output is well formed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from prmeval.cli import main

TOPIC_IDS = ["201", "202", "t,1"]
DOC_IDS = ["d1", "d2", "d3", "d4", "x9"]
TOPICS, DOCS = st.sampled_from(TOPIC_IDS), st.sampled_from(DOC_IDS)
LEVELS = st.sampled_from(["0", "1", "2"])
# a line of 1-7 random fields: wrong counts, non-integers, stray commas
NOISE = st.lists(
    st.text(alphabet="0123456789dxQ.,-#", min_size=1, max_size=4), min_size=1, max_size=7
)


def _join(parts) -> str:
    records, extras, noise, at, sep, eol = parts
    lines = list(records)
    for i, extra in extras:
        lines.insert(i, extra)
    if noise is not None:
        lines.insert(at, noise)
    return "".join(sep.join(fields) + eol for fields in lines)


def _file(records):
    """Valid records with blank and comment lines and, in about a quarter
    of the files, one random line; fields split by spaces or tabs, lines
    ended by LF or CRLF."""
    return st.tuples(
        records,
        st.lists(st.tuples(st.integers(0, 12), st.sampled_from([[], ["#", "x"]])), max_size=3),
        st.one_of(st.none(), st.none(), st.none(), NOISE),
        st.integers(0, 12),
        st.sampled_from([" ", "\t"]),
        st.sampled_from(["\n", "\r\n"]),
    ).map(_join)


# every (topic, doc) judged once, in random order, so that the quality
# sweep finds each pair's document among the reference judgments
GRID = [(topic, doc) for topic in TOPIC_IDS for doc in DOC_IDS]
QRELS = _file(
    st.tuples(st.permutations(GRID), st.lists(LEVELS, min_size=len(GRID), max_size=len(GRID)))
    .map(lambda t: [[topic, "0", doc, level] for (topic, doc), level in zip(*t)])
)
PAIRS = _file(
    st.lists(st.tuples(TOPICS, DOCS, LEVELS, LEVELS).map(list), min_size=2, max_size=12)
)


def _run(system):
    return _file(
        st.dictionaries(TOPICS, st.lists(DOCS, min_size=1, unique=True), min_size=1).map(
            lambda ranked: [
                [topic, "Q0", doc, str(rank), str(10.0 - rank), system]
                for topic, docs in ranked.items()
                for rank, doc in enumerate(docs, start=1)
            ]
        )
    )


INPUTS = st.fixed_dictionaries({
    "qrels1.txt": QRELS,
    "qrels2.txt": QRELS,
    "pairs.txt": PAIRS,
    "run1.txt": _run("sA"),
    "run2.txt": _run("sB"),
})

TWO_QRELS = ["--qrels", "qrels1.txt", "--qrels2", "qrels2.txt"]
RUNS = ["--run", "run1.txt", "--run", "run2.txt"]
THETA = ["--theta", "1"]
COMMANDS = [
    ["estimate", "--pairs", "pairs.txt", "--estimator", "all", *THETA],
    ["eval", "--qrels", "qrels1.txt", "--pairs", "pairs.txt", *RUNS, "--k", "3",
     "--measures", "count-binary,count-prm,precision,ndcg", "--gains", "linear,prm", *THETA],
    ["validate", *TWO_QRELS, "--pairs", "pairs.txt", *RUNS],
    ["analyze", "tau", *TWO_QRELS, *RUNS, "--gains", "linear", *THETA],
    ["analyze", "robustness", *TWO_QRELS, *RUNS, "--gains", "binary,linear", *THETA],
    ["analyze", "bootstrap", "--pairs", "pairs.txt", "--seed", "1", "--resamples", "3", *THETA],
    ["analyze", "budget", "--pairs", "pairs.txt", "--seed", "1", "--budgets", "2,4",
     "--rounds", "2", *THETA],
    ["analyze", "quality", "--qrels", "qrels1.txt", "--pairs", "pairs.txt",
     "--resource-regex", r"(\d)$", *THETA],
]
SCALE = '{"labels": ["Non", "Rel", "HRel"]}'


def _show(message, category, filename, lineno, file=None, line=None):
    # prints through the formatter that main() installs, as the default would
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = _show
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=25, deadline=None)
@given(INPUTS)
def test_every_command_and_format_survives_random_lines(files):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        for name, text in {**files, "scale.json": SCALE}.items():
            with open(os.path.join(d, name), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        os.chdir(d)
        try:
            for command in COMMANDS:
                for fmt in ("text", "csv", "json"):
                    argv = [*command, "--scale", "scale.json", "--format", fmt]
                    code, out, err = _run_main(argv)
                    assert code in (0, 1, 2), argv
                    for line in err.splitlines():
                        assert line.startswith(("error:", "io error:", "warning:")), (argv, line)
                    if code != 0:
                        assert out == "", argv
                    elif fmt == "json":
                        json.loads(out)
                    elif fmt == "csv":
                        rows = list(csv.reader(io.StringIO(out)))
                        assert all(len(row) == len(rows[0]) for row in rows), argv
        finally:
            os.chdir(cwd)
