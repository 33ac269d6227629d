"""Random input lines through every command of the CLI, in every format.

Each example writes qrels, pairs and run files whose lines mix valid
records with blank lines, ``#`` comments, tabs, CRLF endings, wrong field
counts, non-integers and commas.  They also hold what the one-pass
reader of qrels and pairs must reject: NUL tokens, blanks that end no
line (``\\x0b``, ``\\x85``, ``\\u2028``) and a line a field long next to
one a field short.  Every command must then exit 0, 1 or 2
without raising; stderr holds only ``error:``, ``io error:`` and
``warning:`` lines; and a successful json or csv output is well formed.
On valid records alone every command succeeds.
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

from hypothesis import example, given, settings, target
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


def _join(parts, hazard=None) -> str:
    records, extras, noise, at, sep, eol = parts
    lines = [list(fields) for fields in records]
    if hazard is not None:
        kind, i = hazard
        if kind == "nul":
            lines.insert(i, ["\x00"])
        elif i + 1 < len(lines):
            # one line a field long and the next a field short: the file
            # still holds as many fields as its lines should
            lines[i].append(lines[i + 1].pop(0))
    for i, extra in extras:
        lines.insert(i, extra)
    if noise is not None:
        lines.insert(at, noise)
    return "".join(sep.join(fields) + eol for fields in lines)


def _file(records):
    """Valid records with blank and comment lines (some holding a NUL)
    and, in about a quarter of the files, one random line; fields split
    by spaces, tabs or other blanks, lines ended by LF or CRLF."""
    return st.tuples(
        records,
        st.lists(
            st.tuples(st.integers(0, 12), st.sampled_from([[], ["#", "x"], ["#", "\x00"]])),
            max_size=3,
        ),
        st.one_of(st.none(), st.none(), st.none(), NOISE),
        st.integers(0, 12),
        st.sampled_from([" ", "\t", "\x0b", "\x85", "\u2028"]),
        st.sampled_from(["\n", "\r\n"]),
    )


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


FILES = {
    "qrels1.txt": QRELS,
    "qrels2.txt": QRELS,
    "pairs.txt": PAIRS,
    "run1.txt": _run("sA"),
    "run2.txt": _run("sB"),
}
# In about half the examples one file also holds a line that every reader
# must reject: a lone NUL token, or a line a field long next to one a
# field short.  Only one file, so that the commands reading the others
# still often succeed.
HAZARD = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(sorted(FILES)), st.sampled_from(["nul", "shift"]), st.integers(0, 12)),
)
INPUTS = st.tuples(st.fixed_dictionaries(FILES), HAZARD).map(
    lambda t: {
        name: _join(parts, t[1][1:] if t[1] is not None and t[1][0] == name else None)
        for name, parts in t[0].items()
    }
)

# valid records alone, on which every command must succeed: each run of
# the test checks every success path at least once
CLEAN = {
    "qrels1.txt": "".join(f"{t} 0 {d} {i % 3}\n" for i, (t, d) in enumerate(GRID)),
    "qrels2.txt": "".join(f"{t} 0 {d} {i * 2 % 3}\n" for i, (t, d) in enumerate(GRID)),
    "pairs.txt": "".join(f"{t} {d} {i % 3} {i * 2 % 3}\n" for i, (t, d) in enumerate(GRID)),
    "run1.txt": "".join(
        f"{t} Q0 {d} {r} {10.0 - r} sA\n" for t in TOPIC_IDS for r, d in enumerate(DOC_IDS, 1)
    ),
    "run2.txt": "".join(
        f"{t} Q0 {d} {r} {10.0 - r} sB\n"
        for t in TOPIC_IDS for r, d in enumerate(DOC_IDS[:1:-1], 1)
    ),
}

TWO_QRELS = ["--qrels", "qrels1.txt", "--qrels2", "qrels2.txt"]
RUNS = ["--run", "run1.txt", "--run", "run2.txt"]
THETA = ["--theta", "1"]
COMMANDS = [
    ["estimate", "--pairs", "pairs.txt", "--estimator", "all", *THETA],
    ["eval", "--qrels", "qrels1.txt", "--pairs", "pairs.txt", *RUNS, "--k", "3",
     "--measures", "count-binary,count-prm,precision,ndcg", "--gains", "linear,prm", *THETA],
    ["validate", *TWO_QRELS, "--pairs", "pairs.txt", *RUNS],
    ["analyze", "tau", *TWO_QRELS, *RUNS, "--gains", "linear"],  # linear reads no --theta
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
@example(CLEAN)
def test_every_command_and_format_survives_random_lines(files):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        for name, text in {**files, "scale.json": SCALE}.items():
            with open(os.path.join(d, name), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        os.chdir(d)
        try:
            succeeded = 0
            for command in COMMANDS:
                for fmt in ("text", "csv", "json"):
                    argv = [*command, "--scale", "scale.json", "--format", fmt]
                    code, out, err = _run_main(argv)
                    assert code in (0, 1, 2), argv
                    assert code == 0 or files != CLEAN, (argv, err)
                    succeeded += code == 0
                    for line in err.splitlines():
                        assert line.startswith(("error:", "io error:", "warning:")), (argv, line)
                    if code != 0:
                        assert out == "", argv
                    elif fmt == "json":
                        json.loads(out)
                    elif fmt == "csv":
                        rows = list(csv.reader(io.StringIO(out)))
                        assert all(len(row) == len(rows[0]) for row in rows), argv
            # steer the search towards inputs that reach the output checks
            target(succeeded, label="command runs that succeed")
        finally:
            os.chdir(cwd)
