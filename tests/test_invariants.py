"""Cross-command invariants of the paper's estimators, through ``main()``.

Each example draws a small collection from the latent-channel model of
``synth``: double judgments over 1-4 topics, the two groups' qrels
(their overlap is the pairs, plus documents that only one group judged)
and three runs over the judged and some unjudged documents.  The files
are written with the ``synth`` writers, and each property compares what
the CLI prints for two inputs that must give the same answer:

- the symmetric table does not depend on which assessor is U1;
- the one-sided table on U1 of the swapped pairs is the one on U2;
- line and topic-block order in any input file change no output byte;
- ``--qrels A --qrels2 B`` estimates from their overlap, as ``--pairs`` does;
- an estimated table passed as ``--table`` scores as estimating on the fly;
- every pair judged twice keeps each p and divides each sigma by sqrt(2);
- one stratum holding every topic gives the cells of no ``--strata``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from prmeval.cli import main
from prmeval.corpus import Judgment, JudgmentPair, JudgmentSet, RunEntry, RunRanking

SCALE = '{"labels": ["Non", "Rel", "HRel"]}'
RUNS = ["--run", "run0.txt", "--run", "run1.txt", "--run", "run2.txt"]
TWO_QRELS = ["--qrels", "qrels1.txt", "--qrels2", "qrels2.txt"]
THETA = st.sampled_from(["1", "2"])
OVERRIDE = st.sampled_from([[], ["--override-p0"]])
FORMATS = st.sampled_from(["text", "csv", "json"])


def _show(message, category, filename, lineno, file=None, line=None):
    # prints through the formatter that main() installs, as the default would
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def cli(files: dict[str, str], *argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main([*argv, "--scale", ...])``,
    run in a new directory that holds ``files`` (name to text)."""
    cwd = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        for name, text in {**files, "scale.json": SCALE}.items():
            with open(os.path.join(d, name), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        os.chdir(d)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings():
                    warnings.simplefilter("always")
                    warnings.showwarning = _show
                    code = main([*argv, "--scale", "scale.json"])
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def ok(files: dict[str, str], *argv: str) -> tuple[str, str]:
    """stdout and stderr of a command that must succeed."""
    code, out, err = cli(files, *argv)
    assert code == 0, (argv, err)
    return out, err


def text(write, records) -> str:
    buf = io.StringIO()
    write(records, buf)
    return buf.getvalue()


@st.composite
def collections(draw):
    """(pairs, input files): the pairs, ``pairs.txt``, ``qrels1.txt`` and
    ``qrels2.txt`` (U1 and U2 of the pairs, each with 0-2 documents per
    topic that the other group did not judge) and three runs."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_topics = draw(st.integers(1, 4))
    n = draw(st.integers(8, 40))
    pairs = synth.latent_channel_pairs(
        synth.ROBUST_PRIOR, synth.ROBUST_CHANNEL, n, seed, n_topics
    )
    rng = np.random.default_rng(seed)
    topics = sorted({p.topic_id for p in pairs})
    groups = []
    for group in ("u1", "u2"):
        judged = [Judgment(p.topic_id, p.doc_id, getattr(p, f"level_{group}")) for p in pairs]
        judged += [
            Judgment(t, f"{t}-{group}-{i}", int(rng.integers(0, 3)))
            for t in topics for i in range(rng.integers(0, 3))
        ]
        groups.append(JudgmentSet(synth.SCALE3, judged, group))
    pool: dict[str, dict[str, None]] = {t: {} for t in topics}  # each topic's judged docs
    for js in groups:
        for j in js.judgments:
            pool[j.topic_id][j.doc_id] = None
    files = {
        "pairs.txt": text(synth.write_paired, pairs),
        "qrels1.txt": text(synth.write_qrels, groups[0]),
        "qrels2.txt": text(synth.write_qrels, groups[1]),
    }
    for s in range(3):
        entries = []
        for t in topics:
            docs = [*pool[t], *(f"{t}-new-{i}" for i in range(rng.integers(0, 3)))]
            depth = int(rng.integers(1, len(docs) + 1))
            entries += [
                RunEntry(t, doc, rank, float(depth - rank))
                for rank, doc in enumerate(rng.permutation(docs)[:depth].tolist(), start=1)
            ]
        files[f"run{s}.txt"] = text(synth.write_run, RunRanking(f"s{s}", entries))
    return pairs, files


def swapped(pairs: list[JudgmentPair]) -> dict[str, str]:
    return {"pairs.txt": text(
        synth.write_paired, [p._replace(level_u1=p.level_u2, level_u2=p.level_u1) for p in pairs]
    )}


@settings(max_examples=30, deadline=None)
@given(collections(), THETA, OVERRIDE, FORMATS)
def test_swapping_assessors_keeps_the_symmetric_table(collection, theta, override, fmt):
    pairs, files = collection
    argv = ["estimate", "--pairs", "pairs.txt", "--theta", theta, *override, "--format", fmt]
    assert ok(swapped(pairs), *argv) == ok(files, *argv)


@settings(max_examples=30, deadline=None)
@given(collections(), THETA, OVERRIDE)
def test_one_sided_u1_of_swapped_pairs_is_u2(collection, theta, override):
    pairs, files = collection
    argv = ["estimate", "--pairs", "pairs.txt", "--theta", theta, *override,
            "--estimator", "one-sided", "--format", "json", "--condition"]
    out_u1, err_u1 = ok(swapped(pairs), *argv, "u1")
    out_u2, err_u2 = ok(files, *argv, "u2")
    table_u1 = json.loads(out_u1)["all"]["one_sided_u1"]
    table_u2 = json.loads(out_u2)["all"]["one_sided_u2"]
    assert (table_u1.pop("condition"), table_u2.pop("condition")) == ("u1", "u2")
    assert (table_u1, err_u1) == (table_u2, err_u2)


def reordered(data, file_text: str) -> str:
    """The file's lines in a drawn order, or its topic blocks (the runs of
    lines that share their first field) in a drawn order."""
    lines = file_text.splitlines(keepends=True)
    if data.draw(st.booleans(), label="whole lines"):
        return "".join(data.draw(st.permutations(lines)))
    blocks: list[list[str]] = []
    for line in lines:
        if blocks and blocks[-1][0].split()[0] == line.split()[0]:
            blocks[-1].append(line)
        else:
            blocks.append([line])
    return "".join(line for block in data.draw(st.permutations(blocks)) for line in block)


@settings(max_examples=30, deadline=None)
@given(collections(), st.data(), THETA, OVERRIDE, FORMATS)
def test_line_and_block_order_change_no_byte(collection, data, theta, override, fmt):
    _, files = collection
    shuffled = {name: reordered(data, body) for name, body in files.items()}
    common = ["--theta", theta, *override, "--format", fmt]
    for argv in (
        ["estimate", "--pairs", "pairs.txt", "--estimator", "all"],
        ["estimate", *TWO_QRELS],
        ["eval", "--qrels", "qrels1.txt", "--pairs", "pairs.txt", *RUNS,
         "--measures", "count-binary,count-prm,precision,ndcg", "--gains", "binary,prm,udm"],
        ["eval", *TWO_QRELS, *RUNS, "--gains", "linear,prm", "--k", "3"],
    ):
        assert cli(shuffled, *argv, *common) == cli(files, *argv, *common), argv


@settings(max_examples=30, deadline=None)
@given(collections(), THETA, OVERRIDE, FORMATS)
def test_qrels_overlap_estimates_as_pairs(collection, theta, override, fmt):
    _, files = collection
    common = ["estimate", "--estimator", "all", "--theta", theta, *override, "--format", fmt]
    assert ok(files, *common, *TWO_QRELS) == ok(files, *common, "--pairs", "pairs.txt")


@settings(max_examples=30, deadline=None)
@given(collections(), THETA, OVERRIDE)
def test_estimated_table_scores_as_on_the_fly(collection, theta, override):
    _, files = collection
    out, _ = ok(files, "estimate", "--pairs", "pairs.txt", "--theta", theta, "--format", "json")
    with_table = dict(files, **{"table.json": json.dumps(json.loads(out)["all"]["symmetric"])})
    gains = "prm,udm" if theta == "2" else "prm"  # udm needs the top level as threshold
    # beside --table, --theta is read only by binary gains: the table has its own
    for argv, source, table_theta in (
        (["eval", "--qrels", "qrels1.txt", *RUNS, "--measures", "count-prm,precision,ndcg",
          "--gains", gains], ["--pairs", "pairs.txt"], []),
        (["analyze", "tau", *TWO_QRELS, *RUNS, "--gains", "prm"], [], []),
        (["analyze", "robustness", *TWO_QRELS, *RUNS, "--gains", f"binary,{gains}"], [],
         ["--theta", theta]),
    ):
        for fmt in ("text", "csv", "json"):
            common = [*argv, *override, "--format", fmt]
            on_the_fly = cli(files, *common, "--theta", theta, *source)
            with_file = cli(with_table, *common, *table_theta, "--table", "table.json")
            assert with_file == on_the_fly, argv


@settings(max_examples=30, deadline=None)
@given(collections(), THETA)
def test_judging_every_pair_twice_divides_sigma_by_root_two(collection, theta):
    pairs, files = collection
    twice = [*pairs, *(p._replace(doc_id=p.doc_id + "-copy") for p in pairs)]
    argv = ["estimate", "--pairs", "pairs.txt", "--estimator", "all", "--theta", theta,
            "--format", "json"]
    once = json.loads(ok(files, *argv)[0])["all"]
    doubled = json.loads(ok({"pairs.txt": text(synth.write_paired, twice)}, *argv)[0])["all"]
    assert once.keys() == doubled.keys()
    for name, table in once.items():
        for a, b in zip(table["cells"], doubled[name]["cells"], strict=True):
            assert (b["n_match"], b["n_total"]) == (2 * a["n_match"], 2 * a["n_total"])
            assert b["p"] == a["p"]
            if a["sigma"] is None:
                assert b["sigma"] is None
            else:
                assert math.isclose(b["sigma"], a["sigma"] / math.sqrt(2), rel_tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(collections(), THETA, OVERRIDE)
def test_one_stratum_of_every_topic_is_no_strata(collection, theta, override):
    pairs, files = collection
    strata = "".join(f"{t} every\n" for t in sorted({p.topic_id for p in pairs}))
    argv = ["estimate", "--pairs", "pairs.txt", "--estimator", "all", "--theta", theta,
            *override, "--format", "json"]
    out, err = ok(files, *argv)
    out_strata, err_strata = ok(dict(files, **{"strata.txt": strata}), *argv,
                                "--strata", "strata.txt")
    assert json.loads(out_strata) == {"every": json.loads(out)["all"]}
    assert err_strata == err
