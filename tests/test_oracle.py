"""Every number of ``estimate``, ``eval``, ``analyze tau`` and ``analyze
robustness`` in ``--format json`` against `oracle`, which computes them
afresh from the input files and the paper's formulas.

Each example draws a collection as ``test_invariants`` does (pairs, two
qrels groups, three runs), now and then with a topic that no group judged
in the first run, plus a hand-written ``--table`` file, and a flag set
that the command takes.  Where the oracle finds no value, the command
must exit 1 with nothing on stdout; otherwise it must exit 0, print every
number that the oracle gives and no other, each within a relative 1e-12.
"""

from __future__ import annotations

import json
import math

from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracle
from test_invariants import SCALE, cli, collections

TOP = len(json.loads(SCALE)["labels"]) - 1
RUN_FILES = ("run0.txt", "run1.txt", "run2.txt")
MEASURES = ("count-binary", "count-prm", "precision", "ndcg")
GAINS = ("binary", "linear", "exponential", "prm", "udm", "custom")
NEEDS_TABLE = {"count-prm", "precision", "prm", "udm"}


MAYBE_P = st.none() | st.floats(0, 1) | st.floats(0, 1) | st.floats(0, 1)  # a quarter missing


@st.composite
def inputs(draw, p=MAYBE_P) -> dict[str, str]:
    """The files of a drawn collection, and ``table.json``: a table over
    the scale with a drawn theta and each p drawn from ``p`` (None is no p)."""
    _, files = draw(collections())
    if draw(st.booleans()):
        files["run0.txt"] += "t999 Q0 t999-d0 1 1.0 s0\n"
    cells = [{"level": i, "p": draw(p)} for i in range(TOP + 1)]
    files["table.json"] = json.dumps({"scale": json.loads(SCALE),
                                      "theta": draw(st.integers(1, TOP)), "cells": cells})
    return files


def leaves(value, path=()):
    """(path, leaf) for every leaf of a json value, an empty list or object
    being a leaf too."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from leaves(item, (*path, key))
    else:
        yield path, value


def assert_matches(printed: dict, expected: dict) -> None:
    got, want = dict(leaves(printed)), dict(leaves(expected))
    numbers = {path for path, v in got.items()
               if v is None or isinstance(v, (int, float)) and not isinstance(v, bool)}
    assert numbers <= want.keys(), f"not in the oracle: {sorted(numbers - want.keys())}"
    for path, value in want.items():
        assert path in got, f"not printed: {path}"
        if isinstance(value, float) and isinstance(got[path], (int, float)):
            assert math.isclose(got[path], value, rel_tol=1e-12), (path, got[path], value)
        else:
            assert got[path] == value, (path, got[path], value)


def check(files: dict[str, str], argv: list[str], compute) -> None:
    """``argv`` in json through ``main`` against ``compute()``."""
    try:
        expected = compute()
    except oracle.Undefined as exc:
        event("no value: the command must fail")
        code, out, err = cli(files, *argv, "--format", "json")
        assert (code, out) == (1, ""), (argv, str(exc), err)
        return
    code, out, err = cli(files, *argv, "--format", "json")
    assert code == 0, (argv, err)
    assert_matches(json.loads(out), expected)


def maybe(draw, flag: str, values, default=None):
    """``(argv, value)``: the flag with a drawn value, or no flag and ``default``."""
    value = draw(st.sampled_from([None, *values]))
    return ([] if value is None else [flag, str(value)]), (default if value is None else value)


def draw_estimator(draw, names) -> tuple[list[str], str, str]:
    """``(argv, estimator, condition)``: ``--estimator`` drawn from ``names``
    or left at symmetric, and ``--condition`` or not for one-sided."""
    argv, estimator = maybe(draw, "--estimator", names, "symmetric")
    cond_argv, condition = (maybe(draw, "--condition", ["u1", "u2"], "u1")
                            if estimator == "one-sided" else ([], "u1"))
    return argv + cond_argv, estimator, condition


def draw_table(draw, files, scored, sources, theta_read):
    """``(argv, table, theta)``: the flags of the table that ``scored``
    (measures and gain schemes) needs, drawn from ``sources``; the oracle's
    table as a call, since a ``--theta`` beside a table file that is not
    its own has no value; and ``--theta``, drawn where ``theta_read``
    (binary gains or count-binary) or an estimated table reads it."""
    if not NEEDS_TABLE & scored:
        argv, theta = maybe(draw, "--theta", range(1, TOP + 1)) if theta_read else ([], None)
        return argv, lambda: None, theta
    override = draw(st.booleans())
    argv = ["--override-p0"] if override else []
    source = draw(st.sampled_from(sources))
    if source == "table":
        theta_argv, theta = maybe(draw, "--theta", range(1, TOP + 1)) if theta_read else ([], None)
        table = lambda: oracle.file_table(files["table.json"], theta, override)  # noqa: E731
        return [*argv, *theta_argv, "--table", "table.json"], table, theta
    theta_argv, theta = maybe(draw, "--theta", range(1, TOP + 1))
    estimator_argv, estimator, condition = draw_estimator(draw, ["symmetric", "one-sided"])
    argv += theta_argv + estimator_argv
    if source == "pairs":
        argv += ["--pairs", "pairs.txt"]
        pairs = oracle.read_pairs(files["pairs.txt"])
    else:  # the overlap of the two qrels groups
        argv += ["--qrels2", "qrels2.txt"] if source == "qrels2" else []
        pairs = oracle.overlap(oracle.read_qrels(files["qrels1.txt"]),
                               oracle.read_qrels(files["qrels2.txt"]))
    table = oracle.estimated_table(pairs, TOP, TOP if theta is None else theta, estimator,
                                   condition, override)
    return argv, lambda: table, theta


def draw_ranking(draw, files, gains, ndcg=True, min_runs=2):
    """``(argv, runs, options)``: the runs as the oracle reads them, and the
    flags of the run measures (of nDCG@k too, if ``ndcg``)."""
    runs = draw(st.lists(st.sampled_from(RUN_FILES), min_size=min_runs, max_size=3, unique=True))
    argv = [arg for run in runs for arg in ("--run", run)]
    k_argv, k = maybe(draw, "--k", range(1, 9), 10)
    pool_argv, ideal_pool = (maybe(draw, "--ideal-pool", ["qrels", "run"], "qrels") if ndcg
                             else ([], "qrels"))
    discount = draw(st.sampled_from(["", "10", "1.5", "zipf"])) if ndcg else ""
    base = None if discount == "zipf" else float(discount or 2)
    argv += k_argv + pool_argv
    argv += (["--discount", "zipf"] if discount == "zipf"
             else ["--log-base", discount] if discount else [])
    strict = draw(st.booleans())
    argv += ["--strict"] if strict else []
    custom = None
    if "custom" in gains:
        custom = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=TOP + 1,
                               max_size=TOP + 1).filter(any))
        argv += ["--custom-gains", ",".join(map(str, custom))]
    runs = [oracle.read_run(files[run]) for run in runs]
    return argv, runs, dict(k=k, base=base, ideal_pool=ideal_pool, strict=strict, custom=custom)


@settings(max_examples=40, deadline=None)
@given(inputs(), st.data())
def test_estimate(files, data):
    draw = data.draw
    two_qrels = draw(st.booleans())
    argv = ["estimate", *(["--qrels", "qrels1.txt", "--qrels2", "qrels2.txt"] if two_qrels
                          else ["--pairs", "pairs.txt"])]
    estimator_argv, estimator, condition = draw_estimator(
        draw, ["symmetric", "one-sided", "all"])
    theta_argv, theta = maybe(draw, "--theta", range(1, TOP + 1))
    override = draw(st.booleans())
    argv += estimator_argv + theta_argv + (["--override-p0"] if override else [])
    pairs = (oracle.overlap(oracle.read_qrels(files["qrels1.txt"]),
                            oracle.read_qrels(files["qrels2.txt"]))
             if two_qrels else oracle.read_pairs(files["pairs.txt"]))
    check(files, argv, lambda: oracle.estimate(pairs, TOP, theta, estimator, condition, override))


def check_eval(files: dict[str, str], draw, measures: list[str], gains: list[str],
               sources: list[str]) -> None:
    scored = {*measures, *gains}
    argv = ["eval", "--qrels", "qrels1.txt", "--measures", ",".join(measures)]
    argv += ["--gains", ",".join(gains)] if gains else []
    table_argv, table, theta = draw_table(
        draw, files, scored, sources, {"binary", "count-binary"} & scored)
    runs, options = [], {}
    if {"precision", "ndcg"} & scored:
        ranking_argv, runs, options = draw_ranking(draw, files, gains, "ndcg" in scored, 1)
        argv += ranking_argv
    judged = oracle.read_qrels(files["qrels1.txt"])
    check(files, argv + table_argv, lambda: oracle.evaluate(
        judged, runs, TOP, measures=measures, gains=gains, theta=theta, table=table(),
        **options))


@settings(max_examples=60, deadline=None)
@given(inputs(), st.data())
def test_eval(files, data):
    measures = data.draw(st.lists(st.sampled_from(MEASURES), min_size=1, max_size=4, unique=True))
    gains = (data.draw(st.lists(st.sampled_from(GAINS), min_size=1, max_size=3, unique=True))
             if "ndcg" in measures else [])
    check_eval(files, data.draw, measures, gains, ["table", "pairs", "qrels2"])


@settings(max_examples=40, deadline=None)
@given(inputs(p=st.floats(0, 1)), st.data())
def test_eval_beside_a_table(files, data):
    # a --table file with every p given, count-binary, and binary gains
    # when ndcg is scored: every measure must read the file's one theta
    measures = ["count-binary", "count-prm",
                *data.draw(st.lists(st.sampled_from(MEASURES[2:]), unique=True))]
    gains = (["binary", *data.draw(st.lists(st.sampled_from(GAINS[1:]), max_size=2, unique=True))]
             if "ndcg" in measures else [])
    check_eval(files, data.draw, measures, gains, ["table"])


@settings(max_examples=40, deadline=None)
@given(inputs(), st.data())
def test_tau(files, data):
    draw = data.draw
    gains_argv, gain = maybe(draw, "--gains", GAINS, "binary")
    variant_argv, variant = maybe(draw, "--tau-variant", ["a", "b"], "b")
    two_qrels = draw(st.booleans())
    argv = ["analyze", "tau", "--qrels", "qrels1.txt", *gains_argv, *variant_argv]
    argv += ["--qrels2", "qrels2.txt"] if two_qrels else []
    table_argv, table, theta = draw_table(
        draw, files, {gain}, ["table", "pairs", *(["overlap"] if two_qrels else [])],
        gain == "binary")
    ranking_argv, runs, options = draw_ranking(draw, files, [gain])
    u1 = oracle.read_qrels(files["qrels1.txt"])
    u2 = oracle.read_qrels(files["qrels2.txt"]) if two_qrels else None
    check(files, argv + table_argv + ranking_argv, lambda: oracle.tau(
        u1, u2, runs, TOP, gain, variant, table=table(), theta=theta, **options))


@settings(max_examples=40, deadline=None)
@given(inputs(), st.data())
def test_robustness(files, data):
    draw = data.draw
    gains = draw(st.none() | st.lists(st.sampled_from(GAINS), min_size=1, max_size=3, unique=True))
    variant_argv, variant = maybe(draw, "--tau-variant", ["a", "b"], "b")
    argv = ["analyze", "robustness", "--qrels", "qrels1.txt", "--qrels2", "qrels2.txt",
            *variant_argv, *(["--gains", ",".join(gains)] if gains else [])]
    gains = gains or ["binary", "linear", "exponential"]
    table_argv, table, theta = draw_table(
        draw, files, set(gains), ["table", "pairs", "overlap"], "binary" in gains)
    ranking_argv, runs, options = draw_ranking(draw, files, gains)
    u1, u2 = (oracle.read_qrels(files[name]) for name in ("qrels1.txt", "qrels2.txt"))
    check(files, argv + table_argv + ranking_argv, lambda: oracle.robustness(
        u1, u2, runs, TOP, gains, variant, table=table(), theta=theta, **options))
