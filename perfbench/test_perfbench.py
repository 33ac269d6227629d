"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import sys

import pytest

import checks
import gen
import run
import tracing
import workloads

sys.path.insert(0, run.SRC)
import prmeval.cli as cli  # noqa: E402

SEED = 5


def _files(d: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("collection", sorted(gen.SIZES))
def test_generator_is_byte_identical_for_a_seed(tmp_path, collection):
    a, b, c = (str(tmp_path / x) for x in "abc")
    info_a = gen.write_inputs(collection, SEED, a, half=True)
    info_b = gen.write_inputs(collection, SEED, b, half=True)
    gen.write_inputs(collection, SEED + 1, c, half=True)
    assert _files(a) == _files(b)
    assert info_a == info_b
    assert _files(a) != _files(c)


@pytest.fixture(scope="module")
def half_outputs(tmp_path_factory):
    """Each workload's half-size commands and their untraced in-process outputs."""
    out = {}
    for workload in sorted(workloads.WORKLOADS):
        cmds = workloads.prepare(workload, SEED, str(tmp_path_factory.mktemp(workload)), half=True)
        results = tracing.run_pass(cli, cmds)
        assert all(code == 0 for code, _, _ in results.values())
        out[workload] = (cmds, {name: text for name, (_, text, _) in results.items()})
    return out


def _failed(cmds, outputs: dict[str, str], code: int = 0) -> int:
    """How many commands of one pass count as failed towards error_rate."""
    tally = run.Tally(None)
    tally.record_pass(cmds, {name: (code, text, 0.0) for name, text in outputs.items()})
    assert tally.attempted == len(outputs)
    return tally.failed


def test_checks_accept_real_outputs(half_outputs):
    for cmds, outputs in half_outputs.values():
        assert _failed(cmds, outputs) == 0


def test_nonzero_exit_counts_as_failed(half_outputs):
    cmds, outputs = half_outputs["resampling"]
    assert _failed(cmds, outputs, code=1) == len(outputs)


def _json_edit(edit):
    def corrupt(text: str) -> str:
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)
    return corrupt


def _drop_eval_row(text: str) -> str:
    lines = text.splitlines()
    return "\n".join(line for line in lines if not line.startswith("sys01,ndcg_prm@10,t003,"))


def _raise_eval_value(text: str) -> str:
    return "\n".join(
        line.rsplit(",", 1)[0] + ",1.5" if line.startswith("sys00,ndcg_linear@10,t001,") else line
        for line in text.splitlines()
    )


CORRUPTIONS = [
    ("scoring", "validate", lambda t: t.replace(" 50 topics", " 49 topics")),
    ("scoring", "eval", _drop_eval_row),
    ("scoring", "eval", _raise_eval_value),
    ("resampling", "estimate",
     _json_edit(lambda o: o["s0"]["symmetric"]["cells"][1].update(n_total=1))),
    ("resampling", "bootstrap", _json_edit(lambda o: o["2"].update(n_missing=o["2"]["n_missing"] + 1))),
    ("resampling", "budget", _json_edit(lambda o: o.update(x=[1000, 3000, 10000]))),
    ("resampling", "quality", _json_edit(lambda o: o["series"][2]["means"].__setitem__(-1, 0.5))),
    ("scoring", "robustness", _json_edit(lambda o: o["tau"].update(prm=1.5))),
    ("scoring", "tau", _json_edit(lambda o: o.update(tau=o["tau"] - 0.01))),
]


@pytest.mark.parametrize("workload,name,corrupt", CORRUPTIONS)
def test_checks_reject_corrupted_outputs(half_outputs, workload, name, corrupt):
    cmds, outputs = half_outputs[workload]
    bad = dict(outputs, **{name: corrupt(outputs[name])})
    assert bad[name] != outputs[name]
    assert _failed(cmds, bad) >= 1


def test_compare_uses_relative_tolerance():
    want = {"a": 0.25, "b": 3, "c": None}
    assert checks.compare({"a": 0.25 * (1 + 1e-12), "b": 3, "c": None}, want) == []
    assert checks.compare({"a": 0.25 * (1 + 1e-6), "b": 3, "c": None}, want) != []
    assert checks.compare({"a": 0.25, "b": 4, "c": None}, want) != []
    assert checks.compare({"a": 0.25, "b": 3}, want) != []


def test_normaliser_scales_by_the_reference_runs_around_each_time(monkeypatch):
    refs = iter([0.2, 0.2, 0.05, 0.05])
    monkeypatch.setattr(run, "_reference_s", lambda: next(refs))
    norm = run.Normaliser()
    nominal = run.REF_NOMINAL_S
    assert norm(2.0) == pytest.approx(2.0 * nominal / 0.2)
    assert norm(1.0) == pytest.approx(1.0 * nominal / 0.125)
    assert norm(0.5) == pytest.approx(0.5 * nominal / 0.05)


def test_self_times_add_up_to_root_spans_and_counts_repeat(half_outputs):
    cmds, _ = half_outputs["scoring"]
    first, second = tracing.traced_pass(cli, cmds)[0], tracing.traced_pass(cli, cmds)[0]
    own = first.self_ns()
    assert all(t >= 0 for t in own)
    roots = [i for i, s in enumerate(first.spans) if s["parent"] is None]
    assert [first.spans[i]["name"] for i in roots] == [f"cli.{c.name}" for c in cmds]

    def root_of(i: int) -> int:
        while first.spans[i]["parent"] is not None:
            i = first.spans[i]["parent"]
        return i

    for r in roots:
        subtree = sum(own[i] for i in range(len(own)) if root_of(i) == r)
        assert subtree == first.spans[r]["end"] - first.spans[r]["start"]

    def counts(tracer):
        return {k: {c: v for c, v in agg.items() if c != "self_s"}
                for k, agg in tracing.summarize(tracer).items()}

    assert counts(first) == counts(second)
    assert counts(first)["corpus.doc_ids"]["calls"] > 0


def test_layer_functions_are_restored_after_tracing(half_outputs):
    cmds, _ = half_outputs["scoring"]
    before = cli.analysis.robustness_study, cli.corpus.RunRanking.doc_ids
    tracing.traced_pass(cli, cmds)
    assert (cli.analysis.robustness_study, cli.corpus.RunRanking.doc_ids) == before


def test_refuses_to_run_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "resampling", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
