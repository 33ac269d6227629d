from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import random
import re
from pathlib import Path
from unittest import mock

import pytest

from prmeval import cli
from prmeval.cli import build_parser, main
from prmeval.errors import DataWarning

U1_LEVEL_2_DOCS = ["d1", "d2", "d9", "d13"]


@pytest.fixture()
def ws(tmp_path, scale3_json, golden_qrels_u1, golden_qrels_u2, golden_paired_text):
    """On-disk fixture files for CLI invocations."""
    d = tmp_path

    def write(name: str, text: str) -> str:
        path = d / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    files = {
        "scale": write("scale.json", scale3_json),
        "qrels_u1": write("qrels_u1.txt", golden_qrels_u1),
        "qrels_u2": write("qrels_u2.txt", golden_qrels_u2),
        "pairs": write("pairs.txt", golden_paired_text),
    }
    two_topic = golden_paired_text + "".join(
        line.replace("201", "202", 1)
        for line in golden_paired_text.splitlines(keepends=True)
        if line.strip() and not line.startswith("#")
    )
    files["pairs2"] = write("pairs2.txt", two_topic)

    docs = [f"d{i}" for i in range(1, 21)]
    perfect = U1_LEVEL_2_DOCS + [x for x in docs if x not in U1_LEVEL_2_DOCS]
    lines = [
        f"201 Q0 {doc} {rank} {float(30 - rank)} sysA\n"
        for rank, doc in enumerate(perfect, start=1)
    ]
    files["run_perfect"] = write("run_perfect.txt", "".join(lines))
    lines = [
        f"201 Q0 {doc} {rank} {float(30 - rank)} sysB\n"
        for rank, doc in enumerate(reversed(perfect), start=1)
    ]
    files["run_reverse"] = write("run_reverse.txt", "".join(lines))

    degenerate = {
        "scale": {"labels": ["Non", "Rel", "HRel"]},
        "theta": 2,
        "estimator": "manual",
        "cells": [
            {"level": 0, "p": 0.0},
            {"level": 1, "p": 0.0},
            {"level": 2, "p": 1.0},
        ],
    }
    files["degenerate"] = write("degenerate.json", json.dumps(degenerate))
    files["dir"] = str(d)
    return files


NOT_WHOLE = "malformed disagreement table: ValueError('not a whole number: "
NOT_REAL = "malformed disagreement table: ValueError('not a number: True')"


def _table(at: int | None = None, **fields) -> str:
    """A valid table for the 3-level scale of `ws` as JSON, with ``fields``
    set on the cell of level ``at``, or on the table when ``at`` is None."""
    table = {"scale": {"labels": ["Non", "Rel", "HRel"]}, "theta": 2, "cells": [
        {"level": i, "n_match": m, "n_total": 10, "p": m / 10, "sigma": 0.1}
        for i, m in enumerate((1, 5, 9))
    ]}
    (table if at is None else table["cells"][at]).update(fields)
    return json.dumps(table)


def run_cli(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimateCommand:
    def test_symmetric_text_golden(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            ["estimate", "--scale", ws["scale"], "--pairs", ws["pairs"], "--theta", "2"],
        )
        assert code == 0
        assert "estimator=symmetric theta=2 (HRel)" in out
        assert "HRel  p=0.4000 sigma=0.1549 [4/10]" in out
        assert "Rel   p=0.2941 sigma=0.1105 [5/17]" in out
        assert "Non   p=0.0769 sigma=0.0739 [1/13]" in out

    def test_one_sided_text_golden(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "estimate", "--scale", ws["scale"], "--pairs", ws["pairs"],
                "--theta", "2", "--estimator", "one-sided", "--condition", "u1",
            ],
        )
        assert code == 0
        assert "estimator=one_sided condition=u1 theta=2 (HRel)" in out
        assert "HRel  p=0.5000" in out
        assert "Rel   p=0.3000" in out
        assert "Non   p=0.1667" in out

    def test_estimator_all_prints_three_tables(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "estimate", "--scale", ws["scale"], "--pairs", ws["pairs"],
                "--theta", "2", "--estimator", "all",
            ],
        )
        assert code == 0
        assert "estimator=symmetric theta=2" in out
        assert "estimator=one_sided condition=u1 theta=2" in out
        assert "estimator=one_sided condition=u2 theta=2" in out

    def test_qrels_pair_matches_pairs_file(self, capsys, ws):
        base = ["estimate", "--scale", ws["scale"], "--theta", "2"]
        code, out_pairs, _ = run_cli(capsys, base + ["--pairs", ws["pairs"]])
        assert code == 0
        code, out_qrels, _ = run_cli(
            capsys, base + ["--qrels", ws["qrels_u1"], "--qrels2", ws["qrels_u2"]]
        )
        assert code == 0
        assert out_pairs == out_qrels

    def test_csv_full_precision(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "estimate", "--scale", ws["scale"], "--pairs", ws["pairs"],
                "--theta", "2", "--format", "csv",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "stratum,estimator,condition,theta,level,label,n_match,n_total,p,sigma,source"
        )
        assert len(lines) == 4
        assert repr(5 / 17) in out  # 0.29411764705882354
        assert "all,symmetric,,2,2,HRel,4,10,0.4," in out

    def test_json_round_trip(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "estimate", "--scale", ws["scale"], "--pairs", ws["pairs"],
                "--theta", "2", "--format", "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        cells = {c["level"]: c for c in payload["all"]["symmetric"]["cells"]}
        assert cells[2]["p"] == 0.4
        assert cells[1]["p"] == 5 / 17
        assert cells[1]["n_total"] == 17

    def test_override_p0(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "estimate", "--scale", ws["scale"], "--pairs", ws["pairs"],
                "--theta", "2", "--override-p0",
            ],
        )
        assert code == 0
        assert "Non   p=0.0000 *override*" in out

    def test_strata_blocks(self, capsys, ws, tmp_path):
        strata = tmp_path / "strata.txt"
        strata.write_text("201 easy\n202 hard\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            [
                "estimate", "--scale", ws["scale"], "--pairs", ws["pairs2"],
                "--theta", "2", "--strata", str(strata),
            ],
        )
        assert code == 0
        assert "# stratum easy" in out
        assert "# stratum hard" in out

    def test_missing_double_judgments(self, capsys, ws):
        code, _, err = run_cli(
            capsys, ["estimate", "--scale", ws["scale"], "--theta", "2"]
        )
        assert code == 1
        assert "no double judgments" in err

    def test_missing_file_is_io_error(self, capsys, ws):
        code, _, err = run_cli(
            capsys,
            [
                "estimate", "--scale", ws["scale"],
                "--pairs", ws["dir"] + "/nope.txt", "--theta", "2",
            ],
        )
        assert code == 2
        assert "io error" in err

    def test_one_sided_collection_blocks_symmetric(self, capsys, ws):
        code, _, err = run_cli(
            capsys,
            [
                "estimate", "--scale", ws["scale"], "--pairs", ws["pairs"],
                "--theta", "2", "--one-sided-collection",
            ],
        )
        assert code == 1
        assert err == "error: --one-sided-collection needs --estimator one-sided\n"

    def test_theta_defaults_to_top_level(self, capsys, ws):
        base = ["estimate", "--scale", ws["scale"], "--pairs", ws["pairs"]]
        code, out_default, _ = run_cli(capsys, base)
        assert code == 0
        code, out_top, _ = run_cli(capsys, base + ["--theta", "2"])
        assert code == 0
        assert out_default == out_top

    @pytest.mark.parametrize("with_strata", [False, True])
    def test_empty_pairs_file_is_an_error(self, capsys, ws, tmp_path, with_strata):
        empty = tmp_path / "empty.txt"
        empty.write_text("# no pairs\n", encoding="utf-8")
        strata = tmp_path / "strata.txt"
        strata.write_text("201 easy\n", encoding="utf-8")
        argv = ["estimate", "--scale", ws["scale"], "--pairs", str(empty), "--theta", "2"]
        code, out, err = run_cli(capsys, argv + (["--strata", str(strata)] if with_strata else []))
        assert code == 1
        assert out == ""
        assert "no judgment pairs to estimate from" in err

    def test_out_writes_file(self, capsys, ws, tmp_path):
        target = tmp_path / "table.txt"
        code, out, _ = run_cli(
            capsys,
            [
                "estimate", "--scale", ws["scale"], "--pairs", ws["pairs"],
                "--theta", "2", "--out", str(target),
            ],
        )
        assert code == 0
        assert out == ""
        assert "p=0.4000" in target.read_text(encoding="utf-8")


class TestHelpAndUsage:
    def test_help_exits_zero_and_documents_formulas(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0
        assert "one-sided estimate" in out
        assert "nDCG@k" in out

    def test_subcommand_help(self, capsys):
        code, out, _ = run_cli(capsys, ["estimate", "--help"])
        assert code == 0
        assert "--estimator" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["estimate", "--frobnicate"])
        assert code == 1
        assert "usage:" in err

    def test_missing_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == 1
        assert "usage:" in err


class TestEvalCommand:
    def test_perfect_run_scores_one(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--theta", "2",
            ],
        )
        assert code == 0
        assert "# run sysA" in out
        assert "ndcg@10\t201\t1.0000" in out
        assert "ndcg@10\tall\t1.0000" in out
        assert "ndcg@10\tstderr\tn/a" in out

    def test_binary_and_degenerate_prm_byte_identical(self, capsys, ws):
        for fmt in ("text", "json", "csv"):
            base = [
                "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--run", ws["run_reverse"],
                "--k", "10", "--format", fmt,
            ]
            code, out_binary, _ = run_cli(
                capsys, base + ["--gains", "binary", "--theta", "2"]
            )
            assert code == 0
            code, out_prm, _ = run_cli(
                capsys, base + ["--gains", "prm", "--table", ws["degenerate"]]
            )
            assert code == 0
            assert out_binary == out_prm

    def test_all_measures(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--pairs", ws["pairs"], "--run", ws["run_perfect"],
                "--theta", "2", "--k", "5",
                "--measures", "count-binary,count-prm,precision,ndcg",
            ],
        )
        assert code == 0
        assert "count_binary\t201\t4.0000" in out
        assert "count_prm\t201\t5.0027" in out
        assert "expected_precision@5\t201\t" in out
        assert "ndcg@5\t201\t" in out

    def test_multiple_gain_schemes_are_labeled(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--theta", "2",
                "--gains", "binary,linear",
            ],
        )
        assert code == 0
        assert "ndcg_binary@10" in out
        assert "ndcg_linear@10" in out
        assert "\nndcg@10" not in out

    def test_csv_layout(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--theta", "2", "--format", "csv",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "system,measure,topic,value"
        assert "sysA,ndcg@10,201,1.0" in lines
        assert "sysA,ndcg@10,all,1.0" in lines

    def test_json_structure(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--theta", "2", "--format", "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["systems"]["sysA"]["ndcg@10"]["mean"] == 1.0
        assert payload["systems"]["sysA"]["ndcg@10"]["per_topic"]["201"] == 1.0

    def test_ideal_pool_run_differs_from_qrels(self, capsys, ws, tmp_path):
        # a run retrieving only part of the pool self-normalizes under
        # --ideal-pool run but not under the default
        short = tmp_path / "short.txt"
        short.write_text(
            "201 Q0 d1 1 2.0 sysC\n201 Q0 d3 2 1.0 sysC\n", encoding="utf-8"
        )
        base = [
            "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
            "--run", str(short), "--theta", "2", "--format", "json",
        ]
        code, out_qrels, _ = run_cli(capsys, base)
        assert code == 0
        code, out_run, _ = run_cli(capsys, base + ["--ideal-pool", "run"])
        assert code == 0
        v_qrels = json.loads(out_qrels)["systems"]["sysC"]["ndcg@10"]["per_topic"]["201"]
        v_run = json.loads(out_run)["systems"]["sysC"]["ndcg@10"]["per_topic"]["201"]
        assert v_run == 1.0
        assert v_qrels < 1.0

    def test_requires_run_for_ndcg(self, capsys, ws):
        code, _, err = run_cli(
            capsys,
            ["eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"], "--theta", "2"],
        )
        assert code == 1
        assert "--run is required" in err

    def test_custom_gains_length_checked(self, capsys, ws):
        code, _, err = run_cli(
            capsys,
            [
                "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--gains", "custom",
                "--custom-gains", "0,1",
            ],
        )
        assert code == 1
        assert "--custom-gains needs 3 values" in err

    def test_unknown_measure(self, capsys, ws):
        code, _, err = run_cli(
            capsys,
            [
                "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--theta", "2", "--measures", "map",
            ],
        )
        assert code == 1
        assert "unknown measure" in err

    def test_table_scale_mismatch(self, capsys, ws, tmp_path):
        other = {
            "scale": {"labels": ["No", "Yes"]},
            "theta": 1,
            "cells": [{"level": 0, "p": 0.0}, {"level": 1, "p": 1.0}],
        }
        path = tmp_path / "other.json"
        path.write_text(json.dumps(other), encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            [
                "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--gains", "prm", "--table", str(path),
            ],
        )
        assert code == 1
        assert "scale" in err

    RANKED = ["--qrels2", "{qrels_u2}", "--run", "{run_perfect}", "--run", "{run_reverse}"]

    @pytest.mark.parametrize("argv", [
        ["eval", "--run", "{run_perfect}", "--gains", "binary,prm"],
        ["eval", "--measures", "count-binary,count-prm"],
        ["analyze", "robustness", *RANKED, "--gains", "binary,prm"],
    ], ids=["eval-binary-prm", "eval-counts", "robustness"])
    @pytest.mark.parametrize("theta", ["1", "2"])
    def test_theta_must_equal_the_tables_theta(self, capsys, ws, argv, theta):
        # binary gains and count-binary read --theta, the prm scores read
        # the table's own theta (2): one command scores one threshold
        code, out, err = run_cli(capsys, [
            *(a.format(**ws) for a in argv), "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
            "--table", ws["degenerate"], "--theta", theta,
        ])
        if theta == "2":
            assert (code, err) == (0, "") and out
        else:
            assert (code, out, err) == (1, "", "error: --theta 1 != the table's theta 2\n")

    def test_without_theta_binary_scores_take_the_tables_theta(self, capsys, ws, tmp_path):
        # a theta-1 table on the 3-level scale: binary gains and count-binary
        # score at its theta, as prm does, not at the top level T = 2
        table = tmp_path / "theta1.json"
        table.write_text(_table(theta=1), encoding="utf-8")
        argv = ["eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--table", str(table),
                "--measures", "ndcg,count-binary,count-prm", "--format", "json"]
        code, out, err = run_cli(capsys, [*argv, "--gains", "binary,prm"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        # 14 of the 20 judged docs are at level 1 or above, 4 at level 2
        assert report["pool"]["count_binary"]["per_topic"] == {"201": 14.0}
        # binary gains at theta 1 are the custom gains 0, 1, 1
        _, out1, _ = run_cli(capsys, [*argv, "--gains", "custom,prm", "--custom-gains", "0,1,1"])
        custom = json.loads(out1)["systems"]["sysA"]
        assert report["systems"]["sysA"]["ndcg_binary@10"] == \
            dict(custom["ndcg_custom@10"], measure="ndcg_binary")
        assert report["systems"]["sysA"]["ndcg_prm@10"] == custom["ndcg_prm@10"]
        # --theta 1, the table's own, gives the same bytes
        assert run_cli(capsys, [*argv, "--gains", "binary,prm", "--theta", "1"]) == (0, out, "")


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, capsys, ws, tmp_path):
        cfg = {
            "scale": ws["scale"],
            "pairs": ws["pairs"],
            "theta": 2,
            "estimator": "one-sided",
            "condition": "u2",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = run_cli(capsys, ["estimate", "--config", str(path)])
        assert code == 0
        assert "condition=u2" in out
        code, out, _ = run_cli(
            capsys, ["estimate", "--config", str(path), "--condition", "u1"]
        )
        assert code == 0
        assert "condition=u1" in out

    def test_hyphenated_keys_accepted(self, capsys, ws, tmp_path):
        cfg = {"scale": ws["scale"], "pairs": ws["pairs"], "theta": 2, "override-p0": True}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = run_cli(capsys, ["estimate", "--config", str(path)])
        assert code == 0
        assert "*override*" in out

    def test_unknown_config_key(self, capsys, ws, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus_key": 1}), encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            ["estimate", "--config", str(path), "--scale", ws["scale"],
             "--pairs", ws["pairs"], "--theta", "2"],
        )
        assert code == 1
        assert "unknown config keys" in err

    def test_non_object_config(self, capsys, ws, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            ["estimate", "--config", str(path), "--scale", ws["scale"],
             "--pairs", ws["pairs"], "--theta", "2"],
        )
        assert code == 1
        assert "config must be a JSON object" in err


class TestAnalyzeCommand:
    def test_tau_same_qrels_is_one(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "analyze", "tau", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--run", ws["run_reverse"],
                "--theta", "2",
            ],
        )
        assert code == 0
        assert out == "tau_b\t1.0000\n"

    def test_tau_two_qrels(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "analyze", "tau", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--qrels2", ws["qrels_u2"], "--run", ws["run_perfect"],
                "--run", ws["run_reverse"], "--theta", "2", "--format", "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert -1.0 <= payload["tau"] <= 1.0
        assert payload["variant"] == "b"
        assert len(payload["ranking_u1"]) == 2

    def test_bootstrap_requires_seed(self, capsys, ws):
        code, _, err = run_cli(
            capsys,
            [
                "analyze", "bootstrap", "--scale", ws["scale"],
                "--pairs", ws["pairs2"], "--theta", "2",
            ],
        )
        assert code == 1
        assert "--seed is required" in err

    def test_bootstrap_reruns_byte_identical(self, capsys, ws, tmp_path):
        outputs = []
        for name in ("b1.csv", "b2.csv"):
            target = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                [
                    "analyze", "bootstrap", "--scale", ws["scale"],
                    "--pairs", ws["pairs2"], "--theta", "2", "--seed", "7",
                    "--resamples", "40", "--format", "csv", "--out", str(target),
                ],
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bootstrap_text_output(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "analyze", "bootstrap", "--scale", ws["scale"],
                "--pairs", ws["pairs2"], "--theta", "2", "--seed", "7",
                "--resamples", "20",
            ],
        )
        assert code == 0
        assert "level 0: mean=" in out
        assert "level 2: mean=" in out

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_bootstrap_summarizes_each_level_once(self, capsys, ws, monkeypatch, fmt):
        from prmeval import disagreement

        summaries = mock.Mock(wraps=disagreement._summaries)
        monkeypatch.setattr(disagreement, "_summaries", summaries)
        code, _, _ = run_cli(capsys, [
            "analyze", "bootstrap", "--scale", ws["scale"], "--pairs", ws["pairs2"],
            "--theta", "2", "--seed", "7", "--resamples", "20", "--format", fmt,
        ])
        assert code == 0
        assert summaries.call_count == 3  # one per level of the 3-level scale

    def test_budget_requires_seed_and_budgets(self, capsys, ws):
        code, _, err = run_cli(
            capsys,
            [
                "analyze", "budget", "--scale", ws["scale"],
                "--pairs", ws["pairs"], "--theta", "2",
            ],
        )
        assert code == 1
        assert "--seed is required" in err
        code, _, err = run_cli(
            capsys,
            [
                "analyze", "budget", "--scale", ws["scale"],
                "--pairs", ws["pairs"], "--theta", "2", "--seed", "3",
            ],
        )
        assert code == 1
        assert "--budgets is required" in err

    def test_budget_curve_text(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "analyze", "budget", "--scale", ws["scale"], "--pairs", ws["pairs"],
                "--theta", "2", "--seed", "3", "--budgets", "5,10", "--rounds", "10",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("budget=5 ")
        assert lines[1].startswith("budget=10 ")
        assert "p2=" in lines[0]

    def test_budget_0_is_skipped_with_a_warning(self, capsys, ws):
        # argparse checks --budgets, and the sweep still warns as it skips a 0
        argv = ["analyze", "budget", "--scale", ws["scale"], "--pairs", ws["pairs"],
                "--theta", "2", "--seed", "3", "--rounds", "10", "--budgets"]
        with pytest.warns(DataWarning) as record:
            code, out, _ = run_cli(capsys, [*argv, "0,5,10"])
        assert code == 0 and [str(w.message) for w in record] == ["budget 0 skipped"]
        assert out == run_cli(capsys, [*argv, "5,10"])[1]

    def test_budget_reruns_byte_identical(self, capsys, ws, tmp_path):
        outputs = []
        for name in ("c1.csv", "c2.csv"):
            target = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                [
                    "analyze", "budget", "--scale", ws["scale"], "--pairs", ws["pairs"],
                    "--theta", "2", "--seed", "3", "--budgets", "5,10,20",
                    "--rounds", "10", "--format", "csv", "--out", str(target),
                ],
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

    def test_quality_sweep(self, capsys, ws, tmp_path):
        qrels = tmp_path / "quality_qrels.txt"
        qrels.write_text(
            "201 0 rA-d1 2\n201 0 rA-d2 1\n201 0 rB-d1 2\n201 0 rB-d2 0\n",
            encoding="utf-8",
        )
        pairs = tmp_path / "quality_pairs.txt"
        pairs.write_text(
            "201 rA-d1 2 2\n201 rA-d2 1 0\n201 rB-d1 2 0\n201 rB-d2 0 0\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys,
            [
                "analyze", "quality", "--scale", ws["scale"], "--qrels", str(qrels),
                "--pairs", str(pairs), "--theta", "2",
                "--resource-regex", r"^(r[A-Z])",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("top_k_resources=1 ")
        assert "p2=1.0000" in lines[0]
        assert "p2=0.6667" in lines[1]

    def test_quality_needs_resource_source(self, capsys, ws):
        code, _, err = run_cli(
            capsys,
            [
                "analyze", "quality", "--scale", ws["scale"],
                "--qrels", ws["qrels_u1"], "--pairs", ws["pairs"], "--theta", "2",
            ],
        )
        assert code == 1
        assert "--resource-map or --resource-regex" in err

    @pytest.mark.parametrize("flags, message", [
        (["--qrels", "broken", "--resource-regex", "^(d1?)"],
         "--pairs is required for the quality sweep"),
        (["--qrels", "broken", "--pairs", "pairs"], "supply --resource-map or --resource-regex"),
        (["--pairs", "broken", "--resource-regex", "^(d1?)"],
         "--qrels is required (reference group judgments)"),
        (["--qrels", "qrels_u1", "--resource-regex", "^(d1?)", "--scale", "absent"],
         "--pairs is required for the quality sweep"),
    ], ids=["pairs", "resource-source", "qrels", "before-the-scale"])
    def test_quality_reports_a_missing_flag_before_reading_any_file(
        self, capsys, ws, tmp_path, flags, message
    ):
        broken = tmp_path / "broken.txt"
        broken.write_text("201 0 d1\n", encoding="utf-8")
        files = {**ws, "broken": str(broken), "absent": str(tmp_path / "absent.json")}
        argv = ["analyze", "quality", "--scale", ws["scale"], "--theta", "2"]
        code, out, err = run_cli(capsys, argv + [files.get(f, f) for f in flags])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("raised, line", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape (999999999999,)"),
         "error: not enough memory: Unable to allocate 7.28 TiB for an array with shape "
         "(999999999999,)\n"),
        (MemoryError(), "error: not enough memory\n"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_one_error_line(self, capsys, ws, monkeypatch, raised, line):
        # the draw of a budget this large cannot be allocated; a stand-in
        # generator raises in its place, so that the test allocates nothing
        from prmeval import analysis

        class Exhausted:
            def integers(self, low, high, size):
                raise raised

        monkeypatch.setattr(analysis, "_round_rng", lambda seed, r: Exhausted())
        code, out, err = run_cli(capsys, [
            "analyze", "budget", "--scale", ws["scale"], "--pairs", ws["pairs"],
            "--budgets", "999999999999", "--rounds", "1", "--seed", "1",
        ])
        assert (code, out, err) == (1, "", line)

    @pytest.mark.parametrize("budget, reason", [
        ("99999999999999999999", "Maximum allowed dimension exceeded"),
        ("9223372036854775807",
         "array is too big; `arr.size * arr.dtype.itemsize` is larger than the maximum "
         "possible size."),
    ], ids=["beyond-int64", "int64-max"])
    def test_budget_numpy_cannot_size_is_one_error_line(self, capsys, ws, budget, reason):
        # numpy rejects these sizes before it allocates anything
        code, out, err = run_cli(capsys, [
            "analyze", "budget", "--scale", ws["scale"], "--pairs", ws["pairs"],
            "--budgets", budget, "--rounds", "1", "--seed", "1",
        ])
        assert (code, out, err) == (1, "", f"error: not enough memory: {reason}\n")

    @pytest.mark.parametrize("kind", ["bootstrap", "budget", "quality"])
    def test_one_sided_collection_blocks_symmetric(self, capsys, ws, kind):
        _, _, refused = run_cli(
            capsys,
            ["estimate", "--scale", ws["scale"], "--pairs", ws["pairs"], "--one-sided-collection"],
        )
        extra = {
            "bootstrap": ["--pairs", ws["pairs2"], "--seed", "1", "--resamples", "5"],
            "budget": ["--pairs", ws["pairs"], "--seed", "1", "--budgets", "5,10"],
            "quality": ["--pairs", ws["pairs"], "--qrels", ws["qrels_u1"],
                        "--resource-regex", "^(d1?)"],
        }[kind]
        argv = [
            "analyze", kind, "--scale", ws["scale"], "--theta", "2",
            "--one-sided-collection", *extra,
        ]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err == refused
        assert err == "error: --one-sided-collection needs --estimator one-sided\n"
        code, out, _ = run_cli(capsys, argv + ["--estimator", "one-sided"])
        assert code == 0
        assert out

    def test_robustness_identical_sets(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "analyze", "robustness", "--scale", ws["scale"],
                "--qrels", ws["qrels_u1"], "--qrels2", ws["qrels_u1"],
                "--run", ws["run_perfect"], "--run", ws["run_reverse"],
                "--theta", "2",
            ],
        )
        assert code == 0
        assert out == "binary\t1.0000\nexponential\t1.0000\nlinear\t1.0000\n"

    def test_robustness_with_prm_gains(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "analyze", "robustness", "--scale", ws["scale"],
                "--qrels", ws["qrels_u1"], "--qrels2", ws["qrels_u2"],
                "--pairs", ws["pairs"], "--run", ws["run_perfect"],
                "--run", ws["run_reverse"], "--theta", "2",
                "--gains", "binary,prm", "--format", "csv",
            ],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "scheme,tau"
        assert lines[1].startswith("binary,")
        assert lines[2].startswith("prm,")


class TestRankingFlags:
    """`analyze tau` and `analyze robustness` honour --strict and --ideal-pool."""

    @staticmethod
    def write_run(tmp_path, system: str, by_topic: dict[str, list[str]]) -> str:
        path = tmp_path / f"{system}.txt"
        path.write_text(
            "".join(
                f"{topic} Q0 {doc} {rank} {float(100 - rank)} {system}\n"
                for topic, docs in by_topic.items()
                for rank, doc in enumerate(docs, start=1)
            ),
            encoding="utf-8",
        )
        return str(path)

    def argv(self, ws, kind: str, runs: list[str], gains: str) -> list[str]:
        # --theta only where binary gains read it
        theta = ["--theta", "2"] if "binary" in gains.split(",") else []
        return [
            "analyze", kind, "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
            "--qrels2", ws["qrels_u2"], *[a for r in runs for a in ("--run", r)],
            *theta, "--gains", gains, "--format", "json",
        ]

    @pytest.mark.parametrize("kind", ["tau", "robustness"])
    def test_strict_rejects_unjudged_topics(self, capsys, ws, tmp_path, kind):
        extra = self.write_run(tmp_path, "sysC", {"201": ["d1"], "202": ["d2"]})
        argv = self.argv(ws, kind, [ws["run_perfect"], ws["run_reverse"], extra], "binary")
        with pytest.warns(DataWarning, match="skipping topics without judgments"):
            code, _, _ = run_cli(capsys, argv)
        assert code == 0
        code, _, err = run_cli(capsys, argv + ["--strict"])
        assert code == 1
        assert "run sysC has unjudged topics (strict mode)" in err

    def test_ideal_pool_reaches_both_analyses(self, capsys, ws, tmp_path):
        # two shallow runs, which self-normalise under --ideal-pool run
        runs = [
            ws["run_perfect"], ws["run_reverse"],
            self.write_run(tmp_path, "sysC", {"201": ["d1", "d3"]}),
            self.write_run(tmp_path, "sysD", {"201": ["d5", "d6", "d7"]}),
        ]
        taus = {}
        for pool in ("qrels", "run"):
            extra = ["--ideal-pool", pool]
            code, out, _ = run_cli(capsys, self.argv(ws, "tau", runs, "linear") + extra)
            assert code == 0
            tau = json.loads(out)["tau"]
            code, out, _ = run_cli(capsys, self.argv(ws, "robustness", runs, "linear") + extra)
            assert code == 0
            assert json.loads(out)["tau"]["linear"] == tau
            taus[pool] = tau
        assert taus["qrels"] != taus["run"]


class TestValidateCommand:
    def test_reports_ok_lines(self, capsys, ws):
        code, out, _ = run_cli(
            capsys,
            [
                "validate", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                "--pairs", ws["pairs"], "--run", ws["run_perfect"],
            ],
        )
        assert code == 0
        assert "ok: scale with 3 levels" in out
        assert "ok: qrels with 20 judgments, 1 topics" in out
        assert "ok: pairs with 20 double judgments" in out
        assert "ok: run sysA with 20 entries, 1 topics" in out

    def test_nothing_to_validate(self, capsys):
        code, _, err = run_cli(capsys, ["validate"])
        assert code == 1
        assert "nothing to validate" in err

    def test_bad_qrels_level(self, capsys, ws, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("201 0 d1 9\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, ["validate", "--scale", ws["scale"], "--qrels", str(bad)]
        )
        assert code == 1
        assert "level 9 > T=2" in err

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ("201 Q0 d2 x 1.0 sysB\n", "line 2: non-integer rank: 'x'"),
            ("201 Q0 d2 3 1.0 sysB\n", "topic 201: ranks not contiguous"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "eval"])
    def test_parse_error_names_the_file(self, capsys, ws, tmp_path, command, bad_line, message):
        runs = []
        for system in ("sysA", "sysB", "sysC"):
            second = bad_line if system == "sysB" else f"201 Q0 d2 2 1.0 {system}\n"
            path = tmp_path / f"run_{system}.txt"
            path.write_text(f"201 Q0 d1 1 2.0 {system}\n" + second, encoding="utf-8")
            runs += ["--run", str(path)]
        head = {
            "validate": ["validate"],
            "eval": ["eval", "--qrels", ws["qrels_u1"], "--theta", "2"],
        }[command]
        code, out, err = run_cli(capsys, [*head, "--scale", ws["scale"], *runs])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {tmp_path / 'run_sysB.txt'}: {message}")
        assert err.count("\n") == 1


class TestIntentsFile:
    """--intents declares the intents that an intent-'0' record expands over."""

    @pytest.fixture()
    def files(self, tmp_path):
        texts = {
            # topic 202's top intent, c, appears only in the intents file
            "qrels.txt": "201 a d1 2\n201 b d2 1\n202 b d3 2\n202 0 d4 0\n",
            "intents.txt": "201 a 0.9\n201 b 0.1\n202 c 0.8\n202 b 0.2\n",
            # topic 202 has intent-'0' records only
            "u1.txt": "201 a d1 2\n201 b d1 1\n201 a d2 1\n202 0 d5 0\n202 0 d6 0\n",
            "u2.txt": "201 a d1 1\n201 b d1 1\n201 a d2 2\n202 0 d5 0\n202 0 d6 0\n",
            "pairs_intents.txt": "201 a 0.6\n201 b 0.4\n202 c 0.7\n202 d 0.3\n",
        }
        for name, text in texts.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        return {name.split(".")[0]: str(tmp_path / name) for name in texts}

    def test_estimate_expands_over_declared_intents(self, capsys, ws, files):
        code, out, err = run_cli(capsys, [
            "estimate", "--scale", ws["scale"], "--qrels", files["u1"], "--qrels2", files["u2"],
            "--intent-field", "--intents", files["pairs_intents"], "--theta", "2",
        ])
        assert code == 0, err
        # d5 and d6 under intents c and d: four level-0 pairs per group
        assert "[0/8]" in out

    def test_top_intent_only_keeps_a_declared_intent(self, capsys, ws, files):
        code, out, err = run_cli(capsys, [
            "eval", "--scale", ws["scale"], "--qrels", files["qrels"], "--intent-field",
            "--intents", files["intents"], "--top-intent-only", "--measures", "count-binary",
            "--theta", "1",
        ])
        assert code == 0, err
        assert "count_binary\t201\t1.0000" in out
        assert "count_binary\t202\t0.0000" in out

    @pytest.mark.parametrize("top_only, judgments", [(False, 5), (True, 2)])
    def test_validate_honours_intent_flags(self, capsys, ws, files, top_only, judgments):
        code, out, err = run_cli(capsys, [
            "validate", "--scale", ws["scale"], "--qrels", files["qrels"], "--intent-field",
            "--intents", files["intents"], *(["--top-intent-only"] if top_only else []),
        ])
        assert code == 0, err
        assert f"ok: qrels with {judgments} judgments, 2 topics" in out


    def test_validate_reads_intents_without_qrels(self, ws, files, tmp_path):
        # a missing --intents file is an I/O error, with or without qrels
        missing = str(tmp_path / "nope.txt")
        proc = _prmeval("validate", "--scale", ws["scale"], "--intents", missing)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("io error: ") and proc.stderr.count("\n") == 1
        assert missing in proc.stderr
        # a good one changes nothing in the output
        proc = _prmeval("validate", "--scale", ws["scale"], "--intents", files["intents"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "ok: scale with 3 levels ('Non', 'Rel', 'HRel')\n"
        # a bad one is a parse error that names it
        proc = _prmeval("validate", "--scale", ws["scale"], "--intents", files["qrels"])
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"error: {files['qrels']}: ")


class TestParseWarnings:
    def test_paired_file_warnings_name_it_in_order(self, capsys, ws, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("201 d1 2 1\n201 d2 0 0\n201 d1 1 1\n201 d2 2 2\n", encoding="utf-8")
        with pytest.warns(DataWarning) as record:
            code, _, err = run_cli(capsys, [
                "estimate", "--scale", ws["scale"], "--pairs", str(path), "--theta", "2",
            ])
        assert code == 0, err
        messages = [str(w.message) for w in record if "extra judgments" in str(w.message)]
        assert messages == [
            f"{path}: line {n}: extra judgments for (topic=201, doc={doc}) ignored; "
            "only the first two are used"
            for n, doc in ((3, "d1"), (4, "d2"))
        ]

    def test_run_file_warning_names_it(self, capsys, ws, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("201 Q0 d1 1 1.0 s\n201 Q0 d2 2 2.0 s\n", encoding="utf-8")
        with pytest.warns(DataWarning, match="scores increase") as record:
            code, _, err = run_cli(capsys, ["validate", "--run", str(path)])
        assert code == 0, err
        assert [str(w.message) for w in record] == [
            f"{path}: run s, topic 201: scores increase down the ranking; keeping rank order"
        ]


class TestCsvFields:
    @pytest.mark.filterwarnings("ignore::prmeval.errors.DataWarning")
    def test_fields_with_commas_are_quoted(self, capsys, tmp_path):
        files = {
            "scale.json": json.dumps({"labels": ["Non", "Rel, partly", "HRel"]}),
            "pairs.txt": "t,1 d1 2 1\nt,1 d2 1 1\nt,1 d3 0 2\nt2 d1 1 0\nt2 d2 2 2\n",
            "qrels.txt": "t,1 0 d1 2\nt,1 0 d2 1\nt,1 0 d3 0\nt2 0 d1 1\n",
            "run.txt": "t,1 Q0 d3 1 3.0 sys,A\nt,1 Q0 d1 2 2.0 sys,A\nt2 Q0 d1 1 1.0 sys,A\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        common = ["--scale", str(tmp_path / "scale.json"), "--pairs", str(tmp_path / "pairs.txt"),
                  "--theta", "2", "--format", "csv"]
        commands = {
            "estimate": ["estimate"],
            "eval": ["eval", "--qrels", str(tmp_path / "qrels.txt"), "--run",
                     str(tmp_path / "run.txt"), "--gains", "binary,prm"],
            "bootstrap": ["analyze", "bootstrap", "--seed", "1", "--resamples", "5"],
        }
        fields = set()
        for command, argv in commands.items():
            code, out, err = run_cli(capsys, [*argv, *common])
            assert code == 0, err
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) > 1
            assert all(len(row) == len(rows[0]) for row in rows), command
            fields.update(field for row in rows for field in row)
        assert {"Rel, partly", "t,1", "sys,A"} <= fields


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "command, flag, value",
        [("eval", "--custom-gains", "a,b,c"), ("budget", "--budgets", "x")],
    )
    def test_malformed_number_list_is_an_error(self, ws, command, flag, value):
        import subprocess
        import sys

        head = {
            "eval": ["eval", "--qrels", ws["qrels_u1"], "--run", ws["run_perfect"],
                     "--gains", "custom"],
            "budget": ["analyze", "budget", "--pairs", ws["pairs"], "--seed", "1"],
        }[command]
        proc = subprocess.run(
            [sys.executable, "-m", "prmeval", *head, "--scale", ws["scale"],
             "--theta", "2", flag, value],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {flag} takes a comma list")

    @pytest.mark.parametrize(
        "pattern, message",
        [
            ("(", "error: bad resource pattern '(': missing ), unterminated subpattern"),
            (r"d\d", r"error: resource pattern needs a capture group: 'd\\d'"),
            # group 1 takes no part in the match of any doc id, d1 first
            ("^(x)?d", "error: doc id 'd1' does not match resource pattern"),
        ],
    )
    def test_bad_resource_regex_is_an_error(self, ws, pattern, message):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "prmeval", "analyze", "quality", "--scale", ws["scale"],
             "--qrels", ws["qrels_u1"], "--pairs", ws["pairs"], "--theta", "2",
             "--resource-regex", pattern],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(message)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"theta": 2}', "disagreement table lacks 'scale'"),
            ('{"scale": {"labels": ["a", "b", "c"]}, "cells": []}',
             "disagreement table lacks 'theta'"),
            ('{"scale": {"labels": ["a", "b", "c"]}, "theta": 2}',
             "disagreement table lacks 'cells'"),
            ('[1, 2]', "a disagreement table must be a JSON object"),
            ('{"scale": {"labels": ["a", "b", "c"]}, "theta": 2, "cells": [{"p": 1}]}',
             "malformed disagreement table: KeyError('level')"),
            ("theta: 2\n", "disagreement table is not valid JSON"),
            # a boolean or a fraction is no whole number, a boolean no real
            pytest.param(_table(theta=True), NOT_WHOLE + "True')", id="theta-true"),
            pytest.param(_table(theta=2.7), NOT_WHOLE + "2.7')", id="theta-fraction"),
            pytest.param(_table(1, level=True), NOT_WHOLE + "True')", id="level-true"),
            pytest.param(_table(2, level=2.5), NOT_WHOLE + "2.5')", id="level-fraction"),
            pytest.param(_table(1, n_match=4.5), NOT_WHOLE + "4.5')", id="n-match-fraction"),
            pytest.param(_table(1, n_total=True), NOT_WHOLE + "True')", id="n-total-true"),
            pytest.param(_table(2, p=True), NOT_REAL, id="p-true"),
            pytest.param(_table(1, sigma=True), NOT_REAL, id="sigma-true"),
            pytest.param(_table(1, n_match=15), "level 1: need 0 <= n_match <= n_total, "
                         "got 15/10", id="n-match-above-n-total"),
            pytest.param(_table(0, n_total=-3), "level 0: need 0 <= n_match <= n_total, "
                         "got 1/-3", id="n-total-negative"),
            pytest.param(_table(1, sigma=-0.5), "sigma must be finite and >= 0, got -0.5",
                         id="sigma-negative"),
        ],
    )
    def test_malformed_table_is_an_error(self, ws, tmp_path, text, message):
        import subprocess
        import sys

        table = tmp_path / "t.json"
        table.write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [
                sys.executable, "-m", "prmeval", "eval", "--scale", ws["scale"],
                "--qrels", ws["qrels_u1"], "--run", ws["run_perfect"],
                "--gains", "prm", "--table", str(table),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {table}: {message}")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"format": "xml"}, "argument --format: invalid choice: 'xml'"),
            ({"discount": "cosine"}, "argument --discount: invalid choice: 'cosine'"),
            ({"run": None}, None),  # replaced by the run file's path below
            ({"k": 2.5}, "argument --k: invalid int value: '2.5'"),
            ({"k": [1]}, "config key 'k' takes one value, got [1]"),
            ({"gains": 3}, "unknown gain scheme '3'"),
        ],
        ids=["format", "discount", "run", "k_float", "k_list", "gains"],
    )
    def test_config_values_are_checked_like_flags(self, ws, tmp_path, config, message):
        import subprocess
        import sys

        runs = []
        if "run" in config:
            config = {"run": ws["run_perfect"]}
        else:
            runs = ["--run", ws["run_perfect"]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "prmeval", "eval", "--scale", ws["scale"],
             "--qrels", ws["qrels_u1"], "--theta", "2", *runs, "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in proc.stderr
        if message is None:
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.count("# run ") == 1
        else:
            assert proc.returncode == 1
            assert message in proc.stderr
            assert proc.stdout == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"labels": 5}', "bad scale descriptor labels: 5"),
            ('{"levels": {"0": "a", "1": "b"}, "top_index": "x"}',
             "bad scale descriptor top_index: 'x'"),
        ],
    )
    def test_malformed_scale_is_an_error(self, tmp_path, text, message):
        import subprocess
        import sys

        scale = tmp_path / "scale.json"
        scale.write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "prmeval", "validate", "--scale", str(scale)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {scale}: {message}\n"

    @pytest.mark.parametrize(
        "base, message",
        [
            ("nan", "log discount base must be > 1, got nan"),
            ("inf", "log discount base must be finite, got inf"),
            ("1", "log discount base must be > 1, got 1.0"),
        ],
    )
    def test_log_base_must_be_finite_and_above_one(self, capsys, ws, base, message):
        code, out, err = run_cli(capsys, [
            "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
            "--run", ws["run_perfect"], "--theta", "2", "--log-base", base,
        ])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    # a file of 20000 records: a bad byte after it lies well past the
    # first block that is read
    LONG = {
        "--qrels": "".join(f"201 0 d{i} 1\n" for i in range(1, 20001)),
        "--pairs": "".join(f"201 d{i} 1 2\n" for i in range(1, 20001)),
        "--run": "".join(f"201 Q0 d{r} {r} 1.0 s\n" for r in range(1, 20001)),
    }

    @staticmethod
    def _validate(ws, flag, path):
        import subprocess
        import sys

        inputs = {"--scale": ws["scale"], "--qrels": ws["qrels_u1"], "--run": ws["run_perfect"]}
        inputs[flag] = path
        return subprocess.run(
            [sys.executable, "-m", "prmeval", "validate",
             *[a for item in inputs.items() for a in item]],
            capture_output=True,
            text=True,
        )

    @pytest.mark.parametrize("flag, text", [
        pytest.param("--scale", '{"labels": ["Non", "Rel\xe9", "HRel"]}', id="--scale"),
        pytest.param("--qrels", "201 0 d1 2\n201 0 caf\xe9 1\n", id="--qrels"),
        pytest.param("--pairs", "201 d1 2 1\n201 caf\xe9 1 1\n", id="--pairs"),
        pytest.param("--qrels", LONG["--qrels"] + "201 0 caf\xe9 1\n", id="--qrels-past-first-block"),
        pytest.param("--run", LONG["--run"] + "# \xe9t\xe9\n", id="--run"),
    ])
    def test_non_utf8_input_is_one_error_line(self, ws, tmp_path, flag, text):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(text.encode("latin-1"))
        proc = self._validate(ws, flag, str(bad))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {bad}: not UTF-8 text (byte 0xe9: invalid continuation byte)\n"

    @pytest.mark.parametrize("flag, record", [
        ("--qrels", "201 0 d0 7\n"),
        ("--pairs", "201 d0 1 7\n"),
        ("--run", "201 Q0 d0 x 1.0 s\n"),
    ], ids=["--qrels", "--pairs", "--run"])
    def test_fault_before_a_non_utf8_byte_is_reported_first(self, ws, tmp_path, flag, record):
        # a file is read one block at a time, so a fault in its first block
        # is found before a byte that is not UTF-8 in a later one
        bad = tmp_path / "latin1.txt"
        bad.write_bytes((record + self.LONG[flag] + "# \xe9t\xe9\n").encode("latin-1"))
        proc = self._validate(ws, flag, str(bad))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        fault = "non-integer rank: 'x'" if flag == "--run" else "level 7 > T=2"
        assert proc.stderr == f"error: {bad}: line 1: {fault}\n"

    @pytest.mark.parametrize("flag", ["--scale", "--qrels", "--run"])
    def test_byte_order_mark_is_dropped(self, capsys, ws, tmp_path, flag):
        from pathlib import Path

        inputs = {"--scale": ws["scale"], "--qrels": ws["qrels_u1"], "--run": ws["run_perfect"]}
        bom = tmp_path / "bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(inputs[flag]).read_bytes())
        for command in (["validate"], ["eval", "--theta", "2"]):
            argv = [*command, *[a for item in inputs.items() for a in item]]
            plain = run_cli(capsys, argv)
            with_bom = run_cli(capsys, [str(bom) if a == inputs[flag] else a for a in argv])
            assert plain[0] == 0
            assert with_bom == tuple(part.replace(inputs[flag], str(bom)) if isinstance(part, str)
                                     else part for part in plain)

    @pytest.mark.parametrize("flag, record, fault", [
        ("--qrels", "201 0 d{0} 7\n", "level 7 > T=2"),
        ("--pairs", "201 d{0} 1 7\n", "level 7 > T=2"),
        ("--run", "201 Q0 d{0} {0} 1.x s\n", "non-numeric score: '1.x'"),
    ], ids=["--qrels", "--pairs", "--run"])
    def test_fault_at_the_end_of_a_block_is_reported_before_a_bad_byte_after_it(
        self, ws, tmp_path, flag, record, fault
    ):
        # the line that the first 64 KiB block ends in is a fault of the
        # same length, and the line after it holds a byte that is not UTF-8:
        # blocks are read and decoded one at a time, in file order, so the
        # fault comes first (text mode decodes 8 KiB ahead, which found the
        # byte first)
        lines = self.LONG[flag].splitlines(keepends=True)
        at, size = 0, 0
        while size < 1 << 16:
            size += len(lines[at])
            at += 1
        lines[at - 1] = record.format(at)
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("".join(lines[:at] + ["# \xe9t\xe9\n"] + lines[at:]).encode("latin-1"))
        proc = self._validate(ws, flag, str(bad))
        assert (proc.returncode, proc.stderr) == (1, f"error: {bad}: line {at}: {fault}\n")

    def test_crlf_and_byte_order_mark_give_the_same_bytes(self, capsys, ws, tmp_path):
        # every judgment and run file copied with CRLF line ends after a
        # byte-order mark, as an editor on Windows may save it
        copies = {}
        for name in ("qrels_u1", "qrels_u2", "pairs", "run_perfect", "run_reverse"):
            copy = tmp_path / f"crlf_{name}.txt"
            data = Path(ws[name]).read_bytes().replace(b"\n", b"\r\n")
            copy.write_bytes(b"\xef\xbb\xbf" + data)
            copies[ws[name]] = str(copy)
        both = ["--scale", ws["scale"], "--qrels", ws["qrels_u1"]]
        runs = ["--run", ws["run_perfect"], "--run", ws["run_reverse"]]
        for argv in (
            ["validate", *both, "--qrels2", ws["qrels_u2"], "--pairs", ws["pairs"], *runs],
            ["eval", *both, "--pairs", ws["pairs"], *runs, "--gains", "binary,prm",
             "--measures", "ndcg,precision,count-prm", "--format", "csv"],
            ["estimate", *both, "--qrels2", ws["qrels_u2"], "--estimator", "all"],
            ["estimate", "--scale", ws["scale"], "--pairs", ws["pairs"], "--format", "json"],
        ):
            plain = run_cli(capsys, argv)
            crlf = run_cli(capsys, [copies.get(a, a) for a in argv])
            assert plain[0] == 0
            for original, copy in copies.items():
                plain = tuple(part.replace(original, copy) if isinstance(part, str) else part
                              for part in plain)
            assert crlf == plain, argv[0]

    def test_python_dash_m(self, ws):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable, "-m", "prmeval", "estimate",
                "--scale", ws["scale"], "--pairs", ws["pairs"], "--theta", "2",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "p=0.4000" in proc.stdout


class TestWarningLines:
    @pytest.mark.parametrize(
        "command, text, line",
        [
            ("validate", "201 Q0 d1 1 1.0 s\n201 Q0 d2 2 2.0 s\n",
             "run s, topic 201: scores increase down the ranking; keeping rank order"),
            ("estimate", "201 a 2 1\n201 b 1 2\n201 c 0 0\n202 x 0 1\n202 y 0 0\n203 p 1 2\n",
             "non-monotone disagreement estimates: p(level 1) = 0.7500 > "
             "p(level 2) = 0.0000 beyond noise"),
        ],
    )
    def test_warning_is_one_plain_line(self, ws, tmp_path, command, text, line):
        import subprocess
        import sys

        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        flag = "--run" if command == "validate" else "--pairs"
        proc = subprocess.run(
            [sys.executable, "-m", "prmeval", command, "--scale", ws["scale"], flag, str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        # a parser's warning names its file; the estimator's does not
        prefix = f"{path}: " if command == "validate" else ""
        assert proc.stderr == f"warning: {prefix}{line}\n"
        assert "<string>" not in proc.stderr
        assert "DataWarning:" not in proc.stderr

    def test_formatter_restored_after_main(self, capsys, ws):
        import warnings

        before = warnings.formatwarning
        assert run_cli(capsys, ["validate", "--scale", ws["scale"]])[0] == 0
        assert run_cli(capsys, ["validate"])[0] == 1
        assert warnings.formatwarning is before


def _prmeval(*argv: str):
    import subprocess
    import sys

    return subprocess.run(
        [sys.executable, "-m", "prmeval", *argv], capture_output=True, text=True
    )


class TestTableWarnings:
    """A table is checked for non-monotone levels where a command shows or
    scores with it, after --override-p0; resampled tables are not."""

    @staticmethod
    def _random_pairs() -> str:
        # 36 pairs of random levels over 6 topics: many resampled tables
        # drop beyond the noise band somewhere
        rng = random.Random(0)
        return "".join(f"t{i % 6} d{i} {rng.randrange(3)} {rng.randrange(3)}\n" for i in range(36))

    # one-sided on U1: p(0) = 1, p(1) = 0, p(2) = 1, each with sigma 0
    LOW_P1 = "".join(f"201 a{i} 0 2\n201 b{i} 1 0\n201 c{i} 2 2\n" for i in range(10))

    @pytest.mark.parametrize("kind, flags", [
        ("bootstrap", ["--resamples", "30"]),
        ("budget", ["--budgets", "5,10,20", "--rounds", "30"]),
    ])
    def test_resamples_do_not_warn(self, capsys, ws, tmp_path, kind, flags):
        import warnings

        pairs = tmp_path / "random.txt"
        pairs.write_text(self._random_pairs(), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [
                "analyze", kind, "--scale", ws["scale"], "--pairs", str(pairs),
                "--seed", "1", *flags,
            ])
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("override", [False, True], ids=["estimate", "override-p0"])
    @pytest.mark.parametrize("command", ["estimate", "eval"])
    def test_table_checked_after_override(self, ws, tmp_path, command, override):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(self.LOW_P1, encoding="utf-8")
        argv = [command, "--scale", ws["scale"], "--pairs", str(pairs),
                "--estimator", "one-sided", "--theta", "2"]
        if command == "eval":
            argv += ["--qrels", ws["qrels_u1"], "--run", ws["run_perfect"], "--gains", "prm"]
        proc = _prmeval(*argv, *(["--override-p0"] if override else []))
        assert proc.returncode == 0, proc.stderr
        warning = ("warning: non-monotone disagreement estimates: p(level 0) = 1.0000 > "
                   "p(level 1) = 0.0000 beyond noise\n")
        assert proc.stderr == ("" if override else warning)


class TestEvalInputs:
    def test_gains_are_not_read_without_ndcg(self, ws):
        # the gains only apply to ndcg, which is not measured here
        proc = _prmeval("eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                        "--theta", "2", "--measures", "count-binary", "--gains", "prm")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: --gains is not read without ndcg\n"

    @pytest.mark.parametrize("measures, message", [
        # count-binary checks theta against the scale, as the estimators do
        ("count-binary", "theta 7 > T=2 for scale ('Non', 'Rel', 'HRel')"),
        # the binary nDCG scheme is resolved first and keeps its message
        ("count-binary,ndcg", "need 1 <= theta <= T, got theta=7, T=2"),
    ], ids=["count-binary", "count-binary,ndcg"])
    def test_theta_above_top_is_an_error(self, ws, measures, message):
        # a run is read only for a run measure
        run = ["--run", ws["run_perfect"]] if "ndcg" in measures else []
        proc = _prmeval("eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                        *run, "--measures", measures, "--theta", "7")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")

    SOURCES = "error: double judgments must come from exactly one source: " \
        "--pairs or --qrels + --qrels2\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "--qrels", "{qrels_u1}", "--measures", "count-binary", "--theta", "2"],
        ["eval", "--qrels", "{qrels_u1}", "--table", "{degenerate}", "--run", "{run_perfect}"],
        ["estimate"],
        ["analyze", "bootstrap", "--seed", "1"],
        ["analyze", "budget", "--seed", "1", "--budgets", "5"],
    ], ids=["eval-count-binary", "eval-table", "estimate", "bootstrap", "budget"])
    def test_pairs_and_qrels2_exclude_each_other(self, ws, tmp_path, argv):
        # checked before any file is read: neither --pairs nor --qrels2 exists
        argv = [a.format(**ws) for a in argv]
        missing = [str(tmp_path / "no_pairs.txt"), str(tmp_path / "no_qrels2.txt")]
        proc = _prmeval(*argv, "--scale", ws["scale"], "--pairs", missing[0],
                        "--qrels2", missing[1])
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", self.SOURCES)

    @pytest.mark.parametrize("kind", ["tau", "robustness"])
    def test_ranking_analyses_take_pairs_with_qrels2(self, ws, kind):
        proc = _prmeval("analyze", kind, "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                        "--qrels2", ws["qrels_u2"], "--pairs", ws["pairs"], "--theta", "2",
                        "--run", ws["run_perfect"], "--run", ws["run_reverse"], "--gains", "prm")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout

    def test_skipped_topics_warned_once_per_run(self, ws, tmp_path):
        from pathlib import Path

        runs = []
        for name, system in (("run_perfect", "sysA"), ("run_reverse", "sysB")):
            path = tmp_path / f"{name}_unjudged.txt"
            path.write_text(Path(ws[name]).read_text(encoding="utf-8")
                            + f"999 Q0 d1 1 1.0 {system}\n", encoding="utf-8")
            runs += ["--run", str(path)]
        proc = _prmeval("eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                        "--pairs", ws["pairs"], "--theta", "2", *runs,
                        "--measures", "precision,ndcg")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            f"warning: run {system}: skipping topics without judgments: ['999']"
            for system in ("sysA", "sysB")
        ]


def _parsers() -> dict[str, argparse.ArgumentParser]:
    """Each command's parser, keyed by the words that select it ('analyze tau')."""
    found = {}

    def walk(parser: argparse.ArgumentParser, words: tuple[str, ...]) -> None:
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for name, sub in (subs[0].choices.items() if subs else ()):
            walk(sub, (*words, name))
        if not subs:
            found[" ".join(words)] = parser

    walk(build_parser(), ())
    return found


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


# what each parser takes, written out: the handler reads every one of them
SHARED = {"--scale", "--pairs", "--qrels", "--intent-field", "--intents", "--top-intent-only",
          "--config", "--format", "--out"}
MODEL = {"--one-sided-collection", "--theta", "--estimator", "--condition"}
SCORING = {"--override-p0", "--run", "--gains", "--custom-gains", "--table", "--discount",
           "--log-base", "--k", "--ideal-pool", "--strict"}
RANKING = SHARED | MODEL | SCORING | {"--qrels2", "--tau-variant"}
BOOTSTRAP = SHARED | MODEL | {"--qrels2", "--seed", "--resamples"}
TAKES = {
    "estimate": SHARED | MODEL | {"--qrels2", "--override-p0", "--strata"},
    "eval": SHARED | MODEL | SCORING | {"--qrels2", "--measures"},
    "analyze tau": RANKING,
    "analyze bootstrap": BOOTSTRAP,
    "analyze budget": BOOTSTRAP - {"--resamples"} | {"--rounds", "--budgets"},
    "analyze quality": SHARED | MODEL | {"--resource-map", "--resource-regex"},
    "analyze robustness": RANKING,
    "validate": SHARED | {"--qrels2", "--run"},
}
PARSERS = _parsers()
KINDS = [words.split()[1] for words in PARSERS if words.startswith("analyze ")]

# an otherwise valid command line for each parser, with `ws` keys for files
VALID = {
    "estimate": ["--pairs", "pairs"],
    "eval": ["--qrels", "qrels_u1", "--pairs", "pairs", "--run", "run_perfect",
             "--gains", "prm"],
    "analyze tau": ["--qrels", "qrels_u1", "--qrels2", "qrels_u2", "--run", "run_perfect",
                    "--run", "run_reverse", "--gains", "prm"],
    "analyze bootstrap": ["--pairs", "pairs2", "--seed", "1", "--resamples", "5"],
    "analyze budget": ["--pairs", "pairs", "--seed", "1", "--budgets", "5", "--rounds", "2"],
    "analyze quality": ["--pairs", "pairs", "--qrels", "qrels_u1", "--resource-regex", "^(d1?)"],
    "validate": ["--qrels", "qrels_u1", "--pairs", "pairs"],
}
VALID["analyze robustness"] = VALID["analyze tau"]

PATH_FLAGS = ("--scale", "--qrels", "--qrels2", "--pairs", "--run", "--table", "--intents",
              "--strata", "--resource-map", "--config")


def _valid(ws, words: str) -> list[str]:
    theta = [] if words == "validate" else ["--theta", "2"]
    files = [ws.get(a, a) for a in VALID[words]]
    return [*words.split(), "--scale", ws["scale"], *theta, *files]


# One case or more for each row of `cli._RULES`, in its order: (id, command
# line, the one error line).  Every path names a file that does not exist,
# M here, so a case passes only if its rule fires before any file is read.
M = "missing"
RANK_FLAGS = ["--scale", M, "--qrels", M, "--run", M, "--run", M]
RANK2_FLAGS = [*RANK_FLAGS, "--qrels2", M]
EVAL_ARGV = ["eval", "--scale", M, "--qrels", M]
NEEDS_ONE_SIDED = "--one-sided-collection needs --estimator one-sided"
NEEDS_U1 = "--one-sided-collection needs --condition u1"
NOT_READ_NO_TABLE = "is not read when no measure or gain scheme needs a table"
RULE_CASES = [
    ("estimate-condition", ["estimate", "--scale", M, "--pairs", M, "--condition", "u2"],
     "--condition needs --estimator one-sided"),
    ("tau-two-gains", ["analyze", "tau", *RANK_FLAGS, "--gains", "binary,prm", "--pairs", M],
     "analyze tau uses exactly one gain scheme"),
    ("robustness-no-qrels2", ["analyze", "robustness", *RANK_FLAGS],
     "robustness needs --qrels and --qrels2"),
    ("bootstrap-seed", ["analyze", "bootstrap", "--scale", M, "--pairs", M],
     "--seed is required: resampling must be reproducible"),
    ("budget-seed", ["analyze", "budget", "--scale", M, "--pairs", M, "--budgets", "5"],
     "--seed is required: resampling must be reproducible"),
    ("budget-budgets", ["analyze", "budget", "--scale", M, "--pairs", M, "--seed", "1"],
     "--budgets is required (comma list, e.g. 50,100,200)"),
    ("quality-qrels", ["analyze", "quality", "--scale", M, "--pairs", M, "--resource-map", M],
     "--qrels is required (reference group judgments)"),
    ("quality-resource", ["analyze", "quality", "--scale", M, "--pairs", M, "--qrels", M],
     "supply --resource-map or --resource-regex"),
    ("quality-pairs", ["analyze", "quality", "--scale", M, "--qrels", M,
                       "--resource-regex", "^(d)"], "--pairs is required for the quality sweep"),
    ("tau-qrels", ["analyze", "tau", "--scale", M, "--run", M, "--run", M], "--qrels is required"),
    ("tau-run", ["analyze", "tau", "--scale", M, "--qrels", M], "--run is required"),
    ("robustness-one-run", ["analyze", "robustness", "--scale", M, "--qrels", M, "--qrels2", M,
                            "--run", M], "need at least 2 --run files"),
    ("bootstrap-one-source", ["analyze", "bootstrap", "--scale", M, "--seed", "1", "--pairs", M,
                              "--qrels", M], "double judgments must come from exactly one "
     "source: --pairs or --qrels + --qrels2"),
    ("eval-one-source", [*EVAL_ARGV, "--run", M, "--gains", "prm", "--pairs", M, "--qrels2", M],
     "double judgments must come from exactly one source: --pairs or --qrels + --qrels2"),
    ("estimate-intents", ["estimate", "--scale", M, "--pairs", M, "--intents", M],
     "--intents needs --qrels"),
    ("validate-intent-field", ["validate", "--scale", M, "--pairs", M, "--intent-field"],
     "--intent-field needs --qrels"),
    ("eval-qrels2", [*EVAL_ARGV, "--measures", "count-binary", "--qrels2", M],
     f"--qrels2 {NOT_READ_NO_TABLE}"),
    ("tau-table", ["analyze", "tau", *RANK_FLAGS, "--gains", "linear", "--table", M],
     f"--table {NOT_READ_NO_TABLE}"),
    ("eval-pairs-beside-table", [*EVAL_ARGV, "--measures", "count-prm", "--table", M,
                                 "--pairs", M], "--pairs is not read beside --table"),
    ("robustness-estimator-beside-table", ["analyze", "robustness", *RANK2_FLAGS, "--gains",
                                           "prm", "--table", M, "--estimator", "symmetric"],
     "--estimator is not read beside --table"),
    ("eval-theta", [*EVAL_ARGV, "--measures", "count-prm", "--table", M, "--theta", "2"],
     "--theta is not read without an estimated table, binary gains or count-binary"),
    ("tau-custom-gains", ["analyze", "tau", *RANK_FLAGS, "--custom-gains", "1,2,3"],
     "--custom-gains is not read when no custom gains are scored"),
    ("robustness-custom", ["analyze", "robustness", *RANK2_FLAGS, "--gains", "custom,linear"],
     "custom gains need --custom-gains"),
    ("estimate-pairs", ["estimate", "--scale", M, "--qrels", M],
     "no double judgments: supply --pairs or both --qrels and --qrels2"),
    ("eval-count-prm-pairs", [*EVAL_ARGV, "--measures", "count-prm"],
     "no double judgments: supply --pairs or both --qrels and --qrels2"),
    ("eval-count-run", [*EVAL_ARGV, "--measures", "count-binary", "--run", M],
     "--run is not read without a run measure (precision, ndcg)"),
    ("eval-qrels", ["eval", "--scale", M, "--run", M], "--qrels is required"),
    ("eval-run", [*EVAL_ARGV, "--measures", "precision,count-binary", "--table", M],
     "--run is required"),
    ("estimate-scale", ["estimate", "--pairs", M], "--scale is required"),
    ("validate-scale", ["validate", "--qrels2", M], "--scale is required to validate qrels"),
    ("validate-pairs-scale", ["validate", "--pairs", M, "--intents", M],
     "--scale is required to validate pairs"),
    ("estimate-top-intent-only", ["estimate", "--scale", M, "--qrels", M, "--qrels2", M,
                                  "--top-intent-only"], "--top-intent-only needs --intents"),
    ("eval-gains", [*EVAL_ARGV, "--measures", "count-binary", "--gains", "binary"],
     "--gains is not read without ndcg"),
    ("eval-k", [*EVAL_ARGV, "--measures", "count-binary", "--k", "10"],
     "--k is not read without a run measure (precision, ndcg)"),
    ("eval-ideal-pool", [*EVAL_ARGV, "--measures", "precision", "--run", M, "--table", M,
                         "--ideal-pool", "qrels"], "--ideal-pool is not read without ndcg"),
    ("robustness-log-base", ["analyze", "robustness", *RANK2_FLAGS, "--discount", "zipf",
                             "--log-base", "2"], "--log-base is not read with --discount zipf"),
    # the symmetric estimator's rule, and then the u2 direction's, in every
    # parser that takes --one-sided-collection
    ("estimate", ["estimate", "--scale", M, "--pairs", M, "--one-sided-collection"],
     NEEDS_ONE_SIDED),
    ("estimate-all", ["estimate", "--scale", M, "--pairs", M, "--one-sided-collection",
                      "--estimator", "all"], NEEDS_ONE_SIDED),
    ("eval", [*EVAL_ARGV, "--run", M, "--gains", "prm", "--pairs", M, "--one-sided-collection",
              "--estimator", "symmetric"], NEEDS_ONE_SIDED),
    ("tau", ["analyze", "tau", *RANK_FLAGS, "--gains", "prm", "--pairs", M,
             "--one-sided-collection"], NEEDS_ONE_SIDED),
    ("robustness", ["analyze", "robustness", *RANK2_FLAGS, "--gains", "prm",
                    "--one-sided-collection"], NEEDS_ONE_SIDED),
    ("bootstrap", ["analyze", "bootstrap", "--scale", M, "--pairs", M, "--seed", "1",
                   "--one-sided-collection"], NEEDS_ONE_SIDED),
    ("budget", ["analyze", "budget", "--scale", M, "--pairs", M, "--seed", "1", "--budgets", "5",
                "--one-sided-collection"], NEEDS_ONE_SIDED),
    ("quality", ["analyze", "quality", "--scale", M, "--pairs", M, "--qrels", M,
                 "--resource-regex", "^(d)", "--one-sided-collection"], NEEDS_ONE_SIDED),
    *((f"{words[-1]}-u2", [*words, *flags, "--one-sided-collection", "--estimator", "one-sided",
                           "--condition", "u2"], NEEDS_U1) for words, flags in [
        (["estimate"], ["--scale", M, "--pairs", M]),
        (["eval"], [*EVAL_ARGV[1:], "--run", M, "--gains", "prm", "--pairs", M]),
        (["analyze", "tau"], [*RANK_FLAGS, "--gains", "prm", "--pairs", M]),
        (["analyze", "robustness"], [*RANK2_FLAGS, "--gains", "binary,prm"]),
        (["analyze", "bootstrap"], ["--scale", M, "--pairs", M, "--seed", "1"]),
        (["analyze", "budget"], ["--scale", M, "--pairs", M, "--seed", "1", "--budgets", "5"]),
        (["analyze", "quality"], ["--scale", M, "--pairs", M, "--qrels", M,
                                  "--resource-regex", "^(d)"]),
    ]),
    # values out of range, in the library's words
    ("estimate-theta-0", ["estimate", "--scale", M, "--pairs", M, "--theta", "0"],
     "theta must be >= 1, got 0"),
    ("budget-seed-negative", ["analyze", "budget", "--scale", M, "--pairs", M, "--seed", "-1",
                              "--budgets", "5"], "seed must be a non-negative integer, got -1"),
    ("bootstrap-resamples-0", ["analyze", "bootstrap", "--scale", M, "--pairs", M, "--seed", "1",
                               "--resamples", "0"], "n_resamples must be >= 1, got 0"),
    ("budget-rounds-0", ["analyze", "budget", "--scale", M, "--pairs", M, "--seed", "1",
                         "--budgets", "5", "--rounds", "0"], "n_rounds must be >= 1, got 0"),
    ("eval-log-base-1", [*EVAL_ARGV, "--run", M, "--log-base", "1"],
     "log discount base must be > 1, got 1.0"),
    ("tau-log-base-inf", ["analyze", "tau", *RANK_FLAGS, "--gains", "linear",
                          "--log-base", "inf"], "log discount base must be finite, got inf"),
    ("eval-k-0", [*EVAL_ARGV, "--run", M, "--k", "0"], "k must be >= 1, got 0"),
]


def _run_rules(argv: list[str], missing: str) -> tuple[int, str, str, list[int]]:
    """`main` on ``argv`` with "M" as ``missing``: exit code, stdout, stderr
    and the index of each row of `cli._RULES` that fired (at most one)."""
    fired: list[int] = []
    rows = [(flags, lambda a, i=i, applies=applies: applies(a) and not fired.append(i), message)
            for i, (flags, applies, message) in enumerate(cli._RULES)]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_RULES", rows), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main([missing if a == M else a for a in argv])
    return code, out.getvalue(), err.getvalue(), fired


class TestUnreadFlags:
    """Each command and analysis kind has its own parser, which takes
    exactly the flags its handler reads; a flag that another kind takes is
    an unknown argument to argparse, rejected before any file is read
    (here each names a file that does not exist)."""

    def test_each_parser_takes_the_flags_its_handler_reads(self):
        assert {words: _flags(p) for words, p in PARSERS.items()} == TAKES
        sizes = {kind: len(TAKES[f"analyze {kind}"]) for kind in KINDS}
        assert sizes == {"tau": 25, "bootstrap": 16, "budget": 17, "quality": 15,
                         "robustness": 25}
        assert sum(sizes.values()) == 98

    def test_every_valid_command_line_runs(self, capsys, ws):
        for words in PARSERS:
            code, out, err = run_cli(capsys, _valid(ws, words))
            assert (code, err) == (0, ""), words
            assert out

    @pytest.mark.parametrize("kind, flag", [
        (kind, flag)
        for kind in KINDS
        for flag in sorted(set().union(*(TAKES[f"analyze {k}"] for k in KINDS))
                           - TAKES[f"analyze {kind}"])
    ])
    def test_flag_is_one_error_line(self, capsys, ws, tmp_path, kind, flag):
        # a switch is given alone, any other flag with a file that does not exist
        action = next(a for p in PARSERS.values() for a in p._actions
                      if flag in a.option_strings)
        given = [flag, str(tmp_path / "never_read.txt")] if action.nargs != 0 else [flag]
        code, out, err = run_cli(capsys, [*_valid(ws, f"analyze {kind}"), *given])
        assert (code, out) == (1, "")
        assert err == ("usage: prmeval [-h] command ...\n"
                       f"prmeval: error: unrecognized arguments: {' '.join(given)}\n")

    NO_TABLE = "--override-p0 is not read when no measure or gain scheme needs a table"
    NO_CUSTOM = "--custom-gains is not read when no custom gains are scored"
    NO_CONDITION = "--condition needs --estimator one-sided"
    NO_THETA = "--theta is not read without an estimated table, binary gains or count-binary"

    @pytest.mark.parametrize("argv, line", [
        (["analyze", "tau", "--gains", "linear", "--override-p0"], NO_TABLE),
        (["analyze", "robustness", "--qrels2", "missing", "--gains", "linear", "--override-p0"],
         NO_TABLE),
        (["eval", "--measures", "count-binary", "--override-p0"], NO_TABLE),
        (["eval", "--gains", "prm", "--custom-gains", "1,2,3"], NO_CUSTOM),
        (["eval", "--measures", "precision", "--gains", "custom", "--custom-gains", "1,2,3"],
         NO_CUSTOM),
        (["analyze", "tau", "--gains", "linear", "--custom-gains", "1,2,3"], NO_CUSTOM),
        (["eval", "--measures", "count-binary", "--strict"],
         "--strict is not read without a run measure (precision, ndcg)"),
        (["estimate", "--qrels2", "missing", "--condition", "u2"], NO_CONDITION),
        (["estimate", "--qrels2", "missing", "--estimator", "all", "--condition", "u2"],
         NO_CONDITION),
        (["eval", "--condition", "u1"], NO_CONDITION),
        (["analyze", "tau", "--condition", "u2"], NO_CONDITION),
        (["analyze", "robustness", "--qrels2", "missing", "--condition", "u2"], NO_CONDITION),
        (["analyze", "bootstrap", "--qrels2", "missing", "--seed", "1", "--condition", "u2"],
         NO_CONDITION),
        (["analyze", "budget", "--qrels2", "missing", "--seed", "1", "--budgets", "5",
          "--condition", "u2"], NO_CONDITION),
        (["analyze", "quality", "--pairs", "missing", "--resource-regex", "(d)",
          "--condition", "u2"], NO_CONDITION),
        (["eval", "--measures", "count-binary", "--estimator", "one-sided", "--condition", "u2"],
         "--condition is not read when no measure or gain scheme needs a table"),
        (["analyze", "tau", "--gains", "binary", "--one-sided-collection"],
         "--one-sided-collection is not read when no measure or gain scheme needs a table"),
        (["analyze", "robustness", "--qrels2", "missing", "--estimator", "one-sided",
          "--condition", "u1"],
         "--condition is not read when no measure or gain scheme needs a table"),
        (["eval", "--measures", "precision", "--table", "missing", "--override-p0",
          "--one-sided-collection"], "--one-sided-collection is not read beside --table"),
        (["analyze", "tau", "--gains", "prm", "--table", "missing", "--override-p0",
          "--estimator", "one-sided", "--condition", "u2"],
         "--condition is not read beside --table"),
        (["eval", "--gains", "linear", "--estimator", "symmetric"],
         "--estimator is not read when no measure or gain scheme needs a table"),
        (["analyze", "tau", "--gains", "prm", "--table", "missing", "--estimator", "one-sided"],
         "--estimator is not read beside --table"),
        (["eval", "--table", "missing", "--gains", "prm", "--theta", "1"], NO_THETA),
        (["eval", "--measures", "count-prm", "--table", "missing", "--theta", "1"], NO_THETA),
        (["eval", "--gains", "linear", "--theta", "1"], NO_THETA),
        (["eval", "--gains", "linear", "--theta", "0"], NO_THETA),
        (["analyze", "tau", "--table", "missing", "--gains", "prm", "--theta", "1"], NO_THETA),
        (["analyze", "tau", "--gains", "linear", "--theta", "1"], NO_THETA),
        (["analyze", "robustness", "--qrels2", "missing", "--table", "missing",
          "--gains", "linear,prm", "--theta", "1"], NO_THETA),
    ], ids=["tau-override-p0", "robustness-override-p0", "eval-override-p0",
            "eval-prm-custom-gains", "eval-precision-custom-gains", "tau-custom-gains",
            "eval-count-strict", "estimate-condition", "estimate-all-condition",
            "eval-condition", "tau-condition", "robustness-condition", "bootstrap-condition",
            "budget-condition", "quality-condition", "eval-count-one-sided-condition",
            "tau-binary-one-sided-collection", "robustness-one-sided-condition",
            "eval-table-one-sided-collection", "tau-table-one-sided-condition",
            "eval-linear-estimator", "tau-table-estimator", "eval-table-prm-theta",
            "eval-table-count-prm-theta", "eval-linear-theta", "eval-linear-theta-zero",
            "tau-table-theta", "tau-linear-theta", "robustness-table-theta"])
    def test_unread_switch_is_one_error_line(self, capsys, tmp_path, argv, line):
        # a switch that no measure or gain scheme uses is named before any
        # file is read: every path here names a file that does not exist
        missing = str(tmp_path / "missing.txt")
        words = " ".join(argv[:2]) if argv[0] == "analyze" else argv[0]
        takes_runs = "--run" in TAKES[words] and "count-binary" not in argv
        runs = ["--run", missing, "--run", missing] if takes_runs else []
        code, out, err = run_cli(capsys, [
            *(missing if a == "missing" else a for a in argv),
            "--scale", missing, "--qrels", missing, *runs,
        ])
        assert (code, out, err) == (1, "", f"error: {line}\n")

    NO_PAIRS = "no double judgments: supply --pairs or both --qrels and --qrels2"
    NO_VALUES = "custom gains need --custom-gains"
    TAU = ["analyze", "tau", "--qrels", "missing", "--run", "missing", "--run", "missing"]

    @pytest.mark.parametrize("argv, line", [
        (["eval", "--qrels", "missing", "--measures", "ndcg"], "--run is required"),
        (["eval", "--run", "missing"], "--qrels is required"),
        (["estimate"], NO_PAIRS),
        (["estimate", "--qrels", "missing"], NO_PAIRS),
        (["analyze", "bootstrap", "--seed", "1"], NO_PAIRS),
        (["analyze", "budget", "--seed", "1", "--budgets", "5"], NO_PAIRS),
        (["eval", "--qrels", "missing", "--run", "missing", "--measures", "precision"], NO_PAIRS),
        (["eval", "--qrels", "missing", "--measures", "count-prm"], NO_PAIRS),
        ([*TAU, "--gains", "prm"], NO_PAIRS),
        (["eval", "--qrels", "missing", "--run", "missing", "--gains", "custom"], NO_VALUES),
        ([*TAU, "--gains", "custom"], NO_VALUES),
        (["analyze", "robustness", *TAU[2:], "--qrels2", "missing", "--gains", "custom,binary"],
         NO_VALUES),
    ], ids=["eval-run", "eval-qrels", "estimate-pairs", "estimate-qrels2", "bootstrap-pairs",
            "budget-pairs", "eval-precision-pairs", "eval-count-prm-pairs", "tau-prm-pairs",
            "eval-custom", "tau-custom", "robustness-custom"])
    def test_missing_flag_is_one_error_line(self, capsys, tmp_path, argv, line):
        # an input that the other flags need is named before any file is
        # read: every path here names a file that does not exist
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, [
            *(missing if a == "missing" else a for a in argv), "--scale", missing,
        ])
        assert (code, out, err) == (1, "", f"error: {line}\n")

    @pytest.mark.parametrize("argv, line", [case[1:] for case in RULE_CASES],
                             ids=[case[0] for case in RULE_CASES])
    def test_rule_is_one_error_line_before_any_judgment(self, tmp_path, argv, line):
        # each row of the rule table fires before any file is read: every
        # path here names a file that does not exist
        code, out, err, fired = _run_rules(argv, str(tmp_path / "missing.txt"))
        assert (code, out, err, len(fired)) == (1, "", f"error: {line}\n", 1)

    BUDGET = ["analyze", "budget", "--scale", M, "--pairs", M, "--seed", "1", "--budgets"]
    GAINS = [*EVAL_ARGV, "--run", M, "--gains", "custom", "--custom-gains"]

    @pytest.mark.parametrize("argv, line", [
        ([*BUDGET, "-2"], "budgets must be >= 0, got -2"),
        ([*BUDGET, "0,5,-1"], "budgets must be >= 0, got -1"),
        ([*BUDGET, "0"], "no positive budgets"),
        ([*BUDGET, "3,2"], "budgets must be strictly increasing, got [3, 2]"),
        ([*BUDGET, "3,0,3"], "budgets must be strictly increasing, got [3, 3]"),
        ([*GAINS, "1,nan,2"], "gains must be finite and >= 0, got nan"),
        ([*GAINS, "1,2,inf"], "gains must be finite and >= 0, got inf"),
        ([*GAINS, "1,-2,3"], "gains must be finite and >= 0, got -2.0"),
        ([*GAINS, "0,0,0"], "custom gain vector must not be all zero"),
        # the number of values is checked against the scale once it is read
        ([*GAINS, "0,0"], "custom gain vector must not be all zero"),
    ], ids=["budget-negative", "budget-negative-after-0", "budget-0", "budgets-falling",
            "budgets-repeated", "gains-nan", "gains-inf", "gains-negative", "gains-zero",
            "gains-zero-short"])
    def test_number_list_value_is_one_error_line_before_any_file(self, tmp_path, argv, line):
        # argparse checks the values of --budgets and --custom-gains as it
        # reads them, in the library's words: every path here names a file
        # that does not exist, and no rule fires
        code, out, err, fired = _run_rules(argv, str(tmp_path / "missing.txt"))
        assert (code, out, err, fired) == (1, "", f"error: {line}\n", [])

    @pytest.mark.parametrize("argv, line", [
        ([*BUDGET, ","], "--budgets is required (comma list, e.g. 50,100,200)"),
        ([*GAINS, ","], "custom gains need --custom-gains"),
    ], ids=["budgets-empty", "gains-empty"])
    def test_empty_number_list_is_left_to_the_rules(self, tmp_path, argv, line):
        # only a list that is not empty is checked as argparse reads it: an
        # empty one is the usage rule's error, as when the flag is missing
        code, out, err, fired = _run_rules(argv, str(tmp_path / "missing.txt"))
        assert (code, out, err, len(fired)) == (1, "", f"error: {line}\n", 1)

    UDM = "udm gains need a table thresholded at the top level (theta = 2), got theta = 1"
    RANK = ["--qrels", "missing", "--run", "missing", "--run", "missing"]

    @pytest.mark.parametrize("argv", [
        ["eval", "--qrels", "missing", "--run", "missing", "--gains", "udm", "--theta", "1",
         "--pairs", "missing"],
        ["analyze", "tau", *RANK, "--qrels2", "missing", "--gains", "udm", "--theta", "1"],
        ["analyze", "robustness", *RANK, "--qrels2", "missing", "--gains", "binary,udm",
         "--theta", "1", "--estimator", "one-sided"],
    ], ids=["eval-udm", "tau-udm", "robustness-udm"])
    def test_udm_rule_comes_right_after_the_scale(self, capsys, ws, tmp_path, argv):
        # the one rule that needs the scale: every other path names a file
        # that does not exist
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, [
            *(missing if a == "missing" else a for a in argv), "--scale", ws["scale"],
        ])
        assert (code, out, err) == (1, "", f"error: {self.UDM}\n")

    @pytest.mark.parametrize("words", [w for w in PARSERS if w not in ("estimate", "validate")])
    def test_estimator_all_is_for_estimate_only(self, capsys, ws, words):
        code, out, err = run_cli(capsys, [*_valid(ws, words), "--estimator", "all"])
        assert (code, out) == (1, "")
        assert err.endswith(f"prmeval {words}: error: argument --estimator: invalid choice: "
                            "'all' (choose from 'symmetric', 'one-sided')\n")

    def test_config_key_fails_as_its_flag(self, capsys, ws, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"table": str(tmp_path / "never_read.json")}), "utf-8")
        code, out, err = run_cli(
            capsys, [*_valid(ws, "analyze bootstrap"), "--config", str(config)],
        )
        assert (code, out, err) == (
            1, "", "error: unknown config keys for 'analyze bootstrap': ['table']\n",
        )

    @pytest.mark.parametrize("config", [{"handler": False}, {"handler": "cmd_eval"}])
    def test_handler_is_no_config_key(self, capsys, ws, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), "utf-8")
        code, out, err = run_cli(capsys, [*_valid(ws, "estimate"), "--config", str(path)])
        line = "error: unknown config keys for 'estimate': ['handler']\n"
        assert (code, out, err) == (1, "", line)

    @pytest.mark.parametrize("words, flag", [
        (words, flag) for words, p in PARSERS.items()
        for flag in PATH_FLAGS if flag in _flags(p)
    ], ids=lambda value: value.replace(" ", "-"))
    def test_a_missing_path_is_read_or_named(self, capsys, ws, tmp_path, words, flag):
        # every path flag is read (a missing file exits 2) or rejected as
        # a usage error that names it (exit 1)
        argv = _valid(ws, words)
        missing = str(tmp_path / "missing.txt")
        if flag == "--table":  # beside which the prm gains read no --theta
            at = argv.index("--theta")
            del argv[at:at + 2]
        if flag in argv:
            argv[argv.index(flag) + 1] = missing
        else:
            argv += [flag, missing]
        code, out, err = run_cli(capsys, argv)
        lines = err.splitlines()
        assert out == ""
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("io error: "), lines
        else:
            assert code == 1
            assert any(re.search(re.escape(flag) + r"(?![\w-])", line) for line in lines), lines


def _value_flags(parser: argparse.ArgumentParser) -> set[str]:
    return {s for a in parser._actions if a.nargs != 0 for s in a.option_strings}


class TestUnreadValueFlags:
    """Every value flag of every parser is either read whenever it is given
    or, in a command line that does not read it, one ``error:`` line and
    exit 1 before any file is read: every path here names a file that does
    not exist.  A flag with a default counts as given only when it is on
    the command line or in a --config file."""

    BASE = {
        "estimate": [],
        "eval": ["--qrels", "missing"],
        "analyze tau": ["--qrels", "missing", "--run", "missing", "--run", "missing"],
        "analyze robustness": ["--qrels", "missing", "--qrels2", "missing",
                               "--run", "missing", "--run", "missing"],
        "analyze bootstrap": ["--seed", "1"],
        "analyze budget": ["--seed", "1", "--budgets", "5"],
        "analyze quality": ["--qrels", "missing", "--pairs", "missing"],
        "validate": [],
    }
    RANKING = {"--pairs": ["--gains", "linear", "--pairs", "missing"],
               "--theta": ["--gains", "linear", "--theta", "2"],
               "--estimator": ["--gains", "linear", "--estimator", "symmetric"],
               "--condition": ["--condition", "u2"],
               "--custom-gains": ["--custom-gains", "1,2,3"],
               "--table": ["--table", "missing"],
               "--log-base": ["--discount", "zipf", "--log-base", "3"]}
    PAIRS = {"--pairs": ["--pairs", "missing", "--qrels", "missing"],
             "--qrels": ["--pairs", "missing", "--qrels", "missing"],
             "--qrels2": ["--pairs", "missing", "--qrels2", "missing"],
             "--condition": ["--pairs", "missing", "--condition", "u2"],
             "--intents": ["--pairs", "missing", "--intents", "missing"]}
    # for each value flag that a command may leave unread, command lines that do
    UNREAD = {
        "estimate": PAIRS,
        "eval": {
            "--pairs": ["--run", "missing", "--gains", "linear", "--pairs", "missing"],
            "--qrels2": ["--measures", "count-binary", "--qrels2", "missing"],
            "--theta": ["--run", "missing", "--gains", "linear", "--theta", "2"],
            "--estimator": ["--run", "missing", "--gains", "linear", "--estimator", "symmetric"],
            "--condition": ["--run", "missing", "--condition", "u1"],
            "--run": ["--measures", "count-binary", "--run", "missing"],
            "--gains": ["--measures", "count-binary", "--gains", "prm"],
            "--custom-gains": ["--run", "missing", "--custom-gains", "1,2,3"],
            "--table": ["--run", "missing", "--gains", "linear", "--table", "missing"],
            "--discount": ["--run", "missing", "--measures", "precision", "--pairs", "missing",
                           "--discount", "zipf"],
            "--log-base": ["--measures", "count-binary", "--log-base", "3"],
            "--log-base zipf": ["--run", "missing", "--discount", "zipf", "--log-base", "3"],
            "--k": ["--measures", "count-binary", "--k", "5"],
            "--ideal-pool": ["--run", "missing", "--measures", "precision", "--table", "missing",
                             "--ideal-pool", "run"],
        },
        "analyze tau": RANKING,
        "analyze robustness": RANKING,
        "analyze bootstrap": PAIRS,
        "analyze budget": PAIRS,
        "analyze quality": {
            "--condition": ["--resource-regex", "(d)", "--condition", "u2"],
            "--resource-map": ["--resource-regex", "(d)", "--resource-map", "missing"],
            "--resource-regex": ["--resource-map", "missing", "--resource-regex", "(d)"],
        },
        "validate": {},
    }
    OUTPUT = {"--scale", "--config", "--format", "--out"}
    READ = {
        "estimate": OUTPUT | {"--theta", "--estimator", "--strata"},
        "eval": OUTPUT | {"--qrels", "--intents", "--measures"},
        "analyze tau": OUTPUT | {"--qrels", "--qrels2", "--run", "--gains", "--discount", "--k",
                                 "--ideal-pool", "--intents", "--tau-variant"},
        "analyze bootstrap": OUTPUT | {"--theta", "--estimator", "--seed", "--resamples"},
        "analyze budget": OUTPUT | {"--theta", "--estimator", "--seed", "--rounds", "--budgets"},
        "analyze quality": OUTPUT | {"--pairs", "--qrels", "--theta", "--estimator", "--intents"},
        "validate": OUTPUT | {"--pairs", "--qrels", "--qrels2", "--run", "--intents"},
    }
    READ["analyze robustness"] = READ["analyze tau"]

    @pytest.fixture(scope="class")
    def fired(self, tmp_path_factory) -> dict[int, list[str]]:
        """The ids of the `RULE_CASES` that fire each row of the rule table."""
        missing = str(tmp_path_factory.mktemp("rules") / "missing.txt")
        found: dict[int, list[str]] = {}
        for name, argv, _ in RULE_CASES:
            for row in _run_rules(argv, missing)[3]:
                found.setdefault(row, []).append(name)
        return found

    @pytest.mark.parametrize("row", range(len(cli._RULES)), ids=lambda row: " ".join(
        [*cli._RULES[row][0][:1], cli._RULES[row][2]]))
    def test_each_rule_has_a_case(self, fired, row):
        # so no rule is added without a command line that breaks it
        assert fired.get(row), "add a case for this row to RULE_CASES"

    def test_readme_lists_the_rule_table(self):
        # README's table of usage errors: one line per row, in order, with
        # the row's flags and its message
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        lines = readme[readme.index("| # | flags |"):].split("\n\n")[0].splitlines()[2:]
        cells = [line.split(" | ") for line in lines]
        listed = [(tuple(re.findall(r"`(--[\w-]+)`", c[1])), c[3].strip("`")) for c in cells]
        assert listed == [(flags, message) for flags, _, message in cli._RULES]

    def test_each_value_flag_is_read_or_has_an_unread_case(self):
        for words, parser in PARSERS.items():
            unread = {flag.split()[0] for flag in self.UNREAD[words]}
            assert not unread & self.READ[words], words
            assert unread | self.READ[words] == _value_flags(parser), words

    @pytest.mark.parametrize("words, flag", [
        (words, flag) for words, flags in UNREAD.items() for flag in flags
    ], ids=lambda value: value.replace(" ", "-"))
    def test_unread_value_flag_is_one_error_line(self, capsys, tmp_path, words, flag):
        missing = str(tmp_path / "missing.txt")
        argv = [*self.BASE[words], *self.UNREAD[words][flag], "--scale", "missing"]
        code, out, err = run_cli(capsys, [*words.split(), *(
            missing if a == "missing" else a for a in argv)])
        errors = [line for line in err.splitlines() if "error: " in line]
        assert (code, out, len(errors)) == (1, "", 1), err
        assert re.search(re.escape(flag.split()[0]) + r"(?![\w-])", errors[0]), errors

    NOT_NDCG = "is not read without ndcg"
    NO_RUN_MEASURE = "is not read without a run measure (precision, ndcg)"
    ZIPF = "--log-base is not read with --discount zipf"

    @pytest.mark.parametrize("argv, line", [
        # the Motivation's command: the first flag given in --help order is named
        (["--measures", "count-binary", "--gains", "prm", "--k", "5", "--discount", "zipf",
          "--log-base", "3", "--ideal-pool", "run"], f"--gains {NOT_NDCG}"),
        (["--measures", "count-binary", "--ideal-pool", "run", "--k", "5", "--log-base", "3",
          "--discount", "zipf"], f"--discount {NOT_NDCG}"),
        (["--measures", "count-prm", "--pairs", "missing", "--ideal-pool", "run", "--k", "5"],
         f"--k {NO_RUN_MEASURE}"),
        (["--measures", "precision", "--run", "missing", "--pairs", "missing", "--k", "5",
          "--ideal-pool", "qrels"], f"--ideal-pool {NOT_NDCG}"),
        (["--run", "missing", "--log-base", "2", "--discount", "zipf"], ZIPF),
        # every existing rule comes first
        (["--measures", "count-binary", "--k", "5", "--strict"], f"--strict {NO_RUN_MEASURE}"),
        (["--measures", "count-binary", "--k", "5", "--override-p0"],
         "--override-p0 is not read when no measure or gain scheme needs a table"),
        (["--measures", "count-binary", "--gains", "prm", "--top-intent-only"],
         "--top-intent-only needs --intents"),
    ], ids=["motivation", "discount-first", "k", "precision-ideal-pool", "zipf", "strict-first",
            "override-p0-first", "top-intent-only-first"])
    def test_eval_names_the_first_unread_flag(self, capsys, tmp_path, argv, line):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, [
            "eval", "--scale", missing, "--qrels", missing, "--theta", "2",
            *(missing if a == "missing" else a for a in argv),
        ])
        assert (code, out, err) == (1, "", f"error: {line}\n")

    @pytest.mark.parametrize("kind", ["tau", "robustness"])
    def test_scale_is_required_before_the_new_rules(self, capsys, tmp_path, kind):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, [
            "analyze", kind, "--qrels", missing, "--qrels2", missing, "--run", missing,
            "--run", missing, "--discount", "zipf", "--log-base", "3",
        ])
        assert (code, out, err) == (1, "", "error: --scale is required\n")

    def test_a_config_key_counts_as_given(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 10}), encoding="utf-8")
        code, out, err = run_cli(capsys, [
            "eval", "--scale", missing, "--qrels", missing, "--measures", "count-binary",
            "--config", str(config),
        ])
        assert (code, out, err) == (1, "", f"error: --k {self.NO_RUN_MEASURE}\n")


class TestOneParser:
    """`main` adds flags only to the parser that its command line names;
    every outcome, usage errors and help included, equals that of
    `build_parser()` with every parser's flags."""

    OTHER = sorted(set().union(*TAKES.values()))

    @staticmethod
    def _argvs(ws, tmp_path, words: str) -> list[list[str]]:
        config = tmp_path / "config.json"
        other = next(f for f in TestOneParser.OTHER if f not in TAKES[words])
        config.write_text(json.dumps({"nope": 1, other[2:]: "x"}), "utf-8")
        valid = _valid(ws, words)
        return [
            [*words.split(), "--help"],
            [*words.split(), "-h", "--scale"],
            [*words.split(), "--frobnicate"],
            [*words.split(), other, "x"],  # another parser's flag
            valid,
            [*valid, "--config", str(config)],
            [*valid, "--format"],
            # an option ahead of the command or kind is no word of the command
            ["--frobnicate", *valid],
            [valid[0], "--frobnicate", *valid[1:]],
            ["--", *valid],
        ]

    @staticmethod
    def _outcomes(capsys, argvs, full: bool) -> list[tuple[int, str, str]]:
        if not full:
            return [run_cli(capsys, argv) for argv in argvs]
        parser = build_parser()
        with mock.patch("prmeval.cli.build_parser", lambda argv=None: parser):
            return [run_cli(capsys, argv) for argv in argvs]

    @pytest.mark.parametrize("words", list(PARSERS), ids=lambda w: w.replace(" ", "-"))
    def test_each_parser_as_with_every_parser(self, capsys, ws, tmp_path, words):
        argvs = self._argvs(ws, tmp_path, words)
        outcomes = self._outcomes(capsys, argvs, full=False)
        assert outcomes == self._outcomes(capsys, argvs, full=True)
        assert [code for code, _, _ in outcomes] == [0, 0, 1, 1, 0, 1, 1, 1, 1, outcomes[-1][0]]

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h", "estimate"], ["nope"], ["nope", "--scale", "x"], ["analyze"],
        ["analyze", "--help"], ["analyze", "nope"], ["analyze", "-h", "tau"],
        ["analyze", "--seed", "1", "bootstrap"], ["--scale", "x", "estimate"], ["estimate", "tau"],
        ["analyze", "estimate"], ["-", "estimate"],
    ], ids=repr)
    def test_command_and_kind_faults_as_with_every_parser(self, capsys, argv):
        outcomes = self._outcomes(capsys, [argv], full=False)
        assert outcomes == self._outcomes(capsys, [argv], full=True)


class TestInputsNotRead:
    """A path flag or switch that a command would not read, given the other
    flags, is one error line that names it, exit 1, before any file is
    read: every file named `missing` here does not exist."""

    TABLE_UNUSED = "is not read when no measure or gain scheme needs a table"
    RANKING = ["--qrels", "qrels_u1", "--run", "run_perfect", "--run", "run_reverse"]
    ONE_SOURCE = ("double judgments must come from exactly one source: "
                  "--pairs or --qrels + --qrels2")
    NO_INTENTS = "--top-intent-only needs --intents"

    @pytest.mark.parametrize("argv, line", [
        (["eval", "--measures", "count-binary", "--qrels", "qrels_u1", "--run", "missing",
          "--pairs", "missing", "--table", "missing"], f"--table {TABLE_UNUSED}"),
        (["eval", "--measures", "count-binary", "--qrels", "qrels_u1", "--pairs", "missing"],
         f"--pairs {TABLE_UNUSED}"),
        (["eval", "--measures", "count-binary", "--qrels", "qrels_u1", "--qrels2", "missing"],
         f"--qrels2 {TABLE_UNUSED}"),
        (["eval", "--measures", "count-binary", "--qrels", "qrels_u1", "--run", "missing"],
         "--run is not read without a run measure (precision, ndcg)"),
        (["eval", "--gains", "linear", "--qrels", "qrels_u1", "--run", "run_perfect",
          "--table", "missing"], f"--table {TABLE_UNUSED}"),
        (["eval", "--gains", "prm", "--qrels", "qrels_u1", "--run", "run_perfect",
          "--table", "degenerate", "--pairs", "missing"], "--pairs is not read beside --table"),
        (["eval", "--measures", "precision", "--qrels", "qrels_u1", "--run", "run_perfect",
          "--table", "degenerate", "--qrels2", "missing"], "--qrels2 is not read beside --table"),
        (["analyze", "tau", "--gains", "prm", *RANKING, "--table", "degenerate",
          "--pairs", "missing"], "--pairs is not read beside --table"),
        (["analyze", "tau", "--gains", "linear", *RANKING, "--table", "missing",
          "--pairs", "missing"], f"--table {TABLE_UNUSED}"),
        (["analyze", "robustness", *RANKING, "--qrels2", "qrels_u2", "--pairs", "missing"],
         f"--pairs {TABLE_UNUSED}"),
        (["analyze", "bootstrap", "--pairs", "pairs2", "--seed", "1", "--resamples", "3",
          "--qrels", "missing", "--intents", "missing"], ONE_SOURCE),
        (["analyze", "bootstrap", "--pairs", "pairs2", "--seed", "1", "--resamples", "3",
          "--intents", "missing"], "--intents needs --qrels"),
        (["analyze", "budget", "--pairs", "pairs", "--seed", "1", "--budgets", "5",
          "--qrels", "missing"], ONE_SOURCE),
        (["estimate", "--pairs", "pairs", "--qrels", "missing"], ONE_SOURCE),
        (["estimate", "--pairs", "pairs", "--intents", "missing"], "--intents needs --qrels"),
        (["estimate", "--pairs", "pairs", "--intent-field", "--top-intent-only"],
         "--intent-field needs --qrels"),
        (["estimate", "--pairs", "pairs", "--top-intent-only"], "--top-intent-only needs --qrels"),
        (["analyze", "bootstrap", "--pairs", "pairs2", "--seed", "1", "--resamples", "3",
          "--intent-field"], "--intent-field needs --qrels"),
        (["analyze", "budget", "--pairs", "pairs", "--seed", "1", "--budgets", "5",
          "--top-intent-only"], "--top-intent-only needs --qrels"),
        (["validate", "--pairs", "missing", "--intent-field"], "--intent-field needs --qrels"),
        (["validate", "--pairs", "missing", "--intents", "missing", "--top-intent-only"],
         "--top-intent-only needs --qrels"),
        (["estimate", "--qrels", "missing", "--qrels2", "qrels_u2", "--top-intent-only"],
         NO_INTENTS),
        (["eval", "--measures", "count-binary", "--qrels", "missing", "--top-intent-only"],
         NO_INTENTS),
        (["analyze", "tau", "--gains", "binary", "--qrels", "missing", "--run", "missing",
          "--run", "missing", "--top-intent-only"], NO_INTENTS),
        (["analyze", "quality", "--qrels", "missing", "--pairs", "missing",
          "--resource-regex", "(d)", "--top-intent-only"], NO_INTENTS),
        (["validate", "--qrels", "missing", "--top-intent-only"], NO_INTENTS),
    ], ids=["eval-count-table", "eval-count-pairs", "eval-count-qrels2", "eval-count-run",
            "eval-linear-table", "eval-table-pairs", "eval-table-qrels2", "tau-table-pairs",
            "tau-linear-table", "robustness-pairs", "bootstrap-qrels", "bootstrap-intents",
            "budget-qrels", "estimate-qrels", "estimate-intents", "estimate-intent-field",
            "estimate-top-intent-only", "bootstrap-intent-field", "budget-top-intent-only",
            "validate-intent-field", "validate-top-intent-only", "estimate-no-intents",
            "eval-no-intents", "tau-no-intents", "quality-no-intents", "validate-no-intents"])
    def test_unread_path_is_one_error_line(self, capsys, ws, tmp_path, argv, line):
        files = dict(ws, missing=str(tmp_path / "missing.txt"))
        theta = [] if argv[0] == "validate" else ["--theta", "2"]
        code, out, err = run_cli(capsys, [
            *(files.get(a, a) for a in argv), "--scale", ws["scale"], *theta,
        ])
        assert (code, out, err) == (1, "", f"error: {line}\n")

    @pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
    def test_quality_takes_one_resource_source(self, capsys, ws, tmp_path, via_config):
        both = {"resource-map": str(tmp_path / "missing.txt"), "resource-regex": "^(d1?)"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(both), encoding="utf-8")
        flags = (["--config", str(config)] if via_config
                 else [a for key, value in both.items() for a in (f"--{key}", value)])
        code, out, err = run_cli(capsys, [
            "analyze", "quality", "--scale", ws["scale"], "--pairs", ws["pairs"],
            "--qrels", ws["qrels_u1"], "--theta", "2", *flags,
        ])
        assert (code, out) == (1, "")
        assert err.startswith("usage: prmeval analyze quality [-h]")
        assert err.endswith("\nprmeval analyze quality: error: argument --resource-regex: "
                            "not allowed with argument --resource-map\n")


class TestInputsReadOnce:
    def test_tau_on_one_qrels_scores_each_run_once(self, capsys, ws, monkeypatch):
        # without --qrels2 both rankings are the one ranking against --qrels
        from prmeval import analysis

        calls = []
        ndcg_reports = analysis.ndcg_reports

        def counting(run, *args, **kwargs):
            calls.append(run.system_id)
            return ndcg_reports(run, *args, **kwargs)

        monkeypatch.setattr(analysis, "ndcg_reports", counting)
        code, out, _ = run_cli(capsys, [
            "analyze", "tau", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
            "--run", ws["run_perfect"], "--run", ws["run_reverse"], "--theta", "2",
            "--format", "json",
        ])
        assert code == 0
        assert sorted(calls) == ["sysA", "sysB"]
        payload = json.loads(out)
        assert payload["tau"] == 1.0
        assert payload["ranking_u1"] == payload["ranking_u2"]

    def test_eval_reads_each_run_topic_once_for_every_run_measure(
        self, capsys, ws, tmp_path, monkeypatch
    ):
        # precision and every nDCG scheme read one level vector per (run, topic)
        from prmeval import corpus

        qrels = tmp_path / "two_topics.txt"
        text = Path(ws["qrels_u1"]).read_text(encoding="utf-8")
        qrels.write_text(text + text.replace("201 ", "202 "), encoding="utf-8")
        runs = []
        for name in ("run_perfect", "run_reverse"):
            path = tmp_path / f"{name}_two_topics.txt"
            text = Path(ws[name]).read_text(encoding="utf-8")
            path.write_text(text + text.replace("201 ", "202 "), encoding="utf-8")
            runs += ["--run", str(path)]
        calls = []
        doc_ids = corpus.RunRanking.doc_ids

        def counting(self, topic_id):
            calls.append((self.system_id, topic_id))
            return doc_ids(self, topic_id)

        monkeypatch.setattr(corpus.RunRanking, "doc_ids", counting)
        code, out, err = run_cli(capsys, [
            "eval", "--scale", ws["scale"], "--qrels", str(qrels), "--pairs", ws["pairs"],
            "--theta", "2", *runs, "--measures", "ndcg,precision", "--gains", "binary,linear",
        ])
        assert (code, err) == (0, "")
        assert "expected_precision@10\t202\t" in out and "ndcg_linear@10\t202\t" in out
        assert sorted(calls) == [(s, t) for s in ("sysA", "sysB") for t in ("201", "202")]

    @pytest.mark.parametrize("kind", ["tau", "robustness"])
    def test_each_qrels_file_parsed_once(self, capsys, ws, monkeypatch, kind):
        from prmeval import corpus

        calls = []
        parse_qrels = corpus.parse_qrels

        def counting(*args, **kwargs):
            calls.append(args)
            return parse_qrels(*args, **kwargs)

        monkeypatch.setattr(corpus, "parse_qrels", counting)
        code, _, _ = run_cli(capsys, [
            "analyze", kind, "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
            "--qrels2", ws["qrels_u2"], "--run", ws["run_perfect"], "--run", ws["run_reverse"],
            "--theta", "2", "--gains", "prm",
        ])
        assert code == 0
        assert len(calls) == 2

    # intent '0' records with a level warn each time their file is parsed
    INTENT_FILES = {
        "u1.txt": "201 a d1 2\n201 b d1 1\n201 a d2 1\n202 0 d5 1\n202 0 d6 0\n",
        "u2.txt": "201 a d1 1\n201 b d1 1\n201 a d2 2\n202 0 d5 2\n202 0 d6 0\n",
        "intents.txt": "201 a 0.6\n201 b 0.4\n202 c 0.7\n202 d 0.3\n",
    }

    @pytest.mark.parametrize("kind", ["eval", "tau", "robustness", "validate", "estimate"])
    def test_each_input_parsed_once_with_intents(self, capsys, ws, tmp_path, monkeypatch, kind):
        # eval and estimate take their pairs from the --qrels/--qrels2 overlap
        from prmeval import cli

        paths = {}
        for name, text in self.INTENT_FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
            paths[name] = str(tmp_path / name)
        parsed = []
        parse = cli._parse

        def counting(path, *args, **kwargs):
            parsed.append(path)
            return parse(path, *args, **kwargs)

        monkeypatch.setattr(cli, "_parse", counting)
        qrels = ["--qrels", paths["u1.txt"], "--qrels2", paths["u2.txt"],
                 "--intent-field", "--intents", paths["intents.txt"]]
        ranked = [*qrels, "--top-intent-only", "--run", ws["run_perfect"],
                  "--run", ws["run_reverse"]]
        argv = {
            "eval": ["eval", *ranked, "--measures", "count-prm,ndcg", "--gains", "prm"],
            "tau": ["analyze", "tau", *ranked, "--gains", "prm"],
            "robustness": ["analyze", "robustness", *ranked],
            "validate": ["validate", *ranked],
            "estimate": ["estimate", *qrels],
        }[kind]
        theta = [] if kind == "validate" else ["--theta", "2"]
        with pytest.warns(DataWarning) as record:
            code, out, err = run_cli(capsys, [*argv, "--scale", ws["scale"], *theta])
        assert (code, bool(out)) == (0, True), err
        inputs = [ws["scale"], *paths.values()]
        if kind != "estimate":
            inputs += [ws["run_perfect"], ws["run_reverse"]]
        assert sorted(parsed) == sorted(inputs)
        assert [str(w.message) for w in record if "intent '0'" in str(w.message)] == [
            f"{paths[name]}: line 4: intent '0' record carries level {level}; "
            "recorded as non-relevance for every intent"
            for name, level in (("u1.txt", 1), ("u2.txt", 2))
        ]

    def test_estimate_all_counts_pairs_once(self, capsys, ws, monkeypatch):
        from prmeval import disagreement

        calls = []
        pair_codes = disagreement.pair_codes

        def counting(pairs, scale):
            calls.append(len(pairs))
            return pair_codes(pairs, scale)

        monkeypatch.setattr(disagreement, "pair_codes", counting)
        code, out, _ = run_cli(capsys, [
            "estimate", "--scale", ws["scale"], "--pairs", ws["pairs"], "--theta", "2",
            "--estimator", "all",
        ])
        assert code == 0
        assert out.count("estimator=") == 3
        assert calls == [20]

    @pytest.mark.parametrize(
        "kind",
        ["estimate", "bootstrap", "budget", "quality", "tau", "robustness", "eval", "validate"],
    )
    def test_no_record_objects(self, capsys, ws, monkeypatch, kind):
        # judgments, pairs and runs stay in columns from the files to the counts
        from prmeval import corpus

        created = []
        for name in ("Judgment", "JudgmentPair", "RunEntry"):
            record = getattr(corpus, name)

            def counting(*args, _record=record, **kwargs):
                created.append(_record.__name__)
                return _record(*args, **kwargs)

            monkeypatch.setattr(corpus, name, counting)
        strata = f"{ws['dir']}/strata.txt"
        with open(strata, "w", encoding="utf-8") as fh:
            fh.write("201 all\n")
        pairs = ["--pairs", ws["pairs"]]
        two_qrels = ["--qrels", ws["qrels_u1"], "--qrels2", ws["qrels_u2"]]
        runs = ["--run", ws["run_perfect"], "--run", ws["run_reverse"]]
        argv = {
            "estimate": ["estimate", *pairs, "--estimator", "all", "--strata", strata],
            "bootstrap": ["analyze", "bootstrap", "--pairs", ws["pairs2"], "--seed", "1",
                          "--resamples", "5"],
            "budget": ["analyze", "budget", *pairs, "--seed", "1", "--budgets", "5,10"],
            "quality": ["analyze", "quality", *pairs, "--qrels", ws["qrels_u1"],
                        "--resource-regex", r"^(d1?)"],
            "tau": ["analyze", "tau", *two_qrels, *runs, "--gains", "prm"],
            "robustness": ["analyze", "robustness", *two_qrels, *runs, "--gains", "binary,prm"],
            "eval": ["eval", "--qrels", ws["qrels_u1"], *pairs, *runs,
                     "--measures", "count-binary,count-prm,precision,ndcg",
                     "--gains", "binary,prm"],
            "validate": ["validate", *two_qrels, *pairs, *runs],
        }[kind]
        theta = [] if kind == "validate" else ["--theta", "2"]
        code, out, _ = run_cli(capsys, [*argv, "--scale", ws["scale"], *theta])
        assert (code, bool(out)) == (0, True)
        assert created == []


class TestRunStream:
    """Runs are read one at a time, each scored against every qrels group
    as it is read and then dropped, so every flag, the qrels, the table and
    the gain schemes are checked before the first run is read."""

    @staticmethod
    def write(tmp_path, name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv, line", [
        (["eval", "--gains", "binary,binary"],
         "gain scheme 'binary' given twice in 'binary,binary'"),
        (["eval", "--measures", "ndcg,precision,ndcg"],
         "measure 'ndcg' given twice in 'ndcg,precision,ndcg'"),
        (["analyze", "tau", "--gains", "prm, prm"], "gain scheme 'prm' given twice in 'prm, prm'"),
    ], ids=["eval-gains", "eval-measures", "tau-gains"])
    def test_a_repeated_name_is_an_error_before_any_file_is_read(
        self, capsys, tmp_path, argv, line
    ):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, [
            *argv, "--scale", missing, "--qrels", missing, "--pairs", missing,
            "--run", missing, "--run", missing,
        ])
        assert (code, out, err) == (1, "", f"error: {line}\n")

    @pytest.mark.parametrize("kind", ["eval", "tau", "robustness"])
    def test_a_repeated_system_id_is_one_error_line(self, capsys, ws, tmp_path, kind):
        from pathlib import Path

        copy = self.write(tmp_path, "copy.txt", Path(ws["run_perfect"]).read_text("utf-8"))
        command = ["eval"] if kind == "eval" else ["analyze", kind, "--qrels2", ws["qrels_u2"]]
        code, out, err = run_cli(capsys, [
            *command, "--scale", ws["scale"], "--qrels", ws["qrels_u1"], "--theta", "2",
            "--run", ws["run_perfect"], "--run", ws["run_reverse"], "--run", copy,
        ])
        assert (code, out, err) == (1, "", "error: duplicate system id among runs: 'sysA'\n")

    BAD_RUN = "201 Q0 d1 x 1.0 sysC\n"

    def test_eval_reports_a_gain_fault_before_a_run_fault(self, capsys, ws, tmp_path):
        bad = self.write(tmp_path, "bad_run.txt", self.BAD_RUN)
        code, _, err = run_cli(capsys, [
            "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
            "--run", ws["run_perfect"], "--run", bad, "--gains", "custom",
        ])
        assert (code, err) == (1, "error: custom gains need --custom-gains\n")

    @pytest.mark.parametrize("kind", ["tau", "robustness"])
    def test_ranking_reports_qrels_and_table_faults_before_a_run_fault(
        self, capsys, ws, tmp_path, kind
    ):
        bad_run = self.write(tmp_path, "bad_run.txt", self.BAD_RUN)
        bad_qrels = self.write(tmp_path, "bad_qrels.txt", "201 0 d1 7\n")
        bad_table = self.write(tmp_path, "bad_table.json", '{"theta": 2}')
        argv = ["analyze", kind, "--scale", ws["scale"],
                "--run", ws["run_perfect"], "--run", bad_run]
        qrels = ["--qrels", ws["qrels_u1"], "--qrels2"]
        assert run_cli(capsys, [*argv, "--qrels", bad_qrels, "--qrels2", ws["qrels_u2"]])[::2] == (
            1, f"error: {bad_qrels}: line 1: level 7 > T=2\n"
        )
        assert run_cli(capsys, [*argv, *qrels, ws["qrels_u2"], "--gains", "prm",
                                "--table", bad_table])[::2] == (
            1, f"error: {bad_table}: disagreement table lacks 'scale'\n"
        )
        code, _, err = run_cli(capsys, [*argv, *qrels, str(tmp_path / "missing.txt")])
        assert code == 2
        assert err.startswith("io error: ") and "missing.txt" in err
        assert run_cli(capsys, [*argv, *qrels, ws["qrels_u2"]])[::2] == (
            1, f"error: {bad_run}: line 1: non-integer rank: 'x'\n"
        )

    @pytest.mark.parametrize("kind", ["tau", "robustness"])
    def test_one_run_is_an_error_before_any_file_is_read(self, capsys, tmp_path, kind):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, [
            "analyze", kind, "--scale", missing, "--qrels", missing, "--qrels2", missing,
            "--run", missing,
        ])
        assert (code, out, err) == (1, "", "error: need at least 2 --run files\n")

    @pytest.mark.parametrize("command", [["eval"], ["analyze", "tau", "--qrels2"]])
    def test_each_runs_warnings_come_together_in_command_line_order(
        self, ws, tmp_path, command
    ):
        # rising scores warn while a run is read, a topic without judgments
        # while it is scored; sysZ comes first on the command line
        runs, expected = [], []
        for system, docs in (("sysZ", ("d1", "d2")), ("sysA", ("d4", "d1"))):
            path = self.write(tmp_path, f"{system}.txt", "".join(
                f"{topic} Q0 {doc} {rank} {float(rank)} {system}\n"
                for topic in ("201", "999") for rank, doc in enumerate(docs, start=1)
            ))
            runs += ["--run", path]
            expected += [
                f"warning: {path}: run {system}, topic {topic}: scores increase down the "
                "ranking; keeping rank order" for topic in ("201", "999")
            ] + [f"warning: run {system}: skipping topics without judgments: ['999']"]
        if command[-1] == "--qrels2":
            command = [*command, ws["qrels_u2"]]
        proc = _prmeval(*command, "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                        "--theta", "2", *runs)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == expected

    @staticmethod
    def collection(tmp_path, n_runs: int) -> list[str]:
        """Flags for a scale, two groups' qrels over 40 topics, and
        ``n_runs`` distinct runs of 12000 lines each."""
        rng = random.Random(0)
        topics = [f"t{t:02d}" for t in range(40)]
        docs = [f"doc{d:04d}" for d in range(300)]
        d = tmp_path / f"runs{n_runs}"
        d.mkdir()
        flags = ["--scale", TestRunStream.write(d, "scale.json", '{"labels": ["0", "1", "2"]}')]
        for flag in ("--qrels", "--qrels2"):
            qrels = "".join(
                f"{t} 0 {doc} {2 if i == 0 else rng.randrange(3)}\n"
                for t in topics for i, doc in enumerate(rng.sample(docs, 30))
            )
            flags += [flag, TestRunStream.write(d, f"{flag[2:]}.txt", qrels)]
        for s in range(n_runs):
            lines = []
            for t in topics:
                ranked = rng.sample(docs, len(docs))
                lines += [f"{t} Q0 {doc} {r} {1000 - r} sys{s}\n"
                          for r, doc in enumerate(ranked, start=1)]
            flags += ["--run", TestRunStream.write(d, f"run{s}.txt", "".join(lines))]
        return flags

    @pytest.mark.parametrize("command", [["eval"], ["analyze", "tau"]])
    def test_peak_memory_does_not_grow_with_the_number_of_runs(self, tmp_path, command):
        import tracemalloc

        out = ["--out", str(tmp_path / "out.txt"), "--gains", "linear"]
        argvs = {n: [*command, *self.collection(tmp_path, n), *out] for n in (2, 8)}
        if command == ["eval"]:
            argvs = {n: [a for a in argv if "qrels2" not in a] for n, argv in argvs.items()}
        assert main(argvs[2]) == 0  # imports and first-call caches stay out of the peaks
        peaks = {}
        for n, argv in argvs.items():
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] < 1.3 * peaks[2], peaks
