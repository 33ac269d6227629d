from __future__ import annotations

import csv
import io
import json
import random

import pytest

from prmeval.cli import main
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
        assert "biased" in err

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
        assert "symmetric estimator is biased" in err
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
        return [
            "analyze", kind, "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
            "--qrels2", ws["qrels_u2"], *[a for r in runs for a in ("--run", r)],
            "--theta", "2", "--gains", gains, "--format", "json",
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
    def test_count_binary_needs_no_table_for_prm_gains(self, ws):
        # the gains only apply to ndcg, which is not measured here
        proc = _prmeval("eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"],
                        "--theta", "2", "--measures", "count-binary", "--gains", "prm")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("count_binary\t201\t")

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


class TestInputsReadOnce:
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
            "eval", "--scale", ws["scale"], "--qrels", ws["qrels_u1"], "--theta", "2",
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
        argv = ["analyze", kind, "--scale", ws["scale"], "--theta", "2",
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

        out = ["--out", str(tmp_path / "out.txt"), "--gains", "linear", "--theta", "2"]
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
