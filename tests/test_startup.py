"""Start-up pays only for what the command runs.

``import prmeval`` resolves its public names on first access, and each
CLI handler imports the modules it uses when it runs, so ``--help``, a
usage error and ``validate`` load no numpy.  Neither do ``estimate``,
``analyze quality`` and ``analyze bootstrap``, which only count judgment
pairs, nor the scoring commands: only ``analyze budget`` imports it, so
numpy is no dependency of the package.  With numpy blocked, every other
command gives the same bytes, and ``analyze budget`` one error line once
its inputs are checked.  The records of ``corpus``, ``disagreement`` and
``analysis`` are not dataclasses, so ``validate`` and the counting
commands load neither ``dataclasses`` nor the ``inspect`` it imports;
only the commands that load ``metrics`` do, for its one dataclass.
Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs ``main(argv)`` (or only builds the parser when argv is null) and
# prints, on its last line, the exit code and the loaded modules.
PROBE = """
import json, sys
import prmeval.cli as cli
argv = json.loads(sys.argv[1])
if argv is None:
    cli.build_parser()
    code = None
else:
    code = cli.main(argv)
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

HEAVY = {
    "numpy", "prmeval.analysis", "prmeval.corpus", "prmeval.disagreement", "prmeval.metrics",
}

# the only prmeval modules that a command which only counts pairs loads
COUNTING_OWN = {"prmeval", "prmeval.cli", "prmeval.corpus", "prmeval.disagreement",
                "prmeval.errors"}

# what `@dataclass` imports: the commands that build no dataclass load neither
NO_CODEGEN = {"dataclasses", "inspect"}


def _python(code: str, *args: str, cwd: str | None = None) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _probe(argv: list[str] | None, cwd: str | None = None) -> tuple[int | None, set[str]]:
    last = _python(PROBE, json.dumps(argv), cwd=cwd).splitlines()[-1]
    result = json.loads(last)
    return result["code"], set(result["modules"])


@pytest.fixture()
def inputs(
    tmp_path, scale3_json, golden_qrels_u1, golden_qrels_u2, golden_paired_text
) -> str:
    """A directory with a scale, both groups' qrels, pairs over two topics,
    the qrels of both topics, a strata map and two runs."""
    (tmp_path / "scale.json").write_text(scale3_json, encoding="utf-8")
    (tmp_path / "qrels.txt").write_text(golden_qrels_u1, encoding="utf-8")
    (tmp_path / "qrels2.txt").write_text(golden_qrels_u2, encoding="utf-8")
    two_topics = golden_paired_text + golden_paired_text.replace("201 ", "202 ")
    (tmp_path / "pairs.txt").write_text(two_topics, encoding="utf-8")
    both = golden_qrels_u1 + golden_qrels_u1.replace("201 ", "202 ")
    (tmp_path / "qrels_both.txt").write_text(both, encoding="utf-8")
    (tmp_path / "strata.txt").write_text("201 a\n202 b\n", encoding="utf-8")
    run = "".join(f"201 Q0 d{r} {r} {30 - r} sysA\n" for r in range(1, 21))
    (tmp_path / "run.txt").write_text(run, encoding="utf-8")
    run2 = "".join(f"201 Q0 d{21 - r} {r} {30 - r} sysB\n" for r in range(1, 21))
    (tmp_path / "run2.txt").write_text(run2, encoding="utf-8")
    return str(tmp_path)


PAIRS = ["--scale", "scale.json", "--pairs", "pairs.txt", "--theta", "2"]

# The standard-library modules that prmeval.cli imports by name, and those
# that corpus and disagreement, which the quick-start `estimate` runs,
# import besides.  Beyond what these load, `import prmeval.cli` loads only
# `__future__` and prmeval's own modules; the estimate also loads the
# `locale` that argparse's gettext reads and the codec of its input files.
CLI_STDLIB = "argparse, contextlib, importlib, io, json, sys, typing, warnings"
ESTIMATE_STDLIB = CLI_STDLIB + ", array, collections, itertools, math, operator, re"
CLI_OWN = {"__future__", "prmeval", "prmeval.cli", "prmeval.errors"}
ESTIMATE_OWN = CLI_OWN | {"prmeval.corpus", "prmeval.disagreement", "locale", "_locale",
                          "encodings.utf_8_sig"}


def _modules(code: str) -> set[str]:
    listing = "import json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_python(f"{code}\n{listing}")))


class TestStartup:
    def test_parser_loads_no_numpy_and_no_layer(self):
        _, modules = _probe(None)
        assert "prmeval.cli" in modules
        assert not modules & HEAVY

    @pytest.mark.parametrize("argv", [
        ["--help"], ["eval", "--help"], ["nope"], ["analyze", "bootstrap", "--help"],
    ])
    def test_help_and_usage_errors_load_no_numpy(self, argv):
        code, modules = _probe(argv)
        assert code == (1 if argv == ["nope"] else 0)
        assert "numpy" not in modules

    def test_validate_loads_no_numpy(self, inputs):
        code, modules = _probe(
            ["validate", "--scale", "scale.json", "--qrels", "qrels.txt",
             "--pairs", "pairs.txt", "--run", "run.txt", "--out", "out.txt"],
            cwd=inputs,
        )
        assert code == 0
        assert "prmeval.corpus" in modules
        assert not {"numpy", "prmeval.disagreement", *NO_CODEGEN} & modules

    def test_estimate_loads_no_analysis_or_metrics(self, inputs):
        code, modules = _probe(["estimate", *PAIRS, "--out", "out.txt"], cwd=inputs)
        assert code == 0
        assert "prmeval.disagreement" in modules
        assert not {"prmeval.analysis", "prmeval.metrics"} & modules

    @pytest.mark.parametrize("argv", [
        ["estimate", *PAIRS, "--estimator", "all", "--strata", "strata.txt"],
        ["analyze", "quality", *PAIRS, "--qrels", "qrels_both.txt", "--resource-regex", "^(d1?)"],
        ["analyze", "bootstrap", *PAIRS, "--resamples", "20", "--seed", "1"],
    ], ids=["estimate", "quality", "bootstrap"])
    def test_counting_commands_load_no_numpy(self, inputs, argv):
        code, modules = _probe([*argv, "--out", "out.txt"], cwd=inputs)
        assert code == 0
        assert {m for m in modules if m.startswith("prmeval")} == COUNTING_OWN
        assert not {"numpy", *NO_CODEGEN} & modules

    @pytest.mark.parametrize("argv", [
        ["eval", *PAIRS, "--qrels", "qrels.txt", "--run", "run.txt",
         "--measures", "ndcg,precision,count-prm", "--gains", "binary,prm"],
        ["analyze", "tau", *PAIRS, "--qrels", "qrels.txt", "--run", "run.txt",
         "--run", "run2.txt", "--gains", "prm"],
        ["analyze", "robustness", "--scale", "scale.json", "--theta", "2",
         "--qrels", "qrels.txt", "--qrels2", "qrels2.txt", "--run", "run.txt",
         "--run", "run2.txt", "--gains", "binary,prm,udm"],
    ], ids=["eval", "tau", "robustness"])
    def test_scoring_commands_load_no_numpy(self, inputs, argv):
        code, modules = _probe([*argv, "--out", "out.txt"], cwd=inputs)
        assert code == 0
        assert "prmeval.metrics" in modules
        assert "numpy" not in modules

    def test_resampling_loads_no_numpy_ma(self, inputs):
        # the budget sweep imports numpy for its draw, but its summaries
        # are written out in pure Python, as the bootstrap's are
        argv = ["analyze", "budget", *PAIRS, "--budgets", "5,10", "--rounds", "3",
                "--seed", "1", "--out", "out.txt"]
        code, modules = _probe(argv, cwd=inputs)
        assert code == 0
        assert {"prmeval.analysis", "prmeval.metrics", "numpy"} <= modules
        assert "numpy.ma" not in modules

    def test_cli_import_loads_nothing_new(self):
        loaded = _modules("import prmeval.cli") - _modules(f"import {CLI_STDLIB}")
        assert "prmeval.cli" in loaded
        assert loaded <= CLI_OWN

    def test_quick_start_estimate_loads_nothing_new(self, inputs):
        code, modules = _probe(["estimate", *PAIRS, "--out", "out.txt"], cwd=inputs)
        assert code == 0
        loaded = modules - _modules(f"import {ESTIMATE_STDLIB}")
        assert {"prmeval.corpus", "prmeval.disagreement"} <= loaded
        assert loaded <= ESTIMATE_OWN

    def test_estimate_adds_no_flag_to_any_other_parser(self, inputs, monkeypatch):
        import argparse

        import prmeval.cli as cli

        built, build = [], cli.build_parser

        def spy(argv=None):
            built.append(build(argv))
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        monkeypatch.chdir(inputs)
        assert cli.main(["estimate", *PAIRS, "--out", "out.txt"]) == 0

        def flags(parser, words=()):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
            yield " ".join(words), options
            for name, sub in (subs[0].choices.items() if subs else ()):
                yield from flags(sub, (*words, name))

        given = {words for words, options in flags(built[0]) if options}
        assert given == {"estimate"}
        every = {words for words, options in flags(build()) if options}
        assert len(every) == 8 and "estimate" in every

    def test_cli_reads_the_layers_as_attributes(self):
        import importlib

        import prmeval.cli as cli

        for name in ("analysis", "corpus", "disagreement", "metrics"):
            assert getattr(cli, name) is importlib.import_module(f"prmeval.{name}")
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            cli.nope  # noqa: B018


class TestLazyPackage:
    def test_every_public_name_resolves(self):
        # each name is first reached through `from prmeval import <name>`
        code = """
import importlib, prmeval
for name in prmeval.__all__:
    ns = {}
    exec(f"from prmeval import {name}", ns)
    owner = importlib.import_module(f"prmeval.{prmeval._EXPORTS[name]}")
    assert ns[name] is getattr(owner, name), name
print("ok")
"""
        assert _python(code).split() == ["ok"]

    def test_star_import_resolves_all(self):
        code = """
import json
ns = {}
exec("from prmeval import *", ns)
print(json.dumps(sorted(k for k in ns if k != "__builtins__")))
"""
        import prmeval

        assert json.loads(_python(code)) == prmeval.__all__

    def test_dir_lists_all_before_any_access(self):
        code = "import json, prmeval; print(json.dumps(dir(prmeval)))"
        import prmeval

        assert set(prmeval.__all__) <= set(json.loads(_python(code)))

    def test_import_loads_no_submodule(self):
        code = "import json, sys, prmeval; print(json.dumps(sorted(sys.modules)))"
        modules = set(json.loads(_python(code)))
        assert not {m for m in modules if m.startswith("prmeval.")}
        assert "numpy" not in modules

    def test_quality_sweep_loads_no_numpy(self):
        code = """
import json, sys
from prmeval import quality_sensitivity
print(json.dumps(sorted(sys.modules)))
"""
        modules = set(json.loads(_python(code)))
        assert "prmeval.disagreement" in modules
        assert not {"numpy", "prmeval.analysis", "prmeval.metrics"} & modules

    def test_bootstrap_loads_no_metrics(self):
        code = """
import json, sys
import prmeval
prmeval.bootstrap_topics
print(json.dumps(sorted(sys.modules)))
"""
        modules = set(json.loads(_python(code)))
        assert "prmeval.disagreement" in modules
        assert not {"numpy", "prmeval.analysis", "prmeval.metrics", *NO_CODEGEN} & modules

    def test_unknown_name_is_an_attribute_error(self):
        import prmeval

        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            prmeval.nope  # noqa: B018
        with pytest.raises(ImportError):
            exec("from prmeval import nope", {})


# Runs ``main(argv)`` for each argv in turn, with numpy blocked when asked,
# and prints each run's exit code, stdout and stderr as one JSON list.
RUN = """
import contextlib, io, json, sys
if json.loads(sys.argv[2]):
    sys.modules["numpy"] = None  # so every import of numpy raises ImportError
import prmeval.cli as cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _runs(argvs: list[list[str]], cwd: str, *, numpy: bool) -> list[list]:
    return json.loads(_python(RUN, json.dumps(argvs), json.dumps(not numpy), cwd=cwd))


BUDGET = ["analyze", "budget", *PAIRS, "--budgets", "5,10", "--rounds", "3"]


class TestWithoutNumpy:
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_every_other_command_gives_the_same_bytes(self, inputs, fmt):
        argvs = [[*argv, "--format", fmt] for argv in (
            ["validate", "--scale", "scale.json", "--qrels", "qrels.txt",
             "--pairs", "pairs.txt", "--run", "run.txt"],
            ["estimate", *PAIRS, "--estimator", "all", "--strata", "strata.txt"],
            ["eval", *PAIRS, "--qrels", "qrels.txt", "--run", "run.txt",
             "--measures", "ndcg,precision,count-prm", "--gains", "binary,prm"],
            ["analyze", "tau", *PAIRS, "--qrels", "qrels.txt", "--run", "run.txt",
             "--run", "run2.txt", "--gains", "prm"],
            ["analyze", "robustness", "--scale", "scale.json", "--theta", "2",
             "--qrels", "qrels.txt", "--qrels2", "qrels2.txt", "--run", "run.txt",
             "--run", "run2.txt", "--gains", "binary,prm,udm"],
            ["analyze", "bootstrap", *PAIRS, "--resamples", "20", "--seed", "1"],
            ["analyze", "quality", *PAIRS, "--qrels", "qrels_both.txt",
             "--resource-regex", "^(d1?)"],
        )]
        with_numpy = _runs(argvs, inputs, numpy=True)
        assert [code for code, _, _ in with_numpy] == [0] * len(argvs)
        assert _runs(argvs, inputs, numpy=False) == with_numpy

    def test_budget_is_one_error_line(self, inputs):
        assert _runs([[*BUDGET, "--seed", "1"]], inputs, numpy=False) == [
            [1, "", "error: analyze budget needs numpy; install prmeval[budget]\n"],
        ]

    def test_budget_checks_its_inputs_first(self, inputs):
        # help, a usage error, and the sweep's own checks of its inputs
        argvs = [
            ["analyze", "budget", "--help"],
            BUDGET,
            [*BUDGET, "--seed", "1", "--budgets", "10,5"],
            [*BUDGET, "--seed", "1", "--one-sided-collection"],
            [*BUDGET, "--seed", "1", "--theta", "3"],
        ]
        with_numpy = _runs(argvs, inputs, numpy=True)
        assert [code for code, _, _ in with_numpy] == [0, 1, 1, 1, 1]
        assert _runs(argvs, inputs, numpy=False) == with_numpy

    def test_star_import_resolves_all(self):
        code = """
import json, sys
sys.modules["numpy"] = None
ns = {}
exec("from prmeval import *", ns)
print(json.dumps(sorted(k for k in ns if k != "__builtins__")))
"""
        import prmeval

        assert json.loads(_python(code)) == prmeval.__all__
