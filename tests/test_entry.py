"""The process entry: ``prmeval.__main__.run``.

``python -m prmeval`` and the ``prmeval`` console script both call
`run`, which turns the cyclic garbage collector off before the CLI is
imported and freezes what is left once the command returns, so that no
collector pass runs in a command and the collection at interpreter
shutdown has nothing to traverse.  Each check runs in a fresh
interpreter, since that is the process `run` is made for, and compares
with `cli.main`, which keeps the collector as it finds it.

With the collector off, a command's cyclic garbage stays in memory until
the process exits; the checks below pin that it does not grow with the
input: the same count of unreachable objects for 10 or 200 resamples, 2
or 20 rounds, 2 or 8 runs, and a pairs file or one 3 times as large.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from prmeval import cli

from synth import quality_fixture, robustness_benchmark, write_paired, write_qrels, write_run

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# Runs ``run(argv)`` with `cli.main` wrapped to record whether the
# collector was on, and prints the state of the collector at each step.
ENTRY_PROBE = """
import gc, json, sys
import prmeval.__main__ as entry
imported = [gc.isenabled(), gc.get_freeze_count()]
import prmeval.cli as cli
main, seen = cli.main, []
def spy(argv=None):
    seen.append(gc.isenabled())
    return main(argv)
cli.main = spy
code = entry.run(json.loads(sys.argv[1]))
print(json.dumps({"imported": imported, "seen": seen, "code": code,
                  "enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""

# ``main(argv)`` with the collector off from the start, as under `run`;
# prints the exit code and what a full collection finds afterwards.
GARBAGE_PROBE = """
import contextlib, gc, io, json, sys
gc.disable()
from prmeval.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "unreachable": gc.collect()}))
"""

# the console script as setuptools writes it, which calls `run` with no argv
SCRIPT = "import sys\nfrom prmeval.__main__ import run\nsys.exit(run())"


def _env() -> dict[str, str]:
    # a fixed width, so that argparse wraps its usage lines the same everywhere
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, COLUMNS="80")


def _python(*args: str, cwd: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, env=_env())


def _json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # what the interpreter does with a warning, where pytest would record it
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@pytest.fixture()
def quick(tmp_path, scale3_json, golden_qrels_u1, golden_paired_text) -> str:
    """The README quick start's files, and a run that retrieves one topic
    that is not judged."""
    (tmp_path / "scale.json").write_text(scale3_json, encoding="utf-8")
    (tmp_path / "pairs.txt").write_text(golden_paired_text, encoding="utf-8")
    (tmp_path / "qrels.txt").write_text(golden_qrels_u1, encoding="utf-8")
    run = "".join(f"201 Q0 d{r} {r} {30 - r} sysA\n" for r in range(1, 21))
    (tmp_path / "run.txt").write_text(run + "999 Q0 d1 1 1.0 sysA\n", encoding="utf-8")
    return str(tmp_path)


PAIRS = ["--scale", "scale.json", "--pairs", "pairs.txt", "--theta", "2"]
CASES = {
    "success": (0, ["estimate", *PAIRS]),
    "usage-error": (1, ["estimate", *PAIRS, "--seed", "1"]),
    "io-error": (2, ["estimate", *PAIRS[:3], "missing.txt"]),
    "warning": (0, ["eval", *PAIRS, "--qrels", "qrels.txt", "--run", "run.txt",
                    "--gains", "binary,prm"]),
}


class TestEntry:
    def test_run_calls_main_with_the_collector_off_and_freezes_it(self, quick):
        argv = ["estimate", *PAIRS, "--out", "out.txt"]
        result = _json(_python("-c", ENTRY_PROBE, json.dumps(argv), cwd=quick))
        # importing the entry changes nothing; the process ends frozen
        assert result["imported"] == [True, 0]
        assert result["seen"] == [False]
        assert (result["code"], result["enabled"]) == (0, False)
        assert result["frozen"] > 0

    @pytest.mark.parametrize("case", CASES)
    def test_both_launch_paths_give_the_bytes_of_main(self, quick, case, capsys, monkeypatch):
        code, argv = CASES[case]
        module = _python("-m", "prmeval", *argv, cwd=quick)
        script = _python("-c", SCRIPT, *argv, cwd=quick)
        assert (module.returncode, module.stdout, module.stderr) == \
            (script.returncode, script.stdout, script.stderr)
        # in this process, with warnings printed as an interpreter prints them
        monkeypatch.chdir(quick)
        monkeypatch.setenv("COLUMNS", "80")
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = _print_warning
            got = cli.main(argv)
        out, err = capsys.readouterr()
        assert (got, out.encode(), err.encode()) == \
            (module.returncode, module.stdout, module.stderr)
        assert module.returncode == code
        assert bool(module.stdout) == (code == 0)
        assert bool(module.stderr) == (case != "success")

    def test_console_script_is_the_entry(self):
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert '\nprmeval = "prmeval.__main__:run"\n' in text


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> str:
    """Pairs, two qrels groups and 12 runs over 24 topics, and the quality
    sweep's reference qrels and pairs at 8 and at 24 topics."""
    d = tmp_path_factory.mktemp("garbage")
    runs, levels_u1, levels_u2, pairs = robustness_benchmark(1)
    (d / "scale.json").write_text('{"labels": ["Non", "Rel", "HRel"]}', encoding="utf-8")
    for name, levels in (("qrels.txt", levels_u1), ("qrels2.txt", levels_u2)):
        lines = (f"{t} 0 {doc} {lv}\n" for t, docs in levels.items() for doc, lv in docs.items())
        (d / name).write_text("".join(lines), encoding="utf-8")
    with open(d / "pairs.txt", "w", encoding="utf-8") as fh:
        write_paired(pairs, fh)
    for run in runs:
        with open(d / f"{run.system_id}.txt", "w", encoding="utf-8") as fh:
            write_run(run, fh)
    for suffix, n_topics in (("", 8), ("3", 24)):
        reference, quality_pairs = quality_fixture(1, n_topics=n_topics)
        with open(d / f"ref{suffix}.txt", "w", encoding="utf-8") as fh:
            write_qrels(reference, fh)
        with open(d / f"qpairs{suffix}.txt", "w", encoding="utf-8") as fh:
            write_paired(quality_pairs, fh)
    return str(d)


SCALE = ["--scale", "scale.json"]
RANK = [*SCALE, "--qrels", "qrels.txt", "--qrels2", "qrels2.txt", "--pairs", "pairs.txt",
        "--override-p0", "--gains", "binary,prm"]
GROWTH = {
    "bootstrap": [["analyze", "bootstrap", *SCALE, "--pairs", "pairs.txt", "--seed", "1",
                   "--resamples", n] for n in ("10", "200")],
    "budget": [["analyze", "budget", *SCALE, "--pairs", "pairs.txt", "--seed", "1",
                "--budgets", "20,50,100", "--rounds", n] for n in ("2", "20")],
    "robustness": [["analyze", "robustness", *RANK,
                    *(a for s in range(n) for a in ("--run", f"sys{s:02d}.txt"))]
                   for n in (2, 8)],
    "quality": [["analyze", "quality", *SCALE, "--pairs", f"qpairs{s}.txt", "--qrels",
                 f"ref{s}.txt", "--resource-regex=-(res\\d+)-"] for s in ("", "3")],
}


@pytest.mark.parametrize("command", GROWTH)
def test_uncollected_garbage_does_not_grow_with_the_input(inputs, command):
    if command == "budget":
        pytest.importorskip("numpy")
    small, large = (_json(_python("-c", GARBAGE_PROBE, *argv, cwd=inputs))
                    for argv in GROWTH[command])
    assert small["code"] == large["code"] == 0
    assert small["unreachable"] == large["unreachable"] > 0
