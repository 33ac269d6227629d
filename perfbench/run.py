"""Benchmark of the ``prmeval`` command line on seeded TREC-scale inputs.

    python3 perfbench/run.py --workload scoring --seed 0 --seconds 60 --trace 0

Run it from the root of a source checkout: the program is taken from
``src/`` and nothing is installed.  The inputs are drawn from ``--seed``
(``gen.py``) into ``.perfbench_work/``, which is removed at the end.
``workloads.py`` says which inputs and commands each workload has.

``--trace 0`` runs the workload's commands (``workloads.py``) one after
another, each in a fresh interpreter as users run them, in passes that
fill ``--seconds`` (at least one full pass).  Times are reported in
host-speed-normalised seconds (see ``timed_run``): each command's median
over the passes, their sum, and the median set-up time.

``--trace 1`` runs the commands in-process through ``prmeval.cli.main``,
once untraced and once traced, then traced again on half-size inputs,
and reports the per-layer metrics (``tracing.py``); the spans are written
to ``.perfbench_out/``.

Every output is checked (``checks.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_DIR = os.path.join(HERE, "expected")
DEFAULT_SEED = 0
SETUP_PER_PASS = 3
SETUP_CODE = "import prmeval.cli as cli; cli.build_parser()"
# The reference loop that measures the host's current speed, and the
# time it counts as taking at nominal speed: about its median on the
# 2-vCPU Xeon VM where perfbench/baseline.json was recorded.
REF_LOOPS = 600_000
REF_NOMINAL_S = 0.1

# name -> unit; every one is reported on every workload
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def _spawn(argv: list[str], cwd: str, out_path: str) -> tuple[int, float, float, str]:
    """Run one process to completion: exit code, wall seconds, max RSS
    in MB, and the head of its standard error."""
    env = dict(os.environ, PYTHONPATH=SRC)
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr_head = fh.read(500)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0, stderr_head


def _load_expected(workload: str, seed: int) -> dict | None:
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    return stored["outputs"] if stored["seed"] == seed else None


class Tally:
    """Commands attempted and failed; failures are reported on stderr."""

    def __init__(self, expected: dict | None) -> None:
        self.expected = expected
        self.attempted = self.failed = 0

    def record(
        self, cmd: workloads.Command, code: int, text: str, earlier: dict, stderr: str = ""
    ) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {stderr.strip()[:300]}"]
        else:
            problems = checks.check(cmd.name, text, cmd.info, earlier, self.expected)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {cmd.name}: {p}", file=sys.stderr)

    def record_pass(self, cmds: list[workloads.Command], results: dict) -> None:
        """Check one in-process pass: ``results`` as ``tracing.run_pass`` gives them."""
        earlier: dict[str, str] = {}
        for cmd in cmds:
            code, text, _ = results[cmd.name]
            self.record(cmd, code, text, earlier)
            earlier[cmd.name] = text


def _pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    On a shared host each CPU's speed drifts on its own, by up to 1.5x
    within seconds, so the reference loop only tracks the speed a command
    saw when both ran on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _reference_s() -> float:
    """Seconds the fixed reference loop takes now: a small pure-Python
    integer and dict loop, with the garbage collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(REF_LOOPS):
            acc += i * i % 7
            table[i & 1023] = acc
        return time.perf_counter() - start
    finally:
        gc.enable()


class Normaliser:
    """Converts measured seconds to host-speed-normalised seconds.

    Every measurement is bracketed by two runs of the reference loop;
    the measured time is scaled by ``REF_NOMINAL_S`` over the mean of the
    two, i.e. to what it would be on a host where the loop takes
    ``REF_NOMINAL_S``.  Consecutive measurements share a bracket.
    """

    def __init__(self) -> None:
        self.refs = [_reference_s()]

    def __call__(self, secs: float) -> float:
        self.refs.append(_reference_s())
        return secs * REF_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)


def _setup_once(work: str) -> float:
    code, secs, _, err = _spawn([sys.executable, "-c", SETUP_CODE], work, os.path.join(work, "setup.out"))
    if code != 0:
        raise SystemExit(f"perfbench: cannot import prmeval.cli from {SRC}: {err}")
    return secs


def timed_run(workload: str, seed: int, seconds: float, work: str, record: bool) -> dict:
    """Passes over the workload's commands, one fresh process each.

    On a shared machine other tenants change the host's speed by up to
    1.5x for seconds to minutes at a time, which a raw wall time cannot
    tell from a change in the program.  So every time is normalised
    (``Normaliser``) by the reference loop run just before and after it
    on the same CPU.  A command's time is its median over the passes, and
    ``wall_s`` is their sum; ``setup_s`` is the median of
    ``SETUP_PER_PASS`` samples taken before every pass, so that it spans
    the whole run.  The raw medians are printed for comparison.

    After the first full pass, a pass ends early at the first command
    whose longest time so far no longer fits in ``seconds``, so that the
    run uses its time; every command keeps at least one sample.
    """
    cmds = workloads.prepare(workload, seed, os.path.join(work, "inputs"))
    tally = Tally(None if record else _load_expected(workload, seed))
    _setup_once(work)  # fills the bytecode caches

    norm = Normaliser()
    setup: list[tuple[float, float]] = []  # (normalised, raw) seconds
    samples: dict[str, list[tuple[float, float, float]]] = {c.name: [] for c in cmds}
    longest: dict[str, float] = {"setup": 0.0}
    full_passes = 0
    start = time.perf_counter()

    def fits(*names: str) -> bool:
        left = seconds - (time.perf_counter() - start)
        return not full_passes or sum(longest[n] for n in names) <= left

    while fits("setup", cmds[0].name):
        began = time.perf_counter()
        for _ in range(SETUP_PER_PASS):
            secs = _setup_once(work)
            setup.append((norm(secs), secs))
        longest["setup"] = max(longest["setup"], time.perf_counter() - began)
        outputs: dict[str, str] = {}
        for cmd in cmds:
            if not fits(cmd.name):
                break
            began = time.perf_counter()
            out_path = os.path.join(work, f"{cmd.name}.out")
            argv = [sys.executable, "-m", "prmeval", *cmd.argv]
            code, secs, rss, err = _spawn(argv, cmd.cwd, out_path)
            samples[cmd.name].append((norm(secs), secs, rss))
            longest[cmd.name] = max(longest.get(cmd.name, 0.0), time.perf_counter() - began)
            with open(out_path, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
            tally.record(cmd, code, text, outputs, err)
            outputs[cmd.name] = text
        else:
            full_passes += 1
            if record and full_passes == 1:
                _record_expected(workload, seed, outputs)

    def median_of(name: str, i: int) -> float:
        return statistics.median(x[i] for x in samples[name])

    per_cmd = {c.name: median_of(c.name, 0) for c in cmds}
    metrics = {
        "setup_s": statistics.median(n for n, _ in setup),
        "wall_s": sum(per_cmd.values()),
        "peak_rss_mb": max(median_of(c.name, 2) for c in cmds),
    }
    print(f"{workload} seed {seed}: {full_passes} full passes of {len(cmds)} commands; "
          f"reference loop median {statistics.median(norm.refs):.4f} s "
          f"(nominal {REF_NOMINAL_S} s) over {len(norm.refs)} runs")
    for name, value in per_cmd.items():
        print(f"  {name}_s = {value:.4f} s normalised, {median_of(name, 1):.4f} s raw, "
              f"{len(samples[name])} samples")
    print(f"  setup_s raw = {statistics.median(r for _, r in setup):.4f} s, {len(setup)} samples")
    rate = tally.failed / tally.attempted
    print(f"  error_rate = {rate:g} ratio ({tally.failed} of {tally.attempted} commands)")
    return _result(tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def traced_run(workload: str, seed: int, work: str) -> dict:
    sys.path.insert(0, SRC)
    import prmeval.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported prmeval from {cli.__file__}, not {SRC}")
    cmds = workloads.prepare(workload, seed, os.path.join(work, "full"))
    half_cmds = workloads.prepare(workload, seed, os.path.join(work, "half"), half=True)

    untraced = tracing.run_pass(cli, cmds)
    full, traced = tracing.traced_pass(cli, cmds)
    half, traced_half = tracing.traced_pass(cli, half_cmds)

    tally = Tally(_load_expected(workload, seed))
    tally.record_pass(cmds, untraced)
    tally.record_pass(cmds, traced)
    half_tally = Tally(None)
    half_tally.record_pass(half_cmds, traced_half)
    tally.attempted += half_tally.attempted
    tally.failed += half_tally.failed

    metrics = tracing.layer_metrics(
        full, half,
        {name: text for name, (_, text, _) in traced.items()},
        sum(secs for _, _, secs in untraced.values()),
    )
    units = dict(tracing.per_layer_metrics())
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans-{workload}-seed{seed}.json"), "w") as fh:
        json.dump({"full": full.spans, "half": half.spans}, fh)
    for name, cmd_total in sorted(metrics.items()):
        if name.startswith("cli.") and name.endswith(".total_s") and cmd_total:
            print(f"  {name} = {cmd_total:.4f} s (traced, in-process)")
    return _result(tally, {k: (v, units[k]) for k, v in metrics.items()})


def _record_expected(workload: str, seed: int, outputs: dict[str, str]) -> None:
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    stored = {
        "seed": seed,
        "outputs": {name: checks.flatten(name, text) for name, text in outputs.items()},
    }
    with open(os.path.join(EXPECTED_DIR, f"{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=0, sort_keys=True)
        fh.write("\n")


def _result(tally: Tally, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-expected", action="store_true",
        help=f"store this run's outputs as the expected outputs (seed {DEFAULT_SEED} only)",
    )
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prmeval", "cli.py")):
        print(f"perfbench: no prmeval sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_expected and (args.trace or args.seed != DEFAULT_SEED):
        ap.error(f"--record-expected needs --trace 0 and --seed {DEFAULT_SEED}")

    _pin_to_one_cpu()
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, work)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, work, args.record_expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
