"""Traced in-process runs of a workload through ``prmeval.cli.main``.

The tracer wraps the public functions of the five layers (``corpus``,
``disagreement``, ``metrics``, ``analysis`` and ``cli``) from the
benchmark's side: ``install`` swaps each function for a wrapper in every
``prmeval`` module that holds it, and the returned callable puts the
originals back.  The wrappers exist only in the traced run, never in the
timed runs.  Spans are kept in memory; a span's self time is its
duration minus the durations of its child spans, all in integer
nanoseconds, so the self times of one command add up to its root span
exactly.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import math
import os
import sys
import time
from typing import Callable

# (span name, module, attribute, counter, counts reported besides self_s)
# A counter maps the call's bound arguments and result to counts; it runs
# after the span closes, so its cost is not charged to the layer.
LAYERS: list[tuple[str, str, str, Callable | None, tuple[str, ...]]] = [
    ("corpus.parse_run", "corpus", "parse_run",
     lambda a, r: {"records": len(r.entries)}, ("records",)),
    ("corpus.parse_qrels", "corpus", "parse_qrels",
     lambda a, r: {"records": len(r)}, ("records",)),
    ("corpus.parse_paired", "corpus", "parse_paired",
     lambda a, r: {"records": len(r)}, ("records",)),
    ("corpus.pair_judgments", "corpus", "pair_judgments",
     lambda a, r: {"pairs": len(r.pairs)}, ("pairs",)),
    ("corpus.attach_resources", "corpus", "attach_resources", None, ()),
    ("corpus.doc_levels", "corpus", "JudgmentSet.doc_levels", None, ()),
    ("corpus.doc_ids", "corpus", "RunRanking.doc_ids",
     lambda a, r: {"entries_scanned": len(a["self"].entries)}, ("calls", "entries_scanned")),
    ("disagreement.estimate_symmetric", "disagreement", "estimate_symmetric",
     lambda a, r: {"pairs_in": len(a["pairs"])}, ("calls", "pairs_in")),
    ("disagreement.estimate_one_sided", "disagreement", "estimate_one_sided",
     lambda a, r: {"pairs_in": len(a["pairs"])}, ("calls", "pairs_in")),
    ("metrics.ndcg_at_k", "metrics", "ndcg_at_k",
     lambda a, r: {"topics": r.n_topics + len(r.excluded)}, ("calls", "topics")),
    ("metrics.topic_dcg", "metrics", "topic_dcg", None, ("calls",)),
    ("metrics.ideal_dcg_at_k", "metrics", "ideal_dcg_at_k", None, ("calls",)),
    ("metrics.expected_precision_report", "metrics", "expected_precision_report", None,
     ("calls",)),
    ("metrics.expected_count_report", "metrics", "expected_count_report", None, ()),
    ("analysis.bootstrap_topics", "analysis", "bootstrap_topics",
     lambda a, r: {"resamples": a["n_resamples"]}, ("resamples",)),
    ("analysis.simulate_annotation_rounds", "analysis", "simulate_annotation_rounds",
     lambda a, r: {"tables": a["n_rounds"] * sum(1 for b in a["budgets"] if b > 0)},
     ("tables",)),
    ("analysis.quality_sensitivity", "analysis", "quality_sensitivity",
     lambda a, r: {"steps": len(r.x)}, ("steps",)),
    ("analysis.robustness_study", "analysis", "robustness_study", None, ()),
    ("analysis.kendall_tau", "analysis", "kendall_tau", None, ("calls",)),
]

COMMANDS = ("validate", "eval", "estimate", "bootstrap", "budget", "quality", "robustness", "tau")



def _get(agg: dict, span: str, key: str) -> float:
    return agg.get(span, {}).get(key, 0)


def _pairs_in(agg: dict) -> int:
    return sum(_get(agg, f"disagreement.estimate_{e}", "pairs_in") for e in ("symmetric", "one_sided"))


# What the scaling probe compares between the full and the half-size
# inputs, as log2(full / half): self times, and exact counts of work.
GROWTH = {
    "corpus.doc_ids.growth": lambda a: _get(a, "corpus.doc_ids", "self_s"),
    "metrics.ndcg_at_k.growth": lambda a: _get(a, "metrics.ndcg_at_k", "self_s"),
    "analysis.bootstrap_topics.growth": lambda a: _get(a, "analysis.bootstrap_topics", "self_s"),
    "corpus.doc_ids.entries_scanned.growth": lambda a: _get(a, "corpus.doc_ids", "entries_scanned"),
    "disagreement.pairs_in.growth": _pairs_in,
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name, _, _, _, counts in LAYERS:
        out.append((f"{name}.self_s", "s"))
        out += [(f"{name}.{c}", "count") for c in counts]
    out += [
        ("corpus.doc_ids.rescan_ratio", "ratio"),
        ("disagreement.pairs_loaded", "count"),
        ("disagreement.rescan_ratio", "ratio"),
    ]
    for cmd in COMMANDS:
        out += [(f"cli.{cmd}.total_s", "s"), (f"cli.{cmd}.self_s", "s")]
    out += [("cli.output_bytes", "bytes"), ("trace.overhead_ratio", "ratio")]
    out += [(name, "log2") for name in GROWTH]
    return out


class Tracer:
    """Spans in memory: name, start and end (``perf_counter_ns``), the
    index of the enclosing span, and counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter_ns(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter_ns()

    def self_ns(self) -> list[int]:
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def _wrap(tracer: Tracer, name: str, fn: Callable, counter: Callable | None) -> Callable:
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            record["counts"] = counter(bound.arguments, result)
        return result

    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer function; return the callable that unwraps them."""
    modules = [m for n, m in sys.modules.items() if n == "prmeval" or n.startswith("prmeval.")]
    undo: list[tuple[object, str, object]] = []
    for name, module, attr, counter, _ in LAYERS:
        owner = sys.modules[f"prmeval.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(tracer, name, original, counter))
            undo.append((cls, method, original))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, name, original, counter)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
                    undo.append((m, key, original))

    def restore() -> None:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)

    return restore


def run_pass(cli, commands, tracer: Tracer | None = None):
    """Run each command through ``cli.main`` in its directory.

    Returns ``{name: (exit code, output, seconds)}``.  With a tracer,
    each command runs inside its root span ``cli.<name>``.
    """
    results = {}
    cwd = os.getcwd()
    try:
        for cmd in commands:
            os.chdir(cmd.cwd)
            out, err = io.StringIO(), io.StringIO()
            root = tracer.span(f"cli.{cmd.name}") if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter_ns()
                with root:
                    code = cli.main(cmd.argv)
                elapsed = time.perf_counter_ns() - start
            results[cmd.name] = (code, out.getvalue(), elapsed / 1e9)
    finally:
        os.chdir(cwd)
    return results


def traced_pass(cli, commands) -> tuple[Tracer, dict]:
    """``run_pass`` with every layer wrapped; the wrappers are removed after."""
    tracer = Tracer()
    restore = install(tracer)
    try:
        return tracer, run_pass(cli, commands, tracer)
    finally:
        restore()


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: summed self time in seconds, calls and counts."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(tracer.spans, tracer.self_ns()):
        agg = out.setdefault(span["name"], {"self_s": 0, "calls": 0})
        agg["self_s"] += own
        agg["calls"] += 1
        for key, value in span["counts"].items():
            agg[key] = agg.get(key, 0) + value
    for agg in out.values():
        agg["self_s"] /= 1e9
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(full: Tracer, half: Tracer, outputs: dict, untraced_s: float) -> dict:
    """The per-layer metric values of one traced run."""
    agg = summarize(full)
    metrics: dict[str, float] = {}
    for name, _, _, _, counts in LAYERS:
        metrics[f"{name}.self_s"] = float(_get(agg, name, "self_s"))
        for c in counts:
            metrics[f"{name}.{c}"] = _get(agg, name, c)
    metrics["corpus.doc_ids.rescan_ratio"] = _ratio(
        metrics["corpus.doc_ids.entries_scanned"], metrics["corpus.parse_run.records"]
    )
    loaded = metrics["corpus.parse_paired.records"] + metrics["corpus.pair_judgments.pairs"]
    metrics["disagreement.pairs_loaded"] = loaded
    metrics["disagreement.rescan_ratio"] = _ratio(_pairs_in(agg), loaded)

    roots = [(s, own) for s, own in zip(full.spans, full.self_ns()) if s["parent"] is None]
    for cmd in COMMANDS:
        mine = [(s, own) for s, own in roots if s["name"] == f"cli.{cmd}"]
        metrics[f"cli.{cmd}.total_s"] = sum(s["end"] - s["start"] for s, _ in mine) / 1e9
        metrics[f"cli.{cmd}.self_s"] = sum(own for _, own in mine) / 1e9
    metrics["cli.output_bytes"] = sum(len(text.encode("utf-8")) for text in outputs.values())
    traced_s = sum((s["end"] - s["start"]) / 1e9 for s, _ in roots)
    metrics["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)

    small = summarize(half)
    for metric, measure in GROWTH.items():
        big, little = measure(agg), measure(small)
        metrics[metric] = math.log2(big / little) if big and little else 0.0
    return metrics
