"""Command-line interface for estimation, evaluation, and analyses.

Every command is a pure function of its input files, flags, and seed:
re-running with identical inputs produces byte-identical output.  The
stochastic subcommands (``analyze bootstrap``, ``analyze budget``) refuse
to run without an explicit ``--seed``.

Exit codes: 0 success; 1 for parse/validation/estimation/metric errors
(including bad flag combinations) and for running out of memory; 2 for
I/O errors.

Each handler imports the modules it uses when it runs, so ``--help``, a
usage error, ``validate``, ``estimate`` and ``analyze quality`` load no
numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import sys
import warnings
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .errors import ParseError, PrmError, ValidationError

if TYPE_CHECKING:
    from . import analysis, corpus, disagreement, metrics


def __getattr__(name: str):
    # the layers stay readable as ``cli.corpus`` and so on, loaded on first use
    if name in ("analysis", "corpus", "disagreement", "metrics"):
        return importlib.import_module(f".{name}", __package__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


FORMULAS = """\
definitions (levels i = 0..T; a user deems a result relevant iff its
level is at or above the threshold theta):

  one-sided estimate    p(R|i) = N(U2 relevant & U1 = i) / N(U1 = i)
  symmetric estimate    p(R|i) = [N(U1 rel. & U2 = i) + N(U2 rel. & U1 = i)]
                                 / [N(U2 = i) + N(U1 = i)]
  sigma                 sqrt(p (1 - p) / N_D),  p = N_N / N_D
  binary count          N_R = sum over i >= theta of n_i
  expected count        N_R = sum over i of n_i * p(R|i)
  expected precision@N  expected count over the top N results / N
  DCG@k                 sum over r = 1..k of c(r) * g(i(r))
  nDCG@k                DCG@k / DCG@k of the pool sorted by falling gain
  discounts             log: c(r) = 1/log_b(r+1)    zipf: c(r) = 1/r
  gains                 binary: 1 if i >= theta else 0; linear: i;
                        exponential: 2^i - 1; prm: p(R|i);
                        udm: 0 at level 0, 1 at top, p(R|i) between
"""

_MEASURES = ("count-binary", "count-prm", "precision", "ndcg")
_GAIN_NAMES = ("binary", "linear", "exponential", "prm", "udm", "custom")


class _Parser(argparse.ArgumentParser):
    # exit 1 on usage errors; exit 2 stays reserved for I/O failures
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of flag defaults (flags win)")
    p.add_argument(
        "--format", choices=("text", "csv", "json"), default="text",
        help="output format: text rounds to 4 decimals, csv/json keep full precision",
    )
    p.add_argument("--out", help="write output to this file instead of stdout")


def _add_double_judgment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pairs", help="paired judgments: topic doc level_u1 level_u2")
    p.add_argument("--qrels", help="qrels of the first assessor group")
    p.add_argument("--qrels2", help="qrels of the second assessor group")
    p.add_argument(
        "--one-sided-collection", action="store_true",
        help="second round judged only first-round positives; "
        "forbids the symmetric estimator",
    )


def _add_estimator_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=int, help="user-relevance threshold (1..T; default: T)")
    p.add_argument(
        "--estimator", choices=("symmetric", "one-sided", "all"),
        default="symmetric",
        help="'all' prints the symmetric and both one-sided tables",
    )
    p.add_argument(
        "--condition", choices=("u1", "u2"), default="u1",
        help="conditioning direction for the one-sided estimator",
    )
    p.add_argument(
        "--override-p0", action="store_true",
        help="pin p(R|0) to exactly 0",
    )


def _add_scoring_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run", action="append", help="run file (repeatable)")
    p.add_argument("--gains", help="comma list from: " + ", ".join(_GAIN_NAMES))
    p.add_argument("--custom-gains", help="comma list of per-level gains")
    p.add_argument("--table", help="JSON disagreement table for prm/udm gains")
    p.add_argument("--discount", choices=("log", "zipf"), default="log")
    p.add_argument("--log-base", type=float, default=2.0)
    p.add_argument("--k", type=int, default=10, help="rank cutoff")
    p.add_argument(
        "--ideal-pool", choices=("qrels", "run"), default="qrels",
        help="pool for the ideal DCG: judged docs plus the run's "
        "unjudged retrieved docs, or the run's own docs only",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="error on run topics without judgments instead of skipping",
    )


def _add_intent_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--intent-field", action="store_true",
        help="read the second qrels column as an intent id "
        "(intent '0' expands to level 0 for every declared intent)",
    )
    p.add_argument("--intents", help="intent sidecar: topic intent probability")
    p.add_argument(
        "--top-intent-only", action="store_true",
        help="keep only each topic's most probable intent",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prmeval",
        description="Disagreement-aware evaluation of ranked retrieval runs.",
        epilog=FORMULAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def command(name: str, help: str, *groups) -> argparse.ArgumentParser:
        p = sub.add_parser(
            name, help=help, epilog=FORMULAS,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--scale", help="JSON descriptor of the assessment scale")
        for add in (_add_double_judgment_args, *groups, _add_intent_args, _add_io_args):
            add(p)
        return p

    est = command("estimate", "estimate p(R|i) from double judgments", _add_estimator_args)
    est.add_argument("--strata", help="topic->stratum map; estimate per stratum")

    ev = command(
        "eval", "score runs: counts, expected precision, nDCG@k",
        _add_estimator_args, _add_scoring_args,
    )
    ev.add_argument(
        "--measures", default="ndcg",
        help="comma list from: " + ", ".join(_MEASURES) + " (default: %(default)s)",
    )

    an = command("analyze", " | ".join(_ANALYSES), _add_estimator_args, _add_scoring_args)
    an.add_argument("kind", choices=_ANALYSES, help="which analysis to run")
    an.add_argument("--seed", type=int, help="RNG seed (required when resampling)")
    an.add_argument("--resamples", type=int, default=300, help="bootstrap resamples")
    an.add_argument("--rounds", type=int, default=50, help="simulated annotation rounds")
    an.add_argument("--budgets", help="comma list of double-judgment budgets")
    an.add_argument("--resource-map", help="doc->resource map file")
    an.add_argument(
        "--resource-regex",
        help="regex whose first group extracts the resource from a doc id",
    )
    an.add_argument("--tau-variant", choices=("a", "b"), default="b")

    val = command("validate", "parse inputs and report, compute nothing")
    val.add_argument("--run", action="append", help="run file (repeatable)")

    return parser


def _split(value: str, what: str, allowed: tuple[str, ...]) -> tuple[str, ...]:
    items = tuple(v.strip() for v in value.split(",") if v.strip())
    if not items:
        raise ValidationError(f"no {what} in {value!r}")
    for i, item in enumerate(items):
        if item not in allowed:
            raise ValidationError(
                f"unknown {what} {item!r}; choose from {', '.join(allowed)}"
            )
        if item in items[:i]:
            raise ValidationError(f"{what} {item!r} given twice in {value!r}")
    return items


def _numbers(value: str, flag: str, kind: type) -> list:
    try:
        return [kind(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(
            f"{flag} takes a comma list of {kind.__name__} values, got {value!r}"
        ) from None


def _check_args(args: argparse.Namespace) -> None:
    """Parse the comma-list flags and normalise the estimator name, in place.

    Runs once, before any input is read, so every handler sees parsed
    values and a malformed flag ends in a ValidationError.
    """
    if hasattr(args, "gains"):
        robustness = getattr(args, "kind", None) == "robustness"
        default = "binary,linear,exponential" if robustness else "binary"
        args.gains = _split(args.gains or default, "gain scheme", _GAIN_NAMES)
    if hasattr(args, "measures"):
        args.measures = _split(args.measures, "measure", _MEASURES)
    if getattr(args, "custom_gains", None):
        args.custom_gains = _numbers(args.custom_gains, "--custom-gains", float)
    if getattr(args, "budgets", None):
        args.budgets = _numbers(args.budgets, "--budgets", int)
    if hasattr(args, "estimator"):
        # 'all' lists every table in `estimate`; the other commands need a
        # single table and take the symmetric one.
        estimator = args.estimator.replace("-", "_")
        if estimator == "all" and args.command != "estimate":
            estimator = "symmetric"
        args.estimator = estimator


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file as ``--key=value`` flags, for argparse to check.

    ``true`` becomes a bare flag, ``false`` and ``null`` leave the flag
    out, and a ``run`` list gives one ``--run`` per item.  The command and
    analysis kind come from the command line only.
    """
    path = args.config
    with _open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: bad config JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    config = {str(k).replace("-", "_"): v for k, v in obj.items()}
    unknown = [k for k in config if not hasattr(args, k)]
    if unknown:
        raise ValidationError(f"unknown config keys for '{args.command}': {sorted(unknown)}")
    flags = []
    for key, value in config.items():
        if key in ("command", "kind") or value is False or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif key == "run" and isinstance(value, list):
            flags += [f"{flag}={v}" for v in value]
        elif isinstance(value, (str, int, float)):
            flags.append(f"{flag}={value}")
        else:
            raise ValidationError(f"{path}: config key {key!r} takes one value, got {value!r}")
    return flags


@contextlib.contextmanager
def _open(path: str):
    """``path`` open as UTF-8 text without a leading byte-order mark;
    bytes that are not UTF-8 are a ParseError that names the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        bad = f"byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
        raise ParseError(f"{path}: not UTF-8 text ({bad})") from None


def _parse(path: str, parser, *args, **kwargs):
    """``parser(open stream of path, *args, **kwargs)``; its errors and
    warnings name the file.  The qrels, pairs and run parsers read the
    stream in blocks, the scale and table parsers read it whole, the
    others line by line."""
    with _open(path) as fh:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return parser(fh, *args, **kwargs)
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        finally:
            for w in caught:
                warnings.warn(f"{path}: {w.message}", w.category, stacklevel=2)


class _Report(NamedTuple):
    """A command's result: the json payload, csv header and rows, text lines."""

    payload: object
    header: list[str]
    rows: list[list]
    text: list[str]


def _render(report: _Report, fmt: str) -> str:
    """json of the payload; csv of the header and rows (None as an empty
    field, floats as their repr); or the text lines."""
    if fmt == "json":
        return json.dumps(report.payload, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([report.header, *report.rows])
        return buf.getvalue()
    return "\n".join(report.text) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_scale(args: argparse.Namespace) -> corpus.RelevanceScale:
    from . import corpus
    if not args.scale:
        raise ValidationError("--scale is required")
    return _parse(args.scale, corpus.parse_scale)


def _load_qrels(
    args: argparse.Namespace, path: str, scale: corpus.RelevanceScale, group: str
) -> corpus.JudgmentSet:
    """One group's qrels; --intents declares the intents that intent '0'
    expands over, and --top-intent-only keeps each topic's top intent."""
    from . import corpus
    probs = _parse(args.intents, corpus.parse_intent_probabilities) if args.intents else None
    js = _parse(
        path, corpus.parse_qrels, scale, group,
        intent_field=args.intent_field, declared_intents=probs,
    )
    if args.top_intent_only:
        if probs is None:
            raise ValidationError("--top-intent-only needs --intents")
        js = corpus.select_top_intent(js, probs)
    return js


def _load_pairs(
    args: argparse.Namespace, scale: corpus.RelevanceScale, qrels=None
) -> corpus.JudgmentPairs:
    """Double judgments from --pairs, else from the overlap of --qrels and --qrels2.

    ``qrels`` is the (u1, u2) pair that ``tau`` and ``robustness`` have
    already read; there --qrels2 is a ranking input too, so it may come
    with --pairs.  Elsewhere the two sources exclude each other.
    """
    from . import corpus
    if args.pairs:
        if args.qrels2 and qrels is None:
            raise ValidationError(
                "double judgments must come from exactly one source: "
                "--pairs or --qrels + --qrels2"
            )
        return _parse(args.pairs, corpus.parse_paired, scale)
    if not (args.qrels and args.qrels2):
        raise ValidationError(
            "no double judgments: supply --pairs or both --qrels and --qrels2"
        )
    u1, u2 = qrels or (
        _load_qrels(args, args.qrels, scale, "u1"), _load_qrels(args, args.qrels2, scale, "u2")
    )
    return corpus.pair_judgments(u1, u2).pairs


def _load_runs(args: argparse.Namespace) -> Iterator[corpus.RunRanking]:
    """The --run files, each parsed when reached; --run is checked on the call."""
    from . import corpus
    if not args.run:
        raise ValidationError("--run is required")
    return (_parse(path, corpus.parse_run) for path in args.run)


def _user_model(
    args: argparse.Namespace, scale: corpus.RelevanceScale
) -> disagreement.UserModel:
    from . import disagreement
    return disagreement.UserModel(scale.top_index if args.theta is None else args.theta)


def _estimator_opts(args: argparse.Namespace) -> dict:
    return dict(estimator=args.estimator, condition=args.condition,
                one_sided_collection=args.one_sided_collection)


def _resolve_table(
    args: argparse.Namespace, scale: corpus.RelevanceScale, qrels=None
) -> disagreement.DisagreementTable:
    """The --table file, else the estimate from the double judgments;
    --override-p0 pins p(R|0), and then the table is checked for levels
    whose p(R|i) falls beyond noise."""
    from . import disagreement
    if args.table:
        table = _parse(args.table, disagreement.DisagreementTable.from_json)
        if table.scale.labels != scale.labels:
            raise ValidationError(
                f"table scale {table.scale.labels} != --scale {scale.labels}"
            )
    else:
        table = disagreement.estimate(
            _load_pairs(args, scale, qrels), _user_model(args, scale), scale,
            **_estimator_opts(args),
        )
    table = table.with_override(0, 0.0) if args.override_p0 else table
    table.warn_non_monotone()
    return table


def _resolve_scheme(
    name: str,
    args: argparse.Namespace,
    scale: corpus.RelevanceScale,
    table: disagreement.DisagreementTable | None,
) -> metrics.GainScheme:
    from . import metrics
    top = scale.top_index
    if name == "binary":
        return metrics.GainScheme.binary(top, _user_model(args, scale).theta)
    if name == "linear":
        return metrics.GainScheme.linear(top)
    if name == "exponential":
        return metrics.GainScheme.exponential(top)
    if name in ("prm", "udm"):
        if table is None:
            raise ValidationError(f"{name} gains need --table or double judgments")
        return getattr(metrics.GainScheme, name)(table)
    if name == "custom":
        if not args.custom_gains:
            raise ValidationError("custom gains need --custom-gains")
        if len(args.custom_gains) != top + 1:
            raise ValidationError(
                f"--custom-gains needs {top + 1} values for this scale, "
                f"got {len(args.custom_gains)}"
            )
        return metrics.GainScheme.custom(args.custom_gains)
    raise ValidationError(f"unknown gain scheme {name!r}")


def _resolve_discount(args: argparse.Namespace) -> metrics.DiscountFunction:
    from . import metrics
    if args.discount == "zipf":
        return metrics.DiscountFunction.zipf()
    return metrics.DiscountFunction.log(args.log_base)


def _needs_table(gains: Sequence[str]) -> bool:
    return any(g in ("prm", "udm") for g in gains)


def cmd_estimate(args: argparse.Namespace) -> _Report:
    from . import corpus, disagreement
    scale = _load_scale(args)
    pairs = _load_pairs(args, scale)
    if args.strata:
        strata = _parse(args.strata, corpus.parse_strata)
    else:
        strata = dict.fromkeys(pairs.topic_ids, "all")
    if args.estimator == "all":
        estimators = [("symmetric", args.condition), ("one_sided", "u1"), ("one_sided", "u2")]
    else:
        estimators = [(args.estimator, args.condition)]
    model = _user_model(args, scale)

    counts = disagreement.stratum_counts(pairs, strata, model, scale)
    per_stratum: dict[str, dict[str, disagreement.DisagreementTable]] = {}
    for estimator, condition in estimators:
        for stratum, c in counts.items():
            t = disagreement.table_from_counts(
                c, model, scale, estimator=estimator,
                condition=condition, one_sided_collection=args.one_sided_collection,
            )
            name = f"one_sided_{t.condition}" if t.condition else t.estimator
            t = t.with_override(0, 0.0) if args.override_p0 else t
            t.warn_non_monotone()
            per_stratum.setdefault(stratum, {})[name] = t

    rows: list[list] = []
    text: list[str] = []
    for stratum, variants in per_stratum.items():
        for name, t in variants.items():
            key = f"{stratum}/{name}" if len(per_stratum) > 1 or len(variants) > 1 else stratum
            rows += [
                [key, t.estimator, t.condition, t.theta, c.level, t.scale.label(c.level),
                 c.n_match, c.n_total, c.p, c.sigma, c.source]
                for c in t.cells
            ]
            if text:
                text.append("")
            if stratum != "all" or len(per_stratum) > 1:
                text.append(f"# stratum {stratum}")
            text.append(t.to_text().rstrip("\n"))
    payload = {
        stratum: {name: t.to_json_dict() for name, t in variants.items()}
        for stratum, variants in per_stratum.items()
    }
    header = ["stratum", "estimator", "condition", "theta", "level", "label",
              "n_match", "n_total", "p", "sigma", "source"]
    # csv lists the tables by key; the sort is stable, so levels stay in order
    return _Report(payload, header, sorted(rows, key=lambda row: row[0]), text)


def cmd_eval(args: argparse.Namespace) -> _Report:
    from dataclasses import replace

    from . import metrics
    scale = _load_scale(args)
    if not args.qrels:
        raise ValidationError("--qrels is required")
    doc_levels = _load_qrels(args, args.qrels, scale, "u1").doc_levels()
    measures = args.measures
    needs_table = "count-prm" in measures or "precision" in measures or (
        "ndcg" in measures and _needs_table(args.gains)
    )
    table = _resolve_table(args, scale) if needs_table else None
    discount = _resolve_discount(args)
    runs = _load_runs(args) if ("precision" in measures or "ndcg" in measures) else ()

    pool_reports: dict[str, metrics.MetricReport] = {}
    if "count-binary" in measures:
        pool_reports["count_binary"] = metrics.binary_count_report(
            doc_levels, _user_model(args, scale).theta
        )
    if "count-prm" in measures:
        assert table is not None
        pool_reports["count_prm"] = metrics.expected_count_report(doc_levels, table)

    schemes = (
        [_resolve_scheme(name, args, scale, table) for name in args.gains]
        if "ndcg" in measures else []
    )
    system_reports: dict[str, dict[str, metrics.MetricReport]] = {}
    for run in runs:
        if run.system_id in system_reports:
            raise ValidationError(f"duplicate system id among runs: {run.system_id!r}")
        per_run = system_reports[run.system_id] = {}
        if "precision" in measures:
            assert table is not None
            report = metrics.expected_precision_report(
                run, doc_levels, table, args.k, strict=args.strict
            )
            per_run[report.label] = report
        if schemes:
            reports = metrics.ndcg_reports(
                run, doc_levels, schemes, discount, args.k,
                strict=args.strict, ideal_pool=args.ideal_pool,
            )
            for name, report in zip(args.gains, reports):
                label = "ndcg" if len(args.gains) == 1 else f"ndcg_{name}"
                report = replace(report, measure=label)
                per_run[report.label] = report

    rows: list[list] = []
    text: list[str] = []
    listed = [("pool", r) for r in pool_reports.values()] + [
        (system, reports[label])
        for system, reports in sorted(system_reports.items())
        for label in sorted(reports)
    ]
    for system, r in listed:
        if text:
            text.append("")
        if system != "pool":
            text.append(f"# run {system}")
        for topic, value in (*r.per_topic, ("all", r.mean), ("stderr", r.stderr_of_mean)):
            rows.append([system, r.label, topic, value])
        text.append(r.to_trec_text().rstrip("\n"))
        if r.excluded:
            text.append(f"# excluded_topics {' '.join(r.excluded)}")
    payload = {
        "pool": {name: r.to_json_dict() for name, r in pool_reports.items()},
        "systems": {
            system: {label: r.to_json_dict() for label, r in reports.items()}
            for system, reports in system_reports.items()
        },
    }
    return _Report(payload, ["system", "measure", "topic", "value"], rows, text)


def _ranking_inputs(
    args: argparse.Namespace,
) -> tuple[Iterator[corpus.RunRanking], tuple[dict, dict], dict[str, metrics.GainScheme]]:
    """Runs (read when iterated), both groups' doc levels and the gain schemes.

    Here --qrels2 is the second group's judgments to rank against, so a
    prm/udm table comes from --table, else --pairs, else the overlap of
    the two qrels.  Without --qrels2 both rankings use --qrels.  Each
    qrels file is read once, and before any run.
    """
    if not args.qrels:
        raise ValidationError("--qrels is required")
    runs = _load_runs(args)
    if len(args.run) < 2:
        raise ValidationError("need at least 2 --run files")
    scale = _load_scale(args)
    u1 = _load_qrels(args, args.qrels, scale, "u1")
    u2 = _load_qrels(args, args.qrels2, scale, "u2") if args.qrels2 else u1
    table = _resolve_table(args, scale, (u1, u2)) if _needs_table(args.gains) else None
    schemes = {name: _resolve_scheme(name, args, scale, table) for name in args.gains}
    set_u1 = u1.doc_levels()
    return runs, (set_u1, set_u1 if u2 is u1 else u2.doc_levels()), schemes


def _analyze_tau(args: argparse.Namespace) -> _Report:
    from . import analysis
    if len(args.gains) != 1:
        raise ValidationError("analyze tau uses exactly one gain scheme")
    runs, judged, schemes = _ranking_inputs(args)
    rank_u1, rank_u2 = (rankings[args.gains[0]] for rankings in analysis.rank_by_ndcg(
        runs, judged, schemes, _resolve_discount(args), args.k,
        strict=args.strict, ideal_pool=args.ideal_pool,
    ))
    tau = analysis.kendall_tau(rank_u1, rank_u2, variant=args.tau_variant)
    metric = f"tau_{args.tau_variant}"
    payload = {
        "tau": tau,
        "variant": args.tau_variant,
        "ranking_u1": [list(s) for s in rank_u1.systems],
        "ranking_u2": [list(s) for s in rank_u2.systems],
    }
    return _Report(payload, ["metric", "value"], [[metric, tau]], [f"{metric}\t{tau:.4f}"])


def _analyze_robustness(args: argparse.Namespace) -> _Report:
    from . import analysis
    if not (args.qrels and args.qrels2):
        raise ValidationError("robustness needs --qrels and --qrels2")
    runs, judged, schemes = _ranking_inputs(args)
    taus = analysis.robustness_study(
        runs, *judged, schemes, args.k, _resolve_discount(args),
        variant=args.tau_variant, strict=args.strict, ideal_pool=args.ideal_pool,
    )
    rows = [[name, taus[name]] for name in sorted(taus)]
    return _Report(
        {"tau": taus, "variant": args.tau_variant, "k": args.k}, ["scheme", "tau"], rows,
        [f"{name}\t{tau:.4f}" for name, tau in rows],
    )


def _require_seed(args: argparse.Namespace) -> None:
    if args.seed is None:
        raise ValidationError("--seed is required: resampling must be reproducible")


def _analyze_bootstrap(args: argparse.Namespace) -> _Report:
    from . import analysis
    _require_seed(args)
    scale = _load_scale(args)
    pairs = _load_pairs(args, scale)
    results = analysis.bootstrap_topics(
        pairs, _user_model(args, scale), scale, **_estimator_opts(args),
        n_resamples=args.resamples, seed=args.seed,
    )
    rows: list[list] = []
    text: list[str] = []
    for lvl in sorted(results):
        r = results[lvl]
        rows.append([r.level, len(r.samples), r.n_missing, r.mean, r.std,
                     *(r.quartiles or [None] * 5)])
        if r.mean is None:
            text.append(f"level {lvl}: undefined in all resamples (missing={r.n_missing})")
            continue
        std = "n/a" if r.std is None else f"{r.std:.4f}"
        assert r.quartiles is not None
        q = " ".join(f"{v:.4f}" for v in r.quartiles)
        text.append(
            f"level {lvl}: mean={r.mean:.4f} std={std} quartiles=[{q}] "
            f"n={len(r.samples)} missing={r.n_missing}"
        )
    header = ["level", "n_samples", "n_missing", "mean", "std",
              "min", "q1", "median", "q3", "max"]
    payload = {str(lvl): r.to_json_dict() for lvl, r in results.items()}
    return _Report(payload, header, rows, text)


def _curve_report(curve: disagreement.SensitivityCurve) -> _Report:
    rows: list[list] = []
    text: list[str] = []
    for i, x in enumerate(curve.x):
        parts = [f"{curve.x_name}={x}"]
        for s in curve.series:
            rows.append([x, s.level, s.means[i], s.stds[i], s.n_defined[i]])
            if s.means[i] is None:
                parts.append(f"p{s.level}=undef")
            else:
                band = "" if s.stds[i] is None else f"+-{s.stds[i]:.4f}"
                parts.append(f"p{s.level}={s.means[i]:.4f}{band}")
        text.append(" ".join(parts))
    header = [curve.x_name, "level", "mean", "std", "n_defined"]
    return _Report(curve.to_json_dict(), header, rows, text)


def _analyze_budget(args: argparse.Namespace) -> _Report:
    from . import analysis
    _require_seed(args)
    if not args.budgets:
        raise ValidationError("--budgets is required (comma list, e.g. 50,100,200)")
    scale = _load_scale(args)
    pairs = _load_pairs(args, scale)
    return _curve_report(analysis.simulate_annotation_rounds(
        pairs, _user_model(args, scale), scale, args.budgets,
        n_rounds=args.rounds, seed=args.seed, **_estimator_opts(args),
    ))


def _analyze_quality(args: argparse.Namespace) -> _Report:
    from . import corpus, disagreement
    # every missing flag is reported before any file is read
    if not args.qrels:
        raise ValidationError("--qrels is required (reference group judgments)")
    if not (args.resource_map or args.resource_regex):
        raise ValidationError("supply --resource-map or --resource-regex")
    if not args.pairs:
        raise ValidationError("--pairs is required for the quality sweep")
    scale = _load_scale(args)
    reference = _load_qrels(args, args.qrels, scale, "u1")
    if args.resource_map:
        mapping = _parse(args.resource_map, corpus.parse_resource_map)
        reference = corpus.attach_resources(reference, resource_map=mapping)
    else:
        reference = corpus.attach_resources(reference, pattern=args.resource_regex)
    pairs = _parse(args.pairs, corpus.parse_paired, scale)
    return _curve_report(disagreement.quality_sensitivity(
        reference, pairs, _user_model(args, scale), **_estimator_opts(args)
    ))


def cmd_validate(args: argparse.Namespace) -> _Report:
    """One row per input: its record count (levels, for the scale), its
    topic count and, for a run, its system id."""
    from . import corpus
    rows: list[list] = []
    text: list[str] = []
    scale = None
    if args.scale:
        scale = _load_scale(args)
        rows.append(["scale", args.scale, scale.top_index + 1, None, None])
        text.append(f"ok: scale with {scale.top_index + 1} levels {scale.labels}")
    for label, path, group in (("qrels", args.qrels, "u1"), ("qrels2", args.qrels2, "u2")):
        if path:
            if scale is None:
                raise ValidationError("--scale is required to validate qrels")
            js = _load_qrels(args, path, scale, group)
            n_topics = len(js.topics())
            rows.append([label, path, len(js), n_topics, None])
            text.append(f"ok: {label} with {len(js)} judgments, {n_topics} topics")
    if args.pairs:
        if scale is None:
            raise ValidationError("--scale is required to validate pairs")
        pairs = _parse(args.pairs, corpus.parse_paired, scale)
        rows.append(["pairs", args.pairs, len(pairs), len(set(pairs.topic_ids)), None])
        text.append(f"ok: pairs with {len(pairs)} double judgments")
    for path in args.run or ():
        run = _parse(path, corpus.parse_run)
        n_entries, n_topics = len(run.entries), len(run.topics())
        rows.append(["run", path, n_entries, n_topics, run.system_id])
        text.append(f"ok: run {run.system_id} with {n_entries} entries, {n_topics} topics")
    if not rows:
        raise ValidationError("nothing to validate: supply input files")
    header = ["input", "path", "records", "topics", "system"]
    return _Report({"inputs": [dict(zip(header, row)) for row in rows]}, header, rows, text)


_ANALYSES = ("tau", "bootstrap", "budget", "quality", "robustness")

# keyed by command, and by kind for `analyze`
_COMMANDS = {
    "estimate": cmd_estimate,
    "eval": cmd_eval,
    "validate": cmd_validate,
    "tau": _analyze_tau,
    "bootstrap": _analyze_bootstrap,
    "budget": _analyze_budget,
    "quality": _analyze_quality,
    "robustness": _analyze_robustness,
}


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    # warnings print as one plain line, without the source location
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args = parser.parse_args(argv)
        if args.config:
            # right after the subcommand, so that the flags that follow win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])
        _check_args(args)
        report = _COMMANDS[getattr(args, "kind", args.command)](args)
        _emit(_render(report, args.format), args.out)
        return 0
    except SystemExit as exc:
        # argparse --help exits 0; usage errors surface as code 1
        code = exc.code
        return 0 if code in (None, 0) else 1
    except PrmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # e.g. a budget too large for one round's draw
        print(f"error: not enough memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
