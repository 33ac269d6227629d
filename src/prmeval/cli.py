"""Command-line interface for estimation, evaluation, and analyses.

Every command is a pure function of its input files, flags, and seed:
re-running with identical inputs produces byte-identical output.

Exit codes: 0 success; 1 for parse/validation/estimation/metric errors
and for running out of memory; 2 for I/O errors.  Every usage rule of
the flags (``--seed`` required when resampling, a flag that the other
flags leave unread, ...) is a row of `_RULES`, checked in order before
any file is read.

Each handler imports the modules it uses when it runs: ``estimate``,
``analyze bootstrap`` and ``analyze quality`` only count pairs, so they
load ``corpus`` and ``disagreement`` alone.  Only ``analyze budget``
loads numpy, which the package does not require (it is the ``budget``
extra): without it that command ends, after every input check, in one
``error:`` line and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
import warnings
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

from .errors import (EstimationError, MetricError, ParseError, PrmError, ValidationError,
                     check_budgets, check_custom_gains)

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


def _numbers(value: str, flag: str, kind: type, check: Callable[[list], None]) -> list:
    # checked as the library checks it; an empty list is left to the rules
    try:
        numbers = [kind(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(
            f"{flag} takes a comma list of {kind.__name__} values, got {value!r}"
        ) from None
    if numbers:
        check(numbers)
    return numbers


# Every flag, in --help order.  Each parser takes only the flags that its
# handler reads (see `build_parser`), so argparse rejects any other one.
# A value flag is parsed by its ``type`` and has no argparse default (see
# `_DEFAULTS`); the ValidationError of `_split` and `_numbers` is no
# ValueError, so argparse lets it through to `main` as one ``error:`` line.
_FLAGS: dict[str, dict] = {
    "--scale": dict(help="JSON descriptor of the assessment scale"),
    "--pairs": dict(help="paired judgments: topic doc level_u1 level_u2"),
    "--qrels": dict(help="qrels of the first assessor group"),
    "--qrels2": dict(help="qrels of the second assessor group"),
    "--one-sided-collection": dict(action="store_true", help="second round judged only "
                                   "first-round positives; forbids the symmetric estimator"),
    "--theta": dict(type=int, help="user-relevance threshold (1..T; default: T)"),
    "--estimator": dict(choices=("symmetric", "one-sided"),
                        help="how p(R|i) is estimated (see the definitions below)"),
    "--condition": dict(choices=("u1", "u2"),
                        help="conditioning direction for the one-sided estimator"),
    "--override-p0": dict(action="store_true", help="pin p(R|0) to exactly 0"),
    "--run": dict(action="append", help="run file (repeatable)"),
    "--gains": dict(type=lambda v: _split(v, "gain scheme", _GAIN_NAMES),
                    help="comma list from: " + ", ".join(_GAIN_NAMES)),
    "--custom-gains": dict(type=lambda v: _numbers(v, "--custom-gains", float, check_custom_gains),
                           help="comma list of per-level gains"),
    "--table": dict(help="JSON disagreement table for prm/udm gains"),
    "--discount": dict(choices=("log", "zipf")),
    "--log-base": dict(type=float),
    "--k": dict(type=int, help="rank cutoff"),
    "--ideal-pool": dict(choices=("qrels", "run"),
                         help="pool for the ideal DCG: judged docs plus the run's "
                         "unjudged retrieved docs, or the run's own docs only"),
    "--strict": dict(action="store_true",
                     help="error on run topics without judgments instead of skipping"),
    "--intent-field": dict(action="store_true", help="read the second qrels column as an "
                           "intent id (intent '0' expands to level 0 for every declared intent)"),
    "--intents": dict(help="intent sidecar: topic intent probability"),
    "--top-intent-only": dict(action="store_true",
                              help="keep only each topic's most probable intent"),
    "--config": dict(help="JSON file of flag defaults (flags win)"),
    "--format": dict(choices=("text", "csv", "json"), help="output format: "
                     "text rounds to 4 decimals, csv/json keep full precision"),
    "--out": dict(help="write output to this file instead of stdout"),
    "--strata": dict(help="topic->stratum map; estimate per stratum"),
    "--measures": dict(type=lambda v: _split(v, "measure", _MEASURES),
                       help="comma list from: " + ", ".join(_MEASURES) + " (default: ndcg)"),
    "--seed": dict(type=int, help="RNG seed (required when resampling)"),
    "--resamples": dict(type=int, help="bootstrap resamples"),
    "--rounds": dict(type=int, help="simulated annotation rounds"),
    "--budgets": dict(type=lambda v: _numbers(v, "--budgets", int, check_budgets),
                      help="comma list of double-judgment budgets"),
    "--resource-map": dict(help="doc->resource map file"),
    "--resource-regex": dict(help="regex whose first group extracts the resource from a doc id"),
    "--tau-variant": dict(choices=("a", "b")),
}
# in the commands that take --table, the table file's theta is the default
_TABLE_THETA = dict(_FLAGS["--theta"], help="user-relevance threshold "
                    "(1..T; default: the --table file's theta, else T)")

# Each value flag's default, by its namespace name (``<kind>_<name>`` for one
# kind's own).  A flag not given stays None until `_settle` sets these, after
# the usage rules, so that those see which flags were given.
_DEFAULTS = dict(
    gains=("binary",), robustness_gains=("binary", "linear", "exponential"),
    discount="log", log_base=2.0, k=10, ideal_pool="qrels", format="text",
    measures=("ndcg",), resamples=300, rounds=50, tau_variant="b",
    estimator="symmetric", condition="u1",
)

# flag groups that several parsers take whole; every parser also takes the
# intent and output flags
_JUDGMENTS = ("--scale", "--pairs", "--qrels")
_ESTIMATOR = ("--one-sided-collection", "--theta", "--estimator", "--condition")
_SCORING = ("--override-p0", "--run", "--gains", "--custom-gains", "--table",
            "--discount", "--log-base", "--k", "--ideal-pool", "--strict")
_SHARED = ("--intent-field", "--intents", "--top-intent-only", "--config", "--format", "--out")


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    # given a command line, flags go only to the parser that its first words name
    words = None if argv is None else [a for a in argv if not a.startswith("-")]
    style = dict(epilog=FORMULAS, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser = _Parser(
        prog="prmeval",
        description="Disagreement-aware evaluation of ranked retrieval runs.", **style,
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def command(subs, name: str, help: str, handler, *flags: str, **specs: dict):
        # a spec in ``specs``, keyed by the flag's name without dashes, replaces its _FLAGS spec
        p = subs.add_parser(name, help=help, **style)
        p.set_defaults(handler=handler)
        path = p.prog.split()[1:]
        if words is not None and words[: len(path)] != path:
            return None
        takes = {*flags, *_SHARED}
        for flag, spec in _FLAGS.items():
            if flag in takes:
                p.add_argument(flag, **specs.get(flag[2:], spec))
        return p

    command(sub, "estimate", "estimate p(R|i) from double judgments", cmd_estimate,
            *_JUDGMENTS, "--qrels2", *_ESTIMATOR, "--override-p0", "--strata",
            estimator=dict(_FLAGS["--estimator"], choices=("symmetric", "one-sided", "all"),
                           help="'all' prints the symmetric and both one-sided tables"))
    command(sub, "eval", "score runs: counts, expected precision, nDCG@k", cmd_eval,
            *_JUDGMENTS, "--qrels2", *_ESTIMATOR, *_SCORING, "--measures", theta=_TABLE_THETA)

    an = sub.add_parser("analyze", help="tau | bootstrap | budget | quality | robustness",
                        **style)
    kinds = an.add_subparsers(dest="kind", metavar="kind", required=True)
    ranking = (*_JUDGMENTS, "--qrels2", *_ESTIMATOR, *_SCORING, "--tau-variant")
    resampling = (*_JUDGMENTS, "--qrels2", *_ESTIMATOR, "--seed")
    command(kinds, "tau", "Kendall's tau between the rankings of two qrels groups",
            _analyze_tau, *ranking, theta=_TABLE_THETA)
    command(kinds, "bootstrap", "topic bootstrap of the estimated p(R|i)",
            _analyze_bootstrap, *resampling, "--resamples")
    command(kinds, "budget", "spread of p(R|i) against the double-judgment budget",
            _analyze_budget, *resampling, "--rounds", "--budgets")
    quality = command(kinds, "quality", "p(R|i) from the documents of the top k resources",
                      _analyze_quality, *_JUDGMENTS, *_ESTIMATOR)
    if quality:
        resource = quality.add_mutually_exclusive_group()
        for flag in ("--resource-map", "--resource-regex"):
            resource.add_argument(flag, **_FLAGS[flag])
    command(kinds, "robustness", "tau per gain scheme between two qrels groups",
            _analyze_robustness, *ranking, theta=_TABLE_THETA)

    command(sub, "validate", "parse inputs and report, compute nothing", cmd_validate,
            *_JUDGMENTS, "--qrels2", "--run")
    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config file as ``--key=value`` flags, for argparse to check:
    ``true`` becomes a bare flag, ``false`` and ``null`` leave the flag
    out, and a ``run`` list gives one ``--run`` per item.  The command and
    analysis kind come from the command line only; any other key that the
    command does not take is an error."""
    path = args.config
    with _open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: bad config JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    config = {str(k).replace("-", "_"): v for k, v in obj.items()}
    unknown = [k for k in config if k == "handler" or not hasattr(args, k)]
    if unknown:
        name = f"{args.command} {args.kind}" if "kind" in args else args.command
        raise ValidationError(f"unknown config keys for '{name}': {sorted(unknown)}")
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
def _open(path: str, binary: bool = False):
    """``path`` open as UTF-8 text without a leading byte-order mark, or
    ``binary`` for a reader that decodes it as such (see `_parse`); bytes
    that are not UTF-8 are a ParseError that names the file."""
    try:
        with open(path, "rb") if binary else open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        bad = f"byte 0x{exc.object[exc.start]:02x}: {exc.reason}"
        raise ParseError(f"{path}: not UTF-8 text ({bad})") from None


def _parse(path: str, parser, *args, **kwargs):
    """``parser(open stream of path, *args, **kwargs)``; its errors and
    warnings name the file.  The qrels, pairs and run parsers read the
    binary stream in blocks and decode only the blocks and columns they
    need, the scale and table parsers read the text stream whole, the
    others line by line."""
    from . import corpus
    binary = parser in (corpus.parse_qrels, corpus.parse_paired, corpus.parse_run)
    with _open(path, binary) as fh:
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
        import csv
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([report.header, *report.rows])
        return buf.getvalue()
    return "\n".join(report.text) + "\n"


def _load_scale(args: argparse.Namespace) -> corpus.RelevanceScale | None:
    """The --scale file, the first input read; right after it, the one usage
    rule that needs it: udm gains from an estimated table need theta = T."""
    from . import corpus
    if not args.scale:
        return None
    scale = _parse(args.scale, corpus.parse_scale)
    top = scale.top_index
    if "udm" in getattr(args, "gains", ()) and not args.table and args.theta in range(1, top):
        raise MetricError(f"udm gains need a table thresholded at the top level "
                          f"(theta = {top}), got theta = {args.theta}")
    return scale


def _value(args: argparse.Namespace, name: str):
    """A flag's value as given, else its default: what `_settle` sets."""
    value = getattr(args, name)
    return _DEFAULTS.get(f"{_name(args)}_{name}", _DEFAULTS[name]) if value is None else value


def _name(args: argparse.Namespace) -> str:
    return args.kind if "kind" in args else args.command  # 'eval', 'tau', ...


def _scored(args: argparse.Namespace) -> set[str]:
    # the measures and gain schemes that eval scores; tau and robustness rank by ndcg
    measures = _value(args, "measures") if "measures" in args else ("ndcg",)
    return {*measures, *(_value(args, "gains") if "ndcg" in measures else ())}


_COUNTING, _RANKING = ("estimate", "bootstrap", "budget"), ("tau", "robustness")
_NEEDS_TABLE = {"count-prm", "precision", "prm", "udm"}  # measures and gain schemes
_ESTIMATOR_FLAGS = ("--one-sided-collection", "--condition", "--estimator")
_ONE_SOURCE = "double judgments must come from exactly one source: --pairs or --qrels + --qrels2"
_NO_TABLE = "is not read when no measure or gain scheme needs a table"
_NO_RUN_MEASURE = "is not read without a run measure (precision, ndcg)"

# Every usage rule, in the order that a command reports them.  A row
# ``(flags, applies, message)`` is broken where ``applies(args)`` holds and,
# if it has flags, one of them is given (not None nor an unset switch, so
# ``--theta 0`` and a --config key are): the first given leads the message.
# A predicate names the parsers it applies to.  Rules that need a file come
# once it is read: udm's theta, the table's scale and theta, the length of
# --custom-gains, and duplicate system ids.
_RULES = (
    (("--condition",), lambda a: a.estimator != "one-sided", "needs --estimator one-sided"),
    ((), lambda a: _name(a) == "tau" and len(_value(a, "gains")) != 1,
     "analyze tau uses exactly one gain scheme"),
    ((), lambda a: _name(a) == "robustness" and not (a.qrels and a.qrels2),
     "robustness needs --qrels and --qrels2"),
    ((), lambda a: "seed" in a and a.seed is None,
     "--seed is required: resampling must be reproducible"),
    ((), lambda a: "budgets" in a and not a.budgets,
     "--budgets is required (comma list, e.g. 50,100,200)"),
    ((), lambda a: _name(a) == "quality" and not a.qrels,
     "--qrels is required (reference group judgments)"),
    ((), lambda a: "resource_map" in a and not (a.resource_map or a.resource_regex),
     "supply --resource-map or --resource-regex"),
    ((), lambda a: _name(a) == "quality" and not a.pairs,
     "--pairs is required for the quality sweep"),
    ((), lambda a: _name(a) in _RANKING and not a.qrels, "--qrels is required"),
    ((), lambda a: _name(a) in _RANKING and not a.run, "--run is required"),
    ((), lambda a: _name(a) in _RANKING and len(a.run) < 2, "need at least 2 --run files"),
    ((), lambda a: _name(a) in _COUNTING and a.pairs and (a.qrels or a.qrels2), _ONE_SOURCE),
    ((), lambda a: _name(a) == "eval" and a.pairs and a.qrels2, _ONE_SOURCE),
    (("--intent-field", "--intents", "--top-intent-only"),
     lambda a: _name(a) in _COUNTING and not a.qrels, "needs --qrels"),
    (("--intent-field", "--top-intent-only"),
     lambda a: _name(a) == "validate" and not (a.qrels or a.qrels2), "needs --qrels"),
    (("--table", "--pairs", "--qrels2", "--override-p0", *_ESTIMATOR_FLAGS),
     lambda a: _name(a) == "eval" and not _NEEDS_TABLE & _scored(a), _NO_TABLE),
    (("--table", "--pairs", "--override-p0", *_ESTIMATOR_FLAGS),
     lambda a: _name(a) in _RANKING and not _NEEDS_TABLE & _scored(a), _NO_TABLE),
    (("--pairs", "--qrels2", *_ESTIMATOR_FLAGS),
     lambda a: _name(a) == "eval" and a.table, "is not read beside --table"),
    (("--pairs", *_ESTIMATOR_FLAGS),
     lambda a: _name(a) in _RANKING and a.table, "is not read beside --table"),
    (("--theta",), lambda a: "table" in a and not (
        {"binary", "count-binary"} & _scored(a) or _NEEDS_TABLE & _scored(a) and not a.table),
     "is not read without an estimated table, binary gains or count-binary"),
    (("--custom-gains",), lambda a: "custom" not in _scored(a),
     "is not read when no custom gains are scored"),
    ((), lambda a: "custom_gains" in a and not a.custom_gains and "custom" in _scored(a),
     "custom gains need --custom-gains"),
    ((), lambda a: (_name(a) in _COUNTING or "table" in a and not a.table
                    and _NEEDS_TABLE & _scored(a)) and not (a.pairs or a.qrels and a.qrels2),
     "no double judgments: supply --pairs or both --qrels and --qrels2"),
    (("--run", "--strict"), lambda a: "measures" in a and not {"precision", "ndcg"} & _scored(a),
     _NO_RUN_MEASURE),
    ((), lambda a: _name(a) == "eval" and not a.qrels, "--qrels is required"),
    ((), lambda a: _name(a) == "eval" and not a.run and {"precision", "ndcg"} & _scored(a),
     "--run is required"),
    ((), lambda a: _name(a) != "validate" and not a.scale, "--scale is required"),
    ((), lambda a: _name(a) == "validate" and (a.qrels or a.qrels2) and not a.scale,
     "--scale is required to validate qrels"),
    ((), lambda a: _name(a) == "validate" and a.pairs and not a.scale,
     "--scale is required to validate pairs"),
    (("--top-intent-only",), lambda a: a.scale and not a.intents, "needs --intents"),
    (("--gains", "--discount", "--log-base"),
     lambda a: "measures" in a and "ndcg" not in _scored(a), "is not read without ndcg"),
    (("--k",), lambda a: "measures" in a and not {"precision", "ndcg"} & _scored(a),
     _NO_RUN_MEASURE),
    (("--ideal-pool",), lambda a: "measures" in a and "ndcg" not in _scored(a),
     "is not read without ndcg"),
    (("--log-base",), lambda a: _value(a, "discount") == "zipf",
     "is not read with --discount zipf"),
    # on a one-sided collection the symmetric and u2 estimates over-sample agreement
    (("--one-sided-collection",), lambda a: _value(a, "estimator") != "one-sided",
     "needs --estimator one-sided"),
    (("--one-sided-collection",), lambda a: _value(a, "condition") == "u2",
     "needs --condition u1"),
    # values out of range, in the library's words
    ((), lambda a: _below(a, "theta", 1), "theta must be >= 1, got {theta}"),
    ((), lambda a: _below(a, "seed", 0), "seed must be a non-negative integer, got {seed!r}"),
    ((), lambda a: _below(a, "resamples", 1), "n_resamples must be >= 1, got {resamples}"),
    ((), lambda a: _below(a, "rounds", 1), "n_rounds must be >= 1, got {rounds}"),
    ((), lambda a: getattr(a, "log_base", None) is not None and not a.log_base > 1,
     "log discount base must be > 1, got {log_base}"),
    ((), lambda a: getattr(a, "log_base", None) == float("inf"),
     "log discount base must be finite, got {log_base}"),
    ((), lambda a: _below(a, "k", 1), "k must be >= 1, got {k}"),
)


def _below(args: argparse.Namespace, name: str, low: float) -> bool:
    """Whether the flag ``name`` is given with a value below ``low`` (NaN included)."""
    value = getattr(args, name, None)
    return value is not None and not value >= low


def _settle(args: argparse.Namespace) -> None:
    """Walk `_RULES` in order, the first row broken being a ValidationError
    (its message with the flags' values put in); then, before any file is
    read, each flag not given takes its default."""
    for flags, applies, message in _RULES:
        values = (getattr(args, f[2:].replace("-", "_"), None) for f in flags)
        given = [f for f, v in zip(flags, values) if v is not None and v is not False]
        if (given or not flags) and applies(args):
            raise ValidationError(" ".join([*given[:1], message.format_map(vars(args))]))
    for name in _DEFAULTS.keys() & vars(args).keys():
        setattr(args, name, _value(args, name))


def _load_qrels(args: argparse.Namespace, path: str, scale: corpus.RelevanceScale,
                group: str) -> corpus.JudgmentSet:
    """One group's qrels; --intents declares the intents that intent '0'
    expands over, and --top-intent-only keeps each topic's top intent.
    The --intents file is read once per command, with the first qrels."""
    from . import corpus
    if args.intents and "intent_probs" not in args:
        args.intent_probs = _parse(args.intents, corpus.parse_intent_probabilities)
    probs = getattr(args, "intent_probs", None)
    js = _parse(path, corpus.parse_qrels, scale, group,
                intent_field=args.intent_field, declared_intents=probs)
    if args.top_intent_only:
        js = corpus.select_top_intent(js, probs)
    return js


def _load_pairs(args: argparse.Namespace, scale: corpus.RelevanceScale,
                u1=None, u2=None) -> corpus.JudgmentPairs:
    """Double judgments from --pairs, else from the overlap of --qrels and
    --qrels2: ``u1`` and ``u2`` are those groups if already read."""
    from . import corpus
    if args.pairs:
        return _parse(args.pairs, corpus.parse_paired, scale)
    u1 = _load_qrels(args, args.qrels, scale, "u1") if u1 is None else u1
    u2 = _load_qrels(args, args.qrels2, scale, "u2") if u2 is None else u2
    return corpus.pair_judgments(u1, u2).pairs


def _user_model(args: argparse.Namespace, scale: corpus.RelevanceScale,
                table=None) -> disagreement.UserModel:
    """The user model at --theta, else at the theta of ``table``, the one
    scored, else at the top level T: so one command scores one threshold."""
    from . import disagreement
    theta = args.theta
    if theta is None:
        theta = scale.top_index if table is None else table.theta
    return disagreement.UserModel(theta)


def _estimator_opts(args: argparse.Namespace) -> dict:
    return dict(estimator=args.estimator.replace("-", "_"), condition=args.condition,
                one_sided_collection=args.one_sided_collection)


def _resolve_table(args: argparse.Namespace, scale: corpus.RelevanceScale,
                   u1=None, u2=None) -> disagreement.DisagreementTable:
    """The --table file, else the estimate from the double judgments
    (``u1`` and ``u2`` as in :func:`_load_pairs`); --override-p0 pins
    p(R|0), and then the table is checked for levels whose p(R|i) falls
    beyond noise."""
    from . import disagreement
    if args.table:
        table = _parse(args.table, disagreement.DisagreementTable.from_json)
        if table.scale.labels != scale.labels:
            raise ValidationError(f"table scale {table.scale.labels} != --scale {scale.labels}")
        if args.theta not in (None, table.theta):
            raise ValidationError(f"--theta {args.theta} != the table's theta {table.theta}")
    else:
        table = disagreement.estimate(
            _load_pairs(args, scale, u1, u2), _user_model(args, scale), scale,
            **_estimator_opts(args),
        )
    table = table.with_override(0, 0.0) if args.override_p0 else table
    table.warn_non_monotone()
    return table


def _resolve_scheme(name: str, args: argparse.Namespace, scale: corpus.RelevanceScale,
                    table: disagreement.DisagreementTable | None) -> metrics.GainScheme:
    from . import metrics
    top = scale.top_index
    if name == "binary":
        return metrics.GainScheme.binary(top, _user_model(args, scale, table).theta)
    if name in ("linear", "exponential"):
        return getattr(metrics.GainScheme, name)(top)
    if name in ("prm", "udm"):
        return getattr(metrics.GainScheme, name)(table)
    # custom, the one name left by `_split`; `_settle` saw its values given
    if len(args.custom_gains) != top + 1:
        raise ValidationError(f"--custom-gains needs {top + 1} values for this scale, "
                              f"got {len(args.custom_gains)}")
    return metrics.GainScheme.custom(args.custom_gains)


def _resolve_discount(args: argparse.Namespace) -> metrics.DiscountFunction:
    from . import metrics
    if args.discount == "zipf":
        return metrics.DiscountFunction.zipf()
    return metrics.DiscountFunction.log(args.log_base)


def cmd_estimate(args: argparse.Namespace) -> _Report:
    from . import corpus, disagreement
    scale = _load_scale(args)
    pairs = _load_pairs(args, scale)
    strata = (_parse(args.strata, corpus.parse_strata) if args.strata
              else dict.fromkeys(pairs.topic_ids, "all"))
    opts = _estimator_opts(args)
    variants = [opts] if args.estimator != "all" else [
        dict(opts, estimator="symmetric"),
        *(dict(opts, estimator="one_sided", condition=c) for c in ("u1", "u2"))]
    model = _user_model(args, scale)
    if not pairs:
        raise EstimationError("no judgment pairs to estimate from")
    names, counts = disagreement.group_pair_counts(pairs, scale, strata)
    model.check_against(scale)

    per_stratum: dict[str, dict[str, disagreement.DisagreementTable]] = {}
    for variant in variants:
        for stratum, c in zip(names, counts):
            t = disagreement.table_from_counts(c, model, scale, **variant)
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

    from . import corpus, metrics
    measures = args.measures
    gains = args.gains if "ndcg" in measures else ()
    runs = (_parse(path, corpus.parse_run) for path in args.run or ())  # each read when reached
    scale = _load_scale(args)
    u1 = _load_qrels(args, args.qrels, scale, "u1")
    doc_levels = u1.doc_levels()
    table = _resolve_table(args, scale, u1) if _NEEDS_TABLE & _scored(args) else None
    del u1  # its columns are not held while the runs are scored
    discount = _resolve_discount(args)
    # before the counts, so that a binary scheme's own theta error comes first
    schemes = [_resolve_scheme(name, args, scale, table) for name in gains]

    pool = metrics._Pool(doc_levels)  # each topic's level histogram, counted once
    pool_reports: dict[str, metrics.MetricReport] = {}
    if "count-binary" in measures:
        model = _user_model(args, scale, table)
        model.check_against(scale)
        pool_reports["count_binary"] = metrics.binary_count_report(pool, model.theta)
    if "count-prm" in measures:
        assert table is not None
        pool_reports["count_prm"] = metrics.expected_count_report(pool, table)

    # one kernel call per run scores every run measure from one level vector
    # per topic; a single nDCG scheme is labelled plain "ndcg"
    run_measures = ([table] if "precision" in measures else []) + schemes
    system_reports: dict[str, dict[str, metrics.MetricReport]] = {}
    for run in runs:
        if run.system_id in system_reports:
            raise ValidationError(f"duplicate system id among runs: {run.system_id!r}")
        per_run = system_reports[run.system_id] = {}
        for report in metrics.ndcg_reports(
            run, pool, run_measures, discount, args.k,
            strict=args.strict, ideal_pool=args.ideal_pool,
        ):
            if len(schemes) == 1 and report.measure.startswith("ndcg_"):
                report = replace(report, measure="ndcg")
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
) -> tuple[Iterator[corpus.RunRanking], tuple[dict, ...], dict[str, metrics.GainScheme]]:
    """Runs (read when iterated), each group's doc levels and the gain
    schemes.  Without --qrels2 the runs are scored once, against --qrels.
    Each qrels file is read once, before any run."""
    from . import corpus
    runs = (_parse(path, corpus.parse_run) for path in args.run)
    scale = _load_scale(args)
    u1 = _load_qrels(args, args.qrels, scale, "u1")
    u2 = _load_qrels(args, args.qrels2, scale, "u2") if args.qrels2 else u1
    table = _resolve_table(args, scale, u1, u2) if _NEEDS_TABLE & _scored(args) else None
    schemes = {name: _resolve_scheme(name, args, scale, table) for name in args.gains}
    judged = (u1.doc_levels(),) if u2 is u1 else (u1.doc_levels(), u2.doc_levels())
    return runs, judged, schemes


def _analyze_tau(args: argparse.Namespace) -> _Report:
    from . import analysis
    runs, judged, schemes = _ranking_inputs(args)
    ranks = [rankings[args.gains[0]] for rankings in analysis.rank_by_ndcg(
        runs, judged, schemes, _resolve_discount(args), args.k,
        strict=args.strict, ideal_pool=args.ideal_pool,
    )]
    rank_u1, rank_u2 = ranks[0], ranks[-1]  # one ranking for both without --qrels2
    tau = analysis.kendall_tau(rank_u1, rank_u2, variant=args.tau_variant)
    metric = f"tau_{args.tau_variant}"
    payload = {"tau": tau, "variant": args.tau_variant,
               "ranking_u1": [list(s) for s in rank_u1.systems],
               "ranking_u2": [list(s) for s in rank_u2.systems]}
    return _Report(payload, ["metric", "value"], [[metric, tau]], [f"{metric}\t{tau:.4f}"])


def _analyze_robustness(args: argparse.Namespace) -> _Report:
    from . import analysis
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


def _analyze_bootstrap(args: argparse.Namespace) -> _Report:
    from . import disagreement
    scale = _load_scale(args)
    pairs = _load_pairs(args, scale)
    results = disagreement.bootstrap_topics(
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
    scale = _load_scale(args)
    pairs = _load_pairs(args, scale)
    return _curve_report(analysis.simulate_annotation_rounds(
        pairs, _user_model(args, scale), scale, args.budgets,
        n_rounds=args.rounds, seed=args.seed, **_estimator_opts(args),
    ))


def _analyze_quality(args: argparse.Namespace) -> _Report:
    from . import corpus, disagreement
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
    scale = _load_scale(args)
    if scale:
        rows.append(["scale", args.scale, scale.top_index + 1, None, None])
        text.append(f"ok: scale with {scale.top_index + 1} levels {scale.labels}")
    for label, path, group in (("qrels", args.qrels, "u1"), ("qrels2", args.qrels2, "u2")):
        if path:
            js = _load_qrels(args, path, scale, group)
            n_topics = len(js.topics())
            rows.append([label, path, len(js), n_topics, None])
            text.append(f"ok: {label} with {len(js)} judgments, {n_topics} topics")
    if args.intents and "intent_probs" not in args:  # checked without qrels too
        args.intent_probs = _parse(args.intents, corpus.parse_intent_probabilities)
    if args.pairs:
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


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    # warnings print as one plain line, without the source location
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        args = parser.parse_args(argv)
        if args.config:
            # right after the command (and the analysis kind), so that the
            # flags that follow win
            at = argv.index(args.command) + (2 if "kind" in args else 1)
            args = parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])
        _settle(args)
        text = _render(args.handler(args), args.format)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return 0
    except SystemExit as exc:
        # argparse --help exits 0; usage errors surface as code 1
        return 0 if exc.code in (None, 0) else 1
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
