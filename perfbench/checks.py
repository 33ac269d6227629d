"""Output checks for every benchmark command.

``check(name, text, info, earlier)`` returns a list of problems (empty
when the output is correct).  It checks invariants that hold for any
seed, against facts the generator knows about its inputs, and, when
``expected`` is given, compares the output value by value with the
stored output of the default seed: floats at a relative tolerance of
1e-9, everything else exactly.
"""

from __future__ import annotations

import json
import math

from gen import LABELS

REL_TOL = 1e-9
LEVELS = range(len(LABELS))
GAINS = ("binary", "linear", "exponential", "prm")
SCHEMES = ("binary", "exponential", "linear", "prm", "udm")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def flatten(name: str, text: str) -> dict:
    """The output as a flat ``{key: value}`` map, for value-by-value comparison."""
    if name == "validate":
        return {"text": text}
    if name == "eval":
        rows = text.splitlines()[1:]
        return {r.rsplit(",", 1)[0]: float(r.rsplit(",", 1)[1]) for r in rows}
    out: dict = {}

    def walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}/{k}", v)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}/{i}", v)
        else:
            out[prefix] = obj

    walk("", json.loads(text))
    return out


def compare(got: dict, want: dict) -> list[str]:
    problems = []
    if set(got) != set(want):
        missing, extra = sorted(set(want) - set(got)), sorted(set(got) - set(want))
        problems.append(f"keys differ: missing {missing[:3]}, unexpected {extra[:3]}")
    for key in sorted(set(got) & set(want)):
        a, b = got[key], want[key]
        floats = isinstance(a, float) or isinstance(b, float)
        same = _close(a, b) if floats and a is not None and b is not None else a == b
        if not same:
            problems.append(f"{key}: got {a!r}, expected {b!r}")
    return problems[:5]


def _in_unit(values, what: str) -> list[str]:
    return [f"{what} {v!r} outside [0, 1]" for v in values if not 0.0 <= v <= 1.0][:3]


def _validate(text: str, info: dict, earlier: dict) -> list[str]:
    n = info["sizes"]
    wanted = [f"qrels with {n['topics'] * n['judged']} judgments, {n['topics']} topics"]
    wanted += [
        f"run sys{s:02d} with {n['topics'] * n['depth']} entries, {n['topics']} topics"
        for s in range(n["runs"])
    ]
    return [f"validate does not report {w!r}" for w in wanted if w not in text]


def _eval(text: str, info: dict, earlier: dict) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "system,measure,topic,value":
        return ["eval csv header missing"]
    series: dict[tuple[str, str], dict[str, float]] = {}
    for row in lines[1:]:
        system, measure, topic, value = row.split(",")
        series.setdefault((system, measure), {})[topic] = float(value)
    topics = set(info["topics"])
    problems = []
    systems = [f"sys{s:02d}" for s in range(len(info["runs"]))]
    measures = [f"ndcg_{g}@10" for g in GAINS] + ["expected_precision@10"]
    want = {(s, m) for s in systems for m in measures} | {("pool", "count_prm")}
    if set(series) != want:
        problems.append(f"eval reports {sorted(series)}, expected {sorted(want)}")
    p = [m / t for m, t in info["table_counts"]]
    for (system, measure), values in sorted(series.items()):
        per_topic = {t: v for t, v in values.items() if t not in ("all", "stderr")}
        if set(per_topic) != topics:
            problems.append(f"{system} {measure}: {len(per_topic)} topics, expected {len(topics)}")
            continue
        mean = math.fsum(per_topic[t] for t in sorted(per_topic)) / len(per_topic)
        if not _close(values.get("all", math.nan), mean):
            problems.append(f"{system} {measure}: mean {values.get('all')} != {mean}")
        if system == "pool":
            for t, v in per_topic.items():
                oracle = sum(c * pi for c, pi in zip(info["qrels_hist"][t], p))
                if not _close(v, oracle):
                    problems.append(f"count_prm {t}: {v!r} != {oracle!r}")
        else:
            problems += _in_unit(per_topic.values(), f"{system} {measure}")
    return problems


def _counts_match(table: dict, counts, what: str) -> list[str]:
    got = [(c["n_match"], c["n_total"]) for c in table["cells"]]
    want = [tuple(c) for c in counts]
    problems = [] if got == want else [f"{what}: counts {got} != {want}"]
    for c in table["cells"]:
        if c["n_total"] and not _close(c["p"], c["n_match"] / c["n_total"]):
            problems.append(f"{what} level {c['level']}: p {c['p']} != n_match/n_total")
    return problems


def _estimate(text: str, info: dict, earlier: dict) -> list[str]:
    out = json.loads(text)
    if set(out) != set(info["strata_counts"]):
        return [f"estimate strata {sorted(out)} != {sorted(info['strata_counts'])}"]
    problems = []
    n_total = 0
    for stratum, variants in out.items():
        if set(variants) != {"symmetric", "one_sided_u1", "one_sided_u2"}:
            problems.append(f"stratum {stratum}: estimators {sorted(variants)}")
            continue
        sym = variants["symmetric"]
        problems += _counts_match(sym, info["strata_counts"][stratum], f"stratum {stratum}")
        sym_total = sum(c["n_total"] for c in sym["cells"])
        n_total += sym_total
        for cond in ("u1", "u2"):
            one = sum(c["n_total"] for c in variants[f"one_sided_{cond}"]["cells"])
            if 2 * one != sym_total:
                problems.append(f"stratum {stratum}: one-sided {cond} covers {one} pairs")
    if n_total != 2 * info["pairs"]:
        problems.append(f"symmetric n_total sums to {n_total}, expected {2 * info['pairs']}")
    return problems


def _bootstrap(text: str, info: dict, earlier: dict) -> list[str]:
    out = json.loads(text)
    problems = []
    if sorted(out) != [str(lvl) for lvl in LEVELS]:
        return [f"bootstrap levels {sorted(out)}"]
    for lvl, r in out.items():
        if r["n_samples"] + r["n_missing"] != 100:
            problems.append(f"level {lvl}: {r['n_samples']} + {r['n_missing']} != 100 resamples")
        if len(r["samples"]) != r["n_samples"]:
            problems.append(f"level {lvl}: {len(r['samples'])} samples listed")
        problems += _in_unit(r["samples"], f"level {lvl} sample")
    return problems


def _curve(out: dict, x_name: str, x: list[int]) -> list[str]:
    if out["x_name"] != x_name or out["x"] != x:
        return [f"sweep {out['x_name']}={out['x']}, expected {x_name}={x}"]
    if [s["level"] for s in out["series"]] != list(LEVELS):
        return ["sweep levels wrong"]
    problems = []
    for s in out["series"]:
        problems += _in_unit([m for m in s["means"] if m is not None], f"level {s['level']} mean")
    return problems


def _budget(text: str, info: dict, earlier: dict) -> list[str]:
    out = json.loads(text)
    problems = _curve(out, "budget", [1000, 3000, 10000, 30000])
    for s in out["series"]:
        problems += [f"level {s['level']}: {n} of 20 rounds" for n in s["n_defined"] if n > 20]
    return problems


def _quality(text: str, info: dict, earlier: dict) -> list[str]:
    out = json.loads(text)
    problems = _curve(out, "top_k_resources", list(range(1, 1 + info["sizes"]["resources"])))
    if problems:
        return problems
    # the largest k covers every pair: it must equal the unrestricted estimate
    for s, (m, t) in zip(out["series"], info["table_counts"]):
        if s["n_defined"][-1] != t or not _close(s["means"][-1], m / t):
            problems.append(
                f"level {s['level']}: last step {s['means'][-1]} over {s['n_defined'][-1]} "
                f"!= unrestricted {m}/{t}"
            )
    return problems


def _tau_value(tau, what: str) -> list[str]:
    return [] if isinstance(tau, float) and -1.0 <= tau <= 1.0 else [f"{what} {tau!r}"]


def _robustness(text: str, info: dict, earlier: dict) -> list[str]:
    out = json.loads(text)
    if sorted(out["tau"]) != list(SCHEMES) or out["k"] != 20:
        return [f"robustness reports {sorted(out['tau'])} at k={out['k']}"]
    return [p for name, t in out["tau"].items() for p in _tau_value(t, f"tau {name}")]


def _tau(text: str, info: dict, earlier: dict) -> list[str]:
    out = json.loads(text)
    problems = _tau_value(out["tau"], "tau")
    systems = {f"sys{s:02d}" for s in range(len(info["runs"]))}
    for side in ("ranking_u1", "ranking_u2"):
        if {s for s, _ in out[side]} != systems:
            problems.append(f"{side} ranks {len(out[side])} systems")
    if "robustness" in earlier:
        prm = json.loads(earlier["robustness"])["tau"]["prm"]
        if not _close(out["tau"], prm):
            problems.append(f"tau {out['tau']!r} != robustness prm tau {prm!r}")
    return problems


_CHECKS = {
    "validate": _validate,
    "eval": _eval,
    "estimate": _estimate,
    "bootstrap": _bootstrap,
    "budget": _budget,
    "quality": _quality,
    "robustness": _robustness,
    "tau": _tau,
}


def check(name: str, text: str, info: dict, earlier: dict, expected: dict | None = None) -> list[str]:
    """Problems with command ``name``'s output ``text``; ``earlier`` maps
    the names of commands already run in this pass to their outputs."""
    try:
        problems = _CHECKS[name](text, info, earlier)
        if expected is not None:
            problems += compare(flatten(name, text), expected[name])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unreadable {name} output: {type(exc).__name__}: {exc}"]
    return problems
