"""Output checks, computed apart from the program.

Every check returns a list of problems; an empty list means the output
passed. Nothing here imports refdoc: labels travel as their canonical
strings, reports as the JSON the program writes, and the keyword baseline
is re-derived from the rules file itself.
"""

from __future__ import annotations

import json
import re

# The six method-level types in alphabetical order, the program's class
# order when no None class is trained.
METHOD_TYPES = ("ExtractMethod", "InlineMethod", "MoveMethod",
                "PullUpMethod", "PushDownMethod", "RenameMethod")

_WORD_RE = re.compile(r"[a-z0-9]+")


def f_scores(pairs, classes):
    """Per-class F as 2tp / (2tp + fp + fn) from (true, predicted) pairs;
    a prediction outside `classes` (e.g. None for no match) is a miss."""
    out = []
    for cls in classes:
        tp = sum(1 for t, p in pairs if t == cls and p == cls)
        fp = sum(1 for t, p in pairs if t != cls and p == cls)
        fn = sum(1 for t, p in pairs if t == cls and p != cls)
        out.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return out


def macro_f1(pairs, classes=METHOD_TYPES) -> float:
    scores = f_scores(pairs, classes)
    return sum(scores) / len(scores)


class StemBaseline:
    """The keyword-stem rule, read from the program's keyword_rules.tsv:
    the first rule whose stem occurs inside a word of the lowercased
    message, that word not on the rule's exclusion list, names the type."""

    def __init__(self, rules_text: str):
        self.rules = []
        for line in rules_text.splitlines():
            if not line.strip():
                continue
            stem, target, excluded = line.split("\t")
            self.rules.append((stem, target,
                               {w for w in excluded.strip().split(",") if w}))

    def predict(self, message: str):
        words = _WORD_RE.findall(message.lower())
        for stem, target, excluded in self.rules:
            if any(stem in w and w not in excluded for w in words):
                return target
        return None


def check_beats_baseline(what, model_f1, baseline_f1):
    if model_f1 > baseline_f1:
        return []
    return [f"{what}: macro-F1 {model_f1:.4f} does not beat the keyword "
            f"baseline's {baseline_f1:.4f}"]


def check_cv_report(report: dict, n_total: int, per_class: int,
                    baseline_f1: float):
    """The pooled matrix covers every message once, each class's row holds
    its per_class messages, and per-class and macro F recomputed from the
    matrix equal the report's."""
    problems = []
    classes = report["classes"]
    matrix = report["matrix"]
    total = sum(sum(row) for row in matrix)
    if total != n_total:
        problems.append(f"confusion matrix sums to {total}, not {n_total}")
    for cls, row in zip(classes, matrix):
        if sum(row) != per_class:
            problems.append(f"row {cls} sums to {sum(row)}, not {per_class}")
    f_values = []
    for i, cls in enumerate(classes):
        tp = matrix[i][i]
        fp = sum(matrix[j][i] for j in range(len(classes))) - tp
        fn = sum(matrix[i]) - tp
        f = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        f_values.append(f)
        if f != report["per_class"][cls]["f_measure"]:
            problems.append(f"F of {cls} is {f!r} from the matrix, "
                            f"{report['per_class'][cls]['f_measure']!r} in the report")
    macro = sum(f_values) / len(f_values)
    if macro != report["macro"]["f_measure"]:
        problems.append(f"macro-F1 is {macro!r} from the matrix, "
                        f"{report['macro']['f_measure']!r} in the report")
    return problems + check_beats_baseline("cross-validation", macro, baseline_f1)


def check_predict_body(body: bytes, message: str, baseline: StemBaseline):
    """A /predict 200 body: scores over the six types in [0, 1], the label
    their argmax under alphabetical class order (first maximum wins), and
    the baseline field equal to the stem rule's verdict."""
    try:
        payload = json.loads(body)
        label, scores = payload["label"], payload["scores"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable /predict body ({exc}): {body[:80]!r}"]
    problems = []
    if sorted(scores) != list(METHOD_TYPES):
        problems.append(f"score keys {sorted(scores)} are not the six types")
        return problems
    if not all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in scores.values()):
        problems.append(f"scores outside [0, 1]: {scores}")
    best = max(METHOD_TYPES, key=lambda c: (scores[c], -METHOD_TYPES.index(c)))
    if label != best:
        problems.append(f"label {label} is not the argmax {best} of its scores")
    expected = baseline.predict(message)
    if payload.get("baseline", "missing") != expected:
        problems.append(f"baseline {payload.get('baseline', 'missing')!r}, "
                        f"stem rule says {expected!r}")
    return problems


def check_identical_bodies(sent):
    """sent: (message, body) pairs; identical messages need identical bytes."""
    first = {}
    problems = []
    for message, body in sent:
        if first.setdefault(message, body) != body:
            problems.append(f"two different bodies for one message: {message[:60]!r}")
    return problems


def check_statuses(results):
    """results: (request name, expected status, status or None)."""
    return [f"{name}: expected {expected}, got {got}"
            for name, expected, got in results if got != expected]


def check_models_identical(digests):
    """digests: algorithm -> model-file digests of every fit in the run."""
    return [f"{algo}: fits with one seed wrote {len(set(d))} different files"
            for algo, d in digests.items() if len(set(d)) != 1]


def check_reload(algo, in_memory, reloaded):
    """Predictions (label, scores) per message must match exactly."""
    bad = sum(1 for a, b in zip(in_memory, reloaded) if a != b)
    if bad or len(in_memory) != len(reloaded):
        return [f"{algo}: the reloaded model scores {bad} of {len(in_memory)} "
                "held-out messages differently"]
    return []
