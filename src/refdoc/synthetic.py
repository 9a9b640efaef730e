"""Deterministic synthetic commit corpus built from the pattern catalog.

Each message instantiates one catalog pattern for its class (suffix
wildcards completed with real inflections, `[]` slots filled with
identifier-ish words) and is padded so roughly 30 percent of its tokens
are neutral distractor noise. The optional None class uses generic
maintenance templates that avoid the six keyword stems entirely.
"""

from __future__ import annotations

import numpy as np

from .corpus import CommitRecord, Dataset, METHOD_TYPES, RefactoringType
from .terms import _ANY, _parse_pattern, load_catalog

NOISE_FRACTION = 0.3

# Completions per catalog wildcard stem; real inflections so the
# preprocessing pipeline folds them back together.
STEM_FORMS = {
    "add": ["added", "adding", "adds", "add"],
    "alter": ["altered", "altering", "alters"],
    "break": ["break", "breaking", "breaks"],
    "brok": ["broke", "broken"],
    "chang": ["changed", "changing", "changes", "change"],
    "clarif": ["clarify", "clarified", "clarifies"],
    "clean": ["cleaned", "cleaning", "clean"],
    "combin": ["combine", "combined", "combining"],
    "consolidat": ["consolidate", "consolidated", "consolidating"],
    "correct": ["corrected", "correcting", "correct"],
    "creat": ["created", "creating", "creates", "create"],
    "delet": ["deleted", "deleting", "delete"],
    "extract": ["extracted", "extracting", "extracts", "extract"],
    "fix": ["fixed", "fixing", "fixes", "fix"],
    "improv": ["improved", "improving", "improve"],
    "inlin": ["inlined", "inlining", "inline", "inlines"],
    "introduc": ["introduce", "introduced", "introducing"],
    "merg": ["merged", "merging", "merge", "merges"],
    "modif": ["modified", "modify", "modifying"],
    "mov": ["moved", "moving", "move", "moves"],
    "normaliz": ["normalize", "normalized", "normalizing"],
    "pull": ["pulled", "pulling", "pull", "pulls"],
    "push": ["pushed", "pushing", "push", "pushes"],
    "reduc": ["reduce", "reduced", "reducing"],
    "refactor": ["refactored", "refactoring", "refactor", "refactors"],
    "remov": ["removed", "removing", "remove", "removes"],
    "renam": ["renamed", "renaming", "rename", "renames"],
    "separat": ["separated", "separating", "separate"],
    "shift": ["shifted", "shifting", "shift"],
    "shorten": ["shortened", "shortening", "shorten"],
    "simplif": ["simplify", "simplified", "simplifying"],
    "solv": ["solved", "solving", "solve"],
    "split": ["split", "splitting", "splits"],
    "tid": ["tidy", "tidied", "tidying"],
    "unif": ["unify", "unified", "unifying"],
    "uniformiz": ["uniformize", "uniformized"],
    "updat": ["updated", "updating", "updates", "update"],
}

FILLERS = [
    "parser", "builder", "handler", "session", "widget", "buffer",
    "adapter", "context", "resolver", "scheduler", "registry", "codec",
    "validator", "formatter", "helper", "manager", "client", "worker",
    "queue", "tokenizer",
]

NOISE_WORDS = [
    "also", "minor", "small", "quick", "finally", "again", "now", "today",
    "misc", "nit", "wip", "todo", "later", "still", "already", "properly",
    "slightly", "mostly", "initial", "final", "internal", "public",
    "logic", "behavior", "handling", "path", "case", "flow", "state",
    "layer", "build", "ci", "docs", "readme", "bump", "deps", "api",
    "against", "via", "per", "plus",
]

NONE_TEMPLATES = [
    "fix crash in [] when the config file is missing",
    "update [] dependency to the latest release",
    "bump version to next snapshot",
    "fix flaky [] test on ci",
    "document the [] setup steps in the readme",
    "handle null values in [] gracefully",
    "add logging around [] startup",
    "fix typo in user facing error text",
    "upgrade build plugin configuration",
    "support utf8 encoded input in []",
    "guard against empty [] responses",
    "cache [] lookups to speed up startup",
    "validate [] arguments before use",
    "fix off by one error in [] paging",
    "improve error reporting for bad [] input",
    "tune [] timeouts for slow networks",
    "patch security issue in [] parsing",
    "fix memory leak in [] shutdown",
    "log warnings when [] is misconfigured",
    "correct [] documentation example",
    "silence noisy [] warnings during tests",
    "fix race condition in [] initialization",
    "update copyright year in headers",
    "make [] output stable across platforms",
    "fix broken link in contributing guide",
    "enable [] feature flag by default",
    "increase default [] pool size",
    "fix deadlock when [] reconnects",
    "sort [] entries for deterministic output",
    "return early when [] queue is empty",
    "prevent duplicate [] registrations",
    "use buffered io for [] reads",
    "fix incorrect [] timestamps in logs",
    "skip [] check when offline",
    "wire up [] metrics counters",
    "retry transient [] failures with backoff",
    "normalize line endings in test fixtures",
    "default to https for [] downloads",
    "fix nullpointer in [] listener",
    "tighten [] timeout handling in tests",
]

def _instantiate_pattern(pattern: str, rng) -> list:
    words = []
    for token in _parse_pattern(pattern):
        if token is _ANY:
            choices = FILLERS
        elif token[0] == "prefix":
            choices = STEM_FORMS[token[1]]
        else:
            words.append(token[1])
            continue
        words.append(choices[rng.integers(0, len(choices))])
    return words


def _add_noise(words: list, rng, fraction: float) -> list:
    if fraction <= 0:
        return list(words)
    n_noise = int(round(fraction / (1.0 - fraction) * len(words)))
    noise = [NOISE_WORDS[rng.integers(0, len(NOISE_WORDS))]
             for _ in range(n_noise)]
    head = int(rng.integers(0, n_noise + 1))
    return noise[:head] + list(words) + noise[head:]


def generate_corpus(seed: int = 0, per_class: int = 100,
                    include_none: bool = False,
                    noise_fraction: float = NOISE_FRACTION) -> Dataset:
    """Build a balanced labeled corpus; a pure function of its arguments."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    catalog = load_catalog()
    labels = list(METHOD_TYPES) + (
        [RefactoringType.NONE] if include_none else [])
    records = []
    counter = 0
    for label in labels:
        if label is RefactoringType.NONE:
            sources = NONE_TEMPLATES
        else:
            sources = catalog.patterns[label]
        for _ in range(per_class):
            template = sources[int(rng.integers(0, len(sources)))]
            words = _instantiate_pattern(template, rng)
            words = _add_noise(words, rng, noise_fraction)
            message = " ".join(words)
            if rng.random() < 0.5:
                message = message[:1].upper() + message[1:]
            records.append(CommitRecord(
                id=f"syn{counter:05d}", project="synthetic",
                message=message, label=label))
            counter += 1
    return Dataset(records)
