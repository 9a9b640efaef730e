"""Keyword-stem baseline classifier with false-match filtering.

Six stems (renam, extract, inlin, pull, push, mov) map to their types; a
stem matches when it occurs inside any word of the lowercased message
unless the whole word sits on the stem's exclusion list ("movie",
"movement"). The bundled rules file is user-extensible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from .corpus import RefactoringType, parse_label
from .textprep import data_text, raw_words


@dataclass(frozen=True)
class KeywordRule:
    stem: str
    target: RefactoringType
    exclusions: frozenset


@lru_cache(maxsize=1)
def load_rules() -> Tuple[KeywordRule, ...]:
    """Bundled rules in priority order (most specific stems first)."""
    rules = []
    for line in data_text("keyword_rules.tsv").splitlines():
        if not line.strip():
            continue
        stem, target, excl = line.split("\t")
        exclusions = frozenset(w for w in excl.strip().split(",") if w)
        rules.append(KeywordRule(stem=stem, target=parse_label(target),
                                 exclusions=exclusions))
    return tuple(rules)


def keyword_predict(message: str):
    """(label, matches) for one raw message.

    `matches` lists every type whose stem hits, in rule priority order;
    `label` is the first of them, or None when nothing matches.
    """
    words = raw_words(message)
    matches = []
    for rule in load_rules():
        for word in words:
            if rule.stem in word and word not in rule.exclusions:
                matches.append(rule.target)
                break
    label = matches[0] if matches else None
    return label, matches
