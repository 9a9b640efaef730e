"""Per-class frequent n-gram mining and the wildcard pattern catalog.

The bundled catalog reproduces the published per-type term tables: a
trailing `*` on a pattern word matches any suffix and `[]` matches exactly
one word. Matching runs over lightly normalized raw text (lowercased,
punctuation-stripped words) because the patterns encode their own
stemming.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Dict, List, Tuple

from . import textprep
from .corpus import Dataset, RefactoringType, parse_label
from .errors import InsufficientClass, UnknownLabel
from .features import Ngram

_WORD_RE = re.compile(r"[a-z0-9]+")
_ANY = object()  # the [] wildcard


@dataclass(frozen=True)
class TermTable:
    label: RefactoringType
    rows: Tuple[Tuple[Ngram, int], ...]  # ranked by doc frequency desc


def frequent_ngrams(dataset: Dataset, label: RefactoringType, n: int,
                    top_k: int) -> TermTable:
    """Most document-frequent n-grams (n = 2 or 3) of one class.

    Frequencies count documents containing the n-gram, not occurrences;
    ties rank lexicographically.
    """
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    docs = [r for r in dataset if r.label == label]
    if not docs:
        raise InsufficientClass(label.value, 0, 1)
    df: Dict[Ngram, int] = {}
    for rec in docs:
        tokens = textprep.preprocess(rec.message)
        grams = {tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)}
        for gram in grams:
            df[gram] = df.get(gram, 0) + 1
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))
    return TermTable(label=label, rows=tuple(ranked[:max(top_k, 0)]))


def _parse_pattern(text: str):
    """Pattern -> matcher tokens: literal word, prefix, or any-word."""
    tokens = []
    for raw in text.split():
        if raw == "[]":
            tokens.append(_ANY)
            continue
        for piece in re.split(r"[^a-z0-9*]+", raw.lower()):
            if not piece:
                continue
            if piece.endswith("*"):
                tokens.append(("prefix", piece.rstrip("*")))
            else:
                tokens.append(("word", piece))
    return tokens


class _TrieNode:
    """A node of the pattern trie; its edges are keyed by matcher token."""

    __slots__ = ("edges", "ends")

    def __init__(self):
        self.edges = {}  # ("word", w), ("prefix", p) or _ANY -> _TrieNode
        self.ends = []   # (catalog position, class, text) ending here


class PatternCatalog:
    """Per-class wildcard patterns, user-extensible via the data file."""

    def __init__(self, patterns: Dict[RefactoringType, List[str]]):
        self.patterns = patterns
        self._trie = _TrieNode()
        prefix_lengths = set()  # so a word's prefix keys are only these
        order = 0  # catalog position, so hits can be listed in order
        for cls, plist in patterns.items():
            for text in plist:
                tokens = _parse_pattern(text)
                prefix_lengths.update(len(tok[1]) for tok in tokens
                                      if tok is not _ANY and tok[0] == "prefix")
                if tokens:
                    node = self._trie
                    for tok in tokens:
                        node = node.edges.setdefault(tok, _TrieNode())
                    node.ends.append((order, cls, text))
                order += 1
        self._prefix_lengths = sorted(prefix_lengths)

    @classmethod
    def from_text(cls, text: str) -> "PatternCatalog":
        """Parse `[Label]` header lines, each followed by its patterns.

        A bracketed line is a header only when its inner text is a label,
        so patterns such as `[] []` can be written.
        """
        patterns: Dict[RefactoringType, List[str]] = {}
        current = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                try:
                    current = parse_label(line[1:-1])
                except UnknownLabel:
                    pass
                else:
                    patterns.setdefault(current, [])
                    continue
            if current is None:
                raise ValueError("pattern before any class header")
            patterns[current].append(line)
        return cls(patterns)


@lru_cache(maxsize=1)
def load_catalog() -> PatternCatalog:
    text = resources.files("refdoc.data").joinpath("pattern_catalog.txt") \
        .read_text("utf-8")
    return PatternCatalog.from_text(text)


def _edge_keys(word, prefix_lengths):
    """Every trie edge key that can match word: its word key, _ANY, and
    its prefixes of the lengths the catalog's prefixes have."""
    return [("word", word), _ANY] + [("prefix", word[:k])
                                     for k in prefix_lengths
                                     if k <= len(word)]


def match_patterns(message: str, catalog: PatternCatalog = None) -> Dict:
    """All catalog patterns matching the message, grouped by class.

    A pattern matches when its tokens match consecutive words. The trie
    is walked from every word position: each word steps the walks begun
    before it and starts one at the root. Hits are listed in catalog
    order.
    """
    if catalog is None:
        catalog = load_catalog()
    found = set()
    walks = []  # trie nodes reached by the walks still alive
    for word in _WORD_RE.findall(message.lower()):
        keys = _edge_keys(word, catalog._prefix_lengths)
        walks = [node.edges[key] for node in walks + [catalog._trie]
                 for key in keys if key in node.edges]
        for node in walks:
            found.update(node.ends)
    hits: Dict[RefactoringType, List[str]] = {}
    for _, cls, text in sorted(found):  # positions are distinct
        hits.setdefault(cls, []).append(text)
    return hits
