"""The five-step commit-message cleaning pipeline.

Order: strip URLs and email addresses, expand contractions and lowercase,
tokenize, drop digit-bearing and single-character tokens, lemmatize, and
drop stop words. Every operation is a pure function; the stop-word list and
the lemma exception dictionary are bundled data files, never fetched at
runtime.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

VOWELS = frozenset("aeiou")

_URL_RE = re.compile(r"\b[a-z][a-z0-9+.-]*://\S+|\bwww\.\S+", re.IGNORECASE)
_EMAIL_RE = re.compile(r"\S+@\S+")
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")
_DIGIT_RE = re.compile(r"[0-9]")

# Contraction expansion runs on lowercased text, special forms first.
_SPECIAL_CONTRACTIONS = [
    (re.compile(r"\bwon't\b"), "will not"),
    (re.compile(r"\bcan't\b"), "can not"),
    (re.compile(r"\bshan't\b"), "shall not"),
    (re.compile(r"\bain't\b"), "is not"),
    (re.compile(r"\blet's\b"), "let us"),
]
_GENERIC_CONTRACTIONS = [
    (re.compile(r"n't\b"), " not"),
    (re.compile(r"'re\b"), " are"),
    (re.compile(r"'ve\b"), " have"),
    (re.compile(r"'ll\b"), " will"),
    (re.compile(r"'d\b"), " would"),
    (re.compile(r"'m\b"), " am"),
    (re.compile(r"'s\b"), " is"),
]


def _data_text(name):
    return resources.files("refdoc.data").joinpath(name).read_text("utf-8")


@lru_cache(maxsize=1)
def load_stopwords() -> frozenset:
    """The bundled stop-word list as a frozenset of lowercase words."""
    words = frozenset(
        line.strip() for line in _data_text("stopwords.txt").splitlines()
        if line.strip()
    )
    return words


@lru_cache(maxsize=1)
def load_lemma_dict() -> dict:
    """The bundled inflected->lemma exception dictionary."""
    table = {}
    for line in _data_text("lemmas.tsv").splitlines():
        if not line.strip():
            continue
        inflected, lemma = line.split("\t")
        table[inflected] = lemma
    return table


def strip_urls_and_emails(text: str) -> str:
    text = _URL_RE.sub(" ", text)
    return _EMAIL_RE.sub(" ", text)


def expand_contractions(text: str) -> str:
    """Expand verb contractions in lowercased text (don't -> do not)."""
    text = text.replace("\u2019", "'")
    for pattern, repl in _SPECIAL_CONTRACTIONS:
        text = pattern.sub(repl, text)
    for pattern, repl in _GENERIC_CONTRACTIONS:
        text = pattern.sub(repl, text)
    return text


def tokenize(text: str) -> list:
    """Split on whitespace and every non-alphanumeric character.

    Never emits empty tokens; order is preserved. "package-level" becomes
    ["package", "level"].
    """
    return _TOKEN_RE.findall(text)


def _ends_cvc(stem: str) -> bool:
    if len(stem) < 3:
        return False
    a, b, c = stem[-3], stem[-2], stem[-1]
    return a not in VOWELS and b in VOWELS and c not in VOWELS and c not in "wxy"


def _restore_stem(stem: str) -> str:
    """Undo the orthographic changes -ing/-ed inflection applies to a stem."""
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] in "bdgmnprt":
        return stem[:-1]  # stopp -> stop; ll/ss/ff/zz stay (pull, pass)
    if stem.endswith(("v", "u", "c")):
        return stem + "e"  # mov -> move, continu -> continue, produc -> produce
    if stem.endswith("g") and len(stem) >= 2 and stem[-2] in VOWELS | {"r", "l"}:
        return stem + "e"  # manag -> manage, merg -> merge; belong stays
    if stem.endswith("l") and len(stem) >= 2 and stem[-2] not in VOWELS:
        return stem + "e"  # handl -> handle
    if _ends_cvc(stem) and len(stem) >= 4:
        return stem + "e"  # renam -> rename, stor -> store
    return stem


def lemmatize(token: str) -> str:
    """Reduce a lowercase alphabetic token to its base form.

    The bundled exception dictionary wins; otherwise ordered suffix rules
    run (plural endings first, then -ing and -ed with e-restoration). The
    result is always non-empty.
    """
    table = load_lemma_dict()
    hit = table.get(token)
    if hit is not None:
        return hit
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 5 and token.endswith("sses"):
        return token[:-2]
    if len(token) > 4 and token.endswith(("xes", "zes", "ches", "shes")):
        return token[:-2]
    if len(token) > 3 and token.endswith("es"):
        return table.get(token[:-1], token[:-1])
    if len(token) > 3 and token.endswith("s") and not token.endswith(("ss", "us", "is")):
        return table.get(token[:-1], token[:-1])
    if len(token) > 5 and token.endswith("ing"):
        return _restore_stem(token[:-3])
    if len(token) > 4 and token.endswith("ed"):
        return _restore_stem(token[:-2])
    return token


def preprocess(message: str) -> list:
    """Run the full cleaning pipeline on one raw commit message.

    Returns lowercase lemma tokens with digits, short tokens, and stop words
    removed. A message that reduces to nothing yields an empty list.
    """
    stops = load_stopwords()
    text = strip_urls_and_emails(message)
    text = expand_contractions(text.lower())
    out = []
    for token in tokenize(text):
        if len(token) < 2 or _DIGIT_RE.search(token):
            continue
        lemma = lemmatize(token)
        if lemma in stops:
            continue
        out.append(lemma)
    return out
