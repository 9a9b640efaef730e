import time
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refdoc import textprep
from refdoc.corpus import CommitRecord, Dataset, METHOD_TYPES, parse_label
from refdoc.corpus import RefactoringType as RT
from refdoc.errors import InsufficientClass
from refdoc.terms import (
    _ANY,
    _WORD_RE,
    PatternCatalog,
    _parse_pattern,
    frequent_ngrams,
    load_catalog,
    match_patterns,
)


def _reference_match_at(words, start, tokens) -> bool:
    if start + len(tokens) > len(words):
        return False
    for offset, tok in enumerate(tokens):
        word = words[start + offset]
        if tok is _ANY:
            continue
        kind, value = tok
        if kind == "word":
            if word != value:
                return False
        elif not word.startswith(value):
            return False
    return True


def reference_match_patterns(message, catalog):
    """match_patterns as it was before the trie: every pattern is tried at
    every word position, verbatim but for compiling the catalog here."""
    compiled_catalog = {cls: [(p, _parse_pattern(p)) for p in plist]
                        for cls, plist in catalog.patterns.items()}
    words = _WORD_RE.findall(message.lower())
    hits = {}
    for cls, compiled in compiled_catalog.items():
        for text, tokens in compiled:
            if not tokens:
                continue
            if any(_reference_match_at(words, i, tokens)
                   for i in range(len(words) - len(tokens) + 1)):
                hits.setdefault(cls, []).append(text)
    return hits


def assert_same_hits(message, catalog):
    got = match_patterns(message, catalog)
    want = reference_match_patterns(message, catalog)
    # equal as ordered structures: class order, then hit order
    assert list(got.items()) == list(want.items()), message


def test_catalog_covers_all_six_classes():
    catalog = load_catalog()
    assert set(catalog.patterns) == set(METHOD_TYPES)
    for cls, patterns in catalog.patterns.items():
        assert patterns, cls


def test_catalog_class_sizes():
    catalog = load_catalog()
    sizes = {cls.value: len(pats) for cls, pats in catalog.patterns.items()}
    assert sizes == {"RenameMethod": 64, "ExtractMethod": 50,
                     "MoveMethod": 37, "InlineMethod": 24,
                     "PullUpMethod": 27, "PushDownMethod": 22}


def test_changed_method_name_matches_rename():
    hits = match_patterns("changed method name for clarity")
    assert RT.RENAME_METHOD in hits
    assert "chang* method name for clarity" in hits[RT.RENAME_METHOD]


def test_pulled_up_some_methods_matches_pull_up():
    hits = match_patterns("pulled up some methods")
    assert "pull* up some methods" in hits[RT.PULL_UP_METHOD]


def test_empty_message_matches_nothing():
    assert match_patterns("") == {}


def test_star_is_a_suffix_wildcard():
    hits = match_patterns("renaming method")
    assert "renam* method" in hits[RT.RENAME_METHOD]
    assert not match_patterns("renxme method")


def test_bracket_matches_exactly_one_word():
    hits = match_patterns("split the parser method into a helper")
    assert "split* the [] method into a []" in hits[RT.EXTRACT_METHOD]
    assert "split* the [] method into a []" not in \
        match_patterns("split the method into a").get(RT.EXTRACT_METHOD, [])


def test_every_catalog_pattern_matches_its_own_instantiation():
    catalog = load_catalog()
    for cls, patterns in catalog.patterns.items():
        for pattern in patterns:
            words = []
            for raw in pattern.split():
                if raw == "[]":
                    words.append("x")
                    continue
                for piece in raw.lower().replace("*", "x ").split():
                    words.append(piece)
            literal = " ".join(words)
            hits = match_patterns(literal, catalog)
            assert pattern in hits.get(cls, []), (pattern, literal)


def make_term_dataset():
    rows = [
        ("1", "rename method for clarity", RT.RENAME_METHOD),
        ("2", "rename method again", RT.RENAME_METHOD),
        ("3", "rename method everywhere", RT.RENAME_METHOD),
        ("4", "moved code", RT.MOVE_METHOD),
        ("5", "moved more code", RT.MOVE_METHOD),
    ]
    return Dataset(CommitRecord(i, "p", m, lab) for i, m, lab in rows)


def test_frequent_bigram_counts_documents():
    table = frequent_ngrams(make_term_dataset(), RT.RENAME_METHOD, n=2, top_k=5)
    assert table.rows[0] == (("rename", "method"), 3)


def test_frequent_ngrams_top_zero_is_empty():
    table = frequent_ngrams(make_term_dataset(), RT.RENAME_METHOD, n=2, top_k=0)
    assert table.rows == ()


def test_frequent_ngrams_absent_class():
    with pytest.raises(InsufficientClass):
        frequent_ngrams(make_term_dataset(), RT.INLINE_METHOD, n=2, top_k=5)


def test_frequent_ngrams_matches_brute_force_tally(synthetic_dataset):
    table = frequent_ngrams(synthetic_dataset, RT.RENAME_METHOD, n=2, top_k=5)
    tally = {}
    for rec in synthetic_dataset:
        if rec.label is not RT.RENAME_METHOD:
            continue
        tokens = textprep.preprocess(rec.message)
        grams = set(zip(tokens, tokens[1:]))
        for gram in grams:
            tally[gram] = tally.get(gram, 0) + 1
    expected = sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(table.rows) == expected


def test_document_frequency_never_exceeds_class_size(synthetic_dataset):
    class_size = sum(1 for r in synthetic_dataset
                     if r.label is RT.MOVE_METHOD)
    table = frequent_ngrams(synthetic_dataset, RT.MOVE_METHOD, n=3, top_k=50)
    assert all(1 <= freq <= class_size for _, freq in table.rows)


def test_catalog_is_user_extensible():
    catalog = PatternCatalog.from_text(
        "[RenameMethod]\nrebrand* the [] method\n")
    hits = match_patterns("rebranded the parser method", catalog)
    assert hits == {RT.RENAME_METHOD: ["rebrand* the [] method"]}


def test_bracketed_patterns_are_not_read_as_headers():
    catalog = PatternCatalog.from_text(
        "[MoveMethod]\n[] []\n[] method into a []\n")
    assert catalog.patterns == {
        RT.MOVE_METHOD: ["[] []", "[] method into a []"]}
    hits = match_patterns("moved method into a helper", catalog)
    assert sorted(hits[RT.MOVE_METHOD]) == ["[] []", "[] method into a []"]
    assert match_patterns("moved it", catalog) == {RT.MOVE_METHOD: ["[] []"]}


def test_bundled_catalog_headers_are_its_bracketed_lines():
    """Every bracketed line of the bundled catalog is a class header, so
    the label check leaves its parse as it was."""
    text = resources.files("refdoc.data").joinpath(
        "pattern_catalog.txt").read_text("utf-8")
    expected, current = {}, None
    for line in map(str.strip, text.splitlines()):
        if line.startswith("[") and line.endswith("]"):
            current = expected.setdefault(parse_label(line[1:-1]), [])
        elif line:
            current.append(line)
    assert load_catalog().patterns == expected


def _catalog_words(catalog):
    """Every literal word and prefix in the catalog's patterns."""
    words, prefixes = set(), set()
    for plist in catalog.patterns.values():
        for text in plist:
            for tok in _parse_pattern(text):
                if tok is not _ANY:
                    (words if tok[0] == "word" else prefixes).add(tok[1])
    return sorted(words), sorted(prefixes)


_WORDS, _PREFIXES = _catalog_words(load_catalog())
_catalog_word = st.one_of(
    st.sampled_from(_WORDS),
    st.builds(lambda p, end: p + end, st.sampled_from(_PREFIXES),
              st.sampled_from(["", "e", "ed", "ing", "s", "x1"])),
    st.text(alphabet="abcdemnorstu019", min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(_catalog_word, max_size=30),
       st.sampled_from([" ", ", ", " - ", "\n"]))
def test_trie_matches_the_full_scan_on_catalog_text(words, sep):
    assert_same_hits(sep.join(words), load_catalog())


def test_trie_matches_the_full_scan_on_every_corpus_message(
        synthetic_dataset):
    catalog = load_catalog()
    for rec in synthetic_dataset:
        assert_same_hits(rec.message, catalog)


EDGE_CATALOG = PatternCatalog.from_text("""
[RenameMethod]
[] method name
*
renam* [] []
---
renam* the method
[ExtractMethod]
renam* the method
extract* [] method
[] [] to
[MoveMethod]
mov* * to
""")


@pytest.mark.parametrize("message", [
    "", "x", "method name", "renamed the method", "rename the method",
    "extracting a method", "moved it to", "moved the method to a class",
    "a b", "!!! ---", "method", "renam x y z the method",
    "renam" + "e" * 60 + " the method",
])
def test_trie_matches_the_full_scan_on_edge_patterns(message):
    assert_same_hits(message, EDGE_CATALOG)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["renamed", "the", "method", "name",
                                 "extract", "moved", "to", "x", "---"]),
                max_size=12))
def test_trie_matches_the_full_scan_on_edge_catalog_text(words):
    assert_same_hits(" ".join(words), EDGE_CATALOG)


@pytest.mark.parametrize("body", [
    " ".join(f"q{i % 97}z" for i in range(20000))[:60 * 1024],
    " ".join(["move"] * 15000)[:60 * 1024],
    (" moved the parser method to the helper class and renamed it" * 1200)
    [:60 * 1024],
    "renam" + "e" * (60 * 1024 - 5),
], ids=["short-words", "move-repeated", "commit-text", "one-word"])
def test_sixty_kib_message_is_matched_quickly(body):
    load_catalog()
    start = time.perf_counter()
    match_patterns(body)
    assert time.perf_counter() - start < 0.5
