import re

from hypothesis import given, settings
from hypothesis import strategies as st

from refdoc.textprep import (
    expand_contractions,
    lemmatize,
    load_lemma_dict,
    load_stopwords,
    preprocess,
    tokenize,
)


def test_tokenize_splits_special_characters():
    assert tokenize("package-level") == ["package", "level"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_commit_reference():
    assert tokenize("fcrepo-1029: move purge code") == \
        ["fcrepo", "1029", "move", "purge", "code"]


def test_lemmatize_matches_bundled_dictionary():
    table = load_lemma_dict()
    assert table["renamed"] == "rename"
    assert lemmatize("renamed") == "rename"
    assert lemmatize("classes") == "class"


def test_lemmatize_fixed_point_on_base_form():
    assert lemmatize("move") == "move"


def test_lemmatize_suffix_rules():
    assert lemmatize("dependencies") == "dependency"
    assert lemmatize("patches") == "patch"
    assert lemmatize("methods") == "method"
    assert lemmatize("getter") == "getter"


def test_stopword_list_contains_required_words():
    stops = load_stopwords()
    assert {"is", "are", "if", "the", "a", "to", "and", "see"} <= stops


def test_preprocess_rename_example():
    assert preprocess("Renamed getter for better readability") == \
        ["rename", "getter", "better", "readability"]


def test_preprocess_strips_urls_and_digit_tokens():
    assert preprocess("see https://x.y/z v2.0") == []


def test_preprocess_expands_contractions():
    assert preprocess("don't move it") == ["move"]


def test_preprocess_strips_emails():
    assert preprocess("reviewed by dev@example.com later") == \
        ["review", "later"]


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_preprocess_output_invariants(text):
    stops = load_stopwords()
    for token in preprocess(text):
        assert token, "no empty tokens"
        assert re.fullmatch(r"[a-z]+", token), token
        assert token not in stops


@given(st.text(max_size=200))
@settings(max_examples=100, deadline=None)
def test_preprocess_idempotent_on_token_sets(text):
    once = preprocess(text)
    twice = preprocess(" ".join(once))
    assert set(twice) == set(once)


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_tokenize_emits_substrings_only(text):
    tokens = tokenize(text)
    assert all(tokens)
    chars = set(text)
    assert all(set(tok) <= chars for tok in tokens)


def test_expand_contractions_table():
    assert expand_contractions("won't") == "will not"
    assert expand_contractions("it's broken") == "it is broken"
    assert expand_contractions("we've moved") == "we have moved"
    assert expand_contractions("don\u2019t") == "do not"
    assert expand_contractions("no apostrophe here") == "no apostrophe here"
