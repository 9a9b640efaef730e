import re

from hypothesis import given, settings
from hypothesis import strategies as st

from refdoc import textprep
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


def unguarded_strip(text):
    """strip_urls_and_emails with both regexes run on every text."""
    return textprep._EMAIL_RE.sub(" ", textprep._URL_RE.sub(" ", text))


# Runs of the characters the two regexes and their guards turn on, among
# ordinary words, so most drawn texts hold a URL, a "www." or an "@".
_URL_PIECES = st.sampled_from([
    "://", "www.", "wWw.", "WWW.", "ww.", "w.ww.", "@", " @ ", "a@b", "@@",
    "http", "HTTPS", "ftp+x", "mailto:", "x.y", " ", "\n", "\t", "rename",
    "Foo", "e", "9", "-", ".", "\u0130", "\u212a", "\u017f"])


@given(st.lists(st.one_of(_URL_PIECES, st.text(max_size=6)), max_size=30)
       .map("".join))
@settings(max_examples=500, deadline=None)
def test_url_and_email_guards_change_no_output(text):
    assert textprep.strip_urls_and_emails(text) == unguarded_strip(text)


def test_url_and_email_guards_on_edge_cases():
    for text in ["see wWw.example.org now", "WWW.X.Y", "a lone @ sign",
                 "@", "://", "x://", "HTTP://Host/p?q", "mail me@host.org",
                 "www.", "no links here", "", "ww w.a", "fix://@b"]:
        assert textprep.strip_urls_and_emails(text) == unguarded_strip(text)
    assert textprep.strip_urls_and_emails("see wWw.a.org") == "see  "
    assert textprep.strip_urls_and_emails("a lone @ sign") == "a lone @ sign"
