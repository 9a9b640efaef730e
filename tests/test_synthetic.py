from importlib import resources

from refdoc.baseline import load_rules
from refdoc.corpus import METHOD_TYPES, RefactoringType, load_corpus, save_corpus
from refdoc.synthetic import NONE_TEMPLATES, STEM_FORMS, generate_corpus
from refdoc.terms import _ANY, _parse_pattern, load_catalog, match_patterns


def test_generator_is_deterministic():
    a = generate_corpus(seed=4, per_class=10)
    b = generate_corpus(seed=4, per_class=10)
    assert [(r.id, r.message, r.label) for r in a] == \
        [(r.id, r.message, r.label) for r in b]


def test_generator_is_balanced():
    ds = generate_corpus(seed=0, per_class=17)
    assert ds.class_counts == {t: 17 for t in METHOD_TYPES}


def test_include_none_adds_a_seventh_class():
    ds = generate_corpus(seed=0, per_class=9, include_none=True)
    assert ds.class_counts[RefactoringType.NONE] == 9
    assert len(ds) == 63


def test_bundled_corpus_matches_generator_output(tmp_path):
    regenerated = tmp_path / "regen.jsonl"
    save_corpus(generate_corpus(seed=0, per_class=100), regenerated)
    bundled = resources.files("refdoc.data").joinpath(
        "synthetic_corpus.jsonl").read_text("utf-8")
    assert regenerated.read_text() == bundled


def test_bundled_corpus_loads_with_expected_shape():
    with resources.as_file(resources.files("refdoc.data")
                           .joinpath("synthetic_corpus.jsonl")) as path:
        ds = load_corpus(path)
    assert len(ds) == 600
    assert ds.class_counts == {t: 100 for t in METHOD_TYPES}


def test_stem_forms_cover_every_catalog_wildcard():
    catalog = load_catalog()
    for patterns in catalog.patterns.values():
        for pattern in patterns:
            for token in _parse_pattern(pattern):
                if token is not _ANY and token[0] == "prefix":
                    assert token[1] in STEM_FORMS, pattern


def test_cv_corpus_fingerprint_is_pinned():
    corpus = generate_corpus(seed=1, per_class=834)
    assert corpus.fingerprint() == (
        "cf610c70c94010786a431ff67261bb2ec3f7904e44743b18612e5f7420d611f2")


def test_corpus_with_none_class_fingerprint_is_pinned():
    corpus = generate_corpus(seed=2, per_class=60, include_none=True)
    assert corpus.fingerprint() == (
        "9091739e05061b5bc297ba4c053de4ea21529137384ff3d6ad43511e85edbc4d")


def test_messages_carry_a_matching_catalog_pattern():
    ds = generate_corpus(seed=6, per_class=30, noise_fraction=0.3)
    hit = 0
    for rec in ds:
        if rec.label in match_patterns(rec.message):
            hit += 1
    # wildcard completions are real inflections, so the source pattern
    # should still match its own instantiation almost always
    assert hit / len(ds) > 0.95


def test_none_templates_avoid_all_keyword_stems():
    stems = [r.stem for r in load_rules()]
    for template in NONE_TEMPLATES:
        lowered = template.lower()
        for stem in stems:
            assert stem not in lowered, (template, stem)
