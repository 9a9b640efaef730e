import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refdoc.corpus import (
    ALL_TYPES,
    METHOD_TYPES,
    CommitRecord,
    Dataset,
    RefactoringType,
    class_distribution,
    load_corpus,
    stratified_sample,
)
from refdoc.errors import DuplicateId, InsufficientClass, ParseError, UnknownLabel


def write_jsonl(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def make_rows(per_class):
    rows = []
    for label in METHOD_TYPES:
        for i in range(per_class):
            rows.append({"id": f"{label.value}-{i}", "project": "p",
                         "message": f"{label.value} message {i}",
                         "label": label.value})
    return rows


def test_enumeration_has_exactly_seven_members():
    assert len(RefactoringType) == 7
    assert len(ALL_TYPES) == 7
    assert RefactoringType.NONE in ALL_TYPES
    assert len(METHOD_TYPES) == 6


def test_load_balanced_corpus_histogram(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, make_rows(834))
    ds = load_corpus(path)
    assert len(ds) == 5004
    assert class_distribution(ds) == {t: 834 for t in METHOD_TYPES}


def test_load_preserves_record_order(tmp_path):
    path = tmp_path / "c.jsonl"
    rows = make_rows(2)
    write_jsonl(path, rows)
    ds = load_corpus(path)
    assert [r.id for r in ds] == [row["id"] for row in rows]


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ParseError, match="no records"):
        load_corpus(path)


def test_noncanonical_label_raises_unknown_label(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"id": "1", "project": "p", "message": "m", "label": "ExtractMethod"},
        {"id": "2", "project": "p", "message": "m", "label": "extractmethod"},
    ])
    with pytest.raises(UnknownLabel):
        load_corpus(path)


def test_duplicate_id_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [
        {"id": "1", "project": "p", "message": "a", "label": None},
        {"id": "1", "project": "p", "message": "b", "label": None},
    ])
    with pytest.raises(DuplicateId):
        load_corpus(path)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "1", "project": "p", "message": "m"}\nnot json\n')
    with pytest.raises(ParseError, match="line 2"):
        load_corpus(path)


def test_empty_message_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, [{"id": "1", "project": "p", "message": "", "label": None}])
    with pytest.raises(ParseError, match="message"):
        load_corpus(path)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        'id,project,message,label\n'
        '1,p,"hello, quoted",ExtractMethod\n'
        '2,p,plain,\n'
    )
    ds = load_corpus(path, format="csv")
    assert ds.records[0].message == "hello, quoted"
    assert ds.records[0].label is RefactoringType.EXTRACT_METHOD
    assert ds.records[1].label is None


def test_csv_bad_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(ParseError, match="header"):
        load_corpus(path, format="csv")


@pytest.mark.parametrize("fmt,raw", [
    ("jsonl", b'{"id": "1", "project": "p", "message": "caf\xe9"}\n'),
    ("csv", b"id,project,message,label\n1,p,caf\xe9,\n"),
])
def test_non_utf8_corpus_is_a_parse_error(tmp_path, fmt, raw):
    path = tmp_path / f"c.{fmt}"
    path.write_bytes(raw)  # Latin-1, not UTF-8
    with pytest.raises(ParseError, match="not UTF-8"):
        load_corpus(path, format=fmt)


@pytest.mark.parametrize("fmt,raw,error,match", [
    ("csv", b"id,project,message,label\n1,p," + b"a" * 200_000 + b",\n",
     ParseError, "line 2: invalid CSV"),
    ("jsonl", b'{"id": "1", "message": "m", "label": []}\n',
     UnknownLabel, "unknown label"),
    ("jsonl", b'{"id": "1", "message": "m", "label": {"a": 1}}\n',
     UnknownLabel, "unknown label"),
    ("jsonl", b'{"id": ' + b"9" * 5000 + b', "message": "m"}\n',
     ParseError, "line 1: invalid JSON"),
    ("jsonl", b'{"id": "1", "message": "caf\\ud800"}\n',
     ParseError, "line 1: lone surrogate"),
], ids=["csv-field-over-limit", "label-list", "label-object",
        "int-over-digit-limit", "lone-surrogate"])
def test_hostile_fields_are_refdoc_errors(tmp_path, fmt, raw, error, match):
    path = tmp_path / f"c.{fmt}"
    path.write_bytes(raw)
    with pytest.raises(error, match=match):
        load_corpus(path, format=fmt)


def test_stratified_sample_balances_and_is_deterministic(tmp_path):
    rows = []
    for label in METHOD_TYPES:
        n = 20 if label is RefactoringType.RENAME_METHOD else 12
        for i in range(n):
            rows.append({"id": f"{label.value}-{i}", "project": "p",
                         "message": "m", "label": label.value})
    path = tmp_path / "c.jsonl"
    write_jsonl(path, rows)
    ds = load_corpus(path)

    s1 = stratified_sample(ds, 10, seed=7)
    s2 = stratified_sample(ds, 10, seed=7)
    s3 = stratified_sample(ds, 10, seed=8)
    assert class_distribution(s1) == {t: 10 for t in METHOD_TYPES}
    assert [r.id for r in s1] == [r.id for r in s2]
    assert {r.id for r in s1} != {r.id for r in s3}


def test_stratified_sample_full_balanced_shape(tmp_path):
    path = tmp_path / "c.jsonl"
    write_jsonl(path, make_rows(900))
    ds = load_corpus(path)
    sample = stratified_sample(ds, 834, seed=0)
    assert len(sample) == 5004
    assert class_distribution(sample) == {t: 834 for t in METHOD_TYPES}


def test_stratified_sample_zero_per_class(synthetic_dataset):
    assert len(stratified_sample(synthetic_dataset, 0, seed=0)) == 0


def test_stratified_sample_insufficient_class(synthetic_dataset):
    with pytest.raises(InsufficientClass):
        stratified_sample(synthetic_dataset, 101, seed=0)


def test_class_distribution_counts_sum_to_labeled_records():
    records = [
        CommitRecord("1", "p", "m", RefactoringType.EXTRACT_METHOD),
        CommitRecord("2", "p", "m", RefactoringType.EXTRACT_METHOD),
        CommitRecord("3", "p", "m", RefactoringType.EXTRACT_METHOD),
        CommitRecord("4", "p", "m", RefactoringType.RENAME_METHOD),
        CommitRecord("5", "p", "m", None),
    ]
    ds = Dataset(records)
    dist = class_distribution(ds)
    assert dist == {RefactoringType.EXTRACT_METHOD: 3,
                    RefactoringType.RENAME_METHOD: 1}
    assert sum(dist.values()) == sum(1 for r in ds if r.label is not None)


def test_class_distribution_empty():
    assert class_distribution(Dataset([CommitRecord("1", "p", "m")])) == {}


@given(st.lists(st.sampled_from(range(6)), min_size=6, max_size=60),
       st.integers(min_value=0, max_value=2 ** 31),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=80, deadline=None)
def test_stratified_sample_properties(class_picks, seed, per_class):
    records = [CommitRecord(f"r{i}", "p", "m", METHOD_TYPES[k])
               for i, k in enumerate(class_picks)]
    ds = Dataset(records)
    floor = min(ds.class_counts.values())
    if per_class > floor:
        with pytest.raises(InsufficientClass):
            stratified_sample(ds, per_class, seed)
        return
    sample = stratified_sample(ds, per_class, seed)
    # uniform histogram over the classes present in the input
    assert class_distribution(sample) == \
        ({cls: per_class for cls in ds.class_counts} if per_class else {})
    # pure function of (content, per_class, seed)
    again = stratified_sample(ds, per_class, seed)
    assert [r.id for r in sample] == [r.id for r in again]
