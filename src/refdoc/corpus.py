"""Load, validate, and stratify labeled commit-message datasets.

A dataset is an ordered, immutable collection of commit records. Records may
carry a refactoring-type label (training corpora) or none (prediction
corpora); operations that need labels reject unlabeled records explicitly.
"""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import DuplicateId, InsufficientClass, ParseError, UnknownLabel

# Named PRNG used for every sampling decision in the package; recorded in
# report and model metadata for reproducibility.
PRNG_NAME = "pcg64"


class RefactoringType(enum.Enum):
    EXTRACT_METHOD = "ExtractMethod"
    INLINE_METHOD = "InlineMethod"
    MOVE_METHOD = "MoveMethod"
    NONE = "None"
    PULL_UP_METHOD = "PullUpMethod"
    PUSH_DOWN_METHOD = "PushDownMethod"
    RENAME_METHOD = "RenameMethod"

    def __str__(self):
        return self.value


#: All seven members, alphabetical by canonical name (the class_order rule).
ALL_TYPES = tuple(sorted(RefactoringType, key=lambda t: t.value))

#: The six method-level refactoring types, i.e. everything except None.
METHOD_TYPES = tuple(t for t in ALL_TYPES if t is not RefactoringType.NONE)


def present_types(labels) -> tuple:
    """The types among labels, once each, in canonical (alphabetical) order."""
    present = set(labels)
    return tuple(t for t in ALL_TYPES if t in present)


_BY_NAME = {t.value: t for t in RefactoringType}


def parse_label(name: str) -> RefactoringType:
    """Map a canonical label string to its enum member.

    Raises UnknownLabel for anything outside the seven canonical names.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownLabel(f"unknown label {name!r}") from None


@dataclass(frozen=True)
class CommitRecord:
    id: str
    project: str
    message: str
    label: Optional[RefactoringType] = None


class Dataset:
    """Immutable ordered collection of commit records."""

    def __init__(self, records: Iterable[CommitRecord]):
        self.records = tuple(records)
        seen = set()
        for rec in self.records:
            if not rec.id:
                raise ParseError("record with empty id")
            if not rec.message:
                raise ParseError(f"record {rec.id!r} has an empty message")
            if rec.id in seen:
                raise DuplicateId(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)
        counts = {}
        for rec in self.records:
            if rec.label is not None:
                counts[rec.label] = counts.get(rec.label, 0) + 1
        self.class_counts = counts

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def classes(self):
        """Classes present, in canonical (alphabetical) order."""
        return present_types(self.class_counts)

    def fingerprint(self) -> str:
        """SHA-256 over the ordered record contents, for model metadata."""
        import hashlib

        h = hashlib.sha256()
        for rec in self.records:
            label = rec.label.value if rec.label is not None else ""
            h.update(
                "\x1f".join((rec.id, rec.project, rec.message, label)).encode()
            )
            h.update(b"\n")
        return h.hexdigest()


def _record_from_fields(id_, project, message, label, line):
    if label in (None, ""):
        parsed = None
    else:
        parsed = parse_label(label)
    if not id_:
        raise ParseError("empty id", line=line)
    if not message:
        raise ParseError("empty message", line=line)
    return CommitRecord(id=id_, project=project or "", message=message,
                        label=parsed)


def _load_jsonl(path: Path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from None
            except RecursionError:
                raise ParseError("JSON nested too deeply", line=lineno) from None
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", line=lineno)
            records.append(_record_from_fields(
                str(obj.get("id") or ""), str(obj.get("project") or ""),
                str(obj.get("message") or ""), obj.get("label"), lineno,
            ))
    return records


def _load_csv(path: Path):
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("no records") from None
        if [h.strip().lower() for h in header] != ["id", "project", "message", "label"]:
            raise ParseError("expected header id,project,message,label", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno)
            records.append(_record_from_fields(row[0], row[1], row[2],
                                               row[3], lineno))
    return records


def load_corpus(path, format: str = "jsonl") -> Dataset:
    """Read a JSONL or CSV commit corpus into a Dataset.

    Record order is preserved from the file. Raises ParseError on malformed
    rows (with line number) and on files containing no records, UnknownLabel
    on a label string outside the enumeration, DuplicateId on repeated ids.
    """
    path = Path(path)
    if format == "jsonl":
        records = _load_jsonl(path)
    elif format == "csv":
        records = _load_csv(path)
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    if not records:
        raise ParseError("no records")
    return Dataset(records)


def save_corpus(dataset: Dataset, path) -> None:
    """Write a dataset back out as JSONL (one object per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in dataset:
            fh.write(json.dumps({
                "id": rec.id,
                "project": rec.project,
                "message": rec.message,
                "label": rec.label.value if rec.label is not None else None,
            }, sort_keys=True) + "\n")


def class_distribution(dataset: Dataset) -> dict:
    """Histogram of labels over the labeled records."""
    return dict(dataset.class_counts)


def stratified_sample(dataset: Dataset, per_class: int, seed: int) -> Dataset:
    """Draw exactly per_class records of every class present in the dataset.

    Selection is a pure function of (dataset content, per_class, seed); the
    chosen records keep their original file order. Raises InsufficientClass
    when any present class has fewer than per_class labeled records.
    """
    if per_class < 0:
        raise ValueError("per_class must be nonnegative")
    rng = np.random.default_rng(seed)
    by_class = {}
    for pos, rec in enumerate(dataset):
        if rec.label is not None:
            by_class.setdefault(rec.label, []).append(pos)
    chosen = []
    for label in ALL_TYPES:
        if label not in by_class:
            continue
        positions = by_class[label]
        if len(positions) < per_class:
            raise InsufficientClass(label.value, len(positions), per_class)
        order = rng.permutation(len(positions))[:per_class]
        chosen.extend(positions[i] for i in order)
    chosen.sort()
    return Dataset(dataset.records[i] for i in chosen)
