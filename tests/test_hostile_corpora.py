"""Mutated corpora end in a dataset or a clean error, never a traceback.

Lines of the bundled JSONL corpus, and of a small CSV corpus made from
the same records, are truncated, cut with bytes that are not UTF-8, given
fields of the wrong type, huge fields or another line's id, dropped or
repeated. Each mutated file goes through load_corpus, which must return a
Dataset or raise a RefdocError, and through `refdoc ingest`, `train`,
`evaluate` and `baseline --corpus`, which must exit with 0 or 2 within a
time bound.
"""

import contextlib
import csv
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import refdoc
from refdoc.cli import main as cli_main
from refdoc.corpus import load_corpus
from refdoc.errors import RefdocError

BUNDLED = Path(refdoc.__file__).resolve().parent / "data" / \
    "synthetic_corpus.jsonl"
# Every 20th record: 5 of each of the 6 classes, which the file groups.
RECORDS = [json.loads(line) for line in
           BUNDLED.read_bytes().splitlines()[::20]]
FIELDS = ("id", "project", "message", "label")
SECONDS = 20.0
HUGE = 200_000  # characters; over the csv module's 131,072 field limit

# Bytes stand for raw JSON literals that json.dumps would not write.
WRONG_VALUES = [0, 1, -1, 1.5, 1e308, True, False, None, [], ["x"], {},
                {"a": 1}, "", " ", "ExtractMethod", "none", "\u0000",
                b"9" * 5000, b"-1e999", b"NaN", b"[" * 3000 + b"]" * 3000]
# Byte runs that are not UTF-8, and text that JSON or CSV treat specially.
BAD_BYTES = [b"\xff", b"\xfe\xff", b"\xc3", b"\xed\xa0\x80", b"\x80",
             b"\xf4\x90\x80\x80", b"\x00", b"\r", b"\n", b"\"", b",",
             b"\\", b"\\ud800", b"\\u0000", b"{", b"[", b"\xef\xbb\xbf",
             b"9" * 5000, b"[" * 5000, b"NaN", b"1e999"]


def jsonl_lines():
    return [json.dumps(r, sort_keys=True).encode() for r in RECORDS]


def csv_lines():
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIELDS)
    writer.writerows([[r[f] for f in FIELDS] for r in RECORDS])
    return [line.encode() for line in out.getvalue().splitlines()]


def set_field(line, fmt, field, value):
    """line with one field replaced; a line that does not parse as the
    format is returned unchanged."""
    if fmt == "jsonl":
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            return line
        if not isinstance(obj, dict):
            return line
        if not isinstance(value, bytes):
            obj[field] = value
            return json.dumps(obj).encode()
        obj[field] = "\0"
        return json.dumps(obj).encode().replace(b'"\\u0000"', value)
    try:
        row = next(csv.reader([line.decode()]))
    except (ValueError, csv.Error, StopIteration):
        return line
    if len(row) != len(FIELDS):
        return line
    if isinstance(value, bytes):
        value = value.decode()
    row[FIELDS.index(field)] = "" if value is None else str(value)
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(row)
    return out.getvalue().encode()


def get_field(line, fmt, field):
    try:
        if fmt == "jsonl":
            return json.loads(line).get(field)
        return next(csv.reader([line.decode()]))[FIELDS.index(field)]
    except (ValueError, RecursionError, csv.Error, StopIteration,
            AttributeError, IndexError):
        return None


@st.composite
def mutation(draw, fmt, n_lines):
    """One mutation: (kind, its arguments)."""
    i = draw(st.integers(0, n_lines - 1))
    kind = draw(st.sampled_from(["truncate", "bytes", "wrong type", "huge",
                                 "duplicate id", "drop", "repeat"]))
    # values are drawn by position, so a failing case prints short
    if kind == "truncate" or kind == "bytes":
        return kind, i, draw(st.integers(0, 400)), draw(
            st.integers(0, len(BAD_BYTES) - 1))
    if kind == "wrong type":
        return kind, i, draw(st.sampled_from(FIELDS)), draw(
            st.integers(0, len(WRONG_VALUES) - 1))
    if kind == "huge":
        return kind, i, draw(st.sampled_from(FIELDS)), None
    return kind, i, draw(st.integers(0, n_lines - 1)), None


def apply(lines, fmt, kind, i, arg, extra):
    lines = list(lines)
    i %= len(lines)
    line = lines[i]
    if kind == "truncate":
        lines[i] = line[:arg % (len(line) + 1)]
    elif kind == "bytes":
        at = arg % (len(line) + 1)
        lines[i] = line[:at] + BAD_BYTES[extra] + line[at:]
    elif kind == "wrong type":
        lines[i] = set_field(line, fmt, arg, WRONG_VALUES[extra])
    elif kind == "huge":
        lines[i] = set_field(line, fmt, arg, "rename method " * (HUGE // 14))
    elif kind == "duplicate id":
        lines[i] = set_field(line, fmt, "id",
                             get_field(lines[arg % len(lines)], fmt, "id"))
    elif kind == "drop" and len(lines) > 1:
        del lines[i]
    elif kind == "repeat":
        lines.insert(arg % len(lines), line)
    return lines


@st.composite
def corpora(draw):
    """(format, mutations, line end, algorithm) of a mutated corpus: the
    recipe rather than the bytes, so a failing case prints short."""
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    n_lines = len(RECORDS) + (fmt == "csv")
    mutations = draw(st.lists(mutation(fmt, n_lines), min_size=1,
                              max_size=4))
    return (fmt, mutations, draw(st.sampled_from([b"\n", b"\r\n"])),
            draw(st.sampled_from(["nb", "logreg"])))


def corpus_bytes(fmt, mutations, newline):
    lines = jsonl_lines() if fmt == "jsonl" else csv_lines()
    for m in mutations:
        lines = apply(lines, fmt, *m)
    return newline.join(lines) + newline


def run_cli(argv):
    """(exit code, stderr) of refdoc in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue()


def check_corpus(fmt, data, algo):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"corpus.{fmt}"
        path.write_bytes(data)
        start = time.perf_counter()
        try:
            load_corpus(path, fmt)
            loaded = True
        except RefdocError:
            loaded = False
        ingest, ingest_err = run_cli(["ingest", str(path), "--format", fmt])
        train, train_err = run_cli(["train", str(path), "--format", fmt,
                                    "--algo", algo,
                                    "--out", str(Path(tmp) / "model.json")])
        evaluate, evaluate_err = run_cli(["evaluate", str(path), "--format",
                                          fmt, "--folds", "2", "--algo", "nb"])
        baseline, baseline_err = run_cli(["baseline", "--corpus", str(path),
                                          "--format", fmt])
        elapsed = time.perf_counter() - start
    assert ingest == (0 if loaded else 2), ingest_err
    assert baseline == (0 if loaded else 2), baseline_err
    for code, err in ((train, train_err), (evaluate, evaluate_err)):
        assert code in (0, 2), err
        assert code == 2 or loaded
    assert "Traceback" not in "".join((ingest_err, train_err, evaluate_err,
                                       baseline_err))
    assert elapsed < SECONDS
    return ingest, train, evaluate, baseline


def test_the_unmutated_corpora_train():
    for fmt, lines in (("jsonl", jsonl_lines()), ("csv", csv_lines())):
        assert check_corpus(fmt, b"\n".join(lines) + b"\n", "nb") == (
            0, 0, 0, 0)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"corpus.{fmt}"
            path.write_bytes(b"\n".join(lines) + b"\n")
            assert len(load_corpus(path, fmt)) == len(RECORDS)


@given(corpora())
@settings(max_examples=300, deadline=None)
def test_mutated_corpora_load_or_fail_cleanly(case):
    fmt, mutations, newline, algo = case
    check_corpus(fmt, corpus_bytes(fmt, mutations, newline), algo)
