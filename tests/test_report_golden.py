"""Cross-validation and inconsistency reports are pinned byte for byte by
committed sha256 digests.

tests/data/report_golden.json holds the sha256 of the file that
`refdoc evaluate --json` writes for nb and for rf on the bundled corpus
at their defaults, and of the inconsistency report JSON of the
None-capable nb model (the `none_model` fixture) over its own corpus. A
change to featurization, training or prediction that moves one bit of a
CV prediction or of an inconsistency case fails here.

Regenerate the file (only when a change of output is intended) with
    PYTHONPATH=src python tests/test_report_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

import refdoc
from refdoc import inconsistency, pipeline, workers
from refdoc.classifiers import ModelConfig
from refdoc.cli import main as cli_main
from refdoc.synthetic import generate_corpus

GOLDEN = Path(__file__).resolve().parent / "data" / "report_golden.json"
BUNDLED = Path(refdoc.__file__).resolve().parent / "data" / \
    "synthetic_corpus.jsonl"
EVALUATED = ("nb", "rf")


def evaluate_digest(algo, out):
    """sha256 of the JSON report `refdoc evaluate --json` writes."""
    assert cli_main(["evaluate", str(BUNDLED), "--algo", algo,
                     "--json", str(out)]) == 0
    return hashlib.sha256(Path(out).read_bytes()).hexdigest()


def inconsistency_digest(dataset, model):
    report = inconsistency.inconsistency_report(dataset, model)
    return hashlib.sha256(
        inconsistency.report_to_json(report).encode()).hexdigest()


@pytest.mark.parametrize("algo", EVALUATED)
def test_evaluate_json_matches_golden_digest(algo, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    got = evaluate_digest(algo, tmp_path / f"{algo}.json")
    assert got == golden[f"evaluate-{algo}"], f"{algo} CV report changed"


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("algo", EVALUATED)
def test_evaluate_json_matches_golden_digest_at_every_worker_count(
        algo, cpus, tmp_path, capsys, monkeypatch, forked_pids):
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    golden = json.loads(GOLDEN.read_text())
    got = evaluate_digest(algo, tmp_path / f"{algo}.json")
    assert len(forked_pids) == cpus - 1
    assert got == golden[f"evaluate-{algo}"], f"{algo} CV report changed"


def test_inconsistency_report_matches_golden_digest(none_dataset, none_model):
    golden = json.loads(GOLDEN.read_text())
    assert inconsistency_digest(none_dataset, none_model) == \
        golden["inconsistency-nb"]


if __name__ == "__main__":
    none_dataset = generate_corpus(seed=2, per_class=60, include_none=True)
    none_model = pipeline.fit(none_dataset,
                              ModelConfig(algorithm="nb", include_none=True))
    with tempfile.TemporaryDirectory() as tmp:
        table = {f"evaluate-{a}": evaluate_digest(a, Path(tmp) / f"{a}.json")
                 for a in EVALUATED}
    table["inconsistency-nb"] = inconsistency_digest(none_dataset, none_model)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
