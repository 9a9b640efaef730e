"""Model files are pinned byte for byte by committed sha256 digests.

For each of the four algorithms trained on the bundled corpus at its
defaults, tests/data/model_golden.json holds the sha256 of the model file
that `refdoc train` writes: save_model with the dataset fingerprint, at
SOURCE_DATE_EPOCH=1700000000. A change to training that moves one bit of
a learned array, or to the file format, fails here. The gbt, logreg and rf
digests must hold whether their fits run in 1, 2 or 3 worker processes,
and every such file must load.

Regenerate the file (only when a change of output is intended) with
    PYTHONPATH=src python tests/test_model_golden.py
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from refdoc import model_io, pipeline, workers
from refdoc.classifiers import ALGORITHMS, ModelConfig
from refdoc.synthetic import generate_corpus

GOLDEN = Path(__file__).resolve().parent / "data" / "model_golden.json"
SOURCE_DATE_EPOCH = "1700000000"


def file_digest(model, dataset, path):
    """sha256 of the model file written as `refdoc train` writes it."""
    model_io.save_model(model, path, corpus_fingerprint=dataset.fingerprint())
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_model_files_match_golden_digests(algo, bundled_models,
                                          synthetic_dataset, tmp_path,
                                          monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", SOURCE_DATE_EPOCH)
    golden = json.loads(GOLDEN.read_text())
    got = file_digest(bundled_models[algo], synthetic_dataset,
                      tmp_path / f"{algo}.json")
    assert got == golden[algo], f"{algo} model file bytes changed"
    model_io.load_model(tmp_path / f"{algo}.json")


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("algo", ["gbt", "logreg", "rf"])
def test_model_files_match_golden_digests_at_every_worker_count(
        algo, cpus, synthetic_dataset, tmp_path, monkeypatch, forked_pids):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", SOURCE_DATE_EPOCH)
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    golden = json.loads(GOLDEN.read_text())
    model = pipeline.fit(synthetic_dataset, ModelConfig(algorithm=algo))
    assert len(forked_pids) == cpus - 1
    got = file_digest(model, synthetic_dataset, tmp_path / f"{algo}.json")
    assert got == golden[algo], f"{algo} model file bytes changed"
    model_io.load_model(tmp_path / f"{algo}.json")


if __name__ == "__main__":
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    corpus = generate_corpus(seed=0, per_class=100)
    with tempfile.TemporaryDirectory() as tmp:
        table = {a: file_digest(pipeline.fit(corpus, ModelConfig(algorithm=a)),
                                corpus, Path(tmp) / f"{a}.json")
                 for a in ALGORITHMS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
