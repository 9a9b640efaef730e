import json

import pytest

from refdoc import pipeline
from refdoc.classifiers import ModelConfig
from refdoc.errors import ModelFormatError
from refdoc.model_io import FORMAT_VERSION, load_model, save_model
from refdoc.synthetic import FILLERS, NOISE_WORDS, generate_corpus


def fuzz_messages(n=1000, seed=123):
    import numpy as np
    rng = np.random.default_rng(seed)
    pool = NOISE_WORDS + FILLERS + [
        "renamed", "method", "name", "moved", "extracted", "inlined",
        "pulled", "pushed", "split", "merged", "common", "code", "class",
        "helper", "up", "down", "into", "the",
    ]
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 12))
        out.append(" ".join(pool[int(rng.integers(0, len(pool)))]
                            for _ in range(k)))
    return out


@pytest.mark.parametrize("algo", ["nb", "logreg", "rf", "gbt"])
def test_roundtrip_predictions_identical(algo, tmp_path):
    ds = generate_corpus(seed=3, per_class=20)
    model = pipeline.fit(ds, ModelConfig(algorithm=algo))
    path = tmp_path / "model.json"
    save_model(model, path, corpus_fingerprint=ds.fingerprint())
    restored = load_model(path)
    for message in fuzz_messages(n=250):
        la, sa = pipeline.predict_message(model, message)
        lb, sb = pipeline.predict_message(restored, message)
        assert la is lb
        assert sa == sb  # floats survive the JSON round trip exactly


def test_large_fuzz_roundtrip_on_session_model(nb_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(nb_model, path)
    restored = load_model(path)
    for message in fuzz_messages(n=1000):
        la, _ = pipeline.predict_message(nb_model, message)
        lb, _ = pipeline.predict_message(restored, message)
        assert la is lb


def test_version_mismatch_rejected(nb_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(nb_model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_non_json_file_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("definitely not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


def _drop_vocabulary(p):
    del p["vocabulary"]


def _drop_log_theta(p):
    del p["parameters"]["log_theta"]


def _string_pipeline(p):
    p["pipeline"] = "n_max=2"


def _number_for_ngrams(p):
    p["vocabulary"]["ngrams"] = 7


def _bad_hyperparameters(p):
    p["hyperparameters"] = ["alpha"]


def _ragged_theta(p):
    p["parameters"]["log_theta"] = [[0.0], [0.0, 1.0]]


@pytest.mark.parametrize("mutate", [
    _drop_vocabulary, _drop_log_theta, _string_pipeline,
    _number_for_ngrams, _bad_hyperparameters, _ragged_theta])
def test_structural_damage_raises_model_format_error(nb_model, tmp_path,
                                                     mutate):
    path = tmp_path / "model.json"
    save_model(nb_model, path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("text", ["[1, 2]", "42", "null", "\"model\""])
def test_non_object_payload_rejected(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_saved_file_is_deterministic(nb_model, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(nb_model, a, corpus_fingerprint="f")
    save_model(nb_model, b, corpus_fingerprint="f")
    assert a.read_bytes() == b.read_bytes()


def test_model_file_records_config_and_metadata(gbt_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(gbt_model, path, corpus_fingerprint="abc123")
    payload = json.loads(path.read_text())
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["algorithm"] == "gbt"
    assert payload["hyperparameters"]["n_trees"] == 100
    assert payload["pipeline"] == {"n_max": 2, "k_select": 5000, "seed": 0}
    assert payload["metadata"]["corpus_fingerprint"] == "abc123"
    assert payload["metadata"]["prng"] == "pcg64"
    assert payload["class_order"] == sorted(payload["class_order"])
