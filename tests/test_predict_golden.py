"""/predict bodies are pinned byte for byte by committed sha256 digests.

For each of the four algorithms trained on the bundled corpus at seed 0,
tests/data/predict_golden.json holds the digest of the predict_payload
body, serialized as the service does, of 62 messages: every tenth corpus
message, the empty message and one long message of 2,400 bytes. A change
to scoring or pattern matching that moves one output bit fails here.

Regenerate the file (only when a change of output is intended) with
    PYTHONPATH=src python tests/test_predict_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from refdoc import pipeline, terms, textprep
from refdoc.classifiers import ALGORITHMS, ModelConfig
from refdoc.service import predict_payload
from refdoc.synthetic import generate_corpus

GOLDEN = Path(__file__).resolve().parent / "data" / "predict_golden.json"
LONG_BYTES = 2400


def golden_messages(dataset):
    """The 62 messages whose bodies are pinned."""
    messages = [r.message for r in list(dataset)[::10]]
    long_text = " ".join(r.message for r in dataset)[:LONG_BYTES]
    return messages + ["", long_text]


def body_digests(model, messages):
    return [hashlib.sha256(json.dumps(predict_payload(model, m),
                                      sort_keys=True).encode()).hexdigest()
            for m in messages]


def test_golden_messages_have_the_pinned_shape(synthetic_dataset):
    messages = golden_messages(synthetic_dataset)
    assert len(messages) == 62
    assert messages[-2] == ""
    assert len(messages[-1].encode()) == LONG_BYTES


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_predict_bodies_match_golden_digests(algo, bundled_models,
                                             synthetic_dataset):
    golden = json.loads(GOLDEN.read_text())
    digests = body_digests(bundled_models[algo],
                           golden_messages(synthetic_dataset))
    mismatched = [i for i, (got, want) in enumerate(
        zip(digests, golden[algo])) if got != want]
    assert len(digests) == len(golden[algo])
    assert not mismatched, f"{algo} bodies differ for messages {mismatched}"


def test_bodies_do_not_depend_on_the_word_memos(bundled_models,
                                               synthetic_dataset):
    messages = golden_messages(synthetic_dataset)
    for algo, model in bundled_models.items():
        cold = []
        for message in messages:
            textprep.lemmatize.cache_clear()
            terms._edge_keys.cache_clear()
            cold.append(body_digests(model, [message])[0])
        assert cold == body_digests(model, messages), algo


if __name__ == "__main__":
    corpus = generate_corpus(seed=0, per_class=100)
    msgs = golden_messages(corpus)
    table = {a: body_digests(pipeline.fit(corpus, ModelConfig(algorithm=a)),
                             msgs)
             for a in ALGORITHMS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
