"""End-to-end glue: dataset -> preprocessed docs -> vocabulary -> model.

The one fit path and the one message-to-label path: the CLI,
cross-validation, the inconsistency report and the service all call fit
and predict_message rather than repeating their steps.
"""

from __future__ import annotations

from . import classifiers, features, textprep
from .corpus import Dataset, RefactoringType
from .errors import UnknownLabel


def fit(dataset: Dataset,
        config: classifiers.ModelConfig) -> classifiers.TrainedModel:
    """Train the configured pipeline on a fully labeled dataset.

    None-labeled rows are rejected unless the config says include_none, and
    include_none demands that such rows exist rather than synthesizing
    them.
    """
    records = list(dataset)
    if any(r.label is None for r in records):
        raise UnknownLabel("training needs labels on every record")
    has_none = any(r.label is RefactoringType.NONE for r in records)
    if has_none and not config.include_none:
        raise UnknownLabel(
            "dataset has None-labeled rows; pass include_none to use them")
    if config.include_none and not has_none:
        raise UnknownLabel(
            "include_none requires None-labeled rows in the corpus")

    docs = [textprep.preprocess(r.message) for r in records]
    labels = [r.label for r in records]
    vocab = features.build_vocabulary(docs, labels, n_max=config.n_max,
                                      k_select=config.k_select)
    vectors = [features.vectorize(doc, vocab) for doc in docs]
    return classifiers.train(config, vectors, labels, vocab)


def predict_message(model: classifiers.TrainedModel, message: str):
    """(label, scores) for one raw commit message."""
    doc = textprep.preprocess(message)
    vec = features.vectorize(doc, model.vocab)
    scores = classifiers.predict(model, vec)
    label = classifiers.predicted_label(scores, model.class_order)
    return label, scores
