"""End-to-end glue: dataset -> n-gram counts -> vocabulary -> model.

The one fit path and the one message-to-label path: the CLI,
cross-validation, the inconsistency report and the service all call fit
and predict_message rather than repeating their steps.
"""

from __future__ import annotations

from typing import Iterable

from . import classifiers, features, textprep
from .corpus import CommitRecord, RefactoringType
from .errors import UnknownLabel


def featurize(message: str, n_max: int):
    """N-gram counts of one raw commit message."""
    return features.count_ngrams(textprep.preprocess(message), n_max)


def fit(dataset: Iterable[CommitRecord], config: classifiers.ModelConfig,
        counts=None) -> classifiers.TrainedModel:
    """Train the configured pipeline on fully labeled records.

    dataset is any iterable of records, a corpus.Dataset or a plain list
    such as one cross-validation fold's training rows. None-labeled rows
    are rejected unless the config says include_none, and include_none
    demands that such rows exist rather than synthesizing them. counts,
    if given, holds featurize's dict of each record, from a caller that
    counted them already.
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

    if counts is None:
        counts = [featurize(r.message, config.n_max) for r in records]
    labels = [r.label for r in records]
    vocab = features.vocabulary_from_counts(counts, labels, config.n_max,
                                            config.k_select)
    vectors = [features.weigh(c, vocab) for c in counts]
    return classifiers.train(config, vectors, labels, vocab)


def predict_message(model: classifiers.TrainedModel, message: str,
                    counts=None):
    """(label, scores) for one raw commit message, or for its featurize
    counts when the caller holds them already."""
    if counts is None:
        counts = featurize(message, model.vocab.n_max)
    scores = classifiers.predict(model, features.weigh(counts, model.vocab))
    label = classifiers.predicted_label(scores, model.class_order)
    return label, scores
